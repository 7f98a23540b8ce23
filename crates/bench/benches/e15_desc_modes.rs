//! Bench companion to experiment E15: MCAS attempt latency on immortal
//! descriptors (per-thread sequence-numbered slots, never reclaimed).
//! Three layers of measurement:
//!
//! 1. Minibench micro-costs — uncontended `dcas` and 4-entry `mcas`
//!    attempts.
//! 2. A manual ns/attempt figure for the same primitive.
//! 3. A multi-thread contended sweep: N threads hammering DCAS over one
//!    shared cell pair, total Mops/s — contention is where the help
//!    path's descriptor traffic concentrates. The counter readout
//!    asserts each window performed zero epoch retirements and zero
//!    pool consultations.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lfrc_bench::Minibench;
use lfrc_dcas::{desc_mode, DcasWord, McasOp, McasWord};
use lfrc_obs::{Counter, Snapshot};

/// One uncontended identity DCAS attempt (always succeeds, no retry
/// loop) — the pure per-attempt descriptor cost.
fn one_dcas(a: &McasWord, b: &McasWord) {
    black_box(McasWord::dcas(a, b, 1, 2, 1, 2));
}

/// Mean ns per uncontended attempt.
fn ns_per_attempt(reps: u64) -> f64 {
    let a = McasWord::new(1);
    let b = McasWord::new(2);
    for _ in 0..1_000 {
        one_dcas(&a, &b);
    }
    let start = Instant::now();
    for _ in 0..reps {
        one_dcas(&a, &b);
    }
    let elapsed = start.elapsed();
    lfrc_dcas::quiesce();
    elapsed.as_nanos() as f64 / reps as f64
}

/// Runs `threads` workers hammering DCAS increments over one shared
/// cell pair for `window`; returns total Mops/s (one op = one attempt,
/// successful or not — attempts are what descriptors cost).
fn contended_mops(threads: usize, window: Duration) -> f64 {
    let a = McasWord::new(0);
    let b = McasWord::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (a, b, stop, barrier) = (&a, &b, &stop, &barrier);
                s.spawn(move || {
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..32 {
                            let (va, vb) = (a.load(), b.load());
                            black_box(McasWord::dcas(a, b, va, vb, va + 1, vb + 1));
                            ops += 1;
                        }
                    }
                    ops
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    lfrc_dcas::quiesce();
    total as f64 / window.as_secs_f64() / 1e6
}

fn main() {
    let mut c = Minibench::from_args();
    let mode = desc_mode().name();

    // Layer 1: uncontended micro-costs.
    {
        let mut g = c.group(format!("e15/{mode}"));
        let a = McasWord::new(1);
        let b = McasWord::new(2);
        g.bench_function("dcas_attempt", || one_dcas(&a, &b));
        let cells: Vec<McasWord> = (0..4u64).map(McasWord::new).collect();
        g.bench_function("mcas_4_identity", || {
            let ops: Vec<McasOp<'_, McasWord>> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| McasOp {
                    cell: c,
                    old: i as u64,
                    new: i as u64,
                })
                .collect();
            black_box(McasWord::mcas(&ops));
        });
        g.finish();
    }

    // Layer 2: ns/attempt.
    const REPS: u64 = 200_000;
    let ns = ns_per_attempt(REPS);
    println!();
    println!("e15 uncontended dcas attempt cost ({REPS} reps)");
    println!("{:>10} {:>12}", "mode", "ns/attempt");
    println!("{mode:>10} {ns:>12.2}");

    // Layer 3: contended throughput sweep, with each window's
    // zero-alloc / zero-defer evidence read off the counters.
    let window = Duration::from_millis(300);
    println!();
    println!(
        "e15 contended dcas throughput ({}ms window)",
        window.as_millis()
    );
    println!("{:>8} {:>10} {:>12}", "threads", "mode", "Mops/s");
    for threads in [2usize, 4, 8] {
        let before = Snapshot::take();
        let mops = contended_mops(threads, window);
        let delta = Snapshot::take().diff(&before);
        println!("{threads:>8} {mode:>10} {mops:>12.2}");
        if lfrc_obs::enabled() {
            assert_eq!(
                delta.get(Counter::EpochRetired),
                0,
                "contended window performed an epoch retirement"
            );
            assert_eq!(
                delta.get(Counter::PoolMagazineHit) + delta.get(Counter::PoolMagazineMiss),
                0,
                "contended window consulted the slab pool"
            );
        }
    }
    if lfrc_obs::enabled() {
        println!("{mode} windows: 0 epoch retirements, 0 pool consultations (asserted)");
    }
}
