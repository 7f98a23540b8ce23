//! Scheduled exploration of the sharded KV front end (`lfrc-kv`):
//! the shard router and batched pin-amortized writes under `lfrc-sched`
//! cooperative interleaving (ISSUE 9 satellite; DESIGN.md §5.16).
//!
//! The oracle is a **single-shard** store driven through the same op
//! sequence under the same seed: hashed routing is a pure partition of
//! the key space, so it must never change what the store as a whole
//! contains. Each scheduled round therefore runs the identical racing
//! bodies against a 4-shard store and a 1-shard oracle and asserts the
//! final key multisets agree (threads write disjoint key ranges, so the
//! final set is also deterministic — the expected-value assert and the
//! oracle assert cross-check each other).
//!
//! The contended DeferredDec sweep drops the disjointness: both threads
//! write overlapping keys and a delete races an insert of the same key,
//! so only part of the final set is schedule-independent. That part is
//! diffed against the oracle; each racing key is checked against the
//! return values that decided it.
//!
//! Safety evidence per explored schedule, as everywhere else in the
//! suite: zero census canary hits (`rc_on_freed`), zero live objects
//! once increment buffers settle and the grace period drains.
//!
//! Crash plans target the **batch-settle site**: `write_batch` applies
//! every write inside one `defer::pinned` scope, so under
//! `Strategy::DeferredInc` the pending-increment settle
//! (`InstrSite::IncSettle`) fires once per batch at pin exit — a thread
//! dying right there is the worst case for the amortization (a whole
//! batch's worth of buffered increments in flight at once).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfrc_repro::core::{Census, McasWord, Strategy};
use lfrc_repro::kv::{KvConfig, KvStore, KvWrite};
use lfrc_sched::{Body, CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, Schedule, Trace};

const THREADS: usize = 2;

/// Settle pending increments, then flush parked decrements — the
/// teardown order every DeferredInc thread owes (settling may park
/// decrements, never the other way).
fn settle_and_flush() {
    lfrc_repro::core::settle_thread();
    lfrc_repro::core::flush_thread();
}

/// Drains every shard census to quiescence, bounded; returns total
/// still-live objects. Retired cover units destruct only after the
/// epoch advances past their grace period, so `live()` is not zero the
/// instant the store drops.
fn drain_censuses(censuses: &[Arc<Census>]) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while censuses.iter().any(|c| c.live() != 0) && Instant::now() < deadline {
        settle_and_flush();
        lfrc_repro::dcas::quiesce();
        std::thread::yield_now();
    }
    censuses.iter().map(|c| c.live()).sum()
}

/// Outcome of one scheduled round through one store width.
struct Round {
    trace: Trace,
    /// Every live key at schedule end, sorted (the store-wide multiset;
    /// keys are distinct so multiset equality is sorted-Vec equality).
    keys: Vec<u64>,
    /// Per-thread count of membership probes that saw the expected
    /// answer (2 each on a fault-free run).
    get_hits: Vec<u64>,
    /// Live objects after settle + flush + grace drain, summed over
    /// shards.
    leaked: u64,
    /// Census canary, summed over shards: rc updates on freed objects.
    rc_on_freed: u64,
}

/// The final key set both widths must converge to: thread `i` owns keys
/// `10i..10i+4`, batch-puts three, then batch-deletes one and puts a
/// fourth.
fn expected_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = (0..THREADS as u64)
        .flat_map(|i| [10 * i, 10 * i + 2, 10 * i + 3])
        .collect();
    keys.sort_unstable();
    keys
}

/// One scheduled round: `THREADS` racing bodies of batched writes and
/// membership probes against a `shards`-wide store. Threads write
/// disjoint key ranges but collide freely inside shards (the router
/// scatters both ranges across the same skip lists), so every
/// interleaving exercises cross-thread DCAS races on shared towers.
fn kv_race(shards: usize, strategy: Strategy, policy: &Policy, plan: FaultPlan) -> Round {
    let kv: KvStore<McasWord> = KvStore::with_config(KvConfig { shards, strategy });
    let hits: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
    let trace = {
        let (kv, hits) = (&kv, &hits);
        let bodies: Vec<Body<'_>> = (0..THREADS)
            .map(|i| {
                let body: Body<'_> = Box::new(move || {
                    let base = 10 * i as u64;
                    // One amortization scope (the reentrant-pin pattern
                    // the kv docs advertise): both batches and the
                    // read-your-writes probes share a single pin window,
                    // so the settle — and its advance-gate release —
                    // runs once at this scope's exit. That exit is the
                    // batch-settle site the crash plans below target.
                    let h = lfrc_repro::core::defer::pinned(|_pin| {
                        kv.write_batch(&[
                            KvWrite::Put(base),
                            KvWrite::Put(base + 1),
                            KvWrite::Put(base + 2),
                        ]);
                        let mut h = 0u64;
                        if kv.get(base) {
                            h += 1; // own puts are visible to own gets
                        }
                        kv.write_batch(&[KvWrite::Delete(base + 1), KvWrite::Put(base + 3)]);
                        if !kv.get(base + 1) {
                            h += 1; // own deletes too
                        }
                        h
                    });
                    hits[i].store(h, Ordering::SeqCst);
                    // Scheduled bodies must not rely on TLS exit.
                    settle_and_flush();
                });
                body
            })
            .collect();
        Schedule::new().faults(plan).run(policy, bodies)
    };
    let keys = kv.keys();
    let get_hits: Vec<u64> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
    let censuses: Vec<Arc<Census>> = (0..kv.shard_count())
        .map(|s| Arc::clone(kv.shard(s).heap().census()))
        .collect();
    drop(kv);
    settle_and_flush();
    let leaked = drain_censuses(&censuses);
    Round {
        trace,
        keys,
        get_hits,
        leaked,
        rc_on_freed: censuses.iter().map(|c| c.rc_on_freed()).sum(),
    }
}

/// The fault-free assertion: a round must land on the deterministic
/// final key set with clean canaries, no leak, and every same-thread
/// probe answered correctly.
fn assert_round_clean(seed: u64, what: &str, round: &Round) {
    assert_eq!(
        round.keys,
        expected_keys(),
        "{what}: final key set diverged — replay with LFRC_SCHED_SEED={seed}"
    );
    for (t, &h) in round.get_hits.iter().enumerate() {
        assert_eq!(
            h, 2,
            "{what}/t{t}: same-thread get missed its own write — replay with LFRC_SCHED_SEED={seed}"
        );
    }
    assert_eq!(
        round.rc_on_freed, 0,
        "{what}: rc update on freed object — replay with LFRC_SCHED_SEED={seed}"
    );
    assert_eq!(
        round.leaked, 0,
        "{what}: leak after settle+drain — replay with LFRC_SCHED_SEED={seed}"
    );
}

/// The acceptance-criteria sweep: ≥5 000 *distinct* seeded schedules of
/// the 4-shard store under `DeferredInc` (the strategy with the most
/// yield sites, hence the densest interleaving space), each diffed
/// against the 1-shard oracle under the same seed.
///
/// Set `LFRC_SCHED_SEED=<n>` to replay a single seed with a full event
/// dump of the sharded schedule instead.
#[test]
fn kv_sweep_explores_5k_distinct_schedules() {
    let strategy = Strategy::DeferredInc;
    if let Some(seed) = lfrc_sched::seed_from_env() {
        let sharded = kv_race(4, strategy, &Policy::Random(seed), FaultPlan::new());
        let oracle = kv_race(1, strategy, &Policy::Random(seed), FaultPlan::new());
        println!(
            "replayed LFRC_SCHED_SEED={seed} (4-shard): trace hash {:#018x}, {} steps\n{}",
            sharded.trace.hash,
            sharded.trace.steps,
            sharded.trace.format_events()
        );
        assert_round_clean(seed, "kv/4-shard", &sharded);
        assert_round_clean(seed, "kv/oracle", &oracle);
        assert_eq!(sharded.keys, oracle.keys);
        return;
    }
    const TARGET: usize = 5_000;
    let mut hashes = HashSet::new();
    let mut seed = 0u64;
    while hashes.len() < TARGET {
        assert!(
            seed < 20 * TARGET as u64,
            "schedule space saturated at {} distinct schedules before reaching {TARGET}",
            hashes.len()
        );
        let sharded = kv_race(4, strategy, &Policy::Random(seed), FaultPlan::new());
        let oracle = kv_race(1, strategy, &Policy::Random(seed), FaultPlan::new());
        assert_round_clean(seed, "kv/4-shard", &sharded);
        assert_round_clean(seed, "kv/oracle", &oracle);
        assert_eq!(
            sharded.keys, oracle.keys,
            "sharded store disagrees with single-shard oracle — replay with LFRC_SCHED_SEED={seed}"
        );
        hashes.insert(sharded.trace.hash);
        seed += 1;
    }
    println!(
        "explored {} distinct 4-shard KV schedules over {seed} seeds",
        hashes.len()
    );
}

/// Replay determinism: rerunning a seed reproduces a bit-identical
/// trace (hash *and* full event sequence) and identical final keys,
/// across distinct store instances.
#[test]
fn kv_replay_is_bit_identical() {
    for seed in [5u64, 77, 0xD15C_0B01, 0x5EED_CAFE] {
        let a = kv_race(
            4,
            Strategy::DeferredInc,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        let b = kv_race(
            4,
            Strategy::DeferredInc,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        assert_eq!(
            a.trace.hash, b.trace.hash,
            "seed {seed}: trace hash diverged between identical runs"
        );
        assert_eq!(
            a.trace.events, b.trace.events,
            "seed {seed}: event sequences diverged"
        );
        assert_eq!(a.keys, b.keys, "seed {seed}: final keys diverged");
    }
}

/// Every strategy a shard can be built with survives the same scheduled
/// race (a thinner sweep than the DeferredInc one above — the other
/// strategies have fewer yield sites, so fewer seeds cover them).
#[test]
fn kv_every_strategy_survives_scheduled_races() {
    for strategy in Strategy::ALL {
        for seed in 0..40u64 {
            let round = kv_race(4, strategy, &Policy::Random(seed), FaultPlan::new());
            assert_round_clean(seed, strategy.name(), &round);
        }
    }
}

/// Keys the contended race pre-populates and never writes: the scan
/// must always return the ones on its shard.
const STABLE: [u64; 8] = [100, 104, 108, 112, 116, 120, 124, 128];
/// Racing keys whose final presence depends on the interleaving.
const RACY: [u64; 2] = [101, 105];
const SCAN_START: u64 = 100;
const SCAN_LIMIT: usize = 6;

/// Outcome of one contended round.
struct ContendedRound {
    trace: Trace,
    keys: Vec<u64>,
    /// Whether thread 1's `put(101)` (racing thread 0's delete) inserted.
    put_101: bool,
    /// Whether thread 1's `delete(105)` (racing thread 0's put) removed.
    delete_105: bool,
    /// Return values that hold on every interleaving: thread 0's
    /// `delete(101)` and `put(105)`.
    always_true: [bool; 2],
    scan: Vec<u64>,
    scan_shard_ok: bool,
    /// The `STABLE` keys on the scan's shard.
    home_stable: Vec<u64>,
    leaked: u64,
    rc_on_freed: u64,
}

/// One scheduled round with contended writers: both threads put and
/// delete overlapping keys (61 and 50), a delete races an insert of the
/// same key in both orders (101 and 105), and thread 1 scans the shard
/// of `SCAN_START` while the writes land.
fn kv_contended_race(shards: usize, strategy: Strategy, policy: &Policy) -> ContendedRound {
    let kv: KvStore<McasWord> = KvStore::with_config(KvConfig { shards, strategy });
    for k in STABLE.into_iter().chain([101, 50, 51]) {
        kv.put(k);
    }
    settle_and_flush();
    let rets: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
    let scanned = std::sync::Mutex::new(Vec::new());
    let trace = {
        let (kv, rets, scanned) = (&kv, &rets, &scanned);
        let record = move |i: usize, r: bool| rets[i].store(r as u64, Ordering::SeqCst);
        let t0: Body<'_> = Box::new(move || {
            kv.write_batch(&[KvWrite::Put(60), KvWrite::Put(61), KvWrite::Delete(50)]);
            record(0, kv.delete(101));
            record(1, kv.put(105));
            settle_and_flush();
        });
        let t1: Body<'_> = Box::new(move || {
            kv.write_batch(&[
                KvWrite::Put(61),
                KvWrite::Put(62),
                KvWrite::Delete(50),
                KvWrite::Delete(51),
            ]);
            record(2, kv.put(101));
            let got = kv.scan(SCAN_START, SCAN_LIMIT);
            record(3, kv.delete(105));
            *scanned.lock().unwrap() = got;
            settle_and_flush();
        });
        Schedule::new().run(policy, vec![t0, t1])
    };
    let ret = |i: usize| rets[i].load(Ordering::SeqCst) == 1;
    let scan = scanned.into_inner().unwrap();
    let home = kv.shard_of(SCAN_START);
    let scan_shard_ok = scan.iter().all(|&k| kv.shard_of(k) == home);
    let home_stable = STABLE
        .into_iter()
        .filter(|&k| kv.shard_of(k) == home)
        .collect();
    let keys = kv.keys();
    let censuses: Vec<Arc<Census>> = (0..kv.shard_count())
        .map(|s| Arc::clone(kv.shard(s).heap().census()))
        .collect();
    drop(kv);
    settle_and_flush();
    let leaked = drain_censuses(&censuses);
    ContendedRound {
        trace,
        keys,
        put_101: ret(2),
        delete_105: ret(3),
        always_true: [ret(0), ret(1)],
        scan,
        scan_shard_ok,
        home_stable,
        leaked,
        rc_on_freed: censuses.iter().map(|c| c.rc_on_freed()).sum(),
    }
}

/// The schedule-independent part of a contended round's final key set.
fn contended_settled_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = STABLE.into_iter().chain([60, 61, 62]).collect();
    keys.sort_unstable();
    keys
}

/// Checks one contended round on its own: the racy keys agree with the
/// return values that decided them, the rest is the settled set, the
/// scan has its promised shape, and every count drains.
fn assert_contended_clean(seed: u64, what: &str, round: &ContendedRound) {
    let replay = format!("replay with LFRC_SCHED_SEED={seed}");
    assert_eq!(round.always_true, [true, true], "{what}: {replay}");
    assert_eq!(
        round.keys.contains(&101),
        round.put_101,
        "{what}: key 101 disagrees with the put that raced its delete — {replay}"
    );
    assert_eq!(
        round.keys.contains(&105),
        !round.delete_105,
        "{what}: key 105 disagrees with the delete that raced its put — {replay}"
    );
    let settled: Vec<u64> = round
        .keys
        .iter()
        .copied()
        .filter(|k| !RACY.contains(k))
        .collect();
    assert_eq!(settled, contended_settled_keys(), "{what}: {replay}");
    let scan = &round.scan;
    assert!(
        scan.len() <= SCAN_LIMIT,
        "{what}: scan over limit — {replay}"
    );
    assert!(
        scan.windows(2).all(|w| w[0] < w[1]),
        "{what}: scan unsorted {scan:?} — {replay}"
    );
    assert!(
        scan.iter().all(|&k| k >= SCAN_START),
        "{what}: scan below start {scan:?} — {replay}"
    );
    assert!(
        round.scan_shard_ok,
        "{what}: scan left its shard {scan:?} — {replay}"
    );
    // Every untouched key on the scan's shard must be there, up to the
    // last key of a full page (a short page must hold all of them).
    let end = match scan.last() {
        Some(&last) if scan.len() == SCAN_LIMIT => last,
        _ => u64::MAX,
    };
    for k in round.home_stable.iter().filter(|&&k| k <= end) {
        assert!(
            scan.contains(k),
            "{what}: scan {scan:?} missed untouched key {k} — {replay}"
        );
    }
    assert_eq!(
        round.rc_on_freed, 0,
        "{what}: rc update on freed object — {replay}"
    );
    assert_eq!(
        round.leaked, 0,
        "{what}: leak after settle+drain — {replay}"
    );
}

/// The DeferredDec write path (borrowed descents, promoted installs,
/// swings on borrowed preds) under ≥1 000 distinct seeded schedules of
/// the contended race, each diffed against the 1-shard oracle under the
/// same seed: the schedule-independent keys must agree exactly, and each
/// store's racy keys must agree with the return values that decided
/// them.
///
/// Set `LFRC_SCHED_SEED=<n>` to replay a single seed with a full event
/// dump of the sharded schedule instead.
#[test]
fn kv_deferred_dec_contended_sweep_explores_1k_distinct_schedules() {
    let strategy = Strategy::DeferredDec;
    let run = |seed: u64| {
        let sharded = kv_contended_race(4, strategy, &Policy::Random(seed));
        let oracle = kv_contended_race(1, strategy, &Policy::Random(seed));
        assert_contended_clean(seed, "kv-dec/4-shard", &sharded);
        assert_contended_clean(seed, "kv-dec/oracle", &oracle);
        let settled = |r: &ContendedRound| -> Vec<u64> {
            r.keys
                .iter()
                .copied()
                .filter(|k| !RACY.contains(k))
                .collect()
        };
        assert_eq!(
            settled(&sharded),
            settled(&oracle),
            "sharded store disagrees with single-shard oracle — replay with LFRC_SCHED_SEED={seed}"
        );
        sharded
    };
    if let Some(seed) = lfrc_sched::seed_from_env() {
        let sharded = run(seed);
        println!(
            "replayed LFRC_SCHED_SEED={seed} (4-shard, contended): trace hash {:#018x}, {} steps\n{}",
            sharded.trace.hash,
            sharded.trace.steps,
            sharded.trace.format_events()
        );
        return;
    }
    const TARGET: usize = 1_000;
    let mut hashes = HashSet::new();
    let mut seed = 0u64;
    while hashes.len() < TARGET {
        assert!(
            seed < 20 * TARGET as u64,
            "schedule space saturated at {} distinct schedules before reaching {TARGET}",
            hashes.len()
        );
        hashes.insert(run(seed).trace.hash);
        seed += 1;
    }
    println!(
        "explored {} distinct contended 4-shard DeferredDec schedules over {seed} seeds",
        hashes.len()
    );
}

/// The help-unlink race, placed deterministically: a writer's descent
/// finds a marked node `X`, loads its successor `Y`, and is preempted in
/// `Y`'s promote; meanwhile `X` is unlinked and freed and `Y` is removed
/// and freed. The promote must then fail on rc 0 and the descent restart,
/// instead of installing `Y`. Random schedules almost never hold one
/// thread off for two whole removes, so this sweep uses decision
/// prefixes: the remover runs `k1` steps (its mark lands at step 20),
/// the inserter runs `k2` steps (its descent reaches `X` at level 0
/// after about 80), then the remover runs to completion before the
/// inserter resumes — every `(k1, k2)` pair below the bounds. Tower
/// heights are deterministic per insert sequence, so the step counts are
/// too.
#[test]
fn kv_help_unlink_survives_successor_freed_under_it() {
    const K1: u32 = 48;
    const K2: u32 = 160;
    let promote_fail = lfrc_repro::obs::Counter::PromoteFail as usize;
    let fails_before = lfrc_repro::obs::counters::totals()[promote_fail];
    for k1 in 0..K1 {
        for k2 in 0..K2 {
            let kv: KvStore<McasWord> = KvStore::with_config(KvConfig {
                shards: 1,
                strategy: Strategy::DeferredDec,
            });
            for k in [5, 10, 11] {
                kv.put(k);
            }
            settle_and_flush();
            let prefix: Vec<u32> = (0..k1).map(|_| 0).chain((0..k2).map(|_| 1)).collect();
            {
                let kv = &kv;
                let remover: Body<'_> = Box::new(move || {
                    assert!(kv.delete(10));
                    assert!(kv.delete(11));
                    settle_and_flush();
                });
                let inserter: Body<'_> = Box::new(move || {
                    assert!(kv.put(20));
                    settle_and_flush();
                });
                Schedule::new().run(&Policy::Prefix(prefix), vec![remover, inserter]);
            }
            assert_eq!(kv.keys(), vec![5, 20], "k1 {k1} k2 {k2}");
            let census = Arc::clone(kv.shard(0).heap().census());
            drop(kv);
            settle_and_flush();
            let leaked = drain_censuses(std::slice::from_ref(&census));
            assert_eq!(
                census.rc_on_freed(),
                0,
                "k1 {k1} k2 {k2}: rc update on freed object"
            );
            assert_eq!(leaked, 0, "k1 {k1} k2 {k2}: leak after settle+drain");
        }
    }
    // Coverage: some schedule must have failed the promote. The counter
    // is process-wide, so concurrent tests can only add to it.
    if lfrc_repro::obs::enabled() {
        let fails = lfrc_repro::obs::counters::totals()[promote_fail] - fails_before;
        assert!(fails > 0, "no schedule reached the failed promote");
    }
}

/// Crash plans at the batch-settle site: the body's batch scope buffers
/// pending increments under one pin, and `InstrSite::IncSettle` fires
/// exactly once when that scope settles (releasing the epoch-advance
/// gate) — a thread dying right there (stalled forever or panicked)
/// must never corrupt a count. The final key set cannot be asserted on
/// a crashed run (the dead thread's writes are legitimately lost
/// mid-batch), so the assertions are safety-only: zero canary hits and
/// a bounded strand.
#[test]
fn kv_crash_plans_at_batch_settle_site() {
    // A crashed thread strands at most its in-flight batch: up to 4
    // skip-list nodes (tower + payload) plus the cover units its pinned
    // epoch was holding back.
    const LEAK_BOUND: u64 = 16;
    for mode in [CrashMode::Stall, CrashMode::Panic] {
        let mut fired = false;
        'search: for seed in 0..24u64 {
            for t in 0..THREADS {
                let plan = FaultPlan::new().crash(CrashSpec {
                    thread: t,
                    site: Some(InstrSite::IncSettle),
                    skip: 0,
                    mode,
                });
                let round = kv_race(4, Strategy::DeferredInc, &Policy::Random(seed), plan);
                assert_eq!(
                    round.rc_on_freed, 0,
                    "IncSettle / {mode:?} / t{t} / seed {seed}: rc update on freed object"
                );
                assert!(
                    round.leaked <= LEAK_BOUND,
                    "IncSettle / {mode:?} / t{t} / seed {seed}: {} live objects exceed the \
                     failed-thread bound of {LEAK_BOUND}",
                    round.leaked
                );
                if let Some(c) = round.trace.crashes.first() {
                    assert_eq!(
                        c.site,
                        InstrSite::IncSettle,
                        "crash fired at the wrong site"
                    );
                    assert_eq!(c.mode, mode);
                    fired = true;
                    break 'search;
                }
            }
        }
        assert!(
            fired,
            "no workload reached IncSettle ({mode:?}) — batch-settle coverage lost"
        );
    }
}
