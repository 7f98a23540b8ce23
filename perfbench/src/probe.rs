//! Prices: public calls of single layers, timed in isolation.
//!
//! Each probe times a tight loop of one call on an otherwise idle
//! process and reports the median over rounds of the mean ns per call.
//! The cost model multiplies these prices by the per-op counts the
//! measured run observed.

use std::hint::black_box;
use std::time::Instant;

use lfrc_core::{pinned, Heap, Links, McasWord, PtrField, SharedField};
use lfrc_dcas::DcasWord;
use lfrc_kv::Kv;
use lfrc_obs::Hist;

/// A one-word object for the load and allocation probes.
struct Leaf(#[allow(dead_code)] u64);

impl Links<McasWord> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

const ROUNDS: usize = 7;

/// Median over [`ROUNDS`] of the mean ns of `calls` calls made by `body`.
fn price(calls: u64, mut body: impl FnMut(u64)) -> f64 {
    body(calls / 4); // warm caches, pools and thread-local state
    let mut means: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            body(calls);
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[ROUNDS / 2]
}

#[derive(Debug, Clone, Copy)]
pub struct Prices {
    pub route_ns: f64,
    pub pin_ns: f64,
    pub load_dcas_ns: f64,
    pub load_deferred_ns: f64,
    pub dcas_attempt_ns: f64,
    pub alloc_free_ns: f64,
    pub record_ns: f64,
}

impl Prices {
    pub fn measure(kv: &Kv) -> Prices {
        let heap: Heap<Leaf, McasWord> = Heap::new();
        let leaf = heap.alloc(Leaf(7));
        let root: SharedField<Leaf, McasWord> = SharedField::new(Some(&leaf));
        let (a, b) = (McasWord::new(4), McasWord::new(8));

        let prices = Prices {
            route_ns: price(1 << 20, |n| {
                for k in 0..n {
                    black_box(kv.shard_of(black_box(k.wrapping_mul(0x9e37_79b9))));
                }
            }),
            pin_ns: price(1 << 18, |n| {
                for _ in 0..n {
                    pinned(|p| {
                        black_box(p);
                    });
                }
            }),
            load_dcas_ns: price(1 << 16, |n| {
                for _ in 0..n {
                    black_box(root.load());
                }
            }),
            // One pin amortized over every borrow in the round, so the
            // price is the borrow alone.
            load_deferred_ns: price(1 << 18, |n| {
                pinned(|p| {
                    for _ in 0..n {
                        black_box(root.load_deferred(p));
                    }
                })
            }),
            dcas_attempt_ns: price(1 << 16, |n| {
                for _ in 0..n {
                    black_box(McasWord::dcas(&a, &b, 4, 8, 4, 8));
                }
            }),
            alloc_free_ns: price(1 << 16, |n| {
                for i in 0..n {
                    drop(black_box(heap.alloc(Leaf(i))));
                }
            }),
            record_ns: price(1 << 20, |n| {
                for i in 0..n {
                    lfrc_obs::hist::record(Hist::OpLatencyNs, black_box(i & 0xffff));
                }
            }),
        };
        drop(root);
        drop(leaf);
        lfrc_core::settle_thread();
        lfrc_core::flush_thread();
        prices
    }
}
