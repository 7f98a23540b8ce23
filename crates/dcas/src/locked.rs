//! Lock-striped DCAS strategy — the ablation baseline.
//!
//! The paper argues that DCAS "adds to the mounting evidence that stronger
//! synchronization primitives are needed" (§7); experiment E7 quantifies
//! what the *software* realization of DCAS costs by comparing the
//! lock-free descriptor strategy ([`crate::McasWord`]) against this much
//! simpler — but blocking — strategy: a fixed table of spin locks, with a
//! multi-word operation acquiring the (deduplicated, index-ordered) locks
//! covering its cells.
//!
//! Single-word loads also take the stripe lock. That is deliberate: an
//! unlocked load could observe a half-applied DCAS (first word written,
//! second not yet), which would break the linearizability contract of
//! [`DcasWord`] and make this strategy useless as a differential oracle.
//!
//! Because the strategy blocks, a structure built on it is **not**
//! lock-free; the stall experiment (E4) demonstrates the consequence.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use lfrc_reclaim::CachePadded;

use crate::emu::with_guard;
use crate::Guard;
use crate::{DcasWord, McasOp, MAX_PAYLOAD};

/// Number of lock stripes. A power of two; collisions only cost extra
/// serialization, never incorrectness.
const STRIPES: usize = 1024;

struct Stripe {
    locked: AtomicBool,
}

impl Stripe {
    const fn new() -> Self {
        Stripe {
            locked: AtomicBool::new(false),
        }
    }

    fn lock(&self) {
        let mut spins = 0u32;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            while self.locked.load(Ordering::Relaxed) {
                // Under cooperative schedule exploration the stripe's
                // holder may be descheduled; without a yield point here a
                // spinning thread would hold the (only) CPU forever.
                crate::instrument::yield_point(crate::instrument::InstrSite::LockSpin);
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    // On few-core machines the holder needs the CPU to
                    // release the stripe; burning the quantum livelocks.
                    std::thread::yield_now();
                }
            }
        }
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

static TABLE: [CachePadded<Stripe>; STRIPES] = [const { CachePadded::new(Stripe::new()) }; STRIPES];

/// Maps a cell address to its stripe index (Fibonacci hashing on the
/// address, so nearby cells usually take different stripes).
fn stripe_of(addr: *const AtomicU64) -> usize {
    let a = addr as usize as u64;
    ((a.wrapping_mul(0x9e3779b97f4a7c15)) >> 48) as usize % STRIPES
}

/// RAII guard over a sorted, deduplicated set of stripes.
struct MultiLock {
    indexes: [usize; 8],
    len: usize,
}

impl MultiLock {
    fn acquire(cells: &[*const AtomicU64]) -> Self {
        assert!(cells.len() <= 8, "lock strategy supports up to 8 cells");
        let mut indexes = [0usize; 8];
        for (i, &c) in cells.iter().enumerate() {
            indexes[i] = stripe_of(c);
        }
        let slice = &mut indexes[..cells.len()];
        slice.sort_unstable();
        let mut len = 0;
        for i in 0..slice.len() {
            if len == 0 || slice[len - 1] != slice[i] {
                slice[len] = slice[i];
                len += 1;
            }
        }
        for &idx in &indexes[..len] {
            TABLE[idx].lock();
        }
        MultiLock { indexes, len }
    }
}

impl Drop for MultiLock {
    fn drop(&mut self) {
        for &idx in self.indexes[..self.len].iter().rev() {
            TABLE[idx].unlock();
        }
    }
}

/// A DCAS-capable cell backed by striped spin locks.
pub struct LockWord {
    word: AtomicU64,
}

impl fmt::Debug for LockWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockWord")
            .field("value", &self.load())
            .finish()
    }
}

impl DcasWord for LockWord {
    fn new(value: u64) -> Self {
        debug_assert!(value <= MAX_PAYLOAD);
        LockWord {
            word: AtomicU64::new(value),
        }
    }

    fn load(&self) -> u64 {
        with_guard(|_| {
            let _lock = MultiLock::acquire(&[&self.word]);
            self.word.load(Ordering::Relaxed)
        })
    }

    fn load_pinned(&self, _guard: &Guard<'_>) -> u64 {
        debug_assert!(
            crate::is_pinned(),
            "LockWord::load_pinned: thread not pinned"
        );
        let _lock = MultiLock::acquire(&[&self.word]);
        self.word.load(Ordering::Relaxed)
    }

    fn store(&self, value: u64) {
        debug_assert!(value <= MAX_PAYLOAD);
        with_guard(|_| {
            let _lock = MultiLock::acquire(&[&self.word]);
            self.word.store(value, Ordering::Relaxed);
        })
    }

    fn compare_and_swap(&self, old: u64, new: u64) -> bool {
        debug_assert!(new <= MAX_PAYLOAD);
        with_guard(|_| {
            let _lock = MultiLock::acquire(&[&self.word]);
            if self.word.load(Ordering::Relaxed) == old {
                self.word.store(new, Ordering::Relaxed);
                true
            } else {
                false
            }
        })
    }

    fn fetch_add(&self, delta: i64) -> u64 {
        with_guard(|_| {
            let _lock = MultiLock::acquire(&[&self.word]);
            let cur = self.word.load(Ordering::Relaxed);
            self.word
                .store((cur as i64).wrapping_add(delta) as u64, Ordering::Relaxed);
            cur
        })
    }

    fn mcas(ops: &[McasOp<'_, Self>]) -> bool {
        let cells: Vec<*const AtomicU64> = ops.iter().map(|op| &op.cell.word as *const _).collect();
        debug_assert!(
            (0..cells.len()).all(|i| (i + 1..cells.len()).all(|j| cells[i] != cells[j])),
            "mcas entries must target distinct cells"
        );
        with_guard(|_| {
            let _lock = MultiLock::acquire(&cells);
            if ops
                .iter()
                .all(|op| op.cell.word.load(Ordering::Relaxed) == op.old)
            {
                for op in ops {
                    debug_assert!(op.new <= MAX_PAYLOAD);
                    op.cell.word.store(op.new, Ordering::Relaxed);
                }
                true
            } else {
                false
            }
        })
    }

    fn strategy_name() -> &'static str {
        "lock-striped"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn stripe_dedup_handles_collisions() {
        // Two cells that hash to the same stripe must not deadlock.
        let cells: Vec<LockWord> = (0..STRIPES as u64 * 2).map(LockWord::new).collect();
        // Find two cells sharing a stripe.
        let mut pair = None;
        'outer: for i in 0..cells.len() {
            for j in i + 1..cells.len() {
                if stripe_of(&cells[i].word) == stripe_of(&cells[j].word) {
                    pair = Some((i, j));
                    break 'outer;
                }
            }
        }
        let (i, j) = pair.expect("with 2×STRIPES cells a collision must exist");
        assert!(LockWord::dcas(
            &cells[i], &cells[j], i as u64, j as u64, 0, 0
        ));
        assert_eq!(cells[i].load(), 0);
        assert_eq!(cells[j].load(), 0);
    }

    #[test]
    fn bank_transfer_conserves_sum() {
        const TOTAL: u64 = 500;
        const MOVERS: usize = 4;
        const TRANSFERS: usize = 2_000;
        let a = LockWord::new(TOTAL);
        let b = LockWord::new(0);
        let barrier = Barrier::new(MOVERS);
        std::thread::scope(|s| {
            for t in 0..MOVERS {
                let (a, b, barrier) = (&a, &b, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut moved = 0;
                    while moved < TRANSFERS {
                        let va = a.load();
                        let vb = b.load();
                        let amt = (t as u64 % 3) + 1;
                        // Alternate direction by parity so no mover can
                        // starve on a drained account.
                        let (na, nb) = if va >= amt {
                            (va - amt, vb + amt)
                        } else if vb >= amt {
                            (va + amt, vb - amt)
                        } else {
                            continue; // torn reads; retry
                        };
                        if LockWord::dcas(a, b, va, vb, na, nb) {
                            moved += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(a.load() + b.load(), TOTAL);
    }

    #[test]
    fn mcas_rollback_on_partial_match() {
        let cells: Vec<LockWord> = (0..3).map(|_| LockWord::new(1)).collect();
        assert!(!LockWord::mcas(&[
            McasOp {
                cell: &cells[0],
                old: 1,
                new: 2
            },
            McasOp {
                cell: &cells[1],
                old: 0,
                new: 2
            },
            McasOp {
                cell: &cells[2],
                old: 1,
                new: 2
            },
        ]));
        for c in &cells {
            assert_eq!(c.load(), 1);
        }
    }
}
