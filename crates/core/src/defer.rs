//! Deferred reference counting — the read fast path (DESIGN.md §5.9).
//!
//! The paper's `LFRCLoad` pays a DCAS on **every** pointer read; that is
//! the dominant cost in the E1/E2 measurements. This module recovers
//! near-uncounted read throughput by *deferring* the two halves of the
//! counting discipline that sit on the hot path:
//!
//! * **Deferred reads** — [`pinned`] opens an epoch-pinned scope (the
//!   guard comes from `lfrc-reclaim`, via the DCAS emulator's collector);
//!   inside it, [`PtrField::load_deferred`](crate::PtrField::load_deferred)
//!   returns a [`Borrowed`] — an **uncounted** pointer that is a plain
//!   load, no DCAS, no count traffic. A `Borrowed` can be upgraded to a
//!   counted [`Local`] with [`Borrowed::promote`] when the algorithm
//!   needs a reference that outlives the pin (e.g. to install it
//!   somewhere or return it).
//! * **Deferred decrements** — [`defer_destroy`] parks a counted
//!   reference in a per-thread buffer instead of decrementing
//!   immediately; [`flush_thread`] (called automatically at
//!   [`FLUSH_THRESHOLD`], on thread exit — including panic unwind — and
//!   explicitly by tests) applies the whole batch under one epoch guard
//!   and then nudges the collector once, coalescing what would have been
//!   one decrement + one grace-period interaction per drop.
//!
//! # What this weakens, and what it does not
//!
//! The paper's weakened invariant has two halves: (**safety**) while
//! pointers to an object exist its count is nonzero, so it is never
//! freed prematurely; (**liveness**) once no pointers remain, the count
//! eventually reaches zero and the object is eventually freed. Deferral
//! weakens **only the liveness half further**: a reference parked in a
//! decrement buffer keeps its count unit, so the object stays allocated
//! until the owning thread flushes. The safety half is untouched — every
//! buffered entry still *owns* one count unit, so no count ever reads
//! lower than the true number of outstanding references.
//!
//! A `Borrowed` read needs a different argument, since it takes no count
//! at all: the pin keeps the object's **memory** mapped (the emulator
//! frees through the same collector the pin holds back), and
//! [`Borrowed::promote`] refuses to resurrect — it increments the count
//! with a CAS that only succeeds from a nonzero value. That CAS-from-
//! nonzero is exactly what separates this from the unsound CAS-only load
//! of §1 (experiment E5): the E5 bug is a blind `fetch_add` that can
//! land on a freed object; `promote` can observe a dead object (and
//! return `None`) but can never revive one.
//!
//! # Schedule exploration
//!
//! Every new window is instrumented: buffer append
//! (`InstrSite::DeferAppend`), flush entry (`DeferFlush`), the
//! epoch-advance attempt after a flush (`DeferEpochAdvance`), uncounted
//! reads (`BorrowLoad`), and the promote CAS window (`BorrowPromote`).
//! `lfrc-sched` explores all of them; `tests/snark_adversarial.rs` and
//! `tests/proptest_models.rs` assert the rc invariants over ≥10k
//! distinct schedules. Scheduled test bodies should call
//! [`flush_thread`] before returning: the scheduler uninstalls its hook
//! when a body ends, so an exit-time TLS flush would run unscheduled
//! (still correct, but outside the deterministic trace).
//!
//! One observability caveat: `std::thread::scope` can return *before* a
//! scoped thread's TLS destructors (and therefore its exit flush) have
//! finished — the flush still happens, but a census read right after the
//! scope races it. Code that asserts on the census should have scoped
//! bodies call [`flush_thread`] explicitly before returning.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;

use lfrc_dcas::instrument::yield_point;
use lfrc_dcas::{DcasWord, Guard, InstrSite};

use crate::local::Local;
use crate::object::{LfrcBox, Links};

/// Buffered decrements that trigger an automatic [`flush_thread`] on the
/// next append. Small enough that the census lag stays bounded, large
/// enough to amortize the flush's guard + collect.
pub const FLUSH_THRESHOLD: usize = 32;

/// One parked decrement: a type-erased counted pointer plus the
/// monomorphized destroy that knows how to release it.
struct Entry {
    ptr: *mut (),
    run: unsafe fn(*mut ()),
}

/// Trampoline: re-types the erased pointer and runs the ordinary
/// cascading destroy, so a flush reuses the exact Figure-2 machinery.
unsafe fn run_destroy<T: Links<W>, W: DcasWord>(p: *mut ()) {
    // Safety: `p` was erased from a counted `*mut LfrcBox<T, W>` whose
    // count the buffer owns and hereby gives up.
    unsafe { crate::destroy::destroy(p.cast::<LfrcBox<T, W>>()) };
}

/// The per-thread decrement buffer. Entries of *all* node types share one
/// buffer (the trampoline restores the type), so a thread touching many
/// structures still flushes in one batch.
struct DecBuffer {
    entries: Vec<Entry>,
}

impl Drop for DecBuffer {
    /// Thread exit — normal return or panic unwind — flushes whatever is
    /// still parked, so a dying thread cannot leak its buffered counts.
    fn drop(&mut self) {
        flush_entries(std::mem::take(&mut self.entries));
    }
}

thread_local! {
    static BUFFER: RefCell<DecBuffer> = {
        // Touch the emulator's thread-local reclamation handle *before*
        // constructing the buffer: TLS destructors run in reverse
        // construction order, so the buffer's drop-flush (which pins
        // through that handle) still finds it alive — including when the
        // thread exits by panic.
        lfrc_dcas::with_guard(|_| {});
        RefCell::new(DecBuffer { entries: Vec::new() })
    };
}

/// Applies a batch of parked decrements under one epoch guard, then
/// nudges the epoch forward one step. The nudge cannot reclaim *this*
/// batch (our own pin becomes the older-epoch straggler after one
/// advance), but it guarantees each flush's retirements become
/// reclaimable during the next flush — a one-cycle lag, never a stall
/// (locked in by `lfrc-reclaim`'s
/// `collect_under_own_pin_advances_one_step_per_cycle` test).
fn flush_entries(entries: Vec<Entry>) {
    if entries.is_empty() {
        return;
    }
    lfrc_obs::counters::incr(lfrc_obs::Counter::DeferFlush);
    lfrc_obs::counters::add(lfrc_obs::Counter::DeferFlushedEntries, entries.len() as u64);
    lfrc_obs::recorder::record(lfrc_obs::EventKind::DeferFlush, 0, entries.len() as u64);
    lfrc_dcas::with_guard(|guard| {
        yield_point(InstrSite::DeferFlush);
        for e in &entries {
            // Safety: each entry owns one count unit (given up here).
            unsafe { (e.run)(e.ptr) };
        }
        yield_point(InstrSite::DeferEpochAdvance);
        guard.collect();
    });
}

/// Parks one counted reference on the calling thread's decrement buffer
/// instead of decrementing now (`LFRCDestroy`, deferred).
///
/// The object's count — and therefore the census — does not move until
/// the buffer flushes; see the module docs for why this weakens only the
/// liveness half of the paper's invariant.
pub fn defer_destroy<T: Links<W>, W: DcasWord>(local: Local<T, W>) {
    let p = Local::into_counted_raw(local);
    // Safety: the Local's count transfers to the buffer.
    unsafe { defer_destroy_raw(p) };
}

/// Raw-pointer variant of [`defer_destroy`]. Null is a no-op.
///
/// # Safety
///
/// `v` must be null or a counted reference owned by the caller; the
/// caller gives that count up.
pub unsafe fn defer_destroy_raw<T: Links<W>, W: DcasWord>(v: *mut LfrcBox<T, W>) {
    if v.is_null() {
        return;
    }
    yield_point(InstrSite::DeferAppend);
    let depth = BUFFER.with(|b| {
        let mut buf = b.borrow_mut();
        buf.entries.push(Entry {
            ptr: v.cast::<()>(),
            run: run_destroy::<T, W>,
        });
        buf.entries.len()
    });
    lfrc_obs::counters::incr(lfrc_obs::Counter::DeferAppend);
    lfrc_obs::counters::record_max(lfrc_obs::Counter::DeferDepthHighWater, depth as u64);
    lfrc_obs::recorder::record(lfrc_obs::EventKind::DeferPark, v as usize, depth as u64);
    if depth >= FLUSH_THRESHOLD {
        flush_thread();
    }
}

/// Flushes the calling thread's decrement buffer: applies every parked
/// decrement (cascading as usual) under one epoch guard, then attempts
/// an epoch advance. A no-op when the buffer is empty.
pub fn flush_thread() {
    // Take the entries out first so cascading destroys (which may append
    // again through user `Drop` code) never re-enter the borrow.
    let entries = BUFFER.with(|b| std::mem::take(&mut b.borrow_mut().entries));
    flush_entries(entries);
}

/// Number of decrements currently parked on the calling thread.
///
/// The primary use is diagnosing the `std::thread::scope` residue from
/// the module docs: `scope` can return before a scoped thread's TLS
/// destructors (and therefore its exit flush) have run, so a census read
/// right after the scope may still see the parked counts as "live". A
/// thread that checks `pending()` before returning — and flushes when it
/// is nonzero — makes the residue impossible instead of merely unlikely:
///
/// ```
/// use lfrc_core::{defer, Heap, Links, PtrField};
/// use lfrc_dcas::McasWord;
///
/// struct Leaf;
/// impl Links<McasWord> for Leaf {
///     fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
/// }
///
/// let heap: Heap<Leaf, McasWord> = Heap::new();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         defer::defer_destroy(heap.alloc(Leaf));
///         // The decrement is parked, not applied: the census still
///         // counts the object, and pending() says why.
///         assert!(defer::pending() >= 1);
///         assert_eq!(heap.census().live(), 1);
///         // Without this, `scope` may return before this thread's
///         // exit flush runs, and the census assert below would race it.
///         if defer::pending() > 0 {
///             defer::flush_thread();
///         }
///         assert_eq!(defer::pending(), 0);
///     });
/// });
/// assert_eq!(heap.census().live(), 0, "no TLS-flush residue");
/// ```
pub fn pending() -> usize {
    BUFFER.with(|b| b.borrow().entries.len())
}

/// Older name for [`pending`], kept for the PR 2 call sites and tests.
pub fn pending_decrements() -> usize {
    pending()
}

/// Removes one parked decrement for the object `p`, if any, handing its
/// count unit to the caller. Used by
/// [`IncLocal::promote`](crate::inc::IncLocal::promote) to annihilate a
/// pending increment against a pending decrement on the same object —
/// the pair cancels with no count traffic at all. Entries for the same
/// object are fungible (each owns exactly one unit), so removing the
/// most recent match is always correct.
pub(crate) fn take_parked_decrement(p: *mut ()) -> bool {
    BUFFER.with(|b| {
        let mut buf = b.borrow_mut();
        match buf.entries.iter().rposition(|e| e.ptr == p) {
            Some(i) => {
                buf.entries.swap_remove(i);
                true
            }
            None => false,
        }
    })
}

/// Witness that the calling thread is pinned in the reclamation epoch.
///
/// Only [`pinned`] creates one; holding `&Pin` proves freed-but-borrowed
/// memory stays mapped. Deliberately `!Send`: the pin is a property of
/// the current thread.
///
/// A `Pin` also carries the guard its scope holds, so a cell read made
/// under it ([`Pin::read`]) does not pin a second time (DESIGN.md §5.9).
pub struct Pin {
    /// The guard [`pinned`] holds open for as long as this `Pin` exists,
    /// with its lifetime erased; [`Pin::read`] restores a lifetime no
    /// longer than the `Pin`'s own borrow. The raw pointer also makes
    /// `Pin` `!Send` and `!Sync`.
    guard: *const Guard<'static>,
}

impl fmt::Debug for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pin").finish_non_exhaustive()
    }
}

impl Pin {
    /// Reads `cell` under this pin, without pinning again — the
    /// [`DcasWord::load`] of a caller already inside the scope.
    #[inline]
    pub fn read<W: DcasWord>(&self, cell: &W) -> u64 {
        // Safety: `pinned` builds the `Pin` from a guard that outlives
        // it and hands it out only by reference, so the guard is alive
        // for as long as `&self` is.
        let guard = unsafe { &*self.guard.cast::<Guard<'_>>() };
        cell.load_pinned(guard)
    }
}

/// Runs `f` with the thread pinned in the emulator's reclamation epoch
/// (the guard from `lfrc-reclaim` that every emulated DCAS already
/// uses). Nesting is cheap — pinning is reentrant.
///
/// Inside the scope, [`PtrField::load_deferred`](crate::PtrField::load_deferred)
/// and [`Local::borrow`](crate::Local::borrow) hand out [`Borrowed`]
/// references; the higher-rank closure signature keeps them from
/// escaping the scope.
pub fn pinned<R>(f: impl FnOnce(&Pin) -> R) -> R {
    lfrc_dcas::with_guard(|guard| {
        // The settle guard bounds every pending increment (`crate::inc`)
        // to its pinning epoch: when the outermost scope exits — normal
        // return or panic unwind, in either case still inside the guard —
        // any increments not already resolved by their `IncLocal`s are
        // settled before the pin is released.
        let _settle = crate::inc::SettleGuard::enter();
        let pin = Pin {
            guard: (guard as *const Guard<'_>).cast(),
        };
        f(&pin)
    })
}

/// An **uncounted**, pin-scoped reference to an LFRC object.
///
/// Obtained from [`PtrField::load_deferred`](crate::PtrField::load_deferred)
/// (a plain load — no DCAS, no count) or [`Local::borrow`](crate::Local::borrow).
/// `Copy`: duplicating a borrow moves no counts.
///
/// A `Borrowed` may point at an object that is concurrently *logically*
/// freed (its count hit zero, its link fields were harvested, its canary
/// poisoned) — the pin only guarantees the memory stays mapped and is
/// not recycled. Consequences:
///
/// * `Deref` reads the value without an aliveness assertion; immutable
///   payload (keys, values) stays readable, but **link fields may read
///   null** once harvest begins.
/// * Traversals must validate: read the link first, then check
///   [`Borrowed::ref_count`]` > 0` — a nonzero count *after* the read
///   proves harvest had not begun when the link was read.
/// * [`Borrowed::promote`] upgrades to a counted [`Local`], failing
///   (rather than resurrecting) if the object died.
pub struct Borrowed<'p, T: Links<W>, W: DcasWord> {
    ptr: NonNull<LfrcBox<T, W>>,
    /// The scope's pin: the borrow's own count reads go through it.
    pin: &'p Pin,
}

impl<T: Links<W>, W: DcasWord> Clone for Borrowed<'_, T, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Links<W>, W: DcasWord> Copy for Borrowed<'_, T, W> {}

impl<'p, T: Links<W>, W: DcasWord> Borrowed<'p, T, W> {
    /// Wraps a raw pointer read under `pin`. Returns `None` for null.
    ///
    /// # Safety
    ///
    /// `p` must be null or point at an `LfrcBox` whose memory is kept
    /// mapped by the pin `pin` witnesses (i.e. it was read from a live
    /// field, or from a counted/borrowed reference, inside the scope).
    pub(crate) unsafe fn from_raw(p: *mut LfrcBox<T, W>, pin: &'p Pin) -> Option<Self> {
        NonNull::new(p).map(|ptr| Borrowed { ptr, pin })
    }

    /// The raw pointer (identity only; no count moves).
    pub fn as_raw(this: &Self) -> *mut LfrcBox<T, W> {
        this.ptr.as_ptr()
    }

    /// Raw pointer of an optional borrow (null for `None`).
    pub fn option_as_raw(v: Option<&Self>) -> *mut LfrcBox<T, W> {
        v.map_or(std::ptr::null_mut(), Self::as_raw)
    }

    /// Whether two borrows denote the same object.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.ptr == b.ptr
    }

    /// The object's current reference count (racy snapshot).
    ///
    /// Zero means the object is logically dead; because the sound
    /// protocol never increments a zero count, zero is **permanent** —
    /// which is what makes the read-then-validate idiom in the module
    /// docs work.
    pub fn ref_count(this: &Self) -> u64 {
        this.pin.read(this.object().rc_cell())
    }

    /// Upgrades the borrow to a counted [`Local`], or returns `None` if
    /// the object's count already hit zero (it is being — or has been —
    /// freed; the caller should restart its operation).
    ///
    /// This is the E5 counterexample made sound: the count is taken with
    /// a CAS that only succeeds **from a nonzero value**, so a dead
    /// object can be observed but never resurrected; and the pin rules
    /// out the address having been recycled for a new object.
    pub fn promote(this: &Self) -> Option<Local<T, W>> {
        let obj = this.object();
        loop {
            let r = this.pin.read(obj.rc_cell());
            if r == 0 {
                lfrc_obs::counters::incr(lfrc_obs::Counter::PromoteFail);
                lfrc_obs::recorder::record(
                    lfrc_obs::EventKind::PromoteFail,
                    this.ptr.as_ptr() as usize,
                    0,
                );
                return None;
            }
            // The window the paper's §1 warns about — held open for the
            // scheduler, closed by the CAS below.
            yield_point(InstrSite::BorrowPromote);
            if obj.rc_cell().compare_and_swap(r, r + 1) {
                lfrc_obs::counters::incr(lfrc_obs::Counter::PromoteSuccess);
                lfrc_obs::recorder::record(
                    lfrc_obs::EventKind::PromoteOk,
                    this.ptr.as_ptr() as usize,
                    r + 1,
                );
                // Safety: we just minted a count unit from a nonzero
                // count; it transfers to the Local.
                return unsafe { Local::from_counted_raw(this.ptr.as_ptr()) };
            }
        }
    }

    fn object(&self) -> &LfrcBox<T, W> {
        // Safety: the pin keeps the memory mapped (see `from_raw`).
        unsafe { self.ptr.as_ref() }
    }
}

impl<T: Links<W>, W: DcasWord> Deref for Borrowed<'_, T, W> {
    type Target = T;

    /// Reads the value **without** an aliveness assertion — a borrow may
    /// legitimately outlive the object's logical free (see the type
    /// docs); the pin guarantees the memory itself is intact.
    fn deref(&self) -> &T {
        &self.object().value
    }
}

impl<T: Links<W> + fmt::Debug, W: DcasWord> fmt::Debug for Borrowed<'_, T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Borrowed").field(&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Heap, PtrField};
    use crate::shared::SharedField;
    use lfrc_dcas::McasWord;

    struct Node {
        n: u64,
        next: PtrField<Node, McasWord>,
    }

    impl Links<McasWord> for Node {
        fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {
            f(&self.next);
        }
    }

    fn heap() -> Heap<Node, McasWord> {
        Heap::new()
    }

    #[test]
    fn defer_parks_then_flush_releases() {
        let heap = heap();
        let a = heap.alloc(Node {
            n: 1,
            next: PtrField::null(),
        });
        flush_thread(); // isolate from other tests on this thread
        let base = pending_decrements();
        defer_destroy(a);
        assert_eq!(pending_decrements(), base + 1);
        // The count is parked, not released: still live.
        assert_eq!(heap.census().live(), 1);
        flush_thread();
        assert_eq!(pending_decrements(), 0);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn threshold_triggers_auto_flush() {
        let heap = heap();
        flush_thread();
        for _ in 0..FLUSH_THRESHOLD {
            defer_destroy(heap.alloc(Node {
                n: 0,
                next: PtrField::null(),
            }));
        }
        // The FLUSH_THRESHOLD-th append flushed the whole batch.
        assert_eq!(pending_decrements(), 0);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn flush_cascades_like_eager_destroy() {
        let heap = heap();
        flush_thread();
        // head -> mid -> tail, all held only through head.
        let tail = heap.alloc(Node {
            n: 3,
            next: PtrField::null(),
        });
        let mid = heap.alloc(Node {
            n: 2,
            next: PtrField::null(),
        });
        mid.next.store_consume(tail);
        let head = heap.alloc(Node {
            n: 1,
            next: PtrField::null(),
        });
        head.next.store_consume(mid);
        defer_destroy(head);
        assert_eq!(heap.census().live(), 3);
        flush_thread();
        assert_eq!(heap.census().live(), 0, "flush must cascade");
    }

    #[test]
    fn borrow_reads_without_count_traffic() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 7,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        pinned(|pin| {
            let b = root.load_deferred(pin).expect("stored");
            assert_eq!(b.n, 7);
            // No count was taken: root + local only.
            assert_eq!(Borrowed::ref_count(&b), 2);
            let c = b; // Copy: still no count traffic
            assert!(Borrowed::ptr_eq(&b, &c));
        });
        root.store(None);
        drop(a);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn promote_takes_a_real_count() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 9,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        drop(a);
        let l = pinned(|pin| {
            let b = root.load_deferred(pin).expect("stored");
            Borrowed::promote(&b).expect("alive")
        });
        assert_eq!(Local::ref_count(&l), 2); // root + promoted
        assert_eq!(l.n, 9);
        root.store(None);
        drop(l);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn promote_refuses_dead_objects() {
        let heap = heap();
        let a = heap.alloc(Node {
            n: 1,
            next: PtrField::null(),
        });
        pinned(|pin| {
            let b = Local::borrow(&a, pin);
            // Drop the only count while the borrow is live: logically
            // freed, memory pinned.
            drop(a);
            assert_eq!(Borrowed::ref_count(&b), 0);
            assert!(Borrowed::promote(&b).is_none(), "must not resurrect");
            // The payload is still readable under the pin.
            assert_eq!(b.n, 1);
        });
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn borrowed_links_null_after_harvest_and_rc_validates() {
        let heap = heap();
        let inner = heap.alloc(Node {
            n: 2,
            next: PtrField::null(),
        });
        let outer = heap.alloc(Node {
            n: 1,
            next: PtrField::null(),
        });
        outer.next.store(Some(&inner));
        pinned(|pin| {
            let b = Local::borrow(&outer, pin);
            // Genuine read: link visible, count nonzero afterwards.
            assert!(!b.next.is_null());
            assert!(Borrowed::ref_count(&b) > 0);
            drop(outer); // harvest nulls `next`, frees `outer`
            assert!(b.next.is_null(), "harvested link reads null");
            assert_eq!(Borrowed::ref_count(&b), 0, "validation catches it");
        });
        drop(inner);
        assert_eq!(heap.census().live(), 0);
    }
}

#[cfg(test)]
mod tls_exit_tests {
    use super::*;
    use crate::object::{Heap, PtrField};
    use lfrc_dcas::McasWord;

    struct Leaf {
        #[allow(dead_code)]
        n: u64,
    }
    impl Links<McasWord> for Leaf {
        fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
    }

    #[test]
    fn thread_exit_flushes_buffer() {
        let heap: Heap<Leaf, McasWord> = Heap::new();
        let census = std::sync::Arc::clone(heap.census());
        std::thread::scope(|s| {
            s.spawn(|| {
                let a = heap.alloc(Leaf { n: 1 });
                defer_destroy(a);
                assert_eq!(pending_decrements(), 1);
            });
        });
        // `scope` returns when the closure finishes, which can be *before*
        // the thread's TLS destructors (and therefore its exit flush) have
        // run — the residue described in the module docs. Give the flush a
        // bounded moment to land rather than racing it.
        let t0 = std::time::Instant::now();
        while census.live() != 0 && t0.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(census.live(), 0, "exit flush did not run");
    }
}
