//! Deferred **increments** — the third counted-load strategy
//! ([`Strategy::DeferredInc`](crate::Strategy::DeferredInc), DESIGN.md §5.13).
//!
//! The paper's `LFRCLoad` pays a DCAS per pointer read; the §5.9 deferred
//! path removes the count from reads but still pays a CAS
//! ([`Borrowed::promote`](crate::defer::Borrowed::promote)) whenever a
//! counted reference is needed. This module removes that too, adapting
//! the deferred-increment idea of Anderson, Blelloch & Wei (arXiv
//! 2204.05985) to this codebase: a counted load inside an epoch pin is
//!
//! 1. one **plain atomic load** of the field ([`crate::ops::load_inc`]), and
//! 2. one **thread-local append** of a pending-increment record.
//!
//! The result is an [`IncLocal`] — a pin-scoped handle that *owns a
//! pending `+1`* which has not yet been applied to the object's count.
//! Before the pinning epoch is allowed to expire every pending increment
//! is **settled**: folded into the object's count
//! ([`IncLocal::promote`]), cancelled because the reference never escaped
//! the pin ([`IncLocal`]'s `Drop`), or — for entries leaked inside a pin —
//! resolved by the settle guard that [`crate::defer::pinned`] installs.
//!
//! # Why this is sound (the cover-unit argument)
//!
//! The paper's safety half says: *while pointers to an object exist, its
//! count is nonzero*. A pending increment violates the letter of that —
//! the `IncLocal` is a pointer whose `+1` is not yet in the count — so a
//! different argument carries the load:
//!
//! Every pending increment on `X` was read from a field that, at the
//! moment of the read, held a **materialized** count unit for `X` (the
//! field's own unit). Under `Strategy::DeferredInc` every operation that
//! *displaces* such a field unit releases it through
//! [`retire_destroy_raw`] — the decrement executes only after a full
//! grace period of the same collector the loading pin holds. The loader
//! pinned **before** the displacement could retire, and a pin at epoch
//! `e` blocks the global epoch from passing `e + 1`, so the displaced
//! unit's decrement cannot run until after the loader has unpinned — and
//! the loader settles every pending increment before unpinning. The
//! cover unit therefore keeps `rc ≥ 1` for the entire pin:
//!
//! * dereferencing an [`IncLocal`] is safe (the object is alive, not
//!   merely mapped — stronger than [`Borrowed`](crate::defer::Borrowed));
//! * [`IncLocal::promote`] **never fails**: a plain `fetch_add(+1)`
//!   suffices, because the count provably cannot be zero. No CAS loop —
//!   this is the headline win over `Borrowed::promote`;
//! * traversals need no `ref_count` re-validation: link fields cannot
//!   have been harvested while we are pinned, because no reachable
//!   object's count can reach zero during the pin.
//!
//! The argument is **per structure instance**: it holds only if *every*
//! displacing operation of that instance grace-retires (which is what
//! [`Strategy::DeferredInc`](crate::Strategy::DeferredInc) selects), so a
//! structure fixes its strategy at construction and never mixes.
//!
//! # The epoch gate (belt and braces)
//!
//! The pin alone already delays cover-unit decrements past settle. On
//! top of that, the first pending increment installs a process-wide
//! advance gate in the emulator's collector
//! ([`lfrc_dcas::set_advance_gate`]): while **any** thread has unsettled
//! increments the epoch cannot advance at all (refusals are visible as
//! `Counter::EpochAdvanceGated`). The gate is maintained
//! registration-based: a thread touches the shared counter at most once
//! per pin window — the first append registers it, and the pin-exit
//! settle (or an explicit [`settle_thread`]) deregisters it — so the hot
//! path stays one load + one TLS push even when loads cancel
//! immediately. Registration is deliberately sticky within the pin:
//! cancelling every pending increment leaves the gate closed until the
//! pin exits, which is conservative (bounded by the pin) and keeps
//! empty↔non-empty oscillation off the shared counter.
//!
//! # Differential oracle
//!
//! The DCAS path ([`crate::ops::load`]) remains the executable
//! specification: `tests/strategy_diff.rs` drives identical operation
//! sequences through `Strategy::Dcas` and `Strategy::DeferredInc`
//! instances across ≥10k explored schedules (including crash and OOM
//! fault plans) and requires bit-identical observable results, zero
//! canary hits, and zero rc-on-freed events from both.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use lfrc_dcas::instrument::yield_point;
use lfrc_dcas::{DcasWord, InstrSite};

use crate::defer::Pin;
use crate::local::Local;
use crate::object::{LfrcBox, Links};

/// Number of threads whose pending-increment buffers are non-empty.
/// The advance gate reads this; threads write it only on empty↔non-empty
/// transitions of their own buffer.
static UNSETTLED: AtomicUsize = AtomicUsize::new(0);

/// The advance-gate predicate installed into the emulator's collector:
/// the epoch may advance only while no thread holds unsettled increments.
fn gate() -> bool {
    UNSETTLED.load(Ordering::SeqCst) == 0
}

/// Pending increments of one thread. Entries of all node types share the
/// buffer — an entry is just the object pointer; increments on the same
/// object are fungible, so cancellation may remove *any* entry with a
/// matching pointer.
struct IncBuffer {
    entries: Vec<*mut ()>,
    /// Whether this thread currently counts toward [`UNSETTLED`]. Set by
    /// the first append of a pin window, cleared only at settle — sticky,
    /// so cancel/append churn inside a pin touches no shared state.
    registered: bool,
}

impl Drop for IncBuffer {
    /// A thread can only die registered if an `IncLocal` was leaked *and*
    /// the settle guard was bypassed — but if it ever happens, repair the
    /// global registration count so the gate does not stay closed forever
    /// (the leaked `+1`s cancel; see [`settle_thread`] for why discarding
    /// is the correct resolution).
    fn drop(&mut self) {
        if self.registered {
            UNSETTLED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

thread_local! {
    static INC_BUFFER: RefCell<IncBuffer> = {
        // As for the decrement buffer: touch the emulator's TLS handle
        // first so destructor ordering keeps it alive past this buffer.
        lfrc_dcas::with_guard(|_| {});
        RefCell::new(IncBuffer { entries: Vec::new(), registered: false })
    };
    /// Nesting depth of `defer::pinned` scopes — the settle guard resolves
    /// leaked entries only when the *outermost* scope exits (while still
    /// pinned).
    static PIN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Appends one pending increment for `p` to the calling thread's buffer,
/// installing the advance gate on first use and registering the thread
/// with the gate on the first append of a pin window.
fn append_entry(p: *mut ()) {
    static INSTALL_GATE: Once = Once::new();
    INSTALL_GATE.call_once(|| lfrc_dcas::set_advance_gate(gate));
    yield_point(InstrSite::IncAppend);
    INC_BUFFER.with(|b| {
        let mut buf = b.borrow_mut();
        if !buf.registered {
            UNSETTLED.fetch_add(1, Ordering::SeqCst);
            buf.registered = true;
        }
        buf.entries.push(p);
    });
    lfrc_obs::counters::incr(lfrc_obs::Counter::DeferredIncAppend);
}

/// Removes one pending increment for `p` (entries for the same object
/// are fungible; the scan runs from the back, where the match usually
/// is). Returns `true` if an entry was found — `false` indicates a
/// bookkeeping bug, asserted in debug builds. Pure TLS: the gate
/// registration is sticky until the settle, so cancellation touches no
/// shared state.
fn remove_entry(p: *mut ()) -> bool {
    let found = INC_BUFFER.with(|b| {
        let mut buf = b.borrow_mut();
        match buf.entries.iter().rposition(|&e| e == p) {
            Some(i) => {
                buf.entries.swap_remove(i);
                true
            }
            None => false,
        }
    });
    debug_assert!(found, "pending increment missing from the TLS buffer");
    found
}

/// Number of pending increments currently buffered on the calling
/// thread. Normally zero outside a [`crate::defer::pinned`] scope —
/// `IncLocal`s are pin-scoped and resolve on drop.
pub fn pending_increments() -> usize {
    INC_BUFFER.with(|b| b.borrow().entries.len())
}

/// Number of threads process-wide whose increment buffers are non-empty
/// (the quantity the epoch-advance gate keys on). Diagnostics only.
pub fn unsettled_threads() -> usize {
    UNSETTLED.load(Ordering::SeqCst)
}

/// Settles (by cancellation) every pending increment still buffered on
/// the calling thread, returning how many there were.
///
/// Discarding is the correct resolution for an orphaned entry: a pending
/// `+1` whose `IncLocal` no longer exists represents a reference that was
/// lost before it escaped the pin — materializing the `+1` and then
/// releasing it would be a net zero with extra steps. The count never
/// moved, so dropping the record leaves it exact.
///
/// Harness runners and scoped-thread test bodies call this explicitly
/// before returning (next to [`crate::defer::flush_thread`]) so that
/// `std::thread::scope`'s TLS-destructor residue — see the caveat in
/// [`crate::defer`] — cannot leave the advance gate closed while a
/// census assertion runs. It is a safety net: the settle guard inside
/// [`crate::defer::pinned`] already resolves leaks at pin exit, so this
/// normally finds nothing.
pub fn settle_thread() -> usize {
    let (n, deregister) = INC_BUFFER.with(|b| {
        let mut buf = b.borrow_mut();
        let n = buf.entries.len();
        buf.entries.clear();
        (n, std::mem::replace(&mut buf.registered, false))
    });
    if deregister {
        UNSETTLED.fetch_sub(1, Ordering::SeqCst);
        // Opening the advance gate is the settle's shared, schedulable
        // step — a SeqCst RMW the epoch's advance predicate reads — so
        // every registered pin window crosses the settle site exactly
        // once at its close, even when `IncLocal` cancellation already
        // resolved every entry (the common case for pure traversals).
        // Batched writers rely on this firing once per batch scope
        // (DESIGN.md §5.16), and crash plans target it as "the thread
        // died settling its batch".
        yield_point(InstrSite::IncSettle);
    }
    if n > 0 {
        lfrc_obs::counters::add(lfrc_obs::Counter::DeferredIncSettle, n as u64);
    }
    n
}

/// RAII installed by [`crate::defer::pinned`]: tracks pin-scope nesting
/// and, when the **outermost** scope exits (normal return or panic
/// unwind, still inside the emulator guard), settles any pending
/// increments that `IncLocal` destructors did not already resolve. This
/// is what bounds an increment's lifetime to its pinning epoch.
pub(crate) struct SettleGuard {
    _not_send: PhantomData<*mut ()>,
}

impl SettleGuard {
    pub(crate) fn enter() -> Self {
        PIN_DEPTH.with(|d| d.set(d.get() + 1));
        SettleGuard {
            _not_send: PhantomData,
        }
    }
}

impl Drop for SettleGuard {
    fn drop(&mut self) {
        let depth = PIN_DEPTH.with(|d| {
            let depth = d.get() - 1;
            d.set(depth);
            depth
        });
        if depth == 0 {
            // Settles any leaked entries *and* deregisters the thread
            // from the advance gate (registration is sticky within the
            // pin window even after every entry cancelled).
            settle_thread();
        }
    }
}

/// Grace-deferred `LFRCDestroy`: releases a displaced count unit through
/// the emulator's collector instead of decrementing now. The decrement
/// (and any cascade) runs after a full grace period — which is what makes
/// the cover-unit argument in the module docs hold. Null is a no-op.
///
/// Under `Strategy::DeferredInc` this replaces both the eager destroy of
/// [`crate::ops::cas`] and the parked decrement of
/// [`crate::ops::cas_deferred`] on every field-displacing success path.
///
/// # Safety
///
/// `v` must be null or a counted reference owned by the caller; the
/// caller gives that count up.
pub unsafe fn retire_destroy_raw<T: Links<W>, W: DcasWord>(v: *mut LfrcBox<T, W>) {
    if v.is_null() {
        return;
    }
    yield_point(InstrSite::IncRetire);
    lfrc_obs::counters::incr(lfrc_obs::Counter::DeferredIncRetire);
    // Safety: the count unit transfers to the deferred call; the
    // trampoline runs the ordinary cascading destroy exactly once.
    unsafe { lfrc_dcas::retire_fn(v.cast::<()>(), run_destroy_deferred::<T, W>) };
}

/// Trampoline for [`retire_destroy_raw`]: re-types the erased pointer and
/// runs the ordinary Figure-2 destroy after the grace period.
unsafe fn run_destroy_deferred<T: Links<W>, W: DcasWord>(p: *mut ()) {
    // Safety: `p` was erased from a counted `*mut LfrcBox<T, W>` whose
    // count the deferred call owns and hereby gives up.
    unsafe { crate::destroy::destroy(p.cast::<LfrcBox<T, W>>()) };
}

/// A pin-scoped counted reference whose `+1` is **pending** — recorded in
/// the thread's increment buffer, not yet applied to the object's count.
///
/// Obtained from
/// [`PtrField::load_counted_inc`](crate::PtrField::load_counted_inc): one
/// plain load plus one TLS append, no DCAS, no CAS, no shared-count
/// traffic. The cover-unit argument (module docs) guarantees the object
/// is **alive** — not merely mapped — for the whole pin, so `Deref` is
/// unconditional and [`IncLocal::promote`] cannot fail.
///
/// Resolution, exactly one of:
/// * **drop** — the reference never escaped the pin: the pending entry is
///   cancelled, the count never moves;
/// * **[`promote`](IncLocal::promote)** — the reference escapes: the
///   `+1` is folded into the count (or annihilated against a parked
///   decrement for the same object), yielding an owning [`Local`].
///
/// Not `Copy` (each `IncLocal` owns one buffer entry); `Clone` appends
/// another pending entry — still no shared-count traffic.
pub struct IncLocal<'p, T: Links<W>, W: DcasWord> {
    ptr: NonNull<LfrcBox<T, W>>,
    /// The scope's pin: the reference's own count reads go through it.
    pin: &'p Pin,
}

impl<'p, T: Links<W>, W: DcasWord> IncLocal<'p, T, W> {
    /// Wraps a raw pointer read under `pin`, registering the pending
    /// increment. Returns `None` for null.
    ///
    /// # Safety
    ///
    /// `p` must be null or have been read, inside the scope `pin`
    /// witnesses, from a field of a `Strategy::DeferredInc` structure
    /// (every displacing release of which is grace-deferred) — that is
    /// what makes the cover-unit argument apply.
    pub(crate) unsafe fn from_raw(p: *mut LfrcBox<T, W>, pin: &'p Pin) -> Option<Self> {
        NonNull::new(p).map(|ptr| {
            append_entry(ptr.as_ptr().cast::<()>());
            IncLocal { ptr, pin }
        })
    }

    /// The raw pointer (identity only; the pending count stays put).
    pub fn as_raw(this: &Self) -> *mut LfrcBox<T, W> {
        this.ptr.as_ptr()
    }

    /// Raw pointer of an optional reference (null for `None`).
    pub fn option_as_raw(v: Option<&Self>) -> *mut LfrcBox<T, W> {
        v.map_or(std::ptr::null_mut(), Self::as_raw)
    }

    /// Whether two references denote the same object.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.ptr == b.ptr
    }

    /// The object's current **materialized** count (racy snapshot;
    /// diagnostics only). Pending increments — including this one — are
    /// not reflected.
    pub fn ref_count(this: &Self) -> u64 {
        this.pin.read(this.object().rc_cell())
    }

    /// Settles this pending increment into an owning [`Local`] that can
    /// leave the pin. **Never fails** — compare
    /// [`Borrowed::promote`](crate::defer::Borrowed::promote), which must
    /// handle the object dying first. Two paths:
    ///
    /// * if the calling thread's decrement buffer holds a parked
    ///   decrement for the same object, the pair annihilates: the
    ///   `Local` inherits the parked unit and the count is never touched;
    /// * otherwise a plain `fetch_add(+1)` materializes the increment —
    ///   no CAS loop, because the cover unit guarantees the count is
    ///   nonzero for the whole pin.
    pub fn promote(this: Self) -> Local<T, W> {
        let p = this.ptr.as_ptr();
        yield_point(InstrSite::IncSettle);
        if !crate::defer::take_parked_decrement(p.cast::<()>()) {
            // Safety: the cover unit keeps the object alive (rc ≥ 1)
            // throughout the pin, satisfying `add_to_rc`'s requirement
            // that the count cannot concurrently reach zero.
            unsafe { crate::ops::add_to_rc(p, 1) };
        }
        lfrc_obs::counters::incr(lfrc_obs::Counter::DeferredIncSettle);
        remove_entry(p.cast::<()>());
        std::mem::forget(this); // the entry is resolved; skip Drop's cancel
                                // Safety: either the annihilated parked unit or the fetch_add's
                                // fresh unit transfers to the Local; `p` is non-null.
        unsafe { Local::from_counted_raw(p) }.expect("IncLocal is never null")
    }

    fn object(&self) -> &LfrcBox<T, W> {
        // Safety: the cover unit keeps the object alive during the pin
        // (see the module docs).
        unsafe { self.ptr.as_ref() }
    }
}

impl<T: Links<W>, W: DcasWord> Clone for IncLocal<'_, T, W> {
    /// `LFRCCopy`, deferred: another pending entry, no count traffic.
    fn clone(&self) -> Self {
        append_entry(self.ptr.as_ptr().cast::<()>());
        IncLocal {
            ptr: self.ptr,
            pin: self.pin,
        }
    }
}

impl<T: Links<W>, W: DcasWord> Drop for IncLocal<'_, T, W> {
    /// Cancels the pending increment: the reference never escaped the
    /// pin, so the count — which was never touched — is already exact.
    /// No yield point: cancellation is pure TLS (the gate registration
    /// stays put until settle), so there is no shared interaction for
    /// the scheduler to interleave here.
    fn drop(&mut self) {
        remove_entry(self.ptr.as_ptr().cast::<()>());
        lfrc_obs::counters::incr(lfrc_obs::Counter::DeferredIncCancel);
    }
}

impl<T: Links<W>, W: DcasWord> Deref for IncLocal<'_, T, W> {
    type Target = T;

    /// Unconditional: unlike [`Borrowed`](crate::defer::Borrowed), an
    /// `IncLocal`'s referent cannot be logically freed while the pin
    /// lasts (module docs), so links read through it are valid without
    /// re-validation.
    fn deref(&self) -> &T {
        let obj = self.object();
        obj.assert_alive();
        &obj.value
    }
}

impl<T: Links<W> + fmt::Debug, W: DcasWord> fmt::Debug for IncLocal<'_, T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("IncLocal").field(&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defer::pinned;
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
    fn load_appends_and_drop_cancels_without_count_traffic() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 7,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        pinned(|pin| {
            let base = pending_increments();
            let l = root.load_counted_inc(pin).expect("stored");
            assert_eq!(l.n, 7);
            assert_eq!(pending_increments(), base + 1);
            // No count was materialized: root + local only.
            assert_eq!(IncLocal::ref_count(&l), 2);
            let l2 = l.clone();
            assert_eq!(pending_increments(), base + 2);
            assert!(IncLocal::ptr_eq(&l, &l2));
            drop(l2);
            drop(l);
            assert_eq!(pending_increments(), base);
        });
        root.store(None);
        drop(a);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn promote_materializes_without_cas() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 9,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        drop(a);
        let l = pinned(|pin| {
            let inc = root.load_counted_inc(pin).expect("stored");
            IncLocal::promote(inc)
        });
        assert_eq!(pending_increments(), 0);
        assert_eq!(Local::ref_count(&l), 2); // root + promoted
        assert_eq!(l.n, 9);
        root.store(None);
        drop(l);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn promote_annihilates_a_parked_decrement() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 3,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        crate::defer::flush_thread(); // isolate from other tests
                                      // Park a decrement for the same object…
        crate::defer::defer_destroy(a);
        assert_eq!(crate::defer::pending(), 1);
        // …then promote a pending increment: the pair must annihilate —
        // count untouched, parked entry consumed.
        let l = pinned(|pin| {
            let inc = root.load_counted_inc(pin).expect("stored");
            let before = IncLocal::ref_count(&inc);
            let l = IncLocal::promote(inc);
            assert_eq!(Local::ref_count(&l), before, "annihilation moves no counts");
            l
        });
        assert_eq!(crate::defer::pending(), 0, "parked decrement consumed");
        root.store(None);
        drop(l);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn settle_guard_resolves_leaked_entries_at_pin_exit() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 1,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        pinned(|pin| {
            let inc = root.load_counted_inc(pin).expect("stored");
            assert_eq!(pending_increments(), 1);
            // Other test threads may also hold pending increments, so the
            // global count is only bounded from below.
            assert!(unsettled_threads() >= 1);
            std::mem::forget(inc); // leak the handle: the guard must settle
        });
        assert_eq!(pending_increments(), 0, "settle guard ran at pin exit");
        root.store(None);
        drop(a);
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn unsettled_gate_blocks_epoch_advance_then_reopens() {
        let heap = heap();
        let root: SharedField<Node, McasWord> = SharedField::null();
        let a = heap.alloc(Node {
            n: 4,
            next: PtrField::null(),
        });
        root.store(Some(&a));
        drop(a);
        pinned(|pin| {
            let _inc = root.load_counted_inc(pin).expect("stored");
            assert!(unsettled_threads() >= 1);
            assert!(!super::gate(), "gate closed while an increment pends");
        });
        assert_eq!(pending_increments(), 0, "our contribution settled");
        root.store(None);
        // Logical frees are immediate (only physical reclamation is
        // epoch-deferred), so the census drains regardless of what other
        // test threads are doing to the gate.
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn retire_destroy_defers_past_the_grace_period() {
        let heap = heap();
        let a = heap.alloc(Node {
            n: 5,
            next: PtrField::null(),
        });
        let raw = Local::as_raw(&a);
        std::mem::forget(a); // transfer the count to retire_destroy_raw
                             // Safety: `raw` is a counted reference we just took ownership of.
        unsafe { retire_destroy_raw(raw) };
        // The decrement is deferred: drive the collector until the grace
        // period expires. Other test threads may transiently hold the
        // advance gate closed, so retry with a bound instead of racing.
        let t0 = std::time::Instant::now();
        while heap.census().live() != 0 && t0.elapsed() < std::time::Duration::from_secs(5) {
            lfrc_dcas::quiesce();
            std::thread::yield_now();
        }
        assert_eq!(heap.census().live(), 0, "deferred destroy never ran");
    }
}
