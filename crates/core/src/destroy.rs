//! `LFRCDestroy` — eager (Figure 2 lines 13–15) and incremental (§7).
//!
//! The paper's destroy is recursive: when a count reaches zero, destroy
//! is called "with each pointer in the object, and then free the object".
//! Two deviations, both mechanical:
//!
//! * The recursion is replaced by an explicit work stack so that dropping
//!   a million-node chain cannot overflow the thread stack.
//! * The paper's §7 names as future work "techniques that allow large
//!   structures to be collected incrementally … to avoid long delays when
//!   a thread destroys the last pointer to a large structure".
//!   [`Backlog`] implements that extension: zero-count objects are parked
//!   on a lock-free intrusive stack and reclaimed in bounded steps.
//!   Experiment E8 measures the pause-time difference.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

use lfrc_dcas::DcasWord;

use crate::object::{free_object, word_to_ptr, LfrcBox, Links};

/// What one [`Backlog::step_counted`] call reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Objects freed (the value [`Backlog::step`] returns).
    pub objects: usize,
    /// Bytes those objects occupied (header + value), i.e. how much
    /// memory the step handed back to the pool or global allocator.
    pub bytes: usize,
}

/// `LFRCDestroy` (Figure 2 lines 13–15): releases one counted reference;
/// if the count reaches zero, recursively releases the object's links and
/// frees it. Null is a no-op ("if v is null, then the function should
/// simply return").
///
/// # Safety
///
/// `v` must be null or a counted reference owned by the caller; the
/// caller gives that count up.
pub unsafe fn destroy<T: Links<W>, W: DcasWord>(v: *mut LfrcBox<T, W>) {
    // Safety: the caller's count is given up here.
    if !unsafe { decrement(v) } {
        return; // the common case: not the last reference, no stack
    }
    // Line 14: we destroyed the last reference; cascade into the
    // object's links (explicit stack instead of recursion). The stack
    // holds harvested children whose decrement is still owed.
    let mut stack: Vec<*mut LfrcBox<T, W>> = Vec::new();
    let mut p = v;
    loop {
        // Safety: `p`'s count just reached zero — exclusive access.
        let obj = unsafe { &*p };
        obj.value.for_each_link(&mut |field| {
            let child = word_to_ptr::<T, W>(field.raw().load());
            // Exclusive access: clear the field so the object's own
            // Drop (running later, after the grace period) cannot
            // observe dangling links.
            field.raw().store(0);
            stack.push(child);
        });
        // Line 15: free the object.
        // Safety: count is zero and links are harvested.
        unsafe { free_object(p) };
        p = loop {
            let Some(child) = stack.pop() else { return };
            // Safety: each harvested link carried one count, now ours.
            if unsafe { decrement(child) } {
                break child;
            }
        };
    }
}

/// Releases one count unit of `p`; `true` iff it was the last. Null is a
/// no-op (line 13: "if v is null, then the function should simply
/// return").
///
/// # Safety
///
/// `p` must be null or a counted reference owned by the caller, who
/// gives that count up.
unsafe fn decrement<T: Links<W>, W: DcasWord>(p: *mut LfrcBox<T, W>) -> bool {
    if p.is_null() {
        return false;
    }
    // Safety: the caller owns one count, so the object is alive.
    let obj = unsafe { &*p };
    obj.assert_alive();
    // The decrement that may transfer ownership of the whole object — a
    // preemption here races against concurrent LFRCLoads of fields still
    // pointing at `p`.
    lfrc_dcas::instrument::yield_point(lfrc_dcas::InstrSite::DestroyDecrement);
    lfrc_obs::counters::incr(lfrc_obs::Counter::RcDecrement);
    let prev = obj.rc.fetch_add(-1);
    lfrc_obs::recorder::record(lfrc_obs::EventKind::Decrement, p as usize, prev);
    prev == 1
}

/// A lock-free backlog of zero-count objects awaiting incremental
/// reclamation — the paper's §7 extension.
///
/// [`Backlog::destroy_deferred`] is O(1): it decrements the count and, on
/// reaching zero, pushes the object (intrusively, via a header hook) onto
/// the backlog without visiting any links. [`Backlog::step`] then frees a
/// bounded number of parked objects, cascading their children back onto
/// the backlog. Any thread may call `step`; the backlog is shared.
///
/// # Example
///
/// ```
/// use lfrc_core::{Backlog, Heap, Links, PtrField};
/// use lfrc_dcas::McasWord;
///
/// struct Node { next: PtrField<Node, McasWord> }
/// impl Links<McasWord> for Node {
///     fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Node, McasWord>)) {
///         f(&self.next);
///     }
/// }
///
/// let heap: Heap<Node, McasWord> = Heap::new();
/// // Build a 100-node chain.
/// let mut head = heap.alloc(Node { next: PtrField::null() });
/// for _ in 0..99 {
///     let n = heap.alloc(Node { next: PtrField::null() });
///     n.next.store_consume(head);
///     head = n;
/// }
///
/// let backlog: Backlog<Node, McasWord> = Backlog::new();
/// backlog.destroy_deferred(head); // O(1), no cascade yet
/// let mut steps = 0;
/// while backlog.step(10) > 0 { steps += 1; } // ≤ 10 frees per call
/// assert!(steps >= 10);
/// assert_eq!(heap.census().live(), 0);
/// ```
pub struct Backlog<T: Links<W>, W: DcasWord> {
    /// Head of the intrusive Treiber stack (an `LfrcBox` address, or 0).
    head: AtomicUsize,
    _marker: PhantomData<fn() -> (T, W)>,
}

// Safety: the backlog only stores objects with zero reference count
// (exclusively owned by the backlog); `Links` requires `Send + Sync`.
unsafe impl<T: Links<W>, W: DcasWord> Send for Backlog<T, W> {}
unsafe impl<T: Links<W>, W: DcasWord> Sync for Backlog<T, W> {}

impl<T: Links<W>, W: DcasWord> fmt::Debug for Backlog<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backlog")
            .field("empty", &self.is_empty())
            .finish()
    }
}

impl<T: Links<W>, W: DcasWord> Default for Backlog<T, W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Links<W>, W: DcasWord> Backlog<T, W> {
    /// Creates an empty backlog.
    pub fn new() -> Self {
        Backlog {
            head: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// `true` if no objects are currently parked.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == 0
    }

    /// Releases one counted reference in O(1), deferring any cascade.
    ///
    /// The safe-layer counterpart consuming a [`Local`](crate::Local); see
    /// also [`Backlog::destroy_deferred_raw`] for the raw-pointer layer.
    pub fn destroy_deferred(&self, local: crate::Local<T, W>) {
        let p = crate::Local::into_counted_raw(local);
        // Safety: the Local's count is donated.
        unsafe { self.destroy_deferred_raw(p) };
    }

    /// Raw-pointer variant of [`Backlog::destroy_deferred`].
    ///
    /// # Safety
    ///
    /// `v` must be null or a counted reference owned by the caller; the
    /// caller gives that count up.
    pub unsafe fn destroy_deferred_raw(&self, v: *mut LfrcBox<T, W>) {
        if v.is_null() {
            return;
        }
        // Safety: caller-owned count.
        let obj = unsafe { &*v };
        obj.assert_alive();
        lfrc_obs::counters::incr(lfrc_obs::Counter::RcDecrement);
        let prev = obj.rc.fetch_add(-1);
        lfrc_obs::recorder::record(lfrc_obs::EventKind::Decrement, v as usize, prev);
        if prev == 1 {
            self.push(v);
        }
    }

    fn push(&self, p: *mut LfrcBox<T, W>) {
        // Safety: count is zero — the backlog has exclusive access, so the
        // intrusive hook is free to use.
        let obj = unsafe { &*p };
        loop {
            let head = self.head.load(Ordering::Acquire);
            obj.backlog_next.store(head, Ordering::Relaxed);
            if self
                .head
                .compare_exchange(head, p as usize, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    fn pop(&self) -> Option<*mut LfrcBox<T, W>> {
        loop {
            let head = self.head.load(Ordering::Acquire);
            if head == 0 {
                return None;
            }
            let p = head as *mut LfrcBox<T, W>;
            // Safety: objects on the backlog are exclusively owned by it;
            // an object is removed before being freed, so `head` is valid.
            // (Treiber-pop ABA cannot bite: a popped object is never
            // re-pushed — it is freed — and its address cannot recur as a
            // *new* object until the emulator's grace period has passed,
            // which requires this very loop to be off the stack.)
            let next = unsafe { (*p).backlog_next.load(Ordering::Relaxed) };
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(p);
            }
        }
    }

    /// Frees up to `budget` parked objects, cascading their children back
    /// onto the backlog. Returns the number of objects freed.
    pub fn step(&self, budget: usize) -> usize {
        self.step_counted(budget).objects
    }

    /// Like [`Backlog::step`], but also reports how many bytes of object
    /// memory the freed headers-plus-values release — what a pause-time
    /// budget in bytes (rather than object count) needs, since the
    /// backlog's frees are what feed slots back to the slab pool.
    pub fn step_counted(&self, budget: usize) -> StepStats {
        let mut stats = StepStats::default();
        while stats.objects < budget {
            let Some(p) = self.pop() else { break };
            // Safety: exclusively owned (count zero, off the stack).
            let obj = unsafe { &*p };
            obj.value.for_each_link(&mut |field| {
                let child = word_to_ptr::<T, W>(field.raw().load());
                field.raw().store(0);
                // Safety: the parent's reference to the child is ours now.
                unsafe { self.destroy_deferred_raw(child) };
            });
            // Safety: count zero, links harvested.
            unsafe { free_object(p) };
            stats.objects += 1;
            stats.bytes += std::mem::size_of::<LfrcBox<T, W>>();
        }
        stats
    }

    /// Runs [`Backlog::step`] until the backlog is empty.
    pub fn drain(&self) {
        while self.step(1024) > 0 {}
    }
}

impl<T: Links<W>, W: DcasWord> Drop for Backlog<T, W> {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Heap, PtrField};
    use lfrc_dcas::McasWord;

    struct Node {
        #[allow(dead_code)]
        id: u64,
        next: PtrField<Node, McasWord>,
    }

    impl Links<McasWord> for Node {
        fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Node, McasWord>)) {
            f(&self.next);
        }
    }

    fn chain(heap: &Heap<Node, McasWord>, len: u64) -> crate::Local<Node, McasWord> {
        let mut head = heap.alloc(Node {
            id: 0,
            next: PtrField::null(),
        });
        for id in 1..len {
            let n = heap.alloc(Node {
                id,
                next: PtrField::null(),
            });
            n.next.store_consume(head);
            head = n;
        }
        head
    }

    #[test]
    fn step_respects_budget_exactly() {
        let heap: Heap<Node, McasWord> = Heap::new();
        let backlog: Backlog<Node, McasWord> = Backlog::new();
        backlog.destroy_deferred(chain(&heap, 100));
        assert!(!backlog.is_empty());
        // Chains release one child per freed node, so each step frees
        // exactly its budget until the chain is exhausted.
        assert_eq!(backlog.step(30), 30);
        assert_eq!(heap.census().live(), 70);
        assert_eq!(backlog.step(30), 30);
        assert_eq!(backlog.step(1000), 40);
        assert_eq!(backlog.step(10), 0);
        assert!(backlog.is_empty());
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn step_zero_budget_is_noop() {
        let heap: Heap<Node, McasWord> = Heap::new();
        let backlog: Backlog<Node, McasWord> = Backlog::new();
        backlog.destroy_deferred(chain(&heap, 5));
        assert_eq!(backlog.step(0), 0);
        assert_eq!(heap.census().live(), 5);
        backlog.drain();
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn deferred_destroy_respects_shared_counts() {
        // A node still referenced elsewhere must not be parked.
        let heap: Heap<Node, McasWord> = Heap::new();
        let backlog: Backlog<Node, McasWord> = Backlog::new();
        let a = heap.alloc(Node {
            id: 1,
            next: PtrField::null(),
        });
        let b = a.clone();
        backlog.destroy_deferred(a); // rc 2 -> 1: not parked
        assert!(backlog.is_empty());
        assert_eq!(heap.census().live(), 1);
        backlog.destroy_deferred(b); // rc 1 -> 0: parked
        assert!(!backlog.is_empty());
        backlog.drain();
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn backlog_drop_drains_remainder() {
        let heap: Heap<Node, McasWord> = Heap::new();
        {
            let backlog: Backlog<Node, McasWord> = Backlog::new();
            backlog.destroy_deferred(chain(&heap, 50));
            // Dropped with 50 parked nodes.
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn concurrent_producers_one_reclaimer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let heap: Heap<Node, McasWord> = Heap::new();
        let backlog: Backlog<Node, McasWord> = Backlog::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (heap, backlog) = (&heap, &backlog);
                s.spawn(move || {
                    for _ in 0..20 {
                        backlog.destroy_deferred(chain(heap, 100));
                    }
                });
            }
            let (backlog, done) = (&backlog, &done);
            s.spawn(move || loop {
                if backlog.step(64) == 0 {
                    if done.load(Ordering::SeqCst) && backlog.is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
            // Producers finish when their spawns join at scope end; flag
            // from a watcher once census stops growing is overkill here —
            // just mark done after producers' handles complete by joining
            // them implicitly via an inner scope.
            done.store(true, Ordering::SeqCst);
        });
        backlog.drain();
        assert_eq!(heap.census().live(), 0);
    }
}
