//! A lock-free skip-list set, LFRC-managed — the paper's \[16\] citation
//! (Pugh, *Concurrent maintenance of skip lists*) realized under the
//! methodology.
//!
//! Same design vocabulary as [`set`](crate::set): a node carries **one**
//! deleted-mark word, and every structural update at every level is a
//! pointer×word DCAS (`dcas_ptr_word`) that swings `pred.next[lvl]`
//! atomically with validating `pred.marked == 0` — no pointer tagging,
//! no per-level locks. Compared to Herlihy–Shavit's lock-free skip list
//! (which needs a mark bit in *each* level's pointer), DCAS lets one
//! mark govern the whole tower: a node is logically in the set iff it is
//! reachable at level 0 and unmarked.
//!
//! * `insert` — choose a geometric tower height, link level 0 (the
//!   linearization point), then index the upper levels best-effort with
//!   the same traversal's window;
//! * `remove` — CAS the mark (linearization point), then best-effort
//!   unlink at every level with the preds the traversal already holds
//!   (finds help with whatever it misses);
//! * `scan` — the same descent, then a level-0 walk;
//! * `contains` — top-down descent whose load protocol follows the
//!   instance [`Strategy`]: the §5.9 deferred fast path (plain loads
//!   under a pin, rc-validated) for `DeferredDec`, the §5.13
//!   deferred-increment path (plain loads + TLS pending `+1`, *no*
//!   validation) for `DeferredInc`, and
//!   [`contains_counted`](LfrcSkipList::contains_counted) — one
//!   `LFRCLoad` DCAS per hop — for `Dcas`.
//!
//! `find`, `insert`, `remove` and `scan` are written once, over a
//! `Traversal` that says how a hop holds the node it reaches. Under
//! `Strategy::Dcas` every hop is a counted `LFRCLoad` — the executable
//! spec. Under both deferred strategies the whole operation runs inside
//! one [`defer::pinned`] scope on plain-load [`Borrowed`] hops, and a
//! reference is counted (promoted) only where a swing installs it: the
//! successor a help-unlink swings in, and each successor stored into a
//! new node's tower. [`swing`](LfrcSkipList::swing) documents why a DCAS
//! on a borrowed `pred` is sound.
//!
//! Under `DeferredInc` every `swing` routes its displaced reference
//! through the grace-period retire queue
//! ([`dcas_ptr_word_retire`](lfrc_core::ops::dcas_ptr_word_retire)); that
//! cover invariant is what lets the increment-strategy descent drop the
//! rc-validation restarts.
//!
//! Garbage stays cycle-free: all tower pointers aim forward (toward
//! larger keys), so step 3 of the methodology holds untouched.

use std::fmt;
use std::ops::Deref;

use lfrc_core::defer::{self, Borrowed, Pin};
use lfrc_core::{DcasWord, Heap, LfrcBox, Links, Local, PtrField, SharedField, Strategy};

use crate::set::MAX_KEY;

/// Maximum tower height (supports ~2³² elements at p = 1/2).
pub const MAX_HEIGHT: usize = 16;

/// Tower levels stored inside the node itself. At p = 1/2, 75% of towers
/// are at most this tall, so most nodes take one allocation (one pool
/// slot) instead of two.
const INLINE_LEVELS: usize = 2;

const HEAD_KEY: u64 = 0;
const TAIL_KEY: u64 = u64::MAX;

#[inline]
fn encode_key(k: u64) -> u64 {
    assert!(k < MAX_KEY, "skip-list keys must be < MAX_KEY");
    k + 1
}

type Link<W> = PtrField<SkipNode<W>, W>;

/// A skip-list node: encoded key, a tower of links, and one mark word.
///
/// `repr(C)` in the order a hop reads: the key, the pointer to the
/// upper tower, levels 0–1, then the mark. With the value first in
/// [`LfrcBox`] and a pool slot on a cache-line boundary, all of these
/// but the mark's `order` id sit in the slot's first 64 bytes, so a
/// level-0/1 hop reads one line and a higher hop that line plus the
/// tower slice (DESIGN.md §5.17).
#[repr(C)]
pub struct SkipNode<W: DcasWord> {
    key: u64,
    /// Levels `2..height`; empty (no allocation) for towers of height ≤ 2.
    high: Box<[Link<W>]>,
    /// Levels 0 and 1: `low[0]` is the full list; a height-1 node leaves
    /// `low[1]` null forever.
    low: [Link<W>; INLINE_LEVELS],
    /// 0 = live, 1 = logically deleted (governs the whole tower).
    marked: W,
}

impl<W: DcasWord> Links<W> for SkipNode<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, W>)) {
        for field in self.low.iter().chain(self.high.iter()) {
            f(field);
        }
    }
}

impl<W: DcasWord> fmt::Debug for SkipNode<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipNode")
            .field("key", &self.key)
            .field("levels", &(INLINE_LEVELS + self.high.len()))
            .field("marked", &(self.marked.load() == 1))
            .finish()
    }
}

impl<W: DcasWord> SkipNode<W> {
    fn new(key: u64, height: usize) -> Self {
        SkipNode {
            key,
            high: (INLINE_LEVELS..height).map(|_| PtrField::null()).collect(),
            low: [PtrField::null(), PtrField::null()],
            marked: W::new(0),
        }
    }

    /// The link at level `lvl` (`lvl` below the node's height).
    #[inline]
    fn next(&self, lvl: usize) -> &Link<W> {
        if lvl < INLINE_LEVELS {
            &self.low[lvl]
        } else {
            &self.high[lvl - INLINE_LEVELS]
        }
    }
}

/// A lock-free ordered set backed by a skip list, memory-managed by LFRC.
///
/// # Example
///
/// ```
/// use lfrc_structures::LfrcSkipList;
/// use lfrc_core::McasWord;
///
/// let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
/// for k in [5, 1, 9, 3] {
///     assert!(s.insert(k));
/// }
/// assert!(s.contains(3));
/// assert!(s.remove(3));
/// assert!(!s.contains(3));
/// assert_eq!(s.len(), 3);
/// ```
pub struct LfrcSkipList<W: DcasWord> {
    head: SharedField<SkipNode<W>, W>,
    heap: Heap<SkipNode<W>, W>,
    seed: std::sync::atomic::AtomicU64,
    strategy: Strategy,
}

impl<W: DcasWord> fmt::Debug for LfrcSkipList<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcSkipList")
            .field("census", self.heap.census())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl<W: DcasWord> Default for LfrcSkipList<W> {
    fn default() -> Self {
        Self::new()
    }
}

type NodeRef<W> = Local<SkipNode<W>, W>;
type NodePtr<W> = *mut LfrcBox<SkipNode<W>, W>;

/// How a traversal holds the nodes it visits — the one axis along which
/// the strategies' write paths differ. `find`, `insert`, `remove` and
/// `scan` are written once over it.
trait Traversal<W: DcasWord>: Copy {
    /// What a hop holds: a counted [`Local`] or a pin-scoped [`Borrowed`].
    type Node: Clone + Deref<Target = SkipNode<W>>;

    /// Reads `field`; `None` for null.
    fn load(self, field: &Link<W>) -> Option<Self::Node>;

    /// Reads a word cell of a node this traversal holds (the mark).
    fn read(self, cell: &W) -> u64;

    /// Identity only (DCAS expectations, pointer comparison).
    fn raw(node: &Self::Node) -> NodePtr<W>;

    /// A counted reference to `node` — what a swing or a tower store
    /// installs — or `None` if the node's count already reached zero.
    fn count(node: &Self::Node) -> Option<NodeRef<W>>;
}

/// `Strategy::Dcas`: every hop is an `LFRCLoad` DCAS — the executable
/// spec the deferred traversal is diffed against.
#[derive(Clone, Copy)]
struct Counted;

impl<W: DcasWord> Traversal<W> for Counted {
    type Node = NodeRef<W>;

    fn load(self, field: &Link<W>) -> Option<NodeRef<W>> {
        field.load()
    }

    fn read(self, cell: &W) -> u64 {
        cell.load()
    }

    fn raw(node: &NodeRef<W>) -> NodePtr<W> {
        Local::as_raw(node)
    }

    fn count(node: &NodeRef<W>) -> Option<NodeRef<W>> {
        Some(node.clone())
    }
}

/// Both deferred strategies: every hop is a plain load under one epoch
/// pin (DESIGN.md §5.9), and every read goes through that pin instead of
/// pinning again; a count is taken only by [`Borrowed::promote`], which
/// refuses a node whose count hit zero.
impl<'p, W: DcasWord> Traversal<W> for &'p Pin {
    type Node = Borrowed<'p, SkipNode<W>, W>;

    fn load(self, field: &Link<W>) -> Option<Self::Node> {
        field.load_deferred(self)
    }

    fn read(self, cell: &W) -> u64 {
        Pin::read(self, cell)
    }

    fn raw(node: &Self::Node) -> NodePtr<W> {
        Borrowed::as_raw(node)
    }

    fn count(node: &Self::Node) -> Option<NodeRef<W>> {
        Borrowed::promote(node)
    }
}

/// `find`'s result: for each level `l`,
/// `preds[l].key < ekey <= succs[l].key`, and `preds[l].next[l]` held
/// `succs[l]` when that level was read. Every slot is filled.
struct Window<N> {
    preds: [Option<N>; MAX_HEIGHT],
    succs: [Option<N>; MAX_HEIGHT],
}

impl<N> Window<N> {
    fn pred(&self, lvl: usize) -> &N {
        self.preds[lvl].as_ref().expect("find fills every level")
    }

    fn succ(&self, lvl: usize) -> &N {
        self.succs[lvl].as_ref().expect("find fills every level")
    }
}

impl<W: DcasWord> LfrcSkipList<W> {
    /// Creates an empty skip list (full-height head and tail sentinels)
    /// with the default [`Strategy`].
    pub fn new() -> Self {
        Self::with_strategy(Strategy::default())
    }

    /// Creates an empty skip list using `strategy` for its load protocol.
    pub fn with_strategy(strategy: Strategy) -> Self {
        let heap: Heap<SkipNode<W>, W> = Heap::new();
        let tail = heap.alloc(SkipNode::new(TAIL_KEY, MAX_HEIGHT));
        let head_node = heap.alloc(SkipNode::new(HEAD_KEY, MAX_HEIGHT));
        for lvl in 0..MAX_HEIGHT {
            head_node.next(lvl).store(Some(&tail));
        }
        drop(tail);
        let list = LfrcSkipList {
            head: SharedField::null(),
            heap,
            seed: std::sync::atomic::AtomicU64::new(0x853c49e6748fea9b),
            strategy,
        };
        list.head.store_consume(head_node);
        list
    }

    /// The heap (census inspection).
    pub fn heap(&self) -> &Heap<SkipNode<W>, W> {
        &self.heap
    }

    /// The load strategy this instance was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Geometric tower height in `1..=MAX_HEIGHT` (p = 1/2).
    fn random_height(&self) -> usize {
        use std::sync::atomic::Ordering;
        let mut x = self.seed.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Swings `pred.next[lvl]` from `curr` to `new` iff `pred` is
    /// unmarked — the DCAS that replaces per-level pointer marks.
    ///
    /// `new` must be null or held counted by the caller; `curr` is
    /// identity only (on success the reference released is the field's
    /// own). `pred` need not be counted: the deferred traversals pass a
    /// pin-scoped borrow, which may be a node freed after it was read.
    /// Swinging on it is still sound, for three reasons:
    ///
    /// 1. A published node reaches rc 0 only after it is marked. While
    ///    unmarked it is linked at level 0, and that link's unit can only
    ///    be displaced by a help-unlink swing, which requires the mark.
    /// 2. The DCAS validates `pred.marked == 0` atomically with
    ///    `pred.next[lvl] == curr`. So a swing that succeeds does so at an
    ///    instant when `pred` is alive and its field owns the unit on
    ///    `curr` that the swing transfers; on a dead `pred` it fails.
    /// 3. The pin keeps `pred`'s memory mapped and its slot from being
    ///    recycled, so a dead `pred`'s mark word still reads 1 and the
    ///    address `curr` cannot come back as a different node.
    ///
    /// Under [`Strategy::DeferredInc`] the displaced reference is
    /// grace-retired instead of eagerly released: a pinned reader's
    /// pending `+1` on `curr` may be covered by exactly the field unit
    /// this swing displaces, so the unit must outlive every pin that
    /// could have observed it (§5.13 cover invariant).
    fn swing(&self, pred: &SkipNode<W>, lvl: usize, curr: NodePtr<W>, new: NodePtr<W>) -> bool {
        // Safety: `pred`'s memory is kept mapped by a count or the pin
        // (argument above); `new` is a caller-held counted reference and
        // `curr` is identity-only, which both variants permit.
        unsafe {
            if self.strategy == Strategy::DeferredInc {
                lfrc_core::ops::dcas_ptr_word_retire(pred.next(lvl), &pred.marked, curr, 0, new, 0)
            } else {
                lfrc_core::ops::dcas_ptr_word(pred.next(lvl), &pred.marked, curr, 0, new, 0)
            }
        }
    }

    /// Top-down search: fills a [`Window`] for `ekey`, helping unlink
    /// marked nodes along the way, and restarts internally on conflicts.
    ///
    /// A null link can only be a harvested field on a node freed under a
    /// borrowed traversal (towers are complete before publication, and
    /// the tail's links are never read), so it restarts. A node that
    /// reads unmarked was alive at that instant (reason 1 on
    /// [`swing`](Self::swing)), which is all the callers' key checks
    /// need; every write they then make is a validating DCAS or CAS.
    fn find<T: Traversal<W>>(&self, t: T, ekey: u64) -> Window<T::Node> {
        'retry: loop {
            let mut w = Window {
                preds: std::array::from_fn(|_| None),
                succs: std::array::from_fn(|_| None),
            };
            let mut pred = t.load(&self.head).expect("head sentinel");
            for lvl in (0..MAX_HEIGHT).rev() {
                let Some(mut curr) = t.load(pred.next(lvl)) else {
                    continue 'retry;
                };
                loop {
                    // Help unlink marked nodes at this level. The swing
                    // installs `succ`, so only `succ` pays for a count.
                    while t.read(&curr.marked) == 1 {
                        let Some(succ) = t.load(curr.next(lvl)) else {
                            continue 'retry;
                        };
                        let Some(counted) = T::count(&succ) else {
                            continue 'retry;
                        };
                        if !self.swing(&pred, lvl, T::raw(&curr), Local::as_raw(&counted)) {
                            continue 'retry;
                        }
                        curr = succ;
                    }
                    if curr.key >= ekey {
                        break;
                    }
                    let Some(next) = t.load(curr.next(lvl)) else {
                        continue 'retry;
                    };
                    pred = curr;
                    curr = next;
                }
                w.preds[lvl] = Some(pred.clone());
                w.succs[lvl] = Some(curr);
                // `pred` carries down to the next level.
            }
            return w;
        }
    }

    /// Inserts `key`; `false` if already present.
    pub fn insert(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        let height = self.random_height();
        match self.strategy {
            Strategy::Dcas => self.insert_with(Counted, ekey, height),
            Strategy::DeferredDec | Strategy::DeferredInc => {
                defer::pinned(|pin| self.insert_with(pin, ekey, height))
            }
        }
    }

    fn insert_with<T: Traversal<W>>(&self, t: T, ekey: u64, height: usize) -> bool {
        'find: loop {
            let mut w = self.find(t, ekey);
            if w.succ(0).key == ekey {
                return false;
            }
            let node = self.heap.alloc(SkipNode::new(ekey, height));
            // Prepare the whole tower before publication. A successor
            // that died since the traversal read it means the window is
            // stale: drop the unpublished node and search again.
            for lvl in 0..height {
                let Some(succ) = T::count(w.succ(lvl)) else {
                    continue 'find;
                };
                node.next(lvl).store_consume(succ);
            }
            // Level 0 is the linearization point.
            if !self.swing(w.pred(0), 0, T::raw(w.succ(0)), Local::as_raw(&node)) {
                continue 'find; // node drops and is freed; retry from scratch
            }
            // Index the upper levels (best-effort) with the same window.
            for lvl in 1..height {
                if !self.link_level(t, &node, lvl, &mut w) {
                    break;
                }
            }
            return true;
        }
    }

    /// Links the published `node` into level `lvl`, starting from the
    /// window `w` already holds (whose `succ(lvl)` is what
    /// `node.next[lvl]` points at) and searching again only after a
    /// failed swing. Returns `false` once `node` is marked: a concurrent
    /// remove owns it, so indexing stops.
    fn link_level<T: Traversal<W>>(
        &self,
        t: T,
        node: &NodeRef<W>,
        lvl: usize,
        w: &mut Window<T::Node>,
    ) -> bool {
        let me = Local::as_raw(node);
        loop {
            if t.read(&node.marked) == 1 {
                return false;
            }
            if self.swing(w.pred(lvl), lvl, T::raw(w.succ(lvl)), me) {
                return true;
            }
            // Search again until this level can be retargeted.
            loop {
                *w = self.find(t, node.key);
                if T::raw(w.succ(lvl)) == me {
                    return true; // already linked at this level
                }
                if let Some(succ) = T::count(w.succ(lvl)) {
                    // This store may displace an earlier target's
                    // reference eagerly — safe under every strategy:
                    // `node.next[lvl]` is unreachable to readers until
                    // the swing publishes `node` at this level, so the
                    // displaced unit covers no pending increment.
                    node.next(lvl).store_consume(succ);
                    break;
                }
            }
        }
    }

    /// Removes `key`; `false` if absent.
    pub fn remove(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        match self.strategy {
            Strategy::Dcas => self.remove_with(Counted, ekey),
            Strategy::DeferredDec | Strategy::DeferredInc => {
                defer::pinned(|pin| self.remove_with(pin, ekey))
            }
        }
    }

    fn remove_with<T: Traversal<W>>(&self, t: T, ekey: u64) -> bool {
        let mut w = self.find(t, ekey);
        loop {
            if w.succ(0).key != ekey {
                return false;
            }
            // Linearization point: the mark. It fails on a node that died
            // since the traversal (rc 0 implies marked).
            if w.succ(0).marked.compare_and_swap(0, 1) {
                break;
            }
            // Another remover got it; re-find to observe the unlink.
            w = self.find(t, ekey);
        }
        // Best-effort physical unlink, top-down, with the preds this
        // traversal already holds. After a failed swing one more find
        // helps unlink every level it passes; later finds help with the
        // rest.
        let victim = w.succ(0).clone();
        for lvl in (0..MAX_HEIGHT).rev() {
            if T::raw(w.succ(lvl)) != T::raw(&victim) {
                continue; // not linked at this level when we looked
            }
            let unlinked = t
                .load(victim.next(lvl))
                .and_then(|next| T::count(&next))
                .is_some_and(|next| {
                    self.swing(w.pred(lvl), lvl, T::raw(&victim), Local::as_raw(&next))
                });
            if !unlinked {
                let _ = self.find(t, ekey);
                break;
            }
        }
        true
    }

    /// Membership test, dispatching on the instance [`Strategy`]:
    ///
    /// * `Dcas` → [`contains_counted`](Self::contains_counted) (one
    ///   `LFRCLoad` DCAS per hop, the paper-faithful baseline);
    /// * `DeferredDec` → the §5.9 uncounted fast path (plain loads,
    ///   rc-validated, restart on suspicion);
    /// * `DeferredInc` → the §5.13 deferred-increment path (plain loads
    ///   plus a thread-local pending `+1` per hop, no validation at all).
    pub fn contains(&self, key: u64) -> bool {
        match self.strategy {
            Strategy::Dcas => self.contains_counted(key),
            Strategy::DeferredDec => self.contains_deferred(key),
            Strategy::DeferredInc => self.contains_inc(key),
        }
    }

    /// Membership test — the deferred fast path (DESIGN.md §5.9).
    ///
    /// The whole traversal runs inside one [`defer::pinned`] scope with
    /// **plain pointer loads**: no DCAS, no count traffic per hop — versus
    /// one `LFRCLoad` DCAS per hop for [`contains_counted`]. A hop may
    /// land on a node that was concurrently freed (the pin keeps its
    /// memory mapped); soundness comes from validation, not counts:
    ///
    /// * a null link may be a harvested field on a freed node — reading a
    ///   nonzero [`Borrowed::ref_count`] *after* the read proves the null
    ///   was genuine, otherwise restart;
    /// * at a key match, a nonzero count after the match proves `curr`
    ///   was a real, reachable node when its key was read.
    ///
    /// Keys are immutable payload (readable even on a freed node), so the
    /// comparisons in between need no validation of their own.
    pub fn contains_deferred(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        defer::pinned(|pin| 'restart: loop {
            let Some(mut pred) = self.head.load_deferred(pin) else {
                return false; // only during teardown
            };
            for lvl in (0..MAX_HEIGHT).rev() {
                let mut curr = match pred.next(lvl).load_deferred(pin) {
                    Some(c) => c,
                    None => {
                        if Borrowed::ref_count(&pred) == 0 {
                            continue 'restart; // harvested, not "level empty"
                        }
                        continue;
                    }
                };
                while curr.key < ekey {
                    let next = match curr.next(lvl).load_deferred(pin) {
                        Some(n) => n,
                        None => {
                            if Borrowed::ref_count(&curr) == 0 {
                                continue 'restart;
                            }
                            break;
                        }
                    };
                    pred = curr;
                    curr = next;
                }
                if curr.key == ekey {
                    if Borrowed::ref_count(&curr) == 0 {
                        continue 'restart; // freed under us; re-traverse
                    }
                    return pin.read(&curr.marked) == 0;
                }
            }
            return false;
        })
    }

    /// Membership test on the deferred-increment path (DESIGN.md §5.13):
    /// a plain load plus one thread-local pending-`+1` append per hop.
    ///
    /// No `ref_count` validation and no restarts, unlike
    /// [`contains_deferred`]: on an exclusively-`DeferredInc` instance
    /// every displaced field unit is grace-retired (see
    /// [`swing`](Self::swing)), so a node reached inside this pin keeps
    /// `rc ≥ 1` for the whole pin and a null link is always a genuine
    /// tail / unlinked level — never a harvested field on a freed node.
    pub fn contains_inc(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        defer::pinned(|pin| {
            let Some(mut pred) = self.head.load_counted_inc(pin) else {
                return false; // only during teardown
            };
            for lvl in (0..MAX_HEIGHT).rev() {
                let mut curr = match pred.next(lvl).load_counted_inc(pin) {
                    Some(c) => c,
                    None => continue, // genuinely unlinked level: descend
                };
                while curr.key < ekey {
                    let next = match curr.next(lvl).load_counted_inc(pin) {
                        Some(n) => n,
                        None => break, // genuine end of this level
                    };
                    pred = curr;
                    curr = next;
                }
                if curr.key == ekey {
                    return pin.read(&curr.marked) == 0;
                }
            }
            false
        })
    }

    /// Membership test via counted loads (`LFRCLoad` per hop) — the
    /// baseline the deferred paths are measured against in experiment
    /// E10.
    pub fn contains_counted(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        let mut pred = self.head.load().expect("head sentinel");
        for lvl in (0..MAX_HEIGHT).rev() {
            let mut curr = match pred.next(lvl).load() {
                Some(c) => c,
                None => continue,
            };
            while curr.key < ekey {
                let next = match curr.next(lvl).load() {
                    Some(n) => n,
                    None => break,
                };
                pred = curr;
                curr = next;
            }
            if curr.key == ekey {
                return curr.marked.load() == 0;
            }
        }
        false
    }

    /// Bounded ascending range scan: up to `limit` live keys `>= start`,
    /// in key order.
    ///
    /// A top-down descent to the last node below `start`, then a level-0
    /// walk, on the instance's [`Traversal`]: counted `LFRCLoad`s under
    /// `Strategy::Dcas`; under both deferred strategies, plain-load
    /// borrows inside one [`defer::pinned`] scope with no count taken at
    /// all. A key is returned only if its node reads unmarked, which
    /// proves the node was live then (a node reaches rc 0 only after it
    /// is marked). A null link can only be a harvested field on a node
    /// freed under the walk; the scan then descends again from the key
    /// after the last one returned, so the output stays sorted and
    /// duplicate-free.
    ///
    /// The scan is not an atomic snapshot: each returned key was live at
    /// the moment its node was inspected, which is the usual guarantee
    /// for lock-free range queries (keys inserted or removed while the
    /// walk passes them may or may not appear).
    pub fn scan(&self, start: u64, limit: usize) -> Vec<u64> {
        if limit == 0 {
            return Vec::new();
        }
        let estart = encode_key(start);
        match self.strategy {
            Strategy::Dcas => self.scan_with(Counted, estart, limit),
            Strategy::DeferredDec | Strategy::DeferredInc => {
                defer::pinned(|pin| self.scan_with(pin, estart, limit))
            }
        }
    }

    fn scan_with<T: Traversal<W>>(&self, t: T, estart: u64, limit: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(limit.min(64));
        // Encoded key the walk resumes from after a restart.
        let mut from = estart;
        'restart: loop {
            let mut pred = t.load(&self.head).expect("head sentinel");
            for lvl in (0..MAX_HEIGHT).rev() {
                let Some(mut curr) = t.load(pred.next(lvl)) else {
                    continue 'restart;
                };
                while curr.key < from {
                    let Some(next) = t.load(curr.next(lvl)) else {
                        continue 'restart;
                    };
                    pred = curr;
                    curr = next;
                }
            }
            // Level-0 walk from pred, collecting live in-range keys.
            let mut curr = pred;
            loop {
                let Some(next) = t.load(curr.next(0)) else {
                    continue 'restart;
                };
                if next.key == TAIL_KEY {
                    return out;
                }
                if next.key >= from && t.read(&next.marked) == 0 {
                    out.push(next.key - 1); // decode
                    if out.len() == limit {
                        return out;
                    }
                    from = next.key + 1;
                }
                curr = next;
            }
        }
    }

    /// Number of live keys (O(n) level-0 walk; diagnostics).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut curr = self.head.load().expect("head sentinel");
        loop {
            let next = curr.next(0).load();
            let Some(next) = next else { break };
            if next.key != TAIL_KEY && next.marked.load() == 0 {
                n += 1;
            }
            curr = next;
        }
        n
    }

    /// `true` if no live keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrc_core::McasWord;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_semantics() {
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        assert!(s.is_empty());
        for k in [50, 10, 90, 30, 70] {
            assert!(s.insert(k));
        }
        assert!(!s.insert(50));
        assert_eq!(s.len(), 5);
        for k in [10, 30, 50, 70, 90] {
            assert!(s.contains(k));
        }
        assert!(!s.contains(40));
        assert!(s.remove(50));
        assert!(!s.remove(50));
        assert!(!s.contains(50));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn large_sequential_no_leak() {
        let census;
        {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
            census = std::sync::Arc::clone(s.heap().census());
            for k in 0..2_000u64 {
                s.insert((k * 2_654_435_761) % 100_000);
            }
            let before = s.len();
            assert!(before > 1_500, "hash spread should mostly be distinct");
            for k in 0..2_000u64 {
                s.remove((k * 2_654_435_761) % 100_000);
            }
            assert!(s.is_empty());
        }
        assert_eq!(census.live(), 0, "skip list leaked");
    }

    #[test]
    fn towers_index_correctly() {
        // Insert ascending keys; contains must find every one through the
        // multi-level descent (exercises upper-level links).
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        for k in 0..512u64 {
            s.insert(k);
        }
        for k in 0..512u64 {
            assert!(s.contains(k), "lost key {k}");
        }
        assert_eq!(s.len(), 512);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        const THREADS: usize = 4;
        const PER: u64 = 400;
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, barrier) = (&s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let base = t as u64 * PER;
                    for k in base..base + PER {
                        assert!(s.insert(k));
                    }
                    for k in (base..base + PER).step_by(2) {
                        assert!(s.remove(k));
                    }
                });
            }
        });
        assert_eq!(s.len(), THREADS * PER as usize / 2);
        for k in 0..THREADS as u64 * PER {
            assert_eq!(s.contains(k), k % 2 == 1, "key {k}");
        }
    }

    #[test]
    fn concurrent_contended_key_space() {
        const THREADS: usize = 4;
        const OPS: u64 = 1_000;
        const KEYS: u64 = 16;
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        let net = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, net, barrier) = (&s, &net, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS;
                        if x & 1 == 0 {
                            if s.insert(k) {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if s.remove(k) {
                            net.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(s.len() as u64, net.load(Ordering::Relaxed));
    }

    #[test]
    fn deferred_and_counted_contains_agree() {
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        for k in 0..256u64 {
            s.insert(k);
        }
        for k in (0..256u64).step_by(3) {
            s.remove(k);
        }
        // Quiescent: the deferred traversal and the counted baseline must
        // answer identically for every key.
        for k in 0..300u64 {
            assert_eq!(s.contains(k), s.contains_counted(k), "key {k}");
        }
    }

    #[test]
    fn deferred_contains_survives_concurrent_churn() {
        // Readers on the deferred path race inserts/removes that free
        // nodes mid-traversal; the rc validation must keep every answer
        // plausible (no panic, no wrong answer for keys nobody touches).
        const STABLE: u64 = 999; // outside the churned range
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        s.insert(STABLE);
        let barrier = Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (s, barrier) = (&s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..60 {
                        for k in 0..48u64 {
                            s.insert(k);
                        }
                        for k in 0..48u64 {
                            s.remove(k);
                        }
                        let _ = round;
                    }
                });
            }
            let (s, barrier) = (&s, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..4_000 {
                    assert!(s.contains(STABLE), "stable key lost mid-churn");
                    let _ = s.contains(17); // churned key: any answer is fine
                }
            });
        });
        assert!(s.contains(STABLE));
    }

    /// Under `Strategy::DeferredInc` the logical free happens inside a
    /// grace-retired destroy, so the census drains only after the epoch
    /// advances — drive it with a bounded flush/quiesce loop.
    #[track_caller]
    fn assert_census_drains(census: &lfrc_core::Census) {
        let t0 = std::time::Instant::now();
        while census.live() != 0 && t0.elapsed() < std::time::Duration::from_secs(10) {
            lfrc_core::defer::flush_thread();
            lfrc_dcas::quiesce();
            std::thread::yield_now();
        }
        assert_eq!(census.live(), 0, "census did not drain");
    }

    #[test]
    fn lfrc_skiplist_every_strategy_sequential() {
        for strategy in Strategy::ALL {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            assert_eq!(s.strategy(), strategy);
            for k in [50, 10, 90, 30, 70] {
                assert!(s.insert(k), "{strategy}");
            }
            assert!(!s.insert(50), "{strategy}");
            assert_eq!(s.len(), 5);
            for k in [10, 30, 50, 70, 90] {
                assert!(s.contains(k), "{strategy}: key {k}");
            }
            assert!(!s.contains(40), "{strategy}");
            assert!(s.remove(50), "{strategy}");
            assert!(!s.contains(50), "{strategy}");
            // All three traversal protocols agree on a quiescent list.
            for k in 0..100u64 {
                assert_eq!(s.contains_counted(k), s.contains_deferred(k), "key {k}");
                assert_eq!(s.contains_counted(k), s.contains_inc(k), "key {k}");
            }
            let census = std::sync::Arc::clone(s.heap().census());
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn lfrc_skiplist_deferred_inc_contains_survives_concurrent_churn() {
        // The §5.13 traversal races inserts/removes whose unlinks are
        // grace-retired; stable keys must never be lost and nothing may
        // trip a canary (the cover invariant keeps every visited node
        // alive for the duration of the pin).
        const STABLE: u64 = 999;
        let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(Strategy::DeferredInc);
        let census = std::sync::Arc::clone(s.heap().census());
        s.insert(STABLE);
        let barrier = Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (s, barrier) = (&s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..60 {
                        for k in 0..48u64 {
                            s.insert(k);
                        }
                        for k in 0..48u64 {
                            s.remove(k);
                        }
                    }
                    lfrc_core::settle_thread();
                    lfrc_core::defer::flush_thread();
                });
            }
            let (s, barrier) = (&s, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..4_000 {
                    assert!(s.contains(STABLE), "stable key lost mid-churn");
                    let _ = s.contains(17); // churned key: any answer is fine
                }
                lfrc_core::settle_thread();
                lfrc_core::defer::flush_thread();
            });
        });
        assert!(s.contains(STABLE));
        drop(s);
        assert_census_drains(&census);
    }

    #[test]
    fn scan_returns_ordered_live_range() {
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        for k in (0..100u64).rev() {
            s.insert(k * 10);
        }
        s.remove(40);
        assert_eq!(s.scan(25, 4), vec![30, 50, 60, 70]);
        assert_eq!(s.scan(30, 3), vec![30, 50, 60]);
        assert_eq!(s.scan(0, 2), vec![0, 10]);
        // Past the end: empty, not panic.
        assert_eq!(s.scan(991, 8), Vec::<u64>::new());
        // limit 0 and oversized limits.
        assert_eq!(s.scan(0, 0), Vec::<u64>::new());
        assert_eq!(s.scan(960, usize::MAX), vec![960, 970, 980, 990]);
    }

    #[test]
    fn scan_every_strategy_matches_contains() {
        for strategy in Strategy::ALL {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            for k in 0..64u64 {
                s.insert(k * 3);
            }
            for k in (0..64u64).step_by(2) {
                s.remove(k * 3);
            }
            let got = s.scan(0, usize::MAX);
            let want: Vec<u64> = (0..64u64).filter(|k| k % 2 == 1).map(|k| k * 3).collect();
            assert_eq!(got, want, "{strategy}");
            let census = std::sync::Arc::clone(s.heap().census());
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn scan_survives_concurrent_churn_every_strategy() {
        // Two writers churn every key of [BASE, BASE + SPAN) that is not a
        // multiple of 4 while a scanner walks the range. The borrowed
        // walks land on nodes freed under them; the scan must stay sorted
        // and in range, and never miss a stable key (multiples of 4,
        // inserted up front and never touched).
        const BASE: u64 = 1_000;
        const SPAN: u64 = 64;
        let stable: Vec<u64> = (BASE..BASE + SPAN).step_by(4).collect();
        for strategy in Strategy::ALL {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            let census = std::sync::Arc::clone(s.heap().census());
            for &k in &stable {
                assert!(s.insert(k));
            }
            let barrier = Barrier::new(3);
            std::thread::scope(|scope| {
                for t in 0..2u64 {
                    let (s, barrier) = (&s, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        for _ in 0..40 {
                            let churn = (BASE..BASE + SPAN).filter(|k| k % 4 != 0);
                            for k in churn.clone().filter(|k| k % 2 == t) {
                                s.insert(k);
                            }
                            for k in churn {
                                s.remove(k);
                            }
                        }
                        lfrc_core::settle_thread();
                        lfrc_core::defer::flush_thread();
                    });
                }
                let (s, barrier, stable) = (&s, &barrier, &stable);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..1_500u64 {
                        let start = BASE + i % SPAN;
                        let limit = if i % 2 == 0 { usize::MAX } else { 6 };
                        let got = s.scan(start, limit);
                        assert!(got.len() <= limit, "{strategy}: over limit");
                        assert!(got.windows(2).all(|w| w[0] < w[1]), "{strategy}: {got:?}");
                        assert!(got.iter().all(|&k| (start..BASE + SPAN).contains(&k)));
                        // Every stable key in [start, end] must be there,
                        // where `end` is the range end or, for a full
                        // page, the last key returned.
                        let end = match got.last() {
                            Some(&last) if got.len() == limit => last,
                            _ => BASE + SPAN,
                        };
                        for k in stable.iter().filter(|&&k| k >= start && k <= end) {
                            assert!(got.contains(k), "{strategy}: stable {k} missing: {got:?}");
                        }
                    }
                    lfrc_core::settle_thread();
                    lfrc_core::defer::flush_thread();
                });
            });
            assert_eq!(s.scan(0, usize::MAX), stable, "{strategy}");
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn every_strategy_agrees_after_concurrent_writes() {
        // The same contended put/delete race under each strategy: the
        // final set must equal the net effect each thread reports, and
        // every count must drain (a borrowed-pred swing that released a
        // unit it did not own would show as a leak or a canary hit).
        for strategy in Strategy::ALL {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            let census = std::sync::Arc::clone(s.heap().census());
            let net = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..3u64 {
                    let (s, net) = (&s, &net);
                    scope.spawn(move || {
                        let mut x = (t + 1).wrapping_mul(0x9e3779b97f4a7c15) | 1;
                        for _ in 0..2_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let k = x % 32;
                            if x & 2 == 0 {
                                if s.insert(k) {
                                    net.fetch_add(1, Ordering::Relaxed);
                                }
                            } else if s.remove(k) {
                                net.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        lfrc_core::settle_thread();
                        lfrc_core::defer::flush_thread();
                    });
                }
            });
            let keys = s.scan(0, usize::MAX);
            assert_eq!(keys.len() as u64, net.load(Ordering::Relaxed), "{strategy}");
            assert_eq!(keys.len(), s.len(), "{strategy}");
            for k in 0..32u64 {
                assert_eq!(s.contains(k), keys.contains(&k), "{strategy}: key {k}");
            }
            assert_eq!(census.rc_on_freed(), 0, "{strategy}");
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn short_towers_fit_one_pool_slot() {
        // Levels 0–1 live inside the node, so a node of height ≤ 2 is one
        // allocation, and the whole box still fits a 128-byte slot.
        assert!(std::mem::size_of::<lfrc_core::LfrcBox<SkipNode<McasWord>, McasWord>>() <= 128);
        let node: SkipNode<McasWord> = SkipNode::new(7, 2);
        assert!(node.high.is_empty());
        let mut links = 0;
        SkipNode::<McasWord>::new(7, 5).for_each_link(&mut |_| links += 1);
        assert_eq!(links, 5);
    }

    #[test]
    fn hop_fields_sit_in_the_first_cache_line() {
        use std::mem::{offset_of, size_of};
        type Node = SkipNode<McasWord>;
        // A pool slot starts on a line boundary and `LfrcBox` puts the
        // value first, so node offsets are offsets into the slot.
        let heap: Heap<Node, McasWord> = Heap::new();
        let n = heap.alloc(SkipNode::new(1, 1));
        let value_at = &*n as *const Node as usize - Local::as_raw(&n) as usize;
        assert_eq!(value_at, 0, "the value must lead the box");
        // Each hop field must end within the slot's first 64 bytes.
        for (field, at, len) in [
            ("key", offset_of!(Node, key), size_of::<u64>()),
            (
                "high",
                offset_of!(Node, high),
                size_of::<Box<[Link<McasWord>]>>(),
            ),
            (
                "low",
                offset_of!(Node, low),
                size_of::<[Link<McasWord>; INLINE_LEVELS]>(),
            ),
            // `McasWord` is `repr(C)` with its value word first.
            ("marked", offset_of!(Node, marked), size_of::<u64>()),
        ] {
            assert!(at + len <= 64, "{field} ends at byte {}", at + len);
        }
    }

    #[test]
    fn drop_frees_everything() {
        let census;
        {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
            census = std::sync::Arc::clone(s.heap().census());
            for k in 0..500 {
                s.insert(k);
            }
            for k in (0..500).step_by(3) {
                s.remove(k);
            }
        }
        assert_eq!(census.live(), 0);
    }
}
