//! The closed-loop client: issue an op, wait for it, check it, repeat.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use lfrc_core::McasWord;
use lfrc_kv::{Kv, KvWrite};
use lfrc_structures::LfrcSkipList;

use crate::gen::{is_anchor, Kind, Op, Stream, BATCH_LEN, SCAN_LIMIT};
use crate::stats::LatHist;
use crate::trace::{Name, Trace};

/// What a window's ops count toward. `Warm` ops are checked but not
/// reported; `Plain` windows give the end-to-end metrics and the counts;
/// `Traced` windows give the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm = 0,
    Plain = 1,
    Traced = 2,
    Stop = 3,
}

/// Window control shared by the main thread and the clients. The main
/// thread sets `mode` and `deadline`, then meets the clients at the
/// barrier to start the window and again when every client has passed
/// the deadline.
#[derive(Debug)]
pub struct Ctl {
    pub barrier: Barrier,
    pub mode: AtomicU8,
    pub deadline: Mutex<Instant>,
}

impl Ctl {
    pub fn new(clients: usize) -> Ctl {
        Ctl {
            barrier: Barrier::new(clients + 1),
            mode: AtomicU8::new(Mode::Warm as u8),
            deadline: Mutex::new(Instant::now()),
        }
    }

    fn mode(&self) -> Mode {
        match self.mode.load(Ordering::SeqCst) {
            0 => Mode::Warm,
            1 => Mode::Plain,
            2 => Mode::Traced,
            _ => Mode::Stop,
        }
    }
}

/// Result of one op, as the store returned it.
#[derive(Debug)]
enum Out {
    Get(bool),
    Write(bool),
    Scan(Vec<u64>),
    Batch(usize),
}

/// Latencies, outcomes and failed checks of one client in one mode.
#[derive(Debug, Default)]
pub struct Tally {
    pub lat: [LatHist; 4],
    pub get_hits: u64,
    /// Single writes plus batch entries attempted.
    pub writes: u64,
    /// Writes that changed the store.
    pub writes_applied: u64,
    pub puts_applied: u64,
    pub deletes_applied: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ops(&self) -> u64 {
        self.lat.iter().map(LatHist::count).sum()
    }

    pub fn kind(&self, k: Kind) -> &LatHist {
        &self.lat[k as usize]
    }

    pub fn merge(&mut self, o: &Tally) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
        self.get_hits += o.get_hits;
        self.writes += o.writes;
        self.writes_applied += o.writes_applied;
        self.puts_applied += o.puts_applied;
        self.deletes_applied += o.deletes_applied;
        self.failed += o.failed;
        self.notes
            .extend(o.notes.iter().take(8 - self.notes.len().min(8)).cloned());
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn write(&mut self, put: bool, applied: u64, attempted: u64) {
        self.writes += attempted;
        self.writes_applied += applied;
        if put {
            self.puts_applied += applied;
        } else {
            self.deletes_applied += applied;
        }
    }

    fn record(&mut self, kv: &Kv, keys: u64, op: &Op, out: Out, ns: u64) {
        self.lat[op.kind() as usize].record(ns);
        match (*op, out) {
            (Op::Get(k), Out::Get(hit)) => {
                self.get_hits += hit as u64;
                if is_anchor(k) && !hit {
                    self.fail(format!("get({k}) of an anchor returned false"));
                }
            }
            (Op::Put(_), Out::Write(c)) => self.write(true, c as u64, 1),
            (Op::Delete(_), Out::Write(c)) => self.write(false, c as u64, 1),
            (Op::Scan(start), Out::Scan(got)) => {
                if let Err(e) = check_scan(kv, keys, start, &got) {
                    self.fail(e);
                }
            }
            (Op::Batch { put, .. }, Out::Batch(n)) => {
                if n > BATCH_LEN {
                    self.fail(format!("write_batch applied {n} of {BATCH_LEN} writes"));
                }
                self.write(put, n as u64, BATCH_LEN as u64);
            }
            (op, out) => unreachable!("{op:?} returned {out:?}"),
        }
    }
}

/// A scan must be sorted, at or above its start, inside the key space
/// and the start's shard, and hold every anchor of that shard up to the
/// last key it returns (or to the end of the key space if it came back
/// short).
fn check_scan(kv: &Kv, keys: u64, start: u64, got: &[u64]) -> Result<(), String> {
    let own = kv.shard_of(start);
    if got.len() > SCAN_LIMIT {
        return Err(format!("scan({start}) returned {} keys", got.len()));
    }
    if !got.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("scan({start}) is not sorted: {got:?}"));
    }
    if let Some(&k) = got
        .iter()
        .find(|&&k| k < start || k >= keys || kv.shard_of(k) != own)
    {
        return Err(format!(
            "scan({start}) returned {k}: out of range or shard {own}"
        ));
    }
    let end = if got.len() == SCAN_LIMIT {
        got[SCAN_LIMIT - 1]
    } else {
        keys - 1
    };
    let mut rest = got.iter().copied().peekable();
    let mut anchor = start.next_multiple_of(4);
    while anchor <= end {
        if kv.shard_of(anchor) == own {
            while rest.next_if(|&k| k < anchor).is_some() {}
            if rest.peek() != Some(&anchor) {
                return Err(format!("scan({start}) skipped anchor {anchor}"));
            }
        }
        anchor += 4;
    }
    Ok(())
}

/// The op through the store's public API, as a user calls it.
fn exec(kv: &Kv, op: &Op) -> Out {
    match *op {
        Op::Get(k) => Out::Get(kv.get(k)),
        Op::Put(k) => Out::Write(kv.put(k)),
        Op::Delete(k) => Out::Write(kv.delete(k)),
        Op::Scan(k) => Out::Scan(kv.scan(k, SCAN_LIMIT)),
        Op::Batch { put, keys } => {
            let writes = keys.map(|k| {
                if put {
                    KvWrite::Put(k)
                } else {
                    KvWrite::Delete(k)
                }
            });
            Out::Batch(kv.write_batch(&writes))
        }
    }
}

fn route(kv: &Kv, tr: &mut Trace, parent: Name, key: u64) -> (usize, u64) {
    let a = Instant::now();
    let idx = kv.shard_of(key);
    let b = Instant::now();
    (idx, tr.span(Name::Route, Some(parent), a, b))
}

/// Routes `key`, then times `call` on its shard as a `name` span.
fn on_shard<T>(
    kv: &Kv,
    tr: &mut Trace,
    root: Name,
    key: u64,
    name: Name,
    call: impl FnOnce(&LfrcSkipList<McasWord>) -> T,
) -> T {
    let (idx, _) = route(kv, tr, root, key);
    let shard = kv.shard(idx);
    let a = Instant::now();
    let r = call(shard);
    let b = Instant::now();
    tr.span(name, Some(root), a, b);
    r
}

/// The same op composed the way `KvStore` composes it — route, then the
/// shard's skip list, batches inside one pin — with a span around each
/// call into a layer. (It skips the store's per-shard routed-op
/// counter, which only the public API bumps.)
fn exec_traced(kv: &Kv, op: &Op, tr: &mut Trace) -> Out {
    let root = root_name(op.kind());
    match *op {
        Op::Get(k) => Out::Get(on_shard(kv, tr, root, k, Name::Contains, |s| s.contains(k))),
        Op::Put(k) => Out::Write(on_shard(kv, tr, root, k, Name::Insert, |s| s.insert(k))),
        Op::Delete(k) => Out::Write(on_shard(kv, tr, root, k, Name::Remove, |s| s.remove(k))),
        Op::Scan(k) => Out::Scan(on_shard(kv, tr, root, k, Name::Scan, |s| {
            s.scan(k, SCAN_LIMIT)
        })),
        Op::Batch { put, keys } => {
            let name = if put { Name::Insert } else { Name::Remove };
            let p0 = Instant::now();
            let (applied, children, structure) = lfrc_core::pinned(|_pin| {
                let (mut applied, mut children, mut structure) = (0, 0, 0);
                for k in keys {
                    let (idx, routed) = route(kv, tr, Name::Pin, k);
                    let a = Instant::now();
                    let shard = kv.shard(idx);
                    let changed = if put {
                        shard.insert(k)
                    } else {
                        shard.remove(k)
                    };
                    let b = Instant::now();
                    let d = tr.span(name, Some(Name::Pin), a, b);
                    applied += changed as usize;
                    children += routed + d;
                    structure += d;
                }
                (applied, children, structure)
            });
            let p1 = Instant::now();
            let pin = tr.span(Name::Pin, Some(root), p0, p1);
            tr.pin_self.record(pin.saturating_sub(children));
            tr.batch_per_write.record(structure / BATCH_LEN as u64);
            Out::Batch(applied)
        }
    }
}

fn root_name(kind: Kind) -> Name {
    match kind {
        Kind::Get => Name::OpGet,
        Kind::Write => Name::OpWrite,
        Kind::Scan => Name::OpScan,
        Kind::Batch => Name::OpBatch,
    }
}

/// Runs windows until the main thread says stop. Returns one tally per
/// window, in order, and the spans of the traced windows.
pub fn run(
    kv: &Kv,
    keys: u64,
    mut stream: Stream,
    ctl: &Ctl,
    base: Instant,
) -> (Vec<Tally>, Trace) {
    let mut windows = Vec::new();
    let mut trace = Trace::new(base);
    loop {
        ctl.barrier.wait();
        let mode = ctl.mode();
        if mode == Mode::Stop {
            break;
        }
        let deadline = *ctl
            .deadline
            .lock()
            .expect("main thread holds no lock while panicking");
        let mut tally = Tally::default();
        loop {
            let op = stream.next_op();
            let (out, t0, t1);
            if mode == Mode::Traced {
                trace.next_op();
                t0 = Instant::now();
                out = exec_traced(kv, &op, &mut trace);
                t1 = Instant::now();
                trace.span(root_name(op.kind()), None, t0, t1);
            } else {
                t0 = Instant::now();
                out = exec(kv, &op);
                t1 = Instant::now();
            }
            tally.record(kv, keys, &op, out, t1.duration_since(t0).as_nanos() as u64);
            if t1 >= deadline {
                break;
            }
        }
        windows.push(tally);
        ctl.barrier.wait();
    }
    lfrc_core::settle_thread();
    lfrc_core::flush_thread();
    (windows, trace)
}
