//! Spans recorded by the traced run, from the benchmark's own code.
//!
//! The traced run composes each operation the way `KvStore` does —
//! route with `shard_of`, then call the shard's skip list, and for a
//! batch wrap the writes in one `lfrc_core::pinned` scope — and times
//! each call into a layer as a span. Every span feeds a per-name
//! histogram; the first [`KEEP`] spans of each thread are also kept in
//! memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::LatHist;

/// Spans kept per thread for the written trace.
const KEEP: usize = 1 << 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    OpGet,
    OpWrite,
    OpScan,
    OpBatch,
    Route,
    Contains,
    Insert,
    Remove,
    Scan,
    Pin,
}

impl Name {
    pub const COUNT: usize = 10;

    pub fn label(self) -> &'static str {
        match self {
            Name::OpGet => "op.get",
            Name::OpWrite => "op.write",
            Name::OpScan => "op.scan",
            Name::OpBatch => "op.batch",
            Name::Route => "kv.route",
            Name::Contains => "structures.contains",
            Name::Insert => "structures.insert",
            Name::Remove => "structures.remove",
            Name::Scan => "structures.scan",
            Name::Pin => "core.pin",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    op: u64,
    name: Name,
    parent: Option<Name>,
    start_ns: u64,
    dur_ns: u64,
}

/// One thread's spans and per-name duration histograms.
#[derive(Debug)]
pub struct Trace {
    base: Instant,
    op: u64,
    kept: Vec<Span>,
    by_name: Vec<LatHist>,
    /// Per batch: time in the structure calls divided by its writes.
    pub batch_per_write: LatHist,
    /// Per batch: the `core.pin` span minus its child spans.
    pub pin_self: LatHist,
}

impl Trace {
    pub fn new(base: Instant) -> Trace {
        Trace {
            base,
            op: 0,
            kept: Vec::with_capacity(KEEP),
            by_name: vec![LatHist::default(); Name::COUNT],
            batch_per_write: LatHist::default(),
            pin_self: LatHist::default(),
        }
    }

    /// Starts the next op; the spans recorded until the next call share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Records `name` over `[start, end]` and returns its duration.
    pub fn span(&mut self, name: Name, parent: Option<Name>, start: Instant, end: Instant) -> u64 {
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        self.by_name[name as usize].record(dur_ns);
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                op: self.op,
                name,
                parent,
                start_ns: start.duration_since(self.base).as_nanos() as u64,
                dur_ns,
            });
        }
        dur_ns
    }

    pub fn merge(&mut self, other: &Trace) {
        for (a, b) in self.by_name.iter_mut().zip(&other.by_name) {
            a.merge(b);
        }
        self.batch_per_write.merge(&other.batch_per_write);
        self.pin_self.merge(&other.pin_self);
    }

    pub fn hist(&self, name: Name) -> &LatHist {
        &self.by_name[name as usize]
    }

    /// Kept spans as JSON lines, tagged with the thread index.
    pub fn write_jsonl(&self, thread: usize, out: &mut String) {
        for s in &self.kept {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{}\"", p.label()));
            let _ = writeln!(
                out,
                "{{\"thread\":{thread},\"op\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
                s.op,
                s.name.label(),
                s.start_ns,
                s.dur_ns
            );
        }
    }
}
