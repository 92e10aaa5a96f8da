//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer: a name, start, end, the span that caused it, and one id
//! shared by every span of a record (its ledger slot) or query. They live
//! in one preallocated table filled lock-free from any thread and are
//! written out when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Span names, one per layer boundary the benchmark can see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One workflow on the device thread (`edge_table1`).
    Workflow = 0,
    /// The synthetic task body, outside capture.
    TaskBody = 1,
    /// One record-submitting capture call (`begin`/`end` of a task or
    /// `Workflow::begin`).
    ApiCall = 2,
    /// `Workflow::end`: one submit plus the transmitter flush it waits on.
    Flush = 3,
    /// From a capture call's return to the translator wrapper's entry.
    Transit = 4,
    /// The wrapped `DfAnalyzerTranslator::on_records` (decode happened
    /// before; this is routing plus store commit).
    Commit = 5,
    /// One whole lineage query.
    Query = 6,
    /// `ShardedStore::open_cursor`.
    QueryOpen = 7,
    /// One `ShardedStore::next_page`.
    QueryPage = 8,
}

/// Every kind, in table order.
pub const KINDS: [Kind; 9] = [
    Kind::Workflow,
    Kind::TaskBody,
    Kind::ApiCall,
    Kind::Flush,
    Kind::Transit,
    Kind::Commit,
    Kind::Query,
    Kind::QueryOpen,
    Kind::QueryPage,
];

impl Kind {
    /// The span name used in metric names and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Workflow => "workflow",
            Kind::TaskBody => "task.body",
            Kind::ApiCall => "api.call",
            Kind::Flush => "transmitter.flush",
            Kind::Transit => "transit",
            Kind::Commit => "translator.commit",
            Kind::Query => "query",
            Kind::QueryOpen => "query.open",
            Kind::QueryPage => "query.page",
        }
    }
}

/// Parent value meaning "no parent".
pub const ROOT: u32 = u32::MAX;

struct Slot {
    kind: AtomicU32,
    parent: AtomicU32,
    id: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// A fixed-capacity span table.
pub struct Tracer {
    slots: Box<[Slot]>,
    next: AtomicUsize,
}

impl Tracer {
    /// A table holding up to `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            slots: (0..capacity)
                .map(|_| Slot {
                    kind: AtomicU32::new(0),
                    parent: AtomicU32::new(ROOT),
                    id: AtomicU64::new(0),
                    start: AtomicU64::new(0),
                    end: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Records a span and returns its index, or [`ROOT`] once the table is
    /// full (later spans are counted in [`Tracer::overflowed`]).
    pub fn record(&self, kind: Kind, id: u64, parent: u32, start: u64, end: u64) -> u32 {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(i) else {
            return ROOT;
        };
        slot.kind.store(kind as u32, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.start.store(start, Ordering::Relaxed);
        slot.end.store(end, Ordering::Relaxed);
        i as u32
    }

    /// Sets the end of span `i` (a span opened before its end was known).
    pub fn set_end(&self, i: u32, end: u64) {
        if let Some(slot) = self.slots.get(i as usize) {
            slot.end.store(end, Ordering::Relaxed);
        }
    }

    /// Spans recorded (up to capacity).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Spans that did not fit.
    pub fn overflowed(&self) -> usize {
        self.next
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len())
    }

    fn span(&self, i: usize) -> (usize, u32, u64, u64, u64) {
        let s = &self.slots[i];
        (
            s.kind.load(Ordering::Relaxed) as usize,
            s.parent.load(Ordering::Relaxed),
            s.id.load(Ordering::Relaxed),
            s.start.load(Ordering::Relaxed),
            s.end.load(Ordering::Relaxed),
        )
    }

    /// Total self time (ns) and span count per kind, indexed like
    /// [`KINDS`]. A span's self time is its duration minus the part of it
    /// that its child spans cover.
    pub fn self_times(&self) -> [(u64, u64); KINDS.len()] {
        let n = self.len();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for i in 0..n {
            let (_, parent, _, start, end) = self.span(i);
            if let Some(c) = children.get_mut(parent as usize) {
                c.push((start, end));
            }
        }
        let mut out = [(0u64, 0u64); KINDS.len()];
        for (i, kids) in children.iter_mut().enumerate() {
            let (kind, _, _, start, end) = self.span(i);
            let covered = covered(start, end, kids);
            out[kind].0 += end.saturating_sub(start).saturating_sub(covered);
            out[kind].1 += 1;
        }
        out
    }

    /// Writes the table as tab-separated lines
    /// `index kind id parent start_ns end_ns` (parent `-` for roots).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tkind\tid\tparent\tstart_ns\tend_ns")?;
        for i in 0..self.len() {
            let (kind, parent, id, start, end) = self.span(i);
            let parent = if parent == ROOT {
                "-".to_owned()
            } else {
                parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{id}\t{parent}\t{start}\t{end}",
                KINDS[kind].name()
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `kids` intervals clipped to `[start, end]`.
fn covered(start: u64, end: u64, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let t = Tracer::new(8);
        let root = t.record(Kind::Workflow, 1, ROOT, 0, 100);
        t.record(Kind::TaskBody, 1, root, 10, 40);
        t.record(Kind::ApiCall, 1, root, 30, 50); // overlaps the body
        t.record(Kind::Transit, 1, root, 90, 150); // runs past the parent
        let st = t.self_times();
        assert_eq!(st[Kind::Workflow as usize], (100 - 40 - 10, 1));
        assert_eq!(st[Kind::TaskBody as usize], (30, 1));
        assert_eq!(st[Kind::Transit as usize], (60, 1));
    }

    #[test]
    fn full_table_counts_overflow() {
        let t = Tracer::new(1);
        assert_eq!(t.record(Kind::ApiCall, 0, ROOT, 0, 1), 0);
        assert_eq!(t.record(Kind::ApiCall, 0, ROOT, 0, 1), ROOT);
        assert_eq!((t.len(), t.overflowed()), (1, 1));
    }
}
