//! Capture hot-path throughput: records/sec and bytes/record for the
//! per-record allocating path, the grouped allocating path, and the
//! grouped + coalesced `encode_into` path with full buffer reuse.
//!
//! Writes `BENCH_hotpath.json` at the repository root so the perf
//! trajectory is tracked across PRs. Reps come from `PROVLIGHT_REPS`
//! (default 10); each reported number is the best rep (min wall time).

use prov_codec::frame::Envelope;
use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight_core::config::GroupPolicy;
use provlight_core::grouping::{Emit, Grouper};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const ATTRS: usize = 25;
const GROUP: usize = 50;

fn record(i: u64) -> Record {
    let mut d = DataRecord::new(i, 1u64).with_attr("kind", "sensor-frame");
    for a in 0..ATTRS {
        d = d.with_attr(format!("attr_{a}"), a as i64 * 3);
    }
    Record::TaskEnd {
        task: TaskRecord {
            id: Id::Num(i),
            workflow: Id::Num(1),
            transformation: Id::Num(7),
            dependencies: vec![Id::Num(i.saturating_sub(1))],
            time_ns: i * 1_000,
            status: TaskStatus::Finished,
        },
        outputs: vec![d],
    }
}

struct PathResult {
    records_per_sec: f64,
    bytes_per_record: f64,
}

/// One envelope encoded into a fresh output buffer, as an application
/// without buffer reuse would.
fn encode_fresh(records: &[Record]) -> usize {
    let mut wire = Vec::new();
    Envelope::encode_into(records, true, &mut wire);
    wire.len()
}

/// Per-record allocating path: every record becomes its own envelope in a
/// fresh output buffer.
fn immediate_alloc(records: &[Record]) -> usize {
    records
        .iter()
        .map(std::slice::from_ref)
        .map(encode_fresh)
        .sum()
}

/// Grouped but still allocating: one envelope per GROUP records, each in a
/// fresh output buffer.
fn grouped_alloc(records: &[Record]) -> usize {
    records.chunks(GROUP).map(encode_fresh).sum()
}

/// The new hot path: grouper with buffer recycling feeding
/// `Envelope::encode_into` over a reused wire buffer — zero allocations per
/// record in steady state. Records cycle through a pool exactly like the
/// transmitter pipeline moves them.
fn coalesced_encode_into(pool: &mut VecDeque<Record>, n: usize) -> usize {
    let mut grouper = Grouper::new(GroupPolicy::Grouped { size: GROUP });
    let mut wire = Vec::new();
    let mut bytes = 0;
    for _ in 0..n {
        let r = pool.pop_front().expect("pool primed");
        match grouper.push(r) {
            Emit::Nothing => {}
            Emit::Passthrough(r) => {
                wire.clear();
                Envelope::encode_into(std::slice::from_ref(&r), true, &mut wire);
                bytes += wire.len();
                pool.push_back(r);
            }
            Emit::Group(mut batch) => {
                wire.clear();
                Envelope::encode_into(&batch, true, &mut wire);
                bytes += wire.len();
                for r in batch.drain(..) {
                    pool.push_back(r);
                }
                grouper.recycle(batch);
            }
        }
    }
    if let Some(batch) = grouper.flush() {
        wire.clear();
        Envelope::encode_into(&batch, true, &mut wire);
        bytes += wire.len();
        for r in batch {
            pool.push_back(r);
        }
    }
    bytes
}

fn json_path(name: &str, r: &PathResult) -> String {
    format!(
        "    \"{name}\": {{ \"records_per_sec\": {:.0}, \"bytes_per_record\": {:.2} }}",
        r.records_per_sec, r.bytes_per_record
    )
}

fn main() {
    let reps = provlight_bench::reps().max(1);
    // Scale the stream down for smoke runs (PROVLIGHT_REPS=1 in CI).
    let n_records: usize = if reps <= 1 { 20_000 } else { 100_000 };
    let records: Vec<Record> = (0..n_records as u64).map(record).collect();

    println!("capture_hot_path: {n_records} records x {ATTRS} attrs, group={GROUP}, reps={reps}");

    // Paths run interleaved within each rep so slow phases of a noisy
    // machine hit all three equally; best rep per path is reported. Rep 0
    // is an unrecorded warmup (page-in, branch predictors, scratch sizing).
    let mut pool: VecDeque<Record> = records.iter().cloned().collect();
    let mut best = [f64::INFINITY; 3];
    let mut bytes = [0usize; 3];
    for rep in 0..reps + 1 {
        let runs: [&mut dyn FnMut() -> usize; 3] = [
            &mut || immediate_alloc(&records),
            &mut || grouped_alloc(&records),
            &mut || coalesced_encode_into(&mut pool, n_records),
        ];
        for (slot, run) in runs.into_iter().enumerate() {
            let start = Instant::now();
            bytes[slot] = black_box(run());
            if rep > 0 {
                best[slot] = best[slot].min(start.elapsed().as_secs_f64());
            }
        }
    }
    let result = |slot: usize| PathResult {
        records_per_sec: n_records as f64 / best[slot],
        bytes_per_record: bytes[slot] as f64 / n_records as f64,
    };
    let (immediate, grouped, coalesced) = (result(0), result(1), result(2));
    println!(
        "  immediate_alloc        {:>12.0} rec/s  {:>8.2} B/rec",
        immediate.records_per_sec, immediate.bytes_per_record
    );
    println!(
        "  grouped_alloc          {:>12.0} rec/s  {:>8.2} B/rec",
        grouped.records_per_sec, grouped.bytes_per_record
    );
    println!(
        "  coalesced_encode_into  {:>12.0} rec/s  {:>8.2} B/rec",
        coalesced.records_per_sec, coalesced.bytes_per_record
    );

    let speedup = coalesced.records_per_sec / immediate.records_per_sec;
    println!("  speedup (coalesced encode_into vs per-record alloc): {speedup:.2}x");

    let json = format!(
        "{{\n  \"bench\": \"capture_hot_path\",\n  \"records\": {n_records},\n  \
         \"attrs_per_record\": {ATTRS},\n  \"group_size\": {GROUP},\n  \"reps\": {reps},\n  \
         \"paths\": {{\n{},\n{},\n{}\n  }},\n  \
         \"speedup_coalesced_vs_immediate\": {speedup:.2}\n}}\n",
        json_path("immediate_alloc", &immediate),
        json_path("grouped_alloc", &grouped),
        json_path("coalesced_encode_into", &coalesced),
    );
    // The other hot-path benches own the file's remaining sections; carry
    // them over so the benches extend one tracked file without clobbering
    // each other (ROADMAP: extend, don't replace).
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let old = std::fs::read_to_string(out_path).unwrap_or_default();
    let mut json = json;
    for key in ["ingest", "broker", "query", "sharded_fanout"] {
        if let Some(section) = provlight_bench::bench_json::extract_section(&old, key) {
            json = provlight_bench::bench_json::upsert_section(&json, key, &section);
        }
    }
    std::fs::write(out_path, &json).expect("write BENCH_hotpath.json");
    println!("  wrote {out_path}");

    // Full runs enforce the 2x acceptance criterion; single-rep smoke runs
    // (PROVLIGHT_REPS=1 in CI) have no best-of-reps noise rejection, so they
    // gate on a relaxed floor instead of flaking on a noisy runner.
    let floor = if reps >= 2 { 2.0 } else { 1.5 };
    assert!(
        speedup >= floor,
        "encode-into + coalesced path must be >= {floor}x the per-record allocating path \
         (reps={reps}), got {speedup:.2}x"
    );
}
