//! One measured pass: set-up, load, drain, oracle, and the numbers read
//! off the ledger, the wrapper's log, the spans and the public stats
//! getters.

use crate::pipeline::{now_ns, Ledger};
use crate::stats::{Summary, Windowed};
use crate::trace::KINDS;
use crate::workloads::{self as wl, Counts, Prepared, Workload, DRAIN_DEADLINE};
use prov_codec::frame::Envelope;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-ups per pass; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// p99 latency a ladder step must stay within to count as sustained.
pub const P99_LIMIT_MS: f64 = 250.0;
/// A commit gap this long with records outstanding is a stall.
const STALL_NS: u64 = 1_000_000_000;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample summary behind the number, when it is a timing.
    pub detail: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        detail: String::new(),
    }
}

/// A timing metric named `…_p50` or `…_p99` from its summary.
fn timing(name: &str, s: &Option<Summary>, unit: &'static str, pct: f64) -> Metric {
    let (value, detail) = match s {
        Some(s) if pct == 50.0 => (s.p50(), s.render(unit)),
        Some(s) => {
            let (q, v) = s.tail_at_most(pct);
            let note = if q < pct {
                format!("; tail is p{q}: too few samples for p{pct}")
            } else {
                String::new()
            };
            (v, format!("{}{note}", s.render(unit)))
        }
        None => (0.0, "no samples".to_owned()),
    };
    Metric {
        name: name.to_owned(),
        value,
        unit,
        detail,
    }
}

/// A gated timing: the median over time windows of each window's
/// percentile (see [`Windowed`]), with the whole run's summary alongside.
fn windowed(name: &str, samples: &[f64], unit: &'static str, pct: f64) -> Metric {
    let (value, detail) = match (Windowed::new(samples), Summary::new(samples.to_vec())) {
        (Some(w), Some(all)) => {
            let (used, value) = if pct == 50.0 {
                (pct, w.median_of(Summary::p50))
            } else {
                w.tail_at_most(pct)
            };
            let note = if used < pct {
                format!(", tail is p{used}: too few samples for p{pct}")
            } else {
                String::new()
            };
            let whole = all.render(unit);
            (
                value,
                format!("median of {} windows{note}; whole run {whole}", w.count()),
            )
        }
        _ => (0.0, "no samples".to_owned()),
    };
    Metric {
        name: name.to_owned(),
        value,
        unit,
        detail,
    }
}

/// End-to-end latencies (ms) of `slots`, ordered by due time.
fn in_due_order_ms(ledger: &Ledger, slots: Vec<usize>) -> Vec<f64> {
    let load = |a: &[std::sync::atomic::AtomicU64], i: usize| a[i].load(Ordering::Relaxed);
    let mut timed: Vec<(u64, u64)> = slots
        .into_iter()
        .filter(|&s| load(&ledger.committed, s) != 0)
        .map(|s| {
            let due = load(&ledger.due, s);
            (due, load(&ledger.committed, s).saturating_sub(due))
        })
        .collect();
    timed.sort_unstable();
    timed.into_iter().map(|(_, ns)| ns as f64 / 1e6).collect()
}

fn ms(ns: &[u64]) -> Option<Summary> {
    Summary::new(ns.iter().map(|&v| v as f64 / 1e6).collect())
}

fn us(ns: &[u64]) -> Option<Summary> {
    Summary::new(ns.iter().map(|&v| v as f64 / 1e3).collect())
}

/// One ladder step's result.
pub struct Step {
    pub rate: f64,
    pub records: usize,
    pub latency: Option<Summary>,
    pub delivered_rps: f64,
    pub growing_backlog: bool,
    pub passed: bool,
}

/// Everything one pass measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub steps: Vec<Step>,
    pub late_ms: Option<Summary>,
    pub attempted: u64,
    pub failed: u64,
    pub oracle: Vec<String>,
    pub spans: usize,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one pass of `w`.
pub fn pass(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let prepared = wl::prepare(w, seed, seconds, traced)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(prepared) {
            old.stack.shutdown();
        }
    }
    let mut p = kept.expect("SETUP_REPS > 0");

    let mut g = match w {
        Workload::EdgeTable1 => wl::edge_table1(&mut p, seed, seconds),
        Workload::FleetGrouped => wl::fleet_grouped(&mut p, seed),
        Workload::MonitorMixed => wl::monitor_mixed(&mut p, seed, seconds),
    };
    let drained = wl::wait_for_commits(&p.ledger, g.end_ns + DRAIN_DEADLINE.as_nanos() as u64);
    let drain_end = now_ns();

    // Oracle queries over the drained store (the monitor's ran live).
    if g.queries.is_empty() {
        let specs = match w {
            Workload::EdgeTable1 => wl::edge_queries(seed, g.workflows.len() as u64),
            _ => wl::fleet_queries(seed, wl::tasks_of(&p.per_device)),
        };
        for (i, q) in specs.iter().enumerate() {
            let run = wl::run_query(
                &p.stack.store,
                q,
                u64::MAX,
                p.tracer.as_deref(),
                i as u64,
                &mut g.page_ns,
            );
            g.queries.push(run);
        }
    }

    let ledger = &p.ledger;
    let mut expect = p.expect;
    expect.records += g.expect.records;
    expect.tasks += g.expect.tasks;
    expect.data += g.expect.data;
    expect.lineage_edges += g.expect.lineage_edges;
    let store = p.stack.store.stats();
    let got = Counts {
        records: store.records,
        tasks: store.tasks,
        data: store.data,
        lineage_edges: store.lineage_edges,
    };
    let broker = p.stack.server.broker_stats();
    let server = p.stack.server.stats();
    let tx = wl::transmitter_totals(&p.stack.clients);

    // ---- oracle and failure accounting
    let sent = ledger.sent.load(Ordering::Relaxed);
    let commits = ledger.commits();
    let undelivered = sent.saturating_sub(commits);
    let duplicates = ledger.duplicates.load(Ordering::Relaxed);
    let strays = ledger.strays.load(Ordering::Relaxed);
    let bad_queries = g.queries.iter().filter(|q| !q.ok).count() as u64;
    let mismatched = [
        got.records != expect.records,
        got.tasks != expect.tasks,
        got.data != expect.data,
        got.lineage_edges != expect.lineage_edges,
    ]
    .iter()
    .filter(|&&m| m)
    .count() as u64;
    let attempted = p.calls.attempted + g.queries.len() as u64;
    let failed = undelivered
        + p.calls.errors
        + bad_queries
        + duplicates
        + strays
        + server.decode_errors
        + mismatched;
    let oracle = vec![
        format!(
            "store records={} tasks={} data={} lineage_edges={}; generator expects records={} tasks={} data={} lineage_edges={}: {}",
            got.records, got.tasks, got.data, got.lineage_edges,
            expect.records, expect.tasks, expect.data, expect.lineage_edges,
            if mismatched == 0 { "equal" } else { "MISMATCH" }
        ),
        format!(
            "records accepted={sent} committed={commits} undelivered={undelivered} duplicates={duplicates} unknown={strays} capture_errors={} decode_errors={} drained_by_deadline={drained}",
            p.calls.errors, server.decode_errors
        ),
        format!(
            "queries={} wrong_or_failed={bad_queries} (hit counts against the generator's DAG closures)",
            g.queries.len()
        ),
    ];

    // ---- per-record latencies from the ledger
    let load = |a: &[std::sync::atomic::AtomicU64], i: usize| a[i].load(Ordering::Relaxed);
    let measured: Vec<usize> = (0..ledger.slots())
        .filter(|&s| load(&ledger.returned, s) >= g.start_ns)
        .collect();
    let transit: Vec<u64> = measured
        .iter()
        .filter(|&&s| load(&ledger.entered, s) != 0)
        .map(|&s| load(&ledger.entered, s).saturating_sub(load(&ledger.returned, s)))
        .collect();

    let steps: Vec<Step> = g
        .steps
        .iter()
        .map(|(rate, slots)| step(ledger, *rate, slots))
        .collect();
    let sustained = steps.iter().rev().find(|s| s.passed);
    // The fleet's latency is read on the steps below the top one, where
    // the host keeps up; the top step is reported in its own row and in
    // the stall count, since whether a retransmission stall lands in it
    // varies from run to run.
    let e2e = match w {
        Workload::FleetGrouped => {
            let below_top = g.steps.len().saturating_sub(1);
            g.steps[..below_top]
                .iter()
                .flat_map(|(_, s)| s.iter().copied())
                .collect()
        }
        _ => measured.clone(),
    };
    let e2e = in_due_order_ms(ledger, e2e);
    let sustained_rps = match w {
        Workload::EdgeTable1 => {
            let first = measured.iter().map(|&s| load(&ledger.returned, s)).min();
            let last = measured.iter().map(|&s| load(&ledger.committed, s)).max();
            match (first, last) {
                (Some(a), Some(b)) if b > a => measured.len() as f64 / ((b - a) as f64 / 1e9),
                _ => 0.0,
            }
        }
        _ => sustained.map_or(0.0, |s| s.delivered_rps),
    };
    // Capture cost per record: the median workflow's (its flush included)
    // for the closed loop; the median capture call for the open loops,
    // whose mean swings with whether the transmitter's wake-up preempts
    // the caller (their final flushes are reported as `transmitter.flush`).
    let capture_us_per_record = match w {
        Workload::EdgeTable1 => Summary::new(g.workflows.iter().map(|w| w.0).collect())
            .map_or(0.0, |s| {
                s.p50() * 1e3 / wl::EDGE_RECORDS_PER_WORKFLOW as f64
            }),
        _ => {
            let calls: Vec<f64> = p.calls.api_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            Windowed::new(&calls).map_or(0.0, |w| w.median_of(Summary::p50))
        }
    };

    // Capture overhead: capture time per task over one task body's time,
    // both taken in this run on the device core, so the host's speed of
    // the moment cancels out. `edge_table1` divides its workflows' capture
    // time by their task bodies'; the open loops, which have no task body,
    // take a task's two median capture calls over the median of the
    // reference bodies run during set-up.
    let capture_overhead_pct = match w {
        Workload::EdgeTable1 => {
            let capture: f64 = g.workflows.iter().map(|w| w.0).sum();
            let compute: f64 = g.workflows.iter().map(|w| w.1).sum();
            100.0 * capture / compute
        }
        _ => {
            let body_us = Summary::new(p.reference_ns.iter().map(|&ns| ns as f64 / 1e3).collect())
                .map_or(f64::NAN, |s| s.p50());
            100.0 * 2.0 * capture_us_per_record / body_us
        }
    };

    let stalls = stalls(ledger, drain_end);
    let records = g.records.max(1) as f64;
    let query_ms: Vec<f64> = g
        .queries
        .iter()
        .map(|q| q.latency_ns as f64 / 1e6)
        .collect();

    let mut end_to_end = vec![
        metric(
            "setup_s",
            Summary::new(setup_s.clone()).map_or(0.0, |s| s.p50()),
            "s",
        ),
        metric("capture_overhead_pct", capture_overhead_pct, "%"),
        metric("capture_us_per_record", capture_us_per_record, "us"),
        windowed("e2e_latency_ms_p50", &e2e, "ms", 50.0),
        windowed("e2e_latency_ms_p99", &e2e, "ms", 99.0),
        metric("sustained_rps", sustained_rps, "1/s"),
        windowed("query_ms_p50", &query_ms, "ms", 50.0),
        windowed("query_ms_p99", &query_ms, "ms", 99.0),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    if !g.workflows.is_empty() {
        let per_wf = Summary::new(g.workflows.iter().map(|w| w.0).collect());
        end_to_end.push(timing("capture_ms_per_workflow", &per_wf, "ms", 50.0));
    }
    end_to_end.push(metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));

    // ---- per-layer
    let translator = p.stack.translator.lock();
    let log = &translator.log;
    let window_ns = (drain_end - g.start_ns).max(1) as f64;
    let commit_total: u64 = log.commit_ns.iter().sum();
    let pages: u64 = g.queries.iter().map(|q| q.pages).sum();
    let steps_eval: u64 = g.queries.iter().map(|q| q.steps).sum();
    let nq = g.queries.len().max(1) as f64;
    let mut per_layer = vec![
        timing("api.call_us_p50", &us(&p.calls.api_ns), "us", 50.0),
        timing("api.call_us_p99", &us(&p.calls.api_ns), "us", 99.0),
        metric("api.calls", p.calls.api_ns.len() as f64, "count"),
        timing(
            "transmitter.flush_ms_p50",
            &ms(&p.calls.flush_ns),
            "ms",
            50.0,
        ),
        timing(
            "transmitter.flush_ms_p99",
            &ms(&p.calls.flush_ns),
            "ms",
            99.0,
        ),
        metric(
            "transmitter.envelopes_per_record",
            broker.publishes_in as f64 / records,
            "ratio",
        ),
        metric(
            "transmitter.publish_failures",
            tx.publish_failures as f64,
            "count",
        ),
        metric("transmitter.paced_sends", tx.paced_sends as f64, "count"),
        metric(
            "transmitter.congestion_signals",
            tx.congestion_signals as f64,
            "count",
        ),
        metric(
            "transmitter.records_dropped",
            tx.records_dropped as f64,
            "count",
        ),
        metric(
            "transmitter.buffered_high_water",
            tx.buffered_high_water as f64,
            "count",
        ),
        metric(
            "gateway.retransmissions",
            broker.retransmissions as f64,
            "count",
        ),
        metric(
            "gateway.duplicates_suppressed",
            broker.duplicates_suppressed as f64,
            "count",
        ),
        metric(
            "gateway.useful_ratio",
            broker
                .publishes_in
                .saturating_sub(broker.duplicates_suppressed) as f64
                / (broker.publishes_in + broker.retransmissions).max(1) as f64,
            "ratio",
        ),
        metric(
            "gateway.backlog_high_water",
            broker.backlog_high_water as f64,
            "count",
        ),
        metric(
            "gateway.congestion_rejects",
            broker.congestion_rejects as f64,
            "count",
        ),
        timing("transit_ms_p50", &ms(&transit), "ms", 50.0),
        timing("transit_ms_p99", &ms(&transit), "ms", 99.0),
        timing("translator.commit_us_p50", &us(&log.commit_ns), "us", 50.0),
        timing("translator.commit_us_p99", &us(&log.commit_ns), "us", 99.0),
        metric(
            "translator.records_per_envelope",
            log.records as f64 / log.envelopes.max(1) as f64,
            "ratio",
        ),
        metric(
            "translator.busy_frac",
            commit_total as f64 / window_ns,
            "ratio",
        ),
        metric(
            "store.commit_us_per_record",
            commit_total as f64 / 1e3 / log.records.max(1) as f64,
            "us",
        ),
        metric("store.lineage_edges", store.lineage_edges as f64, "count"),
        timing("query.page_us_p50", &us(&g.page_ns), "us", 50.0),
        timing("query.page_us_p99", &us(&g.page_ns), "us", 99.0),
        metric("query.steps_per_query", steps_eval as f64 / nq, "count"),
        metric("query.pages_per_query", pages as f64 / nq, "count"),
        metric("pipeline.stalls_over_1s", stalls as f64, "count"),
        timing("loadgen.late_ms_p99", &ms(&p.calls.late_ns), "ms", 99.0),
    ];

    // ---- codec, on the run's own envelopes (traced pass only)
    let mut spans = 0;
    if let Some(tracer) = &p.tracer {
        let (mut bytes, mut recs, mut enc, mut dec) = (0usize, 0usize, 0u64, 0u64);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for env in &log.sample {
            buf.clear();
            let t0 = now_ns();
            Envelope::encode_into(env, true, &mut buf);
            let t1 = now_ns();
            let ok = Envelope::decode_into(&buf, &mut out).is_ok() && out == *env;
            let t2 = now_ns();
            if !ok {
                return Err("codec round trip of a captured envelope failed".into());
            }
            bytes += buf.len();
            recs += env.len();
            enc += t1 - t0;
            dec += t2 - t1;
        }
        let envs = log.sample.len().max(1) as f64;
        per_layer.push(metric(
            "codec.bytes_per_record",
            bytes as f64 / recs.max(1) as f64,
            "B",
        ));
        per_layer.push(metric(
            "codec.encode_us_per_envelope",
            enc as f64 / 1e3 / envs,
            "us",
        ));
        per_layer.push(metric(
            "codec.decode_us_per_envelope",
            dec as f64 / 1e3 / envs,
            "us",
        ));
        for (kind, (self_ns, _)) in KINDS.iter().zip(tracer.self_times()) {
            per_layer.push(metric(
                &format!("self_ms.{}", kind.name()),
                self_ns as f64 / 1e6,
                "ms",
            ));
        }
        spans = tracer.len();
        per_layer.push(metric("trace.spans", spans as f64, "count"));
        per_layer.push(metric(
            "trace.spans_overflowed",
            tracer.overflowed() as f64,
            "count",
        ));
    }
    drop(translator);
    if let Some(t) = &p.tracer {
        let path =
            std::path::Path::new("e2ebench-out").join(format!("trace-{}-seed{seed}.tsv", w.name()));
        t.write_to(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    p.stack.shutdown();
    Ok(Outcome {
        setup_s,
        end_to_end,
        per_layer,
        steps,
        late_ms: ms(&p.calls.late_ns),
        attempted,
        failed,
        oracle,
        spans,
    })
}

/// A ladder step: latency from due time, delivered rate, backlog trend.
fn step(ledger: &Ledger, rate: f64, slots: &[usize]) -> Step {
    let load = |a: &[std::sync::atomic::AtomicU64], i: usize| a[i].load(Ordering::Relaxed);
    let latency = Summary::new(in_due_order_ms(ledger, slots.to_vec()));
    let all_committed = slots.iter().all(|&s| load(&ledger.committed, s) != 0);
    let first = slots
        .iter()
        .map(|&s| load(&ledger.due, s))
        .min()
        .unwrap_or(0);
    let last_due = slots
        .iter()
        .map(|&s| load(&ledger.due, s))
        .max()
        .unwrap_or(0);
    // Goodput: records committed within the latency limit of their due
    // time, per second from the step's first due time to the last of
    // those commits.
    let limit_ns = (P99_LIMIT_MS * 1e6) as u64;
    let in_time: Vec<u64> = slots
        .iter()
        .map(|&s| (load(&ledger.due, s), load(&ledger.committed, s)))
        .filter(|&(d, c)| c != 0 && c.saturating_sub(d) <= limit_ns)
        .map(|(_, c)| c)
        .collect();
    let delivered_rps = match in_time.iter().max() {
        Some(&last) if last > first => in_time.len() as f64 / ((last - first) as f64 / 1e9),
        _ => 0.0,
    };
    // Backlog: records due but not yet committed, at mid-step and at the
    // step's last due time. Growth beyond 50 ms of offered load (or four
    // 64-record groups) means the step is not sustained.
    let outstanding = |t: u64| {
        slots
            .iter()
            .filter(|&&s| {
                let c = load(&ledger.committed, s);
                load(&ledger.due, s) <= t && (c == 0 || c > t)
            })
            .count() as f64
    };
    let mid = first + (last_due - first) / 2;
    let growing_backlog = outstanding(last_due) - outstanding(mid) > (rate * 0.05).max(256.0);
    let within = latency
        .as_ref()
        .is_some_and(|l| l.tail_at_most(99.0).1 <= P99_LIMIT_MS);
    Step {
        rate,
        records: slots.len(),
        latency,
        delivered_rps,
        growing_backlog,
        passed: all_committed && within && !growing_backlog,
    }
}

/// Gaps of more than a second between commits while records are
/// outstanding, up to the end of the drain.
fn stalls(ledger: &Ledger, drain_end: u64) -> u64 {
    let load = |a: &[std::sync::atomic::AtomicU64], i: usize| a[i].load(Ordering::Relaxed);
    let mut events: Vec<(u64, i64)> = Vec::new();
    for s in 0..ledger.slots() {
        let r = load(&ledger.returned, s);
        if r == 0 {
            continue;
        }
        events.push((r, 1));
        let c = load(&ledger.committed, s);
        if c != 0 {
            events.push((c, -1));
        }
    }
    events.sort_unstable();
    let (mut outstanding, mut progress, mut stalls) = (0i64, 0u64, 0u64);
    for (t, delta) in events {
        if delta < 0 {
            if outstanding > 0 && t - progress > STALL_NS {
                stalls += 1;
            }
            progress = t;
        } else if outstanding <= 0 {
            progress = t;
        }
        outstanding += delta;
    }
    if outstanding > 0 && drain_end.saturating_sub(progress) > STALL_NS {
        stalls += 1;
    }
    stalls
}
