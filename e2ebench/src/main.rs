//! `e2ebench` — the end-to-end capture→queryable benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <edge_table1|fleet_grouped|monitor_mixed> --seed N \
//!     --seconds S --trace <0|1>
//! ```
//!
//! Drives the shipped pipeline in one process over loopback UDP through
//! public entry points only, checks the store against the generator's own
//! counts, prints every metric with its unit, and ends with one JSON line.
//! See `e2ebench/README.md` for the workload → layer → metric map.

mod measure;
mod pipeline;
mod placement;
mod stats;
mod trace;
mod workloads;

use measure::{Metric, Outcome};
use workloads::{Workload, DRAIN_DEADLINE, FLEET_LADDER, MONITOR_QUERY_RATE, MONITOR_RATE};

/// End-to-end metrics in the result line (every workload reports each).
/// End-to-end metrics in the result line: those every workload reports
/// that hold within a usable bound from run to run on a shared 2-core
/// host. Latencies, query times and the ladder's sustained rate are
/// printed but left out (see README.md).
const END_TO_END: [&str; 3] = ["setup_s", "capture_overhead_pct", "peak_rss_mb"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <edge_table1|fleet_grouped|monitor_mixed> --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_metric(m: &Metric) {
    let detail = if m.detail.is_empty() {
        String::new()
    } else {
        format!("  [{}]", m.detail)
    };
    println!(
        "  {} = {:.6} {} (measured){detail}",
        m.name, m.value, m.unit
    );
}

fn print_pass(label: &str, o: &Outcome, args: &Args) {
    println!("{label} pass:");
    let late = o
        .late_ms
        .as_ref()
        .map_or("n/a (closed loop)".to_owned(), |s| {
            format!(
                "{:.4} ms (measured; {})",
                s.tail_at_most(99.0).1,
                s.render("ms")
            )
        });
    println!("  loadgen.late_ms_p99 = {late}");
    println!(
        "  setup_s samples = {:?} (measured; median reported)",
        o.setup_s
    );
    for st in &o.steps {
        let lat = st
            .latency
            .as_ref()
            .map_or("no samples".to_owned(), |s| s.render("ms"));
        println!(
            "  step offered={:.0} rec/s records={} delivered={:.1} rec/s e2e[{lat}] growing_backlog={} sustained={} (measured)",
            st.rate, st.records, st.delivered_rps, st.growing_backlog, st.passed
        );
    }
    for m in &o.end_to_end {
        print_metric(m);
    }
    if args.trace {
        for m in &o.per_layer {
            print_metric(m);
        }
    } else {
        // The stall indicators are shown on every run, traced or not.
        for name in ["gateway.retransmissions", "pipeline.stalls_over_1s"] {
            if let Some(m) = o.per_layer.iter().find(|m| m.name == name) {
                print_metric(m);
            }
        }
    }
    for line in &o.oracle {
        println!("  oracle: {line}");
    }
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rates = match args.workload {
        Workload::EdgeTable1 => "closed loop (one device, back-to-back workflows)".to_owned(),
        Workload::FleetGrouped => {
            format!("open loop ladder {FLEET_LADDER:?} records/s over 2 devices")
        }
        Workload::MonitorMixed => {
            format!("open loop {MONITOR_RATE} records/s + {MONITOR_QUERY_RATE} queries/s")
        }
    };
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={} placement=({}) transport=loopback UDP offered={rates} drain_deadline={}s p99_limit={}ms",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        placement::get().describe(),
        DRAIN_DEADLINE.as_secs(),
        measure::P99_LIMIT_MS,
    );

    let run = || -> Result<(Outcome, Option<Outcome>), String> {
        let plain = measure::pass(args.workload, args.seed, args.seconds, false)?;
        let traced = if args.trace {
            Some(measure::pass(args.workload, args.seed, args.seconds, true)?)
        } else {
            None
        };
        Ok((plain, traced))
    };
    let (plain, traced) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    print_pass("untraced", &plain, &args);
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match &traced {
        None => {
            for name in END_TO_END {
                let m = plain
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .expect("every end-to-end metric is measured");
                metrics.push((m.name.clone(), m.value, m.unit));
            }
        }
        Some(t) => {
            print_pass("traced", t, &args);
            attempted += t.attempted;
            failed += t.failed;
            for m in &t.per_layer {
                metrics.push((m.name.clone(), m.value, m.unit));
            }
            // Tracing overhead: the traced pass against the untraced one.
            for (name, of) in [
                ("trace.overhead_capture_pct", "capture_us_per_record"),
                ("trace.overhead_e2e_p50_pct", "e2e_latency_ms_p50"),
            ] {
                let (a, b) = (plain.get(of).unwrap_or(0.0), t.get(of).unwrap_or(0.0));
                let pct = if a > 0.0 { 100.0 * (b - a) / a } else { 0.0 };
                println!("  {name} = {pct:.3} % (measured; {of} {a:.4} untraced vs {b:.4} traced)");
                metrics.push((name.to_owned(), pct, "%"));
            }
            println!(
                "  trace: {} spans written to e2ebench-out/trace-{}-seed{}.tsv",
                t.spans,
                args.workload.name(),
                args.seed
            );
        }
    }
    let correct = failed == 0;
    println!(
        "result: correct={correct} attempted={attempted} failed={failed} failed_frac={:.6} (measured)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
