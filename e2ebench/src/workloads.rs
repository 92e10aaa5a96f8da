//! The three workloads: inputs made from the seed, the generators that
//! drive the capture API, and the oracle's expected store contents and
//! query answers.

use crate::pipeline::{now_ns, Ledger, Stack, WorkflowSlots};
use crate::trace::{Kind, Tracer, ROOT};
use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use prov_store::query::{CursorOpts, Path, SnapshotMode};
use prov_store::ShardedStore;
use provlight_core::{CaptureConfig, CaptureError, GroupPolicy, ProvLightClient, Task, Workflow};
use std::sync::Arc;
use std::time::Duration;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["edge_table1", "fleet_grouped", "monitor_mixed"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EdgeTable1,
    FleetGrouped,
    MonitorMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "edge_table1" => Some(Workload::EdgeTable1),
            "fleet_grouped" => Some(Workload::FleetGrouped),
            "monitor_mixed" => Some(Workload::MonitorMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeTable1 => WORKLOADS[0],
            Workload::FleetGrouped => WORKLOADS[1],
            Workload::MonitorMixed => WORKLOADS[2],
        }
    }
}

// ---- edge_table1: Table I-shaped workflows on one device (closed loop).
/// Chained transformations per workflow.
const EDGE_TRANSFORMATIONS: u64 = 5;
/// Tasks per transformation.
const EDGE_TASKS: u64 = 20;
/// Records per workflow: begin, a begin and an end per task, end.
pub const EDGE_RECORDS_PER_WORKFLOW: u64 = 2 + 2 * EDGE_TRANSFORMATIONS * EDGE_TASKS;
/// Random float attributes per task input.
const EDGE_ATTRS: usize = 100;
/// Iterations of the fixed CPU-bound task body (about 1 ms).
const TASK_BODY_ITERS: u32 = 300_000;
/// Task bodies each set-up runs on the device core as the yardstick for
/// the open loops' capture overhead, which have no task body of their own.
const REFERENCE_BODIES: u64 = 20;
/// Upper bound on workflows per second, which sizes the ledger.
const EDGE_MAX_WORKFLOWS_PER_S: f64 = 40.0;

// ---- fleet_grouped: two devices, open loop over a rate ladder.
/// Offered record rates (records/s over both devices), lowest first; each
/// step gets an equal share of the run. On a 2-core host the top step sits
/// past the point where coalesced envelopes start to be lost on loopback
/// and wait out MQTT-SN retransmission rounds, yet still drains well
/// inside [`DRAIN_DEADLINE`]; at twice its rate the backlog grows without
/// bound and records are still missing a minute later.
pub const FLEET_LADDER: [f64; 4] = [8_000.0, 16_000.0, 32_000.0, 64_000.0];
/// Records per message under `GroupPolicy::Grouped`.
const FLEET_GROUP: usize = 64;
/// Attributes per data item (fleet and monitor).
const SMALL_ATTRS: usize = 10;

// ---- monitor_mixed: one Immediate device plus live lineage queries.
/// Offered record rate of the monitoring device.
pub const MONITOR_RATE: f64 = 2_000.0;
/// Offered lineage-query rate.
pub const MONITOR_QUERY_RATE: f64 = 300.0;
/// Data nodes of the lineage preloaded into the device's workflow.
const MONITOR_PRELOAD: u64 = 20_000;
/// Parents of each preloaded node are drawn from this many predecessors.
const MONITOR_WINDOW: u64 = 64;

/// Queries the oracle runs after the drain on the other two workloads
/// (an `edge_table1` query opens 20 cursors).
const ORACLE_QUERIES: usize = 10_000;
const EDGE_ORACLE_QUERIES: usize = 2_000;
/// Cursor options of every query: small pages so closures span several.
const QUERY_OPTS: CursorOpts = CursorOpts {
    page_size: 16,
    max_work: 65_536,
    snapshot: SnapshotMode::Live,
};

/// splitmix64: the seed's only consumer, so one seed gives one input set.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn float(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Store contents the generator expects, compared exactly after the drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub records: u64,
    pub tasks: u64,
    pub data: u64,
    pub lineage_edges: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.records += other.records;
        self.tasks += other.tasks;
        self.data += other.data;
        self.lineage_edges += other.lineage_edges;
    }
}

/// One lineage question: the bounded upstream closures of `nodes` (one
/// cursor each), and the total hit count the generator's own DAG gives.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    pub workflow: u64,
    pub nodes: Vec<u64>,
    pub depth: usize,
    pub expected: usize,
}

/// What one query did.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryRun {
    /// From due time (open loop) or start (oracle pass) to the last page.
    pub latency_ns: u64,
    pub ok: bool,
    pub pages: u64,
    pub steps: u64,
}

/// Runs one query through `open_cursor`/`next_page`, recording each page's
/// time in `page_ns`.
pub fn run_query(
    store: &ShardedStore,
    q: &QuerySpec,
    due: u64,
    tracer: Option<&Tracer>,
    qid: u64,
    page_ns: &mut Vec<u64>,
) -> QueryRun {
    let start = now_ns();
    let workflow = Id::Num(q.workflow);
    let mut spans = Vec::new();
    let mut run = QueryRun {
        ok: true,
        ..QueryRun::default()
    };
    let mut hits = 0;
    for &node in &q.nodes {
        let path = Path::from_data(Id::Num(node)).upstream(q.depth);
        let t0 = now_ns();
        let opened = store.open_cursor(&workflow, &path, QUERY_OPTS);
        spans.push((Kind::QueryOpen, t0, now_ns()));
        let Ok(mut cursor) = opened else {
            run.ok = false;
            continue;
        };
        loop {
            let t0 = now_ns();
            let page = store.next_page(&mut cursor);
            let t1 = now_ns();
            page_ns.push(t1 - t0);
            spans.push((Kind::QueryPage, t0, t1));
            hits += page.hits.len();
            if page.done {
                break;
            }
        }
        let stats = cursor.stats();
        run.pages += stats.pages;
        run.steps += stats.steps_evaluated;
    }
    run.ok &= hits == q.expected;
    let end = now_ns();
    run.latency_ns = end - due.min(start);
    if let Some(t) = tracer {
        let root = t.record(Kind::Query, qid, ROOT, start, end);
        for (kind, s, e) in spans {
            t.record(kind, qid, root, s, e);
        }
    }
    run
}

/// Everything made before measuring starts: the inputs from the seed, the
/// ledger sized for them, and the running stack.
pub struct Prepared {
    pub ledger: Arc<Ledger>,
    pub tracer: Option<Arc<Tracer>>,
    pub stack: Stack,
    /// Store contents already present after set-up (preloads, the fleet
    /// devices' `WorkflowBegin`s).
    pub expect: Counts,
    /// The monitor's query plan.
    pub queries: Vec<QuerySpec>,
    /// Fleet: records per device per ladder step.
    pub per_device: Vec<usize>,
    /// Capture calls of the measured phase.
    pub calls: Calls,
    /// Durations of the reference task bodies run during set-up, ns.
    pub reference_ns: Vec<u64>,
}

/// Records per device per ladder step: the step's share of the run at its
/// rate, rounded down to whole groups so no group waits for a flush.
fn fleet_per_device(seconds: f64) -> Vec<usize> {
    let step_s = seconds / FLEET_LADDER.len() as f64;
    FLEET_LADDER
        .iter()
        .map(|rate| {
            let per_device = rate * step_s / 2.0;
            ((per_device as usize) / FLEET_GROUP).max(1) * FLEET_GROUP
        })
        .collect()
}

fn monitor_records(seconds: f64) -> u64 {
    ((MONITOR_RATE * seconds) as u64 / 2).max(1) * 2
}

/// Makes the inputs and starts the stack for one pass.
pub fn prepare(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Prepared, String> {
    let mut rng = Rng::new(seed);
    let mut expect = Counts::default();
    let mut dag = Vec::new();
    let mut queries = Vec::new();
    let mut per_device = Vec::new();
    let (workflows, devices, config, spans): (Vec<WorkflowSlots>, &[&str], CaptureConfig, usize) =
        match w {
            Workload::EdgeTable1 => {
                let n = (seconds * EDGE_MAX_WORKFLOWS_PER_S).ceil() as usize;
                let tasks = EDGE_TRANSFORMATIONS * EDGE_TASKS;
                let wfs = (0..n)
                    .map(|i| WorkflowSlots {
                        base: i * (2 + 2 * tasks as usize),
                        first_task: 0,
                        tasks,
                    })
                    .collect::<Vec<_>>();
                let spans = n * (tasks as usize + 2) + EDGE_ORACLE_QUERIES * 48;
                (wfs, &["edge-0"], CaptureConfig::default(), spans)
            }
            Workload::FleetGrouped => {
                per_device = fleet_per_device(seconds);
                let tasks = (per_device.iter().sum::<usize>() / 2) as u64;
                let wfs = (0..2)
                    .map(|d| WorkflowSlots {
                        base: d * (2 + 2 * tasks as usize),
                        first_task: 0,
                        tasks,
                    })
                    .collect::<Vec<_>>();
                let config = CaptureConfig {
                    group: GroupPolicy::Grouped { size: FLEET_GROUP },
                    ..CaptureConfig::default()
                };
                let spans = ORACLE_QUERIES * 8;
                (wfs, &["fleet-0", "fleet-1"], config, spans)
            }
            Workload::MonitorMixed => {
                dag = (0..MONITOR_PRELOAD)
                    .map(|i| {
                        if i == 0 {
                            return Vec::new();
                        }
                        let lo = i.saturating_sub(MONITOR_WINDOW);
                        let mut parents: Vec<u64> = (0..1 + rng.below(3))
                            .map(|_| lo + rng.below(i - lo))
                            .collect();
                        parents.sort_unstable();
                        parents.dedup();
                        parents
                    })
                    .collect();
                let n_queries = (MONITOR_QUERY_RATE * seconds).ceil() as usize;
                queries = (0..n_queries)
                    .map(|_| {
                        let node = MONITOR_PRELOAD / 2 + rng.below(MONITOR_PRELOAD / 2);
                        QuerySpec {
                            workflow: 0,
                            nodes: vec![node],
                            depth: 4,
                            expected: closure_size(&dag, node, 4),
                        }
                    })
                    .collect();
                let tasks = monitor_records(seconds) / 2;
                let wfs = vec![WorkflowSlots {
                    base: 0,
                    first_task: MONITOR_PRELOAD,
                    tasks,
                }];
                let spans = n_queries * 24;
                (wfs, &["monitor-0"], CaptureConfig::default(), spans)
            }
        };
    let ledger = Arc::new(Ledger::new(workflows));
    let spans = ledger.slots() * 4 + spans;
    let tracer = traced.then(|| Arc::new(Tracer::new(spans)));
    let stack = Stack::start(ledger.clone(), tracer.clone(), devices, &config)?;
    let reference_ns = (0..REFERENCE_BODIES)
        .map(|i| {
            let t0 = now_ns();
            task_body(TASK_BODY_ITERS, i as f64);
            now_ns() - t0
        })
        .collect();
    match w {
        Workload::EdgeTable1 => {}
        Workload::FleetGrouped => {
            // Each device's workflow begins during set-up, so every
            // measured record is a task record in a whole group.
            let mut setup = Calls::new(ledger.clone(), None);
            for (d, client) in stack.clients.iter().enumerate() {
                let wf = client.session().workflow(d as u64);
                let slot = ledger.workflow(d as u64).begin();
                setup.submit(slot, None, ROOT, || wf.begin());
                client.flush().map_err(|e| format!("set-up flush: {e}"))?;
                expect.records += 1;
            }
            if setup.errors > 0 {
                return Err("set-up capture call failed".into());
            }
        }
        Workload::MonitorMixed => {
            // The device writes into the preloaded workflow (same shard).
            let wf = Id::Num(0);
            let mut records = vec![Record::WorkflowBegin {
                workflow: wf.clone(),
                time_ns: 0,
            }];
            for (i, parents) in dag.iter().enumerate() {
                let mut out = DataRecord::new(i as u64, 0u64);
                for &p in parents {
                    out = out.derived_from(p);
                }
                records.push(Record::TaskEnd {
                    task: TaskRecord {
                        id: Id::Num(i as u64),
                        workflow: wf.clone(),
                        transformation: Id::Num(0),
                        dependencies: Vec::new(),
                        time_ns: 0,
                        status: TaskStatus::Finished,
                    },
                    outputs: vec![out],
                });
            }
            expect.add(Counts {
                records: records.len() as u64,
                tasks: MONITOR_PRELOAD,
                data: MONITOR_PRELOAD,
                lineage_edges: dag.iter().map(|p| p.len() as u64).sum(),
            });
            stack.store.ingest_batch(records);
        }
    }
    Ok(Prepared {
        ledger: ledger.clone(),
        tracer: tracer.clone(),
        stack,
        expect,
        queries,
        per_device,
        calls: Calls::new(ledger, tracer),
        reference_ns,
    })
}

/// Nodes reachable upstream from `node` within `depth` hops, excluding
/// `node` (the engine's closure semantics, computed independently).
fn closure_size(parents: &[Vec<u64>], node: u64, depth: usize) -> usize {
    let mut seen = std::collections::HashSet::from([node]);
    let mut frontier = vec![node];
    for _ in 0..depth {
        let mut next = Vec::new();
        for n in frontier {
            for &p in &parents[n as usize] {
                if seen.insert(p) {
                    next.push(p);
                }
            }
        }
        frontier = next;
    }
    seen.len() - 1
}

/// Generator-side bookkeeping of capture calls.
pub struct Calls {
    ledger: Arc<Ledger>,
    tracer: Option<Arc<Tracer>>,
    /// Durations of record-submitting calls, ns.
    pub api_ns: Vec<u64>,
    /// Durations of `Workflow::end` calls (submit + flush), ns.
    pub flush_ns: Vec<u64>,
    /// Open loop: how late each call started against its due time, ns.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub errors: u64,
}

impl Calls {
    fn new(ledger: Arc<Ledger>, tracer: Option<Arc<Tracer>>) -> Calls {
        Calls {
            ledger,
            tracer,
            api_ns: Vec::new(),
            flush_ns: Vec::new(),
            late_ns: Vec::new(),
            attempted: 0,
            errors: 0,
        }
    }

    fn call(
        &mut self,
        kind: Kind,
        slot: usize,
        due: Option<u64>,
        parent: u32,
        f: impl FnOnce() -> Result<(), CaptureError>,
    ) -> u64 {
        self.attempted += 1;
        let start = now_ns();
        let result = f();
        let end = now_ns();
        if let Some(due) = due {
            self.late_ns.push(start.saturating_sub(due));
        }
        match result {
            // A closed loop measures from the call's start: on a 2-core
            // host the call's wake-up of the transmitter thread can preempt
            // the caller until the record is already committed.
            Ok(()) => self.ledger.note_sent(slot, due.unwrap_or(start), end),
            Err(e) => {
                self.errors += 1;
                eprintln!("capture call failed: {e}");
            }
        }
        if let Some(t) = &self.tracer {
            let span = t.record(kind, slot as u64, parent, start, end);
            if kind == Kind::ApiCall {
                self.ledger.api_span[slot].store(span, std::sync::atomic::Ordering::Relaxed);
            }
        }
        end - start
    }

    /// A record-submitting capture call.
    pub fn submit(
        &mut self,
        slot: usize,
        due: Option<u64>,
        parent: u32,
        f: impl FnOnce() -> Result<(), CaptureError>,
    ) -> u64 {
        let ns = self.call(Kind::ApiCall, slot, due, parent, f);
        self.api_ns.push(ns);
        ns
    }

    /// `Workflow::end`: submits the end record and waits for the flush.
    pub fn end(&mut self, slot: usize, parent: u32, wf: &Workflow) -> u64 {
        let ns = self.call(Kind::Flush, slot, None, parent, || wf.end());
        self.flush_ns.push(ns);
        ns
    }
}

/// What a generator did, beyond the ledger.
#[derive(Default)]
pub struct Generated {
    /// Store contents added by the measured phase.
    pub expect: Counts,
    /// Per workflow (edge): capture ms, compute ms.
    pub workflows: Vec<(f64, f64)>,
    /// Records submitted by the measured phase.
    pub records: u64,
    /// Ledger slots of each ladder step, with its rate.
    pub steps: Vec<(f64, Vec<usize>)>,
    /// Queries run during measurement.
    pub queries: Vec<QueryRun>,
    pub page_ns: Vec<u64>,
    /// Window of offered load, ns.
    pub start_ns: u64,
    pub end_ns: u64,
}

fn task_body(iters: u32, seed: f64) -> f64 {
    let mut x = seed;
    for i in 0..iters {
        x = x * 0.999_999 + f64::from(i).sqrt();
    }
    std::hint::black_box(x)
}

fn attr_names(n: usize) -> Vec<Arc<str>> {
    (0..n).map(|i| Arc::from(format!("a{i}"))).collect()
}

/// `edge_table1`: Table I-shaped workflows back to back until `seconds`
/// have passed, each ended (and flushed) by `Workflow::end`.
pub fn edge_table1(p: &mut Prepared, seed: u64, seconds: f64) -> Generated {
    let mut rng = Rng::new(seed ^ 0xed6e);
    let names = attr_names(EDGE_ATTRS);
    let client = &p.stack.clients[0];
    let session = client.session();
    let calls = &mut p.calls;
    let tracer = p.tracer.clone();
    let mut g = Generated {
        start_ns: now_ns(),
        ..Generated::default()
    };
    let deadline = g.start_ns + (seconds * 1e9) as u64;
    let max_workflows = (seconds * EDGE_MAX_WORKFLOWS_PER_S).ceil() as u64;
    let mut w = 0;
    while now_ns() < deadline && w < max_workflows {
        let slots = p.ledger.workflow(w);
        let wf_start = now_ns();
        let root = tracer.as_ref().map_or(ROOT, |t| {
            t.record(Kind::Workflow, w, ROOT, wf_start, wf_start)
        });
        let wf = session.workflow(w);
        let mut capture = calls.submit(slots.begin(), None, root, || wf.begin());
        let mut compute = 0;
        for k in 0..EDGE_TRANSFORMATIONS {
            for i in 0..EDGE_TASKS {
                let t = k * EDGE_TASKS + i;
                let prev = (k > 0).then(|| (k - 1) * EDGE_TASKS + i);
                let deps: Vec<Id> = prev.map(Id::Num).into_iter().collect();
                let mut input = DataRecord::new(2 * t, w);
                for name in &names {
                    input = input.with_attr(name.clone(), rng.float());
                }
                if let Some(prev) = prev {
                    input = input.derived_from(2 * prev + 1);
                }
                let mut task = wf.task(t, k, &deps);
                capture +=
                    calls.submit(slots.task_begin(t), None, root, || task.begin(vec![input]));
                let b0 = now_ns();
                task_body(TASK_BODY_ITERS, t as f64);
                let b1 = now_ns();
                compute += b1 - b0;
                if let Some(tr) = &tracer {
                    tr.record(Kind::TaskBody, w, root, b0, b1);
                }
                let output = DataRecord::new(2 * t + 1, w).derived_from(2 * t);
                capture += calls.submit(slots.task_end(t), None, root, || task.end(vec![output]));
            }
        }
        capture += calls.end(slots.end(), root, &wf);
        if let Some(tr) = &tracer {
            tr.set_end(root, now_ns());
        }
        g.records += slots.len() as u64;
        g.workflows
            .push((capture as f64 / 1e6, compute as f64 / 1e6));
        g.expect.add(Counts {
            records: slots.len() as u64,
            tasks: EDGE_TRANSFORMATIONS * EDGE_TASKS,
            data: 2 * EDGE_TRANSFORMATIONS * EDGE_TASKS,
            lineage_edges: EDGE_TRANSFORMATIONS * EDGE_TASKS * 2 - EDGE_TASKS,
        });
        w += 1;
    }
    g.end_ns = now_ns();
    g
}

/// Oracle queries for `edge_table1`: the full upstream lineage of one
/// workflow's final outputs, one cursor per chain. The output of task
/// `(k, i)` has `2k + 1` upstream nodes (its input, then alternating
/// outputs and inputs of the chain before it).
pub fn edge_queries(seed: u64, workflows: u64) -> Vec<QuerySpec> {
    let last = EDGE_TRANSFORMATIONS - 1;
    let nodes: Vec<u64> = (0..EDGE_TASKS)
        .map(|i| 2 * (last * EDGE_TASKS + i) + 1)
        .collect();
    let mut rng = Rng::new(seed ^ 0x9e7);
    (0..EDGE_ORACLE_QUERIES)
        .map(|_| QuerySpec {
            workflow: rng.below(workflows.max(1)),
            nodes: nodes.clone(),
            depth: 16,
            expected: (EDGE_TASKS * (2 * last + 1)) as usize,
        })
        .collect()
}

/// Sleeps until `due` (ns) unless it is less than 50 µs away; an open
/// loop never waits for the system, only for its schedule.
fn wait_until(due: u64) {
    let now = now_ns();
    if due > now + 50_000 {
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// A device's chain of tasks: task `t` takes input `2t` (derived from the
/// previous output `2t - 1`) and produces output `2t + 1`.
struct Chain<'a> {
    wf: Workflow,
    slots: WorkflowSlots,
    names: &'a [Arc<str>],
    next_task: u64,
    open: Option<(u64, Task)>,
    data_offset: u64,
}

impl Chain<'_> {
    /// Submits the device's next record (alternately a task begin and the
    /// same task's end) due at `due`.
    fn next(&mut self, calls: &mut Calls, rng: &mut Rng, due: u64) -> usize {
        match self.open.take() {
            None => {
                let t = self.next_task;
                self.next_task += 1;
                let off = self.data_offset;
                let k = t - self.slots.first_task;
                let mut input = DataRecord::new(off + 2 * k, self.wf.id().clone());
                for name in self.names {
                    input = input.with_attr(name.clone(), rng.float());
                }
                if k > 0 {
                    input = input.derived_from(off + 2 * k - 1);
                }
                let deps: Vec<Id> = (k > 0).then(|| Id::Num(t - 1)).into_iter().collect();
                let mut task = self.wf.task(t, 1u64, &deps);
                let slot = self.slots.task_begin(t);
                calls.submit(slot, Some(due), ROOT, || task.begin(vec![input]));
                self.open = Some((t, task));
                slot
            }
            Some((t, mut task)) => {
                let k = t - self.slots.first_task;
                let off = self.data_offset;
                let output = DataRecord::new(off + 2 * k + 1, self.wf.id().clone())
                    .derived_from(off + 2 * k);
                let slot = self.slots.task_end(t);
                calls.submit(slot, Some(due), ROOT, || task.end(vec![output]));
                slot
            }
        }
    }

    /// Store contents of `tasks` chained tasks.
    fn counts(tasks: u64) -> Counts {
        Counts {
            records: 2 * tasks,
            tasks,
            data: 2 * tasks,
            lineage_edges: (2 * tasks).saturating_sub(1),
        }
    }
}

/// `fleet_grouped`: two devices fed from this one thread as an open loop
/// that climbs the rate ladder; each step gets an equal share of the run.
pub fn fleet_grouped(p: &mut Prepared, seed: u64) -> Generated {
    let mut rng = Rng::new(seed ^ 0xf1ee7);
    let names = attr_names(SMALL_ATTRS);
    let mut chains: Vec<Chain> = p
        .stack
        .clients
        .iter()
        .enumerate()
        .map(|(d, c)| Chain {
            wf: c.session().workflow(d as u64),
            slots: p.ledger.workflow(d as u64),
            names: &names,
            next_task: 0,
            open: None,
            data_offset: 0,
        })
        .collect();
    let mut g = Generated {
        start_ns: now_ns(),
        ..Generated::default()
    };
    let mut step_start = g.start_ns;
    for (&rate, &per_device) in FLEET_LADDER.iter().zip(&p.per_device) {
        let interval = 1e9 / rate;
        let mut slots = Vec::with_capacity(2 * per_device);
        for j in 0..2 * per_device {
            let due = step_start + (j as f64 * interval) as u64;
            wait_until(due);
            slots.push(chains[j % 2].next(&mut p.calls, &mut rng, due));
        }
        step_start += (2.0 * per_device as f64 * interval) as u64;
        g.steps.push((rate, slots));
    }
    g.end_ns = now_ns();
    for c in &chains {
        let tasks = c.next_task;
        g.expect.add(Chain::counts(tasks));
        g.records += 2 * tasks;
    }
    // The devices' `Workflow::end` (and its flush) waits until the task
    // records have drained, so the flush measures a quiet pipeline.
    wait_for_commits(&p.ledger, g.end_ns + DRAIN_DEADLINE.as_nanos() as u64);
    for c in &chains {
        p.calls.end(c.slots.end(), ROOT, &c.wf);
        g.expect.records += 1;
        g.records += 1;
    }
    g
}

/// `monitor_mixed`: one Immediate device as an open loop at
/// [`MONITOR_RATE`], writing into the preloaded workflow while a second
/// thread runs live upstream-closure queries at [`MONITOR_QUERY_RATE`].
pub fn monitor_mixed(p: &mut Prepared, seed: u64, seconds: f64) -> Generated {
    let mut rng = Rng::new(seed ^ 0x3a0);
    let names = attr_names(SMALL_ATTRS);
    let records = monitor_records(seconds);
    let mut chain = Chain {
        wf: p.stack.clients[0].session().workflow(0u64),
        slots: p.ledger.workflow(0),
        names: &names,
        next_task: MONITOR_PRELOAD,
        open: None,
        data_offset: MONITOR_PRELOAD,
    };
    let mut g = Generated {
        start_ns: now_ns(),
        ..Generated::default()
    };
    let start = g.start_ns;
    let store = p.stack.store.clone();
    let tracer = p.tracer.clone();
    let queries = &p.queries;
    let calls = &mut p.calls;
    let (runs, page_ns) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            crate::placement::get().cloud();
            let mut runs = Vec::with_capacity(queries.len());
            let mut page_ns = Vec::new();
            for (i, q) in queries.iter().enumerate() {
                let due = start + (i as f64 * 1e9 / MONITOR_QUERY_RATE) as u64;
                wait_until(due);
                runs.push(run_query(
                    &store,
                    q,
                    due,
                    tracer.as_deref(),
                    i as u64,
                    &mut page_ns,
                ));
            }
            (runs, page_ns)
        });
        let interval = 1e9 / MONITOR_RATE;
        let mut slots = Vec::with_capacity(records as usize);
        for j in 0..records {
            let due = start + (j as f64 * interval) as u64;
            wait_until(due);
            slots.push(chain.next(calls, &mut rng, due));
        }
        g.steps.push((MONITOR_RATE, slots));
        reader.join().expect("query thread panicked")
    });
    g.queries = runs;
    g.page_ns = page_ns;
    g.end_ns = now_ns();
    calls.end(chain.slots.end(), ROOT, &chain.wf);
    let tasks = chain.next_task - MONITOR_PRELOAD;
    g.expect.add(Chain::counts(tasks));
    g.expect.records += 1;
    g.records = 2 * tasks + 1;
    g
}

/// Oracle queries for `fleet_grouped`: the output of chain task `t` has
/// `min(depth, 2t + 1)` upstream nodes.
pub fn fleet_queries(seed: u64, tasks_per_device: u64) -> Vec<QuerySpec> {
    const DEPTH: usize = 64;
    let mut rng = Rng::new(seed ^ 0xf1);
    (0..ORACLE_QUERIES)
        .map(|_| {
            let t = rng.below(tasks_per_device.max(1));
            QuerySpec {
                workflow: rng.below(2),
                nodes: vec![2 * t + 1],
                depth: DEPTH,
                expected: (2 * t as usize + 1).min(DEPTH),
            }
        })
        .collect()
}

/// How long the pipeline may take to deliver everything after the load
/// stops: room for all five MQTT-SN retransmission rounds at the default
/// 10 s `retry_timeout` and 5 retries.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

/// Waits until every record a capture call accepted has been committed,
/// or the clock passes `until` (ns). Returns whether it drained.
pub fn wait_for_commits(ledger: &Ledger, until: u64) -> bool {
    loop {
        if ledger.commits() >= ledger.sent.load(std::sync::atomic::Ordering::Relaxed) {
            return true;
        }
        if now_ns() > until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Tasks each fleet device runs over the whole ladder.
pub fn tasks_of(per_device: &[usize]) -> u64 {
    (per_device.iter().sum::<usize>() / 2) as u64
}

/// `ProvLightClient` statistics summed over devices (high-water marks
/// take the maximum).
pub fn transmitter_totals(clients: &[ProvLightClient]) -> provlight_core::TransmitterStats {
    let mut total = provlight_core::TransmitterStats::default();
    for c in clients {
        let s = c.stats();
        total.publish_failures += s.publish_failures;
        total.paced_sends += s.paced_sends;
        total.congestion_signals += s.congestion_signals;
        total.records_dropped += s.records_dropped;
        total.buffered_high_water = total.buffered_high_water.max(s.buffered_high_water);
    }
    total
}
