//! The measured pipeline: the shipped server stack started through its
//! public entry points, the translator wrapper that observes commits, and
//! the per-record ledger both sides write into.

use crate::trace::{Kind, Tracer, ROOT};
use parking_lot::Mutex;
use prov_model::{Id, Record};
use prov_store::sharded::{shared_sharded, SharedShardedStore};
use provlight_core::translator::{DfAnalyzerTranslator, Translator};
use provlight_core::{CaptureConfig, ProvLightClient, ProvLightServer};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process's first call; never 0 afterwards, so 0
/// can mean "not yet" in the ledger.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// Where one workflow's records sit in the ledger. Record slots are
/// `base` (WorkflowBegin), `base + 1 + 2k` / `base + 2 + 2k` (TaskBegin /
/// TaskEnd of task `first_task + k`), and `base + 1 + 2 * tasks`
/// (WorkflowEnd).
#[derive(Clone, Copy, Debug)]
pub struct WorkflowSlots {
    pub base: usize,
    pub first_task: u64,
    pub tasks: u64,
}

impl WorkflowSlots {
    pub fn begin(&self) -> usize {
        self.base
    }
    pub fn task_begin(&self, task: u64) -> usize {
        self.base + 1 + 2 * (task - self.first_task) as usize
    }
    pub fn task_end(&self, task: u64) -> usize {
        self.task_begin(task) + 1
    }
    pub fn end(&self) -> usize {
        self.base + 1 + 2 * self.tasks as usize
    }
    pub fn len(&self) -> usize {
        2 + 2 * self.tasks as usize
    }
}

fn stamps(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// One row per record the generator can submit: when it was due (open
/// loop) or its capture call started (closed loop), when that call
/// returned, and when the translator wrapper entered and left the commit.
pub struct Ledger {
    workflows: Vec<WorkflowSlots>,
    pub due: Box<[AtomicU64]>,
    pub returned: Box<[AtomicU64]>,
    pub entered: Box<[AtomicU64]>,
    pub committed: Box<[AtomicU64]>,
    /// The record's `api.call` span (traced run only).
    pub api_span: Box<[AtomicU32]>,
    pub sent: AtomicU64,
    pub commits: AtomicU64,
    pub duplicates: AtomicU64,
    /// Records the wrapper saw that no generator slot accounts for.
    pub strays: AtomicU64,
}

impl Ledger {
    /// A ledger for workflows numbered `0..workflows.len()`.
    pub fn new(workflows: Vec<WorkflowSlots>) -> Ledger {
        let n = workflows.last().map_or(0, |w| w.base + w.len());
        Ledger {
            workflows,
            due: stamps(n),
            returned: stamps(n),
            entered: stamps(n),
            committed: stamps(n),
            api_span: (0..n).map(|_| AtomicU32::new(ROOT)).collect(),
            sent: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            strays: AtomicU64::new(0),
        }
    }

    pub fn workflow(&self, w: u64) -> WorkflowSlots {
        self.workflows[w as usize]
    }

    pub fn slots(&self) -> usize {
        self.due.len()
    }

    /// The slot of a record the generator produced, if any.
    fn slot_of(&self, record: &Record) -> Option<usize> {
        let num = |id: &Id| id.as_num();
        let wf = self.workflows.get(num(record.workflow())? as usize)?;
        let in_range = |t: u64| t >= wf.first_task && t < wf.first_task + wf.tasks;
        match record {
            Record::WorkflowBegin { .. } => Some(wf.begin()),
            Record::WorkflowEnd { .. } => Some(wf.end()),
            Record::TaskBegin { task, .. } => {
                let t = num(&task.id).filter(|&t| in_range(t))?;
                Some(wf.task_begin(t))
            }
            Record::TaskEnd { task, .. } => {
                let t = num(&task.id).filter(|&t| in_range(t))?;
                Some(wf.task_end(t))
            }
        }
    }

    /// Notes a successful capture call for `slot`.
    pub fn note_sent(&self, slot: usize, due: u64, returned: u64) {
        self.due[slot].store(due, Ordering::Relaxed);
        self.returned[slot].store(returned, Ordering::Relaxed);
        self.sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records whose commit has been observed.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }
}

/// Per-envelope observations made by the wrapper.
#[derive(Default)]
pub struct CommitLog {
    /// Duration of each wrapped `on_records` call, ns.
    pub commit_ns: Vec<u64>,
    /// Records per envelope.
    pub records: u64,
    pub envelopes: u64,
    /// Envelopes kept for the codec measurement (traced run only).
    pub sample: Vec<Vec<Record>>,
}

/// Envelopes the traced run keeps for the codec measurement.
pub const CODEC_SAMPLE: usize = 2_000;

/// The benchmark's translator: `DfAnalyzerTranslator` plus timestamps.
/// It forwards every call unchanged and only reads the batch before the
/// inner translator drains it.
pub struct TimedTranslator {
    inner: DfAnalyzerTranslator,
    ledger: Arc<Ledger>,
    tracer: Option<Arc<Tracer>>,
    slots: Vec<Option<usize>>,
    pub log: CommitLog,
}

impl Translator for TimedTranslator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_records(&mut self, records: &mut Vec<Record>) {
        let entered = now_ns();
        self.slots.clear();
        self.slots
            .extend(records.iter().map(|r| self.ledger.slot_of(r)));
        if self.tracer.is_some() && self.log.sample.len() < CODEC_SAMPLE {
            self.log.sample.push(records.clone());
        }
        let n = records.len() as u64;
        let start = now_ns();
        self.inner.on_records(records);
        let done = now_ns();
        self.log.commit_ns.push(done - start);
        self.log.records += n;
        self.log.envelopes += 1;

        let ledger = &self.ledger;
        if let (Some(t), Some(first)) = (&self.tracer, self.slots.first()) {
            // One span per envelope, identified by its first record.
            t.record(
                Kind::Commit,
                first.map_or(u64::MAX, |s| s as u64),
                ROOT,
                start,
                done,
            );
        }
        for slot in &self.slots {
            let Some(s) = *slot else {
                ledger.strays.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            ledger.entered[s].store(entered, Ordering::Relaxed);
            if ledger.committed[s].swap(done, Ordering::Relaxed) != 0 {
                ledger.duplicates.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            ledger.commits.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &self.tracer {
                // A record can commit before its capture call's return is
                // noted; its transit is then empty.
                let returned = ledger.returned[s].load(Ordering::Relaxed);
                let start = if returned == 0 {
                    entered
                } else {
                    returned.min(entered)
                };
                let api = ledger.api_span[s].load(Ordering::Relaxed);
                t.record(Kind::Transit, s as u64, api, start, entered);
            }
        }
    }

    fn messages(&self) -> u64 {
        self.inner.messages()
    }
}

/// The server side of one pass plus its device clients.
pub struct Stack {
    pub store: SharedShardedStore,
    pub translator: Arc<Mutex<TimedTranslator>>,
    pub server: ProvLightServer,
    pub clients: Vec<ProvLightClient>,
}

impl Stack {
    /// Starts the server the way `ProvenanceManager::start` does (sharded
    /// store, one translator under the TRANSLATOR lock rank subscribed to
    /// `provlight/#`) with its threads on the cloud core, then connects one
    /// client per device name from the device core, where the calling
    /// thread stays.
    pub fn start(
        ledger: Arc<Ledger>,
        tracer: Option<Arc<Tracer>>,
        devices: &[&str],
        config: &CaptureConfig,
    ) -> Result<Stack, String> {
        let store = shared_sharded();
        let translator = Arc::new(Mutex::with_rank(
            parking_lot::rank::TRANSLATOR,
            TimedTranslator {
                inner: DfAnalyzerTranslator::new(store.clone()),
                ledger,
                tracer,
                slots: Vec::new(),
                log: CommitLog::default(),
            },
        ));
        let placement = crate::placement::get();
        placement.cloud();
        let server = ProvLightServer::start("127.0.0.1:0", "provlight/#", translator.clone())
            .map_err(|e| format!("server start: {e}"))?;
        placement.device();
        let mut clients = Vec::with_capacity(devices.len());
        for dev in devices {
            let client = ProvLightClient::connect(
                server.broker_addr(),
                dev,
                &format!("provlight/bench/{dev}"),
                config.clone(),
            )
            .map_err(|e| format!("connect {dev}: {e}"))?;
            clients.push(client);
        }
        Ok(Stack {
            store,
            translator,
            server,
            clients,
        })
    }

    /// Stops clients, then the server, joining their threads.
    pub fn shutdown(self) {
        for c in self.clients {
            c.shutdown();
        }
        self.server.shutdown();
    }
}
