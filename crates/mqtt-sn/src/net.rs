//! Real-socket bindings of the sans-io cores.
//!
//! [`UdpBroker`] is the gateway: N [`broker::Broker`](crate::broker::Broker)
//! shards over one `std::net::UdpSocket`, each with its own serve loop on a
//! background thread. With more than one shard a routing front thread owns
//! the socket's receive side; with one shard the only shard receives from
//! the socket itself. Its state persists to one atomic snapshot file
//! ([`UdpBroker::snapshot_to_file`] / [`UdpBroker::spawn_from_file`]).
//! [`UdpClient`] is a blocking client suitable for driving from an
//! application or a transmitter thread, and [`Backoff`] is the jittered
//! schedule the capture transmitter spaces [`UdpClient::try_reconnect`]
//! attempts with. The integration tests exercise full QoS 2 capture over
//! loopback UDP.

use crate::broker::{wire, Broker, BrokerConfig, BrokerOutputs, BrokerStats};
use crate::client::{Client, ClientConfig, ClientEvent, ClientOutputs, Nanos};
use crate::packet::{msg_type, Packet, PacketRef, QoS, TopicRef};
use crate::router::{shard_for_client, shard_for_key, SharedRouter};
use crate::shard::{ForwardFabric, ForwardFrame};
use crate::Error;
use crossbeam::queue::ArrayQueue;
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Direction of a datagram crossing a faulted transport seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDir {
    /// Arrived from the wire, about to be processed.
    Inbound,
    /// About to be written to the socket.
    Outbound,
}

/// What a fault plan decided to do with one datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatagramFate {
    /// Pass through untouched.
    Deliver,
    /// Drop silently — packet loss, or a partition when sustained.
    Drop,
    /// Deliver now and once more immediately after (duplication).
    Duplicate,
    /// Hold for the duration, then deliver. Later datagrams overtake a
    /// held one, so reordering falls out of delay for free.
    Delay(Duration),
}

/// The datagram fault-injection seam.
///
/// The trait lives here — next to the transports that consult it — rather
/// than in the chaos crate, for the same layering reason as
/// [`prov_wal::IoFault`]: `mqtt_sn` stays dependency-light while
/// `prov-chaos` implements the trait from a seeded, deterministic plan.
/// Production paths pass no fault and pay nothing; a faulted
/// [`UdpBroker::spawn_with_faults`] / [`UdpClient::set_fault`] transport
/// consults `fate` for every datagram in both directions.
///
/// Implementations are called from transport threads and must be
/// `Send + Sync`; determinism (for reproducible chaos runs) is the
/// implementor's contract, typically a seeded RNG behind a mutex.
pub trait DatagramFault: Send + Sync + std::fmt::Debug {
    /// Decides the fate of one datagram.
    fn fate(&self, dir: FaultDir, datagram: &[u8]) -> DatagramFate;
}

/// Datagrams held back by a [`DatagramFate::Delay`], with their release
/// deadlines.
type HeldFrames = Vec<(Instant, SocketAddr, Vec<u8>)>;

/// Datagrams drained per wakeup: bounds both the front's receive burst and
/// how many ingress frames a shard processes under one lock acquisition,
/// so outbound traffic never waits long behind a burst.
const SERVE_BATCH: usize = 32;
/// Receive-slot size: the largest datagram MQTT-SN over UDP can carry.
const SLOT: usize = 64 * 1024;
/// Slots per shard ingress ring and per directed cross-shard forwarding
/// ring. Bounded memory: a full ring is an accounted drop, never a block.
const SHARD_RING: usize = 1024;

/// Magic prefix of a gateway snapshot file (all-shards-atomic layout).
const SNAPSHOT_MAGIC: &[u8; 4] = b"PVSH";
/// Version byte of the snapshot container format.
const SNAPSHOT_VERSION: u8 = 1;

/// One inbound datagram routed to a shard: the sender plus the bytes in
/// a recycled buffer.
#[derive(Debug)]
struct IngressFrame {
    from: SocketAddr,
    buf: Vec<u8>,
}

/// Bounded SPSC handoff from the receive side to one shard's serve
/// loop. Frames recycle through the companion free ring, so the steady
/// state moves datagrams from the socket to a shard without allocating.
#[derive(Debug)]
struct IngressRing {
    data: ArrayQueue<IngressFrame>,
    free: ArrayQueue<IngressFrame>,
    /// Datagrams the receive side could not enqueue (ring or pool
    /// exhausted); the owning shard folds these into
    /// [`BrokerStats::drops`].
    drops: AtomicU64,
    /// Transient socket errors observed by the receive side; the owning
    /// shard folds these into [`BrokerStats::io_errors`].
    io_errors: AtomicU64,
}

impl IngressRing {
    fn new(cap: usize) -> IngressRing {
        let ring = IngressRing {
            data: ArrayQueue::new(cap),
            free: ArrayQueue::new(cap),
            drops: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        };
        for _ in 0..cap {
            let _ = ring.free.push(IngressFrame {
                from: SocketAddr::from(([0, 0, 0, 0], 0)),
                buf: Vec::new(),
            });
        }
        ring
    }

    /// Receive side: copies `bytes` into a recycled frame and enqueues
    /// it. A full ring is backpressure on one overloaded shard — the
    /// datagram is dropped and accounted, the front keeps serving the
    /// other shards.
    fn push(&self, from: SocketAddr, bytes: &[u8]) {
        // lint: zero-alloc-begin
        let Some(mut frame) = self.free.pop() else {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        frame.from = from;
        frame.buf.clear();
        frame.buf.extend_from_slice(bytes);
        if let Err(frame) = self.data.push(frame) {
            let _ = self.free.push(frame);
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        // lint: zero-alloc-end
    }
}

/// The MQTT-SN gateway: N broker shards over one UDP socket, one serve
/// loop per shard.
///
/// Each datagram goes to the shard that owns its sender (client-id hash,
/// sniffed from CONNECT — see [`shard_for_client`]). Each shard runs an
/// independent [`Broker`] behind its own lock, so publishes from clients
/// on different shards are processed genuinely in parallel; a publish
/// whose subscribers live on other shards crosses through the lock-free
/// [`ForwardFabric`] as a pre-encoded wire image. Topic-id assignment is
/// serialized through the [`SharedRouter`] (control plane only); the
/// per-publish hot path reads a cached, epoch-invalidated topic→shard
/// bitmask and never takes a global lock.
///
/// With more than one shard a routing front thread owns the socket's
/// receive side. With one shard there is no front thread: the only shard
/// receives from the socket itself, so a control round trip crosses one
/// thread, as in an unsharded gateway.
pub struct UdpBroker {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    brokers: Arc<Vec<Mutex<Broker<SocketAddr>>>>,
    router: Arc<SharedRouter>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl UdpBroker {
    /// Binds and starts serving with `shards` shards (clamped to 1..=64).
    /// Use `"127.0.0.1:0"` to pick a free port.
    pub fn spawn(
        bind: impl ToSocketAddrs,
        shards: usize,
        config: BrokerConfig,
    ) -> io::Result<UdpBroker> {
        let shards = shards.clamp(1, 64);
        let states = (0..shards).map(|_| Broker::new(config.clone())).collect();
        Self::spawn_inner(bind, states, SharedRouter::new(shards), None)
    }

    /// [`UdpBroker::spawn`] with a datagram fault-injection plan. Inbound
    /// fates are decided once, on the receive side (before the datagram
    /// reaches any shard); outbound fates are decided by the sending
    /// shard's serve loop. Chaos testing only — the faulted paths
    /// allocate where the production serve loop does not.
    pub fn spawn_with_faults(
        bind: impl ToSocketAddrs,
        shards: usize,
        config: BrokerConfig,
        fault: Arc<dyn DatagramFault>,
    ) -> io::Result<UdpBroker> {
        let shards = shards.clamp(1, 64);
        let states = (0..shards).map(|_| Broker::new(config.clone())).collect();
        Self::spawn_inner(bind, states, SharedRouter::new(shards), Some(fault))
    }

    /// Binds and starts serving from a snapshot file written by
    /// [`UdpBroker::snapshot_to_file`] — the restart path that survives
    /// gateway *process death*: durable sessions, topic registrations and
    /// buffered messages come back, the way RSMB's persistence file keeps
    /// gateway state across crashes. The shard count comes from the file.
    /// Every per-shard section must decode before any shard starts
    /// serving: a partial or corrupt file fails with
    /// [`io::ErrorKind::InvalidData`] and no thread is spawned, rather
    /// than resuming a gateway with some shards silently empty.
    ///
    /// A single-broker file from before the gateway was sharded (a
    /// checksummed raw [`Broker::encode_state`]) resumes as one shard.
    pub fn spawn_from_file(
        bind: impl ToSocketAddrs,
        path: impl AsRef<std::path::Path>,
    ) -> io::Result<UdpBroker> {
        Self::spawn_from_file_inner(bind, path, None)
    }

    /// [`UdpBroker::spawn_from_file`] with a fault plan — lets a chaos
    /// harness keep its fault schedule running across a kill-and-restart
    /// of the gateway.
    pub fn spawn_from_file_with_faults(
        bind: impl ToSocketAddrs,
        path: impl AsRef<std::path::Path>,
        fault: Arc<dyn DatagramFault>,
    ) -> io::Result<UdpBroker> {
        Self::spawn_from_file_inner(bind, path, Some(fault))
    }

    fn spawn_from_file_inner(
        bind: impl ToSocketAddrs,
        path: impl AsRef<std::path::Path>,
        fault: Option<Arc<dyn DatagramFault>>,
    ) -> io::Result<UdpBroker> {
        let bytes = prov_wal::snapshot::read(path)?;
        let (states, router) =
            decode_snapshot(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Self::spawn_inner(bind, states, router, fault)
    }

    fn spawn_inner(
        bind: impl ToSocketAddrs,
        states: Vec<Broker<SocketAddr>>,
        router: SharedRouter,
        fault: Option<Arc<dyn DatagramFault>>,
    ) -> io::Result<UdpBroker> {
        let shards = states.len().max(1);
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let local_addr = socket.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // One Vec holds every shard's mutex: equal-rank broker locks are
        // acquired in index order, which inside a single allocation is
        // ascending address order — the pattern the debug lock-rank
        // tracker accepts for same-rank siblings.
        let brokers: Arc<Vec<Mutex<Broker<SocketAddr>>>> = Arc::new(
            states
                .into_iter()
                .map(|s| Mutex::with_rank(parking_lot::rank::BROKER, s))
                .collect(),
        );
        let router = Arc::new(router);
        let fabric = Arc::new(ForwardFabric::new(shards, SHARD_RING));
        let ingress: Arc<Vec<IngressRing>> =
            Arc::new((0..shards).map(|_| IngressRing::new(SHARD_RING)).collect());
        // Seed the router's per-shard filter unions from restored
        // sessions, so forwarding works before any new subscription.
        {
            let mut filters = Vec::new();
            for (i, b) in brokers.iter().enumerate() {
                b.lock().collect_subscription_filters(&mut filters);
                if !filters.is_empty() {
                    router.set_filters(i, &filters);
                }
            }
        }
        let socket = Arc::new(socket);
        let mut threads = Vec::with_capacity(shards + 1);
        for idx in 0..shards {
            let socket = Arc::clone(&socket);
            let brokers = Arc::clone(&brokers);
            let router = Arc::clone(&router);
            let fabric = Arc::clone(&fabric);
            let ingress = Arc::clone(&ingress);
            let shutdown = Arc::clone(&shutdown);
            let fault = fault.clone();
            threads.push(std::thread::spawn(move || {
                serve_shard(
                    idx,
                    &socket,
                    &brokers[idx],
                    &router,
                    &fabric,
                    &ingress,
                    &shutdown,
                    fault.as_deref(),
                )
            }));
        }
        if shards > 1 {
            let shutdown = Arc::clone(&shutdown);
            threads.push(std::thread::spawn(move || {
                let mut front = FrontState::new();
                while !shutdown.load(Ordering::Relaxed) {
                    front_step(&mut front, &socket, &ingress, fault.as_deref());
                }
            }));
        }
        Ok(UdpBroker {
            local_addr,
            shutdown,
            brokers,
            router,
            threads,
        })
    }

    /// The bound address (to hand to clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of shards serving.
    pub fn shards(&self) -> usize {
        self.brokers.len()
    }

    /// Seeds a predefined topic (fixed id, agreed out of band) into the
    /// shared registry and every shard's local mirror. Returns false on
    /// an id or name conflict.
    pub fn register_predefined(&self, id: u16, name: &str) -> bool {
        if !self.router.register_predefined(id, name) {
            return false;
        }
        for broker in self.brokers.iter() {
            broker.lock().mirror_topic(id, name);
        }
        true
    }

    /// Merged routing statistics across all shards: counters sum,
    /// high-water marks take the per-shard maximum.
    pub fn stats(&self) -> BrokerStats {
        let mut merged = BrokerStats::default();
        for broker in self.brokers.iter() {
            merged.merge(broker.lock().stats());
        }
        merged
    }

    /// Per-shard routing statistics, indexed by shard.
    pub fn shard_stats(&self) -> Vec<BrokerStats> {
        self.brokers.iter().map(|b| *b.lock().stats()).collect()
    }

    /// Total buffered-message backlog across all shards — the input to
    /// the congestion watermarks. A lagging subscriber (e.g. a slow
    /// translator) shows up here first.
    pub fn backlog(&self) -> usize {
        self.brokers.iter().map(|b| b.lock().backlog()).sum()
    }

    /// Per-shard buffered-message backlog, indexed by shard — the
    /// observability feed for spotting one hot shard behind a merged
    /// total that still looks healthy.
    pub fn shard_backlogs(&self) -> Vec<usize> {
        self.brokers.iter().map(|b| b.lock().backlog()).collect()
    }

    /// Worst congestion level over all shards (0 clear / 1 soft /
    /// 2 hard): admission control must react to the hottest shard, not
    /// the average.
    pub fn congestion_level(&self) -> u8 {
        self.brokers
            .iter()
            .map(|b| b.lock().congestion_level())
            .max()
            .unwrap_or(0)
    }

    /// The shard that owns `client_id` under this gateway's placement.
    pub fn shard_of(&self, client_id: &str) -> usize {
        shard_for_client(client_id, self.brokers.len())
    }

    /// Serializes all shards to `path` as one atomic snapshot file
    /// (checksummed, temp file + rename, so a crash mid-snapshot leaves
    /// the previous file intact). Every shard's broker lock is held (in
    /// index order) across the whole encode, so the per-shard sections
    /// are a single consistent cut — no shard's section can contain a
    /// publish whose cross-shard forward is missing from another's.
    ///
    /// Each section is decoded again outside the locks before anything
    /// is written: a fresh encode that fails to decode means the broker's
    /// state serialization is broken. That shard counts it in
    /// [`BrokerStats::snapshot_failures`] and the call fails with
    /// [`io::ErrorKind::InvalidData`], leaving the previous file in place
    /// rather than writing one that restart would refuse.
    pub fn snapshot_to_file(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let (next_id, entries) = self.router.registry_snapshot();
        let sections: Vec<Vec<u8>> = {
            let guards: Vec<_> = self.brokers.iter().map(|b| b.lock()).collect();
            guards.iter().map(|g| g.encode_state()).collect()
        };
        for (shard, section) in sections.iter().enumerate() {
            if let Err(e) = Broker::<SocketAddr>::decode_state(section) {
                self.brokers[shard].lock().note_snapshot_failure();
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.push(self.brokers.len() as u8);
        out.extend_from_slice(&next_id.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (id, name) in &entries {
            out.extend_from_slice(&id.to_le_bytes());
            wire::put_str(&mut out, name);
        }
        for section in &sections {
            wire::put_bytes(&mut out, section);
        }
        prov_wal::snapshot::write_atomic(path, &out)
    }

    /// Stops every serve thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops every serve thread, then snapshots the final state to
    /// `path` — what a crash-consistent persistence layer would have
    /// observed at the instant of death.
    ///
    /// This differs from [`UdpBroker::snapshot_to_file`]-then-`shutdown`
    /// in one crucial way: a snapshot taken while the serve loops are
    /// still running rolls back any QoS 2 handshake that completes
    /// between the snapshot and the shutdown, and the resumed gateway
    /// then re-delivers those publishes to subscribers whose own dedup
    /// state has already been cleared — breaking exactly-once
    /// downstream. Capturing after the loops stop closes that window, so
    /// kill/restart chaos harnesses use this.
    pub fn shutdown_to_file(mut self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        self.stop();
        self.snapshot_to_file(path)
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for UdpBroker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decodes a snapshot file body into per-shard brokers plus the shared
/// router. Accepts the `PVSH` all-shards container, and the single-broker
/// file written before the gateway was sharded: a raw
/// [`Broker::encode_state`], whose first byte is a state version (never
/// `P`), resumed as one shard with the router seeded from its registry.
fn decode_snapshot(bytes: &[u8]) -> Result<(Vec<Broker<SocketAddr>>, SharedRouter), &'static str> {
    let Some(body) = bytes.strip_prefix(SNAPSHOT_MAGIC) else {
        let mut state = Broker::decode_state(bytes)?;
        state.reset_clock();
        let router = SharedRouter::new(1);
        let registry = state.registry_mut();
        router.seed_registry(registry.next_id(), registry.entries());
        return Ok((vec![state], router));
    };
    let mut r = wire::Reader::new(body);
    if r.u8()? != SNAPSHOT_VERSION {
        return Err("unknown sharded snapshot version");
    }
    let shards = r.u8()? as usize;
    if !(1..=64).contains(&shards) {
        return Err("implausible shard count");
    }
    let next_id = r.u16()?;
    let entry_count = r.u32()?;
    let mut entries = Vec::with_capacity(entry_count.min(1 << 16) as usize);
    for _ in 0..entry_count {
        let id = r.u16()?;
        let name = r.str()?;
        entries.push((id, name));
    }
    // Decode every shard section before any shard starts serving. The
    // serving threads' monotonic clocks restart at zero; rebase each
    // shard's timers so retransmissions fire promptly.
    let mut states = Vec::with_capacity(shards);
    for _ in 0..shards {
        let mut state = Broker::decode_state(&r.bytes()?)?;
        state.reset_clock();
        states.push(state);
    }
    let router = SharedRouter::new(shards);
    router.seed_registry(next_id, entries.iter().map(|(id, n)| (*id, n.as_str())));
    Ok((states, router))
}

/// The message-type byte of an MQTT-SN datagram (handles both 1- and
/// 3-byte length headers) — enough to route on without a full decode.
fn peek_type(buf: &[u8]) -> Option<u8> {
    match buf.first() {
        Some(0x01) => buf.get(3).copied(),
        Some(_) => buf.get(1).copied(),
        None => None,
    }
}

/// Fallback placement for a sender whose CONNECT the front never saw:
/// hash the transport address.
fn addr_shard(addr: &SocketAddr, shards: usize) -> usize {
    let mut key = [0u8; 18];
    let len = match addr {
        SocketAddr::V4(a) => {
            key[..4].copy_from_slice(&a.ip().octets());
            key[4..6].copy_from_slice(&a.port().to_le_bytes());
            6
        }
        SocketAddr::V6(a) => {
            key[..16].copy_from_slice(&a.ip().octets());
            key[16..18].copy_from_slice(&a.port().to_le_bytes());
            18
        }
    };
    shard_for_key(&key[..len], shards)
}

/// Routes one deliverable datagram to its owner shard. CONNECT pins the
/// sender's placement by client-id hash (so a durable session
/// reconnecting from a new address lands on the shard holding its
/// state); everything else follows the pinned placement, falling back
/// to an address hash for senders that never connected.
fn dispatch_frame(
    placement: &mut HashMap<SocketAddr, usize>,
    ingress: &[IngressRing],
    from: SocketAddr,
    bytes: &[u8],
) {
    let shards = ingress.len();
    let shard = if peek_type(bytes) == Some(msg_type::CONNECT) {
        let s = match Packet::decode(bytes) {
            Ok(Packet::Connect { client_id, .. }) => shard_for_client(&client_id, shards),
            _ => addr_shard(&from, shards),
        };
        placement.insert(from, s);
        s
    } else {
        match placement.get(&from) {
            Some(&s) => s,
            None => addr_shard(&from, shards),
        }
    };
    ingress[shard].push(from, bytes);
}

/// Applies the inbound fault fate (chaos only) and dispatches.
fn route_in(
    front: &mut FrontState,
    ingress: &[IngressRing],
    from: SocketAddr,
    len: usize,
    fault: Option<&dyn DatagramFault>,
) {
    let bytes = &front.rbuf[..len];
    match fault.map(|f| f.fate(FaultDir::Inbound, bytes)) {
        None | Some(DatagramFate::Deliver) => {
            dispatch_frame(&mut front.placement, ingress, from, bytes)
        }
        Some(DatagramFate::Drop) => {}
        Some(DatagramFate::Duplicate) => {
            dispatch_frame(&mut front.placement, ingress, from, bytes);
            dispatch_frame(&mut front.placement, ingress, from, bytes);
        }
        Some(DatagramFate::Delay(dur)) => {
            front
                .held_in
                .push((Instant::now() + dur, from, bytes.to_vec()))
        }
    }
}

/// Receive-side state: owned by the routing front thread, or by the only
/// shard's serve loop when the gateway has one shard.
struct FrontState {
    rbuf: Vec<u8>,
    /// Sender → shard, pinned by the sender's CONNECT.
    placement: HashMap<SocketAddr, usize>,
    /// Inbound datagrams held back by an injected delay (chaos only).
    held_in: HeldFrames,
    /// Whether the socket is still in non-blocking mode because a restore
    /// after a burst drain failed. Left unrepaired, every "blocking" recv
    /// would return WouldBlock instantly and the loop would spin hot;
    /// instead the restore is retried each step with a short sleep
    /// standing in for the blocking wait until it succeeds.
    nonblocking: bool,
}

impl FrontState {
    fn new() -> FrontState {
        FrontState {
            rbuf: vec![0u8; SLOT],
            placement: HashMap::new(),
            held_in: Vec::new(),
            nonblocking: false,
        }
    }
}

/// One receive step: a blocking `recv_from` (bounded by the socket's
/// 10 ms read timeout, so shutdown and retransmission timers stay
/// responsive), then a non-blocking drain of the burst up to
/// [`SERVE_BATCH`]. Expired injected delays are released ahead of this
/// wakeup's arrivals (a released frame is older than anything just read),
/// inbound chaos fates are applied once, and each datagram goes to its
/// owner shard's ingress ring. No broker lock is ever taken here, so the
/// front stays responsive even when one shard is saturated.
fn front_step(
    front: &mut FrontState,
    socket: &UdpSocket,
    ingress: &[IngressRing],
    fault: Option<&dyn DatagramFault>,
) {
    let io_errors = &ingress[0].io_errors;
    if front.nonblocking {
        if socket.set_nonblocking(false).is_ok() {
            front.nonblocking = false;
        } else {
            io_errors.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    if !front.held_in.is_empty() {
        let now = Instant::now();
        let mut i = 0;
        while i < front.held_in.len() {
            if front.held_in[i].0 <= now {
                let (_, from, bytes) = front.held_in.swap_remove(i);
                dispatch_frame(&mut front.placement, ingress, from, &bytes);
            } else {
                i += 1;
            }
        }
    }
    match socket.recv_from(&mut front.rbuf) {
        Ok((len, from)) => {
            route_in(front, ingress, from, len, fault);
            // A wake usually means a burst: drain it without blocking,
            // dispatching as we go.
            if socket.set_nonblocking(true).is_ok() {
                front.nonblocking = true;
                for _ in 1..SERVE_BATCH {
                    match socket.recv_from(&mut front.rbuf) {
                        Ok((len, from)) => route_in(front, ingress, from, len, fault),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            io_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                if socket.set_nonblocking(false).is_ok() {
                    front.nonblocking = false;
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {}
        Err(_) => {
            // Transient: on Linux an ICMP port-unreachable from one
            // departed client surfaces here as ECONNREFUSED — exiting
            // would kill the gateway for everyone. Back off briefly and
            // keep serving; shutdown still exits via the flag.
            io_errors.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Per-datagram routing info prefetched *before* the shard's broker lock
/// is taken: for a PUBLISH, the topic id, QoS, payload span within the
/// frame, and the cross-shard subscriber mask.
type PubPrep = Option<(u16, QoS, usize, usize, u64)>;

/// Pre-lock routing peek for one inbound datagram. Resolves topic names
/// through the shared router (control packets only — a write lock per
/// *new* name), prefetches the shard mask for publishes (shared read),
/// and flags packets that can change this shard's subscription-filter
/// union. Runs with **no** broker lock held, preserving the
/// router-before-broker lock order.
fn route_prep(
    frame: &IngressFrame,
    router: &SharedRouter,
    mirrors: &mut Vec<(u16, String)>,
    known: &HashSet<u16>,
    filters_dirty: &mut bool,
) -> PubPrep {
    let bytes = &frame.buf[..];
    match peek_type(bytes) {
        Some(msg_type::PUBLISH) => {
            if let Ok(PacketRef::Publish {
                qos,
                topic: TopicRef::Id(id) | TopicRef::Predefined(id),
                payload,
                ..
            }) = Packet::decode_borrowed(bytes)
            {
                let mask = router.shard_mask(id);
                let at = payload.as_ptr() as usize - bytes.as_ptr() as usize;
                Some((id, qos, at, payload.len(), mask))
            } else {
                None
            }
        }
        Some(msg_type::REGISTER) => {
            if let Ok(PacketRef::Owned(Packet::Register { topic_name, .. })) =
                Packet::decode_borrowed(bytes)
            {
                if let Some(id) = router.resolve(&topic_name) {
                    if !known.contains(&id) {
                        mirrors.push((id, topic_name));
                    }
                }
            }
            None
        }
        Some(msg_type::SUBSCRIBE) => {
            *filters_dirty = true;
            if let Ok(PacketRef::Owned(Packet::Subscribe {
                topic: TopicRef::Name(name),
                ..
            })) = Packet::decode_borrowed(bytes)
            {
                // A concrete-name subscription assigns a topic id in the
                // SUBACK; route the assignment through the shared
                // registry so every shard agrees on it. Wildcard filters
                // assign nothing.
                if crate::topic::name_is_valid(&name) {
                    if let Some(id) = router.resolve(&name) {
                        if !known.contains(&id) {
                            mirrors.push((id, name));
                        }
                    }
                }
            }
            None
        }
        Some(msg_type::UNSUBSCRIBE) | Some(msg_type::CONNECT) | Some(msg_type::DISCONNECT) => {
            *filters_dirty = true;
            None
        }
        _ => None,
    }
}

/// One shard's serve loop: drain the ingress ring and the incoming
/// forwarding rings, prefetch routing decisions with no lock held,
/// process everything under a **single** acquisition of this shard's
/// broker lock (cross-shard ring pushes are lock-free, so they happen
/// inside it), then flush the socket after unlock. Steady state performs
/// no per-packet heap allocation and no per-subscriber re-encode.
///
/// The only shard of a one-shard gateway also owns the socket's receive
/// side: it runs [`front_step`] itself at the top of each iteration,
/// where the front's blocking receive paces the loop.
#[allow(clippy::too_many_arguments)]
fn serve_shard(
    idx: usize,
    socket: &UdpSocket,
    broker: &Mutex<Broker<SocketAddr>>,
    router: &SharedRouter,
    fabric: &ForwardFabric,
    ingress_rings: &[IngressRing],
    shutdown: &AtomicBool,
    fault: Option<&dyn DatagramFault>,
) {
    let ingress = &ingress_rings[idx];
    let mut front = (ingress_rings.len() == 1).then(FrontState::new);
    let start = Instant::now();
    let mut out = BrokerOutputs::new();
    let mut batch: Vec<IngressFrame> = Vec::with_capacity(SERVE_BATCH);
    let mut pubinfo: Vec<PubPrep> = Vec::with_capacity(SERVE_BATCH);
    let mut mirrors: Vec<(u16, String)> = Vec::new();
    let mut fwd_in: Vec<(usize, ForwardFrame)> = Vec::new();
    let mut filters: Vec<String> = Vec::new();
    let mut fwd_scratch: Vec<u8> = Vec::new();
    // Topic ids already mirrored into this shard's registry — lets the
    // pre-lock phase skip re-mirroring without peeking broker state.
    let mut known: HashSet<u16> = HashSet::new();
    let mut pending_io_errors: u64 = 0;
    let mut last_tick = Instant::now();
    let mut held_out: HeldFrames = Vec::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Frames left over from a burst larger than one batch are served
        // before blocking on the socket again.
        if let Some(front) = front.as_mut().filter(|_| ingress.data.is_empty()) {
            front_step(front, socket, ingress_rings, fault);
        }
        batch.clear();
        pubinfo.clear();
        mirrors.clear();
        while batch.len() < SERVE_BATCH {
            match ingress.data.pop() {
                Some(frame) => batch.push(frame),
                None => break,
            }
        }
        // Forwarded publishes from every other shard, producers visited
        // in ascending index order; bounded per wakeup like the batch.
        for from in 0..fabric.shards() {
            if from == idx {
                continue;
            }
            let ring = fabric.ring(from, idx);
            while fwd_in.len() < SERVE_BATCH {
                match ring.recv() {
                    Some(frame) => fwd_in.push((from, frame)),
                    None => break,
                }
            }
        }
        let tick_due = last_tick.elapsed() >= Duration::from_millis(100);
        let ring_drops = ingress.drops.swap(0, Ordering::Relaxed);
        pending_io_errors += ingress.io_errors.swap(0, Ordering::Relaxed);
        if batch.is_empty()
            && fwd_in.is_empty()
            && !tick_due
            && ring_drops == 0
            && pending_io_errors == 0
            && held_out.is_empty()
        {
            // Nothing to do. A front thread owns the blocking recv, so
            // this loop paces itself; a shard that owns the socket is
            // paced by its own receive.
            if front.is_none() {
                std::thread::sleep(Duration::from_micros(200));
            }
            continue;
        }
        // Pre-lock routing phase: router reads/writes finish (and the
        // router lock is *released*) before the broker lock is taken.
        let mut filters_dirty = false;
        for frame in &batch {
            pubinfo.push(route_prep(
                frame,
                router,
                &mut mirrors,
                &known,
                &mut filters_dirty,
            ));
        }
        for (_, frame) in &fwd_in {
            if !known.contains(&frame.topic_id) {
                if let Some(name) = router.name_of(frame.topic_id) {
                    mirrors.push((frame.topic_id, name));
                }
            }
        }
        let now_ns = start.elapsed().as_nanos() as Nanos;
        {
            let mut b = broker.lock();
            if pending_io_errors > 0 {
                b.note_io_errors(pending_io_errors);
                pending_io_errors = 0;
            }
            if ring_drops > 0 {
                b.note_ring_drops(ring_drops);
            }
            for (id, name) in mirrors.drain(..) {
                if b.mirror_topic(id, &name) {
                    known.insert(id);
                }
            }
            for (i, frame) in batch.iter().enumerate() {
                let routed = b.on_datagram_routed(now_ns, frame.from, &frame.buf, &mut out);
                if let (Ok(true), Some((tid, qos, at, len, mask))) = (routed, pubinfo[i]) {
                    // First receipt of a publish this shard accepted:
                    // encode once and fan the image into the rings of
                    // every shard with a matching subscription.
                    let payload = &frame.buf[at..at + len];
                    let outcome = fabric.forward(idx, mask, tid, qos, payload, &mut fwd_scratch);
                    for _ in 0..outcome.forwards {
                        b.note_cross_shard_forward(outcome.max_depth);
                    }
                    if outcome.drops > 0 {
                        b.note_ring_drops(outcome.drops);
                    }
                }
            }
            for (_, frame) in &fwd_in {
                b.deliver_forwarded(now_ns, frame.topic_id, frame.qos, frame.payload(), &mut out);
            }
            if tick_due {
                last_tick = Instant::now();
                b.on_tick_into(now_ns, &mut out);
            }
            if filters_dirty {
                b.collect_subscription_filters(&mut filters);
            }
        }
        // Publish the new filter union *before* flushing SUBACKs: a
        // client that publishes the instant its SUBACK arrives must
        // already be visible in every other shard's mask.
        if filters_dirty {
            router.set_filters(idx, &filters);
        }
        out.emit(
            |to, bytes| match fault.map(|f| f.fate(FaultDir::Outbound, bytes)) {
                None | Some(DatagramFate::Deliver) => {
                    if socket.send_to(bytes, *to).is_err() {
                        pending_io_errors += 1;
                    }
                }
                Some(DatagramFate::Drop) => {}
                Some(DatagramFate::Duplicate) => {
                    for _ in 0..2 {
                        if socket.send_to(bytes, *to).is_err() {
                            pending_io_errors += 1;
                        }
                    }
                }
                Some(DatagramFate::Delay(dur)) => {
                    held_out.push((Instant::now() + dur, *to, bytes.to_vec()));
                }
            },
        );
        out.clear();
        if !held_out.is_empty() {
            let now = Instant::now();
            let mut i = 0;
            while i < held_out.len() {
                if held_out[i].0 <= now {
                    let (_, to, bytes) = held_out.swap_remove(i);
                    if socket.send_to(&bytes, to).is_err() {
                        pending_io_errors += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
        // Recycle every frame so the next wakeup allocates nothing.
        for (from, frame) in fwd_in.drain(..) {
            fabric.ring(from, idx).recycle(frame);
        }
        for frame in batch.drain(..) {
            let _ = ingress.free.push(frame);
        }
    }
}

/// Errors from the blocking client.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// Protocol-level failure.
    Protocol(Error),
    /// The expected response did not arrive in time.
    Timeout(&'static str),
}

impl NetError {
    /// Whether the failure is plausibly recoverable by retrying — the
    /// signature of a network partition or a broker mid-restart — as
    /// opposed to a fatal condition (protocol violation, permission
    /// error) that no amount of retrying fixes. The capture transmitter's
    /// link keeps backing off on transient errors and jumps straight to
    /// its longest delay on fatal ones.
    pub fn is_transient(&self) -> bool {
        match self {
            // The expected response never arrived: partition or slow link.
            NetError::Timeout(_) => true,
            NetError::Io(e) => !matches!(
                e.kind(),
                io::ErrorKind::PermissionDenied
                    | io::ErrorKind::AddrInUse
                    | io::ErrorKind::AddrNotAvailable
                    | io::ErrorKind::InvalidInput
                    | io::ErrorKind::Unsupported
            ),
            // A congested broker asks the client to retry later (spec
            // return code 0x01); every other protocol error is fatal.
            NetError::Protocol(Error::Rejected(crate::packet::ReturnCode::Congestion)) => true,
            NetError::Protocol(_) => false,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}
impl From<Error> for NetError {
    fn from(e: Error) -> Self {
        NetError::Protocol(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Timeout(what) => write!(f, "timed out waiting for {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Jittered exponential backoff: the reconnect schedule of the capture
/// transmitter's link, which drives [`UdpClient::try_reconnect`].
///
/// Each [`Backoff::next_delay`] is the current delay `b` spread uniformly
/// over `[(1 − jitter)·b, (1 + jitter)·b]`; the delay then doubles, up to
/// the cap. Jitter keeps a fleet of devices that lost the same gateway
/// from retrying in lockstep (the reconnect stampede).
#[derive(Debug)]
pub struct Backoff {
    initial: Duration,
    cap: Duration,
    current: Duration,
    jitter: f64,
    rng: StdRng,
}

impl Backoff {
    /// A schedule starting at `initial` and doubling up to `cap` (both at
    /// least 1 ms). `jitter` is clamped to `[0, 1]`; 0 disables it. Seed
    /// with [`entropy_seed`] so simultaneous callers draw distinct streams.
    pub fn new(initial: Duration, cap: Duration, jitter: f64, seed: u64) -> Backoff {
        let initial = initial.max(Duration::from_millis(1));
        Backoff {
            initial,
            cap: cap.max(Duration::from_millis(1)),
            current: initial,
            jitter: jitter.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Back to the initial delay (after a successful reconnect).
    pub fn reset(&mut self) {
        self.current = self.initial;
    }

    /// The jittered delay before the next attempt; doubles the delay
    /// after it, up to the cap.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.current;
        self.current = self.current.saturating_mul(2).min(self.cap);
        if self.jitter == 0.0 {
            return base;
        }
        let unit: f64 = self.rng.gen(); // [0, 1)
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        Duration::from_nanos((base.as_nanos() as f64 * factor) as u64)
    }

    /// Jumps straight to the cap (after a fatal error that will not clear
    /// soon, but should not stop the retries either).
    pub fn saturate(&mut self) {
        self.current = self.cap;
    }
}

/// A cheap per-call entropy seed for backoff jitter: wall clock nanos mixed
/// with a process-wide counter, so simultaneous callers (the stampede case)
/// still draw distinct jitter streams. Not cryptographic.
pub fn entropy_seed() -> u64 {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    // splitmix-style avalanche so close timestamps diverge.
    let mut z = nanos ^ COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A blocking MQTT-SN client over UDP.
pub struct UdpClient {
    socket: UdpSocket,
    broker: SocketAddr,
    client: Client,
    start: Instant,
    /// The state machine's datagrams (sent after every call) and its event
    /// queue; one wire buffer reused for every outbound datagram.
    out: ClientOutputs,
    /// Chaos seam (see [`UdpClient::set_fault`]); `None` in production.
    fault: Option<Arc<dyn DatagramFault>>,
    /// Datagrams held back by an injected delay, with release deadlines.
    held_in: Vec<(Instant, Vec<u8>)>,
    held_out: Vec<(Instant, Vec<u8>)>,
}

impl UdpClient {
    /// Connects to a broker, completing the CONNECT handshake.
    pub fn connect(
        broker: SocketAddr,
        config: ClientConfig,
        timeout: Duration,
    ) -> Result<UdpClient, NetError> {
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        socket.connect(broker)?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let mut c = UdpClient {
            socket,
            broker,
            client: Client::new(config),
            start: Instant::now(),
            out: ClientOutputs::new(),
            fault: None,
            held_in: Vec::new(),
            held_out: Vec::new(),
        };
        c.client.connect(c.now(), &mut c.out);
        c.flush()?;
        c.wait_for(timeout, "CONNACK", |e| {
            matches!(e, ClientEvent::Connected | ClientEvent::ConnectFailed(_))
        })
        .and_then(|e| match e {
            ClientEvent::Connected => Ok(()),
            ClientEvent::ConnectFailed(code) => Err(NetError::Protocol(Error::Rejected(code))),
            _ => Err(NetError::Timeout("CONNACK")),
        })?;
        Ok(c)
    }

    fn now(&self) -> Nanos {
        self.start.elapsed().as_nanos() as Nanos
    }

    /// Installs a datagram fault-injection plan: every subsequent inbound
    /// and outbound datagram's fate is decided by `fault` (see
    /// [`DatagramFault`]). The plan survives reconnects — a chaos schedule
    /// keeps applying across the very link flaps it induces. Chaos testing
    /// only; the faulted paths allocate where production does not.
    pub fn set_fault(&mut self, fault: Arc<dyn DatagramFault>) {
        self.fault = Some(fault);
    }

    /// Sends the datagrams the state machine produced, each subject to the
    /// installed fault plan (if any). Stops sending at the first socket
    /// error; the rest are dropped like lost datagrams (QoS 1/2 traffic
    /// retransmits).
    fn flush(&mut self) -> Result<(), NetError> {
        let (socket, fault, held_out) = (&self.socket, &self.fault, &mut self.held_out);
        let mut sent = Ok(());
        self.out.emit(|bytes| {
            if sent.is_err() {
                return;
            }
            let fate = match fault {
                Some(f) => f.fate(FaultDir::Outbound, bytes),
                None => DatagramFate::Deliver,
            };
            sent = match fate {
                DatagramFate::Deliver => socket.send(bytes).map(drop),
                DatagramFate::Drop => Ok(()),
                DatagramFate::Duplicate => socket
                    .send(bytes)
                    .and_then(|_| socket.send(bytes))
                    .map(drop),
                DatagramFate::Delay(dur) => {
                    held_out.push((Instant::now() + dur, bytes.to_vec()));
                    Ok(())
                }
            };
        });
        Ok(sent?)
    }

    /// Releases datagrams whose injected delay has expired: held outbound
    /// frames are sent (their fate was decided when held), held inbound
    /// frames are fed to the state machine.
    fn release_held(&mut self) -> Result<(), NetError> {
        let due = Instant::now();
        let mut i = 0;
        while i < self.held_out.len() {
            if self.held_out[i].0 <= due {
                let (_, bytes) = self.held_out.swap_remove(i);
                self.socket.send(&bytes)?;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.held_in.len() {
            if self.held_in[i].0 <= due {
                let (_, bytes) = self.held_in.swap_remove(i);
                let now = self.now();
                if self.client.on_datagram(&bytes, now, &mut self.out).is_ok() {
                    self.flush()?;
                }
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Pumps the socket once (bounded by the socket read timeout) and runs
    /// timers. Surfaced events accumulate in the internal queue.
    pub fn pump(&mut self) -> Result<(), NetError> {
        if self.fault.is_some() {
            self.release_held()?;
        }
        let mut buf = [0u8; 64 * 1024];
        match self.socket.recv(&mut buf) {
            Ok(n) => {
                let fate = match &self.fault {
                    Some(f) => f.fate(FaultDir::Inbound, &buf[..n]),
                    None => DatagramFate::Deliver,
                };
                let deliveries = match fate {
                    DatagramFate::Deliver => 1,
                    DatagramFate::Drop => 0,
                    DatagramFate::Duplicate => 2,
                    DatagramFate::Delay(dur) => {
                        self.held_in.push((Instant::now() + dur, buf[..n].to_vec()));
                        0
                    }
                };
                for _ in 0..deliveries {
                    let now = self.now();
                    // Borrowed decode: inbound PUBLISH payloads are copied
                    // once into a pooled buffer, not a fresh Vec (malformed
                    // datagrams are dropped, as before).
                    if self
                        .client
                        .on_datagram(&buf[..n], now, &mut self.out)
                        .is_ok()
                    {
                        self.flush()?;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(NetError::Io(e)),
        }
        let now = self.now();
        self.client.on_tick(now, &mut self.out);
        self.flush()
    }

    /// Pops a queued event, pumping once if none is queued.
    pub fn poll_event(&mut self) -> Result<Option<ClientEvent>, NetError> {
        if let Some(e) = self.out.events.pop_front() {
            return Ok(Some(e));
        }
        self.pump()?;
        Ok(self.out.events.pop_front())
    }

    /// Pops a queued event without touching the socket (never blocks).
    pub fn pop_event(&mut self) -> Option<ClientEvent> {
        self.out.events.pop_front()
    }

    fn wait_for<F>(
        &mut self,
        timeout: Duration,
        what: &'static str,
        predicate: F,
    ) -> Result<ClientEvent, NetError>
    where
        F: Fn(&ClientEvent) -> bool,
    {
        let deadline = Instant::now() + timeout;
        let mut stash = VecDeque::new();
        loop {
            while let Some(e) = self.out.events.pop_front() {
                if predicate(&e) {
                    // Preserve unrelated events for later polls.
                    while let Some(s) = stash.pop_front() {
                        self.out.events.push_back(s);
                    }
                    return Ok(e);
                }
                stash.push_back(e);
            }
            if Instant::now() >= deadline {
                while let Some(s) = stash.pop_front() {
                    self.out.events.push_back(s);
                }
                return Err(NetError::Timeout(what));
            }
            self.pump()?;
        }
    }

    /// Registers a topic name, returning its broker-assigned id.
    pub fn register(&mut self, topic: &str, timeout: Duration) -> Result<u16, NetError> {
        let now = self.now();
        self.client.register(topic, now, &mut self.out)?;
        self.flush()?;
        let topic_owned = topic.to_owned();
        let e = self.wait_for(timeout, "REGACK", |e| {
            matches!(e, ClientEvent::Registered { topic_name, .. } if *topic_name == topic_owned)
        })?;
        match e {
            ClientEvent::Registered { topic_id, .. } => Ok(topic_id),
            _ => Err(NetError::Timeout("REGACK")),
        }
    }

    /// Subscribes to a filter; returns the assigned topic id (0 for
    /// wildcard filters).
    pub fn subscribe(
        &mut self,
        filter: &str,
        qos: QoS,
        timeout: Duration,
    ) -> Result<u16, NetError> {
        let now = self.now();
        let msg_id = self.client.subscribe(filter, qos, now, &mut self.out)?;
        self.flush()?;
        let e = self.wait_for(
            timeout,
            "SUBACK",
            |e| matches!(e, ClientEvent::Subscribed { msg_id: m, .. } if *m == msg_id),
        )?;
        match e {
            ClientEvent::Subscribed { topic_id, .. } => Ok(topic_id),
            _ => Err(NetError::Timeout("SUBACK")),
        }
    }

    /// Publishes without waiting, reporting transport trouble without
    /// losing the record: the returned flag is `false` when the initial
    /// transmission failed at the socket level — for QoS 1/2 the message
    /// is then still in-flight inside the state machine and retransmits
    /// once the link recovers. Only protocol-level refusal (bad state,
    /// full in-flight window) is an `Err`.
    pub fn publish_resilient(
        &mut self,
        topic_id: u16,
        payload: Vec<u8>,
        qos: QoS,
    ) -> Result<(u16, bool), Error> {
        let now = self.now();
        let msg_id =
            self.client
                .publish(TopicRef::Id(topic_id), payload, qos, now, &mut self.out)?;
        let sent = self.flush().is_ok();
        Ok((msg_id, sent))
    }

    /// Publishes and, for QoS 1/2, blocks until the handshake completes.
    pub fn publish(
        &mut self,
        topic_id: u16,
        payload: Vec<u8>,
        qos: QoS,
        timeout: Duration,
    ) -> Result<(), NetError> {
        let now = self.now();
        let msg_id =
            self.client
                .publish(TopicRef::Id(topic_id), payload, qos, now, &mut self.out)?;
        self.flush()?;
        if qos == QoS::AtMostOnce {
            return Ok(());
        }
        self.wait_for(timeout, "publish completion", |e| {
            matches!(
                e,
                ClientEvent::PublishDone { msg_id: m }
                | ClientEvent::PublishFailed { msg_id: m }
                | ClientEvent::PublishRejected { msg_id: m, .. } if *m == msg_id
            )
        })
        .and_then(|e| match e {
            ClientEvent::PublishDone { .. } => Ok(()),
            ClientEvent::PublishRejected { code, .. } => {
                Err(NetError::Protocol(Error::Rejected(code)))
            }
            _ => Err(NetError::Timeout("publish acknowledged")),
        })
    }

    /// Waits for the next inbound application message.
    pub fn recv_message(&mut self, timeout: Duration) -> Result<(TopicRef, Vec<u8>), NetError> {
        let e = self.wait_for(timeout, "message", |e| {
            matches!(e, ClientEvent::Message { .. })
        })?;
        match e {
            ClientEvent::Message { topic, payload } => Ok((topic, payload)),
            _ => Err(NetError::Timeout("message")),
        }
    }

    /// Number of QoS 1/2 publishes still in flight.
    pub fn inflight_len(&self) -> usize {
        self.client.inflight_len()
    }

    /// Whether another QoS 1/2 publish fits the in-flight window.
    pub fn can_publish(&self) -> bool {
        self.client.can_publish()
    }

    /// Takes a reclaimed payload buffer from a completed publish (see
    /// [`Client::take_spare_payload`]).
    pub fn take_spare_payload(&mut self) -> Option<Vec<u8>> {
        self.client.take_spare_payload()
    }

    /// Returns an unused payload buffer to the reuse pool (see
    /// [`Client::reclaim_payload`]).
    pub fn reclaim_payload(&mut self, payload: Vec<u8>) {
        self.client.reclaim_payload(payload);
    }

    /// Graceful disconnect (best effort).
    pub fn disconnect(&mut self) -> Result<(), NetError> {
        let now = self.now();
        self.client.disconnect(now, &mut self.out);
        self.flush()
    }

    /// Current connection state of the underlying state machine.
    pub fn state(&self) -> crate::ClientState {
        self.client.state()
    }

    /// Broker-assigned id of a topic registered in this (or a resumed)
    /// session. After a reconnect across a broker restart the id may
    /// differ from the one the original [`UdpClient::register`] returned.
    pub fn topic_id(&self, topic_name: &str) -> Option<u16> {
        self.client.topic_id(topic_name)
    }

    /// Drains payloads of publishes that exhausted retries or were
    /// rejected by the broker (see [`Client::take_dead_letters`]).
    pub fn take_dead_letters(&mut self) -> Vec<(u16, Vec<u8>)> {
        self.client.take_dead_letters()
    }

    /// One reconnection attempt: rebinds a fresh socket to the original
    /// broker address and runs the CONNECT handshake with
    /// `clean_session = false`, waiting until session resumption (topic
    /// re-registration, in-flight retransmission) completes. Queued
    /// application events are preserved across the attempt.
    pub fn try_reconnect(&mut self, timeout: Duration) -> Result<(), NetError> {
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        socket.connect(self.broker)?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        self.socket = socket;
        let now = self.now();
        self.client.reconnect(now, &mut self.out);
        self.flush()?;
        let deadline = Instant::now() + timeout;
        self.wait_for(timeout, "reconnect CONNACK", |e| {
            matches!(e, ClientEvent::Connected | ClientEvent::ConnectFailed(_))
        })
        .and_then(|e| match e {
            ClientEvent::Connected => Ok(()),
            ClientEvent::ConnectFailed(code) => Err(NetError::Protocol(Error::Rejected(code))),
            _ => Err(NetError::Timeout("reconnect CONNACK")),
        })?;
        while !self.client.resume_complete() {
            if Instant::now() >= deadline {
                return Err(NetError::Timeout("session resumption"));
            }
            self.pump()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeout() -> Duration {
        Duration::from_secs(5)
    }

    /// A snapshot path in a fresh temp directory named after `test`.
    fn snap_path(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mqtt-sn-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("gateway.snap")
    }

    /// Retries [`UdpClient::try_reconnect`] 50 ms apart until it succeeds;
    /// returns the number of attempts it took.
    fn reconnect(client: &mut UdpClient, attempt_timeout: Duration) -> u32 {
        for attempt in 1..=20 {
            if client.try_reconnect(attempt_timeout).is_ok() {
                return attempt;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("no reconnect in 20 attempts");
    }

    #[test]
    fn end_to_end_qos2_over_loopback() {
        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();

        let mut sub = UdpClient::connect(addr, ClientConfig::new("subscriber"), timeout()).unwrap();
        sub.subscribe("prov/#", QoS::ExactlyOnce, timeout())
            .unwrap();

        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new("publisher"), timeout()).unwrap();
        let tid = publisher.register("prov/dev1", timeout()).unwrap();
        publisher
            .publish(
                tid,
                b"hello provenance".to_vec(),
                QoS::ExactlyOnce,
                timeout(),
            )
            .unwrap();

        let (topic, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, b"hello provenance");
        assert!(matches!(topic, TopicRef::Id(_)));
        assert_eq!(publisher.inflight_len(), 0);

        let stats = broker.stats();
        assert_eq!(stats.publishes_in, 1);
        assert_eq!(stats.publishes_out, 1);
        broker.shutdown();
    }

    #[test]
    fn multiple_publishers_fan_into_one_subscriber() {
        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("sub"), timeout()).unwrap();
        sub.subscribe("wf/+", QoS::AtLeastOnce, timeout()).unwrap();

        for i in 0..3 {
            let mut p =
                UdpClient::connect(addr, ClientConfig::new(format!("pub{i}")), timeout()).unwrap();
            let tid = p.register(&format!("wf/dev{i}"), timeout()).unwrap();
            p.publish(tid, vec![i as u8], QoS::AtLeastOnce, timeout())
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            let (_, payload) = sub.recv_message(timeout()).unwrap();
            got.push(payload[0]);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn qos0_publish_recycles_payload_buffer() {
        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let mut c =
            UdpClient::connect(broker.local_addr(), ClientConfig::new("q0"), timeout()).unwrap();
        let tid = c.register("t/q0", timeout()).unwrap();
        assert!(c.take_spare_payload().is_none());
        c.publish(tid, vec![1, 2, 3], QoS::AtMostOnce, timeout())
            .unwrap();
        let spare = c
            .take_spare_payload()
            .expect("QoS 0 payload buffer returns to the pool");
        assert!(spare.is_empty() && spare.capacity() >= 3);
        broker.shutdown();
    }

    #[test]
    fn neterror_transient_classification() {
        assert!(NetError::Timeout("x").is_transient());
        assert!(NetError::Io(io::Error::from(io::ErrorKind::ConnectionRefused)).is_transient());
        assert!(NetError::Io(io::Error::from(io::ErrorKind::ConnectionReset)).is_transient());
        assert!(!NetError::Io(io::Error::from(io::ErrorKind::PermissionDenied)).is_transient());
        assert!(
            NetError::Protocol(Error::Rejected(crate::packet::ReturnCode::Congestion))
                .is_transient()
        );
        assert!(
            !NetError::Protocol(Error::Rejected(crate::packet::ReturnCode::NotSupported))
                .is_transient()
        );
        assert!(!NetError::Protocol(Error::BadState("x")).is_transient());
    }

    #[test]
    fn reconnect_resumes_session_across_broker_restart() {
        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();

        let mut sub = UdpClient::connect(addr, ClientConfig::new("rsub"), timeout()).unwrap();
        sub.subscribe("re/#", QoS::AtLeastOnce, timeout()).unwrap();
        let mut publisher = UdpClient::connect(addr, ClientConfig::new("rpub"), timeout()).unwrap();
        let tid = publisher.register("re/dev1", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        sub.recv_message(timeout()).unwrap();

        // Kill the broker, preserving its state; rebind the same port.
        let path = snap_path("resume");
        broker.shutdown_to_file(&path).unwrap();
        let broker = UdpBroker::spawn_from_file(addr, &path).unwrap();

        // Both sides reconnect with backoff; sessions resume (the
        // subscriber's subscription and the publisher's registration both
        // survive without re-issuing them).
        reconnect(&mut sub, Duration::from_secs(1));
        let attempts = reconnect(&mut publisher, Duration::from_secs(1));
        assert!(attempts >= 1);
        let new_tid = publisher.topic_id("re/dev1").expect("registration resumed");

        publisher
            .publish(new_tid, vec![2], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![2]);
        broker.shutdown();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reconnect_backs_off_until_broker_returns() {
        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let mut client = UdpClient::connect(addr, ClientConfig::new("bk"), timeout()).unwrap();
        client.register("bk/t", timeout()).unwrap();
        let path = snap_path("backoff");
        broker.shutdown_to_file(&path).unwrap();

        // Bring the broker back only after a delay: early attempts must
        // fail transiently and the retry loop must ride them out.
        let restarter = {
            let path = path.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                UdpBroker::spawn_from_file(addr, &path).unwrap()
            })
        };
        let attempts = reconnect(&mut client, Duration::from_millis(500));
        assert!(
            attempts >= 2,
            "expected early attempts to fail, got {attempts}"
        );
        let broker = restarter.join().unwrap();
        assert_eq!(client.state(), crate::ClientState::Connected);
        broker.shutdown();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn jittered_backoff_stays_within_the_window() {
        let base = Duration::from_millis(1000);
        // Initial delay == cap: every draw spreads the same base.
        let mut backoff = Backoff::new(base, base, 0.25, 7);
        let (lo, hi) = (Duration::from_millis(750), Duration::from_millis(1250));
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let d = backoff.next_delay();
            assert!(d >= lo && d <= hi, "jitter out of window: {d:?}");
            distinct.insert(d);
        }
        assert!(
            distinct.len() > 100,
            "jitter not spreading: {}",
            distinct.len()
        );
        // jitter = 0 disables jitter: the delay doubles up to the cap,
        // reset returns to the initial delay, saturate jumps to the cap.
        let ms = Duration::from_millis;
        let mut plain = Backoff::new(ms(100), ms(350), 0.0, 7);
        let delays: Vec<_> = (0..4).map(|_| plain.next_delay()).collect();
        assert_eq!(delays, vec![ms(100), ms(200), ms(350), ms(350)]);
        plain.reset();
        assert_eq!(plain.next_delay(), ms(100));
        plain.saturate();
        assert_eq!(plain.next_delay(), ms(350));
        // Out-of-range fractions are clamped.
        let mut wide = Backoff::new(base, base, 7.5, 7);
        for _ in 0..100 {
            let d = wide.next_delay();
            assert!(d <= Duration::from_millis(2000), "clamp failed: {d:?}");
        }
        // Two devices that disconnect at the same instant draw different
        // jitter streams (the stampede case entropy_seed exists for).
        assert_ne!(entropy_seed(), entropy_seed());
    }

    #[test]
    fn broker_restarts_from_snapshot_file() {
        let dir = std::env::temp_dir().join(format!("mqtt-sn-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broker.snap");

        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("fsub"), timeout()).unwrap();
        sub.subscribe("fs/#", QoS::AtLeastOnce, timeout()).unwrap();
        let mut publisher = UdpClient::connect(addr, ClientConfig::new("fpub"), timeout()).unwrap();
        let tid = publisher.register("fs/dev1", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        sub.recv_message(timeout()).unwrap();

        // Persist to disk, kill the process's broker, restart FROM THE FILE.
        broker.snapshot_to_file(&path).unwrap();
        broker.shutdown();
        let broker = UdpBroker::spawn_from_file(addr, &path).unwrap();

        reconnect(&mut sub, Duration::from_secs(1));
        reconnect(&mut publisher, Duration::from_secs(1));
        // Both the registration and the subscription survived the file trip.
        let new_tid = publisher
            .topic_id("fs/dev1")
            .expect("registration persisted");
        publisher
            .publish(new_tid, vec![2], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![2]);
        broker.shutdown();

        // A corrupt snapshot is refused, not silently started empty.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = UdpBroker::spawn_from_file("127.0.0.1:0", &path)
            .err()
            .expect("corrupt snapshot must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn broker_survives_icmp_unreachable_from_departed_client() {
        let broker = UdpBroker::spawn(
            "127.0.0.1:0",
            1,
            BrokerConfig {
                retry_timeout: Duration::from_millis(100),
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let addr = broker.local_addr();
        // A QoS 1 subscriber that vanishes without disconnecting: broker
        // retransmissions to its dead port can bounce back as ICMP
        // port-unreachable (ECONNREFUSED on Linux).
        {
            let mut sub = UdpClient::connect(addr, ClientConfig::new("ghost"), timeout()).unwrap();
            sub.subscribe("g/#", QoS::AtLeastOnce, timeout()).unwrap();
        } // socket dropped here, no DISCONNECT sent
        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new("alive"), timeout()).unwrap();
        let tid = publisher.register("g/t", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        // Let several retransmissions to the dead port happen.
        std::thread::sleep(Duration::from_millis(400));
        // The broker must still serve new clients.
        let mut check = UdpClient::connect(addr, ClientConfig::new("check"), timeout()).unwrap();
        assert!(check.register("g/ok", timeout()).is_ok());
        broker.shutdown();
    }

    #[test]
    fn garbage_datagrams_are_counted_not_swallowed() {
        let broker = UdpBroker::spawn("127.0.0.1:0", 1, BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(b"\xde\xad\xbe\xef not mqtt-sn", addr).unwrap();
        raw.send_to(&[0x05, 0x0c, 0x00], addr).unwrap(); // length mismatch

        let deadline = Instant::now() + timeout();
        while broker.stats().decode_errors < 2 {
            assert!(
                Instant::now() < deadline,
                "decode errors never surfaced: {:?}",
                broker.stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(broker.stats().decode_errors, 2);
        // The broker still serves well-formed traffic afterwards.
        let mut c = UdpClient::connect(addr, ClientConfig::new("ok"), timeout()).unwrap();
        assert!(c.register("g/after", timeout()).is_ok());
        broker.shutdown();
    }

    #[test]
    fn snapshot_does_not_stall_capture_traffic() {
        let broker = UdpBroker::spawn(
            "127.0.0.1:0",
            1,
            BrokerConfig {
                max_buffered: 1 << 14,
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let addr = broker.local_addr();

        // Inflate the broker state: a durable subscriber goes away and
        // accumulates a deep buffered backlog, the expensive thing a
        // snapshot has to serialize.
        {
            let mut away = UdpClient::connect(
                addr,
                ClientConfig {
                    clean_session: false,
                    ..ClientConfig::new("away")
                },
                timeout(),
            )
            .unwrap();
            away.subscribe("snap/bulk", QoS::AtLeastOnce, timeout())
                .unwrap();
            away.disconnect().unwrap();
        }
        let mut feeder = UdpClient::connect(addr, ClientConfig::new("feeder"), timeout()).unwrap();
        let bulk_tid = feeder.register("snap/bulk", timeout()).unwrap();
        for _ in 0..512 {
            feeder
                .publish(bulk_tid, vec![0x77; 4096], QoS::AtLeastOnce, timeout())
                .unwrap();
        }

        // Hammer snapshots from another thread while measuring publish
        // round-trip latency.
        let stop = Arc::new(AtomicBool::new(false));
        let broker = Arc::new(broker);
        let path = snap_path("stall");
        let snapper = {
            let stop = Arc::clone(&stop);
            let broker = Arc::clone(&broker);
            let path = path.clone();
            std::thread::spawn(move || {
                let mut snapshots = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    broker
                        .snapshot_to_file(&path)
                        .expect("snapshot round-trips");
                    snapshots += 1;
                }
                snapshots
            })
        };

        let mut worst = Duration::ZERO;
        let tid = feeder.register("snap/live", timeout()).unwrap();
        for _ in 0..50 {
            let t = Instant::now();
            feeder
                .publish(tid, vec![1; 32], QoS::AtLeastOnce, timeout())
                .unwrap();
            worst = worst.max(t.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        let snapshots = snapper.join().unwrap();
        assert!(snapshots > 0, "snapshot thread never ran");
        // Generous CI bound: the serve loop must never sit behind a deep
        // state clone. (The pre-fix deep-clone-under-lock implementation
        // is what this guards against regressing to.)
        assert!(
            worst < Duration::from_secs(1),
            "publish latency spiked to {worst:?} across concurrent snapshots"
        );
        assert_eq!(broker.stats().snapshot_failures, 0);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn connect_to_dead_broker_times_out() {
        // Bind a socket and drop it so nothing answers.
        let dead = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let err = UdpClient::connect(
            addr,
            ClientConfig::new("nobody"),
            Duration::from_millis(200),
        )
        .err()
        .expect("must fail");
        assert!(matches!(err, NetError::Timeout(_) | NetError::Io(_)));
    }

    /// Scripted deterministic fault: drops every datagram (both
    /// directions) whose index is in the configured drop list.
    #[derive(Debug)]
    struct DropNth {
        next: std::sync::atomic::AtomicU64,
        drop: Vec<u64>,
    }

    impl DatagramFault for DropNth {
        fn fate(&self, dir: FaultDir, _datagram: &[u8]) -> DatagramFate {
            if dir != FaultDir::Inbound {
                return DatagramFate::Deliver;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if self.drop.contains(&i) {
                DatagramFate::Drop
            } else {
                DatagramFate::Deliver
            }
        }
    }

    #[test]
    fn qos1_publish_survives_injected_datagram_loss() {
        // Drop the broker's first sight of the PUBLISH (inbound datagram
        // index 4: CONNECT, REGISTER ×2 clients... the exact index does
        // not matter — drop a window and let retransmission win).
        let fault = Arc::new(DropNth {
            next: std::sync::atomic::AtomicU64::new(0),
            drop: vec![4, 5],
        });
        let config = BrokerConfig {
            retry_timeout: Duration::from_millis(200), // keep the test fast
            ..BrokerConfig::default()
        };
        let broker = UdpBroker::spawn_with_faults("127.0.0.1:0", 1, config, fault).unwrap();
        let addr = broker.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("sub"), timeout()).unwrap();
        sub.subscribe("f/#", QoS::AtLeastOnce, timeout()).unwrap();
        let mut pub_cfg = ClientConfig::new("pub");
        pub_cfg.retry_timeout = Duration::from_millis(200);
        let mut publisher = UdpClient::connect(addr, pub_cfg, timeout()).unwrap();
        let tid = publisher.register("f/dev", timeout()).unwrap();
        publisher
            .publish(tid, b"lossy".to_vec(), QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, b"lossy");
    }

    /// A client id hashing to a different shard than `other`, by probing
    /// `base0`, `base1`, ... — placement is pure, so the probe is cheap.
    fn client_on_other_shard(base: &str, other: &str, shards: usize) -> String {
        for i in 0..256 {
            let candidate = format!("{base}{i}");
            if shard_for_client(&candidate, shards) != shard_for_client(other, shards) {
                return candidate;
            }
        }
        panic!("no client id off {other}'s shard in 256 probes");
    }

    /// Like [`client_on_other_shard`] but for co-located placement.
    fn client_on_same_shard(base: &str, other: &str, shards: usize) -> String {
        for i in 0..256 {
            let candidate = format!("{base}{i}");
            if shard_for_client(&candidate, shards) == shard_for_client(other, shards) {
                return candidate;
            }
        }
        panic!("no client id on {other}'s shard in 256 probes");
    }

    #[test]
    fn sharded_gateway_forwards_across_shards() {
        let gw = UdpBroker::spawn("127.0.0.1:0", 4, BrokerConfig::default()).unwrap();
        assert_eq!(gw.shards(), 4);
        let addr = gw.local_addr();

        let mut sub = UdpClient::connect(addr, ClientConfig::new("collector"), timeout()).unwrap();
        sub.subscribe("sh/#", QoS::AtLeastOnce, timeout()).unwrap();

        let pub_id = client_on_other_shard("xdev", "collector", 4);
        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new(pub_id.clone()), timeout()).unwrap();
        let tid = publisher.register("sh/dev", timeout()).unwrap();
        publisher
            .publish(tid, b"edge-record".to_vec(), QoS::AtLeastOnce, timeout())
            .unwrap();
        let (topic, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, b"edge-record");
        assert_eq!(topic, TopicRef::Id(tid));

        let merged = gw.stats();
        assert_eq!(merged.publishes_in, 1);
        assert_eq!(merged.publishes_out, 1);
        assert_eq!(merged.cross_shard_forwards, 1);
        assert!(merged.forward_ring_high_water >= 1);
        assert_eq!(merged.drops, 0);
        // The split is visible per shard: the publisher's shard took the
        // publish in, the collector's shard fanned it out.
        let per_shard = gw.shard_stats();
        assert_eq!(per_shard[gw.shard_of(&pub_id)].publishes_in, 1);
        assert_eq!(per_shard[gw.shard_of("collector")].publishes_out, 1);
        assert_ne!(gw.shard_of(&pub_id), gw.shard_of("collector"));
        gw.shutdown();
    }

    #[test]
    fn sharded_gateway_same_shard_skips_the_fabric() {
        let gw = UdpBroker::spawn("127.0.0.1:0", 4, BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("localsub"), timeout()).unwrap();
        sub.subscribe("loc/#", QoS::AtLeastOnce, timeout()).unwrap();
        let pub_id = client_on_same_shard("locdev", "localsub", 4);
        let mut publisher = UdpClient::connect(addr, ClientConfig::new(pub_id), timeout()).unwrap();
        let tid = publisher.register("loc/dev", timeout()).unwrap();
        publisher
            .publish(tid, vec![7], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![7]);
        let merged = gw.stats();
        assert_eq!(merged.publishes_in, 1);
        assert_eq!(merged.publishes_out, 1);
        assert_eq!(
            merged.cross_shard_forwards, 0,
            "co-located delivery must never touch the forwarding fabric"
        );
        gw.shutdown();
    }

    #[test]
    fn sharded_gateway_qos2_exactly_once_across_shards() {
        let gw = UdpBroker::spawn("127.0.0.1:0", 4, BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("q2sub"), timeout()).unwrap();
        sub.subscribe("q2/#", QoS::ExactlyOnce, timeout()).unwrap();
        let pub_id = client_on_other_shard("q2dev", "q2sub", 4);
        let mut publisher = UdpClient::connect(addr, ClientConfig::new(pub_id), timeout()).unwrap();
        let tid = publisher.register("q2/dev", timeout()).unwrap();
        for seq in 0..4u8 {
            publisher
                .publish(tid, vec![seq], QoS::ExactlyOnce, timeout())
                .unwrap();
        }
        for seq in 0..4u8 {
            let (_, payload) = sub.recv_message(timeout()).unwrap();
            assert_eq!(payload, vec![seq], "cross-shard QoS 2 must stay in order");
        }
        let merged = gw.stats();
        assert_eq!(merged.publishes_in, 4);
        assert_eq!(merged.publishes_out, 4);
        assert_eq!(merged.cross_shard_forwards, 4);
        assert_eq!(merged.duplicates_suppressed, 0);
        gw.shutdown();
    }

    #[test]
    fn sharded_gateway_restarts_from_one_atomic_snapshot_file() {
        let dir = std::env::temp_dir().join(format!("mqtt-sn-shsnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gateway.snap");

        let gw = UdpBroker::spawn("127.0.0.1:0", 4, BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("psub"), timeout()).unwrap();
        sub.subscribe("ps/#", QoS::AtLeastOnce, timeout()).unwrap();
        let pub_id = client_on_other_shard("psdev", "psub", 4);
        let mut publisher = UdpClient::connect(addr, ClientConfig::new(pub_id), timeout()).unwrap();
        let tid = publisher.register("ps/dev1", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        sub.recv_message(timeout()).unwrap();

        // Stop all shards, persist one file, restart from it.
        gw.shutdown_to_file(&path).unwrap();
        let gw = UdpBroker::spawn_from_file(addr, &path).unwrap();
        assert_eq!(gw.shards(), 4, "shard count comes from the file");

        reconnect(&mut sub, Duration::from_secs(1));
        reconnect(&mut publisher, Duration::from_secs(1));
        // Registration, subscription, AND the shared-registry id
        // assignment all survived the file trip: a cross-shard publish
        // still routes.
        let new_tid = publisher
            .topic_id("ps/dev1")
            .expect("registration persisted");
        assert_eq!(
            new_tid, tid,
            "shared registry ids are stable across restart"
        );
        publisher
            .publish(new_tid, vec![2], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![2]);
        // One forward before the restart (persisted with the stats) plus
        // one after: the counter survives the file trip.
        assert_eq!(gw.stats().cross_shard_forwards, 2);
        gw.shutdown();

        // A corrupt file is refused outright — no shard starts.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = UdpBroker::spawn_from_file("127.0.0.1:0", &path)
            .err()
            .expect("corrupt sharded snapshot must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // So is a truncated one (a partial per-shard section).
        let good = {
            let mut b = std::fs::read(&path).unwrap();
            let last = b.len() - 1;
            b[last] ^= 0xFF; // undo the corruption
            b
        };
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        let err = UdpBroker::spawn_from_file("127.0.0.1:0", &path)
            .err()
            .expect("truncated sharded snapshot must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A single-broker file from before the gateway was sharded (a
        // checksummed raw broker state) migrates: it resumes as one shard
        // whose durable QoS 1 subscription still receives.
        let mut legacy: Broker<SocketAddr> = Broker::new(BrokerConfig::default());
        let away = SocketAddr::from(([127, 0, 0, 1], 9));
        for packet in [
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "legacy-sub".into(),
            },
            Packet::Subscribe {
                dup: false,
                qos: QoS::AtLeastOnce,
                msg_id: 1,
                topic: TopicRef::Name("lg/old".into()),
            },
            Packet::Subscribe {
                dup: false,
                qos: QoS::AtLeastOnce,
                msg_id: 2,
                topic: TopicRef::Name("lg/#".into()),
            },
            Packet::Disconnect { duration: None },
        ] {
            legacy.on_packet_into(0, away, packet, &mut BrokerOutputs::new());
        }
        let old_id = legacy.registry_mut().id_of("lg/old").unwrap();
        prov_wal::snapshot::write_atomic(&path, &legacy.encode_state()).unwrap();
        let gw = UdpBroker::spawn_from_file("127.0.0.1:0", &path).unwrap();
        assert_eq!(gw.shards(), 1, "a legacy file resumes as one shard");
        let addr = gw.local_addr();
        let mut sub = UdpClient::connect(
            addr,
            ClientConfig {
                clean_session: false,
                ..ClientConfig::new("legacy-sub")
            },
            timeout(),
        )
        .unwrap();
        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new("lgdev"), timeout()).unwrap();
        let tid = publisher.register("lg/dev", timeout()).unwrap();
        assert_ne!(tid, old_id, "the router is seeded from the legacy registry");
        publisher
            .publish(tid, vec![3], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![3]);
        gw.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_gateway_merges_congestion_as_the_hottest_shard() {
        let gw = UdpBroker::spawn("127.0.0.1:0", 2, BrokerConfig::default()).unwrap();
        assert_eq!(gw.congestion_level(), 0);
        assert_eq!(gw.backlog(), 0);
        assert_eq!(gw.shard_backlogs(), vec![0, 0]);
        gw.shutdown();
    }
}
