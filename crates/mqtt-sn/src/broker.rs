//! Sans-io MQTT-SN broker (the role Eclipse RSMB plays in the paper's
//! Fig. 3 architecture).
//!
//! The broker is generic over the peer address type `A` (a `SocketAddr`
//! for the real-UDP binding, a small actor id in the simulator). It keeps
//! per-client sessions, a shared topic registry, subscription state, and
//! QoS state machines in both directions:
//!
//! * **inbound QoS 2** (publisher → broker): the message is forwarded to
//!   subscribers on *first* receipt and duplicate PUBLISHes are suppressed
//!   until the PUBREL clears the message id — exactly-once semantics;
//! * **outbound QoS 1/2** (broker → subscriber): per-subscriber message-id
//!   allocation, retransmission with DUP on [`Broker::on_tick_into`], and the
//!   4-way handshake for QoS 2 subscribers.

use crate::client::Nanos;
use crate::packet::{
    encode_publish_into, publish_flags, Packet, PacketRef, PublishWire, QoS, ReturnCode, TopicRef,
};
use crate::topic::{filter_is_valid, topic_matches, TopicRegistry};
use crate::Error;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::time::Duration;

/// Broker configuration.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Gateway id used in ADVERTISE/GWINFO.
    pub gw_id: u8,
    /// Retransmission timeout for broker→subscriber QoS traffic.
    pub retry_timeout: Duration,
    /// Maximum retransmissions before dropping an outbound message.
    pub max_retries: u32,
    /// Per-session cap on messages buffered while the subscriber is asleep
    /// or away (durable session); the oldest message is dropped — and
    /// counted in [`BrokerStats::drops`] — when the cap is exceeded.
    pub max_buffered: usize,
    /// Broker-wide backlog (buffered + unacknowledged outbound messages,
    /// summed over every session) at which the broker advertises *soft*
    /// congestion to publishers via [`Packet::CongestionAdvisory`] —
    /// publishers should pace and coalesce, nothing is rejected yet.
    pub congestion_soft: usize,
    /// Broker-wide backlog at which congestion turns *hard*: QoS ≥ 1
    /// publishes are rejected with [`ReturnCode::Congestion`] (counted in
    /// [`BrokerStats::congestion_rejects`]) instead of buffered toward the
    /// per-session drop cap. A single session reaching
    /// [`BrokerConfig::max_buffered`] also trips this level.
    pub congestion_hard: usize,
    /// Master switch for backpressure signaling (advisories and
    /// congestion rejects). `false` restores the pre-backpressure
    /// buffer-then-drop behaviour — the ablation arm of the overload
    /// experiment.
    pub signal_congestion: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            gw_id: 1,
            retry_timeout: Duration::from_secs(10),
            max_retries: 5,
            max_buffered: 4096,
            // Soft well before any single session's drop cap so pacing
            // starts while drops are still avoidable; hard at 2× the
            // per-session cap means multiple subscribers are backed up.
            congestion_soft: 2048,
            congestion_hard: 8192,
            signal_congestion: true,
        }
    }
}

/// Routing statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// PUBLISH packets received from publishers.
    pub publishes_in: u64,
    /// PUBLISH packets sent to subscribers.
    pub publishes_out: u64,
    /// Duplicate QoS 2 publishes suppressed.
    pub duplicates_suppressed: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Outbound messages dropped after retry exhaustion.
    pub drops: u64,
    /// Inbound datagrams that failed to decode (malformed or truncated).
    pub decode_errors: u64,
    /// Transient socket errors a transport binding backed off on.
    pub io_errors: u64,
    /// QoS ≥ 1 publishes rejected with [`ReturnCode::Congestion`] while
    /// the backlog was past the hard watermark.
    pub congestion_rejects: u64,
    /// [`Packet::CongestionAdvisory`] packets sent to clients.
    pub advisories_sent: u64,
    /// High-water mark of the broker-wide backlog (buffered +
    /// unacknowledged outbound messages across all sessions).
    pub backlog_high_water: u64,
    /// State snapshot encode/decode round-trips that failed (see
    /// `UdpBroker::snapshot_to_file` in [`crate::net`]).
    pub snapshot_failures: u64,
    /// Publishes this shard forwarded into a cross-shard ring (sharded
    /// gateway: the publish was accepted here, but some subscribers live
    /// on other shards). Zero on an unsharded broker.
    pub cross_shard_forwards: u64,
    /// High-water occupancy observed across this shard's outbound
    /// cross-shard forwarding rings, measured after each enqueue. Zero on
    /// an unsharded broker.
    pub forward_ring_high_water: u64,
}

impl BrokerStats {
    /// Field-wise merge for sharded gateways: counters add, high-water
    /// marks take the maximum across shards (a per-shard watermark summed
    /// over shards would report a backlog no single lock ever saw).
    pub fn merge(&mut self, other: &BrokerStats) {
        self.publishes_in += other.publishes_in;
        self.publishes_out += other.publishes_out;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.retransmissions += other.retransmissions;
        self.drops += other.drops;
        self.decode_errors += other.decode_errors;
        self.io_errors += other.io_errors;
        self.congestion_rejects += other.congestion_rejects;
        self.advisories_sent += other.advisories_sent;
        self.backlog_high_water = self.backlog_high_water.max(other.backlog_high_water);
        self.snapshot_failures += other.snapshot_failures;
        self.cross_shard_forwards += other.cross_shard_forwards;
        self.forward_ring_high_water = self
            .forward_ring_high_water
            .max(other.forward_ring_high_water);
    }
}

/// Caller-owned, recycled output buffer for the zero-allocation broker
/// path: every outbound packet is encoded into one shared wire buffer and
/// addressed by byte range, so a serve loop flushes with plain `send_to`
/// calls and the steady state performs no per-packet heap traffic.
///
/// Fan-out sharing: when one PUBLISH routes to N subscribers the wire
/// image is encoded **once**; the per-subscriber copies reference the same
/// range with a 3-byte header patch (flags byte + message id) applied in
/// [`BrokerOutputs::emit`] order, so QoS-downgraded or msg-id-bearing
/// copies never re-encode the payload.
#[derive(Debug, Default)]
pub struct BrokerOutputs<A> {
    wire: Vec<u8>,
    sends: Vec<SendOp<A>>,
}

#[derive(Debug)]
struct SendOp<A> {
    to: A,
    range: std::ops::Range<usize>,
    patch: Option<PublishPatch>,
}

#[derive(Debug)]
struct PublishPatch {
    flags_at: usize,
    msg_id_at: usize,
    flags: u8,
    msg_id: u16,
}

impl<A> BrokerOutputs<A> {
    /// Creates an empty output buffer (allocates lazily on first use).
    pub fn new() -> Self {
        BrokerOutputs {
            wire: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Resets for the next batch, retaining capacity.
    pub fn clear(&mut self) {
        self.wire.clear();
        self.sends.clear();
    }

    /// Number of datagrams produced.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether no datagrams were produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// Applies pending header patches and yields `(destination, datagram)`
    /// in production order. Safe to call repeatedly; patches are
    /// idempotent and applied immediately before each datagram is yielded,
    /// which is what makes sharing one wire image across subscribers with
    /// distinct message ids correct.
    pub fn emit(&mut self, mut f: impl FnMut(&A, &[u8])) {
        // lint: zero-alloc-begin
        for op in &self.sends {
            if let Some(p) = &op.patch {
                self.wire[p.flags_at] = p.flags;
                self.wire[p.msg_id_at..p.msg_id_at + 2].copy_from_slice(&p.msg_id.to_be_bytes());
            }
            f(&op.to, &self.wire[op.range.start..op.range.end]);
        }
        // lint: zero-alloc-end
    }
}

/// Where packet dispatch writes its outbound traffic: encoded wire ranges
/// in a caller-owned [`BrokerOutputs`], with single-encode fan-out.
struct WireSink<'o, A> {
    out: &'o mut BrokerOutputs<A>,
    /// Identity of the last publish wire image, for fan-out reuse. The
    /// pointer is compared, never dereferenced; it stays meaningful
    /// because a sink lives within a single dispatch call, during which
    /// the payload slice is pinned.
    cached: Option<CachedPublish>,
}

struct CachedPublish {
    payload_ptr: *const u8,
    payload_len: usize,
    topic_id: u16,
    dup: bool,
    wire: PublishWire,
}

impl<'o, A> WireSink<'o, A> {
    fn new(out: &'o mut BrokerOutputs<A>) -> Self {
        WireSink { out, cached: None }
    }

    fn push(&mut self, to: A, packet: Packet) {
        let start = self.out.wire.len();
        packet.encode_into(&mut self.out.wire);
        self.out.sends.push(SendOp {
            to,
            range: start..self.out.wire.len(),
            patch: None,
        });
    }

    fn push_publish(
        &mut self,
        to: A,
        dup: bool,
        qos: QoS,
        topic_id: u16,
        msg_id: u16,
        payload: &[u8],
    ) {
        // lint: zero-alloc-begin
        let topic = TopicRef::Id(topic_id);
        if let Some(c) = &self.cached {
            if c.payload_ptr == payload.as_ptr()
                && c.payload_len == payload.len()
                && c.topic_id == topic_id
                && c.dup == dup
            {
                self.out.sends.push(SendOp {
                    to,
                    range: c.wire.start..c.wire.end,
                    patch: Some(PublishPatch {
                        flags_at: c.wire.flags_at,
                        msg_id_at: c.wire.msg_id_at,
                        flags: publish_flags(dup, qos, false, &topic),
                        msg_id,
                    }),
                });
                return;
            }
        }
        let wire =
            encode_publish_into(dup, qos, false, &topic, msg_id, payload, &mut self.out.wire);
        // The first copy also records its header values as a patch: later
        // copies patch the shared bytes in place, so every send must
        // restore its own header for `emit` to stay repeatable.
        self.out.sends.push(SendOp {
            to,
            range: wire.start..wire.end,
            patch: Some(PublishPatch {
                flags_at: wire.flags_at,
                msg_id_at: wire.msg_id_at,
                flags: publish_flags(dup, qos, false, &topic),
                msg_id,
            }),
        });
        self.cached = Some(CachedPublish {
            payload_ptr: payload.as_ptr(),
            payload_len: payload.len(),
            topic_id,
            dup,
            wire,
        });
        // lint: zero-alloc-end
    }
}

/// Which acknowledgement an in-flight outbound message is waiting for.
#[derive(Clone, Debug)]
enum OutPhase {
    Puback,
    Pubrec,
    Pubcomp,
}

#[derive(Clone, Debug)]
struct Outbound {
    topic_id: u16,
    payload: Vec<u8>,
    qos: QoS,
    phase: OutPhase,
    last_sent: Nanos,
    retries: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SessionState {
    Active,
    /// DISCONNECT with a duration: the device sleeps; publishes are
    /// buffered and flushed on its next PINGREQ (spec §6.14 — the
    /// feature that lets battery-powered devices duty-cycle their radio).
    Asleep,
    Disconnected,
}

#[derive(Clone, Debug)]
struct Session {
    client_id: String,
    state: SessionState,
    /// Connected with `clean_session = false`: the session (subscriptions,
    /// QoS state, buffered messages) survives disconnection and is resumed
    /// on the next CONNECT with this client id — even from a different
    /// transport address.
    durable: bool,
    /// Messages buffered while asleep or away: (topic id, payload, qos).
    /// A deque so cap-overflow eviction of the oldest message is O(1).
    buffered: VecDeque<(u16, Vec<u8>, QoS)>,
    subscriptions: Vec<(String, QoS)>,
    next_msg_id: u16,
    outbound: HashMap<u16, Outbound>,
    /// Publisher-side QoS 2 ids already forwarded, awaiting PUBREL.
    inbound_qos2: HashMap<u16, ()>,
    /// Recently *completed* inbound QoS 2 ids (PUBREL processed), newest
    /// last. Clearing dedup state at PUBREL alone is not enough on a
    /// datagram transport: a delayed copy of the PUBLISH can arrive after
    /// the handshake completes and would be re-forwarded as a new message.
    /// Publishers allocate ids sequentially (wrapping at 65536), so a
    /// legitimate reuse of an id is tens of thousands of handshakes away —
    /// far beyond this window — while late duplicates land within a few.
    completed_qos2: VecDeque<u16>,
    last_seen: Nanos,
    /// Last congestion level advertised to this client, so advisories are
    /// only sent on level changes. Transient (not persisted in
    /// snapshots): a restarted broker simply re-advises on the next
    /// publish.
    advised_level: u8,
}

impl Session {
    fn new(client_id: String, now: Nanos) -> Self {
        Session {
            client_id,
            state: SessionState::Active,
            durable: false,
            buffered: VecDeque::new(),
            subscriptions: Vec::new(),
            next_msg_id: 1,
            outbound: HashMap::new(),
            inbound_qos2: HashMap::new(),
            completed_qos2: VecDeque::new(),
            last_seen: now,
            advised_level: 0,
        }
    }

    /// Moves a completed inbound QoS 2 id into the bounded
    /// recently-completed window (evicting the oldest at capacity).
    fn complete_inbound_qos2(&mut self, msg_id: u16) {
        if self.inbound_qos2.remove(&msg_id).is_some() {
            if self.completed_qos2.len() >= COMPLETED_QOS2_WINDOW {
                self.completed_qos2.pop_front();
            }
            self.completed_qos2.push_back(msg_id);
        }
    }

    /// A PUBLISH with this id is a duplicate: either mid-handshake
    /// (awaiting PUBREL) or a late copy of a completed handshake.
    fn inbound_qos2_dup(&self, msg_id: u16) -> bool {
        self.inbound_qos2.contains_key(&msg_id) || self.completed_qos2.contains(&msg_id)
    }

    fn alloc_msg_id(&mut self) -> u16 {
        loop {
            let id = self.next_msg_id;
            self.next_msg_id = self.next_msg_id.wrapping_add(1);
            if self.next_msg_id == 0 {
                self.next_msg_id = 1;
            }
            if id != 0 && !self.outbound.contains_key(&id) {
                return id;
            }
        }
    }
}

/// The broker state machine.
///
/// [`Broker::encode_state`] serializes the complete session/registry
/// state — the basis of restart persistence: a crashed gateway respawns
/// from its snapshot file (see `UdpBroker::spawn_from_file` in
/// [`crate::net`]) without losing durable sessions or topic
/// registrations.
#[derive(Clone, Debug)]
pub struct Broker<A: Clone + Eq + Hash> {
    config: BrokerConfig,
    registry: TopicRegistry,
    sessions: HashMap<A, Session>,
    /// Insertion order of sessions, for deterministic fan-out.
    order: Vec<A>,
    stats: BrokerStats,
    /// Bumped whenever sessions or subscriptions mutate; validates
    /// `routes` entries.
    route_epoch: u64,
    /// Per-topic fan-out cache. Routing a PUBLISH in steady state is then
    /// one hash lookup instead of a scan over every session's
    /// subscription list.
    routes: HashMap<u16, CachedRoute<A>>,
    /// Recycled payload buffers for outbound QoS state and away-session
    /// buffering, so steady-state QoS 1/2 forwarding stores its required
    /// retransmission copy without allocating.
    payload_pool: Vec<Vec<u8>>,
    /// Whether the most recent datagram handed to
    /// [`Broker::on_datagram_routed`] carried a PUBLISH that was accepted
    /// for fan-out (first receipt, valid topic, not congestion-rejected).
    /// Transient — never persisted.
    last_publish_forwarded: bool,
}

/// One cached fan-out route: the [`Broker::route_epoch`] it was computed
/// at, plus the matching targets as (address, subscription QoS, away).
type CachedRoute<A> = (u64, Vec<(A, QoS, bool)>);

/// Upper bound on payload buffers retained for reuse.
const MAX_POOLED_PAYLOADS: usize = 64;

impl<A: Clone + Eq + Hash> Broker<A> {
    /// Creates an empty broker.
    pub fn new(config: BrokerConfig) -> Self {
        Broker {
            config,
            registry: TopicRegistry::new(),
            sessions: HashMap::new(),
            order: Vec::new(),
            stats: BrokerStats::default(),
            route_epoch: 0,
            routes: HashMap::new(),
            payload_pool: Vec::new(),
            last_publish_forwarded: false,
        }
    }

    /// Invalidates every cached fan-out route; called on any mutation
    /// that can change routing (session create/remove/migrate/state,
    /// subscription change).
    fn invalidate_routes(&mut self) {
        self.route_epoch = self.route_epoch.wrapping_add(1);
    }

    /// Routing statistics.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Folds transient socket-error counts observed by a transport
    /// binding into the stats surface (see [`BrokerStats::io_errors`]).
    pub fn note_io_errors(&mut self, n: u64) {
        self.stats.io_errors += n;
    }

    /// Records a failed state snapshot (see
    /// [`BrokerStats::snapshot_failures`]); called by transport bindings
    /// whose encode/decode round-trip did not survive.
    pub fn note_snapshot_failure(&mut self) {
        self.stats.snapshot_failures += 1;
    }

    /// Records one publish forwarded into a cross-shard ring whose
    /// post-enqueue occupancy was `ring_depth` (see
    /// [`BrokerStats::cross_shard_forwards`] /
    /// [`BrokerStats::forward_ring_high_water`]). Called by the sharded
    /// transport while it still holds this shard's lock.
    pub fn note_cross_shard_forward(&mut self, ring_depth: u64) {
        self.stats.cross_shard_forwards += 1;
        self.stats.forward_ring_high_water = self.stats.forward_ring_high_water.max(ring_depth);
    }

    /// Folds drops that happened outside the state machine (a full
    /// inbound or forwarding ring in the sharded transport) into this
    /// shard's [`BrokerStats::drops`], keeping the no-silent-loss
    /// accounting exact.
    pub fn note_ring_drops(&mut self, n: u64) {
        self.stats.drops += n;
    }

    /// Broker-wide backlog and the most-backed-up single session, both as
    /// buffered + unacknowledged outbound message counts. O(sessions) —
    /// no allocation, and session counts are tiny next to per-publish
    /// encode work.
    fn backlog_scan(&self) -> (usize, usize) {
        let mut total = 0;
        let mut worst = 0;
        for s in self.sessions.values() {
            let n = s.buffered.len() + s.outbound.len();
            total += n;
            worst = worst.max(n);
        }
        (total, worst)
    }

    /// Current broker-wide backlog: messages buffered for away/sleeping
    /// sessions plus unacknowledged outbound QoS traffic. A slow
    /// subscriber — e.g. a translator that stopped draining — shows up
    /// here, which is how server-side lag propagates back to the gateway's
    /// congestion signal.
    pub fn backlog(&self) -> usize {
        self.backlog_scan().0
    }

    fn level_from(&self, total: usize, worst_session: usize) -> u8 {
        let session_soft = (self.config.max_buffered / 4).max(1) * 3;
        if total >= self.config.congestion_hard || worst_session >= self.config.max_buffered {
            2
        } else if total >= self.config.congestion_soft || worst_session >= session_soft {
            1
        } else {
            0
        }
    }

    /// Current congestion level: 0 = clear, 1 = soft (publishers are
    /// advised to pace), 2 = hard (QoS ≥ 1 publishes are rejected when
    /// [`BrokerConfig::signal_congestion`] is on).
    pub fn congestion_level(&self) -> u8 {
        let (total, worst) = self.backlog_scan();
        self.level_from(total, worst)
    }

    fn pooled_copy(pool: &mut Vec<Vec<u8>>, payload: &[u8]) -> Vec<u8> {
        let mut buf = pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        buf
    }

    fn reclaim_payload(pool: &mut Vec<Vec<u8>>, payload: Vec<u8>) {
        if pool.len() < MAX_POOLED_PAYLOADS {
            pool.push(payload);
        }
    }

    /// Access to the topic registry (e.g. to seed predefined topics).
    /// Conservatively invalidates the fan-out route cache: remapping a
    /// topic id changes which subscriptions a publish to it matches.
    pub fn registry_mut(&mut self) -> &mut TopicRegistry {
        self.invalidate_routes();
        &mut self.registry
    }

    /// Number of active (awake) sessions.
    pub fn session_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| s.state == SessionState::Active)
            .count()
    }

    /// Number of sleeping sessions.
    pub fn sleeping_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| s.state == SessionState::Asleep)
            .count()
    }

    /// Handles one decoded packet, encoding every output datagram into the
    /// caller-owned (and recycled) `out` buffer with single-encode fan-out.
    pub fn on_packet_into(
        &mut self,
        now: Nanos,
        from: A,
        packet: Packet,
        out: &mut BrokerOutputs<A>,
    ) {
        self.dispatch(now, from, packet, &mut WireSink::new(out));
    }

    /// Handles one raw datagram end to end: borrowed decode (PUBLISH
    /// payloads are never copied into an owned `Vec`), state-machine
    /// dispatch, and wire encoding into `out`. Decode failures are
    /// counted in [`BrokerStats::decode_errors`] and returned.
    ///
    /// The verdict is for sharded transports: `Ok(true)` when the
    /// datagram carried a PUBLISH that this broker accepted for fan-out
    /// (first receipt, valid topic id, not congestion-rejected) — exactly
    /// the cases a sharded front must also forward to the other shards'
    /// subscribers. QoS 2 duplicates and rejected publishes return
    /// `Ok(false)`, so a message can never cross the shard boundary twice.
    pub fn on_datagram_routed(
        &mut self,
        now: Nanos,
        from: A,
        datagram: &[u8],
        out: &mut BrokerOutputs<A>,
    ) -> Result<bool, Error> {
        // lint: zero-alloc-begin
        self.last_publish_forwarded = false;
        let mut sink = WireSink::new(out);
        match Packet::decode_borrowed(datagram) {
            Ok(PacketRef::Publish {
                qos,
                topic,
                msg_id,
                payload,
                ..
            }) => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.last_seen = now;
                }
                self.handle_publish(now, from, qos, topic, msg_id, payload, &mut sink);
            }
            Ok(PacketRef::Owned(p)) => self.dispatch(now, from, p, &mut sink),
            Err(e) => {
                self.stats.decode_errors += 1;
                return Err(e);
            }
        }
        Ok(self.last_publish_forwarded)
        // lint: zero-alloc-end
    }

    /// Delivers a publish owned by another shard to this shard's matching
    /// subscribers: same fan-out, buffering, and QoS machinery as a local
    /// publish, minus the publisher-side accounting and acknowledgments
    /// (the owning shard already counted `publishes_in` and ran the
    /// QoS 1/2 handshake). `qos` is the publish QoS; each delivery is
    /// capped at the subscriber's granted QoS as usual.
    pub fn deliver_forwarded(
        &mut self,
        now: Nanos,
        topic_id: u16,
        qos: QoS,
        payload: &[u8],
        out: &mut BrokerOutputs<A>,
    ) {
        // lint: zero-alloc-begin
        if self.registry.name_of(topic_id).is_none() {
            // The sending shard resolved the id against the shared
            // registry; an unknown id here means the local mirror is
            // behind, and delivering to no one is the only safe option.
            return;
        }
        let (total, _) = self.backlog_scan();
        self.stats.backlog_high_water = self.stats.backlog_high_water.max(total as u64);
        let mut sink = WireSink::new(out);
        self.fan_out(now, topic_id, qos, payload, &mut sink);
        // lint: zero-alloc-end
    }

    /// Mirrors a topic assignment made by an authoritative shared
    /// registry (sharded gateway) into this broker's local registry; see
    /// [`TopicRegistry::mirror`]. Invalidates the route cache on success
    /// — a new id can change which subscriptions a publish matches.
    pub fn mirror_topic(&mut self, id: u16, name: &str) -> bool {
        if self.registry.mirror(id, name) {
            self.invalidate_routes();
            true
        } else {
            false
        }
    }

    /// Whether `id` resolves in this broker's local topic registry.
    pub fn topic_known(&self, id: u16) -> bool {
        self.registry.name_of(id).is_some()
    }

    /// Collects the subscription filters of every fan-out-eligible
    /// session (deduplicated) into `into`, clearing it first. The sharded
    /// router uses this per-shard union to decide which shards a publish
    /// must be forwarded to.
    pub fn collect_subscription_filters(&self, into: &mut Vec<String>) {
        into.clear();
        for s in self.sessions.values() {
            if s.state == SessionState::Disconnected && !s.durable {
                continue;
            }
            for (filter, _) in &s.subscriptions {
                if !into.iter().any(|f| f == filter) {
                    into.push(filter.clone());
                }
            }
        }
    }

    fn dispatch(&mut self, now: Nanos, from: A, packet: Packet, sink: &mut WireSink<'_, A>) {
        if let Some(s) = self.sessions.get_mut(&from) {
            s.last_seen = now;
        }
        match packet {
            Packet::SearchGw { .. } => sink.push(
                from,
                Packet::GwInfo {
                    gw_id: self.config.gw_id,
                },
            ),
            Packet::Connect {
                clean_session,
                client_id,
                ..
            } => self.handle_connect(now, from, clean_session, client_id, sink),
            Packet::Register {
                msg_id, topic_name, ..
            } => {
                let (topic_id, code) = match self.registry.register(&topic_name) {
                    Some(id) => (id, ReturnCode::Accepted),
                    None => (0, ReturnCode::NotSupported),
                };
                sink.push(
                    from,
                    Packet::RegAck {
                        topic_id,
                        msg_id,
                        code,
                    },
                );
            }
            Packet::Subscribe {
                qos, msg_id, topic, ..
            } => self.handle_subscribe(from, qos, msg_id, topic, sink),
            Packet::Unsubscribe { msg_id, topic } => {
                self.invalidate_routes();
                if let Some(session) = self.sessions.get_mut(&from) {
                    let name = match &topic {
                        TopicRef::Name(n) => Some(n.as_str()),
                        TopicRef::Id(id) | TopicRef::Predefined(id) => self.registry.name_of(*id),
                    };
                    if let Some(name) = name {
                        session.subscriptions.retain(|(f, _)| f != name);
                    }
                }
                sink.push(from, Packet::UnsubAck { msg_id });
            }
            Packet::Publish {
                dup: _,
                qos,
                topic,
                msg_id,
                payload,
                ..
            } => self.handle_publish(now, from, qos, topic, msg_id, &payload, sink),
            Packet::PubRel { msg_id } => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.complete_inbound_qos2(msg_id);
                }
                sink.push(from, Packet::PubComp { msg_id });
            }
            Packet::PubAck { msg_id, .. } => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    if matches!(
                        s.outbound.get(&msg_id).map(|o| &o.phase),
                        Some(OutPhase::Puback)
                    ) {
                        if let Some(o) = s.outbound.remove(&msg_id) {
                            Self::reclaim_payload(&mut self.payload_pool, o.payload);
                        }
                    }
                }
            }
            Packet::PubRec { msg_id } => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    if let Some(o) = s.outbound.get_mut(&msg_id) {
                        o.phase = OutPhase::Pubcomp;
                        o.last_sent = now;
                        o.retries = 0;
                    }
                }
                sink.push(from, Packet::PubRel { msg_id });
            }
            Packet::PubComp { msg_id } => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    if let Some(o) = s.outbound.remove(&msg_id) {
                        Self::reclaim_payload(&mut self.payload_pool, o.payload);
                    }
                }
            }
            Packet::PingReq => {
                // A sleeping client's PINGREQ triggers delivery of
                // everything buffered while it slept, then the PINGRESP.
                if matches!(
                    self.sessions.get(&from).map(|s| s.state),
                    Some(SessionState::Asleep)
                ) {
                    self.deliver_buffered(now, from.clone(), sink);
                }
                sink.push(from, Packet::PingResp);
            }
            Packet::Disconnect { duration } => {
                self.invalidate_routes();
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.state = if duration.is_some() {
                        SessionState::Asleep
                    } else {
                        SessionState::Disconnected
                    };
                }
                sink.push(from, Packet::Disconnect { duration: None });
            }
            _ => {}
        }
    }

    /// CONNECT: create, reactivate, or migrate a session.
    ///
    /// `clean_session = false` asks for session continuation: if a session
    /// with this client id exists anywhere — including at a *different*
    /// transport address, the normal case for an edge device that rebound
    /// its socket after a network outage — it is moved to the new address
    /// with subscriptions, QoS handshake state, and buffered messages
    /// intact, and everything buffered while the client was away is
    /// delivered right after the CONNACK.
    fn handle_connect(
        &mut self,
        now: Nanos,
        from: A,
        clean_session: bool,
        client_id: String,
        sink: &mut WireSink<'_, A>,
    ) {
        self.invalidate_routes();
        let connack = Packet::ConnAck {
            code: ReturnCode::Accepted,
        };
        if clean_session {
            // Clean start; drop any stale session this client id left at a
            // previous address so it cannot keep receiving fan-out.
            let stale: Vec<A> = self
                .sessions
                .iter()
                .filter(|(a, s)| **a != from && !client_id.is_empty() && s.client_id == client_id)
                .map(|(a, _)| a.clone())
                .collect();
            for a in stale {
                self.sessions.remove(&a);
                self.order.retain(|x| *x != a);
            }
            if !self.sessions.contains_key(&from) {
                self.order.push(from.clone());
            }
            self.sessions
                .insert(from.clone(), Session::new(client_id, now));
            sink.push(from, connack);
            return;
        }

        let prior = self
            .sessions
            .iter()
            .find(|(_, s)| !client_id.is_empty() && s.client_id == client_id)
            .map(|(a, _)| a.clone());
        match prior {
            // The `prior` address was found in the map above; both lookups
            // degrade to the fresh-session arm if it has since vanished.
            Some(old_addr) if old_addr != from => {
                if let Some(mut session) = self.sessions.remove(&old_addr) {
                    session.state = SessionState::Active;
                    session.durable = true;
                    session.last_seen = now;
                    // New connection epoch: the completed-QoS2 window only
                    // guards against datagrams delayed within one epoch. A
                    // client restarted from scratch reuses msg_ids for new
                    // publishes, so the window must not outlive the epoch.
                    // (`inbound_qos2` — handshakes still open — is kept so
                    // DUP retransmissions of resumed exchanges still dedup.)
                    session.completed_qos2.clear();
                    // Unacked outbound messages retransmit promptly — with
                    // a fresh retry budget — toward the new address.
                    for o in session.outbound.values_mut() {
                        o.last_sent = 0;
                        o.retries = 0;
                    }
                    // The migrated session keeps its fan-out position; any
                    // stale session already at the new address is dropped.
                    self.sessions.remove(&from);
                    self.order.retain(|a| *a != from);
                    if let Some(pos) = self.order.iter().position(|a| *a == old_addr) {
                        self.order[pos] = from.clone();
                    } else {
                        self.order.push(from.clone());
                    }
                    self.sessions.insert(from.clone(), session);
                } else {
                    if !self.sessions.contains_key(&from) {
                        self.order.push(from.clone());
                    }
                    let mut session = Session::new(client_id, now);
                    session.durable = true;
                    self.sessions.insert(from.clone(), session);
                }
            }
            Some(_) => {
                if let Some(session) = self.sessions.get_mut(&from) {
                    session.state = SessionState::Active;
                    session.durable = true;
                    session.last_seen = now;
                    // Same epoch reset as the migration arm above.
                    session.completed_qos2.clear();
                }
            }
            None => {
                if !self.sessions.contains_key(&from) {
                    self.order.push(from.clone());
                }
                let mut session = Session::new(client_id, now);
                session.durable = true;
                self.sessions.insert(from.clone(), session);
            }
        }
        sink.push(from.clone(), connack);
        self.deliver_buffered(now, from, sink);
    }

    /// Delivers everything buffered for `to` while it was asleep or away,
    /// arming outbound QoS 1/2 state for each message.
    fn deliver_buffered(&mut self, now: Nanos, to: A, sink: &mut WireSink<'_, A>) {
        let buffered = match self.sessions.get_mut(&to) {
            Some(s) => std::mem::take(&mut s.buffered),
            None => return,
        };
        for (topic_id, payload, qos) in buffered {
            let Some(session) = self.sessions.get_mut(&to) else {
                break;
            };
            let msg_id = if qos == QoS::AtMostOnce {
                0
            } else {
                session.alloc_msg_id()
            };
            sink.push_publish(to.clone(), false, qos, topic_id, msg_id, &payload);
            if qos != QoS::AtMostOnce {
                session.outbound.insert(
                    msg_id,
                    Outbound {
                        topic_id,
                        payload,
                        qos,
                        phase: if qos == QoS::AtLeastOnce {
                            OutPhase::Puback
                        } else {
                            OutPhase::Pubrec
                        },
                        last_sent: now,
                        retries: 0,
                    },
                );
            } else {
                Self::reclaim_payload(&mut self.payload_pool, payload);
            }
            self.stats.publishes_out += 1;
        }
    }

    /// Rebases per-session timestamps to zero. Used when a persisted
    /// snapshot is resumed by a broker whose monotonic clock restarted —
    /// otherwise retransmission timers would stall until the new clock
    /// catches up with the old one.
    pub fn reset_clock(&mut self) {
        for s in self.sessions.values_mut() {
            s.last_seen = 0;
            for o in s.outbound.values_mut() {
                o.last_sent = 0;
            }
        }
    }

    fn handle_subscribe(
        &mut self,
        from: A,
        qos: QoS,
        msg_id: u16,
        topic: TopicRef,
        sink: &mut WireSink<'_, A>,
    ) {
        self.invalidate_routes();
        let Some(session) = self.sessions.get_mut(&from) else {
            sink.push(
                from,
                Packet::SubAck {
                    qos,
                    topic_id: 0,
                    msg_id,
                    code: ReturnCode::NotSupported,
                },
            );
            return;
        };
        let (filter, topic_id, code) = match &topic {
            TopicRef::Name(name) => {
                if !filter_is_valid(name) {
                    (None, 0, ReturnCode::NotSupported)
                } else if name.contains('+') || name.contains('#') {
                    (Some(name.clone()), 0, ReturnCode::Accepted)
                } else {
                    // Concrete names get a topic id assigned in the SUBACK.
                    match self.registry.register(name) {
                        Some(id) => (Some(name.clone()), id, ReturnCode::Accepted),
                        None => (None, 0, ReturnCode::NotSupported),
                    }
                }
            }
            TopicRef::Id(id) | TopicRef::Predefined(id) => match self.registry.name_of(*id) {
                Some(name) => (Some(name.to_owned()), *id, ReturnCode::Accepted),
                None => (None, 0, ReturnCode::InvalidTopicId),
            },
        };
        if let Some(filter) = filter {
            session.subscriptions.retain(|(f, _)| f != &filter);
            session.subscriptions.push((filter, qos));
        }
        sink.push(
            from,
            Packet::SubAck {
                qos,
                topic_id,
                msg_id,
                code,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_publish(
        &mut self,
        now: Nanos,
        from: A,
        qos: QoS,
        topic: TopicRef,
        msg_id: u16,
        payload: &[u8],
        sink: &mut WireSink<'_, A>,
    ) {
        self.stats.publishes_in += 1;

        let topic_id = match topic {
            TopicRef::Id(id) | TopicRef::Predefined(id) => id,
            TopicRef::Name(_) => {
                sink.push(
                    from,
                    Packet::PubAck {
                        topic_id: 0,
                        msg_id,
                        code: ReturnCode::NotSupported,
                    },
                );
                return;
            }
        };
        if self.registry.name_of(topic_id).is_none() {
            sink.push(
                from,
                Packet::PubAck {
                    topic_id,
                    msg_id,
                    code: ReturnCode::InvalidTopicId,
                },
            );
            return;
        }

        // End-to-end backpressure. Rising congestion is advertised to the
        // publisher the moment its level changes, and past the hard
        // watermark QoS ≥ 1 publishes are rejected with `Congestion` —
        // the publisher re-buffers and paces instead of feeding buffers
        // that are already shedding. QoS 0 is never rejected (there is no
        // ack to carry the code); it keeps flowing toward the per-session
        // drop cap.
        let (total, worst) = self.backlog_scan();
        self.stats.backlog_high_water = self.stats.backlog_high_water.max(total as u64);
        if self.config.signal_congestion {
            let level = self.level_from(total, worst);
            let advised = self
                .sessions
                .get(&from)
                .map(|s| s.advised_level)
                .unwrap_or(0);
            if advised != level {
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.advised_level = level;
                    self.stats.advisories_sent += 1;
                    sink.push(from.clone(), Packet::CongestionAdvisory { level });
                }
            }
            if level >= 2 && qos != QoS::AtMostOnce {
                // A QoS 2 retransmission of a message already forwarded
                // must complete its handshake normally — rejecting it
                // would make the publisher replay a delivered message.
                let qos2_dup = qos == QoS::ExactlyOnce
                    && self
                        .sessions
                        .get(&from)
                        .is_some_and(|s| s.inbound_qos2_dup(msg_id));
                if !qos2_dup {
                    self.stats.congestion_rejects += 1;
                    sink.push(
                        from,
                        Packet::PubAck {
                            topic_id,
                            msg_id,
                            code: ReturnCode::Congestion,
                        },
                    );
                    return;
                }
            }
        }

        // QoS-level acknowledgments toward the publisher, with QoS 2
        // exactly-once forwarding.
        let mut forward = true;
        match qos {
            QoS::AtMostOnce => {}
            QoS::AtLeastOnce => {
                sink.push(
                    from.clone(),
                    Packet::PubAck {
                        topic_id,
                        msg_id,
                        code: ReturnCode::Accepted,
                    },
                );
            }
            QoS::ExactlyOnce => {
                let session = self
                    .sessions
                    .entry(from.clone())
                    .or_insert_with(|| Session::new(String::new(), now));
                if session.inbound_qos2_dup(msg_id) {
                    forward = false;
                    self.stats.duplicates_suppressed += 1;
                } else {
                    session.inbound_qos2.insert(msg_id, ());
                }
                sink.push(from.clone(), Packet::PubRec { msg_id });
            }
        }
        if !forward {
            return;
        }

        self.last_publish_forwarded = true;
        self.fan_out(now, topic_id, qos, payload, sink);
    }

    /// Fans one accepted publish out to every matching local subscriber in
    /// deterministic session order. Sleeping subscribers and away durable
    /// subscribers (disconnected, `clean_session = false`) get their
    /// messages buffered for delivery on the next PINGREQ / reconnect.
    ///
    /// Targets come from the per-topic route cache when its epoch is
    /// current — one hash lookup instead of matching every session's
    /// subscription list — and are rebuilt into the entry's recycled
    /// vector otherwise. The topic name stays borrowed from the
    /// registry (no per-publish `String`).
    ///
    /// Shared by [`Broker::handle_publish`] (local publisher) and
    /// [`Broker::deliver_forwarded`] (publish owned by another shard).
    fn fan_out(
        &mut self,
        now: Nanos,
        topic_id: u16,
        qos: QoS,
        payload: &[u8],
        sink: &mut WireSink<'_, A>,
    ) {
        let epoch = self.route_epoch;
        let (cached_epoch, targets) = self
            .routes
            .entry(topic_id)
            .or_insert_with(|| (epoch.wrapping_sub(1), Vec::new()));
        if *cached_epoch != epoch {
            targets.clear();
            let Some(topic_name) = self.registry.name_of(topic_id) else {
                // Validated at entry; an empty rebuild delivers to no one,
                // which is exactly what an unregistered topic gets.
                return;
            };
            for addr in &self.order {
                let Some(s) = self.sessions.get(addr) else {
                    continue;
                };
                if s.state == SessionState::Disconnected && !s.durable {
                    continue;
                }
                let Some(best) = s
                    .subscriptions
                    .iter()
                    .filter(|(f, _)| topic_matches(f, topic_name))
                    .map(|(_, q)| *q)
                    .max()
                else {
                    continue;
                };
                targets.push((addr.clone(), best, s.state != SessionState::Active));
            }
            *cached_epoch = epoch;
        }

        for (addr, best, away) in targets.iter() {
            let (sub_qos, away) = ((*best).min(qos), *away);
            // The common steady-state target — active subscriber,
            // effective QoS 0 — needs no session state at all: no msg id,
            // no retransmission copy, just the shared wire image.
            if !away && sub_qos == QoS::AtMostOnce {
                sink.push_publish(addr.clone(), false, sub_qos, topic_id, 0, payload);
                self.stats.publishes_out += 1;
                continue;
            }
            let Some(session) = self.sessions.get_mut(addr) else {
                continue;
            };
            if away {
                if session.buffered.len() >= self.config.max_buffered {
                    if let Some((_, old, _)) = session.buffered.pop_front() {
                        Self::reclaim_payload(&mut self.payload_pool, old);
                    }
                    self.stats.drops += 1;
                }
                let owned = Self::pooled_copy(&mut self.payload_pool, payload);
                session.buffered.push_back((topic_id, owned, sub_qos));
                continue;
            }
            let fwd_msg_id = if sub_qos == QoS::AtMostOnce {
                0
            } else {
                session.alloc_msg_id()
            };
            sink.push_publish(addr.clone(), false, sub_qos, topic_id, fwd_msg_id, payload);
            if sub_qos != QoS::AtMostOnce {
                let owned = Self::pooled_copy(&mut self.payload_pool, payload);
                session.outbound.insert(
                    fwd_msg_id,
                    Outbound {
                        topic_id,
                        payload: owned,
                        qos: sub_qos,
                        phase: if sub_qos == QoS::AtLeastOnce {
                            OutPhase::Puback
                        } else {
                            OutPhase::Pubrec
                        },
                        last_sent: now,
                        retries: 0,
                    },
                );
            }
            self.stats.publishes_out += 1;
        }
    }

    /// Drives outbound retransmissions into a recycled output buffer. Call
    /// periodically.
    pub fn on_tick_into(&mut self, now: Nanos, out: &mut BrokerOutputs<A>) {
        self.tick(now, &mut WireSink::new(out));
    }

    fn tick(&mut self, now: Nanos, sink: &mut WireSink<'_, A>) {
        // Falling congestion is advertised on the tick: a paced publisher
        // that stopped publishing would otherwise never learn that the
        // pressure cleared. Rising congestion is advertised inline in
        // `handle_publish`, so idle clients are never woken for bad news
        // they can't act on.
        if self.config.signal_congestion {
            let (total, worst) = self.backlog_scan();
            let level = self.level_from(total, worst);
            for idx in 0..self.order.len() {
                let addr = self.order[idx].clone();
                let Some(session) = self.sessions.get_mut(&addr) else {
                    continue;
                };
                if session.state == SessionState::Active && session.advised_level > level {
                    session.advised_level = level;
                    self.stats.advisories_sent += 1;
                    sink.push(addr, Packet::CongestionAdvisory { level });
                }
            }
        }

        let retry_ns = self.config.retry_timeout.as_nanos() as u64;
        let max_retries = self.config.max_retries;
        let mut ids: Vec<u16> = Vec::new();
        for idx in 0..self.order.len() {
            let addr = self.order[idx].clone();
            // Disjoint field borrows: the pool and stats stay usable
            // while the session is borrowed from `sessions`.
            let pool = &mut self.payload_pool;
            let stats = &mut self.stats;
            let Some(session) = self.sessions.get_mut(&addr) else {
                continue;
            };
            // An away durable session has no reachable transport address;
            // retransmission resumes (with a fresh budget) once the client
            // reconnects and the session migrates.
            if session.state == SessionState::Disconnected && session.durable {
                continue;
            }
            if session.outbound.is_empty() {
                continue;
            }
            ids.clear();
            ids.extend(session.outbound.keys().copied());
            ids.sort_unstable();
            for &id in &ids {
                let Some(o) = session.outbound.get_mut(&id) else {
                    continue;
                };
                if now.saturating_sub(o.last_sent) < retry_ns {
                    continue;
                }
                if o.retries >= max_retries {
                    if let Some(o) = session.outbound.remove(&id) {
                        Self::reclaim_payload(pool, o.payload);
                    }
                    stats.drops += 1;
                    continue;
                }
                o.retries += 1;
                o.last_sent = now;
                stats.retransmissions += 1;
                match o.phase {
                    OutPhase::Puback | OutPhase::Pubrec => {
                        sink.push_publish(addr.clone(), true, o.qos, o.topic_id, id, &o.payload);
                    }
                    OutPhase::Pubcomp => sink.push(addr.clone(), Packet::PubRel { msg_id: id }),
                }
            }
        }
    }
}

/// Minimal little-endian wire helpers for snapshot persistence.
pub mod wire {
    use prov_wal::le_bytes;

    /// Sequential reader over a persisted byte slice.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Wraps a byte slice.
        pub fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
            let end = self.pos.checked_add(n).ok_or("length overflow")?;
            if end > self.buf.len() {
                return Err("snapshot truncated");
            }
            let slice = &self.buf[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, &'static str> {
            Ok(self.take(1)?[0])
        }

        /// Reads a little-endian `u16`.
        pub fn u16(&mut self) -> Result<u16, &'static str> {
            Ok(u16::from_le_bytes(le_bytes(self.take(2)?)))
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, &'static str> {
            Ok(u32::from_le_bytes(le_bytes(self.take(4)?)))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, &'static str> {
            Ok(u64::from_le_bytes(le_bytes(self.take(8)?)))
        }

        /// Reads a `u32`-length-prefixed byte string.
        pub fn bytes(&mut self) -> Result<Vec<u8>, &'static str> {
            let len = self.u32()? as usize;
            Ok(self.take(len)?.to_vec())
        }

        /// Reads a `u32`-length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, &'static str> {
            String::from_utf8(self.bytes()?).map_err(|_| "invalid UTF-8 in snapshot")
        }
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }
}

/// Peer addresses that can be persisted in a broker snapshot: the real-UDP
/// `SocketAddr` and the simulator's small integer ids.
pub trait PersistAddr: Clone + Eq + Hash + Sized {
    /// Appends the address to a snapshot buffer.
    fn encode_addr(&self, out: &mut Vec<u8>);
    /// Reads an address back.
    fn decode_addr(r: &mut wire::Reader<'_>) -> Result<Self, &'static str>;
}

impl PersistAddr for std::net::SocketAddr {
    fn encode_addr(&self, out: &mut Vec<u8>) {
        match self.ip() {
            std::net::IpAddr::V4(ip) => {
                out.push(4);
                out.extend_from_slice(&ip.octets());
            }
            std::net::IpAddr::V6(ip) => {
                out.push(6);
                out.extend_from_slice(&ip.octets());
            }
        }
        out.extend_from_slice(&self.port().to_le_bytes());
    }

    fn decode_addr(r: &mut wire::Reader<'_>) -> Result<Self, &'static str> {
        let ip: std::net::IpAddr = match r.u8()? {
            4 => {
                let mut octets = [0u8; 4];
                for o in &mut octets {
                    *o = r.u8()?;
                }
                std::net::Ipv4Addr::from(octets).into()
            }
            6 => {
                let mut octets = [0u8; 16];
                for o in &mut octets {
                    *o = r.u8()?;
                }
                std::net::Ipv6Addr::from(octets).into()
            }
            _ => return Err("unknown address family"),
        };
        let port = r.u16()?;
        Ok(std::net::SocketAddr::new(ip, port))
    }
}

impl PersistAddr for u32 {
    fn encode_addr(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_addr(r: &mut wire::Reader<'_>) -> Result<Self, &'static str> {
        r.u32()
    }
}

// v2 added decode_errors / io_errors to the persisted stats block.
// v3 added the congestion watermarks to the config block and the
// backpressure counters (congestion_rejects / advisories_sent /
// backlog_high_water / snapshot_failures) to the stats block; v4 added the
// per-session recently-completed inbound QoS 2 window; v5 added the
// sharded-gateway counters (cross_shard_forwards /
// forward_ring_high_water) to the stats block.
const STATE_VERSION: u8 = 5;

/// How many completed inbound QoS 2 ids each session remembers to suppress
/// late duplicate PUBLISHes (see [`Session::completed_qos2`]). 64 ids at
/// 2 bytes each is negligible per session, yet orders of magnitude wider
/// than any realistic retransmission/delay window.
const COMPLETED_QOS2_WINDOW: usize = 64;

fn qos_byte(q: QoS) -> u8 {
    match q {
        QoS::AtMostOnce => 0,
        QoS::AtLeastOnce => 1,
        QoS::ExactlyOnce => 2,
    }
}

fn qos_from(b: u8) -> Result<QoS, &'static str> {
    match b {
        0 => Ok(QoS::AtMostOnce),
        1 => Ok(QoS::AtLeastOnce),
        2 => Ok(QoS::ExactlyOnce),
        _ => Err("invalid QoS byte"),
    }
}

impl<A: PersistAddr> Broker<A> {
    /// Serializes the complete broker state — config, topic registry,
    /// sessions (QoS handshake state, subscriptions, buffered messages),
    /// fan-out order, and stats — into a version-tagged byte blob.
    /// `UdpBroker::snapshot_to_file` writes one such section per shard
    /// into a checksummed, atomically-written file so a gateway survives
    /// process death.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATE_VERSION);
        // Config.
        out.push(self.config.gw_id);
        out.extend_from_slice(&(self.config.retry_timeout.as_nanos() as u64).to_le_bytes());
        out.extend_from_slice(&self.config.max_retries.to_le_bytes());
        out.extend_from_slice(&(self.config.max_buffered as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.congestion_soft as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.congestion_hard as u64).to_le_bytes());
        out.push(self.config.signal_congestion as u8);
        // Stats.
        for v in [
            self.stats.publishes_in,
            self.stats.publishes_out,
            self.stats.duplicates_suppressed,
            self.stats.retransmissions,
            self.stats.drops,
            self.stats.decode_errors,
            self.stats.io_errors,
            self.stats.congestion_rejects,
            self.stats.advisories_sent,
            self.stats.backlog_high_water,
            self.stats.snapshot_failures,
            self.stats.cross_shard_forwards,
            self.stats.forward_ring_high_water,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // Registry.
        out.extend_from_slice(&self.registry.next_id().to_le_bytes());
        let entries = self.registry.entries();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (id, name) in entries {
            out.extend_from_slice(&id.to_le_bytes());
            wire::put_str(&mut out, name);
        }
        // Fan-out order.
        out.extend_from_slice(&(self.order.len() as u32).to_le_bytes());
        for addr in &self.order {
            addr.encode_addr(&mut out);
        }
        // Sessions: the ones in fan-out order first, then any anonymous
        // publisher sessions the order list never tracked, sorted by their
        // encoded address so the whole encoding is deterministic (and the
        // membership check is O(1), not a per-session scan of `order`).
        let in_order: std::collections::HashSet<&A> = self.order.iter().collect();
        let mut anonymous: Vec<(Vec<u8>, &A)> = self
            .sessions
            .keys()
            .filter(|a| !in_order.contains(a))
            .map(|a| {
                let mut key = Vec::new();
                a.encode_addr(&mut key);
                (key, a)
            })
            .collect();
        anonymous.sort_by(|x, y| x.0.cmp(&y.0));
        let ordered: Vec<&A> = self
            .order
            .iter()
            .filter(|a| self.sessions.contains_key(*a))
            .chain(anonymous.iter().map(|(_, a)| *a))
            .collect();
        out.extend_from_slice(&(ordered.len() as u32).to_le_bytes());
        for addr in &ordered {
            let s = &self.sessions[*addr];
            addr.encode_addr(&mut out);
            wire::put_str(&mut out, &s.client_id);
            out.push(match s.state {
                SessionState::Active => 0,
                SessionState::Asleep => 1,
                SessionState::Disconnected => 2,
            });
            out.push(s.durable as u8);
            out.extend_from_slice(&s.last_seen.to_le_bytes());
            out.extend_from_slice(&s.next_msg_id.to_le_bytes());
            out.extend_from_slice(&(s.buffered.len() as u32).to_le_bytes());
            for (topic_id, payload, qos) in &s.buffered {
                out.extend_from_slice(&topic_id.to_le_bytes());
                out.push(qos_byte(*qos));
                wire::put_bytes(&mut out, payload);
            }
            out.extend_from_slice(&(s.subscriptions.len() as u32).to_le_bytes());
            for (filter, qos) in &s.subscriptions {
                wire::put_str(&mut out, filter);
                out.push(qos_byte(*qos));
            }
            let mut out_ids: Vec<u16> = s.outbound.keys().copied().collect();
            out_ids.sort_unstable();
            out.extend_from_slice(&(out_ids.len() as u32).to_le_bytes());
            for id in out_ids {
                let o = &s.outbound[&id];
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&o.topic_id.to_le_bytes());
                out.push(qos_byte(o.qos));
                out.push(match o.phase {
                    OutPhase::Puback => 0,
                    OutPhase::Pubrec => 1,
                    OutPhase::Pubcomp => 2,
                });
                out.extend_from_slice(&o.last_sent.to_le_bytes());
                out.extend_from_slice(&o.retries.to_le_bytes());
                wire::put_bytes(&mut out, &o.payload);
            }
            let mut in_ids: Vec<u16> = s.inbound_qos2.keys().copied().collect();
            in_ids.sort_unstable();
            out.extend_from_slice(&(in_ids.len() as u32).to_le_bytes());
            for id in in_ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        // v4 appendix: per-session recently-completed inbound QoS 2
        // windows, in session order, FIFO order preserved so eviction
        // order survives a restart. An appendix (rather than a field
        // inside each session block) keeps the v1–v3 session layout
        // byte-stable.
        out.extend_from_slice(&(ordered.len() as u32).to_le_bytes());
        for addr in &ordered {
            let s = &self.sessions[*addr];
            out.extend_from_slice(&(s.completed_qos2.len() as u32).to_le_bytes());
            for id in &s.completed_qos2 {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    /// Rebuilds a broker from [`Broker::encode_state`] bytes. Older
    /// versions are migrated losslessly — v1 snapshots predate the
    /// `decode_errors`/`io_errors` counters, v2 snapshots predate the
    /// congestion watermarks and backpressure counters — with the missing
    /// fields defaulting, so a gateway upgrade does not discard the
    /// durable sessions its snapshot file exists to preserve.
    pub fn decode_state(bytes: &[u8]) -> Result<Broker<A>, &'static str> {
        let r = &mut wire::Reader::new(bytes);
        let version = r.u8()?;
        if !(1..=STATE_VERSION).contains(&version) {
            return Err("unsupported broker snapshot version");
        }
        let defaults = BrokerConfig::default();
        let config = BrokerConfig {
            gw_id: r.u8()?,
            retry_timeout: Duration::from_nanos(r.u64()?),
            max_retries: r.u32()?,
            max_buffered: r.u64()? as usize,
            congestion_soft: if version >= 3 {
                r.u64()? as usize
            } else {
                defaults.congestion_soft
            },
            congestion_hard: if version >= 3 {
                r.u64()? as usize
            } else {
                defaults.congestion_hard
            },
            signal_congestion: if version >= 3 {
                r.u8()? != 0
            } else {
                defaults.signal_congestion
            },
        };
        let stats = BrokerStats {
            publishes_in: r.u64()?,
            publishes_out: r.u64()?,
            duplicates_suppressed: r.u64()?,
            retransmissions: r.u64()?,
            drops: r.u64()?,
            decode_errors: if version >= 2 { r.u64()? } else { 0 },
            io_errors: if version >= 2 { r.u64()? } else { 0 },
            congestion_rejects: if version >= 3 { r.u64()? } else { 0 },
            advisories_sent: if version >= 3 { r.u64()? } else { 0 },
            backlog_high_water: if version >= 3 { r.u64()? } else { 0 },
            snapshot_failures: if version >= 3 { r.u64()? } else { 0 },
            cross_shard_forwards: if version >= 5 { r.u64()? } else { 0 },
            forward_ring_high_water: if version >= 5 { r.u64()? } else { 0 },
        };
        let next_id = r.u16()?;
        let n_topics = r.u32()?;
        let mut topics = Vec::with_capacity(n_topics as usize);
        for _ in 0..n_topics {
            let id = r.u16()?;
            topics.push((id, r.str()?));
        }
        let registry =
            TopicRegistry::from_entries(next_id, topics.iter().map(|(id, n)| (*id, n.as_str())));
        let n_order = r.u32()?;
        let mut order = Vec::with_capacity(n_order as usize);
        for _ in 0..n_order {
            order.push(A::decode_addr(r)?);
        }
        let n_sessions = r.u32()?;
        let mut sessions = HashMap::with_capacity(n_sessions as usize);
        let mut read_order: Vec<A> = Vec::with_capacity(n_sessions as usize);
        for _ in 0..n_sessions {
            let addr = A::decode_addr(r)?;
            let client_id = r.str()?;
            let state = match r.u8()? {
                0 => SessionState::Active,
                1 => SessionState::Asleep,
                2 => SessionState::Disconnected,
                _ => return Err("invalid session state"),
            };
            let durable = r.u8()? != 0;
            let last_seen = r.u64()?;
            let next_msg_id = r.u16()?;
            let n_buffered = r.u32()?;
            let mut buffered = VecDeque::with_capacity(n_buffered as usize);
            for _ in 0..n_buffered {
                let topic_id = r.u16()?;
                let qos = qos_from(r.u8()?)?;
                buffered.push_back((topic_id, r.bytes()?, qos));
            }
            let n_subs = r.u32()?;
            let mut subscriptions = Vec::with_capacity(n_subs as usize);
            for _ in 0..n_subs {
                let filter = r.str()?;
                subscriptions.push((filter, qos_from(r.u8()?)?));
            }
            let n_outbound = r.u32()?;
            let mut outbound = HashMap::with_capacity(n_outbound as usize);
            for _ in 0..n_outbound {
                let id = r.u16()?;
                let topic_id = r.u16()?;
                let qos = qos_from(r.u8()?)?;
                let phase = match r.u8()? {
                    0 => OutPhase::Puback,
                    1 => OutPhase::Pubrec,
                    2 => OutPhase::Pubcomp,
                    _ => return Err("invalid outbound phase"),
                };
                let last_sent = r.u64()?;
                let retries = r.u32()?;
                let payload = r.bytes()?;
                outbound.insert(
                    id,
                    Outbound {
                        topic_id,
                        payload,
                        qos,
                        phase,
                        last_sent,
                        retries,
                    },
                );
            }
            let n_inbound = r.u32()?;
            let mut inbound_qos2 = HashMap::with_capacity(n_inbound as usize);
            for _ in 0..n_inbound {
                inbound_qos2.insert(r.u16()?, ());
            }
            read_order.push(addr.clone());
            sessions.insert(
                addr,
                Session {
                    client_id,
                    state,
                    durable,
                    buffered,
                    subscriptions,
                    next_msg_id,
                    outbound,
                    inbound_qos2,
                    completed_qos2: VecDeque::new(),
                    last_seen,
                    advised_level: 0,
                },
            );
        }
        // v4 appendix: recently-completed inbound QoS 2 windows, matched
        // to sessions by encode order.
        if version >= 4 {
            let n_appendix = r.u32()?;
            if n_appendix as usize != read_order.len() {
                return Err("completed-qos2 appendix session count mismatch");
            }
            for addr in &read_order {
                let n_completed = r.u32()?;
                let s = sessions.get_mut(addr).ok_or("appendix session missing")?;
                for _ in 0..n_completed {
                    s.completed_qos2.push_back(r.u16()?);
                }
            }
        }
        Ok(Broker {
            config,
            registry,
            sessions,
            order,
            stats,
            route_epoch: 0,
            routes: HashMap::new(),
            payload_pool: Vec::new(),
            last_publish_forwarded: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Addr = u32;

    fn broker() -> Broker<Addr> {
        Broker::new(BrokerConfig::default())
    }

    /// Decodes every datagram in `out`, in emit order.
    fn decoded(out: &mut BrokerOutputs<Addr>) -> Vec<(Addr, Packet)> {
        let mut packets = Vec::new();
        out.emit(|to, bytes| packets.push((*to, Packet::decode(bytes).unwrap())));
        packets
    }

    /// Runs one packet through the broker and decodes what it sends.
    fn feed(b: &mut Broker<Addr>, now: Nanos, from: Addr, p: Packet) -> Vec<(Addr, Packet)> {
        let mut out = BrokerOutputs::new();
        b.on_packet_into(now, from, p, &mut out);
        decoded(&mut out)
    }

    /// Runs one tick through the broker and decodes what it sends.
    fn feed_tick(b: &mut Broker<Addr>, now: Nanos) -> Vec<(Addr, Packet)> {
        let mut out = BrokerOutputs::new();
        b.on_tick_into(now, &mut out);
        decoded(&mut out)
    }

    fn connect(b: &mut Broker<Addr>, addr: Addr, id: &str) {
        let out = feed(
            b,
            0,
            addr,
            Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: id.into(),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::ConnAck {
                code: ReturnCode::Accepted
            }
        ));
    }

    fn register(b: &mut Broker<Addr>, addr: Addr, name: &str) -> u16 {
        let out = feed(
            b,
            0,
            addr,
            Packet::Register {
                topic_id: 0,
                msg_id: 1,
                topic_name: name.into(),
            },
        );
        match out[0].1 {
            Packet::RegAck {
                topic_id,
                code: ReturnCode::Accepted,
                ..
            } => topic_id,
            ref p => panic!("unexpected {p:?}"),
        }
    }

    fn subscribe(b: &mut Broker<Addr>, addr: Addr, filter: &str, qos: QoS) {
        let out = feed(
            b,
            0,
            addr,
            Packet::Subscribe {
                dup: false,
                qos,
                msg_id: 2,
                topic: TopicRef::Name(filter.into()),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::SubAck {
                code: ReturnCode::Accepted,
                ..
            }
        ));
    }

    #[test]
    fn qos0_pub_sub_roundtrip() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/x");
        subscribe(&mut b, 2, "t/x", QoS::AtMostOnce);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![7],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
        assert!(matches!(&out[0].1, Packet::Publish { payload, .. } if payload == &vec![7]));
        assert_eq!(b.stats().publishes_out, 1);
    }

    #[test]
    fn wildcard_subscription_receives() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "provlight/wf1/dev1");
        subscribe(&mut b, 2, "provlight/#", QoS::AtMostOnce);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![1],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
    }

    #[test]
    fn qos2_publisher_handshake_and_dedup() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);

        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 10,
            payload: vec![1],
        };
        let out = feed(&mut b, 0, 1, publish.clone());
        // PUBREC to publisher + forward to subscriber (downgraded to its
        // subscription QoS 0).
        assert!(out
            .iter()
            .any(|(a, p)| *a == 1 && matches!(p, Packet::PubRec { msg_id: 10 })));
        assert!(out.iter().any(|(a, p)| *a == 2
            && matches!(
                p,
                Packet::Publish {
                    qos: QoS::AtMostOnce,
                    ..
                }
            )));

        // DUP retransmission before PUBREL: PUBREC again, no re-forward.
        let out = feed(&mut b, 1, 1, publish);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Packet::PubRec { msg_id: 10 }));
        assert_eq!(b.stats().duplicates_suppressed, 1);
        assert_eq!(b.stats().publishes_out, 1);

        // PUBREL completes the exchange.
        let out = feed(&mut b, 2, 1, Packet::PubRel { msg_id: 10 });
        assert!(matches!(out[0].1, Packet::PubComp { msg_id: 10 }));
    }

    #[test]
    fn late_duplicate_publish_after_pubrel_is_suppressed() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 10,
            payload: vec![1],
        };
        feed(&mut b, 0, 1, publish.clone());
        feed(&mut b, 1, 1, Packet::PubRel { msg_id: 10 });

        // A delayed copy arrives AFTER the handshake completed: it must
        // not fan out as a fresh message, but still gets its PUBREC so the
        // publisher's retransmission state machine can finish again.
        let out = feed(&mut b, 2, 1, publish);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Packet::PubRec { msg_id: 10 }));
        assert_eq!(b.stats().publishes_out, 1);
        assert_eq!(b.stats().duplicates_suppressed, 1);

        // The recently-completed window survives a snapshot round-trip, so
        // a late duplicate straddling a gateway restart is also caught.
        let mut restored = Broker::<Addr>::decode_state(&b.encode_state()).unwrap();
        let out = feed(&mut b, 3, 1, Packet::PubRel { msg_id: 10 });
        assert!(matches!(out[0].1, Packet::PubComp { msg_id: 10 }));
        let out = feed(
            &mut restored,
            3,
            1,
            Packet::Publish {
                dup: true,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 10,
                payload: vec![1],
            },
        );
        assert!(matches!(out[0].1, Packet::PubRec { msg_id: 10 }));
        assert_eq!(restored.stats().publishes_out, 1);
        assert_eq!(restored.stats().duplicates_suppressed, 2);
    }

    #[test]
    fn qos2_subscriber_receives_via_four_way() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::ExactlyOnce);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 5,
                payload: vec![1],
            },
        );
        let fwd_id = out
            .iter()
            .find_map(|(a, p)| match p {
                Packet::Publish {
                    qos: QoS::ExactlyOnce,
                    msg_id,
                    ..
                } if *a == 2 => Some(*msg_id),
                _ => None,
            })
            .expect("forwarded at QoS 2");
        // Subscriber answers PUBREC -> broker sends PUBREL.
        let out = feed(&mut b, 1, 2, Packet::PubRec { msg_id: fwd_id });
        assert!(matches!(out[0].1, Packet::PubRel { .. }));
        // Subscriber PUBCOMP clears broker state; tick produces nothing.
        feed(&mut b, 2, 2, Packet::PubComp { msg_id: fwd_id });
        assert!(feed_tick(&mut b, u64::MAX / 2).is_empty());
    }

    #[test]
    fn broker_retransmits_unacked_qos1_then_drops() {
        let cfg = BrokerConfig {
            retry_timeout: Duration::from_secs(1),
            max_retries: 1,
            ..BrokerConfig::default()
        };
        let mut b: Broker<Addr> = Broker::new(cfg);
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);
        feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 3,
                payload: vec![1],
            },
        );
        let s = 1_000_000_000u64;
        let out = feed_tick(&mut b, 2 * s);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Packet::Publish { dup: true, .. }));
        assert_eq!(b.stats().retransmissions, 1);
        // Exhausted on the next tick.
        let out = feed_tick(&mut b, 4 * s);
        assert!(out.is_empty());
        assert_eq!(b.stats().drops, 1);
    }

    #[test]
    fn publish_to_unknown_topic_rejected() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(999),
                msg_id: 1,
                payload: vec![],
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::PubAck {
                code: ReturnCode::InvalidTopicId,
                ..
            }
        ));
    }

    #[test]
    fn disconnect_stops_delivery() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        assert_eq!(b.session_count(), 1);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![],
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn per_device_topics_route_independently() {
        // The Fig. 5 deployment: 64 devices each publishing to their own
        // topic, one translator subscription per topic.
        let mut b = broker();
        for dev in 0..8u32 {
            connect(&mut b, dev, &format!("dev{dev}"));
        }
        let translator = 100;
        connect(&mut b, translator, "translator");
        let mut tids = Vec::new();
        for dev in 0..8u32 {
            let tid = register(&mut b, dev, &format!("provlight/wf/dev{dev}"));
            tids.push(tid);
        }
        for dev in 0..8u32 {
            subscribe(
                &mut b,
                translator,
                &format!("provlight/wf/dev{dev}"),
                QoS::AtMostOnce,
            );
        }
        for (dev, tid) in tids.iter().enumerate() {
            let out = feed(
                &mut b,
                0,
                dev as u32,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(*tid),
                    msg_id: 0,
                    payload: vec![dev as u8],
                },
            );
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, translator);
        }
        assert_eq!(b.stats().publishes_out, 8);
    }

    #[test]
    fn searchgw_answered() {
        let mut b = broker();
        let out = feed(&mut b, 0, 9, Packet::SearchGw { radius: 1 });
        assert!(matches!(out[0].1, Packet::GwInfo { gw_id: 1 }));
    }

    #[test]
    fn sleeping_client_buffers_until_ping() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sleeper");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);

        // Client 2 goes to sleep (DISCONNECT with duration).
        let out = feed(
            &mut b,
            0,
            2,
            Packet::Disconnect {
                duration: Some(300),
            },
        );
        assert!(matches!(out[0].1, Packet::Disconnect { .. }));
        assert_eq!(b.session_count(), 1);
        assert_eq!(b.sleeping_count(), 1);

        // Publishes while asleep are buffered, not sent.
        for i in 0..3u8 {
            let out = feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                },
            );
            assert!(out.is_empty(), "asleep client must not receive directly");
        }

        // PINGREQ flushes the buffer then answers PINGRESP, in order.
        let out = feed(&mut b, 2, 2, Packet::PingReq);
        assert_eq!(out.len(), 4);
        for (i, (to, p)) in out[..3].iter().enumerate() {
            assert_eq!(*to, 2);
            assert!(
                matches!(p, Packet::Publish { payload, .. } if payload == &vec![i as u8]),
                "unexpected {p:?}"
            );
        }
        assert!(matches!(out[3].1, Packet::PingResp));

        // Buffer is drained: next ping is just a pong.
        let out = feed(&mut b, 3, 2, Packet::PingReq);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sleeping_qos1_buffered_delivery_uses_outbound_state() {
        let cfg = BrokerConfig {
            retry_timeout: Duration::from_secs(1),
            ..BrokerConfig::default()
        };
        let mut b: Broker<Addr> = Broker::new(cfg);
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sleeper");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: Some(60) });
        feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 9,
                payload: vec![7],
            },
        );
        let out = feed(&mut b, 1, 2, Packet::PingReq);
        let msg_id = out
            .iter()
            .find_map(|(_, p)| match p {
                Packet::Publish { msg_id, .. } => Some(*msg_id),
                _ => None,
            })
            .expect("buffered publish delivered");
        // Unacked buffered delivery retransmits like any outbound QoS 1.
        let s = 1_000_000_000u64;
        let out = feed_tick(&mut b, 3 * s);
        assert!(matches!(out[0].1, Packet::Publish { dup: true, .. }));
        // Ack clears it.
        feed(
            &mut b,
            4 * s,
            2,
            Packet::PubAck {
                topic_id: tid,
                msg_id,
                code: ReturnCode::Accepted,
            },
        );
        assert!(feed_tick(&mut b, 10 * s).is_empty());
    }

    fn connect_durable(b: &mut Broker<Addr>, addr: Addr, id: &str) {
        let out = feed(
            b,
            0,
            addr,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: id.into(),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::ConnAck {
                code: ReturnCode::Accepted
            }
        ));
    }

    #[test]
    fn durable_session_buffers_while_away_and_migrates_on_reconnect() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "translator");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);

        // The durable subscriber's transport dies (graceful disconnect
        // stands in for the lost link).
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        // Publishes while away are buffered, not dropped.
        for i in 0..3u8 {
            let out = feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtLeastOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                },
            );
            // Only the publisher's PUBACK comes back; nothing is forwarded.
            assert!(out.iter().all(|(a, _)| *a == 1), "away session got traffic");
        }

        // Reconnect from a NEW address (rebound socket): the session
        // migrates and the buffered messages follow the CONNACK in order.
        let out = feed(
            &mut b,
            2,
            99,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "translator".into(),
            },
        );
        assert!(matches!(out[0].1, Packet::ConnAck { .. }));
        let delivered: Vec<u8> = out[1..]
            .iter()
            .map(|(a, p)| {
                assert_eq!(*a, 99);
                match p {
                    Packet::Publish { payload, .. } => payload[0],
                    p => panic!("unexpected {p:?}"),
                }
            })
            .collect();
        assert_eq!(delivered, vec![0, 1, 2]);
        // The old address no longer exists as a session.
        assert_eq!(b.session_count(), 2);
        // New deliveries flow directly to the new address.
        let out = feed(
            &mut b,
            3,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![9],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 99);
    }

    #[test]
    fn migration_preserves_qos2_dedup_state() {
        let mut b = broker();
        connect_durable(&mut b, 1, "edge-device");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);

        // QoS 2 publish forwarded on first receipt; PUBREC lost on the way
        // back (the client never learns).
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 7,
            payload: vec![1],
        };
        feed(&mut b, 0, 1, publish.clone());
        assert_eq!(b.stats().publishes_out, 1);

        // The publisher reconnects from a new address and retransmits the
        // unacked publish with DUP: the migrated session's dedup state
        // suppresses the re-forward — exactly-once survives the reconnect.
        feed(
            &mut b,
            1,
            50,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "edge-device".into(),
            },
        );
        let mut dup = publish;
        if let Packet::Publish { dup: d, .. } = &mut dup {
            *d = true;
        }
        let out = feed(&mut b, 2, 50, dup);
        assert_eq!(out.len(), 1, "duplicate must only be PUBRECed: {out:?}");
        assert!(matches!(out[0].1, Packet::PubRec { msg_id: 7 }));
        assert_eq!(b.stats().duplicates_suppressed, 1);
        assert_eq!(b.stats().publishes_out, 1);
    }

    #[test]
    fn away_buffer_is_bounded_oldest_first() {
        let cfg = BrokerConfig {
            max_buffered: 2,
            ..BrokerConfig::default()
        };
        let mut b: Broker<Addr> = Broker::new(cfg);
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        for i in 0..5u8 {
            feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                },
            );
        }
        assert_eq!(b.stats().drops, 3);
        // Reconnect delivers only the newest two, in order.
        let out = feed(
            &mut b,
            2,
            2,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "sub".into(),
            },
        );
        let delivered: Vec<u8> = out[1..]
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![3, 4]);
    }

    #[test]
    fn clean_connect_drops_stale_session_at_old_address() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "mover");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        // Same client id reconnects cleanly from a new address.
        connect(&mut b, 3, "mover");
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![1],
            },
        );
        // The stale session at addr 2 is gone; the clean session at addr 3
        // has no subscriptions yet, so nothing is delivered anywhere.
        assert!(out.is_empty());
        assert_eq!(b.session_count(), 2);
    }

    #[test]
    fn state_roundtrip_preserves_sessions_and_qos_state() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "translator");
        let tid = register(&mut b, 1, "t/persist");
        subscribe(&mut b, 2, "t/persist", QoS::ExactlyOnce);
        // A durable subscriber goes away and accumulates buffered messages.
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        for i in 0..3u8 {
            feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtLeastOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: i as u16 + 1,
                    payload: vec![i],
                },
            );
        }
        // An inbound QoS 2 exchange parked mid-handshake (PUBREL pending).
        feed(
            &mut b,
            2,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 42,
                payload: vec![9],
            },
        );

        let bytes = b.encode_state();
        let restored = Broker::<Addr>::decode_state(&bytes).unwrap();
        // Deterministic encoding: a re-encode of the decoded state is
        // byte-identical, so every field round-tripped.
        assert_eq!(restored.encode_state(), bytes);
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.session_count(), b.session_count());
        assert_eq!(restored.registry.entries(), b.registry.entries());

        // Behavioural check: the restored broker still dedups the QoS 2
        // retransmission and delivers the buffered backlog on reconnect.
        let mut restored = restored;
        let out = feed(
            &mut restored,
            3,
            1,
            Packet::Publish {
                dup: true,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 42,
                payload: vec![9],
            },
        );
        assert_eq!(out.len(), 1, "duplicate must only be PUBRECed: {out:?}");
        let out = feed(
            &mut restored,
            4,
            7,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "translator".into(),
            },
        );
        let delivered: Vec<u8> = out[1..]
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        // The three QoS 1 publishes plus the first-receipt QoS 2 forward.
        assert_eq!(
            delivered,
            vec![0, 1, 2, 9],
            "buffered backlog lost in persistence"
        );
    }

    #[test]
    fn old_snapshots_migrate_with_zeroed_new_counters() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/v1");
        subscribe(&mut b, 2, "t/v1", QoS::AtLeastOnce);
        feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 3,
                payload: vec![9],
            },
        );
        assert_eq!(b.stats().decode_errors, 0);
        assert_eq!(b.stats().io_errors, 0);

        let v5 = b.encode_state();
        assert_eq!(
            v5[0], STATE_VERSION,
            "bumping STATE_VERSION requires extending this migration test"
        );
        let cfg_end = 1 + 1 + 8 + 4 + 8; // version + the v1 config fields
        let cfg_extra = 8 + 8 + 1; // v3: congestion watermarks + signal flag
        let stats_at = cfg_end + cfg_extra;
        // The v4 appendix for this broker: session count + one (empty)
        // completed-QoS2 window per session, at the very end.
        let appendix = 4 + 4 * b.session_count();

        // Reconstruct the v4 wire form: version byte 4, stats block
        // without the two v5 sharded-gateway counters.
        let mut v4 = v5.clone();
        v4.drain(stats_at + 11 * 8..stats_at + 13 * 8);
        v4[0] = 4;
        let restored = Broker::<Addr>::decode_state(&v4).expect("v4 snapshot accepted");
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.stats().cross_shard_forwards, 0);
        assert_eq!(restored.stats().forward_ring_high_water, 0);
        assert_eq!(restored.encode_state(), v5);

        // The v3 wire form additionally predates the appendix.
        let mut v3 = v4.clone();
        v3.truncate(v3.len() - appendix);
        v3[0] = 3;
        let restored = Broker::<Addr>::decode_state(&v3).expect("v3 snapshot accepted");
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.encode_state(), v5);

        // The v2 wire form additionally predates the congestion config
        // fields and the four v3 stats counters.
        let mut v2 = v3.clone();
        v2.drain(stats_at + 7 * 8..stats_at + 11 * 8);
        v2.drain(cfg_end..stats_at);
        v2[0] = 2;
        let restored = Broker::<Addr>::decode_state(&v2).expect("v2 snapshot accepted");
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.encode_state(), v5);

        // The v1 form additionally predates decode_errors / io_errors.
        let mut v1 = v3.clone();
        v1.drain(stats_at + 5 * 8..stats_at + 11 * 8);
        v1.drain(cfg_end..stats_at);
        v1[0] = 1;
        let restored = Broker::<Addr>::decode_state(&v1).expect("v1 snapshot accepted");
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.session_count(), b.session_count());
        // Re-encoding a migrated snapshot produces the v5 form (the
        // congestion config fields take their defaults, the completed
        // windows start empty, the sharded counters are zero).
        assert_eq!(restored.encode_state(), v5);

        // The v3-added counter itself: counted, persisted, and restored in
        // the current wire form.
        b.note_snapshot_failure();
        assert_eq!(b.stats().snapshot_failures, 1);
        let restored =
            Broker::<Addr>::decode_state(&b.encode_state()).expect("current snapshot accepted");
        assert_eq!(restored.stats().snapshot_failures, 1);

        // The v5-added counters: counted, persisted, and restored in the
        // current wire form.
        b.note_cross_shard_forward(3);
        b.note_cross_shard_forward(1);
        assert_eq!(b.stats().cross_shard_forwards, 2);
        assert_eq!(b.stats().forward_ring_high_water, 3);
        let restored =
            Broker::<Addr>::decode_state(&b.encode_state()).expect("current snapshot accepted");
        assert_eq!(restored.stats().cross_shard_forwards, 2);
        assert_eq!(restored.stats().forward_ring_high_water, 3);
    }

    #[test]
    fn predefined_topic_seeded_after_traffic_routes_fresh() {
        // `registry_mut` conservatively invalidates the route cache, so a
        // topic seeded mid-flight is routable immediately — no stale
        // "unknown id" or empty route can be served from the cache.
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        subscribe(&mut b, 2, "pre/#", QoS::AtMostOnce);
        let publish = || Packet::Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic: TopicRef::Predefined(500),
            msg_id: 0,
            payload: vec![1],
        };
        // Unknown predefined id is rejected toward the publisher.
        let out = feed(&mut b, 0, 1, publish());
        assert!(matches!(
            out[0].1,
            Packet::PubAck {
                code: ReturnCode::InvalidTopicId,
                ..
            }
        ));
        assert!(b.registry_mut().register_predefined(500, "pre/x"));
        // An id collision is refused, never silently remapped (remapping
        // would also require a route-cache invalidation to be correct).
        assert!(!b.registry_mut().register_predefined(500, "pre/other"));
        let out = feed(&mut b, 1, 1, publish());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2, "seeded topic must route to the wildcard sub");
    }

    #[test]
    fn decode_state_rejects_corrupt_bytes() {
        let b = broker();
        let mut bytes = b.encode_state();
        assert!(Broker::<Addr>::decode_state(&bytes[..bytes.len() - 1]).is_err());
        bytes[0] = 99; // unknown version
        assert!(Broker::<Addr>::decode_state(&bytes).is_err());
    }

    /// The wire path's single-encode fan-out against a hand-written
    /// packet sequence: a QoS 2 publish forwarded at three effective QoS
    /// levels (one shared wire image, per-subscriber headers), the
    /// publisher-side handshake, and the tick's DUP retransmissions.
    #[test]
    fn wire_path_matches_vec_path() {
        let mut b = broker();
        for (addr, id) in [(1, "pub"), (2, "s0"), (3, "s1"), (4, "s2")] {
            connect(&mut b, addr, id);
        }
        let tid = register(&mut b, 1, "t/eq");
        subscribe(&mut b, 2, "t/eq", QoS::AtMostOnce);
        subscribe(&mut b, 3, "t/eq", QoS::AtLeastOnce);
        subscribe(&mut b, 4, "t/eq", QoS::ExactlyOnce);
        let publish = |dup, qos, msg_id| Packet::Publish {
            dup,
            qos,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id,
            payload: vec![0xAB; 100],
        };
        for (msg_id, sub_id) in [(10u16, 1u16), (11, 2)] {
            // PUBREC to the publisher, then one forward per subscriber at
            // min(publish, granted) QoS, each with its session's next id.
            assert_eq!(
                feed(&mut b, 7, 1, publish(false, QoS::ExactlyOnce, msg_id)),
                vec![
                    (1, Packet::PubRec { msg_id }),
                    (2, publish(false, QoS::AtMostOnce, 0)),
                    (3, publish(false, QoS::AtLeastOnce, sub_id)),
                    (4, publish(false, QoS::ExactlyOnce, sub_id)),
                ]
            );
            assert_eq!(
                feed(&mut b, 7, 1, Packet::PubRel { msg_id }),
                vec![(1, Packet::PubComp { msg_id })]
            );
        }
        // The tick retransmits every unacked QoS 1/2 forward with DUP set,
        // in session order and ascending msg id.
        assert_eq!(
            feed_tick(&mut b, u64::MAX / 2),
            vec![
                (3, publish(true, QoS::AtLeastOnce, 1)),
                (3, publish(true, QoS::AtLeastOnce, 2)),
                (4, publish(true, QoS::ExactlyOnce, 1)),
                (4, publish(true, QoS::ExactlyOnce, 2)),
            ]
        );
        let stats = b.stats();
        assert_eq!((stats.publishes_in, stats.publishes_out), (2, 6));
        assert_eq!(stats.retransmissions, 4);
    }

    #[test]
    fn datagram_path_decodes_and_counts_errors() {
        let mut b = broker();
        let mut out = BrokerOutputs::new();
        b.on_datagram_routed(
            0,
            1,
            &Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: "d".into(),
            }
            .encode(),
            &mut out,
        )
        .unwrap();
        assert!(matches!(decoded(&mut out)[0].1, Packet::ConnAck { .. }));

        out.clear();
        assert!(b
            .on_datagram_routed(0, 1, b"\xff garbage", &mut out)
            .is_err());
        assert!(b.on_datagram_routed(0, 1, &[], &mut out).is_err());
        assert_eq!(b.stats().decode_errors, 2);
        assert!(out.is_empty());

        b.note_io_errors(3);
        assert_eq!(b.stats().io_errors, 3);
    }

    #[test]
    fn datagram_batch_processes_all_frames_and_reports_errors() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/batch");
        subscribe(&mut b, 2, "t/batch", QoS::AtMostOnce);

        let frames: Vec<Vec<u8>> = (0..4u8)
            .map(|i| {
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                }
                .encode()
            })
            .collect();
        // One `&mut` pass over the frames, as the shard serve loop does.
        let mut out = BrokerOutputs::new();
        let (mut fan_outs, mut errors) = (0, 0);
        for frame in frames.iter().map(Vec::as_slice).chain([&b"junk"[..]]) {
            match b.on_datagram_routed(0, 1, frame, &mut out) {
                Ok(true) => fan_outs += 1,
                Ok(false) => {}
                Err(_) => errors += 1,
            }
        }
        assert_eq!(fan_outs, 4);
        assert_eq!(errors, 1);
        assert_eq!(b.stats().decode_errors, 1);
        let delivered: Vec<u8> = decoded(&mut out)
            .iter()
            .map(|(to, p)| {
                assert_eq!(*to, 2);
                match p {
                    Packet::Publish { payload, .. } => payload[0],
                    p => panic!("unexpected {p:?}"),
                }
            })
            .collect();
        assert_eq!(delivered, vec![0, 1, 2, 3]);
    }

    /// Fan-out to many subscribers shares one wire image: QoS 0 copies are
    /// byte-identical, QoS 1 copies differ only in the patched header.
    #[test]
    fn fanout_shares_one_wire_image_with_patched_headers() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        for addr in 2..6u32 {
            connect(&mut b, addr, &format!("s{addr}"));
        }
        let tid = register(&mut b, 1, "t/fan");
        for addr in 2..4u32 {
            subscribe(&mut b, addr, "t/fan", QoS::AtMostOnce);
        }
        // Two QoS 1 subscribers get distinct msg ids via header patches.
        for addr in 4..6u32 {
            subscribe(&mut b, addr, "t/fan", QoS::AtLeastOnce);
        }
        let mut out = BrokerOutputs::new();
        let wire = Packet::Publish {
            dup: false,
            qos: QoS::AtLeastOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 9,
            payload: vec![0x42; 64],
        }
        .encode();
        b.on_datagram_routed(0, 1, &wire, &mut out).unwrap();

        let packets = decoded(&mut out);
        // PUBACK to the publisher + 4 forwards.
        assert_eq!(packets.len(), 5);
        let mut qos1_ids = Vec::new();
        for (to, p) in &packets[1..] {
            match p {
                Packet::Publish {
                    qos: QoS::AtMostOnce,
                    msg_id: 0,
                    payload,
                    ..
                } => {
                    assert!(*to == 2 || *to == 3);
                    assert_eq!(payload, &vec![0x42; 64]);
                }
                Packet::Publish {
                    qos: QoS::AtLeastOnce,
                    msg_id,
                    payload,
                    ..
                } => {
                    assert!(*to == 4 || *to == 5);
                    assert_eq!(payload, &vec![0x42; 64]);
                    qos1_ids.push(*msg_id);
                }
                p => panic!("unexpected {p:?}"),
            }
        }
        // Message ids are allocated per subscriber session: both QoS 1
        // copies carry id 1 here, patched over the QoS 0 image's id 0.
        assert_eq!(qos1_ids, vec![1, 1]);
        // emit() is repeatable: patches restore every copy's own header.
        assert_eq!(decoded(&mut out), packets);

        // A second publish advances each subscriber's msg id to 2,
        // proving the patch really is per-copy, not a stale shared value.
        out.clear();
        b.on_datagram_routed(1, 1, &wire, &mut out).unwrap();
        let ids: Vec<u16> = decoded(&mut out)
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish {
                    qos: QoS::AtLeastOnce,
                    msg_id,
                    ..
                } => Some(*msg_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![2, 2]);
    }

    #[test]
    fn subscribe_to_registered_id() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/id");
        let out = feed(
            &mut b,
            0,
            2,
            Packet::Subscribe {
                dup: false,
                qos: QoS::AtMostOnce,
                msg_id: 9,
                topic: TopicRef::Id(tid),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::SubAck {
                code: ReturnCode::Accepted,
                topic_id,
                ..
            } if topic_id == tid
        ));
    }

    /// A broker with tiny watermarks, a durable subscriber that went away,
    /// and a publisher flooding it.
    fn congested_broker(signal: bool) -> (Broker<Addr>, u16) {
        let mut b = Broker::new(BrokerConfig {
            congestion_soft: 2,
            congestion_hard: 4,
            signal_congestion: signal,
            ..BrokerConfig::default()
        });
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/cong");
        subscribe(&mut b, 2, "t/cong", QoS::AtLeastOnce);
        // The subscriber goes away; everything published now buffers.
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        (b, tid)
    }

    fn publish_qos1(b: &mut Broker<Addr>, tid: u16, msg_id: u16) -> Vec<(Addr, Packet)> {
        feed(
            b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id,
                payload: vec![1],
            },
        )
    }

    #[test]
    fn congestion_advises_then_rejects_qos1() {
        let (mut b, tid) = congested_broker(true);
        let mut saw_advisory = false;
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        for i in 1..=8u16 {
            for (to, p) in publish_qos1(&mut b, tid, i) {
                assert_eq!(to, 1, "all responses go to the publisher");
                match p {
                    Packet::CongestionAdvisory { level } if level > 0 => saw_advisory = true,
                    Packet::PubAck {
                        code: ReturnCode::Accepted,
                        ..
                    } => accepted += 1,
                    Packet::PubAck {
                        code: ReturnCode::Congestion,
                        ..
                    } => rejected += 1,
                    p => panic!("unexpected {p:?}"),
                }
            }
        }
        assert!(saw_advisory, "soft watermark must raise an advisory");
        assert!(rejected > 0, "hard watermark must reject QoS 1 publishes");
        assert_eq!(b.stats().congestion_rejects as u32, rejected);
        assert!(b.stats().advisories_sent > 0);
        assert!(b.stats().backlog_high_water >= 4);
        // Exact accounting: every accepted publish is buffered, every
        // rejected one bounced — nothing vanished.
        assert_eq!(b.backlog() as u32, accepted);
        assert_eq!(accepted + rejected, 8);
    }

    #[test]
    fn congestion_clears_via_tick_advisory() {
        let (mut b, tid) = congested_broker(true);
        for i in 1..=8u16 {
            publish_qos1(&mut b, tid, i);
        }
        assert_eq!(b.congestion_level(), 2);
        // The subscriber comes back; the durable reconnect delivers its
        // backlog, and acknowledging each message drains the broker.
        let delivered = feed(
            &mut b,
            1,
            2,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "sub".into(),
            },
        );
        for (_, p) in delivered {
            if let Packet::Publish { msg_id, .. } = p {
                feed(
                    &mut b,
                    2,
                    2,
                    Packet::PubAck {
                        topic_id: tid,
                        msg_id,
                        code: ReturnCode::Accepted,
                    },
                );
            }
        }
        assert_eq!(b.congestion_level(), 0);
        // The next tick tells the (still-advised) publisher it cleared.
        let out = feed_tick(&mut b, u64::MAX / 2);
        assert!(
            out.iter()
                .any(|(to, p)| *to == 1 && matches!(p, Packet::CongestionAdvisory { level: 0 })),
            "falling congestion must be advertised on the tick: {out:?}"
        );
    }

    #[test]
    fn signaling_disabled_restores_buffer_then_drop() {
        let (mut b, tid) = congested_broker(false);
        for i in 1..=8u16 {
            for (_, p) in publish_qos1(&mut b, tid, i) {
                assert!(
                    matches!(
                        p,
                        Packet::PubAck {
                            code: ReturnCode::Accepted,
                            ..
                        }
                    ),
                    "no advisories, no rejects with signaling off: {p:?}"
                );
            }
        }
        assert_eq!(b.stats().congestion_rejects, 0);
        assert_eq!(b.stats().advisories_sent, 0);
        // The high-water gauge still tracks, so overload is observable.
        // (Sampled on publish entry, so the 8th publish observes 7.)
        assert!(b.stats().backlog_high_water >= 7);
    }

    #[test]
    fn hard_congestion_spares_qos2_duplicates() {
        let (mut b, tid) = congested_broker(true);
        // First QoS 2 publish while clear: accepted, forwarded (buffered).
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 77,
                payload: vec![2],
            },
        );
        assert!(out
            .iter()
            .any(|(_, p)| matches!(p, Packet::PubRec { msg_id: 77 })));
        // Flood until hard congestion.
        for i in 1..=8u16 {
            publish_qos1(&mut b, tid, i);
        }
        assert_eq!(b.congestion_level(), 2);
        // A DUP retransmission of the already-forwarded QoS 2 message
        // still completes the handshake; rejecting it would trigger a
        // duplicate replay of a delivered message.
        let out = feed(
            &mut b,
            1,
            1,
            Packet::Publish {
                dup: true,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 77,
                payload: vec![2],
            },
        );
        assert!(
            out.iter()
                .any(|(_, p)| matches!(p, Packet::PubRec { msg_id: 77 })),
            "QoS 2 dup must get PUBREC, not a congestion reject: {out:?}"
        );
        assert!(!out.iter().any(|(_, p)| matches!(
            p,
            Packet::PubAck {
                code: ReturnCode::Congestion,
                ..
            }
        )));
    }
}
