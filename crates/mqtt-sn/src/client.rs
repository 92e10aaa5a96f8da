//! Sans-io MQTT-SN client state machine.
//!
//! The client never touches a socket or a clock: callers feed it inbound
//! datagrams ([`Client::on_datagram`]) and time ([`Client::on_tick`]), and
//! it encodes the datagrams to send and queues the events to surface in a
//! caller-owned [`ClientOutputs`]. The real-UDP binding in [`crate::net`]
//! and the lossy-channel tests drive this machine; the paper's
//! discrete-event simulator (`core::sim`) is a calibrated cost model that
//! does not run it.
//!
//! Retransmission follows the spec's `Tretry`/`Nretry` scheme: QoS 1/2
//! messages are re-sent with the DUP flag until acknowledged or the retry
//! budget is exhausted.

use crate::packet::{encode_publish_into, Packet, PacketRef, QoS, ReturnCode, TopicRef};
use crate::Error;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::Duration;

/// Monotonic virtual or real time in nanoseconds.
pub type Nanos = u64;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Client identifier (1..=23 bytes per spec).
    pub client_id: String,
    /// Keep-alive period; a PINGREQ is sent after this much idle time.
    pub keep_alive: Duration,
    /// Request a clean session on connect.
    pub clean_session: bool,
    /// Retransmission timeout (spec `Tretry`, typically 10–15 s; shorter
    /// in tests).
    pub retry_timeout: Duration,
    /// Maximum retransmissions (spec `Nretry`).
    pub max_retries: u32,
    /// Maximum unacknowledged QoS 1/2 publishes in flight.
    pub max_inflight: usize,
}

impl ClientConfig {
    /// Reasonable defaults for an edge device.
    pub fn new(client_id: impl Into<String>) -> Self {
        ClientConfig {
            client_id: client_id.into(),
            keep_alive: Duration::from_secs(60),
            clean_session: true,
            retry_timeout: Duration::from_secs(10),
            max_retries: 5,
            max_inflight: 64,
        }
    }
}

/// Connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientState {
    /// Not connected.
    Disconnected,
    /// CONNECT sent, awaiting CONNACK.
    Connecting,
    /// Session established.
    Connected,
}

/// Events surfaced to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// CONNACK accepted.
    Connected,
    /// CONNACK rejected.
    ConnectFailed(ReturnCode),
    /// REGACK received for a topic registration.
    Registered {
        /// The registered topic name.
        topic_name: String,
        /// The broker-assigned id.
        topic_id: u16,
    },
    /// SUBACK received.
    Subscribed {
        /// Transaction id of the SUBSCRIBE.
        msg_id: u16,
        /// Assigned topic id (0 for wildcard filters).
        topic_id: u16,
        /// Granted QoS.
        qos: QoS,
    },
    /// UNSUBACK received.
    Unsubscribed {
        /// Transaction id.
        msg_id: u16,
    },
    /// A QoS 1 publish was acknowledged or a QoS 2 publish completed its
    /// 4-way handshake.
    PublishDone {
        /// The publish's message id.
        msg_id: u16,
    },
    /// Retries exhausted for an in-flight message. The payload is parked in
    /// the dead-letter queue ([`Client::take_dead_letters`]) for replay.
    PublishFailed {
        /// The publish's message id.
        msg_id: u16,
    },
    /// The broker rejected a publish (e.g. `InvalidTopicId` after losing
    /// the registration across a restart). The payload is parked in the
    /// dead-letter queue so the caller can re-register and retry.
    PublishRejected {
        /// The publish's message id.
        msg_id: u16,
        /// The broker's rejection code.
        code: ReturnCode,
    },
    /// An application message arrived (QoS 2 duplicates already filtered).
    Message {
        /// Topic reference it was published to.
        topic: TopicRef,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// The broker stopped answering keep-alive pings.
    PingTimeout,
    /// Broker confirmed disconnect.
    Disconnected,
    /// The broker advertised its congestion level (vendor
    /// [`Packet::CongestionAdvisory`]): 0 = clear, 1 = soft (pace and
    /// coalesce), 2 = hard (QoS ≥ 1 publishes are being rejected).
    Congestion {
        /// Advertised level.
        level: u8,
    },
}

/// Where the client writes what it wants done: every outbound datagram
/// encoded into one shared wire buffer, plus the events to surface. The
/// caller owns it and reuses it across calls, so the steady-state publish
/// path allocates nothing.
#[derive(Debug, Default)]
pub struct ClientOutputs {
    wire: Vec<u8>,
    datagrams: Vec<Range<usize>>,
    /// Events for the application, oldest first.
    pub events: VecDeque<ClientEvent>,
}

impl ClientOutputs {
    /// Creates empty outputs (allocates lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Yields each pending datagram in production order, then forgets
    /// them (capacity retained). Queued events are left alone.
    pub fn emit(&mut self, mut f: impl FnMut(&[u8])) {
        // lint: zero-alloc-begin
        for range in self.datagrams.drain(..) {
            f(&self.wire[range]);
        }
        self.wire.clear();
        // lint: zero-alloc-end
    }

    fn send(&mut self, packet: &Packet) {
        let start = self.wire.len();
        packet.encode_into(&mut self.wire);
        self.datagrams.push(start..self.wire.len());
    }

    fn send_publish(&mut self, dup: bool, qos: QoS, topic: &TopicRef, msg_id: u16, payload: &[u8]) {
        let w = encode_publish_into(dup, qos, false, topic, msg_id, payload, &mut self.wire);
        self.datagrams.push(w.start..w.end);
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
struct PendingControl {
    packet: Packet,
    last_sent: Nanos,
    retries: u32,
}

#[derive(Clone, Debug)]
struct InFlight {
    topic: TopicRef,
    payload: Vec<u8>,
    qos: QoS,
    phase: OutPhase,
    last_sent: Nanos,
    retries: u32,
    /// Monotonic publish-order stamp. Retransmission and dead-lettering
    /// iterate in this order, not msg-id order — msg ids wrap at u16 and
    /// would scramble replay order on long-running sessions.
    seq: u64,
}

/// The client state machine.
#[derive(Debug)]
pub struct Client {
    config: ClientConfig,
    state: ClientState,
    next_msg_id: u16,
    /// Publish-order counter backing [`InFlight::seq`].
    next_seq: u64,
    pending_register: HashMap<u16, String>,
    /// Control packets awaiting replies (CONNECT / REGISTER / SUBSCRIBE /
    /// UNSUBSCRIBE), retransmitted on `Tretry` per spec §6.13.
    pending_control: HashMap<u16, PendingControl>,
    inflight: HashMap<u16, InFlight>,
    /// Inbound QoS 2 message ids between PUBLISH and PUBREL (dedup set).
    inbound_qos2: HashMap<u16, ()>,
    /// Recently completed inbound QoS 2 ids (bounded FIFO, newest last): a
    /// delayed duplicate PUBLISH arriving *after* its PUBREL cleared the
    /// pending entry must still be suppressed, or a reordering link breaks
    /// exactly-once delivery. Brokers allocate ids sequentially, so a
    /// legitimate id reuse is ~65k handshakes away — far beyond this
    /// window.
    completed_qos2: VecDeque<u16>,
    /// Cleared payload buffers reclaimed from completed publishes, handed
    /// back to callers via [`Client::take_spare_payload`] so the publish
    /// path can run without per-message allocation.
    spare_payloads: Vec<Vec<u8>>,
    /// Topic name → broker-assigned id learned from REGACKs; re-registered
    /// on session resumption.
    registered_topics: HashMap<String, u16>,
    /// SUBSCRIBE transactions awaiting a SUBACK: msg id → (filter, qos).
    pending_subscribe: HashMap<u16, (String, QoS)>,
    /// Acknowledged subscriptions, re-subscribed on session resumption.
    subscribed_filters: Vec<(String, QoS)>,
    /// True between [`Client::reconnect`] and the accepted CONNACK.
    resuming: bool,
    /// During resumption: topic names awaiting a fresh REGACK → the id they
    /// had in the previous session, so in-flight publishes can be remapped
    /// if the broker (e.g. after a restart) assigns a different id.
    resume_pending: HashMap<String, u16>,
    /// Payloads of publishes that exhausted retries or were rejected by the
    /// broker, recoverable via [`Client::take_dead_letters`] for replay.
    dead_letters: Vec<(u16, Vec<u8>)>,
    last_tx: Nanos,
    ping_outstanding_since: Option<Nanos>,
}

/// Upper bound on buffers retained for reuse.
const MAX_SPARE_PAYLOADS: usize = 16;

/// How many completed inbound QoS 2 ids are remembered to suppress late
/// duplicate PUBLISHes (see [`Client::completed_qos2`]).
const COMPLETED_QOS2_WINDOW: usize = 64;

impl Client {
    /// Creates a disconnected client.
    pub fn new(config: ClientConfig) -> Self {
        Client {
            config,
            state: ClientState::Disconnected,
            next_msg_id: 1,
            next_seq: 0,
            pending_register: HashMap::new(),
            pending_control: HashMap::new(),
            inflight: HashMap::new(),
            inbound_qos2: HashMap::new(),
            completed_qos2: VecDeque::new(),
            spare_payloads: Vec::new(),
            registered_topics: HashMap::new(),
            pending_subscribe: HashMap::new(),
            subscribed_filters: Vec::new(),
            resuming: false,
            resume_pending: HashMap::new(),
            dead_letters: Vec::new(),
            last_tx: 0,
            ping_outstanding_since: None,
        }
    }

    /// Takes a reclaimed payload buffer (cleared, capacity retained) from a
    /// completed publish, if one is available. Encoding the next message
    /// into such a buffer makes the steady-state publish path allocation-free.
    pub fn take_spare_payload(&mut self) -> Option<Vec<u8>> {
        self.spare_payloads.pop()
    }

    /// Hands a no-longer-needed payload buffer back for reuse: an encoded
    /// publish the caller decided not to send, or a consumed
    /// [`ClientEvent::Message`] payload.
    pub fn reclaim_payload(&mut self, mut payload: Vec<u8>) {
        if self.spare_payloads.len() < MAX_SPARE_PAYLOADS {
            payload.clear();
            self.spare_payloads.push(payload);
        }
    }

    /// Current connection state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Number of unacknowledged QoS 1/2 publishes.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether another QoS 1/2 publish can be started.
    pub fn can_publish(&self) -> bool {
        self.inflight.len() < self.config.max_inflight
    }

    /// Broker-assigned id of a topic registered in this (or, after
    /// resumption, the previous) session.
    pub fn topic_id(&self, topic_name: &str) -> Option<u16> {
        self.registered_topics.get(topic_name).copied()
    }

    /// False while session resumption is still in progress: the CONNACK
    /// has not arrived or tracked topics still await their fresh REGACK.
    pub fn resume_complete(&self) -> bool {
        !self.resuming && self.resume_pending.is_empty()
    }

    /// Drains payloads of publishes that exhausted retries or were rejected
    /// by the broker, so transports can buffer and replay them instead of
    /// losing the records.
    pub fn take_dead_letters(&mut self) -> Vec<(u16, Vec<u8>)> {
        std::mem::take(&mut self.dead_letters)
    }

    /// In-flight message ids matching `filter`, in original publish order
    /// (by [`InFlight::seq`], which unlike the u16 msg id never wraps).
    fn inflight_in_publish_order(&self, filter: impl Fn(&InFlight) -> bool) -> Vec<u16> {
        let mut ids: Vec<(u64, u16)> = self
            .inflight
            .iter()
            .filter(|(_, f)| filter(f))
            .map(|(id, f)| (f.seq, *id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    fn alloc_msg_id(&mut self) -> u16 {
        loop {
            let id = self.next_msg_id;
            self.next_msg_id = self.next_msg_id.wrapping_add(1);
            if self.next_msg_id == 0 {
                self.next_msg_id = 1;
            }
            // A live id may belong to a data publish OR a control
            // transaction (SUBSCRIBE/UNSUBSCRIBE share the message-id space
            // with PUBLISH per spec §5.4) — handing a publish an
            // outstanding control id would overwrite that transaction's
            // retransmission state.
            if id != 0
                && !self.inflight.contains_key(&id)
                && !self.pending_register.contains_key(&id)
                && !self.pending_control.contains_key(&id)
            {
                return id;
            }
        }
    }

    /// Initiates the connection handshake. The CONNECT is retransmitted
    /// on `Tretry` until the CONNACK arrives or retries are exhausted.
    pub fn connect(&mut self, now: Nanos, out: &mut ClientOutputs) {
        self.send_connect(self.config.clean_session, now, out);
    }

    /// Re-initiates the connection handshake after a lost connection,
    /// requesting session continuation (`clean_session = false`). On the
    /// accepted CONNACK the client re-registers every tracked topic,
    /// re-subscribes every acknowledged filter, and retransmits in-flight
    /// QoS 1/2 publishes with the DUP flag — remapping their topic ids if
    /// the broker (e.g. after a restart) assigns different ones.
    pub fn reconnect(&mut self, now: Nanos, out: &mut ClientOutputs) {
        self.ping_outstanding_since = None;
        self.resuming = true;
        // Stale control transactions from the dead connection are dropped;
        // resumed state is rebuilt from the tracked registrations and
        // subscriptions once the CONNACK arrives.
        self.pending_control.clear();
        self.pending_register.clear();
        self.resume_pending.clear();
        // The completed-QoS2 window only guards against datagrams delayed
        // *within* one connection epoch; across a reconnect it must reset,
        // because a broker restarted with fresh state legitimately reuses
        // msg_ids for new messages. `inbound_qos2` (handshakes still open)
        // is kept: a persisted-state broker resumes those with DUP
        // retransmissions that must still dedup.
        self.completed_qos2.clear();
        self.send_connect(false, now, out);
    }

    fn send_connect(&mut self, clean_session: bool, now: Nanos, out: &mut ClientOutputs) {
        self.state = ClientState::Connecting;
        let packet = Packet::Connect {
            clean_session,
            duration: self.config.keep_alive.as_secs().min(u16::MAX as u64) as u16,
            client_id: self.config.client_id.clone(),
        };
        self.send_control(0, packet, now, out);
    }

    /// Sends a packet that awaits a reply, tracked under `id` for `Tretry`
    /// retransmission.
    fn send_control(&mut self, id: u16, packet: Packet, now: Nanos, out: &mut ClientOutputs) {
        out.send(&packet);
        self.last_tx = now;
        self.pending_control.insert(
            id,
            PendingControl {
                packet,
                last_sent: now,
                retries: 0,
            },
        );
    }

    /// Requests a topic-id for `topic_name`. The id arrives via
    /// [`ClientEvent::Registered`].
    pub fn register(
        &mut self,
        topic_name: &str,
        now: Nanos,
        out: &mut ClientOutputs,
    ) -> Result<u16, Error> {
        if self.state != ClientState::Connected {
            return Err(Error::BadState("register before connected"));
        }
        Ok(self.send_register(topic_name.to_owned(), now, out))
    }

    fn send_register(&mut self, topic_name: String, now: Nanos, out: &mut ClientOutputs) -> u16 {
        let msg_id = self.alloc_msg_id();
        self.pending_register.insert(msg_id, topic_name.clone());
        let packet = Packet::Register {
            topic_id: 0,
            msg_id,
            topic_name,
        };
        self.send_control(msg_id, packet, now, out);
        msg_id
    }

    /// Publishes a payload to a registered topic id, encoding the PUBLISH
    /// into `out`.
    ///
    /// Returns the message id (0 for QoS 0). A QoS 0 payload buffer goes
    /// straight back to the spare pool; a QoS 1/2 one is kept for
    /// retransmission until [`ClientEvent::PublishDone`].
    pub fn publish(
        &mut self,
        topic: TopicRef,
        payload: Vec<u8>,
        qos: QoS,
        now: Nanos,
        out: &mut ClientOutputs,
    ) -> Result<u16, Error> {
        // lint: zero-alloc-begin
        if self.state != ClientState::Connected {
            return Err(Error::BadState("publish before connected"));
        }
        if matches!(topic, TopicRef::Name(_)) {
            return Err(Error::BadState("PUBLISH requires a topic id"));
        }
        if qos == QoS::AtMostOnce {
            self.last_tx = now;
            out.send_publish(false, qos, &topic, 0, &payload);
            self.reclaim_payload(payload);
            return Ok(0);
        }
        if !self.can_publish() {
            return Err(Error::InflightFull);
        }
        self.last_tx = now;
        let msg_id = self.alloc_msg_id();
        out.send_publish(false, qos, &topic, msg_id, &payload);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(
            msg_id,
            InFlight {
                topic,
                payload,
                qos,
                phase: if qos == QoS::AtLeastOnce {
                    OutPhase::Puback
                } else {
                    OutPhase::Pubrec
                },
                last_sent: now,
                retries: 0,
                seq,
            },
        );
        Ok(msg_id)
        // lint: zero-alloc-end
    }

    /// Subscribes to a topic filter.
    pub fn subscribe(
        &mut self,
        filter: &str,
        qos: QoS,
        now: Nanos,
        out: &mut ClientOutputs,
    ) -> Result<u16, Error> {
        if self.state != ClientState::Connected {
            return Err(Error::BadState("subscribe before connected"));
        }
        if !crate::topic::filter_is_valid(filter) {
            return Err(Error::BadState("invalid topic filter"));
        }
        Ok(self.send_subscribe(filter.to_owned(), qos, now, out))
    }

    fn send_subscribe(
        &mut self,
        filter: String,
        qos: QoS,
        now: Nanos,
        out: &mut ClientOutputs,
    ) -> u16 {
        let msg_id = self.alloc_msg_id();
        self.pending_subscribe.insert(msg_id, (filter.clone(), qos));
        let packet = Packet::Subscribe {
            dup: false,
            qos,
            msg_id,
            topic: TopicRef::Name(filter),
        };
        self.send_control(msg_id, packet, now, out);
        msg_id
    }

    /// Starts a graceful disconnect: the session transitions to
    /// `Disconnected` immediately (spec §6.15 — the client is disconnected
    /// the moment it sends DISCONNECT, whether or not the broker's reply
    /// arrives) and timer state is cleared so no keep-alive or control
    /// retransmission fires on the torn-down session. In-flight publishes
    /// and tracked registrations are retained for a later
    /// [`Client::reconnect`].
    pub fn disconnect(&mut self, now: Nanos, out: &mut ClientOutputs) {
        self.last_tx = now;
        self.state = ClientState::Disconnected;
        self.ping_outstanding_since = None;
        self.pending_control.clear();
        out.send(&Packet::Disconnect { duration: None });
    }

    /// Feeds one raw inbound datagram. A PUBLISH payload decodes borrowed
    /// and is copied only when delivered, once, into a buffer from the
    /// spare-payload pool, so a subscriber's steady-state receive path
    /// reuses the same backing allocations; a suppressed QoS 2 duplicate
    /// gets its PUBREC without any copy.
    pub fn on_datagram(
        &mut self,
        datagram: &[u8],
        now: Nanos,
        out: &mut ClientOutputs,
    ) -> Result<(), Error> {
        match Packet::decode_borrowed(datagram)? {
            PacketRef::Publish {
                qos,
                topic,
                msg_id,
                payload,
                ..
            } => self.on_publish(qos, topic, msg_id, payload, now, out),
            PacketRef::Owned(p) => self.on_packet(p, now, out),
        }
        Ok(())
    }

    /// Delivers an inbound PUBLISH and acknowledges it per its QoS.
    fn on_publish(
        &mut self,
        qos: QoS,
        topic: TopicRef,
        msg_id: u16,
        payload: &[u8],
        now: Nanos,
        out: &mut ClientOutputs,
    ) {
        let topic_id = match topic {
            TopicRef::Id(id) | TopicRef::Predefined(id) => id,
            TopicRef::Name(_) => 0,
        };
        // QoS 2 delivers on first receipt; DUP re-deliveries are suppressed
        // while the handshake is pending AND for the recently-completed
        // window (a delayed copy can arrive after the PUBREL).
        let duplicate = qos == QoS::ExactlyOnce
            && (self.inbound_qos2.contains_key(&msg_id) || self.completed_qos2.contains(&msg_id));
        if !duplicate {
            if qos == QoS::ExactlyOnce {
                self.inbound_qos2.insert(msg_id, ());
            }
            let mut owned = self.take_spare_payload().unwrap_or_default();
            owned.extend_from_slice(payload);
            out.events.push_back(ClientEvent::Message {
                topic,
                payload: owned,
            });
        }
        match qos {
            QoS::AtMostOnce => return,
            QoS::AtLeastOnce => out.send(&Packet::PubAck {
                topic_id,
                msg_id,
                code: ReturnCode::Accepted,
            }),
            QoS::ExactlyOnce => out.send(&Packet::PubRec { msg_id }),
        }
        self.last_tx = now;
    }

    /// Dispatches one inbound packet other than PUBLISH.
    fn on_packet(&mut self, packet: Packet, now: Nanos, out: &mut ClientOutputs) {
        match packet {
            Packet::ConnAck { code } => {
                self.pending_control.remove(&0);
                if code == ReturnCode::Accepted {
                    self.state = ClientState::Connected;
                    self.ping_outstanding_since = None;
                    out.events.push_back(ClientEvent::Connected);
                    if self.resuming {
                        self.resuming = false;
                        self.resume_session(now, out);
                    }
                } else {
                    self.state = ClientState::Disconnected;
                    self.resuming = false;
                    out.events.push_back(ClientEvent::ConnectFailed(code));
                }
            }
            Packet::RegAck {
                topic_id,
                msg_id,
                code,
            } => {
                self.pending_control.remove(&msg_id);
                if let Some(topic_name) = self.pending_register.remove(&msg_id) {
                    if code == ReturnCode::Accepted {
                        self.registered_topics.insert(topic_name.clone(), topic_id);
                        if let Some(old_id) = self.resume_pending.remove(&topic_name) {
                            self.retransmit_remapped(old_id, topic_id, now, out);
                        }
                        out.events.push_back(ClientEvent::Registered {
                            topic_name,
                            topic_id,
                        });
                    } else if let Some(old_id) = self.resume_pending.remove(&topic_name) {
                        // The broker refused to resume this registration:
                        // stop tracking the topic (so resume_complete()
                        // can report success) and fail its in-flight
                        // publishes into the dead-letter queue instead of
                        // leaving them stuck un-remapped forever.
                        self.registered_topics.remove(&topic_name);
                        let ids =
                            self.inflight_in_publish_order(|f| f.topic == TopicRef::Id(old_id));
                        for id in ids {
                            if let Some(f) = self.inflight.remove(&id) {
                                self.dead_letters.push((id, f.payload));
                            }
                            out.events
                                .push_back(ClientEvent::PublishRejected { msg_id: id, code });
                        }
                    }
                }
            }
            Packet::SubAck {
                qos,
                topic_id,
                msg_id,
                code,
            } => {
                self.pending_control.remove(&msg_id);
                if code == ReturnCode::Accepted {
                    if let Some((filter, granted)) = self.pending_subscribe.remove(&msg_id) {
                        self.subscribed_filters.retain(|(f, _)| f != &filter);
                        self.subscribed_filters.push((filter, granted));
                    }
                    out.events.push_back(ClientEvent::Subscribed {
                        msg_id,
                        topic_id,
                        qos,
                    });
                } else {
                    self.pending_subscribe.remove(&msg_id);
                }
            }
            Packet::UnsubAck { msg_id } => {
                self.pending_control.remove(&msg_id);
                out.events.push_back(ClientEvent::Unsubscribed { msg_id });
            }
            Packet::PubAck { msg_id, code, .. } => {
                if code != ReturnCode::Accepted {
                    // A rejection (e.g. InvalidTopicId from a broker that
                    // lost the registration across a restart) terminates the
                    // exchange for QoS 1 *and* QoS 2 — reporting it as
                    // PublishDone would silently lose the record. Park the
                    // payload for replay after re-registration.
                    if let Some(f) = self.inflight.remove(&msg_id) {
                        self.dead_letters.push((msg_id, f.payload));
                        out.events
                            .push_back(ClientEvent::PublishRejected { msg_id, code });
                    }
                } else if let Some(f) = self.inflight.get(&msg_id) {
                    if matches!(f.phase, OutPhase::Puback) {
                        if let Some(f) = self.inflight.remove(&msg_id) {
                            self.reclaim_payload(f.payload);
                        }
                        out.events.push_back(ClientEvent::PublishDone { msg_id });
                    }
                }
            }
            Packet::PubRec { msg_id } => {
                // lint: zero-alloc-begin
                if let Some(f) = self.inflight.get_mut(&msg_id) {
                    f.phase = OutPhase::Pubcomp;
                    f.last_sent = now;
                    f.retries = 0;
                }
                // Always answer PUBREC (idempotent PUBREL).
                self.last_tx = now;
                out.send(&Packet::PubRel { msg_id });
                // lint: zero-alloc-end
            }
            Packet::PubComp { msg_id } => {
                // lint: zero-alloc-begin
                if let Some(f) = self.inflight.remove(&msg_id) {
                    self.reclaim_payload(f.payload);
                    out.events.push_back(ClientEvent::PublishDone { msg_id });
                }
                // lint: zero-alloc-end
            }
            Packet::PubRel { msg_id } => {
                if self.inbound_qos2.remove(&msg_id).is_some() {
                    if self.completed_qos2.len() >= COMPLETED_QOS2_WINDOW {
                        self.completed_qos2.pop_front();
                    }
                    self.completed_qos2.push_back(msg_id);
                }
                self.last_tx = now;
                out.send(&Packet::PubComp { msg_id });
            }
            Packet::PingResp => {
                self.ping_outstanding_since = None;
            }
            Packet::PingReq => {
                self.last_tx = now;
                out.send(&Packet::PingResp);
            }
            Packet::Disconnect { .. } => {
                self.state = ClientState::Disconnected;
                out.events.push_back(ClientEvent::Disconnected);
            }
            // Broker-originated REGISTER (topic id assignment for
            // wildcard subscribers): acknowledge.
            Packet::Register {
                topic_id, msg_id, ..
            } => {
                self.last_tx = now;
                out.send(&Packet::RegAck {
                    topic_id,
                    msg_id,
                    code: ReturnCode::Accepted,
                });
            }
            Packet::CongestionAdvisory { level } => {
                out.events.push_back(ClientEvent::Congestion { level });
            }
            _ => {}
        }
    }

    /// Emits the session-resumption traffic after a reconnect CONNACK:
    /// fresh REGISTERs for every tracked topic, fresh SUBSCRIBEs for every
    /// acknowledged filter, and immediate DUP retransmission of in-flight
    /// publishes whose topic ids cannot change (predefined ids). In-flight
    /// publishes on registered ids wait for their fresh REGACK so they can
    /// be remapped if the broker assigns a different id.
    fn resume_session(&mut self, now: Nanos, out: &mut ClientOutputs) {
        let mut filters: Vec<(String, QoS)> = self.subscribed_filters.clone();
        filters.sort_by(|a, b| a.0.cmp(&b.0));
        for (filter, qos) in filters {
            self.send_subscribe(filter, qos, now, out);
        }
        let mut topics: Vec<(String, u16)> = self
            .registered_topics
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        topics.sort();
        for (name, old_id) in topics {
            self.resume_pending.insert(name.clone(), old_id);
            self.send_register(name, now, out);
        }
        // In-flight publishes whose topic reference is not subject to
        // re-registration retransmit immediately.
        let resume_pending = &self.resume_pending;
        let ids = self.inflight_in_publish_order(|f| match f.topic {
            TopicRef::Predefined(_) | TopicRef::Name(_) => true,
            TopicRef::Id(id) => !resume_pending.values().any(|old| *old == id),
        });
        for id in ids {
            self.retransmit_inflight(id, 0, now, out);
        }
        self.last_tx = now;
    }

    /// Remaps in-flight publishes from a pre-reconnect topic id to the
    /// freshly registered one and retransmits them with the DUP flag.
    fn retransmit_remapped(
        &mut self,
        old_id: u16,
        new_id: u16,
        now: Nanos,
        out: &mut ClientOutputs,
    ) {
        let ids = self.inflight_in_publish_order(|f| f.topic == TopicRef::Id(old_id));
        for id in ids {
            if let Some(f) = self.inflight.get_mut(&id) {
                f.topic = TopicRef::Id(new_id);
            }
            self.retransmit_inflight(id, 0, now, out);
        }
    }

    /// Re-sends one in-flight message — a DUP PUBLISH before its PUBREC, a
    /// PUBREL after it — as retry number `retries`.
    fn retransmit_inflight(&mut self, id: u16, retries: u32, now: Nanos, out: &mut ClientOutputs) {
        let Some(f) = self.inflight.get_mut(&id) else {
            return;
        };
        f.retries = retries;
        f.last_sent = now;
        match f.phase {
            OutPhase::Puback | OutPhase::Pubrec => {
                out.send_publish(true, f.qos, &f.topic, id, &f.payload)
            }
            OutPhase::Pubcomp => out.send(&Packet::PubRel { msg_id: id }),
        }
        self.last_tx = now;
    }

    /// Drives timers: retransmissions and keep-alive. Call at least every
    /// `retry_timeout / 2`.
    pub fn on_tick(&mut self, now: Nanos, out: &mut ClientOutputs) {
        let retry_ns = self.config.retry_timeout.as_nanos() as u64;
        let due = |last_sent: Nanos| now.saturating_sub(last_sent) >= retry_ns;

        // Control-packet retransmission (spec: retransmit any message
        // awaiting a reply on Tretry, up to Nretry times). Runs in the
        // Connecting state too, so lost CONNECTs self-heal. Only due ids
        // are collected, so a tick with nothing due allocates nothing.
        let mut control_ids: Vec<u16> = self
            .pending_control
            .iter()
            .filter(|(_, c)| due(c.last_sent))
            .map(|(id, _)| *id)
            .collect();
        control_ids.sort_unstable();
        for id in control_ids {
            let Some(c) = self.pending_control.get_mut(&id) else {
                continue;
            };
            if c.retries >= self.config.max_retries {
                self.pending_control.remove(&id);
                if id == 0 {
                    self.state = ClientState::Disconnected;
                    out.events
                        .push_back(ClientEvent::ConnectFailed(ReturnCode::Congestion));
                }
                continue;
            }
            c.retries += 1;
            c.last_sent = now;
            // Every retransmission of a SUBSCRIBE carries DUP.
            if let Packet::Subscribe { dup, .. } = &mut c.packet {
                *dup = true;
            }
            out.send(&c.packet);
            self.last_tx = now;
        }

        if self.state != ClientState::Connected {
            return;
        }

        let mut failed = Vec::new();
        // Deterministic retransmission in original publish order (seq, not
        // msg id, which wraps).
        let ids = self.inflight_in_publish_order(|f| due(f.last_sent));
        for id in ids {
            let Some(f) = self.inflight.get(&id) else {
                continue;
            };
            if f.retries >= self.config.max_retries {
                failed.push(id);
            } else {
                let retries = f.retries + 1;
                self.retransmit_inflight(id, retries, now, out);
            }
        }
        for id in failed {
            if let Some(f) = self.inflight.remove(&id) {
                match f.phase {
                    // Retry exhaustion usually means the link is down, not
                    // that the record is unwanted — park the payload for
                    // replay after a reconnect instead of dropping it.
                    OutPhase::Puback | OutPhase::Pubrec => {
                        self.dead_letters.push((id, f.payload));
                    }
                    // A PUBREC was received, so the broker provably holds
                    // (and forwarded) the message — replaying it as a fresh
                    // publish would double-deliver; only the handshake
                    // cleanup is abandoned.
                    OutPhase::Pubcomp => self.reclaim_payload(f.payload),
                }
            }
            out.events
                .push_back(ClientEvent::PublishFailed { msg_id: id });
        }

        // Keep-alive.
        let ka_ns = self.config.keep_alive.as_nanos() as u64;
        if ka_ns > 0 {
            match self.ping_outstanding_since {
                Some(since) if now.saturating_sub(since) > retry_ns => {
                    self.ping_outstanding_since = None;
                    out.events.push_back(ClientEvent::PingTimeout);
                }
                None if now.saturating_sub(self.last_tx) >= ka_ns => {
                    self.ping_outstanding_since = Some(now);
                    self.last_tx = now;
                    out.send(&Packet::PingReq);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds one packet through the datagram path.
    fn feed(c: &mut Client, packet: Packet, now: Nanos) -> ClientOutputs {
        let mut out = ClientOutputs::new();
        c.on_datagram(&packet.encode(), now, &mut out).unwrap();
        out
    }

    fn tick(c: &mut Client, now: Nanos) -> ClientOutputs {
        let mut out = ClientOutputs::new();
        c.on_tick(now, &mut out);
        out
    }

    fn accept(c: &mut Client, now: Nanos) -> ClientOutputs {
        feed(
            c,
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            now,
        )
    }

    fn client_with(cfg: ClientConfig) -> Client {
        let mut c = Client::new(cfg);
        c.connect(0, &mut ClientOutputs::new());
        accept(&mut c, 0);
        assert_eq!(c.state(), ClientState::Connected);
        c
    }

    fn connected_client() -> Client {
        client_with(ClientConfig::new("dev1"))
    }

    /// Decodes (and drains) the datagrams in `out`.
    fn sends(out: &mut ClientOutputs) -> Vec<Packet> {
        let mut sent = Vec::new();
        out.emit(|bytes| sent.push(Packet::decode(bytes).unwrap()));
        sent
    }

    /// Drains the events in `out`.
    fn events(out: &mut ClientOutputs) -> Vec<ClientEvent> {
        out.events.drain(..).collect()
    }

    fn publish(c: &mut Client, topic: u16, payload: Vec<u8>, qos: QoS, now: Nanos) -> u16 {
        c.publish(
            TopicRef::Id(topic),
            payload,
            qos,
            now,
            &mut ClientOutputs::new(),
        )
        .unwrap()
    }

    fn register(c: &mut Client, topic_name: &str, topic_id: u16) {
        let msg_id = c
            .register(topic_name, 0, &mut ClientOutputs::new())
            .unwrap();
        feed(
            c,
            Packet::RegAck {
                topic_id,
                msg_id,
                code: ReturnCode::Accepted,
            },
            1,
        );
    }

    fn inbound_qos2(msg_id: u16, payload: u8) -> Packet {
        Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(3),
            msg_id,
            payload: vec![payload],
        }
    }

    #[test]
    fn connect_handshake() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        let mut out = ClientOutputs::new();
        c.connect(0, &mut out);
        assert!(matches!(sends(&mut out)[0], Packet::Connect { .. }));
        assert_eq!(c.state(), ClientState::Connecting);
        let mut out = accept(&mut c, 1);
        assert_eq!(events(&mut out), vec![ClientEvent::Connected]);
    }

    #[test]
    fn connect_rejection_reported() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        c.connect(0, &mut ClientOutputs::new());
        let mut out = feed(
            &mut c,
            Packet::ConnAck {
                code: ReturnCode::Congestion,
            },
            1,
        );
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::ConnectFailed(ReturnCode::Congestion)]
        );
        assert_eq!(c.state(), ClientState::Disconnected);
    }

    #[test]
    fn register_roundtrip() {
        let mut c = connected_client();
        let mut out = ClientOutputs::new();
        let msg_id = c.register("provlight/wf1/dev1", 10, &mut out).unwrap();
        assert!(matches!(
            sends(&mut out)[0],
            Packet::Register { topic_id: 0, .. }
        ));
        let mut out = feed(
            &mut c,
            Packet::RegAck {
                topic_id: 42,
                msg_id,
                code: ReturnCode::Accepted,
            },
            20,
        );
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::Registered {
                topic_name: "provlight/wf1/dev1".into(),
                topic_id: 42
            }]
        );
    }

    #[test]
    fn qos0_publish_has_no_state() {
        let mut c = connected_client();
        let mut out = ClientOutputs::new();
        let id = c
            .publish(TopicRef::Id(1), vec![1, 2], QoS::AtMostOnce, 5, &mut out)
            .unwrap();
        assert_eq!(id, 0);
        assert_eq!(sends(&mut out).len(), 1);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn qos1_publish_completes_on_puback() {
        let mut c = connected_client();
        let id = publish(&mut c, 1, vec![1], QoS::AtLeastOnce, 5);
        assert_eq!(c.inflight_len(), 1);
        let mut out = feed(
            &mut c,
            Packet::PubAck {
                topic_id: 1,
                msg_id: id,
                code: ReturnCode::Accepted,
            },
            6,
        );
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishDone { msg_id: id }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn qos2_four_way_handshake() {
        let mut c = connected_client();
        let id = publish(&mut c, 1, vec![9], QoS::ExactlyOnce, 5);
        // PUBREC -> client answers PUBREL.
        let mut out = feed(&mut c, Packet::PubRec { msg_id: id }, 6);
        assert_eq!(sends(&mut out), vec![Packet::PubRel { msg_id: id }]);
        assert_eq!(c.inflight_len(), 1);
        // PUBCOMP -> done.
        let mut out = feed(&mut c, Packet::PubComp { msg_id: id }, 7);
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishDone { msg_id: id }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn publish_retransmits_with_dup_then_fails() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 2;
        let mut c = client_with(cfg);
        let id = publish(&mut c, 1, vec![1], QoS::ExactlyOnce, 0);
        let s = 1_000_000_000u64;
        // First retry.
        match &sends(&mut tick(&mut c, s + 1))[0] {
            Packet::Publish { dup, msg_id, .. } => {
                assert!(*dup);
                assert_eq!(*msg_id, id);
            }
            p => panic!("unexpected {p:?}"),
        }
        // Second retry.
        assert_eq!(sends(&mut tick(&mut c, 2 * s + 2)).len(), 1);
        // Exhausted.
        let mut out = tick(&mut c, 3 * s + 3);
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishFailed { msg_id: id }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn inflight_window_enforced() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.max_inflight = 2;
        let mut c = client_with(cfg);
        publish(&mut c, 1, vec![], QoS::ExactlyOnce, 0);
        publish(&mut c, 1, vec![], QoS::ExactlyOnce, 0);
        assert!(!c.can_publish());
        let err = c
            .publish(
                TopicRef::Id(1),
                vec![],
                QoS::ExactlyOnce,
                0,
                &mut ClientOutputs::new(),
            )
            .unwrap_err();
        assert_eq!(err, Error::InflightFull);
    }

    #[test]
    fn inbound_qos2_delivers_exactly_once() {
        let mut c = connected_client();
        let mut out = feed(&mut c, inbound_qos2(77, 5), 1);
        assert_eq!(events(&mut out).len(), 1);
        assert_eq!(sends(&mut out), vec![Packet::PubRec { msg_id: 77 }]);
        // DUP redelivery before PUBREL: no second Message event.
        let mut out = feed(&mut c, inbound_qos2(77, 5), 2);
        assert_eq!(events(&mut out).len(), 0);
        assert_eq!(sends(&mut out), vec![Packet::PubRec { msg_id: 77 }]);
        // PUBREL clears the id and is answered with PUBCOMP.
        let mut out = feed(&mut c, Packet::PubRel { msg_id: 77 }, 3);
        assert_eq!(sends(&mut out), vec![Packet::PubComp { msg_id: 77 }]);
    }

    #[test]
    fn late_duplicate_after_pubrel_is_still_suppressed() {
        let mut c = connected_client();
        let mut out = feed(&mut c, inbound_qos2(77, 5), 1);
        assert_eq!(events(&mut out).len(), 1);
        feed(&mut c, Packet::PubRel { msg_id: 77 }, 2);

        // A delayed copy of the PUBLISH arrives after the handshake
        // completed (reordering link): no second Message event, but the
        // PUBREC still goes out so the sender's handshake can re-finish.
        let mut out = feed(&mut c, inbound_qos2(77, 5), 3);
        assert_eq!(events(&mut out).len(), 0, "late duplicate delivered twice");
        assert_eq!(sends(&mut out), vec![Packet::PubRec { msg_id: 77 }]);

        // The window is bounded: after enough *other* completed
        // handshakes, the oldest id ages out and can be legitimately
        // reused for a brand-new message.
        for id in 100..100 + COMPLETED_QOS2_WINDOW as u16 {
            feed(&mut c, inbound_qos2(id, 1), 4);
            feed(&mut c, Packet::PubRel { msg_id: id }, 5);
        }
        let mut out = feed(&mut c, inbound_qos2(77, 6), 6);
        assert_eq!(
            events(&mut out).len(),
            1,
            "evicted id blocked a new message"
        );
    }

    #[test]
    fn keepalive_ping_and_timeout() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.keep_alive = Duration::from_secs(10);
        cfg.retry_timeout = Duration::from_secs(2);
        let mut c = client_with(cfg);
        let s = 1_000_000_000u64;
        assert_eq!(sends(&mut tick(&mut c, 10 * s)), vec![Packet::PingReq]);
        // PINGRESP clears it.
        feed(&mut c, Packet::PingResp, 10 * s + 1);
        assert!(events(&mut tick(&mut c, 11 * s)).is_empty());
        // Next ping unanswered long enough -> timeout event.
        assert_eq!(sends(&mut tick(&mut c, 21 * s)), vec![Packet::PingReq]);
        assert_eq!(
            events(&mut tick(&mut c, 24 * s)),
            vec![ClientEvent::PingTimeout]
        );
    }

    #[test]
    fn operations_require_connection() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        let mut out = ClientOutputs::new();
        assert!(c.register("t", 0, &mut out).is_err());
        assert!(c
            .publish(TopicRef::Id(1), vec![], QoS::AtMostOnce, 0, &mut out)
            .is_err());
        assert!(c.subscribe("t/#", QoS::AtMostOnce, 0, &mut out).is_err());
    }

    #[test]
    fn subscribe_validates_filter() {
        let mut c = connected_client();
        let mut out = ClientOutputs::new();
        assert!(c.subscribe("a/#/b", QoS::AtMostOnce, 0, &mut out).is_err());
        c.subscribe("a/+/b", QoS::ExactlyOnce, 0, &mut out).unwrap();
        assert!(matches!(sends(&mut out)[0], Packet::Subscribe { .. }));
    }

    #[test]
    fn connect_retransmits_until_connack() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 3;
        let mut c = Client::new(cfg);
        c.connect(0, &mut ClientOutputs::new());
        let s = 1_000_000_000u64;
        // Lost CONNACK: the client re-sends CONNECT on each Tretry.
        assert!(matches!(
            sends(&mut tick(&mut c, s + 1))[0],
            Packet::Connect { .. }
        ));
        assert_eq!(c.state(), ClientState::Connecting);
        // CONNACK finally arrives; retransmission stops.
        accept(&mut c, s + 2);
        assert!(sends(&mut tick(&mut c, 3 * s))
            .iter()
            .all(|p| !matches!(p, Packet::Connect { .. })));
    }

    #[test]
    fn connect_gives_up_after_retries() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 2;
        let mut c = Client::new(cfg);
        c.connect(0, &mut ClientOutputs::new());
        let s = 1_000_000_000u64;
        assert_eq!(sends(&mut tick(&mut c, s + 1)).len(), 1);
        assert_eq!(sends(&mut tick(&mut c, 2 * s + 2)).len(), 1);
        let mut out = tick(&mut c, 3 * s + 3);
        assert!(matches!(events(&mut out)[0], ClientEvent::ConnectFailed(_)));
        assert_eq!(c.state(), ClientState::Disconnected);
    }

    #[test]
    fn register_and_subscribe_retransmit() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        let mut c = client_with(cfg);
        let mut out = ClientOutputs::new();
        let reg_id = c.register("topic/a", 0, &mut out).unwrap();
        let sub_id = c
            .subscribe("topic/#", QoS::AtLeastOnce, 0, &mut out)
            .unwrap();
        let s = 1_000_000_000u64;
        let resent = sends(&mut tick(&mut c, s + 1));
        assert!(resent
            .iter()
            .any(|p| matches!(p, Packet::Register { msg_id, .. } if *msg_id == reg_id)));
        assert!(resent.iter().any(
            |p| matches!(p, Packet::Subscribe { msg_id, dup: true, .. } if *msg_id == sub_id)
        ));
        // Acks stop the retransmission.
        feed(
            &mut c,
            Packet::RegAck {
                topic_id: 5,
                msg_id: reg_id,
                code: ReturnCode::Accepted,
            },
            s + 2,
        );
        feed(
            &mut c,
            Packet::SubAck {
                qos: QoS::AtLeastOnce,
                topic_id: 0,
                msg_id: sub_id,
                code: ReturnCode::Accepted,
            },
            s + 2,
        );
        assert!(sends(&mut tick(&mut c, 3 * s))
            .iter()
            .all(|p| !matches!(p, Packet::Register { .. } | Packet::Subscribe { .. })));
    }

    #[test]
    fn alloc_msg_id_skips_outstanding_control_ids() {
        let mut c = connected_client();
        // SUBSCRIBE takes msg id 1 and parks it in pending_control.
        let sub_id = c
            .subscribe("t/#", QoS::AtLeastOnce, 0, &mut ClientOutputs::new())
            .unwrap();
        assert_eq!(sub_id, 1);
        // Force the allocator to wrap back onto the outstanding control id.
        c.next_msg_id = sub_id;
        let pub_id = publish(&mut c, 1, vec![1], QoS::AtLeastOnce, 0);
        assert_ne!(
            pub_id, sub_id,
            "publish must not reuse an outstanding SUBSCRIBE id"
        );
        // The SUBSCRIBE's retransmission state survived the allocation.
        assert!(c.pending_control.contains_key(&sub_id));
    }

    #[test]
    fn disconnect_transitions_state_and_clears_timers() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.keep_alive = Duration::from_secs(1);
        let mut c = client_with(cfg);
        let mut out = ClientOutputs::new();
        c.disconnect(5, &mut out);
        assert!(matches!(sends(&mut out)[0], Packet::Disconnect { .. }));
        assert_eq!(c.state(), ClientState::Disconnected);
        // Publishing on the torn-down session is rejected.
        assert!(c
            .publish(TopicRef::Id(1), vec![], QoS::AtMostOnce, 6, &mut out)
            .is_err());
        // No keep-alive pings fire on a disconnected session.
        let s = 1_000_000_000u64;
        let mut out = tick(&mut c, 100 * s);
        assert!(sends(&mut out).is_empty() && out.events.is_empty());
    }

    #[test]
    fn puback_rejection_is_surfaced_not_publish_done() {
        let mut c = connected_client();
        let id = publish(&mut c, 9, vec![42], QoS::AtLeastOnce, 0);
        let mut out = feed(
            &mut c,
            Packet::PubAck {
                topic_id: 9,
                msg_id: id,
                code: ReturnCode::InvalidTopicId,
            },
            1,
        );
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishRejected {
                msg_id: id,
                code: ReturnCode::InvalidTopicId
            }]
        );
        assert_eq!(c.inflight_len(), 0);
        // The payload is recoverable for replay after re-registration.
        let dead = c.take_dead_letters();
        assert_eq!(dead, vec![(id, vec![42])]);
    }

    #[test]
    fn reconnect_resumes_registrations_and_remaps_inflight() {
        let mut c = connected_client();
        register(&mut c, "prov/dev1", 42);
        assert_eq!(c.topic_id("prov/dev1"), Some(42));
        let pub_id = publish(&mut c, 42, vec![7], QoS::AtLeastOnce, 2);

        // Connection lost; reconnect requests session continuation.
        let mut out = ClientOutputs::new();
        c.reconnect(10, &mut out);
        match &sends(&mut out)[0] {
            Packet::Connect { clean_session, .. } => assert!(!clean_session),
            p => panic!("unexpected {p:?}"),
        }
        assert!(!c.resume_complete());

        // CONNACK: the tracked topic is re-registered; the in-flight
        // publish waits for the fresh REGACK (its id may have changed).
        let resent = sends(&mut accept(&mut c, 11));
        let new_reg_id = resent
            .iter()
            .find_map(|p| match p {
                Packet::Register {
                    msg_id, topic_name, ..
                } if topic_name == "prov/dev1" => Some(*msg_id),
                _ => None,
            })
            .expect("tracked topic re-registered");
        assert!(resent.iter().all(|p| !matches!(p, Packet::Publish { .. })));

        // The restarted broker hands out a different id: the in-flight
        // publish is remapped and retransmitted with DUP.
        let resent = sends(&mut feed(
            &mut c,
            Packet::RegAck {
                topic_id: 77,
                msg_id: new_reg_id,
                code: ReturnCode::Accepted,
            },
            12,
        ));
        match resent
            .iter()
            .find(|p| matches!(p, Packet::Publish { .. }))
            .expect("in-flight retransmitted")
        {
            Packet::Publish {
                dup,
                topic,
                msg_id,
                payload,
                ..
            } => {
                assert!(*dup);
                assert_eq!(*topic, TopicRef::Id(77));
                assert_eq!(*msg_id, pub_id);
                assert_eq!(payload, &vec![7]);
            }
            _ => unreachable!(),
        }
        assert!(c.resume_complete());
        assert_eq!(c.topic_id("prov/dev1"), Some(77));

        // Completion still works on the resumed session.
        let mut out = feed(
            &mut c,
            Packet::PubAck {
                topic_id: 77,
                msg_id: pub_id,
                code: ReturnCode::Accepted,
            },
            13,
        );
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishDone { msg_id: pub_id }]
        );
    }

    #[test]
    fn rejected_resume_registration_dead_letters_inflight() {
        let mut c = connected_client();
        register(&mut c, "gone/topic", 8);
        let pub_id = publish(&mut c, 8, vec![5], QoS::AtLeastOnce, 2);
        c.reconnect(10, &mut ClientOutputs::new());
        let new_reg_id = sends(&mut accept(&mut c, 11))
            .iter()
            .find_map(|p| match p {
                Packet::Register { msg_id, .. } => Some(*msg_id),
                _ => None,
            })
            .unwrap();
        // The broker refuses the re-registration: resumption must still
        // complete, and the stuck in-flight publish must surface as a
        // rejection with its payload recoverable.
        let mut out = feed(
            &mut c,
            Packet::RegAck {
                topic_id: 0,
                msg_id: new_reg_id,
                code: ReturnCode::NotSupported,
            },
            12,
        );
        assert!(c.resume_complete(), "rejection must not wedge resumption");
        assert!(events(&mut out).iter().any(
            |e| matches!(e, ClientEvent::PublishRejected { msg_id, .. } if *msg_id == pub_id)
        ));
        assert_eq!(c.inflight_len(), 0);
        assert_eq!(c.take_dead_letters(), vec![(pub_id, vec![5])]);
        assert_eq!(c.topic_id("gone/topic"), None);
    }

    #[test]
    fn reconnect_resubscribes_acknowledged_filters() {
        let mut c = connected_client();
        let sub_id = c
            .subscribe("prov/#", QoS::ExactlyOnce, 0, &mut ClientOutputs::new())
            .unwrap();
        feed(
            &mut c,
            Packet::SubAck {
                qos: QoS::ExactlyOnce,
                topic_id: 0,
                msg_id: sub_id,
                code: ReturnCode::Accepted,
            },
            1,
        );
        c.reconnect(10, &mut ClientOutputs::new());
        assert!(
            sends(&mut accept(&mut c, 11)).iter().any(|p| matches!(
                p,
                Packet::Subscribe { topic: TopicRef::Name(f), qos: QoS::ExactlyOnce, .. }
                    if f == "prov/#"
            )),
            "acknowledged filter must be re-subscribed on resumption"
        );
    }

    #[test]
    fn reconnect_retransmits_pubrel_phase_as_pubrel() {
        let mut c = connected_client();
        register(&mut c, "t", 5);
        let pub_id = publish(&mut c, 5, vec![1], QoS::ExactlyOnce, 2);
        // PUBREC received: the exchange is in the PUBREL phase.
        feed(&mut c, Packet::PubRec { msg_id: pub_id }, 3);
        c.reconnect(10, &mut ClientOutputs::new());
        let reg_msg_id = sends(&mut accept(&mut c, 11))
            .iter()
            .find_map(|p| match p {
                Packet::Register { msg_id, .. } => Some(*msg_id),
                _ => None,
            })
            .unwrap();
        let resent = sends(&mut feed(
            &mut c,
            Packet::RegAck {
                topic_id: 5,
                msg_id: reg_msg_id,
                code: ReturnCode::Accepted,
            },
            12,
        ));
        // Second half of the QoS 2 handshake resumes with PUBREL, not a
        // duplicate PUBLISH (which could double-deliver).
        assert!(resent
            .iter()
            .any(|p| matches!(p, Packet::PubRel { msg_id } if *msg_id == pub_id)));
        assert!(resent.iter().all(|p| !matches!(p, Packet::Publish { .. })));
    }

    #[test]
    fn exhausted_retries_park_payload_in_dead_letters() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 1;
        let mut c = client_with(cfg);
        let id = publish(&mut c, 1, vec![9, 9], QoS::AtLeastOnce, 0);
        let s = 1_000_000_000u64;
        tick(&mut c, s + 1); // retry 1
        let mut out = tick(&mut c, 3 * s); // exhausted
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishFailed { msg_id: id }]
        );
        assert_eq!(c.take_dead_letters(), vec![(id, vec![9, 9])]);
    }

    #[test]
    fn pubcomp_phase_exhaustion_never_dead_letters() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 1;
        let mut c = client_with(cfg);
        let id = publish(&mut c, 1, vec![4], QoS::ExactlyOnce, 0);
        // PUBREC arrives: the broker provably holds (and forwarded) the
        // message; only the PUBREL/PUBCOMP leg remains.
        feed(&mut c, Packet::PubRec { msg_id: id }, 1);
        let s = 1_000_000_000u64;
        tick(&mut c, 2 * s); // PUBREL retry
        let mut out = tick(&mut c, 4 * s); // exhausted
        assert_eq!(
            events(&mut out),
            vec![ClientEvent::PublishFailed { msg_id: id }]
        );
        // Replaying this payload as a fresh publish would double-deliver.
        assert!(c.take_dead_letters().is_empty());
    }

    #[test]
    fn broker_register_is_acked() {
        let mut c = connected_client();
        let mut out = feed(
            &mut c,
            Packet::Register {
                topic_id: 9,
                msg_id: 4,
                topic_name: "t".into(),
            },
            0,
        );
        assert_eq!(
            sends(&mut out),
            vec![Packet::RegAck {
                topic_id: 9,
                msg_id: 4,
                code: ReturnCode::Accepted
            }]
        );
    }
}
