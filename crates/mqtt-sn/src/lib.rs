//! # mqtt-sn
//!
//! An implementation of the **MQTT-SN v1.2** protocol (MQTT for Sensor
//! Networks), the transport the paper picked for ProvLight (Table VI:
//! "MQTT-SN, QoS 2: exactly once" over UDP, publish/subscribe).
//!
//! Layers:
//!
//! * [`packet`] — the wire format: every MQTT-SN v1.2 message type with
//!   encode/decode (2-byte fixed headers, 16-bit topic ids — the reason the
//!   protocol suits constrained links);
//! * [`topic`] — topic names, ids, registry, and MQTT wildcard matching;
//! * [`client`] — a *sans-io* client state machine: CONNECT / REGISTER /
//!   PUBLISH (QoS 0/1/2 with retransmission and DUP) / SUBSCRIBE /
//!   keep-alive;
//! * [`broker`] — a *sans-io* broker (the paper uses Eclipse RSMB):
//!   sessions, topic registry, subscription matching, QoS 2 exactly-once
//!   inbound handling, and outbound QoS state machines per subscriber;
//! * [`router`] / [`shard`] — the sharded-gateway layer: client→shard
//!   placement, the shared topic registry with an epoch-invalidated
//!   topic→shard-mask cache, and the bounded lock-free forwarding rings
//!   that carry pre-encoded publishes across shard boundaries;
//! * [`net`] — bindings of the sans-io cores to real `std::net::UdpSocket`s
//!   (the N-shard gateway with per-shard serve loops, blocking client).
//!
//! The same state machines drive the real sockets and the sans-io tests
//! (lossy virtual channels, seeded chaos), so QoS correctness is tested
//! on the code that ships. The paper's discrete-event simulator
//! (`core::sim`) does not run them: it is a calibrated cost model that
//! takes only [`QoS`] from this crate.

pub mod broker;
pub mod client;
pub mod net;
pub mod packet;
pub mod router;
pub mod shard;
pub mod topic;

pub use broker::{Broker, BrokerConfig};
pub use client::{Client, ClientConfig, ClientEvent, ClientOutputs, ClientState};
pub use net::{Backoff, DatagramFate, DatagramFault, FaultDir, NetError, UdpBroker, UdpClient};
pub use packet::{Packet, QoS, ReturnCode, TopicRef};
pub use router::{shard_for_client, SharedRouter};
pub use shard::{ForwardFabric, ForwardFrame, ForwardRing};
pub use topic::{topic_matches, TopicRegistry};

/// Protocol errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// Packet bytes could not be decoded.
    Malformed(&'static str),
    /// Operation invalid in the current state.
    BadState(&'static str),
    /// The broker rejected a request.
    Rejected(packet::ReturnCode),
    /// Too many unacknowledged messages in flight.
    InflightFull,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Malformed(m) => write!(f, "malformed packet: {m}"),
            Error::BadState(m) => write!(f, "operation invalid in current state: {m}"),
            Error::Rejected(c) => write!(f, "rejected by broker: {c:?}"),
            Error::InflightFull => f.write_str("in-flight window full"),
        }
    }
}

impl std::error::Error for Error {}
