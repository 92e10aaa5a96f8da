//! Steady-state allocation accounting for the capture hot path.
//!
//! A counting global allocator wraps the system allocator; after warming the
//! grouper buffers, codec scratch (string table, compression tables), and
//! envelope output buffer, pushing records through
//! grouper → encode → compress → frame must perform **zero** heap
//! allocations per record. Records cycle between a pre-built pool and the
//! grouper so none are dropped or rebuilt inside the measured region.
//!
//! Allocations are counted per thread: every measured region is a
//! single-threaded sans-io loop, and libtest runs this file's tests on
//! parallel threads, so a process-wide count would charge each region
//! with its siblings' allocations.

use provlight::core::config::GroupPolicy;
use provlight::core::grouping::{Emit, Grouper};
use provlight::mqtt_sn::broker::{Broker, BrokerOutputs};
use provlight::mqtt_sn::packet::Packet;
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Runs one setup packet through the broker and decodes what it sends.
fn feed(b: &mut Broker<u32>, from: u32, p: Packet) -> Vec<(u32, Packet)> {
    let mut out = BrokerOutputs::new();
    b.on_packet_into(0, from, p, &mut out);
    let mut sent = Vec::new();
    out.emit(|to, bytes| sent.push((*to, Packet::decode(bytes).unwrap())));
    sent
}

fn record(i: u64, attrs: usize) -> Record {
    let mut d = DataRecord::new(i, 1u64).with_attr("kind", "sensor-frame");
    for a in 0..attrs {
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

const GROUP: usize = 16;
const ATTRS: usize = 25;

/// One full cycle: GROUP records leave the pool, pass through the grouper,
/// get framed into a compressed envelope, and return to the pool. The
/// consumed batch `Vec` is recycled into the grouper.
fn cycle(pool: &mut VecDeque<Record>, grouper: &mut Grouper, wire: &mut Vec<u8>) -> usize {
    let mut published = 0;
    for _ in 0..GROUP {
        let r = pool.pop_front().expect("pool primed");
        match grouper.push(r) {
            Emit::Nothing => {}
            Emit::Passthrough(r) => {
                wire.clear();
                Envelope::encode_into(std::slice::from_ref(&r), true, wire);
                published += wire.len();
                pool.push_back(r);
            }
            Emit::Group(mut batch) => {
                wire.clear();
                Envelope::encode_into(&batch, true, wire);
                published += wire.len();
                for r in batch.drain(..) {
                    pool.push_back(r);
                }
                grouper.recycle(batch);
            }
        }
    }
    published
}

#[test]
fn steady_state_capture_path_allocates_zero_per_record() {
    // Pool holds two groups' worth so the grouper buffer and the pool never
    // need to grow mid-cycle.
    let mut pool: VecDeque<Record> = (0..2 * GROUP as u64).map(|i| record(i, ATTRS)).collect();
    let mut grouper = Grouper::new(GroupPolicy::Grouped { size: GROUP });
    let mut wire = Vec::new();

    // Warmup: size every buffer (grouper Vec, encoder string table,
    // compression tables, envelope scratch, wire output).
    let mut warm_bytes = 0;
    for _ in 0..32 {
        warm_bytes += cycle(&mut pool, &mut grouper, &mut wire);
    }
    assert!(warm_bytes > 0);

    let iterations = 256usize;
    let before = allocations();
    let mut total_bytes = 0usize;
    for _ in 0..iterations {
        total_bytes += cycle(&mut pool, &mut grouper, &mut wire);
    }
    let allocs = allocations() - before;
    std::hint::black_box(total_bytes);

    let records_processed = iterations * GROUP;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {records_processed} records \
         ({:.4} allocs/record); capture hot path must be allocation-free",
        allocs as f64 / records_processed as f64
    );
    assert!(total_bytes > 0);
}

/// Broker steady state: one QoS 1 publish fanning out to 8 QoS 0
/// subscribers plus one QoS 1 subscriber (whose ack cycles the outbound
/// state), end to end through the datagram path — borrowed decode, fan-out
/// routing, single-encode wire output, pooled retransmission copy — must
/// perform **zero** heap allocations per packet once buffers are warm.
#[test]
fn steady_state_broker_forwarding_allocates_zero_per_packet() {
    use provlight::mqtt_sn::broker::BrokerConfig;
    use provlight::mqtt_sn::packet::{PacketRef, QoS, TopicRef};

    let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
    let publisher = 0u32;
    let qos1_sub = 9u32;
    for (addr, id) in (0..10u32).map(|a| (a, format!("c{a}"))) {
        feed(
            &mut broker,
            addr,
            Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: id,
            },
        );
    }
    let out = feed(
        &mut broker,
        publisher,
        Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "z/t".into(),
        },
    );
    let tid = match out[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    for addr in 1..=8u32 {
        feed(
            &mut broker,
            addr,
            Packet::Subscribe {
                dup: false,
                qos: QoS::AtMostOnce,
                msg_id: 2,
                topic: TopicRef::Name("z/t".into()),
            },
        );
    }
    feed(
        &mut broker,
        qos1_sub,
        Packet::Subscribe {
            dup: false,
            qos: QoS::AtLeastOnce,
            msg_id: 2,
            topic: TopicRef::Name("z/t".into()),
        },
    );

    let publish_wire = Packet::Publish {
        dup: false,
        qos: QoS::AtLeastOnce,
        retain: false,
        topic: TopicRef::Id(tid),
        msg_id: 7,
        payload: vec![0x5c; 100],
    }
    .encode();
    let mut out = BrokerOutputs::new();
    let mut ack_wire = Vec::new();

    // One full cycle: publish in, PUBACK + 9 forwards out, QoS 1
    // subscriber acks its copy so outbound state drains.
    let mut cycle = |broker: &mut Broker<u32>, out: &mut BrokerOutputs<u32>, now: u64| {
        out.clear();
        broker
            .on_datagram_routed(now, publisher, &publish_wire, out)
            .unwrap();
        let mut fwd_msg_id = 0u16;
        let mut datagrams = 0usize;
        out.emit(|to, bytes| {
            datagrams += 1;
            if *to == qos1_sub {
                match Packet::decode_borrowed(bytes).expect("broker-encoded") {
                    PacketRef::Publish { msg_id, .. } => fwd_msg_id = msg_id,
                    p => panic!("unexpected {p:?}"),
                }
            }
        });
        assert_eq!(datagrams, 10, "PUBACK + 9 forwards");
        ack_wire.clear();
        Packet::PubAck {
            topic_id: tid,
            msg_id: fwd_msg_id,
            code: provlight::mqtt_sn::ReturnCode::Accepted,
        }
        .encode_into(&mut ack_wire);
        out.clear();
        broker
            .on_datagram_routed(now, qos1_sub, &ack_wire, out)
            .unwrap();
        assert!(out.is_empty());
    };

    // Warmup: size the wire buffer, send list, fan-out scratch, payload
    // pool, and per-session outbound map.
    for i in 0..64u64 {
        cycle(&mut broker, &mut out, i);
    }

    let iterations = 4096u64;
    let before = allocations();
    for i in 0..iterations {
        cycle(&mut broker, &mut out, 64 + i);
    }
    let allocs = allocations() - before;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {iterations} packets \
         ({:.4} allocs/packet); broker hot path must be allocation-free",
        allocs as f64 / iterations as f64
    );
    assert_eq!(broker.stats().publishes_in, 64 + iterations);
    assert_eq!(broker.stats().publishes_out, (64 + iterations) * 9);
}

/// Cross-shard steady state: a QoS 1 publish accepted on shard 0 is
/// encoded once into the forwarding fabric, crosses the SPSC ring, and
/// fans out to shard 1's subscriber — routed ingest, mask lookup,
/// single-encode forward, ring transfer, and mirrored-registry delivery
/// must all be allocation-free once the ring's frame pool and both
/// brokers' buffers are warm.
#[test]
fn steady_state_cross_shard_forwarding_allocates_zero_per_packet() {
    use provlight::mqtt_sn::broker::BrokerConfig;
    use provlight::mqtt_sn::packet::{QoS, TopicRef};
    use provlight::mqtt_sn::{ForwardFabric, SharedRouter};

    let router = SharedRouter::new(2);
    let fabric = ForwardFabric::new(2, 64);
    let mut shard0: Broker<u32> = Broker::new(BrokerConfig::default());
    let mut shard1: Broker<u32> = Broker::new(BrokerConfig::default());

    let publisher = 0u32;
    feed(
        &mut shard0,
        publisher,
        Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "pub".into(),
        },
    );
    let tid = router.resolve("z/x").expect("registry has room");
    assert!(shard0.mirror_topic(tid, "z/x"));
    assert!(shard1.mirror_topic(tid, "z/x"));

    let subscriber = 1u32;
    feed(
        &mut shard1,
        subscriber,
        Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "sub".into(),
        },
    );
    feed(
        &mut shard1,
        subscriber,
        Packet::Subscribe {
            dup: false,
            qos: QoS::AtMostOnce,
            msg_id: 2,
            topic: TopicRef::Name("z/x".into()),
        },
    );
    router.set_filters(1, &["z/x".to_string()]);

    let payload = vec![0x5c; 100];
    let publish_wire = Packet::Publish {
        dup: false,
        qos: QoS::AtLeastOnce,
        retain: false,
        topic: TopicRef::Id(tid),
        msg_id: 7,
        payload: payload.clone(),
    }
    .encode();
    let mut out0 = BrokerOutputs::new();
    let mut out1 = BrokerOutputs::new();
    let mut scratch = Vec::new();

    // One full cycle: publish into shard 0 (PUBACK back to the
    // publisher), one encode into the fabric, ring hop, fan-out to the
    // subscriber on shard 1, frame recycled.
    let cycle = |shard0: &mut Broker<u32>,
                 shard1: &mut Broker<u32>,
                 out0: &mut BrokerOutputs<u32>,
                 out1: &mut BrokerOutputs<u32>,
                 scratch: &mut Vec<u8>,
                 now: u64| {
        out0.clear();
        let forwarded = shard0
            .on_datagram_routed(now, publisher, &publish_wire, out0)
            .unwrap();
        assert!(forwarded, "first receipt must be fan-out eligible");
        let mask = router.shard_mask(tid);
        let outcome = fabric.forward(0, mask, tid, QoS::AtLeastOnce, &payload, scratch);
        assert_eq!(outcome.forwards, 1);
        assert_eq!(outcome.drops, 0);
        shard0.note_cross_shard_forward(outcome.max_depth);
        let mut acks = 0usize;
        out0.emit(|to, _| {
            assert_eq!(*to, publisher);
            acks += 1;
        });
        assert_eq!(acks, 1, "publisher's PUBACK only; subscriber is remote");

        let frame = fabric.ring(0, 1).recv().expect("frame in flight");
        out1.clear();
        shard1.deliver_forwarded(now, frame.topic_id, frame.qos, frame.payload(), out1);
        let mut deliveries = 0usize;
        out1.emit(|to, _| {
            assert_eq!(*to, subscriber);
            deliveries += 1;
        });
        assert_eq!(deliveries, 1);
        fabric.ring(0, 1).recycle(frame);
    };

    // Warmup: size both brokers' buffers, the fabric's frame pool, the
    // encode scratch, and the router's mask cache.
    for i in 0..64u64 {
        cycle(
            &mut shard0,
            &mut shard1,
            &mut out0,
            &mut out1,
            &mut scratch,
            i,
        );
    }

    let iterations = 4096u64;
    let before = allocations();
    for i in 0..iterations {
        cycle(
            &mut shard0,
            &mut shard1,
            &mut out0,
            &mut out1,
            &mut scratch,
            64 + i,
        );
    }
    let allocs = allocations() - before;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {iterations} packets \
         ({:.4} allocs/packet); cross-shard forwarding must be allocation-free",
        allocs as f64 / iterations as f64
    );
    assert_eq!(shard0.stats().publishes_in, 64 + iterations);
    assert_eq!(shard0.stats().cross_shard_forwards, 64 + iterations);
    assert_eq!(shard1.stats().publishes_out, 64 + iterations);
    assert_eq!(shard1.stats().publishes_in, 0, "delivery is not re-ingest");
}

/// Client steady state: one QoS 2 publish through its whole handshake
/// against a scripted peer — PUBLISH out, PUBREC in, PUBREL out, PUBCOMP
/// in, `PublishDone` — plus a timer tick with nothing due must perform
/// **zero** heap allocations once the payload pool and the output buffers
/// are warm. The peer's replies are pre-encoded into one reused buffer, so
/// no broker work is in the count.
#[test]
fn steady_state_client_qos2_publish_allocates_zero() {
    use provlight::mqtt_sn::client::{Client, ClientConfig, ClientEvent, ClientOutputs};
    use provlight::mqtt_sn::packet::{PacketRef, QoS, ReturnCode, TopicRef};

    let mut client = Client::new(ClientConfig::new("edge"));
    let mut out = ClientOutputs::new();
    client.connect(0, &mut out);
    let connack = Packet::ConnAck {
        code: ReturnCode::Accepted,
    }
    .encode();
    client.on_datagram(&connack, 0, &mut out).unwrap();
    out.emit(|_| {});
    assert_eq!(out.events.pop_front(), Some(ClientEvent::Connected));

    let mut peer_wire = Vec::new();
    let mut cycle = |client: &mut Client, out: &mut ClientOutputs, now: u64| {
        let mut payload = client.take_spare_payload().unwrap_or_default();
        payload.extend_from_slice(&[0x5c; 100]);
        let msg_id = client
            .publish(TopicRef::Id(1), payload, QoS::ExactlyOnce, now, out)
            .unwrap();
        let mut publishes = 0usize;
        out.emit(
            |bytes| match Packet::decode_borrowed(bytes).expect("client-encoded") {
                PacketRef::Publish {
                    msg_id: m, payload, ..
                } => {
                    assert_eq!((m, payload.len()), (msg_id, 100));
                    publishes += 1;
                }
                p => panic!("unexpected {p:?}"),
            },
        );
        assert_eq!(publishes, 1);

        peer_wire.clear();
        Packet::PubRec { msg_id }.encode_into(&mut peer_wire);
        client.on_datagram(&peer_wire, now, out).unwrap();
        let mut pubrels = 0usize;
        out.emit(|bytes| {
            assert_eq!(
                Packet::decode_borrowed(bytes),
                Ok(PacketRef::Owned(Packet::PubRel { msg_id }))
            );
            pubrels += 1;
        });
        assert_eq!(pubrels, 1);

        // Mid-handshake, nothing is due for retransmission or keep-alive.
        client.on_tick(now, out);
        out.emit(|bytes| panic!("idle tick sent {bytes:?}"));

        peer_wire.clear();
        Packet::PubComp { msg_id }.encode_into(&mut peer_wire);
        client.on_datagram(&peer_wire, now, out).unwrap();
        out.emit(|bytes| panic!("PUBCOMP answered with {bytes:?}"));
        assert_eq!(
            out.events.pop_front(),
            Some(ClientEvent::PublishDone { msg_id })
        );
        assert!(out.events.is_empty());
    };

    // Warmup: size the payload pool, the wire and datagram buffers, the
    // event queue, and the in-flight map.
    for i in 0..64u64 {
        cycle(&mut client, &mut out, 1 + i);
    }

    let iterations = 4096u64;
    let before = allocations();
    for i in 0..iterations {
        cycle(&mut client, &mut out, 65 + i);
    }
    let allocs = allocations() - before;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {iterations} QoS 2 publishes \
         ({:.4} allocs/publish); client publish path must be allocation-free",
        allocs as f64 / iterations as f64
    );
    assert_eq!(client.inflight_len(), 0);
}

/// Encoding into a fresh `Vec` per call, measured the same way, is
/// decidedly not allocation-free — guarding against the zero assertions
/// above passing vacuously (e.g. a broken counter).
#[test]
fn legacy_allocating_path_is_counted() {
    let records: Vec<Record> = (0..GROUP as u64).map(|i| record(i, ATTRS)).collect();
    let encode_fresh = || {
        let mut wire = Vec::new();
        Envelope::encode_into(&records, true, &mut wire);
        std::hint::black_box(wire);
    };
    // Warm the thread-local scratch used inside Envelope::encode_into.
    for _ in 0..4 {
        encode_fresh();
    }
    let before = allocations();
    for _ in 0..16 {
        encode_fresh();
    }
    let allocs = allocations() - before;
    assert!(
        allocs >= 16,
        "expected the allocating API to allocate at least once per call, saw {allocs}"
    );
}
