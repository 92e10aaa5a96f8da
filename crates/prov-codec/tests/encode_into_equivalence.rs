//! Property tests: the `*_into` scratch-buffer APIs must produce the same
//! bytes from reused (dirty) scratch as from fresh scratch, whatever the
//! earlier inputs were.

use proptest::prelude::*;
use prov_codec::binary::decode_batch_into;
use prov_codec::compress::{compress_into, compress_with, decompress_into, CompressScratch};
use prov_codec::frame::Envelope;
use prov_codec::Encoder;
use prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};

fn arb_value() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        Just(AttrValue::Null),
        any::<bool>().prop_map(AttrValue::Bool),
        any::<i64>().prop_map(AttrValue::Int),
        any::<f64>()
            .prop_filter("NaN breaks equality", |f| !f.is_nan())
            .prop_map(AttrValue::Float),
        "[a-z]{0,8}".prop_map(AttrValue::from),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(AttrValue::Bytes),
    ]
    .boxed()
}

fn arb_id() -> BoxedStrategy<Id> {
    prop_oneof![
        any::<u64>().prop_map(Id::Num),
        "[a-z0-9_]{1,12}".prop_map(Id::from)
    ]
    .boxed()
}

fn arb_data() -> BoxedStrategy<DataRecord> {
    (
        arb_id(),
        arb_id(),
        proptest::collection::vec(arb_id(), 0..3),
        proptest::collection::vec(("[a-z_]{1,10}", arb_value()), 0..8),
    )
        .prop_map(|(id, workflow, derivations, attributes)| DataRecord {
            id,
            workflow,
            derivations,
            attributes: attributes
                .into_iter()
                .map(|(n, v)| (n.as_str().into(), v))
                .collect(),
        })
        .boxed()
}

fn arb_record() -> BoxedStrategy<Record> {
    let task = (
        arb_id(),
        arb_id(),
        arb_id(),
        proptest::collection::vec(arb_id(), 0..3),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(id, workflow, transformation, dependencies, time_ns, fin)| TaskRecord {
                id,
                workflow,
                transformation,
                dependencies,
                time_ns,
                status: if fin {
                    TaskStatus::Finished
                } else {
                    TaskStatus::Running
                },
            },
        )
        .boxed();
    prop_oneof![
        (arb_id(), any::<u64>())
            .prop_map(|(workflow, time_ns)| Record::WorkflowBegin { workflow, time_ns }),
        (arb_id(), any::<u64>())
            .prop_map(|(workflow, time_ns)| Record::WorkflowEnd { workflow, time_ns }),
        (task.clone(), proptest::collection::vec(arb_data(), 0..3))
            .prop_map(|(task, inputs)| Record::TaskBegin { task, inputs }),
        (task, proptest::collection::vec(arb_data(), 0..3))
            .prop_map(|(task, outputs)| Record::TaskEnd { task, outputs }),
    ]
    .boxed()
}

/// The batch a fresh `Encoder` writes into a fresh buffer.
fn fresh_batch(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    Encoder::new().encode_batch_into(records, &mut out);
    out
}

/// The token stream fresh compression scratch writes into a fresh buffer.
fn fresh_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_with(&mut CompressScratch::default(), input, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A reused (dirty) `Encoder` writing into a reused output buffer must
    /// produce exactly the bytes of a fresh `Encoder`, batch after batch.
    #[test]
    fn encode_batch_into_matches_legacy_bytes(
        batches in proptest::collection::vec(proptest::collection::vec(arb_record(), 0..6), 1..5),
    ) {
        let mut encoder = Encoder::new();
        let mut out = Vec::new();
        let mut back = Vec::new();
        for batch in &batches {
            out.clear();
            encoder.encode_batch_into(batch, &mut out);
            prop_assert_eq!(&out, &fresh_batch(batch), "reused-encoder bytes diverge");
            // And the bytes round-trip.
            decode_batch_into(&out, &mut back).unwrap();
            prop_assert_eq!(&back, batch);
        }
    }

    /// `encode_batch_into` appends without touching bytes already in `out`.
    #[test]
    fn encode_batch_into_appends(
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
        records in proptest::collection::vec(arb_record(), 0..4),
    ) {
        let mut out = prefix.clone();
        prov_codec::encode_batch_into(&records, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &fresh_batch(&records)[..]);
    }

    /// Reused compression scratch must not change the emitted token stream.
    #[test]
    fn compress_into_matches_legacy_bytes(
        inputs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..1024), 1..4),
    ) {
        let mut scratch = CompressScratch::default();
        let mut out = Vec::new();
        let mut back = Vec::new();
        for input in &inputs {
            let fresh = fresh_compress(input);
            out.clear();
            compress_with(&mut scratch, input, &mut out);
            prop_assert_eq!(&out, &fresh, "reused-scratch compression diverges");
            let mut appended = vec![0xEE];
            compress_into(input, &mut appended);
            prop_assert_eq!(&appended[1..], &fresh[..]);
            decompress_into(&out, &mut back).unwrap();
            prop_assert_eq!(&back, input);
        }
    }

    /// `Envelope::encode_into` into a reused buffer must equal the header
    /// plus the smaller of the fresh raw and fresh compressed batch, for
    /// both compression settings.
    #[test]
    fn envelope_encode_into_matches_legacy_bytes(
        batches in proptest::collection::vec(proptest::collection::vec(arb_record(), 0..6), 1..4),
        use_compression: bool,
    ) {
        let mut out = Vec::new();
        let mut back = Vec::new();
        for batch in &batches {
            let raw = fresh_batch(batch);
            let packed = fresh_compress(&raw);
            let expected = if use_compression && packed.len() < raw.len() {
                [&[0xA7, 1, 1][..], &packed].concat()
            } else {
                [&[0xA7, 1, 0][..], &raw].concat()
            };
            out.clear();
            Envelope::encode_into(batch, use_compression, &mut out);
            prop_assert_eq!(&out, &expected);
            prop_assert_eq!(Envelope::encoded_len(batch, use_compression), expected.len());
            Envelope::decode_into(&out, &mut back).unwrap();
            prop_assert_eq!(&back, batch);
        }
    }
}
