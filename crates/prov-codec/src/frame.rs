//! The ProvLight wire envelope.
//!
//! An [`Envelope`] is what the client actually publishes to the MQTT-SN
//! broker: a small header plus a (possibly compressed) binary batch of
//! records. Compression is skipped automatically when it does not shrink the
//! payload (tiny single-record messages), and the header flag records which
//! form was used.
//!
//! ```text
//! envelope := magic:u8 (0xA7), version:u8 (1), flags:u8, payload
//! flags    := bit0 = payload is LZSS-compressed
//! payload  := binary batch (see prov_codec::binary)
//! ```

use crate::{binary, compress, CodecError};
use prov_model::Record;
use std::cell::RefCell;

const MAGIC: u8 = 0xA7;
const VERSION: u8 = 1;
const FLAG_COMPRESSED: u8 = 0x01;

/// The envelope's encode/decode entry points.
pub struct Envelope;

impl Envelope {
    /// Encodes `records` into a caller-owned buffer (appending), reusing
    /// thread-local scratch for the intermediate raw/compressed forms so the
    /// steady state allocates nothing. When `use_compression` is set, the
    /// payload is compressed and the smaller of the two forms is kept.
    pub fn encode_into(records: &[Record], use_compression: bool, out: &mut Vec<u8>) {
        thread_local! {
            static FRAME_SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> =
                const { RefCell::new((Vec::new(), Vec::new())) };
        }
        // lint: zero-alloc-begin
        FRAME_SCRATCH.with(|cell| {
            let (raw, packed) = &mut *cell.borrow_mut();
            raw.clear();
            binary::encode_batch_into(records, raw);
            let (flags, payload): (u8, &[u8]) = if use_compression {
                packed.clear();
                compress::compress_into(raw, packed);
                if packed.len() < raw.len() {
                    (FLAG_COMPRESSED, packed)
                } else {
                    (0, raw)
                }
            } else {
                (0, raw)
            };
            out.reserve(payload.len() + 3);
            out.push(MAGIC);
            out.push(VERSION);
            out.push(flags);
            out.extend_from_slice(payload);
        });
        // lint: zero-alloc-end
    }

    /// Decodes a wire message into a caller-owned record buffer (cleared
    /// first), reusing thread-local decompression scratch. Returns whether
    /// the payload was compressed. This is the server decode loop's hot
    /// path: one record buffer cycles between broker poll and translator
    /// across every message.
    pub fn decode_into(buf: &[u8], records: &mut Vec<Record>) -> Result<bool, CodecError> {
        if buf.len() < 3 {
            return Err(CodecError::UnexpectedEof);
        }
        if buf[0] != MAGIC {
            return Err(CodecError::BadTag(buf[0]));
        }
        if buf[1] != VERSION {
            return Err(CodecError::BadTag(buf[1]));
        }
        let compressed = buf[2] & FLAG_COMPRESSED != 0;
        let payload = &buf[3..];
        if compressed {
            thread_local! {
                static RAW: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
            }
            RAW.with(|cell| {
                let raw = &mut *cell.borrow_mut();
                compress::decompress_into(payload, raw)?;
                binary::decode_batch_into(raw, records)
            })?;
        } else {
            binary::decode_batch_into(payload, records)?;
        }
        Ok(compressed)
    }

    /// Encoded size without actually keeping the buffer (used by cost
    /// accounting in the simulator). Reuses a thread-local buffer, so
    /// repeated calls do not allocate.
    pub fn encoded_len(records: &[Record], use_compression: bool) -> usize {
        thread_local! {
            static LEN_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        LEN_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            Envelope::encode_into(records, use_compression, &mut buf);
            buf.len()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{DataRecord, Id, TaskRecord, TaskStatus};

    fn records(nattrs: usize) -> Vec<Record> {
        let task = TaskRecord {
            id: Id::Num(1),
            workflow: Id::Num(1),
            transformation: Id::Num(0),
            dependencies: vec![],
            time_ns: 1,
            status: TaskStatus::Finished,
        };
        let mut d = DataRecord::new("out", 1u64);
        for i in 0..nattrs {
            d = d.with_attr(format!("attribute_{i}"), i as i64);
        }
        vec![Record::TaskEnd {
            task,
            outputs: vec![d],
        }]
    }

    fn encode(recs: &[Record], use_compression: bool) -> Vec<u8> {
        let mut wire = Vec::new();
        Envelope::encode_into(recs, use_compression, &mut wire);
        wire
    }

    /// Decoded records and the compressed flag.
    fn decode(wire: &[u8]) -> Result<(Vec<Record>, bool), CodecError> {
        let mut recs = Vec::new();
        let compressed = Envelope::decode_into(wire, &mut recs)?;
        Ok((recs, compressed))
    }

    #[test]
    fn roundtrip_compressed_and_raw() {
        for compression in [true, false] {
            let recs = records(100);
            let wire = encode(&recs, compression);
            assert_eq!(decode(&wire).unwrap(), (recs, compression));
        }
    }

    #[test]
    fn compression_reduces_attribute_heavy_payloads() {
        let recs = records(100);
        let raw = encode(&recs, false).len();
        let packed = encode(&recs, true).len();
        assert!(
            (packed as f64) < raw as f64 * 0.8,
            "compressed {packed}B raw {raw}B"
        );
    }

    #[test]
    fn incompressible_payload_falls_back_to_raw() {
        // A single tiny record: compression cannot win, flag must be clear.
        let recs = vec![Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 0,
        }];
        let wire = encode(&recs, true);
        assert_eq!(decode(&wire).unwrap(), (recs, false));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let recs = records(1);
        let mut wire = encode(&recs, false);
        wire[0] = 0x00;
        assert!(decode(&wire).is_err());
        let mut wire = encode(&recs, false);
        wire[1] = 99;
        assert!(decode(&wire).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn encoded_len_matches_encode() {
        let recs = records(10);
        assert_eq!(
            Envelope::encoded_len(&recs, true),
            encode(&recs, true).len()
        );
    }
}
