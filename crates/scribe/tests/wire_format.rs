//! The scribe wire, pinned and property-tested.
//!
//! Scribe blocks only ever live in a `ScribeCluster`'s memory, so the format
//! has no reader to stay compatible with — but the O1 experiment's byte
//! counts, the `scribe.compression_ratio` the benchmark reports and the
//! mutation sweep's inputs are all this layout. The pins below hold the exact
//! bytes of one hand-made record of each kind; the properties hold
//! `decode(encode(r)) == r` and `drain(ingest_all(rs)) == rs` as a multiset.

use proptest::collection::vec;
use proptest::prelude::*;
use recd_data::{EventLog, FeatureLog, LogRecord, RequestId, SessionId, Timestamp};
use recd_scribe::wire::decode_all;
use recd_scribe::{decode_record, encode_record, ScribeCluster, ScribeConfig, ShardKeyPolicy};

fn encoded(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(record, &mut out);
    out
}

#[test]
fn a_feature_record_is_exactly_these_bytes() {
    let record = LogRecord::Feature(FeatureLog {
        request_id: RequestId::new(300),
        session_id: SessionId::new(5),
        timestamp: Timestamp::from_millis(1_000),
        dense: vec![1.0, -2.5],
        sparse: vec![
            vec![0, (1 << 7) - 1, 1 << 7],
            vec![],
            vec![1 << 14, 1 << 56, u64::MAX],
        ],
    });
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x01,                         // tag: feature
        0xac, 0x02,                   // request id 300
        0x05,                         // session id 5
        0xe8, 0x07,                   // timestamp 1000 ms
        0x02,                         // two dense values, raw f32 LE
        0x00, 0x00, 0x80, 0x3f,       //   1.0
        0x00, 0x00, 0x20, 0xc0,       //   -2.5
        0x03,                         // three lists
        0x03,                         // list 0: three ids
        0x00,                         //   0
        0x7f,                         //   2^7 - 1: the last one-byte id
        0x80, 0x01,                   //   2^7: the first two-byte id
        0x00,                         // list 1: empty
        0x03,                         // list 2: three ids
        0x80, 0x80, 0x01,             //   2^14
        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, // 2^56: nine bytes
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // u64::MAX: ten
    ];
    assert_eq!(encoded(&record), expected);
    assert_eq!(decode_record(expected), Ok((record, expected.len())));
}

#[test]
fn an_event_record_is_exactly_these_bytes() {
    let record = LogRecord::Event(EventLog {
        request_id: RequestId::new(300),
        session_id: SessionId::new(5),
        timestamp: Timestamp::from_millis(1_500),
        label: 1.0,
    });
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x02,                         // tag: event
        0xac, 0x02,                   // request id 300
        0x05,                         // session id 5
        0xdc, 0x0b,                   // timestamp 1500 ms
        0x00, 0x00, 0x80, 0x3f,       // label 1.0, raw f32 LE
    ];
    assert_eq!(encoded(&record), expected);
    assert_eq!(decode_record(expected), Ok((record, expected.len())));
}

/// One generated record: kind, session, a `(bits, shift)` timestamp, dense
/// values in eighths, and `(bits, shift)` id lists. Shifting spreads values
/// over every varint width.
type RecordSpec = (bool, u64, (u64, u32), Vec<i16>, Vec<Vec<(u64, u32)>>);

fn record_specs(max: usize) -> impl Strategy<Value = Vec<RecordSpec>> {
    let wide = || (any::<u64>(), 0u32..64);
    vec(
        (
            any::<bool>(),
            0u64..6,
            wide(),
            vec(-400i16..400, 0..4),
            vec(vec(wide(), 0..7), 0..5),
        ),
        0..max,
    )
}

/// Builds the records; request ids are the (unique) positions, so sorting by
/// `(request id, kind)` is a canonical order for multiset comparison.
fn build(specs: Vec<RecordSpec>) -> Vec<LogRecord> {
    specs
        .into_iter()
        .enumerate()
        .map(
            |(i, (is_feature, session, (ts, ts_shift), dense, sparse))| {
                let request_id = RequestId::new(i as u64);
                let session_id = SessionId::new(session);
                let timestamp = Timestamp::from_millis(ts >> ts_shift);
                if is_feature {
                    LogRecord::Feature(FeatureLog {
                        request_id,
                        session_id,
                        timestamp,
                        dense: dense.iter().map(|&v| f32::from(v) / 8.0).collect(),
                        sparse: sparse
                            .into_iter()
                            .map(|list| list.into_iter().map(|(id, shift)| id >> shift).collect())
                            .collect(),
                    })
                } else {
                    LogRecord::Event(EventLog {
                        request_id,
                        session_id,
                        timestamp,
                        label: f32::from(dense.first().copied().unwrap_or(0)) / 8.0,
                    })
                }
            },
        )
        .collect()
}

proptest! {
    #[test]
    fn decode_inverts_encode(specs in record_specs(12), trailing in vec(any::<u8>(), 0..12)) {
        let records = build(specs);
        let mut stream = Vec::new();
        for record in &records {
            let start = stream.len();
            encode_record(record, &mut stream);
            // Trailing bytes are not the record's: it decodes from its own.
            let mut padded = stream[start..].to_vec();
            padded.extend_from_slice(&trailing);
            prop_assert_eq!(
                decode_record(&padded),
                Ok((record.clone(), stream.len() - start))
            );
        }
        let mut decoded = Vec::new();
        prop_assert_eq!(decode_all(&stream, &mut decoded), Ok(()));
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn drain_returns_every_ingested_record_under_both_policies(
        specs in record_specs(60),
        flush_bytes in 1usize..200,
        shards in 1usize..5,
    ) {
        // Six sessions and a flush threshold of a record or two: every block
        // boundary falls mid-session.
        let mut expected = build(specs);
        for policy in [ShardKeyPolicy::RandomRequest, ShardKeyPolicy::SessionId] {
            let mut cluster = ScribeCluster::new(ScribeConfig {
                shards,
                flush_bytes,
                ..ScribeConfig::with_policy(policy)
            });
            cluster.ingest_all(&expected);
            let mut drained = cluster.drain().unwrap();
            let key = |r: &LogRecord| (r.request_id(), matches!(r, LogRecord::Feature(_)));
            drained.sort_by_key(key);
            expected.sort_by_key(key);
            prop_assert_eq!(&drained, &expected);
            prop_assert_eq!(cluster.report().total_rx_bytes, expected.iter().map(|r| encoded(r).len()).sum::<usize>());
        }
    }
}
