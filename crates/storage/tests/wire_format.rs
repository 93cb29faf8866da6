//! Golden bytes: the stored format is pinned, so a change to an encoder or
//! decoder that claims "wire format unchanged" is checked, not trusted. The
//! expectations were produced by the commit before the decode rewrite.

use recd_codec::hash_bytes;
use recd_data::{ColumnarBatch, FeatureClass, RequestId, Sample, Schema, SessionId, Timestamp};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_storage::{decode_stripe_columnar, encode_stripe, DwrfFile, DwrfWriter, FileReadScratch};

fn tiny_schema() -> Schema {
    Schema::builder()
        .dense("d0")
        .sparse("f0", FeatureClass::User, 2.0, 0.5, 1000)
        .sparse("f1", FeatureClass::Item, 1.0, 0.5, 1000)
        .build()
        .unwrap()
}

fn tiny_rows() -> Vec<Sample> {
    let row = |request: u64, f0: Vec<u64>, f1: Vec<u64>| {
        Sample::builder(
            SessionId::new(7),
            RequestId::new(request),
            Timestamp::from_millis(1_000 + request * 250),
        )
        .label((request % 2) as f32)
        .dense(vec![request as f32 * 0.5])
        .sparse(vec![f0, f1])
        .build()
    };
    vec![
        row(1, vec![300, 5, 70_000], vec![9]),
        row(2, vec![300, 5, 70_000], vec![]),
        row(3, vec![300, 5, 70_001], vec![u64::MAX, 0]),
    ]
}

/// Every row of a serialized file, in file order.
fn read_rows(blob: &[u8], schema: &Schema) -> Vec<Sample> {
    let mut out = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
    DwrfFile::from_blob(blob)
        .unwrap()
        .read_all_columnar_into(schema, &mut FileReadScratch::default(), &mut out)
        .unwrap();
    out.to_samples()
}

#[test]
fn a_hand_made_stripe_and_file_encode_to_these_exact_bytes() {
    let schema = tiny_schema();
    let rows = tiny_rows();
    let (block, stats) = encode_stripe(&schema, &rows);
    assert_eq!(block, STRIPE_BYTES, "stripe block bytes changed");
    assert_eq!(stats.encoded_bytes, 80);
    let decoded = decode_stripe_columnar(&schema, STRIPE_BYTES).unwrap();
    assert_eq!(decoded.to_samples(), rows);

    let mut writer = DwrfWriter::new(&schema, 2);
    writer.write(&rows);
    let blob = writer.finish().0.to_blob();
    assert_eq!(blob, FILE_BYTES, "file blob bytes changed");
    assert_eq!(read_rows(FILE_BYTES, &schema), rows);
}

#[test]
fn a_fixed_seed_partition_encodes_to_the_pinned_digests() {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let mut rows = partition.samples;
    rows.sort_by_key(|s| (s.session_id, s.timestamp));
    rows.truncate(200);

    let (block, _) = encode_stripe(&partition.schema, &rows[..64]);
    assert_eq!(
        (block.len(), hash_bytes(&block)),
        STRIPE_DIGEST,
        "stripe block bytes changed"
    );

    let mut writer = DwrfWriter::new(&partition.schema, 64);
    writer.write(&rows);
    let blob = writer.finish().0.to_blob();
    assert_eq!(
        (blob.len(), hash_bytes(&blob)),
        FILE_DIGEST,
        "file blob bytes changed"
    );
    assert_eq!(read_rows(&blob, &partition.schema), rows);
}

const STRIPE_BYTES: &[u8] = &[
    80, 21, 3, 3, 7, 0, 0, 3, 1, 2, 2, 3, 226, 9, 244, 3, 244, 3, 0, 0, 128, 63, 0, 5, 1, 0, 5, 8,
    1, 63, 6, 16, 13, 192, 63, 3, 3, 3, 3, 9, 172, 2, 5, 240, 162, 4, 9, 6, 10, 241, 162, 4, 3, 1,
    0, 2, 3, 9, 255, 8, 1, 2, 1, 0,
];
const FILE_BYTES: &[u8] = &[
    254, 135, 159, 228, 247, 150, 135, 237, 79, 2, 0, 44, 2, 44, 36, 1, 80, 49, 17, 2, 2, 7, 0, 2,
    1, 2, 2, 226, 9, 244, 3, 0, 0, 128, 63, 0, 6, 1, 1, 63, 4, 12, 10, 2, 3, 3, 6, 172, 2, 5, 240,
    162, 4, 6, 6, 5, 2, 1, 0, 1, 9, 39, 29, 1, 1, 7, 1, 3, 1, 214, 13, 0, 0, 128, 63, 0, 0, 192,
    63, 1, 3, 3, 172, 2, 5, 241, 162, 4, 1, 2, 2, 255, 8, 1, 2, 1, 0,
];
const STRIPE_DIGEST: (usize, u64) = (3666, 0x3a6d_b420_ef44_0de8);
const FILE_DIGEST: (usize, u64) = (11743, 0x69d6_fe40_4291_f3de);
