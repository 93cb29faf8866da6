//! The output check: an order-independent digest over the rows a trainer
//! receives, compared against the same digest of an independent serial
//! reference path.
//!
//! A row's identity is its label plus every sparse feature's post-transform
//! id list. Hash-bucketing and truncation are per-row functions, so the
//! digest does not depend on how rows were grouped into batches; normalised
//! dense values do (mean and variance are taken per batch) and are left out.

use recd::core::{ConvertedBatch, JaggedTensor};
use recd::data::FeatureId;

/// Order-independent digest of a multiset of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    /// Wrapping sum of the per-row hashes.
    pub sum: u64,
}

impl Digest {
    pub fn add_row(&mut self, hash: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(hash);
    }

    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    // splitmix64 finaliser over a running state: every input bit reaches
    // every output bit, so a single flipped id bit changes the row hash.
    let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one row: label bits, then every feature's `(id, length, values)`
/// in the order given.
pub fn row_hash<'a>(label: f32, features: impl Iterator<Item = (FeatureId, &'a [u64])>) -> u64 {
    let mut h = mix(0, u64::from(label.to_bits()));
    for (id, values) in features {
        h = mix(h, u64::from(id.raw()) << 32 | values.len() as u64);
        for &v in values {
            h = mix(h, v);
        }
    }
    h
}

/// One sparse feature of a converted batch, addressable by batch row: the
/// tensor that holds its values and, for a deduplicated feature, the inverse
/// lookup from batch row to slot.
struct Column<'a> {
    id: FeatureId,
    tensor: &'a JaggedTensor<u64>,
    inverse: Option<&'a [usize]>,
}

impl<'a> Column<'a> {
    fn row(&self, row: usize) -> &'a [u64] {
        let slot = self.inverse.map_or(row, |inverse| inverse[row]);
        self.tensor.row(slot)
    }
}

/// Every sparse feature of `batch`, KJT or IKJT, in ascending feature id.
fn columns(batch: &ConvertedBatch) -> Vec<Column<'_>> {
    let mut cols: Vec<Column<'_>> = batch
        .kjt
        .iter()
        .map(|(id, tensor)| Column {
            id,
            tensor,
            inverse: None,
        })
        .collect();
    for ikjt in &batch.ikjts {
        let inverse = ikjt.inverse_lookup();
        cols.extend(ikjt.iter().map(|(id, tensor)| Column {
            id,
            tensor,
            inverse: Some(inverse),
        }));
    }
    cols.sort_by_key(|c| c.id);
    cols
}

/// Expands one batch row back to its logical `(feature, ids)` lists: KJT
/// rows directly, IKJT rows through the group's inverse lookup.
#[cfg(test)]
fn expand_row(batch: &ConvertedBatch, row: usize) -> Vec<(FeatureId, Vec<u64>)> {
    columns(batch)
        .iter()
        .map(|c| (c.id, c.row(row).to_vec()))
        .collect()
}

/// Digest of every row of a converted batch.
pub fn digest_batch(batch: &ConvertedBatch) -> Digest {
    let cols = columns(batch);
    let mut digest = Digest::default();
    for row in 0..batch.batch_size {
        digest.add_row(row_hash(
            batch.labels[row],
            cols.iter().map(|c| (c.id, c.row(row))),
        ));
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd::core::{DataLoaderConfig, FeatureConverter};
    use recd::data::ColumnarBatch;
    use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
    use recd::etl::cluster_by_session;

    /// A 64-row clustered fixture, converted both ways.
    fn fixture() -> (ConvertedBatch, ConvertedBatch) {
        let partition = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny))
            .generate_partition();
        let schema = partition.schema;
        let rows = cluster_by_session(&partition.samples);
        let cols =
            ColumnarBatch::from_samples(&rows[..64], schema.dense_count(), schema.sparse_count());
        let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&schema));
        let dedup = converter.convert_columnar(&cols).expect("fixture converts");
        let kjt = converter
            .convert_columnar_baseline(&cols)
            .expect("fixture converts");
        (dedup, kjt)
    }

    #[test]
    fn ikjt_expansion_equals_kjt_rows() {
        let (dedup, kjt) = fixture();
        assert_eq!(dedup.batch_size, 64);
        assert!(!dedup.ikjts.is_empty() && kjt.ikjts.is_empty());
        assert!(dedup.dedupe_factor() > 1.0, "fixture must deduplicate");
        for row in 0..64 {
            assert_eq!(expand_row(&dedup, row), expand_row(&kjt, row), "row {row}");
        }
        assert_eq!(digest_batch(&dedup), digest_batch(&kjt));
    }

    #[test]
    fn digest_is_order_independent_and_detects_row_faults() {
        let (_, kjt) = fixture();
        let hashes: Vec<u64> = (0..kjt.batch_size)
            .map(|row| {
                let expanded = expand_row(&kjt, row);
                row_hash(
                    kjt.labels[row],
                    expanded.iter().map(|(id, v)| (*id, v.as_slice())),
                )
            })
            .collect();
        let digest_of = |hashes: &[u64]| {
            let mut d = Digest::default();
            hashes.iter().for_each(|&h| d.add_row(h));
            d
        };
        let reference = digest_of(&hashes);
        assert_eq!(reference, digest_batch(&kjt));

        let mut reversed = hashes.clone();
        reversed.reverse();
        assert_eq!(digest_of(&reversed), reference, "order must not matter");

        // Split across two partial digests and merged.
        let mut merged = digest_of(&hashes[..20]);
        merged.merge(digest_of(&hashes[20..]));
        assert_eq!(merged, reference);

        assert_ne!(digest_of(&hashes[1..]), reference, "dropped row");
        let mut duplicated = hashes.clone();
        duplicated.push(hashes[5]);
        assert_ne!(digest_of(&duplicated), reference, "duplicated row");
        // Dropping one row and duplicating another keeps the count but not
        // the sum.
        let mut swapped = hashes.clone();
        swapped[0] = swapped[1];
        assert_eq!(digest_of(&swapped).rows, reference.rows);
        assert_ne!(digest_of(&swapped), reference, "replaced row");

        // One flipped bit in one id of one row.
        let mut expanded = expand_row(&kjt, 7);
        let victim = expanded
            .iter_mut()
            .find(|(_, v)| !v.is_empty())
            .expect("row has ids");
        victim.1[0] ^= 1 << 17;
        let flipped = row_hash(
            kjt.labels[7],
            expanded.iter().map(|(id, v)| (*id, v.as_slice())),
        );
        let mut corrupted = hashes.clone();
        corrupted[7] = flipped;
        assert_ne!(digest_of(&corrupted), reference, "bit-flipped row");
        // And a flipped label.
        let relabelled = row_hash(
            1.0 - kjt.labels[7],
            expand_row(&kjt, 7)
                .iter()
                .map(|(id, v)| (*id, v.as_slice())),
        );
        assert_ne!(relabelled, hashes[7]);
    }
}
