//! Feature conversion: the reader-tier step that turns a batch of rows into
//! KJTs and IKJTs according to a DataLoader specification (paper §4.2,
//! Figure 5).

use crate::dense::DenseMatrix;
use crate::ikjt::{distinct_prefix_rows, InverseKeyedJaggedTensor};
use crate::kjt::KeyedJaggedTensor;
use crate::{CoreError, DedupScratch, Result};
use recd_data::{ColumnarBatch, FeatureId, RowRuns, Schema};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashSet;

/// Rows of a batch's prefix that judge each dedup group (`K`). A shorter
/// batch keeps every group as an IKJT: too few rows to judge.
pub const JUDGED_ROWS: usize = 64;

/// The dedupe factor from which a group's IKJT pays (`T`): below it the
/// group ships as plain KJT. The smallest factor at which the IKJT form
/// wins on convert + process CPU or on shipped bytes, minimised over RM1's
/// group widths, on the `columnar` bench's `break_even` sweep.
///
/// The bytes half sets it: a width-64 group ships 0.4 % fewer bytes as an
/// IKJT at 1.02 while costing more convert + process time, which it first
/// saves at 1.1. The end-to-end workloads only test the value from outside:
/// their groups sit near 1.0 (`preproc_lowdup`) or at 2.45 and above, so
/// any threshold between those gives the same runs, and the range in
/// between is unverified end to end.
pub const BREAK_EVEN_FACTOR: f64 = 1.02;

/// Whether `distinct` distinct rows among [`JUDGED_ROWS`] estimate a
/// factor of at least [`BREAK_EVEN_FACTOR`].
fn pays_at(distinct: usize) -> bool {
    JUDGED_ROWS as f64 >= BREAK_EVEN_FACTOR * distinct as f64
}

/// Whether `group` keeps its IKJT in `rows` (every grouped feature's index
/// already checked against them).
///
/// The estimate is [`JUDGED_ROWS`] over the distinct rows of the batch's
/// prefix, counted by the dedup table's row digest in place
/// ([`distinct_prefix_rows`]). A digest collision can only merge
/// rows, overstating duplication, so an error keeps the IKJT. Rows marked as
/// repeating their predecessor in every grouped column digest equal to it,
/// so when the marks alone reach the threshold the digests are skipped —
/// with the same verdict they would give: the decision is a function of
/// row content alone.
fn group_pays<B: Borrow<ColumnarBatch>>(rows: &RowRuns<B>, group: &[FeatureId]) -> bool {
    if rows.row_count() < JUDGED_ROWS {
        return true;
    }
    let mut unmarked = JUDGED_ROWS;
    for row in 1..JUDGED_ROWS {
        if rows.is_repeat(group, row) {
            unmarked -= 1;
            if pays_at(unmarked) {
                return true;
            }
        }
    }
    pays_at(distinct_prefix_rows::<JUDGED_ROWS, B>(rows, group))
}

/// The RecD-extended DataLoader specification: which sparse features stay in
/// KJT form and which feature groups are deduplicated into IKJTs.
///
/// Mirrors the paper's
/// `sparse_features: [a], dedup_sparse_features: [[b], [c, d]]` example.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DataLoaderConfig {
    /// Sparse features converted to a conventional KJT.
    pub kjt_features: Vec<FeatureId>,
    /// Groups of sparse features deduplicated into one IKJT each.
    pub dedup_groups: Vec<Vec<FeatureId>>,
    /// Number of dense feature columns to materialize.
    pub dense_features: usize,
}

impl DataLoaderConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds features that stay KJT-encoded.
    #[must_use]
    pub fn with_kjt_features<I: IntoIterator<Item = FeatureId>>(mut self, features: I) -> Self {
        self.kjt_features.extend(features);
        self
    }

    /// Adds one deduplication group (an IKJT).
    #[must_use]
    pub fn with_dedup_group<I: IntoIterator<Item = FeatureId>>(mut self, group: I) -> Self {
        self.dedup_groups.push(group.into_iter().collect());
        self
    }

    /// Sets the number of dense feature columns.
    #[must_use]
    pub fn with_dense_features(mut self, count: usize) -> Self {
        self.dense_features = count;
        self
    }

    /// Builds a configuration from a schema: every declared dedup group
    /// becomes an IKJT group and every remaining sparse feature stays in the
    /// KJT.
    pub fn from_schema(schema: &Schema) -> Self {
        let dedup_groups = schema
            .groups()
            .into_iter()
            .map(|(_, members)| members)
            .filter(|members| !members.is_empty())
            .collect();
        Self {
            kjt_features: schema.undeduplicated_sparse(),
            dedup_groups,
            dense_features: schema.dense_count(),
        }
    }

    /// Builds a *baseline* configuration from a schema: every sparse feature
    /// stays in the KJT and nothing is deduplicated. Used for the paper's
    /// baseline measurements.
    pub fn baseline_from_schema(schema: &Schema) -> Self {
        Self {
            kjt_features: schema.sparse_features().iter().map(|f| f.id).collect(),
            dedup_groups: Vec::new(),
            dense_features: schema.dense_count(),
        }
    }

    /// All sparse features referenced by the configuration, KJT first then
    /// groups in order. Borrowed iterator access — callers that need an
    /// owned list collect it themselves; validation and feature counting
    /// allocate nothing.
    pub fn all_sparse_features(&self) -> impl Iterator<Item = FeatureId> + '_ {
        self.kjt_features
            .iter()
            .copied()
            .chain(self.dedup_groups.iter().flat_map(|g| g.iter().copied()))
    }

    /// Validates that no feature appears twice across the KJT list and the
    /// dedup groups.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateFeatureInConfig`] naming the first
    /// repeated feature.
    pub fn validate(&self) -> Result<()> {
        let mut seen = HashSet::new();
        for feature in self.all_sparse_features() {
            if !seen.insert(feature) {
                return Err(CoreError::DuplicateFeatureInConfig { feature });
            }
        }
        Ok(())
    }
}

/// The output of feature conversion for one batch: dense features, labels,
/// the KJT of non-deduplicated features, and one IKJT per dedup group that
/// pays in this batch.
///
/// The `Default` value is an empty zero-row batch — the shell a buffer pool
/// hands to [`FeatureConverter::convert_columnar_into`], which overwrites
/// every field while reusing the underlying allocations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConvertedBatch {
    /// Number of samples in the batch.
    pub batch_size: usize,
    /// Labels in batch order.
    pub labels: Vec<f32>,
    /// Dense features as a `[batch_size, dense_features]` matrix.
    pub dense: DenseMatrix,
    /// Non-deduplicated sparse features: the configured KJT features, then
    /// the features of every dedup group that ships as KJT in this batch, in
    /// group order.
    pub kjt: KeyedJaggedTensor,
    /// One IKJT per dedup group whose estimated factor reaches
    /// [`BREAK_EVEN_FACTOR`] in this batch, in configuration order.
    pub ikjts: Vec<InverseKeyedJaggedTensor>,
}

impl ConvertedBatch {
    /// Total sparse ids stored by this converted batch (KJT values plus
    /// deduplicated IKJT values, a windowed slot tensor's pool counted once).
    pub fn stored_sparse_values(&self) -> usize {
        self.kjt.value_count()
            + self
                .ikjts
                .iter()
                .map(InverseKeyedJaggedTensor::dedup_value_count)
                .sum::<usize>()
    }

    /// Total sparse ids the batch would store without any deduplication.
    pub fn logical_sparse_values(&self) -> usize {
        self.kjt.value_count()
            + self
                .ikjts
                .iter()
                .map(InverseKeyedJaggedTensor::original_value_count)
                .sum::<usize>()
    }

    /// Bytes shipped from readers to trainers for the sparse part of this
    /// batch: every buffer it holds, 8 bytes per word — each KJT feature's
    /// values and offsets, each IKJT slot tensor's values, offsets and
    /// starts, and each IKJT's inverse lookup. With
    /// [`DenseMatrix::payload_bytes`] (4 per dense value) it is a batch's
    /// egress; labels are not counted.
    pub fn sparse_payload_bytes(&self) -> usize {
        self.kjt.payload_bytes()
            + self
                .ikjts
                .iter()
                .map(|i| i.payload_bytes() + i.inverse_lookup_bytes())
                .sum::<usize>()
    }

    /// Batch-wide deduplication factor over the batch's IKJTs; a group
    /// shipped as KJT counts in neither sum.
    pub fn dedupe_factor(&self) -> f64 {
        let stored: usize = self
            .ikjts
            .iter()
            .map(InverseKeyedJaggedTensor::dedup_value_count)
            .sum();
        let logical: usize = self
            .ikjts
            .iter()
            .map(InverseKeyedJaggedTensor::original_value_count)
            .sum();
        if stored == 0 {
            1.0
        } else {
            logical as f64 / stored as f64
        }
    }
}

/// Converts columnar batches into tensors according to a
/// [`DataLoaderConfig`], deduplicating the configured groups (O3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureConverter {
    config: DataLoaderConfig,
    /// Every configured sparse feature, cached once so the baseline
    /// conversion paths don't re-collect the list per batch.
    all_features: Vec<FeatureId>,
    /// [`DataLoaderConfig::validate`]'s verdict, taken once: validating
    /// builds a set, and a batch must not allocate.
    valid: Result<()>,
}

impl FeatureConverter {
    /// Creates a converter for the given configuration.
    pub fn new(config: DataLoaderConfig) -> Self {
        let all_features = config.all_sparse_features().collect();
        Self {
            valid: config.validate(),
            config,
            all_features,
        }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &DataLoaderConfig {
        &self.config
    }

    /// Converts one columnar batch into tensors. Labels and dense values
    /// copy over as whole buffers, each KJT feature is two flat copies, and
    /// each dedup group runs the allocation-free columnar IKJT path — or,
    /// when its factor in this batch is below [`BREAK_EVEN_FACTOR`], joins
    /// the KJT.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration references a feature twice or
    /// the batch does not carry a configured feature.
    pub fn convert_columnar(&self, batch: &ColumnarBatch) -> Result<ConvertedBatch> {
        let mut out = ConvertedBatch::default();
        self.convert_columnar_into(batch, &mut DedupScratch::default(), &mut out)?;
        Ok(out)
    }

    /// Converts one columnar batch into a caller-provided (typically
    /// recycled) [`ConvertedBatch`], reusing its label, dense, KJT, and
    /// IKJT buffers — the buffer-reusing variant of
    /// [`FeatureConverter::convert_columnar`]: the batch as a one-run
    /// [`RowRuns`] view (see [`FeatureConverter::convert_runs_into`]).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`FeatureConverter::convert_columnar`]; on
    /// error the shell's contents are unspecified.
    pub fn convert_columnar_into(
        &self,
        batch: &ColumnarBatch,
        scratch: &mut DedupScratch,
        out: &mut ConvertedBatch,
    ) -> Result<()> {
        self.convert_runs_into(&RowRuns::new(&[(batch, 0..batch.len())]), scratch, out)
    }

    /// Converts a view's rows into a recycled shell, as the streaming
    /// compute workers do with a long-lived [`DedupScratch`]: equal to
    /// converting a batch that copies the same runs, whatever the shell
    /// held before.
    ///
    /// Each group's form is decided from the view's own rows (see
    /// [`JUDGED_ROWS`]). A group's buffers stay with the shell and the
    /// scratch while it ships in the other form, so the decision flipping
    /// between batches allocates nothing.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`FeatureConverter::convert_columnar`]; on
    /// error the shell's contents are unspecified.
    pub fn convert_runs_into<B: Borrow<ColumnarBatch>>(
        &self,
        rows: &RowRuns<B>,
        scratch: &mut DedupScratch,
        out: &mut ConvertedBatch,
    ) -> Result<()> {
        self.valid.clone()?;
        let available = rows.sparse_cols();
        if let Some(&feature) = self.all_features.iter().find(|f| f.index() >= available) {
            return Err(CoreError::MissingSparseFeature { feature, available });
        }
        self.assign_dense_into(rows, out);
        scratch.kjt_keys.clear();
        scratch
            .kjt_keys
            .extend_from_slice(&self.config.kjt_features);
        scratch.spare_ikjts.append(&mut out.ikjts);
        for group in &self.config.dedup_groups {
            if !group_pays(rows, group) {
                scratch.kjt_keys.extend_from_slice(group);
                continue;
            }
            let mut ikjt = match scratch.spare_ikjts.iter().position(|i| i.keys() == group) {
                Some(i) => scratch.spare_ikjts.swap_remove(i),
                None => InverseKeyedJaggedTensor::default(),
            };
            InverseKeyedJaggedTensor::dedup_from_runs_into(rows, group, scratch, &mut ikjt)?;
            out.ikjts.push(ikjt);
        }
        out.kjt
            .assign_from_runs(rows, &scratch.kjt_keys, &mut scratch.spare_tensors)
    }

    /// Refills the shell's batch size, labels and dense matrix from `rows`.
    fn assign_dense_into<B: Borrow<ColumnarBatch>>(
        &self,
        rows: &RowRuns<B>,
        out: &mut ConvertedBatch,
    ) {
        out.batch_size = rows.row_count();
        out.labels.clear();
        for (batch, range) in rows.runs() {
            out.labels.extend_from_slice(&batch.labels()[range]);
        }
        out.dense.assign_from_runs(rows, self.config.dense_features);
    }

    /// Converts a columnar batch without any deduplication, regardless of
    /// the configured groups (all features land in the KJT) — the baseline
    /// conversion used for comparisons. Equal to
    /// [`FeatureConverter::convert_columnar`] under a configuration with no
    /// dedup groups.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`FeatureConverter::convert_columnar`].
    pub fn convert_columnar_baseline(&self, batch: &ColumnarBatch) -> Result<ConvertedBatch> {
        let mut out = ConvertedBatch::default();
        self.convert_columnar_baseline_into(batch, &mut out)?;
        Ok(out)
    }

    /// Converts a columnar batch without deduplication into a recycled
    /// shell — the buffer-reusing variant of
    /// [`FeatureConverter::convert_columnar_baseline`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`FeatureConverter::convert_columnar`]; on
    /// error the shell's contents are unspecified.
    pub fn convert_columnar_baseline_into(
        &self,
        batch: &ColumnarBatch,
        out: &mut ConvertedBatch,
    ) -> Result<()> {
        let runs = [(batch, 0..batch.len())];
        let rows = RowRuns::new(&runs);
        self.assign_dense_into(&rows, out);
        out.kjt
            .assign_from_runs(&rows, &self.all_features, &mut Vec::new())?;
        out.ikjts.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::{FeatureClass, RequestId, Sample, SessionId, Timestamp};

    fn f(i: u32) -> FeatureId {
        FeatureId::new(i)
    }

    /// One row of the Figure 5 batch: features a–d plus a label.
    type Figure5Row = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>, f32);

    /// Builds the exact batch of Figure 5: features a, b, c, d over 3 rows.
    fn figure5_batch() -> ColumnarBatch {
        let rows: Vec<Figure5Row> = vec![
            (vec![1, 2], vec![3, 4, 5], vec![7, 8], vec![9], 1.0),
            (vec![1, 2], vec![4, 5, 6], vec![7, 8], vec![9], 0.0),
            (vec![1, 2], vec![3, 4, 5], vec![10], vec![11], 1.0),
        ];
        let samples: Vec<Sample> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, c, d, label))| {
                Sample::builder(
                    SessionId::new(1),
                    RequestId::new(i as u64),
                    Timestamp::from_millis(i as u64),
                )
                .label(label)
                .dense(vec![i as f32])
                .sparse(vec![a, b, c, d])
                .build()
            })
            .collect();
        ColumnarBatch::from_samples(&samples, 1, 4)
    }

    fn figure5_config() -> DataLoaderConfig {
        DataLoaderConfig::new()
            .with_kjt_features([f(0)])
            .with_dedup_group([f(1)])
            .with_dedup_group([f(2), f(3)])
            .with_dense_features(1)
    }

    #[test]
    fn figure5_conversion() {
        let converted = FeatureConverter::new(figure5_config())
            .convert_columnar(&figure5_batch())
            .unwrap();
        assert_eq!(converted.batch_size, 3);
        assert_eq!(converted.labels, vec![1.0, 0.0, 1.0]);
        assert_eq!(converted.dense.row(2), &[2.0]);

        // Feature a stays a KJT with duplicate values intact.
        let a = converted.kjt.feature(f(0)).unwrap();
        assert_eq!(a.values(), &[1, 2, 1, 2, 1, 2]);

        // Feature b: rows 0 and 2 deduplicated.
        let b = &converted.ikjts[0];
        assert_eq!(b.inverse_lookup(), &[0, 1, 0]);
        assert_eq!(b.feature(f(1)).unwrap().values(), &[3, 4, 5, 4, 5, 6]);

        // Features c and d grouped: rows 0 and 1 share a slot.
        let cd = &converted.ikjts[1];
        assert_eq!(cd.inverse_lookup(), &[0, 0, 1]);
        assert_eq!(cd.feature(f(2)).unwrap().values(), &[7, 8, 10]);
        assert_eq!(cd.feature(f(3)).unwrap().values(), &[9, 11]);

        // Logical content is preserved: expanding every IKJT gives back the
        // original per-row values.
        assert_eq!(cd.to_kjt().unwrap().feature(f(2)).unwrap().row(1), &[7, 8]);
        assert!(converted.stored_sparse_values() < converted.logical_sparse_values());
        assert!(converted.dedupe_factor() > 1.0);
    }

    #[test]
    fn into_variants_refill_any_shell_identically() {
        let batch = figure5_batch();
        let converter = FeatureConverter::new(figure5_config());
        let fresh = converter.convert_columnar(&batch).unwrap();
        let base = converter.convert_columnar_baseline(&batch).unwrap();

        // A dirty shell of another shape refills to the one-shot result.
        let mut shell = base.clone();
        let mut scratch = DedupScratch::default();
        converter
            .convert_columnar_into(&batch, &mut scratch, &mut shell)
            .unwrap();
        assert_eq!(shell, fresh);
        converter
            .convert_columnar_baseline_into(&batch, &mut shell)
            .unwrap();
        assert_eq!(shell, base);

        // Empty batches convert cleanly too.
        let empty = converter
            .convert_columnar(&ColumnarBatch::new(1, 4))
            .unwrap();
        assert_eq!(empty.batch_size, 0);
        assert!(empty.labels.is_empty());
        assert_eq!(empty.dedupe_factor(), 1.0);
    }

    #[test]
    fn baseline_conversion_keeps_everything_in_kjt() {
        let converter = FeatureConverter::new(figure5_config());
        let baseline = converter
            .convert_columnar_baseline(&figure5_batch())
            .unwrap();
        assert!(baseline.ikjts.is_empty());
        assert_eq!(baseline.kjt.feature_count(), 4);
        assert_eq!(baseline.dedupe_factor(), 1.0);

        let recd = converter.convert_columnar(&figure5_batch()).unwrap();
        assert_eq!(
            baseline.logical_sparse_values(),
            recd.logical_sparse_values(),
            "deduplication must not change the logical data"
        );
        assert!(recd.sparse_payload_bytes() <= baseline.sparse_payload_bytes());

        // O3 off is a configuration, not a second converter: with no dedup
        // groups the deduplicating path emits the baseline batch.
        let no_groups = DataLoaderConfig::new()
            .with_kjt_features([f(0), f(1), f(2), f(3)])
            .with_dense_features(1);
        assert_eq!(
            FeatureConverter::new(no_groups)
                .convert_columnar(&figure5_batch())
                .unwrap(),
            baseline
        );
    }

    /// Egress counted independently: length × width of every buffer the
    /// batch holds.
    fn buffer_bytes(batch: &ConvertedBatch) -> usize {
        let kjt: usize = batch
            .kjt
            .iter()
            .map(|(_, t)| t.values().len() + t.offsets().len())
            .sum();
        let ikjt: usize = batch
            .ikjts
            .iter()
            .map(|ikjt| {
                let slots: usize = ikjt
                    .iter()
                    .map(|(_, t)| t.values().len() + t.offsets().len() + t.starts().len())
                    .sum();
                slots + ikjt.inverse_lookup().len()
            })
            .sum();
        (kjt + ikjt) * 8 + batch.dense.data().len() * 4
    }

    #[test]
    fn egress_is_the_sum_of_every_shipped_buffer() {
        // Feature 1 is a history of 3 shifting by one per session step;
        // feature 0 holds each session's id, so every step is a new slot.
        let samples: Vec<Sample> = (0..12u64)
            .map(|i| {
                Sample::builder(
                    SessionId::new(i / 6),
                    RequestId::new(i),
                    Timestamp::from_millis(i),
                )
                .dense(vec![i as f32])
                .sparse(vec![vec![i / 6], vec![i, i + 1, i + 2], vec![i]])
                .build()
            })
            .collect();
        let config = DataLoaderConfig::new()
            .with_kjt_features([f(2)])
            .with_dedup_group([f(0), f(1)])
            .with_dense_features(1);
        let mut batch = FeatureConverter::new(config)
            .convert_columnar(&ColumnarBatch::from_samples(&samples, 1, 3))
            .unwrap();
        let egress = |b: &ConvertedBatch| b.sparse_payload_bytes() + b.dense.payload_bytes();
        assert_eq!(egress(&batch), buffer_bytes(&batch));
        let contiguous = egress(&batch);

        batch.ikjts[0].pack_windows();
        let history = batch.ikjts[0].feature(f(1)).unwrap();
        assert!(history.is_windowed());
        assert_eq!(history.values(), &(0..14).collect::<Vec<u64>>()[..]);
        assert_eq!(egress(&batch), buffer_bytes(&batch));
        assert!(egress(&batch) < contiguous);
    }

    /// A batch of `rows` rows whose sparse lists `lists(row)` gives.
    fn batch_of(rows: usize, lists: impl Fn(u64) -> Vec<Vec<u64>>) -> ColumnarBatch {
        let samples: Vec<Sample> = (0..rows as u64)
            .map(|i| {
                Sample::builder(
                    SessionId::new(i),
                    RequestId::new(i),
                    Timestamp::from_millis(i),
                )
                .sparse(lists(i))
                .build()
            })
            .collect();
        let sparse_cols = samples.first().map_or(0, |s| s.sparse.len());
        ColumnarBatch::from_samples(&samples, 0, sparse_cols)
    }

    #[test]
    fn break_even_is_the_sweeps_smallest_winning_factor() {
        // The `columnar` bench's `break_even` sweep: at factor 1.0 the IKJT
        // form loses on time and bytes at every width; at 1.02 a width-64
        // group already ships fewer bytes as an IKJT (width 8 from 1.25,
        // width 1 from 4).
        assert_eq!(BREAK_EVEN_FACTOR, 1.02);
        assert_eq!(JUDGED_ROWS, 64);
        // Over a 64-row prefix that is two repeated rows: 64/62 keeps the
        // IKJT, 64/63 does not.
        assert!(pays_at(62) && !pays_at(63));

        // The byte half of the sweep's width-64 rows, recomputed: 512 rows
        // holding 512/factor distinct lists of 64 ids.
        let bytes = |factor: f64| {
            let distinct = (512.0 / factor).round() as u64;
            let batch = batch_of(512, |i| {
                let tuple = i * distinct / 512;
                vec![(0..64).map(|k| tuple * 64 + k).collect()]
            });
            let ikjt = InverseKeyedJaggedTensor::dedup_from_columnar(&batch, &[f(0)]).unwrap();
            let kjt = KeyedJaggedTensor::from_columnar(&batch, &[f(0)]).unwrap();
            (
                ikjt.payload_bytes() + ikjt.inverse_lookup_bytes(),
                kjt.payload_bytes(),
            )
        };
        let (ikjt, kjt) = bytes(1.0);
        assert!(ikjt > kjt);
        let (ikjt, kjt) = bytes(BREAK_EVEN_FACTOR);
        assert!(ikjt < kjt);
    }

    #[test]
    fn a_group_that_barely_repeats_ships_as_kjt() {
        // Feature 0 stays KJT; group [1, 2] never repeats; group [3]
        // repeats every other row.
        let lists = |i: u64| vec![vec![i % 3], vec![i], vec![i, i + 1], vec![i / 2]];
        let config = DataLoaderConfig::new()
            .with_kjt_features([f(0)])
            .with_dedup_group([f(1), f(2)])
            .with_dedup_group([f(3)]);
        let converter = FeatureConverter::new(config);

        let batch = batch_of(JUDGED_ROWS, lists);
        let converted = converter.convert_columnar(&batch).unwrap();
        assert_eq!(converted.kjt.keys(), &[f(0), f(1), f(2)]);
        assert_eq!(converted.ikjts.len(), 1);
        assert_eq!(converted.ikjts[0].keys(), &[f(3)]);
        assert_eq!(converted.kjt.feature(f(2)).unwrap().row(5), &[5, 6]);
        assert_eq!(converted.dedupe_factor(), 2.0);
        assert_eq!(
            converted.logical_sparse_values(),
            converter
                .convert_columnar_baseline(&batch)
                .unwrap()
                .logical_sparse_values()
        );

        // Marks are a shortcut, not an input: marking every repeat of the
        // kept group changes nothing.
        let mut marked = batch.clone();
        let column = &mut marked.columns_mut().sparse[3];
        for row in (1..JUDGED_ROWS).step_by(2) {
            column.mark_repeat(row);
        }
        assert_eq!(converter.convert_columnar(&marked).unwrap(), converted);

        // A batch too short to judge keeps every group.
        let short = converter
            .convert_columnar(&batch_of(JUDGED_ROWS - 1, lists))
            .unwrap();
        assert_eq!(short.kjt.keys(), &[f(0)]);
        assert_eq!(short.ikjts.len(), 2);

        // One shell refills to the one-shot result whichever way the
        // groups flipped before.
        let mut shell = ConvertedBatch::default();
        let mut scratch = DedupScratch::default();
        for rows in [JUDGED_ROWS, JUDGED_ROWS - 1, JUDGED_ROWS] {
            let batch = batch_of(rows, lists);
            converter
                .convert_columnar_into(&batch, &mut scratch, &mut shell)
                .unwrap();
            assert_eq!(shell, converter.convert_columnar(&batch).unwrap());
        }
    }

    #[test]
    fn duplicate_feature_across_config_sections_is_rejected() {
        let config = DataLoaderConfig::new()
            .with_kjt_features([f(1)])
            .with_dedup_group([f(1)]);
        assert!(matches!(
            config.validate(),
            Err(CoreError::DuplicateFeatureInConfig { .. })
        ));
        let err = FeatureConverter::new(config)
            .convert_columnar(&figure5_batch())
            .unwrap_err();
        assert!(matches!(err, CoreError::DuplicateFeatureInConfig { .. }));
    }

    #[test]
    fn config_from_schema_uses_declared_groups() {
        let schema = Schema::builder()
            .dense("d0")
            .dedup_groups(1)
            .sparse_with(
                "user_hist",
                FeatureClass::User,
                50.0,
                0.9,
                1 << 20,
                64,
                Some(recd_data::DedupGroupId::new(0)),
            )
            .sparse("item", FeatureClass::Item, 1.0, 0.1, 1 << 20)
            .build()
            .unwrap();
        let config = DataLoaderConfig::from_schema(&schema);
        assert_eq!(config.dense_features, 1);
        assert_eq!(config.kjt_features, vec![f(1)]);
        assert_eq!(config.dedup_groups, vec![vec![f(0)]]);
        assert!(config.validate().is_ok());

        let baseline = DataLoaderConfig::baseline_from_schema(&schema);
        assert!(baseline.dedup_groups.is_empty());
        assert_eq!(baseline.kjt_features.len(), 2);
    }
}
