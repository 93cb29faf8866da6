//! Preprocessing transforms (the user-provided TorchScript modules of the
//! paper) and the wrapper that lets them run over deduplicated tensors (O4).
//!
//! Transforms operate **flat and in place**: a transform edits a jagged
//! `(values, offsets)` buffer pair directly, so a whole pipeline runs over a
//! converted batch without allocating a single intermediate tensor. Each
//! transform has this one implementation; the row-wise allocate-per-apply
//! reference the property suite and the `columnar` bench hold it against
//! lives with them, in `tests/rowwise/mod.rs`.

use recd_core::{ConvertedBatch, DenseMatrix, JaggedTensor};
use serde::{Deserialize, Serialize};

/// Reusable scratch buffers shared by the transforms of one pipeline.
///
/// A [`PhaseEngine`](crate::PhaseEngine) (one per reader or streaming
/// compute worker) owns one scratch for its whole lifetime, so steady-state
/// preprocessing allocates nothing beyond buffer growth.
#[derive(Debug, Default)]
pub struct TransformScratch {
    /// Per-column mean accumulators for dense normalization (also the
    /// affine shift of the write pass — kept in f64 so large-magnitude
    /// columns still center exactly).
    mean: Vec<f64>,
    /// Per-column M2 (sum of squared deviations) accumulators.
    m2: Vec<f64>,
    /// Per-column affine scale applied in the normalization write pass
    /// (`1/std`, or 1.0 for constant columns).
    scale: Vec<f64>,
}

/// A preprocessing transform over one sparse feature's jagged tensor.
///
/// The same transform object is applied either to a full KJT tensor (one row
/// per sample — the baseline) or, through the O4 wrapper, to an IKJT's
/// deduplicated tensor (one row per slot), saving the work for duplicate
/// rows.
pub trait SparseTransform: Send + Sync {
    /// Applies the transform in place to a flat jagged buffer pair. The
    /// buffers must satisfy the jagged invariants on entry and the transform
    /// must restore them on exit (offsets start at zero, are non-decreasing,
    /// end at `values.len()`) while preserving the row count.
    fn apply_flat(
        &self,
        values: &mut Vec<u64>,
        offsets: &mut Vec<usize>,
        scratch: &mut TransformScratch,
    );

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// Hashes every id into `buckets` buckets — the standard "hashing" transform
/// applied before embedding lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashBucketize {
    /// Number of hash buckets.
    pub buckets: u64,
}

impl SparseTransform for HashBucketize {
    fn apply_flat(
        &self,
        values: &mut Vec<u64>,
        _offsets: &mut Vec<usize>,
        _scratch: &mut TransformScratch,
    ) {
        // Row structure is irrelevant to a per-value map: one pass over the
        // flat buffer, via the single-id hash fast path.
        let buckets = self.buckets.max(1);
        for v in values.iter_mut() {
            *v = recd_codec::hash_id(*v) % buckets;
        }
    }

    fn name(&self) -> &'static str {
        "hash_bucketize"
    }
}

/// Truncates every list to its most recent `max_len` ids — the standard
/// sequence-length cap for long user histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TruncateList {
    /// Maximum list length kept.
    pub max_len: usize,
}

impl SparseTransform for TruncateList {
    fn apply_flat(
        &self,
        values: &mut Vec<u64>,
        offsets: &mut Vec<usize>,
        _scratch: &mut TransformScratch,
    ) {
        // One forward sweep compacting kept suffixes toward the front.
        // Until the first row actually shrinks, every row is already in
        // place and the copy is skipped.
        let mut write = 0usize;
        let mut start = 0usize;
        for offset in offsets.iter_mut().skip(1) {
            let end = *offset;
            let keep = (end - start).min(self.max_len);
            let keep_start = end - keep;
            if keep_start != write {
                values.copy_within(keep_start..end, write);
            }
            write += keep;
            start = end;
            *offset = write;
        }
        values.truncate(write);
    }

    fn name(&self) -> &'static str {
        "truncate_list"
    }
}

/// Standard deviation below which a dense column is treated as constant:
/// its values are already indistinguishable at f32 precision, and dividing
/// by a clamped epsilon would only amplify accumulated rounding noise.
const DENSE_STD_FLOOR: f64 = 1e-6;

/// Normalizes dense features to zero mean and unit variance per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DenseNormalize;

impl DenseNormalize {
    /// Applies the normalization in place with throwaway scratch. Hot paths
    /// use [`DenseNormalize::apply_with_scratch`].
    pub fn apply(&self, dense: &mut DenseMatrix) {
        self.apply_with_scratch(dense, &mut TransformScratch::default());
    }

    /// Applies the normalization in place: one fused Welford pass over the
    /// row-major data accumulates every column's mean and variance
    /// simultaneously, then a single write pass applies the per-column
    /// affine `(v - mean) / std`.
    ///
    /// Columns whose standard deviation is below `DENSE_STD_FLOOR` (1e-6) are
    /// treated as constant and **centered without scaling** (`v - mean`,
    /// zero mean preserved): the previous implementation divided their
    /// rounding residue by a clamped epsilon, amplifying noise by up to a
    /// million for no information gain. If every column already sits at
    /// zero mean and zero variance, the write pass is skipped entirely.
    pub fn apply_with_scratch(&self, dense: &mut DenseMatrix, scratch: &mut TransformScratch) {
        let rows = dense.rows();
        let cols = dense.cols();
        if rows == 0 || cols == 0 {
            return;
        }

        // Fused statistics pass: textbook Welford, vectorized across columns
        // so the data is read once, row-major (cache order).
        scratch.mean.clear();
        scratch.mean.resize(cols, 0.0);
        scratch.m2.clear();
        scratch.m2.resize(cols, 0.0);
        let data = dense.data();
        for (r, row) in data.chunks_exact(cols).enumerate() {
            let count = (r + 1) as f64;
            for (c, &v) in row.iter().enumerate() {
                let v = v as f64;
                let delta = v - scratch.mean[c];
                scratch.mean[c] += delta / count;
                scratch.m2[c] += delta * (v - scratch.mean[c]);
            }
        }

        // Per-column affine coefficients; constant columns center only.
        scratch.scale.clear();
        let mut any_active = false;
        for c in 0..cols {
            let std = (scratch.m2[c] / rows as f64).sqrt();
            let scale = if std < DENSE_STD_FLOOR {
                1.0
            } else {
                1.0 / std
            };
            any_active |= scratch.mean[c] != 0.0 || scale != 1.0;
            scratch.scale.push(scale);
        }
        if !any_active {
            return;
        }

        // Single write pass applying the per-column affine, in f64 like the
        // statistics pass: an f32 shift would round away up to ulp(mean),
        // biasing large-magnitude columns by whole standard deviations.
        for row in dense.data_mut().chunks_exact_mut(cols) {
            for (c, v) in row.iter_mut().enumerate() {
                *v = ((*v as f64 - scratch.mean[c]) * scratch.scale[c]) as f32;
            }
        }
    }
}

/// Counts of preprocessing work, used to show O4's savings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PreprocessStats {
    /// Sparse values actually run through transforms.
    pub values_processed: usize,
    /// Sparse values that would have been processed without deduplication.
    pub logical_values: usize,
}

/// A pipeline of sparse transforms plus dense normalization, applied to a
/// [`ConvertedBatch`].
#[derive(Default)]
pub struct PreprocessPipeline {
    sparse: Vec<Box<dyn SparseTransform>>,
    normalize_dense: bool,
}

impl std::fmt::Debug for PreprocessPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreprocessPipeline")
            .field(
                "sparse",
                &self.sparse.iter().map(|t| t.name()).collect::<Vec<_>>(),
            )
            .field("normalize_dense", &self.normalize_dense)
            .finish()
    }
}

impl PreprocessPipeline {
    /// Creates an empty pipeline (no transforms).
    pub fn new() -> Self {
        Self::default()
    }

    /// A representative production-style pipeline: cap sequences at
    /// `max_len`, hash ids into `buckets` buckets, and normalize dense
    /// features. Hashing maps ids one by one and truncation keeps suffixes,
    /// so the two commute; truncating first hashes only the ids kept.
    pub fn standard(buckets: u64, max_len: usize) -> Self {
        Self::new()
            .with_sparse(TruncateList { max_len })
            .with_sparse(HashBucketize { buckets })
            .with_dense_normalization()
    }

    /// Adds a sparse transform.
    #[must_use]
    pub fn with_sparse<T: SparseTransform + 'static>(mut self, transform: T) -> Self {
        self.sparse.push(Box::new(transform));
        self
    }

    /// Enables dense normalization.
    #[must_use]
    pub fn with_dense_normalization(mut self) -> Self {
        self.normalize_dense = true;
        self
    }

    /// Runs every sparse transform over one tensor, flat and in place: each
    /// transform edits the tensor's own buffers — no intermediate tensor is
    /// ever allocated.
    fn apply_sparse_flat(&self, tensor: &mut JaggedTensor<u64>, scratch: &mut TransformScratch) {
        if self.sparse.is_empty() {
            return;
        }
        tensor
            .edit_flat(|values, offsets| {
                for t in &self.sparse {
                    t.apply_flat(values, offsets, scratch);
                }
            })
            .expect("transforms preserve jagged invariants");
    }

    /// Preprocesses a converted batch in place, with throwaway scratch.
    /// Long-lived engines use [`PreprocessPipeline::apply_with_scratch`].
    pub fn apply(&self, batch: &mut ConvertedBatch) -> PreprocessStats {
        self.apply_with_scratch(batch, &mut TransformScratch::default())
    }

    /// Preprocesses a converted batch in place over its flat buffers.
    ///
    /// KJT features are transformed row-by-row (every sample pays). IKJT
    /// features are transformed *once per deduplicated slot* — the O4
    /// wrapper — and their outputs remain IKJTs, so downstream network and
    /// trainer savings are preserved. Either way each feature's
    /// `(values, offsets)` buffers are edited in place; the whole phase
    /// performs no per-tensor allocation. Last, each IKJT packs its slot
    /// tensors into windows where that ships fewer bytes
    /// ([`pack_windows`](recd_core::InverseKeyedJaggedTensor::pack_windows))
    /// — after truncation, so no cut prefix stays in a pool, and after
    /// every transform, so no transform sees a window. Returns work
    /// accounting.
    pub fn apply_with_scratch(
        &self,
        batch: &mut ConvertedBatch,
        scratch: &mut TransformScratch,
    ) -> PreprocessStats {
        let mut stats = PreprocessStats::default();

        // KJT path: full per-row work.
        for (_key, tensor) in batch.kjt.iter_mut() {
            stats.values_processed += tensor.value_count();
            stats.logical_values += tensor.value_count();
            self.apply_sparse_flat(tensor, scratch);
        }

        // IKJT path: work on deduplicated slots only. Logical counts are
        // taken before the transforms so truncation does not skew them.
        for ikjt in &mut batch.ikjts {
            stats.logical_values += ikjt.original_value_count();
            for (_key, tensor) in ikjt.iter_mut() {
                stats.values_processed += tensor.value_count();
                self.apply_sparse_flat(tensor, scratch);
            }
            ikjt.pack_windows();
        }

        if self.normalize_dense {
            DenseNormalize.apply_with_scratch(&mut batch.dense, scratch);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_core::{DataLoaderConfig, FeatureConverter};
    use recd_data::{ColumnarBatch, FeatureId, RequestId, Sample, SessionId, Timestamp};

    fn batch_with_duplicates() -> ColumnarBatch {
        let samples: Vec<Sample> = (0..6u64)
            .map(|i| {
                Sample::builder(
                    SessionId::new(i / 3),
                    RequestId::new(i),
                    Timestamp::from_millis(i),
                )
                .dense(vec![i as f32, 10.0 * i as f32])
                // Feature 0 duplicates within each session; feature 1 unique.
                .sparse(vec![vec![100 + (i / 3), 200 + (i / 3), 300], vec![i]])
                .build()
            })
            .collect();
        ColumnarBatch::from_samples(&samples, 2, 2)
    }

    fn converted(dedup: bool) -> recd_core::ConvertedBatch {
        let config = if dedup {
            DataLoaderConfig::new()
                .with_kjt_features([FeatureId::new(1)])
                .with_dedup_group([FeatureId::new(0)])
                .with_dense_features(2)
        } else {
            DataLoaderConfig::new()
                .with_kjt_features([FeatureId::new(0), FeatureId::new(1)])
                .with_dense_features(2)
        };
        FeatureConverter::new(config)
            .convert_columnar(&batch_with_duplicates())
            .unwrap()
    }

    /// Applies one transform flat, through the same `edit_flat` the
    /// pipeline runs.
    fn flat(transform: &dyn SparseTransform, tensor: &JaggedTensor<u64>) -> JaggedTensor<u64> {
        let mut out = tensor.clone();
        out.edit_flat(|values, offsets| {
            transform.apply_flat(values, offsets, &mut TransformScratch::default())
        })
        .unwrap();
        out
    }

    #[test]
    fn transforms_are_deterministic_and_preserve_shape() {
        let t = HashBucketize { buckets: 97 };
        let tensor = JaggedTensor::from_lists(&[vec![1u64, 2, 3], vec![], vec![u64::MAX]]);
        let out = flat(&t, &tensor);
        assert_eq!(out.lengths(), tensor.lengths());
        assert!(out.values().iter().all(|&v| v < 97));
        assert_eq!(out, flat(&t, &tensor));

        let trunc = TruncateList { max_len: 2 };
        let out = flat(
            &trunc,
            &JaggedTensor::from_lists(&[vec![1u64, 2, 3, 4], vec![5]]),
        );
        assert_eq!(out.row(0), &[3, 4]);
        assert_eq!(out.row(1), &[5]);
    }

    #[test]
    fn dense_normalization_zero_mean_unit_variance() {
        let mut m = DenseMatrix::from_vec(vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0], 3, 2).unwrap();
        DenseNormalize.apply(&mut m);
        for c in 0..2 {
            let mean: f32 = (0..3).map(|r| m.row(r)[c]).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
            let var: f32 = (0..3).map(|r| m.row(r)[c] * m.row(r)[c]).sum::<f32>() / 3.0;
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn dense_normalization_is_exact_for_large_magnitude_columns() {
        // The mean (16777217) is not representable in f32: an f32 affine
        // shift would round it to 16777216 and bias the output by a full
        // standard deviation. The write pass must stay in f64.
        let mut m = DenseMatrix::from_vec(vec![16_777_216.0, 16_777_218.0], 2, 1).unwrap();
        DenseNormalize.apply(&mut m);
        assert_eq!(m.row(0), &[-1.0]);
        assert_eq!(m.row(1), &[1.0]);
    }

    #[test]
    fn dense_normalization_centers_constant_columns_without_scaling() {
        // Column 0 is constant at a large magnitude: the old implementation
        // divided its rounding residue by a clamped epsilon; the fused pass
        // centers it (zero mean preserved) without the noise-amplifying
        // division.
        let mut m =
            DenseMatrix::from_vec(vec![1000.0, 1.0, 1000.0, 2.0, 1000.0, 3.0], 3, 2).unwrap();
        DenseNormalize.apply(&mut m);
        for r in 0..3 {
            assert_eq!(m.row(r)[0], 0.0, "constant column must center to zero");
        }
        let mean: f32 = (0..3).map(|r| m.row(r)[1]).sum::<f32>() / 3.0;
        assert!(mean.abs() < 1e-5, "varying column still normalizes");

        // An already-centered constant matrix needs no write pass at all.
        let mut zeros = DenseMatrix::zeros(4, 2);
        let before = zeros.clone();
        DenseNormalize.apply(&mut zeros);
        assert_eq!(zeros, before);
    }

    #[test]
    fn dedup_preprocessing_touches_fewer_values_but_same_logical_result() {
        let pipeline = PreprocessPipeline::standard(1 << 20, 8);
        let mut baseline = converted(false);
        let mut recd = converted(true);
        let baseline_stats = pipeline.apply(&mut baseline);
        let recd_stats = pipeline.apply(&mut recd);

        assert_eq!(baseline_stats.logical_values, recd_stats.logical_values);
        assert!(
            recd_stats.values_processed < baseline_stats.values_processed,
            "O4 must process fewer values: {} vs {}",
            recd_stats.values_processed,
            baseline_stats.values_processed
        );

        // Logical equality: expanding the preprocessed IKJT matches the
        // preprocessed KJT for the deduplicated feature.
        let expanded = recd.ikjts[0].to_kjt().unwrap();
        let from_baseline = baseline.kjt.feature(FeatureId::new(0)).unwrap();
        let from_recd = expanded.feature(FeatureId::new(0)).unwrap();
        assert_eq!(from_baseline, from_recd);
    }

    #[test]
    fn pipeline_debug_and_empty_pipeline() {
        let pipeline = PreprocessPipeline::standard(16, 4);
        assert!(format!("{pipeline:?}").contains("hash_bucketize"));

        let empty = PreprocessPipeline::new();
        let mut batch = converted(true);
        let before = batch.clone();
        let stats = empty.apply(&mut batch);
        assert_eq!(batch, before);
        assert_eq!(stats.values_processed, batch.stored_sparse_values());
    }
}
