//! The row-wise preprocessing oracle: every transform walks its tensor row
//! by row into a fresh tensor, as the pipeline did before it went flat —
//! per-value `hash_ids(&[id])`, one new tensor per transform, each IKJT
//! packed into windows at the end. Slow and obviously right; the flat
//! pipeline in `recd-reader` is held to it by `tests/property.rs`, and the
//! `columnar` bench's `preprocess/rowwise/*` rows time it as the baseline.
//!
//! A boxed transform cannot be asked for its parameters, so a test
//! describes a pipeline once ([`Spec`]) and builds both the flat pipeline
//! ([`Spec::build`]) and this oracle ([`apply`]) from that description.

use recd_core::{ConvertedBatch, InverseKeyedJaggedTensor, JaggedTensor, KeyedJaggedTensor};
use recd_reader::{
    DenseNormalize, HashBucketize, PreprocessPipeline, PreprocessStats, TruncateList,
};

/// One sparse transform, by its parameters.
#[derive(Clone, Copy)]
pub enum Step {
    /// [`TruncateList`]: keep each row's last `max_len` ids.
    Truncate(usize),
    /// [`HashBucketize`]: hash each id into this many buckets.
    Bucketize(u64),
}

/// A preprocessing pipeline, by its parameters: the sparse steps in order,
/// then dense normalization if set.
pub struct Spec {
    pub steps: Vec<Step>,
    pub normalize_dense: bool,
}

impl Spec {
    /// The flat pipeline this describes.
    pub fn build(&self) -> PreprocessPipeline {
        let mut pipeline = PreprocessPipeline::new();
        for &step in &self.steps {
            pipeline = match step {
                Step::Truncate(max_len) => pipeline.with_sparse(TruncateList { max_len }),
                Step::Bucketize(buckets) => pipeline.with_sparse(HashBucketize { buckets }),
            };
        }
        if self.normalize_dense {
            pipeline = pipeline.with_dense_normalization();
        }
        pipeline
    }
}

/// One step over `tensor`, row by row, into a fresh tensor.
pub fn apply_step(step: Step, tensor: &JaggedTensor<u64>) -> JaggedTensor<u64> {
    let mut out = JaggedTensor::new();
    match step {
        Step::Truncate(max_len) => {
            for row in tensor.iter() {
                let start = row.len().saturating_sub(max_len);
                out.push_row(&row[start..]);
            }
        }
        Step::Bucketize(buckets) => {
            let buckets = buckets.max(1);
            let mut scratch = Vec::new();
            for row in tensor.iter() {
                scratch.clear();
                scratch.extend(row.iter().map(|&id| recd_codec::hash_ids(&[id]) % buckets));
                out.push_row(&scratch);
            }
        }
    }
    out
}

/// Every step in order, one fresh tensor per step.
fn apply_sparse(steps: &[Step], tensor: &JaggedTensor<u64>) -> JaggedTensor<u64> {
    let mut current = tensor.clone();
    for &step in steps {
        current = apply_step(step, &current);
    }
    current
}

/// Preprocesses `batch` as `spec` describes, row-wise: KJT features per
/// row, IKJT features once per slot, each IKJT rebuilt from its
/// transformed slot tensors and packed into windows, then dense
/// normalization. Returns the work accounting the flat pipeline reports.
pub fn apply(spec: &Spec, batch: &mut ConvertedBatch) -> PreprocessStats {
    let mut stats = PreprocessStats::default();

    let kjt_entries: Vec<_> = batch
        .kjt
        .iter()
        .map(|(key, tensor)| {
            stats.values_processed += tensor.value_count();
            stats.logical_values += tensor.value_count();
            (key, apply_sparse(&spec.steps, tensor))
        })
        .collect();
    batch.kjt =
        KeyedJaggedTensor::from_tensors(kjt_entries).expect("transforms preserve batch size");

    let ikjts = std::mem::take(&mut batch.ikjts);
    batch.ikjts = ikjts
        .into_iter()
        .map(|ikjt| {
            let keys = ikjt.keys().to_vec();
            let lookup = ikjt.inverse_lookup().to_vec();
            let tensors: Vec<JaggedTensor<u64>> = keys
                .iter()
                .map(|&key| {
                    let tensor = ikjt.feature(key).expect("key from the same ikjt");
                    stats.values_processed += tensor.value_count();
                    apply_sparse(&spec.steps, tensor)
                })
                .collect();
            stats.logical_values += ikjt.original_value_count();
            let mut ikjt = InverseKeyedJaggedTensor::from_parts(keys, tensors, lookup)
                .expect("transforms preserve slot structure");
            ikjt.pack_windows();
            ikjt
        })
        .collect();

    if spec.normalize_dense {
        DenseNormalize.apply(&mut batch.dense);
    }
    stats
}
