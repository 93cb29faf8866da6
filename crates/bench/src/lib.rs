//! # recd-bench
//!
//! Benchmark harness for the RecD reproduction.
//!
//! * `src/bin/experiments.rs` — regenerates every table and figure of the
//!   paper's evaluation (run `cargo run --release -p recd-bench --bin
//!   experiments -- all`).
//! * `benches/` — Criterion micro-benchmarks for the hot paths: jagged
//!   tensor operations, the deduplicating feature converter, the codec
//!   stack, pooling modules, and the per-figure cost-model evaluation.
//!
//! The library portion only exposes small helpers shared by the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use recd_core::{ConvertedBatch, DataLoaderConfig, FeatureConverter};
use recd_data::{ColumnarBatch, Sample, Schema};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_etl::cluster_by_session;

/// A ready-to-use benchmark fixture: a clustered batch of samples plus the
/// converters needed to turn it into baseline or deduplicated tensors.
#[derive(Debug)]
pub struct BenchFixture {
    /// Dataset schema.
    pub schema: Schema,
    /// Clustered samples (sessions adjacent).
    pub samples: Vec<Sample>,
    /// Converter producing IKJTs for the schema's dedup groups.
    pub dedup_converter: FeatureConverter,
    /// Converter producing baseline KJT-only batches.
    pub baseline_converter: FeatureConverter,
}

impl BenchFixture {
    /// Builds the standard fixture used across the benches.
    pub fn new(sessions: usize) -> Self {
        let config = WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(sessions);
        let generator = DatasetGenerator::new(config);
        let partition = generator.generate_partition();
        let schema = partition.schema.clone();
        let samples = cluster_by_session(&partition.samples);
        Self {
            dedup_converter: FeatureConverter::new(DataLoaderConfig::from_schema(&schema)),
            baseline_converter: FeatureConverter::new(DataLoaderConfig::baseline_from_schema(
                &schema,
            )),
            schema,
            samples,
        }
    }

    /// The first `batch_size` samples in columnar form (schema-shaped).
    pub fn columnar_batch(&self, batch_size: usize) -> ColumnarBatch {
        ColumnarBatch::from_samples(
            &self.samples[..batch_size.min(self.samples.len())],
            self.schema.dense_count(),
            self.schema.sparse_count(),
        )
    }

    /// A deduplicated converted batch of the given size.
    pub fn dedup_batch(&self, batch_size: usize) -> ConvertedBatch {
        self.dedup_converter
            .convert_columnar(&self.columnar_batch(batch_size))
            .expect("fixture conversion succeeds")
    }

    /// A baseline converted batch of the given size.
    pub fn baseline_batch(&self, batch_size: usize) -> ConvertedBatch {
        self.baseline_converter
            .convert_columnar_baseline(&self.columnar_batch(batch_size))
            .expect("fixture conversion succeeds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_produces_usable_batches() {
        let fixture = BenchFixture::new(40);
        let dedup = fixture.dedup_batch(64);
        let baseline = fixture.baseline_batch(64);
        assert_eq!(dedup.batch_size, baseline.batch_size);
        assert!(!dedup.ikjts.is_empty());
        assert!(baseline.ikjts.is_empty());
        assert!(dedup.stored_sparse_values() < baseline.stored_sparse_values());
    }
}
