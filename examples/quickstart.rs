//! Quickstart: build a small session-centric batch, deduplicate it into
//! IKJTs, inspect the savings, and verify the deduplicated trainer path
//! produces the same predictions as the baseline path.
//!
//! Run with: `cargo run --release --example quickstart`

use recd::core::{DataLoaderConfig, DedupeModel, FeatureConverter};
use recd::data::ColumnarBatch;
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::etl::{cluster_by_session, samples_per_session};
use recd::trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a session-centric workload (the shape of a DLRM dataset).
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let schema = partition.schema.clone();
    println!(
        "generated {} samples from {} sessions ({:.1} samples/session)",
        partition.len(),
        partition.sessions,
        partition.samples_per_session()
    );

    // 2. Cluster by session (RecD O2) so duplicates become adjacent, then
    //    take one training batch.
    let clustered = cluster_by_session(&partition.samples);
    let batch = &clustered[..128.min(clustered.len())];

    // 3. The analytical model says which features are worth deduplicating.
    let model = DedupeModel::new(batch.len(), samples_per_session(batch));
    for estimate in model.estimate_schema(&schema).iter().take(4) {
        println!(
            "  {:>12}: expected DedupeFactor {:.2} (worth it: {})",
            estimate.feature,
            estimate.dedupe_factor,
            estimate.is_worth_deduplicating()
        );
    }

    // 4. Convert the batch: declared dedup groups become IKJTs (RecD O3).
    let columns = ColumnarBatch::from_samples(batch, schema.dense_count(), schema.sparse_count());
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&schema));
    let converted = converter.convert_columnar(&columns)?;
    println!(
        "converted batch: {} logical sparse values stored as {} ({:.2}x dedupe factor)",
        converted.logical_sparse_values(),
        converted.stored_sparse_values(),
        converted.dedupe_factor()
    );

    // 5. Train-side parity: the deduplicated execution path (O5-O7) produces
    //    the same predictions as the baseline path.
    let mut dlrm = Dlrm::new(DlrmConfig::from_schema(&schema, 16, PoolingKind::Attention));
    let (dedup_preds, dedup_stats) = dlrm.forward(&converted, ExecutionMode::Deduplicated);
    let (base_preds, base_stats) = dlrm.forward(&converted, ExecutionMode::Baseline);
    let max_diff = dedup_preds
        .iter()
        .zip(&base_preds)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "forward parity: max |p_dedup - p_baseline| = {max_diff:.2e}; \
         EMB lookups {} -> {}, pooling FLOPs {} -> {}",
        base_stats.emb_lookups,
        dedup_stats.emb_lookups,
        base_stats.pooling_flops,
        dedup_stats.pooling_flops
    );
    Ok(())
}
