//! The trainer step through the facade: the flat DLRM kernels run here in
//! tier-1, at the `train_rm1` workload's settings (Transformer pooling,
//! embedding dimension 64) and through a real SGD loop.

use recd::core::{ConvertedBatch, DataLoaderConfig, FeatureConverter};
use recd::data::{ColumnarBatch, Schema};
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::etl::cluster_by_session;
use recd::trainer::{bce_loss, Dlrm, DlrmConfig, ExecutionMode, PoolingKind};

/// The first 96 rows of a session-clustered Tiny partition, deduplicated.
fn clustered_batch() -> (Schema, ConvertedBatch) {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let mut rows = cluster_by_session(&partition.samples);
    rows.truncate(96);
    let schema = partition.schema;
    let rows = ColumnarBatch::from_samples(&rows, schema.dense_count(), schema.sparse_count());
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&schema));
    let batch = converter.convert_columnar(&rows).unwrap();
    assert!(batch.dedupe_factor() > 1.5, "clustered rows share slots");
    (schema, batch)
}

/// The benchmark's model shape with smaller tables: initialising 4 096 rows
/// per feature is most of a debug-build test's time.
fn config(schema: &Schema, sequence_pooling: PoolingKind) -> DlrmConfig {
    let mut config = DlrmConfig::from_schema(schema, 64, sequence_pooling);
    config.hash_buckets = 512;
    config
}

#[test]
fn transformer_pooling_agrees_across_execution_modes_at_dim_64() {
    let (schema, batch) = clustered_batch();
    let mut model = Dlrm::new(config(&schema, PoolingKind::Transformer));
    let (dedup, dedup_stats) = model.forward(&batch, ExecutionMode::Deduplicated);
    let (baseline, baseline_stats) = model.forward(&batch, ExecutionMode::Baseline);
    assert_eq!(dedup.len(), batch.batch_size);
    // A copied pooled vector and carried-over scores have the bits of
    // pooling afresh, which Baseline mode does for every row.
    for (row, (a, b)) in dedup.iter().zip(&baseline).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {row}: {a} vs {b}");
    }
    // These rows hold slots of a two-feature dedup group whose lists for one
    // feature repeat the previous slot's while the other feature's differ.
    assert!(dedup_stats.copied_units > 0, "{dedup_stats:?}");
    assert_eq!(baseline_stats.copied_units, 0);
    assert!(dedup_stats.pooling_flops < baseline_stats.pooling_flops);
    assert!(dedup_stats.emb_lookups < baseline_stats.emb_lookups);
    assert_eq!(dedup_stats.mlp_flops, baseline_stats.mlp_flops);
}

#[test]
fn a_batch_packed_into_windows_trains_to_the_bits_of_the_contiguous_one() {
    let (schema, contiguous) = clustered_batch();
    let mut packed = contiguous.clone();
    packed.ikjts.iter_mut().for_each(|ikjt| ikjt.pack_windows());
    let windowed = packed.ikjts.iter().flat_map(|ikjt| ikjt.iter());
    assert!(windowed.filter(|(_, t)| t.is_windowed()).count() > 0);
    assert!(packed.sparse_payload_bytes() < contiguous.sparse_payload_bytes());

    let config = config(&schema, PoolingKind::Transformer);
    for mode in [ExecutionMode::Deduplicated, ExecutionMode::Baseline] {
        let (mut a, mut b) = (Dlrm::new(config.clone()), Dlrm::new(config.clone()));
        let (from_windows, windows_stats) = a.forward(&packed, mode);
        let (from_rows, rows_stats) = b.forward(&contiguous, mode);
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&from_windows), bits(&from_rows), "{mode:?}");
        assert_eq!(windows_stats, rows_stats, "{mode:?}");
        let loss = a.train_step(&packed, mode);
        assert_eq!(loss.to_bits(), b.train_step(&contiguous, mode).to_bits());
    }
}

#[test]
fn ten_train_steps_with_sum_pooling_lower_the_loss() {
    let (schema, batch) = clustered_batch();
    let config = config(&schema, PoolingKind::Sum);
    let mut model = Dlrm::new(config);
    let losses: Vec<f32> = (0..10)
        .map(|_| model.train_step(&batch, ExecutionMode::Deduplicated))
        .collect();
    assert!(losses.iter().all(|loss| loss.is_finite()), "{losses:?}");
    assert!(losses[9] < losses[0], "{losses:?}");
}

/// A Tiny partition, session-clustered, in 64-row batches: IKJT-converted
/// when `dedup`, KJT-converted otherwise.
fn converted_batches(dedup: bool) -> (Schema, Vec<ConvertedBatch>) {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let clustered = cluster_by_session(&partition.samples);
    let schema = partition.schema;
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&schema));
    let batches = clustered
        .chunks(64)
        .map(|rows| {
            let rows =
                ColumnarBatch::from_samples(rows, schema.dense_count(), schema.sparse_count());
            if dedup {
                converter.convert_columnar(&rows).unwrap()
            } else {
                converter.convert_columnar_baseline(&rows).unwrap()
            }
        })
        .collect();
    (schema, batches)
}

/// Two epochs over `batches` in `mode` from a fresh model: every step's
/// loss, then the mean BCE over the same batches.
fn train_and_evaluate(
    schema: &Schema,
    batches: &[ConvertedBatch],
    mode: ExecutionMode,
) -> (Vec<f32>, f32) {
    let mut model = Dlrm::new(DlrmConfig::from_schema(schema, 8, PoolingKind::Sum));
    let mut losses = Vec::new();
    for _ in 0..2 {
        for batch in batches {
            losses.push(model.train_step(batch, mode));
        }
    }
    let (mut total, mut count) = (0.0f32, 0usize);
    for batch in batches {
        let (probs, _) = model.forward(batch, mode);
        for (p, &label) in probs.iter().zip(&batch.labels) {
            total += bce_loss(*p, label);
            count += 1;
        }
    }
    (losses, total / count as f32)
}

#[test]
fn dedup_and_baseline_training_converge_identically() {
    // The paper's accuracy claim: IKJTs encode the same data, so training
    // on deduplicated batches matches training on baseline batches, batch
    // after batch and epoch after epoch.
    let (schema, dedup_batches) = converted_batches(true);
    let (_, baseline_batches) = converted_batches(false);
    assert!(dedup_batches.len() > 1, "several batches");
    let (dedup_losses, dedup_eval) =
        train_and_evaluate(&schema, &dedup_batches, ExecutionMode::Deduplicated);
    let (baseline_losses, baseline_eval) =
        train_and_evaluate(&schema, &baseline_batches, ExecutionMode::Baseline);
    assert_eq!(dedup_losses.len(), baseline_losses.len());
    for (a, b) in dedup_losses.iter().zip(&baseline_losses) {
        assert!((a - b).abs() < 1e-3, "loss curves must match: {a} vs {b}");
    }
    assert!((dedup_eval - baseline_eval).abs() < 1e-3);
}
