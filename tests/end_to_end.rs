//! Cross-crate integration tests: the full pipeline (data generation →
//! Scribe → ETL → storage → readers → trainer model) run through the public
//! facade, with every RecD optimization toggled.

use recd::core::{DataLoaderConfig, FeatureConverter};
use recd::data::ColumnarBatch;
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::etl::cluster_by_session;
use recd::pipeline::experiments::{self, ExperimentScale};
use recd::pipeline::{PipelineRunner, RecdConfig, RmPreset};
use recd::trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};

/// The headline end-to-end claim: enabling RecD improves storage efficiency,
/// reader efficiency, and modeled trainer throughput at the same time, on
/// the same data.
#[test]
fn recd_improves_every_pipeline_stage() {
    let spec = RmPreset::Rm1.spec().scaled_down(50);
    let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(128);
    let recd = PipelineRunner::new(spec, RecdConfig::full()).run(128);
    let b = &baseline.report;
    let r = &recd.report;

    assert_eq!(b.samples, r.samples);
    assert!(r.scribe.compression_ratio > b.scribe.compression_ratio);
    assert!(r.storage.compression_ratio() > b.storage.compression_ratio());
    assert!(r.storage.stored_bytes < b.storage.stored_bytes);
    assert!(r.read_bytes < b.read_bytes);
    assert!(r.egress_bytes < b.egress_bytes);
    assert!(r.dedupe_factor > 1.2);
    assert!(r.trainer.throughput > b.trainer.throughput);
    assert!(r.trainer.breakdown.a2a_exposed <= b.trainer.breakdown.a2a_exposed);
    assert!(r.memory.max_utilization < b.memory.max_utilization);
}

/// The RM presets preserve the paper's cross-model ordering: RM1 (long
/// sequence features, transformer pooling, several IKJT groups) gains the
/// most from RecD.
#[test]
fn rm1_gains_the_most_like_the_paper() {
    let report = experiments::fig7(ExperimentScale::Smoke);
    assert_eq!(report.rows.len(), 3);
    let rm1 = &report.rows[0];
    let rm2 = &report.rows[1];
    let rm3 = &report.rows[2];
    assert_eq!(rm1.rm, "RM1");
    // Every RM improves on every axis.
    for row in &report.rows {
        assert!(row.trainer_speedup > 1.0, "{row:?}");
        assert!(row.reader_speedup > 1.0, "{row:?}");
        assert!(row.storage_improvement > 1.0, "{row:?}");
    }
    // RM1 leads on trainer throughput, as in Figure 7.
    assert!(rm1.trainer_speedup >= rm2.trainer_speedup);
    assert!(rm1.trainer_speedup >= rm3.trainer_speedup);
}

/// Figure 8 shape: at equal batch size, RecD's exposed all-to-all time is at
/// most the baseline's, and the total exposed iteration latency shrinks.
#[test]
fn iteration_breakdown_shrinks_at_equal_batch_size() {
    let report = experiments::fig8(ExperimentScale::Smoke);
    for row in &report.rows {
        let baseline_total: f64 = row.baseline.iter().sum();
        let recd_total: f64 = row.recd.iter().sum();
        assert!((baseline_total - 1.0).abs() < 1e-6, "baseline is the unit");
        assert!(recd_total < baseline_total, "{row:?}");
        assert!(
            row.recd[2] <= row.baseline[2] + 1e-9,
            "A2A must not grow: {row:?}"
        );
    }
}

/// Logical equivalence across the whole stack: a batch that traveled through
/// clustering, storage, the deduplicating reader, and the IKJT trainer path
/// predicts exactly what the baseline KJT path predicts.
#[test]
fn dedup_execution_is_logically_identical_end_to_end() {
    let artifacts =
        PipelineRunner::new(RmPreset::Rm2.spec().scaled_down(40), RecdConfig::full()).run(96);
    let batch = artifacts
        .batches
        .iter()
        .find(|b| !b.ikjts.is_empty())
        .expect("at least one deduplicated batch");
    let config = DlrmConfig::from_schema(&artifacts.schema, 16, PoolingKind::Attention);
    let mut model = Dlrm::new(config);
    let (dedup, _) = model.forward(batch, ExecutionMode::Deduplicated);
    let (baseline, _) = model.forward(batch, ExecutionMode::Baseline);
    for (a, b) in dedup.iter().zip(&baseline) {
        assert!((a - b).abs() < 1e-5);
    }
}

/// Reader-facing invariant: conversion and preprocessing never change the
/// logical content of a batch, whatever the table layout was.
#[test]
fn conversion_round_trips_after_clustering() {
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let clustered = cluster_by_session(&partition.samples);
    let rows = &clustered[..100.min(clustered.len())];
    let schema = &partition.schema;
    let batch = ColumnarBatch::from_samples(rows, schema.dense_count(), schema.sparse_count());
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(schema));
    let converted = converter.convert_columnar(&batch).unwrap();
    for ikjt in &converted.ikjts {
        let expanded = ikjt.to_kjt().unwrap();
        for (feature, tensor) in expanded.iter() {
            for (row_idx, sample) in rows.iter().enumerate() {
                assert_eq!(
                    tensor.row(row_idx),
                    sample.sparse[feature.index()].as_slice()
                );
            }
        }
    }
}

/// The experiment harness produces a row for every table and figure.
#[test]
fn experiment_harness_covers_every_artifact() {
    let scale = ExperimentScale::Smoke;
    assert!(!experiments::characterization(scale)
        .report
        .per_feature
        .is_empty());
    assert!(experiments::scribe_compression(scale).session_ratio > 1.0);
    assert_eq!(experiments::table3(scale).rows.len(), 3);
    assert_eq!(experiments::dedupe_factor_sweep(scale).rows.len(), 9);
    let fig9 = experiments::fig9(scale);
    assert_eq!(fig9.rows.len(), 5);
    let table2 = experiments::table2(scale);
    assert_eq!(table2.rows.len(), 4);
    // RecD frees memory relative to the baseline row.
    assert!(table2.rows[1].max_memory_utilization < table2.rows[0].max_memory_utilization);
    let single = experiments::single_node(scale);
    assert!(single.speedup > 1.0);
    let fig10 = experiments::fig10(scale);
    for row in &fig10.rows {
        let recd_total = row.recd.0 + row.recd.1 + row.recd.2;
        assert!(
            recd_total < 1.0 + 1e-9,
            "reader CPU per sample must not grow: {row:?}"
        );
    }
    let table4 = experiments::table4(scale);
    assert_eq!(table4.rows.len(), 6);
}
