//! Cross-crate integration tests: the full pipeline (data generation →
//! Scribe → ETL → storage → readers → trainer model) run through the public
//! facade, with every RecD optimization toggled.

use recd::core::{ConvertedBatch, DataLoaderConfig, FeatureConverter};
use recd::data::ColumnarBatch;
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::dpp::{DppConfig, DppHandle, DppReport, DppService, ShardPolicy};
use recd::etl::{cluster_by_session, EtlJob, TableLayout};
use recd::pipeline::experiments::{self, ExperimentScale};
use recd::pipeline::{PipelineRunner, RecdConfig, RmPreset, RmSpec};
use recd::reader::{ReaderConfig, ReaderMetrics};
use recd::scribe::{ScribeCluster, ScribeConfig, ShardKeyPolicy};
use recd::storage::{StorageReport, TableStore, TectonicSim};
use recd::trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};
use std::sync::Arc;

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
    assert!(r.etl.storage.compression_ratio() > b.etl.storage.compression_ratio());
    assert!(r.etl.storage.stored_bytes < b.etl.storage.stored_bytes);
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
        .map(|b| &b.batch)
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

/// What the hand-built batch pipeline produced.
struct HandBuilt {
    batches: Vec<ConvertedBatch>,
    storage: StorageReport,
    read_bytes: usize,
    reader: ReaderMetrics,
}

/// Drains every trainer lane of `handle` on its own thread while `feed`
/// submits, finishes the service, and returns the delivered batches in
/// `(shard, seq)` order with the service's report.
fn drain(
    mut handle: DppHandle,
    feed: impl FnOnce(&mut DppHandle),
) -> (Vec<ConvertedBatch>, DppReport) {
    let lanes: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|lane| std::thread::spawn(move || lane.drain()))
        .collect();
    feed(&mut handle);
    let report = handle.finish().expect("landed partitions read back").report;
    let mut delivered: Vec<_> = lanes
        .into_iter()
        .flat_map(|lane| lane.join().expect("lane drain"))
        .collect();
    delivered.sort_by_key(|item| (item.shard, item.seq));
    (
        delivered.into_iter().map(|item| item.batch).collect(),
        report,
    )
}

/// The runner's pipeline as it was built by hand before it became one
/// driver run: Scribe, batch `EtlJob`, `land_partition` per hourly
/// partition, then one fresh `DppService` (files round-robin over its
/// default two shards) per landed partition.
fn hand_built(spec: &RmSpec, config: RecdConfig, batch_size: usize) -> HandBuilt {
    let generator = DatasetGenerator::new(spec.sized_workload());
    let schema = generator.schema().clone();
    let (records, _) = generator.generate_logs();
    let policy = if config >= RecdConfig::ClusteredTable {
        ShardKeyPolicy::SessionId
    } else {
        ShardKeyPolicy::RandomRequest
    };
    let mut scribe = ScribeCluster::new(ScribeConfig {
        flush_bytes: 128 * 1024,
        ..ScribeConfig::with_policy(policy)
    });
    scribe.ingest_all(&records);
    scribe.flush();
    let drained = scribe.drain().expect("scribe blocks decode");
    let layout = if config >= RecdConfig::ClusteredTable {
        TableLayout::ClusteredBySession
    } else {
        TableLayout::TimeOrdered
    };
    let store = Arc::new(TableStore::new(TectonicSim::new(8), 64, 4));
    let mut storage = StorageReport::default();
    let mut landed = Vec::new();
    for partition in EtlJob::new(layout).run(&schema, &drained) {
        let (stored, report) = store.land_partition(
            &schema,
            spec.preset.name(),
            partition.hour,
            &partition.samples,
        );
        storage.absorb(&report);
        landed.push(stored);
    }
    store.blob_store().reset_read_counters();
    let dataloader = if config >= RecdConfig::DedupEmb {
        DataLoaderConfig::from_schema(&schema)
    } else {
        DataLoaderConfig::baseline_from_schema(&schema)
    };
    let reader_config = ReaderConfig::new(batch_size, dataloader);
    let (mut batches, mut reader) = (Vec::new(), ReaderMetrics::default());
    for stored in &landed {
        let handle = DppService::start(
            DppConfig::new(reader_config.clone()).with_policy(ShardPolicy::FileRoundRobin),
            Arc::clone(&store),
            schema.clone(),
        );
        let (delivered, report) = drain(handle, |handle| handle.submit_partition(stored));
        reader += report.reader_metrics;
        batches.extend(delivered);
    }
    HandBuilt {
        batches,
        storage,
        read_bytes: store.blob_store().stats().read_bytes,
        reader,
    }
}

/// The work counters of a run, without its timings and barrier counters.
fn work(mut metrics: ReaderMetrics) -> ReaderMetrics {
    for phase in [
        &mut metrics.fill,
        &mut metrics.convert,
        &mut metrics.process,
    ] {
        phase.cpu_nanos = 0;
    }
    metrics.barrier_flushes = 0;
    metrics.flushed_partial_batches = 0;
    metrics
}

/// One driver run reproduces the hand-built batch pipeline: the same
/// batches byte for byte (in `(shard, seq)` rather than partition order),
/// the same bytes landed, read and sent, and the same reader work — for the
/// baseline and for every optimization on.
#[test]
fn one_driver_run_reproduces_the_hand_built_batch_pipeline() {
    let spec = RmPreset::Rm1.spec().scaled_down(60);
    for config in [RecdConfig::baseline(), RecdConfig::full()] {
        let oracle = hand_built(&spec, config, 128);
        let run = PipelineRunner::new(spec.clone(), config).run(128);
        let report = &run.report;

        let mut unmatched = oracle.batches;
        assert_eq!(
            run.batches.len(),
            unmatched.len(),
            "{config:?}: batch count"
        );
        for (i, delivered) in run.batches.iter().enumerate() {
            let at = unmatched
                .iter()
                .position(|b| *b == delivered.batch)
                .unwrap_or_else(|| panic!("{config:?}: batch {i} is not in the oracle's"));
            unmatched.swap_remove(at);
        }

        assert_eq!(report.samples, oracle.reader.samples, "{config:?}");
        assert_eq!(report.etl.storage, oracle.storage, "{config:?}");
        assert_eq!(report.read_bytes, oracle.read_bytes, "{config:?}");
        assert_eq!(
            report.egress_bytes, oracle.reader.egress_bytes,
            "{config:?}"
        );
        assert_eq!(
            work(report.dpp.reader_metrics),
            work(oracle.reader),
            "{config:?}"
        );
    }
}
