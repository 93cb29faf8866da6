//! `DppHandle::flush_partition` coverage: interleaved submits and flushes
//! must deliver every pre-flush batch to a trainer endpoint before the call
//! returns, partial shard accumulators must flush as short batches, and the
//! idle / already-drained edge cases must return immediately.

use recd_core::DataLoaderConfig;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{DppConfig, DppService, ShardPolicy, TrainerAssignPolicy};
use recd_etl::cluster_by_session;
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;

mod common;
use common::Drain;

struct Fixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    partition: StoredPartition,
    rows: usize,
}

fn fixture() -> Fixture {
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let samples = cluster_by_session(&partition.samples);
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 16, 1));
    let (stored, _) = store.land_partition(&partition.schema, "t", 0, &samples);
    Fixture {
        schema: partition.schema,
        store,
        partition: stored,
        rows: samples.len(),
    }
}

fn config(f: &Fixture) -> DppConfig {
    DppConfig::new(ReaderConfig::new(
        64,
        DataLoaderConfig::from_schema(&f.schema),
    ))
    .with_policy(ShardPolicy::SessionAffine)
    .with_shards(3)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

/// Interleaved submits and flushes over two lanes: when each
/// `flush_partition` returns, every sample submitted before it has been
/// delivered onto some trainer lane — no batch from a flushed partition is
/// still in flight.
#[test]
fn every_pre_flush_batch_is_delivered_before_flush_returns() {
    let f = fixture();
    let config = config(&f)
        .with_trainers(2)
        .with_assign_policy(TrainerAssignPolicy::ShardPinned);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    // Trainers must keep consuming while a flush waits (a full lane cannot
    // accept the flushed batches).
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain().len()))
        .collect();

    let snapshot_source = handle.snapshot_source();
    for round in 1..=3 {
        handle.submit_partition(&f.partition);
        assert!(handle.flush_partition(), "flush must complete");
        let snapshot = snapshot_source.snapshot();
        let delivered: u64 = snapshot.trainers.iter().map(|t| t.delivered_samples).sum();
        assert_eq!(
            delivered as usize,
            round * f.rows,
            "round {round}: every pre-flush sample must already sit at a trainer endpoint"
        );
        // The flush cut partial accumulators, so the routed/emitted totals
        // agree exactly — nothing is stranded mid-pipeline.
        assert_eq!(snapshot.samples, round * f.rows);
    }

    let output = handle.finish().expect("clean run");
    let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(consumed, output.report.batches);
    // One barrier per flush crossed the phase pipeline, and at least one
    // shard accumulator held a partial batch when it did.
    assert_eq!(output.report.reader_metrics.barrier_flushes, 3);
    assert!(output.report.reader_metrics.flushed_partial_batches > 0);
}

/// The same guarantee on the default single lane, and the cut itself: the
/// barrier resolves once everything emitted before it sits on the lane, and
/// the partial batches it cuts outnumber the unflushed stream's.
#[test]
fn flush_on_one_lane_cuts_partial_batches() {
    let f = fixture();
    let mut handle = DppService::start(config(&f), Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    handle.submit_partition(&f.partition);
    assert!(handle.flush_partition());
    let mid = handle.snapshot();
    assert_eq!(mid.samples, f.rows);

    // A second partition after the flush: its rows land in fresh batches.
    handle.submit_partition(&f.partition);
    let (flushed, output) = drain.finish(handle);
    assert_eq!(output.expect("clean run").report.samples, 2 * f.rows);
    assert_eq!(
        flushed.iter().map(|b| b.batch_size).sum::<usize>(),
        2 * f.rows
    );

    // Without any flush the same stream coalesces across the partition
    // boundary, so the flushed run has at least as many (shorter) batches.
    let mut unflushed = DppService::start(config(&f), Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut unflushed);
    unflushed.submit_partition(&f.partition);
    unflushed.submit_partition(&f.partition);
    let (baseline, output) = drain.finish(unflushed);
    output.expect("clean run");
    assert!(
        flushed.len() > baseline.len(),
        "a mid-stream flush must cut partial batches ({} vs {})",
        flushed.len(),
        baseline.len()
    );
}

/// Edge cases: flushing an idle service (nothing ever submitted), flushing
/// twice in a row, and flushing after everything already drained must all
/// return promptly and truthfully.
#[test]
fn flush_while_idle_and_after_drain_return_immediately() {
    let f = fixture();
    let config = config(&f).with_trainers(2);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain().len()))
        .collect();

    // Flush-while-idle: no work was ever submitted.
    assert!(handle.flush_partition(), "idle flush must complete");
    assert!(
        handle.flush_partition(),
        "repeated idle flush must complete"
    );
    assert_eq!(handle.snapshot().samples, 0);

    // Flush after the stream already drained: the barrier crosses an empty
    // pipeline.
    handle.submit_partition(&f.partition);
    assert!(handle.flush_partition());
    // Everything is already delivered; a second flush has nothing to wait
    // for and a third keeps the invariant.
    assert!(handle.flush_partition());
    assert!(handle.flush_partition());
    let snapshot = handle.snapshot();
    let delivered: u64 = snapshot.trainers.iter().map(|t| t.delivered_samples).sum();
    assert_eq!(delivered as usize, f.rows);

    let output = handle.finish().expect("clean run");
    let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(consumed, output.report.batches);
    // Five barriers crossed; only the post-submit one found partial
    // accumulators to cut.
    assert_eq!(output.report.reader_metrics.barrier_flushes, 5);
}

/// A conversion failure must not leave a hole in a shard's sequence stream:
/// the skip marker keeps the resequencer's cursor moving, so a flush over an
/// all-errors run still returns, the drain completes, and the errors are
/// reported — nothing hangs and nothing panics.
#[test]
fn conversion_errors_do_not_wedge_the_resequencer_or_flush() {
    let f = fixture();
    // Every conversion fails: the dataloader names one feature both as a
    // plain KJT feature and inside a dedup group.
    let broken = recd_core::DataLoaderConfig::new()
        .with_kjt_features([recd_data::FeatureId::new(0)])
        .with_dedup_group([recd_data::FeatureId::new(0)]);
    let config = DppConfig::new(ReaderConfig::new(64, broken))
        .with_policy(ShardPolicy::SessionAffine)
        .with_shards(3)
        .with_trainers(2);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain().len()))
        .collect();
    handle.submit_partition(&f.partition);
    // The barrier's cuts cover sequence slots that all failed; the skip
    // markers must satisfy them.
    assert!(
        handle.flush_partition(),
        "flush must resolve across error holes"
    );
    let err = handle.finish().expect_err("all conversions failed");
    assert!(!err.errors.is_empty());
    assert!(err.errors.iter().all(|e| e.contains("convert")));
    assert_eq!(err.output.report.samples, 0);
    let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(consumed, 0, "no batch survives an all-errors run");
}
