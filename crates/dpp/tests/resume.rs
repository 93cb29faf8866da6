//! Exactly-once checkpoint/resume of the continuous feed path: a service
//! crash-restarted from a [`DppCheckpoint`] and fed an **at-least-once
//! replay** of the partition stream must emit, across both incarnations,
//! exactly the batches of an uninterrupted run — byte for byte.

use recd_core::DataLoaderConfig;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{
    DppCheckpoint, DppConfig, DppReport, DppService, ShardPolicy, TrainerAssignPolicy, TrainerBatch,
};
use recd_etl::cluster_by_session;
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;

const SHARDS: usize = 4;

struct Fixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    /// Four hourly partitions of deliberately uneven file counts.
    partitions: Vec<StoredPartition>,
}

fn fixture() -> Fixture {
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let samples = cluster_by_session(&partition.samples);
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 8, 1));
    // Uneven slice sizes: with 8-row files, hours 0–1 span ceil(33/8) +
    // ceil(40/8) = 10 files, not a multiple of the shard count. Every
    // partition closes with a barrier, which restarts the FileRoundRobin
    // rotation, so the resumed run needs no rotation state to continue.
    let n = samples.len();
    assert!(n >= 120, "Tiny preset must provide enough rows");
    let cuts = [0, 33, 73, (73 + n) / 2, n];
    let mut partitions = Vec::new();
    for hour in 0..4 {
        let (stored, _) = store.land_partition(
            &partition.schema,
            "events",
            hour as u64,
            &samples[cuts[hour]..cuts[hour + 1]],
        );
        partitions.push(stored);
    }
    Fixture {
        schema: partition.schema,
        store,
        partitions,
    }
}

fn config(f: &Fixture) -> DppConfig {
    DppConfig::new(ReaderConfig::new(
        32,
        DataLoaderConfig::from_schema(&f.schema),
    ))
    .with_policy(ShardPolicy::FileRoundRobin)
    .with_shards(SHARDS)
    .with_fill_workers(2)
    .with_compute_workers(2)
    .with_trainers(1)
    .with_assign_policy(TrainerAssignPolicy::ShardPinned)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

/// Ingests `parts` into a running handle (flushing at every partition
/// boundary), optionally checkpoints, and drains the single trainer lane.
fn drive(
    mut handle: recd_dpp::DppHandle,
    parts: &[StoredPartition],
    checkpoint_after: bool,
) -> (Vec<TrainerBatch>, Option<DppCheckpoint>, DppReport) {
    let trainer = handle.take_trainers().remove(0);
    let consumer = std::thread::spawn(move || trainer.drain());
    for part in parts {
        handle.ingest_partition(part);
        assert!(handle.flush_partition(), "barrier must resolve");
    }
    let checkpoint = checkpoint_after.then(|| handle.checkpoint());
    let report = handle.finish().expect("clean run").report;
    (
        consumer.join().expect("trainer consumer"),
        checkpoint,
        report,
    )
}

/// Splits delivered batches per shard, in per-shard sequence order.
fn by_shard(mut batches: Vec<TrainerBatch>) -> Vec<Vec<TrainerBatch>> {
    batches.sort_by_key(|t| (t.shard, t.seq));
    let mut shards: Vec<Vec<TrainerBatch>> = (0..SHARDS).map(|_| Vec::new()).collect();
    for item in batches {
        shards[item.shard].push(item);
    }
    shards
}

#[test]
fn crash_replay_resume_is_byte_identical_and_exactly_once() {
    let f = fixture();
    let files_before_crash: usize = f.partitions[..2].iter().map(|p| p.files.len()).sum();

    // The uninterrupted reference run over all four hourly partitions.
    let reference = DppService::start(config(&f), Arc::clone(&f.store), f.schema.clone());
    let (ref_batches, _, ref_report) = drive(reference, &f.partitions, false);
    assert!(
        ref_batches.len() >= 8,
        "reference must emit several batches"
    );

    // First incarnation: consumes hours 0–1, checkpoints at the barrier
    // boundary, then "crashes" (finish stands in for the teardown).
    let first = DppService::start(config(&f), Arc::clone(&f.store), f.schema.clone());
    let (first_batches, checkpoint, first_report) = drive(first, &f.partitions[..2], true);
    assert_eq!(first_report.partitions_ingested, 2);
    assert_eq!(first_report.duplicate_ingests, 0);

    let checkpoint = checkpoint.expect("checkpoint taken");
    assert_eq!(checkpoint.files_routed as usize, files_before_crash);
    assert_eq!(checkpoint.ingested.len(), 2);

    // Second incarnation: resumed from the checkpoint and fed an
    // at-least-once replay of the *entire* stream. Hours 0–1 must dedup;
    // hours 2–3 must continue each shard's stream where the crash left it.
    let resumed = DppService::resume(
        config(&f),
        Arc::clone(&f.store),
        f.schema.clone(),
        checkpoint,
    );
    let (resumed_batches, _, resumed_report) = drive(resumed, &f.partitions, false);
    assert_eq!(
        resumed_report.duplicate_ingests, 2,
        "replayed hours 0-1 must be skipped by dedup"
    );
    assert_eq!(
        resumed_report.partitions_ingested, 4,
        "cumulative ingest accounting continues across the crash"
    );

    // Exactly-once payload: per shard, the reference stream must equal the
    // first incarnation's stream followed by the resumed one's, byte for
    // byte.
    let ref_shards = by_shard(ref_batches);
    let first_shards = by_shard(first_batches);
    let resumed_shards = by_shard(resumed_batches);
    let mut union_total = 0usize;
    for shard in 0..SHARDS {
        let combined: Vec<_> = first_shards[shard]
            .iter()
            .chain(&resumed_shards[shard])
            .collect();
        union_total += combined.len();
        assert_eq!(
            combined.len(),
            ref_shards[shard].len(),
            "shard {shard}: batch count must match the uninterrupted run"
        );
        for (i, (got, want)) in combined.iter().zip(&ref_shards[shard]).enumerate() {
            assert_eq!(
                got.batch, want.batch,
                "shard {shard}: batch {i} diverged from the uninterrupted run"
            );
        }
    }
    assert_eq!(union_total, ref_report.batches);
}

#[test]
fn duplicate_ingest_is_skipped_within_a_single_run() {
    let f = fixture();
    let mut handle = DppService::start(config(&f), Arc::clone(&f.store), f.schema.clone());
    let trainer = handle.take_trainers().remove(0);
    let consumer = std::thread::spawn(move || trainer.drain());
    assert!(handle.ingest_partition(&f.partitions[0]));
    assert!(
        !handle.ingest_partition(&f.partitions[0]),
        "second offer of the same partition must be refused"
    );
    assert!(handle.flush_partition());
    let snapshot = handle.snapshot();
    assert_eq!(snapshot.partitions_ingested, 1);
    assert_eq!(snapshot.duplicate_ingests, 1);
    let report = handle.finish().expect("clean run").report;
    let consumed = consumer.join().expect("trainer consumer");
    assert_eq!(report.duplicate_ingests, 1);
    assert_eq!(consumed.len(), report.batches, "no duplicated payload");
}
