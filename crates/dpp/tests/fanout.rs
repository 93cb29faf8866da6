//! Fan-out sink determinism tests: for every [`TrainerAssignPolicy`] the
//! multiset union of batches across all trainer endpoints must be
//! byte-identical to the one-lane baseline, `ShardPinned` must never split
//! one shard across trainers, and per-trainer flow control must keep lanes
//! bounded while routing around a stalled trainer.

use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{DppConfig, DppService, ShardPolicy, TrainerAssignPolicy, TrainerBatch};
use recd_etl::cluster_by_session;
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
    // Small stripes so the partition spans many files and the pipeline
    // actually streams.
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 16, 1));
    let (stored, _) = store.land_partition(&partition.schema, "t", 0, &samples);
    assert!(stored.files.len() >= 4, "fixture must span several files");
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
    .with_shards(4)
    .with_fill_workers(2)
    .with_compute_workers(2)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

/// One-lane baseline in `(shard, seq)` order, the canonical ordering the
/// fan-out union is compared against.
fn baseline(f: &Fixture, rounds: usize) -> Vec<ConvertedBatch> {
    let mut handle = DppService::start(config(f), Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    for _ in 0..rounds {
        handle.submit_partition(&f.partition);
    }
    let (batches, output) = drain.finish(handle);
    output.expect("clean baseline run");
    batches
}

/// Runs a fan-out service with one draining consumer thread per trainer and
/// returns every delivered batch (with provenance) plus the run report.
fn run_fan_out(
    f: &Fixture,
    trainers: usize,
    policy: TrainerAssignPolicy,
    rounds: usize,
) -> (Vec<Vec<TrainerBatch>>, recd_dpp::DppReport) {
    let config = config(f).with_trainers(trainers).with_assign_policy(policy);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain()))
        .collect();
    for _ in 0..rounds {
        handle.submit_partition(&f.partition);
    }
    let report = handle.finish().expect("clean fan-out run").report;
    let per_trainer: Vec<Vec<TrainerBatch>> = consumers
        .into_iter()
        .map(|c| c.join().expect("trainer consumer"))
        .collect();
    (per_trainer, report)
}

/// The acceptance criterion: under every assignment policy, the union of
/// batches across 4 trainer endpoints — re-sorted into the canonical
/// `(shard, seq)` order — is byte-identical to the one-lane baseline.
#[test]
fn fan_out_union_is_byte_identical_to_one_lane_for_every_policy() {
    let f = fixture();
    let expected = baseline(&f, 2);
    assert!(expected.len() >= 8, "baseline must produce several batches");

    for policy in [
        TrainerAssignPolicy::ShardPinned,
        TrainerAssignPolicy::LeastLoaded,
    ] {
        let (per_trainer, report) = run_fan_out(&f, 4, policy, 2);
        assert_eq!(report.assign_policy, policy.name());

        let mut union: Vec<TrainerBatch> = per_trainer.into_iter().flatten().collect();
        assert_eq!(
            union.len(),
            expected.len(),
            "{}: union batch count must match the baseline",
            policy.name()
        );
        // Each shard's stream must arrive gap-free: seqs 0..n per shard.
        union.sort_by_key(|t| (t.shard, t.seq));
        let mut next = vec![0u64; report.shards];
        for item in &union {
            assert_eq!(
                item.seq,
                next[item.shard],
                "{}: shard {} stream has a gap or duplicate",
                policy.name(),
                item.shard
            );
            next[item.shard] += 1;
        }
        // Canonical order restored, the union must be byte-identical.
        for (i, (got, want)) in union.iter().zip(&expected).enumerate() {
            assert_eq!(
                &got.batch,
                want,
                "{}: batch {i} diverged from the one-lane baseline",
                policy.name()
            );
        }
        // Delivery accounting agrees with the payload.
        let delivered: u64 = report.trainers.iter().map(|t| t.delivered_samples).sum();
        assert_eq!(delivered as usize, 2 * f.rows);
        assert!(report.trainers.iter().all(|t| t.dropped_batches == 0));
    }
}

/// `ShardPinned` must never deliver one shard's rows to two trainers, and
/// the pinning must be the documented `shard % trainers` map.
#[test]
fn shard_pinned_never_splits_a_shard_across_trainers() {
    let f = fixture();
    let trainers = 3;
    let (per_trainer, report) = run_fan_out(&f, trainers, TrainerAssignPolicy::ShardPinned, 2);
    assert_eq!(report.shards, 4);
    let mut shard_owner: Vec<Option<usize>> = vec![None; report.shards];
    for (trainer, batches) in per_trainer.iter().enumerate() {
        for item in batches {
            assert_eq!(item.trainer, trainer, "lane must stamp its own id");
            assert_eq!(
                item.shard % trainers,
                trainer,
                "shard {} must be pinned to trainer {}",
                item.shard,
                item.shard % trainers
            );
            match shard_owner[item.shard] {
                None => shard_owner[item.shard] = Some(trainer),
                Some(owner) => assert_eq!(
                    owner, trainer,
                    "shard {} delivered to two trainers",
                    item.shard
                ),
            }
        }
    }
    assert!(
        shard_owner.iter().filter(|o| o.is_some()).count() >= 2,
        "fixture must exercise several shards"
    );
}

/// Per-trainer flow control: lanes stay bounded, and with `LeastLoaded` a
/// trainer that refuses to consume until the end only absorbs its bounded
/// backlog (lane capacity plus spillover) while the healthy trainers keep
/// streaming the rest.
#[test]
fn stalled_trainer_keeps_its_lane_bounded_without_wedging_the_service() {
    let f = fixture();
    let lane_depth = 2;
    let config = config(&f)
        .with_trainers(3)
        .with_assign_policy(TrainerAssignPolicy::LeastLoaded)
        .with_trainer_queue_depth(lane_depth);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let mut trainers = handle.take_trainers();
    let stalled = trainers.remove(0);
    // Each consumer reports what it drained and its handle's own consumed
    // count, read after its last recv.
    let healthy: Vec<_> = trainers
        .into_iter()
        .map(|trainer| {
            std::thread::spawn(move || (trainer.drain().len(), trainer.consumed_batches()))
        })
        .collect();
    // The stalled trainer consumes nothing until the main thread releases
    // it, before finish().
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let stalled_thread = std::thread::spawn(move || {
        release_rx.recv().expect("release signal");
        let drained = stalled.drain();
        (
            drained.len(),
            stalled.consumed_batches(),
            stalled.peak_queue_depth(),
        )
    });
    let rounds = 6;
    for _ in 0..rounds {
        handle.submit_partition(&f.partition);
    }
    // finish() flushes the shards' partial batches, so it runs on its own
    // thread while this one holds the stall until every batch has been
    // computed and handed to the sink: the share asserted below then
    // measures routing, not how much of the stream was still in flight at
    // the release. The healthy lanes take the stalled lane's overflow, so
    // the stream keeps moving. The sleep only paces the polling.
    let source = handle.snapshot_source();
    let finisher = std::thread::spawn(move || handle.finish().expect("clean run"));
    let samples = (rounds * f.rows) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = source.snapshot();
        if s.samples as u64 == samples && s.output_queue_depth == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the stream stopped: {s:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    release_tx.send(()).expect("stalled trainer alive");
    let report = finisher.join().expect("finish thread");
    let mut lane_consumed = Vec::new();
    let mut healthy_batches = 0;
    for consumer in healthy {
        let (drained, consumed) = consumer.join().unwrap();
        healthy_batches += drained;
        lane_consumed.push(consumed);
    }
    let (stalled_batches, stalled_consumed, stalled_peak) = stalled_thread.join().unwrap();
    lane_consumed.insert(0, stalled_consumed);

    let total = report.report.batches;
    assert_eq!(stalled_batches + healthy_batches, total, "nothing lost");
    assert!(
        stalled_peak <= lane_depth,
        "stalled lane must stay within its bounded capacity"
    );
    // LeastLoaded steers around the full lane: the stalled trainer receives
    // at most its lane capacity plus the shared spillover, far below an even
    // split of a long run.
    assert!(
        total > 12,
        "run must be long enough to make the imbalance meaningful"
    );
    assert!(
        stalled_batches < total / 2,
        "a non-consuming trainer must not receive an even share \
         (stalled {stalled_batches} of {total})"
    );
    let lanes = &report.report.trainers;
    assert!(lanes.iter().all(|l| l.peak_queue_depth <= lane_depth));
    // Once its consumer has joined, every lane has consumed exactly what it
    // was delivered. The report's consumed counts are a snapshot taken at
    // finish(), while the stalled trainer may still be draining, so they
    // can only trail delivery.
    for (lane, consumed) in lanes.iter().zip(&lane_consumed) {
        assert_eq!(*consumed, lane.delivered_batches, "lane {}", lane.trainer);
        assert!(lane.consumed_batches <= lane.delivered_batches);
    }
    assert_eq!(lane_consumed.iter().sum::<u64>() as usize, total);
}

/// Killing a trainer mid-run under `LeastLoaded` must lose no batches: the
/// victim's already-delivered batches are drained before the handle drops,
/// and everything subsequently aimed at the dead lane re-routes to the
/// survivor — the cross-lane union stays byte-identical to the one-lane
/// baseline.
#[test]
fn mid_run_trainer_kill_reroutes_instead_of_dropping() {
    let f = fixture();
    // The baseline must share the run's flush schedule: a barrier flushes
    // partial shard accumulators as short batches, so batch boundaries are a
    // function of (submission order, barrier placement).
    let expected = {
        let mut handle = DppService::start(config(&f), Arc::clone(&f.store), f.schema.clone());
        let drain = Drain::start(&mut handle);
        handle.submit_partition(&f.partition);
        assert!(handle.flush_partition(), "baseline barrier must resolve");
        handle.submit_partition(&f.partition);
        handle.submit_partition(&f.partition);
        let (batches, output) = drain.finish(handle);
        output.expect("clean baseline run");
        batches
    };
    let config = config(&f)
        .with_trainers(2)
        .with_assign_policy(TrainerAssignPolicy::LeastLoaded);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let mut trainers = handle.take_trainers();
    let survivor = trainers.pop().expect("two trainers");
    let victim = trainers.pop().expect("two trainers");

    // Phase 1: one full partition, barrier-delivered into the lanes.
    handle.submit_partition(&f.partition);
    assert!(handle.flush_partition(), "barrier must resolve");

    // Kill: drain what the victim's lane already holds (those batches count
    // as consumed), then drop the handle. The tombstone lands before the
    // channel closes, so the sink never targets the lane again.
    let mut union: Vec<TrainerBatch> = Vec::new();
    while let Some(item) = victim.try_recv() {
        union.push(item);
    }
    drop(victim);

    // Phase 2: everything else must flow to the survivor.
    let consumer = std::thread::spawn(move || survivor.drain());
    handle.submit_partition(&f.partition);
    handle.submit_partition(&f.partition);
    let report = handle.finish().expect("clean run").report;
    union.extend(consumer.join().expect("survivor consumer"));

    assert_eq!(
        union.len(),
        expected.len(),
        "no batch may be lost to the killed trainer"
    );
    assert!(
        report.trainers.iter().all(|t| t.dropped_batches == 0),
        "every batch must re-route, not drop"
    );
    union.sort_by_key(|t| (t.shard, t.seq));
    for (i, (got, want)) in union.iter().zip(&expected).enumerate() {
        assert_eq!(
            &got.batch, want,
            "batch {i} diverged from the one-lane baseline"
        );
    }
}

/// One stalled trainer must not stop the others. All three lanes start
/// gated and the feed overflows the spillover; then only lanes 1 and 2 are
/// released. Under `LeastLoaded` the batches parked for lane 0 move to the
/// lanes that drain, so a flush returns while lane 0 is still held.
#[test]
fn a_stalled_lane_does_not_hold_a_flush_under_least_loaded() {
    let f = fixture();
    let (lanes, lane_depth, queue_depth) = (3, 1, 2);
    // One compute worker hands batches to the sink in sequence order, so
    // nothing waits in its reorder buffer: the sink has taken in every
    // counted batch except those in the output queue and at most one
    // blocked on it.
    let config = config(&f)
        .with_compute_workers(1)
        .with_queue_depth(queue_depth)
        .with_trainers(lanes)
        .with_assign_policy(TrainerAssignPolicy::LeastLoaded)
        .with_trainer_queue_depth(lane_depth);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let source = handle.snapshot_source();
    let mut gates = Vec::new();
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| {
            let (open, gate) = mpsc::channel::<()>();
            gates.push(open);
            std::thread::spawn(move || {
                gate.recv().expect("gate opens");
                trainer.drain().len()
            })
        })
        .collect();
    let rounds = 8;
    let partition = f.partition.clone();
    let (flushed_tx, flushed) = mpsc::channel();
    let feeder = std::thread::spawn(move || {
        for _ in 0..rounds {
            handle.submit_partition(&partition);
        }
        flushed_tx
            .send(handle.flush_partition())
            .expect("test alive");
        handle
    });

    // The lanes hold `lanes * lane_depth` batches and the spillover as
    // many again; one more overflows it.
    let overflow = (2 * lanes * lane_depth + 1) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = source.snapshot();
        let taken_in = (s.batches as u64).saturating_sub(s.output_queue_depth as u64 + 1);
        if taken_in >= overflow {
            break;
        }
        assert!(Instant::now() < deadline, "the spillover never overflowed");
        std::thread::yield_now();
    }
    gates[1].send(()).expect("lane 1 consumer alive");
    gates[2].send(()).expect("lane 2 consumer alive");
    let flushed = flushed
        .recv_timeout(Duration::from_secs(60))
        .expect("the flush must return while lane 0 is held");
    assert!(flushed, "the barrier must resolve");
    let held = source.snapshot();
    let delivered: u64 = held.trainers.iter().map(|t| t.delivered_samples).sum();
    assert_eq!(
        delivered as usize,
        rounds * f.rows,
        "every sample delivered"
    );
    assert_eq!(held.trainers[0].consumed_batches, 0, "lane 0 is still held");
    assert_eq!(held.trainers[0].delivered_batches, lane_depth as u64);

    gates[0].send(()).expect("lane 0 consumer alive");
    let report = feeder.join().expect("feeder").finish().expect("clean run");
    let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(consumed, report.report.batches);
}

/// A trainer that drops its handle outright must not attract traffic under
/// `LeastLoaded`: its frozen-empty lane would otherwise win every
/// lowest-load tie and swallow the whole stream while live trainers starve.
#[test]
fn least_loaded_routes_around_a_dead_trainer() {
    let f = fixture();
    let config = config(&f)
        .with_trainers(2)
        .with_assign_policy(TrainerAssignPolicy::LeastLoaded);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let mut trainers = handle.take_trainers();
    let survivor = trainers.pop().expect("two trainers");
    drop(trainers); // trainer 0 dies before the run starts
    let consumer =
        std::thread::spawn(move || (survivor.drain().len(), survivor.consumed_batches()));
    for _ in 0..3 {
        handle.submit_partition(&f.partition);
    }
    let report = handle.finish().expect("clean run").report;
    let (drained, consumed) = consumer.join().unwrap();
    assert_eq!(
        drained, report.batches,
        "the live trainer must receive the entire stream"
    );
    assert_eq!(
        report.trainers[0].dropped_batches, 0,
        "nothing should be routed to (and dropped at) the dead lane"
    );
    // Counted on the handle after the consumer joined: the report's
    // consumed count is a snapshot at finish() and may trail.
    assert_eq!(consumed as usize, report.batches);
}
