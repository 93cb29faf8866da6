//! Fleet control-plane integration tests: the union of trainer batches is
//! byte-identical between the direct single service, a fleet of one, a
//! fleet of four, and a fleet of four under kill/partition/rejoin faults —
//! plus the heartbeat edge cases (flap inside the detection window, a beat
//! exactly at the timeout boundary) and the every-barrier rebalance healing
//! a skew — and a fleet of one reports the same work, lane for lane, as the direct
//! service, since both build and report their trainer lanes with one code.

use recd_core::DataLoaderConfig;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{
    DppConfig, DppFleet, DppReport, DppService, FleetConfig, FleetOutput, ShardPolicy,
    TrainerAssignPolicy, TrainerBatch, TrainerHandle,
};
use recd_etl::cluster_by_session;
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;

/// Global shard count — more shards than any fleet has hosts, so every host
/// owns several and rebalance has something to steal.
const SHARDS: usize = 6;
const TRAINERS: usize = 3;
/// One stored stripe per batch: every full file fills a batch immediately,
/// so mid-interval emissions (and therefore zombie/replay overlap) happen
/// deterministically.
const BATCH: usize = 16;
/// One continuous-pipeline-style pump tick.
const TICK_MS: u64 = 60_000;

struct Fixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    partitions: Vec<StoredPartition>,
}

fn fixture(intervals: usize) -> Fixture {
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let samples = cluster_by_session(&partition.samples);
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 16, 1));
    let partitions: Vec<StoredPartition> = (0..intervals)
        .map(|hour| {
            let (stored, _) = store.land_partition(&partition.schema, "t", hour as u64, &samples);
            stored
        })
        .collect();
    // Every shard must see several files per interval, so faults always
    // have in-flight work to replay.
    assert!(
        partitions[0].files.len() >= 2 * SHARDS,
        "fixture must span at least two files per shard per interval"
    );
    Fixture {
        schema: partition.schema,
        store,
        partitions,
    }
}

fn host_config(schema: &recd_data::Schema) -> DppConfig {
    DppConfig::new(ReaderConfig::new(
        BATCH,
        DataLoaderConfig::from_schema(schema),
    ))
    .with_policy(ShardPolicy::FileRoundRobin)
    .with_shards(SHARDS)
    .with_fill_workers(2)
    .with_compute_workers(2)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

fn fleet_config(schema: &recd_data::Schema, hosts: usize) -> FleetConfig {
    FleetConfig::new(host_config(schema))
        .with_hosts(hosts)
        .with_trainers(TRAINERS)
}

fn spawn_drains(trainers: Vec<TrainerHandle>) -> Vec<std::thread::JoinHandle<Vec<TrainerBatch>>> {
    trainers
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain()))
        .collect()
}

fn canonical(drains: Vec<std::thread::JoinHandle<Vec<TrainerBatch>>>) -> Vec<TrainerBatch> {
    let mut batches: Vec<TrainerBatch> = drains
        .into_iter()
        .flat_map(|drain| drain.join().expect("drain thread"))
        .collect();
    batches.sort_by_key(|b| (b.shard, b.seq));
    batches
}

/// The golden baseline: today's single service, same global rotation, same
/// flush points, shard-pinned lanes.
fn run_direct(f: &Fixture) -> Vec<TrainerBatch> {
    run_direct_with_report(f).0
}

/// [`run_direct`] plus the service's final report.
fn run_direct_with_report(f: &Fixture) -> (Vec<TrainerBatch>, DppReport) {
    let config = host_config(&f.schema)
        .with_trainers(TRAINERS)
        .with_assign_policy(TrainerAssignPolicy::ShardPinned)
        .with_trainer_queue_depth(8);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drains = spawn_drains(handle.take_trainers());
    for partition in &f.partitions {
        assert!(handle.ingest_partition(partition));
        assert!(handle.flush_partition());
    }
    let report = handle.finish().expect("clean direct run").report;
    (canonical(drains), report)
}

/// A fault-free fleet run over the same feed schedule.
fn run_fleet_plain(f: &Fixture, hosts: usize) -> (Vec<TrainerBatch>, FleetOutput) {
    let mut fleet = DppFleet::start(
        fleet_config(&f.schema, hosts),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let drains = spawn_drains(fleet.take_trainers());
    let mut now = 0;
    for partition in &f.partitions {
        now += TICK_MS;
        fleet.tick(now);
        assert!(fleet.ingest_partition(partition));
        assert!(fleet.flush_partition());
    }
    let output = fleet.finish();
    (canonical(drains), output)
}

fn assert_union_identical(golden: &[TrainerBatch], other: &[TrainerBatch], label: &str) {
    assert_eq!(golden.len(), other.len(), "{label}: batch count diverged");
    for (g, o) in golden.iter().zip(other) {
        assert_eq!(
            (g.shard, g.seq),
            (o.shard, o.seq),
            "{label}: batch position diverged"
        );
        assert_eq!(
            g.trainer, o.trainer,
            "{label}: lane assignment diverged at shard {} seq {}",
            g.shard, g.seq
        );
        assert_eq!(
            g.batch, o.batch,
            "{label}: batch payload diverged at shard {} seq {}",
            g.shard, g.seq
        );
    }
}

fn assert_zero_drops(output: &FleetOutput, label: &str) {
    for lane in &output.dpp.trainers {
        assert_eq!(
            lane.dropped_batches, 0,
            "{label}: lane {} dropped batches",
            lane.trainer
        );
    }
}

/// Acceptance criterion: M=1 and M=4 fleets reproduce the direct single
/// service byte for byte, batch for batch, lane for lane.
#[test]
fn fleet_union_matches_direct_service_for_one_and_four_hosts() {
    let f = fixture(3);
    let golden = run_direct(&f);
    assert!(!golden.is_empty(), "fixture must produce batches");

    let (m1, out1) = run_fleet_plain(&f, 1);
    assert_union_identical(&golden, &m1, "fleet M=1");
    assert_zero_drops(&out1, "fleet M=1");
    assert!(out1.errors.is_empty(), "M=1 errors: {:?}", out1.errors);
    assert_eq!(out1.report.forwarded_batches as usize, golden.len());
    assert_eq!(out1.report.duplicate_batches_dropped, 0);
    assert_eq!(out1.report.deaths_detected, 0);

    let (m4, out4) = run_fleet_plain(&f, 4);
    assert_union_identical(&golden, &m4, "fleet M=4");
    assert_zero_drops(&out4, "fleet M=4");
    assert!(out4.errors.is_empty(), "M=4 errors: {:?}", out4.errors);
    assert_eq!(out4.report.forwarded_batches as usize, golden.len());
    assert_eq!(out4.report.hosts_live_at_finish, 4);
    assert_eq!(out4.report.barriers, 3);
    assert!(
        out4.report.heartbeats >= 4 * 3,
        "every tick beats every host"
    );
    // The aggregate report counts unique forwarded work.
    assert_eq!(out4.dpp.batches, golden.len());
    assert_eq!(
        out4.dpp.samples as u64,
        golden
            .iter()
            .map(|b| b.batch.batch_size as u64)
            .sum::<u64>()
    );
}

/// A fleet of one and the direct service place every file alike (file `i`
/// on shard `i % S`, shard `s` on lane `s % N`) and build, deliver onto and
/// report their trainer lanes with the same code, so their reports agree on
/// the work done and on every lane's accounting.
#[test]
fn one_host_fleet_reports_the_same_work_and_lanes_as_the_direct_service() {
    let f = fixture(3);
    let (golden, direct) = run_direct_with_report(&f);
    let (m1, out1) = run_fleet_plain(&f, 1);
    assert_union_identical(&golden, &m1, "fleet M=1");
    let fleet = &out1.dpp;
    assert_eq!(fleet.samples, direct.samples);
    assert_eq!(fleet.batches, direct.batches);
    assert_eq!(fleet.egress_bytes, direct.egress_bytes);
    // The fleet divides its hosts' summed logical values by their summed
    // stored values: one host gives the same factor.
    assert!(
        (fleet.dedupe_factor - direct.dedupe_factor).abs() <= 1e-12 * direct.dedupe_factor,
        "dedupe factor {} vs {}",
        fleet.dedupe_factor,
        direct.dedupe_factor
    );
    assert_eq!(fleet.trainers.len(), TRAINERS);
    assert_eq!(direct.trainers.len(), TRAINERS);
    for (f, d) in fleet.trainers.iter().zip(&direct.trainers) {
        assert_eq!(f.trainer, d.trainer);
        assert_eq!(
            (f.delivered_batches, f.delivered_samples, f.dropped_batches),
            (d.delivered_batches, d.delivered_samples, d.dropped_batches),
            "lane {} accounting diverged",
            d.trainer
        );
    }
}

/// The fleet's dedup factor is the ratio the trainers receive — its hosts'
/// summed logical sparse values over their summed stored ones — not a
/// sample-weighted mean of the hosts' ratios: files alternate between a
/// session's clustered rows and time-ordered rows, so the shards, and the
/// hosts that own them, deduplicate unevenly.
#[test]
fn fleet_dedupe_factor_is_the_ratio_the_trainers_receive() {
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let clustered = cluster_by_session(&partition.samples);
    let samples: Vec<recd_data::Sample> = clustered
        .chunks_exact(BATCH)
        .zip(partition.samples.chunks_exact(BATCH))
        .flat_map(|(high, low)| high.iter().chain(low))
        .cloned()
        .collect();
    let store = Arc::new(TableStore::new(TectonicSim::new(4), BATCH, 1));
    let (stored, _) = store.land_partition(&partition.schema, "t", 0, &samples);
    let f = Fixture {
        schema: partition.schema,
        store,
        partitions: vec![stored],
    };
    let (batches, output) = run_fleet_plain(&f, 2);
    assert!(output.errors.is_empty(), "errors: {:?}", output.errors);
    assert_zero_drops(&output, "fleet M=2");
    assert_eq!(output.dpp.batches, batches.len());
    let logical: usize = batches
        .iter()
        .map(|b| b.batch.logical_sparse_values())
        .sum();
    let stored: usize = batches.iter().map(|b| b.batch.stored_sparse_values()).sum();
    assert!(logical > stored, "the table must deduplicate");
    assert_eq!(output.dpp.dedupe_factor, logical as f64 / stored as f64);
}

/// Acceptance criterion: kill, long partition (zombie), and rejoin leave the
/// union byte-identical, with full replay/rebalance/heartbeat accounting and
/// zero dropped batches.
#[test]
fn fleet_heals_kill_partition_rejoin_byte_identically() {
    let f = fixture(6);
    let golden = run_direct(&f);

    let mut fleet = DppFleet::start(
        fleet_config(&f.schema, 4),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let drains = spawn_drains(fleet.take_trainers());
    let mut now = 0;
    for (interval, partition) in f.partitions.iter().enumerate() {
        now += TICK_MS;
        fleet.tick(now);
        match interval {
            // Killed mid-interval before its files arrive: they queue
            // against the unreachable host and the barrier round replays
            // them to the replacement.
            1 => fleet.kill_host(1),
            // Rejoin before the feed so the rebalance at this interval's
            // barrier can steal shards back onto the fresh host.
            3 => fleet.rejoin_host(1),
            4 => fleet.rejoin_host(2),
            _ => {}
        }
        assert!(fleet.ingest_partition(partition));
        if interval == 2 {
            // Partitioned *after* the feed, longer than the run: the host
            // keeps crunching its in-flight files as a zombie while the
            // barrier declares it dead and replays them elsewhere — the
            // watermark must absorb the overlap.
            fleet.partition_host(2, 100 * TICK_MS);
        }
        assert!(
            fleet.flush_partition(),
            "barrier must survive interval {interval}"
        );
    }
    assert_eq!(fleet.hosts_live(), 4, "everyone rejoined");
    let output = fleet.finish();
    let union = canonical(drains);

    assert_union_identical(&golden, &union, "fleet M=4 faulted");
    assert_zero_drops(&output, "fleet M=4 faulted");
    let report = &output.report;
    assert_eq!(report.kills, 1);
    assert_eq!(report.partitions, 1);
    assert_eq!(report.rejoins, 2);
    assert_eq!(
        report.deaths_detected, 2,
        "one kill + one failed barrier round"
    );
    assert_eq!(report.hosts_live_at_finish, 4);
    assert!(report.replayed_files > 0, "interval files must replay");
    assert!(
        report.shard_replacements >= 2,
        "dead hosts' shards re-place"
    );
    assert!(
        report.rebalance_moves > 0,
        "rejoined hosts steal shards back"
    );
    assert_eq!(report.forwarded_batches as usize, golden.len());
    assert!(
        report.duplicate_batches_dropped > 0,
        "the zombie's full-file emissions must be deduped, not doubled"
    );
    assert_eq!(report.barriers, 6);
}

/// A death that leaves no live host orphans its shards; the host that
/// rejoins adopts every one of them at the last barrier's cuts, and the
/// union stays byte-identical.
#[test]
fn a_rejoin_into_a_fleet_with_no_live_host_adopts_every_shard() {
    let f = fixture(4);
    let golden = run_direct(&f);

    let mut fleet = DppFleet::start(
        fleet_config(&f.schema, 2),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let drains = spawn_drains(fleet.take_trainers());
    let mut now = 0;
    for (interval, partition) in f.partitions.iter().enumerate() {
        now += TICK_MS;
        fleet.tick(now);
        match interval {
            1 => fleet.kill_host(1),
            // The survivor drops off and is restarted at once: its death
            // has no heir, so the fresh incarnation adopts every shard.
            2 => {
                fleet.partition_host(0, TICK_MS);
                fleet.rejoin_host(0);
                assert_eq!(fleet.hosts_live(), 1);
                assert!(fleet.placement().iter().all(|&host| host == 0));
            }
            _ => {}
        }
        assert!(fleet.ingest_partition(partition));
        assert!(
            fleet.flush_partition(),
            "barrier must survive interval {interval}"
        );
    }
    let output = fleet.finish();
    let union = canonical(drains);
    assert_union_identical(&golden, &union, "fleet adopting orphans");
    assert_zero_drops(&output, "fleet adopting orphans");
    assert_eq!(output.report.deaths_detected, 2);
}

/// Heartbeat edge case: a host that flaps — partitions and heals within one
/// detection window — is never declared dead; its queued files flush on
/// heal and the union stays byte-identical.
#[test]
fn flapping_host_heals_inside_the_detection_window() {
    let f = fixture(3);
    let golden = run_direct(&f);

    let mut fleet = DppFleet::start(
        fleet_config(&f.schema, 2),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let drains = spawn_drains(fleet.take_trainers());

    fleet.tick(TICK_MS);
    assert!(fleet.ingest_partition(&f.partitions[0]));
    assert!(fleet.flush_partition());

    // Partition for half a tick, feed into the outage (files queue), then
    // heal on the next tick — inside the 2-tick detection window.
    fleet.partition_host(1, TICK_MS / 2);
    assert!(fleet.ingest_partition(&f.partitions[1]));
    fleet.tick(2 * TICK_MS);
    assert_eq!(fleet.hosts_live(), 2, "the flap must not be declared dead");
    assert!(fleet.flush_partition());

    fleet.tick(3 * TICK_MS);
    assert!(fleet.ingest_partition(&f.partitions[2]));
    assert!(fleet.flush_partition());

    let output = fleet.finish();
    let union = canonical(drains);
    assert_union_identical(&golden, &union, "flapping fleet");
    assert_zero_drops(&output, "flapping fleet");
    assert_eq!(output.report.flaps, 1);
    assert_eq!(output.report.deaths_detected, 0);
    assert_eq!(output.report.replayed_files, 0, "a flap replays nothing");
    assert_eq!(output.report.duplicate_batches_dropped, 0);
    assert_eq!(output.report.hosts_live_at_finish, 2);
}

/// Heartbeat edge case: a heartbeat exactly at the timeout boundary keeps
/// the host alive — death needs a *strictly* older beat.
#[test]
fn stale_heartbeat_at_exact_timeout_boundary_stays_live() {
    let f = fixture(2);
    let golden = run_direct(&f);
    let timeout = 100_000;

    let mut fleet = DppFleet::start(
        fleet_config(&f.schema, 2).with_heartbeat_timeout_ms(timeout),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let drains = spawn_drains(fleet.take_trainers());

    fleet.tick(0);
    assert!(fleet.ingest_partition(&f.partitions[0]));
    assert!(fleet.flush_partition());

    // Host 0 goes dark right after beating at t=0.
    fleet.partition_host(0, 10 * timeout);
    fleet.tick(timeout);
    assert_eq!(
        fleet.hosts_live(),
        2,
        "age == timeout is the boundary: still live"
    );
    assert_eq!(fleet.counters().report().deaths_detected, 0);

    fleet.tick(timeout + 1);
    assert_eq!(fleet.hosts_live(), 1, "age > timeout: declared dead");
    assert_eq!(fleet.counters().report().deaths_detected, 1);

    // Recover and prove the stream was unharmed.
    fleet.rejoin_host(0);
    assert_eq!(fleet.hosts_live(), 2);
    assert!(fleet.ingest_partition(&f.partitions[1]));
    assert!(fleet.flush_partition());

    let output = fleet.finish();
    let union = canonical(drains);
    assert_union_identical(&golden, &union, "boundary fleet");
    assert_zero_drops(&output, "boundary fleet");
    assert_eq!(output.report.rejoins, 1);
}

/// The rebalance at every barrier heals the skew left by a death and a
/// rejoin: the dead host's shards move to the survivors, the rejoined host
/// steals its share back, and the stream stays byte-identical.
#[test]
fn rebalance_at_every_barrier_heals_the_skew_of_a_death_and_a_rejoin() {
    let f = fixture(5);
    let golden = run_direct(&f);

    let mut fleet = DppFleet::start(
        fleet_config(&f.schema, 3),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let drains = spawn_drains(fleet.take_trainers());
    let mut now = 0;
    for (interval, partition) in f.partitions.iter().enumerate() {
        now += TICK_MS;
        fleet.tick(now);
        match interval {
            1 => fleet.kill_host(2),
            3 => fleet.rejoin_host(2),
            _ => {}
        }
        assert!(fleet.ingest_partition(partition));
        assert!(fleet.flush_partition());
    }

    // 6 shards over 3 live hosts, freshly rebalanced: 2 each.
    let mut owned = vec![0usize; 3];
    for &owner in fleet.placement() {
        owned[owner] += 1;
    }
    assert_eq!(owned, vec![2, 2, 2], "work stealing must heal the skew");

    let output = fleet.finish();
    let union = canonical(drains);
    assert_union_identical(&golden, &union, "rebalancing fleet");
    assert_zero_drops(&output, "rebalancing fleet");
    assert!(output.report.rebalance_moves > 0);
    assert_eq!(output.report.hosts_live_at_finish, 3);
}
