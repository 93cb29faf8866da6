//! The one pipeline driver, through the facade: {single service, 2-host
//! fleet} × {empty plan, seeded plan} on the tiny preset. Every case must
//! deliver each joined sample exactly once with zero dropped batches, resume
//! once per `crash-pump`, and deliver the same order-independent row union
//! whatever the pump step. A resumed pump keeps publishing to the ETL report
//! cell the registry scrapes, and the registry reads what the reports say. A
//! fleet that loses every host is a typed error.

use recd::core::{ConvertedBatch, DataLoaderConfig};
use recd::data::FeatureId;
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::dpp::{
    Consume, DppConfig, Driver, DriverError, DriverOutput, FleetConfig, TailFeed, Topology,
    TrainerAssignPolicy, TrainerBatch,
};
use recd::etl::{EtlStreamConfig, TableLayout};
use recd::obs::sample_value;
use recd::reader::ReaderConfig;
use recd::scribe::{LogTail, TailConfig};
use recd::storage::{TableStore, TectonicSim};
use recd_chaos::{FaultKind, FaultPlan};
use std::sync::{Arc, Mutex};

const TRAINERS: usize = 2;

/// One logical row: label and dense bits, then every sparse feature's ids
/// (IKJT rows expanded through the group's inverse lookup).
type Row = (u32, Vec<u32>, Vec<(FeatureId, Vec<u64>)>);

fn rows(batch: &ConvertedBatch) -> impl Iterator<Item = Row> + '_ {
    (0..batch.batch_size).map(move |row| {
        let mut sparse: Vec<(FeatureId, Vec<u64>)> = batch
            .kjt
            .iter()
            .map(|(id, tensor)| (id, tensor.row(row).to_vec()))
            .collect();
        for ikjt in &batch.ikjts {
            for &id in ikjt.keys() {
                sparse.push((id, ikjt.row(id, row).expect("row in range").to_vec()));
            }
        }
        sparse.sort();
        let dense = batch.dense.row(row).iter().map(|v| v.to_bits()).collect();
        (batch.labels[row].to_bits(), dense, sparse)
    })
}

/// The tiny preset's last record timestamp: the pump clock's horizon.
fn horizon() -> u64 {
    DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny))
        .generate_logs()
        .0
        .iter()
        .map(|r| r.timestamp().as_millis())
        .max()
        .expect("tiny preset has records")
}

/// Builds the tail-fed driver for `hosts` (0 = a single service).
fn driver(hosts: usize, plan: &FaultPlan, step_ms: u64) -> Driver {
    let (records, partition) =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_logs();
    let schema = partition.schema;
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 64, 2));
    let dpp = DppConfig::new(ReaderConfig::new(
        64,
        DataLoaderConfig::from_schema(&schema),
    ))
    .with_fill_workers(2)
    .with_compute_workers(2)
    .with_shards(4);
    let topology = if hosts > 0 {
        Topology::Fleet(
            FleetConfig::new(dpp)
                .with_hosts(hosts)
                .with_trainers(TRAINERS),
        )
    } else {
        // Least-loaded lanes: a killed lane's traffic re-routes.
        Topology::Single(
            dpp.with_trainers(TRAINERS)
                .with_assign_policy(TrainerAssignPolicy::LeastLoaded),
        )
    };
    let feed = TailFeed {
        tail: LogTail::new(records, &TailConfig::default().with_jitter_ms(2_000)),
        stream: EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000),
        table: "driver".to_string(),
        step_ms,
        plan: Some(plan.clone()),
    };
    Driver::new(store, &schema, feed, topology).expect("plan fits the topology")
}

/// Runs one tail-fed pipeline; returns the driver's output and the sorted
/// row union its lanes delivered.
fn run(hosts: usize, plan: &FaultPlan, step_ms: u64) -> (DriverOutput, Vec<Row>) {
    let driver = driver(hosts, plan, step_ms);
    let delivered = Arc::new(Mutex::new(Vec::<TrainerBatch>::new()));
    let consume: Consume = {
        let delivered = Arc::clone(&delivered);
        Arc::new(move |batch| delivered.lock().expect("collector lock").push(batch))
    };
    let output = driver.run(consume).expect("run finishes cleanly");
    let delivered = delivered.lock().expect("collector lock");
    let mut union: Vec<Row> = delivered.iter().flat_map(|b| rows(&b.batch)).collect();
    union.sort();
    (output, union)
}

#[test]
fn every_topology_and_plan_delivers_exactly_once_at_any_pump_step() {
    let horizon = horizon();
    for hosts in [0, 2] {
        // Single service: the seeded plan (trainer kill + stall, storage
        // faults, one crash-pump). Fleet: the seeded fleet plan (a host
        // death healed by a rejoin, storage faults, a trainer stall).
        let faulted = if hosts == 0 {
            FaultPlan::seeded(7, horizon, TRAINERS)
        } else {
            FaultPlan::seeded_fleet(7, horizon, TRAINERS, 2)
        };
        let plans = [FaultPlan::new(), faulted];
        for plan in plans {
            let label = format!("{hosts} hosts, plan `{plan}`");
            let crashes = plan
                .faults()
                .iter()
                .filter(|f| f.kind == FaultKind::CrashEtlPump)
                .count() as u64;
            let (output, union) = run(hosts, &plan, 60_000);

            let joined = output.etl.etl.counters.joined_samples;
            assert!(joined > 0, "{label}: nothing joined");
            let consumed: u64 = output.lanes.iter().map(|lane| lane.samples).sum();
            assert_eq!(
                consumed, joined,
                "{label}: lanes consumed every sample once"
            );
            assert_eq!(output.dpp.samples as u64, joined, "{label}: dpp samples");
            assert_eq!(union.len() as u64, joined, "{label}: one row per sample");
            assert!(
                output.dpp.trainers.iter().all(|t| t.dropped_batches == 0),
                "{label}: a lane dropped batches"
            );
            let chaos = output.chaos.as_ref().expect("a plan yields a chaos report");
            assert_eq!(chaos.faults_fired, plan.len() as u64, "{label}: faults");
            assert_eq!(chaos.resumes, crashes, "{label}: one resume per crash");
            assert_eq!(output.fleet.is_some(), hosts > 0, "{label}: fleet report");

            let (_, other_step) = run(hosts, &plan, 45_000);
            assert!(
                union == other_step,
                "{label}: row union moved with the step"
            );
        }
    }
}

/// A `crash-pump` resumes the ETL service from a checkpoint that shares the
/// report cell, so after the run the registry reads the resumed service's
/// final values, not the ones the dead service last published.
#[test]
fn a_resumed_pump_keeps_the_registered_etl_gauges_live() {
    let plan = FaultPlan::new().with_fault(horizon() / 2, FaultKind::CrashEtlPump);
    let driver = driver(0, &plan, 60_000);
    let registry = driver.registry();
    let output = driver
        .run(Arc::new(|_: TrainerBatch| {}))
        .expect("run finishes cleanly");
    assert_eq!(output.chaos.map(|chaos| chaos.resumes), Some(1));
    let etl = output.etl;
    let families = registry.gather();
    let value = |name| sample_value(&families, name, &[]).expect("ETL gauge registered");
    assert_eq!(value("recd_etl_tail_remaining"), 0.0);
    assert_eq!(
        value("recd_etl_records_tailed_total"),
        etl.etl.counters.records as f64
    );
    assert_eq!(
        value("recd_etl_landed_partitions_total"),
        etl.landed_partitions as f64
    );
}

/// The registry and the report read one account: after a run, the gathered
/// `recd_dpp_*` output counters equal the service report, every
/// `recd_etl_*` family equals its field of the ETL report, and every
/// `recd_fleet_*_total` counter of a 3-host fleet that loses a host and
/// takes it back equals the fleet report.
#[test]
fn the_registry_and_the_report_agree_after_a_run() {
    let single = driver(0, &FaultPlan::new(), 60_000);
    let registry = single.registry();
    let output = single
        .run(Arc::new(|_: TrainerBatch| {}))
        .expect("run finishes cleanly");
    let families = registry.gather();
    let value = |name, labels: &[(&str, &str)]| {
        sample_value(&families, name, labels).unwrap_or_else(|| panic!("{name} registered"))
    };
    let dpp = &output.dpp;
    assert!(dpp.samples > 0);
    assert_eq!(value("recd_dpp_samples_out_total", &[]), dpp.samples as f64);
    assert_eq!(value("recd_dpp_batches_out_total", &[]), dpp.batches as f64);
    assert_eq!(
        value("recd_dpp_egress_bytes_total", &[]),
        dpp.egress_bytes as f64
    );
    assert_eq!(dpp.trainers.len(), TRAINERS);
    for lane in &dpp.trainers {
        let trainer = lane.trainer.to_string();
        assert_eq!(
            value(
                "recd_dpp_trainer_delivered_batches_total",
                &[("trainer", trainer.as_str())]
            ),
            lane.delivered_batches as f64,
            "trainer {trainer}"
        );
    }
    let etl = &output.etl;
    let c = &etl.etl.counters;
    let etl_families: Vec<_> = families
        .iter()
        .filter(|f| f.name.starts_with("recd_etl_"))
        .collect();
    assert_eq!(etl_families.len(), 13, "every ETL family is checked");
    for family in etl_families {
        let expected = match family.name.as_str() {
            "recd_etl_records_tailed_total" => c.records,
            "recd_etl_joined_samples_total" => c.joined_samples,
            "recd_etl_late_drops_total" => c.late_drops,
            "recd_etl_duplicates_total" => c.duplicates,
            "recd_etl_orphaned_total" => c.orphaned_features + c.orphaned_events,
            "recd_etl_open_hours" => etl.etl.open_hours as u64,
            "recd_etl_open_sessions" => etl.etl.open_sessions as u64,
            "recd_etl_buffered_rows" => etl.etl.buffered_rows as u64,
            "recd_etl_sealed_partitions_total" => c.sealed_partitions,
            "recd_etl_landed_partitions_total" => etl.landed_partitions,
            "recd_etl_watermark_ms" => etl.etl.watermark_ms,
            "recd_etl_tail_lag_ms" => etl.tail_lag_ms,
            "recd_etl_tail_remaining" => etl.tail_remaining,
            other => panic!("{other} has no field in the ETL report"),
        };
        let gathered = sample_value(&families, &family.name, &[]);
        assert_eq!(gathered, Some(expected as f64), "{}", family.name);
    }

    let plan = FaultPlan::new()
        .with_fault(180_000, FaultKind::KillHost { host: 1 })
        .with_fault(1_500_000, FaultKind::RejoinHost { host: 1 });
    let fleet = driver(3, &plan, 60_000);
    let registry = fleet.registry();
    let output = fleet
        .run(Arc::new(|_: TrainerBatch| {}))
        .expect("run finishes cleanly");
    let (fleet, _) = output.fleet.expect("a fleet run has a fleet report");
    assert_eq!((fleet.deaths_detected, fleet.rejoins), (1, 1));
    let families = registry.gather();
    let counters: Vec<_> = families
        .iter()
        .filter(|f| f.name.starts_with("recd_fleet_") && f.name.ends_with("_total"))
        .collect();
    assert_eq!(counters.len(), 15, "every fleet counter family is checked");
    for family in counters {
        let expected = match family.name.as_str() {
            "recd_fleet_hosts_total" => fleet.hosts as f64,
            "recd_fleet_heartbeats_total" => fleet.heartbeats as f64,
            "recd_fleet_deaths_detected_total" => fleet.deaths_detected as f64,
            "recd_fleet_kills_total" => fleet.kills as f64,
            "recd_fleet_partitions_total" => fleet.partitions as f64,
            "recd_fleet_rejoins_total" => fleet.rejoins as f64,
            "recd_fleet_flaps_total" => fleet.flaps as f64,
            "recd_fleet_barriers_total" => fleet.barriers as f64,
            "recd_fleet_shard_replacements_total" => fleet.shard_replacements as f64,
            "recd_fleet_rebalance_moves_total" => fleet.rebalance_moves as f64,
            "recd_fleet_rebalance_seconds_total" => fleet.rebalance_ms / 1e3,
            "recd_fleet_replayed_files_total" => fleet.replayed_files as f64,
            "recd_fleet_duplicate_batches_dropped_total" => fleet.duplicate_batches_dropped as f64,
            "recd_fleet_forwarded_batches_total" => fleet.forwarded_batches as f64,
            "recd_fleet_forwarded_samples_total" => fleet.forwarded_samples as f64,
            other => panic!("{other} has no field in the fleet report"),
        };
        let gathered = sample_value(&families, &family.name, &[]);
        assert_eq!(gathered, Some(expected), "{}", family.name);
    }
}

/// A 2-host fleet that loses one host to a kill and the other to a
/// partition before the rejoin has no host left to inherit the shards: the
/// run ends in a typed error, not a panic.
#[test]
fn a_fleet_that_loses_every_host_returns_a_typed_error() {
    let plan = FaultPlan::new()
        .with_fault(300_000, FaultKind::KillHost { host: 1 })
        .with_fault(
            900_000,
            FaultKind::PartitionHost {
                host: 0,
                ms: 600_000,
            },
        );
    let result = driver(2, &plan, 60_000).run(Arc::new(|_: TrainerBatch| {}));
    assert!(matches!(result, Err(DriverError::NoLiveHost)));
}
