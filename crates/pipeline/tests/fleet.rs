//! End-to-end fleet convergence: the continuous pipeline with its DPP tier
//! disaggregated over M simulated hosts must deliver the **byte-identical
//! trainer-batch union** for every fleet size and every host-failure
//! schedule — kills, control-plane partitions, rejoins — with full
//! control-plane accounting and zero dropped batches.
//!
//! The oracle is the same run on a fleet of one: the coordinator's file →
//! shard placement (and the per-pump barrier schedule) is a pure function of
//! the landing schedule, independent of the host count, so any divergence
//! is attributable to the control plane leaking into the payload path.
//! Each run is the runner's continuous arm with the plan set on its feed,
//! driven on a fleet through `Driver` as the `recd-dpp` CLI drives it.

mod common;

use common::{drive, fleet, inputs_with, TRAINERS};
use recd_chaos::FaultPlan;
use recd_dpp::{Driver, DriverOutput, Topology, TrainerBatch};

const HOSTS: usize = 4;
/// The small workload's sessions all start inside hour zero, so one
/// simulated hour bounds the window in which the pipeline is moving data.
const HORIZON_MS: u64 = 3_600_000;

fn run_fleet(hosts: usize, plan: FaultPlan) -> (DriverOutput, Vec<TrainerBatch>) {
    drive(inputs_with(plan), |dpp| fleet(hosts, dpp))
}

/// Asserts two canonical unions are byte-identical, including the
/// shard-pinned lane assignment.
fn assert_union_identical(reference: &[TrainerBatch], got: &[TrainerBatch], label: &str) {
    assert_eq!(
        got.len(),
        reference.len(),
        "{label}: delivered batch count diverged from the reference run"
    );
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        assert_eq!(
            (g.shard, g.seq, g.trainer),
            (r.shard, r.seq, r.trainer),
            "{label}: batch {i} stream position diverged"
        );
        assert_eq!(
            g.batch, r.batch,
            "{label}: batch {i} payload diverged from the reference run"
        );
    }
}

fn assert_zero_drops(report: &DriverOutput, label: &str) {
    assert!(
        report.dpp.trainers.iter().all(|t| t.dropped_batches == 0),
        "{label}: no fleet lane may drop a batch"
    );
    assert_eq!(
        report.dpp.samples as u64, report.etl.etl.counters.joined_samples,
        "{label}: exactly-once — trainer-side samples match the joined samples"
    );
}

#[test]
fn fleet_sizes_deliver_identical_unions() {
    let (one, reference) = run_fleet(1, FaultPlan::new());
    assert!(
        reference.len() >= 4,
        "reference must deliver several batches, got {}",
        reference.len()
    );
    assert_zero_drops(&one, "fleet of one");
    let fleet_one = one.fleet.clone().expect("fleet report").0;
    assert_eq!(fleet_one.hosts, 1);
    assert_eq!(fleet_one.hosts_live_at_finish, 1);
    assert_eq!(fleet_one.deaths_detected, 0);

    let (four, four_union) = run_fleet(HOSTS, FaultPlan::new());
    assert_zero_drops(&four, "fleet of four");
    let fleet = four.fleet.clone().expect("fleet report").0;
    assert_eq!(fleet.hosts, HOSTS);
    assert_eq!(fleet.hosts_live_at_finish, HOSTS);
    assert_eq!(fleet.deaths_detected, 0);
    assert_eq!(fleet.kills + fleet.partitions + fleet.rejoins, 0);
    assert!(fleet.barriers > 0, "every pump ends in a fleet barrier");
    // Every pump ticks every live host once; the final barrier (after the
    // tail drains) has no tick of its own, nor has the barrier closing each
    // ingested partition.
    let pump_barriers = fleet.barriers - four.dpp.partitions_ingested;
    assert!(
        fleet.heartbeats >= (pump_barriers - 1) * HOSTS as u64,
        "every live host beats at least once per pump"
    );
    assert_eq!(fleet.forwarded_batches as usize, reference.len());

    assert_union_identical(&reference, &four_union, "fleet of four");
}

#[test]
fn seeded_host_failure_schedules_converge() {
    let (_, reference) = run_fleet(HOSTS, FaultPlan::new());

    for seed in [7u64, 23] {
        let plan = FaultPlan::seeded_fleet(seed, HORIZON_MS, TRAINERS, HOSTS);
        let planned = plan.len();
        let (report, batches) = run_fleet(HOSTS, plan);
        let label = format!("seed {seed}");

        let chaos = report.chaos.clone().expect("chaos report");
        assert_eq!(chaos.seed, seed);
        assert_eq!(
            chaos.faults_fired, planned as u64,
            "{label}: every scheduled fault fires inside the run window"
        );

        let fleet = report.fleet.clone().expect("fleet report").0;
        assert_eq!(fleet.kills, 1, "{label}");
        assert_eq!(fleet.partitions, 1, "{label}");
        assert_eq!(fleet.rejoins, 1, "{label}");
        // Both the killed and the partitioned host are declared dead (the
        // per-pump barrier acts as a contact round); only the killed one
        // rejoins.
        assert_eq!(fleet.deaths_detected, 2, "{label}");
        assert_eq!(fleet.hosts_live_at_finish, HOSTS - 1, "{label}");
        assert!(
            fleet.shard_replacements > 0,
            "{label}: a dead host's shards must be re-placed"
        );
        assert!(
            fleet.rebalance_moves > 0,
            "{label}: the rejoined host must steal shards back"
        );
        assert_zero_drops(&report, &label);

        assert_union_identical(&reference, &batches, &label);
    }
}

#[test]
fn hand_written_host_fault_plan_heals_to_full_strength() {
    let (_, reference) = run_fleet(HOSTS, FaultPlan::new());

    // Kill one host, partition another past the heartbeat timeout, rejoin
    // both: the fleet must finish at full strength with the identical union.
    let plan = FaultPlan::parse(
        "300000:kill-host:1;900000:partition-host:2:240000;\
         2100000:rejoin-host:1;2400000:rejoin-host:2",
    )
    .expect("plan parses");
    let planned = plan.len();

    // The same plan has no host to act on without a fleet, and names a host
    // a 2-host fleet lacks: the driver rejects both up front (the CLI's
    // exit-2 messages) instead of running them as faultless plans.
    for (hosts, message) in [
        (0, "host faults require --hosts > 1"),
        (2, "names host 2, but --hosts 2 only has hosts 0..2"),
    ] {
        let inputs = inputs_with(plan.clone());
        let topology = match hosts {
            0 => Topology::Single(inputs.dpp),
            _ => fleet(hosts, inputs.dpp),
        };
        let Err(err) = Driver::new(inputs.store, &inputs.schema, inputs.feed, topology) else {
            panic!("a host fault this topology cannot apply must be rejected");
        };
        let text = err.to_string();
        assert!(text.contains(message), "hosts {hosts}: {text}");
    }

    let (report, batches) = run_fleet(HOSTS, plan);

    let chaos = report.chaos.clone().expect("chaos report");
    assert_eq!(chaos.faults_fired, planned as u64);

    let fleet = report.fleet.clone().expect("fleet report").0;
    assert_eq!(fleet.kills, 1);
    assert_eq!(fleet.partitions, 1);
    assert_eq!(fleet.rejoins, 2);
    assert_eq!(fleet.deaths_detected, 2);
    assert_eq!(
        fleet.hosts_live_at_finish, HOSTS,
        "both rejoined hosts must be live at finish"
    );
    assert!(fleet.shard_replacements > 0);
    assert!(fleet.rebalance_moves > 0);
    assert_zero_drops(&report, "heal plan");

    assert_union_identical(&reference, &batches, "heal plan");
}
