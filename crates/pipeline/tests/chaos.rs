//! End-to-end chaos convergence: the continuous pipeline run under seeded
//! and hand-written fault plans — trainer kills and stalls, storage
//! brown-outs, transient get/put failures, ETL pump crash-restarts — must
//! deliver the **byte-identical trainer-batch union** of a fault-free run
//! with the same barrier schedule, with full chaos accounting.
//!
//! The fault-free oracle is the same run under an *empty* fault plan: it
//! executes the identical pump/barrier/checkpoint cadence, so any
//! divergence is attributable to a fault leaking into the payload path.
//! Each run is the runner's continuous arm with the plan set on its feed,
//! driven through `Driver` as the `recd-dpp` CLI drives it.

mod common;

use common::{assert_union_identical, drive, inputs_with, TRAINERS};
use recd_chaos::FaultPlan;
use recd_dpp::{DriverOutput, Topology, TrainerBatch};

/// The small workload's sessions all start inside hour zero, so one
/// simulated hour bounds the window in which the pipeline is moving data.
const HORIZON_MS: u64 = 3_600_000;
const ORACLE: &str = "the fault-free run";

fn run_with(plan: FaultPlan) -> (DriverOutput, Vec<TrainerBatch>) {
    drive(inputs_with(plan), Topology::Single)
}

#[test]
fn seeded_fault_plans_converge_to_the_fault_free_union() {
    let (reference, ref_union) = run_with(FaultPlan::new());
    let ref_chaos = reference.chaos.clone().expect("chaos report");
    assert_eq!(ref_chaos.faults_fired, 0, "empty plan fires nothing");
    assert!(
        ref_union.len() >= 4,
        "reference must deliver several batches, got {}",
        ref_union.len()
    );

    for seed in [11u64, 29, 47] {
        let plan = FaultPlan::seeded(seed, HORIZON_MS, TRAINERS);
        let planned = plan.len();
        let (report, batches) = run_with(plan);
        let label = format!("seed {seed}");

        let chaos = report.chaos.clone().expect("chaos report");
        assert_eq!(chaos.seed, seed);
        assert_eq!(chaos.planned_faults, planned);
        assert_eq!(
            chaos.faults_fired, planned as u64,
            "{label}: every scheduled fault fires inside the run window"
        );
        assert_eq!(
            chaos.pump_crashes, chaos.resumes,
            "{label}: every crash must be followed by a resume"
        );
        // Every injected transient storage failure was absorbed by a retry.
        assert!(
            chaos.retries >= chaos.injected_get_failures + chaos.injected_put_failures,
            "{label}: {} retries cannot absorb {}+{} injected failures",
            chaos.retries,
            chaos.injected_get_failures,
            chaos.injected_put_failures,
        );
        assert_eq!(chaos.retry_exhausted, 0, "{label}: budget must suffice");

        assert!(
            report.dpp.trainers.iter().all(|t| t.dropped_batches == 0),
            "{label}: killed-lane traffic must re-route, not drop"
        );
        assert_eq!(
            report.dpp.samples as u64, report.etl.etl.counters.joined_samples,
            "{label}: exactly-once — trainer-side samples match the joined samples"
        );

        assert_union_identical(&ref_union, &batches, &label, ORACLE);
    }
}

#[test]
fn hand_written_fault_plans_converge_to_the_fault_free_union() {
    let (_, ref_union) = run_with(FaultPlan::new());

    let plans = [
        // A mid-run trainer kill, a stall, and a storage brown-out.
        "120000:kill-trainer:1;300000:stall-trainer:0:15;600000:slow-storage:8:120000",
        // Transient storage failures followed by a pump crash-restart.
        "60000:fail-get:4;90000:fail-put:2;1500000:crash-pump",
        // Back-to-back pump crashes plus a late kill and a get burst.
        "300000:crash-pump;360000:crash-pump;420000:kill-trainer:2;500000:fail-get:3",
    ];
    for spec in plans {
        let plan = FaultPlan::parse(spec).expect("plan parses");
        let planned = plan.len();
        let (report, batches) = run_with(plan);
        let chaos = report.chaos.clone().expect("chaos report");
        assert_eq!(chaos.faults_fired, planned as u64, "plan `{spec}`");
        let label = format!("plan `{spec}`");
        assert_union_identical(&ref_union, &batches, &label, ORACLE);
    }
}

#[test]
fn crash_restart_accounting_reaches_the_report() {
    let plan = FaultPlan::parse("600000:crash-pump").expect("plan parses");
    let (report, batches) = run_with(plan);
    let chaos = report.chaos.expect("chaos report");
    assert_eq!(chaos.pump_crashes, 1);
    assert_eq!(chaos.resumes, 1);
    assert!(chaos.recovery_ms >= 0.0);
    // The fault-free union still holds after a lone crash-restart.
    let (_, reference) = run_with(FaultPlan::new());
    assert_union_identical(&reference, &batches, "lone crash", ORACLE);
}
