//! End-to-end control-loop equivalence: the unified PID backpressure
//! controller may change *when* work happens — pool sizes, pump timing —
//! but never *what* is produced. A controller-on run must deliver the
//! **byte-identical trainer-batch union** of a controller-off run under the
//! same barrier schedule, fault-free and under slow-trainer chaos alike.
//!
//! The controller-off oracle is the same runner without `with_ctrl`: it
//! executes the identical pump/checkpoint cadence, so any divergence is
//! attributable to the controller leaking into the payload path.
//!
//! No wall clock decides an outcome here: controller-on runs tick on a
//! `ManualClock` that a stepper thread advances as fast as the controller
//! evaluates, so the controller samples however short the run is. What the
//! controller *does* with its samples (grow, shrink, pump gate, bounds) is
//! pinned by `recd-dpp`'s `control.rs` unit harness and `tests/scaling.rs`.

use recd_chaos::FaultPlan;
use recd_dpp::{CtrlConfig, ManualClock, ScaleClock, TrainerBatch};
use recd_pipeline::run::PipelineArtifacts;
use recd_pipeline::{PipelineRunner, RecdConfig, RmPreset, RmSpec};
use std::sync::Arc;

const WORKERS: usize = 2;
const TRAINERS: usize = 3;
const BATCH: usize = 128;

/// Every lane stalled within one pump window (the plan rejects same-instant
/// duplicates of a fault kind, so the stalls stagger by one 60s pump step
/// and overlap in wall time), twice: with every consumer paused the trainer
/// tier is the bottleneck for as long as the stalls last.
const SLOW_TRAINER_PLAN: &str = "1800000:stall-trainer:0:300;1860000:stall-trainer:1:300;\
                                 1920000:stall-trainer:2:300;3000000:stall-trainer:0:300;\
                                 3060000:stall-trainer:1:300;3120000:stall-trainer:2:300";

fn small_spec() -> RmSpec {
    RmPreset::Rm1.spec().scaled_down(60)
}

fn runner() -> PipelineRunner {
    PipelineRunner::new(small_spec(), RecdConfig::full())
        .with_continuous(WORKERS)
        .with_continuous_trainers(TRAINERS)
}

/// Runs `runner` under the PID controller on a stepped clock. Every `step`
/// returns once the controller finished that evaluation and the loop ends
/// when the service shuts the clock down, so the controller samples at
/// least once however short the run is (fleet hosts share the one clock;
/// the first host to finish stops it for all).
fn run_controlled(runner: PipelineRunner) -> PipelineArtifacts {
    let clock = Arc::new(ManualClock::new());
    let stepper = {
        let clock = Arc::clone(&clock);
        std::thread::spawn(move || while clock.step() {})
    };
    let artifacts = runner
        .with_ctrl(CtrlConfig::bounds(1, 4).with_clock(clock as Arc<dyn ScaleClock>))
        .run(BATCH);
    stepper.join().expect("stepper");
    let report = artifacts
        .report
        .dpp
        .ctrl
        .expect("controller-on runs report ctrl");
    assert!(report.ticks > 0, "the controller must have sampled");
    artifacts
}

/// Asserts two canonical unions are byte-identical.
fn assert_union_identical(reference: &[TrainerBatch], got: &[TrainerBatch], label: &str) {
    assert_eq!(
        got.len(),
        reference.len(),
        "{label}: delivered batch count diverged from the controller-off run"
    );
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        assert_eq!(
            (g.shard, g.seq),
            (r.shard, r.seq),
            "{label}: batch {i} stream position diverged"
        );
        assert_eq!(
            g.batch, r.batch,
            "{label}: batch {i} payload diverged from the controller-off run"
        );
    }
}

#[test]
fn controller_off_and_on_deliver_identical_unions() {
    let off = runner().run(BATCH);
    let off_union = off.batches;
    assert!(
        off_union.len() >= 4,
        "reference must deliver several batches, got {}",
        off_union.len()
    );
    let off_report = &off.report;
    assert!(
        off_report.dpp.ctrl.is_none(),
        "controller-off runs must not grow a ctrl report"
    );

    let on = run_controlled(runner());
    let on_report = &on.report;
    assert_eq!(
        on_report.dpp.samples, off_report.dpp.samples,
        "controller must not change delivered sample count"
    );
    assert_union_identical(&off_union, &on.batches, "ctrl on");
}

/// At the parent of the PR that removed submission pacing this plan never
/// turned the pump gate red (`pump_pauses: 0`; the only actuations were the
/// two start-up shrinks), so whether it does is not asserted: the pump
/// gate's coverage is the unit harness in `recd-dpp`'s `control.rs`.
#[test]
fn controller_under_slow_trainers_delivers_the_uncontrolled_union() {
    let plan = FaultPlan::parse(SLOW_TRAINER_PLAN).expect("plan parses");
    let planned = plan.len() as u64;
    let off = runner().with_chaos(plan.clone()).run(BATCH);
    let off_chaos = off.report.chaos.clone().expect("chaos report");
    assert_eq!(off_chaos.faults_fired, planned);
    let off_union = off.batches;

    let on = run_controlled(runner().with_chaos(plan));
    let on_chaos = on.report.chaos.clone().expect("chaos report");
    assert_eq!(on_chaos.faults_fired, planned);
    assert_union_identical(&off_union, &on.batches, "slow trainers");
}

#[test]
fn controller_on_fleet_matches_the_controller_off_fleet_union() {
    let off = runner().with_hosts(3).run(BATCH);
    let off_union = off.batches;
    assert!(
        off_union.len() >= 4,
        "fleet reference must deliver several batches, got {}",
        off_union.len()
    );

    let on = run_controlled(runner().with_hosts(3));
    assert_union_identical(&off_union, &on.batches, "fleet ctrl");
}
