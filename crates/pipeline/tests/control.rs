//! End-to-end control-loop equivalence: the unified PID backpressure
//! controller may change *when* work happens — pool sizes, pump timing —
//! but never *what* is produced. A controller-on run must deliver the
//! **byte-identical trainer-batch union** of a controller-off run under the
//! same barrier schedule, fault-free and under slow-trainer chaos alike.
//!
//! The controller-off oracle is the same run without a controller on its
//! DPP config: it executes the identical pump/checkpoint cadence, so any
//! divergence is attributable to the controller leaking into the payload
//! path. Each run is the runner's continuous arm, driven through `Driver`
//! as the `recd-dpp` CLI drives it.
//!
//! No wall clock decides an outcome here: controller-on runs tick on a
//! `ManualClock` that a stepper thread advances as fast as the controller
//! evaluates, so the controller samples however short the run is. What the
//! controller *does* with its samples (grow, shrink, pump gate, bounds) is
//! pinned by `recd-dpp`'s `control.rs` unit harness and `tests/scaling.rs`.

mod common;

use common::{assert_union_identical, continuous_inputs, drive, fleet, inputs_with};
use recd_chaos::FaultPlan;
use recd_dpp::{
    CtrlConfig, DppConfig, DriverOutput, ManualClock, ScaleClock, Topology, TrainerBatch,
};
use recd_pipeline::PipelineInputs;
use std::sync::Arc;

const ORACLE: &str = "the controller-off run";

/// Every lane stalled within one pump window (the plan rejects same-instant
/// duplicates of a fault kind, so the stalls stagger by one 60s pump step
/// and overlap in wall time), twice: with every consumer paused the trainer
/// tier is the bottleneck for as long as the stalls last.
const SLOW_TRAINER_PLAN: &str = "1800000:stall-trainer:0:300;1860000:stall-trainer:1:300;\
                                 1920000:stall-trainer:2:300;3000000:stall-trainer:0:300;\
                                 3060000:stall-trainer:1:300;3120000:stall-trainer:2:300";

/// Drives `inputs` under the PID controller on a stepped clock. Every
/// `step` returns once the controller finished that evaluation and the loop
/// ends when the service shuts the clock down, so the controller samples at
/// least once however short the run is (fleet hosts share the one clock;
/// the first host to finish stops it for all).
fn run_controlled(
    mut inputs: PipelineInputs,
    topology: impl FnOnce(DppConfig) -> Topology,
) -> (DriverOutput, Vec<TrainerBatch>) {
    let clock = Arc::new(ManualClock::new());
    let stepper = {
        let clock = Arc::clone(&clock);
        std::thread::spawn(move || while clock.step() {})
    };
    let ctrl = CtrlConfig::bounds(1, 4).with_clock(clock as Arc<dyn ScaleClock>);
    inputs.dpp = inputs.dpp.with_ctrl(ctrl);
    let (report, batches) = drive(inputs, topology);
    stepper.join().expect("stepper");
    let ctrl = report
        .dpp
        .ctrl
        .as_ref()
        .expect("controller-on runs report ctrl");
    assert!(ctrl.ticks > 0, "the controller must have sampled");
    (report, batches)
}

#[test]
fn controller_off_and_on_deliver_identical_unions() {
    let (off_report, off_union) = drive(continuous_inputs(), Topology::Single);
    assert!(
        off_union.len() >= 4,
        "reference must deliver several batches, got {}",
        off_union.len()
    );
    assert!(
        off_report.dpp.ctrl.is_none(),
        "controller-off runs must not grow a ctrl report"
    );

    let (on_report, on_union) = run_controlled(continuous_inputs(), Topology::Single);
    assert_eq!(
        on_report.dpp.samples, off_report.dpp.samples,
        "controller must not change delivered sample count"
    );
    assert_union_identical(&off_union, &on_union, "ctrl on", ORACLE);
}

/// At the parent of the PR that removed submission pacing this plan never
/// turned the pump gate red (`pump_pauses: 0`; the only actuations were the
/// two start-up shrinks), so whether it does is not asserted: the pump
/// gate's coverage is the unit harness in `recd-dpp`'s `control.rs`.
#[test]
fn controller_under_slow_trainers_delivers_the_uncontrolled_union() {
    let plan = FaultPlan::parse(SLOW_TRAINER_PLAN).expect("plan parses");
    let planned = plan.len() as u64;
    let (off, off_union) = drive(inputs_with(plan.clone()), Topology::Single);
    let off_chaos = off.chaos.clone().expect("chaos report");
    assert_eq!(off_chaos.faults_fired, planned);

    let (on, on_union) = run_controlled(inputs_with(plan), Topology::Single);
    let on_chaos = on.chaos.clone().expect("chaos report");
    assert_eq!(on_chaos.faults_fired, planned);
    assert_union_identical(&off_union, &on_union, "slow trainers", ORACLE);
}

#[test]
fn controller_on_fleet_matches_the_controller_off_fleet_union() {
    let (_, off_union) = drive(continuous_inputs(), |dpp| fleet(3, dpp));
    assert!(
        off_union.len() >= 4,
        "fleet reference must deliver several batches, got {}",
        off_union.len()
    );

    let (_, on_union) = run_controlled(continuous_inputs(), |dpp| fleet(3, dpp));
    assert_union_identical(&off_union, &on_union, "fleet ctrl", ORACLE);
}
