//! The suites' references measure what the runner runs: the runner's
//! inputs, driven through `Driver` on a single service with no fault plan
//! (the `drive` helper every suite builds its runs with), deliver the
//! byte-identical `(shard, seq, batch)` union `PipelineRunner::run` does, on
//! the batch arm and on the continuous arm.

mod common;

use common::{assert_union_identical, continuous_runner, drive, small_spec, BATCH};
use recd_dpp::Topology;
use recd_pipeline::{PipelineRunner, RecdConfig};

fn assert_drive_matches_run(runner: &PipelineRunner, label: &str) {
    let run = runner.run(BATCH).batches;
    assert!(
        run.len() >= 4,
        "{label}: the runner must deliver several batches, got {}",
        run.len()
    );
    let (_, driven) = drive(runner.inputs(BATCH), Topology::Single);
    assert_union_identical(&run, &driven, label, "the runner's run");
}

#[test]
fn batch_arm_inputs_through_driver_deliver_the_runners_union() {
    let runner = PipelineRunner::new(small_spec(), RecdConfig::full());
    assert_drive_matches_run(&runner, "batch arm");
}

#[test]
fn continuous_arm_inputs_through_driver_deliver_the_runners_union() {
    assert_drive_matches_run(&continuous_runner(), "continuous arm");
}
