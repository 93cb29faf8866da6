//! What the suites share: the small RM1 workload, the runner's inputs for
//! it, and one `Driver` run over those inputs — the path the `recd-dpp`
//! CLI runs. Each suite sets its own fault plan, controller, store or fleet
//! on the inputs before driving them.

#![allow(dead_code)]

use recd_chaos::FaultPlan;
use recd_dpp::{
    Consume, DppConfig, Driver, DriverOutput, FleetConfig, ShardPolicy, Topology, TrainerBatch,
};
use recd_pipeline::{PipelineInputs, PipelineRunner, RecdConfig, RmPreset, RmSpec};
use std::sync::{Arc, Mutex};

pub const WORKERS: usize = 2;
pub const TRAINERS: usize = 3;
pub const BATCH: usize = 128;

pub fn small_spec() -> RmSpec {
    RmPreset::Rm1.spec().scaled_down(60)
}

/// The runner's continuous arm over [`small_spec`]: `WORKERS` session-affine
/// shards, `TRAINERS` least-loaded lanes.
pub fn continuous_runner() -> PipelineRunner {
    PipelineRunner::new(small_spec(), RecdConfig::full())
        .with_continuous(WORKERS)
        .with_continuous_trainers(TRAINERS)
}

/// The inputs [`continuous_runner`] runs.
pub fn continuous_inputs() -> PipelineInputs {
    continuous_runner().inputs(BATCH)
}

/// [`continuous_inputs`] with `plan` on the feed's pump clock.
pub fn inputs_with(plan: FaultPlan) -> PipelineInputs {
    let mut inputs = continuous_inputs();
    inputs.feed.plan = Some(plan);
    inputs
}

/// A fleet of `hosts` over the runner's DPP service as host template. The
/// global shard count is 3× the compute workers *independently of the fleet
/// size*, so the coordinator's file → shard placement — and with it batch
/// composition — is identical for every M. (The coordinator routes every
/// file with an explicit shard override, so the shard policy is
/// irrelevant.)
pub fn fleet(hosts: usize, dpp: DppConfig) -> Topology {
    let (shards, trainers) = (dpp.compute_workers * 3, dpp.trainers);
    let host = dpp
        .with_policy(ShardPolicy::FileRoundRobin)
        .with_shards(shards);
    Topology::Fleet(
        FleetConfig::new(host)
            .with_hosts(hosts)
            .with_trainers(trainers),
    )
}

/// Runs `inputs` through one [`Driver`] on the topology `topology` makes of
/// their DPP config, collecting what every trainer lane delivers — killed
/// lanes and survivors alike — into one union in `(shard, seq)` order.
pub fn drive(
    inputs: PipelineInputs,
    topology: impl FnOnce(DppConfig) -> Topology,
) -> (DriverOutput, Vec<TrainerBatch>) {
    let driver = Driver::new(
        inputs.store,
        &inputs.schema,
        inputs.feed,
        topology(inputs.dpp),
    )
    .unwrap_or_else(|err| panic!("{err}"));
    let collected = Arc::new(Mutex::new(Vec::new()));
    let consume: Consume = {
        let collected = Arc::clone(&collected);
        Arc::new(move |batch| collected.lock().expect("lane collector lock").push(batch))
    };
    let output = driver
        .run(consume)
        .unwrap_or_else(|err| panic!("pipeline run: {err}"));
    let mut batches = std::mem::take(&mut *collected.lock().expect("lane collector lock"));
    batches.sort_by_key(|b| (b.shard, b.seq));
    (output, batches)
}

/// Asserts two canonical unions are byte-identical; `oracle` names the run
/// `reference` came from.
pub fn assert_union_identical(
    reference: &[TrainerBatch],
    got: &[TrainerBatch],
    label: &str,
    oracle: &str,
) {
    assert_eq!(
        got.len(),
        reference.len(),
        "{label}: delivered batch count diverged from {oracle}"
    );
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        assert_eq!(
            (g.shard, g.seq),
            (r.shard, r.seq),
            "{label}: batch {i} stream position diverged"
        );
        assert_eq!(
            g.batch, r.batch,
            "{label}: batch {i} payload diverged from {oracle}"
        );
    }
}
