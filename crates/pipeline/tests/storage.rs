//! Storage-realism equivalence: enabling the per-node queue model and the
//! blob cache tier changes *when* bytes arrive, never *which* bytes. The
//! continuous run's trainer-batch union and the batch run's payload
//! accounting must be byte-identical to the flat-latency path. Each run is
//! one of the runner's arms with the store swapped on its inputs, driven
//! through `Driver` as the `recd-dpp` CLI drives it.

mod common;

use common::{continuous_inputs, drive, small_spec, BATCH};
use recd_dpp::{DriverOutput, Topology, TrainerBatch};
use recd_pipeline::{PipelineInputs, PipelineRunner, RecdConfig};
use recd_storage::{NodeConfig, TableStore, TectonicSim};
use std::sync::Arc;

/// The runner's own flat store: 8 nodes, no queueing, no cache.
fn flat_storage() -> TectonicSim {
    TectonicSim::new(8)
}

/// Fast nodes (50µs/op, 512 MiB/s) so queue waits are real but the smoke
/// workload still finishes promptly, behind an 8 MiB cache.
fn realistic_storage() -> TectonicSim {
    TectonicSim::new(8)
        .with_node_config(NodeConfig::new(20_000.0, 512.0 * 1024.0 * 1024.0))
        .with_cache(8 << 20)
}

/// Drives `inputs` on a single service over `storage` (in the runner's
/// stripe shape); also returns the bytes readers fetched from it.
fn run_on(
    mut inputs: PipelineInputs,
    storage: TectonicSim,
) -> (DriverOutput, Vec<TrainerBatch>, usize) {
    inputs.store = Arc::new(TableStore::new(storage, 64, 4));
    let store = Arc::clone(&inputs.store);
    let (output, batches) = drive(inputs, Topology::Single);
    (output, batches, store.blob_store().stats().read_bytes)
}

#[test]
fn queued_and_cached_storage_delivers_a_byte_identical_union() {
    let (flat, reference, _) = run_on(continuous_inputs(), flat_storage());
    let (realistic, got, _) = run_on(continuous_inputs(), realistic_storage());

    assert!(
        reference.len() >= 4,
        "reference must deliver several batches, got {}",
        reference.len()
    );
    assert_eq!(
        got.len(),
        reference.len(),
        "queue+cache storage changed the delivered batch count"
    );
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(
            (g.shard, g.seq),
            (r.shard, r.seq),
            "batch {i} stream position diverged under queue+cache storage"
        );
        assert_eq!(
            g.batch, r.batch,
            "batch {i} payload diverged under queue+cache storage"
        );
    }

    // The landed bytes agree too: storage realism is latency-only.
    assert_eq!(flat.etl.storage, realistic.etl.storage);
    assert_eq!(flat.dpp.samples, realistic.dpp.samples);
}

#[test]
fn batch_pipeline_reports_agree_across_storage_models() {
    let run = |storage: TectonicSim| {
        let runner = PipelineRunner::new(small_spec(), RecdConfig::full());
        run_on(runner.inputs(BATCH), storage)
    };
    let (flat, flat_batches, flat_read) = run(flat_storage());
    let (realistic, realistic_batches, realistic_read) = run(realistic_storage());

    assert_eq!(flat.dpp.samples, realistic.dpp.samples);
    assert_eq!(flat.etl.storage, realistic.etl.storage);
    assert_eq!(flat_read, realistic_read);
    assert_eq!(flat.dpp.egress_bytes, realistic.dpp.egress_bytes);
    assert_eq!(flat_batches.len(), realistic_batches.len());
    for (i, (f, r)) in flat_batches.iter().zip(&realistic_batches).enumerate() {
        assert_eq!(
            (f.shard, f.seq, &f.batch),
            (r.shard, r.seq, &r.batch),
            "preprocessed batch {i} diverged across storage models"
        );
    }
}
