//! Storage-realism equivalence: enabling the per-node queue model and the
//! blob cache tier changes *when* bytes arrive, never *which* bytes. The
//! continuous run's trainer-batch union and the batch run's payload
//! accounting must be byte-identical to the flat-latency path.

use recd_pipeline::{PipelineRunner, RecdConfig, RmPreset, RmSpec};
use recd_storage::{NodeConfig, TectonicSim};

const WORKERS: usize = 2;
const TRAINERS: usize = 3;
const BATCH: usize = 128;

fn small_spec() -> RmSpec {
    RmPreset::Rm1.spec().scaled_down(60)
}

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

fn run_continuous(storage: TectonicSim) -> recd_pipeline::run::PipelineArtifacts {
    PipelineRunner::new(small_spec(), RecdConfig::full())
        .with_continuous(WORKERS)
        .with_continuous_trainers(TRAINERS)
        .with_storage(storage)
        .run(BATCH)
}

#[test]
fn queued_and_cached_storage_delivers_a_byte_identical_union() {
    let flat = run_continuous(flat_storage());
    let realistic = run_continuous(realistic_storage());

    let reference = flat.batches;
    let got = realistic.batches;
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
    assert_eq!(flat.report.etl.storage, realistic.report.etl.storage);
    assert_eq!(flat.report.samples, realistic.report.samples);
}

#[test]
fn batch_pipeline_reports_agree_across_storage_models() {
    let run = |storage: TectonicSim| {
        PipelineRunner::new(small_spec(), RecdConfig::full())
            .with_storage(storage)
            .run(BATCH)
    };
    let flat = run(flat_storage());
    let realistic = run(realistic_storage());

    assert_eq!(flat.report.samples, realistic.report.samples);
    assert_eq!(flat.report.etl.storage, realistic.report.etl.storage);
    assert_eq!(flat.report.read_bytes, realistic.report.read_bytes);
    assert_eq!(flat.report.egress_bytes, realistic.report.egress_bytes);
    assert_eq!(flat.batches.len(), realistic.batches.len());
    for (i, (f, r)) in flat.batches.iter().zip(&realistic.batches).enumerate() {
        assert_eq!(
            (f.shard, f.seq, &f.batch),
            (r.shard, r.seq, &r.batch),
            "preprocessed batch {i} diverged across storage models"
        );
    }
}
