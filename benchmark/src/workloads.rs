//! The four workloads and the pipeline configuration they all share.
//!
//! Everything here is fixed in the definition, never derived from the host:
//! a result is only comparable to another if both ran the same work on the
//! same pipeline shape.

use recd::core::DataLoaderConfig;
use recd::data::{FeatureClass, Schema};
use recd::datagen::WorkloadConfig;
use recd::dpp::{DppConfig, ShardPolicy, TrainerAssignPolicy};
use recd::etl::TableLayout;
use recd::pipeline::RmPreset;
use recd::reader::{PreprocessPipeline, ReaderConfig};
use recd::storage::{TableStore, TectonicSim};
use std::sync::Arc;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds used when none is given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Rows per trainer batch.
pub const BATCH: usize = 512;
/// A landing pump contributes a latency sample only if it landed at least
/// one full batch: remnant partitions (< 1 ms) and full hours (tens of ms)
/// are two populations, and a median over both would sit in the gap.
pub const MIN_LATENCY_ROWS: usize = BATCH;

/// What the trainer-side consumer does with a batch, and where an epoch's
/// data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Re-read a table landed in set-up; the consumer counts and discards.
    Preproc,
    /// Re-read a table landed in set-up; the consumer trains on every batch.
    Train,
    /// Every epoch writes then reads: scribe → log tail → streaming ETL →
    /// land → ingest; the consumer counts and discards.
    Tail,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Its `why` is recorded beside the name in `BENCHMARK.json`.
    pub name: &'static str,
    pub kind: Kind,
    pub layout: TableLayout,
    datagen: fn() -> WorkloadConfig,
}

impl Workload {
    /// The generator configuration for `seed`. The seed is the only input
    /// that varies between runs.
    pub fn datagen(&self, seed: u64) -> WorkloadConfig {
        (self.datagen)().with_seed(seed)
    }
}

/// Log-space σ of the samples-per-session distribution, lowered from the RM
/// presets' 1.2. At 1.2 a draw of 1 000 sessions moves the sample count by
/// ±6 % and the dedupe factor by ±4 % from seed to seed; a seed should vary
/// the ids a run sees, not the shape of its workload.
const SESSION_SIGMA: f64 = 0.5;

fn rm1(sessions: usize) -> WorkloadConfig {
    let mut config = RmPreset::Rm1.spec().workload.with_sessions(sessions);
    config.samples_per_session_sigma = SESSION_SIGMA;
    config
}

/// RM1's schema with the duplication taken out: sessions of ~1.3 samples and
/// user features that change on nine impressions out of ten.
fn rm1_lowdup() -> WorkloadConfig {
    let mut config = rm1(12_000);
    config.samples_per_session_mean = 1.3;
    config.samples_per_session_sigma = 0.3;
    for profile in &mut config.profiles {
        if profile.class == FeatureClass::User {
            profile.stay_prob = 0.1;
        }
    }
    config
}

/// RM3 with the generation window widened to 8 h, so that the hourly
/// partitions the streaming ETL seals are of comparable size.
fn rm3_tail() -> WorkloadConfig {
    let mut config = RmPreset::Rm3.spec().workload.with_sessions(3_000);
    config.window_ms = 8 * recd::data::Timestamp::MILLIS_PER_HOUR;
    config.samples_per_session_sigma = SESSION_SIGMA;
    config
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "preproc_rm1",
        kind: Kind::Preproc,
        layout: TableLayout::ClusteredBySession,
        datagen: || rm1(1_000),
    },
    Workload {
        name: "preproc_lowdup",
        kind: Kind::Preproc,
        layout: TableLayout::TimeOrdered,
        datagen: rm1_lowdup,
    },
    Workload {
        name: "train_rm1",
        kind: Kind::Train,
        layout: TableLayout::ClusteredBySession,
        datagen: || rm1(300),
    },
    Workload {
        name: "tail_rm3",
        kind: Kind::Tail,
        layout: TableLayout::ClusteredBySession,
        datagen: rm3_tail,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The blob store every workload lands into: 8 flat nodes, no queueing, no
/// cache; 64-row stripes, 4 stripes per file.
pub fn new_store() -> Arc<TableStore> {
    Arc::new(TableStore::new(TectonicSim::new(8), 64, 4))
}

/// The preprocessing every reader applies.
pub fn preprocess() -> PreprocessPipeline {
    PreprocessPipeline::standard(1 << 20, 64)
}

/// The one DPP shape every workload runs: 1 fill worker, 1 compute worker, 2
/// session-affine shards, 1 least-loaded trainer lane, default queue depths
/// of 8; no controller, scaler, chaos or fleet.
pub fn dpp_config(schema: &Schema) -> DppConfig {
    DppConfig::new(ReaderConfig::new(
        BATCH,
        DataLoaderConfig::from_schema(schema),
    ))
    .with_fill_workers(1)
    .with_compute_workers(1)
    .with_shards(2)
    .with_policy(ShardPolicy::SessionAffine)
    .with_trainers(1)
    .with_assign_policy(TrainerAssignPolicy::LeastLoaded)
    .with_pipeline_factory(preprocess)
}
