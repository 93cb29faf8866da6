//! The end-to-end pipeline runner.

use crate::config::{RecdConfig, RmSpec};
use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_data::Schema;
use recd_datagen::DatasetGenerator;
use recd_dpp::{
    Consume, DppConfig, DppReport, Driver, ShardPolicy, TailFeed, Topology, TrainerAssignPolicy,
    TrainerBatch,
};
use recd_etl::{EtlServiceReport, EtlStreamConfig, TableLayout};
use recd_reader::ReaderConfig;
use recd_scribe::{LogTail, ScribeCluster, ScribeConfig, ScribeReport, ShardKeyPolicy, TailConfig};
use recd_storage::{TableStore, TectonicSim};
use recd_trainer::{
    ClusterSpec, DlrmConfig, IterationCost, MemoryReport, TrainerOptimizations, WorkStats,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Everything measured by one end-to-end pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// RM preset name.
    pub rm: String,
    /// The ablation rung run.
    pub config: RecdConfig,
    /// Global batch size used for reading and training.
    pub batch_size: usize,
    /// Samples that flowed through the pipeline.
    pub samples: usize,
    /// Scribe tier byte accounting (O1).
    pub scribe: ScribeReport,
    /// Streaming ETL accounting (join, seals, landing); its `storage` is the
    /// table's byte accounting (O2).
    pub etl: EtlServiceReport,
    /// The DPP service's accounting. Its `reader_metrics` are the per-phase
    /// work counters (O3, O4) that Figures 7 and 10 and Table 4 model reader
    /// time from through [`ReaderCostModel`](recd_reader::ReaderCostModel),
    /// and its `egress_bytes` the bytes readers sent toward trainers.
    pub dpp: DppReport,
    /// Modeled training iteration cost (O5–O7).
    pub trainer: IterationCost,
    /// Modeled GPU memory usage.
    pub memory: MemoryReport,
    /// Measured average in-batch deduplication factor over grouped features.
    pub dedupe_factor: f64,
    /// Total bytes readers fetched from storage.
    pub read_bytes: usize,
}

/// The report plus the artifacts downstream experiments reuse.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// The dataset schema.
    pub schema: Schema,
    /// Every batch the trainer lanes delivered, in `(shard, seq)` order.
    pub batches: Vec<TrainerBatch>,
    /// The model configuration derived from the RM spec.
    pub model: DlrmConfig,
    /// The run's measurements.
    pub report: PipelineReport,
}

/// What one run hands its [`Driver`]: built by [`PipelineRunner::inputs`],
/// driven on a single service by [`PipelineRunner::run`]. A caller that
/// wants a fault plan, a controller, another store or a fleet sets it on
/// these and calls [`Driver::new`] itself, as the `recd-dpp` CLI does.
#[derive(Debug)]
pub struct PipelineInputs {
    /// The dataset schema.
    pub schema: Schema,
    /// Scribe tier byte accounting (O1) of the drained log.
    pub scribe: ScribeReport,
    /// The drained log as a tail, with the arm's jitter and ETL layout.
    pub feed: TailFeed,
    /// The arm's DPP service, its trainer lanes assigned least-loaded.
    pub dpp: DppConfig,
    /// Where partitions land and are read from: a flat 8-node store.
    pub store: Arc<TableStore>,
}

/// Runs one RM workload through the full pipeline under a given
/// [`RecdConfig`].
#[derive(Debug, Clone)]
pub struct PipelineRunner {
    spec: RmSpec,
    config: RecdConfig,
    continuous_workers: Option<usize>,
    continuous_trainers: usize,
}

impl PipelineRunner {
    /// Creates a runner.
    pub fn new(spec: RmSpec, config: RecdConfig) -> Self {
        Self {
            spec,
            config,
            continuous_workers: None,
            continuous_trainers: 0,
        }
    }

    /// Runs the *continuous* arm: the Scribe drain arrives with up to 2 s of
    /// jitter, and the DPP service routes sessions across `compute_workers`
    /// shards with as many compute workers. Without it the run is the batch
    /// arm: a punctual tail, and every landed partition read with files
    /// round-robin over the default two shards.
    #[must_use]
    pub fn with_continuous(mut self, compute_workers: usize) -> Self {
        self.continuous_workers = Some(compute_workers.max(1));
        self
    }

    /// Fans preprocessed batches out to `trainers` simulated trainer lanes,
    /// each drained by its own consumer thread. Lanes are assigned
    /// least-loaded (not shard-pinned) so a killed lane's traffic re-routes
    /// to the survivors instead of being dropped. `0` (the default) means
    /// one lane.
    #[must_use]
    pub fn with_continuous_trainers(mut self, trainers: usize) -> Self {
        self.continuous_trainers = trainers;
        self
    }

    /// Builds the run's inputs with the given global batch size: generate
    /// the logs, drain them through Scribe, and configure the tail, the
    /// streaming ETL and the DPP service for this runner's rung and arm.
    pub fn inputs(&self, batch_size: usize) -> PipelineInputs {
        let spec = &self.spec;
        let config = self.config;

        // 1. Data generation: raw inference-time logs.
        let generator = DatasetGenerator::new(spec.sized_workload());
        let schema = generator.schema().clone();
        let (records, _) = generator.generate_logs();

        // 2. Scribe (O1): shard, buffer, compress, then drain for ETL.
        let policy = if config >= RecdConfig::ClusteredTable {
            ShardKeyPolicy::SessionId
        } else {
            ShardKeyPolicy::RandomRequest
        };
        let mut scribe = ScribeCluster::new(ScribeConfig {
            flush_bytes: 128 * 1024,
            ..ScribeConfig::with_policy(policy)
        });
        scribe.ingest_all(&records);
        scribe.flush();
        let scribe_report = scribe.report();
        let drained = scribe
            .drain()
            .expect("scribe blocks written by this run decode");

        // 3. The driver's configs: ETL (O2) and the DPP tier (O3, O4).
        let layout = if config >= RecdConfig::ClusteredTable {
            TableLayout::ClusteredBySession
        } else {
            TableLayout::TimeOrdered
        };
        let dataloader = if config >= RecdConfig::DedupEmb {
            DataLoaderConfig::from_schema(&schema)
        } else {
            DataLoaderConfig::baseline_from_schema(&schema)
        };
        let reader = ReaderConfig::new(batch_size, dataloader);
        let (jitter_ms, dpp) = match self.continuous_workers {
            None => (
                0,
                DppConfig::new(reader).with_policy(ShardPolicy::FileRoundRobin),
            ),
            Some(workers) => (
                2_000,
                DppConfig::new(reader)
                    .with_compute_workers(workers)
                    .with_fill_workers(2)
                    .with_policy(ShardPolicy::SessionAffine)
                    .with_shards(workers),
            ),
        };
        // Every batch reaches the collector through a trainer lane.
        let dpp = dpp
            .with_trainers(self.continuous_trainers.max(1))
            .with_assign_policy(TrainerAssignPolicy::LeastLoaded);
        let tail_config = TailConfig::default()
            .with_jitter_ms(jitter_ms)
            .with_seed(spec.sized_workload().seed);
        let feed = TailFeed {
            tail: LogTail::new(drained, &tail_config),
            stream: EtlStreamConfig::new(layout).with_window_ms(10_000),
            table: spec.preset.name().to_string(),
            step_ms: 60_000,
            plan: None,
        };
        PipelineInputs {
            schema,
            scribe: scribe_report,
            feed,
            dpp,
            store: Arc::new(TableStore::new(TectonicSim::new(8), 64, 4)),
        }
    }

    /// Runs the pipeline with the given global batch size: hands
    /// [`inputs`](Self::inputs) to one [`Driver`] run on a single service —
    /// tail → streaming ETL (join, hourly seal, layout, land) → DPP service
    /// (O3, O4) → trainer lanes — whose per-pump schedule is documented on
    /// [`recd_dpp::driver`], then models the trainer over what the lanes
    /// delivered. The driver closes every landed partition with a barrier,
    /// so no batch spans two partitions.
    pub fn run(&self, batch_size: usize) -> PipelineArtifacts {
        let PipelineInputs {
            schema,
            scribe,
            feed,
            dpp,
            store,
        } = self.inputs(batch_size);
        let driver = Driver::new(Arc::clone(&store), &schema, feed, Topology::Single(dpp))
            .unwrap_or_else(|err| panic!("{err}"));
        // Simulated trainers collect what their lanes deliver.
        let collected = Arc::new(Mutex::new(Vec::new()));
        let consume: Consume = {
            let collected = Arc::clone(&collected);
            Arc::new(move |batch| collected.lock().expect("lane collector lock").push(batch))
        };
        let output = driver
            .run(consume)
            .unwrap_or_else(|err| panic!("pipeline run: {err}"));
        let mut batches = std::mem::take(&mut *collected.lock().expect("lane collector lock"));
        batches.sort_by_key(|b: &TrainerBatch| (b.shard, b.seq));

        // 4. Trainer cost model (O5–O7) over the produced batches.
        let spec = &self.spec;
        let model = DlrmConfig::from_schema(&schema, spec.embedding_dim, spec.sequence_pooling);
        let (trainer, memory, dedupe_factor) = evaluate_trainer(
            &batches,
            &model,
            self.config.trainer_optimizations(),
            &spec.cluster(),
            batch_size,
        );

        let report = PipelineReport {
            rm: spec.preset.name().to_string(),
            config: self.config,
            batch_size,
            samples: batches.iter().map(|b| b.batch.batch_size).sum(),
            scribe,
            etl: output.etl,
            read_bytes: store.blob_store().stats().read_bytes,
            dpp: output.dpp,
            trainer,
            memory,
            dedupe_factor,
        };

        PipelineArtifacts {
            schema,
            batches,
            model,
            report,
        }
    }
}

/// Averages the trainer cost model over the full-size batches of a run.
pub fn evaluate_trainer(
    batches: &[TrainerBatch],
    model: &DlrmConfig,
    opts: TrainerOptimizations,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> (IterationCost, MemoryReport, f64) {
    // Prefer full batches (the trailing batch is usually short).
    let all = batches.iter().map(|b| &b.batch);
    let full: Vec<&ConvertedBatch> = all.clone().filter(|b| b.batch_size == batch_size).collect();
    let considered: Vec<&ConvertedBatch> = if full.is_empty() { all.collect() } else { full };
    if considered.is_empty() {
        return (IterationCost::default(), MemoryReport::default(), 1.0);
    }

    let mut avg = WorkStats::default();
    let mut dedupe = 0.0;
    for batch in &considered {
        let work = WorkStats::from_batch(batch, model, opts);
        avg.batch_size += work.batch_size;
        avg.sdd_bytes += work.sdd_bytes;
        avg.emb_lookups += work.emb_lookups;
        avg.emb_activation_bytes += work.emb_activation_bytes;
        avg.pooling_flops += work.pooling_flops;
        avg.mlp_flops += work.mlp_flops;
        avg.emb_output_a2a_bytes += work.emb_output_a2a_bytes;
        avg.index_select_bytes += work.index_select_bytes;
        avg.allreduce_bytes = work.allreduce_bytes;
        dedupe += batch.dedupe_factor();
    }
    let n = considered.len() as f64;
    avg.batch_size = (avg.batch_size as f64 / n).round() as usize;
    avg.sdd_bytes /= n;
    avg.emb_lookups /= n;
    avg.emb_activation_bytes /= n;
    avg.pooling_flops /= n;
    avg.mlp_flops /= n;
    avg.emb_output_a2a_bytes /= n;
    avg.index_select_bytes /= n;

    let emb_param_bytes = model.sparse_feature_count() as f64
        * model.hash_buckets as f64
        * model.embedding_dim as f64
        * 4.0;
    let cost = IterationCost::evaluate(&avg, cluster);
    let memory = MemoryReport::evaluate(&avg, cluster, emb_param_bytes);
    (cost, memory, dedupe / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RmPreset;

    fn small_spec() -> RmSpec {
        RmPreset::Rm1.spec().scaled_down(60)
    }

    #[test]
    fn full_pipeline_beats_baseline_on_every_axis() {
        let spec = small_spec();
        let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(128);
        let recd = PipelineRunner::new(spec, RecdConfig::full()).run(128);

        let b = &baseline.report;
        let r = &recd.report;
        assert_eq!(b.samples, r.samples, "both runs must see the same samples");

        // O1: better Scribe compression.
        assert!(r.scribe.compression_ratio > b.scribe.compression_ratio);
        // O2: better table compression, fewer stored bytes.
        assert!(r.etl.storage.compression_ratio() > b.etl.storage.compression_ratio());
        assert!(r.read_bytes < b.read_bytes);
        // O3/O4: smaller reader egress and real dedupe factor.
        assert!(r.dpp.egress_bytes < b.dpp.egress_bytes);
        assert!(r.dedupe_factor > 1.2);
        assert!((b.dedupe_factor - 1.0).abs() < 1e-9);
        // O5–O7: higher modeled training throughput and lower memory.
        assert!(r.trainer.throughput > b.trainer.throughput);
        assert!(r.memory.max_utilization < b.memory.max_utilization);
    }

    #[test]
    fn artifacts_contain_usable_batches() {
        let artifacts = PipelineRunner::new(small_spec(), RecdConfig::full()).run(128);
        let batches = &artifacts.batches;
        assert!(!batches.is_empty());
        assert!(batches.iter().all(|b| b.batch.batch_size > 0));
        assert!(batches
            .windows(2)
            .all(|w| (w[0].shard, w[0].seq) < (w[1].shard, w[1].seq)));
        assert_eq!(
            artifacts.model.dense_features,
            artifacts.schema.dense_count()
        );
        // Most batches carry IKJTs under the full config.
        assert!(batches.iter().any(|b| !b.batch.ikjts.is_empty()));
        // The reader accounting is the DPP run's own, batch for batch, and
        // every landed partition was closed by one barrier.
        let report = &artifacts.report;
        let reader = report.dpp.reader_metrics;
        assert_eq!(reader.samples, report.samples);
        assert_eq!(reader.batches, batches.len());
        assert_eq!(reader.egress_bytes, report.dpp.egress_bytes);
        assert_eq!(reader.barrier_flushes as u64, report.etl.landed_partitions);
        assert_eq!(report.dpp.partitions_ingested, report.etl.landed_partitions);
    }

    #[test]
    fn continuous_arm_lands_and_delivers_what_the_batch_arm_does() {
        let batch = PipelineRunner::new(small_spec(), RecdConfig::full()).run(128);
        let continuous = PipelineRunner::new(small_spec(), RecdConfig::full())
            .with_continuous(2)
            .run(128);
        let (b, c) = (&batch.report, &continuous.report);

        // The jittered tail joined every record (the window covers the
        // jitter) and sealed the same rows the punctual one landed.
        let counters = c.etl.etl.counters;
        assert_eq!(counters.late_drops, 0);
        assert_eq!(counters.orphaned_features + counters.orphaned_events, 0);
        assert_eq!(counters.sealed_rows as usize, c.samples);
        assert_eq!(c.etl.storage, b.etl.storage);
        assert_eq!(c.etl.landed_partitions, b.etl.landed_partitions);
        assert_eq!(c.dpp.partitions_ingested, c.etl.landed_partitions);
        assert_eq!(c.samples, b.samples);
        assert!(c.dpp.dedupe_factor > 1.0);
    }

    #[test]
    fn evaluate_trainer_handles_empty_input() {
        let spec = small_spec();
        let schema = spec.sized_workload().schema();
        let model = DlrmConfig::from_schema(&schema, 16, recd_trainer::PoolingKind::Sum);
        let (cost, memory, dedupe) = evaluate_trainer(
            &[],
            &model,
            TrainerOptimizations::all(),
            &spec.cluster(),
            128,
        );
        assert_eq!(cost.throughput, 0.0);
        assert_eq!(memory.max_utilization, 0.0);
        assert_eq!(dedupe, 1.0);
    }
}
