//! The end-to-end pipeline runner.

use crate::config::{RecdConfig, RmSpec};
use recd_chaos::{ChaosReport, FaultPlan};
use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_data::Schema;
use recd_datagen::DatasetGenerator;
use recd_dpp::{
    Consume, CtrlConfig, DppConfig, DppReport, Driver, FleetConfig, FleetReport, ShardPolicy,
    TailFeed, Topology, TrainerAssignPolicy, TrainerBatch,
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
    /// The optimization switches used.
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
    /// The DPP tier's accounting (in a fleet, the fleet-level aggregate).
    /// Its `reader_metrics` are the per-phase work counters (O3, O4) that
    /// Figures 7 and 10 and Table 4 model reader time from through
    /// [`ReaderCostModel`](recd_reader::ReaderCostModel).
    pub dpp: DppReport,
    /// Fleet control-plane accounting (heartbeats, deaths, replay,
    /// rebalance), present when the runner was configured with
    /// [`PipelineRunner::with_hosts`].
    #[serde(default)]
    pub fleet: Option<FleetReport>,
    /// Modeled training iteration cost (O5–O7).
    pub trainer: IterationCost,
    /// Modeled GPU memory usage.
    pub memory: MemoryReport,
    /// Measured average in-batch deduplication factor over grouped features.
    pub dedupe_factor: f64,
    /// Total bytes readers fetched from storage.
    pub read_bytes: usize,
    /// Total bytes readers sent toward trainers.
    pub egress_bytes: usize,
    /// Chaos-engine accounting (faults fired, retries, backoff, pump
    /// crash/recovery), present when the runner was configured with
    /// [`PipelineRunner::with_chaos`].
    pub chaos: Option<ChaosReport>,
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

/// Runs one RM workload through the full pipeline under a given
/// [`RecdConfig`].
#[derive(Debug, Clone)]
pub struct PipelineRunner {
    spec: RmSpec,
    config: RecdConfig,
    continuous_workers: Option<usize>,
    continuous_trainers: usize,
    hosts: usize,
    chaos: Option<FaultPlan>,
    storage: Option<TectonicSim>,
    ctrl: Option<CtrlConfig>,
}

impl PipelineRunner {
    /// Creates a runner.
    pub fn new(spec: RmSpec, config: RecdConfig) -> Self {
        Self {
            spec,
            config,
            continuous_workers: None,
            continuous_trainers: 0,
            hosts: 0,
            chaos: None,
            storage: None,
            ctrl: None,
        }
    }

    /// Lands and reads through `store` (say, one with a per-node queue
    /// model or a cache tier) instead of a fresh flat 8-node store. Clones
    /// of a store share its state, so every run of this runner uses that
    /// one store.
    #[must_use]
    pub fn with_storage(mut self, store: TectonicSim) -> Self {
        self.storage = Some(store);
        self
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
    /// to the survivors instead of being dropped — the behavior the chaos
    /// engine's `kill-trainer` fault exercises. `0` (the default) means one
    /// lane.
    #[must_use]
    pub fn with_continuous_trainers(mut self, trainers: usize) -> Self {
        self.continuous_trainers = trainers;
        self
    }

    /// Runs the DPP tier as a *disaggregated fleet* of `hosts` simulated
    /// preprocessing hosts behind the fault-tolerant control plane
    /// ([`recd_dpp::DppFleet`]): the coordinator owns the global file →
    /// shard placement, heartbeats every host on the pump clock, and heals
    /// `kill-host`/`partition-host`/`rejoin-host` chaos faults with bounded
    /// replay from the per-pump barrier cuts. The global shard count is fixed
    /// by the compute-worker count alone, so the union of trainer batches is
    /// byte-identical for every fleet size and failure schedule. Passing `0`
    /// (the default) keeps the in-process single service; the control-plane
    /// accounting lands in [`PipelineReport::fleet`].
    #[must_use]
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Runs the pipeline under the given chaos [`FaultPlan`]: storage faults
    /// apply directly to the blob store, trainer stall/kill faults apply to
    /// the fan-out lanes, and `crash-pump` tears the ETL service down and
    /// resumes it from the latest ETL checkpoint — replayed partitions are
    /// absorbed by the DPP service's ingest dedup, so the trainer-batch union
    /// stays byte-identical to a fault-free run. Implies the continuous arm
    /// (with two compute workers unless [`PipelineRunner::with_continuous`]
    /// overrides it); the run's chaos accounting lands in
    /// [`PipelineReport::chaos`].
    ///
    /// An *empty* plan is the canonical fault-free reference: it runs the
    /// identical barrier/checkpoint schedule with no faults, which is what
    /// the convergence tests compare against.
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        if self.continuous_workers.is_none() {
            self.continuous_workers = Some(2);
        }
        self.chaos = Some(plan);
        self
    }

    /// Runs the DPP tier under the unified PID backpressure controller: the
    /// controller samples trainer-lane depths, the DPP queues, and the ETL
    /// tail lag, resizes the fill/compute pools toward its queue setpoint,
    /// and holds the ETL pump while trainer lanes are the bottleneck. The
    /// controller only changes *when* work happens, never what is produced —
    /// trainer-batch unions stay byte-identical to an uncontrolled run. The
    /// controller's accounting lands in [`DppReport::ctrl`].
    #[must_use]
    pub fn with_ctrl(mut self, ctrl: CtrlConfig) -> Self {
        self.ctrl = Some(ctrl);
        self
    }

    /// Borrows the RM spec.
    pub fn spec(&self) -> &RmSpec {
        &self.spec
    }

    /// Runs the pipeline with the given global batch size: generate the
    /// logs, drain them through Scribe, then hand the drained log to one
    /// [`Driver`] run — tail → streaming ETL (join, hourly seal, layout,
    /// land) → DPP service or fleet (O3, O4) → trainer lanes — whose
    /// per-pump schedule is documented on [`recd_dpp::driver`]. The driver
    /// closes every landed partition with a barrier, so no batch spans two
    /// partitions.
    pub fn run(&self, batch_size: usize) -> PipelineArtifacts {
        let spec = &self.spec;
        let config = self.config;

        // 1. Data generation: raw inference-time logs.
        let generator = DatasetGenerator::new(spec.sized_workload());
        let schema = generator.schema().clone();
        let (records, _) = generator.generate_logs();

        // 2. Scribe (O1): shard, buffer, compress, then drain for ETL.
        let policy = if config.o1_log_sharding {
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

        // 3. One driver run: ETL (O2) and the DPP tier (O3, O4).
        let layout = if config.o2_cluster_by_session {
            TableLayout::ClusteredBySession
        } else {
            TableLayout::TimeOrdered
        };
        let dataloader = if config.o3_ikjt {
            DataLoaderConfig::from_schema(&schema)
        } else {
            DataLoaderConfig::baseline_from_schema(&schema)
        };
        let reader = ReaderConfig::new(batch_size, dataloader);
        let (jitter_ms, mut dpp) = match self.continuous_workers {
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
        if let Some(ctrl) = &self.ctrl {
            dpp = dpp.with_ctrl(ctrl.clone());
        }
        // Every batch reaches the collector through a trainer lane.
        let trainers = self.continuous_trainers.max(1);
        let topology = if self.hosts > 0 {
            // Host template. The global shard count is 3× the compute
            // workers *independently of the fleet size*, so the coordinator's
            // file → shard placement — and with it batch composition — is
            // identical for every M: the byte-identity the fleet convergence
            // tests assert. (The coordinator routes every file with an
            // explicit shard override, so the shard policy is irrelevant.)
            let shards = dpp.compute_workers * 3;
            let host = dpp
                .with_policy(ShardPolicy::FileRoundRobin)
                .with_shards(shards);
            Topology::Fleet(
                FleetConfig::new(host)
                    .with_hosts(self.hosts)
                    .with_trainers(trainers),
            )
        } else {
            Topology::Single(
                dpp.with_trainers(trainers)
                    .with_assign_policy(TrainerAssignPolicy::LeastLoaded),
            )
        };
        let tail_config = TailConfig::default()
            .with_jitter_ms(jitter_ms)
            .with_seed(spec.sized_workload().seed);
        let feed = TailFeed {
            tail: LogTail::new(drained, &tail_config),
            stream: EtlStreamConfig::new(layout).with_window_ms(10_000),
            table: spec.preset.name().to_string(),
            step_ms: 60_000,
            plan: self.chaos.clone(),
        };
        let blob = self.storage.clone().unwrap_or_else(|| TectonicSim::new(8));
        let store = Arc::new(TableStore::new(blob, 64, 4));
        let driver = Driver::new(Arc::clone(&store), &schema, feed, topology)
            .unwrap_or_else(|err| panic!("{err}"));
        // Simulated trainers collect what their lanes deliver; killed lanes
        // and survivors alike land in the one union.
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
        let model = DlrmConfig::from_schema(&schema, spec.embedding_dim, spec.sequence_pooling);
        let opts = TrainerOptimizations {
            dedup_emb: config.o5_dedup_emb,
            jagged_index_select: config.o6_jagged_index_select,
            dedup_compute: config.o7_dedup_compute,
        };
        let cluster = spec.cluster();
        let (trainer, memory, dedupe_factor) =
            evaluate_trainer(&batches, &model, opts, &cluster, batch_size);

        let report = PipelineReport {
            rm: spec.preset.name().to_string(),
            config,
            batch_size,
            samples: batches.iter().map(|b| b.batch.batch_size).sum(),
            scribe: scribe_report,
            etl: output.etl,
            read_bytes: store.blob_store().stats().read_bytes,
            egress_bytes: output.dpp.egress_bytes,
            dpp: output.dpp,
            fleet: output.fleet.map(|(report, _hosts)| report),
            trainer,
            memory,
            dedupe_factor,
            chaos: output.chaos,
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
        assert!(r.egress_bytes < b.egress_bytes);
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
        assert_eq!(reader.egress_bytes, report.egress_bytes);
        assert_eq!(reader.barrier_flushes as u64, report.etl.landed_partitions);
        assert_eq!(report.dpp.partitions_ingested, report.etl.landed_partitions);
        assert!(report.fleet.is_none() && report.chaos.is_none());
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
        assert!(
            c.fleet.is_none(),
            "single-service mode carries no fleet report"
        );
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
