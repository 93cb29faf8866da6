//! The end-to-end pipeline runner.

use crate::config::{RecdConfig, RmSpec};
use recd_chaos::{ChaosReport, FaultPlan};
use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_data::{LogRecord, Schema};
use recd_datagen::DatasetGenerator;
use recd_dpp::{
    Consume, CtrlConfig, DppConfig, DppReport, DppService, Driver, Feed, FleetConfig, FleetReport,
    ShardPolicy, TailFeed, Topology, TrainerAssignPolicy, TrainerBatch,
};
use recd_etl::{EtlJob, EtlServiceReport, EtlStreamConfig, TableLayout};
use recd_reader::{ReaderConfig, ReaderMetrics};
use recd_scribe::{LogTail, ScribeCluster, ScribeConfig, ScribeReport, ShardKeyPolicy, TailConfig};
use recd_storage::{NodeConfig, StorageReport, TableStore, TectonicSim};
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
    /// Storage byte accounting (O2).
    pub storage: StorageReport,
    /// Reader tier accounting (O3, O4): the per-phase work counters of the
    /// DPP service runs that read every landed partition. Figures 7 and 10
    /// and Table 4 model reader time from these counters through
    /// [`ReaderCostModel`](recd_reader::ReaderCostModel).
    pub reader: ReaderMetrics,
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
    /// Continuous-pipeline accounting (log tail → streaming ETL → land →
    /// `recd-dpp` ingest), present when the runner was configured with
    /// [`PipelineRunner::with_continuous`].
    pub continuous: Option<ContinuousReport>,
    /// Chaos-engine accounting (faults fired, retries, backoff, pump
    /// crash/recovery), present when the runner was configured with
    /// [`PipelineRunner::with_chaos`].
    pub chaos: Option<ChaosReport>,
}

/// Accounting of one continuous (tail-fed) pipeline run: the streaming ETL
/// stage's join/seal/land report plus the `recd-dpp` service report of the
/// run that consumed its landed partitions as they appeared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContinuousReport {
    /// Streaming ETL accounting (join, watermark, seals, landing).
    pub etl: EtlServiceReport,
    /// The consuming `recd-dpp` service's accounting
    /// (`partitions_ingested` counts the hand-offs). In fleet mode this is
    /// the fleet-level aggregate: `samples`/`batches` count unique forwarded
    /// work, pool/queue/reader fields aggregate over host incarnations.
    pub dpp: DppReport,
    /// Fleet control-plane accounting (heartbeats, deaths, replay,
    /// rebalance), present when the runner was configured with
    /// [`PipelineRunner::with_hosts`].
    #[serde(default)]
    pub fleet: Option<FleetReport>,
    /// Derived metrics captured by the observability plane's aggregator,
    /// which polled the cross-tier registry every 100 ms of the run.
    pub derived: ContinuousDerived,
}

/// A serializable mirror of the aggregator's
/// [`DerivedMetrics`](recd_obs::DerivedMetrics) plus how many time series
/// were tracked (`recd-obs` is dependency-free, so the serde projection
/// lives here).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ContinuousDerived {
    /// Samples emitted toward trainers per wall-clock second over the
    /// aggregation window.
    pub records_per_second: Option<f64>,
    /// Trend of the ETL tail lag in ms per second of wall time; negative
    /// means the streaming ETL is catching up.
    pub tail_lag_trend_ms_per_s: Option<f64>,
    /// Batch-pool hit ratio at the end of the run.
    pub pool_hit_ratio: Option<f64>,
    /// Worst per-pool hit ratio at the end of the run (the pool to look at
    /// first when the aggregate dips).
    #[serde(default)]
    pub min_pool_hit_ratio: Option<f64>,
    /// Sustained end-to-end throughput: samples that reached the trainer
    /// side divided by the run's wall-clock seconds. Unlike
    /// [`records_per_second`](Self::records_per_second) (an aggregation-
    /// window rate), this is the whole-run number the bench gate tracks.
    #[serde(default)]
    pub pipeline_records_per_second: Option<f64>,
    /// Distinct time series retained by the aggregator.
    pub series_tracked: usize,
}

/// The report plus the artifacts downstream experiments reuse.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// The dataset schema.
    pub schema: Schema,
    /// Preprocessed batches, partition by partition; within a partition,
    /// shard-major under file round-robin (see [`PipelineRunner::run`]).
    pub batches: Vec<ConvertedBatch>,
    /// The model configuration derived from the RM spec.
    pub model: DlrmConfig,
    /// The run's measurements.
    pub report: PipelineReport,
    /// Every batch the continuous fan-out lanes delivered, as collected by
    /// the simulated trainer consumers. Empty unless the runner was
    /// configured with both [`PipelineRunner::with_continuous`] (or
    /// [`PipelineRunner::with_chaos`]) and
    /// [`PipelineRunner::with_continuous_trainers`]. The chaos convergence
    /// tests compare these unions across faulted and fault-free runs.
    pub continuous_batches: Vec<TrainerBatch>,
}

/// Storage-tier knobs for every blob store a run builds: node count, the
/// optional per-node queue model, and the optional blob cache tier. The
/// defaults reproduce the historical flat store (8 nodes, no queueing, no
/// cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageSimConfig {
    /// Storage nodes backing the simulated blob store.
    pub nodes: usize,
    /// Per-node service model; `None` keeps the flat-latency store.
    pub node: Option<NodeConfig>,
    /// Blob cache byte budget; `0` disables the cache tier.
    pub cache_bytes: usize,
}

impl Default for StorageSimConfig {
    fn default() -> Self {
        Self {
            nodes: 8,
            node: None,
            cache_bytes: 0,
        }
    }
}

impl StorageSimConfig {
    /// Builds a blob store with these knobs applied.
    pub fn build(&self) -> TectonicSim {
        let mut store = TectonicSim::new(self.nodes.max(1));
        if let Some(node) = self.node {
            store = store.with_node_config(node);
        }
        if self.cache_bytes > 0 {
            store = store.with_cache(self.cache_bytes);
        }
        store
    }
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
    storage: StorageSimConfig,
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
            storage: StorageSimConfig::default(),
            ctrl: None,
        }
    }

    /// Overrides the storage-tier knobs (node queueing, cache) for every
    /// blob store the run builds — batch, continuous, and fleet modes alike.
    #[must_use]
    pub fn with_storage(mut self, storage: StorageSimConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Additionally drives the *continuous* pipeline over the same log
    /// stream: a jittered [`LogTail`] of the Scribe drain feeds a streaming
    /// [`EtlService`](recd_etl::EtlService) (incremental join → per-session
    /// clustering → hourly seal → land), and every landed partition is handed straight to a
    /// running `recd-dpp` service via
    /// [`ingest_partition`](recd_dpp::DppHandle::ingest_partition). The
    /// combined accounting lands in [`PipelineReport::continuous`].
    #[must_use]
    pub fn with_continuous(mut self, compute_workers: usize) -> Self {
        self.continuous_workers = Some(compute_workers.max(1));
        self
    }

    /// In continuous mode, fans preprocessed batches out to `trainers`
    /// simulated trainer lanes, each drained by its own consumer thread.
    /// Lanes are assigned least-loaded (not shard-pinned) so a killed lane's
    /// traffic re-routes to the survivors instead of being dropped — the
    /// behavior the chaos engine's `kill-trainer` fault exercises. Passing
    /// `0` keeps the collect sink (the default).
    #[must_use]
    pub fn with_continuous_trainers(mut self, trainers: usize) -> Self {
        self.continuous_trainers = trainers;
        self
    }

    /// In continuous mode, runs the DPP tier as a *disaggregated fleet* of
    /// `hosts` simulated preprocessing hosts behind the fault-tolerant
    /// control plane ([`recd_dpp::DppFleet`]): the coordinator owns the global
    /// file → shard placement, heartbeats every host on the pump clock, and
    /// heals `kill-host`/`partition-host`/`rejoin-host` chaos faults with
    /// bounded replay from the per-pump barrier cuts. The global shard count
    /// is fixed by the compute-worker count alone, so the union of trainer
    /// batches is byte-identical for every fleet size and failure schedule.
    /// Passing `0` (the default) keeps the original in-process single
    /// service; the control-plane accounting lands in
    /// [`ContinuousReport::fleet`].
    #[must_use]
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Runs the continuous pipeline under the given chaos [`FaultPlan`]:
    /// storage faults apply directly to the continuous blob store, trainer
    /// stall/kill faults apply to the fan-out lanes, and `crash-pump` tears
    /// the ETL service down and resumes it from the latest ETL
    /// checkpoint — replayed partitions are absorbed by the DPP
    /// service's ingest dedup, so the trainer-batch union stays byte-
    /// identical to a fault-free run. Implies continuous mode (with two
    /// compute workers unless [`PipelineRunner::with_continuous`] overrides
    /// it); the run's chaos accounting lands in [`PipelineReport::chaos`].
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

    /// In continuous mode, runs the DPP tier under the unified PID
    /// backpressure controller: the controller samples trainer-lane depths,
    /// the DPP queues, and the ETL tail lag, resizes the fill/compute pools
    /// toward its queue setpoint, and holds the ETL pump while trainer
    /// lanes are the bottleneck. The controller only changes *when* work
    /// happens, never what is produced — trainer-batch unions stay
    /// byte-identical to an uncontrolled run. The controller's accounting
    /// lands in [`DppReport::ctrl`](recd_dpp::DppReport).
    #[must_use]
    pub fn with_ctrl(mut self, ctrl: CtrlConfig) -> Self {
        self.ctrl = Some(ctrl);
        self
    }

    /// Borrows the RM spec.
    pub fn spec(&self) -> &RmSpec {
        &self.spec
    }

    /// Runs the pipeline with the given global batch size.
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

        // 3. ETL (O2): join, partition hourly, lay out rows.
        let layout = if config.o2_cluster_by_session {
            TableLayout::ClusteredBySession
        } else {
            TableLayout::TimeOrdered
        };
        let partitions = EtlJob::new(layout).run(&schema, &drained);

        // 4. Storage: land every partition as DWRF-like files in Tectonic.
        let table_store = Arc::new(TableStore::new(self.storage.build(), 64, 4));
        let mut storage_report = StorageReport::default();
        let mut stored_partitions = Vec::new();
        for partition in &partitions {
            let (stored, report) = table_store.land_partition(
                &schema,
                spec.preset.name(),
                partition.hour,
                &partition.samples,
            );
            storage_report.absorb(&report);
            stored_partitions.push(stored);
        }
        table_store.blob_store().reset_read_counters();

        // 5. Reader tier (O3, O4): fill, convert, preprocess. One DPP
        // service per landed partition keeps the batches partition-major;
        // within a partition, files round-robin across the default two
        // shards and the collected output is shard-major.
        let dataloader = if config.o3_ikjt {
            DataLoaderConfig::from_schema(&schema)
        } else {
            DataLoaderConfig::baseline_from_schema(&schema)
        };
        let reader_config = ReaderConfig::new(batch_size, dataloader);
        let mut reader = ReaderMetrics::default();
        let mut batches = Vec::new();
        for stored in &stored_partitions {
            let mut handle = DppService::start(
                DppConfig::new(reader_config.clone()).with_policy(ShardPolicy::FileRoundRobin),
                Arc::clone(&table_store),
                schema.clone(),
            );
            handle.submit_partition(stored);
            let output = handle
                .finish()
                .expect("reading freshly-landed partitions succeeds");
            reader += output.report.reader_metrics;
            batches.extend(output.batches);
        }
        let read_bytes = table_store.blob_store().stats().read_bytes;
        let egress_bytes = reader.egress_bytes;

        // 5b. Optional continuous mode: tail the same drained log stream
        // through the streaming ETL service (incremental join, watermarked
        // hourly seals, landing) and hand every landed partition straight to
        // a running recd-dpp service — under the chaos engine when a fault
        // plan was configured.
        let mut chaos_report = None;
        let mut continuous_batches = Vec::new();
        let continuous = self.continuous_workers.map(|workers| {
            let (report, chaos, batches) =
                self.run_continuous(workers, drained, layout, &schema, &reader_config);
            chaos_report = chaos;
            continuous_batches = batches;
            report
        });

        // 6. Trainer cost model (O5–O7) over the produced batches.
        let model = DlrmConfig::from_schema(&schema, spec.embedding_dim, spec.sequence_pooling);
        let opts = TrainerOptimizations {
            dedup_emb: config.o5_dedup_emb,
            jagged_index_select: config.o6_jagged_index_select,
            dedup_compute: config.o7_dedup_compute,
        };
        let cluster = spec.cluster();
        let (trainer, memory, dedupe_factor) =
            evaluate_trainer(&batches, &model, opts, &cluster, batch_size);

        let samples = batches.iter().map(|b| b.batch_size).sum();
        let report = PipelineReport {
            rm: spec.preset.name().to_string(),
            config,
            batch_size,
            samples,
            scribe: scribe_report,
            storage: storage_report,
            reader,
            trainer,
            memory,
            dedupe_factor,
            read_bytes,
            egress_bytes,
            continuous,
            chaos: chaos_report,
        };

        PipelineArtifacts {
            schema,
            batches,
            model,
            report,
            continuous_batches,
        }
    }

    /// Builds the continuous tier's configs — a jittered [`LogTail`] of the
    /// Scribe drain pumped in one-minute steps, and either one `recd-dpp`
    /// service or (under [`with_hosts`](Self::with_hosts)) a fleet — hands
    /// them to the one pipeline [`Driver`], and maps its output. The
    /// per-pump schedule (tick, faults, pump gate, barrier, checkpoint,
    /// crash-resume) is documented on [`recd_dpp::driver`].
    fn run_continuous(
        &self,
        workers: usize,
        drained: Vec<LogRecord>,
        layout: TableLayout,
        schema: &Schema,
        reader_config: &ReaderConfig,
    ) -> (ContinuousReport, Option<ChaosReport>, Vec<TrainerBatch>) {
        let spec = &self.spec;
        let tail_config = TailConfig::default()
            .with_jitter_ms(2_000)
            .with_seed(spec.sized_workload().seed);
        let store = Arc::new(TableStore::new(self.storage.build(), 64, 4));

        let mut dpp = DppConfig::new(reader_config.clone())
            .with_compute_workers(workers)
            .with_fill_workers(2);
        if let Some(ctrl) = &self.ctrl {
            dpp = dpp.with_ctrl(ctrl.clone());
        }
        let topology = if self.hosts > 0 {
            // Host template. The global shard count is 3× the compute
            // workers *independently of the fleet size*, so the coordinator's
            // file → shard placement — and with it batch composition — is
            // identical for every M: the byte-identity the fleet convergence
            // tests assert. (The coordinator routes every file with an
            // explicit shard override, so the shard policy is irrelevant.)
            // The fleet always fans out to real lanes; without requested
            // trainers a single lane is drained and discarded.
            let host = dpp
                .with_policy(ShardPolicy::FileRoundRobin)
                .with_shards(workers * 3);
            Topology::Fleet(
                FleetConfig::new(host)
                    .with_hosts(self.hosts)
                    .with_trainers(self.continuous_trainers.max(1)),
            )
        } else {
            dpp = dpp
                .with_policy(ShardPolicy::SessionAffine)
                .with_shards(workers);
            if self.continuous_trainers > 0 {
                dpp = dpp
                    .with_trainers(self.continuous_trainers)
                    .with_assign_policy(TrainerAssignPolicy::LeastLoaded);
            }
            Topology::Single(dpp)
        };

        let feed = Feed::Tail(TailFeed {
            tail: LogTail::new(drained, &tail_config),
            stream: EtlStreamConfig::new(layout).with_window_ms(10_000),
            table: spec.preset.name().to_string(),
            step_ms: 60_000,
            plan: self.chaos.clone(),
        });
        let driver =
            Driver::new(store, schema, feed, topology).unwrap_or_else(|err| panic!("{err}"));
        // Simulated trainers collect what their lanes deliver; killed lanes
        // and survivors alike land in the one union.
        let collected = Arc::new(Mutex::new(Vec::new()));
        let consume: Consume = if self.continuous_trainers > 0 {
            let collected = Arc::clone(&collected);
            Arc::new(move |batch| collected.lock().expect("lane collector lock").push(batch))
        } else {
            Arc::new(drop)
        };
        let output = driver
            .run(consume)
            .unwrap_or_else(|err| panic!("continuous run: {err}"));

        let derived = output.aggregator.derived();
        let report = ContinuousReport {
            etl: output.etl.expect("a tail feed reports its ETL tier"),
            fleet: output.fleet.map(|(report, _hosts)| report),
            derived: ContinuousDerived {
                records_per_second: derived.records_per_second,
                tail_lag_trend_ms_per_s: derived.tail_lag_trend_ms_per_s,
                pool_hit_ratio: derived.pool_hit_ratio,
                min_pool_hit_ratio: derived.min_pool_hit_ratio,
                pipeline_records_per_second: Some(
                    output.dpp.samples as f64 / output.wall_seconds.max(1e-9),
                ),
                series_tracked: output.aggregator.series_count(),
            },
            dpp: output.dpp,
        };
        let batches = std::mem::take(&mut *collected.lock().expect("lane collector lock"));
        (report, output.chaos, batches)
    }
}

/// Averages the trainer cost model over the full-size batches of a run.
pub fn evaluate_trainer(
    batches: &[ConvertedBatch],
    model: &DlrmConfig,
    opts: TrainerOptimizations,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> (IterationCost, MemoryReport, f64) {
    // Prefer full batches (the trailing batch is usually short).
    let full: Vec<&ConvertedBatch> = batches
        .iter()
        .filter(|b| b.batch_size == batch_size)
        .collect();
    let considered: Vec<&ConvertedBatch> = if full.is_empty() {
        batches.iter().collect()
    } else {
        full
    };
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
        assert!(r.storage.compression_ratio() > b.storage.compression_ratio());
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
        assert!(!artifacts.batches.is_empty());
        assert!(artifacts.batches.iter().all(|b| b.batch_size > 0));
        assert_eq!(
            artifacts.model.dense_features,
            artifacts.schema.dense_count()
        );
        // Most batches carry IKJTs under the full config.
        assert!(artifacts.batches.iter().any(|b| !b.ikjts.is_empty()));
        // The reader accounting is the DPP runs' own, batch for batch.
        let reader = artifacts.report.reader;
        assert_eq!(reader.samples, artifacts.report.samples);
        assert_eq!(reader.batches, artifacts.batches.len());
        assert_eq!(reader.egress_bytes, artifacts.report.egress_bytes);
        assert_eq!(reader.barrier_flushes, 0, "no barriers in a collect run");
    }

    #[test]
    fn continuous_mode_matches_the_batch_pipeline() {
        let artifacts = PipelineRunner::new(small_spec(), RecdConfig::full())
            .with_continuous(2)
            .run(128);
        let report = artifacts.report;
        let continuous = report.continuous.expect("continuous report requested");

        // The tail-fed ETL joined every record (the window covers the
        // tail's jitter) and sealed the same rows the batch path landed.
        let c = continuous.etl.etl.counters;
        assert_eq!(c.late_drops, 0);
        assert_eq!(c.orphaned_features, 0);
        assert_eq!(c.orphaned_events, 0);
        assert_eq!(c.sealed_rows as usize, report.samples);
        assert!(continuous.etl.landed_partitions > 0);
        assert_eq!(continuous.etl.storage.rows, report.storage.rows);
        assert_eq!(
            continuous.etl.storage.stored_bytes,
            report.storage.stored_bytes
        );

        // Every landed partition was handed to the running dpp service, and
        // the trainer-side sample count equals the batch pipeline's.
        assert_eq!(
            continuous.dpp.partitions_ingested,
            continuous.etl.landed_partitions
        );
        assert_eq!(continuous.dpp.samples, report.samples);
        assert!(continuous.dpp.dedupe_factor > 1.0);
        assert!(
            continuous.fleet.is_none(),
            "single-service mode carries no fleet report"
        );

        let without = PipelineRunner::new(small_spec(), RecdConfig::full()).run(128);
        assert!(without.report.continuous.is_none());
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
