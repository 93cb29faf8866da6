//! The one pipeline driver: log tail → streaming ETL → land → DPP (one
//! service or an M-host fleet) → trainer lanes, under an optional chaos
//! plan. The `recd-dpp` CLI, `PipelineRunner::run` and the pipeline's
//! chaos, control, fleet and storage suites all build a [`TailFeed`] and a
//! [`Topology`], call [`Driver::new`] + [`Driver::run`], and read the
//! [`DriverOutput`].
//!
//! Every pump runs the same schedule:
//!
//! ```text
//! step clock → backend tick → due faults → pump gate → etl.pump → ingest
//!            (→ barrier per partition) → barrier → checkpoint
//! ```
//!
//! * **ingest** closes every newly ingested partition with a barrier, on
//!   every topology, so no batch spans two landed partitions.
//! * **barrier** after every pump as well iff the backend is a fleet or a
//!   fault plan is present — batch boundaries are then a pure function of
//!   the landing schedule, which is what keeps trainer-batch unions
//!   byte-identical across fleet sizes and fault schedules; trainer kills
//!   and pump crashes fire at the top of the next pump, after that
//!   barrier's quiescence.
//! * **checkpoint** (an in-memory copy of the ETL service's state, sharing
//!   its report cell) only when a fault plan is present, after every
//!   fourth pump's barrier (`CHECKPOINT_EVERY_PUMPS`), so a `crash-pump`
//!   genuinely replays tail events that the ingest dedup must absorb.
//!
//! The pump step is the one schedule value callers choose. A whole log in
//! one service behind zero-jitter arrivals is the batch pipeline: with the
//! per-partition barriers it reads each landed partition as a service of its
//! own would.

use crate::control::PumpGate;
use crate::fleet::{DppFleet, FleetConfig, FleetHandle, FleetReport};
use crate::metrics::DppReport;
use crate::pool::BatchPool;
use crate::service::{DppConfig, DppHandle, DppService};
use crate::sink::{TrainerBatch, TrainerHandle};
use crate::RecvTimeout;
use recd_chaos::{
    ChaosCounters, ChaosReport, FaultAction, FaultInjector, FaultKind, FaultPlan, RetryPolicy,
    ScheduledFault,
};
use recd_core::ConvertedBatch;
use recd_data::Schema;
use recd_etl::{
    EtlCheckpoint, EtlService, EtlServiceReport, EtlStreamConfig, ManualClock, TablePartition,
};
use recd_obs::{Collector, MetricsRegistry, RegistryFederation};
use recd_scribe::LogTail;
use recd_storage::{StoredPartition, TableStore};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A crash between checkpoints must replay real tail events, so the
/// pipeline snapshots only after every fourth pump.
const CHECKPOINT_EVERY_PUMPS: u64 = 4;

/// The feed: a replayable log tail pumped on a manual clock.
#[derive(Debug)]
pub struct TailFeed {
    /// The unconsumed tail; a clone of it replays the identical stream.
    pub tail: LogTail,
    /// Streaming-ETL configuration.
    pub stream: EtlStreamConfig,
    /// Table the sealed partitions land into.
    pub table: String,
    /// Simulated ms of log time per pump step.
    pub step_ms: u64,
    /// Fault plan on the pump clock; `Some(empty)` is the fault-free
    /// reference that still runs the barrier/checkpoint schedule.
    pub plan: Option<FaultPlan>,
}

/// The DPP tier behind the feed.
#[derive(Debug)]
pub enum Topology {
    /// One in-process [`DppService`].
    Single(DppConfig),
    /// A [`DppFleet`] behind the fault-tolerant control plane.
    Fleet(FleetConfig),
}

/// Why a run could not start or finish.
#[derive(Debug)]
pub enum DriverError {
    /// The plan schedules a host fault without a multi-host fleet.
    HostFaultWithoutFleet {
        /// The offending entry.
        fault: ScheduledFault,
    },
    /// The plan names a host the fleet does not have.
    HostOutOfRange {
        /// The offending entry.
        fault: ScheduledFault,
        /// The host it names.
        host: usize,
        /// The fleet's host count.
        hosts: usize,
    },
    /// A partition barrier did not resolve: the DPP tier tore down mid-run.
    Barrier,
    /// Every fleet host was declared dead, so no host is left to inherit
    /// their shards (a fault plan that kills or partitions the last host).
    NoLiveHost,
    /// The DPP tier finished with fill or conversion errors.
    Service {
        /// One message per failure (fleet entries name their host).
        errors: Vec<String>,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::HostFaultWithoutFleet { fault } => write!(
                f,
                "`{fault}` is a host fault; host faults require --hosts > 1"
            ),
            Self::HostOutOfRange { fault, host, hosts } => write!(
                f,
                "`{fault}` names host {host}, but --hosts {hosts} only has hosts 0..{hosts}"
            ),
            Self::Barrier => write!(f, "a partition barrier did not resolve"),
            Self::NoLiveHost => write!(
                f,
                "every fleet host is dead; no host can inherit its shards"
            ),
            Self::Service { errors } => write!(
                f,
                "streaming DPP run finished with {} error(s): {}",
                errors.len(),
                errors.first().map_or("?", String::as_str)
            ),
        }
    }
}

impl std::error::Error for DriverError {}

/// What one simulated trainer lane consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneReport {
    /// Trainer id.
    pub trainer: usize,
    /// Batches consumed.
    pub batches: u64,
    /// Samples consumed.
    pub samples: u64,
    /// Whether a `kill-trainer` fault ended the lane.
    pub killed: bool,
}

/// Everything a finished run produced.
pub struct DriverOutput {
    /// Streaming-ETL accounting.
    pub etl: EtlServiceReport,
    /// The service report, or the fleet-level aggregate.
    pub dpp: DppReport,
    /// Control-plane accounting and the final per-host reports of a fleet.
    pub fleet: Option<(FleetReport, Vec<(usize, DppReport)>)>,
    /// Chaos accounting (when the feed carried a plan).
    pub chaos: Option<ChaosReport>,
    /// Killed lanes in kill order, then the survivors by lane index.
    pub lanes: Vec<LaneReport>,
    /// Wall-clock seconds from [`Driver::run`] to the last lane draining.
    pub wall_seconds: f64,
}

/// What a lane does with each batch it pulls (collect it, recycle its
/// shell, drop it); the harness counts batches and samples itself.
pub type Consume = Arc<dyn Fn(TrainerBatch) + Send + Sync>;

/// The chaos engine's state for one run: the injector, the retry policy and
/// counters both storage-facing tiers share, and what a `crash-pump`
/// restarts the ETL service from.
struct Chaos {
    injector: FaultInjector,
    policy: RetryPolicy,
    counters: Arc<ChaosCounters>,
    /// Pristine copy of the tail, rewound to the checkpoint's cursor.
    replay: LogTail,
    checkpoint: EtlCheckpoint,
}

impl Chaos {
    /// `crash-pump`: the in-memory service dies and a new one resumes from
    /// the latest checkpoint. The rewound tail replays everything since;
    /// re-landed partitions are idempotent and the ingest dedup skips the
    /// re-offers. The checkpoint shares the report cell, so the registry
    /// and the controller's tail-lag probe follow the resumed service.
    fn crash_and_resume(&self) -> EtlService {
        self.counters.note_pump_crash();
        let recovery_started = Instant::now();
        let etl = EtlService::resume_from(self.replay.clone(), self.checkpoint.clone());
        self.counters.note_resume(recovery_started.elapsed());
        etl
    }
}

/// Single service versus fleet: the only place the two differ.
enum Backend {
    Single(DppHandle),
    Fleet(Box<FleetHandle>),
}

impl Backend {
    /// Ingests a landed partition and, unless it is a replayed duplicate,
    /// closes it with a barrier.
    fn ingest_partition(&mut self, partition: &StoredPartition) -> Result<(), DriverError> {
        let fresh = match self {
            Self::Single(handle) => handle.ingest_partition(partition),
            Self::Fleet(fleet) => fleet.ingest_partition(partition),
        };
        if fresh {
            self.flush_partition()?;
        }
        Ok(())
    }

    fn flush_partition(&mut self) -> Result<(), DriverError> {
        let flushed = match self {
            Self::Single(handle) => handle.flush_partition(),
            Self::Fleet(fleet) => fleet.flush_partition(),
        };
        self.some_host_live()?;
        flushed.then_some(()).ok_or(DriverError::Barrier)
    }

    /// Heartbeats, death detection, partition healing (fleet only).
    fn tick(&mut self, now_ms: u64) -> Result<(), DriverError> {
        if let Self::Fleet(fleet) = self {
            fleet.tick(now_ms);
        }
        self.some_host_live()
    }

    /// A death (detected by a tick or a barrier round) that left a fleet no
    /// live host to inherit its shards ends the run.
    fn some_host_live(&self) -> Result<(), DriverError> {
        match self {
            Self::Fleet(fleet) if fleet.hosts_live() == 0 => Err(DriverError::NoLiveHost),
            _ => Ok(()),
        }
    }

    fn take_trainers(&mut self) -> Vec<TrainerHandle> {
        match self {
            Self::Single(handle) => handle.take_trainers(),
            Self::Fleet(fleet) => fleet.take_trainers(),
        }
    }

    /// The service report (or fleet aggregate) plus the fleet-only parts.
    fn finish(self) -> Result<(DppReport, Option<FleetParts>), DriverError> {
        let (dpp, fleet, errors) = match self {
            Self::Single(handle) => match handle.finish() {
                Ok(output) => (output.report, None, Vec::new()),
                Err(err) => (err.output.report, None, err.errors),
            },
            Self::Fleet(fleet) => {
                let output = fleet.finish();
                let parts = (output.report, output.host_reports);
                (output.dpp, Some(parts), output.errors)
            }
        };
        if errors.is_empty() {
            Ok((dpp, fleet))
        } else {
            Err(DriverError::Service { errors })
        }
    }
}

/// Control-plane accounting and the final per-host reports.
type FleetParts = (FleetReport, Vec<(usize, DppReport)>);

/// A control command for a simulated trainer-lane consumer.
enum LaneCmd {
    /// Stop consuming for the given duration (backpressure builds).
    Stall(Duration),
    /// Drain what is queued, then exit, dropping (tombstoning) the lane.
    Kill,
}

/// One simulated trainer: a consumer thread pulling its lane with a short
/// timeout so chaos commands interleave with consumption.
struct Lane {
    cmd: mpsc::Sender<LaneCmd>,
    join: JoinHandle<LaneReport>,
}

impl Lane {
    fn spawn(trainer: TrainerHandle, consume: Consume) -> Self {
        let (cmd, cmd_rx) = mpsc::channel::<LaneCmd>();
        let join = std::thread::spawn(move || {
            let mut report = LaneReport {
                trainer: trainer.id(),
                ..LaneReport::default()
            };
            let take = |item: TrainerBatch, report: &mut LaneReport| {
                report.batches += 1;
                report.samples += item.batch.batch_size as u64;
                consume(item);
            };
            loop {
                match cmd_rx.try_recv() {
                    Ok(LaneCmd::Stall(pause)) => std::thread::sleep(pause),
                    Ok(LaneCmd::Kill) => {
                        while let Some(item) = trainer.try_recv() {
                            take(item, &mut report);
                        }
                        report.killed = true;
                        return report;
                    }
                    Err(_) => {}
                }
                match trainer.recv_timeout(Duration::from_millis(1)) {
                    RecvTimeout::Item(item) => take(item, &mut report),
                    RecvTimeout::Timeout => {}
                    RecvTimeout::Disconnected => return report,
                }
            }
        });
        Self { cmd, join }
    }

    /// Joins the consumer; a panic in `consume` is a caller bug and
    /// propagates.
    fn finish(self) -> LaneReport {
        self.join
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// The lane harness: live lanes by index, plus what the lanes a
/// `kill-trainer` fault ended had consumed.
struct Lanes {
    live: Vec<Option<Lane>>,
    killed: Vec<LaneReport>,
}

impl Lanes {
    fn spawn(trainers: Vec<TrainerHandle>, consume: &Consume) -> Self {
        let spawn = |trainer| Some(Lane::spawn(trainer, Arc::clone(consume)));
        Self {
            live: trainers.into_iter().map(spawn).collect(),
            killed: Vec::new(),
        }
    }

    /// Pauses a lane's consumption for `ms` of wall time (asynchronous).
    fn stall(&self, lane: usize, ms: u64) {
        if let Some(Some(lane)) = self.live.get(lane) {
            let _ = lane.cmd.send(LaneCmd::Stall(Duration::from_millis(ms)));
        }
    }

    /// Kills a lane and waits for its consumer to drain and drop the handle
    /// — called only at pump boundaries, after the barrier, so no delivery
    /// races the teardown.
    fn kill(&mut self, lane: usize) {
        if let Some(lane) = self.live.get_mut(lane).and_then(Option::take) {
            let _ = lane.cmd.send(LaneCmd::Kill);
            self.killed.push(lane.finish());
        }
    }

    /// Survivors drain to end-of-stream once the DPP tier has shut down.
    fn join(mut self) -> Vec<LaneReport> {
        let live = self.live.into_iter().flatten();
        self.killed.extend(live.map(Lane::finish));
        self.killed
    }
}

/// A started pipeline: the DPP tier runs, every tier is registered into
/// [`registry`](Self::registry), and [`run`](Self::run) feeds it to the end.
pub struct Driver {
    etl: EtlService,
    /// Simulated ms of log time per pump step (at least 1).
    step_ms: u64,
    chaos: Option<Chaos>,
    backend: Backend,
    registry: Arc<MetricsRegistry>,
    /// The controller's pump gate (single service under `with_ctrl` only:
    /// fleet hosts run local controllers with no fleet-wide gate).
    pump_gate: Option<PumpGate>,
    /// The single service's converted-shell pool (fleet batches come from
    /// many hosts' pools, so there is no one pool to recycle into).
    pool: Option<Arc<BatchPool<ConvertedBatch>>>,
}

impl Driver {
    /// Validates the fault plan against the topology, wires the chaos retry
    /// path and the controller's tail-lag probe into both tiers, starts the
    /// DPP tier over `store` (where partitions land and are read from), and
    /// builds the metrics registry.
    ///
    /// # Errors
    ///
    /// [`DriverError::HostFaultWithoutFleet`] / [`DriverError::HostOutOfRange`]
    /// when the plan names hosts this topology does not have.
    pub fn new(
        store: Arc<TableStore>,
        schema: &Schema,
        feed: TailFeed,
        topology: Topology,
    ) -> Result<Self, DriverError> {
        let hosts = match &topology {
            Topology::Single(_) => 0,
            Topology::Fleet(fleet) => fleet.hosts,
        };
        if let Some(plan) = &feed.plan {
            validate_host_faults(plan, hosts)?;
        }
        // Only a fault plan can crash the pump, so only then is a pristine
        // copy of the tail kept to restart from.
        let replay = feed.plan.is_some().then(|| feed.tail.clone());
        let etl = EtlService::new(
            feed.tail,
            feed.stream,
            Arc::clone(&store),
            schema.clone(),
            feed.table,
        );
        let (etl, chaos) = match feed.plan.zip(replay) {
            None => (etl, None),
            Some((plan, replay)) => {
                let injector = FaultInjector::new(&plan, store.blob_store().clone());
                let (policy, counters) = (RetryPolicy::storage_default(), injector.counters());
                // Every checkpoint carries the retry path, so a resumed
                // service lands through it too.
                let etl = etl.with_chaos_retry(policy, Arc::clone(&counters));
                let checkpoint = etl.checkpoint();
                let chaos = Chaos {
                    injector,
                    policy,
                    counters,
                    replay,
                    checkpoint,
                };
                (etl, Some(chaos))
            }
        };
        // One registry for the live monitor and `/metrics`: the DPP tier,
        // the blob store, the ETL report cell, the chaos counters.
        let registry = MetricsRegistry::new();
        let (backend, pump_gate, pool) = match topology {
            Topology::Single(dpp) => {
                // The clone is evaluated before the service's clock starts,
                // so it — not `DppReport::wall_seconds` — absorbs whatever
                // free-list sorting the caller's dataset teardown left the
                // allocator (0.4 s after the CLI frees a 10k-session table).
                let schema = schema.clone();
                let dpp = wire(dpp, &etl, chaos.as_ref());
                let handle = DppService::start(dpp, Arc::clone(&store), schema);
                registry.register(Arc::new(handle.snapshot_source()));
                if let Some(ctrl) = handle.ctrl_shared() {
                    registry.register(ctrl);
                }
                let (gate, pool) = (handle.pump_gate(), handle.converted_pool());
                (Backend::Single(handle), gate, Some(pool))
            }
            Topology::Fleet(mut fleet) => {
                fleet.host = wire(fleet.host, &etl, chaos.as_ref());
                let handle = DppFleet::start(fleet, Arc::clone(&store), schema.clone());
                // Host registries are stable across incarnations — a
                // rejoined host keeps its `host="h<i>"` label.
                let federation = RegistryFederation::new();
                for (label, host_registry) in handle.host_registries() {
                    federation.set_member(label, host_registry);
                }
                registry.register(Arc::new(federation));
                registry.register(handle.counters());
                (Backend::Fleet(Box::new(handle)), None, None)
            }
        };
        registry.register(Arc::new(store.blob_store().clone()));
        registry.register(etl.report_cell());
        if let Some(chaos) = &chaos {
            registry.register(Arc::clone(&chaos.counters) as Arc<dyn Collector>);
        }
        Ok(Self {
            etl,
            step_ms: feed.step_ms.max(1),
            chaos,
            backend,
            registry: Arc::new(registry),
            pump_gate,
            pool,
        })
    }

    /// The cross-tier metrics registry; scrapeable after `run` returns too.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The single service's shell pool, for a [`Consume`] that recycles.
    pub fn converted_pool(&self) -> Option<Arc<BatchPool<ConvertedBatch>>> {
        self.pool.clone()
    }

    /// Feeds the DPP tier to completion with one consumer thread per
    /// trainer lane, shuts everything down, and reports.
    ///
    /// # Errors
    ///
    /// [`DriverError::Barrier`] if the DPP tier tore down under a barrier,
    /// [`DriverError::NoLiveHost`] if a fleet lost its last host,
    /// [`DriverError::Service`] if it finished with errors. Every thread is
    /// joined before an error returns.
    pub fn run(self, consume: Consume) -> Result<DriverOutput, DriverError> {
        let mut backend = self.backend;
        let mut lanes = Lanes::spawn(backend.take_trainers(), &consume);
        let started = Instant::now();
        let fed = pump(
            self.etl,
            self.step_ms,
            self.chaos,
            &mut backend,
            &mut lanes,
            self.pump_gate,
        );
        let finished = backend.finish();
        let lanes = lanes.join();
        let wall_seconds = started.elapsed().as_secs_f64();

        let (etl, chaos) = fed?;
        let (dpp, fleet) = finished?;
        Ok(DriverOutput {
            etl,
            dpp,
            fleet,
            chaos,
            lanes,
            wall_seconds,
        })
    }
}

/// The pump loop — the only one in the workspace's `src/` trees.
fn pump(
    mut etl: EtlService,
    step_ms: u64,
    mut chaos: Option<Chaos>,
    backend: &mut Backend,
    lanes: &mut Lanes,
    pump_gate: Option<PumpGate>,
) -> Result<(EtlServiceReport, Option<ChaosReport>), DriverError> {
    let barrier = matches!(backend, Backend::Fleet(_)) || chaos.is_some();
    let mut clock = ManualClock::new();
    let mut pumps = 0u64;
    while !etl.tail_drained() {
        let now = clock.advance(step_ms);
        backend.tick(now)?;
        if let Some(chaos) = chaos.as_mut() {
            for action in chaos.injector.poll(now) {
                match (action, &mut *backend) {
                    (FaultAction::StallTrainer { lane, ms }, _) => lanes.stall(lane, ms),
                    (FaultAction::KillTrainer { lane }, _) => lanes.kill(lane),
                    (FaultAction::CrashEtlPump, _) => etl = chaos.crash_and_resume(),
                    (FaultAction::KillHost { host }, Backend::Fleet(fleet)) => {
                        fleet.kill_host(host);
                    }
                    (FaultAction::PartitionHost { host, ms }, Backend::Fleet(fleet)) => {
                        fleet.partition_host(host, ms);
                    }
                    (FaultAction::RejoinHost { host }, Backend::Fleet(fleet)) => {
                        fleet.rejoin_host(host);
                    }
                    // `Driver::new` rejected host faults without a fleet.
                    (
                        FaultAction::KillHost { .. }
                        | FaultAction::PartitionHost { .. }
                        | FaultAction::RejoinHost { .. },
                        Backend::Single(_),
                    ) => {}
                }
            }
        }
        if let Some(gate) = &pump_gate {
            // Unified backpressure: hold the pump while the PID controller
            // says trainer lanes are the bottleneck. Bounded so a
            // chaos-stalled lane degrades to a delay, never a deadlock; the
            // wait changes when work happens, not what is produced.
            let waited = Instant::now();
            while !gate.pump_allowed() && waited.elapsed() < Duration::from_secs(2) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let mut ingested = Ok(());
        etl.pump(
            now,
            &mut |stored: &StoredPartition, _sealed: &TablePartition| {
                if ingested.is_ok() {
                    ingested = backend.ingest_partition(stored);
                }
            },
        );
        ingested?;
        pumps += 1;
        if barrier {
            backend.flush_partition()?;
            if let Some(chaos) = chaos.as_mut() {
                if pumps.is_multiple_of(CHECKPOINT_EVERY_PUMPS) {
                    chaos.checkpoint = etl.checkpoint();
                }
            }
        }
    }
    let mut ingested = Ok(());
    let output = etl.finish(&mut |stored: &StoredPartition, _sealed: &TablePartition| {
        if ingested.is_ok() {
            ingested = backend.ingest_partition(stored);
        }
    });
    ingested?;
    if barrier {
        backend.flush_partition()?;
    }
    let chaos = chaos.map(|mut chaos| chaos.injector.finish());
    Ok((output.report, chaos))
}

/// Routes DPP fills through the run's chaos retry counters and gives the
/// controller (every host's, in a fleet) its escape hatch: the live ETL tail
/// lag, so lane backpressure never holds the pump while the stream falls
/// behind its log tail.
fn wire(mut dpp: DppConfig, etl: &EtlService, chaos: Option<&Chaos>) -> DppConfig {
    if let Some(chaos) = chaos {
        dpp = dpp.with_chaos_retry(chaos.policy, Arc::clone(&chaos.counters));
    }
    if let Some(ctrl) = dpp.ctrl.take() {
        let cell = etl.report_cell();
        dpp = dpp.with_ctrl(ctrl.with_tail_lag_probe(Arc::new(move || cell.get().tail_lag_ms)));
    }
    dpp
}

/// A host fault with no multi-host fleet, or naming a host the fleet lacks,
/// can never fire: rejected up front instead of running a faultless plan.
fn validate_host_faults(plan: &FaultPlan, hosts: usize) -> Result<(), DriverError> {
    for &fault in plan.faults() {
        let host = match fault.kind {
            FaultKind::KillHost { host }
            | FaultKind::PartitionHost { host, .. }
            | FaultKind::RejoinHost { host } => host,
            _ => continue,
        };
        if hosts < 2 {
            return Err(DriverError::HostFaultWithoutFleet { fault });
        }
        if host >= hosts {
            return Err(DriverError::HostOutOfRange { fault, host, hosts });
        }
    }
    Ok(())
}
