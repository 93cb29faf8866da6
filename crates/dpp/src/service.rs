//! The streaming DPP service: a pipeline of fill workers, a deterministic
//! sharding router, a pool of convert/process workers, and a fan-out sink,
//! connected by bounded channels.
//!
//! ```text
//!                    ┌─ fill worker ─┐          ┌─ compute worker ─┐        ┌─▶ trainer 0
//! submit_file ──▶ [input] ─ fill ─ [filled] ─ router ─ [work] ─ O3+O4 ─ [out] ─ sink ─▶ trainer 1
//!                    └─ fill worker ─┘   (reorder + shard + coalesce)  (resequence+assign) └─▶ trainer N
//! ```
//!
//! * Rows travel as flat [`ColumnarBatch`]es, one per decoded file — the
//!   service never shuttles per-sample `Vec`s between threads, and never
//!   copies a decoded row before conversion.
//! * **Fill workers** decode DWRF files concurrently (the fill phase),
//!   straight into columnar buffers, at most one filled queue plus one file
//!   each ahead of the file the router is on.
//! * The **router** restores file submission order (decode finishes out of
//!   order), shards rows by the configured [`ShardPolicy`], and coalesces
//!   each shard's rows into `batch_size` batches of *runs*: row ranges of
//!   the shared decoded files. Because routing is single-threaded and
//!   order-restored, batch composition is a pure function of the submitted
//!   file sequence — output does not depend on worker counts, scheduling,
//!   or pool resizes.
//! * **Compute workers** run the shared [`PhaseEngine`] (IKJT conversion O3,
//!   deduplicated preprocessing O4) concurrently over each batch's runs,
//!   reading the files' rows in place; whichever side drops a file's last
//!   run hands the file back to the fill workers.
//! * The **sink** resequences finished batches per shard and streams them
//!   onto the bounded trainer lanes ([`DppConfig::with_trainers`], one by
//!   default) with per-trainer flow control (see [`crate::sink`]).
//!
//! Every queue is bounded: a slow stage blocks its upstream all the way back
//! to `submit_file`, which is the service's backpressure contract over
//! *in-flight* work, and the only submission backpressure there is. With
//! [`DppConfig::with_ctrl`], one controller thread additionally grows and
//! shrinks the fill and compute pools and gates the ETL pump (see
//! [`crate::control`]).

use crate::channel::{bounded, Gauge, Receiver, RecvTimeout, Sender};
use crate::checkpoint::DppCheckpoint;
use crate::control::{
    spawn_pid_controller, CtrlConfig, CtrlShared, PidParams, PoolControls, PoolGovernor, PumpGate,
    ScaleEvent,
};
use crate::metrics::{dedupe_factor, per_second, DppReport, ServiceCounters};
use crate::pool::{BatchPool, BlobScratch};
use crate::sink::{
    run_sink, BarrierState, OutBatch, SinkInput, SinkParams, TrainerAssignPolicy, TrainerHandle,
    TrainerLanes,
};
use recd_chaos::{ChaosCounters, RetryPolicy};
use recd_core::ConvertedBatch;
use recd_data::{ColumnarBatch, RowRuns, Schema};
use recd_obs::{Histogram, HistogramSnapshot, ScaleClock, WallClock};
use recd_reader::{
    fill_file_columnar_into, PhaseEngine, PreprocessPipeline, ReaderConfig, ReaderMetrics,
};
use recd_storage::{FileReadScratch, StorageError, StoredPartition, TableStore};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked workers wake to check for cooperative retirement.
const WORKER_POLL: Duration = Duration::from_millis(2);

/// How many files fill workers may hold ahead of the router: the one in the
/// router's hand, a full filled queue, and one being decoded per worker. A
/// file the router has passed stays live behind the window until its last
/// run is converted (see [`batch_pool_capacity`]).
fn route_window(queue_depth: usize, fill: usize) -> usize {
    1 + queue_depth + fill
}

/// The most decoded files a service holds at once: the route window's, plus
/// every file a batch holding runs still reads. Those batches are one
/// pending per shard (the one being handed on left an empty list behind), a
/// full work queue and one per compute worker, and a run has at least one
/// row, so each reads at most `batch_size` files. Shells are made only on a
/// miss, so the shelf never holds more than the most that were ever live;
/// the bound only has to hold.
fn batch_pool_capacity(config: &DppConfig, fill: usize, compute: usize) -> usize {
    let batches = config.shards + config.queue_depth + compute;
    route_window(config.queue_depth, fill) + batches * config.reader.batch_size
}

/// Converted shells in flight: the output queue, one per compute worker, and
/// as many again in the consumer's hands.
fn converted_pool_capacity(queue_depth: usize, compute: usize) -> usize {
    queue_depth * 2 + compute
}

/// Bucket bounds (seconds) of the per-batch convert/process latency
/// histograms — exponential-ish from 10µs to 250ms, which brackets a
/// coalesced batch's compute cost across every workload preset.
const LATENCY_BOUNDS: &[f64] = &[
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1,
];

/// How the router assigns incoming rows to shard lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Whole files round-robin across shards by submission index, so shard
    /// *r* reads files *i* with `i % shards == r` in order and the collected
    /// output is shard-major: every batch of shard 0, then shard 1, and so
    /// on. The rotation restarts at every barrier, so behind per-partition
    /// barriers a file's shard is its index within its partition — what
    /// `PipelineRunner::run` reads the landed partitions with.
    FileRoundRobin,
    /// Each row routes by a hash of its session id, so a session's rows
    /// always land in the same shard and stay adjacent in its accumulator.
    /// This preserves the O1 session-affinity property (and therefore the
    /// in-batch dedup factor) even when the incoming file stream interleaves
    /// sessions.
    SessionAffine,
}

impl ShardPolicy {
    /// Stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShardPolicy::FileRoundRobin => "file_round_robin",
            ShardPolicy::SessionAffine => "session_affine",
        }
    }
}

/// Configuration of the streaming service.
#[derive(Debug, Clone)]
pub struct DppConfig {
    /// Batch assembly and dataloader configuration.
    pub reader: ReaderConfig,
    /// Initial concurrent fill (decode) workers.
    pub fill_workers: usize,
    /// Initial concurrent convert/process workers.
    pub compute_workers: usize,
    /// Shard lanes rows are routed into.
    pub shards: usize,
    /// Capacity of every inter-stage queue (the backpressure window).
    pub queue_depth: usize,
    /// Row sharding policy.
    pub policy: ShardPolicy,
    /// Trainer lanes the sink delivers onto (at least one; one by default).
    pub trainers: usize,
    /// How delivered batches are assigned to trainer lanes.
    pub assign_policy: TrainerAssignPolicy,
    /// Capacity of each per-trainer lane (that trainer's backpressure
    /// window).
    pub trainer_queue_depth: usize,
    /// The sizing policy; `None` (the default) keeps the pools fixed at
    /// `fill_workers` / `compute_workers`. When set, the PID controller owns
    /// the fill/compute pool targets and the trainer-lane pump gate (see
    /// [`crate::control`]).
    pub ctrl: Option<CtrlConfig>,
    /// Bounded-retry policy for storage-facing fill reads, with the chaos
    /// counters retries are accounted into. `None` (the default) surfaces
    /// every storage error immediately, as before; set it when running under
    /// fault injection so transient injected get-failures degrade to a short
    /// backoff instead of dropping the file's rows.
    pub chaos_retry: Option<(RetryPolicy, Arc<ChaosCounters>)>,
    /// Builds each compute worker's preprocessing pipeline (pipelines hold
    /// boxed transforms and are not `Clone`).
    pub pipeline_factory: fn() -> PreprocessPipeline,
}

impl DppConfig {
    /// Creates a configuration with production-flavored defaults: 2 fill
    /// workers, 2 compute workers, one shard per compute worker,
    /// session-affine routing, a backpressure window of 8 items per queue,
    /// one shard-pinned trainer lane, and fixed pools.
    pub fn new(reader: ReaderConfig) -> Self {
        Self {
            reader,
            fill_workers: 2,
            compute_workers: 2,
            shards: 2,
            queue_depth: 8,
            policy: ShardPolicy::SessionAffine,
            trainers: 1,
            assign_policy: TrainerAssignPolicy::ShardPinned,
            trainer_queue_depth: 8,
            ctrl: None,
            chaos_retry: None,
            pipeline_factory: PreprocessPipeline::new,
        }
    }

    /// Sets the fill worker count (minimum 1).
    #[must_use]
    pub fn with_fill_workers(mut self, workers: usize) -> Self {
        self.fill_workers = workers.max(1);
        self
    }

    /// Sets the compute worker count (minimum 1).
    #[must_use]
    pub fn with_compute_workers(mut self, workers: usize) -> Self {
        self.compute_workers = workers.max(1);
        self
    }

    /// Sets the shard count (minimum 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-queue capacity (minimum 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the sharding policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the trainer lane count (minimum 1); pull batches through the
    /// [`TrainerHandle`]s returned by [`DppHandle::take_trainers`].
    #[must_use]
    pub fn with_trainers(mut self, trainers: usize) -> Self {
        self.trainers = trainers.max(1);
        self
    }

    /// Sets the trainer lane assignment policy.
    #[must_use]
    pub fn with_assign_policy(mut self, policy: TrainerAssignPolicy) -> Self {
        self.assign_policy = policy;
        self
    }

    /// Sets each trainer lane's capacity (minimum 1).
    #[must_use]
    pub fn with_trainer_queue_depth(mut self, depth: usize) -> Self {
        self.trainer_queue_depth = depth.max(1);
        self
    }

    /// Enables the cross-tier PID control loop. The initial `fill_workers` /
    /// `compute_workers` counts are clamped into the policy's bounds at
    /// start.
    #[must_use]
    pub fn with_ctrl(mut self, ctrl: CtrlConfig) -> Self {
        self.ctrl = Some(ctrl);
        self
    }

    /// Enables bounded-retry with exponential backoff on storage-facing
    /// fill reads, accounting retries into `counters`.
    #[must_use]
    pub fn with_chaos_retry(mut self, policy: RetryPolicy, counters: Arc<ChaosCounters>) -> Self {
        self.chaos_retry = Some((policy, counters));
        self
    }

    /// Sets the preprocessing pipeline factory.
    #[must_use]
    pub fn with_pipeline_factory(mut self, factory: fn() -> PreprocessPipeline) -> Self {
        self.pipeline_factory = factory;
        self
    }
}

/// One unit of fill work: a file to decode, or a partition barrier passing
/// through. Both carry a position in the submission sequence, which is the
/// service's ordering authority.
enum FillTask {
    File {
        seq: u64,
        path: String,
        /// `Some(shard)` pins every row of this file to that shard,
        /// bypassing the [`ShardPolicy`] — the fleet coordinator's explicit
        /// global placement. `None` keeps policy routing.
        shard: Option<usize>,
    },
    Barrier {
        seq: u64,
        id: u64,
    },
}

enum FilledPayload {
    Rows {
        rows: ColumnarBatch,
        shard: Option<usize>,
    },
    Barrier(u64),
}

struct FilledFile {
    seq: u64,
    payload: FilledPayload,
}

/// Rows of a decoded file, which every batch reading it shares.
pub(crate) type Run = (Arc<ColumnarBatch>, Range<usize>);

struct WorkItem {
    shard: usize,
    seq: u64,
    /// The batch's rows, in order.
    runs: Vec<Run>,
}

/// What a finished service run reports (its batches left through the
/// trainer lanes).
#[derive(Debug)]
pub struct DppOutput {
    /// Final accounting.
    pub report: DppReport,
}

/// Errors accumulated by a service run.
#[derive(Debug)]
pub struct DppError {
    /// One message per failed fill or conversion, in no particular order.
    pub errors: Vec<String>,
    /// The run's accounting, so a partially failed run is not a total
    /// loss. Boxed so the `Result` the service returns stays small.
    pub output: Box<DppOutput>,
}

impl std::fmt::Display for DppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "streaming DPP run finished with {} error(s): {}",
            self.errors.len(),
            self.errors.first().map(String::as_str).unwrap_or("?")
        )
    }
}

impl std::error::Error for DppError {}

/// How far fill workers may decode ahead of the router. The router restores
/// submission order, so without a bound one stalled fill (a slow get, a
/// descheduled thread) lets its siblings park decoded files in the reorder
/// buffer without limit, each holding a pool shell. A fill worker holds file
/// `seq` until `seq < routed + width`; the lowest outstanding seq always
/// passes, so the window cannot deadlock.
struct RouteWindow {
    /// The next seq the router needs: every seq below it is routed and its
    /// shell recycled.
    routed: Mutex<u64>,
    advanced: Condvar,
    width: u64,
}

impl RouteWindow {
    /// Blocks until file `seq` is inside the window.
    fn enter(&self, seq: u64) {
        let routed = self.routed.lock().expect("route window lock");
        drop(
            self.advanced
                .wait_while(routed, |routed| seq >= routed.saturating_add(self.width))
                .expect("route window lock"),
        );
    }

    /// Slides the window to start at `routed`; `u64::MAX` opens it for good.
    fn advance(&self, routed: u64) {
        *self.routed.lock().expect("route window lock") = routed;
        self.advanced.notify_all();
    }
}

/// Opens the window when the router stops, however it stops, so no fill
/// worker stays parked at it.
struct OpenOnDrop<'a>(&'a RouteWindow);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.advance(u64::MAX);
    }
}

/// Everything one running service shares, declared once. The fill, compute
/// and router threads, the pool spawners, the controller's probes,
/// [`SnapshotSource`] and [`DppHandle`] all hold one `Arc` of it; a thread
/// context adds only its worker id and channel ends. A live snapshot and the
/// final report are the same read of it, [`State::report`].
///
/// It holds no channel end — only passive gauges — so end-of-stream still
/// cascades when the handle closes the input, however long a monitor keeps
/// a [`SnapshotSource`].
struct State {
    /// When the service started: the origin of every rate it reports.
    started: Instant,
    config: DppConfig,
    store: Arc<TableStore>,
    schema: Schema,
    counters: ServiceCounters,
    /// Combined per-phase accounting; every worker merges its own at exit.
    phase_metrics: Mutex<ReaderMetrics>,
    /// One message per failed fill or conversion.
    errors: Mutex<Vec<String>>,
    /// The swap-buffer arena of decoded files: a fill worker draws each file
    /// from it, and the router or compute worker that drops the file's last
    /// run recycles it, so steady-state files allocate nothing. Capacity is
    /// the most files that can be live, so no shell is ever dropped and
    /// misses never exceed it; dynamic scale-downs shrink it again.
    batch_pool: BatchPool<ColumnarBatch>,
    /// Emptied run lists, from compute workers back to the router.
    run_lists: BatchPool<Vec<Run>>,
    /// Converted-batch shells flow compute → sink → consumer; the consumer
    /// recycles them back through [`DppHandle::converted_pool`].
    converted_pool: Arc<BatchPool<ConvertedBatch>>,
    /// `get_into` blob buffers: pool-owned so decode allocations survive
    /// worker retirement/respawn. One per live fill worker plus one spare
    /// covers the whole population.
    blob_pool: BatchPool<BlobScratch>,
    window: RouteWindow,
    fill_gov: Arc<PoolGovernor>,
    compute_gov: Arc<PoolGovernor>,
    /// Per-batch compute-phase latency distributions, shared by every
    /// compute worker (including dynamically spawned ones).
    convert_hist: Histogram,
    process_hist: Histogram,
    scale_events: Arc<Mutex<Vec<ScaleEvent>>>,
    lanes: TrainerLanes,
    input_gauge: Gauge<FillTask>,
    filled_gauge: Gauge<FilledFile>,
    work_gauge: Gauge<WorkItem>,
    out_gauge: Gauge<SinkInput>,
    barriers: BarrierState,
    /// The controller's live state; `None` without [`DppConfig::with_ctrl`].
    ctrl: Option<Arc<CtrlShared>>,
}

impl State {
    /// Drops one hold on a decoded file; the last hold recycles it.
    fn release(&self, file: Arc<ColumnarBatch>) {
        if let Some(file) = Arc::into_inner(file) {
            self.batch_pool.recycle(file);
        }
    }

    /// Accounts one failed fill or conversion.
    fn record_error(&self, message: String) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        self.errors.lock().expect("error list lock").push(message);
    }

    /// Sizes the batch pools for `fill` fill and `compute` compute workers.
    fn size_pools(&self, fill: usize, compute: usize) {
        self.batch_pool
            .set_capacity(batch_pool_capacity(&self.config, fill, compute));
        self.converted_pool
            .set_capacity(converted_pool_capacity(self.config.queue_depth, compute));
    }

    /// The service's accounting as of now: a live snapshot while it runs,
    /// the final report once it has drained.
    fn report(&self) -> DppReport {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let counters = &self.counters;
        let samples = counters.samples_out.load(Ordering::Relaxed);
        let logical_sparse_values = counters.logical_sparse_values.load(Ordering::Relaxed);
        let stored_sparse_values = counters.stored_sparse_values.load(Ordering::Relaxed);
        DppReport {
            fill_workers: self.config.fill_workers,
            compute_workers: self.config.compute_workers,
            fill_workers_live: self.fill_gov.live(),
            compute_workers_live: self.compute_gov.live(),
            peak_fill_workers: self.fill_gov.peak_live(),
            peak_compute_workers: self.compute_gov.peak_live(),
            shards: self.config.shards,
            policy: self.config.policy.name().to_string(),
            assign_policy: self.config.assign_policy.name().to_string(),
            wall_seconds,
            files_submitted: counters.files_submitted.load(Ordering::Relaxed),
            files_filled: counters.files_filled.load(Ordering::Relaxed),
            rows_routed: counters.rows_routed.load(Ordering::Relaxed),
            partitions_ingested: counters.partitions_ingested.load(Ordering::Relaxed),
            duplicate_ingests: counters.duplicate_ingests.load(Ordering::Relaxed),
            samples: samples as usize,
            batches: counters.batches_out.load(Ordering::Relaxed) as usize,
            samples_per_second: per_second(samples, wall_seconds),
            egress_bytes: counters.egress_bytes.load(Ordering::Relaxed) as usize,
            logical_sparse_values,
            stored_sparse_values,
            dedupe_factor: dedupe_factor(logical_sparse_values, stored_sparse_values),
            errors: counters.errors.load(Ordering::Relaxed),
            input_queue_depth: self.input_gauge.len(),
            filled_queue_depth: self.filled_gauge.len(),
            work_queue_depth: self.work_gauge.len(),
            output_queue_depth: self.out_gauge.len(),
            peak_input_queue_depth: self.input_gauge.peak_depth(),
            peak_filled_queue_depth: self.filled_gauge.peak_depth(),
            peak_work_queue_depth: self.work_gauge.peak_depth(),
            peak_output_queue_depth: self.out_gauge.peak_depth(),
            trainers: self.lanes.report(),
            scale_events: self.scale_events.lock().expect("scale events lock").clone(),
            batch_pool: self.batch_pool.stats(),
            converted_pool: self.converted_pool.stats(),
            blob_pool: self.blob_pool.stats(),
            ctrl: self.ctrl.as_ref().map(|shared| shared.report()),
            reader_metrics: *self.phase_metrics.lock().expect("phase metrics lock"),
        }
    }
}

/// One pool worker: its id and its channel ends.
struct Worker<I, O> {
    id: usize,
    rx: Receiver<I>,
    tx: Sender<O>,
    state: Arc<State>,
}

impl<I, O> Worker<I, O> {
    /// Feeds every item to `step` until end of stream, a failed hand-off
    /// (`step` returns `false`: the run is being torn down), or a claimed
    /// retirement; a worker that leaves for any other reason than
    /// retirement tells `governor`, so the live gauge stays truthful during
    /// drain.
    fn run(&self, governor: &PoolGovernor, mut step: impl FnMut(I) -> bool) {
        loop {
            let live = match self.rx.recv_timeout(WORKER_POLL) {
                RecvTimeout::Item(item) => step(item),
                RecvTimeout::Timeout => true,
                RecvTimeout::Disconnected => false,
            };
            if !live {
                break;
            }
            if governor.try_retire() {
                return;
            }
        }
        governor.note_exit();
    }
}

/// Spawns one more pool worker.
type Spawner = Box<dyn Fn() -> JoinHandle<()> + Send>;

/// The spawner of one pool, usable both for the initial population and by
/// the controller: each call runs `body` on a new named thread over clones
/// of the pool's channel ends, with an id from the pool's governor.
fn spawner<I: Send + 'static, O: Send + 'static>(
    state: &Arc<State>,
    pool: &'static str,
    (governor, rx, tx): (&Arc<PoolGovernor>, Receiver<I>, Sender<O>),
    body: fn(&Worker<I, O>),
) -> Spawner {
    let (state, governor) = (Arc::clone(state), Arc::clone(governor));
    Box::new(move || {
        let worker = Worker {
            id: governor.next_worker_id(),
            rx: rx.clone(),
            tx: tx.clone(),
            state: Arc::clone(&state),
        };
        spawn_named(format!("dpp-{pool}-{}", worker.id), move || body(&worker))
    })
}

fn fill_worker_loop(ctx: &Worker<FillTask, FilledFile>) {
    let state = &*ctx.state;
    let (dense_cols, sparse_cols) = (state.schema.dense_count(), state.schema.sparse_count());
    let mut local = ReaderMetrics::default();
    // Long-lived decode scratch: decompression buffer and lengths stream.
    // The blob buffer inside is pool-owned: installed
    // here from the blob pool (a `usize::MAX` hint asks for the largest
    // shelved buffer) and returned on exit, so the allocation survives this
    // worker's retirement and warms its replacement across scaling churn.
    let mut scratch = FileReadScratch::default();
    scratch.install_blob(state.blob_pool.acquire(usize::MAX, BlobScratch::default).0);
    // Size hint for the next decode target: files in one table are near-
    // uniform, so the previous file's row count is the best predictor.
    let mut row_hint = 0usize;
    ctx.run(&state.fill_gov, |task| match task {
        FillTask::File { seq, path, shard } => {
            // Decode into a pool-recycled batch; misses only occur while the
            // pipeline's population warms up.
            state.window.enter(seq);
            let mut rows = state
                .batch_pool
                .acquire(row_hint, || ColumnarBatch::new(dense_cols, sparse_cols));
            // A failed attempt may leave the batch partially decoded, so
            // every attempt starts from an empty shell of the right shape;
            // under chaos retry, transient injected faults then degrade to a
            // short backoff instead of losing the file.
            let mut attempt = || {
                rows.reset(dense_cols, sparse_cols);
                fill_file_columnar_into(
                    &state.store,
                    &state.schema,
                    &path,
                    &mut scratch,
                    &mut rows,
                    &mut local,
                )
            };
            let outcome = match &state.config.chaos_retry {
                Some((policy, chaos)) => {
                    policy.run(Some(chaos), StorageError::is_transient, attempt)
                }
                None => attempt(),
            };
            match outcome {
                Ok(()) => {
                    state.counters.files_filled.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => {
                    state.record_error(format!("fill {path}: {err}"));
                    // The router skips empty row sets, so ordering survives
                    // fill failures: reset the batch to an empty tombstone of
                    // the right shape.
                    rows.reset(dense_cols, sparse_cols);
                }
            }
            row_hint = rows.len();
            let payload = FilledPayload::Rows { rows, shard };
            ctx.tx.send(FilledFile { seq, payload }).is_ok()
        }
        // Barriers don't decode anything — they only need to occupy their
        // position in the restored submission order.
        FillTask::Barrier { seq, id } => {
            let payload = FilledPayload::Barrier(id);
            ctx.tx.send(FilledFile { seq, payload }).is_ok()
        }
    });
    // Hand the blob allocation back for the next worker generation.
    state.blob_pool.recycle(BlobScratch(scratch.take_blob()));
    *state.phase_metrics.lock().expect("phase metrics lock") += local;
}

fn compute_worker_loop(ctx: &Worker<WorkItem, SinkInput>) {
    let state = &*ctx.state;
    let mut engine = PhaseEngine::new(
        state.config.reader.clone(),
        (state.config.pipeline_factory)(),
    );
    let mut local = ReaderMetrics::default();
    ctx.run(&state.compute_gov, |mut item| {
        // Convert into a shell from the converted pool (hits require a
        // consumer recycling shells) sized for this batch, then drop the
        // batch's holds on its files.
        let rows = RowRuns::new(&item.runs);
        let mut batch = state
            .converted_pool
            .acquire(rows.row_count(), ConvertedBatch::default);
        // The converter trusts a row marked as repeating its predecessor
        // without comparing it, except on a run's first row; debug builds
        // hold every routed run's marks to its rows.
        debug_assert!(
            item.runs
                .iter()
                .all(|(file, run)| file.slice_rows(run.clone()).check_repeats().is_ok()),
            "shard {} routed a run with an unsound repeat hint",
            item.shard,
        );
        // Per-batch phase latency = the engine's own phase-CPU delta around
        // this one batch, so the histograms see exactly what the aggregate
        // PhaseMetrics see, bucketed.
        let convert_before = local.convert.cpu_nanos;
        let process_before = local.process.cpu_nanos;
        let outcome = engine.run_runs_into(&rows, &mut batch, &mut local);
        state
            .convert_hist
            .observe((local.convert.cpu_nanos - convert_before) as f64 / 1e9);
        state
            .process_hist
            .observe((local.process.cpu_nanos - process_before) as f64 / 1e9);
        for (file, _) in item.runs.drain(..) {
            state.release(file);
        }
        state.run_lists.recycle(item.runs);
        let (shard, seq) = (item.shard, item.seq);
        match outcome {
            Ok(()) => {
                let counters = &state.counters;
                counters.batches_out.fetch_add(1, Ordering::Relaxed);
                counters
                    .samples_out
                    .fetch_add(batch.batch_size as u64, Ordering::Relaxed);
                counters.egress_bytes.fetch_add(
                    (batch.sparse_payload_bytes() + batch.dense.payload_bytes()) as u64,
                    Ordering::Relaxed,
                );
                counters
                    .logical_sparse_values
                    .fetch_add(batch.logical_sparse_values() as u64, Ordering::Relaxed);
                counters
                    .stored_sparse_values
                    .fetch_add(batch.stored_sparse_values() as u64, Ordering::Relaxed);
                let out = OutBatch { shard, seq, batch };
                ctx.tx.send(SinkInput::Batch(out)).is_ok()
            }
            Err(err) => {
                state.record_error(format!("convert shard {shard}: {err}"));
                // The shell's contents are unspecified after a failed
                // convert, but every refill overwrites them — keep the warm
                // buffers in the loop.
                state.converted_pool.recycle(batch);
                // The sequence slot must still be accounted: the sink's
                // resequencer would otherwise wait on the hole forever,
                // stalling the shard's whole tail and any barrier cut past
                // it.
                ctx.tx.send(SinkInput::Skip { shard, seq }).is_ok()
            }
        }
    });
    *state.phase_metrics.lock().expect("phase metrics lock") += local;
}

/// The router's channel ends.
struct RouterCtx {
    filled_rx: Receiver<FilledFile>,
    work_tx: Sender<WorkItem>,
    out_tx: Sender<SinkInput>,
    state: Arc<State>,
}

fn router_loop(ctx: RouterCtx) {
    let state = &*ctx.state;
    let (policy, shards) = (state.config.policy, state.config.shards);
    let batch_size = state.config.reader.batch_size;
    // Run lists come off their pool: at steady state a shard's next list is
    // one some compute worker just emptied.
    let fresh = || state.run_lists.acquire(0, Vec::new);
    let _open = OpenOnDrop(&state.window);
    let mut pending: BTreeMap<u64, FilledPayload> = BTreeMap::new();
    let mut next_seq = 0u64;
    // FileRoundRobin counts *files* since the last barrier, not submission
    // seqs: a barrier restarts the rotation, so a file's shard depends only
    // on its place within its partition (and a resume, which always starts
    // at a barrier, needs no rotation state).
    let mut files_routed = 0u64;
    // Each shard's batch in the making: runs of the decoded files and the
    // rows they hold. Routing a run is a handful of appends; no row is
    // copied.
    let mut batches: Vec<(Vec<Run>, usize)> = (0..shards).map(|_| (fresh(), 0)).collect();
    let mut shard_seqs = vec![0u64; shards];
    let mut local = ReaderMetrics::default();
    let emit = |shard: usize, runs: Vec<Run>, shard_seqs: &mut Vec<u64>| -> bool {
        let seq = shard_seqs[shard];
        shard_seqs[shard] += 1;
        ctx.work_tx.send(WorkItem { shard, seq, runs }).is_ok()
    };
    'stream: while let Some(filled) = ctx.filled_rx.recv() {
        pending.insert(filled.seq, filled.payload);
        // Drain the contiguous prefix in submission order.
        while let Some(payload) = pending.remove(&next_seq) {
            next_seq += 1;
            match payload {
                FilledPayload::Rows {
                    rows,
                    shard: pinned,
                } => {
                    let file_idx = files_routed;
                    files_routed += 1;
                    state
                        .counters
                        .rows_routed
                        .fetch_add(rows.len() as u64, Ordering::Relaxed);
                    let file = Arc::new(rows);
                    let shard_of = |row: usize| match pinned {
                        // An explicit placement (the fleet coordinator's
                        // file-granular global sharding) overrides the
                        // policy; the file still occupies its rotation
                        // slot so mixed usage stays deterministic.
                        Some(s) => s.min(shards - 1),
                        None => match policy {
                            ShardPolicy::FileRoundRobin => (file_idx % shards as u64) as usize,
                            ShardPolicy::SessionAffine => {
                                (recd_codec::hash_ids(&[file.session_id(row).raw()])
                                    % shards as u64) as usize
                            }
                        },
                    };
                    // Rows move in maximal runs bound for one shard: the
                    // shard is decided once per session change (once per
                    // file unless sessions choose it), and a run is cut
                    // where a batch fills.
                    let per_session = pinned.is_none() && policy == ShardPolicy::SessionAffine;
                    let mut run_start = 0;
                    let mut run_shard = if file.is_empty() { 0 } else { shard_of(0) };
                    for row in 1..=file.len() {
                        let next = if row == file.len() {
                            None
                        } else if !per_session || file.session_id(row) == file.session_id(row - 1) {
                            continue;
                        } else {
                            Some(shard_of(row))
                        };
                        if next == Some(run_shard) {
                            continue;
                        }
                        while run_start < row {
                            let (runs, held) = &mut batches[run_shard];
                            let end = row.min(run_start + batch_size - *held);
                            runs.push((Arc::clone(&file), run_start..end));
                            *held += end - run_start;
                            run_start = end;
                            if *held >= batch_size {
                                *held = 0;
                                let full = std::mem::replace(runs, fresh());
                                if !emit(run_shard, full, &mut shard_seqs) {
                                    break 'stream;
                                }
                            }
                        }
                        run_shard = next.unwrap_or(run_shard);
                    }
                    // Every row is in a run now; a file no run holds any
                    // more (an empty one, or one whose batches are already
                    // converted) goes back to the fill workers.
                    state.release(file);
                }
                FilledPayload::Barrier(id) => {
                    // Partition boundary: everything submitted before the
                    // barrier must be emitted, so partial batches flush as
                    // short ones (full ones were emitted eagerly).
                    for (shard, (runs, held)) in batches.iter_mut().enumerate() {
                        if *held > 0 {
                            *held = 0;
                            let partial = std::mem::replace(runs, fresh());
                            local.flushed_partial_batches += 1;
                            if !emit(shard, partial, &mut shard_seqs) {
                                break 'stream;
                            }
                        }
                    }
                    local.barrier_flushes += 1;
                    files_routed = 0;
                    // The cuts tell the sink exactly which per-shard
                    // sequence prefix precedes this barrier; arrival order
                    // at the sink is irrelevant.
                    if ctx
                        .out_tx
                        .send(SinkInput::Barrier {
                            id,
                            cuts: shard_seqs.clone(),
                        })
                        .is_err()
                    {
                        break 'stream;
                    }
                }
            }
            state.window.advance(next_seq);
        }
    }
    // End of stream: flush partial batches in shard order.
    for (shard, (runs, held)) in batches.into_iter().enumerate() {
        if held > 0 && !emit(shard, runs, &mut shard_seqs) {
            break;
        }
    }
    *state.phase_metrics.lock().expect("phase metrics lock") += local;
}

/// Spawns one named service thread.
fn spawn_named<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn DPP service thread")
}

/// The long-running streaming preprocessing service. [`DppService::start`]
/// spawns the worker topology and returns a [`DppHandle`] for feeding it.
#[derive(Debug)]
pub struct DppService;

impl DppService {
    /// Starts the service over a table store. Work arrives via
    /// [`DppHandle::submit_file`]; batches leave through the
    /// [`TrainerHandle`]s from [`DppHandle::take_trainers`], and the final
    /// report comes back from [`DppHandle::finish`].
    pub fn start(config: DppConfig, store: Arc<TableStore>, schema: Schema) -> DppHandle {
        Self::start_with(config, store, schema, DppCheckpoint::default())
    }

    /// Starts the service continuing from a [`DppCheckpoint`] taken at a
    /// barrier boundary by a previous incarnation: the barrier-id sequence,
    /// ingest counters, and — crucially — the
    /// already-ingested partition dedup set all pick up where the crashed
    /// instance stopped. Re-offering a partition the checkpoint already
    /// covers is a no-op, so an at-least-once upstream replay feeds the
    /// trainers each partition exactly once.
    pub fn resume(
        config: DppConfig,
        store: Arc<TableStore>,
        schema: Schema,
        checkpoint: DppCheckpoint,
    ) -> DppHandle {
        Self::start_with(config, store, schema, checkpoint)
    }

    fn start_with(
        config: DppConfig,
        store: Arc<TableStore>,
        schema: Schema,
        checkpoint: DppCheckpoint,
    ) -> DppHandle {
        let started = Instant::now();
        // Cumulative feed counters continue across the crash so dashboards
        // and reports see one logical run.
        let counters = ServiceCounters {
            files_submitted: checkpoint.files_routed.into(),
            partitions_ingested: checkpoint.partitions_ingested.into(),
            duplicate_ingests: checkpoint.duplicate_ingests.into(),
            ..ServiceCounters::default()
        };

        // Worker counts start clamped into the controller bounds (when any
        // exist); the pools size for the maximum population they may grow to.
        let (initial_fill, initial_compute, max_fill, max_compute) = match &config.ctrl {
            Some(c) => (
                config.fill_workers.clamp(c.min_workers, c.max_workers),
                config.compute_workers.clamp(c.min_workers, c.max_workers),
                c.max_workers,
                c.max_workers,
            ),
            None => (
                config.fill_workers,
                config.compute_workers,
                config.fill_workers,
                config.compute_workers,
            ),
        };
        let depth = config.queue_depth;

        let (input_tx, input_rx) = bounded::<FillTask>(depth);
        let (filled_tx, filled_rx) = bounded::<FilledFile>(depth);
        let (work_tx, work_rx) = bounded::<WorkItem>(depth);
        let (out_tx, out_rx) = bounded::<SinkInput>(depth);
        let (lanes, lane_senders, trainers) =
            TrainerLanes::open(config.trainers.max(1), config.trainer_queue_depth);

        let state = Arc::new(State {
            started,
            store,
            counters,
            phase_metrics: Mutex::new(ReaderMetrics::default()),
            errors: Mutex::new(Vec::new()),
            batch_pool: BatchPool::new(batch_pool_capacity(&config, max_fill, max_compute)),
            // One list pending per shard plus a full one being handed on,
            // the work queue, and one per compute worker.
            run_lists: BatchPool::new(config.shards + 1 + depth + max_compute),
            converted_pool: Arc::new(BatchPool::new(converted_pool_capacity(depth, max_compute))),
            blob_pool: BatchPool::new(max_fill + 1),
            window: RouteWindow {
                routed: Mutex::new(0),
                advanced: Condvar::new(),
                width: route_window(depth, max_fill) as u64,
            },
            fill_gov: Arc::default(),
            compute_gov: Arc::default(),
            convert_hist: Histogram::new(LATENCY_BOUNDS),
            process_hist: Histogram::new(LATENCY_BOUNDS),
            scale_events: Arc::default(),
            lanes,
            input_gauge: input_rx.gauge(),
            filled_gauge: filled_rx.gauge(),
            work_gauge: work_rx.gauge(),
            out_gauge: out_rx.gauge(),
            barriers: BarrierState::default(),
            ctrl: config.ctrl.as_ref().map(|_| Arc::default()),
            config,
            schema,
        });

        let fill_pool = (&state.fill_gov, input_rx, filled_tx);
        let spawn_fill = spawner(&state, "fill", fill_pool, fill_worker_loop);
        let compute_pool = (&state.compute_gov, work_rx, out_tx.clone());
        let spawn_compute = spawner(&state, "compute", compute_pool, compute_worker_loop);

        for _ in 0..initial_fill {
            state.fill_gov.adopt(spawn_fill());
        }
        for _ in 0..initial_compute {
            state.compute_gov.adopt(spawn_compute());
        }

        let router = {
            let ctx = RouterCtx {
                filled_rx,
                work_tx,
                out_tx,
                state: Arc::clone(&state),
            };
            spawn_named("dpp-router".to_string(), move || router_loop(ctx))
        };

        let sink = {
            let state = Arc::clone(&state);
            spawn_named("dpp-sink".to_string(), move || {
                run_sink(SinkParams {
                    out_rx,
                    shards: state.config.shards,
                    lanes: lane_senders,
                    policy: state.config.assign_policy,
                    // The spillover lets healthy trainers keep receiving
                    // while one lane is full; once it overflows the sink
                    // waits for lane space and ordinary backpressure takes
                    // over.
                    park_capacity: state.config.trainer_queue_depth * state.config.trainers.max(1),
                    barriers: &state.barriers,
                    converted_pool: &state.converted_pool,
                })
            })
        };

        // The controller, when configured, takes ownership of the spawners;
        // without it they are dropped here, releasing their channel clones.
        let controller = state
            .config
            .ctrl
            .clone()
            .zip(state.ctrl.clone())
            .map(|(ctrl, shared)| {
                let clock: Arc<dyn ScaleClock> = ctrl
                    .clock
                    .clone()
                    .unwrap_or_else(|| Arc::new(WallClock::new(ctrl.tick_period)));
                let probe = |depth: fn(&State) -> usize| -> Box<dyn Fn() -> usize + Send> {
                    let state = Arc::clone(&state);
                    Box::new(move || depth(&state))
                };
                // The lane signal is the *worst* lane's fill fraction: one
                // stalled trainer is a bottleneck even while its siblings drain.
                let lane_capacity = state.config.trainer_queue_depth;
                let lane_state = Arc::clone(&state);
                let resize_state = Arc::clone(&state);
                let params = PidParams {
                    clock: Arc::clone(&clock),
                    shared,
                    fill: PoolControls {
                        name: "fill",
                        governor: Arc::clone(&state.fill_gov),
                        min: ctrl.min_workers,
                        max: ctrl.max_workers,
                        queue_probe: probe(|state| state.input_gauge.len()),
                        queue_capacity: depth,
                        spawn: spawn_fill,
                    },
                    compute: PoolControls {
                        name: "compute",
                        governor: Arc::clone(&state.compute_gov),
                        min: ctrl.min_workers,
                        max: ctrl.max_workers,
                        queue_probe: probe(|state| state.work_gauge.len()),
                        queue_capacity: depth,
                        spawn: spawn_compute,
                    },
                    lane_probe: Box::new(move || (lane_state.lanes.deepest(), lane_capacity)),
                    tail_lag_probe: ctrl
                        .tail_lag_probe
                        .clone()
                        .map(|probe| Box::new(move || probe()) as Box<dyn Fn() -> u64 + Send>),
                    events: Arc::clone(&state.scale_events),
                    on_resize: Box::new(move |fill, compute| {
                        resize_state.size_pools(fill, compute)
                    }),
                };
                (clock, spawn_pid_controller(params))
            });

        DppHandle {
            state,
            input: input_tx,
            next_file_seq: 0,
            next_barrier_id: checkpoint.next_barrier_id,
            ingested: checkpoint.ingested.into_iter().collect(),
            trainers,
            router,
            sink,
            controller,
        }
    }
}

/// A detachable, cloneable view of the service's live metrics — safe to hand
/// to a monitoring thread while the [`DppHandle`] keeps feeding (or is
/// consumed by [`DppHandle::finish`]).
#[derive(Clone)]
pub struct SnapshotSource(Arc<State>);

impl SnapshotSource {
    /// Distribution of per-batch IKJT conversion latency (seconds) across
    /// all compute workers so far.
    pub fn convert_latency(&self) -> HistogramSnapshot {
        self.0.convert_hist.snapshot()
    }

    /// Distribution of per-batch preprocessing latency (seconds) across all
    /// compute workers so far.
    pub fn process_latency(&self) -> HistogramSnapshot {
        self.0.process_hist.snapshot()
    }

    /// The service's accounting as of now — the report
    /// [`DppHandle::finish`] returns, taken live.
    pub fn snapshot(&self) -> DppReport {
        self.0.report()
    }
}

/// The feeding/monitoring handle of a running [`DppService`].
pub struct DppHandle {
    state: Arc<State>,
    input: Sender<FillTask>,
    next_file_seq: u64,
    next_barrier_id: u64,
    /// Blob-store prefixes of every partition ingested so far — the replay
    /// dedup set (see [`DppHandle::ingest_partition`]).
    ingested: HashSet<String>,
    trainers: Vec<TrainerHandle>,
    router: JoinHandle<()>,
    sink: JoinHandle<()>,
    controller: Option<(Arc<dyn ScaleClock>, JoinHandle<()>)>,
}

impl DppHandle {
    /// Submits one stored file. Blocks while the fill queue is at capacity —
    /// this is where the service's backpressure reaches the producer.
    ///
    /// File submission order is the service's ordering authority: batch
    /// composition is a pure function of it (never of worker scheduling).
    pub fn submit_file(&mut self, path: impl Into<String>) {
        self.submit_with_shard(path.into(), None);
    }

    /// Submits one stored file with every row pinned to `shard`, bypassing
    /// the [`ShardPolicy`]. This is the fleet coordinator's feed path: the
    /// coordinator owns the *global* file → shard placement and each host
    /// only ever sees explicit assignments, so batch composition is a pure
    /// function of the coordinator's submission order — independent of which
    /// host (or how many hosts) the shard currently lives on.
    ///
    /// `shard` must be within this service's shard range.
    pub fn submit_file_to_shard(&mut self, path: impl Into<String>, shard: usize) {
        let shards = self.state.config.shards;
        assert!(
            shard < shards,
            "shard {shard} out of range for a {shards}-shard service"
        );
        self.submit_with_shard(path.into(), Some(shard));
    }

    fn submit_with_shard(&mut self, path: String, shard: Option<usize>) {
        let task = FillTask::File {
            seq: self.next_file_seq,
            path,
            shard,
        };
        self.next_file_seq += 1;
        self.state
            .counters
            .files_submitted
            .fetch_add(1, Ordering::Relaxed);
        // The only way every receiver disappears is a torn-down run; the
        // caller learns the details from finish().
        let _ = self.input.send(task);
    }

    /// Submits every file of a stored partition, in order.
    pub fn submit_partition(&mut self, partition: &StoredPartition) {
        for file in &partition.files {
            self.submit_file(file.clone());
        }
    }

    /// Ingests one freshly landed partition — the continuous-ETL feed path:
    /// a streaming ETL stage seals and lands a [`StoredPartition`], then
    /// hands it straight to the running service instead of accumulating a
    /// pre-built table. Equivalent to [`DppHandle::submit_partition`] plus
    /// partition accounting in the [`DppReport`]; the same
    /// backpressure contract applies (blocks while the fill queue is full).
    ///
    /// Ingestion is **idempotent**: each partition (keyed by its blob-store
    /// prefix) is consumed at most once per logical run, including across a
    /// checkpoint/resume. A replayed duplicate is skipped, counted in
    /// `duplicate_ingests`, and returns `false` — which is how an
    /// at-least-once upstream replay composes to an exactly-once feed.
    pub fn ingest_partition(&mut self, partition: &StoredPartition) -> bool {
        let key = StoredPartition::prefix(&partition.table, partition.hour);
        let counters = &self.state.counters;
        if !self.ingested.insert(key) {
            counters.duplicate_ingests.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        counters.partitions_ingested.fetch_add(1, Ordering::Relaxed);
        self.submit_partition(partition);
        true
    }

    /// Captures a [`DppCheckpoint`] of the feed state. Only meaningful right
    /// after a successful [`flush_partition`](Self::flush_partition) — at a
    /// barrier boundary every submitted row has been delivered, so the
    /// service's durable state reduces to these counters plus the ingest
    /// dedup set. Hand the checkpoint to [`DppService::resume`] to continue
    /// after a crash.
    pub fn checkpoint(&self) -> DppCheckpoint {
        let mut ingested: Vec<String> = self.ingested.iter().cloned().collect();
        ingested.sort_unstable();
        let counters = &self.state.counters;
        DppCheckpoint {
            files_routed: counters.files_submitted.load(Ordering::Relaxed),
            partitions_ingested: counters.partitions_ingested.load(Ordering::Relaxed),
            duplicate_ingests: counters.duplicate_ingests.load(Ordering::Relaxed),
            next_barrier_id: self.next_barrier_id,
            ingested,
        }
    }

    /// Injects a partition barrier and blocks until **every batch from
    /// previously submitted files has been delivered** onto a trainer lane.
    /// Shard accumulators holding fewer than `batch_size` rows flush as short
    /// batches, so a partition boundary never strands rows in the pipeline.
    ///
    /// While a flush waits, trainers must keep consuming (a full lane cannot
    /// accept the flushed batches); the spillover buffer absorbs moderate
    /// lag, and under least-loaded assignment one stalled trainer's parked
    /// batches move to lanes that drain. Flushing an idle service returns immediately. Returns `false`
    /// only if the service tore down before the barrier resolved.
    pub fn flush_partition(&mut self) -> bool {
        self.next_barrier_id += 1;
        let id = self.next_barrier_id;
        let task = FillTask::Barrier {
            seq: self.next_file_seq,
            id,
        };
        self.next_file_seq += 1;
        if self.input.send(task).is_err() {
            return false;
        }
        self.state.barriers.wait(id)
    }

    /// Takes the per-trainer pull endpoints, one per configured lane. Hand
    /// each one to a consuming thread before feeding: a lane nobody pulls
    /// fills and then backpressures the whole service. Dropping a handle
    /// marks that trainer dead, and its batches re-route or are counted as
    /// dropped rather than wedging the service.
    pub fn take_trainers(&mut self) -> Vec<TrainerHandle> {
        std::mem::take(&mut self.trainers)
    }

    /// The service's accounting as of now — the report
    /// [`finish`](Self::finish) returns, taken live.
    pub fn snapshot(&self) -> DppReport {
        self.state.report()
    }

    /// Returns a cloneable snapshot source that outlives this handle — hand
    /// it to a monitoring thread while the handle keeps feeding.
    pub fn snapshot_source(&self) -> SnapshotSource {
        SnapshotSource(Arc::clone(&self.state))
    }

    /// The ETL pump gate — the PID controller's pump-rate actuation
    /// endpoint. `None` unless the service runs with
    /// [`DppConfig::with_ctrl`]. The pump loop polls
    /// [`PumpGate::pump_allowed`] before each pump and backs off (bounded)
    /// while full trainer lanes hold the gate red.
    pub fn pump_gate(&self) -> Option<PumpGate> {
        self.state
            .ctrl
            .as_ref()
            .map(|s| PumpGate::new(Arc::clone(s)))
    }

    /// The PID controller's shared state: live `recd_ctrl_*` metrics
    /// ([`CtrlShared`] implements [`recd_obs::Collector`] — register it on a
    /// metrics registry to export them) and the actuation counters. `None`
    /// unless the service runs with [`DppConfig::with_ctrl`].
    pub fn ctrl_shared(&self) -> Option<Arc<CtrlShared>> {
        self.state.ctrl.clone()
    }

    /// The converted-batch shell pool. A consumer that is done with an
    /// emitted [`ConvertedBatch`] recycles it here; compute workers then
    /// refill the shell's tensors in place instead of allocating, closing
    /// the compute → sink → consumer → compute buffer loop.
    pub fn converted_pool(&self) -> Arc<BatchPool<ConvertedBatch>> {
        Arc::clone(&self.state.converted_pool)
    }

    /// Gracefully shuts down: closes the input, lets every stage drain, joins
    /// all workers (including the controller and any dynamically spawned
    /// workers), and returns the final report. The drain completes once the
    /// trainer lanes have accepted everything — keep consuming from the
    /// [`TrainerHandle`]s (or drop them) while this call runs.
    ///
    /// # Errors
    ///
    /// Returns [`DppError`] (still carrying the report) if any fill or
    /// conversion failed during the run.
    pub fn finish(self) -> Result<DppOutput, DppError> {
        let DppHandle {
            state,
            input,
            trainers,
            router,
            sink,
            controller,
            ..
        } = self;
        // The controller owns clones of the inter-stage channel ends (inside
        // its spawners); it must exit before downstream stages can observe
        // end-of-stream.
        if let Some((clock, controller)) = controller {
            clock.shutdown();
            controller.join().expect("controller must not panic");
        }
        // Closing the input cascades end-of-stream through every stage.
        drop(input);
        // Untaken trainer handles would leave lanes forever unconsumed;
        // dropping them lets the sink account those batches as dropped
        // instead of blocking the drain.
        drop(trainers);
        for handle in state.fill_gov.take_handles() {
            handle.join().expect("fill worker must not panic");
        }
        router.join().expect("router must not panic");
        for handle in state.compute_gov.take_handles() {
            handle.join().expect("compute worker must not panic");
        }
        sink.join().expect("sink must not panic");

        let output = DppOutput {
            report: state.report(),
        };
        let errors = std::mem::take(&mut *state.errors.lock().expect("error list lock"));
        if errors.is_empty() {
            Ok(output)
        } else {
            Err(DppError {
                errors,
                output: Box::new(output),
            })
        }
    }
}
