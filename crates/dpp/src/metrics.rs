//! The streaming service's accounting: the shared live counters, and the
//! one report a live snapshot and the final drain both return.

use crate::control::{CtrlReport, ScaleEvent};
use crate::pool::PoolStats;
use recd_reader::ReaderMetrics;
use serde::{Deserialize, Serialize};
use std::sync::atomic::AtomicU64;

/// Shared live counters, updated by every stage as work flows through.
/// Gauges for queue depths live on the channels themselves; this struct only
/// holds monotonic counters.
#[derive(Debug, Default)]
pub(crate) struct ServiceCounters {
    /// Files accepted into the fill queue.
    pub files_submitted: AtomicU64,
    /// Landed partitions handed to the service via
    /// [`DppHandle::ingest_partition`](crate::DppHandle::ingest_partition)
    /// (the continuous-ETL feed path).
    pub partitions_ingested: AtomicU64,
    /// Partitions offered again after already being ingested — skipped
    /// rather than re-fed, which is what makes a crash-replayed feed
    /// exactly-once from the service's point of view.
    pub duplicate_ingests: AtomicU64,
    /// Files fully decoded by fill workers.
    pub files_filled: AtomicU64,
    /// Rows routed to shard accumulators.
    pub rows_routed: AtomicU64,
    /// Deduplicated batches emitted by compute workers.
    pub batches_out: AtomicU64,
    /// Samples contained in emitted batches.
    pub samples_out: AtomicU64,
    /// Preprocessed tensor bytes sent toward trainers.
    pub egress_bytes: AtomicU64,
    /// Logical sparse values across emitted batches (pre-dedup).
    pub logical_sparse_values: AtomicU64,
    /// Stored sparse values across emitted batches (post-dedup).
    pub stored_sparse_values: AtomicU64,
    /// Stage errors (failed fills or conversions).
    pub errors: AtomicU64,
}

/// The dedup factor of everything emitted: logical over stored sparse
/// values, 1 before anything was stored.
pub(crate) fn dedupe_factor(logical: u64, stored: u64) -> f64 {
    if stored == 0 {
        1.0
    } else {
        logical as f64 / stored as f64
    }
}

/// A throughput figure: `samples` over `seconds`, 0 before any time passed.
pub(crate) fn per_second(samples: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        samples as f64 / seconds
    } else {
        0.0
    }
}

/// The accounting of one trainer lane, reported in [`DppReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainerLaneReport {
    /// The trainer's id (lane index).
    pub trainer: usize,
    /// Batches delivered but not yet pulled — this trainer's backpressure
    /// gauge.
    pub queue_depth: usize,
    /// Batches delivered onto the lane.
    pub delivered_batches: u64,
    /// Samples delivered onto the lane.
    pub delivered_samples: u64,
    /// Batches the trainer had pulled when this report was taken — even
    /// the one [`DppHandle::finish`](crate::DppHandle::finish) returns: a
    /// trainer still draining its lane keeps counting on its
    /// [`TrainerHandle::consumed_batches`](crate::TrainerHandle::consumed_batches),
    /// so this is at most `delivered_batches`.
    pub consumed_batches: u64,
    /// Samples the trainer had pulled when this report was taken, like
    /// `consumed_batches`.
    pub consumed_samples: u64,
    /// Batches discarded because the trainer dropped its handle mid-run.
    pub dropped_batches: u64,
    /// High-water mark of the lane depth — a persistently high peak marks
    /// the slow trainer.
    pub peak_queue_depth: usize,
}

/// The accounting of one service run: throughput, progress, queue depths,
/// elastic pool sizes, per-trainer lanes, buffer pools and phase work.
/// [`DppHandle::snapshot`](crate::DppHandle::snapshot) takes it live;
/// [`DppHandle::finish`](crate::DppHandle::finish) takes it once the run has
/// drained.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DppReport {
    /// Fill workers configured at start.
    pub fill_workers: usize,
    /// Convert/process workers configured at start.
    pub compute_workers: usize,
    /// Fill workers live now (changes under dynamic scaling).
    pub fill_workers_live: usize,
    /// Compute workers live now (changes under dynamic scaling).
    pub compute_workers_live: usize,
    /// High-water mark of live fill workers (exceeds `fill_workers` when
    /// dynamic scaling grew the pool).
    pub peak_fill_workers: usize,
    /// High-water mark of live compute workers.
    pub peak_compute_workers: usize,
    /// Shard lanes used.
    pub shards: usize,
    /// Sharding policy name.
    pub policy: String,
    /// Trainer lane assignment policy name.
    pub assign_policy: String,
    /// Wall-clock seconds since the service started.
    pub wall_seconds: f64,
    /// Files accepted into the fill queue.
    pub files_submitted: u64,
    /// Files fully decoded by fill workers.
    pub files_filled: u64,
    /// Rows routed to shard accumulators.
    pub rows_routed: u64,
    /// Landed partitions ingested through
    /// [`DppHandle::ingest_partition`](crate::DppHandle::ingest_partition)
    /// (zero outside the continuous-ETL feed path).
    pub partitions_ingested: u64,
    /// Already-ingested partitions offered again and skipped — nonzero after
    /// a crash-replay resume, and exactly the replay overlap size.
    pub duplicate_ingests: u64,
    /// Samples emitted.
    pub samples: usize,
    /// Batches emitted.
    pub batches: usize,
    /// Emitted samples per wall-clock second (the streaming throughput).
    pub samples_per_second: f64,
    /// Preprocessed tensor bytes sent toward trainers.
    pub egress_bytes: usize,
    /// Logical sparse values across emitted batches (pre-dedup).
    pub logical_sparse_values: u64,
    /// Stored sparse values across emitted batches (post-dedup).
    pub stored_sparse_values: u64,
    /// Dedup factor of emitted batches: `logical_sparse_values` over
    /// `stored_sparse_values`.
    pub dedupe_factor: f64,
    /// Stage errors (failed fills or conversions).
    pub errors: u64,
    /// Current depth of the file (fill input) queue.
    pub input_queue_depth: usize,
    /// Current depth of the decoded-file (router input) queue.
    pub filled_queue_depth: usize,
    /// Current depth of the coalesced-batch (compute input) queue.
    pub work_queue_depth: usize,
    /// Current depth of the output queue.
    pub output_queue_depth: usize,
    /// High-water mark of the fill input queue.
    pub peak_input_queue_depth: usize,
    /// High-water mark of the router input queue.
    pub peak_filled_queue_depth: usize,
    /// High-water mark of the compute input queue.
    pub peak_work_queue_depth: usize,
    /// High-water mark of the output queue.
    pub peak_output_queue_depth: usize,
    /// Per-trainer delivery/consumption accounting, one entry per lane.
    pub trainers: Vec<TrainerLaneReport>,
    /// Every pool resize the scaling controller performed, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Decoded-file pool counters: every fill draws its decode target from
    /// this pool, and the file returns once its last run is converted. At
    /// steady state the reuse rate approaches 1.0 and the misses count the
    /// warmup population.
    pub batch_pool: PoolStats,
    /// Converted-batch shell pool counters: compute workers draw shells from
    /// it and consumers recycle them back through
    /// [`DppHandle::converted_pool`](crate::DppHandle::converted_pool), so
    /// hits require a consumer recycling shells during the run.
    pub converted_pool: PoolStats,
    /// `get_into` blob buffer pool counters: fill workers install a pooled
    /// buffer at spawn and return it at exit, so misses count exactly the
    /// distinct fill-worker warmups, never per-fill allocations.
    #[serde(default)]
    pub blob_pool: PoolStats,
    /// The PID control loop's accounting; `None` unless the service runs
    /// with [`DppConfig::with_ctrl`](crate::DppConfig::with_ctrl).
    #[serde(default)]
    pub ctrl: Option<CtrlReport>,
    /// Combined per-phase CPU/byte accounting; each worker merges its own
    /// when it exits.
    pub reader_metrics: ReaderMetrics,
}
