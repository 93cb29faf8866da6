//! # recd-dpp
//!
//! The streaming Data PreProcessing tier: a long-running, multi-worker
//! service that feeds deduplicated IKJT batches to trainers, modeled on the
//! paper's production DPP setting (RecD runs *continuously* under heavy
//! load, not as a one-shot job).
//!
//! This service is the repository's only reader: it runs the
//! fill → convert (O3) → preprocess (O4) phases of [`recd_reader`] as
//! **pipeline stages connected by bounded channels**:
//!
//! * a pool of *fill workers* decodes DWRF files concurrently,
//! * a deterministic *router* restores submission order, shards rows (by
//!   session id under [`ShardPolicy::SessionAffine`], preserving the O1
//!   session-affinity property so in-batch dedup factors survive
//!   streaming), and coalesces each shard into training batches,
//! * a pool of *compute workers* runs the shared
//!   [`recd_reader::PhaseEngine`] over coalesced batches,
//! * a *sink* resequences the output so results are deterministic for any
//!   worker count, and delivers every batch onto a trainer lane.
//!
//! Every queue is bounded, so a slow stage backpressures all the way to the
//! producer: [`DppHandle::submit_file`] blocks instead of buffering without
//! limit. [`DppHandle::snapshot`] takes the service's [`DppReport`] live —
//! throughput, progress, queue depths; [`DppHandle::finish`] drains and
//! joins everything for a graceful shutdown and returns the same report.
//!
//! On top of that pipeline this crate provides the two elastic pieces of
//! the paper's deployment story:
//!
//! * **Multi-trainer fan-out** ([`DppConfig::with_trainers`], one lane by
//!   default): the sink resequences batches per shard and streams them onto
//!   N bounded per-trainer lanes under a [`TrainerAssignPolicy`]. Each
//!   [`TrainerHandle`] is an independent pull endpoint with its own
//!   backpressure gauge and consumption counters, so one slow trainer
//!   throttles its lane — not the whole service — until the bounded
//!   spillover is exhausted. [`DppHandle::flush_partition`] injects a
//!   barrier that guarantees partition boundaries are fully delivered
//!   before it returns.
//! * **Dynamic worker sizing** ([`DppConfig::with_ctrl`]): one controller
//!   thread samples the DPP queues, the trainer lanes, and the ETL tail lag
//!   on a [`ScaleClock`], grows or shrinks the fill and compute pools
//!   between configured bounds — recording every resize as a [`ScaleEvent`]
//!   — and gates the ETL pump while trainer lanes are full (see
//!   [`control`]). Batch pools shrink along with the worker population.
//!   Because routing is single-threaded and order-restored, resizing never
//!   changes the emitted batches.
//!
//! [`driver`] is the one loop that feeds either topology — a single service
//! or a [`DppFleet`] — from a log tail through the streaming ETL, under an
//! optional chaos plan; the `recd-dpp` CLI, `PipelineRunner::run` and the
//! pipeline's convergence suites all call it.
//!
//! Modules: [`service`] (the stages and the one state they share),
//! [`sink`] (resequencing, trainer lanes and their delivery — for the
//! service and the fleet alike), [`control`] (the PID policy and the pool
//! governors it drives), [`pool`] (batch-shell arenas), [`channel`]
//! (bounded queues), [`fleet`], [`driver`], [`checkpoint`] (the in-memory
//! barrier state a fleet host restarts from), [`metrics`] (the report
//! types) and [`obs`] (their metric families).
//!
//! Under [`ShardPolicy::FileRoundRobin`] with `shards` readers, the
//! service's delivered output, put in `(shard, seq)` order, is
//! **identical** to a serial reference reader that gives reader *r* every
//! file *i* with `i % shards == r` — the integration tests assert this
//! batch for batch. A barrier restarts the
//! rotation, so `PipelineRunner::run`, which closes every landed partition
//! with one, reads each partition exactly this way. The fan-out tests assert
//! the multiset union across trainer lanes matches the one-lane baseline for
//! every assignment policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod checkpoint;
pub mod control;
pub mod driver;
pub mod fleet;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod service;
pub mod sink;

pub use channel::{bounded, Receiver, RecvTimeout, SendError, Sender};
pub use checkpoint::DppCheckpoint;
pub use control::{CtrlConfig, CtrlReport, CtrlShared, PumpGate, ScaleEvent};
pub use driver::{Consume, Driver, DriverError, DriverOutput, LaneReport, TailFeed, Topology};
pub use fleet::{DppFleet, FleetConfig, FleetCounters, FleetHandle, FleetOutput, FleetReport};
pub use metrics::{DppReport, TrainerLaneReport};
pub use pool::{BatchPool, PoolStats, Reclaim};
// The controller's clocks live in `recd-obs`.
pub use recd_obs::{ManualClock, ScaleClock, WallClock};
pub use service::{
    DppConfig, DppError, DppHandle, DppOutput, DppService, ShardPolicy, SnapshotSource,
};
pub use sink::{TrainerAssignPolicy, TrainerBatch, TrainerHandle};
