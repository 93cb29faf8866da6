//! Checkpoint state of the streaming DPP service, for exactly-once
//! crash/resume of the continuous feed path.
//!
//! A [`DppCheckpoint`] is only meaningful at a **barrier boundary** — taken
//! right after [`DppHandle::flush_partition`](crate::DppHandle::flush_partition)
//! returns, when every submitted row has been delivered and the shard
//! accumulators are empty. At that point the service's durable state reduces
//! to counter baselines plus the set of already-ingested partition keys:
//!
//! * The counters continue across the crash, so reports read as one run.
//!   The router needs no state: a barrier restarts the
//!   [`ShardPolicy::FileRoundRobin`](crate::ShardPolicy::FileRoundRobin)
//!   rotation, so a resumed run places files exactly as an uninterrupted one.
//! * `ingested` makes replay idempotent: the upstream ETL stage replays its
//!   log tail from *its* checkpoint cursor (at-least-once), and the service
//!   skips any partition it already consumed (dedup), which composes to
//!   exactly-once.
//!
//! The checkpoint is a plain in-memory value; the fleet keeps one per host
//! and restarts a rejoining host from it.

/// State of a [`DppHandle`](crate::DppHandle) at a barrier boundary.
/// Produced by [`DppHandle::checkpoint`](crate::DppHandle::checkpoint);
/// consumed by [`DppService::resume`](crate::DppService::resume).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DppCheckpoint {
    /// Files submitted (and, at a barrier, fully routed) so far.
    pub files_routed: u64,
    /// Partitions ingested through the continuous feed path so far.
    pub partitions_ingested: u64,
    /// Replayed partitions skipped by dedup so far.
    pub duplicate_ingests: u64,
    /// Barrier ids issued so far; the resumed handle continues the monotonic
    /// sequence.
    pub next_barrier_id: u64,
    /// Blob-store prefixes of every partition already ingested, sorted — the
    /// dedup set that makes at-least-once replay exactly-once.
    pub ingested: Vec<String>,
}
