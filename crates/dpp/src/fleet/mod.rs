//! The disaggregated multi-host DPP fleet: M simulated preprocessing hosts
//! — each a complete, nearly-unchanged [`DppService`](crate::DppService)
//! with its own fill/compute pools, batch pools, and controller — serving N
//! trainer lanes through a fault-tolerant control plane.
//!
//! ```text
//!                 ┌ host h0: DppService (S shards, 1 lane) ─ collector ┐
//!  coordinator ──▶│ host h1: DppService (S shards, 1 lane) ─ collector │──▶ fleet lanes 0..N
//!  (placement,    │ host h2: ...                                       │    (TrainerHandle)
//!   heartbeats,   └ host hM: ...                                       ┘
//!   replay)
//! ```
//!
//! The coordinator owns the **global** file → shard placement: file `i`
//! since the last barrier belongs to shard `i % S`, and every file is
//! submitted to exactly the host that currently owns its shard via
//! [`DppHandle::submit_file_to_shard`](crate::DppHandle::submit_file_to_shard).
//! Each host runs the full `S`-shard service with a single shard-pinned
//! lane, so per-shard emission order inside a host is exactly the
//! single-service order; a per-host collector thread rebases host-local
//! per-shard sequence numbers onto the global sequence and forwards onto
//! the fleet's per-trainer lanes (`trainer = shard % N`, the same
//! shard-pinned rule the single service uses).
//!
//! Fault tolerance is built from pieces the single service already has:
//!
//! * **Heartbeats** — [`FleetHandle::tick`] stamps a heartbeat for every
//!   reachable host on the shared coordinator clock; a host whose last beat
//!   is *strictly older* than the timeout is declared dead.
//! * **Bounded replay** — the coordinator logs each shard's files since the
//!   last [`flush_partition`](FleetHandle::flush_partition) barrier. When a
//!   host dies, its shards are re-placed on the least-loaded live host, the
//!   new owner's sequence base is set from the barrier's per-shard seq cut,
//!   and only the current interval's files are replayed.
//! * **Exactly-once delivery** — the fleet's `delivered_through` watermark
//!   dedups the overlap between a zombie host's late deliveries and the
//!   replacement's replayed ones, so the union of trainer batches stays
//!   byte-identical under every failure schedule.
//! * **Rejoin** — a dead host rejoins as a fresh
//!   [`DppService::resume`](crate::DppService::resume) from the
//!   coordinator's last checkpoint for that host, owning no shards until
//!   the next rebalance steals some back.
//! * **Work stealing** — at every barrier the coordinator moves shards from
//!   the most- to the least-loaded live host until ownership counts differ
//!   by at most one.

mod coordinator;
mod host;
mod obs;

pub use coordinator::{DppFleet, FleetHandle};
pub use obs::FleetCounters;

use crate::metrics::DppReport;
use crate::service::DppConfig;
use serde::{Deserialize, Serialize};

/// Configuration of a [`DppFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated DPP hosts.
    pub hosts: usize,
    /// Number of fleet-level trainer lanes fed by the collectors.
    pub trainers: usize,
    /// A host whose last heartbeat is strictly older than this is declared
    /// dead by [`FleetHandle::tick`]. A beat exactly at the boundary keeps
    /// the host alive.
    pub heartbeat_timeout_ms: u64,
    /// Template for each host's service. `host.shards` is the **global**
    /// shard count `S`; every host is started with all `S` shards and only
    /// the owned subset receives traffic. `trainers`/`assign_policy` are
    /// overridden (one shard-pinned lane per host); `trainer_queue_depth`
    /// sizes that lane and every fleet trainer lane.
    pub host: DppConfig,
}

impl FleetConfig {
    /// Fleet defaults over a host template: 2 hosts, 1 trainer lane, a
    /// 2-minute heartbeat timeout (two continuous-pipeline pump ticks).
    pub fn new(host: DppConfig) -> Self {
        Self {
            hosts: 2,
            trainers: 1,
            heartbeat_timeout_ms: 120_000,
            host,
        }
    }

    /// Sets the host count (minimum 1).
    #[must_use]
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts.max(1);
        self
    }

    /// Sets the fleet trainer lane count (minimum 1).
    #[must_use]
    pub fn with_trainers(mut self, trainers: usize) -> Self {
        self.trainers = trainers.max(1);
        self
    }

    /// Sets the heartbeat timeout (minimum 1 ms).
    #[must_use]
    pub fn with_heartbeat_timeout_ms(mut self, ms: u64) -> Self {
        self.heartbeat_timeout_ms = ms.max(1);
        self
    }
}

/// Control-plane accounting for one fleet run — live from
/// [`FleetCounters::report`], final in [`FleetOutput::report`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Configured host count.
    pub hosts: usize,
    /// Global shard count.
    pub shards: usize,
    /// Hosts the coordinator believes live; in the final report, those live
    /// when the fleet finished.
    pub hosts_live_at_finish: usize,
    /// Heartbeats stamped across all hosts.
    pub heartbeats: u64,
    /// Hosts declared dead (stale heartbeat or failed barrier round).
    pub deaths_detected: u64,
    /// `kill-host` faults applied.
    pub kills: u64,
    /// `partition-host` faults applied.
    pub partitions: u64,
    /// `rejoin-host` faults applied to a dead host.
    pub rejoins: u64,
    /// Partitions that healed before the heartbeat timeout noticed them.
    pub flaps: u64,
    /// Fleet-wide barrier rounds completed.
    pub barriers: u64,
    /// Shards re-placed because their owner died.
    pub shard_replacements: u64,
    /// Shards moved by the work-stealing rebalance.
    pub rebalance_moves: u64,
    /// Wall-clock time spent inside the rebalance step, in milliseconds.
    pub rebalance_ms: f64,
    /// Files re-submitted to a replacement host from the interval log.
    pub replayed_files: u64,
    /// Late/replayed duplicate batches dropped by the delivery watermark.
    pub duplicate_batches_dropped: u64,
    /// Unique batches forwarded onto fleet trainer lanes.
    pub forwarded_batches: u64,
    /// Unique samples forwarded onto fleet trainer lanes.
    pub forwarded_samples: u64,
}

/// Everything a finished fleet run produced.
#[derive(Debug)]
pub struct FleetOutput {
    /// Control-plane accounting.
    pub report: FleetReport,
    /// Fleet-level aggregate in the single-service report shape —
    /// `samples`/`batches`/`trainers` count **unique** forwarded work (host
    /// sums would double-count replays); pool/queue/reader fields aggregate
    /// over host incarnations.
    pub dpp: DppReport,
    /// Final per-host reports, keyed by host id (one entry per incarnation
    /// that was still running at finish).
    pub host_reports: Vec<(usize, DppReport)>,
    /// Errors surfaced by host services, prefixed with the host id.
    pub errors: Vec<String>,
}
