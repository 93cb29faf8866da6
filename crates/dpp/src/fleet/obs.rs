//! Fleet observability: the `recd_fleet_*` collector for placement,
//! heartbeat, replay, and rebalance accounting, plus the per-host snapshot
//! probe whose inner source is swapped when a host rejoins.

use crate::service::SnapshotSource;
use recd_obs::{Collector, MetricsBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-host gauges exported under a `host="h<i>"` label.
#[derive(Debug, Default)]
struct HostGauges {
    /// 1 while the host is actually up and reachable, 0 while killed or
    /// partitioned — ground truth, not the coordinator's belief.
    up: AtomicU64,
    /// Coordinator clock time of the host's last heartbeat.
    last_beat_ms: AtomicU64,
    /// Shards the coordinator currently places on this host.
    shards_owned: AtomicU64,
}

/// Control-plane counters and gauges for one fleet, exported as the
/// `recd_fleet_*` metric families. Shared between the coordinator (writer)
/// and the observability plane (reader); also read at finish to build the
/// [`FleetReport`](super::FleetReport).
#[derive(Debug, Default)]
pub struct FleetCounters {
    now_ms: AtomicU64,
    hosts_live: AtomicU64,
    heartbeats: AtomicU64,
    deaths_detected: AtomicU64,
    kills: AtomicU64,
    partitions: AtomicU64,
    rejoins: AtomicU64,
    flaps: AtomicU64,
    barriers: AtomicU64,
    shard_replacements: AtomicU64,
    rebalance_moves: AtomicU64,
    rebalance_nanos: AtomicU64,
    replayed_files: AtomicU64,
    duplicate_batches_dropped: AtomicU64,
    forwarded_batches: AtomicU64,
    forwarded_samples: AtomicU64,
    per_host: Vec<HostGauges>,
}

impl FleetCounters {
    /// Zeroed counters for a fleet of `hosts` hosts (all initially live).
    pub(super) fn new(hosts: usize) -> Self {
        let up = || HostGauges {
            up: AtomicU64::new(1),
            ..HostGauges::default()
        };
        Self {
            hosts_live: AtomicU64::new(hosts as u64),
            per_host: (0..hosts).map(|_| up()).collect(),
            ..Self::default()
        }
    }

    pub(super) fn set_now(&self, now_ms: u64) {
        self.now_ms.store(now_ms, Ordering::Relaxed);
    }

    pub(super) fn set_hosts_live(&self, live: usize) {
        self.hosts_live.store(live as u64, Ordering::Relaxed);
    }

    pub(super) fn set_host_up(&self, host: usize, up: bool) {
        self.per_host[host].up.store(up as u64, Ordering::Relaxed);
    }

    pub(super) fn set_shards_owned(&self, host: usize, owned: usize) {
        self.per_host[host]
            .shards_owned
            .store(owned as u64, Ordering::Relaxed);
    }

    pub(super) fn note_heartbeat(&self, host: usize, now_ms: u64) {
        self.per_host[host]
            .last_beat_ms
            .store(now_ms, Ordering::Relaxed);
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_death(&self) {
        self.deaths_detected.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_kill(&self) {
        self.kills.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_partition(&self) {
        self.partitions.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_rejoin(&self) {
        self.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_flap(&self) {
        self.flaps.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_replacement(&self) {
        self.shard_replacements.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_rebalance(&self, moves: u64, elapsed: std::time::Duration) {
        self.rebalance_moves.fetch_add(moves, Ordering::Relaxed);
        self.rebalance_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(super) fn note_replayed_file(&self) {
        self.replayed_files.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_duplicate_dropped(&self) {
        self.duplicate_batches_dropped
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_forwarded(&self, samples: u64) {
        self.forwarded_batches.fetch_add(1, Ordering::Relaxed);
        self.forwarded_samples.fetch_add(samples, Ordering::Relaxed);
    }

    /// Hosts the coordinator currently believes live.
    pub fn hosts_live(&self) -> u64 {
        self.hosts_live.load(Ordering::Relaxed)
    }

    /// Heartbeats stamped so far.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats.load(Ordering::Relaxed)
    }

    /// Hosts declared dead so far.
    pub fn deaths_detected(&self) -> u64 {
        self.deaths_detected.load(Ordering::Relaxed)
    }

    /// `kill-host` faults applied so far.
    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::Relaxed)
    }

    /// `partition-host` faults applied so far.
    pub fn partitions(&self) -> u64 {
        self.partitions.load(Ordering::Relaxed)
    }

    /// Dead hosts rejoined so far.
    pub fn rejoins(&self) -> u64 {
        self.rejoins.load(Ordering::Relaxed)
    }

    /// Partitions that healed before detection so far.
    pub fn flaps(&self) -> u64 {
        self.flaps.load(Ordering::Relaxed)
    }

    /// Fleet barrier rounds completed so far.
    pub fn barriers(&self) -> u64 {
        self.barriers.load(Ordering::Relaxed)
    }

    /// Shards re-placed off dead hosts so far.
    pub fn shard_replacements(&self) -> u64 {
        self.shard_replacements.load(Ordering::Relaxed)
    }

    /// Shards moved by the work-stealing rebalance so far.
    pub fn rebalance_moves(&self) -> u64 {
        self.rebalance_moves.load(Ordering::Relaxed)
    }

    /// Wall-clock time spent rebalancing so far, in milliseconds.
    pub fn rebalance_ms(&self) -> f64 {
        self.rebalance_nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Interval files replayed to replacement hosts so far.
    pub fn replayed_files(&self) -> u64 {
        self.replayed_files.load(Ordering::Relaxed)
    }

    /// Duplicate batches dropped by the delivery watermark so far.
    pub fn duplicate_batches_dropped(&self) -> u64 {
        self.duplicate_batches_dropped.load(Ordering::Relaxed)
    }

    /// Unique batches forwarded onto fleet lanes so far.
    pub fn forwarded_batches(&self) -> u64 {
        self.forwarded_batches.load(Ordering::Relaxed)
    }

    /// Unique samples forwarded onto fleet lanes so far.
    pub fn forwarded_samples(&self) -> u64 {
        self.forwarded_samples.load(Ordering::Relaxed)
    }
}

impl Collector for FleetCounters {
    fn collect(&self, out: &mut MetricsBuf) {
        out.gauge(
            "recd_fleet_hosts_total",
            "Configured DPP hosts in the fleet.",
            &[],
            self.per_host.len() as f64,
        );
        out.gauge(
            "recd_fleet_hosts_live",
            "Hosts the coordinator currently believes live.",
            &[],
            self.hosts_live() as f64,
        );
        out.counter(
            "recd_fleet_heartbeats_total",
            "Heartbeats stamped by the coordinator across all hosts.",
            &[],
            self.heartbeats() as f64,
        );
        out.counter(
            "recd_fleet_deaths_detected_total",
            "Hosts declared dead (stale heartbeat or failed barrier round).",
            &[],
            self.deaths_detected() as f64,
        );
        out.counter(
            "recd_fleet_kills_total",
            "kill-host faults applied.",
            &[],
            self.kills() as f64,
        );
        out.counter(
            "recd_fleet_partitions_total",
            "partition-host faults applied.",
            &[],
            self.partitions() as f64,
        );
        out.counter(
            "recd_fleet_rejoins_total",
            "Dead hosts restarted via rejoin-host.",
            &[],
            self.rejoins() as f64,
        );
        out.counter(
            "recd_fleet_flaps_total",
            "Partitions that healed before the heartbeat timeout noticed.",
            &[],
            self.flaps() as f64,
        );
        out.counter(
            "recd_fleet_barriers_total",
            "Fleet-wide flush_partition barrier rounds completed.",
            &[],
            self.barriers() as f64,
        );
        out.counter(
            "recd_fleet_shard_replacements_total",
            "Shards re-placed because their owner died.",
            &[],
            self.shard_replacements() as f64,
        );
        out.counter(
            "recd_fleet_rebalance_moves_total",
            "Shards moved by the work-stealing rebalance.",
            &[],
            self.rebalance_moves() as f64,
        );
        out.counter(
            "recd_fleet_rebalance_seconds_total",
            "Wall-clock time spent inside the rebalance step.",
            &[],
            self.rebalance_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        );
        out.counter(
            "recd_fleet_replayed_files_total",
            "Interval files re-submitted to replacement hosts.",
            &[],
            self.replayed_files() as f64,
        );
        out.counter(
            "recd_fleet_duplicate_batches_dropped_total",
            "Late/replayed duplicate batches dropped by the delivery watermark.",
            &[],
            self.duplicate_batches_dropped() as f64,
        );
        out.counter(
            "recd_fleet_forwarded_batches_total",
            "Unique batches forwarded onto fleet trainer lanes.",
            &[],
            self.forwarded_batches() as f64,
        );
        out.counter(
            "recd_fleet_forwarded_samples_total",
            "Unique samples forwarded onto fleet trainer lanes.",
            &[],
            self.forwarded_samples() as f64,
        );
        let now = self.now_ms.load(Ordering::Relaxed);
        for (host, gauges) in self.per_host.iter().enumerate() {
            let label = format!("h{host}");
            let labels = [("host", label.as_str())];
            out.gauge(
                "recd_fleet_host_up",
                "1 while the host is actually up and reachable (ground truth).",
                &labels,
                gauges.up.load(Ordering::Relaxed) as f64,
            );
            out.gauge(
                "recd_fleet_heartbeat_age_ms",
                "Coordinator-clock age of the host's last heartbeat.",
                &labels,
                now.saturating_sub(gauges.last_beat_ms.load(Ordering::Relaxed)) as f64,
            );
            out.gauge(
                "recd_fleet_shards_owned",
                "Shards currently placed on the host.",
                &labels,
                gauges.shards_owned.load(Ordering::Relaxed) as f64,
            );
        }
    }
}

/// A stable per-host collector whose inner [`SnapshotSource`] is swapped
/// when the host's incarnation changes (rejoin), so the host's registry is
/// registered once and keeps scraping across restarts. While the host is
/// down the probe freezes at the dead incarnation's last values.
#[derive(Default)]
pub(super) struct HostProbe {
    source: Mutex<Option<SnapshotSource>>,
}

impl HostProbe {
    pub(super) fn set(&self, source: SnapshotSource) {
        *self.source.lock().expect("host probe lock") = Some(source);
    }
}

impl Collector for HostProbe {
    fn collect(&self, out: &mut MetricsBuf) {
        let source = self.source.lock().expect("host probe lock").clone();
        if let Some(source) = source {
            source.collect(out);
        }
    }
}
