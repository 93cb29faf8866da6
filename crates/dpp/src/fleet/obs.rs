//! Fleet observability: the `recd_fleet_*` collector over the fleet's one
//! [`FleetReport`] (placement, heartbeat, replay, and rebalance accounting)
//! and per-host gauges, plus the per-host snapshot probe whose inner source
//! is swapped when a host rejoins.

use super::FleetReport;
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

/// The fleet's control-plane accounting — one [`FleetReport`] behind one
/// lock, updated by the coordinator and the host collectors — plus the
/// per-host gauges, exported as the `recd_fleet_*` metric families. The
/// coordinator's [`finish`](super::FleetHandle::finish) returns the same
/// report the families project.
#[derive(Debug, Default)]
pub struct FleetCounters {
    now_ms: AtomicU64,
    report: Mutex<FleetReport>,
    per_host: Vec<HostGauges>,
}

impl FleetCounters {
    /// Zeroed counters for a fleet of `hosts` hosts (all initially live)
    /// over `shards` shards.
    pub(super) fn new(hosts: usize, shards: usize) -> Self {
        let up = || HostGauges {
            up: AtomicU64::new(1),
            ..HostGauges::default()
        };
        Self {
            report: Mutex::new(FleetReport {
                hosts,
                shards,
                hosts_live_at_finish: hosts,
                ..FleetReport::default()
            }),
            per_host: (0..hosts).map(|_| up()).collect(),
            ..Self::default()
        }
    }

    /// Applies one change to the report.
    pub(super) fn update(&self, change: impl FnOnce(&mut FleetReport)) {
        change(&mut self.report.lock().expect("fleet report lock"));
    }

    /// The control-plane accounting as of now.
    pub fn report(&self) -> FleetReport {
        self.report.lock().expect("fleet report lock").clone()
    }

    pub(super) fn set_now(&self, now_ms: u64) {
        self.now_ms.store(now_ms, Ordering::Relaxed);
    }

    pub(super) fn set_host_up(&self, host: usize, up: bool) {
        self.per_host[host].up.store(up as u64, Ordering::Relaxed);
    }

    pub(super) fn set_shards_owned(&self, host: usize, owned: usize) {
        self.per_host[host]
            .shards_owned
            .store(owned as u64, Ordering::Relaxed);
    }

    /// Stamps `host`'s heartbeat at `now_ms`.
    pub(super) fn heartbeat(&self, host: usize, now_ms: u64) {
        self.per_host[host]
            .last_beat_ms
            .store(now_ms, Ordering::Relaxed);
        self.update(|r| r.heartbeats += 1);
    }
}

impl Collector for FleetCounters {
    fn collect(&self, out: &mut MetricsBuf) {
        let r = self.report();
        out.gauge(
            "recd_fleet_hosts_total",
            "Configured DPP hosts in the fleet.",
            &[],
            r.hosts as f64,
        );
        out.gauge(
            "recd_fleet_hosts_live",
            "Hosts the coordinator currently believes live.",
            &[],
            r.hosts_live_at_finish as f64,
        );
        for (name, help, value) in [
            (
                "recd_fleet_heartbeats_total",
                "Heartbeats stamped by the coordinator across all hosts.",
                r.heartbeats,
            ),
            (
                "recd_fleet_deaths_detected_total",
                "Hosts declared dead (stale heartbeat or failed barrier round).",
                r.deaths_detected,
            ),
            (
                "recd_fleet_kills_total",
                "kill-host faults applied.",
                r.kills,
            ),
            (
                "recd_fleet_partitions_total",
                "partition-host faults applied.",
                r.partitions,
            ),
            (
                "recd_fleet_rejoins_total",
                "Dead hosts restarted via rejoin-host.",
                r.rejoins,
            ),
            (
                "recd_fleet_flaps_total",
                "Partitions that healed before the heartbeat timeout noticed.",
                r.flaps,
            ),
            (
                "recd_fleet_barriers_total",
                "Fleet-wide flush_partition barrier rounds completed.",
                r.barriers,
            ),
            (
                "recd_fleet_shard_replacements_total",
                "Shards re-placed because their owner died.",
                r.shard_replacements,
            ),
            (
                "recd_fleet_rebalance_moves_total",
                "Shards moved by the work-stealing rebalance.",
                r.rebalance_moves,
            ),
            (
                "recd_fleet_replayed_files_total",
                "Interval files re-submitted to replacement hosts.",
                r.replayed_files,
            ),
            (
                "recd_fleet_duplicate_batches_dropped_total",
                "Late/replayed duplicate batches dropped by the delivery watermark.",
                r.duplicate_batches_dropped,
            ),
            (
                "recd_fleet_forwarded_batches_total",
                "Unique batches forwarded onto fleet trainer lanes.",
                r.forwarded_batches,
            ),
            (
                "recd_fleet_forwarded_samples_total",
                "Unique samples forwarded onto fleet trainer lanes.",
                r.forwarded_samples,
            ),
        ] {
            out.counter(name, help, &[], value as f64);
        }
        out.counter(
            "recd_fleet_rebalance_seconds_total",
            "Wall-clock time spent inside the rebalance step.",
            &[],
            r.rebalance_ms / 1e3,
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
