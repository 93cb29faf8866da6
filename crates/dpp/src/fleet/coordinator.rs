//! The fleet coordinator: global shard→host placement, heartbeat-based
//! failure detection, bounded replay, rejoin, and work-stealing rebalance.

use super::host::{start_host, FleetShared, HostRuntime};
use super::obs::{FleetCounters, HostProbe};
use super::{FleetConfig, FleetOutput, FleetReport};
use crate::checkpoint::DppCheckpoint;
use crate::metrics::{dedupe_factor, per_second, DppReport};
use crate::sink::{TrainerHandle, TrainerLanes};
use recd_data::Schema;
use recd_obs::MetricsRegistry;
use recd_storage::{StoredPartition, TableStore};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the barrier quiesce sleeps between collector-progress checks.
const QUIESCE_POLL: Duration = Duration::from_micros(200);

/// Whether a host is *actually* reachable — ground truth the coordinator
/// only observes indirectly through heartbeats and barrier rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    Up,
    /// Unreachable until the coordinator clock passes `until_ms`; the host
    /// process keeps running (and becomes a zombie if declared dead).
    Partitioned {
        until_ms: u64,
    },
    /// Killed: the process is gone.
    Down,
}

/// One host slot: the (possibly absent) running incarnation plus the
/// coordinator's bookkeeping about it.
struct HostSlot {
    runtime: Option<HostRuntime>,
    /// Coordinator belief: a dead host receives no traffic and its shards
    /// live elsewhere until `rejoin-host`.
    live: bool,
    reachable: Reach,
    last_beat_ms: u64,
    /// Files addressed to this host while it was unreachable, flushed in
    /// order if the partition heals before detection.
    pending: Vec<(usize, String)>,
    /// The coordinator's last barrier checkpoint for this host — what a
    /// rejoining incarnation resumes from.
    checkpoint: DppCheckpoint,
    registry: Arc<MetricsRegistry>,
    probe: Arc<HostProbe>,
}

/// Starts [`FleetHandle`]s.
#[derive(Debug)]
pub struct DppFleet;

impl DppFleet {
    /// Starts `config.hosts` host services over one shared table store and
    /// returns the coordinator handle. Every host runs the full global shard
    /// set; shard `s` initially lives on host `s % hosts`.
    pub fn start(config: FleetConfig, store: Arc<TableStore>, schema: Schema) -> FleetHandle {
        assert!(config.hosts >= 1, "a fleet needs at least one host");
        let (hosts, shards) = (config.hosts, config.host.shards.max(1));
        let (lanes, senders, trainers) = TrainerLanes::open(
            config.trainers.max(1),
            config.host.trainer_queue_depth.max(1),
        );
        let fleet = Arc::new(FleetShared {
            config,
            shards,
            store,
            schema,
            counters: Arc::new(FleetCounters::new(hosts, shards)),
            delivered_through: Mutex::new(vec![0u64; shards]),
            lanes: senders,
        });
        let slots = (0..hosts)
            .map(|host| {
                let runtime = start_host(host, &fleet, DppCheckpoint::default());
                let probe = Arc::new(HostProbe::default());
                probe.set(runtime.handle.snapshot_source());
                let registry = Arc::new(MetricsRegistry::new());
                registry.register(Arc::clone(&probe) as Arc<dyn recd_obs::Collector>);
                HostSlot {
                    runtime: Some(runtime),
                    live: true,
                    reachable: Reach::Up,
                    last_beat_ms: 0,
                    pending: Vec::new(),
                    checkpoint: DppCheckpoint::default(),
                    registry,
                    probe,
                }
            })
            .collect();
        let handle = FleetHandle {
            fleet,
            slots,
            placement: (0..shards).map(|s| s % hosts).collect(),
            cuts: vec![0u64; shards],
            interval_files: vec![Vec::new(); shards],
            ingested: HashSet::new(),
            partitions_ingested: 0,
            duplicate_ingests: 0,
            next_file_idx: 0,
            now_ms: 0,
            trainers,
            lanes,
            reapers: Vec::new(),
            started: Instant::now(),
        };
        handle.refresh_owned_gauges();
        handle
    }
}

/// The feeding/monitoring handle of a running [`DppFleet`]. Single-threaded
/// like [`DppHandle`](crate::DppHandle): submissions, ticks, faults, and
/// barriers all happen from the coordinator's thread.
pub struct FleetHandle {
    fleet: Arc<FleetShared>,
    slots: Vec<HostSlot>,
    /// `placement[s]` = host that currently owns shard `s`.
    placement: Vec<usize>,
    /// Per-shard global seq cut at the last barrier.
    cuts: Vec<u64>,
    /// Per-shard files submitted since the last barrier — the bounded
    /// replay log.
    interval_files: Vec<Vec<String>>,
    ingested: HashSet<String>,
    partitions_ingested: u64,
    duplicate_ingests: u64,
    next_file_idx: u64,
    now_ms: u64,
    trainers: Vec<TrainerHandle>,
    lanes: TrainerLanes,
    /// Joiners for torn-down incarnations' `finish()` calls.
    reapers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl FleetHandle {
    /// Submits one stored file. The coordinator owns the global placement:
    /// file `i` since the last barrier belongs to shard `i % S` regardless
    /// of which host serves it — the single service's file round-robin —
    /// which is what keeps batch composition independent of fleet topology
    /// and failures.
    pub fn submit_file(&mut self, path: impl Into<String>) {
        let path = path.into();
        let shard = (self.next_file_idx % self.fleet.shards as u64) as usize;
        self.next_file_idx += 1;
        self.interval_files[shard].push(path.clone());
        self.route(shard, path);
    }

    /// Submits every file of a stored partition, in order.
    pub fn submit_partition(&mut self, partition: &StoredPartition) {
        for file in &partition.files {
            self.submit_file(file.clone());
        }
    }

    /// Ingests one freshly landed partition exactly once (fleet-level dedup
    /// by blob-store prefix, same contract as
    /// [`DppHandle::ingest_partition`](crate::DppHandle::ingest_partition)).
    pub fn ingest_partition(&mut self, partition: &StoredPartition) -> bool {
        let key = StoredPartition::prefix(&partition.table, partition.hour);
        if !self.ingested.insert(key) {
            self.duplicate_ingests += 1;
            return false;
        }
        self.partitions_ingested += 1;
        self.submit_partition(partition);
        true
    }

    fn route(&mut self, shard: usize, path: String) {
        let slot = &mut self.slots[self.placement[shard]];
        match (slot.live, slot.reachable) {
            (true, Reach::Up) => slot
                .runtime
                .as_mut()
                .expect("a live, reachable host has a runtime")
                .handle
                .submit_file_to_shard(path, shard),
            // Unreachable (or killed-but-undetected): the file waits here
            // until the partition heals or detection replays the interval.
            (true, _) => slot.pending.push((shard, path)),
            // Orphaned by a death that left no live host: the interval log
            // replays the file to whichever host rejoins and adopts the shard.
            (false, _) => {}
        }
    }

    /// Advances the coordinator clock: heals expired partitions, stamps a
    /// heartbeat for every reachable live host, and declares dead any live
    /// host whose last beat is *strictly* older than the timeout (a beat
    /// exactly at the boundary keeps the host alive).
    pub fn tick(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        let now = self.now_ms;
        self.fleet.counters.set_now(now);
        for host in 0..self.slots.len() {
            let Reach::Partitioned { until_ms } = self.slots[host].reachable else {
                continue;
            };
            if now < until_ms {
                continue;
            }
            if self.slots[host].live {
                // Healed before anyone noticed: a flap. Flush what queued.
                self.slots[host].reachable = Reach::Up;
                self.fleet.counters.update(|r| r.flaps += 1);
                self.fleet.counters.set_host_up(host, true);
                let pending = std::mem::take(&mut self.slots[host].pending);
                for (shard, path) in pending {
                    self.slots[host]
                        .runtime
                        .as_mut()
                        .expect("a flapping host kept its runtime")
                        .handle
                        .submit_file_to_shard(path, shard);
                }
            } else {
                // The partition outlived detection: the incarnation is a
                // zombie whose late work the watermark already absorbed.
                self.slots[host].reachable = Reach::Up;
                self.teardown_runtime(host);
            }
        }
        for host in 0..self.slots.len() {
            let slot = &mut self.slots[host];
            if slot.live && slot.reachable == Reach::Up {
                slot.last_beat_ms = now;
                self.fleet.counters.heartbeat(host, now);
            }
        }
        for host in 0..self.slots.len() {
            if self.slots[host].live
                && now.saturating_sub(self.slots[host].last_beat_ms)
                    > self.fleet.config.heartbeat_timeout_ms
            {
                self.declare_dead(host);
            }
        }
    }

    /// Applies a `kill-host` fault: the host process dies *now*; the
    /// coordinator only finds out when heartbeats go stale (or a barrier
    /// round fails).
    pub fn kill_host(&mut self, host: usize) {
        let host = host % self.slots.len();
        self.fleet.counters.update(|r| r.kills += 1);
        self.fleet.counters.set_host_up(host, false);
        self.slots[host].reachable = Reach::Down;
        self.teardown_runtime(host);
    }

    /// Applies a `partition-host` fault: the host stays up but is
    /// unreachable for `ms` of coordinator-clock time. Overlapping
    /// partitions extend the outage.
    pub fn partition_host(&mut self, host: usize, ms: u64) {
        let host = host % self.slots.len();
        let slot = &mut self.slots[host];
        if slot.reachable == Reach::Down {
            return;
        }
        let until = self.now_ms.saturating_add(ms.max(1));
        slot.reachable = match slot.reachable {
            Reach::Partitioned { until_ms } => Reach::Partitioned {
                until_ms: until_ms.max(until),
            },
            _ => Reach::Partitioned { until_ms: until },
        };
        self.fleet.counters.update(|r| r.partitions += 1);
        self.fleet.counters.set_host_up(host, false);
    }

    /// Applies a `rejoin-host` fault: restarts the host as a fresh
    /// incarnation resumed from the coordinator's last checkpoint for it.
    /// The rejoined host owns no shards until the next rebalance steals some
    /// back — except shards orphaned by a death that left no live host,
    /// which it adopts at once, replaying the interval. A host that is still
    /// up and reachable is left alone; a host that is down but not yet
    /// *declared* dead is declared first (the restart is itself proof the old
    /// incarnation is gone).
    pub fn rejoin_host(&mut self, host: usize) {
        let host = host % self.slots.len();
        if self.slots[host].live && self.slots[host].reachable == Reach::Up {
            return;
        }
        if self.slots[host].live {
            self.declare_dead(host);
        }
        self.teardown_runtime(host);
        let orphaned: Vec<usize> = (0..self.fleet.shards)
            .filter(|&s| !self.slots[self.placement[s]].live)
            .collect();
        let runtime = start_host(host, &self.fleet, self.slots[host].checkpoint.clone());
        self.slots[host].probe.set(runtime.handle.snapshot_source());
        self.slots[host].runtime = Some(runtime);
        self.slots[host].live = true;
        self.slots[host].reachable = Reach::Up;
        self.slots[host].last_beat_ms = self.now_ms;
        for shard in orphaned {
            self.place_shard(shard, host, true);
            self.fleet.counters.update(|r| r.shard_replacements += 1);
        }
        let live = self.live_count();
        self.fleet.counters.update(|r| {
            r.rejoins += 1;
            r.hosts_live_at_finish = live;
        });
        self.fleet.counters.heartbeat(host, self.now_ms);
        self.fleet.counters.set_host_up(host, true);
        self.refresh_owned_gauges();
    }

    /// Fleet-wide partition barrier. It restarts the file → shard rotation,
    /// and it is a contact round: any live host that cannot be reached fails
    /// it and is declared dead on the spot. Every live host then flushes,
    /// the coordinator quiesces the collectors, advances the per-shard seq
    /// cuts, snapshots per-host checkpoints, truncates the replay log, and
    /// rebalances shard ownership — the only point where every in-flight
    /// batch is accounted.
    ///
    /// Like [`DppHandle::flush_partition`](crate::DppHandle::flush_partition),
    /// fleet trainers must keep consuming while this runs. Returns `false`
    /// if a host service tore down before its barrier resolved, or if no
    /// live host is left to resolve it.
    pub fn flush_partition(&mut self) -> bool {
        self.next_file_idx = 0;
        for host in 0..self.slots.len() {
            if self.slots[host].live && self.slots[host].reachable != Reach::Up {
                self.declare_dead(host);
            }
        }
        if self.live_count() == 0 {
            return false;
        }
        for host in 0..self.slots.len() {
            if self.slots[host].live {
                let flushed = self.slots[host]
                    .runtime
                    .as_mut()
                    .expect("live host has a runtime")
                    .handle
                    .flush_partition();
                if !flushed {
                    return false;
                }
            }
        }
        // Quiesce: every batch the host sinks pushed is either forwarded or
        // deduped before the cut is taken.
        for slot in &self.slots {
            if !slot.live {
                continue;
            }
            let runtime = slot.runtime.as_ref().expect("live host has a runtime");
            loop {
                let delivered = runtime
                    .handle
                    .snapshot()
                    .trainers
                    .first()
                    .map(|lane| lane.delivered_batches)
                    .unwrap_or(0);
                if runtime.collector.state.processed.load(Ordering::Acquire) >= delivered {
                    break;
                }
                std::thread::sleep(QUIESCE_POLL);
            }
        }
        self.cuts = self
            .fleet
            .delivered_through
            .lock()
            .expect("watermark lock")
            .clone();
        for slot in &mut self.slots {
            if let (true, Some(runtime)) = (slot.live, slot.runtime.as_ref()) {
                slot.checkpoint = runtime.handle.checkpoint();
            }
        }
        for files in &mut self.interval_files {
            files.clear();
        }
        self.fleet.counters.update(|r| r.barriers += 1);
        self.rebalance();
        true
    }

    /// Declares `host` dead: clears its queued traffic, re-places each of
    /// its shards on the least-loaded live host, and replays the current
    /// interval's files for those shards. A killed host's runtime is
    /// reaped; a partitioned host keeps running as a zombie whose late
    /// deliveries the watermark dedups. When no live host is left the shards
    /// stay orphaned on the dead one — [`hosts_live`](Self::hosts_live)
    /// reads 0 and barriers fail — until a rejoined host adopts them.
    fn declare_dead(&mut self, host: usize) {
        self.slots[host].live = false;
        self.slots[host].pending.clear();
        let live = self.live_count();
        self.fleet.counters.update(|r| {
            r.deaths_detected += 1;
            r.hosts_live_at_finish = live;
        });
        if self.slots[host].reachable == Reach::Down {
            self.teardown_runtime(host);
        }
        let owned: Vec<usize> = (0..self.fleet.shards)
            .filter(|&s| self.placement[s] == host)
            .collect();
        for shard in owned {
            let Some(target) = self.least_loaded_live() else {
                break;
            };
            self.place_shard(shard, target, true);
            self.fleet.counters.update(|r| r.shard_replacements += 1);
        }
        self.refresh_owned_gauges();
    }

    /// The live host owning the fewest shards (ties pick the lowest id).
    fn least_loaded_live(&self) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&h| self.slots[h].live)
            .min_by_key(|&h| (self.owned_count(h), h))
    }

    fn owned_count(&self, host: usize) -> usize {
        self.placement
            .iter()
            .filter(|&&owner| owner == host)
            .count()
    }

    fn live_count(&self) -> usize {
        self.slots.iter().filter(|slot| slot.live).count()
    }

    /// Moves shard ownership to `target`, rebasing the target collector's
    /// sequence mapping so its next host-local emission of the shard lands
    /// exactly at the global cut. With `replay` the current interval's files
    /// are re-submitted (death recovery); without it the interval is empty
    /// (barrier-time rebalance) and the rebase alone suffices.
    fn place_shard(&mut self, shard: usize, target: usize, replay: bool) {
        self.placement[shard] = target;
        {
            let collector = &self.slots[target]
                .runtime
                .as_ref()
                .expect("placement target is live")
                .collector
                .state;
            let seen = collector.local_seen.lock().expect("local_seen lock")[shard];
            let base = self.cuts[shard]
                .checked_sub(seen)
                .expect("rebase underflow: a host saw more of a shard than the global cut");
            collector.bases.lock().expect("bases lock")[shard] = base;
        }
        if replay {
            let files = self.interval_files[shard].clone();
            for path in files {
                self.fleet.counters.update(|r| r.replayed_files += 1);
                self.slots[target]
                    .runtime
                    .as_mut()
                    .expect("placement target is live")
                    .handle
                    .submit_file_to_shard(path, shard);
            }
        }
    }

    /// Work-stealing rebalance at a (quiesced) barrier: while ownership
    /// counts across live hosts differ by more than one, move the
    /// highest-numbered shard from the most- to the least-loaded host.
    /// Deterministic: ties pick the lowest host id on both sides.
    fn rebalance(&mut self) {
        let clock = Instant::now();
        let mut moves = 0u64;
        loop {
            let live: Vec<usize> = (0..self.slots.len())
                .filter(|&h| self.slots[h].live)
                .collect();
            if live.len() < 2 {
                break;
            }
            let &donor = live
                .iter()
                .max_by_key(|&&h| (self.owned_count(h), std::cmp::Reverse(h)))
                .expect("live set is non-empty");
            let &taker = live
                .iter()
                .min_by_key(|&&h| (self.owned_count(h), h))
                .expect("live set is non-empty");
            if self.owned_count(donor) <= self.owned_count(taker) + 1 {
                break;
            }
            let shard = (0..self.fleet.shards)
                .rev()
                .find(|&s| self.placement[s] == donor)
                .expect("donor owns at least one shard");
            self.place_shard(shard, taker, false);
            moves += 1;
        }
        let elapsed_ms = clock.elapsed().as_secs_f64() * 1e3;
        self.fleet.counters.update(|r| {
            r.rebalance_moves += moves;
            r.rebalance_ms += elapsed_ms;
        });
        self.refresh_owned_gauges();
    }

    fn refresh_owned_gauges(&self) {
        for host in 0..self.slots.len() {
            self.fleet
                .counters
                .set_shards_owned(host, self.owned_count(host));
        }
    }

    /// Stops a host incarnation without waiting for its drain: the collector
    /// is hard-stopped and the service's `finish()` runs on a reaper thread
    /// (joined at fleet finish), because a plain drop would leak the
    /// scaling-controller thread.
    fn teardown_runtime(&mut self, host: usize) {
        if let Some(runtime) = self.slots[host].runtime.take() {
            let HostRuntime { handle, collector } = runtime;
            collector.stop_and_join();
            self.reapers.push(std::thread::spawn(move || {
                let _ = handle.finish();
            }));
        }
    }

    /// Takes the fleet-level per-trainer pull endpoints (lane `t` carries
    /// every shard with `shard % trainers == t`, the shard-pinned rule).
    pub fn take_trainers(&mut self) -> Vec<TrainerHandle> {
        std::mem::take(&mut self.trainers)
    }

    /// The fleet's control-plane accounting: [`FleetCounters::report`] reads
    /// the live [`FleetReport`], and it is a `recd_fleet_*`
    /// [`Collector`](recd_obs::Collector) — register it on a scrape registry.
    pub fn counters(&self) -> Arc<FleetCounters> {
        Arc::clone(&self.fleet.counters)
    }

    /// Per-host metric registries, labelled `h0..hM-1` — each scrapes that
    /// host's live `recd_dpp_*` families across incarnations. Feed these to
    /// a federation with the label as the `host` tag.
    pub fn host_registries(&self) -> Vec<(String, Arc<MetricsRegistry>)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(host, slot)| (format!("h{host}"), Arc::clone(&slot.registry)))
            .collect()
    }

    /// Hosts the coordinator currently believes live.
    pub fn hosts_live(&self) -> usize {
        self.live_count()
    }

    /// Current shard → host placement.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// Global shard count.
    pub fn shards(&self) -> usize {
        self.fleet.shards
    }

    /// Gracefully shuts the fleet down: finishes every running incarnation
    /// (collectors drain their host lanes to the end), joins the reapers of
    /// earlier teardowns, and aggregates the accounting. Fleet trainers must
    /// keep consuming (or be dropped) while this runs; their lanes
    /// disconnect when this returns.
    pub fn finish(mut self) -> FleetOutput {
        let mut host_reports = Vec::new();
        let mut errors = Vec::new();
        for host in 0..self.slots.len() {
            if let Some(runtime) = self.slots[host].runtime.take() {
                let HostRuntime { handle, collector } = runtime;
                match handle.finish() {
                    Ok(output) => host_reports.push((host, output.report)),
                    Err(err) => {
                        errors.extend(err.errors.iter().map(|e| format!("host h{host}: {e}")));
                        host_reports.push((host, err.output.report));
                    }
                }
                collector.join_after_drain();
            }
        }
        for reaper in self.reapers.drain(..) {
            let _ = reaper.join();
        }
        let report = self.fleet.counters.report();
        let dpp = self.aggregate_report(&report, &host_reports);
        FleetOutput {
            report,
            dpp,
            host_reports,
            errors,
        }
    }

    /// Projects the fleet into the single-service report shape:
    /// samples/batches/trainer lanes count unique forwarded work; worker,
    /// queue, file, pool, and reader fields aggregate over the host
    /// incarnations still running at finish.
    fn aggregate_report(
        &self,
        fleet: &FleetReport,
        host_reports: &[(usize, DppReport)],
    ) -> DppReport {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let samples = fleet.forwarded_samples as usize;
        let batches = fleet.forwarded_batches as usize;
        let mut batch_pool = crate::pool::PoolStats::default();
        let mut converted_pool = crate::pool::PoolStats::default();
        let mut blob_pool = crate::pool::PoolStats::default();
        let mut ctrl: Option<crate::control::CtrlReport> = None;
        let mut reader_metrics = recd_reader::ReaderMetrics::default();
        let mut scale_events = Vec::new();
        let mut egress_bytes = 0usize;
        for (_, report) in host_reports {
            batch_pool += report.batch_pool;
            converted_pool += report.converted_pool;
            blob_pool += report.blob_pool;
            if let Some(host_ctrl) = report.ctrl {
                *ctrl.get_or_insert_with(Default::default) += host_ctrl;
            }
            reader_metrics += report.reader_metrics;
            scale_events.extend(report.scale_events.iter().cloned());
            egress_bytes += report.egress_bytes;
        }
        let max_of =
            |f: fn(&DppReport) -> usize| host_reports.iter().map(|(_, r)| f(r)).max().unwrap_or(0);
        let sum_of = |f: fn(&DppReport) -> u64| host_reports.iter().map(|(_, r)| f(r)).sum();
        let logical_sparse_values = sum_of(|r| r.logical_sparse_values);
        let stored_sparse_values = sum_of(|r| r.stored_sparse_values);
        DppReport {
            fill_workers: self.fleet.config.host.fill_workers,
            compute_workers: self.fleet.config.host.compute_workers,
            peak_fill_workers: max_of(|r| r.peak_fill_workers),
            peak_compute_workers: max_of(|r| r.peak_compute_workers),
            shards: self.fleet.shards,
            policy: "fleet_round_robin".to_string(),
            assign_policy: "shard_pinned".to_string(),
            wall_seconds,
            files_submitted: sum_of(|r| r.files_submitted),
            files_filled: sum_of(|r| r.files_filled),
            rows_routed: sum_of(|r| r.rows_routed),
            partitions_ingested: self.partitions_ingested,
            duplicate_ingests: self.duplicate_ingests,
            samples,
            batches,
            samples_per_second: per_second(samples as u64, wall_seconds),
            egress_bytes,
            logical_sparse_values,
            stored_sparse_values,
            dedupe_factor: dedupe_factor(logical_sparse_values, stored_sparse_values),
            errors: sum_of(|r| r.errors),
            peak_input_queue_depth: max_of(|r| r.peak_input_queue_depth),
            peak_filled_queue_depth: max_of(|r| r.peak_filled_queue_depth),
            peak_work_queue_depth: max_of(|r| r.peak_work_queue_depth),
            peak_output_queue_depth: max_of(|r| r.peak_output_queue_depth),
            trainers: self.lanes.report(),
            scale_events,
            batch_pool,
            converted_pool,
            blob_pool,
            ctrl,
            reader_metrics,
            // Every host has drained: no worker is live and every queue is
            // empty.
            ..DppReport::default()
        }
    }
}
