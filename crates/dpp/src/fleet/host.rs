//! Per-host runtime: one nearly-unchanged [`DppService`] incarnation plus
//! the collector thread that rebases its shard-pinned lane onto the fleet's
//! global sequence space and forwards onto the fleet trainer lanes.

use super::obs::FleetCounters;
use super::FleetConfig;
use crate::channel::RecvTimeout;
use crate::checkpoint::DppCheckpoint;
use crate::pool::BatchPool;
use crate::service::{DppHandle, DppService};
use crate::sink::{LaneSender, TrainerAssignPolicy, TrainerBatch, TrainerHandle};
use recd_core::ConvertedBatch;
use recd_data::Schema;
use recd_storage::TableStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a quiet collector re-checks its stop flag.
const COLLECTOR_POLL: Duration = Duration::from_millis(2);

/// Everything the coordinator and every host collector share for the
/// fleet's whole life, declared once: the host template, the global shard
/// count, the store, the control-plane counters, the fleet's trainer lanes
/// and the per-shard global delivery watermark that makes forwarding
/// exactly-once.
pub(super) struct FleetShared {
    pub(super) config: FleetConfig,
    /// Global shard count `S`: every host runs all of them.
    pub(super) shards: usize,
    pub(super) store: Arc<TableStore>,
    pub(super) schema: Schema,
    pub(super) counters: Arc<FleetCounters>,
    /// `delivered_through[s]` = the next global sequence number expected for
    /// shard `s`. A collector holding a batch with a smaller global seq is
    /// seeing a replayed/late duplicate and drops it.
    pub(super) delivered_through: Mutex<Vec<u64>>,
    /// Sending halves of the fleet trainer lanes (`trainer = shard % N`).
    pub(super) lanes: Vec<LaneSender>,
}

/// One live incarnation of a host: the service handle (feed side) plus its
/// collector thread (delivery side).
pub(super) struct HostRuntime {
    pub(super) handle: DppHandle,
    pub(super) collector: CollectorHandle,
}

/// What one collector thread shares with the coordinator.
pub(super) struct Collector {
    stop: AtomicBool,
    /// Host-lane batches fully processed (deduped or forwarded). The barrier
    /// quiesce spins until this catches up with the host lane's delivered
    /// count.
    pub(super) processed: AtomicU64,
    /// `bases[s]`: global seq of this incarnation's host-local seq 0 for
    /// shard `s`. Set by the coordinator at placement time (collector holds
    /// no in-flight work for a shard when its base changes — placements
    /// happen at barriers or onto hosts that never owned the shard this
    /// interval).
    pub(super) bases: Mutex<Vec<u64>>,
    /// `local_seen[s]`: host-local batches of shard `s` this incarnation has
    /// delivered — the collector's resequence cursor, read by the
    /// coordinator to compute rebases.
    pub(super) local_seen: Mutex<Vec<u64>>,
}

/// The coordinator's grip on one collector thread.
pub(super) struct CollectorHandle {
    thread: JoinHandle<()>,
    pub(super) state: Arc<Collector>,
}

impl CollectorHandle {
    /// Hard-stops the collector (zombie teardown): sets the stop flag and
    /// joins. Whatever is still parked on the host lane is left for the
    /// host's own sink accounting.
    pub(super) fn stop_and_join(self) {
        self.state.stop.store(true, Ordering::Release);
        let _ = self.thread.join();
    }

    /// Joins after a graceful host finish: the collector drains the lane and
    /// exits on disconnect, so every delivery is forwarded first.
    pub(super) fn join_after_drain(self) {
        let _ = self.thread.join();
    }
}

/// Starts one host incarnation: a full `S`-shard service with a single
/// shard-pinned trainer lane, resumed from `checkpoint`, plus its collector.
pub(super) fn start_host(
    host: usize,
    fleet: &Arc<FleetShared>,
    checkpoint: DppCheckpoint,
) -> HostRuntime {
    let mut host_cfg = fleet.config.host.clone();
    host_cfg.shards = fleet.shards;
    // One pinned lane per host: the collector is the lane's only consumer
    // and re-fans onto the fleet lanes, so per-shard order survives intact.
    host_cfg.trainers = 1;
    host_cfg.assign_policy = TrainerAssignPolicy::ShardPinned;
    let store = Arc::clone(&fleet.store);
    let mut handle = DppService::resume(host_cfg, store, fleet.schema.clone(), checkpoint);
    let trainer = handle
        .take_trainers()
        .pop()
        .expect("host service has exactly one lane");
    let converted_pool = handle.converted_pool();
    let state = Arc::new(Collector {
        stop: AtomicBool::new(false),
        processed: AtomicU64::new(0),
        bases: Mutex::new(vec![0u64; fleet.shards]),
        local_seen: Mutex::new(vec![0u64; fleet.shards]),
    });
    let thread = {
        let (state, fleet) = (Arc::clone(&state), Arc::clone(fleet));
        std::thread::Builder::new()
            .name(format!("fleet-h{host}"))
            .spawn(move || collector_loop(&trainer, &converted_pool, &state, &fleet))
            .expect("spawn fleet collector")
    };
    HostRuntime {
        handle,
        collector: CollectorHandle { thread, state },
    }
}

/// The collector body: pull from the host's single pinned lane, rebase each
/// batch's host-local `(shard, seq)` onto the global sequence, dedup against
/// the fleet watermark, and forward onto the owning fleet lane.
fn collector_loop(
    trainer: &TrainerHandle,
    converted_pool: &BatchPool<ConvertedBatch>,
    collector: &Collector,
    fleet: &FleetShared,
) {
    loop {
        if collector.stop.load(Ordering::Acquire) {
            return;
        }
        let item = match trainer.recv_timeout(COLLECTOR_POLL) {
            RecvTimeout::Item(item) => item,
            RecvTimeout::Timeout => continue,
            RecvTimeout::Disconnected => return,
        };
        let shard = item.shard;
        let global = {
            // The host's sink resequences per shard, so local seqs arrive
            // contiguously; the cursor doubles as the count already seen.
            let mut seen = collector.local_seen.lock().expect("local_seen lock");
            assert_eq!(
                item.seq, seen[shard],
                "host lane must deliver shard {shard} in local sequence order"
            );
            seen[shard] += 1;
            collector.bases.lock().expect("bases lock")[shard] + item.seq
        };
        {
            // Dedup + forward under one lock so global per-shard order on
            // the fleet lane is preserved even while a zombie and its
            // replacement race at the watermark frontier. The lane send can
            // block on backpressure while held — that simply serializes
            // collectors the same way one sink would.
            let mut through = fleet.delivered_through.lock().expect("watermark lock");
            if global < through[shard] {
                fleet.counters.update(|r| r.duplicate_batches_dropped += 1);
                converted_pool.recycle(item.batch);
            } else {
                assert_eq!(
                    global, through[shard],
                    "shard {shard} watermark gap: replay must regenerate contiguously"
                );
                through[shard] += 1;
                let lane_idx = shard % fleet.lanes.len();
                let lane = &fleet.lanes[lane_idx];
                let samples = item.batch.batch_size as u64;
                let forwarded = TrainerBatch {
                    trainer: lane_idx,
                    shard,
                    seq: global,
                    batch: item.batch,
                };
                match lane.send(forwarded) {
                    None => fleet.counters.update(|r| {
                        r.forwarded_batches += 1;
                        r.forwarded_samples += samples;
                    }),
                    Some(rejected) => lane.drop_batch(rejected.batch, converted_pool),
                }
            }
        }
        collector.processed.fetch_add(1, Ordering::AcqRel);
    }
}
