//! The fan-out dispatch stage: resequences finished batches per shard and
//! streams them onto N bounded per-trainer channels, so many trainers feed
//! from one preprocessing tier — the paper's DPP deployment shape.
//!
//! ```text
//!                                    ┌─▶ [lane 0] ─▶ TrainerHandle 0
//! compute ─ [out] ─ resequence ─ assign ─▶ [lane 1] ─▶ TrainerHandle 1
//!                                    └─▶ [lane N] ─▶ TrainerHandle N
//! ```
//!
//! Flow control is **per trainer**: every lane is its own bounded channel
//! with its own depth gauge and delivered/consumed counters. When one
//! trainer stalls, its lane fills and batches destined for it park in a
//! bounded spillover buffer while other trainers keep receiving. Once the
//! spillover is exhausted the sink waits for lane space: on the parked
//! batch's own lane under shard pinning, on whichever live lane frees first
//! under least-loaded assignment. That wait backpressures the whole
//! pipeline the usual way (out queue → compute → router → fill →
//! [`DppHandle::submit_file`](crate::DppHandle::submit_file)).
//!
//! The sink is also where partition barriers resolve: the router stamps each
//! [`flush_partition`](crate::DppHandle::flush_partition) barrier with
//! per-shard sequence cuts, and the sink completes the barrier once every
//! batch below the cut has been pushed onto its trainer lane.
//!
//! Trainer lanes exist once, here: `TrainerLanes::open` builds a lane set —
//! the sending halves, the [`TrainerHandle`]s and the lane state the
//! report reads — for a service and for a fleet alike, and a lane's
//! dead-aware delivery is `LaneSender::send`.

use crate::channel::{bounded, Gauge, Receiver, RecvTimeout, SendError, Sender};
use crate::metrics::TrainerLaneReport;
use crate::pool::BatchPool;
use recd_core::ConvertedBatch;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How delivered batches are assigned to trainer lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainerAssignPolicy {
    /// `trainer = shard % trainers`: every shard's batches always land on
    /// the same trainer, so a trainer sees a stable slice of the session
    /// space (and the in-batch dedup locality that comes with it). This is
    /// the deterministic default.
    ShardPinned,
    /// Each batch goes to the lane with the smallest backlog (queue depth
    /// plus parked batches; ties pick the lowest trainer id). Routes around
    /// slow trainers at the cost of shard affinity.
    LeastLoaded,
}

impl TrainerAssignPolicy {
    /// Stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            TrainerAssignPolicy::ShardPinned => "shard_pinned",
            TrainerAssignPolicy::LeastLoaded => "least_loaded",
        }
    }
}

/// One delivered unit of trainer input: the preprocessed batch plus its
/// provenance (which shard lane produced it, and its per-shard sequence
/// number — `(shard, seq)` totally orders a shard's stream).
#[derive(Debug)]
pub struct TrainerBatch {
    /// The trainer lane this batch was assigned to.
    pub trainer: usize,
    /// The shard that coalesced the batch.
    pub shard: usize,
    /// Per-shard emission sequence number.
    pub seq: u64,
    /// The preprocessed batch.
    pub batch: ConvertedBatch,
}

/// Per-lane counters shared between the sink (delivery side) and the
/// [`TrainerHandle`] (consumption side).
#[derive(Debug, Default)]
struct LaneShared {
    delivered_batches: AtomicU64,
    delivered_samples: AtomicU64,
    consumed_batches: AtomicU64,
    consumed_samples: AtomicU64,
    dropped_batches: AtomicU64,
    /// Tombstone set the instant the trainer's handle drops. The channel's
    /// own `is_closed` flips only after the receiver half is torn down, so a
    /// dispatch racing the drop can still observe an open channel; the
    /// tombstone is written first and closes that window.
    dead: AtomicBool,
}

impl LaneShared {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn delivered_batches(&self) -> u64 {
        self.delivered_batches.load(Ordering::Acquire)
    }

    fn delivered_samples(&self) -> u64 {
        self.delivered_samples.load(Ordering::Acquire)
    }

    fn consumed_batches(&self) -> u64 {
        self.consumed_batches.load(Ordering::Acquire)
    }

    fn consumed_samples(&self) -> u64 {
        self.consumed_samples.load(Ordering::Acquire)
    }

    fn dropped_batches(&self) -> u64 {
        self.dropped_batches.load(Ordering::Acquire)
    }

    fn note_delivery(&self, samples: u64) {
        self.delivered_batches.fetch_add(1, Ordering::AcqRel);
        self.delivered_samples.fetch_add(samples, Ordering::AcqRel);
    }
}

/// The delivery side's sending half of one trainer lane: a service's sink
/// or a fleet's host collectors.
pub(crate) struct LaneSender {
    tx: Sender<TrainerBatch>,
    shared: Arc<LaneShared>,
}

impl LaneSender {
    /// A lane is dead once its trainer dropped the handle. The tombstone is
    /// authoritative (written inside the handle's `Drop` before the channel
    /// half disconnects); `is_closed` is kept as a second signal for lanes
    /// torn down through other paths.
    fn is_dead(&self) -> bool {
        self.shared.is_dead() || self.tx.is_closed()
    }

    /// Pushes `item` without blocking and accounts the delivery; hands the
    /// item back (`Some`) while the lane is full (or gone).
    fn try_send(&self, item: TrainerBatch) -> Option<TrainerBatch> {
        let samples = item.batch.batch_size as u64;
        match self.tx.try_send(item) {
            Ok(()) => {
                self.shared.note_delivery(samples);
                None
            }
            Err(SendError(item)) => Some(item),
        }
    }

    /// Delivers `item`, blocking while the lane is full, and accounts it. A
    /// lane that is dead, or dies mid-send, is marked dead and hands the item
    /// back (`Some`), for the caller to re-route or
    /// [`drop_batch`](Self::drop_batch).
    pub(crate) fn send(&self, item: TrainerBatch) -> Option<TrainerBatch> {
        let samples = item.batch.batch_size as u64;
        let rejected = if self.is_dead() {
            Some(item)
        } else {
            self.tx.send(item).err().map(|SendError(item)| item)
        };
        match rejected {
            None => self.shared.note_delivery(samples),
            Some(_) => self.shared.mark_dead(),
        }
        rejected
    }

    /// Accounts a batch this lane could not take and recycles its shell
    /// back into the compute loop.
    pub(crate) fn drop_batch(&self, batch: ConvertedBatch, pool: &BatchPool<ConvertedBatch>) {
        self.shared.mark_dead();
        self.shared.dropped_batches.fetch_add(1, Ordering::AcqRel);
        pool.recycle(batch);
    }
}

/// The state of a set of trainer lanes that the report reads — per lane,
/// the shared counters and a passive depth gauge (which, unlike a channel
/// half, never keeps the lane open).
#[derive(Default)]
pub(crate) struct TrainerLanes(Vec<(Arc<LaneShared>, Gauge<TrainerBatch>)>);

impl TrainerLanes {
    /// Opens `count` bounded lanes of capacity `depth`: the lane set, the
    /// sending halves for the delivery side, and one pull endpoint per
    /// trainer.
    pub(crate) fn open(count: usize, depth: usize) -> (Self, Vec<LaneSender>, Vec<TrainerHandle>) {
        let mut lanes = Self::default();
        let mut senders = Vec::with_capacity(count);
        let mut handles = Vec::with_capacity(count);
        for id in 0..count {
            let (tx, rx) = bounded::<TrainerBatch>(depth);
            let shared = Arc::new(LaneShared::default());
            lanes.0.push((Arc::clone(&shared), rx.gauge()));
            handles.push(TrainerHandle {
                id,
                rx,
                shared: Arc::clone(&shared),
            });
            senders.push(LaneSender { tx, shared });
        }
        (lanes, senders, handles)
    }

    /// Depth of the fullest lane.
    pub(crate) fn deepest(&self) -> usize {
        self.0
            .iter()
            .map(|(_, gauge)| gauge.len())
            .max()
            .unwrap_or(0)
    }

    /// Every lane's accounting, as of now.
    pub(crate) fn report(&self) -> Vec<TrainerLaneReport> {
        let lanes = self.0.iter().enumerate();
        lanes
            .map(|(trainer, (shared, gauge))| TrainerLaneReport {
                trainer,
                queue_depth: gauge.len(),
                delivered_batches: shared.delivered_batches(),
                delivered_samples: shared.delivered_samples(),
                consumed_batches: shared.consumed_batches(),
                consumed_samples: shared.consumed_samples(),
                dropped_batches: shared.dropped_batches(),
                peak_queue_depth: gauge.peak_depth(),
            })
            .collect()
    }
}

/// A trainer's pull endpoint: a bounded, backpressured stream of
/// preprocessed batches with its own consumption accounting. One handle per
/// configured trainer, obtained from
/// [`DppHandle::take_trainers`](crate::DppHandle::take_trainers).
pub struct TrainerHandle {
    id: usize,
    rx: Receiver<TrainerBatch>,
    shared: Arc<LaneShared>,
}

impl TrainerHandle {
    /// This trainer's id (its lane index).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Pulls the next batch, blocking while the lane is empty. Returns
    /// [`None`] once the service has shut down and the lane has drained.
    pub fn recv(&self) -> Option<TrainerBatch> {
        let item = self.rx.recv()?;
        self.note_consumed(&item);
        Some(item)
    }

    /// Pulls the next batch without blocking; [`None`] means the lane is
    /// currently empty (the stream may still be live).
    pub fn try_recv(&self) -> Option<TrainerBatch> {
        let item = self.rx.try_recv()?;
        self.note_consumed(&item);
        Some(item)
    }

    /// Pulls the next batch, waiting at most `timeout` — the building block
    /// for consumer loops that must interleave consumption with control
    /// signals (the chaos harness's stall/kill commands).
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> RecvTimeout<TrainerBatch> {
        match self.rx.recv_timeout(timeout) {
            RecvTimeout::Item(item) => {
                self.note_consumed(&item);
                RecvTimeout::Item(item)
            }
            other => other,
        }
    }

    /// Pulls every remaining batch until the service shuts down, blocking as
    /// needed — the "consume to the end" loop as one call.
    pub fn drain(&self) -> Vec<TrainerBatch> {
        let mut out = Vec::new();
        while let Some(item) = self.recv() {
            out.push(item);
        }
        out
    }

    /// Current lane depth: batches delivered but not yet pulled. This is the
    /// trainer's backpressure gauge — a persistently full lane means this
    /// trainer is the slow consumer.
    pub fn queue_depth(&self) -> usize {
        self.rx.len()
    }

    /// High-water mark of the lane depth.
    pub fn peak_queue_depth(&self) -> usize {
        self.rx.peak_depth()
    }

    /// Batches the sink has pushed onto this lane so far.
    pub fn delivered_batches(&self) -> u64 {
        self.shared.delivered_batches()
    }

    /// Batches this handle has pulled so far.
    pub fn consumed_batches(&self) -> u64 {
        self.shared.consumed_batches()
    }

    /// Samples this handle has pulled so far.
    pub fn consumed_samples(&self) -> u64 {
        self.shared.consumed_samples()
    }

    fn note_consumed(&self, item: &TrainerBatch) {
        self.shared.consumed_batches.fetch_add(1, Ordering::AcqRel);
        self.shared
            .consumed_samples
            .fetch_add(item.batch.batch_size as u64, Ordering::AcqRel);
    }
}

impl Drop for TrainerHandle {
    fn drop(&mut self) {
        // Tombstone before the channel half goes away, so the sink never
        // routes new batches at a lane whose consumer is mid-teardown.
        self.shared.mark_dead();
    }
}

impl std::fmt::Debug for TrainerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainerHandle")
            .field("id", &self.id)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// Tracks which [`flush_partition`](crate::DppHandle::flush_partition)
/// barriers have fully delivered. Barrier ids are issued monotonically by
/// the handle; the sink completes them in order.
#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    inner: Mutex<BarrierInner>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct BarrierInner {
    completed: u64,
    closed: bool,
}

impl BarrierState {
    /// Marks `id` (and every smaller id) complete and wakes waiters.
    pub(crate) fn complete(&self, id: u64) {
        let mut inner = self.inner.lock().expect("barrier lock");
        inner.completed = inner.completed.max(id);
        self.cond.notify_all();
    }

    /// Marks the stream finished: no further barrier can complete, so every
    /// waiter unblocks (receiving `false` unless its barrier already
    /// completed).
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().expect("barrier lock");
        inner.closed = true;
        self.cond.notify_all();
    }

    /// Blocks until barrier `id` completes. Returns `false` if the sink shut
    /// down first.
    pub(crate) fn wait(&self, id: u64) -> bool {
        let mut inner = self.inner.lock().expect("barrier lock");
        while inner.completed < id && !inner.closed {
            inner = self.cond.wait(inner).expect("barrier lock");
        }
        inner.completed >= id
    }
}

/// A finished batch leaving a compute worker, tagged with its shard lane and
/// per-shard sequence number.
pub(crate) struct OutBatch {
    pub(crate) shard: usize,
    pub(crate) seq: u64,
    pub(crate) batch: ConvertedBatch,
}

/// Everything that flows into the sink.
pub(crate) enum SinkInput {
    /// A finished batch from a compute worker.
    Batch(OutBatch),
    /// A compute worker failed to convert `(shard, seq)`: nothing to
    /// deliver, but the sequence slot must still be accounted — otherwise
    /// the resequencer would wait on the hole forever, wedging every later
    /// batch of that shard and any barrier cut past it.
    Skip { shard: usize, seq: u64 },
    /// A partition barrier from the router: `cuts[shard]` is the shard's
    /// sequence length at the barrier, i.e. every `(shard, seq)` with
    /// `seq < cuts[shard]` was submitted before the barrier.
    Barrier { id: u64, cuts: Vec<u64> },
}

pub(crate) struct SinkParams<'a> {
    pub(crate) out_rx: Receiver<SinkInput>,
    pub(crate) shards: usize,
    /// The trainer lanes every batch leaves through (at least one).
    pub(crate) lanes: Vec<LaneSender>,
    pub(crate) policy: TrainerAssignPolicy,
    /// Total parked batches allowed across all lanes before the sink blocks.
    pub(crate) park_capacity: usize,
    pub(crate) barriers: &'a BarrierState,
    /// Shell pool for batches that can't be delivered (dead trainer lane):
    /// their buffers go back into the compute loop instead of being dropped.
    pub(crate) converted_pool: &'a BatchPool<ConvertedBatch>,
}

/// How often the sink retries parked batches while new input is quiet, and
/// polls the lanes while the spillover is over capacity.
const PARK_RETRY: Duration = Duration::from_micros(200);

/// The sink stage body: resequences every shard's stream and delivers it
/// onto the trainer lanes until end of stream.
pub(crate) fn run_sink(params: SinkParams<'_>) {
    let SinkParams {
        out_rx,
        shards,
        lanes,
        policy,
        park_capacity,
        barriers,
        converted_pool,
    } = params;

    // Out-of-order arrivals wait here until their shard's cursor reaches
    // them (`None` marks a failed conversion's sequence slot, which is
    // accounted but delivers nothing); bounded in practice by the in-flight
    // population of the upstream queues.
    let mut reorder: BTreeMap<(usize, u64), Option<ConvertedBatch>> = BTreeMap::new();
    let mut next_seq = vec![0u64; shards];
    let mut pending_barriers: VecDeque<(u64, Vec<u64>)> = VecDeque::new();
    let mut dispatcher = Dispatcher {
        parked: (0..lanes.len()).map(|_| VecDeque::new()).collect(),
        lanes,
        parked_total: 0,
        park_capacity,
        policy,
        converted_pool,
    };

    loop {
        // While batches are parked, poll with a short timeout so a consuming
        // trainer frees lane space even when no new batch arrives.
        let input = if dispatcher.parked_total > 0 {
            match out_rx.recv_timeout(PARK_RETRY) {
                RecvTimeout::Item(input) => Some(input),
                RecvTimeout::Timeout => None,
                RecvTimeout::Disconnected => break,
            }
        } else {
            match out_rx.recv() {
                Some(input) => Some(input),
                None => break,
            }
        };
        match input {
            Some(SinkInput::Batch(out)) => {
                reorder.insert((out.shard, out.seq), Some(out.batch));
            }
            Some(SinkInput::Skip { shard, seq }) => {
                reorder.insert((shard, seq), None);
            }
            Some(SinkInput::Barrier { id, cuts }) => pending_barriers.push_back((id, cuts)),
            None => {}
        }
        dispatcher.retry_parked();
        advance(&mut reorder, &mut next_seq, &mut dispatcher);
        complete_barriers(&mut pending_barriers, &next_seq, &mut dispatcher, barriers);
    }

    // End of stream: every producer is gone, so whatever remains in the
    // reorder buffer is a contiguous tail — deliver it, force parked batches
    // out (blocking; trainers draining their lanes unblock us), and resolve
    // any outstanding barriers.
    advance(&mut reorder, &mut next_seq, &mut dispatcher);
    debug_assert!(reorder.is_empty(), "sink must drain every emitted batch");
    dispatcher.unpark_down_to(0);
    while let Some((id, _)) = pending_barriers.pop_front() {
        barriers.complete(id);
    }
    barriers.close();
}

/// The fan-out delivery state: trainer lanes and the bounded per-lane
/// spillover of batches whose lane was full.
struct Dispatcher<'a> {
    lanes: Vec<LaneSender>,
    parked: Vec<VecDeque<TrainerBatch>>,
    parked_total: usize,
    park_capacity: usize,
    policy: TrainerAssignPolicy,
    converted_pool: &'a BatchPool<ConvertedBatch>,
}

impl Dispatcher<'_> {
    fn lane_dead(&self, trainer: usize) -> bool {
        self.lanes[trainer].is_dead()
    }

    /// The live (not dropped-handle) lane with the smallest backlog (queued
    /// plus parked); ties pick the lowest trainer id. A lane whose trainer
    /// is gone never wins — otherwise a dead trainer's frozen empty lane
    /// would absorb (and drop) the entire stream while live trainers
    /// starve. [`None`] when every trainer is gone.
    fn least_loaded_live(&self) -> Option<usize> {
        (0..self.lanes.len())
            .filter(|&t| !self.lane_dead(t))
            .min_by_key(|&t| self.lanes[t].tx.len() + self.parked[t].len())
    }

    /// Where a batch aimed at dead lane `trainer` should go instead:
    /// shard-pinned placement is a determinism contract (a shard's stream
    /// must never migrate), so it drops; least-loaded assignment re-routes
    /// to the least-loaded live lane.
    fn reroute_target(&self, trainer: usize) -> Option<usize> {
        if self.policy == TrainerAssignPolicy::ShardPinned {
            return None;
        }
        self.least_loaded_live().filter(|&t| t != trainer)
    }

    fn drop_for_dead_lane(&self, trainer: usize, batch: ConvertedBatch) {
        self.lanes[trainer].drop_batch(batch, self.converted_pool);
    }

    /// Pushes one batch onto its lane, parking it when the lane is full.
    /// When the spillover exceeds `park_capacity`, waits until lanes free
    /// space ([`unpark_down_to`](Self::unpark_down_to)) — that wait is what
    /// ultimately backpressures the whole pipeline behind slow consumers.
    fn dispatch(&mut self, trainer: usize, mut item: TrainerBatch) {
        let trainer = if self.lane_dead(trainer) {
            match self.reroute_target(trainer) {
                // The trainer died under least-loaded assignment: the batch
                // survives on another live lane instead of being lost.
                Some(target) => {
                    item.trainer = target;
                    target
                }
                None => {
                    // Shard-pinned, or no live lane left: don't wedge the
                    // service, account the loss instead.
                    self.drop_for_dead_lane(trainer, item.batch);
                    return;
                }
            }
        } else {
            trainer
        };
        // Lane order is per-trainer FIFO: never overtake an already-parked
        // batch.
        let refused = if self.parked[trainer].is_empty() {
            self.lanes[trainer].try_send(item)
        } else {
            Some(item)
        };
        if let Some(item) = refused {
            self.parked[trainer].push_back(item);
            self.parked_total += 1;
            self.unpark_down_to(self.park_capacity);
        }
    }

    /// Moves parked batches onto lanes until at most `limit` stay parked:
    /// the spillover overflow (`park_capacity`), and the forced delivery at
    /// a barrier and at end of stream (`0`). Shard-pinned placement blocks
    /// on the most-parked lane, since a shard's stream never migrates. The
    /// other policies hand that lane's oldest batch to whichever live lane
    /// frees first, polling every `PARK_RETRY`, so one stalled trainer
    /// cannot hold batches every other lane could take. With one live lane
    /// there is nothing to choose, and the send blocks.
    fn unpark_down_to(&mut self, limit: usize) {
        while self.parked_total > limit {
            let live = (0..self.lanes.len()).filter(|&t| !self.lane_dead(t));
            let choose = self.policy != TrainerAssignPolicy::ShardPinned && live.count() > 1;
            if choose {
                self.retry_parked();
                if self.parked_total <= limit {
                    break;
                }
            }
            let worst = (0..self.lanes.len())
                .max_by_key(|&t| self.parked[t].len())
                .expect("at least one lane when parked");
            let Some(mut item) = self.parked[worst].pop_front() else {
                break;
            };
            self.parked_total -= 1;
            if !choose {
                self.send_blocking(worst, item);
                continue;
            }
            // Every lane still holding parked batches is full, so the
            // least-loaded live lane has room if any lane has.
            let target = self.least_loaded_live().unwrap_or(worst);
            item.trainer = target;
            if let Some(mut item) = self.lanes[target].try_send(item) {
                item.trainer = worst;
                self.parked[worst].push_front(item);
                self.parked_total += 1;
                std::thread::sleep(PARK_RETRY);
            }
        }
    }

    /// Retries parked batches front-first on every sink iteration. Batches
    /// parked against a lane that died meanwhile re-route (or drop under
    /// shard pinning) instead of sitting there forever.
    fn retry_parked(&mut self) {
        for t in 0..self.lanes.len() {
            while let Some(mut item) = self.parked[t].pop_front() {
                if self.lane_dead(t) {
                    self.parked_total -= 1;
                    match self.reroute_target(t) {
                        Some(target) => {
                            item.trainer = target;
                            self.dispatch(target, item);
                        }
                        None => self.drop_for_dead_lane(t, item.batch),
                    }
                    continue;
                }
                match self.lanes[t].try_send(item) {
                    None => self.parked_total -= 1,
                    Some(item) => {
                        self.parked[t].push_front(item);
                        break;
                    }
                }
            }
        }
    }

    /// Blocking-delivers one batch (the spillover's way out when there is
    /// no lane to choose). A dead lane re-routes the batch to a live lane
    /// (least-loaded policy) or counts it as dropped (shard-pinned / all
    /// lanes dead). The live set only shrinks, so the re-route recursion is
    /// bounded.
    fn send_blocking(&mut self, trainer: usize, item: TrainerBatch) {
        if let Some(mut item) = self.lanes[trainer].send(item) {
            match self.reroute_target(trainer) {
                Some(target) => {
                    item.trainer = target;
                    self.send_blocking(target, item);
                }
                None => self.drop_for_dead_lane(trainer, item.batch),
            }
        }
    }
}

/// Delivers every batch whose shard cursor has reached it; a `None` slot (a
/// failed conversion) just advances the cursor.
fn advance(
    reorder: &mut BTreeMap<(usize, u64), Option<ConvertedBatch>>,
    next_seq: &mut [u64],
    dispatcher: &mut Dispatcher<'_>,
) {
    for (shard, cursor) in next_seq.iter_mut().enumerate() {
        while let Some(slot) = reorder.remove(&(shard, *cursor)) {
            let seq = *cursor;
            *cursor += 1;
            let Some(batch) = slot else {
                continue;
            };
            let trainer = match dispatcher.policy {
                TrainerAssignPolicy::ShardPinned => shard % dispatcher.lanes.len(),
                // With every lane dead, lane 0 drops and accounts the batch.
                TrainerAssignPolicy::LeastLoaded => dispatcher.least_loaded_live().unwrap_or(0),
            };
            let item = TrainerBatch {
                trainer,
                shard,
                seq,
                batch,
            };
            dispatcher.dispatch(trainer, item);
        }
    }
}

/// Completes every pending barrier whose per-shard cuts the delivery cursors
/// have reached. Completion requires the pre-barrier batches to actually sit
/// in trainer lanes, so any still-parked batch is forced out first.
fn complete_barriers(
    pending: &mut VecDeque<(u64, Vec<u64>)>,
    next_seq: &[u64],
    dispatcher: &mut Dispatcher<'_>,
    barriers: &BarrierState,
) {
    while let Some((id, cuts)) = pending.front() {
        let reached = cuts
            .iter()
            .enumerate()
            .all(|(shard, cut)| next_seq[shard] >= *cut);
        if !reached {
            return;
        }
        // The cursors passed every pre-barrier batch, but some may have been
        // parked rather than delivered; they must reach their lanes before
        // the flush caller is released.
        dispatcher.unpark_down_to(0);
        barriers.complete(*id);
        pending.pop_front();
    }
}
