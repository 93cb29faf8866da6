//! A blob-store simulation standing in for the Tectonic distributed
//! filesystem: put/get with per-node storage and read accounting, an
//! optional per-node request-queue model (service rate + bandwidth cap),
//! and an optional LRU blob cache tier in front of the nodes.
//!
//! # Queueing model
//!
//! With a [`NodeConfig`] installed, every get and put is charged against the
//! queue of the node holding (or receiving) the blob: an op entering at
//! clock time `now` starts at `max(now, busy_until)`, occupies the node for
//! `1/service_rate + len/bandwidth` seconds, and the caller physically waits
//! until its finish time. Latency therefore *emerges* from queue depth and
//! transfer size — concurrent fetchers pile up on a hot node while a
//! balanced placement spreads them — and ETL landings genuinely contend
//! with reader fetches for the same node. Without a `NodeConfig` the store
//! falls back to the legacy flat per-fetch latency knob
//! ([`set_get_latency`](TectonicSim::set_get_latency)).
//!
//! Queue time is read from a shared [`ScaleClock`] (wall-anchored by
//! default), so tests can freeze time and assert wait accounting exactly.

use crate::{Result, StorageError};
use parking_lot::{Mutex, RwLock};
use recd_obs::ScaleClock;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregate blob-store accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BlobStats {
    /// Number of blobs stored.
    pub blobs: usize,
    /// Total stored bytes.
    pub stored_bytes: usize,
    /// Number of get operations served (read IOPS).
    pub read_ops: usize,
    /// Total bytes served by get operations.
    pub read_bytes: usize,
    /// Number of put operations accepted (write IOPS).
    pub put_ops: usize,
    /// Total bytes accepted by put operations.
    pub put_bytes: usize,
    /// Number of get operations failed by injected transient faults.
    pub injected_get_failures: usize,
    /// Number of put operations failed by injected transient faults.
    pub injected_put_failures: usize,
}

/// Per-node service model for the queued storage path: every node serves
/// ops at a fixed rate and moves bytes at a fixed bandwidth, so op latency
/// emerges from queue depth plus transfer size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Ops per second one node can start (seek/metadata cost: each op holds
    /// the node for `1/service_rate` seconds before byte transfer).
    pub service_rate: f64,
    /// Bytes per second one node can move.
    pub bandwidth: f64,
}

impl NodeConfig {
    /// Creates a node model.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are finite and positive.
    pub fn new(service_rate: f64, bandwidth: f64) -> Self {
        assert!(
            service_rate.is_finite() && service_rate > 0.0,
            "node service rate must be finite and positive"
        );
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "node bandwidth must be finite and positive"
        );
        Self {
            service_rate,
            bandwidth,
        }
    }

    /// Seconds one node is occupied serving an op of `bytes`, under a
    /// brown-out `cut` factor (1.0 = healthy).
    fn service_seconds(&self, bytes: usize, cut: f64) -> f64 {
        (1.0 / self.service_rate + bytes as f64 / self.bandwidth) * cut
    }
}

/// How puts pick a node for a new blob. Overwrites always stay on the
/// blob's original node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Hash the path (the default; deterministic but can clump).
    #[default]
    HashPath,
    /// Rotate through nodes in put order.
    RoundRobin,
    /// Place on the node currently storing the fewest bytes.
    LeastLoadedBytes,
}

/// Per-node queue accounting, reported by
/// [`node_stats`](TectonicSim::node_stats) and exported as
/// `recd_storage_node_*` series.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeStats {
    /// Bytes currently stored on this node.
    pub stored_bytes: usize,
    /// Ops charged to this node's queue (gets + puts).
    pub ops: u64,
    /// Bytes moved through this node's queue.
    pub bytes: u64,
    /// Cumulative seconds ops spent waiting behind the queue before service.
    pub wait_seconds: f64,
    /// Cumulative seconds this node spent servicing ops.
    pub busy_seconds: f64,
    /// Ops currently queued or in service on this node.
    pub depth: u64,
}

/// Cache-tier accounting, reported by
/// [`cache_stats`](TectonicSim::cache_stats) and exported as
/// `recd_storage_cache_*` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Gets served from the cache.
    pub hits: u64,
    /// Gets that had to fall through to a storage node.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently cached.
    pub bytes: usize,
    /// Configured byte budget (0 = cache disabled).
    pub capacity_bytes: usize,
    /// Entries currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of gets served from the cache (0 when no gets were seen).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared fault-injection knobs: armed fail-next-N budgets plus cumulative
/// accounting, shared across clones exactly like the latency knob so a chaos
/// engine can fault a store that readers are already fetching from.
#[derive(Debug, Default)]
struct FaultState {
    fail_gets: AtomicU64,
    fail_puts: AtomicU64,
    injected_get_failures: AtomicU64,
    injected_put_failures: AtomicU64,
}

impl FaultState {
    /// Consumes one unit of an armed fault budget; returns `true` when a
    /// fault should fire.
    fn consume(budget: &AtomicU64) -> bool {
        budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// Read accounting, kept out of the blob map's lock so gets only contend on
/// the map's *read* lock (and cache hits touch no lock at all).
#[derive(Debug, Default)]
struct ReadCounters {
    ops: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Blob bytes plus the node the blob was placed on.
    blobs: HashMap<String, (Arc<Vec<u8>>, usize)>,
    node_bytes: Vec<usize>,
    /// Running total so [`TectonicSim::stats`] is O(1) in blob count.
    stored_bytes: usize,
    put_ops: usize,
    put_bytes: usize,
    round_robin: usize,
}

/// One node's virtual-time queue.
#[derive(Debug, Default)]
struct NodeQueue {
    busy_until: f64,
    ops: u64,
    bytes: u64,
    wait_nanos: u64,
    busy_nanos: u64,
}

/// Queue-model state, shared across clones.
struct QueueState {
    config: RwLock<Option<NodeConfig>>,
    /// Brown-out service-time multiplier as `f64` bits; 1.0 = healthy.
    rate_cut_bits: AtomicU64,
    queues: Vec<Mutex<NodeQueue>>,
    depth: Vec<AtomicU64>,
    clock: RwLock<Arc<dyn ScaleClock>>,
}

impl std::fmt::Debug for QueueState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueState")
            .field("config", &*self.config.read())
            .field(
                "rate_cut",
                &f64::from_bits(self.rate_cut_bits.load(Ordering::Acquire)),
            )
            .field("nodes", &self.queues.len())
            .finish_non_exhaustive()
    }
}

impl QueueState {
    fn new(nodes: usize) -> Self {
        Self {
            config: RwLock::new(None),
            rate_cut_bits: AtomicU64::new(1.0f64.to_bits()),
            queues: (0..nodes)
                .map(|_| Mutex::new(NodeQueue::default()))
                .collect(),
            depth: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            clock: RwLock::new(Arc::new(WallAnchor {
                started: Instant::now(),
            })),
        }
    }
}

/// The default queue clock: seconds since store creation. `wait_tick` is
/// never used by the store; it reports shutdown so a stray waiter exits.
#[derive(Debug)]
struct WallAnchor {
    started: Instant,
}

impl ScaleClock for WallAnchor {
    fn wait_tick(&self) -> bool {
        false
    }

    fn shutdown(&self) {}

    fn now_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[derive(Debug)]
struct CacheEntry {
    blob: Arc<Vec<u8>>,
    last_used: u64,
}

/// LRU state: entries keyed by path, with a lazy recency queue (stale queue
/// entries — superseded by a later touch — are skipped during eviction).
#[derive(Debug, Default)]
struct CacheInner {
    /// Byte budget; 0 disables the tier entirely.
    capacity: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<String, CacheEntry>,
    lru: VecDeque<(u64, String)>,
}

#[derive(Debug, Default)]
struct CacheState {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<CacheInner>,
}

/// The blob store. Cloning is cheap and clones share state, so a reader tier
/// can fetch from the same store concurrently.
#[derive(Debug, Clone)]
pub struct TectonicSim {
    inner: Arc<RwLock<Inner>>,
    nodes: usize,
    placement: PlacementPolicy,
    reads: Arc<ReadCounters>,
    /// Simulated per-fetch latency in nanoseconds — the legacy flat model,
    /// used only when no [`NodeConfig`] is installed. Shared across clones
    /// so a test or experiment can throttle and un-throttle a store that
    /// readers are already fetching from.
    get_latency_nanos: Arc<AtomicU64>,
    /// Armed transient-fault budgets, shared across clones.
    faults: Arc<FaultState>,
    queue: Arc<QueueState>,
    cache: Arc<CacheState>,
}

impl TectonicSim {
    /// Creates a store spread over `nodes` storage nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a blob store needs at least one node");
        Self {
            inner: Arc::new(RwLock::new(Inner {
                node_bytes: vec![0; nodes],
                ..Inner::default()
            })),
            nodes,
            placement: PlacementPolicy::HashPath,
            reads: Arc::new(ReadCounters::default()),
            get_latency_nanos: Arc::new(AtomicU64::new(0)),
            faults: Arc::new(FaultState::default()),
            queue: Arc::new(QueueState::new(nodes)),
            cache: Arc::new(CacheState::default()),
        }
    }

    /// Installs the per-node queue model: gets and puts are charged against
    /// the owning node's queue and latency emerges from depth + transfer
    /// size instead of the flat [`set_get_latency`](Self::set_get_latency)
    /// knob.
    #[must_use]
    pub fn with_node_config(self, config: NodeConfig) -> Self {
        *self.queue.config.write() = Some(config);
        self
    }

    /// The installed node model, if any.
    pub fn node_config(&self) -> Option<NodeConfig> {
        *self.queue.config.read()
    }

    /// Whether the per-node queue model is active.
    pub fn queueing_enabled(&self) -> bool {
        self.node_config().is_some()
    }

    /// Sets how puts place *new* blobs onto nodes. Build-time only: clones
    /// made before this call keep the previous policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the queue clock (wall-anchored by default). Tests freeze
    /// time this way to assert wait accounting exactly. Shared across
    /// clones.
    #[must_use]
    pub fn with_queue_clock(self, clock: Arc<dyn ScaleClock>) -> Self {
        *self.queue.clock.write() = clock;
        self
    }

    /// Enables the LRU blob cache tier with a byte budget (0 disables it).
    /// Cache hits skip the node queues entirely — the cache is what absorbs
    /// node contention. Puts invalidate the cached entry, so readers never
    /// see stale bytes. Shared across clones.
    #[must_use]
    pub fn with_cache(self, capacity_bytes: usize) -> Self {
        self.cache.inner.lock().capacity = capacity_bytes;
        self
    }

    /// Whether the cache tier is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.inner.lock().capacity > 0
    }

    /// Current cache-tier accounting.
    pub fn cache_stats(&self) -> CacheStats {
        let inner = self.cache.inner.lock();
        CacheStats {
            hits: self.cache.hits.load(Ordering::Acquire),
            misses: self.cache.misses.load(Ordering::Acquire),
            evictions: self.cache.evictions.load(Ordering::Acquire),
            bytes: inner.bytes,
            capacity_bytes: inner.capacity,
            entries: inner.map.len(),
        }
    }

    /// Applies a brown-out: service times on every node are multiplied by
    /// `factor` until the cut is restored to 1.0. The chaos engine's
    /// `SlowStorage` fault uses this on queue-enabled stores instead of a
    /// flat latency bump. Shared across clones.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and at least 1.0.
    pub fn set_rate_cut(&self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "rate cut must be a finite factor >= 1"
        );
        self.queue
            .rate_cut_bits
            .store(factor.to_bits(), Ordering::Release);
    }

    /// The current brown-out factor (1.0 = healthy).
    pub fn rate_cut(&self) -> f64 {
        f64::from_bits(self.queue.rate_cut_bits.load(Ordering::Acquire))
    }

    /// Per-node queue accounting (index = node).
    pub fn node_stats(&self) -> Vec<NodeStats> {
        let node_bytes = self.inner.read().node_bytes.clone();
        (0..self.nodes)
            .map(|node| {
                let q = self.queue.queues[node].lock();
                NodeStats {
                    stored_bytes: node_bytes[node],
                    ops: q.ops,
                    bytes: q.bytes,
                    wait_seconds: q.wait_nanos as f64 / 1e9,
                    busy_seconds: q.busy_nanos as f64 / 1e9,
                    depth: self.queue.depth[node].load(Ordering::Acquire),
                }
            })
            .collect()
    }

    /// Mean queue wait per charged op across all nodes (zero when the queue
    /// model is off or no ops were charged).
    pub fn mean_queue_wait(&self) -> Duration {
        let (mut wait_nanos, mut ops) = (0u64, 0u64);
        for q in &self.queue.queues {
            let q = q.lock();
            wait_nanos += q.wait_nanos;
            ops += q.ops;
        }
        wait_nanos
            .checked_div(ops)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Arms the next `count` [`get`](Self::get) calls (across all clones) to
    /// fail with a transient [`StorageError::Injected`] before touching the
    /// store. Budgets accumulate; each faulted call consumes one unit.
    pub fn fail_next_gets(&self, count: u64) {
        self.faults.fail_gets.fetch_add(count, Ordering::AcqRel);
    }

    /// Arms the next `count` [`try_put_blob`](Self::try_put_blob) calls to
    /// fail with a transient [`StorageError::Injected`]. Infallible
    /// [`put`](Self::put) calls are never faulted, so a budget cannot wedge
    /// callers that have no retry path.
    pub fn fail_next_puts(&self, count: u64) {
        self.faults.fail_puts.fetch_add(count, Ordering::AcqRel);
    }

    /// Total `(get, put)` operations failed by injected faults so far.
    pub fn injected_failures(&self) -> (u64, u64) {
        (
            self.faults.injected_get_failures.load(Ordering::Acquire),
            self.faults.injected_put_failures.load(Ordering::Acquire),
        )
    }

    /// Simulates per-fetch network latency: every [`get`](Self::get) sleeps
    /// for `latency` outside the store lock, the way a production reader
    /// waits on an RPC. Concurrent fetchers overlap their waits, so this
    /// makes fill-parallelism effects observable even on a single core.
    /// Ignored while a [`NodeConfig`] is installed (queue waits replace it).
    /// The setting is shared across clones, so injecting (and later
    /// clearing) storage pressure mid-run is one call — the lever the
    /// dynamic-scaling tests pull to make fill workers fall behind and then
    /// catch up.
    pub fn set_get_latency(&self, latency: Duration) {
        self.get_latency_nanos.store(
            latency.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Release,
        );
    }

    /// The currently simulated per-fetch latency.
    pub fn get_latency(&self) -> Duration {
        Duration::from_nanos(self.get_latency_nanos.load(Ordering::Acquire))
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Consumes an armed put-fault budget unit, if any. Called before any
    /// blob copy so a faulted (and later retried) attempt never allocates.
    fn check_put_fault(&self, path: &str) -> Result<()> {
        if FaultState::consume(&self.faults.fail_puts) {
            self.faults
                .injected_put_failures
                .fetch_add(1, Ordering::AcqRel);
            return Err(StorageError::Injected {
                op: "put",
                path: path.to_string(),
            });
        }
        Ok(())
    }

    /// Stores a shared blob under `path` like [`put_blob`](Self::put_blob),
    /// but subject to injected transient faults: if a
    /// [`fail_next_puts`](Self::fail_next_puts) budget is armed, the call
    /// consumes one unit and fails. The retry-safe landing path serializes a
    /// file once and calls this per attempt, so a retry never copies.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Injected`] when an armed fault fires.
    pub fn try_put_blob(&self, path: &str, blob: &Arc<Vec<u8>>) -> Result<()> {
        self.check_put_fault(path)?;
        self.put_blob(path, Arc::clone(blob));
        Ok(())
    }

    /// Stores a blob under `path`, replacing any previous blob at that path.
    pub fn put(&self, path: &str, bytes: Vec<u8>) {
        self.put_blob(path, Arc::new(bytes));
    }

    /// Stores an already-shared blob without copying its bytes.
    pub fn put_blob(&self, path: &str, blob: Arc<Vec<u8>>) {
        let len = blob.len();
        let node = {
            let mut inner = self.inner.write();
            // Overwrites stay on the blob's original node; only new blobs
            // consult the placement policy.
            let existing = inner.blobs.get(path).map(|(_, node)| *node);
            let node = existing.unwrap_or_else(|| self.place(&mut inner, path));
            if let Some((old, old_node)) = inner.blobs.insert(path.to_string(), (blob, node)) {
                inner.node_bytes[old_node] = inner.node_bytes[old_node].saturating_sub(old.len());
                inner.stored_bytes = inner.stored_bytes.saturating_sub(old.len());
            }
            inner.node_bytes[node] += len;
            inner.stored_bytes += len;
            inner.put_ops += 1;
            inner.put_bytes += len;
            node
        };
        // Never serve stale bytes: drop any cached copy of the old blob.
        self.cache_invalidate(path);
        self.queue_charge(node, len);
    }

    fn place(&self, inner: &mut Inner, path: &str) -> usize {
        match self.placement {
            PlacementPolicy::HashPath => {
                (recd_codec::hash_bytes(path.as_bytes()) % self.nodes as u64) as usize
            }
            PlacementPolicy::RoundRobin => {
                let node = inner.round_robin % self.nodes;
                inner.round_robin = inner.round_robin.wrapping_add(1);
                node
            }
            PlacementPolicy::LeastLoadedBytes => inner
                .node_bytes
                .iter()
                .enumerate()
                .min_by_key(|(_, bytes)| **bytes)
                .map(|(node, _)| node)
                .unwrap_or(0),
        }
    }

    /// Fetches a blob, counting the read.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NotFound`] if no blob exists at `path`, or
    /// [`StorageError::Injected`] when an armed transient fault fires (the
    /// blob is intact; the caller should retry).
    pub fn get(&self, path: &str) -> Result<Arc<Vec<u8>>> {
        self.fetch(path)
    }

    /// Fetches a blob into a caller-owned buffer (cleared first), so hot
    /// fill loops can recycle one allocation across fetches. Same fault,
    /// cache, and queue behavior as [`get`](Self::get); returns the blob
    /// length.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`get`](Self::get).
    pub fn get_into(&self, path: &str, out: &mut Vec<u8>) -> Result<usize> {
        let blob = self.fetch(path)?;
        out.clear();
        out.extend_from_slice(&blob);
        Ok(blob.len())
    }

    fn fetch(&self, path: &str) -> Result<Arc<Vec<u8>>> {
        if FaultState::consume(&self.faults.fail_gets) {
            self.faults
                .injected_get_failures
                .fetch_add(1, Ordering::AcqRel);
            return Err(StorageError::Injected {
                op: "get",
                path: path.to_string(),
            });
        }
        if let Some(blob) = self.cache_lookup(path) {
            // Cache hits bypass the node queues (and the flat latency knob):
            // absorbing node contention is the tier's whole point.
            self.reads.ops.fetch_add(1, Ordering::AcqRel);
            self.reads
                .bytes
                .fetch_add(blob.len() as u64, Ordering::AcqRel);
            return Ok(blob);
        }
        let (blob, node) = {
            let inner = self.inner.read();
            inner
                .blobs
                .get(path)
                .map(|(blob, node)| (Arc::clone(blob), *node))
                .ok_or_else(|| StorageError::NotFound {
                    path: path.to_string(),
                })?
        };
        self.reads.ops.fetch_add(1, Ordering::AcqRel);
        self.reads
            .bytes
            .fetch_add(blob.len() as u64, Ordering::AcqRel);
        self.cache_insert(path, &blob);
        if !self.queue_charge(node, blob.len()) {
            let latency = self.get_latency();
            if !latency.is_zero() {
                std::thread::sleep(latency);
            }
        }
        Ok(blob)
    }

    /// Charges an op of `bytes` against `node`'s queue and waits for its
    /// finish time. Returns `false` (and does nothing) when no node model is
    /// installed, so the caller can fall back to the flat-latency knob.
    fn queue_charge(&self, node: usize, bytes: usize) -> bool {
        let Some(config) = self.node_config() else {
            return false;
        };
        let service = config.service_seconds(bytes, self.rate_cut());
        self.queue.depth[node].fetch_add(1, Ordering::AcqRel);
        let now = self.queue.clock.read().now_seconds();
        let sleep = {
            let mut q = self.queue.queues[node].lock();
            let start = if q.busy_until > now {
                q.busy_until
            } else {
                now
            };
            let finish = start + service;
            q.busy_until = finish;
            q.ops += 1;
            q.bytes += bytes as u64;
            q.wait_nanos += ((start - now) * 1e9) as u64;
            q.busy_nanos += (service * 1e9) as u64;
            finish - now
        };
        if sleep > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(sleep));
        }
        self.queue.depth[node].fetch_sub(1, Ordering::AcqRel);
        true
    }

    fn cache_lookup(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        let mut cache = self.cache.inner.lock();
        if cache.capacity == 0 {
            return None;
        }
        cache.tick += 1;
        let tick = cache.tick;
        let hit = match cache.map.get_mut(path) {
            Some(entry) => {
                entry.last_used = tick;
                Some(Arc::clone(&entry.blob))
            }
            None => None,
        };
        if hit.is_some() {
            cache.lru.push_back((tick, path.to_string()));
        }
        drop(cache);
        match hit {
            Some(blob) => {
                self.cache.hits.fetch_add(1, Ordering::AcqRel);
                Some(blob)
            }
            None => {
                self.cache.misses.fetch_add(1, Ordering::AcqRel);
                None
            }
        }
    }

    fn cache_insert(&self, path: &str, blob: &Arc<Vec<u8>>) {
        let mut cache = self.cache.inner.lock();
        if cache.capacity == 0 || blob.len() > cache.capacity {
            return;
        }
        cache.tick += 1;
        let tick = cache.tick;
        let len = blob.len();
        if let Some(old) = cache.map.insert(
            path.to_string(),
            CacheEntry {
                blob: Arc::clone(blob),
                last_used: tick,
            },
        ) {
            cache.bytes = cache.bytes.saturating_sub(old.blob.len());
        }
        cache.bytes += len;
        cache.lru.push_back((tick, path.to_string()));
        let mut evicted = 0u64;
        while cache.bytes > cache.capacity {
            let Some((queued_tick, victim)) = cache.lru.pop_front() else {
                break;
            };
            // Lazy LRU: a queue entry superseded by a later touch is stale.
            let fresh = matches!(cache.map.get(&victim), Some(e) if e.last_used == queued_tick);
            if !fresh {
                continue;
            }
            if let Some(e) = cache.map.remove(&victim) {
                cache.bytes = cache.bytes.saturating_sub(e.blob.len());
                evicted += 1;
            }
        }
        drop(cache);
        if evicted > 0 {
            self.cache.evictions.fetch_add(evicted, Ordering::AcqRel);
        }
    }

    fn cache_invalidate(&self, path: &str) {
        let mut cache = self.cache.inner.lock();
        if cache.capacity == 0 {
            return;
        }
        if let Some(e) = cache.map.remove(path) {
            cache.bytes = cache.bytes.saturating_sub(e.blob.len());
        }
    }

    /// Lists paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.read();
        let mut paths: Vec<String> = inner
            .blobs
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        paths.sort();
        paths
    }

    /// Current aggregate statistics. O(1) in blob count: `stored_bytes` is
    /// a running total maintained by puts, not recomputed per scrape.
    pub fn stats(&self) -> BlobStats {
        let inner = self.inner.read();
        BlobStats {
            blobs: inner.blobs.len(),
            stored_bytes: inner.stored_bytes,
            read_ops: self.reads.ops.load(Ordering::Acquire) as usize,
            read_bytes: self.reads.bytes.load(Ordering::Acquire) as usize,
            put_ops: inner.put_ops,
            put_bytes: inner.put_bytes,
            injected_get_failures: self.faults.injected_get_failures.load(Ordering::Acquire)
                as usize,
            injected_put_failures: self.faults.injected_put_failures.load(Ordering::Acquire)
                as usize,
        }
    }

    /// Bytes stored per node, for load-balance inspection.
    pub fn node_bytes(&self) -> Vec<usize> {
        self.inner.read().node_bytes.clone()
    }

    /// Resets the read counters (storage contents are kept). Used between
    /// experiment phases that reuse one store.
    pub fn reset_read_counters(&self) {
        self.reads.ops.store(0, Ordering::Release);
        self.reads.bytes.store(0, Ordering::Release);
    }
}

impl recd_obs::Collector for TectonicSim {
    fn collect(&self, out: &mut recd_obs::MetricsBuf) {
        let stats = self.stats();
        out.counter(
            "recd_storage_get_ops_total",
            "Blob-store get operations served (read IOPS).",
            &[],
            stats.read_ops as f64,
        );
        out.counter(
            "recd_storage_get_bytes_total",
            "Bytes served by blob-store get operations.",
            &[],
            stats.read_bytes as f64,
        );
        out.counter(
            "recd_storage_put_ops_total",
            "Blob-store put operations accepted (write IOPS).",
            &[],
            stats.put_ops as f64,
        );
        out.counter(
            "recd_storage_put_bytes_total",
            "Bytes accepted by blob-store put operations.",
            &[],
            stats.put_bytes as f64,
        );
        out.gauge(
            "recd_storage_blobs",
            "Blobs currently stored.",
            &[],
            stats.blobs as f64,
        );
        out.gauge(
            "recd_storage_stored_bytes",
            "Total bytes currently stored across all nodes.",
            &[],
            stats.stored_bytes as f64,
        );
        out.gauge(
            "recd_storage_nodes",
            "Storage nodes backing the simulated blob store.",
            &[],
            self.node_count() as f64,
        );
        out.counter(
            "recd_storage_injected_failures_total",
            "Operations failed by chaos-injected transient faults.",
            &[("op", "get")],
            stats.injected_get_failures as f64,
        );
        out.counter(
            "recd_storage_injected_failures_total",
            "Operations failed by chaos-injected transient faults.",
            &[("op", "put")],
            stats.injected_put_failures as f64,
        );
        if self.cache_enabled() {
            let cache = self.cache_stats();
            out.counter(
                "recd_storage_cache_hits_total",
                "Blob-store gets served from the cache tier.",
                &[],
                cache.hits as f64,
            );
            out.counter(
                "recd_storage_cache_misses_total",
                "Blob-store gets that fell through to a storage node.",
                &[],
                cache.misses as f64,
            );
            out.counter(
                "recd_storage_cache_evictions_total",
                "Cache entries evicted to stay within the byte budget.",
                &[],
                cache.evictions as f64,
            );
            out.gauge(
                "recd_storage_cache_bytes",
                "Bytes currently held by the blob cache tier.",
                &[],
                cache.bytes as f64,
            );
            out.gauge(
                "recd_storage_cache_capacity_bytes",
                "Configured byte budget of the blob cache tier.",
                &[],
                cache.capacity_bytes as f64,
            );
        }
        if self.queueing_enabled() {
            for (node, ns) in self.node_stats().iter().enumerate() {
                let node = node.to_string();
                let labels = [("node", node.as_str())];
                out.gauge(
                    "recd_storage_node_depth",
                    "Ops currently queued or in service on this storage node.",
                    &labels,
                    ns.depth as f64,
                );
                out.counter(
                    "recd_storage_node_ops_total",
                    "Ops charged to this storage node's queue.",
                    &labels,
                    ns.ops as f64,
                );
                out.counter(
                    "recd_storage_node_bytes_total",
                    "Bytes moved through this storage node's queue.",
                    &labels,
                    ns.bytes as f64,
                );
                out.counter(
                    "recd_storage_node_busy_seconds_total",
                    "Seconds this storage node spent servicing ops.",
                    &labels,
                    ns.busy_seconds,
                );
                out.counter(
                    "recd_storage_node_wait_seconds_total",
                    "Seconds ops spent waiting in this storage node's queue.",
                    &labels,
                    ns.wait_seconds,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_list_and_stats() {
        let store = TectonicSim::new(4);
        store.put("table/p0/f0", vec![1, 2, 3]);
        store.put("table/p0/f1", vec![4; 100]);
        store.put("other/x", vec![9]);

        assert_eq!(store.node_count(), 4);
        assert_eq!(store.list("table/p0/"), vec!["table/p0/f0", "table/p0/f1"]);
        assert_eq!(store.get("table/p0/f0").unwrap().as_slice(), &[1, 2, 3]);
        assert!(matches!(
            store.get("missing"),
            Err(StorageError::NotFound { .. })
        ));

        let stats = store.stats();
        assert_eq!(stats.blobs, 3);
        assert_eq!(stats.stored_bytes, 104);
        assert_eq!(stats.read_ops, 1);
        assert_eq!(stats.read_bytes, 3);
        assert_eq!(stats.put_ops, 3);
        assert_eq!(stats.put_bytes, 104);
        assert_eq!(store.node_bytes().iter().sum::<usize>(), 104);
    }

    #[test]
    fn overwrite_replaces_bytes_and_counters_reset() {
        let store = TectonicSim::new(2);
        store.put("a", vec![0; 50]);
        store.put("a", vec![0; 10]);
        assert_eq!(store.stats().stored_bytes, 10);
        store.get("a").unwrap();
        store.reset_read_counters();
        assert_eq!(store.stats().read_ops, 0);
        assert_eq!(store.stats().read_bytes, 0);
    }

    #[test]
    fn running_stored_bytes_tracks_many_overwrites() {
        // stats() must stay exact without re-summing blobs per call.
        let store = TectonicSim::new(3);
        for round in 1..=5usize {
            for blob in 0..10usize {
                store.put(&format!("b{blob}"), vec![0; round * (blob + 1)]);
            }
        }
        let expected: usize = (0..10).map(|blob| 5 * (blob + 1)).sum();
        assert_eq!(store.stats().stored_bytes, expected);
        assert_eq!(store.node_bytes().iter().sum::<usize>(), expected);
    }

    #[test]
    fn clones_share_state_across_threads() {
        let store = TectonicSim::new(2);
        let clone = store.clone();
        let handle = std::thread::spawn(move || {
            clone.put("from-thread", vec![7; 7]);
        });
        handle.join().unwrap();
        assert_eq!(store.get("from-thread").unwrap().len(), 7);
        // Ops performed through the clone are visible on the original.
        let stats = store.stats();
        assert_eq!(stats.put_ops, 1);
        assert_eq!(stats.put_bytes, 7);
        assert_eq!(stats.read_ops, 1);
    }

    #[test]
    fn collector_exports_get_put_counters() {
        use recd_obs::{sample_value, Collector, MetricsBuf};
        let store = TectonicSim::new(2);
        store.put("a", vec![0; 10]);
        store.get("a").unwrap();
        let mut buf = MetricsBuf::new();
        store.collect(&mut buf);
        let families = buf.into_families();
        assert_eq!(
            sample_value(&families, "recd_storage_put_bytes_total", &[]),
            Some(10.0)
        );
        assert_eq!(
            sample_value(&families, "recd_storage_get_ops_total", &[]),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&families, "recd_storage_nodes", &[]),
            Some(2.0)
        );
        // Cache and node-queue families stay out of the scrape while the
        // tiers are disabled.
        assert_eq!(
            sample_value(&families, "recd_storage_cache_hits_total", &[]),
            None
        );
        assert_eq!(
            sample_value(&families, "recd_storage_node_ops_total", &[("node", "0")]),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        TectonicSim::new(0);
    }

    #[test]
    fn injected_get_faults_fire_exactly_n_times_and_are_shared() {
        let store = TectonicSim::new(2);
        store.put("a", vec![1, 2]);
        let clone = store.clone();
        clone.fail_next_gets(2);
        assert!(matches!(
            store.get("a"),
            Err(StorageError::Injected { op: "get", .. })
        ));
        assert!(store.get("a").unwrap_err().is_transient());
        // Budget exhausted: the blob is intact and reads succeed again.
        assert_eq!(store.get("a").unwrap().as_slice(), &[1, 2]);
        assert_eq!(store.injected_failures(), (2, 0));
        assert_eq!(store.stats().injected_get_failures, 2);
    }

    #[test]
    fn injected_put_faults_spare_the_infallible_path() {
        let store = TectonicSim::new(1);
        store.fail_next_puts(1);
        // The infallible path never consumes a fault budget.
        store.put("safe", vec![9]);
        let blob = Arc::new(vec![1u8]);
        assert!(matches!(
            store.try_put_blob("blocked", &blob),
            Err(StorageError::Injected { op: "put", .. })
        ));
        assert!(store.get("blocked").is_err());
        // Retry succeeds once the budget is spent.
        store.try_put_blob("blocked", &blob).unwrap();
        assert_eq!(store.get("blocked").unwrap().as_slice(), &[1]);
        assert_eq!(store.injected_failures(), (0, 1));
    }

    #[test]
    fn try_put_blob_faults_before_touching_the_blob_and_never_copies() {
        let store = TectonicSim::new(1);
        let blob = Arc::new(vec![5u8; 64]);
        store.fail_next_puts(1);
        assert!(store.try_put_blob("p", &blob).is_err());
        assert!(store.get("p").is_err());
        store.try_put_blob("p", &blob).unwrap();
        // The store holds the same allocation, not a copy.
        let stored = store.get("p").unwrap();
        assert!(Arc::ptr_eq(&stored, &blob));
    }

    #[test]
    fn collector_exports_injected_failure_counters() {
        use recd_obs::{sample_value, Collector, MetricsBuf};
        let store = TectonicSim::new(1);
        store.put("a", vec![1]);
        store.fail_next_gets(1);
        let _ = store.get("a");
        let mut buf = MetricsBuf::new();
        store.collect(&mut buf);
        let families = buf.into_families();
        assert_eq!(
            sample_value(
                &families,
                "recd_storage_injected_failures_total",
                &[("op", "get")]
            ),
            Some(1.0)
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_storage_injected_failures_total",
                &[("op", "put")]
            ),
            Some(0.0)
        );
    }

    #[test]
    fn get_latency_is_shared_across_clones_and_adjustable() {
        let store = TectonicSim::new(1);
        store.set_get_latency(Duration::from_millis(3));
        let clone = store.clone();
        assert_eq!(clone.get_latency(), Duration::from_millis(3));
        // Throttle changes propagate to clones already handed out.
        clone.set_get_latency(Duration::ZERO);
        assert_eq!(store.get_latency(), Duration::ZERO);
        store.put("a", vec![1]);
        let start = std::time::Instant::now();
        store.get("a").unwrap();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn concurrent_gets_overlap_wall_clock() {
        // The reader-path bugfix: gets take the read lock, so concurrent
        // fetchers overlap their simulated RPC waits instead of serializing.
        let store = TectonicSim::new(1);
        store.set_get_latency(Duration::from_millis(25));
        store.put("a", vec![1; 128]);
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                std::thread::spawn(move || store.get("a").unwrap().len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 128);
        }
        let elapsed = start.elapsed();
        // Serialized waits would take >= 100ms; overlapping ones take ~25ms.
        assert!(
            elapsed < Duration::from_millis(85),
            "concurrent gets serialized: {elapsed:?}"
        );
        assert_eq!(store.stats().read_ops, 4);
    }

    #[test]
    fn queued_gets_on_one_node_serialize_and_spread_nodes_overlap() {
        // Four concurrent fetches of blobs on one node queue behind each
        // other; the same fetches spread over four nodes overlap.
        let config = NodeConfig::new(50.0, 1e9); // 20ms per op
        let elapsed_for = |nodes: usize| {
            let store = TectonicSim::new(nodes)
                .with_placement(PlacementPolicy::RoundRobin)
                .with_node_config(config);
            for i in 0..4 {
                store.put(&format!("b{i}"), vec![0; 8]);
            }
            let start = Instant::now();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let store = store.clone();
                    std::thread::spawn(move || store.get(&format!("b{i}")).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            (start.elapsed(), store)
        };
        let (hot, hot_store) = elapsed_for(1);
        let (spread, spread_store) = elapsed_for(4);
        // One node: the 4 concurrent gets queue behind each other, so the
        // last one finishes no earlier than 4 service times after the puts
        // drained. Spread over 4 nodes they overlap (~1 service time).
        assert!(
            hot >= Duration::from_millis(70),
            "hot node did not queue: {hot:?}"
        );
        assert!(
            spread < hot,
            "spreading nodes did not help: {spread:?} vs {hot:?}"
        );
        let hot_stats = hot_store.node_stats();
        assert_eq!(hot_stats[0].ops, 8);
        assert!(hot_stats[0].wait_seconds > 0.0);
        let spread_ops: u64 = spread_store.node_stats().iter().map(|n| n.ops).sum();
        assert_eq!(spread_ops, 8);
    }

    /// A frozen clock: queue time never advances, so every charged op's
    /// start/wait accounting is exact.
    #[derive(Debug)]
    struct FrozenClock;

    impl ScaleClock for FrozenClock {
        fn wait_tick(&self) -> bool {
            false
        }
        fn shutdown(&self) {}
        fn now_seconds(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn queue_wait_accounting_is_exact_under_a_frozen_clock() {
        // service = 1/1000 + 1000/1e6 = 2ms per op, every op on node 0.
        let store = TectonicSim::new(1)
            .with_node_config(NodeConfig::new(1000.0, 1e6))
            .with_queue_clock(Arc::new(FrozenClock));
        store.put("a", vec![0; 1000]); // op 1: start 0ms, finish 2ms
        store.get("a").unwrap(); // op 2: start 2ms (waits 2ms), finish 4ms
        store.get("a").unwrap(); // op 3: start 4ms (waits 4ms), finish 6ms
        let stats = &store.node_stats()[0];
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.bytes, 3000);
        assert!((stats.busy_seconds - 0.006).abs() < 1e-6, "{stats:?}");
        assert!((stats.wait_seconds - 0.006).abs() < 1e-6, "{stats:?}");
        assert_eq!(stats.depth, 0);
        assert!(store.mean_queue_wait() >= Duration::from_millis(1));
    }

    #[test]
    fn rate_cut_scales_service_time_and_restores() {
        let store = TectonicSim::new(1)
            .with_node_config(NodeConfig::new(1e5, 1e9))
            .with_queue_clock(Arc::new(FrozenClock));
        store.put("a", vec![0; 100]);
        let healthy = store.node_stats()[0].busy_seconds;
        store.set_rate_cut(10.0);
        assert_eq!(store.rate_cut(), 10.0);
        store.get("a").unwrap();
        let cut = store.node_stats()[0].busy_seconds - healthy;
        assert!(
            (cut - healthy * 10.0).abs() < healthy,
            "cut service {cut} vs healthy {healthy}"
        );
        store.set_rate_cut(1.0);
        assert_eq!(store.rate_cut(), 1.0);
    }

    #[test]
    fn cache_serves_hits_evicts_lru_and_invalidates_on_put() {
        let store = TectonicSim::new(2).with_cache(250);
        store.put("a", vec![1; 100]);
        store.put("b", vec![2; 100]);
        store.put("c", vec![3; 100]);

        store.get("a").unwrap(); // miss, cached {a}
        store.get("a").unwrap(); // hit
        store.get("b").unwrap(); // miss, cached {a,b}
        store.get("a").unwrap(); // hit (refreshes a's recency)
        store.get("c").unwrap(); // miss; b is LRU and must be evicted
        let stats = store.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, 200);
        assert!((stats.hit_ratio() - 0.4).abs() < 1e-9);

        store.get("b").unwrap(); // miss again: it was evicted
        assert_eq!(store.cache_stats().misses, 4);

        // Overwriting a cached path drops the stale entry; the next read
        // sees the new bytes (and is a miss).
        store.put("a", vec![9; 10]);
        assert_eq!(store.get("a").unwrap().as_slice(), &[9; 10]);
        assert_eq!(store.cache_stats().misses, 5);
    }

    #[test]
    fn cache_hits_skip_node_queue_charges() {
        let store = TectonicSim::new(1)
            .with_node_config(NodeConfig::new(1e5, 1e9))
            .with_cache(1 << 20)
            .with_queue_clock(Arc::new(FrozenClock));
        store.put("a", vec![0; 100]);
        store.get("a").unwrap(); // miss: charged to node 0
        let charged = store.node_stats()[0].ops;
        store.get("a").unwrap(); // hit: no node charge
        store.get("a").unwrap(); // hit
        assert_eq!(store.node_stats()[0].ops, charged);
        assert_eq!(store.cache_stats().hits, 2);
    }

    #[test]
    fn get_into_recycles_the_buffer_and_matches_get() {
        let store = TectonicSim::new(2).with_cache(1 << 10);
        store.put("a", vec![7; 300]);
        store.put("b", vec![8; 5]);
        let mut buf = Vec::new();
        assert_eq!(store.get_into("a", &mut buf).unwrap(), 300);
        assert_eq!(buf, store.get("a").unwrap().as_slice());
        let capacity = buf.capacity();
        // A smaller blob reuses the same allocation.
        assert_eq!(store.get_into("b", &mut buf).unwrap(), 5);
        assert_eq!(buf, vec![8; 5]);
        assert_eq!(buf.capacity(), capacity);
        assert!(matches!(
            store.get_into("missing", &mut buf),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn placement_policies_spread_new_blobs() {
        let round_robin = TectonicSim::new(4).with_placement(PlacementPolicy::RoundRobin);
        for i in 0..8 {
            round_robin.put(&format!("rr/{i}"), vec![0; 10]);
        }
        assert_eq!(round_robin.node_bytes(), vec![20; 4]);

        let least = TectonicSim::new(4).with_placement(PlacementPolicy::LeastLoadedBytes);
        // Skewed blob sizes: least-loaded still keeps the spread tight.
        for i in 0..8 {
            least.put(&format!("ll/{i}"), vec![0; 10 + i]);
        }
        let bytes = least.node_bytes();
        let (min, max) = (*bytes.iter().min().unwrap(), *bytes.iter().max().unwrap());
        assert!(max - min <= 17, "least-loaded spread too wide: {bytes:?}");

        // Overwrites stay on the original node under every policy.
        let before = round_robin.node_bytes();
        round_robin.put("rr/0", vec![0; 10]);
        assert_eq!(round_robin.node_bytes(), before);
    }

    #[test]
    fn collector_exports_cache_and_node_queue_families_when_enabled() {
        use recd_obs::{sample_value, Collector, MetricsBuf};
        let store = TectonicSim::new(2)
            .with_node_config(NodeConfig::new(1e6, 1e9))
            .with_cache(1 << 20)
            .with_queue_clock(Arc::new(FrozenClock));
        store.put("a", vec![0; 10]);
        store.get("a").unwrap(); // miss
        store.get("a").unwrap(); // hit
        let mut buf = MetricsBuf::new();
        store.collect(&mut buf);
        let families = buf.into_families();
        assert_eq!(
            sample_value(&families, "recd_storage_cache_hits_total", &[]),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&families, "recd_storage_cache_misses_total", &[]),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&families, "recd_storage_cache_bytes", &[]),
            Some(10.0)
        );
        let node = (recd_codec::hash_bytes(b"a") % 2) as usize;
        let label = node.to_string();
        assert_eq!(
            sample_value(
                &families,
                "recd_storage_node_ops_total",
                &[("node", label.as_str())]
            ),
            Some(2.0) // the put + the miss; the hit skipped the queue
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_storage_node_depth",
                &[("node", label.as_str())]
            ),
            Some(0.0)
        );
    }
}
