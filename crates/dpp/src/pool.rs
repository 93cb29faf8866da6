//! A swap-buffer arena for batch shells: finished stages recycle their
//! buffers back instead of dropping them, so steady-state batches flow
//! fill → router → compute → sink without allocating.
//!
//! The pool's contract is simple: [`BatchPool::acquire_for`] pops a
//! reclaimed shell when one is available (a *hit*) and falls back to the
//! caller's constructor otherwise (a *miss*); [`BatchPool::recycle_for`]
//! reclaims a shell and shelves it unless the pool is full (a *discard*,
//! which bounds pool memory at teardown spikes). At steady state every
//! in-flight buffer came off a shelf, so the hit rate converges toward 1.0
//! and misses measure exactly the warmup population.
//!
//! Two refinements keep reuse effective under many workers:
//!
//! * **per-worker shelves** ([`BatchPool::with_shelves`]): each worker
//!   recycles to and acquires from its own shelf first, so the hot path is
//!   an uncontended lock and a buffer tends to bounce between the same CPU's
//!   caches. An empty home shelf *steals* from siblings before falling back
//!   to allocation, so imbalanced traffic still reuses globally.
//! * **size classes** ([`Reclaim::size_class`]): shells are shelved tagged
//!   with the magnitude of the payload they last carried, and an acquire
//!   with a size hint prefers the smallest shell at or above the hint
//!   (best fit, then largest available). A tiny probe batch no longer
//!   claims — and reallocates inside — the shell a full-size fill warmed.

use recd_core::ConvertedBatch;
use recd_data::ColumnarBatch;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A shell that can be reclaimed into a reusable state when it returns to a
/// [`BatchPool`].
pub trait Reclaim {
    /// Resets the shell for reuse, keeping its buffer capacity.
    fn reclaim(&mut self);

    /// Magnitude of the payload this shell currently holds, sampled *before*
    /// [`Reclaim::reclaim`] when the shell is recycled. Acquires pass a hint
    /// in the same units and get the best-fitting shell. The default `0`
    /// opts a type out of size classing (every shell fits every hint).
    fn size_class(&self) -> usize {
        0
    }
}

impl Reclaim for ColumnarBatch {
    /// Clears all rows; column shape and buffer capacity survive, which is
    /// what the next fill or accumulate pass reuses.
    fn reclaim(&mut self) {
        self.clear();
    }

    /// Rows held at recycle time — a proxy for the row capacity the shell's
    /// buffers were grown to.
    fn size_class(&self) -> usize {
        self.len()
    }
}

impl Reclaim for ConvertedBatch {
    /// Intentionally keeps the previous contents: every conversion-into
    /// entry point overwrites all fields, and leaving the tensors warm is
    /// precisely what lets a refill reuse their buffers (matching feature
    /// keys short-circuit to flat buffer copies).
    fn reclaim(&mut self) {}

    /// Samples held at recycle time.
    fn size_class(&self) -> usize {
        self.batch_size
    }
}

/// A pooled blob read buffer: the `get_into` scratch fill workers decode
/// DWRF files from. Pool-owned (rather than per-`FileReadScratch`) so the
/// buffer survives worker retirement and respawn across dynamic scaling.
#[derive(Debug, Default)]
pub struct BlobScratch(pub Vec<u8>);

impl Reclaim for BlobScratch {
    /// Clears the bytes; the allocation is the whole point.
    fn reclaim(&mut self) {
        self.0.clear();
    }

    /// Bytes of capacity this buffer has grown to.
    fn size_class(&self) -> usize {
        self.0.capacity()
    }
}

/// Point-in-time counters of one pool, reported in
/// [`DppReport`](crate::DppReport) and [`DppSnapshot`](crate::DppSnapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Acquires served from the shelf (no allocation).
    pub hits: u64,
    /// Acquires that fell back to constructing a fresh shell.
    pub misses: u64,
    /// Shells returned to the shelf.
    pub recycled: u64,
    /// Shells dropped because the shelf was full.
    pub discarded: u64,
    /// Idle shells dropped by [`BatchPool::set_capacity`] when dynamic
    /// scaling reduced the in-flight population the pool needs to cover.
    pub trimmed: u64,
    /// Hits served by stealing from a sibling worker's shelf.
    #[serde(default)]
    pub steals: u64,
    /// Shelf capacity at snapshot time (shrinks on dynamic scale-down).
    pub capacity: usize,
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.discarded += other.discarded;
        self.trimmed += other.trimmed;
        self.steals += other.steals;
        self.capacity += other.capacity;
    }
}

impl PoolStats {
    /// Fraction of acquires served without allocation, in `[0, 1]`.
    /// Returns 0 when nothing was acquired.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, size-class-aware set of per-worker shelves of reusable batch
/// shells with hit/miss accounting.
#[derive(Debug)]
pub struct BatchPool<T> {
    shelves: Vec<Mutex<Vec<(usize, T)>>>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    trimmed: AtomicU64,
    steals: AtomicU64,
}

impl<T: Reclaim> BatchPool<T> {
    /// Creates a single-shelf pool shelving at most `capacity` idle shells.
    pub fn new(capacity: usize) -> Self {
        Self::with_shelves(capacity, 1)
    }

    /// Creates a pool with `shelves` per-worker shelves sharing a total
    /// budget of `capacity` idle shells (split evenly, rounded up).
    pub fn with_shelves(capacity: usize, shelves: usize) -> Self {
        let shelves = shelves.max(1);
        Self {
            shelves: (0..shelves)
                .map(|_| Mutex::new(Vec::with_capacity((capacity / shelves).min(64))))
                .collect(),
            capacity: AtomicUsize::new(capacity.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            trimmed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Current total shelf capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Idle-shell budget of one shelf under the current total capacity.
    fn per_shelf_capacity(&self) -> usize {
        self.capacity().div_ceil(self.shelves.len()).max(1)
    }

    /// Resizes the total shelf capacity, dropping idle shells that no longer
    /// fit. Called on every dynamic worker resize: a scale-down shrinks the
    /// shelves so memory nothing will ever reuse isn't pinned, and a later
    /// scale-up restores them so the larger in-flight population pools again
    /// instead of allocating per batch.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Release);
        let per_shelf = self.per_shelf_capacity();
        let mut dropped = Vec::new();
        for shelf in &self.shelves {
            let mut shelf = shelf.lock().expect("pool lock");
            while shelf.len() > per_shelf {
                // Collect under the lock, drop outside it: shells can own
                // large buffers and their destructors shouldn't stall
                // concurrent acquires.
                dropped.push(shelf.pop().expect("len checked"));
            }
        }
        self.trimmed
            .fetch_add(dropped.len() as u64, Ordering::Relaxed);
    }

    /// Pops the best-fitting shell off one shelf: the smallest size class at
    /// or above `hint`, else the largest shelved (its buffers are the
    /// warmest available).
    fn pop_best(shelf: &mut Vec<(usize, T)>, hint: usize) -> Option<T> {
        if shelf.is_empty() {
            return None;
        }
        let mut best: Option<(usize, usize)> = None; // (index, class)
        let mut largest = (0, 0usize); // (index, class)
        for (index, (class, _)) in shelf.iter().enumerate() {
            if *class >= largest.1 {
                largest = (index, *class);
            }
            if *class >= hint && best.is_none_or(|(_, c)| *class < c) {
                best = Some((index, *class));
            }
        }
        let index = best.unwrap_or(largest).0;
        Some(shelf.swap_remove(index).1)
    }

    /// Takes a recycled shell for `worker` — its own shelf first, then
    /// stealing from siblings — or constructs a fresh one with `fresh`.
    /// `size_hint` is in [`Reclaim::size_class`] units; pass 0 to accept
    /// any shell.
    pub fn acquire_for(&self, worker: usize, size_hint: usize, fresh: impl FnOnce() -> T) -> T {
        let shelves = self.shelves.len();
        let home = worker % shelves;
        if let Some(shell) = Self::pop_best(
            &mut self.shelves[home].lock().expect("pool lock"),
            size_hint,
        ) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return shell;
        }
        for offset in 1..shelves {
            let victim = (home + offset) % shelves;
            if let Some(shell) = Self::pop_best(
                &mut self.shelves[victim].lock().expect("pool lock"),
                size_hint,
            ) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return shell;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        fresh()
    }

    /// Reclaims a shell onto `worker`'s shelf for the next acquire, or onto
    /// the next sibling with room when that shelf is full; drops it only when
    /// every shelf is full. Recycling is one-sided — the router and compute
    /// worker 0 both return to shelf 0 — so a shelf-local budget would drop
    /// shells the pool has room for, and the acquires they would have served
    /// would allocate.
    pub fn recycle_for(&self, worker: usize, mut shell: T) {
        let class = shell.size_class();
        shell.reclaim();
        let per_shelf = self.per_shelf_capacity();
        let shelves = self.shelves.len();
        for offset in 0..shelves {
            let mut shelf = self.shelves[(worker + offset) % shelves]
                .lock()
                .expect("pool lock");
            if shelf.len() < per_shelf {
                shelf.push((class, shell));
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a recycled shell off shelf 0, or constructs a fresh one.
    /// Single-shelf convenience over [`BatchPool::acquire_for`].
    pub fn acquire(&self, fresh: impl FnOnce() -> T) -> T {
        self.acquire_for(0, 0, fresh)
    }

    /// Reclaims a shell onto shelf 0. Single-shelf convenience over
    /// [`BatchPool::recycle_for`].
    pub fn recycle(&self, shell: T) {
        self.recycle_for(0, shell);
    }

    /// Number of idle shells currently shelved across all shelves.
    pub fn idle(&self) -> usize {
        self.shelves
            .iter()
            .map(|shelf| shelf.lock().expect("pool lock").len())
            .sum()
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            trimmed: self.trimmed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            capacity: self.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_recycle_then_hit() {
        let pool: BatchPool<ColumnarBatch> = BatchPool::new(4);
        let mut batch = pool.acquire(|| ColumnarBatch::new(1, 2));
        assert_eq!(pool.stats().misses, 1);
        batch.push_sample(
            &recd_data::Sample::builder(
                recd_data::SessionId::new(1),
                recd_data::RequestId::new(1),
                recd_data::Timestamp::from_millis(1),
            )
            .dense(vec![1.0])
            .sparse(vec![vec![1], vec![2, 3]])
            .build(),
        );
        pool.recycle(batch);
        assert_eq!(pool.idle(), 1);

        let recycled = pool.acquire(|| ColumnarBatch::new(1, 2));
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.recycled, 1);
        // Reclaimed: no rows, shape preserved.
        assert!(recycled.is_empty());
        assert_eq!(recycled.dense_cols(), 1);
        assert_eq!(recycled.sparse_cols(), 2);
        assert_eq!(stats.reuse_rate(), 0.5);
    }

    #[test]
    fn full_shelf_discards() {
        let pool: BatchPool<ColumnarBatch> = BatchPool::new(1);
        pool.recycle(ColumnarBatch::new(0, 0));
        pool.recycle(ColumnarBatch::new(0, 0));
        let stats = pool.stats();
        assert_eq!(stats.recycled, 1);
        assert_eq!(stats.discarded, 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn empty_pool_stats() {
        let stats = PoolStats::default();
        assert_eq!(stats.reuse_rate(), 0.0);
    }

    #[test]
    fn set_capacity_trims_idle_shells_and_caps_future_recycles() {
        let pool: BatchPool<ColumnarBatch> = BatchPool::new(4);
        for _ in 0..4 {
            pool.recycle(ColumnarBatch::new(0, 0));
        }
        assert_eq!(pool.idle(), 4);
        pool.set_capacity(2);
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().trimmed, 2);
        // The reduced capacity governs recycles from now on.
        pool.recycle(ColumnarBatch::new(0, 0));
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().discarded, 1);
        // A later scale-up restores the headroom: recycles shelve again.
        pool.set_capacity(4);
        assert_eq!(pool.capacity(), 4);
        pool.recycle(ColumnarBatch::new(0, 0));
        assert_eq!(pool.idle(), 3);
    }

    /// A blob scratch of n samples recycled at class = capacity bytes.
    fn blob(bytes: usize) -> BlobScratch {
        BlobScratch(Vec::with_capacity(bytes))
    }

    #[test]
    fn size_hint_prefers_best_fit_and_falls_back_to_largest() {
        let pool: BatchPool<BlobScratch> = BatchPool::new(8);
        pool.recycle(blob(64));
        pool.recycle(blob(4096));
        pool.recycle(blob(512));

        // Best fit: the 512-byte shell is the smallest ≥ 256.
        let fit = pool.acquire_for(0, 256, || blob(0));
        assert_eq!(fit.0.capacity(), 512);
        // Nothing ≥ 1MiB shelved: take the largest (4096) over the tiny one.
        let largest = pool.acquire_for(0, 1 << 20, || blob(0));
        assert_eq!(largest.0.capacity(), 4096);
        let stats = pool.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn per_worker_shelves_are_home_first_then_steal() {
        let pool: BatchPool<BlobScratch> = BatchPool::with_shelves(8, 2);
        // Worker 0 warms its shelf; worker 1's shelf stays empty.
        pool.recycle_for(0, blob(1024));
        pool.recycle_for(0, blob(2048));

        // Worker 1 finds its home shelf empty and steals from worker 0.
        let stolen = pool.acquire_for(1, 0, || blob(0));
        assert!(stolen.0.capacity() >= 1024);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.steals, 1);

        // Worker 0 still hits its own shelf, no steal.
        let home = pool.acquire_for(0, 0, || blob(0));
        assert!(home.0.capacity() >= 1024);
        let stats = pool.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.steals, 1);

        // Both shelves drained: next acquire allocates.
        let fresh = pool.acquire_for(1, 0, || blob(0));
        assert_eq!(fresh.0.capacity(), 0);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn a_full_shelf_spills_to_its_sibling_and_only_a_full_pool_discards() {
        let pool: BatchPool<BlobScratch> = BatchPool::with_shelves(4, 2);
        // Per-shelf budget is ceil(4/2) = 2: worker 0's third and fourth
        // recycles land on worker 1's shelf, which the global budget has room
        // for; only the fifth, with every shelf full, is dropped.
        for _ in 0..5 {
            pool.recycle_for(0, blob(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.recycled, 4);
        assert_eq!(stats.discarded, 1);
        assert_eq!(pool.idle(), 4);
        // Worker 1 is served from its own shelf, no steal.
        pool.acquire_for(1, 0, || blob(0));
        pool.acquire_for(1, 0, || blob(0));
        assert_eq!(pool.stats().steals, 0);
    }
}
