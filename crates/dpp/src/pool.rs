//! A swap-buffer arena for batch shells: finished stages recycle their
//! buffers back instead of dropping them, so steady-state batches flow
//! fill → router → compute → sink without allocating.
//!
//! The pool's contract is simple: [`BatchPool::acquire`] pops a reclaimed
//! shell when one is available (a *hit*) and falls back to the caller's
//! constructor otherwise (a *miss*); [`BatchPool::recycle`] reclaims a shell
//! and shelves it unless the shelf is full (a *discard*, which bounds pool
//! memory at teardown spikes). At steady state every in-flight buffer came
//! off the shelf, so the hit rate converges toward 1.0 and misses measure
//! exactly the warmup population.
//!
//! Shells are shelved tagged with a **size class** ([`Reclaim::size_class`]),
//! the magnitude of the payload they last carried, and an acquire with a
//! size hint prefers the smallest shell at or above the hint (best fit, then
//! largest available). A tiny probe batch no longer claims — and reallocates
//! inside — the shell a full-size fill warmed.

use crate::service::Run;
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
    /// what the next fill reuses.
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

impl Reclaim for Vec<Run> {
    /// Empties the list; its files were released run by run before it came
    /// back, so only the allocation returns.
    fn reclaim(&mut self) {
        self.clear();
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
/// [`DppReport`](crate::DppReport).
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

/// A bounded, size-class-aware shelf of reusable batch shells with hit/miss
/// accounting.
#[derive(Debug)]
pub struct BatchPool<T> {
    shelf: Mutex<Vec<(usize, T)>>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    trimmed: AtomicU64,
}

impl<T: Reclaim> BatchPool<T> {
    /// Creates a pool shelving at most `capacity` idle shells.
    pub fn new(capacity: usize) -> Self {
        Self {
            shelf: Mutex::new(Vec::with_capacity(capacity.min(64))),
            capacity: AtomicUsize::new(capacity.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            trimmed: AtomicU64::new(0),
        }
    }

    /// Current shelf capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Resizes the shelf capacity, dropping idle shells that no longer fit.
    /// Called on every dynamic worker resize: a scale-down shrinks the shelf
    /// so memory nothing will ever reuse isn't pinned, and a later scale-up
    /// restores it so the larger in-flight population pools again instead
    /// of allocating per batch.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Release);
        // Split off under the lock, drop outside it: shells can own large
        // buffers and their destructors shouldn't stall concurrent acquires.
        let dropped = {
            let mut shelf = self.shelf.lock().expect("pool lock");
            let keep = shelf.len().min(capacity);
            shelf.split_off(keep)
        };
        self.trimmed
            .fetch_add(dropped.len() as u64, Ordering::Relaxed);
    }

    /// Takes the best-fitting recycled shell — the smallest size class at or
    /// above `size_hint`, else the largest shelved (its buffers are the
    /// warmest available) — or constructs a fresh one with `fresh`.
    /// `size_hint` is in [`Reclaim::size_class`] units; pass 0 to accept
    /// any shell.
    pub fn acquire(&self, size_hint: usize, fresh: impl FnOnce() -> T) -> T {
        let shell = {
            let mut shelf = self.shelf.lock().expect("pool lock");
            let mut best: Option<(usize, usize)> = None; // (index, class)
            let mut largest: Option<(usize, usize)> = None; // (index, class)
            for (index, (class, _)) in shelf.iter().enumerate() {
                if largest.is_none_or(|(_, c)| *class >= c) {
                    largest = Some((index, *class));
                }
                if *class >= size_hint && best.is_none_or(|(_, c)| *class < c) {
                    best = Some((index, *class));
                }
            }
            best.or(largest)
                .map(|(index, _)| shelf.swap_remove(index).1)
        };
        match shell {
            Some(shell) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                shell
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                fresh()
            }
        }
    }

    /// Reclaims a shell onto the shelf for the next acquire, or drops it
    /// when the shelf is full.
    pub fn recycle(&self, mut shell: T) {
        let class = shell.size_class();
        shell.reclaim();
        let mut shelf = self.shelf.lock().expect("pool lock");
        if shelf.len() < self.capacity() {
            shelf.push((class, shell));
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of idle shells currently shelved.
    pub fn idle(&self) -> usize {
        self.shelf.lock().expect("pool lock").len()
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            trimmed: self.trimmed.load(Ordering::Relaxed),
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
        let mut batch = pool.acquire(0, || ColumnarBatch::new(1, 2));
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

        let recycled = pool.acquire(0, || ColumnarBatch::new(1, 2));
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
        let fit = pool.acquire(256, || blob(0));
        assert_eq!(fit.0.capacity(), 512);
        // Nothing ≥ 1MiB shelved: take the largest (4096) over the tiny one.
        let largest = pool.acquire(1 << 20, || blob(0));
        assert_eq!(largest.0.capacity(), 4096);
        let stats = pool.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);
    }
}
