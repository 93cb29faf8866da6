//! Elastic worker-pool mechanism: the bookkeeping one pool needs so its
//! population can change while the service runs. The sizing *policy* — when
//! to grow or shrink, and by how much — lives in [`crate::control`]; nothing
//! here decides anything.
//!
//! * `PoolGovernor` counts live workers and pending retirements and owns
//!   every spawned thread's join handle. Retirement is cooperative — workers
//!   poll a retire counter between (and after) work items, so a scale-down
//!   never preempts an in-flight decode or conversion, and because routing
//!   is single-threaded and order-restored, **resizing never changes the
//!   emitted batches**, only the wall-clock it takes to emit them.
//! * `PoolControls` is what the controller holds per pool: the governor,
//!   the `[min, max]` bounds, a probe of the queue feeding the pool, and a
//!   spawner.
//! * [`ScaleEvent`] records one resize for reports.
//!
//! Time is abstracted behind [`ScaleClock`] so the controller is fully
//! deterministic under test: the production [`WallClock`] ticks on a period,
//! while [`ManualClock::step`] grants exactly one evaluation and returns
//! only after the controller finished it. The clocks themselves live in
//! `recd-obs` (re-exported here for path stability) because the metrics
//! aggregator polls on the very same abstraction.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

pub use recd_obs::{ManualClock, ScaleClock, WallClock};

/// One recorded pool resize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Clock seconds when the decision was made.
    pub at_seconds: f64,
    /// `"fill"` or `"compute"`.
    pub pool: String,
    /// Worker count before the event.
    pub from: usize,
    /// Worker count the event moves toward.
    pub to: usize,
    /// The queue depth that triggered the decision.
    pub queue_depth: usize,
}

impl ScaleEvent {
    /// Whether this event grew the pool.
    pub fn is_grow(&self) -> bool {
        self.to > self.from
    }
}

/// Shared bookkeeping of one elastic worker pool: the live count, pending
/// cooperative retirements, and every spawned thread's join handle.
#[derive(Debug, Default)]
pub(crate) struct PoolGovernor {
    /// Live workers in the high half, pending retirements in the low half.
    /// One word, so a claimed retirement leaves both counts in one step:
    /// were they two atomics, `target()` could see the claim before the
    /// worker stopped counting as live, read a pool one larger than it is,
    /// and let the controller retire it through its floor.
    counts: AtomicU64,
    spawned_total: AtomicUsize,
    peak_live: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// One live worker in [`PoolGovernor::counts`]; pending retirements count
/// in units of 1 below it.
const LIVE: u64 = 1 << 32;

impl PoolGovernor {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `(live, retiring)` as of one instant.
    fn counts(&self) -> (usize, usize) {
        let counts = self.counts.load(Ordering::Acquire);
        ((counts / LIVE) as usize, (counts % LIVE) as usize)
    }

    /// Registers a newly spawned worker.
    pub(crate) fn adopt(&self, handle: JoinHandle<()>) {
        let live = self.counts.fetch_add(LIVE, Ordering::AcqRel) / LIVE + 1;
        self.peak_live.fetch_max(live as usize, Ordering::AcqRel);
        self.handles.lock().expect("governor lock").push(handle);
    }

    /// Reserves the next worker id (used for thread names).
    pub(crate) fn next_worker_id(&self) -> usize {
        self.spawned_total.fetch_add(1, Ordering::AcqRel)
    }

    /// Currently live workers.
    pub(crate) fn live(&self) -> usize {
        self.counts().0
    }

    /// High-water mark of live workers.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live.load(Ordering::Acquire)
    }

    /// Live workers minus pending retirements — the count the pool is
    /// converging toward.
    pub(crate) fn target(&self) -> usize {
        let (live, retiring) = self.counts();
        live.saturating_sub(retiring)
    }

    /// Asks one worker to retire at its next poll.
    pub(crate) fn request_retire(&self) {
        self.counts.fetch_add(1, Ordering::AcqRel);
    }

    /// Called by workers between items: claims a pending retirement, if any.
    /// A `true` return means "this worker must exit now".
    pub(crate) fn try_retire(&self) -> bool {
        self.counts
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |counts| {
                (counts % LIVE != 0).then(|| counts - LIVE - 1)
            })
            .is_ok()
    }

    /// Called by workers exiting for any non-retirement reason (end of
    /// stream) so the live gauge stays truthful during drain.
    pub(crate) fn note_exit(&self) {
        self.counts.fetch_sub(LIVE, Ordering::AcqRel);
    }

    /// Takes every join handle accumulated so far (initial and dynamically
    /// spawned workers alike).
    pub(crate) fn take_handles(&self) -> Vec<JoinHandle<()>> {
        std::mem::take(&mut *self.handles.lock().expect("governor lock"))
    }
}

/// Everything the controller thread needs to steer one pool.
pub(crate) struct PoolControls {
    pub(crate) name: &'static str,
    pub(crate) governor: Arc<PoolGovernor>,
    pub(crate) min: usize,
    pub(crate) max: usize,
    /// Reads the depth of the queue feeding this pool.
    pub(crate) queue_probe: Box<dyn Fn() -> usize + Send>,
    /// Capacity of that queue (the base of its fill fraction).
    pub(crate) queue_capacity: usize,
    /// Spawns one more worker into the pool.
    pub(crate) spawn: Box<dyn Fn() -> JoinHandle<()> + Send>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A claimed retirement must leave `retiring` and `live` in one step.
    /// If `target()` can observe the claim before the worker stops counting
    /// as live, a controller that samples in that window sees a pool one
    /// larger than it is and retires it through its floor. Deliberately
    /// adversarial: the "controller" samples as fast as it can while workers
    /// claim retirements.
    #[test]
    fn retirements_never_take_the_pool_below_the_floor() {
        const FLOOR: usize = 1;
        for _ in 0..200 {
            let governor = Arc::new(PoolGovernor::new());
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let governor = Arc::clone(&governor);
                    std::thread::spawn(move || {
                        while !governor.try_retire() {
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            for _ in 0..4 {
                governor.adopt(std::thread::spawn(|| {}));
            }
            // Retire down to the floor, one request per observed surplus.
            while governor.live() > FLOOR {
                if governor.target() > FLOOR {
                    governor.request_retire();
                }
            }
            // Settle: every request issued so far gets claimed.
            while governor.target() != governor.live() {
                std::thread::yield_now();
            }
            assert_eq!(governor.live(), FLOOR, "pool retired through its floor");
            // Release the one worker still polling.
            governor.request_retire();
            for worker in workers {
                worker.join().unwrap();
            }
            for handle in governor.take_handles() {
                handle.join().unwrap();
            }
        }
    }

    #[test]
    fn governor_retirement_bookkeeping() {
        let governor = PoolGovernor::new();
        governor.adopt(std::thread::spawn(|| {}));
        governor.adopt(std::thread::spawn(|| {}));
        assert_eq!(governor.live(), 2);
        assert_eq!(governor.peak_live(), 2);
        assert!(!governor.try_retire(), "no retirement requested yet");
        governor.request_retire();
        assert_eq!(governor.target(), 1);
        assert!(governor.try_retire());
        assert!(!governor.try_retire(), "request must be claimed once");
        assert_eq!(governor.live(), 1);
        for handle in governor.take_handles() {
            handle.join().unwrap();
        }
    }
}
