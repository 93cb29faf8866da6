//! The tick clocks of the workspace's polling controller: the `recd-dpp`
//! scaling controller samples gauges on a [`ScaleClock`], so it is
//! deterministic under test via [`ManualClock`].

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A polling controller's notion of time. `wait_tick` blocks until the next
/// evaluation should run; `shutdown` releases any waiter permanently.
pub trait ScaleClock: Send + Sync {
    /// Blocks until the next tick. Returns `false` once the clock has been
    /// shut down (the controller then exits).
    fn wait_tick(&self) -> bool;

    /// Permanently wakes every waiter; subsequent `wait_tick` calls return
    /// `false` immediately.
    fn shutdown(&self);

    /// Seconds elapsed on this clock, used to timestamp samples and events.
    fn now_seconds(&self) -> f64;
}

/// The production clock: one tick per fixed wall-clock period.
#[derive(Debug)]
pub struct WallClock {
    period: Duration,
    started: Instant,
    stop: Mutex<bool>,
    cond: Condvar,
}

impl WallClock {
    /// Creates a clock ticking every `period`.
    pub fn new(period: Duration) -> Self {
        Self {
            period: period.max(Duration::from_millis(1)),
            started: Instant::now(),
            stop: Mutex::new(false),
            cond: Condvar::new(),
        }
    }
}

impl ScaleClock for WallClock {
    fn wait_tick(&self) -> bool {
        let deadline = Instant::now() + self.period;
        let mut stopped = self.stop.lock().expect("clock lock");
        loop {
            if *stopped {
                return false;
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return true;
            };
            let (guard, _) = self
                .cond
                .wait_timeout(stopped, remaining)
                .expect("clock lock");
            stopped = guard;
        }
    }

    fn shutdown(&self) {
        *self.stop.lock().expect("clock lock") = true;
        self.cond.notify_all();
    }

    fn now_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A test clock that never advances on its own. Each [`ManualClock::step`]
/// grants the controller exactly one evaluation and blocks until that
/// evaluation has finished, making polling decisions fully deterministic:
/// the test, not the scheduler, decides when gauges are sampled.
#[derive(Debug, Default)]
pub struct ManualClock {
    state: Mutex<ManualState>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct ManualState {
    granted: u64,
    consumed: u64,
    evaluated: u64,
    shutdown: bool,
}

impl ManualClock {
    /// Creates a paused clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants one tick and blocks until the controller has fully evaluated
    /// it. Returns `false` if the clock was shut down before the evaluation
    /// completed (e.g. the service finished).
    pub fn step(&self) -> bool {
        let mut state = self.state.lock().expect("manual clock lock");
        state.granted += 1;
        let target = state.granted;
        self.cond.notify_all();
        while state.evaluated < target && !state.shutdown {
            state = self.cond.wait(state).expect("manual clock lock");
        }
        state.evaluated >= target
    }

    /// Ticks evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.state.lock().expect("manual clock lock").evaluated
    }
}

impl ScaleClock for ManualClock {
    fn wait_tick(&self) -> bool {
        let mut state = self.state.lock().expect("manual clock lock");
        // Entering the wait means the work since the previous tick is done.
        state.evaluated = state.consumed;
        self.cond.notify_all();
        while state.granted == state.consumed && !state.shutdown {
            state = self.cond.wait(state).expect("manual clock lock");
        }
        if state.shutdown {
            return false;
        }
        state.consumed += 1;
        true
    }

    fn shutdown(&self) {
        let mut state = self.state.lock().expect("manual clock lock");
        state.shutdown = true;
        self.cond.notify_all();
    }

    fn now_seconds(&self) -> f64 {
        self.state.lock().expect("manual clock lock").consumed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn manual_clock_grants_exactly_one_evaluation_per_step() {
        let clock = Arc::new(ManualClock::new());
        let worker_clock = Arc::clone(&clock);
        let evaluated = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&evaluated);
        let controller = std::thread::spawn(move || {
            while worker_clock.wait_tick() {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(clock.step());
        assert_eq!(evaluated.load(Ordering::SeqCst), 1);
        assert!(clock.step());
        assert_eq!(evaluated.load(Ordering::SeqCst), 2);
        clock.shutdown();
        controller.join().unwrap();
        assert!(!clock.step(), "steps after shutdown must not hang");
    }

    #[test]
    fn wall_clock_ticks_until_shutdown() {
        let clock = WallClock::new(Duration::from_millis(1));
        assert!(clock.wait_tick());
        clock.shutdown();
        assert!(!clock.wait_tick());
        assert!(clock.now_seconds() >= 0.0);
    }
}
