//! The sizing policy: one cross-tier PID controller that owns the worker
//! pools and closes the loop from the trainers all the way back to the ETL
//! pump.
//!
//! Each tick on the shared [`ScaleClock`] it samples three tiers — the DPP
//! input/work queue fractions, the worst trainer lane's depth fraction, and
//! the ETL tail lag — and emits two coordinated actuations:
//!
//! 1. **grow/shrink targets** for the fill and compute pools, one PID per
//!    pool over `queue fraction − SETPOINT` with the fixed gains `KP` and
//!    `KI`, each kept inside the one `[min_workers, max_workers]` pair of
//!    [`CtrlConfig`]. The compute error also subtracts a lane
//!    penalty, so compute scales *down* while lanes are full — more compute
//!    workers cannot help when their output has nowhere to go;
//! 2. **a pump-rate signal**: [`PumpGate`] turns red while any trainer lane
//!    sits at or above `LANE_HIGH`, so the ETL service slows or pauses
//!    pumping instead of buffering at the DPP input queue (with a tail-lag
//!    escape hatch: a pump is never held back once the ETL has fallen more
//!    than `LAG_HIGH_MS` behind the tail).
//!
//! Submission backpressure is not an actuation: the bounded input channel
//! already blocks `submit_file` at capacity, and that saturation is the very
//! signal the fill PID grows on.
//!
//! Every quantity is exported as a `recd_ctrl_*` metric (setpoint, per-pool
//! error and integral, actuation counters, pump-gate state) via the
//! [`recd_obs::Collector`] implementation on [`CtrlShared`].
//!
//! The controller is *conservative by construction*: it only changes when
//! work happens (pump timing, worker population), never what the work is.
//! Routing stays single-threaded and order-restored, so batch composition —
//! and therefore every trainer-batch union — is byte-identical with the
//! controller on or off. `crates/dpp/tests/scaling.rs` pins
//! the pool behaviour on a stepped clock and the equivalence suite in
//! `crates/pipeline/tests/control.rs` pins the unions.
//!
//! The mechanism the policy drives lives here too:
//!
//! * `PoolGovernor` counts one pool's live workers and pending retirements
//!   and owns every spawned thread's join handle. Retirement is cooperative
//!   — workers poll between (and after) work items, so a scale-down never
//!   preempts an in-flight decode or conversion.
//! * `PoolControls` is what the controller holds per pool: the governor,
//!   the `[min, max]` bounds, a probe of the queue feeding the pool, and a
//!   spawner.
//! * [`ScaleEvent`] records one resize for reports.
//!
//! Time is abstracted behind [`ScaleClock`] so the controller is fully
//! deterministic under test: the production [`WallClock`](crate::WallClock)
//! ticks on a period, while [`ManualClock::step`](crate::ManualClock::step)
//! grants exactly one evaluation and returns only after the controller
//! finished it. The clocks live in `recd-obs`, beside the metrics they
//! time.

use recd_obs::{Collector, MetricsBuf, ScaleClock};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A PID control signal crosses this magnitude before the controller acts,
/// so the gains are expressed in "queue fractions per actuation".
const ACTUATION_THRESHOLD: f64 = 1.0;

/// The integral term is clamped to this magnitude so a long saturated phase
/// cannot wind up an arbitrarily large backlog of future actuations.
const INTEGRAL_CLAMP: f64 = 5.0;

/// Queue-fraction setpoint both pools steer toward: queues half full — busy
/// enough to batch well, slack enough to absorb jitter.
const SETPOINT: f64 = 0.5;

/// Proportional and integral gains (per tick) on the queue-fraction error:
/// a saturated queue (error 0.5) actuates immediately, a queue at 3/4
/// (error 0.25) actuates on the second sustained tick. There is no
/// derivative term.
const KP: f64 = 2.0;
const KI: f64 = 1.0;

/// Trainer-lane depth fraction at or above which lanes count as the
/// bottleneck: the pump gate turns red and the compute error term is
/// penalized toward shrink.
const LANE_HIGH: f64 = 0.75;

/// ETL tail lag (ms of log time) above which the pump gate is forced green
/// regardless of lane pressure, so backpressure can never starve the ETL
/// into unbounded lag.
const LAG_HIGH_MS: u64 = 300_000;

/// PID controller configuration: pool bounds and cadence.
#[derive(Clone)]
pub struct CtrlConfig {
    /// Lower bound of both the fill and the compute pool.
    pub min_workers: usize,
    /// Upper bound of both the fill and the compute pool.
    pub max_workers: usize,
    /// Wall-clock sampling period (ignored when a custom clock is
    /// installed).
    pub tick_period: Duration,
    /// Clock override for deterministic tests; `None` uses a
    /// [`WallClock`](crate::WallClock) ticking every `tick_period`.
    pub clock: Option<Arc<dyn ScaleClock>>,
    /// Reads the ETL tail lag in ms of log time — the third tier's signal,
    /// injected by whoever owns the `EtlService` (the continuous runner).
    /// `None` means no ETL tier is attached and the lag escape hatch never
    /// fires.
    pub tail_lag_probe: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl CtrlConfig {
    /// Creates a PID policy with the given worker bounds shared by both
    /// pools, sampling every 20ms.
    pub fn bounds(min_workers: usize, max_workers: usize) -> Self {
        let min_workers = min_workers.max(1);
        Self {
            min_workers,
            max_workers: max_workers.max(min_workers),
            tick_period: Duration::from_millis(20),
            clock: None,
            tail_lag_probe: None,
        }
    }

    /// Overrides the wall-clock sampling period.
    #[must_use]
    pub fn with_tick_period(mut self, period: Duration) -> Self {
        self.tick_period = period;
        self
    }

    /// Installs a custom clock (e.g. a
    /// [`ManualClock`](crate::ManualClock) in tests).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn ScaleClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Installs the ETL tail-lag probe (ms of log time behind the tail).
    #[must_use]
    pub fn with_tail_lag_probe(mut self, probe: Arc<dyn Fn() -> u64 + Send + Sync>) -> Self {
        self.tail_lag_probe = Some(probe);
        self
    }
}

impl std::fmt::Debug for CtrlConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtrlConfig")
            .field("min_workers", &self.min_workers)
            .field("max_workers", &self.max_workers)
            .field("tick_period", &self.tick_period)
            .field("custom_clock", &self.clock.is_some())
            .field("tail_lag_probe", &self.tail_lag_probe.is_some())
            .finish()
    }
}

/// Final-report accounting of one controller's run, carried in
/// [`DppReport`](crate::metrics::DppReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CtrlReport {
    /// Controller evaluations.
    pub ticks: u64,
    /// Total actuations: pool resizes plus pump-gate transitions.
    pub actuations: u64,
    /// Pool grow actuations.
    pub grows: u64,
    /// Pool shrink actuations.
    pub shrinks: u64,
    /// Pump-gate red transitions (pauses).
    pub pump_pauses: u64,
    /// Pump-gate green transitions (resumes).
    pub pump_resumes: u64,
}

impl std::ops::AddAssign for CtrlReport {
    fn add_assign(&mut self, other: Self) {
        self.ticks += other.ticks;
        self.actuations += other.actuations;
        self.grows += other.grows;
        self.shrinks += other.shrinks;
        self.pump_pauses += other.pump_pauses;
        self.pump_resumes += other.pump_resumes;
    }
}

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

/// The controller's shared live state: the pump gate flag the ETL side
/// polls, plus every exported `recd_ctrl_*` quantity. Lives behind an `Arc`
/// so the controller thread, the service handle, the runner's pump loop,
/// and the metrics registry all see one instance.
#[derive(Debug, Default)]
pub struct CtrlShared {
    fill_error_bits: AtomicU64,
    fill_integral_bits: AtomicU64,
    compute_error_bits: AtomicU64,
    compute_integral_bits: AtomicU64,
    ticks: AtomicU64,
    actuations: AtomicU64,
    grows: AtomicU64,
    shrinks: AtomicU64,
    pump_pauses: AtomicU64,
    pump_resumes: AtomicU64,
    pump_paused: AtomicBool,
}

fn store_f64(slot: &AtomicU64, value: f64) {
    slot.store(value.to_bits(), Ordering::Relaxed);
}

fn load_f64(slot: &AtomicU64) -> f64 {
    f64::from_bits(slot.load(Ordering::Relaxed))
}

impl CtrlShared {
    /// Whether the controller currently holds the ETL pump back.
    pub fn pump_paused(&self) -> bool {
        self.pump_paused.load(Ordering::Acquire)
    }

    /// Total actuations so far (pool resizes + pump-gate transitions).
    pub fn actuations(&self) -> u64 {
        self.actuations.load(Ordering::Relaxed)
    }

    /// Snapshot for the final report.
    pub fn report(&self) -> CtrlReport {
        CtrlReport {
            ticks: self.ticks.load(Ordering::Relaxed),
            actuations: self.actuations.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            pump_pauses: self.pump_pauses.load(Ordering::Relaxed),
            pump_resumes: self.pump_resumes.load(Ordering::Relaxed),
        }
    }
}

impl Collector for CtrlShared {
    fn collect(&self, out: &mut MetricsBuf) {
        out.gauge(
            "recd_ctrl_setpoint",
            "Queue-fraction setpoint the PID controller steers toward",
            &[],
            SETPOINT,
        );
        out.gauge(
            "recd_ctrl_error",
            "Latest PID error term per pool (queue fraction minus setpoint)",
            &[("pool", "fill")],
            load_f64(&self.fill_error_bits),
        );
        out.gauge(
            "recd_ctrl_error",
            "Latest PID error term per pool (queue fraction minus setpoint)",
            &[("pool", "compute")],
            load_f64(&self.compute_error_bits),
        );
        out.gauge(
            "recd_ctrl_integral",
            "Accumulated (clamped) PID integral per pool",
            &[("pool", "fill")],
            load_f64(&self.fill_integral_bits),
        );
        out.gauge(
            "recd_ctrl_integral",
            "Accumulated (clamped) PID integral per pool",
            &[("pool", "compute")],
            load_f64(&self.compute_integral_bits),
        );
        out.counter(
            "recd_ctrl_ticks_total",
            "Controller evaluations",
            &[],
            self.ticks.load(Ordering::Relaxed) as f64,
        );
        out.counter(
            "recd_ctrl_actuations_total",
            "Total controller actuations (pool resizes plus pump-gate transitions)",
            &[],
            self.actuations.load(Ordering::Relaxed) as f64,
        );
        out.counter(
            "recd_ctrl_pool_resizes_total",
            "Pool resize actuations by direction",
            &[("direction", "grow")],
            self.grows.load(Ordering::Relaxed) as f64,
        );
        out.counter(
            "recd_ctrl_pool_resizes_total",
            "Pool resize actuations by direction",
            &[("direction", "shrink")],
            self.shrinks.load(Ordering::Relaxed) as f64,
        );
        out.counter(
            "recd_ctrl_pump_pauses_total",
            "Pump-gate red transitions",
            &[],
            self.pump_pauses.load(Ordering::Relaxed) as f64,
        );
        out.gauge(
            "recd_ctrl_pump_paused",
            "1 while the controller holds the ETL pump back, else 0",
            &[],
            if self.pump_paused() { 1.0 } else { 0.0 },
        );
    }
}

/// The pump-rate actuation endpoint: the ETL pump loop polls
/// [`PumpGate::pump_allowed`] before each pump and backs off (bounded) while
/// the gate is red. Cloneable and cheap — just an `Arc` view of the shared
/// controller state.
#[derive(Debug, Clone)]
pub struct PumpGate {
    shared: Arc<CtrlShared>,
}

impl PumpGate {
    /// Creates the gate over the controller's shared state.
    pub(crate) fn new(shared: Arc<CtrlShared>) -> Self {
        Self { shared }
    }

    /// Whether the ETL pump should proceed now. A `false` is advisory — the
    /// caller must bound its wait (the gate guarantees backpressure, the
    /// caller guarantees liveness).
    pub fn pump_allowed(&self) -> bool {
        !self.shared.pump_paused()
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

/// Everything the PID controller thread needs.
pub(crate) struct PidParams {
    pub(crate) clock: Arc<dyn ScaleClock>,
    pub(crate) shared: Arc<CtrlShared>,
    pub(crate) fill: PoolControls,
    pub(crate) compute: PoolControls,
    /// Reads `(max per-lane depth, per-lane capacity)` across trainer lanes.
    pub(crate) lane_probe: Box<dyn Fn() -> (usize, usize) + Send>,
    /// Reads the ETL tail lag in ms of log time; `None` when no ETL tier is
    /// attached (batch mode), in which case the escape hatch never fires.
    pub(crate) tail_lag_probe: Option<Box<dyn Fn() -> u64 + Send>>,
    pub(crate) events: Arc<Mutex<Vec<ScaleEvent>>>,
    /// Invoked after any resize (grow or shrink) with the pools' new target
    /// sizes, so the service keeps its batch pools sized to the live
    /// in-flight population — smaller after a shrink, restored after a
    /// grow.
    pub(crate) on_resize: Box<dyn Fn(usize, usize) + Send>,
}

/// One pool's PID state.
#[derive(Default)]
struct PidState {
    integral: f64,
}

impl PidState {
    /// Advances the PID one tick and returns the control signal.
    fn advance(&mut self, error: f64) -> f64 {
        self.integral = (self.integral + error).clamp(-INTEGRAL_CLAMP, INTEGRAL_CLAMP);
        KP * error + KI * self.integral
    }
}

/// Spawns the PID controller thread.
pub(crate) fn spawn_pid_controller(params: PidParams) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("dpp-pid-ctrl".to_string())
        .spawn(move || params.run())
        .expect("spawn pid controller")
}

impl PidParams {
    /// One evaluation per clock tick until the clock shuts down.
    fn run(self) {
        let (shared, fill, compute) = (&self.shared, &self.fill, &self.compute);
        let mut fill_pid = PidState::default();
        let mut compute_pid = PidState::default();
        while self.clock.wait_tick() {
            shared.ticks.fetch_add(1, Ordering::Relaxed);

            // Sample all three tiers on this tick.
            let input_depth = (fill.queue_probe)();
            let work_depth = (compute.queue_probe)();
            let input_frac = input_depth as f64 / fill.queue_capacity.max(1) as f64;
            let work_frac = work_depth as f64 / compute.queue_capacity.max(1) as f64;
            let (lane_depth, lane_capacity) = (self.lane_probe)();
            let lane_frac = lane_depth as f64 / lane_capacity.max(1) as f64;
            let tail_lag_ms = self.tail_lag_probe.as_ref().map_or(0, |probe| probe());

            // PID error terms. The compute error subtracts a lane penalty:
            // full lanes mean compute output has nowhere to go, so more
            // compute workers cannot help and existing ones should retire.
            let fill_error = input_frac - SETPOINT;
            // The multiplier must dominate the largest possible queue error
            // (0.5 at a saturated work queue): 4.0 makes fully saturated
            // lanes (penalty 1.0) outweigh any queue pressure.
            let lane_penalty = 4.0 * (lane_frac - LANE_HIGH).max(0.0);
            let compute_error = work_frac - SETPOINT - lane_penalty;
            store_f64(&shared.fill_error_bits, fill_error);
            store_f64(&shared.compute_error_bits, compute_error);

            let fill_control = fill_pid.advance(fill_error);
            let compute_control = compute_pid.advance(compute_error);
            store_f64(&shared.fill_integral_bits, fill_pid.integral);
            store_f64(&shared.compute_integral_bits, compute_pid.integral);

            // `|`, not `||`: both pools act on every tick.
            let resized = self.actuate(fill, &mut fill_pid, fill_control, input_depth)
                | self.actuate(compute, &mut compute_pid, compute_control, work_depth);
            if resized {
                (self.on_resize)(fill.governor.target(), compute.governor.target());
            }

            // The pump-rate signal: hold the ETL pump while any trainer lane
            // is the bottleneck — unless the ETL has already fallen
            // `LAG_HIGH_MS` behind the tail, in which case catching up
            // outranks lane backpressure.
            let want_pause = lane_frac >= LANE_HIGH && tail_lag_ms <= LAG_HIGH_MS;
            let was_paused = shared.pump_paused.swap(want_pause, Ordering::AcqRel);
            if want_pause != was_paused {
                shared.actuations.fetch_add(1, Ordering::Relaxed);
                if want_pause {
                    shared.pump_pauses.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.pump_resumes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Never leave the pump gated after shutdown.
        shared.pump_paused.store(false, Ordering::Release);
    }

    /// Applies one pool's control signal within the pool's bounds. Returns
    /// `true` on a resize.
    fn actuate(
        &self,
        pool: &PoolControls,
        pid: &mut PidState,
        control: f64,
        queue_depth: usize,
    ) -> bool {
        let target = pool.governor.target();
        let to = if control >= ACTUATION_THRESHOLD && target < pool.max {
            pool.governor.adopt((pool.spawn)());
            self.shared.grows.fetch_add(1, Ordering::Relaxed);
            target + 1
        } else if control <= -ACTUATION_THRESHOLD && target > pool.min {
            pool.governor.request_retire();
            self.shared.shrinks.fetch_add(1, Ordering::Relaxed);
            target - 1
        } else {
            return false;
        };
        self.events
            .lock()
            .expect("scale events lock")
            .push(ScaleEvent {
                at_seconds: self.clock.now_seconds(),
                pool: pool.name.to_string(),
                from: target,
                to,
                queue_depth,
            });
        self.shared.actuations.fetch_add(1, Ordering::Relaxed);
        pid.integral = 0.0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_obs::ManualClock;

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
            let governor = Arc::new(PoolGovernor::default());
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
        let governor = PoolGovernor::default();
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

    struct Harness {
        clock: Arc<ManualClock>,
        shared: Arc<CtrlShared>,
        input_depth: Arc<AtomicUsize>,
        work_depth: Arc<AtomicUsize>,
        lane_depth: Arc<AtomicUsize>,
        tail_lag: Arc<AtomicU64>,
        fill_governor: Arc<PoolGovernor>,
        compute_governor: Arc<PoolGovernor>,
        events: Arc<Mutex<Vec<ScaleEvent>>>,
        resizes: Arc<Mutex<Vec<(usize, usize)>>>,
        thread: JoinHandle<()>,
    }

    /// Spawns a controller over fully synthetic probes: queue depths and
    /// tail lag are atomics the test sets, lanes have capacity 8.
    fn harness() -> Harness {
        let clock = Arc::new(ManualClock::new());
        let shared = Arc::new(CtrlShared::default());
        let input_depth = Arc::new(AtomicUsize::new(0));
        let work_depth = Arc::new(AtomicUsize::new(0));
        let lane_depth = Arc::new(AtomicUsize::new(0));
        let tail_lag = Arc::new(AtomicU64::new(0));
        let fill_governor = Arc::new(PoolGovernor::default());
        fill_governor.adopt(std::thread::spawn(|| {}));
        let compute_governor = Arc::new(PoolGovernor::default());
        compute_governor.adopt(std::thread::spawn(|| {}));
        let events = Arc::new(Mutex::new(Vec::new()));
        let resizes = Arc::new(Mutex::new(Vec::new()));

        let probe = |depth: &Arc<AtomicUsize>| {
            let depth = Arc::clone(depth);
            Box::new(move || depth.load(Ordering::Relaxed)) as Box<dyn Fn() -> usize + Send>
        };
        let lanes = Arc::clone(&lane_depth);
        let lag = Arc::clone(&tail_lag);
        let resize_log = Arc::clone(&resizes);
        let thread = spawn_pid_controller(PidParams {
            clock: Arc::clone(&clock) as Arc<dyn ScaleClock>,
            shared: Arc::clone(&shared),
            fill: PoolControls {
                name: "fill",
                governor: Arc::clone(&fill_governor),
                min: 1,
                max: 8,
                queue_probe: probe(&input_depth),
                queue_capacity: 8,
                spawn: Box::new(|| std::thread::spawn(|| {})),
            },
            compute: PoolControls {
                name: "compute",
                governor: Arc::clone(&compute_governor),
                min: 1,
                max: 8,
                queue_probe: probe(&work_depth),
                queue_capacity: 8,
                spawn: Box::new(|| std::thread::spawn(|| {})),
            },
            lane_probe: Box::new(move || (lanes.load(Ordering::Relaxed), 8)),
            tail_lag_probe: Some(Box::new(move || lag.load(Ordering::Relaxed))),
            events: Arc::clone(&events),
            on_resize: Box::new(move |f, c| {
                resize_log.lock().unwrap().push((f, c));
            }),
        });
        Harness {
            clock,
            shared,
            input_depth,
            work_depth,
            lane_depth,
            tail_lag,
            fill_governor,
            compute_governor,
            events,
            resizes,
            thread,
        }
    }

    impl Harness {
        fn finish(self) {
            self.clock.shutdown();
            self.thread.join().unwrap();
            for handle in self.fill_governor.take_handles() {
                handle.join().unwrap();
            }
            for handle in self.compute_governor.take_handles() {
                handle.join().unwrap();
            }
        }
    }

    #[test]
    fn saturated_input_queue_grows_fill_and_fires_on_resize() {
        let h = harness();
        // input_frac 1.0 → error 0.5 → control = 2*0.5 + 1*0.5 = 1.5 ≥ 1.
        h.input_depth.store(8, Ordering::Relaxed);
        assert!(h.clock.step());
        assert_eq!(h.fill_governor.target(), 2, "fill must grow on tick 1");
        assert_eq!(h.shared.report().grows, 1);
        assert!(
            h.resizes.lock().unwrap().contains(&(2, 1)),
            "on_resize must fire on a PID grow"
        );
        let events = h.events.lock().unwrap().clone();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_grow());
        assert_eq!(events[0].pool, "fill");
        h.finish();
    }

    #[test]
    fn idle_queues_shrink_pools_toward_min_but_never_below() {
        let h = harness();
        // Grow fill to 3 first.
        h.input_depth.store(8, Ordering::Relaxed);
        assert!(h.clock.step());
        assert!(h.clock.step());
        assert_eq!(h.fill_governor.target(), 3);
        // Now idle: error -0.5 per tick → shrink fires once the integral
        // rebuilds past the threshold, and never below min = 1.
        h.input_depth.store(0, Ordering::Relaxed);
        for _ in 0..12 {
            assert!(h.clock.step());
        }
        assert_eq!(h.fill_governor.target(), 1, "fill must shrink back to min");
        let report = h.shared.report();
        assert!(report.shrinks >= 2, "report {report:?}");
        // A shrink is a resize too: the batch pools follow the population
        // down only if `on_resize` hears about it.
        assert!(
            h.resizes.lock().unwrap().ends_with(&[(2, 1), (1, 1)]),
            "on_resize must fire on every PID shrink"
        );
        h.finish();
    }

    #[test]
    fn full_lanes_pause_the_pump_and_shrink_compute() {
        let h = harness();
        // Grow compute to 2 with a busy work queue and empty lanes.
        h.work_depth.store(8, Ordering::Relaxed);
        assert!(h.clock.step());
        assert_eq!(h.compute_governor.target(), 2);
        assert!(!h.shared.pump_paused());

        // Lanes saturate: the pump gate turns red on the next tick, and the
        // lane penalty drives the compute control negative even though the
        // work queue is still full.
        h.lane_depth.store(8, Ordering::Relaxed);
        let gate = PumpGate::new(Arc::clone(&h.shared));
        let mut paused_ticks = 0;
        for _ in 0..8 {
            assert!(h.clock.step());
            if !gate.pump_allowed() {
                paused_ticks += 1;
            }
        }
        assert!(paused_ticks > 0, "full lanes must pause the pump");
        assert_eq!(
            h.compute_governor.target(),
            1,
            "full lanes must shrink compute back down"
        );
        let report = h.shared.report();
        assert!(report.pump_pauses >= 1);
        assert!(report.actuations >= 3, "report {report:?}");

        // Lanes drain: the gate goes green again.
        h.lane_depth.store(0, Ordering::Relaxed);
        h.work_depth.store(0, Ordering::Relaxed);
        assert!(h.clock.step());
        assert!(gate.pump_allowed(), "drained lanes must release the pump");
        assert!(h.shared.report().pump_resumes >= 1);
        h.finish();
    }

    #[test]
    fn tail_lag_escape_hatch_overrides_lane_backpressure() {
        let h = harness();
        h.lane_depth.store(8, Ordering::Relaxed);
        h.tail_lag.store(LAG_HIGH_MS + 1, Ordering::Relaxed);
        for _ in 0..3 {
            assert!(h.clock.step());
        }
        assert!(
            !h.shared.pump_paused(),
            "a lagging ETL must never be held back by lane pressure"
        );
        // Lag recovers below the hatch: now the lanes gate the pump.
        h.tail_lag.store(10, Ordering::Relaxed);
        assert!(h.clock.step());
        assert!(h.shared.pump_paused());
        h.finish();
    }

    #[test]
    fn ctrl_shared_exports_recd_ctrl_families() {
        let h = harness();
        h.input_depth.store(8, Ordering::Relaxed);
        assert!(h.clock.step());
        let mut buf = MetricsBuf::new();
        h.shared.collect(&mut buf);
        let families = buf.into_families();
        let value = |name: &str, labels: &[(&str, &str)]| {
            recd_obs::sample_value(&families, name, labels)
                .unwrap_or_else(|| panic!("family {name} {labels:?} missing from the ctrl export"))
        };
        assert_eq!(value("recd_ctrl_setpoint", &[]), 0.5);
        assert!(value("recd_ctrl_ticks_total", &[]) >= 1.0);
        assert!(value("recd_ctrl_actuations_total", &[]) >= 1.0);
        assert!(value("recd_ctrl_error", &[("pool", "fill")]).abs() <= 1.0);
        assert!(value("recd_ctrl_integral", &[("pool", "compute")]).abs() <= INTEGRAL_CLAMP);
        assert_eq!(
            value("recd_ctrl_pool_resizes_total", &[("direction", "grow")]),
            1.0
        );
        assert_eq!(value("recd_ctrl_pump_paused", &[]), 0.0);
        h.finish();
    }
}
