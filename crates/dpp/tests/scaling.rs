//! Deterministic pool-sizing harness: a `SlowStore` (shared-latency
//! `TectonicSim`) injects fill pressure, and a paused `ManualClock` hands
//! the PID controller exactly one evaluation per step, so grow/shrink
//! decisions happen when the test says so — never on a wall-clock race.

use recd_core::DataLoaderConfig;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{CtrlConfig, DppConfig, DppService, ManualClock, ScaleClock, ShardPolicy};
use recd_etl::cluster_by_session;
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::Drain;

/// The storage-pressure lever: a handle on the blob store's shared fetch
/// latency. While throttled, every fill worker's decode stalls on the
/// simulated RPC, so the input queue backs up and the controller sees
/// pressure; clearing it lets the pipeline drain.
struct SlowStore {
    blob: TectonicSim,
}

impl SlowStore {
    fn throttle(&self, latency: Duration) {
        self.blob.set_get_latency(latency);
    }

    fn clear(&self) {
        self.blob.set_get_latency(Duration::ZERO);
    }
}

struct Fixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    partition: StoredPartition,
    rows: usize,
    slow: SlowStore,
}

fn fixture() -> Fixture {
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let samples = cluster_by_session(&partition.samples);
    let blob = TectonicSim::new(4);
    let slow = SlowStore { blob: blob.clone() };
    let store = Arc::new(TableStore::new(blob, 16, 1));
    let (stored, _) = store.land_partition(&partition.schema, "t", 0, &samples);
    assert!(stored.files.len() >= 8, "fixture must span many files");
    Fixture {
        schema: partition.schema,
        store,
        partition: stored,
        rows: samples.len(),
        slow,
    }
}

const QUEUE_DEPTH: usize = 4;
/// The controller's bounds, shared by the fill and the compute pool.
const MIN_WORKERS: usize = 1;
const MAX_WORKERS: usize = 3;

fn base_config(f: &Fixture) -> DppConfig {
    DppConfig::new(ReaderConfig::new(
        64,
        DataLoaderConfig::from_schema(&f.schema),
    ))
    .with_policy(ShardPolicy::SessionAffine)
    .with_shards(2)
    .with_fill_workers(1)
    .with_compute_workers(1)
    .with_queue_depth(QUEUE_DEPTH)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

/// Polls `predicate` until it holds or `timeout` elapses.
fn wait_until(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    predicate()
}

const WAIT: Duration = Duration::from_secs(10);

/// The acceptance criterion: under injected fill latency the fill pool grows
/// to its max, after the pressure clears it shrinks back to its min, the
/// `[min, max]` bounds are never violated, and the elastic run's output is
/// byte-identical to a fixed-pool run.
///
/// The pressure phase is also the regression for submission backpressure:
/// the producer must be able to fill the bounded input queue to capacity.
/// A submit path that holds the queue at the controller's setpoint reads as
/// zero fill error and the pool never grows.
#[test]
fn workers_scale_up_under_pressure_then_back_down_within_bounds() {
    let f = fixture();
    let rounds = 6;

    // Fixed-pool reference first (no latency, no controller): resizing must
    // not change what is emitted, only how fast.
    let mut fixed = DppService::start(base_config(&f), Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut fixed);
    for _ in 0..rounds {
        fixed.submit_partition(&f.partition);
    }
    let (fixed_batches, fixed_out) = drain.finish(fixed);
    fixed_out.expect("clean fixed-pool run");

    // Elastic run under a throttled store and a paused clock.
    f.slow.throttle(Duration::from_millis(2));
    let clock = Arc::new(ManualClock::new());
    let ctrl = CtrlConfig::bounds(MIN_WORKERS, MAX_WORKERS)
        .with_clock(Arc::clone(&clock) as Arc<dyn ScaleClock>);
    let config = base_config(&f).with_ctrl(ctrl);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    let source = handle.snapshot_source();

    let total_files = rounds * f.partition.files.len();
    // The feeder owns the handle: submissions block on backpressure, which
    // is exactly the sustained pressure the controller should see.
    let partition = f.partition.clone();
    let feeder = std::thread::spawn(move || {
        for _ in 0..rounds {
            handle.submit_partition(&partition);
        }
        handle
    });

    // Phase 1 — pressure: the slow fill workers cannot keep up with the
    // feeder, so the input queue rides at 3–4 of 4: error ≥ 0.25 against
    // the 0.5 setpoint, which grows the pool within two samples. Sampling
    // only a pressured queue, growth must saturate at exactly the max.
    for _ in 0..8 {
        assert!(
            wait_until(WAIT, || source.snapshot().input_queue_depth >= 3),
            "input queue must saturate under fill latency"
        );
        assert!(clock.step());
    }
    let pressured = source.snapshot();
    assert_eq!(
        pressured.fill_workers_live, MAX_WORKERS,
        "fill pool must grow to its max bound, and not past it"
    );
    assert!(
        pressured
            .scale_events
            .iter()
            .filter(|e| e.is_grow())
            .count()
            >= 2
    );

    // Phase 2 — relief: clear the latency, let everything drain.
    f.slow.clear();
    let mut handle = feeder.join().expect("feeder");
    assert!(
        wait_until(WAIT, || {
            let s = source.snapshot();
            s.files_filled as usize == total_files && s.input_queue_depth == 0
        }),
        "pipeline must drain once the latency clears"
    );
    // Idle samples walk the pool back down to min, one retirement per
    // tick, and never below the floor.
    for _ in 0..10 {
        assert!(clock.step());
    }
    assert!(
        wait_until(WAIT, || source.snapshot().fill_workers_live == MIN_WORKERS),
        "fill pool must shrink back to min once pressure clears"
    );
    let relieved = source.snapshot();
    assert!(
        relieved
            .scale_events
            .iter()
            .filter(|e| !e.is_grow())
            .count()
            >= 2
    );

    // A post-drain flush then finish: the elastic run must emit exactly what
    // the fixed-pool run emitted.
    assert!(handle.flush_partition(), "flush across a scaled pipeline");
    let (batches, out) = drain.finish(handle);
    let out = out.expect("clean elastic run");

    assert_eq!(out.report.samples, rounds * f.rows);
    assert_eq!(batches.len(), fixed_batches.len());
    for (i, (elastic, fixed)) in batches.iter().zip(&fixed_batches).enumerate() {
        assert_eq!(elastic, fixed, "batch {i} diverged under pool resizing");
    }

    let events = &out.report.scale_events;
    assert!(
        events.iter().any(|e| e.pool == "fill" && e.is_grow()),
        "must record at least one observed grow event"
    );
    assert!(
        events.iter().any(|e| e.pool == "fill" && !e.is_grow()),
        "must record at least one observed shrink event"
    );
    let bounds = MIN_WORKERS..=MAX_WORKERS;
    for event in events {
        assert!(
            ["fill", "compute"].contains(&event.pool.as_str()),
            "unknown pool in event: {event:?}"
        );
        assert!(
            bounds.contains(&event.from) && bounds.contains(&event.to),
            "scale event out of bounds: {event:?}"
        );
    }
    assert_eq!(out.report.peak_fill_workers, MAX_WORKERS);
    assert!(out.report.peak_compute_workers <= MAX_WORKERS);

    // The batch pool shrank along with the pools: its capacity started
    // sized for the maximum population of decoded files (the route window
    // of 1 + depth + max fill files, plus up to 64 files — one per row —
    // for each batch holding runs: one pending per shard, the work queue,
    // one per compute worker) and scale-downs reduced it.
    let initial_capacity = (1 + QUEUE_DEPTH + MAX_WORKERS) + (2 + QUEUE_DEPTH + MAX_WORKERS) * 64;
    assert!(
        out.report.batch_pool.capacity < initial_capacity,
        "batch pool capacity must shrink on scale-down ({} vs initial {})",
        out.report.batch_pool.capacity,
        initial_capacity
    );
}

/// Without a sizing policy the pools stay exactly as configured and no
/// events are recorded.
#[test]
fn scaling_disabled_keeps_pools_fixed() {
    let f = fixture();
    let mut handle = DppService::start(
        base_config(&f).with_fill_workers(2).with_compute_workers(2),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    handle.submit_partition(&f.partition);
    let mid = handle.snapshot();
    assert_eq!(mid.fill_workers_live, 2);
    assert_eq!(mid.compute_workers_live, 2);
    let out = handle.finish().expect("clean run");
    assert!(out.report.scale_events.is_empty());
    assert_eq!(out.report.peak_fill_workers, 2);
    assert_eq!(out.report.peak_compute_workers, 2);
}

/// Initial worker counts outside the controller bounds are clamped into
/// them at start (the clock is never stepped, so the controller never acts).
#[test]
fn initial_workers_are_clamped_into_controller_bounds() {
    let f = fixture();
    let ctrl = CtrlConfig::bounds(2, 3).with_clock(Arc::new(ManualClock::new()));
    let mut handle = DppService::start(
        // Configured below min (1) and above max (8): both clamp.
        base_config(&f)
            .with_fill_workers(1)
            .with_compute_workers(8)
            .with_ctrl(ctrl),
        Arc::clone(&f.store),
        f.schema.clone(),
    );
    let snapshot = handle.snapshot();
    assert_eq!(snapshot.fill_workers_live, 2, "clamped up to min");
    assert_eq!(snapshot.compute_workers_live, 3, "clamped down to max");
    handle.submit_partition(&f.partition);
    let out = handle.finish().expect("clean run");
    assert_eq!(out.report.samples, f.rows);
}
