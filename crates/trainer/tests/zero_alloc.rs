//! The steady-state step guarantee, counted: once a model's workspace has
//! held a batch, `train_step` on batches of that shape allocates nothing but
//! what starting its workers costs — forward, backward and embedding
//! updates, in either mode, on the calling thread and on every worker.
//!
//! The counter is global, so a worker thread's allocation counts too. One
//! test in this file, so nothing else in the process allocates while the
//! counter is armed.

use recd_core::{DataLoaderConfig, FeatureConverter};
use recd_data::ColumnarBatch;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_etl::cluster_by_session;
use recd_trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn count_one() {
    if ARMED.load(Ordering::SeqCst) {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
}

struct CountAllocations;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter bump.
unsafe impl GlobalAlloc for CountAllocations {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountAllocations = CountAllocations;

/// Allocations (and reallocations) any thread performs while `f` runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn a_warm_train_step_allocates_nothing_but_its_worker_spawns() {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let rows = cluster_by_session(&partition.samples);
    let schema = &partition.schema;
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(schema));
    // Two batches of one shape (64 rows) holding different sessions, so the
    // second has its own slot counts and list lengths.
    let batches: Vec<_> = [&rows[..64], &rows[64..128]]
        .map(|rows| {
            let rows =
                ColumnarBatch::from_samples(rows, schema.dense_count(), schema.sparse_count());
            converter.convert_columnar(&rows).unwrap()
        })
        .into();

    // Transformer features are forward-only; the mean features exercise the
    // embedding backward next to them.
    let mut config = DlrmConfig::from_schema(&partition.schema, 16, PoolingKind::Transformer);
    for (_, kind) in &mut config.feature_pooling {
        if *kind == PoolingKind::Sum {
            *kind = PoolingKind::Mean;
            break;
        }
    }
    // A step runs four split phases on one worker per core: lookup +
    // pooling; the bottom MLP, interaction and top MLP forward by rows; the
    // backward by rows; the update of both MLPs and the tables. Each phase
    // opens one scope and spawns every worker but the calling thread's; a
    // lone worker opens no scope.
    let workers = thread::available_parallelism().map_or(1, usize::from);
    let per_step = |scope: usize, spawn: usize| match workers {
        1 => 0,
        _ => 4 * (scope + (workers - 1) * spawn),
    };
    for mode in [ExecutionMode::Deduplicated, ExecutionMode::Baseline] {
        let mut model = Dlrm::new(config.clone());
        // The counter counts: a cold step has a workspace to grow.
        let cold = allocations_in(|| {
            model.train_step(&batches[0], mode);
        });
        assert!(cold > 0);
        model.train_step(&batches[1], mode);

        // What a scope and one empty spawn in it cost, measured after the
        // cold steps have spawned (and so set up the runtime's lazy state).
        let scope = allocations_in(|| thread::scope(|_| {}));
        let scope_and_spawn = allocations_in(|| {
            thread::scope(|scope| {
                scope.spawn(|| {});
            })
        });
        let spawn = scope_and_spawn - scope;

        let mut losses = [0.0f32; 4];
        let warm = allocations_in(|| {
            for (loss, batch) in losses.iter_mut().zip(batches.iter().cycle()) {
                *loss = model.train_step(batch, mode);
            }
        });
        assert_eq!(
            warm,
            losses.len() * per_step(scope, spawn),
            "{mode:?}: {workers} workers, a scope costs {scope} and a spawn {spawn} allocations"
        );
        assert!(losses.iter().all(|loss| loss.is_finite()));
    }
}
