//! The steady-state step guarantee, counted: once a model's workspace has
//! held a batch, `train_step` on batches of that shape performs zero heap
//! allocations — forward, backward and embedding updates, in either mode.
//!
//! One test in this file, so nothing else in the process allocates on the
//! counted thread; the counter is thread-local to keep the test harness's
//! own threads out of it.

use recd_core::{DataLoaderConfig, FeatureConverter};
use recd_data::ColumnarBatch;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_etl::cluster_by_session;
use recd_trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is counting; const-initialized and
    /// `Copy`, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

struct CountAllocations;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump.
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

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS
        .with(|n| n.replace(None))
        .expect("counting was on")
}

#[test]
fn a_warm_train_step_allocates_nothing() {
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
    for mode in [ExecutionMode::Deduplicated, ExecutionMode::Baseline] {
        let mut model = Dlrm::new(config.clone());
        // The counter counts: a cold step has a workspace to grow.
        let cold = allocations_in(|| {
            model.train_step(&batches[0], mode);
        });
        assert!(cold > 0);
        model.train_step(&batches[1], mode);

        let mut losses = [0.0f32; 4];
        let warm = allocations_in(|| {
            for (loss, batch) in losses.iter_mut().zip(batches.iter().cycle()) {
                *loss = model.train_step(batch, mode);
            }
        });
        assert_eq!(warm, 0, "{mode:?}");
        assert!(losses.iter().all(|loss| loss.is_finite()));
    }
}
