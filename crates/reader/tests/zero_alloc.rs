//! The steady-state compute guarantee, counted: once a `PhaseEngine` and a
//! recycled `ConvertedBatch` shell have held batches this large, convert →
//! process → pack of a batch performs zero heap allocations — also when
//! the batches flip their dedup groups between IKJT and KJT.
//!
//! The counter is thread-local, so each test counts only its own thread and
//! the test harness's other threads stay out of it.

use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_data::{ColumnarBatch, RowRuns};
use recd_datagen::{DatasetGenerator, FeatureProfile, WorkloadConfig, WorkloadPreset};
use recd_etl::cluster_by_session;
use recd_reader::{PhaseEngine, PreprocessPipeline, ReaderConfig, ReaderMetrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

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
fn converting_processing_and_packing_into_a_recycled_shell_allocates_nothing() {
    // RM1's shape: histories of 96 ids that shift from impression to
    // impression, so the batches pack.
    let rm1 = WorkloadConfig {
        profiles: vec![
            FeatureProfile::user_sequence(8, 96, 5),
            FeatureProfile::user_elementwise(24),
            FeatureProfile::item(4),
        ],
        seed: 11,
        ..WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(40)
    };
    let partition = DatasetGenerator::new(rm1).generate_partition();
    let schema = partition.schema;
    let rows = cluster_by_session(&partition.samples);
    let rows = ColumnarBatch::from_samples(&rows, schema.dense_count(), schema.sparse_count());
    let chunks: Vec<_> = (0..rows.len())
        .step_by(128)
        .map(|start| start..(start + 128).min(rows.len()))
        .collect();
    assert!(chunks.len() > 2);

    let config = ReaderConfig::new(128, DataLoaderConfig::from_schema(&schema));
    let mut engine = PhaseEngine::new(config, PreprocessPipeline::standard(1 << 20, 64));
    let mut shell = ConvertedBatch::default();
    let mut metrics = ReaderMetrics::default();
    let mut run = |chunk: &Range<usize>, shell: &mut ConvertedBatch| {
        engine
            .run_runs_into(
                &RowRuns::new(&[(&rows, chunk.clone())]),
                shell,
                &mut metrics,
            )
            .unwrap();
    };

    // The counter counts: a cold batch has buffers to grow.
    assert!(allocations_in(|| run(&chunks[0], &mut shell)) > 0);

    // Warm: every chunk once, then every chunk again into the same shell,
    // counting the windowed slot tensors the second pass ships.
    for chunk in &chunks {
        run(chunk, &mut shell);
    }
    let mut windowed = 0;
    let again = allocations_in(|| {
        for chunk in &chunks {
            run(chunk, &mut shell);
            windowed += shell
                .ikjts
                .iter()
                .flat_map(|ikjt| ikjt.iter())
                .filter(|(_, tensor)| tensor.is_windowed())
                .count();
        }
    });
    assert!(windowed > 0, "the batches must exercise the packer");
    assert_eq!(again, 0);
}

#[test]
fn groups_flipping_between_ikjt_and_kjt_every_batch_allocate_nothing() {
    // RM1's shape twice: clustered sessions that repeat (every group keeps
    // its IKJT), and one-impression sessions whose user features never stay
    // (every group ships as KJT).
    let shape = |stay_prob: f64, per_session: f64, sessions: usize| {
        let mut profiles = vec![
            FeatureProfile::user_sequence(8, 96, 5),
            FeatureProfile::user_elementwise(24),
            FeatureProfile::item(4),
        ];
        for profile in &mut profiles[..2] {
            profile.stay_prob = stay_prob;
        }
        WorkloadConfig {
            profiles,
            samples_per_session_mean: per_session,
            seed: 11,
            ..WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(sessions)
        }
    };
    let high = DatasetGenerator::new(shape(0.95, 12.0, 40)).generate_partition();
    let low = DatasetGenerator::new(shape(0.0, 1.0, 400)).generate_partition();
    let schema = high.schema;
    let chunk = |samples: &[recd_data::Sample]| {
        ColumnarBatch::from_samples(&samples[..128], schema.dense_count(), schema.sparse_count())
    };
    let high = chunk(&cluster_by_session(&high.samples));
    let low = chunk(&low.samples);

    let dataloader = DataLoaderConfig::from_schema(&schema);
    let groups = dataloader.dedup_groups.len();
    let config = ReaderConfig::new(128, dataloader);
    let mut engine = PhaseEngine::new(config, PreprocessPipeline::standard(1 << 20, 64));
    let mut shell = ConvertedBatch::default();
    let mut metrics = ReaderMetrics::default();
    let mut run = |chunk: &ColumnarBatch, shell: &mut ConvertedBatch| {
        engine
            .run_runs_into(
                &RowRuns::new(&[(chunk, 0..chunk.len())]),
                shell,
                &mut metrics,
            )
            .unwrap();
        shell.ikjts.len()
    };

    // Warm: each form and each flip once — the first flip back to IKJTs
    // grows the shelf that parks the KJT's group tensors.
    for _ in 0..2 {
        assert_eq!(run(&high, &mut shell), groups);
        assert_eq!(run(&low, &mut shell), 0);
    }
    let mut kept = Vec::with_capacity(8);
    let flipping = allocations_in(|| {
        for _ in 0..4 {
            kept.push(run(&high, &mut shell));
            kept.push(run(&low, &mut shell));
        }
    });
    assert_eq!(kept, [groups, 0].repeat(4), "every batch must flip");
    assert_eq!(flipping, 0);
    assert_eq!(metrics.fallback_groups, 6 * groups);
}
