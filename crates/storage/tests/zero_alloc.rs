//! The steady-state fill guarantee, counted: once a `FileReadScratch` and an
//! output batch have held a file, fetching and decoding that file again —
//! `get_into`, footer parse, every stripe — performs zero heap allocations.
//!
//! One test in this file, so nothing else in the process allocates on the
//! counted thread; the counter is thread-local to keep the test harness's
//! own threads out of it.

use recd_data::ColumnarBatch;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_storage::{FileReadScratch, TableStore, TectonicSim};
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
fn rereading_a_seen_file_into_recycled_buffers_allocates_nothing() {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let store = TableStore::new(TectonicSim::new(4), 16, 4);
    let (stored, _) = store.land_partition(&partition.schema, "t", 0, &partition.samples);
    assert!(stored.files.len() > 1);

    let mut scratch = FileReadScratch::default();
    let mut rows = ColumnarBatch::default();
    let read = |path: &str, scratch: &mut FileReadScratch, rows: &mut ColumnarBatch| {
        store
            .blob_store()
            .get_into(path, scratch.blob_buf())
            .unwrap();
        scratch
            .read_fetched_columnar_into(&partition.schema, rows)
            .unwrap();
    };

    // The counter counts: a cold read has buffers to grow.
    let path = &stored.files[0];
    assert!(allocations_in(|| read(path, &mut scratch, &mut rows)) > 0);
    let first = rows.clone();

    // Warm: the same file again, then every file twice over — the second
    // pass re-reads files the buffers have already held.
    assert_eq!(allocations_in(|| read(path, &mut scratch, &mut rows)), 0);
    assert_eq!(rows, first);
    for path in &stored.files {
        read(path, &mut scratch, &mut rows);
    }
    let again = allocations_in(|| {
        for path in &stored.files {
            read(path, &mut scratch, &mut rows);
        }
    });
    assert_eq!(again, 0);
}
