//! Mutation sweep: every single-bit flip and every prefix truncation of real
//! stored bytes must decode to `Ok` or `Err` — never a panic, and never an
//! allocation sized by a corrupt count (which on a fill worker is an abort,
//! not an error). The allocator below records the largest single request so
//! the second half is asserted rather than left to the OOM killer.

use recd_codec::{delta, lz, varint};
use recd_data::{ColumnarBatch, Sample, Schema};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_storage::{
    decode_stripe_columnar_into, encode_stripe, DecodeScratch, DwrfFile, DwrfWriter,
    FileReadScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// No honest decode of the few-KiB inputs below asks for more than LZ's
/// 1 MiB up-front cap in one request.
const LARGEST_HONEST_REQUEST: usize = 2 << 20;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct RecordLargest;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic max of the size.
unsafe impl GlobalAlloc for RecordLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: RecordLargest = RecordLargest;

/// Runs `decode` on every single-bit flip and every strict prefix of `bytes`.
fn sweep(bytes: &[u8], mut decode: impl FnMut(&[u8])) {
    let mut flipped = bytes.to_vec();
    for i in 0..flipped.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            decode(&flipped);
            flipped[i] ^= 1 << bit;
        }
    }
    for cut in 0..bytes.len() {
        decode(&bytes[..cut]);
    }
}

/// Tiny-preset rows, clustered by session as a landed table stores them.
fn clustered_rows() -> (Schema, Vec<Sample>) {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let mut rows = partition.samples;
    rows.sort_by_key(|s| (s.session_id, s.timestamp));
    (partition.schema, rows)
}

fn assert_no_corrupt_count_sized_an_allocation() {
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest <= LARGEST_HONEST_REQUEST,
        "a mutated input drove a single allocation of {largest} bytes"
    );
}

#[test]
fn a_mutated_stripe_block_never_panics_or_oversizes() {
    let (schema, rows) = clustered_rows();
    let (block, _) = encode_stripe(&schema, &rows[..32]);
    let mut scratch = DecodeScratch::default();
    let mut out = ColumnarBatch::default();
    let mut bytes = Vec::new();
    sweep(&block, |mutated| {
        if decode_stripe_columnar_into(&schema, mutated, &mut scratch, &mut out).is_ok() {
            out.check_invariants().unwrap();
            out.check_repeats().unwrap();
        }
        let _ = lz::decompress_into(mutated, &mut bytes);
    });
    // The sweep ran over a block that does decode, with rows the decoder
    // copied and marked.
    decode_stripe_columnar_into(&schema, &block, &mut scratch, &mut out).unwrap();
    assert_eq!(out.to_samples(), &rows[..32]);
    out.check_repeats().unwrap();
    assert!(out
        .sparse_columns()
        .iter()
        .any(|c| c.repeats().contains(&true)));
    assert_no_corrupt_count_sized_an_allocation();
}

#[test]
fn a_mutated_file_blob_never_panics_or_oversizes() {
    let (schema, rows) = clustered_rows();
    let mut writer = DwrfWriter::new(&schema, 16);
    writer.write(&rows[..32]);
    let blob = writer.finish().0.to_blob();
    let mut scratch = FileReadScratch::default();
    let mut out = ColumnarBatch::default();
    sweep(&blob, |mutated| {
        if let Ok(file) = DwrfFile::from_blob(mutated) {
            if file
                .read_all_columnar_into(&schema, &mut scratch, &mut out)
                .is_ok()
            {
                out.check_invariants().unwrap();
                out.check_repeats().unwrap();
            }
        }
        // The fill workers' path: the same bytes, parsed in place.
        scratch.blob_buf().clear();
        scratch.blob_buf().extend_from_slice(mutated);
        if scratch
            .read_fetched_columnar_into(&schema, &mut out)
            .is_ok()
        {
            out.check_invariants().unwrap();
            out.check_repeats().unwrap();
        }
    });
    scratch.blob_buf().clear();
    scratch.blob_buf().extend_from_slice(&blob);
    scratch
        .read_fetched_columnar_into(&schema, &mut out)
        .unwrap();
    assert_eq!(out.to_samples(), &rows[..32]);
    out.check_repeats().unwrap();
    assert!(out
        .sparse_columns()
        .iter()
        .any(|c| c.repeats().contains(&true)));
    assert_no_corrupt_count_sized_an_allocation();
}

#[test]
fn mutated_integer_streams_never_panic_or_oversize() {
    let (_, rows) = clustered_rows();
    let ids: Vec<u64> = rows[..16]
        .iter()
        .flat_map(|s| s.sparse.iter().flatten().copied())
        .collect();
    let timestamps: Vec<u64> = rows.iter().map(|s| s.timestamp.as_millis()).collect();
    let mut values = Vec::new();
    sweep(&varint::encode_u64_slice(&ids), |mutated| {
        let _ = varint::decode_u64_slice_into(mutated, &mut values);
    });
    sweep(&delta::encode(&timestamps), |mutated| {
        let _ = delta::decode_into(mutated, &mut values);
    });
    assert_no_corrupt_count_sized_an_allocation();
}
