//! Mutation sweep: every single-bit flip and every prefix truncation of a
//! real scribe block — compressed as a shard stores it, and raw as the
//! record decoder sees it — must come back `Ok(records)` or a [`WireError`]:
//! never a panic, and never an allocation sized by a corrupt count (an abort,
//! not an error). The allocator below records the largest single request so
//! the second half is asserted rather than left to the OOM killer. Modelled
//! on `crates/storage/tests/mutation_sweep.rs`.

use recd_codec::{hash_ids, Compressor};
use recd_data::LogRecord;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_scribe::wire::decode_all;
use recd_scribe::{encode_record, ScribeCluster, ScribeConfig, ShardKeyPolicy, WireError};
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

const SHARDS: usize = 4;
const RECORDS: usize = 24;

/// What one session-keyed shard holds after its first flush: the first
/// records of the sessions that hash to shard 0, in log order — as records,
/// as the raw stream the shard buffered, and as the block it stored.
fn shard_zero() -> (Vec<LogRecord>, Vec<u8>, Vec<u8>) {
    let (logs, _) =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_logs();
    let records: Vec<LogRecord> = logs
        .into_iter()
        .filter(|r| hash_ids(&[r.session_id().raw()]).is_multiple_of(SHARDS as u64))
        .take(RECORDS)
        .collect();
    let mut raw = Vec::new();
    for record in &records {
        encode_record(record, &mut raw);
    }
    let block = Compressor::Lz.compress(&raw);

    // The hand-made bytes are the cluster's: same route, same sizes.
    let mut cluster = ScribeCluster::new(ScribeConfig {
        shards: SHARDS,
        ..ScribeConfig::with_policy(ShardKeyPolicy::SessionId)
    });
    cluster.ingest_all(&records);
    cluster.flush();
    let stats = cluster.report().shards[0];
    assert_eq!(
        (
            stats.records,
            stats.rx_bytes,
            stats.stored_bytes,
            stats.blocks
        ),
        (records.len(), raw.len(), block.len(), 1)
    );
    (records, raw, block)
}

/// A drain's work on one block.
fn decode_block(
    block: &[u8],
    raw: &mut Vec<u8>,
    records: &mut Vec<LogRecord>,
) -> Result<(), WireError> {
    records.clear();
    Compressor::Lz.decompress_into(block, raw)?;
    decode_all(raw, records)
}

fn assert_no_corrupt_count_sized_an_allocation() {
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest <= LARGEST_HONEST_REQUEST,
        "a mutated input drove a single allocation of {largest} bytes"
    );
}

#[test]
fn a_mutated_compressed_block_never_panics_or_oversizes() {
    let (records, _, block) = shard_zero();
    let (mut raw, mut decoded) = (Vec::new(), Vec::new());
    let mut errors = 0usize;
    sweep(&block, |mutated| {
        errors += usize::from(decode_block(mutated, &mut raw, &mut decoded).is_err());
    });
    // Every prefix cut loses bytes the declared length promised.
    assert!(errors >= block.len());
    // The sweep ran over a block that does decode.
    decode_block(&block, &mut raw, &mut decoded).unwrap();
    assert_eq!(decoded, records);
    assert_no_corrupt_count_sized_an_allocation();
}

#[test]
fn a_mutated_record_stream_never_panics_or_oversizes() {
    let (records, raw, _) = shard_zero();
    let mut decoded = Vec::new();
    sweep(&raw, |mutated| {
        decoded.clear();
        let _ = decode_all(mutated, &mut decoded);
    });
    decoded.clear();
    decode_all(&raw, &mut decoded).unwrap();
    assert_eq!(decoded, records);
    assert_no_corrupt_count_sized_an_allocation();
}

#[test]
fn hostile_counts_are_errors_before_they_size_anything() {
    // A feature record whose dense count, list count or id count is a
    // ten-byte varint asking for 2^63 elements.
    let huge = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let header = [1u8, 7, 8, 9];
    let mut decoded = Vec::new();
    for prefix in [&[][..], &[0][..], &[0, 1][..]] {
        let mut forged = header.to_vec();
        forged.extend_from_slice(prefix);
        forged.extend_from_slice(&huge);
        forged.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            decode_all(&forged, &mut decoded),
            Err(WireError::Truncated),
            "count after {prefix:?}"
        );
    }
    // An eleven-byte varint is not a short read: it is corrupt.
    let mut overlong = header.to_vec();
    overlong.extend_from_slice(&[0x80; 11]);
    assert!(matches!(
        decode_all(&overlong, &mut decoded),
        Err(WireError::Corrupt(_))
    ));
    assert_no_corrupt_count_sized_an_allocation();
}
