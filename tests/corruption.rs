//! Tier-1 slices of the two mutation sweeps: stored bytes
//! (`crates/storage/tests/mutation_sweep.rs`) and scribe blocks
//! (`crates/scribe/tests/mutation_sweep.rs`). Every single-bit flip and
//! every prefix truncation of a real 16-row stripe, as a block and as a file
//! blob, and of a real scribe block, compressed and raw, must come back `Ok`
//! or `Err`. On a fill worker a panic loses the worker and an allocation
//! sized by a corrupt count aborts the process; an `Err` is recorded and the
//! pipeline moves on.

use recd::codec::lz;
use recd::data::{ColumnarBatch, LogRecord};
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::scribe::wire::decode_all;
use recd::scribe::{encode_record, WireError};
use recd::storage::{
    decode_stripe_columnar_into, encode_stripe, DecodeScratch, DwrfFile, DwrfWriter,
    FileReadScratch,
};

/// Runs `decode` on every single-bit flip of the first `flip_len` bytes and
/// on every strict prefix of `bytes`.
fn sweep(bytes: &[u8], flip_len: usize, mut decode: impl FnMut(&[u8])) {
    let mut flipped = bytes.to_vec();
    for i in 0..flip_len {
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

#[test]
fn no_bit_flip_or_truncation_of_a_stored_stripe_panics_or_aborts() {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let schema = partition.schema;
    let mut rows = partition.samples;
    rows.sort_by_key(|s| (s.session_id, s.timestamp));
    rows.truncate(16);

    let mut out = ColumnarBatch::default();
    let (block, _) = encode_stripe(&schema, &rows);
    let mut decode_scratch = DecodeScratch::default();
    sweep(&block, block.len(), |mutated| {
        if decode_stripe_columnar_into(&schema, mutated, &mut decode_scratch, &mut out).is_ok() {
            out.check_invariants().unwrap();
        }
    });

    let mut writer = DwrfWriter::new(&schema, 16);
    writer.write(&rows);
    let blob = writer.finish().0.to_blob();
    let mut scratch = FileReadScratch::default();
    // The blob is a footer followed by that same block: its body's bit flips
    // were swept above, so only the footer's are new here.
    sweep(&blob, blob.len() - block.len(), |mutated| {
        let read = DwrfFile::from_blob(mutated)
            .and_then(|file| file.read_all_columnar_into(&schema, &mut scratch, &mut out));
        if read.is_ok() {
            out.check_invariants().unwrap();
        }
    });

    // Unmutated, both decode to the rows that were stored.
    let file = DwrfFile::from_blob(&blob).unwrap();
    file.read_all_columnar_into(&schema, &mut scratch, &mut out)
        .unwrap();
    assert_eq!(out.to_samples(), rows);
}

#[test]
fn no_bit_flip_or_truncation_of_a_scribe_block_panics_or_aborts() {
    // One session's first records, as a session-keyed shard buffers them.
    let (logs, _) =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_logs();
    let session = logs[0].session_id();
    let records: Vec<LogRecord> = logs
        .into_iter()
        .filter(|r| r.session_id() == session)
        .take(8)
        .collect();
    let mut raw = Vec::new();
    for record in &records {
        encode_record(record, &mut raw);
    }
    let block = lz::compress(&raw);

    let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
    let mut drain = |block: &[u8], decoded: &mut Vec<LogRecord>| -> Result<(), WireError> {
        decoded.clear();
        lz::decompress_into(block, &mut scratch)?;
        decode_all(&scratch, decoded)
    };
    sweep(&block, block.len(), |mutated| {
        let _ = drain(mutated, &mut decoded);
    });
    sweep(&raw, raw.len(), |mutated| {
        decoded.clear();
        let _ = decode_all(mutated, &mut decoded);
    });

    // Unmutated, the block drains to the records that were ingested.
    drain(&block, &mut decoded).unwrap();
    assert_eq!(decoded, records);
}
