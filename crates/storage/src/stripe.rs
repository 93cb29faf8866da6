//! Stripe encoding: a run of rows stored as flattened, encoded, compressed
//! column streams.

use crate::{Result, StorageError};
use recd_codec::{delta, lz, varint};
use recd_data::{ColumnarBatch, Sample, Schema, SparseParts};
use serde::{Deserialize, Serialize};

/// Byte accounting for one encoded stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StripeStats {
    /// Number of rows in the stripe.
    pub rows: usize,
    /// Logical payload bytes of the rows (dense + sparse + header fields).
    pub raw_bytes: usize,
    /// Bytes after columnar encoding, before block compression.
    pub encoded_bytes: usize,
    /// Bytes after block compression — what is actually stored and fetched.
    pub compressed_bytes: usize,
}

impl StripeStats {
    /// Compression ratio relative to the logical payload.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Encodes a stripe of samples into a compressed byte block.
///
/// Layout (before compression): row count, then session/request/timestamp
/// columns (delta-encoded), the label column, each dense column as raw f32
/// bytes, and each sparse column as a lengths stream plus a values stream.
pub fn encode_stripe(schema: &Schema, samples: &[Sample]) -> (Vec<u8>, StripeStats) {
    let mut buf = Vec::new();
    varint::encode_u64(samples.len() as u64, &mut buf);

    // Header columns.
    let sessions: Vec<u64> = samples.iter().map(|s| s.session_id.raw()).collect();
    let requests: Vec<u64> = samples.iter().map(|s| s.request_id.raw()).collect();
    let timestamps: Vec<u64> = samples.iter().map(|s| s.timestamp.as_millis()).collect();
    buf.extend_from_slice(&delta::encode(&sessions));
    buf.extend_from_slice(&delta::encode(&requests));
    buf.extend_from_slice(&delta::encode(&timestamps));
    for s in samples {
        buf.extend_from_slice(&s.label.to_le_bytes());
    }

    // Dense columns.
    for d in 0..schema.dense_count() {
        for s in samples {
            let v = s.dense.get(d).copied().unwrap_or(0.0);
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    // Sparse columns: lengths stream + values stream per feature, written
    // straight into the stripe buffer.
    for spec in schema.sparse_features() {
        let fi = spec.id.index();
        let lists = || {
            samples
                .iter()
                .map(move |s| s.sparse.get(fi).map_or(&[][..], Vec::as_slice))
        };
        varint::encode_u64_seq(samples.len(), lists().map(|l| l.len() as u64), &mut buf);
        let value_count = lists().map(<[u64]>::len).sum();
        varint::encode_u64_seq(value_count, lists().flatten().copied(), &mut buf);
    }

    let encoded_bytes = buf.len();
    let compressed = lz::compress(&buf);
    let stats = StripeStats {
        rows: samples.len(),
        raw_bytes: samples.iter().map(Sample::payload_bytes).sum(),
        encoded_bytes,
        compressed_bytes: compressed.len(),
    };
    (compressed, stats)
}

/// Reusable scratch buffers for the in-place stripe decoders: the
/// decompressed block and the per-feature lengths stream. A fill worker
/// holds one `DecodeScratch` for its whole lifetime; once both buffers have
/// grown to the largest stripe seen, a decode allocates nothing here.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    buf: Vec<u8>,
    lengths: Vec<u64>,
}

/// Decodes a stripe produced by [`encode_stripe`] straight into a
/// [`ColumnarBatch`] — the zero-copy fill path.
///
/// The stripe layout is already columnar, so every decoded stream lands in a
/// flat buffer without materializing per-row `Vec`s: header columns move in
/// as decoded, dense values are strided into one row-major buffer, and each
/// sparse feature's value stream decodes directly into its
/// [`SparseColumn`](recd_data::SparseColumn) with offsets prefix-summed from
/// the lengths stream.
///
/// # Errors
///
/// Returns a [`StorageError`] if decompression or any column decode fails.
pub fn decode_stripe_columnar(schema: &Schema, block: &[u8]) -> Result<ColumnarBatch> {
    let mut out = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
    decode_stripe_columnar_into(schema, block, &mut DecodeScratch::default(), &mut out)?;
    Ok(out)
}

/// Decodes a stripe into a caller-provided (typically recycled) batch,
/// clearing it first — the buffer-reusing variant of
/// [`decode_stripe_columnar`]. With a [`DecodeScratch`] and a batch that
/// have both already held a stripe at least this large, the decode performs
/// no heap allocation. On error the batch contents are unspecified (a
/// recycled batch is cleared before reuse anyway).
///
/// # Errors
///
/// Returns a [`StorageError`] if decompression or any column decode fails.
pub fn decode_stripe_columnar_into(
    schema: &Schema,
    block: &[u8],
    scratch: &mut DecodeScratch,
    out: &mut ColumnarBatch,
) -> Result<()> {
    out.reset(schema.dense_count(), schema.sparse_count());
    decode_stripe_append(block, scratch, out)?;
    check_decoded(out)
}

/// The whole-batch validation every decode entry point finishes with, once
/// per stripe or per file — not once per appended stripe.
pub(crate) fn check_decoded(out: &ColumnarBatch) -> Result<()> {
    out.check_invariants()
        .map_err(|err| StorageError::corrupt(&err.to_string()))
}

/// Decodes a stripe onto the end of `out`, which must already have the
/// stripe's column shape and satisfy the batch invariants: every stream is
/// decoded in place after the rows `out` already holds, and sparse offsets
/// continue from the values already there, so a file's stripes concatenate
/// without a staging batch.
///
/// Every count read from the block is checked against the bytes that remain
/// before anything is sized from it. The caller runs [`check_decoded`] when
/// it has appended its last stripe.
pub(crate) fn decode_stripe_append(
    block: &[u8],
    scratch: &mut DecodeScratch,
    out: &mut ColumnarBatch,
) -> Result<()> {
    lz::decompress_into(block, &mut scratch.buf)?;
    let buf = scratch.buf.as_slice();
    let (rows, mut cursor) = varint::decode_u64(buf)?;

    // A count that does not fit cannot match any decoded column below.
    let rows = usize::try_from(rows).unwrap_or(usize::MAX);

    let columns = out.columns_mut();
    let dense_cols = columns.dense_cols;
    let base_rows = columns.labels.len();

    // Each header stream bounds its own count by the bytes it has left, so
    // agreeing with all three also bounds `rows` by the block.
    cursor += delta::decode_append(&buf[cursor..], columns.sessions)?;
    cursor += delta::decode_append(&buf[cursor..], columns.requests)?;
    cursor += delta::decode_append(&buf[cursor..], columns.timestamps)?;
    if columns.sessions.len() - base_rows != rows
        || columns.requests.len() - base_rows != rows
        || columns.timestamps.len() - base_rows != rows
    {
        return Err(StorageError::corrupt("header column length mismatch"));
    }

    // Labels and dense columns are fixed-width: one length check covers both.
    let fixed = rows
        .checked_mul(4 * (1 + dense_cols))
        .and_then(|len| buf.get(cursor..cursor.checked_add(len)?))
        .ok_or_else(|| StorageError::corrupt("label or dense column truncated"))?;
    cursor += fixed.len();
    let (labels, dense) = fixed.split_at(rows * 4);
    let le_f32 = |bytes: &[u8]| f32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
    columns.labels.extend(labels.chunks_exact(4).map(le_f32));
    // Stored column-major, decoded row-major.
    let dense_base = columns.dense.len();
    columns.dense.resize(dense_base + rows * dense_cols, 0.0);
    if rows > 0 {
        let rows_out = &mut columns.dense[dense_base..];
        for (col, stream) in dense.chunks_exact(rows * 4).enumerate() {
            let slots = rows_out[col..].iter_mut().step_by(dense_cols);
            for (slot, bytes) in slots.zip(stream.chunks_exact(4)) {
                *slot = le_f32(bytes);
            }
        }
    }

    for column in columns.sparse.iter_mut() {
        cursor += varint::decode_u64_slice_into(&buf[cursor..], &mut scratch.lengths)?;
        if scratch.lengths.len() != rows {
            return Err(StorageError::corrupt(
                "sparse lengths column length mismatch",
            ));
        }
        let SparseParts {
            values,
            offsets,
            repeats,
        } = column.parts_mut();
        // A row that repeats the one before it is copied, not parsed, and
        // marked. The stripe's first row is never compared: the rows before
        // it were decoded from another block.
        let first_row = offsets.len() - 1;
        cursor +=
            varint::decode_u64_rows_append(&buf[cursor..], &scratch.lengths, values, |row| {
                repeats.resize(first_row + row, false);
                repeats.push(true);
            })?;
        // Offsets continue from the values the column already held. A
        // saturated sum cannot equal a buffer length, so overflow reads as
        // the mismatch it is.
        let mut end = *offsets.last().expect("offsets hold a leading zero");
        offsets.extend(scratch.lengths.iter().map(|&len| {
            end = end.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
            end
        }));
        if end != values.len() {
            return Err(StorageError::corrupt(
                "sparse values column length mismatch",
            ));
        }
    }
    Ok(())
}

/// The stripe decoder this module shipped before in-place decode, kept as
/// the differential oracle: every value read one at a time, every stripe
/// decoded into a batch of its own for the caller to
/// [`append`](ColumnarBatch::append).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use recd_data::SparseColumn;

    fn varint_stream(buf: &[u8], cursor: &mut usize) -> Result<Vec<u64>> {
        let (len, used) = varint::decode_u64(&buf[*cursor..])?;
        *cursor += used;
        let mut values = Vec::new();
        for _ in 0..len {
            let (v, used) = varint::decode_u64(&buf[*cursor..])?;
            values.push(v);
            *cursor += used;
        }
        Ok(values)
    }

    fn delta_stream(buf: &[u8], cursor: &mut usize) -> Result<Vec<u64>> {
        let (len, used) = varint::decode_u64(&buf[*cursor..])?;
        *cursor += used;
        let mut values = Vec::new();
        let mut prev = 0u64;
        for i in 0..len {
            if i == 0 {
                let (v, used) = varint::decode_u64(&buf[*cursor..])?;
                *cursor += used;
                prev = v;
            } else {
                let (d, used) = varint::decode_i64(&buf[*cursor..])?;
                *cursor += used;
                prev = prev.wrapping_add(d as u64);
            }
            values.push(prev);
        }
        Ok(values)
    }

    fn f32_at(buf: &[u8], cursor: &mut usize, what: &str) -> Result<f32> {
        let bytes = buf
            .get(*cursor..*cursor + 4)
            .ok_or_else(|| StorageError::corrupt(what))?;
        *cursor += 4;
        Ok(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    pub(crate) fn decode_stripe_staged(schema: &Schema, block: &[u8]) -> Result<ColumnarBatch> {
        let dense_cols = schema.dense_count();
        let buf = lz::decompress(block)?;
        let mut cursor = 0usize;
        let (rows, used) = varint::decode_u64(&buf)?;
        cursor += used;
        let rows = rows as usize;

        let sessions = delta_stream(&buf, &mut cursor)?;
        let requests = delta_stream(&buf, &mut cursor)?;
        let timestamps = delta_stream(&buf, &mut cursor)?;
        if sessions.len() != rows || requests.len() != rows || timestamps.len() != rows {
            return Err(StorageError::corrupt("header column length mismatch"));
        }
        let mut labels = Vec::new();
        for _ in 0..rows {
            labels.push(f32_at(&buf, &mut cursor, "label column truncated")?);
        }
        let mut dense = vec![0.0; rows * dense_cols];
        for col in 0..dense_cols {
            for row in 0..rows {
                dense[row * dense_cols + col] =
                    f32_at(&buf, &mut cursor, "dense column truncated")?;
            }
        }
        let mut sparse = Vec::new();
        for _ in 0..schema.sparse_count() {
            let lengths = varint_stream(&buf, &mut cursor)?;
            let values = varint_stream(&buf, &mut cursor)?;
            if lengths.len() != rows {
                return Err(StorageError::corrupt(
                    "sparse lengths column length mismatch",
                ));
            }
            sparse.push(
                SparseColumn::from_lengths(values, &lengths)
                    .map_err(|err| StorageError::corrupt(&err.to_string()))?,
            );
        }
        ColumnarBatch::from_parts(
            sessions, requests, timestamps, labels, dense, dense_cols, sparse,
        )
        .map_err(|err| StorageError::corrupt(&err.to_string()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use recd_data::{FeatureClass, RequestId, SessionId, Timestamp};
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};

    /// One drawn row: header ids, then `(value, shift)` pairs that spread
    /// the sparse ids over every varint width.
    type RawRow = (u64, u64, u64, Vec<(u64, u32)>);

    /// Strategy for a small table of any column shape, `dense_cols == 0`,
    /// `sparse_cols == 0` and zero rows included.
    pub(crate) fn table_strategy() -> impl Strategy<Value = (usize, usize, Vec<RawRow>)> {
        (
            0usize..3,
            0usize..4,
            vec(
                (
                    0u64..5,
                    any::<u64>(),
                    0u64..1 << 40,
                    vec((any::<u64>(), 0u32..64), 0..12),
                ),
                0..40,
            ),
        )
    }

    /// Expands a drawn table into a schema and samples: each row's ids are
    /// dealt round-robin over the sparse features.
    pub(crate) fn build_table(
        dense_cols: usize,
        sparse_cols: usize,
        raw: &[RawRow],
    ) -> (Schema, Vec<Sample>) {
        let mut builder = Schema::builder();
        for d in 0..dense_cols {
            builder = builder.dense(&format!("d{d}"));
        }
        for f in 0..sparse_cols {
            builder = builder.sparse(&format!("f{f}"), FeatureClass::User, 2.0, 0.5, 1000);
        }
        let schema = builder.build().unwrap();
        let samples = raw
            .iter()
            .map(|(session, request, millis, ids)| {
                let mut sparse = vec![Vec::new(); sparse_cols];
                for (i, &(id, shift)) in ids.iter().enumerate() {
                    if sparse_cols > 0 {
                        sparse[i % sparse_cols].push(id >> shift);
                    }
                }
                Sample::builder(
                    SessionId::new(*session),
                    RequestId::new(*request),
                    Timestamp::from_millis(*millis),
                )
                .label((request % 3) as f32)
                .dense(
                    (0..dense_cols)
                        .map(|d| (request % 7) as f32 + d as f32)
                        .collect(),
                )
                .sparse(sparse)
                .build()
            })
            .collect();
        (schema, samples)
    }

    proptest! {
        #[test]
        fn in_place_decode_matches_the_staged_oracle(
            (dense_cols, sparse_cols, raw) in table_strategy(),
        ) {
            let (schema, samples) = build_table(dense_cols, sparse_cols, &raw);
            let (block, _) = encode_stripe(&schema, &samples);
            let staged = oracle::decode_stripe_staged(&schema, &block).unwrap();
            let mut scratch = DecodeScratch::default();
            let mut out = ColumnarBatch::default();
            decode_stripe_columnar_into(&schema, &block, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(&out, &staged);
            prop_assert_eq!(out.to_samples(), samples);
            out.check_repeats().unwrap();
            // Appending a second copy continues every column and offset.
            decode_stripe_append(&block, &mut scratch, &mut out).unwrap();
            check_decoded(&out).unwrap();
            let mut twice = staged.clone();
            twice.append(&staged).unwrap();
            prop_assert_eq!(&out, &twice);
            out.check_repeats().unwrap();
        }
    }

    #[test]
    fn a_row_count_the_block_cannot_hold_is_corrupt_not_an_allocation() {
        // A stripe of the right shape whose row count claims 2^40 rows.
        let (schema, _) = partition();
        let mut buf = Vec::new();
        varint::encode_u64(1 << 40, &mut buf);
        buf.extend_from_slice(&delta::encode(&[1, 2, 3]));
        let block = lz::compress(&buf);
        assert!(matches!(
            decode_stripe_columnar(&schema, &block),
            Err(StorageError::Corrupt { .. } | StorageError::Codec(_))
        ));
    }

    fn partition() -> (Schema, Vec<Sample>) {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let p = gen.generate_partition();
        (p.schema, p.samples)
    }

    #[test]
    fn round_trip_preserves_every_row() {
        let (schema, samples) = partition();
        let stripe_rows = &samples[..64.min(samples.len())];
        let (block, stats) = encode_stripe(&schema, stripe_rows);
        assert_eq!(stats.rows, stripe_rows.len());
        assert!(stats.compressed_bytes > 0);
        assert!(stats.encoded_bytes >= stats.compressed_bytes);
        let decoded = decode_stripe_columnar(&schema, &block).unwrap();
        assert_eq!(decoded.to_samples(), stripe_rows);
    }

    #[test]
    fn columnar_decode_reads_rows_in_place() {
        let (schema, samples) = partition();
        let stripe_rows = &samples[..128.min(samples.len())];
        let (block, _) = encode_stripe(&schema, stripe_rows);
        let columnar = decode_stripe_columnar(&schema, &block).unwrap();
        assert_eq!(columnar.len(), stripe_rows.len());
        assert_eq!(columnar.dense_cols(), schema.dense_count());
        assert_eq!(columnar.sparse_cols(), schema.sparse_count());
        assert_eq!(columnar.to_samples(), stripe_rows);
        // The columnar view reads individual rows without materializing them.
        for (i, sample) in stripe_rows.iter().enumerate() {
            assert_eq!(columnar.session_id(i), sample.session_id);
            assert_eq!(columnar.labels()[i], sample.label);
            for (f, list) in sample.sparse.iter().enumerate() {
                assert_eq!(columnar.sparse_row(f, i), list.as_slice());
            }
        }
    }

    #[test]
    fn empty_stripe_round_trip() {
        let (schema, _) = partition();
        let (block, stats) = encode_stripe(&schema, &[]);
        assert_eq!(stats.rows, 0);
        assert!(decode_stripe_columnar(&schema, &block).unwrap().is_empty());
    }

    #[test]
    fn clustered_rows_compress_better_than_interleaved() {
        // The storage-level mechanism behind O2: adjacent duplicate rows in a
        // stripe compress better.
        let (schema, samples) = partition();
        let mut clustered = samples.clone();
        clustered.sort_by_key(|s| (s.session_id, s.timestamp));
        let take = 128.min(samples.len());
        let (_, interleaved_stats) = encode_stripe(&schema, &samples[..take]);
        let (_, clustered_stats) = encode_stripe(&schema, &clustered[..take]);
        assert!(
            clustered_stats.compression_ratio() > interleaved_stats.compression_ratio(),
            "clustered {:.2} vs interleaved {:.2}",
            clustered_stats.compression_ratio(),
            interleaved_stats.compression_ratio()
        );
    }
}
