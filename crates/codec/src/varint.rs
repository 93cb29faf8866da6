//! LEB128 variable-length integer encoding, plus zigzag encoding for signed
//! values.
//!
//! Varints are the base encoding for every numeric stream in the DWRF-like
//! columnar format: lengths, offsets, dictionary codes, and delta streams.

use crate::{CodecError, Result};

/// Maximum number of bytes a `u64` varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the varint encoding of `value` to `out` and returns the number of
/// bytes written.
pub fn encode_u64(value: u64, out: &mut Vec<u8>) -> usize {
    let mut v = value;
    let mut written = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        written += 1;
        if v == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Writes the varint encoding of `value` to the front of `buf` and returns
/// the number of bytes written — [`encode_u64`] for callers that sized a
/// whole record's worth of output once instead of growing a `Vec` per byte.
///
/// # Panics
///
/// Panics if `buf` is shorter than the encoding ([`MAX_VARINT_LEN`] bytes
/// always suffice).
#[inline]
pub fn write_u64(mut value: u64, buf: &mut [u8]) -> usize {
    let mut written = 0;
    while value >= 0x80 {
        buf[written] = value as u8 | 0x80;
        value >>= 7;
        written += 1;
    }
    buf[written] = value as u8;
    written + 1
}

/// Decodes a varint from the front of `input`, returning the value and the
/// number of bytes consumed.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] if the input ends mid-varint and
/// [`CodecError::VarintOverflow`] if the encoding exceeds
/// [`MAX_VARINT_LEN`] bytes.
#[inline]
pub fn decode_u64(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(CodecError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof { context: "varint" })
}

/// Decodes the varint at `*cursor` in `input` and advances the cursor past
/// it — [`decode_u64`] for callers walking a buffer.
///
/// # Errors
///
/// Same error conditions as [`decode_u64`]; the cursor is left where it was.
///
/// # Panics
///
/// Panics if `*cursor > input.len()`.
#[inline]
pub fn read_u64(input: &[u8], cursor: &mut usize) -> Result<u64> {
    let (value, used) = decode_u64(&input[*cursor..])?;
    *cursor += used;
    Ok(value)
}

/// Zigzag-encodes a signed integer so small magnitudes use few varint bytes.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends the zigzag varint encoding of a signed value.
pub fn encode_i64(value: i64, out: &mut Vec<u8>) -> usize {
    encode_u64(zigzag_encode(value), out)
}

/// Decodes a zigzag varint from the front of `input`.
///
/// # Errors
///
/// Same error conditions as [`decode_u64`].
pub fn decode_i64(input: &[u8]) -> Result<(i64, usize)> {
    let (raw, used) = decode_u64(input)?;
    Ok((zigzag_decode(raw), used))
}

/// Encodes a slice of `u64` values as back-to-back varints.
pub fn encode_u64_slice(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    encode_u64_seq(values.len(), values.iter().copied(), &mut out);
    out
}

/// Appends the [`encode_u64_slice`] encoding of the `count` values the
/// iterator yields — for callers whose values are not contiguous in memory
/// and would otherwise have to gather them first.
///
/// # Panics
///
/// Panics if the iterator does not yield exactly `count` values.
pub fn encode_u64_seq(count: usize, values: impl Iterator<Item = u64>, out: &mut Vec<u8>) {
    encode_u64(count as u64, out);
    let mut written = 0usize;
    for v in values {
        encode_u64(v, out);
        written += 1;
    }
    assert_eq!(written, count, "declared and yielded value counts differ");
}

/// Decodes a slice previously produced by [`encode_u64_slice`], returning the
/// values and the number of bytes consumed.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream is truncated or malformed.
pub fn decode_u64_slice(input: &[u8]) -> Result<(Vec<u64>, usize)> {
    let mut values = Vec::new();
    let cursor = decode_u64_slice_into(input, &mut values)?;
    Ok((values, cursor))
}

/// Decodes a slice previously produced by [`encode_u64_slice`] into a
/// caller-provided buffer, clearing it first, and returns the number of
/// bytes consumed — the allocation-free variant of [`decode_u64_slice`] for
/// callers that recycle buffers across streams.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream is truncated or malformed.
pub fn decode_u64_slice_into(input: &[u8], values: &mut Vec<u64>) -> Result<usize> {
    values.clear();
    decode_u64_slice_append(input, values)
}

/// Decodes a slice previously produced by [`encode_u64_slice`] onto the end
/// of `values`, leaving what is already there in place, and returns the
/// number of bytes consumed. On error the appended tail is unspecified.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream is truncated or malformed.
pub fn decode_u64_slice_append(input: &[u8], values: &mut Vec<u64>) -> Result<usize> {
    let (count, cursor) = decode_count(input)?;
    let base = values.len();
    values.resize(base + count, 0);
    let used = decode_run(&input[cursor..], &mut values[base..], |raw| raw)?;
    Ok(cursor + used)
}

/// How many consecutive rows that repeat nothing [`decode_u64_rows_append`]
/// decodes one by one before it decodes the rest of the stream whole: a
/// stream whose rows do not repeat pays the row walk for a few rows, not
/// for all of them.
const ROWS_BEFORE_WHOLE: usize = 4;

/// Decodes a stream written by [`encode_u64_slice`] onto the end of
/// `values`, as [`decode_u64_slice_append`] does, reading it as rows of the
/// given `lengths`: a row as long as the one before whose encoded bytes
/// equal that row's is copied from the decoded values, not parsed, and its
/// index is passed to `on_repeat`. Values, the returned byte count and every
/// error are those of [`decode_u64_slice_append`].
///
/// A row costs one length compare, and a byte compare only when the
/// lengths are equal. After [`ROWS_BEFORE_WHOLE`] rows in a row that
/// repeat nothing, or at a row that would run past the stream's value
/// count, the rest of the stream is decoded whole and no later row is
/// reported — a row not reported is only a repeat not found. Lengths that
/// do not sum to the value count are the caller's to reject.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream is truncated or malformed.
pub fn decode_u64_rows_append(
    input: &[u8],
    lengths: &[u64],
    values: &mut Vec<u64>,
    mut on_repeat: impl FnMut(usize),
) -> Result<usize> {
    let (count, mut cursor) = decode_count(input)?;
    let base = values.len();
    values.resize(base + count, 0);
    let mut at = base;
    // The previous row's length and where its bytes start; they end where
    // this row's start.
    let (mut prev_len, mut prev_start) = (None, cursor);
    let mut misses = 0;
    for (row, &len) in lengths.iter().enumerate() {
        let (len, start) = (usize::try_from(len).unwrap_or(usize::MAX), cursor);
        let Some(end) = at.checked_add(len).filter(|&end| end <= values.len()) else {
            break;
        };
        if misses == ROWS_BEFORE_WHOLE {
            break;
        }
        if prev_len == Some(len) {
            let prev = &input[prev_start..start];
            let here = input.get(start..start + prev.len()).unwrap_or_default();
            // The first byte settles most mismatches without a call.
            if here.first() == prev.first() && here == prev {
                // The same bytes decode to the same values: copy them.
                values.copy_within(at - len..at, at);
                (at, cursor, prev_start, misses) = (end, cursor + prev.len(), start, 0);
                on_repeat(row);
                continue;
            }
        }
        cursor += decode_run(&input[cursor..], &mut values[at..end], |raw| raw)?;
        (at, prev_len, prev_start, misses) = (end, Some(len), start, misses + 1);
    }
    cursor += decode_run(&input[cursor..], &mut values[at..], |raw| raw)?;
    Ok(cursor)
}

/// Reads the value count that prefixes a varint stream. A varint occupies at
/// least one byte, so a count larger than the remaining input is a truncated
/// (or corrupt) stream — rejected here, before anything is sized from it.
pub(crate) fn decode_count(input: &[u8]) -> Result<(usize, usize)> {
    let (count, cursor) = decode_u64(input)?;
    match usize::try_from(count) {
        Ok(count) if count <= input.len() - cursor => Ok((count, cursor)),
        _ => Err(CodecError::UnexpectedEof { context: "varint" }),
    }
}

/// Decodes `out.len()` back-to-back varints from the front of `input`,
/// storing `map(raw)` for each, and returns the number of bytes consumed.
///
/// While at least [`MAX_VARINT_LEN`] bytes remain a value is decoded from a
/// fixed-size window — one bounds decision per value, none per byte — and
/// the last few values fall back to [`decode_u64`], as does a malformed
/// value, so both paths report the same error.
#[inline]
pub(crate) fn decode_run(
    input: &[u8],
    out: &mut [u64],
    mut map: impl FnMut(u64) -> u64,
) -> Result<usize> {
    let mut cursor = 0usize;
    let mut done = 0usize;
    'window: while done < out.len() {
        let Some(window) = input.get(cursor..cursor + MAX_VARINT_LEN) else {
            break;
        };
        let window: &[u8; MAX_VARINT_LEN] = window.try_into().expect("window length");
        let mut value = 0u64;
        for (i, &byte) in window.iter().enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                out[done] = map(value);
                done += 1;
                cursor += i + 1;
                continue 'window;
            }
        }
        // Ten continuation bytes: the byte loop below names the error.
        break;
    }
    for slot in &mut out[done..] {
        let (value, used) = decode_u64(&input[cursor..])?;
        *slot = map(value);
        cursor += used;
    }
    Ok(cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The value-at-a-time slice decoder this module shipped before the
    /// windowed one, kept as its differential oracle.
    fn decode_u64_slice_bytewise(input: &[u8], values: &mut Vec<u64>) -> Result<usize> {
        let (len, mut cursor) = decode_u64(input)?;
        values.clear();
        for _ in 0..len {
            let (v, used) = decode_u64(&input[cursor..])?;
            values.push(v);
            cursor += used;
        }
        Ok(cursor)
    }

    /// Asserts the windowed and byte-wise decoders agree on `input`: same
    /// values and cursor, or the same error.
    fn assert_matches_bytewise(input: &[u8]) {
        let (mut new, mut old) = (vec![7u64; 3], Vec::new());
        let got = decode_u64_slice_into(input, &mut new);
        let want = decode_u64_slice_bytewise(input, &mut old);
        assert_eq!(got, want, "input {input:?}");
        if want.is_ok() {
            assert_eq!(new, old, "input {input:?}");
        }
    }

    proptest! {
        #[test]
        fn windowed_slice_decode_matches_bytewise(
            raw in vec((any::<u64>(), 0u32..64), 0..40),
            trailing in vec(any::<u8>(), 0..12),
        ) {
            // Shifting spreads the values over every encoded width, and the
            // trailing bytes move the window/tail boundary across the stream.
            let values: Vec<u64> = raw.iter().map(|&(v, shift)| v >> shift).collect();
            let mut encoded = encode_u64_slice(&values);
            let stream_len = encoded.len();
            encoded.extend_from_slice(&trailing);
            let mut decoded = Vec::new();
            prop_assert_eq!(decode_u64_slice_into(&encoded, &mut decoded), Ok(stream_len));
            prop_assert_eq!(&decoded, &values);
            assert_matches_bytewise(&encoded);
            for cut in 0..stream_len {
                assert_matches_bytewise(&encoded[..cut]);
            }
        }
    }

    /// Asserts the row-wise decoder matches the whole-stream one on
    /// `input` read as rows of `lengths` — same values and cursor, or the
    /// same error — and that every row it reports equals its predecessor.
    fn assert_rows_match_whole(input: &[u8], lengths: &[u64]) {
        let (mut rows, mut whole) = (vec![9u64], vec![9u64]);
        let mut repeats = Vec::new();
        let got = decode_u64_rows_append(input, lengths, &mut rows, |row| repeats.push(row));
        let want = decode_u64_slice_append(input, &mut whole);
        assert_eq!(got, want, "input {input:?} lengths {lengths:?}");
        if want.is_err() {
            return;
        }
        assert_eq!(rows, whole);
        let mut offsets = vec![1usize];
        for &len in lengths {
            offsets.push(offsets.last().unwrap() + len as usize);
        }
        for row in repeats {
            assert!(row > 0);
            let this = &rows[offsets[row]..offsets[row + 1]];
            let before = &rows[offsets[row - 1]..offsets[row]];
            assert_eq!(this, before, "row {row} reported as a repeat");
        }
    }

    proptest! {
        #[test]
        fn row_wise_decode_matches_the_whole_stream(
            pool in vec((any::<u64>(), 0u32..64), 1..6),
            picks in vec((0usize..6, 0usize..4), 0..24),
            trailing in vec(any::<u8>(), 0..12),
        ) {
            // Rows drawn from a small pool repeat often, and a row of the
            // same length with other ids exercises the failed compare.
            let mut values = Vec::new();
            let mut lengths = Vec::new();
            for &(pick, len) in &picks {
                for i in 0..len {
                    let (v, shift) = pool[(pick + i) % pool.len()];
                    values.push(v >> shift);
                }
                lengths.push(len as u64);
            }
            let mut encoded = encode_u64_slice(&values);
            let stream_len = encoded.len();
            encoded.extend_from_slice(&trailing);
            assert_rows_match_whole(&encoded, &lengths);
            for cut in 0..stream_len {
                assert_rows_match_whole(&encoded[..cut], &lengths);
            }
            // Lengths that do not tile the stream decode it whole.
            let mut short = lengths.clone();
            short.push(1);
            assert_rows_match_whole(&encoded, &short);
        }
    }

    #[test]
    fn equal_rows_are_copied_and_reported() {
        let encoded = encode_u64_slice(&[5, 300, 5, 300, 5, 301, 7, 7, 7]);
        let mut values = Vec::new();
        let mut repeats = Vec::new();
        let used = decode_u64_rows_append(&encoded, &[2, 2, 2, 0, 0, 1, 1, 1], &mut values, |r| {
            repeats.push(r)
        });
        assert_eq!(used, Ok(encoded.len()));
        assert_eq!(values, [5, 300, 5, 300, 5, 301, 7, 7, 7]);
        // Row 2 fails the byte compare; empty row 4 repeats empty row 3.
        assert_eq!(repeats, [1, 4, 6, 7]);
    }

    #[test]
    fn rows_that_stop_repeating_are_decoded_whole() {
        // Four rows repeat nothing, so the repeat of row 3 by row 4 is
        // decoded, not found.
        let encoded = encode_u64_slice(&[1, 2, 2, 3, 4, 4, 4]);
        let mut values = Vec::new();
        let mut repeats = Vec::new();
        let used = decode_u64_rows_append(&encoded, &[1, 2, 1, 1, 1, 1], &mut values, |r| {
            repeats.push(r)
        });
        assert_eq!(used, Ok(encoded.len()));
        assert_eq!(values, [1, 2, 2, 3, 4, 4, 4]);
        assert!(repeats.is_empty(), "{repeats:?}");
    }

    #[test]
    fn widest_values_decode_in_the_window_and_in_the_tail() {
        // 9- and 10-byte encodings, alone and followed by 0..=11 bytes, so
        // each is decoded once by the tail loop and once from a full window.
        for value in [1u64 << 56, (1 << 63) - 1, 1 << 63, u64::MAX] {
            for padding in 0..12 {
                let mut encoded = encode_u64_slice(&[3, value, 5]);
                encoded.extend(std::iter::repeat_n(0xffu8, padding));
                let mut decoded = Vec::new();
                decode_u64_slice_into(&encoded, &mut decoded).unwrap();
                assert_eq!(decoded, [3, value, 5]);
                assert_matches_bytewise(&encoded);
            }
        }
    }

    #[test]
    fn overlong_values_error_the_same_way_in_window_and_tail() {
        for continuation_bytes in 9..13 {
            for padding in [0usize, 1, 12] {
                let mut encoded = vec![2u8, 1];
                encoded.extend(std::iter::repeat_n(0x80u8, continuation_bytes));
                encoded.extend(std::iter::repeat_n(0u8, padding));
                assert_matches_bytewise(&encoded);
            }
        }
    }

    #[test]
    fn append_keeps_what_the_buffer_held() {
        let mut values = vec![1u64, 2];
        let encoded = encode_u64_slice(&[300, u64::MAX]);
        assert_eq!(
            decode_u64_slice_append(&encoded, &mut values),
            Ok(encoded.len())
        );
        assert_eq!(values, [1, 2, 300, u64::MAX]);
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_rejected_before_sizing_anything() {
        // Claims 2^62 values with three bytes of payload.
        let mut forged = Vec::new();
        encode_u64(1 << 62, &mut forged);
        forged.extend_from_slice(&[1, 2, 3]);
        let mut values = Vec::new();
        assert!(matches!(
            decode_u64_slice_into(&forged, &mut values),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(values.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "declared and yielded value counts differ")]
    fn a_seq_that_yields_fewer_values_than_declared_panics() {
        encode_u64_seq(3, [1u64, 2].into_iter(), &mut Vec::new());
    }

    #[test]
    fn round_trip_u64_boundaries() {
        for value in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let written = encode_u64(value, &mut buf);
            assert_eq!(written, buf.len());
            let (decoded, used) = decode_u64(&buf).unwrap();
            assert_eq!(decoded, value);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn round_trip_i64_boundaries() {
        for value in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode_i64(value, &mut buf);
            let (decoded, _) = decode_i64(&buf).unwrap();
            assert_eq!(decoded, value);
        }
    }

    #[test]
    fn small_values_use_one_byte() {
        let mut buf = Vec::new();
        encode_u64(100, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        buf.truncate(3);
        assert!(matches!(
            decode_u64(&buf),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            decode_u64(&[]),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_an_error() {
        let buf = [0x80u8; 11];
        assert!(matches!(decode_u64(&buf), Err(CodecError::VarintOverflow)));
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in [-1000i64, -3, 0, 3, 1000] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn slice_round_trip_and_trailing_bytes() {
        let values = vec![5u64, 0, 123_456_789, 42];
        let mut encoded = encode_u64_slice(&values);
        encoded.extend_from_slice(&[0xde, 0xad]);
        let (decoded, used) = decode_u64_slice(&encoded).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(used, encoded.len() - 2);
    }

    #[test]
    fn empty_slice_round_trip() {
        let encoded = encode_u64_slice(&[]);
        let (decoded, used) = decode_u64_slice(&encoded).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(used, encoded.len());
    }
}
