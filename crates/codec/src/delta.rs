//! Delta encoding for monotone or slowly-varying integer streams.
//!
//! Offset streams in jagged tensors and timestamp columns are monotonically
//! non-decreasing, so storing first-order differences followed by zigzag
//! varints shrinks them dramatically.

use crate::varint;
use crate::Result;

/// Delta-encodes a sequence of `u64` values into a byte stream.
///
/// The first value is stored verbatim (as a varint); subsequent values are
/// stored as zigzag-encoded differences from their predecessor.
pub fn encode(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() + 8);
    varint::encode_u64(values.len() as u64, &mut out);
    let mut prev: u64 = 0;
    for (i, &v) in values.iter().enumerate() {
        if i == 0 {
            varint::encode_u64(v, &mut out);
        } else {
            // Wrapping difference so arbitrary u64 values (not just monotone
            // offsets) round-trip; the decoder applies a wrapping add.
            let delta = v.wrapping_sub(prev) as i64;
            varint::encode_i64(delta, &mut out);
        }
        prev = v;
    }
    out
}

/// Decodes a stream produced by [`encode`], returning the values and the
/// number of bytes consumed.
///
/// # Errors
///
/// Returns a [`CodecError`](crate::CodecError) if the stream is truncated.
pub fn decode(input: &[u8]) -> Result<(Vec<u64>, usize)> {
    let mut values = Vec::new();
    let cursor = decode_into(input, &mut values)?;
    Ok((values, cursor))
}

/// Decodes a stream produced by [`encode`] into a caller-provided buffer,
/// clearing it first, and returns the number of bytes consumed — the
/// allocation-free variant of [`decode`] for callers that recycle buffers
/// across streams.
///
/// # Errors
///
/// Returns a [`CodecError`](crate::CodecError) if the stream is truncated.
pub fn decode_into(input: &[u8], values: &mut Vec<u64>) -> Result<usize> {
    values.clear();
    decode_append(input, values)
}

/// Decodes a stream produced by [`encode`] onto the end of `values`, leaving
/// what is already there in place, and returns the number of bytes
/// consumed. On error the appended tail is unspecified.
///
/// # Errors
///
/// Returns a [`CodecError`](crate::CodecError) if the stream is truncated.
pub fn decode_append(input: &[u8], values: &mut Vec<u64>) -> Result<usize> {
    let (count, mut cursor) = varint::decode_count(input)?;
    let base = values.len();
    values.resize(base + count, 0);
    let Some((first, rest)) = values[base..].split_first_mut() else {
        return Ok(cursor);
    };
    let (mut prev, used) = varint::decode_u64(&input[cursor..])?;
    *first = prev;
    cursor += used;
    cursor += varint::decode_run(&input[cursor..], rest, |raw| {
        prev = prev.wrapping_add(varint::zigzag_decode(raw) as u64);
        prev
    })?;
    Ok(cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecError;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The value-at-a-time decoder this module shipped before the windowed
    /// one, kept as its differential oracle.
    fn decode_bytewise(input: &[u8], values: &mut Vec<u64>) -> Result<usize> {
        let (len, mut cursor) = varint::decode_u64(input)?;
        values.clear();
        let mut prev: u64 = 0;
        for i in 0..len {
            if i == 0 {
                let (v, used) = varint::decode_u64(&input[cursor..])?;
                cursor += used;
                prev = v;
            } else {
                let (d, used) = varint::decode_i64(&input[cursor..])?;
                cursor += used;
                prev = prev.wrapping_add(d as u64);
            }
            values.push(prev);
        }
        Ok(cursor)
    }

    proptest! {
        #[test]
        fn windowed_decode_matches_bytewise(
            raw in vec((any::<u64>(), 0u32..64), 0..40),
            trailing in vec(any::<u8>(), 0..12),
        ) {
            let values: Vec<u64> = raw.iter().map(|&(v, shift)| v >> shift).collect();
            let mut encoded = encode(&values);
            let stream_len = encoded.len();
            encoded.extend_from_slice(&trailing);
            for cut in (0..stream_len).chain([encoded.len()]) {
                let (mut new, mut old) = (vec![7u64; 3], Vec::new());
                let got = decode_into(&encoded[..cut], &mut new);
                prop_assert_eq!(&got, &decode_bytewise(&encoded[..cut], &mut old));
                if got.is_ok() {
                    prop_assert_eq!(&new, &old);
                }
            }
            let mut decoded = vec![9u64];
            prop_assert_eq!(decode_append(&encoded, &mut decoded), Ok(stream_len));
            prop_assert_eq!(decoded[0], 9);
            prop_assert_eq!(&decoded[1..], &values[..]);
        }
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_rejected_before_sizing_anything() {
        let mut forged = Vec::new();
        varint::encode_u64(1 << 62, &mut forged);
        forged.extend_from_slice(&[1, 2, 3]);
        let mut values = Vec::new();
        assert!(matches!(
            decode_into(&forged, &mut values),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(values.capacity(), 0);
    }

    #[test]
    fn round_trip_monotone_offsets() {
        let offsets: Vec<u64> = (0..1000u64).map(|i| i * 37).collect();
        let encoded = encode(&offsets);
        // 1000 values of magnitude up to 37k raw would take >2 bytes each as
        // plain varints; constant deltas of 37 take 1 byte each.
        assert!(encoded.len() < 1100);
        let (decoded, used) = decode(&encoded).unwrap();
        assert_eq!(decoded, offsets);
        assert_eq!(used, encoded.len());
    }

    #[test]
    fn round_trip_non_monotone_values() {
        let values = vec![10u64, 3, 3, 900, 0, u64::MAX, 1];
        let (decoded, _) = decode(&encode(&values)).unwrap();
        assert_eq!(decoded, values);
    }

    #[test]
    fn round_trip_empty_and_single() {
        assert_eq!(decode(&encode(&[])).unwrap().0, Vec::<u64>::new());
        assert_eq!(decode(&encode(&[7])).unwrap().0, vec![7]);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let encoded = encode(&[1, 2, 3, 4, 5]);
        assert!(matches!(
            decode(&encoded[..encoded.len() - 1]),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }
}
