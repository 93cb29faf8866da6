//! A self-contained LZ77-style block compressor — the repository's stand-in
//! for zstd.
//!
//! The format is a sequence of tokens, each describing a literal run followed
//! by an optional back-reference match:
//!
//! ```text
//! block     := varint(decompressed_len) token*
//! token     := varint(literal_len) literal_bytes
//!              [ varint(match_len) varint(distance) ]   -- absent in the final token
//! ```
//!
//! Matching uses a hash table over 4-byte prefixes with greedy extension,
//! which is enough to capture the redundancy RecD cares about: repeated
//! feature value lists that become adjacent once logs are sharded and tables
//! are clustered by session id.

use crate::varint;
use crate::{CodecError, Result};

/// Minimum match length worth encoding (shorter matches cost more than
/// literals).
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance. 64 KiB keeps the hash-table small while
/// comfortably spanning a stripe's worth of adjacent duplicate rows.
const MAX_DISTANCE: usize = 64 * 1024;
/// Number of hash-table buckets (power of two).
const HASH_BUCKETS: usize = 1 << 15;

/// The four bytes at `pos`, as the word the match finder hashes and compares.
#[inline]
fn load4(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4-byte window"))
}

#[inline]
fn hash4(word: u32) -> usize {
    ((word.wrapping_mul(2_654_435_761)) >> 17) as usize & (HASH_BUCKETS - 1)
}

/// Length of the common prefix of `a` and `b`, compared eight bytes at a
/// time: the first differing byte of a word is its lowest set XOR bit.
#[inline]
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return len + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Compresses a block of bytes.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    varint::encode_u64(data.len() as u64, &mut out);
    if data.is_empty() {
        return out;
    }

    // head[h] = most recent position whose 4-byte prefix hashed to h.
    let mut head = vec![usize::MAX; HASH_BUCKETS];
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    while pos + MIN_MATCH <= data.len() {
        let word = load4(data, pos);
        let h = hash4(word);
        let candidate = head[h];
        head[h] = pos;

        // A candidate whose first four bytes differ cannot reach MIN_MATCH:
        // one word compare rejects it (most candidates, on low-redundancy
        // input) before anything is sliced for the prefix scan.
        let match_len = if candidate != usize::MAX
            && pos - candidate <= MAX_DISTANCE
            && load4(data, candidate) == word
        {
            // Extend the match as far as it goes.
            common_prefix_len(&data[candidate..], &data[pos..])
        } else {
            0
        };

        if match_len >= MIN_MATCH {
            let distance = pos - candidate;
            // Emit literal run followed by the match.
            let literals = &data[literal_start..pos];
            varint::encode_u64(literals.len() as u64, &mut out);
            out.extend_from_slice(literals);
            varint::encode_u64(match_len as u64, &mut out);
            varint::encode_u64(distance as u64, &mut out);

            // Index a few positions inside the match so later data can refer
            // back into it, then skip past it.
            let end = pos + match_len;
            let mut p = pos + 1;
            while p + MIN_MATCH <= end && p + MIN_MATCH <= data.len() {
                head[hash4(load4(data, p))] = p;
                p += 1;
            }
            pos = end;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }

    // Final literal-only token.
    let literals = &data[literal_start..];
    varint::encode_u64(literals.len() as u64, &mut out);
    out.extend_from_slice(literals);
    out
}

/// Decompresses a block produced by [`compress`].
///
/// # Errors
///
/// Returns a [`CodecError`] if the block is truncated, a match references
/// data before the start of the output, or the declared length does not match
/// the decoded content.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Largest up-front reservation made on the word of a block's declared
/// length. The declared length is input, and a match token of three bytes
/// can legitimately expand to megabytes, so nothing in the block bounds it;
/// past this cap the output grows as bytes are actually produced.
const MAX_UPFRONT_RESERVE: usize = 1 << 20;

/// Reads a length at `*cursor`, advancing it. A length that does not fit in
/// `usize` cannot be satisfied by any buffer; saturating keeps the caller's
/// range checks simple.
#[inline]
fn read_len(data: &[u8], cursor: &mut usize) -> Result<usize> {
    let value = varint::read_u64(data, cursor)?;
    Ok(usize::try_from(value).unwrap_or(usize::MAX))
}

/// Decompresses a block produced by [`compress`] into a caller-provided
/// buffer, clearing it first — the allocation-free variant of
/// [`decompress`] for callers that recycle a scratch buffer across blocks.
/// On error the buffer contents are unspecified.
///
/// Matched bytes are copied in bulk: a match that does not overlap its own
/// output is one `extend_from_within`, and an overlapping one (distance <
/// length, i.e. a run with period `distance`) copies everything produced
/// since the match source on each pass, doubling the run until it is long
/// enough.
///
/// # Errors
///
/// Same error conditions as [`decompress`].
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let mut cursor = 0usize;
    let expected_len = read_len(data, &mut cursor)?;
    out.clear();
    out.reserve(expected_len.min(MAX_UPFRONT_RESERVE));

    while out.len() < expected_len {
        let literal_len = read_len(data, &mut cursor)?;
        let literals = cursor
            .checked_add(literal_len)
            .and_then(|end| data.get(cursor..end))
            .ok_or(CodecError::UnexpectedEof {
                context: "lz literal run",
            })?;
        out.extend_from_slice(literals);
        cursor += literal_len;

        if out.len() >= expected_len || cursor >= data.len() {
            // The block is complete, or no match token follows the final
            // literal run.
            break;
        }

        let match_len = read_len(data, &mut cursor)?;
        let distance = read_len(data, &mut cursor)?;
        if distance == 0 || distance > out.len() {
            return Err(CodecError::InvalidMatch {
                distance,
                produced: out.len(),
            });
        }
        // Reject an overrunning match before copying it: a corrupt length
        // must not size the output.
        if match_len > expected_len - out.len() {
            return Err(CodecError::LengthMismatch {
                expected: expected_len,
                actual: out.len().saturating_add(match_len),
            });
        }
        let start = out.len() - distance;
        let mut remaining = match_len;
        while remaining > 0 {
            let chunk = remaining.min(out.len() - start);
            out.extend_from_within(start..start + chunk);
            remaining -= chunk;
        }
    }

    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The byte-at-a-time decoder this module shipped before bulk match
    /// copy, kept as its differential oracle. (It sizes nothing up front, so
    /// feed it only blocks whose lengths are small.)
    fn decompress_bytewise(data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let (expected_len, mut cursor) = varint::decode_u64(data)?;
        let expected_len = expected_len as usize;
        out.clear();
        while out.len() < expected_len {
            let (literal_len, used) = varint::decode_u64(&data[cursor..])?;
            cursor += used;
            let literal_len = literal_len as usize;
            if cursor + literal_len > data.len() {
                return Err(CodecError::UnexpectedEof {
                    context: "lz literal run",
                });
            }
            out.extend_from_slice(&data[cursor..cursor + literal_len]);
            cursor += literal_len;
            if out.len() >= expected_len || cursor >= data.len() {
                break;
            }
            let (match_len, used) = varint::decode_u64(&data[cursor..])?;
            cursor += used;
            let (distance, used) = varint::decode_u64(&data[cursor..])?;
            cursor += used;
            let (match_len, distance) = (match_len as usize, distance as usize);
            if distance == 0 || distance > out.len() {
                return Err(CodecError::InvalidMatch {
                    distance,
                    produced: out.len(),
                });
            }
            let start = out.len() - distance;
            for i in 0..match_len {
                let byte = out[start + i];
                out.push(byte);
            }
        }
        if out.len() != expected_len {
            return Err(CodecError::LengthMismatch {
                expected: expected_len,
                actual: out.len(),
            });
        }
        Ok(())
    }

    /// `compress` as this module shipped it before the word-compare reject:
    /// every in-range candidate goes to the prefix scan. Kept verbatim as
    /// the differential oracle — the stored bytes may not change.
    fn compress_unfiltered(data: &[u8]) -> Vec<u8> {
        let hash4 = |bytes: &[u8]| {
            let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            ((v.wrapping_mul(2_654_435_761)) >> 17) as usize & (HASH_BUCKETS - 1)
        };
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        varint::encode_u64(data.len() as u64, &mut out);
        if data.is_empty() {
            return out;
        }

        let mut head = vec![usize::MAX; HASH_BUCKETS];
        let mut literal_start = 0usize;
        let mut pos = 0usize;

        while pos + MIN_MATCH <= data.len() {
            let h = hash4(&data[pos..]);
            let candidate = head[h];
            head[h] = pos;

            let match_len = if candidate != usize::MAX && pos - candidate <= MAX_DISTANCE {
                common_prefix_len(&data[candidate..], &data[pos..])
            } else {
                0
            };

            if match_len >= MIN_MATCH {
                let distance = pos - candidate;
                let literals = &data[literal_start..pos];
                varint::encode_u64(literals.len() as u64, &mut out);
                out.extend_from_slice(literals);
                varint::encode_u64(match_len as u64, &mut out);
                varint::encode_u64(distance as u64, &mut out);

                let end = pos + match_len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= end && p + MIN_MATCH <= data.len() {
                    head[hash4(&data[p..])] = p;
                    p += 1;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }

        let literals = &data[literal_start..];
        varint::encode_u64(literals.len() as u64, &mut out);
        out.extend_from_slice(literals);
        out
    }

    /// Eight distinct words that share a hash bucket. The multiplier is odd,
    /// so it has an inverse mod 2^32; stepping a word by the inverse steps
    /// the product by one, far below the bucket's lowest bit (2^17).
    fn colliding_words() -> Vec<[u8; 4]> {
        const K: u32 = 2_654_435_761;
        let inverse = (0..5).fold(K, |x, _| {
            x.wrapping_mul(2u32.wrapping_sub(K.wrapping_mul(x)))
        });
        assert_eq!(K.wrapping_mul(inverse), 1);
        let words: Vec<u32> = (0..8).map(|i| 0x0102_0304 + i * inverse).collect();
        assert!(words.iter().all(|&w| hash4(w) == hash4(words[0])));
        words.into_iter().map(u32::to_le_bytes).collect()
    }

    proptest! {
        #[test]
        fn word_reject_leaves_the_token_stream_byte_identical(
            runs in vec((vec(0u8..4, 1..12), 1usize..6), 0..40),
            picks in vec(0usize..8, 0..120),
        ) {
            // Phrases over four symbols repeat (real matches, overlapping
            // ones included); between them, words that collide in the hash
            // table without being equal — the candidates the reject drops.
            let words = colliding_words();
            let mut picks = picks.into_iter();
            let mut data = Vec::new();
            for (phrase, times) in &runs {
                data.extend(phrase.iter().copied().cycle().take(phrase.len() * times));
                data.extend(picks.by_ref().take(3).flat_map(|i| words[i]));
            }
            data.extend(picks.flat_map(|i| words[i]));
            prop_assert_eq!(compress(&data), compress_unfiltered(&data));
        }
    }

    /// Asserts both decoders return the same bytes or the same error.
    fn assert_matches_bytewise(block: &[u8]) {
        let (mut new, mut old) = (vec![1u8, 2, 3], Vec::new());
        let got = decompress_into(block, &mut new);
        assert_eq!(got, decompress_bytewise(block, &mut old), "block {block:?}");
        if got.is_ok() {
            assert_eq!(new, old, "block {block:?}");
        }
    }

    /// Serializes hand-made tokens `(literals, match_len, distance)` under a
    /// declared length.
    fn forge(declared: usize, tokens: &[(Vec<u8>, usize, usize)]) -> Vec<u8> {
        let mut block = Vec::new();
        varint::encode_u64(declared as u64, &mut block);
        for (literals, match_len, distance) in tokens {
            varint::encode_u64(literals.len() as u64, &mut block);
            block.extend_from_slice(literals);
            varint::encode_u64(*match_len as u64, &mut block);
            varint::encode_u64(*distance as u64, &mut block);
        }
        block
    }

    proptest! {
        #[test]
        fn bulk_copy_matches_bytewise_on_compressed_data(
            runs in vec((vec(any::<u8>(), 1..10), 1usize..30), 0..12),
        ) {
            // Short random phrases repeated: every match shape the
            // compressor emits, overlapping ones included.
            let data: Vec<u8> = runs
                .iter()
                .flat_map(|(phrase, times)| phrase.iter().copied().cycle().take(phrase.len() * times))
                .collect();
            let block = compress(&data);
            prop_assert_eq!(decompress(&block).unwrap(), data);
            for cut in 0..=block.len() {
                assert_matches_bytewise(&block[..cut]);
            }
        }

        #[test]
        fn bulk_copy_matches_bytewise_on_forged_tokens(
            raw in vec((vec(any::<u8>(), 0..6), 0usize..40, 0usize..24), 1..8),
            first in vec(any::<u8>(), 1..10),
            declared_mode in 0u8..5,
        ) {
            // Mostly-valid streams: distances are folded into what has been
            // produced, except that a zero stays zero (an invalid match).
            let mut tokens = Vec::new();
            let mut produced = 0usize;
            let mut match_ends = Vec::new();
            for (i, (mut literals, match_len, distance)) in raw.into_iter().enumerate() {
                if i == 0 {
                    literals = first.clone();
                }
                produced += literals.len();
                let distance = if distance == 0 { 0 } else { 1 + distance % produced };
                produced += match_len;
                match_ends.push(produced);
                tokens.push((literals, match_len, distance));
            }
            let declared = match declared_mode {
                0 => produced,
                // Ends exactly at a match boundary, with tokens left over.
                1 => match_ends[0],
                2 => match_ends[match_ends.len() / 2],
                // A final match that overruns by one; a block one byte short.
                3 => produced.saturating_sub(1),
                _ => produced + 1,
            };
            assert_matches_bytewise(&forge(declared, &tokens));
        }
    }

    #[test]
    fn overlapping_matches_at_every_short_distance_match_bytewise() {
        let seed: Vec<u8> = (1..=9).collect();
        for distance in 1..=9 {
            for match_len in 0..=40 {
                let tokens = [(seed.clone(), match_len, distance)];
                let block = forge(seed.len() + match_len, &tokens);
                let mut out = Vec::new();
                decompress_into(&block, &mut out).unwrap();
                let period = &seed[seed.len() - distance..];
                assert!(out[seed.len()..]
                    .iter()
                    .zip(period.iter().cycle())
                    .all(|(a, b)| a == b));
                assert_matches_bytewise(&block);
            }
        }
    }

    #[test]
    fn a_match_past_the_declared_length_is_rejected_before_it_is_copied() {
        // Declares 8 bytes, then asks for a 2^40-byte match.
        let block = forge(8, &[(b"ab".to_vec(), 1 << 40, 1)]);
        let mut out = Vec::new();
        assert!(matches!(
            decompress_into(&block, &mut out),
            Err(CodecError::LengthMismatch { expected: 8, .. })
        ));
        assert!(out.capacity() < 1 << 20);
    }

    #[test]
    fn a_huge_declared_length_does_not_size_the_output() {
        let block = forge(1 << 50, &[(b"abcd".to_vec(), 4, 2)]);
        let mut out = Vec::new();
        assert!(decompress_into(&block, &mut out).is_err());
        assert!(out.capacity() <= MAX_UPFRONT_RESERVE);
    }

    #[test]
    fn word_at_a_time_match_extension_finds_the_first_difference() {
        let a: Vec<u8> = (0..40).collect();
        for split in 0..40 {
            let mut b = a.clone();
            b[split] ^= 0x10;
            assert_eq!(common_prefix_len(&a, &b), split);
            assert_eq!(common_prefix_len(&a, &b[..split]), split);
        }
        assert_eq!(common_prefix_len(&a, &a[..33]), 33);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            assert_eq!(decompress(&compress(data)).unwrap(), data);
        }
    }

    #[test]
    fn round_trip_incompressible_data() {
        // Pseudo-random bytes with no 4-byte repeats to speak of.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn repeated_rows_compress_much_better_when_adjacent() {
        // Emulates the clustering effect: the same 200-byte "row" appearing
        // 16 times adjacently vs interleaved with 15 distinct rows.
        let row: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let distinct: Vec<Vec<u8>> = (0..16u64)
            .map(|k| {
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (k + 1);
                (0..200)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(k + 1);
                        (state >> 33) as u8
                    })
                    .collect()
            })
            .collect();

        let adjacent: Vec<u8> = std::iter::repeat_n(row.clone(), 16).flatten().collect();
        let interleaved: Vec<u8> = distinct.iter().flatten().copied().collect();

        let adjacent_ratio = adjacent.len() as f64 / compress(&adjacent).len() as f64;
        let interleaved_ratio = interleaved.len() as f64 / compress(&interleaved).len() as f64;
        assert!(
            adjacent_ratio > 2.0 * interleaved_ratio,
            "adjacent duplicates should compress far better: {adjacent_ratio:.2} vs {interleaved_ratio:.2}"
        );
        assert_eq!(decompress(&compress(&adjacent)).unwrap(), adjacent);
        assert_eq!(decompress(&compress(&interleaved)).unwrap(), interleaved);
    }

    #[test]
    fn overlapping_match_round_trip() {
        // A run of a single byte forces distance-1 overlapping matches.
        let data = vec![7u8; 5000];
        let compressed = compress(&data);
        assert!(compressed.len() < 64);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn corrupted_blocks_are_errors_not_panics() {
        let data: Vec<u8> = (0..100u8).cycle().take(2000).collect();
        let compressed = compress(&data);
        // Truncations at every prefix length must never panic.
        for cut in 0..compressed.len() {
            let _ = decompress(&compressed[..cut]);
        }
        // Declared-length mismatch.
        let mut forged = Vec::new();
        varint::encode_u64(10, &mut forged); // claims 10 bytes
        varint::encode_u64(2, &mut forged); // but only 2 literals follow
        forged.extend_from_slice(b"ab");
        assert!(matches!(
            decompress(&forged),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn invalid_distance_is_an_error() {
        let mut forged = Vec::new();
        varint::encode_u64(8, &mut forged);
        varint::encode_u64(2, &mut forged);
        forged.extend_from_slice(b"ab");
        varint::encode_u64(4, &mut forged); // match length
        varint::encode_u64(100, &mut forged); // distance > produced
        assert!(matches!(
            decompress(&forged),
            Err(CodecError::InvalidMatch { .. })
        ));
    }
}
