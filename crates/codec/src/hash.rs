//! 64-bit hashing used by the deduplicating feature converter and the Scribe
//! shard router.
//!
//! The implementation is an FNV-1a variant with an additional avalanche
//! finalizer (xorshift-multiply, as in SplitMix64/xxHash finalization) so the
//! low bits are well distributed and suitable for modulo-based shard routing
//! and hash-table bucketing.

/// A streaming 64-bit hasher.
///
/// # Example
///
/// ```
/// use recd_codec::Hasher64;
///
/// let mut h = Hasher64::new();
/// h.write_u64(42);
/// h.write_bytes(b"feature");
/// let digest = h.finish();
/// assert_ne!(digest, Hasher64::new().finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher64 {
    /// Creates a hasher with the standard FNV offset basis.
    pub const fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Creates a hasher seeded with an arbitrary value, for keyed hashing.
    pub const fn with_seed(seed: u64) -> Self {
        Self {
            state: FNV_OFFSET ^ seed,
        }
    }

    /// Mixes a byte slice into the hash state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    /// Mixes a `u64` into the hash state (as its little-endian bytes).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Mixes a `u64` into the hash state with a single multiply — a cheaper
    /// (but coarser) alternative to [`Hasher64::write_u64`] used on hot
    /// deduplication paths where every candidate match is confirmed with a
    /// full equality check anyway.
    pub fn mix_u64(&mut self, value: u64) {
        self.state = (self.state ^ value)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(27);
    }

    /// Finalizes the hash with an avalanche mixer and returns the digest.
    pub fn finish(&self) -> u64 {
        finalize(self.state)
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64-style finalizer: guarantees every input bit affects every
/// output bit.
const fn finalize(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// FNV-1a over the first `len` little-endian bytes of `value`, starting
/// from `state` — the const-evaluable core of [`Hasher64::write_u64`].
const fn fnv_write_le(mut state: u64, value: u64, len: usize) -> u64 {
    let bytes = value.to_le_bytes();
    let mut i = 0;
    while i < len {
        state ^= bytes[i] as u64;
        state = state.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    state
}

/// FNV-1a over the little-endian bytes of one `u64`, starting from `state`.
const fn fnv_write_u64(state: u64, value: u64) -> u64 {
    fnv_write_le(state, value, 8)
}

/// `FNV_PRIME⁴`: an FNV-1a step over a zero byte is a bare multiply by
/// `FNV_PRIME`, so four zero bytes are one multiply by this.
const FNV_PRIME_POW4: u64 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

/// The hash state shared by every single-id digest: the FNV basis after the
/// length prefix `1u64` has been mixed in. Precomputing it lets
/// [`hash_id`] skip half of the byte mixing that
/// `hash_ids(&[id])` would redo on every call.
const SINGLE_ID_PREFIX: u64 = fnv_write_u64(FNV_OFFSET, 1);

/// Hashes a byte slice to a 64-bit digest.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Hasher64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Hashes a single id to the exact digest `hash_ids(&[id])` produces, with
/// no slice round-trip and the length prefix folded into a precomputed
/// constant — the fast path for per-value transforms such as hash
/// bucketization. An id below 2³² has four zero high bytes, which fold
/// into one multiply by `FNV_PRIME⁴`: 7 multiplies with the finalizer, not
/// 10, for the same digest.
pub const fn hash_id(id: u64) -> u64 {
    let state = if id >> 32 == 0 {
        fnv_write_le(SINGLE_ID_PREFIX, id, 4).wrapping_mul(FNV_PRIME_POW4)
    } else {
        fnv_write_u64(SINGLE_ID_PREFIX, id)
    };
    finalize(state)
}

/// Hashes a slice of ids (an id-list feature value) to a 64-bit digest.
///
/// The length is mixed in first so that `[1, 2]` and `[1, 2, 0]`-style
/// prefix collisions cannot hash equal by accident. Single-id slices
/// delegate to [`hash_id`], so the two entry points always agree.
pub fn hash_ids(ids: &[u64]) -> u64 {
    if let [id] = ids {
        return hash_id(*id);
    }
    let mut h = Hasher64::new();
    h.write_u64(ids.len() as u64);
    for &id in ids {
        h.write_u64(id);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
        assert_ne!(hash_bytes(b"hello"), hash_bytes(b"hellp"));
        assert_eq!(hash_ids(&[1, 2, 3]), hash_ids(&[1, 2, 3]));
        assert_ne!(hash_ids(&[1, 2, 3]), hash_ids(&[3, 2, 1]));
    }

    #[test]
    fn length_is_mixed_into_id_hash() {
        assert_ne!(hash_ids(&[]), hash_ids(&[0]));
        assert_ne!(hash_ids(&[1, 2]), hash_ids(&[1, 2, 0]));
    }

    #[test]
    fn hash_id_matches_slice_digest() {
        // `hash_id` must be bit-identical to the streaming hasher fed a
        // one-element slice, for any id — otherwise bucketization digests
        // would drift between the row-wise and flat transform paths.
        for id in [0u64, 1, 42, 1 << 20, u32::MAX as u64, u64::MAX] {
            let mut h = Hasher64::new();
            h.write_u64(1);
            h.write_u64(id);
            assert_eq!(hash_id(id), h.finish());
            assert_eq!(hash_id(id), hash_ids(&[id]));
        }
        // Const evaluation works too.
        const DIGEST: u64 = hash_id(7);
        assert_eq!(DIGEST, hash_ids(&[7]));
    }

    /// The byte loop `hash_id` folds: FNV-1a over all eight bytes.
    fn hash_id_by_bytes(id: u64) -> u64 {
        finalize(fnv_write_u64(SINGLE_ID_PREFIX, id))
    }

    #[test]
    fn hash_id_folds_zero_high_bytes_exactly_at_the_edges() {
        for id in [0, (1 << 32) - 1, 1 << 32, u64::MAX] {
            assert_eq!(hash_id(id), hash_id_by_bytes(id), "id {id}");
            assert_eq!(hash_ids(&[id]), hash_id(id));
        }
    }

    proptest! {
        #[test]
        fn hash_id_equals_the_byte_loop(id in any::<u64>(), low in 0u64..1 << 32) {
            prop_assert_eq!(hash_id(id), hash_id_by_bytes(id));
            prop_assert_eq!(hash_id(low), hash_id_by_bytes(low));
            prop_assert_eq!(hash_ids(&[id]), hash_id(id));
        }
    }

    #[test]
    fn seeded_hashers_differ() {
        let mut a = Hasher64::with_seed(1);
        let mut b = Hasher64::with_seed(2);
        a.write_u64(7);
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn low_bits_are_spread_for_shard_routing() {
        // Sequential session ids must not all land in the same shard when
        // reduced modulo a small shard count.
        let shards = 16u64;
        let mut hit: HashSet<u64> = HashSet::new();
        for session in 0..256u64 {
            hit.insert(hash_ids(&[session]) % shards);
        }
        assert_eq!(hit.len() as u64, shards, "all shards should be hit");
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Hasher64::new();
        h.write_bytes(b"ab");
        h.write_bytes(b"cd");
        assert_eq!(h.finish(), hash_bytes(b"abcd"));
    }
}
