//! # recd-codec
//!
//! Encodings and compression used by the RecD storage and messaging
//! substrates.
//!
//! The paper's pipeline relies on two families of byte-shrinking machinery:
//!
//! * **Columnar encodings** applied to flattened feature columns inside DWRF
//!   stripes — varint/zigzag encoding and delta encoding, in [`varint`] and
//!   [`delta`].
//! * **Black-box block compression** (zstd in the paper) applied to Scribe
//!   shard buffers and to encoded stripe streams. The stand-in here is a
//!   self-contained LZ77-style block compressor in [`lz`], whose compression
//!   ratio responds to data redundancy the same way zstd's does — which is
//!   exactly the property RecD's log sharding (O1) and session clustering
//!   (O2) exploit.
//!
//! The crate also provides the 64-bit hashing used by the deduplicating
//! feature converter ([`hash`]) and small accounting types
//! ([`CompressionStats`]).
//!
//! # Example
//!
//! ```
//! use recd_codec::{lz, CompressionStats};
//!
//! # fn main() -> Result<(), recd_codec::CodecError> {
//! let data: Vec<u8> = b"abcabcabcabcabcabcabcabc".repeat(8);
//! let compressed = lz::compress(&data);
//! let stats = CompressionStats::new(data.len(), compressed.len());
//! assert!(stats.ratio() > 2.0);
//! assert_eq!(lz::decompress(&compressed)?, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod hash;
pub mod lz;
pub mod varint;

use std::error::Error;
use std::fmt;

pub use hash::{hash_bytes, hash_id, hash_ids, Hasher64};

/// Errors produced when decoding or decompressing malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before a complete value could be decoded.
    UnexpectedEof {
        /// Human-readable description of what was being decoded.
        context: &'static str,
    },
    /// A varint used more bytes than the maximum allowed for its width.
    VarintOverflow,
    /// An LZ match referenced data before the start of the output buffer.
    InvalidMatch {
        /// Back-reference distance.
        distance: usize,
        /// Output length at the time the match was applied.
        produced: usize,
    },
    /// The compressed block declared a size that does not match its content.
    LengthMismatch {
        /// Declared decompressed length.
        expected: usize,
        /// Actually produced length.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            CodecError::VarintOverflow => write!(f, "varint is longer than the maximum width"),
            CodecError::InvalidMatch { distance, produced } => write!(
                f,
                "lz match distance {distance} exceeds produced output length {produced}"
            ),
            CodecError::LengthMismatch { expected, actual } => write!(
                f,
                "decompressed length {actual} does not match declared length {expected}"
            ),
        }
    }
}

impl Error for CodecError {}

/// A convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Raw-versus-compressed byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressionStats {
    /// Number of bytes before compression.
    pub raw_bytes: usize,
    /// Number of bytes after compression.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Creates a stats record.
    pub const fn new(raw_bytes: usize, compressed_bytes: usize) -> Self {
        Self {
            raw_bytes,
            compressed_bytes,
        }
    }

    /// Compression ratio (raw / compressed). Returns 1.0 for empty input.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: CompressionStats) {
        self.raw_bytes += other.raw_bytes;
        self.compressed_bytes += other.compressed_bytes;
    }
}

impl fmt::Display for CompressionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} bytes ({:.2}x)",
            self.raw_bytes,
            self.compressed_bytes,
            self.ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_ratio_and_merge() {
        let mut s = CompressionStats::new(100, 50);
        assert_eq!(s.ratio(), 2.0);
        s.merge(CompressionStats::new(100, 50));
        assert_eq!(s.raw_bytes, 200);
        assert_eq!(s.ratio(), 2.0);
        assert_eq!(CompressionStats::new(0, 0).ratio(), 1.0);
        assert!(s.to_string().contains("2.00x"));
    }

    #[test]
    fn error_messages() {
        let err = CodecError::UnexpectedEof { context: "varint" };
        assert!(err.to_string().contains("varint"));
    }
}
