//! # recd-storage
//!
//! The storage substrate of the RecD reproduction: a columnar, stripe-based
//! file format standing in for DWRF/ORC, and a blob-store simulation standing
//! in for the Tectonic distributed filesystem (paper §2.1).
//!
//! Hive table partitions are stored as files; each file is composed of
//! *stripes* covering a small run of rows; within a stripe every feature is
//! flattened into its own column stream, encoded (delta/varint/dictionary),
//! and the whole stripe is block-compressed.
//!
//! This structure is what makes RecD's clustering optimization (O2) pay off:
//! when a session's rows are adjacent, each stripe contains many copies of
//! the same feature values and the block compressor collapses them, shrinking
//! both the stored bytes and the bytes readers must fetch and decompress.
//!
//! * [`stripe`] — stripe encoding/decoding with [`StripeStats`] accounting.
//! * [`file`](mod@file) — the file writer/reader ([`DwrfWriter`], [`DwrfFile`]).
//! * [`tectonic`] — the [`TectonicSim`] blob store with per-node byte and
//!   IOPS accounting, an optional per-node request-queue model
//!   ([`NodeConfig`]), and an optional LRU blob cache tier.
//! * [`table`] — landing a whole table partition as files
//!   ([`TableStore`], [`StorageReport`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod file;
pub mod stripe;
pub mod table;
pub mod tectonic;

pub use error::StorageError;
pub use file::{DwrfFile, DwrfWriter, FileReadScratch};
pub use stripe::{
    decode_stripe_columnar, decode_stripe_columnar_into, encode_stripe, DecodeScratch, StripeStats,
};
pub use table::{PreparedPartition, StorageReport, StoredPartition, TableStore};
pub use tectonic::{BlobStats, CacheStats, NodeConfig, NodeStats, PlacementPolicy, TectonicSim};

/// A convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
