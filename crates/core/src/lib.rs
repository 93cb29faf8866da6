//! # recd-core
//!
//! The primary contribution of the RecD paper (MLSys 2023), implemented as a
//! standalone library: deduplicated tensor formats for DLRM sparse features
//! and the operators that produce and consume them.
//!
//! * [`JaggedTensor`] — a tensor with one variable-length (jagged) dimension,
//!   stored as a flat `values` slice plus an `offsets` slice.
//! * [`KeyedJaggedTensor`] (KJT) — the conventional TorchRec-style container
//!   mapping feature keys to jagged tensors; one jagged row per sample.
//! * [`InverseKeyedJaggedTensor`] (IKJT) — RecD's new format: the jagged rows
//!   are *deduplicated slots*, and a shared `inverse_lookup` slice maps each
//!   sample back to its slot (paper §4.2). Grouped IKJTs deduplicate several
//!   synchronously-updated features against one shared `inverse_lookup`.
//!   A slot tensor may pack into windows over one value pool, so a history
//!   shifted by one ships one id (paper §7's partial IKJTs).
//! * [`FeatureConverter`] — the reader-side feature-conversion step that
//!   turns a columnar batch into KJTs and IKJTs, detecting duplicates by
//!   hashing (O3).
//! * [`jagged_index_select`] — index select directly over jagged tensors,
//!   avoiding the densify-then-select memory blowup (O6).
//! * [`DedupeModel`] — the analytical `DedupeLen` / `DedupeFactor` model used
//!   to decide which features are worth deduplicating (§4.2, §7).
//!
//! # Quickstart
//!
//! ```
//! use recd_core::{DataLoaderConfig, FeatureConverter};
//! use recd_data::{ColumnarBatch, FeatureId, RequestId, Sample, SessionId, Timestamp};
//!
//! // Three samples from one session; feature 0 never changes, feature 1 does.
//! let rows = vec![
//!     (vec![1, 2, 3], vec![10]),
//!     (vec![1, 2, 3], vec![11]),
//!     (vec![1, 2, 3], vec![12]),
//! ];
//! let samples: Vec<Sample> = rows
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, (f0, f1))| {
//!         Sample::builder(SessionId::new(1), RequestId::new(i as u64), Timestamp::from_millis(i as u64))
//!             .sparse(vec![f0, f1])
//!             .build()
//!     })
//!     .collect();
//!
//! let config = DataLoaderConfig::new()
//!     .with_kjt_features([FeatureId::new(1)])
//!     .with_dedup_group([FeatureId::new(0)]);
//! let batch = ColumnarBatch::from_samples(&samples, 0, 2);
//! let converted = FeatureConverter::new(config).convert_columnar(&batch)?;
//!
//! // The deduplicated feature stores one slot for three rows.
//! let ikjt = &converted.ikjts[0];
//! assert_eq!(ikjt.batch_size(), 3);
//! assert_eq!(ikjt.slot_count(), 1);
//! assert!(ikjt.dedupe_factor() > 2.9);
//! # Ok::<(), recd_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod dedupe_factor;
pub mod dense;
pub mod error;
pub mod ikjt;
pub mod jagged;
pub mod kjt;
pub mod select;

pub use convert::{ConvertedBatch, DataLoaderConfig, FeatureConverter};
pub use dedupe_factor::{DedupeModel, FeatureDedupeEstimate};
pub use dense::DenseMatrix;
pub use error::CoreError;
pub use ikjt::{DedupScratch, InverseKeyedJaggedTensor};
pub use jagged::JaggedTensor;
pub use kjt::KeyedJaggedTensor;
pub use select::jagged_index_select;

/// A convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
