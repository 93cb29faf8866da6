//! # recd-data
//!
//! Shared data model for the RecD reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: strongly-typed identifiers ([`SessionId`], [`RequestId`],
//! [`FeatureId`]), feature values ([`IdList`], [`ScoreList`]), training
//! [`Sample`]s, raw inference-time logs ([`FeatureLog`], [`EventLog`]), the
//! dataset [`Schema`] describing every dense and sparse feature, and the
//! flat [`ColumnarBatch`] rows travel in from storage to the trainers.
//!
//! The types here intentionally carry no behavior beyond construction,
//! validation, and size accounting. The interesting machinery — columnar
//! encoding, deduplicated tensor formats, cost models — lives in the crates
//! layered on top.
//!
//! # Example
//!
//! ```
//! use recd_data::{Sample, SessionId, RequestId, Timestamp};
//!
//! let sample = Sample::builder(SessionId::new(7), RequestId::new(42), Timestamp::from_millis(1_000))
//!     .label(1.0)
//!     .dense(vec![0.25, 0.5])
//!     .sparse(vec![vec![10, 11, 12], vec![99]])
//!     .build();
//! assert_eq!(sample.session_id, SessionId::new(7));
//! assert_eq!(sample.sparse_value_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod error;
pub mod ids;
pub mod log;
pub mod sample;
pub mod schema;

pub use columnar::{ColumnarBatch, ColumnsMut, RowRuns, SparseColumn, SparseParts};
pub use error::DataError;
pub use ids::{FeatureId, RequestId, SessionId, ShardId, Timestamp, UserId};
pub use log::{EventLog, FeatureLog, LogRecord};
pub use sample::{IdList, Sample, SampleBuilder, ScoreList};
pub use schema::{
    DedupGroupId, DenseFeatureSpec, FeatureClass, FeatureKind, Schema, SchemaBuilder,
    SparseFeatureSpec,
};

/// A convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, DataError>;
