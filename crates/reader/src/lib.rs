//! # recd-reader
//!
//! The reader tier (the paper's DPP readers): stateless nodes that *fill*
//! batches of rows from storage, *convert* them into tensors, and *process*
//! (preprocess) the tensors before sending them to trainers (paper §2.1,
//! Figure 5).
//!
//! RecD touches the reader in two places:
//!
//! * **O3 — feature conversion to IKJTs**: duplicate feature values are
//!   detected (by hashing) during conversion and encoded once per batch.
//! * **O4 — deduplicated preprocessing**: preprocessing transforms run over
//!   the deduplicated `values`/`offsets` slices instead of the full batch,
//!   and their outputs stay deduplicated, cutting both reader CPU time and
//!   reader→trainer network bytes.
//!
//! [`fill_file_columnar_into`] (fill) and [`PhaseEngine`] (convert +
//! process) implement the phases once, with per-phase CPU-time and byte
//! accounting ([`ReaderMetrics`]). The streaming `recd-dpp` service is the
//! only reader: its fill workers call the first and its compute workers own
//! one engine each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod phases;
pub mod transforms;

pub use metrics::{PhaseMetrics, ReaderCostModel, ReaderMetrics};
pub use phases::{fill_file_columnar_into, PhaseEngine, ReaderConfig};
pub use transforms::{
    DenseNormalize, HashBucketize, PreprocessPipeline, PreprocessStats, SparseTransform,
    TransformScratch, TruncateList,
};
