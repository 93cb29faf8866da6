//! # recd-datagen
//!
//! Session-centric synthetic workload generation for the RecD reproduction.
//!
//! The paper characterizes a proprietary O(100 PB) DLRM dataset; this crate
//! substitutes a generator that reproduces the *statistical structure* that
//! matters to RecD:
//!
//! * each user session produces a heavy-tailed number of training samples
//!   (mean ≈ 16.5 in the paper, configurable here);
//! * user-class sparse features rarely change across a session's samples
//!   (high stay probability `d(f)`), and when they do change they shift like
//!   a sliding interaction history;
//! * item-class sparse features change on almost every impression;
//! * samples from different sessions interleave in inference-time order, so
//!   a naive batch contains ≈ 1 sample per session until the ETL clusters
//!   them.
//!
//! [`WorkloadConfig`] describes the workload, [`DatasetGenerator`] produces
//! raw logs and hourly partitions of [`Sample`](recd_data::Sample)s, and
//! [`characterize`](mod@characterize) reproduces the paper's §3 dataset characterization
//! (Figures 3 and 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod config;
pub mod distributions;
pub mod generator;
pub mod session;

pub use characterize::{
    characterize, CharacterizationReport, FeatureDuplication, SamplesPerSessionHistogram,
};
pub use config::{DedupPolicy, FeatureProfile, WorkloadConfig, WorkloadPreset};
pub use distributions::{LogNormalSampler, PowerLawIdSampler};
pub use generator::{DatasetGenerator, GeneratedPartition};
pub use session::SessionGenerator;
