//! # recd
//!
//! Facade crate for the RecD reproduction: a Rust implementation of
//! *"RecD: Deduplication for End-to-End Deep Learning Recommendation Model
//! Training Infrastructure"* (MLSys 2023), including every substrate the
//! paper's pipeline depends on.
//!
//! The workspace is organized bottom-up; this crate simply re-exports each
//! layer so applications can depend on one crate:
//!
//! | module | crate | what it provides |
//! |---|---|---|
//! | [`data`] | `recd-data` | ids, samples, schemas, batches |
//! | [`codec`] | `recd-codec` | hashing, varint/delta, block LZ |
//! | [`core`] | `recd-core` | **the paper's contribution**: KJT, IKJT, dedup conversion, jagged index select, DedupeFactor |
//! | [`datagen`] | `recd-datagen` | session-centric synthetic workloads + §3 characterization |
//! | [`scribe`] | `recd-scribe` | sharded message log (O1) |
//! | [`etl`] | `recd-etl` | join, hourly partitioning, CLUSTER BY session (O2), streaming ETL |
//! | [`storage`] | `recd-storage` | DWRF-like columnar files + Tectonic-like blob store |
//! | [`reader`] | `recd-reader` | fill/convert/process reader phases (O3, O4) the DPP service runs |
//! | [`dpp`] | `recd-dpp` | streaming DPP service: sharded, backpressured, multi-worker preprocessing |
//! | [`obs`] | `recd-obs` | observability plane: metrics registry, Prometheus exposition endpoint, per-host scrape federation |
//! | [`trainer`] | `recd-trainer` | executable DLRM + hybrid-parallel cost model (O5–O7) |
//! | [`pipeline`] | `recd-pipeline` | end-to-end runner, RM presets, experiment drivers |
//!
//! # Quickstart
//!
//! ```
//! use recd::core::{DataLoaderConfig, FeatureConverter};
//! use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
//! use recd::etl::cluster_by_session;
//! use recd::data::ColumnarBatch;
//!
//! // Generate a session-centric workload, cluster it, and deduplicate a batch.
//! let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
//! let partition = generator.generate_partition();
//! let schema = &partition.schema;
//! let clustered = cluster_by_session(&partition.samples);
//! let rows = &clustered[..64.min(clustered.len())];
//! let batch = ColumnarBatch::from_samples(rows, schema.dense_count(), schema.sparse_count());
//!
//! let converter = FeatureConverter::new(DataLoaderConfig::from_schema(schema));
//! let converted = converter.convert_columnar(&batch)?;
//! assert!(converted.dedupe_factor() > 1.0);
//! # Ok::<(), recd::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use recd_codec as codec;
pub use recd_core as core;
pub use recd_data as data;
pub use recd_datagen as datagen;
pub use recd_dpp as dpp;
pub use recd_etl as etl;
pub use recd_obs as obs;
pub use recd_pipeline as pipeline;
pub use recd_reader as reader;
pub use recd_scribe as scribe;
pub use recd_storage as storage;
pub use recd_trainer as trainer;
