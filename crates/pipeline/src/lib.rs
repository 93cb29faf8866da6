//! # recd-pipeline
//!
//! End-to-end orchestration of the RecD training pipeline and the experiment
//! drivers that regenerate every table and figure of the paper's evaluation.
//!
//! The pipeline glues the substrates together exactly as Figure 1 of the
//! paper draws them:
//!
//! ```text
//! datagen ──logs──▶ scribe (O1) ──▶ etl (O2) ──▶ storage ──▶ DPP service (O3, O4)
//!                                                              │
//!                                                              ▼
//!                                              trainer cost model + executable DLRM (O5–O7)
//! ```
//!
//! * [`RecdConfig`] is one rung of the paper's cumulative ablation ladder:
//!   baseline, clustered table (O1–O2), dedup EMB + jagged index select
//!   (O3–O6), full RecD (O7).
//! * [`RmPreset`] provides scaled-down analogues of the paper's RM1/RM2/RM3
//!   production models.
//! * [`PipelineRunner`] runs one configuration end to end and produces a
//!   [`PipelineReport`] with storage, reader, and trainer measurements. Past
//!   Scribe, a run is one call of the driver in `recd_dpp::driver` (tail →
//!   streaming ETL → land → DPP → trainer lanes); the runner only builds its
//!   configs ([`PipelineRunner::inputs`]) and maps its report.
//!   `with_continuous` jitters the tail and shards by session. A fault
//!   plan, a controller, another store or a multi-host fleet is set on
//!   those inputs (`TailFeed::plan`, `DppConfig::with_ctrl`, the store, a
//!   `Topology::Fleet`) and run through `Driver` directly, as the `recd-dpp`
//!   CLI does.
//! * [`experiments`] packages the paper's evaluation: Figures 3, 4, 7, 8, 9,
//!   10 and Tables 2, 3, 4, plus the Scribe compression study, the
//!   single-node study, the DedupeFactor sweep, and the accuracy-neutrality
//!   check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod run;

pub use config::{RecdConfig, RmPreset, RmSpec};
pub use run::{PipelineInputs, PipelineReport, PipelineRunner};
