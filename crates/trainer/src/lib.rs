//! # recd-trainer
//!
//! The trainer tier of the RecD reproduction: an executable, CPU-scale DLRM
//! (embedding tables, MLPs, pooling, pairwise-dot feature interaction,
//! SGD training) together with a hybrid-parallel *cost model* of the
//! multi-GPU ZionEX cluster the paper evaluates on.
//!
//! Two things are measured on two different instruments:
//!
//! * **Correctness** is measured on the executable model ([`dlrm`]): the
//!   deduplicated execution path (O5–O7: deduplicated EMB lookups, jagged
//!   index select, deduplicated pooling with inverse-lookup expansion) must
//!   produce the same predictions and the same training trajectory as the
//!   baseline KJT path, because IKJTs encode the exact same logical data.
//! * **Performance shape** is measured on the cost model ([`cost`]): byte,
//!   lookup, FLOP, and memory counts extracted from real batches are pushed
//!   through a ZionEX-parameterized hardware model (HBM bandwidth, NVLink /
//!   RoCE bandwidth, compute throughput, compute/communication overlap) to
//!   produce the iteration-latency breakdowns, throughput ratios, and memory
//!   utilization numbers behind Figures 7–9 and Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dlrm;
pub mod embedding;
pub mod nn;
pub mod pooling;

pub use cost::{
    ClusterSpec, GpuSpec, IterationBreakdown, IterationCost, MemoryReport, TrainerOptimizations,
    WorkStats,
};
pub use dlrm::{Dlrm, DlrmConfig, ExecutionMode, ForwardStats, SEQUENCE_MIN_AVG_LEN};
pub use embedding::EmbeddingTable;
pub use nn::{bce_loss, Mlp, MlpActivations};
pub use pooling::{pool_sequence, PoolScratch, PoolingCost, PoolingKind};
