//! # recd-chaos
//!
//! Seeded fault injection and bounded-retry machinery for the continuous
//! RecD pipeline.
//!
//! The paper's production setting is hostile: trainers stall and die, storage
//! browns out, DPP hosts crash or partition from the control plane, and the
//! ETL pump restarts mid-hour — yet training must resume without losing or
//! double-delivering a sample. This crate supplies the
//! *schedule* side of that story. The checkpoint/resume side lives with each
//! tier as a plain in-memory copy of the state it restores
//! (`EtlService::checkpoint`/`resume_from`,
//! `DppHandle::checkpoint`/`DppService::resume`), and the deterministic
//! replay harness is the oracle that any fault schedule must converge to the
//! fault-free trainer-batch union.
//!
//! * [`FaultPlan`] — a seeded, clock-driven schedule of typed faults
//!   ([`FaultKind`]), buildable programmatically, parsed from the CLI
//!   grammar (`--chaos-plan`), or generated deterministically from a seed
//!   (`--chaos-seed`).
//! * [`FaultInjector`] — executes a plan against a [`TectonicSim`]: storage
//!   faults (latency brown-outs, transient get/put failures) are applied
//!   directly through the store's shared knobs; trainer- and pump-level
//!   faults are surfaced as [`FaultAction`]s for the layer that owns those
//!   resources to apply.
//! * [`RetryPolicy`] — exponential backoff with a bounded retry budget for
//!   storage-facing paths (reader fill workers, ETL landing), so transient
//!   faults degrade gracefully instead of erroring out.
//! * [`ChaosCounters`] / [`ChaosReport`] — accounting for everything above,
//!   exported through the `recd-obs` Collector plane as `recd_chaos_*`.
//!
//! [`TectonicSim`]: recd_storage::TectonicSim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inject;
mod plan;
mod retry;

pub use inject::{ChaosCounters, ChaosReport, FaultAction, FaultInjector};
pub use plan::{FaultKind, FaultPlan, ScheduledFault};
pub use retry::RetryPolicy;
