//! # recd-obs
//!
//! The observability plane of the reproduction: a dependency-free (pure
//! `std`) metrics layer every tier plugs into.
//!
//! * [`MetricsRegistry`] holds [`Collector`]s — one per tier — that map the
//!   tiers' own reports (`DppReport`, `EtlServiceReport`, `FleetReport`,
//!   `ReaderMetrics`, blob-store counters) into labeled
//!   counter/gauge/histogram samples on each scrape.
//! * [`MetricsServer`] exposes the registry at `GET /metrics` in the
//!   Prometheus text exposition format (HELP/TYPE lines, label escaping,
//!   deterministic family ordering) on a plain [`std::net::TcpListener`],
//!   because the workspace is offline and ships no HTTP crate.
//! * [`RegistryFederation`] re-exports per-host registries into one parent
//!   under `host="<label>"` tags — the fleet's single pane of glass.
//!
//! The clock abstraction ([`ScaleClock`], [`WallClock`], [`ManualClock`])
//! lives here for the `recd-dpp` scaling controller: the production clock
//! ticks on a period, while [`ManualClock::step`] grants exactly one
//! evaluation for deterministic tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod federation;
pub mod registry;
pub mod server;

pub use clock::{ManualClock, ScaleClock, WallClock};
pub use federation::RegistryFederation;
pub use registry::{
    render_families, sample_value, Collector, Histogram, HistogramSnapshot, MetricFamily,
    MetricKind, MetricsBuf, MetricsRegistry, Sample, SampleValue,
};
pub use server::{scrape, MetricsServer};
