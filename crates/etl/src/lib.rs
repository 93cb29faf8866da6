//! # recd-etl
//!
//! The ETL substrate: turns raw inference-time logs into labeled, hourly,
//! optionally session-clustered table partitions (paper §2.1, §4.1).
//!
//! * [`join_logs`] joins feature logs and event logs on request id to produce
//!   labeled samples — the streaming/batch engine's job.
//! * [`HourlyPartitioner`] lands samples into hourly table partitions.
//! * [`cluster_by_session`] implements RecD's O2: `CLUSTER BY session_id
//!   SORT BY timestamp`, which makes a session's samples adjacent within the
//!   partition so that file stripes compress better and feature conversion
//!   can deduplicate them.
//! * [`stream`] is the *continuous* counterpart of [`EtlJob`]: an
//!   incremental join with a bounded out-of-order window and
//!   watermark-driven eviction, rolling per-session clustering buffers that
//!   seal hourly [`TablePartition`]s, and a service loop ([`EtlService`])
//!   that tails a Scribe log, lands sealed partitions through the storage
//!   writer, and hands them to a running `recd-dpp` service. After a crash
//!   the service resumes from an [`EtlCheckpoint`], an in-memory copy of
//!   its state taken at a pump boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod join;
pub mod partition;
pub mod stream;

pub use join::{join_logs, JoinOutput};
pub use partition::{
    cluster_by_session, interleave_by_time, samples_per_session, HourlyPartitioner, TablePartition,
};
pub use stream::{
    EtlCheckpoint, EtlCounters, EtlGauges, EtlReport, EtlService, EtlServiceOutput,
    EtlServiceReport, EtlSnapshot, EtlStream, EtlStreamConfig, ManualClock, SealReason,
    SealedPartition, SEAL_GRACE_MS,
};

use recd_data::{LogRecord, Sample, Schema};

/// Table layout produced by the ETL stage.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum TableLayout {
    /// Baseline: rows ordered by inference time (sessions interleaved).
    #[default]
    TimeOrdered,
    /// RecD O2: rows clustered by session id, sorted by timestamp within a
    /// session.
    ClusteredBySession,
}

impl TableLayout {
    /// Orders rows the caller owns into this layout, in place: the one call
    /// the batch job and the streaming seal share, so streamed and batch
    /// partitions cannot drift apart.
    pub(crate) fn lay_out(self, samples: &mut [Sample]) {
        match self {
            TableLayout::TimeOrdered => partition::interleave_in_place(samples),
            TableLayout::ClusteredBySession => partition::cluster_in_place(samples),
        }
    }
}

/// Batch ETL: join, partition, and lay out rows in one pass over a whole
/// log. The pipeline runs the streaming [`EtlService`], which lands the
/// same bytes; this job is the reference it is held to.
#[derive(Debug, Clone)]
pub struct EtlJob {
    layout: TableLayout,
}

impl EtlJob {
    /// Creates an ETL job producing the given table layout.
    pub fn new(layout: TableLayout) -> Self {
        Self { layout }
    }

    /// Runs the job: joins the raw logs and lands hourly partitions in the
    /// configured layout.
    pub fn run(&self, schema: &Schema, records: &[LogRecord]) -> Vec<TablePartition> {
        let joined = join_logs(records);
        let mut partitions = HourlyPartitioner::partition(joined.samples);
        for partition in &mut partitions {
            self.layout.lay_out(&mut partition.samples);
            debug_assert!(partition
                .samples
                .iter()
                .all(|s| schema.validate_sample(s).is_ok()));
        }
        partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};

    #[test]
    fn etl_job_round_trips_all_samples_and_layouts_differ() {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let (records, partition) = gen.generate_logs();
        let schema = gen.schema().clone();

        let baseline = EtlJob::new(TableLayout::TimeOrdered).run(&schema, &records);
        let clustered = EtlJob::new(TableLayout::ClusteredBySession).run(&schema, &records);

        let baseline_total: usize = baseline.iter().map(|p| p.samples.len()).sum();
        let clustered_total: usize = clustered.iter().map(|p| p.samples.len()).sum();
        assert_eq!(baseline_total, partition.len());
        assert_eq!(clustered_total, partition.len());

        // Clustering makes a session's samples adjacent.
        let adjacency = |parts: &[TablePartition]| {
            let mut same = 0usize;
            let mut total = 0usize;
            for p in parts {
                for w in p.samples.windows(2) {
                    total += 1;
                    if w[0].session_id == w[1].session_id {
                        same += 1;
                    }
                }
            }
            same as f64 / total.max(1) as f64
        };
        assert!(adjacency(&clustered) > adjacency(&baseline) + 0.2);
    }
}
