//! Per-phase reader accounting (the quantities behind Figure 10 and
//! Table 3).

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;
use std::time::Duration;

/// Accounting for one reader phase (fill, convert, or process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseMetrics {
    /// CPU time spent in the phase, in nanoseconds.
    pub cpu_nanos: u64,
    /// Bytes touched by the phase (read bytes for fill, tensor bytes for
    /// convert/process).
    pub bytes: usize,
    /// Work items handled (rows for fill, sparse values for convert and
    /// process).
    pub items: usize,
}

impl PhaseMetrics {
    /// Records one phase invocation.
    pub fn record(&mut self, elapsed: Duration, bytes: usize, items: usize) {
        self.cpu_nanos += elapsed.as_nanos() as u64;
        self.bytes += bytes;
        self.items += items;
    }

    /// CPU time in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_nanos as f64 / 1e9
    }
}

impl AddAssign for PhaseMetrics {
    fn add_assign(&mut self, rhs: Self) {
        self.cpu_nanos += rhs.cpu_nanos;
        self.bytes += rhs.bytes;
        self.items += rhs.items;
    }
}

/// Full accounting for a reader (or a whole reader tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReaderMetrics {
    /// Fetch + decompress + decode rows from storage.
    pub fill: PhaseMetrics,
    /// Rows → KJT/IKJT tensors (includes duplicate detection).
    pub convert: PhaseMetrics,
    /// Preprocessing transforms over the converted tensors.
    pub process: PhaseMetrics,
    /// Samples produced.
    pub samples: usize,
    /// Batches produced.
    pub batches: usize,
    /// Bytes sent from this reader to trainers (preprocessed tensor payload).
    pub egress_bytes: usize,
    /// Dedup groups shipped as plain KJT, counted once per batch each: the
    /// groups whose estimated factor in their batch was below
    /// [`BREAK_EVEN_FACTOR`](recd_core::convert::BREAK_EVEN_FACTOR).
    pub fallback_groups: usize,
    /// Partition-boundary barriers that crossed the phase pipeline (each
    /// [`flush_partition`](../recd_dpp/struct.DppHandle.html) call injects
    /// one).
    pub barrier_flushes: usize,
    /// Short batches emitted because a barrier cut a shard accumulator
    /// before it reached the configured batch size. High values mean flushes
    /// arrive faster than shards fill, shrinking the average batch.
    pub flushed_partial_batches: usize,
}

impl ReaderMetrics {
    /// Total CPU nanoseconds across all phases.
    pub fn total_cpu_nanos(&self) -> u64 {
        self.fill.cpu_nanos + self.convert.cpu_nanos + self.process.cpu_nanos
    }

    /// Reader throughput in samples per CPU-second.
    pub fn samples_per_cpu_second(&self) -> f64 {
        let secs = self.total_cpu_nanos() as f64 / 1e9;
        if secs == 0.0 {
            0.0
        } else {
            self.samples as f64 / secs
        }
    }

    /// Fraction of CPU time spent in each phase `(fill, convert, process)`.
    pub fn phase_fractions(&self) -> (f64, f64, f64) {
        let total = self.total_cpu_nanos() as f64;
        if total == 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.fill.cpu_nanos as f64 / total,
                self.convert.cpu_nanos as f64 / total,
                self.process.cpu_nanos as f64 / total,
            )
        }
    }
}

impl AddAssign for ReaderMetrics {
    fn add_assign(&mut self, rhs: Self) {
        self.fill += rhs.fill;
        self.convert += rhs.convert;
        self.process += rhs.process;
        self.samples += rhs.samples;
        self.batches += rhs.batches;
        self.egress_bytes += rhs.egress_bytes;
        self.fallback_groups += rhs.fallback_groups;
        self.barrier_flushes += rhs.barrier_flushes;
        self.flushed_partial_batches += rhs.flushed_partial_batches;
    }
}

impl ReaderMetrics {
    /// Projects the per-phase accounting into `recd_reader_*` metric
    /// families. Holders of a metrics mutex (e.g. the streaming service's
    /// combined phase metrics) call this from their own
    /// [`Collector`](recd_obs::Collector) implementation.
    pub fn collect_into(&self, out: &mut recd_obs::MetricsBuf) {
        for (phase, m) in [
            ("fill", &self.fill),
            ("convert", &self.convert),
            ("process", &self.process),
        ] {
            let labels = [("phase", phase)];
            out.counter(
                "recd_reader_phase_cpu_seconds_total",
                "CPU seconds spent in each reader phase.",
                &labels,
                m.cpu_seconds(),
            );
            out.counter(
                "recd_reader_phase_bytes_total",
                "Bytes touched by each reader phase.",
                &labels,
                m.bytes as f64,
            );
            out.counter(
                "recd_reader_phase_items_total",
                "Work items handled by each reader phase.",
                &labels,
                m.items as f64,
            );
        }
        out.counter(
            "recd_reader_samples_total",
            "Samples produced by the reader tier.",
            &[],
            self.samples as f64,
        );
        out.counter(
            "recd_reader_batches_total",
            "Batches produced by the reader tier.",
            &[],
            self.batches as f64,
        );
        out.counter(
            "recd_reader_egress_bytes_total",
            "Preprocessed tensor bytes sent toward trainers.",
            &[],
            self.egress_bytes as f64,
        );
        out.counter(
            "recd_reader_barrier_flushes_total",
            "Partition-boundary barriers that crossed the phase pipeline.",
            &[],
            self.barrier_flushes as f64,
        );
        out.counter(
            "recd_reader_flushed_partial_batches_total",
            "Short batches emitted because a barrier cut a shard accumulator.",
            &[],
            self.flushed_partial_batches as f64,
        );
    }
}

/// Modeled per-phase reader CPU time derived from the work counters.
///
/// The production readers the paper profiles spend most of their fill time in
/// byte-proportional work (RPC, decryption, zstd decompression) that this
/// repository's in-memory storage stack does not reproduce, so wall-clock
/// timings of the simulated reader under-weight the fill phase. The cost
/// model below converts the *measured work counters* (bytes fetched, rows
/// decoded, values hashed, values preprocessed) into CPU time with fixed
/// per-unit costs, which is what the Figure 7 / Figure 10 / Table 4 reader
/// results are reported from. Wall-clock timings remain available in
/// [`ReaderMetrics`] and are exercised by the Criterion benches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReaderCostModel {
    /// Fill cost per compressed byte fetched (fetch + decrypt + decompress).
    pub fill_nanos_per_byte: f64,
    /// Fill cost per row decoded.
    pub fill_nanos_per_row: f64,
    /// Convert cost per value hashed for duplicate detection (O3 overhead).
    pub convert_nanos_per_hashed_value: f64,
    /// Convert cost per byte of tensor payload materialized.
    pub convert_nanos_per_payload_byte: f64,
    /// Preprocessing cost per sparse value actually transformed.
    pub process_nanos_per_value: f64,
}

impl Default for ReaderCostModel {
    fn default() -> Self {
        Self {
            fill_nanos_per_byte: 3.0,
            fill_nanos_per_row: 200.0,
            convert_nanos_per_hashed_value: 1.0,
            convert_nanos_per_payload_byte: 0.125,
            process_nanos_per_value: 4.0,
        }
    }
}

impl ReaderCostModel {
    /// Modeled `(fill, convert, process)` CPU nanoseconds for the given
    /// metrics.
    pub fn phase_nanos(&self, m: &ReaderMetrics) -> (f64, f64, f64) {
        let fill = m.fill.bytes as f64 * self.fill_nanos_per_byte
            + m.fill.items as f64 * self.fill_nanos_per_row;
        let convert = m.convert.items as f64 * self.convert_nanos_per_hashed_value
            + m.convert.bytes as f64 * self.convert_nanos_per_payload_byte;
        let process = m.process.items as f64 * self.process_nanos_per_value;
        (fill, convert, process)
    }

    /// Modeled total CPU nanoseconds per sample.
    pub fn nanos_per_sample(&self, m: &ReaderMetrics) -> f64 {
        if m.samples == 0 {
            return 0.0;
        }
        let (fill, convert, process) = self.phase_nanos(m);
        (fill + convert + process) / m.samples as f64
    }

    /// Modeled reader throughput in samples per CPU-second.
    pub fn samples_per_cpu_second(&self, m: &ReaderMetrics) -> f64 {
        let per_sample = self.nanos_per_sample(m);
        if per_sample == 0.0 {
            0.0
        } else {
            1e9 / per_sample
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_and_reader_accumulation() {
        let mut phase = PhaseMetrics::default();
        phase.record(Duration::from_micros(5), 100, 10);
        phase.record(Duration::from_micros(5), 50, 5);
        assert_eq!(phase.cpu_nanos, 10_000);
        assert_eq!(phase.bytes, 150);
        assert_eq!(phase.items, 15);
        assert!(phase.cpu_seconds() > 0.0);

        let mut a = ReaderMetrics {
            fill: phase,
            samples: 4,
            batches: 1,
            egress_bytes: 200,
            ..ReaderMetrics::default()
        };
        let b = a;
        a += b;
        assert_eq!(a.samples, 8);
        assert_eq!(a.egress_bytes, 400);
        assert_eq!(a.total_cpu_nanos(), 20_000);
        assert!(a.samples_per_cpu_second() > 0.0);
        let (fill, convert, process) = a.phase_fractions();
        assert!((fill - 1.0).abs() < 1e-12);
        assert_eq!(convert, 0.0);
        assert_eq!(process, 0.0);
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = ReaderMetrics::default();
        assert_eq!(m.samples_per_cpu_second(), 0.0);
        assert_eq!(m.phase_fractions(), (0.0, 0.0, 0.0));
    }
}
