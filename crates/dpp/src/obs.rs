//! Observability-plane integration: projects the streaming service's live
//! [`DppReport`] (its per-phase reader accounting included) into
//! `recd_dpp_*` / `recd_reader_*` metric families.
//!
//! The mapping is a pure function over an already-taken report, so a
//! scrape costs one `snapshot()` — the same read
//! [`DppHandle::finish`](crate::DppHandle::finish) makes — and never touches
//! the hot pipeline stages.

use crate::metrics::{DppReport, TrainerLaneReport};
use crate::pool::PoolStats;
use crate::service::SnapshotSource;
use recd_obs::{Collector, MetricsBuf};

/// Projects one pool's counters under a `pool=<name>` label.
fn collect_pool(stats: &PoolStats, pool: &str, out: &mut MetricsBuf) {
    out.counter(
        "recd_dpp_pool_acquires_total",
        "Batch-pool acquires by outcome: hit reused a shell, miss allocated.",
        &[("pool", pool), ("outcome", "hit")],
        stats.hits as f64,
    );
    out.counter(
        "recd_dpp_pool_acquires_total",
        "Batch-pool acquires by outcome: hit reused a shell, miss allocated.",
        &[("pool", pool), ("outcome", "miss")],
        stats.misses as f64,
    );
    out.counter(
        "recd_dpp_pool_recycled_total",
        "Shells returned to the pool shelf.",
        &[("pool", pool)],
        stats.recycled as f64,
    );
    out.counter(
        "recd_dpp_pool_discarded_total",
        "Shells dropped because the pool shelf was full.",
        &[("pool", pool)],
        stats.discarded as f64,
    );
    out.counter(
        "recd_dpp_pool_trimmed_total",
        "Idle shells dropped when dynamic scaling shrank the pool.",
        &[("pool", pool)],
        stats.trimmed as f64,
    );
    out.gauge(
        "recd_dpp_pool_capacity",
        "Pool shelf capacity (shrinks on dynamic scale-down).",
        &[("pool", pool)],
        stats.capacity as f64,
    );
}

/// Projects one trainer lane's state under a `trainer=<id>` label.
fn collect_lane(lane: &TrainerLaneReport, out: &mut MetricsBuf) {
    let id = lane.trainer.to_string();
    let labels = [("trainer", id.as_str())];
    out.gauge(
        "recd_dpp_trainer_queue_depth",
        "Batches delivered to a trainer lane but not yet pulled.",
        &labels,
        lane.queue_depth as f64,
    );
    out.counter(
        "recd_dpp_trainer_delivered_batches_total",
        "Batches the sink pushed onto a trainer lane.",
        &labels,
        lane.delivered_batches as f64,
    );
    out.counter(
        "recd_dpp_trainer_delivered_samples_total",
        "Samples the sink pushed onto a trainer lane.",
        &labels,
        lane.delivered_samples as f64,
    );
    out.counter(
        "recd_dpp_trainer_consumed_batches_total",
        "Batches the trainer pulled from its lane.",
        &labels,
        lane.consumed_batches as f64,
    );
}

/// Projects a [`DppReport`] into `recd_dpp_*` families: throughput and
/// progress counters, queue-depth and worker gauges, scale events, pool
/// counters, and per-trainer lane state.
fn collect_report(report: &DppReport, out: &mut MetricsBuf) {
    out.counter(
        "recd_dpp_files_submitted_total",
        "Files accepted into the fill queue.",
        &[],
        report.files_submitted as f64,
    );
    out.counter(
        "recd_dpp_partitions_ingested_total",
        "Landed partitions ingested through the continuous-ETL feed path.",
        &[],
        report.partitions_ingested as f64,
    );
    out.counter(
        "recd_dpp_duplicate_ingests_total",
        "Already-ingested partitions offered again and skipped (replay dedup).",
        &[],
        report.duplicate_ingests as f64,
    );
    out.counter(
        "recd_dpp_files_filled_total",
        "Files fully decoded by fill workers.",
        &[],
        report.files_filled as f64,
    );
    out.counter(
        "recd_dpp_rows_routed_total",
        "Rows routed to shard accumulators.",
        &[],
        report.rows_routed as f64,
    );
    out.counter(
        "recd_dpp_batches_out_total",
        "Deduplicated batches emitted by compute workers.",
        &[],
        report.batches as f64,
    );
    out.counter(
        "recd_dpp_samples_out_total",
        "Samples contained in emitted batches.",
        &[],
        report.samples as f64,
    );
    out.counter(
        "recd_dpp_egress_bytes_total",
        "Preprocessed tensor bytes sent toward trainers.",
        &[],
        report.egress_bytes as f64,
    );
    out.counter(
        "recd_dpp_dedup_fallback_groups_total",
        "Dedup groups shipped as plain KJT because their batch barely repeats, once per batch each.",
        &[],
        report.reader_metrics.fallback_groups as f64,
    );
    out.counter(
        "recd_dpp_errors_total",
        "Stage errors (failed fills or conversions).",
        &[],
        report.errors as f64,
    );
    out.gauge(
        "recd_dpp_uptime_seconds",
        "Seconds since the service started.",
        &[],
        report.wall_seconds,
    );
    out.gauge(
        "recd_dpp_dedupe_factor",
        "Average in-batch dedup factor of emitted batches.",
        &[],
        report.dedupe_factor,
    );
    out.gauge(
        "recd_dpp_samples_per_second",
        "Emitted samples per wall-clock second since service start.",
        &[],
        report.samples_per_second,
    );
    for (queue, depth) in [
        ("input", report.input_queue_depth),
        ("filled", report.filled_queue_depth),
        ("work", report.work_queue_depth),
        ("output", report.output_queue_depth),
    ] {
        out.gauge(
            "recd_dpp_queue_depth",
            "Current depth of each bounded pipeline queue.",
            &[("queue", queue)],
            depth as f64,
        );
    }
    for (pool, live) in [
        ("fill", report.fill_workers_live),
        ("compute", report.compute_workers_live),
    ] {
        out.gauge(
            "recd_dpp_workers_live",
            "Workers currently live in each elastic pool.",
            &[("pool", pool)],
            live as f64,
        );
    }
    let ups = report.scale_events.iter().filter(|e| e.is_grow()).count();
    let downs = report.scale_events.len() - ups;
    for (direction, count) in [("up", ups), ("down", downs)] {
        out.counter(
            "recd_dpp_scale_events_total",
            "Pool resizes performed by the scaling controller, by direction.",
            &[("direction", direction)],
            count as f64,
        );
    }
    collect_pool(&report.batch_pool, "batch", out);
    collect_pool(&report.converted_pool, "converted", out);
    collect_pool(&report.blob_pool, "blob", out);
    for lane in &report.trainers {
        collect_lane(lane, out);
    }
}

impl Collector for SnapshotSource {
    fn collect(&self, out: &mut MetricsBuf) {
        let report = self.snapshot();
        collect_report(&report, out);
        out.histogram(
            "recd_dpp_convert_latency_seconds",
            "Per-batch IKJT conversion latency across compute workers.",
            &[],
            self.convert_latency(),
        );
        out.histogram(
            "recd_dpp_process_latency_seconds",
            "Per-batch preprocessing latency across compute workers.",
            &[],
            self.process_latency(),
        );
        report.reader_metrics.collect_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ScaleEvent;
    use recd_obs::{render_families, sample_value};

    fn report_fixture() -> DppReport {
        let event = |from, to| ScaleEvent {
            at_seconds: 0.5,
            pool: "fill".to_string(),
            from,
            to,
            queue_depth: 3,
        };
        DppReport {
            wall_seconds: 2.0,
            files_submitted: 8,
            partitions_ingested: 3,
            duplicate_ingests: 1,
            files_filled: 7,
            rows_routed: 1_000,
            batches: 40,
            samples: 2_000,
            egress_bytes: 65_536,
            samples_per_second: 1_000.0,
            dedupe_factor: 1.8,
            input_queue_depth: 1,
            filled_queue_depth: 2,
            work_queue_depth: 3,
            output_queue_depth: 4,
            fill_workers_live: 2,
            compute_workers_live: 5,
            scale_events: vec![event(1, 2), event(2, 3), event(3, 2)],
            trainers: vec![TrainerLaneReport {
                trainer: 0,
                queue_depth: 6,
                delivered_batches: 20,
                delivered_samples: 1_000,
                consumed_batches: 14,
                consumed_samples: 700,
                dropped_batches: 0,
                peak_queue_depth: 8,
            }],
            batch_pool: PoolStats {
                hits: 90,
                misses: 10,
                recycled: 85,
                discarded: 5,
                trimmed: 0,
                capacity: 16,
            },
            ..DppReport::default()
        }
    }

    #[test]
    fn report_maps_to_labeled_families() {
        let mut buf = MetricsBuf::new();
        collect_report(&report_fixture(), &mut buf);
        let families = buf.into_families();
        assert_eq!(
            sample_value(&families, "recd_dpp_samples_out_total", &[]),
            Some(2_000.0)
        );
        assert_eq!(
            sample_value(&families, "recd_dpp_queue_depth", &[("queue", "work")]),
            Some(3.0)
        );
        assert_eq!(
            sample_value(&families, "recd_dpp_workers_live", &[("pool", "compute")]),
            Some(5.0)
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_dpp_pool_acquires_total",
                &[("pool", "batch"), ("outcome", "hit")]
            ),
            Some(90.0)
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_dpp_trainer_delivered_samples_total",
                &[("trainer", "0")]
            ),
            Some(1_000.0)
        );
        // The exposition renders with sorted labels and HELP/TYPE lines.
        let text = render_families(&families);
        assert!(text.contains("# TYPE recd_dpp_queue_depth gauge"));
        assert!(text.contains("recd_dpp_queue_depth{queue=\"input\"} 1\n"));
        assert!(text.contains("recd_dpp_scale_events_total{direction=\"up\"} 2\n"));
        assert!(text.contains("recd_dpp_scale_events_total{direction=\"down\"} 1\n"));
    }
}
