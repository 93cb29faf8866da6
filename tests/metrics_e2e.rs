//! End-to-end observability test: a live continuous pipeline (log tail →
//! streaming ETL → land → `recd-dpp` ingest → trainer fan-out) serves
//! `GET /metrics`, and a plain `TcpStream` scrape mid-run returns a valid
//! Prometheus text exposition carrying families from every tier.

use recd::core::DataLoaderConfig;
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::dpp::{DppConfig, DppService};
use recd::etl::{EtlService, EtlStreamConfig, ManualClock, TableLayout};
use recd::obs::{scrape, Collector, MetricsRegistry, MetricsServer};
use recd::reader::{PreprocessPipeline, ReaderConfig};
use recd::scribe::{LogTail, TailConfig};
use recd::storage::{TableStore, TectonicSim};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Families the scrape must carry, one (or more) per tier.
const REQUIRED_FAMILIES: &[(&str, &str)] = &[
    // Streaming ETL tier: every family the service exports.
    ("etl", "recd_etl_records_tailed_total"),
    ("etl", "recd_etl_joined_samples_total"),
    ("etl", "recd_etl_late_drops_total"),
    ("etl", "recd_etl_duplicates_total"),
    ("etl", "recd_etl_orphaned_total"),
    ("etl", "recd_etl_open_hours"),
    ("etl", "recd_etl_open_sessions"),
    ("etl", "recd_etl_buffered_rows"),
    ("etl", "recd_etl_sealed_partitions_total"),
    ("etl", "recd_etl_landed_partitions_total"),
    ("etl", "recd_etl_watermark_ms"),
    ("etl", "recd_etl_tail_lag_ms"),
    ("etl", "recd_etl_tail_remaining"),
    // DPP service tier: every family the single service exports.
    ("dpp service", "recd_dpp_files_submitted_total"),
    ("dpp service", "recd_dpp_partitions_ingested_total"),
    ("dpp service", "recd_dpp_duplicate_ingests_total"),
    ("dpp service", "recd_dpp_files_filled_total"),
    ("dpp service", "recd_dpp_rows_routed_total"),
    ("dpp service", "recd_dpp_batches_out_total"),
    ("dpp service", "recd_dpp_samples_out_total"),
    ("dpp service", "recd_dpp_egress_bytes_total"),
    ("dpp service", "recd_dpp_dedup_fallback_groups_total"),
    ("dpp service", "recd_dpp_errors_total"),
    ("dpp service", "recd_dpp_uptime_seconds"),
    ("dpp service", "recd_dpp_dedupe_factor"),
    ("dpp service", "recd_dpp_samples_per_second"),
    ("dpp service", "recd_dpp_queue_depth"),
    ("dpp service", "recd_dpp_workers_live"),
    ("dpp service", "recd_dpp_scale_events_total"),
    ("dpp service", "recd_dpp_convert_latency_seconds"),
    ("dpp service", "recd_dpp_process_latency_seconds"),
    // Batch pool tier.
    ("batch pool", "recd_dpp_pool_acquires_total"),
    ("batch pool", "recd_dpp_pool_recycled_total"),
    ("batch pool", "recd_dpp_pool_discarded_total"),
    ("batch pool", "recd_dpp_pool_trimmed_total"),
    ("batch pool", "recd_dpp_pool_capacity"),
    // Trainer lanes.
    ("trainer lanes", "recd_dpp_trainer_queue_depth"),
    ("trainer lanes", "recd_dpp_trainer_delivered_batches_total"),
    ("trainer lanes", "recd_dpp_trainer_delivered_samples_total"),
    ("trainer lanes", "recd_dpp_trainer_consumed_batches_total"),
    // Storage tier.
    ("storage", "recd_storage_get_ops_total"),
    ("storage", "recd_storage_put_bytes_total"),
    // Reader phase accounting (projected through the dpp collector).
    ("reader", "recd_reader_phase_cpu_seconds_total"),
    // The server's self-instrumentation.
    ("obs", "recd_obs_scrapes_total"),
];

/// Structural validation of the exposition text: every sample line belongs
/// to a family announced by HELP+TYPE lines immediately above it, and every
/// value parses as a float.
fn assert_valid_exposition(body: &str) {
    let mut announced: Option<String> = None;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a family");
            announced = Some(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a family");
            assert_eq!(
                announced.as_deref(),
                Some(name),
                "TYPE line must follow its HELP line: {line}"
            );
            let kind = parts.next().expect("TYPE declares a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown kind in {line}"
            );
        } else {
            let family = announced.as_deref().expect("sample before any HELP/TYPE");
            let metric_name = line
                .split(['{', ' '])
                .next()
                .expect("sample line starts with a metric name");
            assert!(
                metric_name == family
                    || metric_name
                        .strip_prefix(family)
                        .is_some_and(|s| ["_bucket", "_sum", "_count"].contains(&s)),
                "sample {metric_name} outside announced family {family}"
            );
            let value = line.rsplit(' ').next().expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
                "unparseable sample value in {line}"
            );
        }
    }
}

#[test]
fn tail_pipeline_serves_all_tier_families_over_http() {
    // A tiny tail-fed pipeline with trainer fan-out.
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let (records, partition) = generator.generate_logs();
    let schema = partition.schema;
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 64, 2));
    let tail = LogTail::new(records, &TailConfig::default().with_jitter_ms(1_000));
    let mut etl = EtlService::new(
        tail,
        EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000),
        Arc::clone(&store),
        schema.clone(),
        "metrics-e2e",
    );
    let config = DppConfig::new(ReaderConfig::new(
        64,
        DataLoaderConfig::from_schema(&schema),
    ))
    .with_fill_workers(2)
    .with_compute_workers(2)
    .with_shards(2)
    .with_trainers(2)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64));
    let mut handle = DppService::start(config, Arc::clone(&store), schema);

    // Every tier registers into one registry; the server exposes it.
    let registry = Arc::new(MetricsRegistry::new());
    registry.register(Arc::new(handle.snapshot_source()) as Arc<dyn Collector>);
    registry.register(etl.report_cell() as Arc<dyn Collector>);
    registry.register(Arc::new(store.blob_store().clone()) as Arc<dyn Collector>);
    let server = MetricsServer::start(Arc::clone(&registry), 0).expect("bind ephemeral port");
    let addr = server.local_addr();

    let trainers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain().len()))
        .collect();

    // Drive the pipeline, scraping over a raw TcpStream mid-run.
    let mut clock = ManualClock::new();
    let mut sink = |stored: &recd::storage::StoredPartition,
                    _sealed: &recd::etl::TablePartition| {
        handle.ingest_partition(stored);
    };
    let mut mid_run_scrape = String::new();
    while !etl.tail_drained() {
        let now = clock.advance(60_000);
        etl.pump(now, &mut sink);
        if mid_run_scrape.is_empty() {
            let mut stream = TcpStream::connect(addr).expect("connect mid-run");
            write!(
                stream,
                "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .expect("send request");
            stream
                .read_to_string(&mut mid_run_scrape)
                .expect("read response");
            assert!(
                mid_run_scrape.starts_with("HTTP/1.1 200 OK\r\n"),
                "mid-run scrape failed: {}",
                mid_run_scrape.lines().next().unwrap_or("")
            );
            assert!(
                mid_run_scrape.contains("Content-Type: text/plain; version=0.0.4"),
                "missing exposition content type"
            );
        }
    }
    etl.finish(&mut sink);
    let report = handle.finish().expect("pipeline drains cleanly").report;
    let consumed: usize = trainers
        .into_iter()
        .map(|t| t.join().expect("trainer thread"))
        .sum();
    assert!(report.samples > 0, "pipeline produced no samples");
    assert_eq!(consumed, report.batches, "trainers drained every batch");

    // Final scrape after drain: structurally valid and complete.
    let body = scrape(addr).expect("final scrape");
    assert_valid_exposition(&body);
    for (tier, family) in REQUIRED_FAMILIES {
        assert!(
            body.contains(&format!("# TYPE {family} ")),
            "{tier} family {family} missing from exposition"
        );
    }
    // The mid-run scrape already carried the cross-tier families too.
    let mid_body = mid_run_scrape
        .split_once("\r\n\r\n")
        .expect("mid-run response has a body")
        .1;
    assert_valid_exposition(mid_body);
    for (tier, family) in REQUIRED_FAMILIES {
        if *family == "recd_obs_scrapes_total" {
            continue; // first scrape: the counter increments after rendering
        }
        assert!(
            mid_body.contains(&format!("# TYPE {family} ")),
            "{tier} family {family} missing from mid-run exposition"
        );
    }
    // Both trainer lanes exported labeled series.
    assert!(body.contains("recd_dpp_trainer_queue_depth{trainer=\"0\"}"));
    assert!(body.contains("recd_dpp_trainer_queue_depth{trainer=\"1\"}"));
    // The storage tier counted the continuous landing traffic.
    assert!(body.contains("recd_storage_put_ops_total "));
    server.shutdown();
}
