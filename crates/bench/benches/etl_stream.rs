//! Continuous-pipeline benchmarks: the log-tail → join → cluster → land →
//! `recd-dpp` → trainer path end-to-end, and the seal-to-ingest hand-off
//! latency.
//!
//! * `etl_stream/tail_to_trainer` — wall-clock of one full continuous run: a
//!   jittered `LogTail` over the raw log stream drives the streaming ETL
//!   (incremental join, watermarked hourly seals, landing) while a running
//!   DPP service ingests every landed partition and two simulated trainers
//!   drain their lanes. This is the number the ROADMAP's "make the whole
//!   pipeline continuous" item asks for.
//! * `etl_stream/seal_to_ingest` — latency from "an hourly partition just
//!   sealed" to "its batches sit at the trainer endpoints": land + ingest +
//!   a `flush_partition` barrier, against a warm running service.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recd_core::DataLoaderConfig;
use recd_data::{LogRecord, Schema};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{DppConfig, DppService, ShardPolicy};
use recd_etl::{
    cluster_by_session, join_logs, EtlService, EtlStreamConfig, HourlyPartitioner, ManualClock,
    TableLayout, TablePartition,
};
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_scribe::{LogTail, TailConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;

fn logs_fixture() -> (Schema, Vec<LogRecord>) {
    let generator =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(120));
    let (records, partition) = generator.generate_logs();
    (partition.schema, records)
}

fn dpp_config(schema: &Schema, trainers: usize) -> DppConfig {
    DppConfig::new(ReaderConfig::new(
        128,
        DataLoaderConfig::from_schema(schema),
    ))
    .with_policy(ShardPolicy::SessionAffine)
    .with_shards(4)
    .with_fill_workers(2)
    .with_compute_workers(4)
    .with_trainers(trainers)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

/// One full continuous run; returns the trainer-consumed sample count.
fn run_tail_to_trainer(schema: &Schema, records: Vec<LogRecord>) -> u64 {
    let store = Arc::new(TableStore::new(TectonicSim::new(8), 64, 2));
    let mut handle = DppService::start(dpp_config(schema, 2), Arc::clone(&store), schema.clone());
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| {
            std::thread::spawn(move || {
                let mut samples = 0u64;
                while let Some(item) = trainer.recv() {
                    samples += item.batch.batch_size as u64;
                }
                samples
            })
        })
        .collect();
    let tail = LogTail::new(
        records,
        &TailConfig::default().with_jitter_ms(2_000).with_seed(1),
    );
    let mut service = EtlService::new(
        tail,
        EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000),
        Arc::clone(&store),
        schema.clone(),
        "bench",
    );
    let mut sink = |stored: &StoredPartition, _: &TablePartition| {
        handle.ingest_partition(stored);
    };
    let mut clock = ManualClock::new();
    while !service.tail_drained() {
        service.pump(clock.advance(60_000), &mut sink);
    }
    let output = service.finish(&mut sink);
    let report = handle.finish().expect("clean bench run").report;
    assert_eq!(report.partitions_ingested, output.report.landed_partitions);
    let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(consumed, output.report.etl.counters.joined_samples);
    consumed
}

fn bench_tail_to_trainer(c: &mut Criterion) {
    let (schema, records) = logs_fixture();
    let mut group = c.benchmark_group("etl_stream");
    group.sample_size(10);
    group.bench_function("tail_to_trainer", |b| {
        b.iter(|| black_box(run_tail_to_trainer(&schema, records.clone())))
    });
    group.finish();
}

fn bench_seal_to_ingest(c: &mut Criterion) {
    let (schema, records) = logs_fixture();
    // One sealed hour's worth of rows, laid out exactly as the ETL seals it.
    let joined = join_logs(&records);
    let mut partitions = HourlyPartitioner::partition(joined.samples);
    let first = partitions.remove(0);
    let samples = cluster_by_session(&first.samples);

    let mut group = c.benchmark_group("etl_stream");
    group.sample_size(10);
    group.bench_function("seal_to_ingest", |b| {
        let store = Arc::new(TableStore::new(TectonicSim::new(8), 64, 2));
        let mut handle =
            DppService::start(dpp_config(&schema, 2), Arc::clone(&store), schema.clone());
        let consumers: Vec<_> = handle
            .take_trainers()
            .into_iter()
            .map(|trainer| std::thread::spawn(move || trainer.drain().len()))
            .collect();
        let mut seal = 0u64;
        b.iter(|| {
            // Each iteration lands under a fresh table segment, mirroring a
            // re-sealed hour; the barrier returns once every batch of the
            // partition sits at a trainer endpoint.
            let (stored, _) =
                store.land_partition(&schema, &format!("bench-{seal}"), first.hour, &samples);
            seal += 1;
            handle.ingest_partition(&stored);
            assert!(handle.flush_partition(), "barrier must resolve");
        });
        handle.finish().expect("clean bench run");
        for consumer in consumers {
            consumer.join().expect("trainer consumer thread");
        }
    });
    group.finish();
}

criterion_group!(benches, bench_tail_to_trainer, bench_seal_to_ingest);
criterion_main!(benches);
