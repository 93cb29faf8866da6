//! Benchmarks of the streaming DPP service: end-to-end wall-clock over one
//! landed partition, across worker counts. Throughput should scale with
//! workers because fill, conversion (O3), and preprocessing (O4) overlap
//! across the pipeline's bounded queues.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use recd_bench::BenchFixture;
use recd_core::DataLoaderConfig;
use recd_dpp::{DppConfig, DppHandle, DppReport, DppService, ShardPolicy};
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;

struct LandedFixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    partition: StoredPartition,
}

fn landed_fixture() -> LandedFixture {
    let fixture = BenchFixture::new(120);
    // Simulated per-fetch RPC latency: production fill is I/O-bound, and
    // overlapping those waits is precisely what the streaming tier buys, so
    // the worker-count scaling is observable even on a single core.
    let blob_store = TectonicSim::new(8);
    blob_store.set_get_latency(std::time::Duration::from_micros(750));
    let store = Arc::new(TableStore::new(blob_store, 32, 2));
    let (partition, _) = store.land_partition(&fixture.schema, "bench", 0, &fixture.samples);
    LandedFixture {
        schema: fixture.schema,
        store,
        partition,
    }
}

fn reader_config(schema: &recd_data::Schema) -> ReaderConfig {
    ReaderConfig::new(128, DataLoaderConfig::from_schema(schema))
}

/// Runs `feed` against a started service while every trainer lane drains
/// (and discards) on its own thread, then finishes the service and returns
/// its report: a bench that times the service must never stall it.
fn drain_run(mut handle: DppHandle, feed: impl FnOnce(&mut DppHandle)) -> DppReport {
    let lanes: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|lane| std::thread::spawn(move || while lane.recv().is_some() {}))
        .collect();
    feed(&mut handle);
    let report = handle.finish().expect("clean bench run").report;
    for lane in lanes {
        lane.join().expect("lane drain");
    }
    report
}

fn bench_streaming_workers(c: &mut Criterion) {
    let f = landed_fixture();
    let mut group = c.benchmark_group("dpp_end_to_end");
    group.sample_size(10);

    for workers in [1, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("streaming_workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    // `workers` scales the whole service: fill decode and
                    // compute both parallelize, shards follow compute.
                    let config = DppConfig::new(reader_config(&f.schema))
                        .with_policy(ShardPolicy::SessionAffine)
                        .with_fill_workers(workers)
                        .with_compute_workers(workers)
                        .with_shards(workers)
                        .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64));
                    let handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
                    drain_run(handle, |handle| {
                        handle.submit_partition(black_box(&f.partition));
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_workers);
criterion_main!(benches);
