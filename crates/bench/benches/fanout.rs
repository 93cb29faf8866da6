//! Fan-out and elastic-scaling benchmarks for the streaming DPP service.
//!
//! * `dpp_fanout/trainers_{1,4}` — end-to-end wall-clock of the same landed
//!   partition delivered to 1 vs 4 trainer endpoints, where each simulated
//!   trainer spends a fixed per-batch iteration cost. With a single trainer
//!   that cost is serial; fan-out overlaps it across lanes, which is
//!   precisely the multi-trainer capacity the paper's DPP tier exists to
//!   provide.
//! * `dpp_scaleup/first_grow` — latency from fill-pressure onset to the
//!   PID controller's first observed grow event (queue saturation plus
//!   detection), measured under an injected storage latency that a single
//!   fill worker cannot hide.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recd_bench::BenchFixture;
use recd_core::DataLoaderConfig;
use recd_dpp::{
    CtrlConfig, DppConfig, DppHandle, DppReport, DppService, ShardPolicy, TrainerAssignPolicy,
};
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct LandedFixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    blob: TectonicSim,
    partition: StoredPartition,
}

fn landed_fixture() -> LandedFixture {
    let fixture = BenchFixture::new(120);
    let blob = TectonicSim::new(8);
    let store = Arc::new(TableStore::new(blob.clone(), 32, 2));
    let (partition, _) = store.land_partition(&fixture.schema, "bench", 0, &fixture.samples);
    LandedFixture {
        schema: fixture.schema,
        store,
        blob,
        partition,
    }
}

fn reader_config(schema: &recd_data::Schema) -> ReaderConfig {
    ReaderConfig::new(128, DataLoaderConfig::from_schema(schema))
}

/// Modeled per-batch trainer iteration cost: long enough that one serial
/// trainer dominates the run (the partition yields ~27 batches, so a single
/// trainer owes ~27ms of iteration time vs ~10ms of preprocessing), short
/// enough to keep the bench quick.
const TRAINER_STEP: Duration = Duration::from_millis(1);

fn run_with_trainers(f: &LandedFixture, trainers: usize) -> usize {
    let config = DppConfig::new(reader_config(&f.schema))
        .with_policy(ShardPolicy::SessionAffine)
        .with_fill_workers(2)
        .with_compute_workers(4)
        .with_shards(4)
        .with_trainers(trainers)
        .with_assign_policy(TrainerAssignPolicy::ShardPinned)
        .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64));
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| {
            std::thread::spawn(move || {
                let mut batches = 0usize;
                while let Some(item) = trainer.recv() {
                    std::thread::sleep(TRAINER_STEP);
                    black_box(item.batch.batch_size);
                    batches += 1;
                }
                batches
            })
        })
        .collect();
    handle.submit_partition(&f.partition);
    let report = handle.finish().expect("clean bench run").report;
    let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(consumed, report.batches);
    consumed
}

fn bench_fanout(c: &mut Criterion) {
    let f = landed_fixture();
    let mut group = c.benchmark_group("dpp_fanout");
    group.sample_size(10);
    group.bench_function("trainers_1", |b| b.iter(|| run_with_trainers(&f, 1)));
    group.bench_function("trainers_4", |b| b.iter(|| run_with_trainers(&f, 4)));
    group.finish();
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

fn bench_scaleup_latency(c: &mut Criterion) {
    let f = landed_fixture();
    let mut group = c.benchmark_group("dpp_scaleup");
    group.sample_size(10);
    group.bench_function("first_grow", |b| {
        b.iter(|| {
            // Pressure on: a single fill worker stalls on every fetch.
            f.blob.set_get_latency(Duration::from_millis(1));
            let config = DppConfig::new(reader_config(&f.schema))
                .with_fill_workers(1)
                .with_compute_workers(2)
                .with_shards(2)
                .with_queue_depth(4)
                .with_ctrl(CtrlConfig::bounds(1, 4).with_tick_period(Duration::from_millis(4)))
                .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64));
            let handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
            let source = handle.snapshot_source();
            drain_run(handle, |handle| {
                handle.submit_partition(&f.partition);
                // The measured quantity: pressure onset → first grow event.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !source.snapshot().scale_events.iter().any(|e| e.is_grow()) {
                    assert!(Instant::now() < deadline, "controller never scaled up");
                    std::thread::yield_now();
                }
                f.blob.set_get_latency(Duration::ZERO);
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fanout, bench_scaleup_latency);
criterion_main!(benches);
