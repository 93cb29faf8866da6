//! Benchmarks of the columnar zero-copy fill→convert path, swept over
//! low/high dedup-factor and wide/narrow sparse distributions, plus
//! decode+convert on the default datagen workload and the flat process
//! phase against its row-wise reference.
//!
//! `scripts/bench_snapshot.sh` parses this bench's output into
//! `BENCH_pipeline.json`, the repo's performance trajectory record.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recd_bench::BenchFixture;
use recd_core::{DataLoaderConfig, FeatureConverter, InverseKeyedJaggedTensor};
use recd_data::{ColumnarBatch, FeatureId, RequestId, Sample, SessionId, Timestamp};
use recd_reader::PreprocessPipeline;
use recd_storage::{decode_stripe_columnar, encode_stripe};

const BATCH: usize = 512;

/// One synthetic workload shape: how often rows repeat and how many ids a
/// sparse row carries.
struct Scenario {
    name: &'static str,
    /// Consecutive rows sharing one feature tuple (the in-batch dup factor).
    dup_factor: usize,
    /// Ids per row of the deduplicated feature (the non-dedup feature gets
    /// a quarter of this, minimum one).
    width: usize,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "low_dup_narrow",
        dup_factor: 1,
        width: 4,
    },
    Scenario {
        name: "low_dup_wide",
        dup_factor: 1,
        width: 32,
    },
    Scenario {
        name: "high_dup_narrow",
        dup_factor: 8,
        width: 4,
    },
    Scenario {
        name: "high_dup_wide",
        dup_factor: 8,
        width: 32,
    },
];

/// Deterministic synthetic batch: `BATCH` rows, each distinct feature tuple
/// repeated `dup_factor` times consecutively (sessions clustered, as the ETL
/// stage guarantees).
fn scenario_samples(s: &Scenario) -> Vec<Sample> {
    let narrow = (s.width / 4).max(1);
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut samples = Vec::with_capacity(BATCH);
    while samples.len() < BATCH {
        let session = samples.len() / s.dup_factor;
        let f0: Vec<u64> = (0..s.width).map(|_| next() % 100_000).collect();
        let f1: Vec<u64> = (0..narrow).map(|_| next() % 100_000).collect();
        for _ in 0..s.dup_factor {
            if samples.len() >= BATCH {
                break;
            }
            let i = samples.len() as u64;
            samples.push(
                Sample::builder(
                    SessionId::new(session as u64),
                    RequestId::new(i),
                    Timestamp::from_millis(i),
                )
                .label((i % 2) as f32)
                .dense(vec![i as f32, session as f32])
                .sparse(vec![f0.clone(), f1.clone()]),
            );
        }
    }
    samples.into_iter().map(|b| b.build()).collect()
}

fn scenario_converter() -> FeatureConverter {
    FeatureConverter::new(
        DataLoaderConfig::new()
            .with_kjt_features([FeatureId::new(1)])
            .with_dedup_group([FeatureId::new(0)])
            .with_dense_features(2),
    )
}

/// Convert phase only: `convert_columnar` over prebuilt batches, across
/// the dup-factor/width sweep.
fn bench_convert_scenarios(c: &mut Criterion) {
    let converter = scenario_converter();
    let mut group = c.benchmark_group("columnar_convert");
    group.sample_size(20);
    for s in SCENARIOS {
        let columnar = ColumnarBatch::from_samples(&scenario_samples(s), 2, 2);
        group.throughput(Throughput::Elements(columnar.sparse_value_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("columnar", s.name),
            &columnar,
            |b, columnar| b.iter(|| converter.convert_columnar(black_box(columnar)).unwrap()),
        );
    }
    group.finish();
}

/// IKJT dedup only: the flat-table columnar dedup, across the sweep.
fn bench_dedup_scenarios(c: &mut Criterion) {
    let group_features = [FeatureId::new(0), FeatureId::new(1)];
    let mut group = c.benchmark_group("columnar_dedup");
    group.sample_size(20);
    for s in SCENARIOS {
        let columnar = ColumnarBatch::from_samples(&scenario_samples(s), 2, 2);
        group.throughput(Throughput::Elements(columnar.sparse_value_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("from_columnar", s.name),
            &columnar,
            |b, columnar| {
                b.iter(|| {
                    InverseKeyedJaggedTensor::dedup_from_columnar(
                        black_box(columnar),
                        &group_features,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Convert phase on the default datagen workload (the same fixture and
/// batch size as `dedup_conversion`'s `feature_conversion/recd_ikjt/512`,
/// for cross-version comparison).
fn bench_convert_datagen(c: &mut Criterion) {
    let fixture = BenchFixture::new(80);
    let columnar = fixture.columnar_batch(BATCH);
    let mut group = c.benchmark_group("datagen_convert_512");
    group.sample_size(20);
    group.throughput(Throughput::Elements(columnar.sparse_value_count() as u64));
    group.bench_function("columnar", |b| {
        b.iter(|| {
            fixture
                .dedup_converter
                .convert_columnar(black_box(&columnar))
                .unwrap()
        })
    });
    group.finish();
}

/// One stored stripe of the default datagen workload decoded flat and
/// converted with `convert_columnar` — the decode + convert work the
/// streaming service's fill and compute workers do per batch.
fn bench_fill_convert_datagen(c: &mut Criterion) {
    let fixture = BenchFixture::new(120);
    let rows = &fixture.samples[..BATCH.min(fixture.samples.len())];
    let (block, _) = encode_stripe(&fixture.schema, rows);
    let values: usize = rows.iter().map(Sample::sparse_value_count).sum();

    let mut group = c.benchmark_group("pipeline_fill_convert");
    group.sample_size(20);
    group.throughput(Throughput::Elements(values as u64));
    group.bench_function("columnar", |b| {
        b.iter(|| {
            let batch = decode_stripe_columnar(&fixture.schema, black_box(&block)).unwrap();
            fixture.dedup_converter.convert_columnar(&batch).unwrap()
        })
    });
    group.finish();
}

/// Process phase (O4) on the default datagen workload: the flat in-place
/// transform path vs the row-wise allocate-per-apply reference, over both a
/// baseline (KJT-only) batch and a deduplicated (IKJT) batch. The
/// `rowwise/baseline` ÷ `flat/baseline` ratio is the headline
/// `process_speedup_flat_vs_rowwise` metric in `BENCH_pipeline.json`.
fn bench_preprocess(c: &mut Criterion) {
    let fixture = BenchFixture::new(80);
    let baseline = fixture.baseline_batch(BATCH);
    let dedup = fixture.dedup_batch(BATCH);
    let pipeline = PreprocessPipeline::standard(1 << 20, 64);

    let mut group = c.benchmark_group("preprocess");
    group.sample_size(20);
    for (name, batch) in [("baseline", &baseline), ("dedup", &dedup)] {
        group.throughput(Throughput::Elements(batch.stored_sparse_values() as u64));
        group.bench_with_input(BenchmarkId::new("rowwise", name), batch, |b, batch| {
            b.iter_batched(
                || batch.clone(),
                |mut batch| pipeline.apply_rowwise(black_box(&mut batch)),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("flat", name), batch, |b, batch| {
            b.iter_batched(
                || batch.clone(),
                |mut batch| pipeline.apply(black_box(&mut batch)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_convert_scenarios,
    bench_dedup_scenarios,
    bench_convert_datagen,
    bench_fill_convert_datagen,
    bench_preprocess
);
criterion_main!(benches);
