//! Benchmarks of the feature-conversion step (O3) and deduplicated
//! preprocessing (O4): baseline KJT conversion vs IKJT conversion (from rows
//! built in memory, and from rows decoded with their repeat hints), and the
//! preprocessing pipeline over both.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use recd_bench::BenchFixture;
use recd_reader::PreprocessPipeline;
use recd_storage::{decode_stripe_columnar, encode_stripe};

fn bench_conversion(c: &mut Criterion) {
    let fixture = BenchFixture::new(80);
    let mut group = c.benchmark_group("feature_conversion");
    group.sample_size(15);
    for &batch_size in &[128usize, 512] {
        let batch = fixture.columnar_batch(batch_size);
        group.bench_with_input(
            BenchmarkId::new("baseline_kjt", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    fixture
                        .baseline_converter
                        .convert_columnar_baseline(black_box(batch))
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recd_ikjt", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| {
                    fixture
                        .dedup_converter
                        .convert_columnar(black_box(batch))
                        .unwrap()
                })
            },
        );
    }
    // The same 512 rows stored as one stripe and decoded back: the batch
    // carries the repeat hints a fill worker's batch carries.
    let (block, _) = encode_stripe(&fixture.schema, &fixture.samples[..512]);
    let decoded = decode_stripe_columnar(&fixture.schema, &block).expect("stripe decodes");
    group.bench_with_input(
        BenchmarkId::new("recd_ikjt_decoded", 512),
        &decoded,
        |b, batch| {
            b.iter(|| {
                fixture
                    .dedup_converter
                    .convert_columnar(black_box(batch))
                    .unwrap()
            })
        },
    );
    group.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let fixture = BenchFixture::new(80);
    let dedup = fixture.dedup_batch(512);
    let baseline = fixture.baseline_batch(512);
    let mut group = c.benchmark_group("preprocess_512");
    group.sample_size(15);
    group.bench_function("baseline_kjt", |b| {
        b.iter_batched(
            || baseline.clone(),
            |mut batch| PreprocessPipeline::standard(1 << 20, 64).apply(black_box(&mut batch)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("dedup_ikjt", |b| {
        b.iter_batched(
            || dedup.clone(),
            |mut batch| PreprocessPipeline::standard(1 << 20, 64).apply(black_box(&mut batch)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_conversion, bench_preprocessing);
criterion_main!(benches);
