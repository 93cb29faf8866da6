//! Benchmarks of the columnar zero-copy fill→convert path, swept over
//! low/high dedup-factor and wide/narrow sparse distributions, plus
//! decode+convert on the default datagen workload, the flat process
//! phase against its row-wise reference, and the factor × width sweep that
//! pins `recd_core::BREAK_EVEN_FACTOR`.
//!
//! `scripts/bench_snapshot.sh` parses this bench's output into
//! `BENCH_pipeline.json`, the repo's performance trajectory record.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recd_bench::BenchFixture;
use recd_core::{
    ConvertedBatch, DataLoaderConfig, DedupScratch, FeatureConverter, InverseKeyedJaggedTensor,
};
use recd_data::{ColumnarBatch, FeatureId, RequestId, RowRuns, Sample, SessionId, Timestamp};
use recd_reader::PreprocessPipeline;
use recd_storage::{decode_stripe_columnar, encode_stripe};

#[path = "../../../tests/rowwise/mod.rs"]
mod rowwise;

const BATCH: usize = 512;

/// One synthetic workload shape: how often rows repeat, how many ids a
/// sparse row carries, and whether repeats carry the stripe decoder's marks.
struct Scenario {
    /// Rows per distinct feature tuple (the in-batch dedupe factor).
    dup_factor: f64,
    /// Ids per row of the deduplicated feature (the non-dedup feature gets
    /// a quarter of this, minimum one).
    width: usize,
    /// Whether each row equal to its predecessor is marked as a repeat, as
    /// `decode_stripe_columnar` marks it.
    marked: bool,
}

const SCENARIOS: &[(&str, Scenario)] = &[
    (
        "low_dup_narrow",
        Scenario {
            dup_factor: 1.0,
            width: 4,
            marked: false,
        },
    ),
    (
        "low_dup_wide",
        Scenario {
            dup_factor: 1.0,
            width: 32,
            marked: false,
        },
    ),
    (
        "high_dup_narrow",
        Scenario {
            dup_factor: 8.0,
            width: 4,
            marked: false,
        },
    ),
    (
        "high_dup_wide",
        Scenario {
            dup_factor: 8.0,
            width: 32,
            marked: false,
        },
    ),
];

/// Deterministic synthetic batch: `BATCH` rows holding `BATCH / dup_factor`
/// distinct feature tuples, each repeated in one consecutive run (sessions
/// clustered, as the ETL stage guarantees), runs spread evenly.
fn scenario_batch(s: &Scenario) -> ColumnarBatch {
    let narrow = (s.width / 4).max(1);
    let distinct = (BATCH as f64 / s.dup_factor).round() as usize;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let (mut f0, mut f1) = (Vec::new(), Vec::new());
    let samples: Vec<Sample> = (0..BATCH)
        .map(|i| {
            let session = i * distinct / BATCH;
            if i == 0 || session != (i - 1) * distinct / BATCH {
                f0 = (0..s.width).map(|_| next() % (1 << 22)).collect();
                f1 = (0..narrow).map(|_| next() % (1 << 22)).collect();
            }
            let i = i as u64;
            Sample::builder(
                SessionId::new(session as u64),
                RequestId::new(i),
                Timestamp::from_millis(i),
            )
            .label((i % 2) as f32)
            .dense(vec![i as f32, session as f32])
            .sparse(vec![f0.clone(), f1.clone()])
            .build()
        })
        .collect();
    let mut batch = ColumnarBatch::from_samples(&samples, 2, 2);
    if s.marked {
        for column in batch.columns_mut().sparse.iter_mut() {
            for row in 1..BATCH {
                if column.row(row) == column.row(row - 1) {
                    column.mark_repeat(row);
                }
            }
        }
    }
    batch
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
/// the dup-factor/width sweep. At factor 1 the dedup group ships as KJT, so
/// the `low_dup` rows time that fallback; `columnar_dedup` times the IKJT
/// path at every factor.
fn bench_convert_scenarios(c: &mut Criterion) {
    let converter = scenario_converter();
    let mut group = c.benchmark_group("columnar_convert");
    group.sample_size(20);
    for (name, s) in SCENARIOS {
        let columnar = scenario_batch(s);
        group.throughput(Throughput::Elements(columnar.sparse_value_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("columnar", name),
            &columnar,
            |b, columnar| b.iter(|| converter.convert_columnar(black_box(columnar)).unwrap()),
        );
    }
    group.finish();
}

/// IKJT dedup only: the flat-table columnar dedup over the batch as one
/// run, into a fresh IKJT with fresh scratch, across the sweep.
fn bench_dedup_scenarios(c: &mut Criterion) {
    let group_features = [FeatureId::new(0), FeatureId::new(1)];
    let mut group = c.benchmark_group("columnar_dedup");
    group.sample_size(20);
    for (name, s) in SCENARIOS {
        let columnar = scenario_batch(s);
        group.throughput(Throughput::Elements(columnar.sparse_value_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("from_columnar", name),
            &columnar,
            |b, columnar| {
                b.iter(|| {
                    let columnar = black_box(columnar);
                    let mut ikjt = InverseKeyedJaggedTensor::default();
                    InverseKeyedJaggedTensor::dedup_from_runs_into(
                        &RowRuns::new(&[(columnar, 0..columnar.len())]),
                        &group_features,
                        &mut DedupScratch::default(),
                        &mut ikjt,
                    )
                    .unwrap();
                    ikjt
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
/// transform path vs the row-wise allocate-per-apply reference
/// (`tests/rowwise/mod.rs`), over both a baseline (KJT-only) batch and a
/// deduplicated (IKJT) batch. The `rowwise/baseline` ÷ `flat/baseline`
/// ratio is the headline `process_speedup_flat_vs_rowwise` metric in
/// `BENCH_pipeline.json`.
fn bench_preprocess(c: &mut Criterion) {
    let fixture = BenchFixture::new(80);
    let baseline = fixture.baseline_batch(BATCH);
    let dedup = fixture.dedup_batch(BATCH);
    // `PreprocessPipeline::standard(1 << 20, 64)`, described.
    let spec = rowwise::Spec {
        steps: vec![
            rowwise::Step::Truncate(64),
            rowwise::Step::Bucketize(1 << 20),
        ],
        normalize_dense: true,
    };
    let pipeline = spec.build();

    let mut group = c.benchmark_group("preprocess");
    group.sample_size(20);
    for (name, batch) in [("baseline", &baseline), ("dedup", &dedup)] {
        group.throughput(Throughput::Elements(batch.stored_sparse_values() as u64));
        group.bench_with_input(BenchmarkId::new("rowwise", name), batch, |b, batch| {
            b.iter_batched(
                || batch.clone(),
                |mut batch| rowwise::apply(&spec, black_box(&mut batch)),
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

/// Dedupe factors of the break-even sweep.
const SWEEP_FACTORS: [f64; 8] = [1.0, 1.02, 1.05, 1.1, 1.25, 1.5, 2.0, 4.0];
/// Ids per row of the sweep's group: RM1's element-wise, short-list and
/// (truncated) sequence widths.
const SWEEP_WIDTHS: [usize; 3] = [1, 8, 64];

/// The break-even sweep behind `recd_core::BREAK_EVEN_FACTOR`: for each
/// dedupe factor × group width, over a marked [`scenario_batch`] whose
/// feature 0 is the group, convert + process of the group as an IKJT
/// and as plain KJT (`break_even/{ikjt,kjt}/f<factor>_w<width>`), and the
/// sparse bytes each form ships (`break_even/bytes` lines). The threshold is
/// the smallest factor at which the IKJT form wins on time or on bytes, the
/// minimum over the widths.
fn bench_break_even(c: &mut Criterion) {
    let feature = FeatureId::new(0);
    let kjt = FeatureConverter::new(DataLoaderConfig::new().with_kjt_features([feature]));
    let pipeline = PreprocessPipeline::standard(1 << 20, 64);
    let mut scratch = DedupScratch::default();
    let mut group = c.benchmark_group("break_even");
    group.sample_size(50);
    for width in SWEEP_WIDTHS {
        for factor in SWEEP_FACTORS {
            let batch = scenario_batch(&Scenario {
                dup_factor: factor,
                width,
                marked: true,
            });
            let cell = format!("f{factor}_w{width}");
            // The IKJT form, built directly: at a low factor the converter
            // itself would ship this group as KJT.
            let ikjt_form = |shell: &mut ConvertedBatch, scratch: &mut DedupScratch| {
                shell.batch_size = batch.len();
                shell.labels.clear();
                shell.labels.extend_from_slice(batch.labels());
                shell.ikjts.resize_with(1, Default::default);
                InverseKeyedJaggedTensor::dedup_from_runs_into(
                    &RowRuns::new(&[(&batch, 0..batch.len())]),
                    &[feature],
                    scratch,
                    &mut shell.ikjts[0],
                )
                .unwrap();
                pipeline.apply(shell);
            };
            let kjt_form = |shell: &mut ConvertedBatch, scratch: &mut DedupScratch| {
                kjt.convert_columnar_into(&batch, scratch, shell).unwrap();
                pipeline.apply(shell);
            };
            let (mut ikjt_shell, mut kjt_shell) = Default::default();
            ikjt_form(&mut ikjt_shell, &mut scratch);
            kjt_form(&mut kjt_shell, &mut scratch);
            println!(
                "break_even/bytes/{cell:<38} ikjt {:>8} B  kjt {:>8} B",
                ikjt_shell.sparse_payload_bytes(),
                kjt_shell.sparse_payload_bytes()
            );
            group.throughput(Throughput::Elements(BATCH as u64));
            group.bench_function(BenchmarkId::new("ikjt", &cell), |b| {
                b.iter(|| ikjt_form(black_box(&mut ikjt_shell), &mut scratch))
            });
            group.bench_function(BenchmarkId::new("kjt", &cell), |b| {
                b.iter(|| kjt_form(black_box(&mut kjt_shell), &mut scratch))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_convert_scenarios,
    bench_dedup_scenarios,
    bench_convert_datagen,
    bench_fill_convert_datagen,
    bench_preprocess,
    bench_break_even
);
criterion_main!(benches);
