//! Benchmarks of the trainer: the pooling kernels on one flat sequence, the
//! forward pass, and the full SGD step — baseline (per-row) vs deduplicated
//! (per-slot) execution of embedding lookup + pooling (O5–O7) — and the top
//! MLP's minibatch SGD step on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recd_bench::BenchFixture;
use recd_core::{ConvertedBatch, DataLoaderConfig, FeatureConverter};
use recd_data::{ColumnarBatch, Schema};
use recd_datagen::DatasetGenerator;
use recd_etl::cluster_by_session;
use recd_pipeline::RmPreset;
use recd_reader::PreprocessPipeline;
use recd_trainer::{
    pool_sequence, Dlrm, DlrmConfig, ExecutionMode, Mlp, MlpActivations, PoolScratch, PoolingKind,
};

/// Sequence length the reader delivers: RM1 histories are 96 ids long and
/// the standard preprocessing (`TruncateList`) caps them at 64.
const SEQ_LEN: usize = 64;
const DIM: usize = 64;

fn bench_pool_sequence(c: &mut Criterion) {
    let sequence: Vec<f32> = (0..SEQ_LEN * DIM).map(|i| (i as f32).sin()).collect();
    let mut scratch = PoolScratch::default();
    let mut out = [0.0f32; DIM];
    let mut group = c.benchmark_group("pool_one_sequence_64x64");
    group.sample_size(30);
    for kind in [
        PoolingKind::Sum,
        PoolingKind::Mean,
        PoolingKind::Max,
        PoolingKind::Attention,
        PoolingKind::Transformer,
    ] {
        group.bench_function(format!("{kind:?}").to_lowercase(), |b| {
            b.iter(|| pool_sequence(kind, black_box(&sequence), DIM, &mut scratch, &mut out))
        });
    }
    group.finish();
}

fn bench_dlrm_forward(c: &mut Criterion) {
    let fixture = BenchFixture::new(60);
    let batch = fixture.dedup_batch(256);
    let config = DlrmConfig::from_schema(&fixture.schema, 32, PoolingKind::Attention);
    let mut group = c.benchmark_group("dlrm_forward_256");
    group.sample_size(10);
    group.bench_function("baseline_kjt_path", |b| {
        let mut model = Dlrm::new(config.clone());
        b.iter(|| model.forward(black_box(&batch), ExecutionMode::Baseline))
    });
    group.bench_function("dedup_ikjt_path", |b| {
        let mut model = Dlrm::new(config.clone());
        b.iter(|| model.forward(black_box(&batch), ExecutionMode::Deduplicated))
    });
    group.finish();
}

/// One session-clustered, preprocessed RM1 batch of 512 rows, as the
/// `train_rm1` workload's trainer lane receives it.
fn rm1_batch() -> (Schema, ConvertedBatch) {
    let workload = RmPreset::Rm1.spec().workload.with_sessions(80);
    let partition = DatasetGenerator::new(workload).generate_partition();
    let mut rows = cluster_by_session(&partition.samples);
    rows.truncate(512);
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&partition.schema));
    let schema = partition.schema;
    let rows = ColumnarBatch::from_samples(&rows, schema.dense_count(), schema.sparse_count());
    let mut batch = converter
        .convert_columnar(&rows)
        .expect("generated rows convert");
    PreprocessPipeline::standard(1 << 20, SEQ_LEN).apply(&mut batch);
    (schema, batch)
}

/// The RM1 Transformer d64 model on [`rm1_batch`], forward pass alone
/// (`dlrm_forward_512`, the part split across workers) and the full SGD step
/// (`dlrm_train_step_512`), in both execution modes.
fn bench_dlrm_rm1(c: &mut Criterion) {
    let (schema, batch) = rm1_batch();
    let config = DlrmConfig::from_schema(&schema, DIM, PoolingKind::Transformer);
    let modes = [
        ("baseline_kjt_path", ExecutionMode::Baseline),
        ("dedup_ikjt_path", ExecutionMode::Deduplicated),
    ];
    let mut group = c.benchmark_group("dlrm_forward_512");
    group.sample_size(10);
    for (name, mode) in modes {
        group.bench_function(name, |b| {
            let mut model = Dlrm::new(config.clone());
            b.iter(|| model.forward(black_box(&batch), mode))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("dlrm_train_step_512");
    group.sample_size(10);
    for (name, mode) in modes {
        group.bench_function(name, |b| {
            let mut model = Dlrm::new(config.clone());
            b.iter(|| model.train_step(black_box(&batch), mode))
        });
    }
    group.finish();
}

/// The RM1 top MLP (`730 → 64 → 32 → 1` at dimension 64) on 512 rows of
/// synthetic interactions, one thread: the forward pass plus the minibatch
/// backward and update (`mlp_train_512/top`).
fn bench_mlp_train(c: &mut Criterion) {
    let generator = DatasetGenerator::new(RmPreset::Rm1.spec().workload);
    let config = DlrmConfig::from_schema(generator.schema(), DIM, PoolingKind::Transformer);
    let inputs = config.feature_pooling.len() + 1;
    let mut dims = vec![DIM + inputs * (inputs - 1) / 2];
    dims.extend(&config.top_mlp);
    let mut mlp = Mlp::new(&dims, &mut StdRng::seed_from_u64(5));
    let input: Vec<f32> = (0..512 * dims[0]).map(|i| (i as f32 * 0.7).sin()).collect();
    let grads: Vec<f32> = (0..512).map(|i| 1e-3 * (i as f32).cos()).collect();
    let mut acts = MlpActivations::default();
    let mut group = c.benchmark_group("mlp_train_512");
    group.sample_size(10);
    group.bench_function("top", |b| {
        b.iter(|| {
            mlp.forward_batch(black_box(&input), &mut acts);
            mlp.backward_batch(&mut acts, black_box(&grads), 1e-3);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pool_sequence,
    bench_dlrm_forward,
    bench_dlrm_rm1,
    bench_mlp_train
);
criterion_main!(benches);
