//! Micro-benchmarks for the core tensor operations: KJT/IKJT construction,
//! jagged index select vs the densify-then-select baseline, and packing an
//! RM1 batch's slot tensors into windows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recd_bench::BenchFixture;
use recd_core::{
    dense_index_select, jagged_index_select, DataLoaderConfig, FeatureConverter,
    InverseKeyedJaggedTensor, JaggedTensor, KeyedJaggedTensor,
};
use recd_data::{ColumnarBatch, FeatureId};
use recd_datagen::DatasetGenerator;
use recd_etl::cluster_by_session;
use recd_pipeline::RmPreset;
use recd_reader::{HashBucketize, SparseTransform, TransformScratch, TruncateList};

fn sequence_tensor(rows: usize, len: usize, duplicates: usize) -> JaggedTensor<u64> {
    // `duplicates` consecutive rows share a value, emulating a clustered batch.
    let lists: Vec<Vec<u64>> = (0..rows)
        .map(|r| {
            let base = (r / duplicates.max(1)) as u64;
            (0..len as u64).map(|i| base * 10_000 + i).collect()
        })
        .collect();
    JaggedTensor::from_lists(&lists)
}

fn bench_dedup_and_select(c: &mut Criterion) {
    let feature = FeatureId::new(0);
    let tensor = sequence_tensor(512, 64, 12);
    let kjt = KeyedJaggedTensor::from_tensors(vec![(feature, tensor.clone())]).unwrap();

    c.bench_function("ikjt_dedup_from_kjt_512x64", |b| {
        b.iter(|| InverseKeyedJaggedTensor::dedup_from_kjt(black_box(&kjt), &[feature]).unwrap())
    });

    let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[feature]).unwrap();
    let slots = ikjt.feature(feature).unwrap().clone();
    let lookup = ikjt.inverse_lookup().to_vec();
    c.bench_function("jagged_index_select_512x64", |b| {
        b.iter(|| jagged_index_select(black_box(&slots), black_box(&lookup)).unwrap())
    });
    c.bench_function("dense_index_select_512x64", |b| {
        b.iter(|| dense_index_select(black_box(&slots), black_box(&lookup)).unwrap())
    });
    c.bench_function("ikjt_to_kjt_expand_512x64", |b| {
        b.iter(|| black_box(&ikjt).to_kjt().unwrap())
    });
}

/// The last step of the IKJT path: packing the slot tensors of a 512-row
/// clustered RM1 batch, converted and then truncated to 64 ids and hashed
/// as `PreprocessPipeline::standard(1 << 20, 64)` does, into windows.
fn bench_pack_windows(c: &mut Criterion) {
    let workload = RmPreset::Rm1.spec().workload.with_sessions(60);
    let partition = DatasetGenerator::new(workload).generate_partition();
    let schema = partition.schema;
    let rows = cluster_by_session(&partition.samples);
    let columns = ColumnarBatch::from_samples(
        &rows[..512.min(rows.len())],
        schema.dense_count(),
        schema.sparse_count(),
    );
    let mut batch = FeatureConverter::new(DataLoaderConfig::from_schema(&schema))
        .convert_columnar(&columns)
        .expect("fixture converts");
    let mut scratch = TransformScratch::default();
    for (_, tensor) in batch.ikjts.iter_mut().flat_map(|ikjt| ikjt.iter_mut()) {
        tensor
            .edit_flat(|values, offsets| {
                TruncateList { max_len: 64 }.apply_flat(values, offsets, &mut scratch);
                HashBucketize { buckets: 1 << 20 }.apply_flat(values, offsets, &mut scratch);
            })
            .expect("transforms keep the jagged invariants");
    }

    let mut group = c.benchmark_group("pack_windows");
    group.bench_function("rm1_512", |b| {
        b.iter_batched(
            || batch.ikjts.clone(),
            |mut ikjts| {
                ikjts
                    .iter_mut()
                    .for_each(InverseKeyedJaggedTensor::pack_windows);
                ikjts
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_kjt_from_columnar(c: &mut Criterion) {
    let fixture = BenchFixture::new(60);
    let batch = fixture.columnar_batch(256);
    let features: Vec<FeatureId> = fixture
        .schema
        .sparse_features()
        .iter()
        .map(|f| f.id)
        .collect();
    c.bench_function("kjt_from_columnar_256_rows", |b| {
        b.iter(|| {
            KeyedJaggedTensor::from_columnar(black_box(&batch), black_box(&features)).unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dedup_and_select, bench_pack_windows, bench_kjt_from_columnar
}
criterion_main!(benches);
