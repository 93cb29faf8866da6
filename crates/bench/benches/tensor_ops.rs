//! Micro-benchmarks for the core tensor operations: KJT/IKJT construction,
//! jagged index select vs the densify-then-select baseline, and partial
//! IKJT packing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recd_bench::BenchFixture;
use recd_core::{
    dense_index_select, jagged_index_select, InverseKeyedJaggedTensor, JaggedTensor,
    KeyedJaggedTensor, PartialIkjt,
};
use recd_data::FeatureId;

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

    let rows: Vec<Vec<u64>> = tensor.iter().map(<[u64]>::to_vec).collect();
    c.bench_function("partial_ikjt_pack_512x64", |b| {
        b.iter(|| PartialIkjt::dedup_from_rows(feature, black_box(&rows)))
    });
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
    targets = bench_dedup_and_select, bench_kjt_from_columnar
}
criterion_main!(benches);
