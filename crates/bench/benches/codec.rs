//! Micro-benchmarks for the codec stack: block compression on clustered vs
//! interleaved rows, the columnar encodings, and the DWRF decode path layer
//! by layer (LZ block → varint streams → stripe → file) on RM1-shaped rows
//! at high and at no duplication.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use recd_bench::BenchFixture;
use recd_codec::{delta, dict, lz, rle, varint, Compressor};
use recd_data::{ColumnarBatch, FeatureClass, Sample, Schema};
use recd_datagen::DatasetGenerator;
use recd_etl::{cluster_by_session, interleave_by_time};
use recd_pipeline::RmPreset;
use recd_storage::{
    decode_stripe_columnar_into, encode_stripe, DecodeScratch, DwrfWriter, FileReadScratch,
};

/// Rows per stripe and stripes per file of the landed tables the repo
/// benchmark reads (`TableStore::new(_, 64, 4)`).
const STRIPE_ROWS: usize = 64;
const FILE_STRIPES: usize = 4;

fn bench_block_compression(c: &mut Criterion) {
    let fixture = BenchFixture::new(60);
    let clustered = &fixture.samples[..512.min(fixture.samples.len())];
    let interleaved = interleave_by_time(clustered);

    let mut group = c.benchmark_group("stripe_encode");
    group.sample_size(15);
    group.bench_function("clustered_512_rows", |b| {
        b.iter(|| encode_stripe(black_box(&fixture.schema), black_box(clustered)))
    });
    group.bench_function("interleaved_512_rows", |b| {
        b.iter(|| encode_stripe(black_box(&fixture.schema), black_box(&interleaved)))
    });
    group.finish();

    // Raw LZ round trip throughput on a redundant byte stream.
    let data: Vec<u8> = clustered
        .iter()
        .flat_map(|s| s.sparse.iter().flatten().flat_map(|v| v.to_le_bytes()))
        .collect();
    let compressed = Compressor::Lz.compress(&data);
    let mut group = c.benchmark_group("lz");
    group.sample_size(15);
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("compress", |b| {
        b.iter(|| Compressor::Lz.compress(black_box(&data)))
    });
    group.throughput(Throughput::Bytes(compressed.len() as u64));
    group.bench_function("decompress", |b| {
        b.iter(|| Compressor::Lz.decompress(black_box(&compressed)).unwrap())
    });
    group.finish();
}

fn bench_integer_encodings(c: &mut Criterion) {
    let offsets: Vec<u64> = (0..4096u64).map(|i| i * 97).collect();
    let repeated: Vec<u64> = (0..4096u64).map(|i| 1_000_000 + (i % 9)).collect();

    let mut group = c.benchmark_group("int_encodings_4096");
    group.sample_size(30);
    group.bench_function("varint", |b| {
        b.iter(|| varint::encode_u64_slice(black_box(&offsets)))
    });
    group.bench_function("delta", |b| b.iter(|| delta::encode(black_box(&offsets))));
    group.bench_function("rle", |b| b.iter(|| rle::encode(black_box(&repeated))));
    group.bench_function("dictionary", |b| {
        b.iter(|| dict::encode(black_box(&repeated)))
    });
    group.finish();
}

/// One file's worth of RM1 rows. `low_dup` takes the duplication out the way
/// the repo benchmark's `preproc_lowdup` does: sessions of ~1.3 samples, user
/// features that change on nine impressions out of ten, rows in time order.
fn rm1_rows(low_dup: bool) -> (Schema, Vec<Sample>) {
    let mut config = RmPreset::Rm1.spec().workload.with_sessions(40);
    if low_dup {
        config = config.with_sessions(400);
        config.samples_per_session_mean = 1.3;
        config.samples_per_session_sigma = 0.3;
        for profile in &mut config.profiles {
            if profile.class == FeatureClass::User {
                profile.stay_prob = 0.1;
            }
        }
    }
    let partition = DatasetGenerator::new(config).generate_partition();
    let mut rows = if low_dup {
        interleave_by_time(&partition.samples)
    } else {
        cluster_by_session(&partition.samples)
    };
    assert!(
        rows.len() >= STRIPE_ROWS * FILE_STRIPES,
        "fixture too small"
    );
    rows.truncate(STRIPE_ROWS * FILE_STRIPES);
    (partition.schema, rows)
}

/// The sparse value streams of one stripe, encoded per feature as
/// `encode_stripe` stores them, plus the number of ids they hold.
fn value_streams(schema: &Schema, stripe: &[Sample]) -> (Vec<Vec<u8>>, u64) {
    let streams: Vec<Vec<u8>> = (0..schema.sparse_count())
        .map(|f| {
            let values: Vec<u64> = stripe
                .iter()
                .flat_map(|s| s.sparse[f].iter().copied())
                .collect();
            varint::encode_u64_slice(&values)
        })
        .collect();
    let ids = stripe
        .iter()
        .map(|s| s.sparse.iter().map(Vec::len).sum::<usize>())
        .sum::<usize>();
    (streams, ids as u64)
}

fn bench_decode_path(c: &mut Criterion) {
    let (schema, clustered) = rm1_rows(false);
    let (_, low_dup) = rm1_rows(true);
    let clustered_stripe = &clustered[..STRIPE_ROWS];
    let low_dup_stripe = &low_dup[..STRIPE_ROWS];

    let (block, stats) = encode_stripe(&schema, clustered_stripe);
    let mut group = c.benchmark_group("lz");
    group.sample_size(30);
    group.throughput(Throughput::Bytes(stats.encoded_bytes as u64));
    let mut out = Vec::new();
    group.bench_function("decompress_clustered_stripe", |b| {
        b.iter(|| lz::decompress_into(black_box(&block), &mut out).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("varint");
    group.sample_size(30);
    let mut values = Vec::new();
    for (name, stripe) in [("rm1", clustered_stripe), ("lowdup", low_dup_stripe)] {
        let (streams, ids) = value_streams(&schema, stripe);
        group.throughput(Throughput::Elements(ids));
        group.bench_function(format!("decode_slice_{name}"), |b| {
            b.iter(|| {
                for stream in &streams {
                    varint::decode_u64_slice_into(black_box(stream), &mut values).unwrap();
                }
            })
        });
    }
    group.finish();

    // Throughput is decoded column-stream bytes (the stripe before block
    // compression) per second.
    let mut group = c.benchmark_group("stripe_decode");
    group.sample_size(30);
    let mut scratch = DecodeScratch::default();
    let mut rows = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
    for (name, stripe) in [
        ("clustered", clustered_stripe),
        ("interleaved", low_dup_stripe),
    ] {
        let (block, stats) = encode_stripe(&schema, stripe);
        group.throughput(Throughput::Bytes(stats.encoded_bytes as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                decode_stripe_columnar_into(&schema, black_box(&block), &mut scratch, &mut rows)
                    .unwrap()
            })
        });
    }
    group.finish();

    // Blob bytes → batch, the way a fill worker does it: footer parsed in
    // place, stripes decoded onto the end of a recycled batch.
    let mut group = c.benchmark_group("file_decode_into");
    group.sample_size(30);
    for (name, file_rows) in [
        ("clustered_4x64_rows", &clustered),
        ("interleaved_4x64_rows", &low_dup),
    ] {
        let mut writer = DwrfWriter::new(&schema, STRIPE_ROWS);
        writer.write(file_rows);
        let (file, stripe_stats) = writer.finish();
        let encoded_bytes: usize = stripe_stats.iter().map(|s| s.encoded_bytes).sum();
        let mut scratch = FileReadScratch::default();
        scratch.blob_buf().extend_from_slice(&file.to_blob());
        group.throughput(Throughput::Bytes(encoded_bytes as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                scratch
                    .read_fetched_columnar_into(black_box(&schema), &mut rows)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_block_compression,
    bench_integer_encodings,
    bench_decode_path
);
criterion_main!(benches);
