//! Micro-benchmarks for the first tier of the log → table write path, over
//! the RM3 log stream the repo benchmark's `tail_rm3` workload replays:
//! scribe ingest (record encode and block compression), scribe drain (block
//! decompression and record decode), the record wire alone, and the block
//! compressor alone on one scribe block.
//!
//! The cluster is configured the way the pipeline configures it: sharded by
//! session id (O1), 128 KiB flush threshold.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use recd_codec::{hash_ids, lz};
use recd_data::LogRecord;
use recd_datagen::DatasetGenerator;
use recd_pipeline::RmPreset;
use recd_scribe::wire::decode_all;
use recd_scribe::{encode_record, ScribeCluster, ScribeConfig, ShardKeyPolicy};

const FLUSH_BYTES: usize = 128 * 1024;

/// The RM3 raw log stream at a tenth of `tail_rm3`'s session count.
fn rm3_logs() -> Vec<LogRecord> {
    let config = RmPreset::Rm3.spec().workload.with_sessions(300);
    DatasetGenerator::new(config).generate_logs().0
}

fn pipeline_config() -> ScribeConfig {
    ScribeConfig {
        flush_bytes: FLUSH_BYTES,
        ..ScribeConfig::with_policy(ShardKeyPolicy::SessionId)
    }
}

fn ingested(records: &[LogRecord]) -> ScribeCluster {
    let mut cluster = ScribeCluster::new(pipeline_config());
    cluster.ingest_all(records);
    cluster.flush();
    cluster
}

/// The bytes one shard buffers before its first flush: the encoded records
/// of the sessions that route to shard 0, in log order.
fn first_block_of_shard_zero(records: &[LogRecord]) -> Vec<u8> {
    let shards = pipeline_config().shards as u64;
    let mut block = Vec::new();
    for record in records {
        if hash_ids(&[record.session_id().raw()]).is_multiple_of(shards) {
            encode_record(record, &mut block);
            if block.len() >= FLUSH_BYTES {
                break;
            }
        }
    }
    block
}

fn bench_scribe(c: &mut Criterion) {
    let records = rm3_logs();
    let full = ingested(&records);

    let mut group = c.benchmark_group("scribe");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("ingest_rm3", |b| {
        b.iter(|| black_box(ingested(black_box(&records))))
    });
    group.bench_function("drain_rm3", |b| {
        b.iter(|| {
            // The clone copies the compressed blocks only (a memcpy of the
            // stored bytes, ~1 % of the drain).
            let drained = full.clone().drain().expect("own blocks decode");
            assert_eq!(drained.len(), records.len());
            black_box(drained)
        })
    });
    group.finish();

    // The record codec alone, without routing or block compression.
    let mut encoded = Vec::new();
    let mut group = c.benchmark_group("wire");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("encode_rm3", |b| {
        b.iter(|| {
            encoded.clear();
            for record in &records {
                encode_record(black_box(record), &mut encoded);
            }
        })
    });
    group.bench_function("decode_rm3", |b| {
        b.iter(|| {
            let mut decoded = Vec::new();
            decode_all(black_box(&encoded), &mut decoded).expect("own bytes decode");
            black_box(decoded)
        })
    });
    group.finish();

    let block = first_block_of_shard_zero(&records);
    let mut group = c.benchmark_group("lz");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("compress_scribe_block", |b| {
        b.iter(|| black_box(lz::compress(black_box(&block))))
    });
    let compressed = lz::compress(&block);
    let mut out = Vec::new();
    group.bench_function("decompress_scribe_block", |b| {
        b.iter(|| lz::decompress_into(black_box(&compressed), &mut out).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_scribe);
criterion_main!(benches);
