//! Shards ingest in lanes, byte for byte.
//!
//! `ScribeCluster::ingest_all` encodes and compresses its shards side by side
//! on every core. Each shard must still see the same records in the same
//! order whatever the lanes and however the input is split across calls, so
//! block boundaries, block bytes and `ShardStats` cannot move. The oracle is
//! one record per call: a single record is a single unit and runs inline on
//! the caller's thread, as the serial loop did. A multiset check (as in
//! `wire_format.rs`) would miss a shard whose records arrive reordered, so
//! the drained *sequence* is compared.

use recd_data::LogRecord;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_scribe::{ScribeCluster, ScribeConfig, ScribeReport, ShardKeyPolicy};

fn logs() -> Vec<LogRecord> {
    // ≈ 720 KB of encoded records: every shard fills several 16 KiB blocks.
    DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny).with_sessions(600))
        .generate_logs()
        .0
}

/// Ingests `records` in calls of the given sizes (the last call takes what is
/// left), then flushes, reports and drains.
fn run(
    config: ScribeConfig,
    records: &[LogRecord],
    mut calls: impl Iterator<Item = usize>,
) -> (ScribeReport, Vec<LogRecord>) {
    let mut cluster = ScribeCluster::new(config);
    let mut rest = records;
    while !rest.is_empty() {
        let (call, tail) = rest.split_at(calls.next().unwrap_or(rest.len()).min(rest.len()));
        cluster.ingest_all(call);
        rest = tail;
    }
    cluster.flush();
    let report = cluster.report();
    (
        report,
        cluster.drain().expect("blocks this cluster wrote decode"),
    )
}

/// Call sizes 1..=97 from a fixed linear congruential sequence.
fn uneven_calls() -> impl Iterator<Item = usize> {
    let mut state = 0x2545_f491_u64;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as usize % 97 + 1
    })
}

#[test]
fn lanes_and_call_splits_leave_every_shard_byte_identical() {
    let records = logs();
    for policy in [ShardKeyPolicy::RandomRequest, ShardKeyPolicy::SessionId] {
        for flush_bytes in [1024, 16 * 1024] {
            let config = ScribeConfig {
                flush_bytes,
                ..ScribeConfig::with_policy(policy)
            };
            let (serial, serial_drain) = run(config, &records, std::iter::repeat(1));
            // Every shard flushed mid-stream, so every lane cut blocks while
            // the others were still encoding.
            assert!(
                serial.shards.iter().all(|s| s.blocks >= 3),
                "{policy:?} at {flush_bytes} B: {:?}",
                serial.shards
            );
            assert_eq!(serial_drain.len(), records.len());
            let splits: [(&str, Box<dyn Iterator<Item = usize>>); 3] = [
                ("one call", Box::new(std::iter::empty())),
                (
                    "a cut at a third",
                    Box::new(std::iter::once(records.len() / 3)),
                ),
                ("uneven calls", Box::new(uneven_calls())),
            ];
            for (name, calls) in splits {
                let (report, drain) = run(config, &records, calls);
                assert_eq!(report, serial, "{policy:?} at {flush_bytes} B, {name}");
                assert!(
                    drain == serial_drain,
                    "{policy:?} at {flush_bytes} B, {name}: drained sequence differs"
                );
            }
        }
    }
}
