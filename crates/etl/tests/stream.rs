//! Deterministic end-to-end replay harness for the continuous ETL stage,
//! plus property and fault/edge tests.
//!
//! The headline assertions:
//!
//! * Tailing a seeded log under a [`ManualClock`] produces partitions
//!   **byte-identical** (down to the landed DWRF blob bytes) to the batch
//!   `join_logs` → `HourlyPartitioner` → layout path, across seeds, both
//!   [`TableLayout`]s, and any pump step size.
//! * Feeding a running `recd-dpp` service through
//!   `DppHandle::ingest_partition` as partitions land yields exactly the
//!   batches the batch pipeline produces from its pre-built table.
//! * Any permutation of record arrival within the join window yields the
//!   same labeled samples; records later than the watermark are dropped and
//!   counted, never silently lost or double-joined.

use proptest::collection::vec;
use proptest::prelude::*;
use recd_core::{ConvertedBatch, DataLoaderConfig};
use recd_data::{EventLog, FeatureLog, LogRecord, RequestId, Sample, Schema, SessionId, Timestamp};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{DppConfig, DppError, DppHandle, DppOutput, DppService, ShardPolicy, TrainerBatch};
use recd_etl::{
    cluster_by_session, interleave_by_time, join_logs, EtlService, EtlServiceOutput, EtlStream,
    EtlStreamConfig, HourlyPartitioner, ManualClock, SealReason, TableLayout, TablePartition,
};
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_scribe::{LogTail, TailConfig};
use recd_storage::{StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;
use std::thread::JoinHandle;

const HOUR: u64 = Timestamp::MILLIS_PER_HOUR;

/// The batch reference: join, partition hourly, apply the layout — the exact
/// output `EtlJob` lands, without downsampling.
fn batch_reference(records: &[LogRecord], layout: TableLayout) -> Vec<TablePartition> {
    let joined = join_logs(records);
    let mut partitions = HourlyPartitioner::partition(joined.samples);
    for partition in &mut partitions {
        partition.samples = match layout {
            TableLayout::TimeOrdered => interleave_by_time(&partition.samples),
            TableLayout::ClusteredBySession => cluster_by_session(&partition.samples),
        };
    }
    partitions
}

fn fresh_store() -> Arc<TableStore> {
    Arc::new(TableStore::new(TectonicSim::new(4), 32, 2))
}

/// Lands `partitions` the way the batch pipeline does: one
/// `land_partition` call per hour, in hour order.
fn land_batch(
    store: &TableStore,
    schema: &Schema,
    partitions: &[TablePartition],
) -> Vec<StoredPartition> {
    partitions
        .iter()
        .map(|p| store.land_partition(schema, "t", p.hour, &p.samples).0)
        .collect()
}

/// Runs the full streaming path over a jittered tail under a manual clock:
/// returns the sealed partitions, the landed handles, and the service
/// output.
fn run_stream(
    records: Vec<LogRecord>,
    layout: TableLayout,
    tail_config: &TailConfig,
    window_ms: u64,
    step_ms: u64,
    store: Arc<TableStore>,
    schema: Schema,
) -> (Vec<TablePartition>, Vec<StoredPartition>, EtlServiceOutput) {
    let tail = LogTail::new(records, tail_config);
    let service = EtlService::new(
        tail,
        EtlStreamConfig::new(layout).with_window_ms(window_ms),
        store,
        schema,
        "t",
    );
    let mut sealed = Vec::new();
    let mut landed = Vec::new();
    let output = service.run(
        ManualClock::new(),
        step_ms,
        &mut |stored: &StoredPartition, partition: &TablePartition| {
            landed.push(stored.clone());
            sealed.push(partition.clone());
        },
    );
    (sealed, landed, output)
}

fn blob_bytes(store: &TableStore, stored: &[StoredPartition]) -> Vec<(String, Vec<u8>)> {
    stored
        .iter()
        .flat_map(|p| p.files.iter())
        .map(|path| {
            let bytes = store.blob_store().get(path).expect("landed blob present");
            (path.clone(), bytes.to_vec())
        })
        .collect()
}

/// Satellite 1 (the acceptance criterion): across seeds, layouts, and pump
/// step sizes, the streamed output is byte-identical to the batch path —
/// same partitions, same file paths, same stored bytes.
#[test]
fn replay_is_byte_identical_to_batch_etl() {
    for seed in [7u64, 1234, 98765] {
        for layout in [TableLayout::TimeOrdered, TableLayout::ClusteredBySession] {
            let generator =
                DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny).with_seed(seed));
            let (records, _) = generator.generate_logs();
            let schema = generator.schema().clone();
            let expected = batch_reference(&records, layout);
            assert!(expected.len() > 1, "fixture must span several hours");

            let batch_store = fresh_store();
            let batch_landed = land_batch(&batch_store, &schema, &expected);

            let tail_config = TailConfig::default()
                .with_jitter_ms(2_000)
                .with_seed(seed ^ 0x5EED);
            let stream_store = fresh_store();
            let (sealed, landed, output) = run_stream(
                records.clone(),
                layout,
                &tail_config,
                10_000,
                777, // a deliberately odd pump step
                Arc::clone(&stream_store),
                schema.clone(),
            );

            // Partition-level equality: same hours, same rows, same order.
            assert_eq!(sealed, expected, "seed {seed} layout {layout:?}");
            // Nothing was lost to the watermark: the window covers the jitter.
            let c = output.report.etl.counters;
            assert_eq!(c.late_drops, 0);
            assert_eq!(c.orphaned_features + c.orphaned_events, 0);
            assert_eq!(c.duplicates, 0);
            assert_eq!(c.sealed_rows, c.joined_samples);

            // Byte-level equality of everything landed.
            assert_eq!(
                blob_bytes(&stream_store, &landed),
                blob_bytes(&batch_store, &batch_landed),
                "landed DWRF bytes diverged at seed {seed} layout {layout:?}"
            );

            // Pump step size is irrelevant: one giant step per hour replays
            // to the identical result.
            let (sealed_coarse, _, _) = run_stream(
                records,
                layout,
                &tail_config,
                10_000,
                HOUR,
                fresh_store(),
                schema,
            );
            assert_eq!(sealed_coarse, sealed);
        }
    }
}

/// Every trainer lane of one service, each drained on its own thread.
struct Drain(Vec<JoinHandle<Vec<TrainerBatch>>>);

impl Drain {
    /// Takes `handle`'s trainer lanes and starts draining them.
    fn start(handle: &mut DppHandle) -> Self {
        let lanes = handle.take_trainers().into_iter();
        Self(
            lanes
                .map(|lane| std::thread::spawn(move || lane.drain()))
                .collect(),
        )
    }

    /// Finishes the service: every delivered batch in `(shard, seq)` order,
    /// with the service's own result.
    fn finish(self, handle: DppHandle) -> (Vec<ConvertedBatch>, Result<DppOutput, DppError>) {
        let result = handle.finish();
        let mut delivered: Vec<TrainerBatch> = self
            .0
            .into_iter()
            .flat_map(|lane| lane.join().expect("lane drain"))
            .collect();
        delivered.sort_by_key(|item| (item.shard, item.seq));
        (
            delivered.into_iter().map(|item| item.batch).collect(),
            result,
        )
    }
}

fn dpp_config(schema: &Schema) -> DppConfig {
    DppConfig::new(ReaderConfig::new(64, DataLoaderConfig::from_schema(schema)))
        .with_policy(ShardPolicy::FileRoundRobin)
        .with_shards(2)
        .with_fill_workers(2)
        .with_compute_workers(2)
        .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64))
}

/// Satellite 1, trainer side: a `recd-dpp` service fed partition-by-partition
/// through `ingest_partition` as the ETL lands them emits exactly the batches
/// a service fed from the pre-built batch table emits.
#[test]
fn trainer_side_union_from_ingest_matches_batch_pipeline() {
    for layout in [TableLayout::TimeOrdered, TableLayout::ClusteredBySession] {
        let generator =
            DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny).with_seed(42));
        let (records, _) = generator.generate_logs();
        let schema = generator.schema().clone();

        // Batch side: pre-build the table, submit it whole.
        let expected = batch_reference(&records, layout);
        let batch_store = fresh_store();
        let batch_landed = land_batch(&batch_store, &schema, &expected);
        let mut batch_handle = DppService::start(
            dpp_config(&schema),
            Arc::clone(&batch_store),
            schema.clone(),
        );
        let drain = Drain::start(&mut batch_handle);
        for stored in &batch_landed {
            batch_handle.submit_partition(stored);
        }
        let (batch_batches, batch_output) = drain.finish(batch_handle);
        let batch_output = batch_output.expect("clean batch-fed run");

        // Continuous side: ingest each partition the moment it lands.
        let stream_store = fresh_store();
        let mut stream_handle = DppService::start(
            dpp_config(&schema),
            Arc::clone(&stream_store),
            schema.clone(),
        );
        let drain = Drain::start(&mut stream_handle);
        let tail = LogTail::new(
            records,
            &TailConfig::default().with_jitter_ms(2_000).with_seed(9),
        );
        let service = EtlService::new(
            tail,
            EtlStreamConfig::new(layout).with_window_ms(10_000),
            Arc::clone(&stream_store),
            schema.clone(),
            "t",
        );
        let output = service.run(
            ManualClock::new(),
            60_000,
            &mut |stored: &StoredPartition, _: &TablePartition| {
                stream_handle.ingest_partition(stored);
            },
        );
        let (stream_batches, stream_output) = drain.finish(stream_handle);
        let stream_output = stream_output.expect("clean tail-fed run");

        assert_eq!(
            stream_batches, batch_batches,
            "trainer-side batches diverged for {layout:?}"
        );
        assert_eq!(
            stream_output.report.partitions_ingested,
            output.report.landed_partitions
        );
        assert_eq!(stream_output.report.samples, batch_output.report.samples);
        assert_eq!(
            stream_output.report.samples as u64,
            output.report.etl.counters.joined_samples
        );
    }
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

/// One drawn request: `(session, hour, offset_ms, jitter)` — jitter is the
/// arrival permutation *within* the join window.
type DrawnRequest = (u64, u64, u64, u64);

/// Expands drawn requests into (record, arrival) pairs: a feature log plus
/// its event 500ms later, each with its own arrival time.
fn expand_records(drawn: &[DrawnRequest], late_every: Option<usize>) -> Vec<(u64, LogRecord)> {
    let mut arrivals = Vec::with_capacity(drawn.len() * 2);
    for (i, &(session, hour, offset, jitter)) in drawn.iter().enumerate() {
        let ts = hour * HOUR + offset;
        let feature = LogRecord::Feature(FeatureLog {
            request_id: RequestId::new(i as u64),
            session_id: SessionId::new(session),
            timestamp: Timestamp::from_millis(ts),
            dense: vec![ts as f32, session as f32],
            sparse: vec![vec![session, i as u64 % 7]],
        });
        let event = LogRecord::Event(EventLog {
            request_id: RequestId::new(i as u64),
            session_id: SessionId::new(session),
            timestamp: Timestamp::from_millis(ts + 500),
            label: (i % 2) as f32,
        });
        // The event reuses the feature's drawn jitter rotated by one, which
        // keeps the permutation arbitrary but bounded.
        let event_jitter = drawn[(i + 1) % drawn.len()].3;
        let extra = late_every
            .filter(|n| i % n == n - 1)
            .map_or(0, |_| 10 * HOUR);
        arrivals.push((ts + jitter, feature));
        arrivals.push((ts + 500 + event_jitter + extra, event));
    }
    // Stable by (arrival, insertion order).
    arrivals.sort_by_key(|(arrival, _)| *arrival);
    arrivals
}

fn drawn_strategy() -> impl Strategy<Value = Vec<DrawnRequest>> {
    vec((0u64..6, 0u64..3, 0u64..HOUR, 0u64..8_000), 1..40)
}

proptest! {
    /// Any arrival permutation within the join window yields exactly the
    /// batch join's labeled samples, laid out identically.
    #[test]
    fn arrival_permutation_within_window_is_invariant(drawn in drawn_strategy()) {
        let arrivals = expand_records(&drawn, None);
        let records: Vec<LogRecord> = arrivals.iter().map(|(_, r)| r.clone()).collect();
        for layout in [TableLayout::TimeOrdered, TableLayout::ClusteredBySession] {
            let expected = batch_reference(&records, layout);
            let mut stream = EtlStream::new(
                EtlStreamConfig::new(layout).with_window_ms(10_000),
            );
            for (_, record) in &arrivals {
                stream.push(record.clone());
            }
            stream.finish();
            let sealed: Vec<TablePartition> = stream
                .drain_sealed()
                .into_iter()
                .map(|s| s.partition)
                .collect();
            prop_assert_eq!(&sealed, &expected);
            let c = stream.report().counters;
            prop_assert_eq!(c.late_drops, 0);
            prop_assert_eq!(c.joined_samples as usize, drawn.len());
        }
    }

    /// Stragglers beyond the watermark are dropped-and-counted — never
    /// silently lost, never double-joined: every pushed record lands in
    /// exactly one accounting bucket and every joined request id appears in
    /// exactly one sealed row.
    #[test]
    fn late_records_are_counted_never_lost_or_double_joined(drawn in drawn_strategy()) {
        let arrivals = expand_records(&drawn, Some(3));
        let mut stream = EtlStream::new(
            EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000),
        );
        for (_, record) in &arrivals {
            stream.push(record.clone());
        }
        stream.finish();
        let c = stream.report().counters;
        prop_assert_eq!(
            c.records,
            2 * c.joined_samples
                + c.late_drops
                + c.duplicates
                + c.orphaned_features
                + c.orphaned_events
        );
        let mut joined_requests: Vec<u64> = stream
            .drain_sealed()
            .iter()
            .flat_map(|s| s.partition.samples.iter())
            .map(|sample| sample.request_id.raw())
            .collect();
        prop_assert_eq!(joined_requests.len() as u64, c.joined_samples);
        joined_requests.sort_unstable();
        joined_requests.dedup();
        prop_assert_eq!(joined_requests.len() as u64, c.joined_samples);
    }

    /// `cluster_by_session` / `interleave_by_time` round-trip: both preserve
    /// the sample multiset, interleaving is insensitive to prior clustering,
    /// and clustering is idempotent.
    #[test]
    fn cluster_and_interleave_round_trip(drawn in drawn_strategy()) {
        let samples: Vec<Sample> = drawn
            .iter()
            .enumerate()
            .map(|(i, &(session, hour, offset, _))| {
                Sample::builder(
                    SessionId::new(session),
                    RequestId::new(i as u64),
                    Timestamp::from_millis(hour * HOUR + offset),
                )
                .sparse(vec![vec![session]])
                .build()
            })
            .collect();
        let clustered = cluster_by_session(&samples);
        let interleaved = interleave_by_time(&samples);
        let key = |s: &Sample| s.request_id.raw();
        let mut a: Vec<u64> = samples.iter().map(key).collect();
        let mut b: Vec<u64> = clustered.iter().map(key).collect();
        let mut c: Vec<u64> = interleaved.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(interleave_by_time(&clustered), interleaved);
        prop_assert_eq!(cluster_by_session(&clustered), clustered.clone());
    }
}

// ---------------------------------------------------------------------------
// Fault and edge tests.
// ---------------------------------------------------------------------------

fn feature(request: u64, session: u64, ts: u64) -> LogRecord {
    LogRecord::Feature(FeatureLog {
        request_id: RequestId::new(request),
        session_id: SessionId::new(session),
        timestamp: Timestamp::from_millis(ts),
        dense: vec![ts as f32],
        sparse: vec![vec![session]],
    })
}

fn event(request: u64, session: u64, ts: u64) -> LogRecord {
    LogRecord::Event(EventLog {
        request_id: RequestId::new(request),
        session_id: SessionId::new(session),
        timestamp: Timestamp::from_millis(ts),
        label: 1.0,
    })
}

/// Duplicate request ids and orphaned feature logs drain cleanly: one join
/// per request id, everything else counted.
#[test]
fn duplicates_and_orphans_drain_cleanly() {
    let mut stream =
        EtlStream::new(EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(5_000));
    stream.push(feature(1, 10, 1_000));
    stream.push(feature(1, 10, 1_000)); // duplicate feature, same ts
    stream.push(event(1, 10, 1_500));
    stream.push(event(1, 10, 1_500)); // duplicate event after join
    stream.push(feature(2, 10, 2_000)); // orphaned: no event ever
    stream.push(feature(3, 11, 2_500));
    stream.push(event(3, 11, 3_000));
    stream.finish();
    let c = stream.report().counters;
    assert_eq!(c.joined_samples, 2);
    assert_eq!(c.duplicates, 2);
    assert_eq!(c.orphaned_features, 1);
    assert_eq!(c.orphaned_events, 0);
    assert_eq!(
        c.records,
        2 * c.joined_samples + c.late_drops + c.duplicates + c.orphaned_features
    );
    let sealed = stream.drain_sealed();
    assert_eq!(sealed.len(), 1);
    assert_eq!(sealed[0].partition.samples.len(), 2);
}

/// Hours with no samples produce no partitions — exactly like the batch
/// partitioner — and hour gaps do not stall sealing.
#[test]
fn empty_hours_are_skipped() {
    let records = vec![
        feature(1, 1, 100),
        event(1, 1, 600),
        // Hours 1 and 2 are empty; hour 3 has one pair.
        feature(2, 2, 3 * HOUR + 100),
        event(2, 2, 3 * HOUR + 600),
    ];
    let expected = batch_reference(&records, TableLayout::TimeOrdered);
    assert_eq!(expected.len(), 2);

    let mut stream =
        EtlStream::new(EtlStreamConfig::new(TableLayout::TimeOrdered).with_window_ms(5_000));
    for record in &records {
        stream.push(record.clone());
    }
    stream.finish();
    let sealed: Vec<TablePartition> = stream
        .drain_sealed()
        .into_iter()
        .map(|s| s.partition)
        .collect();
    assert_eq!(sealed, expected);
    assert_eq!(sealed[0].hour, 0);
    assert_eq!(sealed[1].hour, 3);
}

/// A size-watermark seal in one hour does not disturb other hours, and the
/// re-opened hour's remainder still seals on `finish`.
#[test]
fn size_seal_reopens_hour_without_losing_rows() {
    let mut stream = EtlStream::new(
        EtlStreamConfig::new(TableLayout::ClusteredBySession)
            .with_window_ms(5_000)
            .with_size_watermark(3),
    );
    for request in 0..8u64 {
        stream.push(feature(request, request % 2, 1_000 + request * 10));
        stream.push(event(request, request % 2, 1_500 + request * 10));
    }
    stream.finish();
    let sealed = stream.drain_sealed();
    let total: usize = sealed.iter().map(|s| s.partition.samples.len()).sum();
    assert_eq!(total, 8);
    assert!(sealed.iter().all(|s| s.partition.hour == 0));
    assert_eq!(
        sealed
            .iter()
            .filter(|s| s.reason == SealReason::SizeWatermark)
            .count(),
        2
    );
    // Every row is still unique.
    let mut requests: Vec<u64> = sealed
        .iter()
        .flat_map(|s| s.partition.samples.iter())
        .map(|sample| sample.request_id.raw())
        .collect();
    requests.sort_unstable();
    requests.dedup();
    assert_eq!(requests.len(), 8);
}

/// `DppHandle::flush_partition` barriers racing in-flight ETL seals: every
/// pump is chased by a blocking flush while trainers consume concurrently,
/// and everything drains on `finish` with the counters adding up.
#[test]
fn flush_partition_races_in_flight_seals_and_drains() {
    let generator =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny).with_seed(5));
    let (records, _) = generator.generate_logs();
    let schema = generator.schema().clone();
    let store = fresh_store();

    let config = DppConfig::new(ReaderConfig::new(
        64,
        DataLoaderConfig::from_schema(&schema),
    ))
    .with_policy(ShardPolicy::SessionAffine)
    .with_shards(2)
    .with_fill_workers(2)
    .with_compute_workers(2)
    .with_trainers(2)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64));
    let mut handle = DppService::start(config, Arc::clone(&store), schema.clone());
    let consumers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| {
            std::thread::spawn(move || {
                let mut samples = 0u64;
                while let Some(item) = trainer.recv() {
                    samples += item.batch.batch_size as u64;
                }
                samples
            })
        })
        .collect();

    let tail = LogTail::new(
        records,
        &TailConfig::default().with_jitter_ms(1_000).with_seed(3),
    );
    let mut service = EtlService::new(
        tail,
        EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(5_000),
        Arc::clone(&store),
        schema.clone(),
        "t",
    );
    let mut clock = ManualClock::new();
    let mut flushes = 0usize;
    let mut just_landed: Vec<StoredPartition> = Vec::new();
    let mut ingest_and_flush = |landed: &mut Vec<StoredPartition>,
                                handle: &mut recd_dpp::DppHandle| {
        for stored in landed.drain(..) {
            handle.ingest_partition(&stored);
            // The barrier races whatever the seal just submitted; it
            // must always resolve.
            assert!(handle.flush_partition(), "flush must not wedge");
            flushes += 1;
        }
    };
    while !service.tail_drained() {
        service.pump(
            clock.advance(15 * 60 * 1_000),
            &mut |stored: &StoredPartition, _: &TablePartition| just_landed.push(stored.clone()),
        );
        ingest_and_flush(&mut just_landed, &mut handle);
    }
    let output = service.finish(&mut |stored: &StoredPartition, _: &TablePartition| {
        just_landed.push(stored.clone())
    });
    ingest_and_flush(&mut just_landed, &mut handle);
    assert!(flushes > 0, "at least one flush must race a seal");
    assert!(handle.flush_partition(), "post-drain flush must resolve");
    let report = handle.finish().expect("clean run").report;
    let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();

    let c = output.report.etl.counters;
    assert_eq!(c.late_drops, 0);
    assert_eq!(c.sealed_rows, c.joined_samples);
    assert_eq!(report.partitions_ingested, output.report.landed_partitions);
    assert_eq!(report.samples as u64, c.joined_samples);
    assert_eq!(consumed, c.joined_samples);
    let delivered: u64 = report.trainers.iter().map(|t| t.delivered_samples).sum();
    assert_eq!(delivered, c.joined_samples);
    assert!(report.trainers.iter().all(|t| t.dropped_batches == 0));
}

/// Crash-restarting the ETL pump mid-stream (mid-hour, rows still buffered
/// in open sessions) and resuming from an in-memory checkpoint lands
/// exactly what an uninterrupted run lands — same sealed partitions, same
/// landed handles, same report, same blob bytes.
#[test]
fn crash_restart_mid_hour_resumes_byte_identically() {
    // The pipeline driver's cadence: a checkpoint at every fourth pump.
    const CHECKPOINT_EVERY: u64 = 4;
    let seed = 4242u64;
    for layout in [TableLayout::TimeOrdered, TableLayout::ClusteredBySession] {
        let generator =
            DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny).with_seed(seed));
        let (records, _) = generator.generate_logs();
        let schema = generator.schema().clone();
        let tail_config = TailConfig::default()
            .with_jitter_ms(2_000)
            .with_seed(seed ^ 0x5EED);

        // Uninterrupted reference run.
        let ref_store = fresh_store();
        let (sealed_ref, landed_ref, output_ref) = run_stream(
            records.clone(),
            layout,
            &tail_config,
            10_000,
            777,
            Arc::clone(&ref_store),
            schema.clone(),
        );

        // Crashy run, same cadence. The crash drops the service (all
        // in-memory join and clustering state is lost) 1-3 pumps past its
        // last checkpoint, once it has consumed events since: the resumed
        // service replays them, which a checkpoint sharing state with the
        // live service would count twice. What the crashed service landed
        // after the checkpoint is discarded, as the DPP ingest dedup does
        // downstream; the blob store survives.
        let store = fresh_store();
        let config = EtlStreamConfig::new(layout).with_window_ms(10_000);
        let tail = LogTail::new(records.clone(), &tail_config);
        let crash_at = tail.end_ms() / 2;
        let mut service = EtlService::new(tail, config, Arc::clone(&store), schema.clone(), "t");
        let mut sealed = Vec::new();
        let mut landed = Vec::new();
        let mut clock = ManualClock::new();
        let mut last = (service.checkpoint(), 0, 0);
        for pumps in 1.. {
            assert!(!service.tail_drained(), "crash point must be mid-stream");
            let now = clock.advance(777);
            service.pump(
                now,
                &mut |stored: &StoredPartition, partition: &TablePartition| {
                    landed.push(stored.clone());
                    sealed.push(partition.clone());
                },
            );
            if pumps % CHECKPOINT_EVERY == 0 {
                last = (service.checkpoint(), sealed.len(), landed.len());
            } else if now >= crash_at && service.checkpoint().tail_cursor() > last.0.tail_cursor() {
                break;
            }
        }
        drop(service);
        let (checkpoint, sealed_at, landed_at) = last;
        sealed.truncate(sealed_at);
        landed.truncate(landed_at);

        let tail = LogTail::new(records, &tail_config);
        let mut service = EtlService::resume_from(tail, checkpoint);
        assert!(
            service.snapshot().buffered_rows > 0,
            "crash must land mid-hour with rows buffered in open sessions"
        );
        while !service.tail_drained() {
            let now = clock.advance(777);
            service.pump(
                now,
                &mut |stored: &StoredPartition, partition: &TablePartition| {
                    landed.push(stored.clone());
                    sealed.push(partition.clone());
                },
            );
        }
        let output = service.finish(
            &mut |stored: &StoredPartition, partition: &TablePartition| {
                landed.push(stored.clone());
                sealed.push(partition.clone());
            },
        );

        assert_eq!(sealed, sealed_ref, "layout {layout:?}");
        assert_eq!(landed, landed_ref, "layout {layout:?}");
        assert_eq!(output.report, output_ref.report, "layout {layout:?}");
        assert_eq!(
            blob_bytes(&store, &landed),
            blob_bytes(&ref_store, &landed_ref),
            "landed DWRF bytes diverged after crash/resume at layout {layout:?}"
        );
    }
}
