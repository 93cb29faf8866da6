//! Integration tests for the streaming DPP service: batch-for-batch
//! equality with a serial reference reader, what RecD's reader-side
//! optimizations buy (dedup egress, O4 work, clustering), session-affinity
//! preservation, graceful shutdown, and error surfacing.

use recd_core::{ConvertedBatch, DataLoaderConfig, FeatureConverter, JaggedTensor};
use recd_data::ColumnarBatch;
use recd_datagen::{DatasetGenerator, FeatureProfile, WorkloadConfig, WorkloadPreset};
use recd_dpp::{DppConfig, DppReport, DppService, ShardPolicy};
use recd_etl::cluster_by_session;
use recd_reader::{
    fill_file_columnar_into, HashBucketize, PhaseEngine, PreprocessPipeline, ReaderConfig,
    ReaderMetrics, SparseTransform, TransformScratch, TruncateList,
};
use recd_storage::{FileReadScratch, StoredPartition, TableStore, TectonicSim};
use std::sync::Arc;

mod common;
use common::Drain;

struct Fixture {
    schema: recd_data::Schema,
    store: Arc<TableStore>,
    /// The partition landed session-clustered (hour 0).
    partition: StoredPartition,
    /// The same rows landed in generation (time-interleaved) order (hour 1).
    interleaved: StoredPartition,
    rows: usize,
}

fn fixture() -> Fixture {
    fixture_of(WorkloadConfig::preset(WorkloadPreset::Tiny))
}

fn fixture_of(workload: WorkloadConfig) -> Fixture {
    let partition = DatasetGenerator::new(workload).generate_partition();
    let samples = cluster_by_session(&partition.samples);
    // Small stripes so the partition spans many files and the pipeline
    // actually streams.
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 16, 1));
    let (stored, _) = store.land_partition(&partition.schema, "t", 0, &samples);
    let (interleaved, _) = store.land_partition(&partition.schema, "t", 1, &partition.samples);
    assert!(stored.files.len() >= 4, "fixture must span several files");
    Fixture {
        schema: partition.schema,
        store,
        partition: stored,
        interleaved,
        rows: samples.len(),
    }
}

fn reader_config(schema: &recd_data::Schema, batch_size: usize) -> ReaderConfig {
    ReaderConfig::new(batch_size, DataLoaderConfig::from_schema(schema))
}

fn standard_pipeline() -> PreprocessPipeline {
    PreprocessPipeline::standard(1 << 20, 64)
}

/// The serial reference reader the service is held to: reader `r` of
/// `readers` takes files `i` with `i % readers == r`, fills them one by one
/// into a single columnar buffer, cuts it into `batch_size` chunks and runs
/// convert + process on each; readers' outputs concatenate in reader order.
fn reference_read(
    f: &Fixture,
    files: &[String],
    config: &ReaderConfig,
    readers: usize,
) -> (Vec<ConvertedBatch>, ReaderMetrics) {
    let (mut batches, mut metrics) = (Vec::new(), ReaderMetrics::default());
    for r in 0..readers {
        let rows = fill_rows(f, files.iter().skip(r).step_by(readers), &mut metrics);
        let mut engine = PhaseEngine::new(config.clone(), standard_pipeline());
        for start in (0..rows.len()).step_by(config.batch_size) {
            let chunk = rows.slice_rows(start..(start + config.batch_size).min(rows.len()));
            let mut batch = ConvertedBatch::default();
            engine
                .run_batch_columnar_into(&chunk, &mut batch, &mut metrics)
                .expect("reference conversion");
            batches.push(batch);
        }
    }
    (batches, metrics)
}

/// Fills `files` one by one into a single columnar buffer.
fn fill_rows<'a>(
    f: &Fixture,
    files: impl Iterator<Item = &'a String>,
    metrics: &mut ReaderMetrics,
) -> ColumnarBatch {
    let mut rows = ColumnarBatch::new(f.schema.dense_count(), f.schema.sparse_count());
    let mut file = rows.clone();
    let mut scratch = FileReadScratch::default();
    for path in files {
        file.clear();
        fill_file_columnar_into(&f.store, &f.schema, path, &mut scratch, &mut file, metrics)
            .expect("landed file reads back");
        rows.append(&file).expect("one schema, one shape");
    }
    rows
}

/// The work counters of a run — everything but the wall-clock timings.
fn work(mut metrics: ReaderMetrics) -> ReaderMetrics {
    metrics.fill.cpu_nanos = 0;
    metrics.convert.cpu_nanos = 0;
    metrics.process.cpu_nanos = 0;
    metrics
}

/// One run over `partitions` with file-round-robin sharding: the delivered
/// batches in `(shard, seq)` order, and the report.
fn run_file_round_robin(
    f: &Fixture,
    config: ReaderConfig,
    shards: usize,
    compute_workers: usize,
    partitions: &[&StoredPartition],
) -> (Vec<ConvertedBatch>, DppReport) {
    let config = DppConfig::new(config)
        .with_policy(ShardPolicy::FileRoundRobin)
        .with_shards(shards)
        .with_fill_workers(2)
        .with_compute_workers(compute_workers)
        .with_pipeline_factory(standard_pipeline);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    for partition in partitions {
        handle.submit_partition(partition);
    }
    let (batches, output) = drain.finish(handle);
    (batches, output.expect("clean run").report)
}

/// The acceptance criterion: with file-round-robin sharding over `shards`
/// lanes, the service's delivered output is batch-for-batch identical to
/// the serial reference reader with as many readers — over two partitions,
/// with and without dedup groups, for any worker count — and every landed
/// row comes out exactly once.
#[test]
fn streaming_output_matches_one_shot_reader_tier() {
    let f = fixture();
    let shards = 3;
    let files: Vec<String> = [&f.partition, &f.interleaved]
        .iter()
        .flat_map(|p| p.files.iter().cloned())
        .collect();
    for dataloader in [
        DataLoaderConfig::from_schema(&f.schema),
        DataLoaderConfig::baseline_from_schema(&f.schema),
    ] {
        let config = ReaderConfig::new(64, dataloader);
        let (reference, reference_metrics) = reference_read(&f, &files, &config, shards);
        for compute_workers in [1, 2, 4] {
            let (batches, report) = run_file_round_robin(
                &f,
                config.clone(),
                shards,
                compute_workers,
                &[&f.partition, &f.interleaved],
            );
            assert_eq!(
                batches.len(),
                reference.len(),
                "batch count must match at {compute_workers} workers"
            );
            for (i, (streamed, batch)) in batches.iter().zip(&reference).enumerate() {
                assert_eq!(
                    streamed, batch,
                    "batch {i} diverged at {compute_workers} workers"
                );
            }
            assert_eq!(work(report.reader_metrics), work(reference_metrics));
            assert_eq!(report.samples, 2 * f.rows);
            assert_eq!(
                batches.iter().map(|b| b.batch_size).sum::<usize>(),
                2 * f.rows
            );
            assert_eq!(report.compute_workers, compute_workers);
            assert!(report.samples_per_second > 0.0);
        }
    }
}

/// The serial session-affine router the service is held to: every row goes
/// by its session's hash to one shard's accumulator, a row at a time; a
/// full accumulator is converted and processed as a batch, and every
/// partition ends in a barrier that flushes the rest. Returns the batches
/// in `(shard, seq)` order and the most files one batch drew rows from.
fn reference_session_affine(
    f: &Fixture,
    partitions: &[&StoredPartition],
    config: &ReaderConfig,
    shards: usize,
) -> (Vec<ConvertedBatch>, usize) {
    let mut engine = PhaseEngine::new(config.clone(), standard_pipeline());
    let mut metrics = ReaderMetrics::default();
    let empty = ColumnarBatch::new(f.schema.dense_count(), f.schema.sparse_count());
    // Per shard: the accumulator, the files it drew from, its batches.
    let mut shard_state = vec![(empty, Vec::<usize>::new(), Vec::new()); shards];
    let mut widest = 0;
    let mut emit = |(rows, files, out): &mut (ColumnarBatch, Vec<usize>, Vec<ConvertedBatch>)| {
        let mut batch = ConvertedBatch::default();
        engine
            .run_batch_columnar_into(rows, &mut batch, &mut metrics)
            .expect("reference conversion");
        out.push(batch);
        widest = widest.max(files.len());
        rows.clear();
        files.clear();
    };
    let mut file_index = 0;
    for partition in partitions {
        for path in &partition.files {
            let file = fill_rows(f, std::iter::once(path), &mut ReaderMetrics::default());
            for row in 0..file.len() {
                let hash = recd_codec::hash_ids(&[file.session_id(row).raw()]);
                let state = &mut shard_state[(hash % shards as u64) as usize];
                state.0.extend_rows_from(&file, row..row + 1);
                if state.1.last() != Some(&file_index) {
                    state.1.push(file_index);
                }
                if state.0.len() == config.batch_size {
                    emit(state);
                }
            }
            file_index += 1;
        }
        for state in shard_state.iter_mut().filter(|s| !s.0.is_empty()) {
            emit(state);
        }
    }
    let batches = shard_state.into_iter().flat_map(|s| s.2).collect();
    (batches, widest)
}

/// Session-affine routing against the serial reference router: over two
/// partitions, each closed by a barrier, with 2 fill and 2 compute workers,
/// 2 and 3 shards, and batches of 5 rows, of 64, and of 40 (more than a
/// 16-row file, so a batch draws rows from several files), the service
/// delivers per shard, in order, exactly the reference's batches — IKJT
/// slots, inverse lookups, KJT and dense values — and counts their egress.
#[test]
fn session_affine_output_matches_a_serial_router() {
    let f = fixture();
    let partitions = [&f.partition, &f.interleaved];
    for batch_size in [5, 64, 40] {
        for shards in [2, 3] {
            let config = reader_config(&f.schema, batch_size);
            let (reference, widest) = reference_session_affine(&f, &partitions, &config, shards);
            if batch_size == 40 {
                assert!(widest >= 3, "a 40-row batch drew from only {widest} files");
            }
            let service = DppConfig::new(config)
                .with_policy(ShardPolicy::SessionAffine)
                .with_shards(shards)
                .with_fill_workers(2)
                .with_compute_workers(2)
                .with_pipeline_factory(standard_pipeline);
            let mut handle = DppService::start(service, Arc::clone(&f.store), f.schema.clone());
            let drain = Drain::start(&mut handle);
            for partition in partitions {
                assert!(handle.ingest_partition(partition));
                assert!(handle.flush_partition(), "barrier must resolve");
            }
            let (batches, output) = drain.finish(handle);
            let report = output.expect("clean run").report;
            let at = format!("{batch_size}-row batches over {shards} shards");
            assert_eq!(batches.len(), reference.len(), "batch count at {at}");
            for (i, (streamed, want)) in batches.iter().zip(&reference).enumerate() {
                assert!(streamed == want, "batch {i} diverged at {at}");
            }
            let egress = |b: &ConvertedBatch| b.sparse_payload_bytes() + b.dense.payload_bytes();
            assert_eq!(
                report.egress_bytes,
                reference.iter().map(egress).sum::<usize>(),
                "egress at {at}"
            );
            assert_eq!(report.samples, 2 * f.rows);
        }
    }
}

/// A barrier restarts the file round-robin rotation: one service that
/// ingests partitions of odd file counts, closing each with a barrier,
/// delivers per shard, in order, exactly the batches of one fresh service
/// per partition — which is what lets a single service read every landed
/// partition as a service of its own would.
#[test]
fn a_barrier_restarts_the_file_rotation() {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let samples = cluster_by_session(&partition.samples);
    let schema = partition.schema;
    // 8-row files: partitions of 3, 5 and 3 files, so a rotation carried
    // across barriers would start the second and third on shard 1.
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 8, 1));
    let cuts = [0, 24, 64, 88];
    assert!(
        samples.len() >= cuts[3],
        "Tiny preset must provide enough rows"
    );
    let partitions: Vec<StoredPartition> = (0..3)
        .map(|hour| {
            let rows = &samples[cuts[hour]..cuts[hour + 1]];
            store
                .land_partition(&schema, "rotation", hour as u64, rows)
                .0
        })
        .collect();
    let files: Vec<usize> = partitions.iter().map(|p| p.files.len()).collect();
    assert_eq!(files, [3, 5, 3]);

    // Per shard, in sequence order: the batches one service delivers for
    // `parts`, a barrier after each.
    let per_shard = |parts: &[StoredPartition]| {
        let config = DppConfig::new(reader_config(&schema, 16))
            .with_policy(ShardPolicy::FileRoundRobin)
            .with_shards(2)
            .with_pipeline_factory(standard_pipeline);
        let mut handle = DppService::start(config, Arc::clone(&store), schema.clone());
        let trainer = handle.take_trainers().remove(0);
        let consumer = std::thread::spawn(move || trainer.drain());
        for part in parts {
            assert!(handle.ingest_partition(part));
            assert!(handle.flush_partition(), "barrier must resolve");
        }
        handle.finish().expect("clean run");
        let mut delivered = consumer.join().expect("trainer consumer");
        delivered.sort_by_key(|item| (item.shard, item.seq));
        let mut shards: Vec<Vec<ConvertedBatch>> = vec![Vec::new(), Vec::new()];
        for item in delivered {
            shards[item.shard].push(item.batch);
        }
        shards
    };
    let mut fresh: Vec<Vec<ConvertedBatch>> = vec![Vec::new(), Vec::new()];
    for part in &partitions {
        for (shard, batches) in per_shard(std::slice::from_ref(part))
            .into_iter()
            .enumerate()
        {
            fresh[shard].extend(batches);
        }
    }
    assert!(fresh.iter().all(|shard| !shard.is_empty()));
    assert!(
        per_shard(&partitions) == fresh,
        "one service's shards diverged from fresh per-partition services"
    );
}

/// O3 + O4 on the service: over the same clustered partition, the
/// deduplicating configuration sends fewer bytes toward trainers than the
/// baseline one and preprocesses fewer values.
#[test]
fn dedup_service_sends_fewer_bytes_and_preprocesses_fewer_values_than_baseline() {
    let f = fixture();
    let run = |dataloader| {
        run_file_round_robin(
            &f,
            ReaderConfig::new(128, dataloader),
            2,
            2,
            &[&f.partition],
        )
        .1
    };
    let recd = run(DataLoaderConfig::from_schema(&f.schema));
    let baseline = run(DataLoaderConfig::baseline_from_schema(&f.schema));
    assert_eq!(recd.samples, baseline.samples);
    assert!(
        recd.egress_bytes < baseline.egress_bytes,
        "dedup egress {} should be below baseline {}",
        recd.egress_bytes,
        baseline.egress_bytes
    );
    assert!(recd.reader_metrics.process.items < baseline.reader_metrics.process.items);
}

/// Shift packing on the service: RM1's histories (8 features of 96 ids in
/// 5 groups, cut to 64) gain one id and drop their oldest from impression
/// to impression, so over clustered RM1 rows some slot tensor leaves in
/// windows, egress falls below that of the same batches left contiguous,
/// and every row reads back as the unpacked reference's.
#[test]
fn rm1_clustered_batches_ship_shifted_histories_packed() {
    let rm1 = WorkloadConfig {
        profiles: vec![
            FeatureProfile::user_sequence(8, 96, 5),
            FeatureProfile::user_elementwise(24),
            FeatureProfile::item(4),
        ],
        seed: 11,
        ..WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(30)
    };
    let f = fixture_of(rm1);
    let config = reader_config(&f.schema, 128);
    let (delivered, report) = run_file_round_robin(&f, config.clone(), 1, 2, &[&f.partition]);

    // The reference: the same 128-row chunks converted and transformed as
    // `standard_pipeline` does, never packed.
    let rows = fill_rows(&f, f.partition.files.iter(), &mut ReaderMetrics::default());
    let converter = FeatureConverter::new(config.dataloader.clone());
    let mut scratch = TransformScratch::default();
    let reference: Vec<ConvertedBatch> = (0..rows.len())
        .step_by(128)
        .map(|start| {
            let chunk = rows.slice_rows(start..(start + 128).min(rows.len()));
            let mut batch = converter.convert_columnar(&chunk).expect("reference");
            let grouped = batch.ikjts.iter_mut().flat_map(|ikjt| ikjt.iter_mut());
            for (_, tensor) in batch.kjt.iter_mut().chain(grouped) {
                tensor
                    .edit_flat(|values, offsets| {
                        TruncateList { max_len: 64 }.apply_flat(values, offsets, &mut scratch);
                        HashBucketize { buckets: 1 << 20 }.apply_flat(
                            values,
                            offsets,
                            &mut scratch,
                        );
                    })
                    .expect("contiguous before packing");
            }
            batch
        })
        .collect();

    assert_eq!(delivered.len(), reference.len());
    let egress = |b: &ConvertedBatch| b.sparse_payload_bytes() + b.dense.payload_bytes();
    let shipped: usize = delivered.iter().map(egress).sum();
    let unpacked: usize = reference.iter().map(egress).sum();
    assert_eq!(report.egress_bytes, shipped);
    assert!(
        shipped < unpacked,
        "packed {shipped} vs unpacked {unpacked}"
    );
    let windowed = delivered
        .iter()
        .flat_map(|b| b.ikjts.iter().flat_map(|ikjt| ikjt.iter()))
        .filter(|(_, tensor)| tensor.is_windowed())
        .count();
    assert!(windowed > 0);
    for (i, (packed, plain)) in delivered.iter().zip(&reference).enumerate() {
        assert_eq!(packed.labels, plain.labels, "batch {i}");
        assert_eq!(packed.kjt, plain.kjt, "batch {i}");
        assert_eq!(packed.ikjts.len(), plain.ikjts.len());
        for (a, b) in packed.ikjts.iter().zip(&plain.ikjts) {
            assert_eq!(a.inverse_lookup(), b.inverse_lookup(), "batch {i}");
            assert_eq!(a.to_kjt().unwrap(), b.to_kjt().unwrap(), "batch {i}");
        }
    }
}

/// O2 on the service: the same rows landed session-clustered dedupe better
/// in-batch than landed in time-interleaved order.
#[test]
fn clustered_partitions_dedupe_better_than_interleaved() {
    let f = fixture();
    let run =
        |partition| run_file_round_robin(&f, reader_config(&f.schema, 128), 2, 2, &[partition]).1;
    let clustered = run(&f.partition);
    let interleaved = run(&f.interleaved);
    assert_eq!(clustered.samples, interleaved.samples);
    assert!(
        clustered.dedupe_factor > interleaved.dedupe_factor,
        "clustering should increase the in-batch dedupe factor ({:.2} vs {:.2})",
        clustered.dedupe_factor,
        interleaved.dedupe_factor
    );
}

/// Session-affine sharding recovers in-batch duplication from a file
/// stream that interleaves sessions: routing rows by session gathers a
/// session's rows into one shard, where file round-robin leaves them
/// scattered across batches.
#[test]
fn session_affine_sharding_preserves_dedup_factor() {
    let f = fixture();
    let run = |policy: ShardPolicy| {
        let config = DppConfig::new(reader_config(&f.schema, 64))
            .with_policy(policy)
            .with_shards(4)
            .with_compute_workers(2);
        let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
        let drain = Drain::start(&mut handle);
        handle.submit_partition(&f.interleaved);
        drain.finish(handle).1.expect("clean run").report
    };
    let affine = run(ShardPolicy::SessionAffine);
    let by_file = run(ShardPolicy::FileRoundRobin);
    assert_eq!(affine.samples, by_file.samples);
    assert!(
        affine.dedupe_factor > by_file.dedupe_factor,
        "session-affine dedup factor {:.3} must beat file-round-robin {:.3}",
        affine.dedupe_factor,
        by_file.dedupe_factor
    );
    assert!(affine.dedupe_factor > 1.2, "affinity must yield real dedup");
}

/// Routing moves rows in runs, and a run keeps the repeat hints the
/// decoder set on its rows but its first row's. With two session-affine
/// shards and batches of five rows, runs end at session changes and are
/// cut mid-session where a batch fills; the compute workers of a debug
/// build check every routed batch's hints against its rows, so a hint
/// carried across a cut or a shard change fails the run.
#[test]
fn routed_batches_keep_only_sound_repeat_hints() {
    let f = fixture();
    // The landed files carry hints for the router to move.
    let mut file = ColumnarBatch::default();
    fill_file_columnar_into(
        &f.store,
        &f.schema,
        &f.partition.files[0],
        &mut FileReadScratch::default(),
        &mut file,
        &mut ReaderMetrics::default(),
    )
    .expect("landed file reads back");
    assert!(file
        .sparse_columns()
        .iter()
        .any(|c| c.repeats().contains(&true)));

    let config = DppConfig::new(reader_config(&f.schema, 5))
        .with_policy(ShardPolicy::SessionAffine)
        .with_shards(2)
        .with_compute_workers(2)
        .with_pipeline_factory(standard_pipeline);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    handle.submit_partition(&f.partition);
    let (batches, output) = drain.finish(handle);
    let report = output.expect("clean run").report;
    assert_eq!(report.samples, f.rows);
    assert!(batches.iter().all(|b| b.batch_size <= 5));
    assert!(batches.iter().filter(|b| b.batch_size == 5).count() > 2);
}

/// A transform slow enough that the compute stage becomes the bottleneck,
/// forcing the work queue to fill and backpressure to propagate upstream.
struct SlowIdentity;

impl SparseTransform for SlowIdentity {
    fn apply_flat(
        &self,
        _values: &mut Vec<u64>,
        _offsets: &mut Vec<usize>,
        _scratch: &mut recd_reader::TransformScratch,
    ) {
        std::thread::sleep(std::time::Duration::from_micros(500));
    }

    fn apply_rowwise(&self, tensor: &JaggedTensor<u64>) -> JaggedTensor<u64> {
        std::thread::sleep(std::time::Duration::from_micros(500));
        tensor.clone()
    }

    fn name(&self) -> &'static str {
        "slow_identity"
    }
}

/// A graceful shutdown drains everything in flight: every submitted sample
/// comes out, and with a deliberately slow compute stage the bounded work
/// queue demonstrably fills to capacity (backpressure engaged) without
/// deadlocking the drain.
#[test]
fn finish_drains_all_in_flight_work_under_backpressure() {
    let f = fixture();
    let config = DppConfig::new(reader_config(&f.schema, 32))
        .with_queue_depth(2)
        .with_compute_workers(1)
        .with_pipeline_factory(|| PreprocessPipeline::new().with_sparse(SlowIdentity));
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    handle.submit_partition(&f.partition);
    let mid = handle.snapshot();
    assert_eq!(mid.files_submitted as usize, f.partition.files.len());
    let (batches, output) = drain.finish(handle);
    let output = output.expect("clean run");
    assert_eq!(output.report.samples, f.rows);
    assert_eq!(batches.iter().map(|b| b.batch_size).sum::<usize>(), f.rows);
    // The slow single compute worker cannot keep up with the router, so the
    // bounded work queue must have hit its capacity: the router spent time
    // blocked in send — that is backpressure, and the drain still completed.
    assert_eq!(
        output.report.peak_work_queue_depth, 2,
        "work queue must fill to its capacity under a slow compute stage"
    );
}

/// The batch pool closes the fill → router → compute → fill buffer loop:
/// over a many-file run, almost every acquire is served by a recycled
/// buffer — misses count only the warmup population — and the output is
/// still byte-deterministic.
#[test]
fn batch_pool_recycles_buffers_at_steady_state() {
    let f = fixture();
    // At most this many decoded files are live at once, however the
    // threads are scheduled: the route window (the file in the router's
    // hand, a full filled queue of 4, one file per fill worker: 1 + 4 + 2),
    // and every file a batch holding runs still references — a batch
    // pending per shard, a full work queue and one per compute worker
    // (2 + 4 + 2), each reading at most 32 files, one per row. The pool
    // shelves as many, so a drained pipeline drops no shell, and a miss
    // needs the shelf empty: misses stay at the population that was ever
    // live (plus one for each acquire that found the shelf empty just
    // before a recycle landed on it), a few percent of the ≥ 24 × 16
    // acquires.
    let live = (1 + 4 + 2) + (2 + 4 + 2) * 32;
    let rounds = 24;
    let config = DppConfig::new(reader_config(&f.schema, 32))
        .with_fill_workers(2)
        .with_compute_workers(2)
        .with_shards(2)
        .with_queue_depth(4)
        .with_pipeline_factory(standard_pipeline);
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    for _ in 0..rounds {
        handle.submit_partition(&f.partition);
    }
    let output = drain.finish(handle).1.expect("clean run");

    let pool = output.report.batch_pool;
    let acquires = pool.hits + pool.misses;
    // Every file decode acquires once.
    assert!(
        acquires as usize >= rounds * f.partition.files.len(),
        "fills alone should acquire at least once per file"
    );
    assert_eq!(pool.capacity, live);
    assert!(
        pool.reuse_rate() > 0.9,
        "steady-state buffer reuse must exceed 90% (got {:.1}% over {acquires} acquires: {pool:?})",
        pool.reuse_rate() * 100.0
    );
    // The blob-scratch pool closes the same loop around `get_into`, one
    // level deeper: each fill worker acquires one pool-owned blob buffer
    // for its whole lifetime and recycles it on exit to warm its successor.
    // Steady-state fills are therefore blob-allocation-free — total blob
    // acquires are bounded by worker incarnations (2 here, no scaling),
    // never one per fill across the hundreds of files this run decodes.
    let blob = output.report.blob_pool;
    assert!(
        blob.hits + blob.misses <= 2,
        "blob scratch must be acquired once per fill-worker incarnation, \
         not per fill (got {} hits + {} misses)",
        blob.hits,
        blob.misses,
    );
    assert_eq!(output.report.samples, rounds * f.rows);
}

/// A consumer that hands finished `ConvertedBatch` shells back through
/// `converted_pool()` closes the compute → sink → consumer → compute loop:
/// later batches are built into recycled shells (pool hits) and remain
/// value-identical to a run with no recycling at all.
#[test]
fn converted_shells_recycle_through_the_consumer_loop() {
    let f = fixture();
    let run = |recycle: bool| {
        let config = DppConfig::new(reader_config(&f.schema, 32))
            .with_compute_workers(2)
            .with_shards(2)
            .with_pipeline_factory(standard_pipeline);
        let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
        let drain = Drain::start(&mut handle);
        let pool = handle.converted_pool();
        for round in 0..4 {
            handle.submit_partition(&f.partition);
            if recycle && round > 0 {
                // Simulate a trainer returning shells mid-run: dirty
                // batches of a *different* prior shape must still refill
                // correctly.
                pool.recycle(recd_core::ConvertedBatch::default());
            }
        }
        let (batches, output) = drain.finish(handle);
        (batches, output.expect("clean run").report)
    };
    let (recycled, recycled_report) = run(true);
    let (fresh, fresh_report) = run(false);
    assert_eq!(recycled, fresh, "recycling must not change output");
    assert!(
        recycled_report.converted_pool.hits > 0,
        "recycled shells must be reused by compute workers"
    );
    assert_eq!(fresh_report.converted_pool.hits, 0);
}

/// Fill errors don't wedge the pipeline: the run drains, reports the error,
/// and still returns the report.
#[test]
fn missing_file_surfaces_as_error_without_deadlock() {
    let f = fixture();
    let config = DppConfig::new(reader_config(&f.schema, 64));
    let mut handle = DppService::start(config, Arc::clone(&f.store), f.schema.clone());
    let drain = Drain::start(&mut handle);
    handle.submit_file("does-not-exist");
    handle.submit_partition(&f.partition);
    let (batches, output) = drain.finish(handle);
    let err = output.expect_err("missing file must fail the run");
    assert_eq!(err.errors.len(), 1);
    assert!(err.errors[0].contains("does-not-exist"));
    // The rest of the stream still drained — and the batches it produced
    // were delivered, not discarded.
    assert_eq!(err.output.report.samples, f.rows);
    assert_eq!(batches.iter().map(|b| b.batch_size).sum::<usize>(), f.rows);
}
