//! The serial stage ledger: the workload's data pushed through each layer's
//! public functions one stage at a time on the main thread, so every stage
//! has a cost in the same unit — busy milliseconds per thousand samples —
//! and the rows add up. What the live run spends beyond the sum of its rows
//! is orchestration: channels, routing, clones, polling.

use crate::procfs;
use crate::run::{decode_file, fetch_file, new_scribe, Metric, Table};
use crate::stats;
use crate::workloads::{self, Kind, Workload, BATCH};
use recd::core::{ConvertedBatch, DataLoaderConfig, DedupScratch, FeatureConverter};
use recd::data::{ColumnarBatch, LogRecord, Schema};
use recd::datagen::DatasetGenerator;
use recd::dpp::DppService;
use recd::etl::{EtlJob, EtlStream, EtlStreamConfig, TableLayout};
use recd::pipeline::{PipelineRunner, RecdConfig, RmPreset};
use recd::scribe::{LogTail, TailConfig};
use recd::storage::{FileReadScratch, StorageReport};
use recd::trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times every stage runs; its row is the median.
const REPS: usize = 3;
/// Times the service runs over the table: its CPU is read once around all of
/// them, from a counter that ticks in 10 ms.
const SERVICE_REPS: usize = 10;
/// Batches the trainer row steps, after one untimed step that faults the
/// fresh model's embedding tables in (a step costs ~100× any other stage).
const TRAIN_BATCHES: usize = 4;
/// Times the product driver runs for `pipeline.run_s`.
const PIPELINE_REPS: usize = 5;

fn seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Runs `stage` [`REPS`] times; returns the median seconds and the last
/// output.
fn timed<T>(mut stage: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let (s, out) = stage();
        times.push(s);
        last = Some(out);
    }
    (stats::median(&times), last.expect("REPS > 0"))
}

/// Seconds per stage of the write path, over the whole table.
struct WritePath {
    ingest_s: f64,
    drain_s: f64,
    join_seal_s: f64,
    batch_etl_s: f64,
    encode_s: f64,
    put_s: f64,
    scribe_ratio: f64,
    written: StorageReport,
}

/// scribe → streaming join/seal, batch ETL → encode → put.
fn write_path(workload: &Workload, seed: u64, schema: &Schema, records: &[LogRecord]) -> WritePath {
    let (ingest_s, scribe) = timed(|| {
        seconds(|| {
            let mut scribe = new_scribe();
            scribe.ingest_all(records);
            scribe.flush();
            scribe
        })
    });
    // Draining consumes the cluster's blocks, so each repetition drains a
    // copy.
    let (drain_s, drained) = timed(|| {
        let mut copy = scribe.clone();
        seconds(|| {
            copy.drain()
                .expect("scribe blocks written by this run decode")
        })
    });

    let tail_config = TailConfig::default()
        .with_jitter_ms(2_000)
        .with_lateness(0.05, 5_000)
        .with_seed(seed);
    let (join_seal_s, ()) = timed(|| {
        let mut tail = LogTail::new(drained.clone(), &tail_config);
        let mut stream = EtlStream::new(
            EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000),
        );
        seconds(|| {
            // As `EtlService::pump` does it: every event's record is cloned
            // into the stream.
            while let Some(event) = tail.next_event() {
                stream.push(event.record.clone());
            }
            stream.finish();
            black_box(stream.drain_sealed());
        })
    });

    let job = EtlJob::new(workload.layout);
    let (batch_etl_s, partitions) = timed(|| seconds(|| job.run(schema, &drained)));
    drop(drained);

    let store = workloads::new_store();
    let (encode_s, prepared) = timed(|| {
        seconds(|| {
            partitions
                .iter()
                .map(|p| store.prepare_partition(schema, "ledger", p.hour, &p.samples))
                .collect::<Vec<_>>()
        })
    });
    let (put_s, ()) = timed(|| {
        seconds(|| {
            for partition in &prepared {
                black_box(store.store_prepared(partition));
            }
        })
    });
    let mut written = StorageReport::default();
    prepared.iter().for_each(|p| written.absorb(p.report()));

    WritePath {
        ingest_s,
        drain_s,
        join_seal_s,
        batch_etl_s,
        encode_s,
        put_s,
        scribe_ratio: scribe.report().compression_ratio,
        written,
    }
}

/// Seconds per stage of the read path, over the whole table.
struct ReadPath {
    get_s: f64,
    decode_s: f64,
    convert_s: f64,
    process_s: f64,
    /// Milliseconds per thousand samples of each timed trainer step.
    train_ms_per_ksample: Vec<f64>,
    read_bytes: usize,
}

/// get → decode → convert → process → train, over the landed table.
fn read_path(table: &Table) -> ReadPath {
    let schema = &table.schema;
    let files: Vec<&String> = table.stored.iter().flat_map(|p| &p.files).collect();
    let mut scratch = FileReadScratch::default();
    let mut decoded: Vec<ColumnarBatch> = Vec::new();
    let mut read_bytes = 0usize;
    let (mut get_times, mut decode_times) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        decoded.clear();
        read_bytes = 0;
        let (mut get_s, mut decode_s) = (0.0, 0.0);
        for path in &files {
            let (s, bytes) = seconds(|| fetch_file(&table.store, path, &mut scratch));
            get_s += s;
            read_bytes += bytes;
            let mut rows = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
            decode_s += seconds(|| decode_file(schema, &mut scratch, &mut rows)).0;
            decoded.push(rows);
        }
        get_times.push(get_s);
        decode_times.push(decode_s);
    }

    // Trainer-sized batches: consecutive files appended up to BATCH rows.
    let mut batches: Vec<ColumnarBatch> = Vec::new();
    for rows in &decoded {
        match batches.last_mut() {
            Some(last) if last.len() + rows.len() <= BATCH => {
                last.append(rows).expect("files of one table share a shape");
            }
            _ => batches.push(rows.clone()),
        }
    }
    drop(decoded);

    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(schema));
    let pipeline = workloads::preprocess();
    let mut dedup_scratch = DedupScratch::default();
    let mut shell = ConvertedBatch::default();
    let (mut convert_times, mut process_times) = (Vec::new(), Vec::new());
    let mut train_ready: Vec<ConvertedBatch> = Vec::new();
    for _ in 0..REPS {
        train_ready.clear();
        let (mut convert_s, mut process_s) = (0.0, 0.0);
        for batch in &batches {
            convert_s += seconds(|| {
                converter
                    .convert_columnar_into(batch, &mut dedup_scratch, &mut shell)
                    .expect("landed rows convert");
            })
            .0;
            process_s += seconds(|| black_box(pipeline.apply(&mut shell))).0;
            if train_ready.len() <= TRAIN_BATCHES {
                train_ready.push(shell.clone());
            }
        }
        convert_times.push(convert_s);
        process_times.push(process_s);
    }

    let mut model = Dlrm::new(DlrmConfig::from_schema(
        schema,
        64,
        PoolingKind::Transformer,
    ));
    // The first step of a fresh model is untimed (unless it is the only one).
    let untimed = usize::from(train_ready.len() > 1);
    let mut train_ms_per_ksample = Vec::new();
    for (i, batch) in train_ready.iter().enumerate() {
        let (s, loss) = seconds(|| model.train_step(batch, ExecutionMode::Deduplicated));
        black_box(loss);
        if i >= untimed {
            train_ms_per_ksample.push(s * 1e3 / (batch.batch_size as f64 / 1e3));
        }
    }

    ReadPath {
        get_s: stats::median(&get_times),
        decode_s: stats::median(&decode_times),
        convert_s: stats::median(&convert_times),
        process_s: stats::median(&process_times),
        train_ms_per_ksample,
        read_bytes,
    }
}

/// `(wall, CPU)` seconds of the service over the landed table: start →
/// submit → barrier → finish, with a consumer that discards. Wall is the
/// median repetition; CPU is the mean, read once around all of them.
fn service(table: &Table) -> (f64, f64) {
    let mut walls = Vec::new();
    let cpu_before = procfs::cpu_s();
    for _ in 0..SERVICE_REPS {
        let (wall_s, ()) = seconds(|| {
            let mut handle = DppService::start(
                workloads::dpp_config(&table.schema),
                Arc::clone(&table.store),
                table.schema.clone(),
            );
            let trainer = handle.take_trainers().pop().expect("one trainer lane");
            let consumer = std::thread::spawn(move || {
                while let Some(item) = trainer.recv() {
                    black_box(item.batch.batch_size);
                }
            });
            for partition in &table.stored {
                handle.submit_partition(partition);
            }
            black_box(handle.flush_partition());
            black_box(handle.finish().map(|o| o.report.samples).ok());
            consumer.join().expect("null consumer must not panic");
        });
        walls.push(wall_s);
    }
    let cpu_s = (procfs::cpu_s() - cpu_before) / SERVICE_REPS as f64;
    (stats::median(&walls), cpu_s)
}

/// Seconds per run of the product's continuous driver, which the workloads
/// bypass.
fn product_driver() -> Vec<f64> {
    let runner = PipelineRunner::new(RmPreset::Rm3.spec().scaled_down(300), RecdConfig::full())
        .with_continuous(1)
        .with_continuous_trainers(1);
    (0..PIPELINE_REPS)
        .map(|_| seconds(|| black_box(runner.run(256).report.samples)).0)
        .collect()
}

/// Builds and reports the ledger for one workload. `live_cpu_ms_per_ksample`
/// is the live run's CPU cost, the base of `ledger.coverage`.
pub fn run(
    workload: &Workload,
    seed: u64,
    table: &Table,
    live_cpu_ms_per_ksample: f64,
) -> Vec<Metric> {
    let generated;
    let records = if table.records.is_empty() {
        generated = DatasetGenerator::new(workload.datagen(seed))
            .generate_logs()
            .0;
        &generated
    } else {
        &table.records
    };
    let write = write_path(workload, seed, &table.schema, records);
    let read = read_path(table);
    let (service_wall_s, service_cpu_s) = service(table);
    let pipeline_s = product_driver();

    let samples = table.reference.rows as f64;
    let per_ksample = |s: f64| s * 1e3 / (samples / 1e3);
    let row = |name, s: f64| Metric::new(name, "ms", per_ksample(s));
    let train = stats::median(&read.train_ms_per_ksample);
    let read_rows = per_ksample(read.get_s + read.decode_s + read.convert_s + read.process_s);
    let write_rows = per_ksample(
        write.ingest_s + write.drain_s + write.join_seal_s + write.encode_s + write.put_s,
    );
    let on_path = match workload.kind {
        Kind::Preproc => read_rows,
        Kind::Train => read_rows + train,
        Kind::Tail => write_rows + read_rows,
    };
    vec![
        row("scribe.ingest_ms_per_ksample", write.ingest_s),
        row("scribe.drain_ms_per_ksample", write.drain_s),
        Metric::new("scribe.compression_ratio", "ratio", write.scribe_ratio),
        row("etl.join_seal_ms_per_ksample", write.join_seal_s),
        row("etl.batch_ms_per_ksample", write.batch_etl_s),
        row("storage.encode_ms_per_ksample", write.encode_s),
        row("storage.put_ms_per_ksample", write.put_s),
        Metric::new(
            "storage.compression_ratio",
            "ratio",
            write.written.compression_ratio(),
        ),
        row("storage.get_ms_per_ksample", read.get_s),
        Metric::new(
            "storage.read_bytes_per_sample",
            "B",
            read.read_bytes as f64 / samples,
        ),
        row("reader.decode_ms_per_ksample", read.decode_s),
        row("core.convert_ms_per_ksample", read.convert_s),
        row("reader.process_ms_per_ksample", read.process_s),
        Metric::of(
            "trainer.step_ms_per_ksample",
            "ms",
            Some(train),
            read.train_ms_per_ksample.len(),
        ),
        row("dpp.service_ms_per_ksample", service_wall_s),
        row("dpp.service_cpu_ms_per_ksample", service_cpu_s),
        Metric::new(
            "dpp.overhead_ratio",
            "ratio",
            per_ksample(service_cpu_s) / read_rows,
        ),
        Metric::of(
            "pipeline.run_s",
            "s",
            Some(stats::median(&pipeline_s)),
            pipeline_s.len(),
        ),
        Metric::new("ledger.on_path_ms_per_ksample", "ms", on_path),
        Metric::new(
            "ledger.coverage",
            "ratio",
            on_path / live_cpu_ms_per_ksample,
        ),
    ]
}
