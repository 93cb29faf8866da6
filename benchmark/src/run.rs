//! One benchmark run: set-up, a verified warm-up epoch, the measured epochs,
//! the output check, and the metrics.
//!
//! The harness is the load generator and uses two threads, the machine's
//! `nproc`: the main thread feeds, and one thread consumes the single
//! trainer lane. The loop is closed — the trainer pulls, and the feeder
//! blocks on the service's backpressure.

use crate::ledger;
use crate::procfs;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::verify::{digest_batch, Digest};
use crate::workloads::{self, Kind, Workload, MIN_LATENCY_ROWS};
use recd::data::{ColumnarBatch, LogRecord, Schema};
use recd::datagen::DatasetGenerator;
use recd::dpp::{DppHandle, DppReport, DppService, TrainerHandle};
use recd::etl::{EtlJob, EtlService, EtlStreamConfig, ManualClock, TableLayout};
use recd::scribe::{LogTail, ScribeCluster, ScribeConfig, ShardKeyPolicy, TailConfig};
use recd::storage::{DwrfFile, FileReadScratch, StorageReport, StoredPartition, TableStore};
use recd::trainer::{Dlrm, DlrmConfig, ExecutionMode, PoolingKind};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU seconds a block of epochs must hold before it gives a
/// `cpu_ms_per_ksample` sample: the process CPU counter ticks in 10 ms.
const CPU_BLOCK_S: f64 = 1.0;
/// Fewest measured epochs in an untraced run, however slow the machine.
const MIN_EPOCHS: usize = 5;
/// Fewest epochs of each kind (traced, untraced) in a traced run.
const MIN_TRACED_EPOCHS: usize = 2;
/// Simulated milliseconds the tail clock advances per pump.
const PUMP_STEP_MS: u64 = 60_000;
/// How long the feeder waits for the consumer to catch up with a resolved
/// barrier before the epoch counts as lost.
const CONSUME_TIMEOUT: Duration = Duration::from_secs(60);

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Record spans on alternate epochs and run the serial stage ledger.
    pub trace: bool,
    /// One measured epoch (two when tracing: one traced, one not), checks
    /// only.
    pub smoke: bool,
}

/// One named number. `value` is `None` where the metric does not apply to
/// the workload or the sample does not support it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    /// Samples behind the value, where it is an order statistic.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value: Some(value),
            n: None,
        }
    }

    pub fn of(name: &'static str, unit: &'static str, value: Option<f64>, n: usize) -> Self {
        Self {
            name,
            unit,
            value,
            n: Some(n),
        }
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunResult {
    /// The output check passed.
    pub correct: bool,
    /// Samples offered to the pipeline.
    pub attempted: u64,
    /// Samples not received intact by the consumer.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Why the output check failed, if it did.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

// ---------------------------------------------------------------- set-up

/// A table landed by the batch path (datagen → scribe → `EtlJob` → land),
/// with the reference digest of its rows.
pub struct Table {
    pub schema: Schema,
    pub store: Arc<TableStore>,
    pub stored: Vec<StoredPartition>,
    pub storage: StorageReport,
    pub reference: Digest,
    /// The raw log stream; kept only where epochs replay it.
    pub records: Vec<LogRecord>,
}

/// Scribe as the pipeline configures it (O1: shard by session id).
pub fn new_scribe() -> ScribeCluster {
    ScribeCluster::new(ScribeConfig {
        flush_bytes: 128 * 1024,
        ..ScribeConfig::with_policy(ShardKeyPolicy::SessionId)
    })
}

pub fn build_table(workload: &Workload, seed: u64, keep_records: bool) -> Table {
    let generator = DatasetGenerator::new(workload.datagen(seed));
    let schema = generator.schema().clone();
    let (records, _) = generator.generate_logs();

    let mut scribe = new_scribe();
    scribe.ingest_all(&records);
    scribe.flush();
    let drained = scribe
        .drain()
        .expect("scribe blocks written by this run decode");
    let records = if keep_records { records } else { Vec::new() };

    let partitions = EtlJob::new(workload.layout).run(&schema, &drained);
    drop(drained);

    let store = workloads::new_store();
    let mut storage = StorageReport::default();
    let mut stored = Vec::new();
    for partition in &partitions {
        let (landed, report) =
            store.land_partition(&schema, workload.name, partition.hour, &partition.samples);
        storage.absorb(&report);
        stored.push(landed);
    }
    drop(partitions);

    let reference = reference_digest(&store, &schema, &stored);
    Table {
        schema,
        store,
        stored,
        storage,
        reference,
        records,
    }
}

/// Fetches one landed file into the scratch's blob buffer; returns its size.
pub fn fetch_file(store: &TableStore, path: &str, scratch: &mut FileReadScratch) -> usize {
    store
        .blob_store()
        .get_into(path, scratch.blob_buf())
        .expect("landed file is present")
}

/// Decodes the file last fetched into `scratch` into `rows`.
pub fn decode_file(schema: &Schema, scratch: &mut FileReadScratch, rows: &mut ColumnarBatch) {
    let file = DwrfFile::from_blob(scratch.blob()).expect("landed file parses");
    file.read_all_columnar_into(schema, scratch, rows)
        .expect("landed file decodes");
}

/// The reference computation: every landed file read back and preprocessed
/// serially through layer functions, with no dedup and no service.
fn reference_digest(store: &TableStore, schema: &Schema, stored: &[StoredPartition]) -> Digest {
    let converter =
        recd::core::FeatureConverter::new(recd::core::DataLoaderConfig::from_schema(schema));
    let pipeline = workloads::preprocess();
    let mut scratch = FileReadScratch::default();
    let mut rows = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
    let mut converted = recd::core::ConvertedBatch::default();
    let mut digest = Digest::default();
    for path in stored.iter().flat_map(|p| &p.files) {
        fetch_file(store, path, &mut scratch);
        decode_file(schema, &mut scratch, &mut rows);
        converter
            .convert_columnar_baseline_into(&rows, &mut converted)
            .expect("landed rows convert");
        pipeline.apply(&mut converted);
        digest.merge(digest_batch(&converted));
    }
    digest
}

// -------------------------------------------------------------- consumer

/// Cumulative totals of what the consumer has received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Received {
    batches: u64,
    samples: u64,
    /// Wrapping sum of the labels' bit patterns (order-independent).
    label_bits: u64,
    stored_values: u64,
    /// Row digest of the batches received while `verify` was set.
    digest: Digest,
}

impl Received {
    fn since(&self, earlier: &Received) -> Received {
        Received {
            batches: self.batches - earlier.batches,
            samples: self.samples - earlier.samples,
            label_bits: self.label_bits.wrapping_sub(earlier.label_bits),
            stored_values: self.stored_values - earlier.stored_values,
            digest: Digest {
                rows: self.digest.rows - earlier.digest.rows,
                sum: self.digest.sum.wrapping_sub(earlier.digest.sum),
            },
        }
    }
}

#[derive(Default)]
struct Shared {
    received: Mutex<Received>,
    progressed: Condvar,
    /// Digest every row of the batches received (the warm-up epoch).
    verify: AtomicBool,
    tracing: AtomicBool,
    epoch: AtomicU32,
}

struct ConsumerOutput {
    spans: Vec<Span>,
    losses: Vec<f32>,
}

struct Consumer {
    shared: Arc<Shared>,
    join: JoinHandle<ConsumerOutput>,
}

impl Consumer {
    /// Spawns the trainer lane's consumer. With a model it trains on every
    /// batch (the deduplicated O5–O7 path); without, it counts and discards.
    fn spawn(trainer: TrainerHandle, mut model: Option<Dlrm>, origin: Instant) -> Self {
        let shared = Arc::new(Shared::default());
        let state = Arc::clone(&shared);
        let join = std::thread::spawn(move || {
            let mut tracer = Tracer::new(origin);
            let mut losses = Vec::new();
            loop {
                tracer.enabled = state.tracing.load(Ordering::Relaxed);
                tracer.epoch = state.epoch.load(Ordering::Relaxed);
                let wait = tracer.begin("trainer.recv", "dpp");
                let item = trainer.recv();
                tracer.end(wait);
                let Some(item) = item else { break };
                let batch = &item.batch;

                let digest = if state.verify.load(Ordering::Relaxed) {
                    digest_batch(batch)
                } else {
                    Digest::default()
                };
                if let Some(model) = model.as_mut() {
                    let step = tracer.begin("trainer.train_step", "trainer");
                    losses.push(model.train_step(batch, ExecutionMode::Deduplicated));
                    tracer.end(step);
                }
                let label_bits = batch
                    .labels
                    .iter()
                    .fold(0u64, |sum, l| sum.wrapping_add(u64::from(l.to_bits())));

                let mut received = state.received.lock().expect("consumer totals lock");
                received.batches += 1;
                received.samples += batch.batch_size as u64;
                received.label_bits = received.label_bits.wrapping_add(label_bits);
                received.stored_values += batch.stored_sparse_values() as u64;
                received.digest.merge(digest);
                drop(received);
                state.progressed.notify_all();
            }
            ConsumerOutput {
                spans: tracer.into_spans(),
                losses,
            }
        });
        Self { shared, join }
    }

    fn received(&self) -> Received {
        *self.shared.received.lock().expect("consumer totals lock")
    }

    /// Blocks until the consumer has finished `batches` batches in total.
    /// Returns false if it does not get there within [`CONSUME_TIMEOUT`].
    fn wait_for(&self, batches: u64) -> bool {
        let guard = self.shared.received.lock().expect("consumer totals lock");
        let (_guard, timeout) = self
            .shared
            .progressed
            .wait_timeout_while(guard, CONSUME_TIMEOUT, |r| r.batches < batches)
            .expect("consumer totals lock");
        !timeout.timed_out()
    }
}

// ------------------------------------------------------------------ live

/// What one epoch of the tail workload did, from the ETL service's report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TailEpoch {
    landed_rows: u64,
    stored_bytes: u64,
    late: u64,
    orphans: u64,
    duplicates: u64,
    pumps: u64,
    landing_pumps: u64,
    peak_tail_lag_ms: u64,
}

impl TailEpoch {
    /// Records the streaming ETL refused: each is a sample lost.
    fn dropped(&self) -> u64 {
        self.late + self.orphans + self.duplicates
    }
}

#[derive(Debug, Clone, Default)]
struct Epoch {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    received: Received,
    barriers_ok: bool,
    consumed_in_time: bool,
    /// Feed-unit latencies. Tail: one landing pump, log time advanced →
    /// every resulting batch on the trainer lane. Table workloads: the epoch,
    /// feed start → the consumer is done with its last batch.
    latencies_ms: Vec<f64>,
    tail: Option<TailEpoch>,
}

/// A set-up pipeline: landed table, running service, running consumer.
struct Live {
    workload: &'static Workload,
    seed: u64,
    table: Table,
    /// The store the service reads: the landed table's for table workloads,
    /// a fresh one the streaming ETL lands into for the tail workload.
    store: Arc<TableStore>,
    handle: DppHandle,
    consumer: Consumer,
    epochs_run: u32,
    /// Paths the current tail epoch has landed.
    landed_files: Vec<String>,
}

impl Live {
    /// Everything before the first measured epoch: land the table, compute
    /// the reference, initialise the model, start service and consumer, and
    /// run the verified warm-up epoch.
    fn set_up(workload: &'static Workload, seed: u64, origin: Instant) -> (Self, Epoch) {
        let tail = workload.kind == Kind::Tail;
        let table = build_table(workload, seed, tail);
        let store = if tail {
            workloads::new_store()
        } else {
            Arc::clone(&table.store)
        };
        let model = (workload.kind == Kind::Train).then(|| {
            Dlrm::new(DlrmConfig::from_schema(
                &table.schema,
                64,
                PoolingKind::Transformer,
            ))
        });
        let mut handle = DppService::start(
            workloads::dpp_config(&table.schema),
            Arc::clone(&store),
            table.schema.clone(),
        );
        let trainer = handle
            .take_trainers()
            .pop()
            .expect("the service was configured with one trainer lane");
        let consumer = Consumer::spawn(trainer, model, origin);
        let mut live = Self {
            workload,
            seed,
            table,
            store,
            handle,
            consumer,
            epochs_run: 0,
            landed_files: Vec::new(),
        };
        live.consumer.shared.verify.store(true, Ordering::Relaxed);
        let warmup = live.run_epoch(&mut Tracer::new(origin));
        live.consumer.shared.verify.store(false, Ordering::Relaxed);
        (live, warmup)
    }

    fn run_epoch(&mut self, tracer: &mut Tracer) -> Epoch {
        let epoch_no = self.epochs_run;
        self.epochs_run += 1;
        tracer.epoch = epoch_no;
        self.consumer
            .shared
            .epoch
            .store(epoch_no, Ordering::Relaxed);
        self.consumer
            .shared
            .tracing
            .store(tracer.enabled, Ordering::Relaxed);

        let before = self.consumer.received();
        let cpu_before = procfs::cpu_s();
        let started = Instant::now();

        let mut epoch = match self.workload.kind {
            Kind::Tail => self.feed_tail(tracer, epoch_no),
            Kind::Preproc | Kind::Train => self.feed_table(tracer),
        };
        // The barrier puts every batch on the lane; the epoch ends when the
        // consumer has finished the last of them.
        let delivered = self.handle.snapshot().trainers[0].delivered_batches;
        epoch.consumed_in_time = self.consumer.wait_for(delivered);

        epoch.wall_s = started.elapsed().as_secs_f64();
        epoch.cpu_s = procfs::cpu_s() - cpu_before;
        if self.workload.kind != Kind::Tail {
            // The feed unit of a table workload is the whole epoch.
            epoch.latencies_ms.push(epoch.wall_s * 1e3);
        }
        epoch.traced = tracer.enabled;
        epoch.received = self.consumer.received().since(&before);
        // Untimed: the store has no delete, so empty the files this epoch
        // landed, all read by now. The store then holds one epoch's blobs at
        // a time, and peak memory does not depend on how many epochs the run
        // fits in.
        for path in self.landed_files.drain(..) {
            self.store.blob_store().put(&path, Vec::new());
        }
        epoch
    }

    /// One pass over the landed table.
    fn feed_table(&mut self, tracer: &mut Tracer) -> Epoch {
        let submit = tracer.begin("dpp.submit_partition", "dpp");
        for partition in &self.table.stored {
            self.handle.submit_partition(partition);
        }
        tracer.end(submit);
        let flush = tracer.begin("dpp.flush_partition", "dpp");
        let barriers_ok = self.handle.flush_partition();
        tracer.end(flush);
        Epoch {
            barriers_ok,
            ..Epoch::default()
        }
    }

    /// The whole write-then-read path on fresh state: scribe → jittered tail
    /// → streaming ETL → land → ingest, into the long-lived service. Every
    /// epoch lands a table of its own: ingestion is idempotent per partition
    /// prefix, so a table name cannot be used twice.
    fn feed_tail(&mut self, tracer: &mut Tracer, epoch_no: u32) -> Epoch {
        let ingest = tracer.begin("scribe.ingest", "scribe");
        let mut scribe = new_scribe();
        scribe.ingest_all(&self.table.records);
        scribe.flush();
        tracer.end(ingest);
        let drain = tracer.begin("scribe.drain", "scribe");
        let drained = scribe
            .drain()
            .expect("scribe blocks written by this run decode");
        tracer.end(drain);

        let arrivals = tracer.begin("scribe.log_tail", "scribe");
        let tail = LogTail::new(
            drained,
            &TailConfig::default()
                .with_jitter_ms(2_000)
                .with_lateness(0.05, 5_000)
                .with_seed(self.seed.wrapping_add(u64::from(epoch_no))),
        );
        tracer.end(arrivals);
        // Lossless by construction: jitter + straggler delay < window.
        let mut etl = EtlService::new(
            tail,
            EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000),
            Arc::clone(&self.store),
            self.table.schema.clone(),
            format!("t{epoch_no}"),
        );

        let handle = &mut self.handle;
        let landed_files = &mut self.landed_files;
        let mut epoch = Epoch {
            barriers_ok: true,
            ..Epoch::default()
        };
        let mut stats = TailEpoch::default();
        let mut clock = ManualClock::new();
        while !etl.tail_drained() {
            let now = clock.advance(PUMP_STEP_MS);
            let started = Instant::now();
            let mut rows = 0usize;
            let pump = tracer.begin("etl.pump", "etl");
            let landed = etl.pump(now, &mut |stored, sealed| {
                rows += sealed.samples.len();
                landed_files.extend_from_slice(&stored.files);
                let ingest = tracer.begin("dpp.ingest_partition", "dpp");
                handle.ingest_partition(stored);
                tracer.end(ingest);
            });
            tracer.end(pump);
            stats.pumps += 1;
            if landed > 0 {
                // The product's chaos/fleet cadence: a barrier after every
                // pump that landed something.
                let flush = tracer.begin("dpp.flush_partition", "dpp");
                epoch.barriers_ok &= handle.flush_partition();
                tracer.end(flush);
                stats.landing_pumps += 1;
                if rows >= MIN_LATENCY_ROWS {
                    epoch
                        .latencies_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        let finish = tracer.begin("etl.finish", "etl");
        let output = etl.finish(&mut |stored, _| {
            landed_files.extend_from_slice(&stored.files);
            let ingest = tracer.begin("dpp.ingest_partition", "dpp");
            handle.ingest_partition(stored);
            tracer.end(ingest);
        });
        tracer.end(finish);
        let flush = tracer.begin("dpp.flush_partition", "dpp");
        epoch.barriers_ok &= handle.flush_partition();
        tracer.end(flush);

        let report = output.report;
        let counters = report.etl.counters;
        stats.landed_rows = report.storage.rows as u64;
        stats.stored_bytes = report.storage.stored_bytes as u64;
        stats.late = counters.late_drops;
        stats.duplicates = counters.duplicates;
        stats.orphans = counters.orphaned_features + counters.orphaned_events;
        stats.peak_tail_lag_ms = report.peak_tail_lag_ms;
        epoch.tail = Some(stats);
        epoch
    }

    /// Shuts the service and the consumer down.
    fn finish(self, tracer: &mut Tracer) -> (Table, DppReport, usize, ConsumerOutput) {
        let finish = tracer.begin("dpp.finish", "dpp");
        let (report, errors) = match self.handle.finish() {
            Ok(output) => (output.report, 0),
            Err(err) => (err.output.report, err.errors.len()),
        };
        tracer.end(finish);
        let consumer = self.consumer.join.join().expect("consumer must not panic");
        (self.table, report, errors, consumer)
    }
}

// ------------------------------------------------------------------- run

/// Everything a run measured, before it is turned into metrics.
struct Measured {
    workload: &'static Workload,
    /// Process start → end of the warm-up epoch.
    setup_s: f64,
    warmup: Epoch,
    epochs: Vec<Epoch>,
    measured_s: f64,
    /// Share of the machine's CPU time the hypervisor gave to someone else
    /// during the measured epochs.
    host_steal_share: f64,
    table: Table,
    dpp: DppReport,
    dpp_errors: usize,
    losses: Vec<f32>,
    spans: Vec<Span>,
}

impl Measured {
    /// Samples one epoch offers the pipeline.
    fn offered(&self) -> u64 {
        self.table.reference.rows
    }

    fn all_epochs(&self) -> impl Iterator<Item = &Epoch> {
        std::iter::once(&self.warmup).chain(&self.epochs)
    }

    fn epochs_where(&self, traced: bool) -> Vec<&Epoch> {
        self.epochs.iter().filter(|e| e.traced == traced).collect()
    }
}

/// Sets up, measures, and shuts down.
fn measure(opts: RunOptions, process_start: Instant) -> Measured {
    let workload = opts.workload;
    // Every tracer of the run counts from process start.
    let origin = process_start;

    let (mut live, warmup) = Live::set_up(workload, opts.seed, origin);
    let setup_s = process_start.elapsed().as_secs_f64();

    // Measured epochs. A traced run records spans on every other epoch, so
    // traced and untraced epochs interleave and see the same machine drift.
    let mut tracer = Tracer::new(origin);
    let mut epochs: Vec<Epoch> = Vec::new();
    let min_epochs = match (opts.smoke, opts.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => MIN_EPOCHS,
        (false, true) => 2 * MIN_TRACED_EPOCHS,
    };
    let measure_started = Instant::now();
    let (steal_before, ticks_before) = procfs::host_ticks();
    loop {
        tracer.enabled = opts.trace && epochs.len() % 2 == 1;
        epochs.push(live.run_epoch(&mut tracer));
        let elapsed = measure_started.elapsed().as_secs_f64();
        if epochs.len() >= min_epochs && (opts.smoke || elapsed >= opts.seconds) {
            break;
        }
    }
    let measured_s = measure_started.elapsed().as_secs_f64();
    let (steal_after, ticks_after) = procfs::host_ticks();
    let host_steal_share =
        (steal_after - steal_before) as f64 / (ticks_after - ticks_before).max(1) as f64;
    tracer.enabled = opts.trace;
    let (table, dpp, dpp_errors, consumer) = live.finish(&mut tracer);
    Measured {
        workload,
        setup_s,
        warmup,
        epochs,
        measured_s,
        host_steal_share,
        table,
        dpp,
        dpp_errors,
        losses: consumer.losses,
        spans: trace::merge(vec![tracer.into_spans(), consumer.spans]),
    }
}

/// The output check. Returns what is wrong; empty means it passed.
fn check_outputs(m: &Measured) -> Vec<String> {
    let mut problems = Vec::new();
    if m.warmup.received.digest != m.table.reference {
        problems.push(format!(
            "warm-up epoch delivered {:?}, the serial reference path gives {:?}",
            m.warmup.received.digest, m.table.reference
        ));
    }
    let expected = Received {
        digest: Digest::default(),
        ..m.warmup.received
    };
    for (i, epoch) in m.epochs.iter().enumerate() {
        if epoch.received != expected {
            problems.push(format!(
                "measured epoch {i} received {:?}, the warm-up epoch {:?}",
                epoch.received, expected
            ));
        }
    }
    if m.workload.kind == Kind::Train {
        let losses = &m.losses;
        let (first, last) = quarter_means(losses);
        if losses.is_empty() || losses.iter().any(|l| !l.is_finite()) || last >= first {
            problems.push(format!(
                "training loss must be finite and fall: first-quarter mean {first}, last-quarter mean {last} over {} steps",
                losses.len()
            ));
        }
    }
    problems
}

/// `(attempted, failed)` operations, one operation being one sample offered.
fn count_operations(m: &Measured) -> (u64, u64) {
    let offered = m.offered();
    let dropped_batches: u64 = m.dpp.trainers.iter().map(|t| t.dropped_batches).sum();
    let mut failed = m.dpp_errors as u64 + dropped_batches;
    for epoch in m.all_epochs() {
        failed += if epoch.barriers_ok && epoch.consumed_in_time {
            epoch.received.samples.abs_diff(offered)
        } else {
            offered
        };
        failed += epoch.tail.map_or(0, |t| t.dropped());
    }
    (offered * m.all_epochs().count() as u64, failed)
}

/// End-to-end metrics, from the untraced epochs.
fn end_to_end(m: &Measured, attempted: u64, failed: u64) -> Vec<Metric> {
    let untraced = m.epochs_where(false);
    let walls: Vec<f64> = untraced.iter().map(|e| e.wall_s).collect();
    let wall = stats::quartiles(&walls);
    let cpu = stats::quartiles(&cpu_blocks(&untraced));
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.latencies_ms.iter().copied())
        .collect();
    let (stored_bytes, stored_rows) = match m.workload.kind {
        Kind::Tail => {
            let tails = || m.all_epochs().filter_map(|e| e.tail);
            (
                tails().map(|t| t.stored_bytes).sum::<u64>(),
                tails().map(|t| t.landed_rows).sum::<u64>(),
            )
        }
        Kind::Preproc | Kind::Train => (
            m.table.storage.stored_bytes as u64,
            m.table.storage.rows as u64,
        ),
    };
    let offered = m.offered() as f64;
    vec![
        Metric::of(
            "samples_per_s",
            "samples/s",
            Some(offered / wall.median),
            wall.n,
        ),
        Metric::of(
            "cpu_ms_per_ksample",
            "ms",
            Some(cpu.median * 1e3 / (offered / 1e3)),
            cpu.n,
        ),
        Metric::of(
            "pump_latency_p50_ms",
            "ms",
            (!latencies.is_empty()).then(|| stats::median(&latencies)),
            latencies.len(),
        ),
        Metric::of(
            "pump_latency_p90_ms",
            "ms",
            stats::percentile(&latencies, 0.9),
            latencies.len(),
        ),
        Metric::new(
            "stored_bytes_per_sample",
            "B",
            stored_bytes as f64 / stored_rows.max(1) as f64,
        ),
        Metric::new(
            "egress_bytes_per_sample",
            "B",
            m.dpp.egress_bytes as f64 / m.dpp.samples.max(1) as f64,
        ),
        Metric::new("dedupe_factor", "ratio", m.dpp.dedupe_factor),
        Metric::of(
            "failed_ops_share",
            "ratio",
            Some(failed as f64 / attempted as f64),
            attempted as usize,
        ),
        Metric::new("peak_rss_mb", "MiB", procfs::peak_rss_mb()),
        Metric::new("setup_s", "s", m.setup_s),
        // Context for reading the numbers above.
        Metric::new("warmup_epoch_wall_s", "s", m.warmup.wall_s),
        Metric::new("host_steal_share", "ratio", m.host_steal_share),
        Metric::new("measured_s", "s", m.measured_s),
        Metric::new("epochs", "count", m.epochs.len() as f64),
        Metric::new("samples_per_epoch", "count", offered),
        Metric::new("epoch_wall_q1_s", "s", wall.q1),
        Metric::new("epoch_wall_median_s", "s", wall.median),
        Metric::new("epoch_wall_q3_s", "s", wall.q3),
    ]
}

/// CPU seconds per epoch, one value per block of consecutive epochs that
/// together burnt at least [`CPU_BLOCK_S`], so the counter's 10 ms tick stays
/// within a percent of every value. An unfinished last block is dropped,
/// unless it is the only one.
fn cpu_blocks(epochs: &[&Epoch]) -> Vec<f64> {
    let mut blocks = Vec::new();
    let (mut cpu_s, mut n) = (0.0, 0usize);
    for epoch in epochs {
        cpu_s += epoch.cpu_s;
        n += 1;
        if cpu_s >= CPU_BLOCK_S {
            blocks.push(cpu_s / n as f64);
            (cpu_s, n) = (0.0, 0);
        }
    }
    if blocks.is_empty() {
        blocks.push(cpu_s / n.max(1) as f64);
    }
    blocks
}

/// Per-layer metrics of the live run, from the spans of the traced epochs
/// and the public reports. Span totals (`*_s`) are over the traced epochs,
/// whose total wall time is `trace.traced_wall_s`.
fn live_layers(m: &Measured) -> Vec<Metric> {
    let spans = &m.spans;
    let total = |name| trace::total_seconds(spans, name);
    let is_tail = m.workload.kind == Kind::Tail;
    let is_train = m.workload.kind == Kind::Train;

    let traced = m.epochs_where(true);
    let traced_walls: Vec<f64> = traced.iter().map(|e| e.wall_s).collect();
    let untraced_walls: Vec<f64> = m.epochs_where(false).iter().map(|e| e.wall_s).collect();
    let traced_wall_s: f64 = traced_walls.iter().sum();
    let traced_ksamples = (traced.len() as u64 * m.offered()) as f64 / 1e3;
    let tails: Vec<TailEpoch> = traced.iter().filter_map(|e| e.tail).collect();
    let tail_sum = |f: fn(&TailEpoch) -> u64| tails.iter().map(f).sum::<u64>() as f64;
    let peak_lag = tails.iter().map(|t| t.peak_tail_lag_ms).max().unwrap_or(0);

    let pumps = trace::durations_ms(spans, "etl.pump").len();
    let step_ms = trace::durations_ms(spans, "trainer.train_step");
    let step = |name, p| {
        let value = stats::percentile(&step_ms, p).filter(|_| is_train);
        Metric::of(name, "ms", value, step_ms.len())
    };
    let wait_s = total("trainer.recv");
    let (fill, convert, process) = m.dpp.reader_metrics.phase_fractions();
    let pools = [&m.dpp.batch_pool, &m.dpp.converted_pool];
    let pool_hits: u64 = pools.iter().map(|p| p.hits).sum();
    let pool_misses: u64 = pools.iter().map(|p| p.misses).sum();
    let lane_peak = m.dpp.trainers.first().map_or(0, |l| l.peak_queue_depth);
    let count = |name, value: usize| Metric::new(name, "count", value as f64);

    vec![
        // etl: only the tail workload runs an ETL service; elsewhere the
        // counts are truly zero and the pump time does not exist.
        Metric::of(
            "etl.pump_self_s",
            "s",
            is_tail.then(|| trace::self_seconds(spans, "etl.pump")),
            pumps,
        ),
        Metric::new("etl.pumps", "count", tail_sum(|t| t.pumps)),
        Metric::new("etl.landing_pumps", "count", tail_sum(|t| t.landing_pumps)),
        Metric::new("etl.late_records", "count", tail_sum(|t| t.late)),
        Metric::new("etl.orphan_records", "count", tail_sum(|t| t.orphans)),
        Metric::new("etl.duplicate_records", "count", tail_sum(|t| t.duplicates)),
        Metric::new("etl.peak_tail_lag_ms", "sim_ms", peak_lag as f64),
        // reader: the service's own phase accounting under concurrency.
        Metric::new("reader.fill_cpu_share", "ratio", fill),
        Metric::new("reader.convert_cpu_share", "ratio", convert),
        Metric::new("reader.process_cpu_share", "ratio", process),
        // dpp
        Metric::new(
            "dpp.submit_block_s",
            "s",
            total("dpp.submit_partition") + total("dpp.ingest_partition"),
        ),
        Metric::new("dpp.flush_wait_s", "s", total("dpp.flush_partition")),
        Metric::new("dpp.finish_s", "s", total("dpp.finish")),
        count("dpp.peak_input_queue", m.dpp.peak_input_queue_depth),
        count("dpp.peak_work_queue", m.dpp.peak_work_queue_depth),
        count("dpp.peak_output_queue", m.dpp.peak_output_queue_depth),
        count("dpp.peak_lane_depth", lane_peak),
        Metric::new(
            "dpp.pool_hit_ratio",
            "ratio",
            pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64,
        ),
        count("dpp.errors", m.dpp_errors),
        // trainer
        Metric::new("trainer.wait_s", "s", wait_s),
        Metric::new(
            "trainer.wait_share",
            "ratio",
            wait_s / traced_wall_s.max(f64::MIN_POSITIVE),
        ),
        Metric::of(
            "trainer.live_step_ms_per_ksample",
            "ms",
            is_train.then(|| step_ms.iter().sum::<f64>() / traced_ksamples),
            step_ms.len(),
        ),
        step("trainer.step_p50_ms", 0.5),
        step("trainer.step_p95_ms", 0.95),
        Metric::of(
            "trainer.final_loss",
            "loss",
            is_train.then(|| f64::from(quarter_means(&m.losses).1)),
            m.losses.len(),
        ),
        // the tracing itself
        Metric::new(
            "trace.overhead_share",
            "ratio",
            1.0 - stats::median(&untraced_walls) / stats::median(&traced_walls),
        ),
        Metric::new("trace.traced_wall_s", "s", traced_wall_s),
    ]
}

/// Mean loss over the first and over the last quarter of the steps.
fn quarter_means(losses: &[f32]) -> (f32, f32) {
    let quarter = losses.len().div_ceil(4);
    let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len().max(1) as f32;
    (
        mean(&losses[..quarter]),
        mean(&losses[losses.len() - quarter..]),
    )
}

/// Runs one workload once and reports its metrics.
pub fn run(opts: RunOptions, process_start: Instant) -> RunResult {
    let measured = measure(opts, process_start);
    let problems = check_outputs(&measured);
    let (attempted, failed) = count_operations(&measured);
    let end_to_end = end_to_end(&measured, attempted, failed);
    let per_layer = if opts.trace {
        let cpu_ms_per_ksample = end_to_end
            .iter()
            .find(|metric| metric.name == "cpu_ms_per_ksample")
            .and_then(|metric| metric.value)
            .expect("every run measures its CPU cost");
        let mut metrics = live_layers(&measured);
        metrics.extend(ledger::run(
            opts.workload,
            opts.seed,
            &measured.table,
            cpu_ms_per_ksample,
        ));
        metrics
    } else {
        Vec::new()
    };
    RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        problems,
        spans: measured.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epochs(cpu_s: &[f64]) -> Vec<Epoch> {
        let epoch = |&cpu_s| Epoch {
            cpu_s,
            ..Epoch::default()
        };
        cpu_s.iter().map(epoch).collect()
    }

    #[test]
    fn cpu_blocks_span_a_second_of_cpu_each() {
        // Four epochs of 0.3 s fill one block; the fifth does not fill a
        // second one and is dropped.
        let short = epochs(&[0.3; 5]);
        let blocks = cpu_blocks(&short.iter().collect::<Vec<_>>());
        assert_eq!(blocks.len(), 1);
        assert!((blocks[0] - 0.3).abs() < 1e-12);
        // Epochs of over a second are a block each.
        let long = epochs(&[1.5, 2.5]);
        assert_eq!(cpu_blocks(&long.iter().collect::<Vec<_>>()), [1.5, 2.5]);
        // A smoke run's single short epoch still gives a value.
        let one = epochs(&[0.2]);
        assert_eq!(cpu_blocks(&one.iter().collect::<Vec<_>>()), [0.2]);
    }
}
