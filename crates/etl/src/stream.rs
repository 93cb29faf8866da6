//! Continuous streaming ETL: an incremental join + clustering + sealing
//! state machine ([`EtlStream`]) and the service loop ([`EtlService`]) that
//! tails a Scribe log, lands sealed hourly partitions through the storage
//! writer, and hands each landed partition to a sink (in production wiring,
//! `DppHandle::ingest_partition`).
//!
//! ```text
//! LogTail ──▶ EtlStream ──▶ sealed TablePartition ──▶ TableStore ──▶ sink
//!  (arrival    join on request id (watermark window)    (land as      (recd-dpp
//!   jitter,    + per-session clustering buffers          DWRF files)   ingest)
//!   lateness)  + hour/size sealing
//! ```
//!
//! The batch [`EtlJob`](crate::EtlJob) joins a *finished* log set and lands
//! every hour at once; [`EtlStream`] consumes records one at a time in
//! arrival order, tolerating a bounded amount of out-of-orderness:
//!
//! * **Incremental join.** Feature and event logs pair up on request id the
//!   moment both halves have arrived. Unmatched halves wait in a pending
//!   table bounded by the watermark — never forever.
//! * **Watermark.** `watermark = max_event_time_seen − window_ms`. A record
//!   whose timestamp is older than the watermark is *late*: it is dropped
//!   and counted ([`EtlCounters::late_drops`]), never silently lost.
//!   Pending join halves older than the watermark (plus the seal grace, for
//!   features still awaiting their slightly-later event) are evicted as
//!   *orphaned* — exactly the records the batch join would have reported as
//!   `unmatched_*`. Duplicate detection is watermark-bounded too: a
//!   re-delivered copy of an already-joined record is counted as a
//!   duplicate while its timestamp is inside the window and dropped as late
//!   once the watermark passes it; only a request id re-delivered with a
//!   *fresh, in-window* timestamp after the watermark passed its original
//!   (which the batch join would fold into one row) can join again.
//! * **Rolling clustering buffers.** Joined samples accumulate per hour, per
//!   session. When the watermark passes an hour's end (plus
//!   [`EtlStreamConfig::seal_grace_ms`]) the hour *seals*: its buffers are
//!   laid out exactly like the batch path (`cluster_by_session` or
//!   `interleave_by_time`) and emitted as a [`TablePartition`]. An hour also
//!   seals early when it holds [`EtlStreamConfig::size_watermark`] rows, so
//!   a hot hour cannot buffer unboundedly.
//!
//! For any arrival process that respects the window (no record later than
//! `window_ms`, feature→event delay within `seal_grace_ms`) over a log
//! stream with unique request ids (which production request ids are; with
//! duplicates, this stream keeps the *first* copy where the batch join's
//! hash map keeps the *last*), the sealed partitions are **byte-identical**
//! to the batch `join_logs` →
//! [`HourlyPartitioner`](crate::HourlyPartitioner) → layout output — the
//! deterministic replay tests in `tests/stream.rs` assert this down to the
//! landed DWRF file bytes.

use crate::downsample::DownsamplePolicy;
use crate::partition::TablePartition;
use crate::TableLayout;
use recd_chaos::{ChaosCounters, RetryPolicy};
use recd_codec::hash_ids;
use recd_data::{EventLog, FeatureLog, LogRecord, Sample, Schema, Timestamp};
use recd_scribe::{LogTail, TailEvent};
use recd_storage::{StorageError, StorageReport, StoredPartition, TableStore};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of an [`EtlStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtlStreamConfig {
    /// Row layout of sealed partitions (matches the batch
    /// [`EtlJob`](crate::EtlJob)).
    pub layout: TableLayout,
    /// Out-of-order tolerance: the watermark trails the maximum observed
    /// record timestamp by this much. Records older than the watermark are
    /// dropped as late. Must cover the tail's jitter + lateness bound for a
    /// lossless stream.
    pub window_ms: u64,
    /// How long past an hour's end (in event time) the hour stays open, and
    /// how long a pending feature outlives its timestamp while waiting for
    /// its event. Must be at least the feature→event logging delay bound.
    pub seal_grace_ms: u64,
    /// Seal an open hour early once it buffers this many rows (bounds
    /// memory under hot hours; re-opened hours seal again, producing
    /// multiple partitions for the same hour bucket).
    pub size_watermark: usize,
    /// Optional pre-join downsampling as `(policy, keep_rate, seed)`. Uses
    /// the exact hash predicate of the batch
    /// [`downsample`](crate::downsample) pass, but applied *before* the
    /// join: a dropped record never enters the pending tables or clustering
    /// buffers, so the stream skips all join/buffer work for it. Because
    /// both log halves of a request carry the same session and request ids,
    /// filtering records pre-join keeps exactly the samples a post-join
    /// batch downsample would keep — the sealed output stays byte-identical
    /// to joining, then [`downsample`](crate::downsample())-ing with the same
    /// parameters.
    pub downsample: Option<(DownsamplePolicy, f64, u64)>,
}

impl EtlStreamConfig {
    /// Creates a configuration with the given layout and production-flavored
    /// defaults: a 30s out-of-order window, 1s seal grace, and no size
    /// watermark.
    pub fn new(layout: TableLayout) -> Self {
        Self {
            layout,
            window_ms: 30_000,
            seal_grace_ms: 1_000,
            size_watermark: usize::MAX,
            downsample: None,
        }
    }

    /// Sets the out-of-order window.
    #[must_use]
    pub fn with_window_ms(mut self, window_ms: u64) -> Self {
        self.window_ms = window_ms;
        self
    }

    /// Sets the seal grace.
    #[must_use]
    pub fn with_seal_grace_ms(mut self, seal_grace_ms: u64) -> Self {
        self.seal_grace_ms = seal_grace_ms;
        self
    }

    /// Sets the per-hour row count at which an open hour seals early
    /// (minimum 1).
    #[must_use]
    pub fn with_size_watermark(mut self, rows: usize) -> Self {
        self.size_watermark = rows.max(1);
        self
    }

    /// Enables pre-join streaming downsampling with the given policy,
    /// keep-rate, and seed (same parameters as the batch
    /// [`downsample`](crate::downsample()) pass).
    #[must_use]
    pub fn with_downsample(mut self, policy: DownsamplePolicy, keep_rate: f64, seed: u64) -> Self {
        self.downsample = Some((policy, keep_rate, seed));
        self
    }
}

/// Why a partition sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SealReason {
    /// The watermark passed the hour's end plus the seal grace.
    HourBoundary,
    /// The open hour hit [`EtlStreamConfig::size_watermark`] rows.
    SizeWatermark,
    /// [`EtlStream::finish`] flushed the remaining open hours.
    Finish,
}

/// One sealed partition, ready to land.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedPartition {
    /// The laid-out partition (its `hour` is the hour bucket).
    pub partition: TablePartition,
    /// Why the seal happened.
    pub reason: SealReason,
    /// The watermark at seal time.
    pub watermark_ms: u64,
}

/// Monotonic counters of one [`EtlStream`]'s lifetime. Every pushed record
/// ends up in exactly one bucket, so after [`EtlStream::finish`]:
/// `records == 2 * joined_samples + late_drops + duplicates +
/// orphaned_features + orphaned_events + downsampled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EtlCounters {
    /// Records pushed.
    pub records: u64,
    /// Labeled samples produced by the join (each consumed two records).
    pub joined_samples: u64,
    /// Records dropped because they were older than the watermark.
    pub late_drops: u64,
    /// Records dropped because their request id was already pending on the
    /// same side or already joined (first record wins; the joined-id memory
    /// is watermark-bounded like everything else in the stream).
    pub duplicates: u64,
    /// Feature logs evicted (or left at finish) without a matching event.
    pub orphaned_features: u64,
    /// Event logs evicted (or left at finish) without matching features.
    pub orphaned_events: u64,
    /// Records dropped pre-join by [`EtlStreamConfig::downsample`] (two per
    /// dropped sample: the feature and event halves fail the hash predicate
    /// independently but consistently).
    #[serde(default)]
    pub downsampled: u64,
    /// Partitions sealed.
    pub sealed_partitions: u64,
    /// Rows across sealed partitions.
    pub sealed_rows: u64,
    /// Seals triggered by the watermark passing an hour boundary.
    pub hour_seals: u64,
    /// Seals triggered by the size watermark.
    pub size_seals: u64,
    /// Seals triggered by [`EtlStream::finish`].
    pub finish_seals: u64,
}

/// A point-in-time view of an [`EtlStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EtlSnapshot {
    /// Lifetime counters.
    pub counters: EtlCounters,
    /// Current watermark (ms of event time).
    pub watermark_ms: u64,
    /// Feature logs waiting for their event.
    pub pending_features: usize,
    /// Event logs waiting for their features.
    pub pending_events: usize,
    /// Hours currently open.
    pub open_hours: usize,
    /// Session clustering buffers currently open across all hours.
    pub open_sessions: usize,
    /// Joined rows buffered in open hours.
    pub buffered_rows: usize,
}

/// Final accounting of one streaming ETL run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EtlReport {
    /// Row layout produced.
    pub layout: TableLayout,
    /// Lifetime counters.
    pub counters: EtlCounters,
    /// The watermark when the stream finished.
    pub final_watermark_ms: u64,
}

/// Per-session rolling clustering buffer inside one open hour.
#[derive(Debug, Clone, Default)]
struct SessionBuf {
    rows: Vec<Sample>,
}

/// One open (not yet sealed) hour bucket.
#[derive(Debug, Clone, Default)]
struct OpenHour {
    sessions: HashMap<u64, SessionBuf>,
    rows: usize,
}

impl OpenHour {
    fn insert(&mut self, sample: Sample) {
        self.sessions
            .entry(sample.session_id.raw())
            .or_default()
            .rows
            .push(sample);
        self.rows += 1;
    }
}

/// The incremental join + clustering + sealing state machine. Push records
/// in arrival order; pull sealed partitions with
/// [`EtlStream::drain_sealed`]; call [`EtlStream::finish`] at end of stream
/// to flush everything that remains. A clone is an independent copy that
/// behaves identically record for record.
#[derive(Debug, Clone)]
pub struct EtlStream {
    config: EtlStreamConfig,
    pending_features: HashMap<u64, FeatureLog>,
    pending_events: HashMap<u64, EventLog>,
    /// Request ids already joined, kept (watermark-bounded) to detect
    /// post-join duplicates.
    joined: HashMap<u64, u64>,
    feature_expiry: BinaryHeap<Reverse<(u64, u64)>>,
    event_expiry: BinaryHeap<Reverse<(u64, u64)>>,
    joined_expiry: BinaryHeap<Reverse<(u64, u64)>>,
    open_hours: BTreeMap<u64, OpenHour>,
    sealed: VecDeque<SealedPartition>,
    buffered_rows: usize,
    max_ts: u64,
    watermark: u64,
    counters: EtlCounters,
}

impl EtlStream {
    /// Creates an empty stream.
    pub fn new(config: EtlStreamConfig) -> Self {
        Self {
            config,
            pending_features: HashMap::new(),
            pending_events: HashMap::new(),
            joined: HashMap::new(),
            feature_expiry: BinaryHeap::new(),
            event_expiry: BinaryHeap::new(),
            joined_expiry: BinaryHeap::new(),
            open_hours: BTreeMap::new(),
            sealed: VecDeque::new(),
            buffered_rows: 0,
            max_ts: 0,
            watermark: 0,
            counters: EtlCounters::default(),
        }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &EtlStreamConfig {
        &self.config
    }

    /// The current watermark (event-time ms).
    pub fn watermark_ms(&self) -> u64 {
        self.watermark
    }

    /// Pushes one record in arrival order. Joins, evictions, and seals
    /// happen inline; sealed partitions queue up for
    /// [`EtlStream::drain_sealed`].
    pub fn push(&mut self, record: LogRecord) {
        self.counters.records += 1;
        let ts = record.timestamp().as_millis();
        if ts < self.watermark {
            // Later than the out-of-order window tolerates: counted, never
            // joined (its hour may already be sealed).
            self.counters.late_drops += 1;
            return;
        }
        if !self.admits(&record) {
            // Downsampled out before any join work. The record still
            // advances the watermark: a heavily-downsampled stream must
            // evict and seal at the same event-time cadence as an
            // undownsampled one.
            self.counters.downsampled += 1;
            self.advance_watermark(ts);
            return;
        }
        let request = record.request_id().raw();
        match record {
            LogRecord::Feature(feature) => {
                if self.joined.contains_key(&request)
                    || self.pending_features.contains_key(&request)
                {
                    self.counters.duplicates += 1;
                } else if let Some(event) = self.pending_events.remove(&request) {
                    self.join(feature, &event);
                } else {
                    self.feature_expiry.push(Reverse((ts, request)));
                    self.pending_features.insert(request, feature);
                }
            }
            LogRecord::Event(event) => {
                if self.joined.contains_key(&request) || self.pending_events.contains_key(&request)
                {
                    self.counters.duplicates += 1;
                } else if let Some(feature) = self.pending_features.remove(&request) {
                    self.join(feature, &event);
                } else {
                    self.event_expiry.push(Reverse((ts, request)));
                    self.pending_events.insert(request, event);
                }
            }
        }
        self.advance_watermark(ts);
    }

    /// The batch [`downsample`](crate::downsample) hash predicate, applied
    /// to a raw record before the join. `true` means the record survives.
    fn admits(&self, record: &LogRecord) -> bool {
        let Some((policy, keep_rate, seed)) = self.config.downsample else {
            return true;
        };
        let key = match policy {
            DownsamplePolicy::PerSample => record.request_id().raw(),
            DownsamplePolicy::PerSession => record.session_id().raw(),
        };
        let threshold = (keep_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        hash_ids(&[seed, key]) <= threshold
    }

    /// Advances `max_ts` and the watermark, running evictions and hour
    /// seals when the watermark moves.
    fn advance_watermark(&mut self, ts: u64) {
        if ts > self.max_ts {
            self.max_ts = ts;
            let advanced = ts.saturating_sub(self.config.window_ms);
            if advanced > self.watermark {
                self.watermark = advanced;
                self.evict();
                self.seal_ready_hours();
            }
        }
    }

    /// Takes every partition sealed since the last call, in seal order.
    pub fn drain_sealed(&mut self) -> Vec<SealedPartition> {
        self.sealed.drain(..).collect()
    }

    /// End of stream: every pending join half becomes an orphan and every
    /// open hour seals, in hour order. The stream stays usable (for
    /// counters/snapshots) but holds no more state.
    pub fn finish(&mut self) {
        self.counters.orphaned_features += self.pending_features.len() as u64;
        self.counters.orphaned_events += self.pending_events.len() as u64;
        self.pending_features.clear();
        self.pending_events.clear();
        self.feature_expiry.clear();
        self.event_expiry.clear();
        while let Some((&hour, _)) = self.open_hours.iter().next() {
            let open = self.open_hours.remove(&hour).expect("open hour present");
            self.seal(hour, open, SealReason::Finish);
        }
    }

    /// A point-in-time view of join state, buffers, and counters.
    pub fn snapshot(&self) -> EtlSnapshot {
        EtlSnapshot {
            counters: self.counters,
            watermark_ms: self.watermark,
            pending_features: self.pending_features.len(),
            pending_events: self.pending_events.len(),
            open_hours: self.open_hours.len(),
            open_sessions: self.open_hours.values().map(|h| h.sessions.len()).sum(),
            buffered_rows: self.buffered_rows,
        }
    }

    /// The final accounting (meaningful after [`EtlStream::finish`]).
    pub fn report(&self) -> EtlReport {
        EtlReport {
            layout: self.config.layout,
            counters: self.counters,
            final_watermark_ms: self.watermark,
        }
    }

    fn join(&mut self, feature: FeatureLog, event: &EventLog) {
        let request = feature.request_id.raw();
        let ts = feature.timestamp.as_millis();
        self.joined.insert(request, ts);
        self.joined_expiry.push(Reverse((ts, request)));
        self.counters.joined_samples += 1;
        // The sample keeps the feature log's timestamp (impression time),
        // exactly like the batch join.
        let sample = Sample::builder(feature.session_id, feature.request_id, feature.timestamp)
            .label(event.label)
            .dense(feature.dense)
            .sparse(feature.sparse)
            .build();
        let hour = sample.timestamp.hour_bucket();
        let open = self.open_hours.entry(hour).or_default();
        open.insert(sample);
        self.buffered_rows += 1;
        if open.rows >= self.config.size_watermark {
            let open = self.open_hours.remove(&hour).expect("open hour present");
            self.seal(hour, open, SealReason::SizeWatermark);
        }
    }

    /// Evicts join halves and duplicate-detection entries the watermark has
    /// passed. Features (and joined markers) get the seal grace on top of
    /// their timestamp: their event half may legitimately carry a slightly
    /// later timestamp that is still on time.
    fn evict(&mut self) {
        let watermark = self.watermark;
        let grace = self.config.seal_grace_ms;
        while let Some(&Reverse((ts, request))) = self.feature_expiry.peek() {
            if ts.saturating_add(grace) >= watermark {
                break;
            }
            self.feature_expiry.pop();
            if self.pending_features.remove(&request).is_some() {
                self.counters.orphaned_features += 1;
            }
        }
        while let Some(&Reverse((ts, request))) = self.event_expiry.peek() {
            if ts >= watermark {
                break;
            }
            self.event_expiry.pop();
            if self.pending_events.remove(&request).is_some() {
                self.counters.orphaned_events += 1;
            }
        }
        while let Some(&Reverse((ts, request))) = self.joined_expiry.peek() {
            if ts.saturating_add(grace) >= watermark {
                break;
            }
            self.joined_expiry.pop();
            self.joined.remove(&request);
        }
    }

    /// Seals every open hour the watermark has fully passed (hour end plus
    /// seal grace), in hour order.
    fn seal_ready_hours(&mut self) {
        while let Some((&hour, _)) = self.open_hours.iter().next() {
            let hour_end = (hour + 1) * Timestamp::MILLIS_PER_HOUR;
            if self.watermark < hour_end.saturating_add(self.config.seal_grace_ms) {
                break;
            }
            let open = self.open_hours.remove(&hour).expect("open hour present");
            self.seal(hour, open, SealReason::HourBoundary);
        }
    }

    /// Lays out one hour's buffers and queues the sealed partition. Final
    /// ordering is delegated to the *same* in-place layout the batch path
    /// runs (the one behind [`cluster_by_session`](crate::cluster_by_session)
    /// / [`interleave_by_time`](crate::interleave_by_time)), so the two paths
    /// cannot drift apart; the per-session buffers feed it a session-grouped
    /// collection order, and the rows are moved, never copied.
    fn seal(&mut self, hour: u64, open: OpenHour, reason: SealReason) {
        let mut samples = Vec::with_capacity(open.rows);
        for buf in open.sessions.into_values() {
            samples.extend(buf.rows);
        }
        self.config.layout.lay_out(&mut samples);
        self.buffered_rows -= samples.len();
        self.counters.sealed_partitions += 1;
        self.counters.sealed_rows += samples.len() as u64;
        match reason {
            SealReason::HourBoundary => self.counters.hour_seals += 1,
            SealReason::SizeWatermark => self.counters.size_seals += 1,
            SealReason::Finish => self.counters.finish_seals += 1,
        }
        self.sealed.push_back(SealedPartition {
            partition: TablePartition { hour, samples },
            reason,
            watermark_ms: self.watermark,
        });
    }
}

/// A manually advanced clock for driving an [`EtlService`] deterministically:
/// the test (or CLI pacing loop), not a wall clock, decides how far the
/// simulated tail has progressed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManualClock {
    now_ms: u64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the clock and returns the new time.
    pub fn advance(&mut self, ms: u64) -> u64 {
        self.now_ms += ms;
        self.now_ms
    }
}

/// Live gauges of a running [`EtlService`], shareable with a monitoring
/// thread (the ETL analog of the DPP service's snapshot source).
#[derive(Debug, Default)]
pub struct EtlGauges {
    /// Tail events consumed.
    pub records_tailed: AtomicU64,
    /// Samples joined.
    pub joined_samples: AtomicU64,
    /// Late records dropped.
    pub late_drops: AtomicU64,
    /// Duplicate records dropped.
    pub duplicates: AtomicU64,
    /// Orphaned join halves evicted.
    pub orphaned: AtomicU64,
    /// Hours currently open.
    pub open_hours: AtomicU64,
    /// Session clustering buffers currently open.
    pub open_sessions: AtomicU64,
    /// Rows buffered in open hours.
    pub buffered_rows: AtomicU64,
    /// Partitions sealed.
    pub sealed_partitions: AtomicU64,
    /// Partitions landed into the table store.
    pub landed_partitions: AtomicU64,
    /// Current watermark (event-time ms).
    pub watermark_ms: AtomicU64,
    /// How far the sealed frontier trails the tail clock (ms).
    pub tail_lag_ms: AtomicU64,
    /// Tail events not yet arrived.
    pub tail_remaining: AtomicU64,
}

impl recd_obs::Collector for EtlGauges {
    fn collect(&self, out: &mut recd_obs::MetricsBuf) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        out.counter(
            "recd_etl_records_tailed_total",
            "Tail events consumed from the log stream.",
            &[],
            load(&self.records_tailed),
        );
        out.counter(
            "recd_etl_joined_samples_total",
            "Samples produced by the streaming join.",
            &[],
            load(&self.joined_samples),
        );
        out.counter(
            "recd_etl_late_drops_total",
            "Late records dropped past the watermark.",
            &[],
            load(&self.late_drops),
        );
        out.counter(
            "recd_etl_duplicates_total",
            "Duplicate records dropped by the join.",
            &[],
            load(&self.duplicates),
        );
        out.counter(
            "recd_etl_orphaned_total",
            "Orphaned join halves evicted unmatched.",
            &[],
            load(&self.orphaned),
        );
        out.gauge(
            "recd_etl_open_hours",
            "Hourly partitions currently accumulating rows.",
            &[],
            load(&self.open_hours),
        );
        out.gauge(
            "recd_etl_open_sessions",
            "Session clustering buffers currently open.",
            &[],
            load(&self.open_sessions),
        );
        out.gauge(
            "recd_etl_buffered_rows",
            "Rows buffered in open hours, not yet sealed.",
            &[],
            load(&self.buffered_rows),
        );
        out.counter(
            "recd_etl_sealed_partitions_total",
            "Hourly partitions sealed by the watermark.",
            &[],
            load(&self.sealed_partitions),
        );
        out.counter(
            "recd_etl_landed_partitions_total",
            "Sealed partitions landed into the table store.",
            &[],
            load(&self.landed_partitions),
        );
        out.gauge(
            "recd_etl_watermark_ms",
            "Current event-time watermark in milliseconds.",
            &[],
            load(&self.watermark_ms),
        );
        out.gauge(
            "recd_etl_tail_lag_ms",
            "How far the sealed frontier trails the tail clock (ms).",
            &[],
            load(&self.tail_lag_ms),
        );
        out.gauge(
            "recd_etl_tail_remaining",
            "Tail events not yet arrived from the log stream.",
            &[],
            load(&self.tail_remaining),
        );
    }
}

/// Final accounting of one [`EtlService`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EtlServiceReport {
    /// Stream-level join/seal accounting.
    pub etl: EtlReport,
    /// Storage accounting across every landed partition.
    pub storage: StorageReport,
    /// Partitions landed.
    pub landed_partitions: u64,
    /// Peak observed tail lag (pump clock minus watermark, ms).
    pub peak_tail_lag_ms: u64,
}

/// Everything a finished [`EtlService`] run produced.
#[derive(Debug)]
pub struct EtlServiceOutput {
    /// Every landed partition, in land order.
    pub landed: Vec<StoredPartition>,
    /// Final accounting.
    pub report: EtlServiceReport,
}

/// An [`EtlService`]'s state minus its unconsumed tail events: everything a
/// crashed service resumes from. [`EtlService::checkpoint`] takes it at a
/// pump boundary, where every sealed partition has landed, so the window of
/// work in flight is empty: [`EtlService::resume_from`] re-tails from the
/// cursor and replays the pure `push` state machine, whose output is a
/// function of consumed-event order alone. The resumed run's landed bytes —
/// and the trainer-batch union downstream — are byte-identical to an
/// uninterrupted run's, which `crates/pipeline/tests/chaos.rs` asserts end
/// to end.
///
/// The stream and the landing record are deep copies; the store, the live
/// gauges and the chaos counters are shared, so a resumed service keeps
/// publishing to the series a metrics registry already scrapes.
#[derive(Debug, Clone)]
pub struct EtlCheckpoint {
    /// Events consumed since the tail's start — [`LogTail::cursor`] of the
    /// tail the service took over.
    tail_cursor: usize,
    stream: EtlStream,
    store: Arc<TableStore>,
    schema: Schema,
    table: String,
    /// Seals per hour: a re-sealed hour lands under a `-r<N>` suffix.
    hour_seal_counts: HashMap<u64, u64>,
    landed: Vec<StoredPartition>,
    storage: StorageReport,
    gauges: Arc<EtlGauges>,
    peak_tail_lag_ms: u64,
    /// When set, partitions land through the fallible
    /// [`TableStore::try_store_prepared`] path wrapped in this retry policy,
    /// so injected transient storage faults degrade to a short backoff.
    chaos: Option<(RetryPolicy, Arc<ChaosCounters>)>,
}

impl EtlCheckpoint {
    /// Tail events the service had consumed when the checkpoint was taken.
    pub fn tail_cursor(&self) -> usize {
        self.tail_cursor
    }
}

/// The continuous ETL service loop: tails a [`LogTail`], pushes arrivals
/// through an [`EtlStream`], lands every sealed partition through the
/// [`TableStore`] writer, and hands each landed partition to the caller's
/// sink — which, in the continuous pipeline, is
/// `DppHandle::ingest_partition`.
#[derive(Debug)]
pub struct EtlService {
    /// The tail's unconsumed events, owned: a record is moved into the
    /// stream, never cloned out of a borrowed tail.
    events: std::vec::IntoIter<TailEvent>,
    /// Arrival time of the tail's final event.
    tail_end_ms: u64,
    state: EtlCheckpoint,
}

impl EtlService {
    /// Creates a service tailing `tail` into `table` of the given store. The
    /// service takes the tail's remaining events for itself; to replay the
    /// stream later, keep a clone of the tail.
    pub fn new(
        tail: LogTail,
        config: EtlStreamConfig,
        store: Arc<TableStore>,
        schema: Schema,
        table: impl Into<String>,
    ) -> Self {
        let state = EtlCheckpoint {
            tail_cursor: tail.cursor(),
            stream: EtlStream::new(config),
            store,
            schema,
            table: table.into(),
            hour_seal_counts: HashMap::new(),
            landed: Vec::new(),
            storage: StorageReport::default(),
            gauges: Arc::new(EtlGauges::default()),
            peak_tail_lag_ms: 0,
            chaos: None,
        };
        Self::resume_from(tail, state)
    }

    /// Rebuilds a mid-stream service from an [`EtlCheckpoint`]. `tail` must
    /// be built from the *same* records and [`TailConfig`] as the original
    /// run (the tail is a pure function of both); it is rewound to the
    /// checkpoint's cursor, so pumping resumes exactly where the
    /// checkpointed service stopped. Because sealed-partition landing is
    /// idempotent (deterministic bytes at deterministic paths), the resumed
    /// run's landed output is byte-identical to an uninterrupted run.
    ///
    /// [`TailConfig`]: recd_scribe::TailConfig
    pub fn resume_from(mut tail: LogTail, checkpoint: EtlCheckpoint) -> Self {
        tail.rewind_to(checkpoint.tail_cursor);
        Self {
            tail_end_ms: tail.end_ms(),
            events: tail.into_remaining(),
            state: checkpoint,
        }
    }

    /// Routes partition landing through the fallible storage path with the
    /// given bounded-retry policy, recording retries and backoff into
    /// `counters`. Without this, landing uses the infallible path and never
    /// consumes injected fault budgets.
    #[must_use]
    pub fn with_chaos_retry(mut self, policy: RetryPolicy, counters: Arc<ChaosCounters>) -> Self {
        self.state.chaos = Some((policy, counters));
        self
    }

    /// Copies the service's state at a pump boundary (see
    /// [`EtlCheckpoint`]). The sealed queue is drained by every pump, so a
    /// [`EtlService::resume_from`] replay converges to the uninterrupted
    /// run's exact output.
    pub fn checkpoint(&self) -> EtlCheckpoint {
        self.state.clone()
    }

    /// Shared live gauges — hand a clone to a monitoring thread.
    pub fn gauges(&self) -> Arc<EtlGauges> {
        Arc::clone(&self.state.gauges)
    }

    /// Returns true once every tail event has been consumed.
    pub fn tail_drained(&self) -> bool {
        self.events.len() == 0
    }

    /// A point-in-time view of the underlying stream.
    pub fn snapshot(&self) -> EtlSnapshot {
        self.state.stream.snapshot()
    }

    /// Consumes every tail event that has arrived by `now_ms`, lands any
    /// partitions that sealed, and hands each landed partition to `sink`.
    /// Returns the number of partitions landed by this pump.
    pub fn pump<F>(&mut self, now_ms: u64, sink: &mut F) -> usize
    where
        F: FnMut(&StoredPartition, &TablePartition),
    {
        // Events are in arrival order, so the due ones are a prefix.
        let due = self
            .events
            .as_slice()
            .partition_point(|event| event.arrival_ms <= now_ms);
        for event in self.events.by_ref().take(due) {
            self.state.stream.push(event.record);
        }
        self.state.tail_cursor += due;
        let landed = self.land_sealed(sink);
        self.publish_gauges(now_ms);
        landed
    }

    /// Drains the rest of the tail regardless of clock, finishes the
    /// stream (flushing every open hour), lands the final seals, and
    /// returns the run's output.
    pub fn finish<F>(mut self, sink: &mut F) -> EtlServiceOutput
    where
        F: FnMut(&StoredPartition, &TablePartition),
    {
        for event in self.events.by_ref() {
            self.state.stream.push(event.record);
        }
        self.state.stream.finish();
        self.land_sealed(sink);
        self.publish_gauges(self.tail_end_ms);
        let state = self.state;
        let report = EtlServiceReport {
            etl: state.stream.report(),
            storage: state.storage,
            landed_partitions: state.landed.len() as u64,
            peak_tail_lag_ms: state.peak_tail_lag_ms,
        };
        EtlServiceOutput {
            landed: state.landed,
            report,
        }
    }

    /// Convenience driver: pumps the clock forward in `step_ms` increments
    /// until the tail drains, then finishes. Equivalent to an external loop
    /// over [`EtlService::pump`] + [`EtlService::finish`].
    pub fn run<F>(mut self, mut clock: ManualClock, step_ms: u64, sink: &mut F) -> EtlServiceOutput
    where
        F: FnMut(&StoredPartition, &TablePartition),
    {
        let step = step_ms.max(1);
        while !self.tail_drained() {
            let now = clock.advance(step);
            self.pump(now, sink);
        }
        self.finish(sink)
    }

    /// Lands every partition the stream sealed since the last call. A
    /// re-sealed hour (size watermark) lands under a `-r<N>` table suffix so
    /// its files never collide with the hour's first seal.
    fn land_sealed<F>(&mut self, sink: &mut F) -> usize
    where
        F: FnMut(&StoredPartition, &TablePartition),
    {
        let state = &mut self.state;
        let mut landed = 0usize;
        for sealed in state.stream.drain_sealed() {
            let hour = sealed.partition.hour;
            let seal_idx = state.hour_seal_counts.entry(hour).or_insert(0);
            let table = if *seal_idx == 0 {
                state.table.clone()
            } else {
                format!("{}-r{}", state.table, seal_idx)
            };
            *seal_idx += 1;
            let samples = &sealed.partition.samples;
            let store = &state.store;
            let (stored, report) = match &state.chaos {
                Some((policy, counters)) => {
                    // Serialize once; every backoff attempt re-tries only
                    // the puts, sharing the prepared blobs instead of
                    // re-encoding the partition.
                    let prepared = store.prepare_partition(&state.schema, &table, hour, samples);
                    policy
                        .run(Some(counters), StorageError::is_transient, || {
                            store.try_store_prepared(&prepared)
                        })
                        .unwrap_or_else(|_| {
                            // Retry budget exhausted: fall through to the
                            // infallible landing path (fault budgets never
                            // apply to `put`) so a sealed partition cannot be
                            // lost. The exhaustion is already counted.
                            // Landing is idempotent either way —
                            // deterministic bytes at deterministic paths.
                            store.store_prepared(&prepared)
                        })
                }
                None => store.land_partition(&state.schema, &table, hour, samples),
            };
            state.storage.absorb(&report);
            sink(&stored, &sealed.partition);
            state.landed.push(stored);
            landed += 1;
        }
        landed
    }

    fn publish_gauges(&mut self, now_ms: u64) {
        let state = &mut self.state;
        let snap = state.stream.snapshot();
        let gauges = &state.gauges;
        gauges
            .records_tailed
            .store(snap.counters.records, Ordering::Relaxed);
        gauges
            .joined_samples
            .store(snap.counters.joined_samples, Ordering::Relaxed);
        gauges
            .late_drops
            .store(snap.counters.late_drops, Ordering::Relaxed);
        gauges
            .duplicates
            .store(snap.counters.duplicates, Ordering::Relaxed);
        gauges.orphaned.store(
            snap.counters.orphaned_features + snap.counters.orphaned_events,
            Ordering::Relaxed,
        );
        gauges
            .open_hours
            .store(snap.open_hours as u64, Ordering::Relaxed);
        gauges
            .open_sessions
            .store(snap.open_sessions as u64, Ordering::Relaxed);
        gauges
            .buffered_rows
            .store(snap.buffered_rows as u64, Ordering::Relaxed);
        gauges
            .sealed_partitions
            .store(snap.counters.sealed_partitions, Ordering::Relaxed);
        gauges
            .landed_partitions
            .store(state.landed.len() as u64, Ordering::Relaxed);
        gauges
            .watermark_ms
            .store(snap.watermark_ms, Ordering::Relaxed);
        let lag = if snap.counters.records > 0 {
            now_ms.saturating_sub(snap.watermark_ms)
        } else {
            0
        };
        gauges.tail_lag_ms.store(lag, Ordering::Relaxed);
        gauges
            .tail_remaining
            .store(self.events.len() as u64, Ordering::Relaxed);
        state.peak_tail_lag_ms = state.peak_tail_lag_ms.max(lag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::{RequestId, SessionId};

    fn feature(request: u64, session: u64, ts: u64) -> LogRecord {
        LogRecord::Feature(FeatureLog {
            request_id: RequestId::new(request),
            session_id: SessionId::new(session),
            timestamp: Timestamp::from_millis(ts),
            dense: vec![ts as f32],
            sparse: vec![vec![request]],
        })
    }

    fn event(request: u64, session: u64, ts: u64, label: f32) -> LogRecord {
        LogRecord::Event(EventLog {
            request_id: RequestId::new(request),
            session_id: SessionId::new(session),
            timestamp: Timestamp::from_millis(ts),
            label,
        })
    }

    fn config() -> EtlStreamConfig {
        EtlStreamConfig::new(TableLayout::ClusteredBySession)
            .with_window_ms(5_000)
            .with_seal_grace_ms(1_000)
    }

    #[test]
    fn out_of_order_pair_joins_within_the_window() {
        let mut stream = EtlStream::new(config());
        // Event arrives before its feature — still joins.
        stream.push(event(1, 10, 1_500, 1.0));
        stream.push(feature(1, 10, 1_000));
        stream.finish();
        let sealed = stream.drain_sealed();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].partition.samples.len(), 1);
        assert_eq!(sealed[0].partition.samples[0].label, 1.0);
        assert_eq!(sealed[0].reason, SealReason::Finish);
        let c = stream.report().counters;
        assert_eq!(c.joined_samples, 1);
        assert_eq!(c.records, 2);
    }

    #[test]
    fn watermark_seals_an_hour_and_drops_late_records() {
        const HOUR: u64 = Timestamp::MILLIS_PER_HOUR;
        let mut stream = EtlStream::new(config());
        stream.push(feature(1, 10, 100));
        stream.push(event(1, 10, 600, 1.0));
        // A record far in the future pushes the watermark past hour 0's end
        // plus grace: hour 0 seals.
        stream.push(feature(2, 11, HOUR + 10_000));
        let sealed = stream.drain_sealed();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].partition.hour, 0);
        assert_eq!(sealed[0].reason, SealReason::HourBoundary);
        // Anything older than the watermark is now late.
        stream.push(event(3, 10, 200, 0.0));
        assert_eq!(stream.report().counters.late_drops, 1);
        stream.finish();
        // The pending hour-1 feature never saw its event.
        assert_eq!(stream.report().counters.orphaned_features, 1);
    }

    #[test]
    fn size_watermark_seals_early_and_the_hour_reopens() {
        let mut stream = EtlStream::new(config().with_size_watermark(2));
        for request in 0..5u64 {
            stream.push(feature(request, request % 2, 1_000 + request));
            stream.push(event(request, request % 2, 1_500 + request, 0.0));
        }
        stream.finish();
        let sealed = stream.drain_sealed();
        // 5 rows at size watermark 2: two size seals plus the finish seal.
        assert_eq!(sealed.len(), 3);
        assert_eq!(
            sealed
                .iter()
                .map(|s| s.partition.samples.len())
                .sum::<usize>(),
            5
        );
        assert!(sealed[..2]
            .iter()
            .all(|s| s.reason == SealReason::SizeWatermark));
        assert_eq!(stream.report().counters.size_seals, 2);
        assert_eq!(stream.report().counters.finish_seals, 1);
    }

    #[test]
    fn duplicates_are_counted_and_never_double_joined() {
        let mut stream = EtlStream::new(config());
        stream.push(feature(1, 10, 1_000));
        stream.push(feature(1, 10, 1_100)); // duplicate feature
        stream.push(event(1, 10, 1_500, 1.0));
        stream.push(event(1, 10, 1_600, 0.0)); // duplicate after join
        stream.finish();
        let c = stream.report().counters;
        assert_eq!(c.joined_samples, 1);
        assert_eq!(c.duplicates, 2);
        let sealed = stream.drain_sealed();
        assert_eq!(sealed[0].partition.samples.len(), 1);
        assert_eq!(sealed[0].partition.samples[0].label, 1.0);
    }

    #[test]
    fn every_record_is_accounted_for() {
        let mut stream = EtlStream::new(config());
        stream.push(feature(1, 1, 1_000));
        stream.push(event(1, 1, 1_500, 1.0));
        stream.push(feature(2, 1, 2_000)); // orphaned feature
        stream.push(event(3, 2, 2_500, 0.0)); // orphaned event
        stream.push(feature(1, 1, 1_000)); // duplicate
        stream.push(feature(9, 3, 100_000)); // advances watermark far ahead
        stream.push(event(4, 2, 10, 0.0)); // late
        stream.finish();
        let c = stream.report().counters;
        assert_eq!(
            c.records,
            2 * c.joined_samples
                + c.late_drops
                + c.duplicates
                + c.orphaned_features
                + c.orphaned_events
                + c.downsampled
        );
    }

    /// Runs `service` to completion in 500 ms pumps and returns every landed
    /// blob as `(path, bytes)`.
    fn landed_bytes(service: EtlService, store: &TableStore) -> Vec<(String, Vec<u8>)> {
        let output = service.run(ManualClock::new(), 500, &mut |_, _| {});
        let paths = output.landed.iter().flat_map(|p| p.files.iter());
        paths
            .map(|path| {
                let blob = store.blob_store().get(path).expect("landed blob present");
                (path.clone(), blob.to_vec())
            })
            .collect()
    }

    #[test]
    fn a_service_owns_a_copy_of_its_tail_and_resumes_from_a_fresh_one() {
        use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
        use recd_scribe::TailConfig;
        use recd_storage::TectonicSim;

        let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let (records, _) = generator.generate_logs();
        let schema = generator.schema().clone();
        let tail = LogTail::new(records, &TailConfig::default().with_seed(3));
        let config = EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(10_000);
        let store = || Arc::new(TableStore::new(TectonicSim::new(2), 32, 2));
        let service = |tail: LogTail, store: &Arc<TableStore>| {
            EtlService::new(tail, config, Arc::clone(store), schema.clone(), "t")
        };

        // Two services fed clones land the same bytes, and the tail they
        // were cloned from has not moved.
        let reference_store = store();
        let reference = landed_bytes(service(tail.clone(), &reference_store), &reference_store);
        assert!(!reference.is_empty());
        let replay_store = store();
        let replayed = landed_bytes(service(tail.clone(), &replay_store), &replay_store);
        assert_eq!(replayed, reference);
        assert_eq!((tail.cursor(), tail.remaining()), (0, tail.len()));

        // Crash mid-stream; resume from the checkpoint over a fresh tail.
        let crash_store = store();
        let mut crashing = service(tail.clone(), &crash_store);
        crashing.pump(tail.end_ms() / 2, &mut |_, _| {});
        let checkpoint = crashing.checkpoint();
        let cursor = checkpoint.tail_cursor();
        assert!(0 < cursor && cursor < tail.len());
        assert!(!crashing.tail_drained());
        assert_eq!(
            crashing.gauges().tail_remaining.load(Ordering::Relaxed) as usize,
            tail.len() - cursor
        );
        drop(crashing);
        let resumed = EtlService::resume_from(tail.clone(), checkpoint);
        assert_eq!(resumed.checkpoint().tail_cursor(), cursor);
        assert_eq!(landed_bytes(resumed, &crash_store), reference);
    }

    #[test]
    fn streaming_downsample_matches_the_batch_predicate_byte_for_byte() {
        // 40 sessions x 4 samples, in-window arrival order.
        let mut records = Vec::new();
        let mut request = 0u64;
        for session in 0..40u64 {
            for i in 0..4u64 {
                let ts = 1_000 + request * 3 + i;
                records.push(feature(request, session, ts));
                records.push(event(request, session, ts + 1, (i % 2) as f32));
                request += 1;
            }
        }
        for policy in [DownsamplePolicy::PerSample, DownsamplePolicy::PerSession] {
            let (keep_rate, seed) = (0.5, 9);
            let mut stream = EtlStream::new(
                EtlStreamConfig::new(TableLayout::ClusteredBySession)
                    .with_window_ms(1_000_000)
                    .with_downsample(policy, keep_rate, seed),
            );
            for record in &records {
                stream.push(record.clone());
            }
            stream.finish();
            let streamed: Vec<Sample> = stream
                .drain_sealed()
                .into_iter()
                .flat_map(|s| s.partition.samples)
                .collect();

            // Batch path: full join, then the post-join downsample pass,
            // then the same layout.
            let joined = crate::join_logs(&records).samples;
            let kept = crate::downsample(&joined, policy, keep_rate, seed);
            let batch = crate::cluster_by_session(&kept);
            assert_eq!(streamed, batch, "{policy:?} diverged from batch");

            let c = stream.report().counters;
            assert!(c.downsampled > 0, "{policy:?} dropped nothing");
            assert_eq!(c.downsampled, records.len() as u64 - 2 * c.joined_samples);
            assert_eq!(
                c.records,
                2 * c.joined_samples
                    + c.late_drops
                    + c.duplicates
                    + c.orphaned_features
                    + c.orphaned_events
                    + c.downsampled
            );
        }
    }
}
