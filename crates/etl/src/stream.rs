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
//!   [`SEAL_GRACE_MS`]) the hour *seals*: its buffers are
//!   laid out exactly like the batch path (`cluster_by_session` or
//!   `interleave_by_time`) and emitted as a [`TablePartition`]. An hour also
//!   seals early when it holds [`EtlStreamConfig::size_watermark`] rows, so
//!   a hot hour cannot buffer unboundedly.
//!
//! For any arrival process that respects the window (no record later than
//! `window_ms`, feature→event delay within [`SEAL_GRACE_MS`]) over a log
//! stream with unique request ids (which production request ids are; with
//! duplicates, this stream keeps the *first* copy where the batch join's
//! hash map keeps the *last*), the sealed partitions are **byte-identical**
//! to the batch `join_logs` →
//! [`HourlyPartitioner`](crate::HourlyPartitioner) → layout output — the
//! deterministic replay tests in `tests/stream.rs` assert this down to the
//! landed DWRF file bytes.

use crate::partition::TablePartition;
use crate::TableLayout;
use recd_chaos::{ChaosCounters, RetryPolicy};
use recd_data::{EventLog, FeatureLog, LogRecord, Sample, Schema, Timestamp};
use recd_scribe::{LogTail, TailEvent};
use recd_storage::{StorageError, StorageReport, StoredPartition, TableStore};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How long past an hour's end (in event time) the hour stays open, and how
/// long a pending feature outlives its timestamp while waiting for its
/// event. Must be at least the feature→event logging delay bound.
pub const SEAL_GRACE_MS: u64 = 1_000;

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
    /// Seal an open hour early once it buffers this many rows (bounds
    /// memory under hot hours; re-opened hours seal again, producing
    /// multiple partitions for the same hour bucket).
    pub size_watermark: usize,
}

impl EtlStreamConfig {
    /// Creates a configuration with the given layout and production-flavored
    /// defaults: a 30s out-of-order window and no size watermark.
    pub fn new(layout: TableLayout) -> Self {
        Self {
            layout,
            window_ms: 30_000,
            size_watermark: usize::MAX,
        }
    }

    /// Sets the out-of-order window.
    #[must_use]
    pub fn with_window_ms(mut self, window_ms: u64) -> Self {
        self.window_ms = window_ms;
        self
    }

    /// Sets the per-hour row count at which an open hour seals early
    /// (minimum 1).
    #[must_use]
    pub fn with_size_watermark(mut self, rows: usize) -> Self {
        self.size_watermark = rows.max(1);
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
}

/// Monotonic counters of one [`EtlStream`]'s lifetime. Every pushed record
/// is in exactly one bucket at any time: joined (two per sample), dropped
/// late or as a duplicate, orphaned, or still pending in the join — the
/// identities [`EtlServiceReport::check`] holds the service to.
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

/// The account of an [`EtlStream`] at one point in time: its lifetime
/// counters plus the join and clustering state still buffered. A read
/// mid-stream and the final account after [`EtlStream::finish`] are this
/// one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EtlReport {
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
    /// open hour seals, in hour order. The stream stays usable (for its
    /// report) but holds no more state.
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

    /// The account as of now: counters, join state and buffers.
    pub fn report(&self) -> EtlReport {
        EtlReport {
            counters: self.counters,
            watermark_ms: self.watermark,
            pending_features: self.pending_features.len(),
            pending_events: self.pending_events.len(),
            open_hours: self.open_hours.len(),
            open_sessions: self.open_hours.values().map(|h| h.sessions.len()).sum(),
            buffered_rows: self.buffered_rows,
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
        while let Some(&Reverse((ts, request))) = self.feature_expiry.peek() {
            if ts.saturating_add(SEAL_GRACE_MS) >= watermark {
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
            if ts.saturating_add(SEAL_GRACE_MS) >= watermark {
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
            if self.watermark < hour_end.saturating_add(SEAL_GRACE_MS) {
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

/// The one account of an [`EtlService`]: the stream's report plus what
/// landing and the tail clock add. Every pump rebuilds it, so a read
/// mid-run, the `recd_etl_*` families `/metrics` renders, and
/// [`EtlService::finish`]'s result are this one record.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EtlServiceReport {
    /// Stream-level join/seal accounting.
    pub etl: EtlReport,
    /// Storage accounting across every landed partition.
    pub storage: StorageReport,
    /// Partitions landed.
    pub landed_partitions: u64,
    /// Peak observed tail lag (pump clock minus watermark, ms).
    pub peak_tail_lag_ms: u64,
    /// How far the sealed frontier trails the tail clock at the last pump
    /// (ms; 0 before the first record).
    pub tail_lag_ms: u64,
    /// Tail events not yet arrived at the last pump.
    pub tail_remaining: u64,
}

/// A conservation identity an [`EtlServiceReport`] broke: its name and the
/// values of its two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationError {
    /// The identity, as `left == right` over the report's field names.
    pub identity: &'static str,
    /// The left side's value.
    pub left: u64,
    /// The right side's value.
    pub right: u64,
}

impl std::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ETL conservation broken: {} ({} != {})",
            self.identity, self.left, self.right
        )
    }
}

impl std::error::Error for ConservationError {}

impl EtlServiceReport {
    /// Checks that every record and row is accounted for exactly once. It
    /// holds at every pump boundary and after [`EtlService::finish`] —
    /// where partitions have landed as fast as they sealed — and returns
    /// the first identity that does not.
    pub fn check(&self) -> Result<(), ConservationError> {
        let (etl, c) = (&self.etl, &self.etl.counters);
        let identities = [
            (
                "records == 2 * joined_samples + late_drops + duplicates + orphaned_features \
                 + orphaned_events + pending_features + pending_events",
                c.records,
                2 * c.joined_samples
                    + c.late_drops
                    + c.duplicates
                    + c.orphaned_features
                    + c.orphaned_events
                    + etl.pending_features as u64
                    + etl.pending_events as u64,
            ),
            (
                "joined_samples == sealed_rows + buffered_rows",
                c.joined_samples,
                c.sealed_rows + etl.buffered_rows as u64,
            ),
            (
                "hour_seals + size_seals + finish_seals == sealed_partitions",
                c.hour_seals + c.size_seals + c.finish_seals,
                c.sealed_partitions,
            ),
            (
                "landed_partitions == sealed_partitions",
                self.landed_partitions,
                c.sealed_partitions,
            ),
        ];
        let broken = identities
            .into_iter()
            .find(|&(_, left, right)| left != right);
        broken.map_or(Ok(()), |(identity, left, right)| {
            Err(ConservationError {
                identity,
                left,
                right,
            })
        })
    }
}

/// The shared cell holding an [`EtlService`]'s [`EtlServiceReport`] as of
/// its last pump. A checkpoint shares it, so a resumed service keeps
/// publishing to the series a metrics registry already scrapes; a
/// monitoring thread reads it with [`EtlReportCell::get`].
#[derive(Debug, Default)]
pub struct EtlReportCell(Mutex<EtlServiceReport>);

impl EtlReportCell {
    /// The report the last pump published.
    pub fn get(&self) -> EtlServiceReport {
        self.lock().clone()
    }

    fn set(&self, report: &EtlServiceReport) {
        self.lock().clone_from(report);
    }

    /// Every write is one whole-record copy, so even a poisoned lock holds
    /// a valid report.
    fn lock(&self) -> MutexGuard<'_, EtlServiceReport> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl recd_obs::Collector for EtlReportCell {
    fn collect(&self, out: &mut recd_obs::MetricsBuf) {
        let r = self.get();
        let (etl, c) = (&r.etl, &r.etl.counters);
        out.counter(
            "recd_etl_records_tailed_total",
            "Tail events consumed from the log stream.",
            &[],
            c.records as f64,
        );
        out.counter(
            "recd_etl_joined_samples_total",
            "Samples produced by the streaming join.",
            &[],
            c.joined_samples as f64,
        );
        out.counter(
            "recd_etl_late_drops_total",
            "Late records dropped past the watermark.",
            &[],
            c.late_drops as f64,
        );
        out.counter(
            "recd_etl_duplicates_total",
            "Duplicate records dropped by the join.",
            &[],
            c.duplicates as f64,
        );
        out.counter(
            "recd_etl_orphaned_total",
            "Orphaned join halves evicted unmatched.",
            &[],
            (c.orphaned_features + c.orphaned_events) as f64,
        );
        out.gauge(
            "recd_etl_open_hours",
            "Hourly partitions currently accumulating rows.",
            &[],
            etl.open_hours as f64,
        );
        out.gauge(
            "recd_etl_open_sessions",
            "Session clustering buffers currently open.",
            &[],
            etl.open_sessions as f64,
        );
        out.gauge(
            "recd_etl_buffered_rows",
            "Rows buffered in open hours, not yet sealed.",
            &[],
            etl.buffered_rows as f64,
        );
        out.counter(
            "recd_etl_sealed_partitions_total",
            "Hourly partitions sealed by the watermark.",
            &[],
            c.sealed_partitions as f64,
        );
        out.counter(
            "recd_etl_landed_partitions_total",
            "Sealed partitions landed into the table store.",
            &[],
            r.landed_partitions as f64,
        );
        out.gauge(
            "recd_etl_watermark_ms",
            "Current event-time watermark in milliseconds.",
            &[],
            etl.watermark_ms as f64,
        );
        out.gauge(
            "recd_etl_tail_lag_ms",
            "How far the sealed frontier trails the tail clock (ms).",
            &[],
            r.tail_lag_ms as f64,
        );
        out.gauge(
            "recd_etl_tail_remaining",
            "Tail events not yet arrived from the log stream.",
            &[],
            r.tail_remaining as f64,
        );
    }
}

/// What [`EtlService::finish`] returns.
#[derive(Debug)]
pub struct EtlServiceOutput {
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
/// The stream and the report are deep copies; the store, the report cell
/// and the chaos counters are shared, so a resumed service keeps
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
    /// The service's account as of its last pump.
    report: EtlServiceReport,
    /// Where each pump publishes `report`.
    cell: Arc<EtlReportCell>,
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
            report: EtlServiceReport::default(),
            cell: Arc::default(),
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

    /// The shared cell each pump publishes the report to — register it
    /// with a metrics registry, or hand it to a monitoring thread.
    pub fn report_cell(&self) -> Arc<EtlReportCell> {
        Arc::clone(&self.state.cell)
    }

    /// Returns true once every tail event has been consumed.
    pub fn tail_drained(&self) -> bool {
        self.events.len() == 0
    }

    /// The service's account as of its last pump (or its checkpoint's).
    pub fn report(&self) -> &EtlServiceReport {
        &self.state.report
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
        self.publish(now_ms);
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
        self.publish(self.tail_end_ms);
        EtlServiceOutput {
            report: self.state.report,
        }
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
            state.report.storage.absorb(&report);
            state.report.landed_partitions += 1;
            sink(&stored, &sealed.partition);
            landed += 1;
        }
        landed
    }

    /// Rebuilds the report at a pump boundary and publishes it to the
    /// shared cell.
    fn publish(&mut self, now_ms: u64) {
        let state = &mut self.state;
        let report = &mut state.report;
        report.etl = state.stream.report();
        report.tail_lag_ms = if report.etl.counters.records > 0 {
            now_ms.saturating_sub(report.etl.watermark_ms)
        } else {
            0
        };
        report.peak_tail_lag_ms = report.peak_tail_lag_ms.max(report.tail_lag_ms);
        report.tail_remaining = self.events.len() as u64;
        debug_assert_eq!(report.check(), Ok(()));
        state.cell.set(report);
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
        EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(5_000)
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
        );
    }

    /// Runs `service` to completion in 500 ms pumps and returns the path of
    /// every blob it landed, in land order.
    fn landed_paths(mut service: EtlService) -> Vec<String> {
        let mut paths = Vec::new();
        let mut sink = |stored: &StoredPartition, _: &TablePartition| {
            paths.extend(stored.files.iter().cloned());
        };
        let mut clock = ManualClock::new();
        while !service.tail_drained() {
            service.pump(clock.advance(500), &mut sink);
        }
        service.finish(&mut sink);
        paths
    }

    /// Every blob at `paths`, as `(path, bytes)`.
    fn blob_bytes(store: &TableStore, paths: Vec<String>) -> Vec<(String, Vec<u8>)> {
        paths
            .into_iter()
            .map(|path| {
                let blob = store.blob_store().get(&path).expect("landed blob present");
                (path, blob.to_vec())
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
        let reference = blob_bytes(
            &reference_store,
            landed_paths(service(tail.clone(), &reference_store)),
        );
        assert!(!reference.is_empty());
        let replay_store = store();
        let replayed = blob_bytes(
            &replay_store,
            landed_paths(service(tail.clone(), &replay_store)),
        );
        assert_eq!(replayed, reference);
        assert_eq!((tail.cursor(), tail.remaining()), (0, tail.len()));

        // Crash mid-stream; resume from the checkpoint over a fresh tail.
        let crash_store = store();
        let mut crashing = service(tail.clone(), &crash_store);
        let mut paths = Vec::new();
        crashing.pump(tail.end_ms() / 2, &mut |stored, _| {
            paths.extend(stored.files.iter().cloned());
        });
        let checkpoint = crashing.checkpoint();
        let cursor = checkpoint.tail_cursor();
        assert!(0 < cursor && cursor < tail.len());
        assert!(!crashing.tail_drained());
        assert_eq!(
            crashing.report_cell().get().tail_remaining as usize,
            tail.len() - cursor
        );
        drop(crashing);
        let resumed = EtlService::resume_from(tail.clone(), checkpoint);
        assert_eq!(resumed.checkpoint().tail_cursor(), cursor);
        paths.extend(landed_paths(resumed));
        assert_eq!(blob_bytes(&crash_store, paths), reference);
    }
}
