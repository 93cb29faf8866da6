//! Binary wire encoding for raw log records, so shard buffers hold realistic
//! byte streams for the block compressor to work on — plus [`LogTail`], the
//! replayable arrival simulation the continuous ETL stage tails.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recd_codec::{varint, CodecError};
use recd_data::{EventLog, FeatureLog, LogRecord, RequestId, SessionId, Timestamp};
use std::error::Error;
use std::fmt;

/// Errors produced when decoding a malformed wire record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The record ended before a complete field could be decoded.
    Truncated,
    /// The record tag byte was not a known record kind.
    UnknownTag(u8),
    /// The bytes are there but cannot be what an encoder wrote: an overlong
    /// varint in a record, or a block the compressor rejects.
    Corrupt(CodecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire record is truncated"),
            WireError::UnknownTag(tag) => write!(f, "unknown wire record tag {tag}"),
            WireError::Corrupt(err) => write!(f, "wire bytes are corrupt: {err}"),
        }
    }
}

impl Error for WireError {}

impl From<CodecError> for WireError {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::UnexpectedEof { .. } => WireError::Truncated,
            other => WireError::Corrupt(other),
        }
    }
}

const TAG_FEATURE: u8 = 1;
const TAG_EVENT: u8 = 2;

/// Write cursor over bytes the caller sized to a record's upper bound, so a
/// field costs an indexed store instead of a `Vec` capacity check per byte.
struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn varint(&mut self, value: u64) {
        self.at += varint::write_u64(value, &mut self.buf[self.at..]);
    }

    fn float(&mut self, value: f32) {
        self.buf[self.at..self.at + 4].copy_from_slice(&value.to_le_bytes());
        self.at += 4;
    }
}

/// Appends the wire encoding of a record to `out`:
///
/// ```text
/// record  := tag:u8 varint(request_id) varint(session_id) varint(timestamp_ms) body
/// feature := varint(dense_count) f32_le* varint(list_count) list*   -- tag 1
/// list    := varint(id_count) varint(id)*
/// event   := f32_le(label)                                          -- tag 2
/// ```
///
/// Ids and counts are LEB128 varints (what the DWRF stripes use), so an id
/// costs the bytes it needs rather than eight.
pub fn encode_record(record: &LogRecord, out: &mut Vec<u8>) {
    let (tag, varints, floats) = match record {
        LogRecord::Feature(f) => (
            TAG_FEATURE,
            5 + f.sparse.len() + f.sparse.iter().map(Vec::len).sum::<usize>(),
            f.dense.len(),
        ),
        LogRecord::Event(_) => (TAG_EVENT, 3, 1),
    };
    // Grow to the record's upper bound once, write by index, return the slack.
    let start = out.len();
    out.resize(start + 1 + varints * varint::MAX_VARINT_LEN + floats * 4, 0);
    out[start] = tag;
    let mut w = Writer {
        buf: &mut out[start..],
        at: 1,
    };
    w.varint(record.request_id().raw());
    w.varint(record.session_id().raw());
    w.varint(record.timestamp().as_millis());
    match record {
        LogRecord::Feature(f) => {
            w.varint(f.dense.len() as u64);
            for &v in &f.dense {
                w.float(v);
            }
            w.varint(f.sparse.len() as u64);
            for list in &f.sparse {
                w.varint(list.len() as u64);
                for &id in list {
                    w.varint(id);
                }
            }
        }
        LogRecord::Event(e) => w.float(e.label),
    }
    let end = start + w.at;
    out.truncate(end);
}

fn take<'a>(input: &'a [u8], cursor: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = cursor.checked_add(n).ok_or(WireError::Truncated)?;
    let slice = input.get(*cursor..end).ok_or(WireError::Truncated)?;
    *cursor = end;
    Ok(slice)
}

fn le_f32(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("4-byte field"))
}

/// Reads an element count and bounds it by the bytes that remain (every
/// element occupies at least `min_bytes`), so a corrupt count is an error
/// before it can size an allocation.
fn take_count(input: &[u8], cursor: &mut usize, min_bytes: usize) -> Result<usize, WireError> {
    let count = varint::read_u64(input, cursor)?;
    match usize::try_from(count) {
        Ok(count) if count <= (input.len() - *cursor) / min_bytes => Ok(count),
        _ => Err(WireError::Truncated),
    }
}

/// Decodes one record from the front of `input`, returning the record and the
/// number of bytes consumed.
///
/// # Errors
///
/// Returns a [`WireError`] if the record is truncated, has an unknown tag,
/// or holds a malformed varint.
pub fn decode_record(input: &[u8]) -> Result<(LogRecord, usize), WireError> {
    let mut cursor = 0usize;
    let tag = take(input, &mut cursor, 1)?[0];
    if tag != TAG_FEATURE && tag != TAG_EVENT {
        return Err(WireError::UnknownTag(tag));
    }
    let request_id = RequestId::new(varint::read_u64(input, &mut cursor)?);
    let session_id = SessionId::new(varint::read_u64(input, &mut cursor)?);
    let timestamp = Timestamp::from_millis(varint::read_u64(input, &mut cursor)?);
    let record = if tag == TAG_EVENT {
        LogRecord::Event(EventLog {
            request_id,
            session_id,
            timestamp,
            label: le_f32(take(input, &mut cursor, 4)?),
        })
    } else {
        let dense_len = take_count(input, &mut cursor, 4)?;
        let dense = take(input, &mut cursor, dense_len * 4)?;
        let dense = dense.chunks_exact(4).map(le_f32).collect();
        let sparse_len = take_count(input, &mut cursor, 1)?;
        let mut sparse = Vec::with_capacity(sparse_len);
        for _ in 0..sparse_len {
            // A list is a count-prefixed varint run: the codec's windowed
            // bulk decoder reads it, count bound included.
            let (list, used) = varint::decode_u64_slice(&input[cursor..])?;
            cursor += used;
            sparse.push(list);
        }
        LogRecord::Feature(FeatureLog {
            request_id,
            session_id,
            timestamp,
            dense,
            sparse,
        })
    };
    Ok((record, cursor))
}

/// Decodes every record in a buffer onto the end of `records`.
///
/// # Errors
///
/// Returns a [`WireError`] if any record is malformed; the records decoded
/// before it stay appended.
pub fn decode_all(input: &[u8], records: &mut Vec<LogRecord>) -> Result<(), WireError> {
    let mut cursor = 0;
    while cursor < input.len() {
        let (record, used) = decode_record(&input[cursor..])?;
        records.push(record);
        cursor += used;
    }
    Ok(())
}

/// Arrival-process knobs of a [`LogTail`].
///
/// Log records do not reach the tailing ETL stage in timestamp order: every
/// record's *arrival time* is its timestamp plus a uniformly drawn network
/// jitter, and a configurable fraction of records straggle by an extra
/// delay (a retrying inference host, a slow Scribe shard). The whole
/// process is a pure function of `seed`, so a tail can be replayed —
/// byte-for-byte — as many times as a test harness wants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Uniform arrival jitter: each record arrives within
    /// `[ts, ts + jitter_ms]`.
    pub jitter_ms: u64,
    /// Fraction of records (0.0–1.0) that straggle late.
    pub late_fraction: f64,
    /// Extra arrival delay added to straggling records, beyond the jitter.
    pub late_extra_ms: u64,
    /// Seed of the arrival process.
    pub seed: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        Self {
            jitter_ms: 2_000,
            late_fraction: 0.0,
            late_extra_ms: 60_000,
            seed: 0,
        }
    }
}

impl TailConfig {
    /// A perfectly punctual tail: every record arrives exactly at its
    /// timestamp, in timestamp order.
    pub fn punctual() -> Self {
        Self {
            jitter_ms: 0,
            late_fraction: 0.0,
            late_extra_ms: 0,
            seed: 0,
        }
    }

    /// Sets the uniform jitter bound.
    #[must_use]
    pub fn with_jitter_ms(mut self, jitter_ms: u64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// Sets the straggler fraction (clamped to `[0, 1]`) and extra delay.
    #[must_use]
    pub fn with_lateness(mut self, fraction: f64, extra_ms: u64) -> Self {
        self.late_fraction = fraction.clamp(0.0, 1.0);
        self.late_extra_ms = extra_ms;
        self
    }

    /// Sets the seed of the arrival process.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One record together with the simulated wall-clock time it reaches the
/// tailing consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct TailEvent {
    /// Simulated arrival time (ms).
    pub arrival_ms: u64,
    /// The record that arrived.
    pub record: LogRecord,
}

/// A replayable tail over a log stream: the continuous-ETL analog of
/// `tail -f` on a Scribe category.
///
/// Construction assigns every record a deterministic arrival time from the
/// [`TailConfig`] and orders the stream by arrival. Consumers either
/// [`poll`](LogTail::poll) everything that has arrived by a simulated clock
/// value, or pull one event at a time with [`next_event`](LogTail::next_event).
/// [`rewind`](LogTail::rewind) restarts the identical stream, which is what
/// makes deterministic end-to-end replay tests possible.
#[derive(Debug, Clone)]
pub struct LogTail {
    events: Vec<TailEvent>,
    cursor: usize,
}

impl LogTail {
    /// Builds a tail over `records` with the given arrival process.
    pub fn new(records: Vec<LogRecord>, config: &TailConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut events: Vec<TailEvent> = records
            .into_iter()
            .map(|record| {
                let mut arrival_ms = record.timestamp().as_millis();
                if config.jitter_ms > 0 {
                    arrival_ms += rng.gen_range(0..=config.jitter_ms);
                }
                if config.late_fraction > 0.0 && rng.gen_bool(config.late_fraction) {
                    arrival_ms += config.late_extra_ms;
                }
                TailEvent { arrival_ms, record }
            })
            .collect();
        // Stable: records with equal arrival keep their input order, so the
        // tail is a pure function of (records, config).
        events.sort_by_key(|e| e.arrival_ms);
        Self { events, cursor: 0 }
    }

    /// Returns every event with `arrival_ms <= now_ms` that has not been
    /// consumed yet, advancing the cursor past them.
    pub fn poll(&mut self, now_ms: u64) -> &[TailEvent] {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].arrival_ms <= now_ms {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }

    /// Pulls the next event regardless of clock, or `None` once drained.
    pub fn next_event(&mut self) -> Option<&TailEvent> {
        let event = self.events.get(self.cursor)?;
        self.cursor += 1;
        Some(event)
    }

    /// Arrival time of the next unconsumed event, or `None` once drained.
    pub fn next_arrival_ms(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.arrival_ms)
    }

    /// Arrival time of the final event (0 for an empty tail).
    pub fn end_ms(&self) -> u64 {
        self.events.last().map_or(0, |e| e.arrival_ms)
    }

    /// Events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Total events in the tail.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if the tail holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns true once every event has been consumed.
    pub fn is_drained(&self) -> bool {
        self.cursor == self.events.len()
    }

    /// Consumes the tail and hands over the events not yet consumed, in
    /// arrival order — for a consumer that keeps each record instead of
    /// copying it out of a borrowed event. Clone the tail first to be able to
    /// replay it.
    pub fn into_remaining(mut self) -> std::vec::IntoIter<TailEvent> {
        self.events.drain(..self.cursor);
        self.events.into_iter()
    }

    /// Rewinds to the start: the next consumption replays the identical
    /// arrival sequence.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// The replay cursor: number of events already consumed. Recorded in
    /// pipeline checkpoints so a crash-restarted pump can resume the arrival
    /// sequence exactly where the checkpoint left it.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Rewinds (or fast-forwards) to an absolute cursor position previously
    /// obtained from [`cursor`](Self::cursor). Because the arrival sequence
    /// is a pure function of `(records, TailConfig)`, a freshly rebuilt tail
    /// sought to a checkpointed cursor replays the identical remainder.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` exceeds the event count — that checkpoint could not
    /// have come from this tail.
    pub fn rewind_to(&mut self, cursor: usize) {
        assert!(
            cursor <= self.events.len(),
            "cursor {cursor} out of range ({} events)",
            self.events.len()
        );
        self.cursor = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature_record() -> LogRecord {
        LogRecord::Feature(FeatureLog {
            request_id: RequestId::new(11),
            session_id: SessionId::new(22),
            timestamp: Timestamp::from_millis(33),
            dense: vec![0.5, -1.5],
            sparse: vec![vec![1, 2, 3], vec![], vec![u64::MAX]],
        })
    }

    fn event_record() -> LogRecord {
        LogRecord::Event(EventLog {
            request_id: RequestId::new(44),
            session_id: SessionId::new(55),
            timestamp: Timestamp::from_millis(66),
            label: 1.0,
        })
    }

    #[test]
    fn round_trip_both_kinds() {
        for record in [feature_record(), event_record()] {
            let mut buf = Vec::new();
            encode_record(&record, &mut buf);
            let (decoded, used) = decode_record(&buf).unwrap();
            assert_eq!(decoded, record);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decode_all_handles_concatenated_records() {
        let mut buf = Vec::new();
        encode_record(&feature_record(), &mut buf);
        encode_record(&event_record(), &mut buf);
        encode_record(&feature_record(), &mut buf);
        let mut records = Vec::new();
        decode_all(&buf, &mut records).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1], event_record());
    }

    fn numbered_records(n: u64) -> Vec<LogRecord> {
        (0..n)
            .map(|i| {
                LogRecord::Event(EventLog {
                    request_id: RequestId::new(i),
                    session_id: SessionId::new(i / 4),
                    timestamp: Timestamp::from_millis(i * 1_000),
                    label: 0.0,
                })
            })
            .collect()
    }

    #[test]
    fn punctual_tail_preserves_timestamp_order() {
        let mut tail = LogTail::new(numbered_records(10), &TailConfig::punctual());
        assert_eq!(tail.len(), 10);
        assert!(!tail.is_empty());
        let polled = tail.poll(4_000);
        assert_eq!(polled.len(), 5);
        assert!(polled
            .windows(2)
            .all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert_eq!(tail.remaining(), 5);
        tail.poll(u64::MAX);
        assert!(tail.is_drained());
    }

    #[test]
    fn jittered_tail_is_replayable_and_bounded() {
        let config = TailConfig::default().with_jitter_ms(5_000).with_seed(42);
        let records = numbered_records(50);
        let mut a = LogTail::new(records.clone(), &config);
        let mut b = LogTail::new(records, &config);
        let mut pulled = 0usize;
        while let (Some(x), Some(y)) = (a.next_event().cloned(), b.next_event()) {
            assert_eq!(&x, y, "same seed must replay the same arrivals");
            let ts = x.record.timestamp().as_millis();
            assert!(x.arrival_ms >= ts && x.arrival_ms <= ts + 5_000);
            pulled += 1;
        }
        assert_eq!(pulled, 50);
        // Rewind replays the identical stream.
        let first = a.events.clone();
        a.rewind();
        assert_eq!(a.remaining(), 50);
        assert_eq!(a.next_arrival_ms(), Some(first[0].arrival_ms));
    }

    #[test]
    fn rewind_to_resumes_a_rebuilt_tail_mid_stream() {
        let config = TailConfig::default().with_jitter_ms(3_000).with_seed(11);
        let records = numbered_records(30);
        let mut original = LogTail::new(records.clone(), &config);
        let mut consumed = Vec::new();
        for _ in 0..12 {
            consumed.push(original.next_event().cloned().unwrap());
        }
        let checkpointed = original.cursor();
        assert_eq!(checkpointed, 12);

        // A crash-restarted pump rebuilds the tail from the same inputs and
        // seeks to the checkpointed cursor: the remainder replays exactly.
        let mut resumed = LogTail::new(records, &config);
        resumed.rewind_to(checkpointed);
        assert_eq!(resumed.remaining(), original.remaining());
        while let Some(expected) = original.next_event().cloned() {
            assert_eq!(resumed.next_event(), Some(&expected));
        }
        assert!(resumed.is_drained());
        // Seeking to the very end is allowed; past it is a logic error.
        resumed.rewind_to(30);
        assert!(resumed.is_drained());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rewind_past_the_end_panics() {
        let mut tail = LogTail::new(numbered_records(3), &TailConfig::punctual());
        tail.rewind_to(7);
    }

    #[test]
    fn stragglers_arrive_with_the_extra_delay() {
        let config = TailConfig::punctual()
            .with_lateness(0.3, 100_000)
            .with_seed(7);
        let tail = LogTail::new(numbered_records(200), &config);
        let late = tail
            .events
            .iter()
            .filter(|e| e.arrival_ms >= e.record.timestamp().as_millis() + 100_000)
            .count();
        assert!(late > 20 && late < 120, "~30% stragglers, got {late}");
        // A different seed produces a different straggler set.
        let other = LogTail::new(numbered_records(200), &config.with_seed(8));
        assert_ne!(tail.events, other.events);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let mut buf = Vec::new();
        encode_record(&feature_record(), &mut buf);
        for cut in 1..buf.len() {
            assert!(decode_record(&buf[..cut]).is_err() || cut == buf.len());
        }
        assert!(matches!(decode_record(&[]), Err(WireError::Truncated)));
        assert!(matches!(
            decode_record(&[99, 0, 0]),
            Err(WireError::UnknownTag(99))
        ));
    }
}
