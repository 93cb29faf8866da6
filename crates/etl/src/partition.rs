//! Hourly table partitioning and row layout (time-ordered vs clustered by
//! session).

use recd_data::{Sample, SessionId, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// One hourly table partition, as landed into the warehouse.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TablePartition {
    /// Hour bucket (timestamp / 1h) the partition covers.
    pub hour: u64,
    /// Rows of the partition, in landed order.
    pub samples: Vec<Sample>,
}

impl TablePartition {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Splits samples into hourly table partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct HourlyPartitioner;

impl HourlyPartitioner {
    /// Lands samples into hourly partitions, keyed by
    /// [`Timestamp::hour_bucket`](recd_data::Timestamp::hour_bucket).
    /// Partitions are returned in hour order; rows keep their input order
    /// within each partition.
    pub fn partition(samples: Vec<Sample>) -> Vec<TablePartition> {
        let mut by_hour: BTreeMap<u64, Vec<Sample>> = BTreeMap::new();
        for sample in samples {
            by_hour
                .entry(sample.timestamp.hour_bucket())
                .or_default()
                .push(sample);
        }
        by_hour
            .into_iter()
            .map(|(hour, samples)| TablePartition { hour, samples })
            .collect()
    }
}

/// Baseline row layout: order rows by inference time (sessions interleave).
pub fn interleave_by_time(samples: &[Sample]) -> Vec<Sample> {
    let mut out = samples.to_vec();
    interleave_in_place(&mut out);
    out
}

/// [`interleave_by_time`] over rows the caller owns: what the batch job and
/// the streaming seal run, so neither copies a partition to order it.
pub(crate) fn interleave_in_place(samples: &mut [Sample]) {
    samples.sort_by_key(|s| (s.timestamp, s.request_id));
}

/// RecD O2 row layout: `CLUSTER BY session_id SORT BY timestamp` — all of a
/// session's rows become adjacent, ordered by time within the session.
/// Sessions themselves are ordered by their first timestamp so the partition
/// remains roughly chronological.
pub fn cluster_by_session(samples: &[Sample]) -> Vec<Sample> {
    let mut out = samples.to_vec();
    cluster_in_place(&mut out);
    out
}

/// [`cluster_by_session`] over rows the caller owns. Each row's key — and
/// its session's first-seen lookup — is computed once, not per comparison.
pub(crate) fn cluster_in_place(samples: &mut [Sample]) {
    let mut first_seen: HashMap<SessionId, Timestamp> = HashMap::new();
    for s in samples.iter() {
        first_seen
            .entry(s.session_id)
            .and_modify(|first| *first = (*first).min(s.timestamp))
            .or_insert(s.timestamp);
    }
    samples.sort_by_cached_key(|s| {
        (
            first_seen[&s.session_id],
            s.session_id,
            s.timestamp,
            s.request_id,
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::{RequestId, SessionId, Timestamp};

    fn sample(session: u64, request: u64, ts: u64) -> Sample {
        Sample::builder(
            SessionId::new(session),
            RequestId::new(request),
            Timestamp::from_millis(ts),
        )
        .sparse(vec![vec![session]])
        .build()
    }

    #[test]
    fn partitioner_groups_by_hour_and_sorts_partitions() {
        const HOUR: u64 = Timestamp::MILLIS_PER_HOUR;
        let samples = vec![
            sample(1, 0, HOUR + 5),
            sample(1, 1, 10),
            sample(2, 2, 2 * HOUR + 1),
            sample(2, 3, 20),
        ];
        let partitions = HourlyPartitioner::partition(samples);
        assert_eq!(partitions.len(), 3);
        assert_eq!(partitions[0].hour, 0);
        assert_eq!(partitions[0].len(), 2);
        assert_eq!(partitions[1].hour, 1);
        assert_eq!(partitions[2].hour, 2);
        assert!(!partitions[0].is_empty());
    }

    #[test]
    fn clustering_makes_sessions_adjacent_and_preserves_the_multiset() {
        // Interleaved input: sessions 1 and 2 alternate.
        let samples = vec![
            sample(1, 0, 100),
            sample(2, 1, 150),
            sample(1, 2, 200),
            sample(2, 3, 250),
            sample(1, 4, 300),
        ];
        let clustered = cluster_by_session(&samples);
        assert_eq!(clustered.len(), samples.len());
        // Session 1 first (earliest first timestamp), all rows adjacent and
        // time-ordered, then session 2.
        let sessions: Vec<u64> = clustered.iter().map(|s| s.session_id.raw()).collect();
        assert_eq!(sessions, vec![1, 1, 1, 2, 2]);
        let times: Vec<u64> = clustered
            .iter()
            .filter(|s| s.session_id.raw() == 1)
            .map(|s| s.timestamp.as_millis())
            .collect();
        assert_eq!(times, vec![100, 200, 300]);

        // Multiset of request ids unchanged.
        let mut before: Vec<u64> = samples.iter().map(|s| s.request_id.raw()).collect();
        let mut after: Vec<u64> = clustered.iter().map(|s| s.request_id.raw()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn interleave_orders_strictly_by_time() {
        let samples = vec![sample(1, 0, 300), sample(2, 1, 100), sample(1, 2, 200)];
        let ordered = interleave_by_time(&samples);
        let times: Vec<u64> = ordered.iter().map(|s| s.timestamp.as_millis()).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn empty_inputs() {
        assert!(HourlyPartitioner::partition(Vec::new()).is_empty());
        assert!(cluster_by_session(&[]).is_empty());
        assert!(interleave_by_time(&[]).is_empty());
    }

    /// `interleave_by_time` as it shipped before the in-place layouts: copy,
    /// then a stable sort. Kept as the differential oracle.
    fn interleave_oracle(samples: &[Sample]) -> Vec<Sample> {
        let mut out = samples.to_vec();
        out.sort_by_key(|s| (s.timestamp, s.request_id));
        out
    }

    /// `cluster_by_session` as it shipped before the in-place layouts: copy,
    /// then a stable sort that looks the session's first timestamp up in a
    /// `BTreeMap` on every comparison. Kept as the differential oracle.
    fn cluster_oracle(samples: &[Sample]) -> Vec<Sample> {
        let mut first_seen: BTreeMap<u64, u64> = BTreeMap::new();
        for s in samples {
            let entry = first_seen
                .entry(s.session_id.raw())
                .or_insert(s.timestamp.as_millis());
            *entry = (*entry).min(s.timestamp.as_millis());
        }
        let mut out = samples.to_vec();
        out.sort_by_key(|s| {
            (
                first_seen[&s.session_id.raw()],
                s.session_id,
                s.timestamp,
                s.request_id,
            )
        });
        out
    }

    proptest::proptest! {
        #[test]
        fn in_place_layouts_match_the_copying_oracles(
            rows in proptest::collection::vec((0u64..5, 0u64..4, 0u64..6), 0..40),
        ) {
            // Five sessions over six timestamps: sessions share a first-seen
            // time, rows share a timestamp inside a session, and with four
            // request ids some rows share the whole key — only a stable sort
            // keeps those in input order (the payload tells them apart).
            let samples: Vec<Sample> = rows
                .iter()
                .enumerate()
                .map(|(i, &(session, request, ts))| {
                    Sample::builder(
                        SessionId::new(session),
                        RequestId::new(request),
                        Timestamp::from_millis(ts),
                    )
                    .sparse(vec![vec![i as u64]])
                    .build()
                })
                .collect();
            let (mut clustered, mut interleaved) = (samples.clone(), samples.clone());
            cluster_in_place(&mut clustered);
            interleave_in_place(&mut interleaved);
            proptest::prop_assert_eq!(clustered, cluster_oracle(&samples));
            proptest::prop_assert_eq!(interleaved, interleave_oracle(&samples));
        }
    }

    #[test]
    fn one_row_is_its_own_layout() {
        let row = [sample(3, 9, 42)];
        assert_eq!(cluster_by_session(&row), row);
        assert_eq!(interleave_by_time(&row), row);
    }
}
