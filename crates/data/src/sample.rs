//! Training samples: one labeled impression with its dense and sparse
//! features.

use crate::ids::{RequestId, SessionId, Timestamp};
use serde::{Deserialize, Serialize};

/// A variable-length list of categorical ids — the value of one sparse
/// feature for one sample.
pub type IdList = Vec<u64>;

/// A variable-length list of `(id, score)` pairs — the value of one
/// score-list feature for one sample.
pub type ScoreList = Vec<(u64, f32)>;

/// One labeled training sample (an impression and its outcome), as stored in
/// a table row (paper §2.1).
///
/// Dense and sparse features are stored positionally in schema order rather
/// than as maps; the [`Schema`](crate::Schema) gives positions meaning. This
/// keeps samples compact, which matters because the workload generator and
/// storage layer handle hundreds of thousands of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Session this impression belongs to.
    pub session_id: SessionId,
    /// Inference request that produced this impression.
    pub request_id: RequestId,
    /// Time the impression was served.
    pub timestamp: Timestamp,
    /// Impression outcome (e.g. click = 1.0, no click = 0.0).
    pub label: f32,
    /// Dense feature values in schema order.
    pub dense: Vec<f32>,
    /// Sparse id-list feature values in schema order.
    pub sparse: Vec<IdList>,
}

impl Sample {
    /// Starts building a sample with the mandatory identifiers.
    pub fn builder(
        session_id: SessionId,
        request_id: RequestId,
        timestamp: Timestamp,
    ) -> SampleBuilder {
        SampleBuilder {
            sample: Sample {
                session_id,
                request_id,
                timestamp,
                label: 0.0,
                dense: Vec::new(),
                sparse: Vec::new(),
            },
        }
    }

    /// Total number of sparse ids carried by this sample across all features.
    pub fn sparse_value_count(&self) -> usize {
        self.sparse.iter().map(Vec::len).sum()
    }

    /// Approximate in-memory payload size of this sample in bytes: 8 bytes
    /// per sparse id, 4 bytes per dense value, plus fixed header fields.
    ///
    /// This is the figure used for "bytes" accounting throughout the
    /// pipeline (storage raw size, reader egress, SDD payloads).
    pub fn payload_bytes(&self) -> usize {
        const HEADER: usize = 8 + 8 + 8 + 4; // session, request, timestamp, label
        HEADER + self.dense.len() * 4 + self.sparse_value_count() * 8
    }
}

/// Builder for [`Sample`].
#[derive(Debug, Clone)]
pub struct SampleBuilder {
    sample: Sample,
}

impl SampleBuilder {
    /// Sets the label (impression outcome).
    pub fn label(mut self, label: f32) -> Self {
        self.sample.label = label;
        self
    }

    /// Sets the dense feature values (schema order).
    pub fn dense(mut self, dense: Vec<f32>) -> Self {
        self.sample.dense = dense;
        self
    }

    /// Sets the sparse feature values (schema order).
    pub fn sparse(mut self, sparse: Vec<IdList>) -> Self {
        self.sample.sparse = sparse;
        self
    }

    /// Finalizes the sample.
    pub fn build(self) -> Sample {
        self.sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample::builder(
            SessionId::new(5),
            RequestId::new(9),
            Timestamp::from_millis(123),
        )
        .label(1.0)
        .dense(vec![0.5, 0.25, 0.125])
        .sparse(vec![vec![1, 2, 3], vec![], vec![42]])
        .build()
    }

    #[test]
    fn builder_populates_all_fields() {
        let s = sample();
        assert_eq!(s.session_id, SessionId::new(5));
        assert_eq!(s.request_id, RequestId::new(9));
        assert_eq!(s.timestamp.as_millis(), 123);
        assert_eq!(s.label, 1.0);
        assert_eq!(s.dense.len(), 3);
        assert_eq!(s.sparse.len(), 3);
    }

    #[test]
    fn sparse_value_count_and_bytes() {
        let s = sample();
        assert_eq!(s.sparse_value_count(), 4);
        // header 28 + dense 12 + sparse 32
        assert_eq!(s.payload_bytes(), 28 + 12 + 32);
    }

    // With serialization stubbed out offline, round-trip through the
    // builder instead: every field a serializer would visit must survive
    // reconstruction.
    #[test]
    fn builder_round_trip() {
        let s = sample();
        let back = Sample::builder(s.session_id, s.request_id, s.timestamp)
            .label(s.label)
            .dense(s.dense.clone())
            .sparse(s.sparse.clone())
            .build();
        assert_eq!(back, s);
    }
}
