//! The analytical `DedupeLen` / `DedupeFactor` model (paper §4.2).
//!
//! For a feature `f` with average list length `l(f)`, per-batch size `B`,
//! average samples per session `S`, and probability `d(f)` that the feature's
//! value stays the same across adjacent rows:
//!
//! ```text
//! DedupeLen(f)    = l(f) * B * (1 - (S - 1) / S * d(f))
//! DedupeFactor(f) = l(f) * B / DedupeLen(f)
//! ```
//!
//! `DedupeFactor` is the expected shrinkage of the `values` slice when the
//! feature is encoded as an IKJT, and is the heuristic ML engineers use to
//! decide which features to deduplicate (the paper uses a threshold of 1.5).

use recd_data::{Schema, SparseFeatureSpec};
use serde::{Deserialize, Serialize};

/// The DedupeFactor threshold above which the paper's practitioners typically
/// deduplicate a feature (§4.2, §7).
pub const DEFAULT_WORTH_IT_THRESHOLD: f64 = 1.5;

/// Analytical model of deduplication benefit for a given batch size and
/// session length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DedupeModel {
    /// Training batch size `B`.
    pub batch_size: usize,
    /// Average number of samples per session `S` co-located within a batch.
    pub samples_per_session: f64,
}

impl DedupeModel {
    /// Creates a model. `samples_per_session` is clamped to at least 1.
    pub fn new(batch_size: usize, samples_per_session: f64) -> Self {
        Self {
            batch_size,
            samples_per_session: samples_per_session.max(1.0),
        }
    }

    /// Expected size of the deduplicated `values` slice for a feature with
    /// average length `avg_len` and stay-probability `stay_prob`.
    pub fn dedupe_len(&self, avg_len: f64, stay_prob: f64) -> f64 {
        let s = self.samples_per_session;
        let b = self.batch_size as f64;
        let d = stay_prob.clamp(0.0, 1.0);
        avg_len * b * (1.0 - (s - 1.0) / s * d)
    }

    /// Expected deduplication factor for a feature.
    ///
    /// Returns 1.0 when the feature would have no values at all
    /// (`avg_len * B == 0`).
    pub fn dedupe_factor(&self, avg_len: f64, stay_prob: f64) -> f64 {
        let original = avg_len * self.batch_size as f64;
        if original <= 0.0 {
            return 1.0;
        }
        let dedup = self.dedupe_len(avg_len, stay_prob);
        if dedup <= 0.0 {
            f64::INFINITY
        } else {
            original / dedup
        }
    }

    /// Evaluates the model for one schema feature.
    pub fn estimate(&self, spec: &SparseFeatureSpec) -> FeatureDedupeEstimate {
        let dedupe_len = self.dedupe_len(spec.avg_len, spec.stay_prob);
        let dedupe_factor = self.dedupe_factor(spec.avg_len, spec.stay_prob);
        FeatureDedupeEstimate {
            feature: spec.name.clone(),
            avg_len: spec.avg_len,
            stay_prob: spec.stay_prob,
            original_len: spec.avg_len * self.batch_size as f64,
            dedupe_len,
            dedupe_factor,
        }
    }

    /// Evaluates every sparse feature of a schema and returns the estimates
    /// sorted by descending dedupe factor.
    pub fn estimate_schema(&self, schema: &Schema) -> Vec<FeatureDedupeEstimate> {
        let mut estimates: Vec<FeatureDedupeEstimate> = schema
            .sparse_features()
            .iter()
            .map(|spec| self.estimate(spec))
            .collect();
        estimates.sort_by(|a, b| {
            b.dedupe_factor
                .partial_cmp(&a.dedupe_factor)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        estimates
    }
}

/// The analytical estimate for one feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureDedupeEstimate {
    /// Feature name.
    pub feature: String,
    /// Average list length `l(f)`.
    pub avg_len: f64,
    /// Stay probability `d(f)`.
    pub stay_prob: f64,
    /// Expected original `values` length per batch (`l(f) * B`).
    pub original_len: f64,
    /// Expected deduplicated `values` length per batch.
    pub dedupe_len: f64,
    /// Expected deduplication factor.
    pub dedupe_factor: f64,
}

impl FeatureDedupeEstimate {
    /// Whether the feature clears the paper's default "worth it" threshold.
    pub fn is_worth_deduplicating(&self) -> bool {
        self.dedupe_factor > DEFAULT_WORTH_IT_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::FeatureClass;

    #[test]
    fn paper_worked_example() {
        // Paper §4.2: B = S = 3, l(b) = 3, d(b) = 0.5 gives DedupeLen = 6 and
        // DedupeFactor = 1.5.
        let model = DedupeModel::new(3, 3.0);
        assert!((model.dedupe_len(3.0, 0.5) - 6.0).abs() < 1e-9);
        assert!((model.dedupe_factor(3.0, 0.5) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn factor_increases_with_s_l_and_d() {
        let base = DedupeModel::new(4096, 4.0).dedupe_factor(100.0, 0.8);
        assert!(DedupeModel::new(4096, 16.0).dedupe_factor(100.0, 0.8) > base);
        assert!(DedupeModel::new(4096, 4.0).dedupe_factor(100.0, 0.95) > base);
        // Length cancels in the factor but the absolute savings grow; the
        // factor itself must not decrease with length.
        assert!(DedupeModel::new(4096, 4.0).dedupe_factor(1000.0, 0.8) >= base - 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let model = DedupeModel::new(0, 1.0);
        assert_eq!(model.dedupe_factor(10.0, 0.9), 1.0);
        let model = DedupeModel::new(4096, 1.0);
        // S = 1: nothing to deduplicate.
        assert!((model.dedupe_factor(10.0, 0.99) - 1.0).abs() < 1e-9);
        // d clamped into [0, 1].
        let model = DedupeModel::new(16, 4.0);
        assert_eq!(model.dedupe_len(1.0, 2.0), model.dedupe_len(1.0, 1.0));
        // Perfect duplication with huge sessions approaches factor S.
        let model = DedupeModel::new(4096, 16.5);
        let f = model.dedupe_factor(100.0, 1.0);
        assert!((f - 16.5).abs() < 1e-9);
    }

    #[test]
    fn schema_estimates_rank_features_by_dedupe_factor() {
        let schema = Schema::builder()
            .sparse("user_seq", FeatureClass::User, 200.0, 0.95, 1 << 20)
            .sparse("item_id", FeatureClass::Item, 1.0, 0.05, 1 << 24)
            .build()
            .unwrap();
        let model = DedupeModel::new(4096, 16.5);
        let estimates = model.estimate_schema(&schema);
        assert_eq!(estimates.len(), 2);
        assert_eq!(estimates[0].feature, "user_seq");
        assert!(estimates[0].is_worth_deduplicating());
        assert!(!estimates[1].is_worth_deduplicating());
    }
}
