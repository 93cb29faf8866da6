//! Workload configuration: how many sessions, how long they are, and what
//! the feature schema looks like.

use recd_data::{DedupGroupId, FeatureClass, Schema};
use serde::{Deserialize, Serialize};

/// How the features described by a [`FeatureProfile`] are assigned to IKJT
/// dedup groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DedupPolicy {
    /// Features stay in KJT form (no deduplication).
    None,
    /// Each feature gets its own single-feature IKJT group.
    Individual,
    /// Features are distributed round-robin into this many shared groups
    /// (the paper's grouped IKJTs for synchronously-updated sequences).
    Grouped(u32),
}

/// Describes one family of sparse features sharing the same statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureProfile {
    /// Prefix for generated feature names (`"{prefix}_{i}"`).
    pub name_prefix: String,
    /// Number of features generated from this profile.
    pub count: usize,
    /// Whether the features reflect user, item, or context traits.
    pub class: FeatureClass,
    /// Average list length `l(f)`.
    pub avg_len: usize,
    /// Probability `d(f)` that the value stays identical across adjacent
    /// impressions of a session.
    pub stay_prob: f64,
    /// Categorical id space size.
    pub cardinality: u64,
    /// Embedding dimension used by the trainer for these features.
    pub embedding_dim: usize,
    /// How the features are assigned to dedup groups.
    pub dedup: DedupPolicy,
}

impl FeatureProfile {
    /// A long user interaction-history sequence feature family (high
    /// duplication, long lists).
    pub fn user_sequence(count: usize, avg_len: usize, groups: u32) -> Self {
        Self {
            name_prefix: "user_seq".to_string(),
            count,
            class: FeatureClass::User,
            avg_len,
            stay_prob: 0.95,
            cardinality: 1 << 22,
            embedding_dim: 128,
            dedup: DedupPolicy::Grouped(groups),
        }
    }

    /// A short element-wise pooled user feature family (high duplication,
    /// short lists) — the "additional ≈100 features" each RM deduplicates.
    pub fn user_elementwise(count: usize) -> Self {
        Self {
            name_prefix: "user_ew".to_string(),
            count,
            class: FeatureClass::User,
            avg_len: 4,
            stay_prob: 0.85,
            cardinality: 1 << 20,
            embedding_dim: 64,
            dedup: DedupPolicy::Individual,
        }
    }

    /// An item feature family (low duplication, typically length 1).
    pub fn item(count: usize) -> Self {
        Self {
            name_prefix: "item".to_string(),
            count,
            class: FeatureClass::Item,
            avg_len: 1,
            stay_prob: 0.05,
            cardinality: 1 << 24,
            embedding_dim: 64,
            dedup: DedupPolicy::None,
        }
    }
}

/// Named workload presets used throughout the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadPreset {
    /// A tiny workload for unit tests and doc examples.
    Tiny,
    /// A small but statistically representative workload (CI-sized).
    Small,
    /// A wide-schema workload for the §3 dataset characterization
    /// (Figures 3 and 4).
    Characterization,
}

/// Full description of a synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of user sessions to generate.
    pub sessions: usize,
    /// Target mean of the samples-per-session distribution (paper: 16.5).
    pub samples_per_session_mean: f64,
    /// Log-space standard deviation of the samples-per-session distribution.
    pub samples_per_session_sigma: f64,
    /// Number of dense (float) features.
    pub dense_features: usize,
    /// Sparse feature families.
    pub profiles: Vec<FeatureProfile>,
    /// Probability that an impression is labeled positive.
    pub positive_rate: f64,
    /// Milliseconds between consecutive impressions of one session.
    pub impression_gap_ms: u64,
    /// Length of the generated partition window in milliseconds (sessions
    /// start uniformly at random within it).
    pub window_ms: u64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Builds a preset workload.
    pub fn preset(preset: WorkloadPreset) -> Self {
        match preset {
            WorkloadPreset::Tiny => Self {
                sessions: 40,
                samples_per_session_mean: 6.0,
                samples_per_session_sigma: 0.8,
                dense_features: 4,
                profiles: vec![
                    FeatureProfile::user_sequence(2, 16, 1),
                    FeatureProfile::user_elementwise(4),
                    FeatureProfile::item(2),
                ],
                positive_rate: 0.2,
                impression_gap_ms: 300_000,
                window_ms: recd_data::Timestamp::MILLIS_PER_HOUR,
                seed: 42,
            },
            WorkloadPreset::Small => Self {
                sessions: 400,
                samples_per_session_mean: 16.5,
                samples_per_session_sigma: 1.2,
                dense_features: 8,
                profiles: vec![
                    FeatureProfile::user_sequence(4, 64, 2),
                    FeatureProfile::user_elementwise(16),
                    FeatureProfile::item(4),
                ],
                positive_rate: 0.1,
                impression_gap_ms: 300_000,
                window_ms: recd_data::Timestamp::MILLIS_PER_HOUR,
                seed: 7,
            },
            WorkloadPreset::Characterization => Self {
                sessions: 2_000,
                samples_per_session_mean: 16.5,
                samples_per_session_sigma: 1.4,
                dense_features: 16,
                profiles: vec![
                    FeatureProfile::user_sequence(8, 96, 4),
                    FeatureProfile::user_elementwise(48),
                    FeatureProfile::item(16),
                ],
                positive_rate: 0.1,
                impression_gap_ms: 240_000,
                window_ms: recd_data::Timestamp::MILLIS_PER_HOUR,
                seed: 13,
            },
        }
    }

    /// Overrides the number of sessions (builder-style).
    #[must_use]
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Overrides the RNG seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of sparse features across all profiles.
    pub fn sparse_feature_count(&self) -> usize {
        self.profiles.iter().map(|p| p.count).sum()
    }

    /// Builds the dataset [`Schema`] implied by this workload: one sparse
    /// feature per profile slot, with dedup groups assigned according to each
    /// profile's [`DedupPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if two profiles generate the same feature name (profiles ship
    /// with distinct prefixes, so this only happens with hand-built configs
    /// that reuse a prefix).
    pub fn schema(&self) -> Schema {
        let mut builder = Schema::builder();
        for i in 0..self.dense_features {
            builder = builder.dense(&format!("dense_{i}"));
        }
        let mut next_group: u32 = 0;
        // First pass: count groups.
        for profile in &self.profiles {
            match profile.dedup {
                DedupPolicy::None => {}
                DedupPolicy::Individual => next_group += profile.count as u32,
                DedupPolicy::Grouped(groups) => next_group += groups.min(profile.count as u32),
            }
        }
        builder = builder.dedup_groups(next_group);

        let mut group_cursor: u32 = 0;
        for profile in &self.profiles {
            let groups_for_profile = match profile.dedup {
                DedupPolicy::None => 0,
                DedupPolicy::Individual => profile.count as u32,
                DedupPolicy::Grouped(groups) => groups.min(profile.count as u32),
            };
            for i in 0..profile.count {
                let group = match profile.dedup {
                    DedupPolicy::None => None,
                    DedupPolicy::Individual => Some(DedupGroupId::new(group_cursor + i as u32)),
                    DedupPolicy::Grouped(_) => Some(DedupGroupId::new(
                        group_cursor + (i as u32 % groups_for_profile.max(1)),
                    )),
                };
                builder = builder.sparse_with(
                    &format!("{}_{i}", profile.name_prefix),
                    profile.class,
                    profile.avg_len as f64,
                    profile.stay_prob,
                    profile.cardinality,
                    profile.embedding_dim,
                    group,
                );
            }
            group_cursor += groups_for_profile;
        }
        builder.build().expect("workload schema must be valid")
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::preset(WorkloadPreset::Small)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_valid_schemas() {
        for preset in [
            WorkloadPreset::Tiny,
            WorkloadPreset::Small,
            WorkloadPreset::Characterization,
        ] {
            let config = WorkloadConfig::preset(preset);
            let schema = config.schema();
            assert_eq!(schema.sparse_count(), config.sparse_feature_count());
            assert_eq!(schema.dense_count(), config.dense_features);
            assert!(schema.dedup_group_count() > 0);
        }
    }

    #[test]
    fn grouped_policy_assigns_round_robin() {
        let config = WorkloadConfig::preset(WorkloadPreset::Small);
        let schema = config.schema();
        // The 4 user_seq features are spread over 2 groups, 2 features each.
        let groups = schema.groups();
        let seq_groups: Vec<_> = groups
            .iter()
            .filter(|(_, members)| members.len() == 2)
            .collect();
        assert_eq!(seq_groups.len(), 2);
        // Item features are never deduplicated.
        for spec in schema.sparse_features() {
            if spec.name.starts_with("item") {
                assert!(spec.dedup_group.is_none());
            } else {
                assert!(spec.dedup_group.is_some());
            }
        }
    }

    #[test]
    fn builder_overrides() {
        let config = WorkloadConfig::default().with_sessions(10).with_seed(99);
        assert_eq!(config.sessions, 10);
        assert_eq!(config.seed, 99);
    }

    #[test]
    fn individual_policy_gives_each_feature_its_own_group() {
        let config = WorkloadConfig {
            profiles: vec![FeatureProfile::user_elementwise(5)],
            ..WorkloadConfig::preset(WorkloadPreset::Tiny)
        };
        let schema = config.schema();
        assert_eq!(schema.dedup_group_count(), 5);
        for (_, members) in schema.groups() {
            assert_eq!(members.len(), 1);
        }
    }
}
