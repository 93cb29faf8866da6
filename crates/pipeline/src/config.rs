//! Pipeline configuration: the rungs of the RecD ablation ladder and the RM
//! model presets.

use recd_datagen::{FeatureProfile, WorkloadConfig, WorkloadPreset};
use recd_trainer::{ClusterSpec, PoolingKind, TrainerOptimizations};
use serde::{Deserialize, Serialize};

/// How much of RecD a pipeline run enables: one rung of the cumulative
/// ladder the paper's Figure 9 ablation climbs. Each rung keeps every
/// optimization (Table 1 of the paper) of the rungs below it, so rungs
/// compare in ladder order (`RecdConfig::ClusteredTable < RecdConfig::Full`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum RecdConfig {
    /// Nothing enabled.
    #[default]
    Baseline,
    /// O1 + O2: Scribe shards logs by session id, and the ETL clusters table
    /// partitions by session id.
    ClusteredTable,
    /// Adds O3–O6: the reader converts the configured feature groups to
    /// IKJTs and preprocesses them deduplicated; the trainer deduplicates
    /// EMB lookups, activations and the output all-to-all, and gathers rows
    /// with jagged index select.
    DedupEmb,
    /// Adds O7, deduplicated compute for sequence pooling modules: full
    /// RecD.
    Full,
}

impl RecdConfig {
    /// The ladder, bottom rung first.
    pub const LADDER: [RecdConfig; 4] = [
        RecdConfig::Baseline,
        RecdConfig::ClusteredTable,
        RecdConfig::DedupEmb,
        RecdConfig::Full,
    ];

    /// The baseline pipeline: nothing enabled.
    pub fn baseline() -> Self {
        Self::Baseline
    }

    /// The full RecD pipeline: everything enabled.
    pub fn full() -> Self {
        Self::Full
    }

    /// The rung's label in the Figure 9 ablation.
    pub fn label(self) -> &'static str {
        match self {
            RecdConfig::Baseline => "baseline",
            RecdConfig::ClusteredTable => "O1+O2 clustered table",
            RecdConfig::DedupEmb => "+O3-O6 dedup EMB + JIS",
            RecdConfig::Full => "+O7 dedup compute (full RecD)",
        }
    }

    /// The trainer-side optimizations (O5–O7) this rung enables.
    pub fn trainer_optimizations(self) -> TrainerOptimizations {
        TrainerOptimizations {
            dedup_emb: self >= RecdConfig::DedupEmb,
            dedup_compute: self >= RecdConfig::Full,
        }
    }
}

/// The three representative industrial models of the evaluation (§6.1),
/// scaled down to laptop size while preserving the architectural traits the
/// paper uses to explain their different gains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RmPreset {
    /// Many long sequence features in several IKJT groups, transformer
    /// pooling — the model that benefits most.
    Rm1,
    /// Fewer sequence features in one group, attention pooling; shares RM1's
    /// table.
    Rm2,
    /// Moderate sequence features, attention pooling, a table with fewer
    /// samples per session.
    Rm3,
}

impl RmPreset {
    /// All presets in paper order.
    pub fn all() -> [RmPreset; 3] {
        [RmPreset::Rm1, RmPreset::Rm2, RmPreset::Rm3]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            RmPreset::Rm1 => "RM1",
            RmPreset::Rm2 => "RM2",
            RmPreset::Rm3 => "RM3",
        }
    }

    /// Builds the full specification for this preset.
    pub fn spec(&self) -> RmSpec {
        match self {
            RmPreset::Rm1 => RmSpec {
                preset: *self,
                workload: rm_workload(16.5, 5, 8, 96, 11),
                embedding_dim: 64,
                sequence_pooling: PoolingKind::Transformer,
                baseline_batch: 512,
                recd_batch: 1536,
                gpus: 48,
                sessions: 280,
            },
            RmPreset::Rm2 => RmSpec {
                preset: *self,
                // Same table (same workload statistics and seed) as RM1.
                workload: rm_workload(16.5, 1, 3, 64, 11),
                embedding_dim: 64,
                sequence_pooling: PoolingKind::Attention,
                baseline_batch: 512,
                recd_batch: 512,
                gpus: 48,
                sessions: 280,
            },
            RmPreset::Rm3 => RmSpec {
                preset: *self,
                workload: rm_workload(6.0, 1, 6, 48, 23),
                embedding_dim: 64,
                sequence_pooling: PoolingKind::Attention,
                baseline_batch: 288,
                recd_batch: 512,
                gpus: 64,
                sessions: 400,
            },
        }
    }
}

fn rm_workload(
    samples_per_session: f64,
    seq_groups: u32,
    seq_features: usize,
    seq_len: usize,
    seed: u64,
) -> WorkloadConfig {
    WorkloadConfig {
        profiles: vec![
            FeatureProfile::user_sequence(seq_features, seq_len, seq_groups),
            FeatureProfile::user_elementwise(24),
            FeatureProfile::item(4),
        ],
        samples_per_session_mean: samples_per_session,
        seed,
        ..WorkloadConfig::preset(WorkloadPreset::Small)
    }
}

/// The full, concrete specification of one RM experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmSpec {
    /// Which preset this spec came from.
    pub preset: RmPreset,
    /// The dataset workload.
    pub workload: WorkloadConfig,
    /// Embedding dimension.
    pub embedding_dim: usize,
    /// Pooling used for sequence features.
    pub sequence_pooling: PoolingKind,
    /// Baseline global batch size.
    pub baseline_batch: usize,
    /// Batch size RecD's memory savings allow (paper §6.1).
    pub recd_batch: usize,
    /// Number of GPUs in the trainer tier.
    pub gpus: usize,
    /// Number of sessions generated for the experiment.
    pub sessions: usize,
}

impl RmSpec {
    /// The trainer-cluster specification for this RM.
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::zionex(self.gpus)
    }

    /// The workload with the experiment's session count applied.
    pub fn sized_workload(&self) -> WorkloadConfig {
        self.workload.clone().with_sessions(self.sessions)
    }

    /// A shrunken copy for fast tests (fewer sessions, smaller batches).
    #[must_use]
    pub fn scaled_down(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self.baseline_batch = self.baseline_batch.min(128);
        self.recd_batch = self.recd_batch.min(256);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_climbs_from_baseline_to_full() {
        assert_eq!(RecdConfig::LADDER[0], RecdConfig::baseline());
        assert_eq!(RecdConfig::LADDER[3], RecdConfig::full());
        assert!(RecdConfig::LADDER.windows(2).all(|pair| pair[0] < pair[1]));
        let opts = RecdConfig::LADDER.map(RecdConfig::trainer_optimizations);
        assert_eq!(opts[0], TrainerOptimizations::none());
        assert_eq!(opts[1], TrainerOptimizations::none());
        assert!(opts[2].dedup_emb && !opts[2].dedup_compute);
        assert_eq!(opts[3], TrainerOptimizations::all());
    }

    #[test]
    fn rm_presets_reflect_the_paper_traits() {
        let rm1 = RmPreset::Rm1.spec();
        let rm2 = RmPreset::Rm2.spec();
        let rm3 = RmPreset::Rm3.spec();
        // RM1 uses transformers and several groups; RM2/RM3 a single group.
        assert_eq!(rm1.sequence_pooling, PoolingKind::Transformer);
        assert!(rm1.recd_batch > rm1.baseline_batch);
        assert_eq!(rm2.recd_batch, rm2.baseline_batch);
        assert!(rm3.recd_batch > rm3.baseline_batch);
        // RM1 and RM2 share the same table statistics (same seed and S).
        assert_eq!(rm1.workload.seed, rm2.workload.seed);
        assert_eq!(
            rm1.workload.samples_per_session_mean,
            rm2.workload.samples_per_session_mean
        );
        assert!(rm3.workload.samples_per_session_mean < rm1.workload.samples_per_session_mean);
        for preset in RmPreset::all() {
            let spec = preset.spec();
            assert!(!preset.name().is_empty());
            assert!(spec.cluster().gpus >= 8);
            let small = spec.scaled_down(20);
            assert_eq!(small.sessions, 20);
            assert!(small.baseline_batch <= 128);
            // The workload schema must build.
            let schema = small.sized_workload().schema();
            assert!(schema.dedup_group_count() > 0);
        }
    }
}
