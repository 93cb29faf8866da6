//! The hybrid-parallel performance model of the trainer tier.
//!
//! Absolute GPU-cluster performance cannot be measured in this repository, so
//! the experiments that depend on it (Figures 7–9, Table 2, the single-node
//! study) are driven by a cost model: real byte / lookup / FLOP counts are
//! extracted from converted batches ([`WorkStats`]) and pushed through a
//! hardware model parameterized with the ZionEX numbers from §6.1
//! ([`ClusterSpec`]). The model captures what the paper's measurements hinge
//! on — how much data crosses the network in each all-to-all, how many
//! embedding rows are touched, how much pooling compute runs, and how much of
//! the communication can hide under compute.

use crate::dlrm::DlrmConfig;
use crate::pooling::PoolingKind;
use recd_core::ConvertedBatch;
use serde::{Deserialize, Serialize};

/// Per-GPU hardware characteristics.
///
/// The defaults are *scaled-down* A100 figures: the synthetic workloads in
/// this repository are roughly two orders of magnitude smaller per sample
/// than the production workloads in the paper, so the hardware model is
/// scaled by the same factor (keeping the compute-to-bandwidth ratios in the
/// same regime) so that iterations sit in the same bandwidth-bound /
/// compute-bound balance the paper reports. DESIGN.md records this
/// substitution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Sustainable compute throughput in FLOP/s.
    pub flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bandwidth: f64,
    /// HBM capacity in bytes.
    pub hbm_capacity: f64,
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self {
            flops: 1.0e12,
            hbm_bandwidth: 20e9,
            hbm_capacity: 0.5e9,
        }
    }
}

/// Cluster-level characteristics (defaults approximate a ZionEX node fleet:
/// 8 A100s per node, NVLink intra-node, 200 Gbps RoCE per GPU inter-node).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Per-GPU characteristics.
    pub gpu: GpuSpec,
    /// Total GPUs participating in training.
    pub gpus: usize,
    /// GPUs per node (all-to-alls within a node ride NVLink).
    pub gpus_per_node: usize,
    /// Per-GPU NVLink bandwidth in bytes/s.
    pub nvlink_bandwidth: f64,
    /// Per-GPU inter-node NIC bandwidth in bytes/s (200 Gbps RoCE = 25 GB/s).
    pub nic_bandwidth: f64,
    /// Fixed latency per collective operation, in seconds.
    pub collective_latency: f64,
    /// Fraction of all-to-all time that can be hidden under compute.
    pub overlap_fraction: f64,
}

impl ClusterSpec {
    /// A multi-node ZionEX-like cluster with the given number of GPUs.
    pub fn zionex(gpus: usize) -> Self {
        Self {
            gpu: GpuSpec::default(),
            gpus: gpus.max(1),
            gpus_per_node: 8,
            nvlink_bandwidth: 8e9,
            nic_bandwidth: 1.0e9,
            collective_latency: 10e-6,
            overlap_fraction: 0.6,
        }
    }

    /// A single ZionEX node (8 GPUs, NVLink-only collectives).
    pub fn single_node() -> Self {
        Self::zionex(8)
    }

    /// Effective per-GPU all-to-all bandwidth: NVLink when the job fits in
    /// one node, the NIC otherwise.
    pub fn a2a_bandwidth(&self) -> f64 {
        if self.gpus <= self.gpus_per_node {
            self.nvlink_bandwidth
        } else {
            self.nic_bandwidth
        }
    }
}

/// Which trainer-side RecD optimizations are active when deriving work
/// counts (the knobs of the Figure 9 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrainerOptimizations {
    /// O5: deduplicated EMB lookups, activations, and EMB-output all-to-all.
    pub dedup_emb: bool,
    /// O6: jagged index select (vs densify-then-select).
    pub jagged_index_select: bool,
    /// O7: deduplicated compute for sequence pooling modules.
    pub dedup_compute: bool,
}

impl TrainerOptimizations {
    /// Every trainer optimization enabled (full RecD).
    pub fn all() -> Self {
        Self {
            dedup_emb: true,
            jagged_index_select: true,
            dedup_compute: true,
        }
    }

    /// No trainer optimization enabled (baseline).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Work counts for one global-batch training iteration, derived from a
/// converted batch and the model architecture.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkStats {
    /// Samples in the global batch.
    pub batch_size: usize,
    /// Bytes of sparse `values`/`offsets` crossing the SDD all-to-all.
    pub sdd_bytes: f64,
    /// Embedding rows looked up.
    pub emb_lookups: f64,
    /// Bytes of embedding activations materialized.
    pub emb_activation_bytes: f64,
    /// FLOPs spent in pooling modules.
    pub pooling_flops: f64,
    /// FLOPs spent in MLPs and the interaction.
    pub mlp_flops: f64,
    /// Bytes of pooled embeddings crossing the second all-to-all.
    pub emb_output_a2a_bytes: f64,
    /// Bytes of transient memory traffic for the IKJT→KJT index select.
    pub index_select_bytes: f64,
    /// Bytes exchanged by the MLP gradient all-reduce.
    pub allreduce_bytes: f64,
}

impl WorkStats {
    /// Derives the iteration work from a converted batch, the model
    /// architecture, and the active trainer optimizations.
    pub fn from_batch(
        batch: &ConvertedBatch,
        model: &DlrmConfig,
        opts: TrainerOptimizations,
    ) -> Self {
        let dim = model.embedding_dim as f64;
        let batch_size = batch.batch_size;
        let rows = batch_size as f64;

        let mut sdd_bytes = batch.kjt.payload_bytes() as f64;
        let mut emb_lookups = batch.kjt.value_count() as f64;
        let mut pooled_outputs = batch.kjt.feature_count() as f64 * rows;
        let mut pooling_flops = 0.0;
        let mut index_select_bytes = 0.0;

        // Pooling FLOPs for KJT features (never deduplicated).
        for (feature, tensor) in batch.kjt.iter() {
            let kind = pooling_kind(model, feature);
            for row in tensor.iter() {
                pooling_flops += kind.flops_per_row(row.len(), model.embedding_dim) as f64;
            }
        }

        for ikjt in &batch.ikjts {
            // SDD ships the slot tensors as they are, windows included; the
            // inverse lookup stays local.
            sdd_bytes += ikjt.payload_bytes() as f64;

            // Every slot's whole list is looked up, windowed or not: the
            // trainer reads slots, not the pool they may share.
            let slot_values: usize = ikjt
                .iter()
                .map(|(_, tensor)| tensor.offsets()[tensor.row_count()])
                .sum();
            let slot_values = slot_values as f64;
            let logical_values = ikjt.original_value_count() as f64;
            let slots = ikjt.slot_count() as f64;
            let features = ikjt.keys().len() as f64;

            // O5: lookups/activations per slot instead of per row.
            if opts.dedup_emb {
                emb_lookups += slot_values;
                pooled_outputs += features * slots;
            } else {
                emb_lookups += logical_values;
                pooled_outputs += features * rows;
            }

            // O7: sequence-module compute per slot instead of per row.
            for &feature in ikjt.keys() {
                let kind = pooling_kind(model, feature);
                let tensor = ikjt.feature(feature).expect("feature in its own group");
                let per_slot: f64 = tensor
                    .iter()
                    .map(|row| kind.flops_per_row(row.len(), model.embedding_dim) as f64)
                    .sum();
                if opts.dedup_compute && kind.is_sequence_module() {
                    pooling_flops += per_slot;
                } else if opts.dedup_emb && !kind.is_sequence_module() {
                    // Element-wise pooling rides the deduplicated lookups.
                    pooling_flops += per_slot;
                } else {
                    // Scale per-slot cost up to per-row cost.
                    let scale = if slots > 0.0 { rows / slots } else { 1.0 };
                    pooling_flops += per_slot * scale;
                }
            }

            // O6: converting IKJTs back to KJTs before interaction.
            for &feature in ikjt.keys() {
                let tensor = ikjt.feature(feature).expect("feature in its own group");
                if opts.jagged_index_select {
                    // Jagged gather touches each logical value once (8 bytes).
                    index_select_bytes += logical_values / features * 8.0;
                    let _ = tensor;
                } else {
                    // Densify to [slots, max_len] then select to [rows, max_len].
                    let max_len = tensor.max_row_len() as f64;
                    index_select_bytes += (slots + rows) * max_len * 8.0;
                }
            }
        }

        let emb_activation_bytes = emb_lookups * dim * 4.0;
        let emb_output_a2a_bytes = pooled_outputs * dim * 4.0;

        // Dense-side FLOPs per sample: bottom MLP, interaction, top MLP.
        let n_vectors = (model.sparse_feature_count() + 1) as f64;
        let bottom_flops: f64 = mlp_flops(model.dense_features, &model.bottom_mlp);
        let interaction_in = dim + n_vectors * (n_vectors - 1.0) / 2.0;
        let top_flops: f64 = mlp_flops(interaction_in as usize, &model.top_mlp);
        let interaction_flops = n_vectors * n_vectors * dim;
        let mlp_total = (bottom_flops + top_flops + interaction_flops) * rows * 3.0; // fwd + bwd

        // All-reduce over data-parallel MLP parameters (2x for ring).
        let mlp_params = mlp_param_count(model.dense_features, &model.bottom_mlp)
            + mlp_param_count(interaction_in as usize, &model.top_mlp);
        let allreduce_bytes = mlp_params as f64 * 4.0 * 2.0;

        Self {
            batch_size,
            sdd_bytes,
            emb_lookups,
            emb_activation_bytes,
            pooling_flops,
            mlp_flops: mlp_total,
            emb_output_a2a_bytes,
            index_select_bytes,
            allreduce_bytes,
        }
    }
}

fn pooling_kind(model: &DlrmConfig, feature: recd_data::FeatureId) -> PoolingKind {
    model
        .feature_pooling
        .iter()
        .find(|(f, _)| *f == feature)
        .map(|&(_, k)| k)
        .unwrap_or(PoolingKind::Sum)
}

fn mlp_flops(input: usize, hidden: &[usize]) -> f64 {
    let mut flops = 0.0;
    let mut prev = input.max(1);
    for &h in hidden {
        flops += 2.0 * prev as f64 * h as f64;
        prev = h;
    }
    flops
}

fn mlp_param_count(input: usize, hidden: &[usize]) -> usize {
    let mut params = 0;
    let mut prev = input.max(1);
    for &h in hidden {
        params += prev * h + h;
        prev = h;
    }
    params
}

/// The per-category exposed-latency breakdown of one iteration (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationBreakdown {
    /// Time spent in embedding lookups (HBM-bandwidth bound), seconds.
    pub emb_lookup: f64,
    /// Time spent in GEMM-style compute (MLPs, pooling, index select),
    /// seconds.
    pub gemm_compute: f64,
    /// Exposed (non-overlapped) all-to-all communication, seconds.
    pub a2a_exposed: f64,
    /// Other exposed time (all-reduce and miscellaneous), seconds.
    pub other: f64,
}

impl IterationBreakdown {
    /// Total exposed iteration latency in seconds.
    pub fn total(&self) -> f64 {
        self.emb_lookup + self.gemm_compute + self.a2a_exposed + self.other
    }
}

/// The modeled cost of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationCost {
    /// Exposed-latency breakdown.
    pub breakdown: IterationBreakdown,
    /// Total raw all-to-all time before overlap, seconds.
    pub a2a_total: f64,
    /// Training throughput in samples per second across the whole job.
    pub throughput: f64,
    /// Realized compute utilization (0–1) relative to peak FLOP/s.
    pub compute_utilization: f64,
}

impl IterationCost {
    /// Evaluates the hardware model for one iteration's work.
    pub fn evaluate(work: &WorkStats, cluster: &ClusterSpec) -> Self {
        let gpus = cluster.gpus.max(1) as f64;
        let a2a_bw = cluster.a2a_bandwidth();

        // Per-GPU shares.
        let sdd_time = work.sdd_bytes / gpus / a2a_bw + cluster.collective_latency;
        let emb_out_time = work.emb_output_a2a_bytes / gpus / a2a_bw + cluster.collective_latency;
        let allreduce_time = work.allreduce_bytes / a2a_bw + cluster.collective_latency;

        let emb_lookup_time = work.emb_activation_bytes / gpus / cluster.gpu.hbm_bandwidth;
        let compute_time = (work.pooling_flops + work.mlp_flops) / gpus / cluster.gpu.flops
            + work.index_select_bytes / gpus / cluster.gpu.hbm_bandwidth;

        let a2a_total = sdd_time + emb_out_time;
        let hidden = (compute_time * cluster.overlap_fraction).min(a2a_total);
        let a2a_exposed = a2a_total - hidden;
        // The MLP gradient all-reduce overlaps almost entirely with the
        // backward pass; only a small tail is exposed.
        let other = allreduce_time * 0.1;

        let breakdown = IterationBreakdown {
            emb_lookup: emb_lookup_time,
            gemm_compute: compute_time,
            a2a_exposed,
            other,
        };
        let total = breakdown.total().max(1e-12);
        let throughput = work.batch_size as f64 / total;
        let compute_utilization =
            ((work.pooling_flops + work.mlp_flops) / gpus / total / cluster.gpu.flops).min(1.0);
        Self {
            breakdown,
            a2a_total,
            throughput,
            compute_utilization,
        }
    }
}

/// GPU memory accounting for one configuration (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Embedding parameter bytes per GPU (model parallel).
    pub emb_param_bytes_per_gpu: f64,
    /// Peak activation bytes per GPU during the iteration.
    pub peak_activation_bytes_per_gpu: f64,
    /// Average activation bytes per GPU across the iteration.
    pub avg_activation_bytes_per_gpu: f64,
    /// Peak memory utilization (0–1).
    pub max_utilization: f64,
    /// Average memory utilization (0–1).
    pub avg_utilization: f64,
}

impl MemoryReport {
    /// Evaluates the memory model.
    ///
    /// `emb_param_bytes` is the total embedding-table parameter footprint of
    /// the model (sharded across GPUs).
    pub fn evaluate(work: &WorkStats, cluster: &ClusterSpec, emb_param_bytes: f64) -> Self {
        let gpus = cluster.gpus.max(1) as f64;
        let emb_param_bytes_per_gpu = emb_param_bytes / gpus;
        // Peak: activations + pooled outputs + index-select transients.
        let peak_activation_bytes_per_gpu =
            (work.emb_activation_bytes + work.emb_output_a2a_bytes + work.index_select_bytes)
                / gpus;
        let avg_activation_bytes_per_gpu = peak_activation_bytes_per_gpu * 0.6;
        let capacity = cluster.gpu.hbm_capacity;
        let max_utilization =
            ((emb_param_bytes_per_gpu + peak_activation_bytes_per_gpu) / capacity).min(1.0);
        let avg_utilization =
            ((emb_param_bytes_per_gpu + avg_activation_bytes_per_gpu) / capacity).min(1.0);
        Self {
            emb_param_bytes_per_gpu,
            peak_activation_bytes_per_gpu,
            avg_activation_bytes_per_gpu,
            max_utilization,
            avg_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_core::{DataLoaderConfig, FeatureConverter};
    use recd_data::ColumnarBatch;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
    use recd_etl::cluster_by_session;

    fn batch(dedup: bool) -> (recd_data::Schema, ConvertedBatch) {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let p = gen.generate_partition();
        let clustered = cluster_by_session(&p.samples);
        let rows = ColumnarBatch::from_samples(
            &clustered[..128.min(clustered.len())],
            p.schema.dense_count(),
            p.schema.sparse_count(),
        );
        let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&p.schema));
        let converted = if dedup {
            converter.convert_columnar(&rows).unwrap()
        } else {
            converter.convert_columnar_baseline(&rows).unwrap()
        };
        (p.schema, converted)
    }

    #[test]
    fn dedup_work_is_strictly_smaller() {
        let (schema, dedup_batch) = batch(true);
        let (_, baseline_batch) = batch(false);
        let model = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
        let recd = WorkStats::from_batch(&dedup_batch, &model, TrainerOptimizations::all());
        let base = WorkStats::from_batch(&baseline_batch, &model, TrainerOptimizations::none());
        assert!(recd.sdd_bytes < base.sdd_bytes);
        assert!(recd.emb_lookups < base.emb_lookups);
        assert!(recd.emb_activation_bytes < base.emb_activation_bytes);
        assert!(recd.pooling_flops < base.pooling_flops);
        assert!(recd.emb_output_a2a_bytes < base.emb_output_a2a_bytes);
        assert_eq!(recd.batch_size, base.batch_size);
        assert!(recd.mlp_flops > 0.0 && (recd.mlp_flops - base.mlp_flops).abs() < 1.0);
    }

    #[test]
    fn optimization_flags_govern_the_work_counts() {
        let (schema, dedup_batch) = batch(true);
        let model = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
        let none = WorkStats::from_batch(&dedup_batch, &model, TrainerOptimizations::none());
        let emb_only = WorkStats::from_batch(
            &dedup_batch,
            &model,
            TrainerOptimizations {
                dedup_emb: true,
                ..TrainerOptimizations::none()
            },
        );
        let all = WorkStats::from_batch(&dedup_batch, &model, TrainerOptimizations::all());
        assert!(emb_only.emb_lookups < none.emb_lookups);
        assert!(all.pooling_flops < emb_only.pooling_flops);
        // Dense index select (no O6) materializes more transient bytes.
        assert!(none.index_select_bytes > all.index_select_bytes);
    }

    #[test]
    fn cost_model_rewards_deduplication_with_higher_throughput() {
        let (schema, dedup_batch) = batch(true);
        let (_, baseline_batch) = batch(false);
        let model = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
        let cluster = ClusterSpec::zionex(48);
        let recd_cost = IterationCost::evaluate(
            &WorkStats::from_batch(&dedup_batch, &model, TrainerOptimizations::all()),
            &cluster,
        );
        let base_cost = IterationCost::evaluate(
            &WorkStats::from_batch(&baseline_batch, &model, TrainerOptimizations::none()),
            &cluster,
        );
        assert!(recd_cost.throughput > base_cost.throughput);
        assert!(recd_cost.breakdown.a2a_exposed <= base_cost.breakdown.a2a_exposed);
        assert!(recd_cost.breakdown.total() < base_cost.breakdown.total());
        assert!(base_cost.compute_utilization <= 1.0);
    }

    #[test]
    fn single_node_uses_nvlink_and_still_benefits() {
        let (schema, dedup_batch) = batch(true);
        let (_, baseline_batch) = batch(false);
        let model = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
        let node = ClusterSpec::single_node();
        assert!(node.a2a_bandwidth() > ClusterSpec::zionex(48).a2a_bandwidth());
        let recd = IterationCost::evaluate(
            &WorkStats::from_batch(&dedup_batch, &model, TrainerOptimizations::all()),
            &node,
        );
        let base = IterationCost::evaluate(
            &WorkStats::from_batch(&baseline_batch, &model, TrainerOptimizations::none()),
            &node,
        );
        assert!(recd.throughput > base.throughput);
    }

    #[test]
    fn memory_report_shrinks_with_dedup() {
        let (schema, dedup_batch) = batch(true);
        let (_, baseline_batch) = batch(false);
        let model = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
        let cluster = ClusterSpec::zionex(48);
        let emb_bytes = 1e9;
        let recd = MemoryReport::evaluate(
            &WorkStats::from_batch(&dedup_batch, &model, TrainerOptimizations::all()),
            &cluster,
            emb_bytes,
        );
        let base = MemoryReport::evaluate(
            &WorkStats::from_batch(&baseline_batch, &model, TrainerOptimizations::none()),
            &cluster,
            emb_bytes,
        );
        assert!(recd.max_utilization < base.max_utilization);
        assert!(recd.avg_utilization <= recd.max_utilization);
        assert!(base.max_utilization <= 1.0);
    }
}
