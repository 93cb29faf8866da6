//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (§3 and §6).
//!
//! Every driver returns a serializable report struct with a `render()`
//! method that prints the same rows/series the paper reports, so the
//! `experiments` binary (and the benches) can regenerate each artifact.
//! Absolute values differ from the paper (the substrate is a simulator, not
//! a ZionEX fleet); the *shape* — who wins and by roughly what factor — is
//! the reproduction target recorded in `EXPERIMENTS.md`.

use crate::config::{RecdConfig, RmPreset, RmSpec};
use crate::run::{evaluate_trainer, PipelineRunner};
use recd_core::{ConvertedBatch, DataLoaderConfig, DedupeModel, FeatureConverter};
use recd_data::{ColumnarBatch, Sample};
use recd_datagen::{
    characterize, CharacterizationReport, DatasetGenerator, WorkloadConfig, WorkloadPreset,
};
use recd_etl::cluster_by_session;
use recd_obs::ManualClock;
use recd_reader::{ReaderCostModel, ReaderMetrics};
use recd_scribe::{ScribeCluster, ScribeConfig, ShardKeyPolicy};
use recd_storage::{NodeConfig, PlacementPolicy, TableStore, TectonicSim};
use recd_trainer::{
    bce_loss, Dlrm, DlrmConfig, ExecutionMode, IterationCost, PoolingKind, TrainerOptimizations,
    WorkStats,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::Arc;

/// How large the experiment workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Fast, CI-sized runs (used by tests).
    Smoke,
    /// The default size used by the `experiments` binary.
    #[default]
    Full,
}

impl ExperimentScale {
    fn sessions(&self, full: usize) -> usize {
        match self {
            ExperimentScale::Smoke => (full / 4).max(30),
            ExperimentScale::Full => full,
        }
    }

    fn rm_spec(&self, preset: RmPreset) -> RmSpec {
        let spec = preset.spec();
        match self {
            ExperimentScale::Smoke => spec.scaled_down(60),
            ExperimentScale::Full => spec,
        }
    }

    fn batch(&self, full: usize) -> usize {
        match self {
            ExperimentScale::Smoke => full.min(128),
            ExperimentScale::Full => full,
        }
    }
}

// ---------------------------------------------------------------------------
// E1/E2: Figures 3 and 4 — dataset characterization.
// ---------------------------------------------------------------------------

/// Figures 3 and 4: samples-per-session histograms and per-feature exact /
/// partial duplication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationExperiment {
    /// The underlying characterization of the generated hourly partition.
    pub report: CharacterizationReport,
}

/// Runs the §3 dataset characterization (Figures 3 and 4).
pub fn characterization(scale: ExperimentScale) -> CharacterizationExperiment {
    let config = WorkloadConfig::preset(WorkloadPreset::Characterization)
        .with_sessions(scale.sessions(2_000));
    let generator = DatasetGenerator::new(config);
    let partition = generator.generate_partition();
    let report = characterize(&partition.schema, &partition.samples, 4096);
    CharacterizationExperiment { report }
}

impl CharacterizationExperiment {
    /// Renders the Figure 3 histograms.
    pub fn render_fig3(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 3 — samples per session (partition mean {:.2}, max {}; 4096-batch mean {:.2})",
            self.report.partition_histogram.mean,
            self.report.partition_histogram.max,
            self.report.batch_histogram.mean
        );
        let _ = writeln!(
            out,
            "{:>12} {:>18} {:>18}",
            "<= samples", "partition sessions", "batch sessions"
        );
        let bounds: Vec<u64> = self
            .report
            .partition_histogram
            .buckets
            .iter()
            .map(|&(b, _)| b)
            .collect();
        for bound in bounds {
            let p = self
                .report
                .partition_histogram
                .buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            let q = self
                .report
                .batch_histogram
                .buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            let _ = writeln!(out, "{bound:>12} {p:>18} {q:>18}");
        }
        out
    }

    /// Renders the Figure 4 per-feature duplication summary.
    pub fn render_fig4(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 4 — duplication across {} sparse features: mean exact {:.1}%, mean partial {:.1}%, byte-weighted exact {:.1}% / partial {:.1}% (paper: 80.0%, 83.9%, 81.6%, 89.4%)",
            self.report.per_feature.len(),
            self.report.mean_exact_fraction() * 100.0,
            self.report.mean_partial_fraction() * 100.0,
            self.report.weighted_exact_fraction * 100.0,
            self.report.weighted_partial_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "{:>28} {:>8} {:>10} {:>10}",
            "feature", "class", "exact %", "partial %"
        );
        for f in self.report.per_feature.iter().take(12) {
            let _ = writeln!(
                out,
                "{:>28} {:>8} {:>10.1} {:>10.1}",
                f.name,
                f.class.to_string(),
                f.exact_fraction * 100.0,
                f.partial_fraction * 100.0
            );
        }
        let _ = writeln!(
            out,
            "... ({} features total)",
            self.report.per_feature.len()
        );
        out
    }
}

// ---------------------------------------------------------------------------
// E3: Scribe compression (§6.1).
// ---------------------------------------------------------------------------

/// The Scribe log-sharding study: compression ratio with per-request vs
/// session-id shard keys (paper: 1.50× → 2.25×).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScribeExperiment {
    /// Compression ratio with the default per-request shard key.
    pub random_ratio: f64,
    /// Compression ratio when sharding by session id (O1).
    pub session_ratio: f64,
}

/// Runs the O1 log-sharding compression study.
pub fn scribe_compression(scale: ExperimentScale) -> ScribeExperiment {
    let config = WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(scale.sessions(400));
    let (records, _) = DatasetGenerator::new(config).generate_logs();
    let ratio_for = |policy| {
        let mut cluster = ScribeCluster::new(ScribeConfig {
            flush_bytes: 128 * 1024,
            ..ScribeConfig::with_policy(policy)
        });
        cluster.ingest_all(&records);
        cluster.flush();
        cluster.report().compression_ratio
    };
    ScribeExperiment {
        random_ratio: ratio_for(ShardKeyPolicy::RandomRequest),
        session_ratio: ratio_for(ShardKeyPolicy::SessionId),
    }
}

impl ScribeExperiment {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Scribe compression ratio: per-request sharding {:.2}x -> session-id sharding {:.2}x (paper: 1.50x -> 2.25x)\n",
            self.random_ratio, self.session_ratio
        )
    }
}

// ---------------------------------------------------------------------------
// E4: Figure 7 — end-to-end trainer / reader / storage improvements.
// ---------------------------------------------------------------------------

/// One RM's end-to-end improvement factors (Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// RM name.
    pub rm: String,
    /// Trainer throughput improvement (RecD / baseline).
    pub trainer_speedup: f64,
    /// Per-reader throughput improvement.
    pub reader_speedup: f64,
    /// Storage compression-ratio improvement.
    pub storage_improvement: f64,
    /// Measured in-batch dedupe factor under RecD.
    pub dedupe_factor: f64,
}

/// Figure 7 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Fig7Report {
    /// One row per RM.
    pub rows: Vec<Fig7Row>,
}

/// Runs the Figure 7 end-to-end comparison for every RM.
pub fn fig7(scale: ExperimentScale) -> Fig7Report {
    let rows = RmPreset::all()
        .into_iter()
        .map(|preset| {
            let spec = scale.rm_spec(preset);
            let baseline_batch = scale.batch(spec.baseline_batch);
            let recd_batch = scale.batch(spec.recd_batch);
            let baseline =
                PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(baseline_batch);
            let recd = PipelineRunner::new(spec, RecdConfig::full()).run(recd_batch);
            Fig7Row {
                rm: preset.name().to_string(),
                trainer_speedup: ratio(
                    recd.report.trainer.throughput,
                    baseline.report.trainer.throughput,
                ),
                reader_speedup: ratio(
                    ReaderCostModel::default()
                        .samples_per_cpu_second(&recd.report.dpp.reader_metrics),
                    ReaderCostModel::default()
                        .samples_per_cpu_second(&baseline.report.dpp.reader_metrics),
                ),
                storage_improvement: ratio(
                    recd.report.etl.storage.compression_ratio(),
                    baseline.report.etl.storage.compression_ratio(),
                ),
                dedupe_factor: recd.report.dedupe_factor,
            }
        })
        .collect();
    Fig7Report { rows }
}

impl Fig7Report {
    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 7 — end-to-end improvements, normalized to each RM's baseline (paper: trainer 2.48x/1.25x/1.43x, reader 1.79x/1.38x/1.36x, storage 3.71x/3.71x/2.06x)"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>16} {:>15} {:>20} {:>14}",
            "RM", "trainer speedup", "reader speedup", "storage improvement", "dedupe factor"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>5} {:>15.2}x {:>14.2}x {:>19.2}x {:>13.2}x",
                row.rm,
                row.trainer_speedup,
                row.reader_speedup,
                row.storage_improvement,
                row.dedupe_factor
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E5: Figure 8 — iteration latency breakdown at equal batch size.
// ---------------------------------------------------------------------------

/// One RM's normalized iteration-latency breakdown (Figure 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// RM name.
    pub rm: String,
    /// Baseline breakdown (fractions of the baseline total: EMB, GEMM, A2A,
    /// other).
    pub baseline: [f64; 4],
    /// RecD breakdown normalized to the baseline total.
    pub recd: [f64; 4],
}

/// Figure 8 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Fig8Report {
    /// One row per RM.
    pub rows: Vec<Fig8Row>,
}

fn breakdown_fractions(cost: &IterationCost, baseline_total: f64) -> [f64; 4] {
    [
        cost.breakdown.emb_lookup / baseline_total,
        cost.breakdown.gemm_compute / baseline_total,
        cost.breakdown.a2a_exposed / baseline_total,
        cost.breakdown.other / baseline_total,
    ]
}

/// Runs the Figure 8 iteration-latency breakdown: RecD vs baseline at the
/// *same* batch size for each RM.
pub fn fig8(scale: ExperimentScale) -> Fig8Report {
    let rows = RmPreset::all()
        .into_iter()
        .map(|preset| {
            let spec = scale.rm_spec(preset);
            let batch = scale.batch(spec.baseline_batch);
            let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(batch);
            let recd = PipelineRunner::new(spec, RecdConfig::full()).run(batch);
            let baseline_total = baseline.report.trainer.breakdown.total().max(1e-12);
            Fig8Row {
                rm: preset.name().to_string(),
                baseline: breakdown_fractions(&baseline.report.trainer, baseline_total),
                recd: breakdown_fractions(&recd.report.trainer, baseline_total),
            }
        })
        .collect();
    Fig8Report { rows }
}

impl Fig8Report {
    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 8 — exposed iteration latency breakdown, normalized to each RM's baseline (same batch size)"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "RM", "config", "EMB", "GEMM", "A2A", "other", "total"
        );
        for row in &self.rows {
            for (label, b) in [("baseline", row.baseline), ("RecD", row.recd)] {
                let _ = writeln!(
                    out,
                    "{:>5} {:>10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                    row.rm,
                    label,
                    b[0],
                    b[1],
                    b[2],
                    b[3],
                    b.iter().sum::<f64>()
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E6: Figure 9 — ablation study for RM1.
// ---------------------------------------------------------------------------

/// One rung of the Figure 9 ablation ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Configuration label.
    pub label: String,
    /// Batch size used at this rung.
    pub batch_size: usize,
    /// Trainer throughput normalized to the baseline.
    pub normalized_throughput: f64,
}

/// Figure 9 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Fig9Report {
    /// Ladder rungs in order.
    pub rows: Vec<Fig9Row>,
}

/// Runs the Figure 9 ablation on RM1: clustered table alone, dedup
/// EMB + jagged index select (larger batch), dedup compute, and finally the
/// full batch-size increase.
pub fn fig9(scale: ExperimentScale) -> Fig9Report {
    let spec = scale.rm_spec(RmPreset::Rm1);
    let base_batch = scale.batch(spec.baseline_batch);
    let mid_batch = scale.batch((spec.baseline_batch + spec.recd_batch) / 2);
    let big_batch = scale.batch(spec.recd_batch);

    // The dedup rungs' memory savings buy a larger batch.
    let mut plan: Vec<(String, RecdConfig, usize)> = RecdConfig::LADDER
        .into_iter()
        .map(|rung| {
            if rung >= RecdConfig::DedupEmb {
                (format!("{} (B{mid_batch})", rung.label()), rung, mid_batch)
            } else {
                (rung.label().to_string(), rung, base_batch)
            }
        })
        .collect();
    plan.push((
        format!("full RecD (B{big_batch})"),
        RecdConfig::Full,
        big_batch,
    ));

    let mut rows = Vec::new();
    let mut baseline_throughput = 0.0;
    for (label, config, batch) in plan {
        let report = PipelineRunner::new(spec.clone(), config).run(batch).report;
        if rows.is_empty() {
            baseline_throughput = report.trainer.throughput.max(1e-12);
        }
        rows.push(Fig9Row {
            label,
            batch_size: batch,
            normalized_throughput: report.trainer.throughput / baseline_throughput,
        });
    }
    Fig9Report { rows }
}

impl Fig9Report {
    /// Renders the ablation as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 9 — RM1 ablation, trainer throughput normalized to baseline (paper: 1.0, 1.0, 1.34, 2.42, 2.48)"
        );
        let _ = writeln!(
            out,
            "{:>36} {:>8} {:>12}",
            "configuration", "batch", "throughput"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>36} {:>8} {:>11.2}x",
                row.label, row.batch_size, row.normalized_throughput
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E7: Table 2 — trainer memory and compute efficiency for RM1.
// ---------------------------------------------------------------------------

/// One configuration row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Configuration label.
    pub config: String,
    /// Throughput normalized to the baseline.
    pub normalized_qps: f64,
    /// Peak GPU memory utilization (percent).
    pub max_memory_utilization: f64,
    /// Average GPU memory utilization (percent).
    pub avg_memory_utilization: f64,
    /// Realized compute efficiency normalized to the baseline.
    pub normalized_compute_efficiency: f64,
}

/// Table 2 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Table2Report {
    /// Rows in paper order.
    pub rows: Vec<Table2Row>,
}

/// Runs the Table 2 study on RM1: baseline, RecD, RecD with doubled
/// embedding dimension, RecD with the enlarged batch.
///
/// GPU memory capacity is normalized so the baseline configuration sits at
/// the paper's ≈99.9% peak utilization; the other rows are reported against
/// that same capacity.
pub fn table2(scale: ExperimentScale) -> Table2Report {
    let spec = scale.rm_spec(RmPreset::Rm1);
    let base_batch = scale.batch(spec.baseline_batch);
    let big_batch = scale.batch(spec.recd_batch);

    let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(base_batch);
    let recd = PipelineRunner::new(spec.clone(), RecdConfig::full()).run(base_batch);
    let recd_big = PipelineRunner::new(spec.clone(), RecdConfig::full()).run(big_batch);

    // RecD + doubled embedding dimension: rebuild the trainer model over the
    // RecD batches with dim x2.
    let wide_model =
        DlrmConfig::from_schema(&recd.schema, spec.embedding_dim * 2, spec.sequence_pooling);
    let (wide_cost, wide_memory, _) = evaluate_trainer(
        &recd.batches,
        &wide_model,
        TrainerOptimizations::all(),
        &spec.cluster(),
        base_batch,
    );

    // Normalize memory so the baseline peaks at 99.9%.
    let capacity_scale = baseline.report.memory.max_utilization.max(1e-12) / 0.999;
    let mem = |u: f64| (u / capacity_scale).min(1.0) * 100.0;
    let base_qps = baseline.report.trainer.throughput.max(1e-12);

    // Realized compute efficiency = *logical* FLOPs (the work the baseline
    // would execute for the same batches and model) per second. Dedup makes
    // the same logical work finish faster, so efficiency rises even though
    // fewer physical FLOPs run — matching how the paper reports FLOP/s/GPU.
    let logical_flops_per_sample = |artifacts: &crate::run::PipelineArtifacts,
                                    model: &DlrmConfig| {
        let batch = artifacts
            .batches
            .iter()
            .map(|b| &b.batch)
            .find(|b| b.batch_size > 0)
            .expect("at least one non-empty batch");
        let work = WorkStats::from_batch(batch, model, TrainerOptimizations::none());
        (work.pooling_flops + work.mlp_flops) / batch.batch_size.max(1) as f64
    };
    let efficiency =
        |artifacts: &crate::run::PipelineArtifacts, model: &DlrmConfig, cost: &IterationCost| {
            logical_flops_per_sample(artifacts, model) * cost.throughput
        };
    let base_eff = efficiency(&baseline, &baseline.model, &baseline.report.trainer).max(1e-12);

    let rows = vec![
        Table2Row {
            config: "Baseline".to_string(),
            normalized_qps: 1.0,
            max_memory_utilization: mem(baseline.report.memory.max_utilization),
            avg_memory_utilization: mem(baseline.report.memory.avg_utilization),
            normalized_compute_efficiency: 1.0,
        },
        Table2Row {
            config: "RecD".to_string(),
            normalized_qps: recd.report.trainer.throughput / base_qps,
            max_memory_utilization: mem(recd.report.memory.max_utilization),
            avg_memory_utilization: mem(recd.report.memory.avg_utilization),
            normalized_compute_efficiency: efficiency(&recd, &recd.model, &recd.report.trainer)
                / base_eff,
        },
        Table2Row {
            config: format!("RecD + EMB D{}", spec.embedding_dim * 2),
            normalized_qps: wide_cost.throughput / base_qps,
            max_memory_utilization: mem(wide_memory.max_utilization),
            avg_memory_utilization: mem(wide_memory.avg_utilization),
            normalized_compute_efficiency: efficiency(&recd, &wide_model, &wide_cost) / base_eff,
        },
        Table2Row {
            config: format!("RecD + B{big_batch}"),
            normalized_qps: recd_big.report.trainer.throughput / base_qps,
            max_memory_utilization: mem(recd_big.report.memory.max_utilization),
            avg_memory_utilization: mem(recd_big.report.memory.avg_utilization),
            normalized_compute_efficiency: efficiency(
                &recd_big,
                &recd_big.model,
                &recd_big.report.trainer,
            ) / base_eff,
        },
    ];
    Table2Report { rows }
}

impl Table2Report {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 2 — RM1 trainer throughput and efficiency (paper: QPS 1.00/1.89/1.55/2.26, max mem 99.9/27.8/40.9/91.8)"
        );
        let _ = writeln!(
            out,
            "{:>22} {:>10} {:>12} {:>12} {:>12}",
            "config", "norm QPS", "max mem %", "avg mem %", "norm FLOP/s"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>22} {:>10.2} {:>12.2} {:>12.2} {:>12.2}",
                row.config,
                row.normalized_qps,
                row.max_memory_utilization,
                row.avg_memory_utilization,
                row.normalized_compute_efficiency
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E8: Table 3 — reader ingest and egress bytes.
// ---------------------------------------------------------------------------

/// One configuration row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Configuration label.
    pub config: String,
    /// Bytes readers fetched from storage.
    pub read_bytes: usize,
    /// Bytes readers sent toward trainers.
    pub send_bytes: usize,
}

/// Table 3 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Table3Report {
    /// Rows in paper order (baseline, with clustering, with IKJT).
    pub rows: Vec<Table3Row>,
}

/// Runs the Table 3 study: reader read/send bytes for a fixed set of
/// samples under baseline, +clustered table, and +IKJT configurations.
pub fn table3(scale: ExperimentScale) -> Table3Report {
    let spec = scale.rm_spec(RmPreset::Rm1);
    let batch = scale.batch(spec.baseline_batch);

    // The reader and storage bytes depend on O1–O3 alone, so "with IKJT"
    // (O1–O4 in the paper) runs at the O1–O6 rung.
    let rows = [
        ("Baseline", RecdConfig::Baseline),
        ("with Cluster", RecdConfig::ClusteredTable),
        ("with IKJT", RecdConfig::DedupEmb),
    ]
    .into_iter()
    .map(|(label, config)| {
        let report = PipelineRunner::new(spec.clone(), config).run(batch).report;
        Table3Row {
            config: label.to_string(),
            read_bytes: report.read_bytes,
            send_bytes: report.dpp.egress_bytes,
        }
    })
    .collect();
    Table3Report { rows }
}

impl Table3Report {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 3 — reader ingest & egress bytes for a fixed sample count (paper: read 538/179/179 GB, send 837/837/713 GB)"
        );
        let _ = writeln!(
            out,
            "{:>14} {:>14} {:>14}",
            "config", "read MiB", "send MiB"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>14} {:>14.2} {:>14.2}",
                row.config,
                row.read_bytes as f64 / (1024.0 * 1024.0),
                row.send_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E9: Figure 10 — reader CPU-time breakdown.
// ---------------------------------------------------------------------------

/// One RM's reader CPU breakdown (Figure 10), normalized to its baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Row {
    /// RM name.
    pub rm: String,
    /// Baseline per-sample CPU fractions `(fill, convert, process)` — sums
    /// to 1.0.
    pub baseline: (f64, f64, f64),
    /// RecD per-sample CPU time by phase, normalized to the baseline total.
    pub recd: (f64, f64, f64),
}

/// Figure 10 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Fig10Report {
    /// One row per RM.
    pub rows: Vec<Fig10Row>,
}

/// Runs the Figure 10 reader CPU breakdown for every RM.
pub fn fig10(scale: ExperimentScale) -> Fig10Report {
    let rows = RmPreset::all()
        .into_iter()
        .map(|preset| {
            let spec = scale.rm_spec(preset);
            let batch = scale.batch(spec.baseline_batch);
            let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(batch);
            let recd = PipelineRunner::new(spec, RecdConfig::full()).run(batch);
            let cost_model = ReaderCostModel::default();
            let b = baseline.report.dpp.reader_metrics;
            let r = recd.report.dpp.reader_metrics;
            let b_total = cost_model.nanos_per_sample(&b).max(1e-9);
            let per_sample = |m: ReaderMetrics| {
                let samples = m.samples.max(1) as f64;
                let (fill, convert, process) = cost_model.phase_nanos(&m);
                (
                    fill / samples / b_total,
                    convert / samples / b_total,
                    process / samples / b_total,
                )
            };
            Fig10Row {
                rm: preset.name().to_string(),
                baseline: per_sample(b),
                recd: per_sample(r),
            }
        })
        .collect();
    Fig10Report { rows }
}

impl Fig10Report {
    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 10 — reader CPU time per sample by phase, normalized to each RM's baseline total"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>8} {:>9} {:>9} {:>8}",
            "RM", "config", "fill", "convert", "process", "total"
        );
        for row in &self.rows {
            for (label, (fill, convert, process)) in
                [("baseline", row.baseline), ("RecD", row.recd)]
            {
                let _ = writeln!(
                    out,
                    "{:>5} {:>10} {:>8.3} {:>9.3} {:>9.3} {:>8.3}",
                    row.rm,
                    label,
                    fill,
                    convert,
                    process,
                    fill + convert + process
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E10: Table 4 — per-optimization impact summary for RM1.
// ---------------------------------------------------------------------------

/// One optimization's measured impact (Table 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Optimization id (O1–O7).
    pub optimization: String,
    /// Measured effect, phrased like the paper's table.
    pub effect: String,
}

/// Table 4 report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Table4Report {
    /// Rows in optimization order.
    pub rows: Vec<Table4Row>,
}

/// Builds the Table 4 summary from the other experiments' outputs.
pub fn table4(scale: ExperimentScale) -> Table4Report {
    let scribe = scribe_compression(scale);
    let spec = scale.rm_spec(RmPreset::Rm1);
    let batch = scale.batch(spec.baseline_batch);

    let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(batch);
    let clustered = PipelineRunner::new(spec.clone(), RecdConfig::ClusteredTable).run(batch);
    // Only reader numbers are read from this run (O3, O4), and those do not
    // depend on the trainer-side rungs.
    let ikjt = PipelineRunner::new(spec.clone(), RecdConfig::DedupEmb).run(batch);
    let fig9_report = fig9(scale);

    let cost_model = ReaderCostModel::default();
    let (baseline_fill, _, _) = cost_model.phase_nanos(&baseline.report.dpp.reader_metrics);
    let (clustered_fill, clustered_convert, clustered_process) =
        cost_model.phase_nanos(&clustered.report.dpp.reader_metrics);
    let (_, ikjt_convert, ikjt_process) = cost_model.phase_nanos(&ikjt.report.dpp.reader_metrics);
    let fill_reduction = 1.0 - clustered_fill / baseline_fill.max(1.0);
    let convert_overhead = ikjt_convert / clustered_convert.max(1.0) - 1.0;
    let process_reduction = 1.0 - ikjt_process / clustered_process.max(1.0);

    let ladder_throughput = |idx: usize| {
        fig9_report
            .rows
            .get(idx)
            .map(|r| r.normalized_throughput)
            .unwrap_or(1.0)
    };

    let rows = vec![
        Table4Row {
            optimization: "O1".to_string(),
            effect: format!(
                "Storage: improves Scribe compression from {:.2}x to {:.2}x",
                scribe.random_ratio, scribe.session_ratio
            ),
        },
        Table4Row {
            optimization: "O2".to_string(),
            effect: format!(
                "Storage: improves table compression by {:.2}x. Reader: reduces fill CPU time by {:.0}%",
                clustered.report.etl.storage.compression_ratio()
                    / baseline.report.etl.storage.compression_ratio(),
                fill_reduction * 100.0
            ),
        },
        Table4Row {
            optimization: "O3".to_string(),
            effect: format!(
                "Enables O4-O6. Reader: increases convert CPU time by {:.0}%",
                convert_overhead.max(0.0) * 100.0
            ),
        },
        Table4Row {
            optimization: "O4".to_string(),
            effect: format!(
                "Enables O5-O6. Reader: reduces process CPU time by {:.0}%",
                process_reduction.max(0.0) * 100.0
            ),
        },
        Table4Row {
            optimization: "O5+O6".to_string(),
            effect: format!(
                "Trainer: improves training throughput by {:.2}x",
                ladder_throughput(2)
            ),
        },
        Table4Row {
            optimization: "O7".to_string(),
            effect: format!(
                "Trainer: improves training throughput by {:.2}x (with larger batch: {:.2}x)",
                ladder_throughput(3),
                ladder_throughput(4)
            ),
        },
    ];
    Table4Report { rows }
}

impl Table4Report {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Table 4 — per-optimization impact summary (RM1)");
        for row in &self.rows {
            let _ = writeln!(out, "{:>6}: {}", row.optimization, row.effect);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E11: single-node training (§6.2).
// ---------------------------------------------------------------------------

/// The single-node study (paper: 2.18× on one ZionEX node).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleNodeReport {
    /// Throughput improvement on one 8-GPU node.
    pub speedup: f64,
}

/// Runs the single-node study: RM1 downsized to one node.
pub fn single_node(scale: ExperimentScale) -> SingleNodeReport {
    let mut spec = scale.rm_spec(RmPreset::Rm1);
    spec.gpus = 8;
    let batch = scale.batch(spec.baseline_batch);
    let baseline = PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(batch);
    let recd = PipelineRunner::new(spec, RecdConfig::full()).run(batch);
    SingleNodeReport {
        speedup: ratio(
            recd.report.trainer.throughput,
            baseline.report.trainer.throughput,
        ),
    }
}

impl SingleNodeReport {
    /// Renders the result.
    pub fn render(&self) -> String {
        format!(
            "Single-node training: RecD improves throughput by {:.2}x on one 8-GPU node (paper: 2.18x)\n",
            self.speedup
        )
    }
}

// ---------------------------------------------------------------------------
// E12: DedupeFactor analytical sweep (§4.2).
// ---------------------------------------------------------------------------

/// One point of the DedupeFactor sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DedupeFactorRow {
    /// Samples per session `S`.
    pub samples_per_session: f64,
    /// Stay probability `d(f)`.
    pub stay_prob: f64,
    /// Analytical dedupe factor.
    pub analytical: f64,
    /// Measured dedupe factor on a generated batch with those statistics.
    pub measured: f64,
}

/// DedupeFactor sweep report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DedupeFactorReport {
    /// Sweep rows.
    pub rows: Vec<DedupeFactorRow>,
}

/// Sweeps the analytical DedupeFactor model over `S` and `d(f)` and checks it
/// against measured batches.
pub fn dedupe_factor_sweep(scale: ExperimentScale) -> DedupeFactorReport {
    let batch_size = 512;
    let mut rows = Vec::new();
    for &s in &[2.0f64, 8.0, 16.5] {
        for &d in &[0.5f64, 0.9, 0.98] {
            let analytical = DedupeModel::new(batch_size, s).dedupe_factor(64.0, d);

            // Generate a workload with exactly these statistics and measure.
            let config = WorkloadConfig {
                sessions: scale.sessions(200),
                samples_per_session_mean: s,
                samples_per_session_sigma: 0.4,
                profiles: vec![recd_datagen::FeatureProfile {
                    stay_prob: d,
                    avg_len: 64,
                    ..recd_datagen::FeatureProfile::user_sequence(1, 64, 1)
                }],
                ..WorkloadConfig::preset(WorkloadPreset::Tiny)
            };
            let generator = DatasetGenerator::new(config);
            let partition = generator.generate_partition();
            let clustered = cluster_by_session(&partition.samples);
            let schema = generator.schema().clone();
            let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&schema));
            let take = batch_size.min(clustered.len());
            let batch = ColumnarBatch::from_samples(
                &clustered[..take],
                schema.dense_count(),
                schema.sparse_count(),
            );
            let converted = converter
                .convert_columnar(&batch)
                .expect("conversion of generated batch succeeds");
            rows.push(DedupeFactorRow {
                samples_per_session: s,
                stay_prob: d,
                analytical,
                measured: converted.dedupe_factor(),
            });
        }
    }
    DedupeFactorReport { rows }
}

impl DedupeFactorReport {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "DedupeFactor model (analytical vs measured, l(f)=64, B=512)"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>12} {:>10}",
            "S", "d(f)", "analytical", "measured"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>6.1} {:>6.2} {:>11.2}x {:>9.2}x",
                row.samples_per_session, row.stay_prob, row.analytical, row.measured
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E13: accuracy neutrality (§6.2 "Impacts to Accuracy").
// ---------------------------------------------------------------------------

/// The accuracy-neutrality check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Final training loss on baseline (KJT) batches.
    pub baseline_loss: f32,
    /// Final training loss on deduplicated (IKJT) batches.
    pub dedup_loss: f32,
    /// Evaluation loss when training on interleaved (unclustered) batches.
    pub interleaved_eval_loss: f32,
    /// Evaluation loss when training on clustered batches.
    pub clustered_eval_loss: f32,
}

/// Trains the executable DLRM to check that (a) IKJT and KJT batches produce
/// identical training, and (b) clustering does not hurt (the paper argues it
/// helps generalization by avoiding repeated sparse updates).
pub fn accuracy(scale: ExperimentScale) -> AccuracyReport {
    let config = WorkloadConfig::preset(WorkloadPreset::Tiny).with_sessions(scale.sessions(120));
    let generator = DatasetGenerator::new(config);
    let partition = generator.generate_partition();
    let schema = generator.schema().clone();
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&schema));

    let clustered = cluster_by_session(&partition.samples);
    let make_batches = |samples: &[Sample], dedup: bool| {
        samples
            .chunks(64)
            .map(|chunk| {
                let batch =
                    ColumnarBatch::from_samples(chunk, schema.dense_count(), schema.sparse_count());
                if dedup {
                    converter.convert_columnar(&batch)
                } else {
                    converter.convert_columnar_baseline(&batch)
                }
                .expect("conversion succeeds")
            })
            .collect::<Vec<_>>()
    };

    let model_config = DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum);
    // A fresh model trained for three epochs over `batches` (empty ones
    // skipped), with its last step's loss.
    let train = |batches: &[ConvertedBatch], mode: ExecutionMode| {
        let mut model = Dlrm::new(model_config.clone());
        let mut last = 0.0;
        for _ in 0..3 {
            for batch in batches.iter().filter(|b| b.batch_size > 0) {
                last = model.train_step(batch, mode);
            }
        }
        (model, last)
    };

    let dedup_batches = make_batches(&clustered, true);
    let baseline_batches = make_batches(&clustered, false);
    let interleaved_batches = make_batches(&partition.samples, false);

    // Held-out evaluation uses the last quarter of the clustered batches:
    // the mean BCE over every evaluated row, parameters left as trained.
    let split = (dedup_batches.len() * 3 / 4).max(1);
    let eval_loss = |train_batches: &[ConvertedBatch], eval: &[ConvertedBatch]| {
        let (mut model, _) = train(train_batches, ExecutionMode::Baseline);
        let (mut total, mut count) = (0.0f32, 0usize);
        for batch in eval {
            let (probs, _) = model.forward(batch, ExecutionMode::Baseline);
            for (p, &label) in probs.iter().zip(&batch.labels) {
                total += bce_loss(*p, label);
                count += 1;
            }
        }
        total / count.max(1) as f32
    };

    AccuracyReport {
        baseline_loss: train(&baseline_batches, ExecutionMode::Baseline).1,
        dedup_loss: train(&dedup_batches, ExecutionMode::Deduplicated).1,
        interleaved_eval_loss: eval_loss(
            &interleaved_batches[..split.min(interleaved_batches.len())],
            &baseline_batches[split.min(baseline_batches.len() - 1)..],
        ),
        clustered_eval_loss: eval_loss(
            &baseline_batches[..split.min(baseline_batches.len())],
            &baseline_batches[split.min(baseline_batches.len() - 1)..],
        ),
    }
}

impl AccuracyReport {
    /// Renders the check.
    pub fn render(&self) -> String {
        format!(
            "Accuracy neutrality: training loss KJT {:.4} vs IKJT {:.4} (must match); eval loss interleaved {:.4} vs clustered {:.4}\n",
            self.baseline_loss, self.dedup_loss, self.interleaved_eval_loss, self.clustered_eval_loss
        )
    }
}

// ---------------------------------------------------------------------------
// Storage realism: load balance across placement policies + cache-size sweep.
// ---------------------------------------------------------------------------

/// One placement policy measured under the per-node queue model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageBalanceRow {
    /// Placement policy name.
    pub policy: String,
    /// Files landed (one blob each).
    pub files: usize,
    /// Max/mean stored bytes across nodes (1.0 = perfectly balanced).
    pub byte_spread: f64,
    /// Max/mean queue ops across nodes.
    pub op_spread: f64,
    /// Mean virtual-time queue wait per op, in milliseconds.
    pub mean_wait_ms: f64,
}

/// Storage load-balance experiment: the same landed partition + read pass
/// under each [`PlacementPolicy`], on a queue-enabled store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageBalanceReport {
    /// Storage nodes in the simulated cluster.
    pub nodes: usize,
    /// One row per placement policy.
    pub rows: Vec<StorageBalanceRow>,
}

/// Lands one partition and reads every file back under each placement
/// policy, with the per-node queue model active on a frozen clock so queue
/// waits are pure virtual-time accounting (deterministic: every op enqueues
/// at t=0, so waits depend only on per-node op counts and blob sizes, not
/// on scheduler jitter).
pub fn storage_load_balance(scale: ExperimentScale) -> StorageBalanceReport {
    let nodes = 4;
    let node = NodeConfig::new(10_000.0, 256.0 * 1024.0 * 1024.0);
    let config = WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(scale.sessions(160));
    let partition = DatasetGenerator::new(config).generate_partition();

    let policies = [
        ("hash-path", PlacementPolicy::HashPath),
        ("round-robin", PlacementPolicy::RoundRobin),
        ("least-loaded", PlacementPolicy::LeastLoadedBytes),
    ];
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let sim = TectonicSim::new(nodes)
            .with_placement(policy)
            .with_node_config(node)
            .with_queue_clock(Arc::new(ManualClock::new()));
        let store = TableStore::new(sim, 16, 1);
        let (stored, report) =
            store.land_partition(&partition.schema, "balance", 0, &partition.samples);
        for path in &stored.files {
            store
                .blob_store()
                .get(path)
                .expect("landed blob must read back");
        }
        let stats = store.blob_store().node_stats();
        let bytes: Vec<f64> = stats.iter().map(|n| n.stored_bytes as f64).collect();
        let ops: Vec<f64> = stats.iter().map(|n| n.ops as f64).collect();
        rows.push(StorageBalanceRow {
            policy: name.to_string(),
            files: report.files,
            byte_spread: spread(&bytes),
            op_spread: spread(&ops),
            mean_wait_ms: store.blob_store().mean_queue_wait().as_secs_f64() * 1e3,
        });
    }
    StorageBalanceReport { nodes, rows }
}

impl StorageBalanceReport {
    /// The gated figure: mean queue wait under the default hash placement.
    pub fn hash_wait_ms(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.policy == "hash-path")
            .map_or(0.0, |r| r.mean_wait_ms)
    }

    /// Renders the per-policy table plus the derived line the bench
    /// snapshot extracts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Storage load balance ({} nodes, per-node queue model, frozen clock):",
            self.nodes
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<13} {:>4} files  byte-spread {:.2}x  op-spread {:.2}x  mean wait {:.3} ms",
                row.policy, row.files, row.byte_spread, row.op_spread, row.mean_wait_ms
            );
        }
        let _ = writeln!(
            out,
            "derived storage_load_balance_wait_ms {:.4}",
            self.hash_wait_ms()
        );
        out
    }
}

/// One cache capacity in the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSweepRow {
    /// Cache byte budget (0 = disabled).
    pub capacity_bytes: usize,
    /// Fraction of gets served from the cache.
    pub hit_ratio: f64,
    /// Entries evicted to stay within the budget.
    pub evictions: u64,
    /// Ops that reached the node queues (misses + puts).
    pub queue_ops: u64,
}

/// Cache-size sweep: the same read workload against increasing cache
/// capacities on a queue-enabled store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSweepReport {
    /// Bytes landed in the blob store (the working set).
    pub total_blob_bytes: usize,
    /// Full scans of the partition per capacity.
    pub passes: usize,
    /// One row per capacity, smallest first.
    pub rows: Vec<CacheSweepRow>,
}

/// Sweeps the blob-cache byte budget from disabled to twice the working
/// set. The access pattern is `passes` sequential scans with a hot quarter
/// of the files re-read twice on touch, so small caches capture only the
/// intra-burst reuse while a working-set-sized cache also captures the
/// cross-pass reuse. Deterministic: single-threaded, fixed access order.
pub fn cache_size_sweep(scale: ExperimentScale) -> CacheSweepReport {
    let node = NodeConfig::new(20_000.0, 256.0 * 1024.0 * 1024.0);
    let config = WorkloadConfig::preset(WorkloadPreset::Small).with_sessions(scale.sessions(160));
    let partition = DatasetGenerator::new(config).generate_partition();
    let passes = 3;

    let land = |capacity: usize| {
        let sim = TectonicSim::new(4)
            .with_node_config(node)
            .with_cache(capacity);
        let store = TableStore::new(sim, 16, 1);
        let (stored, _) = store.land_partition(&partition.schema, "sweep", 0, &partition.samples);
        (store, stored)
    };

    // Land once with the cache off to size the working set, then derive the
    // sweep points from it.
    let (probe, _) = land(0);
    let total = probe.blob_store().stats().stored_bytes;
    let capacities = [0, total / 8, total / 2, total * 2];

    let mut rows = Vec::new();
    let mut scratch = Vec::new();
    for capacity in capacities {
        let (store, stored) = land(capacity);
        let blob = store.blob_store();
        for _ in 0..passes {
            for (i, path) in stored.files.iter().enumerate() {
                blob.get_into(path, &mut scratch).expect("blob read");
                if i % 4 == 0 {
                    // Hot quarter: immediate re-reads (intra-burst reuse).
                    blob.get_into(path, &mut scratch).expect("blob read");
                    blob.get_into(path, &mut scratch).expect("blob read");
                }
            }
        }
        let cache = blob.cache_stats();
        rows.push(CacheSweepRow {
            capacity_bytes: capacity,
            hit_ratio: cache.hit_ratio(),
            evictions: cache.evictions,
            queue_ops: blob.node_stats().iter().map(|n| n.ops).sum(),
        });
    }
    CacheSweepReport {
        total_blob_bytes: total,
        passes,
        rows,
    }
}

impl CacheSweepReport {
    /// The gated figure: hit ratio with a cache larger than the working set.
    pub fn full_capacity_hit_ratio(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.hit_ratio)
    }

    /// Renders the sweep plus the derived line the bench snapshot extracts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Cache-size sweep (working set {} KiB, {} passes, hot quarter re-read):",
            self.total_blob_bytes / 1024,
            self.passes
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  cache {:>8} KiB  hit ratio {:.3}  evictions {:>5}  node ops {:>6}",
                row.capacity_bytes / 1024,
                row.hit_ratio,
                row.evictions,
                row.queue_ops
            );
        }
        let _ = writeln!(
            out,
            "derived storage_cache_hit_ratio {:.4}",
            self.full_capacity_hit_ratio()
        );
        out
    }
}

/// Max/mean of a non-empty slice (1.0 when the mean is zero).
fn spread(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    values.iter().cloned().fold(0.0, f64::max) / mean
}

// ---------------------------------------------------------------------------

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator <= 0.0 {
        1.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_reproduces_the_fig3_fig4_shape() {
        let exp = characterization(ExperimentScale::Smoke);
        assert!(exp.report.partition_histogram.mean > 4.0);
        assert!(exp.report.batch_histogram.mean < exp.report.partition_histogram.mean);
        assert!(exp.report.weighted_exact_fraction > 0.4);
        assert!(exp.report.weighted_partial_fraction >= exp.report.weighted_exact_fraction);
        assert!(exp.render_fig3().contains("Figure 3"));
        assert!(exp.render_fig4().contains("Figure 4"));
    }

    #[test]
    fn scribe_and_dedupe_factor_experiments() {
        let scribe = scribe_compression(ExperimentScale::Smoke);
        assert!(scribe.session_ratio > scribe.random_ratio);
        assert!(scribe.render().contains("->"));

        let sweep = dedupe_factor_sweep(ExperimentScale::Smoke);
        assert_eq!(sweep.rows.len(), 9);
        for row in &sweep.rows {
            assert!(row.analytical >= 1.0);
            assert!(row.measured >= 1.0);
        }
        // The factor grows with S and d in both the model and the measurement.
        let low = &sweep.rows[0];
        let high = &sweep.rows[8];
        assert!(high.analytical > low.analytical);
        assert!(high.measured > low.measured);
        assert!(sweep.render().contains("DedupeFactor"));
    }

    #[test]
    fn single_rm_experiments_have_the_right_shape() {
        // Use the cheapest pieces (fig9 on a smoke-scale RM1) to validate the
        // end-to-end experiment plumbing; the full fig7/fig8 sweep runs in the
        // experiments binary and integration tests.
        let fig9_report = fig9(ExperimentScale::Smoke);
        assert_eq!(fig9_report.rows.len(), 5);
        assert!((fig9_report.rows[0].normalized_throughput - 1.0).abs() < 1e-9);
        let last = fig9_report.rows.last().unwrap().normalized_throughput;
        assert!(
            last > 1.2,
            "full RecD should clearly beat baseline, got {last}"
        );
        assert!(fig9_report.render().contains("Figure 9"));

        let t3 = table3(ExperimentScale::Smoke);
        assert_eq!(t3.rows.len(), 3);
        assert!(t3.rows[1].read_bytes < t3.rows[0].read_bytes);
        assert!(t3.rows[2].send_bytes < t3.rows[1].send_bytes);
        assert!(t3.render().contains("Table 3"));
    }

    #[test]
    fn storage_balance_and_cache_sweep_experiments() {
        let balance = storage_load_balance(ExperimentScale::Smoke);
        assert_eq!(balance.rows.len(), 3);
        for row in &balance.rows {
            assert!(
                row.files > 4,
                "want a multi-file partition, got {}",
                row.files
            );
            assert!(row.byte_spread >= 1.0);
            assert!(row.op_spread >= 1.0);
            assert!(row.mean_wait_ms > 0.0, "frozen clock must accumulate wait");
        }
        // Round-robin balances op counts by construction, so no policy can
        // spread ops tighter; greedy least-loaded keeps bytes near-even.
        let hash = &balance.rows[0];
        let rr = &balance.rows[1];
        let least = &balance.rows[2];
        assert!(rr.op_spread <= hash.op_spread + 1e-9);
        assert!(
            least.byte_spread < 1.5,
            "greedy placement drifted: {least:?}"
        );
        assert!(balance.render().contains("storage_load_balance_wait_ms"));

        let sweep = cache_size_sweep(ExperimentScale::Smoke);
        assert_eq!(sweep.rows.len(), 4);
        assert_eq!(sweep.rows[0].hit_ratio, 0.0, "disabled cache cannot hit");
        for pair in sweep.rows.windows(2) {
            assert!(
                pair[1].hit_ratio >= pair[0].hit_ratio - 1e-9,
                "hit ratio regressed with more capacity: {pair:?}"
            );
            assert!(
                pair[1].queue_ops <= pair[0].queue_ops,
                "a larger cache must not add node traffic: {pair:?}"
            );
        }
        assert!(
            sweep.full_capacity_hit_ratio() > 0.6,
            "working-set cache should absorb cross-pass reuse, got {}",
            sweep.full_capacity_hit_ratio()
        );
        assert!(
            sweep.rows.iter().any(|r| r.evictions > 0),
            "undersized capacities should evict"
        );
        assert!(sweep.render().contains("storage_cache_hit_ratio"));
    }

    #[test]
    fn accuracy_is_neutral() {
        let report = accuracy(ExperimentScale::Smoke);
        assert!((report.baseline_loss - report.dedup_loss).abs() < 1e-3);
        assert!(report.clustered_eval_loss.is_finite());
        assert!(report.render().contains("Accuracy"));
    }
}
