//! An e-commerce-flavored end-to-end run of the full pipeline: shopping
//! sessions with cart-history features flow through Scribe, ETL, storage, the
//! reader tier, and the trainer cost model, once with the baseline pipeline
//! and once with every RecD optimization enabled.
//!
//! This mirrors the paper's motivating example (§1): features like "last N
//! items added to the cart" barely change across a shopping session, so
//! almost every byte the baseline pipeline stores, reads, and trains over is
//! a duplicate.
//!
//! Run with: `cargo run --release --example ecommerce_pipeline`

use recd::data::FeatureClass;
use recd::datagen::{DedupPolicy, FeatureProfile, WorkloadConfig, WorkloadPreset};
use recd::pipeline::{PipelineRunner, RecdConfig, RmPreset, RmSpec};
use recd::reader::ReaderCostModel;
use recd::trainer::PoolingKind;

fn ecommerce_spec() -> RmSpec {
    // Shopping sessions: cart history, viewed-item history, wish-list ids
    // (user features, highly duplicated), plus candidate-item features.
    let workload = WorkloadConfig {
        profiles: vec![
            FeatureProfile {
                name_prefix: "cart_history".to_string(),
                count: 2,
                class: FeatureClass::User,
                avg_len: 80,
                stay_prob: 0.97,
                cardinality: 1 << 22,
                embedding_dim: 64,
                dedup: DedupPolicy::Grouped(1),
            },
            FeatureProfile {
                name_prefix: "view_history".to_string(),
                count: 2,
                class: FeatureClass::User,
                avg_len: 64,
                stay_prob: 0.9,
                cardinality: 1 << 22,
                embedding_dim: 64,
                dedup: DedupPolicy::Grouped(1),
            },
            FeatureProfile {
                name_prefix: "wishlist".to_string(),
                count: 8,
                class: FeatureClass::User,
                avg_len: 8,
                stay_prob: 0.95,
                cardinality: 1 << 20,
                embedding_dim: 64,
                dedup: DedupPolicy::Individual,
            },
            FeatureProfile::item(6),
        ],
        samples_per_session_mean: 12.0,
        ..WorkloadConfig::preset(WorkloadPreset::Small)
    };
    RmSpec {
        preset: RmPreset::Rm1,
        workload,
        embedding_dim: 64,
        sequence_pooling: PoolingKind::Attention,
        baseline_batch: 256,
        recd_batch: 512,
        gpus: 16,
        sessions: 150,
    }
}

fn main() {
    let spec = ecommerce_spec();
    println!("== e-commerce DLRM pipeline: baseline vs RecD ==\n");

    let baseline =
        PipelineRunner::new(spec.clone(), RecdConfig::baseline()).run(spec.baseline_batch);
    let recd = PipelineRunner::new(spec.clone(), RecdConfig::full()).run(spec.recd_batch);
    let b = &baseline.report;
    let r = &recd.report;

    println!("samples through the pipeline : {}", b.samples);
    println!(
        "scribe compression ratio     : {:.2}x -> {:.2}x",
        b.scribe.compression_ratio, r.scribe.compression_ratio
    );
    println!(
        "table compression ratio      : {:.2}x -> {:.2}x",
        b.etl.storage.compression_ratio(),
        r.etl.storage.compression_ratio()
    );
    println!(
        "reader bytes read / sent     : {:.1} / {:.1} MiB -> {:.1} / {:.1} MiB",
        b.read_bytes as f64 / 1048576.0,
        b.dpp.egress_bytes as f64 / 1048576.0,
        r.read_bytes as f64 / 1048576.0,
        r.dpp.egress_bytes as f64 / 1048576.0
    );
    let cost_model = ReaderCostModel::default();
    let (b_reader, r_reader) = (
        cost_model.samples_per_cpu_second(&b.dpp.reader_metrics),
        cost_model.samples_per_cpu_second(&r.dpp.reader_metrics),
    );
    println!(
        "per-reader throughput        : {b_reader:.0} -> {r_reader:.0} samples/cpu-s ({:.2}x)",
        r_reader / b_reader.max(1e-9)
    );
    println!(
        "in-batch dedupe factor       : {:.2}x -> {:.2}x",
        b.dedupe_factor, r.dedupe_factor
    );
    println!(
        "modeled trainer throughput   : {:.0} -> {:.0} samples/s ({:.2}x, batch {} -> {})",
        b.trainer.throughput,
        r.trainer.throughput,
        r.trainer.throughput / b.trainer.throughput.max(1e-9),
        b.batch_size,
        r.batch_size
    );
    println!(
        "modeled peak GPU memory      : {:.1}% -> {:.1}% of the baseline-normalized capacity",
        b.memory.max_utilization * 100.0,
        r.memory.max_utilization * 100.0
    );
}
