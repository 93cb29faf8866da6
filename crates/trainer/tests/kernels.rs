//! The flat step-path kernels against the row-wise oracle (`oracle/`):
//! pooling per kind and shape, the reuse of a neighbouring unit's pooling,
//! then whole-model predictions, work counters and training trajectories in
//! both execution modes.

mod oracle;

use oracle::OracleDlrm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recd_core::{
    ConvertedBatch, DataLoaderConfig, DenseMatrix, FeatureConverter, InverseKeyedJaggedTensor,
    JaggedTensor, KeyedJaggedTensor,
};
use recd_data::{ColumnarBatch, FeatureId, Sample, Schema};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_etl::cluster_by_session;
use recd_pipeline::RmPreset;
use recd_trainer::{pool_sequence, Dlrm, DlrmConfig, ExecutionMode, PoolScratch, PoolingKind};

const KINDS: [PoolingKind; 5] = [
    PoolingKind::Sum,
    PoolingKind::Mean,
    PoolingKind::Max,
    PoolingKind::Attention,
    PoolingKind::Transformer,
];
const MODES: [ExecutionMode; 2] = [ExecutionMode::Baseline, ExecutionMode::Deduplicated];

fn assert_close(new: &[f32], oracle: &[f32], tolerance: f32, what: &str) {
    assert_eq!(new.len(), oracle.len(), "{what}: lengths");
    for (i, (a, b)) in new.iter().zip(oracle).enumerate() {
        assert!(
            (a - b).abs() <= tolerance * b.abs().max(1.0),
            "{what}: [{i}] {a} vs oracle {b}"
        );
    }
}

proptest! {
    /// Every kind at every shape of the grid: lengths around the empty and
    /// single-row edges and at the pipeline's 64 (and the untruncated 96),
    /// dims that are and are not a multiple of the kernels' lane and tile
    /// widths. One scratch serves the whole sweep, as it does in the model.
    #[test]
    fn pool_sequence_matches_the_rowwise_oracle(kind in 0usize..5, seed in any::<u64>()) {
        let kind = KINDS[kind];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = PoolScratch::default();
        for len in [0, 1, 7, 64, 96] {
            for dim in [1, 8, 13, 64] {
                let rows: Vec<Vec<f32>> = (0..len)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let flat: Vec<f32> = rows.concat();
                let mut out = vec![f32::NAN; dim];
                let cost = pool_sequence(kind, &flat, dim, &mut scratch, &mut out);
                prop_assert_eq!(cost.flops, kind.flops_per_row(len, dim));
                let want = oracle::pool_sequence(kind, &rows, dim);
                assert_close(&out, &want, 1e-5, &format!("{kind:?} {len}x{dim}"));
                // Only Attention's scores go through the lane-split `dot`;
                // every other sum runs in the oracle's order, to the bit.
                if kind != PoolingKind::Attention {
                    prop_assert_eq!(&out, &want);
                }
            }
        }
    }
}

/// `count` id lists of `len` ids, each after the first a copy of the one
/// before it, that one shifted by one (its first id dropped, one appended),
/// or unrelated to it.
fn neighbour_lists(rng: &mut StdRng, count: usize, len: usize) -> Vec<Vec<u64>> {
    let mut lists: Vec<Vec<u64>> = Vec::with_capacity(count);
    for _ in 0..count {
        let list = match (lists.last(), rng.gen_range(0..3)) {
            (Some(previous), 0) => previous.clone(),
            (Some(previous), 1) if len > 0 => {
                let mut shifted = previous[1..].to_vec();
                shifted.push(rng.gen_range(0..1000));
                shifted
            }
            _ => (0..len).map(|_| rng.gen_range(0..1000)).collect(),
        };
        lists.push(list);
    }
    lists
}

proptest! {
    /// Deduplicated mode copies a unit whose list repeats its neighbour's and
    /// carries a shifted history's shared scores over; Baseline mode pools
    /// every row afresh. Over lists that are copies, shifts and unrelated
    /// neighbours — in a KJT feature, whose units are rows, and in an IKJT
    /// feature, whose units are slots — the two predict the same bits and
    /// agree with the oracle, which counts the copies by the same rule.
    #[test]
    fn reused_pooling_predicts_the_bits_of_pooling_afresh(kind in 0usize..3, seed in any::<u64>()) {
        let kind = [PoolingKind::Sum, PoolingKind::Attention, PoolingKind::Transformer][kind];
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, inverse) = (6, vec![0, 1, 1, 2, 3, 3]);
        let features = [FeatureId::new(0), FeatureId::new(1)];
        for len in [1, 2, 7, 64, 96] {
            for dim in [1, 8, 13, 64] {
                let kjt = JaggedTensor::from_lists(&neighbour_lists(&mut rng, rows, len));
                let slots = JaggedTensor::from_lists(&neighbour_lists(&mut rng, 4, len));
                let dense = (0..rows * 2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let batch = ConvertedBatch {
                    batch_size: rows,
                    labels: vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0],
                    dense: DenseMatrix::from_vec(dense, rows, 2).unwrap(),
                    kjt: KeyedJaggedTensor::from_tensors(vec![(features[0], kjt)]).unwrap(),
                    ikjts: vec![InverseKeyedJaggedTensor::from_parts(
                        vec![features[1]],
                        vec![slots],
                        inverse.clone(),
                    )
                    .unwrap()],
                };
                let config = DlrmConfig {
                    dense_features: 2,
                    embedding_dim: dim,
                    hash_buckets: 64,
                    bottom_mlp: vec![4, dim],
                    top_mlp: vec![4, 1],
                    sequence_pooling: kind,
                    feature_pooling: features.iter().map(|&f| (f, kind)).collect(),
                    learning_rate: 0.05,
                    seed,
                };
                let what = format!("{kind:?} {len}x{dim}");
                let mut model = Dlrm::new(config.clone());
                let (dedup, stats) = model.forward(&batch, ExecutionMode::Deduplicated);
                let (baseline, baseline_stats) = model.forward(&batch, ExecutionMode::Baseline);
                let bits = |probs: &[f32]| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dedup), bits(&baseline), "{what}");
                assert_eq!(baseline_stats.copied_units, 0, "{what}");
                let (want, want_stats) =
                    OracleDlrm::new(config).forward(&batch, ExecutionMode::Deduplicated);
                assert_close(&dedup, &want, 1e-5, &what);
                assert_eq!(stats, want_stats, "{what}");
            }
        }
    }
}

/// `rows` in the schema's columnar shape.
fn columns(schema: &Schema, rows: &[Sample]) -> ColumnarBatch {
    ColumnarBatch::from_samples(rows, schema.dense_count(), schema.sparse_count())
}

/// A session-clustered Tiny batch of `len` rows: `convert_columnar` turns it
/// into IKJTs, `convert_columnar_baseline` into one plain KJT.
fn tiny_batch(dedup: bool, len: usize) -> (Schema, ConvertedBatch) {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny)).generate_partition();
    let mut rows = cluster_by_session(&partition.samples);
    rows.truncate(len);
    let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&partition.schema));
    let rows = columns(&partition.schema, &rows);
    let batch = if dedup {
        converter.convert_columnar(&rows)
    } else {
        converter.convert_columnar_baseline(&rows)
    };
    (partition.schema, batch.unwrap())
}

#[test]
fn predictions_and_work_counters_match_the_oracle() {
    for dedup in [true, false] {
        let (schema, batch) = tiny_batch(dedup, 128);
        for (kind, dim) in [
            (PoolingKind::Transformer, 64),
            (PoolingKind::Attention, 13),
            (PoolingKind::Max, 8),
        ] {
            let config = DlrmConfig::from_schema(&schema, dim, kind);
            for mode in MODES {
                let (probs, stats) = Dlrm::new(config.clone()).forward(&batch, mode);
                let (want, want_stats) = OracleDlrm::new(config.clone()).forward(&batch, mode);
                assert_close(&probs, &want, 1e-5, &format!("{kind:?} {mode:?} probs"));
                assert_eq!(stats, want_stats, "{kind:?} {mode:?} dedup input {dedup}");
            }
        }
    }
}

#[test]
fn ten_step_loss_trajectories_match_the_oracle() {
    let (schema, batch) = tiny_batch(true, 48);
    let transformer = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
    let sum = DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum);
    // Mean on every other feature: its backward divides by the list length.
    let mut mixed = sum.clone();
    for (_, kind) in mixed.feature_pooling.iter_mut().step_by(2) {
        *kind = PoolingKind::Mean;
    }
    for config in [transformer, sum, mixed] {
        for mode in MODES {
            let mut model = Dlrm::new(config.clone());
            let mut reference = OracleDlrm::new(config.clone());
            for step in 0..10 {
                let loss = model.train_step(&batch, mode);
                let want = reference.train_step(&batch, mode);
                assert!(
                    (loss - want).abs() < 1e-4,
                    "{mode:?} step {step}: {loss} vs oracle {want}"
                );
            }
            // Ten steps of updates left both models at the same parameters:
            // the same predictions, and — the loss barely feels an embedding
            // row, so look at them directly — the same embedding rows, which
            // sum- and mean-pooled features did move.
            let (probs, _) = model.forward(&batch, mode);
            let (want, _) = reference.forward(&batch, mode);
            assert_close(
                &probs,
                &want,
                1e-4,
                &format!("{mode:?} probs after training"),
            );
            let fresh = Dlrm::new(config.clone());
            for (f, &(feature, kind)) in config.feature_pooling.iter().enumerate() {
                let mut moved = 0.0f32;
                for id in 0..config.hash_buckets as u64 {
                    let row = model.tables()[f].lookup(id);
                    for ((a, b), init) in row
                        .iter()
                        .zip(reference.embedding(feature, id))
                        .zip(fresh.tables()[f].lookup(id))
                    {
                        assert!(
                            (a - b).abs() < 1e-6,
                            "{kind:?} {mode:?} row {id}: {a} vs {b}"
                        );
                        moved = moved.max((a - init).abs());
                    }
                }
                let trains = matches!(kind, PoolingKind::Sum | PoolingKind::Mean);
                assert_eq!(moved > 0.0, trains, "{kind:?} {mode:?} moved by {moved}");
            }
        }
    }
}

#[test]
fn a_feature_absent_from_the_batch_pools_to_zeros() {
    // The batch carries only its IKJTs: every KJT feature of the model is
    // absent, in the model and in the oracle alike.
    let (schema, mut batch) = tiny_batch(true, 48);
    batch.kjt = recd_core::KeyedJaggedTensor::empty(batch.batch_size);
    let config = DlrmConfig::from_schema(&schema, 8, PoolingKind::Mean);
    for mode in MODES {
        let mut model = Dlrm::new(config.clone());
        let mut reference = OracleDlrm::new(config.clone());
        let (probs, stats) = model.forward(&batch, mode);
        let (want, want_stats) = reference.forward(&batch, mode);
        assert_close(&probs, &want, 1e-5, "absent features");
        assert_eq!(stats, want_stats);
        let (loss, want) = (
            model.train_step(&batch, mode),
            reference.train_step(&batch, mode),
        );
        assert!((loss - want).abs() < 1e-5);
    }
}

/// ROADMAP's "Deduplicated-vs-Baseline step ratio", as a count rather than a
/// timer: on a session-clustered RM1 batch, Deduplicated mode does the
/// grouped features' lookups and pooling FLOPs once per slot, so Baseline
/// does at least 0.9 × the batch's dedupe factor times as much of both.
#[test]
fn deduplicated_mode_divides_grouped_work_by_the_dedupe_factor() {
    let workload = RmPreset::Rm1.spec().workload.with_sessions(20);
    let partition = DatasetGenerator::new(workload).generate_partition();
    let mut rows = cluster_by_session(&partition.samples);
    rows.truncate(128);
    let loader = DataLoaderConfig::from_schema(&partition.schema);
    let grouped: Vec<_> = loader.dedup_groups.iter().flatten().copied().collect();
    let batch = FeatureConverter::new(loader)
        .convert_columnar(&columns(&partition.schema, &rows))
        .unwrap();
    let factor = batch.dedupe_factor();
    assert!(factor > 2.0, "an RM1 batch duplicates heavily: {factor}");

    // Only the grouped features, so the counters hold nothing else. The
    // counts do not depend on the embedding width; a narrow one keeps the
    // Baseline pass short.
    let mut config = DlrmConfig::from_schema(&partition.schema, 4, PoolingKind::Transformer);
    config.feature_pooling.retain(|(f, _)| grouped.contains(f));
    assert!(config
        .feature_pooling
        .iter()
        .any(|&(_, kind)| kind == PoolingKind::Transformer));
    let (_, baseline) = Dlrm::new(config.clone()).forward(&batch, ExecutionMode::Baseline);
    let (_, dedup) = Dlrm::new(config).forward(&batch, ExecutionMode::Deduplicated);
    let lookups = baseline.emb_lookups as f64 / dedup.emb_lookups as f64;
    let flops = baseline.pooling_flops as f64 / dedup.pooling_flops as f64;
    assert!(lookups >= 0.9 * factor, "lookups {lookups} vs {factor}");
    assert!(flops >= 0.9 * factor, "pooling flops {flops} vs {factor}");
}
