//! Property-based tests for the core invariants of the RecD stack.

use proptest::collection::vec;
use proptest::prelude::*;
use recd::codec::{delta, lz, varint};
use recd::core::{
    jagged_index_select, ConvertedBatch, CoreError, DataLoaderConfig, DedupScratch,
    FeatureConverter, InverseKeyedJaggedTensor, JaggedTensor, KeyedJaggedTensor,
};
use recd::data::{ColumnarBatch, FeatureId, RequestId, Sample, Schema, SessionId, Timestamp};
use recd::etl::cluster_by_session;
use recd::reader::{HashBucketize, PreprocessPipeline, SparseTransform, TruncateList};
use recd::storage::{decode_stripe_columnar, encode_stripe};
use std::collections::HashMap;

/// One drawn duplication tuple: `(session, f0, f1)`.
type DupTuple = (u64, Vec<u64>, Vec<u64>);

/// Strategy for a batch of samples with a controlled duplication profile:
/// `dup_factor` consecutive rows share each drawn feature tuple, so low
/// factors exercise the all-distinct path and high factors the
/// mostly-duplicate path. Each drawn tuple is `(session, f0, f1)` with `f0`
/// wide (up to 10 ids) and `f1` narrow (up to 3 ids).
fn dup_batch_strategy() -> impl Strategy<Value = (usize, Vec<DupTuple>)> {
    (1usize..6).prop_flat_map(|dup_factor| {
        (
            dup_factor..=dup_factor,
            vec((0u64..8, vec(0u64..40, 0..10), vec(0u64..40, 0..3)), 1..20),
        )
    })
}

/// Expands a drawn duplication profile into concrete samples.
fn dup_samples(dup_factor: usize, tuples: &[DupTuple]) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(dup_factor * tuples.len());
    for (i, (session, f0, f1)) in tuples.iter().enumerate() {
        for r in 0..dup_factor {
            let request = (i * dup_factor + r) as u64;
            samples.push(
                Sample::builder(
                    SessionId::new(*session),
                    RequestId::new(request),
                    Timestamp::from_millis(request * 3),
                )
                .label((request % 2) as f32)
                .dense(vec![request as f32, *session as f32])
                .sparse(vec![f0.clone(), f1.clone()])
                .build(),
            );
        }
    }
    samples
}

/// A schema whose two user features share one dedup group and whose item
/// feature stays in the KJT, so `DataLoaderConfig::from_schema` exercises a
/// grouped IKJT next to a KJT and `baseline_from_schema` an all-KJT batch.
fn grouped_schema() -> Schema {
    Schema::builder()
        .dense("d0")
        .dense("d1")
        .dedup_groups(1)
        .sparse_with(
            "u0",
            recd::data::FeatureClass::User,
            4.0,
            0.9,
            1 << 20,
            64,
            Some(recd::data::DedupGroupId::new(0)),
        )
        .sparse_with(
            "u1",
            recd::data::FeatureClass::User,
            2.0,
            0.9,
            1 << 20,
            64,
            Some(recd::data::DedupGroupId::new(0)),
        )
        .sparse("item", recd::data::FeatureClass::Item, 2.0, 0.1, 1 << 20)
        .build()
        .unwrap()
}

/// Samples for [`grouped_schema`]: `dup_samples`' rows plus a per-row item
/// id, with `u1` knocked out of sync with `u0` on every `desync`-th row so
/// the group tuple, not either feature alone, decides a duplicate.
fn grouped_samples(dup_factor: usize, tuples: &[DupTuple], desync: usize) -> Vec<Sample> {
    dup_samples(dup_factor, tuples)
        .into_iter()
        .enumerate()
        .map(|(i, mut sample)| {
            if i % desync == desync - 1 {
                sample.sparse[1].push(1_000 + i as u64);
            }
            sample.sparse.push(vec![i as u64 % 7]);
            sample
        })
        .collect()
}

/// The naive dedup oracle: walk the rows in order and give each distinct
/// group tuple the next slot the first time it is seen. Returns the
/// distinct tuples in slot order and each row's slot.
fn first_seen_slots(tuples: Vec<Vec<Vec<u64>>>) -> (Vec<Vec<Vec<u64>>>, Vec<usize>) {
    let mut slots: HashMap<Vec<Vec<u64>>, usize> = HashMap::new();
    let mut distinct = Vec::new();
    let inverse = tuples
        .into_iter()
        .map(|tuple| {
            *slots.entry(tuple.clone()).or_insert_with(|| {
                distinct.push(tuple);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, inverse)
}

/// Strategy for a batch of rows for one feature: ids drawn from a small
/// alphabet so duplicates are common, with empty rows allowed.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    vec(vec(0u64..50, 0..12), 0..40)
}

/// Strategy for a pair of features sharing a batch size (a dedup group).
fn grouped_rows_strategy() -> impl Strategy<Value = (Vec<Vec<u64>>, Vec<Vec<u64>>)> {
    (0usize..30).prop_flat_map(|batch| {
        (
            vec(vec(0u64..20, 0..8), batch..=batch),
            vec(vec(0u64..20, 0..8), batch..=batch),
        )
    })
}

/// One link of a slot chain: `(kind, length index, distance back, ids)`.
/// Kind 0 is a fresh list, kind 1 copies the previous list, and kind 2
/// shifts by one a list `distance + 1` slots back: the predecessor, whose
/// window ends at the pool's end, or an earlier one, which the packer does
/// not look back to.
type Link = (u8, usize, usize, Vec<u64>);

/// The list lengths a link draws from: empty, one id, the shortest
/// shiftable list, and a truncated history.
const LINK_LENS: [usize; 4] = [0, 1, 2, 64];

fn slot_chain_strategy() -> impl Strategy<Value = Vec<Link>> {
    vec((0u8..3, 0usize..4, 0usize..3, vec(0u64..4, 64..=64)), 0..24)
}

/// Expands links into slot lists. A small id alphabet makes accidental
/// repeats and shifts among fresh lists likely too.
fn slot_chain(links: &[Link]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(links.len());
    for (kind, len, back, ids) in links {
        let source = match kind {
            1 => rows.last(),
            2 => rows.len().checked_sub(1 + back).map(|i| &rows[i]),
            _ => None,
        };
        let row = match source {
            Some(source) if *kind == 1 => source.clone(),
            Some(source) if !source.is_empty() => {
                let mut shifted = source[1..].to_vec();
                shifted.push(ids[0]);
                shifted
            }
            _ => ids[..LINK_LENS[*len]].to_vec(),
        };
        rows.push(row);
    }
    rows
}

/// The pool the packer plans: a list equal to its predecessor adds no id,
/// one that shifts its predecessor by one (same length, at least 2) adds
/// one, and any other adds all of its ids.
fn planned_pool(rows: &[Vec<u64>]) -> usize {
    rows.iter()
        .enumerate()
        .map(|(i, row)| match i.checked_sub(1).map(|p| &rows[p]) {
            Some(prev) if prev == row => 0,
            Some(prev)
                if prev.len() == row.len()
                    && row.len() >= 2
                    && prev[1..] == row[..row.len() - 1] =>
            {
                1
            }
            _ => row.len(),
        })
        .sum()
}

proptest! {
    /// IKJT deduplication is lossless: expanding back to a KJT reproduces the
    /// original rows exactly, for any batch.
    #[test]
    fn ikjt_round_trip_is_identity(rows in rows_strategy()) {
        let feature = FeatureId::new(0);
        let kjt = KeyedJaggedTensor::from_tensors(vec![(feature, JaggedTensor::from_lists(&rows))])
            .unwrap();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[feature]).unwrap();
        prop_assert!(ikjt.check_invariants().is_ok());
        prop_assert!(ikjt.slot_count() <= ikjt.batch_size().max(1));
        prop_assert!(ikjt.dedup_value_count() <= ikjt.original_value_count());
        prop_assert_eq!(ikjt.to_kjt().unwrap(), kjt);
    }

    /// Grouped dedup never violates the shared-inverse-lookup invariant and
    /// stays lossless even when the two features are not updated in sync.
    #[test]
    fn grouped_ikjt_preserves_both_features((a, b) in grouped_rows_strategy()) {
        let fa = FeatureId::new(0);
        let fb = FeatureId::new(1);
        let kjt = KeyedJaggedTensor::from_tensors(vec![
            (fa, JaggedTensor::from_lists(&a)),
            (fb, JaggedTensor::from_lists(&b)),
        ])
        .unwrap();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[fa, fb]).unwrap();
        prop_assert!(ikjt.check_invariants().is_ok());
        prop_assert_eq!(ikjt.to_kjt().unwrap(), kjt);
    }

    /// Jagged index select agrees with naive per-row expansion.
    #[test]
    fn jagged_select_matches_naive(rows in rows_strategy(), indices in vec(0usize..40, 0..60)) {
        let tensor = JaggedTensor::from_lists(&rows);
        let valid: Vec<usize> = indices.into_iter().filter(|&i| i < tensor.row_count()).collect();
        let selected = jagged_index_select(&tensor, &valid).unwrap();
        prop_assert_eq!(selected.row_count(), valid.len());
        for (out_row, &src) in valid.iter().enumerate() {
            prop_assert_eq!(selected.row(out_row), tensor.row(src));
        }
    }

    /// Packing a chain of fresh, copied and shifted slots into windows is
    /// lossless, ships 8 bytes per value, offset and start, is chosen
    /// exactly when it ships fewer bytes than the contiguous form, is
    /// idempotent, and leaves a windowed tensor no flat editor can misread.
    #[test]
    fn packed_windows_round_trip(links in slot_chain_strategy()) {
        let rows = slot_chain(&links);
        let contiguous = JaggedTensor::from_lists(&rows);
        let mut packed = contiguous.clone();
        packed.pack_windows();

        prop_assert_eq!(packed.row_count(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(packed.row(i), row.as_slice());
        }
        let words = packed.values().len() + packed.offsets().len() + packed.starts().len();
        prop_assert_eq!(packed.payload_bytes(), 8 * words);

        let pool = planned_pool(&rows);
        let smaller = pool + rows.len() < contiguous.value_count();
        prop_assert_eq!(packed.is_windowed(), smaller);
        if smaller {
            prop_assert_eq!(packed.value_count(), pool);
            prop_assert!(packed.payload_bytes() < contiguous.payload_bytes());
        } else {
            prop_assert_eq!(&packed, &contiguous);
        }

        let mut twice = packed.clone();
        twice.pack_windows();
        prop_assert_eq!(&twice, &packed);

        if packed.is_windowed() {
            let mut edited = packed.clone();
            prop_assert_eq!(edited.edit_flat(|_, _| {}), Err(CoreError::WindowedTensor));
            let refill = edited.assign_flat(contiguous.values(), contiguous.offsets());
            prop_assert_eq!(refill, Err(CoreError::WindowedTensor));
            prop_assert_eq!(&edited, &packed);
        }
    }

    /// Codec round trips: varint slices, delta, and the LZ block compressor.
    #[test]
    fn codecs_round_trip(values in vec(any::<u64>(), 0..200), bytes in vec(any::<u8>(), 0..2000)) {
        let (decoded, _) = varint::decode_u64_slice(&varint::encode_u64_slice(&values)).unwrap();
        prop_assert_eq!(&decoded, &values);
        let (decoded, _) = delta::decode(&delta::encode(&values)).unwrap();
        prop_assert_eq!(&decoded, &values);
        prop_assert_eq!(lz::decompress(&lz::compress(&bytes)).unwrap(), bytes);
    }

    /// Columnar decode ⇄ rows: for any schema-conforming stripe,
    /// `decode_stripe_columnar` materializes back into exactly the encoded
    /// rows, and the batch equals the direct conversion from those rows.
    #[test]
    fn columnar_decode_matches_row_wise_decode(
        (dup_factor, tuples) in dup_batch_strategy()
    ) {
        let schema = recd::data::Schema::builder()
            .dense("d0")
            .dense("d1")
            .dedup_groups(1)
            .sparse_with("f0", recd::data::FeatureClass::User, 4.0, 0.9, 1 << 20, 64,
                Some(recd::data::DedupGroupId::new(0)))
            .sparse("f1", recd::data::FeatureClass::Item, 2.0, 0.1, 1 << 20)
            .build()
            .unwrap();
        let samples = dup_samples(dup_factor, &tuples);
        let (block, _) = encode_stripe(&schema, &samples);

        let columnar = decode_stripe_columnar(&schema, &block).unwrap();
        prop_assert_eq!(columnar.len(), samples.len());
        prop_assert_eq!(columnar.to_samples(), samples.clone());
        // The columnar form agrees with direct conversion from samples.
        prop_assert_eq!(
            columnar,
            ColumnarBatch::from_samples(&samples, schema.dense_count(), schema.sparse_count())
        );
    }

    /// Conversion against an independent row-wise oracle: for random batches
    /// under `from_schema` (a grouped IKJT beside a KJT) and
    /// `baseline_from_schema` (all KJT), every IKJT's slot *i* holds the
    /// *i*-th distinct group tuple in first-seen order, its inverse lookup
    /// is the oracle's, and expanding it through that lookup gives back the
    /// input rows; KJT rows, dense values and labels equal the input too.
    #[test]
    fn columnar_dedup_and_convert_match_row_wise(
        (dup_factor, tuples) in dup_batch_strategy(),
        desync in 1usize..8,
    ) {
        let schema = grouped_schema();
        let samples = grouped_samples(dup_factor, &tuples, desync);
        let columnar =
            ColumnarBatch::from_samples(&samples, schema.dense_count(), schema.sparse_count());
        let baseline_config = DataLoaderConfig::baseline_from_schema(&schema);
        // O3 off is a configuration, not a second converter: with no dedup
        // groups the deduplicating entry point emits the baseline batch.
        let baseline = FeatureConverter::new(baseline_config.clone());
        prop_assert_eq!(
            baseline.convert_columnar(&columnar).unwrap(),
            baseline.convert_columnar_baseline(&columnar).unwrap()
        );

        for config in [DataLoaderConfig::from_schema(&schema), baseline_config] {
            let converted = FeatureConverter::new(config.clone())
                .convert_columnar(&columnar)
                .unwrap();
            prop_assert_eq!(converted.batch_size, samples.len());
            let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
            prop_assert_eq!(&converted.labels, &labels);
            for (row, sample) in samples.iter().enumerate() {
                prop_assert_eq!(converted.dense.row(row), sample.dense.as_slice());
            }
            prop_assert_eq!(converted.kjt.keys(), config.kjt_features.as_slice());
            for &feature in &config.kjt_features {
                let tensor = converted.kjt.feature(feature).unwrap();
                for (row, sample) in samples.iter().enumerate() {
                    prop_assert_eq!(tensor.row(row), sample.sparse[feature.index()].as_slice());
                }
            }

            prop_assert_eq!(converted.ikjts.len(), config.dedup_groups.len());
            for (group, ikjt) in config.dedup_groups.iter().zip(&converted.ikjts) {
                let (distinct, inverse) = first_seen_slots(
                    samples
                        .iter()
                        .map(|s| group.iter().map(|f| s.sparse[f.index()].clone()).collect())
                        .collect(),
                );
                prop_assert_eq!(ikjt.inverse_lookup(), inverse.as_slice());
                prop_assert_eq!(ikjt.slot_count(), distinct.len());
                for (k, &feature) in group.iter().enumerate() {
                    let slots = ikjt.feature(feature).unwrap();
                    for (slot, tuple) in distinct.iter().enumerate() {
                        prop_assert_eq!(slots.row(slot), tuple[k].as_slice());
                    }
                    for (row, sample) in samples.iter().enumerate() {
                        prop_assert_eq!(
                            ikjt.row(feature, row).unwrap(),
                            sample.sparse[feature.index()].as_slice()
                        );
                    }
                }
            }
        }
    }

    /// Repeat hints change no converted byte: over clustered batches with a
    /// random sound subset of hints — some columns of a group marked and
    /// others not, row 0 marked or not — `convert_columnar_into` gives the
    /// batch it gives with every hint cleared (slot tensors, inverse
    /// lookups, KJT features, dense values, labels), and so does a batch
    /// the stripe decoder marked itself.
    #[test]
    fn repeat_hints_do_not_change_the_converted_batch(
        (dup_factor, tuples) in dup_batch_strategy(),
        desync in 1usize..8,
        masks in vec(vec(any::<bool>(), 0..120), 3..=3),
        mark_row0 in any::<bool>(),
    ) {
        let schema = grouped_schema();
        let samples = grouped_samples(dup_factor, &tuples, desync);
        let mut hinted =
            ColumnarBatch::from_samples(&samples, schema.dense_count(), schema.sparse_count());
        {
            let columns = hinted.columns_mut().sparse;
            for (column, mask) in columns.iter_mut().zip(&masks) {
                for row in 1..column.row_count() {
                    let sound = column.row(row) == column.row(row - 1);
                    if sound && mask.get(row).copied().unwrap_or(true) {
                        column.mark_repeat(row);
                    }
                }
                if mark_row0 && column.row_count() > 0 {
                    // Row 0 has no predecessor: the converter must not
                    // trust a mark there.
                    column.mark_repeat(0);
                }
            }
        }
        let mut plain = hinted.clone();
        plain.clear_repeats();
        prop_assert!(plain.sparse_columns().iter().all(|c| c.repeats().is_empty()));

        let config = DataLoaderConfig::from_schema(&schema);
        let converter = FeatureConverter::new(config);
        let mut scratch = DedupScratch::default();
        let want = converter.convert_columnar(&plain).unwrap();
        let mut got = ConvertedBatch::default();
        for _ in 0..2 {
            converter.convert_columnar_into(&hinted, &mut scratch, &mut got).unwrap();
            prop_assert_eq!(&got, &want);
        }

        let (block, _) = encode_stripe(&schema, &samples);
        let decoded = decode_stripe_columnar(&schema, &block).unwrap();
        decoded.check_repeats().unwrap();
        prop_assert_eq!(converter.convert_columnar(&decoded).unwrap(), want);
    }

    /// Truncating before hashing gives the tensors hashing before
    /// truncating gives: `HashBucketize` maps ids one by one and
    /// `TruncateList` keeps suffixes, so `PreprocessPipeline::standard`
    /// may run the cheaper order.
    #[test]
    fn truncate_and_hash_commute(
        (dup_factor, tuples) in dup_batch_strategy(),
        buckets in 1u64..1_000_000,
        max_len in 0usize..12,
    ) {
        let samples = dup_samples(dup_factor, &tuples);
        let batch = ColumnarBatch::from_samples(&samples, 2, 2);
        let config = DataLoaderConfig::new()
            .with_kjt_features([FeatureId::new(1)])
            .with_dedup_group([FeatureId::new(0)])
            .with_dense_features(2);
        let converter = FeatureConverter::new(config);
        let hash_first = PreprocessPipeline::new()
            .with_sparse(HashBucketize { buckets })
            .with_sparse(TruncateList { max_len })
            .with_dense_normalization();
        let standard = PreprocessPipeline::standard(buckets, max_len);
        for converted in [
            converter.convert_columnar(&batch).unwrap(),
            converter.convert_columnar_baseline(&batch).unwrap(),
        ] {
            let (mut want, mut got) = (converted.clone(), converted);
            let want_stats = hash_first.apply(&mut want);
            let got_stats = standard.apply(&mut got);
            prop_assert_eq!(got_stats, want_stats);
            prop_assert_eq!(got, want);
        }
    }

    /// Flat in-place transforms ⇄ old row-wise transforms: for any jagged
    /// tensor and any transform parameters, editing the `(values, offsets)`
    /// buffers in place produces exactly the tensor the allocate-per-apply
    /// reference builds.
    #[test]
    fn flat_transforms_match_rowwise_oracle(
        rows in rows_strategy(),
        buckets in 1u64..1_000_000,
        max_len in 0usize..16,
    ) {
        let tensor = recd::core::JaggedTensor::from_lists(&rows);
        let transforms: Vec<Box<dyn SparseTransform>> = vec![
            Box::new(HashBucketize { buckets }),
            Box::new(TruncateList { max_len }),
        ];
        for t in &transforms {
            let expected = t.apply_rowwise(&tensor);
            let mut flat = tensor.clone();
            flat.edit_flat(|values, offsets| {
                t.apply_flat(values, offsets, &mut recd::reader::TransformScratch::default())
            })
            .unwrap();
            prop_assert_eq!(flat, expected);
        }
    }

    /// The whole flat pipeline ⇄ the row-wise pipeline over converted
    /// batches (dedup and baseline): identical tensors, identical work
    /// accounting — and O4 (per-slot) preprocessing stays logically equal to
    /// baseline (per-row) preprocessing after the rewrite.
    #[test]
    fn flat_pipeline_matches_rowwise_and_o4_stays_logically_equal(
        (dup_factor, tuples) in dup_batch_strategy(),
        buckets in 1u64..1_000_000,
        max_len in 1usize..12,
    ) {
        let samples = dup_samples(dup_factor, &tuples);
        let batch = ColumnarBatch::from_samples(&samples, 2, 2);
        let dedup_config = DataLoaderConfig::new()
            .with_kjt_features([FeatureId::new(1)])
            .with_dedup_group([FeatureId::new(0)])
            .with_dense_features(2);
        let pipeline = PreprocessPipeline::standard(buckets, max_len);

        let converter = FeatureConverter::new(dedup_config);
        let mut flat = converter.convert_columnar(&batch).unwrap();
        let mut rowwise = flat.clone();
        let flat_stats = pipeline.apply(&mut flat);
        let rowwise_stats = pipeline.apply_rowwise(&mut rowwise);
        prop_assert_eq!(flat_stats, rowwise_stats);
        prop_assert_eq!(&flat, &rowwise);

        // O4 ⇄ baseline logical equality: transforming once per slot and
        // expanding equals transforming every row of the baseline KJT.
        let mut baseline = converter.convert_columnar_baseline(&batch).unwrap();
        let baseline_stats = pipeline.apply(&mut baseline);
        prop_assert_eq!(flat_stats.logical_values, baseline_stats.logical_values);
        prop_assert!(flat_stats.values_processed <= baseline_stats.values_processed);
        let expanded = flat.ikjts[0].to_kjt().unwrap();
        prop_assert_eq!(
            expanded.feature(FeatureId::new(0)).unwrap(),
            baseline.kjt.feature(FeatureId::new(0)).unwrap()
        );
        prop_assert_eq!(
            flat.kjt.feature(FeatureId::new(1)).unwrap(),
            baseline.kjt.feature(FeatureId::new(1)).unwrap()
        );
        // Dense normalization is shared, so the matrices agree exactly.
        prop_assert_eq!(&flat.dense, &baseline.dense);
    }

    /// Stripe encoding round trips arbitrary (schema-conforming) samples, and
    /// clustering never changes the multiset of rows.
    #[test]
    fn stripe_and_clustering_preserve_rows(
        seed_rows in vec((0u64..20, 0u64..1000, vec(0u64..100, 0..6), vec(0u64..100, 0..3)), 1..60)
    ) {
        let schema = recd::data::Schema::builder()
            .dense("d0")
            .dedup_groups(1)
            .sparse_with("f0", recd::data::FeatureClass::User, 4.0, 0.9, 1 << 20, 64,
                Some(recd::data::DedupGroupId::new(0)))
            .sparse("f1", recd::data::FeatureClass::Item, 2.0, 0.1, 1 << 20)
            .build()
            .unwrap();
        let samples: Vec<Sample> = seed_rows
            .iter()
            .enumerate()
            .map(|(i, (session, ts, f0, f1))| {
                Sample::builder(SessionId::new(*session), RequestId::new(i as u64), Timestamp::from_millis(*ts))
                    .label((i % 2) as f32)
                    .dense(vec![*ts as f32])
                    .sparse(vec![f0.clone(), f1.clone()])
                    .build()
            })
            .collect();

        // Stripe round trip.
        let (block, stats) = encode_stripe(&schema, &samples);
        prop_assert_eq!(stats.rows, samples.len());
        prop_assert_eq!(
            decode_stripe_columnar(&schema, &block).unwrap().to_samples(),
            samples.clone()
        );

        // Clustering preserves the multiset of request ids and keeps each
        // session contiguous.
        let clustered = cluster_by_session(&samples);
        let mut before: Vec<u64> = samples.iter().map(|s| s.request_id.raw()).collect();
        let mut after: Vec<u64> = clustered.iter().map(|s| s.request_id.raw()).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
        // Contiguity: once we leave a session we never see it again.
        let mut seen = std::collections::HashSet::new();
        let mut current = None;
        for s in &clustered {
            if current != Some(s.session_id) {
                prop_assert!(seen.insert(s.session_id), "session split apart");
                current = Some(s.session_id);
            }
        }
    }
}
