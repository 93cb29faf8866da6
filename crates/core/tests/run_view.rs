//! Converting a view of row runs equals converting a batch that copies the
//! same runs: what the streaming compute workers convert is what the
//! router used to copy.

use proptest::collection::vec;
use proptest::prelude::*;
use recd_core::{ConvertedBatch, DataLoaderConfig, DedupScratch, FeatureConverter, JUDGED_ROWS};
use recd_data::{ColumnarBatch, FeatureId, RequestId, RowRuns, Sample, SessionId, Timestamp};
use std::ops::Range;

fn f(i: u32) -> FeatureId {
    FeatureId::new(i)
}

/// Features 0 and 1 form a group drawn from six tuples, repeating in
/// stretches of `dup` rows (always kept); feature 2 is a group of one id
/// unique to its file row (falls back to KJT in a judged batch); feature 3
/// stays in the KJT.
fn config() -> DataLoaderConfig {
    DataLoaderConfig::new()
        .with_kjt_features([f(3)])
        .with_dedup_group([f(0), f(1)])
        .with_dedup_group([f(2)])
        .with_dense_features(2)
}

/// File `file` of `rows` rows, every row equal to its predecessor in a
/// column marked as a repeat there.
fn file_batch(file: u64, rows: usize, dup: u64) -> ColumnarBatch {
    let samples: Vec<Sample> = (0..rows as u64)
        .map(|i| {
            let stretch = i / dup;
            Sample::builder(
                SessionId::new(stretch),
                RequestId::new(i),
                Timestamp::from_millis(i),
            )
            .label((i % 2) as f32)
            .dense(vec![i as f32, file as f32])
            .sparse(vec![
                vec![stretch % 3],
                vec![stretch % 2, 9],
                vec![file * 1_000 + i],
                vec![i % 5],
            ])
            .build()
        })
        .collect();
    let mut batch = ColumnarBatch::from_samples(&samples, 2, 4);
    for column in batch.columns_mut().sparse.iter_mut() {
        for row in 1..column.row_count() {
            if column.row(row) == column.row(row - 1) {
                column.mark_repeat(row);
            }
        }
    }
    batch
}

/// What the router used to hand on: a batch holding copies of the runs.
fn copied(runs: &[(&ColumnarBatch, Range<usize>)]) -> ColumnarBatch {
    let mut batch = ColumnarBatch::new(2, 4);
    for (file, rows) in runs {
        batch.extend_rows_from(file, rows.clone());
    }
    batch
}

proptest! {
    /// Files cut at random rows — often a 1-row run, often a run that
    /// starts on a marked row — and their pieces interleaved: the view
    /// converts to the copied batch's tensors, whichever groups it keeps.
    #[test]
    fn a_run_view_converts_like_the_copied_runs(
        files in vec((1usize..90, 1u64..6), 1..4),
        cuts in vec(0u8..4, 90..=90),
        order in vec(any::<u64>(), 90 * 3..=90 * 3),
    ) {
        let batches: Vec<ColumnarBatch> = files
            .iter()
            .enumerate()
            .map(|(k, &(rows, dup))| file_batch(k as u64, rows, dup))
            .collect();
        let mut pieces: Vec<(u64, (&ColumnarBatch, Range<usize>))> = Vec::new();
        for (k, batch) in batches.iter().enumerate() {
            let mut start = 0;
            for row in 1..=batch.len() {
                if row == batch.len() || cuts[row] == 0 {
                    pieces.push((order[k * 90 + row - 1], (batch, start..row)));
                    start = row;
                }
            }
        }
        pieces.sort_by_key(|(key, _)| *key);
        let runs: Vec<(&ColumnarBatch, Range<usize>)> =
            pieces.into_iter().map(|(_, run)| run).collect();

        let copy = copied(&runs);
        copy.check_repeats().unwrap();
        let converter = FeatureConverter::new(config());
        let want = converter.convert_columnar(&copy).unwrap();
        let view = RowRuns::new(&runs);
        prop_assert_eq!(view.row_count(), copy.len());
        let (mut scratch, mut got) = (DedupScratch::default(), ConvertedBatch::default());
        for _ in 0..2 {
            converter.convert_runs_into(&view, &mut scratch, &mut got).unwrap();
            prop_assert_eq!(&got, &want);
        }
        let kept: Vec<Vec<FeatureId>> = got.ikjts.iter().map(|i| i.keys().to_vec()).collect();
        if copy.len() >= JUDGED_ROWS {
            prop_assert_eq!(kept, vec![vec![f(0), f(1)]]);
            prop_assert_eq!(got.kjt.keys(), &[f(3), f(2)]);
        } else {
            prop_assert_eq!(kept, vec![vec![f(0), f(1)], vec![f(2)]]);
        }
    }
}

/// A run's first row is never trusted as a repeat: here it is marked
/// against a row of its own file, while in the view it follows another
/// file's different row, so it must take a slot of its own.
#[test]
fn a_run_that_starts_on_a_marked_row_probes() {
    let (a, b) = (file_batch(0, 4, 4), file_batch(1, 2, 1));
    assert!(a.sparse_columns()[0].is_repeat(2));
    let runs = [(&b, 1..2), (&a, 2..4)];
    let group = [f(0), f(1)];
    let view = RowRuns::new(&runs);
    assert!(
        !view.is_repeat(&group, 1),
        "a run's first row reads unmarked"
    );
    assert!(view.is_repeat(&group, 2));

    let converter = FeatureConverter::new(
        DataLoaderConfig::new()
            .with_dedup_group(group)
            .with_dense_features(2),
    );
    let mut got = ConvertedBatch::default();
    converter
        .convert_runs_into(&view, &mut DedupScratch::default(), &mut got)
        .unwrap();
    assert_eq!(got.ikjts[0].inverse_lookup(), &[0, 1, 1]);
    assert_eq!(got, converter.convert_columnar(&copied(&runs)).unwrap());
}
