//! Columnar batches: flat, allocation-light row storage for the hot
//! fill→convert path.
//!
//! A [`ColumnarBatch`] stores what a `Vec<Sample>` stores, but flat: one
//! buffer per header column (sessions, requests, timestamps, labels), one
//! flat row-major dense buffer, and one jagged `(values, offsets)` pair per
//! sparse feature ([`SparseColumn`]). Where the row-wise representation pays
//! two-plus heap allocations per sample (and one more per sparse feature),
//! a columnar batch of any size owns a fixed number of buffers — which is
//! what lets the storage decoder write straight into it and the feature
//! converter read straight out of it without materializing intermediate
//! per-row `Vec`s.
//!
//! Conversion to and from row-wise form is lossless for *schema-shaped*
//! samples (every sample carrying exactly `dense_cols` dense values and
//! `sparse_cols` id lists — the shape every stored stripe decodes to).
//! Samples with fewer values are padded exactly like the storage encoder
//! pads them, so `from_samples` ∘ `to_samples` agrees with a storage
//! round trip.

use crate::error::DataError;
use crate::ids::{RequestId, SessionId, Timestamp};
use crate::sample::Sample;
use serde::{Deserialize, Serialize};

/// One sparse feature for a whole batch: a flat value buffer plus row
/// offsets (`offsets.len() == rows + 1`, `offsets[0] == 0`).
///
/// This is the same jagged layout `recd-core`'s `JaggedTensor` uses; it is
/// re-declared here (rather than imported) because `recd-data` sits below
/// `recd-core` in the crate graph.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SparseColumn {
    values: Vec<u64>,
    offsets: Vec<usize>,
}

impl SparseColumn {
    /// Creates an empty column with zero rows.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty column with preallocated capacity.
    pub fn with_capacity(rows: usize, values: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            values: Vec::with_capacity(values),
            offsets,
        }
    }

    /// Builds a column from a flat value buffer and per-row lengths, taking
    /// ownership of `values` without copying it (the storage decoder's
    /// zero-copy entry point).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] if the lengths do not sum to
    /// `values.len()`.
    pub fn from_lengths(values: Vec<u64>, lengths: &[u64]) -> Result<Self, DataError> {
        let mut offsets = Vec::with_capacity(lengths.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &len in lengths {
            total += len as usize;
            offsets.push(total);
        }
        if total != values.len() {
            return Err(DataError::ColumnarInvariant {
                reason: format!(
                    "sparse lengths sum to {total} but the value buffer holds {}",
                    values.len()
                ),
            });
        }
        Ok(Self { values, offsets })
    }

    /// Builds a column from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] if the offsets slice is
    /// empty, does not start at zero, is decreasing, or does not end at
    /// `values.len()`.
    pub fn from_parts(values: Vec<u64>, offsets: Vec<usize>) -> Result<Self, DataError> {
        let column = Self { values, offsets };
        column.check_invariants()?;
        Ok(column)
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of values across all rows.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.row_count()`.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Length of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.row_count()`.
    pub fn row_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Borrows the flat value buffer.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Borrows the offsets slice (`row_count() + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[u64]) {
        self.values.extend_from_slice(row);
        self.offsets.push(self.values.len());
    }

    /// Appends every row of `other`.
    pub fn append(&mut self, other: &SparseColumn) {
        let base = self.values.len();
        self.values.extend_from_slice(&other.values);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
    }

    /// Removes every row, keeping the buffer capacity for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Mutable access to the raw `(values, offsets)` buffers, for decoders
    /// that refill a recycled column in place.
    ///
    /// The caller must restore the jagged invariants (offsets start at zero,
    /// are non-decreasing, and end at the value count) before the column is
    /// read again; [`ColumnarBatch::check_invariants`] validates them.
    pub fn parts_mut(&mut self) -> (&mut Vec<u64>, &mut Vec<usize>) {
        (&mut self.values, &mut self.offsets)
    }

    /// Validates the jagged invariants, as [`SparseColumn::from_parts`]
    /// does on construction.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] describing the violation.
    pub fn check_invariants(&self) -> Result<(), DataError> {
        if self.offsets.first() != Some(&0) {
            return Err(DataError::ColumnarInvariant {
                reason: "sparse offsets must start at zero".to_string(),
            });
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(DataError::ColumnarInvariant {
                reason: "sparse offsets must be non-decreasing".to_string(),
            });
        }
        if *self.offsets.last().expect("checked non-empty") != self.values.len() {
            return Err(DataError::ColumnarInvariant {
                reason: "sparse offsets must end at the value buffer length".to_string(),
            });
        }
        Ok(())
    }
}

/// A batch of samples in columnar form: flat header/label/dense buffers plus
/// one [`SparseColumn`] per sparse feature, in schema order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ColumnarBatch {
    sessions: Vec<u64>,
    requests: Vec<u64>,
    timestamps: Vec<u64>,
    labels: Vec<f32>,
    /// Row-major `[rows, dense_cols]` dense values. The storage decoder
    /// fills this column-by-column (strided writes into the one flat
    /// allocation); consumers read it row-by-row or move the whole buffer.
    dense: Vec<f32>,
    dense_cols: usize,
    sparse: Vec<SparseColumn>,
}

impl ColumnarBatch {
    /// Creates an empty batch with the given column shape.
    pub fn new(dense_cols: usize, sparse_cols: usize) -> Self {
        Self {
            sessions: Vec::new(),
            requests: Vec::new(),
            timestamps: Vec::new(),
            labels: Vec::new(),
            dense: Vec::new(),
            dense_cols,
            sparse: (0..sparse_cols).map(|_| SparseColumn::new()).collect(),
        }
    }

    /// Creates an empty batch with preallocated row capacity.
    pub fn with_capacity(dense_cols: usize, sparse_cols: usize, rows: usize) -> Self {
        Self {
            sessions: Vec::with_capacity(rows),
            requests: Vec::with_capacity(rows),
            timestamps: Vec::with_capacity(rows),
            labels: Vec::with_capacity(rows),
            dense: Vec::with_capacity(rows * dense_cols),
            dense_cols,
            sparse: (0..sparse_cols)
                .map(|_| SparseColumn::with_capacity(rows, 0))
                .collect(),
        }
    }

    /// Builds a batch from raw column buffers, validating that every column
    /// agrees on the row count.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] describing the first
    /// mismatched column.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        sessions: Vec<u64>,
        requests: Vec<u64>,
        timestamps: Vec<u64>,
        labels: Vec<f32>,
        dense: Vec<f32>,
        dense_cols: usize,
        sparse: Vec<SparseColumn>,
    ) -> Result<Self, DataError> {
        let batch = Self {
            sessions,
            requests,
            timestamps,
            labels,
            dense,
            dense_cols,
            sparse,
        };
        batch.check_invariants()?;
        Ok(batch)
    }

    /// Converts row-wise samples into columnar form. Samples with fewer than
    /// `dense_cols` dense values or `sparse_cols` id lists are zero-padded /
    /// empty-padded, exactly as the storage encoder pads them; extra values
    /// are ignored.
    pub fn from_samples(samples: &[Sample], dense_cols: usize, sparse_cols: usize) -> Self {
        let mut batch = Self::with_capacity(dense_cols, sparse_cols, samples.len());
        for sample in samples {
            batch.push_sample(sample);
        }
        batch
    }

    /// Appends one row-wise sample (padding/truncating to the batch shape).
    pub fn push_sample(&mut self, sample: &Sample) {
        self.sessions.push(sample.session_id.raw());
        self.requests.push(sample.request_id.raw());
        self.timestamps.push(sample.timestamp.as_millis());
        self.labels.push(sample.label);
        for c in 0..self.dense_cols {
            self.dense.push(sample.dense.get(c).copied().unwrap_or(0.0));
        }
        for (f, col) in self.sparse.iter_mut().enumerate() {
            col.push_row(sample.sparse.get(f).map(Vec::as_slice).unwrap_or(&[]));
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns true if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of dense feature columns.
    pub fn dense_cols(&self) -> usize {
        self.dense_cols
    }

    /// Number of sparse feature columns.
    pub fn sparse_cols(&self) -> usize {
        self.sparse.len()
    }

    /// Session id of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn session_id(&self, i: usize) -> SessionId {
        SessionId::new(self.sessions[i])
    }

    /// Request id of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn request_id(&self, i: usize) -> RequestId {
        RequestId::new(self.requests[i])
    }

    /// Timestamp of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn timestamp(&self, i: usize) -> Timestamp {
        Timestamp::from_millis(self.timestamps[i])
    }

    /// Labels in batch order.
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// The flat row-major dense buffer (`len() * dense_cols()` values).
    pub fn dense_values(&self) -> &[f32] {
        &self.dense
    }

    /// Dense row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn dense_row(&self, i: usize) -> &[f32] {
        &self.dense[i * self.dense_cols..(i + 1) * self.dense_cols]
    }

    /// The sparse column of feature `f` (schema order), if present.
    pub fn sparse_column(&self, f: usize) -> Option<&SparseColumn> {
        self.sparse.get(f)
    }

    /// All sparse columns in schema order.
    pub fn sparse_columns(&self) -> &[SparseColumn] {
        &self.sparse
    }

    /// The id list of sparse feature `f` at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.sparse_cols()` or `i >= self.len()`.
    pub fn sparse_row(&self, f: usize, i: usize) -> &[u64] {
        self.sparse[f].row(i)
    }

    /// Total number of sparse ids across all features and rows.
    pub fn sparse_value_count(&self) -> usize {
        self.sparse.iter().map(SparseColumn::value_count).sum()
    }

    /// Approximate in-memory payload of the batch, with the same per-row
    /// accounting as [`Sample::payload_bytes`] (28-byte header, 4 bytes per
    /// dense value, 8 bytes per sparse id).
    pub fn payload_bytes(&self) -> usize {
        const HEADER: usize = 8 + 8 + 8 + 4;
        self.len() * HEADER + self.dense.len() * 4 + self.sparse_value_count() * 8
    }

    /// Removes every row, keeping all buffer capacity and the column shape —
    /// the reset a recycled batch gets before it is refilled.
    pub fn clear(&mut self) {
        self.sessions.clear();
        self.requests.clear();
        self.timestamps.clear();
        self.labels.clear();
        self.dense.clear();
        for col in &mut self.sparse {
            col.clear();
        }
    }

    /// Clears the batch and adjusts it to the given column shape, reusing
    /// existing buffers where the shape already matches.
    pub fn reset(&mut self, dense_cols: usize, sparse_cols: usize) {
        self.clear();
        self.dense_cols = dense_cols;
        self.sparse.resize_with(sparse_cols, SparseColumn::new);
    }

    /// Mutable views of every column buffer, for decoders that refill a
    /// recycled batch in place.
    ///
    /// The caller must leave every column at one common row count (and every
    /// sparse column with valid offsets) before the batch is read again;
    /// [`ColumnarBatch::check_invariants`] validates exactly that.
    pub fn columns_mut(&mut self) -> ColumnsMut<'_> {
        ColumnsMut {
            sessions: &mut self.sessions,
            requests: &mut self.requests,
            timestamps: &mut self.timestamps,
            labels: &mut self.labels,
            dense: &mut self.dense,
            dense_cols: self.dense_cols,
            sparse: &mut self.sparse,
        }
    }

    /// Validates that every column agrees on the row count and every sparse
    /// column satisfies its jagged invariants — the same checks
    /// [`ColumnarBatch::from_parts`] performs on construction.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] describing the first
    /// violation.
    pub fn check_invariants(&self) -> Result<(), DataError> {
        let rows = self.labels.len();
        if self.sessions.len() != rows
            || self.requests.len() != rows
            || self.timestamps.len() != rows
        {
            return Err(DataError::ColumnarInvariant {
                reason: format!(
                    "header columns disagree on row count ({}/{}/{} vs {rows} labels)",
                    self.sessions.len(),
                    self.requests.len(),
                    self.timestamps.len()
                ),
            });
        }
        if self.dense.len() != rows * self.dense_cols {
            return Err(DataError::ColumnarInvariant {
                reason: format!(
                    "dense buffer holds {} values but {rows} rows x {} cols were declared",
                    self.dense.len(),
                    self.dense_cols
                ),
            });
        }
        for (i, col) in self.sparse.iter().enumerate() {
            col.check_invariants()?;
            if col.row_count() != rows {
                return Err(DataError::ColumnarInvariant {
                    reason: format!(
                        "sparse column {i} has {} rows but the batch has {rows}",
                        col.row_count()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Appends every row of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] if the two batches disagree
    /// on dense or sparse column counts.
    pub fn append(&mut self, other: &ColumnarBatch) -> Result<(), DataError> {
        if other.dense_cols != self.dense_cols || other.sparse.len() != self.sparse.len() {
            return Err(DataError::ColumnarInvariant {
                reason: format!(
                    "cannot append a {}x{} batch onto a {}x{} batch",
                    other.dense_cols,
                    other.sparse.len(),
                    self.dense_cols,
                    self.sparse.len()
                ),
            });
        }
        self.sessions.extend_from_slice(&other.sessions);
        self.requests.extend_from_slice(&other.requests);
        self.timestamps.extend_from_slice(&other.timestamps);
        self.labels.extend_from_slice(&other.labels);
        self.dense.extend_from_slice(&other.dense);
        for (dst, src) in self.sparse.iter_mut().zip(&other.sparse) {
            dst.append(src);
        }
        Ok(())
    }

    /// Appends row `row` of `src`. The batches must share a column shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or `row >= src.len()`.
    pub fn push_row_from(&mut self, src: &ColumnarBatch, row: usize) {
        assert_eq!(self.dense_cols, src.dense_cols, "dense shape mismatch");
        assert_eq!(self.sparse.len(), src.sparse.len(), "sparse shape mismatch");
        self.sessions.push(src.sessions[row]);
        self.requests.push(src.requests[row]);
        self.timestamps.push(src.timestamps[row]);
        self.labels.push(src.labels[row]);
        self.dense.extend_from_slice(src.dense_row(row));
        for (dst, col) in self.sparse.iter_mut().zip(&src.sparse) {
            dst.push_row(col.row(row));
        }
    }

    /// Copies rows `range` into a new batch (flat slice copies, no per-row
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> ColumnarBatch {
        let rows = range.end - range.start;
        let mut out = ColumnarBatch::with_capacity(self.dense_cols, self.sparse.len(), rows);
        out.sessions
            .extend_from_slice(&self.sessions[range.clone()]);
        out.requests
            .extend_from_slice(&self.requests[range.clone()]);
        out.timestamps
            .extend_from_slice(&self.timestamps[range.clone()]);
        out.labels.extend_from_slice(&self.labels[range.clone()]);
        out.dense.extend_from_slice(
            &self.dense[range.start * self.dense_cols..range.end * self.dense_cols],
        );
        for (dst, col) in out.sparse.iter_mut().zip(&self.sparse) {
            let start = col.offsets[range.start];
            let end = col.offsets[range.end];
            dst.values.extend_from_slice(&col.values[start..end]);
            dst.offsets.extend(
                col.offsets[range.start + 1..=range.end]
                    .iter()
                    .map(|&o| o - start),
            );
        }
        out
    }

    /// Materializes the batch back into row-wise samples.
    pub fn to_samples(&self) -> Vec<Sample> {
        (0..self.len())
            .map(|i| {
                Sample::builder(self.session_id(i), self.request_id(i), self.timestamp(i))
                    .label(self.labels[i])
                    .dense(self.dense_row(i).to_vec())
                    .sparse(self.sparse.iter().map(|col| col.row(i).to_vec()).collect())
                    .build()
            })
            .collect()
    }
}

/// Mutable views of a [`ColumnarBatch`]'s column buffers, produced by
/// [`ColumnarBatch::columns_mut`] for in-place decoders.
#[derive(Debug)]
pub struct ColumnsMut<'a> {
    /// Session-id column.
    pub sessions: &'a mut Vec<u64>,
    /// Request-id column.
    pub requests: &'a mut Vec<u64>,
    /// Timestamp column (milliseconds).
    pub timestamps: &'a mut Vec<u64>,
    /// Label column.
    pub labels: &'a mut Vec<f32>,
    /// Flat row-major dense buffer (`rows * dense_cols` values).
    pub dense: &'a mut Vec<f32>,
    /// Declared dense width the refilled buffer must honor.
    pub dense_cols: usize,
    /// Sparse columns in schema order.
    pub sparse: &'a mut [SparseColumn],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(session: u64, request: u64, dense: Vec<f32>, sparse: Vec<Vec<u64>>) -> Sample {
        Sample::builder(
            SessionId::new(session),
            RequestId::new(request),
            Timestamp::from_millis(request * 10),
        )
        .label((request % 2) as f32)
        .dense(dense)
        .sparse(sparse)
        .build()
    }

    fn shaped_samples() -> Vec<Sample> {
        vec![
            sample(1, 0, vec![0.5, 1.0], vec![vec![1, 2], vec![]]),
            sample(1, 1, vec![0.25, 2.0], vec![vec![1, 2], vec![9]]),
            sample(2, 2, vec![0.0, 3.0], vec![vec![7], vec![8, 8, 8]]),
        ]
    }

    #[test]
    fn round_trip_is_lossless_for_shaped_samples() {
        let samples = shaped_samples();
        let batch = ColumnarBatch::from_samples(&samples, 2, 2);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.dense_cols(), 2);
        assert_eq!(batch.sparse_cols(), 2);
        assert_eq!(batch.sparse_row(1, 2), &[8, 8, 8]);
        assert_eq!(batch.dense_row(1), &[0.25, 2.0]);
        assert_eq!(batch.session_id(2), SessionId::new(2));
        assert_eq!(batch.to_samples(), samples);
    }

    #[test]
    fn from_samples_pads_like_the_storage_encoder() {
        let ragged = vec![sample(3, 7, vec![1.0], vec![vec![5]])];
        let batch = ColumnarBatch::from_samples(&ragged, 2, 2);
        let back = &batch.to_samples()[0];
        assert_eq!(back.dense, vec![1.0, 0.0]);
        assert_eq!(back.sparse, vec![vec![5], vec![]]);
    }

    #[test]
    fn append_and_slice_preserve_rows() {
        let samples = shaped_samples();
        let mut a = ColumnarBatch::from_samples(&samples[..1], 2, 2);
        let b = ColumnarBatch::from_samples(&samples[1..], 2, 2);
        a.append(&b).unwrap();
        assert_eq!(a.to_samples(), samples);
        assert_eq!(a.slice_rows(1..3).to_samples(), samples[1..].to_vec());
        assert!(a.slice_rows(1..1).is_empty());

        let mismatched = ColumnarBatch::new(1, 2);
        let mut target = ColumnarBatch::new(2, 2);
        assert!(matches!(
            target.append(&mismatched),
            Err(DataError::ColumnarInvariant { .. })
        ));
    }

    #[test]
    fn push_row_from_copies_single_rows() {
        let samples = shaped_samples();
        let src = ColumnarBatch::from_samples(&samples, 2, 2);
        let mut dst = ColumnarBatch::new(2, 2);
        dst.push_row_from(&src, 2);
        dst.push_row_from(&src, 0);
        let back = dst.to_samples();
        assert_eq!(back[0], samples[2]);
        assert_eq!(back[1], samples[0]);
    }

    #[test]
    fn sparse_column_from_lengths_validates() {
        let col = SparseColumn::from_lengths(vec![1, 2, 3], &[2, 0, 1]).unwrap();
        assert_eq!(col.row_count(), 3);
        assert_eq!(col.row(0), &[1, 2]);
        assert_eq!(col.row(1), &[] as &[u64]);
        assert_eq!(col.row(2), &[3]);
        assert_eq!(col.row_len(2), 1);
        assert!(matches!(
            SparseColumn::from_lengths(vec![1, 2], &[3]),
            Err(DataError::ColumnarInvariant { .. })
        ));
    }

    #[test]
    fn sparse_column_from_parts_validates() {
        assert!(SparseColumn::from_parts(vec![1, 2], vec![0, 1, 2]).is_ok());
        for bad in [vec![], vec![1, 2], vec![0, 2, 1], vec![0, 1]] {
            assert!(matches!(
                SparseColumn::from_parts(vec![1, 2], bad),
                Err(DataError::ColumnarInvariant { .. })
            ));
        }
    }

    #[test]
    fn from_parts_validates_row_counts() {
        let ok = ColumnarBatch::from_parts(
            vec![1],
            vec![2],
            vec![3],
            vec![0.0],
            vec![1.0, 2.0],
            2,
            vec![SparseColumn::from_lengths(vec![5], &[1]).unwrap()],
        );
        assert!(ok.is_ok());
        let bad_header =
            ColumnarBatch::from_parts(vec![1, 2], vec![2], vec![3], vec![0.0], vec![], 0, vec![]);
        assert!(matches!(
            bad_header,
            Err(DataError::ColumnarInvariant { .. })
        ));
        let bad_dense =
            ColumnarBatch::from_parts(vec![1], vec![2], vec![3], vec![0.0], vec![1.0], 2, vec![]);
        assert!(matches!(
            bad_dense,
            Err(DataError::ColumnarInvariant { .. })
        ));
        let bad_sparse = ColumnarBatch::from_parts(
            vec![1],
            vec![2],
            vec![3],
            vec![0.0],
            vec![],
            0,
            vec![SparseColumn::new()],
        );
        assert!(matches!(
            bad_sparse,
            Err(DataError::ColumnarInvariant { .. })
        ));
    }

    #[test]
    fn payload_accounting_matches_row_wise() {
        let samples = shaped_samples();
        let batch = ColumnarBatch::from_samples(&samples, 2, 2);
        let row_wise: usize = samples.iter().map(Sample::payload_bytes).sum();
        assert_eq!(batch.payload_bytes(), row_wise);
        assert_eq!(
            batch.sparse_value_count(),
            samples
                .iter()
                .map(Sample::sparse_value_count)
                .sum::<usize>()
        );
    }
}
