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
use crate::ids::{FeatureId, RequestId, SessionId, Timestamp};
use crate::sample::Sample;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cell::Cell;
use std::ops::Range;

/// One sparse feature for a whole batch: a flat value buffer plus row
/// offsets (`offsets.len() == rows + 1`, `offsets[0] == 0`).
///
/// This is the same jagged layout `recd-core`'s `JaggedTensor` uses; it is
/// re-declared here (rather than imported) because `recd-data` sits below
/// `recd-core` in the crate graph.
///
/// A column also carries one *repeat hint* per row, and the hint is
/// one-sided: a marked row is guaranteed to equal the row before it, and an
/// unmarked row guarantees nothing, so clearing any hint is always safe. The
/// storage decoder marks the rows it copied instead of parsing,
/// [`extend_rows`](Self::extend_rows) keeps the hints of every row but the
/// first it adds, and the IKJT converter gives a row marked in every
/// grouped column its predecessor's slot. Equality and every row read
/// ignore the hints.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SparseColumn {
    values: Vec<u64>,
    offsets: Vec<usize>,
    /// `repeats[i]` is row `i`'s hint. Rows at or past the end are
    /// unmarked, so a column nobody marks never touches this buffer.
    #[serde(skip)]
    repeats: Vec<bool>,
}

impl PartialEq for SparseColumn {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values && self.offsets == other.offsets
    }
}

impl Eq for SparseColumn {}

/// Mutable views of a [`SparseColumn`]'s buffers, produced by
/// [`SparseColumn::parts_mut`] for decoders that refill a column in place.
#[derive(Debug)]
pub struct SparseParts<'a> {
    /// The flat value buffer.
    pub values: &'a mut Vec<u64>,
    /// Row offsets into `values` (`rows + 1` entries, leading zero).
    pub offsets: &'a mut Vec<usize>,
    /// Repeat hints, one per row from the front; rows past its end are
    /// unmarked. It must stay no longer than the row count, and a `true`
    /// must only ever mark a row equal to the row before it.
    pub repeats: &'a mut Vec<bool>,
}

impl SparseColumn {
    /// Creates an empty column with zero rows.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            offsets: vec![0],
            repeats: Vec::new(),
        }
    }

    /// Creates an empty column with preallocated capacity.
    pub fn with_capacity(rows: usize, values: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            values: Vec::with_capacity(values),
            offsets,
            repeats: Vec::new(),
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
        Ok(Self {
            values,
            offsets,
            repeats: Vec::new(),
        })
    }

    /// Builds a column from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] if the offsets slice is
    /// empty, does not start at zero, is decreasing, or does not end at
    /// `values.len()`.
    pub fn from_parts(values: Vec<u64>, offsets: Vec<usize>) -> Result<Self, DataError> {
        let column = Self {
            values,
            offsets,
            repeats: Vec::new(),
        };
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

    /// Appends rows `range` of `src` with two slice copies. The hints of
    /// the copied rows come along, except the first row's: its predecessor
    /// here is not the one it was marked against.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn extend_rows(&mut self, src: &SparseColumn, range: Range<usize>) {
        let first = self.row_count();
        src.copy_rows_into(range.clone(), &mut self.values, &mut self.offsets);
        let marked = src.repeats.len().min(range.end);
        if marked > range.start + 1 {
            self.repeats.resize(first + 1, false);
            self.repeats
                .extend_from_slice(&src.repeats[range.start + 1..marked]);
        }
    }

    /// Appends rows `range` to a flat `(values, offsets)` pair: two slice
    /// copies, the offsets rebased onto `values.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_rows_into(
        &self,
        range: Range<usize>,
        values: &mut Vec<u64>,
        offsets: &mut Vec<usize>,
    ) {
        let (start, end) = (self.offsets[range.start], self.offsets[range.end]);
        let base = values.len();
        values.extend_from_slice(&self.values[start..end]);
        offsets.extend(
            self.offsets[range.start + 1..=range.end]
                .iter()
                .map(|&o| o - start + base),
        );
    }

    /// Whether row `i` is marked as equal to row `i - 1`. False is always
    /// a correct answer; see the type docs.
    pub fn is_repeat(&self, i: usize) -> bool {
        self.repeats.get(i).copied().unwrap_or(false)
    }

    /// The repeat hints from row 0 up to the last row that may be marked;
    /// every later row is unmarked.
    pub fn repeats(&self) -> &[bool] {
        &self.repeats
    }

    /// Marks row `i` as equal to row `i - 1`. The caller vouches for it:
    /// convert trusts a marked row without comparing it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.row_count()`.
    pub fn mark_repeat(&mut self, i: usize) {
        assert!(i < self.row_count(), "row {i} out of range");
        if self.repeats.len() <= i {
            self.repeats.resize(i + 1, false);
        }
        self.repeats[i] = true;
    }

    /// Unmarks every row.
    pub fn clear_repeats(&mut self) {
        self.repeats.clear();
    }

    /// Checks the repeat hints against the rows — every marked row equals
    /// its predecessor, row 0 is unmarked, and no hint outlives the rows.
    /// It reads every marked row, so only tests and debug builds run it.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] naming the first unsound
    /// hint.
    pub fn check_repeats(&self) -> Result<(), DataError> {
        let unsound = |reason: String| Err(DataError::ColumnarInvariant { reason });
        if self.repeats.len() > self.row_count() {
            return unsound(format!(
                "{} repeat hints for {} rows",
                self.repeats.len(),
                self.row_count()
            ));
        }
        if self.is_repeat(0) {
            return unsound("row 0 is marked as a repeat".to_string());
        }
        match (1..self.repeats.len()).find(|&i| self.repeats[i] && self.row(i) != self.row(i - 1)) {
            Some(i) => unsound(format!("row {i} is marked but differs from row {}", i - 1)),
            None => Ok(()),
        }
    }

    /// Removes every row, keeping the buffer capacity for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.repeats.clear();
    }

    /// Mutable access to the raw buffers, for decoders that refill a
    /// recycled column in place.
    ///
    /// The caller must restore the jagged invariants (offsets start at zero,
    /// are non-decreasing, and end at the value count) before the column is
    /// read again, which [`ColumnarBatch::check_invariants`] validates, and
    /// must keep every repeat hint sound, which nothing on that path checks.
    pub fn parts_mut(&mut self) -> SparseParts<'_> {
        SparseParts {
            values: &mut self.values,
            offsets: &mut self.offsets,
            repeats: &mut self.repeats,
        }
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

    /// Appends every row of `other`, with the repeat hints
    /// [`SparseColumn::extend_rows`] keeps.
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
        self.extend_rows_from(other, 0..other.len());
        Ok(())
    }

    /// Appends rows `range` of `src`: one slice copy per column, with the
    /// repeat hints [`SparseColumn::extend_rows`] keeps. The batches must
    /// share a column shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or the range is out of bounds.
    pub fn extend_rows_from(&mut self, src: &ColumnarBatch, range: Range<usize>) {
        assert_eq!(self.dense_cols, src.dense_cols, "dense shape mismatch");
        assert_eq!(self.sparse.len(), src.sparse.len(), "sparse shape mismatch");
        self.sessions
            .extend_from_slice(&src.sessions[range.clone()]);
        self.requests
            .extend_from_slice(&src.requests[range.clone()]);
        self.timestamps
            .extend_from_slice(&src.timestamps[range.clone()]);
        self.labels.extend_from_slice(&src.labels[range.clone()]);
        self.dense.extend_from_slice(
            &src.dense[range.start * src.dense_cols..range.end * src.dense_cols],
        );
        for (dst, col) in self.sparse.iter_mut().zip(&src.sparse) {
            dst.extend_rows(col, range.clone());
        }
    }

    /// Checks every sparse column's repeat hints against its rows
    /// ([`SparseColumn::check_repeats`]); only tests and debug builds run
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ColumnarInvariant`] naming the first column with
    /// an unsound hint.
    pub fn check_repeats(&self) -> Result<(), DataError> {
        for (f, col) in self.sparse.iter().enumerate() {
            col.check_repeats()
                .map_err(|err| DataError::ColumnarInvariant {
                    reason: format!("sparse column {f}: {err}"),
                })?;
        }
        Ok(())
    }

    /// Unmarks every row of every sparse column.
    pub fn clear_repeats(&mut self) {
        for col in &mut self.sparse {
            col.clear_repeats();
        }
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

/// Rows of one or more batches of one shape, read in order as one batch
/// without copying them: run `i` is rows `runs[i].1` of batch `runs[i].0`,
/// borrowed (`&ColumnarBatch`) or shared (`Arc<ColumnarBatch>`). A view
/// reads what [`ColumnarBatch::extend_rows_from`] copies of the same runs,
/// repeat hints included: a run's first row reads as unmarked. A read
/// starts looking for its row's run at the run read last, and panics on a
/// row or feature out of range.
#[derive(Debug)]
pub struct RowRuns<'a, B> {
    runs: &'a [(B, Range<usize>)],
    rows: usize,
    /// The run read last and the view row it starts at.
    cursor: Cell<(usize, usize)>,
}

impl<'a, B: Borrow<ColumnarBatch>> RowRuns<'a, B> {
    /// A view of `runs`, in order.
    pub fn new(runs: &'a [(B, Range<usize>)]) -> Self {
        Self {
            runs,
            rows: runs.iter().map(|(_, rows)| rows.len()).sum(),
            cursor: Cell::new((0, 0)),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Each run's batch and rows, in order.
    pub fn runs(&self) -> impl Iterator<Item = (&'a ColumnarBatch, Range<usize>)> {
        self.runs
            .iter()
            .map(|(batch, rows)| (batch.borrow(), rows.clone()))
    }

    /// Number of sparse feature columns (0 for a view with no runs).
    pub fn sparse_cols(&self) -> usize {
        self.runs()
            .next()
            .map_or(0, |(batch, _)| batch.sparse_cols())
    }

    /// The batch holding view row `row`, the row's index there, and whether
    /// it starts its run.
    fn locate(&self, row: usize) -> (&'a ColumnarBatch, usize, bool) {
        let runs = self.runs;
        let (mut run, mut start) = self.cursor.get();
        if row < start {
            (run, start) = (0, 0);
        }
        while row >= start + runs[run].1.len() {
            start += runs[run].1.len();
            run += 1;
        }
        self.cursor.set((run, start));
        let (batch, rows) = &runs[run];
        (batch.borrow(), rows.start + row - start, row == start)
    }

    /// The id list of sparse feature `f` at view row `row`.
    pub fn sparse_row(&self, f: usize, row: usize) -> &'a [u64] {
        let (batch, row, _) = self.locate(row);
        batch.sparse[f].row(row)
    }

    /// Appends, in order, every view row not marked as equal to the row
    /// before it in all columns of `features`, each run's first row among
    /// them.
    pub fn unmarked_rows(&self, features: &[FeatureId], out: &mut Vec<usize>) {
        let mut start = 0;
        for (batch, rows) in self.runs() {
            let columns = &batch.sparse;
            // Rows past the shortest marked prefix are never marked.
            let marked = features
                .iter()
                .map(|f| columns[f.index()].repeats.len())
                .min()
                .unwrap_or(rows.end);
            for row in rows.clone() {
                if row == rows.start
                    || row >= marked
                    || !features.iter().all(|f| columns[f.index()].is_repeat(row))
                {
                    out.push(start + row - rows.start);
                }
            }
            start += rows.len();
        }
    }

    /// Whether view row `row` is marked as equal to the row before it in
    /// every column of `features`. False on a run's first row.
    pub fn is_repeat(&self, features: &[FeatureId], row: usize) -> bool {
        let (batch, row, first) = self.locate(row);
        !first
            && features
                .iter()
                .all(|f| batch.sparse[f.index()].is_repeat(row))
    }
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
    fn append_and_extend_rows_from_preserve_rows() {
        let samples = shaped_samples();
        let mut a = ColumnarBatch::from_samples(&samples[..1], 2, 2);
        let b = ColumnarBatch::from_samples(&samples[1..], 2, 2);
        a.append(&b).unwrap();
        assert_eq!(a.to_samples(), samples);
        let mut tail = ColumnarBatch::new(2, 2);
        tail.extend_rows_from(&a, 1..3);
        assert_eq!(tail.to_samples(), samples[1..].to_vec());
        let mut none = ColumnarBatch::new(2, 2);
        none.extend_rows_from(&a, 1..1);
        assert!(none.is_empty());

        let mismatched = ColumnarBatch::new(1, 2);
        let mut target = ColumnarBatch::new(2, 2);
        assert!(matches!(
            target.append(&mismatched),
            Err(DataError::ColumnarInvariant { .. })
        ));
    }

    #[test]
    fn extend_rows_from_copies_runs() {
        let samples = shaped_samples();
        let src = ColumnarBatch::from_samples(&samples, 2, 2);
        let mut dst = ColumnarBatch::new(2, 2);
        dst.extend_rows_from(&src, 2..3);
        dst.extend_rows_from(&src, 0..2);
        dst.extend_rows_from(&src, 1..1);
        let back = dst.to_samples();
        assert_eq!(back, [&samples[2..], &samples[..2]].concat());
    }

    /// Rows 0..4 of one column: `[1]`, `[1]`, `[1]`, `[2]`, with rows 1
    /// and 2 marked.
    fn marked_column() -> SparseColumn {
        let mut col = SparseColumn::from_lengths(vec![1, 1, 1, 2], &[1, 1, 1, 1]).unwrap();
        col.mark_repeat(1);
        col.mark_repeat(2);
        col
    }

    #[test]
    fn repeat_hints_survive_runs_but_not_a_runs_first_row() {
        let src = marked_column();
        assert_eq!(src.repeats(), &[false, true, true]);
        src.check_repeats().unwrap();

        let mut dst = SparseColumn::new();
        dst.push_row(&[1]);
        dst.extend_rows(&src, 1..4);
        // The run's first row followed a different row in `src`.
        assert_eq!(dst.repeats(), &[false, false, true]);
        dst.check_repeats().unwrap();

        let mut appended = marked_column();
        appended.extend_rows(&src, 0..src.row_count());
        assert_eq!(
            appended.repeats(),
            &[false, true, true, false, false, true, true]
        );
        appended.check_repeats().unwrap();

        // A run with no marked rows past its first leaves the hints alone.
        let mut plain = SparseColumn::new();
        plain.extend_rows(&src, 0..1);
        plain.extend_rows(&src, 2..4);
        assert!(plain.repeats().is_empty());
    }

    #[test]
    fn hints_are_invisible_to_equality_and_rows() {
        let marked = marked_column();
        let plain = SparseColumn::from_lengths(vec![1, 1, 1, 2], &[1, 1, 1, 1]).unwrap();
        assert_eq!(marked, plain);
        let mut cleared = marked.clone();
        cleared.clear_repeats();
        assert!(cleared.repeats().is_empty());
        assert_eq!(cleared, marked);
        let mut reused = marked.clone();
        reused.clear();
        assert!(reused.repeats().is_empty());
    }

    #[test]
    fn check_repeats_names_every_kind_of_unsound_hint() {
        let mut row0 = marked_column();
        row0.mark_repeat(0);
        assert!(row0.check_repeats().is_err());

        let mut differs = marked_column();
        differs.mark_repeat(3);
        assert!(differs.check_repeats().is_err());

        let mut batch = ColumnarBatch::from_samples(&shaped_samples(), 2, 2);
        batch.check_repeats().unwrap();
        batch.sparse[1].mark_repeat(2);
        let err = batch.check_repeats().unwrap_err().to_string();
        assert!(err.contains("sparse column 1"), "{err}");
        batch.clear_repeats();
        batch.check_repeats().unwrap();
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
