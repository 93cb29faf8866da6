//! Jagged tensors: a flat value buffer plus row offsets, optionally with
//! per-row starts that let rows overlap in the buffer.

use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// A tensor with one jagged (variable-length) dimension.
///
/// Rows are stored back-to-back in `values`; `offsets` has `rows + 1`
/// entries with `offsets[0] == 0` and `offsets[rows] == values.len()`, so row
/// `i` occupies `values[offsets[i]..offsets[i + 1]]`.
///
/// The paper's figures show the equivalent TorchRec convention where the last
/// offset is implicit; the explicit trailing offset used here removes a
/// special case without changing any of the byte accounting (one extra `u64`
/// per feature per batch).
///
/// That is the *contiguous* form. [`JaggedTensor::pack_windows`] may turn a
/// `u64` tensor into the *windowed* form (paper §7's partial IKJTs): `values`
/// becomes a pool the rows may overlap in, `offsets` keep the rows' lengths
/// as running sums (so `offsets[rows]` is the rows' total length, not the
/// pool's), and `starts` holds one pool position per row. Row `i` is then
/// `values[starts[i]..]` of length `offsets[i + 1] - offsets[i]`. The
/// contiguous form keeps `starts` empty. [`JaggedTensor::row`],
/// [`JaggedTensor::get`] and [`JaggedTensor::iter`] read both forms alike;
/// the flat in-place editor refuses the windowed form. Equality compares
/// the stored form, so a tensor and its packed copy are not equal.
///
/// # Example
///
/// ```
/// use recd_core::JaggedTensor;
///
/// let jt = JaggedTensor::from_lists(&[vec![1u64, 2], vec![], vec![7, 8, 9]]);
/// assert_eq!(jt.row_count(), 3);
/// assert_eq!(jt.row(2), &[7, 8, 9]);
/// assert_eq!(jt.lengths(), vec![2, 0, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JaggedTensor<T = u64> {
    values: Vec<T>,
    offsets: Vec<usize>,
    /// Empty in the contiguous form; one pool position per row in the
    /// windowed form.
    starts: Vec<usize>,
}

/// The default tensor is a valid empty tensor (zero rows) — important for
/// `std::mem::take`-style buffer stealing, which must leave a tensor every
/// accessor can safely touch.
impl<T> Default for JaggedTensor<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> JaggedTensor<T> {
    /// Creates an empty jagged tensor with zero rows.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            offsets: vec![0],
            starts: Vec::new(),
        }
    }

    /// Creates a jagged tensor from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOffsets`] if the offsets slice is empty,
    /// does not start at zero, is decreasing, or does not end at
    /// `values.len()`.
    pub fn from_parts(values: Vec<T>, offsets: Vec<usize>) -> Result<Self> {
        validate_offsets(&offsets, values.len())?;
        Ok(Self {
            values,
            offsets,
            starts: Vec::new(),
        })
    }

    /// Builds a jagged tensor by copying a slice of row lists.
    pub fn from_lists(rows: &[Vec<T>]) -> Self
    where
        T: Clone,
    {
        let mut values = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        for row in rows {
            values.extend_from_slice(row);
            offsets.push(values.len());
        }
        Self {
            values,
            offsets,
            starts: Vec::new(),
        }
    }

    /// Builds a jagged tensor by copying rows produced by an iterator of
    /// slices.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        T: Clone + 'a,
        I: IntoIterator<Item = &'a [T]>,
    {
        let mut tensor = Self::new();
        for row in rows {
            tensor.push_row(row);
        }
        tensor
    }

    /// Appends a row (to the end of the pool, in the windowed form).
    pub fn push_row(&mut self, row: &[T])
    where
        T: Clone,
    {
        let end = self.offsets[self.offsets.len() - 1] + row.len();
        if self.is_windowed() {
            self.starts.push(self.values.len());
        }
        self.values.extend_from_slice(row);
        self.offsets.push(end);
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns true if the tensor has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Number of values stored: every row's values in the contiguous form,
    /// the shared pool (each value once) in the windowed form.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor is in the windowed form.
    pub fn is_windowed(&self) -> bool {
        !self.starts.is_empty()
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.row_count()`.
    pub fn row(&self, i: usize) -> &[T] {
        let len = self.offsets[i + 1] - self.offsets[i];
        let start = if self.starts.is_empty() {
            self.offsets[i]
        } else {
            self.starts[i]
        };
        &self.values[start..start + len]
    }

    /// Returns row `i`, or `None` if it is out of range.
    pub fn get(&self, i: usize) -> Option<&[T]> {
        if i < self.row_count() {
            Some(self.row(i))
        } else {
            None
        }
    }

    /// Borrows the flat value buffer (the pool, in the windowed form).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Borrows the offsets slice (`row_count() + 1` running sums of the row
    /// lengths).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Borrows the per-row pool positions: empty in the contiguous form,
    /// `row_count()` entries in the windowed form.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Removes every row, keeping buffer capacity for reuse. The tensor is
    /// contiguous again.
    pub fn clear(&mut self) {
        self.values.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.starts.clear();
    }

    /// Hands the `(values, offsets)` buffers to `edit` for in-place
    /// mutation, then re-validates the jagged invariants — the entry point
    /// for flat in-place transforms, with zero allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WindowedTensor`] without calling `edit` if the
    /// tensor is windowed, whose rows the pair alone does not describe.
    /// Returns [`CoreError::InvalidOffsets`] if the closure leaves the
    /// buffers violating the invariants; the tensor then holds exactly what
    /// the closure produced and must not be read until refilled.
    pub fn edit_flat(&mut self, edit: impl FnOnce(&mut Vec<T>, &mut Vec<usize>)) -> Result<()> {
        if self.is_windowed() {
            return Err(CoreError::WindowedTensor);
        }
        edit(&mut self.values, &mut self.offsets);
        validate_offsets(&self.offsets, self.values.len())
    }

    /// Returns the per-row lengths.
    pub fn lengths(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Length of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.row_count()`.
    pub fn row_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Length of the longest row, or 0 for an empty tensor.
    pub fn max_row_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Iterates over rows as slices.
    pub fn iter(&self) -> JaggedRows<'_, T> {
        JaggedRows {
            tensor: self,
            next: 0,
        }
    }
}

impl JaggedTensor<u64> {
    /// Bytes the tensor ships: 8 per value, offset and start.
    pub fn payload_bytes(&self) -> usize {
        (self.values.len() + self.offsets.len() + self.starts.len()) * 8
    }

    /// Packs a contiguous tensor into the windowed form when that ships
    /// strictly fewer bytes, in place and without allocating once `starts`
    /// has held this many rows. One linear walk plans a window per row:
    ///
    /// - a row equal to its predecessor takes the predecessor's window;
    /// - a row *shifted by one* — as long as its predecessor, at least 2
    ///   ids, and equal to it with the first id dropped and one appended —
    ///   appends that one id and takes the window one past the
    ///   predecessor's, which ends at the pool's end;
    /// - any other row appends all of its ids.
    ///
    /// The plan is kept only if the pool plus one start per row is smaller
    /// than the values it replaces; a second walk then compacts each row's
    /// appended ids toward the front. Every row reads back unchanged. A
    /// windowed tensor is left as it is, so packing twice is a no-op.
    pub fn pack_windows(&mut self) {
        if self.is_windowed() {
            return;
        }
        let Self {
            values,
            offsets,
            starts,
        } = self;
        let rows = offsets.len() - 1;
        starts.clear();
        starts.reserve(rows);
        let (mut pool, mut prev, mut prev_start): (usize, &[u64], usize) = (0, &[], 0);
        for bounds in offsets.windows(2) {
            let row = &values[bounds[0]..bounds[1]];
            let len = row.len();
            // The first ids decide most rows before a slice compare runs.
            let start = if len > 0 && len == prev.len() && row[0] == prev[0] && row == prev {
                prev_start
            } else if len >= 2
                && len == prev.len()
                && row[0] == prev[1]
                && row[..len - 1] == prev[1..]
            {
                debug_assert_eq!(prev_start + len, pool, "windows end at the pool's end");
                pool += 1;
                prev_start + 1
            } else {
                pool += len;
                pool - len
            };
            starts.push(start);
            (prev, prev_start) = (row, start);
        }
        if pool + rows >= values.len() {
            starts.clear();
            return;
        }
        // Every row's window ends within the pool written so far, or past
        // it by exactly the ids the row appends — its last ones. Rows
        // before this one appended at most as many ids as they hold, so the
        // copy never overwrites a row still to be read, and until a row
        // appends fewer ids than it holds every row is already in place.
        let mut written = 0;
        for (&start, bounds) in starts.iter().zip(offsets.windows(2)) {
            let (window_end, row_end) = (start + bounds[1] - bounds[0], bounds[1]);
            if window_end > written {
                let appended = row_end - (window_end - written);
                if appended != written {
                    values.copy_within(appended..row_end, written);
                }
                written = window_end;
            }
        }
        values.truncate(written);
    }
}

impl JaggedTensor<f32> {
    /// Bytes the tensor ships: 4 per value, 8 per offset and start.
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * 4 + (self.offsets.len() + self.starts.len()) * 8
    }
}

/// Validates a jagged offsets slice against a value-buffer length — the
/// invariant shared by [`JaggedTensor::from_parts`] and
/// [`JaggedTensor::edit_flat`].
fn validate_offsets(offsets: &[usize], value_len: usize) -> Result<()> {
    if offsets.is_empty() {
        return Err(CoreError::InvalidOffsets {
            reason: "offsets must contain at least one entry",
        });
    }
    if offsets[0] != 0 {
        return Err(CoreError::InvalidOffsets {
            reason: "offsets must start at zero",
        });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(CoreError::InvalidOffsets {
            reason: "offsets must be non-decreasing",
        });
    }
    if *offsets.last().expect("non-empty") != value_len {
        return Err(CoreError::InvalidOffsets {
            reason: "offsets must end at the values length",
        });
    }
    Ok(())
}

/// Iterator over the rows of a [`JaggedTensor`], produced by
/// [`JaggedTensor::iter`].
#[derive(Debug, Clone)]
pub struct JaggedRows<'a, T> {
    tensor: &'a JaggedTensor<T>,
    next: usize,
}

impl<'a, T> Iterator for JaggedRows<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<Self::Item> {
        if self.next < self.tensor.row_count() {
            let row = self.tensor.row(self.next);
            self.next += 1;
            Some(row)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.tensor.row_count() - self.next;
        (remaining, Some(remaining))
    }
}

impl<'a, T> ExactSizeIterator for JaggedRows<'a, T> {}

impl<T: Clone> FromIterator<Vec<T>> for JaggedTensor<T> {
    fn from_iter<I: IntoIterator<Item = Vec<T>>>(iter: I) -> Self {
        let mut tensor = Self::new();
        for row in iter {
            tensor.push_row(&row);
        }
        tensor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_and_accessors() {
        let jt = JaggedTensor::from_lists(&[vec![1u64, 2], vec![], vec![7, 8, 9]]);
        assert_eq!(jt.row_count(), 3);
        assert_eq!(jt.value_count(), 5);
        assert_eq!(jt.row(0), &[1, 2]);
        assert_eq!(jt.row(1), &[] as &[u64]);
        assert_eq!(jt.row(2), &[7, 8, 9]);
        assert_eq!(jt.get(3), None);
        assert_eq!(jt.lengths(), vec![2, 0, 3]);
        assert_eq!(jt.row_len(2), 3);
        assert_eq!(jt.max_row_len(), 3);
        assert_eq!(jt.offsets(), &[0, 2, 2, 5]);
        assert!(!jt.is_empty());
    }

    #[test]
    fn empty_tensor() {
        let jt: JaggedTensor<u64> = JaggedTensor::new();
        assert!(jt.is_empty());
        assert_eq!(jt.row_count(), 0);
        assert_eq!(jt.value_count(), 0);
        assert_eq!(jt.max_row_len(), 0);
        assert_eq!(jt.iter().count(), 0);
    }

    #[test]
    fn from_parts_validation() {
        assert!(JaggedTensor::from_parts(vec![1u64, 2], vec![0, 1, 2]).is_ok());
        assert!(matches!(
            JaggedTensor::from_parts(vec![1u64], Vec::new()),
            Err(CoreError::InvalidOffsets { .. })
        ));
        assert!(matches!(
            JaggedTensor::from_parts(vec![1u64], vec![1, 1]),
            Err(CoreError::InvalidOffsets { .. })
        ));
        assert!(matches!(
            JaggedTensor::from_parts(vec![1u64, 2], vec![0, 2, 1]),
            Err(CoreError::InvalidOffsets { .. })
        ));
        assert!(matches!(
            JaggedTensor::from_parts(vec![1u64, 2], vec![0, 1]),
            Err(CoreError::InvalidOffsets { .. })
        ));
    }

    #[test]
    fn push_row_matches_from_lists() {
        let rows = vec![vec![5u64], vec![6, 7], vec![]];
        let mut incremental = JaggedTensor::new();
        for row in &rows {
            incremental.push_row(row);
        }
        assert_eq!(incremental, JaggedTensor::from_lists(&rows));
        let collected: JaggedTensor<u64> = rows.clone().into_iter().collect();
        assert_eq!(collected, incremental);
    }

    #[test]
    fn iterator_and_round_trip_through_parts() {
        let jt = JaggedTensor::from_lists(&[vec![1u64, 2], vec![3]]);
        let rows: Vec<Vec<u64>> = jt.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 2], vec![3]]);
        assert_eq!(jt.iter().len(), 2);
        let parts = JaggedTensor::from_parts(jt.values().to_vec(), jt.offsets().to_vec());
        assert_eq!(parts.unwrap(), jt);
    }

    #[test]
    fn a_sliding_history_packs_one_id_per_row() {
        // Paper §7: a history of 4 that gains one id and drops its oldest,
        // repeated once on the way.
        let rows: Vec<Vec<u64>> = vec![
            vec![1, 2, 3, 4],
            vec![2, 3, 4, 5],
            vec![2, 3, 4, 5],
            vec![3, 4, 5, 6],
            vec![],
            vec![9],
        ];
        let mut jt = JaggedTensor::from_lists(&rows);
        jt.pack_windows();
        assert!(jt.is_windowed());
        assert_eq!(jt.values(), &[1, 2, 3, 4, 5, 6, 9]);
        assert_eq!(jt.starts(), &[0, 1, 1, 2, 6, 6]);
        assert_eq!(jt.offsets(), &[0, 4, 8, 12, 16, 16, 17]);
        assert_eq!(jt.iter().collect::<Vec<_>>(), rows);
        assert_eq!(jt.value_count(), 7);
        assert_eq!(jt.payload_bytes(), (7 + 7 + 6) * 8);

        // A row appended to the windowed form lands at the pool's end.
        jt.push_row(&[4, 5]);
        assert_eq!(jt.row(6), &[4, 5]);
        assert_eq!(jt.starts()[6], 7);
        // Flat edits refuse windows and leave the tensor as it was.
        let before = jt.clone();
        assert_eq!(jt.edit_flat(|_, _| {}), Err(CoreError::WindowedTensor));
        assert_eq!(jt, before);
        jt.clear();
        assert!(!jt.is_windowed() && jt.is_empty());
    }

    #[test]
    fn payload_bytes_accounting() {
        let jt = JaggedTensor::from_lists(&[vec![1u64, 2, 3], vec![4]]);
        // 4 values * 8 + 3 offsets * 8
        assert_eq!(jt.payload_bytes(), 32 + 24);
        let jf = JaggedTensor::from_lists(&[vec![1.0f32, 2.0]]);
        assert_eq!(jf.payload_bytes(), 8 + 16);
    }

    #[test]
    fn generic_over_float_rows() {
        let jt = JaggedTensor::from_lists(&[vec![1.0f32, 2.0], vec![3.0]]);
        assert_eq!(jt.row(1), &[3.0]);
    }
}
