//! Dense feature matrices (batch-major float features).

use crate::{CoreError, Result};
use recd_data::ColumnarBatch;
use serde::{Deserialize, Serialize};

/// A row-major `[batch_size, feature_count]` matrix of dense feature values.
///
/// Dense features flow through the pipeline unchanged by RecD (deduplication
/// targets sparse features), but the trainer's bottom MLP consumes them, so
/// the converter materializes them alongside the sparse tensors.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DenseMatrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatchSizeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(CoreError::BatchSizeMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { data, rows, cols })
    }

    /// Extracts the dense features of a columnar batch. When the batch's
    /// dense width already matches `cols` (the common, schema-driven case)
    /// this is a single flat buffer copy; otherwise rows are zero-padded or
    /// truncated to `cols`.
    pub fn from_columnar(batch: &ColumnarBatch, cols: usize) -> Self {
        let mut m = Self::default();
        m.assign_from_columnar(batch, cols);
        m
    }

    /// Refills the matrix from a columnar batch, reusing its existing
    /// buffer — the allocation-free counterpart of
    /// [`DenseMatrix::from_columnar`] for recycled
    /// [`ConvertedBatch`](crate::ConvertedBatch) shells.
    pub fn assign_from_columnar(&mut self, batch: &ColumnarBatch, cols: usize) {
        self.rows = batch.len();
        self.cols = cols;
        self.data.clear();
        if batch.dense_cols() == cols {
            self.data.extend_from_slice(batch.dense_values());
            return;
        }
        self.data.resize(batch.len() * cols, 0.0);
        for i in 0..batch.len() {
            let row = batch.dense_row(i);
            let n = row.len().min(cols);
            self.data[i * cols..i * cols + n].copy_from_slice(&row[..n]);
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows the full row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the full row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Size of the matrix payload in bytes (4 bytes per element).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::{RequestId, Sample, SessionId, Timestamp};

    #[test]
    fn zeros_and_indexing() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_empty());
        m.row_mut(1)[2] = 5.0;
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.payload_bytes(), 24);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(DenseMatrix::from_vec(vec![1.0; 6], 2, 3).is_ok());
        assert!(matches!(
            DenseMatrix::from_vec(vec![1.0; 5], 2, 3),
            Err(CoreError::BatchSizeMismatch { .. })
        ));
    }

    #[test]
    fn from_columnar_pads_and_truncates() {
        let batch = ColumnarBatch::from_samples(
            &[Sample::builder(
                SessionId::new(1),
                RequestId::new(0),
                Timestamp::from_millis(0),
            )
            .dense(vec![1.0, 2.0, 3.0])
            .build()],
            3,
            0,
        );
        assert_eq!(DenseMatrix::from_columnar(&batch, 2).row(0), &[1.0, 2.0]);
        let padded = DenseMatrix::from_columnar(&batch, 4);
        assert_eq!(padded.row(0), &[1.0, 2.0, 3.0, 0.0]);
        assert_eq!(
            DenseMatrix::from_columnar(&batch, 3).data(),
            &[1.0, 2.0, 3.0]
        );
    }
}
