//! Dense feature matrices (batch-major float features).

use crate::{CoreError, Result};
use recd_data::{ColumnarBatch, RowRuns};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

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

    /// Refills the matrix from a view's rows, reusing its buffer: a run
    /// whose batch is `cols` wide is one flat copy; other rows are
    /// zero-padded or truncated to `cols`.
    pub fn assign_from_runs<B: Borrow<ColumnarBatch>>(&mut self, rows: &RowRuns<B>, cols: usize) {
        self.rows = rows.row_count();
        self.cols = cols;
        self.data.clear();
        for (batch, range) in rows.runs() {
            if batch.dense_cols() == cols {
                let flat = range.start * cols..range.end * cols;
                self.data.extend_from_slice(&batch.dense_values()[flat]);
                continue;
            }
            for i in range {
                let row = batch.dense_row(i);
                let n = row.len().min(cols);
                self.data.extend_from_slice(&row[..n]);
                self.data.resize(self.data.len() + cols - n, 0.0);
            }
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
        m.data_mut()[5] = 5.0;
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
    fn assign_from_runs_pads_and_truncates() {
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
        let runs = [(&batch, 0..1), (&batch, 0..1)];
        let assigned = |cols| {
            let mut m = DenseMatrix::default();
            m.assign_from_runs(&RowRuns::new(&runs), cols);
            m
        };
        assert_eq!(assigned(2).row(1), &[1.0, 2.0]);
        assert_eq!(assigned(4).row(0), &[1.0, 2.0, 3.0, 0.0]);
        assert_eq!(assigned(3).data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }
}
