//! Embedding tables: the model-parallel half of a DLRM.

use crate::nn::axpy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A hash-bucketed embedding table.
///
/// Ids are mapped to rows by modulo (the reader's hash-bucketize transform
/// already spreads them), and each row is an `dim`-dimensional vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingTable {
    weights: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl EmbeddingTable {
    /// Creates a table of `rows` x `dim` with small random initial values.
    pub fn new(rows: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rows.max(1);
        let dim = dim.max(1);
        let weights = (0..rows * dim)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        Self { weights, rows, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (hash buckets).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Bytes of parameter memory held by the table.
    pub fn parameter_bytes(&self) -> usize {
        self.weights.len() * 4
    }

    fn row_index(&self, id: u64) -> usize {
        (id % self.rows as u64) as usize
    }

    /// Looks up one id's embedding row.
    pub fn lookup(&self, id: u64) -> &[f32] {
        let r = self.row_index(id);
        &self.weights[r * self.dim..(r + 1) * self.dim]
    }

    /// Sum-pools the embeddings of an id list into `out` (which must have
    /// length `dim`).
    pub fn lookup_pooled_into(&self, ids: &[u64], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        for &id in ids {
            axpy(out, 1.0, self.lookup(id));
        }
    }

    /// Gathers every id of a list as separate (unpooled) embedding rows into
    /// one flat `[ids.len() × dim]` matrix — the input of sequence pooling
    /// modules. `out` is overwritten and keeps its capacity.
    pub fn lookup_sequence_into(&self, ids: &[u64], out: &mut Vec<f32>) {
        out.clear();
        for &id in ids {
            out.extend_from_slice(self.lookup(id));
        }
    }

    /// SGD update for a sum-pooled lookup: every id in the list receives the
    /// same gradient (the gradient of the pooled output).
    pub fn apply_pooled_gradient(&mut self, ids: &[u64], grad: &[f32], learning_rate: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        for &id in ids {
            let r = self.row_index(id);
            axpy(
                &mut self.weights[r * self.dim..(r + 1) * self.dim],
                -learning_rate,
                grad,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_pooling_are_consistent() {
        let table = EmbeddingTable::new(100, 8, 3);
        assert_eq!(table.dim(), 8);
        assert_eq!(table.row_count(), 100);
        assert_eq!(table.parameter_bytes(), 100 * 8 * 4);

        let a = table.lookup(5).to_vec();
        let b = table.lookup(105).to_vec();
        assert_eq!(a, b, "ids map to rows modulo the table size");

        let mut pooled = vec![f32::NAN; 8];
        table.lookup_pooled_into(&[5, 5], &mut pooled);
        let expected: Vec<f32> = a.iter().map(|v| v * 2.0).collect();
        for (p, e) in pooled.iter().zip(&expected) {
            assert!((p - e).abs() < 1e-6);
        }
        let mut seq = vec![f32::NAN; 3];
        table.lookup_sequence_into(&[5, 7], &mut seq);
        assert_eq!(seq.len(), 2 * 8, "one flat [len x dim] matrix");
        assert_eq!(seq[..8], a);
        assert_eq!(&seq[8..], table.lookup(7));
    }

    #[test]
    fn pooled_gradient_moves_the_rows() {
        let mut table = EmbeddingTable::new(10, 4, 0);
        let before = table.lookup(3).to_vec();
        table.apply_pooled_gradient(&[3], &[1.0, 1.0, 1.0, 1.0], 0.5);
        let after = table.lookup(3).to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_list_pools_to_zero() {
        let table = EmbeddingTable::new(10, 4, 0);
        let mut pooled = vec![f32::NAN; 4];
        table.lookup_pooled_into(&[], &mut pooled);
        assert_eq!(pooled, vec![0.0; 4]);
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let table = EmbeddingTable::new(0, 0, 0);
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.dim(), 1);
    }
}
