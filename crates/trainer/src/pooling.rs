//! Pooling modules that aggregate a sequence of embedding vectors into one
//! vector per row.
//!
//! Element-wise pooling (sum/mean/max) is cheap; sequence models pool with
//! attention or small transformers, which is exactly the compute RecD's O7
//! deduplicates by running the module once per IKJT slot instead of once per
//! batch row.

use crate::nn::{axpy, dot, vecmat, TILE};
use serde::{Deserialize, Serialize};

/// The pooling function applied to a feature's embedding sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PoolingKind {
    /// Element-wise sum.
    #[default]
    Sum,
    /// Element-wise mean.
    Mean,
    /// Element-wise max.
    Max,
    /// Single-query dot-product attention over the sequence.
    Attention,
    /// One self-attention layer plus a feed-forward layer, mean-pooled — the
    /// "expensive transformer pooling" of RM1.
    Transformer,
}

/// FLOP accounting for one pooling invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolingCost {
    /// Multiply-accumulate operations performed.
    pub flops: u64,
    /// Rows (sequences) pooled.
    pub rows: usize,
}

impl PoolingKind {
    /// Analytical FLOPs for pooling one sequence of `len` embeddings of
    /// dimension `dim`. Used by the trainer cost model.
    pub fn flops_per_row(&self, len: usize, dim: usize) -> u64 {
        let len = len as u64;
        let dim = dim as u64;
        match self {
            PoolingKind::Sum | PoolingKind::Mean | PoolingKind::Max => len * dim,
            // score = e_i . q  (len*dim), softmax (~3*len), weighted sum (len*dim)
            PoolingKind::Attention => 2 * len * dim + 3 * len,
            // QKV projections (3*len*dim^2), scores (len^2*dim), weighted sum
            // (len^2*dim), FFN (2*len*dim^2).
            PoolingKind::Transformer => 5 * len * dim * dim + 2 * len * len * dim,
        }
    }

    /// Whether this pooling kind is one of the expensive sequence modules
    /// whose compute O7 deduplicates.
    pub fn is_sequence_module(&self) -> bool {
        matches!(self, PoolingKind::Attention | PoolingKind::Transformer)
    }
}

fn softmax_in_place(scores: &mut [f32]) {
    let max = row_max(scores);
    let sum = exps_in_place(scores, max);
    divide(scores, sum);
}

fn row_max(scores: &[f32]) -> f32 {
    scores.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Replaces every score by its softmax numerator `exp(s − max)`, returning
/// their sum, taken in order.
fn exps_in_place(scores: &mut [f32], max: f32) -> f32 {
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    sum
}

fn divide(exps: &mut [f32], sum: f32) {
    if sum > 0.0 {
        exps.iter_mut().for_each(|e| *e /= sum);
    }
}

/// Buffers the sequence modules work in; grown on first use, reused after.
#[derive(Debug, Clone, Default)]
pub struct PoolScratch {
    /// Transformer: the sequence transposed, `[dim × len]`.
    transposed: Vec<f32>,
    /// Transformer: the `[len × len]` score matrix. Attention: `len` scores.
    scores: Vec<f32>,
    /// Transformer: the scores a sequence shifted by one shares with the one
    /// pooled last, already in its `[len × len]` layout ([`Shift`]).
    kept: Vec<f32>,
    /// Transformer: the `[len × len]` softmax numerators `exp(s − max)` of
    /// the sequence pooled last, kept for one shifted by one ([`Shift`]).
    exps: Vec<f32>,
    /// Transformer: each row of `exps`, its max score and the last column
    /// that holds it.
    peaks: Vec<(f32, usize)>,
    /// Transformer: one attended row. Attention: the query. `dim` wide.
    row: Vec<f32>,
}

impl PoolScratch {
    /// Empties the buffers and makes room for pooling any sequence of up to
    /// `len` rows of width `dim`, which then allocates nothing.
    pub(crate) fn reserve(&mut self, len: usize, dim: usize) {
        for (buffer, size) in [
            (&mut self.transposed, dim * len),
            (&mut self.scores, len * len),
            (&mut self.kept, len * len),
            (&mut self.exps, len * len),
            (&mut self.row, dim),
        ] {
            buffer.clear();
            buffer.reserve(size);
        }
        self.peaks.clear();
        self.peaks.reserve(len);
    }
}

/// How a Transformer pool shares its score matrix with its neighbours in a
/// run of sequences. A sequence *shifted by one* from another drops that
/// one's first row and appends one row, at the same length of at least 2:
/// every score but its last row and column is one of the other's, because a
/// score is its two rows' products summed in `dim` order, and products
/// commute. So is every softmax numerator `exp(s − max)` but the last of a
/// row whose max stays: the row drops a column that does not hold its max
/// and appends one no greater. Other kinds ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Shift {
    /// This sequence is shifted by one from the one pooled last, which kept
    /// its scores and numerators: compute only the new last row and its
    /// mirror, and the new numerator of each row whose max stays.
    pub from_kept: bool,
    /// The next sequence pooled is this one shifted by one: keep the scores
    /// and numerators they share.
    pub keep: bool,
}

/// Pools one sequence of embedding vectors — `sequence` is a flat row-major
/// `[len × dim]` matrix — into `out` (`dim` wide, overwritten), returning the
/// FLOPs spent.
///
/// An empty sequence pools to the zero vector.
pub fn pool_sequence(
    kind: PoolingKind,
    sequence: &[f32],
    dim: usize,
    scratch: &mut PoolScratch,
    out: &mut [f32],
) -> PoolingCost {
    pool_shifted(kind, sequence, dim, scratch, out, Shift::default())
}

/// [`pool_sequence`], taking scores from and keeping them for a neighbour as
/// `shift` says. The result is the same to the bit either way.
// Inlined with `transformer_pool`, so that `pool_sequence`'s fixed `Shift`
// removes the reuse branches from the fresh kernel: called, the 64 × 64
// Transformer pool measured 2–3 % slower than before they existed.
#[inline(always)]
pub(crate) fn pool_shifted(
    kind: PoolingKind,
    sequence: &[f32],
    dim: usize,
    scratch: &mut PoolScratch,
    out: &mut [f32],
    shift: Shift,
) -> PoolingCost {
    debug_assert_eq!(out.len(), dim);
    let len = sequence.len() / dim.max(1);
    let cost = PoolingCost {
        flops: kind.flops_per_row(len, dim),
        rows: 1,
    };
    out.fill(0.0);
    if len == 0 {
        return cost;
    }
    let rows = || sequence.chunks_exact(dim);
    let sum_rows = |acc: &mut [f32]| rows().for_each(|e| axpy(acc, 1.0, e));
    let n = len as f32;
    match kind {
        PoolingKind::Sum => sum_rows(out),
        PoolingKind::Mean => {
            sum_rows(out);
            out.iter_mut().for_each(|o| *o /= n);
        }
        PoolingKind::Max => {
            out.fill(f32::NEG_INFINITY);
            for e in rows() {
                for (o, v) in out.iter_mut().zip(e) {
                    *o = o.max(*v);
                }
            }
        }
        PoolingKind::Attention => {
            // Query = mean of the sequence; attention weights from dot products.
            let PoolScratch {
                scores, row: query, ..
            } = scratch;
            query.clear();
            query.resize(dim, 0.0);
            sum_rows(query);
            query.iter_mut().for_each(|q| *q /= n);
            let scale = 1.0 / (dim as f32).sqrt();
            scores.clear();
            scores.extend(rows().map(|e| dot(e, query) * scale));
            softmax_in_place(scores);
            vecmat(scores, sequence, dim, out);
        }
        PoolingKind::Transformer => transformer_pool(sequence, len, dim, scratch, out, shift),
    }
    cost
}

/// One round of scaled dot-product self-attention (weights tied to the
/// identity projection to stay parameter-free), followed by a squared-ReLU
/// feed-forward with a residual, then mean pooling — accumulated into `out`,
/// which the caller zeroed.
#[inline(always)]
fn transformer_pool(
    x: &[f32],
    len: usize,
    dim: usize,
    scratch: &mut PoolScratch,
    out: &mut [f32],
    shift: Shift,
) {
    let PoolScratch {
        transposed,
        scores,
        kept,
        exps,
        peaks,
        row: attended,
    } = scratch;
    // With Xᵀ at hand a score row is a row of X times a matrix: stride-1
    // loads and no horizontal reduction.
    transposed.clear();
    transposed.resize(dim * len, 0.0);
    for (i, e) in x.chunks_exact(dim).enumerate() {
        for (d, &v) in e.iter().enumerate() {
            transposed[d * len + i] = v;
        }
    }
    // S = X·Xᵀ is symmetric: compute each row from `first` on up to the tile
    // holding its diagonal, mirror the rest from the rows below. A sequence
    // shifted by one finds S′[i][j] = S[i + 1][j + 1] kept in place and
    // computes only its last row.
    let first = if shift.from_kept {
        debug_assert!(len >= 2 && kept.len() == len * len, "nothing kept");
        std::mem::swap(scores, kept);
        len - 1
    } else {
        scores.clear();
        scores.resize(len * len, 0.0);
        0
    };
    let rows = x.chunks_exact(dim).zip(scores.chunks_exact_mut(len));
    for (i, (e, row)) in rows.enumerate().skip(first) {
        let end = (i + 1).next_multiple_of(TILE).min(len);
        vecmat(e, transposed, len, &mut row[..end]);
    }
    for i in 0..len {
        for j in (i + 1).max(first)..len {
            scores[i * len + j] = scores[j * len + i];
        }
    }
    if shift.keep {
        // The block the next sequence shares, moved up and left by one; its
        // last row and column are placeholders it overwrites.
        kept.clear();
        for row in scores.chunks_exact(len).skip(1) {
            kept.extend_from_slice(&row[1..]);
            kept.push(0.0);
        }
        kept.resize(len * len, 0.0);
    }
    if shift.keep && !shift.from_kept {
        exps.clear();
        exps.resize(len * len, 0.0);
        peaks.clear();
        peaks.resize(len, (f32::NEG_INFINITY, 0));
    }
    debug_assert!(!shift.from_kept || peaks.len() == len, "no numerators kept");
    let scale = 1.0 / (dim as f32).sqrt();
    attended.clear();
    attended.resize(dim, 0.0);
    let rows = x.chunks_exact(dim).zip(scores.chunks_exact_mut(len));
    for (i, (q, weights)) in rows.enumerate() {
        // Row i of a shifted sequence is row i + 1 of the last one, its first
        // column dropped and one appended. If a later column holds that
        // row's max and the new one is no greater, the max stays, and so
        // does every numerator but the new last. Rows go in order, so row
        // i + 1's kept numerators are read before row i's overwrite them.
        let last = weights[len - 1] * scale;
        let kept_peak = if shift.from_kept {
            peaks.get(i + 1).copied()
        } else {
            None
        };
        let (peak, sum) = match kept_peak {
            Some((max, at)) if at > 0 && last <= max => {
                weights[..len - 1].copy_from_slice(&exps[(i + 1) * len + 1..(i + 2) * len]);
                weights[len - 1] = (last - max).exp();
                let sum = weights.iter().fold(0.0f32, |sum, &e| sum + e);
                let at = if last == max { len - 1 } else { at - 1 };
                ((max, at), sum)
            }
            _ => {
                weights.iter_mut().for_each(|s| *s *= scale);
                let max = row_max(weights);
                let at = if shift.keep {
                    weights.iter().rposition(|&s| s == max).unwrap_or(0)
                } else {
                    0
                };
                ((max, at), exps_in_place(weights, max))
            }
        };
        if shift.keep {
            exps[i * len..(i + 1) * len].copy_from_slice(weights);
            peaks[i] = peak;
        }
        divide(weights, sum);
        vecmat(weights, x, dim, attended);
        // Feed-forward (squared ReLU, residual) fused with the mean's sum.
        for ((o, &a), &q) in out.iter_mut().zip(attended.iter()).zip(q) {
            let h = a.max(0.0);
            *o += q + h * h;
        }
    }
    out.iter_mut().for_each(|o| *o /= len as f32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Three rows of dimension 2.
    const SEQUENCE: [f32; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 0.0];

    fn pool(kind: PoolingKind, sequence: &[f32], dim: usize) -> (Vec<f32>, PoolingCost) {
        let mut out = vec![f32::NAN; dim];
        let cost = pool_sequence(kind, sequence, dim, &mut PoolScratch::default(), &mut out);
        (out, cost)
    }

    #[test]
    fn elementwise_pooling_values() {
        assert_eq!(pool(PoolingKind::Sum, &SEQUENCE, 2).0, vec![9.0, 6.0]);
        assert_eq!(pool(PoolingKind::Mean, &SEQUENCE, 2).0, vec![3.0, 2.0]);
        assert_eq!(pool(PoolingKind::Max, &SEQUENCE, 2).0, vec![5.0, 4.0]);
    }

    #[test]
    fn attention_output_is_a_convex_combination() {
        let (out, cost) = pool(PoolingKind::Attention, &SEQUENCE, 2);
        // Each output coordinate must lie within the min/max of inputs.
        for (d, &o) in out.iter().enumerate() {
            let column = SEQUENCE.iter().skip(d).step_by(2);
            let min = column.clone().copied().fold(f32::INFINITY, f32::min);
            let max = column.copied().fold(f32::NEG_INFINITY, f32::max);
            assert!(o >= min - 1e-5 && o <= max + 1e-5);
        }
        assert!(cost.flops > 0);
    }

    #[test]
    fn transformer_pooling_is_deterministic_and_costly() {
        // One scratch across calls of different shapes: stale contents of a
        // larger earlier sequence must not leak into a smaller later one.
        let mut scratch = PoolScratch::default();
        let mut big = [0.0f32; 4];
        pool_sequence(
            PoolingKind::Transformer,
            &[0.5; 20],
            4,
            &mut scratch,
            &mut big,
        );
        let mut a = [0.0f32; 2];
        let cost_a = pool_sequence(PoolingKind::Transformer, &SEQUENCE, 2, &mut scratch, &mut a);
        let (b, _) = pool(PoolingKind::Transformer, &SEQUENCE, 2);
        assert_eq!(a.to_vec(), b);
        let sum_cost = PoolingKind::Sum.flops_per_row(3, 2);
        assert!(
            cost_a.flops > sum_cost,
            "transformer must be far more expensive"
        );
        assert!(PoolingKind::Transformer.is_sequence_module());
        assert!(!PoolingKind::Sum.is_sequence_module());
    }

    #[test]
    fn flops_scale_with_length_and_dim() {
        let short = PoolingKind::Transformer.flops_per_row(10, 64);
        let long = PoolingKind::Transformer.flops_per_row(100, 64);
        assert!(long > short * 9);
        let narrow = PoolingKind::Attention.flops_per_row(10, 16);
        let wide = PoolingKind::Attention.flops_per_row(10, 128);
        assert!(wide > narrow);
    }

    #[test]
    fn empty_sequence_pools_to_zero() {
        for kind in [
            PoolingKind::Sum,
            PoolingKind::Mean,
            PoolingKind::Max,
            PoolingKind::Attention,
            PoolingKind::Transformer,
        ] {
            assert_eq!(pool(kind, &[], 3).0, vec![0.0; 3]);
        }
    }

    /// The rows of a run of sequences of `len` rows of width `dim`, each
    /// shifted by one from the one before: unit `k` is rows `k..k + len`. A
    /// row repeats an earlier one, is zero, or is non-negative and scaled by
    /// 0.1–1 or by 16, so that one row's scores can dwarf the rest: a row's
    /// max then sits in the column a shift drops, or moves to the one it
    /// appends.
    fn chain_rows(seed: u64, len: usize, dim: usize, units: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for _ in 0..len + units - 1 {
            let row = match rng.gen_range(0..8) {
                0 if !rows.is_empty() => rows[rng.gen_range(0..rows.len())].clone(),
                1 => vec![0.0; dim],
                pick => {
                    let scale = if pick == 2 {
                        16.0
                    } else {
                        rng.gen_range(0.1..1.0)
                    };
                    (0..dim)
                        .map(|_| scale * rng.gen_range(0.0f32..1.0))
                        .collect()
                }
            };
            rows.push(row);
        }
        rows
    }

    /// The bits of pooling every unit of a chain afresh, then with scores
    /// and numerators carried along it. The chain is cut before unit `cut`
    /// as a worker boundary cuts it: the unit before keeps nothing, and the
    /// unit pools afresh in a scratch of its own.
    fn pool_chain(rows: &[Vec<f32>], len: usize, dim: usize, cut: usize) -> [Vec<u32>; 2] {
        let kind = PoolingKind::Transformer;
        let units = rows.len() + 1 - len;
        let flat = rows.concat();
        let mut scratches: [PoolScratch; 3] = Default::default();
        let mut pooled = [Vec::new(), Vec::new()];
        let mut out = vec![0.0; dim];
        for k in 0..units {
            let sequence = &flat[k * dim..(k + len) * dim];
            pool_sequence(kind, sequence, dim, &mut scratches[2], &mut out);
            pooled[0].extend(out.iter().map(|v| v.to_bits()));
            let shift = Shift {
                from_kept: k > 0 && k != cut,
                keep: k + 1 < units && k + 1 != cut,
            };
            let scratch = &mut scratches[usize::from(k >= cut)];
            pool_shifted(kind, sequence, dim, scratch, &mut out, shift);
            pooled[1].extend(out.iter().map(|v| v.to_bits()));
        }
        pooled
    }

    proptest! {
        /// A chain of three or more sequences, each shifted by one from the
        /// one before and pooled from what that one kept, pools to the bits
        /// of pooling each afresh — cut anywhere or not at all.
        #[test]
        fn shifted_chains_pool_to_the_bits_of_pooling_afresh(
            seed in any::<u64>(),
            len in 2usize..20,
            dim in 1usize..20,
            units in 3usize..8,
            cut in 1usize..10,
        ) {
            let rows = chain_rows(seed, len, dim, units);
            let [fresh, reused] = pool_chain(&rows, len, dim, cut);
            prop_assert!(fresh == reused, "{len}x{dim}, {units} units cut at {cut}");
        }
    }

    /// What the property's chains cover: over a few of them, shifted rows
    /// whose max stays, whose max sat in the dropped column, and whose new
    /// last column became the max, each counted from scores summed in
    /// `dim` order as the kernel sums them.
    #[test]
    fn chains_cover_every_way_a_row_max_can_move() {
        let (len, dim, units) = (8, 4, 5);
        let scale = 1.0 / (dim as f32).sqrt();
        let [mut stays, mut dropped, mut appended] = [0; 3];
        for seed in 0..32 {
            let rows = chain_rows(seed, len, dim, units);
            let score = |i: usize, j: usize| {
                let products = rows[i].iter().zip(&rows[j]).map(|(a, b)| a * b);
                products.fold(0.0f32, |sum, p| sum + p) * scale
            };
            for k in 1..units {
                for i in 0..len - 1 {
                    // Row i of unit k is row i + 1 of unit k - 1 shifted.
                    let old: Vec<f32> = (k - 1..k - 1 + len).map(|j| score(k + i, j)).collect();
                    let max = row_max(&old);
                    let at = old.iter().rposition(|&s| s == max).unwrap();
                    let last = score(k + i, k + len - 1);
                    match (at, last > max) {
                        (0, _) => dropped += 1,
                        (_, true) => appended += 1,
                        (_, false) => stays += 1,
                    }
                }
            }
            let [fresh, reused] = pool_chain(&rows, len, dim, units);
            assert!(fresh == reused, "seed {seed}");
        }
        assert!(
            stays > 0 && dropped > 0 && appended > 0,
            "{stays} {dropped} {appended}"
        );
    }
}
