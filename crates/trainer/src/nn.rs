//! Minimal dense neural-network primitives: linear layers, MLPs, and the
//! binary cross-entropy loss, with enough backward support for SGD training.

use rand::rngs::StdRng;
use rand::Rng;
#[cfg(test)]
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Accumulators [`dot`] keeps: a strict-order f32 sum is one dependent chain
/// the compiler may not vectorise; independent lanes are.
const LANES: usize = 8;

/// `Σ a[i]·b[i]` over the common prefix — the one reduction kernel of the
/// crate. Everything else is [`axpy`]-shaped and has no reduction at all.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (a[..n].chunks_exact(LANES), b[..n].chunks_exact(LANES));
    let tail: f32 = a
        .remainder()
        .iter()
        .zip(b.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut acc = [0.0f32; LANES];
    for (x, y) in a.zip(b) {
        for ((s, x), y) in acc.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// `y += a·x`, element-wise over the common prefix.
pub(crate) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// Output columns [`vecmat`] accumulates at once.
pub(crate) const TILE: usize = 16;

/// `out[t] = Σ_k a[k]·b[k·stride + t]`: a row vector times `out.len()`
/// leading columns of a row-major matrix. A tile of outputs stays in
/// registers across the whole `k` loop and every load is stride-1; each sum
/// runs in `k` order, exactly as a scalar dot product would.
pub(crate) fn vecmat(a: &[f32], b: &[f32], stride: usize, out: &mut [f32]) {
    let rows = || a.iter().zip(b.chunks_exact(stride));
    let mut tiles = out.chunks_exact_mut(TILE);
    let mut at = 0;
    for tile in &mut tiles {
        let mut acc = [0.0f32; TILE];
        for (&a, row) in rows() {
            for (s, x) in acc.iter_mut().zip(&row[at..at + TILE]) {
                *s += a * x;
            }
        }
        tile.copy_from_slice(&acc);
        at += TILE;
    }
    let rest = tiles.into_remainder();
    rest.fill(0.0);
    for (&a, row) in rows() {
        axpy(rest, a, &row[at..]);
    }
}

/// A fully-connected layer `y = relu(W x + b)` (the final layer of an MLP can
/// disable the ReLU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, row-major `[out, in]`.
    weights: Vec<f32>,
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
    relu: bool,
}

impl Linear {
    /// Creates a layer with Xavier-style initialization from a seeded RNG.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut StdRng) -> Self {
        let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let bias = vec![0.0; out_dim];
        Self {
            weights,
            bias,
            in_dim,
            out_dim,
            relu,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass for a batch: `input` is `[rows × in_dim]`, `out` is
    /// `[rows × out_dim]`, both row-major.
    pub fn forward_batch(&self, input: &[f32], out: &mut [f32]) {
        debug_assert_eq!(input.len() / self.in_dim, out.len() / self.out_dim);
        let rows = input.chunks_exact(self.in_dim);
        for (x, y) in rows.zip(out.chunks_exact_mut(self.out_dim)) {
            let weights = self.weights.chunks_exact(self.in_dim);
            for ((y, w), b) in y.iter_mut().zip(weights).zip(&self.bias) {
                let acc = b + dot(w, x);
                *y = if self.relu { acc.max(0.0) } else { acc };
            }
        }
    }

    /// Backward pass for one example: given the upstream gradient and the
    /// cached input/output rows, updates weights with SGD and writes the
    /// gradient with respect to the input into `grad_input`.
    pub fn backward(
        &mut self,
        input: &[f32],
        output: &[f32],
        grad_output: &[f32],
        learning_rate: f32,
        grad_input: &mut [f32],
    ) {
        grad_input.fill(0.0);
        let rows = self.weights.chunks_exact_mut(self.in_dim);
        for (((row, bias), &y), &g) in rows.zip(&mut self.bias).zip(output).zip(grad_output) {
            // ReLU gate.
            if g == 0.0 || (self.relu && y <= 0.0) {
                continue;
            }
            let step = learning_rate * g;
            for ((gi, w), &x) in grad_input.iter_mut().zip(row).zip(input) {
                *gi += *w * g;
                *w -= step * x;
            }
            *bias -= step;
        }
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        2 * self.in_dim as u64 * self.out_dim as u64
    }

    /// Number of parameters in the layer.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// One batch's activations of an [`Mlp`] — layer `l`'s output as a flat
/// `[rows × out_dim(l)]` matrix — plus the two gradient rows the backward
/// pass alternates between. Buffers grow on first use and are reused.
#[derive(Debug, Clone, Default)]
pub struct MlpActivations {
    layers: Vec<Vec<f32>>,
    grads: [Vec<f32>; 2],
}

impl MlpActivations {
    /// The last layer's output, `[rows × out_dim]`.
    pub fn output(&self) -> &[f32] {
        self.layers.last().map_or(&[], Vec::as_slice)
    }
}

/// A multi-layer perceptron: a stack of [`Linear`] layers with ReLU between
/// layers and a linear final layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[64, 32, 1]` builds
    /// two layers `in→64→32→1`... more precisely `dims[0]` is the input size
    /// and each subsequent entry a layer output size.
    pub fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "an mlp needs an input and an output size");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], i + 2 < dims.len(), rng))
            .collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").out_dim()
    }

    /// Forward pass for a batch (`input` is `[rows × in_dim]`), keeping
    /// every layer's output in `acts` for the backward pass.
    pub fn forward_batch(&self, input: &[f32], acts: &mut MlpActivations) {
        let rows = input.len() / self.in_dim();
        acts.layers.resize_with(self.layers.len(), Vec::new);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.layers.split_at_mut(l);
            let out = &mut rest[0];
            out.resize(rows * layer.out_dim, 0.0);
            layer.forward_batch(done.last().map_or(input, Vec::as_slice), out);
        }
    }

    /// Backward pass for row `row` of the batch `acts` was computed from
    /// (`input` is that row of the MLP input); updates parameters with SGD
    /// and returns the gradient with respect to the input row.
    pub fn backward_row<'a>(
        &mut self,
        input: &[f32],
        acts: &'a mut MlpActivations,
        row: usize,
        grad_output: &[f32],
        learning_rate: f32,
    ) -> &'a [f32] {
        let MlpActivations { layers, grads } = acts;
        let [grad, next] = grads;
        grad.clear();
        grad.extend_from_slice(grad_output);
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let x = match l.checked_sub(1) {
                Some(below) => &layers[below][row * layer.in_dim..(row + 1) * layer.in_dim],
                None => input,
            };
            let y = &layers[l][row * layer.out_dim..(row + 1) * layer.out_dim];
            next.resize(layer.in_dim, 0.0);
            layer.backward(x, y, grad, learning_rate, next);
            std::mem::swap(grad, next);
        }
        grad
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(Linear::flops).sum()
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Linear::parameter_count).sum()
    }
}

/// Numerically-stable sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy loss for one prediction (post-sigmoid probability).
pub fn bce_loss(probability: f32, label: f32) -> f32 {
    let p = probability.clamp(1e-7, 1.0 - 1e-7);
    -(label * p.ln() + (1.0 - label) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn linear_forward_shapes_and_relu() {
        let layer = Linear::new(3, 2, true, &mut rng());
        let mut out = [f32::NAN; 2];
        layer.forward_batch(&[1.0, -2.0, 0.5], &mut out);
        assert!(
            out.iter().all(|&v| v >= 0.0),
            "relu output must be non-negative"
        );
        assert_eq!(layer.flops(), 12);
        assert_eq!(layer.parameter_count(), 8);
    }

    #[test]
    fn mlp_forward_and_dimensions() {
        let mlp = Mlp::new(&[4, 8, 1], &mut rng());
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 1);
        let mut acts = MlpActivations::default();
        mlp.forward_batch(&[0.1, 0.2, 0.3, 0.4, 0.4, 0.3, 0.2, 0.1], &mut acts);
        assert_eq!(acts.output().len(), 2, "one output per row");
        assert!(mlp.flops() > 0);
        assert!(mlp.parameter_count() > 0);
    }

    #[test]
    fn sgd_reduces_loss_on_a_learnable_problem() {
        // Learn y = 1 if x0 > x1 else 0.
        let mut mlp = Mlp::new(&[2, 8, 1], &mut rng());
        let mut data_rng = StdRng::seed_from_u64(9);
        let mut acts = MlpActivations::default();
        let mut initial_loss = 0.0;
        let mut final_loss = 0.0;
        for epoch in 0..300 {
            let mut epoch_loss = 0.0;
            for _ in 0..32 {
                let x = [
                    data_rng.gen_range(0.0..1.0f32),
                    data_rng.gen_range(0.0..1.0f32),
                ];
                let label = if x[0] > x[1] { 1.0 } else { 0.0 };
                mlp.forward_batch(&x, &mut acts);
                let p = sigmoid(acts.output()[0]);
                epoch_loss += bce_loss(p, label);
                // dL/dlogit = p - label for sigmoid + BCE.
                mlp.backward_row(&x, &mut acts, 0, &[p - label], 0.1);
            }
            if epoch == 0 {
                initial_loss = epoch_loss;
            }
            final_loss = epoch_loss;
        }
        assert!(
            final_loss < initial_loss * 0.6,
            "training should reduce loss: {initial_loss} -> {final_loss}"
        );
    }

    #[test]
    fn dot_and_axpy_cover_lane_remainders_and_unequal_lengths() {
        let a: Vec<f32> = (0..21).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..19).map(|i| 1.0 - i as f32 * 0.25).collect();
        for n in [0, 1, 7, 8, 9, 16, 19] {
            let naive: f32 = a[..n].iter().zip(&b[..n]).map(|(x, y)| x * y).sum();
            assert!((dot(&a[..n], &b[..n]) - naive).abs() < 1e-4, "n = {n}");
        }
        assert_eq!(dot(&a, &b), dot(&a[..19], &b), "common prefix only");
        let mut y = vec![1.0f32; 5];
        axpy(&mut y, 2.0, &[1.0, 2.0, 3.0]);
        assert_eq!(y, [3.0, 5.0, 7.0, 1.0, 1.0]);
    }

    #[test]
    fn vecmat_matches_scalar_dots_across_tile_remainders() {
        let (k, stride) = (5, 37);
        let a: Vec<f32> = (0..k).map(|i| 0.5 - i as f32 * 0.3).collect();
        let b: Vec<f32> = (0..k * stride).map(|i| (i as f32 * 0.7).sin()).collect();
        for width in [0, 1, 15, 16, 17, 32, 37] {
            let mut out = vec![f32::NAN; width];
            vecmat(&a, &b, stride, &mut out);
            for (t, &got) in out.iter().enumerate() {
                let want: f32 = (0..k).map(|i| a[i] * b[i * stride + t]).sum();
                assert_eq!(got, want, "width {width}, column {t}");
            }
        }
    }

    #[test]
    fn sigmoid_and_bce_are_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!(bce_loss(1.0, 1.0) < 1e-5);
        assert!(bce_loss(0.0, 1.0) > 10.0);
        assert!(bce_loss(0.0, 0.0) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "an mlp needs an input and an output size")]
    fn mlp_requires_two_dims() {
        Mlp::new(&[4], &mut rng());
    }
}
