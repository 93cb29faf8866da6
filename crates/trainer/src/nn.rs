//! Minimal dense neural-network primitives: MLPs trained by minibatch SGD,
//! and the binary cross-entropy loss.

use rand::rngs::StdRng;
use rand::Rng;
#[cfg(test)]
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// One fully-connected layer `y = relu(W x + b)` of an [`Mlp`] (the last
/// layer has no ReLU): its shape, and where it sits in the MLP's flat
/// parameter buffer and in a row of [`MlpActivations`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Layer {
    in_dim: usize,
    out_dim: usize,
    relu: bool,
    /// Its first output unit in the MLP's flat unit space (every layer's
    /// output units, first layer first).
    unit: usize,
    /// Where its `[out × (in + 1)]` parameters start: each output unit's
    /// weights, then its bias.
    params: usize,
    /// Its input's column in an activation row; its output follows.
    x: usize,
}

impl Layer {
    /// One output unit's parameters: its weights and its bias.
    fn stride(&self) -> usize {
        self.in_dim + 1
    }

    /// Its output's column in an activation row.
    fn y(&self) -> usize {
        self.x + self.in_dim
    }

    fn params<'a>(&self, params: &'a [f32]) -> &'a [f32] {
        &params[self.params..self.params + self.out_dim * self.stride()]
    }
}

/// One batch's pass through an [`Mlp`], row-major: row `r` of `values` holds
/// the MLP's input, then every layer's output, and row `r` of `grads` holds
/// the loss gradient with respect to each at the same columns. A block of
/// rows is a contiguous run of both, so row blocks split off whole. Buffers
/// grow on first use and are reused.
#[derive(Debug, Clone, Default)]
pub struct MlpActivations {
    pub(crate) values: Vec<f32>,
    pub(crate) grads: Vec<f32>,
    /// Columns of one row.
    pub(crate) width: usize,
    /// Columns of the input, which starts the row.
    input: usize,
    /// Where the output starts in a row; it ends the row.
    output: usize,
}

impl MlpActivations {
    /// Row `row`'s output.
    pub fn output(&self, row: usize) -> &[f32] {
        &self.values[row * self.width..(row + 1) * self.width][self.output..]
    }

    /// The loss gradient with respect to row `row`'s input, as
    /// [`Mlp::backward_batch`] left it.
    pub fn input_grad(&self, row: usize) -> &[f32] {
        &self.grads[row * self.width..][..self.input]
    }
}

/// A multi-layer perceptron: a stack of fully-connected layers with ReLU
/// between layers and a linear final layer, trained by minibatch SGD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    /// Every layer's parameters back to back, first layer first.
    params: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with Xavier-style initialisation from a seeded RNG.
    /// `dims[0]` is the input size and every later entry one layer's output
    /// size, so `[730, 64, 32, 1]` builds three layers, `730→64→32→1`.
    pub fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "an mlp needs an input and an output size");
        let (mut layers, mut params) = (Vec::new(), Vec::new());
        let (mut unit, mut x) = (0, 0);
        for (i, pair) in dims.windows(2).enumerate() {
            let (in_dim, out_dim) = (pair[0], pair[1]);
            layers.push(Layer {
                in_dim,
                out_dim,
                relu: i + 2 < dims.len(),
                unit,
                params: params.len(),
                x,
            });
            let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
            for _ in 0..out_dim {
                params.extend((0..in_dim).map(|_| rng.gen_range(-scale..scale)));
                params.push(0.0);
            }
            (unit, x) = (unit + out_dim, x + in_dim);
        }
        Self { layers, params }
    }

    fn last(&self) -> &Layer {
        self.layers.last().expect("at least one layer")
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.last().out_dim
    }

    /// Columns of one activation row: the input and every layer's output.
    pub(crate) fn width(&self) -> usize {
        self.last().y() + self.out_dim()
    }

    /// Where the output starts in an activation row; it ends the row.
    pub(crate) fn output_column(&self) -> usize {
        self.last().y()
    }

    /// Sizes `acts` for a batch of `rows` rows.
    pub(crate) fn resize(&self, acts: &mut MlpActivations, rows: usize) {
        acts.width = self.width();
        acts.input = self.in_dim();
        acts.output = self.output_column();
        acts.values.resize(rows * acts.width, 0.0);
        acts.grads.resize(rows * acts.width, 0.0);
    }

    /// Forward pass for a batch: `input` is `[rows × in_dim]`, row-major;
    /// `acts` keeps it and every layer's output for the backward pass.
    pub fn forward_batch(&self, input: &[f32], acts: &mut MlpActivations) {
        self.resize(acts, input.len() / self.in_dim());
        let rows = acts.values.chunks_exact_mut(acts.width);
        for (row, x) in rows.zip(input.chunks_exact(self.in_dim())) {
            row[..x.len()].copy_from_slice(x);
        }
        self.forward_rows(&mut acts.values);
    }

    /// Forward pass over a block of activation rows whose inputs are filled
    /// in.
    pub(crate) fn forward_rows(&self, rows: &mut [f32]) {
        for row in rows.chunks_exact_mut(self.width()) {
            for layer in &self.layers {
                let (x, y) = row[layer.x..layer.y() + layer.out_dim].split_at_mut(layer.in_dim);
                let units = layer.params(&self.params).chunks_exact(layer.stride());
                for (y, unit) in y.iter_mut().zip(units) {
                    let acc = unit[layer.in_dim] + dot(&unit[..layer.in_dim], x);
                    *y = if layer.relu { acc.max(0.0) } else { acc };
                }
            }
        }
    }

    /// One minibatch SGD step over the batch `acts` holds the forward pass
    /// of; `grad_output` is `[rows × out_dim]`, the loss gradient with
    /// respect to its outputs. Every row's gradients are taken at the
    /// current parameters, which then move once along their sum, and `acts`
    /// keeps the gradient with respect to each row's input
    /// ([`MlpActivations::input_grad`]).
    pub fn backward_batch(
        &mut self,
        acts: &mut MlpActivations,
        grad_output: &[f32],
        learning_rate: f32,
    ) {
        let (out, at) = (self.out_dim(), acts.output);
        let rows = acts.grads.chunks_exact_mut(acts.width);
        for (row, grad) in rows.zip(grad_output.chunks_exact(out)) {
            row[at..].copy_from_slice(grad);
        }
        self.backward_rows(&acts.values, &mut acts.grads, true);
        let (update, params) = self.update();
        update.apply(0..update.units(), params, acts, learning_rate);
    }

    /// Backward pass over a block of rows at the current parameters, from
    /// each row's output gradient down: gates every layer's output gradient
    /// by its ReLU in place and writes the gradient with respect to its
    /// input (`dX = dY·W`) — down to the MLP's input when `input` is set,
    /// else to the first layer's output.
    pub(crate) fn backward_rows(&self, values: &[f32], grads: &mut [f32], input: bool) {
        let width = self.width();
        for (values, grads) in values
            .chunks_exact(width)
            .zip(grads.chunks_exact_mut(width))
        {
            for (l, layer) in self.layers.iter().enumerate().rev() {
                let (grad_x, grad_y) =
                    grads[layer.x..layer.y() + layer.out_dim].split_at_mut(layer.in_dim);
                if layer.relu {
                    for (g, &y) in grad_y.iter_mut().zip(&values[layer.y()..]) {
                        if y <= 0.0 {
                            *g = 0.0;
                        }
                    }
                }
                if l > 0 || input {
                    // One unit's weights at a time, summed in unit order; a
                    // gated unit's zero adds nothing, so its weights are skipped.
                    grad_x.fill(0.0);
                    let units = layer.params(&self.params).chunks_exact(layer.stride());
                    for (&g, unit) in grad_y.iter().zip(units) {
                        if g != 0.0 {
                            axpy(grad_x, g, unit);
                        }
                    }
                }
            }
        }
    }

    /// The parameters taken apart for an SGD update shared among workers:
    /// how the flat buffer cuts at output units, and the buffer.
    pub(crate) fn update(&mut self) -> (MlpUpdate<'_>, &mut [f32]) {
        (
            MlpUpdate {
                layers: &self.layers,
            },
            &mut self.params,
        )
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        let flops = |l: &Layer| 2 * l.in_dim as u64 * l.out_dim as u64;
        self.layers.iter().map(flops).sum()
    }
}

/// Output units [`MlpUpdate::apply`] sums the gradients of at once.
const UNITS: usize = 32;
/// Input columns it sums them over at once.
const COLS: usize = 128;

/// An [`Mlp`]'s parameter buffer seen as output units — every layer's, first
/// layer first, each one row of weights plus its bias — for an SGD update
/// that workers share by units.
pub(crate) struct MlpUpdate<'a> {
    layers: &'a [Layer],
}

impl MlpUpdate<'_> {
    /// Output units over every layer.
    pub(crate) fn units(&self) -> usize {
        self.layers.last().map_or(0, |l| l.unit + l.out_dim)
    }

    /// Where unit `unit`'s parameters start in the buffer; `units()` maps to
    /// its end.
    pub(crate) fn offset(&self, unit: usize) -> usize {
        let layer = self.layers.iter().rev().find(|l| l.unit <= unit);
        layer.map_or(0, |l| l.params + (unit - l.unit) * l.stride())
    }

    /// The first unit of run `w` of `runs`: the runs hold equal shares of
    /// the parameters, which is what a unit's update costs per row.
    pub(crate) fn split(&self, w: usize, runs: usize) -> usize {
        let share = self.offset(self.units()) * w / runs.max(1);
        (0..self.units())
            .find(|&unit| self.offset(unit) >= share)
            .unwrap_or(self.units())
    }

    /// Units `units` take one SGD step along their gradient summed over every
    /// row of `acts`: `Σ_r dy·x` for the weights and `Σ_r dy` for the bias,
    /// each summed in row order (so the result does not depend on how the
    /// units are cut into runs). `params` is their run of the buffer.
    pub(crate) fn apply(
        &self,
        units: Range<usize>,
        mut params: &mut [f32],
        acts: &MlpActivations,
        learning_rate: f32,
    ) {
        for layer in self.layers {
            let start = units.start.max(layer.unit);
            let end = units.end.min(layer.unit + layer.out_dim);
            if start >= end {
                continue;
            }
            let (run, rest) =
                std::mem::take(&mut params).split_at_mut((end - start) * layer.stride());
            params = rest;
            let blocks = run.chunks_mut(UNITS * layer.stride());
            for (o, block) in (start - layer.unit..).step_by(UNITS).zip(blocks) {
                sgd_block(layer, o, block, acts, learning_rate);
            }
        }
    }
}

/// One SGD step for up to [`UNITS`] consecutive output units of `layer`, the
/// first being `o`, whose parameters are `block`. The units' gradients over
/// up to [`COLS`] input columns at a time stay in L1 across the whole row
/// loop, and each row's inputs are read once for all the units; a row whose
/// gradient is zero for a unit (a ReLU-gated one) adds nothing to it. Every
/// gradient is one sum in row order.
fn sgd_block(layer: &Layer, o: usize, block: &mut [f32], acts: &MlpActivations, lr: f32) {
    let stride = layer.stride();
    let n = block.len() / stride;
    let rows = || {
        let values = acts.values.chunks_exact(acts.width);
        let grads = acts.grads.chunks_exact(acts.width);
        values.zip(grads).map(|(x, g)| {
            let g = &g[layer.y() + o..layer.y() + o + n];
            (&x[layer.x..layer.y()], g)
        })
    };
    let mut acc = [[0.0f32; COLS]; UNITS];
    for at in (0..layer.in_dim).step_by(COLS) {
        let cols = COLS.min(layer.in_dim - at);
        for acc in &mut acc[..n] {
            acc[..cols].fill(0.0);
        }
        for (x, g) in rows() {
            for (acc, &g) in acc.iter_mut().zip(g) {
                if g != 0.0 {
                    axpy(&mut acc[..cols], g, &x[at..at + cols]);
                }
            }
        }
        for (unit, acc) in block.chunks_exact_mut(stride).zip(&acc) {
            for (w, s) in unit[at..at + cols].iter_mut().zip(acc) {
                *w -= lr * s;
            }
        }
    }
    // The bias, whose input is 1.
    let mut bias = [0.0f32; UNITS];
    for (_, g) in rows() {
        for (s, &g) in bias.iter_mut().zip(g) {
            *s += g;
        }
    }
    for (unit, s) in block.chunks_exact_mut(stride).zip(&bias) {
        unit[layer.in_dim] -= lr * s;
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
    fn mlp_forward_and_dimensions() {
        let mlp = Mlp::new(&[4, 8, 1], &mut rng());
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 1);
        assert_eq!(mlp.flops(), 2 * (4 * 8 + 8));
        let mut acts = MlpActivations::default();
        mlp.forward_batch(&[0.1, 0.2, 0.3, 0.4, 0.4, 0.3, 0.2, 0.1], &mut acts);
        assert_eq!(acts.values.len(), 2 * acts.width, "two rows");
        assert_eq!(acts.output(1).len(), 1, "one output per row");
        let hidden = acts
            .values
            .chunks_exact(acts.width)
            .flat_map(|row| &row[4..12]);
        assert!(
            hidden.copied().all(|v| v >= 0.0),
            "relu output must be non-negative"
        );
    }

    /// `Σ_r Σ_k c[r][k]·y[r][k]` over a batch: a loss whose output gradient
    /// is `c`.
    fn weighted_output(mlp: &Mlp, input: &[f32], c: &[f32]) -> f32 {
        let mut acts = MlpActivations::default();
        mlp.forward_batch(input, &mut acts);
        let rows = input.len() / mlp.in_dim();
        let outputs = (0..rows).flat_map(|r| acts.output(r).to_vec());
        outputs.zip(c).map(|(y, c)| y * c).sum()
    }

    #[test]
    fn batched_backward_matches_numerical_gradients() {
        // Three rows through 3 → 4 (ReLU) → 2.
        let mut mlp = Mlp::new(&[3, 4, 2], &mut rng());
        let input = [0.9f32, -0.4, 0.3, -0.6, 0.8, 0.5, 0.2, 0.7, -0.9];
        let c = [0.5f32, -1.0, 0.25, 0.75, -0.5, 1.5];
        let mut acts = MlpActivations::default();
        mlp.forward_batch(&input, &mut acts);
        let gated = acts
            .values
            .chunks_exact(acts.width)
            .flat_map(|row| &row[3..7]);
        assert!(
            gated.copied().any(|v| v == 0.0),
            "some hidden unit is ReLU-gated"
        );

        // A unit learning rate makes each parameter's move its gradient.
        let before = mlp.clone();
        mlp.backward_batch(&mut acts, &c, 1.0);
        let eps = 1e-3f32;
        let numerical = |mlp: &Mlp, input: &[f32], at: usize, params: bool| {
            let loss = |delta: f32| {
                let (mut mlp, mut input) = (mlp.clone(), input.to_vec());
                let moved = if params { &mut mlp.params } else { &mut input };
                moved[at] += delta;
                weighted_output(&mlp, &input, &c)
            };
            (loss(eps) - loss(-eps)) / (2.0 * eps)
        };
        // dW and db of both layers: column `in_dim` of a unit is its bias.
        for (at, (w0, w1)) in before.params.iter().zip(&mlp.params).enumerate() {
            let want = numerical(&before, &input, at, true);
            assert!(
                (w0 - w1 - want).abs() < 1e-2,
                "param {at}: {} vs {want}",
                w0 - w1
            );
        }
        // dX, row by row.
        for (at, _) in input.iter().enumerate() {
            let got = acts.input_grad(at / 3)[at % 3];
            let want = numerical(&before, &input, at, false);
            assert!((got - want).abs() < 1e-2, "input {at}: {got} vs {want}");
        }
    }

    #[test]
    fn a_split_update_moves_every_unit_as_one_update_does() {
        let mut data = StdRng::seed_from_u64(3);
        let input: Vec<f32> = (0..7 * 21).map(|_| data.gen_range(-1.0..1.0)).collect();
        let grads: Vec<f32> = (0..7).map(|_| data.gen_range(-1.0..1.0)).collect();
        // 21 → 9 → 6 → 1: short unit blocks and partial column tiles.
        let mlp = Mlp::new(&[21, 9, 6, 1], &mut rng());
        let mut acts = MlpActivations::default();
        mlp.forward_batch(&input, &mut acts);
        let mut whole = mlp.clone();
        whole.backward_batch(&mut acts, &grads, 0.1);
        for runs in [2, 3, 5] {
            let mut split = mlp.clone();
            let (update, params) = split.update();
            let mut cuts: Vec<usize> = (0..=runs).map(|w| update.split(w, runs)).collect();
            cuts[runs] = update.units();
            for pair in cuts.windows(2) {
                let (from, to) = (update.offset(pair[0]), update.offset(pair[1]));
                update.apply(pair[0]..pair[1], &mut params[from..to], &acts, 0.1);
            }
            let bits = |mlp: &Mlp| mlp.params.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&split), bits(&whole), "{runs} runs");
        }
    }

    #[test]
    fn sgd_reduces_loss_on_a_learnable_problem() {
        // Learn y = 1 if x0 > x1 else 0, one minibatch of 32 per step.
        let mut mlp = Mlp::new(&[2, 8, 1], &mut rng());
        let mut data_rng = StdRng::seed_from_u64(9);
        let mut acts = MlpActivations::default();
        let (mut input, mut grads) = (vec![0.0f32; 64], vec![0.0f32; 32]);
        let mut losses = Vec::new();
        for _ in 0..300 {
            input.fill_with(|| data_rng.gen_range(0.0..1.0f32));
            mlp.forward_batch(&input, &mut acts);
            let mut loss = 0.0;
            for (row, (x, grad)) in input.chunks_exact(2).zip(&mut grads).enumerate() {
                let label = if x[0] > x[1] { 1.0 } else { 0.0 };
                let p = sigmoid(acts.output(row)[0]);
                loss += bce_loss(p, label);
                // dL/dlogit = p - label for sigmoid + BCE, batch-averaged.
                *grad = (p - label) / 32.0;
            }
            mlp.backward_batch(&mut acts, &grads, 0.5);
            losses.push(loss);
        }
        let (initial, last) = (losses[0], losses[losses.len() - 1]);
        assert!(
            last < initial * 0.6,
            "training should reduce loss: {initial} -> {last}"
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
