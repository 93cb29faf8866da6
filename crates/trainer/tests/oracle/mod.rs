//! The row-wise reference trainer: the DLRM kernels as they were before the
//! step path went flat — one `Vec` per embedding row, per query and per
//! layer, strict-order scalar dot products, `HashMap`-keyed tables, pooled
//! outputs expanded per row — and minibatch SGD spelled out: every row's
//! gradients taken at the step's starting parameters, summed per parameter,
//! one update at the end. Slow and obviously right; the flat kernels in
//! `src/` are tested against it and it exists nowhere else.
//!
//! Parameter initialisation draws from the same seeded RNG streams in the
//! same order as `Dlrm::new`, so an oracle and a model built from one config
//! start from identical weights.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recd_core::{ConvertedBatch, InverseKeyedJaggedTensor, JaggedTensor};
use recd_data::FeatureId;
use recd_trainer::{bce_loss, DlrmConfig, ExecutionMode, ForwardStats, PoolingKind};
use std::collections::HashMap;

fn softmax_in_place(scores: &mut [f32]) {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    if sum > 0.0 {
        for s in scores.iter_mut() {
            *s /= sum;
        }
    }
}

/// Pools one sequence of embedding vectors into a single vector. An empty
/// sequence pools to the zero vector.
pub fn pool_sequence(kind: PoolingKind, sequence: &[Vec<f32>], dim: usize) -> Vec<f32> {
    if sequence.is_empty() {
        return vec![0.0; dim];
    }
    match kind {
        PoolingKind::Sum => {
            let mut out = vec![0.0f32; dim];
            for e in sequence {
                for (o, v) in out.iter_mut().zip(e) {
                    *o += v;
                }
            }
            out
        }
        PoolingKind::Mean => {
            let mut out = vec![0.0f32; dim];
            for e in sequence {
                for (o, v) in out.iter_mut().zip(e) {
                    *o += v;
                }
            }
            let n = sequence.len() as f32;
            for o in &mut out {
                *o /= n;
            }
            out
        }
        PoolingKind::Max => {
            let mut out = vec![f32::NEG_INFINITY; dim];
            for e in sequence {
                for (o, v) in out.iter_mut().zip(e) {
                    *o = o.max(*v);
                }
            }
            out
        }
        PoolingKind::Attention => {
            // Query = mean of the sequence; attention weights from dot products.
            let mut query = vec![0.0f32; dim];
            for e in sequence {
                for (q, v) in query.iter_mut().zip(e) {
                    *q += v;
                }
            }
            let n = sequence.len() as f32;
            for q in &mut query {
                *q /= n;
            }
            let scale = 1.0 / (dim as f32).sqrt();
            let mut scores: Vec<f32> = sequence
                .iter()
                .map(|e| e.iter().zip(&query).map(|(a, b)| a * b).sum::<f32>() * scale)
                .collect();
            softmax_in_place(&mut scores);
            let mut out = vec![0.0f32; dim];
            for (e, &w) in sequence.iter().zip(&scores) {
                for (o, v) in out.iter_mut().zip(e) {
                    *o += w * v;
                }
            }
            out
        }
        PoolingKind::Transformer => {
            // One round of scaled dot-product self-attention (weights tied to
            // the identity projection to stay parameter-free), followed by a
            // squared-ReLU feed-forward, then mean pooling.
            let scale = 1.0 / (dim as f32).sqrt();
            let mut attended: Vec<Vec<f32>> = Vec::with_capacity(sequence.len());
            for q in sequence {
                let mut scores: Vec<f32> = sequence
                    .iter()
                    .map(|k| q.iter().zip(k).map(|(a, b)| a * b).sum::<f32>() * scale)
                    .collect();
                softmax_in_place(&mut scores);
                let mut out = vec![0.0f32; dim];
                for (v, &w) in sequence.iter().zip(&scores) {
                    for (o, x) in out.iter_mut().zip(v) {
                        *o += w * x;
                    }
                }
                // Feed-forward: squared ReLU with a residual connection.
                for (o, x) in out.iter_mut().zip(q) {
                    let h = (*o).max(0.0);
                    *o = x + h * h;
                }
                attended.push(out);
            }
            let mut out = vec![0.0f32; dim];
            for e in &attended {
                for (o, v) in out.iter_mut().zip(e) {
                    *o += v;
                }
            }
            let n = attended.len() as f32;
            for o in &mut out {
                *o /= n;
            }
            out
        }
    }
}

struct EmbeddingTable {
    weights: Vec<f32>,
    /// This step's gradient so far, shaped like `weights`.
    grads: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl EmbeddingTable {
    fn new(rows: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rows.max(1);
        let dim = dim.max(1);
        let weights = (0..rows * dim)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        Self {
            weights,
            grads: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    fn row(&self, id: u64) -> &[f32] {
        let r = (id % self.rows as u64) as usize;
        &self.weights[r * self.dim..(r + 1) * self.dim]
    }

    fn lookup_pooled(&self, ids: &[u64]) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        for &id in ids {
            for (o, w) in out.iter_mut().zip(self.row(id)) {
                *o += w;
            }
        }
        out
    }

    fn lookup_sequence(&self, ids: &[u64]) -> Vec<Vec<f32>> {
        ids.iter().map(|&id| self.row(id).to_vec()).collect()
    }

    /// Adds a pooled lookup's gradient: every id in the list receives the
    /// pooled output's.
    fn add_pooled_gradient(&mut self, ids: &[u64], grad: &[f32]) {
        for &id in ids {
            let r = (id % self.rows as u64) as usize;
            let row = &mut self.grads[r * self.dim..(r + 1) * self.dim];
            for (s, g) in row.iter_mut().zip(grad) {
                *s += g;
            }
        }
    }

    /// Moves every row along its summed gradient and clears it.
    fn apply(&mut self, learning_rate: f32) {
        for (w, g) in self.weights.iter_mut().zip(&mut self.grads) {
            *w -= learning_rate * *g;
            *g = 0.0;
        }
    }
}

struct Linear {
    /// Weights, row-major `[out, in]`.
    weights: Vec<f32>,
    bias: Vec<f32>,
    /// This step's gradients so far, shaped like `weights` and `bias`.
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
    relu: bool,
}

impl Linear {
    fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut StdRng) -> Self {
        let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Self {
            weights,
            bias: vec![0.0; out_dim],
            grad_weights: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
            in_dim,
            out_dim,
            relu,
        }
    }

    fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_dim];
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.bias[o];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            *out_v = if self.relu { acc.max(0.0) } else { acc };
        }
        out
    }

    /// One row's backward at the current weights: adds its weight and bias
    /// gradients to the step's and returns the gradient with respect to its
    /// input.
    fn backward(&mut self, input: &[f32], output: &[f32], grad_output: &[f32]) -> Vec<f32> {
        let mut grad_input = vec![0.0f32; self.in_dim];
        for o in 0..self.out_dim {
            // ReLU gate.
            let g = if self.relu && output[o] <= 0.0 {
                0.0
            } else {
                grad_output[o]
            };
            let row = o * self.in_dim..(o + 1) * self.in_dim;
            let weights = self.weights[row.clone()].iter();
            let grads = self.grad_weights[row].iter_mut();
            for (i, ((w, s), &x)) in weights.zip(grads).zip(input).enumerate() {
                grad_input[i] += w * g;
                *s += g * x;
            }
            self.grad_bias[o] += g;
        }
        grad_input
    }

    /// Moves every parameter along its summed gradient and clears it.
    fn apply(&mut self, learning_rate: f32) {
        let params = self.weights.iter_mut().chain(&mut self.bias);
        let grads = self.grad_weights.iter_mut().chain(&mut self.grad_bias);
        for (p, g) in params.zip(grads) {
            *p -= learning_rate * *g;
            *g = 0.0;
        }
    }
}

struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], i + 2 < dims.len(), rng))
            .collect();
        Self { layers }
    }

    fn forward_cached(&self, input: &[f32]) -> Vec<Vec<f32>> {
        let mut activations = vec![input.to_vec()];
        for layer in &self.layers {
            let next = layer.forward(activations.last().unwrap());
            activations.push(next);
        }
        activations
    }

    fn backward(&mut self, activations: &[Vec<f32>], grad_output: &[f32]) -> Vec<f32> {
        let mut grad = grad_output.to_vec();
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward(&activations[idx], &activations[idx + 1], &grad);
        }
        grad
    }

    fn apply(&mut self, learning_rate: f32) {
        for layer in &mut self.layers {
            layer.apply(learning_rate);
        }
    }

    fn flops(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| 2 * l.in_dim as u64 * l.out_dim as u64)
            .sum()
    }
}

fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The row-wise DLRM.
pub struct OracleDlrm {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
    tables: HashMap<FeatureId, EmbeddingTable>,
    pooling: HashMap<FeatureId, PoolingKind>,
}

struct ForwardCache {
    bottom_acts: Vec<Vec<Vec<f32>>>,
    top_acts: Vec<Vec<Vec<f32>>>,
    /// Per feature, one pooled vector per batch row.
    pooled: Vec<Vec<Vec<f32>>>,
    features: Vec<FeatureId>,
}

impl OracleDlrm {
    pub fn new(config: DlrmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut bottom_dims = vec![config.dense_features.max(1)];
        bottom_dims.extend(&config.bottom_mlp);
        let bottom = Mlp::new(&bottom_dims, &mut rng);

        let n_vectors = config.feature_pooling.len() + 1;
        let interaction_dim = config.embedding_dim + n_vectors * (n_vectors - 1) / 2;
        let mut top_dims = vec![interaction_dim];
        top_dims.extend(&config.top_mlp);
        let top = Mlp::new(&top_dims, &mut rng);

        let tables = config
            .feature_pooling
            .iter()
            .map(|&(feature, _)| {
                let seed = config.seed ^ (feature.raw() as u64 + 1);
                let table = EmbeddingTable::new(config.hash_buckets, config.embedding_dim, seed);
                (feature, table)
            })
            .collect();
        let pooling = config.feature_pooling.iter().copied().collect();
        Self {
            config,
            bottom,
            top,
            tables,
            pooling,
        }
    }

    /// The embedding row `id` maps to in `feature`'s table.
    pub fn embedding(&self, feature: FeatureId, id: u64) -> &[f32] {
        self.tables[&feature].row(id)
    }

    /// Pools one feature for every row of the batch, honoring the execution
    /// mode.
    fn pool_feature(
        &self,
        feature: FeatureId,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
        stats: &mut ForwardStats,
    ) -> Vec<Vec<f32>> {
        let dim = self.config.embedding_dim;
        let kind = self.pooling[&feature];
        let table = &self.tables[&feature];
        if let Some(tensor) = batch.kjt.feature(feature) {
            return pool_rows(table, kind, tensor, dim, mode, stats);
        }
        for ikjt in &batch.ikjts {
            let Some(slot_tensor) = ikjt.feature(feature) else {
                continue;
            };
            return match mode {
                ExecutionMode::Baseline => {
                    // Expand first, then process every row.
                    let expanded =
                        recd_core::jagged_index_select(slot_tensor, ikjt.inverse_lookup()).unwrap();
                    pool_rows(table, kind, &expanded, dim, mode, stats)
                }
                ExecutionMode::Deduplicated => {
                    // Process each slot once, then broadcast (O5 + O7).
                    let per_slot = pool_rows(table, kind, slot_tensor, dim, mode, stats);
                    expand_per_slot(ikjt, &per_slot)
                }
            };
        }
        // Feature absent from the batch: pool to zeros.
        vec![vec![0.0; dim]; batch.batch_size]
    }

    pub fn forward(&self, batch: &ConvertedBatch, mode: ExecutionMode) -> (Vec<f32>, ForwardStats) {
        let (probs, _, stats) = self.forward_full(batch, mode);
        (probs, stats)
    }

    fn forward_full(
        &self,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
    ) -> (Vec<f32>, ForwardCache, ForwardStats) {
        let mut stats = ForwardStats::default();
        let dim = self.config.embedding_dim;
        let batch_size = batch.batch_size;

        let zero = [0.0f32];
        let mut bottom_acts = Vec::with_capacity(batch_size);
        for row in 0..batch_size {
            let dense: &[f32] = if batch.dense.cols() == 0 {
                &zero
            } else {
                batch.dense.row(row)
            };
            bottom_acts.push(self.bottom.forward_cached(dense));
        }
        stats.mlp_flops += self.bottom.flops() * batch_size as u64;

        let features: Vec<FeatureId> = self
            .config
            .feature_pooling
            .iter()
            .map(|&(f, _)| f)
            .collect();
        let pooled: Vec<Vec<Vec<f32>>> = features
            .iter()
            .map(|&feature| self.pool_feature(feature, batch, mode, &mut stats))
            .collect();

        let mut probs = Vec::with_capacity(batch_size);
        let mut top_acts = Vec::with_capacity(batch_size);
        for (row, bottom_act) in bottom_acts.iter().enumerate() {
            let mut vectors: Vec<&[f32]> = vec![bottom_act.last().unwrap()];
            vectors.extend(pooled.iter().map(|rows| rows[row].as_slice()));
            let interaction = pairwise_dot_interaction(&vectors, dim);
            stats.mlp_flops += (vectors.len() * vectors.len() / 2) as u64 * dim as u64;
            let acts = self.top.forward_cached(&interaction);
            probs.push(sigmoid(acts.last().unwrap()[0]));
            top_acts.push(acts);
        }
        stats.mlp_flops += self.top.flops() * batch_size as u64;

        let cache = ForwardCache {
            bottom_acts,
            top_acts,
            pooled,
            features,
        };
        (probs, cache, stats)
    }

    /// One minibatch SGD step: every row's gradients at the step's starting
    /// parameters, summed, then one update. Returns the mean loss.
    pub fn train_step(&mut self, batch: &ConvertedBatch, mode: ExecutionMode) -> f32 {
        let lr = self.config.learning_rate;
        let dim = self.config.embedding_dim;
        let (probs, cache, _) = self.forward_full(batch, mode);
        let batch_size = batch.batch_size.max(1);

        let mut total_loss = 0.0;
        for (row, &p) in probs.iter().enumerate() {
            let label = batch.labels[row];
            total_loss += bce_loss(p, label);
            // dL/dlogit for sigmoid + BCE, averaged over the batch.
            let grad_logit = (p - label) / batch_size as f32;

            let grad_interaction = self.top.backward(&cache.top_acts[row], &[grad_logit]);

            let mut vectors: Vec<&[f32]> = vec![cache.bottom_acts[row].last().unwrap()];
            vectors.extend(cache.pooled.iter().map(|rows| rows[row].as_slice()));
            let grads = pairwise_dot_interaction_backward(&vectors, dim, &grad_interaction);

            self.bottom.backward(&cache.bottom_acts[row], &grads[0]);

            // Embedding backward for sum/mean pooled features.
            for (fi, &feature) in cache.features.iter().enumerate() {
                let kind = self.pooling[&feature];
                if !matches!(kind, PoolingKind::Sum | PoolingKind::Mean) {
                    continue;
                }
                let ids = row_ids(batch, feature, row);
                if ids.is_empty() {
                    continue;
                }
                let mut grad = grads[fi + 1].clone();
                if matches!(kind, PoolingKind::Mean) {
                    let n = ids.len() as f32;
                    for g in &mut grad {
                        *g /= n;
                    }
                }
                self.tables
                    .get_mut(&feature)
                    .unwrap()
                    .add_pooled_gradient(&ids, &grad);
            }
        }
        self.top.apply(lr);
        self.bottom.apply(lr);
        for table in self.tables.values_mut() {
            table.apply(lr);
        }
        total_loss / batch_size as f32
    }
}

/// The logical ids of `feature` at `row`, whichever container holds it.
fn row_ids(batch: &ConvertedBatch, feature: FeatureId, row: usize) -> Vec<u64> {
    if let Some(tensor) = batch.kjt.feature(feature) {
        return tensor.row(row).to_vec();
    }
    for ikjt in &batch.ikjts {
        if ikjt.feature(feature).is_some() {
            return ikjt.row(feature, row).unwrap().to_vec();
        }
    }
    Vec::new()
}

/// Pools every row of a jagged tensor through one embedding table. In
/// Deduplicated mode a row whose list equals the row's before it counts as
/// copied; it is pooled all the same.
/// Broadcasts per-slot outputs to the batch's rows through the IKJT's
/// inverse lookup: the "expand the output" step of deduplicated pooling
/// (O7), which computes on the slots and hands every row its slot's result.
fn expand_per_slot<T: Clone>(ikjt: &InverseKeyedJaggedTensor, per_slot: &[T]) -> Vec<T> {
    assert_eq!(per_slot.len(), ikjt.slot_count(), "one output per slot");
    ikjt.inverse_lookup()
        .iter()
        .map(|&slot| per_slot[slot].clone())
        .collect()
}

fn pool_rows(
    table: &EmbeddingTable,
    kind: PoolingKind,
    tensor: &JaggedTensor<u64>,
    dim: usize,
    mode: ExecutionMode,
    stats: &mut ForwardStats,
) -> Vec<Vec<f32>> {
    let mut previous: Option<&[u64]> = None;
    tensor
        .iter()
        .map(|row| {
            if mode == ExecutionMode::Deduplicated && previous == Some(row) {
                stats.copied_units += 1;
            }
            previous = Some(row);
            stats.emb_lookups += row.len() as u64;
            stats.activation_values += row.len() * dim;
            stats.pooling_flops += kind.flops_per_row(row.len(), dim);
            stats.pooled_rows += 1;
            match kind {
                PoolingKind::Sum => table.lookup_pooled(row),
                _ => pool_sequence(kind, &table.lookup_sequence(row), dim),
            }
        })
        .collect()
}

fn pairwise_dot_interaction(vectors: &[&[f32]], dim: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(dim + vectors.len() * (vectors.len() - 1) / 2);
    out.extend_from_slice(vectors[0]);
    for i in 0..vectors.len() {
        for j in (i + 1)..vectors.len() {
            let dot: f32 = vectors[i].iter().zip(vectors[j]).map(|(a, b)| a * b).sum();
            out.push(dot);
        }
    }
    out
}

fn pairwise_dot_interaction_backward(
    vectors: &[&[f32]],
    dim: usize,
    grad_output: &[f32],
) -> Vec<Vec<f32>> {
    let mut grads: Vec<Vec<f32>> = vectors.iter().map(|v| vec![0.0; v.len()]).collect();
    // Pass-through part for the first vector.
    for d in 0..dim.min(grad_output.len()) {
        grads[0][d] += grad_output[d];
    }
    let mut k = dim;
    for i in 0..vectors.len() {
        for j in (i + 1)..vectors.len() {
            if k >= grad_output.len() {
                break;
            }
            let g = grad_output[k];
            k += 1;
            for d in 0..dim {
                grads[i][d] += g * vectors[j][d];
                grads[j][d] += g * vectors[i][d];
            }
        }
    }
    grads
}
