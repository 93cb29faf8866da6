//! The executable DLRM: bottom MLP over dense features, embedding tables and
//! pooling over sparse features, pairwise-dot feature interaction, and a top
//! MLP producing a click probability (paper §2.2, Figure 2).

use crate::embedding::EmbeddingTable;
use crate::nn::{axpy, bce_loss, dot, sigmoid, Mlp, MlpActivations};
use crate::pooling::{pool_sequence, PoolScratch, PoolingKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recd_core::{ConvertedBatch, JaggedTensor};
use recd_data::{FeatureId, Schema};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Whether the model executes the baseline (KJT) or deduplicated (IKJT)
/// path for grouped features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Process every feature one batch row at a time, reading a grouped
    /// feature's rows back through the inverse lookup (the work a pre-RecD
    /// trainer does on the expanded KJT).
    Baseline,
    /// O5–O7: look up, pool, and run sequence modules once per deduplicated
    /// slot; the interaction reads each row's pooled vector through the
    /// shared inverse lookup.
    #[default]
    Deduplicated,
}

/// Work counters collected during one forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ForwardStats {
    /// Single-row embedding lookups performed.
    pub emb_lookups: u64,
    /// FLOPs spent in pooling modules.
    pub pooling_flops: u64,
    /// Rows (or slots) run through pooling modules.
    pub pooled_rows: usize,
    /// FLOPs spent in the bottom/top MLPs and the interaction.
    pub mlp_flops: u64,
    /// f32 values materialized for embedding activations (the dynamic GPU
    /// memory O5 reduces).
    pub activation_values: usize,
}

/// Average list length from which [`DlrmConfig::from_schema`] treats a
/// feature as a sequence (user-history) feature.
pub const SEQUENCE_MIN_AVG_LEN: f64 = 16.0;

/// Model architecture configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlrmConfig {
    /// Number of dense input features.
    pub dense_features: usize,
    /// Embedding dimension shared by all tables.
    pub embedding_dim: usize,
    /// Rows per embedding table (hash buckets).
    pub hash_buckets: usize,
    /// Hidden sizes of the bottom MLP (its output is `embedding_dim`).
    pub bottom_mlp: Vec<usize>,
    /// Hidden sizes of the top MLP (its output is 1 logit).
    pub top_mlp: Vec<usize>,
    /// Pooling used for sequence (user-history) features.
    pub sequence_pooling: PoolingKind,
    /// Per-feature pooling assignment.
    pub feature_pooling: Vec<(FeatureId, PoolingKind)>,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl DlrmConfig {
    /// Builds a model configuration from a dataset schema: features whose
    /// schema `avg_len` is at least [`SEQUENCE_MIN_AVG_LEN`] (long histories)
    /// get `sequence_pooling`, everything else gets sum pooling.
    pub fn from_schema(
        schema: &Schema,
        embedding_dim: usize,
        sequence_pooling: PoolingKind,
    ) -> Self {
        let feature_pooling = schema
            .sparse_features()
            .iter()
            .map(|spec| {
                let kind = if spec.avg_len >= SEQUENCE_MIN_AVG_LEN {
                    sequence_pooling
                } else {
                    PoolingKind::Sum
                };
                (spec.id, kind)
            })
            .collect();
        Self {
            dense_features: schema.dense_count(),
            embedding_dim,
            hash_buckets: 1 << 12,
            bottom_mlp: vec![64, embedding_dim],
            top_mlp: vec![64, 32, 1],
            sequence_pooling,
            feature_pooling,
            learning_rate: 0.05,
            seed: 17,
        }
    }

    /// Replaces the embedding dimension (used by the Table 2 "EMB D256"
    /// configuration).
    #[must_use]
    pub fn with_embedding_dim(mut self, dim: usize) -> Self {
        self.embedding_dim = dim;
        if let Some(last) = self.bottom_mlp.last_mut() {
            *last = dim;
        }
        self
    }

    /// Forces sum pooling everywhere (needed for end-to-end SGD training,
    /// since the sequence modules are forward-only).
    #[must_use]
    pub fn with_sum_pooling(mut self) -> Self {
        self.sequence_pooling = PoolingKind::Sum;
        for (_, kind) in &mut self.feature_pooling {
            *kind = PoolingKind::Sum;
        }
        self
    }

    /// Number of sparse features the model consumes.
    pub fn sparse_feature_count(&self) -> usize {
        self.feature_pooling.len()
    }
}

/// The executable DLRM.
#[derive(Debug, Clone)]
pub struct Dlrm {
    config: DlrmConfig,
    bottom: Mlp,
    top: Mlp,
    /// One table per entry of `config.feature_pooling`, in that order.
    tables: Vec<EmbeddingTable>,
    ws: Workspace,
}

/// Every buffer a step touches, flat and row-major. The first batch sizes
/// them and later ones reuse them, so a steady-state step allocates nothing
/// but the forward workers' thread spawns.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Bottom-MLP input, used when the batch's dense shape is not the model's.
    dense: Vec<f32>,
    bottom: MlpActivations,
    top: MlpActivations,
    /// Every `dim`-wide interaction input of the batch: one all-zero row,
    /// the bottom MLP's output per batch row, then per feature one pooled
    /// vector per *unit* — a dedup slot for a grouped feature in
    /// [`ExecutionMode::Deduplicated`], a batch row otherwise.
    vectors: Vec<f32>,
    /// `[batch × n_vectors]` offsets into `vectors`: a row's interaction
    /// inputs. A grouped feature is read through the inverse lookup here
    /// (O6) — pooled slots are indexed, never expanded per row.
    index: Vec<usize>,
    /// Where each feature's units start in `vectors`, then where the last
    /// feature's end.
    bases: Vec<usize>,
    /// Pooling cost over the flat unit space: entry `u` sums
    /// [`PoolingKind::flops_per_row`] over units `0..u`, so the forward
    /// workers can cut it into runs of equal cost.
    costs: Vec<u64>,
    /// One per forward worker; the calling thread is the last.
    workers: Vec<Worker>,
    /// Top-MLP input, `[batch × interaction_dim]`.
    interaction: Vec<f32>,
    probs: Vec<f32>,
    /// One row's gradient per interaction input, `[n_vectors × dim]`.
    row_grads: Vec<f32>,
    /// Gradients summed per unit, laid out like `vectors` (the zero row's
    /// place is a sink nobody reads).
    unit_grads: Vec<f32>,
}

/// What one forward worker pools with, and the work it counted doing so.
#[derive(Debug, Clone, Default)]
struct Worker {
    /// One gathered `[len × dim]` embedding sequence.
    sequence: Vec<f32>,
    pool: PoolScratch,
    stats: ForwardStats,
}

/// One feature's id lists in a batch, resolved once per pass.
struct Units<'a> {
    tensor: &'a JaggedTensor<u64>,
    /// Unit → row of `tensor`; identity when `None`.
    unit_slots: Option<&'a [usize]>,
    /// Batch row → unit; identity when `None`.
    row_units: Option<&'a [usize]>,
}

impl<'a> Units<'a> {
    /// Finds `feature` in the KJT or in one of the IKJTs. A grouped feature
    /// has one unit per dedup slot in Deduplicated mode (O5 + O7: look up and
    /// pool once per slot) and one per batch row in Baseline mode, which
    /// reads each row's list back through the inverse lookup — the work a
    /// pre-RecD trainer does on the expanded KJT.
    fn locate(batch: &'a ConvertedBatch, feature: FeatureId, mode: ExecutionMode) -> Option<Self> {
        let (tensor, inverse) = match batch.kjt.feature(feature) {
            Some(tensor) => (tensor, None),
            None => batch
                .ikjts
                .iter()
                .find_map(|ikjt| Some((ikjt.feature(feature)?, Some(ikjt.inverse_lookup()))))?,
        };
        let (unit_slots, row_units) = match mode {
            ExecutionMode::Baseline => (inverse, None),
            ExecutionMode::Deduplicated => (None, inverse),
        };
        Some(Self {
            tensor,
            unit_slots,
            row_units,
        })
    }

    fn count(&self) -> usize {
        self.unit_slots
            .map_or(self.tensor.row_count(), <[usize]>::len)
    }

    /// The id list unit `unit` looks up and pools.
    fn ids(&self, unit: usize) -> &'a [u64] {
        let slot = self.unit_slots.map_or(unit, |slots| slots[unit]);
        self.tensor.get(slot).unwrap_or(&[])
    }

    /// The unit holding batch row `row`'s pooled vector, if it has one.
    fn of_row(&self, row: usize) -> Option<usize> {
        let unit = self
            .row_units
            .map_or(Some(row), |units| units.get(row).copied())?;
        debug_assert!(unit < self.count(), "inverse lookup past the slot count");
        (unit < self.count()).then_some(unit)
    }
}

/// Whether the backward pass reaches the embedding table of a feature pooled
/// with `kind` (the sequence modules are forward-only).
fn trains(kind: PoolingKind) -> bool {
    matches!(kind, PoolingKind::Sum | PoolingKind::Mean)
}

/// The bottom MLP's `[batch × width]` input: the batch's dense matrix itself
/// when it has that shape, else a zero-padded (or truncated) copy in `padded`.
fn dense_input<'a>(batch: &'a ConvertedBatch, width: usize, padded: &'a mut Vec<f32>) -> &'a [f32] {
    let dense = &batch.dense;
    if dense.cols() == width && dense.rows() == batch.batch_size {
        return dense.data();
    }
    padded.clear();
    padded.resize(batch.batch_size * width, 0.0);
    let n = width.min(dense.cols());
    for (r, out) in padded
        .chunks_exact_mut(width)
        .enumerate()
        .take(dense.rows())
    {
        out[..n].copy_from_slice(&dense.row(r)[..n]);
    }
    padded
}

impl Dlrm {
    /// Builds the model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `embedding_dim` is zero or the bottom MLP does not end at
    /// it: the bottom output is one of the interaction's input vectors.
    pub fn new(config: DlrmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut bottom_dims = vec![config.dense_features.max(1)];
        bottom_dims.extend(&config.bottom_mlp);
        let bottom = Mlp::new(&bottom_dims, &mut rng);
        assert!(
            config.embedding_dim > 0 && bottom.out_dim() == config.embedding_dim,
            "the bottom MLP must end at a non-zero embedding_dim"
        );

        let n_features = config.feature_pooling.len();
        // Interaction output: bottom vector (d) + pairwise dots among
        // (bottom + n_features) vectors.
        let n_vectors = n_features + 1;
        let interaction_dim = config.embedding_dim + n_vectors * (n_vectors - 1) / 2;
        let mut top_dims = vec![interaction_dim];
        top_dims.extend(&config.top_mlp);
        let top = Mlp::new(&top_dims, &mut rng);

        let tables = config
            .feature_pooling
            .iter()
            .map(|&(feature, _)| {
                EmbeddingTable::new(
                    config.hash_buckets,
                    config.embedding_dim,
                    config.seed ^ (feature.raw() as u64 + 1),
                )
            })
            .collect();
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            config,
            bottom,
            top,
            tables,
            ws: Workspace {
                workers: vec![Worker::default(); workers],
                ..Workspace::default()
            },
        }
    }

    /// Borrows the model configuration.
    pub fn config(&self) -> &DlrmConfig {
        &self.config
    }

    /// The embedding tables, one per entry of the configuration's
    /// `feature_pooling`, in that order.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// Total embedding parameter bytes (for the memory report).
    pub fn embedding_parameter_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(EmbeddingTable::parameter_bytes)
            .sum()
    }

    /// Total dense (MLP) parameter count.
    pub fn mlp_parameter_count(&self) -> usize {
        self.bottom.parameter_count() + self.top.parameter_count()
    }

    /// Forward pass over a converted batch, returning per-row click
    /// probabilities and work counters.
    pub fn forward(
        &mut self,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
    ) -> (Vec<f32>, ForwardStats) {
        let stats = self.forward_pass(batch, mode);
        (self.ws.probs.clone(), stats)
    }

    /// Forward pass into the workspace: probabilities land in `ws.probs`,
    /// everything the backward pass needs stays in the other buffers.
    ///
    /// Lookup + pooling and the interaction run on one worker per entry of
    /// `ws.workers`, each over its own contiguous run of units or rows; every
    /// unit and row is computed exactly as one thread computes it, so the
    /// results do not depend on the worker count.
    fn forward_pass(&mut self, batch: &ConvertedBatch, mode: ExecutionMode) -> ForwardStats {
        let Self {
            config,
            bottom,
            top,
            tables,
            ws,
        } = self;
        let mut stats = ForwardStats::default();
        let dim = config.embedding_dim;
        let rows = batch.batch_size;
        let n_vectors = tables.len() + 1;

        // Bottom MLP over dense features, straight off the columnar dense
        // matrix — no per-row copy.
        let dense = dense_input(batch, bottom.in_dim(), &mut ws.dense);
        bottom.forward_batch(dense, &mut ws.bottom);
        stats.mlp_flops += bottom.flops() * rows as u64;

        ws.vectors.clear();
        ws.vectors.resize(dim, 0.0);
        ws.vectors.extend_from_slice(ws.bottom.output());
        ws.index.clear();
        ws.index.resize(rows * n_vectors, 0);
        for (r, offsets) in ws.index.chunks_exact_mut(n_vectors).enumerate() {
            offsets[0] = (1 + r) * dim;
        }

        // Lay every feature's units out one after another, point the rows at
        // them, and price each unit by its pooling FLOPs.
        let first = ws.vectors.len();
        let mut cost = 0;
        let mut longest = 0;
        ws.bases.clear();
        ws.costs.clear();
        ws.costs.push(cost);
        for (f, &(feature, kind)) in config.feature_pooling.iter().enumerate() {
            let base = ws.vectors.len();
            ws.bases.push(base);
            // A feature absent from the batch leaves every row on the zero
            // vector.
            let Some(units) = Units::locate(batch, feature, mode) else {
                continue;
            };
            ws.vectors.resize(base + units.count() * dim, 0.0);
            for unit in 0..units.count() {
                let len = units.ids(unit).len();
                if kind != PoolingKind::Sum {
                    longest = longest.max(len);
                }
                cost += kind.flops_per_row(len, dim);
                ws.costs.push(cost);
            }
            for (r, offsets) in ws.index.chunks_exact_mut(n_vectors).enumerate() {
                if let Some(unit) = units.of_row(r) {
                    offsets[f + 1] = base + unit * dim;
                }
            }
        }
        ws.bases.push(ws.vectors.len());
        // Sized here, so that no worker thread ever allocates.
        for worker in &mut ws.workers {
            worker.sequence.clear();
            worker.sequence.reserve(longest * dim);
            worker.pool.reserve(longest, dim);
        }

        // Look up and pool every unit; worker `w` starts at the first unit
        // with `w / workers` of the total cost before it.
        let workers = ws.workers.len() as u128;
        let split = |w: usize| {
            let share = u128::from(cost) * w as u128;
            ws.costs
                .partition_point(|&c| u128::from(c) * workers < share)
        };
        run_split(
            &mut ws.workers,
            &mut ws.vectors[first..],
            dim,
            split,
            |range, out, worker| {
                let stats = &mut worker.stats;
                *stats = ForwardStats::default();
                let (from, to) = (first + range.start * dim, first + range.end * dim);
                let features = config.feature_pooling.iter().zip(tables.iter());
                for ((&(feature, kind), table), span) in features.zip(ws.bases.windows(2)) {
                    let (start, end) = (span[0].max(from), span[1].min(to));
                    let Some(units) = Units::locate(batch, feature, mode).filter(|_| start < end)
                    else {
                        continue;
                    };
                    let outs = out[start - from..end - from].chunks_exact_mut(dim);
                    for (unit, out) in ((start - span[0]) / dim..).zip(outs) {
                        let ids = units.ids(unit);
                        stats.emb_lookups += ids.len() as u64;
                        stats.activation_values += ids.len() * dim;
                        stats.pooling_flops += kind.flops_per_row(ids.len(), dim);
                        stats.pooled_rows += 1;
                        if kind == PoolingKind::Sum {
                            // Fast path: fused lookup + sum.
                            table.lookup_pooled_into(ids, out);
                        } else {
                            table.lookup_sequence_into(ids, &mut worker.sequence);
                            pool_sequence(kind, &worker.sequence, dim, &mut worker.pool, out);
                        }
                    }
                }
            },
        );
        for worker in &ws.workers {
            let counted = &worker.stats;
            stats.emb_lookups += counted.emb_lookups;
            stats.activation_values += counted.activation_values;
            stats.pooling_flops += counted.pooling_flops;
            stats.pooled_rows += counted.pooled_rows;
        }

        // Interaction per row, each worker over an equal block of rows, then
        // the top MLP over the whole batch.
        let width = top.in_dim();
        ws.interaction.clear();
        ws.interaction.resize(rows * width, 0.0);
        let workers = ws.workers.len();
        run_split(
            &mut ws.workers,
            &mut ws.interaction,
            width,
            |w| rows * w / workers,
            |range, out, _| {
                let offsets = ws.index[range.start * n_vectors..range.end * n_vectors]
                    .chunks_exact(n_vectors);
                for (offsets, out) in offsets.zip(out.chunks_exact_mut(width)) {
                    interaction_forward(&ws.vectors, offsets, dim, out);
                }
            },
        );
        stats.mlp_flops += (rows * (n_vectors * n_vectors / 2)) as u64 * dim as u64;
        top.forward_batch(&ws.interaction, &mut ws.top);
        stats.mlp_flops += top.flops() * rows as u64;
        let logits = ws.top.output().chunks_exact(top.out_dim());
        ws.probs.clear();
        ws.probs.extend(logits.map(|logit| sigmoid(logit[0])));
        stats
    }

    /// One SGD training step over a batch: forward, BCE loss, backward
    /// through the top MLP, the interaction, the bottom MLP, and the
    /// embedding tables of sum/mean-pooled features. Returns the mean loss.
    ///
    /// The MLPs take one SGD update per row, in row order. An embedding
    /// table takes one update per unit — the rows sharing a dedup slot first
    /// sum their gradients through the inverse lookup — which is the same
    /// total update, since the forward pass is already cached.
    ///
    /// Sequence pooling modules (attention/transformer) are forward-only in
    /// this reproduction; configure the model with
    /// [`DlrmConfig::with_sum_pooling`] for end-to-end training experiments.
    pub fn train_step(&mut self, batch: &ConvertedBatch, mode: ExecutionMode) -> f32 {
        self.forward_pass(batch, mode);
        let Self {
            config,
            bottom,
            top,
            tables,
            ws,
        } = self;
        let lr = config.learning_rate;
        let dim = config.embedding_dim;
        let n_vectors = tables.len() + 1;
        let batch_size = batch.batch_size.max(1) as f32;
        let dense = dense_input(batch, bottom.in_dim(), &mut ws.dense);
        ws.row_grads.resize(n_vectors * dim, 0.0);
        ws.unit_grads.clear();
        ws.unit_grads.resize(ws.vectors.len(), 0.0);

        let mut total_loss = 0.0;
        let inputs = dense
            .chunks_exact(bottom.in_dim())
            .zip(ws.interaction.chunks_exact(top.in_dim()))
            .zip(ws.index.chunks_exact(n_vectors));
        for (row, ((dense, interaction), offsets)) in inputs.enumerate() {
            let (p, label) = (ws.probs[row], batch.labels[row]);
            total_loss += bce_loss(p, label);
            // dL/dlogit for sigmoid + BCE, averaged over the batch.
            let grad_logit = (p - label) / batch_size;
            let grad = top.backward_row(interaction, &mut ws.top, row, &[grad_logit], lr);
            // Only the bottom's and the trained features' gradients are read.
            let reads = |v: usize| v == 0 || trains(config.feature_pooling[v - 1].1);
            interaction_backward(&ws.vectors, offsets, dim, grad, reads, &mut ws.row_grads);
            let (bottom_grad, feature_grads) = ws.row_grads.split_at(dim);
            bottom.backward_row(dense, &mut ws.bottom, row, bottom_grad, lr);
            let features = config.feature_pooling.iter().zip(&offsets[1..]);
            for ((&(_, kind), &at), grad) in features.zip(feature_grads.chunks_exact(dim)) {
                if trains(kind) {
                    axpy(&mut ws.unit_grads[at..at + dim], 1.0, grad);
                }
            }
        }

        let features = config.feature_pooling.iter().zip(tables).zip(&ws.bases);
        for ((&(feature, kind), table), &base) in features {
            let Some(units) = Units::locate(batch, feature, mode).filter(|_| trains(kind)) else {
                continue;
            };
            let grads = ws.unit_grads[base..].chunks_exact(dim).take(units.count());
            for (unit, grad) in grads.enumerate() {
                let ids = units.ids(unit);
                let rate = match kind {
                    PoolingKind::Mean => lr / ids.len().max(1) as f32,
                    _ => lr,
                };
                table.apply_pooled_gradient(ids, grad, rate);
            }
        }
        total_loss / batch_size
    }
}

/// Cuts the `width`-wide items of `out` into one contiguous run per worker —
/// run `w` starts at item `split(w)`, the last one ends at the last item —
/// and calls `work(items, run, worker)` on each. The last worker works on
/// the calling thread and the others on scoped threads; a lone worker starts
/// no thread at all (a scope alone allocates).
fn run_split(
    workers: &mut [Worker],
    out: &mut [f32],
    width: usize,
    split: impl Fn(usize) -> usize,
    work: impl Fn(Range<usize>, &mut [f32], &mut Worker) + Sync,
) {
    let count = out.len() / width;
    let (mut rest, mut start) = (out, 0);
    let mut carve = |end: usize| {
        let end = end.clamp(start, count);
        let (run, tail) = std::mem::take(&mut rest).split_at_mut((end - start) * width);
        rest = tail;
        (std::mem::replace(&mut start, end)..end, run)
    };
    let (own, helpers) = workers.split_last_mut().expect("a model has a worker");
    if helpers.is_empty() {
        let (items, run) = carve(count);
        return work(items, run, own);
    }
    std::thread::scope(|scope| {
        for (w, worker) in helpers.iter_mut().enumerate() {
            let (items, run) = carve(split(w + 1));
            let work = &work;
            scope.spawn(move || work(items, run, worker));
        }
        let (items, run) = carve(count);
        work(items, run, own);
    });
}

/// DLRM pairwise-dot interaction of one row: its first vector, then the dot
/// products of every vector pair. `offsets` locates the row's vectors, each
/// `dim` wide, in `vectors`.
fn interaction_forward(vectors: &[f32], offsets: &[usize], dim: usize, out: &mut [f32]) {
    let vector = |at: usize| &vectors[at..at + dim];
    out[..dim].copy_from_slice(vector(offsets[0]));
    let mut pairs = out[dim..].iter_mut();
    for (i, &a) in offsets.iter().enumerate() {
        for (&b, pair) in offsets[i + 1..].iter().zip(&mut pairs) {
            *pair = dot(vector(a), vector(b));
        }
    }
}

/// Backward of [`interaction_forward`]: writes the gradient with respect to
/// each of the row's vectors that `reads` names into `grads`,
/// `[offsets.len() × dim]`, and leaves the others zero. A read gradient sums
/// its terms in the same order whichever others are read.
fn interaction_backward(
    vectors: &[f32],
    offsets: &[usize],
    dim: usize,
    grad_output: &[f32],
    reads: impl Fn(usize) -> bool,
    grads: &mut [f32],
) {
    let vector = |at: usize| &vectors[at..at + dim];
    // Pass-through part for the first vector.
    grads.fill(0.0);
    grads[..dim].copy_from_slice(&grad_output[..dim]);
    let mut pairs = grad_output[dim..].iter();
    for (i, &a) in offsets.iter().enumerate() {
        let (head, tail) = grads.split_at_mut((i + 1) * dim);
        let grad_a = &mut head[i * dim..];
        let read_a = reads(i);
        let others = offsets[i + 1..].iter().zip(tail.chunks_exact_mut(dim));
        for (j, ((&b, grad_b), &g)) in (i + 1..).zip(others.zip(&mut pairs)) {
            if read_a {
                axpy(grad_a, g, vector(b));
            }
            if reads(j) {
                axpy(grad_b, g, vector(a));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_core::{DataLoaderConfig, FeatureConverter, KeyedJaggedTensor};
    use recd_data::ColumnarBatch;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
    use recd_etl::cluster_by_session;
    use recd_pipeline::RmPreset;

    const MODES: [ExecutionMode; 2] = [ExecutionMode::Baseline, ExecutionMode::Deduplicated];

    /// A session-clustered RM1 batch: eight Transformer-pooled histories,
    /// 96 ids long, in dedup groups.
    fn rm1_batch(rows: usize) -> (Schema, ConvertedBatch) {
        let workload = RmPreset::Rm1.spec().workload.with_sessions(20);
        workload_batch(workload, rows, true)
    }

    /// `schema`'s model at width 8 with Transformer sequence pooling and one
    /// feature on mean pooling, so a step trains tables next to forward-only
    /// ones. Small tables keep the unoptimised build quick.
    fn mixed_config(schema: &Schema) -> DlrmConfig {
        let mut config = DlrmConfig::from_schema(schema, 8, PoolingKind::Transformer);
        config.hash_buckets = 1 << 8;
        if let Some((_, kind)) = config
            .feature_pooling
            .iter_mut()
            .find(|(_, kind)| *kind == PoolingKind::Sum)
        {
            *kind = PoolingKind::Mean;
        }
        config
    }

    /// [`interaction_backward`] computing every vector's gradient, read or
    /// not: the oracle the skipping loop must match bit for bit.
    fn interaction_backward_all(
        vectors: &[f32],
        offsets: &[usize],
        dim: usize,
        grad_output: &[f32],
        grads: &mut [f32],
    ) {
        let vector = |at: usize| &vectors[at..at + dim];
        grads.fill(0.0);
        grads[..dim].copy_from_slice(&grad_output[..dim]);
        let mut pairs = grad_output[dim..].iter();
        for (i, &a) in offsets.iter().enumerate() {
            let (head, tail) = grads.split_at_mut((i + 1) * dim);
            let grad_a = &mut head[i * dim..];
            for ((&b, grad_b), &g) in offsets[i + 1..]
                .iter()
                .zip(tail.chunks_exact_mut(dim))
                .zip(&mut pairs)
            {
                axpy(grad_a, g, vector(b));
                axpy(grad_b, g, vector(a));
            }
        }
    }

    #[test]
    fn interaction_backward_skips_only_the_gradients_nobody_reads() {
        let (schema, batch) = rm1_batch(64);
        let config = mixed_config(&schema);
        let reads = |v: usize| v == 0 || trains(config.feature_pooling[v - 1].1);
        let unread = (0..=config.feature_pooling.len()).filter(|&v| !reads(v));
        assert_eq!(unread.count(), 8, "RM1's eight Transformer histories");
        let mut model = Dlrm::new(config.clone());
        model.forward_pass(&batch, ExecutionMode::Deduplicated);
        let ws = &model.ws;
        let n_vectors = config.feature_pooling.len() + 1;
        let width = model.top.in_dim();
        let grad_output: Vec<f32> = (0..width).map(|i| (i as f32 * 0.37).sin()).collect();
        let (mut got, mut want) = (vec![f32::NAN; n_vectors * 8], vec![f32::NAN; n_vectors * 8]);
        for offsets in ws.index.chunks_exact(n_vectors) {
            interaction_backward(&ws.vectors, offsets, 8, &grad_output, reads, &mut got);
            interaction_backward_all(&ws.vectors, offsets, 8, &grad_output, &mut want);
            for (v, (got, want)) in got.chunks_exact(8).zip(want.chunks_exact(8)).enumerate() {
                let bits = |grad: &[f32]| grad.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                if reads(v) {
                    assert_eq!(bits(got), bits(want), "vector {v}");
                } else {
                    assert!(got.iter().all(|&g| g == 0.0), "vector {v} is never read");
                }
            }
        }
    }

    /// A model like `config` whose forward pass runs on `workers` workers.
    fn on_workers(config: &DlrmConfig, workers: usize) -> Dlrm {
        let mut model = Dlrm::new(config.clone());
        model.ws.workers = vec![Worker::default(); workers];
        model
    }

    /// Everything a run leaves behind, as bits: the forward pass's
    /// probabilities, ten training losses, then every embedding row — and
    /// the forward pass's work counters.
    fn run_bits(
        model: &mut Dlrm,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
    ) -> (Vec<u32>, ForwardStats) {
        let (probs, stats) = model.forward(batch, mode);
        let mut bits: Vec<u32> = probs.iter().map(|p| p.to_bits()).collect();
        bits.extend((0..10).map(|_| model.train_step(batch, mode).to_bits()));
        for table in model.tables() {
            for id in 0..table.row_count() as u64 {
                bits.extend(table.lookup(id).iter().map(|v| v.to_bits()));
            }
        }
        (bits, stats)
    }

    /// Keeps the first `keep(list, len)` ids of every id list of `batch`.
    fn cut_lists(batch: &mut ConvertedBatch, keep: impl Fn(usize, usize) -> usize) {
        let grouped = batch.ikjts.iter_mut().flat_map(|ikjt| ikjt.iter_mut());
        for (_, tensor) in batch.kjt.iter_mut().chain(grouped) {
            let cut = |values: &mut Vec<u64>, offsets: &mut Vec<usize>| {
                let (mut start, mut kept) = (0, 0);
                for (list, end) in offsets[1..].iter_mut().enumerate() {
                    let len = keep(list, *end - start);
                    values.copy_within(start..start + len, kept);
                    (start, kept) = (*end, kept + len);
                    *end = kept;
                }
                values.truncate(kept);
            };
            tensor.edit_flat(cut).unwrap();
        }
    }

    #[test]
    fn the_worker_count_changes_no_bit() {
        let tiny = WorkloadConfig::preset(WorkloadPreset::Tiny);
        let (schema, full) = workload_batch(tiny.clone(), 64, true);
        // Edge cases: a KJT feature absent from the batch, and every
        // feature's first id list empty.
        let mut edited = full.clone();
        let kept = edited.kjt.iter().skip(1).map(|(key, t)| (key, t.clone()));
        edited.kjt = KeyedJaggedTensor::from_tensors(kept.collect()).unwrap();
        cut_lists(&mut edited, |list, len| if list == 0 { 0 } else { len });
        // Two rows: fewer units per feature, and fewer rows, than workers.
        let (_, two_rows) = workload_batch(tiny, 2, true);
        // Histories cut from 96 to 16 ids keep the unoptimised build quick.
        let (rm1_schema, mut rm1) = rm1_batch(32);
        cut_lists(&mut rm1, |_, len| len.min(16));
        let cases = [
            ("tiny", &schema, &full),
            ("absent feature, empty lists", &schema, &edited),
            ("two rows", &schema, &two_rows),
            ("rm1", &rm1_schema, &rm1),
        ];
        for (name, schema, batch) in cases {
            let config = mixed_config(schema);
            for mode in MODES {
                let want = run_bits(&mut on_workers(&config, 1), batch, mode);
                for workers in [2, 3, 8] {
                    let (bits, stats) = run_bits(&mut on_workers(&config, workers), batch, mode);
                    assert_eq!(stats, want.1, "{name} {mode:?} on {workers} workers");
                    assert!(bits == want.0, "{name} {mode:?} on {workers} workers");
                }
            }
        }
    }

    fn converted_batch(dedup: bool) -> (Schema, ConvertedBatch) {
        workload_batch(WorkloadConfig::preset(WorkloadPreset::Tiny), 128, dedup)
    }

    /// The first `rows` session-clustered rows of a `workload` partition.
    fn workload_batch(
        workload: WorkloadConfig,
        rows: usize,
        dedup: bool,
    ) -> (Schema, ConvertedBatch) {
        let p = DatasetGenerator::new(workload).generate_partition();
        let clustered = cluster_by_session(&p.samples);
        let batch = ColumnarBatch::from_samples(
            &clustered[..rows.min(clustered.len())],
            p.schema.dense_count(),
            p.schema.sparse_count(),
        );
        let config = DataLoaderConfig::from_schema(&p.schema);
        let converter = FeatureConverter::new(config);
        let converted = if dedup {
            converter.convert_columnar(&batch).unwrap()
        } else {
            converter.convert_columnar_baseline(&batch).unwrap()
        };
        (p.schema, converted)
    }

    #[test]
    fn dedup_and_baseline_paths_produce_identical_predictions() {
        let (schema, batch) = converted_batch(true);
        let config = DlrmConfig::from_schema(&schema, 16, PoolingKind::Attention);
        let mut model_a = Dlrm::new(config.clone());
        let mut model_b = Dlrm::new(config);
        let (probs_dedup, stats_dedup) = model_a.forward(&batch, ExecutionMode::Deduplicated);
        let (probs_base, stats_base) = model_b.forward(&batch, ExecutionMode::Baseline);
        assert_eq!(probs_dedup.len(), batch.batch_size);
        for (a, b) in probs_dedup.iter().zip(&probs_base) {
            assert!(
                (a - b).abs() < 1e-5,
                "IKJT and KJT paths must agree: {a} vs {b}"
            );
        }
        // The deduplicated path does strictly less embedding and pooling work.
        assert!(stats_dedup.emb_lookups < stats_base.emb_lookups);
        assert!(stats_dedup.pooling_flops < stats_base.pooling_flops);
        assert!(stats_dedup.activation_values < stats_base.activation_values);
        assert!(stats_dedup.pooled_rows < stats_base.pooled_rows);
    }

    #[test]
    fn forward_over_baseline_batch_matches_dedup_batch_logically() {
        // The same rows converted with and without dedup must produce the
        // same predictions (IKJTs encode the same logical data).
        let (schema, dedup_batch) = converted_batch(true);
        let (_, baseline_batch) = converted_batch(false);
        let config = DlrmConfig::from_schema(&schema, 16, PoolingKind::Sum);
        let mut model_a = Dlrm::new(config.clone());
        let mut model_b = Dlrm::new(config);
        let (a, _) = model_a.forward(&dedup_batch, ExecutionMode::Deduplicated);
        let (b, _) = model_b.forward(&baseline_batch, ExecutionMode::Baseline);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn training_reduces_loss_on_both_paths_identically() {
        let (schema, batch) = converted_batch(true);
        let config = DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum).with_sum_pooling();
        let mut dedup_model = Dlrm::new(config.clone());
        let mut baseline_model = Dlrm::new(config);
        let mut dedup_losses = Vec::new();
        let mut baseline_losses = Vec::new();
        for _ in 0..10 {
            dedup_losses.push(dedup_model.train_step(&batch, ExecutionMode::Deduplicated));
            baseline_losses.push(baseline_model.train_step(&batch, ExecutionMode::Baseline));
        }
        for (a, b) in dedup_losses.iter().zip(&baseline_losses) {
            assert!(
                (a - b).abs() < 1e-4,
                "training trajectories must match: {a} vs {b}"
            );
        }
        assert!(
            dedup_losses.last().unwrap() < dedup_losses.first().unwrap(),
            "loss should decrease: {dedup_losses:?}"
        );
    }

    #[test]
    fn config_helpers() {
        let (schema, _) = converted_batch(true);
        let config = DlrmConfig::from_schema(&schema, 32, PoolingKind::Transformer);
        assert_eq!(config.sparse_feature_count(), schema.sparse_count());
        assert!(config
            .feature_pooling
            .iter()
            .any(|&(_, k)| k == PoolingKind::Transformer));
        let wide = config.clone().with_embedding_dim(64);
        assert_eq!(wide.embedding_dim, 64);
        assert_eq!(*wide.bottom_mlp.last().unwrap(), 64);
        let summed = config.with_sum_pooling();
        assert!(summed
            .feature_pooling
            .iter()
            .all(|&(_, k)| k == PoolingKind::Sum));

        let model = Dlrm::new(DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum));
        assert!(model.embedding_parameter_bytes() > 0);
        assert!(model.mlp_parameter_count() > 0);
    }

    #[test]
    fn interaction_backward_matches_numerical_gradient() {
        // Vectors a, b, c of dimension 3, flat; b sits last in the buffer to
        // show the offsets, not the storage order, name the vectors.
        let vectors = [0.3f32, -0.2, 0.5, -0.7, 0.2, 0.9, 1.0, 0.1, -0.4];
        let offsets = [0, 6, 3];
        let forward = |vectors: &[f32]| {
            let mut out = [0.0f32; 6];
            interaction_forward(vectors, &offsets, 3, &mut out);
            out
        };
        let out = forward(&vectors);
        assert_eq!(out[..3], vectors[..3]);
        assert!((out[3] - (0.3 - 0.02 - 0.2)).abs() < 1e-6, "a.b first");
        let grad_out: Vec<f32> = (0..out.len()).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let mut grads = [f32::NAN; 9];
        interaction_backward(&vectors, &offsets, 3, &grad_out, |_| true, &mut grads);

        // Numerical check for vector b, coordinate 1.
        let eps = 1e-3f32;
        let f = |delta: f32| {
            let mut moved = vectors;
            moved[7] += delta;
            forward(&moved)
                .iter()
                .zip(&grad_out)
                .map(|(o, g)| o * g)
                .sum::<f32>()
        };
        let numerical = (f(eps) - f(-eps)) / (2.0 * eps);
        assert!((grads[3 + 1] - numerical).abs() < 1e-2);
    }
}
