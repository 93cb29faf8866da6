//! The executable DLRM: bottom MLP over dense features, embedding tables and
//! pooling over sparse features, pairwise-dot feature interaction, and a top
//! MLP producing a click probability (paper §2.2, Figure 2).

use crate::embedding::EmbeddingTable;
use crate::nn::{axpy, bce_loss, dot, sigmoid, vecmat, Mlp, MlpActivations, MlpUpdate};
use crate::pooling::{pool_shifted, PoolScratch, PoolingKind, Shift};
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
///
/// The lookup and pooling counters count every unit — a dedup slot or a
/// batch row — as looked up and pooled, including the units
/// [`copied_units`](Self::copied_units) counts, which the kernels skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ForwardStats {
    /// Single-row embedding lookups performed.
    pub emb_lookups: u64,
    /// The *modelled* FLOPs of the pooling modules
    /// ([`PoolingKind::flops_per_row`]). For Transformer pooling this counts
    /// the QKV and FFN projections of a real layer, which the parameter-free
    /// kernel does not run: ≈ 1.84 M multiply-adds modelled against ≈ 0.43 M
    /// run for a 64 × 64 sequence.
    pub pooling_flops: u64,
    /// Rows (or slots) run through pooling modules.
    pub pooled_rows: usize,
    /// Units whose id list equals the previous unit's of the same feature,
    /// so that their pooled vector is a copy of that unit's. Only
    /// [`ExecutionMode::Deduplicated`] copies; the count depends on the batch
    /// alone, not on the worker count.
    pub copied_units: usize,
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
/// but its workers' thread spawns.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Per row: the bottom MLP's dense input, then every layer's output —
    /// the last is the row's first interaction input — and the gradients.
    bottom: MlpActivations,
    /// Per row: the top MLP's input (the interaction: the bottom vector, then
    /// every pairwise dot), then every layer's output, and the gradients.
    top: MlpActivations,
    /// Every pooled `dim`-wide interaction input of the batch: one all-zero
    /// row, then per feature one pooled vector per *unit* — a dedup slot for
    /// a grouped feature in [`ExecutionMode::Deduplicated`], a batch row
    /// otherwise.
    vectors: Vec<f32>,
    /// `[batch × features]` offsets into `vectors`: a row's pooled inputs. A
    /// grouped feature is read through the inverse lookup here (O6) — pooled
    /// slots are indexed, never expanded per row.
    index: Vec<usize>,
    /// Where each feature's units start in `vectors`, then where the last
    /// feature's end.
    bases: Vec<usize>,
    /// Pooling cost over the flat unit space: entry `u` sums each unit's
    /// [`price`] over units `0..u`, so the workers can cut it into runs of
    /// equal cost.
    costs: Vec<u64>,
    /// Per unit of the flat unit space, what its pooling takes from the unit
    /// before it in its feature.
    reuse: Vec<Reuse>,
    /// One per worker; the calling thread is the last.
    workers: Vec<Worker>,
    probs: Vec<f32>,
    /// Embedding gradients summed per unit, laid out like `vectors` (the
    /// zero row's place is never written).
    unit_grads: Vec<f32>,
}

/// One worker's scratch, and the work it counted.
#[derive(Debug, Clone, Default)]
struct Worker {
    /// One gathered `[len × dim]` embedding sequence.
    sequence: Vec<f32>,
    pool: PoolScratch,
    stats: ForwardStats,
    /// One row's interaction inputs behind its pass-through gradient
    /// ([`gather_inputs`]), `[(2 + features) × dim]`.
    inputs: Vec<f32>,
    /// One input's coefficients over `inputs`.
    coeffs: Vec<f32>,
    /// One row's gradient with respect to one interaction input.
    grad: Vec<f32>,
}

/// What pooling a unit takes from the unit before it in its feature, decided
/// once per pass. Either way the pooled vector has the same bits as pooling
/// the unit afresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reuse {
    /// Nothing: look the list up and pool it.
    Fresh,
    /// The same list: copy that unit's pooled vector.
    Copy,
    /// Transformer: the list shifted by one ([`Shift`]), so the scores they
    /// share carry over.
    Shift,
}

impl Reuse {
    /// How [`ExecutionMode::Deduplicated`] pools `ids` after a unit of the
    /// same feature that pooled `previous`.
    fn plan(kind: PoolingKind, previous: &[u64], ids: &[u64]) -> Self {
        let len = ids.len();
        if ids == previous {
            Reuse::Copy
        } else if kind == PoolingKind::Transformer
            && len >= 2
            && previous.len() == len
            && previous[1..] == ids[..len - 1]
        {
            Reuse::Shift
        } else {
            Reuse::Fresh
        }
    }
}

/// What the workers' split prices pooling `len` ids at: a copy at nothing,
/// a shifted Transformer unit without the scores it takes over.
fn price(kind: PoolingKind, reuse: Reuse, len: usize, dim: usize) -> u64 {
    let full = kind.flops_per_row(len, dim);
    match reuse {
        Reuse::Fresh => full,
        Reuse::Copy => 0,
        Reuse::Shift => full - ((len - 1) * len * dim) as u64,
    }
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

/// Writes the bottom MLP's input for batch row `row` into `input`: the row of
/// the batch's dense matrix, zero-padded (or truncated) to `input`'s width.
fn dense_input(batch: &ConvertedBatch, row: usize, input: &mut [f32]) {
    let dense = &batch.dense;
    input.fill(0.0);
    if row < dense.rows() {
        let n = input.len().min(dense.cols());
        input[..n].copy_from_slice(&dense.row(row)[..n]);
    }
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
    /// Two phases run on one worker per entry of `ws.workers`, each worker
    /// over its own contiguous run: lookup + pooling, cut into runs of units
    /// of equal pooling cost, then the bottom MLP, the interaction and the
    /// top MLP, cut into equal blocks of rows. Every unit and row is computed
    /// exactly as one thread computes it, so the results do not depend on
    /// the worker count.
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
        let n_features = tables.len();

        // Lay every feature's units out one after another, point the rows at
        // them, plan what each unit reuses from the one before it, and price
        // it by the pooling FLOPs it then spends.
        ws.vectors.clear();
        ws.vectors.resize(dim, 0.0);
        ws.index.clear();
        ws.index.resize(rows * n_features, 0);
        let mut cost = 0;
        let mut longest = 0;
        ws.bases.clear();
        ws.costs.clear();
        ws.costs.push(cost);
        ws.reuse.clear();
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
                let ids = units.ids(unit);
                let reuse = match (mode, unit.checked_sub(1)) {
                    (ExecutionMode::Deduplicated, Some(previous)) => {
                        Reuse::plan(kind, units.ids(previous), ids)
                    }
                    _ => Reuse::Fresh,
                };
                stats.copied_units += usize::from(reuse == Reuse::Copy);
                if kind != PoolingKind::Sum {
                    longest = longest.max(ids.len());
                }
                cost += price(kind, reuse, ids.len(), dim);
                ws.costs.push(cost);
                ws.reuse.push(reuse);
            }
            for (r, offsets) in ws.index.chunks_exact_mut(n_features).enumerate() {
                if let Some(unit) = units.of_row(r) {
                    offsets[f] = base + unit * dim;
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

        // Look up and pool every unit, each worker over its share of the
        // cost.
        let workers = ws.workers.len();
        let costs = &ws.costs;
        let first = dim;
        let plan = &ws.reuse;
        let mut pooled = Runs::new(&mut ws.vectors[first..], dim);
        run_split(
            &mut ws.workers,
            |w| pooled.next(split(costs, w + 1, workers)),
            |(range, out), worker| {
                let Worker {
                    sequence,
                    pool,
                    stats,
                    ..
                } = worker;
                *stats = ForwardStats::default();
                let features = config.feature_pooling.iter().zip(tables.iter());
                for ((&(feature, kind), table), span) in features.zip(ws.bases.windows(2)) {
                    // The feature's units in the flat unit space, and the
                    // worker's share of them.
                    let own = (span[0] - first) / dim..(span[1] - first) / dim;
                    let (start, end) = (own.start.max(range.start), own.end.min(range.end));
                    let Some(units) = Units::locate(batch, feature, mode).filter(|_| start < end)
                    else {
                        continue;
                    };
                    for u in start..end {
                        let ids = units.ids(u - own.start);
                        stats.emb_lookups += ids.len() as u64;
                        stats.activation_values += ids.len() * dim;
                        stats.pooling_flops += kind.flops_per_row(ids.len(), dim);
                        stats.pooled_rows += 1;
                        // A reuse reads the unit before, which for the
                        // worker's first unit is another worker's: pool that
                        // one afresh.
                        let reuse = if u == start { Reuse::Fresh } else { plan[u] };
                        let at = (u - range.start) * dim;
                        if reuse == Reuse::Copy {
                            out.copy_within(at - dim..at, at);
                            continue;
                        }
                        let out = &mut out[at..at + dim];
                        if kind == PoolingKind::Sum {
                            // Fast path: fused lookup + sum.
                            table.lookup_pooled_into(ids, out);
                            continue;
                        }
                        if reuse == Reuse::Shift {
                            // The last sequence, its first row dropped and
                            // the new id's row appended.
                            sequence.copy_within(dim.., 0);
                            let last = sequence.len() - dim;
                            sequence[last..].copy_from_slice(table.lookup(ids[ids.len() - 1]));
                        } else {
                            table.lookup_sequence_into(ids, sequence);
                        }
                        // Keep the scores if the next unit this worker pools
                        // is shifted from this one.
                        let next = plan[u + 1..end].iter().find(|&&r| r != Reuse::Copy);
                        let shift = Shift {
                            from_kept: reuse == Reuse::Shift,
                            keep: next == Some(&Reuse::Shift),
                        };
                        pool_shifted(kind, sequence, dim, pool, out, shift);
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

        // The bottom MLP, the interaction and the top MLP, row by row: each
        // worker over an equal block of rows.
        bottom.resize(&mut ws.bottom, rows);
        top.resize(&mut ws.top, rows);
        let (bottom_width, top_width) = (bottom.width(), top.width());
        let (dense, bottom_out) = (bottom.in_dim(), bottom.output_column());
        let interaction = top.in_dim();
        let (vectors, index) = (&ws.vectors, &ws.index);
        let mut bottoms = Runs::new(&mut ws.bottom.values, bottom_width);
        let mut tops = Runs::new(&mut ws.top.values, top_width);
        run_split(
            &mut ws.workers,
            |w| {
                let end = rows * (w + 1) / workers;
                (bottoms.next(end), tops.next(end).1)
            },
            |((range, bottoms), tops), _| {
                let bottom_rows = bottoms.chunks_exact_mut(bottom_width);
                for (r, row) in range.clone().zip(bottom_rows) {
                    dense_input(batch, r, &mut row[..dense]);
                }
                bottom.forward_rows(bottoms);
                let rows = bottoms.chunks_exact(bottom_width);
                let rows = range.zip(rows).zip(tops.chunks_exact_mut(top_width));
                for ((r, bottom_row), top_row) in rows {
                    let offsets = &index[r * n_features..(r + 1) * n_features];
                    let out = &mut top_row[..interaction];
                    interaction_forward(&bottom_row[bottom_out..], vectors, offsets, dim, out);
                }
                top.forward_rows(tops);
            },
        );
        let pairs = (n_features + 1) * (n_features + 1) / 2;
        stats.mlp_flops += (bottom.flops() + top.flops()) * rows as u64;
        stats.mlp_flops += (rows * pairs) as u64 * dim as u64;
        ws.probs.clear();
        ws.probs
            .extend((0..rows).map(|r| sigmoid(ws.top.output(r)[0])));
        stats
    }

    /// One minibatch SGD step over a batch: forward, BCE loss, backward
    /// through the top MLP, the interaction, the bottom MLP, and the
    /// embedding tables of sum/mean-pooled features. Returns the mean loss.
    ///
    /// Every row's gradients are taken at the step's starting parameters and
    /// every parameter moves once, along their sum: an MLP weight by
    /// `Σ_r dY·X`, an embedding row by the sum over the units that looked it
    /// up, the rows sharing a dedup slot first summing their gradients
    /// through the inverse lookup.
    ///
    /// After the two forward phases, two more run on `ws.workers`: the
    /// backward of each row through the top MLP, the interaction and the
    /// bottom MLP, cut into equal blocks of rows, then the update, in which
    /// each worker takes an equal share of each MLP's output units and of
    /// the trained tables. Every sum runs in row order, whichever worker
    /// computes it, so the results do not depend on the worker count.
    ///
    /// Sequence pooling modules (attention/transformer) are forward-only in
    /// this reproduction; build the model with
    /// `DlrmConfig::from_schema(.., PoolingKind::Sum)` for end-to-end
    /// training experiments.
    pub fn train_step(&mut self, batch: &ConvertedBatch, mode: ExecutionMode) -> f32 {
        self.forward_pass(batch, mode);
        let Self {
            config,
            bottom,
            top,
            tables,
            ws,
        } = self;
        let Workspace {
            bottom: bottom_acts,
            top: top_acts,
            vectors,
            index,
            bases,
            workers,
            probs,
            unit_grads,
            ..
        } = ws;
        let lr = config.learning_rate;
        let dim = config.embedding_dim;
        let rows = batch.batch_size;
        let batch_size = rows.max(1) as f32;
        let n_features = tables.len();
        let n_workers = workers.len();
        let losses = probs.iter().zip(&batch.labels);
        let total_loss: f32 = losses.map(|(&p, &label)| bce_loss(p, label)).sum();

        // Backward through the top MLP, the interaction and the bottom MLP,
        // row by row. The interaction's backward here is the bottom
        // vector's; the pooled vectors' is the tables' part of the update.
        let (bottom_width, top_width) = (bottom.width(), top.width());
        let (bottom_out, logit) = (bottom.output_column(), top.output_column());
        let interaction = top.in_dim();
        let (top_values, bottom_values) = (&top_acts.values, &bottom_acts.values);
        let mut tops = Runs::new(&mut top_acts.grads, top_width);
        let mut bottoms = Runs::new(&mut bottom_acts.grads, bottom_width);
        for worker in workers.iter_mut() {
            worker.inputs.resize((n_features + 2) * dim, 0.0);
            worker.coeffs.resize(n_features + 2, 0.0);
            worker.grad.resize(dim, 0.0);
        }
        run_split(
            workers,
            |w| {
                let end = rows * (w + 1) / n_workers;
                (tops.next(end), bottoms.next(end).1)
            },
            |((range, tops), bottoms), worker| {
                for (r, row) in range.clone().zip(tops.chunks_exact_mut(top_width)) {
                    // dL/dlogit for sigmoid + BCE, averaged over the batch.
                    row[logit..].fill(0.0);
                    row[logit] = (probs[r] - batch.labels[r]) / batch_size;
                }
                let (from, to) = (range.start, range.end);
                top.backward_rows(&top_values[from * top_width..to * top_width], tops, true);
                let rows = range.clone().zip(tops.chunks_exact(top_width));
                for ((r, grads), out) in rows.zip(bottoms.chunks_exact_mut(bottom_width)) {
                    let bottom_vector = &bottom_values[r * bottom_width + bottom_out..];
                    let offsets = &index[r * n_features..(r + 1) * n_features];
                    let grads = &grads[..interaction];
                    let inputs = &mut worker.inputs;
                    gather_inputs(bottom_vector, vectors, offsets, dim, grads, inputs);
                    let coeffs = &mut worker.coeffs;
                    interaction_backward(0, inputs, grads, dim, coeffs, &mut out[bottom_out..]);
                }
                let values = &bottom_values[from * bottom_width..to * bottom_width];
                bottom.backward_rows(values, bottoms, false);
            },
        );

        // The update: each worker moves its share of each MLP's output units
        // and of the trained tables.
        let trained = |f: usize| trains(config.feature_pooling[f].1);
        let n_trained = (0..n_features).filter(|&f| trained(f)).count();
        let table_split = |w: usize| {
            let share = n_trained * w / n_workers;
            let mut seen = 0;
            (0..n_features)
                .find(|&f| {
                    seen += usize::from(trained(f));
                    seen > share
                })
                .unwrap_or(n_features)
        };
        unit_grads.resize(vectors.len(), 0.0);
        let (top_update, top_params) = top.update();
        let (bottom_update, bottom_params) = bottom.update();
        let mut top_runs = Runs::new(top_params, 1);
        let mut bottom_runs = Runs::new(bottom_params, 1);
        let mut table_runs = Runs::new(tables, 1);
        // Every feature's units, each worker's from its first feature's base.
        let mut grad_runs = Runs::new(&mut unit_grads[dim..], 1);
        let (top_acts, bottom_acts) = (&*top_acts, &*bottom_acts);
        run_split(
            workers,
            |w| {
                let units =
                    |update: &MlpUpdate| update.split(w, n_workers)..update.split(w + 1, n_workers);
                let (top_units, bottom_units) = (units(&top_update), units(&bottom_update));
                let top = top_runs.next(top_update.offset(top_units.end)).1;
                let bottom = bottom_runs.next(bottom_update.offset(bottom_units.end)).1;
                let end = match w + 1 {
                    last if last == n_workers => n_features,
                    next => table_split(next),
                };
                let (features, tables) = table_runs.next(end);
                let (_, grads) = grad_runs.next(bases[end] - dim);
                (
                    (top_units, top),
                    (bottom_units, bottom),
                    (features, tables, grads),
                )
            },
            |((top_units, top), (bottom_units, bottom), (features, tables, grads)), worker| {
                top_update.apply(top_units, top, top_acts, lr);
                bottom_update.apply(bottom_units, bottom, bottom_acts, lr);
                // Every row's gradient for each of its units, summed in row
                // order; the row's inputs stay in cache across the features.
                let base = bases[features.start];
                grads.fill(0.0);
                for r in 0..rows {
                    let offsets = &index[r * n_features..(r + 1) * n_features];
                    let bottom_vector = &bottom_acts.values[r * bottom_width + bottom_out..];
                    let grad_out = &top_acts.grads[r * top_width..][..interaction];
                    let Worker {
                        inputs,
                        coeffs,
                        grad,
                        ..
                    } = &mut *worker;
                    gather_inputs(bottom_vector, vectors, offsets, dim, grad_out, inputs);
                    for f in features.clone() {
                        // Offset 0 is the zero row: the row has no unit.
                        if !trained(f) || offsets[f] == 0 {
                            continue;
                        }
                        interaction_backward(f + 1, inputs, grad_out, dim, coeffs, grad);
                        let at = offsets[f] - base;
                        axpy(&mut grads[at..at + dim], 1.0, grad);
                    }
                }
                for (f, table) in features.zip(tables) {
                    let (feature, kind) = config.feature_pooling[f];
                    let Some(units) = Units::locate(batch, feature, mode).filter(|_| trains(kind))
                    else {
                        continue;
                    };
                    let grads = grads[bases[f] - base..].chunks_exact(dim);
                    for (unit, grad) in grads.take(units.count()).enumerate() {
                        let ids = units.ids(unit);
                        let rate = match kind {
                            PoolingKind::Mean => lr / ids.len().max(1) as f32,
                            _ => lr,
                        };
                        table.apply_pooled_gradient(ids, grad, rate);
                    }
                }
            },
        );
        total_loss / batch_size
    }
}

/// Where worker `w` of `workers` starts pooling: at the first unit with
/// `w / workers` of the total cost before it, `costs` holding the cost
/// before each unit and then the total.
fn split(costs: &[u64], w: usize, workers: usize) -> usize {
    let units = costs.len() - 1;
    if w == workers {
        return units;
    }
    let share = u128::from(costs[units]) * w as u128;
    let before = |&c: &u64| u128::from(c) * (workers as u128) < share;
    costs.partition_point(before)
}

/// Runs `work(part, worker)` for every worker on its part of a phase, which
/// `parts(w)` cuts for worker `w` — called on the calling thread, in worker
/// order. The last worker works on the calling thread and the others on
/// scoped threads; a lone worker starts no thread at all (a scope alone
/// allocates).
fn run_split<P: Send>(
    workers: &mut [Worker],
    mut parts: impl FnMut(usize) -> P,
    work: impl Fn(P, &mut Worker) + Sync,
) {
    let (own, helpers) = workers.split_last_mut().expect("a model has a worker");
    if helpers.is_empty() {
        return work(parts(0), own);
    }
    let last = helpers.len();
    std::thread::scope(|scope| {
        for (w, worker) in helpers.iter_mut().enumerate() {
            let part = parts(w);
            let work = &work;
            scope.spawn(move || work(part, worker));
        }
        work(parts(last), own);
    });
}

/// Cuts a buffer of `width`-wide items into consecutive runs, front to back.
struct Runs<'a, T> {
    rest: &'a mut [T],
    start: usize,
    width: usize,
}

impl<'a, T> Runs<'a, T> {
    fn new(buffer: &'a mut [T], width: usize) -> Self {
        Self {
            rest: buffer,
            start: 0,
            width,
        }
    }

    /// The items from where the last run ended to item `end` (at most the
    /// last item), and their run of the buffer.
    fn next(&mut self, end: usize) -> (Range<usize>, &'a mut [T]) {
        let count = self.start + self.rest.len() / self.width;
        let end = end.clamp(self.start, count);
        let (run, rest) =
            std::mem::take(&mut self.rest).split_at_mut((end - self.start) * self.width);
        self.rest = rest;
        (std::mem::replace(&mut self.start, end)..end, run)
    }
}

/// The `m`-th interaction input of a row: `first` for 0, else the pooled
/// vector at `offsets[m - 1]` in `vectors`.
fn input<'a>(
    m: usize,
    first: &'a [f32],
    vectors: &'a [f32],
    offsets: &[usize],
    dim: usize,
) -> &'a [f32] {
    match m {
        0 => &first[..dim],
        _ => &vectors[offsets[m - 1]..offsets[m - 1] + dim],
    }
}

/// DLRM pairwise-dot interaction of one row: its first input, then the dot
/// products of every pair of its inputs — `first`, then the `dim`-wide
/// pooled vectors `offsets` locates in `vectors`.
fn interaction_forward(
    first: &[f32],
    vectors: &[f32],
    offsets: &[usize],
    dim: usize,
    out: &mut [f32],
) {
    let n = offsets.len() + 1;
    let vector = |m: usize| input(m, first, vectors, offsets, dim);
    out[..dim].copy_from_slice(vector(0));
    let mut pairs = out[dim..].iter_mut();
    for i in 0..n {
        for (j, pair) in (i + 1..n).zip(&mut pairs) {
            *pair = dot(vector(i), vector(j));
        }
    }
}

/// Lays one row's interaction backward out for [`interaction_backward`]:
/// the pass-through part of `grad_output`, then the row's inputs — `first`,
/// then the pooled vectors `offsets` locates in `vectors` — as the `dim`-wide
/// rows of `inputs`.
fn gather_inputs(
    first: &[f32],
    vectors: &[f32],
    offsets: &[usize],
    dim: usize,
    grad_output: &[f32],
    inputs: &mut [f32],
) {
    let mut rows = inputs.chunks_exact_mut(dim);
    for (m, row) in (0..=offsets.len() + 1).zip(&mut rows) {
        row.copy_from_slice(match m {
            0 => &grad_output[..dim],
            _ => input(m - 1, first, vectors, offsets, dim),
        });
    }
}

/// Backward of [`interaction_forward`] for one of a row's inputs, `k`, over
/// the row's [`gather_inputs`]: writes the gradient with respect to it into
/// `out` — the pass-through part for the first input, then one term per pair
/// it is in, in input order — as one [`vecmat`] over `inputs` (its own row's
/// coefficient is zero). `coeffs` is scratch, one entry per row of `inputs`.
fn interaction_backward(
    k: usize,
    inputs: &[f32],
    grad_output: &[f32],
    dim: usize,
    coeffs: &mut [f32],
    out: &mut [f32],
) {
    let n = inputs.len() / dim - 1;
    // Pair (i, j), i < j, is output i·(2n − i − 1)/2 + j − i − 1 after the
    // first input: `k`'s pairs with later inputs are consecutive outputs, and
    // its pair with input `m + 1` comes `n − m − 2` after its pair with `m`.
    let pair = |i: usize, j: usize| dim + i * (2 * n - i - 1) / 2 + j - i - 1;
    let (before, rest) = coeffs[..=n].split_at_mut(k + 1);
    before[0] = if k == 0 { 1.0 } else { 0.0 };
    let mut at = pair(0, k.max(1));
    for (m, c) in before[1..].iter_mut().enumerate() {
        *c = grad_output[at];
        at += n - m - 2;
    }
    let (own, after) = rest.split_first_mut().expect("k is an input");
    *own = 0.0;
    let later = pair(k, k + 1);
    after.copy_from_slice(&grad_output[later..later + after.len()]);
    vecmat(&coeffs[..=n], inputs, dim, out);
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

    /// Every input's gradient of one row's interaction at once, pair by pair
    /// in the forward pass's order: the reference [`interaction_backward`]
    /// must match bit for bit, one input at a time.
    fn interaction_backward_all(
        first: &[f32],
        vectors: &[f32],
        offsets: &[usize],
        dim: usize,
        grad_output: &[f32],
        grads: &mut [f32],
    ) {
        let vector = |m: usize| input(m, first, vectors, offsets, dim);
        grads.fill(0.0);
        grads[..dim].copy_from_slice(&grad_output[..dim]);
        let mut pairs = grad_output[dim..].iter();
        for i in 0..=offsets.len() {
            let (head, tail) = grads.split_at_mut((i + 1) * dim);
            let grad_a = &mut head[i * dim..];
            for ((j, grad_b), &g) in (i + 1..).zip(tail.chunks_exact_mut(dim)).zip(&mut pairs) {
                axpy(grad_a, g, vector(j));
                axpy(grad_b, g, vector(i));
            }
        }
    }

    #[test]
    fn interaction_backward_matches_the_all_gradients_loop() {
        let (schema, batch) = rm1_batch(64);
        let config = mixed_config(&schema);
        let mut model = Dlrm::new(config.clone());
        model.forward_pass(&batch, ExecutionMode::Deduplicated);
        let ws = &model.ws;
        let n_features = config.feature_pooling.len();
        let (width, first) = (model.bottom.width(), model.bottom.output_column());
        let grad_output: Vec<f32> = (0..model.top.in_dim())
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let mut want = vec![f32::NAN; (n_features + 1) * 8];
        let (mut inputs, mut coeffs) = (
            vec![f32::NAN; (n_features + 2) * 8],
            vec![0.0; n_features + 2],
        );
        let mut got = [f32::NAN; 8];
        let bits = |grad: &[f32]| grad.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        for (r, offsets) in ws.index.chunks_exact(n_features).enumerate() {
            let bottom = &ws.bottom.values[r * width + first..];
            interaction_backward_all(bottom, &ws.vectors, offsets, 8, &grad_output, &mut want);
            gather_inputs(bottom, &ws.vectors, offsets, 8, &grad_output, &mut inputs);
            for (k, want) in want.chunks_exact(8).enumerate() {
                interaction_backward(k, &inputs, &grad_output, 8, &mut coeffs, &mut got);
                assert_eq!(bits(&got), bits(want), "row {r}, input {k}");
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
    /// probabilities, ten training losses, the probabilities the trained
    /// model predicts (so every MLP weight counts too), then every embedding
    /// row — and the forward pass's work counters.
    fn run_bits(
        model: &mut Dlrm,
        batch: &ConvertedBatch,
        mode: ExecutionMode,
    ) -> (Vec<u32>, ForwardStats) {
        let (probs, stats) = model.forward(batch, mode);
        let mut bits: Vec<u32> = probs.iter().map(|p| p.to_bits()).collect();
        bits.extend((0..10).map(|_| model.train_step(batch, mode).to_bits()));
        let (trained, _) = model.forward(batch, mode);
        bits.extend(trained.iter().map(|p| p.to_bits()));
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
        // A worker whose range starts on a copied or a shifted unit pools it
        // afresh: the RM1 batch puts boundaries on both.
        let mut landed = Vec::new();
        for workers in [2, 3, 8] {
            let mut model = on_workers(&mixed_config(&rm1_schema), workers);
            model.forward_pass(&rm1, ExecutionMode::Deduplicated);
            let ws = &model.ws;
            let starts = (1..workers).map(|w| split(&ws.costs, w, workers));
            landed.extend(starts.filter_map(|u| ws.reuse.get(u).copied()));
        }
        assert!(landed.contains(&Reuse::Copy), "{landed:?}");
        assert!(landed.contains(&Reuse::Shift), "{landed:?}");
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

    /// Deduplicated mode copies a unit whose list repeats the previous
    /// one's and carries a shifted history's scores over; Baseline mode pools
    /// every unit afresh. In a KJT feature both modes have one unit per row,
    /// so every pooled vector must match, bit for bit, on any worker count.
    /// The tables are moved to unit scale first: at their initial ±0.01 the
    /// attention term sits below a pooled vector's last bit, and a wrong
    /// score would not show.
    #[test]
    fn copied_and_shifted_units_pool_to_the_bits_of_pooling_afresh() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let rows = 24;
        for kind in [
            PoolingKind::Sum,
            PoolingKind::Attention,
            PoolingKind::Transformer,
        ] {
            for (len, dim) in [(1, 8), (2, 13), (7, 1), (64, 64)] {
                // Each list after the first repeats the one before it,
                // shifts it by one, replaces its ids, or drops its first id
                // (a shorter list, which is not a shift).
                let mut lists: Vec<Vec<u64>> = vec![(0..len as u64).collect()];
                for r in 1..rows {
                    let mut list = lists[r - 1].clone();
                    match r % 4 {
                        0 => {}
                        1 => {
                            list.remove(0);
                            list.push(rng.gen_range(0..1000));
                        }
                        2 => list.iter_mut().for_each(|id| *id = rng.gen_range(0..1000)),
                        _ if list.len() > 1 => {
                            list.remove(0);
                        }
                        _ => {}
                    }
                    lists.push(list);
                }
                let feature = FeatureId::new(0);
                let batch = ConvertedBatch {
                    batch_size: rows,
                    labels: vec![0.0; rows],
                    dense: recd_core::DenseMatrix::zeros(rows, 1),
                    kjt: KeyedJaggedTensor::from_tensors(vec![(
                        feature,
                        JaggedTensor::from_lists(&lists),
                    )])
                    .unwrap(),
                    ikjts: Vec::new(),
                };
                let config = DlrmConfig {
                    dense_features: 1,
                    embedding_dim: dim,
                    hash_buckets: 64,
                    bottom_mlp: vec![dim],
                    top_mlp: vec![1],
                    sequence_pooling: kind,
                    feature_pooling: vec![(feature, kind)],
                    learning_rate: 0.05,
                    seed: 5,
                };
                let scale: Vec<f32> = (0..64 * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut want = None;
                for workers in [1, 2, 3, 8] {
                    let mut model = on_workers(&config, workers);
                    for (id, grad) in scale.chunks_exact(dim).enumerate() {
                        model.tables[0].apply_pooled_gradient(&[id as u64], grad, -1.0);
                    }
                    let mut pooled = |mode| {
                        model.forward_pass(&batch, mode);
                        let bits = model.ws.vectors.iter().map(|v| v.to_bits());
                        bits.collect::<Vec<_>>()
                    };
                    let fresh = pooled(ExecutionMode::Baseline);
                    let reused = pooled(ExecutionMode::Deduplicated);
                    let what = format!("{kind:?} {len}x{dim} on {workers} workers");
                    assert!(reused == fresh, "{what}");
                    assert_eq!(*want.get_or_insert(fresh.clone()), fresh, "{what}");
                    let plan = &model.ws.reuse;
                    assert!(plan.contains(&Reuse::Copy), "{what}");
                    let shifts = kind == PoolingKind::Transformer && len >= 2;
                    assert_eq!(plan.contains(&Reuse::Shift), shifts, "{what}");
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
        let config = DlrmConfig::from_schema(&schema, 8, PoolingKind::Sum);
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
        let wide = DlrmConfig::from_schema(&schema, 64, PoolingKind::Transformer);
        assert_eq!(wide.embedding_dim, 64);
        assert_eq!(*wide.bottom_mlp.last().unwrap(), 64);
        let summed = DlrmConfig::from_schema(&schema, 32, PoolingKind::Sum);
        assert!(summed
            .feature_pooling
            .iter()
            .all(|&(_, k)| k == PoolingKind::Sum));
    }

    #[test]
    fn interaction_backward_matches_numerical_gradient() {
        // Inputs a, b, c of dimension 3: a first, then b and c pooled into
        // one buffer, b last to show the offsets, not the storage order,
        // name the inputs.
        let vectors = [0.3f32, -0.2, 0.5, -0.7, 0.2, 0.9, 1.0, 0.1, -0.4];
        let offsets = [6, 3];
        let forward = |vectors: &[f32]| {
            let mut out = [0.0f32; 6];
            interaction_forward(&vectors[..3], vectors, &offsets, 3, &mut out);
            out
        };
        let out = forward(&vectors);
        assert_eq!(out[..3], vectors[..3]);
        assert!((out[3] - (0.3 - 0.02 - 0.2)).abs() < 1e-6, "a.b first");
        let grad_out: Vec<f32> = (0..out.len()).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let (mut inputs, mut coeffs, mut grad) = ([f32::NAN; 12], [f32::NAN; 4], [f32::NAN; 3]);
        gather_inputs(&vectors[..3], &vectors, &offsets, 3, &grad_out, &mut inputs);
        interaction_backward(1, &inputs, &grad_out, 3, &mut coeffs, &mut grad);

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
        assert!((grad[1] - numerical).abs() < 1e-2);
    }
}
