//! InverseKeyedJaggedTensor: RecD's deduplicated sparse-feature container
//! (paper §4.2).

use crate::jagged::JaggedTensor;
use crate::kjt::KeyedJaggedTensor;
use crate::select::jagged_index_select;
use crate::{CoreError, Result};
use recd_codec::Hasher64;
use recd_data::{ColumnarBatch, FeatureId, RowRuns};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Sentinel marking an unoccupied [`DedupTable`] bucket.
const EMPTY_SLOT: usize = usize::MAX;

/// Reusable scratch buffers for batch deduplication: the per-row hashers
/// and digests plus the open-addressing table's storage, and the buffers a
/// [`FeatureConverter`](crate::FeatureConverter) parks while a dedup group
/// ships in the other form. A compute worker holds one `DedupScratch` for
/// its whole lifetime, so steady-state conversion allocates nothing beyond
/// buffer growth, even when a group flips between IKJT and KJT.
#[derive(Debug, Default, Clone)]
pub struct DedupScratch {
    probes: Vec<usize>,
    hashers: Vec<Hasher64>,
    digests: Vec<u64>,
    table_digests: Vec<u64>,
    table_slots: Vec<usize>,
    /// This batch's KJT keys: the configured KJT features, then every
    /// fallen-back group's.
    pub(crate) kjt_keys: Vec<FeatureId>,
    /// KJT tensors of features whose group is an IKJT this batch, keyed so
    /// each buffer goes back to the feature it held.
    pub(crate) spare_tensors: Vec<(FeatureId, JaggedTensor<u64>)>,
    /// IKJTs of groups that ship as KJT this batch, or that a recycled
    /// shell brought in.
    pub(crate) spare_ikjts: Vec<InverseKeyedJaggedTensor>,
}

/// Mixes one grouped feature's row into that row's digest: its length, then
/// its values. A group's row digest mixes its features' rows in group order
/// — the one format the dedup table and the converter's form judge read.
fn mix_row(hasher: &mut Hasher64, values: &[u64]) {
    hasher.mix_u64(values.len() as u64);
    for &v in values {
        hasher.mix_u64(v);
    }
}

/// The distinct group tuples among the first `N` rows of `rows` (which
/// hold at least `N` rows and every grouped feature), counted by row digest
/// in place. A digest collision merges two rows, so the count is never
/// above the true one.
pub(crate) fn distinct_prefix_rows<const N: usize, B: Borrow<ColumnarBatch>>(
    rows: &RowRuns<B>,
    group: &[FeatureId],
) -> usize {
    let mut digests = [0u64; N];
    for (row, digest) in digests.iter_mut().enumerate() {
        let mut hasher = Hasher64::new();
        for feature in group {
            mix_row(&mut hasher, rows.sparse_row(feature.index(), row));
        }
        *digest = hasher.finish();
    }
    digests.sort_unstable();
    1 + digests.windows(2).filter(|w| w[0] != w[1]).count()
}

/// A flat open-addressing `(digest, slot)` table sized once per batch, over
/// storage borrowed from a [`DedupScratch`].
///
/// This replaces the previous `HashMap<u64, Vec<usize>>` candidate index: no
/// per-digest `Vec` is ever allocated, probing is a linear scan over one
/// contiguous buffer, and because the table is sized to twice the row count
/// up front it never rehashes. Digest collisions are harmless: every
/// candidate is confirmed with a full row-equality check, and a failed check
/// simply continues the probe.
struct DedupTable<'a> {
    digests: &'a mut [u64],
    slots: &'a mut [usize],
    mask: usize,
}

impl<'a> DedupTable<'a> {
    /// Resets the borrowed scratch storage with room for `rows` insertions
    /// at ≤50% load.
    fn for_rows(digests: &'a mut Vec<u64>, slots: &'a mut Vec<usize>, rows: usize) -> Self {
        let capacity = rows.saturating_mul(2).next_power_of_two().max(8);
        digests.clear();
        digests.resize(capacity, 0);
        slots.clear();
        slots.resize(capacity, EMPTY_SLOT);
        Self {
            digests,
            slots,
            mask: capacity - 1,
        }
    }

    /// Probes for a slot whose digest matches and whose content
    /// `rows_equal` confirms. On a hit, returns `Some(existing_slot)`; on a
    /// miss, records `(digest, new_slot)` in the probed bucket and returns
    /// `None`.
    fn find_or_insert(
        &mut self,
        digest: u64,
        new_slot: usize,
        mut rows_equal: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut idx = (digest as usize) & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot == EMPTY_SLOT {
                self.digests[idx] = digest;
                self.slots[idx] = new_slot;
                return None;
            }
            if self.digests[idx] == digest && rows_equal(slot) {
                return Some(slot);
            }
            idx = (idx + 1) & self.mask;
        }
    }
}

/// A grouped, deduplicated sparse-feature container.
///
/// Where a [`KeyedJaggedTensor`] stores one jagged row per *sample*, an
/// `InverseKeyedJaggedTensor` stores one jagged row per *deduplicated slot*
/// and a shared `inverse_lookup` slice with one entry per sample pointing at
/// that sample's slot. Exact duplicate rows therefore pay for their values
/// exactly once per batch.
///
/// All features grouped into one IKJT share the same `inverse_lookup`
/// (the paper's "grouped IKJT" design): a sample only reuses an existing slot
/// when *every* feature in the group matches that slot, which is what makes
/// deduplicated compute (O7) sound.
///
/// A slot tensor may be windowed ([`InverseKeyedJaggedTensor::pack_windows`]):
/// readers go through [`JaggedTensor::row`], which reads either form.
///
/// # Example
///
/// ```
/// use recd_core::{InverseKeyedJaggedTensor, KeyedJaggedTensor, JaggedTensor};
/// use recd_data::FeatureId;
///
/// let f = FeatureId::new(0);
/// let kjt = KeyedJaggedTensor::from_tensors(vec![(
///     f,
///     JaggedTensor::from_lists(&[vec![3u64, 4, 5], vec![4, 5, 6], vec![3, 4, 5]]),
/// )])?;
/// let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f])?;
/// assert_eq!(ikjt.slot_count(), 2);
/// assert_eq!(ikjt.inverse_lookup(), &[0, 1, 0]);
/// assert_eq!(ikjt.to_kjt()?, kjt); // lossless
/// # Ok::<(), recd_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InverseKeyedJaggedTensor {
    keys: Vec<FeatureId>,
    tensors: Vec<JaggedTensor<u64>>,
    inverse_lookup: Vec<usize>,
    batch_size: usize,
}

impl InverseKeyedJaggedTensor {
    /// Deduplicates the listed feature group out of an existing KJT.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeature`] if a grouped feature is missing
    /// from the KJT.
    pub fn dedup_from_kjt(kjt: &KeyedJaggedTensor, group: &[FeatureId]) -> Result<Self> {
        let tensors: Vec<&JaggedTensor<u64>> = group
            .iter()
            .map(|&key| kjt.feature_required(key))
            .collect::<Result<_>>()?;
        let mut out = Self::default();
        Self::dedup_core_into(
            group,
            kjt.batch_size(),
            |fi, row| tensors[fi].row(row),
            |probes| probes.extend(0..kjt.batch_size()),
            &mut DedupScratch::default(),
            &mut out,
        );
        Ok(out)
    }

    /// Deduplicates the listed feature group straight off a columnar batch's
    /// sparse columns — the fill→convert hot path. Row views are slices
    /// into the batch's contiguous value buffers, so no per-row data is
    /// materialized at any point.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingSparseFeature`] if the batch carries
    /// fewer sparse columns than a grouped feature's index.
    pub fn dedup_from_columnar(batch: &ColumnarBatch, group: &[FeatureId]) -> Result<Self> {
        let mut out = Self::default();
        let rows = [(batch, 0..batch.len())];
        Self::dedup_from_runs_into(
            &RowRuns::new(&rows),
            group,
            &mut DedupScratch::default(),
            &mut out,
        )?;
        Ok(out)
    }

    /// Deduplicates a feature group off a view's rows, read in place, into
    /// a recycled IKJT — what the streaming compute workers run with a
    /// long-lived [`DedupScratch`].
    ///
    /// # Errors
    ///
    /// Same error conditions as
    /// [`InverseKeyedJaggedTensor::dedup_from_columnar`]; on error `out` is
    /// untouched.
    pub fn dedup_from_runs_into<B: Borrow<ColumnarBatch>>(
        rows: &RowRuns<B>,
        group: &[FeatureId],
        scratch: &mut DedupScratch,
        out: &mut Self,
    ) -> Result<()> {
        // Validate up front so the row view can index the columns directly.
        if let Some(&feature) = group.iter().find(|key| key.index() >= rows.sparse_cols()) {
            return Err(CoreError::MissingSparseFeature {
                feature,
                available: rows.sparse_cols(),
            });
        }
        Self::dedup_core_into(
            group,
            rows.row_count(),
            |fi, row| rows.sparse_row(group[fi].index(), row),
            |probes| rows.unmarked_rows(group, probes),
            scratch,
            out,
        );
        Ok(())
    }

    /// Precomputes one digest per probing row over the whole feature group,
    /// then assigns slots through a flat [`DedupTable`], writing the result
    /// into `out` whose buffers (slot tensors, inverse lookup) are reused.
    ///
    /// `probing` lists the rows that probe, in order, row 0 first. A row it
    /// leaves out equals the row before it in every grouped feature, so it
    /// takes that row's slot with no digest, no probe and no table entry —
    /// the slot the probe would have found, since slots hold distinct rows.
    /// The table is sized for the probing rows alone.
    ///
    /// Digests are accumulated feature-major (one sequential sweep per
    /// feature over its contiguous values) and memoized across the group, so
    /// each value is hashed exactly once regardless of how many candidate
    /// comparisons a row later participates in. The hash order per row is
    /// identical to the old row-major loop (group order, length then
    /// values), so digests — and therefore slot assignment order — are
    /// unchanged.
    fn dedup_core_into<'a>(
        group: &[FeatureId],
        batch_size: usize,
        row_view: impl Fn(usize, usize) -> &'a [u64],
        probing: impl FnOnce(&mut Vec<usize>),
        scratch: &mut DedupScratch,
        out: &mut Self,
    ) {
        let DedupScratch {
            probes,
            hashers,
            digests,
            table_digests,
            table_slots,
            ..
        } = scratch;

        probes.clear();
        probing(probes);
        hashers.clear();
        hashers.resize(probes.len(), Hasher64::new());
        for fi in 0..group.len() {
            for (&row, hasher) in probes.iter().zip(hashers.iter_mut()) {
                mix_row(hasher, row_view(fi, row));
            }
        }
        digests.clear();
        digests.extend(hashers.iter().map(Hasher64::finish));

        let Self {
            keys,
            tensors: slot_tensors,
            inverse_lookup,
            batch_size: out_batch_size,
        } = out;
        keys.clear();
        keys.extend_from_slice(group);
        slot_tensors.truncate(group.len());
        for tensor in slot_tensors.iter_mut() {
            tensor.clear();
        }
        slot_tensors.resize_with(group.len(), JaggedTensor::new);
        inverse_lookup.clear();
        inverse_lookup.reserve(batch_size);
        *out_batch_size = batch_size;

        let mut table = DedupTable::for_rows(table_digests, table_slots, digests.len());
        for (&row, &digest) in probes.iter().zip(digests.iter()) {
            // The rows skipped since the last probe repeat their
            // predecessors: each takes the slot before it.
            while inverse_lookup.len() < row {
                inverse_lookup.push(inverse_lookup[inverse_lookup.len() - 1]);
            }
            let next_slot = slot_tensors
                .first()
                .map(JaggedTensor::row_count)
                .unwrap_or(0);
            let matched = table.find_or_insert(digest, next_slot, |slot| {
                (0..group.len()).all(|fi| slot_tensors[fi].row(slot) == row_view(fi, row))
            });
            match matched {
                Some(slot) => inverse_lookup.push(slot),
                None => {
                    for (fi, tensor) in slot_tensors.iter_mut().enumerate() {
                        tensor.push_row(row_view(fi, row));
                    }
                    inverse_lookup.push(next_slot);
                }
            }
        }
        while inverse_lookup.len() < batch_size {
            inverse_lookup.push(inverse_lookup[inverse_lookup.len() - 1]);
        }
    }

    /// Creates an IKJT from raw parts, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns an error if the per-feature tensors disagree on slot count or
    /// an `inverse_lookup` entry references a non-existent slot.
    pub fn from_parts(
        keys: Vec<FeatureId>,
        tensors: Vec<JaggedTensor<u64>>,
        inverse_lookup: Vec<usize>,
    ) -> Result<Self> {
        if keys.len() != tensors.len() {
            return Err(CoreError::GroupInvariantViolation {
                reason: format!("{} keys but {} tensors", keys.len(), tensors.len()),
            });
        }
        let batch_size = inverse_lookup.len();
        let ikjt = Self {
            keys,
            tensors,
            inverse_lookup,
            batch_size,
        };
        ikjt.check_invariants()?;
        Ok(ikjt)
    }

    /// Validates the shared-inverse-lookup invariant: every feature tensor
    /// has the same slot count and every lookup entry is in range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GroupInvariantViolation`] or
    /// [`CoreError::InvalidInverseLookup`] describing the violation.
    pub fn check_invariants(&self) -> Result<()> {
        let slots = self.slot_count();
        for (key, tensor) in self.keys.iter().zip(&self.tensors) {
            if tensor.row_count() != slots {
                return Err(CoreError::GroupInvariantViolation {
                    reason: format!(
                        "feature {key} has {} slots but the group has {slots}",
                        tensor.row_count()
                    ),
                });
            }
        }
        for (row, &slot) in self.inverse_lookup.iter().enumerate() {
            if slot >= slots {
                return Err(CoreError::InvalidInverseLookup { row, slot, slots });
            }
        }
        Ok(())
    }

    /// Feature keys in the group, in configuration order.
    pub fn keys(&self) -> &[FeatureId] {
        &self.keys
    }

    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of deduplicated slots shared by the group.
    pub fn slot_count(&self) -> usize {
        self.tensors
            .first()
            .map(JaggedTensor::row_count)
            .unwrap_or(0)
    }

    /// The shared inverse lookup: `inverse_lookup()[row]` is the slot holding
    /// that row's values for every feature in the group.
    pub fn inverse_lookup(&self) -> &[usize] {
        &self.inverse_lookup
    }

    /// Deduplicated jagged tensor for one feature (rows are slots).
    pub fn feature(&self, key: FeatureId) -> Option<&JaggedTensor<u64>> {
        self.keys
            .iter()
            .position(|&k| k == key)
            .map(|i| &self.tensors[i])
    }

    /// Deduplicated jagged tensor for one feature, or an error if absent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeature`] if the feature is not in the
    /// group.
    pub fn feature_required(&self, key: FeatureId) -> Result<&JaggedTensor<u64>> {
        self.feature(key)
            .ok_or(CoreError::UnknownFeature { feature: key })
    }

    /// Iterates over `(feature, deduplicated tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, &JaggedTensor<u64>)> {
        self.keys.iter().copied().zip(self.tensors.iter())
    }

    /// Iterates over `(feature, deduplicated tensor)` pairs with mutable
    /// tensor access — the view the O4 wrapper writes through to transform
    /// each feature once per slot.
    ///
    /// The caller must preserve each tensor's row (slot) count so the shared
    /// `inverse_lookup` stays valid; every shipped transform does, since
    /// preprocessing maps rows to rows.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FeatureId, &mut JaggedTensor<u64>)> {
        self.keys.iter().copied().zip(self.tensors.iter_mut())
    }

    /// The logical (pre-deduplication) value for `key` at batch row `row`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeature`] for a feature outside the group
    /// or [`CoreError::IndexOutOfRange`] for a row outside the batch.
    pub fn row(&self, key: FeatureId, row: usize) -> Result<&[u64]> {
        if row >= self.batch_size {
            return Err(CoreError::IndexOutOfRange {
                index: row,
                rows: self.batch_size,
            });
        }
        let tensor = self.feature_required(key)?;
        Ok(tensor.row(self.inverse_lookup[row]))
    }

    /// Number of values stored after deduplication (all features); a
    /// windowed slot tensor counts its shared pool once.
    pub fn dedup_value_count(&self) -> usize {
        self.tensors.iter().map(JaggedTensor::value_count).sum()
    }

    /// Number of values the equivalent KJT would store (all features).
    pub fn original_value_count(&self) -> usize {
        self.keys
            .iter()
            .zip(&self.tensors)
            .map(|(_, tensor)| {
                self.inverse_lookup
                    .iter()
                    .map(|&slot| tensor.row_len(slot))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Measured deduplication factor for this batch: original values divided
    /// by deduplicated values. Returns 1.0 when the group stores no values.
    pub fn dedupe_factor(&self) -> f64 {
        let dedup = self.dedup_value_count();
        if dedup == 0 {
            1.0
        } else {
            self.original_value_count() as f64 / dedup as f64
        }
    }

    /// Bytes of the slot tensors: 8 per value, offset and start. This is
    /// what SDD moves between trainers (paper §5, "Sparse Data
    /// Distribution"); the reader → trainer hop ships the inverse lookup
    /// beside it (see [`ConvertedBatch::sparse_payload_bytes`]).
    ///
    /// [`ConvertedBatch::sparse_payload_bytes`]: crate::ConvertedBatch::sparse_payload_bytes
    pub fn payload_bytes(&self) -> usize {
        self.tensors.iter().map(|t| t.payload_bytes()).sum()
    }

    /// Bytes of the `inverse_lookup` slice (8 bytes per row). The reader
    /// ships it to the trainer with the batch; SDD keeps it on that trainer.
    pub fn inverse_lookup_bytes(&self) -> usize {
        self.inverse_lookup.len() * 8
    }

    /// Packs every slot tensor into windows where that ships fewer bytes
    /// ([`JaggedTensor::pack_windows`]): per feature, a slot whose list
    /// repeats the previous slot's list, or shifts it by one, adds at most
    /// one id. Rows, slots and the inverse lookup read back unchanged.
    pub fn pack_windows(&mut self) {
        self.tensors.iter_mut().for_each(JaggedTensor::pack_windows);
    }

    /// Expands the IKJT back into a KJT using a jagged index select (O6).
    /// The result is logically identical to the KJT the group was built from.
    ///
    /// # Errors
    ///
    /// Propagates index errors from the underlying select (cannot occur for a
    /// structurally valid IKJT).
    pub fn to_kjt(&self) -> Result<KeyedJaggedTensor> {
        let mut entries = Vec::with_capacity(self.keys.len());
        for (key, tensor) in self.keys.iter().zip(&self.tensors) {
            entries.push((*key, jagged_index_select(tensor, &self.inverse_lookup)?));
        }
        KeyedJaggedTensor::from_tensors(entries)
    }

    /// Expands a per-slot vector to a per-row vector through the shared
    /// inverse lookup. This is the "expand the output" step of deduplicated
    /// pooling (O7): compute on `slot_count()` items, then broadcast to
    /// `batch_size()` rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatchSizeMismatch`] if `per_slot` does not have
    /// exactly `slot_count()` entries.
    pub fn expand_per_slot<T: Clone>(&self, per_slot: &[T]) -> Result<Vec<T>> {
        if per_slot.len() != self.slot_count() {
            return Err(CoreError::BatchSizeMismatch {
                expected: self.slot_count(),
                actual: per_slot.len(),
            });
        }
        Ok(self
            .inverse_lookup
            .iter()
            .map(|&slot| per_slot[slot].clone())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FeatureId {
        FeatureId::new(i)
    }

    /// The exact example from the paper's Figure 5: features c and d grouped,
    /// rows 0 and 1 duplicates, row 2 distinct.
    fn figure5_group() -> KeyedJaggedTensor {
        KeyedJaggedTensor::from_tensors(vec![
            (
                f(2), // feature c
                JaggedTensor::from_lists(&[vec![7u64, 8], vec![7, 8], vec![10]]),
            ),
            (
                f(3), // feature d
                JaggedTensor::from_lists(&[vec![9u64], vec![9], vec![11]]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn figure5_grouped_dedup() {
        let kjt = figure5_group();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(2), f(3)]).unwrap();
        assert_eq!(ikjt.batch_size(), 3);
        assert_eq!(ikjt.slot_count(), 2);
        assert_eq!(ikjt.inverse_lookup(), &[0, 0, 1]);
        assert_eq!(ikjt.feature(f(2)).unwrap().row(0), &[7, 8]);
        assert_eq!(ikjt.feature(f(2)).unwrap().row(1), &[10]);
        assert_eq!(ikjt.feature(f(3)).unwrap().row(0), &[9]);
        assert_eq!(ikjt.feature(f(3)).unwrap().row(1), &[11]);
        assert!(ikjt.check_invariants().is_ok());
        // Round trip back to KJT is lossless.
        assert_eq!(ikjt.to_kjt().unwrap(), kjt);
    }

    #[test]
    fn figure5_single_feature_b() {
        // Feature b: rows 0 and 2 duplicates ([3,4,5]), row 1 distinct.
        let kjt = KeyedJaggedTensor::from_tensors(vec![(
            f(1),
            JaggedTensor::from_lists(&[vec![3u64, 4, 5], vec![4, 5, 6], vec![3, 4, 5]]),
        )])
        .unwrap();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(1)]).unwrap();
        assert_eq!(ikjt.inverse_lookup(), &[0, 1, 0]);
        assert_eq!(ikjt.feature(f(1)).unwrap().values(), &[3, 4, 5, 4, 5, 6]);
        assert_eq!(ikjt.dedup_value_count(), 6);
        assert_eq!(ikjt.original_value_count(), 9);
        assert!((ikjt.dedupe_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn unsynchronized_group_rows_are_not_deduplicated() {
        // Feature x repeats on rows 0/1 but feature y does not: the group must
        // keep both rows as distinct slots to preserve the shared lookup.
        let kjt = KeyedJaggedTensor::from_tensors(vec![
            (f(0), JaggedTensor::from_lists(&[vec![1u64, 2], vec![1, 2]])),
            (f(1), JaggedTensor::from_lists(&[vec![5u64], vec![6]])),
        ])
        .unwrap();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(0), f(1)]).unwrap();
        assert_eq!(ikjt.slot_count(), 2);
        assert_eq!(ikjt.inverse_lookup(), &[0, 1]);
        assert_eq!(ikjt.to_kjt().unwrap(), kjt);
    }

    #[test]
    fn row_accessor_reads_through_lookup() {
        let kjt = figure5_group();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(2), f(3)]).unwrap();
        assert_eq!(ikjt.row(f(2), 1).unwrap(), &[7, 8]);
        assert_eq!(ikjt.row(f(3), 2).unwrap(), &[11]);
        assert!(matches!(
            ikjt.row(f(2), 7),
            Err(CoreError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            ikjt.row(f(9), 0),
            Err(CoreError::UnknownFeature { .. })
        ));
    }

    #[test]
    fn empty_batch_dedup() {
        let kjt = KeyedJaggedTensor::from_tensors(vec![(f(0), JaggedTensor::new())]).unwrap();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(0)]).unwrap();
        assert_eq!(ikjt.batch_size(), 0);
        assert_eq!(ikjt.slot_count(), 0);
        assert_eq!(ikjt.dedupe_factor(), 1.0);
        assert!(ikjt.to_kjt().unwrap().feature(f(0)).unwrap().is_empty());
    }

    #[test]
    fn payload_bytes_exclude_inverse_lookup() {
        let kjt = figure5_group();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(2), f(3)]).unwrap();
        let expected: usize = ikjt.iter().map(|(_, t)| t.payload_bytes()).sum();
        assert_eq!(ikjt.payload_bytes(), expected);
        assert_eq!(ikjt.inverse_lookup_bytes(), 3 * 8);
        // Deduplicated payload must be strictly smaller than the original KJT's.
        assert!(ikjt.payload_bytes() < kjt.payload_bytes());
    }

    #[test]
    fn expand_per_slot_broadcasts() {
        let kjt = figure5_group();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(2), f(3)]).unwrap();
        // Pooled output per slot (paper example: [24, 21]).
        let expanded = ikjt.expand_per_slot(&[24.0f32, 21.0]).unwrap();
        assert_eq!(expanded, vec![24.0, 24.0, 21.0]);
        assert!(matches!(
            ikjt.expand_per_slot(&[1.0f32]),
            Err(CoreError::BatchSizeMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_validates_invariants() {
        let good = InverseKeyedJaggedTensor::from_parts(
            vec![f(0)],
            vec![JaggedTensor::from_lists(&[vec![1u64]])],
            vec![0, 0, 0],
        );
        assert!(good.is_ok());

        let bad_lookup = InverseKeyedJaggedTensor::from_parts(
            vec![f(0)],
            vec![JaggedTensor::from_lists(&[vec![1u64]])],
            vec![0, 1],
        );
        assert!(matches!(
            bad_lookup,
            Err(CoreError::InvalidInverseLookup {
                row: 1,
                slot: 1,
                ..
            })
        ));

        let mismatched_slots = InverseKeyedJaggedTensor::from_parts(
            vec![f(0), f(1)],
            vec![
                JaggedTensor::from_lists(&[vec![1u64]]),
                JaggedTensor::from_lists(&[vec![1u64], vec![2]]),
            ],
            vec![0],
        );
        assert!(matches!(
            mismatched_slots,
            Err(CoreError::GroupInvariantViolation { .. })
        ));

        let wrong_key_count = InverseKeyedJaggedTensor::from_parts(
            vec![f(0), f(1)],
            vec![JaggedTensor::from_lists(&[vec![1u64]])],
            vec![0],
        );
        assert!(wrong_key_count.is_err());
    }

    #[test]
    fn columnar_dedup_groups_rows_by_their_whole_tuple() {
        use recd_data::{RequestId, Sample, SessionId, Timestamp};
        let rows: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![7, 8], vec![9]],
            vec![vec![7, 8], vec![9]],
            vec![vec![10], vec![11]],
            vec![vec![], vec![9]],
        ];
        let samples: Vec<Sample> = rows
            .into_iter()
            .enumerate()
            .map(|(i, sparse)| {
                Sample::builder(
                    SessionId::new(1),
                    RequestId::new(i as u64),
                    Timestamp::from_millis(i as u64),
                )
                .sparse(sparse)
                .build()
            })
            .collect();
        let columnar = ColumnarBatch::from_samples(&samples, 0, 2);
        let group = [f(0), f(1)];
        let ikjt = InverseKeyedJaggedTensor::dedup_from_columnar(&columnar, &group).unwrap();
        assert_eq!(ikjt.inverse_lookup(), &[0, 0, 1, 2]);
        assert_eq!(ikjt.feature(f(0)).unwrap().values(), &[7, 8, 10]);
        assert_eq!(ikjt.feature(f(1)).unwrap().values(), &[9, 11, 9]);
        assert!(ikjt.check_invariants().is_ok());

        let mut recycled = InverseKeyedJaggedTensor::default();
        InverseKeyedJaggedTensor::dedup_from_runs_into(
            &RowRuns::new(&[(&columnar, 0..columnar.len())]),
            &group,
            &mut DedupScratch::default(),
            &mut recycled,
        )
        .unwrap();
        assert_eq!(recycled, ikjt);
        assert!(matches!(
            InverseKeyedJaggedTensor::dedup_from_columnar(&columnar, &[f(5)]),
            Err(CoreError::MissingSparseFeature { .. })
        ));
    }

    #[test]
    fn hash_collisions_do_not_merge_distinct_rows() {
        // Many distinct single-id rows: a weak converter that trusted hashes
        // without equality confirmation could merge two of them; dedupe factor
        // must stay exactly 1.0 and the round trip must be lossless.
        let rows: Vec<Vec<u64>> = (0..10_000u64)
            .map(|i| vec![i.wrapping_mul(0x9e37)])
            .collect();
        let kjt =
            KeyedJaggedTensor::from_tensors(vec![(f(0), JaggedTensor::from_lists(&rows))]).unwrap();
        let ikjt = InverseKeyedJaggedTensor::dedup_from_kjt(&kjt, &[f(0)]).unwrap();
        assert_eq!(ikjt.slot_count(), 10_000);
        assert_eq!(ikjt.dedupe_factor(), 1.0);
        assert_eq!(ikjt.to_kjt().unwrap(), kjt);
    }
}
