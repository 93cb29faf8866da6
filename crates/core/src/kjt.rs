//! KeyedJaggedTensor: the conventional (non-deduplicated) sparse-feature
//! container, equivalent to TorchRec's `KeyedJaggedTensor`.

use crate::jagged::JaggedTensor;
use crate::{CoreError, Result};
use recd_data::{ColumnarBatch, FeatureId, RowRuns};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// A keyed collection of jagged tensors, one per sparse feature, each with
/// one row per sample in the batch (paper §4.2, Figure 5).
///
/// # Example
///
/// ```
/// use recd_core::KeyedJaggedTensor;
/// use recd_data::{ColumnarBatch, FeatureId, RequestId, Sample, SessionId, Timestamp};
///
/// let samples: Vec<Sample> = (0..2)
///     .map(|i| {
///         Sample::builder(SessionId::new(1), RequestId::new(i), Timestamp::from_millis(i))
///             .sparse(vec![vec![i, i + 1]])
///             .build()
///     })
///     .collect();
/// let batch = ColumnarBatch::from_samples(&samples, 0, 1);
/// let kjt = KeyedJaggedTensor::from_columnar(&batch, &[FeatureId::new(0)])?;
/// assert_eq!(kjt.batch_size(), 2);
/// assert_eq!(kjt.feature(FeatureId::new(0)).unwrap().row(1), &[1, 2]);
/// # Ok::<(), recd_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KeyedJaggedTensor {
    keys: Vec<FeatureId>,
    tensors: Vec<JaggedTensor<u64>>,
    batch_size: usize,
}

impl KeyedJaggedTensor {
    /// Creates an empty KJT for a batch of `batch_size` rows.
    pub fn empty(batch_size: usize) -> Self {
        Self {
            keys: Vec::new(),
            tensors: Vec::new(),
            batch_size,
        }
    }

    /// Creates a KJT from per-feature jagged tensors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatchSizeMismatch`] if the tensors do not all
    /// have the same row count, or [`CoreError::DuplicateFeatureInConfig`]
    /// if a key repeats.
    pub fn from_tensors(entries: Vec<(FeatureId, JaggedTensor<u64>)>) -> Result<Self> {
        let batch_size = entries.first().map(|(_, t)| t.row_count()).unwrap_or(0);
        let mut kjt = Self::empty(batch_size);
        for (key, tensor) in entries {
            kjt.insert(key, tensor)?;
        }
        Ok(kjt)
    }

    /// Extracts the listed sparse features from a columnar batch. Each
    /// feature's jagged tensor is built from two flat buffer copies (values
    /// and offsets) — the convert path's KJT constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingSparseFeature`] if the batch carries
    /// fewer sparse columns than a requested feature's index.
    pub fn from_columnar(batch: &ColumnarBatch, features: &[FeatureId]) -> Result<Self> {
        let mut kjt = Self::empty(batch.len());
        for &feature in features {
            let column =
                batch
                    .sparse_column(feature.index())
                    .ok_or(CoreError::MissingSparseFeature {
                        feature,
                        available: batch.sparse_cols(),
                    })?;
            let tensor =
                JaggedTensor::from_parts(column.values().to_vec(), column.offsets().to_vec())
                    .expect("a valid sparse column is a valid jagged tensor");
            kjt.insert(feature, tensor)?;
        }
        Ok(kjt)
    }

    /// Adds a feature tensor to the KJT.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatchSizeMismatch`] if the tensor's row count
    /// differs from the KJT's batch size, or
    /// [`CoreError::DuplicateFeatureInConfig`] if the key is already present.
    pub fn insert(&mut self, key: FeatureId, tensor: JaggedTensor<u64>) -> Result<()> {
        if tensor.row_count() != self.batch_size {
            return Err(CoreError::BatchSizeMismatch {
                expected: self.batch_size,
                actual: tensor.row_count(),
            });
        }
        if self.keys.contains(&key) {
            return Err(CoreError::DuplicateFeatureInConfig { feature: key });
        }
        self.keys.push(key);
        self.tensors.push(tensor);
        Ok(())
    }

    /// Number of rows (samples) in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Feature keys in insertion order.
    pub fn keys(&self) -> &[FeatureId] {
        &self.keys
    }

    /// Number of features.
    pub fn feature_count(&self) -> usize {
        self.keys.len()
    }

    /// Returns true if the KJT holds no features.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Looks up a feature's jagged tensor.
    pub fn feature(&self, key: FeatureId) -> Option<&JaggedTensor<u64>> {
        self.keys
            .iter()
            .position(|&k| k == key)
            .map(|i| &self.tensors[i])
    }

    /// Looks up a feature's jagged tensor, returning an error if absent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownFeature`] if the feature is not present.
    pub fn feature_required(&self, key: FeatureId) -> Result<&JaggedTensor<u64>> {
        self.feature(key)
            .ok_or(CoreError::UnknownFeature { feature: key })
    }

    /// Iterates over `(feature, tensor)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, &JaggedTensor<u64>)> {
        self.keys.iter().copied().zip(self.tensors.iter())
    }

    /// Iterates over `(feature, tensor)` pairs with mutable tensor access —
    /// the view in-place preprocessing transforms write through.
    ///
    /// The caller must preserve each tensor's row count (the KJT's
    /// batch-size invariant); every shipped transform does, since
    /// preprocessing maps rows to rows.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FeatureId, &mut JaggedTensor<u64>)> {
        self.keys.iter().copied().zip(self.tensors.iter_mut())
    }

    /// Refills the KJT with `features` from a view's rows, reusing tensor
    /// buffers; each feature is two slice copies per run. When the feature
    /// list changes, every tensor is parked on `spares` under its feature
    /// and each listed feature takes its own buffer back (a new one the
    /// first time), so a recycled
    /// [`ConvertedBatch`](crate::ConvertedBatch) shell whose groups flip
    /// between IKJT and KJT allocates nothing once each feature has held a
    /// batch this large.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`KeyedJaggedTensor::from_columnar`]; on
    /// error the KJT's contents are unspecified.
    pub(crate) fn assign_from_runs<B: Borrow<ColumnarBatch>>(
        &mut self,
        rows: &RowRuns<B>,
        features: &[FeatureId],
        spares: &mut Vec<(FeatureId, JaggedTensor<u64>)>,
    ) -> Result<()> {
        if self.keys != features {
            spares.extend(self.keys.drain(..).zip(self.tensors.drain(..)));
            for &feature in features {
                let tensor = match spares.iter().position(|&(key, _)| key == feature) {
                    Some(i) => spares.swap_remove(i).1,
                    None => JaggedTensor::new(),
                };
                self.keys.push(feature);
                self.tensors.push(tensor);
            }
        }
        self.batch_size = rows.row_count();
        for (&feature, tensor) in features.iter().zip(&mut self.tensors) {
            if feature.index() >= rows.sparse_cols() {
                return Err(CoreError::MissingSparseFeature {
                    feature,
                    available: rows.sparse_cols(),
                });
            }
            tensor
                .edit_flat(|values, offsets| {
                    values.clear();
                    offsets.clear();
                    offsets.push(0);
                    for (batch, range) in rows.runs() {
                        batch.sparse_columns()[feature.index()]
                            .copy_rows_into(range, values, offsets);
                    }
                })
                .expect("a valid sparse column is a valid jagged tensor");
        }
        Ok(())
    }

    /// Total number of sparse values across all features.
    pub fn value_count(&self) -> usize {
        self.tensors.iter().map(JaggedTensor::value_count).sum()
    }

    /// Bytes transferred when this KJT's `values` and `offsets` slices are
    /// shipped over the network (e.g. reader→trainer, or the SDD all-to-all).
    pub fn payload_bytes(&self) -> usize {
        self.tensors.iter().map(|t| t.payload_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_data::{RequestId, Sample, SessionId, Timestamp};

    fn batch() -> ColumnarBatch {
        let samples: Vec<Sample> = (0..3u64)
            .map(|i| {
                Sample::builder(
                    SessionId::new(1),
                    RequestId::new(i),
                    Timestamp::from_millis(i),
                )
                .sparse(vec![vec![i, i + 1], vec![100 + i]])
                .build()
            })
            .collect();
        ColumnarBatch::from_samples(&samples, 0, 2)
    }

    #[test]
    fn from_columnar_extracts_features_in_order() {
        let kjt =
            KeyedJaggedTensor::from_columnar(&batch(), &[FeatureId::new(1), FeatureId::new(0)])
                .unwrap();
        assert_eq!(kjt.batch_size(), 3);
        assert_eq!(kjt.feature_count(), 2);
        assert_eq!(kjt.keys(), &[FeatureId::new(1), FeatureId::new(0)]);
        assert_eq!(kjt.feature(FeatureId::new(1)).unwrap().row(2), &[102]);
        assert_eq!(kjt.feature(FeatureId::new(0)).unwrap().row(0), &[0, 1]);
        assert_eq!(kjt.value_count(), 3 + 6);
        assert!(!kjt.is_empty());
    }

    #[test]
    fn missing_feature_is_an_error() {
        let err = KeyedJaggedTensor::from_columnar(&batch(), &[FeatureId::new(9)]).unwrap_err();
        assert!(matches!(err, CoreError::MissingSparseFeature { .. }));
    }

    #[test]
    fn insert_validates_batch_size_and_duplicates() {
        let mut kjt = KeyedJaggedTensor::empty(2);
        let t = JaggedTensor::from_lists(&[vec![1u64], vec![2]]);
        kjt.insert(FeatureId::new(0), t.clone()).unwrap();
        assert!(matches!(
            kjt.insert(FeatureId::new(0), t.clone()),
            Err(CoreError::DuplicateFeatureInConfig { .. })
        ));
        let wrong = JaggedTensor::from_lists(&[vec![1u64]]);
        assert!(matches!(
            kjt.insert(FeatureId::new(1), wrong),
            Err(CoreError::BatchSizeMismatch { .. })
        ));
    }

    #[test]
    fn feature_required_and_iter() {
        let kjt = KeyedJaggedTensor::from_columnar(&batch(), &[FeatureId::new(0)]).unwrap();
        assert!(kjt.feature_required(FeatureId::new(0)).is_ok());
        assert!(matches!(
            kjt.feature_required(FeatureId::new(5)),
            Err(CoreError::UnknownFeature { .. })
        ));
        let pairs: Vec<_> = kjt.iter().collect();
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn payload_bytes_sums_feature_tensors() {
        let kjt =
            KeyedJaggedTensor::from_columnar(&batch(), &[FeatureId::new(0), FeatureId::new(1)])
                .unwrap();
        let expected: usize = kjt.iter().map(|(_, t)| t.payload_bytes()).sum();
        assert_eq!(kjt.payload_bytes(), expected);
    }

    #[test]
    fn from_tensors_round_trip() {
        let entries = vec![
            (
                FeatureId::new(3),
                JaggedTensor::from_lists(&[vec![1u64], vec![]]),
            ),
            (
                FeatureId::new(5),
                JaggedTensor::from_lists(&[vec![2u64, 3], vec![4]]),
            ),
        ];
        let kjt = KeyedJaggedTensor::from_tensors(entries).unwrap();
        assert_eq!(kjt.batch_size(), 2);
        assert_eq!(kjt.feature(FeatureId::new(5)).unwrap().row(0), &[2, 3]);
    }
}
