//! Index select over jagged tensors.
//!
//! Before RecD, converting an IKJT back to a KJT required densifying jagged
//! tensors (padding every row to the maximum length) so that
//! `torch.index_select` could operate on them — a large transient memory
//! cost for long-sequence features. RecD's `jagged index select` (O6)
//! gathers rows directly in the jagged representation. The densifying path
//! survives only as the `tensor_ops` bench's baseline.

use crate::jagged::JaggedTensor;
use crate::{CoreError, Result};

/// Gathers rows of a jagged tensor by index, directly in jagged form (O6).
///
/// `indices[i]` selects the row of `tensor` that becomes row `i` of the
/// output; indices may repeat (that is exactly how an IKJT's
/// `inverse_lookup` expands slots back to batch rows).
///
/// # Errors
///
/// Returns [`CoreError::IndexOutOfRange`] if an index exceeds the tensor's
/// row count.
///
/// # Example
///
/// ```
/// use recd_core::{jagged_index_select, JaggedTensor};
///
/// let slots = JaggedTensor::from_lists(&[vec![7u64, 8], vec![10]]);
/// let expanded = jagged_index_select(&slots, &[0, 0, 1])?;
/// assert_eq!(expanded.row(1), &[7, 8]);
/// assert_eq!(expanded.row(2), &[10]);
/// # Ok::<(), recd_core::CoreError>(())
/// ```
pub fn jagged_index_select<T: Clone>(
    tensor: &JaggedTensor<T>,
    indices: &[usize],
) -> Result<JaggedTensor<T>> {
    let rows = tensor.row_count();
    let mut out_values = Vec::with_capacity(
        indices
            .iter()
            .map(|&i| tensor.get(i).map_or(0, <[T]>::len))
            .sum(),
    );
    let mut out_offsets = Vec::with_capacity(indices.len() + 1);
    out_offsets.push(0);
    for &index in indices {
        let row = tensor
            .get(index)
            .ok_or(CoreError::IndexOutOfRange { index, rows })?;
        out_values.extend_from_slice(row);
        out_offsets.push(out_values.len());
    }
    JaggedTensor::from_parts(out_values, out_offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots() -> JaggedTensor<u64> {
        JaggedTensor::from_lists(&[vec![7, 8], vec![10], vec![], vec![1, 2, 3, 4]])
    }

    #[test]
    fn jagged_select_gathers_and_repeats() {
        let out = jagged_index_select(&slots(), &[3, 0, 0, 2]).unwrap();
        assert_eq!(out.row_count(), 4);
        assert_eq!(out.row(0), &[1, 2, 3, 4]);
        assert_eq!(out.row(1), &[7, 8]);
        assert_eq!(out.row(2), &[7, 8]);
        assert_eq!(out.row(3), &[] as &[u64]);
    }

    #[test]
    fn jagged_select_empty_indices() {
        let out = jagged_index_select(&slots(), &[]).unwrap();
        assert_eq!(out.row_count(), 0);
        assert_eq!(out.value_count(), 0);
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        assert!(matches!(
            jagged_index_select(&slots(), &[0, 4]),
            Err(CoreError::IndexOutOfRange { index: 4, rows: 4 })
        ));
    }
}
