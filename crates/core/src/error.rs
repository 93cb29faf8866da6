//! Error type for tensor-format violations.

use recd_data::FeatureId;
use std::error::Error;
use std::fmt;

/// Errors produced when constructing or manipulating jagged tensor formats.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An offsets slice was malformed (not starting at zero, decreasing, or
    /// not ending at the values length).
    InvalidOffsets {
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// An `inverse_lookup` entry referenced a slot that does not exist.
    InvalidInverseLookup {
        /// Row whose lookup entry is invalid.
        row: usize,
        /// The offending slot index.
        slot: usize,
        /// Number of slots available.
        slots: usize,
    },
    /// A feature id was not found in the tensor or configuration.
    UnknownFeature {
        /// The feature that was looked up.
        feature: FeatureId,
    },
    /// Two containers that must agree on batch size did not.
    BatchSizeMismatch {
        /// Expected batch size.
        expected: usize,
        /// Actual batch size.
        actual: usize,
    },
    /// The features grouped into one IKJT did not have the same slot count,
    /// violating the shared-inverse-lookup invariant.
    GroupInvariantViolation {
        /// Description of the violation.
        reason: String,
    },
    /// A sample carried fewer sparse features than the converter expected.
    MissingSparseFeature {
        /// The feature that was expected.
        feature: FeatureId,
        /// Number of sparse features the sample actually carried.
        available: usize,
    },
    /// A data-loader configuration listed the same feature more than once.
    DuplicateFeatureInConfig {
        /// The duplicated feature.
        feature: FeatureId,
    },
    /// An index-select index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of rows available.
        rows: usize,
    },
    /// An operation that requires a non-empty batch received an empty one.
    EmptyBatch,
    /// A flat `(values, offsets)` edit was asked of a windowed jagged
    /// tensor, whose rows that pair alone does not describe.
    WindowedTensor,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidOffsets { reason } => write!(f, "invalid offsets slice: {reason}"),
            CoreError::InvalidInverseLookup { row, slot, slots } => write!(
                f,
                "inverse_lookup[{row}] = {slot} is out of range for {slots} slots"
            ),
            CoreError::UnknownFeature { feature } => {
                write!(f, "feature {feature} not present in this container")
            }
            CoreError::BatchSizeMismatch { expected, actual } => {
                write!(f, "batch size {actual} does not match expected {expected}")
            }
            CoreError::GroupInvariantViolation { reason } => {
                write!(f, "grouped ikjt invariant violated: {reason}")
            }
            CoreError::MissingSparseFeature { feature, available } => write!(
                f,
                "sample carries {available} sparse features but {feature} was requested"
            ),
            CoreError::DuplicateFeatureInConfig { feature } => {
                write!(
                    f,
                    "feature {feature} appears more than once in the dataloader config"
                )
            }
            CoreError::IndexOutOfRange { index, rows } => {
                write!(f, "index {index} out of range for {rows} rows")
            }
            CoreError::EmptyBatch => write!(f, "operation requires a non-empty batch"),
            CoreError::WindowedTensor => {
                write!(f, "a flat edit needs the contiguous form, not windows")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = CoreError::InvalidInverseLookup {
            row: 3,
            slot: 9,
            slots: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains('3') && msg.contains('9') && msg.contains('2'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CoreError>();
    }
}
