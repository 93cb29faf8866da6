//! Error type for data-model validation failures.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or validating data-model values.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataError {
    /// A sample's dense feature vector length did not match the schema.
    DenseArityMismatch {
        /// Number of dense features declared by the schema.
        expected: usize,
        /// Number of dense values carried by the sample.
        actual: usize,
    },
    /// A sample's sparse feature vector length did not match the schema.
    SparseArityMismatch {
        /// Number of sparse features declared by the schema.
        expected: usize,
        /// Number of sparse lists carried by the sample.
        actual: usize,
    },
    /// A feature id referenced a feature that does not exist in the schema.
    UnknownFeature {
        /// The offending feature id (raw value).
        feature: u32,
        /// Number of features of that kind in the schema.
        count: usize,
    },
    /// A feature name was registered twice while building a schema.
    DuplicateFeatureName {
        /// The duplicated name.
        name: String,
    },
    /// A dedup group referenced by a sparse feature spec was never declared.
    UnknownDedupGroup {
        /// The offending group id (raw value).
        group: u32,
    },
    /// A columnar batch's buffers violated a shape invariant.
    ColumnarInvariant {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DenseArityMismatch { expected, actual } => write!(
                f,
                "dense feature count {actual} does not match schema ({expected} expected)"
            ),
            DataError::SparseArityMismatch { expected, actual } => write!(
                f,
                "sparse feature count {actual} does not match schema ({expected} expected)"
            ),
            DataError::UnknownFeature { feature, count } => write!(
                f,
                "feature id {feature} is out of range for schema with {count} features"
            ),
            DataError::DuplicateFeatureName { name } => {
                write!(f, "feature name `{name}` registered more than once")
            }
            DataError::UnknownDedupGroup { group } => {
                write!(f, "dedup group {group} was referenced but never declared")
            }
            DataError::ColumnarInvariant { reason } => {
                write!(f, "columnar batch invariant violated: {reason}")
            }
        }
    }
}

impl Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = DataError::DenseArityMismatch {
            expected: 3,
            actual: 1,
        };
        let msg = err.to_string();
        assert!(msg.contains('3') && msg.contains('1'));
        assert!(msg.chars().next().unwrap().is_lowercase());

        let err = DataError::DuplicateFeatureName {
            name: "f_like".to_string(),
        };
        assert!(err.to_string().contains("f_like"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<DataError>();
    }
}
