//! Error type for storage-format and blob-store failures.

use std::error::Error;
use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A stripe or file failed to decode.
    Corrupt {
        /// Description of what failed.
        reason: String,
    },
    /// An underlying codec error (decompression or varint decoding).
    Codec(recd_codec::CodecError),
    /// The requested blob does not exist in the store.
    NotFound {
        /// The requested path.
        path: String,
    },
    /// The file was written with a different schema than the one used to
    /// read it.
    SchemaMismatch {
        /// Schema fingerprint stored in the file.
        expected: u64,
        /// Fingerprint of the schema supplied by the reader.
        actual: u64,
    },
    /// A transient fault injected by the chaos engine (see
    /// [`TectonicSim::fail_next_gets`](crate::TectonicSim::fail_next_gets)).
    /// Always retryable: the underlying blob (if any) is intact.
    Injected {
        /// The operation that was failed (`"get"` or `"put"`).
        op: &'static str,
        /// The path the operation targeted.
        path: String,
    },
}

impl StorageError {
    pub(crate) fn corrupt(reason: &str) -> Self {
        StorageError::Corrupt {
            reason: reason.to_string(),
        }
    }

    /// Whether the error is a transient injected fault that a bounded-retry
    /// policy should retry rather than surface.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Injected { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Corrupt { reason } => write!(f, "corrupt storage data: {reason}"),
            StorageError::Codec(err) => write!(f, "codec failure: {err}"),
            StorageError::NotFound { path } => write!(f, "blob `{path}` not found"),
            StorageError::SchemaMismatch { expected, actual } => write!(
                f,
                "schema fingerprint mismatch: file has {expected:#x}, reader supplied {actual:#x}"
            ),
            StorageError::Injected { op, path } => {
                write!(f, "injected transient {op} fault on `{path}`")
            }
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Codec(err) => Some(err),
            _ => None,
        }
    }
}

impl From<recd_codec::CodecError> for StorageError {
    fn from(err: recd_codec::CodecError) -> Self {
        StorageError::Codec(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = StorageError::from(recd_codec::CodecError::VarintOverflow);
        assert!(err.to_string().contains("codec"));
        assert!(err.source().is_some());
        let err = StorageError::NotFound {
            path: "t/p0/f1".into(),
        };
        assert!(err.to_string().contains("t/p0/f1"));
    }
}
