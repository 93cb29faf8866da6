//! Whole-pipeline checkpoint: the ETL-tier and DPP-tier checkpoints framed
//! as one serializable blob.
//!
//! Taken at a barrier boundary — right after `DppHandle::flush_partition`
//! resolves, when the ETL sealed queue is drained and every routed row has
//! been delivered — the two halves are mutually consistent: the DPP dedup
//! set covers exactly the partitions the ETL landing record says were
//! landed. The pipeline driver (`recd_dpp::driver`) only ever crashes the
//! ETL pump, so it keeps the `etl` half alone in memory and restarts from it
//! with [`EtlService::resume_from`](recd_etl::EtlService::resume_from); the
//! replayed partitions are absorbed by the DPP ingest dedup.
//!
//! The framing reuses the tiers' own wire formats: a `"RPCK"` magic +
//! version header followed by the two length-prefixed nested blobs, each
//! validated by its own magic on decode.

use recd_codec::{ByteReader, ByteWriter};
use recd_dpp::DppCheckpoint;
use recd_etl::{CheckpointError, EtlCheckpoint};

/// Magic prefix of a serialized pipeline checkpoint (`"RPCK"`).
const MAGIC: u32 = u32::from_le_bytes(*b"RPCK");
/// Current wire-format version.
const VERSION: u16 = 1;

/// The continuous pipeline's complete durable state at a barrier boundary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineCheckpoint {
    /// The streaming ETL service's state (tail cursor, join/clustering
    /// state machine, landing record).
    pub etl: EtlCheckpoint,
    /// The DPP service's state (rotation baseline, barrier sequence,
    /// cumulative counters, ingest dedup set).
    pub dpp: DppCheckpoint,
}

impl PipelineCheckpoint {
    /// Serializes both halves into one self-describing blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u64(u64::from(VERSION));
        w.put_bytes(&self.etl.to_bytes());
        w.put_bytes(&self.dpp.to_bytes());
        w.into_bytes()
    }

    /// Decodes a blob produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on a wrong magic, an unsupported version,
    /// a malformed nested checkpoint, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let version = r.get_u64()?;
        if version != u64::from(VERSION) {
            return Err(CheckpointError::UnsupportedVersion {
                found: version.min(u64::from(u16::MAX)) as u16,
            });
        }
        let etl = EtlCheckpoint::from_bytes(&r.get_bytes()?)?;
        let dpp = DppCheckpoint::from_bytes(&r.get_bytes()?)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(Self { etl, dpp })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> PipelineCheckpoint {
        PipelineCheckpoint {
            etl: EtlCheckpoint {
                tail_cursor: 12,
                peak_tail_lag_ms: 4_200,
                hour_seal_counts: vec![(0, 1), (1, 1)],
                ..EtlCheckpoint::default()
            },
            dpp: DppCheckpoint {
                files_routed: 10,
                partitions_ingested: 2,
                duplicate_ingests: 0,
                next_barrier_id: 3,
                ingested: vec!["rm1/hour=0/".into(), "rm1/hour=1/".into()],
            },
        }
    }

    #[test]
    fn round_trips_byte_exactly() {
        let checkpoint = fixture();
        let bytes = checkpoint.to_bytes();
        let back = PipelineCheckpoint::from_bytes(&bytes).expect("decode");
        assert_eq!(back, checkpoint);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let checkpoint = PipelineCheckpoint::default();
        let back = PipelineCheckpoint::from_bytes(&checkpoint.to_bytes()).expect("decode");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn bad_magic_and_trailing_bytes_fail_loudly() {
        let good = fixture().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            PipelineCheckpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            PipelineCheckpoint::from_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));

        assert!(PipelineCheckpoint::from_bytes(&good[..good.len() - 1]).is_err());

        let mut trailing = good;
        trailing.push(7);
        assert!(matches!(
            PipelineCheckpoint::from_bytes(&trailing),
            Err(CheckpointError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn nested_blob_corruption_is_detected_by_the_inner_magic() {
        let mut bytes = fixture().to_bytes();
        // The ETL blob starts after magic(4) + version(8) + length prefix(8);
        // flipping its first byte corrupts the nested magic.
        bytes[20] ^= 0xFF;
        assert!(matches!(
            PipelineCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
    }
}
