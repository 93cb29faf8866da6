//! The sharded message cluster: routing, buffering, compression, and byte
//! accounting.

use crate::wire::{decode_all, encode_record, WireError};
use recd_codec::{hash_ids, lanes, lz, CompressionStats};
use recd_data::LogRecord;
use serde::{Deserialize, Serialize};

/// How messages are routed to shards (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ShardKeyPolicy {
    /// Baseline: hash the message (request id), spreading a session's logs
    /// randomly across shards.
    #[default]
    RandomRequest,
    /// RecD O1: hash the session id so all of a session's logs land in the
    /// same shard buffer.
    SessionId,
}

/// Configuration for a [`ScribeCluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScribeConfig {
    /// Number of physical shards (storage nodes).
    pub shards: usize,
    /// How messages are routed to shards.
    pub policy: ShardKeyPolicy,
    /// Buffer size (bytes of encoded records) at which a shard flushes and
    /// compresses a block.
    pub flush_bytes: usize,
}

impl Default for ScribeConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            policy: ShardKeyPolicy::RandomRequest,
            flush_bytes: 256 * 1024,
        }
    }
}

impl ScribeConfig {
    /// Convenience constructor for a cluster using the given shard policy.
    pub fn with_policy(policy: ShardKeyPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }
}

/// Per-shard accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Records routed to this shard.
    pub records: usize,
    /// Bytes received by this shard (encoded record bytes).
    pub rx_bytes: usize,
    /// Bytes stored after block compression.
    pub stored_bytes: usize,
    /// Number of compressed blocks.
    pub blocks: usize,
}

/// One shard: an in-memory buffer plus its flushed, compressed blocks.
#[derive(Debug, Clone, Default)]
struct Shard {
    buffer: Vec<u8>,
    blocks: Vec<Vec<u8>>,
    stats: ShardStats,
}

/// Aggregate report of a cluster's byte accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScribeReport {
    /// Per-shard statistics.
    pub shards: Vec<ShardStats>,
    /// Total encoded bytes received across all shards (network RX).
    pub total_rx_bytes: usize,
    /// Total bytes stored after compression (and therefore the network TX to
    /// downstream ETL readers).
    pub total_stored_bytes: usize,
    /// Overall compression ratio (RX / stored).
    pub compression_ratio: f64,
}

/// The sharded, buffered, compressing message cluster.
#[derive(Debug, Clone)]
pub struct ScribeCluster {
    config: ScribeConfig,
    shards: Vec<Shard>,
}

impl ScribeCluster {
    /// Creates a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(config: ScribeConfig) -> Self {
        assert!(
            config.shards > 0,
            "a scribe cluster needs at least one shard"
        );
        Self {
            shards: vec![Shard::default(); config.shards],
            config,
        }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &ScribeConfig {
        &self.config
    }

    fn shard_for(&self, record: &LogRecord) -> usize {
        let key = match self.config.policy {
            ShardKeyPolicy::RandomRequest => record.request_id().raw(),
            ShardKeyPolicy::SessionId => record.session_id().raw(),
        };
        (hash_ids(&[key]) % self.shards.len() as u64) as usize
    }

    /// Ingests records: routes each to its shard, then encodes each shard's
    /// records in input order, compressing a block whenever its buffer
    /// crosses the flush threshold. Shards run in [`lanes`]; blocks and
    /// [`ShardStats`] do not depend on the lanes or on how the input is split
    /// across calls.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a LogRecord>>(&mut self, records: I) {
        let mut routed: Vec<Vec<&LogRecord>> = vec![Vec::new(); self.shards.len()];
        for record in records {
            routed[self.shard_for(record)].push(record);
        }
        let flush_bytes = self.config.flush_bytes;
        let units: Vec<_> = self
            .shards
            .iter_mut()
            .zip(routed)
            .filter(|(_, r)| !r.is_empty())
            .collect();
        lanes::map(units, |(shard, records)| {
            for record in records {
                let before = shard.buffer.len();
                encode_record(record, &mut shard.buffer);
                shard.stats.records += 1;
                shard.stats.rx_bytes += shard.buffer.len() - before;
                if shard.buffer.len() >= flush_bytes {
                    Self::flush_shard(shard);
                }
            }
        });
    }

    /// Compresses a shard's non-empty buffer into a block.
    fn flush_shard(shard: &mut Shard) {
        let compressed = lz::compress(&shard.buffer);
        shard.stats.stored_bytes += compressed.len();
        shard.stats.blocks += 1;
        shard.blocks.push(compressed);
        shard.buffer.clear();
    }

    /// Flushes every shard's remaining buffer, shards in [`lanes`].
    pub fn flush(&mut self) {
        let units = self
            .shards
            .iter_mut()
            .filter(|s| !s.buffer.is_empty())
            .collect();
        lanes::map(units, Self::flush_shard);
    }

    /// Produces the byte-accounting report. Call [`ScribeCluster::flush`]
    /// first to account for any buffered tail.
    pub fn report(&self) -> ScribeReport {
        let shards: Vec<ShardStats> = self.shards.iter().map(|s| s.stats).collect();
        let total_rx_bytes = shards.iter().map(|s| s.rx_bytes).sum();
        let total_stored_bytes = shards.iter().map(|s| s.stored_bytes).sum();
        let ratio = CompressionStats::new(total_rx_bytes, total_stored_bytes).ratio();
        ScribeReport {
            shards,
            total_rx_bytes,
            total_stored_bytes,
            compression_ratio: ratio,
        }
    }

    /// Drains every stored block back into decoded records, in shard order —
    /// what a downstream ETL job reads. Buffered-but-unflushed records are
    /// flushed first.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if a stored block fails to decompress or
    /// decode (cannot happen for blocks produced by this cluster).
    pub fn drain(&mut self) -> Result<Vec<LogRecord>, WireError> {
        self.flush();
        let mut records = Vec::new();
        let mut raw = Vec::new();
        for shard in &mut self.shards {
            for block in shard.blocks.drain(..) {
                lz::decompress_into(&block, &mut raw)?;
                decode_all(&raw, &mut records)?;
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};

    fn logs() -> Vec<LogRecord> {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        gen.generate_logs().0
    }

    #[test]
    fn routing_is_deterministic_and_covers_shards() {
        let records = logs();
        let mut cluster = ScribeCluster::new(ScribeConfig::default());
        cluster.ingest_all(&records);
        cluster.flush();
        let report = cluster.report();
        assert_eq!(
            report.shards.iter().map(|s| s.records).sum::<usize>(),
            records.len()
        );
        let used_shards = report.shards.iter().filter(|s| s.records > 0).count();
        assert!(used_shards > 1, "records should spread across shards");
        assert!(report.compression_ratio >= 1.0);
    }

    #[test]
    fn session_sharding_keeps_a_session_on_one_shard() {
        let records = logs();
        let mut cluster = ScribeCluster::new(ScribeConfig::with_policy(ShardKeyPolicy::SessionId));
        // Route without flushing, then verify by re-deriving the shard of
        // every record of one session.
        let shards: Vec<usize> = records.iter().map(|r| cluster.shard_for(r)).collect();
        let target_session = records[0].session_id();
        let session_shards: std::collections::HashSet<usize> = records
            .iter()
            .zip(&shards)
            .filter(|(r, _)| r.session_id() == target_session)
            .map(|(_, &s)| s)
            .collect();
        assert_eq!(session_shards.len(), 1);
        cluster.ingest_all(&records);
        assert_eq!(cluster.drain().unwrap().len(), records.len());
    }

    #[test]
    fn session_sharding_improves_compression_ratio() {
        // The O1 claim: sharding by session id raises the black-box
        // compression ratio relative to random sharding (paper: 1.50x->2.25x).
        let records = logs();
        let mut random = ScribeCluster::new(ScribeConfig {
            flush_bytes: 64 * 1024,
            ..ScribeConfig::with_policy(ShardKeyPolicy::RandomRequest)
        });
        let mut session = ScribeCluster::new(ScribeConfig {
            flush_bytes: 64 * 1024,
            ..ScribeConfig::with_policy(ShardKeyPolicy::SessionId)
        });
        random.ingest_all(&records);
        session.ingest_all(&records);
        random.flush();
        session.flush();
        let r = random.report();
        let s = session.report();
        assert_eq!(r.total_rx_bytes, s.total_rx_bytes);
        assert!(
            s.compression_ratio > r.compression_ratio,
            "session sharding should compress better: {:.2} vs {:.2}",
            s.compression_ratio,
            r.compression_ratio
        );
    }

    #[test]
    fn drain_round_trips_every_record() {
        let records = logs();
        let mut cluster = ScribeCluster::new(ScribeConfig {
            flush_bytes: 16 * 1024,
            ..ScribeConfig::default()
        });
        cluster.ingest_all(&records);
        let mut drained = cluster.drain().unwrap();
        assert_eq!(drained.len(), records.len());
        // Order differs (grouped by shard); compare as multisets keyed by
        // request id + kind.
        let key = |r: &LogRecord| (r.request_id(), matches!(r, LogRecord::Feature(_)));
        let mut expected: Vec<_> = records.iter().map(key).collect();
        let mut actual: Vec<_> = drained.iter().map(key).collect();
        expected.sort();
        actual.sort();
        assert_eq!(expected, actual);
        // Draining twice yields nothing new.
        drained = cluster.drain().unwrap();
        assert!(drained.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ScribeCluster::new(ScribeConfig {
            shards: 0,
            ..ScribeConfig::default()
        });
    }
}
