//! Top-level dataset generation: whole partitions of interleaved samples and
//! the raw log streams that produce them.

use crate::config::WorkloadConfig;
use crate::distributions::LogNormalSampler;
use crate::session::SessionGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recd_data::{LogRecord, RequestId, Sample, Schema, SessionId};

/// One generated hourly partition: the schema and its samples in
/// inference-time order (sessions interleaved, as the baseline pipeline
/// stores them).
#[derive(Debug, Clone)]
pub struct GeneratedPartition {
    /// The dataset schema the samples conform to.
    pub schema: Schema,
    /// Samples ordered by impression timestamp (interleaved across sessions).
    pub samples: Vec<Sample>,
    /// Number of sessions that produced the samples.
    pub sessions: usize,
}

impl GeneratedPartition {
    /// Number of samples in the partition.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if the partition holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average samples per session across the partition.
    pub fn samples_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.samples.len() as f64 / self.sessions as f64
        }
    }

    /// Total payload bytes of the partition's samples.
    pub fn payload_bytes(&self) -> usize {
        self.samples.iter().map(Sample::payload_bytes).sum()
    }
}

/// Generates synthetic session-centric datasets.
#[derive(Debug, Clone)]
pub struct DatasetGenerator {
    session_gen: SessionGenerator,
    length_sampler: LogNormalSampler,
}

impl DatasetGenerator {
    /// Creates a generator for the given workload.
    pub fn new(config: WorkloadConfig) -> Self {
        let length_sampler = LogNormalSampler::with_mean(
            config.samples_per_session_mean,
            config.samples_per_session_sigma,
        );
        Self {
            session_gen: SessionGenerator::new(config),
            length_sampler,
        }
    }

    /// Borrows the dataset schema.
    pub fn schema(&self) -> &Schema {
        self.session_gen.schema()
    }

    /// Borrows the workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        self.session_gen.config()
    }

    /// Generates one hourly partition of samples, ordered by inference time
    /// (the baseline, session-interleaved order).
    pub fn generate_partition(&self) -> GeneratedPartition {
        let config = self.session_gen.config().clone();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut samples: Vec<Sample> = Vec::new();
        let mut next_request: u64 = 0;

        for session_idx in 0..config.sessions {
            let impressions = self.length_sampler.sample(&mut rng) as usize;
            let session_id = SessionId::new(session_idx as u64 + 1);
            let mut state = self
                .session_gen
                .start_session(&mut rng, session_id, impressions);
            for i in 0..impressions {
                let sample = self.session_gen.next_sample(
                    &mut rng,
                    &mut state,
                    i,
                    RequestId::new(next_request),
                );
                next_request += 1;
                samples.push(sample);
            }
        }

        // The data generation infrastructure orders samples by inference
        // time, which interleaves sessions (paper §3).
        samples.sort_by_key(|s| (s.timestamp, s.request_id));

        GeneratedPartition {
            schema: self.schema().clone(),
            samples,
            sessions: config.sessions,
        }
    }

    /// Generates the raw inference-time log stream (feature logs and event
    /// logs, interleaved by timestamp) corresponding to one partition.
    ///
    /// This is the input to the Scribe and ETL substrates; joining the two
    /// log kinds on request id reproduces exactly the samples of
    /// [`DatasetGenerator::generate_partition`].
    pub fn generate_logs(&self) -> (Vec<LogRecord>, GeneratedPartition) {
        let partition = self.generate_partition();
        let mut records: Vec<LogRecord> = Vec::with_capacity(partition.samples.len() * 2);
        for sample in &partition.samples {
            let (features, event) = SessionGenerator::to_logs(sample);
            records.push(LogRecord::Feature(features));
            records.push(LogRecord::Event(event));
        }
        records.sort_by_key(|r| (r.timestamp(), r.request_id().raw()));
        (records, partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadPreset;
    use std::collections::HashSet;

    #[test]
    fn partition_is_time_ordered_and_interleaved() {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let partition = gen.generate_partition();
        assert!(!partition.is_empty());
        assert!(partition
            .samples
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));

        // Samples per session should be near the configured mean.
        let mean = partition.samples_per_session();
        assert!(mean > 2.0 && mean < 20.0, "unexpected mean {mean}");

        // Adjacent samples mostly come from different sessions (interleaving).
        let adjacent_same_session = partition
            .samples
            .windows(2)
            .filter(|w| w[0].session_id == w[1].session_id)
            .count();
        assert!(
            (adjacent_same_session as f64) < 0.5 * partition.len() as f64,
            "interleaving should separate most of a session's samples"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = WorkloadConfig::preset(WorkloadPreset::Tiny);
        let a = DatasetGenerator::new(config.clone()).generate_partition();
        let b = DatasetGenerator::new(config).generate_partition();
        assert_eq!(a.samples, b.samples);
        let c = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny).with_seed(1234))
            .generate_partition();
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn request_ids_are_unique_and_samples_validate() {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let partition = gen.generate_partition();
        let ids: HashSet<_> = partition.samples.iter().map(|s| s.request_id).collect();
        assert_eq!(ids.len(), partition.len());
        for sample in &partition.samples {
            partition.schema.validate_sample(sample).unwrap();
        }
    }

    #[test]
    fn log_stream_matches_partition() {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let (records, partition) = gen.generate_logs();
        assert_eq!(records.len(), partition.len() * 2);
        let feature_count = records
            .iter()
            .filter(|r| matches!(r, LogRecord::Feature(_)))
            .count();
        assert_eq!(feature_count, partition.len());
        assert!(records
            .windows(2)
            .all(|w| w[0].timestamp() <= w[1].timestamp()));
    }

    #[test]
    fn partition_accounts_its_payload() {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        assert!(gen.generate_partition().payload_bytes() > 0);
    }
}
