//! Landing table partitions into the blob store as DWRF-like files.

use crate::file::DwrfWriter;
use crate::tectonic::TectonicSim;
use crate::Result;
use recd_codec::lanes;
use recd_data::{Sample, Schema};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Storage accounting for one landed partition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StorageReport {
    /// Number of files written.
    pub files: usize,
    /// Number of stripes written.
    pub stripes: usize,
    /// Rows written.
    pub rows: usize,
    /// Logical payload bytes of the rows.
    pub raw_bytes: usize,
    /// Bytes after columnar encoding (before block compression).
    pub encoded_bytes: usize,
    /// Bytes actually stored (after compression, including footers).
    pub stored_bytes: usize,
}

impl StorageReport {
    /// Accumulates another report into this one (multi-partition runs).
    pub fn absorb(&mut self, other: &StorageReport) {
        self.files += other.files;
        self.stripes += other.stripes;
        self.rows += other.rows;
        self.raw_bytes += other.raw_bytes;
        self.encoded_bytes += other.encoded_bytes;
        self.stored_bytes += other.stored_bytes;
    }

    /// Compression ratio: logical payload bytes over stored bytes.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// Handle to a partition that has been landed into the blob store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredPartition {
    /// The table this partition belongs to.
    pub table: String,
    /// The partition key (hour bucket).
    pub hour: u64,
    /// Blob paths of the partition's files, in row order.
    pub files: Vec<String>,
}

impl StoredPartition {
    /// Blob-store path prefix of this partition.
    pub fn prefix(table: &str, hour: u64) -> String {
        format!("{table}/hour={hour}/")
    }
}

/// A partition serialized into blobs but not yet stored: the output of
/// [`TableStore::prepare_partition`]. Blobs are shared, so storing (or
/// retrying) never copies the encoded bytes again.
#[derive(Debug, Clone)]
pub struct PreparedPartition {
    stored: StoredPartition,
    report: StorageReport,
    blobs: Vec<Arc<Vec<u8>>>,
}

impl PreparedPartition {
    /// The partition handle the stores will return.
    pub fn stored(&self) -> &StoredPartition {
        &self.stored
    }

    /// Storage accounting for the encoded files.
    pub fn report(&self) -> &StorageReport {
        &self.report
    }
}

/// Lands table partitions into the blob store.
#[derive(Debug, Clone)]
pub struct TableStore {
    store: TectonicSim,
    rows_per_stripe: usize,
    stripes_per_file: usize,
}

impl TableStore {
    /// Creates a table store over the given blob store. `rows_per_stripe`
    /// and `stripes_per_file` control file geometry.
    ///
    /// # Panics
    ///
    /// Panics if either geometry parameter is zero.
    pub fn new(store: TectonicSim, rows_per_stripe: usize, stripes_per_file: usize) -> Self {
        assert!(rows_per_stripe > 0 && stripes_per_file > 0);
        Self {
            store,
            rows_per_stripe,
            stripes_per_file,
        }
    }

    /// Borrows the underlying blob store.
    pub fn blob_store(&self) -> &TectonicSim {
        &self.store
    }

    /// Serializes one partition into blobs without storing anything: rows
    /// are cut into files of `rows_per_stripe * stripes_per_file` rows each
    /// and encoded once, the files in [`lanes`] (each file is its own
    /// writer, so the bytes do not depend on the lanes). The result can be
    /// stored (and re-stored on retry) without re-encoding or re-allocating
    /// — the chaos retry path prepares once and retries only the puts.
    pub fn prepare_partition(
        &self,
        schema: &Schema,
        table: &str,
        hour: u64,
        samples: &[Sample],
    ) -> PreparedPartition {
        let rows_per_file = self.rows_per_stripe * self.stripes_per_file;
        let encoded = lanes::map(samples.chunks(rows_per_file).collect(), |chunk| {
            let mut writer = DwrfWriter::new(schema, self.rows_per_stripe);
            writer.write(chunk);
            let (file, stats) = writer.finish();
            let report = StorageReport {
                files: 1,
                stripes: stats.len(),
                rows: stats.iter().map(|s| s.rows).sum(),
                raw_bytes: stats.iter().map(|s| s.raw_bytes).sum(),
                encoded_bytes: stats.iter().map(|s| s.encoded_bytes).sum(),
                stored_bytes: file.stored_bytes(),
            };
            (file.to_blob(), report)
        });
        let mut report = StorageReport::default();
        let mut files = Vec::new();
        let mut blobs = Vec::new();
        for (file_idx, (blob, file_report)) in encoded.into_iter().enumerate() {
            report.absorb(&file_report);
            files.push(format!(
                "{}file-{file_idx:05}.dwrf",
                StoredPartition::prefix(table, hour)
            ));
            blobs.push(Arc::new(blob));
        }

        PreparedPartition {
            stored: StoredPartition {
                table: table.to_string(),
                hour,
                files,
            },
            report,
            blobs,
        }
    }

    /// Stores a prepared partition through the infallible put path.
    pub fn store_prepared(&self, prepared: &PreparedPartition) -> (StoredPartition, StorageReport) {
        for (path, blob) in prepared.stored.files.iter().zip(&prepared.blobs) {
            self.store.put_blob(path, Arc::clone(blob));
        }
        (prepared.stored.clone(), prepared.report.clone())
    }

    /// Stores a prepared partition through the fallible put path: each file
    /// goes through [`TectonicSim::try_put_blob`], so armed transient put
    /// faults surface as errors — and a retry re-attempts the puts without
    /// copying a single blob byte. Landing is idempotent — files are
    /// content-deterministic and keyed by path — so already-written files
    /// are overwritten with identical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Injected`](crate::StorageError::Injected) when
    /// a transient put fault fires mid-landing.
    pub fn try_store_prepared(
        &self,
        prepared: &PreparedPartition,
    ) -> Result<(StoredPartition, StorageReport)> {
        for (path, blob) in prepared.stored.files.iter().zip(&prepared.blobs) {
            self.store.try_put_blob(path, blob)?;
        }
        Ok((prepared.stored.clone(), prepared.report.clone()))
    }

    /// Lands one partition: rows are cut into files of
    /// `rows_per_stripe * stripes_per_file` rows each, written in order.
    pub fn land_partition(
        &self,
        schema: &Schema,
        table: &str,
        hour: u64,
        samples: &[Sample],
    ) -> (StoredPartition, StorageReport) {
        let prepared = self.prepare_partition(schema, table, hour, samples);
        self.store_prepared(&prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::tests::read_rows;
    use crate::file::DwrfFile;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};

    fn partition() -> (Schema, Vec<Sample>) {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let p = gen.generate_partition();
        (p.schema, p.samples)
    }

    /// Every row of a stored partition, in file order.
    fn read_back(
        store: &TableStore,
        schema: &Schema,
        stored: &StoredPartition,
    ) -> Result<Vec<Sample>> {
        let mut rows = Vec::new();
        for path in &stored.files {
            let file = DwrfFile::from_blob(&store.blob_store().get(path)?)?;
            rows.extend(read_rows(&file, schema)?);
        }
        Ok(rows)
    }

    #[test]
    fn land_and_read_round_trip() {
        let (schema, samples) = partition();
        let table_store = TableStore::new(TectonicSim::new(4), 32, 2);
        let (stored, report) = table_store.land_partition(&schema, "rm_table", 0, &samples);
        assert_eq!(report.rows, samples.len());
        assert_eq!(stored.files.len(), samples.len().div_ceil(64));
        assert!(report.compression_ratio() > 1.0);
        assert!(report.stored_bytes > 0);
        assert_eq!(table_store.blob_store().stats().blobs, stored.files.len());
        assert_eq!(read_back(&table_store, &schema, &stored).unwrap(), samples);
        assert!(table_store.blob_store().stats().read_bytes > 0);
    }

    #[test]
    fn clustered_partition_stores_fewer_bytes() {
        // End-to-end statement of O2's storage claim at table granularity.
        let (schema, samples) = partition();
        let mut clustered = samples.clone();
        clustered.sort_by_key(|s| (s.session_id, s.timestamp));

        let store = TableStore::new(TectonicSim::new(4), 64, 4);
        let (_, baseline) = store.land_partition(&schema, "baseline", 0, &samples);
        let (_, recd) = store.land_partition(&schema, "clustered", 0, &clustered);
        assert_eq!(baseline.raw_bytes, recd.raw_bytes);
        assert!(
            recd.stored_bytes < baseline.stored_bytes,
            "clustered: {} vs baseline: {}",
            recd.stored_bytes,
            baseline.stored_bytes
        );
    }

    #[test]
    fn prepared_partition_retries_without_reencoding() {
        let (schema, samples) = partition();
        let store = TableStore::new(TectonicSim::new(2), 32, 2);
        let prepared = store.prepare_partition(&schema, "t", 1, &samples[..128]);
        assert_eq!(prepared.stored().files.len(), prepared.blobs.len());

        // Fault the first attempt; the retry stores the same shared blobs.
        store.blob_store().fail_next_puts(1);
        assert!(store.try_store_prepared(&prepared).is_err());
        let (stored, report) = store.try_store_prepared(&prepared).unwrap();
        assert_eq!(&stored, prepared.stored());
        assert_eq!(&report, prepared.report());
        // The stored blobs are the prepared allocations, not copies.
        let first = store.blob_store().get(&stored.files[0]).unwrap();
        assert!(Arc::ptr_eq(&first, &prepared.blobs[0]));
        assert_eq!(read_back(&store, &schema, &stored).unwrap(), samples[..128]);
    }

    #[test]
    fn missing_file_is_an_error() {
        let (schema, samples) = partition();
        let store = TableStore::new(TectonicSim::new(2), 16, 1);
        let (mut stored, _) = store.land_partition(&schema, "t", 3, &samples[..32]);
        stored.files.push("t/hour=3/file-99999.dwrf".to_string());
        assert!(read_back(&store, &schema, &stored).is_err());
    }
}
