//! Partition files encode in lanes, byte for byte.
//!
//! `TableStore::prepare_partition` encodes a partition's files side by side
//! on every core. The oracle is the serial loop it replaced: one
//! `DwrfWriter` per `rows_per_stripe * stripes_per_file` rows, in row order,
//! each file at `file-{index:05}.dwrf` under the partition prefix. Paths,
//! blob bytes and the `StorageReport` must all be that loop's.

use recd_data::{Sample, Schema};
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_storage::{DwrfWriter, StorageReport, StoredPartition, TableStore, TectonicSim};

const ROWS_PER_STRIPE: usize = 16;
const STRIPES_PER_FILE: usize = 2;
const ROWS_PER_FILE: usize = ROWS_PER_STRIPE * STRIPES_PER_FILE;

/// The serial landing: paths, blobs and report, file by file.
fn serial(
    schema: &Schema,
    table: &str,
    hour: u64,
    samples: &[Sample],
) -> (Vec<String>, Vec<Vec<u8>>, StorageReport) {
    let (mut paths, mut blobs) = (Vec::new(), Vec::new());
    let mut report = StorageReport::default();
    for (index, chunk) in samples.chunks(ROWS_PER_FILE).enumerate() {
        let mut writer = DwrfWriter::new(schema, ROWS_PER_STRIPE);
        writer.write(chunk);
        let (file, stats) = writer.finish();
        report.files += 1;
        report.stripes += stats.len();
        for s in &stats {
            report.rows += s.rows;
            report.raw_bytes += s.raw_bytes;
            report.encoded_bytes += s.encoded_bytes;
        }
        report.stored_bytes += file.stored_bytes();
        paths.push(format!(
            "{}file-{index:05}.dwrf",
            StoredPartition::prefix(table, hour)
        ));
        blobs.push(file.to_blob());
    }
    (paths, blobs, report)
}

#[test]
fn prepared_partitions_equal_the_serial_loop_for_every_file_count() {
    let partition =
        DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Small)).generate_partition();
    let (schema, samples) = (&partition.schema, &partition.samples);
    assert!(samples.len() >= 5 * ROWS_PER_FILE);
    let store = TableStore::new(TectonicSim::new(4), ROWS_PER_STRIPE, STRIPES_PER_FILE);
    // 0, 1, 2, 3 and 5 files, each cut with a short last file; the one-file
    // case is also short of a whole stripe.
    for (hour, files) in [0usize, 1, 2, 3, 5].into_iter().enumerate() {
        let rows = (files * ROWS_PER_FILE).saturating_sub(ROWS_PER_FILE / 2 + 3);
        let rows = &samples[..rows];
        let (paths, blobs, report) = serial(schema, "landing", hour as u64, rows);
        assert_eq!(paths.len(), files);

        let prepared = store.prepare_partition(schema, "landing", hour as u64, rows);
        assert_eq!(prepared.stored().files, paths, "{files} files");
        assert_eq!(prepared.report(), &report, "{files} files");
        let (stored, landed) = store.store_prepared(&prepared);
        assert_eq!(landed, report);
        for (path, blob) in stored.files.iter().zip(&blobs) {
            let got = store.blob_store().get(path).expect("landed file");
            assert!(**got == *blob, "{files} files: {path} differs");
        }
    }
}
