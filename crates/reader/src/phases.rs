//! The reader's phase logic — fill, convert (O3), process (O4) — factored
//! out of [`ReaderNode`](crate::ReaderNode) so the one-shot batch tier and
//! the streaming `recd-dpp` service share one implementation.

use crate::metrics::ReaderMetrics;
use crate::reader::ReaderConfig;
use crate::transforms::{PreprocessPipeline, TransformScratch};
use recd_core::{ConvertedBatch, DedupScratch, FeatureConverter};
use recd_data::{ColumnarBatch, Sample, SampleBatch, Schema};
use recd_storage::{DwrfFile, FileReadScratch, TableStore};
use std::time::Instant;

/// Fill phase over a single file: fetch the blob, decompress and decode its
/// rows. This is the unit of fill work a streaming fill worker claims.
///
/// # Errors
///
/// Propagates storage errors for missing or corrupt files.
pub fn fill_file(
    store: &TableStore,
    schema: &Schema,
    path: &str,
    metrics: &mut ReaderMetrics,
) -> recd_storage::Result<Vec<Sample>> {
    // Timed directly (not via fill_file_columnar) so the row-wise fill
    // metric keeps covering Sample materialization, as it always has.
    let start = Instant::now();
    let blob = store.blob_store().get(path)?;
    let bytes_read = blob.len();
    let file = DwrfFile::from_blob(&blob)?;
    let rows = file.read_all(schema)?;
    metrics.fill.record(start.elapsed(), bytes_read, rows.len());
    Ok(rows)
}

/// Columnar fill phase over a single file: fetch the blob, decompress, and
/// decode straight into flat column buffers — no per-row `Sample` is ever
/// materialized. This is the fill path the streaming service and the batch
/// reader both run.
///
/// # Errors
///
/// Propagates storage errors for missing or corrupt files.
pub fn fill_file_columnar(
    store: &TableStore,
    schema: &Schema,
    path: &str,
    metrics: &mut ReaderMetrics,
) -> recd_storage::Result<ColumnarBatch> {
    let mut out = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
    fill_file_columnar_into(
        store,
        schema,
        path,
        &mut FileReadScratch::default(),
        &mut out,
        metrics,
    )?;
    Ok(out)
}

/// Columnar fill into a caller-provided (typically pool-recycled) batch —
/// the buffer-reusing variant of [`fill_file_columnar`] the streaming fill
/// workers run. The blob is fetched into the scratch's recycled buffer and
/// decoded straight from it (footer parsed in place, stripes decoded onto
/// the end of `out`), so once the scratch and the batch have each held a
/// file this large, a fill performs no heap allocation. On error the batch
/// contents are unspecified.
///
/// # Errors
///
/// Propagates storage errors for missing or corrupt files.
pub fn fill_file_columnar_into(
    store: &TableStore,
    schema: &Schema,
    path: &str,
    scratch: &mut FileReadScratch,
    out: &mut ColumnarBatch,
    metrics: &mut ReaderMetrics,
) -> recd_storage::Result<()> {
    let start = Instant::now();
    let bytes_read = store.blob_store().get_into(path, scratch.blob_buf())?;
    scratch.read_fetched_columnar_into(schema, out)?;
    metrics.fill.record(start.elapsed(), bytes_read, out.len());
    Ok(())
}

/// The convert + process engine of one reader or streaming worker: owns the
/// feature converter (O3), the preprocessing pipeline (O4), and the scratch
/// buffers both phases reuse across batches, so an engine can run forever
/// without steady-state allocation.
#[derive(Debug)]
pub struct PhaseEngine {
    config: ReaderConfig,
    converter: FeatureConverter,
    pipeline: PreprocessPipeline,
    transform_scratch: TransformScratch,
    dedup_scratch: DedupScratch,
}

impl PhaseEngine {
    /// Creates an engine for the given reader configuration and
    /// preprocessing pipeline.
    pub fn new(config: ReaderConfig, pipeline: PreprocessPipeline) -> Self {
        let converter = FeatureConverter::new(config.dataloader.clone());
        Self {
            config,
            converter,
            pipeline,
            transform_scratch: TransformScratch::default(),
            dedup_scratch: DedupScratch::default(),
        }
    }

    /// Borrows the reader configuration.
    pub fn config(&self) -> &ReaderConfig {
        &self.config
    }

    /// Fill phase over an explicit file list (the batch reader's unit of
    /// work).
    ///
    /// # Errors
    ///
    /// Propagates storage errors for missing or corrupt files.
    pub fn fill(
        &self,
        store: &TableStore,
        schema: &Schema,
        files: &[String],
        metrics: &mut ReaderMetrics,
    ) -> recd_storage::Result<Vec<Sample>> {
        let mut rows = Vec::new();
        for path in files {
            rows.extend(fill_file(store, schema, path, metrics)?);
        }
        Ok(rows)
    }

    /// Columnar fill phase over an explicit file list: every file decodes
    /// into flat buffers which are concatenated in file order.
    ///
    /// # Errors
    ///
    /// Propagates storage errors for missing or corrupt files.
    pub fn fill_columnar(
        &self,
        store: &TableStore,
        schema: &Schema,
        files: &[String],
        metrics: &mut ReaderMetrics,
    ) -> recd_storage::Result<ColumnarBatch> {
        let mut rows = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
        let mut file_rows = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
        let mut scratch = FileReadScratch::default();
        for path in files {
            fill_file_columnar_into(store, schema, path, &mut scratch, &mut file_rows, metrics)?;
            rows.append(&file_rows)
                .expect("files of one schema share a column shape");
        }
        Ok(rows)
    }

    /// Convert phase: rows → KJT/IKJT tensors.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors (malformed dataloader configuration).
    pub fn convert(
        &self,
        batch: &SampleBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<ConvertedBatch> {
        let start = Instant::now();
        let converted = if self.config.dedup_enabled {
            self.converter.convert(batch)?
        } else {
            self.converter.convert_baseline(batch)?
        };
        Self::record_convert(&converted, start, metrics);
        Ok(converted)
    }

    /// Process phase: run the preprocessing pipeline over the converted
    /// tensors, flat and in place, reusing the engine's scratch buffers.
    pub fn process(&mut self, batch: &mut ConvertedBatch, metrics: &mut ReaderMetrics) {
        let start = Instant::now();
        let stats = self
            .pipeline
            .apply_with_scratch(batch, &mut self.transform_scratch);
        metrics.process.record(
            start.elapsed(),
            batch.sparse_payload_bytes(),
            stats.values_processed,
        );
    }

    /// Columnar convert phase: flat column buffers → KJT/IKJT tensors,
    /// value-identical to [`PhaseEngine::convert`] over the same rows.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors (malformed dataloader configuration).
    pub fn convert_columnar(
        &self,
        batch: &ColumnarBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<ConvertedBatch> {
        let start = Instant::now();
        let converted = if self.config.dedup_enabled {
            self.converter.convert_columnar(batch)?
        } else {
            self.converter.convert_columnar_baseline(batch)?
        };
        Self::record_convert(&converted, start, metrics);
        Ok(converted)
    }

    /// Columnar convert into a caller-provided (typically pool-recycled)
    /// shell, reusing both the shell's buffers and the engine's dedup
    /// scratch — the steady-state-allocation-free variant of
    /// [`PhaseEngine::convert_columnar`], with identical output.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors; on error the shell's contents are
    /// unspecified.
    pub fn convert_columnar_into(
        &mut self,
        batch: &ColumnarBatch,
        out: &mut ConvertedBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<()> {
        let start = Instant::now();
        if self.config.dedup_enabled {
            self.converter
                .convert_columnar_into(batch, &mut self.dedup_scratch, out)?;
        } else {
            self.converter.convert_columnar_baseline_into(batch, out)?;
        }
        Self::record_convert(out, start, metrics);
        Ok(())
    }

    /// Shared convert-phase accounting: `items` counts the values hashed for
    /// duplicate detection (zero on the baseline path); `bytes` is the
    /// tensor payload materialized.
    fn record_convert(converted: &ConvertedBatch, start: Instant, metrics: &mut ReaderMetrics) {
        let hashed_values: usize = converted
            .ikjts
            .iter()
            .map(|ikjt| ikjt.original_value_count())
            .sum();
        metrics.convert.record(
            start.elapsed(),
            converted.sparse_payload_bytes(),
            hashed_values,
        );
    }

    /// Runs convert + process over one coalesced chunk of row-wise samples
    /// and records the batch-level accounting (samples, batches, egress
    /// bytes) — the row-wise counterpart of
    /// [`PhaseEngine::run_batch_columnar`].
    ///
    /// # Errors
    ///
    /// Propagates conversion errors.
    pub fn run_batch(
        &mut self,
        rows: Vec<Sample>,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<ConvertedBatch> {
        let sample_batch = SampleBatch::new(rows);
        let mut converted = self.convert(&sample_batch, metrics)?;
        self.finish_batch(&mut converted, metrics);
        Ok(converted)
    }

    /// Runs convert + process over one coalesced columnar chunk — the unit
    /// of compute work a streaming worker claims. Output is value-identical
    /// to [`PhaseEngine::run_batch`] over the same rows.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors.
    pub fn run_batch_columnar(
        &mut self,
        rows: &ColumnarBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<ConvertedBatch> {
        let mut converted = self.convert_columnar(rows, metrics)?;
        self.finish_batch(&mut converted, metrics);
        Ok(converted)
    }

    /// Runs convert + process into a recycled shell — the fully
    /// buffer-reusing unit of compute work: converted tensors land in the
    /// shell's buffers and the flat process phase edits them in place, so a
    /// steady-state batch allocates nothing. Output is value-identical to
    /// [`PhaseEngine::run_batch_columnar`].
    ///
    /// # Errors
    ///
    /// Propagates conversion errors; on error the shell's contents are
    /// unspecified.
    pub fn run_batch_columnar_into(
        &mut self,
        rows: &ColumnarBatch,
        out: &mut ConvertedBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<()> {
        self.convert_columnar_into(rows, out, metrics)?;
        self.finish_batch(out, metrics);
        Ok(())
    }

    /// Shared tail of the `run_batch` flavors: the process phase plus the
    /// batch-level accounting.
    fn finish_batch(&mut self, converted: &mut ConvertedBatch, metrics: &mut ReaderMetrics) {
        self.process(converted, metrics);
        metrics.samples += converted.batch_size;
        metrics.batches += 1;
        metrics.egress_bytes += converted.sparse_payload_bytes() + converted.dense.payload_bytes();
    }
}
