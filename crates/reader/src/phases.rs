//! The reader's phase logic — fill, convert (O3), process (O4) — as run by
//! the streaming `recd-dpp` service's fill and compute workers: one
//! spelling per phase.

use crate::metrics::ReaderMetrics;
use crate::transforms::{PreprocessPipeline, TransformScratch};
use recd_core::{ConvertedBatch, DataLoaderConfig, DedupScratch, FeatureConverter};
use recd_data::{ColumnarBatch, RowRuns, Schema};
use recd_storage::{FileReadScratch, TableStore};
use std::borrow::Borrow;
use std::time::Instant;

/// Configuration of the reader phases.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Training batch size the reader assembles.
    pub batch_size: usize,
    /// DataLoader specification (which features become KJTs vs IKJTs). The
    /// RecD deduplicating conversion (O3) is on exactly when it declares
    /// dedup groups; [`DataLoaderConfig::baseline_from_schema`] turns it off.
    pub dataloader: DataLoaderConfig,
}

impl ReaderConfig {
    /// Creates a reader configuration.
    pub fn new(batch_size: usize, dataloader: DataLoaderConfig) -> Self {
        Self {
            batch_size: batch_size.max(1),
            dataloader,
        }
    }
}

/// Fill phase over a single file: fetch the blob, decompress, and decode
/// straight into flat column buffers of a caller-provided (typically
/// pool-recycled) batch — no per-row `Sample` is ever materialized. This is
/// the unit of fill work a streaming fill worker claims. The blob is fetched
/// into the scratch's recycled buffer and decoded straight from it (footer
/// parsed in place, stripes decoded onto the end of `out`), so once the
/// scratch and the batch have each held a file this large, a fill performs
/// no heap allocation. On error the batch contents are unspecified.
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

/// The convert + process engine of one streaming compute worker: owns the
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

    /// Runs convert + process over one columnar batch into a recycled
    /// shell: [`PhaseEngine::run_runs_into`] over the batch as one run.
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
        self.run_runs_into(&RowRuns::new(&[(rows, 0..rows.len())]), out, metrics)
    }

    /// Runs convert + process over one batch's rows, read in place through
    /// a view, into a recycled shell — the unit of compute work a streaming
    /// worker claims. The flat process phase edits the tensors in place, so
    /// a steady-state batch allocates nothing; samples, batches and egress
    /// bytes are recorded beside the per-phase metrics.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors; on error the shell's contents are
    /// unspecified.
    pub fn run_runs_into<B: Borrow<ColumnarBatch>>(
        &mut self,
        rows: &RowRuns<B>,
        out: &mut ConvertedBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<()> {
        self.convert_runs_into(rows, out, metrics)?;
        self.process(out, metrics);
        metrics.samples += out.batch_size;
        metrics.batches += 1;
        metrics.egress_bytes += out.sparse_payload_bytes() + out.dense.payload_bytes();
        Ok(())
    }

    /// Convert phase (O3): rows → KJT/IKJT tensors, reusing the shell's
    /// buffers and the engine's dedup scratch. `items` counts the kept
    /// IKJTs' logical values — what duplicate detection would hash with no
    /// repeat hints (zero without dedup groups); `bytes` is the tensor
    /// payload materialized. Every configured group missing from the
    /// batch's IKJTs shipped as KJT and counts as a fallback.
    fn convert_runs_into<B: Borrow<ColumnarBatch>>(
        &mut self,
        rows: &RowRuns<B>,
        out: &mut ConvertedBatch,
        metrics: &mut ReaderMetrics,
    ) -> recd_core::Result<()> {
        let start = Instant::now();
        self.converter
            .convert_runs_into(rows, &mut self.dedup_scratch, out)?;
        let hashed_values: usize = out.ikjts.iter().map(|i| i.original_value_count()).sum();
        metrics.fallback_groups += self.config.dataloader.dedup_groups.len() - out.ikjts.len();
        metrics
            .convert
            .record(start.elapsed(), out.sparse_payload_bytes(), hashed_values);
        Ok(())
    }

    /// Process phase (O4): run the preprocessing pipeline over the converted
    /// tensors, flat and in place, reusing the engine's scratch buffers.
    fn process(&mut self, batch: &mut ConvertedBatch, metrics: &mut ReaderMetrics) {
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
}
