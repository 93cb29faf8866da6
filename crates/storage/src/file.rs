//! The DWRF-like file: a sequence of compressed stripes plus a footer.

use crate::stripe::{
    check_decoded, decode_stripe_append, encode_stripe, DecodeScratch, StripeStats,
};
use crate::{Result, StorageError};
use recd_codec::{varint, Hasher64};
use recd_data::{ColumnarBatch, Sample, Schema};
use serde::{Deserialize, Serialize};

/// Fingerprints a schema so a file records which schema wrote it.
fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = Hasher64::new();
    h.write_u64(schema.dense_count() as u64);
    h.write_u64(schema.sparse_count() as u64);
    for spec in schema.sparse_features() {
        h.write_bytes(spec.name.as_bytes());
    }
    h.finish()
}

/// Metadata about one stripe within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeFooter {
    /// Byte offset of the stripe within the file body.
    pub offset: usize,
    /// Compressed length of the stripe in bytes.
    pub length: usize,
    /// Number of rows in the stripe.
    pub rows: usize,
}

/// Reusable scratch for the buffer-reusing file reads: the stripe decoder's
/// scratch, reused across stripes and files, and a blob buffer for
/// [`TectonicSim::get_into`](crate::TectonicSim::get_into) so the fetched
/// bytes recycle one allocation too. A fill worker holds one for its whole
/// lifetime.
///
/// What is guaranteed: once the scratch and the output batch have each held
/// a file at least as large (in every buffer) as the one being read,
/// `get_into` + [`read_fetched_columnar_into`](Self::read_fetched_columnar_into)
/// performs no heap allocation. A larger file grows the buffers it outgrows,
/// once.
#[derive(Debug, Default)]
pub struct FileReadScratch {
    decode: DecodeScratch,
    blob: Vec<u8>,
}

impl FileReadScratch {
    /// The recycled blob buffer, for fetching into via
    /// [`TectonicSim::get_into`](crate::TectonicSim::get_into).
    pub fn blob_buf(&mut self) -> &mut Vec<u8> {
        &mut self.blob
    }

    /// The bytes of the most recent fetch into [`blob_buf`](Self::blob_buf).
    pub fn blob(&self) -> &[u8] {
        &self.blob
    }

    /// Detaches the blob buffer, leaving an empty one behind. Lets a pool
    /// own the allocation across worker lifetimes: a retiring fill worker
    /// takes the buffer out of its scratch and recycles it, and a respawned
    /// worker installs a pooled one instead of growing a cold `Vec` again.
    pub fn take_blob(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.blob)
    }

    /// Installs a (typically pooled) blob buffer, returning the previous
    /// one.
    pub fn install_blob(&mut self, blob: Vec<u8>) -> Vec<u8> {
        std::mem::replace(&mut self.blob, blob)
    }

    /// Decodes the serialized file last fetched into
    /// [`blob_buf`](Self::blob_buf) into `out`, clearing it first — the same
    /// rows as [`DwrfFile::from_blob`] + [`DwrfFile::read_all_columnar_into`]
    /// but straight from the borrowed bytes: the footer is parsed in place
    /// and each stripe is read out of the blob, so no body copy and no
    /// footer `Vec` is made per file. On error the batch contents are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError`] if the blob is truncated or inconsistent,
    /// was written with a different schema, or a stripe fails to decode.
    pub fn read_fetched_columnar_into(
        &mut self,
        schema: &Schema,
        out: &mut ColumnarBatch,
    ) -> Result<()> {
        let view = BlobView::parse(&self.blob)?;
        read_stripes_into(
            schema,
            view.schema_fingerprint,
            view.body,
            view.stripes(),
            &mut self.decode,
            out,
        )
    }
}

/// A serialized file parsed in place: the header fields, the still-encoded
/// stripe footers, and the body, all borrowed from the blob.
/// [`BlobView::parse`] has validated every footer against the body, so
/// [`BlobView::stripes`] yields only in-range stripes.
struct BlobView<'a> {
    schema_fingerprint: u64,
    stripe_count: usize,
    footers: &'a [u8],
    body: &'a [u8],
}

impl<'a> BlobView<'a> {
    fn parse(blob: &'a [u8]) -> Result<Self> {
        let mut pos = 0usize;
        let schema_fingerprint = varint::read_u64(blob, &mut pos)?;
        let stripe_count = varint::read_u64(blob, &mut pos)?;
        // Walk the footers once: where they end, the furthest byte any
        // stripe claims, and the row total. A count the blob cannot hold
        // runs out of varints.
        let footers_start = pos;
        let mut furthest = Some(0u64);
        let mut total_rows = Some(0usize);
        for _ in 0..stripe_count {
            let offset = varint::read_u64(blob, &mut pos)?;
            let length = varint::read_u64(blob, &mut pos)?;
            let rows = varint::read_u64(blob, &mut pos)?;
            furthest = furthest.and_then(|f| Some(f.max(offset.checked_add(length)?)));
            total_rows = total_rows.and_then(|t| t.checked_add(usize::try_from(rows).ok()?));
        }
        if total_rows.is_none() {
            return Err(StorageError::corrupt("stripe row counts overflow"));
        }
        let footers = &blob[footers_start..pos];
        let body_len = varint::read_u64(blob, &mut pos)?;
        let body = usize::try_from(body_len)
            .ok()
            .and_then(|len| blob.get(pos..pos.checked_add(len)?))
            .ok_or_else(|| StorageError::corrupt("file body truncated"))?;
        if furthest.is_none_or(|f| f > body_len) {
            return Err(StorageError::corrupt(
                "stripe footer points past the file body",
            ));
        }
        Ok(Self {
            schema_fingerprint,
            // Every footer took at least three of the blob's bytes.
            stripe_count: stripe_count as usize,
            footers,
            body,
        })
    }

    fn stripes(&self) -> impl Iterator<Item = StripeFooter> + 'a {
        let footers = self.footers;
        let mut pos = 0usize;
        let mut next = move || {
            varint::read_u64(footers, &mut pos).expect("parse walked these footers") as usize
        };
        (0..self.stripe_count).map(move |_| StripeFooter {
            offset: next(),
            length: next(),
            rows: next(),
        })
    }
}

/// Decodes the stripes `footers` names out of `body`, in order, each one
/// straight onto the end of `out` (reset first), and validates the finished
/// batch once.
fn read_stripes_into(
    schema: &Schema,
    file_fingerprint: u64,
    body: &[u8],
    footers: impl Iterator<Item = StripeFooter>,
    decode: &mut DecodeScratch,
    out: &mut ColumnarBatch,
) -> Result<()> {
    let actual = schema_fingerprint(schema);
    if actual != file_fingerprint {
        return Err(StorageError::SchemaMismatch {
            expected: file_fingerprint,
            actual,
        });
    }
    out.reset(schema.dense_count(), schema.sparse_count());
    for footer in footers {
        decode_stripe_append(
            &body[footer.offset..footer.offset + footer.length],
            decode,
            out,
        )?;
    }
    check_decoded(out)
}

/// An in-memory DWRF-like file: stripes plus footer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DwrfFile {
    body: Vec<u8>,
    stripes: Vec<StripeFooter>,
    schema_fingerprint: u64,
}

impl DwrfFile {
    /// Number of stripes in the file.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Total number of rows across all stripes.
    pub fn row_count(&self) -> usize {
        self.stripes.iter().map(|s| s.rows).sum()
    }

    /// Stored (compressed) size of the file in bytes, footer included.
    pub fn stored_bytes(&self) -> usize {
        self.body.len() + self.stripes.len() * 24 + 16
    }

    /// Stripe footers.
    pub fn stripe_footers(&self) -> &[StripeFooter] {
        &self.stripes
    }

    /// Decodes every stripe, in file order, into a caller-provided
    /// (typically recycled) batch, clearing it first. Each stripe decodes
    /// straight onto the end of `out`; with a [`FileReadScratch`] and a
    /// batch that have both already held a file this large, the read
    /// performs no heap allocation. On error the batch contents are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchemaMismatch`] if `schema` differs from the
    /// writer's schema, or a decode error for corrupt data.
    pub fn read_all_columnar_into(
        &self,
        schema: &Schema,
        scratch: &mut FileReadScratch,
        out: &mut ColumnarBatch,
    ) -> Result<()> {
        read_stripes_into(
            schema,
            self.schema_fingerprint,
            &self.body,
            self.stripes.iter().copied(),
            &mut scratch.decode,
            out,
        )
    }

    /// Serializes the file (body + footer) into one blob for the blob store.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut blob = Vec::with_capacity(self.stored_bytes());
        varint::encode_u64(self.schema_fingerprint, &mut blob);
        varint::encode_u64(self.stripes.len() as u64, &mut blob);
        for s in &self.stripes {
            varint::encode_u64(s.offset as u64, &mut blob);
            varint::encode_u64(s.length as u64, &mut blob);
            varint::encode_u64(s.rows as u64, &mut blob);
        }
        varint::encode_u64(self.body.len() as u64, &mut blob);
        blob.extend_from_slice(&self.body);
        blob
    }

    /// Deserializes a blob produced by [`DwrfFile::to_blob`].
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError`] if the blob is truncated or inconsistent.
    pub fn from_blob(blob: &[u8]) -> Result<Self> {
        let view = BlobView::parse(blob)?;
        Ok(Self {
            body: view.body.to_vec(),
            stripes: view.stripes().collect(),
            schema_fingerprint: view.schema_fingerprint,
        })
    }
}

/// Writes samples into a [`DwrfFile`], one stripe per `rows_per_stripe` rows.
#[derive(Debug)]
pub struct DwrfWriter<'a> {
    schema: &'a Schema,
    rows_per_stripe: usize,
    body: Vec<u8>,
    stripes: Vec<StripeFooter>,
    stats: Vec<StripeStats>,
}

impl<'a> DwrfWriter<'a> {
    /// Creates a writer.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_stripe` is zero.
    pub fn new(schema: &'a Schema, rows_per_stripe: usize) -> Self {
        assert!(rows_per_stripe > 0, "rows_per_stripe must be positive");
        Self {
            schema,
            rows_per_stripe,
            body: Vec::new(),
            stripes: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Appends samples, cutting a stripe every `rows_per_stripe` rows.
    pub fn write(&mut self, samples: &[Sample]) {
        for chunk in samples.chunks(self.rows_per_stripe) {
            let (block, stats) = encode_stripe(self.schema, chunk);
            let offset = self.body.len();
            self.body.extend_from_slice(&block);
            self.stripes.push(StripeFooter {
                offset,
                length: block.len(),
                rows: chunk.len(),
            });
            self.stats.push(stats);
        }
    }

    /// Per-stripe statistics collected so far.
    pub fn stripe_stats(&self) -> &[StripeStats] {
        &self.stats
    }

    /// Finalizes the file.
    pub fn finish(self) -> (DwrfFile, Vec<StripeStats>) {
        (
            DwrfFile {
                body: self.body,
                stripes: self.stripes,
                schema_fingerprint: schema_fingerprint(self.schema),
            },
            self.stats,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stripe::oracle;
    use crate::stripe::tests::{build_table, table_strategy};
    use proptest::prelude::*;
    use recd_data::FeatureClass;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};

    fn partition() -> (Schema, Vec<Sample>) {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let p = gen.generate_partition();
        (p.schema, p.samples)
    }

    /// Every row of `file`, in file order.
    pub(crate) fn read_rows(file: &DwrfFile, schema: &Schema) -> Result<Vec<Sample>> {
        let mut out = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
        file.read_all_columnar_into(schema, &mut FileReadScratch::default(), &mut out)?;
        Ok(out.to_samples())
    }

    #[test]
    fn write_read_round_trip() {
        let (schema, samples) = partition();
        let mut writer = DwrfWriter::new(&schema, 32);
        writer.write(&samples);
        let (file, stats) = writer.finish();
        assert_eq!(file.row_count(), samples.len());
        assert_eq!(file.stripe_count(), samples.len().div_ceil(32));
        assert_eq!(stats.len(), file.stripe_count());
        assert_eq!(file.stripe_footers()[0].rows, 32);
        assert_eq!(read_rows(&file, &schema).unwrap(), samples);
    }

    #[test]
    fn blob_round_trip_and_truncation_errors() {
        let (schema, samples) = partition();
        let mut writer = DwrfWriter::new(&schema, 16);
        writer.write(&samples[..48]);
        let (file, _) = writer.finish();
        let blob = file.to_blob();
        let back = DwrfFile::from_blob(&blob).unwrap();
        assert_eq!(back, file);
        assert_eq!(read_rows(&back, &schema).unwrap(), &samples[..48]);
        assert!(DwrfFile::from_blob(&blob[..blob.len() / 2]).is_err());
        assert!(DwrfFile::from_blob(&[]).is_err());
    }

    /// The read path this module shipped before in-place decode: every
    /// stripe staged in its own batch by the value-at-a-time oracle, then
    /// appended.
    fn read_all_staged(file: &DwrfFile, schema: &Schema) -> ColumnarBatch {
        let mut out = ColumnarBatch::new(schema.dense_count(), schema.sparse_count());
        for footer in &file.stripes {
            let block = &file.body[footer.offset..footer.offset + footer.length];
            out.append(&oracle::decode_stripe_staged(schema, block).unwrap())
                .unwrap();
        }
        out
    }

    /// Asserts the owned-file read and the borrowed-blob read both equal the
    /// staged oracle, into a batch that already held other rows.
    fn assert_reads_match_staged(file: &DwrfFile, schema: &Schema) -> ColumnarBatch {
        let staged = read_all_staged(file, schema);
        let mut scratch = FileReadScratch::default();
        let mut out = staged.clone();
        file.read_all_columnar_into(schema, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, staged);
        scratch.blob_buf().extend_from_slice(&file.to_blob());
        scratch
            .read_fetched_columnar_into(schema, &mut out)
            .unwrap();
        assert_eq!(out, staged);
        assert_eq!(DwrfFile::from_blob(scratch.blob()).unwrap(), *file);
        staged
    }

    proptest! {
        #[test]
        fn in_place_file_reads_match_the_staged_oracle(
            (dense_cols, sparse_cols, raw) in table_strategy(),
            rows_per_stripe in 1usize..20,
        ) {
            let (schema, samples) = build_table(dense_cols, sparse_cols, &raw);
            let mut writer = DwrfWriter::new(&schema, rows_per_stripe);
            writer.write(&samples);
            let (file, _) = writer.finish();
            let rows = assert_reads_match_staged(&file, &schema);
            prop_assert_eq!(rows.to_samples(), samples);
        }
    }

    #[test]
    fn empty_stripes_anywhere_in_a_file_decode_to_no_rows() {
        let (schema, samples) = partition();
        // The writer never cuts an empty stripe, so splice them in by hand:
        // first, between two full stripes, and last.
        let mut file = DwrfFile {
            body: Vec::new(),
            stripes: Vec::new(),
            schema_fingerprint: schema_fingerprint(&schema),
        };
        for rows in [
            &samples[..0],
            &samples[..16],
            &samples[..0],
            &samples[16..40],
            &samples[..0],
        ] {
            let (block, _) = encode_stripe(&schema, rows);
            file.stripes.push(StripeFooter {
                offset: file.body.len(),
                length: block.len(),
                rows: rows.len(),
            });
            file.body.extend_from_slice(&block);
        }
        let rows = assert_reads_match_staged(&file, &schema);
        assert_eq!(rows.to_samples(), &samples[..40]);
    }

    #[test]
    fn footers_the_blob_cannot_back_are_corrupt_not_allocations() {
        let (schema, samples) = partition();
        let mut writer = DwrfWriter::new(&schema, 16);
        writer.write(&samples[..32]);
        let (file, _) = writer.finish();
        let forge = |stripe_count: u64, offset: u64, length: u64, rows: u64, body_len: u64| {
            let mut blob = Vec::new();
            varint::encode_u64(file.schema_fingerprint, &mut blob);
            varint::encode_u64(stripe_count, &mut blob);
            for v in [offset, length, rows] {
                varint::encode_u64(v, &mut blob);
            }
            varint::encode_u64(body_len, &mut blob);
            blob.extend_from_slice(&file.body);
            blob
        };
        let body_len = file.body.len() as u64;
        // The honest single-stripe blob parses.
        assert!(DwrfFile::from_blob(&forge(1, 0, body_len, 16, body_len)).is_ok());
        for forged in [
            forge(1 << 60, 0, body_len, 16, body_len),
            forge(1, u64::MAX, 2, 16, body_len),
            forge(1, 1, body_len, 16, body_len),
            forge(1, 0, body_len, 16, u64::MAX),
            forge(1, 0, body_len, 16, body_len + 1),
        ] {
            assert!(DwrfFile::from_blob(&forged).is_err());
        }
        // Row counts that overflow when summed.
        let mut blob = Vec::new();
        varint::encode_u64(file.schema_fingerprint, &mut blob);
        varint::encode_u64(2, &mut blob);
        for v in [0, 0, u64::MAX, 0, 0, 1, 0] {
            varint::encode_u64(v, &mut blob);
        }
        assert!(DwrfFile::from_blob(&blob).is_err());
    }

    #[test]
    fn schema_mismatch_is_detected() {
        let (schema, samples) = partition();
        let mut writer = DwrfWriter::new(&schema, 16);
        writer.write(&samples[..16]);
        let (file, _) = writer.finish();
        let other = Schema::builder()
            .sparse("other", FeatureClass::User, 1.0, 0.5, 100)
            .build()
            .unwrap();
        assert!(matches!(
            read_rows(&file, &other),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "rows_per_stripe must be positive")]
    fn zero_rows_per_stripe_panics() {
        let (schema, _) = partition();
        DwrfWriter::new(&schema, 0);
    }
}
