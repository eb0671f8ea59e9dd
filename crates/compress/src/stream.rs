//! Streaming archive sessions over `std::io` streams.
//!
//! The one-shot API ([`crate::compress`] / [`crate::decompress`]) is
//! buffer-in/buffer-out: peak memory is on the order of the uncompressed
//! field *plus* the archive. This module provides the session form of the
//! same pipeline, designed for fields larger than RAM:
//!
//! * [`ArchiveWriter`] accepts axis-0 slabs incrementally, runs the
//!   per-chunk codec scheduler (including [`CodecChoice::Auto`]) on each
//!   slab as it arrives using the worker pool, and writes container
//!   **v2.2** — chunk blobs first, chunk index in a trailer — so nothing
//!   but the small index and at most a slab's worth of carry-over rows is
//!   ever buffered. The sink only needs [`Write`]; archives can stream
//!   into a pipe.
//! * [`ArchiveReader`] parses the header and chunk index lazily from any
//!   [`Read`]` + `[`Seek`] source (all five container generations) and
//!   decodes on demand: [`ArchiveReader::read_all`],
//!   [`ArchiveReader::read_chunk`], and [`ArchiveReader::read_rows`],
//!   which touches only the chunks intersecting the requested row range
//!   (verifiable through [`ArchiveReader::stats`]). With
//!   [`ArchiveReader::with_threads`] decoding fans out to a worker pool
//!   behind a bounded read-ahead window, and
//!   [`ArchiveReader::decompress_rows`] /
//!   [`ArchiveReader::decompress_to_writer`] stream the field out in row
//!   order without ever holding it resident.
//! * [`ConcurrentReader`] is the shareable form of the reader: one open
//!   archive handle, cloneable across threads, serving overlapping
//!   `read_rows`/`read_chunk` requests with per-request [`ReadStats`].
//!
//! The per-chunk encode core (`SlabEncoder`, crate-internal) is shared
//! with the one-shot chunked pipeline, so a v2.2 archive's chunk blobs
//! are byte-identical to the blobs a v2/v2.1 container would hold for the
//! same chunk partition, and the one-shot functions are thin wrappers
//! over the same machinery.
//!
//! ```
//! use rq_compress::{ArchiveReader, ArchiveWriter, CompressorConfig};
//! use rq_grid::{NdArray, Shape};
//! use rq_predict::PredictorKind;
//! use rq_quant::ErrorBoundMode;
//!
//! let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
//!     .chunked(8);
//! // Write four 8-row slabs of a 32×16 field into an in-memory sink
//! // (any `Write` works the same way — a `File`, a socket, a pipe).
//! let mut writer = ArchiveWriter::<f32, _>::create(Vec::new(), Shape::d2(32, 16), &cfg).unwrap();
//! for slab_idx in 0..4 {
//!     let slab = NdArray::<f32>::from_fn(Shape::d2(8, 16), |ix| {
//!         (((slab_idx * 8 + ix[0]) as f32) * 0.2).sin() + ix[1] as f32 * 0.01
//!     });
//!     writer.write_slab(&slab).unwrap();
//! }
//! let finished = writer.finalize().unwrap();
//!
//! // Random-access region read: only intersecting chunks are decoded.
//! let mut reader = ArchiveReader::open(std::io::Cursor::new(finished.sink)).unwrap();
//! let rows = reader.read_rows::<f32>(10..22).unwrap();
//! assert_eq!(rows.shape().dims(), &[12, 16]);
//! assert_eq!(reader.stats().chunks_decoded, 2); // rows 10..22 span chunks 1 and 2
//! ```

use crate::chunked::{decode_entry_blob, entry_shape, run_on_workers, ChunkTotals};
use crate::codec::{ChunkCodec, ChunkStats, SzChunkCodec, ZfpChunkCodec};
use crate::config::{CodecChoice, CompressorConfig, LosslessStage};
use crate::container::{
    read_archive_layout, read_span_into, write_header_prefix, write_trailer, ChunkCodecKind,
    ChunkEntry, ChunkTable, CompressError, DecompressError, Header, VERSION_V2_2, VERSION_V2_3,
    VERSION_V2_4,
};
use crate::mmap::SourceMap;
use crate::pipeline::{resolve_bound, Transform};
use crate::pool::{BytePool, SlabPool};
use crate::report::CompressionReport;
use rq_grid::{slab_chunks, ChunkSpec, NdArray, Scalar, Shape, MAX_DIMS};
use rq_predict::PredictorKind;
use rq_quant::{ErrorBoundMode, LinearQuantizer};
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

// ---------------------------------------------------------------------------
// Shared per-chunk encode core
// ---------------------------------------------------------------------------

/// One encoded chunk produced by [`SlabEncoder::encode_chunks`].
pub(crate) struct EncodedChunk {
    pub rows: usize,
    pub codec: ChunkCodecKind,
    pub blob: Vec<u8>,
    pub stats: ChunkStats,
    /// Absolute bound this chunk was quantized with (the shared bound, or
    /// the chunk's planned bound in quality-targeted mode).
    pub eb: f64,
}

/// The per-chunk encode core shared by the one-shot chunked pipeline and
/// the streaming [`ArchiveWriter`]: codec policy resolution (fixed sz,
/// fixed zfp, or the ratio-driven scheduler) plus the worker pool.
///
/// Encoding is a pure function of `(chunk data, chunk shape)` and this
/// struct's configuration, so container bytes are independent of both the
/// worker-thread count and of how rows were batched into `write_slab`
/// calls.
pub(crate) struct SlabEncoder {
    pub predictor: PredictorKind,
    pub quantizer: LinearQuantizer,
    pub abs_eb: f64,
    pub transform: Transform,
    pub lossless: LosslessStage,
    pub codec: CodecChoice,
    pub radius: u32,
    pub threads: usize,
}

impl SlabEncoder {
    /// Build the encoder from a config and the resolved bound/transform.
    pub fn from_cfg(
        cfg: &CompressorConfig,
        abs_eb: f64,
        transform: Transform,
    ) -> Result<SlabEncoder, CompressError> {
        if cfg.codec == CodecChoice::Zfp && transform != Transform::Identity {
            return Err(CompressError::Unsupported(
                "point-wise relative bounds need the sz codec (zfp has no log-domain escape \
                 path); use codec sz or auto"
                    .into(),
            ));
        }
        Ok(SlabEncoder {
            predictor: cfg.predictor,
            quantizer: LinearQuantizer::new(abs_eb, cfg.radius),
            abs_eb,
            transform,
            lossless: cfg.lossless,
            codec: cfg.codec,
            radius: cfg.radius,
            threads: cfg.resolved_threads(),
        })
    }

    /// Encode a batch of chunks of `data` concurrently on the worker
    /// pool, every chunk under the encoder's shared bound. Results come
    /// back in chunk order.
    pub fn encode_chunks<T: Scalar>(
        &self,
        data: &[T],
        chunks: Vec<ChunkSpec>,
    ) -> Result<Vec<EncodedChunk>, CompressError> {
        let ebs = vec![self.abs_eb; chunks.len()];
        self.encode_chunks_planned(data, chunks, &ebs)
    }

    /// [`Self::encode_chunks`] with one absolute bound per chunk (the
    /// quality-targeted v2.3 path; `ebs.len()` must equal `chunks.len()`).
    /// Each chunk's quantizer/tolerance — and, under
    /// [`CodecChoice::Auto`], the scheduler's decision — uses that chunk's
    /// bound, so blob bytes for a uniform plan equal the fixed-bound path
    /// exactly.
    pub fn encode_chunks_planned<T: Scalar>(
        &self,
        data: &[T],
        chunks: Vec<ChunkSpec>,
        ebs: &[f64],
    ) -> Result<Vec<EncodedChunk>, CompressError> {
        debug_assert_eq!(chunks.len(), ebs.len());
        let items: Vec<(ChunkSpec, f64)> =
            chunks.into_iter().zip(ebs.iter().copied()).collect();
        run_on_workers(items, self.threads, |(c, eb)| -> Result<EncodedChunk, CompressError> {
            let sz = SzChunkCodec::new(
                self.predictor,
                LinearQuantizer::new(eb, self.radius),
                self.lossless,
            )
            .with_transform(self.transform);
            let zfp = ZfpChunkCodec::new(eb);
            let rolz = crate::rolz::RolzChunkCodec::new(
                self.predictor,
                LinearQuantizer::new(eb, self.radius),
            )
            .with_transform(self.transform);
            let slab = &data[c.offset..c.offset + c.len];
            // `ready` carries the scheduler's probe stream when it already
            // compressed the whole (small) slab — no second zfp pass then.
            let (kind, ready) = match self.codec {
                CodecChoice::Sz => (ChunkCodecKind::Sz, None),
                CodecChoice::Zfp => (ChunkCodecKind::Zfp, None),
                CodecChoice::Rolz => (ChunkCodecKind::Rolz, None),
                CodecChoice::Auto => {
                    if self.transform != Transform::Identity {
                        // Log-domain configs: the probes are not
                        // calibrated, every chunk stays on SZ.
                        (ChunkCodecKind::Sz, None)
                    } else {
                        let (decision, blob) = crate::scheduler::choose_codec_with_blob(
                            slab,
                            c.shape,
                            self.predictor,
                            eb,
                            self.radius,
                        );
                        (decision.codec, blob)
                    }
                }
            };
            let (blob, stats) = match (kind, ready) {
                (ChunkCodecKind::Zfp, Some(blob)) => (blob, ChunkStats::default()),
                (ChunkCodecKind::Sz, _) => ChunkCodec::<T>::encode(&sz, slab, c.shape)?,
                (ChunkCodecKind::Zfp, None) => ChunkCodec::<T>::encode(&zfp, slab, c.shape)?,
                (ChunkCodecKind::Rolz, _) => ChunkCodec::<T>::encode(&rolz, slab, c.shape)?,
            };
            Ok(EncodedChunk { rows: c.rows, codec: kind, blob, stats, eb })
        })
    }
}

// ---------------------------------------------------------------------------
// ArchiveWriter
// ---------------------------------------------------------------------------

/// A finalized streaming archive: the sink handed back, plus the final
/// compression report and total archive size.
pub struct FinishedArchive<W> {
    /// The sink passed to [`ArchiveWriter::create`], flushed, positioned
    /// after the last trailer byte.
    pub sink: W,
    /// Aggregated per-stage measurements, as the one-shot
    /// [`crate::compress_with_report`] would return them.
    pub report: CompressionReport,
    /// Total archive bytes written (header + blobs + trailer).
    pub bytes_written: u64,
}

/// Incremental compression session writing container v2.2 to any
/// [`Write`] sink with bounded memory.
///
/// Created with the full field [`Shape`] up front (the header is written
/// immediately); axis-0 slabs then arrive through
/// [`ArchiveWriter::write_slab`] in row order, are cut into
/// `cfg.chunking` chunks, compressed on the worker pool, and their blobs
/// appended to the sink right away. [`ArchiveWriter::finalize`] flushes
/// the final partial chunk and appends the trailer chunk index.
///
/// Peak memory is `O(slab + chunk_rows)` elements of carry-over plus the
/// per-thread encoder state — independent of the field and archive sizes.
///
/// Two configuration limits follow from single-pass operation:
///
/// * [`ErrorBoundMode::ValueRangeRelative`] needs the whole field's value
///   range before the first slab can be quantized, so `create` rejects it
///   with [`CompressError::InvalidConfig`]; resolve it to an absolute
///   bound first (one streaming min/max pass) or use the one-shot API.
/// * [`Chunking::Serial`](crate::Chunking::Serial) degenerates to one
///   whole-field chunk, which forces the writer to buffer every row until
///   `finalize` — legal, but it defeats the point; chunk the config.
///
/// See the [module docs](self) for a complete write/read example.
pub struct ArchiveWriter<T: Scalar, W: Write> {
    sink: W,
    shape: Shape,
    row_elems: usize,
    chunk_rows: usize,
    enc: SlabEncoder,
    /// Container generation this session writes (see `create_inner`);
    /// decides whether the trailer index carries the per-chunk eb column.
    version: u8,
    /// Per-chunk planned bounds (quality-targeted mode ⇒ container v2.3+);
    /// `None` writes the shared bound into every chunk.
    plan: Option<Vec<f64>>,
    /// Carry-over rows not yet forming a complete chunk.
    buf: Vec<T>,
    /// Rows already encoded and written.
    rows_done: usize,
    /// Chunk index accumulated for the trailer: (rows, codec, blob len,
    /// eb).
    index: Vec<(usize, ChunkCodecKind, usize, f64)>,
    /// Statistics of the chunks written so far.
    totals: ChunkTotals,
    bytes_written: u64,
}

impl<T: Scalar, W: Write> ArchiveWriter<T, W> {
    /// Open a session: validate `cfg`, resolve the bound, and write the
    /// container header to `sink`.
    ///
    /// Fails with [`CompressError::InvalidConfig`] for configurations a
    /// single pass cannot honor (see the type docs) and for structurally
    /// invalid configs such as a literal `Chunking::Rows(0)`.
    pub fn create(sink: W, shape: Shape, cfg: &CompressorConfig) -> Result<Self, CompressError> {
        cfg.validate().map_err(CompressError::InvalidConfig)?;
        if matches!(cfg.bound, ErrorBoundMode::ValueRangeRelative(_)) {
            return Err(CompressError::InvalidConfig(
                "a value-range-relative bound needs the whole field's range before the first \
                 slab; resolve it to ErrorBoundMode::Abs first or use the one-shot compress"
                    .into(),
            ));
        }
        // The bound is range-independent here (checked above), so the
        // range argument is never read.
        let (abs_eb, transform) = resolve_bound(cfg, f64::NAN)?;
        Self::create_resolved(sink, shape, cfg, abs_eb, transform)
    }

    /// Open a **quality-targeted** session: one absolute error bound per
    /// axis-0 chunk, producing container v2.3 (the per-chunk bounds are
    /// recorded next to the codec tags in the trailer index and are
    /// authoritative for decoding).
    ///
    /// `ebs` must hold exactly one finite positive bound per chunk of the
    /// partition `cfg`'s chunking resolves to for `shape` (see
    /// [`crate::chunked::resolved_chunk_rows`]); the header's `abs_eb`
    /// records `max(ebs)` — the archive-wide worst-case pointwise
    /// guarantee. `cfg.bound` is ignored: planned bounds are always
    /// absolute, so point-wise relative configs are rejected with
    /// [`CompressError::InvalidConfig`].
    pub fn create_planned(
        sink: W,
        shape: Shape,
        cfg: &CompressorConfig,
        ebs: Vec<f64>,
    ) -> Result<Self, CompressError> {
        cfg.validate().map_err(CompressError::InvalidConfig)?;
        if matches!(cfg.bound, ErrorBoundMode::PointwiseRelative(_)) {
            return Err(CompressError::InvalidConfig(
                "per-chunk planned bounds are absolute; a point-wise relative config cannot \
                 be planned"
                    .into(),
            ));
        }
        let chunk_rows = crate::chunked::resolve_chunk_rows(cfg, shape);
        let n_chunks = shape.dim(0).div_ceil(chunk_rows);
        if ebs.len() != n_chunks {
            return Err(CompressError::InvalidConfig(format!(
                "plan has {} bounds but the chunking yields {} chunks ({} rows each over {} \
                 rows)",
                ebs.len(),
                n_chunks,
                chunk_rows,
                shape.dim(0)
            )));
        }
        let mut max_eb = 0.0f64;
        for (i, &eb) in ebs.iter().enumerate() {
            if !(eb.is_finite() && eb > 0.0) {
                return Err(CompressError::InvalidBound(format!(
                    "planned bound for chunk {i} is {eb}"
                )));
            }
            max_eb = max_eb.max(eb);
        }
        Self::create_inner(sink, shape, cfg, max_eb, Transform::Identity, Some(ebs))
    }

    /// `create` with the bound already resolved (crate-internal: lets the
    /// CLI resolve a value-range-relative bound via its own streaming
    /// min/max pass and still use the session).
    pub(crate) fn create_resolved(
        sink: W,
        shape: Shape,
        cfg: &CompressorConfig,
        abs_eb: f64,
        transform: Transform,
    ) -> Result<Self, CompressError> {
        Self::create_inner(sink, shape, cfg, abs_eb, transform, None)
    }

    /// Shared constructor: the codec policy and the presence of a
    /// per-chunk plan select the container generation baked into the
    /// header — rolz-capable policies need v2.4 (tag 2 is illegal in the
    /// earlier generations), a plan needs at least v2.3 (per-chunk
    /// bounds), and everything else stays on v2.2 byte for byte.
    fn create_inner(
        mut sink: W,
        shape: Shape,
        cfg: &CompressorConfig,
        abs_eb: f64,
        transform: Transform,
        plan: Option<Vec<f64>>,
    ) -> Result<Self, CompressError> {
        let enc = SlabEncoder::from_cfg(cfg, abs_eb, transform)?;
        let chunk_rows = crate::chunked::resolve_chunk_rows(cfg, shape);
        let version = match cfg.codec {
            CodecChoice::Rolz | CodecChoice::Auto => VERSION_V2_4,
            _ if plan.is_some() => VERSION_V2_3,
            _ => VERSION_V2_2,
        };
        let header = Header {
            version,
            scalar_tag: T::TAG,
            predictor: cfg.predictor,
            lossless: cfg.lossless,
            log_transform: transform != Transform::Identity,
            shape,
            abs_eb,
            radius: cfg.radius,
        };
        let mut head = Vec::with_capacity(96);
        write_header_prefix(&mut head, &header, T::TAG);
        sink.write_all(&head)?;
        let totals = ChunkTotals::new(&enc.quantizer);
        Ok(ArchiveWriter {
            sink,
            shape,
            row_elems: shape.dims()[1..].iter().product::<usize>().max(1),
            chunk_rows,
            enc,
            version,
            plan,
            buf: Vec::new(),
            rows_done: 0,
            index: Vec::new(),
            totals,
            bytes_written: head.len() as u64,
        })
    }

    /// Rows buffered but not yet encoded.
    fn buffered_rows(&self) -> usize {
        self.buf.len() / self.row_elems
    }

    /// Nominal axis-0 rows per chunk this session resolved to.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Archive bytes written so far (header + finished chunk blobs).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Append the next axis-0 slab (rows `rows_so_far..rows_so_far+k`).
    ///
    /// The slab's trailing dimensions must match the field shape given to
    /// [`Self::create`]; its axis-0 extent is free — slab boundaries need
    /// not align with chunk boundaries, the writer carries partial chunks
    /// over. Feeding slabs of several `chunk_rows` at once keeps the
    /// worker pool busy.
    pub fn write_slab(&mut self, slab: &NdArray<T>) -> Result<(), CompressError> {
        let s = slab.shape();
        if s.ndim() != self.shape.ndim() || s.dims()[1..] != self.shape.dims()[1..] {
            return Err(CompressError::InvalidConfig(format!(
                "slab shape {:?} does not match the field's trailing dims {:?}",
                s.dims(),
                self.shape.dims()
            )));
        }
        let total = self.rows_done + self.buffered_rows() + s.dim(0);
        if total > self.shape.dim(0) {
            return Err(CompressError::InvalidConfig(format!(
                "slabs cover {total} rows but the field has {}",
                self.shape.dim(0)
            )));
        }
        self.buf.extend_from_slice(slab.as_slice());
        let complete = self.buffered_rows() / self.chunk_rows * self.chunk_rows;
        if complete > 0 {
            self.encode_rows(complete)?;
        }
        Ok(())
    }

    /// Encode the first `rows` buffered rows as chunks and write them.
    fn encode_rows(&mut self, rows: usize) -> Result<(), CompressError> {
        let elems = rows * self.row_elems;
        let mut dims = [0usize; MAX_DIMS];
        dims[..self.shape.ndim()].copy_from_slice(self.shape.dims());
        dims[0] = rows;
        let batch_shape = Shape::new(&dims[..self.shape.ndim()]);
        let chunks = slab_chunks(batch_shape, self.chunk_rows);
        let encoded = match &self.plan {
            Some(plan) => {
                // Slabs arrive in row order, so the batch's chunks are the
                // next `chunks.len()` entries of the whole-field plan.
                let base = self.index.len();
                let n = chunks.len();
                self.enc.encode_chunks_planned(
                    &self.buf[..elems],
                    chunks,
                    &plan[base..base + n],
                )?
            }
            None => self.enc.encode_chunks(&self.buf[..elems], chunks)?,
        };
        for ec in encoded {
            self.sink.write_all(&ec.blob)?;
            self.bytes_written += ec.blob.len() as u64;
            self.rows_done += ec.rows;
            self.index.push((ec.rows, ec.codec, ec.blob.len(), ec.eb));
            self.totals.add(ec.codec, &ec.stats);
        }
        self.buf.drain(..elems);
        Ok(())
    }

    /// Flush the final partial chunk, write the trailer index, flush the
    /// sink, and hand it back with the aggregated report.
    ///
    /// Fails with [`CompressError::InvalidConfig`] if the slabs written
    /// do not cover the field's axis-0 extent exactly. Dropping the
    /// writer without calling `finalize` leaves the sink without a
    /// trailer — an unreadable archive.
    pub fn finalize(mut self) -> Result<FinishedArchive<W>, CompressError> {
        let rem = self.buffered_rows();
        if rem > 0 {
            self.encode_rows(rem)?;
        }
        if self.rows_done != self.shape.dim(0) {
            return Err(CompressError::InvalidConfig(format!(
                "slabs cover {} of the field's {} rows",
                self.rows_done,
                self.shape.dim(0)
            )));
        }
        let mut trailer = Vec::new();
        let with_eb = matches!(self.version, VERSION_V2_3 | VERSION_V2_4);
        write_trailer(&mut trailer, self.chunk_rows, &self.index, with_eb);
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        self.bytes_written += trailer.len() as u64;
        let report =
            self.totals.into_report(self.shape.len(), T::BITS, self.bytes_written as usize);
        Ok(FinishedArchive { sink: self.sink, report, bytes_written: self.bytes_written })
    }
}

// ---------------------------------------------------------------------------
// ArchiveReader
// ---------------------------------------------------------------------------

/// Decode-side counters of one [`ArchiveReader`] session, for verifying
/// that region reads touch only the chunks they must.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks in the archive's index.
    pub chunks_total: usize,
    /// Chunk blobs decoded so far (a chunk decoded twice counts twice).
    pub chunks_decoded: u64,
    /// Compressed blob bytes fetched from the source so far.
    pub blob_bytes_read: u64,
    /// Chunks decoded into a scratch slab and then copied into place —
    /// only boundary chunks of a row range that crops them mid-chunk.
    /// Chunk-aligned reads decode straight into the destination, so this
    /// stays `0` for them (asserted in the differential tests).
    pub reorder_copies: u64,
}

/// Random-access decompression session over any [`Read`]` + `[`Seek`]
/// source, for all container generations (v1, v2, v2.1, v2.2, v2.3).
///
/// [`Self::open`] reads only the header and chunk index (for v2.2, via
/// the trailer at the end of the source); payload bytes are fetched and
/// decoded on demand by [`Self::read_all`], [`Self::read_chunk`] and
/// [`Self::read_rows`] — the latter decodes exactly the chunks whose row
/// ranges intersect the request, which [`Self::stats`] makes observable.
///
/// # Parallel decode
///
/// [`Self::with_threads`] turns on the streaming decode worker pool:
/// chunk extents are still read **sequentially** off the source (one
/// seek+read per blob, in offset order), but decoding fans out to scoped
/// workers behind a bounded read-ahead window
/// ([`Self::with_read_ahead`]). At most `threads + read_ahead` chunks are
/// in flight at once, so peak memory stays `O(window × chunk)` no matter
/// how large the archive is. All decode paths — [`Self::read_all`],
/// [`Self::read_rows`], [`Self::decompress_rows`] and
/// [`Self::decompress_to_writer`] — use the pool; results are delivered
/// in row order and are byte-identical to the single-threaded decode.
///
/// See the [module docs](self) for a complete write/read example.
pub struct ArchiveReader<R: Read + Seek> {
    src: R,
    /// Memory-mapped view of the source where available (file-backed
    /// readers opened via [`ArchiveReader::open_path`] on platforms with
    /// mmap). Chunk fetches become zero-copy windows of the page cache.
    map: Option<SourceMap>,
    /// Recycled compressed-blob buffers for unmapped fetches.
    blob_pool: BytePool,
    header: Header,
    chunk_rows: usize,
    entries: Vec<ChunkEntry>,
    stats: ReadStats,
    /// Decode worker threads (1 = decode on the calling thread).
    threads: usize,
    /// Extra chunks fetched ahead of the decoders (`None` = `threads`).
    read_ahead: Option<usize>,
}

impl ArchiveReader<std::fs::File> {
    /// Open an archive file directly, memory-mapping it when the
    /// platform allows (Linux): chunk extents are then fetched as
    /// zero-copy windows of the page cache instead of per-chunk
    /// seek+read copies, and the kernel's readahead overlaps faulting
    /// the next extents with decoding the current one. Where no mapping
    /// is available this silently falls back to the seek+read path —
    /// decoded bytes are identical either way.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<Self, DecompressError> {
        let file = std::fs::File::open(path)?;
        let map = SourceMap::map(&file);
        let mut reader = Self::open(file)?;
        reader.map = map;
        Ok(reader)
    }
}

impl<R: Read + Seek> ArchiveReader<R> {
    /// Open an archive: parse the header and locate every chunk, without
    /// reading any payload.
    pub fn open(mut src: R) -> Result<Self, DecompressError> {
        let layout = read_archive_layout(&mut src)?;
        let chunks_total = layout.entries.len();
        Ok(ArchiveReader {
            src,
            map: None,
            blob_pool: BytePool::new(),
            header: layout.header,
            chunk_rows: layout.chunk_rows,
            entries: layout.entries,
            stats: ReadStats { chunks_total, ..ReadStats::default() },
            threads: 1,
            read_ahead: None,
        })
    }

    /// Whether chunk fetches are served zero-copy from a memory-mapped
    /// source (see [`ArchiveReader::open_path`]).
    pub fn is_mapped(&self) -> bool {
        self.map.is_some()
    }

    /// Set the decode worker-thread count (`0` = one per available CPU,
    /// `1` = decode serially on the calling thread). Chunk extents are
    /// always read sequentially; only decoding is parallel, so decoded
    /// output is byte-identical at every thread count.
    ///
    /// The pool is clamped to `available_parallelism`: on a machine with
    /// fewer cores than `threads`, extra workers only add dispatch and
    /// context-switch overhead (measurably *slower* than serial decode on
    /// a 1-CPU host) without any more decode bandwidth to use. Pass the
    /// count through [`Self::with_threads_exact`] to oversubscribe
    /// deliberately.
    pub fn with_threads(self, threads: usize) -> Self {
        let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
        self.with_threads_exact(if threads == 0 { cpus } else { threads.min(cpus) })
    }

    /// [`Self::with_threads`] without the `available_parallelism` clamp:
    /// exactly `threads` workers (`0` is treated as `1`), even beyond the
    /// core count. Decoded bytes are identical either way; this exists so
    /// tests and benchmarks can exercise the pool's reorder/backpressure
    /// machinery on machines with few cores.
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Bound the read-ahead window: at most `threads + read_ahead` chunks
    /// (compressed blob + decoded slab) are in flight at once. Defaults
    /// to `threads`, i.e. a window of `2 × threads` chunks.
    pub fn with_read_ahead(mut self, read_ahead: usize) -> Self {
        self.read_ahead = Some(read_ahead);
        self
    }

    /// The decode worker-thread count in effect.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunks allowed in flight at once (fetch → decode → deliver).
    fn window(&self) -> usize {
        self.threads + self.read_ahead.unwrap_or(self.threads)
    }

    /// The archive's parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Nominal axis-0 rows per chunk (the last chunk may hold fewer).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of independently-decodable chunks.
    pub fn n_chunks(&self) -> usize {
        self.entries.len()
    }

    /// The located chunk entries, in slab order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// The chunk partition in [`ChunkTable`] form (as
    /// [`crate::chunk_table`] returns for in-memory archives).
    pub fn chunk_table(&self) -> ChunkTable {
        ChunkTable { chunk_rows: self.chunk_rows, entries: self.entries.clone() }
    }

    /// Decode counters accumulated since [`Self::open`].
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    fn check_scalar<T: Scalar>(&self) -> Result<(), DecompressError> {
        check_scalar_tag::<T>(&self.header)
    }

    /// Fetch and decode one chunk blob into `out` (`out.len()` must equal
    /// the chunk's element count).
    fn decode_entry_into<T: Scalar>(
        &mut self,
        entry: ChunkEntry,
        cshape: Shape,
        out: &mut [T],
    ) -> Result<(), DecompressError> {
        let Self { ref mut src, ref map, ref blob_pool, ref header, ref mut stats, .. } = *self;
        let mut fetcher =
            Fetcher { src, map: map.as_ref().map(SourceMap::as_slice), pool: blob_pool };
        let blob = fetcher.fetch(entry)?;
        stats.blob_bytes_read += entry.len as u64;
        decode_entry_blob(&blob, header, entry, cshape, out)?;
        stats.chunks_decoded += 1;
        Ok(())
    }

    /// Decode a single chunk (random access). Returns the slab's first
    /// axis-0 row and the decoded slab as a standalone array.
    pub fn read_chunk<T: Scalar>(
        &mut self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>), DecompressError> {
        self.check_scalar::<T>()?;
        let Some(&entry) = self.entries.get(chunk) else {
            return Err(DecompressError::ChunkOutOfRange {
                requested: chunk,
                available: self.entries.len(),
            });
        };
        let cshape = entry_shape(self.header.shape, entry);
        let mut out = vec![T::zero(); cshape.len()];
        self.decode_entry_into(entry, cshape, &mut out)?;
        Ok((entry.start_row, NdArray::from_vec(cshape, out)))
    }

    /// Decode the axis-0 row range `rows` (non-empty, within the field),
    /// touching only the chunks that intersect it, on the decode pool.
    ///
    /// Returns an array of shape `[rows.len(), dims[1..]]` whose elements
    /// equal the corresponding rows of a full decompression exactly.
    pub fn read_rows<T: Scalar>(
        &mut self,
        rows: Range<usize>,
    ) -> Result<NdArray<T>, DecompressError>
    where
        R: Send,
    {
        self.check_scalar::<T>()?;
        let d0 = self.header.shape.dim(0);
        if rows.start >= rows.end || rows.end > d0 {
            return Err(DecompressError::RowsOutOfRange { requested_end: rows.end, rows: d0 });
        }
        let shape = self.header.shape;
        let (threads, window) = (self.threads, self.window());
        let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
        let out_rows = rows.end - rows.start;
        let mut out = vec![T::zero(); out_rows * row_elems];
        // Chunks tile axis 0 in order, so the intersecting chunks cover
        // `out` contiguously: hand each one its disjoint output slice.
        let mut jobs = Vec::new();
        let mut rest: &mut [T] = &mut out;
        for &entry in &self.entries {
            let e_start = entry.start_row;
            let e_end = e_start + entry.rows;
            if e_end <= rows.start || e_start >= rows.end {
                continue;
            }
            let lo = rows.start.max(e_start);
            let hi = rows.end.min(e_end);
            let (dst, tail) = rest.split_at_mut((hi - lo) * row_elems);
            rest = tail;
            jobs.push(SliceJob {
                entry,
                cshape: entry_shape(shape, entry),
                take: (lo - e_start) * row_elems..(hi - e_start) * row_elems,
                dst,
            });
        }
        run_slice_jobs(
            &mut self.src,
            self.map.as_ref().map(SourceMap::as_slice),
            &self.blob_pool,
            &self.header,
            jobs,
            threads,
            window,
            &mut self.stats,
        )?;
        let mut dims = [0usize; MAX_DIMS];
        dims[..shape.ndim()].copy_from_slice(shape.dims());
        dims[0] = out_rows;
        Ok(NdArray::from_vec(Shape::new(&dims[..shape.ndim()]), out))
    }

    /// Decode the whole field on the decode pool (memory: the output plus
    /// at most a window of compressed blobs).
    pub fn read_all<T: Scalar>(&mut self) -> Result<NdArray<T>, DecompressError>
    where
        R: Send,
    {
        self.check_scalar::<T>()?;
        let shape = self.header.shape;
        self.read_rows(0..shape.dim(0)).map(|a| {
            // Same element count and order; restore the full-field shape.
            NdArray::from_vec(shape, a.into_vec())
        })
    }

    /// Stream the whole field through `emit` as axis-0 slabs in row
    /// order, decoding chunks on the worker pool behind the bounded
    /// read-ahead window. Unlike [`Self::read_all`] the field is never
    /// resident: peak memory is `O(window × chunk)`.
    ///
    /// `emit` receives each chunk's decoded elements exactly once, in row
    /// order; an error from `emit` aborts the decode.
    pub fn decompress_rows<T: Scalar>(
        &mut self,
        mut emit: impl FnMut(&[T]) -> std::io::Result<()>,
    ) -> Result<(), DecompressError>
    where
        R: Send,
    {
        self.check_scalar::<T>()?;
        let shape = self.header.shape;
        let (threads, window) = (self.threads, self.window());
        let jobs: Vec<(ChunkEntry, Shape)> =
            self.entries.iter().map(|&e| (e, entry_shape(shape, e))).collect();
        run_ordered_jobs::<T, R>(
            &mut self.src,
            self.map.as_ref().map(SourceMap::as_slice),
            &self.blob_pool,
            &self.header,
            jobs,
            threads,
            window,
            &mut self.stats,
            &mut |slab| emit(slab).map_err(DecompressError::Io),
        )
    }

    /// Decode the whole field into `sink` as little-endian scalars in row
    /// order, chunk-parallel with bounded memory (the streaming backend
    /// of `rqm decompress --threads`). Returns the number of values
    /// written.
    pub fn decompress_to_writer<T: Scalar, W: Write>(
        &mut self,
        sink: &mut W,
    ) -> Result<u64, DecompressError>
    where
        R: Send,
    {
        let mut values = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        self.decompress_rows::<T>(|slab| {
            buf.clear();
            buf.reserve(slab.len() * T::BYTES);
            for &v in slab {
                v.write_le(&mut buf);
            }
            values += slab.len() as u64;
            sink.write_all(&buf)
        })?;
        Ok(values)
    }

    /// Convert this session into a shareable [`ConcurrentReader`] over
    /// the same source, keeping the already-parsed layout. Accumulated
    /// [`ReadStats`] carry over as the aggregate baseline.
    pub fn into_concurrent(self) -> ConcurrentReader<R> {
        ConcurrentReader {
            shared: Arc::new(ReaderShared {
                src: Mutex::new(self.src),
                map: self.map,
                blob_pool: self.blob_pool,
                header: self.header,
                chunk_rows: self.chunk_rows,
                entries: self.entries,
                chunks_decoded: AtomicU64::new(self.stats.chunks_decoded),
                blob_bytes_read: AtomicU64::new(self.stats.blob_bytes_read),
                reorder_copies: AtomicU64::new(self.stats.reorder_copies),
            }),
        }
    }
}

/// Scalar-tag check shared by the streaming and concurrent readers.
fn check_scalar_tag<T: Scalar>(header: &Header) -> Result<(), DecompressError> {
    if header.scalar_tag != T::TAG {
        return Err(DecompressError::ScalarMismatch {
            expected: T::TAG,
            found: header.scalar_tag,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parallel streaming decode engine
// ---------------------------------------------------------------------------

/// One chunk's decode destination in a slice-mode parallel run: the
/// element range `take` of the decoded chunk lands in `dst` (disjoint
/// across jobs, so workers write concurrently without coordination).
struct SliceJob<'o, T> {
    entry: ChunkEntry,
    cshape: Shape,
    take: Range<usize>,
    dst: &'o mut [T],
}

/// One fetched chunk extent: either a recycled pool buffer (returned to
/// its pool on drop) or a zero-copy window of the memory-mapped source.
/// Either way the decode stage sees plain `&[u8]` via `Deref`.
enum Blob<'e> {
    Pooled(Vec<u8>, &'e BytePool),
    Mapped(&'e [u8]),
}

impl std::ops::Deref for Blob<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Blob::Pooled(buf, _) => buf,
            Blob::Mapped(bytes) => bytes,
        }
    }
}

impl Drop for Blob<'_> {
    fn drop(&mut self) {
        if let Blob::Pooled(buf, pool) = self {
            pool.put(std::mem::take(buf));
        }
    }
}

/// The fetch stage of one decode run: the seekable source, the optional
/// mapped view of it, and the pool backing unmapped reads.
struct Fetcher<'e, R> {
    src: &'e mut R,
    map: Option<&'e [u8]>,
    pool: &'e BytePool,
}

impl<'e, R: Read + Seek> Fetcher<'e, R> {
    /// One chunk's compressed bytes: a bounds-checked window of the map
    /// (zero-copy, no syscall) or a pooled buffer filled by seek+read.
    fn fetch(&mut self, entry: ChunkEntry) -> Result<Blob<'e>, DecompressError> {
        if let Some(mapped) = self.map {
            return entry
                .offset
                .checked_add(entry.len)
                .and_then(|end| mapped.get(entry.offset..end))
                .map(Blob::Mapped)
                .ok_or(DecompressError::Corrupt("chunk extent beyond mapped source"));
        }
        let mut buf = self.pool.get(entry.len);
        match read_span_into(self.src, entry.offset as u64, &mut buf) {
            Ok(()) => Ok(Blob::Pooled(buf, self.pool)),
            Err(e) => {
                self.pool.put(buf);
                Err(e)
            }
        }
    }
}

/// Decode one fetched blob into its job's destination slice. Decodes
/// in place when the job takes the whole chunk; only a partial take
/// (boundary rows of a region read) goes through a scratch slab and a
/// copy. Returns whether the scratch copy happened, so callers can count
/// [`ReadStats::reorder_copies`].
fn decode_slice_job<T: Scalar>(
    header: &Header,
    blob: &[u8],
    job: SliceJob<'_, T>,
    scratch: &SlabPool<T>,
) -> Result<bool, DecompressError> {
    let SliceJob { entry, cshape, take, dst } = job;
    if take.start == 0 && take.end == cshape.len() {
        decode_entry_blob(blob, header, entry, cshape, dst)?;
        Ok(false)
    } else {
        let mut tmp = scratch.get(cshape.len());
        let decoded = decode_entry_blob(blob, header, entry, cshape, &mut tmp);
        if decoded.is_ok() {
            dst.copy_from_slice(&tmp[take]);
        }
        scratch.put(tmp);
        decoded.map(|()| true)
    }
}

/// Run slice jobs through the decode pool. The calling thread fetches
/// blobs sequentially (in offset order) — zero-copy off the map when one
/// exists, else into recycled pool buffers — and hands them to `threads`
/// scoped workers over a bounded channel, so at most `window` fetched
/// blobs queue ahead of the decoders (plus one in each worker's hands).
/// With one thread and no map, a dedicated prefetch thread reads ahead
/// instead, overlapping I/O with the caller's decoding. Workers write
/// into their jobs' disjoint output slices, so no reorder buffer is
/// needed. The first error (in completion order) aborts the run;
/// remaining queued jobs are drained, never left hanging.
#[allow(clippy::too_many_arguments)]
fn run_slice_jobs<T: Scalar, R: Read + Seek + Send>(
    src: &mut R,
    map: Option<&[u8]>,
    pool: &BytePool,
    header: &Header,
    jobs: Vec<SliceJob<'_, T>>,
    threads: usize,
    window: usize,
    stats: &mut ReadStats,
) -> Result<(), DecompressError> {
    if jobs.is_empty() {
        return Ok(());
    }
    let scratch = SlabPool::<T>::new();
    let mut fetcher = Fetcher { src, map, pool };
    // Serial inline decode: a single job never benefits from staging, and
    // a mapped source needs no prefetch thread at 1 thread — the kernel's
    // readahead already faults upcoming extents while this one decodes.
    if jobs.len() <= 1 || (threads <= 1 && map.is_some()) {
        for job in jobs {
            let entry = job.entry;
            let blob = fetcher.fetch(entry)?;
            stats.blob_bytes_read += entry.len as u64;
            let copied = decode_slice_job(header, &blob, job, &scratch)?;
            stats.chunks_decoded += 1;
            stats.reorder_copies += copied as u64;
        }
        return Ok(());
    }
    let window = window.max(2);
    if threads <= 1 {
        // Unmapped single-threaded decode of several chunks: a dedicated
        // fetch thread reads extents ahead (bounded by the window) while
        // the calling thread decodes, overlapping I/O with decode.
        return std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<(SliceJob<'_, T>, Blob<'_>)>(window);
            let fetch = scope.spawn(move || -> Result<(), DecompressError> {
                for job in jobs {
                    let blob = fetcher.fetch(job.entry)?;
                    if tx.send((job, blob)).is_err() {
                        break; // the decoder bailed out early
                    }
                }
                Ok(())
            });
            let mut result = Ok(());
            for (job, blob) in rx.iter() {
                stats.blob_bytes_read += job.entry.len as u64;
                match decode_slice_job(header, &blob, job, &scratch) {
                    Ok(copied) => {
                        stats.chunks_decoded += 1;
                        stats.reorder_copies += copied as u64;
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            drop(rx); // unblocks the fetch thread if it sits mid-send
            let fetched = fetch.join().expect("prefetch thread panicked");
            if result.is_ok() {
                result = fetched;
            }
            result
        });
    }
    let (work_tx, work_rx) = mpsc::sync_channel::<(SliceJob<'_, T>, Blob<'_>)>(window);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<Result<bool, DecompressError>>();
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            let done_tx = done_tx.clone();
            let (work_rx, scratch, abort) = (&work_rx, &scratch, &abort);
            scope.spawn(move || loop {
                // Hold the lock only for the dequeue; decode unlocked.
                let next = {
                    let rx = work_rx.lock().unwrap_or_else(|p| p.into_inner());
                    rx.recv()
                };
                let Ok((job, blob)) = next else { break };
                let r = decode_slice_job(header, &blob, job, scratch);
                drop(blob); // recycle the buffer before signaling
                if r.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                if done_tx.send(r).is_err() {
                    break; // the driver bailed out early
                }
            });
        }
        drop(done_tx);
        // The bounded work channel is the backpressure: `send` blocks
        // once `window` fetched blobs queue undecoded, so the driver
        // keeps fetching (overlapping workers' decode) only while the
        // window has room.
        let mut err: Option<DecompressError> = None;
        let mut sent = 0usize;
        for job in jobs {
            if abort.load(Ordering::Relaxed) {
                break; // a worker failed; its error is collected below
            }
            match fetcher.fetch(job.entry) {
                Ok(blob) => {
                    stats.blob_bytes_read += job.entry.len as u64;
                    if work_tx.send((job, blob)).is_err() {
                        break;
                    }
                    sent += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        drop(work_tx);
        for _ in 0..sent {
            match done_rx.recv() {
                Ok(Ok(copied)) => {
                    stats.chunks_decoded += 1;
                    stats.reorder_copies += copied as u64;
                }
                Ok(Err(e)) => {
                    if err.is_none() {
                        err = Some(e);
                    }
                }
                Err(_) => break, // all workers exited; nothing more to count
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

/// Run whole-chunk decode jobs through the pool with **in-order
/// delivery**: workers decode into recycled slabs, the calling thread
/// reorders completions by sequence number and hands each slab to `emit`
/// in row order (slabs return to the pool right after `emit`, so the
/// common in-order arrival recycles the same couple of slabs for the
/// whole run). A chunk counts against the `window` from fetch until its
/// slab is emitted, so out-of-order completions can never pile up more
/// than a window of decoded slabs. With one thread and no map, a
/// dedicated prefetch thread overlaps extent reads with the caller's
/// decode+emit instead.
#[allow(clippy::too_many_arguments)]
fn run_ordered_jobs<T: Scalar, R: Read + Seek + Send>(
    src: &mut R,
    map: Option<&[u8]>,
    pool: &BytePool,
    header: &Header,
    jobs: Vec<(ChunkEntry, Shape)>,
    threads: usize,
    window: usize,
    stats: &mut ReadStats,
    emit: &mut dyn FnMut(&[T]) -> Result<(), DecompressError>,
) -> Result<(), DecompressError> {
    if jobs.is_empty() {
        return Ok(());
    }
    let slabs = SlabPool::<T>::new();
    let mut fetcher = Fetcher { src, map, pool };
    // Serial inline decode; see run_slice_jobs for the map rationale.
    if jobs.len() <= 1 || (threads <= 1 && map.is_some()) {
        for (entry, cshape) in jobs {
            let blob = fetcher.fetch(entry)?;
            stats.blob_bytes_read += entry.len as u64;
            let mut slab = slabs.get(cshape.len());
            let decoded = decode_entry_blob(&blob, header, entry, cshape, &mut slab);
            drop(blob);
            let delivered = decoded.and_then(|()| {
                stats.chunks_decoded += 1;
                emit(&slab)
            });
            slabs.put(slab);
            delivered?;
        }
        return Ok(());
    }
    let window = window.max(2);
    if threads <= 1 {
        // Unmapped single-threaded streaming: prefetch thread reads
        // ahead, the caller decodes and emits in arrival order (which is
        // row order — one fetcher, one decoder).
        return std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel::<(ChunkEntry, Shape, Blob<'_>)>(window);
            let fetch = scope.spawn(move || -> Result<(), DecompressError> {
                for (entry, cshape) in jobs {
                    let blob = fetcher.fetch(entry)?;
                    if tx.send((entry, cshape, blob)).is_err() {
                        break; // the decoder bailed out early
                    }
                }
                Ok(())
            });
            let mut result = Ok(());
            for (entry, cshape, blob) in rx.iter() {
                stats.blob_bytes_read += entry.len as u64;
                let mut slab = slabs.get(cshape.len());
                let decoded = decode_entry_blob(&blob, header, entry, cshape, &mut slab);
                drop(blob);
                let delivered = decoded.and_then(|()| {
                    stats.chunks_decoded += 1;
                    emit(&slab)
                });
                slabs.put(slab);
                if let Err(e) = delivered {
                    result = Err(e);
                    break;
                }
            }
            drop(rx); // unblocks the fetch thread if it sits mid-send
            let fetched = fetch.join().expect("prefetch thread panicked");
            if result.is_ok() {
                result = fetched;
            }
            result
        });
    }
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, ChunkEntry, Shape, Blob<'_>)>(window);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, Result<Vec<T>, DecompressError>)>();
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            let done_tx = done_tx.clone();
            let (work_rx, slabs, abort) = (&work_rx, &slabs, &abort);
            scope.spawn(move || loop {
                let next = {
                    let rx = work_rx.lock().unwrap_or_else(|p| p.into_inner());
                    rx.recv()
                };
                let Ok((seq, entry, cshape, blob)) = next else { break };
                let mut slab = slabs.get(cshape.len());
                let decoded = decode_entry_blob(&blob, header, entry, cshape, &mut slab);
                drop(blob); // recycle the buffer before signaling
                let r = decoded.map(|()| slab);
                if r.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                if done_tx.send((seq, r)).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);
        // `sent` jobs dispatched, `done` completions received, `retired`
        // slabs emitted/recycled/failed. `sent - retired` is the
        // fetch→emit credit the window bounds; because `retired ≤ done`,
        // the work channel can never block the driver mid-send.
        let (mut sent, mut done, mut retired) = (0usize, 0usize, 0usize);
        let mut next_emit = 0usize;
        let mut pending: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        let mut err: Option<DecompressError> = None;
        // Receive one completion; emit (and recycle) every slab that
        // became consecutive. Returns false if the pool disconnected.
        let receive_one = |err: &mut Option<DecompressError>,
                               pending: &mut BTreeMap<usize, Vec<T>>,
                               next_emit: &mut usize,
                               done: &mut usize,
                               retired: &mut usize,
                               stats: &mut ReadStats,
                               emit: &mut dyn FnMut(&[T]) -> Result<(), DecompressError>|
         -> bool {
            match done_rx.recv() {
                Ok((seq, Ok(slab))) => {
                    *done += 1;
                    stats.chunks_decoded += 1;
                    if err.is_some() {
                        // Already failing: recycle without delivering.
                        slabs.put(slab);
                        *retired += 1;
                        return true;
                    }
                    pending.insert(seq, slab);
                    loop {
                        let key = *next_emit;
                        let Some(slab) = pending.remove(&key) else { break };
                        let delivered = emit(&slab);
                        slabs.put(slab);
                        *retired += 1;
                        *next_emit += 1;
                        if let Err(e) = delivered {
                            *err = Some(e);
                            break;
                        }
                    }
                    true
                }
                Ok((_, Err(e))) => {
                    *done += 1;
                    *retired += 1;
                    if err.is_none() {
                        *err = Some(e);
                    }
                    true
                }
                // All workers exited; only reachable once every
                // dispatched job's completion was already received.
                Err(_) => false,
            }
        };
        'dispatch: for (seq, (entry, cshape)) in jobs.into_iter().enumerate() {
            while err.is_none() && sent - retired >= window {
                if !receive_one(
                    &mut err,
                    &mut pending,
                    &mut next_emit,
                    &mut done,
                    &mut retired,
                    stats,
                    emit,
                ) {
                    break 'dispatch;
                }
            }
            if err.is_some() || abort.load(Ordering::Relaxed) {
                break;
            }
            match fetcher.fetch(entry) {
                Ok(blob) => {
                    stats.blob_bytes_read += entry.len as u64;
                    if work_tx.send((seq, entry, cshape, blob)).is_err() {
                        break;
                    }
                    sent += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        // Closing the work channel lets every worker drain and exit;
        // their remaining completions are collected (and recycled or
        // emitted) here.
        drop(work_tx);
        while done < sent {
            if !receive_one(
                &mut err,
                &mut pending,
                &mut next_emit,
                &mut done,
                &mut retired,
                stats,
                emit,
            ) {
                break;
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

// ---------------------------------------------------------------------------
// ConcurrentReader
// ---------------------------------------------------------------------------

/// The archive state shared by every [`ConcurrentReader`] handle: the
/// source behind a mutex (held only while fetching blob bytes — decoding
/// runs unlocked), the immutable layout, and the aggregate counters.
struct ReaderShared<R> {
    src: Mutex<R>,
    /// Mapped view of the source where available: fetches through it
    /// take **no lock at all** — concurrent requests don't serialize
    /// even on the fetch stage.
    map: Option<SourceMap>,
    /// Recycled blob buffers; checked out *before* taking the source
    /// lock so the critical section is exactly one seek+read.
    blob_pool: BytePool,
    header: Header,
    chunk_rows: usize,
    entries: Vec<ChunkEntry>,
    chunks_decoded: AtomicU64,
    blob_bytes_read: AtomicU64,
    reorder_copies: AtomicU64,
}

/// A shareable, cloneable decompression handle over **one** open archive
/// source, for serving many overlapping region reads concurrently.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone reads the same
/// underlying `R`. Requests lock the source only to fetch a chunk's
/// compressed bytes; decoding happens outside the lock, so readers on
/// different threads genuinely overlap. Each request reports its own
/// [`ReadStats`] (via [`Self::read_rows_with_stats`]), and
/// [`Self::stats`] aggregates across all clones and requests.
///
/// ```
/// use rq_compress::{ArchiveWriter, CompressorConfig, ConcurrentReader};
/// use rq_grid::{NdArray, Shape};
/// use rq_predict::PredictorKind;
/// use rq_quant::ErrorBoundMode;
///
/// let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(8);
/// let field = NdArray::<f32>::from_fn(Shape::d2(32, 16), |ix| (ix[0] as f32 * 0.2).sin());
/// let mut w = ArchiveWriter::<f32, _>::create(Vec::new(), field.shape(), &cfg).unwrap();
/// w.write_slab(&field).unwrap();
/// let bytes = w.finalize().unwrap().sink;
///
/// let reader = ConcurrentReader::open(std::io::Cursor::new(bytes)).unwrap();
/// std::thread::scope(|s| {
///     for t in 0..4 {
///         let r = reader.clone();
///         // Rows t*6..t*6+10 always straddle a chunk boundary.
///         s.spawn(move || r.read_rows::<f32>(t * 6..t * 6 + 10).unwrap());
///     }
/// });
/// assert_eq!(reader.stats().chunks_decoded, 4 * 2); // every request decoded 2 chunks
/// ```
pub struct ConcurrentReader<R: Read + Seek> {
    shared: Arc<ReaderShared<R>>,
}

impl<R: Read + Seek> Clone for ConcurrentReader<R> {
    fn clone(&self) -> Self {
        ConcurrentReader { shared: Arc::clone(&self.shared) }
    }
}

impl ConcurrentReader<std::fs::File> {
    /// Open an archive file for shared reading, memory-mapping it when
    /// the platform allows (Linux). Mapped fetches take **no lock at
    /// all** — concurrent requests stop serializing even on the fetch
    /// stage — and fall back to the pooled seek+read path (identical
    /// results) where no mapping is available.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<Self, DecompressError> {
        ArchiveReader::open_path(path).map(ArchiveReader::into_concurrent)
    }
}

impl<R: Read + Seek> ConcurrentReader<R> {
    /// Open an archive for shared concurrent reading: parse the header
    /// and chunk index, without reading any payload.
    pub fn open(mut src: R) -> Result<Self, DecompressError> {
        let layout = read_archive_layout(&mut src)?;
        Ok(ConcurrentReader {
            shared: Arc::new(ReaderShared {
                src: Mutex::new(src),
                map: None,
                blob_pool: BytePool::new(),
                header: layout.header,
                chunk_rows: layout.chunk_rows,
                entries: layout.entries,
                chunks_decoded: AtomicU64::new(0),
                blob_bytes_read: AtomicU64::new(0),
                reorder_copies: AtomicU64::new(0),
            }),
        })
    }

    /// Whether chunk fetches are served zero-copy (and lock-free) from a
    /// memory-mapped source (see [`ConcurrentReader::open_path`]).
    pub fn is_mapped(&self) -> bool {
        self.shared.map.is_some()
    }

    /// The archive's parsed header.
    pub fn header(&self) -> &Header {
        &self.shared.header
    }

    /// Nominal axis-0 rows per chunk (the last chunk may hold fewer).
    pub fn chunk_rows(&self) -> usize {
        self.shared.chunk_rows
    }

    /// Number of independently-decodable chunks.
    pub fn n_chunks(&self) -> usize {
        self.shared.entries.len()
    }

    /// The located chunk entries, in slab order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.shared.entries
    }

    /// Aggregate decode counters across every clone and request so far.
    pub fn stats(&self) -> ReadStats {
        ReadStats {
            chunks_total: self.shared.entries.len(),
            chunks_decoded: self.shared.chunks_decoded.load(Ordering::Relaxed),
            blob_bytes_read: self.shared.blob_bytes_read.load(Ordering::Relaxed),
            reorder_copies: self.shared.reorder_copies.load(Ordering::Relaxed),
        }
    }

    /// The **fetch** stage alone: one chunk's compressed bytes. Over a
    /// mapped source this takes no lock — it is a bounds-checked window
    /// of the shared mapping. Otherwise a recycled buffer is checked out
    /// of the pool *before* locking, so the critical section is exactly
    /// one seek+read; decoding always happens outside the lock either
    /// way, so concurrent readers overlap on everything but that read.
    fn fetch_blob(&self, entry: ChunkEntry) -> Result<Blob<'_>, DecompressError> {
        if let Some(map) = &self.shared.map {
            return entry
                .offset
                .checked_add(entry.len)
                .and_then(|end| map.as_slice().get(entry.offset..end))
                .map(Blob::Mapped)
                .ok_or(DecompressError::Corrupt("chunk extent beyond mapped source"));
        }
        let mut buf = self.shared.blob_pool.get(entry.len);
        let read = {
            let mut src = self.shared.src.lock().unwrap_or_else(|p| p.into_inner());
            read_span_into(&mut *src, entry.offset as u64, &mut buf)
        };
        match read {
            Ok(()) => Ok(Blob::Pooled(buf, &self.shared.blob_pool)),
            Err(e) => {
                self.shared.blob_pool.put(buf);
                Err(e)
            }
        }
    }

    /// Bump the aggregate counters for one decoded chunk.
    fn count_decoded(&self, entry: ChunkEntry, reordered: bool) {
        self.shared.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.shared.blob_bytes_read.fetch_add(entry.len as u64, Ordering::Relaxed);
        self.shared.reorder_copies.fetch_add(reordered as u64, Ordering::Relaxed);
    }

    /// Fetch one chunk's compressed bytes (see [`Self::fetch_blob`]),
    /// decode its job outside the lock (full chunk or boundary crop, via
    /// the same [`decode_slice_job`] the parallel engine uses), and
    /// update this request's and the aggregate counters.
    fn fetch_and_decode<T: Scalar>(
        &self,
        job: SliceJob<'_, T>,
        scratch: &SlabPool<T>,
        req: &mut ReadStats,
    ) -> Result<(), DecompressError> {
        let entry = job.entry;
        let blob = self.fetch_blob(entry)?;
        let copied = decode_slice_job(&self.shared.header, &blob, job, scratch)?;
        req.chunks_decoded += 1;
        req.blob_bytes_read += entry.len as u64;
        req.reorder_copies += copied as u64;
        self.count_decoded(entry, copied);
        Ok(())
    }

    /// Decode a single chunk (random access). Returns the slab's first
    /// axis-0 row, the decoded slab, and this request's [`ReadStats`].
    pub fn read_chunk<T: Scalar>(
        &self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>, ReadStats), DecompressError> {
        check_scalar_tag::<T>(&self.shared.header)?;
        let Some(&entry) = self.shared.entries.get(chunk) else {
            return Err(DecompressError::ChunkOutOfRange {
                requested: chunk,
                available: self.shared.entries.len(),
            });
        };
        let cshape = entry_shape(self.shared.header.shape, entry);
        let mut out = vec![T::zero(); cshape.len()];
        let mut req = ReadStats { chunks_total: self.shared.entries.len(), ..Default::default() };
        let take = 0..cshape.len();
        let scratch = SlabPool::new();
        self.fetch_and_decode(SliceJob { entry, cshape, take, dst: &mut out }, &scratch, &mut req)?;
        Ok((entry.start_row, NdArray::from_vec(cshape, out), req))
    }

    /// Decode the axis-0 row range `rows`, touching only intersecting
    /// chunks; see [`Self::read_rows_with_stats`] for the per-request
    /// counters.
    pub fn read_rows<T: Scalar>(&self, rows: Range<usize>) -> Result<NdArray<T>, DecompressError> {
        self.read_rows_with_stats(rows).map(|(a, _)| a)
    }

    /// [`Self::read_rows`], also returning this request's own
    /// [`ReadStats`] (chunks decoded and blob bytes fetched by this call
    /// alone — the aggregate view stays available via [`Self::stats`]).
    pub fn read_rows_with_stats<T: Scalar>(
        &self,
        rows: Range<usize>,
    ) -> Result<(NdArray<T>, ReadStats), DecompressError> {
        check_scalar_tag::<T>(&self.shared.header)?;
        let shape = self.shared.header.shape;
        let d0 = shape.dim(0);
        if rows.start >= rows.end || rows.end > d0 {
            return Err(DecompressError::RowsOutOfRange { requested_end: rows.end, rows: d0 });
        }
        let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
        let out_rows = rows.end - rows.start;
        let mut out = vec![T::zero(); out_rows * row_elems];
        let mut req = ReadStats { chunks_total: self.shared.entries.len(), ..Default::default() };
        // One scratch pool per request: a range crops at most its two
        // boundary chunks, and they share the same recycled slab.
        let scratch = SlabPool::new();
        for &entry in &self.shared.entries {
            let e_start = entry.start_row;
            let e_end = e_start + entry.rows;
            if e_end <= rows.start || e_start >= rows.end {
                continue;
            }
            let lo = rows.start.max(e_start);
            let hi = rows.end.min(e_end);
            let job = SliceJob {
                entry,
                cshape: entry_shape(shape, entry),
                take: (lo - e_start) * row_elems..(hi - e_start) * row_elems,
                dst: &mut out[(lo - rows.start) * row_elems..(hi - rows.start) * row_elems],
            };
            self.fetch_and_decode(job, &scratch, &mut req)?;
        }
        let mut dims = [0usize; MAX_DIMS];
        dims[..shape.ndim()].copy_from_slice(shape.dims());
        dims[0] = out_rows;
        Ok((NdArray::from_vec(Shape::new(&dims[..shape.ndim()]), out), req))
    }

    /// Decode the whole field (one request).
    pub fn read_all<T: Scalar>(&self) -> Result<NdArray<T>, DecompressError> {
        let shape = self.shared.header.shape;
        self.read_rows::<T>(0..shape.dim(0))
            .map(|a| NdArray::from_vec(shape, a.into_vec()))
    }
}

// ---------------------------------------------------------------------------
// ChunkSource: the separable fetch+decode stage
// ---------------------------------------------------------------------------

/// A source of whole decoded chunks of one archive — the **fetch +
/// decode** stages of serving a read, separated from **delivery** so
/// middleware can slot between them. A decoded-chunk cache wraps a
/// `ChunkSource`, is itself one, and everything downstream (row assembly,
/// a network daemon) is oblivious to whether a chunk came from the codec
/// or from the cache; see the `rq-serve` crate.
///
/// [`ConcurrentReader`] is the canonical implementation: fetch takes the
/// source lock, decode runs unlocked, and every fetched chunk counts in
/// the aggregate [`ReadStats`]. [`assemble_rows`] is the matching
/// delivery stage.
///
/// Unlike [`ConcurrentReader::read_rows`] — which decodes boundary chunks
/// straight into a cropped output slice — a `ChunkSource` always
/// materializes whole chunks, because whole chunks are the unit a cache
/// can share between overlapping requests. The [`Arc`] return lets a
/// caching layer hand the same decoded slab to many concurrent readers
/// without copying it per request.
pub trait ChunkSource<T: Scalar>: Send + Sync {
    /// The archive's parsed header.
    fn header(&self) -> &Header;

    /// Nominal axis-0 rows per chunk (the last chunk may hold fewer).
    fn chunk_rows(&self) -> usize;

    /// The located chunk entries, in slab order.
    fn entries(&self) -> &[ChunkEntry];

    /// Chunk `idx`, fully decoded, in shared ownership.
    fn fetch_chunk(&self, idx: usize) -> Result<Arc<[T]>, DecompressError>;
}

impl<T: Scalar, R: Read + Seek + Send> ChunkSource<T> for ConcurrentReader<R> {
    fn header(&self) -> &Header {
        &self.shared.header
    }

    fn chunk_rows(&self) -> usize {
        self.shared.chunk_rows
    }

    fn entries(&self) -> &[ChunkEntry] {
        &self.shared.entries
    }

    fn fetch_chunk(&self, idx: usize) -> Result<Arc<[T]>, DecompressError> {
        check_scalar_tag::<T>(&self.shared.header)?;
        let Some(&entry) = self.shared.entries.get(idx) else {
            return Err(DecompressError::ChunkOutOfRange {
                requested: idx,
                available: self.shared.entries.len(),
            });
        };
        let cshape = entry_shape(self.shared.header.shape, entry);
        let blob = self.fetch_blob(entry)?;
        // The decoded slab's ownership leaves through the `Arc`, so it
        // cannot come from a pool — only the blob buffer recycles here.
        let mut out = vec![T::zero(); cshape.len()];
        decode_entry_blob(&blob, &self.shared.header, entry, cshape, &mut out)?;
        self.count_decoded(entry, false);
        Ok(out.into())
    }
}

/// The **delivery** stage over any [`ChunkSource`]: decode the axis-0 row
/// range `rows` by fetching every intersecting chunk whole — through
/// whatever caching or request coalescing the source provides — and
/// copying the requested rows out.
///
/// Returns an array of shape `[rows.len(), dims[1..]]` whose elements
/// equal the corresponding rows of a full decompression exactly, as
/// [`ConcurrentReader::read_rows`] does; the two differ only in that this
/// path materializes whole chunks (the cacheable unit) where `read_rows`
/// crops boundary chunks during decode.
pub fn assemble_rows<T: Scalar, S: ChunkSource<T> + ?Sized>(
    src: &S,
    rows: Range<usize>,
) -> Result<NdArray<T>, DecompressError> {
    check_scalar_tag::<T>(src.header())?;
    let shape = src.header().shape;
    let d0 = shape.dim(0);
    if rows.start >= rows.end || rows.end > d0 {
        return Err(DecompressError::RowsOutOfRange { requested_end: rows.end, rows: d0 });
    }
    let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    let out_rows = rows.end - rows.start;
    let mut out = vec![T::zero(); out_rows * row_elems];
    for (idx, &entry) in src.entries().iter().enumerate() {
        let e_start = entry.start_row;
        let e_end = e_start + entry.rows;
        if e_end <= rows.start || e_start >= rows.end {
            continue;
        }
        let lo = rows.start.max(e_start);
        let hi = rows.end.min(e_end);
        let chunk = src.fetch_chunk(idx)?;
        out[(lo - rows.start) * row_elems..(hi - rows.start) * row_elems]
            .copy_from_slice(&chunk[(lo - e_start) * row_elems..(hi - e_start) * row_elems]);
    }
    let mut dims = [0usize; MAX_DIMS];
    dims[..shape.ndim()].copy_from_slice(shape.dims());
    dims[0] = out_rows;
    Ok(NdArray::from_vec(Shape::new(&dims[..shape.ndim()]), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::decompress_with_threads_exact;
    use crate::container::{chunk_table, peek_header};
    use crate::pipeline::{compress, decompress};
    use std::io::Cursor;

    fn wavy(shape: Shape) -> NdArray<f32> {
        let mut lin = 0u64;
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.13 * (a + 1) as f64).sin() * (8.0 / (a + 1) as f64);
            }
            lin += 1;
            let mut h = lin;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.05;
            v as f32
        })
    }

    fn cfg() -> CompressorConfig {
        CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(6)
            .with_threads(2)
    }

    /// Stream `field` through a writer in `slab_rows`-row slabs.
    fn stream_archive(field: &NdArray<f32>, cfg: &CompressorConfig, slab_rows: usize) -> Vec<u8> {
        let shape = field.shape();
        let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, cfg).unwrap();
        let mut row = 0;
        while row < shape.dim(0) {
            let rows = slab_rows.min(shape.dim(0) - row);
            let mut dims = [0usize; MAX_DIMS];
            dims[..shape.ndim()].copy_from_slice(shape.dims());
            dims[0] = rows;
            let slab = NdArray::from_vec(
                Shape::new(&dims[..shape.ndim()]),
                field.as_slice()[row * row_elems..(row + rows) * row_elems].to_vec(),
            );
            w.write_slab(&slab).unwrap();
            row += rows;
        }
        w.finalize().unwrap().sink
    }

    #[test]
    fn writer_bytes_independent_of_slab_batching() {
        // The archive must be a pure function of (field, cfg): feeding
        // rows in different slab sizes — aligned or not with chunk
        // boundaries — must produce identical bytes.
        let field = wavy(Shape::d3(25, 8, 6));
        let reference = stream_archive(&field, &cfg(), 25);
        for slab_rows in [1, 4, 6, 7, 13] {
            let bytes = stream_archive(&field, &cfg(), slab_rows);
            assert_eq!(bytes, reference, "slab_rows={slab_rows}");
        }
        assert_eq!(peek_header(&reference).unwrap().version, 4);
    }

    #[test]
    fn v2_2_decodes_via_in_memory_paths() {
        // The buffer-based decompressor and chunk inspection handle v2.2.
        let field = wavy(Shape::d3(20, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 20);
        let back = decompress::<f32>(&bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
        let back2 = decompress_with_threads_exact::<f32>(&bytes, 3).unwrap();
        assert_eq!(back.as_slice(), back2.as_slice());
        assert_eq!(chunk_table(&bytes).unwrap().entries.len(), 4);
    }

    #[test]
    fn v2_2_chunks_byte_identical_to_v2() {
        // Same field, same chunking: each v2.2 blob must equal its v2
        // counterpart — the formats differ only in where the index lives.
        let field = wavy(Shape::d3(20, 10, 8));
        let streamed = stream_archive(&field, &cfg(), 5);
        let one_shot = compress(&field, &cfg()).unwrap().bytes;
        assert_eq!(peek_header(&one_shot).unwrap().version, 2);
        let t_stream = chunk_table(&streamed).unwrap();
        let t_one = chunk_table(&one_shot).unwrap();
        assert_eq!(t_stream.entries.len(), t_one.entries.len());
        for (a, b) in t_stream.entries.iter().zip(&t_one.entries) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(
                &streamed[a.offset..a.offset + a.len],
                &one_shot[b.offset..b.offset + b.len],
                "chunk at row {} diverged",
                a.start_row
            );
        }
    }

    #[test]
    fn reader_reads_all_chunks_and_rows() {
        let field = wavy(Shape::d3(23, 6, 5));
        let bytes = stream_archive(&field, &cfg(), 9);
        let full = decompress::<f32>(&bytes).unwrap();
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.n_chunks(), 4); // 6+6+6+5
        let all = r.read_all::<f32>().unwrap();
        assert_eq!(all.as_slice(), full.as_slice());
        let (start, slab) = r.read_chunk::<f32>(2).unwrap();
        assert_eq!(start, 12);
        assert_eq!(slab.as_slice(), &full.as_slice()[12 * 30..18 * 30]);
        assert!(matches!(
            r.read_chunk::<f32>(4),
            Err(DecompressError::ChunkOutOfRange { .. })
        ));
    }

    #[test]
    fn read_rows_decodes_only_intersecting_chunks() {
        let field = wavy(Shape::d2(30, 12));
        let bytes = stream_archive(&field, &cfg(), 30); // chunks of 6 rows
        let full = decompress::<f32>(&bytes).unwrap();
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        // Rows 7..11 live entirely inside chunk 1 (rows 6..12).
        let part = r.read_rows::<f32>(7..11).unwrap();
        assert_eq!(part.shape().dims(), &[4, 12]);
        assert_eq!(part.as_slice(), &full.as_slice()[7 * 12..11 * 12]);
        assert_eq!(r.stats().chunks_decoded, 1, "one intersecting chunk");
        // Rows 5..19 intersect chunks 0, 1, 2, 3.
        let part = r.read_rows::<f32>(5..19).unwrap();
        assert_eq!(part.as_slice(), &full.as_slice()[5 * 12..19 * 12]);
        assert_eq!(r.stats().chunks_decoded, 1 + 4);
        // Out-of-range and empty requests are errors.
        assert!(matches!(
            r.read_rows::<f32>(0..31),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            r.read_rows::<f32>(3..3),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
    }

    #[test]
    fn reader_handles_all_container_generations() {
        let field = wavy(Shape::d2(24, 10));
        let archives = [
            ("v1", compress(&field, &CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))).unwrap().bytes),
            ("v2", compress(&field, &cfg()).unwrap().bytes),
            (
                "v2.1",
                compress(&field, &cfg().with_codec(CodecChoice::Auto)).unwrap().bytes,
            ),
            ("v2.2", stream_archive(&field, &cfg(), 7)),
        ];
        for (name, bytes) in archives {
            let full = decompress::<f32>(&bytes).unwrap();
            let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
            let all = r.read_all::<f32>().unwrap();
            assert_eq!(all.as_slice(), full.as_slice(), "{name}: read_all");
            let part = r.read_rows::<f32>(9..17).unwrap();
            assert_eq!(
                part.as_slice(),
                &full.as_slice()[9 * 10..17 * 10],
                "{name}: read_rows"
            );
        }
    }

    #[test]
    fn writer_rejects_unresolvable_and_invalid_configs() {
        let shape = Shape::d2(16, 4);
        let rel = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::ValueRangeRelative(1e-3),
        )
        .chunked(4);
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &rel),
            Err(CompressError::InvalidConfig(_))
        ));
        let mut zero_rows = cfg();
        zero_rows.chunking = crate::Chunking::Rows(0);
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &zero_rows),
            Err(CompressError::InvalidConfig(_))
        ));
    }

    #[test]
    fn writer_rejects_mismatched_and_excess_slabs() {
        let mut w =
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), Shape::d2(8, 4), &cfg()).unwrap();
        // Wrong trailing dims.
        assert!(matches!(
            w.write_slab(&NdArray::<f32>::zeros(Shape::d2(2, 5))),
            Err(CompressError::InvalidConfig(_))
        ));
        // Too many rows.
        assert!(matches!(
            w.write_slab(&NdArray::<f32>::zeros(Shape::d2(9, 4))),
            Err(CompressError::InvalidConfig(_))
        ));
        // Short coverage fails at finalize.
        w.write_slab(&NdArray::<f32>::zeros(Shape::d2(4, 4))).unwrap();
        assert!(matches!(w.finalize(), Err(CompressError::InvalidConfig(_))));
    }

    #[test]
    fn auto_codec_streaming_roundtrip() {
        // The scheduler runs per chunk inside the writer exactly as in
        // the one-shot adaptive pipeline.
        let field = rq_datagen::fields::mixed_smooth_turbulent(Shape::d3(24, 10, 10), 12, 40.0);
        let c = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(6)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let bytes = stream_archive(&field, &c, 8);
        assert_eq!(peek_header(&bytes).unwrap().version, 6, "adaptive archives are v2.4");
        let table = chunk_table(&bytes).unwrap();
        let kinds: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
        // The smooth and turbulent halves land on different codecs (which
        // ones is the scheduler's call — the per-regime winners are pinned
        // down in the scheduler's own tests).
        assert!(kinds[..2] != kinds[2..], "mixed regimes should split: {kinds:?}");
        // Identical chunk bytes to the one-shot v2.4 container.
        let one_shot = compress(&field, &c).unwrap().bytes;
        let t_one = chunk_table(&one_shot).unwrap();
        for (a, b) in table.entries.iter().zip(&t_one.entries) {
            assert_eq!(a.codec, b.codec);
            assert_eq!(
                &bytes[a.offset..a.offset + a.len],
                &one_shot[b.offset..b.offset + b.len]
            );
        }
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let all = r.read_all::<f32>().unwrap();
        for (&x, &y) in field.as_slice().iter().zip(all.as_slice()) {
            assert!((x - y).abs() <= 1e-4 * 1.001);
        }
    }

    #[test]
    fn planned_writer_roundtrips_per_chunk_bounds() {
        // Heterogeneous plan: every chunk must honor *its own* bound, the
        // container must be v2.3, and the index must echo the plan.
        let field = wavy(Shape::d3(24, 8, 6));
        let plan = vec![1e-2, 1e-4, 2e-3, 5e-5];
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
            Vec::new(),
            field.shape(),
            &cfg(),
            plan.clone(),
        )
        .unwrap();
        w.write_slab(&field).unwrap();
        let bytes = w.finalize().unwrap().sink;
        assert_eq!(peek_header(&bytes).unwrap().version, 5);
        assert_eq!(peek_header(&bytes).unwrap().abs_eb, 1e-2, "header bound = max(plan)");
        let table = chunk_table(&bytes).unwrap();
        let ebs: Vec<f64> = table.entries.iter().map(|e| e.eb).collect();
        assert_eq!(ebs, plan);
        // Per-chunk bound conformance through every decode path.
        let full = decompress::<f32>(&bytes).unwrap();
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let streamed = r.read_all::<f32>().unwrap();
        assert_eq!(full.as_slice(), streamed.as_slice());
        let row_elems = 8 * 6;
        for (entry, &eb) in table.entries.iter().zip(&plan) {
            let lo = entry.start_row * row_elems;
            let hi = (entry.start_row + entry.rows) * row_elems;
            for (a, b) in field.as_slice()[lo..hi].iter().zip(&full.as_slice()[lo..hi]) {
                assert!(((a - b).abs() as f64) <= eb * (1.0 + 1e-6), "chunk bound {eb}");
            }
        }
        // A tighter chunk really is reconstructed more accurately than a
        // loose one (the plan is not a no-op).
        let err_of = |i: usize| -> f64 {
            let e = table.entries[i];
            field.as_slice()[e.start_row * row_elems..(e.start_row + e.rows) * row_elems]
                .iter()
                .zip(&full.as_slice()[e.start_row * row_elems..(e.start_row + e.rows) * row_elems])
                .map(|(a, b)| ((a - b).abs()) as f64)
                .fold(0.0, f64::max)
        };
        assert!(err_of(3) <= 5e-5 * 1.000001);
        assert!(err_of(0) > 5e-5, "loose chunk should actually use its budget");
    }

    #[test]
    fn uniform_plan_blobs_match_fixed_bound_v2_2() {
        // A plan with one bound everywhere must produce chunk blobs
        // byte-identical to the fixed-bound v2.2 session; only the index
        // generation differs.
        let field = wavy(Shape::d3(20, 6, 5));
        let c = cfg();
        let fixed = stream_archive(&field, &c, 20);
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
            Vec::new(),
            field.shape(),
            &c,
            vec![1e-3; 4],
        )
        .unwrap();
        w.write_slab(&field).unwrap();
        let planned = w.finalize().unwrap().sink;
        assert_eq!(peek_header(&fixed).unwrap().version, 4);
        assert_eq!(peek_header(&planned).unwrap().version, 5);
        let tf = chunk_table(&fixed).unwrap();
        let tp = chunk_table(&planned).unwrap();
        assert_eq!(tf.entries.len(), tp.entries.len());
        for (a, b) in tf.entries.iter().zip(&tp.entries) {
            assert_eq!(a.codec, b.codec);
            assert_eq!(
                &fixed[a.offset..a.offset + a.len],
                &planned[b.offset..b.offset + b.len]
            );
        }
    }

    #[test]
    fn planned_writer_rejects_bad_plans() {
        let shape = Shape::d2(16, 4);
        // Wrong plan length.
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                shape,
                &cfg(),
                vec![1e-3; 2]
            ),
            Err(CompressError::InvalidConfig(_))
        ));
        // Non-finite / non-positive bounds.
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            assert!(matches!(
                ArchiveWriter::<f32, Vec<u8>>::create_planned(
                    Vec::new(),
                    shape,
                    &cfg(),
                    vec![1e-3, bad, 1e-3]
                ),
                Err(CompressError::InvalidBound(_))
            ));
        }
        // Point-wise relative configs cannot be planned.
        let rel = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(1e-3),
        )
        .chunked(6);
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create_planned(Vec::new(), shape, &rel, vec![1e-3; 3]),
            Err(CompressError::InvalidConfig(_))
        ));
    }

    #[test]
    fn planned_auto_codec_schedules_per_chunk_bound() {
        // Under Auto, the scheduler sees each chunk's own bound: the same
        // turbulent slab flips from rolz (tight bound, everything escapes
        // to verbatim — which the residual coder carries cheapest) to sz
        // (moderate bound, in-range high-entropy symbols where plain
        // Huffman beats rolz's token overhead) purely by plan.
        let field = rq_datagen::fields::mixed_smooth_turbulent(Shape::d3(12, 10, 10), 0, 40.0);
        let c = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(6)
            .with_codec(CodecChoice::Auto);
        let archive = |plan: Vec<f64>| {
            let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                field.shape(),
                &c,
                plan,
            )
            .unwrap();
            w.write_slab(&field).unwrap();
            w.finalize().unwrap().sink
        };
        let kinds = |b: &[u8]| -> Vec<ChunkCodecKind> {
            chunk_table(b).unwrap().entries.iter().map(|e| e.codec).collect()
        };
        // One archive, one slab repeated, two bounds: the codec follows
        // the chunk's planned bound, not the archive-wide one.
        let mixed = archive(vec![1e-4, 1.0]);
        assert_eq!(kinds(&mixed), vec![ChunkCodecKind::Rolz, ChunkCodecKind::Sz]);
        let tight = archive(vec![1e-4, 1e-4]);
        assert_eq!(kinds(&tight), vec![ChunkCodecKind::Rolz, ChunkCodecKind::Rolz]);
    }

    #[test]
    fn chunk_source_matches_read_paths() {
        // The trait view of a ConcurrentReader must deliver the same
        // bytes as its direct read paths, count decodes in the aggregate
        // stats, and type out-of-range / scalar errors.
        let field = wavy(Shape::d2(30, 12));
        let bytes = stream_archive(&field, &cfg(), 30); // chunks of 6 rows
        let full = decompress::<f32>(&bytes).unwrap();
        let reader = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
        let src: &dyn ChunkSource<f32> = &reader;
        assert_eq!(src.entries().len(), 5);
        assert_eq!(src.chunk_rows(), 6);
        let chunk = src.fetch_chunk(2).unwrap();
        assert_eq!(&chunk[..], &full.as_slice()[12 * 12..18 * 12]);
        assert_eq!(reader.stats().chunks_decoded, 1);
        assert!(matches!(
            src.fetch_chunk(5),
            Err(DecompressError::ChunkOutOfRange { requested: 5, available: 5 })
        ));
        // Delivery over the trait == the reader's own read_rows, for
        // interior, boundary-straddling and full-field ranges.
        for range in [7..11, 3..25, 0..30] {
            let a = assemble_rows(src, range.clone()).unwrap();
            let b = reader.read_rows::<f32>(range).unwrap();
            assert_eq!(a.shape().dims(), b.shape().dims());
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert!(matches!(
            assemble_rows::<f32, _>(src, 0..31),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            assemble_rows::<f32, _>(src, 4..4),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            assemble_rows::<f64, _>(&reader, 0..4),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn with_threads_clamps_to_cores_and_exact_does_not() {
        let field = wavy(Shape::d2(12, 6));
        let bytes = stream_archive(&field, &cfg(), 12);
        let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads(cpus + 7);
        assert_eq!(r.threads(), cpus, "with_threads must clamp to the core count");
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads_exact(cpus + 7);
        assert_eq!(r.threads(), cpus + 7, "with_threads_exact must not clamp");
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads(0);
        assert_eq!(r.threads(), cpus, "0 = one per core");
    }

    #[test]
    fn reader_scalar_mismatch_detected() {
        let field = wavy(Shape::d2(12, 6));
        let bytes = stream_archive(&field, &cfg(), 12);
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        assert!(matches!(
            r.read_all::<f64>(),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn poisoned_scratch_slab_is_fully_overwritten() {
        // The pools hand back dirty buffers by contract; a partial-take
        // decode through a garbage-seeded scratch pool must still yield
        // exactly the reference rows.
        let field = wavy(Shape::d3(18, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 18);
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let header = r.header().clone();
        let entry = r.entries()[1];
        let cshape = entry_shape(header.shape, entry);
        let row_elems: usize = header.shape.dims()[1..].iter().product();
        // Reference: rows 1.. of chunk 1 via the normal read path.
        let want =
            r.read_rows::<f32>(entry.start_row + 1..entry.start_row + entry.rows).unwrap();

        let scratch = SlabPool::<f32>::new();
        scratch.seed(vec![vec![f32::NAN; cshape.len()], vec![7.5e30; 3]]);
        let take = row_elems..cshape.len();
        let mut dst = vec![f32::NAN; take.end - take.start];
        let blob = &bytes[entry.offset..entry.offset + entry.len];
        let copied =
            decode_slice_job(&header, blob, SliceJob { entry, cshape, take, dst: &mut dst }, &scratch)
                .unwrap();
        assert!(copied, "a partial take must go through scratch");
        assert_eq!(&dst[..], want.as_slice());
        assert!(dst.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zfp_zero_blocks_overwrite_dirty_slabs() {
        // An all-zero field makes the zfp encoder emit empty blocks; the
        // decoder must store explicit zeros rather than assume a zeroed
        // destination, or recycled slabs would leak garbage.
        let field = NdArray::<f32>::from_fn(Shape::d3(12, 8, 8), |_| 0.0);
        let zcfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(6)
            .with_codec(CodecChoice::Zfp);
        let bytes = stream_archive(&field, &zcfg, 12);
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let header = r.header().clone();
        let entry = r.entries()[0];
        let cshape = entry_shape(header.shape, entry);
        let row_elems: usize = header.shape.dims()[1..].iter().product();
        let scratch = SlabPool::<f32>::new();
        scratch.seed(vec![vec![123.0f32; cshape.len()]]);
        let take = row_elems..cshape.len();
        let mut dst = vec![123.0f32; take.end - take.start];
        let blob = &bytes[entry.offset..entry.offset + entry.len];
        decode_slice_job(&header, blob, SliceJob { entry, cshape, take, dst: &mut dst }, &scratch)
            .unwrap();
        assert!(dst.iter().all(|&v| v == 0.0), "dirty slab leaked through zfp zero blocks");
    }

    #[test]
    fn repeated_reads_recycle_buffers_byte_identically() {
        // Later reads run on recycled (dirty) blob buffers and scratch
        // slabs — natural poisoning across calls — and must match the
        // first read exactly; aligned reads must never reorder-copy.
        let field = wavy(Shape::d3(24, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 24);
        for threads in [1usize, 2] {
            let mut r = ArchiveReader::open(Cursor::new(&bytes[..]))
                .unwrap()
                .with_threads_exact(threads);
            let first = r.read_rows::<f32>(0..24).unwrap();
            for _ in 0..3 {
                let again = r.read_rows::<f32>(0..24).unwrap();
                assert_eq!(first.as_slice(), again.as_slice(), "threads={threads}");
            }
            assert_eq!(r.stats().reorder_copies, 0, "aligned reads must decode in place");
            // Cropping rows 3..15 cuts chunks 0 and 2 mid-chunk.
            let _ = r.read_rows::<f32>(3..15).unwrap();
            assert_eq!(r.stats().reorder_copies, 2, "threads={threads}");
        }
    }

    #[test]
    fn open_path_mapped_reader_matches_in_memory() {
        let field = wavy(Shape::d3(24, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 24);
        let dir = std::env::temp_dir().join("rqm_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mapped_{}.rqm", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let mut want_r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let want = want_r.read_all::<f32>().unwrap();

        for threads in [1usize, 2, 4] {
            let mut r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
            if cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))
            {
                assert!(r.is_mapped(), "expected an mmap-backed reader on Linux");
            }
            assert_eq!(want.as_slice(), r.read_all::<f32>().unwrap().as_slice());
            // Ordered streaming over the same mapped source.
            let mut streamed: Vec<f32> = Vec::new();
            let mut r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
            r.decompress_rows::<f32>(|slab| {
                streamed.extend_from_slice(slab);
                Ok(())
            })
            .unwrap();
            assert_eq!(want.as_slice(), &streamed[..], "ordered threads={threads}");
        }

        // Concurrent mapped reader: fetches take no lock, bytes agree.
        let cr = ConcurrentReader::open_path(&path).unwrap();
        assert_eq!(want.as_slice(), cr.read_all::<f32>().unwrap().as_slice());
        assert_eq!(cr.stats().reorder_copies, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finished_archive_report_matches_one_shot() {
        let field = wavy(Shape::d3(20, 8, 8));
        let shape = field.shape();
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &cfg()).unwrap();
        w.write_slab(&field).unwrap();
        let fin = w.finalize().unwrap();
        assert_eq!(fin.bytes_written as usize, fin.sink.len());
        let (_, rep) = crate::pipeline::compress_with_report(&field, &cfg()).unwrap();
        assert_eq!(fin.report.n_chunks, rep.n_chunks);
        assert_eq!(fin.report.n_quantized, rep.n_quantized);
        assert_eq!(fin.report.n_unpredictable, rep.n_unpredictable);
        assert_eq!(fin.report.huffman_bytes, rep.huffman_bytes);
        assert_eq!(fin.report.symbol_histogram, rep.symbol_histogram);
        // Container size differs only by index placement/encoding.
        assert_eq!(fin.report.n_elements, rep.n_elements);
    }
}
