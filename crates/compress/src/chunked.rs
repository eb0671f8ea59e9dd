//! Chunk-parallel compression and decompression (container format v2).
//!
//! The field is split into axis-0 slabs ([`rq_grid::slab_chunks`]); each
//! slab runs the same causal kernel as the serial pipeline
//! (`encode_stream` in [`crate::pipeline`]) but as an independent stream:
//! predictor stencils reset at slab boundaries, every slab gets its own
//! Huffman codebook, payload, verbatim section and side channel. Because
//! slabs of a row-major array are contiguous, chunking costs no copies on
//! either side — workers read disjoint input slices and decode into
//! disjoint output slices.
//!
//! The error-bound guarantee is unaffected: the absolute bound is resolved
//! once against the *whole* field (so value-range-relative bounds match
//! the serial pipeline bit for bit) and every point is quantized against
//! that bound inside exactly one chunk.
//!
//! Work is distributed round-robin over `threads` scoped workers
//! (`std::thread::scope` — no dependency, no pool reuse; chunk workloads
//! are large enough that spawn cost is noise). Round-robin keeps the
//! assignment deterministic, and chunk sizes are uniform except for the
//! tail slab, so balance is good without a shared queue.
//!
//! Random access: [`decompress_chunk`] decodes a single slab via the v2
//! chunk index without touching the rest of the container.

use crate::codec::{ChunkCodec, ChunkStats, ZfpChunkCodec};
use crate::config::{Chunking, CodecChoice, CompressorConfig};
use crate::container::{
    container_version, read_chunk_blob, read_container_v2_index, write_container_v2,
    write_container_v2_1, write_container_v2_4, ChunkCodecKind, ChunkEntry, CompressError,
    DecompressError, Header, VERSION_V1, VERSION_V2, VERSION_V2_1, VERSION_V2_4,
};
use crate::pipeline::{decode_stream, resolve_bound, transform_from_header};
use crate::report::{CompressedOutput, CompressionReport};
use crate::stream::SlabEncoder;
use rq_grid::{auto_chunk_rows, slab_chunks, NdArray, Scalar, Shape};
use rq_quant::LinearQuantizer;

/// Minimum elements per auto-sized chunk, so per-chunk codebook/section
/// overhead stays well under a percent of typical chunk payloads.
const AUTO_MIN_CHUNK_ELEMS: usize = 1 << 15;

/// Auto mode aims for this many chunks per worker thread, which keeps the
/// tail of the schedule short without shrinking chunks too far.
const AUTO_CHUNKS_PER_THREAD: usize = 4;

/// The axis-0 rows per chunk that `cfg`'s chunking resolves to for
/// `shape` — i.e. the chunk partition every pipeline (one-shot, streaming,
/// planned) will use. Public so quality-targeted callers can run their
/// per-chunk pre-pass over exactly the partition the writer will encode.
pub fn resolved_chunk_rows(cfg: &CompressorConfig, shape: Shape) -> usize {
    resolve_chunk_rows(cfg, shape)
}

/// Resolve the configured chunking to a concrete row count per slab.
pub(crate) fn resolve_chunk_rows(cfg: &CompressorConfig, shape: Shape) -> usize {
    match cfg.chunking {
        Chunking::Serial => shape.dim(0),
        Chunking::Rows(rows) => rows.clamp(1, shape.dim(0)),
        Chunking::Auto => auto_chunk_rows(
            shape,
            cfg.resolved_threads() * AUTO_CHUNKS_PER_THREAD,
            AUTO_MIN_CHUNK_ELEMS,
        ),
    }
}

/// Run `f` over `items` on up to `threads` scoped workers, round-robin.
/// Results come back in input order. Errors are propagated (first one in
/// input order wins).
pub(crate) fn run_on_workers<I, R, E, F>(items: Vec<I>, threads: usize, f: F) -> Result<Vec<R>, E>
where
    I: Send,
    R: Send,
    E: Send,
    F: Fn(I) -> Result<R, E> + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(&f).collect();
    }
    let n = items.len();
    // Hand worker w items w, w+threads, w+2·threads, …
    let mut per_worker: Vec<Vec<(usize, I)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        per_worker[i % threads].push((i, item));
    }
    let f = &f;
    let mut slots: Vec<Option<Result<R, E>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for batch in per_worker {
            handles.push(scope.spawn(move || {
                batch
                    .into_iter()
                    .map(|(i, item)| (i, f(item)))
                    .collect::<Vec<(usize, Result<R, E>)>>()
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("compression worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("worker covered every item")).collect()
}

/// Compress `field` into a v2 chunk-indexed container.
///
/// Invoked by [`crate::compress`] for any non-serial [`Chunking`]; callable
/// directly when the caller wants chunked output regardless of `cfg`'s
/// chunking mode (a `Serial` config is treated as one big chunk).
pub fn compress_chunked<T: Scalar>(
    field: &NdArray<T>,
    cfg: &CompressorConfig,
) -> Result<CompressedOutput, CompressError> {
    compress_chunked_with_report(field, cfg).map(|(out, _)| out)
}

/// [`compress_chunked`], also returning aggregated per-stage measurements.
///
/// A thin wrapper over the streaming session's encode core
/// ([`crate::stream`]): the field is cut into chunks, encoded on the
/// worker pool by the shared `SlabEncoder`, and assembled into an
/// index-first v2 (fixed-SZ configs, byte-identical to earlier releases)
/// or v2.1 (adaptive codecs) container.
pub fn compress_chunked_with_report<T: Scalar>(
    field: &NdArray<T>,
    cfg: &CompressorConfig,
) -> Result<(CompressedOutput, CompressionReport), CompressError> {
    cfg.validate().map_err(CompressError::InvalidConfig)?;
    let shape = field.shape();
    let n = shape.len();
    let (abs_eb, transform) = resolve_bound(cfg, field.value_range())?;
    let enc = SlabEncoder::from_cfg(cfg, abs_eb, transform)?;

    let chunk_rows = resolve_chunk_rows(cfg, shape);
    let chunks = slab_chunks(shape, chunk_rows);
    let encoded = enc.encode_chunks(field.as_slice(), chunks)?;

    // Fixed-SZ and fixed-ZFP configs keep their historical generations
    // byte for byte; only rolz-capable policies move to v2.4.
    let version = match cfg.codec {
        CodecChoice::Sz => VERSION_V2,
        CodecChoice::Zfp => VERSION_V2_1,
        CodecChoice::Rolz | CodecChoice::Auto => VERSION_V2_4,
    };
    let header = Header {
        version,
        scalar_tag: T::TAG,
        predictor: cfg.predictor,
        lossless: cfg.lossless,
        log_transform: enc.transform != crate::pipeline::Transform::Identity,
        shape,
        abs_eb,
        radius: cfg.radius,
    };

    let mut totals = ChunkTotals::new(&enc.quantizer);
    let bytes = match version {
        VERSION_V2 => {
            let mut blobs = Vec::with_capacity(encoded.len());
            for ec in encoded {
                blobs.push((ec.rows, ec.blob));
                totals.add(ChunkCodecKind::Sz, &ec.stats);
            }
            write_container_v2::<T>(&header, chunk_rows, &blobs)
        }
        VERSION_V2_1 => {
            let mut blobs = Vec::with_capacity(encoded.len());
            for ec in encoded {
                blobs.push((ec.rows, ec.codec, ec.blob));
                totals.add(ec.codec, &ec.stats);
            }
            write_container_v2_1::<T>(&header, chunk_rows, &blobs)
        }
        _ => {
            let mut blobs = Vec::with_capacity(encoded.len());
            for ec in encoded {
                blobs.push((ec.rows, ec.codec, ec.eb, ec.blob));
                totals.add(ec.codec, &ec.stats);
            }
            write_container_v2_4::<T>(&header, chunk_rows, &blobs)
        }
    };
    let report = totals.into_report(n, T::BITS, bytes.len());
    Ok((CompressedOutput { bytes, n_elements: n, original_bits: T::BITS }, report))
}

/// Running sum of per-chunk encoding statistics, folded into one
/// [`CompressionReport`] at the end (shared by the one-shot chunked
/// pipeline and the streaming writer). Folding each chunk as it completes
/// keeps one symbol histogram resident instead of one per chunk.
pub(crate) struct ChunkTotals {
    /// Summed symbol histogram including the escape bin.
    histogram: Vec<u64>,
    n_symbols: usize,
    n_escapes: usize,
    n_anchors: usize,
    huffman_bytes: usize,
    encoded_bytes: usize,
    codebook_bytes: usize,
    side_bytes: usize,
    chunk_codecs: Vec<ChunkCodecKind>,
}

impl ChunkTotals {
    pub(crate) fn new(quantizer: &LinearQuantizer) -> Self {
        ChunkTotals {
            histogram: vec![0u64; quantizer.alphabet_size() + 1],
            n_symbols: 0,
            n_escapes: 0,
            n_anchors: 0,
            huffman_bytes: 0,
            encoded_bytes: 0,
            codebook_bytes: 0,
            side_bytes: 0,
            chunk_codecs: Vec::new(),
        }
    }

    pub(crate) fn add(&mut self, codec: ChunkCodecKind, stats: &ChunkStats) {
        for (acc, add) in self.histogram.iter_mut().zip(&stats.histogram) {
            *acc += add;
        }
        self.n_symbols += stats.n_symbols;
        self.n_escapes += stats.n_escapes;
        self.n_anchors += stats.n_anchors;
        self.huffman_bytes += stats.huffman_bytes;
        self.encoded_bytes += stats.encoded_bytes;
        self.codebook_bytes += stats.codebook_bytes;
        self.side_bytes += stats.side_bytes;
        self.chunk_codecs.push(codec);
    }

    pub(crate) fn into_report(
        mut self,
        n_elements: usize,
        original_bits: u32,
        container_bytes: usize,
    ) -> CompressionReport {
        self.histogram.pop(); // drop the escape bin
        CompressionReport {
            // ZFP chunks have no symbol stream: the histogram and element
            // accounting cover the SZ-coded chunks only.
            n_quantized: self.n_symbols - self.n_escapes,
            symbol_histogram: self.histogram,
            n_unpredictable: self.n_escapes,
            n_anchors: self.n_anchors,
            huffman_bytes: self.huffman_bytes,
            encoded_bytes: self.encoded_bytes,
            codebook_bytes: self.codebook_bytes,
            side_bytes: self.side_bytes,
            container_bytes,
            n_elements,
            original_bits,
            n_chunks: self.chunk_codecs.len(),
            chunk_codecs: self.chunk_codecs,
        }
    }
}

/// Decode one chunk blob into its output slab, dispatching on the chunk's
/// codec tag. `eb` is the chunk's authoritative absolute bound (the
/// header's bound for pre-v2.3 archives, the per-chunk index entry for
/// v2.3). Shared by the in-memory decompressors and the streaming
/// [`crate::ArchiveReader`].
pub(crate) fn decode_chunk_blob<T: Scalar>(
    blob: &[u8],
    header: &Header,
    codec: ChunkCodecKind,
    eb: f64,
    chunk_shape: Shape,
    out: &mut [T],
) -> Result<(), DecompressError> {
    match codec {
        ChunkCodecKind::Sz => {
            let (lossless, body) = read_chunk_blob::<T>(blob)?;
            decode_stream(
                &body,
                lossless,
                chunk_shape,
                header.predictor,
                LinearQuantizer::new(eb, header.radius),
                transform_from_header(header),
                crate::pipeline::KernelPath::Fast,
                out,
            )
        }
        ChunkCodecKind::Zfp => {
            ChunkCodec::<T>::decode(&ZfpChunkCodec::new(eb), blob, chunk_shape, out)
        }
        ChunkCodecKind::Rolz => {
            let codec = crate::rolz::RolzChunkCodec::new(
                header.predictor,
                LinearQuantizer::new(eb, header.radius),
            )
            .with_transform(transform_from_header(header));
            ChunkCodec::<T>::decode(&codec, blob, chunk_shape, out)
        }
    }
}

/// Decode one chunk blob into its output slab, handling the v1 special
/// case (the v1 "chunk" is the whole container body: four sections with no
/// per-chunk flag byte, the header's lossless flag authoritative). This is
/// the blob decoder every random-access reader — streaming, concurrent,
/// parallel — dispatches through.
pub(crate) fn decode_entry_blob<T: Scalar>(
    blob: &[u8],
    header: &Header,
    entry: ChunkEntry,
    chunk_shape: Shape,
    out: &mut [T],
) -> Result<(), DecompressError> {
    if header.version == VERSION_V1 {
        let mut pos = 0usize;
        let body = crate::container::read_sections_body::<T>(blob, &mut pos)?;
        decode_stream(
            &body,
            header.lossless,
            chunk_shape,
            header.predictor,
            LinearQuantizer::new(header.abs_eb, header.radius),
            transform_from_header(header),
            crate::pipeline::KernelPath::Fast,
            out,
        )
    } else {
        decode_chunk_blob(blob, header, entry.codec, entry.eb, chunk_shape, out)
    }
}

/// Decode one located chunk of an in-memory container into its output
/// slab.
fn decode_entry<T: Scalar>(
    bytes: &[u8],
    header: &Header,
    entry: ChunkEntry,
    chunk_shape: Shape,
    out: &mut [T],
) -> Result<(), DecompressError> {
    decode_chunk_blob(
        &bytes[entry.offset..entry.offset + entry.len],
        header,
        entry.codec,
        entry.eb,
        chunk_shape,
        out,
    )
}

/// Shape of the slab covered by `entry` within a field of shape `shape`.
pub(crate) fn entry_shape(shape: Shape, entry: ChunkEntry) -> Shape {
    let mut dims = [0usize; rq_grid::MAX_DIMS];
    dims[..shape.ndim()].copy_from_slice(shape.dims());
    dims[0] = entry.rows;
    Shape::new(&dims[..shape.ndim()])
}

/// Decompress any container version with an explicit worker-thread count
/// (`0` = one per available CPU). v1 containers ignore the thread count
/// (their single stream is inherently sequential).
///
/// The count is clamped to `available_parallelism` — the same policy as
/// [`crate::ArchiveReader::with_threads`]: extra workers beyond the core
/// count only add dispatch and context-switch overhead (measurably
/// *slower* than serial decode on a 1-CPU host) without any more decode
/// bandwidth to use. Use [`decompress_with_threads_exact`] to
/// oversubscribe deliberately.
pub fn decompress_with_threads<T: Scalar>(
    bytes: &[u8],
    threads: usize,
) -> Result<NdArray<T>, DecompressError> {
    let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    decompress_with_threads_exact(bytes, if threads == 0 { cpus } else { threads.min(cpus) })
}

/// [`decompress_with_threads`] without the `available_parallelism`
/// clamp: exactly `threads` workers (`0` is treated as `1`), even beyond
/// the core count. Decoded bytes are identical either way; this exists
/// so tests can exercise the worker pool's dispatch machinery on
/// machines with few cores.
pub fn decompress_with_threads_exact<T: Scalar>(
    bytes: &[u8],
    threads: usize,
) -> Result<NdArray<T>, DecompressError> {
    if container_version(bytes)? == VERSION_V1 {
        return crate::pipeline::decompress(bytes);
    }
    let idx = read_container_v2_index::<T>(bytes)?;
    let header = idx.header;
    let shape = header.shape;
    let threads = threads.max(1);

    let mut out = vec![T::zero(); shape.len()];
    // Slabs are contiguous and ordered: split the output buffer into one
    // disjoint mutable slice per chunk.
    let mut slabs: Vec<(ChunkEntry, Shape, &mut [T])> = Vec::with_capacity(idx.entries.len());
    let mut rest: &mut [T] = &mut out;
    for &entry in &idx.entries {
        let cshape = entry_shape(shape, entry);
        let (slab, tail) = rest.split_at_mut(cshape.len());
        slabs.push((entry, cshape, slab));
        rest = tail;
    }
    debug_assert!(rest.is_empty());

    run_on_workers(slabs, threads, |(entry, cshape, slab)| {
        decode_entry::<T>(bytes, &header, entry, cshape, slab)
    })?;

    Ok(NdArray::from_vec(shape, out))
}

/// Decode a single chunk of a v2 container (random access).
///
/// Returns the slab's first axis-0 row and the decoded slab as a
/// standalone array. For a v1 container only chunk 0 exists (the whole
/// field).
pub fn decompress_chunk<T: Scalar>(
    bytes: &[u8],
    chunk: usize,
) -> Result<(usize, NdArray<T>), DecompressError> {
    if container_version(bytes)? == VERSION_V1 {
        if chunk != 0 {
            return Err(DecompressError::ChunkOutOfRange { requested: chunk, available: 1 });
        }
        return crate::pipeline::decompress(bytes).map(|a| (0, a));
    }
    let idx = read_container_v2_index::<T>(bytes)?;
    let Some(&entry) = idx.entries.get(chunk) else {
        return Err(DecompressError::ChunkOutOfRange {
            requested: chunk,
            available: idx.entries.len(),
        });
    };
    let cshape = entry_shape(idx.header.shape, entry);
    let mut out = vec![T::zero(); cshape.len()];
    decode_entry::<T>(bytes, &idx.header, entry, cshape, &mut out)?;
    Ok((entry.start_row, NdArray::from_vec(cshape, out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compress, compress_with_report, decompress};
    use crate::container::chunk_count;
    use rq_predict::PredictorKind;
    use rq_quant::ErrorBoundMode;

    fn wavy(shape: Shape) -> NdArray<f32> {
        let mut lin = 0u64;
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.11 * (a + 1) as f64).sin() * (10.0 / (a + 1) as f64);
            }
            lin += 1;
            let mut h = lin;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.04;
            v as f32
        })
    }

    fn assert_bounded(orig: &NdArray<f32>, recon: &NdArray<f32>, eb: f64) {
        for (i, (&a, &b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
            let err = (a as f64 - b as f64).abs();
            assert!(err <= eb * (1.0 + 1e-6), "element {i}: |{a} - {b}| = {err} > {eb}");
        }
    }

    #[test]
    fn single_chunk_matches_serial_reconstruction() {
        // One chunk covering the whole field runs the identical kernel on
        // identical input: the reconstruction must match the serial
        // pipeline element for element.
        let field = wavy(Shape::d3(16, 20, 24));
        for pred in PredictorKind::all() {
            let eb = 1e-3;
            let serial_cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb));
            let chunked_cfg = serial_cfg.chunked(16).with_threads(2);
            let serial = decompress::<f32>(&compress(&field, &serial_cfg).unwrap().bytes).unwrap();
            let out = compress(&field, &chunked_cfg).unwrap();
            assert_eq!(chunk_count(&out.bytes).unwrap(), 1);
            let chunked = decompress::<f32>(&out.bytes).unwrap();
            assert_eq!(
                serial.as_slice(),
                chunked.as_slice(),
                "{}: 1-chunk reconstruction diverged from serial",
                pred.name()
            );
        }
    }

    #[test]
    fn multi_chunk_roundtrip_all_predictors() {
        let field = wavy(Shape::d3(24, 12, 10));
        for pred in PredictorKind::all() {
            for rows in [1, 5, 7, 24] {
                let eb = 1e-2;
                let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb))
                    .chunked(rows)
                    .with_threads(4);
                let (out, rep) = compress_with_report(&field, &cfg).unwrap();
                assert_eq!(rep.n_chunks, 24usize.div_ceil(rows), "{}", pred.name());
                assert_eq!(chunk_count(&out.bytes).unwrap(), rep.n_chunks);
                let back = decompress::<f32>(&out.bytes).unwrap();
                assert_bounded(&field, &back, eb);
            }
        }
    }

    #[test]
    fn thread_counts_do_not_change_bytes() {
        // The container must be a pure function of (field, cfg modulo
        // threads): parallelism is an implementation detail.
        let field = wavy(Shape::d3(32, 16, 16));
        let base = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-3))
            .chunked(8);
        let reference = compress(&field, &base.with_threads(1)).unwrap().bytes;
        for threads in [2, 3, 8] {
            let bytes = compress(&field, &base.with_threads(threads)).unwrap().bytes;
            assert_eq!(reference, bytes, "threads={threads}");
        }
        // Parallel decode agrees with single-threaded decode (`_exact`
        // so the pool really runs 8-wide even on a small host).
        let a = decompress_with_threads::<f32>(&reference, 1).unwrap();
        let b = decompress_with_threads_exact::<f32>(&reference, 8).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn auto_chunking_roundtrips() {
        let field = wavy(Shape::d3(64, 16, 16));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .auto_chunked()
            .with_threads(4);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(rep.n_chunks >= 1);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, 1e-3);
    }

    #[test]
    fn random_access_chunk_decode() {
        let field = wavy(Shape::d3(20, 10, 8));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(6)
            .with_threads(2);
        let out = compress(&field, &cfg).unwrap();
        let n_chunks = chunk_count(&out.bytes).unwrap();
        assert_eq!(n_chunks, 4); // 6+6+6+2 rows

        let full = decompress::<f32>(&out.bytes).unwrap();
        let row_elems = 10 * 8;
        for i in 0..n_chunks {
            let (start_row, slab) = decompress_chunk::<f32>(&out.bytes, i).unwrap();
            assert_eq!(start_row, i * 6);
            let expect_rows = if i == 3 { 2 } else { 6 };
            assert_eq!(slab.shape().dims(), &[expect_rows, 10, 8]);
            let lo = start_row * row_elems;
            assert_eq!(slab.as_slice(), &full.as_slice()[lo..lo + slab.len()]);
        }
        assert!(matches!(
            decompress_chunk::<f32>(&out.bytes, n_chunks),
            Err(DecompressError::ChunkOutOfRange { .. })
        ));
    }

    #[test]
    fn random_access_on_v1_container() {
        let field = wavy(Shape::d2(12, 12));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
        let out = compress(&field, &cfg).unwrap();
        let (start, slab) = decompress_chunk::<f32>(&out.bytes, 0).unwrap();
        assert_eq!(start, 0);
        assert_eq!(slab.shape().dims(), field.shape().dims());
        assert!(decompress_chunk::<f32>(&out.bytes, 1).is_err());
    }

    #[test]
    fn value_range_relative_bound_is_global() {
        // The bound must resolve against the whole field's range, not a
        // chunk's: a chunk that only sees a flat region must still use the
        // global range.
        let field = NdArray::<f32>::from_fn(Shape::d2(16, 32), |ix| {
            if ix[0] < 8 {
                0.0
            } else {
                (ix[0] * 32 + ix[1]) as f32
            }
        });
        let rel = 1e-3;
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::ValueRangeRelative(rel))
            .chunked(4);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let abs = rel * field.value_range();
        assert_bounded(&field, &back, abs);
        // And the recorded bound matches the serial pipeline's.
        let serial = compress(&field, &CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::ValueRangeRelative(rel))).unwrap();
        let hc = crate::container::peek_header(&out.bytes).unwrap();
        let hs = crate::container::peek_header(&serial.bytes).unwrap();
        assert_eq!(hc.abs_eb, hs.abs_eb);
    }

    #[test]
    fn pointwise_relative_bound_chunked() {
        let field = NdArray::<f32>::from_fn(Shape::d2(24, 20), |ix| {
            (1.0 + (ix[0] as f64 * 0.2).sin().abs() * 100.0 + ix[1] as f64) as f32
        });
        let ratio = 1e-3;
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(ratio),
        )
        .chunked(5);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            let rel = ((a - b).abs() as f64) / (a.abs() as f64);
            assert!(rel <= ratio * (1.0 + 1e-5), "rel err {rel}");
        }
    }

    #[test]
    fn chunked_report_is_self_consistent() {
        let field = wavy(Shape::d2(60, 60));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(2e-2))
            .chunked(16);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_elements, 60 * 60);
        assert_eq!(rep.container_bytes, out.bytes.len());
        assert_eq!(rep.n_quantized + rep.n_unpredictable, rep.n_elements);
        let hist_total: u64 = rep.symbol_histogram.iter().sum();
        assert_eq!(hist_total as usize, rep.n_quantized);
        assert_eq!(rep.n_chunks, 4);
    }

    #[test]
    fn chunked_tiny_and_awkward_shapes() {
        for pred in PredictorKind::all() {
            for shape in [Shape::d1(1), Shape::d1(7), Shape::d2(1, 3), Shape::d3(3, 1, 2)] {
                let field = wavy(shape);
                let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(1e-3))
                    .chunked(2)
                    .with_threads(3);
                let out = compress(&field, &cfg).unwrap();
                let back = decompress::<f32>(&out.bytes).unwrap();
                assert_eq!(back.shape().dims(), shape.dims());
                assert_bounded(&field, &back, 1e-3);
            }
        }
    }

    #[test]
    fn zero_chunk_rows_is_error_not_panic() {
        // `chunked(0)` panics in the builder, but a literal
        // `Chunking::Rows(0)` bypasses it — the pipeline must return
        // InvalidConfig instead of panicking inside the chunker.
        let field = wavy(Shape::d2(8, 8));
        let mut cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
        cfg.chunking = Chunking::Rows(0);
        assert!(matches!(
            compress(&field, &cfg),
            Err(CompressError::InvalidConfig(_))
        ));
        cfg.codec = CodecChoice::Auto;
        assert!(matches!(
            compress(&field, &cfg),
            Err(CompressError::InvalidConfig(_))
        ));
    }

    #[test]
    fn corrupt_v2_is_error_not_panic() {
        let field = wavy(Shape::d2(30, 30));
        let cfg =
            CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(8);
        let out = compress(&field, &cfg).unwrap();
        for cut in [10, out.bytes.len() / 2, out.bytes.len() - 3] {
            let _ = decompress::<f32>(&out.bytes[..cut]); // must not panic
        }
        let mut mangled = out.bytes.clone();
        let mid = mangled.len() / 2;
        mangled[mid] ^= 0xff;
        let _ = decompress::<f32>(&mangled); // must not panic
        assert!(matches!(
            decompress_with_threads::<f64>(&out.bytes, 2),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    /// Axis-0 rows `0..mid` are a smooth low-amplitude wave (SZ's home
    /// turf); rows `mid..` are high-amplitude hash noise whose prediction
    /// errors blow past the quantizer's code range at tight bounds, the
    /// regime where the bit-plane coder wins.
    fn mixed_field(d0: usize, mid: usize) -> NdArray<f32> {
        rq_datagen::fields::mixed_smooth_turbulent(Shape::d3(d0, 12, 12), mid, 40.0)
    }

    #[test]
    fn auto_codec_splits_mixed_field() {
        // The acceptance scenario: on a mixed smooth/turbulent field the
        // scheduler must give at least two chunks different codecs, and
        // the round-trip must stay inside the bound everywhere.
        let field = mixed_field(32, 16);
        let eb = 1e-4;
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(8)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_chunks, 4);
        let sz = rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Sz).count();
        let zfp = rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Zfp).count();
        assert!(
            sz >= 1 && zfp >= 1,
            "expected a codec split, got {:?}",
            rep.chunk_codecs
        );
        // Smooth slabs to sz, turbulent slabs to zfp, specifically.
        assert_eq!(rep.chunk_codecs[0], ChunkCodecKind::Sz);
        assert_eq!(rep.chunk_codecs[3], ChunkCodecKind::Zfp);
        // The v2.1 chunk table agrees with the report.
        let table = crate::container::chunk_table(&out.bytes).unwrap();
        let tags: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
        assert_eq!(tags, rep.chunk_codecs);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, eb);
    }

    #[test]
    fn auto_codec_beats_or_matches_both_fixed_choices() {
        // The point of the scheduler: on the mixed field, adaptive output
        // should be no larger than either fixed codec (within the index
        // overhead of a few bytes per chunk).
        let field = mixed_field(32, 16);
        let eb = 1e-4;
        let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(8);
        let auto =
            compress(&field, &base.with_codec(CodecChoice::Auto)).unwrap().bytes.len();
        let sz = compress(&field, &base).unwrap().bytes.len();
        let zfp = compress(&field, &base.with_codec(CodecChoice::Zfp)).unwrap().bytes.len();
        let slack = 8 * 4; // tag + rounding per chunk
        assert!(auto <= sz + slack, "auto {auto} vs sz {sz}");
        assert!(auto <= zfp + slack, "auto {auto} vs zfp {zfp}");
    }

    #[test]
    fn fixed_zfp_codec_roundtrips_v2_1() {
        let field = wavy(Shape::d3(20, 10, 8));
        let eb = 1e-3;
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(6)
            .with_codec(CodecChoice::Zfp)
            .with_threads(3);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(rep.chunk_codecs.iter().all(|&c| c == ChunkCodecKind::Zfp));
        assert_eq!(crate::container::peek_header(&out.bytes).unwrap().version, 3);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, eb);
        // Random access decodes zfp chunks too.
        let full = decompress::<f32>(&out.bytes).unwrap();
        let (start_row, slab) = decompress_chunk::<f32>(&out.bytes, 1).unwrap();
        assert_eq!(start_row, 6);
        let lo = 6 * 10 * 8;
        assert_eq!(slab.as_slice(), &full.as_slice()[lo..lo + slab.len()]);
    }

    #[test]
    fn serial_chunking_with_non_sz_codec_is_one_tagged_chunk() {
        let field = wavy(Shape::d2(30, 30));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .with_codec(CodecChoice::Auto);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_chunks, 1);
        assert_eq!(chunk_count(&out.bytes).unwrap(), 1);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, 1e-3);
    }

    #[test]
    fn auto_codec_bytes_independent_of_threads() {
        let field = mixed_field(24, 12);
        let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(6)
            .with_codec(CodecChoice::Auto);
        let reference = compress(&field, &base.with_threads(1)).unwrap().bytes;
        for threads in [2, 4, 8] {
            let bytes = compress(&field, &base.with_threads(threads)).unwrap().bytes;
            assert_eq!(reference, bytes, "threads={threads}");
        }
    }

    #[test]
    fn zfp_codec_rejects_pointwise_relative_bound() {
        let field = NdArray::<f32>::from_fn(Shape::d2(16, 16), |ix| 1.0 + ix[0] as f32);
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(1e-3),
        )
        .chunked(4)
        .with_codec(CodecChoice::Zfp);
        assert!(matches!(
            compress(&field, &cfg),
            Err(CompressError::Unsupported(_))
        ));
    }

    #[test]
    fn auto_codec_falls_back_to_sz_for_pointwise_relative() {
        let field = NdArray::<f32>::from_fn(Shape::d2(24, 16), |ix| {
            (1.0 + (ix[0] as f64 * 0.2).sin().abs() * 100.0 + ix[1] as f64) as f32
        });
        let ratio = 1e-3;
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(ratio),
        )
        .chunked(6)
        .with_codec(CodecChoice::Auto);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(rep.chunk_codecs.iter().all(|&c| c == ChunkCodecKind::Sz));
        let back = decompress::<f32>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            let rel = ((a - b).abs() as f64) / (a.abs() as f64);
            assert!(rel <= ratio * (1.0 + 1e-5), "rel err {rel}");
        }
    }

    #[test]
    fn f64_chunked_roundtrip() {
        let field = NdArray::<f64>::from_fn(Shape::d2(30, 30), |ix| {
            (ix[0] as f64 * 0.3).cos() * 5.0 + ix[1] as f64 * 0.01
        });
        let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-6))
            .chunked(9)
            .with_threads(2);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f64>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + 1e-9));
        }
    }
}
