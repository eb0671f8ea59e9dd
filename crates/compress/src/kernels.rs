//! Test/bench access to the chunk kernels.
//!
//! Hidden from the public docs on purpose: this surface exists so
//! `tests/kernel_differential.rs` and the `codec_kernels` bench can drive
//! the fast and reference kernel paths against each other at the
//! chunk-blob level, without widening the real API. The container format
//! is identical on both paths — that identity is the whole point.

use crate::codec::{ChunkCodec, SzChunkCodec};
use crate::config::LosslessStage;
use crate::container::{CompressError, DecompressError};
pub use crate::pipeline::KernelPath;
use rq_grid::{Scalar, Shape};
use rq_predict::PredictorKind;
use rq_quant::LinearQuantizer;

/// Encode one slab to a v2 chunk blob on the chosen kernel path.
///
/// Identical inputs must produce byte-identical blobs on both paths.
pub fn encode_chunk<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    lossless: LosslessStage,
    path: KernelPath,
) -> Result<Vec<u8>, CompressError> {
    let codec = SzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius), lossless)
        .with_kernel_path(path);
    Ok(codec.encode(data, shape)?.0)
}

/// Decode a v2 chunk blob produced by [`encode_chunk`] on the chosen
/// kernel path. Both paths must reconstruct bit-identical values and
/// accept/reject exactly the same blobs.
pub fn decode_chunk<T: Scalar>(
    blob: &[u8],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    path: KernelPath,
    out: &mut [T],
) -> Result<(), DecompressError> {
    let codec = SzChunkCodec::new(
        predictor,
        LinearQuantizer::new(eb, radius),
        LosslessStage::RleLzss, // per-blob flag byte is authoritative
    )
    .with_kernel_path(path);
    codec.decode(blob, shape, out)
}

/// Encode one slab to a ROLZ chunk blob on the chosen kernel path.
///
/// Identical inputs must produce byte-identical blobs on both paths (the
/// paths differ in match extension — SWAR vs byte loop — and in the
/// Huffman coder, all proven output-equal).
pub fn encode_chunk_rolz<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    path: KernelPath,
) -> Result<Vec<u8>, CompressError> {
    let codec = crate::rolz::RolzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius))
        .with_kernel_path(path);
    Ok(codec.encode(data, shape)?.0)
}

/// Decode a ROLZ chunk blob produced by [`encode_chunk_rolz`] on the
/// chosen kernel path. Both paths must reconstruct bit-identical values
/// and accept/reject exactly the same blobs.
pub fn decode_chunk_rolz<T: Scalar>(
    blob: &[u8],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    path: KernelPath,
    out: &mut [T],
) -> Result<(), DecompressError> {
    let codec = crate::rolz::RolzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius))
        .with_kernel_path(path);
    codec.decode(blob, shape, out)
}

/// The ROLZ model alone on a code byte stream: the `(tokens, lens, raws)`
/// streams the chunk codec entropy-codes. Both paths must give equal
/// streams (the fast match finder extends only the slots whose first
/// four bytes match; the reference extends every slot byte by byte).
pub fn rolz_tokens(bytes: &[u8], path: KernelPath) -> (Vec<u32>, Vec<u8>, Vec<u8>) {
    crate::rolz::tokens_of(bytes, path)
}

/// Decode [`rolz_tokens`] streams back to `n_bytes` code bytes on the
/// chosen path, or fail with the typed error a damaged blob gives.
pub fn rolz_bytes(
    tokens: &[u32],
    lens: &[u8],
    raws: &[u8],
    n_bytes: usize,
    path: KernelPath,
) -> Result<Vec<u8>, DecompressError> {
    crate::rolz::bytes_of(tokens, lens, raws, n_bytes, path)
}

/// Run one Lorenzo traversal with the caller's visit closure — exposes
/// the predictor hot loop alone (the fast row-specialized walk vs the
/// generic stencil walk) to the differential tests and the bench.
pub fn traverse_lorenzo(
    shape: Shape,
    order: usize,
    path: KernelPath,
    visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    crate::pipeline::traverse_lorenzo(shape, order, path, visit)
}
