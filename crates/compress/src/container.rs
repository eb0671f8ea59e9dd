//! On-disk container formats for compressed fields.
//!
//! Three versions share one header prefix (all integers little-endian or
//! LEB128 varints):
//!
//! ```text
//! magic    "RQMC" (4 bytes)
//! version  u8   (1 = single-stream, 2 = chunked, 3 = chunked + codec
//!               tags, 4 = streaming trailer index)
//! scalar   u8   (Scalar::TAG)
//! pred     u8   (PredictorKind::tag)
//! flags    u8   bit0 = lossless stage applied*, bit1 = log transform
//! ndim     u8
//! dims     varint × ndim
//! eb       f64  absolute error bound actually used (post-resolution)
//! radius   varint
//! ```
//!
//! **Version 1** (serial pipeline) continues with four varint-length-
//! prefixed sections: `codebook | payload | verbatim values | side
//! channel`. "Verbatim values" holds unpredictable escapes and
//! interpolation anchors in traversal order, stored as raw scalars so they
//! round-trip exactly.
//!
//! **Version 2** (chunk-parallel pipeline) continues with a chunk index
//! and then the per-chunk streams back to back:
//!
//! ```text
//! chunk_rows  varint            nominal axis-0 rows per chunk
//! n_chunks    varint
//! index       (rows varint, byte_len varint) × n_chunks
//! blobs       n_chunks × chunk blob
//! ```
//!
//! Each chunk blob is a self-contained v1-style body with its own flag
//! byte (bit0 = lossless stage applied to *this* chunk's payload):
//! `chunk_flags u8 | codebook | payload | verbatim | side`. Chunks are
//! axis-0 slabs in row order; byte offsets follow from the index, so any
//! chunk can be decoded without touching the others (random access) and
//! all chunks can be decoded concurrently.
//!
//! **Version 2.1** (version byte 3, adaptive-codec pipeline) is v2 with a
//! one-byte codec tag appended to every index entry:
//!
//! ```text
//! index       (rows varint, byte_len varint, codec u8) × n_chunks
//! ```
//!
//! The tag records which codec produced the chunk's blob
//! ([`ChunkCodecKind`]): `0` = the SZ prediction path (blob is the v2
//! chunk-blob layout above) and `1` = the ZFP transform path (blob is a
//! complete self-describing `RQZF` stream for the slab's shape). Untagged
//! v2 containers and v1 containers remain readable — their chunks are all
//! implicitly SZ.
//!
//! **Version 2.2** (version byte 4, streaming sessions) moves the chunk
//! index *behind* the blobs so a writer never has to buffer the archive:
//!
//! ```text
//! blobs        n_chunks × chunk blob (immediately after the header)
//! trailer      chunk_rows varint
//!              n_chunks   varint
//!              (rows varint, byte_len varint, codec u8) × n_chunks
//! trailer_len  u64 LE — byte length of the trailer above
//! magic        "RQIX" (4 bytes)
//! ```
//!
//! A reader seeks to the last 12 bytes, validates the `RQIX` magic, jumps
//! back `trailer_len` bytes to parse the index, and then has exactly the
//! same random-access chunk table as v2.1 — blob offsets accumulate
//! forward from the end of the header. Chunk blobs themselves are
//! byte-identical to their v2/v2.1 counterparts.
//!
//! **Version 2.3** (version byte 5, quality-targeted compression) is v2.2
//! with a per-chunk **absolute error bound** recorded next to the codec
//! tag in every trailer index entry:
//!
//! ```text
//! trailer      chunk_rows varint
//!              n_chunks   varint
//!              (rows varint, byte_len varint, codec u8, eb f64 LE) × n_chunks
//! ```
//!
//! The per-chunk `eb` is authoritative for decoding that chunk (both the
//! SZ quantizer and the ZFP tolerance); the header's `abs_eb` records the
//! **maximum** planned bound, i.e. the archive-wide worst-case pointwise
//! guarantee. Planned archives are produced by the quality/size-targeted
//! streaming writer (`ArchiveWriter::create_planned`); fixed-bound
//! configurations keep writing v2.2 byte-identically. Readers must reject
//! non-finite or non-positive per-chunk bounds as corruption.
//!
//! **Version 2.4** (version byte 6, three-way adaptive codec) has exactly
//! the v2.3 byte layout — trailer index with a per-chunk codec tag *and*
//! per-chunk error bound — and additionally allows codec tag `2`, the
//! ROLZ residual path (reduced-offset LZ + symbol ranking + static
//! Huffman over the quantization-code byte stream). Any configuration
//! that can emit a ROLZ chunk (`--codec rolz` or `--codec auto`) writes
//! v2.4; fixed sz/zfp configurations keep their earlier generations
//! byte-identically. Tag `2` inside any pre-v2.4 container is corruption.
//! See `docs/FORMAT.md` for the full byte-layout specification of all six
//! generations.
//!
//! (*) In v2/v2.1/v2.2 the header's lossless flag records the
//! *configuration*; the authoritative per-chunk decision is each SZ blob's
//! flag byte, since the stage is only kept where it actually shrank that
//! chunk's payload.

use crate::config::LosslessStage;
use rq_encoding::varint::{get_uvarint, put_uvarint, uvarint_len};
use rq_grid::{Scalar, Shape, MAX_DIMS};
use rq_predict::PredictorKind;

pub(crate) const MAGIC: &[u8; 4] = b"RQMC";
/// Single-stream container (the original format).
pub(crate) const VERSION_V1: u8 = 1;
/// Chunk-indexed container (parallel pipeline).
pub(crate) const VERSION_V2: u8 = 2;
/// Chunk-indexed container with per-chunk codec tags ("v2.1").
pub(crate) const VERSION_V2_1: u8 = 3;
/// Streaming container with a trailer chunk index ("v2.2").
pub(crate) const VERSION_V2_2: u8 = 4;
/// Streaming container with per-chunk error bounds in the trailer index
/// ("v2.3", quality-targeted compression).
pub(crate) const VERSION_V2_3: u8 = 5;
/// v2.3 layout with the ROLZ codec tag allowed ("v2.4", three-way
/// adaptive codec).
pub(crate) const VERSION_V2_4: u8 = 6;
/// Magic closing a v2.2 trailer (the last four bytes of the archive).
pub(crate) const TRAILER_MAGIC: &[u8; 4] = b"RQIX";
/// Fixed bytes after a v2.2 trailer body: u64 LE trailer length + magic.
pub(crate) const TRAILER_SUFFIX_LEN: usize = 8 + 4;
pub(crate) const FLAG_LOSSLESS: u8 = 0b01;
pub(crate) const FLAG_LOG: u8 = 0b10;

/// Errors produced while compressing.
#[derive(Debug)]
pub enum CompressError {
    /// The resolved error bound was invalid (e.g. relative bound on a
    /// constant field).
    InvalidBound(String),
    /// The configuration combines features that cannot work together
    /// (e.g. the zfp codec with a point-wise relative bound).
    Unsupported(String),
    /// The configuration itself is malformed (e.g. zero chunk rows
    /// constructed without the builder, or a slab that does not tile the
    /// declared shape).
    InvalidConfig(String),
    /// Entropy-coding failure (internal invariant violation).
    Encoding(rq_encoding::HuffmanError),
    /// The output stream failed (streaming writer only).
    Io(std::io::Error),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::InvalidBound(m) => write!(f, "invalid error bound: {m}"),
            CompressError::Unsupported(m) => write!(f, "unsupported configuration: {m}"),
            CompressError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            CompressError::Encoding(e) => write!(f, "encoding failed: {e}"),
            CompressError::Io(e) => write!(f, "output stream failed: {e}"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<rq_encoding::HuffmanError> for CompressError {
    fn from(e: rq_encoding::HuffmanError) -> Self {
        CompressError::Encoding(e)
    }
}

impl From<std::io::Error> for CompressError {
    fn from(e: std::io::Error) -> Self {
        CompressError::Io(e)
    }
}

/// Errors produced while decompressing.
#[derive(Debug)]
pub enum DecompressError {
    /// The buffer does not start with the container magic or a known
    /// version.
    NotAContainer,
    /// Scalar type mismatch between the container and the requested type.
    ScalarMismatch { expected: u8, found: u8 },
    /// Structural corruption.
    Corrupt(&'static str),
    /// A chunk index outside the container's chunk table.
    ChunkOutOfRange { requested: usize, available: usize },
    /// A row range outside the field's axis-0 extent.
    RowsOutOfRange { requested_end: usize, rows: usize },
    /// Huffman decode failure.
    Encoding(rq_encoding::HuffmanError),
    /// The input stream failed (streaming reader only).
    Io(std::io::Error),
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::NotAContainer => write!(f, "not an RQMC container"),
            DecompressError::ScalarMismatch { expected, found } => {
                write!(f, "scalar tag mismatch: expected {expected:#x}, found {found:#x}")
            }
            DecompressError::Corrupt(what) => write!(f, "corrupt container: {what}"),
            DecompressError::ChunkOutOfRange { requested, available } => {
                write!(f, "chunk {requested} out of range (container has {available})")
            }
            DecompressError::RowsOutOfRange { requested_end, rows } => {
                write!(f, "row range ends at {requested_end} but the field has {rows} rows")
            }
            DecompressError::Encoding(e) => write!(f, "huffman decode failed: {e}"),
            DecompressError::Io(e) => write!(f, "input stream failed: {e}"),
        }
    }
}

impl std::error::Error for DecompressError {}

impl From<std::io::Error> for DecompressError {
    fn from(e: std::io::Error) -> Self {
        DecompressError::Io(e)
    }
}

impl From<rq_encoding::HuffmanError> for DecompressError {
    fn from(e: rq_encoding::HuffmanError) -> Self {
        DecompressError::Encoding(e)
    }
}

/// Parsed container header (common to both versions).
#[derive(Debug, Clone)]
pub struct Header {
    /// Container format version (1 = serial, 2 = chunked, 3 = chunked
    /// with per-chunk codec tags, aka "v2.1").
    pub version: u8,
    /// Scalar tag of the stored field.
    pub scalar_tag: u8,
    /// Predictor the stream was produced with.
    pub predictor: PredictorKind,
    /// Whether the payload went through the optional lossless stage (in
    /// v2: whether the stage was enabled; per-chunk flags decide).
    pub lossless: LosslessStage,
    /// Whether data was log-transformed (point-wise relative mode).
    pub log_transform: bool,
    /// Field shape.
    pub shape: Shape,
    /// Absolute error bound used by the quantizer.
    pub abs_eb: f64,
    /// Quantizer radius.
    pub radius: u32,
}

/// The format version of a container, or an error if it is not one.
pub(crate) fn container_version(bytes: &[u8]) -> Result<u8, DecompressError> {
    if bytes.len() < 9 || &bytes[..4] != MAGIC {
        return Err(DecompressError::NotAContainer);
    }
    match bytes[4] {
        v @ (VERSION_V1 | VERSION_V2 | VERSION_V2_1 | VERSION_V2_2 | VERSION_V2_3
        | VERSION_V2_4) => Ok(v),
        _ => Err(DecompressError::NotAContainer),
    }
}

/// Which codec produced one chunk's blob (the per-chunk tag of container
/// v2.1; every chunk of a v1/v2 container is implicitly [`Self::Sz`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChunkCodecKind {
    /// The SZ prediction path: predictor + linear-scaling quantizer +
    /// Huffman (+ optional lossless stage).
    Sz,
    /// The ZFP transform path: block transform + embedded bitplane coder
    /// (the blob is a self-describing `RQZF` stream).
    Zfp,
    /// The ROLZ residual path: the SZ quantization-code stream re-coded
    /// through reduced-offset LZ + symbol ranking + static Huffman.
    /// Only valid inside v2.4 containers.
    Rolz,
}

impl ChunkCodecKind {
    /// Stable one-byte tag stored in v2.1 chunk-index entries.
    pub fn tag(self) -> u8 {
        match self {
            ChunkCodecKind::Sz => 0,
            ChunkCodecKind::Zfp => 1,
            ChunkCodecKind::Rolz => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ChunkCodecKind::Sz,
            1 => ChunkCodecKind::Zfp,
            2 => ChunkCodecKind::Rolz,
            _ => return None,
        })
    }

    /// Short name used by `rqm info` and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            ChunkCodecKind::Sz => "sz",
            ChunkCodecKind::Zfp => "zfp",
            ChunkCodecKind::Rolz => "rolz",
        }
    }
}

/// Serialize the shared header prefix.
pub(crate) fn write_header_prefix(out: &mut Vec<u8>, header: &Header, scalar_tag: u8) {
    out.extend_from_slice(MAGIC);
    out.push(header.version);
    out.push(scalar_tag);
    out.push(header.predictor.tag());
    let mut flags = 0u8;
    if header.lossless == LosslessStage::RleLzss {
        flags |= FLAG_LOSSLESS;
    }
    if header.log_transform {
        flags |= FLAG_LOG;
    }
    out.push(flags);
    out.push(header.shape.ndim() as u8);
    for &d in header.shape.dims() {
        put_uvarint(out, d as u64);
    }
    out.extend_from_slice(&header.abs_eb.to_le_bytes());
    put_uvarint(out, header.radius as u64);
}

/// Parse the shared header prefix; returns the header and the position of
/// the first byte after it. Does not check the scalar tag.
pub(crate) fn read_header_prefix(bytes: &[u8]) -> Result<(Header, usize), DecompressError> {
    let version = container_version(bytes)?;
    let scalar_tag = bytes[5];
    let predictor = PredictorKind::from_tag(bytes[6])
        .ok_or(DecompressError::Corrupt("unknown predictor tag"))?;
    let flags = bytes[7];
    let ndim = bytes[8] as usize;
    if ndim == 0 || ndim > MAX_DIMS {
        return Err(DecompressError::Corrupt("bad ndim"));
    }
    let mut pos = 9;
    let mut dims = [0usize; MAX_DIMS];
    let mut n_elements = 1usize;
    for d in dims.iter_mut().take(ndim) {
        *d = get_uvarint(bytes, &mut pos).ok_or(DecompressError::Corrupt("dims"))? as usize;
        if *d == 0 || *d > (1 << 32) {
            return Err(DecompressError::Corrupt("bad dim extent"));
        }
        // Corrupt varints can encode extents whose *product* overflows
        // usize even though each extent passes the per-dim bound; that
        // would panic inside Shape::len instead of returning an error.
        n_elements = n_elements
            .checked_mul(*d)
            .ok_or(DecompressError::Corrupt("element count overflow"))?;
    }
    let shape = Shape::new(&dims[..ndim]);
    if pos + 8 > bytes.len() {
        return Err(DecompressError::Corrupt("eb"));
    }
    let abs_eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(DecompressError::Corrupt("non-positive eb"));
    }
    let radius = get_uvarint(bytes, &mut pos).ok_or(DecompressError::Corrupt("radius"))? as u32;
    if radius == 0 {
        return Err(DecompressError::Corrupt("zero radius"));
    }
    let lossless =
        if flags & FLAG_LOSSLESS != 0 { LosslessStage::RleLzss } else { LosslessStage::None };
    Ok((
        Header {
            version,
            scalar_tag,
            predictor,
            lossless,
            log_transform: flags & FLAG_LOG != 0,
            shape,
            abs_eb,
            radius,
        },
        pos,
    ))
}

/// Append one varint-length-prefixed byte section.
fn write_byte_section(out: &mut Vec<u8>, section: &[u8]) {
    put_uvarint(out, section.len() as u64);
    out.extend_from_slice(section);
}

/// Read one varint-length-prefixed byte section.
fn read_byte_section(bytes: &[u8], pos: &mut usize) -> Result<Vec<u8>, DecompressError> {
    let len = get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("section len"))? as usize;
    // Checked: a corrupt varint can decode to a length that overflows the
    // addition, not just one that overruns the buffer.
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or(DecompressError::Corrupt("section overruns buffer"))?;
    let s = bytes[*pos..end].to_vec();
    *pos = end;
    Ok(s)
}

/// The four data sections of one compressed stream (a whole v1 container
/// body, or one v2 chunk).
pub(crate) struct SectionsBody<T> {
    pub codebook: Vec<u8>,
    pub payload: Vec<u8>,
    pub verbatim: Vec<T>,
    pub side: Vec<u8>,
}

/// Serialize the four sections: `codebook | payload | verbatim | side`.
fn write_sections_body<T: Scalar>(
    out: &mut Vec<u8>,
    codebook: &[u8],
    payload: &[u8],
    verbatim: &[T],
    side: &[u8],
) {
    write_byte_section(out, codebook);
    write_byte_section(out, payload);
    put_uvarint(out, verbatim.len() as u64);
    for &v in verbatim {
        v.write_le(out);
    }
    write_byte_section(out, side);
}

/// Parse the four sections written by [`write_sections_body`].
pub(crate) fn read_sections_body<T: Scalar>(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<SectionsBody<T>, DecompressError> {
    let codebook = read_byte_section(bytes, pos)?;
    let payload = read_byte_section(bytes, pos)?;
    let n_verbatim =
        get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("verbatim count"))? as usize;
    if n_verbatim
        .checked_mul(T::BYTES)
        .and_then(|b| b.checked_add(*pos))
        .is_none_or(|end| end > bytes.len())
    {
        return Err(DecompressError::Corrupt("verbatim overruns buffer"));
    }
    let mut verbatim = Vec::with_capacity(n_verbatim);
    for _ in 0..n_verbatim {
        verbatim.push(T::read_le(&bytes[*pos..]));
        *pos += T::BYTES;
    }
    let side = read_byte_section(bytes, pos)?;
    Ok(SectionsBody { codebook, payload, verbatim, side })
}

// ---------------------------------------------------------------------------
// Version 1 (single stream)
// ---------------------------------------------------------------------------

/// Serialize a v1 header followed by the four sections.
pub(crate) fn write_container<T: Scalar>(
    header: &Header,
    codebook: &[u8],
    payload: &[u8],
    verbatim: &[T],
    side: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        payload.len() + codebook.len() + verbatim.len() * T::BYTES + side.len() + 64,
    );
    write_header_prefix(&mut out, header, T::TAG);
    write_sections_body(&mut out, codebook, payload, verbatim, side);
    out
}

/// Parsed sections of a v1 container.
pub(crate) struct Sections<T> {
    pub header: Header,
    pub body: SectionsBody<T>,
}

/// Parse a v1 container produced by [`write_container`].
pub(crate) fn read_container<T: Scalar>(bytes: &[u8]) -> Result<Sections<T>, DecompressError> {
    let (header, mut pos) = read_header_prefix(bytes)?;
    if header.version != VERSION_V1 {
        return Err(DecompressError::Corrupt("not a v1 container"));
    }
    if header.scalar_tag != T::TAG {
        return Err(DecompressError::ScalarMismatch { expected: T::TAG, found: header.scalar_tag });
    }
    let body = read_sections_body::<T>(bytes, &mut pos)?;
    Ok(Sections { header, body })
}

// ---------------------------------------------------------------------------
// Version 2 (chunk index + per-chunk streams)
// ---------------------------------------------------------------------------

/// Per-chunk flag: the optional lossless stage was applied to this chunk's
/// payload.
pub(crate) const CHUNK_FLAG_LOSSLESS: u8 = 0b01;

/// One entry of a v2/v2.1/v2.2/v2.3 chunk index, with its blob located in
/// the container.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkEntry {
    /// First axis-0 row of the slab.
    pub start_row: usize,
    /// Axis-0 rows in the slab.
    pub rows: usize,
    /// Byte offset of the chunk blob within the container.
    pub offset: usize,
    /// Byte length of the chunk blob.
    pub len: usize,
    /// Codec that produced the blob (always [`ChunkCodecKind::Sz`] for
    /// v1/v2 containers).
    pub codec: ChunkCodecKind,
    /// Absolute error bound this chunk was quantized with. Equal to the
    /// header's `abs_eb` for every generation before v2.3; read from the
    /// per-chunk index entry (and authoritative for decoding) in v2.3.
    pub eb: f64,
}

/// Serialize one chunk's streams as a self-contained blob.
pub(crate) fn write_chunk_blob<T: Scalar>(
    lossless_applied: LosslessStage,
    codebook: &[u8],
    payload: &[u8],
    verbatim: &[T],
    side: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        payload.len() + codebook.len() + verbatim.len() * T::BYTES + side.len() + 16,
    );
    out.push(if lossless_applied == LosslessStage::RleLzss { CHUNK_FLAG_LOSSLESS } else { 0 });
    write_sections_body(&mut out, codebook, payload, verbatim, side);
    out
}

/// Length of the blob [`write_chunk_blob`] writes for sections of these
/// sizes (`n_verbatim` scalars), without building it.
pub(crate) fn chunk_blob_len<T: Scalar>(
    codebook_len: usize,
    payload_len: usize,
    n_verbatim: usize,
    side_len: usize,
) -> usize {
    let section = |len: usize| uvarint_len(len as u64) + len;
    1 + section(codebook_len)
        + section(payload_len)
        + uvarint_len(n_verbatim as u64)
        + n_verbatim * T::BYTES
        + section(side_len)
}

/// Parse a chunk blob written by [`write_chunk_blob`].
pub(crate) fn read_chunk_blob<T: Scalar>(
    blob: &[u8],
) -> Result<(LosslessStage, SectionsBody<T>), DecompressError> {
    if blob.is_empty() {
        return Err(DecompressError::Corrupt("empty chunk blob"));
    }
    let lossless = if blob[0] & CHUNK_FLAG_LOSSLESS != 0 {
        LosslessStage::RleLzss
    } else {
        LosslessStage::None
    };
    let mut pos = 1;
    let body = read_sections_body::<T>(blob, &mut pos)?;
    if pos != blob.len() {
        return Err(DecompressError::Corrupt("trailing bytes in chunk blob"));
    }
    Ok((lossless, body))
}

/// Serialize a v2 container: header, chunk index, then the blobs.
pub(crate) fn write_container_v2<T: Scalar>(
    header: &Header,
    chunk_rows: usize,
    chunks: &[(usize, Vec<u8>)], // (rows, blob) in slab order
) -> Vec<u8> {
    let body: usize = chunks.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(body + 16 * chunks.len() + 64);
    write_header_prefix(&mut out, header, T::TAG);
    put_uvarint(&mut out, chunk_rows as u64);
    put_uvarint(&mut out, chunks.len() as u64);
    for &(rows, ref blob) in chunks {
        put_uvarint(&mut out, rows as u64);
        put_uvarint(&mut out, blob.len() as u64);
    }
    for (_, blob) in chunks {
        out.extend_from_slice(blob);
    }
    out
}

/// Serialize a v2.1 container: like v2 but every index entry carries the
/// codec tag of its blob. `header.version` must be [`VERSION_V2_1`].
pub(crate) fn write_container_v2_1<T: Scalar>(
    header: &Header,
    chunk_rows: usize,
    chunks: &[(usize, ChunkCodecKind, Vec<u8>)], // (rows, codec, blob) in slab order
) -> Vec<u8> {
    let body: usize = chunks.iter().map(|(_, _, b)| b.len()).sum();
    let mut out = Vec::with_capacity(body + 16 * chunks.len() + 64);
    write_header_prefix(&mut out, header, T::TAG);
    put_uvarint(&mut out, chunk_rows as u64);
    put_uvarint(&mut out, chunks.len() as u64);
    for &(rows, codec, ref blob) in chunks {
        put_uvarint(&mut out, rows as u64);
        put_uvarint(&mut out, blob.len() as u64);
        out.push(codec.tag());
    }
    for (_, _, blob) in chunks {
        out.extend_from_slice(blob);
    }
    out
}

/// Serialize a whole v2.2 container in memory: header, blobs, trailer.
/// The streaming writer produces the identical byte sequence
/// incrementally; this convenience exists for container-level tests.
/// `header.version` must be [`VERSION_V2_2`].
#[cfg(test)]
pub(crate) fn write_container_v2_2<T: Scalar>(
    header: &Header,
    chunk_rows: usize,
    chunks: &[(usize, ChunkCodecKind, Vec<u8>)], // (rows, codec, blob) in slab order
) -> Vec<u8> {
    let body: usize = chunks.iter().map(|(_, _, b)| b.len()).sum();
    let mut out = Vec::with_capacity(body + 16 * chunks.len() + 64);
    write_header_prefix(&mut out, header, T::TAG);
    for (_, _, blob) in chunks {
        out.extend_from_slice(blob);
    }
    let entries: Vec<(usize, ChunkCodecKind, usize, f64)> = chunks
        .iter()
        .map(|&(rows, codec, ref blob)| (rows, codec, blob.len(), header.abs_eb))
        .collect();
    write_trailer(&mut out, chunk_rows, &entries, false);
    out
}

/// Serialize a whole v2.3 container in memory: like
/// [`write_container_v2_2`] but with a per-chunk error bound in every
/// trailer entry. `header.version` must be [`VERSION_V2_3`].
#[cfg(test)]
pub(crate) fn write_container_v2_3<T: Scalar>(
    header: &Header,
    chunk_rows: usize,
    chunks: &[(usize, ChunkCodecKind, f64, Vec<u8>)], // (rows, codec, eb, blob)
) -> Vec<u8> {
    let body: usize = chunks.iter().map(|(_, _, _, b)| b.len()).sum();
    let mut out = Vec::with_capacity(body + 24 * chunks.len() + 64);
    write_header_prefix(&mut out, header, T::TAG);
    for (_, _, _, blob) in chunks {
        out.extend_from_slice(blob);
    }
    let entries: Vec<(usize, ChunkCodecKind, usize, f64)> = chunks
        .iter()
        .map(|&(rows, codec, eb, ref blob)| (rows, codec, blob.len(), eb))
        .collect();
    write_trailer(&mut out, chunk_rows, &entries, true);
    out
}

/// Serialize a whole v2.4 container in memory: identical byte layout to
/// [`write_container_v2_3`] (trailer index, per-chunk codec tag and
/// bound) but chunks may carry the [`ChunkCodecKind::Rolz`] tag. The
/// in-memory chunked pipeline writes rolz-capable configurations through
/// this. `header.version` must be [`VERSION_V2_4`].
pub(crate) fn write_container_v2_4<T: Scalar>(
    header: &Header,
    chunk_rows: usize,
    chunks: &[(usize, ChunkCodecKind, f64, Vec<u8>)], // (rows, codec, eb, blob)
) -> Vec<u8> {
    let body: usize = chunks.iter().map(|(_, _, _, b)| b.len()).sum();
    let mut out = Vec::with_capacity(body + 24 * chunks.len() + 64);
    write_header_prefix(&mut out, header, T::TAG);
    for (_, _, _, blob) in chunks {
        out.extend_from_slice(blob);
    }
    let entries: Vec<(usize, ChunkCodecKind, usize, f64)> = chunks
        .iter()
        .map(|&(rows, codec, eb, ref blob)| (rows, codec, blob.len(), eb))
        .collect();
    write_trailer(&mut out, chunk_rows, &entries, true);
    out
}

/// Parsed header + chunk index of a v2/v2.1/v2.2 container (blobs stay in
/// place — random access slices them out by entry offsets).
pub(crate) struct V2Index {
    pub header: Header,
    /// Nominal axis-0 rows per chunk (last chunk may hold fewer).
    pub chunk_rows: usize,
    pub entries: Vec<ChunkEntry>,
}

/// Parse the header and chunk index of a v2/v2.1 container.
pub(crate) fn read_container_v2_index<T: Scalar>(
    bytes: &[u8],
) -> Result<V2Index, DecompressError> {
    let idx = read_v2_index_untyped(bytes)?;
    if idx.header.scalar_tag != T::TAG {
        return Err(DecompressError::ScalarMismatch {
            expected: T::TAG,
            found: idx.header.scalar_tag,
        });
    }
    Ok(idx)
}

/// Raw `(rows, byte_len, codec, per-chunk eb)` entries of a chunk index,
/// before validation against the header. The bound is `None` for every
/// generation before v2.3 (those chunks inherit the header bound).
pub(crate) type RawIndexEntries = Vec<(usize, usize, ChunkCodecKind, Option<f64>)>;

/// Parse `chunk_rows`, `n_chunks` and the raw `(rows, len, codec, eb)`
/// entries of a chunk index out of `bytes` starting at `*pos`. Shared by
/// the inline v2/v2.1 index, the v2.2–v2.4 trailer and the streaming
/// reader. `with_eb` selects the v2.3+ entry layout (an f64 bound after
/// the codec tag); non-finite or non-positive bounds are corruption.
/// `rolz_allowed` gates codec tag 2 (legal from v2.4 on only).
pub(crate) fn parse_index_body(
    bytes: &[u8],
    pos: &mut usize,
    tagged: bool,
    with_eb: bool,
    rolz_allowed: bool,
    max_chunks: usize,
) -> Result<(usize, RawIndexEntries), DecompressError> {
    let chunk_rows =
        get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk rows"))? as usize;
    if chunk_rows == 0 {
        return Err(DecompressError::Corrupt("zero chunk rows"));
    }
    let n_chunks =
        get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk count"))? as usize;
    if n_chunks == 0 || n_chunks > max_chunks {
        return Err(DecompressError::Corrupt("bad chunk count"));
    }
    // Capacity only up to what the buffer could physically hold (≥ 2
    // bytes per entry): a crafted count must not drive a huge upfront
    // allocation — the parse loop below fails on truncation regardless.
    let mut raw =
        Vec::with_capacity(n_chunks.min(bytes.len().saturating_sub(*pos) / 2));
    for _ in 0..n_chunks {
        let rows =
            get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk index"))? as usize;
        let len =
            get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk index"))? as usize;
        let codec = if tagged {
            let tag = *bytes.get(*pos).ok_or(DecompressError::Corrupt("chunk codec tag"))?;
            *pos += 1;
            let codec = ChunkCodecKind::from_tag(tag)
                .ok_or(DecompressError::Corrupt("unknown chunk codec tag"))?;
            if codec == ChunkCodecKind::Rolz && !rolz_allowed {
                return Err(DecompressError::Corrupt("rolz codec tag in pre-v2.4 container"));
            }
            codec
        } else {
            ChunkCodecKind::Sz
        };
        let eb = if with_eb {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or(DecompressError::Corrupt("truncated per-chunk error bound"))?;
            let eb = f64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
            *pos = end;
            if !(eb.is_finite() && eb > 0.0) {
                return Err(DecompressError::Corrupt("bad per-chunk error bound"));
            }
            Some(eb)
        } else {
            None
        };
        raw.push((rows, len, codec, eb));
    }
    Ok((chunk_rows, raw))
}

/// Validate raw index triples against the header and the byte region the
/// blobs live in (`offset..region_end`), producing located entries.
pub(crate) fn entries_from_raw(
    header: &Header,
    mut offset: usize,
    raw: RawIndexEntries,
    region_end: usize,
) -> Result<Vec<ChunkEntry>, DecompressError> {
    let mut entries = Vec::with_capacity(raw.len());
    let mut start_row = 0usize;
    for (rows, len, codec, eb) in raw {
        // Corrupt varints can hold anything: every entry must fit inside
        // what remains of axis 0 (checked subtraction — an unchecked
        // running sum would overflow before the tiling check below).
        if rows == 0 || rows > header.shape.dim(0) - start_row {
            return Err(DecompressError::Corrupt("chunk rows do not tile axis 0"));
        }
        let end = offset.checked_add(len).ok_or(DecompressError::Corrupt("chunk index"))?;
        if end > region_end {
            return Err(DecompressError::Corrupt("chunk overruns buffer"));
        }
        entries.push(ChunkEntry {
            start_row,
            rows,
            offset,
            len,
            codec,
            eb: eb.unwrap_or(header.abs_eb),
        });
        start_row += rows;
        offset = end;
    }
    if start_row != header.shape.dim(0) {
        return Err(DecompressError::Corrupt("chunk rows do not tile axis 0"));
    }
    Ok(entries)
}

/// Locate a v2.2 trailer from the archive's last 12 bytes. `suffix` is
/// those bytes; returns `(trailer_start, trailer_len)` measured in the
/// whole archive. Shared by the slice parser and the streaming reader.
pub(crate) fn trailer_bounds(
    total_len: u64,
    header_end: u64,
    suffix: &[u8],
) -> Result<(u64, u64), DecompressError> {
    if suffix.len() != TRAILER_SUFFIX_LEN || total_len < header_end + TRAILER_SUFFIX_LEN as u64 {
        return Err(DecompressError::Corrupt("truncated v2.2 trailer"));
    }
    if &suffix[8..] != TRAILER_MAGIC {
        return Err(DecompressError::Corrupt("missing v2.2 trailer magic"));
    }
    let trailer_len = u64::from_le_bytes(suffix[..8].try_into().unwrap());
    let suffix_start = total_len - TRAILER_SUFFIX_LEN as u64;
    let trailer_start = suffix_start
        .checked_sub(trailer_len)
        .filter(|&s| s >= header_end)
        .ok_or(DecompressError::Corrupt("v2.2 trailer length overruns archive"))?;
    Ok((trailer_start, trailer_len))
}

/// Parse and validate a located v2.2/v2.3 trailer body (`trailer` is the
/// region `trailer_start..trailer_start+len`, suffix excluded): the
/// index body must fill it exactly, and the resulting blob extents must
/// tile `header_end..trailer_start` exactly. The entry layout (with or
/// without the per-chunk bound) follows `header.version`. Returns
/// `(chunk_rows, entries)`. The single implementation behind both the
/// slice parser and the streaming [`crate::ArchiveReader`], so the two
/// can never drift apart on what counts as a valid trailer.
pub(crate) fn parse_v2_2_trailer(
    header: &Header,
    header_end: usize,
    trailer: &[u8],
    trailer_start: usize,
) -> Result<(usize, Vec<ChunkEntry>), DecompressError> {
    let mut tpos = 0usize;
    let with_eb = matches!(header.version, VERSION_V2_3 | VERSION_V2_4);
    let rolz_allowed = header.version == VERSION_V2_4;
    let (chunk_rows, raw) =
        parse_index_body(trailer, &mut tpos, true, with_eb, rolz_allowed, header.shape.dim(0))?;
    if tpos != trailer.len() {
        return Err(DecompressError::Corrupt("trailing bytes in v2.2 trailer"));
    }
    let entries = entries_from_raw(header, header_end, raw, trailer_start)?;
    // v2.2 blobs must tile the header→trailer region exactly; a gap
    // means the index lengths disagree with what was written.
    let blob_end = entries.last().map(|e| e.offset + e.len).unwrap_or(header_end);
    if blob_end != trailer_start {
        return Err(DecompressError::Corrupt("v2.2 blobs do not reach the trailer"));
    }
    Ok((chunk_rows, entries))
}

/// Serialize a v2.2/v2.3 trailer (index body + length suffix + magic) for
/// the given `(rows, codec, blob_len, eb)` entries in slab order. The
/// per-chunk bound is written only when `with_eb` is set (v2.3).
pub(crate) fn write_trailer(
    out: &mut Vec<u8>,
    chunk_rows: usize,
    chunks: &[(usize, ChunkCodecKind, usize, f64)],
    with_eb: bool,
) {
    let body_start = out.len();
    put_uvarint(out, chunk_rows as u64);
    put_uvarint(out, chunks.len() as u64);
    for &(rows, codec, len, eb) in chunks {
        put_uvarint(out, rows as u64);
        put_uvarint(out, len as u64);
        out.push(codec.tag());
        if with_eb {
            out.extend_from_slice(&eb.to_le_bytes());
        }
    }
    let body_len = (out.len() - body_start) as u64;
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
}

/// Parse the header and chunk index of a v2/v2.1/v2.2 container without
/// checking the scalar type (inspection use).
fn read_v2_index_untyped(bytes: &[u8]) -> Result<V2Index, DecompressError> {
    let (header, mut pos) = read_header_prefix(bytes)?;
    match header.version {
        VERSION_V2 | VERSION_V2_1 => {
            let tagged = header.version == VERSION_V2_1;
            let (chunk_rows, raw) =
                parse_index_body(bytes, &mut pos, tagged, false, false, header.shape.dim(0))?;
            let entries = entries_from_raw(&header, pos, raw, bytes.len())?;
            Ok(V2Index { header, chunk_rows, entries })
        }
        VERSION_V2_2 | VERSION_V2_3 | VERSION_V2_4 => {
            let suffix_at = bytes
                .len()
                .checked_sub(TRAILER_SUFFIX_LEN)
                .filter(|&s| s >= pos)
                .ok_or(DecompressError::Corrupt("truncated v2.2 trailer"))?;
            let (tstart, tlen) =
                trailer_bounds(bytes.len() as u64, pos as u64, &bytes[suffix_at..])?;
            let (tstart, tlen) = (tstart as usize, tlen as usize);
            let (chunk_rows, entries) =
                parse_v2_2_trailer(&header, pos, &bytes[tstart..tstart + tlen], tstart)?;
            Ok(V2Index { header, chunk_rows, entries })
        }
        _ => Err(DecompressError::Corrupt("not a chunked container")),
    }
}

/// Parse only the header of a container (cheap inspection; v1 and v2).
pub fn peek_header(bytes: &[u8]) -> Result<Header, DecompressError> {
    read_header_prefix(bytes).map(|(h, _)| h)
}

/// Human name of a container generation, from its version byte ("2.1"
/// for byte 3, …). Unknown bytes — which the parsers reject anyway —
/// report as "unknown".
pub fn generation_name(version: u8) -> &'static str {
    match version {
        VERSION_V1 => "1",
        VERSION_V2 => "2",
        VERSION_V2_1 => "2.1",
        VERSION_V2_2 => "2.2",
        VERSION_V2_3 => "2.3",
        VERSION_V2_4 => "2.4",
        _ => "unknown",
    }
}

/// Number of independently-decodable chunks in a container (1 for v1).
///
/// Works for both container versions without decoding any payload.
pub fn chunk_count(bytes: &[u8]) -> Result<usize, DecompressError> {
    let (header, mut pos) = read_header_prefix(bytes)?;
    match header.version {
        VERSION_V1 => Ok(1),
        // The v2.2+ index lives in the trailer; the full parse is
        // still cheap (no payload is decoded).
        VERSION_V2_2 | VERSION_V2_3 | VERSION_V2_4 => {
            read_v2_index_untyped(bytes).map(|i| i.entries.len())
        }
        _ => {
            let _chunk_rows =
                get_uvarint(bytes, &mut pos).ok_or(DecompressError::Corrupt("chunk rows"))?;
            let n = get_uvarint(bytes, &mut pos)
                .ok_or(DecompressError::Corrupt("chunk count"))? as usize;
            if n == 0 {
                return Err(DecompressError::Corrupt("bad chunk count"));
            }
            Ok(n)
        }
    }
}

/// A container's chunk partition, for inspection tools.
#[derive(Clone, Debug)]
pub struct ChunkTable {
    /// Nominal axis-0 rows per chunk (v1: the whole axis).
    pub chunk_rows: usize,
    /// One entry per independently-decodable chunk, in slab order. For a
    /// v1 container this is a single whole-field entry whose `len` spans
    /// the container body.
    pub entries: Vec<ChunkEntry>,
}

/// Seek to `at` and read exactly `len` bytes.
pub(crate) fn read_span<R: std::io::Read + std::io::Seek>(
    src: &mut R,
    at: u64,
    len: usize,
) -> Result<Vec<u8>, DecompressError> {
    src.seek(std::io::SeekFrom::Start(at))?;
    let mut buf = vec![0u8; len];
    src.read_exact(&mut buf)?;
    Ok(buf)
}

/// [`read_span`] into a caller-provided buffer (typically a recycled pool
/// buffer): seek to `at` and fill `buf` exactly, with no allocation.
pub(crate) fn read_span_into<R: std::io::Read + std::io::Seek>(
    src: &mut R,
    at: u64,
    buf: &mut [u8],
) -> Result<(), DecompressError> {
    src.seek(std::io::SeekFrom::Start(at))?;
    src.read_exact(buf)?;
    Ok(())
}

/// Upper bound on the serialized header prefix: fixed bytes + 4 dims of
/// ≤ 10 varint bytes + the f64 bound + the radius varint, with slack.
const HEADER_READ_BYTES: usize = 96;

/// The parsed structural layout of an archive on a seekable source: the
/// header plus every chunk's location, with no payload read.
pub(crate) struct ArchiveLayout {
    pub header: Header,
    pub chunk_rows: usize,
    pub entries: Vec<ChunkEntry>,
}

/// Parse the header and chunk index of any container generation from a
/// seekable source, reading only the header bytes and the index (inline
/// for v2/v2.1, trailer for v2.2/v2.3). Shared by the streaming
/// [`crate::ArchiveReader`] and the shareable [`crate::ConcurrentReader`].
pub(crate) fn read_archive_layout<R: std::io::Read + std::io::Seek>(
    src: &mut R,
) -> Result<ArchiveLayout, DecompressError> {
    let total_len = src.seek(std::io::SeekFrom::End(0))?;
    let head = read_span(src, 0, HEADER_READ_BYTES.min(total_len as usize))?;
    let (header, header_end) = read_header_prefix(&head)?;
    let d0 = header.shape.dim(0);
    let (chunk_rows, entries) = match header.version {
        VERSION_V1 => (
            d0,
            vec![ChunkEntry {
                start_row: 0,
                rows: d0,
                offset: header_end,
                len: (total_len as usize)
                    .checked_sub(header_end)
                    .ok_or(DecompressError::Corrupt("container shorter than header"))?,
                codec: ChunkCodecKind::Sz,
                eb: header.abs_eb,
            }],
        ),
        VERSION_V2_2 | VERSION_V2_3 | VERSION_V2_4 => {
            if total_len < (header_end + TRAILER_SUFFIX_LEN) as u64 {
                return Err(DecompressError::Corrupt("truncated v2.2 trailer"));
            }
            let suffix =
                read_span(src, total_len - TRAILER_SUFFIX_LEN as u64, TRAILER_SUFFIX_LEN)?;
            let (tstart, tlen) = trailer_bounds(total_len, header_end as u64, &suffix)?;
            let trailer = read_span(src, tstart, tlen as usize)?;
            parse_v2_2_trailer(&header, header_end, &trailer, tstart as usize)?
        }
        // v2 / v2.1: the index sits between header and blobs. Its byte
        // length is only known after parsing, so size the read from the
        // chunk count: first the two leading varints, then at most 21
        // bytes per entry.
        _ => {
            let tagged = header.version != VERSION_V2;
            let after = (total_len as usize).saturating_sub(header_end);
            let lead = read_span(src, header_end as u64, after.min(20))?;
            let mut p = 0usize;
            let _chunk_rows =
                get_uvarint(&lead, &mut p).ok_or(DecompressError::Corrupt("chunk rows"))?;
            let n =
                get_uvarint(&lead, &mut p).ok_or(DecompressError::Corrupt("chunk count"))? as usize;
            if n == 0 || n > d0 {
                return Err(DecompressError::Corrupt("bad chunk count"));
            }
            let index_max = 20 + n * 21;
            let buf = read_span(src, header_end as u64, after.min(index_max))?;
            let mut p = 0usize;
            let (chunk_rows, raw) = parse_index_body(&buf, &mut p, tagged, false, false, d0)?;
            let entries = entries_from_raw(&header, header_end + p, raw, total_len as usize)?;
            (chunk_rows, entries)
        }
    };
    Ok(ArchiveLayout { header, chunk_rows, entries })
}

/// Read a container's chunk partition (either version, any scalar type).
pub fn chunk_table(bytes: &[u8]) -> Result<ChunkTable, DecompressError> {
    let (header, pos) = read_header_prefix(bytes)?;
    if header.version == VERSION_V1 {
        return Ok(ChunkTable {
            chunk_rows: header.shape.dim(0),
            entries: vec![ChunkEntry {
                start_row: 0,
                rows: header.shape.dim(0),
                offset: pos,
                len: bytes.len() - pos,
                codec: ChunkCodecKind::Sz,
                eb: header.abs_eb,
            }],
        });
    }
    let idx = read_v2_index_untyped(bytes)?;
    Ok(ChunkTable { chunk_rows: idx.chunk_rows, entries: idx.entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header(version: u8) -> Header {
        Header {
            version,
            scalar_tag: <f32 as Scalar>::TAG,
            predictor: PredictorKind::Lorenzo,
            lossless: LosslessStage::RleLzss,
            log_transform: false,
            shape: Shape::d3(10, 20, 30),
            abs_eb: 1e-4,
            radius: 1 << 15,
        }
    }

    #[test]
    fn container_roundtrip() {
        let h = sample_header(VERSION_V1);
        let bytes =
            write_container::<f32>(&h, &[1, 2, 3], &[9, 8, 7, 6], &[1.5f32, -2.5], &[0xAB]);
        let s = read_container::<f32>(&bytes).unwrap();
        assert_eq!(s.body.codebook, vec![1, 2, 3]);
        assert_eq!(s.body.payload, vec![9, 8, 7, 6]);
        assert_eq!(s.body.verbatim, vec![1.5f32, -2.5]);
        assert_eq!(s.body.side, vec![0xAB]);
        assert_eq!(s.header.shape.dims(), &[10, 20, 30]);
        assert_eq!(s.header.abs_eb, 1e-4);
        assert_eq!(s.header.predictor, PredictorKind::Lorenzo);
        assert_eq!(s.header.lossless, LosslessStage::RleLzss);
        assert_eq!(chunk_count(&bytes).unwrap(), 1);
    }

    #[test]
    fn scalar_mismatch_detected() {
        let h = sample_header(VERSION_V1);
        let bytes = write_container::<f32>(&h, &[], &[], &[], &[]);
        assert!(matches!(
            read_container::<f64>(&bytes),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(read_container::<f32>(b"NOPE....."), Err(DecompressError::NotAContainer)));
        assert!(matches!(read_container::<f32>(&[]), Err(DecompressError::NotAContainer)));
        assert!(matches!(peek_header(b"RQMC\x07xxxxxx"), Err(DecompressError::NotAContainer)));
    }

    #[test]
    fn truncated_section_rejected() {
        let h = sample_header(VERSION_V1);
        let bytes = write_container::<f32>(&h, &[1, 2, 3], &[9; 100], &[], &[]);
        let r = read_container::<f32>(&bytes[..bytes.len() - 50]);
        assert!(matches!(r, Err(DecompressError::Corrupt(_))));
    }

    #[test]
    fn overflowing_section_length_rejected() {
        // A section-length varint decoding to ~u64::MAX must not overflow
        // the bounds arithmetic (it used to panic on `pos + len`).
        let h = sample_header(VERSION_V1);
        let good = write_container::<f32>(&h, &[1, 2, 3], &[], &[], &[]);
        // The codebook section starts right after the fixed header; find
        // its length varint (value 3, single byte) and replace it with the
        // 10-byte LEB128 encoding of u64::MAX.
        let codebook_pos = good.len() - (1 + 3 + 1 + 1 + 1); // len+data, payload len, verbatim count, side len
        assert_eq!(good[codebook_pos], 3);
        let mut evil = good[..codebook_pos].to_vec();
        evil.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        evil.extend(&good[codebook_pos + 1..]);
        assert!(matches!(
            read_container::<f32>(&evil),
            Err(DecompressError::Corrupt(_))
        ));
    }

    #[test]
    fn peek_header_matches() {
        let h = sample_header(VERSION_V1);
        let bytes = write_container::<f32>(&h, &[], &[], &[], &[]);
        let p = peek_header(&bytes).unwrap();
        assert_eq!(p.version, VERSION_V1);
        assert_eq!(p.shape.dims(), h.shape.dims());
        assert_eq!(p.predictor, h.predictor);
        assert_eq!(p.abs_eb, h.abs_eb);
    }

    #[test]
    fn v2_roundtrip_index_and_blobs() {
        let mut h = sample_header(VERSION_V2);
        h.shape = Shape::d2(10, 4);
        let blob_a =
            write_chunk_blob::<f32>(LosslessStage::RleLzss, &[1], &[2, 2], &[0.5f32], &[]);
        let blob_b = write_chunk_blob::<f32>(LosslessStage::None, &[3], &[4], &[], &[9]);
        let bytes =
            write_container_v2::<f32>(&h, 6, &[(6, blob_a.clone()), (4, blob_b.clone())]);

        assert_eq!(peek_header(&bytes).unwrap().version, VERSION_V2);
        assert_eq!(chunk_count(&bytes).unwrap(), 2);

        let idx = read_container_v2_index::<f32>(&bytes).unwrap();
        assert_eq!(idx.chunk_rows, 6);
        assert_eq!(idx.entries.len(), 2);
        assert_eq!(idx.entries[0].start_row, 0);
        assert_eq!(idx.entries[0].rows, 6);
        assert_eq!(idx.entries[1].start_row, 6);
        assert_eq!(idx.entries[1].rows, 4);

        let e = idx.entries[0];
        let (ll, body) = read_chunk_blob::<f32>(&bytes[e.offset..e.offset + e.len]).unwrap();
        assert_eq!(ll, LosslessStage::RleLzss);
        assert_eq!(body.codebook, vec![1]);
        assert_eq!(body.payload, vec![2, 2]);
        assert_eq!(body.verbatim, vec![0.5f32]);
        let e = idx.entries[1];
        let (ll, body) = read_chunk_blob::<f32>(&bytes[e.offset..e.offset + e.len]).unwrap();
        assert_eq!(ll, LosslessStage::None);
        assert_eq!(body.side, vec![9]);
    }

    #[test]
    fn v2_1_roundtrip_with_codec_tags() {
        let mut h = sample_header(VERSION_V2_1);
        h.shape = Shape::d2(10, 4);
        let sz_blob =
            write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2, 2], &[0.5f32], &[]);
        let zfp_blob = vec![9u8, 9, 9]; // opaque to the index layer
        let bytes = write_container_v2_1::<f32>(
            &h,
            6,
            &[
                (6, ChunkCodecKind::Sz, sz_blob.clone()),
                (4, ChunkCodecKind::Zfp, zfp_blob.clone()),
            ],
        );
        assert_eq!(container_version(&bytes).unwrap(), VERSION_V2_1);
        assert_eq!(chunk_count(&bytes).unwrap(), 2);
        let idx = read_container_v2_index::<f32>(&bytes).unwrap();
        assert_eq!(idx.entries[0].codec, ChunkCodecKind::Sz);
        assert_eq!(idx.entries[1].codec, ChunkCodecKind::Zfp);
        let e = idx.entries[1];
        assert_eq!(&bytes[e.offset..e.offset + e.len], &zfp_blob[..]);
        // The untyped inspection path reports the tags too.
        let table = chunk_table(&bytes).unwrap();
        assert_eq!(table.entries[0].codec, ChunkCodecKind::Sz);
        assert_eq!(table.entries[1].codec, ChunkCodecKind::Zfp);
    }

    #[test]
    fn v2_1_unknown_codec_tag_rejected() {
        let mut h = sample_header(VERSION_V2_1);
        h.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let mut bytes = write_container_v2_1::<f32>(&h, 4, &[(4, ChunkCodecKind::Sz, blob)]);
        // The codec tag is the last index byte before the blob; find it by
        // re-parsing and poisoning the byte just before the blob offset.
        let idx = read_container_v2_index::<f32>(&bytes).unwrap();
        bytes[idx.entries[0].offset - 1] = 0x7F;
        assert!(matches!(
            read_container_v2_index::<f32>(&bytes),
            Err(DecompressError::Corrupt("unknown chunk codec tag"))
        ));
    }

    #[test]
    fn codec_kind_tag_roundtrip() {
        for k in [ChunkCodecKind::Sz, ChunkCodecKind::Zfp, ChunkCodecKind::Rolz] {
            assert_eq!(ChunkCodecKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ChunkCodecKind::from_tag(3), None);
    }

    #[test]
    fn v2_4_roundtrip_rolz_tag() {
        let mut h = sample_header(VERSION_V2_4);
        h.shape = Shape::d2(10, 4);
        let sz_blob =
            write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2, 2], &[0.5f32], &[]);
        let rolz_blob = vec![5u8, 5, 5, 5, 5]; // opaque to the index layer
        let bytes = write_container_v2_4::<f32>(
            &h,
            6,
            &[
                (6, ChunkCodecKind::Sz, 1e-4, sz_blob.clone()),
                (4, ChunkCodecKind::Rolz, 3e-5, rolz_blob.clone()),
            ],
        );
        assert_eq!(container_version(&bytes).unwrap(), VERSION_V2_4);
        assert_eq!(generation_name(bytes[4]), "2.4");
        assert_eq!(&bytes[bytes.len() - 4..], TRAILER_MAGIC);
        assert_eq!(chunk_count(&bytes).unwrap(), 2);
        let idx = read_container_v2_index::<f32>(&bytes).unwrap();
        assert_eq!(idx.entries[0].codec, ChunkCodecKind::Sz);
        assert_eq!(idx.entries[1].codec, ChunkCodecKind::Rolz);
        assert_eq!(idx.entries[0].eb, 1e-4);
        assert_eq!(idx.entries[1].eb, 3e-5);
        let e = idx.entries[1];
        assert_eq!(&bytes[e.offset..e.offset + e.len], &rolz_blob[..]);
        let table = chunk_table(&bytes).unwrap();
        assert_eq!(table.entries[1].codec, ChunkCodecKind::Rolz);
    }

    #[test]
    fn rolz_tag_rejected_in_pre_v2_4_containers() {
        // A v2.3 trailer entry tagged rolz is corruption even though the
        // tag itself is known — the generation predates the codec.
        let mut h = sample_header(VERSION_V2_3);
        h.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let v23 =
            write_container_v2_3::<f32>(&h, 4, &[(4, ChunkCodecKind::Rolz, 1e-4, blob)]);
        assert!(matches!(
            read_container_v2_index::<f32>(&v23),
            Err(DecompressError::Corrupt("rolz codec tag in pre-v2.4 container"))
        ));
        // Same for an inline v2.1 index.
        let mut h21 = sample_header(VERSION_V2_1);
        h21.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let v21 =
            write_container_v2_1::<f32>(&h21, 4, &[(4, ChunkCodecKind::Rolz, blob)]);
        assert!(matches!(
            read_container_v2_index::<f32>(&v21),
            Err(DecompressError::Corrupt("rolz codec tag in pre-v2.4 container"))
        ));
    }

    #[test]
    fn v2_bad_tiling_rejected() {
        let mut h = sample_header(VERSION_V2);
        h.shape = Shape::d2(10, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        // Rows sum to 8 ≠ 10.
        let bytes = write_container_v2::<f32>(&h, 6, &[(6, blob.clone()), (2, blob)]);
        assert!(matches!(
            read_container_v2_index::<f32>(&bytes),
            Err(DecompressError::Corrupt("chunk rows do not tile axis 0"))
        ));
    }

    #[test]
    fn v2_overflowing_row_counts_rejected() {
        // Two rows varints of 2^63 and 2^63+8: an unchecked running sum
        // would overflow in debug and wrap to exactly dim(0) in release,
        // smuggling a 2^63-row slab past the tiling check.
        let mut h = sample_header(VERSION_V2);
        h.shape = Shape::d2(8, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let bytes = write_container_v2::<f32>(
            &h,
            8,
            &[(1usize << 63, blob.clone()), ((1usize << 63) + 8, blob)],
        );
        assert!(matches!(
            read_container_v2_index::<f32>(&bytes),
            Err(DecompressError::Corrupt("chunk rows do not tile axis 0"))
        ));
    }

    #[test]
    fn v2_truncated_blob_rejected() {
        let mut h = sample_header(VERSION_V2);
        h.shape = Shape::d2(10, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[1, 2], &[3], &[], &[]);
        let bytes = write_container_v2::<f32>(&h, 10, &[(10, blob)]);
        assert!(matches!(
            read_container_v2_index::<f32>(&bytes[..bytes.len() - 2]),
            Err(DecompressError::Corrupt(_))
        ));
    }

    #[test]
    fn v2_2_roundtrip_trailer_index() {
        let mut h = sample_header(VERSION_V2_2);
        h.shape = Shape::d2(10, 4);
        let sz_blob =
            write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2, 2], &[0.5f32], &[]);
        let zfp_blob = vec![7u8, 7, 7, 7];
        let bytes = write_container_v2_2::<f32>(
            &h,
            6,
            &[
                (6, ChunkCodecKind::Sz, sz_blob.clone()),
                (4, ChunkCodecKind::Zfp, zfp_blob.clone()),
            ],
        );
        assert_eq!(container_version(&bytes).unwrap(), VERSION_V2_2);
        assert_eq!(&bytes[bytes.len() - 4..], TRAILER_MAGIC);
        assert_eq!(chunk_count(&bytes).unwrap(), 2);
        let idx = read_container_v2_index::<f32>(&bytes).unwrap();
        assert_eq!(idx.chunk_rows, 6);
        assert_eq!(idx.entries.len(), 2);
        assert_eq!(idx.entries[0].codec, ChunkCodecKind::Sz);
        assert_eq!(idx.entries[1].codec, ChunkCodecKind::Zfp);
        assert_eq!(idx.entries[1].start_row, 6);
        let e = idx.entries[1];
        assert_eq!(&bytes[e.offset..e.offset + e.len], &zfp_blob[..]);
        // Blobs start immediately after the header (no inline index).
        let (_, header_end) = read_header_prefix(&bytes).unwrap();
        assert_eq!(idx.entries[0].offset, header_end);
        // The untyped inspection path sees the same table.
        let table = chunk_table(&bytes).unwrap();
        assert_eq!(table.entries.len(), 2);
        assert_eq!(table.entries[1].codec, ChunkCodecKind::Zfp);
    }

    #[test]
    fn v2_2_truncated_trailer_rejected() {
        let mut h = sample_header(VERSION_V2_2);
        h.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let bytes = write_container_v2_2::<f32>(&h, 4, &[(4, ChunkCodecKind::Sz, blob)]);
        for cut in 1..TRAILER_SUFFIX_LEN + 3 {
            assert!(
                read_container_v2_index::<f32>(&bytes[..bytes.len() - cut]).is_err(),
                "cut {cut} bytes off the trailer must fail"
            );
        }
    }

    #[test]
    fn v2_2_bad_trailer_length_rejected() {
        let mut h = sample_header(VERSION_V2_2);
        h.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let good = write_container_v2_2::<f32>(&h, 4, &[(4, ChunkCodecKind::Sz, blob)]);
        // Trailer length pointing past the start of the archive.
        let mut evil = good.clone();
        let at = evil.len() - TRAILER_SUFFIX_LEN;
        evil[at..at + 8].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(matches!(
            read_container_v2_index::<f32>(&evil),
            Err(DecompressError::Corrupt("v2.2 trailer length overruns archive"))
        ));
        // Wrong closing magic.
        let mut evil = good.clone();
        let n = evil.len();
        evil[n - 1] ^= 0xff;
        assert!(matches!(
            read_container_v2_index::<f32>(&evil),
            Err(DecompressError::Corrupt("missing v2.2 trailer magic"))
        ));
        // Trailer length one byte short: the index body no longer parses
        // cleanly or the blobs no longer reach the trailer.
        let mut evil = good;
        let at = evil.len() - TRAILER_SUFFIX_LEN;
        let tlen = u64::from_le_bytes(evil[at..at + 8].try_into().unwrap());
        evil[at..at + 8].copy_from_slice(&(tlen - 1).to_le_bytes());
        assert!(read_container_v2_index::<f32>(&evil).is_err());
    }

    #[test]
    fn v2_2_overrunning_blob_length_rejected() {
        // An index length that would put a blob on top of the trailer.
        let mut h = sample_header(VERSION_V2_2);
        h.shape = Shape::d2(10, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2], &[], &[]);
        let short = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        // Claim the first blob is longer than it is: entries overlap the
        // second blob and the total no longer reaches the trailer cleanly.
        let mut out = Vec::new();
        write_header_prefix(&mut out, &h, <f32 as Scalar>::TAG);
        out.extend_from_slice(&blob);
        out.extend_from_slice(&short);
        write_trailer(
            &mut out,
            6,
            &[
                (6, ChunkCodecKind::Sz, blob.len() + short.len() + 50, h.abs_eb),
                (4, ChunkCodecKind::Sz, short.len(), h.abs_eb),
            ],
            false,
        );
        assert!(read_container_v2_index::<f32>(&out).is_err());
    }

    #[test]
    fn v2_3_roundtrip_per_chunk_bounds() {
        let mut h = sample_header(VERSION_V2_3);
        h.shape = Shape::d2(10, 4);
        h.abs_eb = 1e-2; // the max of the planned bounds
        let sz_blob =
            write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2, 2], &[0.5f32], &[]);
        let zfp_blob = vec![7u8, 7, 7, 7];
        let bytes = write_container_v2_3::<f32>(
            &h,
            6,
            &[
                (6, ChunkCodecKind::Sz, 1e-2, sz_blob.clone()),
                (4, ChunkCodecKind::Zfp, 3e-4, zfp_blob.clone()),
            ],
        );
        assert_eq!(container_version(&bytes).unwrap(), VERSION_V2_3);
        assert_eq!(&bytes[bytes.len() - 4..], TRAILER_MAGIC);
        assert_eq!(chunk_count(&bytes).unwrap(), 2);
        let idx = read_container_v2_index::<f32>(&bytes).unwrap();
        assert_eq!(idx.entries.len(), 2);
        assert_eq!(idx.entries[0].eb, 1e-2);
        assert_eq!(idx.entries[1].eb, 3e-4);
        assert_eq!(idx.entries[1].codec, ChunkCodecKind::Zfp);
        let e = idx.entries[1];
        assert_eq!(&bytes[e.offset..e.offset + e.len], &zfp_blob[..]);
        // The untyped inspection path reports per-chunk bounds too.
        let table = chunk_table(&bytes).unwrap();
        assert_eq!(table.entries[0].eb, 1e-2);
        assert_eq!(table.entries[1].eb, 3e-4);
        // Pre-v2.3 generations report the header bound for every chunk.
        let mut h22 = sample_header(VERSION_V2_2);
        h22.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let v22 = write_container_v2_2::<f32>(&h22, 4, &[(4, ChunkCodecKind::Sz, blob)]);
        let t22 = chunk_table(&v22).unwrap();
        assert_eq!(t22.entries[0].eb, h22.abs_eb);
    }

    #[test]
    fn v2_3_bad_per_chunk_bounds_rejected() {
        let mut h = sample_header(VERSION_V2_3);
        h.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let good =
            write_container_v2_3::<f32>(&h, 4, &[(4, ChunkCodecKind::Sz, 1e-4, blob)]);
        let idx = read_container_v2_index::<f32>(&good).unwrap();
        assert_eq!(idx.entries[0].eb, 1e-4);
        // The eb lives in the trailer: last entry field before the
        // 12-byte suffix.
        let eb_at = good.len() - TRAILER_SUFFIX_LEN - 8;
        for evil in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-4] {
            let mut m = good.clone();
            m[eb_at..eb_at + 8].copy_from_slice(&evil.to_le_bytes());
            assert!(
                matches!(
                    read_container_v2_index::<f32>(&m),
                    Err(DecompressError::Corrupt(_))
                ),
                "eb {evil} must be rejected"
            );
        }
        // A v2.3 trailer truncated mid-bound (v2.2-sized entries under a
        // v2.3 version byte) must be corruption, not a silent fallback.
        let mut short = Vec::new();
        write_header_prefix(&mut short, &h, <f32 as Scalar>::TAG);
        let blob2 = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        short.extend_from_slice(&blob2);
        write_trailer(&mut short, 4, &[(4, ChunkCodecKind::Sz, blob2.len(), 1e-4)], false);
        assert!(read_container_v2_index::<f32>(&short).is_err());
    }

    #[test]
    fn version_dispatch() {
        let v1 = write_container::<f32>(&sample_header(VERSION_V1), &[], &[], &[], &[]);
        assert_eq!(container_version(&v1).unwrap(), VERSION_V1);
        let mut h2 = sample_header(VERSION_V2);
        h2.shape = Shape::d1(4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let v2 = write_container_v2::<f32>(&h2, 4, &[(4, blob)]);
        assert_eq!(container_version(&v2).unwrap(), VERSION_V2);
        // v1 reader refuses v2 bytes (and vice versa) without panicking.
        assert!(read_container::<f32>(&v2).is_err());
        assert!(read_container_v2_index::<f32>(&v1).is_err());
    }
}
