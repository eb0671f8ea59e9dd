//! The embedded bitplane coder and the public compress/decompress API.
//!
//! Coefficients are coded in sign–magnitude form, one bitplane at a time
//! from the most significant plane down: a coefficient that becomes
//! significant at plane `k` emits a 1-flag plus its sign; already
//! significant coefficients emit their plane-`k` bit; insignificant ones a
//! 0-flag. Coding stops at the plane where the truncation error — after
//! worst-case amplification through the inverse transform — is below the
//! requested absolute bound, which is what makes the codec error-bounded.
//!
//! Both directions work on one block at a time in fixed scratch arrays
//! (a block has at most [`MAX_BLOCK`] coefficients) and keep significance
//! as a 256-bit set over the sequency-ordered coefficients. An
//! insignificant coefficient becomes significant at plane `k` exactly when
//! its top set bit is `k`, so the encoder buckets those "born at `k`"
//! sets once per block; event offsets are then popcounts over the
//! plane-start insignificant set, and the decoder maps an offset back to a
//! coefficient with a select over that set. Refinement bits travel up to
//! 64 at a time. The bit order — and so the stream — is that of the
//! original one-bit-at-a-time coder (`tests/zfp_differential.rs`).

use crate::block::{
    extract_padded_into, from_fixed_point_into, interior_base, store_block, to_fixed_point_into,
    BlockLayout, BLOCK_SIDE, MAX_BLOCK, Q_BITS,
};
use crate::transform::{fwd_transform, inv_transform, sequency_order};
use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_encoding::{BitReader, BitWriter};
use rq_grid::{NdArray, Scalar, Shape, MAX_DIMS};

const MAGIC: &[u8; 4] = b"RQZF";

/// Worst-case log2 amplification of a truncation error through the
/// inverse transform, per dimension. The lifting steps at most double an
/// error per axis pass plus carry mixing; 2 bits/dimension is conservative
/// (validated by the error-bound tests and proptests).
const GAIN_BITS_PER_DIM: i32 = 2;

/// Errors surfaced by the codec.
#[derive(Debug)]
pub enum ZfpError {
    /// The tolerance is not positive/finite.
    BadTolerance(f64),
    /// The input holds a NaN or infinite value (the one given), which the
    /// block-floating-point transform cannot represent.
    NonFinite(f64),
    /// The buffer is not an RQZF container or is corrupt.
    Corrupt(&'static str),
    /// Scalar type mismatch.
    ScalarMismatch,
}

impl std::fmt::Display for ZfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZfpError::BadTolerance(t) => write!(f, "bad tolerance {t}"),
            ZfpError::NonFinite(v) => {
                write!(f, "input holds the non-finite value {v}, which zfp cannot encode")
            }
            ZfpError::Corrupt(w) => write!(f, "corrupt zfp stream: {w}"),
            ZfpError::ScalarMismatch => write!(f, "scalar tag mismatch"),
        }
    }
}

impl std::error::Error for ZfpError {}

/// A set of coefficient indices of one block: bit `i % 64` of word
/// `i / 64` is coefficient `i` in sequency order.
type Bits = [u64; MAX_BLOCK / 64];

/// The first `n` coefficients.
fn low_bits(n: usize) -> Bits {
    let mut b = [0u64; MAX_BLOCK / 64];
    for (w, word) in b.iter_mut().enumerate() {
        let lo = w * 64;
        if n >= lo + 64 {
            *word = u64::MAX;
        } else if n > lo {
            *word = (1u64 << (n - lo)) - 1;
        }
    }
    b
}

#[inline]
fn count(b: &Bits) -> usize {
    b.iter().map(|w| w.count_ones() as usize).sum()
}

#[inline]
fn has(b: &Bits, i: usize) -> bool {
    (b[i / 64] >> (i % 64)) & 1 == 1
}

/// Calls `f` with every index in `b`, ascending.
#[inline]
fn for_each_index(b: &Bits, mut f: impl FnMut(usize)) {
    for (w, &word) in b.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Members of `b` below index `i`.
#[inline]
fn rank(b: &Bits, i: usize) -> usize {
    let (w, bit) = (i / 64, i % 64);
    let below: usize = b[..w].iter().map(|x| x.count_ones() as usize).sum();
    below + (b[w] & ((1u64 << bit) - 1)).count_ones() as usize
}

/// The index of the `r`-th member of `b` (0-based; `r < count(b)`).
#[inline]
fn select(b: &Bits, mut r: usize) -> usize {
    for (w, &word) in b.iter().enumerate() {
        let c = word.count_ones() as usize;
        if r < c {
            let mut word = word;
            for _ in 0..r {
                word &= word - 1;
            }
            return w * 64 + word.trailing_zeros() as usize;
        }
        r -= c;
    }
    unreachable!("select past the end of the set")
}

/// Compress `field` under a point-wise absolute error bound `tolerance`.
pub fn zfp_compress<T: Scalar>(
    field: &NdArray<T>,
    tolerance: f64,
) -> Result<Vec<u8>, ZfpError> {
    zfp_compress_slice(field.as_slice(), field.shape(), tolerance)
}

/// [`zfp_compress`] over a raw row-major slice (`data.len()` must equal
/// `shape.len()`); lets the chunk-parallel pipeline encode sub-slabs of a
/// larger buffer without copying.
///
/// Refuses NaN and ±inf with [`ZfpError::NonFinite`]: the transform has no
/// verbatim path, so such values would otherwise decode as unrelated
/// finite numbers.
pub fn zfp_compress_slice<T: Scalar>(
    data: &[T],
    shape: Shape,
    tolerance: f64,
) -> Result<Vec<u8>, ZfpError> {
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(ZfpError::BadTolerance(tolerance));
    }
    debug_assert_eq!(data.len(), shape.len());
    if let Some(v) = data.iter().map(|v| v.to_f64()).find(|v| !v.is_finite()) {
        return Err(ZfpError::NonFinite(v));
    }
    let nd = shape.ndim();
    let perm = sequency_order(nd);
    let gain_bits = GAIN_BITS_PER_DIM * nd as i32;
    let tol_log2 = tolerance.log2();
    let layout = BlockLayout::new(shape);
    let n = layout.len;

    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    header.push(T::TAG);
    header.push(nd as u8);
    for &d in shape.dims() {
        put_uvarint(&mut header, d as u64);
    }
    header.extend_from_slice(&tolerance.to_le_bytes());

    let mut values = [0f64; MAX_BLOCK];
    let mut ints = [0i64; MAX_BLOCK];
    let mut mags = [0u64; MAX_BLOCK];
    // born[k]: the coefficients whose top set bit is plane k.
    let mut born = [[0u64; MAX_BLOCK / 64]; 64];
    let all = low_bits(n);
    let mut w = BitWriter::new();
    for origin in block_origins(shape) {
        let origin = &origin[..nd];
        match interior_base(shape, origin) {
            Some(base) => {
                for (v, &off) in values[..n].iter_mut().zip(&layout.offsets[..n]) {
                    *v = data[base + off].to_f64();
                }
            }
            None => extract_padded_into(data, shape, origin, &mut values[..n]),
        }
        let e_max = to_fixed_point_into(&values[..n], &mut ints[..n]);
        if e_max == i32::MIN {
            w.put_bit(false); // empty-block flag
            continue;
        }
        fwd_transform(&mut ints[..n], nd);
        let mut neg: Bits = [0; MAX_BLOCK / 64];
        let mut any = 0u64;
        for (i, &p) in perm.iter().enumerate() {
            let c = ints[p];
            mags[i] = c.unsigned_abs();
            any |= mags[i];
            neg[i / 64] |= ((c < 0) as u64) << (i % 64);
        }

        // Plane range: from the top set bit down to the tolerance floor.
        let top = 63 - any.max(1).leading_zeros() as i32;
        // tol_fixed = tolerance · 2^(Q − e_max); keep planes ≥ k_min where
        // 2^k_min · 2^gain ≤ tol_fixed.
        let tol_log = (tol_log2 + (Q_BITS - e_max) as f64).floor() as i32;
        let k_min = (tol_log - gain_bits).max(0);
        if k_min > top {
            // Every coefficient lies below the tolerance floor: zeroing
            // the block keeps the (gain-amplified) truncation error under
            // the bound, exactly like an all-zero input block. This case
            // is real — tiny-but-nonzero data under a loose tolerance —
            // and must not reach the plane writer: 7-bit fields cannot
            // hold a k_min that can exceed 1000 for denormal-range blocks
            // (writing it truncated used to corrupt the stream).
            w.put_bit(false);
            continue;
        }
        // Non-empty flag, then the exponent biased into 12 bits (covers
        // f64's range), the top plane and the floor plane.
        let fields = (1 << 26) | ((e_max + 1100) as u64) << 14 | (top as u64) << 7 | k_min as u64;
        w.put_bits(fields, 27);

        let (k_min, top) = (k_min as usize, top as usize);
        for row in &mut born[k_min..=top] {
            *row = [0; MAX_BLOCK / 64];
        }
        for (i, &m) in mags[..n].iter().enumerate() {
            if m >> k_min != 0 {
                born[63 - m.leading_zeros() as usize][i / 64] |= 1u64 << (i % 64);
            }
        }
        let mut sig: Bits = [0; MAX_BLOCK / 64];
        let mut insig = all;
        for k in (k_min..=top).rev() {
            // Refinement pass: one bit per already-significant coefficient,
            // packed 64 to a write.
            let (mut acc, mut len) = (0u64, 0u32);
            for_each_index(&sig, |i| {
                acc = (acc << 1) | ((mags[i] >> k) & 1);
                len += 1;
                if len == 64 {
                    w.put_bits(acc, 64);
                    (acc, len) = (0, 0);
                }
            });
            w.put_bits(acc, len);
            // Significance pass: event-coded over the (sequency-ordered)
            // insignificant tail — one flag per event plus a binary offset
            // into what remains of the plane-start insignificant set, so
            // quiet planes cost a single bit.
            let mut remaining = count(&insig);
            let mut used = 0;
            for_each_index(&born[k], |i| {
                let off = rank(&insig, i) - used;
                let width = ceil_log2(remaining);
                let sign = (neg[i / 64] >> (i % 64)) & 1;
                w.put_bits(((1 << width | off as u64) << 1) | sign, width + 2);
                used += off + 1;
                remaining -= off + 1;
            });
            if remaining > 0 {
                w.put_bit(false);
            }
            for (word, (s, ins)) in born[k].iter().zip(sig.iter_mut().zip(&mut insig)) {
                *s |= word;
                *ins &= !word;
            }
        }
    }
    let payload = w.finish();
    put_uvarint(&mut header, payload.len() as u64);
    header.extend_from_slice(&payload);
    Ok(header)
}

/// Parsed RQZF stream header: shape plus the payload location.
struct ZfpHeader {
    scalar_tag: u8,
    shape: Shape,
    payload_start: usize,
    payload_len: usize,
}

/// Parse and validate the RQZF header prefix.
fn parse_header(bytes: &[u8]) -> Result<ZfpHeader, ZfpError> {
    if bytes.len() < 6 || &bytes[..4] != MAGIC {
        return Err(ZfpError::Corrupt("magic"));
    }
    let scalar_tag = bytes[4];
    let nd = bytes[5] as usize;
    if nd == 0 || nd > MAX_DIMS {
        return Err(ZfpError::Corrupt("ndim"));
    }
    let mut pos = 6;
    let mut dims = [0usize; MAX_DIMS];
    let mut len = 1usize;
    for d in dims.iter_mut().take(nd) {
        *d = get_uvarint(bytes, &mut pos).ok_or(ZfpError::Corrupt("dims"))? as usize;
        if *d == 0 || *d > (1 << 32) {
            return Err(ZfpError::Corrupt("bad dim extent"));
        }
        // A corrupt varint can encode extents whose product overflows.
        len = len.checked_mul(*d).ok_or(ZfpError::Corrupt("element count overflow"))?;
    }
    let shape = Shape::new(&dims[..nd]);
    if pos + 8 > bytes.len() {
        return Err(ZfpError::Corrupt("tolerance"));
    }
    let _tolerance = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let payload_len =
        get_uvarint(bytes, &mut pos).ok_or(ZfpError::Corrupt("payload len"))? as usize;
    if pos.checked_add(payload_len).is_none_or(|end| end > bytes.len()) {
        return Err(ZfpError::Corrupt("payload"));
    }
    Ok(ZfpHeader { scalar_tag, shape, payload_start: pos, payload_len })
}

/// Decompress an RQZF stream.
pub fn zfp_decompress<T: Scalar>(bytes: &[u8]) -> Result<NdArray<T>, ZfpError> {
    let h = parse_header(bytes)?;
    if h.scalar_tag != T::TAG {
        return Err(ZfpError::ScalarMismatch);
    }
    let mut out = NdArray::<T>::zeros(h.shape);
    decode_payload(
        &bytes[h.payload_start..h.payload_start + h.payload_len],
        h.shape,
        out.as_mut_slice(),
    )?;
    Ok(out)
}

/// Decompress an RQZF stream into a caller-provided slice, verifying the
/// stream describes exactly `shape` (`out.len() == shape.len()`). Lets the
/// chunk-parallel pipeline decode straight into disjoint slabs of the
/// output buffer — and, because the expected shape is checked *before*
/// anything is allocated, a corrupt embedded stream cannot trigger a huge
/// allocation.
pub fn zfp_decompress_into<T: Scalar>(
    bytes: &[u8],
    shape: Shape,
    out: &mut [T],
) -> Result<(), ZfpError> {
    debug_assert_eq!(out.len(), shape.len());
    let h = parse_header(bytes)?;
    if h.scalar_tag != T::TAG {
        return Err(ZfpError::ScalarMismatch);
    }
    if h.shape.dims() != shape.dims() {
        return Err(ZfpError::Corrupt("shape mismatch"));
    }
    decode_payload(&bytes[h.payload_start..h.payload_start + h.payload_len], shape, out)
}

/// Decode the bitplane payload into `out` (`out.len() == shape.len()`).
fn decode_payload<T: Scalar>(
    payload: &[u8],
    shape: Shape,
    out: &mut [T],
) -> Result<(), ZfpError> {
    let nd = shape.ndim();
    let mut r = BitReader::new(payload);
    let perm = sequency_order(nd);
    let layout = BlockLayout::new(shape);
    let n = layout.len;

    let mut values = [0f64; MAX_BLOCK];
    let mut ints = [0i64; MAX_BLOCK];
    for origin in block_origins(shape) {
        let origin = &origin[..nd];
        let nonempty = r.get_bit().ok_or(ZfpError::Corrupt("block flag"))?;
        if nonempty {
            let e_max = decode_block(&mut r, &perm, &mut ints[..n])?;
            inv_transform(&mut ints[..n], nd);
            from_fixed_point_into(e_max, &ints[..n], &mut values[..n]);
        } else {
            // Store explicit zeros: `out` may be a recycled (dirty)
            // buffer, so the decoder must overwrite every element rather
            // than rely on a pre-zeroed destination.
            values[..n].fill(0.0);
        }
        match interior_base(shape, origin) {
            Some(base) => {
                for (&v, &off) in values[..n].iter().zip(&layout.offsets[..n]) {
                    out[base + off] = T::from_f64(v);
                }
            }
            None => store_block(out, shape, origin, &values[..n]),
        }
    }
    Ok(())
}

/// Decode one non-empty block's planes (after its flag) into `ints` in
/// natural (pre-permutation) order, ready for the inverse transform;
/// returns the block exponent.
fn decode_block(r: &mut BitReader<'_>, perm: &[usize], ints: &mut [i64]) -> Result<i32, ZfpError> {
    let n = ints.len();
    if r.remaining() < 26 {
        // Name the first field the stream cannot hold, as a per-field
        // read would.
        return Err(ZfpError::Corrupt(match r.remaining() {
            0..12 => "e_max",
            12..19 => "top",
            _ => "k_min",
        }));
    }
    let fields = r.get_bits(26).expect("26 bits remain");
    let e_max = (fields >> 14) as i32 - 1100;
    let top = ((fields >> 7) & 0x7f) as usize;
    let k_min = (fields & 0x7f) as usize;
    if top > 62 || k_min > top {
        return Err(ZfpError::Corrupt("plane range"));
    }
    let mut mags = [0u64; MAX_BLOCK];
    let mut neg: Bits = [0; MAX_BLOCK / 64];
    let mut sig: Bits = [0; MAX_BLOCK / 64];
    let mut insig = low_bits(n);
    for k in (k_min..=top).rev() {
        // Refinement bits: one per significant coefficient, read up to
        // 64 at a time into left-aligned words, then scattered in order.
        let refined = count(&sig);
        let mut words = [0u64; MAX_BLOCK / 64];
        for (j, word) in words[..refined.div_ceil(64)].iter_mut().enumerate() {
            let take = (refined - 64 * j).min(64) as u32;
            let bits = r.get_bits(take).ok_or(ZfpError::Corrupt("refinement bit"))?;
            *word = bits << (64 - take);
        }
        let (mut t, mut chunk) = (0, 0u64);
        for_each_index(&sig, |i| {
            if t % 64 == 0 {
                chunk = words[t / 64];
            }
            mags[i] |= (chunk >> 63) << k;
            chunk <<= 1;
            t += 1;
        });
        // Significance events over the plane-start insignificant set.
        let mut remaining = count(&insig);
        let mut used = 0;
        let mut born: Bits = [0; MAX_BLOCK / 64];
        while remaining > 0 {
            let more = r.get_bit().ok_or(ZfpError::Corrupt("event flag"))?;
            if !more {
                break;
            }
            let width = ceil_log2(remaining);
            let off = r.get_bits(width).ok_or(ZfpError::Corrupt("event offset"))? as usize;
            if off >= remaining {
                return Err(ZfpError::Corrupt("event offset range"));
            }
            let i = select(&insig, used + off);
            born[i / 64] |= 1u64 << (i % 64);
            mags[i] |= 1u64 << k;
            let sign = r.get_bit().ok_or(ZfpError::Corrupt("sign bit"))?;
            neg[i / 64] |= (sign as u64) << (i % 64);
            used += off + 1;
            remaining -= off + 1;
        }
        for (word, (s, ins)) in born.iter().zip(sig.iter_mut().zip(&mut insig)) {
            *s |= word;
            *ins &= !word;
        }
    }
    // Mid-point reconstruction of the truncated tail halves the expected
    // truncation error; then undo the sequency permutation.
    let half = if k_min > 0 { 1i64 << (k_min - 1) } else { 0 };
    for (i, &p) in perm.iter().enumerate() {
        let m = mags[i] as i64 + if has(&sig, i) { half } else { 0 };
        ints[p] = if has(&neg, i) { -m } else { m };
    }
    Ok(e_max)
}

/// Bits needed to encode an offset in `0..n` (0 when `n == 1`).
#[inline]
fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// Block-aligned origins covering `shape`, row-major.
fn block_origins(shape: Shape) -> impl Iterator<Item = [usize; MAX_DIMS]> {
    let nd = shape.ndim();
    std::iter::successors(Some([0usize; MAX_DIMS]), move |prev| {
        let mut origin = *prev;
        for axis in (0..nd).rev() {
            origin[axis] += BLOCK_SIDE;
            if origin[axis] < shape.dim(axis) {
                return Some(origin);
            }
            origin[axis] = 0;
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.17 * (a + 1) as f64).sin() * 3.0 / (a + 1) as f64;
            }
            v as f32
        })
    }

    fn check_bound(a: &NdArray<f32>, b: &NdArray<f32>, tol: f64) {
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                ((x - y).abs() as f64) <= tol,
                "element {i}: |{x} - {y}| > {tol}"
            );
        }
    }

    #[test]
    fn roundtrip_1d_2d_3d_within_bound() {
        for (shape, tol) in [
            (Shape::d1(100), 1e-3),
            (Shape::d2(33, 47), 1e-3),
            (Shape::d3(20, 17, 25), 1e-2),
        ] {
            let f = smooth(shape);
            let bytes = zfp_compress(&f, tol).unwrap();
            let back = zfp_decompress::<f32>(&bytes).unwrap();
            assert_eq!(back.shape().dims(), shape.dims());
            check_bound(&f, &back, tol);
        }
    }

    #[test]
    fn smooth_data_compresses() {
        let f = smooth(Shape::d3(32, 32, 32));
        let bytes = zfp_compress(&f, 1e-3).unwrap();
        let ratio = (f.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 3.0, "ratio {ratio:.2}");
    }

    #[test]
    fn tighter_tolerance_bigger_stream() {
        let f = smooth(Shape::d2(64, 64));
        let loose = zfp_compress(&f, 1e-1).unwrap().len();
        let tight = zfp_compress(&f, 1e-5).unwrap().len();
        assert!(tight > loose, "tight {tight} loose {loose}");
    }

    #[test]
    fn all_zero_field_is_tiny() {
        let f = NdArray::<f32>::zeros(Shape::d3(16, 16, 16));
        let bytes = zfp_compress(&f, 1e-6).unwrap();
        assert!(bytes.len() < 64, "{} bytes", bytes.len());
        let back = zfp_decompress::<f32>(&bytes).unwrap();
        assert!(back.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f64_roundtrip() {
        let f = NdArray::<f64>::from_fn(Shape::d2(20, 20), |ix| {
            (ix[0] as f64 * 0.3).cos() * 7.0 + ix[1] as f64 * 1e-3
        });
        let bytes = zfp_compress(&f, 1e-6).unwrap();
        let back = zfp_decompress::<f64>(&bytes).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn corrupt_streams_are_errors_not_panics() {
        let f = smooth(Shape::d2(16, 16));
        let bytes = zfp_compress(&f, 1e-3).unwrap();
        for cut in [3, 10, bytes.len() / 2] {
            assert!(zfp_decompress::<f32>(&bytes[..cut]).is_err());
        }
        assert!(zfp_decompress::<f64>(&bytes).is_err(), "scalar mismatch");
        assert!(zfp_decompress::<f32>(b"NOTZ").is_err());
    }

    #[test]
    fn non_finite_input_is_refused() {
        // These used to be coded as zero in the fixed-point step and
        // decode as unrelated finite values (NaN as about -1.5e-6).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut f = NdArray::<f64>::from_fn(Shape::d2(9, 10), |ix| ix[1] as f64 * 0.1);
            f.as_mut_slice()[57] = bad;
            match zfp_compress(&f, 1e-3) {
                Err(ZfpError::NonFinite(v)) => assert_eq!(v.to_bits(), bad.to_bits()),
                other => panic!("{bad}: expected NonFinite, got {other:?}"),
            }
            let f32s: Vec<f32> = f.as_slice().iter().map(|&v| v as f32).collect();
            assert!(matches!(
                zfp_compress_slice(&f32s, f.shape(), 1e-3),
                Err(ZfpError::NonFinite(_))
            ));
        }
    }

    #[test]
    fn bitset_rank_and_select_agree() {
        let mut s = 0x51E7_0001u64;
        for n in [1usize, 4, 16, 64, 65, 200, 256] {
            let mut b = low_bits(n);
            for w in &mut b {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *w &= s;
            }
            let members: Vec<usize> = (0..n).filter(|&i| has(&b, i)).collect();
            assert_eq!(count(&b), members.len());
            let mut seen = Vec::new();
            for_each_index(&b, |i| seen.push(i));
            assert_eq!(seen, members);
            for (r, &i) in members.iter().enumerate() {
                assert_eq!(select(&b, r), i);
                assert_eq!(rank(&b, i), r);
            }
        }
        assert_eq!(count(&low_bits(256)), 256);
        assert_eq!(count(&low_bits(64)), 64);
    }

    #[test]
    fn negligible_blocks_truncate_to_zero_within_bound() {
        // Tiny-but-nonzero values far below the tolerance: the plane
        // range degenerates (k_min > top) and the block must be coded as
        // empty — this used to write a truncated 7-bit k_min and produce
        // a stream the decoder rejects as "plane range".
        for (amp, tol) in [(1e-20f64, 1e-4f64), (1e-300, 1e-3), (1e-9, 1.0)] {
            let f = NdArray::<f32>::from_fn(Shape::d3(9, 9, 9), |ix| {
                (amp * (1.0 + (ix[0] + ix[1] + ix[2]) as f64 * 0.01)) as f32
            });
            let bytes = zfp_compress(&f, tol).unwrap();
            let back = zfp_decompress::<f32>(&bytes).unwrap();
            check_bound(&f, &back, tol);
        }
        // A field mixing quiescent and live blocks (the RTM snapshot
        // pattern that exposed the bug).
        let f = NdArray::<f32>::from_fn(Shape::d2(32, 32), |ix| {
            if ix[0] < 16 {
                1e-18
            } else {
                ((ix[0] * 32 + ix[1]) as f32 * 0.37).sin() * 5.0
            }
        });
        let tol = 1e-3;
        let bytes = zfp_compress(&f, tol).unwrap();
        let back = zfp_decompress::<f32>(&bytes).unwrap();
        check_bound(&f, &back, tol);
    }

    #[test]
    fn extreme_magnitudes() {
        let f = NdArray::<f32>::from_fn(Shape::d1(64), |ix| {
            if ix[0] % 2 == 0 {
                1e30
            } else {
                1e30 + 1e24
            }
        });
        let tol = 1e24;
        let bytes = zfp_compress(&f, tol).unwrap();
        let back = zfp_decompress::<f32>(&bytes).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(back.as_slice()) {
            assert!(((a - b).abs() as f64) <= tol * 1.001);
        }
    }

    /// Seeded fuzz loop over random shapes/tolerances/noise fields
    /// (formerly a proptest property; the offline build cannot fetch
    /// proptest, so cases are drawn from a fixed xorshift stream).
    #[test]
    fn prop_error_bound_holds() {
        let mut s = 0x2FBE_44B0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for case in 0..40 {
            let d0 = 1 + (next() % 29) as usize;
            let d1 = 1 + (next() % 19) as usize;
            let tol_exp = -5.0 + 5.0 * ((next() >> 11) as f64 / (1u64 << 53) as f64);
            let tol = 10f64.powf(tol_exp);
            let mut v = next() | 1;
            let f = NdArray::<f32>::from_fn(Shape::d2(d0, d1), |_| {
                v ^= v << 13;
                v ^= v >> 7;
                v ^= v << 17;
                ((v >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0) as f32
            });
            let bytes = zfp_compress(&f, tol).unwrap();
            let back = zfp_decompress::<f32>(&bytes).unwrap();
            for (&a, &b) in f.as_slice().iter().zip(back.as_slice()) {
                assert!(
                    ((a - b).abs() as f64) <= tol,
                    "case {case}: |{a} - {b}| > {tol}"
                );
            }
        }
    }
}
