//! Differential oracle for the ZFP bitplane coder.
//!
//! `rq-zfp`'s block coder was reworked for speed (fixed per-call scratch,
//! bitset significance, batched refinement bits, stride-based block
//! gather/scatter) under one promise: **the RQZF stream does not change**
//! — not one byte of any stream, not one bit of any decode, and not one
//! error on any damaged stream. This suite holds that promise:
//!
//! * [`reference`] is a frozen copy of the per-bit coder: the compress
//!   and decode loops, the header parse, the block helpers they call
//!   (padded extraction, block-floating-point conversion, `frexp`) and the
//!   lifting transform. It is a deliberate test twin — never change it to
//!   match the library;
//! * finite inputs in 1D–4D (4D blocks hold 256 coefficients), f32 and
//!   f64, partial edge blocks on every axis, tolerances from 1e-12 to 1e3
//!   × the value range, all-zero blocks, blocks below the tolerance floor
//!   (`k_min > top`), `k_min == 0`, extreme and denormal magnitudes and
//!   8-row chunks of Gaussian random fields are compressed by both sides,
//!   and the streams compared byte for byte and the decodes with
//!   `to_bits`;
//! * every stream's header and payload are truncated at many lengths (the
//!   payload with its length rewritten, so the bitplane decoder itself
//!   runs dry) and its bytes mutated, and both decoders must agree on
//!   `Ok`/`Err`, on the `Corrupt` text, and on the decoded bits when a
//!   damaged stream still parses.

use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_grid::{NdArray, Scalar, Shape};
use rq_zfp::{zfp_compress_slice, zfp_decompress, zfp_decompress_into, ZfpError};

/// The one RNG every generator here uses, frozen (xorshift64).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Uniform in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// The frozen reference
// ---------------------------------------------------------------------------

mod reference {
    use rq_encoding::varint::{get_uvarint, put_uvarint};
    use rq_encoding::{BitReader, BitWriter};
    use rq_grid::{NdArray, Scalar, Shape, MAX_DIMS};

    const MAGIC: &[u8; 4] = b"RQZF";
    const GAIN_BITS_PER_DIM: i32 = 2;
    const Q_BITS: i32 = 40;
    const BLOCK_SIDE: usize = 4;

    /// The codec's error kinds, as the twin reports them.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RefError {
        BadTolerance,
        Corrupt(&'static str),
        ScalarMismatch,
    }

    pub fn compress_slice<T: Scalar>(
        data: &[T],
        shape: Shape,
        tolerance: f64,
    ) -> Result<Vec<u8>, RefError> {
        if !(tolerance.is_finite() && tolerance > 0.0) {
            return Err(RefError::BadTolerance);
        }
        assert_eq!(data.len(), shape.len());
        let nd = shape.ndim();
        let perm = sequency_order(nd);
        let gain_bits = GAIN_BITS_PER_DIM * nd as i32;

        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.push(T::TAG);
        header.push(nd as u8);
        for &d in shape.dims() {
            put_uvarint(&mut header, d as u64);
        }
        header.extend_from_slice(&tolerance.to_le_bytes());

        let mut w = BitWriter::new();
        for origin in block_origins(shape) {
            let values = extract_padded(data, shape, &origin[..nd]);
            let (e_max, mut ints) = to_fixed_point(&values);
            if e_max == i32::MIN {
                w.put_bit(false);
                continue;
            }
            fwd_transform(&mut ints, nd);
            let coeffs: Vec<i64> = perm.iter().map(|&i| ints[i]).collect();

            let max_mag = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
            let top = 63 - max_mag.max(1).leading_zeros() as i32;
            let tol_log = (tolerance.log2() + (Q_BITS - e_max) as f64).floor() as i32;
            let k_min = (tol_log - gain_bits).max(0);
            if k_min > top {
                w.put_bit(false);
                continue;
            }
            w.put_bit(true);
            w.put_bits((e_max + 1100) as u64, 12);
            w.put_bits(top as u64, 7);
            w.put_bits(k_min as u64, 7);

            let mut significant = vec![false; coeffs.len()];
            let mut k = top;
            while k >= k_min {
                for (i, &c) in coeffs.iter().enumerate() {
                    if significant[i] {
                        w.put_bit((c.unsigned_abs() >> k) & 1 == 1);
                    }
                }
                let insig: Vec<usize> =
                    (0..coeffs.len()).filter(|&i| !significant[i]).collect();
                let mut start = 0usize;
                loop {
                    let remaining = insig.len() - start;
                    if remaining == 0 {
                        break;
                    }
                    let next = insig[start..]
                        .iter()
                        .position(|&i| (coeffs[i].unsigned_abs() >> k) & 1 == 1);
                    match next {
                        None => {
                            w.put_bit(false);
                            break;
                        }
                        Some(off) => {
                            w.put_bit(true);
                            let width = ceil_log2(remaining);
                            w.put_bits(off as u64, width);
                            let idx = insig[start + off];
                            significant[idx] = true;
                            w.put_bit(coeffs[idx] < 0);
                            start += off + 1;
                        }
                    }
                }
                k -= 1;
            }
        }
        let payload = w.finish();
        put_uvarint(&mut header, payload.len() as u64);
        header.extend_from_slice(&payload);
        Ok(header)
    }

    struct Header {
        scalar_tag: u8,
        shape: Shape,
        payload_start: usize,
        payload_len: usize,
    }

    fn parse_header(bytes: &[u8]) -> Result<Header, RefError> {
        if bytes.len() < 6 || &bytes[..4] != MAGIC {
            return Err(RefError::Corrupt("magic"));
        }
        let scalar_tag = bytes[4];
        let nd = bytes[5] as usize;
        if nd == 0 || nd > MAX_DIMS {
            return Err(RefError::Corrupt("ndim"));
        }
        let mut pos = 6;
        let mut dims = [0usize; MAX_DIMS];
        let mut len = 1usize;
        for d in dims.iter_mut().take(nd) {
            *d = get_uvarint(bytes, &mut pos).ok_or(RefError::Corrupt("dims"))? as usize;
            if *d == 0 || *d > (1 << 32) {
                return Err(RefError::Corrupt("bad dim extent"));
            }
            len = len.checked_mul(*d).ok_or(RefError::Corrupt("element count overflow"))?;
        }
        let shape = Shape::new(&dims[..nd]);
        if pos + 8 > bytes.len() {
            return Err(RefError::Corrupt("tolerance"));
        }
        pos += 8;
        let payload_len =
            get_uvarint(bytes, &mut pos).ok_or(RefError::Corrupt("payload len"))? as usize;
        if pos.checked_add(payload_len).is_none_or(|end| end > bytes.len()) {
            return Err(RefError::Corrupt("payload"));
        }
        Ok(Header { scalar_tag, shape, payload_start: pos, payload_len })
    }

    pub fn decompress<T: Scalar>(bytes: &[u8]) -> Result<NdArray<T>, RefError> {
        let h = parse_header(bytes)?;
        if h.scalar_tag != T::TAG {
            return Err(RefError::ScalarMismatch);
        }
        let mut out = NdArray::<T>::zeros(h.shape);
        decode_payload(
            &bytes[h.payload_start..h.payload_start + h.payload_len],
            h.shape,
            out.as_mut_slice(),
        )?;
        Ok(out)
    }

    pub fn decompress_into<T: Scalar>(
        bytes: &[u8],
        shape: Shape,
        out: &mut [T],
    ) -> Result<(), RefError> {
        let h = parse_header(bytes)?;
        if h.scalar_tag != T::TAG {
            return Err(RefError::ScalarMismatch);
        }
        if h.shape.dims() != shape.dims() {
            return Err(RefError::Corrupt("shape mismatch"));
        }
        decode_payload(&bytes[h.payload_start..h.payload_start + h.payload_len], shape, out)
    }

    fn decode_payload<T: Scalar>(
        payload: &[u8],
        shape: Shape,
        out: &mut [T],
    ) -> Result<(), RefError> {
        let nd = shape.ndim();
        let mut r = BitReader::new(payload);
        let perm = sequency_order(nd);
        let block_len = BLOCK_SIDE.pow(nd as u32);
        let zeros = vec![0f64; block_len];
        for origin in block_origins(shape) {
            let nonempty = r.get_bit().ok_or(RefError::Corrupt("block flag"))?;
            if !nonempty {
                store_block(out, shape, &origin[..nd], &zeros);
                continue;
            }
            let e_max = r.get_bits(12).ok_or(RefError::Corrupt("e_max"))? as i32 - 1100;
            let top = r.get_bits(7).ok_or(RefError::Corrupt("top"))? as i32;
            let k_min = r.get_bits(7).ok_or(RefError::Corrupt("k_min"))? as i32;
            if top > 62 || k_min > top {
                return Err(RefError::Corrupt("plane range"));
            }
            let mut mags = vec![0u64; block_len];
            let mut neg = vec![false; block_len];
            let mut significant = vec![false; block_len];
            let mut k = top;
            while k >= k_min {
                for i in 0..block_len {
                    if significant[i] {
                        let bit = r.get_bit().ok_or(RefError::Corrupt("refinement bit"))?;
                        if bit {
                            mags[i] |= 1u64 << k;
                        }
                    }
                }
                let insig: Vec<usize> = (0..block_len).filter(|&i| !significant[i]).collect();
                let mut start = 0usize;
                loop {
                    let remaining = insig.len() - start;
                    if remaining == 0 {
                        break;
                    }
                    let more = r.get_bit().ok_or(RefError::Corrupt("event flag"))?;
                    if !more {
                        break;
                    }
                    let width = ceil_log2(remaining);
                    let off =
                        r.get_bits(width).ok_or(RefError::Corrupt("event offset"))? as usize;
                    if off >= remaining {
                        return Err(RefError::Corrupt("event offset range"));
                    }
                    let idx = insig[start + off];
                    significant[idx] = true;
                    mags[idx] |= 1u64 << k;
                    neg[idx] = r.get_bit().ok_or(RefError::Corrupt("sign bit"))?;
                    start += off + 1;
                }
                k -= 1;
            }
            let mut coeffs = vec![0i64; block_len];
            for i in 0..block_len {
                let mut m = mags[i] as i64;
                if significant[i] && k_min > 0 {
                    m += 1i64 << (k_min - 1);
                }
                coeffs[i] = if neg[i] { -m } else { m };
            }
            let mut ints = vec![0i64; block_len];
            for (i, &p) in perm.iter().enumerate() {
                ints[p] = coeffs[i];
            }
            inv_transform(&mut ints, nd);
            let values = from_fixed_point(e_max, &ints);
            store_block(out, shape, &origin[..nd], &values);
        }
        Ok(())
    }

    fn ceil_log2(n: usize) -> u32 {
        usize::BITS - (n - 1).leading_zeros()
    }

    fn block_origins(shape: Shape) -> Vec<[usize; MAX_DIMS]> {
        let nd = shape.ndim();
        let mut out = Vec::new();
        let mut origin = [0usize; MAX_DIMS];
        loop {
            out.push(origin);
            let mut axis = nd;
            loop {
                if axis == 0 {
                    return out;
                }
                axis -= 1;
                origin[axis] += BLOCK_SIDE;
                if origin[axis] < shape.dim(axis) {
                    break;
                }
                origin[axis] = 0;
            }
        }
    }

    fn extract_padded<T: Scalar>(data: &[T], shape: Shape, origin: &[usize]) -> Vec<f64> {
        let nd = shape.ndim();
        let n = BLOCK_SIDE.pow(nd as u32);
        let mut out = Vec::with_capacity(n);
        let mut local = [0usize; MAX_DIMS];
        let mut idx = [0usize; MAX_DIMS];
        loop {
            for a in 0..nd {
                idx[a] = (origin[a] + local[a]).min(shape.dim(a) - 1);
            }
            out.push(data[shape.offset(&idx[..nd])].to_f64());
            let mut axis = nd;
            let mut done = false;
            loop {
                if axis == 0 {
                    done = true;
                    break;
                }
                axis -= 1;
                local[axis] += 1;
                if local[axis] < BLOCK_SIDE {
                    break;
                }
                local[axis] = 0;
            }
            if done {
                break;
            }
        }
        out
    }

    fn store_block<T: Scalar>(data: &mut [T], shape: Shape, origin: &[usize], values: &[f64]) {
        let nd = shape.ndim();
        let mut local = [0usize; MAX_DIMS];
        let mut idx = [0usize; MAX_DIMS];
        let mut pos = 0usize;
        loop {
            let mut in_range = true;
            for a in 0..nd {
                let c = origin[a] + local[a];
                if c >= shape.dim(a) {
                    in_range = false;
                    break;
                }
                idx[a] = c;
            }
            if in_range {
                data[shape.offset(&idx[..nd])] = T::from_f64(values[pos]);
            }
            pos += 1;
            let mut axis = nd;
            let mut done = false;
            loop {
                if axis == 0 {
                    done = true;
                    break;
                }
                axis -= 1;
                local[axis] += 1;
                if local[axis] < BLOCK_SIDE {
                    break;
                }
                local[axis] = 0;
            }
            if done {
                break;
            }
        }
    }

    fn to_fixed_point(values: &[f64]) -> (i32, Vec<i64>) {
        let mut e_max = i32::MIN;
        for &v in values {
            if v != 0.0 && v.is_finite() {
                let (_, e) = frexp(v.abs());
                e_max = e_max.max(e);
            }
        }
        if e_max == i32::MIN {
            return (e_max, vec![0; values.len()]);
        }
        let scale = exp2i(Q_BITS - e_max);
        let ints = values
            .iter()
            .map(|&v| if v.is_finite() { (v * scale).round() as i64 } else { 0 })
            .collect();
        (e_max, ints)
    }

    fn from_fixed_point(e_max: i32, ints: &[i64]) -> Vec<f64> {
        if e_max == i32::MIN {
            return vec![0.0; ints.len()];
        }
        let scale = exp2i(e_max - Q_BITS);
        ints.iter().map(|&i| i as f64 * scale).collect()
    }

    fn exp2i(k: i32) -> f64 {
        f64::from_bits((((1023 + k.clamp(-1022, 1023)) as u64) << 52).max(1))
    }

    fn frexp(v: f64) -> (f64, i32) {
        let bits = v.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        if raw_exp == 0 {
            let scaled = v * exp2i(64);
            let (m, e) = frexp(scaled);
            return (m, e - 64);
        }
        let e = raw_exp - 1022;
        let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
        (m, e)
    }

    fn fwd_lift(v: &mut [i64; 4]) {
        let [mut x, mut y, mut z, mut w] = *v;
        x += w;
        x >>= 1;
        w -= x;
        z += y;
        z >>= 1;
        y -= z;
        x += z;
        x >>= 1;
        z -= x;
        w += y;
        w >>= 1;
        y -= w;
        w += y >> 1;
        y -= w >> 1;
        *v = [x, y, z, w];
    }

    /// Written with wrapping operators: the original used `+=`/`-=`, which
    /// wrap in release builds and panicked in debug builds on damaged
    /// streams whose magnitudes reach 2^62; this is the release behaviour.
    fn inv_lift(v: &mut [i64; 4]) {
        let [mut x, mut y, mut z, mut w] = *v;
        y = y.wrapping_add(w >> 1);
        w = w.wrapping_sub(y >> 1);
        y = y.wrapping_add(w);
        w <<= 1;
        w = w.wrapping_sub(y);
        z = z.wrapping_add(x);
        x <<= 1;
        x = x.wrapping_sub(z);
        y = y.wrapping_add(z);
        z <<= 1;
        z = z.wrapping_sub(y);
        w = w.wrapping_add(x);
        x <<= 1;
        x = x.wrapping_sub(w);
        *v = [x, y, z, w];
    }

    fn fwd_transform(block: &mut [i64], ndim: usize) {
        let n = block.len();
        for axis in 0..ndim {
            for_each_line(n, ndim, axis, |idx| {
                let mut v = [block[idx[0]], block[idx[1]], block[idx[2]], block[idx[3]]];
                fwd_lift(&mut v);
                for k in 0..4 {
                    block[idx[k]] = v[k];
                }
            });
        }
    }

    fn inv_transform(block: &mut [i64], ndim: usize) {
        let n = block.len();
        for axis in (0..ndim).rev() {
            for_each_line(n, ndim, axis, |idx| {
                let mut v = [block[idx[0]], block[idx[1]], block[idx[2]], block[idx[3]]];
                inv_lift(&mut v);
                for k in 0..4 {
                    block[idx[k]] = v[k];
                }
            });
        }
    }

    fn for_each_line(n: usize, ndim: usize, axis: usize, mut f: impl FnMut([usize; 4])) {
        let stride = 4usize.pow((ndim - 1 - axis) as u32);
        let lines = n / 4;
        let mut count = 0;
        let mut base = 0usize;
        while count < lines {
            if (base / stride).is_multiple_of(4) {
                f([base, base + stride, base + 2 * stride, base + 3 * stride]);
                count += 1;
                base += 1;
            } else {
                base += 3 * stride;
            }
            if base >= n {
                break;
            }
        }
    }

    fn sequency_order(ndim: usize) -> Vec<usize> {
        let n = 4usize.pow(ndim as u32);
        let mut perm: Vec<usize> = (0..n).collect();
        let key = |lin: usize| -> (usize, usize) {
            let mut rem = lin;
            let mut total = 0;
            for _ in 0..ndim {
                total += rem % 4;
                rem /= 4;
            }
            (total, lin)
        };
        perm.sort_by_key(|&l| key(l));
        perm
    }
}

use reference::RefError;

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

/// The library's error in the twin's terms, so results compare with `==`.
fn lib_err(e: ZfpError) -> RefError {
    match e {
        ZfpError::BadTolerance(_) => RefError::BadTolerance,
        ZfpError::Corrupt(what) => RefError::Corrupt(what),
        ZfpError::ScalarMismatch => RefError::ScalarMismatch,
        other => panic!("finite-input decode raised {other:?}"),
    }
}

fn bits_of<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Compress with both sides, assert equal streams, then assert equal
/// decodes through both library decode entry points; returns the stream.
fn assert_same_stream<T: Scalar>(label: &str, data: &[T], shape: Shape, tol: f64) -> Vec<u8> {
    let want = reference::compress_slice(data, shape, tol).expect("finite input");
    let got = zfp_compress_slice(data, shape, tol)
        .unwrap_or_else(|e| panic!("{label}: library refused finite input: {e}"));
    assert!(got == want, "{label} tol {tol:e}: stream differs ({} vs {} bytes)", got.len(), want.len());

    let ref_back = reference::decompress::<T>(&want).expect("own stream decodes");
    let back = zfp_decompress::<T>(&got).expect("own stream decodes");
    assert!(
        bits_of(back.as_slice()) == bits_of(ref_back.as_slice()),
        "{label} tol {tol:e}: decode differs"
    );
    // A dirty destination must be overwritten everywhere.
    let mut dirty = vec![T::from_f64(f64::NAN); shape.len()];
    zfp_decompress_into(&got, shape, &mut dirty).expect("own stream decodes");
    assert!(bits_of(&dirty) == bits_of(ref_back.as_slice()), "{label}: into-decode differs");
    got
}

/// Decode a (possibly damaged) stream with both sides into dirty buffers
/// and assert the same outcome: the same error, or the same bits.
fn assert_same_decode<T: Scalar>(label: &str, bytes: &[u8], shape: Shape) {
    let fill = T::from_f64(-7.25);
    let mut want_out = vec![fill; shape.len()];
    let mut got_out = vec![fill; shape.len()];
    let want = reference::decompress_into(bytes, shape, &mut want_out);
    let got = zfp_decompress_into(bytes, shape, &mut got_out).map_err(lib_err);
    assert_eq!(got, want, "{label}: outcome differs");
    if got.is_ok() {
        assert!(bits_of(&got_out) == bits_of(&want_out), "{label}: decoded bits differ");
    }
}

/// Splits an RQZF stream into the header before its payload-length
/// varint and the payload.
fn split_stream(stream: &[u8]) -> (&[u8], &[u8]) {
    let mut pos = 6;
    for _ in 0..stream[5] {
        get_uvarint(stream, &mut pos).unwrap();
    }
    let prefix_end = pos + 8;
    pos = prefix_end;
    get_uvarint(stream, &mut pos).unwrap();
    (&stream[..prefix_end], &stream[pos..])
}

/// Damage `stream` three ways, asserting the two decoders agree each
/// time: cut inside the header; cut the payload (rewriting the payload
/// length, so the bitplane decoder itself runs out of bits at every
/// plausible position); flip bytes (the header and first payload bytes
/// all, then a seeded sample).
fn assert_same_on_damage<T: Scalar>(label: &str, stream: &[u8], shape: Shape, seed: u64) {
    let mut s = seed | 1;
    let n = stream.len();
    let (prefix, payload) = split_stream(stream);
    for cut in 0..prefix.len() + 2 {
        assert_same_decode::<T>(&format!("{label} cut {cut}"), &stream[..cut], shape);
    }
    let p = payload.len();
    let mut keeps: Vec<usize> = (0..p.min(96)).collect();
    keeps.extend((0..64).map(|_| (xorshift(&mut s) % p.max(1) as u64) as usize));
    keeps.extend(p.saturating_sub(16)..p);
    for keep in keeps {
        let mut short = prefix.to_vec();
        put_uvarint(&mut short, keep as u64);
        short.extend_from_slice(&payload[..keep]);
        assert_same_decode::<T>(&format!("{label} payload cut {keep}"), &short, shape);
    }
    let mut flips: Vec<usize> = (0..n.min(64)).collect();
    if n > 64 {
        flips.extend((0..160).map(|_| 64 + (xorshift(&mut s) % (n as u64 - 64)) as usize));
    }
    let mut buf = stream.to_vec();
    for i in flips {
        let flip = [0xFFu8, 1 << (xorshift(&mut s) % 8), (xorshift(&mut s) as u8) | 1]
            [(xorshift(&mut s) % 3) as usize];
        buf[i] ^= flip;
        assert_same_decode::<T>(&format!("{label} byte {i} ^ {flip:#04x}"), &buf, shape);
        buf[i] ^= flip;
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A smooth field with a seeded noise floor of relative amplitude `noise`.
fn textured(shape: Shape, noise: f64, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    shape
        .indices()
        .map(|ix| {
            let mut v = 0.0;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.21 * (a + 1) as f64).sin() * 2.5 / (a + 1) as f64;
            }
            v + noise * (unit(&mut s) - 0.5)
        })
        .collect()
}

fn value_range(v: &[f64]) -> f64 {
    let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    hi - lo
}

fn as_f32(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

/// Shapes with partial edge blocks on every axis, plus exact multiples of
/// the block side and degenerate one-element extents.
fn shapes() -> Vec<Shape> {
    vec![
        Shape::d1(1),
        Shape::d1(4),
        Shape::d1(5),
        Shape::d1(103),
        Shape::d2(1, 1),
        Shape::d2(4, 4),
        Shape::d2(5, 7),
        Shape::d2(8, 33),
        Shape::d2(13, 2),
        Shape::d3(4, 4, 4),
        Shape::d3(5, 6, 7),
        Shape::d3(8, 9, 3),
        Shape::d3(1, 13, 10),
        Shape::new(&[4, 4, 4, 4]),
        Shape::new(&[5, 3, 6, 7]),
        Shape::new(&[8, 4, 1, 9]),
        Shape::new(&[2, 5, 5, 2]),
    ]
}

/// Relative tolerances, as multiples of the value range.
const REL_TOLS: [f64; 7] = [1e-12, 1e-9, 3e-6, 1e-4, 1e-2, 1.0, 1e3];

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn streams_and_decodes_match_the_twin_across_shapes_tolerances_and_scalars() {
    for (si, shape) in shapes().into_iter().enumerate() {
        for (noise, seed) in [(0.0, 11u64), (1e-3, 12), (4.0, 13)] {
            let v = textured(shape, noise, seed ^ (si as u64) << 8);
            let range = value_range(&v).max(1e-300);
            let v32 = as_f32(&v);
            for rel in REL_TOLS {
                let label = format!("{:?} noise {noise}", shape.dims());
                assert_same_stream(&format!("{label} f64"), &v, shape, rel * range);
                assert_same_stream(&format!("{label} f32"), &v32, shape, rel * range);
            }
        }
    }
}

#[test]
fn degenerate_blocks_match_the_twin() {
    let shape = Shape::new(&[6, 5, 7, 4]);
    let n = shape.len();
    let mut s = 0x5EED_0001u64;
    let cases: Vec<(&str, Vec<f64>, f64)> = vec![
        ("all zero", vec![0.0; n], 1e-6),
        // Tiny values below a loose tolerance: k_min > top everywhere.
        ("below floor", (0..n).map(|i| 1e-20 * (1.0 + i as f64 * 1e-3)).collect(), 1e-4),
        ("below floor, denormal", (0..n).map(|i| 1e-300 * (1.0 + i as f64)).collect(), 1e-3),
        // A tolerance so tight that every plane is kept (k_min == 0).
        ("k_min zero", (0..n).map(|_| unit(&mut s) * 2.0 - 1.0).collect(), 1e-30),
        ("extreme", (0..n).map(|i| if i % 2 == 0 { 1e30 } else { -1e30 - 1e24 }).collect(), 1e24),
        ("f64 denormal", (0..n).map(|i| (i as f64 - 200.0) * 4.9e-324).collect(), 1e-320),
        (
            "zero blocks among live ones",
            (0..n).map(|i| if (i / 64) % 2 == 0 { 0.0 } else { unit(&mut s) * 8.0 - 4.0 }).collect(),
            1e-5,
        ),
        (
            "single spike",
            (0..n).map(|i| if i == n / 2 { 3.5 } else { 0.0 }).collect(),
            1e-7,
        ),
        ("max f32 magnitudes", (0..n).map(|i| if i % 3 == 0 { 3.0e38 } else { -2.9e38 }).collect(), 1e33),
    ];
    for (label, v, tol) in &cases {
        let stream = assert_same_stream(&format!("{label} f64"), v, shape, *tol);
        assert_same_on_damage::<f64>(label, &stream, shape, 0xD0D0);
        let v32 = as_f32(v);
        assert_same_stream(&format!("{label} f32"), &v32, shape, *tol);
    }
    // f32 denormals.
    let v32: Vec<f32> = (0..n).map(|i| (i as f32 - 100.0) * 1.4e-45).collect();
    assert_same_stream("f32 denormal", &v32, shape, 1e-44);
    assert_same_stream("f32 denormal loose", &v32, shape, 1.0);
}

#[test]
fn grf_chunks_match_the_twin() {
    // 8-row chunks of smooth and turbulent Gaussian random fields at the
    // end-to-end benchmark's bound (3e-6 × the field's range).
    let mut rng = rq_datagen::rng::seeded(1);
    let fields: Vec<(&str, NdArray<f64>)> = vec![
        ("grf_2d smooth", rq_datagen::grf::grf_2d([32, 256], 3.5, &mut rng)),
        ("grf_2d turbulent", rq_datagen::grf::grf_2d([32, 256], 0.5, &mut rng)),
        ("grf_3d smooth", rq_datagen::grf::grf_3d([16, 16, 16], 3.5, &mut rng)),
        ("grf_3d turbulent", rq_datagen::grf::grf_3d([16, 16, 16], 1.0, &mut rng)),
    ];
    for (label, f) in &fields {
        let v32 = as_f32(f.as_slice());
        let range = value_range(f.as_slice());
        let dims = f.shape().dims().to_vec();
        let row = f.len() / dims[0];
        for (ci, start) in (0..dims[0]).step_by(8).enumerate() {
            let mut cdims = dims.clone();
            cdims[0] = 8.min(dims[0] - start);
            let shape = Shape::new(&cdims);
            let chunk = &v32[start * row..(start + cdims[0]) * row];
            let label = format!("{label} chunk {ci}");
            let stream = assert_same_stream(&label, chunk, shape, 3e-6 * range);
            if ci == 0 {
                assert_same_on_damage::<f32>(&label, &stream, shape, 0xC0FFEE);
            }
        }
    }
}

#[test]
fn damaged_streams_fail_alike_in_every_dimensionality() {
    for (si, shape) in shapes().into_iter().enumerate() {
        if shape.len() > 400 {
            continue;
        }
        let v = textured(shape, 0.5, 0xBAD0 + si as u64);
        let range = value_range(&v).max(1e-300);
        for rel in [1e-9, 1e-3] {
            let stream = assert_same_stream("damage base", &v, shape, rel * range);
            let label = format!("{:?} rel {rel:e}", shape.dims());
            assert_same_on_damage::<f64>(&label, &stream, shape, si as u64);
        }
        let v32 = as_f32(&v);
        let stream = assert_same_stream("damage base f32", &v32, shape, 1e-5 * range);
        assert_same_on_damage::<f32>(&format!("{:?} f32", shape.dims()), &stream, shape, 77);
    }
}

#[test]
fn header_level_errors_match_the_twin() {
    let shape = Shape::d2(9, 6);
    let v = textured(shape, 0.1, 5);
    let stream = assert_same_stream("header base", &v, shape, 1e-4);
    // Scalar mismatch, wrong expected shape, wrong tolerance, empty input.
    let mut out32 = vec![0f32; shape.len()];
    assert_eq!(
        zfp_decompress_into(&stream, shape, &mut out32).map_err(lib_err),
        reference::decompress_into(&stream, shape, &mut out32)
    );
    let wrong = Shape::d2(6, 9);
    assert_same_decode::<f64>("wrong shape", &stream, wrong);
    assert_same_decode::<f64>("empty", &[], shape);
    for tol in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert_eq!(
            zfp_compress_slice(&v, shape, tol).map_err(lib_err).map(|_| ()),
            reference::compress_slice(&v, shape, tol).map(|_| ())
        );
    }
    // The allocating decoder agrees on every prefix too.
    for cut in 0..stream.len() {
        let got = zfp_decompress::<f64>(&stream[..cut]).map(|a| bits_of(a.as_slice()));
        let want = reference::decompress::<f64>(&stream[..cut]).map(|a| bits_of(a.as_slice()));
        assert_eq!(got.map_err(lib_err), want, "prefix {cut}");
    }
}
