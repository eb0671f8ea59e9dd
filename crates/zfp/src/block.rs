//! Block extraction / block-floating-point conversion.
//!
//! Each 4^d block shares one exponent: values are scaled by `2^(Q − e)`
//! where `e` is the block's maximum exponent and `Q` the fixed-point
//! precision, then rounded to integers. Edge blocks are padded by
//! replicating the last layer (as libzfp does), which keeps the transform
//! smooth across the pad.

use rq_grid::{Scalar, Shape, MAX_DIMS};

/// Fixed-point fractional precision (bits below the block's max exponent).
pub const Q_BITS: i32 = 40;

/// Side length of a codec block.
pub const BLOCK_SIDE: usize = 4;

/// Coefficients in the largest block (`BLOCK_SIDE ^ MAX_DIMS`).
pub const MAX_BLOCK: usize = 256;

/// The in-field offset of every lane of a 4^d block relative to the
/// block's first element, for one field shape. Interior blocks (every lane
/// inside the field, see [`interior_base`]) are gathered and scattered
/// through it alone; edge blocks take the clamped paths
/// ([`extract_padded_into`], [`store_block`]).
pub(crate) struct BlockLayout {
    /// Lanes per block, `4^ndim`.
    pub(crate) len: usize,
    /// Row-major offsets of the block's lanes from its first element.
    pub(crate) offsets: [usize; MAX_BLOCK],
}

impl BlockLayout {
    /// The layout of 4^d blocks in a row-major field of `shape`.
    pub(crate) fn new(shape: Shape) -> Self {
        let nd = shape.ndim();
        let strides = shape.strides();
        let len = BLOCK_SIDE.pow(nd as u32);
        let mut offsets = [0usize; MAX_BLOCK];
        for (lane, off) in offsets[..len].iter_mut().enumerate() {
            let mut rem = lane;
            for a in (0..nd).rev() {
                *off += (rem % BLOCK_SIDE) * strides[a];
                rem /= BLOCK_SIDE;
            }
        }
        BlockLayout { len, offsets }
    }
}

/// Offset of the first element of the block at `origin`, or `None` when
/// the block crosses the field boundary on some axis (an edge block).
#[inline]
pub(crate) fn interior_base(shape: Shape, origin: &[usize]) -> Option<usize> {
    let inside = origin.iter().zip(shape.dims()).all(|(&o, &d)| o + BLOCK_SIDE <= d);
    inside.then(|| shape.offset(origin))
}

/// Extract the block at `origin` (block-aligned) into `out` (`4^ndim`
/// values, row-major), replicate-padding past the boundary.
///
/// Operates on a raw row-major slice so callers can encode sub-slabs of a
/// larger buffer (the chunk-parallel pipeline) without copying.
pub fn extract_padded_into<T: Scalar>(
    data: &[T],
    shape: Shape,
    origin: &[usize],
    out: &mut [f64],
) {
    let nd = shape.ndim();
    let mut local = [0usize; MAX_DIMS];
    let mut idx = [0usize; MAX_DIMS];
    for v in out.iter_mut() {
        for a in 0..nd {
            // Clamp = replicate padding.
            idx[a] = (origin[a] + local[a]).min(shape.dim(a) - 1);
        }
        *v = data[shape.offset(&idx[..nd])].to_f64();
        step_local(&mut local, nd);
    }
}

/// Write a decoded block back, ignoring padded lanes.
pub fn store_block<T: Scalar>(
    data: &mut [T],
    shape: Shape,
    origin: &[usize],
    values: &[f64],
) {
    let nd = shape.ndim();
    let mut local = [0usize; MAX_DIMS];
    let mut idx = [0usize; MAX_DIMS];
    for &v in values {
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
            data[shape.offset(&idx[..nd])] = T::from_f64(v);
        }
        step_local(&mut local, nd);
    }
}

/// Advance a row-major lane coordinate within a 4^nd block (wrapping to
/// all-zero after the last lane).
#[inline]
fn step_local(local: &mut [usize; MAX_DIMS], nd: usize) {
    for a in (0..nd).rev() {
        local[a] += 1;
        if local[a] < BLOCK_SIDE {
            return;
        }
        local[a] = 0;
    }
}

/// Shared-exponent fixed-point encoding of a block into `ints`
/// (`ints.len() == values.len()`).
///
/// Returns `e_max` and sets `ints[i] = round(v[i] · 2^(Q − e_max))`; an
/// all-zero/non-finite block returns `e_max = i32::MIN` and zeros.
pub fn to_fixed_point_into(values: &[f64], ints: &mut [i64]) -> i32 {
    // `frexp`'s exponent is monotone in |v|, so the block exponent is the
    // exponent of the largest finite magnitude.
    let max_abs = values
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    if max_abs == 0.0 {
        ints.fill(0);
        return i32::MIN;
    }
    let e_max = frexp(max_abs).1;
    let scale = exp2i(Q_BITS - e_max);
    for (i, &v) in ints.iter_mut().zip(values) {
        *i = if v.is_finite() { (v * scale).round() as i64 } else { 0 };
    }
    e_max
}

/// Inverse of [`to_fixed_point_into`], into `out` (`out.len() ==
/// ints.len()`).
pub fn from_fixed_point_into(e_max: i32, ints: &[i64], out: &mut [f64]) {
    if e_max == i32::MIN {
        out.fill(0.0);
        return;
    }
    let scale = exp2i(e_max - Q_BITS);
    for (o, &i) in out.iter_mut().zip(ints) {
        *o = i as f64 * scale;
    }
}

/// `2^k` as f64 for |k| within f64 range.
fn exp2i(k: i32) -> f64 {
    f64::from_bits((((1023 + k.clamp(-1022, 1023)) as u64) << 52).max(1))
}

/// Binary exponent of a positive finite f64 (`v = m·2^e`, `m ∈ [0.5, 1)`).
fn frexp(v: f64) -> (f64, i32) {
    let bits = v.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        // Subnormal: normalize by multiplying up.
        let scaled = v * exp2i(64);
        let (m, e) = frexp(scaled);
        return (m, e - 64);
    }
    let e = raw_exp - 1022;
    let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
    (m, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::Shape;

    #[test]
    fn frexp_basics() {
        assert_eq!(frexp(1.0), (0.5, 1));
        assert_eq!(frexp(0.5), (0.5, 0));
        assert_eq!(frexp(3.0), (0.75, 2));
        let (m, e) = frexp(1e-300);
        assert!((m * exp2i(e) - 1e-300).abs() < 1e-310);
    }

    fn to_fixed_point(values: &[f64]) -> (i32, Vec<i64>) {
        let mut ints = vec![0; values.len()];
        (to_fixed_point_into(values, &mut ints), ints)
    }

    fn from_fixed_point(e_max: i32, ints: &[i64]) -> Vec<f64> {
        let mut out = vec![f64::NAN; ints.len()];
        from_fixed_point_into(e_max, ints, &mut out);
        out
    }

    fn extract_padded(data: &[f32], shape: Shape, origin: &[usize]) -> Vec<f64> {
        let mut out = vec![f64::NAN; BLOCK_SIDE.pow(shape.ndim() as u32)];
        extract_padded_into(data, shape, origin, &mut out);
        out
    }

    #[test]
    fn fixed_point_roundtrip_within_half_ulp() {
        let vals = vec![1.0, -0.5, 0.25, 3.999, 0.0, -2.5e-3, 1.75];
        let (e, ints) = to_fixed_point(&vals);
        let back = from_fixed_point(e, &ints);
        let tol = exp2i(e - Q_BITS);
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    #[test]
    fn all_zero_block() {
        let (e, ints) = to_fixed_point(&[0.0; 16]);
        assert_eq!(e, i32::MIN);
        assert!(ints.iter().all(|&i| i == 0));
        assert!(from_fixed_point(e, &ints).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extract_and_store_roundtrip_with_padding() {
        // 5x6 field: edge blocks need padding.
        let shape = Shape::d2(5, 6);
        let field = rq_grid::NdArray::<f32>::from_fn(shape, |ix| (ix[0] * 10 + ix[1]) as f32);
        let mut out = vec![0f32; shape.len()];
        for b0 in (0..5).step_by(4) {
            for b1 in (0..6).step_by(4) {
                let vals = extract_padded(field.as_slice(), shape, &[b0, b1]);
                assert_eq!(vals.len(), 16);
                store_block(&mut out, shape, &[b0, b1], &vals);
            }
        }
        assert_eq!(&out[..], field.as_slice());
    }

    #[test]
    fn block_exponent_is_the_largest_finite_exponent() {
        for vals in [
            vec![0.0, 1e-310, -3e-320, 0.0],
            vec![0.75, -1.0, 0.5, f64::NAN],
            vec![-1.0, 1.0, 0.999, f64::INFINITY],
            vec![2.0f64.powi(-1022), 2.0f64.powi(-1023), 0.0, 0.0],
        ] {
            let direct = vals
                .iter()
                .filter(|v| **v != 0.0 && v.is_finite())
                .map(|v| frexp(v.abs()).1)
                .max()
                .unwrap();
            assert_eq!(to_fixed_point(&vals).0, direct, "{vals:?}");
        }
    }

    #[test]
    fn interior_offsets_match_the_clamped_gather() {
        let shape = Shape::new(&[6, 5, 9, 7]);
        let field = rq_grid::NdArray::<f32>::from_fn(shape, |ix| {
            (ix[0] * 1000 + ix[1] * 100 + ix[2] * 10 + ix[3]) as f32
        });
        let layout = BlockLayout::new(shape);
        assert_eq!(layout.len, MAX_BLOCK);
        let origin = [0, 0, 4, 0];
        let base = interior_base(shape, &origin).expect("interior");
        let clamped = extract_padded(field.as_slice(), shape, &origin);
        for (lane, &v) in clamped.iter().enumerate() {
            assert_eq!(field.as_slice()[base + layout.offsets[lane]] as f64, v);
        }
        assert!(interior_base(shape, &[4, 0, 0, 0]).is_none());
        assert!(interior_base(shape, &[0, 4, 4, 4]).is_none());
    }

    #[test]
    fn padding_replicates_edge() {
        let data = [0.0f32, 1.0, 2.0, 3.0, 4.0];
        let vals = extract_padded(&data, Shape::d1(5), &[4]);
        assert_eq!(vals, vec![4.0, 4.0, 4.0, 4.0]);
    }
}
