//! The reversible integer lifting transform on 4-element vectors.
//!
//! This is zfp's non-orthogonal decorrelating transform (a lifted
//! approximation of a 4-point DCT-II). Like libzfp's, the `>>1` steps drop
//! low bits, so forward+inverse round-trips to within a few integer ULPs
//! rather than exactly; at the codec's fixed-point precision (Q = 40 bits
//! below the block exponent) that residue is ~2⁻³⁸ of the value range and
//! is absorbed by the error-bound margin.

/// Forward lift of one 4-vector (in place).
#[inline]
pub fn fwd_lift(v: &mut [i64; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    // zfp's forward lifting sequence.
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

/// Inverse lift of one 4-vector (in place); inverse of [`fwd_lift`] up to
/// the low bits the `>>1` steps drop (as in libzfp).
///
/// The additions wrap: a damaged stream can carry coefficients up to
/// 2^62, whose sums overflow `i64`. The decoder must return garbage for
/// them, not panic, in every build profile.
#[inline]
pub fn inv_lift(v: &mut [i64; 4]) {
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

/// Apply the forward lift along every axis of a 4^d block (row-major,
/// `4usize.pow(d)` elements).
pub fn fwd_transform(block: &mut [i64], ndim: usize) {
    for axis in 0..ndim {
        lift_axis(block, ndim, axis, fwd_lift);
    }
}

/// Apply the inverse lift along every axis, in reverse order.
pub fn inv_transform(block: &mut [i64], ndim: usize) {
    // The per-axis lifts commute only approximately; invert in reverse
    // axis order to be exact.
    for axis in (0..ndim).rev() {
        lift_axis(block, ndim, axis, inv_lift);
    }
}

/// Lift every 4-element line along `axis` of a 4^ndim cube.
#[inline]
fn lift_axis(block: &mut [i64], ndim: usize, axis: usize, lift: impl Fn(&mut [i64; 4])) {
    for_each_line(block.len(), ndim, axis, |[a, b, c, d]| {
        let mut v = [block[a], block[b], block[c], block[d]];
        lift(&mut v);
        [block[a], block[b], block[c], block[d]] = v;
    });
}

/// Enumerate the 4-element lines along `axis` of a 4^ndim cube, invoking
/// `f` with the four linear indices of each line.
#[inline]
fn for_each_line(n: usize, ndim: usize, axis: usize, mut f: impl FnMut([usize; 4])) {
    // Row-major strides: last axis fastest. A line starts at every index
    // whose `axis` coordinate is 0: `stride` consecutive starts in each
    // run of `4 * stride` elements.
    let stride = 4usize.pow((ndim - 1 - axis) as u32);
    for run in (0..n).step_by(4 * stride) {
        for base in run..run + stride {
            f([base, base + stride, base + 2 * stride, base + 3 * stride]);
        }
    }
}

/// Total-sequency coefficient ordering: coefficients sorted by the sum of
/// their per-axis indices (low frequencies first), ties broken row-major.
/// Returns the permutation `perm` such that `reordered[i] = block[perm[i]]`.
pub fn sequency_order(ndim: usize) -> Vec<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_roundtrip_within_lsb_slack() {
        // The >>1 steps drop low bits (exactly as in libzfp); round-trips
        // agree to within a few integer ULPs.
        for seed in 0..500i64 {
            let mut v = [
                seed * 977 % 4001 - 2000,
                seed * 1009 % 377 - 188,
                -seed * 31 % 9999,
                seed,
            ];
            let orig = v;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            for k in 0..4 {
                assert!((v[k] - orig[k]).abs() <= 2, "seed {seed}: {v:?} vs {orig:?}");
            }
        }
    }

    #[test]
    fn lift_large_magnitudes_relative_slack() {
        let mut v = [1i64 << 40, -(1 << 40), (1 << 39) + 7, -3];
        let orig = v;
        fwd_lift(&mut v);
        inv_lift(&mut v);
        for k in 0..4 {
            assert!((v[k] - orig[k]).abs() <= 2, "{v:?} vs {orig:?}");
        }
    }

    #[test]
    fn inverse_lift_wraps_on_damaged_magnitudes() {
        // A damaged stream can hand the decoder coefficients near 2^62;
        // the inverse lift must wrap (as release builds always did), not
        // panic on overflow in debug builds.
        let big = (1i64 << 62) + 12345;
        for v in [[big, big, big, big], [-big, big, -big, big], [big, -big, 0, big]] {
            let mut w = v;
            inv_lift(&mut w);
            let mut block = [v[0]; 256];
            block[1] = v[1];
            inv_transform(&mut block, 4);
        }
    }

    #[test]
    fn transform_roundtrip_2d_3d_bounded_residue() {
        for ndim in 1..=3usize {
            let n = 4usize.pow(ndim as u32);
            let mut block: Vec<i64> =
                (0..n as i64).map(|i| (i * i * 37) % 100_000 - 50_000).collect();
            let orig = block.clone();
            fwd_transform(&mut block, ndim);
            assert_ne!(block, orig, "transform must do something");
            inv_transform(&mut block, ndim);
            for (a, b) in block.iter().zip(&orig) {
                assert!((a - b).abs() <= 8, "ndim {ndim}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn constant_block_compacts_to_dc() {
        let mut block = vec![128i64; 16];
        fwd_transform(&mut block, 2);
        // All energy in the DC coefficient, up to lift rounding residue.
        let nonzero_big = block.iter().filter(|&&c| c.abs() > 2).count();
        assert_eq!(nonzero_big, 1, "constant block must compact: {block:?}");
    }

    #[test]
    fn linear_ramp_compacts_to_few_coeffs() {
        // A linear field needs only DC + first-order coefficients.
        let mut block: Vec<i64> = (0..64)
            .map(|lin| {
                let (i, j, k) = (lin / 16, (lin / 4) % 4, lin % 4);
                (i as i64) * 300 + (j as i64) * 40 + (k as i64) * 5
            })
            .collect();
        fwd_transform(&mut block, 3);
        let big = block.iter().filter(|&&c| c.abs() > 16).count();
        assert!(big <= 8, "linear block should compact, got {big} large coeffs");
    }

    #[test]
    fn sequency_order_is_permutation() {
        for ndim in 1..=3usize {
            let p = sequency_order(ndim);
            let n = 4usize.pow(ndim as u32);
            let mut seen = vec![false; n];
            for &i in &p {
                assert!(!seen[i]);
                seen[i] = true;
            }
            // DC first.
            assert_eq!(p[0], 0);
        }
    }

    #[test]
    fn lines_cover_all_elements() {
        for ndim in 1..=3usize {
            let n = 4usize.pow(ndim as u32);
            for axis in 0..ndim {
                let mut seen = vec![0u8; n];
                for_each_line(n, ndim, axis, |idx| {
                    for &i in &idx {
                        seen[i] += 1;
                    }
                });
                assert!(seen.iter().all(|&c| c == 1), "ndim {ndim} axis {axis}");
            }
        }
    }
}
