//! Deterministic strided sampling of prediction errors, and the sampled
//! ratio estimate built on it (paper §III-C, recast for scheduling).
//!
//! The full ratio-quality model (`rq-core`) performs one randomized
//! sampling pass and answers *every* error bound from it. The adaptive
//! codec scheduler in `rq-compress` needs the same primitive — "how many
//! bits/value would the prediction+quantization+entropy path spend on this
//! slab?" — but from *inside* the compressor, below `rq-core` in the crate
//! graph, and it must be bit-deterministic (container bytes are required
//! to be a pure function of field and configuration, independent of thread
//! count). This module therefore re-exposes the model's data-dependent
//! core as a public API at the predictor layer:
//!
//! * [`sample_prediction_errors`] — a *strided* (seed-free, deterministic)
//!   sample of original-value prediction errors, per predictor family, the
//!   §III-C sampling pass without the RNG;
//! * [`PredictionSample::estimate`] — the Eq. 1 entropy bit-rate of the
//!   quantized sample plus the escape / anchor / side-channel overheads,
//!   i.e. the sampled model estimate the scheduler compares codecs with.
//!
//! Predicting from **original** values (not reconstructions) is what makes
//! one sample reusable across error bounds; the residual bias is small and
//! identical for every candidate codec, so it cancels in the comparison.

use crate::interp::{anchors, for_each_stencil};
use crate::lorenzo::LorenzoStencil;
use crate::regression::{fit_block_with, BlockCoeffs, REGRESSION_BLOCK_SIDE};
use crate::PredictorKind;
use rq_grid::{BlockIter, Scalar, Shape, MAX_DIMS};
use rq_quant::LinearQuantizer;

/// A deterministic sample of prediction errors for one field (or slab).
#[derive(Clone, Debug)]
pub struct PredictionSample {
    /// Sampled prediction errors (value − original-value prediction).
    pub errors: Vec<f64>,
    /// Predictor the errors were sampled for.
    pub predictor: PredictorKind,
    /// Dimensionality of the sampled field (stencil geometry).
    pub ndim: usize,
    /// Number of elements in the sampled field.
    pub n_elements: usize,
    /// Fraction of elements stored verbatim at any error bound
    /// (interpolation anchors; 0 for the other families).
    pub verbatim_fraction: f64,
    /// Side-channel bits per element (regression coefficients; 0 for the
    /// other families).
    pub side_bits_per_element: f64,
    /// How many of `errors` came from quiescent exactly-zero regions
    /// (value 0 and error 0). Kept inline so [`Self::estimate`] is
    /// unchanged; consumers that model sparse runs separately (the
    /// ratio-quality model's §III-C treatment) can subtract them.
    pub sparse_count: usize,
}

/// The sampled ratio estimate for one error bound — the Eq. 1 bit-rate of
/// the sample under linear-scaling quantization.
#[derive(Clone, Copy, Debug)]
pub struct SampledEstimate {
    /// Estimated bits per value, including escape/anchor/side overheads.
    pub bits_per_value: f64,
    /// Estimated fraction of quantized points that fall out of the
    /// quantizer's code range and escape to verbatim storage.
    pub escape_fraction: f64,
    /// Estimated zero-code (perfect prediction) probability.
    pub p0: f64,
    /// Number of sampled errors the estimate is based on.
    pub n_samples: usize,
}

impl PredictionSample {
    /// Estimate the prediction-path bit-rate at absolute bound `eb` with
    /// quantizer `radius`, for a scalar of `scalar_bits` bits.
    ///
    /// This is the paper's Eq. 1 evaluated on the sampled histogram: the
    /// Shannon entropy of the quantization symbols (the Huffman rate is
    /// within a fraction of a bit of it) plus `scalar_bits` for every
    /// escaped or verbatim value, the serialized-codebook cost (≈ 1 byte
    /// per occupied bin, as in the `rq-core` model) and the regression
    /// side channel.
    ///
    /// Two corrections keep the estimate honest on *hard* data, where the
    /// decision it feeds matters most:
    ///
    /// * **entropy saturation** — a plug-in entropy computed from `N`
    ///   samples can never exceed `log2(N)`; when codes spread over about
    ///   as many bins as there are samples, the true per-symbol cost is
    ///   recovered from the sample's code variance instead (a Gaussian is
    ///   the max-entropy distribution for a given variance, capped by the
    ///   uniform cost over the observed code spread);
    /// * **codebook extrapolation** — under the same wide-spread regime,
    ///   the full slab occupies roughly `min(spread, slab symbols)` bins,
    ///   not just the bins the sample happened to hit.
    pub fn estimate(&self, eb: f64, radius: u32, scalar_bits: u32) -> SampledEstimate {
        let q = LinearQuantizer::new(eb, radius);
        let n = self.errors.len();
        if n == 0 {
            return SampledEstimate {
                bits_per_value: self.verbatim_fraction * scalar_bits as f64
                    + self.side_bits_per_element,
                escape_fraction: 0.0,
                p0: 1.0,
                n_samples: 0,
            };
        }
        // Quantize the sampled errors into a sparse histogram. Codes are
        // clustered near zero, so a small dense center plus a list of the
        // codes beyond it keeps this near O(n log n) even for exhaustive
        // samples of wide-spread data. The list is sorted and counted in
        // runs, so its bins come out in ascending code order and the
        // floating-point entropy summation, on which codec decisions
        // rely, is deterministic (tests/scheduler_differential.rs holds
        // it bit-identical to an ordered-map histogram).
        const CENTER: usize = 512;
        let mut center = [0u64; 2 * CENTER + 1];
        let mut tail: Vec<i32> = Vec::new();
        let mut escapes = 0u64;
        let (mut code_min, mut code_max) = (i64::MAX, i64::MIN);
        let (mut code_sum, mut code_sumsq) = (0.0f64, 0.0f64);
        for &e in &self.errors {
            match q.quantize(e) {
                None => escapes += 1,
                Some(code) => {
                    let c = code as i64;
                    code_min = code_min.min(c);
                    code_max = code_max.max(c);
                    code_sum += c as f64;
                    code_sumsq += (c as f64) * (c as f64);
                    if c.unsigned_abs() as usize <= CENTER {
                        center[(c + CENTER as i64) as usize] += 1;
                    } else {
                        tail.push(code);
                    }
                }
            }
        }
        let n_quantized = n as u64 - escapes;
        let p0 = center[CENTER] as f64 / n as f64;
        let escape_fraction = escapes as f64 / n as f64;

        // Plug-in Shannon entropy of the symbol distribution, escapes
        // included as one extra symbol (they also pay the verbatim value
        // below), plus the occupied-bin count.
        let total = n as f64;
        let mut entropy = 0.0f64;
        let mut occupied = 0usize;
        tail.sort_unstable();
        let tail_counts = tail.chunk_by(|a, b| a == b).map(|run| run.len() as u64);
        for cnt in center.iter().copied().chain(tail_counts) {
            if cnt > 0 {
                occupied += 1;
                let p = cnt as f64 / total;
                entropy -= p * p.log2();
            }
        }
        if escapes > 0 {
            let p = escapes as f64 / total;
            entropy -= p * p.log2();
        }

        // Saturation regime: the sample occupies about as many bins as it
        // has points, so the plug-in entropy is bounded by log2(N) while
        // the true entropy may be far larger.
        let mut occupied_full = occupied as f64;
        if n_quantized > 0 && occupied > 64 && occupied as f64 >= 0.25 * n_quantized as f64 {
            let nq = n_quantized as f64;
            let mean = code_sum / nq;
            // +1/12: the variance floor of integer discretization.
            let var = (code_sumsq / nq - mean * mean).max(0.0) + 1.0 / 12.0;
            let spread = (code_max - code_min + 1).max(2) as f64;
            let h_gauss = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * var).log2();
            let h_param = h_gauss.min(spread.log2());
            entropy = entropy.max(h_param.min((q.alphabet_size() as f64 + 1.0).log2()));
            let slab_symbols = (1.0 - self.verbatim_fraction) * self.n_elements as f64;
            occupied_full = occupied_full.max(spread.min(slab_symbols));
        }
        let codebook_bits =
            occupied_full * 8.0 / self.n_elements.max(1) as f64;

        let symbol_fraction = 1.0 - self.verbatim_fraction;
        let bits_per_value = symbol_fraction * (entropy + escape_fraction * scalar_bits as f64)
            + self.verbatim_fraction * scalar_bits as f64
            + codebook_bits
            + self.side_bits_per_element;
        SampledEstimate {
            bits_per_value,
            escape_fraction,
            p0,
            n_samples: n,
        }
    }
}

/// Draw a deterministic strided sample of up to `target_samples`
/// prediction errors from `data` (row-major, laid out as `shape`),
/// predicting from original values (§III-C4).
///
/// The stride is chosen so roughly `target_samples` points are visited;
/// passing `target_samples >= shape.len()` samples exhaustively. The
/// result depends only on `(data, shape, predictor, target_samples)` —
/// no RNG — so callers that must produce reproducible bytes can use it.
///
/// Generic over [`Scalar`]: values are promoted to `f64` only at the
/// sampled stencil accesses, so the cost is proportional to the sample,
/// not the field.
///
/// # Panics
/// Panics if `data.len() != shape.len()` or `target_samples == 0`.
pub fn sample_prediction_errors<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    target_samples: usize,
) -> PredictionSample {
    assert_eq!(data.len(), shape.len(), "data length must match shape");
    assert!(target_samples > 0, "target_samples must be positive");
    match predictor {
        // TemporalDelta traverses its (residual) field with the order-1
        // Lorenzo stencil, so the same sampler applies.
        PredictorKind::Lorenzo | PredictorKind::TemporalDelta => {
            sample_lorenzo(data, shape, 1, target_samples)
        }
        PredictorKind::Lorenzo2 => sample_lorenzo(data, shape, 2, target_samples),
        PredictorKind::Interpolation => sample_interp(data, shape, target_samples),
        PredictorKind::Regression => sample_regression(data, shape, target_samples),
    }
}

fn sample_lorenzo<T: Scalar>(
    data: &[T],
    shape: Shape,
    order: usize,
    target: usize,
) -> PredictionSample {
    let n = shape.len();
    // Odd stride: coprime with power-of-two extents, so the raster walk
    // cannot alias onto a few columns of the grid (an even stride over a
    // 2^k-wide row would sample the same column positions forever).
    let stride = ((n / target).max(1)) | 1;
    let stencil = LorenzoStencil::new(shape.ndim(), order);
    let nd = shape.ndim();
    let get = |lin: usize| data[lin].to_f64();
    let mut errors = Vec::with_capacity(n.div_ceil(stride));
    let mut sparse = 0usize;
    let mut lin = 0usize;
    while lin < n {
        let idx = shape.unoffset(lin);
        let pred = stencil.predict_with(shape, &idx[..nd], get);
        let v = get(lin);
        let err = v - pred;
        if v == 0.0 && err == 0.0 {
            sparse += 1;
        }
        errors.push(err);
        lin += stride;
    }
    PredictionSample {
        errors,
        predictor: if order == 1 { PredictorKind::Lorenzo } else { PredictorKind::Lorenzo2 },
        ndim: nd,
        n_elements: n,
        verbatim_fraction: 0.0,
        side_bits_per_element: 0.0,
        sparse_count: sparse,
    }
}

fn sample_interp<T: Scalar>(data: &[T], shape: Shape, target: usize) -> PredictionSample {
    let n = shape.len();
    let n_anchors = anchors(shape).len();
    let non_anchor = n.saturating_sub(n_anchors).max(1);
    // Odd, for the same anti-aliasing reason as the Lorenzo sampler (the
    // stencil enumeration rasters within each level).
    let stride = ((non_anchor / target).max(1)) | 1;
    let get = |lin: usize| data[lin].to_f64();
    let mut errors = Vec::with_capacity(non_anchor.div_ceil(stride));
    let mut sparse = 0usize;
    let mut visit = 0usize;
    for_each_stencil(shape, |t| {
        if visit.is_multiple_of(stride) {
            let v = get(t.target);
            let err = v - t.predict_with(get);
            if v == 0.0 && err == 0.0 {
                sparse += 1;
            }
            errors.push(err);
        }
        visit += 1;
    });
    PredictionSample {
        errors,
        predictor: PredictorKind::Interpolation,
        ndim: shape.ndim(),
        n_elements: n,
        verbatim_fraction: n_anchors as f64 / n as f64,
        side_bits_per_element: 0.0,
        sparse_count: sparse,
    }
}

fn sample_regression<T: Scalar>(data: &[T], shape: Shape, target: usize) -> PredictionSample {
    let nd = shape.ndim();
    let block_elems = REGRESSION_BLOCK_SIDE.pow(nd as u32);
    let target_blocks = target.div_ceil(block_elems).max(1);
    let blocks: Vec<_> = BlockIter::new(shape, REGRESSION_BLOCK_SIDE).collect();
    // Odd, so block sampling cannot alias onto a single block column.
    let stride = ((blocks.len() / target_blocks).max(1)) | 1;
    let strides = shape.strides();
    let get = |lin: usize| data[lin].to_f64();
    let mut errors = Vec::new();
    let mut sparse = 0usize;
    for block in blocks.iter().step_by(stride) {
        let coeffs = fit_block_with(shape, block, get);
        let mut local = [0usize; MAX_DIMS];
        loop {
            let mut lin = 0usize;
            for a in 0..nd {
                lin += (block.origin[a] + local[a]) * strides[a];
            }
            let v = get(lin);
            let err = v - coeffs.predict(&local[..nd]);
            if v == 0.0 && err == 0.0 {
                sparse += 1;
            }
            errors.push(err);
            let mut axis = nd;
            let mut done = false;
            loop {
                if axis == 0 {
                    done = true;
                    break;
                }
                axis -= 1;
                local[axis] += 1;
                if local[axis] < block.size[axis] {
                    break;
                }
                local[axis] = 0;
            }
            if done {
                break;
            }
        }
    }
    let side_bits = BlockCoeffs::byte_len(nd) as f64 * 8.0;
    PredictionSample {
        errors,
        predictor: PredictorKind::Regression,
        ndim: nd,
        n_elements: shape.len(),
        verbatim_fraction: 0.0,
        side_bits_per_element: side_bits / block_elems as f64,
        sparse_count: sparse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(shape: Shape) -> Vec<f64> {
        let mut out = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            let v: f64 = ix[..shape.ndim()]
                .iter()
                .enumerate()
                .map(|(a, &c)| ((c as f64) * 0.2 * (a + 1) as f64).sin())
                .sum();
            out.push(v);
        }
        out
    }

    fn noisy(n: usize, amp: f64) -> Vec<f64> {
        let mut s = 0x1234_5678u64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * amp
            })
            .collect()
    }

    #[test]
    fn deterministic_and_sized() {
        let shape = Shape::d2(64, 64);
        let data = smooth(shape);
        for kind in PredictorKind::all() {
            let a = sample_prediction_errors(&data, shape, kind, 400);
            let b = sample_prediction_errors(&data, shape, kind, 400);
            assert_eq!(a.errors, b.errors, "{kind:?} must be deterministic");
            assert!(!a.errors.is_empty());
            // Strided sampling is approximate; allow a generous band
            // (regression samples whole blocks).
            assert!(a.errors.len() <= 4096 + 1300, "{kind:?}: {}", a.errors.len());
        }
    }

    #[test]
    fn exhaustive_when_target_exceeds_len() {
        let shape = Shape::d1(100);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 10_000);
        assert_eq!(s.errors.len(), 100);
    }

    #[test]
    fn smooth_field_estimates_few_bits() {
        let shape = Shape::d2(64, 64);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 1000);
        let est = s.estimate(1e-2, 1 << 15, 32);
        assert!(est.bits_per_value < 8.0, "bits {}", est.bits_per_value);
        assert_eq!(est.escape_fraction, 0.0);
        assert!(est.p0 > 0.1);
    }

    #[test]
    fn out_of_range_errors_counted_as_escapes() {
        // Noise amplitude far beyond the quantizer range at a tiny bound
        // and radius: everything escapes, so the estimate approaches the
        // verbatim cost.
        let shape = Shape::d1(4096);
        let data = noisy(4096, 100.0);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 1024);
        let est = s.estimate(1e-6, 256, 32);
        assert!(est.escape_fraction > 0.9, "escape {}", est.escape_fraction);
        assert!(est.bits_per_value > 30.0, "bits {}", est.bits_per_value);
    }

    #[test]
    fn estimate_monotone_in_eb() {
        let shape = Shape::d2(64, 64);
        let mut data = smooth(shape);
        let noise = noisy(data.len(), 0.1);
        for (d, n) in data.iter_mut().zip(&noise) {
            *d += n;
        }
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 2000);
        let mut prev = f64::INFINITY;
        for eb in [1e-5, 1e-4, 1e-3, 1e-2] {
            let est = s.estimate(eb, 1 << 15, 32);
            assert!(
                est.bits_per_value <= prev + 1e-9,
                "eb {eb}: {} > {prev}",
                est.bits_per_value
            );
            prev = est.bits_per_value;
        }
    }

    #[test]
    fn interpolation_reports_anchor_fraction() {
        let shape = Shape::d3(16, 16, 16);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Interpolation, 500);
        assert!(s.verbatim_fraction > 0.0);
        assert!(s.verbatim_fraction < 0.2);
    }

    #[test]
    fn regression_reports_side_bits() {
        let shape = Shape::d2(24, 24);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Regression, 500);
        assert!(s.side_bits_per_element > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_target_rejected() {
        let shape = Shape::d1(10);
        let data = smooth(shape);
        let _ = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 0);
    }
}
