//! The top-level ratio-quality model facade.

use crate::histogram::EstimatedHistogram;
use crate::quality;
use crate::ratio::{huffman_bit_rate, rle_ratio};
use crate::sampling::{sample_errors, ErrorSample};
use rq_grid::stats::Moments;
use rq_grid::{NdArray, Scalar};
use rq_predict::PredictorKind;
use rq_quant::DEFAULT_RADIUS;
use std::time::{Duration, Instant};

/// Residual cost (bits/symbol) of quiescent exact-zero regions after the
/// lossless stage: contiguous zero runs collapse to sporadic run tokens.
/// Calibrated against the RLE coder on wavefield snapshots.
const SPARSE_RESIDUAL_BITS: f64 = 0.05;

/// Everything the model predicts for one error bound — the full
/// ratio-quality picture of the paper, obtained without compressing.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// The absolute error bound the estimate is for.
    pub eb: f64,
    /// Predicted zero-code probability.
    pub p0: f64,
    /// Predicted fraction of unpredictable (escape) values.
    pub escape_fraction: f64,
    /// Predicted bit-rate with Huffman coding only (bits/value, including
    /// codebook, verbatim and side-channel overheads) — Fig. 5 "Huffman".
    pub bit_rate_huffman: f64,
    /// Predicted overall bit-rate with the optional lossless stage —
    /// Fig. 5 "overall".
    pub bit_rate: f64,
    /// Predicted overall compression ratio.
    pub ratio: f64,
    /// Error variance under the uniform assumption (Eq. 10).
    pub sigma2_uniform: f64,
    /// Refined error variance (Eq. 11).
    pub sigma2: f64,
    /// Predicted PSNR from the refined variance (Eq. 12).
    pub psnr: f64,
    /// Predicted PSNR from the uniform variance (the dashed line of
    /// Fig. 6).
    pub psnr_uniform: f64,
    /// Predicted global SSIM (Eq. 15).
    pub ssim: f64,
}

/// A built ratio-quality model for one (field, predictor) pair.
///
/// Construction performs the single sampling pass (§III-C); every
/// subsequent [`RqModel::estimate`] call is a pure computation on the
/// sample — this asymmetry is the entire point of the paper (Fig. 9).
/// An estimate costs one pass over the sample: measured about 23 µs at
/// 1k samples, 71 µs at 4.7k and 0.42 ms at 33k (interpolation,
/// `cargo bench -p rq-bench --bench model_cost`, Intel Xeon), against
/// ~9 ms for one real compression of the bench's 0.4 MiB field. The
/// inversions run about 55 estimates each.
#[derive(Clone, Debug)]
pub struct RqModel {
    sample: ErrorSample,
    radius: u32,
    scalar_bits: u32,
    value_range: f64,
    data_variance: f64,
    build_time: Duration,
}

impl RqModel {
    /// Sample `field` for `predictor` at `rate` (paper default 0.01) and
    /// build the model.
    pub fn build<T: Scalar>(
        field: &NdArray<T>,
        predictor: PredictorKind,
        rate: f64,
        seed: u64,
    ) -> Self {
        let start = Instant::now();
        let sample = sample_errors(field, predictor, rate, seed);
        // Range and variance from the same sampling budget (cheap single
        // pass; the range must be global so we take the exact one — an
        // O(n) scan, still trivially cheaper than compression).
        let value_range = field.value_range();
        let data_variance = Moments::from_slice(field.as_slice()).variance();
        RqModel {
            sample,
            radius: DEFAULT_RADIUS,
            scalar_bits: T::BITS,
            value_range,
            data_variance,
            build_time: start.elapsed(),
        }
    }

    /// Deterministic per-chunk model build for quality-targeted
    /// compression: a strided, RNG-free prediction-error sample
    /// ([`rq_predict::sample_prediction_errors`]) promoted to a full
    /// model, plus one exact pass over the slab for its value range and
    /// variance. Unlike [`Self::build`] the result depends only on
    /// `(data, shape, predictor, target_samples)` — per-chunk plans (and
    /// therefore container bytes) must be reproducible.
    pub fn build_strided<T: Scalar>(
        data: &[T],
        shape: rq_grid::Shape,
        predictor: PredictorKind,
        target_samples: usize,
    ) -> Self {
        let start = Instant::now();
        let ps = rq_predict::sample_prediction_errors(data, shape, predictor, target_samples);
        let sample = crate::sampling::ErrorSample::from_prediction_sample(&ps);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in data {
            let v = v.to_f64();
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let value_range = if lo <= hi { hi - lo } else { 0.0 };
        let data_variance = Moments::from_slice(data).variance();
        RqModel {
            sample,
            radius: DEFAULT_RADIUS,
            scalar_bits: T::BITS,
            value_range,
            data_variance,
            build_time: start.elapsed(),
        }
    }

    /// Build from an existing error sample (for custom sampling setups).
    pub fn from_sample(
        sample: ErrorSample,
        scalar_bits: u32,
        value_range: f64,
        data_variance: f64,
    ) -> Self {
        RqModel {
            sample,
            radius: DEFAULT_RADIUS,
            scalar_bits,
            value_range,
            data_variance,
            build_time: Duration::ZERO,
        }
    }

    /// Time spent building (sampling + field statistics).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The predictor this model was sampled for.
    pub fn predictor(&self) -> PredictorKind {
        self.sample.predictor
    }

    /// The underlying error sample.
    pub fn sample(&self) -> &ErrorSample {
        &self.sample
    }

    /// Value range of the modelled field.
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Variance of the modelled field.
    pub fn data_variance(&self) -> f64 {
        self.data_variance
    }

    /// Predict ratio and quality for an absolute error bound (the core
    /// operation, Fig. 2).
    ///
    /// # Panics
    /// Panics if `eb` is not finite and positive.
    pub fn estimate(&self, eb: f64) -> Estimate {
        // The histogram covers the *dense* (non-sparse) symbols; quiescent
        // exact-zero regions were removed at sampling time (§III-C) and are
        // folded back in below.
        let hist = EstimatedHistogram::build(&self.sample, eb, self.radius);
        let sf = self.sample.sparse_fraction;
        let p0_dense = hist.p0();
        let p0 = sf + (1.0 - sf) * p0_dense;
        let b_dense = huffman_bit_rate(&hist);
        // Without sparse mass the combined rate is the dense one; skip the
        // second entropy pass.
        let b_comb =
            if sf <= 0.0 { b_dense } else { crate::ratio::huffman_bit_rate_sparse(&hist, sf) };
        let bits = self.scalar_bits as f64;

        let symbol_frac = 1.0 - self.sample.verbatim_fraction;
        let escape_frac = symbol_frac * (1.0 - sf) * hist.escape_fraction();
        let verbatim_bits = (self.sample.verbatim_fraction + escape_frac) * bits;
        // Serialized codebook ≈ 1 byte per occupied bin (zero-RLE lengths).
        let codebook_bits = hist.occupied_bins() as f64 * 8.0 / self.sample.n_elements as f64;
        let overhead_bits =
            verbatim_bits + self.sample.side_bits_per_element + codebook_bits;

        // Huffman-only: every symbol (dense or sparse) pays its code.
        let bit_rate_huffman = symbol_frac * b_comb + overhead_bits;
        // With the lossless stage: dense symbols follow the Eq. 4 RLE model;
        // sparse zeros come in contiguous runs and are nearly free.
        let rle = rle_ratio(p0_dense, b_dense.max(1e-9));
        let dense_overall = b_dense / rle;
        let payload_overall =
            symbol_frac * ((1.0 - sf) * dense_overall + sf * SPARSE_RESIDUAL_BITS);
        let bit_rate = payload_overall + overhead_bits;
        let ratio = bits / bit_rate.max(1e-12);

        let sigma2_uniform = quality::sigma2_uniform(eb);
        // Cascade inflation of the central-bin variance (multi-level
        // interpolation feedback; see ErrorSample::quality_kappa), capped
        // at the uniform in-bin variance.
        let g = self.sample.quality_kappa;
        let central = if g > 0.0 {
            let gain = 1.0 / (1.0 - g * p0_dense).max(0.05);
            (hist.central_bin_variance * gain).min(eb * eb / 3.0)
        } else {
            hist.central_bin_variance
        };
        // Sparse points reconstruct exactly: scale the dense variance.
        let sigma2 = (1.0 - sf) * quality::sigma2_refined(eb, p0_dense, central);
        let c3 = (0.03 * self.value_range).powi(2);
        Estimate {
            eb,
            p0,
            escape_fraction: escape_frac,
            bit_rate_huffman,
            bit_rate,
            ratio,
            sigma2_uniform,
            sigma2,
            psnr: quality::psnr_model(self.value_range, sigma2),
            psnr_uniform: quality::psnr_model(self.value_range, sigma2_uniform),
            ssim: quality::ssim_model(self.data_variance, c3, sigma2),
        }
    }

    /// Weighted quantile of |prediction error|: the error bound at which
    /// the zero bin captures probability `p` (the anchor-point machinery of
    /// §III-B1).
    pub fn error_quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0,1]");
        let mut pairs: Vec<(f64, f64)> = self
            .sample
            .errors
            .iter()
            .zip(&self.sample.weights)
            .map(|(&e, &w)| (e.abs(), w))
            .filter(|(e, _)| e.is_finite())
            .collect();
        if pairs.is_empty() {
            return 0.0;
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let target = p * total;
        let mut acc = 0.0;
        for &(e, w) in &pairs {
            acc += w;
            if acc >= target {
                return e.max(f64::MIN_POSITIVE);
            }
        }
        pairs.last().unwrap().0.max(f64::MIN_POSITIVE)
    }

    fn eb_search_range(&self) -> (f64, f64) {
        let scale = self
            .error_quantile(0.9)
            .max(self.value_range * 1e-12)
            .max(f64::MIN_POSITIVE);
        (scale * 1e-9, (self.value_range.max(scale)) * 10.0)
    }

    /// Error bound achieving a target overall bit-rate (fix-rate mode).
    ///
    /// Monotone bisection over the model — still a pure computation on the
    /// one-time sample, never a recompression.
    pub fn error_bound_for_bit_rate(&self, target_bit_rate: f64) -> f64 {
        let (mut lo, mut hi) = self.eb_search_range();
        // bit_rate decreases as eb grows.
        for _ in 0..100 {
            let before = (lo.to_bits(), hi.to_bits());
            let mid = (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp();
            if self.estimate(mid).bit_rate > target_bit_rate {
                lo = mid;
            } else {
                hi = mid;
            }
            // A step that moved neither end is a fixed point: every later
            // one would repeat it, so stopping returns the same bits.
            if (lo.to_bits(), hi.to_bits()) == before {
                break;
            }
        }
        (lo.ln() * 0.5 + hi.ln() * 0.5).exp()
    }

    /// Paper-faithful Eq. 2 inversion: `e* = 2^(B−B*)·e`, switching to
    /// anchor-point interpolation at `p0 ∈ {0.5, 0.8, 0.95}` once the
    /// doubling argument breaks down (§III-B1).
    pub fn error_bound_for_bit_rate_eq2(&self, target_bit_rate: f64) -> f64 {
        // Profile in the valid region: pick e with p0 ≈ 0.3.
        let e_profile = self.error_quantile(0.3).max(f64::MIN_POSITIVE);
        let b_profile = self.estimate(e_profile).bit_rate_huffman;
        let e_star = 2f64.powf(b_profile - target_bit_rate) * e_profile;
        if self.estimate(e_star).p0 < 0.5 {
            return e_star;
        }
        // Anchor interpolation: (B, ln e) at p0 anchors, linear in between.
        let anchors: Vec<(f64, f64)> = [0.5, 0.8, 0.95]
            .iter()
            .map(|&p| {
                let e = self.error_quantile(p);
                (self.estimate(e).bit_rate_huffman, e.ln())
            })
            .collect();
        // Bit rates decrease along the anchor list.
        if target_bit_rate >= anchors[0].0 {
            // Still in (or before) the first anchor: fall back to Eq. 2
            // against the first anchor point.
            return (2f64.powf(anchors[0].0 - target_bit_rate) * anchors[0].1.exp())
                .min(self.eb_search_range().1);
        }
        for w in anchors.windows(2) {
            let (b_hi, ln_lo) = w[0];
            let (b_lo, ln_hi) = w[1];
            if target_bit_rate <= b_hi && target_bit_rate >= b_lo {
                let t = if (b_hi - b_lo).abs() < 1e-12 {
                    0.5
                } else {
                    (b_hi - target_bit_rate) / (b_hi - b_lo)
                };
                return (ln_lo + t * (ln_hi - ln_lo)).exp();
            }
        }
        // Beyond the last anchor: extrapolate along the last segment.
        let (b_hi, ln_lo) = anchors[1];
        let (b_lo, ln_hi) = anchors[2];
        let slope = (ln_hi - ln_lo) / (b_lo - b_hi).min(-1e-9);
        (ln_hi + slope * (target_bit_rate - b_lo)).exp()
    }

    /// Error bound achieving a target overall compression ratio.
    pub fn error_bound_for_ratio(&self, target_ratio: f64) -> f64 {
        assert!(target_ratio > 0.0, "ratio must be positive");
        self.error_bound_for_bit_rate(self.scalar_bits as f64 / target_ratio)
    }

    /// Error bound achieving a target PSNR (quality floor).
    pub fn error_bound_for_psnr(&self, target_db: f64) -> f64 {
        let (mut lo, mut hi) = self.eb_search_range();
        // psnr decreases as eb grows.
        for _ in 0..100 {
            let before = (lo.to_bits(), hi.to_bits());
            let mid = ((lo.ln() + hi.ln()) * 0.5).exp();
            if self.estimate(mid).psnr > target_db {
                lo = mid;
            } else {
                hi = mid;
            }
            // Fixed point: see error_bound_for_bit_rate.
            if (lo.to_bits(), hi.to_bits()) == before {
                break;
            }
        }
        ((lo.ln() + hi.ln()) * 0.5).exp()
    }

    /// Estimated rate-distortion curve over a grid of error bounds —
    /// the Fig. 10 series.
    pub fn rate_distortion_curve(&self, ebs: &[f64]) -> Vec<Estimate> {
        ebs.iter().map(|&e| self.estimate(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::Shape;

    /// A field with genuine fine-scale randomness so rate varies with eb.
    fn noisy_field() -> NdArray<f32> {
        let mut state = 0xABCDu64;
        NdArray::from_fn(Shape::d2(128, 128), |ix| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            ((ix[0] as f64 * 0.07).sin() * 5.0 + (ix[1] as f64 * 0.05).cos() * 3.0 + noise * 0.3)
                as f32
        })
    }

    #[test]
    fn estimates_are_monotone_in_eb() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 1);
        let es: Vec<Estimate> =
            [1e-4, 1e-3, 1e-2, 1e-1].iter().map(|&e| m.estimate(e)).collect();
        for w in es.windows(2) {
            assert!(w[1].bit_rate <= w[0].bit_rate + 1e-9, "bit rate must fall");
            assert!(w[1].p0 >= w[0].p0 - 1e-9, "p0 must rise");
            assert!(w[1].psnr <= w[0].psnr + 1e-9, "psnr must fall");
            assert!(w[1].ssim <= w[0].ssim + 1e-9, "ssim must fall");
        }
    }

    #[test]
    fn bit_rate_inversion_roundtrip() {
        let f = noisy_field();
        // Lorenzo: reconstruction feedback floors its rate near ~1.4 bits,
        // so test it above that; interpolation reaches far lower rates.
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 2);
        for target in [2.0, 4.0, 8.0] {
            let eb = m.error_bound_for_bit_rate(target);
            let got = m.estimate(eb).bit_rate;
            assert!((got - target).abs() < 0.25, "target {target} got {got} (eb {eb})");
        }
        let mi = RqModel::build(&f, PredictorKind::Interpolation, 0.1, 2);
        for target in [0.5, 1.0, 4.0] {
            let eb = mi.error_bound_for_bit_rate(target);
            let got = mi.estimate(eb).bit_rate;
            assert!((got - target).abs() < 0.3, "interp target {target} got {got} (eb {eb})");
        }
    }

    #[test]
    fn eq2_inversion_close_in_valid_region() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 3);
        // Moderate bit-rates: p0 < 0.5 regime where Eq. 2 applies.
        for target in [4.0, 6.0] {
            let eb = m.error_bound_for_bit_rate_eq2(target);
            let got = m.estimate(eb).bit_rate_huffman;
            assert!((got - target).abs() < 1.0, "target {target} got {got}");
        }
    }

    #[test]
    fn psnr_inversion_roundtrip() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Interpolation, 0.1, 4);
        for target in [40.0, 60.0, 80.0] {
            let eb = m.error_bound_for_psnr(target);
            let got = m.estimate(eb).psnr;
            assert!((got - target).abs() < 1.0, "target {target} got {got}");
        }
    }

    #[test]
    fn ratio_inversion_consistent_with_bit_rate() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 5);
        let eb = m.error_bound_for_ratio(16.0); // 2 bits/value for f32
        let est = m.estimate(eb);
        assert!((est.ratio - 16.0).abs() / 16.0 < 0.2, "ratio {}", est.ratio);
    }

    #[test]
    fn error_quantile_monotone() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.2, 6);
        let q25 = m.error_quantile(0.25);
        let q50 = m.error_quantile(0.5);
        let q95 = m.error_quantile(0.95);
        assert!(q25 <= q50 && q50 <= q95);
        assert!(q95 > 0.0);
    }

    #[test]
    fn refined_sigma_within_physical_limits() {
        // The refined variance (Eq. 11) can exceed the uniform eb²/3 when
        // central-bin errors pile near the bin edges, but never eb² (the
        // maximum variance of any distribution supported on [-eb, eb]).
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 7);
        for eb in [1e-3, 1e-2, 1e-1, 1.0] {
            let e = m.estimate(eb);
            assert!(e.sigma2 <= eb * eb * (1.0 + 1e-9), "eb {eb}: sigma2 {}", e.sigma2);
            assert!(e.sigma2 > 0.0);
        }
        // At very large bounds p0 → 1 and the refined variance collapses to
        // the (small) central-bin variance, far below uniform.
        let big = m.estimate(10.0);
        assert!(big.sigma2 < big.sigma2_uniform, "refined must win at high eb");
    }

    #[test]
    fn strided_build_is_deterministic_and_tracks_randomized_model() {
        let f = noisy_field();
        let a = RqModel::build_strided(f.as_slice(), f.shape(), PredictorKind::Lorenzo, 2048);
        let b = RqModel::build_strided(f.as_slice(), f.shape(), PredictorKind::Lorenzo, 2048);
        assert_eq!(a.sample().errors, b.sample().errors, "no RNG anywhere");
        assert_eq!(a.value_range(), f.value_range());
        // Same field, same predictor: the strided model must agree with
        // the randomized one to well within the paper's accuracy band.
        let r = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 11);
        for eb in [1e-3, 1e-2, 1e-1] {
            let (sa, sr) = (a.estimate(eb), r.estimate(eb));
            let rel = (sa.bit_rate - sr.bit_rate).abs() / sr.bit_rate.max(1e-9);
            assert!(rel < 0.25, "eb {eb}: strided {} vs random {}", sa.bit_rate, sr.bit_rate);
            assert!((sa.psnr - sr.psnr).abs() < 3.0, "eb {eb}: {} vs {}", sa.psnr, sr.psnr);
        }
    }

    #[test]
    fn build_time_recorded() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.05, 8);
        assert!(m.build_time() > Duration::ZERO);
    }

    #[test]
    fn estimate_much_faster_than_build() {
        // The asymmetry that makes the model useful: estimates are cheap.
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Interpolation, 0.05, 9);
        let t0 = Instant::now();
        for eb in [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 2.0, 4.0] {
            let _ = m.estimate(eb);
        }
        let est_time = t0.elapsed();
        assert!(
            est_time < m.build_time() * 50,
            "7 estimates {est_time:?} vs build {:?}",
            m.build_time()
        );
    }
}
