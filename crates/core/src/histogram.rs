//! Estimated quantization-code histograms (paper §III-C4).
//!
//! Given the sampled prediction errors and a candidate error bound, the
//! model quantizes the *samples* (bin width `2·eb`) to estimate the
//! quantization-code histogram the compressor would produce. Because the
//! samples were predicted from original values while the compressor
//! predicts from reconstructed ones, the estimate is corrected by the
//! bin-transfer of Eq. 9: once the zero bin exceeds θ₂ = 80 %, a fraction
//! `C₂·(1−p₀)` of every bin leaks to its two neighbors, emulating the extra
//! dispersion caused by reconstruction feedback.

use crate::sampling::ErrorSample;

/// Bin-transfer activation threshold θ₂ of Eq. 9.
pub const BIN_TRANSFER_THRESHOLD: f64 = 0.8;

/// Widest code span, per in-range sample, that [`EstimatedHistogram::build`]
/// accumulates in a flat array; wider spans are binned by a stable sort,
/// so scratch memory follows the sample count, not the code radius.
const DENSE_SPAN_PER_SAMPLE: usize = 4;

/// A (weighted, sparse) estimated quantization-code histogram.
#[derive(Clone, Debug)]
pub struct EstimatedHistogram {
    /// Weighted mass per occupied quantization code, in ascending code
    /// order. A code that was hit only with zero weight is still listed.
    bins: Vec<(i32, f64)>,
    /// Total in-range mass.
    total: f64,
    /// Mass quantized beyond the code radius (escape path).
    pub escape_mass: f64,
    /// Weighted variance of the errors that landed in the central bin —
    /// the `σ(B[0])` of Eq. 11.
    pub central_bin_variance: f64,
}

impl EstimatedHistogram {
    /// Quantize the error sample at `eb` with the given code radius and
    /// apply the correction layer of §III-C4: the Eq. 9 bin transfer plus
    /// the reconstruction-feedback noise `κ·eb` (see
    /// [`ErrorSample::feedback_kappa`]) that emulates predicting from
    /// reconstructed instead of original values.
    ///
    /// Costs one pass over the sample plus one over the occupied bins.
    /// Each bin sums its weights in sample order, so the result does not
    /// depend on how the bins are stored.
    ///
    /// # Panics
    /// Panics if `eb` is not finite and positive.
    pub fn build(sample: &ErrorSample, eb: f64, radius: u32) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "invalid error bound {eb}");
        // (code, weight) of every in-range sample, in sample order.
        let mut hits: Vec<(i32, f64)> = Vec::with_capacity(sample.errors.len());
        let (mut lo, mut hi) = (i32::MAX, i32::MIN);
        let mut escape_mass = 0.0;
        let mut total = 0.0;
        let mut central_sum = 0.0;
        let mut central_sq = 0.0;
        let mut central_w = 0.0;
        let bin_width = 2.0 * eb;
        // Deterministic ≈N(0,1) stream for the feedback perturbation
        // (Irwin–Hall sum of four uniforms, standardized). The feedback
        // scale grows with eb but saturates at a few signal scales: once
        // the bin dwarfs the data's own variation, reconstruction drift is
        // governed by the signal, not the bound.
        let kappa = sample.feedback_kappa;
        let fb_scale = if kappa > 0.0 {
            (kappa * eb).min(8.0 * sample.weighted_std().max(f64::MIN_POSITIVE))
        } else {
            0.0
        };
        let mut fb_state = 0x9E37_79B9_7F4A_7C15u64;
        let mut fb_noise = move || -> f64 {
            let mut acc = 0.0;
            for _ in 0..4 {
                fb_state ^= fb_state << 13;
                fb_state ^= fb_state >> 7;
                fb_state ^= fb_state << 17;
                acc += (fb_state >> 11) as f64 / (1u64 << 53) as f64;
            }
            // Sum of 4 uniforms: mean 2, std √(1/3).
            (acc - 2.0) / (1.0f64 / 3.0).sqrt()
        };
        for (&err, &w) in sample.errors.iter().zip(&sample.weights) {
            if !err.is_finite() {
                escape_mass += w;
                continue;
            }
            // Feedback noise at a point originates from its neighbors'
            // reconstruction errors. In code-0-dominated neighborhoods the
            // residual a neighbor passes on is its own (small) prediction
            // error, not ±eb, so the dispersion saturates *per point* at a
            // few times the point's own error magnitude — the local error
            // scale's cheapest proxy. Without this, quiet sub-threshold
            // chunks are smeared across bins and the model overestimates
            // both their rate and their variance by an order of magnitude
            // (visible in per-chunk quality-targeted planning).
            let err = if fb_scale > 0.0 {
                err + fb_scale.min(8.0 * err.abs()) * fb_noise()
            } else {
                err
            };
            let code = (err / bin_width).round();
            if code.abs() > radius as f64 {
                escape_mass += w;
                continue;
            }
            let code = code as i32;
            hits.push((code, w));
            lo = lo.min(code);
            hi = hi.max(code);
            total += w;
            if code == 0 {
                central_sum += w * err;
                central_sq += w * err * err;
                central_w += w;
            }
        }
        let central_bin_variance = if central_w > 0.0 {
            let mean = central_sum / central_w;
            // The sampled central variance; the model applies the cascade
            // inflation (ErrorSample::quality_kappa) on top, since it
            // needs the sparse fraction which lives outside the histogram.
            (central_sq / central_w - mean * mean).max(0.0)
        } else {
            0.0
        };
        let mut h = EstimatedHistogram {
            bins: bin_hits(hits, lo, hi),
            total,
            escape_mass,
            central_bin_variance,
        };
        h.apply_bin_transfer(sample.predictor.bin_transfer_c2());
        h
    }

    /// Eq. 9: when `p0 ≥ θ₂`, transfer `C₂·(1−p₀)` of each bin's mass
    /// evenly to its two neighbors.
    ///
    /// One pass over the occupied bins. Bin `k` ends up as
    /// `m[k] + moved[k−1]/2 − moved[k] + moved[k+1]/2`, added in that
    /// order and only over occupied source bins; bins at or below 1e-12
    /// are dropped.
    fn apply_bin_transfer(&mut self, c2: f64) {
        if c2 == 0.0 || self.total == 0.0 || self.p0() < BIN_TRANSFER_THRESHOLD {
            return;
        }
        let p0 = self.p0();
        let frac = c2 * (1.0 - p0);
        if frac <= 0.0 {
            return;
        }
        let src = std::mem::take(&mut self.bins);
        let mut out: Vec<(i32, f64)> = Vec::with_capacity(src.len() + 2);
        let mut next = i32::MIN; // lowest code not yet emitted
        for (i, &(c, _)) in src.iter().enumerate() {
            // Codes within ±2 of `c` sit within ±2 places of `i`.
            let near = &src[i.saturating_sub(2)..(i + 3).min(src.len())];
            let mass_of = |k: i32| near.iter().find(|&&(code, _)| code == k).map(|&(_, m)| m);
            for k in [c - 1, c, c + 1] {
                if k < next {
                    continue;
                }
                next = k + 1;
                let own = mass_of(k);
                let mut m = own.unwrap_or(0.0);
                if let Some(left) = mass_of(k - 1) {
                    m += (left * frac) / 2.0;
                }
                if let Some(own) = own {
                    m += -(own * frac);
                }
                if let Some(right) = mass_of(k + 1) {
                    m += (right * frac) / 2.0;
                }
                if m > 1e-12 {
                    out.push((k, m));
                }
            }
        }
        self.bins = out;
    }

    /// Fraction of (in-range) mass in the zero bin — the model's `p0`.
    pub fn p0(&self) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let zero = self.bins.binary_search_by_key(&0, |&(c, _)| c);
        zero.map_or(0.0, |i| self.bins[i].1) / self.total
    }

    /// Fraction of all sampled mass that escapes the code range.
    pub fn escape_fraction(&self) -> f64 {
        let all = self.total + self.escape_mass;
        if all == 0.0 {
            0.0
        } else {
            self.escape_mass / all
        }
    }

    /// Normalized (probability) view of the code bins.
    pub fn probabilities(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
        let t = self.total.max(f64::MIN_POSITIVE);
        self.bins.iter().map(move |&(c, m)| (c, m / t))
    }

    /// Number of occupied bins.
    pub fn occupied_bins(&self) -> usize {
        self.bins.len()
    }

    /// Shannon entropy of the code distribution in bits.
    pub fn entropy(&self) -> f64 {
        self.probabilities()
            .filter(|&(_, p)| p > 0.0)
            .map(|(_, p)| -p * p.log2())
            .sum()
    }
}

/// Sum each code's weights in sample order and list the occupied codes
/// in ascending order. `lo..=hi` is the span of codes in `hits`.
fn bin_hits(mut hits: Vec<(i32, f64)>, lo: i32, hi: i32) -> Vec<(i32, f64)> {
    if hits.is_empty() {
        return Vec::new();
    }
    let span = (hi as i64 - lo as i64 + 1) as usize;
    if span <= DENSE_SPAN_PER_SAMPLE * hits.len() {
        let mut mass: Vec<Option<f64>> = vec![None; span];
        for &(code, w) in &hits {
            *mass[(code - lo) as usize].get_or_insert(0.0) += w;
        }
        (lo..=hi).zip(mass).filter_map(|(code, m)| Some((code, m?))).collect()
    } else {
        // Stable: equal codes keep their sample order.
        hits.sort_by_key(|&(code, _)| code);
        let mut bins: Vec<(i32, f64)> = Vec::new();
        for (code, w) in hits {
            if bins.last().map(|&(c, _)| c) != Some(code) {
                bins.push((code, 0.0));
            }
            bins.last_mut().expect("just pushed").1 += w;
        }
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_predict::PredictorKind;
    use std::collections::BTreeMap;

    fn sample_of(errors: Vec<f64>, predictor: PredictorKind) -> ErrorSample {
        let weights = vec![1.0; errors.len()];
        ErrorSample {
            errors,
            weights,
            predictor,
            n_elements: 1000,
            verbatim_fraction: 0.0,
            side_bits_per_element: 0.0,
            feedback_kappa: 0.0,
            quality_kappa: 0.0,
            sparse_fraction: 0.0,
        }
    }

    #[test]
    fn quantizes_to_expected_bins() {
        let s = sample_of(vec![0.0, 0.4, 0.6, -0.6, 2.1, -50.0], PredictorKind::Regression);
        let h = EstimatedHistogram::build(&s, 0.5, 10);
        // bin width 1.0: codes 0, 0, 1, -1, 2, escape(-50).
        let bins: BTreeMap<i32, f64> = h.probabilities().collect();
        assert!((h.p0() - 2.0 / 5.0).abs() < 1e-12);
        assert!(bins.contains_key(&1) && bins.contains_key(&-1) && bins.contains_key(&2));
        assert!((h.escape_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn p0_grows_with_eb() {
        let errors: Vec<f64> = (0..1000).map(|i| ((i as f64) * 0.377).sin()).collect();
        let s = sample_of(errors, PredictorKind::Regression);
        let p_small = EstimatedHistogram::build(&s, 0.01, 1 << 15).p0();
        let p_big = EstimatedHistogram::build(&s, 1.0, 1 << 15).p0();
        assert!(p_small < p_big);
        assert!((p_big - 1.0).abs() < 1e-12, "eb 1.0 covers sin range");
    }

    #[test]
    fn bin_transfer_only_above_threshold() {
        // 85% zeros: Lorenzo triggers the Eq. 9 correction.
        let mut errors = vec![0.0; 850];
        errors.extend(vec![1.0; 150]);
        let s = sample_of(errors.clone(), PredictorKind::Lorenzo);
        let h = EstimatedHistogram::build(&s, 0.4, 1 << 15);
        // Without transfer p0 would be exactly 0.85; with C2=0.2 mass moved
        // out of the zero bin.
        assert!(h.p0() < 0.85, "p0 {} should shrink", h.p0());
        // Regression (C2 = 0) must not move anything.
        let s2 = sample_of(errors, PredictorKind::Regression);
        let h2 = EstimatedHistogram::build(&s2, 0.4, 1 << 15);
        assert!((h2.p0() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn below_threshold_no_transfer() {
        let mut errors = vec![0.0; 700];
        errors.extend((0..300).map(|i| 1.0 + (i % 5) as f64));
        let s = sample_of(errors, PredictorKind::Lorenzo);
        let h = EstimatedHistogram::build(&s, 0.4, 1 << 15);
        assert!((h.p0() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mass_conserved_by_transfer() {
        let mut errors = vec![0.0; 9500];
        errors.extend(vec![0.9; 500]);
        let s = sample_of(errors, PredictorKind::Lorenzo);
        let h = EstimatedHistogram::build(&s, 0.4, 1 << 15);
        let total: f64 = h.probabilities().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn central_bin_variance_reflects_concentration() {
        // Tight errors: central variance << eb²/3.
        let errors: Vec<f64> = (0..1000).map(|i| (i as f64 / 1000.0 - 0.5) * 0.02).collect();
        let s = sample_of(errors, PredictorKind::Regression);
        let eb = 0.5;
        let h = EstimatedHistogram::build(&s, eb, 1 << 15);
        assert!(h.central_bin_variance < eb * eb / 3.0 / 100.0);
    }

    #[test]
    fn entropy_of_uniform_codes() {
        let errors: Vec<f64> = (0..4096).map(|i| (i % 16) as f64 - 7.5).collect();
        let s = sample_of(errors, PredictorKind::Regression);
        let h = EstimatedHistogram::build(&s, 0.5, 1 << 15);
        assert!((h.entropy() - 4.0).abs() < 0.01, "entropy {}", h.entropy());
    }

    #[test]
    fn nan_errors_escape() {
        let s = sample_of(vec![f64::NAN, 0.0, f64::INFINITY], PredictorKind::Regression);
        let h = EstimatedHistogram::build(&s, 1.0, 10);
        assert!((h.escape_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }
}
