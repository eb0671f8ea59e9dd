//! Differential oracle for the ratio-quality model's estimate path.
//!
//! `EstimatedHistogram` used to keep its bins in a `BTreeMap`, and the
//! model's two inversions (`error_bound_for_psnr`,
//! `error_bound_for_bit_rate`) always ran 100 bisection steps. Both were
//! reworked for speed under one promise: **every output bit stays the
//! same** — every `Estimate` field, every inverted bound, every planned
//! per-chunk bound and therefore every archive byte. This suite holds
//! that promise:
//!
//! * [`reference`] is a frozen copy of the `BTreeMap` histogram, the
//!   Eq. 1 bit-rate functions over it, the model's `estimate` formula and
//!   the 100-step bisections. It is a deliberate test twin — never change
//!   it to match the library;
//! * randomized error samples (every predictor family, so the Eq. 9 bin
//!   transfer is both on and off; reconstruction feedback; sparse
//!   fractions; NaN/±inf errors; zero weights; codes at exactly ±radius;
//!   radii 10, 256 and `DEFAULT_RADIUS`; bounds from 1e-12 to 1e3 × the
//!   sample's std) are run through both sides and compared with
//!   `to_bits`;
//! * the per-partition planners' bounds are pinned as `to_bits` values
//!   recorded with the `BTreeMap` build (x86_64 Linux, glibc libm), so a
//!   change anywhere under the planners that moves a bound shows up here.

use rqm::core_model::quality;
use rqm::core_model::ratio::{huffman_bit_rate, rle_ratio};
use rqm::core_model::usecases::{optimize_partitions_corrected, plan_budget, PlanCorrection};
use rqm::core_model::{ErrorSample, Estimate, EstimatedHistogram, RqModel};
use rqm::grid::Shape;
use rqm::predict::PredictorKind;
use rqm::quant::DEFAULT_RADIUS;

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
    use super::*;
    use std::collections::BTreeMap;

    /// `SPARSE_RESIDUAL_BITS` of the model, frozen.
    const SPARSE_RESIDUAL_BITS: f64 = 0.05;
    /// `BIN_TRANSFER_THRESHOLD` of the histogram, frozen.
    const BIN_TRANSFER_THRESHOLD: f64 = 0.8;

    /// The `BTreeMap` histogram, exactly as it was.
    pub struct RefHistogram {
        bins: BTreeMap<i32, f64>,
        total: f64,
        pub escape_mass: f64,
        pub central_bin_variance: f64,
    }

    impl RefHistogram {
        pub fn build(sample: &ErrorSample, eb: f64, radius: u32) -> Self {
            assert!(eb > 0.0 && eb.is_finite(), "invalid error bound {eb}");
            let mut bins: BTreeMap<i32, f64> = BTreeMap::new();
            let mut escape_mass = 0.0;
            let mut total = 0.0;
            let mut central_sum = 0.0;
            let mut central_sq = 0.0;
            let mut central_w = 0.0;
            let bin_width = 2.0 * eb;
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
                (acc - 2.0) / (1.0f64 / 3.0).sqrt()
            };
            for (&err, &w) in sample.errors.iter().zip(&sample.weights) {
                if !err.is_finite() {
                    escape_mass += w;
                    continue;
                }
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
                *bins.entry(code).or_insert(0.0) += w;
                total += w;
                if code == 0 {
                    central_sum += w * err;
                    central_sq += w * err * err;
                    central_w += w;
                }
            }
            let central_bin_variance = if central_w > 0.0 {
                let mean = central_sum / central_w;
                (central_sq / central_w - mean * mean).max(0.0)
            } else {
                0.0
            };
            let mut h = RefHistogram { bins, total, escape_mass, central_bin_variance };
            h.apply_bin_transfer(sample.predictor.bin_transfer_c2());
            h
        }

        fn apply_bin_transfer(&mut self, c2: f64) {
            if c2 == 0.0 || self.total == 0.0 || self.p0() < BIN_TRANSFER_THRESHOLD {
                return;
            }
            let p0 = self.p0();
            let frac = c2 * (1.0 - p0);
            if frac <= 0.0 {
                return;
            }
            let mut deltas: Vec<(i32, f64)> = Vec::with_capacity(self.bins.len() * 3);
            for (&code, &mass) in &self.bins {
                let moved = mass * frac;
                deltas.push((code, -moved));
                deltas.push((code - 1, moved / 2.0));
                deltas.push((code + 1, moved / 2.0));
            }
            for (code, d) in deltas {
                *self.bins.entry(code).or_insert(0.0) += d;
            }
            self.bins.retain(|_, m| *m > 1e-12);
        }

        pub fn p0(&self) -> f64 {
            if self.total == 0.0 {
                return 0.0;
            }
            self.bins.get(&0).copied().unwrap_or(0.0) / self.total
        }

        pub fn escape_fraction(&self) -> f64 {
            let all = self.total + self.escape_mass;
            if all == 0.0 {
                0.0
            } else {
                self.escape_mass / all
            }
        }

        pub fn probabilities(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
            let t = self.total.max(f64::MIN_POSITIVE);
            self.bins.iter().map(move |(&c, &m)| (c, m / t))
        }

        pub fn occupied_bins(&self) -> usize {
            self.bins.len()
        }

        pub fn entropy(&self) -> f64 {
            self.probabilities()
                .filter(|&(_, p)| p > 0.0)
                .map(|(_, p)| -p * p.log2())
                .sum()
        }
    }

    pub fn huffman_bit_rate(hist: &RefHistogram) -> f64 {
        let mut best_p = 0.0f64;
        let mut entropy_rest = 0.0f64;
        for (_, p) in hist.probabilities() {
            if p <= 0.0 {
                continue;
            }
            if p > best_p {
                if best_p > 0.0 {
                    entropy_rest += -best_p * best_p.log2();
                }
                best_p = p;
            } else {
                entropy_rest += -p * p.log2();
            }
        }
        if best_p == 0.0 {
            return 0.0;
        }
        entropy_rest + best_p * (-best_p.log2()).max(1.0)
    }

    pub fn huffman_bit_rate_sparse(hist: &RefHistogram, sparse_fraction: f64) -> f64 {
        let sf = sparse_fraction.clamp(0.0, 1.0);
        if sf == 0.0 {
            return huffman_bit_rate(hist);
        }
        let mut probs: Vec<f64> = Vec::with_capacity(hist.occupied_bins() + 1);
        let mut zero_p = sf;
        for (code, p) in hist.probabilities() {
            if code == 0 {
                zero_p += p * (1.0 - sf);
            } else if p > 0.0 {
                probs.push(p * (1.0 - sf));
            }
        }
        probs.push(zero_p);
        let best_p = probs.iter().cloned().fold(0.0f64, f64::max);
        let mut bits = 0.0;
        let mut clamped = false;
        for &p in &probs {
            if p <= 0.0 {
                continue;
            }
            let len = if p == best_p && !clamped {
                clamped = true;
                (-p.log2()).max(1.0)
            } else {
                -p.log2()
            };
            bits += p * len;
        }
        bits
    }

    /// The model's inputs: what `RqModel::from_sample` was given.
    pub struct RefModel {
        pub sample: ErrorSample,
        pub scalar_bits: u32,
        pub value_range: f64,
        pub data_variance: f64,
    }

    impl RefModel {
        pub fn estimate(&self, eb: f64) -> Estimate {
            let hist = RefHistogram::build(&self.sample, eb, DEFAULT_RADIUS);
            let sf = self.sample.sparse_fraction;
            let p0_dense = hist.p0();
            let p0 = sf + (1.0 - sf) * p0_dense;
            let b_dense = huffman_bit_rate(&hist);
            let b_comb = huffman_bit_rate_sparse(&hist, sf);
            let bits = self.scalar_bits as f64;

            let symbol_frac = 1.0 - self.sample.verbatim_fraction;
            let escape_frac = symbol_frac * (1.0 - sf) * hist.escape_fraction();
            let verbatim_bits = (self.sample.verbatim_fraction + escape_frac) * bits;
            let codebook_bits =
                hist.occupied_bins() as f64 * 8.0 / self.sample.n_elements as f64;
            let overhead_bits =
                verbatim_bits + self.sample.side_bits_per_element + codebook_bits;

            let bit_rate_huffman = symbol_frac * b_comb + overhead_bits;
            let rle = rle_ratio(p0_dense, b_dense.max(1e-9));
            let dense_overall = b_dense / rle;
            let payload_overall =
                symbol_frac * ((1.0 - sf) * dense_overall + sf * SPARSE_RESIDUAL_BITS);
            let bit_rate = payload_overall + overhead_bits;
            let ratio = bits / bit_rate.max(1e-12);

            let sigma2_uniform = quality::sigma2_uniform(eb);
            let g = self.sample.quality_kappa;
            let central = if g > 0.0 {
                let gain = 1.0 / (1.0 - g * p0_dense).max(0.05);
                (hist.central_bin_variance * gain).min(eb * eb / 3.0)
            } else {
                hist.central_bin_variance
            };
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

        /// The search interval, read through the library's (unchanged)
        /// `error_quantile`.
        fn eb_search_range(&self, model: &RqModel) -> (f64, f64) {
            let scale = model
                .error_quantile(0.9)
                .max(self.value_range * 1e-12)
                .max(f64::MIN_POSITIVE);
            (scale * 1e-9, (self.value_range.max(scale)) * 10.0)
        }

        pub fn error_bound_for_bit_rate(&self, model: &RqModel, target_bit_rate: f64) -> f64 {
            let (mut lo, mut hi) = self.eb_search_range(model);
            for _ in 0..100 {
                let mid = (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp();
                if self.estimate(mid).bit_rate > target_bit_rate {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (lo.ln() * 0.5 + hi.ln() * 0.5).exp()
        }

        pub fn error_bound_for_psnr(&self, model: &RqModel, target_db: f64) -> f64 {
            let (mut lo, mut hi) = self.eb_search_range(model);
            for _ in 0..100 {
                let mid = ((lo.ln() + hi.ln()) * 0.5).exp();
                if self.estimate(mid).psnr > target_db {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            ((lo.ln() + hi.ln()) * 0.5).exp()
        }
    }
}

use reference::{RefHistogram, RefModel};

// ---------------------------------------------------------------------------
// Randomized samples
// ---------------------------------------------------------------------------

const PREDICTORS: [PredictorKind; 5] = [
    PredictorKind::Lorenzo,
    PredictorKind::Lorenzo2,
    PredictorKind::Interpolation,
    PredictorKind::Regression,
    PredictorKind::TemporalDelta,
];

/// Error distributions the generator mixes.
#[derive(Clone, Copy, Debug)]
enum Dist {
    /// Laplacian-like: most mass near zero, long tails.
    Laplace,
    /// Mostly exact zeros with a few outliers: drives p0 past θ₂ so the
    /// Eq. 9 transfer runs.
    Spiky,
    /// Wide uniform: many distinct codes, wide code spans.
    Wide,
    /// Interpolation-like inverse-probability weights, some zero.
    Weighted,
}

/// A randomized error sample. `special` sprinkles NaN/±inf errors and
/// zero or near-zero weights in.
fn random_sample(
    seed: u64,
    n: usize,
    dist: Dist,
    predictor: PredictorKind,
    feedback_kappa: f64,
    sparse_fraction: f64,
    special: bool,
) -> ErrorSample {
    let mut st = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut errors = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let u = unit(&mut st);
        let e = match dist {
            Dist::Laplace => {
                let s = if unit(&mut st) < 0.5 { -1.0 } else { 1.0 };
                s * -(1.0 - u).ln() * 0.01
            }
            Dist::Spiky => {
                if u < 0.9 {
                    0.0
                } else {
                    (unit(&mut st) - 0.5) * 3.0
                }
            }
            Dist::Wide => (u - 0.5) * 1e4,
            Dist::Weighted => (u - 0.5) * (unit(&mut st) * 6.0).exp() * 1e-3,
        };
        errors.push(e);
        weights.push(match dist {
            Dist::Weighted => {
                if unit(&mut st) < 0.1 {
                    0.0
                } else {
                    1.0 / (unit(&mut st) * 0.9 + 0.1)
                }
            }
            _ => 1.0,
        });
    }
    if special {
        let len = errors.len();
        for k in 0..len / 50 {
            let i = (xorshift(&mut st) as usize) % len;
            errors[i] = match k % 3 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            // Zero and near-zero weights: the latter leave bins whose
            // transferred mass straddles the 1e-12 drop threshold.
            let j = (xorshift(&mut st) as usize) % len;
            weights[j] = if k % 2 == 0 { 0.0 } else { 3e-13 };
        }
    }
    ErrorSample {
        errors,
        weights,
        predictor,
        n_elements: n * 37 + 11,
        verbatim_fraction: if predictor == PredictorKind::Interpolation { 0.003 } else { 0.0 },
        side_bits_per_element: if predictor == PredictorKind::Regression { 0.4 } else { 0.0 },
        feedback_kappa,
        quality_kappa: if predictor == PredictorKind::Interpolation { 0.85 } else { 0.0 },
        sparse_fraction,
    }
}

/// Every sample configuration the oracle runs.
fn sample_matrix() -> Vec<ErrorSample> {
    let mut out = Vec::new();
    let mut seed = 1u64;
    for predictor in PREDICTORS {
        for dist in [Dist::Laplace, Dist::Spiky, Dist::Wide, Dist::Weighted] {
            for (kappa, sf, special) in
                [(0.0, 0.0, false), (0.9, 0.0, true), (0.0, 0.35, true), (1.2, 0.6, false)]
            {
                seed += 1;
                let n = 64 + (seed as usize * 131) % 1500;
                out.push(random_sample(seed, n, dist, predictor, kappa, sf, special));
            }
        }
    }
    // Degenerate samples: empty, all non-finite, all zero weights.
    let mut empty = random_sample(999, 0, Dist::Laplace, PredictorKind::Lorenzo, 0.0, 0.0, false);
    empty.sparse_fraction = 0.5;
    out.push(empty);
    let mut nonfinite =
        random_sample(998, 40, Dist::Laplace, PredictorKind::Interpolation, 0.0, 0.0, false);
    nonfinite.errors.iter_mut().enumerate().for_each(|(i, e)| {
        *e = if i % 2 == 0 { f64::NAN } else { f64::INFINITY }
    });
    out.push(nonfinite);
    let mut weightless =
        random_sample(997, 40, Dist::Spiky, PredictorKind::Lorenzo2, 0.5, 0.1, false);
    weightless.weights.iter_mut().for_each(|w| *w = 0.0);
    out.push(weightless);
    out
}

/// Log-spaced bounds from 1e-12 to 1e3 × the sample's std.
fn eb_ladder(sample: &ErrorSample) -> Vec<f64> {
    let std = sample.weighted_std();
    let std = if std.is_finite() && std > 0.0 { std } else { 1.0 };
    (0..=15).map(|i| std * 10f64.powi(i - 12)).collect()
}

fn assert_hist_eq(new: &EstimatedHistogram, old: &RefHistogram, ctx: &str) {
    assert_eq!(new.p0().to_bits(), old.p0().to_bits(), "p0 {ctx}");
    assert_eq!(
        new.escape_fraction().to_bits(),
        old.escape_fraction().to_bits(),
        "escape_fraction {ctx}"
    );
    assert_eq!(new.escape_mass.to_bits(), old.escape_mass.to_bits(), "escape_mass {ctx}");
    assert_eq!(
        new.central_bin_variance.to_bits(),
        old.central_bin_variance.to_bits(),
        "central_bin_variance {ctx}"
    );
    assert_eq!(new.occupied_bins(), old.occupied_bins(), "occupied_bins {ctx}");
    let a: Vec<(i32, u64)> = new.probabilities().map(|(c, p)| (c, p.to_bits())).collect();
    let b: Vec<(i32, u64)> = old.probabilities().map(|(c, p)| (c, p.to_bits())).collect();
    assert_eq!(a, b, "probabilities {ctx}");
    assert_eq!(new.entropy().to_bits(), old.entropy().to_bits(), "entropy {ctx}");
    assert_eq!(
        huffman_bit_rate(new).to_bits(),
        reference::huffman_bit_rate(old).to_bits(),
        "huffman_bit_rate {ctx}"
    );
}

fn estimate_bits(e: &Estimate) -> [u64; 11] {
    [
        e.eb.to_bits(),
        e.p0.to_bits(),
        e.escape_fraction.to_bits(),
        e.bit_rate_huffman.to_bits(),
        e.bit_rate.to_bits(),
        e.ratio.to_bits(),
        e.sigma2_uniform.to_bits(),
        e.sigma2.to_bits(),
        e.psnr.to_bits(),
        e.psnr_uniform.to_bits(),
        e.ssim.to_bits(),
    ]
}

fn model_pair(sample: &ErrorSample) -> (RqModel, RefModel) {
    let range = 7.25;
    let var = 1.5;
    let model = RqModel::from_sample(sample.clone(), 32, range, var);
    let oracle =
        RefModel { sample: sample.clone(), scalar_bits: 32, value_range: range, data_variance: var };
    (model, oracle)
}

#[test]
fn histogram_matches_btreemap_reference() {
    for (si, sample) in sample_matrix().iter().enumerate() {
        for radius in [10, 256, DEFAULT_RADIUS] {
            for eb in eb_ladder(sample) {
                let ctx = format!("sample {si} ({:?}) radius {radius} eb {eb:e}", sample.predictor);
                let new = EstimatedHistogram::build(sample, eb, radius);
                let old = RefHistogram::build(sample, eb, radius);
                assert_hist_eq(&new, &old, &ctx);
            }
        }
    }
}

#[test]
fn codes_at_exactly_the_radius_match_reference() {
    // Errors that quantize to exactly ±radius (kept) and ±(radius + 1)
    // (escaped), with the transfer spilling mass past the radius.
    for predictor in PREDICTORS {
        for radius in [10u32, 256, DEFAULT_RADIUS] {
            for eb in [1e-12, 0.37, 2.0] {
                let w = 2.0 * eb;
                let r = radius as f64;
                let mut errors = vec![0.0; 400];
                errors.extend([r * w, -r * w, (r + 1.0) * w, -(r + 1.0) * w, (r - 1.0) * w]);
                errors.extend([(r - 0.5) * w, -(r - 0.5) * w, (r + 0.49) * w]);
                let weights = (0..errors.len()).map(|i| if i % 7 == 3 { 0.0 } else { 1.0 }).collect();
                let sample = ErrorSample {
                    errors,
                    weights,
                    predictor,
                    n_elements: 5000,
                    verbatim_fraction: 0.0,
                    side_bits_per_element: 0.0,
                    feedback_kappa: 0.0,
                    quality_kappa: 0.0,
                    sparse_fraction: 0.0,
                };
                let ctx = format!("{predictor:?} radius {radius} eb {eb:e}");
                let new = EstimatedHistogram::build(&sample, eb, radius);
                let old = RefHistogram::build(&sample, eb, radius);
                assert_hist_eq(&new, &old, &ctx);
                assert!(new.probabilities().any(|(c, _)| c == radius as i32), "{ctx}");
            }
        }
    }
}

#[test]
fn estimates_match_reference_bit_for_bit() {
    for (si, sample) in sample_matrix().iter().enumerate() {
        let (model, oracle) = model_pair(sample);
        for eb in eb_ladder(sample) {
            let a = estimate_bits(&model.estimate(eb));
            let b = estimate_bits(&oracle.estimate(eb));
            assert_eq!(a, b, "sample {si} ({:?}) eb {eb:e}", sample.predictor);
        }
    }
}

#[test]
fn inversions_match_hundred_step_bisections() {
    for (si, sample) in sample_matrix().iter().enumerate().step_by(3) {
        let (model, oracle) = model_pair(sample);
        // Targets inside the curve (read off the oracle) and beyond both
        // of its ends.
        let ladder = eb_ladder(sample);
        let mut psnrs: Vec<f64> =
            [4, 9, 13].iter().map(|&i| oracle.estimate(ladder[i]).psnr).collect();
        psnrs.extend([1e4, -1e4, f64::NAN]);
        let mut rates: Vec<f64> =
            [4, 9, 13].iter().map(|&i| oracle.estimate(ladder[i]).bit_rate).collect();
        rates.extend([0.0, 1e3, 0.3]);
        for t in psnrs {
            assert_eq!(
                model.error_bound_for_psnr(t).to_bits(),
                oracle.error_bound_for_psnr(&model, t).to_bits(),
                "sample {si} psnr target {t}"
            );
        }
        for t in rates {
            assert_eq!(
                model.error_bound_for_bit_rate(t).to_bits(),
                oracle.error_bound_for_bit_rate(&model, t).to_bits(),
                "sample {si} bit-rate target {t}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned planner output
// ---------------------------------------------------------------------------

/// Deterministic axis-0 partitions of a 2-D field with quiet, loud and
/// exactly-zero stretches: what the quality-targeted CLI hands the
/// planners (one strided model per chunk).
fn plan_inputs(predictor: PredictorKind) -> (Vec<RqModel>, Vec<usize>, f64) {
    let (rows, cols, parts) = (8usize, 256usize, 6usize);
    let mut st = 0x005E_ED0F_91A7u64;
    let mut models = Vec::new();
    let mut sizes = Vec::new();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in 0..parts {
        let amp = 0.002 * 5f64.powi(p as i32 % 4);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let (r, c) = ((p * rows + i / cols) as f64, (i % cols) as f64);
                if p == 2 && c < 96.0 {
                    return 0.0;
                }
                let smooth = (r * 0.11).sin() * 2.0 + (c * 0.05).cos();
                (smooth + (unit(&mut st) - 0.5) * amp) as f32
            })
            .collect();
        for &v in &data {
            lo = lo.min(v as f64);
            hi = hi.max(v as f64);
        }
        models.push(RqModel::build_strided(&data, Shape::d2(rows, cols), predictor, 1024));
        sizes.push(data.len());
    }
    (models, sizes, hi - lo)
}

fn bits_of(ebs: &[f64]) -> Vec<u64> {
    ebs.iter().map(|e| e.to_bits()).collect()
}

#[test]
fn planned_bounds_are_pinned() {
    let mut got: Vec<(String, Vec<u64>)> = Vec::new();
    for predictor in [PredictorKind::Interpolation, PredictorKind::Lorenzo] {
        let (models, sizes, range) = plan_inputs(predictor);
        let name = predictor.name();
        let plan = optimize_partitions_corrected(&models, &sizes, range, 62.0, 32, None).unwrap();
        got.push((format!("{name}/psnr"), bits_of(&plan.ebs)));
        let correction = PlanCorrection {
            sigma_scale: vec![1.4, 0.7, 1.0, 2.5, 0.9, 1.1],
            bits_scale: vec![0.8, 1.2, 1.0, 0.6, 1.3, 1.05],
        };
        let plan =
            optimize_partitions_corrected(&models, &sizes, range, 62.0, 32, Some(&correction))
                .unwrap();
        got.push((format!("{name}/psnr+correction"), bits_of(&plan.ebs)));
        let n: usize = sizes.iter().sum();
        let plan = plan_budget(&models, &sizes, range, n * 3 / 8, 0.2, 32).unwrap();
        got.push((format!("{name}/budget"), bits_of(&plan.ebs)));
    }
    let pinned: &[(&str, [u64; 6])] = PINNED_EBS;
    assert_eq!(got.len(), pinned.len());
    for ((name, bits), (pname, pbits)) in got.iter().zip(pinned) {
        assert_eq!(name, pname);
        assert_eq!(bits.as_slice(), pbits.as_slice(), "{name}: planned bounds moved");
    }
}

/// `to_bits` of every planned bound, recorded with the `BTreeMap`
/// histogram and 100-step bisections.
const PINNED_EBS: &[(&str, [u64; 6])] = &[
    (
        "interpolation/psnr",
        [
            4581605372910515245, 4576167636197203424, 4576271460329420969,
            4576227525886277553, 4575712890834048316, 4572734584092829620,
        ],
    ),
    (
        "interpolation/psnr+correction",
        [
            4574028000603157885, 4576955967500372945, 4576271460117978540,
            4576227525886277553, 4575712891180758684, 4572734584092829620,
        ],
    ),
    (
        "interpolation/budget",
        [
            4569662971828856792, 4575086933553974631, 4579812578677810963,
            4578464294039683839, 4573609664090556744, 4575683266136115900,
        ],
    ),
    (
        "lorenzo/psnr",
        [
            4580873107241748005, 4573563351513186113, 4576471153605450558,
            4576239307751415833, 4576387448626210030, 4572980198082181343,
        ],
    ),
    (
        "lorenzo/psnr+correction",
        [
            4576220433539667276, 4575126531113043971, 4576465128214190689,
            4575957690143674057, 4576387448626210030, 4572980198082181343,
        ],
    ),
    (
        "lorenzo/budget",
        [
            4575800434606817219, 4573572838185427362, 4578402021836683169,
            4577269397032720239, 4576352508752336764, 4574582499100040117,
        ],
    ),
];
