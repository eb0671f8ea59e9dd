//! Differential oracle for the `auto` codec scheduler's estimates.
//!
//! `PredictionSample::estimate` used to keep quantization codes beyond
//! ±512 in a `BTreeMap`, and the scheduler's ROLZ probe ran the whole
//! ROLZ chunk codec (statistics, histogram, blob) to read one length.
//! Both were reworked for speed under one promise: **every decision and
//! every estimate bit stays the same**, and with them every archive byte
//! `--codec auto` writes. This suite holds that promise:
//!
//! * [`reference::estimate`] is a frozen copy of the `BTreeMap`
//!   estimate. It is a deliberate test twin — never change it to match
//!   the library. Hand-built samples (codes beyond ±512, escapes at
//!   radius 256 and `DEFAULT_RADIUS`, the entropy-saturation regime,
//!   NaN/±inf errors, an empty sample) and strided samples of real
//!   fields for every predictor family run through both sides and are
//!   compared with `to_bits`;
//! * `choose_codec` decisions and all three estimates on 8-row chunks of
//!   Gaussian random fields (the end-to-end benchmark's case: the
//!   interpolation predictor at a relative bound of 3e-6) and on a few
//!   other predictors and shapes are pinned as `to_bits` values recorded
//!   before the rework (x86_64 Linux, glibc libm).

use rqm::compress_crate::scheduler::{estimate_rolz_bits, estimate_sz_bits, estimate_zfp_bits};
use rqm::compress_crate::{choose_codec, ChunkCodecKind};
use rqm::datagen;
use rqm::grid::{NdArray, Shape};
use rqm::predict::{sample_prediction_errors, PredictionSample, PredictorKind};
use rqm::quant::DEFAULT_RADIUS;

/// Frozen copy of the `BTreeMap` sampled estimate.
mod reference {
    use rqm::predict::{PredictionSample, SampledEstimate};
    use rqm::quant::LinearQuantizer;

    pub fn estimate(s: &PredictionSample, eb: f64, radius: u32, scalar_bits: u32) -> SampledEstimate {
        let q = LinearQuantizer::new(eb, radius);
        let n = s.errors.len();
        if n == 0 {
            return SampledEstimate {
                bits_per_value: s.verbatim_fraction * scalar_bits as f64
                    + s.side_bits_per_element,
                escape_fraction: 0.0,
                p0: 1.0,
                n_samples: 0,
            };
        }
        const CENTER: usize = 512;
        let mut center = [0u64; 2 * CENTER + 1];
        let mut tail: std::collections::BTreeMap<i32, u64> = std::collections::BTreeMap::new();
        let mut escapes = 0u64;
        let (mut code_min, mut code_max) = (i64::MAX, i64::MIN);
        let (mut code_sum, mut code_sumsq) = (0.0f64, 0.0f64);
        for &e in &s.errors {
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
                        *tail.entry(code).or_insert(0) += 1;
                    }
                }
            }
        }
        let n_quantized = n as u64 - escapes;
        let p0 = center[CENTER] as f64 / n as f64;
        let escape_fraction = escapes as f64 / n as f64;
        let total = n as f64;
        let mut entropy = 0.0f64;
        let mut occupied = 0usize;
        for &cnt in center.iter().chain(tail.values()) {
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
        let mut occupied_full = occupied as f64;
        if n_quantized > 0 && occupied > 64 && occupied as f64 >= 0.25 * n_quantized as f64 {
            let nq = n_quantized as f64;
            let mean = code_sum / nq;
            let var = (code_sumsq / nq - mean * mean).max(0.0) + 1.0 / 12.0;
            let spread = (code_max - code_min + 1).max(2) as f64;
            let h_gauss = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * var).log2();
            let h_param = h_gauss.min(spread.log2());
            entropy = entropy.max(h_param.min((q.alphabet_size() as f64 + 1.0).log2()));
            let slab_symbols = (1.0 - s.verbatim_fraction) * s.n_elements as f64;
            occupied_full = occupied_full.max(spread.min(slab_symbols));
        }
        let codebook_bits = occupied_full * 8.0 / s.n_elements.max(1) as f64;
        let symbol_fraction = 1.0 - s.verbatim_fraction;
        let bits_per_value = symbol_fraction * (entropy + escape_fraction * scalar_bits as f64)
            + s.verbatim_fraction * scalar_bits as f64
            + codebook_bits
            + s.side_bits_per_element;
        SampledEstimate { bits_per_value, escape_fraction, p0, n_samples: n }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn hand_sample(errors: Vec<f64>, n_elements: usize, verbatim: f64, side: f64) -> PredictionSample {
    PredictionSample {
        errors,
        predictor: PredictorKind::Lorenzo,
        ndim: 2,
        n_elements,
        verbatim_fraction: verbatim,
        side_bits_per_element: side,
        sparse_count: 0,
    }
}

fn assert_same(s: &PredictionSample, eb: f64, radius: u32, scalar_bits: u32, what: &str) {
    let got = s.estimate(eb, radius, scalar_bits);
    let want = reference::estimate(s, eb, radius, scalar_bits);
    assert_eq!(
        got.bits_per_value.to_bits(),
        want.bits_per_value.to_bits(),
        "{what} eb {eb:e} radius {radius}: bits {} vs {}",
        got.bits_per_value,
        want.bits_per_value
    );
    assert_eq!(got.escape_fraction.to_bits(), want.escape_fraction.to_bits(), "{what} escapes");
    assert_eq!(got.p0.to_bits(), want.p0.to_bits(), "{what} p0");
    assert_eq!(got.n_samples, want.n_samples, "{what} n");
}

#[test]
fn estimate_matches_frozen_btreemap_twin_on_hand_built_samples() {
    let mut st = 0x5C4E_D00D_2024_0001u64;
    let eb = 1e-3;
    let mut cases: Vec<(&str, PredictionSample)> = Vec::new();
    // Codes spread far beyond ±512 on both sides, with a dense center:
    // the tail bins and the center bins both contribute to the entropy.
    let wide: Vec<f64> = (0..3000)
        .map(|i| if i % 3 == 0 { unit(&mut st) * 2e-2 } else { unit(&mut st) * 8.0 })
        .collect();
    cases.push(("beyond ±512", hand_sample(wide, 40_000, 0.0, 0.0)));
    // Repeated tail codes (runs longer than one), only positive, only
    // negative.
    let runs: Vec<f64> = (0..2000)
        .map(|i| (600 + (i % 7) * 50) as f64 * 2.0 * eb * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    cases.push(("repeated tail codes", hand_sample(runs, 8192, 0.0, 0.0)));
    let positive: Vec<f64> = (0..1500).map(|i| (513 + i % 300) as f64 * 2.0 * eb).collect();
    cases.push(("positive tail only", hand_sample(positive, 8192, 0.05, 0.0)));
    let negative: Vec<f64> = (0..1500).map(|i| -((513 + i % 40) as f64) * 2.0 * eb).collect();
    cases.push(("negative tail only", hand_sample(negative, 8192, 0.0, 1.5)));
    // Codes at exactly ±512 and ±513 (the center/tail boundary).
    let edge: Vec<f64> = [-513.0, -512.0, 512.0, 513.0, 0.0, 1.0]
        .iter()
        .cycle()
        .take(600)
        .map(|c| c * 2.0 * eb)
        .collect();
    cases.push(("center/tail edge", hand_sample(edge, 4096, 0.0, 0.0)));
    // Saturation regime: nearly every sample its own bin (> 64 occupied
    // bins and ≥ 25 % of the quantized samples), with some escapes.
    let saturated: Vec<f64> = (0..2048).map(|_| unit(&mut st) * 300.0).collect();
    cases.push(("saturated", hand_sample(saturated, 32_768, 0.03, 0.0)));
    let saturated_small: Vec<f64> = (0..80).map(|i| (i as f64 * 37.0 - 1500.0) * 2.0 * eb).collect();
    cases.push(("saturated, 80 samples", hand_sample(saturated_small, 100, 0.0, 0.0)));
    // Non-finite errors escape.
    let mut non_finite: Vec<f64> = (0..500).map(|_| unit(&mut st) * 0.5).collect();
    non_finite.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    cases.push(("non-finite", hand_sample(non_finite, 8192, 0.0, 0.0)));
    // Everything escapes; nothing escapes; a single point.
    cases.push(("all escape", hand_sample(vec![1e9; 300], 8192, 0.0, 0.0)));
    cases.push(("all zero", hand_sample(vec![0.0; 300], 8192, 0.0, 0.0)));
    cases.push(("one point", hand_sample(vec![3.3], 1, 0.0, 0.0)));
    // An empty sample, with and without NaN side bookkeeping.
    cases.push(("empty", hand_sample(Vec::new(), 0, 0.0, 0.0)));
    cases.push(("empty, NaN side", hand_sample(Vec::new(), 0, 0.0, f64::NAN)));
    cases.push(("empty, anchors", hand_sample(Vec::new(), 64, 0.25, 0.0)));

    for (what, s) in &cases {
        for radius in [256, DEFAULT_RADIUS] {
            for scalar_bits in [32, 64] {
                for eb in [eb, 1e-5, 0.5] {
                    assert_same(s, eb, radius, scalar_bits, what);
                }
            }
        }
    }
}

#[test]
fn estimate_matches_frozen_btreemap_twin_on_field_samples() {
    let mut rng = datagen::rng::seeded(77);
    let smooth = datagen::grf::grf_2d([32, 256], 3.5, &mut rng);
    let rough = datagen::grf::grf_3d([16, 32, 32], 0.5, &mut rng);
    for (name, a) in [("smooth", smooth), ("rough", rough)] {
        let range = a.as_slice().iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
            - a.as_slice().iter().fold(f64::INFINITY, |m, &v| m.min(v));
        for predictor in PredictorKind::all() {
            for target in [64, 2048, 1 << 20] {
                let s = sample_prediction_errors(a.as_slice(), a.shape(), predictor, target);
                for rel in [1e-7, 3e-6, 1e-4, 1e-2] {
                    for radius in [256, DEFAULT_RADIUS] {
                        assert_same(&s, rel * range, radius, 32, &format!("{name} {predictor:?} {target}"));
                    }
                }
            }
        }
    }
}

/// 8-row chunks of a field, each as its own slab.
fn chunks_of(a: &NdArray<f32>) -> Vec<(Shape, Vec<f32>)> {
    let shape = a.shape();
    let row: usize = shape.dims()[1..].iter().product();
    let mut dims = shape.dims().to_vec();
    dims[0] = 8;
    let cs = Shape::new(&dims);
    (0..shape.dim(0) / 8)
        .map(|c| (cs, a.as_slice()[c * 8 * row..(c + 1) * 8 * row].to_vec()))
        .collect()
}

fn f32_of(a: NdArray<f64>) -> NdArray<f32> {
    let shape = a.shape();
    NdArray::from_vec(shape, a.into_vec().into_iter().map(|v| v as f32).collect())
}

fn range_of(d: &[f32]) -> f64 {
    let (lo, hi) = d
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v as f64), h.max(v as f64)));
    hi - lo
}

/// One pinned decision: codec tag and the `to_bits` of the SZ, ZFP and
/// ROLZ estimates.
type Pin = (u8, u64, u64, u64);

fn decide(
    cases: &mut Vec<(String, Pin)>,
    name: String,
    data: &[f32],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
) {
    let d = choose_codec(data, shape, predictor, eb, radius);
    // The public single-codec estimators agree with the scheduler.
    assert_eq!(estimate_sz_bits(data, shape, predictor, eb, radius).to_bits(), d.sz_bits.to_bits());
    assert_eq!(estimate_zfp_bits(data, shape, eb).to_bits(), d.zfp_bits.to_bits());
    assert_eq!(
        estimate_rolz_bits(data, shape, predictor, eb, radius).to_bits(),
        d.rolz_bits.to_bits()
    );
    cases.push((name, (d.codec.tag(), d.sz_bits.to_bits(), d.zfp_bits.to_bits(), d.rolz_bits.to_bits())));
}

#[test]
fn choose_codec_decisions_and_estimates_are_pinned() {
    let mut cases = Vec::new();
    let mut rng = datagen::rng::seeded(1);
    let fields = [
        ("grf_2d 3.5", f32_of(datagen::grf::grf_2d([16, 1024], 3.5, &mut rng))),
        ("grf_2d 0.5", f32_of(datagen::grf::grf_2d([16, 1024], 0.5, &mut rng))),
        ("grf_3d 3.5", f32_of(datagen::grf::grf_3d([16, 64, 64], 3.5, &mut rng))),
        ("grf_3d 1.0", f32_of(datagen::grf::grf_3d([16, 64, 64], 1.0, &mut rng))),
        ("grf_3d 0.5", f32_of(datagen::grf::grf_3d([16, 64, 64], 0.5, &mut rng))),
        ("mixed", datagen::fields::mixed_smooth_turbulent(Shape::d3(16, 64, 64), 8, 40.0)),
    ];
    for (name, a) in &fields {
        let eb = 3e-6 * range_of(a.as_slice());
        for (c, (shape, data)) in chunks_of(a).iter().enumerate() {
            let label = format!("{name} chunk {c}");
            decide(&mut cases, label, data, *shape, PredictorKind::Interpolation, eb, DEFAULT_RADIUS);
        }
    }
    // Other predictors, bounds and radii on the first 2D chunk; whole-slab
    // probes (a slab within the probe budget).
    let (shape, data) = &chunks_of(&fields[1].1)[0];
    let range = range_of(data);
    for predictor in [PredictorKind::Lorenzo, PredictorKind::Regression] {
        for (rel, radius) in [(1e-4, DEFAULT_RADIUS), (1e-6, 256)] {
            let label = format!("grf_2d 0.5 {predictor:?} rel {rel:e} radius {radius}");
            decide(&mut cases, label, data, *shape, predictor, rel * range, radius);
        }
    }
    let small = Shape::d2(8, 256);
    let label = "grf_2d 0.5 whole-slab".to_string();
    decide(&mut cases, label, &data[..small.len()], small, PredictorKind::Interpolation, 3e-6 * range, DEFAULT_RADIUS);

    let got: Vec<Pin> = cases.iter().map(|(_, p)| *p).collect();
    if got != PINNED {
        for ((name, p), want) in cases.iter().zip(PINNED.iter().chain(std::iter::repeat(&(9, 0, 0, 0)))) {
            let mark = if p == want { " " } else { "!" };
            println!("{mark} ({}, {:#018x}, {:#018x}, {:#018x}), // {name}", p.0, p.1, p.2, p.3);
        }
        panic!("scheduler decisions or estimates moved (see the table above)");
    }
    // The pins cover all three codecs.
    for kind in [ChunkCodecKind::Sz, ChunkCodecKind::Zfp, ChunkCodecKind::Rolz] {
        assert!(got.iter().any(|p| p.0 == kind.tag()), "no {kind:?} pick among the pins");
    }
}

/// Recorded with the `BTreeMap` estimate and the whole-codec ROLZ probe.
#[rustfmt::skip]
const PINNED: [Pin; 17] = [
    (2, 0x40375f5bbebf5a8b, 0x4033780000000000, 0x402d76aaaaaaaaab), // grf_2d 3.5 chunk 0
    (2, 0x403863569c73dde8, 0x4033c35555555555, 0x402ef80000000000), // grf_2d 3.5 chunk 1
    (1, 0x403c5ebc05b9a6de, 0x40373f5555555555, 0x40386c0000000000), // grf_2d 0.5 chunk 0
    (1, 0x403c21294909bca4, 0x4037315555555555, 0x403866aaaaaaaaab), // grf_2d 0.5 chunk 1
    (2, 0x4037293547e59228, 0x4036f6aaaaaaaaab, 0x4033400000000000), // grf_3d 3.5 chunk 0
    (2, 0x40373e91aabaa430, 0x4036f15555555555, 0x40332d5555555555), // grf_3d 3.5 chunk 1
    (1, 0x403cb384c81d0e69, 0x4038755555555555, 0x4038c4aaaaaaaaab), // grf_3d 1.0 chunk 0
    (1, 0x403c1fb91cda17e2, 0x40386b5555555555, 0x4038d95555555555), // grf_3d 1.0 chunk 1
    (1, 0x403d4eb24e1fda85, 0x4038800000000000, 0x40392c0000000000), // grf_3d 0.5 chunk 0
    (1, 0x403dea6365bfa721, 0x4038800000000000, 0x4039800000000000), // grf_3d 0.5 chunk 1
    (0, 0x3ffbaf2dfe2fa967, 0x400ecaaaaaaaaaab, 0x4005c55555555555), // mixed chunk 0
    (1, 0x4045d94109cef5c3, 0x4039f35555555555, 0x4040395555555555), // mixed chunk 1
    (2, 0x4031cd10763e5c48, 0x40323f5555555555, 0x402e82aaaaaaaaab), // grf_2d 0.5 Lorenzo rel 1e-4 radius 32768
    (1, 0x403ffd2520130fb9, 0x40383f5555555555, 0x4040245555555555), // grf_2d 0.5 Lorenzo rel 1e-6 radius 256
    (0, 0x4030dac0ccbd2e6a, 0x40323f5555555555, 0x4032815555555555), // grf_2d 0.5 Regression rel 1e-4 radius 32768
    (1, 0x40414d109fc67b00, 0x40383f5555555555, 0x404234aaaaaaaaab), // grf_2d 0.5 Regression rel 1e-6 radius 256
    (1, 0x403cec3303e2ca48, 0x4037220000000000, 0x4038400000000000), // grf_2d 0.5 whole-slab
];
