//! Error-bound conformance suite.
//!
//! The single contract every configuration of this compressor makes is
//! `max|x − x′| ≤ eb` after a round trip. This suite sweeps the full
//! configuration cross product — codec (sz, zfp, rolz, auto) × error-bound
//! mode (absolute, value-range-relative, point-wise relative) × three
//! datagen stand-in fields × chunk counts (1 and N) — and asserts the
//! bound on every element. Runs as part of `cargo test`; CI runs it in
//! both debug and release profiles.
//!
//! A second, property-style family covers the random-access contract of
//! the streaming reader: for every container generation (v1 through v2.4)
//! and both scalar types, `ArchiveReader::read_rows(r)` must equal
//! the matching rows of a full `decompress` *exactly* for randomly drawn
//! row ranges, while decoding only the chunks that intersect `r`.
//!
//! A non-finite input axis covers NaN and ±inf: the codecs with a
//! verbatim path keep them bit-exact and `zfp` refuses them.
//!
//! Fields are cropped from the datagen generators so the whole matrix
//! stays fast enough for debug CI while keeping each generator's
//! statistical character.

use rqm::compress_crate::{ArchiveWriter, DecompressError};
use rqm::prelude::*;
use std::io::Cursor;

/// The three datagen stand-ins (cropped), chosen for diversity: smooth 2D
/// climate, vortex + turbulence 3D, heavy-tailed log-normal 3D.
fn fields() -> Vec<(&'static str, NdArray<f32>)> {
    vec![
        (
            "cesm_ts",
            rqm::datagen::fields::cesm_ts().extract_block(&[0, 0], &[48, 96]),
        ),
        (
            "hurricane_u",
            rqm::datagen::fields::hurricane_u().extract_block(&[0, 40, 40], &[20, 32, 32]),
        ),
        (
            "nyx_dark_matter",
            rqm::datagen::fields::nyx_dark_matter().extract_block(&[0, 0, 0], &[24, 24, 24]),
        ),
    ]
}

/// Chunkings for "1 chunk" and "N chunks" (N > 1 for every test field).
fn chunkings(d0: usize) -> [usize; 2] {
    [d0, (d0 / 3).max(1)]
}

fn max_abs_err(orig: &NdArray<f32>, recon: &NdArray<f32>) -> f64 {
    orig.as_slice()
        .iter()
        .zip(recon.as_slice())
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .fold(0.0, f64::max)
}

/// One conformance case: compress, decompress, assert the absolute bound.
fn assert_conforms(
    name: &str,
    field: &NdArray<f32>,
    codec: CodecChoice,
    bound: ErrorBoundMode,
    chunk_rows: usize,
) {
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, bound)
        .chunked(chunk_rows)
        .with_codec(codec)
        .with_threads(2);
    let out = compress(field, &cfg)
        .unwrap_or_else(|e| panic!("{name}: compress failed for {codec:?}/{bound:?}: {e}"));
    let back = decompress::<f32>(&out.bytes)
        .unwrap_or_else(|e| panic!("{name}: decompress failed for {codec:?}/{bound:?}: {e}"));
    let abs_eb = bound.absolute(field.value_range());
    let err = max_abs_err(field, &back);
    assert!(
        err <= abs_eb * (1.0 + 1e-6),
        "{name} {codec:?} {bound:?} rows={chunk_rows}: max err {err:.6e} > eb {abs_eb:.6e}"
    );
}

#[test]
fn absolute_bound_all_codecs_all_fields() {
    for (name, field) in &fields() {
        let eb = field.value_range() * 1e-3;
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            for rows in chunkings(field.shape().dim(0)) {
                assert_conforms(name, field, codec, ErrorBoundMode::Abs(eb), rows);
            }
        }
    }
}

#[test]
fn value_range_relative_bound_all_codecs_all_fields() {
    for (name, field) in &fields() {
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            for rows in chunkings(field.shape().dim(0)) {
                assert_conforms(
                    name,
                    field,
                    codec,
                    ErrorBoundMode::ValueRangeRelative(1e-4),
                    rows,
                );
            }
        }
    }
}

#[test]
fn pointwise_relative_bound_sz_and_auto() {
    // The transform codec cannot realize the log-domain trick; `auto`
    // must fall back to sz chunks, and pure `zfp` must refuse (checked in
    // the next test). Point-wise relative data must be positive-friendly,
    // so shift each field above zero.
    let ratio = 1e-3;
    for (name, field) in &fields() {
        let (lo, _) = field.min_max();
        let shift = (1.0 - lo).max(0.0) as f32;
        let shifted = NdArray::from_vec(
            field.shape(),
            field.as_slice().iter().map(|&v| v + shift).collect(),
        );
        for codec in [CodecChoice::Sz, CodecChoice::Rolz, CodecChoice::Auto] {
            for rows in chunkings(shifted.shape().dim(0)) {
                let cfg = CompressorConfig::new(
                    PredictorKind::Lorenzo,
                    ErrorBoundMode::PointwiseRelative(ratio),
                )
                .chunked(rows)
                .with_codec(codec)
                .with_threads(2);
                let out = compress(&shifted, &cfg).unwrap();
                let back = decompress::<f32>(&out.bytes).unwrap();
                for (i, (&a, &b)) in
                    shifted.as_slice().iter().zip(back.as_slice()).enumerate()
                {
                    if a <= 0.0 {
                        assert_eq!(a, b, "{name}: non-positive values must be exact");
                    } else {
                        let rel = ((a - b).abs() as f64) / (a.abs() as f64);
                        assert!(
                            rel <= ratio * (1.0 + 1e-5),
                            "{name} {codec:?} rows={rows} element {i}: rel err {rel:.3e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pointwise_relative_bound_zfp_refuses() {
    let field = rqm::datagen::fields::cesm_ts().extract_block(&[0, 0], &[16, 32]);
    let cfg = CompressorConfig::new(
        PredictorKind::Lorenzo,
        ErrorBoundMode::PointwiseRelative(1e-3),
    )
    .chunked(4)
    .with_codec(CodecChoice::Zfp);
    assert!(
        compress(&field, &cfg).is_err(),
        "zfp codec must refuse point-wise relative bounds rather than miss them"
    );
}

#[test]
fn non_finite_inputs_exact_or_refused() {
    // The non-finite input axis: sz, rolz and auto keep NaN (payload
    // included) and ±inf bit-exact and hold the bound on every finite
    // element; zfp, which has no verbatim path, refuses the input instead
    // of decoding those values as unrelated finite numbers. The extra
    // noise slab is one `auto` hands to zfp when it is clean.
    let mut s = 0xF1_4173u64;
    let noise = NdArray::<f32>::from_fn(Shape::d2(16, 1024), |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32 * 50.0
    });
    let mut cases = fields();
    cases.push(("noise", noise));
    let payload_nan = f32::from_bits(0x7fc0_1234);
    for (name, clean) in &cases {
        let eb = if *name == "noise" { 1e-4 } else { clean.value_range() * 1e-3 };
        let mut field = clean.clone();
        let n = field.len();
        let bad = [(n / 7, payload_nan), (n / 2, f32::INFINITY), (n - 3, f32::NEG_INFINITY)];
        for (i, v) in bad {
            field.as_mut_slice()[i] = v;
        }
        let row_len = n / field.shape().dim(0);
        for rows in chunkings(field.shape().dim(0)) {
            for codec in [CodecChoice::Sz, CodecChoice::Rolz, CodecChoice::Auto] {
                let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
                    .chunked(rows)
                    .with_codec(codec)
                    .with_threads(2);
                let (out, rep) = compress_with_report(&field, &cfg)
                    .unwrap_or_else(|e| panic!("{name} {codec:?} rows={rows}: {e}"));
                let back = decompress::<f32>(&out.bytes).unwrap();
                for (i, (&a, &b)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
                    if a.is_finite() {
                        assert!(
                            (a as f64 - b as f64).abs() <= eb * (1.0 + 1e-6),
                            "{name} {codec:?} rows={rows} element {i}: {a} vs {b}"
                        );
                    } else {
                        let what = format!("{name} {codec:?} rows={rows} element {i}");
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                    }
                }
                if codec == CodecChoice::Auto {
                    for (i, _) in bad {
                        let chunk = i / row_len / rows;
                        let codec = rep.chunk_codecs[chunk];
                        assert_ne!(codec, ChunkCodecKind::Zfp, "{name} rows={rows}");
                    }
                    if *name == "noise" && rep.n_chunks > bad.len() {
                        let zfp = rep.chunk_codecs.contains(&ChunkCodecKind::Zfp);
                        assert!(zfp, "{name} rows={rows}: clean chunks should pick zfp");
                    }
                }
            }
            let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
                .chunked(rows)
                .with_codec(CodecChoice::Zfp);
            assert!(compress(&field, &cfg).is_err(), "{name} rows={rows}: zfp must refuse");
        }
    }
}

#[test]
fn conformance_across_predictors_auto_codec() {
    // The scheduler's sz estimates are predictor-aware; whatever it
    // picks, the bound must hold for every predictor family.
    let field = rqm::datagen::fields::hurricane_u().extract_block(&[0, 48, 48], &[12, 24, 24]);
    let eb = field.value_range() * 1e-4;
    for pred in PredictorKind::all() {
        let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb))
            .chunked(4)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let err = max_abs_err(&field, &back);
        assert!(
            err <= eb * (1.0 + 1e-6),
            "{}: max err {err:.6e} > eb {eb:.6e}",
            pred.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Random-access region reads: ArchiveReader::read_rows vs full decompress
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* stream for drawing row ranges.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A deterministic mixed-texture field of any scalar type: smooth waves
/// plus hash noise, so sz and zfp both appear under `CodecChoice::Auto`.
fn textured<T: rqm::grid::Scalar>(shape: Shape) -> NdArray<T> {
    let mut lin = 0u64;
    NdArray::from_fn(shape, |ix| {
        let mut v = 0.0f64;
        for (a, &c) in ix.iter().enumerate() {
            v += ((c as f64) * 0.21 * (a + 1) as f64).sin() * (6.0 / (a + 1) as f64);
        }
        lin += 1;
        let mut h = lin;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        // Rough second half along axis 0, like the mixed datagen field.
        let amp = if ix[0] * 2 >= 16 { 30.0 } else { 0.02 };
        v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * amp;
        T::from_f64(v)
    })
}

/// Build one archive of each container generation for `field`.
fn archives_of_all_generations<T: rqm::grid::Scalar>(
    field: &NdArray<T>,
    eb: f64,
) -> Vec<(&'static str, Vec<u8>)> {
    // Fixed-codec configs keep the historical generations on their
    // historical version bytes; the adaptive policies moved to v2.4.
    let serial = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
    let chunked = serial.chunked(5).with_threads(2);
    let zfp = chunked.with_codec(CodecChoice::Zfp);
    let auto = chunked.with_codec(CodecChoice::Auto);
    let v1 = rqm::compress_crate::compress(field, &serial).unwrap().bytes;
    let v2 = rqm::compress_crate::compress(field, &chunked).unwrap().bytes;
    let v21 = rqm::compress_crate::compress(field, &zfp).unwrap().bytes;
    assert_eq!(rqm::compress_crate::peek_header(&v21).unwrap().version, 3);
    // v2.2 through the streaming writer, slabs misaligned with chunks.
    let mut w = ArchiveWriter::<T, Vec<u8>>::create(Vec::new(), field.shape(), &zfp).unwrap();
    let row_elems: usize = field.shape().dims()[1..].iter().product::<usize>().max(1);
    let d0 = field.shape().dim(0);
    let mut row = 0usize;
    while row < d0 {
        let rows = 7.min(d0 - row);
        let mut dims = [0usize; rqm::grid::MAX_DIMS];
        dims[..field.shape().ndim()].copy_from_slice(field.shape().dims());
        dims[0] = rows;
        let slab = NdArray::from_vec(
            Shape::new(&dims[..field.shape().ndim()]),
            field.as_slice()[row * row_elems..(row + rows) * row_elems].to_vec(),
        );
        w.write_slab(&slab).unwrap();
        row += rows;
    }
    let v22 = w.finalize().unwrap().sink;
    assert_eq!(rqm::compress_crate::peek_header(&v22).unwrap().version, 4);
    // v2.3: planned per-chunk bounds (alternating tight/loose around eb).
    let n_chunks = d0.div_ceil(5);
    let plan: Vec<f64> =
        (0..n_chunks).map(|i| if i % 2 == 0 { eb } else { eb / 2.0 }).collect();
    let mut w =
        ArchiveWriter::<T, Vec<u8>>::create_planned(Vec::new(), field.shape(), &zfp, plan)
            .unwrap();
    w.write_slab(field).unwrap();
    let v23 = w.finalize().unwrap().sink;
    assert_eq!(rqm::compress_crate::peek_header(&v23).unwrap().version, 5);
    // v2.4: the three-way adaptive policy (may tag chunks sz/zfp/rolz) and
    // the fixed rolz codec, both on the new version byte.
    let v24 = rqm::compress_crate::compress(field, &auto).unwrap().bytes;
    assert_eq!(rqm::compress_crate::peek_header(&v24).unwrap().version, 6);
    let rolz = chunked.with_codec(CodecChoice::Rolz);
    let v24r = rqm::compress_crate::compress(field, &rolz).unwrap().bytes;
    assert_eq!(rqm::compress_crate::peek_header(&v24r).unwrap().version, 6);
    vec![
        ("v1", v1),
        ("v2", v2),
        ("v2.1", v21),
        ("v2.2", v22),
        ("v2.3", v23),
        ("v2.4-auto", v24),
        ("v2.4-rolz", v24r),
    ]
}

/// The property itself, generic over the scalar type.
fn assert_read_rows_matches_decompress<T: rqm::grid::Scalar + PartialEq>(seed: u64) {
    let shape = Shape::d3(16, 6, 5);
    let field = textured::<T>(shape);
    let eb = 1e-3;
    let mut rng = Rng(seed);
    for (name, bytes) in archives_of_all_generations(&field, eb) {
        let full = rqm::compress_crate::decompress::<T>(&bytes).unwrap();
        let mut reader =
            rqm::compress_crate::ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let table = reader.chunk_table();
        let row_elems: usize = shape.dims()[1..].iter().product();
        for case in 0..25 {
            let start = rng.below(shape.dim(0));
            let end = start + 1 + rng.below(shape.dim(0) - start);
            let before = reader.stats().chunks_decoded;
            let part = reader.read_rows::<T>(start..end).unwrap();
            assert_eq!(part.shape().dims()[0], end - start, "{name} case {case}");
            assert!(
                part.as_slice() == &full.as_slice()[start * row_elems..end * row_elems],
                "{name} case {case}: rows {start}..{end} diverged from full decompress"
            );
            // Only intersecting chunks may have been decoded.
            let intersecting = table
                .entries
                .iter()
                .filter(|e| e.start_row < end && e.start_row + e.rows > start)
                .count();
            assert_eq!(
                (reader.stats().chunks_decoded - before) as usize,
                intersecting,
                "{name} case {case}: rows {start}..{end} decoded the wrong chunk set"
            );
        }
        // Degenerate requests error cleanly.
        assert!(matches!(
            reader.read_rows::<T>(0..shape.dim(0) + 1),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            reader.read_rows::<T>(2..2),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
    }
}

#[test]
fn planned_per_chunk_bounds_conform_chunkwise() {
    // Quality-targeted archives make a *stronger* promise than the global
    // bound: every chunk honors its own planned bound. Sweep the datagen
    // fields with a heterogeneous plan and assert the per-chunk max
    // error, codec by codec.
    for (name, field) in fields() {
        let d0 = field.shape().dim(0);
        let chunk_rows = (d0 / 3).max(1);
        let n_chunks = d0.div_ceil(chunk_rows);
        let r = field.value_range();
        let plan: Vec<f64> = (0..n_chunks)
            .map(|i| r * if i % 2 == 0 { 1e-3 } else { 2e-5 })
            .collect();
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
                .chunked(chunk_rows)
                .with_codec(codec)
                .with_threads(2);
            let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                field.shape(),
                &cfg,
                plan.clone(),
            )
            .unwrap();
            w.write_slab(&field).unwrap();
            let bytes = w.finalize().unwrap().sink;
            let back = rqm::compress_crate::decompress::<f32>(&bytes).unwrap();
            let row_elems: usize =
                field.shape().dims()[1..].iter().product::<usize>().max(1);
            for (entry, &eb) in
                rqm::compress_crate::chunk_table(&bytes).unwrap().entries.iter().zip(&plan)
            {
                let lo = entry.start_row * row_elems;
                let hi = (entry.start_row + entry.rows) * row_elems;
                let worst = field.as_slice()[lo..hi]
                    .iter()
                    .zip(&back.as_slice()[lo..hi])
                    .map(|(&a, &b)| (a as f64 - b as f64).abs())
                    .fold(0.0, f64::max);
                assert!(
                    worst <= eb * (1.0 + 1e-6),
                    "{name} {codec:?} rows {}..{}: max err {worst:.3e} > chunk bound {eb:.3e}",
                    entry.start_row,
                    entry.start_row + entry.rows
                );
            }
        }
    }
}

#[test]
fn read_rows_matches_decompress_f32_all_generations() {
    assert_read_rows_matches_decompress::<f32>(0x5EED_1001);
}

#[test]
fn read_rows_matches_decompress_f64_all_generations() {
    assert_read_rows_matches_decompress::<f64>(0x5EED_1002);
}

#[test]
fn conformance_f64_chunked_all_codecs() {
    // The original sweep is f32-only; cover f64 through the same
    // contract for both fixed codecs and the scheduler.
    let field = textured::<f64>(Shape::d3(18, 8, 6));
    let eb = 1e-5;
    for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
        for rows in [18, 5] {
            let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
                .chunked(rows)
                .with_codec(codec)
                .with_threads(2);
            let out = rqm::compress_crate::compress(&field, &cfg).unwrap();
            let back = rqm::compress_crate::decompress::<f64>(&out.bytes).unwrap();
            for (i, (&a, &b)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() <= eb * (1.0 + 1e-9),
                    "{codec:?} rows={rows} element {i}: |{a} - {b}| > {eb}"
                );
            }
        }
    }
}

#[test]
fn auto_codec_selects_different_codecs_on_mixed_field() {
    // Acceptance criterion: on a mixed smooth/turbulent field, `auto`
    // must give at least two chunks different codecs while staying inside
    // the bound everywhere.
    let field =
        rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(32, 16, 16), 16, 40.0);
    let eb = 1e-4;
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
        .chunked(8)
        .with_codec(CodecChoice::Auto)
        .with_threads(2);
    let (out, rep) = compress_with_report(&field, &cfg).unwrap();
    let n_sz = rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Sz).count();
    assert!(
        n_sz >= 1 && n_sz < rep.n_chunks,
        "expected a codec split on the mixed field (smooth chunks sz, turbulent chunks \
         zfp or rolz), got {:?}",
        rep.chunk_codecs
    );
    let back = decompress::<f32>(&out.bytes).unwrap();
    let err = max_abs_err(&field, &back);
    assert!(err <= eb * (1.0 + 1e-6), "max err {err:.6e} > eb {eb:.6e}");
}
