//! Seeded input corpora. The benchmark generates every field from the
//! workload seed and hands `rqm` only the raw files written here.

use rq_grid::{NdArray, Shape};
use std::path::Path;

pub struct Field {
    pub name: &'static str,
    pub shape: Shape,
    pub data: Vec<f32>,
}

impl Field {
    fn from_f64(name: &'static str, a: NdArray<f64>) -> Field {
        let shape = a.shape();
        Field {
            name,
            shape,
            data: a.into_vec().into_iter().map(|v| v as f32).collect(),
        }
    }

    fn from_f32(name: &'static str, a: NdArray<f32>) -> Field {
        Field {
            name,
            shape: a.shape(),
            data: a.into_vec(),
        }
    }

    /// The `--shape` argument, e.g. `64x64x64`.
    pub fn shape_arg(&self) -> String {
        self.shape
            .dims()
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("x")
    }

    pub fn raw_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Value range (max − min) as the CLI resolves `--rel` against it.
    pub fn value_range(&self) -> f64 {
        let (lo, hi) = self
            .data
            .iter()
            .filter(|v| !v.is_nan())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v as f64), hi.max(v as f64))
            });
        hi - lo
    }

    pub fn write_raw(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, f32_le_bytes(&self.data))
    }

    pub fn array(&self) -> NdArray<f32> {
        NdArray::from_vec(self.shape, self.data.clone())
    }
}

pub fn f32_le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

pub fn f32_from_le(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Spectral slopes of the Gaussian random fields: a steep spectrum gives
/// smooth, predictable data; a flat one gives turbulent data that
/// escapes the quantizer at tight bounds. The turbulent slopes of the
/// `roundtrip_auto` corpus sit where `--codec auto`'s choice hardly
/// changes with the seed (ZFP for 2D at 0.5, ROLZ for 3D at 1.0; 3D at
/// 0.5 flips between them), so the decode mix, and with it the decode
/// speed, does not swing from seed to seed.
const SMOOTH_SLOPE: f64 = 3.5;
const TURBULENT_SLOPE_2D: f64 = 0.5;
const TURBULENT_SLOPE: f64 = 1.0;

/// Each field holds 2^18 values (1 MiB of `f32`), so every round trip in
/// the corpus costs about the same and one latency distribution covers
/// them all.
const DIMS_2D: [usize; 2] = [256, 1024];
const DIMS_3D: [usize; 3] = [64, 64, 64];

/// `roundtrip_auto`: 2D and 3D fields at smooth and turbulent slopes plus
/// a field that is smooth on half of axis 0 and noise on the rest (not
/// seeded: the generator is deterministic), so `--codec auto` has chunks
/// to hand to each of its three codecs.
pub fn roundtrip_corpus(seed: u64) -> Vec<Field> {
    let mut rng = rq_datagen::rng::seeded(seed);
    let grf2 = |slope, rng: &mut _| rq_datagen::grf::grf_2d(DIMS_2D, slope, rng);
    let grf3 = |slope, rng: &mut _| rq_datagen::grf::grf_3d(DIMS_3D, slope, rng);
    vec![
        Field::from_f64("grf_2d_smooth", grf2(SMOOTH_SLOPE, &mut rng)),
        Field::from_f64("grf_2d_turbulent", grf2(TURBULENT_SLOPE_2D, &mut rng)),
        Field::from_f64("grf_3d_smooth", grf3(SMOOTH_SLOPE, &mut rng)),
        Field::from_f64("grf_3d_turbulent", grf3(TURBULENT_SLOPE, &mut rng)),
        Field::from_f32(
            "mixed_smooth_turbulent",
            rq_datagen::fields::mixed_smooth_turbulent(
                Shape::d3(DIMS_3D[0], DIMS_3D[1], DIMS_3D[2]),
                DIMS_3D[0] / 2,
                40.0,
            ),
        ),
    ]
}

/// `insitu_psnr`: a time series of RTM wavefield snapshots (the paper's
/// in-situ data, exactly zero outside the wavefront) plus dense random
/// fields. The snapshots are the majority, so the median round trip is a
/// snapshot's and does not straddle two kinds of field.
pub fn insitu_corpus(seed: u64) -> Vec<Field> {
    let mut rng = rq_datagen::rng::seeded(seed ^ 0x1a5e_0000);
    let mut fields: Vec<Field> = rq_datagen::rtm_steps(seed, 3, DIMS_3D)
        .into_iter()
        .zip(["rtm_early", "rtm_mid", "rtm_late"])
        .map(|(a, name)| Field::from_f32(name, a))
        .collect();
    fields.push(Field::from_f64(
        "grf_3d_smooth",
        rq_datagen::grf::grf_3d(DIMS_3D, SMOOTH_SLOPE, &mut rng),
    ));
    fields.push(Field::from_f64(
        "grf_2d_turbulent",
        rq_datagen::grf::grf_2d(DIMS_2D, TURBULENT_SLOPE, &mut rng),
    ));
    fields
}

/// `serve_zipf`: one 8 MiB field, served as 16 chunks of 8 rows.
pub fn serve_field(seed: u64) -> Field {
    let mut rng = rq_datagen::rng::seeded(seed ^ 0x5e4e_0000);
    Field::from_f64(
        "grf_3d_serve",
        rq_datagen::grf::grf_3d([128, 128, 128], 2.5, &mut rng),
    )
}
