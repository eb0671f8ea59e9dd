//! Micro-benchmarks for the ratio-quality model itself: the build
//! (sampling) cost vs the per-estimate cost, the per-chunk planner the
//! quality-targeted CLI runs, and the trial-and-error alternative for
//! context. This is the Fig. 9 asymmetry in microbenchmark form.
//!
//! A plain `main` with wall-clock timing rather than a criterion harness
//! (the offline build cannot fetch criterion).
//!
//! ```sh
//! cargo bench -p rq-bench --bench model_cost
//! ```

use rq_compress::{compress, CompressorConfig};
use rq_core::usecases::optimize_partitions_corrected;
use rq_core::RqModel;
use rq_grid::{NdArray, Shape};
use rq_predict::PredictorKind;
use rq_quant::ErrorBoundMode;
use std::time::Instant;

fn bench_field() -> NdArray<f32> {
    let mut state = 0x0defu64;
    NdArray::from_fn(Shape::d3(48, 48, 48), |ix| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        ((ix[0] as f64 * 0.09).cos() * 3.0 + noise * 0.2) as f32
    })
}

/// Mean wall-clock seconds over `reps` runs (after one warm-up).
fn time_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let field = bench_field();
    let field_mb = (field.len() * 4) as f64 / (1024.0 * 1024.0);

    println!("== model build (1% sampling pass, {:.1} MiB field) ==", field_mb);
    for kind in [PredictorKind::Lorenzo, PredictorKind::Interpolation, PredictorKind::Regression] {
        let t = time_mean(10, || {
            let _ = RqModel::build(&field, kind, 0.01, 1);
        });
        println!("{:<16} {:>9.3} ms  ({:>7.1} MiB/s)", kind.name(), t * 1e3, field_mb / t);
    }

    println!("\n== per-estimate cost (model already built) ==");
    let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.01, 1);
    let t = time_mean(10_000, || {
        let _ = model.estimate(1e-3);
    });
    println!("estimate(eb)          {:>9.2} µs", t * 1e6);
    let t = time_mean(1_000, || {
        let _ = model.error_bound_for_bit_rate(2.0);
    });
    println!("invert bit-rate       {:>9.2} µs", t * 1e6);
    let t = time_mean(1_000, || {
        let _ = model.error_bound_for_psnr(60.0);
    });
    println!("invert PSNR           {:>9.2} µs", t * 1e6);

    // What `rqm compress --target-psnr 70 --chunk-size 8` plans over: a
    // turbulent 256×1024 field cut into 32 interpolation chunks of 8 rows
    // (8192 values), one strided 4096-sample-budget model per chunk, a
    // 32-rung ladder each, aimed at 70 dB plus the CLI's 2.5 dB margin.
    let dims = [256usize, 1024];
    let turbulent = rq_datagen::grf::grf_2d(dims, 1.0, &mut rq_datagen::rng::seeded(1));
    let (rows, cols) = (8usize, dims[1]);
    let models: Vec<RqModel> = turbulent
        .as_slice()
        .chunks(rows * cols)
        .map(|c| {
            let c: Vec<f32> = c.iter().map(|&v| v as f32).collect();
            RqModel::build_strided(&c, Shape::d2(rows, cols), PredictorKind::Interpolation, 4096)
        })
        .collect();
    let sizes = vec![rows * cols; models.len()];
    let range = turbulent.value_range();

    println!("\n== per-estimate cost vs sample size (interpolation, 32x1024 slab) ==");
    let slab: Vec<f32> = turbulent.as_slice()[..32 * cols].iter().map(|&v| v as f32).collect();
    for n in [1024usize, 4096, 16384] {
        let m = RqModel::build_strided(&slab, Shape::d2(32, cols), PredictorKind::Interpolation, n);
        let eb = m.error_bound_for_psnr(72.5);
        let t = time_mean(2_000, || {
            let _ = m.estimate(eb);
        });
        println!("{:>5} samples         {:>9.2} µs", m.sample().len(), t * 1e6);
    }

    println!("\n== per-chunk planning (32 partitions × 8192 values, 4096-sample budget) ==");
    let t = time_mean(3, || {
        let _ = optimize_partitions_corrected(&models, &sizes, range, 72.5, 32, None).unwrap();
    });
    println!("optimize_partitions   {:>9.3} ms", t * 1e3);

    println!("\n== trial-and-error alternative ==");
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
    let t = time_mean(5, || {
        let _ = compress(&field, &cfg).unwrap();
    });
    println!("one real compression  {:>9.3} ms  — ×(trials) per tuning step", t * 1e3);
}
