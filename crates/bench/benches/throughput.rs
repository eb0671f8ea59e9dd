//! Compressor and codec throughput, including the chunk-parallel scaling
//! table (1/2/4/8 threads) that backs the parallel pipeline's speedup
//! claim, and the ZFP transform and ROLZ residual codecs' own
//! encode/decode rates.
//!
//! A plain `main` with wall-clock timing rather than a criterion harness:
//! the offline build cannot fetch criterion, and throughput trends at
//! these workload sizes are far coarser than criterion's precision.
//!
//! ```sh
//! cargo bench -p rq-bench --bench throughput              # full (256³ field)
//! RQM_QUICK=1 cargo bench -p rq-bench --bench throughput  # small, for CI
//! ```

use rq_compress::{
    compress, decompress, decompress_with_threads, ChunkCodec, CompressorConfig, RolzChunkCodec,
};
use rq_encoding::HuffmanCodec;
use rq_grid::{NdArray, Shape};
use rq_predict::PredictorKind;
use rq_quant::{ErrorBoundMode, LinearQuantizer, DEFAULT_RADIUS};
use std::time::Instant;

fn bench_field(side: usize) -> NdArray<f32> {
    let mut state = 0xBE7Cu64;
    NdArray::from_fn(Shape::d3(side, side, side), |ix| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        ((ix[0] as f64 * 0.1).sin() * 4.0 + noise * 0.1) as f32
    })
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / (1024.0 * 1024.0)
}

fn serial_throughput(field: &NdArray<f32>, reps: usize) {
    let bytes = field.len() * 4;
    println!("\n== serial pipeline ({} MiB field) ==", bytes >> 20);
    println!("{:<16} {:>12} {:>12}", "predictor", "comp MiB/s", "decomp MiB/s");
    for kind in PredictorKind::all() {
        let cfg = CompressorConfig::new(kind, ErrorBoundMode::Abs(1e-3));
        let t_comp = time_best(reps, || {
            let _ = compress(field, &cfg).unwrap();
        });
        let out = compress(field, &cfg).unwrap();
        let t_dec = time_best(reps, || {
            let _ = decompress::<f32>(&out.bytes).unwrap();
        });
        println!(
            "{:<16} {:>12.1} {:>12.1}",
            kind.name(),
            mb_per_s(bytes, t_comp),
            mb_per_s(bytes, t_dec)
        );
    }
}

fn parallel_scaling(field: &NdArray<f32>, reps: usize) {
    let bytes = field.len() * 4;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\n== chunk-parallel scaling ({} MiB field, interpolation, abs 1e-3, {} core(s)) ==",
        bytes >> 20,
        cores
    );
    if cores < 4 {
        println!(
            "   note: only {cores} core(s) available — thread counts above that time-slice \
             one core, so speedups are bounded near 1.0x here"
        );
    }
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "threads", "comp MiB/s", "comp spdup", "chunks", "dec MiB/s", "dec spdup"
    );
    let base = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-3));
    let mut comp_t1 = 0.0;
    let mut dec_t1 = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let cfg = base.auto_chunked().with_threads(threads);
        let t_comp = time_best(reps, || {
            let _ = compress(field, &cfg).unwrap();
        });
        let (out, rep) = rq_compress::compress_with_report(field, &cfg).unwrap();
        let t_dec = time_best(reps, || {
            let _ = decompress_with_threads::<f32>(&out.bytes, threads).unwrap();
        });
        if threads == 1 {
            comp_t1 = t_comp;
            dec_t1 = t_dec;
        }
        println!(
            "{:>8} {:>12.1} {:>11.2}x {:>10} {:>12.1} {:>9.2}x",
            threads,
            mb_per_s(bytes, t_comp),
            comp_t1 / t_comp,
            rep.n_chunks,
            mb_per_s(bytes, t_dec),
            dec_t1 / t_dec
        );
    }
}

/// The ZFP kernel alone (`zfp_compress_slice` / `zfp_decompress_into` on
/// the whole field, one thread) at a loose and a tight tolerance.
fn zfp_throughput(field: &NdArray<f32>, reps: usize) {
    let bytes = field.len() * 4;
    println!("\n== zfp codec ({} MiB field, 1 thread) ==", bytes >> 20);
    println!("{:<10} {:>12} {:>12} {:>12}", "abs eb", "comp MiB/s", "decomp MiB/s", "bits/value");
    let mut out = vec![0f32; field.len()];
    for tol in [1e-3, 1e-5] {
        let t_comp = time_best(reps, || {
            let _ = rq_zfp::zfp_compress_slice(field.as_slice(), field.shape(), tol).unwrap();
        });
        let stream = rq_zfp::zfp_compress_slice(field.as_slice(), field.shape(), tol).unwrap();
        let t_dec = time_best(reps, || {
            rq_zfp::zfp_decompress_into(&stream, field.shape(), &mut out).unwrap();
        });
        println!(
            "{:<10.0e} {:>12.1} {:>12.1} {:>12.3}",
            tol,
            mb_per_s(bytes, t_comp),
            mb_per_s(bytes, t_dec),
            stream.len() as f64 * 8.0 / field.len() as f64
        );
    }
}

/// The ROLZ chunk codec alone (one thread) on 8-row slabs of Gaussian
/// random fields — the `--codec auto` case where it is picked most: the
/// interpolation predictor at a relative bound of 3e-6, at turbulent and
/// smooth spectral slopes.
fn rolz_throughput(quick: bool, reps: usize) {
    let rows = if quick { 16 } else { 64 };
    let mut rng = rq_datagen::rng::seeded(1);
    let fields = [
        ("grf_2d 0.5", rq_datagen::grf::grf_2d([4 * rows, 1024], 0.5, &mut rng)),
        ("grf_2d 3.5", rq_datagen::grf::grf_2d([4 * rows, 1024], 3.5, &mut rng)),
        ("grf_3d 1.0", rq_datagen::grf::grf_3d([rows, 64, 64], 1.0, &mut rng)),
        ("grf_3d 3.5", rq_datagen::grf::grf_3d([rows, 64, 64], 3.5, &mut rng)),
    ];
    println!("\n== rolz codec (8-row interpolation chunks, rel 3e-6, 1 thread) ==");
    println!("{:<12} {:>12} {:>12} {:>12}", "field", "comp MiB/s", "decomp MiB/s", "bits/value");
    for (name, field) in fields {
        let shape = field.shape();
        let data: Vec<f32> = field.as_slice().iter().map(|&v| v as f32).collect();
        let (lo, hi) = data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        let codec = RolzChunkCodec::new(
            PredictorKind::Interpolation,
            LinearQuantizer::new(3e-6 * (hi - lo) as f64, DEFAULT_RADIUS),
        );
        let row: usize = shape.dims()[1..].iter().product();
        let mut dims = shape.dims().to_vec();
        dims[0] = 8;
        let chunk_shape = Shape::new(&dims);
        let chunks: Vec<&[f32]> = data.chunks_exact(8 * row).collect();
        let encode_all = || -> Vec<Vec<u8>> {
            chunks.iter().map(|c| ChunkCodec::<f32>::encode(&codec, c, chunk_shape).unwrap().0).collect()
        };
        let t_comp = time_best(reps, || {
            let _ = encode_all();
        });
        let blobs = encode_all();
        let mut out = vec![0f32; chunk_shape.len()];
        let t_dec = time_best(reps, || {
            for b in &blobs {
                ChunkCodec::<f32>::decode(&codec, b, chunk_shape, &mut out).unwrap();
            }
        });
        let bytes = chunks.len() * chunk_shape.len() * 4;
        let blob_bytes: usize = blobs.iter().map(Vec::len).sum();
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>12.3}",
            name,
            mb_per_s(bytes, t_comp),
            mb_per_s(bytes, t_dec),
            blob_bytes as f64 * 8.0 / (bytes / 4) as f64
        );
    }
}

fn huffman_throughput() {
    // Zero-dominated symbol stream like real quantization codes.
    let symbols: Vec<u32> = (0..1_000_000u32)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56;
            match h {
                0..=200 => 100,
                201..=228 => 99,
                229..=250 => 101,
                _ => (h % 32) as u32 + 84,
            }
        })
        .collect();
    let mut counts = vec![0u64; 200];
    for &s in &symbols {
        counts[s as usize] += 1;
    }
    let codec = HuffmanCodec::from_counts(&counts).unwrap();
    let encoded = codec.encode(&symbols).unwrap();

    println!("\n== huffman (1M symbols) ==");
    let t_enc = time_best(5, || {
        let _ = codec.encode(&symbols).unwrap();
    });
    let t_dec = time_best(5, || {
        let _ = codec.decode(&encoded, symbols.len()).unwrap();
    });
    println!("encode {:>8.1} Msym/s", 1.0 / t_enc);
    println!("decode {:>8.1} Msym/s", 1.0 / t_dec);
}

fn main() {
    let quick = rq_bench::quick();
    let side = if quick { 64 } else { 256 };
    let reps = if quick { 2 } else { 3 };
    let field = bench_field(side);
    serial_throughput(&field, reps);
    parallel_scaling(&field, reps);
    zfp_throughput(&field, reps);
    rolz_throughput(quick, reps);
    huffman_throughput();
}
