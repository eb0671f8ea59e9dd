//! `rqm` — command-line front end for the compressor and the model.
//!
//! ```text
//! rqm compress   <in.f32> <out.rqc> --shape 64x64x64 --abs 1e-3
//!                [--predictor interpolation|lorenzo|lorenzo2|regression]
//!                [--rel 1e-3] [--target-psnr DB] [--target-size BYTES]
//!                [--huffman-only] [--codec sz|zfp|rolz|auto]
//!                [--threads N] [--chunk-size ROWS]
//! rqm decompress <in.rqc> <out.f32> [--threads N]
//! rqm estimate   <in.f32> --shape 64x64x64 [--abs 1e-3] [--rate 0.01]
//!                [--predictor …]           # model-only, no compression
//! rqm info       <in.rqc> [--json]
//! rqm pack       <out.rqc> --steps N --shape D0xD1xD2 --abs EB
//!                [--datasets a,b,c] [--keyframe-every K] [--seed S]
//!                [--predictor P] [--chunk-size ROWS]
//!                [--input raw.f32 [--dataset NAME]]
//! rqm unpack     <in.rqc> <outdir> [--dataset NAME] [--step T]
//! rqm catalog    <in.rqc> [--json]
//! rqm serve      <in.rqc> --addr HOST:PORT [--cache-bytes N] [--threads N]
//!                [--metrics-every SECS]
//! rqm read       --addr HOST:PORT [--rows A..B | --chunk I] [--out FILE]
//!                [--stats] [--list] [--dataset NAME [--step T]]
//! ```
//!
//! **Quality-targeted compression** (`--target-psnr` / `--target-size`,
//! mutually exclusive with `--abs`/`--rel`): instead of a hand-picked
//! error bound, the user states the goal — a PSNR floor in dB or a size
//! ceiling in bytes — and the ratio-quality model picks **per-chunk**
//! error bounds. A streaming pre-pass samples prediction errors per
//! axis-0 chunk (deterministic strided sampling, no RNG), fits one
//! `RqModel` per chunk, and runs the §IV-C water-filling planner (PSNR
//! floor) or the §IV-B budget optimizer (size ceiling). The planned
//! bounds go through the same streaming session and are recorded in
//! container **v2.3** (per-chunk `eb` next to the codec tag in the
//! trailer index — shown by `rqm info`). Quiet chunks get loose bounds,
//! turbulent chunks tight ones, so the archive is smaller than any single
//! global bound meeting the same target.
//!
//! `--threads`/`--chunk-size` switch to the **streaming** chunk-parallel
//! pipeline (container format v2.2): the input file is read in axis-0
//! slabs of `--chunk-size` rows (default: auto-sized to the thread
//! count), each slab is compressed concurrently through the
//! `rq_compress::ArchiveWriter` session, and blobs go straight to the
//! output file with the chunk index in a trailer — peak memory stays at a
//! few slabs no matter how large the field is. Plain `compress` without
//! either flag keeps the serial in-memory v1 format.
//!
//! `decompress` streams for every thread count: rows flow from the
//! archive to the output through `rq_compress::ArchiveReader`'s bounded
//! read-ahead window, so peak memory is a few chunks no matter how large
//! the field is. With `--threads N` chunk *decoding* fans out to N
//! workers while extents are still read sequentially — the output bytes
//! are identical at every thread count, only the wall time changes.
//!
//! `--codec` selects the per-chunk backend: `sz` (default, the prediction
//! path), `zfp` (the transform path), `rolz` (the prediction front end
//! with a reduced-offset-LZ back end over the quantization codes,
//! container v2.4) or `auto`, which estimates all three per chunk and
//! picks the cheapest. The chunk index tags every chunk with the codec
//! that produced it (shown by `rqm info`); non-`sz` codecs imply chunking
//! even without `--chunk-size`.
//!
//! `rqm info --json` emits the header and the per-chunk table
//! (offset/bytes/codec/ratio per chunk) as machine-readable JSON.
//!
//! `rqm serve` exposes an archive to remote readers over the
//! `docs/PROTOCOL.md` TCP protocol: thread-per-connection, with a
//! `--cache-bytes`-budgeted LRU of decoded chunks and single-flight
//! coalescing so a hot chunk is decoded once no matter how many clients
//! ask for it (`--threads` caps concurrent connections;
//! `--metrics-every` logs a stats line). `rqm read` is the matching
//! client: fetch a row range or a single chunk into a raw
//! little-endian file, and `--stats` prints the server's counters.
//!
//! **Temporal catalogs** (`pack` / `unpack` / `catalog`): a whole
//! simulation — N named datasets, each a sequence of time steps — goes
//! into one `RQCAT` container. Steps are stored as embedded single-field
//! archives; every `--keyframe-every`-th step is self-contained and the
//! steps between code *residuals* against the reconstruction of the
//! previous step (the temporal-delta predictor), so slowly-evolving
//! fields cost a fraction of independent archives while every step still
//! honors the dataset's absolute bound. Without `--input`, `pack` pulls
//! its steps from the seeded RTM wavefield generator (one independent
//! physics perturbation per dataset name); with `--input` it packs a raw
//! little-endian f32 file holding `--steps` concatenated fields. `rqm
//! info`, `rqm serve` and `rqm read` all recognize catalogs: `info`
//! summarizes the index, `serve` answers the protocol-v2
//! `LIST_DATASETS`/`READ_STEP_ROWS` requests over it, and `read --list`
//! / `--dataset NAME --step T` are the matching client sides.
//!
//! Raw inputs are little-endian `f32` streams in row-major order.

mod args;
mod io;

use args::Args;
use rq_catalog::{is_catalog_magic, CatalogIndex, CatalogReader, CatalogWriter};
use rq_compress::{
    compress_with_report, generation_name, json_f64, ArchiveReader, ArchiveWriter, ChunkCodecKind,
    CodecChoice, CompressionReport, CompressorConfig, Header,
};
use rq_core::RqModel;
use rq_grid::{NdArray, Shape, MAX_DIMS};
use rq_quant::ErrorBoundMode;
use rq_serve::{Client, DatasetInfo, ServeConfig, Server};
use std::io::{Read, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rqm: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  rqm compress   <in.f32> <out.rqc> --shape NxNxN --abs EB [--rel R]
                 [--target-psnr DB] [--target-size BYTES]
                 [--predictor interpolation|lorenzo|lorenzo2|regression]
                 [--huffman-only] [--codec sz|zfp|rolz|auto]
                 [--threads N] [--chunk-size ROWS]
  rqm decompress <in.rqc> <out.f32> [--threads N]
  rqm estimate   <in.f32> --shape NxNxN [--abs EB] [--rate 0.01] [--predictor P]
  rqm info       <in.rqc> [--json]
  rqm pack       <out.rqc> --steps N --shape D0xD1xD2 --abs EB
                 [--datasets a,b,c] [--keyframe-every K] [--seed S]
                 [--predictor P] [--chunk-size ROWS]
                 [--input raw.f32 [--dataset NAME]]
  rqm unpack     <in.rqc> <outdir> [--dataset NAME] [--step T]
  rqm catalog    <in.rqc> [--json]
  rqm serve      <in.rqc> --addr HOST:PORT [--cache-bytes N] [--threads N]
                 [--metrics-every SECS]
  rqm read       --addr HOST:PORT [--rows A..B | --chunk I] [--out FILE]
                 [--stats] [--list] [--dataset NAME [--step T]]";

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let cmd = args.positional.first().map(String::as_str).unwrap_or("");
    match cmd {
        "compress" => cmd_compress(&args),
        "decompress" => cmd_decompress(&args),
        "estimate" => cmd_estimate(&args),
        "info" => cmd_info(&args),
        "pack" => cmd_pack(&args),
        "unpack" => cmd_unpack(&args),
        "catalog" => cmd_catalog(&args),
        "serve" => cmd_serve(&args),
        "read" => cmd_read(&args),
        "" => Err("no command given".into()),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// What the user asked the compressor to honor: a hand-picked bound, or a
/// quality/size target the ratio-quality model turns into per-chunk
/// bounds.
enum Goal {
    /// A fixed error bound (`--abs` / `--rel`).
    Fixed(ErrorBoundMode),
    /// A measured-quality floor in dB (`--target-psnr`).
    Psnr(f64),
    /// An archive-size ceiling in bytes (`--target-size`).
    Size(usize),
}

fn goal_from(args: &Args) -> Result<Goal, String> {
    let abs = args.float("abs")?;
    let rel = args.float("rel")?;
    let psnr = args.float("target-psnr")?;
    let size = args.unsigned("target-size")?;
    let given =
        [abs.is_some(), rel.is_some(), psnr.is_some(), size.is_some()].iter().filter(|&&g| g).count();
    if given > 1 {
        return Err(
            "--abs, --rel, --target-psnr and --target-size are mutually exclusive".into()
        );
    }
    if let Some(eb) = abs {
        return Ok(Goal::Fixed(ErrorBoundMode::Abs(eb)));
    }
    if let Some(r) = rel {
        return Ok(Goal::Fixed(ErrorBoundMode::ValueRangeRelative(r)));
    }
    if let Some(t) = psnr {
        if !t.is_finite() {
            return Err(format!("--target-psnr: {t} is not a finite dB value"));
        }
        return Ok(Goal::Psnr(t));
    }
    if let Some(b) = size {
        if b == 0 {
            return Err("--target-size must be positive".into());
        }
        return Ok(Goal::Size(b));
    }
    Err("need an error bound (--abs EB | --rel R) or a target (--target-psnr DB | --target-size BYTES)".into())
}

/// Shape of an axis-0 slab of `rows` rows cut from a field of `shape`.
fn slab_shape(shape: Shape, rows: usize) -> Shape {
    let mut dims = [0usize; MAX_DIMS];
    dims[..shape.ndim()].copy_from_slice(shape.dims());
    dims[0] = rows;
    Shape::new(&dims[..shape.ndim()])
}

/// One bounded-memory pass over a raw `f32` file: the value range
/// (max − min, NaNs ignored), for resolving `--rel` without loading the
/// field.
fn stream_value_range(input: &str, shape: Shape) -> Result<f64, String> {
    let mut src = std::io::BufReader::new(io::open_raw_f32(input, shape)?);
    let mut remaining = shape.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut buf = vec![0u8; 4 << 20];
    while remaining > 0 {
        let take = remaining.min(buf.len() / 4);
        let chunk = &mut buf[..take * 4];
        src.read_exact(chunk).map_err(|e| format!("{input}: {e}"))?;
        for quad in chunk.chunks_exact(4) {
            let v = f32::from_le_bytes(quad.try_into().unwrap()) as f64;
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        remaining -= take;
    }
    if lo > hi {
        return Err(format!("{input}: all values are NaN"));
    }
    Ok(hi - lo)
}

/// Error-sample budget per chunk for the quality-targeted pre-pass
/// (deterministic strided sampling — a few % of typical chunk sizes, in
/// the spirit of the paper's 1 % pass).
const PLAN_SAMPLES_PER_CHUNK: usize = 4096;

/// Candidate error bounds per chunk for the planners' grids.
const PLAN_GRID_POINTS: usize = 32;

/// Safety margin (dB) added to a `--target-psnr` floor before planning:
/// a floor must be met by the *measured* quality, not the model estimate,
/// so the plan aims above the floor by the model's known PSNR-error band.
/// The interpolation predictor's multi-level reconstruction feedback is
/// the hardest part of the quality model (its cascade correction is
/// calibrated, not derived), so it gets the widest band.
fn psnr_plan_margin(predictor: rq_predict::PredictorKind) -> f64 {
    match predictor {
        rq_predict::PredictorKind::Interpolation => 2.5,
        _ => 1.5,
    }
}

/// Safety margin for `--target-size`: plan for 80 % of the budget (the
/// paper's §IV-B rule), so estimate error cannot overflow the ceiling.
const SIZE_PLAN_MARGIN: f64 = 0.2;

/// When the round-1 archive overshoots a `--target-psnr` floor by more
/// than this, a measured-feedback round hands the surplus quality back.
const PSNR_LOOSEN_THRESHOLD_DB: f64 = 0.75;

/// Where the feedback round aims: just above the user's floor, so model
/// noise cannot drop the delivered quality below it.
const PSNR_AIM_GUARD_DB: f64 = 0.35;

/// The outcome of the quality-targeted pre-pass: one bound per chunk plus
/// the planner's own expectations (echoed so the user can compare the
/// prediction against the actual archive).
struct ChunkPlan {
    ebs: Vec<f64>,
    est_psnr: f64,
    est_bytes: f64,
}

/// Measured feedback from one verification pass over a written archive:
/// the aggregate PSNR plus the per-chunk `measured / modeled` scales that
/// anchor the second planning round.
struct MeasuredRound {
    psnr: f64,
    correction: rq_core::usecases::PlanCorrection,
}

/// Streaming verification pass: decode the archive chunk by chunk,
/// compare against the raw input, and return the measured aggregate PSNR
/// plus per-chunk model corrections at the plan's bounds. Peak memory is
/// one chunk of each.
fn measure_planned_archive(
    input: &str,
    output: &str,
    shape: Shape,
    models: &[RqModel],
    ebs: &[f64],
    range: f64,
) -> Result<MeasuredRound, String> {
    let mut src = std::io::BufReader::new(io::open_raw_f32(input, shape)?);
    let archive = std::fs::File::open(output).map_err(|e| format!("{output}: {e}"))?;
    let mut reader =
        ArchiveReader::open(archive).map_err(|e| format!("verification failed: {e}"))?;
    let entries = reader.entries().to_vec();
    let mut measured_sigma2 = Vec::with_capacity(entries.len());
    let mut measured_bits = Vec::with_capacity(entries.len());
    let mut sq_total = 0.0f64;
    let mut n_total = 0usize;
    for (chunk, entry) in entries.iter().enumerate() {
        let cshape = slab_shape(shape, entry.rows);
        let orig = io::read_f32_slab(&mut src, cshape).map_err(|e| format!("{input}: {e}"))?;
        let (_, recon) = reader
            .read_chunk::<f32>(chunk)
            .map_err(|e| format!("verification failed: {e}"))?;
        let mut sq = 0.0f64;
        for (&a, &b) in orig.as_slice().iter().zip(recon.as_slice()) {
            sq += ((a - b) as f64).powi(2);
        }
        measured_sigma2.push(sq / orig.len() as f64);
        measured_bits.push(entry.len as f64 * 8.0 / orig.len() as f64);
        sq_total += sq;
        n_total += orig.len();
    }
    let mse = sq_total / n_total.max(1) as f64;
    let psnr = if mse > 0.0 { 20.0 * range.log10() - 10.0 * mse.log10() } else { f64::INFINITY };
    Ok(MeasuredRound {
        psnr,
        correction: rq_core::usecases::PlanCorrection::from_measured(
            models,
            ebs,
            &measured_sigma2,
            &measured_bits,
        ),
    })
}

/// Per-chunk models from one streaming pre-pass over the raw input: walk
/// the file chunk by chunk (the exact partition the writer will encode),
/// fit one deterministic ratio-quality model per chunk, and track the
/// global value range. Returns `(models, sizes, range)`.
fn chunk_models(
    input: &str,
    shape: Shape,
    cfg: &CompressorConfig,
) -> Result<(Vec<RqModel>, Vec<usize>, f64), String> {
    let chunk_rows = rq_compress::resolved_chunk_rows(cfg, shape);
    let d0 = shape.dim(0);
    let mut src = std::io::BufReader::new(io::open_raw_f32(input, shape)?);
    let mut models: Vec<RqModel> = Vec::with_capacity(d0.div_ceil(chunk_rows));
    let mut sizes: Vec<usize> = Vec::with_capacity(models.capacity());
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut row = 0usize;
    while row < d0 {
        let rows = chunk_rows.min(d0 - row);
        let cshape = slab_shape(shape, rows);
        let slab = io::read_f32_slab(&mut src, cshape).map_err(|e| format!("{input}: {e}"))?;
        for &v in slab.as_slice() {
            let v = v as f64;
            if !v.is_nan() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        models.push(RqModel::build_strided(
            slab.as_slice(),
            cshape,
            cfg.predictor,
            PLAN_SAMPLES_PER_CHUNK,
        ));
        sizes.push(slab.len());
        row += rows;
    }
    if lo > hi {
        return Err(format!("{input}: all values are NaN"));
    }
    Ok((models, sizes, hi - lo))
}

/// Run the §IV planner matching the goal over per-chunk models. Planner
/// failures surface as [`rq_compress::CompressError::InvalidConfig`].
/// PSNR-goal planning with an explicit model-space target and optional
/// measured-feedback correction (the second-round path).
fn plan_psnr_corrected(
    models: &[RqModel],
    sizes: &[usize],
    range: f64,
    target_est: f64,
    correction: Option<&rq_core::usecases::PlanCorrection>,
) -> Result<ChunkPlan, String> {
    let n_elements: usize = sizes.iter().sum();
    rq_core::usecases::optimize_partitions_corrected(
        models,
        sizes,
        range,
        target_est,
        PLAN_GRID_POINTS,
        correction,
    )
    .map(|plan| ChunkPlan {
        est_psnr: plan.est_psnr,
        est_bytes: plan.est_bit_rate * n_elements as f64 / 8.0,
        ebs: plan.ebs,
    })
    .map_err(|e| {
        format!(
            "compression failed: {}",
            rq_compress::CompressError::InvalidConfig(e.to_string())
        )
    })
}

fn plan_for(
    models: &[RqModel],
    sizes: &[usize],
    range: f64,
    goal: &Goal,
    predictor: rq_predict::PredictorKind,
) -> Result<ChunkPlan, String> {
    let n_elements: usize = sizes.iter().sum();
    let plan = match *goal {
        Goal::Psnr(t) => {
            return plan_psnr_corrected(models, sizes, range, t + psnr_plan_margin(predictor), None)
        }
        Goal::Size(bytes) => rq_core::usecases::plan_budget(
            models,
            sizes,
            range,
            bytes,
            SIZE_PLAN_MARGIN,
            PLAN_GRID_POINTS,
        ),
        Goal::Fixed(_) => unreachable!("fixed bounds are not planned"),
    }
    .map_err(|e| {
        // A planner failure is a configuration problem (target unreachable,
        // budget too small, …): surface it exactly as the compressor's
        // typed InvalidConfig error.
        format!(
            "compression failed: {}",
            rq_compress::CompressError::InvalidConfig(e.to_string())
        )
    })?;
    Ok(ChunkPlan {
        ebs: plan.ebs,
        est_psnr: plan.est_psnr,
        est_bytes: plan.est_bit_rate * n_elements as f64 / 8.0,
    })
}

/// Streaming compression: read the input in slabs, feed the archive
/// writer, never hold more than a few slabs in memory. With `plan`, the
/// session runs in quality-targeted mode (one bound per chunk, container
/// v2.3).
fn stream_compress(
    input: &str,
    output: &str,
    shape: Shape,
    mut cfg: CompressorConfig,
    plan: Option<Vec<f64>>,
) -> Result<CompressionReport, String> {
    // A value-range-relative bound needs the global range before the
    // first slab; one cheap streaming pass resolves it to an absolute
    // bound (identical to what the in-memory pipeline would compute).
    // Planned sessions carry explicit absolute bounds instead.
    if plan.is_none() {
        if let ErrorBoundMode::ValueRangeRelative(r) = cfg.bound {
            cfg = cfg.with_bound(ErrorBoundMode::Abs(r * stream_value_range(input, shape)?));
        }
    }
    let mut src = std::io::BufReader::new(io::open_raw_f32(input, shape)?);
    // Blobs stream into a temp file renamed into place at the end, so a
    // failed run cannot clobber an existing archive with a trailer-less
    // (unreadable) partial one.
    let tmp = format!("{output}.rqm-partial");
    let result = (|| -> Result<CompressionReport, String> {
        let sink = std::io::BufWriter::new(
            std::fs::File::create(&tmp).map_err(|e| format!("{tmp}: {e}"))?,
        );
        let mut writer = match plan {
            Some(ebs) => ArchiveWriter::<f32, _>::create_planned(sink, shape, &cfg, ebs),
            None => ArchiveWriter::<f32, _>::create(sink, shape, &cfg),
        }
        .map_err(|e| format!("compression failed: {e}"))?;
        // Feed one batch of chunks per read: enough rows to occupy every
        // worker thread, and the upper bound on resident input data.
        let d0 = shape.dim(0);
        let batch_rows = writer
            .chunk_rows()
            .saturating_mul(cfg.resolved_threads())
            .clamp(writer.chunk_rows(), d0);
        let mut row = 0usize;
        while row < d0 {
            let rows = batch_rows.min(d0 - row);
            let slab = io::read_f32_slab(&mut src, slab_shape(shape, rows))
                .map_err(|e| format!("{input}: {e}"))?;
            writer.write_slab(&slab).map_err(|e| format!("compression failed: {e}"))?;
            row += rows;
        }
        let finished = writer.finalize().map_err(|e| format!("compression failed: {e}"))?;
        finished
            .sink
            .into_inner()
            .map_err(|e| format!("{tmp}: {e}"))?
            .sync_all()
            .map_err(|e| format!("{tmp}: {e}"))?;
        Ok(finished.report)
    })();
    match result {
        Ok(report) => {
            std::fs::rename(&tmp, output).map_err(|e| format!("{output}: {e}"))?;
            Ok(report)
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let [_, input, output] = positional::<3>(args)?;
    let shape = args.shape()?;
    let goal = goal_from(args)?;

    let codec = match args.get("codec").unwrap_or("sz") {
        "sz" => CodecChoice::Sz,
        "zfp" => CodecChoice::Zfp,
        "rolz" => CodecChoice::Rolz,
        "auto" => CodecChoice::Auto,
        other => return Err(format!("unknown codec '{other}' (sz|zfp|rolz|auto)")),
    };
    // Quality-targeted goals plan absolute per-chunk bounds; the config
    // bound is a placeholder the planned session never reads.
    let bound = match goal {
        Goal::Fixed(b) => b,
        Goal::Psnr(_) | Goal::Size(_) => ErrorBoundMode::Abs(1.0),
    };
    let targeted = !matches!(goal, Goal::Fixed(_));
    let mut cfg = CompressorConfig::new(args.predictor()?, bound).with_codec(codec);
    if args.flag("huffman-only") {
        cfg = cfg.huffman_only();
    }
    let threads = args.unsigned("threads")?;
    let chunk_rows = args.unsigned("chunk-size")?;
    let chunked =
        threads.is_some() || chunk_rows.is_some() || codec != CodecChoice::Sz || targeted;
    if threads.is_some() || chunk_rows.is_some() {
        cfg = match chunk_rows {
            Some(0) => return Err("--chunk-size must be positive".into()),
            Some(rows) => cfg.chunked(rows),
            None => cfg.auto_chunked(),
        };
        cfg = cfg.with_threads(threads.unwrap_or(0));
    } else if chunked {
        // The adaptive codecs and the quality planners decide per chunk;
        // give them chunks to decide over even when no explicit chunking
        // was requested. A fixed chunk-count target (not thread-derived
        // auto sizing) keeps the output bytes machine-independent.
        cfg = cfg.chunked(rq_grid::auto_chunk_rows(shape, 16, 1 << 15));
    }
    if targeted && cfg.chunking == rq_compress::Chunking::Auto {
        // The planner needs the chunk partition before the writer exists;
        // Auto sizing depends on the thread count, which would make the
        // plan (and the bytes) machine-dependent.
        cfg = cfg.chunked(rq_grid::auto_chunk_rows(shape, 16, 1 << 15));
    }

    let mut plan_note = String::new();
    let rep = if targeted {
        // Pre-pass: per-chunk models → per-chunk bounds (container v2.3).
        let (models, sizes, range) = chunk_models(&input, shape, &cfg)?;
        let mut plan = plan_for(&models, &sizes, range, &goal, cfg.predictor)?;
        let mut rep = stream_compress(&input, &output, shape, cfg, Some(plan.ebs.clone()))?;
        let mut rounds = 1usize;
        let mut measured_note = String::new();
        if let Goal::Size(budget) = goal {
            if rep.container_bytes > budget {
                // §IV-B second round: re-plan with a proportionally
                // lowered target and recompress once (the models are
                // already built — only the second write pass repeats).
                let overshoot = rep.container_bytes as f64 / budget as f64;
                let lowered = ((budget as f64 / overshoot).floor() as usize).max(1);
                plan = plan_for(&models, &sizes, range, &Goal::Size(lowered), cfg.predictor)?;
                rep = stream_compress(&input, &output, shape, cfg, Some(plan.ebs.clone()))?;
                rounds = 2;
            }
            if rep.container_bytes > budget {
                // Even the lowered second round overflowed: a ceiling the
                // model cannot honor is a hard failure, not a quietly
                // oversized archive (the output is removed so a failed
                // run leaves no artifact, matching every other error
                // path).
                std::fs::remove_file(&output).ok();
                return Err(format!(
                    "compression failed: {}",
                    rq_compress::CompressError::InvalidConfig(format!(
                        "archive is {} B after {rounds} round(s), over the --target-size \
                         ceiling of {budget} B",
                        rep.container_bytes
                    ))
                ));
            }
        }
        if let Goal::Psnr(t) = goal {
            // §IV-A verification round: measure the delivered quality
            // (streaming, one chunk resident at a time) and re-plan once
            // with the per-chunk measured/modeled corrections — either to
            // rescue a missed floor (rare; the planning margin covers the
            // model's error band) or to hand back quality the margin
            // overshot (smaller archive at the same guarantee).
            let r1 = measure_planned_archive(&input, &output, shape, &models, &plan.ebs, range)?;
            let mut measured = r1.psnr;
            if r1.psnr < t {
                // Tighten: margin + observed deficit + a guard.
                let target2 =
                    t + psnr_plan_margin(cfg.predictor) + (t - r1.psnr) + 0.25;
                plan = plan_psnr_corrected(&models, &sizes, range, target2, Some(&r1.correction))?;
                rep = stream_compress(&input, &output, shape, cfg, Some(plan.ebs.clone()))?;
                measured =
                    measure_planned_archive(&input, &output, shape, &models, &plan.ebs, range)?
                        .psnr;
                rounds = 2;
            } else if r1.psnr > t + PSNR_LOOSEN_THRESHOLD_DB {
                // Loosen toward the target, keeping a small guard above
                // it. The attempt goes to a trial file so an undershoot
                // keeps the round-1 archive without a third encode pass.
                let plan2 = plan_psnr_corrected(
                    &models,
                    &sizes,
                    range,
                    t + PSNR_AIM_GUARD_DB,
                    Some(&r1.correction),
                )?;
                let trial = format!("{output}.rqm-round2");
                let rep2 = stream_compress(&input, &trial, shape, cfg, Some(plan2.ebs.clone()))?;
                let r2 =
                    measure_planned_archive(&input, &trial, shape, &models, &plan2.ebs, range)?;
                if r2.psnr >= t {
                    std::fs::rename(&trial, &output).map_err(|e| format!("{output}: {e}"))?;
                    plan = plan2;
                    rep = rep2;
                    measured = r2.psnr;
                } else {
                    // The corrected loosening undershot: keep round 1.
                    std::fs::remove_file(&trial).ok();
                }
                rounds = 2;
            }
            measured_note = format!(", measured {measured:.1} dB");
        }
        let (eb_lo, eb_hi) = plan
            .ebs
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &e| (lo.min(e), hi.max(e)));
        let rounds_note = if rounds > 1 { ", 2 rounds" } else { "" };
        let goal_note = match goal {
            Goal::Psnr(t) => format!(
                "target {t:.1} dB, planned est {:.1} dB{measured_note}{rounds_note}",
                plan.est_psnr
            ),
            Goal::Size(b) => format!(
                "target {b} B, planned est {} B ({:.1} dB{rounds_note})",
                plan.est_bytes.round(),
                plan.est_psnr
            ),
            Goal::Fixed(_) => unreachable!(),
        };
        plan_note = format!("{goal_note}, per-chunk eb {eb_lo:.2e}..{eb_hi:.2e}, ");
        rep
    } else if chunked {
        // Chunked: stream slabs through the writer session (container
        // v2.2) — peak RSS is a few slabs, not the field.
        stream_compress(&input, &output, shape, cfg, None)?
    } else {
        // Serial v1: the single causal traversal needs the whole field.
        let field = io::read_raw_f32(&input, shape)?;
        let (out, rep) =
            compress_with_report(&field, &cfg).map_err(|e| format!("compression failed: {e}"))?;
        io::write_bytes(&output, &out.bytes)?;
        rep
    };

    let n_zfp =
        rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Zfp).count();
    let n_rolz =
        rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Rolz).count();
    let codec_note = match codec {
        CodecChoice::Sz => String::new(),
        CodecChoice::Zfp => "codec zfp, ".into(),
        CodecChoice::Rolz => "codec rolz, ".into(),
        CodecChoice::Auto => {
            format!(
                "codec auto ({} sz / {n_zfp} zfp / {n_rolz} rolz), ",
                rep.n_chunks - n_zfp - n_rolz
            )
        }
    };
    // Predictor/p0 describe the prediction path; omit them when every
    // chunk went through the transform codec and they never ran.
    let predictor_note = if n_zfp < rep.n_chunks {
        format!("predictor {}, p0 {:.3}, ", cfg.predictor.name(), rep.p0())
    } else {
        String::new()
    };
    let summary = format!(
        "{plan_note}{codec_note}{predictor_note}ratio {:.2}, {:.3} bits/value{}",
        rep.overall_ratio(),
        rep.overall_bit_rate(),
        if rep.n_chunks > 1 {
            format!(", {} chunks × {} threads", rep.n_chunks, cfg.resolved_threads())
        } else {
            String::new()
        }
    );
    println!(
        "{input} -> {output}: {} -> {} bytes ({summary})",
        shape.len() * 4,
        rep.container_bytes
    );
    Ok(())
}

fn cmd_decompress(args: &Args) -> Result<(), String> {
    let [_, input, output] = positional::<3>(args)?;
    let mut src = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
    let mut magic = [0u8; 6];
    let sniffed = src.read(&mut magic).map_err(|e| format!("{input}: {e}"))?;
    if sniffed >= 6 && is_catalog_magic(&magic) {
        return Err(format!(
            "{input} is an RQCAT temporal catalog, not a single-field archive; \
             use `rqm unpack`"
        ));
    }
    if sniffed >= 4 && &magic[..4] == b"RQZF" {
        // Standalone transform-codec stream: whole-buffer decode.
        let bytes = io::read_bytes(&input)?;
        let field: NdArray<f32> = rq_zfp::zfp_decompress(&bytes)
            .map_err(|e| format!("zfp decompression failed: {e}"))?;
        io::write_raw_f32(&output, &field)?;
        println!("{input} -> {output}: {:?}, {} values", field.shape(), field.len());
        return Ok(());
    }
    // Streaming decode at every thread count: chunk extents are read
    // sequentially (zero-copy off a memory-mapped source where the
    // platform allows), decoding fans out to `--threads` workers behind
    // the reader's bounded read-ahead window, and rows are delivered in
    // order — peak memory is a window of chunks, never the field. Rows
    // stream into a temp file that is renamed into place only after
    // every chunk decoded, so a corrupt archive can neither clobber an
    // existing output nor leave a silently truncated one.
    let threads = args.unsigned("threads")?.unwrap_or(1);
    drop(src);
    let mut reader = ArchiveReader::open_path(&input)
        .map_err(|e| format!("decompression failed: {e}"))?
        .with_threads(threads);
    let shape = reader.header().shape;
    let tmp = format!("{output}.rqm-partial");
    let result = (|| -> Result<u64, String> {
        let mut sink = std::io::BufWriter::new(
            std::fs::File::create(&tmp).map_err(|e| format!("{tmp}: {e}"))?,
        );
        let values = reader
            .decompress_to_writer::<f32, _>(&mut sink)
            .map_err(|e| format!("decompression failed: {e}"))?;
        sink.flush().map_err(|e| format!("{tmp}: {e}"))?;
        Ok(values)
    })();
    match result {
        Ok(values) => {
            std::fs::rename(&tmp, &output).map_err(|e| format!("{output}: {e}"))?;
            let par = if reader.threads() > 1 {
                format!(", {} decode threads", reader.threads())
            } else {
                String::new()
            };
            println!("{input} -> {output}: {shape:?}, {values} values{par}");
            Ok(())
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

fn cmd_estimate(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let shape = args.shape()?;
    let field = io::read_raw_f32(&input, shape)?;
    let rate = args.float("rate")?.unwrap_or(0.01);
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("--rate: {rate} is outside (0, 1]"));
    }
    let abs = args.float("abs")?;
    if let Some(eb) = abs {
        if !(eb > 0.0 && eb.is_finite()) {
            return Err(format!("--abs: {eb} is not a finite positive error bound"));
        }
    }
    let range = field.value_range();
    if abs.is_none() && !(range > 0.0 && range.is_finite()) {
        return Err(format!(
            "{input}: value range is {range}, so there is no default bound grid; pass --abs EB"
        ));
    }
    let predictor = args.predictor()?;
    let model = RqModel::build(&field, predictor, rate, 42);
    println!(
        "model: {} predictor, {} samples in {:?}",
        predictor.name(),
        model.sample().len(),
        model.build_time()
    );
    let ebs: Vec<f64> = match abs {
        Some(eb) => vec![eb],
        None => (0..6).map(|i| range * 1e-6 * 10f64.powi(i)).collect(),
    };
    println!(
        "{:>12} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "error bound", "bits/val", "ratio", "PSNR(dB)", "SSIM", "p0"
    );
    for eb in ebs {
        let est = model.estimate(eb);
        println!(
            "{eb:>12.3e} {:>10.3} {:>8.2} {:>9.2} {:>9.5} {:>9.4}",
            est.bit_rate, est.ratio, est.psnr, est.ssim, est.p0
        );
    }
    Ok(())
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Emit the header + chunk table as machine-readable JSON (hand-rolled,
/// no dependencies — the structure is flat enough that a serializer
/// would be overkill).
fn print_info_json(input: &str, total_bytes: u64, h: &Header, table: &rq_compress::ChunkTable) {
    println!("{}", info_json_string(input, total_bytes, h, table));
}

/// Build the `rqm info --json` document. Split from the printing so the
/// unit tests can parse the exact bytes a user would see — every float
/// goes through [`json_f64`], so the document stays valid JSON even when
/// a ratio or bound is non-finite.
fn info_json_string(
    input: &str,
    total_bytes: u64,
    h: &Header,
    table: &rq_compress::ChunkTable,
) -> String {
    let scalar_bytes = if h.scalar_tag == 0x04 { 4 } else { 8 };
    let row_elems: usize = h.shape.dims()[1..].iter().product::<usize>().max(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(input)));
    out.push_str("  \"format\": \"rqmc\",\n");
    out.push_str(&format!("  \"generation\": \"{}\",\n", generation_name(h.version)));
    out.push_str(&format!("  \"version_byte\": {},\n", h.version));
    out.push_str(&format!("  \"bytes\": {total_bytes},\n"));
    let dims: Vec<String> = h.shape.dims().iter().map(|d| d.to_string()).collect();
    out.push_str(&format!("  \"shape\": [{}],\n", dims.join(", ")));
    out.push_str(&format!(
        "  \"scalar\": \"{}\",\n",
        if h.scalar_tag == 0x04 { "f32" } else { "f64" }
    ));
    out.push_str(&format!("  \"predictor\": \"{}\",\n", h.predictor.name()));
    out.push_str(&format!("  \"abs_bound\": {},\n", json_f64(h.abs_eb)));
    out.push_str(&format!("  \"radius\": {},\n", h.radius));
    out.push_str(&format!(
        "  \"lossless\": {},\n",
        h.lossless != rq_compress::LosslessStage::None
    ));
    out.push_str(&format!("  \"log_transform\": {},\n", h.log_transform));
    let ratio = (h.shape.len() * scalar_bytes) as f64 / (total_bytes as f64).max(1.0);
    out.push_str(&format!("  \"ratio\": {},\n", json_f64(ratio)));
    out.push_str(&format!("  \"chunk_rows\": {},\n", table.chunk_rows));
    out.push_str("  \"chunks\": [\n");
    for (i, e) in table.entries.iter().enumerate() {
        let chunk_ratio = (e.rows * row_elems * scalar_bytes) as f64 / e.len.max(1) as f64;
        out.push_str(&format!(
            "    {{\"index\": {i}, \"start_row\": {}, \"rows\": {}, \"offset\": {}, \
             \"bytes\": {}, \"codec\": \"{}\", \"eb\": {}, \"ratio\": {}}}{}\n",
            e.start_row,
            e.rows,
            e.offset,
            e.len,
            e.codec.name(),
            json_f64(e.eb),
            json_f64(chunk_ratio),
            if i + 1 < table.entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let json = args.flag("json");
    let mut src = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
    let total_bytes = src.metadata().map_err(|e| format!("{input}: {e}"))?.len();
    let mut magic = [0u8; 6];
    let sniffed = src.read(&mut magic).map_err(|e| format!("{input}: {e}"))?;
    if sniffed >= 6 && is_catalog_magic(&magic) {
        drop(src);
        let reader = CatalogReader::open_path(&input)
            .map_err(|e| format!("not a readable catalog: {e}"))?;
        print_catalog(&input, total_bytes, reader.index(), json);
        return Ok(());
    }
    if sniffed >= 4 && &magic[..4] == b"RQZF" {
        if json {
            println!(
                "{{\n  \"file\": \"{}\",\n  \"format\": \"rqzf\",\n  \"bytes\": {total_bytes}\n}}",
                json_escape(&input)
            );
        } else {
            println!("{input}: RQZF transform-codec stream, {total_bytes} bytes");
        }
        return Ok(());
    }
    // The reader parses only the header and chunk index — `info` never
    // loads the payload, however large the archive.
    drop(src);
    let reader =
        ArchiveReader::open_path(&input).map_err(|e| format!("not a compressed container: {e}"))?;
    let h = reader.header().clone();
    let table = reader.chunk_table();
    if json {
        print_info_json(&input, total_bytes, &h, &table);
        return Ok(());
    }
    println!("{input}: RQMC container v{} ({}), {total_bytes} bytes",
        generation_name(h.version), h.version);
    println!("  shape:      {:?}", h.shape);
    println!("  scalar:     {}", if h.scalar_tag == 0x04 { "f32" } else { "f64" });
    println!("  predictor:  {}", h.predictor.name());
    println!("  abs bound:  {:.6e}", h.abs_eb);
    println!("  radius:     {}", h.radius);
    println!("  lossless:   {:?}", h.lossless);
    println!("  log xform:  {}", h.log_transform);
    let scalar_bytes = if h.scalar_tag == 0x04 { 4 } else { 8 };
    if h.version >= 2 {
        println!("  chunks:     {} × {} rows", table.entries.len(), table.chunk_rows);
        let row_elems: usize = h.shape.dims()[1..].iter().product::<usize>().max(1);
        // Per-chunk bounds only exist in v2.3+ archives (v2.4 keeps the
        // same trailer layout); elsewhere the column would repeat the
        // header bound on every line.
        let planned = h.version >= 5;
        for e in &table.entries {
            // Per-chunk ratio from the chunk index: slab raw size over the
            // blob's compressed size.
            let chunk_ratio = (e.rows * row_elems * scalar_bytes) as f64 / e.len.max(1) as f64;
            let eb_col = if planned { format!(" eb {:>9.3e}", e.eb) } else { String::new() };
            println!(
                "    rows {:>6}..{:<6} {:>10} bytes at {:<10} {:>5}{eb_col} ratio {:>8.2}",
                e.start_row,
                e.start_row + e.rows,
                e.len,
                e.offset,
                e.codec.name(),
                chunk_ratio,
            );
        }
    }
    let ratio = (h.shape.len() * scalar_bytes) as f64 / (total_bytes as f64).max(1.0);
    println!("  ratio:      {ratio:.2}");
    Ok(())
}

/// Summarize a catalog index: one block per dataset, with the per-step
/// segment table and the dataset's overall ratio (raw bytes over segment
/// bytes — the trailer itself is excluded, it is shared bookkeeping).
fn print_catalog(input: &str, total_bytes: u64, index: &CatalogIndex, json: bool) {
    let scalar_name = |tag: u8| if tag == 0x04 { "f32" } else { "f64" };
    let scalar_bytes = |tag: u8| if tag == 0x04 { 4usize } else { 8 };
    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(input)));
        out.push_str("  \"format\": \"rqcat\",\n");
        out.push_str(&format!("  \"version_byte\": {},\n", rq_catalog::CATALOG_VERSION));
        out.push_str(&format!("  \"bytes\": {total_bytes},\n"));
        out.push_str("  \"datasets\": [\n");
        for (i, d) in index.datasets.iter().enumerate() {
            let raw = d.steps.len() * d.shape.len() * scalar_bytes(d.scalar_tag);
            let seg: u64 = d.steps.iter().map(|s| s.len).sum();
            let dims: Vec<String> = d.shape.dims().iter().map(|x| x.to_string()).collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"scalar\": \"{}\", \"shape\": [{}], \
                 \"steps\": {}, \"keyframe_every\": {}, \"abs_bound\": {}, \
                 \"segment_bytes\": {seg}, \"ratio\": {}, \"steps_detail\": [\n",
                json_escape(&d.name),
                scalar_name(d.scalar_tag),
                dims.join(", "),
                d.steps.len(),
                d.keyframe_every,
                json_f64(d.steps[0].eb),
                json_f64(raw as f64 / seg.max(1) as f64),
            ));
            for (t, s) in d.steps.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"step\": {t}, \"keyframe\": {}, \"offset\": {}, \
                     \"bytes\": {}, \"codec\": \"{}\", \"eb\": {}}}{}\n",
                    s.keyframe,
                    s.offset,
                    s.len,
                    s.codec.name(),
                    json_f64(s.eb),
                    if t + 1 < d.steps.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < index.datasets.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
        return;
    }
    println!(
        "{input}: RQCAT catalog v{}, {total_bytes} bytes, {} dataset(s), {} steps",
        rq_catalog::CATALOG_VERSION,
        index.datasets.len(),
        index.total_steps()
    );
    for d in &index.datasets {
        let raw = d.steps.len() * d.shape.len() * scalar_bytes(d.scalar_tag);
        let seg: u64 = d.steps.iter().map(|s| s.len).sum();
        println!(
            "  {}: {} {:?}, {} steps (keyframe every {}), abs bound {:.3e}",
            d.name,
            scalar_name(d.scalar_tag),
            d.shape,
            d.steps.len(),
            d.keyframe_every,
            d.steps[0].eb,
        );
        for (t, s) in d.steps.iter().enumerate() {
            println!(
                "    step {t:>4} {} {:>10} bytes at {:<10} {}",
                if s.keyframe { "key  " } else { "delta" },
                s.len,
                s.offset,
                s.codec.name(),
            );
        }
        println!(
            "    {raw} -> {seg} segment bytes (ratio {:.2})",
            raw as f64 / seg.max(1) as f64
        );
    }
}

/// Large odd stride between per-dataset seeds, so `pack --datasets a,b,c`
/// gets three decorrelated RTM perturbations from one `--seed`.
const PACK_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn cmd_pack(args: &Args) -> Result<(), String> {
    let [_, output] = positional::<2>(args)?;
    let shape = args.shape()?;
    let n_steps = args.unsigned("steps")?.ok_or("pack requires --steps N")?;
    if n_steps == 0 {
        return Err("--steps must be positive".into());
    }
    let eb = args
        .float("abs")?
        .ok_or("pack requires an absolute error bound (--abs EB)")?;
    let keyframe_every = args.unsigned("keyframe-every")?.unwrap_or(4);
    if keyframe_every == 0 {
        return Err("--keyframe-every must be positive".into());
    }
    let mut cfg = CompressorConfig::new(args.predictor()?, ErrorBoundMode::Abs(eb));
    match args.unsigned("chunk-size")? {
        Some(0) => return Err("--chunk-size must be positive".into()),
        Some(rows) => cfg = cfg.chunked(rows),
        None => {}
    }
    let input = args.get("input");
    if input.is_none() {
        // RTM datagen mode: the wave simulator needs a 3-D grid of at
        // least 8 points per axis.
        if shape.ndim() != 3 {
            return Err("pack without --input simulates an RTM wavefield and needs a \
                        3-D --shape (use --input for raw data)"
                .into());
        }
        if shape.dims().iter().any(|&d| d < 8) {
            return Err(format!(
                "RTM datagen needs every extent >= 8, got {:?}",
                shape.dims()
            ));
        }
    }

    let tmp = format!("{output}.rqm-partial");
    let result = (|| -> Result<(u64, usize), String> {
        let sink = std::io::BufWriter::new(
            std::fs::File::create(&tmp).map_err(|e| format!("{tmp}: {e}"))?,
        );
        let mut w = CatalogWriter::create(sink).map_err(|e| format!("{tmp}: {e}"))?;
        let mut n_datasets = 0usize;
        if let Some(inputf) = input {
            // Raw mode: `--steps` concatenated shape-sized f32 fields.
            let name = args.get("dataset").unwrap_or("field");
            let step_shape = shape;
            let stream_shape = {
                let mut dims = [0usize; MAX_DIMS];
                dims[..shape.ndim()].copy_from_slice(shape.dims());
                dims[0] *= n_steps;
                Shape::new(&dims[..shape.ndim()])
            };
            let mut src =
                std::io::BufReader::new(io::open_raw_f32(inputf, stream_shape)?);
            let mut dw = w
                .begin_dataset::<f32>(name, &cfg, keyframe_every, step_shape)
                .map_err(|e| format!("pack failed: {e}"))?;
            for _ in 0..n_steps {
                let slab = io::read_f32_slab(&mut src, step_shape)
                    .map_err(|e| format!("{inputf}: {e}"))?;
                dw.write_step(&slab).map_err(|e| format!("pack failed: {e}"))?;
            }
            dw.finish().map_err(|e| format!("pack failed: {e}"))?;
            n_datasets = 1;
        } else {
            let dims = [shape.dim(0), shape.dim(1), shape.dim(2)];
            let seed = args.unsigned("seed")?.unwrap_or(1) as u64;
            for (i, name) in args.get("datasets").unwrap_or("pressure").split(',').enumerate() {
                let name = name.trim();
                if name.is_empty() {
                    return Err("--datasets contains an empty name".into());
                }
                let steps = rq_datagen::rtm_steps(
                    seed.wrapping_add((i as u64).wrapping_mul(PACK_SEED_STRIDE)),
                    n_steps,
                    dims,
                );
                let mut dw = w
                    .begin_dataset::<f32>(name, &cfg, keyframe_every, shape)
                    .map_err(|e| format!("pack failed: {e}"))?;
                for s in &steps {
                    dw.write_step(s).map_err(|e| format!("pack failed: {e}"))?;
                }
                dw.finish().map_err(|e| format!("pack failed: {e}"))?;
                n_datasets += 1;
            }
        }
        let fin = w.finalize().map_err(|e| format!("pack failed: {e}"))?;
        fin.sink
            .into_inner()
            .map_err(|e| format!("{tmp}: {e}"))?
            .sync_all()
            .map_err(|e| format!("{tmp}: {e}"))?;
        Ok((fin.bytes_written, n_datasets))
    })();
    match result {
        Ok((bytes, n_datasets)) => {
            std::fs::rename(&tmp, &output).map_err(|e| format!("{output}: {e}"))?;
            let raw = n_datasets * n_steps * shape.len() * 4;
            println!(
                "{output}: {n_datasets} dataset(s) × {n_steps} steps (keyframe every \
                 {keyframe_every}), {raw} -> {bytes} bytes (ratio {:.2})",
                raw as f64 / bytes.max(1) as f64
            );
            Ok(())
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

fn cmd_unpack(args: &Args) -> Result<(), String> {
    let [_, input, outdir] = positional::<3>(args)?;
    let only = args.get("dataset");
    let step_sel = args.unsigned("step")?;
    let mut reader =
        CatalogReader::open_path(&input).map_err(|e| format!("not a readable catalog: {e}"))?;
    let selected: Vec<(String, u8, usize, Shape)> = reader
        .datasets()
        .iter()
        .filter(|d| only.is_none_or(|n| n == d.name))
        .map(|d| (d.name.clone(), d.scalar_tag, d.steps.len(), d.shape))
        .collect();
    if selected.is_empty() {
        return Err(format!("{input}: no dataset named '{}'", only.unwrap_or("")));
    }
    std::fs::create_dir_all(&outdir).map_err(|e| format!("{outdir}: {e}"))?;
    for (name, tag, n_steps, shape) in selected {
        let steps: Vec<usize> = match step_sel {
            Some(t) if t >= n_steps => {
                return Err(format!("{name}: step {t} out of range (0..{n_steps})"))
            }
            Some(t) => vec![t],
            None => (0..n_steps).collect(),
        };
        let ext = if tag == 0x04 { "f32" } else { "f64" };
        let file = match step_sel {
            Some(t) => format!("{outdir}/{name}_t{t}.{ext}"),
            None => format!("{outdir}/{name}.{ext}"),
        };
        let scalar_bytes = if tag == 0x04 { 4 } else { 8 };
        let mut raw = Vec::with_capacity(steps.len() * shape.len() * scalar_bytes);
        for &t in &steps {
            match tag {
                0x04 => {
                    let f = reader
                        .read_step::<f32>(&name, t)
                        .map_err(|e| format!("{name} step {t}: {e}"))?;
                    for &v in f.as_slice() {
                        raw.extend_from_slice(&v.to_le_bytes());
                    }
                }
                _ => {
                    let f = reader
                        .read_step::<f64>(&name, t)
                        .map_err(|e| format!("{name} step {t}: {e}"))?;
                    for &v in f.as_slice() {
                        raw.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        io::write_bytes(&file, &raw)?;
        println!(
            "{name}: {} step(s) of {:?} -> {file} ({} bytes)",
            steps.len(),
            shape,
            raw.len()
        );
    }
    Ok(())
}

fn cmd_catalog(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let total_bytes = std::fs::metadata(&input).map_err(|e| format!("{input}: {e}"))?.len();
    let reader =
        CatalogReader::open_path(&input).map_err(|e| format!("not a readable catalog: {e}"))?;
    print_catalog(&input, total_bytes, reader.index(), args.flag("json"));
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let addr = args.get("addr").ok_or("serve requires --addr HOST:PORT")?.to_string();
    let cache_bytes = args.unsigned("cache-bytes")?.unwrap_or(256 << 20) as u64;
    let max_connections = args.unsigned("threads")?.unwrap_or(0);
    let metrics_every = args
        .float("metrics-every")?
        .map(std::time::Duration::from_secs_f64);
    let cfg = ServeConfig { cache_bytes, metrics_every, max_connections };
    let server = Server::bind_path(&addr, std::path::Path::new(&input), cfg)
        .map_err(|e| format!("{input}: {e}"))?;
    let conns = if max_connections == 0 {
        "unlimited connections".to_string()
    } else {
        format!("up to {max_connections} connections")
    };
    println!(
        "serving {input} on {} ({} MiB chunk cache, {conns})",
        server.local_addr(),
        cache_bytes >> 20,
    );
    // Daemon mode: serve until the process is killed. The handler
    // threads do all the work; this thread only keeps `server` alive.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_read(args: &Args) -> Result<(), String> {
    let [_] = positional::<1>(args)?;
    let addr = args.get("addr").ok_or("read requires --addr HOST:PORT")?.to_string();
    let rows = args.get("rows").map(parse_row_range).transpose()?;
    let chunk = args.unsigned("chunk")?;
    if rows.is_some() && chunk.is_some() {
        return Err("--rows and --chunk are mutually exclusive".into());
    }
    if args.flag("list") {
        // Protocol-v2 dataset listing: every server answers (plain
        // archives present themselves as one pseudo-dataset).
        let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let datasets = client.list_datasets().map_err(|e| e.to_string())?;
        println!("{addr}: {} dataset(s)", datasets.len());
        for d in &datasets {
            println!(
                "  [{}] {}: {} {:?}, {} steps (keyframe every {}), {} chunks/step, \
                 abs bound {:.3e}",
                d.index,
                d.name,
                if d.scalar_tag == 0x04 { "f32" } else { "f64" },
                d.step_dims,
                d.n_steps,
                d.keyframe_every,
                d.chunks_per_step,
                d.abs_eb,
            );
        }
        if args.flag("stats") {
            print_server_stats(&mut client)?;
        }
        return Ok(());
    }
    if let Some(name) = args.get("dataset") {
        if chunk.is_some() {
            return Err("--dataset selects with --step/--rows, not --chunk".into());
        }
        let step = args.unsigned("step")?.unwrap_or(0) as u64;
        let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let ds = client
            .list_datasets()
            .map_err(|e| e.to_string())?
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("{addr}: no dataset named '{name}'"))?;
        let (start, end) = rows.unwrap_or((0, ds.step_rows()));
        let raw = match ds.scalar_tag {
            0x04 => step_scalars::<f32>(&mut client, &ds, step, start..end)?,
            0x08 => step_scalars::<f64>(&mut client, &ds, step, start..end)?,
            t => return Err(format!("dataset holds unsupported scalar tag {t:#04x}")),
        };
        if let Some(out) = args.get("out") {
            io::write_bytes(out, &raw)?;
            println!(
                "{addr} {name} step {step} rows {start}..{end}: {} bytes -> {out}",
                raw.len()
            );
        } else {
            println!(
                "{addr} {name} step {step} rows {start}..{end}: {} bytes (step shape \
                 {:?}, {} steps)",
                raw.len(),
                ds.step_dims,
                ds.n_steps
            );
        }
        if args.flag("stats") {
            print_server_stats(&mut client)?;
        }
        return Ok(());
    }
    let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    let info = client.info().clone();
    // The server holds either f32 or f64; fetch with the matching type
    // and write raw little-endian scalars either way.
    let fetched: Result<(usize, usize, Vec<u8>), String> = match info.scalar_tag {
        0x04 => fetch_scalars::<f32>(&mut client, &info, &rows, chunk),
        0x08 => fetch_scalars::<f64>(&mut client, &info, &rows, chunk),
        t => Err(format!("archive holds unsupported scalar tag {t:#04x}")),
    };
    let (start, nrows, raw) = fetched?;
    if let Some(out) = args.get("out") {
        io::write_bytes(out, &raw)?;
        println!(
            "{addr} rows {start}..{}: {} bytes -> {out} (shape {:?}, {} chunks)",
            start + nrows,
            raw.len(),
            info.dims,
            info.n_chunks
        );
    } else {
        println!(
            "{addr} rows {start}..{}: {} bytes (shape {:?}, {} chunks of {} rows)",
            start + nrows,
            raw.len(),
            info.dims,
            info.n_chunks,
            info.chunk_rows
        );
    }
    if args.flag("stats") {
        print_server_stats(&mut client)?;
    }
    Ok(())
}

/// Print the server's counters (the `--stats` flag of `rqm read`).
fn print_server_stats(client: &mut Client) -> Result<(), String> {
    let s = client.stats().map_err(|e| e.to_string())?;
    let lookups = s.cache.hits + s.cache.misses;
    let hit_pct = if lookups == 0 { 0.0 } else { 100.0 * s.cache.hits as f64 / lookups as f64 };
    println!(
        "server: {} requests, {} errors, {} connections, {} bytes out",
        s.requests, s.errors, s.connections, s.bytes_out
    );
    println!(
        "cache:  {:.1}% hit ({} hits / {} misses), {} coalesced, {} evicted, {} bytes resident (peak {}), {} chunks decoded",
        hit_pct,
        s.cache.hits,
        s.cache.misses,
        s.cache.coalesced_waits,
        s.cache.evictions,
        s.cache.bytes_cached,
        s.cache.bytes_peak,
        s.chunks_decoded
    );
    Ok(())
}

/// Fetch a row range of one step of a served dataset as raw
/// little-endian bytes.
fn step_scalars<T: rq_grid::Scalar>(
    client: &mut Client,
    ds: &DatasetInfo,
    step: u64,
    rows: std::ops::Range<usize>,
) -> Result<Vec<u8>, String> {
    let slab = client.read_step_rows::<T>(ds, step, rows).map_err(|e| e.to_string())?;
    let mut raw = Vec::with_capacity(slab.len() * T::BYTES);
    for &v in slab.as_slice() {
        v.write_le(&mut raw);
    }
    Ok(raw)
}

/// Fetch the requested rows/chunk as raw little-endian bytes; returns
/// `(first_row, row_count, bytes)`.
fn fetch_scalars<T: rq_grid::Scalar>(
    client: &mut Client,
    info: &rq_serve::ArchiveInfo,
    rows: &Option<(usize, usize)>,
    chunk: Option<usize>,
) -> Result<(usize, usize, Vec<u8>), String> {
    let (start, slab) = if let Some(idx) = chunk {
        client.read_chunk::<T>(idx).map_err(|e| e.to_string())?
    } else {
        let (start, end) = rows.unwrap_or((0, info.rows()));
        (start, client.read_rows::<T>(start..end).map_err(|e| e.to_string())?)
    };
    let vals = slab.as_slice();
    let mut raw = Vec::with_capacity(vals.len() * T::BYTES);
    for &v in vals {
        v.write_le(&mut raw);
    }
    Ok((start, slab.shape().dim(0), raw))
}

/// Parse `A..B` into `(A, B)`.
fn parse_row_range(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s.split_once("..").ok_or_else(|| format!("--rows wants A..B, got '{s}'"))?;
    let a: usize = a.parse().map_err(|_| format!("bad row '{a}'"))?;
    let b: usize = b.parse().map_err(|_| format!("bad row '{b}'"))?;
    if a >= b {
        return Err(format!("--rows range {a}..{b} is empty"));
    }
    Ok((a, b))
}

/// Exactly `N` positional arguments (including the command) or an error.
fn positional<const N: usize>(args: &Args) -> Result<[String; N], String> {
    if args.positional.len() != N {
        return Err(format!(
            "expected {} positional arguments, got {}",
            N - 1,
            args.positional.len() - 1
        ));
    }
    Ok(std::array::from_fn(|i| args.positional[i].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_compress::peek_header;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rqm_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run_args(v: &[&str]) -> Result<(), String> {
        run(v.iter().map(|s| s.to_string()).collect())
    }

    fn write_field(path: &std::path::Path) -> NdArray<f32> {
        let f = NdArray::<f32>::from_fn(Shape::d2(20, 30), |ix| {
            ((ix[0] as f32) * 0.3).sin() + ix[1] as f32 * 0.05
        });
        io::write_raw_f32(path.to_str().unwrap(), &f).unwrap();
        f
    }

    #[test]
    fn compress_decompress_cycle() {
        let raw = tmp("a.f32");
        let rqc = tmp("a.rqc");
        let back = tmp("a.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
        ])
        .unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
    }

    #[test]
    fn parallel_compress_decompress_cycle() {
        let raw = tmp("p.f32");
        let rqc = tmp("p.rqc");
        let back = tmp("p.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--threads",
            "2",
            "--chunk-size",
            "6",
        ])
        .unwrap();
        // Chunked CLI compression streams through the writer session:
        // container v2.2 (version byte 4, trailer index).
        let h = peek_header(&io::read_bytes(rqc.to_str().unwrap()).unwrap()).unwrap();
        assert_eq!(h.version, 4);
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["info", rqc.to_str().unwrap(), "--json"]).unwrap();
        run_args(&[
            "decompress",
            rqc.to_str().unwrap(),
            back.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
        assert!(
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-3",
                "--chunk-size",
                "0",
            ])
            .is_err(),
            "zero chunk size must be rejected"
        );
    }

    #[test]
    fn zfp_codec_cycle() {
        let raw = tmp("z.f32");
        let rqz = tmp("z.rqz");
        let back = tmp("z.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqz.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-2",
            "--codec",
            "zfp",
        ])
        .unwrap();
        run_args(&["decompress", rqz.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-2 * 1.001);
        }
    }

    #[test]
    fn zfp_codec_refuses_non_finite_input() {
        // ZFP has no verbatim path: it used to decode NaN and ±inf as
        // small finite numbers without a word. It must refuse instead,
        // while `auto` routes the chunk elsewhere and keeps the value.
        let raw = tmp("znf.f32");
        let rqc = tmp("znf.rqc");
        let back = tmp("znf.out.f32");
        let mut f = NdArray::<f32>::from_fn(Shape::d2(20, 30), |ix| (ix[0] * 30 + ix[1]) as f32);
        f.as_mut_slice()[77] = f32::NAN;
        f.as_mut_slice()[300] = f32::NEG_INFINITY;
        io::write_raw_f32(raw.to_str().unwrap(), &f).unwrap();
        let compress_with = |codec: &str| {
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-2",
                "--codec",
                codec,
            ])
        };
        let err = compress_with("zfp").expect_err("zfp must refuse NaN");
        assert!(err.contains("non-finite"), "{err}");
        compress_with("auto").unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        assert!(g.as_slice()[77].is_nan());
        assert_eq!(g.as_slice()[300], f32::NEG_INFINITY);
    }

    #[test]
    fn rolz_codec_cycle() {
        let raw = tmp("rz.f32");
        let rqc = tmp("rz.rqc");
        let back = tmp("rz.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--codec",
            "rolz",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 6, "rolz codec writes v2.4");
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
    }

    #[test]
    fn auto_codec_cycle() {
        let raw = tmp("ac.f32");
        let rqc = tmp("ac.rqc");
        let back = tmp("ac.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--codec",
            "auto",
            "--chunk-size",
            "5",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 6, "auto codec writes v2.4");
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
        assert!(
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-3",
                "--codec",
                "dct",
            ])
            .is_err(),
            "unknown codec must be rejected"
        );
    }

    #[test]
    fn rel_bound_streams_with_prepass() {
        // --rel on the chunked (streaming) path: the CLI resolves the
        // bound with a min/max pre-pass; the result must match the
        // in-memory pipeline's resolution and hold element-wise.
        let raw = tmp("r.f32");
        let rqc = tmp("r.rqc");
        let back = tmp("r.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--rel",
            "1e-3",
            "--chunk-size",
            "7",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        let h = peek_header(&bytes).unwrap();
        let range = f.value_range();
        assert!((h.abs_eb - 1e-3 * range).abs() <= 1e-12 * range);
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() as f64 <= h.abs_eb * 1.001);
        }
    }

    /// Measured PSNR between two equal-length f32 fields (range-based, as
    /// `rq-analysis` defines it; inlined so the CLI crate stays free of a
    /// dev-dependency on the analysis crate).
    fn measured_psnr(a: &NdArray<f32>, b: &NdArray<f32>) -> f64 {
        let range = a.value_range();
        let mse = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / a.len() as f64;
        20.0 * range.log10() - 10.0 * mse.log10()
    }

    /// A field with quiet and loud axis-0 regions, so per-chunk planning
    /// has real heterogeneity to exploit.
    fn write_mixed_field(path: &std::path::Path) -> NdArray<f32> {
        let f = NdArray::<f32>::from_fn(Shape::d2(40, 30), |ix| {
            let base = ((ix[0] as f32) * 0.3).sin() + ix[1] as f32 * 0.05;
            if ix[0] < 20 {
                base * 0.01
            } else {
                let mut h = (ix[0] * 31 + ix[1]) as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 33;
                base + ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) as f32 * 4.0
            }
        });
        io::write_raw_f32(path.to_str().unwrap(), &f).unwrap();
        f
    }

    #[test]
    fn target_psnr_cycle_meets_floor() {
        let raw = tmp("tp.f32");
        let rqc = tmp("tp.rqc");
        let back = tmp("tp.out.f32");
        let f = write_mixed_field(&raw);
        let target = 55.0;
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "40x30",
            "--target-psnr",
            "55",
            "--chunk-size",
            "10",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 5, "targeted CLI writes v2.3");
        // The plan must actually vary across the quiet/loud chunks.
        let table = rq_compress::chunk_table(&bytes).unwrap();
        let ebs: Vec<f64> = table.entries.iter().map(|e| e.eb).collect();
        assert!(ebs.iter().any(|&e| e != ebs[0]), "plan is uniform: {ebs:?}");
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["info", rqc.to_str().unwrap(), "--json"]).unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(40, 30)).unwrap();
        let psnr = measured_psnr(&f, &g);
        assert!(psnr >= target - 0.5, "measured {psnr:.2} dB < floor {}", target - 0.5);
    }

    #[test]
    fn estimate_rejects_bad_bounds_and_rates() {
        // Each of these used to panic (exit 101) inside the model.
        let raw = tmp("est.f32");
        write_field(&raw);
        let r = raw.to_str().unwrap();
        for (flag, value) in
            [("--abs", "0"), ("--abs", "nan"), ("--abs", "-1e-3"), ("--abs", "inf")]
        {
            let err = run_args(&["estimate", r, "--shape", "20x30", flag, value]).unwrap_err();
            assert!(err.contains("--abs"), "{flag} {value}: {err}");
        }
        for value in ["0", "5", "nan", "-0.5"] {
            let err = run_args(&["estimate", r, "--shape", "20x30", "--rate", value]).unwrap_err();
            assert!(err.contains("--rate"), "--rate {value}: {err}");
        }
        run_args(&["estimate", r, "--shape", "20x30", "--rate", "1", "--abs", "1e-3"]).unwrap();
    }

    #[test]
    fn estimate_on_a_constant_field_asks_for_abs() {
        let raw = tmp("est_const.f32");
        let f = NdArray::<f32>::from_fn(Shape::d2(16, 16), |_| 2.5);
        io::write_raw_f32(raw.to_str().unwrap(), &f).unwrap();
        let r = raw.to_str().unwrap();
        let err = run_args(&["estimate", r, "--shape", "16x16"]).unwrap_err();
        assert!(err.contains("--abs"), "{err}");
        run_args(&["estimate", r, "--shape", "16x16", "--abs", "1e-3"]).unwrap();
    }

    /// FNV-1a 64 over a byte string.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn target_psnr_archive_bytes_are_pinned() {
        // The model's estimate path is tuned for speed under the promise
        // that plans, and therefore archives, stay bit-identical: length
        // and hash were recorded with the original `BTreeMap` histogram
        // and 100-step bisections (x86_64 Linux, glibc libm).
        let raw = tmp("tpin.f32");
        let rqc = tmp("tpin.rqc");
        let (rows, cols) = (64usize, 256usize);
        let mut st = 0x007A_26E7u64;
        let f = NdArray::<f32>::from_fn(Shape::d2(rows, cols), |ix| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            let noise = (st >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let (r, c) = (ix[0] as f64, ix[1] as f64);
            if (16..24).contains(&ix[0]) && c < 128.0 {
                return 0.0;
            }
            let amp = if ix[0] < 32 { 0.001 } else { 0.2 };
            ((r * 0.09).sin() * 3.0 + (c * 0.04).cos() + noise * amp) as f32
        });
        io::write_raw_f32(raw.to_str().unwrap(), &f).unwrap();
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "64x256",
            "--target-psnr",
            "60",
            "--chunk-size",
            "8",
            "--threads",
            "2",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        let ebs: Vec<f64> =
            rq_compress::chunk_table(&bytes).unwrap().entries.iter().map(|e| e.eb).collect();
        assert!(ebs.iter().any(|&e| e != ebs[0]), "plan is uniform: {ebs:?}");
        assert_eq!((bytes.len(), fnv1a64(&bytes)), (6808, 0x62a6_7c0d_c82e_ed0c));
    }

    /// A 48×64 field in three bands of 16 rows that `auto` at `--abs
    /// 1e-4` sends to three different codecs: smooth (SZ), a period-8
    /// texture (ROLZ) and high-amplitude noise (ZFP).
    fn write_three_codec_field(path: &std::path::Path) {
        let mut st = 0xDEAD_BEEFu64;
        let f = NdArray::<f32>::from_fn(Shape::d2(48, 64), |ix| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            let noise = ((st >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32;
            match ix[0] / 16 {
                0 => ((ix[0] as f64 * 0.2).sin() + (ix[1] as f64 * 0.1).sin() / 2.0) as f32,
                1 => ((ix[0] + 3 * ix[1]) % 8) as f32 * 0.37,
                _ => noise * 50.0,
            }
        });
        io::write_raw_f32(path.to_str().unwrap(), &f).unwrap();
    }

    #[test]
    fn zfp_and_auto_archive_bytes_are_pinned() {
        // The ZFP bitplane coder is tuned for speed under the promise that
        // its RQZF stream, and therefore every archive holding ZFP chunks,
        // stays byte-identical: lengths and hashes were recorded with the
        // original per-bit coder.
        let raw = tmp("zpin.f32");
        let rqc = tmp("zpin.rqc");
        write_three_codec_field(&raw);
        let compress_with = |codec: &str| {
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "48x64",
                "--abs",
                "1e-4",
                "--codec",
                codec,
                "--chunk-size",
                "8",
                "--threads",
                "2",
            ])
            .unwrap();
            io::read_bytes(rqc.to_str().unwrap()).unwrap()
        };
        let zfp = compress_with("zfp");
        assert_eq!((zfp.len(), fnv1a64(&zfp)), (7024, 0x4790_5a6f_a363_9222));
        let auto = compress_with("auto");
        let table = rq_compress::chunk_table(&auto).unwrap();
        for kind in [ChunkCodecKind::Sz, ChunkCodecKind::Zfp, ChunkCodecKind::Rolz] {
            assert!(table.entries.iter().any(|e| e.codec == kind), "no {kind:?} chunk");
        }
        assert_eq!((auto.len(), fnv1a64(&auto)), (4336, 0x4ab7_e5f6_3c5a_623a));

        // A 3D field with partial edge blocks on every axis.
        let raw3 = tmp("zpin3.f32");
        let rqc3 = tmp("zpin3.rqc");
        let f3 = NdArray::<f32>::from_fn(Shape::d3(13, 18, 23), |ix| {
            ((ix[0] as f32 * 0.4).sin() + (ix[1] as f32 * 0.3).cos()) * ix[2] as f32 * 0.1
        });
        io::write_raw_f32(raw3.to_str().unwrap(), &f3).unwrap();
        run_args(&[
            "compress",
            raw3.to_str().unwrap(),
            rqc3.to_str().unwrap(),
            "--shape",
            "13x18x23",
            "--abs",
            "1e-5",
            "--codec",
            "zfp",
            "--chunk-size",
            "5",
        ])
        .unwrap();
        let zfp3 = io::read_bytes(rqc3.to_str().unwrap()).unwrap();
        assert_eq!((zfp3.len(), fnv1a64(&zfp3)), (7057, 0xe81f_fbac_4327_8aff));
    }

    #[test]
    fn target_size_cycle_fits_budget() {
        let raw = tmp("ts.f32");
        let rqc = tmp("ts.rqc");
        let back = tmp("ts.out.f32");
        write_mixed_field(&raw);
        let budget = 40 * 30 * 4 / 8; // 4 bits/value
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "40x30",
            "--target-size",
            &budget.to_string(),
            "--chunk-size",
            "10",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 5);
        assert!(
            bytes.len() <= budget,
            "archive {} B over the {budget} B ceiling",
            bytes.len()
        );
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn target_flags_are_mutually_exclusive_and_validated() {
        let raw = tmp("tx.f32");
        write_mixed_field(&raw);
        let r = raw.to_str().unwrap();
        for conflict in [
            vec!["--abs", "1e-3", "--target-psnr", "60"],
            vec!["--rel", "1e-3", "--target-size", "100"],
            vec!["--target-psnr", "60", "--target-size", "100"],
        ] {
            let mut v = vec!["compress", r, "/tmp/never.rqc", "--shape", "40x30"];
            v.extend(conflict.iter());
            assert!(run_args(&v).is_err(), "{conflict:?} must be rejected");
        }
        assert!(
            run_args(&[
                "compress", r, "/tmp/never.rqc", "--shape", "40x30", "--target-size", "0"
            ])
            .is_err(),
            "zero budget must be rejected"
        );
        // An unreachable target surfaces the planner's typed error as
        // InvalidConfig, not a panic or a silently lossier archive.
        let err = run_args(&[
            "compress",
            r,
            "/tmp/never.rqc",
            "--shape",
            "40x30",
            "--target-size",
            "30",
        ])
        .unwrap_err();
        assert!(err.contains("invalid configuration"), "got: {err}");
    }

    #[test]
    fn estimate_and_info_run() {
        let raw = tmp("e.f32");
        let rqc = tmp("e.rqc");
        write_field(&raw);
        run_args(&["estimate", raw.to_str().unwrap(), "--shape", "20x30"]).unwrap();
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--predictor",
            "lorenzo",
        ])
        .unwrap();
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn failed_decompress_leaves_existing_output_intact() {
        // A corrupt archive must neither clobber an existing output file
        // nor leave a partial one behind.
        let raw = tmp("nc.f32");
        let rqc = tmp("nc.rqc");
        let out = tmp("nc.out.f32");
        write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--chunk-size",
            "6",
        ])
        .unwrap();
        // Corrupt a blob byte (keep header + trailer parseable so the
        // failure happens mid-decode, after some chunks succeeded).
        let mut bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        let table = rq_compress::chunk_table(&bytes).unwrap();
        let last = table.entries.last().unwrap();
        bytes[last.offset + last.len / 2] ^= 0xff;
        bytes[last.offset + last.len / 2 + 1] ^= 0xff;
        io::write_bytes(rqc.to_str().unwrap(), &bytes).unwrap();
        std::fs::write(&out, b"precious").unwrap();
        let r = run_args(&["decompress", rqc.to_str().unwrap(), out.to_str().unwrap()]);
        if r.is_err() {
            assert_eq!(std::fs::read(&out).unwrap(), b"precious", "output clobbered");
            assert!(
                !std::path::Path::new(&format!("{}.rqm-partial", out.display())).exists(),
                "partial temp file left behind"
            );
        }
        // (A flip inside an entropy payload can decode "successfully" to
        // wrong data — that case is allowed; the guarantee under test is
        // only about the failure path.)
    }

    #[test]
    fn error_cases() {
        assert!(run_args(&[]).is_err());
        assert!(run_args(&["frobnicate"]).is_err());
        assert!(run_args(&["compress", "a", "b", "--shape", "4x4"]).is_err(), "no bound");
        assert!(
            run_args(&["compress", "a", "b", "--shape", "4x4", "--abs", "1", "--rel", "1"])
                .is_err(),
            "conflicting bounds"
        );
        assert!(run_args(&["decompress", "/nonexistent/x", "/tmp/y"]).is_err());
        assert!(run_args(&["serve", "/nonexistent/x", "--addr", "127.0.0.1:0"]).is_err());
        assert!(run_args(&["read"]).is_err(), "read requires --addr");
        assert!(
            run_args(&["read", "--addr", "x", "--rows", "5..3"]).is_err(),
            "empty row range"
        );
    }

    #[test]
    fn read_fetches_rows_from_a_served_archive() {
        let raw = tmp("srv.f32");
        let rqc = tmp("srv.rqc");
        let fetched = tmp("srv.rows.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--chunk-size",
            "6",
        ])
        .unwrap();
        // `cmd_serve` blocks forever by design; drive `rqm read` against
        // a server owned by the test instead.
        let server =
            Server::bind_path("127.0.0.1:0", &rqc, ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        run_args(&[
            "read",
            "--addr",
            &addr,
            "--rows",
            "3..17",
            "--out",
            fetched.to_str().unwrap(),
            "--stats",
        ])
        .unwrap();
        let got = io::read_raw_f32(fetched.to_str().unwrap(), Shape::d2(14, 30)).unwrap();
        for (a, b) in got.as_slice().iter().zip(&f.as_slice()[3 * 30..17 * 30]) {
            assert!((a - b).abs() <= 1e-3 * 1.0001);
        }
        // Whole-field fetch (no --rows/--chunk) and single-chunk fetch.
        run_args(&["read", "--addr", &addr, "--chunk", "1"]).unwrap();
        run_args(&["read", "--addr", &addr]).unwrap();
        assert!(run_args(&["read", "--addr", &addr, "--rows", "0..99"]).is_err());
        server.shutdown();
    }

    /// The acceptance path end to end: `pack` an RTM catalog of 3
    /// datasets × 8 steps, `unpack` it, and check every step of every
    /// dataset against a fresh run of the same seeded simulation.
    #[test]
    fn pack_unpack_roundtrip_meets_bound_on_every_step() {
        let cat = tmp("cat.rqc");
        let outdir = tmp("cat_unpacked");
        let eb = 1e-3f32;
        run_args(&[
            "pack",
            cat.to_str().unwrap(),
            "--steps",
            "8",
            "--shape",
            "12x10x8",
            "--abs",
            "1e-3",
            "--datasets",
            "pressure,vx,vz",
            "--keyframe-every",
            "3",
            "--seed",
            "7",
        ])
        .unwrap();
        run_args(&["catalog", cat.to_str().unwrap()]).unwrap();
        run_args(&["catalog", cat.to_str().unwrap(), "--json"]).unwrap();
        // `info` sniffs the RQCAT magic and prints the same summary.
        run_args(&["info", cat.to_str().unwrap()]).unwrap();
        run_args(&["info", cat.to_str().unwrap(), "--json"]).unwrap();
        run_args(&["unpack", cat.to_str().unwrap(), outdir.to_str().unwrap()]).unwrap();
        for (i, name) in ["pressure", "vx", "vz"].iter().enumerate() {
            let truth = rq_datagen::rtm_steps(
                7u64.wrapping_add((i as u64).wrapping_mul(PACK_SEED_STRIDE)),
                8,
                [12, 10, 8],
            );
            let path = outdir.join(format!("{name}.f32"));
            let got =
                io::read_raw_f32(path.to_str().unwrap(), Shape::d2(8, 12 * 10 * 8)).unwrap();
            for (t, step) in truth.iter().enumerate() {
                let rows = &got.as_slice()[t * step.len()..(t + 1) * step.len()];
                for (&a, &b) in step.as_slice().iter().zip(rows) {
                    assert!(
                        (a - b).abs() <= eb * 1.001,
                        "{name} step {t}: |{a} - {b}| > {eb}"
                    );
                }
            }
        }
        // Single-step single-dataset extraction.
        run_args(&[
            "unpack",
            cat.to_str().unwrap(),
            outdir.to_str().unwrap(),
            "--dataset",
            "vx",
            "--step",
            "5",
        ])
        .unwrap();
        assert!(outdir.join("vx_t5.f32").exists());
        // A catalog is not a single-field archive.
        assert!(
            run_args(&["decompress", cat.to_str().unwrap(), "/tmp/never.f32"]).is_err(),
            "decompress must redirect catalogs to unpack"
        );
    }

    #[test]
    fn pack_from_raw_input_roundtrips() {
        let raw = tmp("pk.f32");
        let cat = tmp("pk.rqc");
        let outdir = tmp("pk_unpacked");
        // 5 steps of a smooth drifting 2-D field, concatenated raw.
        let steps: Vec<NdArray<f32>> = (0..5)
            .map(|t| {
                NdArray::from_fn(Shape::d2(10, 12), |ix| {
                    ((ix[0] as f32) * 0.4 + t as f32 * 0.07).sin() + ix[1] as f32 * 0.03
                })
            })
            .collect();
        let mut bytes = Vec::new();
        for s in &steps {
            for &v in s.as_slice() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        io::write_bytes(raw.to_str().unwrap(), &bytes).unwrap();
        run_args(&[
            "pack",
            cat.to_str().unwrap(),
            "--input",
            raw.to_str().unwrap(),
            "--dataset",
            "wave",
            "--steps",
            "5",
            "--shape",
            "10x12",
            "--abs",
            "1e-4",
            "--keyframe-every",
            "2",
        ])
        .unwrap();
        run_args(&["unpack", cat.to_str().unwrap(), outdir.to_str().unwrap()]).unwrap();
        let got = io::read_raw_f32(
            outdir.join("wave.f32").to_str().unwrap(),
            Shape::d2(5, 120),
        )
        .unwrap();
        for (t, s) in steps.iter().enumerate() {
            for (&a, &b) in s.as_slice().iter().zip(&got.as_slice()[t * 120..(t + 1) * 120]) {
                assert!((a - b).abs() <= 1e-4 * 1.001, "step {t}");
            }
        }
    }

    #[test]
    fn read_list_and_dataset_from_a_served_catalog() {
        let cat = tmp("rsc.rqc");
        let fetched = tmp("rsc.step.f32");
        run_args(&[
            "pack",
            cat.to_str().unwrap(),
            "--steps",
            "4",
            "--shape",
            "10x8x8",
            "--abs",
            "1e-3",
            "--datasets",
            "p,q",
            "--keyframe-every",
            "2",
            "--seed",
            "3",
        ])
        .unwrap();
        let server = Server::bind_path("127.0.0.1:0", &cat, ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        run_args(&["read", "--addr", &addr, "--list", "--stats"]).unwrap();
        run_args(&[
            "read",
            "--addr",
            &addr,
            "--dataset",
            "q",
            "--step",
            "3",
            "--rows",
            "2..7",
            "--out",
            fetched.to_str().unwrap(),
        ])
        .unwrap();
        // The served rows must match the local decode of the same step.
        let mut local = CatalogReader::open_path(cat.to_str().unwrap()).unwrap();
        let step = local.read_step::<f32>("q", 3).unwrap();
        let got = io::read_raw_f32(fetched.to_str().unwrap(), Shape::d2(5, 64)).unwrap();
        for (&a, &b) in got.as_slice().iter().zip(&step.as_slice()[2 * 64..7 * 64]) {
            assert_eq!(a, b, "served bytes differ from the local decode");
        }
        assert!(
            run_args(&["read", "--addr", &addr, "--dataset", "nosuch"]).is_err(),
            "unknown dataset must error"
        );
        assert!(
            run_args(&["read", "--addr", &addr, "--dataset", "q", "--step", "9"]).is_err(),
            "out-of-range step must error"
        );
        server.shutdown();
    }

    #[test]
    fn pack_error_cases() {
        let cat = "/tmp/never_pack.rqc";
        // Zero steps, zero cadence, non-3D RTM shape, sub-8 RTM extents,
        // missing bound.
        assert!(run_args(&["pack", cat, "--steps", "0", "--shape", "8x8x8", "--abs", "1e-3"])
            .is_err());
        assert!(run_args(&[
            "pack", cat, "--steps", "4", "--shape", "8x8x8", "--abs", "1e-3",
            "--keyframe-every", "0"
        ])
        .is_err());
        assert!(
            run_args(&["pack", cat, "--steps", "4", "--shape", "8x8", "--abs", "1e-3"]).is_err(),
            "RTM needs 3-D"
        );
        assert!(
            run_args(&["pack", cat, "--steps", "4", "--shape", "8x8x4", "--abs", "1e-3"])
                .is_err(),
            "RTM needs extents >= 8"
        );
        assert!(run_args(&["pack", cat, "--steps", "4", "--shape", "8x8x8"]).is_err());
        assert!(
            !std::path::Path::new(cat).exists() && !std::path::Path::new(&format!("{cat}.rqm-partial")).exists(),
            "failed pack left files behind"
        );
        assert!(run_args(&["unpack", "/nonexistent/x.rqc", "/tmp/never_out"]).is_err());
        assert!(run_args(&["catalog", "/nonexistent/x.rqc"]).is_err());
    }

    /// Strict minimal JSON value parser: returns the rest of the input on
    /// success. Rejects `NaN`/`inf` tokens (JSON has no such literals),
    /// which is the whole point — the hand-rolled writers must never emit
    /// them.
    fn json_value(s: &str) -> Result<&str, String> {
        let s = s.trim_start();
        let mut c = s.chars();
        match c.next().ok_or("unexpected end of input")? {
            '{' => {
                let mut s = s[1..].trim_start();
                if let Some(rest) = s.strip_prefix('}') {
                    return Ok(rest);
                }
                loop {
                    s = s.trim_start();
                    if !s.starts_with('"') {
                        return Err(format!("expected object key at {:?}", &s[..s.len().min(20)]));
                    }
                    s = json_value(s)?.trim_start();
                    s = s.strip_prefix(':').ok_or("expected ':'")?;
                    s = json_value(s)?.trim_start();
                    if let Some(rest) = s.strip_prefix(',') {
                        s = rest;
                    } else {
                        return s.strip_prefix('}').ok_or_else(|| "expected '}'".into());
                    }
                }
            }
            '[' => {
                let mut s = s[1..].trim_start();
                if let Some(rest) = s.strip_prefix(']') {
                    return Ok(rest);
                }
                loop {
                    s = json_value(s)?.trim_start();
                    if let Some(rest) = s.strip_prefix(',') {
                        s = rest;
                    } else {
                        return s.strip_prefix(']').ok_or_else(|| "expected ']'".into());
                    }
                }
            }
            '"' => {
                let mut rest = &s[1..];
                loop {
                    let i = rest.find('"').ok_or("unterminated string")?;
                    // Count the backslashes immediately before the quote.
                    let esc = rest[..i].chars().rev().take_while(|&c| c == '\\').count();
                    if esc % 2 == 0 {
                        return Ok(&rest[i + 1..]);
                    }
                    rest = &rest[i + 1..];
                }
            }
            't' => s.strip_prefix("true").ok_or_else(|| "bad literal".into()),
            'f' => s.strip_prefix("false").ok_or_else(|| "bad literal".into()),
            'n' => s.strip_prefix("null").ok_or_else(|| "bad literal".into()),
            '-' | '0'..='9' => {
                let end = s
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(s.len());
                s[..end]
                    .parse::<f64>()
                    .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
                Ok(&s[end..])
            }
            other => Err(format!("unexpected character {other:?}")),
        }
    }

    /// Parse a complete JSON document; panic with context on failure.
    fn assert_valid_json(doc: &str) {
        let rest = json_value(doc).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{doc}"));
        assert!(rest.trim().is_empty(), "trailing garbage after JSON value: {rest:?}");
    }

    #[test]
    fn info_json_is_valid_for_real_archives() {
        let raw = tmp("ij.f32");
        let rqc = tmp("ij.rqc");
        write_field(&raw);
        for codec in ["sz", "zfp", "rolz", "auto"] {
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-3",
                "--codec",
                codec,
                "--chunk-size",
                "7",
            ])
            .unwrap();
            let reader = ArchiveReader::open_path(rqc.to_str().unwrap()).unwrap();
            let total = std::fs::metadata(&rqc).unwrap().len();
            let doc =
                info_json_string(rqc.to_str().unwrap(), total, reader.header(), &reader.chunk_table());
            assert_valid_json(&doc);
            if codec == "rolz" {
                assert!(doc.contains("\"codec\": \"rolz\""), "rolz tag missing:\n{doc}");
                assert!(doc.contains("\"generation\": \"2.4\""), "v2.4 generation missing:\n{doc}");
            }
        }
    }

    #[test]
    fn info_json_maps_non_finite_floats_to_null() {
        // A hand-built header/table with poisoned floats: the document
        // must still parse, with `null` standing in for every bad value.
        let h = Header {
            version: 6,
            scalar_tag: 0x04,
            predictor: rq_predict::PredictorKind::Lorenzo,
            lossless: rq_compress::LosslessStage::None,
            log_transform: false,
            shape: Shape::d2(4, 4),
            abs_eb: f64::NAN,
            radius: 512,
        };
        let table = rq_compress::ChunkTable {
            chunk_rows: 4,
            entries: vec![rq_compress::ChunkEntry {
                start_row: 0,
                rows: 4,
                offset: 32,
                len: 10,
                codec: ChunkCodecKind::Rolz,
                eb: f64::INFINITY,
            }],
        };
        let doc = info_json_string("x\"y.rqc", 42, &h, &table);
        assert_valid_json(&doc);
        assert!(doc.contains("\"abs_bound\": null"), "NaN bound not null:\n{doc}");
        assert!(doc.contains("\"eb\": null"), "infinite eb not null:\n{doc}");
    }
}
