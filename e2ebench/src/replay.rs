//! Traced, single-threaded replay of the field workloads through the
//! library's public functions: the same steps `rqm compress` and `rqm
//! decompress` take, with a span around every call into a layer.
//!
//! The replay's archives are compared byte for byte with the CLI's for
//! the same inputs, so a drift between this copy of the CLI's steps and
//! the CLI itself shows up as a failed check.

use crate::common::{read_f32_file, read_f32_slab, slab_shape, Checks, Outcome};
use crate::fields::{self, Kind, CHUNK_ROWS, PSNR_FLOOR, REL_BOUND};
use crate::inputs::Field;
use crate::stats::{mean, median};
use crate::trace::{self, Tracer};
use rq_compress::{
    choose_codec, ArchiveReader, ArchiveWriter, ChunkCodec, ChunkCodecKind, CodecChoice,
    CompressorConfig, Header, RolzChunkCodec, SzChunkCodec, ZfpChunkCodec,
};
use rq_core::usecases::{optimize_partitions_corrected, PlanCorrection};
use rq_core::RqModel;
use rq_grid::{slab_chunks, Shape};
use rq_predict::PredictorKind;
use rq_quant::{ErrorBoundMode, LinearQuantizer};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

// The CLI's quality-targeted planning constants (crates/cli/src/main.rs);
// the byte-for-byte archive comparison catches a change on either side.
const PLAN_SAMPLES_PER_CHUNK: usize = 4096;
const PLAN_GRID_POINTS: usize = 32;
const PSNR_LOOSEN_THRESHOLD_DB: f64 = 0.75;
const PSNR_AIM_GUARD_DB: f64 = 0.35;
const PREDICTOR: PredictorKind = PredictorKind::Interpolation;

fn psnr_plan_margin(predictor: PredictorKind) -> f64 {
    match predictor {
        PredictorKind::Interpolation => 2.5,
        _ => 1.5,
    }
}

fn kind_index(k: ChunkCodecKind) -> usize {
    match k {
        ChunkCodecKind::Sz => 0,
        ChunkCodecKind::Zfp => 1,
        ChunkCodecKind::Rolz => 2,
    }
}

const ENCODE_SPANS: [&str; 3] = ["codec.encode.sz", "codec.encode.zfp", "codec.encode.rolz"];
const DECODE_SPANS: [&str; 3] = ["codec.decode.sz", "codec.decode.zfp", "codec.decode.rolz"];

/// Work a public call did without exposing it, re-run after the
/// operation as an attribution probe of that call's span.
enum Probe {
    /// One chunk encoded inside `write_slab` (the scheduler ran first
    /// when the codec choice is `auto`).
    Encode {
        of: usize,
        data: Vec<f32>,
        shape: Shape,
        eb: f64,
        auto: bool,
    },
    /// Every chunk decoded inside `decompress_to_writer`.
    DecodeAll { of: usize, archive: PathBuf },
}

/// The CLI's configuration before chunking and bounds are applied.
fn cli_config() -> CompressorConfig {
    CompressorConfig::new(PREDICTOR, ErrorBoundMode::Abs(1.0))
}

/// Encode one chunk the way the writer does; returns the blob length
/// (`usize::MAX` if the codec refused).
fn encode_with(kind: ChunkCodecKind, data: &[f32], shape: Shape, eb: f64) -> usize {
    let cfg = cli_config();
    let q = LinearQuantizer::new(eb, cfg.radius);
    let blob = match kind {
        ChunkCodecKind::Sz => {
            ChunkCodec::<f32>::encode(&SzChunkCodec::new(PREDICTOR, q, cfg.lossless), data, shape)
        }
        ChunkCodecKind::Zfp => ChunkCodec::<f32>::encode(&ZfpChunkCodec::new(eb), data, shape),
        ChunkCodecKind::Rolz => {
            ChunkCodec::<f32>::encode(&RolzChunkCodec::new(PREDICTOR, q), data, shape)
        }
    };
    blob.map(|(b, _)| b.len()).unwrap_or(usize::MAX)
}

fn decode_with(
    h: &Header,
    kind: ChunkCodecKind,
    eb: f64,
    blob: &[u8],
    shape: Shape,
    out: &mut [f32],
) -> bool {
    let q = LinearQuantizer::new(eb, h.radius);
    match kind {
        ChunkCodecKind::Sz => ChunkCodec::<f32>::decode(
            &SzChunkCodec::new(h.predictor, q, h.lossless),
            blob,
            shape,
            out,
        ),
        ChunkCodecKind::Zfp => ChunkCodec::<f32>::decode(&ZfpChunkCodec::new(eb), blob, shape, out),
        ChunkCodecKind::Rolz => {
            ChunkCodec::<f32>::decode(&RolzChunkCodec::new(h.predictor, q), blob, shape, out)
        }
    }
    .is_ok()
}

/// Scheduler decisions per chunk: the chosen codec, its estimated
/// bits/value, and on the accuracy pass the measured blob bytes of
/// sz/zfp/rolz on the same chunk.
type SchedulerLog = Vec<(ChunkCodecKind, f64, Option<[usize; 3]>)>;

#[derive(Default)]
struct Totals {
    plan_rounds: Vec<f64>,
    writer_bytes: u64,
    chunks_decoded: u64,
    blob_bytes_read: u64,
    reorder_copies: u64,
    /// Core model: (measured, estimated) bits/value per chunk.
    core_pairs: Vec<(f64, f64)>,
    /// Scheduler: (measured, estimated) bits/value per chunk.
    sched_pairs: Vec<(f64, f64)>,
    mispicks: Vec<bool>,
    picks: [u64; 3],
}

/// A raw input file and the field shape it holds.
#[derive(Clone, Copy)]
struct Input<'a> {
    path: &'a Path,
    shape: Shape,
}

fn io<T>(r: std::io::Result<T>, what: &Path) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", what.display()))
}

/// One compress session through `ArchiveWriter`, as the CLI's
/// `stream_compress`: create, slabs of one batch each, finalize, sync,
/// rename into place.
fn write_archive(
    t: &mut Tracer,
    input: Input,
    output: &Path,
    cfg: &CompressorConfig,
    plan: Option<&[f64]>,
    probes: &mut Vec<Probe>,
    totals: &mut Totals,
) -> Result<(), String> {
    let Input { path: input, shape } = input;
    let tmp = output.with_extension("partial");
    let mut src = t.span("io.file", |_| {
        io(std::fs::File::open(input).map(BufReader::new), input)
    })?;
    let sink = t.span("io.file", |_| {
        io(std::fs::File::create(&tmp).map(BufWriter::new), &tmp)
    })?;
    let mut w = match plan {
        Some(ebs) => t.span("writer.create", |_| {
            ArchiveWriter::<f32, _>::create_planned(sink, shape, cfg, ebs.to_vec())
        }),
        None => t.span("writer.create", |_| {
            ArchiveWriter::<f32, _>::create(sink, shape, cfg)
        }),
    }
    .map_err(|e| format!("create: {e}"))?;
    let fixed_eb = match cfg.bound {
        ErrorBoundMode::Abs(eb) => eb,
        _ => f64::NAN,
    };
    let d0 = shape.dim(0);
    let batch_rows = w
        .chunk_rows()
        .saturating_mul(cfg.resolved_threads())
        .clamp(w.chunk_rows(), d0);
    let (mut row, mut chunk) = (0usize, 0usize);
    while row < d0 {
        let rows = batch_rows.min(d0 - row);
        let slab = t.span("io.file", |_| {
            io(read_f32_slab(&mut src, slab_shape(shape, rows)), input)
        })?;
        t.span("writer.write_slab", |_| w.write_slab(&slab))
            .map_err(|e| format!("write_slab: {e}"))?;
        if let Some(of) = t.last_closed() {
            for c in slab_chunks(slab.shape(), w.chunk_rows()) {
                let eb = plan.map_or(fixed_eb, |p| p[chunk + c.index]);
                let data = slab.as_slice()[c.offset..c.offset + c.len].to_vec();
                probes.push(Probe::Encode {
                    of,
                    data,
                    shape: c.shape,
                    eb,
                    auto: cfg.codec == CodecChoice::Auto,
                });
            }
        }
        chunk += rows.div_ceil(w.chunk_rows());
        row += rows;
    }
    let fin = t
        .span("writer.finalize", |_| w.finalize())
        .map_err(|e| format!("finalize: {e}"))?;
    totals.writer_bytes += fin.bytes_written;
    t.span("io.file", |_| {
        let file = fin.sink.into_inner().map_err(|e| e.into_error());
        io(file.and_then(|f| f.sync_all()), &tmp)?;
        io(std::fs::rename(&tmp, output), output)
    })
}

/// The CLI's verification pass over a planned archive: measured PSNR plus
/// the per-chunk model corrections.
fn measure(
    t: &mut Tracer,
    input: Input,
    archive: &Path,
    models: &[RqModel],
    ebs: &[f64],
    range: f64,
    totals: &mut Totals,
) -> Result<(f64, PlanCorrection), String> {
    let Input { path: input, shape } = input;
    t.span("cli.measure", |t| {
        let mut src = t.span("io.file", |_| {
            io(std::fs::File::open(input).map(BufReader::new), input)
        })?;
        let mut reader = t.span("reader.open", |_| {
            std::fs::File::open(archive)
                .map_err(|e| e.to_string())
                .and_then(|f| ArchiveReader::open(f).map_err(|e| e.to_string()))
        })?;
        let entries = reader.entries().to_vec();
        let (mut sig2, mut bits) = (Vec::new(), Vec::new());
        let (mut sq_total, mut n_total) = (0.0f64, 0usize);
        for (chunk, entry) in entries.iter().enumerate() {
            let orig = t.span("io.file", |_| {
                io(
                    read_f32_slab(&mut src, slab_shape(shape, entry.rows)),
                    input,
                )
            })?;
            let (_, recon) = t
                .span("reader.read", |_| reader.read_chunk::<f32>(chunk))
                .map_err(|e| e.to_string())?;
            let sq: f64 = orig
                .as_slice()
                .iter()
                .zip(recon.as_slice())
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum();
            sig2.push(sq / orig.len() as f64);
            bits.push(entry.len as f64 * 8.0 / orig.len() as f64);
            sq_total += sq;
            n_total += orig.len();
        }
        let s = reader.stats();
        totals.chunks_decoded += s.chunks_decoded;
        totals.blob_bytes_read += s.blob_bytes_read;
        totals.reorder_copies += s.reorder_copies;
        let mse = sq_total / n_total.max(1) as f64;
        let psnr = if mse > 0.0 {
            20.0 * range.log10() - 10.0 * mse.log10()
        } else {
            f64::INFINITY
        };
        let corr = t.span("core.plan", |_| {
            PlanCorrection::from_measured(models, ebs, &sig2, &bits)
        });
        Ok((psnr, corr))
    })
}

fn plan(
    t: &mut Tracer,
    models: &[RqModel],
    sizes: &[usize],
    range: f64,
    target: f64,
    corr: Option<&PlanCorrection>,
) -> Result<Vec<f64>, String> {
    t.span("core.plan", |_| {
        optimize_partitions_corrected(models, sizes, range, target, PLAN_GRID_POINTS, corr)
    })
    .map(|p| p.ebs)
    .map_err(|e| format!("planner: {e}"))
}

/// `rqm compress --target-psnr`: per-chunk models, the §IV-C plan, the
/// write, the measured-feedback round. Returns the models and the bounds
/// of the archive left in `output`.
fn compress_psnr(
    t: &mut Tracer,
    input: Input,
    output: &Path,
    cfg: &CompressorConfig,
    probes: &mut Vec<Probe>,
    totals: &mut Totals,
) -> Result<(Vec<RqModel>, Vec<f64>), String> {
    let (path, shape) = (input.path, input.shape);
    let mut src = t.span("io.file", |_| {
        io(std::fs::File::open(path).map(BufReader::new), path)
    })?;
    let d0 = shape.dim(0);
    let (mut models, mut sizes) = (Vec::new(), Vec::new());
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut row = 0;
    while row < d0 {
        let rows = CHUNK_ROWS.min(d0 - row);
        let cshape = slab_shape(shape, rows);
        let slab = t.span("io.file", |_| io(read_f32_slab(&mut src, cshape), path))?;
        for &v in slab.as_slice() {
            if !v.is_nan() {
                lo = lo.min(v as f64);
                hi = hi.max(v as f64);
            }
        }
        models.push(t.span("core.build", |_| {
            RqModel::build_strided(slab.as_slice(), cshape, PREDICTOR, PLAN_SAMPLES_PER_CHUNK)
        }));
        sizes.push(slab.len());
        row += rows;
    }
    let range = hi - lo;
    let margin = psnr_plan_margin(PREDICTOR);
    let mut ebs = plan(t, &models, &sizes, range, PSNR_FLOOR + margin, None)?;
    write_archive(t, input, output, cfg, Some(&ebs), probes, totals)?;
    let (psnr1, corr) = measure(t, input, output, &models, &ebs, range, totals)?;
    let mut rounds = 1.0;
    if psnr1 < PSNR_FLOOR {
        let target = PSNR_FLOOR + margin + (PSNR_FLOOR - psnr1) + 0.25;
        ebs = plan(t, &models, &sizes, range, target, Some(&corr))?;
        write_archive(t, input, output, cfg, Some(&ebs), probes, totals)?;
        measure(t, input, output, &models, &ebs, range, totals)?;
        rounds = 2.0;
    } else if psnr1 > PSNR_FLOOR + PSNR_LOOSEN_THRESHOLD_DB {
        let ebs2 = plan(
            t,
            &models,
            &sizes,
            range,
            PSNR_FLOOR + PSNR_AIM_GUARD_DB,
            Some(&corr),
        )?;
        let trial = output.with_extension("round2");
        write_archive(t, input, &trial, cfg, Some(&ebs2), probes, totals)?;
        let (psnr2, _) = measure(t, input, &trial, &models, &ebs2, range, totals)?;
        t.span("io.file", |_| {
            if psnr2 >= PSNR_FLOOR {
                ebs = ebs2;
                io(std::fs::rename(&trial, output), output)
            } else {
                io(std::fs::remove_file(&trial), &trial)
            }
        })?;
        rounds = 2.0;
    }
    totals.plan_rounds.push(rounds);
    Ok((models, ebs))
}

/// `rqm compress --rel R --codec auto`: a range pre-pass resolves the
/// bound, then one writer session.
fn compress_fixed(
    t: &mut Tracer,
    input: Input,
    output: &Path,
    cfg: &CompressorConfig,
    probes: &mut Vec<Probe>,
    totals: &mut Totals,
) -> Result<(), String> {
    let all = t.span("io.file", |_| io(read_f32_file(input.path), input.path))?;
    let (lo, hi) = all
        .iter()
        .filter(|v| !v.is_nan())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v as f64), hi.max(v as f64))
        });
    let cfg = cfg.with_bound(ErrorBoundMode::Abs(REL_BOUND * (hi - lo)));
    write_archive(t, input, output, &cfg, None, probes, totals)
}

/// `rqm decompress`: open, stream every chunk to the output file.
fn decompress(
    t: &mut Tracer,
    archive: &Path,
    output: &Path,
    probes: &mut Vec<Probe>,
    totals: &mut Totals,
) -> Result<(), String> {
    let mut reader = t
        .span("reader.open", |_| ArchiveReader::open_path(archive))
        .map_err(|e| e.to_string())?;
    let tmp = output.with_extension("partial");
    let mut sink = t.span("io.file", |_| {
        io(std::fs::File::create(&tmp).map(BufWriter::new), &tmp)
    })?;
    t.span("reader.read", |_| {
        reader.decompress_to_writer::<f32, _>(&mut sink)
    })
    .map_err(|e| e.to_string())?;
    if let Some(of) = t.last_closed() {
        probes.push(Probe::DecodeAll {
            of,
            archive: archive.to_path_buf(),
        });
    }
    let s = reader.stats();
    totals.chunks_decoded += s.chunks_decoded;
    totals.blob_bytes_read += s.blob_bytes_read;
    totals.reorder_copies += s.reorder_copies;
    t.span("io.file", |_| {
        io(sink.flush(), &tmp)?;
        drop(sink);
        io(std::fs::rename(&tmp, output), output)
    })
}

/// Run the probes queued during one operation, after it ended.
fn run_probes(
    t: &mut Tracer,
    probes: Vec<Probe>,
    log: &mut SchedulerLog,
    measure_all: bool,
    checks: &mut Checks,
) {
    let radius = cli_config().radius;
    for p in probes {
        match p {
            Probe::Encode {
                of,
                data,
                shape,
                eb,
                auto,
            } => {
                let kind = if auto {
                    let d = t.probe("scheduler.choose", Some(of), |_| {
                        choose_codec(&data, shape, PREDICTOR, eb, radius)
                    });
                    let est = [d.sz_bits, d.zfp_bits, d.rolz_bits][kind_index(d.codec)];
                    let sizes = measure_all.then(|| {
                        [
                            ChunkCodecKind::Sz,
                            ChunkCodecKind::Zfp,
                            ChunkCodecKind::Rolz,
                        ]
                        .map(|k| encode_with(k, &data, shape, eb))
                    });
                    log.push((d.codec, est, sizes));
                    d.codec
                } else {
                    ChunkCodecKind::Sz
                };
                let len = t.probe(ENCODE_SPANS[kind_index(kind)], Some(of), |_| {
                    encode_with(kind, &data, shape, eb)
                });
                checks.check(len != usize::MAX, || {
                    "attribution probe: chunk encode failed".into()
                });
            }
            Probe::DecodeAll { of, archive } => {
                let (Ok(bytes), Ok(reader)) =
                    (std::fs::read(&archive), ArchiveReader::open_path(&archive))
                else {
                    checks.check(false, || {
                        format!("attribution probe: cannot reopen {}", archive.display())
                    });
                    continue;
                };
                let h = reader.header().clone();
                for e in reader.entries() {
                    let cshape = slab_shape(h.shape, e.rows);
                    let mut out = vec![0f32; cshape.len()];
                    let blob = &bytes[e.offset..e.offset + e.len];
                    let ok = t.probe(DECODE_SPANS[kind_index(e.codec)], Some(of), |_| {
                        decode_with(&h, e.codec, e.eb, blob, cshape, &mut out)
                    });
                    checks.check(ok, || "attribution probe: chunk decode failed".into());
                }
            }
        }
    }
}

/// Pair the archive's chunks with the model's (core) or the scheduler's
/// estimates.
fn account(
    kind: Kind,
    archive: &Path,
    models: &[RqModel],
    ebs: &[f64],
    log: &SchedulerLog,
    totals: &mut Totals,
    checks: &mut Checks,
) {
    let Ok(reader) = ArchiveReader::open_path(archive) else {
        checks.check(false, || format!("cannot reopen {}", archive.display()));
        return;
    };
    let h = reader.header().clone();
    let entries = reader.entries();
    for (i, e) in entries.iter().enumerate() {
        let measured = e.len as f64 * 8.0 / slab_shape(h.shape, e.rows).len() as f64;
        totals.picks[kind_index(e.codec)] += 1;
        match kind {
            Kind::InsituPsnr => {
                if let (Some(m), Some(&eb)) = (models.get(i), ebs.get(i)) {
                    totals.core_pairs.push((measured, m.estimate(eb).bit_rate));
                }
            }
            Kind::RoundtripAuto => {
                if let Some(&(chosen, est, sizes)) = log.get(i) {
                    checks.check(chosen == e.codec, || {
                        format!("scheduler probe chose {chosen:?}, writer {:?}", e.codec)
                    });
                    totals.sched_pairs.push((measured, est));
                    if let Some(sizes) = sizes {
                        let probe = sizes[kind_index(chosen)];
                        checks.check(probe == e.len, || {
                            format!("probe encode gave {probe} B, the archive holds {} B", e.len)
                        });
                        let best = *sizes.iter().min().expect("three sizes");
                        totals.mispicks.push(sizes[kind_index(chosen)] > best);
                    }
                }
            }
        }
    }
    if kind == Kind::RoundtripAuto {
        checks.check(log.len() == entries.len(), || {
            "scheduler probes do not match the chunk count".into()
        });
    }
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    rqm: &Path,
    dir: &Path,
    threads: usize,
) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let fields = fields::setup(kind, seed, dir).map_err(|e| format!("writing inputs: {e}"))?;
    // The CLI's archives, to hold the replay to the same bytes.
    let mut cli_archives = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        let path = dir.join(format!("cli{i}.rqc"));
        let c = fields::run_compress(rqm, kind, f, &fields::raw_path(dir, i), &path, threads);
        out.checks
            .check(c.ok, || format!("rqm compress failed on {}", f.name));
        cli_archives.push(std::fs::read(&path).ok());
    }

    let base = cli_config().chunked(CHUNK_ROWS).with_threads(1);
    let cfg = match kind {
        Kind::RoundtripAuto => base.with_codec(CodecChoice::Auto),
        Kind::InsituPsnr => base,
    };
    let archive = dir.join("replay.rqc");
    let back = dir.join("replay.f32");
    let mut traced = Tracer::new(true);
    let mut totals = Totals::default();
    let (mut on_walls, mut off_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let (mut pass, mut last_pass) = (0usize, 0.0f64);
    while pass < 3 || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_start = Instant::now();
        let kind_of_pass = trace::pass_kind(pass);
        let tracing = kind_of_pass == Some(true);
        let mut untraced = Tracer::new(false);
        let t: &mut Tracer = if tracing { &mut traced } else { &mut untraced };
        let mut wall = 0u64;
        // Only traced passes count towards the per-layer totals.
        let mut discarded = Totals::default();
        let pass_totals = if tracing { &mut totals } else { &mut discarded };
        for (i, f) in fields.iter().enumerate() {
            let op = (pass * fields.len() + i) as u64;
            let (mut probes, mut log) = (Vec::new(), SchedulerLog::new());
            t.set_op(op);
            let path = fields::raw_path(dir, i);
            let input = Input {
                path: &path,
                shape: f.shape,
            };
            let t0 = Instant::now();
            let res = t.span("op", |t| -> Result<(Vec<RqModel>, Vec<f64>), String> {
                let r = t.span("compress", |t| match kind {
                    Kind::RoundtripAuto => {
                        compress_fixed(t, input, &archive, &cfg, &mut probes, pass_totals)
                            .map(|()| (Vec::new(), Vec::new()))
                    }
                    Kind::InsituPsnr => {
                        compress_psnr(t, input, &archive, &cfg, &mut probes, pass_totals)
                    }
                })?;
                t.span("decompress", |t| {
                    decompress(t, &archive, &back, &mut probes, pass_totals)
                })?;
                Ok(r)
            });
            wall += t0.elapsed().as_nanos() as u64;
            let (models, ebs) = match res {
                Ok(r) => r,
                Err(e) => {
                    out.checks
                        .check(false, || format!("replay of {}: {e}", f.name));
                    continue;
                }
            };
            // The first traced pass also measures every codec on every
            // chunk, for the scheduler's accuracy.
            run_probes(t, probes, &mut log, pass == 1, &mut out.checks);
            if tracing {
                account(
                    kind,
                    &archive,
                    &models,
                    &ebs,
                    &log,
                    pass_totals,
                    &mut out.checks,
                );
            }
            if kind_of_pass.is_none() {
                let same = std::fs::read(&archive).ok() == cli_archives[i];
                out.checks.check(same, || {
                    format!("{}: replay archive differs from rqm compress's", f.name)
                });
                match read_f32_file(&back) {
                    Ok(recon) => fields::check_output(kind, f, &recon, &mut out.checks),
                    Err(e) => out
                        .checks
                        .check(false, || format!("{}: {e}", back.display())),
                }
            }
        }
        match kind_of_pass {
            Some(true) => on_walls.push(wall as f64),
            Some(false) => off_walls.push(wall as f64),
            None => {}
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        pass += 1;
    }

    if kind == Kind::RoundtripAuto {
        for (n, name) in totals.picks.iter().zip(["sz", "zfp", "rolz"]) {
            out.checks.check(*n > 0, || {
                format!("coverage guard: --codec auto picked {name} for no chunk")
            });
        }
    }
    let passes = on_walls.len() as f64;
    let by_name = trace::self_time_by_name(&traced.spans);
    let secs = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e9 / passes)
    };
    let count = |name: &str| by_name.get(name).map_or(0.0, |&(_, n)| n as f64 / passes);
    let pct_err = |pairs: &[(f64, f64)]| {
        if pairs.is_empty() {
            0.0
        } else {
            100.0
                * mean(
                    &pairs
                        .iter()
                        .map(|&(m, e)| ((e - m) / m).abs())
                        .collect::<Vec<_>>(),
                )
        }
    };
    let per_pass = |v: u64| v as f64 / passes;
    let m = &mut out;
    m.metric("core.build_s", secs("core.build"));
    m.metric("core.builds", count("core.build"));
    m.metric("core.plan_s", secs("core.plan"));
    m.metric(
        "core.plan_rounds",
        if totals.plan_rounds.is_empty() {
            0.0
        } else {
            mean(&totals.plan_rounds)
        },
    );
    m.metric("core.est_bits_err_pct", pct_err(&totals.core_pairs));
    m.metric(
        "core.eq20_err_pct",
        100.0 * rq_bench::eq20_error(&totals.core_pairs),
    );
    m.metric("cli.measure_s", secs("cli.measure"));
    m.metric("scheduler.choose_s", secs("scheduler.choose"));
    let auto = kind == Kind::RoundtripAuto;
    for (i, name) in [
        "scheduler.chunks_sz",
        "scheduler.chunks_zfp",
        "scheduler.chunks_rolz",
    ]
    .into_iter()
    .enumerate()
    {
        m.metric(name, if auto { per_pass(totals.picks[i]) } else { 0.0 });
    }
    m.metric("scheduler.est_bits_err_pct", pct_err(&totals.sched_pairs));
    let mispicks = totals.mispicks.iter().filter(|&&b| b).count();
    m.metric(
        "scheduler.mispick_pct",
        if totals.mispicks.is_empty() {
            0.0
        } else {
            100.0 * mispicks as f64 / totals.mispicks.len() as f64
        },
    );
    m.metric(
        "scheduler.eq20_err_pct",
        100.0 * rq_bench::eq20_error(&totals.sched_pairs),
    );
    for (metric, span) in [
        ("codec.encode_s.sz", ENCODE_SPANS[0]),
        ("codec.encode_s.zfp", ENCODE_SPANS[1]),
        ("codec.encode_s.rolz", ENCODE_SPANS[2]),
        ("codec.decode_s.sz", DECODE_SPANS[0]),
        ("codec.decode_s.zfp", DECODE_SPANS[1]),
        ("codec.decode_s.rolz", DECODE_SPANS[2]),
    ] {
        m.metric(metric, secs(span));
    }
    m.metric("writer.create_s", secs("writer.create"));
    m.metric("writer.write_slab_s", secs("writer.write_slab"));
    m.metric("writer.finalize_s", secs("writer.finalize"));
    m.metric("writer.bytes", per_pass(totals.writer_bytes));
    m.metric("reader.open_s", secs("reader.open"));
    m.metric("reader.read_s", secs("reader.read"));
    m.metric("reader.chunks_decoded", per_pass(totals.chunks_decoded));
    m.metric("reader.blob_bytes_read", per_pass(totals.blob_bytes_read));
    m.metric("reader.reorder_copies", per_pass(totals.reorder_copies));
    m.metric("io.file_s", secs("io.file"));
    m.metric("trace.coverage_pct", trace::coverage_pct(&traced.spans));
    let (on, off) = (median(&on_walls), median(&off_walls));
    m.metric("trace.overhead_pct", 100.0 * (on - off) / off);
    m.no_work(&["cache.", "protocol.", "serve."]);
    m.note(format!(
        "replay: a warm-up, {} traced and {} untraced passes of {} fields, single-threaded; pass wall median {:.1} ms traced, {:.1} ms untraced",
        on_walls.len(),
        off_walls.len(),
        fields.len(),
        on / 1e6,
        off / 1e6
    ));
    m.note(format!(
        "model accuracy: core Eq.20 error {:.2}% over {} chunks, scheduler Eq.20 error {:.2}% over {} chunks, {} of {} chunks mispicked",
        100.0 * rq_bench::eq20_error(&totals.core_pairs),
        totals.core_pairs.len(),
        100.0 * rq_bench::eq20_error(&totals.sched_pairs),
        totals.sched_pairs.len(),
        mispicks,
        totals.mispicks.len()
    ));
    out.working_set_bytes = fields.iter().map(Field::raw_bytes).max().unwrap_or(0) * 2;
    Ok((out, traced))
}
