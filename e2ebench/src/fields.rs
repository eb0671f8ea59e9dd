//! End-to-end runs of the two field-file workloads: `rqm compress` and
//! `rqm decompress` as child processes, one field round trip at a time.

use crate::common::{bound_violations, mb, read_f32_file, Checks, Outcome};
use crate::inputs::{self, Field};
use crate::proc;
use crate::stats::{median, Summary};
use rq_compress::{ArchiveReader, ChunkCodecKind};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    RoundtripAuto,
    InsituPsnr,
}

/// Value-range-relative bound of `roundtrip_auto`. Tight enough that the
/// turbulent chunks escape the SZ quantizer (so ZFP wins some) and the
/// 2D fields' quantization codes repeat (so ROLZ wins some).
pub const REL_BOUND: f64 = 3e-6;
/// PSNR floor (dB) of `insitu_psnr`.
pub const PSNR_FLOOR: f64 = 70.0;
/// Axis-0 rows per chunk for both workloads.
pub const CHUNK_ROWS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// `rqm decompress` runs per `rqm compress`.
const READS_PER_WRITE: usize = 3;

pub fn corpus(kind: Kind, seed: u64) -> Vec<Field> {
    match kind {
        Kind::RoundtripAuto => inputs::roundtrip_corpus(seed),
        Kind::InsituPsnr => inputs::insitu_corpus(seed),
    }
}

pub fn raw_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("in{i}.f32"))
}

/// Generate the corpus and write its raw files.
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<Vec<Field>> {
    let fields = corpus(kind, seed);
    for (i, f) in fields.iter().enumerate() {
        f.write_raw(&raw_path(dir, i))?;
    }
    Ok(fields)
}

/// Run `rqm compress` on field `f` with this workload's options.
pub fn run_compress(
    rqm: &Path,
    kind: Kind,
    f: &Field,
    input: &Path,
    output: &Path,
    threads: usize,
) -> proc::Finished {
    let mut args = vec!["compress".to_string(), path_arg(input), path_arg(output)];
    args.extend(["--shape".to_string(), f.shape_arg()]);
    match kind {
        Kind::RoundtripAuto => args.extend([
            "--rel".into(),
            REL_BOUND.to_string(),
            "--codec".into(),
            "auto".into(),
        ]),
        Kind::InsituPsnr => args.extend(["--target-psnr".into(), PSNR_FLOOR.to_string()]),
    }
    args.extend([
        "--threads".into(),
        threads.to_string(),
        "--chunk-size".into(),
        CHUNK_ROWS.to_string(),
    ]);
    proc::run(rqm, &args.iter().map(String::as_str).collect::<Vec<_>>())
}

pub fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Check one reconstruction: the element-wise bound for
/// `roundtrip_auto`, the PSNR floor for `insitu_psnr`.
pub fn check_output(kind: Kind, f: &Field, recon: &[f32], checks: &mut Checks) {
    match kind {
        Kind::RoundtripAuto => {
            let eb = REL_BOUND * f.value_range();
            let bad = bound_violations(&f.data, recon, eb);
            checks.check(bad == Some(0), || {
                format!("{}: {bad:?} values break the bound {eb:e}", f.name)
            });
        }
        Kind::InsituPsnr => {
            let ok_len = recon.len() == f.data.len();
            let psnr = if ok_len {
                rq_analysis::psnr(
                    &f.array(),
                    &rq_grid::NdArray::from_vec(f.shape, recon.to_vec()),
                )
            } else {
                f64::NAN
            };
            checks.check(psnr >= PSNR_FLOOR, || {
                format!("{}: PSNR {psnr:.2} dB < floor {PSNR_FLOOR}", f.name)
            });
        }
    }
}

/// Per-codec chunk counts of an archive, in (sz, zfp, rolz) order.
pub fn codec_counts(archive: &Path) -> Option<[usize; 3]> {
    let r = ArchiveReader::open_path(archive).ok()?;
    let mut n = [0usize; 3];
    for e in r.entries() {
        n[match e.codec {
            ChunkCodecKind::Sz => 0,
            ChunkCodecKind::Zfp => 1,
            ChunkCodecKind::Rolz => 2,
        }] += 1;
    }
    Some(n)
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    rqm: &Path,
    dir: &Path,
    threads: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut fields = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        fields = setup(kind, seed, dir).map_err(|e| format!("writing inputs: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let archive = dir.join("out.rqc");
    let back = dir.join("back.f32");

    // Per field: compress, decompress and round-trip wall times.
    let mut enc_s: Vec<Vec<f64>> = vec![Vec::new(); fields.len()];
    let mut dec_s: Vec<Vec<f64>> = vec![Vec::new(); fields.len()];
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); fields.len()];
    let mut peak_rss = 0.0f64;
    let mut archive_bytes = vec![None; fields.len()];
    let mut codecs = [0usize; 3];
    let start = Instant::now();
    let (mut passes, mut last_pass) = (0, 0.0f64);
    // Whole passes over the corpus only, so every run weighs the fields
    // alike: at least one, and another only if it fits in the time left.
    while passes == 0 || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_start = Instant::now();
        for (i, f) in fields.iter().enumerate() {
            let c = run_compress(rqm, kind, f, &raw_path(dir, i), &archive, threads);
            peak_rss = peak_rss.max(c.peak_rss_mib);
            if !c.ok {
                out.checks
                    .check(false, || format!("rqm compress failed on {}", f.name));
                continue;
            }
            // The archive is read back several times, as in-situ output
            // is: the first read completes the round trip, and every read
            // is a decode sample.
            let mut first_read = None;
            for _ in 0..READS_PER_WRITE {
                let d = proc::run(
                    rqm,
                    &[
                        "decompress",
                        &path_arg(&archive),
                        &path_arg(&back),
                        "--threads",
                        &threads.to_string(),
                    ],
                );
                peak_rss = peak_rss.max(d.peak_rss_mib);
                if !d.ok {
                    break;
                }
                dec_s[i].push(d.wall_s);
                first_read.get_or_insert(d.wall_s);
            }
            let Some(first_read) = first_read else {
                out.checks
                    .check(false, || format!("rqm decompress failed on {}", f.name));
                continue;
            };
            enc_s[i].push(c.wall_s);
            op_s[i].push(c.wall_s + first_read);
            match read_f32_file(&back) {
                Ok(recon) => check_output(kind, f, &recon, &mut out.checks),
                Err(e) => out
                    .checks
                    .check(false, || format!("{}: {e}", back.display())),
            }
            if archive_bytes[i].is_none() {
                archive_bytes[i] = std::fs::metadata(&archive).ok().map(|m| m.len());
                if let Some(n) = codec_counts(&archive) {
                    codecs.iter_mut().zip(n).for_each(|(a, b)| *a += b);
                }
            }
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        passes += 1;
    }

    let values: u64 = fields.iter().map(|f| f.data.len() as u64).sum();
    let total_archive: Option<u64> = archive_bytes.iter().copied().sum();
    let bits = total_archive.map_or(f64::NAN, |b| b as f64 * 8.0 / values as f64);
    if kind == Kind::RoundtripAuto {
        for (n, name) in codecs.iter().zip(["sz", "zfp", "rolz"]) {
            out.checks.check(*n > 0, || {
                format!("coverage guard: --codec auto picked {name} for no chunk")
            });
        }
        out.note(format!(
            "guard codec picks over the corpus: sz {} / zfp {} / rolz {}",
            codecs[0], codecs[1], codecs[2]
        ));
    }

    // Throughputs from each field's median time, so a burst of
    // interference on a shared host moves them less than a sum would.
    let sum_medians = |v: &[Vec<f64>]| {
        v.iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .sum::<f64>()
    };
    let measured: Vec<&Field> = fields
        .iter()
        .zip(&enc_s)
        .filter(|(_, t)| !t.is_empty())
        .map(|(f, _)| f)
        .collect();
    let raw_bytes: u64 = measured.iter().map(|f| f.raw_bytes()).sum();
    let (enc, dec, ops) = (
        Summary::of(&enc_s.concat()),
        Summary::of(&dec_s.concat()),
        Summary::of(&op_s.concat()),
    );
    out.metric("encode_mbps", mb(raw_bytes) / sum_medians(&enc_s));
    out.metric("decode_mbps", mb(raw_bytes) / sum_medians(&dec_s));
    out.metric("bits_per_value", bits);
    out.metric("ops_per_s", measured.len() as f64 / sum_medians(&op_s));
    out.metric("op_p50_ms", ops.median * 1e3);
    out.metric("peak_rss_mib", peak_rss);
    out.metric("setup_s", median(&setups));
    let ms = |s: Summary, what: &str| {
        format!(
            "{what}: median {:.3} ms, p99 {:.3} ms, n {}",
            s.median * 1e3,
            s.p99 * 1e3,
            s.n
        )
    };
    out.note(ms(enc, "rqm compress wall"));
    out.note(ms(dec, "rqm decompress wall"));
    out.note(ms(ops, "round trip (op) wall"));
    out.note(format!(
        "op_p99_ms {:.3} ms over {} round trips (printed, not gated: see the runbook)",
        ops.p99 * 1e3,
        ops.n
    ));
    out.note(format!(
        "{passes} passes over {} fields; setup repeats: {setups:.3?} s",
        fields.len()
    ));
    out.working_set_bytes = fields.iter().map(Field::raw_bytes).max().unwrap_or(0) * 2
        + archive_bytes.iter().flatten().max().copied().unwrap_or(0);
    Ok(out)
}
