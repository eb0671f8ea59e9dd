//! End-to-end benchmark of `rqm`.
//!
//! ```text
//! cargo run --release --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload roundtrip_auto|insitu_psnr|serve_zipf --seed N --seconds S --trace 0|1
//! cargo run --release --quiet --manifest-path e2ebench/Cargo.toml -- --write-spec
//! ```
//!
//! Run from the repository root. The benchmark builds `rqm` from the
//! checkout, generates the workload's inputs from the seed, and either
//! drives the `rqm` binary for `--seconds` (`--trace 0`, end-to-end
//! metrics) or replays the same operations in-process with spans around
//! every layer (`--trace 1`, per-layer metrics). The last line of
//! standard output is the JSON result; see `e2ebench/RUNBOOK.md`.

mod common;
mod fields;
mod inputs;
mod proc;
mod record;
mod replay;
mod serve;
mod spec;
mod stats;
mod trace;

use common::Outcome;
use spec::{json_num, json_str};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    if raw.iter().any(|a| a == "--write-spec") {
        return Ok(None);
    }
    let value = |key: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run_workload(
    a: &Args,
    rqm: &Path,
    dir: &Path,
    threads: usize,
) -> Result<(Outcome, Option<trace::Tracer>), String> {
    use fields::Kind;
    let field_kind = |name: &str| {
        if name == "roundtrip_auto" {
            Kind::RoundtripAuto
        } else {
            Kind::InsituPsnr
        }
    };
    match (a.workload.as_str(), a.trace) {
        ("serve_zipf", false) => {
            serve::run(a.seed, a.seconds, rqm, dir, threads).map(|o| (o, None))
        }
        ("serve_zipf", true) => {
            serve::run_traced(a.seed, a.seconds, rqm, dir, threads).map(|(o, t)| (o, Some(t)))
        }
        (w, false) => {
            fields::run(field_kind(w), a.seed, a.seconds, rqm, dir, threads).map(|o| (o, None))
        }
        (w, true) => replay::run(field_kind(w), a.seed, a.seconds, rqm, dir, threads)
            .map(|(o, t)| (o, Some(t))),
    }
}

/// The result line: every expected metric exactly once, each a finite
/// number. A metric the run could not measure is a failed check, written
/// as 0 so the line stays valid JSON.
fn result_line(out: &mut Outcome, expected: &[spec::Metric]) -> String {
    let mut parts = Vec::new();
    for m in expected {
        let found: Vec<f64> = out
            .metrics
            .iter()
            .filter(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .collect();
        let v = match found.as_slice() {
            [v] if v.is_finite() => *v,
            _ => {
                out.checks.check(false, || {
                    format!("metric {} was not measured ({found:?})", m.name)
                });
                0.0
            }
        };
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(v),
            json_str(m.unit)
        ));
    }
    for (n, _) in &out.metrics {
        debug_assert!(
            expected.iter().any(|m| m.name == *n),
            "metric {n} is not in the spec"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        parts.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match std::fs::write("BENCHMARK.json", spec::benchmark_json()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench: BENCHMARK.json: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 | --write-spec"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        eprintln!("e2ebench: run from the repository root (crates/cli/Cargo.toml not found)");
        return ExitCode::from(2);
    }
    let rqm = match proc::build_rqm() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = record::nproc();
    let out_dir = PathBuf::from("e2ebench/out");
    let work = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run_workload(&args, &rqm, &work, threads);
    let _ = std::fs::remove_dir_all(&work);
    let (mut out, tracer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut rec = record::Record::new(&args.workload, args.seed, args.trace, threads);
    rec.working_set_bytes = out.working_set_bytes;
    let expected = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let line = result_line(&mut out, expected);
    println!(
        "# e2ebench {} seed {} trace {} ({} s)",
        args.workload, args.seed, args.trace as u8, args.seconds
    );
    for l in rec.lines().iter().chain(&out.notes) {
        println!("# {l}");
    }
    for m in expected {
        let v = out
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(f64::NAN, |x| x.1);
        println!("{:<28} {:>14.4} {}", m.name, v, m.unit);
    }
    println!(
        "{:<28} {:>14.4} % ({} of {} checks failed)",
        "fail_pct",
        out.checks.fail_pct(),
        out.checks.failed,
        out.checks.attempted
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let saved = std::fs::write(
        out_dir.join(format!("{stem}.json")),
        format!("{{\"record\": {}, \"result\": {line}}}\n", rec.json()),
    )
    .and_then(|()| match &tracer {
        Some(t) => {
            let mut f = std::io::BufWriter::new(std::fs::File::create(
                out_dir.join(format!("{stem}.spans.tsv")),
            )?);
            t.write_tsv(&mut f)?;
            std::io::Write::flush(&mut f)
        }
        None => Ok(()),
    });
    if let Err(e) = saved {
        eprintln!("e2ebench: writing {}: {e}", out_dir.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
