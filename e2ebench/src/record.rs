//! The run record printed and written with every result: seeds, host and
//! build, and where each workload's working set sits against the cache.

use crate::spec::{json_num, json_str};

/// Seed reserved for checking claims made with other seeds; never used
/// while tuning the benchmark or a change.
pub const HELD_OUT_SEED: u64 = 8191;

pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub nproc: usize,
    pub threads: usize,
    pub cpu_model: String,
    pub llc_bytes: Option<u64>,
    pub working_set_bytes: u64,
    pub profile: &'static str,
}

impl Record {
    pub fn new(workload: &str, seed: u64, trace: bool, threads: usize) -> Record {
        Record {
            workload: workload.into(),
            seed,
            trace,
            nproc: nproc(),
            threads,
            cpu_model: cpu_model(),
            llc_bytes: llc_bytes(),
            working_set_bytes: 0,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn lines(&self) -> Vec<String> {
        let cores = if self.nproc == 1 {
            " (single-core: no parallel speed-up can show)"
        } else {
            ""
        };
        let llc = self
            .llc_bytes
            .map_or("unknown".to_string(), |b| format!("{} MiB", b >> 20));
        let fits = match self.llc_bytes {
            Some(llc) if self.working_set_bytes <= llc => {
                "fits in the last-level cache: this is not a memory-bandwidth measurement"
            }
            Some(_) => "exceeds the last-level cache",
            None => "cache size unknown",
        };
        vec![
            format!(
                "seed {} (held-out seed {HELD_OUT_SEED}), trace {}",
                self.seed, self.trace as u8
            ),
            format!(
                "nproc {}{cores}; threads used {}; cpu {}",
                self.nproc, self.threads, self.cpu_model
            ),
            format!("build profile {} (rqm built with --release)", self.profile),
            format!(
                "working set {:.1} MiB vs last-level cache {llc}: {fits}",
                self.working_set_bytes as f64 / (1 << 20) as f64
            ),
        ]
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}, \"nproc\": {}, \
             \"single_core\": {}, \"threads\": {}, \"cpu_model\": {}, \"llc_bytes\": {}, \
             \"working_set_bytes\": {}, \"profile\": {}}}",
            json_str(&self.workload),
            self.seed,
            self.trace,
            self.nproc,
            self.nproc == 1,
            self.threads,
            json_str(&self.cpu_model),
            self.llc_bytes.map_or("null".into(), |b| json_num(b as f64)),
            self.working_set_bytes,
            json_str(self.profile)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the highest-level CPU cache sysfs reports for CPU 0.
fn llc_bytes() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let level: Option<u32> = std::fs::read_to_string(dir.join("level"))
            .ok()
            .and_then(|s| s.trim().parse().ok());
        let size = std::fs::read_to_string(dir.join("size"))
            .ok()
            .and_then(|s| parse_size(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, size));
            }
        }
    }
    best.map(|(_, s)| s)
}

/// Parse sysfs cache sizes such as `32K` or `300M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn record_json_parses() {
        let mut r = Record::new("serve_zipf", 3, false, 2);
        r.working_set_bytes = 1 << 20;
        let doc = crate::spec::json::parse(&r.json()).expect("run record must parse");
        assert_eq!(
            doc.get("held_out_seed"),
            Some(&crate::spec::json::Value::Num(HELD_OUT_SEED as f64))
        );
    }
}
