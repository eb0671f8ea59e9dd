//! The benchmark's definition: workloads, metrics and their bounds. The
//! repository's `BENCHMARK.json` is rendered from here
//! (`e2ebench --write-spec`), so the file and the program cannot drift.

pub const RUN_SECONDS: u64 = 30;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "roundtrip_auto",
        why: "field file -> archive -> field file with --codec auto at 8-row chunks: the codec scheduler's probes dominate encode, decode runs all three decoders, the model planner idles",
    },
    Workload {
        name: "insitu_psnr",
        why: "--target-psnr on RTM snapshots and dense fields: per-chunk model builds, the IV-C planner and its measured-feedback round dominate, the codec scheduler idles",
    },
    Workload {
        name: "serve_zipf",
        why: "closed-loop zipfian row and chunk reads against rqm serve with a cache smaller than the field: protocol, cache, assembly and socket, decode only on misses",
    },
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen (NaN
    /// for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric carries no bound.
const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: f64::NAN,
    }
}

/// What a user of `rqm` sees. Every workload reports every one of these;
/// see the runbook for what each means on each workload. Wall-time
/// metrics carry the widest bound allowed (0.25): on the shared 2-vCPU
/// reference host, repeated runs of one seed already differ by 8–16 %
/// (quartile spread over median). The deterministic metrics get tight
/// bounds. The p99 latency is printed but not listed here: its spread
/// across seeds reached 0.23–0.47, past any bound a gate may use.
pub const END_TO_END: &[Metric] = &[
    e2e("encode_mbps", "MB/s", Better::Higher, 0.25),
    e2e("decode_mbps", "MB/s", Better::Higher, 0.25),
    e2e("bits_per_value", "bits/value", Better::Lower, 0.06),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics of the traced replay (no bound). Times are totals
/// over one pass of the workload's operations; a layer that does no work
/// on a workload reports 0. Counts that only describe the input (codec
/// picks, reorder copies, coalesced waits) are marked "higher" because
/// the contract asks for a direction, not because more is better.
pub const PER_LAYER: &[Metric] = &[
    layer("core.build_s", "s", Better::Lower),
    layer("core.builds", "count", Better::Lower),
    layer("core.plan_s", "s", Better::Lower),
    layer("core.plan_rounds", "rounds/op", Better::Lower),
    layer("core.est_bits_err_pct", "%", Better::Lower),
    layer("core.eq20_err_pct", "%", Better::Lower),
    layer("cli.measure_s", "s", Better::Lower),
    layer("scheduler.choose_s", "s", Better::Lower),
    layer("scheduler.chunks_sz", "count", Better::Higher),
    layer("scheduler.chunks_zfp", "count", Better::Higher),
    layer("scheduler.chunks_rolz", "count", Better::Higher),
    layer("scheduler.est_bits_err_pct", "%", Better::Lower),
    layer("scheduler.mispick_pct", "%", Better::Lower),
    layer("scheduler.eq20_err_pct", "%", Better::Lower),
    layer("codec.encode_s.sz", "s", Better::Lower),
    layer("codec.encode_s.zfp", "s", Better::Lower),
    layer("codec.encode_s.rolz", "s", Better::Lower),
    layer("codec.decode_s.sz", "s", Better::Lower),
    layer("codec.decode_s.zfp", "s", Better::Lower),
    layer("codec.decode_s.rolz", "s", Better::Lower),
    layer("writer.create_s", "s", Better::Lower),
    layer("writer.write_slab_s", "s", Better::Lower),
    layer("writer.finalize_s", "s", Better::Lower),
    layer("writer.bytes", "bytes", Better::Lower),
    layer("reader.open_s", "s", Better::Lower),
    layer("reader.read_s", "s", Better::Lower),
    layer("reader.chunks_decoded", "count", Better::Lower),
    layer("reader.blob_bytes_read", "bytes", Better::Lower),
    layer("reader.reorder_copies", "count", Better::Higher),
    layer("io.file_s", "s", Better::Lower),
    layer("cache.hit_pct", "%", Better::Higher),
    layer("cache.fetch_hit_us", "us", Better::Lower),
    layer("cache.fetch_miss_us", "us", Better::Lower),
    layer("cache.evictions", "count", Better::Lower),
    layer("cache.coalesced_waits", "count", Better::Higher),
    layer("protocol.parse_us", "us", Better::Lower),
    layer("serve.assemble_us", "us", Better::Lower),
    layer("serve.wire_us", "us", Better::Lower),
    layer("serve.errors", "count", Better::Lower),
    layer("trace.coverage_pct", "%", Better::Higher),
    layer("trace.overhead_pct", "%", Better::Lower),
];

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// carries; non-finite values have no JSON form and become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> String {
    let mut o = String::from("{\n");
    o.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"e2ebench/Cargo.toml\", \"--\"],\n",
    );
    o.push_str("  \"paths\": [\"e2ebench\"],\n");
    o.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    o.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let better = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                better(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    o.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n")));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(m.name),
                json_str(m.unit),
                better(m.better)
            )
        })
        .collect();
    o.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n",
        layers.join(",\n")
    ));
    o.push_str("}\n");
    o
}

#[cfg(test)]
pub mod json {
    //! A minimal JSON reader, enough to check the documents this program
    //! writes.

    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Value::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos)?;
        ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut kv = Vec::new();
                ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    ws(b, pos);
                    let Value::Str(k) = string(b, pos)? else {
                        unreachable!()
                    };
                    expect(b, pos, b':')?;
                    kv.push((k, value(b, pos)?));
                    ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return Err(format!("bad object at {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", *pos)),
                    }
                }
            }
            Some(b'"') => string(b, pos),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(Value::Str(out));
                }
                Some(b'\\') => {
                    let c = *b.get(*pos + 1).ok_or("unterminated escape")?;
                    *pos += 2;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad escape")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at {}", *pos)),
                    }
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn written_benchmark_json_parses_and_keeps_the_contract() {
        let doc = parse(&benchmark_json()).expect("BENCHMARK.json must parse");
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        assert!((2..=8).contains(&workloads.len()));
        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end")
        };
        let mut names = Vec::new();
        for m in e2e {
            assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
            let Some(Value::Num(bound)) = m.get("bound") else {
                panic!("bound")
            };
            assert!(*bound > 0.0 && *bound <= 0.25);
            let Some(Value::Str(name)) = m.get("name") else {
                panic!("name")
            };
            names.push(name.clone());
        }
        assert!(names.iter().any(|n| n == "setup_s"));
        let setup_bound = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap()
            .bound;
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup_bound),
            "setup_s has the largest bound"
        );
        let Some(Value::Arr(layers)) = doc.get("per_layer") else {
            panic!("per_layer")
        };
        for m in layers {
            assert_eq!(m.keys(), ["name", "unit", "better"]);
            let Some(Value::Str(name)) = m.get("name") else {
                panic!("name")
            };
            names.push(name.clone());
        }
        for w in WORKLOADS {
            names.push(w.name.to_string());
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names are used once");
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "run `e2ebench --write-spec` after editing spec.rs"
        );
    }

    #[test]
    fn json_numbers_and_strings_round_trip() {
        for v in [0.1, 1.0, 12345.678901234, 1e-9, -3.5] {
            assert_eq!(parse(&json_num(v)), Ok(Value::Num(v)));
        }
        assert_eq!(json_num(f64::NAN), "null");
        let s = "a \"quoted\" \\ line\nend";
        assert_eq!(parse(&json_str(s)), Ok(Value::Str(s.into())));
    }
}
