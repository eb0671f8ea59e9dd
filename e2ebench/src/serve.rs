//! `serve_zipf`: a closed loop of `nproc` connections against `rqm serve`,
//! and its traced replay against an in-process `ChunkCache` over a
//! `ConcurrentReader`.

use crate::common::{bits_equal, mb, slab_shape, Checks, Outcome};
use crate::fields::path_arg;
use crate::inputs::{self, Field};
use crate::proc;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use rq_compress::{
    assemble_rows, ArchiveReader, ChunkCodec, ChunkCodecKind, ChunkEntry, ChunkSource,
    ConcurrentReader, DecompressError, Header, SzChunkCodec,
};
use rq_quant::LinearQuantizer;
use rq_serve::protocol::{encode_request, parse_request, put_u64, FRAME_PREFIX};
use rq_serve::{ChunkCache, Client, ClientError, Request};
use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const CHUNK_ROWS: usize = 8;
/// Decoded-chunk cache budget: 4 of the field's 16 chunks.
pub const CACHE_BYTES: u64 = 2 << 20;
const REL_BOUND: f64 = 1e-4;
/// Zipf exponent of the first chunk a request touches.
const ZIPF_S: f64 = 1.2;
/// Share of requests that are `READ_CHUNK`; the rest are `READ_ROWS`.
const CHUNK_REQUEST_SHARE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// `rqm compress` runs per set-up (the last one's archive is served):
/// the samples behind this workload's `encode_mbps`.
const BUILDS_PER_SETUP: usize = 3;
/// Requests per connection in the traced run's client pass.
const TRACE_REQUESTS_PER_CONN: usize = 600;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Req {
    /// Axis-0 rows `start..end`.
    Rows(usize, usize),
    Chunk(usize),
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // splitmix64 of the seed, so nearby seeds give unrelated streams
        // (and the state is never zero).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The request mix. The zipf rank → chunk mapping is a seeded
/// permutation, so the hot chunks are spread over the field.
pub struct ReqGen {
    rng: Rng,
    cdf: Vec<f64>,
    perm: Vec<usize>,
    rows: usize,
}

impl ReqGen {
    pub fn new(seed: u64, conn: u64, rows: usize) -> ReqGen {
        let n = rows.div_ceil(CHUNK_ROWS);
        let mut shuffle = Rng::new(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, (shuffle.next() % (i as u64 + 1)) as usize);
        }
        let mut cdf: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for c in cdf.iter_mut() {
            acc += *c / total;
            *c = acc;
        }
        ReqGen {
            rng: Rng::new(seed ^ (conn + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            cdf,
            perm,
            rows,
        }
    }

    pub fn next(&mut self) -> Req {
        let u = self.rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let chunk = self.perm[rank];
        if self.rng.unit() < CHUNK_REQUEST_SHARE {
            return Req::Chunk(chunk);
        }
        let span = 1 + (self.rng.next() % 2) as usize;
        let mut start = chunk * CHUNK_ROWS;
        let mut end = ((chunk + span) * CHUNK_ROWS).min(self.rows);
        // Half the row reads crop a chunk mid-way at one end.
        match self.rng.next() % 4 {
            2 => start += CHUNK_ROWS / 2,
            3 => end -= CHUNK_ROWS / 2,
            _ => {}
        }
        Req::Rows(start, end)
    }
}

fn req_rows(req: Req, entries: &[ChunkEntry]) -> (usize, usize) {
    match req {
        Req::Rows(s, e) => (s, e),
        Req::Chunk(i) => (entries[i].start_row, entries[i].start_row + entries[i].rows),
    }
}

/// One running set-up: inputs, archive, server.
struct Setup {
    field: Field,
    archive: PathBuf,
    server: proc::Server,
    /// Wall time of each `rqm compress` that built the archive.
    compress_s: Vec<f64>,
}

fn setup(seed: u64, dir: &Path, rqm: &Path, threads: usize) -> Result<Setup, String> {
    let field = inputs::serve_field(seed);
    let raw = dir.join("serve.f32");
    let archive = dir.join("serve.rqc");
    field
        .write_raw(&raw)
        .map_err(|e| format!("{}: {e}", raw.display()))?;
    let mut compress_s = Vec::new();
    for _ in 0..BUILDS_PER_SETUP {
        let c = proc::run(
            rqm,
            &[
                "compress",
                &path_arg(&raw),
                &path_arg(&archive),
                "--shape",
                &field.shape_arg(),
                "--rel",
                &REL_BOUND.to_string(),
                "--threads",
                &threads.to_string(),
                "--chunk-size",
                &CHUNK_ROWS.to_string(),
            ],
        );
        if !c.ok {
            return Err("rqm compress of the served field failed".into());
        }
        compress_s.push(c.wall_s);
    }
    let server = proc::Server::start(rqm, &archive, CACHE_BYTES, threads)?;
    // One INFO round trip: the server answers before set-up ends.
    Client::connect(server.addr.as_str()).map_err(|e| format!("connect {}: {e}", server.addr))?;
    Ok(Setup {
        field,
        archive,
        server,
        compress_s,
    })
}

/// One answered request.
#[derive(Clone, Copy)]
struct Sample {
    /// Global order in which requests were sent.
    seq: u64,
    req: Req,
    /// Send to full reply, µs.
    lat_us: f64,
    /// Reply arrival, seconds since the loop started.
    done_s: f64,
    payload_bytes: u64,
}

/// What the closed loop saw.
#[derive(Default)]
struct Drive {
    samples: Vec<Sample>,
    sent: u64,
    payload_bytes: u64,
    server_errors: u64,
    failed: Vec<String>,
    wall_s: f64,
}

/// Run `conns` closed-loop clients until `deadline` or `per_conn`
/// requests each, checking every reply against `reference` (the whole
/// field decoded by a local `ArchiveReader`).
fn drive(
    addr: &str,
    seed: u64,
    conns: usize,
    reference: &Arc<Vec<f32>>,
    row_elems: usize,
    rows: usize,
    stop: Stop,
) -> Drive {
    let order = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let results: Vec<Drive> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (order, reference) = (Arc::clone(&order), Arc::clone(reference));
                s.spawn(move || {
                    let mut d = Drive::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            d.failed.push(format!("connect: {e}"));
                            return d;
                        }
                    };
                    let mut gen = ReqGen::new(seed, c as u64, rows);
                    let mut n = 0usize;
                    while !stop.done(start, n) {
                        n += 1;
                        d.sent += 1;
                        let req = gen.next();
                        let seq = order.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let reply = match req {
                            Req::Rows(s, e) => client.read_rows::<f32>(s..e).map(|a| (s, a)),
                            Req::Chunk(i) => client.read_chunk::<f32>(i),
                        };
                        let lat_us = t0.elapsed().as_secs_f64() * 1e6;
                        let done_s = start.elapsed().as_secs_f64();
                        match reply {
                            Ok((first, arr)) => {
                                let vals = arr.as_slice();
                                let payload_bytes = vals.len() as u64 * 4;
                                d.payload_bytes += payload_bytes;
                                let lo = first * row_elems;
                                let ok = reference
                                    .get(lo..lo + vals.len())
                                    .is_some_and(|r| bits_equal(r, vals));
                                if !ok {
                                    d.failed.push(format!(
                                        "{req:?}: reply differs from the local read"
                                    ));
                                }
                                d.samples.push(Sample {
                                    seq,
                                    req,
                                    lat_us,
                                    done_s,
                                    payload_bytes,
                                });
                            }
                            Err(e) => {
                                if matches!(e, ClientError::Server { .. }) {
                                    d.server_errors += 1;
                                }
                                d.failed.push(format!("{req:?}: {e}"));
                                if matches!(e, ClientError::Io(_)) {
                                    break;
                                }
                            }
                        }
                    }
                    d
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Drive {
        wall_s: start.elapsed().as_secs_f64(),
        ..Drive::default()
    };
    for d in results {
        all.samples.extend(d.samples);
        all.sent += d.sent;
        all.payload_bytes += d.payload_bytes;
        all.server_errors += d.server_errors;
        all.failed.extend(d.failed);
    }
    all
}

/// Time slices the serve metrics are taken over: each metric is the
/// median of its per-slice values, so a burst of interference from other
/// tenants of a shared host spoils one slice, not the run's figure.
const SLICES: usize = 5;

struct Slice {
    rps: f64,
    mbps: f64,
    lat: Summary,
}

/// Split the loop's wall time into [`SLICES`] equal slices by reply
/// arrival and summarise each.
fn slices(samples: &[Sample], wall_s: f64) -> Vec<Slice> {
    let width = wall_s / SLICES as f64;
    (0..SLICES)
        .map(|k| {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            let inside: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.done_s >= lo && (s.done_s < hi || k + 1 == SLICES))
                .collect();
            Slice {
                rps: inside.len() as f64 / width,
                mbps: mb(inside.iter().map(|s| s.payload_bytes).sum()) / width,
                lat: Summary::of(&inside.iter().map(|s| s.lat_us).collect::<Vec<_>>()),
            }
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Stop {
    At(Duration),
    After(usize),
}

impl Stop {
    fn done(self, start: Instant, n: usize) -> bool {
        match self {
            Stop::At(d) => start.elapsed() >= d,
            Stop::After(k) => n >= k,
        }
    }
}

/// Checks shared by both runs: reply failures, the `STATS` error count,
/// and that every distinct request equals a local `ArchiveReader` read
/// of the same rows. Returns that reader's reorder copies.
fn check_drive(
    d: &Drive,
    addr: &str,
    archive: &Path,
    reference: &[f32],
    row_elems: usize,
    checks: &mut Checks,
) -> (u64, Option<rq_serve::ServeStats>) {
    checks.bulk(d.sent, &d.failed);
    let stats = Client::connect(addr).and_then(|mut c| c.stats()).ok();
    checks.check(stats.is_some_and(|s| s.errors == d.server_errors), || {
        format!(
            "STATS errors {:?} != {} error replies seen",
            stats.map(|s| s.errors),
            d.server_errors
        )
    });
    let distinct: BTreeSet<Req> = d.samples.iter().map(|s| s.req).collect();
    let mut reader = match ArchiveReader::open_path(archive) {
        Ok(r) => r,
        Err(e) => {
            checks.check(false, || format!("open {}: {e}", archive.display()));
            return (0, stats);
        }
    };
    let entries = reader.entries().to_vec();
    for req in distinct {
        let (s, e) = req_rows(req, &entries);
        let local = reader.read_rows::<f32>(s..e);
        let ok =
            local.is_ok_and(|a| bits_equal(a.as_slice(), &reference[s * row_elems..e * row_elems]));
        checks.check(ok, || {
            format!("{req:?}: local ArchiveReader read differs from read_all")
        });
    }
    (reader.stats().reorder_copies, stats)
}

pub fn run(
    seed: u64,
    seconds: f64,
    rqm: &Path,
    dir: &Path,
    threads: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setups, mut enc_mbps) = (Vec::new(), Vec::new());
    let mut running = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = running.take() {
            let Setup { server, .. } = prev;
            server.stop();
        }
        let t = Instant::now();
        let s = setup(seed, dir, rqm, threads)?;
        setups.push(t.elapsed().as_secs_f64());
        enc_mbps.extend(s.compress_s.iter().map(|w| mb(s.field.raw_bytes()) / w));
        running = Some(s);
    }
    let s = running.expect("at least one set-up");
    let reference = ArchiveReader::open_path(&s.archive)
        .and_then(|mut r| r.read_all::<f32>())
        .map_err(|e| format!("local read of {}: {e}", s.archive.display()))?;
    let reference = Arc::new(reference.into_vec());
    let row_elems: usize = s.field.shape.dims()[1..].iter().product();
    let rows = s.field.shape.dim(0);

    let d = drive(
        &s.server.addr,
        seed,
        threads,
        &reference,
        row_elems,
        rows,
        Stop::At(Duration::from_secs_f64(seconds)),
    );
    let (reorder, stats) = check_drive(
        &d,
        &s.server.addr,
        &s.archive,
        &reference,
        row_elems,
        &mut out.checks,
    );
    let hit_pct = stats.map_or(f64::NAN, |s| {
        100.0 * s.cache.hits as f64 / (s.cache.hits + s.cache.misses).max(1) as f64
    });
    out.checks.check(hit_pct > 0.0 && hit_pct < 100.0, || {
        format!("coverage guard: cache hit rate {hit_pct:.1}% is not strictly between 0 and 100")
    });
    out.checks.check(reorder > 0, || {
        "coverage guard: no request cropped a chunk (reorder_copies = 0)".into()
    });
    let archive_bytes = std::fs::metadata(&s.archive).map(|m| m.len()).unwrap_or(0);
    let peak_rss = s.server.stop();

    let lat: Vec<f64> = d.samples.iter().map(|x| x.lat_us).collect();
    let l = Summary::of(&lat);
    let sl = slices(&d.samples, d.wall_s);
    out.metric("encode_mbps", median(&enc_mbps));
    out.metric(
        "decode_mbps",
        median(&sl.iter().map(|x| x.mbps).collect::<Vec<_>>()),
    );
    out.metric(
        "bits_per_value",
        archive_bytes as f64 * 8.0 / s.field.data.len() as f64,
    );
    out.metric(
        "ops_per_s",
        median(&sl.iter().map(|x| x.rps).collect::<Vec<_>>()),
    );
    out.metric(
        "op_p50_ms",
        median(&sl.iter().map(|x| x.lat.median).collect::<Vec<_>>()) / 1e3,
    );
    out.metric("peak_rss_mib", peak_rss);
    out.metric("setup_s", median(&setups));
    out.note(format!(
        "op_p99_ms {:.3} ms, the median over {SLICES} slices (printed, not gated: see the runbook)",
        median(&sl.iter().map(|x| x.lat.p99).collect::<Vec<_>>()) / 1e3
    ));
    out.note(format!(
        "whole loop: serve_rps {:.1} 1/s; serve_p50_us {:.1} us; serve_p99_us {:.1} us; n {} requests on {} connections in {:.2} s",
        l.n as f64 / d.wall_s,
        l.median,
        l.p99,
        l.n,
        threads,
        d.wall_s
    ));
    for (k, x) in sl.iter().enumerate() {
        out.note(format!(
            "slice {k}: serve_rps {:.1} 1/s; serve_p50_us {:.1} us; serve_p99_us {:.1} us; n {}",
            x.rps, x.lat.median, x.lat.p99, x.lat.n
        ));
    }
    if let Some(st) = stats {
        out.note(format!(
            "server STATS: {} requests, {} errors, cache {:.1}% hit ({} hits / {} misses), {} coalesced, {} evicted, {} chunks decoded",
            st.requests, st.errors, hit_pct, st.cache.hits, st.cache.misses, st.cache.coalesced_waits, st.cache.evictions, st.chunks_decoded
        ));
    }
    out.note(format!(
        "local ArchiveReader reorder copies over distinct requests: {reorder}"
    ));
    out.note(format!(
        "setup repeats: {setups:.3?} s; archive build MB/s {enc_mbps:.1?}"
    ));
    out.working_set_bytes = s.field.raw_bytes() + archive_bytes + CACHE_BYTES;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// Fetch events recorded from inside `assemble_rows`, which only sees a
/// `ChunkSource`: (span name, chunk, start ns, end ns).
type Events = Mutex<Vec<(&'static str, usize, u64, u64)>>;

/// A `ChunkSource` that timestamps every `fetch_chunk` of `inner`.
struct Timed<S> {
    inner: S,
    name: &'static str,
    epoch: Instant,
    on: bool,
    events: Arc<Events>,
}

impl<S: ChunkSource<f32>> ChunkSource<f32> for Timed<S> {
    fn header(&self) -> &Header {
        self.inner.header()
    }

    fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows()
    }

    fn entries(&self) -> &[ChunkEntry] {
        self.inner.entries()
    }

    fn fetch_chunk(&self, idx: usize) -> Result<Arc<[f32]>, DecompressError> {
        if !self.on {
            return self.inner.fetch_chunk(idx);
        }
        let s = self.epoch.elapsed().as_nanos() as u64;
        let r = self.inner.fetch_chunk(idx);
        let e = self.epoch.elapsed().as_nanos() as u64;
        self.events
            .lock()
            .expect("event log poisoned")
            .push((self.name, idx, s, e));
        r
    }
}

type Stack = Timed<ChunkCache<f32, Timed<ConcurrentReader<File>>>>;

/// Move the fetch events of one `serve.assemble` span into the tracer:
/// cache fetches as its children, reader fetches as children of the
/// cache fetch they ran in. Adds the (hit, duration µs) of each cache
/// fetch to `fetches`, and returns the reader fetches as (span, chunk)
/// for the decode probes.
fn record_fetches(
    t: &mut Tracer,
    events: &Events,
    fetches: &mut Vec<(bool, f64)>,
) -> Vec<(usize, usize)> {
    let evs = std::mem::take(&mut *events.lock().expect("event log poisoned"));
    let mut decoded = Vec::new();
    let reads: Vec<_> = evs.iter().filter(|e| e.0 == "reader.fetch").collect();
    for &(name, _, s, e) in evs.iter().filter(|e| e.0 == "cache.fetch") {
        let id = t.record(name, s, e, None);
        let inner: Vec<_> = reads.iter().filter(|r| r.2 >= s && r.3 <= e).collect();
        for r in &inner {
            decoded.push((t.record(r.0, r.2, r.3, Some(id)), r.1));
        }
        fetches.push((inner.is_empty(), (e - s) as f64 / 1e3));
    }
    decoded
}

fn open_stack(
    archive: &Path,
    epoch: Instant,
    on: bool,
    events: &Arc<Events>,
) -> Result<Stack, String> {
    let reader = ConcurrentReader::open_path(archive).map_err(|e| e.to_string())?;
    let reader = Timed {
        inner: reader,
        name: "reader.fetch",
        epoch,
        on,
        events: Arc::clone(events),
    };
    let cache = ChunkCache::new(reader, CACHE_BYTES);
    Ok(Timed {
        inner: cache,
        name: "cache.fetch",
        epoch,
        on,
        events: Arc::clone(events),
    })
}

/// What the server does for one request, minus the socket: parse the
/// frame, fetch and assemble the rows, serialize the payload. Reader
/// fetches (cache misses) are appended to `decoded` as (span, chunk).
fn serve_one(
    t: &mut Tracer,
    stack: &Stack,
    events: &Events,
    frame: &[u8],
    fetches: &mut Vec<(bool, f64)>,
    decoded: &mut Vec<(usize, usize)>,
) -> Result<Vec<f32>, String> {
    let (_, req) = t
        .span("protocol.parse", |_| parse_request(&frame[FRAME_PREFIX..]))
        .map_err(|(_, c)| c.name().to_string())?;
    t.span("serve.assemble", |t| {
        let (start, vals): (usize, Vec<f32>) = match req {
            Request::ReadRows { start, count } => {
                let (s, n) = (start as usize, count as usize);
                (
                    s,
                    assemble_rows(stack, s..s + n)
                        .map_err(|e| e.to_string())?
                        .into_vec(),
                )
            }
            Request::ReadChunk { idx } => {
                let e = stack.entries()[idx as usize];
                (
                    e.start_row,
                    stack
                        .fetch_chunk(idx as usize)
                        .map_err(|e| e.to_string())?
                        .to_vec(),
                )
            }
            other => return Err(format!("unexpected request {other:?}")),
        };
        let mut payload = Vec::with_capacity(16 + vals.len() * 4);
        put_u64(&mut payload, start as u64);
        put_u64(&mut payload, vals.len() as u64);
        payload.extend(inputs::f32_le_bytes(&vals));
        std::hint::black_box(&payload);
        if t.enabled() {
            decoded.extend(record_fetches(t, events, fetches));
        }
        Ok(vals)
    })
}

pub fn run_traced(
    seed: u64,
    seconds: f64,
    rqm: &Path,
    dir: &Path,
    threads: usize,
) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let s = setup(seed, dir, rqm, threads)?;
    let reference = ArchiveReader::open_path(&s.archive)
        .and_then(|mut r| r.read_all::<f32>())
        .map_err(|e| format!("local read of {}: {e}", s.archive.display()))?;
    let reference = Arc::new(reference.into_vec());
    let row_elems: usize = s.field.shape.dims()[1..].iter().product();
    let rows = s.field.shape.dim(0);

    // Client pass: the same closed loop for a fixed request count, to
    // record the order requests reached the server and their latency.
    let d = drive(
        &s.server.addr,
        seed,
        threads,
        &reference,
        row_elems,
        rows,
        Stop::After(TRACE_REQUESTS_PER_CONN),
    );
    let (_, stats) = check_drive(
        &d,
        &s.server.addr,
        &s.archive,
        &reference,
        row_elems,
        &mut out.checks,
    );
    let archive = s.archive.clone();
    s.server.stop();
    let mut order = d.samples.clone();
    order.sort_by_key(|x| x.seq);

    let mut traced = Tracer::new(true);
    let events: Arc<Events> = Arc::new(Mutex::new(Vec::new()));
    let mut check_reader = ArchiveReader::open_path(&archive).map_err(|e| e.to_string())?;
    let entries = check_reader.entries().to_vec();
    let header = check_reader.header().clone();
    let archive_bytes =
        std::fs::read(&archive).map_err(|e| format!("{}: {e}", archive.display()))?;
    let (mut on_walls, mut off_walls) = (Vec::new(), Vec::new());
    let mut per_req = vec![0.0f64; order.len()];
    let (mut fetches, mut parse_us, mut assemble_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut cache_stats = None;
    let mut reader_stats = None;
    let start = Instant::now();
    let mut pass = 0usize;
    let mut last_pass = 0.0f64;
    while pass < 3 || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_start = Instant::now();
        let kind_of_pass = trace::pass_kind(pass);
        let tracing = kind_of_pass == Some(true);
        let mut untraced = Tracer::new(false);
        let t: &mut Tracer = if tracing { &mut traced } else { &mut untraced };
        let stack = t.span("reader.open", |t| {
            open_stack(&archive, t.epoch(), tracing, &events)
        })?;
        let mut wall = 0u64;
        for (i, &Sample { seq, req, .. }) in order.iter().enumerate() {
            let frame = match req {
                Req::Rows(a, b) => encode_request(seq, &Request::rows(a..b)),
                Req::Chunk(c) => encode_request(seq, &Request::ReadChunk { idx: c as u64 }),
            };
            t.set_op(pass as u64 * order.len() as u64 + i as u64);
            let first_span = t.spans.len();
            let t0 = Instant::now();
            let mut decoded = Vec::new();
            let r = t.span("op", |t| {
                serve_one(t, &stack, &events, &frame, &mut fetches, &mut decoded)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            wall += ns;
            // `ConcurrentReader::fetch_chunk` hides the codec: re-time the
            // decode of every chunk it fetched as a probe of its span.
            for (of, idx) in decoded {
                let e = entries[idx];
                let cshape = slab_shape(header.shape, e.rows);
                let mut buf = vec![0f32; cshape.len()];
                let codec = SzChunkCodec::new(
                    header.predictor,
                    LinearQuantizer::new(e.eb, header.radius),
                    header.lossless,
                );
                let ok = t.probe("codec.decode.sz", Some(of), |_| {
                    ChunkCodec::<f32>::decode(
                        &codec,
                        &archive_bytes[e.offset..e.offset + e.len],
                        cshape,
                        &mut buf,
                    )
                });
                out.checks
                    .check(ok.is_ok() && e.codec == ChunkCodecKind::Sz, || {
                        format!("decode probe of chunk {idx} failed")
                    });
            }
            if pass == 1 {
                per_req[i] = ns as f64 / 1e3;
                for sp in &t.spans[first_span..] {
                    match sp.name {
                        "protocol.parse" => parse_us.push(sp.dur_ns() as f64 / 1e3),
                        "serve.assemble" => assemble_us.push(sp.dur_ns() as f64 / 1e3),
                        _ => {}
                    }
                }
                let (a, b) = req_rows(req, &entries);
                let local = check_reader.read_rows::<f32>(a..b);
                let ok = match (&r, local) {
                    (Ok(v), Ok(l)) => bits_equal(v, l.as_slice()),
                    _ => false,
                };
                out.checks.check(ok, || {
                    format!("{req:?}: replayed reply differs from the local ArchiveReader read")
                });
            }
        }
        match kind_of_pass {
            Some(true) => {
                on_walls.push(wall as f64);
                if cache_stats.is_none() {
                    cache_stats = Some(stack.inner.stats());
                    reader_stats = Some(stack.inner.inner().inner.stats());
                }
            }
            Some(false) => off_walls.push(wall as f64),
            None => {}
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        pass += 1;
    }

    let cs = cache_stats.expect("one traced pass");
    let rs = reader_stats.expect("one traced pass");
    let hit_pct = 100.0 * cs.hits as f64 / (cs.hits + cs.misses).max(1) as f64;
    out.checks.check(hit_pct > 0.0 && hit_pct < 100.0, || {
        format!("coverage guard: cache hit rate {hit_pct:.1}% is not strictly between 0 and 100")
    });
    let reorder = check_reader.stats().reorder_copies;
    out.checks.check(reorder > 0, || {
        "coverage guard: no request cropped a chunk (reorder_copies = 0)".into()
    });
    let wire: Vec<f64> = order
        .iter()
        .zip(&per_req)
        .map(|(o, inproc)| o.lat_us - inproc)
        .collect();
    let med_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let hits: Vec<f64> = fetches.iter().filter(|f| f.0).map(|f| f.1).collect();
    let misses: Vec<f64> = fetches.iter().filter(|f| !f.0).map(|f| f.1).collect();
    let passes = on_walls.len() as f64;
    let by_name = trace::self_time_by_name(&traced.spans);
    let secs = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e9 / passes)
    };

    let m = &mut out;
    m.metric("codec.decode_s.sz", secs("codec.decode.sz"));
    m.metric("reader.open_s", secs("reader.open"));
    m.metric("reader.read_s", secs("reader.fetch"));
    m.metric("reader.chunks_decoded", rs.chunks_decoded as f64);
    m.metric("reader.blob_bytes_read", rs.blob_bytes_read as f64);
    m.metric("reader.reorder_copies", reorder as f64);
    m.metric("cache.hit_pct", hit_pct);
    m.metric("cache.fetch_hit_us", med_or_zero(&hits));
    m.metric("cache.fetch_miss_us", med_or_zero(&misses));
    m.metric("cache.evictions", cs.evictions as f64);
    m.metric(
        "cache.coalesced_waits",
        stats.map_or(0.0, |s| s.cache.coalesced_waits as f64),
    );
    m.metric("protocol.parse_us", med_or_zero(&parse_us));
    m.metric("serve.assemble_us", med_or_zero(&assemble_us));
    m.metric("serve.wire_us", med_or_zero(&wire));
    m.metric("serve.errors", stats.map_or(f64::NAN, |s| s.errors as f64));
    m.metric("trace.coverage_pct", trace::coverage_pct(&traced.spans));
    let (on, off) = (median(&on_walls), median(&off_walls));
    m.metric("trace.overhead_pct", 100.0 * (on - off) / off);
    // The served archive is all sz: the other decoders have no work.
    m.no_work(&["core.", "cli.", "scheduler.", "codec.", "writer.", "io."]);
    let lat = Summary::of(&order.iter().map(|o| o.lat_us).collect::<Vec<_>>());
    m.note(format!(
        "client pass: {} requests on {} connections, latency median {:.1} us p99 {:.1} us; replay: a warm-up, {} traced, {} untraced passes",
        lat.n,
        threads,
        lat.median,
        lat.p99,
        on_walls.len(),
        off_walls.len()
    ));
    m.note(format!(
        "replay cache: {} hits, {} misses, {} evictions; server STATS coalesced waits {:?}",
        cs.hits,
        cs.misses,
        cs.evictions,
        stats.map(|s| s.cache.coalesced_waits)
    ));
    out.working_set_bytes = s.field.raw_bytes() + CACHE_BYTES;
    Ok((out, traced))
}
