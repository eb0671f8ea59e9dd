//! Protocol-v2 differential for served catalogs: 64 client threads fire
//! randomized `READ_STEP_ROWS` (plus v1 ops against the flattened
//! default dataset) at one server over an `RQCAT` file, and every reply
//! must be byte-identical to a local `CatalogReader::read_step` decode —
//! across cache budgets {0, tiny, unbounded}. Also pins the v2 contract
//! for plain archives (one pseudo-dataset) and the typed out-of-range
//! error codes.

use rqm::catalog::{CatalogReader, CatalogWriter};
use rqm::prelude::*;
use rqm::serve::{ClientError, ErrorCode, SINGLE_ARCHIVE_DATASET};
use std::io::Cursor;
use std::sync::{Arc, Barrier};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const DIMS: [usize; 3] = [12, 8, 8];
const N_STEPS: usize = 6;
const EB: f64 = 1e-3;

/// A two-dataset RTM catalog: f32 pressure + f64 energy, cadence 3.
fn catalog_bytes() -> Vec<u8> {
    let steps32 = rqm::datagen::rtm_steps(0xD1FF, N_STEPS, DIMS);
    let steps64: Vec<NdArray<f64>> = steps32
        .iter()
        .map(|s| {
            NdArray::from_vec(
                s.shape(),
                s.as_slice().iter().map(|&v| v as f64 * 2.0 - 0.5).collect(),
            )
        })
        .collect();
    let cfg32 = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB)).chunked(4);
    let cfg64 = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("pressure", &cfg32, 3, &steps32).unwrap();
    w.write_dataset("energy", &cfg64, 3, &steps64).unwrap();
    w.finalize().unwrap().sink
}

/// Writes `bytes` to a directory of its own per file name: tests run in
/// parallel and each removes its directory when done, so a shared one
/// could vanish under another test.
fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rqm_serve_cat_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn sixty_four_clients_match_the_local_catalog_decode_across_budgets() {
    let bytes = catalog_bytes();
    let path = write_temp("diff.rqc", &bytes);

    // The local reference: every step of both datasets, decoded once.
    let mut local = CatalogReader::open(Cursor::new(bytes)).unwrap();
    let ref32: Vec<Arc<Vec<f32>>> = (0..N_STEPS)
        .map(|t| Arc::new(local.read_step::<f32>("pressure", t).unwrap().into_vec()))
        .collect();
    let ref64: Vec<Arc<Vec<f64>>> = (0..N_STEPS)
        .map(|t| Arc::new(local.read_step::<f64>("energy", t).unwrap().into_vec()))
        .collect();
    let ref32 = Arc::new(ref32);
    let ref64 = Arc::new(ref64);
    let row_elems = DIMS[1] * DIMS[2];

    const CLIENTS: usize = 64;
    const OPS: usize = 6;
    // A decoded f32 chunk ≈ 4 × 48 × 4 = 768 bytes: "tiny" thrashes.
    for (budget_name, budget) in [("0", 0u64), ("tiny", 2_000), ("unbounded", u64::MAX)] {
        let what = format!("cache={budget_name}");
        let cfg = ServeConfig { cache_bytes: budget, ..ServeConfig::default() };
        let server = Arc::new(Server::bind_path("127.0.0.1:0", &path, cfg).unwrap());
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client_id| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                let ref32 = Arc::clone(&ref32);
                let ref64 = Arc::clone(&ref64);
                let what = what.clone();
                std::thread::spawn(move || {
                    let mut rng = Rng(0xCA7A ^ (client_id as u64) << 13 | 1);
                    let mut c = Client::connect(server.local_addr()).unwrap();
                    let ds = c.list_datasets().unwrap();
                    assert_eq!(ds.len(), 2, "{what}: dataset listing");
                    assert_eq!(ds[0].name, "pressure");
                    assert_eq!(ds[1].name, "energy");
                    assert_eq!(ds[0].step_dims, DIMS.to_vec());
                    assert_eq!(ds[0].n_steps, N_STEPS as u64);
                    assert_eq!(ds[0].keyframe_every, 3);
                    barrier.wait();
                    for _ in 0..OPS {
                        let t = rng.below(N_STEPS);
                        let a = rng.below(DIMS[0]);
                        let b = (a + 1 + rng.below(DIMS[0] - a)).min(DIMS[0]);
                        if rng.below(2) == 0 {
                            let slab = c.read_step_rows::<f32>(&ds[0], t as u64, a..b).unwrap();
                            let want = &ref32[t][a * row_elems..b * row_elems];
                            assert_eq!(
                                slab.as_slice(),
                                want,
                                "{what}: pressure step {t} rows {a}..{b} diverge"
                            );
                        } else {
                            let slab = c.read_step_rows::<f64>(&ds[1], t as u64, a..b).unwrap();
                            let want = &ref64[t][a * row_elems..b * row_elems];
                            assert_eq!(
                                slab.as_slice(),
                                want,
                                "{what}: energy step {t} rows {a}..{b} diverge"
                            );
                        }
                    }
                    // The v1 ops keep working against a catalog: they see
                    // dataset 0 flattened time-major.
                    let flat = c.read_rows::<f32>(0..DIMS[0]).unwrap();
                    assert_eq!(
                        flat.as_slice(),
                        &ref32[0][..],
                        "{what}: READ_ROWS must serve dataset 0, step 0"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = server.stats();
        assert_eq!(s.errors, 0, "{what}: no request may fail");
        assert_eq!(s.connections, CLIENTS as u64, "{what}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn plain_archives_answer_v2_with_one_pseudo_dataset() {
    let field = rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(20, 8, 6), 10, 30.0);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB)).chunked(5);
    let bytes = compress(&field, &cfg).unwrap().bytes;
    let server = Server::bind_bytes("127.0.0.1:0", bytes.clone(), ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let ds = c.list_datasets().unwrap();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].name, SINGLE_ARCHIVE_DATASET);
    assert_eq!(ds[0].step_dims, vec![20, 8, 6]);
    assert_eq!((ds[0].n_steps, ds[0].keyframe_every), (1, 1));
    assert_eq!(ds[0].scalar_tag, 0x04);

    // Step 0 of the pseudo-dataset is the archive itself.
    let local = decompress::<f32>(&bytes).unwrap();
    let slab = c.read_step_rows::<f32>(&ds[0], 0, 3..11).unwrap();
    assert_eq!(slab.as_slice(), &local.as_slice()[3 * 48..11 * 48]);
}

#[test]
fn out_of_range_steps_and_datasets_get_typed_errors() {
    let bytes = catalog_bytes();
    let path = write_temp("err.rqc", &bytes);
    let server = Server::bind_path("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let ds = c.list_datasets().unwrap();

    let mut bad_ds = ds[0].clone();
    bad_ds.index = 7;
    let cases: Vec<(&str, ClientError, ErrorCode)> = vec![
        (
            "dataset past catalog",
            c.read_step_rows::<f32>(&bad_ds, 0, 0..1).unwrap_err(),
            ErrorCode::DatasetOutOfRange,
        ),
        (
            "step past extent",
            c.read_step_rows::<f32>(&ds[0], N_STEPS as u64, 0..1).unwrap_err(),
            ErrorCode::StepOutOfRange,
        ),
        (
            "rows past step extent",
            c.read_step_rows::<f32>(&ds[0], 0, 0..DIMS[0] + 1).unwrap_err(),
            ErrorCode::RowsOutOfRange,
        ),
        (
            "empty range",
            c.read_step_rows::<f32>(&ds[0], 0, 4..4).unwrap_err(),
            ErrorCode::RowsOutOfRange,
        ),
    ];
    for (what, err, want) in cases {
        match err {
            ClientError::Server { code, .. } => assert_eq!(code, want, "{what}"),
            other => panic!("{what}: expected a typed server error, got {other}"),
        }
    }
    // None of these kill the connection.
    c.ping().unwrap();
    let slab = c.read_step_rows::<f32>(&ds[0], N_STEPS as u64 - 1, 0..2).unwrap();
    assert_eq!(slab.shape().dim(0), 2);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
