//! Pieces shared by the workloads: output checks, the outcome record,
//! and raw-file helpers mirroring what the CLI does with its inputs.

use rq_grid::{NdArray, Shape, MAX_DIMS};
use std::io::Read;
use std::path::Path;

/// Output checks and coverage guards of one run. A failed check is
/// counted and reported; it never aborts the run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    shown: usize,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.shown < 20 {
                self.shown += 1;
                eprintln!("e2ebench: check failed: {}", what());
            }
        }
    }

    /// Count `attempted` checks of which `failures` (one message each)
    /// failed.
    pub fn bulk(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted.saturating_sub(failures.len() as u64);
        for f in failures {
            self.check(false, || f.clone());
        }
    }

    pub fn fail_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// The metrics the result line carries, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra human-readable detail (distributions, guards, counters).
    pub notes: Vec<String>,
    /// Bytes the run keeps hot: its inputs plus what the program holds.
    pub working_set_bytes: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Report 0 for every per-layer metric under the given prefixes: the
    /// layers this workload does no work in.
    pub fn no_work(&mut self, prefixes: &[&str]) {
        for m in crate::spec::PER_LAYER {
            if prefixes.iter().any(|p| m.name.starts_with(p))
                && !self.metrics.iter().any(|(n, _)| *n == m.name)
            {
                self.metrics.push((m.name, 0.0));
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Shape of an axis-0 slab of `rows` rows cut from a field of `shape`.
pub fn slab_shape(shape: Shape, rows: usize) -> Shape {
    let mut dims = [0usize; MAX_DIMS];
    dims[..shape.ndim()].copy_from_slice(shape.dims());
    dims[0] = rows;
    Shape::new(&dims[..shape.ndim()])
}

/// Read the next `shape.len()` little-endian `f32` values as one slab.
pub fn read_f32_slab(r: &mut impl Read, shape: Shape) -> std::io::Result<NdArray<f32>> {
    let mut bytes = vec![0u8; shape.len() * 4];
    r.read_exact(&mut bytes)?;
    Ok(NdArray::from_vec(shape, crate::inputs::f32_from_le(&bytes)))
}

pub fn read_f32_file(path: &Path) -> std::io::Result<Vec<f32>> {
    Ok(crate::inputs::f32_from_le(&std::fs::read(path)?))
}

/// Elements whose reconstruction error exceeds `eb` (with the f32
/// rounding slack the repository's own bound tests allow), or `None` if
/// the lengths differ.
pub fn bound_violations(orig: &[f32], recon: &[f32], eb: f64) -> Option<usize> {
    (orig.len() == recon.len()).then(|| {
        orig.iter()
            .zip(recon)
            .filter(|(&a, &b)| {
                let err = (a as f64 - b as f64).abs();
                err.is_nan() || err > eb * (1.0 + 1e-6)
            })
            .count()
    })
}

/// Bit-exact equality of two `f32` slices.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}
