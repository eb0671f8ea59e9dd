//! Child processes of the `rqm` binary, with wall time and peak RSS.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// How one finished child went.
pub struct Finished {
    pub ok: bool,
    pub wall_s: f64,
    /// Peak resident set size of the child in MiB (NaN where the
    /// platform does not report it).
    pub peak_rss_mib: f64,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s starting with `ru_maxrss` (in KiB).
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Reap `child`, returning whether it exited with status 0 and its peak
/// RSS in MiB.
#[cfg(target_os = "linux")]
fn reap(child: &mut Child) -> (bool, f64) {
    const _: () = assert!(std::mem::size_of::<sys::Rusage>() == 144);
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and of the
        // layout wait4(2) expects for 64-bit Linux (size asserted above);
        // `pid` is our own unreaped child, so no other process is waited.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
            return (exited_zero, usage.maxrss as f64 / 1024.0);
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            // Not ours to reap any more; fall back to std's wait.
            return (child.wait().map(|s| s.success()).unwrap_or(false), f64::NAN);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn reap(child: &mut Child) -> (bool, f64) {
    (child.wait().map(|s| s.success()).unwrap_or(false), f64::NAN)
}

/// Run `rqm <args>` to completion, timing it from spawn to reap. Its
/// standard output is discarded (the benchmark's own output must end
/// with the result line); its standard error passes through.
pub fn run(rqm: &Path, args: &[&str]) -> Finished {
    let start = Instant::now();
    let spawned = Command::new(rqm)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn();
    match spawned {
        Ok(mut child) => {
            let (ok, rss) = reap(&mut child);
            Finished {
                ok,
                wall_s: start.elapsed().as_secs_f64(),
                peak_rss_mib: rss,
            }
        }
        Err(e) => {
            eprintln!("e2ebench: cannot start {}: {e}", rqm.display());
            Finished {
                ok: false,
                wall_s: start.elapsed().as_secs_f64(),
                peak_rss_mib: f64::NAN,
            }
        }
    }
}

/// A running `rqm serve`, killed and reaped on drop.
pub struct Server {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Start `rqm serve <archive>` on an ephemeral loopback port and wait
    /// for its "serving … on ADDR" line.
    pub fn start(
        rqm: &Path,
        archive: &Path,
        cache_bytes: u64,
        max_conns: usize,
    ) -> Result<Server, String> {
        let mut child = Command::new(rqm)
            .arg("serve")
            .arg(archive)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--cache-bytes",
                &cache_bytes.to_string(),
            ])
            .args(["--threads", &max_conns.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rqm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                addr: addr.to_string(),
                _stdout: stdout,
                child: Some(child),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "rqm serve did not report its address (got {line:?})"
                ))
            }
        }
    }

    /// Kill the server and return its peak RSS in MiB.
    pub fn stop(mut self) -> f64 {
        self.kill_and_reap()
    }

    fn kill_and_reap(&mut self) -> f64 {
        match self.child.take() {
            Some(mut child) => {
                let _ = child.kill();
                reap(&mut child).1
            }
            None => f64::NAN,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// Build `rqm` from the checkout in the working directory and return the
/// binary's path. Cargo's target directory follows `CARGO_TARGET_DIR`
/// like any cargo invocation.
pub fn build_rqm() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "rq-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rqm failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("rqm");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}
