//! Running `gosh` commands as a user does: one process each, timed from
//! spawn to exit, with their peak resident memory.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// No single command may run longer: the whole run has 180 s.
const COMMAND_TIMEOUT_S: f64 = 120.0;

/// The `gosh` binary and the flags every command shares.
pub struct Gosh {
    pub bin: PathBuf,
    /// `--threads` of every command: the host's logical cores.
    pub threads: usize,
    /// `measure.py`, which reads the peak RSS `wait4` reports, and the
    /// Python interpreter that runs it.
    pub measure: PathBuf,
    pub python: PathBuf,
}

/// One measured command.
pub struct Measured {
    pub wall_s: f64,
    /// User plus system seconds, all threads.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub stdout: String,
}

impl Gosh {
    /// Run a command whose output only matters through its files
    /// (set-up steps). Returns its standard output.
    pub fn run_quiet<S: AsRef<OsStr>>(&self, args: &[S]) -> Result<String, String> {
        let out = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("starting {}: {e}", self.bin.display()))?;
        if !out.status.success() {
            return Err(failed(args, &out.stderr));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    }

    /// Run one timed command through `measure.py`; `scratch` names the
    /// file the wrapper reports into.
    pub fn run_measured<S: AsRef<OsStr>>(
        &self,
        args: &[S],
        scratch: &Path,
    ) -> Result<Measured, String> {
        let out = Command::new(&self.python)
            .arg("-S")
            .arg(&self.measure)
            .arg(scratch)
            .arg(COMMAND_TIMEOUT_S.to_string())
            .arg(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("starting {}: {e}", self.python.display()))?;
        if !out.status.success() {
            return Err(failed(args, &out.stderr));
        }
        let report = std::fs::read_to_string(scratch)
            .map_err(|e| format!("reading {}: {e}", scratch.display()))?;
        let field = |key: &str| -> Result<f64, String> {
            let at = report
                .find(&format!("\"{key}\": "))
                .ok_or_else(|| format!("measure report lacks {key}: {report}"))?;
            let rest = &report[at + key.len() + 4..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end]
                .trim()
                .parse()
                .map_err(|_| format!("bad {key} in {report}"))
        };
        Ok(Measured {
            wall_s: field("wall_s")?,
            cpu_s: field("cpu_s")?,
            peak_rss_mb: field("max_rss_kb")? / 1024.0,
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        })
    }

    /// Start `gosh serve` on an ephemeral loopback port and wait for the
    /// line that names the bound address.
    pub fn spawn_server(&self, store: &Path) -> Result<ServerProc, String> {
        let started = Instant::now();
        let mut child = Command::new(&self.bin)
            .arg("serve")
            .arg(store)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &self.threads.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting gosh serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
                started,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("gosh serve printed no address: `{}`", line.trim()))
            }
        }
    }
}

fn failed<S: AsRef<OsStr>>(args: &[S], stderr: &[u8]) -> String {
    let words: Vec<_> = args.iter().map(|a| a.as_ref().to_string_lossy()).collect();
    format!(
        "gosh {} failed: {}",
        words.join(" "),
        String::from_utf8_lossy(stderr).trim()
    )
}

/// A running `gosh serve`.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub started: Instant,
}

impl ServerProc {
    /// Peak resident memory so far (`VmHWM`), in MB. Read while the
    /// server is alive, just before it is asked to stop.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// CPU seconds the server has run so far, summed over its threads
    /// (`/proc/<pid>/task/*/schedstat`, nanoseconds).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let mut ns = 0u64;
        for task in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
            let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
            // A worker may exit between listing and reading; it no longer
            // counts.
            if let Ok(stat) = std::fs::read_to_string(path) {
                ns += stat
                    .split_whitespace()
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or(0);
            }
        }
        Ok(ns as f64 / 1e9)
    }

    /// Wait for the server to exit after a shutdown request; kill it if
    /// it has not within a few seconds.
    pub fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("gosh serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("gosh serve did not stop after shutdown".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A server left running by an error path must not outlive the
        // run; after a clean `wait` both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
