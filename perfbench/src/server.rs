//! Building, spawning and observing the `ptrng-serve` process under test.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Duration;

use crate::client::{Conn, Response};
use crate::workload::{request, DEPLOYMENT};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux ABI).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Builds `ptrng-serve` from the checkout (a no-op once it is fresh) and
/// returns its path.  Runs from the repository root, where the benchmark's
/// command starts, into `$CARGO_TARGET_DIR` (default `target/`).
pub fn build_binary() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("crates/serve/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root: crates/serve is missing",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "ptrng-serve", "--bin", "ptrng-serve"])
        .current_dir(&root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ptrng-serve failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    Ok(target.join("release").join("ptrng-serve"))
}

/// A running `ptrng-serve`; dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server's late stderr lines never hit a closed pipe.
    stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Spawns the deployment with `seed` on an ephemeral loopback port and
    /// waits for its listen line.
    pub fn spawn(bin: &Path, seed: u64) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(DEPLOYMENT)
            .args(["--listen", "127.0.0.1:0", "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let read = server
                .stderr
                .read_line(&mut line)
                .map_err(|e| format!("reading ptrng-serve's stderr: {e}"))?;
            if read == 0 {
                return Err("ptrng-serve exited before it listened".to_string());
            }
            if line.contains("REFUSING") {
                return Err(format!("ptrng-serve refuses to serve: {}", line.trim()));
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|addr| addr.parse().ok())
                    .ok_or_else(|| format!("unparsable listen line: {}", line.trim()))?;
                return Ok(server);
            }
        }
    }

    /// User plus system CPU time the process has used.
    pub fn cpu(&self) -> Result<Duration, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |index: usize| {
            fields
                .get(index)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{path}: malformed"))
        };
        let total = ticks(11)? + ticks(12)?;
        Ok(Duration::from_secs_f64(total as f64 / CLOCK_TICKS_PER_SEC))
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| {
                value
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kib / 1024.0)
    }

    /// One request on a fresh connection, keeping up to `keep` body bytes.
    pub fn get(&self, path: &str, keep: usize) -> Result<Response, String> {
        let (mut conn, _) =
            Conn::open(self.addr, keep).map_err(|e| format!("GET {path}: connect: {e}"))?;
        conn.send(&request(path))
            .and_then(|()| conn.next_response(None))
            .map_err(|e| format!("GET {path}: {e}"))?
            .ok_or_else(|| format!("GET {path}: no response"))
    }

    /// The `/metrics` exposition.
    pub fn scrape(&self) -> Result<String, String> {
        let response = self.get("/metrics", 1 << 22)?;
        if response.status != 200 {
            return Err(format!("GET /metrics: HTTP {}", response.status));
        }
        String::from_utf8(response.body).map_err(|_| "GET /metrics: not UTF-8".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The process is gone or going either way; errors here change nothing.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
