//! Concurrency load generation against a running entropy server — the library
//! behind the `ptrng-loadgen` bin.
//!
//! The load is a closed loop: `connections` clients all connect, rendezvous on a
//! barrier (so the target provably holds that many sockets *simultaneously*), then
//! each issues `requests_per_conn` keep-alive requests back-to-back.  This measures
//! the concurrent-connection ceiling and per-request service latency.  Open-loop
//! load (arrivals at a fixed rate) is perfbench's `random-small` workload.
//!
//! The client is a deliberately minimal HTTP/1.1 reader (status line, headers,
//! `Content-Length` or chunked framing) — enough to drive the server it ships with,
//! not a general client.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use ptrng_obs::LogLinearHistogram;

/// Configuration of one load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target address, e.g. `127.0.0.1:7878`.
    pub target: String,
    /// Request path with query, e.g. `/random?bytes=4096`.
    pub path: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Keep-alive requests per connection.
    pub requests_per_conn: usize,
}

impl LoadgenConfig {
    /// A run of `connections` simultaneous clients, two keep-alive requests
    /// each.
    pub fn closed(target: impl Into<String>, path: impl Into<String>, connections: usize) -> Self {
        Self {
            target: target.into(),
            path: path.into(),
            connections,
            requests_per_conn: 2,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections asked for.
    pub connections: usize,
    /// Connections that connected and reached the rendezvous.
    pub connected: usize,
    /// Requests that completed with a parsed response.
    pub requests: u64,
    /// Transport or parse failures (failed connects included).
    pub errors: u64,
    /// Response body bytes consumed across all requests.
    pub bytes_read: u64,
    /// Responses by status code.
    pub status_counts: BTreeMap<u16, u64>,
    /// Request-latency quantiles, milliseconds (`None`: no requests recorded).
    pub p50_ms: Option<f64>,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: Option<f64>,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: Option<f64>,
    /// Wall-clock of the measured phase (rendezvous release to last join).
    pub elapsed_secs: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
}

impl LoadReport {
    /// The pass verdict a CI gate wants: every connection connected, at least
    /// one request completed, no transport errors, and no 5xx responses.
    pub fn ok(&self) -> bool {
        self.errors == 0
            && self.requests > 0
            && !self.status_counts.keys().any(|status| *status >= 500)
    }

    /// The report as one JSON object (stable keys, suitable for `jq`).
    pub fn to_json(&self) -> String {
        let statuses: Vec<String> = self
            .status_counts
            .iter()
            .map(|(status, count)| format!("\"{status}\":{count}"))
            .collect();
        let quantile = |q: Option<f64>| match q {
            Some(ms) => format!("{ms:.3}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"connections\":{},\"connected\":{},\"requests\":{},\"errors\":{},\
             \"bytes_read\":{},\"status_counts\":{{{}}},\"p50_ms\":{},\"p90_ms\":{},\
             \"p99_ms\":{},\"elapsed_secs\":{:.3},\"requests_per_sec\":{:.1},\"ok\":{}}}",
            self.connections,
            self.connected,
            self.requests,
            self.errors,
            self.bytes_read,
            statuses.join(","),
            quantile(self.p50_ms),
            quantile(self.p90_ms),
            quantile(self.p99_ms),
            self.elapsed_secs,
            self.requests_per_sec,
            self.ok()
        )
    }
}

/// Shared tallies, updated by every client thread.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    bytes: AtomicU64,
    connected: AtomicUsize,
    statuses: Mutex<BTreeMap<u16, u64>>,
}

impl Counters {
    fn count_response(&self, status: u16, body_bytes: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(body_bytes, Ordering::Relaxed);
        *self
            .statuses
            .lock()
            .expect("status lock poisoned")
            .entry(status)
            .or_insert(0) += 1;
    }
}

fn client_threads<F>(count: usize, work: F) -> Vec<std::thread::JoinHandle<()>>
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let work = Arc::new(work);
    (0..count)
        .map(|index| {
            let work = Arc::clone(&work);
            std::thread::Builder::new()
                .name(format!("loadgen-{index}"))
                // Hundreds of client threads: keep their stacks small.
                .stack_size(256 << 10)
                .spawn(move || work(index))
                .expect("client thread spawns")
        })
        .collect()
}

fn connect_with_retry(target: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..3 {
        match TcpStream::connect(target) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                return Ok(stream);
            }
            Err(error) => {
                last = Some(error);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Runs one load test to completion and reports.
pub fn run(config: &LoadgenConfig) -> LoadReport {
    let histogram = Arc::new(LogLinearHistogram::new());
    let counters = Arc::new(Counters::default());
    // +1: the parent joins the rendezvous to start the clock at release time.
    let barrier = Arc::new(Barrier::new(config.connections + 1));
    let threads = {
        let target = config.target.clone();
        let path = config.path.clone();
        let requests = config.requests_per_conn;
        let histogram = Arc::clone(&histogram);
        let counters = Arc::clone(&counters);
        let barrier = Arc::clone(&barrier);
        client_threads(config.connections, move |_| {
            // Connect *before* the rendezvous: when the barrier releases, every
            // surviving socket is provably open at the same time.
            let stream = connect_with_retry(&target);
            if stream.is_ok() {
                counters.connected.fetch_add(1, Ordering::Relaxed);
            }
            barrier.wait();
            let Ok(stream) = stream else {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let mut conn = Some(BufReader::new(stream));
            // The server closes a connection once its keep-alive budget is
            // spent (`Connection: close`): reconnect for the next request.
            let reconnect = || connect_with_retry(&target).ok().map(BufReader::new);
            for _ in 0..requests {
                let Some(open) = conn.take().or_else(reconnect) else {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let start = Instant::now();
                match one_request(open, &path, &counters) {
                    Ok(kept) => conn = kept,
                    Err(()) => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                histogram.record(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
        })
    };
    barrier.wait();
    let released = Instant::now();
    for thread in threads {
        let _ = thread.join();
    }
    report(config, &counters, &histogram, released.elapsed())
}

fn report(
    config: &LoadgenConfig,
    counters: &Counters,
    histogram: &LogLinearHistogram,
    elapsed: Duration,
) -> LoadReport {
    let snapshot = histogram.snapshot();
    let quantile = |q: f64| snapshot.quantile(q).map(|ns| ns as f64 / 1e6);
    let requests = counters.requests.load(Ordering::Relaxed);
    let elapsed_secs = elapsed.as_secs_f64();
    LoadReport {
        connections: config.connections,
        connected: counters.connected.load(Ordering::Relaxed),
        requests,
        errors: counters.errors.load(Ordering::Relaxed),
        bytes_read: counters.bytes.load(Ordering::Relaxed),
        status_counts: counters
            .statuses
            .lock()
            .expect("status lock poisoned")
            .clone(),
        p50_ms: quantile(0.5),
        p90_ms: quantile(0.9),
        p99_ms: quantile(0.99),
        elapsed_secs,
        requests_per_sec: if elapsed_secs > 0.0 {
            requests as f64 / elapsed_secs
        } else {
            0.0
        },
    }
}

/// Sends one `GET` on `conn` and consumes the full response; counts it on
/// success and hands the connection back unless the server closes it.
fn one_request(
    mut conn: BufReader<TcpStream>,
    path: &str,
    counters: &Counters,
) -> std::result::Result<Option<BufReader<TcpStream>>, ()> {
    // One write_all, not write!: the fmt machinery issues a syscall per
    // fragment, and a server that answers-and-closes without reading (the
    // accept-refusal path) RSTs the remainder mid-request.
    let request = format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n");
    // The write outcome is ignored: even when it fails, a refusal (503/429 at
    // accept) may already sit in the receive buffer, and whether the exchange
    // counts is decided by the response read either way.
    let _ = conn.get_mut().write_all(request.as_bytes());
    let (status, body_bytes, close) = read_response(&mut conn).map_err(|_| ())?;
    counters.count_response(status, body_bytes);
    Ok((!close).then_some(conn))
}

/// Reads one HTTP/1.1 response (head + `Content-Length` or chunked body),
/// returning the status, the body byte count, and whether the server closes
/// the connection after it (`Connection: close`).
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, u64, bool)> {
    let bad =
        |detail: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length: Option<u64> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside the response head",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = 0u64;
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                line.clear();
                reader.read_line(&mut line)?; // trailing CRLF of the terminator
                break;
            }
            skip_exact(reader, size + 2)?; // chunk payload + its CRLF
            body += size as u64;
        }
    } else if let Some(length) = content_length {
        skip_exact(reader, length as usize)?;
        body = length;
    }
    Ok((status, body, close))
}

fn skip_exact(reader: &mut impl Read, mut n: usize) -> std::io::Result<()> {
    let mut scratch = [0u8; 8192];
    while n > 0 {
        let take = n.min(scratch.len());
        reader.read_exact(&mut scratch[..take])?;
        n -= take;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn serve_canned(payload: &'static [u8]) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let mut sink = [0u8; 1024];
                let _ = stream.read(&mut sink); // absorb the request head
                let _ = stream.write_all(payload);
            }
        });
        addr
    }

    fn read_from(addr: std::net::SocketAddr, path: &str) -> (u16, u64, bool) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One write_all: write! issues a syscall per fragment, and the canned
        // server answers-and-closes after its first read, RSTing the tail.
        writer
            .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        read_response(&mut reader).unwrap()
    }

    #[test]
    fn content_length_responses_are_consumed() {
        let addr = serve_canned(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(read_from(addr, "/x"), (200, 5, false));
        let addr = serve_canned(
            b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 2\r\n\r\nno",
        );
        assert_eq!(
            read_from(addr, "/x"),
            (503, 2, true),
            "the close is reported"
        );
    }

    #[test]
    fn chunked_responses_are_consumed() {
        let addr = serve_canned(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n2\r\nef\r\n0\r\n\r\n",
        );
        assert_eq!(read_from(addr, "/x"), (200, 6, false));
    }

    #[test]
    fn report_verdict_and_json_shape() {
        let mut report = LoadReport {
            connections: 8,
            connected: 8,
            requests: 16,
            errors: 0,
            bytes_read: 4096,
            status_counts: BTreeMap::from([(200, 15), (429, 1)]),
            p50_ms: Some(1.25),
            p90_ms: Some(2.5),
            p99_ms: Some(9.0),
            elapsed_secs: 0.5,
            requests_per_sec: 32.0,
        };
        assert!(report.ok(), "429s are load-shedding, not failure");
        let json = report.to_json();
        assert!(json.contains("\"connections\":8"), "{json}");
        assert!(json.contains("\"200\":15"), "{json}");
        assert!(json.contains("\"p99_ms\":9.000"), "{json}");
        assert!(json.contains("\"ok\":true"), "{json}");

        report.status_counts.insert(503, 1);
        assert!(!report.ok(), "any 5xx fails the verdict");
        report.status_counts.remove(&503);
        report.errors = 1;
        assert!(!report.ok(), "transport errors fail the verdict");
    }
}
