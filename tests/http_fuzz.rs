//! Negative-path robustness of the hand-rolled HTTP/1.1 layer: a corpus of
//! malformed requests — oversized heads, truncated request lines, NUL bytes,
//! bogus chunked framing — plus a seeded byte-mangler over valid requests.  Every
//! input must end in a clean 4xx response or a clean connection close, never a
//! panic, a 5xx, or a hang, and the server must keep serving afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ptrng_engine::health::HealthConfig;
use ptrng_engine::pool::EngineConfig;
use ptrng_engine::source::SourceSpec;
use ptrng_serve::http::{HttpError, Request, MAX_HEADERS, MAX_LINE_BYTES};
use ptrng_serve::server::{ServeConfig, Server, ShutdownHandle};

// ---------------------------------------------------------------------------
// Direct parser corpus: every malformed head maps to a typed error, no panics.
// ---------------------------------------------------------------------------

fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
    Request::read_from(&mut std::io::BufReader::new(bytes))
}

#[test]
fn malformed_heads_yield_typed_errors_never_panics() {
    let oversized_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 1));
    let oversized_header = format!(
        "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "b".repeat(MAX_LINE_BYTES + 1)
    );
    let too_many_headers = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        (0..=MAX_HEADERS)
            .map(|i| format!("H{i}: v\r\n"))
            .collect::<String>()
    );
    let cases: Vec<(&str, Vec<u8>, HttpError)> = vec![
        (
            "truncated request line",
            b"GET /entro".to_vec(),
            HttpError::UnexpectedEof,
        ),
        (
            "truncated header block",
            b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec(),
            HttpError::UnexpectedEof,
        ),
        (
            "missing version",
            b"GET /\r\n\r\n".to_vec(),
            HttpError::Malformed("missing version"),
        ),
        (
            "extra request-line tokens",
            b"GET / HTTP/1.1 extra\r\n\r\n".to_vec(),
            HttpError::Malformed("extra tokens in request line"),
        ),
        (
            "unsupported version",
            b"GET / HTTP/2\r\n\r\n".to_vec(),
            HttpError::Malformed("unsupported HTTP version"),
        ),
        (
            "header without colon",
            b"GET / HTTP/1.1\r\nNoColon\r\n\r\n".to_vec(),
            HttpError::Malformed("header without colon"),
        ),
        (
            "non-UTF-8 head",
            b"GET /\xff\xfe HTTP/1.1\r\n\xff\xff\r\n\r\n".to_vec(),
            HttpError::Malformed("non-UTF-8 header"),
        ),
        (
            "oversized request line",
            oversized_line.into_bytes(),
            HttpError::TooLarge("line too long"),
        ),
        (
            "oversized header line",
            oversized_header.into_bytes(),
            HttpError::TooLarge("line too long"),
        ),
        (
            "too many headers",
            too_many_headers.into_bytes(),
            HttpError::TooLarge("too many headers"),
        ),
    ];
    for (label, bytes, expected) in cases {
        match parse(&bytes) {
            Err(error) => assert_eq!(error, expected, "{label}"),
            Ok(parsed) => panic!("{label}: accepted as {parsed:?}"),
        }
    }

    // NUL bytes inside an otherwise-framed head parse without panicking; the
    // garbage target then routes to a 404, never into the entropy path.
    let parsed = parse(b"GET /\0\0 HTTP/1.1\r\nX: \0\r\n\r\n")
        .expect("NUL bytes are not a parser crash")
        .expect("request present");
    assert_eq!(parsed.path, "/\0\0");
}

// ---------------------------------------------------------------------------
// Seeded byte-mangler over the live server.
// ---------------------------------------------------------------------------

struct FuzzServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<ptrng_serve::Result<()>>>,
}

impl FuzzServer {
    fn start() -> Self {
        let engine = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
            .seed(5)
            .health(HealthConfig::default().without_startup_battery());
        let mut config = ServeConfig::new(engine);
        config.listen = "127.0.0.1:0".to_string();
        config.threads = 2;
        // Short socket timeout so a mutant that leaves the connection dangling
        // (e.g. a truncated head) is reaped quickly instead of pinning a worker.
        config.header_timeout = Duration::from_millis(200);
        config.idle_timeout = Duration::from_millis(200);
        let server = Server::bind(config).expect("server binds");
        let addr = server.local_addr().expect("bound address");
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        Self {
            addr,
            handle,
            thread: Some(thread),
        }
    }
}

impl Drop for FuzzServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .expect("server thread joins")
                .expect("server drains cleanly");
        }
    }
}

/// Sends raw bytes, reads until the server closes (bounded by timeouts), and
/// returns every response status code found in the stream.
fn exchange(addr: SocketAddr, payload: &[u8]) -> Vec<u16> {
    let mut conn = TcpStream::connect(addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    // A mutant may have corrupted `Connection: close`; the server's own read
    // timeout closes idle keep-alive connections, so read_to_end terminates.
    let _ = conn.write_all(payload);
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("response read");
    String::from_utf8_lossy(&raw)
        .lines()
        .filter_map(|line| {
            line.strip_prefix("HTTP/1.1 ")
                .and_then(|rest| rest.split(' ').next())
                .and_then(|code| code.parse::<u16>().ok())
        })
        .collect()
}

/// Seeded mangler: applies one random corruption to a valid request.
fn mangle(rng: &mut StdRng, valid: &str) -> Vec<u8> {
    let mut bytes = valid.as_bytes().to_vec();
    match rng.gen_range(0..6) {
        // Truncate mid-head.
        0 => bytes.truncate(rng.gen_range(1..bytes.len())),
        // Flip one byte to a random value.
        1 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..=255);
        }
        // Inject a NUL byte.
        2 => {
            let at = rng.gen_range(0..bytes.len());
            bytes.insert(at, 0);
        }
        // Blow a header up past the line limit.
        3 => {
            let pad = format!(
                "X-Pad: {}\r\n",
                "c".repeat(rng.gen_range(8..2 * MAX_LINE_BYTES))
            );
            bytes.splice(bytes.len() - 2..bytes.len() - 2, pad.into_bytes());
        }
        // Declare a body with bogus chunked framing.
        4 => {
            bytes.splice(
                bytes.len() - 2..bytes.len() - 2,
                b"Transfer-Encoding: chunked\r\n".to_vec(),
            );
            bytes.extend_from_slice(b"ZZZZ\r\nnot-a-chunk");
        }
        // Duplicate a random slice of the head in place.
        _ => {
            let start = rng.gen_range(0..bytes.len() - 1);
            let end = rng.gen_range(start + 1..=bytes.len());
            let slice: Vec<u8> = bytes[start..end].to_vec();
            bytes.splice(start..start, slice);
        }
    }
    bytes
}

/// Time-domain adversaries: prefixes of a valid request dripped a byte at a
/// time, then stalled forever.  Every round must end in a silent server-side
/// close at the header deadline — never a hang, never a response to a head
/// that was never completed — and the server keeps serving afterwards.
#[test]
fn slow_drip_mutants_are_reaped_not_hung() {
    let server = FuzzServer::start();
    let template = "GET /entropy?bytes=64 HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n";
    let mut rng = StdRng::seed_from_u64(777);
    let started = Instant::now();
    for round in 0..6 {
        // Always cut short of the final byte: the head stays incomplete.
        let cut = rng.gen_range(1..template.len());
        let mut conn = TcpStream::connect(server.addr).expect("connects");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        for byte in &template.as_bytes()[..cut] {
            if conn.write_all(&[*byte]).is_err() {
                break; // reaped mid-drip: the deadline fired while we stalled
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink);
        assert!(
            sink.is_empty(),
            "round {round}: incomplete heads are closed silently, got {:?}",
            String::from_utf8_lossy(&sink)
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drip rounds must be reaped by the header deadline, not ride out client patience"
    );
    let statuses = exchange(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(statuses, vec![200]);
}

#[test]
fn mangled_requests_never_hang_or_crash_the_server() {
    let server = FuzzServer::start();
    let templates = [
        "GET /entropy?bytes=64 HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
        "HEAD /metrics HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
    ];
    let mut rng = StdRng::seed_from_u64(4242);
    let mut rejected = 0usize;
    let started = Instant::now();
    for round in 0..36 {
        let template = templates[round % templates.len()];
        let mutant = mangle(&mut rng, template);
        let statuses = exchange(server.addr, &mutant);
        for &status in &statuses {
            assert!(
                (200..500).contains(&status),
                "round {round}: mutant {:?} produced status {status}",
                String::from_utf8_lossy(&mutant)
            );
        }
        if statuses.iter().any(|&s| (400..500).contains(&s)) {
            rejected += 1;
        }
    }
    assert!(
        rejected >= 8,
        "the mangler must exercise the rejection paths ({rejected} rejections)"
    );
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "fuzz exchanges must not stall"
    );

    // The server survived the storm: a clean request still round-trips.
    let statuses = exchange(
        server.addr,
        b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(statuses, vec![200]);
}
