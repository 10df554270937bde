//! Loopback integration tests of the `ptrng-serve` HTTP entropy service: a real
//! server on an ephemeral port, a minimal test client (with a chunked-transfer
//! decoder), and the acceptance behaviours of ISSUE 4 — exact-byte draws, distinct
//! bytes across concurrent clients, the HTTP 503 entropy-deficit refusal carrying
//! the ledger JSON, the 429 token-bucket refusal, the per-request byte cap, and the
//! healthz/metrics shapes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ptrng_engine::expanded::DrbgPolicy;
use ptrng_engine::fault::FaultPlan;
use ptrng_engine::health::HealthConfig;
use ptrng_engine::pool::{ConditionerSpec, EngineConfig};
use ptrng_engine::pooled::PoolOptions;
use ptrng_engine::source::SourceSpec;
use ptrng_serve::server::{RateLimit, ServeConfig, Server, ShutdownHandle};
use ptrng_trng::conditioning::EntropyLedger;

/// A running test server, shut down and joined on drop.
struct TestServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<ptrng_serve::Result<()>>>,
}

impl TestServer {
    fn start(mut config: ServeConfig) -> Self {
        config.listen = "127.0.0.1:0".to_string();
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

impl Drop for TestServer {
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

fn model_config() -> ServeConfig {
    let engine = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
        .shards(2)
        .seed(42)
        .health(HealthConfig::default().without_startup_battery());
    ServeConfig::new(engine)
}

/// A parsed response from the test client.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request (with `Connection: close`) and reads the full response.
fn get(addr: SocketAddr, target: &str) -> Response {
    get_on(TcpStream::connect(addr).expect("connects"), target)
}

/// [`get`] over an already open connection.
fn get_on(mut conn: TcpStream, target: &str) -> Response {
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("response read");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Response {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = std::str::from_utf8(&raw[..head_end]).expect("ASCII head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .map(|line| {
            let (name, value) = line.split_once(':').expect("header line");
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    let payload = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        decode_chunked(payload)
    } else {
        payload.to_vec()
    };
    Response {
        status,
        headers,
        body,
    }
}

/// Minimal `Transfer-Encoding: chunked` decoder for the test client.
fn decode_chunked(mut payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    loop {
        let line_end = payload
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size_text = std::str::from_utf8(&payload[..line_end]).expect("ASCII size");
        let size = usize::from_str_radix(size_text.trim(), 16).expect("hex chunk size");
        payload = &payload[line_end + 2..];
        if size == 0 {
            return body;
        }
        body.extend_from_slice(&payload[..size]);
        assert_eq!(&payload[size..size + 2], b"\r\n", "chunk terminator");
        payload = &payload[size + 2..];
    }
}

#[test]
fn entropy_requests_return_exact_bytes_with_ledger_headers() {
    let server = TestServer::start(model_config());

    let response = get(server.addr, "/entropy?bytes=4096");
    assert_eq!(response.status, 200);
    assert_eq!(response.body.len(), 4096, "exact-byte contract");
    assert!(
        response.body.iter().any(|&b| b != 0),
        "entropy is not all-zero"
    );

    // The accounted ledger is the response contract: a parsable min-entropy header
    // and the canonical ledger JSON that round-trips through the typed form.
    let h: f64 = response
        .header("x-ptrng-minentropy")
        .expect("min-entropy header")
        .parse()
        .expect("numeric min-entropy");
    assert!(h > 0.999, "model source accounts full entropy, got {h}");
    let ledger = EntropyLedger::from_json(response.header("x-ptrng-ledger").expect("ledger"))
        .expect("canonical ledger JSON");
    assert!((ledger.min_entropy_per_bit() - h).abs() < 1e-6);

    // A zero-byte request is legal and returns an empty body.
    let empty = get(server.addr, "/entropy?bytes=0");
    assert_eq!(empty.status, 200);
    assert!(empty.body.is_empty());
}

#[test]
fn concurrent_clients_receive_distinct_entropy() {
    let server = TestServer::start(model_config());
    let addr = server.addr;
    let clients: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || get(addr, "/entropy?bytes=2048").body))
        .collect();
    let bodies: Vec<Vec<u8>> = clients
        .into_iter()
        .map(|c| c.join().expect("client joins"))
        .collect();
    for body in &bodies {
        assert_eq!(body.len(), 2048);
    }
    for a in 0..bodies.len() {
        for b in (a + 1)..bodies.len() {
            assert_ne!(
                bodies[a], bodies[b],
                "clients {a} and {b} received identical bytes"
            );
        }
    }
}

#[test]
fn entropy_deficit_answers_503_with_the_ledger_body() {
    // model:0.95 accounts ~0.074 bits/bit; even sha256:2 cannot reach 0.997, so the
    // engine refuses at spawn and the server starts in refusing mode.
    let engine = EngineConfig::new(SourceSpec::model(0.95).expect("valid spec"))
        .seed(7)
        .conditioner(ConditionerSpec::sha256(2))
        .min_output_entropy(Some(0.997))
        .health(HealthConfig::default().without_startup_battery());
    let server = TestServer::start(ServeConfig::new(engine));

    let response = get(server.addr, "/entropy?bytes=64");
    assert_eq!(response.status, 503);
    // The refusal carries a retry hint: deficits are config/health conditions
    // that may clear (an operator fix, a pool child reinstated), so clients are
    // told when to probe again instead of hammering.
    let retry: u64 = response
        .header("retry-after")
        .expect("Retry-After header on the deficit refusal")
        .parse()
        .expect("integer seconds");
    assert!(retry >= 1, "a meaningful retry hint, got {retry}");
    let body = response.body_text();
    assert!(body.contains("entropy deficit"), "{body}");
    assert!(body.contains("\"required\":0.997"), "{body}");
    // The embedded ledger is the canonical JSON form, extractable and parsable.
    // `ledger` is the last field of the refusal object: strip exactly the outer `}`.
    let ledger_at = body.find("\"ledger\":").expect("ledger field") + "\"ledger\":".len();
    let ledger = EntropyLedger::from_json(&body[ledger_at..body.len() - 1])
        .expect("embedded canonical ledger");
    assert!(ledger.min_entropy_per_bit() < 0.997);
    assert!(
        ledger.to_json().contains("sha256:2"),
        "trail names the conditioner"
    );
    // The header carries it too.
    assert!(response.header("x-ptrng-ledger").is_some());

    // Every endpoint that would draw answers the same canonical refusal: same
    // retry advice, same ledger header, byte-identical deficit body.
    for target in ["/random?bytes=64", "/selftest"] {
        let other = get(server.addr, target);
        assert_eq!(other.status, 503, "{target}: {}", other.body_text());
        assert_eq!(
            other.header("retry-after"),
            response.header("retry-after"),
            "{target}"
        );
        assert_eq!(
            other.header("x-ptrng-ledger"),
            response.header("x-ptrng-ledger"),
            "{target}"
        );
        assert_eq!(other.body_text(), body, "{target}");
    }

    // healthz reflects the refusal with a 503 of its own.
    let health = get(server.addr, "/healthz");
    assert_eq!(health.status, 503);
    let text = health.body_text();
    assert!(text.contains("\"status\":\"refusing\""), "{text}");
    assert!(text.contains("\"required_min_entropy\":0.997"), "{text}");

    // metrics report the refusal state instead of lying about throughput: the
    // engine's zero snapshot, one series per configured shard.  The SHA-256
    // kernel is named on every scrape, with or without `--drbg`.
    let metrics = get(server.addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text();
    let kernel = format!(
        "ptrng_sha256_kernel_info{{kernel=\"{}\"}} 1",
        ptrng_trng::sha256::kernel()
    );
    for line in [
        "ptrng_serving 0",
        "ptrng_shard_output_bytes_total{shard=\"0\"} 0",
        "ptrng_accounted_entropy_bits_total 0.000",
        kernel.as_str(),
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "missing `{line}` in:\n{text}"
        );
    }
}

#[test]
fn rate_limiter_refuses_with_429_and_retry_after() {
    let mut config = model_config();
    // Tiny sustained rate, burst of exactly one 2 KiB request.
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 64,
        burst_bytes: 2048,
    });
    let server = TestServer::start(config);

    // A HEAD probe serves the contract headers without spending the client's
    // entropy budget…
    let mut conn = TcpStream::connect(server.addr).expect("connects");
    write!(
        conn,
        "HEAD /entropy?bytes=2048 HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    .expect("written");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read");
    let probe = parse_response(&raw);
    assert_eq!(probe.status, 200);
    assert!(probe.header("x-ptrng-minentropy").is_some());
    assert!(probe.body.is_empty());

    // …so the full burst is still available to the real request.
    let first = get(server.addr, "/entropy?bytes=2048");
    assert_eq!(first.status, 200);
    assert_eq!(first.body.len(), 2048);

    let second = get(server.addr, "/entropy?bytes=2048");
    assert_eq!(second.status, 429);
    let retry: u64 = second
        .header("retry-after")
        .expect("Retry-After header")
        .parse()
        .expect("integer seconds");
    assert!(retry >= 1, "a meaningful retry hint, got {retry}");
    assert!(second.body_text().contains("rate limited"));

    // Non-entropy endpoints are not charged.
    assert_eq!(get(server.addr, "/healthz").status, 200);
}

#[test]
fn oversized_requests_hit_the_per_request_cap() {
    let mut config = model_config();
    config.max_request_bytes = 1024;
    let server = TestServer::start(config);
    let response = get(server.addr, "/entropy?bytes=4096");
    assert_eq!(response.status, 413);
    assert!(response.body_text().contains("capped at 1024"));
    // At the cap is fine.
    assert_eq!(get(server.addr, "/entropy?bytes=1024").body.len(), 1024);
}

#[test]
fn healthz_and_metrics_have_the_documented_shape() {
    let server = TestServer::start(model_config());
    let _ = get(server.addr, "/entropy?bytes=1024");

    let health = get(server.addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.header("content-type"),
        Some("application/json"),
        "healthz is JSON"
    );
    let text = health.body_text();
    for field in [
        "\"status\":\"ok\"",
        "\"shards\":2",
        "\"live_shards\":2",
        "\"alarms\":0",
        "\"alarm_reasons\":[]",
        "\"min_entropy_per_bit\":",
    ] {
        assert!(text.contains(field), "missing `{field}` in {text}");
    }

    let metrics = get(server.addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .expect("content type")
        .starts_with("text/plain"));
    let text = metrics.body_text();
    for family in [
        "# TYPE ptrng_raw_bits_total counter",
        "ptrng_output_bytes_total",
        "ptrng_min_entropy_per_output_bit",
        "ptrng_http_requests_total",
        "ptrng_http_entropy_bytes_served_total",
        "ptrng_http_responses_total{status=\"200\"}",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    // The entropy bytes we drew are accounted.
    let served: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("ptrng_http_entropy_bytes_served_total "))
        .expect("bytes-served sample")
        .parse()
        .expect("integer sample");
    assert!(served >= 1024, "{served}");
}

#[test]
fn malformed_and_unknown_requests_get_clean_errors() {
    let server = TestServer::start(model_config());
    assert_eq!(get(server.addr, "/entropy").status, 400);
    assert_eq!(get(server.addr, "/entropy?bytes=banana").status, 400);
    assert_eq!(get(server.addr, "/teapot").status, 404);

    // A non-GET method is answered with 405 rather than a dropped connection.
    let mut conn = TcpStream::connect(server.addr).expect("connects");
    write!(conn, "POST /entropy HTTP/1.1\r\nConnection: close\r\n\r\n").expect("written");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read");
    assert_eq!(parse_response(&raw).status, 405);
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let server = TestServer::start(model_config());
    let mut conn = TcpStream::connect(server.addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    // Two sequential requests on one socket; the second closes.
    write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("first written");
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let first = read_one_keepalive_response(&mut reader);
    assert_eq!(first.status, 200);
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("second written");
    let second = read_one_keepalive_response(&mut reader);
    assert_eq!(second.status, 200);
}

/// Reads one `Content-Length`-framed response from a keep-alive stream.
fn read_one_keepalive_response(reader: &mut impl std::io::BufRead) -> Response {
    let mut head = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        head.extend_from_slice(line.as_bytes());
        if line == "\r\n" {
            break;
        }
    }
    let mut parsed = parse_response(&head);
    let length: usize = parsed
        .header("content-length")
        .expect("keep-alive responses are length-framed")
        .parse()
        .expect("integer length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    parsed.body = body;
    parsed
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let server = TestServer::start(model_config());
    let addr = server.addr;
    // Issue a request, then shut down (the Drop impl asserts the drain is clean).
    assert_eq!(get(addr, "/entropy?bytes=1024").status, 200);
    drop(server);
    // The port no longer accepts connections once serve() returned.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener closed after shutdown"
    );
}

#[test]
fn selftest_audits_the_served_stream() {
    let server = TestServer::start(model_config());
    // A full-entropy model source with the default margin: the battery must not
    // refute the honest ledger claim.  (Small window keeps the test fast; the
    // margin is widened to match, see docs/validation.md.)
    let response = get(server.addr, "/selftest?bits=32768&margin=0.45");
    assert_eq!(response.status, 200, "{}", response.body_text());
    let text = response.body_text();
    assert!(text.contains("\"overclaim\":false"), "{text}");
    assert!(text.contains("\"audit\":"), "{text}");
    assert!(text.contains("\"estimators\":"), "{text}");
    assert!(text.contains("\"ledger\":"), "{text}");
    // The embedded ledger is the canonical JSON form (parsable on its own).
    let ledger_at = text.find("\"ledger\":").expect("ledger embedded") + "\"ledger\":".len();
    let ledger = EntropyLedger::from_json(&text[ledger_at..text.len() - 1]).expect("parsable");
    assert!(ledger.min_entropy_per_bit() > 0.99);

    // An asserted (inflated) claim is refuted: 503 with the same report shape.
    let refuted = get(server.addr, "/selftest?bits=32768&claim=0.999&margin=0.05");
    assert_eq!(refuted.status, 503, "{}", refuted.body_text());
    assert!(refuted.body_text().contains("\"overclaim\":true"));

    // Out-of-domain parameters are 400s, not panics.
    assert_eq!(get(server.addr, "/selftest?bits=12").status, 400);
    assert_eq!(get(server.addr, "/selftest?bits=999999999").status, 400);
    assert_eq!(get(server.addr, "/selftest?claim=abc").status, 400);
    assert_eq!(get(server.addr, "/selftest?margin=2.0").status, 400);

    // The self-test batteries surface on /metrics.
    let metrics = get(server.addr, "/metrics").body_text();
    assert!(
        metrics.contains("ptrng_http_selftests_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ptrng_http_selftest_overclaims_total 1"),
        "{metrics}"
    );
}

/// Extracts the JSON object starting at the first `{` at-or-after `at` by brace
/// matching (the embedded ledgers/postmortems contain no braces inside strings).
fn extract_json_object(text: &str, at: usize) -> &str {
    let start = at + text[at..].find('{').expect("object start");
    let mut depth = 0usize;
    for (offset, byte) in text[start..].bytes().enumerate() {
        match byte {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &text[start..=start + offset];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced braces from {start} in {text}");
}

#[test]
fn alarms_surface_postmortems_on_healthz_trace_and_journal() {
    use ptrng_engine::audit::AuditConfig;
    use ptrng_obs::{Journal, ObsClock};

    let journal_path =
        std::env::temp_dir().join(format!("ptrng-serve-journal-{}.jsonl", std::process::id()));
    let journal =
        std::sync::Arc::new(Journal::create(&journal_path, ObsClock::new()).expect("journal"));

    // model:0.95 accounts ~0.074 bits/bit; auditing it against an asserted 0.9
    // claim refutes the claim on the first completed window, alarming shard 0.
    // Shard 1 keeps serving, so the server stays up in degraded state.
    let engine = EngineConfig::new(SourceSpec::model(0.95).expect("valid spec"))
        .shards(2)
        .seed(11)
        .audit(Some(
            AuditConfig::default().window_bits(1 << 14).claim(Some(0.9)),
        ))
        .health(HealthConfig::default().without_startup_battery());
    let mut config = ServeConfig::new(engine);
    config.journal = Some(journal);
    let server = TestServer::start(config);

    // Draw enough to push shard 0 through one full audit window (2 KiB of
    // conditioned output), then wait for the alarm to land in the postmortem store.
    let _ = get(server.addr, "/entropy?bytes=16384");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let health = loop {
        let health = get(server.addr, "/healthz");
        if health.body_text().contains("\"kind\":\"audit-overclaim\"") {
            break health;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no postmortem after 30s: {}",
            health.body_text()
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    // /healthz carries the postmortem: typed kind, rendered reason, pre-alarm
    // flight-recorder events, and a ledger that round-trips through the typed form.
    let text = health.body_text();
    assert!(text.contains("\"status\":\"degraded\""), "{text}");
    assert!(text.contains("\"postmortems\":["), "{text}");
    assert!(text.contains("\"kind\":\"batch-generated\""), "{text}");
    let postmortem_at = text.find("\"postmortems\":[").expect("postmortems field");
    let ledger_at = text[postmortem_at..]
        .find("\"ledger\":")
        .expect("embedded ledger")
        + postmortem_at;
    let ledger = EntropyLedger::from_json(extract_json_object(&text, ledger_at))
        .expect("postmortem ledger is canonical JSON");
    assert!(ledger.min_entropy_per_bit() > 0.0);

    // /debug/trace is valid JSONL: every line is one self-contained object tagged
    // with a record type, and the timeline contains pre-alarm events plus the
    // postmortem itself.
    let trace = get(server.addr, "/debug/trace");
    assert_eq!(trace.status, 200);
    assert_eq!(trace.header("content-type"), Some("application/x-ndjson"));
    let trace_text = trace.body_text();
    let mut saw_event = false;
    let mut saw_postmortem = false;
    for line in trace_text.lines() {
        let value: serde::Value = serde_json::from_str(line).expect("JSONL line parses");
        let record = value
            .as_object()
            .and_then(|obj| obj.iter().find(|(k, _)| k == "record"))
            .map(|(_, v)| v.clone());
        match record {
            Some(serde::Value::Str(kind)) if kind == "event" => saw_event = true,
            Some(serde::Value::Str(kind)) if kind == "postmortem" => saw_postmortem = true,
            other => panic!("unexpected record tag {other:?} in {line}"),
        }
    }
    assert!(saw_event, "{trace_text}");
    assert!(saw_postmortem, "{trace_text}");
    assert!(trace_text.contains("\"kind\":\"alarm\""), "{trace_text}");
    assert!(
        trace_text.contains("\"kind\":\"http-request\""),
        "request lifecycle events interleave: {trace_text}"
    );

    // The --journal sink received the same postmortem as a JSONL line.
    let journal_text = std::fs::read_to_string(&journal_path).expect("journal readable");
    assert!(
        journal_text
            .lines()
            .any(|line| line.contains("\"event\":\"alarm-postmortem\"")
                && serde_json::from_str::<serde::Value>(line).is_ok()),
        "{journal_text}"
    );

    // The alarm surfaces in the counter metrics and the request histogram filled.
    let metrics = get(server.addr, "/metrics").body_text();
    assert!(metrics.contains("ptrng_alarms_total 1"), "{metrics}");
    assert!(
        metrics.contains("ptrng_http_request_seconds_count"),
        "{metrics}"
    );

    drop(server);
    let _ = std::fs::remove_file(&journal_path);
}

/// A dead tap is a clean 503 on `/entropy`, never a committed `200` head with
/// no body: the full-entropy tier draws its first chunk before the head, like
/// `/random` does.
#[test]
fn entropy_on_a_dead_tap_answers_503_before_any_200_head() {
    use ptrng_engine::audit::AuditConfig;

    // The only shard audits model:0.95 (~0.074 bits/bit) against an asserted
    // 0.9 claim: its first window refutes the claim and the alarm ends the
    // stream, leaving at most the few batches already queued.
    let engine = EngineConfig::new(SourceSpec::model(0.95).expect("valid spec"))
        .shards(1)
        .seed(11)
        .audit(Some(
            AuditConfig::default().window_bits(1 << 14).claim(Some(0.9)),
        ))
        .health(HealthConfig::default().without_startup_battery());
    let server = TestServer::start(ServeConfig::new(engine));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = get(server.addr, "/healthz");
        if health.body_text().contains("\"status\":\"alarmed\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the shard never alarmed: {}",
            health.body_text()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut conn = TcpStream::connect(server.addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    conn.write_all(b"GET /entropy?bytes=65536 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("request written");
    let mut bytes = Vec::new();
    conn.read_to_end(&mut bytes).expect("response read");
    assert!(
        bytes.starts_with(b"HTTP/1.1 503 "),
        "a dead tap must refuse, not commit a 200 head: {}",
        String::from_utf8_lossy(&bytes[..bytes.len().min(64)])
    );
    let response = parse_response(&bytes);
    let text = response.body_text();
    assert_eq!(response.header("content-type"), Some("application/json"));
    serde_json::from_str::<serde::Value>(&text).expect("the refusal body is JSON");
    assert!(text.contains("\"error\":"), "{text}");
}

/// The full degraded-mode drill over HTTP: a three-child pool with a scripted
/// stuck window on child 1 keeps serving 200s throughout, the dynamic
/// `X-PTRNG-MinEntropy` header drops to the two-child combination while the
/// child is out of the mix, `/healthz` reports `degraded` with the per-child
/// state, the pool Prometheus families expose the transition counters, and
/// after the probation warm-up everything returns to `ok`.
#[test]
fn pool_quarantine_drill_degrades_and_recovers_over_http() {
    let spec = match SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").expect("valid spec") {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                quarantine_draws: 2,
                probation_draws: 4,
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    };
    let mut engine = EngineConfig::new(spec)
        .seed(97)
        .batch_bits(8192)
        .health(HealthConfig::default().without_startup_battery())
        .fault(Some(
            FaultPlan::parse("child=1,kind=stuck,at=2KiB,for=1KiB").expect("valid plan"),
        ));
    // Tight queue so the worker cannot run far ahead of the HTTP draws and the
    // multi-batch quarantine window is observable from the client side.
    engine.queue_batches = 1;
    let server = TestServer::start(ServeConfig::new(engine));

    // The static ledger header never moves: it is the design-time accounting
    // (the three-way mix), not the live state.
    let first = get(server.addr, "/entropy?bytes=1024");
    assert_eq!(first.status, 200);
    let static_claim: f64 = {
        let ledger = EntropyLedger::from_json(first.header("x-ptrng-ledger").expect("ledger"))
            .expect("canonical ledger JSON");
        ledger.min_entropy_per_bit()
    };
    assert!(static_claim > 0.98, "three-way mix claim: {static_claim}");

    let mut lowest_header = f64::INFINITY;
    let mut saw_degraded = false;
    let mut recovered = false;
    // Each 1 KiB draw advances the single shard by about one batch; the stuck
    // window opens at 2 KiB and the full quarantine → probation → reinstatement
    // cycle completes within roughly ten batches.
    for _ in 0..40 {
        let draw = get(server.addr, "/entropy?bytes=1024");
        assert_eq!(
            draw.status,
            200,
            "the pool must keep serving: {}",
            draw.body_text()
        );
        assert_eq!(draw.body.len(), 1024);
        let h: f64 = draw
            .header("x-ptrng-minentropy")
            .expect("dynamic min-entropy header")
            .parse()
            .expect("numeric min-entropy");
        lowest_header = lowest_header.min(h);
        // The static ledger header is unchanged even while the claim dips.
        let ledger = EntropyLedger::from_json(draw.header("x-ptrng-ledger").expect("ledger"))
            .expect("canonical ledger JSON");
        assert!((ledger.min_entropy_per_bit() - static_claim).abs() < 1e-9);

        let health = get(server.addr, "/healthz");
        let text = health.body_text();
        if text.contains("\"status\":\"degraded\"") {
            saw_degraded = true;
            assert!(
                text.contains("\"state\":\"quarantined\"")
                    || text.contains("\"state\":\"probation\""),
                "degraded healthz names the child state: {text}"
            );
            // The pool families expose the same state on /metrics.
            let metrics = get(server.addr, "/metrics").body_text();
            assert!(
                metrics.contains("ptrng_pool_child_quarantines_total{shard=\"0\",child=\"1\"} 1"),
                "{metrics}"
            );
        } else if saw_degraded && text.contains("\"status\":\"ok\"") {
            assert!(
                text.contains("\"reinstatements\":1"),
                "recovery carries the reinstatement count: {text}"
            );
            recovered = true;
            break;
        }
    }
    assert!(saw_degraded, "the quarantine never surfaced on /healthz");
    assert!(recovered, "the child was never reinstated");
    assert!(
        lowest_header < 0.96,
        "X-PTRNG-MinEntropy never dropped to the two-child mix: {lowest_header}"
    );

    // After recovery the reinstatement counter persists on /metrics.
    let metrics = get(server.addr, "/metrics").body_text();
    assert!(
        metrics.contains("ptrng_pool_child_reinstatements_total{shard=\"0\",child=\"1\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ptrng_pool_child_state{shard=\"0\",child=\"1\"} 0"),
        "{metrics}"
    );
}

#[test]
fn metrics_expose_latency_histogram_families() {
    let server = TestServer::start(model_config());
    let _ = get(server.addr, "/entropy?bytes=8192");
    let text = get(server.addr, "/metrics").body_text();
    for family in [
        "# TYPE ptrng_batch_generation_seconds histogram",
        "# TYPE ptrng_audit_battery_seconds histogram",
        "# TYPE ptrng_tap_wait_seconds histogram",
        "# TYPE ptrng_http_request_seconds histogram",
        "ptrng_batch_generation_seconds_bucket",
        "ptrng_http_request_seconds_sum",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    // Entropy was served, so batches were generated and requests were timed.
    let batches: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("ptrng_batch_generation_seconds_count "))
        .expect("batch histogram count")
        .parse()
        .expect("integer count");
    assert!(batches > 0, "{text}");
    let requests: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("ptrng_http_request_seconds_count "))
        .expect("request histogram count")
        .parse()
        .expect("integer count");
    assert!(requests >= 1, "{text}");
}

#[test]
fn debug_trace_is_rate_limited_like_a_draw() {
    let mut config = model_config();
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 64,
        burst_bytes: 4096,
    });
    let server = TestServer::start(config);
    // The nominal 4096-byte cost drains the whole burst; the second dump is refused.
    assert_eq!(get(server.addr, "/debug/trace").status, 200);
    let limited = get(server.addr, "/debug/trace");
    assert_eq!(limited.status, 429, "{}", limited.body_text());
    assert!(limited.header("retry-after").is_some());
}

#[test]
fn selftest_is_charged_against_the_rate_limit() {
    let mut config = model_config();
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 1024,
        burst_bytes: 8192,
    });
    let server = TestServer::start(config);
    // One window of 32768 bits = 4096 bytes drains half the burst; the second
    // request exceeds the remaining budget and must be refused before drawing.
    assert_eq!(
        get(server.addr, "/selftest?bits=32768&margin=0.45").status,
        200
    );
    let limited = get(server.addr, "/selftest?bits=65536&margin=0.45");
    assert_eq!(limited.status, 429, "{}", limited.body_text());
    assert!(limited.header("retry-after").is_some());
}

/// `model_config` plus an enabled DRBG expansion tier with the given per-seed
/// output allowance.
fn drbg_config(reseed_after_bytes: u64) -> ServeConfig {
    let mut config = model_config();
    config.drbg = Some(DrbgPolicy {
        reseed_after_bytes,
        ..DrbgPolicy::default()
    });
    config
}

#[test]
fn random_tier_draws_exact_bytes_with_tier_headers() {
    let server = TestServer::start(drbg_config(128 << 20));

    let response = get(server.addr, "/random?bytes=100000");
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.body.len(), 100_000, "exact-byte contract");
    assert!(
        response.body.iter().any(|&b| b != 0),
        "expanded output is not all-zero"
    );
    assert_eq!(response.header("x-ptrng-tier"), Some("drbg-sha256"));
    EntropyLedger::from_json(response.header("x-ptrng-ledger").expect("ledger header"))
        .expect("canonical ledger JSON rides the expansion tier too");

    // The full-entropy tier names itself on the same header.
    let full = get(server.addr, "/entropy?bytes=64");
    assert_eq!(full.header("x-ptrng-tier"), Some("full-entropy"));

    // A zero-byte request is legal and draws nothing (not even a seed).
    let empty = get(server.addr, "/random?bytes=0");
    assert_eq!(empty.status, 200);
    assert!(empty.body.is_empty());

    // The tier's counters surface as the ptrng_drbg_* metric families: one
    // funded seed (the instantiation) covered the whole 100 kB draw.
    let metrics = get(server.addr, "/metrics").body_text();
    assert!(metrics.contains("ptrng_drbg_reseeds_total 1"), "{metrics}");
    assert!(
        metrics.contains("ptrng_drbg_bytes_total 100000"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ptrng_drbg_seed_bits_debited_total 384"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ptrng_drbg_reseed_seconds_count"),
        "reseed latency histogram family: {metrics}"
    );
    // The served-bytes counter is the full-entropy tier's alone: the 64 bytes
    // of /entropy, none of the 100 kB the DRBG family already counts.
    assert!(
        metrics
            .lines()
            .any(|line| line == "ptrng_http_entropy_bytes_served_total 64"),
        "{metrics}"
    );
}

#[test]
fn random_without_the_drbg_flag_answers_404() {
    let server = TestServer::start(model_config());
    let response = get(server.addr, "/random?bytes=64");
    assert_eq!(response.status, 404, "{}", response.body_text());
    assert!(
        response.body_text().contains("--drbg"),
        "the refusal names the enabling flag: {}",
        response.body_text()
    );
    // No tier, no drbg metric families.
    let metrics = get(server.addr, "/metrics").body_text();
    assert!(!metrics.contains("ptrng_drbg_generates"), "{metrics}");
}

#[test]
fn tiers_have_separate_rate_limit_buckets() {
    let mut config = drbg_config(128 << 20);
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 1024,
        burst_bytes: 4096,
    });
    let server = TestServer::start(config);

    // Exhaust the full-entropy bucket…
    assert_eq!(get(server.addr, "/entropy?bytes=4096").status, 200);
    let refused = get(server.addr, "/entropy?bytes=4096");
    assert_eq!(refused.status, 429, "{}", refused.body_text());

    // …the /random bucket of the same client is untouched…
    let random = get(server.addr, "/random?bytes=4096");
    assert_eq!(
        random.status,
        200,
        "the tiers must not share a bucket: {}",
        random.body_text()
    );

    // …until it is exhausted on its own terms.
    let refused_random = get(server.addr, "/random?bytes=4096");
    assert_eq!(refused_random.status, 429, "{}", refused_random.body_text());
    assert!(refused_random.header("retry-after").is_some());
}

/// The expansion tier's design point: between funded reseeds it keeps serving
/// while the full-entropy credit dips (a quarantined pool child), because the
/// bits it emits were funded by a seed that *was* accounted when drawn.
#[test]
fn random_tier_keeps_serving_through_a_quarantine_drill() {
    let spec = match SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").expect("valid spec") {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                quarantine_draws: 2,
                probation_draws: 4,
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    };
    let mut engine = EngineConfig::new(spec)
        .seed(97)
        .batch_bits(8192)
        .health(HealthConfig::default().without_startup_battery())
        .fault(Some(
            FaultPlan::parse("child=1,kind=stuck,at=2KiB,for=1KiB").expect("valid plan"),
        ));
    engine.queue_batches = 1;
    let mut config = ServeConfig::new(engine);
    // A huge allowance: one healthy seed funds the whole drill, so no reseed
    // comes due while the claim is dipped.
    config.drbg = Some(DrbgPolicy::default());
    let server = TestServer::start(config);

    // Prime the DRBG with a funded seed while every child is healthy.
    assert_eq!(get(server.addr, "/random?bytes=1024").status, 200);

    let mut saw_dip = false;
    for _ in 0..40 {
        // Advance the conditioned stream into (and through) the fault window.
        let draw = get(server.addr, "/entropy?bytes=1024");
        assert_eq!(draw.status, 200, "{}", draw.body_text());
        let h: f64 = draw
            .header("x-ptrng-minentropy")
            .expect("dynamic min-entropy header")
            .parse()
            .expect("numeric min-entropy");
        let random = get(server.addr, "/random?bytes=1024");
        assert_eq!(
            random.status,
            200,
            "the expansion tier must keep serving through the dip: {}",
            random.body_text()
        );
        assert_eq!(random.body.len(), 1024);
        if h < 0.97 {
            saw_dip = true;
            break;
        }
    }
    assert!(saw_dip, "the drill never dipped the full-entropy credit");
}

/// The flip side: when a due reseed cannot be funded by the currently accounted
/// claim, the tier refuses with the same canonical 503-with-ledger body as
/// `/entropy` — never silently under-seeded output.
#[test]
fn random_reseed_starvation_returns_the_canonical_ledger_refusal() {
    let spec = match SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").expect("valid spec") {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                quarantine_draws: 2,
                probation_draws: 4,
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    };
    let mut engine = EngineConfig::new(spec)
        .seed(97)
        .batch_bits(8192)
        .health(HealthConfig::default().without_startup_battery())
        // No `for=`: the child sticks permanently, so the pool quarantines it
        // and the two-survivor claim stays below the seed-funding floor.
        .fault(Some(
            FaultPlan::parse("child=1,kind=stuck,at=2KiB").expect("valid plan"),
        ));
    engine.queue_batches = 1;
    let mut config = ServeConfig::new(engine);
    // Every 2 KiB request exhausts the allowance, so the next one must reseed.
    config.drbg = Some(DrbgPolicy {
        reseed_after_bytes: 2048,
        ..DrbgPolicy::default()
    });
    let server = TestServer::start(config);

    // While every child is healthy the tier serves.
    assert_eq!(get(server.addr, "/random?bytes=2048").status, 200);

    let mut refusal = None;
    for _ in 0..60 {
        // Advance the conditioned stream into the permanent fault.
        let advance = get(server.addr, "/entropy?bytes=1024");
        assert_eq!(advance.status, 200, "{}", advance.body_text());
        let random = get(server.addr, "/random?bytes=2048");
        if random.status == 503 {
            refusal = Some(random);
            break;
        }
        assert_eq!(random.status, 200, "{}", random.body_text());
    }
    let refusal = refusal.expect("the unfundable reseed never surfaced as a 503");
    let text = refusal.body_text();
    assert!(text.contains("\"error\":\"entropy deficit\""), "{text}");
    assert!(text.contains("\"accounted\":"), "{text}");
    assert!(text.contains("\"required\":"), "{text}");
    // The embedded ledger is the canonical JSON form (parsable on its own).
    let ledger_at = text.find("\"ledger\":").expect("ledger embedded");
    let ledger = EntropyLedger::from_json(extract_json_object(&text, ledger_at))
        .expect("canonical ledger JSON");
    assert!(
        ledger.min_entropy_per_bit() > 0.9,
        "static trail rides along"
    );
    assert!(refusal.header("retry-after").is_some());
    assert!(refusal.header("x-ptrng-ledger").is_some());
}

/// Sends a raw request verbatim (it must carry `Connection: close`) and reads
/// the full response.
fn raw(addr: SocketAddr, request: &str) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    conn.write_all(request.as_bytes()).expect("request written");
    let mut bytes = Vec::new();
    conn.read_to_end(&mut bytes).expect("response read");
    parse_response(&bytes)
}

/// Every rate-limited endpoint must say `Connection: keep-alive` on its 429
/// *and* actually keep the connection: a refused client that retries after
/// `Retry-After` should not pay a reconnect it was never told about.
#[test]
fn rate_limit_refusals_keep_the_connection_alive_on_every_endpoint() {
    let mut config = drbg_config(128 << 20);
    // A burst smaller than any request's cost: every draw endpoint refuses at once.
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 1,
        burst_bytes: 512,
    });
    let server = TestServer::start(config);

    let mut conn = TcpStream::connect(server.addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    for target in [
        "/entropy?bytes=2048",
        "/random?bytes=2048",
        "/debug/trace",
        "/selftest?bits=32768",
    ] {
        write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("written");
        let refusal = read_one_keepalive_response(&mut reader);
        assert_eq!(refusal.status, 429, "{target}: {}", refusal.body_text());
        assert_eq!(
            refusal.header("connection"),
            Some("keep-alive"),
            "{target}: the advertised lifetime must match the enacted one"
        );
        assert!(refusal.header("retry-after").is_some(), "{target}");
    }
    // All four refusals rode one socket, and it still serves.
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("written");
    let health = read_one_keepalive_response(&mut reader);
    assert_eq!(health.status, 200);
    assert_eq!(health.header("connection"), Some("close"));
}

/// `HEAD` is the advertised zero-cost probe: it must not draw entropy, run the
/// battery, seed the DRBG, or charge the client's rate-limit bucket — on any
/// endpoint.
#[test]
fn head_requests_never_draw_entropy_or_charge_the_limiter() {
    let mut config = drbg_config(128 << 20);
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 1024,
        burst_bytes: 4096,
    });
    let server = TestServer::start(config);

    for target in [
        "/entropy?bytes=4096",
        "/random?bytes=4096",
        "/selftest?bits=32768",
        "/debug/trace",
    ] {
        let probe = raw(
            server.addr,
            &format!("HEAD {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        );
        assert_eq!(probe.status, 200, "{target}");
        assert!(probe.body.is_empty(), "{target}: HEAD has no body");
    }
    // The /selftest probe carries the battery contract headers without running it.
    let probe = raw(
        server.addr,
        "HEAD /selftest?bits=32768 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(probe.header("x-ptrng-minentropy").is_some());
    assert!(probe.header("x-ptrng-ledger").is_some());

    // Nothing was drawn, run, or seeded…
    let metrics = get(server.addr, "/metrics").body_text();
    assert!(
        metrics.contains("ptrng_http_selftests_total 0"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ptrng_http_entropy_bytes_served_total 0"),
        "{metrics}"
    );
    assert!(metrics.contains("ptrng_drbg_reseeds_total 0"), "{metrics}");

    // …and nothing was charged: the burst covers exactly one 4096-byte window,
    // so this draw could not succeed if any HEAD had debited the bucket.
    assert_eq!(
        get(server.addr, "/selftest?bits=32768&margin=0.45").status,
        200
    );
}

/// A zero-byte draw is a legal no-op on both tiers: in particular it must not
/// lazily instantiate the DRBG, which would debit a 384-bit seed for zero
/// output.  Run against a fresh server so the very first request is the probe.
#[test]
fn zero_byte_draws_touch_neither_tier() {
    let server = TestServer::start(drbg_config(128 << 20));
    let empty = get(server.addr, "/random?bytes=0");
    assert_eq!(empty.status, 200);
    assert!(empty.body.is_empty());
    assert!(get(server.addr, "/entropy?bytes=0").body.is_empty());

    let metrics = get(server.addr, "/metrics").body_text();
    assert!(
        metrics.contains("ptrng_drbg_reseeds_total 0"),
        "no seed instantiation for zero bytes: {metrics}"
    );
    assert!(
        metrics.contains("ptrng_drbg_seed_bits_debited_total 0"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ptrng_http_entropy_bytes_served_total 0"),
        "{metrics}"
    );
}

/// Slow-loris: a client dripping its request head one byte at a time is closed
/// at the *absolute* header deadline (each byte arriving must not refresh it),
/// silently, and without degrading concurrent well-behaved clients.
#[test]
fn slow_loris_heads_are_reaped_at_the_header_deadline() {
    let mut config = model_config();
    config.header_timeout = Duration::from_millis(300);
    let server = TestServer::start(config);
    let addr = server.addr;

    let attacker = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("connects");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        let started = Instant::now();
        for byte in b"GET /entropy?bytes=64 HTTP/1.1\r\n" {
            if conn.write_all(&[*byte]).is_err() {
                break; // reaped mid-drip: also a pass
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink); // EOF (or reset) once reaped
        (started.elapsed(), sink)
    });

    // A well-behaved client is served exact bytes while the attack is running.
    let good = get(addr, "/entropy?bytes=4096");
    assert_eq!(good.status, 200);
    assert_eq!(good.body.len(), 4096);

    let (elapsed, sink) = attacker.join().expect("attacker joins");
    assert!(
        elapsed < Duration::from_secs(3),
        "reaped at the 300ms deadline, not at the client's 10s patience: {elapsed:?}"
    );
    assert!(
        sink.is_empty(),
        "the reap is silent — no response to a head that never arrived: {:?}",
        String::from_utf8_lossy(&sink)
    );
}

/// An idle keep-alive connection is reaped at the idle deadline — silently,
/// and without disturbing the rest of the server.
#[test]
fn idle_keepalive_connections_are_reaped() {
    let mut config = model_config();
    config.idle_timeout = Duration::from_millis(200);
    let server = TestServer::start(config);

    let mut conn = TcpStream::connect(server.addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("written");
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(read_one_keepalive_response(&mut reader).status, 200);

    // The connection is idle now; the reaper closes it at the deadline.
    let started = Instant::now();
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "idle reap is a silent close");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "reaped at the 200ms idle deadline: {:?}",
        started.elapsed()
    );
    assert_eq!(get(server.addr, "/healthz").status, 200);
}

/// A client that requests a large stream and then never reads stalls the
/// response; the write deadline reaps it and the truncation stays *visible*
/// (no chunked terminator) — the exact-byte contract is never faked.
#[test]
fn stalled_readers_hit_the_write_deadline_with_visible_truncation() {
    let mut config = drbg_config(128 << 20);
    config.max_request_bytes = 64 << 20;
    config.write_timeout = Duration::from_millis(300);
    let server = TestServer::start(config);

    let mut conn = TcpStream::connect(server.addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    // Far more than the kernel's socket buffers can absorb, then stall.
    write!(
        conn,
        "GET /random?bytes=33554432 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("written");
    std::thread::sleep(Duration::from_secs(2));
    let mut bytes = Vec::new();
    conn.read_to_end(&mut bytes).expect("drain after the reap");
    assert!(!bytes.is_empty(), "the head and early chunks were written");
    assert!(bytes.len() < 32 << 20, "nowhere near the full body");
    assert!(
        !bytes.ends_with(b"0\r\n\r\n"),
        "truncation is visible: the chunked terminator must be absent"
    );
    // The stalled connection's reap freed its worker: a fresh client is fine.
    assert_eq!(get(server.addr, "/random?bytes=4096").body.len(), 4096);
}

/// Above `max_connections` the server answers 503 at accept instead of letting
/// the backlog time out, and recovers as soon as a slot frees.
#[test]
fn the_connection_ceiling_refuses_with_503() {
    let mut config = model_config();
    config.max_connections = 2;
    let server = TestServer::start(config);

    let hold_a = TcpStream::connect(server.addr).expect("first connects");
    let hold_b = TcpStream::connect(server.addr).expect("second connects");
    // Let the event loop accept both before the third arrives.
    std::thread::sleep(Duration::from_millis(100));
    let mut refused = TcpStream::connect(server.addr).expect("third reaches the backlog");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut bytes = Vec::new();
    refused.read_to_end(&mut bytes).expect("refusal read");
    let refusal = parse_response(&bytes);
    assert_eq!(refusal.status, 503);
    assert!(
        refusal.body_text().contains("server busy"),
        "{}",
        refusal.body_text()
    );
    assert!(refusal.header("retry-after").is_some());

    drop(hold_a);
    drop(hold_b);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(get(server.addr, "/healthz").status, 200);
}

/// The per-IP gate caps one client's concurrent connections with a 429 while
/// the global ceiling still has room.
#[test]
fn the_per_ip_gate_refuses_with_429() {
    let mut config = model_config();
    config.per_ip_connections = 2;
    let server = TestServer::start(config);

    let hold_a = TcpStream::connect(server.addr).expect("first connects");
    let _hold_b = TcpStream::connect(server.addr).expect("second connects");
    std::thread::sleep(Duration::from_millis(100));
    let mut refused = TcpStream::connect(server.addr).expect("third reaches the backlog");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let mut bytes = Vec::new();
    refused.read_to_end(&mut bytes).expect("refusal read");
    let refusal = parse_response(&bytes);
    assert_eq!(refusal.status, 429);
    assert!(
        refusal.body_text().contains("too many connections"),
        "{}",
        refusal.body_text()
    );
    assert!(refusal.header("retry-after").is_some());
    // The gate's 429 counts under its status only: the rate-limited family is the
    // token buckets'.  Scrape over a connection the gate already admitted, so the
    // scrape cannot race the gate's bookkeeping.
    let metrics = get_on(hold_a, "/metrics").body_text();
    assert!(
        metrics.contains("\nptrng_http_rate_limited_total 0\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\nptrng_http_responses_total{status=\"429\"} 1\n"),
        "{metrics}"
    );
}

/// The loadgen library drives the server it ships with: a closed-loop run with
/// provably simultaneous keep-alive clients, every byte accounted — and clients
/// that outlive the server's 64-request keep-alive budget reconnect when it
/// answers `Connection: close` instead of writing into the closed socket.
#[test]
fn loadgen_closed_loop_sustains_concurrent_keepalive_clients() {
    let server = TestServer::start(drbg_config(128 << 20));
    for (connections, requests_per_conn) in [(64, 2), (2, 150)] {
        let mut config = ptrng_serve::loadgen::LoadgenConfig::closed(
            server.addr.to_string(),
            "/random?bytes=4096",
            connections,
        );
        config.requests_per_conn = requests_per_conn;
        let report = ptrng_serve::loadgen::run(&config);
        assert!(report.ok(), "no errors, no 5xx: {}", report.to_json());
        assert_eq!(
            report.connected, connections,
            "every client held a socket at the rendezvous"
        );
        let requests = (connections * requests_per_conn) as u64;
        assert_eq!(report.requests, requests, "every keep-alive request");
        assert_eq!(
            report.bytes_read,
            requests * 4096,
            "exact bytes under concurrency"
        );
        assert!(report.p50_ms.is_some() && report.p99_ms.is_some());
    }
}

#[test]
fn selftest_reports_per_estimator_timings() {
    let server = TestServer::start(model_config());
    let response = get(server.addr, "/selftest?bits=32768&margin=0.45");
    assert_eq!(response.status, 200, "{}", response.body_text());
    let text = response.body_text();
    let timings_at = text
        .find("\"estimator_timings\":")
        .expect("timings surfaced");
    let audit_at = text.find("\"audit\":").expect("audit report follows");
    let timings = &text[timings_at..audit_at];
    // Every battery unit reports its wall-clock cost (BATTERY_UNIT_NAMES).
    for name in [
        "mcv",
        "collision",
        "markov",
        "compression",
        "t-tuple+lrs",
        "multi-mcw",
        "lag",
    ] {
        assert!(
            timings.contains(&format!("\"name\":\"{name}\"")),
            "unit {name} missing from {timings}"
        );
    }
    assert!(timings.contains("\"ns\":"), "{timings}");
}
