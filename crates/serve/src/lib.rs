//! Entropy-as-a-service: an HTTP/1.1 front-end for the sharded generation engine.
//!
//! This crate turns [`ptrng_engine`]'s pool into a network service with the entropy
//! ledger as its **public contract**: every `/entropy` response carries the accounted
//! min-entropy per bit (`X-PTRNG-MinEntropy`) and the full provenance ledger
//! (`X-PTRNG-Ledger`, canonical JSON), and a configuration whose accounting misses
//! the `--min-h` policy is served as an HTTP 503 *with the ledger as the body* — the
//! network analogue of `ptrngd`'s exit-code-2 refusal, as the source paper's
//! dependent-jitter entropy bound demands.
//!
//! Everything is hand-rolled on `std::net` (the build environment has no registry
//! access): [`http`] is a bounded HTTP/1.1 request parser and response/chunked-body
//! writer, [`limiter`] a per-client token bucket denominated in entropy bytes plus a
//! per-IP concurrent-connection gate, [`metrics`] the Prometheus text exposition,
//! [`server`] a nonblocking `poll(2)` event loop (per-connection state machines,
//! slow-loris/idle deadlines) feeding a worker pool for blocking draws, with
//! graceful SIGTERM shutdown, [`loadgen`] the concurrency load-test harness behind
//! the `ptrng-loadgen` bin, and [`cli`] the flag parsing shared by the binaries:
//!
//! * `ptrngd` — the streaming daemon (stdout/file sink), plus `ptrngd serve`,
//! * `ptrng-serve` — the HTTP server (same flags as `ptrngd serve`),
//! * `ptrng-loadgen` — closed-loop concurrent load against a running server.
//!
//! See `docs/architecture.md` for where the server sits in the dataflow and
//! `docs/operations.md` for the runbook (flags, status codes, capacity planning).
//!
//! # Quickstart
//!
//! Serve from a fast model source on an ephemeral port and fetch 64 bytes:
//!
//! ```
//! use std::io::{Read, Write};
//! use ptrng_engine::health::HealthConfig;
//! use ptrng_engine::pool::EngineConfig;
//! use ptrng_engine::source::SourceSpec;
//! use ptrng_serve::server::{ServeConfig, Server};
//!
//! # fn main() -> ptrng_serve::Result<()> {
//! let engine = EngineConfig::new(SourceSpec::parse("model")?)
//!     .health(HealthConfig::default().without_startup_battery());
//! let mut config = ServeConfig::new(engine);
//! config.listen = "127.0.0.1:0".to_string();
//!
//! let server = Server::bind(config)?;
//! let addr = server.local_addr()?;
//! let handle = server.shutdown_handle();
//! let serving = std::thread::spawn(move || server.serve());
//!
//! let mut conn = std::net::TcpStream::connect(addr)?;
//! write!(conn, "GET /entropy?bytes=64 HTTP/1.1\r\nConnection: close\r\n\r\n")?;
//! let mut response = Vec::new();
//! conn.read_to_end(&mut response)?;
//! let text = String::from_utf8_lossy(&response);
//! assert!(text.starts_with("HTTP/1.1 200 OK"));
//! assert!(text.contains("X-PTRNG-MinEntropy"));
//!
//! handle.shutdown();
//! serving.join().expect("server thread joins")?;
//! # Ok(())
//! # }
//! ```

// Two justified, SAFETY-commented exceptions: the SIGTERM hookup in `server`
// and the poll(2) declaration in `event` (the build has no `libc` crate).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod conn;
mod event;
pub mod http;
pub mod limiter;
pub mod loadgen;
pub mod metrics;
pub mod server;

use thiserror::Error;

/// Errors produced by the serving layer.
#[derive(Debug, Error)]
#[non_exhaustive]
pub enum ServeError {
    /// The generation engine failed (spawn, health, or drain).
    #[error("engine error: {0}")]
    Engine(#[from] ptrng_engine::EngineError),
    /// A configuration value was out of domain.
    #[error("invalid configuration: {0}")]
    Config(String),
    /// A socket operation failed.
    #[error("i/o error: {0}")]
    Io(#[from] std::io::Error),
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Commonly used items.
pub mod prelude {
    pub use crate::limiter::RateLimiter;
    pub use crate::metrics::ServerMetrics;
    pub use crate::server::{RateLimit, ServeConfig, Server, ShutdownHandle};
    pub use crate::{Result, ServeError};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_readable_messages() {
        let e = ServeError::Config("threads must be at least 1".to_string());
        assert!(e.to_string().contains("invalid configuration"));
        let e: ServeError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("i/o error"));
        let e: ServeError = ptrng_engine::EngineError::WorkerPanicked { shard: 1 }.into();
        assert!(e.to_string().contains("engine error"));
    }
}
