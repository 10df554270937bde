//! Per-connection state for the nonblocking event loop: one [`Connection`] per
//! accepted socket, holding its buffered input, pending output, lifecycle state
//! and deadline.  The struct is plain data plus nonblocking I/O helpers — all
//! protocol decisions (parsing, routing, pump scheduling, reaping) live in the
//! loop in [`crate::server`], so the state machine reads top-to-bottom there.

use std::io::{Read, Write};
use std::net::{IpAddr, TcpStream};
use std::time::Instant;

/// Where a connection is in its request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (more of) a request head; the header deadline applies.
    ReadingHead,
    /// A request is being routed/streamed; reads are paused for backpressure.
    Busy,
    /// Between keep-alive requests; the idle deadline applies.
    Idle,
}

/// The product tier a draw endpoint serves and its streaming body draws from;
/// the tier's head, token bucket and draw live with the handler in
/// [`crate::server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamTier {
    /// `/entropy` — blocking [`ptrng_engine::tap::EntropyTap`] draws.
    Entropy,
    /// `/random` — the DRBG expansion tier.
    Random,
}

/// An in-flight chunked response body: the remainder a worker still has to draw
/// and frame.  Travels loop → worker (as a pump job) and back (with the
/// not-yet-drawn remainder) so exactly one side owns it at any time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamBody {
    pub(crate) tier: StreamTier,
    /// Body bytes still to be drawn and framed (excludes the terminator).
    pub(crate) remaining: u64,
}

/// What one nonblocking read burst observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// New bytes were appended to `inbuf`.
    Data,
    /// Nothing to read right now.
    WouldBlock,
    /// The peer closed its write half (or reset): no more input will arrive.
    Eof,
}

/// Per-read burst cap: bounds the input buffered for one connection in one loop
/// iteration (poll(2) is level-triggered, so leftover bytes re-report readable).
/// It is also the hard bound on one request head: a head that does not fit is
/// rejected, since the parser could otherwise never see it complete.
pub(crate) const READ_BURST_BYTES: usize = 16 << 10;

/// One accepted connection owned by the event loop.
#[derive(Debug)]
pub(crate) struct Connection {
    pub(crate) stream: TcpStream,
    pub(crate) peer: IpAddr,
    /// Bytes read off the socket, not yet consumed by the head parser.
    pub(crate) inbuf: Vec<u8>,
    /// Rendered response bytes not yet written to the socket.
    out: Vec<u8>,
    /// Write offset into `out` (drained front; reset when fully flushed).
    out_pos: usize,
    pub(crate) state: ConnState,
    /// The reap deadline for the current state (header / idle / write-stall).
    pub(crate) deadline: Instant,
    /// Requests completed on this connection (keep-alive budget).
    pub(crate) served: usize,
    /// When the in-flight request's head finished parsing (latency probe).
    pub(crate) request_started: Option<Instant>,
    /// Status of the in-flight response, once routed (0 = not yet known).
    pub(crate) status: u16,
    /// A worker currently owns a job for this connection.
    pub(crate) pending_job: bool,
    /// The unstreamed remainder of a chunked body, when no worker holds it.
    pub(crate) stream_body: Option<StreamBody>,
    /// Whether the connection stays open after the in-flight response, as
    /// decided by the handler (the `Connection` header actually written).
    pub(crate) keep_alive_after: bool,
    /// The peer half-closed: report [`ReadOutcome::Eof`] once `inbuf` drains.
    eof: bool,
}

impl Connection {
    pub(crate) fn new(stream: TcpStream, peer: IpAddr, header_deadline: Instant) -> Self {
        Self {
            stream,
            peer,
            inbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::ReadingHead,
            deadline: header_deadline,
            served: 0,
            request_started: None,
            status: 0,
            pending_job: false,
            stream_body: None,
            keep_alive_after: false,
            eof: false,
        }
    }

    /// Response bytes still queued for the socket.
    pub(crate) fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queues rendered response bytes for writing.
    pub(crate) fn queue_output(&mut self, bytes: &[u8]) {
        // Compact the drained front first so the buffer cannot creep upward
        // across a long streaming response.
        if self.out_pos > 0 && self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Reads whatever the socket has ready, up to one burst, into `inbuf`.
    ///
    /// A peer that writes a request and immediately half-closes delivers data
    /// *and* EOF in one burst; the data wins ([`ReadOutcome::Data`]) and the
    /// EOF is remembered, reported on the next call once the buffer is served.
    pub(crate) fn read_some(&mut self) -> ReadOutcome {
        let mut scratch = [0u8; 4096];
        let mut appended = false;
        while !self.eof && self.inbuf.len() < READ_BURST_BYTES {
            match self.stream.read(&mut scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    appended = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Resets and other hard errors: the peer is unreachable.
                Err(_) => {
                    self.eof = true;
                }
            }
        }
        if appended {
            ReadOutcome::Data
        } else if self.eof {
            ReadOutcome::Eof
        } else {
            ReadOutcome::WouldBlock
        }
    }

    /// Writes as much queued output as the socket accepts without blocking.
    ///
    /// Returns whether any bytes moved (write progress refreshes the
    /// write-stall deadline) — `Err` means the peer is gone.
    pub(crate) fn flush(&mut self) -> std::io::Result<bool> {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "")),
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() && self.out_pos > 0 {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        (client, served)
    }

    #[test]
    fn reads_are_buffered_and_eof_is_reported() {
        let (mut client, served) = pair();
        let peer = served.peer_addr().unwrap().ip();
        let mut conn = Connection::new(served, peer, Instant::now());
        assert_eq!(conn.read_some(), ReadOutcome::WouldBlock);
        client.write_all(b"GET /healthz").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(conn.read_some(), ReadOutcome::Data);
        assert_eq!(conn.inbuf, b"GET /healthz");
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(conn.read_some(), ReadOutcome::Eof);
    }

    #[test]
    fn data_delivered_with_eof_is_not_lost() {
        let (mut client, served) = pair();
        let peer = served.peer_addr().unwrap().ip();
        let mut conn = Connection::new(served, peer, Instant::now());
        // Write-then-half-close in one shot, the pipelined-close client shape.
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        drop(client);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(conn.read_some(), ReadOutcome::Data, "buffered bytes win");
        assert_eq!(conn.inbuf, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(conn.read_some(), ReadOutcome::Eof, "EOF surfaces next call");
    }

    #[test]
    fn queued_output_flushes_and_compacts() {
        let (mut client, served) = pair();
        let peer = served.peer_addr().unwrap().ip();
        let mut conn = Connection::new(served, peer, Instant::now());
        conn.queue_output(b"hello ");
        conn.queue_output(b"world");
        assert_eq!(conn.out_len(), 11);
        assert!(conn.flush().unwrap());
        assert_eq!(conn.out_len(), 0);
        let mut got = [0u8; 11];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");
    }
}
