//! The generator's HTTP/1.1 client: keep-alive connections that may carry
//! pipelined requests, and an incremental response parser that accepts the
//! byte stream in any split (`Content-Length` and chunked bodies).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Upper bound on a response head, in bytes.
const MAX_HEAD_BYTES: usize = 64 << 10;

/// Upper bound on a chunk-size or trailer line, in bytes.
const MAX_LINE_BYTES: usize = 1024;

/// How long a connect, read or write may stall before the request fails.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    pub status: u16,
    /// Header names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Body bytes received, chunk framing excluded.
    pub body_len: u64,
    /// The first body bytes, up to the parser's `keep` limit.
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// When the head was complete.
    pub head_at: Option<Instant>,
}

impl Response {
    /// First value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Head,
    Fixed(u64),
    ChunkSize,
    ChunkData(u64),
    /// Inside the CRLF that ends a chunk: bytes of it seen so far.
    ChunkEnd(usize),
    Trailer,
    Done,
}

/// Incremental parser of one response at a time.
#[derive(Debug)]
pub struct ResponseParser {
    keep: usize,
    state: State,
    line: Vec<u8>,
    response: Response,
}

impl ResponseParser {
    /// A parser that retains up to `keep` bytes of each body.
    pub fn new(keep: usize) -> Self {
        Self {
            keep,
            state: State::Head,
            line: Vec::new(),
            response: Response::default(),
        }
    }

    /// Whether a whole response has been parsed (take it with [`Self::take`]).
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Hands out the parsed response and resets for the next one.
    pub fn take(&mut self) -> Response {
        self.state = State::Head;
        std::mem::take(&mut self.response)
    }

    /// Consumes a prefix of `data` and returns its length: all of it, unless
    /// the response ends first (pipelined bytes after it stay unconsumed).
    pub fn feed(&mut self, data: &[u8]) -> Result<usize, String> {
        let mut used = 0;
        while used < data.len() && self.state != State::Done {
            let rest = &data[used..];
            used += match self.state {
                State::Head => self.feed_head(rest)?,
                State::Fixed(left) => {
                    let take = self.body(rest, left);
                    self.state = match left - take as u64 {
                        0 => State::Done,
                        left => State::Fixed(left),
                    };
                    take
                }
                State::ChunkData(left) => {
                    let take = self.body(rest, left);
                    self.state = match left - take as u64 {
                        0 => State::ChunkEnd(0),
                        left => State::ChunkData(left),
                    };
                    take
                }
                State::ChunkEnd(seen) => {
                    if rest[0] != b"\r\n"[seen] {
                        return Err("chunk data not followed by CRLF".to_string());
                    }
                    self.state = if seen == 0 {
                        State::ChunkEnd(1)
                    } else {
                        State::ChunkSize
                    };
                    1
                }
                State::ChunkSize | State::Trailer => self.feed_line(rest)?,
                State::Done => unreachable!("the loop stops at Done"),
            };
        }
        Ok(used)
    }

    /// Takes up to `left` body bytes from `rest`, returning how many.
    fn body(&mut self, rest: &[u8], left: u64) -> usize {
        let take = rest.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        let response = &mut self.response;
        response.body_len += take as u64;
        let room = self.keep.saturating_sub(response.body.len()).min(take);
        response.body.extend_from_slice(&rest[..room]);
        take
    }

    fn feed_head(&mut self, rest: &[u8]) -> Result<usize, String> {
        let before = self.line.len();
        self.line.extend_from_slice(rest);
        let Some(end) = find(&self.line, b"\r\n\r\n") else {
            if self.line.len() > MAX_HEAD_BYTES {
                return Err("response head too long".to_string());
            }
            return Ok(rest.len());
        };
        let head = std::mem::take(&mut self.line);
        self.parse_head(&head[..end])?;
        Ok(end + 4 - before)
    }

    fn feed_line(&mut self, rest: &[u8]) -> Result<usize, String> {
        let Some(newline) = rest.iter().position(|&b| b == b'\n') else {
            self.line.extend_from_slice(rest);
            if self.line.len() > MAX_LINE_BYTES {
                return Err("chunk line too long".to_string());
            }
            return Ok(rest.len());
        };
        self.line.extend_from_slice(&rest[..newline]);
        let line = std::mem::take(&mut self.line);
        let line = line
            .strip_suffix(b"\r")
            .ok_or("chunk line not terminated by CRLF")?;
        if self.state == State::Trailer {
            // Trailer fields carry nothing this client uses; a blank line ends the message.
            if line.is_empty() {
                self.state = State::Done;
            }
        } else {
            let text = std::str::from_utf8(line).map_err(|_| "non-UTF-8 chunk size")?;
            let digits = text.split(';').next().unwrap_or_default().trim();
            let size =
                u64::from_str_radix(digits, 16).map_err(|_| format!("bad chunk size {text:?}"))?;
            self.state = if size == 0 {
                State::Trailer
            } else {
                State::ChunkData(size)
            };
        }
        Ok(newline + 1)
    }

    fn parse_head(&mut self, head: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(head).map_err(|_| "non-UTF-8 response head")?;
        let mut lines = text.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.split(' ');
        let status = match (parts.next(), parts.next()) {
            (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed header line {line:?}"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let response = Response {
            status,
            headers,
            head_at: Some(Instant::now()),
            ..Response::default()
        };
        let chunked = response
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let length = response
            .header("content-length")
            .map(str::parse::<u64>)
            .transpose()
            .map_err(|_| "bad Content-Length")?;
        self.state = match (chunked, length) {
            (true, _) => State::ChunkSize,
            (false, Some(0)) => State::Done,
            (false, Some(length)) => State::Fixed(length),
            (false, None) => {
                return Err("response has neither Content-Length nor chunked framing".to_string())
            }
        };
        let close = response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        self.response = Response { close, ..response };
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// A keep-alive connection; requests may be pipelined and their responses
/// come back in order.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    parser: ResponseParser,
    /// Requests sent on this connection so far.
    pub sent: usize,
}

impl Conn {
    /// Connects, returning the connection and how long the connect took.
    pub fn open(addr: SocketAddr, keep: usize) -> io::Result<(Self, Duration)> {
        let start = Instant::now();
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        let took = start.elapsed();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let conn = Self {
            stream,
            buf: vec![0; 64 << 10],
            start: 0,
            end: 0,
            parser: ResponseParser::new(keep),
            sent: 0,
        };
        Ok((conn, took))
    }

    /// Sends one request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)?;
        self.sent += 1;
        Ok(())
    }

    /// The next complete response, reading as needed.  With a `deadline` it
    /// returns `Ok(None)` once the deadline passes without one; without, it
    /// blocks up to the I/O timeout.
    pub fn next_response(&mut self, deadline: Option<Instant>) -> io::Result<Option<Response>> {
        loop {
            let used = self
                .parser
                .feed(&self.buf[self.start..self.end])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            self.start += used;
            if self.parser.is_done() {
                return Ok(Some(self.parser.take()));
            }
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() || !sys::wait_readable(self.stream.as_raw_fd(), left)? {
                    return Ok(None);
                }
            }
            let read = self.stream.read(&mut self.buf)?;
            if read == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection with a response outstanding",
                ));
            }
            self.start = 0;
            self.end = read;
        }
    }
}

mod sys {
    //! `ppoll(2)`, declared directly: the open loop must wake for a response
    //! or its next scheduled send, whichever comes first, and std offers no
    //! readiness wait finer than socket timeouts rounded to the kernel tick.
    #![allow(unsafe_code)]

    use std::io;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x1;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until `fd` is readable (or hung up) or `timeout` passes;
    /// returns whether it became ready.
    pub fn wait_readable(fd: c_int, timeout: Duration) -> io::Result<bool> {
        let mut pollfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `pollfd` and `timeout` are initialised locals that outlive
        // the call; `nfds` is 1, matching the single pollfd; a null sigmask
        // leaves the signal mask unchanged.
        let ready = unsafe { ppoll(&mut pollfd, 1, &timeout, std::ptr::null()) };
        if ready < 0 {
            let error = io::Error::last_os_error();
            if error.kind() == io::ErrorKind::Interrupted {
                return Ok(false);
            }
            return Err(error);
        }
        Ok(ready > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the first response of `wire`, fed as `wire[..cut]` and then the rest.
    fn parse_split(wire: &[u8], cut: usize, keep: usize) -> Result<(Response, usize), String> {
        let mut parser = ResponseParser::new(keep);
        let mut used = parser.feed(&wire[..cut])?;
        while !parser.is_done() {
            let step = parser.feed(&wire[used..])?;
            assert!(step > 0, "parser stalled at byte {used}");
            used += step;
        }
        Ok((parser.take(), used))
    }

    #[test]
    fn chunked_responses_parse_from_any_split() {
        let wire: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\
            X-PTRNG-Tier: drbg-sha256\r\nConnection: keep-alive\r\n\r\n\
            4\r\nabcd\r\na\r\n0123456789\r\n0\r\n\r\nHTTP/1.1 404";
        let next = wire.len() - b"HTTP/1.1 404".len();
        for cut in 0..=wire.len() {
            let (response, used) = parse_split(wire, cut, 64).expect("valid response");
            assert_eq!(used, next, "cut at {cut}: pipelined bytes stay unconsumed");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, b"abcd0123456789");
            assert_eq!(response.body_len, 14);
            assert_eq!(response.header("x-ptrng-tier"), Some("drbg-sha256"));
            assert!(!response.close);
        }
    }

    #[test]
    fn content_length_responses_and_close() {
        let wire: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\n\
            Connection: close\r\n\r\nhelloEXTRA";
        for cut in 0..=wire.len() {
            let (response, used) = parse_split(wire, cut, 64).expect("valid response");
            assert_eq!(used, wire.len() - 5);
            assert_eq!(
                (response.status, response.body.as_slice()),
                (503, &b"hello"[..])
            );
            assert!(response.close);
        }
        let (empty, used) = parse_split(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 0, 8)
            .expect("valid response");
        assert_eq!((empty.body_len, used), (0, 38));
    }

    #[test]
    fn keep_limits_the_retained_body_not_the_count() {
        let wire: &[u8] =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nabcdef\r\n0\r\n\r\n";
        let (response, _) = parse_split(wire, 0, 3).expect("valid response");
        assert_eq!(response.body, b"abc");
        assert_eq!(response.body_len, 6);
    }

    #[test]
    fn malformed_framing_is_an_error() {
        let bad_size: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(parse_split(bad_size, 0, 8).is_err());
        let no_crlf: &[u8] =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXY0\r\n\r\n";
        assert!(parse_split(no_crlf, 0, 8).is_err());
        assert!(parse_split(b"SMTP 220 hello\r\n\r\n", 0, 8).is_err());
        assert!(parse_split(b"HTTP/1.1 200 OK\r\n\r\n", 0, 8).is_err());
    }
}
