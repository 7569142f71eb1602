//! A minimal HTTP/1.1 layer: exactly what the protocol needs, nothing
//! more.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default, `Connection: close` honoured), and
//! hard limits on head and body size so a hostile client cannot make
//! a worker allocate unboundedly. Not supported (rejected as
//! malformed): chunked transfer encoding, continuation lines,
//! HTTP/0.9/2/3.

use std::io::{BufRead, Write};

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path only; no query parsing).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not a well-formed HTTP/1.1 request.
    Malformed(&'static str),
    /// The declared body exceeds the server's limit.
    TooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The peer disconnected mid-request (after sending some bytes).
    Disconnected,
    /// A transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge { limit } => write!(f, "request exceeds the {limit}-byte limit"),
            HttpError::Disconnected => f.write_str("peer disconnected mid-request"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Reading a request either yields one, or reports clean end-of-stream
/// (the peer closed between requests — not an error under keep-alive).
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection before sending anything.
    Closed,
}

/// Blocks until the first byte of the next request is buffered in `r`
/// and leaves it unread. `false` means none is coming: the peer closed,
/// the idle connection hit its read timeout, or the transport failed.
/// A span opened after this returns `true` times the request's own
/// transfer, not the keep-alive idle time before it.
pub fn await_request(r: &mut impl BufRead) -> bool {
    loop {
        match r.fill_buf() {
            Ok(buf) => return !buf.is_empty(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Reads one request. `max_head` bounds the request line + headers;
/// `max_body` bounds the declared `Content-Length`.
pub fn read_request(
    r: &mut impl BufRead,
    max_head: usize,
    max_body: usize,
) -> Result<ReadOutcome, HttpError> {
    let mut line = Vec::new();
    match read_line(r, &mut line, max_head)? {
        LineEnd::Eof if line.is_empty() => return Ok(ReadOutcome::Closed),
        LineEnd::Eof => return Err(HttpError::Disconnected),
        LineEnd::Line => {}
    }
    let text = std::str::from_utf8(&line).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    let mut parts = text.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(HttpError::Malformed("bad request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    let mut head_budget = max_head.saturating_sub(line.len());
    loop {
        let mut hl = Vec::new();
        match read_line(r, &mut hl, head_budget)? {
            LineEnd::Eof => return Err(HttpError::Disconnected),
            LineEnd::Line => {}
        }
        head_budget = head_budget.saturating_sub(hl.len() + 2);
        if hl.is_empty() {
            break;
        }
        let htext =
            std::str::from_utf8(&hl).map_err(|_| HttpError::Malformed("non-utf8 header"))?;
        let Some((name, value)) = htext.split_once(':') else {
            return Err(HttpError::Malformed("header without a colon"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed("chunked bodies are not supported"));
    }
    if let Some(cl) = req.header("content-length") {
        let n: usize = cl
            .parse()
            .map_err(|_| HttpError::Malformed("bad content-length"))?;
        if n > max_body {
            return Err(HttpError::TooLarge { limit: max_body });
        }
        let mut body = vec![0u8; n];
        let mut read = 0;
        while read < n {
            match r.read(&mut body[read..]) {
                Ok(0) => return Err(HttpError::Disconnected),
                Ok(k) => read += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(HttpError::Disconnected)
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
        req.body = body;
    }
    Ok(ReadOutcome::Request(req))
}

enum LineEnd {
    Line,
    Eof,
}

/// Reads one CRLF- (or bare-LF-) terminated line into `buf`, excluding
/// the terminator. `budget` bounds the line length.
fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>, budget: usize) -> Result<LineEnd, HttpError> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(LineEnd::Eof),
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return Ok(LineEnd::Line);
                }
                if buf.len() >= budget {
                    return Err(HttpError::TooLarge { limit: budget });
                }
                buf.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return if buf.is_empty() {
                    Ok(LineEnd::Eof)
                } else {
                    Err(HttpError::Disconnected)
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// The reason phrase for the status codes the server uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one `application/json` response as a single `write_all`.
///
/// The whole message is formatted into one buffer first: a message
/// split over several writes on a Nagle-enabled socket holds its tail
/// until the peer ACKs the head, which a delayed-ACK peer does only
/// after ≈40 ms (DESIGN.md §9).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let msg = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {conn}\r\n\r\n{body}",
        reason(status),
        body.len(),
    );
    w.write_all(msg.as_bytes())?;
    w.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(bytes: &[u8]) -> Result<ReadOutcome, HttpError> {
        read_request(&mut BufReader::new(bytes), 4096, 1 << 16)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/query HTTP/1.1\r\ncontent-length: 4\r\nX-Tenant: t1\r\n\r\nabcd";
        match read(raw).unwrap() {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/v1/query");
                assert_eq!(req.header("x-tenant"), Some("t1"));
                assert_eq!(req.body, b"abcd");
                assert!(!req.wants_close());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        assert!(matches!(read(b"").unwrap(), ReadOutcome::Closed));
    }

    #[test]
    fn truncated_head_and_body_are_disconnects() {
        assert!(matches!(
            read(b"POST /x HTTP/1.1\r\ncontent-le"),
            Err(HttpError::Disconnected)
        ));
        assert!(matches!(
            read(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"),
            Err(HttpError::Disconnected)
        ));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(read(raw), Err(HttpError::Malformed(_))),
                "{:?} should be malformed",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_bodies_and_heads_are_bounded() {
        assert!(matches!(
            read(b"POST /x HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n"),
            Err(HttpError::TooLarge { .. })
        ));
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 10_000));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(read(&raw), Err(HttpError::TooLarge { .. })));
    }

    #[test]
    fn responses_have_exact_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"a\":1}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
    }

    /// A `Write` that counts `write` calls; each call takes the whole
    /// buffer, as a socket with room for the message does.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) bytes: Vec<u8>,
        pub(crate) writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write() {
        let big = format!("\"{}\"", "x".repeat(20 * 1024));
        for body in ["{}", big.as_str()] {
            let mut w = CountingWriter::default();
            write_response(&mut w, 200, body, true).unwrap();
            assert_eq!(w.writes, 1, "body of {} bytes", body.len());
            assert!(w.bytes.ends_with(body.as_bytes()));
        }
    }

    #[test]
    fn await_request_leaves_the_first_byte_unread() {
        assert!(!await_request(&mut BufReader::new(&b""[..])));
        let mut r = BufReader::new(&b"GET /v1/health HTTP/1.1\r\n\r\n"[..]);
        assert!(await_request(&mut r));
        match read_request(&mut r, 4096, 0).unwrap() {
            ReadOutcome::Request(req) => assert_eq!(req.method, "GET"),
            other => panic!("{other:?}"),
        }
    }
}
