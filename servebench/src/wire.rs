//! The benchmark's HTTP/1.1 client: every request is pre-encoded once
//! at setup and leaves in a single `write_all`, with `TCP_NODELAY` set,
//! so client-side framing never adds a stall of its own.
//!
//! Connect failures are classified separately from request failures:
//! running out of ephemeral ports (`EADDRNOTAVAIL`) or being refused
//! fails the run instead of silently slowing it down.
//!
//! Connections close with `SO_LINGER` = 0 once the response is read:
//! the client's reset removes the server-side socket outright instead
//! of leaving it in TIME_WAIT, so back-to-back runs start from the same
//! kernel state rather than behind tens of thousands of TIME_WAIT
//! sockets from the run before.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Encodes one request. `close` adds `connection: close` (a fresh
/// connection per request); without it the connection stays open.
pub fn encode(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let conn = if close { "connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{conn}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The body, as text.
    pub body: String,
}

/// Why a round trip failed.
#[derive(Debug)]
pub enum WireError {
    /// `connect()` itself failed (port exhaustion, refusal, …).
    Connect(std::io::Error),
    /// The connection was up but the exchange failed.
    Exchange(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Connect(e) => write!(f, "connect failed: {e}"),
            WireError::Exchange(why) => write!(f, "exchange failed: {why}"),
        }
    }
}

/// An open connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> Result<Conn, WireError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Connect)?;
        let io = |e: std::io::Error| WireError::Exchange(e.to_string());
        stream.set_nodelay(true).map_err(io)?;
        abortive_close(&stream);
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends pre-encoded request bytes and reads one response.
    pub fn round_trip(&mut self, request: &[u8]) -> Result<Response, WireError> {
        let io = |e: std::io::Error| WireError::Exchange(e.to_string());
        self.writer.write_all(request).map_err(io)?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| WireError::Exchange(format!("bad status line {line:?}")))?;
        let mut content_length = None;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len = content_length
            .ok_or_else(|| WireError::Exchange("response without content-length".into()))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).map_err(io)?;
        let body = String::from_utf8(body)
            .map_err(|_| WireError::Exchange("non-UTF-8 response body".into()))?;
        Ok(Response { status, body })
    }

    fn read_line(&mut self, line: &mut String) -> Result<(), WireError> {
        match self.reader.read_line(line) {
            Ok(0) => Err(WireError::Exchange("connection closed mid-response".into())),
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(())
            }
            Err(e) => Err(WireError::Exchange(e.to_string())),
        }
    }
}

/// Sets `SO_LINGER` to `{on, 0s}`: closing sends a reset.
#[cfg(target_os = "linux")]
fn abortive_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: i32,
        secs: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { onoff: 1, secs: 0 };
    // SAFETY: `fd` is an open socket owned by `stream` for the whole
    // call, and `linger` is a valid `struct linger` of the stated size.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn abortive_close(_: &TcpStream) {}

/// `GET /v1/health` over a fresh connection; `true` on a 200.
pub fn health(addr: SocketAddr) -> bool {
    Conn::connect(addr)
        .and_then(|mut c| c.round_trip(&encode("GET", "/v1/health", "", true)))
        .is_ok_and(|r| r.status == 200)
}
