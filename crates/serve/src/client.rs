//! A minimal HTTP/1.1 client for the wire protocol — what the protocol
//! test suite, the benchmarks, and the conformance ledger use to talk
//! to a [`Server`](crate::server::Server).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body, as text (the server only speaks JSON).
    pub body: String,
}

/// Why a round-trip failed.
#[derive(Debug)]
pub enum ClientError {
    /// A transport error.
    Io(std::io::Error),
    /// The server's bytes are not a well-formed response.
    Malformed(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Malformed(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects, with Nagle's algorithm off: a request waits on no ACK
    /// from the server (DESIGN.md §9).
    pub fn connect(addr: SocketAddr) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and reads the response. `close` asks the
    /// server to close the connection afterwards.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> Result<Response, ClientError> {
        write_request(&mut self.writer, method, path, body, close)?;
        self.read_response()
    }

    /// `POST` with a JSON body (keep-alive).
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, ClientError> {
        self.request("POST", path, body, false)
    }

    /// `GET` (keep-alive).
    pub fn get(&mut self, path: &str) -> Result<Response, ClientError> {
        self.request("GET", path, "", false)
    }

    /// Writes raw bytes without reading a response — for tests that
    /// drop the connection mid-request.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one response off the wire (used after [`Conn::send_raw`]).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let status_line = self.read_line()?;
        let mut parts = status_line.split(' ');
        let status: u16 = match (parts.next(), parts.next()) {
            (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
                .parse()
                .map_err(|_| ClientError::Malformed("bad status code"))?,
            _ => return Err(ClientError::Malformed("bad status line")),
        };
        let mut content_length: usize = 0;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| ClientError::Malformed("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            body: String::from_utf8(body).map_err(|_| ClientError::Malformed("non-utf8 body"))?,
        })
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut raw = Vec::new();
        self.reader.read_until(b'\n', &mut raw)?;
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        } else if raw.is_empty() {
            return Err(ClientError::Malformed("connection closed mid-response"));
        }
        String::from_utf8(raw).map_err(|_| ClientError::Malformed("non-utf8 response head"))
    }
}

/// Writes one request as a single `write_all`, like the server's
/// [`write_response`](crate::http::write_response).
fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let conn = if close { "connection: close\r\n" } else { "" };
    let msg = format!(
        "{method} {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{conn}\r\n{body}",
        body.len(),
    );
    w.write_all(msg.as_bytes())?;
    w.flush()
}

/// One-shot `POST` over a fresh `Connection: close` connection — the
/// load generator's request shape.
pub fn post_once(addr: SocketAddr, path: &str, body: &str) -> Result<Response, ClientError> {
    Conn::connect(addr)?.request("POST", path, body, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWriter;

    #[test]
    fn each_request_is_one_write() {
        let big = format!("\"{}\"", "x".repeat(20 * 1024));
        for (body, close) in [("", false), ("{}", true), (big.as_str(), false)] {
            let mut w = CountingWriter::default();
            write_request(&mut w, "POST", "/v1/query", body, close).unwrap();
            assert_eq!(w.writes, 1, "body of {} bytes", body.len());
            assert!(w.bytes.ends_with(body.as_bytes()));
        }
    }
}
