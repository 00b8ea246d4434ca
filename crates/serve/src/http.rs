//! Minimal HTTP/1.1 framing: just enough of the wire protocol for the
//! daemon's GET-only API, hand-rolled over [`std::net::TcpStream`] so the
//! build stays registry-offline.
//!
//! Requests are read with a hard size cap and a socket read timeout, parsed
//! into a [`Request`] (method, path, split query pairs, headers). Since the
//! store tier arrived the daemon speaks **persistent connections**: a
//! client may send many requests on one socket (and may pipeline them —
//! [`read_request_from`] keeps the bytes it over-read past one head in a
//! carry buffer and starts the next head there), and responses are
//! `Content-Length`-framed with an explicit `Connection: keep-alive` or
//! `close` header, so either side can end the conversation cleanly. The
//! API is GET-only, so requests never carry bodies and the next head always
//! starts right after the previous one.
//!
//! Query strings are split on `&`/`=` without percent-decoding: every value
//! the API accepts (artifact names, seeds, scales) is plain ASCII, and
//! anything else fails validation with a 400 downstream.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Longest request head (request line + headers) the server will read.
/// Anything larger is malformed by this API's standards and gets a 400.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request: the parts of the head this API routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path with the query string stripped (`/run/table2`).
    pub path: String,
    /// Query pairs in source order; a key without `=` keeps an empty value.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in source order.
    pub headers: Vec<(String, String)>,
    /// Whether the protocol defaults this request to a persistent
    /// connection (HTTP/1.1 without `Connection: close`; HTTP/1.0 only
    /// with an explicit `keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// Looks up a query parameter by key (first occurrence wins).
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a header by lowercase name (first occurrence wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// What one attempt to read a request head produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete head was parsed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out with no new bytes — an idle keep-alive
    /// connection, distinct from a peer that went quiet mid-request.
    Idle,
}

/// Reads one request head from the stream and parses it (a fresh carry
/// buffer each call — the one-shot admission-drain path).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut carry = Vec::new();
    match read_request_from(stream, &mut carry)? {
        ReadOutcome::Request(request) => Ok(request),
        ReadOutcome::Closed => Err(String::from("empty request")),
        ReadOutcome::Idle => Err(String::from("timed out waiting for request")),
    }
}

/// Reads one request head, starting from (and leaving leftovers in)
/// `carry` — the persistent-connection entry point. Pipelined bytes past
/// this head stay in `carry` for the next call.
///
/// The caller is expected to have set a read timeout on the stream; a
/// timeout mid-head, an oversized head, or a malformed request line all
/// come back as `Err` with a short reason (the server answers 400 and
/// closes), while a clean close or an idle timeout *between* requests are
/// the non-error [`ReadOutcome`]s.
pub fn read_request_from(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> Result<ReadOutcome, String> {
    let mut buf = [0u8; 512];
    loop {
        // The head is capped at 8 KiB, so rescanning the carry per read is
        // cheap.
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head: Vec<u8> = carry.drain(..end + 4).collect();
            let head =
                String::from_utf8(head).map_err(|_| String::from("request head is not UTF-8"))?;
            return Ok(ReadOutcome::Request(parse_head(&head)?));
        }
        if carry.len() > MAX_HEAD_BYTES {
            return Err(String::from("request head too large"));
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return if carry.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err(String::from("peer closed mid-request"))
                };
            }
            Ok(n) => carry.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return if carry.is_empty() {
                    Ok(ReadOutcome::Idle)
                } else {
                    Err(String::from("timed out mid-request"))
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

/// Parses a full head (request line + header lines) into a [`Request`].
fn parse_head(head: &str) -> Result<Request, String> {
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let (method, target, http11) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line {line:?}"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        headers,
        keep_alive,
    })
}

/// Parses `METHOD SP target SP HTTP/1.x`, returning whether the version
/// defaults to keep-alive (1.1) or close (1.0).
fn parse_request_line(line: &str) -> Result<(String, String, bool), String> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("malformed request line {line:?}"));
    };
    if method.is_empty() || target.is_empty() {
        return Err(format!("malformed request line {line:?}"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    if !target.starts_with('/') {
        return Err(format!("unsupported request target {target:?}"));
    }
    Ok((
        method.to_string(),
        target.to_string(),
        version != "HTTP/1.0",
    ))
}

/// The reason phrase for every status this API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete `Content-Length`-framed response. `close` selects
/// the `Connection` header — the server's promise about what it does with
/// the socket next.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    // One write for head + body: a split write would let Nagle hold the
    // body segment until the client ACKs the head — a delayed-ACK stall
    // of ~40ms per response under back-to-back keep-alive load.
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(head: &str) -> Result<Request, String> {
        parse_head(head)
    }

    #[test]
    fn request_line_parses_path_and_query() {
        let req = parse("GET /run/table2?seed=7&scale=smoke HTTP/1.1\r\n\r\n").expect("ok");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/run/table2");
        assert_eq!(req.param("seed"), Some("7"));
        assert_eq!(req.param("scale"), Some("smoke"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn request_line_rejects_garbage() {
        assert!(parse("\r\n\r\n").is_err());
        assert!(parse("BOGUS\r\n\r\n").is_err());
        assert!(parse("GET /healthz\r\n\r\n").is_err());
        assert!(parse("GET /a b HTTP/1.1 extra\r\n\r\n").is_err());
        assert!(parse("GET healthz HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /healthz SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
    }

    #[test]
    fn valueless_and_empty_query_pairs() {
        let req = parse("GET /x?flag&k=v HTTP/1.1\r\n\r\n").expect("ok");
        assert_eq!(req.query.len(), 2);
        assert_eq!(req.param("flag"), Some(""));
        assert_eq!(req.param("k"), Some("v"));
        let bare = parse("GET /x? HTTP/1.1\r\n\r\n").expect("ok");
        assert!(bare.query.is_empty());
    }

    #[test]
    fn headers_are_lowercased_and_trimmed() {
        let req = parse("GET / HTTP/1.1\r\nHost: example\r\nX-Trace-Id:  1 \r\n\r\n")
            .expect("ok");
        assert_eq!(req.header("host"), Some("example"));
        assert_eq!(req.header("x-trace-id"), Some("1"));
        let bare = parse("GET / HTTP/1.1\r\n\r\n").expect("ok");
        assert_eq!(bare.header("host"), None);
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        assert!(parse("GET / HTTP/1.1\r\n\r\n").expect("ok").keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").expect("ok").keep_alive);
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("ok")
                .keep_alive
        );
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .expect("ok")
                .keep_alive
        );
    }
}
