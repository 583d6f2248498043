//! A minimal hand-rolled HTTP/1.1 layer: request parsing, response
//! writing, chunked transfer encoding. Just enough protocol for the
//! region-call server — the build is offline, so no hyper/tokio.
//!
//! Connection reuse: HTTP/1.1 requests default to keep-alive and
//! HTTP/1.0 to close, with an explicit `Connection:` header honored
//! either way — the server loops requests on one connection up to an
//! idle timeout and a max-requests cap, and each response states the
//! decision. Pipelining is deliberately unsupported (the server's
//! disconnect probe may consume bytes sent before the response
//! completes); a keep-alive client must read each response fully before
//! sending the next request. Request bodies are ignored, and the
//! request head is capped at 8 KiB (anything larger is a 431-class
//! parse error).

use std::io::{self, BufRead, Read, Write};

/// Cap on the request head (request line + headers). A region query is
/// tens of bytes; anything approaching this cap is hostile or broken.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request head.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/call`).
    pub path: String,
    /// Decoded query parameters in request order.
    pub query: Vec<(String, String)>,
    /// Whether the client asked (or defaulted) to close the connection
    /// after this exchange: explicit `Connection: close`, or HTTP/1.0
    /// without `Connection: keep-alive`.
    pub close: bool,
}

/// Why a request head failed to parse. Maps to a 400 response.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not a well-formed HTTP/1.1 request head.
    BadRequest(String),
    /// The connection failed mid-read.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> HttpError {
    HttpError::BadRequest(msg.into())
}

/// Decode `%XX` escapes and `+`-as-space in a query component.
/// Malformed escapes are an error, not passed through — a query that
/// cannot round-trip must not silently address the wrong region.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII %-escape")?;
                let byte =
                    u8::from_str_radix(hex, 16).map_err(|_| format!("bad %-escape %{hex}"))?;
                out.push(byte);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out).map_err(|_| format!("query component {s:?} is not UTF-8"))
}

/// Split and decode a raw query string into ordered pairs.
fn parse_query(raw: &str) -> Result<Vec<(String, String)>, HttpError> {
    let mut pairs = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        pairs.push((
            percent_decode(k).map_err(bad)?,
            percent_decode(v).map_err(bad)?,
        ));
    }
    Ok(pairs)
}

impl Request {
    /// Read and parse one request head from `stream`. Headers are
    /// consumed through the blank line; only `Connection:` is
    /// interpreted (for keep-alive), the rest are discarded.
    pub fn read_from(stream: &mut impl BufRead) -> Result<Request, HttpError> {
        let mut head = 0usize;
        let mut line = String::new();
        stream
            .by_ref()
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut line)?;
        head += line.len();
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            return Err(bad("empty request line"));
        }
        let mut parts = line.split_ascii_whitespace();
        let method = parts.next().ok_or_else(|| bad("missing method"))?;
        let target = parts.next().ok_or_else(|| bad("missing request target"))?;
        let http10 = match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => v == "HTTP/1.0",
            other => return Err(bad(format!("expected HTTP/1.x version, got {other:?}"))),
        };
        let (path_raw, query_raw) = target.split_once('?').unwrap_or((target, ""));
        let mut request = Request {
            method: method.to_string(),
            path: percent_decode(path_raw).map_err(bad)?,
            query: parse_query(query_raw)?,
            // HTTP/1.0 defaults to close, HTTP/1.1 to keep-alive; an
            // explicit Connection header below overrides either.
            close: http10,
        };
        // Scan headers up to the blank line (bounded by the head cap).
        loop {
            let mut header = String::new();
            let n = stream
                .by_ref()
                .take((MAX_HEAD_BYTES - head) as u64)
                .read_line(&mut header)?;
            head += n;
            if n == 0 || header == "\r\n" || header == "\n" {
                break;
            }
            if head >= MAX_HEAD_BYTES {
                return Err(bad("request head exceeds 8 KiB"));
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("connection") {
                    let value = value.trim();
                    if value.eq_ignore_ascii_case("close") {
                        request.close = true;
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        request.close = false;
                    }
                }
            }
        }
        Ok(request)
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_value(close: bool) -> &'static str {
    if close {
        "close"
    } else {
        "keep-alive"
    }
}

/// A complete response head, blank line included. `framing` is the
/// body-delimiting header line (`Content-Length` or `Transfer-Encoding`).
fn response_head(
    status: u16,
    content_type: &str,
    framing: &str,
    extra_headers: &[(&str, String)],
    close: bool,
) -> Vec<u8> {
    // Writing into a Vec cannot fail.
    let mut head = Vec::with_capacity(256);
    let _ = write!(
        head,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n{framing}\r\nConnection: {}\r\n",
        reason(status),
        connection_value(close)
    );
    for (k, v) in extra_headers {
        let _ = write!(head, "{k}: {v}\r\n");
    }
    head.extend_from_slice(b"\r\n");
    head
}

/// Write a complete (non-chunked) response with a known body. `close`
/// states whether the server will close the connection after this
/// response (the caller's keep-alive decision).
///
/// Head and body leave in a single `write_all`: a head written in
/// pieces goes out as several small TCP segments, and Nagle's algorithm
/// holds the last one until the peer's delayed ACK (~40 ms).
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let framing = format!("Content-Length: {}", body.len());
    let mut msg = response_head(status, content_type, &framing, extra_headers, close);
    msg.extend_from_slice(body);
    out.write_all(&msg)?;
    out.flush()
}

/// Write the head of a chunked response; follow with a [`ChunkedBody`]
/// over the same stream and finish it. `close` as in
/// [`write_response`] — a chunked body self-delimits, so the
/// connection stays reusable when `false`. The head leaves in a single
/// `write_all`.
pub fn write_chunked_head(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    close: bool,
) -> io::Result<()> {
    let framing = "Transfer-Encoding: chunked";
    out.write_all(&response_head(
        status,
        content_type,
        framing,
        extra_headers,
        close,
    ))
}

/// A `Write` adapter that emits its input as HTTP/1.1 chunks, buffering
/// up to a flush threshold so a streaming [`ultravc_vcf::VcfWriter`]
/// writing line-by-line doesn't produce one chunk per record. Each chunk
/// frame (size line, data, CRLF) leaves in a single `write_all`; the last
/// frame carries the terminating zero-length chunk with it.
pub struct ChunkedBody<W: Write> {
    out: W,
    buf: Vec<u8>,
    /// Scratch the next frame is assembled in.
    frame: Vec<u8>,
}

/// Flush threshold for [`ChunkedBody`]: one chunk per this many bytes.
const CHUNK_FLUSH: usize = 16 * 1024;

impl<W: Write> ChunkedBody<W> {
    /// Wrap a stream positioned just after a chunked response head.
    pub fn new(out: W) -> ChunkedBody<W> {
        ChunkedBody {
            out,
            buf: Vec::with_capacity(CHUNK_FLUSH),
            frame: Vec::new(),
        }
    }

    /// Send pending bytes as one chunk frame, followed in the same write
    /// by the terminating zero-length chunk when `last`.
    fn emit_frame(&mut self, last: bool) -> io::Result<()> {
        self.frame.clear();
        if !self.buf.is_empty() {
            let _ = write!(self.frame, "{:x}\r\n", self.buf.len());
            self.frame.extend_from_slice(&self.buf);
            self.frame.extend_from_slice(b"\r\n");
            self.buf.clear();
        }
        if last {
            self.frame.extend_from_slice(b"0\r\n\r\n");
        }
        if self.frame.is_empty() {
            return Ok(());
        }
        self.out.write_all(&self.frame)
    }

    /// Flush pending bytes and write the terminating zero-length chunk.
    pub fn finish(mut self) -> io::Result<W> {
        self.emit_frame(true)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Write for ChunkedBody<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= CHUNK_FLUSH {
            self.emit_frame(false)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.emit_frame(false)?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        Request::read_from(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_request_line_and_query() {
        let req = parse("GET /call?sample=a&region=chr%3A1-100&x=1+2 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/call");
        assert_eq!(
            req.query,
            vec![
                ("sample".into(), "a".into()),
                ("region".into(), "chr:1-100".into()),
                ("x".into(), "1 2".into()),
            ]
        );
    }

    #[test]
    fn connection_negotiation_follows_version_defaults_and_headers() {
        // HTTP/1.1 defaults to keep-alive, 1.0 to close.
        assert!(!parse("GET /x HTTP/1.1\r\n\r\n").unwrap().close);
        assert!(parse("GET /x HTTP/1.0\r\n\r\n").unwrap().close);
        // Explicit header wins either way, case-insensitively.
        assert!(
            parse("GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(
            !parse("GET /x HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse("").is_err());
        assert!(parse("\r\n").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/9\r\n\r\n").is_err());
        assert!(parse("GET /x?a=%zz HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /x?a=%2 HTTP/1.1\r\n\r\n").is_err());
        let giant = format!(
            "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(parse(&giant).is_err());
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("a%3Ab%2Dc").unwrap(), "a:b-c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
        assert!(percent_decode("%GG").is_err());
    }

    #[test]
    fn chunked_body_frames_and_terminates() {
        let mut raw = Vec::new();
        let mut body = ChunkedBody::new(&mut raw);
        body.write_all(b"hello ").unwrap();
        body.write_all(b"world").unwrap();
        body.finish().unwrap();
        assert_eq!(raw, b"b\r\nhello world\r\n0\r\n\r\n");
        // Empty body is just the terminator.
        let mut raw = Vec::new();
        ChunkedBody::new(&mut raw).finish().unwrap();
        assert_eq!(raw, b"0\r\n\r\n");
    }

    /// A sink that records each `write` call's bytes separately.
    #[derive(Default)]
    struct CountingWrite {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.writes.push(data.to_vec());
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_head_and_chunk_frame_is_one_write() {
        let headers = [("X-A", "1".to_string()), ("X-B", "2".to_string())];
        let mut out = CountingWrite::default();
        write_response(&mut out, 200, "text/plain", &headers, b"body", false).unwrap();
        assert_eq!(out.writes.len(), 1, "head and body in one write");
        assert!(out.writes[0].ends_with(b"X-B: 2\r\n\r\nbody"));

        let mut out = CountingWrite::default();
        write_chunked_head(&mut out, 206, "text/plain", &headers, true).unwrap();
        assert_eq!(out.writes.len(), 1, "chunked head in one write");

        let mut out = CountingWrite::default();
        let mut body = ChunkedBody::new(&mut out);
        body.write_all(&vec![b'x'; CHUNK_FLUSH]).unwrap();
        body.write_all(b"tail").unwrap();
        body.flush().unwrap();
        body.flush().unwrap(); // nothing pending: no empty write
        body.write_all(b"end").unwrap();
        body.finish().unwrap();
        assert_eq!(out.writes.len(), 3, "one write per chunk frame");
        assert_eq!(out.writes[0].len(), 4 + 2 + CHUNK_FLUSH + 2);
        assert_eq!(out.writes[1], b"4\r\ntail\r\n");
        assert_eq!(out.writes[2], b"3\r\nend\r\n0\r\n\r\n");
    }

    #[test]
    fn response_head_shape() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            400,
            "text/plain",
            &[("X-Test", "1".to_string())],
            b"nope\n",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nnope\n"));
        // Keep-alive responses state it.
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", &[], b"ok", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "text/plain", &[], false).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }
}
