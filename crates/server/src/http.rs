//! Minimal HTTP/1.1 framing for the SPARQL protocol endpoint.
//!
//! Supports exactly what the serving subsystem needs: request-line and
//! header parsing, `Content-Length` bodies (a `Transfer-Encoding` body
//! is refused, never guessed at), percent-decoding, and
//! `application/x-www-form-urlencoded` query-pair parsing. Two parsing
//! entry points share one grammar: [`Request::parse`] reads a blocking
//! stream (one request per connection, `Connection: close` on every
//! response), and [`Request::try_parse`] consumes an in-memory buffer
//! incrementally for the event-driven front-end, which keeps
//! connections alive and pipelines requests.

use std::io::{self, BufRead, Write};

/// Largest accepted request body: queries are text, not bulk uploads.
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted request-line or header line in bytes (terminator
/// included). A slow client streaming an endless line gets `400`, not
/// an unbounded buffer.
pub const MAX_LINE: usize = 8 << 10;

/// Maximum number of header lines per request; beyond this the request
/// is rejected with `400` instead of growing the header list forever.
pub const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Decoded path without the query string, e.g. `/sparql`.
    pub path: String,
    /// Decoded query-string pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client may reuse this connection for another
    /// request: `HTTP/1.1` unless a `Connection: close` token was sent,
    /// or any other version with an explicit `Connection: keep-alive`.
    /// The blocking front-end ignores this and always closes; the
    /// event-driven front-end honors it.
    pub keep_alive: bool,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query-string parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse one request from a buffered stream.
    pub fn parse<R: BufRead>(reader: &mut R) -> io::Result<Request> {
        let head = parse_request_line(&read_crlf_line(reader)?)?;
        let mut headers = Vec::new();
        loop {
            let line = read_crlf_line(reader)?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(bad("too many headers"));
            }
            headers.push(parse_header_line(&line)?);
        }

        let length = body_length(&headers)?;
        let mut body = Vec::new();
        if length > 0 {
            body.resize(length, 0);
            reader.read_exact(&mut body)?;
        }

        Ok(assemble(head, headers, body))
    }

    /// Try to parse one request out of an in-memory buffer holding
    /// whatever bytes have arrived so far — the event-driven front-end's
    /// entry point, sharing every grammar rule and limit with
    /// [`Request::parse`].
    ///
    /// Returns:
    /// - `Ok(Some((request, consumed)))` — a complete request occupying
    ///   the first `consumed` bytes of `buf`; pipelined followers remain
    ///   in the buffer after that offset.
    /// - `Ok(None)` — the bytes so far are a valid prefix; read more.
    /// - `Err(_)` — the prefix can never become a valid request, with
    ///   the same error kinds as [`Request::parse`] (`InvalidData` →
    ///   400, `InvalidInput` → 413, `Unsupported` → 411).
    pub fn try_parse(buf: &[u8]) -> io::Result<Option<(Request, usize)>> {
        let mut pos = 0usize;
        let Some(line) = next_crlf_line(buf, &mut pos)? else {
            return Ok(None);
        };
        let head = parse_request_line(&line)?;
        let mut headers = Vec::new();
        loop {
            let Some(line) = next_crlf_line(buf, &mut pos)? else {
                return Ok(None);
            };
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(bad("too many headers"));
            }
            headers.push(parse_header_line(&line)?);
        }
        let length = body_length(&headers)?;
        if buf.len() - pos < length {
            return Ok(None);
        }
        let body = buf[pos..pos + length].to_vec();
        Ok(Some((assemble(head, headers, body), pos + length)))
    }
}

/// The parsed request line: method, split target, and whether the
/// version string was exactly `HTTP/1.1` (the keep-alive-by-default
/// version).
struct RequestLine {
    method: String,
    raw_path: String,
    raw_query: String,
    http11: bool,
}

fn parse_request_line(line: &str) -> io::Result<RequestLine> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(RequestLine {
        method: method.to_string(),
        raw_path: raw_path.to_string(),
        raw_query: raw_query.to_string(),
        http11: version == "HTTP/1.1",
    })
}

fn parse_header_line(line: &str) -> io::Result<(String, String)> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| bad("malformed header line"))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Resolve the body length from `Content-Length` headers.
///
/// RFC 7230 §3.3.2: duplicate `Content-Length` headers with differing
/// values make the message length ambiguous (request smuggling) and
/// must be rejected; identical repeats are allowed. A length beyond
/// [`MAX_BODY`] gets the distinct `InvalidInput` kind so handlers map
/// it to `413`.
///
/// This parser does not decode transfer codings, so a request with a
/// `Transfer-Encoding` header is never framed by guesswork (the body
/// bytes would otherwise be read as the next request): alongside a
/// `Content-Length` it is ambiguous and rejected (RFC 9112 §6.3, `400`);
/// alone it gets the `Unsupported` kind, which handlers map to `411
/// Length Required` (RFC 9110 §15.5.12).
fn body_length(headers: &[(String, String)]) -> io::Result<usize> {
    let has = |name: &str| headers.iter().any(|(n, _)| n == name);
    if has("transfer-encoding") {
        return Err(if has("content-length") {
            bad("transfer-encoding with content-length")
        } else {
            length_required("transfer-encoding without content-length")
        });
    }
    let mut length: Option<usize> = None;
    for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
        let parsed = value
            .parse::<usize>()
            .map_err(|_| bad("bad content-length"))?;
        match length {
            Some(seen) if seen != parsed => {
                return Err(bad("conflicting content-length headers"));
            }
            _ => length = Some(parsed),
        }
    }
    let length = length.unwrap_or(0);
    if length > MAX_BODY {
        return Err(too_large("request body too large"));
    }
    Ok(length)
}

fn assemble(head: RequestLine, headers: Vec<(String, String)>, body: Vec<u8>) -> Request {
    let keep_alive = wants_keep_alive(head.http11, &headers);
    Request {
        method: head.method.to_ascii_uppercase(),
        path: percent_decode(&head.raw_path),
        query: parse_query_pairs(&head.raw_query),
        headers,
        body,
        keep_alive,
    }
}

/// HTTP/1.1 defaults to persistent connections unless the client sends
/// a `close` token; HTTP/1.0 (and the other `HTTP/1.x` versions this
/// parser tolerates) closes unless the client explicitly opts in with
/// `keep-alive`. `close` wins over `keep-alive` if both appear.
fn wants_keep_alive(http11: bool, headers: &[(String, String)]) -> bool {
    let mut explicit_keep = false;
    for (_, value) in headers.iter().filter(|(n, _)| n == "connection") {
        for token in value.split(',') {
            match token.trim().to_ascii_lowercase().as_str() {
                "close" => return false,
                "keep-alive" => explicit_keep = true,
                _ => {}
            }
        }
    }
    http11 || explicit_keep
}

/// Pull the next `\n`-terminated line out of `buf` starting at `*pos`,
/// returned without the terminator, advancing `*pos` past it. `Ok(None)`
/// means the line is still incomplete; a line that cannot fit
/// [`MAX_LINE`] bytes (terminator included) is rejected as soon as that
/// is knowable, even before its newline arrives — the incremental
/// analogue of [`read_crlf_line`]'s bound.
fn next_crlf_line(buf: &[u8], pos: &mut usize) -> io::Result<Option<String>> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(nl) => {
            if nl + 1 > MAX_LINE {
                return Err(bad("header line too long"));
            }
            let mut line = std::str::from_utf8(&rest[..nl])
                .map_err(|_| bad("invalid utf-8 in header"))?
                .to_string();
            while line.ends_with('\r') {
                line.pop();
            }
            *pos += nl + 1;
            Ok(Some(line))
        }
        None if rest.len() >= MAX_LINE => Err(bad("header line too long")),
        None => Ok(None),
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added on
    /// write).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response (trace trees, explain reports).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A SPARQL-JSON results response.
    pub fn sparql_json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![(
                "Content-Type".into(),
                "application/sparql-results+json".into(),
            )],
            body: body.into().into_bytes(),
        }
    }

    /// Add a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize to bytes. `close` picks the `Connection` header value:
    /// the blocking front-end always closes; the event-driven front-end
    /// answers `keep-alive` until the connection's last response, which
    /// must say `close` so the client knows not to reuse the socket.
    pub fn serialize(&self, close: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = write!(
            out,
            "Content-Length: {}\r\nConnection: {}\r\n\r\n",
            self.body.len(),
            if close { "close" } else { "keep-alive" }
        );
        out.extend_from_slice(&self.body);
        out
    }

    /// Serialize onto a stream. Every response closes the connection
    /// (the blocking front-end's one-request-per-connection contract).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.serialize(true))?;
        w.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// An oversized request body gets its own error kind so the connection
/// handler can answer `413 Payload Too Large` instead of a generic
/// `400` — the distinction tells a well-behaved client whether to fix
/// the request or stop resending it bigger.
fn too_large(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.to_string())
}

/// A body framed only by a transfer coding gets its own error kind so
/// the connection handler can answer `411 Length Required`: the client
/// may resend with a `Content-Length`.
fn length_required(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, msg.to_string())
}

/// Read one `\r\n`-terminated line, returned without the terminator.
/// Rejects lines longer than [`MAX_LINE`] so a client streaming an
/// endless request-line or header cannot grow the buffer unboundedly.
fn read_crlf_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            break;
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |pos| pos + 1);
        if line.len() + take > MAX_LINE {
            return Err(bad("header line too long"));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    let mut line = String::from_utf8(line).map_err(|_| bad("invalid utf-8 in header"))?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Decode `%XX` escapes only. `+` is a literal plus: in a request
/// *path* it is an ordinary character, and rewriting it to a space
/// (a form-encoding convention) corrupts resources whose names contain
/// `+`. Use [`form_decode`] for `application/x-www-form-urlencoded`
/// query pairs, where `+`-as-space applies.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Decode a `application/x-www-form-urlencoded` component: `+` means
/// space, then `%XX` escapes are resolved. Only query pairs use this;
/// paths go through [`percent_decode`].
pub fn form_decode(input: &str) -> String {
    percent_decode(&input.replace('+', "%20"))
}

/// Percent-encode everything outside the URL-unreserved set (for
/// building `?query=` targets in clients and the load generator).
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for b in input.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Split `a=1&b=2` into decoded pairs. Keys without `=` get empty
/// values.
pub fn parse_query_pairs(input: &str) -> Vec<(String, String)> {
    input
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (form_decode(k), form_decode(v)),
            None => (form_decode(pair), String::new()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_get_with_query() {
        let raw = "GET /sparql?query=SELECT%20%3Fs&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sparql");
        assert_eq!(req.param("query"), Some("SELECT ?s"));
        assert_eq!(req.param("limit"), Some("5"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let raw = "POST /sparql HTTP/1.1\r\nContent-Length: 9\r\n\r\nquery=abctrailing-junk";
        let req = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(req.body, b"query=abc");
    }

    #[test]
    fn rejects_malformed_request_line() {
        let raw = "NONSENSE\r\n\r\n";
        assert!(Request::parse(&mut BufReader::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn rejects_oversized_body_with_distinct_kind() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        // InvalidInput (not InvalidData) so the handler maps it to 413.
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn percent_roundtrip() {
        let q = "SELECT ?s WHERE { ?s a <http://e/C> . FILTER(?s != \"x y\") }";
        assert_eq!(percent_decode(&percent_encode(q)), q);
    }

    #[test]
    fn decode_handles_plus_and_bad_escapes() {
        // Paths keep `+` literal; form components treat it as a space.
        assert_eq!(percent_decode("a+b%20c"), "a+b c");
        assert_eq!(form_decode("a+b%20c"), "a b c");
        assert_eq!(form_decode("a%2Bb"), "a+b");
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn plus_in_path_survives_but_query_pairs_form_decode() {
        let raw = "GET /c%2B%2B+notes?q=a+b HTTP/1.1\r\n\r\n";
        let req = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(req.path, "/c+++notes");
        assert_eq!(req.param("q"), Some("a b"));
    }

    #[test]
    fn decode_handles_multibyte_utf8_escapes() {
        assert_eq!(percent_decode("%E2%82%AC"), "\u{20AC}");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
        // An escape sequence that decodes to invalid UTF-8 is replaced,
        // not a panic or a silent truncation.
        assert_eq!(percent_decode("%FF"), "\u{FFFD}");
    }

    #[test]
    fn decode_handles_truncated_escape_at_end_of_input() {
        assert_eq!(percent_decode("abc%4"), "abc%4");
        assert_eq!(percent_decode("abc%"), "abc%");
        assert_eq!(form_decode("abc%4"), "abc%4");
    }

    #[test]
    fn rejects_oversized_header_line() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        let err = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_unterminated_endless_line_before_buffering_it_all() {
        // No newline at all: the reader must give up at MAX_LINE, not
        // buffer the whole stream.
        let raw = "G".repeat(MAX_LINE * 4);
        let err = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-Filler-{i}: 1\r\n"));
        }
        raw.push_str("\r\n");
        let err = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn exactly_max_headers_is_accepted() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            raw.push_str(&format!("X-Filler-{i}: 1\r\n"));
        }
        raw.push_str("\r\n");
        let req = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(req.headers.len(), MAX_HEADERS);
    }

    #[test]
    fn rejects_conflicting_duplicate_content_length() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
        let err = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn accepts_identical_duplicate_content_length() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        let req = Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn response_wire_format() {
        let mut buf = Vec::new();
        Response::text(200, "ok")
            .header("X-Test", "1")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
    }

    #[test]
    fn query_pairs_tolerate_missing_values() {
        let pairs = parse_query_pairs("a&b=2&&c=");
        assert_eq!(
            pairs,
            vec![
                ("a".into(), String::new()),
                ("b".into(), "2".into()),
                ("c".into(), String::new())
            ]
        );
    }

    #[test]
    fn serialize_close_matches_write_to_byte_for_byte() {
        let response = Response::sparql_json(200, "{\"x\":1}").header("X-Test", "1");
        let mut via_stream = Vec::new();
        response.write_to(&mut via_stream).unwrap();
        assert_eq!(via_stream, response.serialize(true));
    }

    #[test]
    fn serialize_keep_alive_differs_only_in_connection_header() {
        let response = Response::text(200, "ok");
        let close = String::from_utf8(response.serialize(true)).unwrap();
        let keep = String::from_utf8(response.serialize(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert_eq!(
            close.replace("Connection: close", "Connection: keep-alive"),
            keep
        );
    }

    #[test]
    fn keep_alive_defaults_follow_http_version() {
        let parse = |raw: &str| Request::parse(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert!(parse("GET / HTTP/1.1\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        // `close` wins when both tokens appear in one list.
        assert!(!parse("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").keep_alive);
    }

    #[test]
    fn try_parse_incomplete_prefixes_ask_for_more() {
        let raw = b"POST /sparql HTTP/1.1\r\nContent-Length: 9\r\n\r\nquery=abc";
        for cut in 0..raw.len() {
            assert!(
                Request::try_parse(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (req, consumed) = Request::try_parse(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"query=abc");
        assert!(req.keep_alive);
    }

    #[test]
    fn try_parse_leaves_pipelined_followers_in_the_buffer() {
        let raw = b"GET /health HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, consumed) = Request::try_parse(raw).unwrap().unwrap();
        assert_eq!(first.path, "/health");
        let (second, consumed2) = Request::try_parse(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn try_parse_matches_blocking_parse_on_whole_requests() {
        let cases: &[&[u8]] = &[
            b"GET /sparql?query=SELECT%20%3Fs&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /sparql HTTP/1.1\r\nContent-Length: 9\r\n\r\nquery=abc",
            b"GET /c%2B%2B+notes?q=a+b HTTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ];
        for raw in cases {
            let blocking = Request::parse(&mut BufReader::new(*raw)).unwrap();
            let (incremental, consumed) = Request::try_parse(raw).unwrap().unwrap();
            assert_eq!(consumed, raw.len());
            assert_eq!(blocking.method, incremental.method);
            assert_eq!(blocking.path, incremental.path);
            assert_eq!(blocking.query, incremental.query);
            assert_eq!(blocking.headers, incremental.headers);
            assert_eq!(blocking.body, incremental.body);
            assert_eq!(blocking.keep_alive, incremental.keep_alive);
        }
    }

    #[test]
    fn try_parse_rejects_with_the_same_error_kinds() {
        // Malformed request line → InvalidData (400).
        assert_eq!(
            Request::try_parse(b"NONSENSE\r\n\r\n").unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Oversized declared body → InvalidInput (413).
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(
            Request::try_parse(raw.as_bytes()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
        // Conflicting duplicate Content-Length → InvalidData.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
        assert_eq!(
            Request::try_parse(raw).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn transfer_encoding_is_refused_by_both_parsers() {
        let cases: [(&[u8], std::io::ErrorKind); 2] = [
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                std::io::ErrorKind::Unsupported,
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n0\r\n\r\n",
                std::io::ErrorKind::InvalidData,
            ),
        ];
        for (raw, kind) in cases {
            assert_eq!(Request::try_parse(raw).unwrap_err().kind(), kind);
            let err = Request::parse(&mut BufReader::new(raw)).unwrap_err();
            assert_eq!(err.kind(), kind);
        }
    }

    #[test]
    fn try_parse_bounds_unterminated_lines_before_the_newline_arrives() {
        // A line that can no longer fit MAX_LINE must be rejected even
        // though its terminator never arrived — otherwise a slowloris
        // client could grow the buffer forever.
        let raw = vec![b'G'; MAX_LINE];
        assert_eq!(
            Request::try_parse(&raw).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // One byte short of the bound is still just "incomplete".
        assert!(Request::try_parse(&raw[..MAX_LINE - 1]).unwrap().is_none());
    }

    #[test]
    fn try_parse_enforces_header_count_incrementally() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-Filler-{i}: 1\r\n"));
        }
        // No terminating blank line: the count bound still fires.
        assert_eq!(
            Request::try_parse(raw.as_bytes()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
