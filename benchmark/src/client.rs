//! A keep-alive HTTP/1.1 client: one connection, one request in flight,
//! transparent redial when the server closes (the reactor closes a
//! connection after 1000 requests).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest a single exchange may take before it counts as an error.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest body accepted; the level-zero chart is 20 KB.
const MAX_BODY: usize = 64 << 20;

/// Values of `X-Elinda-Served-By`, in the order the shares are reported.
pub const SERVED_BY: [&str; 6] = [
    "cache-hit",
    "hvs",
    "incremental",
    "decomposer",
    "direct",
    "degraded",
];

/// Index of `other` in a tally: a response without the header, or with a
/// value this benchmark does not know.
pub const SERVED_BY_OTHER: usize = SERVED_BY.len();

/// One parsed response. The body stays in the connection's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Index into [`SERVED_BY`], or [`SERVED_BY_OTHER`].
    pub served_by: usize,
    body_start: usize,
    body_end: usize,
}

/// A persistent connection to one server.
pub struct Connection {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first.
    pub redials: u64,
    dialed: bool,
}

impl Connection {
    /// A connection to `addr`, dialed on first use.
    pub fn new(addr: &str) -> Self {
        Connection {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::with_capacity(64 << 10),
            redials: 0,
            dialed: false,
        }
    }

    fn dial(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        if self.dialed {
            self.redials += 1;
        }
        self.dialed = true;
        self.stream = Some(stream);
        Ok(())
    }

    /// Send `wire` and read the whole response. A connection the server
    /// closed while idle is redialed once; a second failure is an error.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.try_exchange(wire) {
            Err(_) if reused => {
                self.stream = None;
                self.try_exchange(wire)
            }
            other => other,
        }
    }

    fn try_exchange(&mut self, wire: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            self.dial()?;
        }
        let result = self.round_trip(wire);
        if !matches!(result, Ok((_, false))) {
            self.stream = None;
        }
        result.map(|(reply, _)| reply)
    }

    /// One request and response; the flag says the server will close.
    fn round_trip(&mut self, wire: &[u8]) -> io::Result<(Reply, bool)> {
        let stream = self.stream.as_mut().expect("dialed");
        stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let (mut length, mut close, mut served_by) = (0usize, false, SERVED_BY_OTHER);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .ok()
                    .filter(|length| *length <= MAX_BODY)
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-elinda-served-by") {
                // The degradation rungs answer `degraded-stale` and
                // `degraded-local`.
                served_by = SERVED_BY
                    .iter()
                    .position(|known| value.starts_with(known))
                    .unwrap_or(SERVED_BY_OTHER);
            }
        }
        let body_end = head_end + length;
        while self.buf.len() < body_end {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let reply = Reply {
            status,
            served_by,
            body_start: head_end,
            body_end,
        };
        Ok((reply, close))
    }

    /// The body of the reply the last exchange returned.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_start..reply.body_end]
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// `GET path` on a fresh connection that asks the server to close: the
/// probe for readiness polling and for one-off queries.
pub fn get_once(addr: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut connection = Connection::new(addr);
    let wire = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    let reply = connection.exchange(wire.as_bytes())?;
    Ok((reply.status, connection.body(&reply).to_vec()))
}
