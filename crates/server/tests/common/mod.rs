//! Shared multi-process test infrastructure: spawn real `elinda-serve`
//! processes on ephemeral ports and probe them to readiness.
//!
//! Every spawn binds port 0 and learns the kernel-assigned port from the
//! server's own `listening on http://…` line, so multi-process suites
//! can run in parallel CI without port collisions. Readiness is then
//! confirmed end-to-end with a `GET /health` probe — the listener being
//! bound does not yet mean workers are serving.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a spawned server may take to report its address and pass
/// the health probe before the spawn is declared failed.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The `elinda-serve` binary of this build: cargo builds the package's
/// binaries before its integration tests and hands their paths over.
pub fn serve_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_elinda-serve"))
}

/// A spawned `elinda-serve` process bound to an ephemeral port.
///
/// The child's stdin is held open for its whole life: the server exits
/// when stdin closes, so dropping the handle early would stop it.
/// Dropping this struct kills the process.
pub struct ServerProcess {
    child: Child,
    /// Held open so the server keeps running; the server drains stdin
    /// and exits when it closes.
    stdin: Option<ChildStdin>,
    /// The learned `host:port` address.
    pub addr: String,
    /// The args this process was spawned with (minus any `--addr`),
    /// kept so a chaos test can respawn it on the same port.
    args: Vec<String>,
}

impl ServerProcess {
    /// Spawn `elinda-serve` with `args` plus an ephemeral `--addr`,
    /// wait for its address line and a passing `GET /health`.
    pub fn spawn(args: &[&str]) -> ServerProcess {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ServerProcess::spawn_on("127.0.0.1:0", args)
    }

    /// Spawn on an explicit address — used to respawn a killed shard on
    /// the port the coordinator's static map already names. Retries the
    /// bind briefly: the kernel may still hold the old socket.
    pub fn respawn_at(addr: &str, args: &[String]) -> ServerProcess {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match ServerProcess::try_spawn_on(addr, args.to_vec()) {
                Ok(server) => return server,
                Err(e) => {
                    assert!(
                        Instant::now() < deadline,
                        "could not respawn elinda-serve on {addr}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }

    fn spawn_on(addr: &str, args: Vec<String>) -> ServerProcess {
        match ServerProcess::try_spawn_on(addr, args) {
            Ok(server) => server,
            Err(e) => panic!("failed to spawn elinda-serve on {addr}: {e}"),
        }
    }

    fn try_spawn_on(addr: &str, args: Vec<String>) -> Result<ServerProcess, String> {
        let mut child = Command::new(serve_binary())
            .arg("--addr")
            .arg(addr)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("piped stderr");

        // The server logs `listening on http://<addr>` once bound; relay
        // that line, then keep draining stderr so the child never blocks
        // on a full pipe.
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::spawn(move || {
            let reader = BufReader::new(stderr);
            let mut tx = Some(tx);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    if let Some(tx) = tx.take() {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                    }
                }
            }
        });

        let learned = match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => addr,
            Ok(_) => return Err("empty address in listening line".into()),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("no listening line before timeout (bind failure?)".into());
            }
        };
        let mut server = ServerProcess {
            child,
            stdin,
            addr: learned,
            args,
        };
        server.await_healthy()?;
        Ok(server)
    }

    fn await_healthy(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(response) = http_request(&self.addr, "GET", "/health", None) {
                if response.status == 200 {
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited during readiness probe: {status}"));
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                return Err("health probe never passed".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILL the process (no drain, no flush) and reap it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The spawn args (without `--addr`), for a same-port respawn.
    pub fn spawn_args(&self) -> &[String] {
        &self.args
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A parsed HTTP response from a test request.
pub struct TestResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lowercase names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl TestResponse {
    /// The value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One `Connection: close` HTTP exchange against `addr`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &str)>,
) -> std::io::Result<TestResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let request = match body {
        None => format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        Some((content_type, payload)) => format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        ),
    };
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparsable response from {addr}"),
        )
    })
}

fn parse_response(raw: &[u8]) -> Option<TestResponse> {
    let header_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..header_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().ok();
        }
        headers.push((name, value));
    }
    let body_bytes = &raw[header_end + 4..];
    let body = match content_length {
        Some(len) if len <= body_bytes.len() => &body_bytes[..len],
        _ => body_bytes,
    };
    Some(TestResponse {
        status,
        headers,
        body: String::from_utf8_lossy(body).into_owned(),
    })
}

/// `GET /sparql?query=…` against `addr` (URL-encoded).
pub fn sparql_get(addr: &str, query: &str) -> std::io::Result<TestResponse> {
    http_request(
        addr,
        "GET",
        &format!("/sparql?query={}", urlencode(query)),
        None,
    )
}

/// `POST /sparql` with a raw `application/sparql-query` body.
pub fn sparql_post(addr: &str, query: &str) -> std::io::Result<TestResponse> {
    http_request(
        addr,
        "POST",
        "/sparql",
        Some(("application/sparql-query", query)),
    )
}

/// Minimal percent-encoding for query strings.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}
