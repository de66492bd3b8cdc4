//! Spawning, timing and reaping the real `elinda-serve` binary.

use crate::client::get_once;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned server may take to report its address and answer
/// `/health`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Pause between `/health` polls while the set-up time is measured.
const HEALTH_POLL: Duration = Duration::from_millis(2);

/// A running `elinda-serve`. Dropping it kills and reaps the process, so
/// no exit path of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    /// Held open: the server exits when its stdin closes.
    _stdin: Option<ChildStdin>,
    /// The learned `host:port`.
    pub addr: String,
    /// Spawn to first 200 on `/health`.
    pub setup: Duration,
    stderr: Arc<Mutex<String>>,
    /// Drains the server's stderr; ends when the process does.
    reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `binary --addr 127.0.0.1:0 args…`, learn the port from its
    /// `listening on http://…` line and poll `/health` until it answers.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let pipe = child.stderr.take().expect("stderr is piped");
        let stderr = Arc::new(Mutex::new(String::new()));
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn({
            let log = Arc::clone(&stderr);
            move || {
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    if let Some(rest) = line.strip_prefix("listening on http://") {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        let _ = tx.send(addr.to_string());
                    }
                    let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
                    log.push_str(&line);
                    log.push('\n');
                }
            }
        });
        let mut server = Server {
            child,
            _stdin: stdin,
            addr: String::new(),
            setup: Duration::ZERO,
            stderr,
            reader: Some(reader),
        };
        server.addr = match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => addr,
            _ => return Err(server.failure("reported no address within 60 s")),
        };
        loop {
            if matches!(get_once(&server.addr, "/health"), Ok((200, _))) {
                break;
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(server.failure("did not answer /health within 60 s"));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(server.failure(&format!("exited during start-up: {status}")));
            }
            std::thread::sleep(HEALTH_POLL);
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// A named start-up error with the server's stderr attached.
    fn failure(&self, what: &str) -> String {
        format!("elinda-serve {what}; its stderr:\n{}", self.stderr())
    }

    /// Everything the server has written to stderr so far.
    pub fn stderr(&self) -> String {
        self.stderr
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Peak resident set size (`VmHWM`) in MB, from `/proc`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL (no drain, no flush) and reap.
    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The exit closed the pipe, so the reader is at end of file.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Run a helper binary to completion; its stderr is the error text.
pub fn run_to_completion(binary: &Path, args: &[String]) -> Result<(), String> {
    let output = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{} {}: {}\n{}",
            binary.display(),
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}
