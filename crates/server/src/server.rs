//! The serving loop: a front-end feeding a bounded request queue
//! drained by a fixed pool of worker threads.
//!
//! Two front-ends share that queue. The default blocking front-end is
//! a non-blocking acceptor handing whole connections to workers (one
//! request per connection, `Connection: close`). With
//! [`ServerConfig::event_loop`] the epoll-backed [`crate::reactor`]
//! owns every socket instead: it parses requests incrementally, keeps
//! connections alive between requests, pipelines, and hands complete
//! requests (not connections) to the same workers.
//!
//! Admission control is explicit either way: when the queue is full
//! the front-end answers `503 Service Unavailable` itself instead of
//! letting latency grow without bound. Shutdown is graceful: the
//! front-end stops admitting, workers drain every queued item, and
//! [`ServerHandle::shutdown`] returns only once all of them exited.

use crate::http::{parse_query_pairs, Request, Response};
use crate::state::{served_by_name, ServerState};
use elinda_endpoint::resilience::Deadline;
use elinda_endpoint::{ServeError, TraceCtx};
use std::collections::VecDeque;
use std::io::{self, BufReader, Write};

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads answering queries concurrently.
    pub workers: usize,
    /// Maximum queued connections awaiting a worker; beyond this the
    /// acceptor sheds load with `503`.
    pub queue_depth: usize,
    /// Per-connection socket read timeout, so a stalled client cannot
    /// pin a worker forever.
    pub read_timeout: Duration,
    /// Artificial delay added before handling each request. Zero in
    /// production; tests and saturation benchmarks raise it to make
    /// queue overflow and shutdown draining deterministic.
    pub handler_delay: Duration,
    /// Per-request execution budget created at admission and propagated
    /// down the whole query path (router → parallel executor → remote
    /// calls). A request that exhausts it gets `504 Gateway Timeout`
    /// (or a degraded answer) instead of hanging. `None` disables the
    /// budget.
    pub request_deadline: Option<Duration>,
    /// Fraction of `/sparql` requests traced end-to-end (span tree,
    /// ring retention, per-stage histograms), in `[0.0, 1.0]`. Sampling
    /// is deterministic per request sequence number. `0.0` (the
    /// default) makes the tracing layer a no-op; the default can be
    /// overridden with the `ELINDA_TRACE_SAMPLE` environment variable.
    pub trace_sample: f64,
    /// Period of the background compactor thread folding the novelty
    /// overlay into the base store. The thread also wakes early when
    /// staged novelty crosses the overlay's size threshold. `None` (the
    /// default) spawns no compactor: writes accumulate in the overlay
    /// until [`crate::state::ServerState::compact_now`] is called.
    pub compact_interval: Option<Duration>,
    /// How long the shed / rejected-request paths keep reading leftover
    /// client bytes before giving up. Draining before answering stops
    /// the kernel from RST-ing the socket (destroying the error
    /// response) over unread data; this bounds how long a slow-writing
    /// client can occupy the draining thread.
    pub drain_timeout: Duration,
    /// Serve connections with the epoll-backed event-driven front-end
    /// ([`crate::reactor`]) instead of the blocking
    /// connection-per-worker model: HTTP/1.1 keep-alive, request
    /// pipelining, and thousands of idle connections without pinning
    /// threads. Requires a supported target ([`crate::sys::supported`]);
    /// [`serve`] fails with `Unsupported` otherwise.
    pub event_loop: bool,
    /// Maximum simultaneously open connections under the event loop;
    /// beyond this the reactor answers `503` and closes immediately.
    /// Ignored by the blocking front-end.
    pub max_connections: usize,
    /// How long an idle keep-alive connection (no request in progress)
    /// may sit between requests before the reactor closes it. Ignored
    /// by the blocking front-end, which never keeps connections alive.
    pub keep_alive_timeout: Duration,
    /// Requests served on one connection before the reactor closes it
    /// (`Connection: close` on the final response), bounding how long
    /// any single client can monopolize a connection slot. Ignored by
    /// the blocking front-end.
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            handler_delay: Duration::ZERO,
            request_deadline: None,
            trace_sample: default_trace_sample(),
            compact_interval: None,
            drain_timeout: Duration::from_millis(250),
            event_loop: false,
            max_connections: 8192,
            keep_alive_timeout: Duration::from_secs(30),
            max_requests_per_conn: 1000,
        }
    }
}

/// The default trace-sampling rate: `ELINDA_TRACE_SAMPLE` if set and
/// parseable (clamped to `[0.0, 1.0]`), else `0.0` (tracing off).
fn default_trace_sample() -> f64 {
    std::env::var("ELINDA_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v.clamp(0.0, 1.0))
        .unwrap_or(0.0)
}

/// Monotonic serving counters, exposed on `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections admitted by the front-end (handed to the worker
    /// pool under the blocking front-end, registered with the reactor
    /// under the event loop).
    pub accepted: u64,
    /// Responses written by workers (including error responses).
    pub served: u64,
    /// Requests answered `503` by admission control.
    pub shed: u64,
    /// `accept(2)` failures (excluding `WouldBlock`), which previously
    /// vanished into a silent sleep. Resource-exhaustion errors
    /// (`EMFILE`/`ENFILE`) additionally back the acceptor off
    /// exponentially instead of hot-looping.
    pub accept_errors: u64,
}

/// One unit of queued work: the blocking front-end enqueues whole
/// connections; the reactor enqueues already-parsed requests and takes
/// the response back over the completion channel.
pub(crate) enum Work {
    Conn(TcpStream),
    Job { token: u64, request: Request },
}

/// A worker's answer to a reactor [`Work::Job`], keyed by the
/// reactor's connection token.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
}

/// The cross-platform spelling of the reactor's wake pipe: the write
/// end workers poke after pushing a completion. Only ever constructed
/// on unix (the reactor is unavailable elsewhere); the non-unix alias
/// exists so `Shared` needs no cfg-dependent shape.
#[cfg(unix)]
pub(crate) type WakePipe = UnixStream;
#[cfg(not(unix))]
pub(crate) type WakePipe = TcpStream;

pub(crate) struct Shared {
    pub(crate) state: Arc<ServerState>,
    pub(crate) config: ServerConfig,
    pub(crate) queue: Mutex<VecDeque<Work>>,
    pub(crate) available: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
    /// Connections currently open under the reactor (gauge).
    pub(crate) connections_open: AtomicU64,
    /// Keep-alive connections closed for idling past the timeout.
    pub(crate) idle_closed: AtomicU64,
    /// Monotone per-`/sparql` sequence number driving deterministic
    /// trace sampling and generated request ids.
    pub(crate) request_seq: AtomicU64,
    /// Responses finished by workers, awaiting reactor pickup.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Write end of the reactor's wake pipe (reactor mode only).
    pub(crate) wake_tx: Mutex<Option<WakePipe>>,
}

impl Shared {
    fn counters(&self) -> ServerCounters {
        ServerCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
        }
    }

    /// Hand a reactor-parsed request to the worker pool under the same
    /// bounded-queue admission control as whole connections. `false`
    /// means the queue is full and the caller must shed.
    pub(crate) fn enqueue_job(&self, token: u64, request: Request) -> bool {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= self.config.queue_depth {
            return false;
        }
        queue.push_back(Work::Job { token, request });
        drop(queue);
        self.available.notify_one();
        true
    }

    /// Deliver a finished response to the reactor and wake it.
    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(completion);
        self.wake_reactor();
    }

    /// Poke the reactor's wake pipe. A full pipe buffer is fine: the
    /// reactor already has a wake-up pending and drains the pipe
    /// wholesale.
    pub(crate) fn wake_reactor(&self) {
        let guard = self.wake_tx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pipe) = guard.as_ref() {
            let _ = (&*pipe).write(&[1]);
        }
    }
}

/// A running server; dropping it shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (use with port `0` in tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn counters(&self) -> ServerCounters {
        self.shared.counters()
    }

    /// Stop accepting, drain every queued connection, and wait for all
    /// threads to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        // The reactor parks in epoll_wait; poke its wake pipe so it
        // observes the shutdown flag immediately (no-op in blocking
        // mode, where no pipe exists).
        self.shared.wake_reactor();
        // The compactor parks on the overlay's work condvar; poke it so
        // it observes the shutdown flag instead of sleeping out its
        // full interval.
        if let Some(novelty) = self.shared.state.novelty() {
            novelty.notify();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and start serving `state` with `config`.
pub fn serve(
    state: Arc<ServerState>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        state,
        config: config.clone(),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        served: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
        connections_open: AtomicU64::new(0),
        idle_closed: AtomicU64::new(0),
        request_seq: AtomicU64::new(0),
        completions: Mutex::new(Vec::new()),
        wake_tx: Mutex::new(None),
    });

    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("elinda-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();

    let acceptor = if config.event_loop {
        spawn_reactor(listener, &shared)?
    } else {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("elinda-acceptor".into())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn acceptor thread")
    };

    // Background compaction: one thread folding the novelty overlay on
    // a period, woken early when staged writes cross the overlay's size
    // threshold. Only spawned when both an interval is configured and
    // the state actually has a write path.
    let compactor = match (config.compact_interval, shared.state.novelty()) {
        (Some(interval), Some(_)) => {
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("elinda-compactor".into())
                    .spawn(move || compactor_loop(&shared, interval))
                    .expect("spawn compactor thread"),
            )
        }
        _ => None,
    };

    Ok(ServerHandle {
        shared,
        addr: local,
        acceptor: Some(acceptor),
        workers,
        compactor,
    })
}

/// Build the reactor synchronously (so a missing epoll backend fails
/// `serve` instead of a background thread) and run it on the thread
/// that replaces the blocking acceptor.
#[cfg(unix)]
fn spawn_reactor(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<JoinHandle<()>> {
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let reactor = crate::reactor::Reactor::new(listener, Arc::clone(shared), wake_rx)?;
    *shared.wake_tx.lock().unwrap_or_else(|e| e.into_inner()) = Some(wake_tx);
    thread::Builder::new()
        .name("elinda-reactor".into())
        .spawn(move || reactor.run())
        .map_err(io::Error::other)
}

#[cfg(not(unix))]
fn spawn_reactor(_listener: TcpListener, _shared: &Arc<Shared>) -> io::Result<JoinHandle<()>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the event-driven front-end requires a unix target with epoll",
    ))
}

fn compactor_loop(shared: &Shared, interval: Duration) {
    let Some(novelty) = shared.state.novelty().cloned() else {
        return;
    };
    while !shared.shutdown.load(Ordering::Acquire) {
        // Returns early on a threshold signal (or a shutdown poke),
        // else after the full interval; either way a clean overlay
        // makes compact_now a no-op.
        let _signaled = novelty.wait_for_work(interval);
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        shared.state.compact_now();
    }
}

/// Pacing for the accept loop's error handling. Transient
/// per-connection failures (an aborted handshake) get the base pause;
/// resource exhaustion (`EMFILE`/`ENFILE`, no buffers/memory) doubles
/// the pause up to a ceiling — retrying instantly cannot succeed until
/// descriptors free up, and hot-looping starves the threads that would
/// free them. Any successful accept resets the ramp.
pub(crate) struct AcceptBackoff {
    delay: Duration,
}

impl AcceptBackoff {
    const BASE: Duration = Duration::from_millis(2);
    const CEILING: Duration = Duration::from_millis(1000);

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { delay: Self::BASE }
    }

    pub(crate) fn on_success(&mut self) {
        self.delay = Self::BASE;
    }

    /// The pause to take after a (non-`WouldBlock`) accept error.
    pub(crate) fn on_error(&mut self, e: &io::Error) -> Duration {
        if is_resource_exhaustion(e) {
            let current = self.delay;
            self.delay = (self.delay * 2).min(Self::CEILING);
            current
        } else {
            Self::BASE
        }
    }
}

/// Whether an accept error means the process is out of a shared
/// resource (so immediate retry is futile). The stable
/// `io::ErrorKind` set has no variants for these yet; match raw
/// errnos: `ENOMEM`=12, `ENFILE`=23, `EMFILE`=24, `ENOBUFS`=105.
fn is_resource_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(12 | 23 | 24 | 105))
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let mut backoff = AcceptBackoff::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.on_success();
                // The listener is non-blocking so the loop can observe
                // shutdown; handled connections must block normally.
                let _ = stream.set_nonblocking(false);
                let enqueued = {
                    let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    if queue.len() < shared.config.queue_depth {
                        queue.push_back(Work::Conn(stream));
                        true
                    } else {
                        drop(queue);
                        shed(stream, shared);
                        false
                    }
                };
                if enqueued {
                    shared.accepted.fetch_add(1, Ordering::Relaxed);
                    shared.available.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                thread::sleep(backoff.on_error(&e));
            }
        }
    }
    // Dropping the listener here closes the accept socket, so clients
    // connecting after shutdown are refused rather than left hanging.
}

fn shed(stream: TcpStream, shared: &Shared) {
    shared.shed.fetch_add(1, Ordering::Relaxed);
    // Drain the request before answering: closing a socket with unread
    // received data makes the kernel send RST, which can destroy the
    // 503 before the client reads it. The timeout bounds how long a
    // slow-writing client can occupy the acceptor.
    let _ = stream.set_read_timeout(Some(shared.config.drain_timeout));
    let mut reader = BufReader::new(stream);
    let _ = Request::parse(&mut reader);
    let mut stream = reader.into_inner();
    let response = shed_response();
    let _ = response.write_to(&mut stream);
}

/// The admission-control 503, shared by both front-ends so shedding is
/// byte-identical whichever one answered.
pub(crate) fn shed_response() -> Response {
    Response::text(503, "server overloaded, retry later\n").header("Retry-After", "1")
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(work) = queue.pop_front() {
                    break Some(work);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        match work {
            Some(Work::Conn(stream)) => {
                handle_connection(stream, shared);
                shared.served.fetch_add(1, Ordering::Relaxed);
            }
            Some(Work::Job { token, request }) => {
                if !shared.config.handler_delay.is_zero() {
                    thread::sleep(shared.config.handler_delay);
                }
                // Same panic fence as the blocking path: a poisoned
                // query costs this request a 500, not the pool a
                // worker — and the reactor always gets its completion.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(&request, shared)
                }))
                .unwrap_or_else(|_| Response::text(500, "internal server error\n"));
                shared.served.fetch_add(1, Ordering::Relaxed);
                shared.complete(Completion { token, response });
            }
            // Shutdown requested and the queue is fully drained.
            None => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    if !shared.config.handler_delay.is_zero() {
        thread::sleep(shared.config.handler_delay);
    }
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let mut reader = BufReader::new(stream);
    let response = match Request::parse(&mut reader) {
        // A panic while routing (a poisoned query, a bug in an engine)
        // must cost this request a 500, not the pool a worker.
        Ok(request) => {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&request, shared)))
                .unwrap_or_else(|_| Response::text(500, "internal server error\n"))
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // The reject may leave unread request bytes (an oversized
            // header, a flood of them); closing with them unread makes
            // the kernel RST the connection and destroy the 400 before
            // the client sees it. Discard a bounded amount first.
            drain_rejected_request(&mut reader, shared.config.drain_timeout);
            Response::text(400, format!("bad request: {e}\n"))
        }
        // A body beyond MAX_BODY: tell the client the payload (not the
        // request framing) is the problem. Same drain rationale as 400.
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            drain_rejected_request(&mut reader, shared.config.drain_timeout);
            Response::text(413, format!("payload too large: {e}\n"))
        }
        // A `Transfer-Encoding` body without a `Content-Length`: nothing
        // after the headers is read as a request. Same drain rationale.
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            drain_rejected_request(&mut reader, shared.config.drain_timeout);
            Response::text(411, format!("length required: {e}\n"))
        }
        // The client sent part of a request and then stalled until the
        // socket read timeout: tell it so instead of silently dropping.
        // The partial request's bytes are still unread in the kernel
        // buffer; exactly like the 400/413 paths, closing without
        // draining them would RST the socket and destroy the 408
        // before the client reads it.
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) =>
        {
            drain_rejected_request(&mut reader, shared.config.drain_timeout);
            Response::text(408, "request timed out waiting for the client\n")
        }
        // Client vanished before sending a full request.
        Err(_) => return,
    };
    let mut stream = reader.into_inner();
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

/// Read and discard whatever the client already sent of a rejected
/// request, bounded in bytes and time, so the error response survives
/// the close.
fn drain_rejected_request(reader: &mut BufReader<TcpStream>, timeout: Duration) {
    let _ = reader.get_ref().set_read_timeout(Some(timeout));
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < crate::http::MAX_BODY {
        match io::Read::read(reader, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn route(request: &Request, shared: &Shared) -> Response {
    if let Some(id) = request.path.strip_prefix("/debug/trace/") {
        return if request.method == "GET" {
            debug_trace(id, shared)
        } else {
            Response::text(405, "method not allowed\n")
        };
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/explain") => explain(request, shared),
        ("GET", "/sparql") | ("POST", "/sparql") => sparql(request, shared),
        ("POST", "/update") => update(request, shared),
        ("POST", "/shard/eval") => shard_eval(request, shared),
        (_, "/health" | "/metrics" | "/sparql" | "/explain" | "/update" | "/shard/eval") => {
            Response::text(405, "method not allowed\n")
        }
        _ => Response::text(404, "not found\n"),
    }
}

/// `GET /debug/trace/<id>`: the full span tree of a recently sampled
/// request, as JSON, or `404` once it has been evicted from the ring.
fn debug_trace(id: &str, shared: &Shared) -> Response {
    match shared.state.trace_ring().get(id) {
        Some(trace) => Response::json(200, trace.to_json()),
        None => Response::text(404, "no sampled trace with that id\n"),
    }
}

/// `GET /explain?query=…`: the router's predicted serving path (HVS
/// hit, recognized shape, sharding) without executing the query.
fn explain(request: &Request, shared: &Shared) -> Response {
    let Some(query) = request.param("query") else {
        return Response::text(400, "missing required `query` parameter\n");
    };
    match shared.state.explain(query) {
        Some(report) => Response::json(200, report.to_json()),
        None => Response::text(404, "no local router available to explain against\n"),
    }
}

fn metrics(shared: &Shared) -> Response {
    let counters = shared.counters();
    let depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let mut body = shared.state.metrics_text();
    body.push_str(&format!(
        "elinda_server_accepted_total {}\n",
        counters.accepted
    ));
    body.push_str(&format!("elinda_server_served_total {}\n", counters.served));
    body.push_str(&format!("elinda_server_shed_total {}\n", counters.shed));
    body.push_str(&format!(
        "elinda_accept_errors {}\n",
        counters.accept_errors
    ));
    body.push_str(&format!("elinda_server_queue_depth {depth}\n"));
    body.push_str(&format!(
        "elinda_server_workers {}\n",
        shared.config.workers
    ));
    body.push_str(&format!(
        "elinda_server_event_loop {}\n",
        u8::from(shared.config.event_loop)
    ));
    body.push_str(&format!(
        "elinda_server_connections_open {}\n",
        shared.connections_open.load(Ordering::Relaxed)
    ));
    body.push_str(&format!(
        "elinda_server_idle_closed_total {}\n",
        shared.idle_closed.load(Ordering::Relaxed)
    ));
    Response::text(200, body)
}

/// Extract the query text per the SPARQL protocol: `?query=` on GET,
/// and on POST either a raw `application/sparql-query` body or a
/// `query=` pair in a form-encoded body.
fn query_text(request: &Request) -> Option<String> {
    if request.method == "GET" {
        return request.param("query").map(str::to_string);
    }
    let content_type = request.header("content-type").unwrap_or("");
    let body = String::from_utf8_lossy(&request.body);
    if content_type.starts_with("application/sparql-query") {
        return Some(body.into_owned());
    }
    parse_query_pairs(&body)
        .into_iter()
        .find(|(name, _)| name == "query")
        .map(|(_, value)| value)
        .or_else(|| request.param("query").map(str::to_string))
}

/// SplitMix64: the one-liner generator used for deterministic request
/// ids and sampling decisions (no RNG state to contend on).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A client-supplied `X-Request-Id` is honored only if it is short and
/// header/log-safe; anything else is replaced with a generated id.
fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// 16 hex chars, unique per (process, request sequence number).
fn generate_request_id(seq: u64) -> String {
    let salt = u64::from(std::process::id()) << 32;
    format!("{:016x}", splitmix64(seq ^ salt))
}

/// Deterministic sampling: request `seq` is traced iff its hashed
/// sequence number falls below the configured rate.
fn is_sampled(rate: f64, seq: u64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    // Top 53 bits → a uniform float in [0, 1).
    let unit = (splitmix64(seq) >> 11) as f64 / (1u64 << 53) as f64;
    unit < rate
}

fn sparql(request: &Request, shared: &Shared) -> Response {
    let seq = shared.request_seq.fetch_add(1, Ordering::Relaxed);
    let request_id = request
        .header("x-request-id")
        .filter(|id| valid_request_id(id))
        .map(str::to_string)
        .unwrap_or_else(|| generate_request_id(seq));
    let trace = if is_sampled(shared.config.trace_sample, seq) {
        TraceCtx::sampled(request_id.clone())
    } else {
        TraceCtx::disabled()
    };

    // Admission: protocol handling before the engine sees the query —
    // extracting the query text and minting the execution budget.
    let (query, deadline) = {
        let mut span = trace.span("admission");
        let query = query_text(request);
        let deadline = match shared.config.request_deadline {
            Some(budget) => Deadline::within(budget),
            None => Deadline::unbounded(),
        };
        if trace.is_enabled() {
            span.tag("method", request.method.clone());
            span.tag(
                "outcome",
                if query.is_some() {
                    "ok"
                } else {
                    "missing_query"
                },
            );
        }
        (query, deadline)
    };
    let Some(query) = query else {
        return Response::text(400, "missing required `query` parameter\n")
            .header("X-Request-Id", request_id);
    };

    let response = match shared.state.execute_json_traced(&query, deadline, trace) {
        Ok((body, served_by)) => {
            Response::sparql_json(200, body).header("X-Elinda-Served-By", served_by_name(served_by))
        }
        Err(ServeError::Query(e)) => Response::text(400, format!("query error: {e}\n")),
        Err(ServeError::DeadlineExceeded) => {
            Response::text(504, "deadline exceeded before an answer was produced\n")
        }
        Err(ServeError::Unavailable(msg)) => {
            Response::text(503, format!("backend unavailable: {msg}\n"))
                .header("Retry-After", retry_after_secs(shared).to_string())
        }
        Err(ServeError::Transient(msg)) => {
            Response::text(502, format!("upstream failure: {msg}\n"))
        }
        Err(ServeError::Malformed(msg)) => {
            Response::text(400, format!("malformed request: {msg}\n"))
        }
    };
    response.header("X-Request-Id", request_id)
}

/// The fabric's internal partial-aggregate route: a shard-role process
/// answers a decomposed chart query with a text-keyed partial over its
/// own subject-hash partition. A process not running in shard role has
/// nothing behind this path and answers 404.
fn shard_eval(request: &Request, shared: &Shared) -> Response {
    let seq = shared.request_seq.fetch_add(1, Ordering::Relaxed);
    let request_id = request
        .header("x-request-id")
        .filter(|id| valid_request_id(id))
        .map(str::to_string)
        .unwrap_or_else(|| generate_request_id(seq));
    let Some(evaluator) = shared.state.shard_evaluator() else {
        return Response::text(404, "not serving a shard role\n")
            .header("X-Request-Id", request_id);
    };
    let Some(query) = query_text(request) else {
        return Response::text(400, "missing required `query` parameter\n")
            .header("X-Request-Id", request_id);
    };
    let response = match evaluator.eval(&query) {
        Ok(body) => Response::json(200, body),
        Err(ServeError::Malformed(msg)) => {
            Response::text(400, format!("malformed request: {msg}\n"))
        }
        Err(ServeError::Query(e)) => Response::text(400, format!("query error: {e}\n")),
        Err(ServeError::DeadlineExceeded) => {
            Response::text(504, "deadline exceeded before an answer was produced\n")
        }
        Err(ServeError::Unavailable(msg)) => {
            Response::text(503, format!("backend unavailable: {msg}\n"))
        }
        Err(ServeError::Transient(msg)) => {
            Response::text(502, format!("upstream failure: {msg}\n"))
        }
    };
    response.header("X-Request-Id", request_id)
}

/// Extract the update text per the SPARQL protocol: a raw
/// `application/sparql-update` body, or an `update=` pair in a
/// form-encoded body (or the query string as a last resort).
fn update_text(request: &Request) -> Option<String> {
    let content_type = request.header("content-type").unwrap_or("");
    let body = String::from_utf8_lossy(&request.body);
    if content_type.starts_with("application/sparql-update") {
        return Some(body.into_owned());
    }
    parse_query_pairs(&body)
        .into_iter()
        .find(|(name, _)| name == "update")
        .map(|(_, value)| value)
        .or_else(|| request.param("update").map(str::to_string))
}

/// `POST /update`: apply a SPARQL UPDATE (`INSERT DATA`/`DELETE DATA`)
/// to the novelty overlay and report what changed as JSON. The next
/// read observes the write (read-your-writes); the background compactor
/// folds it into the base store later.
fn update(request: &Request, shared: &Shared) -> Response {
    let seq = shared.request_seq.fetch_add(1, Ordering::Relaxed);
    let request_id = request
        .header("x-request-id")
        .filter(|id| valid_request_id(id))
        .map(str::to_string)
        .unwrap_or_else(|| generate_request_id(seq));
    let trace = if is_sampled(shared.config.trace_sample, seq) {
        TraceCtx::sampled(request_id.clone())
    } else {
        TraceCtx::disabled()
    };

    let Some(text) = update_text(request) else {
        return Response::text(400, "missing required `update` parameter\n")
            .header("X-Request-Id", request_id);
    };
    let response = match shared.state.apply_update_traced(&text, trace) {
        Ok(outcome) => Response::json(
            200,
            format!(
                "{{\"inserted\":{},\"deleted\":{},\"noops\":{},\"novelty\":{},\"epoch\":{}}}",
                outcome.inserted, outcome.deleted, outcome.noops, outcome.novelty, outcome.epoch
            ),
        ),
        Err(ServeError::Malformed(msg)) => {
            Response::text(400, format!("malformed update: {msg}\n"))
        }
        Err(ServeError::Unavailable(msg)) => {
            Response::text(503, format!("write path unavailable: {msg}\n"))
        }
        Err(e) => Response::text(500, format!("update failed: {e}\n")),
    };
    response.header("X-Request-Id", request_id)
}

/// Seconds a shed client should wait before retrying: the breaker's
/// remaining open-state cooldown rounded up, and at least one second.
/// Falls back to one second when the breaker is not open (the 503 came
/// from somewhere else in the stack).
fn retry_after_secs(shared: &Shared) -> u64 {
    shared
        .state
        .breaker_cooldown()
        .map(|remaining| (remaining.as_secs_f64().ceil() as u64).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_validation_accepts_safe_tokens_only() {
        assert!(valid_request_id("abc-123_X.y"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id(&"a".repeat(65)));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("crlf\r\ninjection"));
    }

    #[test]
    fn generated_request_ids_are_hex_and_distinct() {
        let a = generate_request_id(0);
        let b = generate_request_id(1);
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }

    #[test]
    fn accept_backoff_ramps_on_resource_errors_and_resets() {
        let mut backoff = AcceptBackoff::new();
        let emfile = io::Error::from_raw_os_error(24);
        let aborted = io::Error::new(io::ErrorKind::ConnectionAborted, "aborted");

        // Transient errors never ramp.
        assert_eq!(backoff.on_error(&aborted), AcceptBackoff::BASE);
        assert_eq!(backoff.on_error(&aborted), AcceptBackoff::BASE);

        // Resource exhaustion doubles, capped at the ceiling.
        let mut last = Duration::ZERO;
        for _ in 0..16 {
            let pause = backoff.on_error(&emfile);
            assert!(pause >= last);
            assert!(pause <= AcceptBackoff::CEILING);
            last = pause;
        }
        assert_eq!(last, AcceptBackoff::CEILING);

        // A transient error mid-ramp keeps the ramp.
        assert_eq!(backoff.on_error(&aborted), AcceptBackoff::BASE);
        assert_eq!(backoff.on_error(&emfile), AcceptBackoff::CEILING);

        // Success resets it.
        backoff.on_success();
        assert_eq!(backoff.on_error(&emfile), AcceptBackoff::BASE);
    }

    #[test]
    fn resource_exhaustion_classification_matches_errnos() {
        for errno in [12, 23, 24, 105] {
            assert!(is_resource_exhaustion(&io::Error::from_raw_os_error(errno)));
        }
        // ECONNABORTED (103) and EINTR (4) are transient, not resource
        // exhaustion.
        assert!(!is_resource_exhaustion(&io::Error::from_raw_os_error(103)));
        assert!(!is_resource_exhaustion(&io::Error::from_raw_os_error(4)));
        assert!(!is_resource_exhaustion(&io::Error::new(
            io::ErrorKind::WouldBlock,
            "no os error"
        )));
    }

    #[test]
    fn sampling_rates_hit_their_extremes_and_scale() {
        assert!((0..100).all(|seq| !is_sampled(0.0, seq)));
        assert!((0..100).all(|seq| is_sampled(1.0, seq)));
        let hits = (0..10_000).filter(|&seq| is_sampled(0.25, seq)).count();
        assert!((1500..3500).contains(&hits), "0.25 sampled {hits}/10000");
        // Deterministic: the same sequence number decides the same way.
        assert_eq!(is_sampled(0.25, 42), is_sampled(0.25, 42));
    }
}
