//! The epoll-backed event-driven front-end.
//!
//! One reactor thread owns every client socket: it accepts, reads
//! request bytes as they arrive, parses incrementally
//! ([`Request::try_parse`]), and hands each *complete* request to the
//! same bounded worker queue the blocking front-end uses — so admission
//! control, `503` shedding, and every status-code semantic carry over
//! unchanged while thousands of idle keep-alive connections cost one
//! `epoll` registration each instead of a thread.
//!
//! ## Connection state machine
//!
//! ```text
//!             ┌────────────────────────────────────────────┐
//!             ▼                                            │
//! accept → Reading ──complete request──▶ Busy ──worker──▶ Writing
//!             │                           (queue full:      │
//!             │ parse error /             shed 503 ────▶ Writing)
//!             │ request deadline                            │
//!             ▼                                             ▼
//!          Draining ──drained / EOF / timeout──▶ Writing → close or
//!                                                          back to
//!                                                          Reading
//! ```
//!
//! * **Reading** — `EPOLLIN`: bytes accumulate in the connection
//!   buffer until a full request parses. A malformed prefix moves to
//!   *Draining* with the matching `400`/`411`/`413` queued; a request whose
//!   bytes stall past `read_timeout` (measured from the request's
//!   *first* byte, so a trickling slowloris client cannot reset it)
//!   gets the same treatment with a `408`.
//! * **Busy** — the request is with a worker; the reactor stops
//!   reading (pipelined followers wait in the buffer, responses stay
//!   in order) and listens only for hangups.
//! * **Writing** — the serialized response drains to the socket.
//!   Afterwards the connection closes (`Connection: close` was sent)
//!   or returns to *Reading* and immediately re-parses any pipelined
//!   bytes already buffered.
//! * **Draining** — a rejected request's leftover bytes are read and
//!   discarded (bounded by [`MAX_BODY`] and `drain_timeout`) before
//!   the error response is written, so the kernel cannot RST the
//!   socket over unread data and destroy the response — the same
//!   contract as the blocking front-end's `drain_rejected_request`.
//!
//! ## Keep-alive lifecycle
//!
//! A response says `Connection: keep-alive` and the connection returns
//! to *Reading* unless any of these end it (final response says
//! `Connection: close`): the client asked to close (or spoke
//! HTTP/1.0 without opting in), the connection served
//! `max_requests_per_conn` requests, the request was rejected or shed,
//! or the server is shutting down. Idle connections (no request in
//! progress) are closed silently after `keep_alive_timeout`.
//!
//! ## Shedding & shutdown
//!
//! Admission control happens per *request*: a parsed request that
//! finds the worker queue full is answered with the same `503` bytes
//! the blocking acceptor sends, then the connection closes. Beyond
//! `max_connections` open sockets, new accepts get a best-effort `503`
//! and close immediately. On shutdown the listener closes first, idle
//! connections are dropped, in-flight requests finish (their responses
//! close the connection), and the reactor exits once no connections
//! remain.

use crate::http::{Request, Response, MAX_BODY};
use crate::server::{shed_response, AcceptBackoff, Shared};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Upper bound on one `epoll_wait`'s readiness batch.
const EVENT_BATCH: usize = 256;

/// How long `epoll_wait` may block before the timeout sweep runs —
/// the granularity of idle/read-deadline enforcement.
const TICK: Duration = Duration::from_millis(25);

/// Per-`read(2)` scratch size.
const READ_CHUNK: usize = 16 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Reading,
    Busy,
    Writing,
    Draining,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Received-but-unparsed request bytes (pipelined followers wait
    /// here while a request is in flight).
    inbuf: Vec<u8>,
    /// Serialized response being written, and how much already went
    /// out.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Error response to send once draining finishes.
    pending: Option<Response>,
    /// Send `Connection: close` and drop the connection after the
    /// current response.
    close_after_write: bool,
    /// Whether the request currently with a worker asked to keep the
    /// connection alive.
    req_keep_alive: bool,
    requests_served: usize,
    /// Last useful I/O, for the idle keep-alive timeout and write
    /// stalls.
    last_activity: Instant,
    /// When the first byte of the request currently being read
    /// arrived. The whole-request deadline runs from here, so clients
    /// trickling one byte per timeout cannot hold the connection open.
    request_started: Option<Instant>,
    /// Deadline for the Draining state.
    drain_deadline: Option<Instant>,
    /// Bytes discarded so far while Draining.
    drained: usize,
    /// Peer sent FIN: no more request bytes will arrive (responses can
    /// still be delivered).
    peer_half_closed: bool,
    /// Currently registered epoll interest mask.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            state: ConnState::Reading,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            pending: None,
            close_after_write: false,
            req_keep_alive: false,
            requests_served: 0,
            last_activity: now,
            request_started: None,
            drain_deadline: None,
            drained: 0,
            peer_half_closed: false,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn set_interest(&mut self, epoll: &Epoll, token: u64, interest: u32) {
        if self.interest != interest
            && epoll
                .modify(self.stream.as_raw_fd(), token, interest)
                .is_ok()
        {
            self.interest = interest;
        }
    }
}

/// What a per-connection handler decided should happen next.
enum Verdict {
    /// Keep the connection registered.
    Keep,
    /// Remove and drop the connection (optionally counting it as an
    /// idle-timeout close).
    Close { idle: bool },
    /// A request went to the worker queue: stop reading (hangup watch
    /// only) until its completion arrives.
    NowBusy,
    /// Begin writing `response`; always closes afterwards when
    /// `close` is set.
    StartWrite { response: Response, close: bool },
    /// Enter the Draining state, then write `response` and close.
    Reject(Response),
}

/// The event-driven front-end: owns the listener, the wake pipe, and
/// every client socket; runs on the thread that replaces the blocking
/// acceptor.
pub struct Reactor {
    epoll: Epoll,
    listener: Option<TcpListener>,
    listener_fd: i32,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    accept_backoff: AcceptBackoff,
    /// While set, accepting is paused (resource-exhaustion backoff);
    /// the listener is deregistered so the level-triggered readiness
    /// cannot hot-loop.
    accept_paused_until: Option<Instant>,
    shutting_down: bool,
}

impl Reactor {
    /// Register the listener and wake pipe; fails if the target has no
    /// epoll backend (callers fall back to the blocking front-end).
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        wake_rx: UnixStream,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let listener_fd = listener.as_raw_fd();
        epoll.add(listener_fd, LISTENER_TOKEN, EPOLLIN)?;
        epoll.add(wake_rx.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
        Ok(Reactor {
            epoll,
            listener: Some(listener),
            listener_fd,
            wake_rx,
            shared,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            accept_backoff: AcceptBackoff::new(),
            accept_paused_until: None,
            shutting_down: false,
        })
    }

    /// The event loop. Returns once shutdown was requested and every
    /// connection finished or closed.
    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent::zeroed(); EVENT_BATCH];
        loop {
            if !self.shutting_down && self.shared.shutdown.load(Ordering::Acquire) {
                self.begin_shutdown();
            }
            if self.shutting_down && self.conns.is_empty() {
                return;
            }
            let n = match self.epoll.wait(&mut events, TICK.as_millis() as i32) {
                Ok(n) => n,
                Err(_) => {
                    // A broken epoll fd is unrecoverable; degrade to a
                    // paced loop so shutdown can still terminate us.
                    std::thread::sleep(TICK);
                    0
                }
            };
            for ev in &events[..n] {
                match ev.token() {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    token => self.conn_ready(token, ev.events()),
                }
            }
            // Completions are delivered every iteration: wake-pipe
            // bytes coalesce, and a completion pushed between the
            // drain and this point must not wait a full tick.
            self.deliver_completions();
            self.maybe_resume_accepting();
            self.sweep_timeouts();
        }
    }

    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        // Closing the listener refuses new connections outright
        // instead of leaving them hanging in the backlog.
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(self.listener_fd);
            drop(listener);
        }
        self.accept_paused_until = None;
        // Idle connections (nothing in flight, nothing buffered) are
        // dropped now; everything else runs to completion with
        // `Connection: close` on the final response.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Reading && c.request_started.is_none())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        if self.shutting_down || self.accept_paused_until.is_some() {
            return;
        }
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff.on_success();
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    self.shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let pause = self.accept_backoff.on_error(&e);
                    // The reactor thread cannot sleep (every connection
                    // would stall), so "backing off" means deregistering
                    // the listener for the pause; level-triggered
                    // readiness would otherwise re-fire instantly.
                    self.accept_paused_until = Some(Instant::now() + pause);
                    let _ = self.epoll.delete(self.listener_fd);
                    return;
                }
            }
        }
    }

    fn maybe_resume_accepting(&mut self) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if self.shutting_down {
            self.accept_paused_until = None;
            return;
        }
        if Instant::now() >= until {
            self.accept_paused_until = None;
            if self.listener.is_some()
                && self
                    .epoll
                    .add(self.listener_fd, LISTENER_TOKEN, EPOLLIN)
                    .is_err()
            {
                // Could not re-register: retry next tick.
                self.accept_paused_until = Some(Instant::now() + TICK);
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.shared.config.max_connections {
            // Over the connection cap: a best-effort 503 (the socket
            // buffer of a fresh connection always has room for it),
            // then drop.
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = stream.set_nonblocking(true);
            let _ = stream.write(&shed_response().serialize(true));
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream, Instant::now()));
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.publish_open_count();
    }

    fn drain_wake_pipe(&mut self) {
        let mut scratch = [0u8; 64];
        while matches!(self.wake_rx.read(&mut scratch), Ok(n) if n > 0) {}
    }

    fn conn_ready(&mut self, token: u64, events: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            // Transport error or both directions hung up: nothing can
            // be delivered anymore. A completion still in flight for
            // this token is dropped when it finds no connection.
            self.close_conn(token);
            return;
        }
        if events & EPOLLRDHUP != 0 {
            conn.peer_half_closed = true;
        }
        match conn.state {
            ConnState::Reading => self.read_ready(token),
            ConnState::Draining => self.drain_ready(token),
            ConnState::Writing => self.write_ready(token),
            ConnState::Busy => {
                // Nothing to read or write; just record the FIN and
                // silence the level-triggered RDHUP until the response
                // is ready.
                if conn.peer_half_closed {
                    conn.set_interest(&self.epoll, token, 0);
                }
            }
        }
    }

    /// Pull everything currently readable into the connection buffer,
    /// then try to dispatch.
    fn read_ready(&mut self, token: u64) {
        let now = Instant::now();
        let mut scratch = [0u8; READ_CHUNK];
        let verdict = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut failed = false;
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.peer_half_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = now;
                        if conn.request_started.is_none() {
                            conn.request_started = Some(now);
                        }
                        conn.inbuf.extend_from_slice(&scratch[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                Verdict::Close { idle: false }
            } else {
                dispatch(conn, &self.shared, token, now)
            }
        };
        self.apply(token, verdict);
    }

    /// Discard rejected-request bytes until EOF, the byte bound, or
    /// the drain deadline (checked by the sweep), then send the
    /// pending error response.
    fn drain_ready(&mut self, token: u64) {
        let now = Instant::now();
        let mut scratch = [0u8; READ_CHUNK];
        let verdict = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut outcome = None;
            loop {
                if conn.drained >= MAX_BODY {
                    outcome = Some(true);
                    break;
                }
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.peer_half_closed = true;
                        outcome = Some(true);
                        break;
                    }
                    Ok(n) => {
                        conn.drained += n;
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        outcome = Some(false);
                        break;
                    }
                }
            }
            match outcome {
                Some(true) => match conn.pending.take() {
                    Some(response) => Verdict::StartWrite {
                        response,
                        close: true,
                    },
                    None => Verdict::Close { idle: false },
                },
                Some(false) => Verdict::Close { idle: false },
                None => Verdict::Keep,
            }
        };
        self.apply(token, verdict);
    }

    fn write_ready(&mut self, token: u64) {
        let now = Instant::now();
        enum Wrote {
            Done,
            Blocked,
            Failed,
        }
        let wrote = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                if conn.outpos >= conn.outbuf.len() {
                    break Wrote::Done;
                }
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => break Wrote::Failed,
                    Ok(n) => {
                        conn.outpos += n;
                        conn.last_activity = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Wrote::Blocked,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break Wrote::Failed,
                }
            }
        };
        match wrote {
            Wrote::Failed => self.close_conn(token),
            Wrote::Blocked => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.set_interest(&self.epoll, token, EPOLLOUT);
                }
            }
            Wrote::Done => self.response_finished(token, now),
        }
    }

    /// A full response went out: close, or return to Reading and
    /// immediately try the next pipelined request.
    fn response_finished(&mut self, token: u64, now: Instant) {
        let verdict = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.close_after_write || self.shared.shutdown.load(Ordering::Acquire) {
                Verdict::Close { idle: false }
            } else {
                conn.outbuf.clear();
                conn.outpos = 0;
                conn.state = ConnState::Reading;
                conn.last_activity = now;
                conn.request_started = if conn.inbuf.is_empty() {
                    None
                } else {
                    Some(now)
                };
                conn.set_interest(&self.epoll, token, EPOLLIN | EPOLLRDHUP);
                // Pipelined bytes already in the buffer will not
                // re-trigger epoll (it watches the socket, not our
                // buffer): parse them now.
                dispatch(conn, &self.shared, token, now)
            }
        };
        self.apply(token, verdict);
    }

    /// Hand every finished response to its connection.
    fn deliver_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for completion in completions {
            let token = completion.token;
            let close = {
                // The connection may have died (error/hangup) while
                // the worker was busy; its response is simply dropped.
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                conn.requests_served += 1;
                !conn.req_keep_alive
                    || conn.requests_served >= self.shared.config.max_requests_per_conn
                    || self.shared.shutdown.load(Ordering::Acquire)
            };
            self.apply(
                token,
                Verdict::StartWrite {
                    response: completion.response,
                    close,
                },
            );
        }
    }

    /// Enforce the three clocks: whole-request read deadline (408),
    /// idle keep-alive timeout (silent close), drain deadline, and
    /// write-stall eviction.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let config = &self.shared.config;
        let mut actions: Vec<(u64, SweepAction)> = Vec::new();
        for (&token, conn) in &self.conns {
            match conn.state {
                ConnState::Reading => {
                    if let Some(started) = conn.request_started {
                        if now.saturating_duration_since(started) >= config.read_timeout {
                            actions.push((token, SweepAction::RequestTimeout));
                        }
                    } else if self.shutting_down
                        || now.saturating_duration_since(conn.last_activity)
                            >= config.keep_alive_timeout
                    {
                        actions.push((token, SweepAction::IdleClose));
                    }
                }
                ConnState::Writing => {
                    if now.saturating_duration_since(conn.last_activity) >= config.read_timeout {
                        actions.push((token, SweepAction::WriteStall));
                    }
                }
                ConnState::Draining => {
                    if conn.drain_deadline.is_some_and(|deadline| now >= deadline) {
                        actions.push((token, SweepAction::DrainExpired));
                    }
                }
                ConnState::Busy => {}
            }
        }
        for (token, action) in actions {
            match action {
                SweepAction::RequestTimeout => {
                    // Same response text as the blocking 408 path, and
                    // the same drain-before-write contract.
                    self.apply(
                        token,
                        Verdict::Reject(Response::text(
                            408,
                            "request timed out waiting for the client\n",
                        )),
                    );
                }
                SweepAction::IdleClose => {
                    self.shared.idle_closed.fetch_add(1, Ordering::Relaxed);
                    self.close_conn(token);
                }
                SweepAction::WriteStall => self.close_conn(token),
                SweepAction::DrainExpired => {
                    let verdict = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue;
                        };
                        match conn.pending.take() {
                            Some(response) => Verdict::StartWrite {
                                response,
                                close: true,
                            },
                            None => Verdict::Close { idle: false },
                        }
                    };
                    self.apply(token, verdict);
                }
            }
        }
    }

    fn apply(&mut self, token: u64, verdict: Verdict) {
        match verdict {
            Verdict::Keep => {}
            Verdict::NowBusy => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    let interest = if conn.peer_half_closed { 0 } else { EPOLLRDHUP };
                    conn.set_interest(&self.epoll, token, interest);
                }
            }
            Verdict::Close { idle } => {
                if idle {
                    self.shared.idle_closed.fetch_add(1, Ordering::Relaxed);
                }
                self.close_conn(token);
            }
            Verdict::StartWrite { response, close } => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.outbuf = response.serialize(close);
                    conn.outpos = 0;
                    conn.close_after_write = close;
                    conn.state = ConnState::Writing;
                    conn.pending = None;
                    conn.drain_deadline = None;
                    conn.request_started = None;
                    // Try inline first; most responses fit the socket
                    // buffer and never need an EPOLLOUT round-trip.
                    self.write_ready(token);
                }
            }
            Verdict::Reject(response) => {
                let immediate = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    if conn.peer_half_closed {
                        // Nothing more will arrive: no bytes to drain.
                        true
                    } else {
                        conn.state = ConnState::Draining;
                        conn.pending = Some(response.clone());
                        conn.drain_deadline =
                            Some(Instant::now() + self.shared.config.drain_timeout);
                        conn.drained = 0;
                        conn.request_started = None;
                        conn.set_interest(&self.epoll, token, EPOLLIN | EPOLLRDHUP);
                        false
                    }
                };
                if immediate {
                    self.apply(
                        token,
                        Verdict::StartWrite {
                            response,
                            close: true,
                        },
                    );
                } else {
                    // Whatever was already buffered counts as drained.
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.drained = conn.inbuf.len();
                        conn.inbuf.clear();
                    }
                }
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.publish_open_count();
        }
    }

    fn publish_open_count(&self) {
        self.shared
            .connections_open
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }
}

enum SweepAction {
    RequestTimeout,
    IdleClose,
    WriteStall,
    DrainExpired,
}

/// Try to advance a Reading connection: parse, then admit or reject.
/// Mirrors the blocking `handle_connection` decision table exactly —
/// `InvalidData` → 400, `InvalidInput` → 413, `Unsupported` → 411, full
/// queue → the shared 503, EOF before a full request → silent close.
fn dispatch(conn: &mut Conn, shared: &Arc<Shared>, token: u64, now: Instant) -> Verdict {
    debug_assert_eq!(conn.state, ConnState::Reading);
    match Request::try_parse(&conn.inbuf) {
        Ok(Some((request, consumed))) => {
            conn.inbuf.drain(..consumed);
            conn.request_started = if conn.inbuf.is_empty() {
                None
            } else {
                Some(now)
            };
            conn.req_keep_alive = request.keep_alive;
            if shared.enqueue_job(token, request) {
                conn.state = ConnState::Busy;
                Verdict::NowBusy
            } else {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                Verdict::StartWrite {
                    response: shed_response(),
                    close: true,
                }
            }
        }
        Ok(None) => {
            if conn.peer_half_closed {
                // EOF before a complete request: the blocking
                // front-end's "client vanished" silent close.
                Verdict::Close { idle: false }
            } else {
                Verdict::Keep
            }
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            Verdict::Reject(Response::text(413, format!("payload too large: {e}\n")))
        }
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            Verdict::Reject(Response::text(411, format!("length required: {e}\n")))
        }
        Err(e) => Verdict::Reject(Response::text(400, format!("bad request: {e}\n"))),
    }
}
