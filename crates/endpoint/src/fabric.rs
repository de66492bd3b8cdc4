//! The multi-process shard fabric: a scatter-gather coordinator over N
//! real `elinda-serve` shard processes speaking HTTP over real TCP.
//!
//! [`crate::parallel`] already decomposes the property chart into
//! *kernel partial per shard* + *keyed-sum merge* + *canonical finisher*,
//! and [`crate::remote`] already speaks the SPARQL-JSON wire — this
//! module promotes both to process granularity:
//!
//! * a **shard process** ([`ShardEvaluator`]) loads the full dataset
//!   deterministically, partitions it with the same subject hash as the
//!   in-process [`ShardedTripleStore`] (so every partitioning invariant
//!   carries over verbatim), and serves partial aggregates for its own
//!   partition over `POST /shard/eval`;
//! * a **coordinator process** ([`FabricCoordinator`]) recognizes chart
//!   queries, scatters them to every shard over pooled keep-alive TCP
//!   connections ([`ShardClient`]), gathers the partials, and reuses the
//!   existing [`merge_outgoing_partials`] / [`merge_incoming_partials`]
//!   keyed sums plus the [`property_agg_solutions`] canonical finisher —
//!   so the merged result is **byte-identical** to single-process
//!   serving (the cross-process differential suite in
//!   `crates/server/tests/shard_fabric.rs` asserts exactly this).
//!
//! **Wire subtlety.** Partials travel keyed by term *text* (IRIs), never
//! by `TermId`: term ids are per-process interner artifacts, and two
//! processes that interned the same data in different orders would
//! disagree on them. The coordinator resolves each IRI against its own
//! interner before merging; a term the coordinator has never interned
//! means the shard is serving a different dataset, which is reported as
//! a transient fault (and degrades) rather than silently miscounted.
//! Each partial also carries the shard's identity and dataset size, and
//! the coordinator cross-checks both against the static shard map.
//!
//! **Failure semantics.** Each shard connection owns its own
//! [`CircuitBreaker`] and clamps socket timeouts to the request
//! [`Deadline`]. Any shard failure fails the whole scatter — partial
//! coverage is never served as if it were complete — and the error is
//! typed so the [`crate::resilience::ResilientEndpoint`] ladder above
//! can take its "partial coverage → stale / local fallback" rung.
//! Deterministic chaos testing reuses [`FaultInjector`]: an injector
//! attached to the coordinator applies its fault profile to the *real*
//! shard connections (refused sends, stalls, corrupted bodies).

use crate::decomposer::{
    class_members, recognize_property_expansion, ExpansionDirection, PropertyExpansionQuery,
};
use crate::engine::{QueryContext, QueryEngine, QueryOutcome, ServeError, ServedBy};
use crate::fault::{FaultInjector, FaultKind};
use crate::json::{escape_json, parse_json, Json};
use crate::parallel::{
    merge_incoming_partials, merge_outgoing_partials, property_agg_solutions,
    property_partial_incoming, property_partial_outgoing,
};
use crate::resilience::{Admission, BreakerConfig, CircuitBreaker, Deadline};
use elinda_rdf::fx::FxHashMap;
use elinda_rdf::{Term, TermId};
use elinda_sparql::parse_query;
use elinda_store::{ClassHierarchy, ShardedTripleStore, TripleStore};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Shard side: partial-aggregate evaluation for one subject-hash partition
// ---------------------------------------------------------------------------

/// Shard-side evaluator behind `POST /shard/eval`: answers recognized
/// chart queries with a partial aggregate over this process's partition.
///
/// The process loads the *full* dataset through the ordinary bootstrap
/// (deterministic datagen, `--load`, or `--store-dir`) and partitions it
/// in memory with [`ShardedTripleStore::build`] — reusing the exact
/// subject hash the in-process reference evaluator
/// ([`crate::parallel::execute_decomposed_sharded`]) shards by. Evaluating
/// over `shard(shard_id)` only is therefore one slot of that reference's
/// fan-out, and the global instance set needed by
/// incoming expansions (whose edges cross partitions) is derived locally
/// from the full class hierarchy instead of being shipped over the wire.
pub struct ShardEvaluator {
    store: Arc<TripleStore>,
    sharded: ShardedTripleStore,
    hierarchy: ClassHierarchy,
    shard_id: usize,
    num_shards: usize,
    partials: AtomicU64,
    rejects: AtomicU64,
}

impl ShardEvaluator {
    /// Build the evaluator for partition `shard_id` of `num_shards`.
    pub fn new(
        store: Arc<TripleStore>,
        shard_id: usize,
        num_shards: usize,
    ) -> Result<ShardEvaluator, String> {
        if num_shards == 0 {
            return Err("the shard map must name at least one shard".into());
        }
        if shard_id >= num_shards {
            return Err(format!(
                "shard id {shard_id} is out of range for a map of {num_shards} shards"
            ));
        }
        let sharded = ShardedTripleStore::build(&store, num_shards);
        let hierarchy = ClassHierarchy::build(&store);
        Ok(ShardEvaluator {
            store,
            sharded,
            hierarchy,
            shard_id,
            num_shards,
            partials: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        })
    }

    /// This process's partition index.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Total shards in the static map.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Triples in this process's partition.
    pub fn partition_len(&self) -> usize {
        self.sharded.shard(self.shard_id).len()
    }

    /// Partial aggregates served so far.
    pub fn partials_served(&self) -> u64 {
        self.partials.load(Ordering::Relaxed)
    }

    /// Requests rejected as not-a-recognized-chart-query.
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }

    /// Evaluate a recognized chart query into a partial-aggregate JSON
    /// body; anything unrecognized is [`ServeError::Malformed`] — the
    /// internal route carries decomposed chart queries only.
    pub fn eval(&self, query: &str) -> Result<String, ServeError> {
        let parsed = parse_query(query).map_err(|e| {
            self.rejects.fetch_add(1, Ordering::Relaxed);
            ServeError::Malformed(format!("shard/eval takes chart queries only: {e}"))
        })?;
        let Some(rec) = recognize_property_expansion(&parsed) else {
            self.rejects.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Malformed(
                "shard/eval takes recognized property-expansion chart queries only".into(),
            ));
        };
        let instances = class_members(&self.store, &self.hierarchy, &rec);
        let shard = self.sharded.shard(self.shard_id);
        let body = match rec.direction {
            ExpansionDirection::Outgoing => {
                let partial =
                    property_partial_outgoing(shard, self.shard_id, self.num_shards, &instances);
                let mut rows = partial
                    .into_iter()
                    .map(|(p, (count, sum))| Ok((self.iri_text(p)?, count, sum)))
                    .collect::<Result<Vec<(String, i64, i64)>, ServeError>>()?;
                rows.sort();
                self.envelope("outgoing", &rows, |out, (iri, count, sum)| {
                    out.push_str("[\"");
                    escape_json(out, iri);
                    out.push_str(&format!("\",{count},{sum}]"));
                })
            }
            ExpansionDirection::Incoming => {
                let partial = property_partial_incoming(shard, &instances);
                let mut rows = partial
                    .into_iter()
                    .map(|((o, p), count)| Ok((self.iri_text(o)?, self.iri_text(p)?, count)))
                    .collect::<Result<Vec<(String, String, i64)>, ServeError>>()?;
                rows.sort();
                self.envelope("incoming", &rows, |out, (obj, prop, count)| {
                    out.push_str("[\"");
                    escape_json(out, obj);
                    out.push_str("\",\"");
                    escape_json(out, prop);
                    out.push_str(&format!("\",{count}]"));
                })
            }
        };
        self.partials.fetch_add(1, Ordering::Relaxed);
        Ok(body)
    }

    /// The partial-aggregate envelope: shard identity and dataset size
    /// up front (the coordinator cross-checks both), then the rows,
    /// pre-sorted by key text so bodies are deterministic.
    fn envelope<R>(
        &self,
        direction: &str,
        rows: &[R],
        encode_row: impl Fn(&mut String, &R),
    ) -> String {
        let mut out = String::with_capacity(64 + rows.len() * 48);
        out.push_str(&format!(
            "{{\"fabric\":1,\"shard\":{},\"of\":{},\"triples\":{},\"direction\":\"{direction}\",\"rows\":[",
            self.shard_id,
            self.num_shards,
            self.store.len(),
        ));
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_row(&mut out, row);
        }
        out.push_str("]}");
        out
    }

    /// Aggregation keys must be IRIs to survive the text-keyed wire; a
    /// non-IRI key would break a chart-shape invariant.
    fn iri_text(&self, id: TermId) -> Result<String, ServeError> {
        self.store
            .resolve(id)
            .as_iri()
            .map(str::to_string)
            .ok_or_else(|| {
                ServeError::Transient("non-IRI aggregation key in a shard partial".into())
            })
    }
}

// ---------------------------------------------------------------------------
// Wire partials (text-keyed; decoded coordinator-side)
// ---------------------------------------------------------------------------

/// One shard's gathered partial, still keyed by term text.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPartial {
    /// `property IRI → (entity count, triple count)` rows.
    Outgoing(Vec<(String, i64, i64)>),
    /// `(object IRI, property IRI) → triple count` rows — still pair-
    /// keyed, because incoming edges of one object span shards and may
    /// only collapse to per-property entity counts *after* the merge.
    Incoming(Vec<(String, String, i64)>),
}

/// Decode and validate a partial-aggregate body claimed to come from
/// shard `expect_shard` of `expect_of`, also returning the shard's
/// reported dataset size for the coordinator's cross-check.
///
/// This is deliberately *not* the generic
/// [`crate::json::decode_solutions`]: that decoder degrades terms the
/// local store never interned into plain strings, which would silently
/// break canonical ordering. Unknown or malformed structure here is a
/// typed transient error, never a wrong answer.
pub(crate) fn decode_partial(
    body: &str,
    expect_shard: usize,
    expect_of: usize,
) -> Result<(ShardPartial, u64), ServeError> {
    let bad = |msg: &str| ServeError::Transient(format!("malformed shard partial: {msg}"));
    let json = parse_json(body).map_err(|e| bad(&e.to_string()))?;
    let num = |j: &Json, what: &str| -> Result<i64, ServeError> {
        match j {
            Json::Number(n) if n.fract() == 0.0 => Ok(*n as i64),
            _ => Err(bad(&format!("non-integer {what}"))),
        }
    };
    match json.get("fabric") {
        Some(Json::Number(n)) if *n == 1.0 => {}
        _ => return Err(bad("missing fabric tag")),
    }
    let shard = num(
        json.get("shard").ok_or_else(|| bad("missing shard"))?,
        "shard",
    )?;
    let of = num(json.get("of").ok_or_else(|| bad("missing of"))?, "of")?;
    if shard != expect_shard as i64 || of != expect_of as i64 {
        return Err(ServeError::Transient(format!(
            "shard map mismatch: got shard {shard} of {of}, expected {expect_shard} of {expect_of}"
        )));
    }
    let triples = num(
        json.get("triples").ok_or_else(|| bad("missing triples"))?,
        "triples",
    )?;
    let direction = json
        .get("direction")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing direction"))?
        .to_string();
    let rows = json
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing rows"))?;
    let text = |j: &Json| -> Result<String, ServeError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| bad("non-string key"))
    };
    let partial = match direction.as_str() {
        "outgoing" => ShardPartial::Outgoing(
            rows.iter()
                .map(|row| {
                    let row = row.as_array().ok_or_else(|| bad("non-array row"))?;
                    let [iri, count, sum] = row else {
                        return Err(bad("outgoing row arity"));
                    };
                    Ok((text(iri)?, num(count, "count")?, num(sum, "sum")?))
                })
                .collect::<Result<_, _>>()?,
        ),
        "incoming" => ShardPartial::Incoming(
            rows.iter()
                .map(|row| {
                    let row = row.as_array().ok_or_else(|| bad("non-array row"))?;
                    let [obj, prop, count] = row else {
                        return Err(bad("incoming row arity"));
                    };
                    Ok((text(obj)?, text(prop)?, num(count, "count")?))
                })
                .collect::<Result<_, _>>()?,
        ),
        other => return Err(bad(&format!("unknown direction `{other}`"))),
    };
    Ok((partial, triples as u64))
}

// ---------------------------------------------------------------------------
// Coordinator side: pooled keep-alive shard connections
// ---------------------------------------------------------------------------

/// Fabric tuning: the static shard map plus per-connection policies.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Shard base addresses (`host:port`), in shard-id order — entry
    /// `i` must be the process serving partition `i` of `shards.len()`.
    pub shards: Vec<String>,
    /// TCP connect budget per dial (clamped to the request deadline).
    pub connect_timeout: Duration,
    /// Socket read/write budget per shard request when the request
    /// deadline is unbounded; a bounded deadline clamps below this.
    pub request_timeout: Duration,
    /// Per-shard circuit-breaker tuning (each shard connection gets its
    /// own breaker, so one dead shard cannot open the others').
    pub breaker: BreakerConfig,
}

impl FabricConfig {
    /// A config for the given shard map with default timeouts.
    pub fn new(shards: Vec<String>) -> FabricConfig {
        FabricConfig {
            shards,
            connect_timeout: Duration::from_millis(1000),
            request_timeout: Duration::from_secs(5),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Per-shard wire counters (monotonic, exported as
/// `elinda_fabric_shard_*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardClientStats {
    /// Partial-aggregate requests attempted against this shard.
    pub requests: u64,
    /// Requests that ended in a typed failure.
    pub failures: u64,
    /// Stale pooled connections replaced by a fresh dial mid-request.
    pub reconnects: u64,
    /// Requests rejected locally by the shard's open breaker.
    pub breaker_rejected: u64,
}

/// How many idle keep-alive connections each shard client retains.
const POOL_CAP: usize = 8;

/// A pooled keep-alive HTTP client for one shard process, with its own
/// circuit breaker, deadline-clamped socket timeouts, and (for chaos
/// tests) an optional [`FaultInjector`] applied to the real connection.
pub struct ShardClient {
    addr: String,
    index: usize,
    fleet: usize,
    expect_triples: u64,
    connect_timeout: Duration,
    request_timeout: Duration,
    breaker: CircuitBreaker,
    pool: Mutex<Vec<TcpStream>>,
    fault: Option<Arc<FaultInjector>>,
    requests: AtomicU64,
    failures: AtomicU64,
    reconnects: AtomicU64,
    breaker_rejected: AtomicU64,
}

impl ShardClient {
    /// A client for shard `index` of `fleet` at `addr`, expecting the
    /// shard to hold a dataset of `expect_triples` triples.
    pub fn new(
        addr: String,
        index: usize,
        fleet: usize,
        expect_triples: u64,
        config: &FabricConfig,
    ) -> ShardClient {
        ShardClient {
            addr,
            index,
            fleet,
            expect_triples,
            connect_timeout: config.connect_timeout,
            request_timeout: config.request_timeout,
            breaker: CircuitBreaker::new(config.breaker),
            pool: Mutex::new(Vec::new()),
            fault: None,
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
        }
    }

    /// The shard's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// This connection's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Snapshot of the wire counters.
    pub fn stats(&self) -> ShardClientStats {
        ShardClientStats {
            requests: self.requests.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
        }
    }

    /// Attach a deterministic fault injector: its profile is applied to
    /// this client's *real* TCP exchanges (refused before the send,
    /// stalled into a timeout, body corrupted after the receive).
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.fault = Some(injector);
    }

    /// Fetch this shard's partial for `query` under `deadline`.
    pub fn eval(&self, query: &str, deadline: Deadline) -> Result<ShardPartial, ServeError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match self.breaker.admit() {
            Admission::Rejected => {
                self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Unavailable(format!(
                    "shard {} breaker open",
                    self.addr
                )));
            }
            Admission::Allowed | Admission::Probe => {}
        }
        match self.try_eval(query, deadline) {
            Ok(partial) => {
                self.breaker.on_success();
                Ok(partial)
            }
            Err(e) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                // The breaker tracks shard health: wire faults, shard-
                // side overload, and timeouts count; a Malformed answer
                // means the coordinator's own query shape was at fault.
                if !matches!(e, ServeError::Malformed(_) | ServeError::Query(_)) {
                    self.breaker.on_failure();
                }
                Err(e)
            }
        }
    }

    fn try_eval(&self, query: &str, deadline: Deadline) -> Result<ShardPartial, ServeError> {
        // Deterministic chaos: apply the injector's scheduled fault to
        // this real exchange, mirroring the simulated-wire semantics of
        // the remote client fault for fault.
        let mut corrupt_body = false;
        if let Some(injector) = self.fault.as_ref() {
            match injector.next_fault() {
                Some(FaultKind::ConnectionError) => {
                    return Err(ServeError::Transient(format!(
                        "shard {}: injected connection error",
                        self.addr
                    )));
                }
                Some(FaultKind::Timeout) => {
                    std::thread::sleep(deadline.clamp(injector.plan().stall));
                    return Err(if deadline.is_expired() {
                        ServeError::DeadlineExceeded
                    } else {
                        ServeError::Transient(format!("shard {}: injected timeout", self.addr))
                    });
                }
                Some(FaultKind::LatencySpike) => {
                    std::thread::sleep(deadline.clamp(injector.plan().spike_latency));
                }
                Some(FaultKind::MalformedJson) => corrupt_body = true,
                None => {}
            }
        }
        deadline.check()?;
        let request = request_bytes(query);
        let (status, mut body) = self.exchange(&request, deadline)?;
        if corrupt_body {
            body.truncate(body.len() / 2);
        }
        match status {
            200 => {
                let (partial, triples) = decode_partial(&body, self.index, self.fleet)?;
                if triples != self.expect_triples {
                    return Err(ServeError::Transient(format!(
                        "dataset mismatch: shard {} holds {triples} triples, coordinator holds {}",
                        self.addr, self.expect_triples
                    )));
                }
                Ok(partial)
            }
            400 => Err(ServeError::Malformed(format!(
                "shard {} rejected the partial query: {}",
                self.addr,
                body.trim()
            ))),
            503 => Err(ServeError::Unavailable(format!(
                "shard {} unavailable: {}",
                self.addr,
                body.trim()
            ))),
            504 => Err(ServeError::DeadlineExceeded),
            other => Err(ServeError::Transient(format!(
                "shard {} answered HTTP {other}",
                self.addr
            ))),
        }
    }

    /// One keep-alive HTTP exchange: reuse a pooled connection when one
    /// exists, falling back to a single fresh dial when the pooled
    /// socket turns out to be stale (closed by the shard between
    /// requests); a fresh connection's failure is final.
    fn exchange(&self, request: &[u8], deadline: Deadline) -> Result<(u16, String), ServeError> {
        let pooled = self.pool.lock().pop();
        let reused = pooled.is_some();
        let stream = match pooled {
            Some(stream) => stream,
            None => self.connect(deadline)?,
        };
        match self.roundtrip(stream, request, deadline) {
            Ok(ok) => Ok(ok),
            Err(_) if reused => {
                // The pooled socket was stale; one fresh dial decides.
                self.reconnects.fetch_add(1, Ordering::Relaxed);
                deadline.check()?;
                let fresh = self.connect(deadline)?;
                self.roundtrip(fresh, request, deadline)
            }
            Err(e) => Err(e),
        }
    }

    fn connect(&self, deadline: Deadline) -> Result<TcpStream, ServeError> {
        let budget = deadline.clamp(self.connect_timeout);
        if budget.is_zero() {
            return Err(ServeError::DeadlineExceeded);
        }
        let addr = self
            .addr
            .parse()
            .map_err(|e| ServeError::Transient(format!("shard {}: bad address: {e}", self.addr)))?;
        TcpStream::connect_timeout(&addr, budget).map_err(|e| self.wire_error(&e, deadline))
    }

    /// Write the request and read one `Content-Length`-framed response
    /// off `stream`; a kept-alive connection goes back to the pool.
    fn roundtrip(
        &self,
        mut stream: TcpStream,
        request: &[u8],
        deadline: Deadline,
    ) -> Result<(u16, String), ServeError> {
        let budget = deadline.clamp(self.request_timeout);
        if budget.is_zero() {
            return Err(ServeError::DeadlineExceeded);
        }
        let io = (|| {
            stream.set_write_timeout(Some(budget))?;
            stream.set_read_timeout(Some(budget))?;
            stream.write_all(request)?;
            read_response(&mut stream)
        })();
        match io {
            Ok((status, body, keep_alive)) => {
                if keep_alive {
                    let mut pool = self.pool.lock();
                    if pool.len() < POOL_CAP {
                        pool.push(stream);
                    }
                }
                Ok((status, body))
            }
            Err(e) => Err(self.wire_error(&e, deadline)),
        }
    }

    /// Classify an I/O failure: an expired deadline owns every error
    /// raced against it; everything else is transient wire trouble.
    fn wire_error(&self, e: &std::io::Error, deadline: Deadline) -> ServeError {
        if deadline.is_expired() {
            ServeError::DeadlineExceeded
        } else {
            ServeError::Transient(format!("shard {}: {e}", self.addr))
        }
    }
}

/// The `POST /shard/eval` request bytes for `query`.
fn request_bytes(query: &str) -> Vec<u8> {
    format!(
        "POST /shard/eval HTTP/1.1\r\nHost: fabric\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{query}",
        query.len()
    )
    .into_bytes()
}

/// Read one HTTP/1.1 response: status, `Content-Length`-framed body,
/// and whether the server will keep the connection alive.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String, bool)> {
    use std::io::{Error, ErrorKind};
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut scratch = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "response headers too large",
            ));
        }
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&scratch[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let len = content_length
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "response without Content-Length"))?;
    let body_start = header_end + 4;
    let mut body = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < len {
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&scratch[..n]);
    }
    body.truncate(len);
    Ok((
        status,
        String::from_utf8_lossy(&body).into_owned(),
        keep_alive,
    ))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

// ---------------------------------------------------------------------------
// The coordinator engine
// ---------------------------------------------------------------------------

/// Coordinator-level counters, exported as `elinda_fabric_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Chart queries scattered across the fleet.
    pub scattered: u64,
    /// Scatters whose every partial gathered and merged cleanly.
    pub gathered: u64,
    /// Scatters that failed (at least one shard) and were handed to the
    /// degradation ladder above.
    pub gather_failures: u64,
    /// Queries delegated to the local engine (not chart-shaped).
    pub local: u64,
}

/// The scatter-gather coordinator: a [`QueryEngine`] that answers
/// recognized chart queries by fanning them across the shard fleet and
/// merging the text-keyed partials with the same keyed sums and
/// canonical finisher the in-process parallel evaluator uses —
/// byte-identical results — while delegating everything else to a local
/// engine over the same dataset (so every other router tier keeps its
/// exact bytes too).
pub struct FabricCoordinator {
    store: Arc<TripleStore>,
    clients: Vec<ShardClient>,
    local: Box<dyn QueryEngine>,
    scattered: AtomicU64,
    gathered: AtomicU64,
    gather_failures: AtomicU64,
    local_queries: AtomicU64,
}

impl FabricCoordinator {
    /// Build the coordinator over its full local copy of the dataset
    /// (used for term resolution, the canonical finisher, and the
    /// non-chart delegate).
    pub fn new(
        store: Arc<TripleStore>,
        config: FabricConfig,
        local: Box<dyn QueryEngine>,
    ) -> FabricCoordinator {
        let fleet = config.shards.len();
        let triples = store.len() as u64;
        let clients = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, addr)| ShardClient::new(addr.clone(), i, fleet, triples, &config))
            .collect();
        FabricCoordinator {
            store,
            clients,
            local,
            scattered: AtomicU64::new(0),
            gathered: AtomicU64::new(0),
            gather_failures: AtomicU64::new(0),
            local_queries: AtomicU64::new(0),
        }
    }

    /// Attach one deterministic fault injector shared by every shard
    /// client (the schedule then orders faults across the whole fleet).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> FabricCoordinator {
        for client in &mut self.clients {
            client.set_fault_injector(Arc::clone(&injector));
        }
        self
    }

    /// The per-shard clients, in shard-id order.
    pub fn clients(&self) -> &[ShardClient] {
        &self.clients
    }

    /// Fleet size.
    pub fn num_shards(&self) -> usize {
        self.clients.len()
    }

    /// Snapshot of the coordinator counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            scattered: self.scattered.load(Ordering::Relaxed),
            gathered: self.gathered.load(Ordering::Relaxed),
            gather_failures: self.gather_failures.load(Ordering::Relaxed),
            local: self.local_queries.load(Ordering::Relaxed),
        }
    }

    /// Scatter a recognized chart query to every shard, gather the
    /// text-keyed partials, resolve them against the local interner, and
    /// finish with the shared keyed-sum merge + canonical sort.
    fn scatter(
        &self,
        query: &str,
        rec: &PropertyExpansionQuery,
        ctx: &QueryContext,
    ) -> Result<QueryOutcome, ServeError> {
        let start = Instant::now();
        self.scattered.fetch_add(1, Ordering::Relaxed);
        let deadline = ctx.deadline;
        let mut span = ctx.trace.span("scatter");
        let results: Vec<Result<ShardPartial, ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .map(|client| scope.spawn(move || client.eval(query, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ServeError::Transient("shard gather thread panicked".into()))
                    })
                })
                .collect()
        });
        if ctx.trace.is_enabled() {
            let failed = results.iter().filter(|r| r.is_err()).count();
            span.tag("shards", self.clients.len().to_string());
            span.tag(
                "outcome",
                if failed == 0 {
                    "ok".to_string()
                } else {
                    format!("{failed}_failed")
                },
            );
        }
        drop(span);
        let mut partials = Vec::with_capacity(results.len());
        let mut worst: Option<ServeError> = None;
        let rank = |e: &ServeError| match e {
            ServeError::DeadlineExceeded => 3,
            ServeError::Unavailable(_) => 2,
            _ => 1,
        };
        for result in results {
            match result {
                Ok(partial) => partials.push(partial),
                Err(e) => {
                    let replace = match &worst {
                        None => true,
                        Some(w) => rank(&e) > rank(w),
                    };
                    if replace {
                        worst = Some(e);
                    }
                }
            }
        }
        if let Some(e) = worst {
            // Partial coverage is never served as complete: the typed
            // error climbs to the resilience ladder, which serves a
            // stale or local-fallback answer instead.
            self.gather_failures.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let solutions = self.merge(partials, rec)?;
        self.gathered.fetch_add(1, Ordering::Relaxed);
        Ok(QueryOutcome {
            solutions,
            elapsed: start.elapsed(),
            served_by: ServedBy::Fabric,
            shards_used: self.clients.len(),
            data_epoch: self.local.data_epoch(),
        })
    }

    /// Resolve text keys against the local interner and run the shared
    /// merge + finisher. A key this process never interned means the
    /// shard served a different dataset — a transient fault, never a
    /// silent miscount.
    pub(crate) fn merge(
        &self,
        partials: Vec<ShardPartial>,
        rec: &PropertyExpansionQuery,
    ) -> Result<elinda_sparql::Solutions, ServeError> {
        let resolve = |iri: &str| -> Result<TermId, ServeError> {
            self.store.interner().get(&Term::iri(iri)).ok_or_else(|| {
                ServeError::Transient(format!(
                    "shard partial names a term unknown to the coordinator: <{iri}>"
                ))
            })
        };
        let merged = match rec.direction {
            ExpansionDirection::Outgoing => {
                let maps = partials
                    .into_iter()
                    .map(|partial| {
                        let ShardPartial::Outgoing(rows) = partial else {
                            return Err(ServeError::Transient(
                                "shard answered the wrong expansion direction".into(),
                            ));
                        };
                        let mut map: FxHashMap<TermId, (i64, i64)> = FxHashMap::default();
                        for (iri, count, sum) in rows {
                            map.insert(resolve(&iri)?, (count, sum));
                        }
                        Ok(map)
                    })
                    .collect::<Result<Vec<_>, ServeError>>()?;
                merge_outgoing_partials(maps)
            }
            ExpansionDirection::Incoming => {
                let maps = partials
                    .into_iter()
                    .map(|partial| {
                        let ShardPartial::Incoming(rows) = partial else {
                            return Err(ServeError::Transient(
                                "shard answered the wrong expansion direction".into(),
                            ));
                        };
                        let mut map: FxHashMap<(TermId, TermId), i64> = FxHashMap::default();
                        for (obj, prop, count) in rows {
                            map.insert((resolve(&obj)?, resolve(&prop)?), count);
                        }
                        Ok(map)
                    })
                    .collect::<Result<Vec<_>, ServeError>>()?;
                merge_incoming_partials(maps)
            }
        };
        Ok(property_agg_solutions(merged, &rec.columns, &self.store))
    }
}

impl QueryEngine for FabricCoordinator {
    fn execute(&self, query: &str) -> Result<QueryOutcome, ServeError> {
        self.execute_with(query, &QueryContext::default())
    }

    fn execute_with(&self, query: &str, ctx: &QueryContext) -> Result<QueryOutcome, ServeError> {
        if let Ok(parsed) = parse_query(query) {
            if let Some(rec) = recognize_property_expansion(&parsed) {
                return self.scatter(query, &rec, ctx);
            }
        }
        // Not chart-shaped (or unparsable — the local engine owns the
        // error): serve locally so every other tier keeps its bytes.
        self.local_queries.fetch_add(1, Ordering::Relaxed);
        self.local.execute_with(query, ctx)
    }

    fn data_epoch(&self) -> u64 {
        self.local.data_epoch()
    }
}
