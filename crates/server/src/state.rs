//! Shared serving state: one [`TripleStore`] and one metered, fault-
//! tolerant eLinda endpoint, owned behind `Arc`s and queried
//! concurrently by every worker thread.
//!
//! The serving stack is `MeteredEndpoint<ResilientEndpoint>`: the
//! resilient wrapper supplies per-request deadlines, retry/backoff, the
//! circuit breaker, and the degradation ladder; the metering wrapper
//! sits outside it so degraded serves are measured per component like
//! every other path.

use elinda_endpoint::json::encode_solutions;
use elinda_endpoint::resilience::Deadline;
use elinda_endpoint::{
    decode_update, encode_update, ApplyOutcome, BreakerState, CompactionReport, ElindaEndpoint,
    EndpointConfig, ExplainReport, FabricConfig, FabricCoordinator, LatencySummary,
    MeteredEndpoint, NoveltyConfig, NoveltyStats, NoveltyStore, QueryContext, QueryEngine,
    ResilienceConfig, ResilienceStats, ResilientEndpoint, ServeError, ServedBy, ShardEvaluator,
    StageStats, TraceCtx, TraceRing,
};
use elinda_sparql::parse_update;
use elinda_store::{StoreBackend, TripleStore, Wal, WalError, WalRecovery};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many sampled traces the in-memory ring retains for
/// `GET /debug/trace/<id>`.
pub const TRACE_RING_CAPACITY: usize = 64;

/// The serving components, in /metrics and report order.
pub const COMPONENTS: [ServedBy; 9] = [
    ServedBy::Direct,
    ServedBy::Hvs,
    ServedBy::Decomposer,
    ServedBy::Remote,
    ServedBy::CacheHit,
    ServedBy::Incremental,
    ServedBy::Fabric,
    ServedBy::DegradedStale,
    ServedBy::DegradedLocal,
];

/// Stable lowercase name for a serving component, used in the
/// `X-Elinda-Served-By` response header and `/metrics` labels.
pub fn served_by_name(component: ServedBy) -> &'static str {
    match component {
        ServedBy::Direct => "direct",
        ServedBy::Hvs => "hvs",
        ServedBy::Decomposer => "decomposer",
        ServedBy::Remote => "remote",
        ServedBy::CacheHit => "cache-hit",
        ServedBy::Incremental => "incremental",
        ServedBy::Fabric => "fabric",
        ServedBy::DegradedStale => "degraded-stale",
        ServedBy::DegradedLocal => "degraded-local",
    }
}

/// Everything a worker needs to answer a request.
///
/// The store is held in an `Arc` shared with the endpoint (which owns
/// its own clone), so the whole state is a cheap-to-share, `Send + Sync`
/// value: workers execute queries through `&self` and the endpoint's
/// interior mutability (HVS cache, breaker, metrics) handles concurrent
/// updates.
pub struct ServerState {
    store: Arc<TripleStore>,
    /// The router, kept aside for the parallel-execution gauges; `None`
    /// when the state was built over a custom engine
    /// ([`ServerState::with_engine`]).
    router: Option<Arc<ElindaEndpoint<Arc<TripleStore>>>>,
    /// The write path: the novelty overlay `POST /update` applies into
    /// and the background compactor folds down. `None` when the state
    /// was built over a custom engine — the local store is then only a
    /// read fallback and accepting writes against it would silently
    /// diverge from the primary.
    novelty: Option<Arc<NoveltyStore>>,
    /// Where compacted bases go for durability. `None` means memory-only
    /// serving (the pre-persistence behaviour, bit for bit).
    backend: Option<Arc<dyn StoreBackend>>,
    /// The durable write-ahead log. When attached, `POST /update` acks
    /// only after the record is appended (and fsynced per the sync
    /// policy), and compaction seals + discards log segments once the
    /// folded base is durably persisted.
    wal: Option<Arc<Wal>>,
    /// What WAL recovery replayed at startup, frozen for `/metrics`.
    wal_replay: WalReplayReport,
    endpoint: MeteredEndpoint<ResilientEndpoint>,
    /// The scatter-gather coordinator, kept aside for the
    /// `elinda_fabric_*` metrics. `Some` only in coordinator role.
    fabric: Option<Arc<FabricCoordinator>>,
    /// The shard-side partial-aggregate evaluator behind
    /// `POST /shard/eval`. `Some` only in shard role.
    shard_eval: Option<Arc<ShardEvaluator>>,
    traces: TraceRing,
    stage_stats: StageStats,
    persist_stats: PersistStats,
}

/// What replaying the WAL tail did at startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplayReport {
    /// Log records decoded and re-applied into the novelty overlay.
    pub replayed_records: u64,
    /// Ground triples those records carried (including no-ops).
    pub replayed_triples: u64,
    /// Bytes truncated from the log tail as torn or corrupt.
    pub truncated_bytes: u64,
    /// Whether a torn tail was detected (and truncated) during the scan.
    pub torn: bool,
}

/// Persistence counters for `/metrics`.
#[derive(Default)]
struct PersistStats {
    /// Generations committed by post-compaction persists.
    persisted: AtomicU64,
    /// Persist attempts that failed (the in-memory fold still stands;
    /// the previous on-disk generation keeps serving restarts).
    failures: AtomicU64,
    /// The latest committed generation number (0 before any persist).
    generation: AtomicU64,
}

impl ServerState {
    /// Build serving state over a store with the given endpoint
    /// configuration and default (pass-through) resilience policies.
    pub fn new(store: Arc<TripleStore>, config: EndpointConfig) -> ServerState {
        ServerState::with_resilience(store, config, ResilienceConfig::default())
    }

    /// Build serving state with explicit resilience policies (deadline
    /// default, retry, breaker) and the default novelty-overlay
    /// threshold.
    pub fn with_resilience(
        store: Arc<TripleStore>,
        config: EndpointConfig,
        resilience: ResilienceConfig,
    ) -> ServerState {
        ServerState::with_write_config(store, config, resilience, NoveltyConfig::default())
    }

    /// [`ServerState::with_resilience`] with an explicit write-path
    /// configuration (the novelty size threshold that signals the
    /// background compactor).
    pub fn with_write_config(
        store: Arc<TripleStore>,
        config: EndpointConfig,
        resilience: ResilienceConfig,
        novelty_config: NoveltyConfig,
    ) -> ServerState {
        let novelty = Arc::new(NoveltyStore::new(Arc::clone(&store), novelty_config));
        let router = Arc::new(ElindaEndpoint::with_novelty(
            Arc::clone(&store),
            config,
            Arc::clone(&novelty),
        ));
        let mut resilient = ResilientEndpoint::new(Box::new(Arc::clone(&router)), resilience);
        if let Some(cache) = router.result_cache() {
            resilient = resilient.with_stale_source(Arc::clone(cache));
        }
        ServerState {
            store,
            router: Some(router),
            novelty: Some(novelty),
            backend: None,
            wal: None,
            wal_replay: WalReplayReport::default(),
            endpoint: MeteredEndpoint::new(resilient),
            fabric: None,
            shard_eval: None,
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            stage_stats: StageStats::new(),
            persist_stats: PersistStats::default(),
        }
    }

    /// [`ServerState::with_write_config`] over a [`StoreBackend`]: the
    /// startup store is the backend's committed snapshot, and every
    /// successful compaction is persisted back through it as a new
    /// generation (reported in the [`CompactionReport`]).
    pub fn with_backend(
        backend: Arc<dyn StoreBackend>,
        config: EndpointConfig,
        resilience: ResilienceConfig,
        novelty_config: NoveltyConfig,
    ) -> ServerState {
        let mut state =
            ServerState::with_write_config(backend.snapshot(), config, resilience, novelty_config);
        if let Some(generation) = backend.committed_generation() {
            state
                .persist_stats
                .generation
                .store(generation, Ordering::Relaxed);
        }
        state.backend = Some(backend);
        state
    }

    /// Attach an opened write-ahead log and replay its recovered tail
    /// into the novelty overlay: every record the log acked after the
    /// last persisted generation is re-applied (ground `INSERT DATA` /
    /// `DELETE DATA` replay is idempotent, so records already folded
    /// into the loaded base are harmless no-ops). Must run before the
    /// state starts serving; after it, `apply_update` acks only once
    /// the record is durable per the log's sync policy.
    ///
    /// A record that fails to decode is structural corruption *behind a
    /// valid checksum* — the typed error propagates and the server
    /// refuses to start rather than silently inventing or dropping
    /// acked writes.
    pub fn attach_wal(
        &mut self,
        wal: Arc<Wal>,
        recovery: &WalRecovery,
    ) -> Result<WalReplayReport, WalError> {
        let novelty = self.novelty.as_ref().ok_or_else(|| {
            WalError::corrupt("wal", "no write path to replay into (custom engine state)")
        })?;
        let mut report = WalReplayReport {
            truncated_bytes: recovery.truncated_bytes,
            torn: recovery.torn.is_some(),
            ..WalReplayReport::default()
        };
        for record in &recovery.records {
            let label = format!("wal record #{}", record.seq);
            let update = decode_update(&label, &record.payload)?;
            report.replayed_triples += update.triple_count() as u64;
            report.replayed_records += 1;
            // Plain apply: these records are already in the log.
            novelty.apply(&update);
        }
        self.wal = Some(wal);
        self.wal_replay = report;
        Ok(report)
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// What WAL recovery replayed at startup (zeroes when no WAL is
    /// attached or the log was clean).
    pub fn wal_replay(&self) -> WalReplayReport {
        self.wal_replay
    }

    /// Build serving state whose primary engine is arbitrary — a faulty
    /// simulated remote, a panicking stub — wrapped in the resilient
    /// stack, with the local eLinda router as the degradation-ladder
    /// fallback.
    pub fn with_engine(
        store: Arc<TripleStore>,
        primary: Box<dyn QueryEngine>,
        resilience: ResilienceConfig,
        local_fallback: bool,
    ) -> ServerState {
        let router = Arc::new(ElindaEndpoint::new(
            Arc::clone(&store),
            EndpointConfig::full(),
        ));
        let mut resilient = ResilientEndpoint::new(primary, resilience);
        if local_fallback {
            resilient = resilient.with_fallback(Box::new(Arc::clone(&router)));
        }
        if let Some(cache) = router.result_cache() {
            resilient = resilient.with_stale_source(Arc::clone(cache));
        }
        ServerState {
            store,
            router: Some(router),
            novelty: None,
            backend: None,
            wal: None,
            wal_replay: WalReplayReport::default(),
            endpoint: MeteredEndpoint::new(resilient),
            fabric: None,
            shard_eval: None,
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            stage_stats: StageStats::new(),
            persist_stats: PersistStats::default(),
        }
    }

    /// Build coordinator-role serving state: the primary engine is a
    /// [`FabricCoordinator`] scattering recognized chart queries across
    /// the shard fleet, with the local eLinda router both as its
    /// delegate for non-chart queries and as the degradation-ladder
    /// fallback when the gather fails — the "partial coverage →
    /// stale/local fallback" rung. Coordinator state has no write path:
    /// shard processes each hold their own copy of the dataset, so a
    /// local-only update would silently diverge the fleet.
    pub fn with_fabric(
        store: Arc<TripleStore>,
        fabric: FabricConfig,
        config: EndpointConfig,
        resilience: ResilienceConfig,
    ) -> ServerState {
        let router = Arc::new(ElindaEndpoint::new(Arc::clone(&store), config));
        let coordinator = Arc::new(FabricCoordinator::new(
            Arc::clone(&store),
            fabric,
            Box::new(Arc::clone(&router)),
        ));
        let mut resilient = ResilientEndpoint::new(Box::new(Arc::clone(&coordinator)), resilience)
            .with_fallback(Box::new(Arc::clone(&router)));
        if let Some(cache) = router.result_cache() {
            resilient = resilient.with_stale_source(Arc::clone(cache));
        }
        ServerState {
            store,
            router: Some(router),
            novelty: None,
            backend: None,
            wal: None,
            wal_replay: WalReplayReport::default(),
            endpoint: MeteredEndpoint::new(resilient),
            fabric: Some(coordinator),
            shard_eval: None,
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            stage_stats: StageStats::new(),
            persist_stats: PersistStats::default(),
        }
    }

    /// Switch this state into shard role: partition the loaded store as
    /// shard `shard_id` of `num_shards` and start answering
    /// `POST /shard/eval` with partial aggregates over that partition.
    /// The ordinary read path keeps serving the full local store.
    pub fn enable_shard_eval(&mut self, shard_id: usize, num_shards: usize) -> Result<(), String> {
        let evaluator = ShardEvaluator::new(Arc::clone(&self.store), shard_id, num_shards)?;
        self.shard_eval = Some(Arc::new(evaluator));
        Ok(())
    }

    /// The scatter-gather coordinator, in coordinator role.
    pub fn fabric(&self) -> Option<&Arc<FabricCoordinator>> {
        self.fabric.as_ref()
    }

    /// The shard-side partial-aggregate evaluator, in shard role.
    pub fn shard_evaluator(&self) -> Option<&Arc<ShardEvaluator>> {
        self.shard_eval.as_ref()
    }

    /// The shared store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The metered resilient endpoint.
    pub fn endpoint(&self) -> &MeteredEndpoint<ResilientEndpoint> {
        &self.endpoint
    }

    /// The fault-tolerance counters (retries, breaker transitions,
    /// deadline expiries, degraded serves).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.endpoint.inner().stats()
    }

    /// Execute a query with no deadline and encode the result in the
    /// SPARQL-JSON wire format, reporting which component served it.
    pub fn execute_json(&self, query: &str) -> Result<(String, ServedBy), ServeError> {
        self.execute_json_with(query, Deadline::unbounded())
    }

    /// [`ServerState::execute_json`] under a per-request deadline.
    pub fn execute_json_with(
        &self,
        query: &str,
        deadline: Deadline,
    ) -> Result<(String, ServedBy), ServeError> {
        self.execute_json_traced(query, deadline, TraceCtx::disabled())
    }

    /// [`ServerState::execute_json_with`] under a request-scoped trace
    /// context. If the trace is sampled, the finished span tree is
    /// folded into the per-stage latency histograms and retained in the
    /// ring for `GET /debug/trace/<id>`; a disabled trace adds no work.
    pub fn execute_json_traced(
        &self,
        query: &str,
        deadline: Deadline,
        trace: TraceCtx,
    ) -> Result<(String, ServedBy), ServeError> {
        let ctx = QueryContext::with_deadline_and_trace(deadline, trace.clone());
        let result = self.endpoint.execute_with(query, &ctx).map(|outcome| {
            let body = {
                let _span = trace.span("serialize");
                // Resolve term ids against the novelty view when the
                // write path is live: solutions touching uncompacted
                // inserts reference terms the base store never interned.
                // The view's interner is append-only across update and
                // compaction generations, so resolving an older
                // outcome's ids against the latest view is always sound.
                let view = self.novelty.as_ref().map(|n| n.view());
                let store: &TripleStore = view.as_deref().unwrap_or(&self.store);
                encode_solutions(&outcome.solutions, store)
            };
            (body, outcome.served_by)
        });
        if trace.is_enabled() {
            let outcome_tag = match &result {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("error/{}", serve_error_kind(e)),
            };
            drop(ctx);
            if let Some(finished) = trace.finish(&outcome_tag) {
                self.stage_stats.observe(&finished);
                self.traces.push(finished);
            }
        }
        result
    }

    /// Parse and apply a SPARQL UPDATE (`INSERT DATA` / `DELETE DATA`)
    /// against the novelty overlay. An unparsable update string maps to
    /// [`ServeError::Malformed`] (HTTP 400); a state built over a custom
    /// engine has no write path and answers [`ServeError::Unavailable`].
    pub fn apply_update(&self, text: &str) -> Result<ApplyOutcome, ServeError> {
        self.apply_update_traced(text, TraceCtx::disabled())
    }

    /// [`ServerState::apply_update`] under a request-scoped trace: the
    /// parse and apply work is recorded as `parse` and `write` stages.
    pub fn apply_update_traced(
        &self,
        text: &str,
        trace: TraceCtx,
    ) -> Result<ApplyOutcome, ServeError> {
        let novelty = self.novelty.as_ref().ok_or_else(|| {
            ServeError::Unavailable("no local write path over a custom engine".into())
        })?;
        let result = (|| {
            let update = {
                let _span = trace.span("parse");
                parse_update(text).map_err(|e| ServeError::Malformed(e.to_string()))?
            };
            let outcome = {
                let mut span = trace.span("write");
                let outcome = match self.wal.as_ref() {
                    None => novelty.apply(&update),
                    Some(wal) => {
                        // Durability ordering: the record is appended
                        // under the overlay write lock (log order ==
                        // apply order) and fsynced per the sync policy
                        // before the request is acked. Append failures
                        // leave the overlay untouched; a sync failure
                        // leaves the update applied in memory but
                        // unacked — the client must retry, and ground
                        // replay is idempotent.
                        let payload = encode_update(&update);
                        let mut pos = None;
                        let outcome = novelty
                            .apply_with(&update, |_| wal.append(&payload).map(|p| pos = Some(p)))
                            .map_err(|e| {
                                ServeError::Unavailable(format!(
                                    "write-ahead log append failed: {e}"
                                ))
                            })?;
                        if let Some(pos) = pos {
                            wal.sync_to(pos).map_err(|e| {
                                ServeError::Unavailable(format!("write-ahead log sync failed: {e}"))
                            })?;
                        }
                        outcome
                    }
                };
                if trace.is_enabled() {
                    span.tag("inserted", outcome.inserted.to_string());
                    span.tag("deleted", outcome.deleted.to_string());
                    span.tag("novelty", outcome.novelty.to_string());
                }
                outcome
            };
            Ok(outcome)
        })();
        if trace.is_enabled() {
            let outcome_tag = match &result {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("error/{}", serve_error_kind(e)),
            };
            if let Some(finished) = trace.finish(&outcome_tag) {
                self.stage_stats.observe(&finished);
                self.traces.push(finished);
            }
        }
        result
    }

    /// Fold the novelty overlay into a new base store, recording the
    /// work as a `compact` stage. `None` when there is nothing staged
    /// (or no write path).
    pub fn compact_now(&self) -> Option<CompactionReport> {
        let router = self.router.as_ref()?;
        let novelty = self.novelty.as_ref()?;
        if !novelty.is_dirty() {
            return None;
        }
        let trace = TraceCtx::sampled(format!("compact-e{}", novelty.epoch()));
        // When a WAL is attached, seal its active segment at the exact
        // fold point (under the overlay write lock): every record in the
        // sealed prefix is covered by the folded base, every later
        // record is novelty on top of it.
        let mut sealed: Option<Result<u64, WalError>> = None;
        let mut report = {
            let mut span = trace.span("compact");
            let report = match self.wal.as_ref() {
                None => router.compact(),
                Some(wal) => router.compact_with(|| sealed = Some(wal.seal())),
            };
            if let Some(r) = &report {
                span.tag("folded", r.folded.to_string());
                span.tag("epoch", r.epoch.to_string());
            }
            report
        };
        // Commit the freshly folded base through the backend so a
        // restart resumes from it. A persist failure does not undo the
        // in-memory fold — the previous on-disk generation stays
        // committed and keeps serving restarts — so it is counted and
        // logged, not propagated.
        if let (Some(r), Some(backend)) = (report.as_mut(), self.backend.as_ref()) {
            let mut span = trace.span("persist");
            match backend.persist(&novelty.base()) {
                Ok(Some(generation)) => {
                    r.persisted_generation = Some(generation);
                    self.persist_stats.persisted.fetch_add(1, Ordering::Relaxed);
                    self.persist_stats
                        .generation
                        .store(generation, Ordering::Relaxed);
                    span.tag("generation", generation.to_string());
                }
                Ok(None) => {}
                Err(e) => {
                    self.persist_stats.failures.fetch_add(1, Ordering::Relaxed);
                    span.tag("error", e.to_string());
                    eprintln!(
                        "persist-error: generation={} kind={} error={e}",
                        self.persist_stats.generation.load(Ordering::Relaxed),
                        e.kind()
                    );
                }
            }
        }
        // WAL rotation: the sealed prefix becomes garbage only once the
        // folded base it describes is durably committed. On a seal
        // failure, a failed persist, or a memory-only backend, the
        // segments stay — recovery replay is idempotent, so replaying
        // already-folded records on top of an older base is safe.
        if let Some(wal) = self.wal.as_ref() {
            match sealed {
                Some(Ok(sealed_through)) => {
                    let durable = report
                        .as_ref()
                        .is_some_and(|r| r.persisted_generation.is_some());
                    if durable {
                        if let Err(e) = wal.discard_sealed(sealed_through) {
                            eprintln!(
                                "wal-error: op=discard segment={sealed_through} kind={} error={e}",
                                e.kind()
                            );
                        }
                    }
                }
                Some(Err(e)) => {
                    eprintln!("wal-error: op=seal kind={} error={e}", e.kind());
                }
                None => {}
            }
        }
        // A concurrent compactor may have won the race; only a real
        // fold is worth a trace-ring slot and a histogram sample.
        if report.is_some() {
            if let Some(finished) = trace.finish("ok") {
                self.stage_stats.observe(&finished);
                self.traces.push(finished);
            }
        }
        report
    }

    /// Drain-time flush of the write path: fold and persist any staged
    /// novelty (which also seals and rotates the WAL when the fold is
    /// durable), then force a final WAL fsync so the log covers every
    /// acked write byte-for-byte before the process exits. Errors are
    /// logged, not propagated — shutdown proceeds regardless, and
    /// recovery replay covers whatever the flush could not.
    pub fn shutdown_flush(&self) -> Option<CompactionReport> {
        let report = self.compact_now();
        if let Some(wal) = self.wal.as_ref() {
            if let Err(e) = wal.sync() {
                eprintln!("wal-error: op=shutdown-sync kind={} error={e}", e.kind());
            }
        }
        report
    }

    /// The storage backend, when one is attached.
    pub fn backend(&self) -> Option<&Arc<dyn StoreBackend>> {
        self.backend.as_ref()
    }

    /// The novelty overlay, when the write path is live.
    pub fn novelty(&self) -> Option<&Arc<NoveltyStore>> {
        self.novelty.as_ref()
    }

    /// Write-path counters (updates, staged novelty, compactions);
    /// `None` when the state has no write path.
    pub fn novelty_stats(&self) -> Option<NoveltyStats> {
        self.novelty.as_ref().map(|n| n.stats())
    }

    /// The ring of recently sampled traces.
    pub fn trace_ring(&self) -> &TraceRing {
        &self.traces
    }

    /// Snapshot of the per-stage latency histograms fed by sampled
    /// traces (canonical stages first, even when unobserved).
    pub fn stage_snapshot(&self) -> Vec<(String, LatencySummary)> {
        self.stage_stats.snapshot()
    }

    /// Predict how the router would serve `query` without executing it.
    /// `None` when the state was built over a custom engine and no
    /// local router exists.
    pub fn explain(&self, query: &str) -> Option<ExplainReport> {
        self.router.as_ref().map(|r| r.explain(query))
    }

    /// Snapshot of the router's result-cache counters; `None` when the
    /// state has no local router or its cache is disabled.
    pub fn cache_stats(&self) -> Option<elinda_endpoint::CacheStats> {
        self.router.as_ref().and_then(|r| r.cache_stats())
    }

    /// Remaining open-state cooldown of the circuit breaker, `None`
    /// unless the breaker is currently open. Drives `Retry-After` on
    /// breaker-shed 503 responses.
    pub fn breaker_cooldown(&self) -> Option<Duration> {
        self.endpoint.inner().breaker().cooldown_remaining()
    }

    /// Per-component latency metrics plus fault-tolerance counters in a
    /// line-oriented text format (counts, mean and tail percentiles in
    /// microseconds).
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "elinda_queries_total {}\n",
            self.endpoint.total_queries()
        ));
        for component in COMPONENTS {
            let name = served_by_name(component);
            let summary = self.endpoint.summary(component);
            out.push_str(&format!(
                "elinda_component_queries_total{{component=\"{name}\"}} {}\n",
                summary.count
            ));
            out.push_str(&format!(
                "elinda_component_latency_mean_us{{component=\"{name}\"}} {}\n",
                summary.mean().as_micros()
            ));
            for (label, value) in [
                ("p50", summary.p50()),
                ("p95", summary.p95()),
                ("p99", summary.p99()),
            ] {
                out.push_str(&format!(
                    "elinda_component_latency_{label}_us{{component=\"{name}\"}} {}\n",
                    value.unwrap_or_default().as_micros()
                ));
            }
        }
        let res = self.resilience_stats();
        out.push_str(&format!(
            "elinda_resilience_retries_total {}\n",
            res.retries
        ));
        out.push_str(&format!(
            "elinda_resilience_deadline_expiries_total {}\n",
            res.deadline_expiries
        ));
        out.push_str(&format!(
            "elinda_resilience_degraded_total {}\n",
            res.degraded_serves
        ));
        out.push_str(&format!(
            "elinda_resilience_unavailable_total {}\n",
            res.unavailable
        ));
        for (transition, count) in [
            ("opened", res.breaker.opened),
            ("half_opened", res.breaker.half_opened),
            ("closed", res.breaker.closed),
            ("rejected", res.breaker.rejected),
        ] {
            out.push_str(&format!(
                "elinda_breaker_transitions_total{{transition=\"{transition}\"}} {count}\n"
            ));
        }
        for (stage, summary) in self.stage_stats.snapshot() {
            out.push_str(&format!(
                "elinda_stage_latency_count{{stage=\"{stage}\"}} {}\n",
                summary.count
            ));
            out.push_str(&format!(
                "elinda_stage_latency_mean_us{{stage=\"{stage}\"}} {}\n",
                summary.mean().as_micros()
            ));
            for (label, value) in [
                ("p50", summary.p50()),
                ("p95", summary.p95()),
                ("p99", summary.p99()),
            ] {
                out.push_str(&format!(
                    "elinda_stage_latency_{label}_us{{stage=\"{stage}\"}} {}\n",
                    value.unwrap_or_default().as_micros()
                ));
            }
        }
        if let Some(stats) = self.router.as_ref().and_then(|r| r.parallel_stats()) {
            out.push_str(&format!(
                "elinda_parallel_queries_total {}\n",
                stats.queries
            ));
            for (i, busy) in stats.shard_busy.iter().enumerate() {
                out.push_str(&format!(
                    "elinda_parallel_shard_busy_us{{shard=\"{i}\"}} {}\n",
                    busy.as_micros()
                ));
            }
            out.push_str(&format!(
                "elinda_parallel_wall_us {}\n",
                stats.wall.as_micros()
            ));
            out.push_str(&format!("elinda_parallel_speedup {:.3}\n", stats.speedup()));
        }
        if let Some(router) = self.router.as_ref() {
            if let Some(stats) = router.cache_stats() {
                for (name, value) in [
                    ("hits", stats.hits),
                    ("misses", stats.misses),
                    ("stale_hits", stats.stale_hits),
                    ("insertions", stats.insertions),
                    ("evictions", stats.evictions),
                    ("invalidations", stats.invalidations),
                    ("frontier_hits", stats.frontier_hits),
                    ("frontier_misses", stats.frontier_misses),
                    ("frontier_insertions", stats.frontier_insertions),
                ] {
                    out.push_str(&format!("elinda_cache_{name}_total {value}\n"));
                }
                out.push_str(&format!("elinda_cache_entries {}\n", router.cache_len()));
                out.push_str(&format!("elinda_cache_bytes {}\n", router.cache_bytes()));
            }
        }
        if let Some(fabric) = self.fabric.as_ref() {
            let stats = fabric.stats();
            out.push_str("elinda_fabric_role{role=\"coordinator\"} 1\n");
            out.push_str(&format!("elinda_fabric_shards {}\n", fabric.num_shards()));
            for (name, value) in [
                ("scatter_queries_total", stats.scattered),
                ("gathered_total", stats.gathered),
                ("gather_failures_total", stats.gather_failures),
                ("local_queries_total", stats.local),
            ] {
                out.push_str(&format!("elinda_fabric_{name} {value}\n"));
            }
            for (i, client) in fabric.clients().iter().enumerate() {
                let s = client.stats();
                for (name, value) in [
                    ("requests", s.requests),
                    ("failures", s.failures),
                    ("reconnects", s.reconnects),
                    ("breaker_rejected", s.breaker_rejected),
                ] {
                    out.push_str(&format!(
                        "elinda_fabric_shard_{name}_total{{shard=\"{i}\"}} {value}\n"
                    ));
                }
                out.push_str(&format!(
                    "elinda_fabric_shard_breaker_open{{shard=\"{i}\"}} {}\n",
                    u8::from(client.breaker().state() == BreakerState::Open)
                ));
            }
        }
        if let Some(eval) = self.shard_eval.as_ref() {
            out.push_str("elinda_fabric_role{role=\"shard\"} 1\n");
            out.push_str(&format!("elinda_fabric_shard_id {}\n", eval.shard_id()));
            out.push_str(&format!("elinda_fabric_shards {}\n", eval.num_shards()));
            out.push_str(&format!(
                "elinda_fabric_partition_triples {}\n",
                eval.partition_len()
            ));
            out.push_str(&format!(
                "elinda_fabric_partials_total {}\n",
                eval.partials_served()
            ));
            out.push_str(&format!(
                "elinda_fabric_partial_rejects_total {}\n",
                eval.rejects()
            ));
        }
        if let Some(stats) = self.novelty_stats() {
            out.push_str(&format!("elinda_updates_total {}\n", stats.updates));
            for (name, value) in [
                ("applied_inserts", stats.inserts),
                ("applied_deletes", stats.deletes),
                ("noops", stats.noops),
            ] {
                out.push_str(&format!("elinda_novelty_{name}_total {value}\n"));
            }
            out.push_str(&format!(
                "elinda_novelty_triples {}\n",
                stats.novelty_triples
            ));
            out.push_str(&format!(
                "elinda_novelty_max_triples {}\n",
                self.novelty.as_ref().map_or(0, |n| n.max_triples())
            ));
            out.push_str(&format!("elinda_compaction_total {}\n", stats.compactions));
            out.push_str(&format!(
                "elinda_compaction_folded_triples_total {}\n",
                stats.folded_triples
            ));
            out.push_str(&format!(
                "elinda_compaction_last_us {}\n",
                stats.last_compaction_us
            ));
            out.push_str(&format!("elinda_data_epoch {}\n", stats.epoch));
            out.push_str(&format!("elinda_base_epoch {}\n", stats.base_epoch));
        }
        if let Some(backend) = self.backend.as_ref() {
            out.push_str(&format!("elinda_store_backend{{kind=\"{}\"}} 1\n", {
                // `describe()` may embed a path; metrics label only the
                // kind before the first parenthesis.
                let desc = backend.describe();
                desc.split('(').next().unwrap_or("unknown").to_string()
            }));
            out.push_str(&format!(
                "elinda_persist_generations_total {}\n",
                self.persist_stats.persisted.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "elinda_persist_failures_total {}\n",
                self.persist_stats.failures.load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "elinda_persist_current_generation {}\n",
                self.persist_stats.generation.load(Ordering::Relaxed)
            ));
        }
        if let Some(wal) = self.wal.as_ref() {
            let stats = wal.stats();
            out.push_str(&format!(
                "elinda_wal_sync_policy{{policy=\"{}\"}} 1\n",
                wal.config().sync.name()
            ));
            for (name, value) in [
                ("appended_records_total", stats.appended_records),
                ("appended_bytes_total", stats.appended_bytes),
                ("fsyncs_total", stats.fsyncs),
                ("sync_failures_total", stats.sync_failures),
                ("last_fsync_us", stats.last_fsync_us),
                ("group_commit_last_batch", stats.last_batch),
                ("group_commit_max_batch", stats.max_batch),
                ("active_segment", stats.active_segment),
                ("discarded_segments_total", stats.discarded_segments),
                ("replayed_records", self.wal_replay.replayed_records),
                ("replayed_triples", self.wal_replay.replayed_triples),
                ("recovery_truncated_bytes", self.wal_replay.truncated_bytes),
                ("recovery_torn", self.wal_replay.torn as u64),
            ] {
                out.push_str(&format!("elinda_wal_{name} {value}\n"));
            }
        }
        out
    }
}

/// Stable lowercase tag for a [`ServeError`] variant, used as the
/// trace-outcome suffix (`error/<kind>`).
fn serve_error_kind(err: &ServeError) -> &'static str {
    match err {
        ServeError::Query(_) => "query",
        ServeError::DeadlineExceeded => "deadline",
        ServeError::Transient(_) => "transient",
        ServeError::Unavailable(_) => "unavailable",
        ServeError::Malformed(_) => "malformed",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_endpoint::{BreakerConfig, QueryOutcome, RetryPolicy};
    use std::time::Duration;

    fn state() -> ServerState {
        let store =
            TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C . ex:b a ex:C .")
                .unwrap();
        ServerState::new(Arc::new(store), EndpointConfig::full())
    }

    #[test]
    fn execute_json_matches_in_process_encoding() {
        let s = state();
        let q = "SELECT ?s WHERE { ?s a <http://e/C> }";
        let (body, served_by) = s.execute_json(q).unwrap();
        let direct = s.endpoint().inner().execute(q).unwrap();
        assert_eq!(body, encode_solutions(&direct.solutions, s.store()));
        assert_eq!(served_by, ServedBy::Direct);
    }

    #[test]
    fn execute_json_surfaces_query_errors() {
        assert!(matches!(
            state().execute_json("SELECT nonsense"),
            Err(ServeError::Query(_))
        ));
    }

    #[test]
    fn expired_deadline_is_reported_and_counted() {
        let s = state();
        let err = s
            .execute_json_with(
                "SELECT ?s WHERE { ?s a <http://e/C> }",
                Deadline::at(std::time::Instant::now() - Duration::from_millis(1)),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded));
        assert_eq!(s.resilience_stats().deadline_expiries, 1);
        assert!(s
            .metrics_text()
            .contains("elinda_resilience_deadline_expiries_total 1"));
    }

    #[test]
    fn flaky_primary_retries_then_degrades_to_local() {
        /// Fails transiently forever.
        struct Down;
        impl QueryEngine for Down {
            fn execute(&self, _q: &str) -> Result<QueryOutcome, ServeError> {
                Err(ServeError::Transient("connection refused".into()))
            }
            fn data_epoch(&self) -> u64 {
                0
            }
        }
        let store =
            TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C . ex:b a ex:C .")
                .unwrap();
        let resilience = ResilienceConfig {
            retry: RetryPolicy::new(2, Duration::from_micros(10), Duration::from_micros(50)),
            breaker: BreakerConfig {
                failure_threshold: 100,
                open_cooldown: Duration::from_millis(100),
            },
            ..ResilienceConfig::default()
        };
        let s = ServerState::with_engine(Arc::new(store), Box::new(Down), resilience, true);
        let (_, served_by) = s
            .execute_json("SELECT ?s WHERE { ?s a <http://e/C> }")
            .unwrap();
        assert_eq!(served_by, ServedBy::DegradedLocal);
        let stats = s.resilience_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.degraded_serves, 1);
        let text = s.metrics_text();
        assert!(text.contains("elinda_resilience_retries_total 2"));
        assert!(text.contains("elinda_resilience_degraded_total 1"));
        assert!(text.contains("component=\"degraded-local\"} 1"));
    }

    #[test]
    fn metrics_text_reports_parallel_gauges_when_enabled() {
        use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
        use elinda_endpoint::Parallelism;

        let store = TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C ; ex:p ex:b .")
            .unwrap();
        let mut config = EndpointConfig::full();
        config.parallelism = Parallelism::fixed(2, 4);
        let s = ServerState::new(Arc::new(store), config);
        // No parallel queries yet: the gauges are present but zeroed.
        assert!(s.metrics_text().contains("elinda_parallel_queries_total 0"));
        let q = property_expansion_sparql("http://e/C", ExpansionDirection::Outgoing);
        s.execute_json(&q).unwrap();
        let text = s.metrics_text();
        assert!(text.contains("elinda_parallel_queries_total 1"));
        assert!(text.contains("elinda_parallel_shard_busy_us{shard=\"0\"}"));
        assert!(text.contains("elinda_parallel_shard_busy_us{shard=\"3\"}"));
        assert!(text.contains("elinda_parallel_wall_us"));
        assert!(text.contains("elinda_parallel_speedup"));
        // A sequential endpoint emits no parallel section at all.
        assert!(!state().metrics_text().contains("elinda_parallel"));
    }

    #[test]
    fn traced_execution_populates_ring_and_stage_histograms() {
        let s = state();
        let q = "SELECT ?s WHERE { ?s a <http://e/C> }";
        s.execute_json_traced(q, Deadline::unbounded(), TraceCtx::sampled("req-1"))
            .unwrap();
        let finished = s.trace_ring().get("req-1").expect("sampled trace retained");
        assert_eq!(finished.outcome, "ok");
        assert!(!finished.spans.is_empty());
        assert!(finished.stage_total() <= finished.total);
        let text = s.metrics_text();
        assert!(text.contains("elinda_stage_latency_count{stage=\"serialize\"} 1"));
        assert!(text.contains("elinda_stage_latency_count{stage=\"eval\"} 1"));
        // Untraced requests leave the ring and histograms untouched.
        s.execute_json(q).unwrap();
        assert!(s
            .metrics_text()
            .contains("elinda_stage_latency_count{stage=\"eval\"} 1"));
    }

    #[test]
    fn traced_failure_records_error_outcome() {
        let s = state();
        let err = s
            .execute_json_traced(
                "SELECT nonsense",
                Deadline::unbounded(),
                TraceCtx::sampled("req-bad"),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Query(_)));
        let finished = s.trace_ring().get("req-bad").unwrap();
        assert_eq!(finished.outcome, "error/query");
    }

    #[test]
    fn apply_update_is_read_your_writes_and_compaction_preserves_it() {
        let s = state();
        let q = "SELECT ?s WHERE { ?s a <http://e/C> }";
        let (before, _) = s.execute_json(q).unwrap();
        assert!(!before.contains("http://e/new"));

        let outcome = s
            .apply_update("INSERT DATA { <http://e/new> a <http://e/C> }")
            .unwrap();
        assert_eq!(outcome.inserted, 1);
        assert_eq!(outcome.novelty, 1);
        // The very next read observes the write — and its result body
        // resolves the freshly interned term (the base store has never
        // seen it).
        let (after, _) = s.execute_json(q).unwrap();
        assert!(after.contains("http://e/new"));

        // Folding the overlay must not change a single byte.
        let report = s.compact_now().expect("staged novelty compacts");
        assert_eq!(report.folded, 1);
        let (compacted, _) = s.execute_json(q).unwrap();
        assert_eq!(after, compacted);
        // A second compaction with nothing staged is a no-op.
        assert!(s.compact_now().is_none());
        let stats = s.novelty_stats().unwrap();
        assert_eq!(stats.novelty_triples, 0);
        assert_eq!(stats.compactions, 1);
    }

    #[test]
    fn malformed_update_maps_to_malformed_error() {
        let s = state();
        let err = s
            .apply_update("INSERT DATA { ?v a <http://e/C> }")
            .unwrap_err();
        assert!(matches!(err, ServeError::Malformed(_)));
        assert_eq!(serve_error_kind(&err), "malformed");
        let err = s.apply_update("SELECT ?s WHERE { ?s ?p ?o }").unwrap_err();
        assert!(matches!(err, ServeError::Malformed(_)));
    }

    #[test]
    fn custom_engine_state_has_no_write_path() {
        let store = TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C .").unwrap();
        /// Serves nothing; only here to occupy the primary slot.
        struct Stub;
        impl QueryEngine for Stub {
            fn execute(&self, _q: &str) -> Result<QueryOutcome, ServeError> {
                Err(ServeError::Transient("stub".into()))
            }
            fn data_epoch(&self) -> u64 {
                0
            }
        }
        let s = ServerState::with_engine(
            Arc::new(store),
            Box::new(Stub),
            ResilienceConfig::default(),
            true,
        );
        assert!(matches!(
            s.apply_update("INSERT DATA { <http://e/x> a <http://e/C> }"),
            Err(ServeError::Unavailable(_))
        ));
        assert!(s.compact_now().is_none());
        assert!(s.novelty_stats().is_none());
    }

    #[test]
    fn metrics_text_reports_write_path_counters() {
        let s = state();
        let text = s.metrics_text();
        assert!(text.contains("elinda_updates_total 0"));
        assert!(text.contains("elinda_novelty_triples 0"));
        s.apply_update("INSERT DATA { <http://e/x> a <http://e/C> . <http://e/y> a <http://e/C> }")
            .unwrap();
        let text = s.metrics_text();
        assert!(text.contains("elinda_updates_total 1"));
        assert!(text.contains("elinda_novelty_applied_inserts_total 2"));
        assert!(text.contains("elinda_novelty_triples 2"));
        assert!(text.contains("elinda_compaction_total 0"));
        s.compact_now().unwrap();
        let text = s.metrics_text();
        assert!(text.contains("elinda_novelty_triples 0"));
        assert!(text.contains("elinda_compaction_total 1"));
        assert!(text.contains("elinda_compaction_folded_triples_total 2"));
        // Two per-triple bumps plus the compaction-point bump.
        assert!(text.contains("elinda_data_epoch 3"));
        assert!(text.contains("elinda_base_epoch 3"));
    }

    #[test]
    fn traced_update_and_compaction_feed_stage_histograms() {
        let s = state();
        s.apply_update_traced(
            "INSERT DATA { <http://e/x> a <http://e/C> }",
            TraceCtx::sampled("write-1"),
        )
        .unwrap();
        let finished = s.trace_ring().get("write-1").unwrap();
        assert_eq!(finished.outcome, "ok");
        s.compact_now().unwrap();
        let text = s.metrics_text();
        assert!(text.contains("elinda_stage_latency_count{stage=\"write\"} 1"));
        assert!(text.contains("elinda_stage_latency_count{stage=\"compact\"} 1"));
        // The compaction trace landed in the ring under its epoch id.
        assert!(s.trace_ring().get("compact-e1").is_some());
    }

    #[test]
    fn backend_state_persists_compactions_across_restart() {
        use elinda_store::test_dirs::{cleanup, fresh_dir};
        use elinda_store::PersistentBackend;

        let dir = fresh_dir("state-backend");
        let store = Arc::new(
            TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C . ex:b a ex:C .")
                .unwrap(),
        );
        let backend = Arc::new(PersistentBackend::initialize(&dir, store).unwrap());
        let s = ServerState::with_backend(
            Arc::clone(&backend) as Arc<dyn StoreBackend>,
            EndpointConfig::full(),
            ResilienceConfig::default(),
            NoveltyConfig::default(),
        );
        assert!(s
            .metrics_text()
            .contains("elinda_persist_current_generation 1"));

        s.apply_update("INSERT DATA { <http://e/new> a <http://e/C> }")
            .unwrap();
        let report = s.compact_now().unwrap();
        assert_eq!(report.persisted_generation, Some(2));
        assert_eq!(backend.generation(), 2);
        let text = s.metrics_text();
        assert!(text.contains("elinda_store_backend{kind=\"persistent\"} 1"));
        assert!(text.contains("elinda_persist_generations_total 1"));
        assert!(text.contains("elinda_persist_failures_total 0"));
        assert!(text.contains("elinda_persist_current_generation 2"));

        // A restart reopens the committed generation: the compacted
        // write is on disk, no datagen or update replay involved.
        let reopened = PersistentBackend::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 2);
        let snap = reopened.snapshot();
        assert!(snap.lookup_iri("http://e/new").is_some());
        assert_eq!(snap.len(), 3);
        cleanup(&dir);
    }

    #[test]
    fn memory_backend_compaction_reports_no_generation() {
        use elinda_store::MemoryBackend;

        let store =
            Arc::new(TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C .").unwrap());
        let s = ServerState::with_backend(
            Arc::new(MemoryBackend::new(store)),
            EndpointConfig::full(),
            ResilienceConfig::default(),
            NoveltyConfig::default(),
        );
        s.apply_update("INSERT DATA { <http://e/x> a <http://e/C> }")
            .unwrap();
        let report = s.compact_now().unwrap();
        assert_eq!(report.persisted_generation, None);
        let text = s.metrics_text();
        assert!(text.contains("elinda_store_backend{kind=\"memory\"} 1"));
        assert!(text.contains("elinda_persist_generations_total 0"));
    }

    #[test]
    fn explain_predicts_without_executing() {
        let s = state();
        let report = s.explain("SELECT ?s WHERE { ?s a <http://e/C> }").unwrap();
        assert_eq!(report.path, "direct");
        assert_eq!(report.recognized, Some(false));
        assert_eq!(s.endpoint().total_queries(), 0, "explain must not execute");
    }

    #[test]
    fn metrics_text_reports_each_component() {
        let s = state();
        s.execute_json("SELECT ?s WHERE { ?s a <http://e/C> }")
            .unwrap();
        let text = s.metrics_text();
        assert!(text.contains("elinda_queries_total 1"));
        for component in COMPONENTS {
            let name = served_by_name(component);
            assert!(text.contains(&format!(
                "elinda_component_queries_total{{component=\"{name}\"}}"
            )));
            assert!(text.contains(&format!(
                "elinda_component_latency_p99_us{{component=\"{name}\"}}"
            )));
        }
        for transition in ["opened", "half_opened", "closed", "rejected"] {
            assert!(text.contains(&format!(
                "elinda_breaker_transitions_total{{transition=\"{transition}\"}} 0"
            )));
        }
    }
}
