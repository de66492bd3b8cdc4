//! [`ElindaEndpoint`]: the full Fig. 3 serving stack.
//!
//! Routing, per the paper: check the HVS first; then the exploration
//! result cache (a fresh hit returns the finished chart bytes); if the
//! query is a recognized property expansion, evaluate the chart kernel
//! over its class's members — a cached (or parent-derived) frontier when
//! one is available, the class closure otherwise — on the threaded driver
//! when the parallelism budget fans out and the sequential one when not;
//! everything else routes to the direct ("Virtuoso") executor.
//! Measured runtimes at or above the heavy threshold are recorded in the
//! HVS, finished chart results and class frontiers in the result cache,
//! and both are invalidated whenever the knowledge base's epoch moves.
//!
//! Query text is canonicalized once at ingress
//! ([`crate::cache::normalize_query_text`]) and the normalized text is
//! used for parsing, HVS keys, and cache keys alike — so semantically
//! identical `GET`/`POST /sparql` spellings (whitespace, percent-encoded
//! IRIs, filter order) converge on one execution and one cache entry,
//! and a cache key can never alias two queries with different answers.

use crate::cache::{normalize_query_text, CacheConfig, CacheStats, ResultCache};
use crate::decomposer::{class_members, recognize_property_expansion, PropertyExpansionQuery};
use crate::engine::{QueryContext, QueryEngine, QueryOutcome, ServeError, ServedBy};
use crate::hvs::{HeavyQueryStore, HvsConfig, HvsStats};
use crate::incremental::{execute_decomposed_from_frontier, seed_child_frontier};
use crate::novelty::{CompactionReport, NoveltyStore};
use crate::parallel::{try_execute_decomposed_chunked, ParallelStats, Parallelism};
use crate::trace::push_json_str;
use elinda_rdf::TermId;
use elinda_sparql::exec::QueryError;
use elinda_sparql::{parse_query, Executor};
use elinda_store::{ClassHierarchy, TripleStore};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

/// Endpoint configuration: each acceleration can be toggled, as in the
/// demonstration ("with the discussed solutions turned on and off").
#[derive(Debug, Clone, Default)]
pub struct EndpointConfig {
    /// Serve previously-measured heavy queries from the HVS.
    pub enable_hvs: bool,
    /// Rewrite recognized property-expansion queries onto the indexes.
    pub enable_decomposer: bool,
    /// HVS settings.
    pub hvs: HvsConfig,
    /// Intra-query parallelism budget for decomposed aggregations
    /// (default sequential). When it fans out, recognized expansions cut
    /// their member set into `shards` chunks and scan them on `threads`
    /// workers over the one shared store — byte-identical to the
    /// sequential path on the wire.
    pub parallelism: Parallelism,
    /// Serve repeated chart queries from the epoch-aware result cache and
    /// seed child expansions from cached parent frontiers.
    pub enable_cache: bool,
    /// Result-cache sizing (entries, bytes, lock shards).
    pub cache: CacheConfig,
}

impl EndpointConfig {
    /// Everything on — the "eLinda endpoint" configuration of Fig. 4.
    pub fn full() -> Self {
        EndpointConfig {
            enable_hvs: true,
            enable_decomposer: true,
            hvs: HvsConfig::default(),
            parallelism: Parallelism::sequential(),
            enable_cache: true,
            cache: CacheConfig::default(),
        }
    }

    /// Everything off — the plain "Virtuoso SPARQL endpoint" baseline.
    pub fn baseline() -> Self {
        EndpointConfig {
            enable_hvs: false,
            enable_decomposer: false,
            hvs: HvsConfig::default(),
            parallelism: Parallelism::sequential(),
            enable_cache: false,
            cache: CacheConfig::default(),
        }
    }

    /// Decomposer only (no caching) — the "eLinda decomposer" bar of
    /// Fig. 4, and the cold-evaluation reference of the differential
    /// cache suite.
    pub fn decomposer_only() -> Self {
        EndpointConfig {
            enable_hvs: false,
            enable_decomposer: true,
            hvs: HvsConfig::default(),
            parallelism: Parallelism::sequential(),
            enable_cache: false,
            cache: CacheConfig::default(),
        }
    }

    /// [`EndpointConfig::full`] with an intra-query parallelism budget.
    pub fn parallel(parallelism: Parallelism) -> Self {
        EndpointConfig {
            parallelism,
            ..EndpointConfig::full()
        }
    }
}

/// The evaluation path picked by the route decision, carrying the
/// recognized property-expansion shape where one applies.
enum EvalPlan {
    /// Run the chart kernel over `members`: a cached (or parent-derived)
    /// frontier when `seeded`, the class's freshly derived instance set
    /// otherwise.
    Chart {
        rec: PropertyExpansionQuery,
        members: Arc<Vec<TermId>>,
        seeded: bool,
    },
    /// The plain SPARQL executor.
    Direct,
}

impl EvalPlan {
    /// The `/explain` path and `route` span tag of this plan.
    fn path(&self) -> &'static str {
        match self {
            EvalPlan::Chart { seeded: true, .. } => "incremental",
            EvalPlan::Chart { seeded: false, .. } => "decomposed",
            EvalPlan::Direct => "direct",
        }
    }
}

/// The router's prediction for a query: which path would serve it right
/// now, computed **without executing** the query (the `/explain`
/// endpoint). The HVS check uses a non-counting peek so explaining a
/// query does not perturb cache-effectiveness counters.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Whether the fresh HVS currently caches this query.
    pub hvs_hit: bool,
    /// Whether the decomposer recognized the property-expansion shape
    /// (`None` when the query failed to parse).
    pub recognized: Option<bool>,
    /// The parse error, when the query is invalid.
    pub parse_error: Option<String>,
    /// The predicted serving path: `hvs`, `cache-hit`, `incremental`,
    /// `decomposed`, `direct`, or `invalid`.
    pub path: &'static str,
    /// Number of work units the predicted path would fan across (1 on
    /// every sequential path).
    pub shards: usize,
    /// The data epoch the prediction was made against.
    pub data_epoch: u64,
}

impl ExplainReport {
    /// Render the prediction as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"path\":");
        push_json_str(&mut out, self.path);
        out.push_str(&format!(",\"hvs_hit\":{}", self.hvs_hit));
        match self.recognized {
            Some(r) => out.push_str(&format!(",\"recognized\":{r}")),
            None => out.push_str(",\"recognized\":null"),
        }
        if let Some(err) = &self.parse_error {
            out.push_str(",\"parse_error\":");
            push_json_str(&mut out, err);
        }
        out.push_str(&format!(
            ",\"shards\":{},\"data_epoch\":{}}}",
            self.shards, self.data_epoch
        ));
        out
    }
}

/// The eLinda endpoint: HVS + decomposer + direct executor.
///
/// Generic over how the store is owned: `ElindaEndpoint<&TripleStore>`
/// borrows (the in-process library mode), while
/// `ElindaEndpoint<Arc<TripleStore>>` shares ownership so the endpoint
/// can be handed to server worker threads as `Arc<ElindaEndpoint<_>>`
/// with no lifetime tie to the caller's stack.
pub struct ElindaEndpoint<S: Borrow<TripleStore>> {
    store: S,
    /// The write-path overlay, when this endpoint serves a writable
    /// store. Reads then consume the overlay's merged view snapshot
    /// instead of `store` directly; each view carries its own class
    /// hierarchy ([`TripleStore::hierarchy`]).
    novelty: Option<Arc<NoveltyStore>>,
    hvs: HeavyQueryStore,
    /// Cumulative per-shard timings and speedup, fed by the parallel path.
    parallel_stats: Mutex<ParallelStats>,
    /// Epoch-aware result + frontier cache; present when
    /// [`EndpointConfig::enable_cache`] is on. Shared via `Arc` so the
    /// resilience layer can consult its stale side in the degradation
    /// ladder.
    cache: Option<Arc<ResultCache>>,
    config: EndpointConfig,
}

impl<S: Borrow<TripleStore>> ElindaEndpoint<S> {
    /// Build the endpoint (computes the class hierarchy "mirror" once, as
    /// the paper's endpoint preprocesses its knowledge-base mirrors).
    pub fn new(store: S, config: EndpointConfig) -> Self {
        Self::build(store, None, config)
    }

    /// Build a **writable** endpoint on top of a novelty overlay: every
    /// read consumes the overlay's merged view, `data_epoch` follows the
    /// view epoch, and [`Self::compact`] folds staged writes into a new
    /// base. The overlay's base should be the same store handed in as
    /// `store` (the overlay view is what is actually read; `store` is
    /// kept for ownership parity with the read-only constructor).
    pub fn with_novelty(store: S, config: EndpointConfig, novelty: Arc<NoveltyStore>) -> Self {
        Self::build(store, Some(novelty), config)
    }

    fn build(store: S, novelty: Option<Arc<NoveltyStore>>, config: EndpointConfig) -> Self {
        let view = novelty.as_ref().map(|n| n.view());
        let s: &TripleStore = match &view {
            Some(v) => v,
            None => store.borrow(),
        };
        // Warm the boot snapshot's hierarchy, as the paper's endpoint
        // preprocesses its knowledge-base mirrors: the first chart then
        // pays nothing for it.
        s.hierarchy();
        let hvs = HeavyQueryStore::new(config.hvs.clone(), s.epoch());
        let cache = config.enable_cache.then(|| {
            let cache = ResultCache::new(config.cache);
            cache.sync_epoch(s.epoch());
            Arc::new(cache)
        });
        drop(view);
        ElindaEndpoint {
            store,
            novelty,
            hvs,
            parallel_stats: Mutex::new(ParallelStats::default()),
            cache,
            config,
        }
    }

    /// The underlying base store. Note: on a writable endpoint the live
    /// data is [`Self::novelty`]'s view, not this base.
    pub fn store(&self) -> &TripleStore {
        self.store.borrow()
    }

    /// The write-path overlay, when this endpoint is writable.
    pub fn novelty(&self) -> Option<&Arc<NoveltyStore>> {
        self.novelty.as_ref()
    }

    /// The class hierarchy mirror of the current view.
    pub fn hierarchy(&self) -> Arc<ClassHierarchy> {
        match &self.novelty {
            Some(n) => n.view().hierarchy(),
            None => self.store.borrow().hierarchy(),
        }
    }

    /// Fold staged novelty into a new base. Returns `None` on a
    /// read-only endpoint or when nothing is staged.
    pub fn compact(&self) -> Option<CompactionReport> {
        self.compact_with(|| {})
    }

    /// [`ElindaEndpoint::compact`] with a durability hook forwarded to
    /// [`NoveltyStore::compact_with`]: `post_fold` runs under the
    /// overlay write lock at the exact fold point (the WAL layer seals
    /// its active segment there).
    pub fn compact_with(&self, post_fold: impl FnOnce()) -> Option<CompactionReport> {
        self.novelty.as_ref()?.compact_with(post_fold)
    }

    /// HVS counters (hits, misses, invalidations, …).
    pub fn hvs_stats(&self) -> HvsStats {
        self.hvs.stats()
    }

    /// Number of queries currently cached in the HVS.
    pub fn hvs_len(&self) -> usize {
        self.hvs.len()
    }

    /// The intra-query parallelism budget this endpoint runs with.
    pub fn parallelism(&self) -> Parallelism {
        self.config.parallelism
    }

    /// Snapshot of the cumulative parallel-execution statistics, or
    /// `None` when intra-query parallelism is off.
    pub fn parallel_stats(&self) -> Option<ParallelStats> {
        (self.config.enable_decomposer && self.config.parallelism.is_parallel())
            .then(|| self.parallel_stats.lock().clone())
    }

    /// The shared result cache, or `None` when caching is off — handed to
    /// the resilience layer so the degradation ladder can consult the
    /// cache's epoch-tagged stale side.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Result-cache counters, or `None` when caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Number of fresh results in the cache (0 when caching is off).
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.len())
    }

    /// Estimated bytes held by the cache (0 when caching is off).
    pub fn cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.bytes())
    }

    /// Finds a current-epoch frontier for `rec`'s class: directly, or by
    /// deriving it from a cached frontier of a direct superclass (kept
    /// members verified complete by cardinality before use). On the live
    /// route (`live`) the lookup counts hit/miss and a derived frontier
    /// is recorded back, so the next expansion of the same class finds it
    /// directly; `/explain` probes with `live` off and mutates nothing.
    fn find_frontier(
        &self,
        store: &TripleStore,
        hierarchy: &ClassHierarchy,
        cache: &ResultCache,
        rec: &PropertyExpansionQuery,
        epoch: u64,
        live: bool,
    ) -> Option<Arc<Vec<TermId>>> {
        let class_iri = rec.class.as_iri()?;
        let direct = if live {
            cache.frontier(class_iri, epoch)
        } else {
            cache.peek_frontier(class_iri, epoch)
        };
        if let Some(members) = direct {
            return Some(members);
        }
        let class_id = store.interner().get(&rec.class)?;
        for &parent in hierarchy.direct_superclasses(class_id) {
            let Some(parent_iri) = store.resolve(parent).as_iri() else {
                continue;
            };
            let Some(parent_members) = cache.peek_frontier(parent_iri, epoch) else {
                continue;
            };
            let derived = seed_child_frontier(store, hierarchy, &parent_members, class_id);
            if let Some(derived) = derived {
                let derived = Arc::new(derived);
                if live {
                    cache.record_frontier(class_iri, Arc::clone(&derived), epoch);
                }
                return Some(derived);
            }
        }
        None
    }

    /// The route decision, shared by the live path and `/explain`: which
    /// plan evaluates a parsed query whose chart shape (if any) is
    /// `recognized`, against view `store` and that view's own class
    /// hierarchy. With `live` off nothing is counted or recorded.
    fn route(
        &self,
        store: &TripleStore,
        recognized: Option<PropertyExpansionQuery>,
        live: bool,
    ) -> EvalPlan {
        let Some(rec) = recognized.filter(|_| self.config.enable_decomposer) else {
            return EvalPlan::Direct;
        };
        let hierarchy = store.hierarchy();
        let epoch = store.epoch();
        let frontier = self
            .cache
            .as_ref()
            .and_then(|cache| self.find_frontier(store, &hierarchy, cache, &rec, epoch, live));
        if let Some(members) = frontier {
            return EvalPlan::Chart {
                rec,
                members,
                seeded: true,
            };
        }
        // Cold: derive the class closure once, and record it so a later
        // expansion along the same exploration path can seed from it.
        let members = Arc::new(class_members(store, &hierarchy, &rec));
        if live && !members.is_empty() {
            if let (Some(cache), Some(iri)) = (&self.cache, rec.class.as_iri()) {
                cache.record_frontier(iri, Arc::clone(&members), epoch);
            }
        }
        EvalPlan::Chart {
            rec,
            members,
            seeded: false,
        }
    }

    /// Work units `plan` evaluates across: the parallelism budget's for a
    /// chart when it fans out, 1 on every sequential path.
    fn fanout(&self, plan: &EvalPlan) -> usize {
        match plan {
            EvalPlan::Chart { .. } if self.config.parallelism.is_parallel() => {
                self.config.parallelism.shards
            }
            _ => 1,
        }
    }

    /// Predict how [`QueryEngine::execute_with`] would route `query`
    /// right now, without executing it — the same decision sequence
    /// (HVS → cache → parse → `route`) against the current store
    /// state. Backs the server's `GET /explain` route.
    pub fn explain(&self, query: &str) -> ExplainReport {
        let view = self.novelty.as_ref().map(|n| n.view());
        let store: &TripleStore = match &view {
            Some(v) => v,
            None => self.store.borrow(),
        };
        let epoch = store.epoch();
        self.hvs.sync_epoch(epoch);
        if let Some(cache) = &self.cache {
            cache.sync_epoch(epoch);
        }
        let normalized = normalize_query_text(query);
        let query = normalized.as_str();
        let hvs_hit = self.config.enable_hvs && self.hvs.peek(query);
        let cache_hit = !hvs_hit
            && self
                .cache
                .as_ref()
                .is_some_and(|cache| cache.peek(query).is_some());
        let (recognized, parse_error) = match parse_query(query) {
            Ok(parsed) => (Some(recognize_property_expansion(&parsed)), None),
            Err(e) => (None, Some(QueryError::Parse(e).to_string())),
        };
        let is_recognized = recognized.as_ref().map(Option::is_some);
        let (path, shards) = if hvs_hit {
            ("hvs", 1)
        } else if parse_error.is_some() {
            ("invalid", 1)
        } else if cache_hit {
            ("cache-hit", 1)
        } else {
            let plan = self.route(store, recognized.flatten(), false);
            (plan.path(), self.fanout(&plan))
        };
        ExplainReport {
            hvs_hit,
            recognized: is_recognized,
            parse_error,
            path,
            shards,
            data_epoch: epoch,
        }
    }
}

impl<S: Borrow<TripleStore> + Send + Sync> QueryEngine for ElindaEndpoint<S> {
    fn execute(&self, query: &str) -> Result<QueryOutcome, ServeError> {
        self.execute_with(query, &QueryContext::default())
    }

    /// The routing pipeline under a per-request deadline, checked
    /// cooperatively at every stage boundary (HVS lookup → cache lookup →
    /// parse → evaluate) and handed into the threaded chart driver,
    /// whose workers re-check it between member chunks. When the context
    /// carries a sampled trace, each stage records a span (`hvs`, `cache`,
    /// `parse`, `route`, `eval` with nested `fanout`/`shard/<i>`/`merge`).
    fn execute_with(&self, query: &str, ctx: &QueryContext) -> Result<QueryOutcome, ServeError> {
        // "The HVS is cleared on any update to the eLinda knowledge bases."
        // On a writable endpoint the read snapshot is the novelty
        // overlay's merged view, captured once here — concurrent writes
        // and compactions republish new Arcs and never touch this one,
        // so the whole query answers at one consistent epoch.
        let view = self.novelty.as_ref().map(|n| n.view());
        let store: &TripleStore = match &view {
            Some(v) => v,
            None => self.store.borrow(),
        };
        let epoch = store.epoch();
        self.hvs.sync_epoch(epoch);
        if let Some(cache) = &self.cache {
            cache.sync_epoch(epoch);
        }
        // Canonicalize once at ingress; everything downstream — parse,
        // HVS keys, cache keys — sees the normalized text, so the cache
        // key is the executed query and can never alias another one.
        let normalized = normalize_query_text(query);
        let query = normalized.as_str();
        let deadline = ctx.deadline;
        let trace = &ctx.trace;
        deadline.check()?;

        let start = Instant::now();
        if self.config.enable_hvs {
            let mut span = trace.span("hvs");
            if let Some(solutions) = self.hvs.get(query) {
                // The measured time covers the lookup and the clone of the
                // cached result — the serving cost of the ~80 ms HVS bar of
                // Fig. 4 (theirs additionally includes the HTTP stack).
                span.tag("outcome", "hit");
                return Ok(QueryOutcome {
                    solutions,
                    elapsed: start.elapsed(),
                    served_by: ServedBy::Hvs,
                    shards_used: 1,
                    data_epoch: epoch,
                });
            }
            span.tag("outcome", "miss");
        }

        if let Some(cache) = &self.cache {
            let mut span = trace.span("cache");
            if let Some(solutions) = cache.get(query) {
                span.tag("outcome", "hit");
                return Ok(QueryOutcome {
                    solutions: (*solutions).clone(),
                    elapsed: start.elapsed(),
                    served_by: ServedBy::CacheHit,
                    shards_used: 1,
                    data_epoch: epoch,
                });
            }
            span.tag("outcome", "miss");
        }

        let parsed = {
            let _span = trace.span("parse");
            parse_query(query).map_err(QueryError::Parse)?
        };
        deadline.check()?;

        // Route decision: which path will evaluate the query. Deciding
        // before evaluating keeps the decision observable (the `route`
        // span and `/explain`) and the stage spans disjoint.
        let mut route_span = trace.span("route");
        let plan = self.route(store, recognize_property_expansion(&parsed), true);
        let shards_used = self.fanout(&plan);
        route_span.tag("path", plan.path());
        drop(route_span);

        let mut eval_span = trace.span("eval");
        let (solutions, served_by) = match &plan {
            EvalPlan::Chart {
                rec,
                members,
                seeded,
            } => {
                let solutions = if shards_used > 1 {
                    let (solutions, report) = try_execute_decomposed_chunked(
                        store,
                        members,
                        rec,
                        &self.config.parallelism,
                        deadline,
                        trace,
                        eval_span.id(),
                    )?;
                    self.parallel_stats.lock().record(&report);
                    solutions
                } else {
                    execute_decomposed_from_frontier(store, members, rec)
                };
                let served_by = if *seeded {
                    ServedBy::Incremental
                } else {
                    ServedBy::Decomposer
                };
                (solutions, served_by)
            }
            EvalPlan::Direct => (
                Executor::new(store)
                    .execute(&parsed)
                    .map_err(QueryError::Exec)?,
                ServedBy::Direct,
            ),
        };
        let elapsed = start.elapsed();
        if self.config.enable_hvs {
            self.hvs.record(query, &solutions, elapsed);
        }
        // Only finished chart results enter the result cache: the chart
        // tiers share one canonical finisher, so a later cache hit is
        // byte-identical to re-evaluation on any tier.
        if matches!(plan, EvalPlan::Chart { .. }) {
            if let Some(cache) = &self.cache {
                cache.record(query, &solutions, epoch);
            }
        }
        if trace.is_enabled() {
            eval_span.tag("rows", solutions.len().to_string());
        }
        drop(eval_span);
        Ok(QueryOutcome {
            solutions,
            elapsed,
            served_by,
            shards_used,
            data_epoch: epoch,
        })
    }

    fn data_epoch(&self) -> u64 {
        match &self.novelty {
            Some(n) => n.epoch(),
            None => self.store.borrow().epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposer::{property_expansion_sparql, ExpansionDirection};
    use std::time::Duration;

    fn store() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix owl: <http://www.w3.org/2002/07/owl#> .
            ex:a a owl:Thing ; ex:p ex:b ; ex:q ex:b .
            ex:b a owl:Thing ; ex:p ex:c .
            ex:c a owl:Thing .
            "#,
        )
        .unwrap()
    }

    fn zero_threshold(mut cfg: EndpointConfig) -> EndpointConfig {
        cfg.hvs.heavy_threshold = Duration::ZERO;
        cfg
    }

    #[test]
    fn baseline_serves_direct() {
        let s = store();
        let ep = ElindaEndpoint::new(&s, EndpointConfig::baseline());
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        let out = ep.execute(&q).unwrap();
        assert_eq!(out.served_by, ServedBy::Direct);
    }

    #[test]
    fn decomposer_intercepts_property_expansion() {
        let s = store();
        let ep = ElindaEndpoint::new(&s, EndpointConfig::decomposer_only());
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        let out = ep.execute(&q).unwrap();
        assert_eq!(out.served_by, ServedBy::Decomposer);
        // Other queries still go direct.
        let out = ep.execute("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(out.served_by, ServedBy::Direct);
    }

    #[test]
    fn decomposer_and_direct_agree() {
        let s = store();
        let base = ElindaEndpoint::new(&s, EndpointConfig::baseline());
        let fast = ElindaEndpoint::new(&s, EndpointConfig::decomposer_only());
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        let a = base.execute(&q).unwrap().solutions;
        let b = fast.execute(&q).unwrap().solutions;
        assert_eq!(a.len(), b.len());
        assert_eq!(a.vars, b.vars);
    }

    #[test]
    fn hvs_caches_second_call() {
        let s = store();
        let ep = ElindaEndpoint::new(&s, zero_threshold(EndpointConfig::full()));
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        let first = ep.execute(&q).unwrap();
        assert_eq!(first.served_by, ServedBy::Decomposer);
        let second = ep.execute(&q).unwrap();
        assert_eq!(second.served_by, ServedBy::Hvs);
        assert_eq!(first.solutions.len(), second.solutions.len());
        assert_eq!(ep.hvs_stats().hits, 1);
    }

    #[test]
    fn update_invalidates_hvs() {
        let mut s = store();
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        // Scope the endpoint so we can mutate the store between runs.
        {
            let ep = ElindaEndpoint::new(&s, zero_threshold(EndpointConfig::full()));
            ep.execute(&q).unwrap();
            assert_eq!(ep.hvs_len(), 1);
        }
        let x = s.intern(elinda_rdf::Term::iri("http://e/x"));
        let ty = s.lookup_iri(elinda_rdf::vocab::rdf::TYPE).unwrap();
        let thing = s.lookup_iri(elinda_rdf::vocab::owl::THING).unwrap();
        s.insert(x, ty, thing);
        {
            let ep = ElindaEndpoint::new(&s, zero_threshold(EndpointConfig::full()));
            ep.execute(&q).unwrap();
            // Fresh endpoint: served by decomposer again, and the result
            // reflects the update.
            let out = ep.execute(&q).unwrap();
            assert_eq!(out.served_by, ServedBy::Hvs);
            let type_rows = out.solutions.len();
            assert!(type_rows >= 1);
        }
    }

    #[test]
    fn parallel_config_is_byte_identical_and_reports_shards() {
        let s = store();
        let sequential = ElindaEndpoint::new(&s, EndpointConfig::decomposer_only());
        let mut cfg = EndpointConfig::decomposer_only();
        cfg.parallelism = Parallelism::fixed(2, 7);
        let parallel = ElindaEndpoint::new(&s, cfg);
        for dir in [ExpansionDirection::Outgoing, ExpansionDirection::Incoming] {
            let q = property_expansion_sparql(elinda_rdf::vocab::owl::THING, dir);
            let a = sequential.execute(&q).unwrap();
            let b = parallel.execute(&q).unwrap();
            assert_eq!(a.served_by, ServedBy::Decomposer);
            assert_eq!(b.served_by, ServedBy::Decomposer);
            assert_eq!(a.shards_used, 1);
            assert_eq!(b.shards_used, 7);
            assert_eq!(
                crate::json::encode_solutions(&a.solutions, &s),
                crate::json::encode_solutions(&b.solutions, &s),
                "{dir:?}"
            );
        }
        assert!(sequential.parallel_stats().is_none());
        let stats = parallel.parallel_stats().unwrap();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.shard_busy.len(), 7);
    }

    #[test]
    fn rebuilt_endpoint_after_update_serves_parallel_fresh() {
        let mut s = store();
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        let mut cfg = EndpointConfig::decomposer_only();
        cfg.parallelism = Parallelism::fixed(2, 4);
        let before = {
            let ep = ElindaEndpoint::new(&s, cfg.clone());
            ep.execute(&q).unwrap().solutions.len()
        };
        // Give ex:c an outgoing edge with a brand-new property; the
        // rebuilt endpoint must reflect it.
        let c = s.lookup_iri("http://e/c").unwrap();
        let r = s.intern(elinda_rdf::Term::iri("http://e/r"));
        s.insert(c, r, c);
        let ep = ElindaEndpoint::new(&s, cfg);
        let out = ep.execute(&q).unwrap();
        assert_eq!(out.shards_used, 4);
        assert_eq!(out.solutions.len(), before + 1);
        assert_eq!(ep.parallel_stats().unwrap().queries, 1);
    }

    #[test]
    fn writable_endpoint_serves_read_your_writes() {
        use crate::novelty::{NoveltyConfig, NoveltyStore};
        let s = Arc::new(store());
        let novelty = Arc::new(NoveltyStore::new(Arc::clone(&s), NoveltyConfig::default()));
        let mut cfg = EndpointConfig::full();
        cfg.parallelism = Parallelism::fixed(2, 4);
        let ep = ElindaEndpoint::with_novelty(Arc::clone(&s), cfg, Arc::clone(&novelty));
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);

        let before = ep.execute(&q).unwrap();
        let before_rows =
            crate::json::encode_solutions(&before.solutions, &ep.novelty().unwrap().view());

        // A new Thing with an outgoing edge: visible on the very next
        // read, before any compaction, on the chart kernel over the new
        // view's own hierarchy.
        novelty.apply(
            &elinda_sparql::parse_update(
                "PREFIX ex: <http://e/> PREFIX owl: <http://www.w3.org/2002/07/owl#> \
                 INSERT DATA { ex:n a owl:Thing . ex:n ex:p ex:a }",
            )
            .unwrap(),
        );
        let during = ep.execute(&q).unwrap();
        assert_eq!(during.served_by, ServedBy::Decomposer);
        assert!(during.data_epoch > before.data_epoch);
        let during_rows = crate::json::encode_solutions(&during.solutions, &novelty.view());
        assert_ne!(before_rows, during_rows, "write must be visible");

        // Compaction folds and bumps the epoch once more — with
        // byte-identical results.
        let report = ep.compact().expect("dirty overlay compacts");
        assert_eq!(report.folded, 2);
        assert_eq!(novelty.novelty_len(), 0);
        let after = ep.execute(&q).unwrap();
        assert_eq!(after.served_by, ServedBy::Decomposer);
        assert_eq!(after.shards_used, 4);
        assert_eq!(after.data_epoch, during.data_epoch + 1);
        let after_rows = crate::json::encode_solutions(&after.solutions, &novelty.view());
        assert_eq!(
            during_rows, after_rows,
            "pre- and post-compaction answers must be byte-identical"
        );
        // Nothing staged: compacting again is a no-op.
        assert!(ep.compact().is_none());
    }

    #[test]
    fn writable_endpoint_explain_tracks_the_stale_window() {
        use crate::novelty::{NoveltyConfig, NoveltyStore};
        let s = Arc::new(store());
        let novelty = Arc::new(NoveltyStore::new(Arc::clone(&s), NoveltyConfig::default()));
        let mut cfg = EndpointConfig::decomposer_only();
        cfg.parallelism = Parallelism::fixed(2, 3);
        let ep = ElindaEndpoint::with_novelty(Arc::clone(&s), cfg, Arc::clone(&novelty));
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        let explain = ep.explain(&q);
        assert_eq!((explain.path, explain.shards), ("decomposed", 3));
        novelty.apply(
            &elinda_sparql::parse_update("INSERT DATA { <http://e/z> <http://e/p> <http://e/a> }")
                .unwrap(),
        );
        let explain = ep.explain(&q);
        assert_eq!(
            explain.path, "decomposed",
            "staged writes stay on the kernel"
        );
        assert_eq!(explain.data_epoch, novelty.epoch());
        ep.compact().unwrap();
        assert_eq!(ep.explain(&q).path, "decomposed");
    }

    #[test]
    fn write_demotes_fresh_cache_to_stale() {
        use crate::novelty::{NoveltyConfig, NoveltyStore};
        let s = Arc::new(store());
        let novelty = Arc::new(NoveltyStore::new(Arc::clone(&s), NoveltyConfig::default()));
        let ep = ElindaEndpoint::with_novelty(
            Arc::clone(&s),
            EndpointConfig::full(),
            Arc::clone(&novelty),
        );
        let q =
            property_expansion_sparql(elinda_rdf::vocab::owl::THING, ExpansionDirection::Outgoing);
        ep.execute(&q).unwrap();
        assert!(ep.cache_len() >= 1, "chart result cached fresh");
        novelty.apply(
            &elinda_sparql::parse_update("INSERT DATA { <http://e/w> <http://e/p> <http://e/a> }")
                .unwrap(),
        );
        // The next read syncs the cache to the new epoch: fresh entries
        // demote to the stale side (resilience ladder fodder).
        let out = ep.execute(&q).unwrap();
        assert_eq!(out.served_by, ServedBy::Decomposer);
        let stats = ep.cache_stats().unwrap();
        assert!(stats.invalidations >= 1, "write must demote fresh entries");
    }

    /// `/explain` and the live route are one function: for every
    /// configuration and exploration step, the predicted path and fan-out
    /// are the ones the execution that follows reports.
    #[test]
    fn explain_predicts_the_path_and_fanout_the_live_route_takes() {
        use crate::novelty::{NoveltyConfig, NoveltyStore};
        use crate::resilience::Deadline;
        use crate::trace::TraceCtx;

        let s = Arc::new(
            TripleStore::from_turtle(
                r#"
                @prefix ex: <http://e/> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:Person rdfs:subClassOf ex:Agent .
                ex:alice a ex:Agent , ex:Person ; ex:knows ex:bob .
                ex:bob a ex:Agent , ex:Person ; ex:knows ex:alice .
                ex:org a ex:Agent ; ex:owns ex:alice .
                "#,
            )
            .unwrap(),
        );
        let parent = property_expansion_sparql("http://e/Agent", ExpansionDirection::Outgoing);
        let child = property_expansion_sparql("http://e/Person", ExpansionDirection::Outgoing);
        let configs = [
            ("decomposer_only", EndpointConfig::decomposer_only(), false),
            ("full", EndpointConfig::full(), false),
            (
                "parallel",
                EndpointConfig::parallel(Parallelism::fixed(2, 4)),
                false,
            ),
            (
                "staged write",
                EndpointConfig::parallel(Parallelism::fixed(2, 4)),
                true,
            ),
        ];
        // (step, query run first, query explained then executed)
        let steps = [
            ("cold", None, &parent),
            ("repeated", Some(&parent), &parent),
            ("child after parent", Some(&parent), &child),
        ];
        for (name, config, staged_write) in configs {
            for (step, warm_up, q) in steps {
                let novelty = Arc::new(NoveltyStore::new(Arc::clone(&s), NoveltyConfig::default()));
                let ep = ElindaEndpoint::with_novelty(Arc::clone(&s), config.clone(), novelty);
                if let Some(first) = warm_up {
                    ep.execute(first).unwrap();
                }
                if staged_write {
                    let insert = "INSERT DATA { <http://e/z> <http://e/knows> <http://e/bob> }";
                    let novelty = ep.novelty().unwrap();
                    novelty.apply(&elinda_sparql::parse_update(insert).unwrap());
                }
                let predicted = ep.explain(q);
                let trace = TraceCtx::sampled("t");
                let ctx = QueryContext::with_deadline_and_trace(Deadline::unbounded(), trace);
                let outcome = ep.execute_with(q, &ctx).unwrap();
                let spans = ctx.trace.finish("ok").unwrap().spans;
                // A cache answer returns before the route decision.
                let taken = match outcome.served_by {
                    ServedBy::CacheHit => "cache-hit".to_string(),
                    _ => {
                        let route = spans.iter().find(|s| s.name == "route").unwrap();
                        route
                            .tags
                            .iter()
                            .find(|(k, _)| k == "path")
                            .unwrap()
                            .1
                            .clone()
                    }
                };
                assert_eq!(predicted.path, taken, "{name}, {step}: path");
                assert_eq!(
                    predicted.shards, outcome.shards_used,
                    "{name}, {step}: fan-out"
                );
            }
        }
    }

    #[test]
    fn hvs_respects_threshold() {
        let s = store();
        let mut cfg = EndpointConfig::full();
        cfg.hvs.heavy_threshold = Duration::from_secs(3600); // nothing is heavy
        let ep = ElindaEndpoint::new(&s, cfg);
        let q = "SELECT ?s WHERE { ?s ?p ?o }";
        ep.execute(q).unwrap();
        let out = ep.execute(q).unwrap();
        assert_eq!(out.served_by, ServedBy::Direct);
        assert_eq!(ep.hvs_len(), 0);
    }
}
