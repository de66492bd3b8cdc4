//! The traced run: an in-process, single-threaded replay of a workload's
//! first requests with a span around every call into a layer, and the
//! stand-alone probes of the layers a replay does not reach. All timing
//! is done here, around calls to public functions; the program itself
//! is not instrumented.

use crate::stats::{mean, median, self_time_us, Span};
use crate::workload::{instance_update, Kind, Op, Pool, Workload};
use elinda_endpoint::decomposer::execute_decomposed;
use elinda_endpoint::incremental::execute_decomposed_from_frontier;
use elinda_endpoint::json::encode_solutions;
use elinda_endpoint::parallel::execute_decomposed_sharded;
use elinda_endpoint::{
    encode_update, normalize_query_text, recognize_property_expansion, CacheConfig, ElindaEndpoint,
    EndpointConfig, NoveltyConfig, NoveltyStore, Parallelism, QueryContext, QueryEngine,
    ResultCache, ServedBy,
};
use elinda_server::{served_by_name, Request, Response};
use elinda_sparql::{parse_query, parse_update, Executor};
use elinda_store::{
    load_current, save_generation, ClassHierarchy, ShardedTripleStore, TripleStore, Wal, WalConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the store snapshot, `elinda-serve`'s default `--shards`.
pub const SHARDS: usize = 8;

/// Writes after which the replay folds the overlay, standing in for the
/// server's background compactor: at `write-mix`'s paced rate the
/// one-second compactor finds two or three writes staged.
const COMPACT_EVERY: usize = 2;

/// Updates the overlay probe stages before its one fold.
const PROBE_UPDATES: u64 = 20;

/// Most spans one request records: root, five children, four probes.
pub const SPANS_PER_REQUEST: usize = 10;

/// Root span of a request.
const ROOT: &str = "request";

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now, with room for `spans` spans so
    /// that no traced request pays for the list growing.
    pub fn new(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a span.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of the spans named `name`, µs.
    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .fold(0.0, |sum, us| sum + us)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}{}\n",
                s.id,
                s.name,
                s.start_us,
                s.end_us,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// The endpoint configuration `elinda-serve` builds from the flags the
/// benchmark passes.
pub fn serving_config(workload: &Workload, workers: usize) -> EndpointConfig {
    let mut config = EndpointConfig::parallel(Parallelism::budgeted(workers, SHARDS));
    config.enable_cache = workload.cache;
    config
}

/// Replay the first `requests` requests of the stream in process and
/// return the per-layer metrics read off the spans.
pub fn replay(
    tracer: &mut Tracer,
    store: &Arc<TripleStore>,
    pool: &Pool,
    workload: &Workload,
    workers: usize,
    requests: usize,
    wal_dir: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let config = serving_config(workload, workers);
    let parallelism = config.parallelism;
    let writes = workload.write_every.is_some();
    let novelty = writes.then(|| {
        Arc::new(NoveltyStore::new(
            Arc::clone(store),
            NoveltyConfig::default(),
        ))
    });
    let endpoint = match &novelty {
        Some(novelty) => {
            ElindaEndpoint::with_novelty(Arc::clone(store), config, Arc::clone(novelty))
        }
        None => ElindaEndpoint::new(Arc::clone(store), config),
    };
    let wal = match writes {
        true => Some(
            Wal::open(wal_dir, WalConfig::default())
                .map_err(|e| format!("cannot open the replay's log: {e}"))?
                .0,
        ),
        false => None,
    };
    let sharded = ShardedTripleStore::build(store, SHARDS);
    let context = QueryContext::default();
    let (mut staged, mut compactions) = (0usize, 0u64);
    let mut body_bytes = Vec::with_capacity(requests);

    // Like the end-to-end warm-up: every distinct read once, untraced,
    // so that the trace shows the steady state and not the first fill
    // of the cache.
    if workload.cache {
        for read in &pool.distinct {
            endpoint
                .execute_with(&read.query, &context)
                .map_err(|e| format!("warming the replay failed: {e}"))?;
        }
    }

    for i in 0..requests as u64 {
        let op = pool.op(i);
        let root = tracer.open(ROOT, None, i);
        let parsed = tracer.timed("server.http.parse", Some(root), i, || {
            Request::try_parse(op.wire())
        });
        let Ok(Some((request, _))) = parsed else {
            return Err(format!("request {i} of the stream does not parse"));
        };
        match &op {
            Op::Read(_) => {
                let query = request.param("query").unwrap_or_default();
                let normalized = tracer.timed("endpoint.cache.normalize", Some(root), i, || {
                    normalize_query_text(query)
                });
                let outcome = tracer
                    .timed("endpoint.router.execute", Some(root), i, || {
                        endpoint.execute_with(query, &context)
                    })
                    .map_err(|e| format!("request {i} failed in the replay: {e}"))?;
                let view = novelty.as_ref().map(|n| n.view());
                let current: &TripleStore = view.as_deref().unwrap_or(store);
                let body = tracer.timed("endpoint.json.encode", Some(root), i, || {
                    encode_solutions(&outcome.solutions, current)
                });
                let bytes = body.len();
                let served_by = served_by_name(outcome.served_by);
                tracer.timed("server.http.serialize", Some(root), i, || {
                    black_box(
                        Response::sparql_json(200, body)
                            .header("X-Elinda-Served-By", served_by)
                            .serialize(false),
                    )
                });
                tracer.close(root);
                body_bytes.push(bytes as f64);

                // Probes of what `execute_with` did inside, on the same
                // query, outside the request's span tree. A cached
                // answer did none of this work.
                if matches!(outcome.served_by, ServedBy::CacheHit | ServedBy::Hvs) {
                    continue;
                }
                let ast = tracer
                    .timed("sparql.parser.parse", None, i, || parse_query(&normalized))
                    .map_err(|e| format!("request {i} does not parse: {e}"))?;
                let recognized = tracer.timed("endpoint.decomposer.recognize", None, i, || {
                    recognize_property_expansion(&ast)
                });
                let hierarchy = endpoint.hierarchy();
                match (outcome.served_by, &recognized) {
                    (ServedBy::Decomposer, Some(chart)) => {
                        tracer.timed("endpoint.decomposer.eval", None, i, || {
                            black_box(execute_decomposed(current, &hierarchy, chart))
                        });
                        if !sharded.is_stale(current) {
                            tracer.timed("endpoint.parallel.eval", None, i, || {
                                black_box(execute_decomposed_sharded(
                                    current,
                                    &sharded,
                                    &hierarchy,
                                    chart,
                                    &parallelism,
                                ))
                            });
                        }
                    }
                    (ServedBy::Incremental, Some(chart)) => {
                        let members = current
                            .interner()
                            .get(&chart.class)
                            .map(|class| hierarchy.instances(current, class))
                            .unwrap_or_default();
                        tracer.timed("endpoint.incremental.eval", None, i, || {
                            black_box(execute_decomposed_from_frontier(current, &members, chart))
                        });
                    }
                    _ => {
                        tracer
                            .timed("sparql.exec.execute", None, i, || {
                                Executor::new(current).execute(&ast)
                            })
                            .map_err(|e| format!("request {i} failed on the executor: {e}"))?;
                    }
                }
            }
            Op::Write { .. } => {
                let (novelty, wal) = (
                    novelty.as_ref().expect("a write workload has an overlay"),
                    wal.as_ref().expect("a write workload has a log"),
                );
                let text = String::from_utf8_lossy(&request.body);
                let update = tracer
                    .timed("sparql.parser.parse", Some(root), i, || parse_update(&text))
                    .map_err(|e| format!("update {i} does not parse: {e}"))?;
                tracer
                    .timed("store.wal.append", Some(root), i, || {
                        let at = wal.append(&encode_update(&update))?;
                        wal.sync_to(at)
                    })
                    .map_err(|e| format!("the replay's log failed: {e}"))?;
                let outcome = tracer.timed("endpoint.novelty.apply", Some(root), i, || {
                    novelty.apply(&update)
                });
                tracer.timed("server.http.serialize", Some(root), i, || {
                    black_box(
                        Response::json(200, format!("{{\"epoch\":{}}}", outcome.epoch))
                            .serialize(false),
                    )
                });
                tracer.close(root);
                staged += 1;
                if staged == COMPACT_EVERY {
                    tracer.timed("endpoint.novelty.compact", None, i, || endpoint.compact());
                    staged = 0;
                    compactions += 1;
                }
            }
        }
    }

    let per_request = |name: &str| tracer.total_us(name) / requests as f64;
    // A request's root span, its children and its probes sit between
    // its root and the next one, so the self time of a root is taken
    // over that stretch only.
    let roots: Vec<usize> = tracer
        .spans
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| s.id)
        .collect();
    let root_us: Vec<f64> = roots
        .iter()
        .map(|&id| tracer.spans[id].duration_us())
        .collect();
    let coverage: Vec<f64> = roots
        .iter()
        .enumerate()
        .map(|(n, &id)| {
            let end = roots.get(n + 1).copied().unwrap_or(tracer.spans.len());
            let root = &tracer.spans[id];
            1.0 - self_time_us(root, &tracer.spans[id..end]) / root.duration_us()
        })
        .collect();

    let mut metrics = BTreeMap::new();
    for (metric, span) in [
        ("server.http.parse_us", "server.http.parse"),
        ("server.http.serialize_us", "server.http.serialize"),
        ("endpoint.cache.normalize_us", "endpoint.cache.normalize"),
        ("endpoint.router.execute_us", "endpoint.router.execute"),
        (
            "endpoint.decomposer.recognize_us",
            "endpoint.decomposer.recognize",
        ),
        ("endpoint.decomposer.eval_us", "endpoint.decomposer.eval"),
        ("endpoint.parallel.eval_us", "endpoint.parallel.eval"),
        ("endpoint.incremental.eval_us", "endpoint.incremental.eval"),
        ("endpoint.json.encode_us", "endpoint.json.encode"),
        ("sparql.parser.parse_us", "sparql.parser.parse"),
        ("sparql.exec.execute_us", "sparql.exec.execute"),
    ] {
        metrics.insert(metric, per_request(span));
    }
    metrics.insert("endpoint.json.body_bytes", mean(&body_bytes));
    metrics.insert("endpoint.novelty.compactions", compactions as f64);
    metrics.insert("trace.requests", requests as f64);
    metrics.insert("trace.request_mean_us", mean(&root_us));
    metrics.insert("trace.request_p50_us", median(&root_us));
    metrics.insert("trace.coverage_mean_share", mean(&coverage));
    metrics.insert(
        "trace.coverage_min_share",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
    );
    Ok(metrics)
}

/// Time `f` once, in milliseconds.
fn once_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Probes of the layers below the router that no replay reaches on
/// every workload: cache lookup, write overlay, log, persistence and the
/// derived indexes. `scratch` is an empty directory of the probes' own.
pub fn layer_probes(
    store: &Arc<TripleStore>,
    pool: &Pool,
    seed: u64,
    scratch: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut metrics = BTreeMap::new();

    // Result cache: a lookup of a resident key.
    const LOOKUPS: usize = 2000;
    let first = &pool.distinct[0];
    let key = normalize_query_text(&first.query);
    let solutions = Executor::new(store)
        .run(&first.query)
        .map_err(|e| format!("cache probe query failed: {e}"))?;
    let cache = ResultCache::new(CacheConfig::default());
    cache.sync_epoch(store.epoch());
    cache.record(&key, &solutions, store.epoch());
    let start = Instant::now();
    for _ in 0..LOOKUPS {
        if black_box(cache.get(black_box(&key))).is_none() {
            return Err("the cache probe's key is not resident".into());
        }
    }
    metrics.insert(
        "endpoint.cache.get_us",
        start.elapsed().as_secs_f64() * 1e6 / LOOKUPS as f64,
    );

    // Write overlay: staged applies, then one fold.
    let updates: Vec<_> = (0..PROBE_UPDATES)
        .map(|n| {
            parse_update(&instance_update(Kind::Insert, seed, n, &first.class_iri))
                .expect("generated updates parse")
        })
        .collect();
    let novelty = NoveltyStore::new(Arc::clone(store), NoveltyConfig::default());
    let start = Instant::now();
    for update in &updates {
        black_box(novelty.apply(update));
    }
    metrics.insert(
        "endpoint.novelty.apply_us",
        start.elapsed().as_secs_f64() * 1e6 / updates.len() as f64,
    );
    let (folded, compact_ms) = once_ms(|| novelty.compact());
    if folded.is_none() {
        return Err("the overlay probe had nothing to fold".into());
    }
    metrics.insert("endpoint.novelty.compact_ms", compact_ms);
    drop(novelty);

    // Write-ahead log, fsync before every ack.
    const APPENDS: u64 = 200;
    let wal_dir = scratch.join("wal");
    let (wal, _) = Wal::open(&wal_dir, WalConfig::default())
        .map_err(|e| format!("cannot open the probe's log: {e}"))?;
    let payloads: Vec<Vec<u8>> = (0..APPENDS)
        .map(|n| encode_update(&updates[n as usize % updates.len()]))
        .collect();
    let start = Instant::now();
    for payload in &payloads {
        wal.append(payload)
            .and_then(|at| wal.sync_to(at))
            .map_err(|e| format!("the probe's log failed: {e}"))?;
    }
    metrics.insert(
        "store.wal.append_us",
        start.elapsed().as_secs_f64() * 1e6 / APPENDS as f64,
    );
    let stats = wal.stats();
    metrics.insert(
        "store.wal.fsyncs_per_append",
        stats.fsyncs as f64 / stats.appended_records as f64,
    );
    metrics.insert(
        "store.wal.bytes_per_update",
        stats.appended_bytes as f64 / stats.appended_records as f64,
    );
    drop(wal);
    let (reopened, recovery_ms) = once_ms(|| Wal::open(&wal_dir, WalConfig::default()));
    let (_, recovery) = reopened.map_err(|e| format!("cannot reopen the probe's log: {e}"))?;
    if recovery.records.len() as u64 != APPENDS {
        return Err(format!(
            "the probe's log recovered {} of {APPENDS} records",
            recovery.records.len()
        ));
    }
    metrics.insert("store.wal.recovery_ms", recovery_ms);

    // Persistence: one generation out and back in.
    let store_dir = scratch.join("store");
    let (saved, save_ms) = once_ms(|| save_generation(&store_dir, store));
    saved.map_err(|e| format!("cannot save the probe's generation: {e}"))?;
    metrics.insert("store.persist.save_ms", save_ms);
    metrics.insert(
        "store.persist.bytes_per_triple",
        dir_bytes(&store_dir) as f64 / store.len() as f64,
    );
    let (loaded, load_ms) = once_ms(|| load_current(&store_dir));
    let (loaded, _) = loaded.map_err(|e| format!("cannot load the probe's generation: {e}"))?;
    if loaded.len() != store.len() {
        return Err("the probe's generation lost triples".into());
    }
    metrics.insert("store.persist.load_ms", load_ms);
    drop(loaded);

    // Derived indexes, rebuilt after every fold.
    metrics.insert(
        "store.schema.hierarchy_build_ms",
        once_ms(|| black_box(ClassHierarchy::build(store))).1,
    );
    metrics.insert(
        "store.shard.build_ms",
        once_ms(|| black_box(ShardedTripleStore::build(store, SHARDS))).1,
    );
    Ok(metrics)
}
