//! Serve a synthetic DBpedia-shaped store over the SPARQL protocol.
//!
//! ```text
//! cargo run --bin elinda-serve -- [--addr 127.0.0.1:7878] [--workers 4]
//!                                 [--queue-depth 64] [--scale 1.0]
//!                                 [--event-loop] [--max-connections 8192]
//!                                 [--keep-alive-timeout-ms 30000]
//!                                 [--max-requests-per-conn 1000]
//!                                 [--drain-timeout-ms 250]
//!                                 [--shards 8] [--intra-query-threads 0]
//!                                 [--deadline-ms 0] [--retry 0] [--breaker 5]
//!                                 [--trace-sample 0.0]
//!                                 [--cache-entries 512] [--cache-bytes 16777216]
//!                                 [--compact-interval-ms 1000]
//!                                 [--novelty-max-triples 4096]
//!                                 [--store-dir DIR] [--load FILE.nt]
//!                                 [--wal DIR] [--wal-sync always|never|interval[:MS]]
//!                                 [--wal-group-commit-us N]
//!                                 [--shard-role coordinator|shard]
//!                                 [--coordinator ADDR1,ADDR2,...]
//!                                 [--shard-map N] [--shard-id I]
//!                                 [--breaker-cooldown-ms N]
//! ```
//!
//! Where the store comes from, in priority order:
//!
//! * `--load FILE.nt` — stream the N-Triples file through the bulk
//!   loader; with `--store-dir` the result is also persisted as a new
//!   generation of that directory.
//! * `--store-dir DIR` — reopen the committed generation on disk,
//!   skipping datagen entirely. An empty directory bootstraps from
//!   datagen (at `--scale`) and persists generation 1; a corrupt one
//!   fails with a typed error and exit code 1.
//! * neither — generate the synthetic DBpedia store in memory, as before.
//!
//! With a store directory attached, every background compaction commits
//! the folded base as a new on-disk generation. A greppable
//! `cold-start:` line reports the source and timing for the bench
//! trajectory.
//!
//! With `--wal DIR`, every `POST /update` is appended to a checksummed
//! write-ahead log and fsynced (per `--wal-sync`) before it is acked;
//! on restart the log tail is replayed on top of the loaded store and a
//! greppable `wal-recovery:` line reports what came back. Compactions
//! seal the active segment at the fold point and discard sealed
//! segments once the folded base is durably persisted, so kill-at-any-
//! instant recovers to exactly the acked prefix.
//!
//! The **shard fabric** splits chart evaluation across processes.
//! `--shard-role shard --shard-map N --shard-id I` makes this process
//! shard `I` of a static map of `N`: it loads the dataset through the
//! ordinary bootstrap, partitions it by the standard subject hash, and
//! answers `POST /shard/eval` with partial aggregates over partition
//! `I`. `--shard-role coordinator --coordinator A1,A2,...` makes this
//! process the scatter-gather coordinator over that fleet (entry `i` of
//! the list must be shard `i`): recognized chart queries scatter to all
//! shards and the merged result is byte-identical to single-process
//! serving; everything else is served locally. Every process in the
//! fabric must bootstrap the identical dataset (same `--scale`/`--load`
//! input). The coordinator has no write path — `POST /update` answers
//! 503 — so `--wal` is rejected in coordinator role.
//!
//! Runs until stdin is closed or a line reading `quit` arrives (there is
//! no dependency-free portable signal handling), then drains in-flight
//! requests and exits.

use elinda_datagen::{generate_dbpedia, DbpediaConfig};
use elinda_endpoint::{
    BreakerConfig, CacheConfig, EndpointConfig, FabricConfig, NoveltyConfig, Parallelism,
    ResilienceConfig, RetryPolicy,
};
use elinda_server::{serve, ServerConfig, ServerState};
use elinda_store::{
    bulk_load_ntriples_path, PersistError, PersistentBackend, StoreBackend, TripleStore, Wal,
    WalConfig, WalSyncPolicy,
};
use std::io::BufRead;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    workers: usize,
    queue_depth: usize,
    scale: f64,
    shards: usize,
    /// Worker threads per query; 0 means derive the budget from the
    /// core count and `--workers` so the pools compose without
    /// oversubscription.
    intra_query_threads: usize,
    /// Per-request execution budget in milliseconds; 0 disables it.
    deadline_ms: u64,
    /// Retry attempts for transient failures of idempotent reads.
    retry: u32,
    /// Circuit-breaker failure threshold; 0 disables tripping.
    breaker: u32,
    /// Fraction of /sparql requests traced end-to-end; defaults to the
    /// `ELINDA_TRACE_SAMPLE` environment variable (else 0.0, off).
    trace_sample: f64,
    /// Result-cache entry budget; 0 disables the cache entirely.
    cache_entries: usize,
    /// Result-cache byte budget.
    cache_bytes: usize,
    /// Background-compactor period in milliseconds; 0 disables the
    /// compactor thread (writes accumulate in the novelty overlay).
    compact_interval_ms: u64,
    /// Staged-novelty size that wakes the compactor early.
    novelty_max_triples: usize,
    /// Persistent store directory; compactions commit new generations
    /// into it and restarts reload from it.
    store_dir: Option<String>,
    /// N-Triples file to bulk-load instead of running datagen.
    load: Option<String>,
    /// Write-ahead log directory; updates are appended (and fsynced per
    /// `--wal-sync`) before they are acked, and restarts replay the
    /// tail on top of the loaded store.
    wal: Option<String>,
    /// Durability policy: `always` (fsync per acked update), `never`,
    /// or `interval[:MS]`.
    wal_sync: WalSyncPolicy,
    /// Group-commit gather window in microseconds; 0 disables the wait
    /// (concurrent writers still share a leader's fsync).
    wal_group_commit_us: u64,
    /// Serve with the epoll-backed event-driven front-end (HTTP/1.1
    /// keep-alive + pipelining) instead of the blocking
    /// connection-per-worker model.
    event_loop: bool,
    /// Maximum simultaneously open connections under the event loop.
    max_connections: usize,
    /// Idle keep-alive timeout in milliseconds (event loop only).
    keep_alive_timeout_ms: u64,
    /// Requests per connection before the reactor closes it.
    max_requests_per_conn: usize,
    /// How long shed / rejected-request paths drain leftover client
    /// bytes before answering, in milliseconds.
    drain_timeout_ms: u64,
    /// Fabric role: `coordinator` scatters chart queries across the
    /// fleet, `shard` serves partial aggregates for one partition.
    shard_role: Option<String>,
    /// Coordinator role: comma-separated shard addresses in shard-id
    /// order.
    coordinator: Option<String>,
    /// Shard role: total shards in the static map.
    shard_map: Option<usize>,
    /// Shard role: this process's partition index.
    shard_id: Option<usize>,
    /// Circuit-breaker open-state cooldown in milliseconds (applies to
    /// both the serving breaker and the per-shard fabric breakers).
    breaker_cooldown_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        workers: 4,
        queue_depth: 64,
        scale: 1.0,
        shards: 8,
        intra_query_threads: 0,
        deadline_ms: 0,
        retry: 0,
        breaker: 5,
        trace_sample: ServerConfig::default().trace_sample,
        cache_entries: CacheConfig::default().max_entries,
        cache_bytes: CacheConfig::default().max_bytes,
        compact_interval_ms: 1000,
        novelty_max_triples: NoveltyConfig::default().max_triples,
        store_dir: None,
        load: None,
        wal: None,
        wal_sync: WalSyncPolicy::Always,
        wal_group_commit_us: 0,
        event_loop: false,
        max_connections: ServerConfig::default().max_connections,
        keep_alive_timeout_ms: ServerConfig::default().keep_alive_timeout.as_millis() as u64,
        max_requests_per_conn: ServerConfig::default().max_requests_per_conn,
        drain_timeout_ms: ServerConfig::default().drain_timeout.as_millis() as u64,
        shard_role: None,
        coordinator: None,
        shard_map: None,
        shard_id: None,
        breaker_cooldown_ms: BreakerConfig::default().open_cooldown.as_millis() as u64,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-depth" => {
                args.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--intra-query-threads" => {
                args.intra_query_threads = value("--intra-query-threads")?
                    .parse()
                    .map_err(|e| format!("--intra-query-threads: {e}"))?
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--retry" => {
                args.retry = value("--retry")?
                    .parse()
                    .map_err(|e| format!("--retry: {e}"))?
            }
            "--breaker" => {
                args.breaker = value("--breaker")?
                    .parse()
                    .map_err(|e| format!("--breaker: {e}"))?
            }
            "--trace-sample" => {
                args.trace_sample = value("--trace-sample")?
                    .parse::<f64>()
                    .map_err(|e| format!("--trace-sample: {e}"))?
                    .clamp(0.0, 1.0)
            }
            "--cache-entries" => {
                args.cache_entries = value("--cache-entries")?
                    .parse()
                    .map_err(|e| format!("--cache-entries: {e}"))?
            }
            "--cache-bytes" => {
                args.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| format!("--cache-bytes: {e}"))?
            }
            "--compact-interval-ms" => {
                args.compact_interval_ms = value("--compact-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--compact-interval-ms: {e}"))?
            }
            "--novelty-max-triples" => {
                args.novelty_max_triples = value("--novelty-max-triples")?
                    .parse()
                    .map_err(|e| format!("--novelty-max-triples: {e}"))?
            }
            "--store-dir" => args.store_dir = Some(value("--store-dir")?),
            "--load" => args.load = Some(value("--load")?),
            "--wal" => args.wal = Some(value("--wal")?),
            "--wal-sync" => {
                let text = value("--wal-sync")?;
                args.wal_sync = WalSyncPolicy::parse(&text)
                    .ok_or_else(|| format!("--wal-sync: unknown policy `{text}`"))?
            }
            "--wal-group-commit-us" => {
                args.wal_group_commit_us = value("--wal-group-commit-us")?
                    .parse()
                    .map_err(|e| format!("--wal-group-commit-us: {e}"))?
            }
            "--event-loop" => args.event_loop = true,
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--keep-alive-timeout-ms" => {
                args.keep_alive_timeout_ms = value("--keep-alive-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--keep-alive-timeout-ms: {e}"))?
            }
            "--max-requests-per-conn" => {
                args.max_requests_per_conn = value("--max-requests-per-conn")?
                    .parse()
                    .map_err(|e| format!("--max-requests-per-conn: {e}"))?
            }
            "--drain-timeout-ms" => {
                args.drain_timeout_ms = value("--drain-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-timeout-ms: {e}"))?
            }
            "--shard-role" => args.shard_role = Some(value("--shard-role")?),
            "--coordinator" => args.coordinator = Some(value("--coordinator")?),
            "--shard-map" => {
                args.shard_map = Some(
                    value("--shard-map")?
                        .parse()
                        .map_err(|e| format!("--shard-map: {e}"))?,
                )
            }
            "--shard-id" => {
                args.shard_id = Some(
                    value("--shard-id")?
                        .parse()
                        .map_err(|e| format!("--shard-id: {e}"))?,
                )
            }
            "--breaker-cooldown-ms" => {
                args.breaker_cooldown_ms = value("--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|e| format!("--breaker-cooldown-ms: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: elinda-serve [--addr HOST:PORT] [--workers N] \
                     [--queue-depth N] [--scale F] \
                     [--shards N (work units per chart query)] \
                     [--intra-query-threads N (0 = auto core budget)] \
                     [--deadline-ms N (0 = unbounded)] [--retry N] \
                     [--breaker N (failure threshold, 0 = never trips)] \
                     [--trace-sample F (0.0-1.0, default $ELINDA_TRACE_SAMPLE or 0)] \
                     [--cache-entries N (0 = disable result cache)] \
                     [--cache-bytes N] \
                     [--compact-interval-ms N (0 = no background compactor)] \
                     [--novelty-max-triples N (staged writes that wake it early)] \
                     [--store-dir DIR (persist compactions; reload on restart)] \
                     [--load FILE.nt (bulk-load instead of datagen)] \
                     [--wal DIR (append+fsync updates before acking; replay on restart)] \
                     [--wal-sync always|never|interval[:MS]] \
                     [--wal-group-commit-us N (fsync gather window)] \
                     [--event-loop (epoll front-end: keep-alive + pipelining)] \
                     [--max-connections N (event-loop connection cap)] \
                     [--keep-alive-timeout-ms N (idle connection close)] \
                     [--max-requests-per-conn N (close after N requests)] \
                     [--drain-timeout-ms N (rejected-request drain bound)] \
                     [--shard-role coordinator|shard (fabric role)] \
                     [--coordinator ADDR1,ADDR2,... (shard fleet, shard-id order)] \
                     [--shard-map N (total shards)] [--shard-id I (this partition)] \
                     [--breaker-cooldown-ms N (breaker open-state cooldown)]"
                    .into())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    match args.shard_role.as_deref() {
        None => {
            if args.coordinator.is_some() {
                return Err("--coordinator requires --shard-role coordinator".into());
            }
            if args.shard_map.is_some() || args.shard_id.is_some() {
                return Err("--shard-map/--shard-id require --shard-role shard".into());
            }
        }
        Some("coordinator") => {
            let fleet = args
                .coordinator
                .as_deref()
                .ok_or("--shard-role coordinator requires --coordinator ADDR1,ADDR2,...")?;
            if fleet.split(',').all(|a| a.trim().is_empty()) {
                return Err("--coordinator: the shard address list is empty".into());
            }
            if args.shard_map.is_some() || args.shard_id.is_some() {
                return Err(
                    "--shard-map/--shard-id are shard-role flags; the coordinator's \
                     map is the --coordinator address list"
                        .into(),
                );
            }
            if args.wal.is_some() {
                return Err("--wal is incompatible with --shard-role coordinator: the \
                     coordinator has no write path to log"
                    .into());
            }
        }
        Some("shard") => {
            let map = args
                .shard_map
                .ok_or("--shard-role shard requires --shard-map N")?;
            let id = args
                .shard_id
                .ok_or("--shard-role shard requires --shard-id I")?;
            if map == 0 {
                return Err("--shard-map: the shard map must name at least one shard".into());
            }
            if id >= map {
                return Err(format!(
                    "--shard-id: {id} is out of range for a map of {map} shards"
                ));
            }
            if args.coordinator.is_some() {
                return Err("--coordinator is a coordinator-role flag".into());
            }
        }
        Some(other) => {
            return Err(format!(
                "--shard-role: `{other}` is not a role (expected coordinator or shard)"
            ))
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let cold_start = Instant::now();
    let mut backend: Option<Arc<dyn StoreBackend>> = None;
    let source;
    let store: Arc<TripleStore> = if let Some(path) = &args.load {
        eprintln!("bulk-loading {path}...");
        let (loaded, report) = match bulk_load_ntriples_path(std::path::Path::new(path)) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("failed to bulk-load {path}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "loaded {} triples ({} duplicate, {} terms) from {} lines",
            report.triples, report.duplicates, report.terms, report.lines
        );
        let loaded = Arc::new(loaded);
        if let Some(dir) = &args.store_dir {
            match PersistentBackend::initialize(dir, Arc::clone(&loaded)) {
                Ok(b) => {
                    eprintln!("persisted as {dir} generation {}", b.generation());
                    backend = Some(Arc::new(b));
                }
                Err(e) => {
                    eprintln!("failed to persist into {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        source = "bulk-load";
        loaded
    } else if let Some(dir) = &args.store_dir {
        match PersistentBackend::open(dir) {
            Ok(b) => {
                eprintln!(
                    "reopened {dir} generation {} ({} triples, no datagen)",
                    b.generation(),
                    b.snapshot().len()
                );
                let snapshot = b.snapshot();
                backend = Some(Arc::new(b));
                source = "disk";
                snapshot
            }
            Err(PersistError::NoCurrentGeneration { .. }) => {
                // First run against an empty directory: bootstrap from
                // datagen, then persist generation 1.
                eprintln!(
                    "{dir} is empty; generating synthetic DBpedia store (scale {})...",
                    args.scale
                );
                let generated =
                    Arc::new(generate_dbpedia(&DbpediaConfig::tiny().scaled(args.scale)));
                match PersistentBackend::initialize(dir, Arc::clone(&generated)) {
                    Ok(b) => {
                        eprintln!("persisted as {dir} generation {}", b.generation());
                        backend = Some(Arc::new(b));
                    }
                    Err(e) => {
                        eprintln!("failed to persist into {dir}: {e}");
                        std::process::exit(1);
                    }
                }
                source = "datagen-bootstrap";
                generated
            }
            Err(e) => {
                eprintln!("failed to open store directory {dir}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        eprintln!(
            "generating synthetic DBpedia store (scale {})...",
            args.scale
        );
        source = "datagen";
        Arc::new(generate_dbpedia(&DbpediaConfig::tiny().scaled(args.scale)))
    };
    eprintln!(
        "cold-start: source={source} triples={} terms={} generation={} elapsed_ms={}",
        store.len(),
        store.interner().len(),
        backend
            .as_ref()
            .and_then(|b| b.committed_generation())
            .unwrap_or(0),
        cold_start.elapsed().as_millis()
    );

    // Per-request core budget: with W server workers on C cores, each
    // request gets max(1, C / W) threads so concurrent heavy queries
    // saturate the machine without oversubscribing it.
    let parallelism = if args.intra_query_threads == 0 {
        Parallelism::budgeted(args.workers, args.shards)
    } else {
        Parallelism::fixed(args.intra_query_threads, args.shards)
    };
    let deadline = (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms));
    let resilience = ResilienceConfig {
        default_deadline: deadline,
        retry: if args.retry > 0 {
            RetryPolicy::new(
                args.retry,
                Duration::from_millis(5),
                Duration::from_millis(100),
            )
        } else {
            RetryPolicy::disabled()
        },
        breaker: BreakerConfig {
            failure_threshold: if args.breaker > 0 {
                args.breaker
            } else {
                u32::MAX
            },
            open_cooldown: Duration::from_millis(args.breaker_cooldown_ms),
        },
        ..ResilienceConfig::default()
    };
    let mut endpoint_config = EndpointConfig::parallel(parallelism);
    if args.cache_entries == 0 {
        endpoint_config.enable_cache = false;
    } else {
        endpoint_config.cache = CacheConfig {
            max_entries: args.cache_entries,
            max_bytes: args.cache_bytes,
            ..CacheConfig::default()
        };
    }
    let novelty_config = NoveltyConfig {
        max_triples: args.novelty_max_triples,
    };
    let mut state = if args.shard_role.as_deref() == Some("coordinator") {
        // parse_args guarantees a non-empty address list in this role.
        let fleet: Vec<String> = args
            .coordinator
            .as_deref()
            .unwrap_or("")
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        eprintln!(
            "shard-fabric: coordinator scattering to {} shards: {}",
            fleet.len(),
            fleet.join(",")
        );
        let mut fabric_config = FabricConfig::new(fleet);
        // One breaker policy for the whole stack: the per-shard fabric
        // breakers trip and cool down like the serving breaker.
        fabric_config.breaker = resilience.breaker;
        if let Some(deadline) = deadline {
            fabric_config.request_timeout = deadline;
        }
        ServerState::with_fabric(store, fabric_config, endpoint_config, resilience)
    } else {
        match backend {
            Some(backend) => {
                ServerState::with_backend(backend, endpoint_config, resilience, novelty_config)
            }
            None => {
                ServerState::with_write_config(store, endpoint_config, resilience, novelty_config)
            }
        }
    };
    if args.shard_role.as_deref() == Some("shard") {
        // parse_args guarantees both values in this role.
        let (id, map) = (args.shard_id.unwrap_or(0), args.shard_map.unwrap_or(1));
        if let Err(e) = state.enable_shard_eval(id, map) {
            eprintln!("failed to enable shard role: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "shard-fabric: shard {id} of {map} ({} partition triples)",
            state
                .shard_evaluator()
                .map_or(0, |evaluator| evaluator.partition_len())
        );
    }
    if let Some(dir) = &args.wal {
        let wal_config = WalConfig {
            sync: args.wal_sync,
            group_commit_window: Duration::from_micros(args.wal_group_commit_us),
        };
        let (wal, recovery) = match Wal::open(std::path::Path::new(dir), wal_config) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("failed to open write-ahead log {dir}: {e}");
                std::process::exit(1);
            }
        };
        match state.attach_wal(Arc::new(wal), &recovery) {
            Ok(report) => eprintln!(
                "wal-recovery: replayed={} triples={} truncated={} torn={} segments={} sync={}",
                report.replayed_records,
                report.replayed_triples,
                report.truncated_bytes,
                report.torn,
                recovery.segments,
                args.wal_sync.name()
            ),
            Err(e) => {
                eprintln!("failed to replay write-ahead log {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
    let state = Arc::new(state);
    let config = ServerConfig {
        workers: args.workers,
        queue_depth: args.queue_depth,
        read_timeout: Duration::from_secs(5),
        handler_delay: Duration::ZERO,
        request_deadline: deadline,
        trace_sample: args.trace_sample,
        compact_interval: (args.compact_interval_ms > 0)
            .then(|| Duration::from_millis(args.compact_interval_ms)),
        drain_timeout: Duration::from_millis(args.drain_timeout_ms),
        event_loop: args.event_loop,
        max_connections: args.max_connections,
        keep_alive_timeout: Duration::from_millis(args.keep_alive_timeout_ms),
        max_requests_per_conn: args.max_requests_per_conn,
    };
    let handle = match serve(Arc::clone(&state), args.addr.as_str(), config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    eprintln!(
        "listening on http://{} ({} workers, queue depth {}, {} units × {} threads/query, {} front-end)",
        handle.local_addr(),
        args.workers,
        args.queue_depth,
        parallelism.shards,
        parallelism.threads,
        if args.event_loop {
            "event-loop"
        } else {
            "blocking"
        }
    );
    if args.event_loop {
        eprintln!(
            "keep-alive: max {} connections, idle timeout {}ms, {} requests/connection",
            args.max_connections, args.keep_alive_timeout_ms, args.max_requests_per_conn
        );
    }
    if args.trace_sample > 0.0 {
        eprintln!("tracing {:.0}% of requests", args.trace_sample * 100.0);
    }
    if args.compact_interval_ms > 0 {
        eprintln!(
            "background compactor: every {}ms or {} staged triples",
            args.compact_interval_ms, args.novelty_max_triples
        );
    }
    eprintln!(
        "routes: /sparql /update /shard/eval /health /metrics /explain /debug/trace/<id> — \
         type `quit` (or close stdin) to stop"
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    eprintln!("shutting down (draining in-flight requests)...");
    let counters = handle.counters();
    handle.shutdown();
    // Drain-time flush: fold and persist staged writes, then force a
    // final WAL fsync, so a clean shutdown leaves nothing to replay.
    if let Some(report) = state.shutdown_flush() {
        eprintln!(
            "shutdown-flush: folded={} generation={}",
            report.folded,
            report
                .persisted_generation
                .map_or_else(|| "none".to_string(), |g| g.to_string())
        );
    }
    eprintln!(
        "served {} requests ({} shed by admission control)",
        counters.served, counters.shed
    );
}
