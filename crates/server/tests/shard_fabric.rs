//! Cross-process differential + chaos suite for the shard fabric.
//!
//! Spawns **real** `elinda-serve` processes — a single-process reference,
//! shard fleets of {1, 2, 4}, and their scatter-gather coordinators — on
//! ephemeral ports and proves three things:
//!
//! * **Differential**: every golden paper chart and every seeded
//!   exploration query answers byte-identically through the coordinator
//!   and the single-process reference (and, for the pinned charts, the
//!   `tests/golden/` fixtures themselves).
//! * **Chaos**: SIGKILLing a shard mid-query and mid-session never
//!   hangs, never panics, and never yields a wrong answer — the
//!   coordinator answers explicitly degraded (or 503/504) within the
//!   deadline, the per-shard breaker opens, and respawning the shard on
//!   the same port re-closes it.
//! * **Partitioning invariants** (in-process proptest): every triple
//!   lands on exactly one shard, the shard union is the whole store, and
//!   merged partials equal whole-store counts under any completion
//!   order.

mod common;

use common::{http_request, sparql_get, ServerProcess};
use elinda_datagen::{generate_dbpedia, DbpediaConfig};
use elinda_endpoint::decomposer::{
    execute_decomposed, property_expansion_sparql, recognize_property_expansion, ExpansionDirection,
};
use elinda_endpoint::json::encode_solutions;
use elinda_endpoint::parallel::{
    merge_incoming_partials, merge_outgoing_partials, property_agg_solutions,
    property_partial_incoming, property_partial_outgoing,
};
use elinda_endpoint::{
    ElindaEndpoint, EndpointConfig, FabricConfig, FabricCoordinator, FaultInjector, FaultPlan,
    QueryEngine, ServeError, ServedBy,
};
use elinda_rdf::{vocab, TermId};
use elinda_sparql::parse_query;
use elinda_store::{shard_of, ClassHierarchy, ShardedTripleStore, TripleStore};
use proptest::prelude::*;
use proptest::test_runner::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIRECTIONS: [ExpansionDirection; 2] =
    [ExpansionDirection::Outgoing, ExpansionDirection::Incoming];

/// Classes the datagen DBpedia always contains, for exploration paths.
const CLASSES: [&str; 9] = [
    "Agent",
    "Person",
    "Organisation",
    "Philosopher",
    "Politician",
    "Scientist",
    "Writer",
    "Deity",
    "Family",
];

fn dbo(local: &str) -> String {
    format!("{}{local}", vocab::dbo::NS)
}

fn agent_subclass_chart() -> String {
    format!(
        "SELECT ?c (COUNT(?s) AS ?n) WHERE {{ \
         ?c <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{}> . ?s a ?c }} \
         GROUP BY ?c ORDER BY DESC(?n)",
        dbo("Agent")
    )
}

fn birthplace_object_chart() -> String {
    format!(
        "SELECT ?c (COUNT(?s) AS ?n) WHERE {{ \
         ?s a <{}> . ?s <{}> ?o . ?o a ?c }} GROUP BY ?c ORDER BY DESC(?n)",
        dbo("Person"),
        dbo("birthPlace")
    )
}

// ---------------------------------------------------------------------------
// Fleet plumbing
// ---------------------------------------------------------------------------

/// A coordinator plus its shard fleet, all real processes on ephemeral
/// ports. Every process bootstraps the identical deterministic dataset.
struct Fleet {
    shards: Vec<ServerProcess>,
    coordinator: ServerProcess,
}

impl Fleet {
    /// Spawn `n` shard processes (concurrently — boot is dominated by
    /// readiness probing) and a coordinator scattering to all of them.
    /// `extra` flags apply to every process in the fabric.
    fn spawn(n: usize, extra: &[&str]) -> Fleet {
        let shards: Vec<ServerProcess> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    scope.spawn(move || {
                        let map = n.to_string();
                        let id = i.to_string();
                        let mut args = vec![
                            "--shard-role",
                            "shard",
                            "--shard-map",
                            &map,
                            "--shard-id",
                            &id,
                        ];
                        args.extend_from_slice(extra);
                        ServerProcess::spawn(&args)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let addrs = shards
            .iter()
            .map(|s| s.addr.clone())
            .collect::<Vec<_>>()
            .join(",");
        let mut args = vec!["--shard-role", "coordinator", "--coordinator", &addrs];
        args.extend_from_slice(extra);
        let coordinator = ServerProcess::spawn(&args);
        Fleet {
            shards,
            coordinator,
        }
    }
}

fn metrics(addr: &str) -> String {
    http_request(addr, "GET", "/metrics", None)
        .expect("metrics request")
        .body
}

fn golden_fixture(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

// ---------------------------------------------------------------------------
// Satellite 1: the cross-process differential suite
// ---------------------------------------------------------------------------

/// Every golden paper chart, plus the two plain (direct-tier) charts,
/// byte-identical through coordinator fleets of {1, 2, 4} shards — and,
/// for the recognized charts, equal to the pinned fixtures and tagged
/// `X-Elinda-Served-By: fabric`.
#[test]
fn fleets_serve_golden_charts_byte_identically() {
    let reference = ServerProcess::spawn(&[]);
    let charts: Vec<(&str, String, bool)> = vec![
        (
            "politician_outgoing",
            property_expansion_sparql(&dbo("Politician"), ExpansionDirection::Outgoing),
            true,
        ),
        (
            "philosopher_incoming",
            property_expansion_sparql(&dbo("Philosopher"), ExpansionDirection::Incoming),
            true,
        ),
        ("agent_subclasses", agent_subclass_chart(), false),
        ("birthplace_food", birthplace_object_chart(), false),
    ];
    for n in [1usize, 2, 4] {
        let fleet = Fleet::spawn(n, &[]);
        for (name, query, recognized) in &charts {
            let expected = sparql_get(&reference.addr, query).expect("reference request");
            assert_eq!(expected.status, 200, "{name}: reference serves the chart");
            // Twice: the repeat visit must not drift either (cache tier).
            for pass in 0..2 {
                let got = sparql_get(&fleet.coordinator.addr, query).expect("coordinator request");
                assert_eq!(got.status, 200, "{name}: {n}-shard fleet pass {pass}");
                assert_eq!(
                    got.body, expected.body,
                    "{name}: {n}-shard fleet differs from single-process (pass {pass})"
                );
                if *recognized {
                    assert_eq!(
                        got.header("X-Elinda-Served-By"),
                        Some("fabric"),
                        "{name}: recognized charts scatter across the fabric"
                    );
                }
            }
            if *recognized {
                assert_eq!(
                    expected.body,
                    golden_fixture(&format!("{name}.json")),
                    "{name}: pinned paper-chart fixture"
                );
            }
        }
        // The coordinator reports its fabric in /metrics.
        let m = metrics(&fleet.coordinator.addr);
        assert!(
            m.contains("elinda_fabric_role{role=\"coordinator\"} 1"),
            "coordinator role gauge"
        );
        assert!(
            m.contains(&format!("elinda_fabric_shards {n}")),
            "fleet size gauge"
        );
        // Each shard serves `/shard/eval` and reports its partition.
        for (i, shard) in fleet.shards.iter().enumerate() {
            let partial = http_request(
                &shard.addr,
                "POST",
                "/shard/eval",
                Some(("application/sparql-query", &charts[0].1)),
            )
            .expect("shard eval");
            assert_eq!(partial.status, 200, "shard {i} serves partials");
            assert!(partial.body.contains("\"fabric\":1"), "fabric envelope tag");
            assert!(
                partial.body.contains(&format!("\"shard\":{i},\"of\":{n}")),
                "shard identity in the envelope"
            );
            let sm = metrics(&shard.addr);
            assert!(
                sm.contains("elinda_fabric_role{role=\"shard\"} 1"),
                "shard role gauge"
            );
            assert!(
                sm.contains(&format!("elinda_fabric_shard_id {i}")),
                "shard id gauge"
            );
        }
    }
    // A process without a shard role refuses the internal route.
    let refused = http_request(
        &reference.addr,
        "POST",
        "/shard/eval",
        Some(("application/sparql-query", &charts[0].1)),
    )
    .expect("refused eval");
    assert_eq!(
        refused.status, 404,
        "non-shard processes refuse /shard/eval"
    );
}

/// Seeded proptest exploration paths: class × direction drawn from
/// proptest strategies under a fixed seed, each answered byte-identically
/// by a 3-shard fabric and the single-process reference — including
/// non-chart direct-tier queries mixed into the path.
#[test]
fn seeded_exploration_paths_match_single_process() {
    let reference = ServerProcess::spawn(&[]);
    let fleet = Fleet::spawn(3, &[]);
    let strategy = (0u32..CLASSES.len() as u32, 0u32..2, 0u32..4);
    let mut rng = Rng::seed(0xe11a_fab1);
    for case in 0..16 {
        let (class, dir, shape) = strategy.generate(&mut rng);
        let query = match shape {
            // Mostly recognized chart expansions; a direct-tier chart
            // every fourth draw keeps the local delegate honest.
            3 => agent_subclass_chart(),
            _ => property_expansion_sparql(&dbo(CLASSES[class as usize]), DIRECTIONS[dir as usize]),
        };
        let expected = sparql_get(&reference.addr, &query).expect("reference request");
        let got = sparql_get(&fleet.coordinator.addr, &query).expect("coordinator request");
        assert_eq!(
            (got.status, got.body),
            (expected.status, expected.body),
            "exploration case {case} (class {}, {dir}, shape {shape})",
            CLASSES[class as usize]
        );
    }
    let m = metrics(&fleet.coordinator.addr);
    assert!(
        m.contains("elinda_fabric_scatter_queries_total"),
        "scatter counter exported"
    );
}

// ---------------------------------------------------------------------------
// Satellite 2: chaos — SIGKILL a shard mid-query and mid-session
// ---------------------------------------------------------------------------

/// The coordinator's response to a request overlapping a shard SIGKILL:
/// explicitly degraded 200, a typed 503/504, or — if the request won the
/// race — a byte-correct fabric answer. Anything else (a hang past the
/// deadline, a wrong answer, a 500) fails the suite.
fn assert_degraded_or_correct(
    resp: &common::TestResponse,
    elapsed: Duration,
    expected_body: &str,
    what: &str,
) {
    assert!(
        elapsed <= Duration::from_millis(600),
        "{what}: answered in {elapsed:?}, past deadline + 100ms"
    );
    match resp.status {
        200 => {
            let served_by = resp.header("X-Elinda-Served-By").unwrap_or("");
            match served_by {
                "degraded-local" | "degraded-stale" => {}
                "fabric" => assert_eq!(
                    resp.body, expected_body,
                    "{what}: a fabric-served answer must stay byte-correct"
                ),
                other => panic!("{what}: unexpected component `{other}` during chaos"),
            }
        }
        503 | 504 => {}
        other => panic!("{what}: unexpected status {other} during chaos"),
    }
}

#[test]
fn sigkilled_shard_degrades_within_deadline_and_breaker_recovers() {
    let chaos_flags = [
        "--deadline-ms",
        "500",
        "--retry",
        "1",
        "--breaker",
        "3",
        "--breaker-cooldown-ms",
        "200",
    ];
    let mut fleet = Fleet::spawn(2, &chaos_flags);
    let query = property_expansion_sparql(&dbo("Politician"), ExpansionDirection::Outgoing);

    // Healthy warm-up: the fabric serves the canonical bytes.
    let healthy = sparql_get(&fleet.coordinator.addr, &query).expect("warm-up");
    assert_eq!(healthy.status, 200);
    assert_eq!(healthy.header("X-Elinda-Served-By"), Some("fabric"));
    let expected = healthy.body.clone();

    // Mid-query: fire the request, SIGKILL shard 1 while it is in
    // flight, and hold the coordinator to the degradation contract.
    let coordinator_addr = fleet.coordinator.addr.clone();
    let in_flight = {
        let query = query.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            let resp = sparql_get(&coordinator_addr, &query).expect("mid-query request");
            (resp, start.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(3));
    fleet.shards[1].kill();
    let (resp, elapsed) = in_flight.join().expect("mid-query thread");
    assert_degraded_or_correct(&resp, elapsed, &expected, "mid-query kill");

    // Mid-session: every subsequent request degrades explicitly, inside
    // the deadline, until the per-shard breaker opens.
    for i in 0..8 {
        let start = Instant::now();
        let resp = sparql_get(&fleet.coordinator.addr, &query).expect("mid-session request");
        assert_degraded_or_correct(
            &resp,
            start.elapsed(),
            &expected,
            &format!("mid-session request {i}"),
        );
    }
    let mut opened = false;
    for _ in 0..40 {
        let _ = sparql_get(&fleet.coordinator.addr, &query);
        let m = metrics(&fleet.coordinator.addr);
        if m.contains("elinda_fabric_shard_breaker_open{shard=\"1\"} 1") {
            opened = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        opened,
        "shard 1's breaker opens after repeated kill failures"
    );
    let m = metrics(&fleet.coordinator.addr);
    assert!(
        m.contains("elinda_fabric_shard_breaker_open{shard=\"0\"} 0"),
        "the healthy shard's breaker stays closed"
    );

    // Recovery: respawn the shard on the same port the coordinator's
    // static map names; the breaker half-opens after its cooldown, the
    // probe succeeds, and the fabric serves canonically again.
    let addr = fleet.shards[1].addr.clone();
    let args = fleet.shards[1].spawn_args().to_vec();
    fleet.shards[1] = ServerProcess::respawn_at(&addr, &args);
    let recovery_deadline = Instant::now() + Duration::from_secs(15);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let resp = sparql_get(&fleet.coordinator.addr, &query).expect("recovery probe");
        if resp.status == 200 && resp.header("X-Elinda-Served-By") == Some("fabric") {
            assert_eq!(resp.body, expected, "recovered fabric answer is canonical");
            break;
        }
        assert!(
            Instant::now() < recovery_deadline,
            "fabric did not recover after the shard respawned"
        );
    }
    let m = metrics(&fleet.coordinator.addr);
    assert!(
        m.contains("elinda_fabric_shard_breaker_open{shard=\"1\"} 0"),
        "shard 1's breaker re-closed after recovery"
    );
}

/// Satellite 2 (fault-injection arm): a deterministic [`FaultInjector`]
/// attached to an in-process coordinator injects its profile into *real*
/// TCP shard connections. Every outcome is either a byte-correct fabric
/// answer or a typed transient/unavailable/deadline error — never a
/// wrong answer, never a query-shaped error, never a panic.
#[test]
fn fault_injector_profiles_apply_to_real_shard_connections() {
    let shards = [
        ServerProcess::spawn(&[
            "--shard-role",
            "shard",
            "--shard-map",
            "2",
            "--shard-id",
            "0",
        ]),
        ServerProcess::spawn(&[
            "--shard-role",
            "shard",
            "--shard-map",
            "2",
            "--shard-id",
            "1",
        ]),
    ];
    let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny()));
    let hierarchy = ClassHierarchy::build(&store);
    let query = property_expansion_sparql(&dbo("Politician"), ExpansionDirection::Outgoing);
    let rec = recognize_property_expansion(&parse_query(&query).unwrap()).unwrap();
    let expected = encode_solutions(&execute_decomposed(&store, &hierarchy, &rec), &store);

    let mut config = FabricConfig::new(vec![shards[0].addr.clone(), shards[1].addr.clone()]);
    // The two shard clients draw from the shared fault schedule in a
    // racy order, so one of them can see five failures in a row; an open
    // breaker would then reject a request before it reaches the
    // injector and break the accounting below. Breakers are the SIGKILL
    // test's subject, not this one's.
    config.breaker.failure_threshold = u32::MAX;
    let injector = Arc::new(FaultInjector::new(FaultPlan::transient(0xfab, 0.35)));
    let local = ElindaEndpoint::new(Arc::clone(&store), EndpointConfig::decomposer_only());
    let coordinator = FabricCoordinator::new(Arc::clone(&store), config, Box::new(local))
        .with_fault_injector(Arc::clone(&injector));

    let (mut ok, mut failed) = (0u32, 0u32);
    for _ in 0..40 {
        match coordinator.execute(&query) {
            Ok(outcome) => {
                assert_eq!(outcome.served_by, ServedBy::Fabric);
                assert_eq!(
                    encode_solutions(&outcome.solutions, &store),
                    expected,
                    "a successful scatter under faults is still byte-correct"
                );
                ok += 1;
            }
            Err(
                ServeError::Transient(_)
                | ServeError::Unavailable(_)
                | ServeError::DeadlineExceeded,
            ) => failed += 1,
            Err(other) => panic!("fault injection leaked a non-transient error: {other:?}"),
        }
    }
    assert_eq!(
        injector.requests(),
        80,
        "every shard request consults the injector"
    );
    assert!(injector.injected() > 0, "the profile actually fired");
    assert!(
        ok > 0,
        "fault-free scatters still succeed ({failed} failed)"
    );
    assert!(
        failed > 0,
        "injected faults surface as typed errors ({ok} ok)"
    );
    let stats = coordinator.stats();
    assert_eq!(stats.scattered, 40);
    assert_eq!(stats.gathered + stats.gather_failures, 40);
}

// ---------------------------------------------------------------------------
// Satellite 3: partitioning invariants (in-process proptest)
// ---------------------------------------------------------------------------

fn seeded_store(seed: u64, scale_pct: u32) -> TripleStore {
    let mut cfg = DbpediaConfig::tiny().scaled(f64::from(scale_pct) / 100.0);
    cfg.seed = seed;
    generate_dbpedia(&cfg)
}

/// The most populous class — guaranteed to exercise a non-trivial
/// aggregation in the merge invariant.
fn busiest_class(store: &TripleStore, hierarchy: &ClassHierarchy) -> TermId {
    hierarchy
        .classes()
        .iter()
        .copied()
        .max_by_key(|&c| hierarchy.instance_count(store, c))
        .expect("datagen always emits classes")
}

/// Fisher–Yates under the given seed: the shuffled completion order the
/// merge invariant runs the partials through.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::seed(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every triple lands on exactly the shard its subject hashes to,
    /// and the union of the partitions is the whole store.
    #[test]
    fn every_triple_lands_on_exactly_one_shard(
        seed in 0u64..10_000,
        shards in 1u32..9,
        scale_pct in 15u32..45,
    ) {
        let store = seeded_store(seed, scale_pct);
        let n = shards as usize;
        let sharded = ShardedTripleStore::build(&store, n);
        prop_assert_eq!(sharded.num_shards(), n);
        prop_assert_eq!(sharded.len(), store.len());
        let mut union = Vec::with_capacity(store.len());
        for (i, shard) in sharded.shards().enumerate() {
            for t in shard.spo_slice() {
                prop_assert_eq!(shard_of(t.s, n), i, "triple on a foreign shard");
            }
            union.extend(shard.spo_slice().iter().copied());
        }
        union.sort_unstable();
        prop_assert_eq!(union, store.spo_slice().to_vec());
    }

    /// Merged per-shard partials equal whole-store counts — under any
    /// (shuffled) partial completion order, both directions.
    #[test]
    fn merged_partials_equal_whole_store_counts_in_any_order(
        seed in 0u64..10_000,
        shards in 1u32..9,
        order_seed in any::<u64>(),
    ) {
        let store = seeded_store(seed, 30);
        let hierarchy = ClassHierarchy::build(&store);
        let class = busiest_class(&store, &hierarchy);
        let class_iri = store.resolve(class).as_iri().expect("classes are IRIs").to_string();
        let instances = hierarchy.instances(&store, class);
        let n = shards as usize;
        let sharded = ShardedTripleStore::build(&store, n);
        for dir in DIRECTIONS {
            let text = property_expansion_sparql(&class_iri, dir);
            let rec = recognize_property_expansion(&parse_query(&text).unwrap()).unwrap();
            let expected =
                encode_solutions(&execute_decomposed(&store, &hierarchy, &rec), &store);
            let merged = match dir {
                ExpansionDirection::Outgoing => {
                    let mut partials: Vec<_> = (0..n)
                        .map(|i| property_partial_outgoing(sharded.shard(i), i, n, &instances))
                        .collect();
                    shuffle(&mut partials, order_seed);
                    merge_outgoing_partials(partials)
                }
                ExpansionDirection::Incoming => {
                    let mut partials: Vec<_> = (0..n)
                        .map(|i| property_partial_incoming(sharded.shard(i), &instances))
                        .collect();
                    shuffle(&mut partials, order_seed);
                    merge_incoming_partials(partials)
                }
            };
            let solutions = property_agg_solutions(merged, &rec.columns, &store);
            prop_assert_eq!(
                encode_solutions(&solutions, &store),
                expected,
                "shuffled {n}-shard merge drifted from the whole store"
            );
        }
    }
}
