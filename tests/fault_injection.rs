//! Seeded chaos suite for the fault-tolerant query path.
//!
//! An exploration-shaped workload runs against a simulated remote
//! backend injecting 10% transient faults (connection errors, stalls,
//! malformed SPARQL-JSON) from a fixed seed. Every response must be
//! either byte-identical to the fault-free run or carry an explicit
//! degraded/timeout marker — never a hang, a panic, or a silently
//! truncated result. Alongside: a proptest that the circuit breaker's
//! transition counters are monotone under arbitrary event orders, and
//! the acceptance check that a deadline expiring mid-parallel-evaluation
//! returns within deadline + 100 ms.

use elinda::datagen::{generate_dbpedia, DbpediaConfig};
use elinda::endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
use elinda::endpoint::json::encode_solutions;
use elinda::endpoint::parallel::try_map_units;
use elinda::endpoint::resilience::{BreakerConfig, CircuitBreaker, Deadline};
use elinda::endpoint::{
    ElindaEndpoint, EndpointConfig, FaultPlan, Parallelism, QueryContext, QueryEngine,
    RemoteConfig, RemoteEndpoint, ResilienceConfig, ResilientEndpoint, RetryPolicy, ServeError,
    ServedBy,
};
use elinda::rdf::vocab;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAOS_SEED: u64 = 0x00e1_1da0_c4a0;

/// The exploration-shaped workload: the Fig. 2 drill-down classes, each
/// asked for its property chart (both directions), its instance table,
/// and its subclass chart — what the frontend issues along a session.
fn workload() -> Vec<String> {
    let mut queries = Vec::new();
    for class in ["Agent", "Person", "Philosopher", "Scientist"] {
        let iri = format!("{}{class}", vocab::dbo::NS);
        queries.push(property_expansion_sparql(
            &iri,
            ExpansionDirection::Outgoing,
        ));
        queries.push(property_expansion_sparql(
            &iri,
            ExpansionDirection::Incoming,
        ));
        queries.push(format!("SELECT ?s WHERE {{ ?s a <{iri}> }}"));
        queries.push(format!(
            "SELECT ?c WHERE {{ ?c <{}> <{iri}> }}",
            vocab::rdfs::SUB_CLASS_OF
        ));
    }
    queries
}

fn chaos_config() -> ResilienceConfig {
    ResilienceConfig {
        default_deadline: None,
        retry: RetryPolicy::new(3, Duration::from_micros(100), Duration::from_millis(1)),
        breaker: BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(5),
        },
        ..ResilienceConfig::default()
    }
}

#[test]
fn chaos_run_is_correct_complete_or_explicitly_degraded() {
    let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny()));
    let queries = workload();

    // Fault-free reference bodies, computed through the same remote wire
    // path the chaos run uses (so byte-identity is meaningful).
    let reference = RemoteEndpoint::new(Arc::clone(&store), RemoteConfig::instant());
    let baseline: Vec<String> = queries
        .iter()
        .map(|q| {
            let out = reference.execute(q).expect("fault-free run must succeed");
            encode_solutions(&out.solutions, &store)
        })
        .collect();

    // The chaos stack: the same remote, now injecting 10% transient
    // faults, wrapped with retry + breaker and the local router as the
    // degradation-ladder fallback.
    let faulty = RemoteEndpoint::new(Arc::clone(&store), RemoteConfig::instant())
        .with_faults(FaultPlan::transient(CHAOS_SEED, 0.1));
    let ep = ResilientEndpoint::new(Box::new(faulty), chaos_config()).with_fallback(Box::new(
        ElindaEndpoint::new(Arc::clone(&store), EndpointConfig::full()),
    ));

    let rounds = 5;
    let deadline_budget = Duration::from_secs(5);
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut explicit_errors = 0u64;
    for _ in 0..rounds {
        for (i, query) in queries.iter().enumerate() {
            let ctx = QueryContext::with_deadline(Deadline::within(deadline_budget));
            let started = Instant::now();
            let result = ep.execute_with(query, &ctx);
            assert!(
                started.elapsed() < deadline_budget + Duration::from_millis(100),
                "request hung past its budget: {query}"
            );
            match result {
                Ok(out) if out.served_by.is_degraded() => {
                    degraded += 1;
                    assert!(
                        out.data_epoch <= store.epoch(),
                        "degraded serve tagged with a future epoch"
                    );
                    // Over an unchanged store the ladder's answer is the
                    // same data; the marker, not the bytes, flags it.
                    assert_eq!(encode_solutions(&out.solutions, &store), baseline[i]);
                }
                Ok(out) => {
                    served += 1;
                    assert!(
                        matches!(out.served_by, ServedBy::Remote),
                        "non-degraded chaos serve must come from the remote"
                    );
                    assert_eq!(
                        encode_solutions(&out.solutions, &store),
                        baseline[i],
                        "silent corruption: {query}"
                    );
                }
                Err(
                    ServeError::DeadlineExceeded
                    | ServeError::Unavailable(_)
                    | ServeError::Transient(_),
                ) => explicit_errors += 1,
                Err(e @ (ServeError::Query(_) | ServeError::Malformed(_))) => {
                    panic!("workload query rejected: {e}")
                }
            }
        }
    }

    let total = rounds * queries.len() as u64;
    assert_eq!(served + degraded + explicit_errors, total);
    assert!(served > 0, "every single request failed");
    let stats = ep.stats();
    assert!(
        stats.retries + stats.degraded_serves + explicit_errors > 0,
        "the 10% fault plan never fired in {total} requests"
    );
}

#[test]
fn dead_backend_sheds_fast_and_degrades_explicitly() {
    let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny()));
    // Every request to the backend fails: connection_rate 1.0.
    let mut plan = FaultPlan::none(CHAOS_SEED);
    plan.connection_rate = 1.0;
    let faulty = RemoteEndpoint::new(Arc::clone(&store), RemoteConfig::instant()).with_faults(plan);
    let config = ResilienceConfig {
        retry: RetryPolicy::disabled(),
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_cooldown: Duration::from_secs(3600),
        },
        ..ResilienceConfig::default()
    };
    let ep = ResilientEndpoint::new(Box::new(faulty), config);

    let query = "SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Philosopher> }";
    let started = Instant::now();
    for _ in 0..20 {
        match ep.execute(query) {
            Ok(out) => assert!(out.served_by.is_degraded(), "dead backend served fresh"),
            Err(e) => assert!(
                matches!(e, ServeError::Transient(_) | ServeError::Unavailable(_)),
                "unexpected failure shape: {e}"
            ),
        }
    }
    // 20 requests against a dead backend with an open breaker must shed
    // fast, not serialize 20 connection attempts.
    assert!(started.elapsed() < Duration::from_secs(2));
    let stats = ep.stats();
    assert!(stats.breaker.opened >= 1, "breaker never opened");
    assert!(stats.breaker.rejected >= 1, "open breaker never shed");
    assert!(stats.unavailable >= 1);
}

#[test]
fn stalled_backend_is_bounded_by_the_deadline() {
    let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny()));
    // Every request stalls for 10 s — far past any test budget.
    let mut plan = FaultPlan::none(7);
    plan.timeout_rate = 1.0;
    plan.stall = Duration::from_secs(10);
    let remote = RemoteEndpoint::new(Arc::clone(&store), RemoteConfig::instant()).with_faults(plan);

    let budget = Duration::from_millis(50);
    let ctx = QueryContext::with_deadline(Deadline::within(budget));
    let started = Instant::now();
    let err = remote
        .execute_with("SELECT ?s WHERE { ?s ?p ?o }", &ctx)
        .unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded));
    assert!(
        started.elapsed() < budget + Duration::from_millis(100),
        "stall was not clamped to the deadline"
    );
}

#[test]
fn deadline_expiring_mid_parallel_evaluation_returns_promptly() {
    // 8 units of 30 ms work on 2 threads is 120 ms of wall clock; a
    // 40 ms deadline therefore always expires mid-fan-out. The workers
    // must stop claiming units and the call must return within
    // deadline + 100 ms.
    let budget = Duration::from_millis(40);
    let deadline = Deadline::within(budget);
    let started = Instant::now();
    let result = try_map_units(
        8,
        2,
        deadline,
        &elinda::endpoint::TraceCtx::disabled(),
        elinda::endpoint::trace::ROOT_SPAN,
        |i: usize| {
            std::thread::sleep(Duration::from_millis(30));
            i
        },
    );
    let elapsed = started.elapsed();
    assert!(matches!(result, Err(ServeError::DeadlineExceeded)));
    assert!(
        elapsed < budget + Duration::from_millis(100),
        "took {elapsed:?} for a {budget:?} budget"
    );
}

#[test]
fn tiny_deadline_on_the_parallel_router_is_never_a_hang() {
    let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny()));
    let ep = ElindaEndpoint::new(
        Arc::clone(&store),
        EndpointConfig::parallel(Parallelism::fixed(2, 8)),
    );
    let query = property_expansion_sparql(
        &format!("{}Person", vocab::dbo::NS),
        ExpansionDirection::Outgoing,
    );
    for budget in [Duration::from_micros(1), Duration::from_micros(200)] {
        let ctx = QueryContext::with_deadline(Deadline::within(budget));
        let started = Instant::now();
        match ep.execute_with(&query, &ctx) {
            // Fast enough to beat the budget: fine.
            Ok(_) => {}
            Err(e) => assert!(matches!(e, ServeError::DeadlineExceeded), "{e}"),
        }
        assert!(started.elapsed() < budget + Duration::from_millis(100));
    }
}

// ---------------------------------------------------------------------------
// Breaker monotonicity under arbitrary event orders
// ---------------------------------------------------------------------------

proptest! {
    /// Whatever order admissions, successes, and failures arrive in, the
    /// breaker's transition counters only ever increase, and the causal
    /// chain closed ≤ half-opened ≤ opened holds at every step.
    #[test]
    fn breaker_transitions_are_monotone(events in proptest::collection::vec(0u8..3, 0..200)) {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            // Zero cooldown so every transition is reachable without
            // sleeping inside the proptest loop.
            open_cooldown: Duration::ZERO,
        });
        let mut previous = breaker.stats();
        for event in events {
            match event {
                0 => { breaker.admit(); }
                1 => breaker.on_success(),
                _ => breaker.on_failure(),
            }
            let now = breaker.stats();
            prop_assert!(now.opened >= previous.opened);
            prop_assert!(now.half_opened >= previous.half_opened);
            prop_assert!(now.closed >= previous.closed);
            prop_assert!(now.rejected >= previous.rejected);
            prop_assert!(now.closed <= now.half_opened);
            prop_assert!(now.half_opened <= now.opened);
            previous = now;
        }
    }
}
