//! End-to-end tests over real TCP connections: concurrent clients get
//! byte-identical SPARQL-JSON to the in-process executor, admission
//! control sheds with `503`, and shutdown drains in-flight requests.

use elinda_endpoint::json::encode_solutions;
use elinda_endpoint::{
    BreakerConfig, EndpointConfig, QueryEngine, QueryOutcome, ResilienceConfig, RetryPolicy,
    ServeError,
};
use elinda_server::{percent_encode, serve, ServerConfig, ServerState};
use elinda_store::TripleStore;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const QUERY: &str = "SELECT ?s WHERE { ?s a <http://e/C> }";

fn test_state() -> Arc<ServerState> {
    let store = TripleStore::from_turtle(
        "@prefix ex: <http://e/> .
         ex:a a ex:C . ex:b a ex:C . ex:c a ex:C .
         ex:a ex:knows ex:b .",
    )
    .unwrap();
    Arc::new(ServerState::new(Arc::new(store), EndpointConfig::full()))
}

/// A raw one-shot HTTP exchange: returns (status, headers, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has header terminator");
    let head = std::str::from_utf8(&raw[..header_end]).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let headers = lines
        .map(|line| {
            let (name, value) = line.split_once(':').unwrap();
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    (status, headers, raw[header_end + 4..].to_vec())
}

fn get(addr: SocketAddr, target: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    exchange(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn concurrent_clients_get_byte_identical_sparql_json() {
    let state = test_state();
    let expected = {
        let outcome = state.endpoint().inner().execute(QUERY).unwrap();
        encode_solutions(&outcome.solutions, state.store()).into_bytes()
    };

    let handle = serve(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let expected = expected.clone();
            thread::spawn(move || {
                for round in 0..5 {
                    let (status, headers, body) = if (i + round) % 2 == 0 {
                        get(addr, &format!("/sparql?query={}", percent_encode(QUERY)))
                    } else {
                        let form = format!("query={}", percent_encode(QUERY));
                        exchange(
                            addr,
                            &format!(
                                "POST /sparql HTTP/1.1\r\nHost: t\r\n\
                                 Content-Type: application/x-www-form-urlencoded\r\n\
                                 Content-Length: {}\r\n\r\n{form}",
                                form.len()
                            ),
                        )
                    };
                    assert_eq!(status, 200);
                    assert_eq!(
                        header(&headers, "content-type"),
                        Some("application/sparql-results+json")
                    );
                    assert!(header(&headers, "x-elinda-served-by").is_some());
                    assert_eq!(body, expected, "client {i} round {round}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let counters = handle.counters();
    assert_eq!(counters.accepted, 40);
    assert_eq!(counters.shed, 0);
    handle.shutdown();
}

/// Extends `concurrent_clients_get_byte_identical_sparql_json`: the same
/// hammer pattern, but the served queries are heavy property expansions
/// and the endpoint fans each one across an intra-query worker pool.
/// With 4 server workers × 2 threads/query the pools compose; the test
/// asserts no deadlock or panic (every request completes with 200) and
/// that every response is byte-identical to the sequential baseline.
#[test]
fn concurrent_clients_with_parallel_evaluation_match_sequential_baseline() {
    use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
    use elinda_endpoint::Parallelism;

    let store = Arc::new(
        TripleStore::from_turtle(
            "@prefix ex: <http://e/> .
             ex:a a ex:C ; ex:knows ex:b ; ex:likes ex:c .
             ex:b a ex:C ; ex:knows ex:c .
             ex:c a ex:C .
             ex:d a ex:D ; ex:knows ex:a .",
        )
        .unwrap(),
    );
    let queries: Vec<String> = [ExpansionDirection::Outgoing, ExpansionDirection::Incoming]
        .into_iter()
        .flat_map(|dir| {
            ["http://e/C", "http://e/D"]
                .into_iter()
                .map(move |class| property_expansion_sparql(class, dir))
        })
        .collect();
    // Baseline: the sequential decomposer, in-process.
    let sequential = ServerState::new(Arc::clone(&store), EndpointConfig::decomposer_only());
    let expected: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| sequential.execute_json(q).unwrap().0.into_bytes())
        .collect();

    let mut config = EndpointConfig::decomposer_only();
    config.parallelism = Parallelism::fixed(2, 7);
    let state = Arc::new(ServerState::new(store, config));
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let queries = queries.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                for round in 0..5 {
                    let pick = (i + round) % queries.len();
                    let (status, headers, body) = get(
                        addr,
                        &format!("/sparql?query={}", percent_encode(&queries[pick])),
                    );
                    assert_eq!(status, 200);
                    assert_eq!(header(&headers, "x-elinda-served-by"), Some("decomposer"));
                    assert_eq!(
                        body, expected[pick],
                        "client {i} round {round} query {pick}"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let counters = handle.counters();
    assert_eq!(counters.accepted, 40);
    assert_eq!(counters.shed, 0);

    // Every request went through the parallel path; /metrics exposes the
    // per-shard timings and the speedup gauge.
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("elinda_parallel_queries_total 40"), "{text}");
    assert!(text.contains("elinda_parallel_shard_busy_us{shard=\"6\"}"));
    assert!(text.contains("elinda_parallel_speedup"));

    handle.shutdown();
}

#[test]
fn raw_sparql_query_post_body_is_accepted() {
    let state = test_state();
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (status, headers, body) = exchange(
        handle.local_addr(),
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-query\r\n\
             Content-Length: {}\r\n\r\n{QUERY}",
            QUERY.len()
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-elinda-served-by"), Some("direct"));
    assert!(std::str::from_utf8(&body).unwrap().contains("bindings"));
    handle.shutdown();
}

#[test]
fn health_metrics_and_errors() {
    let state = test_state();
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let (status, _, body) = get(addr, "/health");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let (status, _, _) = get(
        addr,
        &format!("/sparql?query={}", percent_encode("SELECT junk")),
    );
    assert_eq!(status, 400);

    let (status, _, _) = get(addr, "/sparql");
    assert_eq!(status, 400); // missing query parameter

    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    let (status, _, _) = exchange(addr, "DELETE /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("elinda_component_queries_total{component=\"direct\"} 1"));
    assert!(text.contains("elinda_component_latency_p95_us{component=\"direct\"}"));
    assert!(text.contains("elinda_server_accepted_total"));
    assert!(text.contains("elinda_server_workers 4"));

    handle.shutdown();
}

#[test]
fn queue_overflow_sheds_with_503() {
    let state = test_state();
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            handler_delay: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // One slow worker + depth-1 queue: a burst of 12 concurrent clients
    // must overflow admission control.
    let clients: Vec<_> = (0..12)
        .map(|_| {
            thread::spawn(move || {
                let (status, _, _) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
                status
            })
        })
        .collect();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    assert!(statuses.contains(&503), "no request was shed: {statuses:?}");
    assert!(
        statuses.contains(&200),
        "no request succeeded: {statuses:?}"
    );
    assert!(statuses.iter().all(|s| matches!(s, 200 | 503)));
    let counters = handle.counters();
    assert!(counters.shed >= 1);
    assert_eq!(counters.accepted + counters.shed, 12);
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let state = test_state();
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            handler_delay: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..6)
        .map(|_| {
            thread::spawn(move || get(addr, &format!("/sparql?query={}", percent_encode(QUERY))))
        })
        .collect();
    // Wait for admission (not completion: the 100 ms handler delay and
    // two workers keep most requests queued or in flight), then shut
    // down: every accepted request must still get a full response.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.counters().accepted < 6 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests were never admitted"
        );
        thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();

    for client in clients {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200);
        assert!(!body.is_empty());
    }

    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn stalled_client_gets_408_and_releases_the_worker() {
    let state = test_state();
    let handle = serve(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    // Send half a request line and stall: the single worker must time
    // the read out, answer 408, and move on.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled.write_all(b"GET /spar").unwrap();
    let mut raw = Vec::new();
    stalled.read_to_end(&mut raw).expect("read 408 response");
    let head = std::str::from_utf8(&raw).unwrap();
    assert!(head.starts_with("HTTP/1.1 408 "), "{head}");

    // The worker survived the stalled client and still serves.
    let (status, _, body) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
    assert_eq!(status, 200);
    assert!(!body.is_empty());
    handle.shutdown();
}

#[test]
fn panicking_query_returns_500_without_killing_the_worker() {
    /// An engine that panics on every query — a stand-in for an engine
    /// bug a request must not turn into a dead worker thread.
    struct Panicking;
    impl QueryEngine for Panicking {
        fn execute(&self, _q: &str) -> Result<QueryOutcome, ServeError> {
            panic!("engine bug");
        }
        fn data_epoch(&self) -> u64 {
            0
        }
    }

    let store =
        Arc::new(TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C .").unwrap());
    let state = Arc::new(ServerState::with_engine(
        store,
        Box::new(Panicking),
        ResilienceConfig::default(),
        false,
    ));
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    for round in 0..3 {
        let (status, _, body) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
        assert_eq!(status, 500, "round {round}");
        assert!(String::from_utf8(body)
            .unwrap()
            .contains("internal server error"));
        // The same (single) worker keeps serving after each panic.
        let (status, _, _) = get(addr, "/health");
        assert_eq!(status, 200, "worker died after panic (round {round})");
    }
    handle.shutdown();
}

#[test]
fn metrics_expose_resilience_counters_over_http() {
    /// Fails transiently on every call.
    struct Down;
    impl QueryEngine for Down {
        fn execute(&self, _q: &str) -> Result<QueryOutcome, ServeError> {
            Err(ServeError::Transient("connection refused".into()))
        }
        fn data_epoch(&self) -> u64 {
            0
        }
    }

    let store = Arc::new(
        TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C . ex:b a ex:C .").unwrap(),
    );
    let resilience = ResilienceConfig {
        retry: RetryPolicy::new(2, Duration::from_micros(10), Duration::from_micros(50)),
        breaker: BreakerConfig {
            failure_threshold: 100,
            open_cooldown: Duration::from_millis(100),
        },
        ..ResilienceConfig::default()
    };
    let state = Arc::new(ServerState::with_engine(
        store,
        Box::new(Down),
        resilience,
        true,
    ));
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // The dead primary is retried, then the local fallback answers; the
    // response is explicitly marked degraded.
    let (status, headers, body) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "x-elinda-served-by"),
        Some("degraded-local")
    );
    assert!(std::str::from_utf8(&body).unwrap().contains("bindings"));

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("elinda_resilience_retries_total 2"), "{text}");
    assert!(
        text.contains("elinda_resilience_degraded_total 1"),
        "{text}"
    );
    assert!(text.contains("elinda_resilience_deadline_expiries_total 0"));
    assert!(text.contains("elinda_resilience_unavailable_total 0"));
    assert!(text.contains("elinda_breaker_transitions_total{transition=\"opened\"} 0"));
    assert!(text.contains("elinda_component_queries_total{component=\"degraded-local\"} 1"));
    handle.shutdown();
}

#[test]
fn exhausted_request_deadline_maps_to_504() {
    let state = test_state();
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            // A budget no query can meet: every request 504s.
            request_deadline: Some(Duration::from_nanos(1)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let (status, _, body) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
    assert_eq!(status, 504);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("deadline exceeded"));

    let (_, _, body) = get(addr, "/metrics");
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("elinda_resilience_deadline_expiries_total 1"),
        "{text}"
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Request-scoped tracing, /explain, and HTTP framing limits
// ---------------------------------------------------------------------------

#[test]
fn every_sparql_response_carries_a_request_id() {
    let state = test_state();
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // Success.
    let (status, headers, _) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
    assert_eq!(status, 200);
    let generated = header(&headers, "x-request-id")
        .expect("id on 200")
        .to_string();
    assert_eq!(generated.len(), 16);
    assert!(generated.bytes().all(|b| b.is_ascii_hexdigit()));

    // Query error: still tagged.
    let (status, headers, _) = get(
        addr,
        &format!("/sparql?query={}", percent_encode("SELECT junk")),
    );
    assert_eq!(status, 400);
    assert!(header(&headers, "x-request-id").is_some());

    // Missing query parameter: still tagged.
    let (status, headers, _) = get(addr, "/sparql");
    assert_eq!(status, 400);
    assert!(header(&headers, "x-request-id").is_some());

    // A well-formed client-supplied id is echoed back verbatim.
    let (_, headers, _) = exchange(
        addr,
        &format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\nX-Request-Id: client-abc.1\r\n\r\n",
            percent_encode(QUERY)
        ),
    );
    assert_eq!(header(&headers, "x-request-id"), Some("client-abc.1"));

    // A hostile id (whitespace → header injection risk) is replaced.
    let (_, headers, _) = exchange(
        addr,
        &format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\nX-Request-Id: two words\r\n\r\n",
            percent_encode(QUERY)
        ),
    );
    let replaced = header(&headers, "x-request-id").unwrap();
    assert_ne!(replaced, "two words");
    assert_eq!(replaced.len(), 16);
    handle.shutdown();
}

#[test]
fn sampled_trace_is_retrievable_and_stage_sum_tracks_end_to_end_latency() {
    use elinda_datagen::{generate_dbpedia, DbpediaConfig};
    use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};

    // A paper-shape store big enough that the traced request does
    // milliseconds of real work: the untraced gaps between stage spans
    // (queue hand-off, a pre-emption while sibling tests run) are then
    // well inside the 10% the acceptance bound allows.
    let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny().scaled(8.0)));
    let state = Arc::new(ServerState::new(Arc::clone(&store), EndpointConfig::full()));
    let handle = serve(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServerConfig {
            trace_sample: 1.0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let heavy = property_expansion_sparql(
        "http://dbpedia.org/ontology/Person",
        ExpansionDirection::Outgoing,
    );
    let (status, headers, _) = get(addr, &format!("/sparql?query={}", percent_encode(&heavy)));
    assert_eq!(status, 200);
    let id = header(&headers, "x-request-id").unwrap().to_string();

    // The span tree is retrievable over HTTP by that id.
    let (status, headers, body) = get(addr, &format!("/debug/trace/{id}"));
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let json = String::from_utf8(body).unwrap();
    assert!(json.contains(&format!("\"id\":\"{id}\"")), "{json}");
    assert!(json.contains("\"outcome\":\"ok\""), "{json}");
    for stage in ["admission", "hvs", "parse", "route", "eval", "serialize"] {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "missing {stage}: {json}"
        );
    }

    // Acceptance: the root-level stage spans tile the request — their
    // summed wall time is within 10% of the end-to-end total.
    let trace = state.trace_ring().get(&id).expect("trace in ring");
    let total = trace.total.as_secs_f64();
    let staged = trace.stage_total().as_secs_f64();
    assert!(
        staged <= total,
        "stages exceed the request: {staged} > {total}"
    );
    assert!(
        staged >= total * 0.9,
        "stage sum {:.1}us covers less than 90% of end-to-end {:.1}us",
        staged * 1e6,
        total * 1e6
    );

    // An unknown id is a 404, not a panic or an empty 200.
    let (status, _, _) = get(addr, "/debug/trace/does-not-exist");
    assert_eq!(status, 404);

    // /metrics exposes the per-stage histograms fed by the sample.
    let (_, _, body) = get(addr, "/metrics");
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("elinda_stage_latency_count{stage=\"eval\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("elinda_stage_latency_p95_us{stage=\"serialize\"}"),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn explain_reports_the_route_without_executing() {
    let state = test_state();
    let handle = serve(Arc::clone(&state), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let (status, headers, body) = get(addr, &format!("/explain?query={}", percent_encode(QUERY)));
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let json = String::from_utf8(body).unwrap();
    assert!(json.contains("\"path\":\"direct\""), "{json}");
    assert!(json.contains("\"hvs_hit\":false"), "{json}");

    // A malformed query is explained (parse error surfaced), not run.
    let (status, _, body) = get(
        addr,
        &format!("/explain?query={}", percent_encode("SELECT junk")),
    );
    assert_eq!(status, 200);
    let json = String::from_utf8(body).unwrap();
    assert!(json.contains("\"path\":\"invalid\""), "{json}");
    assert!(json.contains("\"parse_error\""), "{json}");

    let (status, _, _) = get(addr, "/explain");
    assert_eq!(status, 400);

    // Nothing above executed a query.
    let (_, _, body) = get(addr, "/metrics");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("elinda_queries_total 0"), "{text}");
    handle.shutdown();
}

#[test]
fn oversized_header_line_and_header_flood_get_400_not_oom() {
    let state = test_state();
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A 64 KiB header line: rejected at the 8 KiB cap.
    let huge = format!(
        "GET /sparql HTTP/1.1\r\nHost: t\r\nX-Huge: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let (status, _, _) = exchange(addr, &huge);
    assert_eq!(status, 400);

    // 100 header lines: rejected at the 64-header cap.
    let mut flood = String::from("GET /sparql HTTP/1.1\r\n");
    for i in 0..100 {
        flood.push_str(&format!("X-Filler-{i}: 1\r\n"));
    }
    flood.push_str("\r\n");
    let (status, _, _) = exchange(addr, &flood);
    assert_eq!(status, 400);

    // The worker survived both and still serves.
    let (status, _, _) = get(addr, "/health");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn conflicting_content_lengths_get_400_over_the_wire() {
    let state = test_state();
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (status, _, body) = exchange(
        handle.local_addr(),
        "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabcdefg",
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("content-length"));
    handle.shutdown();
}

#[test]
fn breaker_open_503_derives_retry_after_from_remaining_cooldown() {
    /// Fails transiently on every call, tripping the breaker.
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
        Arc::new(TripleStore::from_turtle("@prefix ex: <http://e/> . ex:a a ex:C .").unwrap());
    let resilience = ResilienceConfig {
        retry: RetryPolicy::disabled(),
        breaker: BreakerConfig {
            failure_threshold: 1,
            open_cooldown: Duration::from_secs(30),
        },
        ..ResilienceConfig::default()
    };
    let state = Arc::new(ServerState::with_engine(
        store,
        Box::new(Down),
        resilience,
        false,
    ));
    let handle = serve(state, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let target = format!("/sparql?query={}", percent_encode(QUERY));

    // First request trips the breaker (502 from the transient failure).
    let (status, _, _) = get(addr, &target);
    assert_eq!(status, 502);

    // With the breaker open, the shed 503 tells the client how long the
    // remaining cooldown actually is — not a hardcoded second.
    let (status, headers, _) = get(addr, &target);
    assert_eq!(status, 503);
    let retry_after: u64 = header(&headers, "retry-after")
        .expect("Retry-After on breaker-open 503")
        .parse()
        .expect("integral seconds");
    assert!(
        (25..=30).contains(&retry_after),
        "expected ~30s of cooldown, got {retry_after}"
    );
    handle.shutdown();
}

/// Regression test for percent-encoded IRI normalization of cache keys.
///
/// A GET client that writes `<http://e/%43>` and a POST client that
/// writes `<http://e/C>` are asking the same chart question; before the
/// key normalization fix the two spellings hashed to different cache
/// entries, so semantically identical requests could diverge (duplicate
/// work at best, inconsistent epochs at worst). Now both must converge
/// on one entry: the second request is a cache hit with byte-identical
/// SPARQL-JSON.
#[test]
fn percent_encoded_get_and_plain_post_share_one_cache_key() {
    use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};

    let state = test_state();
    let handle = serve(Arc::clone(&state), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A recognized chart query (only those are cached), in two spellings
    // of the same IRI: `%43` is the unreserved octet for `C`. The GET
    // target re-encodes the query for the URL layer, so the `%` itself
    // travels as `%25` and the server-decoded query text still contains
    // the literal `%43` escape inside the IRI.
    let plain = property_expansion_sparql("http://e/C", ExpansionDirection::Outgoing);
    let escaped = plain.replace("http://e/C", "http://e/%43");
    assert_ne!(plain, escaped);

    let (status, headers, first_body) =
        get(addr, &format!("/sparql?query={}", percent_encode(&escaped)));
    assert_eq!(status, 200);
    let first_tier = header(&headers, "x-elinda-served-by")
        .expect("served-by header")
        .to_string();
    assert_ne!(first_tier, "cache-hit", "first sight cannot be a hit");

    let form = format!("query={}", percent_encode(&plain));
    let (status, headers, second_body) = exchange(
        addr,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{form}",
            form.len()
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "x-elinda-served-by"),
        Some("cache-hit"),
        "the plain POST spelling must land on the GET spelling's entry"
    );
    assert_eq!(
        second_body, first_body,
        "both spellings must serve identical bytes"
    );

    // And the reverse direction: a *differently* escaped GET revisit
    // (lowercase hex, escaping the `e` of the authority) still hits.
    let other = plain.replace("http://e/C", "http://%65/C");
    let (status, headers, third_body) =
        get(addr, &format!("/sparql?query={}", percent_encode(&other)));
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-elinda-served-by"), Some("cache-hit"));
    assert_eq!(third_body, first_body);
    handle.shutdown();
}

/// A store with more typed instances than the `LIMIT` the comment tests
/// ask for, so a swallowed `LIMIT` shows as extra rows.
fn typed_state() -> Arc<ServerState> {
    let store = TripleStore::from_turtle(
        "@prefix ex: <http://e/> .
         ex:a a ex:C . ex:b a ex:C . ex:c a ex:C . ex:d a ex:D . ex:e a ex:D .",
    )
    .unwrap();
    Arc::new(ServerState::new(Arc::new(store), EndpointConfig::full()))
}

/// GET `query` and expect exactly the bytes the in-process executor
/// gives for `same_query_without_comment`, with `rows` rows.
fn assert_comment_is_whitespace(query: &str, same_query_without_comment: &str, rows: usize) {
    let state = typed_state();
    let expected = {
        let outcome = state
            .endpoint()
            .inner()
            .execute(same_query_without_comment)
            .unwrap();
        assert_eq!(outcome.solutions.len(), rows);
        encode_solutions(&outcome.solutions, state.store()).into_bytes()
    };
    let handle = serve(Arc::clone(&state), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (status, _, body) = get(
        handle.local_addr(),
        &format!("/sparql?query={}", percent_encode(query)),
    );
    handle.shutdown();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        String::from_utf8_lossy(&body),
        String::from_utf8_lossy(&expected)
    );
}

#[test]
fn comment_before_limit_ends_at_the_newline() {
    assert_comment_is_whitespace(
        "SELECT ?s WHERE { ?s a ?c . } # note\nLIMIT 3",
        "SELECT ?s WHERE { ?s a ?c . } LIMIT 3",
        3,
    );
}

#[test]
fn comment_inside_a_group_does_not_swallow_its_patterns() {
    assert_comment_is_whitespace(
        "SELECT ?s WHERE { # note\n ?s a ?c . } LIMIT 3",
        "SELECT ?s WHERE { ?s a ?c . } LIMIT 3",
        3,
    );
}

/// POST a SPARQL UPDATE as a raw `application/sparql-update` body.
fn post_update(addr: SocketAddr, update: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    exchange(
        addr,
        &format!(
            "POST /update HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-update\r\n\
             Content-Length: {}\r\n\r\n{update}",
            update.len()
        ),
    )
}

#[test]
fn update_over_http_is_read_your_writes_and_compaction_is_invisible() {
    let state = test_state();
    let handle = serve(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    let target = format!("/sparql?query={}", percent_encode(QUERY));

    let (status, _, before) = get(addr, &target);
    assert_eq!(status, 200);
    assert!(!String::from_utf8_lossy(&before).contains("http://e/new"));

    let (status, headers, body) =
        post_update(addr, "INSERT DATA { <http://e/new> a <http://e/C> }");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let report = String::from_utf8_lossy(&body).into_owned();
    assert!(report.contains("\"inserted\":1"), "{report}");
    assert!(header(&headers, "x-request-id").is_some());

    // The write is visible to the very next chart request, before any
    // compaction has run.
    let (status, _, after) = get(addr, &target);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&after).contains("http://e/new"));

    // Fold the overlay: the same request must serve identical bytes.
    state.compact_now().expect("staged novelty compacts");
    let (status, _, compacted) = get(addr, &target);
    assert_eq!(status, 200);
    assert_eq!(after, compacted, "compaction must not change results");

    // /metrics shows the overlay drained back to zero.
    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    assert!(metrics.contains("elinda_novelty_triples 0"), "{metrics}");
    assert!(metrics.contains("elinda_compaction_total 1"), "{metrics}");
    handle.shutdown();
}

#[test]
fn update_endpoint_hardening_405_400_413() {
    let state = test_state();
    let handle = serve(Arc::clone(&state), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // Non-POST methods on /update are refused, not 404.
    let (status, _, _) = get(addr, "/update");
    assert_eq!(status, 405);

    // An unparsable UPDATE string is the client's fault: 400.
    let (status, _, body) = post_update(addr, "INSERT DATA { ?v a <http://e/C> }");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("malformed"));
    let (status, _, _) = post_update(addr, "not sparql at all");
    assert_eq!(status, 400);

    // A POST with no update text at all is also 400.
    let (status, _, body) = exchange(
        addr,
        "POST /update HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("update"));

    // A body over the framing limit gets 413, not a generic 400.
    let (status, _, body) = exchange(
        addr,
        &format!(
            "POST /update HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-update\r\n\
             Content-Length: {}\r\n\r\n",
            elinda_server::http::MAX_BODY + 1
        ),
    );
    assert_eq!(status, 413, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("too large"));

    // Nothing above staged any novelty.
    assert_eq!(state.novelty_stats().unwrap().novelty_triples, 0);
    handle.shutdown();
}

#[test]
fn background_compactor_folds_writes_without_manual_intervention() {
    let state = test_state();
    let handle = serve(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            compact_interval: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let (status, _, _) = post_update(
        addr,
        "INSERT DATA { <http://e/bg> a <http://e/C> . <http://e/bg2> a <http://e/C> }",
    );
    assert_eq!(status, 200);

    // The compactor thread folds the overlay on its own; poll /metrics
    // until the staged-novelty gauge returns to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let metrics = String::from_utf8_lossy(&metrics).into_owned();
        if metrics.contains("elinda_novelty_triples 0")
            && !metrics.contains("elinda_compaction_total 0")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never folded:\n{metrics}"
        );
        thread::sleep(Duration::from_millis(10));
    }

    // The folded write is still served.
    let (status, _, body) = get(addr, &format!("/sparql?query={}", percent_encode(QUERY)));
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("http://e/bg"));

    // Shutdown joins the compactor promptly instead of sleeping out an
    // interval-less wait.
    let start = std::time::Instant::now();
    handle.shutdown();
    assert!(start.elapsed() < Duration::from_secs(2));
}

#[test]
fn blocking_408_drains_for_the_configured_drain_timeout_before_responding() {
    // Regression for two bugs at once: the 408 path used to respond
    // without draining (the error often died as a TCP RST before the
    // client could read it), and `drain_timeout` used to be hardcoded.
    // A silent client costs the full drain window, so the 408 lands at
    // ~read_timeout + drain_timeout — timing proves both the drain and
    // the plumbing.
    let state = test_state();
    let read_timeout = Duration::from_millis(200);
    let drain_timeout = Duration::from_millis(600);
    let handle = serve(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout,
            drain_timeout,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled.write_all(b"GET /spar").unwrap();
    let start = std::time::Instant::now();
    let mut raw = Vec::new();
    stalled.read_to_end(&mut raw).expect("read 408 response");
    let elapsed = start.elapsed();
    let head = std::str::from_utf8(&raw).unwrap();
    assert!(head.starts_with("HTTP/1.1 408 "), "{head}");
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "{head}"
    );
    assert!(
        elapsed >= read_timeout + drain_timeout - Duration::from_millis(50),
        "408 arrived after {elapsed:?}; expected ≥ read + drain ≈ 800ms"
    );
    handle.shutdown();

    // The same stall against a short drain window responds much
    // sooner: the window really is the configured knob.
    let handle = serve(
        test_state(),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout,
            drain_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled.write_all(b"GET /spar").unwrap();
    let start = std::time::Instant::now();
    let mut raw = Vec::new();
    stalled.read_to_end(&mut raw).expect("read 408 response");
    let elapsed = start.elapsed();
    assert!(
        elapsed < read_timeout + Duration::from_millis(400),
        "short drain window still took {elapsed:?}"
    );
    handle.shutdown();
}
