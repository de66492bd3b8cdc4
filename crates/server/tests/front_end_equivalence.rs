//! Differential suite: the event-driven front-end must be
//! byte-identical on the wire to the blocking front-end for every
//! route and every router tier.
//!
//! Two servers with identical stores and endpoint configurations run
//! the same request script; every raw response is compared byte for
//! byte (responses whose bodies are inherently run-dependent, like
//! `/metrics` timings, are compared on the status line only). Clients
//! send `Connection: close` and a fixed `X-Request-Id` so neither
//! keep-alive framing nor generated ids can differ.

#![cfg(unix)]

use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
use elinda_endpoint::{EndpointConfig, Parallelism};
use elinda_server::{percent_encode, serve, ServerConfig, ServerState};
use elinda_store::TripleStore;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = "SELECT ?s WHERE { ?s a <http://e/Parent> }";

/// A store with a materialized class hierarchy (every Child instance is
/// also typed Parent, DBpedia-style), so the script can reach the
/// incremental tier: a cached Parent chart frontier seeds the Child
/// expansion.
fn test_store() -> Arc<TripleStore> {
    Arc::new(
        TripleStore::from_turtle(
            "@prefix ex: <http://e/> .
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
             ex:Child rdfs:subClassOf ex:Parent .
             ex:a a ex:Parent ; ex:p ex:x ; ex:q ex:y .
             ex:b a ex:Parent , ex:Child ; ex:p ex:y .
             ex:c a ex:Parent , ex:Child ; ex:q ex:z .
             ex:d a ex:Parent .",
        )
        .unwrap(),
    )
}

/// One scripted exchange: a raw request (sent whole), or a partial
/// request the client stalls on (exercising the 408 path).
enum Step {
    Full(&'static str, String),
    Partial(&'static str, String),
}

impl Step {
    fn label(&self) -> &'static str {
        match self {
            Step::Full(label, _) | Step::Partial(label, _) => label,
        }
    }
}

fn get(label: &'static str, target: &str) -> Step {
    Step::Full(
        label,
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn get_sparql(label: &'static str, query: &str, id: &str) -> Step {
    Step::Full(
        label,
        format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Request-Id: {id}\r\n\r\n",
            percent_encode(query)
        ),
    )
}

fn post(label: &'static str, path: &str, content_type: &str, body: &str, id: &str) -> Step {
    Step::Full(
        label,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             X-Request-Id: {id}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The request script covering every route and error path. Order
/// matters: the cache warms exactly the same way on both servers.
fn script() -> Vec<Step> {
    let parent_chart = property_expansion_sparql("http://e/Parent", ExpansionDirection::Outgoing);
    let child_chart = property_expansion_sparql("http://e/Child", ExpansionDirection::Outgoing);
    let form = format!("query={}", percent_encode(&parent_chart));
    vec![
        get("health", "/health"),
        get_sparql("direct get", QUERY, "id-direct-1"),
        get_sparql("chart first sight", &parent_chart, "id-chart-1"),
        get_sparql("chart repeat (cache)", &parent_chart, "id-chart-2"),
        get_sparql("child chart (incremental)", &child_chart, "id-child-1"),
        post(
            "chart via form post",
            "/sparql",
            "application/x-www-form-urlencoded",
            &form,
            "id-form-1",
        ),
        post(
            "raw sparql-query post",
            "/sparql",
            "application/sparql-query",
            QUERY,
            "id-raw-1",
        ),
        get_sparql("query parse error", "SELECT junk", "id-bad-1"),
        Step::Full(
            "missing query param",
            "GET /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Request-Id: id-miss-1\r\n\r\n"
                .to_string(),
        ),
        get("explain", &format!("/explain?query={}", percent_encode(QUERY))),
        get("explain missing param", "/explain"),
        get("not found", "/nope"),
        Step::Full(
            "method not allowed",
            "DELETE /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
        ),
        post(
            "update insert",
            "/update",
            "application/sparql-update",
            "INSERT DATA { <http://e/new> a <http://e/Parent> }",
            "id-up-1",
        ),
        get_sparql("read your writes", QUERY, "id-direct-2"),
        post(
            "update malformed",
            "/update",
            "application/sparql-update",
            "not sparql at all",
            "id-up-2",
        ),
        Step::Full(
            "oversized body (413)",
            format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n",
                elinda_server::http::MAX_BODY + 1
            ),
        ),
        Step::Full(
            "conflicting content-length (400)",
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabcdefg"
                .to_string(),
        ),
        Step::Partial("stalled request (408)", "GET /spar".to_string()),
        get("metrics", "/metrics"),
    ]
}

/// Run `script` against a fresh server and collect every raw response.
fn run_script(
    endpoint_config: EndpointConfig,
    event_loop: bool,
    script: &[Step],
) -> Vec<(&'static str, Vec<u8>)> {
    let state = Arc::new(ServerState::new(test_store(), endpoint_config));
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            event_loop,
            read_timeout: Duration::from_millis(300),
            drain_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();
    let responses = script
        .iter()
        .map(|step| {
            let raw = match step {
                Step::Full(_, raw) | Step::Partial(_, raw) => raw,
            };
            (step.label(), exchange_raw(addr, raw))
        })
        .collect();
    handle.shutdown();
    responses
}

/// Send `raw` (possibly a deliberately incomplete request) and read the
/// entire response until the server closes.
fn exchange_raw(addr: SocketAddr, raw: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

fn status_line(raw: &[u8]) -> &[u8] {
    let end = raw
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(raw.len());
    &raw[..end]
}

fn served_by(raw: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(raw);
    text.lines().find_map(|l| {
        l.to_ascii_lowercase()
            .strip_prefix("x-elinda-served-by:")
            .map(str::trim)
            .map(str::to_string)
    })
}

/// Labels whose response bodies are run-dependent (latency summaries):
/// compared on the status line only.
fn status_only(label: &str) -> bool {
    label == "metrics"
}

fn assert_equivalent(endpoint_config: EndpointConfig, script: &[Step]) {
    let blocking = run_script(endpoint_config.clone(), false, script);
    let reactor = run_script(endpoint_config, true, script);
    assert_eq!(blocking.len(), reactor.len());
    for ((label, b), (_, r)) in blocking.iter().zip(reactor.iter()) {
        if status_only(label) {
            assert_eq!(
                status_line(b),
                status_line(r),
                "status diverged on `{label}`"
            );
        } else {
            assert_eq!(
                String::from_utf8_lossy(b),
                String::from_utf8_lossy(r),
                "response diverged on `{label}`"
            );
        }
    }
}

#[test]
fn every_route_is_byte_identical_across_front_ends() {
    let script = script();
    let blocking = run_script(EndpointConfig::full(), false, &script);

    // The script actually exercised the tiers it claims to: assert on
    // the blocking run, then prove the reactor run identical.
    let tier = |label: &str| {
        blocking
            .iter()
            .find(|(l, _)| *l == label)
            .and_then(|(_, raw)| served_by(raw))
            .unwrap_or_else(|| panic!("no served-by on `{label}`"))
    };
    assert_eq!(tier("direct get"), "direct");
    assert_eq!(tier("chart first sight"), "decomposer");
    assert_eq!(tier("chart repeat (cache)"), "cache-hit");
    assert_eq!(tier("child chart (incremental)"), "incremental");

    assert_equivalent(EndpointConfig::full(), &script);
}

#[test]
fn hvs_tier_is_byte_identical_across_front_ends() {
    // A zero heavy-threshold marks every answered chart heavy, so the
    // repeat is served from the HVS.
    let mut config = EndpointConfig::full();
    config.hvs.heavy_threshold = Duration::ZERO;
    let chart = property_expansion_sparql("http://e/Parent", ExpansionDirection::Outgoing);
    let script = vec![
        get_sparql("hvs warm-up", &chart, "id-hvs-1"),
        get_sparql("hvs hit", &chart, "id-hvs-2"),
    ];

    let blocking = run_script(config.clone(), false, &script);
    assert_eq!(served_by(&blocking[1].1).as_deref(), Some("hvs"));
    assert_equivalent(config, &script);
}

#[test]
fn threaded_plan_is_byte_identical_across_front_ends() {
    let chart = property_expansion_sparql("http://e/Parent", ExpansionDirection::Outgoing);
    let script = vec![get_sparql("chart", &chart, "id-plan-1")];
    assert_equivalent(EndpointConfig::parallel(Parallelism::fixed(2, 7)), &script);
}

/// A `Transfer-Encoding` request is refused and the connection closed:
/// `411` without a `Content-Length` (RFC 9110 §15.5.12), `400` with one
/// (RFC 9112 §6.3). The chunked body carries a second request; exactly
/// one response comes back, so nothing after the headers was parsed as
/// a request.
fn assert_transfer_encoding_is_refused(event_loop: bool) {
    let smuggled = "0\r\n\r\nGET /health HTTP/1.1\r\nHost: t\r\n\r\n";
    let cases = [
        (
            411,
            format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n{smuggled}"
            ),
        ),
        (
            400,
            format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\
                 Transfer-Encoding: chunked\r\n\r\n{smuggled}"
            ),
        ),
    ];
    let script: Vec<Step> = cases
        .iter()
        .map(|(_, raw)| Step::Full("transfer-encoding", raw.clone()))
        .collect();
    let responses = run_script(EndpointConfig::full(), event_loop, &script);
    for ((status, _), (_, raw)) in cases.iter().zip(&responses) {
        let text = String::from_utf8_lossy(raw);
        assert!(
            text.starts_with(&format!("HTTP/1.1 {status} ")),
            "event_loop={event_loop}: {text}"
        );
        assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
    }
}

#[test]
fn blocking_front_end_refuses_transfer_encoding() {
    assert_transfer_encoding_is_refused(false);
}

#[test]
fn reactor_refuses_transfer_encoding() {
    assert_transfer_encoding_is_refused(true);
}
