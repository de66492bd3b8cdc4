//! Ablation — decomposer backing: on-demand index scans vs fully
//! precomputed `(class, property)` aggregates.
//!
//! The paper's endpoint preprocesses its knowledge-base mirrors with
//! "specialized indexes". Two realizations are implemented: answering a
//! recognized query by scanning the per-instance index runs (on-demand),
//! or from aggregates materialized at load time (precomputed). This
//! bench quantifies the query-time gap and the preprocessing cost that
//! buys it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elinda_bench::{bench_store, fig4_queries};
use elinda_endpoint::decomposer::{execute_precomputed, recognize_property_expansion};
use elinda_endpoint::{ElindaEndpoint, EndpointConfig, QueryEngine};
use elinda_store::{ClassHierarchy, PropertyAggregates};

fn decomposer_modes(c: &mut Criterion) {
    let data = bench_store(0.15);
    let store = &data.store;
    let (outgoing, incoming) = fig4_queries();

    let on_demand = ElindaEndpoint::new(store, EndpointConfig::decomposer_only());
    let hierarchy = ClassHierarchy::build(store);
    let aggregates = PropertyAggregates::build(store, &hierarchy);
    // What a router serving from the aggregates would do per request.
    let precomputed = |q: &str| {
        let parsed = elinda_sparql::parse_query(q).expect("canonical expansion parses");
        let rec = recognize_property_expansion(&parsed).expect("canonical expansion recognized");
        execute_precomputed(store, &aggregates, &rec).len()
    };

    let mut group = c.benchmark_group("decomposer_mode");
    group.sample_size(10);
    for (dir, query) in [("outgoing", &outgoing), ("incoming", &incoming)] {
        group.bench_with_input(BenchmarkId::new("on_demand", dir), query, |b, q| {
            b.iter(|| on_demand.execute(q).unwrap().solutions.len())
        });
        group.bench_with_input(BenchmarkId::new("precomputed", dir), query, |b, q| {
            b.iter(|| precomputed(q))
        });
    }
    // The price of precomputation: building every (class, property)
    // aggregate for the whole store.
    group.bench_function("build_aggregates", |b| {
        b.iter(|| PropertyAggregates::build(store, &hierarchy).epoch())
    });
    group.finish();
}

criterion_group!(benches, decomposer_modes);
criterion_main!(benches);
