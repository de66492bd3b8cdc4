//! Ablation — cost of each expansion versus dataset scale.
//!
//! Every exploration step is one of these expansions; this bench shows
//! how each scales with `|S|`, justifying which ones need the serving
//! architecture (the property expansions) and which are cheap enough
//! as-is (subclass, object).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elinda_bench::bench_store;
use elinda_core::{expansion, Direction, Explorer};
use elinda_endpoint::decomposer::{
    class_members, execute_decomposed, property_expansion_sparql, recognize_property_expansion,
    ExpansionDirection,
};
use elinda_endpoint::parallel::{try_execute_decomposed_chunked, Parallelism};
use elinda_endpoint::trace::ROOT_SPAN;
use elinda_endpoint::{Deadline, PropertyExpansionQuery, TraceCtx};
use elinda_rdf::vocab;
use elinda_store::ClassHierarchy;

const SCALES: [f64; 3] = [0.05, 0.1, 0.2];
const SHARDS: usize = 8;

fn expansions(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut group = c.benchmark_group("expansion_scaling");
    group.sample_size(10);
    for &scale in &SCALES {
        let data = bench_store(scale);
        let store = data.store;
        let explorer = Explorer::new(&store);
        let person = store
            .lookup_iri(&format!("{}Person", vocab::dbo::NS))
            .expect("Person");
        let pane = explorer.pane_for_class(person);
        let bar = pane.as_bar();
        let label = format!("{}", pane.set.len());

        group.bench_with_input(BenchmarkId::new("subclass", &label), &bar, |b, bar| {
            b.iter(|| {
                expansion::subclass_expansion(&store, explorer.hierarchy(), bar)
                    .unwrap()
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("property_out", &label), &bar, |b, bar| {
            b.iter(|| {
                expansion::property_expansion(&store, bar, Direction::Outgoing)
                    .unwrap()
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("property_in", &label), &bar, |b, bar| {
            b.iter(|| {
                expansion::property_expansion(&store, bar, Direction::Incoming)
                    .unwrap()
                    .len()
            })
        });
        // Object expansion over the birthPlace bar.
        let birth_place = store
            .lookup_iri(&format!("{}birthPlace", vocab::dbo::NS))
            .expect("birthPlace");
        let prop_chart = expansion::property_expansion(&store, &bar, Direction::Outgoing).unwrap();
        let bp_bar = prop_chart.bar(birth_place).expect("birthPlace bar").clone();
        group.bench_with_input(BenchmarkId::new("objects", &label), &bp_bar, |b, bar| {
            b.iter(|| {
                expansion::object_expansion(&store, explorer.hierarchy(), bar, Direction::Outgoing)
                    .unwrap()
                    .len()
            })
        });

        // Sequential vs. threaded decomposed evaluation of the same
        // heavy aggregation, on the level-zero owl:Thing expansion (the
        // Fig. 4 hot path).
        let hierarchy = ClassHierarchy::build(&store);
        let par = Parallelism::fixed(cores, SHARDS);
        let query = property_expansion_sparql(vocab::owl::THING, ExpansionDirection::Outgoing);
        let rec = recognize_property_expansion(&elinda_sparql::parse_query(&query).unwrap())
            .expect("canonical expansion recognized");
        let threaded = |rec: &PropertyExpansionQuery| {
            let members = class_members(&store, &hierarchy, rec);
            let (trace, deadline) = (TraceCtx::disabled(), Deadline::unbounded());
            try_execute_decomposed_chunked(&store, &members, rec, &par, deadline, &trace, ROOT_SPAN)
                .expect("an unbounded deadline never expires")
                .0
                .len()
        };
        group.bench_with_input(
            BenchmarkId::new("decomposed_seq", &label),
            &rec,
            |b, rec| b.iter(|| black_box(execute_decomposed(&store, &hierarchy, rec).len())),
        );
        group.bench_with_input(
            BenchmarkId::new("decomposed_par", &label),
            &rec,
            |b, rec| b.iter(|| black_box(threaded(rec))),
        );

        // At the largest scale, measure the two paths head-to-head and —
        // on a multi-core box — require the parallel one to win.
        if scale == SCALES[SCALES.len() - 1] {
            let reps = 5;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                black_box(execute_decomposed(&store, &hierarchy, &rec).len());
            }
            let seq = t0.elapsed();
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                black_box(threaded(&rec));
            }
            let parallel = t0.elapsed();
            eprintln!(
                "expansion_scaling: scale {scale}, {cores} cores, {SHARDS} units — \
                 sequential {seq:?} vs parallel {parallel:?} ({:.2}x)",
                seq.as_secs_f64() / parallel.as_secs_f64().max(1e-12)
            );
            if cores >= 2 {
                assert!(
                    parallel < seq,
                    "parallel evaluation must beat sequential at the largest scale \
                     on a multi-core machine ({parallel:?} vs {seq:?})"
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, expansions);
criterion_main!(benches);
