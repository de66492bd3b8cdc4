//! The property-chart kernel: the one scan every chart evaluator runs.
//!
//! The paper's heavy aggregation asks, per property, how many members of
//! a node set feature it and with how many triples. Over sorted
//! permutations that is a walk of each member's run — contiguous in SPO
//! for outgoing charts, contiguous in OSP (then grouped by property) for
//! incoming ones — counting the length of every `(member, property)`
//! sub-run. [`scan_property_runs`] is that walk and the only place in the
//! workspace that counts property runs; the sequential, threaded and
//! fabric evaluators differ only in which [`TripleIndex`] and member
//! slice they hand it and how they accumulate what it emits.

use crate::decomposer::ExpansionDirection;
use elinda_rdf::fx::FxHashMap;
use elinda_rdf::TermId;
use elinda_store::TripleIndex;

/// `property → (entities featuring it, triples)`: a chart before its rows
/// are ordered.
pub type PropertyCounts = FxHashMap<TermId, (i64, i64)>;

/// Call `emit(member, property, run_len)` once per distinct property of
/// each member: its outgoing triples (`member` as subject) or incoming
/// ones (`member` as object) in `index`. Members without triples in
/// `index` emit nothing.
pub fn scan_property_runs(
    index: &TripleIndex,
    members: &[TermId],
    direction: ExpansionDirection,
    mut emit: impl FnMut(TermId, TermId, usize),
) {
    match direction {
        ExpansionDirection::Outgoing => {
            for &s in members {
                let mut run = index.spo_range(s, None);
                while let Some(first) = run.first() {
                    let p = first.p;
                    let len = run.partition_point(|t| t.p == p);
                    emit(s, p, len);
                    run = &run[len..];
                }
            }
        }
        ExpansionDirection::Incoming => {
            // An object's OSP run is ordered by subject, so its
            // properties need a per-member sort before runs can be cut.
            let mut props: Vec<TermId> = Vec::new();
            for &o in members {
                props.clear();
                props.extend(index.osp_range(o, None).iter().map(|t| t.p));
                props.sort_unstable();
                let mut run = props.as_slice();
                while let Some(&p) = run.first() {
                    let len = run.partition_point(|&x| x == p);
                    emit(o, p, len);
                    run = &run[len..];
                }
            }
        }
    }
}

/// The kernel with the per-property accumulator: exact whenever every
/// triple of each member lies in `index` (the whole store, or any index
/// for members it owns outright).
pub fn count_properties(
    index: &TripleIndex,
    members: &[TermId],
    direction: ExpansionDirection,
) -> PropertyCounts {
    let mut counts = PropertyCounts::default();
    scan_property_runs(index, members, direction, |_, p, len| {
        let e = counts.entry(p).or_default();
        e.0 += 1;
        e.1 += len as i64;
    });
    counts
}

#[cfg(test)]
mod tests {
    //! One fixture, one table: every evaluator built on the kernel
    //! against the naive executor's answer, on the wire bytes.

    use crate::decomposer::{
        class_members, property_expansion_sparql, recognize_property_expansion, ExpansionDirection,
        PropertyExpansionQuery,
    };
    use crate::fabric::{decode_partial, FabricConfig, FabricCoordinator, ShardEvaluator};
    use crate::incremental::{execute_decomposed_from_frontier, seed_child_frontier};
    use crate::json::encode_solutions;
    use crate::parallel::{
        canonicalize_rows, execute_decomposed_sharded, try_execute_decomposed_chunked, Parallelism,
    };
    use crate::resilience::Deadline;
    use crate::trace::{TraceCtx, ROOT_SPAN};
    use crate::{ElindaEndpoint, EndpointConfig};
    use elinda_rdf::TermId;
    use elinda_sparql::{parse_query, Executor, Solutions};
    use elinda_store::{ClassHierarchy, ShardedTripleStore, TripleStore};
    use std::sync::Arc;

    /// A materialized hierarchy (every Person is also typed Agent) with
    /// multi-valued properties, members without outgoing or incoming
    /// edges, and edges arriving from outside the class.
    fn fixture() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Person rdfs:subClassOf ex:Agent .
            ex:alice a ex:Agent , ex:Person ; ex:knows ex:bob , ex:carol , ex:org ; ex:born ex:town .
            ex:bob a ex:Agent , ex:Person ; ex:knows ex:alice ; ex:works ex:org .
            ex:carol a ex:Agent , ex:Person .
            ex:org a ex:Agent ; ex:owns ex:town , ex:alice ; ex:knows ex:alice .
            ex:town a ex:Place ; ex:mayor ex:carol , ex:bob ; ex:knows ex:alice .
            ex:stranger ex:knows ex:alice , ex:bob ; ex:owns ex:org .
            "#,
        )
        .unwrap()
    }

    fn recognized(class: &str, dir: ExpansionDirection) -> (String, PropertyExpansionQuery) {
        let text = property_expansion_sparql(&format!("http://e/{class}"), dir);
        let rec = recognize_property_expansion(&parse_query(&text).unwrap()).unwrap();
        (text, rec)
    }

    fn naive(store: &TripleStore, text: &str) -> String {
        let mut solutions = Executor::new(store)
            .execute(&parse_query(text).unwrap())
            .unwrap();
        canonicalize_rows(&mut solutions, store);
        encode_solutions(&solutions, store)
    }

    /// What a shard fleet of `n` computes, in process: each shard's wire
    /// partial, decoded and merged by the coordinator.
    fn fabric(store: &Arc<TripleStore>, n: usize, text: &str) -> Solutions {
        let rec = recognize_property_expansion(&parse_query(text).unwrap()).unwrap();
        let partials = (0..n)
            .map(|i| {
                let body = ShardEvaluator::new(Arc::clone(store), i, n)
                    .unwrap()
                    .eval(text)
                    .unwrap();
                decode_partial(&body, i, n).unwrap().0
            })
            .collect();
        let local = ElindaEndpoint::new(Arc::clone(store), EndpointConfig::baseline());
        FabricCoordinator::new(
            Arc::clone(store),
            FabricConfig::new(vec![]),
            Box::new(local),
        )
        .merge(partials, &rec)
        .unwrap()
    }

    #[test]
    fn every_driver_equals_the_naive_executor() {
        let store = Arc::new(fixture());
        let h = ClassHierarchy::build(&store);
        let agent = store.lookup_iri("http://e/Agent").unwrap();
        let person = store.lookup_iri("http://e/Person").unwrap();
        let agents = h.instances(&store, agent);
        let seeded = seed_child_frontier(&store, &h, &agents, person).expect("materialized");

        for dir in [ExpansionDirection::Outgoing, ExpansionDirection::Incoming] {
            // (case, class queried, explicit member slice or None to derive it)
            let cases: [(&str, &str, Option<&[TermId]>); 4] = [
                ("class closure", "Agent", Some(&agents)),
                ("cached frontier", "Person", Some(&seeded)),
                ("empty slice", "Nothing", Some(&[])),
                ("unknown class", "Nothing", None),
            ];
            for (case, class, slice) in cases {
                let (text, rec) = recognized(class, dir);
                let expected = naive(&store, &text);
                let derived = class_members(&store, &h, &rec);
                let members = slice.unwrap_or(&derived);
                let check = |driver: String, got: Solutions| {
                    assert_eq!(
                        encode_solutions(&got, &store),
                        expected,
                        "{driver}, {dir:?}, {case}"
                    );
                };

                check(
                    "sequential".into(),
                    execute_decomposed_from_frontier(&store, members, &rec),
                );
                for units in [1, 2, 7, 16] {
                    let (got, report) = try_execute_decomposed_chunked(
                        &store,
                        members,
                        &rec,
                        &Parallelism::fixed(2, units),
                        Deadline::unbounded(),
                        &TraceCtx::disabled(),
                        ROOT_SPAN,
                    )
                    .unwrap();
                    assert_eq!(report.shard_busy.len(), units);
                    check(format!("threaded × {units}"), got);
                }
                // The two evaluators over physical partitions derive the
                // members themselves from the class queried.
                for n in [1, 2, 7, 16] {
                    let sharded = ShardedTripleStore::build(&store, n);
                    let par = Parallelism::fixed(2, n);
                    let (got, report) =
                        execute_decomposed_sharded(&store, &sharded, &h, &rec, &par);
                    assert_eq!(report.shard_busy.len(), n);
                    check(format!("reference × {n}"), got);
                }
                check("fabric × 3".into(), fabric(&store, 3, &text));
            }
        }
    }
}
