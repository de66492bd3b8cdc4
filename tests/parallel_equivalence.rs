//! Differential suite: parallel property-expansion evaluation is
//! query-equivalent to sequential evaluation — byte-identical on the
//! SPARQL-JSON wire format — for seeded datagen datasets at three
//! scales, both directions, across unit counts {1, 2, 7, 16} and several
//! worker budgets: the threaded driver the router runs (member chunks
//! over the shared store) and the reference over physical shards, each
//! against the sequential evaluator.

use elinda::datagen::{generate_dbpedia, DbpediaConfig};
use elinda::endpoint::decomposer::{
    execute_decomposed, property_expansion_sparql, recognize_property_expansion, ExpansionDirection,
};
use elinda::endpoint::json::encode_solutions;
use elinda::endpoint::parallel::{
    execute_decomposed_sharded, try_execute_decomposed_chunked, Parallelism,
};
use elinda::endpoint::trace::ROOT_SPAN;
use elinda::endpoint::{Deadline, ElindaEndpoint, EndpointConfig, QueryEngine, TraceCtx};
use elinda::rdf::TermId;
use elinda::sparql::parse_query;
use elinda::store::{ClassHierarchy, ShardedTripleStore, TripleStore};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];
const THREAD_BUDGETS: [usize; 2] = [2, 4];
const DIRECTIONS: [ExpansionDirection; 2] =
    [ExpansionDirection::Outgoing, ExpansionDirection::Incoming];

/// Three dataset scales, each with its own seed so the shard-balance
/// characteristics differ between them.
fn stores() -> Vec<TripleStore> {
    [(0.3, 11u64), (0.6, 23), (1.2, 47)]
        .into_iter()
        .map(|(scale, seed)| {
            let mut cfg = DbpediaConfig::tiny().scaled(scale);
            cfg.seed = seed;
            generate_dbpedia(&cfg)
        })
        .collect()
}

/// A handful of classes per store: the hierarchy roots plus the most
/// populous classes, giving both broad and narrow expansions.
fn sample_classes(store: &TripleStore, hierarchy: &ClassHierarchy) -> Vec<TermId> {
    let mut classes: Vec<TermId> = hierarchy.classes().to_vec();
    classes.sort_by_key(|&c| std::cmp::Reverse(hierarchy.instance_count(store, c)));
    classes.truncate(4);
    classes
}

fn class_iri(store: &TripleStore, class: TermId) -> String {
    store
        .resolve(class)
        .as_iri()
        .expect("classes are IRIs")
        .to_string()
}

#[test]
fn property_expansions_are_byte_identical_across_shard_counts() {
    for store in stores() {
        let hierarchy = ClassHierarchy::build(&store);
        for class in sample_classes(&store, &hierarchy) {
            for dir in DIRECTIONS {
                let text = property_expansion_sparql(&class_iri(&store, class), dir);
                let rec = recognize_property_expansion(&parse_query(&text).unwrap()).unwrap();
                let sequential = execute_decomposed(&store, &hierarchy, &rec);
                let expected = encode_solutions(&sequential, &store);
                let members = hierarchy.instances(&store, class);
                for shards in SHARD_COUNTS {
                    let sharded = ShardedTripleStore::build(&store, shards);
                    for threads in THREAD_BUDGETS {
                        let par = Parallelism::fixed(threads, shards);
                        let reference =
                            execute_decomposed_sharded(&store, &sharded, &hierarchy, &rec, &par);
                        let chunked = try_execute_decomposed_chunked(
                            &store,
                            &members,
                            &rec,
                            &par,
                            Deadline::unbounded(),
                            &TraceCtx::disabled(),
                            ROOT_SPAN,
                        )
                        .unwrap();
                        for (driver, (parallel, report)) in
                            [("reference", reference), ("chunked", chunked)]
                        {
                            assert_eq!(
                                encode_solutions(&parallel, &store),
                                expected,
                                "{driver}: store of {} triples, {dir:?}, {shards} shards, \
                                 {threads} threads",
                                store.len()
                            );
                            assert_eq!(report.shard_busy.len(), shards);
                        }
                    }
                }
            }
        }
    }
}

/// End-to-end through the router: a parallel-configured `ElindaEndpoint`
/// serves recognized expansions byte-identically to a sequential one.
#[test]
fn endpoint_with_parallelism_is_byte_identical_end_to_end() {
    for store in stores() {
        let hierarchy = ClassHierarchy::build(&store);
        let classes = sample_classes(&store, &hierarchy);
        let sequential = ElindaEndpoint::new(&store, EndpointConfig::decomposer_only());
        for shards in SHARD_COUNTS {
            let mut cfg = EndpointConfig::decomposer_only();
            cfg.parallelism = Parallelism::fixed(2, shards);
            let parallel = ElindaEndpoint::new(&store, cfg);
            for &class in &classes {
                for dir in DIRECTIONS {
                    let q = property_expansion_sparql(&class_iri(&store, class), dir);
                    let a = sequential.execute(&q).unwrap();
                    let b = parallel.execute(&q).unwrap();
                    assert_eq!(
                        encode_solutions(&a.solutions, &store),
                        encode_solutions(&b.solutions, &store),
                        "{dir:?}, {shards} shards"
                    );
                }
            }
        }
    }
}
