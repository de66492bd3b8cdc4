//! The write path's correctness contract, tested differentially:
//!
//! * applying a random update sequence through the [`NoveltyStore`]
//!   overlay yields a merged view identical to applying the same
//!   sequence directly to a clone of the base store;
//! * reads served while writes are staged are byte-identical to reads
//!   served after compaction folds them;
//! * a recognized chart read while writes are staged — including writes
//!   that add `rdfs:subClassOf` edges or type instances with a brand-new
//!   class — runs on the chart kernel over the view's own class
//!   hierarchy, never on the naive plan, and answers byte for byte what
//!   the naive executor answers over a store rebuilt from scratch;
//! * under concurrent readers and a writer, every reader observes a
//!   monotonically nondecreasing data epoch, and the post-soak store
//!   matches a sequential replay of the same updates.

use elinda::endpoint::json::encode_solutions;
use elinda::endpoint::{
    ElindaEndpoint, EndpointConfig, NoveltyConfig, NoveltyStore, QueryEngine, ServedBy,
};
use elinda::rdf::Term;
use elinda::sparql::{parse_query, Executor, GroundTriple, Update, UpdateOp};
use elinda::store::TripleStore;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Strategies: a small closed universe so inserts and deletes collide
// often enough to exercise the noop and cancellation paths.
// ---------------------------------------------------------------------------

fn iri(s: &str) -> Term {
    Term::iri(s.to_string())
}

fn inst(n: u32) -> Term {
    iri(&format!("http://e/i{n}"))
}

fn class(n: u32) -> Term {
    iri(&format!("http://e/C{n}"))
}

fn prop(n: u32) -> Term {
    iri(&format!("http://e/p{n}"))
}

fn rdf_type() -> Term {
    iri(elinda::rdf::vocab::rdf::TYPE)
}

fn sub_class_of() -> Term {
    iri(elinda::rdf::vocab::rdfs::SUB_CLASS_OF)
}

/// Classes the base graph uses; updates may also name the classes up
/// to [`ALL_CLASSES`], which no base graph mentions.
const BASE_CLASSES: u32 = 3;
const ALL_CLASSES: u32 = 5;

/// One ground statement from the universe over the first `classes`
/// classes: a typing, an edge, or a subclass axiom.
fn arb_ground(classes: u32) -> impl Strategy<Value = GroundTriple> {
    prop_oneof![
        4 => (0u32..12, 0..classes)
            .prop_map(|(i, c)| GroundTriple::new(inst(i), rdf_type(), class(c))),
        4 => (0u32..12, 0u32..4, 0u32..12).prop_map(|(s, p, o)| GroundTriple::new(
            inst(s),
            prop(p),
            inst(o)
        )),
        1 => (0..classes, 0..classes)
            .prop_map(|(c, d)| GroundTriple::new(class(c), sub_class_of(), class(d))),
    ]
}

/// A base graph drawn from the same universe (so deletes can hit).
fn arb_base() -> impl Strategy<Value = Vec<GroundTriple>> {
    proptest::collection::vec(arb_ground(BASE_CLASSES), 0..60)
}

/// A sequence of updates, each one op of a few triples. Inserts may
/// type instances with classes the base has never seen.
fn arb_updates() -> impl Strategy<Value = Vec<Update>> {
    let triples = proptest::collection::vec(arb_ground(ALL_CLASSES), 1..5);
    let op = (any::<bool>(), triples).prop_map(|(insert, triples)| {
        if insert {
            UpdateOp::InsertData(triples)
        } else {
            UpdateOp::DeleteData(triples)
        }
    });
    proptest::collection::vec(
        proptest::collection::vec(op, 1..3).prop_map(|ops| Update { ops }),
        0..12,
    )
}

fn base_store(triples: &[GroundTriple]) -> TripleStore {
    let mut store = TripleStore::new();
    for t in triples {
        store.insert_terms(t.s.clone(), t.p.clone(), t.o.clone());
    }
    store
}

/// Replay `updates` directly against a mutable store — the oracle the
/// overlay must agree with.
fn replay(store: &mut TripleStore, updates: &[Update]) {
    for update in updates {
        for op in &update.ops {
            match op {
                UpdateOp::InsertData(triples) => {
                    for t in triples {
                        store.insert_terms(t.s.clone(), t.p.clone(), t.o.clone());
                    }
                }
                UpdateOp::DeleteData(triples) => {
                    let ids = |store: &TripleStore, t: &GroundTriple| {
                        Some(elinda::rdf::Triple::new(
                            store.interner().get(&t.s)?,
                            store.interner().get(&t.p)?,
                            store.interner().get(&t.o)?,
                        ))
                    };
                    for t in triples {
                        if let Some(triple) = ids(store, t) {
                            store.remove(triple);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overlay-merged reads equal a direct sequential replay, and
    /// compaction changes nothing but the epoch.
    #[test]
    fn overlay_view_matches_sequential_replay(
        base in arb_base(),
        updates in arb_updates(),
    ) {
        let base = base_store(&base);
        // Oracle: the same updates applied straight to a clone. The
        // overlay clones the view per batch, so interning order (and
        // hence term ids) match exactly.
        let mut oracle = base.clone();
        replay(&mut oracle, &updates);

        let novelty = NoveltyStore::new(Arc::new(base), NoveltyConfig::default());
        for update in &updates {
            novelty.apply(update);
        }

        let view = novelty.view();
        prop_assert_eq!(view.spo_slice(), oracle.spo_slice());
        prop_assert_eq!(view.len(), oracle.len());

        // Compaction folds without changing a single triple.
        let staged = novelty.novelty_len();
        let report = novelty.compact();
        prop_assert_eq!(report.is_some(), staged > 0);
        let compacted = novelty.view();
        prop_assert_eq!(compacted.spo_slice(), oracle.spo_slice());
        prop_assert_eq!(novelty.novelty_len(), 0);
    }

    /// Through the full router: results served while writes are staged
    /// (before compaction) are byte-identical to results served after
    /// the compactor folded them.
    #[test]
    fn pre_and_post_compaction_reads_are_byte_identical(
        base in arb_base(),
        updates in arb_updates(),
    ) {
        use elinda::endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};

        let base = base_store(&base);
        let store = Arc::new(base);
        let novelty = Arc::new(NoveltyStore::new(Arc::clone(&store), NoveltyConfig::default()));
        let endpoint = ElindaEndpoint::with_novelty(
            Arc::clone(&store),
            EndpointConfig::full(),
            Arc::clone(&novelty),
        );

        for update in &updates {
            novelty.apply(update);
        }

        let queries = [
            property_expansion_sparql("http://e/C0", ExpansionDirection::Outgoing),
            property_expansion_sparql("http://e/C1", ExpansionDirection::Incoming),
            "SELECT ?s WHERE { ?s a <http://e/C2> }".to_string(),
        ];
        let before: Vec<String> = queries
            .iter()
            .map(|q| {
                let outcome = endpoint.execute(q).expect("query serves");
                encode_solutions(&outcome.solutions, &novelty.view())
            })
            .collect();

        endpoint.compact();

        for (q, expected) in queries.iter().zip(&before) {
            let outcome = endpoint.execute(q).expect("query serves post-compaction");
            let body = encode_solutions(&outcome.solutions, &novelty.view());
            prop_assert_eq!(&body, expected, "query changed across compaction: {}", q);
        }
    }

    /// After every update, each recognized chart — every class, both
    /// directions, superclasses and subclasses in both orders so cached
    /// frontiers seed children — is served by a chart tier (never the
    /// naive plan) with the bytes of the naive executor over a store
    /// rebuilt from scratch. Every fourth update is folded first, so
    /// reads also land on freshly compacted bases.
    #[test]
    fn staged_chart_reads_stay_on_the_kernel_and_match_a_rebuilt_store(
        base in arb_base(),
        updates in arb_updates(),
    ) {
        use elinda::endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
        use elinda::endpoint::parallel::canonicalize_rows;

        let store = Arc::new(base_store(&base));
        let novelty = Arc::new(NoveltyStore::new(Arc::clone(&store), NoveltyConfig::default()));
        let endpoint = ElindaEndpoint::with_novelty(
            Arc::clone(&store),
            EndpointConfig::full(),
            Arc::clone(&novelty),
        );
        let charts: Vec<String> = (0..ALL_CLASSES)
            .map(|c| property_expansion_sparql(&format!("http://e/C{c}"), ExpansionDirection::Outgoing))
            .chain((0..ALL_CLASSES).rev().map(|c| {
                property_expansion_sparql(&format!("http://e/C{c}"), ExpansionDirection::Incoming)
            }))
            .collect();

        for (i, update) in updates.iter().enumerate() {
            if i % 4 == 3 {
                endpoint.compact();
            }
            novelty.apply(update);
            let mut rebuilt = base_store(&base);
            replay(&mut rebuilt, &updates[..=i]);
            for q in &charts {
                let outcome = endpoint.execute(q).expect("chart serves");
                prop_assert!(
                    outcome.served_by != ServedBy::Direct,
                    "update {} staged: {} fell to the naive plan",
                    i,
                    q
                );
                let served = encode_solutions(&outcome.solutions, &novelty.view());
                let mut naive = Executor::new(&rebuilt)
                    .execute(&parse_query(q).unwrap())
                    .unwrap();
                canonicalize_rows(&mut naive, &rebuilt);
                let naive = encode_solutions(&naive, &rebuilt);
                prop_assert_eq!(served, naive, "update {}: {}", i, q);
            }
        }
    }
}

/// Concurrent readers against a writer that applies updates and
/// compacts periodically: every reader sees a monotone data epoch, and
/// the final store equals a sequential replay.
#[test]
fn soak_concurrent_readers_writer_and_compactions() {
    use elinda::endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut base = TripleStore::new();
    for i in 0..10 {
        base.insert_terms(inst(i), rdf_type(), class(i % 3));
        base.insert_terms(inst(i), prop(i % 4), inst((i + 1) % 10));
    }
    let store = Arc::new(base);
    // A small threshold so the writer's own applies signal compaction
    // pressure the way a real deployment would.
    let novelty = Arc::new(NoveltyStore::new(
        Arc::clone(&store),
        NoveltyConfig { max_triples: 8 },
    ));
    let endpoint = Arc::new(ElindaEndpoint::with_novelty(
        Arc::clone(&store),
        EndpointConfig::full(),
        Arc::clone(&novelty),
    ));

    // Deterministic update schedule, kept for the sequential oracle.
    let updates: Vec<Update> = (0..120u32)
        .map(|round| {
            let ops = if round % 5 == 4 {
                vec![UpdateOp::DeleteData(vec![GroundTriple::new(
                    inst(100 + (round / 5) * 2),
                    rdf_type(),
                    class(round % 3),
                )])]
            } else {
                vec![UpdateOp::InsertData(vec![
                    GroundTriple::new(inst(100 + round), rdf_type(), class(round % 3)),
                    GroundTriple::new(inst(100 + round), prop(round % 4), inst(round % 10)),
                ])]
            };
            Update { ops }
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    // Readers and writer leave the gate together: on a busy box the
    // writer could otherwise finish before any reader was scheduled.
    let gate = Arc::new(std::sync::Barrier::new(5));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let endpoint = Arc::clone(&endpoint);
            let stop = Arc::clone(&stop);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let queries = [
                    property_expansion_sparql("http://e/C0", ExpansionDirection::Outgoing),
                    property_expansion_sparql("http://e/C1", ExpansionDirection::Incoming),
                    format!("SELECT ?s WHERE {{ ?s a <http://e/C{}> }}", r % 3),
                ];
                let mut last_epoch = 0u64;
                let mut served = 0u64;
                gate.wait();
                // At least one pass each, however the race to start went.
                loop {
                    for q in &queries {
                        let outcome = endpoint.execute(q).expect("read serves during writes");
                        assert!(
                            outcome.data_epoch >= last_epoch,
                            "epoch went backwards: {} -> {}",
                            last_epoch,
                            outcome.data_epoch
                        );
                        last_epoch = outcome.data_epoch;
                        served += 1;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                served
            })
        })
        .collect();

    let writer = {
        let endpoint = Arc::clone(&endpoint);
        let novelty = Arc::clone(&novelty);
        let updates = updates.clone();
        std::thread::spawn(move || {
            gate.wait();
            for (i, update) in updates.iter().enumerate() {
                novelty.apply(update);
                if i % 10 == 9 {
                    endpoint.compact();
                }
                std::thread::yield_now();
            }
        })
    };
    writer.join().expect("writer thread");
    stop.store(true, Ordering::Relaxed);
    let served: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .sum();
    assert!(served > 0, "readers made progress");

    // Final fold, then compare against the sequential oracle.
    endpoint.compact();
    let mut oracle = (*store).clone();
    replay(&mut oracle, &updates);
    let view = novelty.view();
    assert_eq!(view.spo_slice(), oracle.spo_slice());
    assert_eq!(novelty.novelty_len(), 0);
    let stats = novelty.stats();
    assert!(stats.compactions >= 1, "soak compacted at least once");
    assert_eq!(stats.updates, updates.len() as u64);
}
