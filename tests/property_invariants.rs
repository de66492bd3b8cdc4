//! Property-based tests over randomly generated graphs: serialization
//! round-trips, index consistency, and the Section 2 model invariants.

use elinda::model::{expansion, Bar, BarKind, Direction, Explorer, NodeSet, SetSpec};
use elinda::rdf::term::Literal;
use elinda::rdf::{ntriples, Graph, Term};
use elinda::sparql::{Executor, Value};
use elinda::store::{ClassHierarchy, TriplePattern, TripleStore};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_iri() -> impl Strategy<Value = Term> {
    (0u32..40).prop_map(|n| Term::iri(format!("http://e/n{n}")))
}

fn arb_literal() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-zA-Z0-9 \\\\\"\n\t]{0,12}".prop_map(|s| Term::Literal(Literal::plain(s))),
        (-1000i64..1000).prop_map(|n| Term::Literal(Literal::integer(n))),
        ("[a-z]{1,8}", prop_oneof![Just("en"), Just("de")])
            .prop_map(|(s, l)| Term::Literal(Literal::lang(s, l))),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![3 => arb_iri(), 1 => arb_literal()]
}

prop_compose! {
    fn arb_triple()(s in arb_iri(), p in arb_iri(), o in arb_term()) -> (Term, Term, Term) {
        (s, p, o)
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec(arb_triple(), 0..120).prop_map(|triples| {
        let mut g = Graph::new();
        for (s, p, o) in triples {
            g.insert(s, p, o);
        }
        g
    })
}

/// A graph with rdf:type / rdfs:subClassOf structure so that expansions
/// have something to chew on.
fn arb_typed_graph() -> impl Strategy<Value = Graph> {
    let class = (0u32..6).prop_map(|n| Term::iri(format!("http://e/C{n}")));
    let inst = (0u32..25).prop_map(|n| Term::iri(format!("http://e/i{n}")));
    let prop = (0u32..5).prop_map(|n| Term::iri(format!("http://e/p{n}")));
    let typing = (inst.clone(), class.clone())
        .prop_map(|(i, c)| (i, Term::iri(elinda::rdf::vocab::rdf::TYPE), c));
    let subclass = (class.clone(), class)
        .prop_map(|(a, b)| (a, Term::iri(elinda::rdf::vocab::rdfs::SUB_CLASS_OF), b));
    let edge = (inst.clone(), prop, inst).prop_map(|(a, p, b)| (a, p, b));
    let stmt = prop_oneof![3 => typing, 1 => subclass, 3 => edge];
    proptest::collection::vec(stmt, 1..150).prop_map(|triples| {
        let mut g = Graph::new();
        for (s, p, o) in triples {
            g.insert(s, p, o);
        }
        g
    })
}

// ---------------------------------------------------------------------------
// N-Triples round-trip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ntriples_round_trips(g in arb_graph()) {
        let text = ntriples::write_document(&g);
        let parsed = ntriples::parse_document(&text).unwrap();
        prop_assert_eq!(parsed.len(), g.len());
        // Second serialization is identical (canonical form fixpoint).
        prop_assert_eq!(ntriples::write_document(&parsed), text);
    }

    #[test]
    fn store_pattern_queries_match_brute_force(g in arb_graph()) {
        let all: Vec<(Term, Term, Term)> = g
            .triples()
            .iter()
            .map(|t| {
                (
                    g.interner().resolve(t.s).clone(),
                    g.interner().resolve(t.p).clone(),
                    g.interner().resolve(t.o).clone(),
                )
            })
            .collect();
        let store = TripleStore::from_graph(g);
        prop_assert_eq!(store.len(), all.len());

        // Probe with terms drawn from the data itself.
        for probe in all.iter().take(8) {
            let s = store.interner().get(&probe.0);
            let p = store.interner().get(&probe.1);
            let o = store.interner().get(&probe.2);
            for pat in [
                TriplePattern::new(s, None, None),
                TriplePattern::new(None, p, None),
                TriplePattern::new(None, None, o),
                TriplePattern::new(s, p, None),
                TriplePattern::new(None, p, o),
                TriplePattern::new(s, None, o),
                TriplePattern::new(s, p, o),
            ] {
                let via_index = pat.scan(&store).count();
                let brute = store
                    .spo_slice()
                    .iter()
                    .filter(|t| pat.matches(**t))
                    .count();
                prop_assert_eq!(via_index, brute, "pattern {:?}", pat);
                prop_assert_eq!(pat.count(&store), brute);
            }
        }
    }

    #[test]
    fn expansion_invariants(g in arb_typed_graph()) {
        let store = TripleStore::from_graph(g);
        let explorer = Explorer::new(&store);
        let h = explorer.hierarchy();

        for &class in h.classes().iter().take(6) {
            let spec = SetSpec::AllOfType(class);
            let set = spec.eval(&store, h);
            let bar = Bar::new(set.clone(), class, BarKind::Class, spec);

            // Subclass expansion: every bar's set ⊆ S, chart sorted by
            // decreasing height, total = |S|.
            let chart = expansion::subclass_expansion(&store, h, &bar).unwrap();
            prop_assert_eq!(chart.total(), set.len());
            let mut last = usize::MAX;
            for b in chart.bars() {
                prop_assert!(b.nodes.is_subset_of(&set));
                prop_assert!(b.height() <= last);
                prop_assert!(b.height() > 0, "empty bars are dropped");
                last = b.height();
            }

            // Property expansion (both directions): members ⊆ S and the
            // union of the bars covers exactly the members featuring any
            // property.
            for dir in [Direction::Outgoing, Direction::Incoming] {
                let chart = expansion::property_expansion(&store, &bar, dir).unwrap();
                for b in chart.bars() {
                    prop_assert!(b.nodes.is_subset_of(&set));
                    prop_assert!(chart.coverage(b) <= 1.0 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn spec_eval_equals_generated_sparql(g in arb_typed_graph()) {
        let store = TripleStore::from_graph(g);
        let h = ClassHierarchy::build(&store);
        let executor = Executor::new(&store);
        let classes: Vec<_> = h.classes().iter().copied().take(4).collect();
        let props: Vec<_> = store.predicates().into_iter().take(3).collect();
        for &class in &classes {
            let mut specs = vec![
                SetSpec::AllOfType(class),
                SetSpec::AllOfTypeTransitive(class),
                SetSpec::AllTyped,
                SetSpec::NarrowTransitive {
                    parent: Box::new(SetSpec::AllTyped),
                    class,
                },
            ];
            for &p in &props {
                specs.push(SetSpec::WithProperty {
                    parent: Box::new(SetSpec::AllOfType(class)),
                    prop: p,
                    direction: Direction::Outgoing,
                });
                if let Some(&c2) = classes.first() {
                    specs.push(SetSpec::ObjectsVia {
                        source: Box::new(SetSpec::AllOfType(class)),
                        prop: p,
                        direction: Direction::Incoming,
                        class: c2,
                    });
                }
            }
            for spec in specs {
                let direct = spec.eval(&store, &h);
                let sol = executor.execute(&spec.to_query(&store)).unwrap();
                let via_sparql = NodeSet::from_vec(sol.term_column("x"));
                prop_assert_eq!(direct, via_sparql, "spec {:?}", spec);
            }
        }
    }

    #[test]
    fn incremental_matches_decomposer_on_random_graphs(g in arb_typed_graph()) {
        use elinda::endpoint::decomposer::{
            execute_decomposed, property_expansion_sparql, recognize_property_expansion,
            ExpansionDirection,
        };
        use elinda::endpoint::incremental::{
            ChartDirection, IncrementalConfig, IncrementalPropertyChart,
        };
        let store = TripleStore::from_graph(g);
        let h = ClassHierarchy::build(&store);
        let Some(&class) = h.classes().first() else { return Ok(()) };
        let Some(class_iri) = store.resolve(class).as_iri().map(str::to_string) else {
            return Ok(());
        };
        for (exp_dir, chart_dir) in [
            (ExpansionDirection::Outgoing, ChartDirection::Outgoing),
            (ExpansionDirection::Incoming, ChartDirection::Incoming),
        ] {
            let q = elinda::sparql::parse_query(&property_expansion_sparql(&class_iri, exp_dir))
                .unwrap();
            let rec = recognize_property_expansion(&q).unwrap();
            let reference = execute_decomposed(&store, &h, &rec);
            let mut inc = IncrementalPropertyChart::for_class(
                &store,
                &h,
                class,
                chart_dir,
                IncrementalConfig { chunk_size: 7, max_steps: None },
            );
            let final_chart = inc.run();
            prop_assert!(final_chart.complete);
            let mut a: Vec<_> = reference
                .rows
                .iter()
                .map(|r| {
                    let p = match r[0] {
                        Some(Value::Term(id)) => id,
                        _ => unreachable!(),
                    };
                    let c = r[1].as_ref().unwrap().as_number(&store).unwrap() as u64;
                    let t = r[2].as_ref().unwrap().as_number(&store).unwrap() as u64;
                    (p, c, t)
                })
                .collect();
            a.sort_unstable();
            let mut b = final_chart.rows.clone();
            b.sort_unstable();
            prop_assert_eq!(a, b, "direction {:?}", exp_dir);
        }
    }

    #[test]
    fn json_wire_round_trips_random_solutions(g in arb_typed_graph()) {
        use elinda::endpoint::json::{decode_solutions, encode_solutions};
        let store = TripleStore::from_graph(g);
        let executor = Executor::new(&store);
        for q in [
            "SELECT * WHERE { ?s ?p ?o } LIMIT 50",
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c",
            "SELECT ?s ?o WHERE { ?s ?p ?o OPTIONAL { ?o ?q ?x } } LIMIT 20",
        ] {
            let sol = executor.run(q).unwrap();
            let wire = encode_solutions(&sol, &store);
            let decoded = decode_solutions(&wire, &store).unwrap();
            prop_assert_eq!(&decoded.vars, &sol.vars);
            prop_assert_eq!(decoded.rows.len(), sol.rows.len());
        }
    }

    #[test]
    fn filter_chart_only_removes(g in arb_typed_graph()) {
        let store = TripleStore::from_graph(g);
        let h = ClassHierarchy::build(&store);
        let Some(&class) = h.classes().first() else { return Ok(()) };
        let Some(prop) = store.predicates().first().copied() else { return Ok(()) };
        let spec = SetSpec::AllOfType(class);
        let set = spec.eval(&store, &h);
        let bar = Bar::new(set, class, BarKind::Class, spec);
        let chart = expansion::subclass_expansion(&store, &h, &bar).unwrap();
        let filter = expansion::UriFilter::HasProperty {
            prop,
            direction: Direction::Outgoing,
        };
        let filtered = expansion::filter_chart(&store, &chart, &filter);
        prop_assert_eq!(filtered.total(), chart.total());
        for b in filtered.bars() {
            let original = chart.bar(b.label).expect("label existed before");
            prop_assert!(b.nodes.is_subset_of(&original.nodes));
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-partition invariants
// ---------------------------------------------------------------------------

/// A deterministic Fisher–Yates permutation of `0..n` from a seed (the
/// xorshift keeps the test independent of any RNG shim).
fn seeded_permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        order.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_triple_lands_in_exactly_one_shard(g in arb_graph(), n in 1usize..20) {
        use elinda::store::{shard_of, ShardedTripleStore};
        let store = TripleStore::from_graph(g);
        let sharded = ShardedTripleStore::build(&store, n);
        prop_assert_eq!(sharded.len(), store.len());
        // Union of the shards is exactly the store (no loss, no
        // duplication), and each triple sits in its subject's shard.
        let mut all: Vec<_> = sharded
            .shards()
            .flat_map(|s| s.spo_slice().iter().copied())
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, store.spo_slice().to_vec());
        for (i, shard) in sharded.shards().enumerate() {
            for t in shard.spo_slice() {
                prop_assert_eq!(shard_of(t.s, n), i);
            }
        }
    }

    #[test]
    fn merged_group_by_counts_equal_whole_store_counts(
        g in arb_typed_graph(),
        shards in 1usize..20,
    ) {
        use elinda::endpoint::decomposer::{
            execute_decomposed, property_expansion_sparql, recognize_property_expansion,
            ExpansionDirection,
        };
        use elinda::endpoint::parallel::{
            execute_decomposed_sharded, try_execute_decomposed_chunked, Parallelism,
        };
        use elinda::endpoint::{trace::ROOT_SPAN, Deadline, TraceCtx};
        use elinda::store::ShardedTripleStore;

        let store = TripleStore::from_graph(g);
        let h = ClassHierarchy::build(&store);
        let sharded = ShardedTripleStore::build(&store, shards);
        let par = Parallelism::fixed(2, shards);
        for &class in h.classes().iter().take(3) {
            let Some(class_iri) = store.resolve(class).as_iri().map(str::to_string) else {
                continue;
            };
            for dir in [ExpansionDirection::Outgoing, ExpansionDirection::Incoming] {
                let q = elinda::sparql::parse_query(&property_expansion_sparql(&class_iri, dir))
                    .unwrap();
                let rec = recognize_property_expansion(&q).unwrap();
                let whole = execute_decomposed(&store, &h, &rec);
                // The reference over physical shards, and the threaded
                // driver over member chunks of the shared store.
                let (merged, _) = execute_decomposed_sharded(&store, &sharded, &h, &rec, &par);
                prop_assert_eq!(&merged.vars, &whole.vars);
                prop_assert_eq!(&merged.rows, &whole.rows, "{:?} {} shards", dir, shards);
                let (chunked, _) = try_execute_decomposed_chunked(
                    &store,
                    &h.instances(&store, class),
                    &rec,
                    &par,
                    Deadline::unbounded(),
                    &TraceCtx::disabled(),
                    ROOT_SPAN,
                )
                .unwrap();
                prop_assert_eq!(&chunked.rows, &whole.rows, "{:?} {} chunks", dir, shards);
            }
        }
    }

    #[test]
    fn merge_is_deterministic_under_shuffled_completion_order(
        g in arb_typed_graph(),
        shards in 2usize..17,
        seed in any::<u64>(),
    ) {
        use elinda::endpoint::parallel::{
            merge_incoming_partials, merge_outgoing_partials, property_agg_solutions,
            property_partial_incoming, property_partial_outgoing,
        };
        use elinda::store::ShardedTripleStore;

        let store = TripleStore::from_graph(g);
        let h = ClassHierarchy::build(&store);
        let sharded = ShardedTripleStore::build(&store, shards);
        let Some(&class) = h.classes().first() else { return Ok(()) };
        let instances = h.instances(&store, class);
        let columns = ["p".to_string(), "count".to_string(), "sp".to_string()];
        let order = seeded_permutation(shards, seed);

        // Outgoing: partials merged in shard order vs. a shuffled
        // completion order must produce identical Solutions.
        let partials: Vec<_> = (0..shards)
            .map(|i| property_partial_outgoing(sharded.shard(i), i, shards, &instances))
            .collect();
        let in_order = property_agg_solutions(
            merge_outgoing_partials(partials.clone()),
            &columns,
            &store,
        );
        let shuffled = property_agg_solutions(
            merge_outgoing_partials(order.iter().map(|&i| partials[i].clone())),
            &columns,
            &store,
        );
        prop_assert_eq!(in_order.rows, shuffled.rows);

        // Incoming: the keyed (object, property) partials likewise.
        let partials: Vec<_> = (0..shards)
            .map(|i| property_partial_incoming(sharded.shard(i), &instances))
            .collect();
        let in_order = property_agg_solutions(
            merge_incoming_partials(partials.clone()),
            &columns,
            &store,
        );
        let shuffled = property_agg_solutions(
            merge_incoming_partials(order.iter().map(|&i| partials[i].clone())),
            &columns,
            &store,
        );
        prop_assert_eq!(in_order.rows, shuffled.rows);
    }
}
