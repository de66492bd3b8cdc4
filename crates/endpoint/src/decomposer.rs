//! The eLinda decomposer.
//!
//! "ELINDA detects heavy queries are sent to the ELINDA backend and map
//! the SPARQL queries to a decomposition of SQL queries that utilizes the
//! indexes and prevents heavy and redundant SPARQL computations."
//! (Section 4)
//!
//! The heavy shape is the property-expansion query:
//!
//! ```sparql
//! SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
//! FROM {SELECT ?s ?p count(*) AS ?sp
//!       FROM {?s a owl:Thing. ?s ?p ?o.}
//!       GROUP BY ?s ?p} GROUP BY ?p
//! ```
//!
//! whose naive plan materializes the full `(s, p)` group table.
//! [`recognize_property_expansion`] matches this shape (and its incoming
//! variant) on the AST; [`execute_decomposed`] answers it with one index
//! scan per instance ([`crate::kernel`]) — the per-subject `(p, count)`
//! runs are contiguous in the SPO index (per-object runs in OSP), so no
//! intermediate table is ever built. This works "for *all* property
//! expansion queries", any class, not just ones previously seen (unlike
//! the HVS).

use crate::incremental::execute_decomposed_from_frontier;
use elinda_rdf::{vocab, Term, TermId};
use elinda_sparql::ast::{Expr, PatternElement, Predicate, Query, SelectItems, TermOrVar};
use elinda_sparql::{Solutions, Value};
use elinda_store::{ClassHierarchy, TripleStore};

/// Direction of a recognized property-expansion query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpansionDirection {
    /// Instances are the subjects (`?s a <C> . ?s ?p ?o`).
    Outgoing,
    /// Instances are the objects (`?o a <C> . ?s ?p ?o`).
    Incoming,
}

/// A recognized property-expansion query.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyExpansionQuery {
    /// The class whose instances are expanded.
    pub class: Term,
    /// Subject-side or object-side expansion.
    pub direction: ExpansionDirection,
    /// Output column names `(property, entity count, triple sum)` taken
    /// from the query's projection, so the decomposed result is
    /// column-compatible with the naive one.
    pub columns: [String; 3],
}

/// Try to match a query against the property-expansion shape.
pub fn recognize_property_expansion(query: &Query) -> Option<PropertyExpansionQuery> {
    // Outer: GROUP BY ?p with projection (?p, COUNT(?p)|COUNT(*) AS c,
    // SUM(?sp) AS s) and a single subselect in WHERE.
    if query.group_by.len() != 1 {
        return None;
    }
    let p_var = query.group_by[0].clone();
    let SelectItems::Items(items) = &query.select.items else {
        return None;
    };
    if items.len() != 3 {
        return None;
    }
    let Expr::Var(v0) = &items[0].expr else {
        return None;
    };
    if *v0 != p_var {
        return None;
    }
    let count_col = match &items[1].expr {
        Expr::Aggregate(elinda_sparql::ast::AggFunc::Count, _, false) => {
            items[1].output_name()?.to_string()
        }
        _ => return None,
    };
    let (sum_col, sum_var) = match &items[2].expr {
        Expr::Aggregate(elinda_sparql::ast::AggFunc::Sum, Some(arg), false) => {
            let Expr::Var(sv) = arg.as_ref() else {
                return None;
            };
            (items[2].output_name()?.to_string(), sv.clone())
        }
        _ => return None,
    };

    // The single WHERE element must be the inner subselect.
    let [PatternElement::SubSelect(inner)] = query.where_clause.elements.as_slice() else {
        return None;
    };

    // Inner: GROUP BY ?s ?p (or ?o ?p) projecting COUNT(*) AS ?sp.
    if inner.group_by.len() != 2 || !inner.group_by.contains(&p_var) {
        return None;
    }
    let entity_var = inner.group_by.iter().find(|v| **v != p_var)?.clone();
    let SelectItems::Items(inner_items) = &inner.select.items else {
        return None;
    };
    let counts_star = inner_items.iter().any(|i| {
        matches!(
            &i.expr,
            Expr::Aggregate(elinda_sparql::ast::AggFunc::Count, None, false)
        ) && i.output_name() == Some(sum_var.as_str())
    });
    if !counts_star {
        return None;
    }

    // Innermost: exactly the two triple patterns.
    let [PatternElement::Triples(patterns)] = inner.where_clause.elements.as_slice() else {
        return None;
    };
    if patterns.len() != 2 {
        return None;
    }
    let mut class: Option<Term> = None;
    let mut typed_var: Option<String> = None;
    let mut spo: Option<(String, String)> = None; // (subject var, object var)
    for pat in patterns {
        match (&pat.s, &pat.p, &pat.o) {
            (
                TermOrVar::Var(sv),
                Predicate::Simple(TermOrVar::Term(Term::Iri(p))),
                TermOrVar::Term(c),
            ) if p.as_ref() == vocab::rdf::TYPE => {
                class = Some(c.clone());
                typed_var = Some(sv.clone());
            }
            (TermOrVar::Var(sv), Predicate::Simple(TermOrVar::Var(pv)), TermOrVar::Var(ov))
                if *pv == p_var =>
            {
                spo = Some((sv.clone(), ov.clone()));
            }
            _ => return None,
        }
    }
    let (class, typed_var) = (class?, typed_var?);
    let (s_var, o_var) = spo?;
    let direction = if typed_var == s_var && entity_var == s_var {
        ExpansionDirection::Outgoing
    } else if typed_var == o_var && entity_var == o_var {
        ExpansionDirection::Incoming
    } else {
        return None;
    };
    Some(PropertyExpansionQuery {
        class,
        direction,
        columns: [p_var, count_col, sum_col],
    })
}

/// Answer a recognized property-expansion query from the fully
/// precomputed [`elinda_store::PropertyAggregates`] index (the ablation variant: all
/// `(class, property)` aggregates materialized at mirror-load time).
///
/// Constant-time per output row, at the cost of `O(classes × properties)`
/// memory and a full preprocessing pass — the trade-off the
/// `ablation_decomposer` bench quantifies against the on-demand variant.
pub fn execute_precomputed(
    store: &TripleStore,
    aggregates: &elinda_store::PropertyAggregates,
    q: &PropertyExpansionQuery,
) -> Solutions {
    let mut rows = Vec::new();
    if let Some(class_id) = store.interner().get(&q.class) {
        let pairs = match q.direction {
            ExpansionDirection::Outgoing => aggregates.outgoing(class_id),
            ExpansionDirection::Incoming => aggregates.incoming(class_id),
        };
        rows.reserve(pairs.len());
        for &(p, agg) in pairs {
            rows.push(vec![
                Some(Value::Term(p)),
                Some(Value::Int(agg.entity_count as i64)),
                Some(Value::Int(agg.triple_count as i64)),
            ]);
        }
    }
    let mut solutions = Solutions {
        vars: q.columns.to_vec(),
        rows,
    };
    crate::parallel::canonicalize_rows(&mut solutions, store);
    solutions
}

/// Answer a recognized property-expansion query from the indexes: derive
/// the class's instance set, then run the chart kernel over it
/// ([`crate::incremental::execute_decomposed_from_frontier`]).
///
/// Rows come back in the canonical order (sorted by property IRI text),
/// the finisher every chart evaluator shares, so all of them are
/// byte-identical on the SPARQL-JSON wire format.
pub fn execute_decomposed(
    store: &TripleStore,
    hierarchy: &ClassHierarchy,
    q: &PropertyExpansionQuery,
) -> Solutions {
    execute_decomposed_from_frontier(store, &class_members(store, hierarchy, q), q)
}

/// The sorted instance set of `q.class` (empty for a class the store has
/// never seen) — the member slice a cold chart evaluates over.
pub fn class_members(
    store: &TripleStore,
    hierarchy: &ClassHierarchy,
    q: &PropertyExpansionQuery,
) -> Vec<TermId> {
    match store.interner().get(&q.class) {
        Some(class_id) => hierarchy.instances(store, class_id),
        None => Vec::new(),
    }
}

/// The canonical SPARQL text of a property-expansion query for a class —
/// what the eLinda frontend sends for the Property Data tab.
pub fn property_expansion_sparql(class_iri: &str, direction: ExpansionDirection) -> String {
    let (inner_patterns, entity) = match direction {
        ExpansionDirection::Outgoing => (format!("?s a <{class_iri}> . ?s ?p ?o ."), "?s"),
        ExpansionDirection::Incoming => (format!("?o a <{class_iri}> . ?s ?p ?o ."), "?o"),
    };
    format!(
        "SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?sp) WHERE {{ \
         {{ SELECT {entity} ?p (COUNT(*) AS ?sp) WHERE {{ {inner_patterns} }} \
         GROUP BY {entity} ?p }} }} GROUP BY ?p"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_sparql::parse_query;

    const PAPER_QUERY: &str = "SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
        FROM {SELECT ?s ?p count(*) AS ?sp
        FROM {?s a owl:Thing. ?s ?p ?o.}
        GROUP BY ?s ?p} GROUP BY ?p";

    fn store() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix owl: <http://www.w3.org/2002/07/owl#> .
            ex:a a owl:Thing ; ex:p ex:b , ex:c ; ex:q ex:b .
            ex:b a owl:Thing ; ex:p ex:c .
            ex:c a owl:Thing .
            ex:outside ex:p ex:a .
            "#,
        )
        .unwrap()
    }

    #[test]
    fn recognizes_the_verbatim_paper_query() {
        let q = parse_query(PAPER_QUERY).unwrap();
        let rec = recognize_property_expansion(&q).expect("must recognize");
        assert_eq!(rec.class, Term::iri(vocab::owl::THING));
        assert_eq!(rec.direction, ExpansionDirection::Outgoing);
        assert_eq!(rec.columns, ["p".to_string(), "count".into(), "sp".into()]);
    }

    #[test]
    fn recognizes_the_incoming_variant() {
        let text = property_expansion_sparql("http://e/C", ExpansionDirection::Incoming);
        let q = parse_query(&text).unwrap();
        let rec = recognize_property_expansion(&q).expect("must recognize");
        assert_eq!(rec.direction, ExpansionDirection::Incoming);
        assert_eq!(rec.class, Term::iri("http://e/C"));
    }

    #[test]
    fn recognizes_generated_canonical_form() {
        let text = property_expansion_sparql(vocab::owl::THING, ExpansionDirection::Outgoing);
        let q = parse_query(&text).unwrap();
        assert!(recognize_property_expansion(&q).is_some());
    }

    #[test]
    fn rejects_other_queries() {
        for text in [
            "SELECT ?s WHERE { ?s ?p ?o }",
            "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
            // Aggregation shape right but patterns wrong (extra pattern).
            "SELECT ?p (COUNT(?p) AS ?c) (SUM(?sp) AS ?sp) WHERE { { SELECT ?s ?p (COUNT(*) AS ?sp) WHERE { ?s a owl:Thing . ?s ?p ?o . ?o a owl:Thing } GROUP BY ?s ?p } } GROUP BY ?p",
        ] {
            let q = parse_query(text).unwrap();
            assert!(recognize_property_expansion(&q).is_none(), "{text}");
        }
    }

    fn sorted_rows(sol: &Solutions, store: &TripleStore) -> Vec<(String, i64, i64)> {
        let p = sol.column(&sol.vars[0]).unwrap();
        let c = sol.column(&sol.vars[1]).unwrap();
        let s = sol.column(&sol.vars[2]).unwrap();
        let mut rows: Vec<(String, i64, i64)> = sol
            .rows
            .iter()
            .map(|r| {
                let prop = match &r[p] {
                    Some(Value::Term(id)) => store.resolve(*id).to_string(),
                    other => panic!("{other:?}"),
                };
                let count = r[c].as_ref().unwrap().as_number(store).unwrap() as i64;
                let sum = r[s].as_ref().unwrap().as_number(store).unwrap() as i64;
                (prop, count, sum)
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn precomputed_equals_on_demand() {
        let store = store();
        let h = ClassHierarchy::build(&store);
        let aggregates = elinda_store::PropertyAggregates::build(&store, &h);
        for dir in [ExpansionDirection::Outgoing, ExpansionDirection::Incoming] {
            let text = property_expansion_sparql(vocab::owl::THING, dir);
            let q = parse_query(&text).unwrap();
            let rec = recognize_property_expansion(&q).unwrap();
            let on_demand = execute_decomposed(&store, &h, &rec);
            let precomputed = execute_precomputed(&store, &aggregates, &rec);
            assert_eq!(
                sorted_rows(&on_demand, &store),
                sorted_rows(&precomputed, &store),
                "{dir:?}"
            );
        }
    }

    #[test]
    fn precomputed_unknown_class_is_empty() {
        let store = store();
        let h = ClassHierarchy::build(&store);
        let aggregates = elinda_store::PropertyAggregates::build(&store, &h);
        let text = property_expansion_sparql("http://e/Nothing", ExpansionDirection::Outgoing);
        let rec = recognize_property_expansion(&parse_query(&text).unwrap()).unwrap();
        assert!(execute_precomputed(&store, &aggregates, &rec).is_empty());
    }
}
