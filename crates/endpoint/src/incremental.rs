//! Incremental evaluation.
//!
//! "ELINDA builds the chart of an expansion by computing it on the first
//! N triples in the RDF graph. It then continues to compute the query on
//! the next N triples and aggregates the results in the frontend. It
//! continues for k steps, or until the full chart is computed. In the
//! current implementation, the parameters N and k are determined by an
//! administrator's configuration." (Section 4)
//!
//! [`IncrementalPropertyChart`] implements this for the heavy chart — the
//! property expansion. The triple stream is the store's SPO order for
//! outgoing charts (POS for incoming), so each `(s, p)` aggregation run
//! is contiguous; a one-element carry across window boundaries keeps the
//! partial counts exact. After every window the evaluator reports a
//! [`PartialChart`] — the "frontend aggregation" — so the UI can render a
//! progressively completing chart with bounded latency per step.

use elinda_rdf::fx::{FxHashMap, FxHashSet};
use elinda_rdf::{TermId, Triple};
use elinda_sparql::{Solutions, Value};
use elinda_store::{ClassHierarchy, TripleStore};

/// Administrator configuration: the window size `N` and step budget `k`.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// Triples per evaluation window (`N`).
    pub chunk_size: usize,
    /// Maximum number of windows to evaluate (`k`); `None` runs to
    /// completion.
    pub max_steps: Option<usize>,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            chunk_size: 50_000,
            max_steps: None,
        }
    }
}

/// Direction of the chart being computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartDirection {
    /// Instances as subjects (stream in SPO order).
    Outgoing,
    /// Instances as objects (stream in POS order).
    Incoming,
}

/// A frontend snapshot after one evaluation window.
#[derive(Debug, Clone)]
pub struct PartialChart {
    /// `property → (distinct entities so far, triples so far)`.
    pub rows: Vec<(TermId, u64, u64)>,
    /// Triples consumed so far.
    pub triples_seen: usize,
    /// Windows evaluated so far.
    pub steps: usize,
    /// True when the whole graph has been consumed (the chart is exact).
    pub complete: bool,
}

impl PartialChart {
    /// Convert to a [`Solutions`] with the canonical `(p, count, sp)`
    /// columns.
    pub fn to_solutions(&self) -> Solutions {
        Solutions {
            vars: vec!["p".into(), "count".into(), "sp".into()],
            rows: self
                .rows
                .iter()
                .map(|&(p, c, s)| {
                    vec![
                        Some(Value::Term(p)),
                        Some(Value::Int(c as i64)),
                        Some(Value::Int(s as i64)),
                    ]
                })
                .collect(),
        }
    }
}

/// The incremental property-chart evaluator.
pub struct IncrementalPropertyChart<'a> {
    store: &'a TripleStore,
    members: FxHashSet<TermId>,
    direction: ChartDirection,
    config: IncrementalConfig,
    // Aggregation state.
    agg: FxHashMap<TermId, (u64, u64)>,
    pos: usize,
    steps: usize,
    // Carry: the (entity, property) run currently open at a window edge.
    open_run: Option<(TermId, TermId)>,
}

impl<'a> IncrementalPropertyChart<'a> {
    /// Start an incremental evaluation of the property chart for a class.
    pub fn for_class(
        store: &'a TripleStore,
        hierarchy: &ClassHierarchy,
        class: TermId,
        direction: ChartDirection,
        config: IncrementalConfig,
    ) -> Self {
        let members: FxHashSet<TermId> = hierarchy.instances(store, class).into_iter().collect();
        Self::for_members(store, members, direction, config)
    }

    /// Start over an explicit member set.
    pub fn for_members(
        store: &'a TripleStore,
        members: FxHashSet<TermId>,
        direction: ChartDirection,
        config: IncrementalConfig,
    ) -> Self {
        IncrementalPropertyChart {
            store,
            members,
            direction,
            config,
            agg: FxHashMap::default(),
            pos: 0,
            steps: 0,
            open_run: None,
        }
    }

    fn stream(&self) -> &'a [Triple] {
        match self.direction {
            ChartDirection::Outgoing => self.store.spo_slice(),
            ChartDirection::Incoming => self.store.pos_slice(),
        }
    }

    /// Entity/property of a streamed triple under the current direction.
    fn key(&self, t: Triple) -> (TermId, TermId) {
        match self.direction {
            ChartDirection::Outgoing => (t.s, t.p),
            ChartDirection::Incoming => (t.o, t.p),
        }
    }

    /// True if the evaluation has consumed the whole stream or exhausted
    /// its step budget.
    pub fn is_finished(&self) -> bool {
        self.pos >= self.stream().len() || self.config.max_steps.is_some_and(|k| self.steps >= k)
    }

    /// Evaluate one window of `N` triples and return the refreshed
    /// frontend snapshot; `None` if already finished.
    pub fn step(&mut self) -> Option<PartialChart> {
        if self.is_finished() {
            return None;
        }
        let stream = self.stream();
        let end = self
            .pos
            .saturating_add(self.config.chunk_size)
            .min(stream.len());
        for &t in &stream[self.pos..end] {
            let (entity, prop) = self.key(t);
            if !self.members.contains(&entity) {
                continue;
            }
            let e = self.agg.entry(prop).or_default();
            e.1 += 1;
            // A new (entity, property) run contributes one distinct entity.
            if self.open_run != Some((entity, prop)) {
                e.0 += 1;
                self.open_run = Some((entity, prop));
            }
        }
        // Runs are contiguous in SPO order but a window edge may split one;
        // `open_run` carries across windows. (In POS order the runs are
        // (p, o)-contiguous; the key (o, p) preserves run contiguity too.)
        self.pos = end;
        self.steps += 1;
        Some(self.snapshot())
    }

    /// Run to completion (or the step budget), returning the final
    /// snapshot.
    pub fn run(&mut self) -> PartialChart {
        while self.step().is_some() {}
        self.snapshot()
    }

    /// The current frontend snapshot.
    pub fn snapshot(&self) -> PartialChart {
        let mut rows: Vec<(TermId, u64, u64)> =
            self.agg.iter().map(|(&p, &(c, s))| (p, c, s)).collect();
        rows.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        PartialChart {
            rows,
            triples_seen: self.pos,
            steps: self.steps,
            complete: self.pos >= self.stream().len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Frontier-seeded evaluation
// ---------------------------------------------------------------------------
//
// The second half of incremental evaluation: when the router has the parent
// bar's entity frontier cached (see [`crate::cache::ResultCache`]), a child
// expansion seeds from that frontier instead of re-deriving the instance set
// from the store. A chart is a function of its member slice alone, so the
// result is byte-identical to cold evaluation whenever the slice equals the
// class's instance set — which [`seed_child_frontier`] guarantees by
// cardinality verification before handing a derived frontier out.

use crate::decomposer::PropertyExpansionQuery;
use crate::kernel::count_properties;
use crate::parallel::property_agg_solutions;

/// Sequential property expansion over an explicit member frontier: the
/// chart kernel over the whole store, accumulated per property and
/// finished canonically. [`crate::decomposer::execute_decomposed`] is this
/// over the class's instance set.
pub fn execute_decomposed_from_frontier(
    store: &TripleStore,
    members: &[TermId],
    q: &PropertyExpansionQuery,
) -> Solutions {
    let counts = count_properties(store.index(), members, q.direction);
    property_agg_solutions(counts, &q.columns, store)
}

/// Derives the frontier of `child` from its parent's cached frontier:
/// keeps the parent members with an explicit `(e, rdf:type, child)`
/// triple, then verifies the result is the *complete* instance set by
/// cardinality (a subset of equal size is equal). Returns `None` — fall
/// back to cold evaluation — when some `child` instance is not a parent
/// member (non-materialized hierarchies) or the store lacks `rdf:type`.
pub fn seed_child_frontier(
    store: &TripleStore,
    hierarchy: &ClassHierarchy,
    parent_members: &[TermId],
    child: TermId,
) -> Option<Vec<TermId>> {
    let candidate: Vec<TermId> = parent_members
        .iter()
        .copied()
        .filter(|&e| hierarchy.is_instance_of(store, e, child))
        .collect();
    if candidate.len() == hierarchy.instance_count(store, child) {
        Some(candidate)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposer::{
        execute_decomposed, property_expansion_sparql, recognize_property_expansion,
        ExpansionDirection,
    };
    use elinda_sparql::parse_query;

    fn store() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix owl: <http://www.w3.org/2002/07/owl#> .
            ex:a a owl:Thing ; ex:p ex:b , ex:c , ex:d ; ex:q ex:b .
            ex:b a owl:Thing ; ex:p ex:c ; ex:r ex:a .
            ex:c a owl:Thing .
            ex:d a owl:Thing ; ex:q ex:a , ex:b .
            ex:outside ex:p ex:a .
            "#,
        )
        .unwrap()
    }

    fn final_rows(
        store: &TripleStore,
        direction: ChartDirection,
        chunk: usize,
        k: Option<usize>,
    ) -> PartialChart {
        let h = ClassHierarchy::build(store);
        let thing = store.lookup_iri(elinda_rdf::vocab::owl::THING).unwrap();
        let mut inc = IncrementalPropertyChart::for_class(
            store,
            &h,
            thing,
            direction,
            IncrementalConfig {
                chunk_size: chunk,
                max_steps: k,
            },
        );
        inc.run()
    }

    #[test]
    fn completes_and_matches_decomposer_every_chunk_size() {
        let store = store();
        let h = ClassHierarchy::build(&store);
        for direction in [ChartDirection::Outgoing, ChartDirection::Incoming] {
            let exp_dir = match direction {
                ChartDirection::Outgoing => ExpansionDirection::Outgoing,
                ChartDirection::Incoming => ExpansionDirection::Incoming,
            };
            let q = parse_query(&property_expansion_sparql(
                elinda_rdf::vocab::owl::THING,
                exp_dir,
            ))
            .unwrap();
            let rec = recognize_property_expansion(&q).unwrap();
            let reference = execute_decomposed(&store, &h, &rec);
            let mut ref_rows: Vec<(TermId, i64, i64)> = reference
                .rows
                .iter()
                .map(|r| {
                    let p = match r[0] {
                        Some(Value::Term(id)) => id,
                        _ => panic!(),
                    };
                    let c = match r[1] {
                        Some(Value::Int(n)) => n,
                        _ => panic!(),
                    };
                    let s = match r[2] {
                        Some(Value::Int(n)) => n,
                        _ => panic!(),
                    };
                    (p, c, s)
                })
                .collect();
            ref_rows.sort_unstable();

            // Window sizes that split runs at every possible boundary.
            for chunk in 1..=store.len() {
                let partial = final_rows(&store, direction, chunk, None);
                assert!(partial.complete);
                let mut rows: Vec<(TermId, i64, i64)> = partial
                    .rows
                    .iter()
                    .map(|&(p, c, s)| (p, c as i64, s as i64))
                    .collect();
                rows.sort_unstable();
                assert_eq!(rows, ref_rows, "direction {direction:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn step_budget_yields_partial_chart() {
        let store = store();
        let partial = final_rows(&store, ChartDirection::Outgoing, 3, Some(2));
        assert!(!partial.complete);
        assert_eq!(partial.steps, 2);
        assert_eq!(partial.triples_seen, 6);
    }

    #[test]
    fn snapshots_grow_monotonically() {
        let store = store();
        let h = ClassHierarchy::build(&store);
        let thing = store.lookup_iri(elinda_rdf::vocab::owl::THING).unwrap();
        let mut inc = IncrementalPropertyChart::for_class(
            &store,
            &h,
            thing,
            ChartDirection::Outgoing,
            IncrementalConfig {
                chunk_size: 2,
                max_steps: None,
            },
        );
        let mut last_total = 0u64;
        let mut snapshots = 0;
        while let Some(snap) = inc.step() {
            let total: u64 = snap.rows.iter().map(|&(_, _, s)| s).sum();
            assert!(total >= last_total, "partial counts must never shrink");
            last_total = total;
            snapshots += 1;
        }
        assert_eq!(snapshots, store.len().div_ceil(2));
    }

    #[test]
    fn to_solutions_has_canonical_columns() {
        let store = store();
        let partial = final_rows(&store, ChartDirection::Outgoing, 100, None);
        let sol = partial.to_solutions();
        assert_eq!(sol.vars, vec!["p", "count", "sp"]);
        assert_eq!(sol.len(), partial.rows.len());
    }

    #[test]
    fn empty_member_set() {
        let store = store();
        let mut inc = IncrementalPropertyChart::for_members(
            &store,
            Default::default(),
            ChartDirection::Outgoing,
            IncrementalConfig {
                chunk_size: 4,
                max_steps: None,
            },
        );
        let final_chart = inc.run();
        assert!(final_chart.complete);
        assert!(final_chart.rows.is_empty());
    }

    /// A small materialized hierarchy: every Person is also typed Agent
    /// (DBpedia-style), plus one Agent that is not a Person.
    fn hierarchy_store() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Person rdfs:subClassOf ex:Agent .
            ex:alice a ex:Agent , ex:Person ; ex:knows ex:bob ; ex:born ex:town .
            ex:bob a ex:Agent , ex:Person ; ex:knows ex:alice .
            ex:org a ex:Agent ; ex:owns ex:town .
            ex:town a ex:Place .
            "#,
        )
        .unwrap()
    }

    #[test]
    fn seed_child_frontier_derives_and_verifies() {
        let store = hierarchy_store();
        let h = ClassHierarchy::build(&store);
        let agent = store.lookup_iri("http://e/Agent").unwrap();
        let person = store.lookup_iri("http://e/Person").unwrap();
        let agents = h.instances(&store, agent);
        let derived = seed_child_frontier(&store, &h, &agents, person).expect("materialized");
        assert_eq!(derived, h.instances(&store, person));
        // A frontier that misses a Person instance must be rejected.
        let partial: Vec<TermId> = agents
            .iter()
            .copied()
            .filter(|&e| e != derived[0])
            .collect();
        assert!(seed_child_frontier(&store, &h, &partial, person).is_none());
    }
}
