//! [`TripleStore`]: sorted-permutation-index triple storage.
//!
//! Three fully sorted arrays (SPO, POS, OSP) answer every triple-pattern
//! shape with one binary search and a contiguous scan, the classic layout
//! of RDF stores (and of Virtuoso's quad indexes, which the paper's
//! endpoint mirrors). Bulk load is sort-based; point inserts/removes are
//! `O(n)` memmoves, acceptable because eLinda workloads are read-heavy —
//! updates exist mainly to exercise HVS invalidation.

use crate::schema::ClassHierarchy;
use elinda_rdf::{Graph, Interner, Term, TermId, Triple};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide source of store lineage identifiers. Every store built
/// from scratch (`new` / `from_graph`) gets a fresh id; clones keep the
/// id, so a clone-and-mutate chain (the novelty overlay's
/// copy-on-write views) forms one lineage with a monotone epoch.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_store_id() -> u64 {
    NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One triple set in the three sorted permutations, with the range
/// lookups every evaluator reads through. [`TripleStore`] embeds one for
/// the whole graph and [`crate::Shard`] one per partition, so a scan
/// written against `&TripleIndex` runs unchanged over either.
#[derive(Debug, Clone, Default)]
pub struct TripleIndex {
    /// Sorted by (s, p, o).
    spo: Vec<Triple>,
    /// Sorted by (p, o, s).
    pos: Vec<Triple>,
    /// Sorted by (o, s, p).
    osp: Vec<Triple>,
}

impl TripleIndex {
    /// Build the POS and OSP permutations from an SPO-sorted triple set.
    pub(crate) fn from_sorted_spo(spo: Vec<Triple>) -> Self {
        let mut pos = spo.clone();
        let mut osp = spo.clone();
        pos.sort_unstable_by_key(Triple::pos);
        osp.sort_unstable_by_key(Triple::osp);
        TripleIndex { spo, pos, osp }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the index holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// The SPO-sorted triple slice.
    pub fn spo_slice(&self) -> &[Triple] {
        &self.spo
    }

    /// The POS-sorted triple slice.
    pub fn pos_slice(&self) -> &[Triple] {
        &self.pos
    }

    /// The OSP-sorted triple slice.
    pub fn osp_slice(&self) -> &[Triple] {
        &self.osp
    }

    /// The contiguous SPO range for subject `s` (optionally narrowed by
    /// predicate `p`).
    pub fn spo_range(&self, s: TermId, p: Option<TermId>) -> &[Triple] {
        match p {
            None => range_by(&self.spo, |t| t.s.cmp(&s)),
            Some(p) => range_by(&self.spo, |t| t.s.cmp(&s).then(t.p.cmp(&p))),
        }
    }

    /// The contiguous POS range for predicate `p` (optionally narrowed by
    /// object `o`).
    pub fn pos_range(&self, p: TermId, o: Option<TermId>) -> &[Triple] {
        match o {
            None => range_by(&self.pos, |t| t.p.cmp(&p)),
            Some(o) => range_by(&self.pos, |t| t.p.cmp(&p).then(t.o.cmp(&o))),
        }
    }

    /// The contiguous OSP range for object `o` (optionally narrowed by
    /// subject `s`).
    pub fn osp_range(&self, o: TermId, s: Option<TermId>) -> &[Triple] {
        match s {
            None => range_by(&self.osp, |t| t.o.cmp(&o)),
            Some(s) => range_by(&self.osp, |t| t.o.cmp(&o).then(t.s.cmp(&s))),
        }
    }
}

/// An in-memory indexed RDF triple store.
#[derive(Debug, Clone)]
pub struct TripleStore {
    interner: Interner,
    index: TripleIndex,
    /// Bumped on every successful mutation; drives HVS invalidation.
    epoch: u64,
    /// Lineage identity: snapshots built against a *different* store
    /// object (e.g. a reload via `from_graph`) must read as stale even
    /// if the epoch numbers happen to coincide.
    store_id: u64,
    /// This snapshot's class hierarchy, built on first use by
    /// [`TripleStore::hierarchy`]. A clone carries it along; every
    /// mutation drops it (through `next_epoch`), so it is always the
    /// hierarchy of exactly these triples.
    hierarchy: OnceLock<Arc<ClassHierarchy>>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        TripleStore {
            interner: Interner::new(),
            index: TripleIndex::default(),
            epoch: 0,
            store_id: fresh_store_id(),
            hierarchy: OnceLock::new(),
        }
    }

    /// Bulk-load a [`Graph`]. Triples are deduplicated by the graph; here we
    /// only sort the three permutations.
    pub fn from_graph(graph: Graph) -> Self {
        let (interner, triples) = graph.into_parts();
        let mut spo = triples;
        spo.sort_unstable_by_key(Triple::spo);
        TripleStore {
            interner,
            index: TripleIndex::from_sorted_spo(spo),
            epoch: 0,
            store_id: fresh_store_id(),
            hierarchy: OnceLock::new(),
        }
    }

    /// Assemble a store from already-built index parts: an interner and
    /// the three sorted, deduplicated permutations of one triple set.
    /// Used by the persistence loader ([`crate::persist`]) and the bulk
    /// loader ([`crate::loader`]), which produce the sorted runs
    /// themselves. The `epoch` is restored verbatim (a reloaded store
    /// continues its saved lineage's epoch count); the store id is
    /// fresh, so epoch-tagged snapshots from before a reload always
    /// read as stale.
    ///
    /// The permutations must be sorted by their respective keys and
    /// contain the same triples; debug builds assert this.
    pub fn from_index_parts(
        interner: Interner,
        spo: Vec<Triple>,
        pos: Vec<Triple>,
        osp: Vec<Triple>,
        epoch: u64,
    ) -> Self {
        debug_assert!(spo.windows(2).all(|w| w[0].spo() < w[1].spo()));
        debug_assert!(pos.windows(2).all(|w| w[0].pos() < w[1].pos()));
        debug_assert!(osp.windows(2).all(|w| w[0].osp() < w[1].osp()));
        debug_assert_eq!(spo.len(), pos.len());
        debug_assert_eq!(spo.len(), osp.len());
        TripleStore {
            interner,
            index: TripleIndex { spo, pos, osp },
            epoch,
            store_id: fresh_store_id(),
            hierarchy: OnceLock::new(),
        }
    }

    /// Parse and load an N-Triples document.
    pub fn from_ntriples(input: &str) -> Result<Self, elinda_rdf::RdfError> {
        Ok(Self::from_graph(elinda_rdf::ntriples::parse_document(
            input,
        )?))
    }

    /// Parse and load a Turtle document.
    pub fn from_turtle(input: &str) -> Result<Self, elinda_rdf::RdfError> {
        Ok(Self::from_graph(elinda_rdf::turtle::parse_document(input)?))
    }

    /// The term interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern a term (e.g. before issuing pattern queries with new IRIs).
    pub fn intern(&mut self, term: Term) -> TermId {
        self.interner.intern(term)
    }

    /// Resolve a term id.
    pub fn resolve(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Look up an IRI without interning.
    pub fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.interner.get_iri(iri)
    }

    /// The three sorted permutations and their range lookups.
    pub fn index(&self) -> &TripleIndex {
        &self.index
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The current epoch. Any mutation bumps it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The store's lineage id: shared by clones (whose epochs continue
    /// this store's), distinct for stores built from scratch. Epoch
    /// comparisons are only meaningful within one lineage.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Bump the epoch without touching the data — a compaction point.
    /// Folding novelty into a new base does not change what the triples
    /// say, but every epoch-tagged snapshot and cache entry built on the
    /// pre-compaction view must demote, so the fold is made visible as a
    /// mutation. Returns the new epoch.
    pub fn bump_epoch(&mut self) -> u64 {
        self.next_epoch()
    }

    /// The class hierarchy of this snapshot, built on the first call and
    /// shared by every later one (and by clones taken before the next
    /// mutation). Concurrent first callers wait for one build.
    pub fn hierarchy(&self) -> Arc<ClassHierarchy> {
        Arc::clone(
            self.hierarchy
                .get_or_init(|| Arc::new(ClassHierarchy::build(self))),
        )
    }

    /// Advance the epoch and drop the memoized hierarchy: the one step
    /// every mutation (and every compaction point) goes through.
    fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.hierarchy.take();
        self.epoch
    }

    /// The SPO-sorted triple slice. The incremental evaluator treats this
    /// as "the first N triples, the next N triples, …" of the graph.
    pub fn spo_slice(&self) -> &[Triple] {
        self.index.spo_slice()
    }

    /// The POS-sorted triple slice.
    pub fn pos_slice(&self) -> &[Triple] {
        self.index.pos_slice()
    }

    /// The OSP-sorted triple slice.
    pub fn osp_slice(&self) -> &[Triple] {
        self.index.osp_slice()
    }

    /// True if the triple is present.
    pub fn contains(&self, t: Triple) -> bool {
        let spo = &self.index.spo;
        spo.binary_search_by_key(&t.spo(), Triple::spo).is_ok()
    }

    /// Insert a triple of interned ids. Returns `true` (and bumps the
    /// epoch) if the triple was new. `O(n)`.
    pub fn insert(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let t = Triple::new(s, p, o);
        let idx = match self.index.spo.binary_search_by_key(&t.spo(), Triple::spo) {
            Ok(_) => return false,
            Err(idx) => idx,
        };
        self.index.spo.insert(idx, t);
        let idx = self
            .index
            .pos
            .binary_search_by_key(&t.pos(), Triple::pos)
            .expect_err("triple absent from spo must be absent from pos");
        self.index.pos.insert(idx, t);
        let idx = self
            .index
            .osp
            .binary_search_by_key(&t.osp(), Triple::osp)
            .expect_err("triple absent from spo must be absent from osp");
        self.index.osp.insert(idx, t);
        self.next_epoch();
        true
    }

    /// Intern three terms and insert the triple.
    pub fn insert_terms(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.interner.intern(s);
        let p = self.interner.intern(p);
        let o = self.interner.intern(o);
        self.insert(s, p, o)
    }

    /// Remove a triple. Returns `true` (and bumps the epoch) if it was
    /// present. `O(n)`.
    pub fn remove(&mut self, t: Triple) -> bool {
        let idx = match self.index.spo.binary_search_by_key(&t.spo(), Triple::spo) {
            Ok(idx) => idx,
            Err(_) => return false,
        };
        self.index.spo.remove(idx);
        let idx = self
            .index
            .pos
            .binary_search_by_key(&t.pos(), Triple::pos)
            .expect("triple present in spo must be present in pos");
        self.index.pos.remove(idx);
        let idx = self
            .index
            .osp
            .binary_search_by_key(&t.osp(), Triple::osp)
            .expect("triple present in spo must be present in osp");
        self.index.osp.remove(idx);
        self.next_epoch();
        true
    }

    /// The contiguous SPO range for subject `s` (optionally narrowed by
    /// predicate `p`).
    pub fn spo_range(&self, s: TermId, p: Option<TermId>) -> &[Triple] {
        self.index.spo_range(s, p)
    }

    /// The contiguous POS range for predicate `p` (optionally narrowed by
    /// object `o`).
    pub fn pos_range(&self, p: TermId, o: Option<TermId>) -> &[Triple] {
        self.index.pos_range(p, o)
    }

    /// The contiguous OSP range for object `o` (optionally narrowed by
    /// subject `s`).
    pub fn osp_range(&self, o: TermId, s: Option<TermId>) -> &[Triple] {
        self.index.osp_range(o, s)
    }

    /// Objects `o` with `(s, p, o)` in the store, in sorted order (may
    /// contain duplicates only if the same object occurs under distinct
    /// triples, which dedup prevents — so: sorted and unique).
    pub fn objects_of(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.spo_range(s, Some(p)).iter().map(|t| t.o)
    }

    /// Subjects `s` with `(s, p, o)` in the store, sorted and unique.
    pub fn subjects_with(&self, p: TermId, o: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.pos_range(p, Some(o)).iter().map(|t| t.s)
    }

    /// Distinct predicates in the store, sorted.
    pub fn predicates(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut last = None;
        for t in &self.index.pos {
            if last != Some(t.p) {
                out.push(t.p);
                last = Some(t.p);
            }
        }
        out
    }

    /// Distinct subjects, sorted.
    pub fn subjects(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut last = None;
        for t in &self.index.spo {
            if last != Some(t.s) {
                out.push(t.s);
                last = Some(t.s);
            }
        }
        out
    }
}

impl Default for TripleStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Binary-search the maximal contiguous run where `cmp` returns `Equal`,
/// assuming `sorted` is ordered consistently with `cmp`.
fn range_by(sorted: &[Triple], cmp: impl Fn(&Triple) -> std::cmp::Ordering) -> &[Triple] {
    let start = sorted.partition_point(|t| cmp(t) == std::cmp::Ordering::Less);
    let end = start + sorted[start..].partition_point(|t| cmp(t) == std::cmp::Ordering::Equal);
    &sorted[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_rdf::vocab;

    fn sample() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:a a ex:C ; ex:p ex:b , ex:c ; rdfs:label "a" .
            ex:b a ex:C ; ex:p ex:c .
            ex:c a ex:D .
            "#,
        )
        .unwrap()
    }

    fn iri(store: &TripleStore, s: &str) -> TermId {
        store
            .lookup_iri(s)
            .unwrap_or_else(|| panic!("{s} not interned"))
    }

    #[test]
    fn from_graph_counts() {
        let s = sample();
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn permutations_hold_the_same_triples() {
        let s = sample();
        let mut a = s.spo_slice().to_vec();
        let mut b = s.pos_slice().to_vec();
        let mut c = s.osp_slice().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn indexes_are_sorted() {
        let s = sample();
        assert!(s.spo_slice().windows(2).all(|w| w[0].spo() <= w[1].spo()));
        assert!(s.pos_slice().windows(2).all(|w| w[0].pos() <= w[1].pos()));
        assert!(s.osp_slice().windows(2).all(|w| w[0].osp() <= w[1].osp()));
    }

    #[test]
    fn spo_range_scans() {
        let s = sample();
        let a = iri(&s, "http://e/a");
        let p = iri(&s, "http://e/p");
        assert_eq!(s.spo_range(a, None).len(), 4);
        assert_eq!(s.spo_range(a, Some(p)).len(), 2);
        let objs: Vec<_> = s.objects_of(a, p).collect();
        assert_eq!(objs.len(), 2);
        assert!(objs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pos_range_scans() {
        let s = sample();
        let ty = iri(&s, vocab::rdf::TYPE);
        let c = iri(&s, "http://e/C");
        assert_eq!(s.pos_range(ty, None).len(), 3);
        let subs: Vec<_> = s.subjects_with(ty, c).collect();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn osp_range_scans() {
        let s = sample();
        let c = iri(&s, "http://e/c");
        // c is object of ex:p twice (from a and b).
        assert_eq!(s.osp_range(c, None).len(), 2);
        let a = iri(&s, "http://e/a");
        assert_eq!(s.osp_range(c, Some(a)).len(), 1);
    }

    #[test]
    fn contains_and_insert() {
        let mut s = sample();
        let t = s.spo_slice()[0];
        assert!(s.contains(t));
        assert!(!s.insert(t.s, t.p, t.o));
        assert_eq!(s.epoch(), 0);

        let x = s.intern(Term::iri("http://e/new"));
        let p = iri(&s, "http://e/p");
        assert!(s.insert(x, p, x));
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.len(), 8);
        assert!(s.contains(Triple::new(x, p, x)));
        // All permutations stay sorted after insert.
        assert!(s.pos_slice().windows(2).all(|w| w[0].pos() <= w[1].pos()));
        assert!(s.osp_slice().windows(2).all(|w| w[0].osp() <= w[1].osp()));
    }

    #[test]
    fn remove_bumps_epoch_and_shrinks() {
        let mut s = sample();
        let t = s.spo_slice()[0];
        assert!(s.remove(t));
        assert!(!s.remove(t));
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.len(), 6);
        assert!(!s.contains(t));
    }

    #[test]
    fn predicates_and_subjects_distinct_sorted() {
        let s = sample();
        let preds = s.predicates();
        assert_eq!(preds.len(), 3); // rdf:type, ex:p, rdfs:label
        assert!(preds.windows(2).all(|w| w[0] < w[1]));
        let subs = s.subjects();
        assert_eq!(subs.len(), 3); // a, b, c
    }

    #[test]
    fn empty_store_behaviour() {
        let s = TripleStore::new();
        assert!(s.is_empty());
        assert!(s.predicates().is_empty());
        assert!(s.subjects().is_empty());
    }

    #[test]
    fn range_on_absent_key_is_empty() {
        let mut s = sample();
        let ghost = s.intern(Term::iri("http://e/ghost"));
        assert!(s.spo_range(ghost, None).is_empty());
        assert!(s.pos_range(ghost, None).is_empty());
        assert!(s.osp_range(ghost, None).is_empty());
    }

    #[test]
    fn hierarchy_memo_is_built_once_and_dropped_by_every_mutation() {
        let original = sample();
        let (c, d) = (iri(&original, "http://e/C"), iri(&original, "http://e/D"));
        let memo = original.hierarchy();
        assert!(Arc::ptr_eq(&memo, &original.hierarchy()), "built once");
        assert!(memo.direct_subclasses(d).is_empty());

        // A clone carries the filled memo; its first insert drops it.
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&memo, &clone.hierarchy()));
        let sub_class_of = clone.intern(Term::iri(vocab::rdfs::SUB_CLASS_OF));
        assert!(clone.insert(c, sub_class_of, d));
        assert_eq!(clone.hierarchy().direct_subclasses(d), &[c]);
        assert_eq!(clone.hierarchy().direct_superclasses(c), &[d]);
        assert!(original.hierarchy().direct_subclasses(d).is_empty());
        assert!(Arc::ptr_eq(&memo, &original.hierarchy()));

        // Removing the edge again drops the clone's memo once more.
        let with_edge = clone.hierarchy();
        assert!(clone.remove(Triple::new(c, sub_class_of, d)));
        assert!(clone.hierarchy().direct_subclasses(d).is_empty());
        assert!(!Arc::ptr_eq(&with_edge, &clone.hierarchy()));

        // A compaction point keeps the triples but not the memo.
        let before_bump = clone.hierarchy();
        clone.bump_epoch();
        assert!(!Arc::ptr_eq(&before_bump, &clone.hierarchy()));
    }
}
