//! The class hierarchy view over a store.
//!
//! eLinda's vertical exploration axis is `rdfs:subClassOf` (paper
//! Section 3.1): datasets that declare a hierarchy with `owl:Class` /
//! `rdfs:Class` and `rdfs:subClassOf` are "better explorable". This module
//! extracts that hierarchy once and serves:
//!
//! * direct and transitive subclass/superclass queries (with cycle
//!   tolerance — open data contains subclass cycles);
//! * instance sets and counts per class;
//! * root detection, including the LinkedGeoData case of a dataset with
//!   *no* root class (paper footnote 7);
//! * the declared-class list feeding the autocomplete search box.

use crate::store::TripleStore;
use elinda_rdf::fx::{FxHashMap, FxHashSet};
use elinda_rdf::{vocab, TermId};

/// An immutable snapshot of the class hierarchy of a store.
///
/// [`TripleStore::hierarchy`] builds one per store snapshot on first use
/// and drops it on every mutation, so a caller holding a store always
/// reads the hierarchy of exactly that store's triples.
/// [`ClassHierarchy::build`] stays available for an unshared copy.
#[derive(Debug, Clone)]
pub struct ClassHierarchy {
    /// class → direct subclasses (sorted).
    children: FxHashMap<TermId, Vec<TermId>>,
    /// class → direct superclasses (sorted).
    parents: FxHashMap<TermId, Vec<TermId>>,
    /// Every term that appears as a class: declared via `owl:Class` /
    /// `rdfs:Class`, used in `rdfs:subClassOf`, or used as an `rdf:type`
    /// object. Sorted.
    classes: Vec<TermId>,
    /// Terms explicitly declared as classes (`owl:Class` / `rdfs:Class`).
    declared: Vec<TermId>,
    /// Classes with no superclass, sorted (candidate roots).
    roots: Vec<TermId>,
    /// The id of `owl:Thing`, if present in the dataset.
    owl_thing: Option<TermId>,
    /// The id of `rdf:type`, if present.
    rdf_type: Option<TermId>,
}

impl ClassHierarchy {
    /// Extract the hierarchy from a store.
    pub fn build(store: &TripleStore) -> Self {
        let rdf_type = store.lookup_iri(vocab::rdf::TYPE);
        let sub_class_of = store.lookup_iri(vocab::rdfs::SUB_CLASS_OF);
        let owl_class = store.lookup_iri(vocab::owl::CLASS);
        let rdfs_class = store.lookup_iri(vocab::rdfs::CLASS);
        let owl_thing = store.lookup_iri(vocab::owl::THING);

        let mut children: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        let mut parents: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        let mut class_set: FxHashSet<TermId> = FxHashSet::default();

        if let Some(sco) = sub_class_of {
            for t in store.pos_range(sco, None) {
                children.entry(t.o).or_default().push(t.s);
                parents.entry(t.s).or_default().push(t.o);
                class_set.insert(t.s);
                class_set.insert(t.o);
            }
        }
        let mut declared = Vec::new();
        if let Some(ty) = rdf_type {
            for class_decl in [owl_class, rdfs_class].into_iter().flatten() {
                for t in store.pos_range(ty, Some(class_decl)) {
                    class_set.insert(t.s);
                    declared.push(t.s);
                }
            }
            // Every rdf:type object is a class in use.
            for t in store.pos_range(ty, None) {
                class_set.insert(t.o);
            }
        }
        declared.sort_unstable();
        declared.dedup();

        for v in children.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        for v in parents.values_mut() {
            v.sort_unstable();
            v.dedup();
        }

        let mut classes: Vec<TermId> = class_set.iter().copied().collect();
        classes.sort_unstable();

        // The schema meta-classes are classes *of classes*; they would
        // otherwise always surface as roots in datasets that declare their
        // classes (every `c a owl:Class` makes owl:Class a type object).
        let meta: Vec<TermId> = [
            owl_class,
            rdfs_class,
            store.lookup_iri(vocab::rdf::PROPERTY),
        ]
        .into_iter()
        .flatten()
        .collect();
        let mut roots: Vec<TermId> = classes
            .iter()
            .copied()
            .filter(|c| !parents.contains_key(c) && !meta.contains(c))
            .collect();
        roots.sort_unstable();

        ClassHierarchy {
            children,
            parents,
            classes,
            declared,
            roots,
            owl_thing,
            rdf_type,
        }
    }

    /// Direct subclasses of `class` (sorted; empty if none).
    pub fn direct_subclasses(&self, class: TermId) -> &[TermId] {
        self.children.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Direct superclasses of `class` (sorted; empty if none).
    pub fn direct_superclasses(&self, class: TermId) -> &[TermId] {
        self.parents.get(&class).map_or(&[], Vec::as_slice)
    }

    /// All transitive subclasses of `class`, excluding `class` itself,
    /// sorted. Tolerates cycles.
    pub fn all_subclasses(&self, class: TermId) -> Vec<TermId> {
        let mut seen: FxHashSet<TermId> = FxHashSet::default();
        let mut stack: Vec<TermId> = self.direct_subclasses(class).to_vec();
        while let Some(c) = stack.pop() {
            if c != class && seen.insert(c) {
                stack.extend_from_slice(self.direct_subclasses(c));
            }
        }
        let mut out: Vec<TermId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// All transitive superclasses of `class`, excluding `class` itself,
    /// sorted. Tolerates cycles.
    pub fn all_superclasses(&self, class: TermId) -> Vec<TermId> {
        let mut seen: FxHashSet<TermId> = FxHashSet::default();
        let mut stack: Vec<TermId> = self.direct_superclasses(class).to_vec();
        while let Some(c) = stack.pop() {
            if c != class && seen.insert(c) {
                stack.extend_from_slice(self.direct_superclasses(c));
            }
        }
        let mut out: Vec<TermId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Number of direct subclasses (the pane's "direct subclasses" stat).
    pub fn direct_subclass_count(&self, class: TermId) -> usize {
        self.direct_subclasses(class).len()
    }

    /// Number of transitive subclasses (the pane's "total subclasses"
    /// stat — e.g. 277 for DBpedia's `Agent`).
    pub fn total_subclass_count(&self, class: TermId) -> usize {
        self.all_subclasses(class).len()
    }

    /// Direct instances of `class`: subjects with `(s, rdf:type, class)`,
    /// sorted and unique.
    pub fn instances(&self, store: &TripleStore, class: TermId) -> Vec<TermId> {
        let Some(ty) = self.rdf_type else {
            return Vec::new();
        };
        let mut out: Vec<TermId> = store.subjects_with(ty, class).collect();
        out.dedup(); // pos range is sorted by s for fixed (p, o)
        out
    }

    /// Number of direct instances, without materializing the set.
    pub fn instance_count(&self, store: &TripleStore, class: TermId) -> usize {
        let Some(ty) = self.rdf_type else { return 0 };
        store.pos_range(ty, Some(class)).len()
    }

    /// Whether `(entity, rdf:type, class)` is in the store — a binary
    /// search in the entity's `rdf:type` SPO run (sorted by object), so
    /// membership checks over a candidate frontier cost `O(log deg)` each.
    pub fn is_instance_of(&self, store: &TripleStore, entity: TermId, class: TermId) -> bool {
        let Some(ty) = self.rdf_type else {
            return false;
        };
        store
            .spo_range(entity, Some(ty))
            .binary_search_by(|t| t.o.cmp(&class))
            .is_ok()
    }

    /// Instances of `class` or any transitive subclass, sorted and unique.
    ///
    /// Datasets like DBpedia materialize transitive types, in which case
    /// this equals [`Self::instances`]; for non-materialized data this
    /// computes the union.
    pub fn instances_transitive(&self, store: &TripleStore, class: TermId) -> Vec<TermId> {
        let mut out = self.instances(store, class);
        for sub in self.all_subclasses(class) {
            out.extend(self.instances(store, sub));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Classes of an instance: objects of `(s, rdf:type, ·)`, sorted.
    pub fn classes_of(&self, store: &TripleStore, instance: TermId) -> Vec<TermId> {
        let Some(ty) = self.rdf_type else {
            return Vec::new();
        };
        let mut out: Vec<TermId> = store.objects_of(instance, ty).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every class in use (declared, in a subclass axiom, or an
    /// `rdf:type` object), sorted.
    pub fn classes(&self) -> &[TermId] {
        &self.classes
    }

    /// Classes explicitly declared via `owl:Class` / `rdfs:Class` — the
    /// population of the autocomplete search box (paper Section 3.2).
    pub fn declared_classes(&self) -> &[TermId] {
        &self.declared
    }

    /// Classes with no superclass.
    pub fn roots(&self) -> &[TermId] {
        &self.roots
    }

    /// The root class for the initial chart: `owl:Thing` when the dataset
    /// has it; otherwise `None` and the caller falls back to
    /// [`Self::roots`] (the LinkedGeoData case, paper footnote 7).
    pub fn owl_thing(&self) -> Option<TermId> {
        self.owl_thing
    }

    /// Top-level classes: direct subclasses of `owl:Thing` when present,
    /// otherwise all roots.
    pub fn top_level_classes(&self) -> Vec<TermId> {
        match self.owl_thing {
            Some(thing) => {
                let direct = self.direct_subclasses(thing);
                if direct.is_empty() {
                    // owl:Thing interned but never used as a superclass.
                    self.roots.iter().copied().filter(|&c| c != thing).collect()
                } else {
                    direct.to_vec()
                }
            }
            None => self.roots.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONTO: &str = r#"
        @prefix ex: <http://e/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix owl: <http://www.w3.org/2002/07/owl#> .
        ex:Agent a owl:Class ; rdfs:subClassOf owl:Thing .
        ex:Person a owl:Class ; rdfs:subClassOf ex:Agent .
        ex:Philosopher a owl:Class ; rdfs:subClassOf ex:Person .
        ex:Politician a owl:Class ; rdfs:subClassOf ex:Person .
        ex:Place a owl:Class ; rdfs:subClassOf owl:Thing .
        ex:alice a ex:Person ; a ex:Agent ; a owl:Thing .
        ex:plato a ex:Philosopher ; a ex:Person ; a ex:Agent ; a owl:Thing .
        ex:athens a ex:Place ; a owl:Thing .
    "#;

    fn setup() -> (TripleStore, ClassHierarchy) {
        let store = TripleStore::from_turtle(ONTO).unwrap();
        let h = ClassHierarchy::build(&store);
        (store, h)
    }

    fn id(store: &TripleStore, local: &str) -> TermId {
        store.lookup_iri(&format!("http://e/{local}")).unwrap()
    }

    #[test]
    fn direct_and_transitive_subclasses() {
        let (store, h) = setup();
        let agent = id(&store, "Agent");
        let person = id(&store, "Person");
        assert_eq!(h.direct_subclasses(agent), &[person]);
        assert_eq!(h.direct_subclass_count(agent), 1);
        assert_eq!(h.total_subclass_count(agent), 3); // Person, Philosopher, Politician
        let thing = h.owl_thing().unwrap();
        assert_eq!(h.total_subclass_count(thing), 5);
    }

    #[test]
    fn superclasses() {
        let (store, h) = setup();
        let phil = id(&store, "Philosopher");
        let supers = h.all_superclasses(phil);
        assert_eq!(supers.len(), 3); // Person, Agent, owl:Thing
        assert!(supers.contains(&h.owl_thing().unwrap()));
    }

    #[test]
    fn instances_and_counts() {
        let (store, h) = setup();
        let person = id(&store, "Person");
        let inst = h.instances(&store, person);
        assert_eq!(inst.len(), 2); // alice, plato
        assert_eq!(h.instance_count(&store, person), 2);
        let phil = id(&store, "Philosopher");
        assert_eq!(h.instance_count(&store, phil), 1);
    }

    #[test]
    fn instances_transitive_unions_subclasses() {
        // Strip the materialized types: give bob only the leaf type.
        let store = TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:B rdfs:subClassOf ex:A .
            ex:bob a ex:B .
            ex:ann a ex:A .
            "#,
        )
        .unwrap();
        let h = ClassHierarchy::build(&store);
        let a = store.lookup_iri("http://e/A").unwrap();
        assert_eq!(h.instances(&store, a).len(), 1);
        assert_eq!(h.instances_transitive(&store, a).len(), 2);
    }

    #[test]
    fn classes_of_instance() {
        let (store, h) = setup();
        let plato = id(&store, "plato");
        assert_eq!(h.classes_of(&store, plato).len(), 4);
    }

    #[test]
    fn declared_classes_feed_autocomplete() {
        let (store, h) = setup();
        assert_eq!(h.declared_classes().len(), 5);
        assert!(h.declared_classes().contains(&id(&store, "Philosopher")));
        // owl:Thing is used but not declared in this fixture.
        assert!(!h.declared_classes().contains(&h.owl_thing().unwrap()));
    }

    #[test]
    fn top_level_classes_under_owl_thing() {
        let (store, h) = setup();
        let tops = h.top_level_classes();
        assert_eq!(tops.len(), 2);
        assert!(tops.contains(&id(&store, "Agent")));
        assert!(tops.contains(&id(&store, "Place")));
    }

    #[test]
    fn rootless_dataset_falls_back_to_roots() {
        // LinkedGeoData-like: subclass links but no owl:Thing.
        let store = TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Amenity rdfs:subClassOf ex:Feature .
            ex:Shop rdfs:subClassOf ex:Feature .
            ex:Bakery rdfs:subClassOf ex:Shop .
            ex:x a ex:Bakery .
            "#,
        )
        .unwrap();
        let h = ClassHierarchy::build(&store);
        assert!(h.owl_thing().is_none());
        let feature = store.lookup_iri("http://e/Feature").unwrap();
        assert_eq!(h.top_level_classes(), vec![feature]);
    }

    #[test]
    fn cycles_do_not_hang() {
        let store = TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:A rdfs:subClassOf ex:B .
            ex:B rdfs:subClassOf ex:A .
            "#,
        )
        .unwrap();
        let h = ClassHierarchy::build(&store);
        let a = store.lookup_iri("http://e/A").unwrap();
        let b = store.lookup_iri("http://e/B").unwrap();
        // Each sees the other; the cycle back to itself is excluded.
        assert_eq!(h.all_subclasses(a), vec![b]);
        assert!(h.all_superclasses(a).contains(&b));
        assert!(h.roots().is_empty());
    }

    #[test]
    fn empty_store() {
        let store = TripleStore::new();
        let h = ClassHierarchy::build(&store);
        assert!(h.classes().is_empty());
        assert!(h.roots().is_empty());
        assert!(h.top_level_classes().is_empty());
        assert!(h.owl_thing().is_none());
    }
}
