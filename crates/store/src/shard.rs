//! [`ShardedTripleStore`]: a physically partitioned copy of the store.
//!
//! The property-chart aggregation is embarrassingly data-parallel over
//! triple partitions: each shard computes a partial aggregate and the
//! partials merge by keyed summation. A shard process of the multi-process
//! fabric serves one such partition, and the in-process reference
//! evaluator the differential suites compare against walks all of them;
//! in-process serving threads share the one [`TripleStore`] instead. This
//! module provides the partitioning. Triples are assigned to shards by a
//! hash of their **subject**, so:
//!
//! * every triple lands in exactly one shard (the partition invariant the
//!   property tests check);
//! * all outgoing triples of a subject are colocated — a per-shard
//!   `(s, p)` group count is already the global count for that subject;
//! * each shard is a [`TripleIndex`] of its own, answering the same range
//!   queries as the whole store restricted to the shard's triples, so
//!   incoming aggregations merge by summing per-shard `(o, p)` partials.
//!
//! The view is a snapshot: it records the epoch and lineage of the store
//! it was built from and reports itself stale against any other.

use crate::store::{TripleIndex, TripleStore};
use elinda_rdf::{TermId, Triple};

/// One partition of the store: the shard's triples in the three sorted
/// permutations, answering the same range queries as [`TripleStore`]
/// restricted to this shard.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    index: TripleIndex,
}

impl Shard {
    /// The shard's sorted permutations and their range lookups.
    pub fn index(&self) -> &TripleIndex {
        &self.index
    }

    /// Number of triples in this shard.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the shard holds no triples.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The shard's SPO-sorted slice.
    pub fn spo_slice(&self) -> &[Triple] {
        self.index.spo_slice()
    }

    /// The contiguous SPO range for subject `s` (optionally narrowed by
    /// predicate `p`) within this shard.
    pub fn spo_range(&self, s: TermId, p: Option<TermId>) -> &[Triple] {
        self.index.spo_range(s, p)
    }

    /// The contiguous POS range for predicate `p` (optionally narrowed by
    /// object `o`) within this shard.
    pub fn pos_range(&self, p: TermId, o: Option<TermId>) -> &[Triple] {
        self.index.pos_range(p, o)
    }

    /// The contiguous OSP range for object `o` (optionally narrowed by
    /// subject `s`) within this shard.
    pub fn osp_range(&self, o: TermId, s: Option<TermId>) -> &[Triple] {
        self.index.osp_range(o, s)
    }
}

/// A sharded snapshot of a [`TripleStore`], partitioned by subject hash.
#[derive(Debug, Clone)]
pub struct ShardedTripleStore {
    shards: Vec<Shard>,
    /// Epoch of the store this view was built from.
    epoch: u64,
    /// Lineage id of the store this view was built from. Comparing
    /// epochs alone is unsound across store objects: a store rebuilt
    /// from scratch (or a compacted base) restarts or continues its
    /// epoch counter independently, and a numeric collision would let a
    /// pre-rebuild snapshot read as fresh.
    store_id: u64,
    /// Total triples across all shards.
    len: usize,
}

/// The shard index for a subject, for `n` shards.
///
/// Uses the same Fx multiplicative mix as the interner's hash maps rather
/// than `id % n`: interner ids are assigned densely in parse order, so a
/// plain modulus would correlate shard assignment with input order (and
/// with generated datasets' block structure), skewing shard sizes.
#[inline]
pub fn shard_of(subject: TermId, n: usize) -> usize {
    debug_assert!(n > 0);
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mixed = (u64::from(subject.raw())).wrapping_mul(K);
    // High bits carry the mix; fold them in before reducing.
    ((mixed ^ (mixed >> 32)) % n as u64) as usize
}

impl ShardedTripleStore {
    /// Partition `store` into `n` shards (clamped to at least 1) by
    /// subject hash, building per-shard SPO/POS/OSP permutations.
    pub fn build(store: &TripleStore, n: usize) -> Self {
        let n = n.max(1);
        // The store's SPO slice is sorted; a stable partition of it keeps
        // every per-shard SPO slice sorted without re-sorting.
        let mut parts: Vec<Vec<Triple>> = vec![Vec::new(); n];
        for &t in store.spo_slice() {
            parts[shard_of(t.s, n)].push(t);
        }
        let shards = parts
            .into_iter()
            .map(|spo| Shard {
                index: TripleIndex::from_sorted_spo(spo),
            })
            .collect();
        ShardedTripleStore {
            shards,
            epoch: store.epoch(),
            store_id: store.store_id(),
            len: store.len(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard by index.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Iterate over all shards in index order.
    pub fn shards(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter()
    }

    /// Total triples across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The store epoch this snapshot was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once the backing store has mutated past this snapshot — or
    /// is a different store lineage entirely, in which case the epoch
    /// numbers are incomparable and the snapshot must not be consulted.
    pub fn is_stale(&self, store: &TripleStore) -> bool {
        store.store_id() != self.store_id || store.epoch() != self.epoch
    }

    /// The shard a subject's outgoing triples live in.
    pub fn shard_index_of(&self, subject: TermId) -> usize {
        shard_of(subject, self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_rdf::vocab;

    fn sample() -> TripleStore {
        TripleStore::from_turtle(
            r#"
            @prefix ex: <http://e/> .
            ex:a a ex:C ; ex:p ex:b , ex:c .
            ex:b a ex:C ; ex:p ex:c .
            ex:c a ex:D ; ex:q ex:a .
            ex:d ex:p ex:a .
            "#,
        )
        .unwrap()
    }

    #[test]
    fn every_triple_in_exactly_one_shard() {
        let store = sample();
        for n in [1, 2, 7, 16] {
            let sharded = ShardedTripleStore::build(&store, n);
            assert_eq!(sharded.num_shards(), n);
            assert_eq!(sharded.len(), store.len());
            let mut all: Vec<Triple> = sharded
                .shards()
                .flat_map(|s| s.spo_slice().iter().copied())
                .collect();
            all.sort_unstable();
            assert_eq!(all, store.spo_slice().to_vec());
            // And each triple is in the shard its subject hashes to.
            for (i, shard) in sharded.shards().enumerate() {
                for t in shard.spo_slice() {
                    assert_eq!(shard_of(t.s, n), i);
                }
            }
        }
    }

    #[test]
    fn subjects_are_colocated() {
        let store = sample();
        let sharded = ShardedTripleStore::build(&store, 7);
        for &s in &store.subjects() {
            let home = sharded.shard_index_of(s);
            for (i, shard) in sharded.shards().enumerate() {
                let run = shard.spo_range(s, None);
                if i == home {
                    assert_eq!(run.len(), store.spo_range(s, None).len());
                } else {
                    assert!(run.is_empty());
                }
            }
        }
    }

    #[test]
    fn shard_permutations_are_sorted() {
        let store = sample();
        let sharded = ShardedTripleStore::build(&store, 3);
        for ix in sharded.shards().map(Shard::index) {
            assert!(ix.spo_slice().windows(2).all(|w| w[0].spo() <= w[1].spo()));
            assert!(ix.pos_slice().windows(2).all(|w| w[0].pos() <= w[1].pos()));
            assert!(ix.osp_slice().windows(2).all(|w| w[0].osp() <= w[1].osp()));
        }
    }

    #[test]
    fn pos_and_osp_ranges_partition_the_store_ranges() {
        let store = sample();
        let ty = store.lookup_iri(vocab::rdf::TYPE).unwrap();
        let c = store.lookup_iri("http://e/c").unwrap();
        for n in [1, 2, 7, 16] {
            let sharded = ShardedTripleStore::build(&store, n);
            let type_total: usize = sharded.shards().map(|s| s.pos_range(ty, None).len()).sum();
            assert_eq!(type_total, store.pos_range(ty, None).len());
            let incoming_total: usize = sharded.shards().map(|s| s.osp_range(c, None).len()).sum();
            assert_eq!(incoming_total, store.osp_range(c, None).len());
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = sample();
        let sharded = ShardedTripleStore::build(&store, 0);
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.shard(0).len(), store.len());
    }

    #[test]
    fn staleness_tracks_the_epoch() {
        let mut store = sample();
        let sharded = ShardedTripleStore::build(&store, 4);
        assert!(!sharded.is_stale(&store));
        assert_eq!(sharded.epoch(), 0);
        let x = store.intern(elinda_rdf::Term::iri("http://e/x"));
        let p = store.lookup_iri("http://e/p").unwrap();
        store.insert(x, p, x);
        assert!(sharded.is_stale(&store));
    }

    #[test]
    fn staleness_is_lineage_aware() {
        // A snapshot built on one store must read stale against a store
        // rebuilt from scratch, even when the epoch numbers collide.
        // Before the store-id check, a rebuilt store whose counter
        // happened to land on the snapshot's epoch aliased as fresh and
        // pre-rebuild shard contents could be consulted after a
        // compaction's epoch bump.
        let mut a = sample();
        let x = a.intern(elinda_rdf::Term::iri("http://e/x"));
        let p = a.lookup_iri("http://e/p").unwrap();
        a.insert(x, p, x); // epoch 1
        let sharded = ShardedTripleStore::build(&a, 4);
        assert!(!sharded.is_stale(&a));

        let mut b = sample(); // different lineage, epoch 0
        let x = b.intern(elinda_rdf::Term::iri("http://e/x"));
        let p = b.lookup_iri("http://e/p").unwrap();
        b.insert(x, p, x); // epoch 1: numerically equal to `a`'s
        assert_eq!(a.epoch(), b.epoch());
        assert!(sharded.is_stale(&b), "epoch collision must not alias");

        // A clone continues the lineage: fresh until it mutates, stale
        // after a pure compaction-point epoch bump.
        let mut c = a.clone();
        assert!(!sharded.is_stale(&c));
        c.bump_epoch();
        assert!(sharded.is_stale(&c));
    }

    #[test]
    fn empty_store_shards_cleanly() {
        let store = TripleStore::new();
        let sharded = ShardedTripleStore::build(&store, 8);
        assert!(sharded.is_empty());
        assert!(sharded.shards().all(Shard::is_empty));
    }
}
