#![warn(missing_docs)]

//! The eLinda triple store substrate.
//!
//! The paper's eLinda endpoint "contains mirrors of the common knowledge
//! bases … in a Virtuoso SPARQL database" plus "specialized indexes to
//! accelerate heavy queries" (Section 4). This crate is that mirror:
//!
//! * [`TripleStore`] — an in-memory store over a [`TripleIndex`]: three
//!   sorted permutations (SPO / POS / OSP) answering any triple pattern
//!   with a binary search plus a contiguous range scan;
//! * [`pattern`] — triple-pattern matching over the best index;
//! * [`schema`] — the class hierarchy (`rdfs:subClassOf`), instance sets,
//!   root detection (including root-less datasets such as LinkedGeoData);
//! * [`stats`] — the dataset statistics shown when eLinda first connects
//!   to an endpoint (triple count, class count, …);
//! * [`labels`] — `rdfs:label` lookup and the autocomplete class search;
//! * [`aggregates`] — the specialized `(class, property)` aggregate
//!   indexes targeted by the eLinda decomposer;
//! * [`shard`] — a subject-hash-partitioned copy of the store, one
//!   [`TripleIndex`] per shard: what a shard process of the fabric
//!   serves and what the in-process reference evaluator walks;
//! * [`dict`] / [`segment`] / [`persist`] — the persistent
//!   dictionary-encoded layout: the interner serialized as a term
//!   dictionary, the three permutations as checksummed segment files,
//!   committed in immutable numbered generations behind a `CURRENT`
//!   pointer;
//! * [`loader`] — a streaming N-Triples bulk loader building sorted
//!   runs directly (no per-line graph dedup), so restarts skip datagen;
//! * [`backend`] — the [`StoreBackend`] seam: the router, overlay, and
//!   compactor consume `Arc<TripleStore>` snapshots and never see
//!   whether they came from memory or disk;
//! * [`wal`] / [`wal_fault`] — the durable write-ahead log for the
//!   update path (checksummed length-prefixed records, group-commit
//!   fsync, segment rotation at compaction, torn-tail recovery) and its
//!   seeded durability-fault injector.
//!
//! Mutations bump an *epoch* counter; the HVS (in `elinda-endpoint`)
//! invalidates itself whenever the epoch moves, reproducing "the HVS is
//! cleared on any update to the eLinda knowledge bases".

pub mod aggregates;
pub mod backend;
pub mod dict;
pub mod labels;
pub mod loader;
pub mod pattern;
pub mod persist;
pub mod schema;
pub mod segment;
pub mod shard;
pub mod stats;
pub mod store;
pub mod test_dirs;
pub mod wal;
pub mod wal_fault;

pub use aggregates::{PropAgg, PropertyAggregates};
pub use backend::{MemoryBackend, PersistentBackend, StoreBackend};
pub use labels::LabelIndex;
pub use loader::{bulk_load_ntriples, bulk_load_ntriples_path, export_ntriples, BulkLoadReport};
pub use pattern::TriplePattern;
pub use persist::{
    load_current, load_generation, prune_generations, save_generation, PersistError,
};
pub use schema::ClassHierarchy;
pub use shard::{shard_of, Shard, ShardedTripleStore};
pub use stats::DatasetStats;
pub use store::{TripleIndex, TripleStore};
pub use wal::{
    TornReason, Wal, WalConfig, WalError, WalPos, WalRecord, WalRecovery, WalStats, WalSyncPolicy,
};
pub use wal_fault::{WalFaultInjector, WalFaultKind, WalFaultPlan};
