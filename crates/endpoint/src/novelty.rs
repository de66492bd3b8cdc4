//! [`NoveltyStore`]: the write path's staging overlay.
//!
//! eLinda's read stack is built on immutable snapshots: the store's
//! sorted permutations and its class hierarchy belong to one frozen
//! [`TripleStore`], and every cache entry is tagged with its epoch. The
//! novelty overlay makes that stack writable without giving up snapshot
//! reads (the same shape as Fluree's novelty/commit split): updates land
//! in small `added`/`removed` delta sets on top of an immutable
//! **base**, and readers always consume a fully-indexed merged **view**
//! — an `Arc<TripleStore>` republished copy-on-write per update batch,
//! so an in-flight query keeps the snapshot it started with while the
//! next query sees the writes.
//!
//! A background compactor (driven by the server: a periodic tick plus a
//! size-threshold signal from [`NoveltyStore::apply`]) **folds** the
//! novelty into a new base: the merged view is promoted, the delta sets
//! drain to zero, and the epoch is bumped one extra time to mark the
//! compaction point — demoting every fresh cache entry to the stale
//! rungs of the resilience ladder.
//!
//! Nothing else needs rebuilding, before or after a fold: every view
//! (and every folded base) is a fully indexed store whose class
//! hierarchy ([`TripleStore::hierarchy`]) is built on first use and
//! dropped by its next mutation. A recognized chart read between a write
//! and the next compaction therefore runs on the same chart kernel as
//! any other read, over the hierarchy of exactly the view it captured.
//! Overlay activity is observable through the `elinda_novelty_*` /
//! `elinda_compaction_*` metrics.

use elinda_sparql::{Update, UpdateOp};
use elinda_store::TripleStore;
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use elinda_rdf::Triple;

/// Write-path tuning knobs.
#[derive(Debug, Clone)]
pub struct NoveltyConfig {
    /// Once the overlay holds this many staged triples (added +
    /// removed), [`NoveltyStore::apply`] signals the compactor to run
    /// ahead of its periodic tick.
    pub max_triples: usize,
}

impl Default for NoveltyConfig {
    fn default() -> Self {
        NoveltyConfig { max_triples: 4096 }
    }
}

/// What one UPDATE request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Triples newly added by `INSERT DATA`.
    pub inserted: usize,
    /// Triples removed by `DELETE DATA`.
    pub deleted: usize,
    /// Triples whose insert/delete was a no-op (already present /
    /// already absent).
    pub noops: usize,
    /// The view epoch after this update.
    pub epoch: u64,
    /// Staged novelty size (added + removed) after this update.
    pub novelty: usize,
}

/// What one compaction cycle did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Staged triples folded into the new base.
    pub folded: usize,
    /// The epoch after the compaction bump.
    pub epoch: u64,
    /// Wall time of the fold itself (excluding index rebuilds).
    pub duration: Duration,
    /// On-disk generation the new base was committed as, filled in by
    /// the serving layer when a persistent backend is attached (`None`
    /// here and for memory-only serving).
    pub persisted_generation: Option<u64>,
}

/// Monotonic write-path counters plus current gauges, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoveltyStats {
    /// UPDATE requests applied (including all-noop ones).
    pub updates: u64,
    /// Total triples inserted.
    pub inserts: u64,
    /// Total triples deleted.
    pub deletes: u64,
    /// Total no-op triples.
    pub noops: u64,
    /// Current staged novelty size (added + removed).
    pub novelty_triples: usize,
    /// Compaction cycles completed.
    pub compactions: u64,
    /// Total staged triples folded across all compactions.
    pub folded_triples: u64,
    /// Duration of the most recent fold, in microseconds.
    pub last_compaction_us: u64,
    /// Current view epoch.
    pub epoch: u64,
    /// Epoch of the current base (last compaction point).
    pub base_epoch: u64,
}

struct Inner {
    /// The last compacted snapshot. Frozen; readers that need the
    /// pre-novelty state (none today) and the compactor's accounting
    /// anchor.
    base: Arc<TripleStore>,
    /// The published merged view: base + novelty, fully indexed.
    /// Republished copy-on-write per update batch, so in-flight readers
    /// keep their snapshot.
    view: Arc<TripleStore>,
    /// Triples in `view` but not in `base`.
    added: BTreeSet<Triple>,
    /// Triples in `base` but not in `view`. Disjoint from `added`.
    removed: BTreeSet<Triple>,
}

#[derive(Default)]
struct Counters {
    updates: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    noops: AtomicU64,
    compactions: AtomicU64,
    folded: AtomicU64,
    last_compaction_us: AtomicU64,
}

/// The staging overlay: immutable base + delta sets + published merged
/// view. All methods take `&self`; the store is shared across server
/// workers and the compactor thread behind an `Arc`.
pub struct NoveltyStore {
    config: NoveltyConfig,
    inner: RwLock<Inner>,
    counters: Counters,
    /// Compactor wake-up: set when the size threshold is crossed (or on
    /// shutdown), consumed by [`NoveltyStore::wait_for_work`].
    work: StdMutex<bool>,
    work_cond: Condvar,
}

impl NoveltyStore {
    /// Wrap `base` as the initial (empty-novelty) overlay. The view
    /// starts as the base itself; the first write forks it.
    pub fn new(base: Arc<TripleStore>, config: NoveltyConfig) -> Self {
        NoveltyStore {
            config,
            inner: RwLock::new(Inner {
                view: Arc::clone(&base),
                base,
                added: BTreeSet::new(),
                removed: BTreeSet::new(),
            }),
            counters: Counters::default(),
            work: StdMutex::new(false),
            work_cond: Condvar::new(),
        }
    }

    /// The current merged view — what every read consumes. An `Arc`
    /// snapshot: later writes republish a new view and never mutate
    /// this one.
    pub fn view(&self) -> Arc<TripleStore> {
        Arc::clone(&self.inner.read().view)
    }

    /// The last compacted base snapshot.
    pub fn base(&self) -> Arc<TripleStore> {
        Arc::clone(&self.inner.read().base)
    }

    /// The current view epoch (monotone: bumped per applied triple and
    /// once more per compaction).
    pub fn epoch(&self) -> u64 {
        self.inner.read().view.epoch()
    }

    /// Staged novelty size: added + removed.
    pub fn novelty_len(&self) -> usize {
        let inner = self.inner.read();
        inner.added.len() + inner.removed.len()
    }

    /// True if any novelty is staged (a compaction would do work).
    pub fn is_dirty(&self) -> bool {
        self.novelty_len() > 0
    }

    /// The configured size threshold.
    pub fn max_triples(&self) -> usize {
        self.config.max_triples
    }

    /// Apply one parsed UPDATE request as a single batch: clone the
    /// current view once, run the operations in order, and republish.
    /// Inserting a present triple and deleting an absent one are no-ops
    /// (SPARQL UPDATE semantics); an all-noop request leaves the view
    /// Arc and the epoch untouched, so caches stay fresh.
    pub fn apply(&self, update: &Update) -> ApplyOutcome {
        match self.apply_with(update, |_| Ok::<(), std::convert::Infallible>(())) {
            Ok(outcome) => outcome,
            Err(never) => match never {},
        }
    }

    /// [`NoveltyStore::apply`] with a durability hook: `log` runs under
    /// the overlay write lock *before* any mutation, so the order of
    /// successful log calls is exactly the order updates take effect —
    /// the WAL's replay order matches apply order by construction. If
    /// `log` fails, the overlay is untouched and the error propagates;
    /// the update was neither logged nor applied.
    pub fn apply_with<E>(
        &self,
        update: &Update,
        log: impl FnOnce(&Update) -> Result<(), E>,
    ) -> Result<ApplyOutcome, E> {
        let mut inner = self.inner.write();
        log(update)?;
        let mut store = (*inner.view).clone();
        let (mut inserted, mut deleted, mut noops) = (0usize, 0usize, 0usize);
        for op in &update.ops {
            match op {
                UpdateOp::InsertData(triples) => {
                    for gt in triples {
                        let s = store.intern(gt.s.clone());
                        let p = store.intern(gt.p.clone());
                        let o = store.intern(gt.o.clone());
                        if store.insert(s, p, o) {
                            inserted += 1;
                            let t = Triple::new(s, p, o);
                            // Re-inserting a base triple deleted earlier
                            // cancels the staged removal instead of
                            // growing `added`.
                            if !inner.removed.remove(&t) {
                                inner.added.insert(t);
                            }
                        } else {
                            noops += 1;
                        }
                    }
                }
                UpdateOp::DeleteData(triples) => {
                    for gt in triples {
                        let ids = (
                            store.interner().get(&gt.s),
                            store.interner().get(&gt.p),
                            store.interner().get(&gt.o),
                        );
                        let (Some(s), Some(p), Some(o)) = ids else {
                            // A term the store has never seen cannot be
                            // part of a present triple.
                            noops += 1;
                            continue;
                        };
                        let t = Triple::new(s, p, o);
                        if store.remove(t) {
                            deleted += 1;
                            if !inner.added.remove(&t) {
                                inner.removed.insert(t);
                            }
                        } else {
                            noops += 1;
                        }
                    }
                }
            }
        }
        if inserted + deleted > 0 {
            inner.view = Arc::new(store);
        }
        let outcome = ApplyOutcome {
            inserted,
            deleted,
            noops,
            epoch: inner.view.epoch(),
            novelty: inner.added.len() + inner.removed.len(),
        };
        drop(inner);
        self.counters.updates.fetch_add(1, Ordering::Relaxed);
        self.counters
            .inserts
            .fetch_add(inserted as u64, Ordering::Relaxed);
        self.counters
            .deletes
            .fetch_add(deleted as u64, Ordering::Relaxed);
        self.counters
            .noops
            .fetch_add(noops as u64, Ordering::Relaxed);
        if outcome.novelty >= self.config.max_triples {
            self.notify();
        }
        Ok(outcome)
    }

    /// Fold the staged novelty into a new base: promote the merged view,
    /// clear the delta sets, and bump the epoch to mark the compaction
    /// point (which also drops the view's memoized class hierarchy; the
    /// first chart on the new base rebuilds it). Returns `None` when
    /// nothing is staged.
    pub fn compact(&self) -> Option<CompactionReport> {
        self.compact_with(|| {})
    }

    /// [`NoveltyStore::compact`] with a durability hook: `post_fold`
    /// runs under the overlay write lock immediately after the fold, so
    /// no update can land between the fold and the hook. The WAL layer
    /// uses it to seal the active log segment at exactly the fold point:
    /// every record at or before the seal is covered by the folded base,
    /// every record after it is novelty on top.
    pub fn compact_with(&self, post_fold: impl FnOnce()) -> Option<CompactionReport> {
        let start = Instant::now();
        let mut inner = self.inner.write();
        let folded = inner.added.len() + inner.removed.len();
        if folded == 0 {
            return None;
        }
        let mut new_base = (*inner.view).clone();
        let epoch = new_base.bump_epoch();
        let new_base = Arc::new(new_base);
        inner.base = Arc::clone(&new_base);
        inner.view = new_base;
        inner.added.clear();
        inner.removed.clear();
        post_fold();
        drop(inner);
        let duration = start.elapsed();
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        self.counters
            .folded
            .fetch_add(folded as u64, Ordering::Relaxed);
        self.counters
            .last_compaction_us
            .store(duration.as_micros() as u64, Ordering::Relaxed);
        Some(CompactionReport {
            folded,
            epoch,
            duration,
            persisted_generation: None,
        })
    }

    /// Block until [`NoveltyStore::notify`] fires or `timeout` elapses.
    /// Returns `true` when signalled. The compactor thread's wait
    /// primitive: a periodic tick with early wake-up on threshold.
    pub fn wait_for_work(&self, timeout: Duration) -> bool {
        let guard = self.work.lock().expect("novelty signal mutex poisoned");
        let (mut guard, result) = self
            .work_cond
            .wait_timeout_while(guard, timeout, |signalled| !*signalled)
            .expect("novelty signal mutex poisoned");
        let signalled = !result.timed_out() || *guard;
        *guard = false;
        signalled
    }

    /// Wake the compactor thread (threshold crossed, or shutdown).
    pub fn notify(&self) {
        *self.work.lock().expect("novelty signal mutex poisoned") = true;
        self.work_cond.notify_all();
    }

    /// Counter + gauge snapshot for `/metrics`.
    pub fn stats(&self) -> NoveltyStats {
        let (novelty_triples, epoch, base_epoch) = {
            let inner = self.inner.read();
            (
                inner.added.len() + inner.removed.len(),
                inner.view.epoch(),
                inner.base.epoch(),
            )
        };
        NoveltyStats {
            updates: self.counters.updates.load(Ordering::Relaxed),
            inserts: self.counters.inserts.load(Ordering::Relaxed),
            deletes: self.counters.deletes.load(Ordering::Relaxed),
            noops: self.counters.noops.load(Ordering::Relaxed),
            novelty_triples,
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            folded_triples: self.counters.folded.load(Ordering::Relaxed),
            last_compaction_us: self.counters.last_compaction_us.load(Ordering::Relaxed),
            epoch,
            base_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_sparql::parse_update;

    fn base() -> Arc<TripleStore> {
        Arc::new(
            TripleStore::from_turtle(
                r#"
                @prefix ex: <http://e/> .
                ex:a a ex:C ; ex:p ex:b .
                ex:b a ex:C .
                "#,
            )
            .unwrap(),
        )
    }

    fn novelty() -> NoveltyStore {
        NoveltyStore::new(base(), NoveltyConfig::default())
    }

    #[test]
    fn insert_is_visible_in_next_view_not_prior_snapshot() {
        let n = novelty();
        let before = n.view();
        let e0 = n.epoch();
        let out = n.apply(
            &parse_update("INSERT DATA { <http://e/x> <http://e/p> <http://e/y> }").unwrap(),
        );
        assert_eq!((out.inserted, out.deleted, out.noops), (1, 0, 0));
        assert_eq!(out.novelty, 1);
        assert!(out.epoch > e0);
        let after = n.view();
        assert_eq!(after.len(), before.len() + 1);
        // The pre-write snapshot is untouched: copy-on-write publishing.
        assert!(before.lookup_iri("http://e/x").is_none());
        assert_eq!(before.epoch(), e0);
    }

    #[test]
    fn noop_update_leaves_view_and_epoch_alone() {
        let n = novelty();
        let before = n.view();
        let out = n.apply(
            &parse_update(
                "PREFIX ex: <http://e/> INSERT DATA { ex:a ex:p ex:b } ; \
                 DELETE DATA { ex:ghost ex:p ex:ghost }",
            )
            .unwrap(),
        );
        assert_eq!((out.inserted, out.deleted, out.noops), (0, 0, 2));
        assert_eq!(out.novelty, 0);
        // Same Arc: no republish, caches built on it stay fresh.
        assert!(Arc::ptr_eq(&before, &n.view()));
    }

    #[test]
    fn delete_then_reinsert_cancels_out() {
        let n = novelty();
        n.apply(&parse_update("PREFIX ex: <http://e/> DELETE DATA { ex:a ex:p ex:b }").unwrap());
        assert_eq!(n.novelty_len(), 1);
        n.apply(&parse_update("PREFIX ex: <http://e/> INSERT DATA { ex:a ex:p ex:b }").unwrap());
        // The view matches the base again; the staged sets cancelled.
        assert_eq!(n.novelty_len(), 0);
        assert_eq!(n.view().len(), n.base().len());
        // But epochs moved: both mutations really happened.
        assert_eq!(n.epoch(), n.base().epoch() + 2);
    }

    #[test]
    fn compact_folds_and_bumps_epoch() {
        let n = novelty();
        assert!(n.compact().is_none(), "clean overlay has nothing to fold");
        n.apply(
            &parse_update(
                "INSERT DATA { <http://e/x> <http://e/p> <http://e/y> . \
                               <http://e/y> <http://e/p> <http://e/z> }",
            )
            .unwrap(),
        );
        let pre_epoch = n.epoch();
        let view_before = n.view();
        let report = n.compact().expect("dirty overlay must fold");
        assert_eq!(report.folded, 2);
        assert_eq!(report.epoch, pre_epoch + 1);
        assert_eq!(n.novelty_len(), 0);
        // Base and view coincide on the folded data.
        assert!(Arc::ptr_eq(&n.base(), &n.view()));
        assert_eq!(n.view().len(), view_before.len());
        let stats = n.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.folded_triples, 2);
        assert_eq!(stats.novelty_triples, 0);
    }

    #[test]
    fn threshold_signals_compactor() {
        let n = NoveltyStore::new(base(), NoveltyConfig { max_triples: 2 });
        assert!(!n.wait_for_work(Duration::from_millis(1)));
        n.apply(&parse_update("INSERT DATA { <http://e/x1> <http://e/p> <http://e/y> }").unwrap());
        assert!(!n.wait_for_work(Duration::from_millis(1)));
        n.apply(&parse_update("INSERT DATA { <http://e/x2> <http://e/p> <http://e/y> }").unwrap());
        assert!(n.wait_for_work(Duration::from_millis(100)));
        // The signal is consumed.
        assert!(!n.wait_for_work(Duration::from_millis(1)));
    }

    #[test]
    fn stats_accumulate_across_updates() {
        let n = novelty();
        n.apply(&parse_update("INSERT DATA { <http://e/x> <http://e/p> <http://e/y> }").unwrap());
        n.apply(&parse_update("DELETE DATA { <http://e/x> <http://e/p> <http://e/y> }").unwrap());
        n.apply(&parse_update("DELETE DATA { <http://e/x> <http://e/p> <http://e/y> }").unwrap());
        let s = n.stats();
        assert_eq!(s.updates, 3);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.noops, 1);
        assert_eq!(s.novelty_triples, 0);
    }
}
