//! Intra-query parallel evaluation of the property chart.
//!
//! The Fig. 4 hot path is embarrassingly data-parallel over the member
//! set: a chart is the keyed sum of the charts of any partition of its
//! members. This module provides:
//!
//! * [`Parallelism`] — the per-request core budget plumbed through
//!   `ElindaEndpoint` and `elinda-serve`, chosen so the server's worker
//!   pool and the intra-query pool compose without oversubscription;
//! * [`try_map_units`] — the work-stealing runner: map `n` independent
//!   units on a bounded number of threads under a deadline;
//! * [`try_execute_decomposed_chunked`] — the threaded driver the router
//!   runs: the chart kernel over contiguous member chunks of the one
//!   shared store, merged by keyed sum;
//! * [`execute_decomposed_sharded`] — the *reference*: the kernel over
//!   each physical partition of a [`ShardedTripleStore`], merged with the
//!   partial/merge primitives the shard fabric also uses. It shares only
//!   the kernel with the chunked driver, so the differential suites use
//!   it as an independent oracle.
//!
//! **Merge determinism.** Partials are merged by keyed integer summation
//! (commutative and associative), and every result is finished by a
//! canonical sort with stable tie-breaking on IRI order
//! ([`canonicalize_rows`]). Parallel results are therefore byte-identical
//! to sequential ones on the wire, regardless of unit count, worker
//! count, or the order in which units complete.

use crate::decomposer::{class_members, ExpansionDirection, PropertyExpansionQuery};
use crate::engine::ServeError;
use crate::kernel::{count_properties, scan_property_runs, PropertyCounts};
use crate::resilience::Deadline;
use crate::trace::{TraceCtx, ROOT_SPAN};
use elinda_rdf::fx::FxHashMap;
use elinda_rdf::TermId;
use elinda_sparql::{Solutions, Value};
use elinda_store::{shard_of, ClassHierarchy, Shard, ShardedTripleStore, TripleStore};
use parking_lot::Mutex;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Parallelism config
// ---------------------------------------------------------------------------

/// The intra-query parallelism budget.
///
/// `threads` is a *per-request core budget*: each heavy aggregation fans
/// its work units across at most this many workers. A server running `W`
/// worker threads on `C` cores should hand each request a budget of
/// `max(1, C / W)` (see [`Parallelism::budgeted`]) so that `W` concurrent
/// heavy queries saturate — but do not oversubscribe — the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum worker threads per query (1 = sequential evaluation).
    pub threads: usize,
    /// Number of work units a query's member set is cut into. More units
    /// than threads gives the work-stealing loop slack to balance skewed
    /// chunks; shards = 1 disables the fan-out entirely.
    pub shards: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl Parallelism {
    /// Sequential evaluation: one thread, one unit.
    pub fn sequential() -> Self {
        Parallelism {
            threads: 1,
            shards: 1,
        }
    }

    /// A fixed budget of `threads` workers over `shards` work units (both
    /// clamped to at least 1).
    pub fn fixed(threads: usize, shards: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            shards: shards.max(1),
        }
    }

    /// The budget for one of `server_workers` concurrently-serving
    /// threads on this machine: `max(1, cores / server_workers)` workers
    /// over `shards` work units. With this split the server pool and the
    /// intra-query pools compose to at most `cores` runnable threads.
    pub fn budgeted(server_workers: usize, shards: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism::fixed(cores / server_workers.max(1), shards)
    }

    /// True when this budget actually fans out (more than one thread and
    /// more than one unit).
    pub fn is_parallel(&self) -> bool {
        self.threads > 1 && self.shards > 1
    }
}

// ---------------------------------------------------------------------------
// The map-per-shard runner
// ---------------------------------------------------------------------------

/// Per-query parallel execution measurements, fed into the endpoint's
/// parallel metrics (`/metrics` per-shard timing and speedup gauge).
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Busy time spent mapping each unit, by unit index.
    pub shard_busy: Vec<Duration>,
    /// Wall-clock time of the whole fan-out (map + merge).
    pub wall: Duration,
    /// Workers actually used.
    pub threads: usize,
}

impl ParallelReport {
    /// Total busy time across units — what a sequential evaluation of
    /// the same maps would have cost.
    pub fn busy_total(&self) -> Duration {
        self.shard_busy.iter().sum()
    }

    /// Effective speedup: busy time over wall time. ~1.0 when sequential,
    /// approaching `threads` under perfect balance.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy_total().as_secs_f64() / wall
        }
    }
}

/// Cumulative parallel-execution statistics across the lifetime of an
/// endpoint — the source of the `/metrics` per-shard timing lines and
/// the parallel-speedup gauge.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Queries answered by the threaded driver.
    pub queries: u64,
    /// Cumulative busy time per unit index.
    pub shard_busy: Vec<Duration>,
    /// Cumulative wall time of the parallel fan-outs.
    pub wall: Duration,
}

impl ParallelStats {
    /// Fold one query's report into the running totals.
    pub fn record(&mut self, report: &ParallelReport) {
        self.queries += 1;
        if self.shard_busy.len() < report.shard_busy.len() {
            self.shard_busy
                .resize(report.shard_busy.len(), Duration::ZERO);
        }
        for (slot, busy) in self.shard_busy.iter_mut().zip(&report.shard_busy) {
            *slot += *busy;
        }
        self.wall += report.wall;
    }

    /// Total busy time across units — the sequential-equivalent cost.
    pub fn busy_total(&self) -> Duration {
        self.shard_busy.iter().sum()
    }

    /// Cumulative effective speedup: busy time over wall time (1.0 when
    /// nothing has run).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy_total().as_secs_f64() / wall
        }
    }
}

/// Map units `0..units` through `map` using at most `threads` workers,
/// and return the partials **in unit-index order** (independent of
/// completion order) together with per-unit timings.
///
/// Work distribution is a shared atomic cursor: each worker claims the
/// next unmapped unit, so skewed units self-balance as long as
/// `units > threads`.
pub fn map_units<P, F>(units: usize, threads: usize, map: F) -> (Vec<P>, ParallelReport)
where
    P: Send,
    F: Fn(usize) -> P + Sync,
{
    try_map_units(
        units,
        threads,
        Deadline::unbounded(),
        &TraceCtx::disabled(),
        ROOT_SPAN,
        map,
    )
    .expect("an unbounded deadline never expires")
}

/// [`map_units`] under a [`Deadline`]: cooperative cancellation for the
/// parallel fan-out. Every worker re-checks the budget **before claiming
/// each unit** and stops claiming once it is spent, so an expiring
/// request returns (with [`ServeError::DeadlineExceeded`]) as soon as
/// the in-flight maps finish — bounded by one unit's map time, not by
/// the whole remaining fan-out.
///
/// When `trace` is sampled, the fan-out records a `fanout` span under
/// `parent` with one `shard/<i>` child per mapped unit; with tracing
/// disabled the extra cost is a handful of `Option` branches.
pub fn try_map_units<P, F>(
    units: usize,
    threads: usize,
    deadline: Deadline,
    trace: &TraceCtx,
    parent: u32,
    map: F,
) -> Result<(Vec<P>, ParallelReport), ServeError>
where
    P: Send,
    F: Fn(usize) -> P + Sync,
{
    let workers = threads.clamp(1, units.max(1));
    let mut fanout = trace.span_under(parent, "fanout");
    if trace.is_enabled() {
        fanout.tag("shards", units.to_string());
        fanout.tag("threads", workers.to_string());
    }
    let fanout_id = fanout.id();
    let start = Instant::now();
    let mut busy = vec![Duration::ZERO; units];
    let expired = AtomicBool::new(false);
    let partials: Vec<Option<P>> = if workers <= 1 {
        let mut out = Vec::with_capacity(units);
        for (i, slot) in busy.iter_mut().enumerate() {
            if deadline.is_expired() {
                expired.store(true, Ordering::Relaxed);
                break;
            }
            let span = trace
                .is_enabled()
                .then(|| trace.span_under(fanout_id, &format!("shard/{i}")));
            let t0 = Instant::now();
            out.push(Some(map(i)));
            *slot = t0.elapsed();
            drop(span);
        }
        out.resize_with(units, || None);
        out
    } else {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(P, Duration)>>> =
            (0..units).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if deadline.is_expired() {
                        expired.store(true, Ordering::Relaxed);
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= units {
                        break;
                    }
                    let span = trace
                        .is_enabled()
                        .then(|| trace.span_under(fanout_id, &format!("shard/{i}")));
                    let t0 = Instant::now();
                    let partial = map(i);
                    *slots[i].lock() = Some((partial, t0.elapsed()));
                    drop(span);
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner().map(|(partial, elapsed)| {
                    busy[i] = elapsed;
                    partial
                })
            })
            .collect()
    };
    if expired.load(Ordering::Relaxed) || partials.iter().any(Option::is_none) {
        fanout.tag("outcome", "deadline_exceeded");
        return Err(ServeError::DeadlineExceeded);
    }
    let report = ParallelReport {
        shard_busy: busy,
        wall: start.elapsed(),
        threads: workers,
    };
    Ok((partials.into_iter().flatten().collect(), report))
}

// ---------------------------------------------------------------------------
// Canonical result ordering
// ---------------------------------------------------------------------------

/// Sort solution rows canonically: by the resolved text of the first
/// column's term (IRI order), the stable tie-break that makes parallel
/// and sequential evaluations byte-identical on the wire. Rows whose
/// first column is not a term (there are none in the charting
/// aggregations) sort after all terms, by row debug order.
pub fn canonicalize_rows(solutions: &mut Solutions, store: &TripleStore) {
    // One key per row, not two per comparison.
    solutions.rows.sort_by_cached_key(|row| match row.first() {
        Some(Some(Value::Term(id))) => (false, store.resolve(*id).to_string()),
        _ => (true, format!("{row:?}")),
    });
}

/// Finish a `property → (entity count, triple count)` aggregate into a
/// canonically ordered [`Solutions`].
pub fn property_agg_solutions(
    agg: PropertyCounts,
    columns: &[String; 3],
    store: &TripleStore,
) -> Solutions {
    let rows = agg
        .into_iter()
        .map(|(p, (count, sum))| {
            vec![
                Some(Value::Term(p)),
                Some(Value::Int(count)),
                Some(Value::Int(sum)),
            ]
        })
        .collect();
    let mut solutions = Solutions {
        vars: columns.to_vec(),
        rows,
    };
    canonicalize_rows(&mut solutions, store);
    solutions
}

// ---------------------------------------------------------------------------
// Property expansion: partials and merges
// ---------------------------------------------------------------------------

/// Outgoing partial for one physical shard: `property → (entity count,
/// triple count)` over the instances whose subject hashes into it.
///
/// Subjects are colocated, so each per-shard count is already the final
/// count for its subjects; the merge is a plain keyed sum.
pub fn property_partial_outgoing(
    shard: &Shard,
    shard_index: usize,
    num_shards: usize,
    instances: &[TermId],
) -> PropertyCounts {
    let owned: Vec<TermId> = instances
        .iter()
        .copied()
        .filter(|&s| shard_of(s, num_shards) == shard_index)
        .collect();
    count_properties(shard.index(), &owned, ExpansionDirection::Outgoing)
}

/// Merge per-property partials (any order) by keyed summation — exact
/// whenever no member contributed to two partials: physical shards for
/// outgoing charts, member chunks for either direction.
pub fn merge_outgoing_partials(
    partials: impl IntoIterator<Item = PropertyCounts>,
) -> PropertyCounts {
    let mut merged = PropertyCounts::default();
    for partial in partials {
        for (p, (count, sum)) in partial {
            let e = merged.entry(p).or_default();
            e.0 += count;
            e.1 += sum;
        }
    }
    merged
}

/// Incoming partial for one physical shard: `(object instance, property)
/// → triple count` over this shard's triples.
///
/// Incoming triples of an object are spread across shards (sharding is
/// by subject), so the per-shard partial must stay keyed by the
/// `(object, property)` pair; collapsing to per-property counts happens
/// only after the merge, in [`merge_incoming_partials`].
pub fn property_partial_incoming(
    shard: &Shard,
    instances: &[TermId],
) -> FxHashMap<(TermId, TermId), i64> {
    let mut agg: FxHashMap<(TermId, TermId), i64> = FxHashMap::default();
    scan_property_runs(
        shard.index(),
        instances,
        ExpansionDirection::Incoming,
        |o, p, len| *agg.entry((o, p)).or_default() += len as i64,
    );
    agg
}

/// Merge incoming partials (any order): sum triple counts per
/// `(object, property)` pair, then collapse to `property → (entity
/// count, triple count)` — each object counts once per property it
/// features, no matter how many shards its incoming triples landed in.
pub fn merge_incoming_partials(
    partials: impl IntoIterator<Item = FxHashMap<(TermId, TermId), i64>>,
) -> PropertyCounts {
    let mut pairs: FxHashMap<(TermId, TermId), i64> = FxHashMap::default();
    for partial in partials {
        for (key, count) in partial {
            *pairs.entry(key).or_default() += count;
        }
    }
    let mut merged = PropertyCounts::default();
    for ((_, p), count) in pairs {
        let e = merged.entry(p).or_default();
        e.0 += 1;
        e.1 += count;
    }
    merged
}

// ---------------------------------------------------------------------------
// The threaded driver and the physical-shard reference
// ---------------------------------------------------------------------------

/// Property expansion over `members`, fanned across the [`Parallelism`]
/// budget: the member slice is cut into `par.shards` contiguous chunks,
/// each chunk runs the chart kernel against the one shared `store`, and
/// the per-chunk counts merge by keyed sum (chunks are member-disjoint,
/// so that is exact in both directions). Cooperative cancellation
/// between chunks; `fanout`/`shard/<i>` and `merge` spans under `parent`
/// when `trace` is sampled.
///
/// Byte-identical on the SPARQL-JSON wire format to
/// [`crate::incremental::execute_decomposed_from_frontier`] for every
/// unit and thread count.
pub fn try_execute_decomposed_chunked(
    store: &TripleStore,
    members: &[TermId],
    q: &PropertyExpansionQuery,
    par: &Parallelism,
    deadline: Deadline,
    trace: &TraceCtx,
    parent: u32,
) -> Result<(Solutions, ParallelReport), ServeError> {
    let (units, len) = (par.shards, members.len());
    let (partials, report) = try_map_units(units, par.threads, deadline, trace, parent, |i| {
        let chunk = &members[i * len / units..(i + 1) * len / units];
        count_properties(store.index(), chunk, q.direction)
    })?;
    let _merge = trace.span_under(parent, "merge");
    let counts = merge_outgoing_partials(partials);
    Ok((property_agg_solutions(counts, &q.columns, store), report))
}

/// The reference evaluation over a physically partitioned copy of the
/// store: one partial per [`Shard`] of `sharded`, merged by
/// [`merge_outgoing_partials`] / [`merge_incoming_partials`] — what a
/// shard fleet computes, in one process. The serving path never runs it;
/// `tests/parallel_equivalence.rs`, `tests/property_invariants.rs` and
/// the fabric suite compare the chunked driver and the fabric merge
/// against it.
pub fn execute_decomposed_sharded(
    store: &TripleStore,
    sharded: &ShardedTripleStore,
    hierarchy: &ClassHierarchy,
    q: &PropertyExpansionQuery,
    par: &Parallelism,
) -> (Solutions, ParallelReport) {
    let instances = class_members(store, hierarchy, q);
    let n = sharded.num_shards();
    let (counts, report) = match q.direction {
        ExpansionDirection::Outgoing => {
            let (partials, report) = map_units(n, par.threads, |i| {
                property_partial_outgoing(sharded.shard(i), i, n, &instances)
            });
            (merge_outgoing_partials(partials), report)
        }
        ExpansionDirection::Incoming => {
            let (partials, report) = map_units(n, par.threads, |i| {
                property_partial_incoming(sharded.shard(i), &instances)
            });
            (merge_incoming_partials(partials), report)
        }
    };
    (property_agg_solutions(counts, &q.columns, store), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_defaults_and_budget() {
        assert_eq!(Parallelism::default(), Parallelism::sequential());
        assert!(!Parallelism::sequential().is_parallel());
        assert!(Parallelism::fixed(4, 8).is_parallel());
        assert!(!Parallelism::fixed(4, 1).is_parallel());
        assert_eq!(Parallelism::fixed(0, 0), Parallelism::sequential());
        let b = Parallelism::budgeted(1_000_000, 8);
        assert_eq!(b.threads, 1); // budget floor is one thread
        assert_eq!(b.shards, 8);
    }

    #[test]
    fn map_units_returns_partials_in_index_order() {
        for threads in [1, 2, 4] {
            let (partials, report) = map_units(7, threads, |i| i * i);
            assert_eq!(partials, (0..7).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(report.shard_busy.len(), 7);
            assert!((1..=threads).contains(&report.threads));
        }
    }

    #[test]
    fn speedup_gauge_is_sane() {
        let report = ParallelReport {
            shard_busy: vec![Duration::from_millis(10); 4],
            wall: Duration::from_millis(20),
            threads: 2,
        };
        assert!((report.speedup() - 2.0).abs() < 1e-9);
        assert_eq!(report.busy_total(), Duration::from_millis(40));
        let degenerate = ParallelReport {
            shard_busy: vec![],
            wall: Duration::ZERO,
            threads: 1,
        };
        assert_eq!(degenerate.speedup(), 1.0);
    }
}
