//! Epoch-aware result cache for exploration-path reuse.
//!
//! The paper's third pillar — incremental evaluation — only pays off when a
//! request can *find* the work its parent already did. This module provides
//! the lookup substrate:
//!
//! * [`normalize_query_text`] canonicalizes a SPARQL query's text (whitespace,
//!   percent-encoding inside IRI refs, adjacent `FILTER` order) so that
//!   semantically identical requests arriving via different transports
//!   (`GET` vs `POST /sparql`, hand-written vs generated) converge on one
//!   cache key. The router executes the *normalized* text, so the key is
//!   injective by construction: equal keys ⇒ equal executed query ⇒ equal
//!   bytes.
//! * [`ResultCache`] is a sharded LRU holding two kinds of entries, both
//!   invalidated by the store's atomic epoch:
//!   - finished bar-chart **results** (`Arc<Solutions>`), keyed by normalized
//!     query text, with a stale side for the degradation ladder, and
//!   - parent **entity frontiers** (`Arc<Vec<TermId>>` — the sorted instance
//!     set of a class), keyed by class IRI, which seed incremental expansion
//!     of child bars.
//!
//! The epoch protocol mirrors [`crate::hvs::HeavyQueryStore`]: a lock-free
//! `AtomicU64` fast path, and on a bump the fresh result side migrates to an
//! epoch-tagged stale side while frontiers (useless once the instance sets
//! may have changed) are dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use elinda_rdf::fx::FxHashMap;
use elinda_rdf::TermId;
use elinda_sparql::Solutions;
use parking_lot::Mutex;

use crate::hvs::StaleEntry;

/// Sizing knobs for [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of fresh result entries across all shards.
    pub max_entries: usize,
    /// Approximate byte budget for fresh results + frontiers across all
    /// shards. Entry costs are estimates (see `solutions_cost`), not exact
    /// heap measurements.
    pub max_bytes: usize,
    /// Number of internal lock shards. Clamped to at least 1.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 512,
            max_bytes: 16 * 1024 * 1024,
            shards: 8,
        }
    }
}

/// Monotone counters describing cache behaviour. Snapshot via
/// [`ResultCache::stats`]; all counts are cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh result lookups that returned an entry.
    pub hits: u64,
    /// Fresh result lookups that found nothing.
    pub misses: u64,
    /// Results admitted to the fresh side.
    pub insertions: u64,
    /// Fresh entries evicted for capacity (entries or bytes).
    pub evictions: u64,
    /// Epoch bumps observed (fresh side migrated to stale, frontiers dropped).
    pub invalidations: u64,
    /// Stale-side lookups that returned an entry (degradation ladder reuse).
    pub stale_hits: u64,
    /// Frontier lookups that returned a current-epoch entry.
    pub frontier_hits: u64,
    /// Frontier lookups that found nothing usable.
    pub frontier_misses: u64,
    /// Frontiers admitted.
    pub frontier_insertions: u64,
}

struct ResultEntry {
    solutions: Arc<Solutions>,
    cost: usize,
    last_used: u64,
}

struct FrontierEntry {
    members: Arc<Vec<TermId>>,
    epoch: u64,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct ShardInner {
    results: FxHashMap<String, ResultEntry>,
    stale: FxHashMap<String, (Arc<Solutions>, u64)>,
    stale_order: VecDeque<String>,
    frontiers: FxHashMap<String, FrontierEntry>,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    stale_hits: u64,
    frontier_hits: u64,
    frontier_misses: u64,
    frontier_insertions: u64,
}

/// Sharded, epoch-aware LRU cache of finished chart results and parent
/// entity frontiers. All methods are `&self` and thread-safe.
pub struct ResultCache {
    config: CacheConfig,
    epoch: AtomicU64,
    tick: AtomicU64,
    invalidations: AtomicU64,
    shards: Vec<Mutex<ShardInner>>,
}

impl ResultCache {
    /// Creates an empty cache at epoch 0.
    pub fn new(config: CacheConfig) -> Self {
        let n = config.shards.max(1);
        ResultCache {
            config,
            epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            shards: (0..n).map(|_| Mutex::new(ShardInner::default())).collect(),
        }
    }

    /// The sizing configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The epoch this cache currently considers fresh.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn shard_for(&self, key: &str) -> &Mutex<ShardInner> {
        // FNV-1a over the key bytes; only shard selection, not security.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    fn entries_per_shard(&self) -> usize {
        self.config.max_entries.div_ceil(self.shards.len()).max(1)
    }

    fn bytes_per_shard(&self) -> usize {
        (self.config.max_bytes / self.shards.len()).max(1024)
    }

    /// Brings the cache up to `epoch` if the store has moved on. Fresh
    /// results migrate to the epoch-tagged stale side (never overwriting a
    /// newer stale entry); frontiers are dropped, since the instance sets
    /// they describe may have changed. Returns `true` if a migration ran.
    pub fn sync_epoch(&self, epoch: u64) -> bool {
        if self.epoch.load(Ordering::Acquire) >= epoch {
            return false;
        }
        // Lock shards in order so concurrent syncs cannot deadlock; re-check
        // under the locks in case another thread migrated first.
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let old = self.epoch.load(Ordering::Acquire);
        if old >= epoch {
            return false;
        }
        for inner in guards.iter_mut() {
            let drained: Vec<_> = inner.results.drain().collect();
            for (key, entry) in drained {
                upsert_stale(inner, key, entry.solutions, old, self.config.max_entries);
            }
            inner.frontiers.clear();
            inner.bytes = 0;
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.epoch.store(epoch, Ordering::Release);
        true
    }

    /// Looks up a fresh result by normalized query text, bumping its LRU
    /// position. The returned value is a cheap `Arc` clone.
    pub fn get(&self, key: &str) -> Option<Arc<Solutions>> {
        let tick = self.next_tick();
        let mut inner = self.shard_for(key).lock();
        if let Some(entry) = inner.results.get_mut(key) {
            entry.last_used = tick;
            let out = Arc::clone(&entry.solutions);
            inner.hits += 1;
            Some(out)
        } else {
            inner.misses += 1;
            None
        }
    }

    /// Like [`ResultCache::get`] but without touching counters or LRU state.
    pub fn peek(&self, key: &str) -> Option<Arc<Solutions>> {
        let inner = self.shard_for(key).lock();
        inner.results.get(key).map(|e| Arc::clone(&e.solutions))
    }

    /// Records a finished result computed against `epoch`. If the cache has
    /// already moved past that epoch the result is routed to the stale side
    /// instead of being served as fresh; results from a *future* epoch (the
    /// cache simply hasn't synced yet) are dropped — the next request will
    /// sync and recompute.
    pub fn record(&self, key: &str, solutions: &Solutions, epoch: u64) {
        let current = self.epoch.load(Ordering::Acquire);
        if epoch > current {
            return;
        }
        let cost = solutions_cost(solutions) + key.len();
        let tick = self.next_tick();
        let per_shard_entries = self.entries_per_shard();
        let per_shard_bytes = self.bytes_per_shard();
        let mut inner = self.shard_for(key).lock();
        if epoch < current {
            upsert_stale(
                &mut inner,
                key.to_string(),
                Arc::new(solutions.clone()),
                epoch,
                self.config.max_entries,
            );
            return;
        }
        if inner.results.contains_key(key) {
            return;
        }
        if cost > per_shard_bytes {
            return; // single entry larger than the shard budget: never admit
        }
        while inner.results.len() >= per_shard_entries || inner.bytes + cost > per_shard_bytes {
            if !evict_lru(&mut inner) {
                break;
            }
        }
        inner.bytes += cost;
        inner.insertions += 1;
        inner.results.insert(
            key.to_string(),
            ResultEntry {
                solutions: Arc::new(solutions.clone()),
                cost,
                last_used: tick,
            },
        );
    }

    /// Looks up an epoch-tagged stale result for the degradation ladder.
    pub fn get_stale(&self, key: &str) -> Option<StaleEntry> {
        let mut inner = self.shard_for(key).lock();
        let (solutions, epoch) = inner.stale.get(key).map(|(s, e)| (Arc::clone(s), *e))?;
        inner.stale_hits += 1;
        Some(StaleEntry {
            solutions: (*solutions).clone(),
            epoch,
        })
    }

    /// Records the sorted instance frontier of `class_iri` observed at
    /// `epoch`. Dropped silently unless `epoch` matches the cache's current
    /// epoch (a stale frontier must never seed evaluation).
    pub fn record_frontier(&self, class_iri: &str, members: Arc<Vec<TermId>>, epoch: u64) {
        if self.epoch.load(Ordering::Acquire) != epoch {
            return;
        }
        let cost = members.len() * std::mem::size_of::<TermId>() + class_iri.len();
        let tick = self.next_tick();
        let per_shard_bytes = self.bytes_per_shard();
        if cost > per_shard_bytes {
            return;
        }
        let mut inner = self.shard_for(class_iri).lock();
        if let Some(existing) = inner.frontiers.get(class_iri) {
            if existing.epoch == epoch {
                return;
            }
        }
        while inner.bytes + cost > per_shard_bytes {
            if !evict_lru(&mut inner) {
                break;
            }
        }
        if let Some(old) = inner.frontiers.insert(
            class_iri.to_string(),
            FrontierEntry {
                members,
                epoch,
                cost,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.cost;
        }
        inner.bytes += cost;
        inner.frontier_insertions += 1;
    }

    /// Looks up the frontier of `class_iri` recorded at `epoch` (the
    /// caller's snapshot), bumping its LRU position and counting
    /// hit/miss. A reader whose snapshot an update has already
    /// overtaken misses, instead of taking members of a newer one.
    pub fn frontier(&self, class_iri: &str, epoch: u64) -> Option<Arc<Vec<TermId>>> {
        let tick = self.next_tick();
        let mut inner = self.shard_for(class_iri).lock();
        match inner.frontiers.get_mut(class_iri) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = tick;
                let out = Arc::clone(&entry.members);
                inner.frontier_hits += 1;
                Some(out)
            }
            _ => {
                inner.frontier_misses += 1;
                None
            }
        }
    }

    /// Like [`ResultCache::frontier`] but without counters or LRU effects.
    pub fn peek_frontier(&self, class_iri: &str, epoch: u64) -> Option<Arc<Vec<TermId>>> {
        let inner = self.shard_for(class_iri).lock();
        match inner.frontiers.get(class_iri) {
            Some(entry) if entry.epoch == epoch => Some(Arc::clone(&entry.members)),
            _ => None,
        }
    }

    /// Number of fresh result entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().results.len()).sum()
    }

    /// True when no fresh results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes held by fresh results and frontiers.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Number of stale-side entries.
    pub fn stale_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().stale.len()).sum()
    }

    /// Number of cached frontiers (any epoch tag).
    pub fn frontier_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frontiers.len()).sum()
    }

    /// Sums per-shard counters into one snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats {
            invalidations: self.invalidations.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let inner = shard.lock();
            out.hits += inner.hits;
            out.misses += inner.misses;
            out.insertions += inner.insertions;
            out.evictions += inner.evictions;
            out.stale_hits += inner.stale_hits;
            out.frontier_hits += inner.frontier_hits;
            out.frontier_misses += inner.frontier_misses;
            out.frontier_insertions += inner.frontier_insertions;
        }
        out
    }
}

/// Evicts the least-recently-used entry (result or frontier) from `inner`.
/// Returns `false` when there is nothing left to evict.
fn evict_lru(inner: &mut ShardInner) -> bool {
    let oldest_result = inner
        .results
        .iter()
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, e)| (k.clone(), e.last_used));
    let oldest_frontier = inner
        .frontiers
        .iter()
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, e)| (k.clone(), e.last_used));
    match (oldest_result, oldest_frontier) {
        (Some((rk, rt)), Some((_, ft))) if rt <= ft => {
            let e = inner.results.remove(&rk).expect("key just observed");
            inner.bytes -= e.cost;
            inner.evictions += 1;
            true
        }
        (Some((rk, _)), None) => {
            let e = inner.results.remove(&rk).expect("key just observed");
            inner.bytes -= e.cost;
            inner.evictions += 1;
            true
        }
        (_, Some((fk, _))) => {
            let e = inner.frontiers.remove(&fk).expect("key just observed");
            inner.bytes -= e.cost;
            inner.evictions += 1;
            true
        }
        (None, None) => false,
    }
}

/// Inserts into the stale side, never letting an older epoch overwrite a
/// newer one, with FIFO eviction at `capacity`.
fn upsert_stale(
    inner: &mut ShardInner,
    key: String,
    solutions: Arc<Solutions>,
    epoch: u64,
    capacity: usize,
) {
    match inner.stale.get(&key) {
        Some((_, have)) if *have > epoch => {}
        Some(_) => {
            inner.stale.insert(key, (solutions, epoch));
        }
        None => {
            while inner.stale.len() >= capacity.max(1) {
                match inner.stale_order.pop_front() {
                    Some(victim) => {
                        inner.stale.remove(&victim);
                    }
                    None => break,
                }
            }
            inner.stale_order.push_back(key.clone());
            inner.stale.insert(key, (solutions, epoch));
        }
    }
}

/// Rough heap cost of a result set: per-row/per-cell overhead plus var names.
fn solutions_cost(s: &Solutions) -> usize {
    let cols = s.vars.len().max(1);
    s.vars.iter().map(|v| v.len() + 24).sum::<usize>() + s.rows.len() * cols * 24 + 48
}

/// Canonicalizes SPARQL query text so semantically identical requests share
/// one cache key — and, since the router executes the normalized text, one
/// execution. Three rewrites, each semantics-preserving:
///
/// 1. whitespace runs outside quoted strings and IRI refs collapse to a
///    single space (leading/trailing trimmed); a `#` comment there runs
///    to the end of its line and counts as whitespace (SPARQL 1.1
///    §19.4), so it cannot swallow the clauses after it;
/// 2. percent-escapes inside `<...>` IRI refs are normalized: unreserved
///    ASCII (`A-Z a-z 0-9 - . _ ~`) and valid UTF-8 multibyte sequences are
///    decoded, remaining escapes get uppercase hex;
/// 3. runs of *adjacent* `FILTER(...)` clauses (separated only by
///    whitespace) are sorted textually — conjunctive filters commute.
///
/// Malformed input (unterminated string/IRI, unbalanced filter parens) is
/// returned with only the whitespace pass applied; the parser will reject it
/// downstream with its usual error.
pub fn normalize_query_text(query: &str) -> String {
    let collapsed = collapse_whitespace(query);
    match collapsed {
        Some(text) => sort_adjacent_filters(&text),
        None => query.trim().to_string(),
    }
}

/// Index of the `>` closing an IRI ref whose `<` is at byte `at`, or `None`
/// if this `<` is not an IRI-ref opener (an IRI ref contains no whitespace,
/// quotes, or nested `<` before its closer — a comparison operator's context
/// always does, or hits end-of-input).
fn iri_end(bytes: &[u8], at: usize) -> Option<usize> {
    debug_assert_eq!(bytes[at], b'<');
    let mut i = at + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'>' => return Some(i),
            b'<' | b'"' | b'\'' => return None,
            ws if ws.is_ascii_whitespace() => return None,
            _ => i += 1,
        }
    }
    None
}

/// Pass 1+2: whitespace (and comment) collapse outside strings/IRIs and
/// percent-escape normalization inside IRI refs. Returns `None` on an
/// unterminated quoted string (caller falls back to the raw text).
fn collapse_whitespace(query: &str) -> Option<String> {
    let bytes = query.as_bytes();
    let mut out = String::with_capacity(query.len());
    let mut pending_space = false;
    let flush = |out: &mut String, pending: &mut bool| {
        if *pending {
            if !out.is_empty() {
                out.push(' ');
            }
            *pending = false;
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            pending_space = true;
            i += 1;
            continue;
        }
        if b == b'#' {
            pending_space = true;
            while i < bytes.len() && !matches!(bytes[i], b'\n' | b'\r') {
                i += 1;
            }
            continue;
        }
        match b {
            b'<' => {
                flush(&mut out, &mut pending_space);
                match iri_end(bytes, i) {
                    Some(close) => {
                        out.push('<');
                        out.push_str(&normalize_pct(&query[i + 1..close]));
                        out.push('>');
                        i = close + 1;
                    }
                    None => {
                        // A bare `<` (comparison operator): plain char.
                        out.push('<');
                        i += 1;
                    }
                }
            }
            b'"' | b'\'' => {
                flush(&mut out, &mut pending_space);
                out.push(b as char);
                i += 1;
                let mut escaped = false;
                let mut closed = false;
                while i < bytes.len() {
                    let ch_len = utf8_len(bytes[i]);
                    out.push_str(&query[i..i + ch_len]);
                    let sb = bytes[i];
                    i += ch_len;
                    if escaped {
                        escaped = false;
                    } else if sb == b'\\' {
                        escaped = true;
                    } else if sb == b {
                        closed = true;
                        break;
                    }
                }
                if !closed {
                    return None;
                }
            }
            _ => {
                flush(&mut out, &mut pending_space);
                let ch_len = utf8_len(b);
                out.push_str(&query[i..i + ch_len]);
                i += ch_len;
            }
        }
    }
    Some(out)
}

/// Normalizes percent-escapes in one IRI ref body: decodes unreserved ASCII
/// and valid multibyte UTF-8 runs, uppercases the hex of everything else.
fn normalize_pct(iri: &str) -> String {
    let bytes = iri.as_bytes();
    let mut out = String::with_capacity(iri.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                // Collect the maximal run of %XX triplets, then re-emit it
                // with unreserved/UTF-8 bytes decoded.
                let mut decoded: Vec<u8> = Vec::new();
                let mut j = i;
                decoded.push(hi << 4 | lo);
                j += 3;
                while j + 2 < bytes.len() && bytes[j] == b'%' {
                    match (hex_val(bytes[j + 1]), hex_val(bytes[j + 2])) {
                        (Some(h), Some(l)) => {
                            decoded.push(h << 4 | l);
                            j += 3;
                        }
                        _ => break,
                    }
                }
                emit_decoded_run(&decoded, &mut out);
                i = j;
                continue;
            }
        }
        // Plain byte: IRIs are char-boundary safe here because '%' is ASCII.
        let ch_len = utf8_len(bytes[i]);
        out.push_str(&iri[i..i + ch_len]);
        i += ch_len;
    }
    out
}

fn emit_decoded_run(decoded: &[u8], out: &mut String) {
    let mut k = 0;
    while k < decoded.len() {
        let b = decoded[k];
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
            k += 1;
        } else if b >= 0x80 {
            let len = utf8_len(b);
            if len > 1 && k + len <= decoded.len() {
                if let Ok(s) = std::str::from_utf8(&decoded[k..k + len]) {
                    out.push_str(s);
                    k += len;
                    continue;
                }
            }
            push_pct(out, b);
            k += 1;
        } else {
            push_pct(out, b);
            k += 1;
        }
    }
}

fn push_pct(out: &mut String, b: u8) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    out.push('%');
    out.push(HEX[(b >> 4) as usize] as char);
    out.push(HEX[(b & 0x0f) as usize] as char);
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Byte length of the UTF-8 sequence starting with `b` (1 for ASCII or
/// invalid lead bytes, so the caller always advances).
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Pass 3: sorts runs of adjacent `FILTER(...)` clauses. Operates on
/// whitespace-collapsed text; only clauses separated purely by whitespace
/// form a run (an intervening `.` or triple pattern ends it), which keeps
/// the rewrite trivially semantics-preserving: conjunctive filters in one
/// group commute.
fn sort_adjacent_filters(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        if let Some((clauses, end)) = parse_filter_run(text, i) {
            if clauses.len() > 1 {
                let mut sorted = clauses.clone();
                sorted.sort();
                out.push_str(&sorted.join(" "));
            } else {
                out.push_str(&clauses[0]);
            }
            i = end;
            continue;
        }
        // Skip quoted strings and IRI refs wholesale so FILTER inside a
        // literal is never misparsed as a clause.
        match bytes[i] {
            b'"' | b'\'' => {
                let quote = bytes[i];
                out.push(bytes[i] as char);
                i += 1;
                let mut escaped = false;
                while i < bytes.len() {
                    let ch_len = utf8_len(bytes[i]);
                    out.push_str(&text[i..i + ch_len]);
                    let b = bytes[i];
                    i += ch_len;
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                    } else if b == quote {
                        break;
                    }
                }
            }
            b'<' => match iri_end(bytes, i) {
                Some(close) => {
                    out.push_str(&text[i..=close]);
                    i = close + 1;
                }
                None => {
                    out.push('<');
                    i += 1;
                }
            },
            _ => {
                let ch_len = utf8_len(bytes[i]);
                out.push_str(&text[i..i + ch_len]);
                i += ch_len;
            }
        }
    }
    out
}

/// Tries to parse a run of `FILTER(...)` clauses starting at byte `at`.
/// Returns the clause texts and the byte offset just past the run.
fn parse_filter_run(text: &str, at: usize) -> Option<(Vec<String>, usize)> {
    let mut clauses = Vec::new();
    let mut i = at;
    loop {
        let (clause, end) = parse_one_filter(text, i)?;
        clauses.push(clause);
        // Peek past whitespace for another FILTER; anything else ends the run.
        let mut j = end;
        let bytes = text.as_bytes();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        match parse_one_filter(text, j) {
            Some(_) => i = j,
            None => return Some((clauses, end)),
        }
    }
}

/// Parses a single `FILTER(...)` clause at byte `at` (case-insensitive
/// keyword, optional space before the paren, balanced parens with
/// quote-awareness). Returns the clause text and the offset just past it.
fn parse_one_filter(text: &str, at: usize) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    let kw = b"FILTER";
    if at + kw.len() > bytes.len() {
        return None;
    }
    if !bytes[at..at + kw.len()].eq_ignore_ascii_case(kw) {
        return None;
    }
    // Keyword must not continue an identifier (e.g. "?filterValue").
    if at > 0 {
        let prev = bytes[at - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b'?' || prev == b'$' {
            return None;
        }
    }
    let mut i = at + kw.len();
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'(' {
        return None;
    }
    let start = i;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    let clause = format!("FILTER{}", &text[start..i]);
                    return Some((clause, i));
                }
            }
            q @ (b'"' | b'\'') => {
                i += 1;
                let mut escaped = false;
                while i < bytes.len() {
                    let b = bytes[i];
                    i += 1;
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                    } else if b == q {
                        break;
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    None // unbalanced parens: not a clause we can safely reorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_sparql::Value;

    fn sols(rows: usize) -> Solutions {
        Solutions {
            vars: vec!["p".into(), "count".into()],
            rows: (0..rows)
                .map(|i| {
                    vec![
                        Some(Value::Str(format!("http://e/p{i}"))),
                        Some(Value::Int(i as i64)),
                    ]
                })
                .collect(),
        }
    }

    fn tid(raw: u32) -> TermId {
        TermId::from_raw(raw).expect("nonzero")
    }

    #[test]
    fn whitespace_collapses_outside_strings() {
        let q = "SELECT  ?s\n WHERE {\t?s ?p  \"a  b\" }";
        assert_eq!(
            normalize_query_text(q),
            "SELECT ?s WHERE { ?s ?p \"a  b\" }"
        );
    }

    #[test]
    fn comments_are_whitespace_outside_strings_and_iris() {
        assert_eq!(
            normalize_query_text("SELECT ?s # a\r\nWHERE { ?s ?p ?o } # end"),
            "SELECT ?s WHERE { ?s ?p ?o }"
        );
        let q = "SELECT ?s WHERE { ?s a <http://e/#C> ; ?p \"# kept\" }";
        assert_eq!(normalize_query_text(q), q);
    }

    #[test]
    fn percent_unreserved_decodes_and_hex_uppercases() {
        let q = "SELECT ?s WHERE { ?s a <http://e/%41gent%2fx> }";
        assert_eq!(
            normalize_query_text(q),
            "SELECT ?s WHERE { ?s a <http://e/Agent%2Fx> }"
        );
    }

    #[test]
    fn percent_utf8_multibyte_decodes() {
        // %C3%A9 = é
        let q = "SELECT ?s WHERE { ?s a <http://e/caf%C3%A9> }";
        assert_eq!(
            normalize_query_text(q),
            "SELECT ?s WHERE { ?s a <http://e/café> }"
        );
    }

    #[test]
    fn invalid_utf8_escape_stays_encoded_uppercase() {
        let q = "SELECT ?s WHERE { ?s a <http://e/x%ff> }";
        assert_eq!(
            normalize_query_text(q),
            "SELECT ?s WHERE { ?s a <http://e/x%FF> }"
        );
    }

    #[test]
    fn adjacent_filters_sort() {
        let a = "SELECT ?s WHERE { ?s ?p ?o FILTER(?o > 2) FILTER(?o < 9) }";
        let b = "SELECT ?s WHERE { ?s ?p ?o FILTER(?o < 9) FILTER(?o > 2) }";
        assert_eq!(normalize_query_text(a), normalize_query_text(b));
    }

    #[test]
    fn filters_split_by_pattern_do_not_sort() {
        let q = "SELECT ?s WHERE { ?s ?p ?o FILTER(?o > 2) ?s ?q ?r FILTER(?r < 9) }";
        assert_eq!(normalize_query_text(q), q);
    }

    #[test]
    fn filter_inside_string_untouched() {
        let q = r#"SELECT ?s WHERE { ?s ?p "FILTER(?x) FILTER(?a)" }"#;
        assert_eq!(normalize_query_text(q), q);
    }

    #[test]
    fn malformed_input_round_trips() {
        let q = "SELECT ?s WHERE { ?s ?p \"unterminated";
        assert_eq!(normalize_query_text(q), q);
    }

    #[test]
    fn get_and_record_round_trip() {
        let cache = ResultCache::new(CacheConfig::default());
        let s = sols(3);
        assert!(cache.get("k").is_none());
        cache.record("k", &s, 0);
        assert_eq!(*cache.get("k").unwrap(), s);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn sync_epoch_moves_fresh_to_stale_and_drops_frontiers() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.record("k", &sols(2), 0);
        cache.record_frontier("http://e/C", Arc::new(vec![tid(1), tid(2)]), 0);
        assert_eq!(cache.frontier_len(), 1);
        assert!(cache.sync_epoch(1));
        assert!(!cache.sync_epoch(1));
        assert!(cache.get("k").is_none());
        assert_eq!(cache.frontier_len(), 0);
        let stale = cache.get_stale("k").expect("migrated to stale side");
        assert_eq!(stale.epoch, 0);
        assert_eq!(stale.solutions, sols(2));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn record_at_old_epoch_goes_stale_not_fresh() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.sync_epoch(5);
        cache.record("k", &sols(1), 3);
        assert!(cache.get("k").is_none());
        assert_eq!(cache.get_stale("k").unwrap().epoch, 3);
    }

    #[test]
    fn record_at_future_epoch_is_dropped() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.record("k", &sols(1), 7);
        assert!(cache.get("k").is_none());
        assert!(cache.get_stale("k").is_none());
    }

    #[test]
    fn stale_never_downgrades_epoch() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.sync_epoch(5);
        cache.record("k", &sols(4), 4);
        cache.record("k", &sols(1), 2);
        assert_eq!(cache.get_stale("k").unwrap().epoch, 4);
        assert_eq!(cache.get_stale("k").unwrap().solutions, sols(4));
    }

    #[test]
    fn frontier_requires_matching_epoch() {
        let cache = ResultCache::new(CacheConfig::default());
        let members = Arc::new(vec![tid(3), tid(9)]);
        cache.record_frontier("http://e/C", Arc::clone(&members), 0);
        assert_eq!(cache.frontier("http://e/C", 0).unwrap(), members);
        cache.sync_epoch(1);
        assert!(cache.frontier("http://e/C", 1).is_none());
        // Recording with a mismatched epoch is a no-op.
        cache.record_frontier("http://e/C", Arc::clone(&members), 0);
        assert!(cache.peek_frontier("http://e/C", 1).is_none());
        // A reader still on epoch 1 never takes a frontier of epoch 2.
        cache.sync_epoch(2);
        cache.record_frontier("http://e/C", members, 2);
        assert!(cache.peek_frontier("http://e/C", 1).is_none());
        assert!(cache.frontier("http://e/C", 1).is_none());
        assert!(cache.peek_frontier("http://e/C", 2).is_some());
        let stats = cache.stats();
        assert_eq!(stats.frontier_hits, 1);
        assert_eq!(stats.frontier_misses, 2);
    }

    #[test]
    fn entry_cap_evicts_lru() {
        let cache = ResultCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: 1 << 20,
            shards: 1,
        });
        cache.record("a", &sols(1), 0);
        cache.record("b", &sols(1), 0);
        assert!(cache.get("a").is_some()); // refresh "a"; "b" is now LRU
        cache.record("c", &sols(1), 0);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn byte_cap_bounds_usage() {
        let cache = ResultCache::new(CacheConfig {
            max_entries: 1024,
            max_bytes: 8 * 1024,
            shards: 1,
        });
        for i in 0..64 {
            cache.record(&format!("q{i}"), &sols(10), 0);
        }
        assert!(cache.bytes() <= 8 * 1024);
        assert!(cache.stats().evictions > 0);
        assert!(!cache.is_empty());
    }

    #[test]
    fn oversized_entry_never_admitted() {
        let cache = ResultCache::new(CacheConfig {
            max_entries: 16,
            max_bytes: 2048,
            shards: 1,
        });
        cache.record("big", &sols(10_000), 0);
        assert!(cache.get("big").is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn concurrent_sync_and_record() {
        let cache = Arc::new(ResultCache::new(CacheConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let epoch = c.epoch();
                    c.record(&format!("q{t}-{i}"), &sols(2), epoch);
                    c.get(&format!("q{t}-{}", i / 2));
                    if i % 50 == 0 {
                        c.sync_epoch(epoch + 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.stats().invalidations >= 1);
    }
}
