//! The [`QueryEngine`] abstraction: anything that can answer a SPARQL
//! query with a measured runtime, under an optional per-request
//! [`Deadline`](crate::resilience::Deadline).

use crate::resilience::Deadline;
use crate::trace::TraceCtx;
use elinda_sparql::exec::QueryError;
use elinda_sparql::Solutions;
use std::fmt;
use std::time::Duration;

/// Which component served a query (the Fig. 4 store configurations,
/// plus the degradation ladder of the fault-tolerant path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// The plain SPARQL executor (the "Virtuoso endpoint" path).
    Direct,
    /// A heavy-query-store hit.
    Hvs,
    /// The eLinda decomposer.
    Decomposer,
    /// A remote endpoint in compatibility mode.
    Remote,
    /// A fresh result-cache hit: the finished chart bytes of an earlier
    /// identical request at the current data epoch.
    CacheHit,
    /// Incremental evaluation seeded from a cached parent entity
    /// frontier instead of a whole-store instance derivation.
    Incremental,
    /// The shard fabric: a coordinator scattered the chart query across
    /// real shard processes and merged their partial aggregates.
    Fabric,
    /// Degraded: a stale (epoch-tagged) last-known-good cache entry,
    /// served because the backend was unavailable or the budget spent.
    DegradedStale,
    /// Degraded: a sequential local fallback evaluation, served because
    /// the primary backend was unavailable.
    DegradedLocal,
}

impl ServedBy {
    /// True for the degradation-ladder components.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServedBy::DegradedStale | ServedBy::DegradedLocal)
    }
}

/// A query result with its measured runtime and serving component.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The solution sequence.
    pub solutions: Solutions,
    /// Measured wall-clock runtime.
    pub elapsed: Duration,
    /// Which component answered.
    pub served_by: ServedBy,
    /// Number of work units the evaluation fanned across — 1 on every
    /// sequential path, the unit count of the endpoint's
    /// [`crate::parallel::Parallelism`] budget when the threaded chart
    /// driver answered (the fleet size on a fabric answer).
    pub shards_used: usize,
    /// The data epoch this answer reflects. Equal to the engine's
    /// current epoch on every live path; older on a
    /// [`ServedBy::DegradedStale`] serve, where it tags how stale the
    /// answer is.
    pub data_epoch: u64,
}

/// Per-request execution context handed down the serving stack.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// The request's time budget (unbounded by default).
    pub deadline: Deadline,
    /// The request's trace handle (disabled by default: every tracing
    /// operation is then a no-op branch).
    pub trace: TraceCtx,
}

impl QueryContext {
    /// A context carrying the given budget (tracing disabled).
    pub fn with_deadline(deadline: Deadline) -> Self {
        QueryContext {
            deadline,
            trace: TraceCtx::disabled(),
        }
    }

    /// A context carrying the given budget and trace handle.
    pub fn with_deadline_and_trace(deadline: Deadline, trace: TraceCtx) -> Self {
        QueryContext { deadline, trace }
    }
}

/// Everything that can go wrong while serving a query.
///
/// [`ServeError::is_transient`] is the retry/breaker pivot: transient
/// failures are infrastructure faults (connection drops, timeouts,
/// malformed wire payloads) that an idempotent read may safely retry,
/// while [`ServeError::Query`] is the query's own fault and must reach
/// the client unchanged.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The query itself is invalid (parse or execution error).
    Query(QueryError),
    /// The request's deadline expired before an answer was produced.
    DeadlineExceeded,
    /// A transient infrastructure failure (retryable for reads).
    Transient(String),
    /// The backend is unavailable (e.g. circuit breaker open) and no
    /// degraded answer could be produced.
    Unavailable(String),
    /// The request body is not a well-formed request for its endpoint
    /// (e.g. an unparsable SPARQL UPDATE string). Maps to HTTP 400.
    Malformed(String),
}

impl ServeError {
    /// True for failures a retry of an idempotent read may fix.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServeError::Transient(_) | ServeError::DeadlineExceeded
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Query(e) => e.fmt(f),
            ServeError::DeadlineExceeded => f.write_str("deadline exceeded"),
            ServeError::Transient(msg) => write!(f, "transient failure: {msg}"),
            ServeError::Unavailable(msg) => write!(f, "service unavailable: {msg}"),
            ServeError::Malformed(msg) => write!(f, "malformed request: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

/// An engine that answers SPARQL text queries.
///
/// Engines are shared across server worker threads behind an `Arc`, so
/// the trait requires `Send + Sync`: implementations take `&self` and
/// use interior mutability (see the HVS and the metering wrapper) for
/// any state they update per query.
pub trait QueryEngine: Send + Sync {
    /// Execute a query with no deadline, measuring its runtime.
    fn execute(&self, query: &str) -> Result<QueryOutcome, ServeError>;

    /// Execute a query under a per-request context (deadline budget).
    ///
    /// The default implementation ignores the context — engines whose
    /// work is not meaningfully interruptible (the direct executor) keep
    /// that behavior, while the router, the parallel evaluator, and the
    /// remote client override it to check the deadline cooperatively.
    fn execute_with(&self, query: &str, _ctx: &QueryContext) -> Result<QueryOutcome, ServeError> {
        self.execute(query)
    }

    /// The epoch of the underlying data (bumped on updates).
    fn data_epoch(&self) -> u64;
}

impl QueryEngine for Box<dyn QueryEngine> {
    fn execute(&self, query: &str) -> Result<QueryOutcome, ServeError> {
        self.as_ref().execute(query)
    }

    fn execute_with(&self, query: &str, ctx: &QueryContext) -> Result<QueryOutcome, ServeError> {
        self.as_ref().execute_with(query, ctx)
    }

    fn data_epoch(&self) -> u64 {
        self.as_ref().data_epoch()
    }
}

impl<E: QueryEngine + ?Sized> QueryEngine for std::sync::Arc<E> {
    fn execute(&self, query: &str) -> Result<QueryOutcome, ServeError> {
        self.as_ref().execute(query)
    }

    fn execute_with(&self, query: &str, ctx: &QueryContext) -> Result<QueryOutcome, ServeError> {
        self.as_ref().execute_with(query, ctx)
    }

    fn data_epoch(&self) -> u64 {
        self.as_ref().data_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_by_is_comparable() {
        assert_ne!(ServedBy::Direct, ServedBy::Hvs);
        assert_eq!(ServedBy::Decomposer, ServedBy::Decomposer);
        assert!(ServedBy::DegradedStale.is_degraded());
        assert!(ServedBy::DegradedLocal.is_degraded());
        assert!(!ServedBy::Remote.is_degraded());
    }

    #[test]
    fn transient_classification() {
        assert!(ServeError::Transient("reset".into()).is_transient());
        assert!(ServeError::DeadlineExceeded.is_transient());
        assert!(!ServeError::Unavailable("open".into()).is_transient());
        let parse = elinda_sparql::parse_query("SELECT").unwrap_err();
        assert!(!ServeError::Query(QueryError::Parse(parse)).is_transient());
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            ServeError::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
        assert!(ServeError::Transient("x".into()).to_string().contains("x"));
        assert!(ServeError::Unavailable("y".into())
            .to_string()
            .contains("unavailable"));
    }
}
