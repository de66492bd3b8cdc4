#![warn(missing_docs)]

//! The eLinda serving architecture (paper Section 4, Fig. 3).
//!
//! "The architecture design of ELINDA is driven primarily by the
//! requirement of responsiveness, which means that expansions should
//! happen instantly, preferably in tens to hundreds of milliseconds."
//! Three techniques deliver that, all implemented here:
//!
//! * **eLinda HVS** ([`hvs`]) — a key-value *heavy query store*: queries
//!   whose measured runtime exceeds a threshold (1 s in the paper) are
//!   cached; the cache is cleared on any update to the knowledge base
//!   (store-epoch tracking);
//! * **eLinda decomposer** ([`decomposer`]) — recognizes the
//!   property-expansion query shape on the SPARQL AST and answers it from
//!   the store's indexes instead of the naive nested aggregation,
//!   "for *all* property expansion queries … for subclasses of
//!   owl:Thing"; the index scan itself is written once ([`kernel`]) and
//!   driven sequentially, across threads ([`parallel`]) or across
//!   processes ([`fabric`]);
//! * **incremental evaluation** ([`incremental`]) — computes a chart on
//!   the first `N` triples, then the next `N`, aggregating partial
//!   results "in the frontend", for `k` steps or until complete.
//!
//! [`router`] wires them together in front of the direct executor
//! ([`direct`], the stand-in for the Virtuoso endpoint), and [`remote`]
//! is the *compatibility mode*: a simulated remote HTTP/JSON endpoint
//! where no preprocessing is possible and only incremental evaluation
//! helps. [`json`] implements the SPARQL-JSON results wire format the
//! remote mode speaks.

pub mod cache;
pub mod decomposer;
pub mod direct;
pub mod engine;
pub mod fabric;
pub mod fault;
pub mod hvs;
pub mod incremental;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod novelty;
pub mod parallel;
pub mod remote;
pub mod resilience;
pub mod router;
pub mod trace;
pub mod update_log;

pub use cache::{normalize_query_text, CacheConfig, CacheStats, ResultCache};
pub use decomposer::{recognize_property_expansion, PropertyExpansionQuery};
pub use direct::DirectEndpoint;
pub use engine::{QueryContext, QueryEngine, QueryOutcome, ServeError, ServedBy};
pub use fabric::{
    FabricConfig, FabricCoordinator, FabricStats, ShardClient, ShardClientStats, ShardEvaluator,
    ShardPartial,
};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use hvs::{HeavyQueryStore, HvsConfig, HvsStats, StaleEntry};
pub use incremental::{IncrementalConfig, IncrementalPropertyChart, PartialChart};
pub use metrics::{LatencySummary, MeteredEndpoint};
pub use novelty::{ApplyOutcome, CompactionReport, NoveltyConfig, NoveltyStats, NoveltyStore};
pub use parallel::{ParallelReport, ParallelStats, Parallelism};
pub use remote::{RemoteConfig, RemoteEndpoint, WireSolutions, WireValue};
pub use resilience::{
    Admission, BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, Deadline,
    ResilienceConfig, ResilienceStats, ResilientEndpoint, RetryPolicy,
};
pub use router::{ElindaEndpoint, EndpointConfig, ExplainReport};
pub use trace::{FinishedTrace, SpanRecord, StageStats, TraceCtx, TraceRing};
pub use update_log::{decode_update, encode_update};
