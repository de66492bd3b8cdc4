//! One request generator, four parameterisations.
//!
//! A *session* is the paper's exploration path: start at `owl:Thing`,
//! repeatedly click a child bar of the subclass chart with probability
//! proportional to its height, at most [`MAX_DEPTH`] clicks. Every class
//! a session visits yields up to four chart requests. A *pool* is the
//! first K sessions drawn from the seed; the request stream replays the
//! pool round-robin, and `write-mix` splices one `POST /update` into
//! every [`Workload::write_every`]-th slot.

use elinda_core::{BarChart, Explorer, Pane};
use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
use elinda_endpoint::json::encode_solutions;
use elinda_endpoint::{ElindaEndpoint, EndpointConfig, QueryEngine};
use elinda_rdf::{vocab, TermId};
use elinda_server::percent_encode;
use elinda_sparql::{Solutions, Value};
use elinda_store::TripleStore;
use std::collections::HashMap;

/// Clicks per session after the initial `owl:Thing` pane.
pub const MAX_DEPTH: usize = 4;

/// Namespace of everything `write-mix` inserts.
pub const BENCH_NS: &str = "http://elinda.bench/";

/// `--scale` of the read-only workloads: 911 585 triples.
pub const SCALE: f64 = 400.0;

/// `--scale` of `write-mix`: 91 k triples. After a write every property
/// chart runs the naive plan until the next fold; at the full scale one
/// such chart takes seconds and a run would hold a few dozen samples.
pub const WRITE_SCALE: f64 = 40.0;

/// Which chart requests a visited class yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Property chart, outgoing and incoming: the decomposer/cache family.
    PropertyCharts,
    /// The tabs of a pane: outgoing property chart, subclass chart
    /// (unless the class is a leaf), object chart. The first and the last always run on the plain
    /// SPARQL executor, so about three requests in eight can be a cache
    /// hit and the median read is an executor chart (with the incoming
    /// property chart added, the median would sit on the boundary
    /// between cache hits and executor charts).
    AllCharts,
}

/// One row of the workload table.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Chart kinds per visited class.
    pub mix: Mix,
    /// Pool size K, in sessions.
    pub sessions: usize,
    /// `--scale` of the served dataset.
    pub scale: f64,
    /// Every n-th request is a `POST /update`; `None` is read-only.
    pub write_every: Option<u64>,
    /// `false` starts the server with `--cache-entries 0`.
    pub cache: bool,
    /// Open-loop rate of the paced phase, requests per second: about
    /// half of the saturation throughput measured on the 2-core build
    /// machine when the benchmark was defined, then frozen.
    pub paced_rps: f64,
    /// Requests of the stream the traced replay runs in process.
    pub trace_requests: usize,
}

/// The four workloads. `chart-cold` differs from `chart-revisit` in the
/// cache flag only, so their request streams are byte-identical.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chart-revisit",
        mix: Mix::PropertyCharts,
        sessions: 64,
        scale: SCALE,
        write_every: None,
        cache: true,
        paced_rps: 2500.0,
        trace_requests: 2000,
    },
    Workload {
        name: "chart-cold",
        mix: Mix::PropertyCharts,
        sessions: 64,
        scale: SCALE,
        write_every: None,
        cache: false,
        paced_rps: 75.0,
        trace_requests: 100,
    },
    Workload {
        name: "session-explore",
        mix: Mix::AllCharts,
        sessions: 512,
        scale: SCALE,
        write_every: None,
        cache: true,
        paced_rps: 60.0,
        trace_requests: 200,
    },
    Workload {
        name: "write-mix",
        mix: Mix::AllCharts,
        sessions: 64,
        scale: WRITE_SCALE,
        write_every: Some(20),
        cache: true,
        paced_rps: 45.0,
        trace_requests: 200,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the whole random state of the generator is the seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// The kind of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Property chart, instances as subjects.
    PropertyOut,
    /// Property chart, instances as objects.
    PropertyIn,
    /// Subclass distribution chart.
    Subclass,
    /// Object chart of the class's top-coverage property.
    Object,
    /// `INSERT DATA` of one new typed instance.
    Insert,
    /// `DELETE DATA` of an earlier insert.
    Delete,
}

impl Kind {
    /// Every kind, in stream order within a class.
    pub const ALL: [Kind; 6] = [
        Kind::PropertyOut,
        Kind::PropertyIn,
        Kind::Subclass,
        Kind::Object,
        Kind::Insert,
        Kind::Delete,
    ];

    /// Name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PropertyOut => "property_out",
            Kind::PropertyIn => "property_in",
            Kind::Subclass => "subclass",
            Kind::Object => "object",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
        }
    }

    /// True for the two `POST /update` kinds.
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Delete)
    }

    /// True for the charts the decomposer recognizes and the cache holds.
    pub fn is_property_chart(self) -> bool {
        matches!(self, Kind::PropertyOut | Kind::PropertyIn)
    }
}

/// One distinct read of a pool.
pub struct Read {
    /// Chart kind.
    pub kind: Kind,
    /// IRI of the class the chart is about.
    pub class_iri: String,
    /// SPARQL text.
    pub query: String,
    /// The request as sent on the wire.
    pub wire: Vec<u8>,
    /// The body the decomposer-only reference endpoint answers.
    pub expected: String,
}

/// One request of the stream.
pub enum Op<'a> {
    /// A chart read.
    Read(&'a Read),
    /// A write, numbered from 0 in stream order.
    Write {
        /// Insert or delete.
        kind: Kind,
        /// For an insert its own number; for a delete the number of the
        /// insert it removes.
        target: u64,
        /// Update text.
        text: String,
        /// The request as sent on the wire.
        wire: Vec<u8>,
    },
}

impl Op<'_> {
    /// The request's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Read(read) => read.kind,
            Op::Write { kind, .. } => *kind,
        }
    }

    /// The bytes sent on the wire.
    pub fn wire(&self) -> &[u8] {
        match self {
            Op::Read(read) => &read.wire,
            Op::Write { wire, .. } => wire,
        }
    }
}

/// A pool of sessions and the request stream that replays it.
pub struct Pool {
    /// Every distinct read.
    pub distinct: Vec<Read>,
    /// The pool's reads in replay order, as indexes into `distinct`.
    pub order: Vec<usize>,
    write_every: Option<u64>,
    seed: u64,
}

/// Draw `k` session paths from `seed`. The subclass chart of a class is
/// computed once: in a dataset with materialized types the narrowed set
/// behind a class bar is the class's instance set whichever path led
/// there.
pub fn session_paths(explorer: &Explorer<'_>, seed: u64, k: usize) -> Vec<Vec<TermId>> {
    struct Node {
        pane: Pane,
        chart: Option<BarChart>,
    }
    let Some(root) = explorer.initial_pane() else {
        return Vec::new();
    };
    let Some(root_class) = root.class else {
        return Vec::new();
    };
    let mut nodes: HashMap<TermId, Node> = HashMap::new();
    nodes.insert(
        root_class,
        Node {
            pane: root,
            chart: None,
        },
    );
    let mut rng = Rng::new(seed);
    let mut paths = Vec::with_capacity(k);
    for _ in 0..k {
        let mut class = root_class;
        let mut path = vec![class];
        for _ in 0..MAX_DEPTH {
            let node = nodes.get_mut(&class).expect("visited classes have a node");
            if node.chart.is_none() {
                node.chart = Some(node.pane.subclass_chart(explorer));
            }
            let chart = nodes[&class].chart.as_ref().expect("just filled");
            let total: u64 = chart.bars().iter().map(|bar| bar.height() as u64).sum();
            if total == 0 {
                break;
            }
            let mut ticket = rng.next_u64() % total;
            let bar = chart
                .bars()
                .iter()
                .find(|bar| {
                    let hit = ticket < bar.height() as u64;
                    if !hit {
                        ticket -= bar.height() as u64;
                    }
                    hit
                })
                .expect("the ticket is below the total height");
            let child = bar.label;
            let pane = (!nodes.contains_key(&child))
                .then(|| explorer.pane_from_bar(bar).expect("a class bar"));
            if let Some(pane) = pane {
                nodes.insert(child, Node { pane, chart: None });
            }
            class = child;
            path.push(class);
        }
        paths.push(path);
    }
    paths
}

/// SPARQL text of the subclass chart of a class.
pub fn subclass_chart_sparql(class_iri: &str) -> String {
    format!(
        "SELECT ?sub (COUNT(?s) AS ?n) WHERE {{ ?sub <{}> <{class_iri}> . ?s a ?sub }} GROUP BY ?sub",
        vocab::rdfs::SUB_CLASS_OF
    )
}

/// SPARQL text of the object chart of a class and one of its properties.
pub fn object_chart_sparql(class_iri: &str, property_iri: &str) -> String {
    format!(
        "SELECT ?t (COUNT(?o) AS ?n) WHERE {{ ?s a <{class_iri}> . ?s <{property_iri}> ?o . ?o a ?t }} GROUP BY ?t"
    )
}

/// The `GET /sparql?query=` request for a query.
pub fn read_wire(query: &str) -> Vec<u8> {
    format!(
        "GET /sparql?query={} HTTP/1.1\r\nHost: bench\r\n\r\n",
        percent_encode(query)
    )
    .into_bytes()
}

/// The `POST /update` request for an update.
pub fn write_wire(update: &str) -> Vec<u8> {
    format!(
        "POST /update HTTP/1.1\r\nHost: bench\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{update}",
        update.len()
    )
    .into_bytes()
}

/// IRI of the instance that insert number `n` of a seed creates.
pub fn instance_iri(seed: u64, n: u64) -> String {
    format!("{BENCH_NS}i/{seed}-{n}")
}

/// The update that inserts (or, for [`Kind::Delete`], deletes again) the
/// three triples of instance number `n`, typed with `class_iri`.
pub fn instance_update(kind: Kind, seed: u64, n: u64, class_iri: &str) -> String {
    let s = instance_iri(seed, n);
    let verb = if kind == Kind::Delete {
        "DELETE"
    } else {
        "INSERT"
    };
    format!(
        "{verb} DATA {{ <{s}> <{}> <{class_iri}> . <{s}> <{}> \"bench {n}\" . <{s}> <{BENCH_NS}seq> \"{n}\" . }}",
        vocab::rdf::TYPE,
        vocab::rdfs::LABEL
    )
}

/// The property with the most instances featuring it in a property
/// chart, `rdf:type` and `rdfs:label` aside (every instance has both and
/// neither leads to typed objects). Ties go to the first in the chart's
/// canonical order.
fn top_property(chart: &Solutions, store: &TripleStore) -> Option<String> {
    let p = chart.column("p")?;
    let count = chart.column("count")?;
    let mut best: Option<(i64, &str)> = None;
    for row in &chart.rows {
        let (Some(Value::Term(id)), Some(Value::Int(n))) = (row[p].as_ref(), row[count].as_ref())
        else {
            continue;
        };
        let Some(iri) = store.resolve(*id).as_iri() else {
            continue;
        };
        if iri == vocab::rdf::TYPE || iri == vocab::rdfs::LABEL {
            continue;
        }
        if best.is_none_or(|(most, _)| *n > most) {
            best = Some((*n, iri));
        }
    }
    best.map(|(_, iri)| iri.to_string())
}

impl Pool {
    /// Build the pool of a workload for a seed: draw the sessions, write
    /// the queries, and answer every distinct one on a decomposer-only
    /// reference endpoint with `threads` threads.
    pub fn build(store: &TripleStore, workload: &Workload, seed: u64, threads: usize) -> Pool {
        let explorer = Explorer::new(store);
        let paths = session_paths(&explorer, seed, workload.sessions);
        let iri = |class: TermId| {
            store
                .resolve(class)
                .as_iri()
                .expect("classes are IRIs")
                .to_string()
        };
        let paths: Vec<Vec<String>> = paths
            .iter()
            .map(|path| path.iter().map(|&class| iri(class)).collect())
            .collect();
        let reference = ElindaEndpoint::new(store, EndpointConfig::decomposer_only());

        // Property charts first: the object chart needs the outgoing
        // chart's top property.
        let mut classes: Vec<&str> = Vec::new();
        let mut class_index: HashMap<&str, usize> = HashMap::new();
        for class in paths.iter().flatten() {
            class_index.entry(class).or_insert_with(|| {
                classes.push(class);
                classes.len() - 1
            });
        }
        type Spec = (Kind, usize, String);
        let answer = |specs: &[Spec]| -> Vec<(String, Solutions)> {
            let threads = threads.max(1);
            let mut answers: Vec<Option<(String, Solutions)>> =
                specs.iter().map(|_| None).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let reference = &reference;
                        scope.spawn(move || {
                            (t..specs.len())
                                .step_by(threads)
                                .map(|i| {
                                    let outcome = reference
                                        .execute(&specs[i].2)
                                        .expect("generated queries evaluate");
                                    let body = encode_solutions(&outcome.solutions, store);
                                    (i, body, outcome.solutions)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, body, solutions) in handle.join().expect("reference thread") {
                        answers[i] = Some((body, solutions));
                    }
                }
            });
            answers
                .into_iter()
                .map(|a| a.expect("every index answered"))
                .collect()
        };
        let direction = |kind| match kind {
            Kind::PropertyIn => ExpansionDirection::Incoming,
            _ => ExpansionDirection::Outgoing,
        };
        let mut specs: Vec<Spec> = Vec::new();
        let property_charts: &[Kind] = match workload.mix {
            Mix::PropertyCharts => &[Kind::PropertyOut, Kind::PropertyIn],
            Mix::AllCharts => &[Kind::PropertyOut],
        };
        for &kind in property_charts {
            for (c, class) in classes.iter().enumerate() {
                specs.push((kind, c, property_expansion_sparql(class, direction(kind))));
            }
        }
        let mut answers = answer(&specs);
        if workload.mix == Mix::AllCharts {
            let mut more: Vec<Spec> = Vec::new();
            for (c, class) in classes.iter().enumerate() {
                // The pane's corner statistic tells the user that a leaf
                // class has no subclasses to chart. It also keeps the
                // subclass charts below a third of the reads, so that the
                // median read lies inside one kind's latency band on both
                // session workloads and not between two.
                let has_subclasses = store
                    .lookup_iri(class)
                    .is_some_and(|id| explorer.hierarchy().direct_subclass_count(id) > 0);
                if has_subclasses {
                    more.push((Kind::Subclass, c, subclass_chart_sparql(class)));
                }
                // `specs` lists the outgoing charts first, in class order.
                if let Some(property) = top_property(&answers[c].1, store) {
                    more.push((Kind::Object, c, object_chart_sparql(class, &property)));
                }
            }
            answers.extend(answer(&more));
            specs.extend(more);
        }

        // Replay order: session by session, class by class, kind by kind.
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
        for (i, (_, c, _)) in specs.iter().enumerate() {
            by_class[*c].push(i);
        }
        for reads in &mut by_class {
            reads.sort_by_key(|&i| specs[i].0 as u8);
        }
        let order = paths
            .iter()
            .flatten()
            .flat_map(|class| by_class[class_index[class.as_str()]].iter().copied())
            .collect();
        let distinct = specs
            .into_iter()
            .zip(answers)
            .map(|((kind, c, query), (expected, _))| Read {
                kind,
                class_iri: classes[c].to_string(),
                wire: read_wire(&query),
                query,
                expected,
            })
            .collect();
        Pool {
            distinct,
            order,
            write_every: workload.write_every,
            seed,
        }
    }

    /// Reads in one replay of the pool.
    pub fn cycle_len(&self) -> usize {
        self.order.len()
    }

    /// Request number `i` of the stream.
    pub fn op(&self, i: u64) -> Op<'_> {
        let reads_before = match self.write_every {
            Some(every) => {
                if i % every == every - 1 {
                    return self.write(i / every, i);
                }
                i - i / every
            }
            None => i,
        };
        Op::Read(&self.distinct[self.order[(reads_before % self.order.len() as u64) as usize]])
    }

    /// Write number `n`, in stream slot `i`: every tenth deletes the
    /// first insert of its own decade, the others insert an instance of
    /// the class the neighbouring read is about.
    fn write(&self, n: u64, i: u64) -> Op<'_> {
        let class_of = |slot: u64| {
            let read = self.order[(slot % self.order.len() as u64) as usize];
            self.distinct[read].class_iri.as_str()
        };
        let every = self.write_every.expect("only write workloads write");
        let (kind, target, class) = if n % 10 == 9 {
            // The insert sat `9 * every` slots earlier; name its class
            // again so that the delete names exactly its triples.
            (Kind::Delete, n - 9, class_of(i - 9 * every))
        } else {
            (Kind::Insert, n, class_of(i))
        };
        let text = instance_update(kind, self.seed, target, class);
        Op::Write {
            kind,
            target,
            wire: write_wire(&text),
            text,
        }
    }
}

/// The query that lists every instance `write-mix` has inserted.
pub fn list_inserted_sparql() -> String {
    format!("SELECT ?s WHERE {{ ?s <{BENCH_NS}seq> ?n }}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elinda_datagen::{generate_dbpedia, DbpediaConfig};

    fn stream(pool: &Pool, n: u64) -> Vec<u8> {
        (0..n).flat_map(|i| pool.op(i).wire().to_vec()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let store = generate_dbpedia(&DbpediaConfig::tiny());
        let explore = workload("session-explore").unwrap();
        let a = Pool::build(&store, explore, 1, 1);
        let b = Pool::build(&store, explore, 1, 2);
        let c = Pool::build(&store, explore, 2, 1);
        assert_eq!(stream(&a, 500), stream(&b, 500));
        assert_ne!(stream(&a, 500), stream(&c, 500));
    }

    #[test]
    fn chart_cold_replays_chart_revisit() {
        let store = generate_dbpedia(&DbpediaConfig::tiny());
        let revisit = Pool::build(&store, workload("chart-revisit").unwrap(), 7, 1);
        let cold = Pool::build(&store, workload("chart-cold").unwrap(), 7, 1);
        assert_eq!(stream(&revisit, 1000), stream(&cold, 1000));
        assert!(revisit
            .distinct
            .iter()
            .all(|read| read.kind.is_property_chart()));
    }

    #[test]
    fn sessions_start_at_the_root_and_respect_the_depth() {
        let store = generate_dbpedia(&DbpediaConfig::tiny());
        let paths = session_paths(&Explorer::new(&store), 3, 64);
        assert_eq!(paths.len(), 64);
        let thing = store.lookup_iri(vocab::owl::THING).unwrap();
        for path in &paths {
            assert_eq!(path[0], thing);
            assert!(path.len() <= MAX_DEPTH + 1);
        }
        assert!(paths.iter().any(|path| path.len() > 2));
        let pool = Pool::build(&store, workload("session-explore").unwrap(), 3, 1);
        let kinds: std::collections::HashSet<Kind> =
            pool.distinct.iter().map(|read| read.kind).collect();
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn write_mix_writes_every_twentieth_and_deletes_an_earlier_insert() {
        let store = generate_dbpedia(&DbpediaConfig::tiny());
        let pool = Pool::build(&store, workload("write-mix").unwrap(), 1, 1);
        let mut inserts: HashMap<u64, String> = HashMap::new();
        let mut deletes = 0;
        for i in 0..2000u64 {
            match pool.op(i) {
                Op::Write {
                    kind: Kind::Insert,
                    target,
                    text,
                    ..
                } => {
                    assert_eq!(i % 20, 19);
                    assert!(elinda_sparql::parse_update(&text).is_ok());
                    inserts.insert(target, text);
                }
                Op::Write {
                    kind: Kind::Delete,
                    target,
                    text,
                    ..
                } => {
                    deletes += 1;
                    let inserted = inserts.get(&target).expect("deletes follow their insert");
                    assert_eq!(
                        text.strip_prefix("DELETE DATA"),
                        inserted.strip_prefix("INSERT DATA")
                    );
                }
                op => assert!(!op.kind().is_write() && i % 20 != 19),
            }
        }
        assert_eq!(inserts.len(), 90);
        assert_eq!(deletes, 10);
    }
}
