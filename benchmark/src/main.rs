//! The repo benchmark: four exploration workloads against a real
//! `elinda-serve`, end-to-end metrics from outside, per-layer timings
//! from a traced in-process replay. See `README.md` next to the
//! manifest.

mod client;
mod e2e;
mod load;
mod process;
mod stats;
mod trace;
mod workload;

use client::SERVED_BY;
use e2e::{EndToEnd, Env, Phases};
use elinda_datagen::{generate_dbpedia, DbpediaConfig};
use elinda_endpoint::json::{parse_json, Json};
use elinda_store::TripleStore;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Pool, Workload, WORKLOADS};

/// `--smoke`: 23 k triples, short phases, a 100-request trace.
const SMOKE_SCALE: f64 = 10.0;
const SMOKE_SECONDS: f64 = 2.0;
const SMOKE_TRACE_REQUESTS: usize = 100;
/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const RUN_SECONDS: f64 = 20.0;
/// Cold starts per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Round trips per `/health` probe: on one keep-alive connection to
/// the reactor, on a connection each to the blocking front-end.
const REACTOR_HEALTH_PROBES: usize = 2000;
const BLOCKING_HEALTH_PROBES: usize = 500;

/// End-to-end metrics in `BENCHMARK.json` order: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, as `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 46] = [
    "datagen.generate_s",
    "endpoint.cache.get_us",
    "endpoint.cache.hit_share",
    "endpoint.cache.normalize_us",
    "endpoint.decomposer.eval_us",
    "endpoint.decomposer.recognize_us",
    "endpoint.incremental.eval_us",
    "endpoint.json.body_bytes",
    "endpoint.json.encode_us",
    "endpoint.novelty.apply_us",
    "endpoint.novelty.compact_ms",
    "endpoint.novelty.compactions",
    "endpoint.novelty.stale_read_share",
    "endpoint.parallel.eval_us",
    "endpoint.router.execute_us",
    "endpoint.served_by.cache-hit_share",
    "endpoint.served_by.decomposer_share",
    "endpoint.served_by.degraded_share",
    "endpoint.served_by.direct_share",
    "endpoint.served_by.hvs_share",
    "endpoint.served_by.incremental_share",
    "load.redials",
    "load.sched_late_share",
    "server.blocking.health_rtt_us",
    "server.frontend.residual_us",
    "server.http.parse_us",
    "server.http.serialize_us",
    "server.reactor.health_rtt_us",
    "server.restart_after_kill_s",
    "sparql.exec.execute_us",
    "sparql.parser.parse_us",
    "store.persist.bytes_per_triple",
    "store.persist.load_ms",
    "store.persist.save_ms",
    "store.schema.hierarchy_build_ms",
    "store.shard.build_ms",
    "store.wal.append_us",
    "store.wal.bytes_per_update",
    "store.wal.fsyncs_per_append",
    "store.wal.recovery_ms",
    "trace.coverage_mean_share",
    "trace.coverage_min_share",
    "trace.request_mean_us",
    "trace.request_p50_us",
    "trace.requests",
    "write_ack_p50_ms",
];

/// The tier shares, in [`SERVED_BY`] order.
const SERVED_BY_SHARES: [&str; SERVED_BY.len()] = [
    "endpoint.served_by.cache-hit_share",
    "endpoint.served_by.hvs_share",
    "endpoint.served_by.incremental_share",
    "endpoint.served_by.decomposer_share",
    "endpoint.served_by.direct_share",
    "endpoint.served_by.degraded_share",
];

/// Unit of a per-layer metric, by the suffix of its name.
fn unit_of(name: &str) -> &'static str {
    match name.rsplit('_').next() {
        Some("us") => "us",
        Some("ms") => "ms",
        Some("s") => "s",
        Some("share") => "ratio",
        Some("bytes") | Some("update") | Some("triple") => "B",
        _ => "count",
    }
}

enum Command {
    /// One workload, one JSON line: what the driver runs.
    Single,
    /// Every workload end to end, then traced; the full report.
    Run,
    /// Every workload traced only.
    Trace,
    /// The end-to-end set twice, compared against the bounds.
    Aa,
}

struct Args {
    command: Command,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: benchmark [run|aa|trace] [--workload NAME] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke]\n  with --workload and no command: one run, one JSON line \
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: Command::Single,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut command = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "run" => command = Some(Command::Run),
            "aa" => command = Some(Command::Aa),
            "trace" => command = Some(Command::Trace),
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(workload::workload(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    args.command = match (command, args.workload) {
        (Some(command), _) => command,
        (None, Some(_)) => Command::Single,
        (None, None) => Command::Run,
    };
    if args.smoke {
        // The traced pass repeats the end-to-end load, so on its own it
        // exercises every path in a fraction of the time.
        args.seconds = SMOKE_SECONDS;
        if matches!(args.command, Command::Run) {
            args.command = Command::Trace;
        }
    }
    Ok(args)
}

/// The binaries sit next to this one; run files go to
/// `<target dir>/benchmark/`.
fn environment(smoke: bool) -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let profile_dir = exe.parent().ok_or("this executable has no directory")?;
    let binary = |name: &str| -> Result<PathBuf, String> {
        let path = profile_dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} not found: build it with `cargo build --release -p elinda-server` \
                 into the same target directory (benchmark/run.sh does both builds)",
                path.display()
            ))
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = profile_dir
        .parent()
        .ok_or("the profile directory has no parent")?
        .join("benchmark");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok(Env {
        serve: binary("elinda-serve")?,
        loader: binary("elinda-load")?,
        out,
        max_scale: if smoke { SMOKE_SCALE } else { f64::INFINITY },
        nproc,
        connections: nproc.min(4),
    })
}

/// The datasets `elinda-serve --scale` generates, made in process for
/// the session generator, the reference answers and the traced replay;
/// one per distinct scale.
#[derive(Default)]
struct Datasets(Vec<(f64, Arc<TripleStore>, f64)>);

impl Datasets {
    /// The store at `scale` and the seconds generating it took.
    fn at(&mut self, scale: f64) -> (Arc<TripleStore>, f64) {
        if let Some((_, store, seconds)) = self.0.iter().find(|(s, _, _)| *s == scale) {
            return (Arc::clone(store), *seconds);
        }
        let start = Instant::now();
        let store = Arc::new(generate_dbpedia(&DbpediaConfig::tiny().scaled(scale)));
        let seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "dataset: scale {scale}, {} triples in {seconds:.2} s",
            store.len()
        );
        self.0.push((scale, Arc::clone(&store), seconds));
        (store, seconds)
    }
}

/// One workload measured: end to end always, per layer when traced.
struct Measured {
    workload: &'static Workload,
    seed: u64,
    scale: f64,
    triples: usize,
    distinct_reads: usize,
    cycle_len: usize,
    e2e: EndToEnd,
    layers: Option<BTreeMap<&'static str, f64>>,
}

fn measure(
    env: &Env,
    datasets: &mut Datasets,
    workload: &'static Workload,
    args: &Args,
    traced: bool,
) -> Result<Measured, String> {
    let (store, generate_s) = datasets.at(env.scale_of(workload));
    let store = &store;
    let pool = Pool::build(store, workload, args.seed, env.nproc);
    let phases = Phases::split(args.seconds);
    // The traced run repeats the end-to-end load for the tier shares and
    // the front-end residual; its one set-up is not a `setup_s` sample.
    let setups = if traced { 1 } else { SETUPS };
    let (e2e, server) = e2e::run(env, workload, &pool, args.seed, phases, setups)?;
    eprintln!(
        "{}: p50 {:.3} ms, p95 {:.3} ms over {} reads at {} req/s; {:.1} req/s saturated; \
         {} of {} failed",
        workload.name,
        e2e.p50_ms,
        e2e.p95_ms,
        e2e.paced_reads,
        workload.paced_rps,
        e2e.throughput_rps,
        e2e.failed,
        e2e.attempted
    );
    for (kind, n, p50, p95) in &e2e.by_kind {
        eprintln!(
            "  {:<13} {n:>6} paced: p50 {p50:.3} ms, p95 {p95:.3} ms",
            kind.name()
        );
    }
    eprintln!(
        "  served by: {}",
        SERVED_BY
            .iter()
            .zip(e2e.served_by_share)
            .map(|(name, share)| format!("{name} {share:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if e2e.paced_reads == 0 {
        return Err(format!("{}: the paced phase took no sample", workload.name));
    }
    let layers = match traced {
        false => None,
        true => {
            let mut layers = BTreeMap::new();
            layers.insert(
                "server.reactor.health_rtt_us",
                e2e::health_rtt_us(&server.addr, REACTOR_HEALTH_PROBES)?,
            );
            drop(server);
            layers.insert(
                "server.blocking.health_rtt_us",
                e2e::blocking_health_rtt_us(env, BLOCKING_HEALTH_PROBES)?,
            );
            let scratch = env.out.join(format!("probe-{}", workload.name));
            e2e::fresh_dir(&scratch)?;
            let requests = if args.smoke {
                SMOKE_TRACE_REQUESTS
            } else {
                workload.trace_requests
            };
            let mut tracer = trace::Tracer::new(requests * trace::SPANS_PER_REQUEST);
            layers.extend(trace::replay(
                &mut tracer,
                store,
                &pool,
                workload,
                env.connections,
                requests,
                &scratch.join("replay-wal"),
            )?);
            layers.extend(trace::layer_probes(store, &pool, args.seed, &scratch)?);
            let path = env.out.join(format!("trace-{}.json", workload.name));
            std::fs::write(&path, tracer.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            std::fs::remove_dir_all(&scratch)
                .map_err(|e| format!("cannot remove {}: {e}", scratch.display()))?;

            layers.insert(
                "server.frontend.residual_us",
                e2e.p50_ms * 1e3 - layers["trace.request_p50_us"],
            );
            layers.extend(SERVED_BY_SHARES.into_iter().zip(e2e.served_by_share));
            // `cache-hit` and `hvs` lead the tally.
            layers.insert(
                "endpoint.cache.hit_share",
                e2e.served_by_share[0] + e2e.served_by_share[1],
            );
            layers.insert("endpoint.novelty.stale_read_share", e2e.stale_read_share);
            layers.insert("datagen.generate_s", generate_s);
            layers.insert("write_ack_p50_ms", e2e.write_ack_p50_ms.unwrap_or(0.0));
            layers.insert("server.restart_after_kill_s", e2e.restart_s.unwrap_or(0.0));
            layers.insert("load.sched_late_share", e2e.sched_late_share);
            layers.insert("load.redials", e2e.redials as f64);
            if !layers.keys().eq(PER_LAYER.iter()) {
                return Err(format!(
                    "the traced run measured {:?}, BENCHMARK.json lists {PER_LAYER:?}",
                    layers.keys()
                ));
            }
            Some(layers)
        }
    };
    Ok(Measured {
        workload,
        seed: args.seed,
        scale: env.scale_of(workload),
        triples: store.len(),
        distinct_reads: pool.distinct.len(),
        cycle_len: pool.cycle_len(),
        e2e,
        layers,
    })
}

impl Measured {
    fn end_to_end(&self) -> [f64; END_TO_END.len()] {
        let e = &self.e2e;
        [e.p50_ms, e.p95_ms, e.throughput_rps, e.setup_s, e.rss_mb]
    }

    /// `{"name":{"value":…,"unit":"…"},…}` for the metrics this run has.
    fn metrics_json(&self, traced: bool) -> String {
        let metric = |name: &str, value: f64, unit: &str| {
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        };
        let fields: Vec<String> = match (&self.layers, traced) {
            (Some(layers), true) => layers
                .iter()
                .map(|(name, value)| metric(name, *value, unit_of(name)))
                .collect(),
            _ => END_TO_END
                .iter()
                .zip(self.end_to_end())
                .map(|((name, unit), value)| metric(name, value, unit))
                .collect(),
        };
        format!("{{{}}}", fields.join(","))
    }

    /// The contract's result line.
    fn result_line(&self, traced: bool) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.e2e.failed == 0,
            self.e2e.attempted,
            self.e2e.failed,
            self.metrics_json(traced)
        )
    }

    /// Everything about the run, for the `run` report.
    fn report_json(&self, env: &Env) -> String {
        let e = &self.e2e;
        let optional = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
        let setups: Vec<String> = e.setups_s.iter().map(f64::to_string).collect();
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"correct\":{},\"context\":{{\"scale\":{},\"triples\":{},\"connections\":{},\
             \"paced_rps\":{},\"sessions\":{},\"distinct_reads\":{},\"requests_per_pool_cycle\":{},\
             \"warm_requests\":{},\"paced_read_samples\":{},\"paced_write_samples\":{},\
             \"saturation_ok\":{},\"sched_late_share\":{},\"redials\":{},\"setups_s\":[{}]}},\
             \"end_to_end\":{{\"fail_share\":{},\"attempted\":{},\"failed\":{},\
             \"write_ack_p50_ms\":{},\"restart_after_kill_s\":{}",
            self.workload.name,
            self.seed,
            e.failed == 0,
            self.scale,
            self.triples,
            env.connections,
            self.workload.paced_rps,
            self.workload.sessions,
            self.distinct_reads,
            self.cycle_len,
            e.warm_requests,
            e.paced_reads,
            e.paced_writes,
            e.saturation_ok,
            e.sched_late_share,
            e.redials,
            setups.join(","),
            e.failed as f64 / e.attempted.max(1) as f64,
            e.attempted,
            e.failed,
            optional(e.write_ack_p50_ms),
            optional(e.restart_s),
        );
        for ((name, _), value) in END_TO_END.iter().zip(self.end_to_end()) {
            out.push_str(&format!(",\"{name}\":{value}"));
        }
        out.push('}');
        if let Some(layers) = &self.layers {
            let fields: Vec<String> = layers
                .iter()
                .map(|(name, value)| format!("\"{name}\":{value}"))
                .collect();
            out.push_str(&format!(",\"per_layer\":{{{}}}", fields.join(",")));
        }
        out.push('}');
        out
    }
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The bound of every end-to-end metric, from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = match m.get("bound") {
                Some(Json::Number(n)) => Some(*n),
                _ => None,
            };
            let lower = m.get("better").and_then(Json::as_str).map(|b| b == "lower");
            match (name, bound, lower) {
                (Some(name), Some(bound), Some(lower)) => Ok((name.to_string(), bound, lower)),
                _ => Err("BENCHMARK.json: an end_to_end entry lacks name, bound or better".into()),
            }
        })
        .collect()
}

/// Run the end-to-end set twice and compare the two against the bounds.
fn aa(
    env: &Env,
    datasets: &mut Datasets,
    args: &Args,
    workloads: &[&'static Workload],
) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sets = Vec::new();
    for pass in 1..=2 {
        eprintln!("A/A pass {pass}");
        let set = workloads
            .iter()
            .map(|w| measure(env, datasets, w, args, false))
            .collect::<Result<Vec<_>, _>>()?;
        sets.push(set);
    }
    let mut agree = true;
    println!(
        "{:<16} {:<15} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        agree &= a.e2e.failed == 0 && b.e2e.failed == 0;
        for (((name, _), first), second) in
            END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end())
        {
            let (_, bound, lower) = bounds
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            // How much worse the worse of the two is, as a share of the
            // better: same-code runs must stay inside the bound whichever
            // came first.
            let (better, worse) = if (first < second) == *lower {
                (first, second)
            } else {
                (second, first)
            };
            let worse_by = (worse - better).abs() / better.abs();
            let within = worse_by <= *bound;
            agree &= within;
            println!(
                "{:<16} {:<15} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%{}",
                a.workload.name,
                name,
                first,
                second,
                worse_by * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
        println!(
            "{:<16} {:<15} {:>12} {:>12}",
            a.workload.name, "failed", a.e2e.failed, b.e2e.failed
        );
    }
    Ok(agree)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let env = environment(args.smoke)?;
    let mut datasets = Datasets::default();
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    match args.command {
        Command::Single => {
            let workload = workloads[0];
            let measured = measure(&env, &mut datasets, workload, &args, args.trace)?;
            println!("{}", measured.result_line(args.trace));
            Ok(measured.e2e.failed == 0)
        }
        Command::Aa => aa(&env, &mut datasets, &args, &workloads),
        Command::Run | Command::Trace => {
            let mut reports = Vec::new();
            let mut correct = true;
            for workload in workloads {
                if matches!(args.command, Command::Run) {
                    let measured = measure(&env, &mut datasets, workload, &args, false)?;
                    correct &= measured.e2e.failed == 0;
                    reports.push(measured.report_json(&env));
                }
                // Tracing is never on during the end-to-end run above.
                let traced = measure(&env, &mut datasets, workload, &args, true)?;
                correct &= traced.e2e.failed == 0;
                reports.push(traced.report_json(&env));
            }
            let report = format!(
                "{{\"commit\":\"{}\",\"nproc\":{},\"seconds\":{},\"runs\":[\n{}\n]}}",
                git_commit(),
                env.nproc,
                args.seconds,
                reports.join(",\n")
            );
            let path = env.out.join("report.json");
            std::fs::write(&path, &report)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("{report}");
            Ok(correct)
        }
    }
}

fn main() -> ExitCode {
    // Every server is owned by a value on `real_main`'s stack, so it is
    // killed and reaped before the exit code is returned.
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness or agreement check failed");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names what this binary prints, with its units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap();
        let json = parse_json(&text).unwrap();
        let names_units = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_units("end_to_end"), end_to_end);
        let per_layer = names_units("per_layer");
        for (name, unit) in &per_layer {
            assert_eq!(unit, unit_of(name), "{name}");
        }
        let listed: Vec<&str> = per_layer.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(listed, PER_LAYER);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let known: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, known);
        match json.get("run_seconds") {
            Some(Json::Number(n)) => assert_eq!(*n, RUN_SECONDS),
            other => panic!("run_seconds: {other:?}"),
        }
    }
}
