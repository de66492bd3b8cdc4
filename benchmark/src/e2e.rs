//! One end-to-end run of one workload against a real `elinda-serve`.

use crate::client::{get_once, Connection, SERVED_BY};
use crate::load::{Load, Pace, Sample};
use crate::process::{run_to_completion, Server};
use crate::stats::{median, percentile, sorted};
use crate::workload::{instance_iri, list_inserted_sparql, Kind, Pool, Workload};
use elinda_endpoint::json::parse_json;
use elinda_server::percent_encode;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where the binaries are and how wide the load is.
pub struct Env {
    /// The `elinda-serve` binary.
    pub serve: PathBuf,
    /// The `elinda-load` binary.
    pub loader: PathBuf,
    /// Directory for store, log, trace and failure files.
    pub out: PathBuf,
    /// Upper limit on `--scale`, for `--smoke`.
    pub max_scale: f64,
    /// Processors available to this process.
    pub nproc: usize,
    /// Connections of the warm-up and the paced phase, and server
    /// `--workers`.
    pub connections: usize,
}

impl Env {
    /// `--scale` of the dataset a workload is served from.
    pub fn scale_of(&self, workload: &Workload) -> f64 {
        workload.scale.min(self.max_scale)
    }
}

/// Connections of the saturation phase per server worker. With one
/// request in flight per worker the closed loop measures round-trip
/// time, which on a shared sandbox follows thread placement; a backlog
/// at every worker measures what the server can do.
pub const SATURATION_FANOUT: usize = 4;

/// Lengths of the three phases of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Closed loop, untimed: fills caches and lazy indexes.
    pub warm: Duration,
    /// Open loop at the workload's fixed rate.
    pub paced: Duration,
    /// Closed loop.
    pub saturation: Duration,
}

impl Phases {
    /// Split a run of `seconds` 2 : 9 : 9 into warm-up, paced phase and
    /// saturation phase. Throughput on a shared machine is the noisier
    /// measurement, so it gets as long as the latencies.
    pub fn split(seconds: f64) -> Phases {
        let part = |share: f64| Duration::from_secs_f64(seconds * share / 20.0);
        Phases {
            warm: part(2.0),
            paced: part(9.0),
            saturation: part(9.0),
        }
    }
}

/// Equal time slices the saturation phase is cut into; the median
/// slice's throughput is reported, so that a burst of interference on a
/// shared machine, or one fold of the write overlay, moves a slice or
/// two and not the metric. (Latency percentiles are taken over the whole
/// paced phase: sliced, they were no steadier and had fewer samples.)
pub const THROUGHPUT_SLICES: u32 = 9;

/// Correct answers per second in the median slice of a phase.
fn median_slice_throughput(correct: &[&Sample], phase: Duration) -> f64 {
    let slice = phase / THROUGHPUT_SLICES;
    let per_slice: Vec<f64> = (0..THROUGHPUT_SLICES)
        .map(|n| {
            let inside = correct
                .iter()
                .filter(|s| s.done >= slice * n && s.done < slice * (n + 1))
                .count();
            inside as f64 / slice.as_secs_f64()
        })
        .collect();
    median(&per_slice)
}

/// What one end-to-end run measured.
pub struct EndToEnd {
    /// Median read latency from due time, paced phase, ms.
    pub p50_ms: f64,
    /// 95th percentile of the same samples, ms.
    pub p95_ms: f64,
    /// Correct answers per second, saturation phase, median slice.
    pub throughput_rps: f64,
    /// Median over the set-ups of spawn → first 200 on `/health`, s.
    pub setup_s: f64,
    /// Every set-up time, s.
    pub setups_s: Vec<f64>,
    /// Server `VmHWM` at the end of the load, MB.
    pub rss_mb: f64,
    /// Median `POST /update` latency from due time, paced phase, ms.
    pub write_ack_p50_ms: Option<f64>,
    /// Restart after SIGKILL on the same store and log: spawn → first
    /// 200 on `/health`, s.
    pub restart_s: Option<f64>,
    /// Requests sent in the paced and the saturation phase, plus the
    /// checks after the run.
    pub attempted: u64,
    /// Errors, non-200, degraded, wrong bodies, lost or resurrected writes.
    pub failed: u64,
    /// Read samples behind `p50_ms` and `p95_ms`.
    pub paced_reads: usize,
    /// Write samples behind `write_ack_p50_ms`.
    pub paced_writes: usize,
    /// Answers counted in `throughput_rps`.
    pub saturation_ok: usize,
    /// Requests of the warm-up.
    pub warm_requests: usize,
    /// Share of paced requests sent more than 1 ms after they were due.
    pub sched_late_share: f64,
    /// Connections reopened.
    pub redials: u64,
    /// Share of answered reads by `X-Elinda-Served-By`, paced and
    /// saturation phase, in [`SERVED_BY`] order.
    pub served_by_share: [f64; SERVED_BY.len()],
    /// Share of property-chart reads served `direct`: the stale window.
    pub stale_read_share: f64,
    /// Paced-phase latency by request kind: samples, p50 ms, p95 ms.
    pub by_kind: Vec<(Kind, usize, f64, f64)>,
}

/// The flags `elinda-serve` gets for a workload.
fn server_args(env: &Env, workload: &Workload, dirs: Option<(&Path, &Path)>) -> Vec<String> {
    let mut args = vec![
        "--scale".to_string(),
        env.scale_of(workload).to_string(),
        "--workers".into(),
        env.connections.to_string(),
        "--event-loop".into(),
    ];
    if !workload.cache {
        args.extend(["--cache-entries".to_string(), "0".into()]);
    }
    if let Some((store, wal)) = dirs {
        args.extend([
            "--store-dir".to_string(),
            store.display().to_string(),
            "--wal".into(),
            wal.display().to_string(),
            "--wal-sync".into(),
            "always".into(),
        ]);
    }
    args
}

/// A directory of the benchmark's own, emptied.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// The instances `write-mix` inserted that the server lists now.
fn listed_instances(addr: &str) -> Result<HashSet<String>, String> {
    let path = format!("/sparql?query={}", percent_encode(&list_inserted_sparql()));
    let (status, body) = get_once(addr, &path).map_err(|e| format!("listing inserts: {e}"))?;
    if status != 200 {
        return Err(format!("listing inserts: status {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let json = parse_json(&text).map_err(|e| format!("listing inserts: {e:?}"))?;
    let bindings = json
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(|b| b.as_array())
        .ok_or("listing inserts: no bindings")?;
    Ok(bindings
        .iter()
        .filter_map(|row| row.get("s")?.get("value")?.as_str())
        .map(str::to_string)
        .collect())
}

/// Acked inserts that are not listed plus acked deletes that are.
fn durability_violations(addr: &str, seed: u64, load: &Load<'_>) -> Result<u64, String> {
    let listed = listed_instances(addr)?;
    let writes = load.shared.writes.lock().expect("write log lock");
    let lost = writes
        .inserted
        .difference(&writes.deleted)
        .filter(|n| !listed.contains(&instance_iri(seed, **n)))
        .count();
    let resurrected = writes
        .deleted
        .iter()
        .filter(|n| listed.contains(&instance_iri(seed, **n)))
        .count();
    Ok((lost + resurrected) as u64)
}

/// Run `workload` once: set the server up `setups` times, load it
/// through the three phases, check every answer.
pub fn run(
    env: &Env,
    workload: &Workload,
    pool: &Pool,
    seed: u64,
    phases: Phases,
    setups: usize,
) -> Result<(EndToEnd, Server), String> {
    let durable = workload.write_every.is_some();
    let dirs = durable.then(|| {
        (
            env.out.join(format!("store-{}", workload.name)),
            env.out.join(format!("wal-{}", workload.name)),
        )
    });
    if let Some((store, wal)) = &dirs {
        fresh_dir(store)?;
        fresh_dir(wal)?;
        run_to_completion(
            &env.loader,
            &[
                "--out".to_string(),
                store.display().to_string(),
                "--scale".into(),
                env.scale_of(workload).to_string(),
            ],
        )?;
    }
    let args = server_args(
        env,
        workload,
        dirs.as_ref().map(|(s, w)| (s.as_path(), w.as_path())),
    );

    // Every set-up is a cold start of the real binary; all but the last
    // are killed as soon as they answer.
    let mut setups_s = Vec::new();
    let mut server = Server::spawn(&env.serve, &args)?;
    setups_s.push(server.setup.as_secs_f64());
    for _ in 1..setups {
        drop(server);
        server = Server::spawn(&env.serve, &args)?;
        setups_s.push(server.setup.as_secs_f64());
    }

    let saturating = env.connections * SATURATION_FANOUT;
    let mut load = Load::new(pool, &server.addr, saturating, !durable);
    let warm = load.phase(Pace::Closed, phases.warm, env.connections);
    let paced = load.phase(
        Pace::Open {
            rps: workload.paced_rps,
        },
        phases.paced,
        env.connections,
    );
    let saturation = load.phase(Pace::Closed, phases.saturation, saturating);
    let rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM from /proc")?;

    let mut attempted = (paced.len() + saturation.len()) as u64;
    let timed = || paced.iter().chain(&saturation);
    let mut failed = timed().filter(|s| !s.ok).count() as u64;
    let mut restart_s = None;
    if durable {
        // Acked writes must be visible now, and again after a SIGKILL
        // and a restart from the same store directory and log.
        attempted += 2;
        failed += durability_violations(&server.addr, seed, &load)?;
        drop(server);
        server = Server::spawn(&env.serve, &args)?;
        restart_s = Some(server.setup.as_secs_f64());
        failed += durability_violations(&server.addr, seed, &load)?;
    }
    save_failures(env, workload, &load)?;

    let latencies = |write: bool| {
        sorted(
            paced
                .iter()
                .filter(|s| s.kind.is_write() == write)
                .map(|s| s.latency_ms)
                .collect(),
        )
    };
    let (reads, writes) = (latencies(false), latencies(true));
    let correct: Vec<&Sample> = saturation.iter().filter(|s| s.ok).collect();
    let answered_reads: Vec<&Sample> = timed()
        .filter(|s| !s.kind.is_write() && s.served_by < SERVED_BY.len())
        .collect();
    let mut served_by_share = [0.0; SERVED_BY.len()];
    for (tier, share) in served_by_share.iter_mut().enumerate() {
        let served = answered_reads
            .iter()
            .filter(|s| s.served_by == tier)
            .count();
        *share = served as f64 / answered_reads.len().max(1) as f64;
    }
    let direct = SERVED_BY.iter().position(|s| *s == "direct");
    let property_charts: Vec<&&Sample> = answered_reads
        .iter()
        .filter(|s| s.kind.is_property_chart())
        .collect();
    let stale_read_share = property_charts
        .iter()
        .filter(|s| Some(s.served_by) == direct)
        .count() as f64
        / property_charts.len().max(1) as f64;
    let saturation_ok = correct
        .iter()
        .filter(|s| s.done < phases.saturation)
        .count();
    let by_kind = Kind::ALL
        .into_iter()
        .filter_map(|kind| {
            let of_kind = sorted(
                paced
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.latency_ms)
                    .collect(),
            );
            (!of_kind.is_empty()).then(|| {
                (
                    kind,
                    of_kind.len(),
                    percentile(&of_kind, 50.0),
                    percentile(&of_kind, 95.0),
                )
            })
        })
        .collect();
    let result = EndToEnd {
        p50_ms: percentile(&reads, 50.0),
        p95_ms: percentile(&reads, 95.0),
        throughput_rps: median_slice_throughput(&correct, phases.saturation),
        setup_s: median(&setups_s),
        setups_s,
        rss_mb,
        write_ack_p50_ms: (!writes.is_empty()).then(|| percentile(&writes, 50.0)),
        restart_s,
        attempted,
        failed,
        paced_reads: reads.len(),
        paced_writes: writes.len(),
        saturation_ok,
        warm_requests: warm.len(),
        sched_late_share: paced.iter().filter(|s| s.late).count() as f64
            / paced.len().max(1) as f64,
        redials: load.redials(),
        served_by_share,
        stale_read_share,
        by_kind,
    };
    Ok((result, server))
}

/// Write the first failed exchanges under `failures/`.
fn save_failures(env: &Env, workload: &Workload, load: &Load<'_>) -> Result<(), String> {
    let failures = load.shared.failures.lock().expect("failure log lock");
    if failures.1.is_empty() {
        return Ok(());
    }
    let dir = env.out.join("failures");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for failure in &failures.1 {
        let path = dir.join(format!("{}-{}.txt", workload.name, failure.index));
        let mut text = format!(
            "request {} of {}: {}\n{}\n--- body received ---\n",
            failure.index, workload.name, failure.what, failure.request
        );
        text.push_str(&String::from_utf8_lossy(&failure.body));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!(
        "{}: {} failed exchanges, the first {} saved under {}",
        workload.name,
        failures.0,
        failures.1.len(),
        dir.display()
    );
    Ok(())
}

/// Mean round trip of `n` `GET /health` on one keep-alive connection,
/// or on a connection each when the front-end closes after every answer.
pub fn health_rtt_us(addr: &str, n: usize) -> Result<f64, String> {
    let wire = b"GET /health HTTP/1.1\r\nHost: bench\r\n\r\n";
    let mut connection = Connection::new(addr);
    let start = Instant::now();
    for _ in 0..n {
        let reply = connection
            .exchange(wire)
            .map_err(|e| format!("/health probe: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/health probe: status {}", reply.status));
        }
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// [`health_rtt_us`] against a server started without `--event-loop`.
pub fn blocking_health_rtt_us(env: &Env, n: usize) -> Result<f64, String> {
    let args = [
        "--scale".to_string(),
        "1".into(),
        "--workers".into(),
        env.connections.to_string(),
    ];
    let server = Server::spawn(&env.serve, &args)?;
    health_rtt_us(&server.addr, n)
}
