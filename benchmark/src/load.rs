//! The load phases: warm-up and saturation run closed loop, the paced
//! phase runs an open-loop schedule. One thread per connection, one
//! request in flight per connection.

use crate::client::{Connection, SERVED_BY};
use crate::workload::{Kind, Op, Pool};
use elinda_endpoint::json::parse_json;
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request sent more than this after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// Failed exchanges whose bodies are kept for `failures/`.
const KEPT_FAILURES: usize = 5;

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each connection sends its next request when the previous answer
    /// is complete.
    Closed,
    /// Request `n` of the phase is due `n / rps` seconds after the phase
    /// starts, whatever the server does.
    Open {
        /// Requests per second.
        rps: f64,
    },
}

/// One finished exchange.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What was asked.
    pub kind: Kind,
    /// Open loop: answer complete minus due time. Closed loop: answer
    /// complete minus send time. Milliseconds.
    pub latency_ms: f64,
    /// Sent more than 1 ms after it was due.
    pub late: bool,
    /// A 200 with the right body, not degraded.
    pub ok: bool,
    /// Index into [`SERVED_BY`], or `SERVED_BY.len()` for none.
    pub served_by: usize,
    /// When the answer was complete, from the start of the phase.
    pub done: Duration,
}

/// Latency and lateness of one open-loop exchange. The clock starts when
/// the request was due, so a generator or server stall that delays the
/// send is charged to the request.
pub fn account(due: Duration, sent: Duration, done: Duration) -> (f64, bool) {
    (
        done.saturating_sub(due).as_secs_f64() * 1e3,
        sent.saturating_sub(due) > LATE,
    )
}

/// A wrong or failed answer, kept for inspection.
pub struct Failure {
    /// Stream index of the request.
    pub index: u64,
    /// What went wrong.
    pub what: String,
    /// The request text.
    pub request: String,
    /// The body received, if any.
    pub body: Vec<u8>,
}

/// Which writes the server acknowledged.
#[derive(Default)]
pub struct WriteLog {
    /// Inserts answered, with or without a 200.
    pub insert_done: HashSet<u64>,
    /// Inserts answered 200.
    pub inserted: HashSet<u64>,
    /// Inserts whose delete was answered 200.
    pub deleted: HashSet<u64>,
}

/// What the connections share during a run.
pub struct Shared<'a> {
    pool: &'a Pool,
    /// Read-only workloads compare every body with the expected bytes;
    /// with writes in the stream the charts change, and a body only has
    /// to decode.
    exact_bodies: bool,
    /// Next stream index.
    cursor: Mutex<u64>,
    /// Acknowledged writes.
    pub writes: Mutex<WriteLog>,
    /// Exchanges that failed, all counted, the first few kept.
    pub failures: Mutex<(u64, Vec<Failure>)>,
}

/// A set of connections replaying one pool against one server.
pub struct Load<'a> {
    /// State shared by the connections.
    pub shared: Shared<'a>,
    connections: Vec<Connection>,
}

impl<'a> Load<'a> {
    /// `connections` connections to `addr`, replaying `pool` from its
    /// first request.
    pub fn new(pool: &'a Pool, addr: &str, connections: usize, exact_bodies: bool) -> Self {
        Load {
            shared: Shared {
                pool,
                exact_bodies,
                cursor: Mutex::new(0),
                writes: Mutex::new(WriteLog::default()),
                failures: Mutex::new((0, Vec::new())),
            },
            connections: (0..connections).map(|_| Connection::new(addr)).collect(),
        }
    }

    /// Connections reopened so far.
    pub fn redials(&self) -> u64 {
        self.connections.iter().map(|c| c.redials).sum()
    }

    /// Run one phase of `length` on the first `connections` connections
    /// and return its samples.
    pub fn phase(&mut self, pace: Pace, length: Duration, connections: usize) -> Vec<Sample> {
        let shared = &self.shared;
        let base = *shared.cursor.lock().expect("cursor lock");
        let start = Instant::now();
        std::thread::scope(|scope| {
            let workers: Vec<_> = self.connections[..connections]
                .iter_mut()
                .map(|connection| {
                    scope.spawn(move || shared.worker(connection, pace, base, start, length))
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("load thread"))
                .collect()
        })
    }
}

impl Shared<'_> {
    fn worker(
        &self,
        connection: &mut Connection,
        pace: Pace,
        base: u64,
        start: Instant,
        length: Duration,
    ) -> Vec<Sample> {
        let mut samples = Vec::new();
        loop {
            // Claim the next request under the lock, or stop without
            // claiming: no stream index is skipped, so every delete
            // finds its insert.
            let (index, due) = {
                let mut cursor = self.cursor.lock().expect("cursor lock");
                let due = match pace {
                    Pace::Closed => start.elapsed(),
                    Pace::Open { rps } => Duration::from_secs_f64((*cursor - base) as f64 / rps),
                };
                if due >= length {
                    break;
                }
                *cursor += 1;
                (*cursor - 1, due)
            };
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let op = self.pool.op(index);
            if let Op::Write {
                kind: Kind::Delete,
                target,
                ..
            } = &op
            {
                // The insert went out 9 writes ago; wait in the unlikely
                // case that its answer is still outstanding.
                while !self.writes().insert_done.contains(target) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let sent = start.elapsed();
            let result = connection.exchange(op.wire());
            let done = start.elapsed();
            let (latency_ms, late) = match pace {
                Pace::Closed => account(sent, sent, done),
                Pace::Open { .. } => account(due, sent, done),
            };
            let (ok, served_by) = match result {
                Ok(reply) => {
                    let body = connection.body(&reply);
                    let verdict = self.judge(&op, reply.status, reply.served_by, body);
                    if let Err(what) = &verdict {
                        self.record_failure(index, what.clone(), &op, body);
                    }
                    (verdict.is_ok(), reply.served_by)
                }
                Err(e) => {
                    self.record_failure(index, format!("transport error: {e}"), &op, &[]);
                    (false, SERVED_BY.len())
                }
            };
            if let Op::Write { kind, target, .. } = &op {
                let mut writes = self.writes();
                match kind {
                    Kind::Insert => {
                        writes.insert_done.insert(*target);
                        if ok {
                            writes.inserted.insert(*target);
                        }
                    }
                    _ if ok => {
                        writes.deleted.insert(*target);
                    }
                    _ => {}
                }
            }
            samples.push(Sample {
                kind: op.kind(),
                latency_ms,
                late,
                ok,
                served_by,
                done,
            });
        }
        samples
    }

    fn writes(&self) -> std::sync::MutexGuard<'_, WriteLog> {
        self.writes.lock().expect("write log lock")
    }

    /// Is this the answer a correct server gives?
    fn judge(&self, op: &Op<'_>, status: u16, served_by: usize, body: &[u8]) -> Result<(), String> {
        if status != 200 {
            return Err(format!("status {status}"));
        }
        if SERVED_BY.get(served_by) == Some(&"degraded") {
            return Err("served degraded".into());
        }
        match op {
            Op::Read(read) if self.exact_bodies => {
                if body != read.expected.as_bytes() {
                    return Err("body differs from the reference endpoint's".into());
                }
            }
            _ => {
                let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
                parse_json(text).map_err(|e| format!("body is not JSON: {e:?}"))?;
            }
        }
        Ok(())
    }

    fn record_failure(&self, index: u64, what: String, op: &Op<'_>, body: &[u8]) {
        let mut failures = self.failures.lock().expect("failure log lock");
        failures.0 += 1;
        if failures.1.len() < KEPT_FAILURES {
            let request = match op {
                Op::Read(read) => read.query.clone(),
                Op::Write { text, .. } => text.clone(),
            };
            failures.1.push(Failure {
                index,
                what,
                request,
                body: body.to_vec(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_even_when_the_send_is_late() {
        let ms = Duration::from_millis;
        // Due at 100 ms, the generator got to it at 130 ms, the answer
        // was complete at 150 ms: the user waited 50 ms, not 20.
        let (latency, late) = account(ms(100), ms(130), ms(150));
        assert_eq!(latency, 50.0);
        assert!(late);
        // Sent on time.
        let (latency, late) = account(ms(100), ms(100) + Duration::from_micros(200), ms(104));
        assert_eq!(latency, 4.0);
        assert!(!late);
        // Exactly 1 ms is not yet late.
        assert!(!account(ms(100), ms(101), ms(102)).1);
        // A closed loop charges from the send.
        assert_eq!(account(ms(130), ms(130), ms(150)).0, 20.0);
    }
}
