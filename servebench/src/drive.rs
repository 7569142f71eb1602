//! The closed-loop client: `threads` connections, each sending its
//! next request only after the previous answer arrived, so throughput
//! is what the server sustains, never an offered rate.

use crate::gen::Req;
use crate::wire::{Conn, WireError};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into the request pool.
    pub idx: usize,
    /// Completion time, nanoseconds after the loop started.
    pub done_ns: u64,
    /// Client-observed latency (connect included on fresh connections).
    pub latency_ns: u64,
    /// Time spent in `connect()` (0 when the connection was reused).
    pub connect_ns: u64,
}

/// What a closed-loop pass observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Completed requests (answered, whatever the answer).
    pub samples: Vec<Sample>,
    /// Requests started.
    pub attempted: u64,
    /// Answers whose status or body differs from the reference.
    pub mismatches: u64,
    /// Answers reporting an admission-soundness violation.
    pub violations: u64,
    /// `connect()` failures (port exhaustion, refusal, …).
    pub connect_failures: u64,
    /// Exchanges that failed after connecting.
    pub io_failures: u64,
    /// The first few failures, for the log.
    pub first_errors: Vec<String>,
    /// Wall time of the pass.
    pub wall: Duration,
}

impl Outcome {
    /// Every request that did not end in the expected answer.
    pub fn failed(&self) -> u64 {
        self.mismatches + self.violations + self.connect_failures + self.io_failures
    }
}

/// How a pass connects.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Client threads, one connection each at a time.
    pub threads: usize,
    /// Reuse each thread's connection (else one fresh connection per
    /// request).
    pub keep_alive: bool,
    /// Stop once every pool entry was sent once.
    pub unique: bool,
    /// Stop issuing requests after this long.
    pub duration: Duration,
}

/// Runs one closed-loop pass of `reqs` (pre-encoded as `wire`) against
/// `addr`, checking every answer.
pub fn closed_loop(addr: SocketAddr, reqs: &[Req], wire: &[Vec<u8>], plan: Plan) -> Outcome {
    closed_loop_counted(addr, reqs, wire, plan, &AtomicUsize::new(0))
}

/// [`closed_loop`], bumping `completed` as answers arrive so a
/// monitor can act on progress while the pass runs.
pub fn closed_loop_counted(
    addr: SocketAddr,
    reqs: &[Req],
    wire: &[Vec<u8>],
    plan: Plan,
    completed: &AtomicUsize,
) -> Outcome {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Outcome::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..plan.threads.max(1) {
            s.spawn(|| {
                let local = client_thread(addr, reqs, wire, plan, &next, completed, start);
                let mut m = merged.lock().unwrap_or_else(|e| e.into_inner());
                m.samples.extend(local.samples);
                m.attempted += local.attempted;
                m.mismatches += local.mismatches;
                m.violations += local.violations;
                m.connect_failures += local.connect_failures;
                m.io_failures += local.io_failures;
                for e in local.first_errors {
                    if m.first_errors.len() < 5 {
                        m.first_errors.push(e);
                    }
                }
            });
        }
    });
    let mut out = merged.into_inner().unwrap_or_else(|e| e.into_inner());
    out.wall = start.elapsed();
    out.samples.sort_by_key(|s| s.done_ns);
    out
}

fn client_thread(
    addr: SocketAddr,
    reqs: &[Req],
    wire: &[Vec<u8>],
    plan: Plan,
    next: &AtomicUsize,
    completed: &AtomicUsize,
    start: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let mut conn: Option<Conn> = None;
    let note = |out: &mut Outcome, msg: String| {
        if out.first_errors.len() < 5 {
            out.first_errors.push(msg);
        }
    };
    while start.elapsed() < plan.duration {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if plan.unique && i >= reqs.len() {
            break;
        }
        let idx = i % reqs.len();
        out.attempted += 1;
        let t0 = Instant::now();
        let mut connect_ns = 0;
        let c = match conn.take() {
            Some(c) => c,
            None => match Conn::connect(addr) {
                Ok(c) => {
                    connect_ns = t0.elapsed().as_nanos() as u64;
                    c
                }
                Err(e) => {
                    if matches!(e, WireError::Connect(_)) {
                        out.connect_failures += 1;
                    } else {
                        out.io_failures += 1;
                    }
                    note(&mut out, format!("request {idx}: {e}"));
                    continue;
                }
            },
        };
        let mut c = c;
        match c.round_trip(&wire[idx]) {
            Ok(resp) => {
                let latency_ns = t0.elapsed().as_nanos() as u64;
                let r = &reqs[idx];
                if resp.body.contains("\"violation\"") {
                    out.violations += 1;
                    note(&mut out, format!("request {idx}: violation {}", resp.body));
                } else if !r.expect.matches(resp.status, &resp.body) {
                    out.mismatches += 1;
                    note(
                        &mut out,
                        format!(
                            "request {idx} ({}): expected {} {:?}…{:?}, got {} {}",
                            r.tag,
                            r.expect.status,
                            r.expect.prefix,
                            r.expect.suffix,
                            resp.status,
                            resp.body
                        ),
                    );
                }
                completed.fetch_add(1, Ordering::Relaxed);
                out.samples.push(Sample {
                    idx,
                    done_ns: start.elapsed().as_nanos() as u64,
                    latency_ns,
                    connect_ns,
                });
                if plan.keep_alive {
                    conn = Some(c);
                }
            }
            Err(e) => {
                out.io_failures += 1;
                note(&mut out, format!("request {idx}: {e}"));
            }
        }
    }
    out
}

/// Pre-encodes a pool for the wire.
pub fn encode_all(reqs: &[Req], keep_alive: bool) -> Vec<Vec<u8>> {
    reqs.iter()
        .map(|r| crate::wire::encode("POST", r.path, &r.body, !keep_alive))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Expect;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// A stand-in server that answers every request after `delay`.
    fn slow_server(delay: Duration) -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        std::thread::spawn(move || {
            for s in l.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut r = BufReader::new(s.try_clone().unwrap());
                    let mut w = s;
                    loop {
                        let mut len = 0usize;
                        loop {
                            let mut line = String::new();
                            if r.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            let t = line.trim();
                            if t.is_empty() {
                                break;
                            }
                            if let Some(v) = t.strip_prefix("content-length: ") {
                                len = v.parse().unwrap();
                            }
                        }
                        let mut body = vec![0u8; len];
                        r.read_exact(&mut body).unwrap();
                        std::thread::sleep(delay);
                        let out = "{\"status\":\"ok\"}";
                        let msg = format!(
                            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{out}",
                            out.len()
                        );
                        if w.write_all(msg.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn pool() -> Vec<Req> {
        vec![Req {
            path: "/v1/query",
            body: "{}".into(),
            tag: "t",
            expect: Expect {
                status: 200,
                prefix: String::new(),
                suffix: "\"ok\"}".into(),
            },
        }]
    }

    /// Throughput is measured, not configured: halving the service
    /// time roughly doubles it, and nothing in the plan names a rate.
    #[test]
    fn throughput_tracks_service_time_not_a_generator_constant() {
        let reqs = pool();
        let wire = encode_all(&reqs, true);
        let plan = Plan {
            threads: 2,
            keep_alive: true,
            unique: false,
            duration: Duration::from_millis(600),
        };
        let fast = closed_loop(slow_server(Duration::from_millis(5)), &reqs, &wire, plan);
        let slow = closed_loop(slow_server(Duration::from_millis(10)), &reqs, &wire, plan);
        assert_eq!(fast.failed() + slow.failed(), 0, "{:?}", fast.first_errors);
        let ratio = fast.samples.len() as f64 / slow.samples.len() as f64;
        assert!((1.4..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mismatches_and_unique_pools_are_counted() {
        let mut reqs = pool();
        reqs[0].expect.status = 201;
        let wire = encode_all(&reqs, false);
        let plan = Plan {
            threads: 1,
            keep_alive: false,
            unique: true,
            duration: Duration::from_secs(5),
        };
        let out = closed_loop(slow_server(Duration::ZERO), &reqs, &wire, plan);
        assert_eq!((out.attempted, out.mismatches), (1, 1));
    }
}
