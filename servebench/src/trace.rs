//! The traced run: per-layer attribution of one workload.
//!
//! Three passes over the same generated pool:
//!
//! 1. an in-process `recdb_serve::Server` with no recorder, driven by
//!    one closed-loop client — the untraced baseline latency;
//! 2. the same, under a `recdb_obs::InMemoryRecorder`, so the server's
//!    own `serve.request.ns` and `serve.stage.*.ns` spans can be set
//!    against client-observed time (`unattributed_ms`), with
//!    per-class latencies on the mix;
//! 3. a single-threaded replay of a fixed prefix of the pool through
//!    the public stage functions the server calls — HTTP framing on
//!    in-memory buffers, JSON and protocol decode, the RA front end,
//!    `admit`, VM compile and verify, canonicalization and the result
//!    cache, the scheduled executor — with benchmark-side timers
//!    around each call and a `VmBackend` wrapper timing every value op.
//!
//! Counts and ratios come from the replay only, so they repeat exactly
//! for a given seed; times come from wherever they are measured.

use crate::drive::{closed_loop, encode_all, Outcome, Plan};
use crate::gen::{Req, Workload, MIX_TAGS};
use crate::spec::OPS;
use crate::stats::quantile;
use crate::{e2e, sys, Metric, Outcome as RunOutcome};
use recdb_analyze::CostEnv;
use recdb_core::{Elem, Fuel};
use recdb_hsdb::HsDatabase;
use recdb_qlhs::{Dialect, FcfInterp, FinInterp, HsInterp, Permutation, RunError, Term, Val};
use recdb_serve::admit::{admit, Admission, AdmitLimits, AdmitOutcome, Plan as AdmPlan};
use recdb_serve::cache::{canonicalize_finite, CachedResult, ResultCache};
use recdb_serve::exec::{run_scheduled, Budget, ExecEnd, GuardEval};
use recdb_serve::http::{read_request, write_response, ReadOutcome};
use recdb_serve::json::{esc, parse};
use recdb_serve::proto::{build_hs, fcf_result_json, result_json, DbSpec, QueryRequest, RaRequest};
use recdb_serve::{ServeConfig, Server};
use recdb_vm::{
    compile, exec_plain, exec_scheduled, verify, LowerOpts, VmBackend, VmBudget, VmEnd, VmProg,
};
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Requests replayed through the stage functions: a fixed prefix of
/// the pool, so every count is a function of the seed alone.
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::MixKeepalive => 1024,
        Workload::AdmitUnique => 2000,
        Workload::ValueJoin | Workload::FuelLoop => 48,
    }
}

/// Runs the traced passes for `seconds` in total; the metrics come out
/// in manifest order.
pub fn run(w: Workload, reqs: &[Req], warmup: &[Req], seconds: f64) -> Result<RunOutcome, String> {
    let wire = encode_all(reqs, w.keep_alive());
    let plan = |share: f64| Plan {
        threads: 1,
        keep_alive: w.keep_alive(),
        unique: w.unique(),
        duration: Duration::from_secs_f64(seconds * share),
    };

    recdb_obs::uninstall();
    let untraced = in_process(reqs, &wire, warmup, plan(0.25), None)?;
    let rec = recdb_obs::InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    let traced = in_process(reqs, &wire, warmup, plan(0.5), Some(&rec));
    recdb_obs::uninstall();
    let traced = traced?;

    let mut replay = Replay::new();
    for r in warmup {
        replay.request(r, false);
    }
    replay.acc = Acc::default();
    let n = replay_len(w).min(reqs.len());
    let mut replay_failed = 0;
    let t0 = Instant::now();
    for r in &reqs[..n] {
        let (status, body) = replay.request(r, w.keep_alive());
        if !r.expect.matches(status, &body) || body.contains("\"violation\"") {
            replay_failed += 1;
            if replay_failed <= 3 {
                eprintln!("replay mismatch ({}): got {status} {body}", r.tag);
            }
        }
    }
    eprintln!(
        "trace: untraced pass {} requests, traced pass {}, replay {n} in {:.2}s",
        untraced.samples.len(),
        traced.samples.len(),
        t0.elapsed().as_secs_f64()
    );

    // Admission-soundness violations and work-bound overruns the
    // server counted (a violation body is already a mismatch).
    let overruns = rec.counter_value("serve.cost.overrun");
    if overruns > 0 {
        eprintln!("trace: serve.cost.overrun = {overruns}");
    }
    let mut metrics = client_metrics(reqs, &untraced, &traced, &rec);
    metrics.extend(replay.acc.metrics(n as u64));
    let order: Vec<String> = crate::spec::per_layer()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    metrics.sort_by_key(|m| order.iter().position(|o| *o == m.name));
    Ok(RunOutcome {
        attempted: untraced.attempted + traced.attempted + n as u64,
        failed: untraced.failed() + traced.failed() + replay_failed + overruns,
        metrics,
    })
}

/// One closed-loop pass against an in-process server, after the
/// warm-up (whose metrics are discarded).
fn in_process(
    reqs: &[Req],
    wire: &[Vec<u8>],
    warmup: &[Req],
    plan: Plan,
    rec: Option<&std::sync::Arc<recdb_obs::InMemoryRecorder>>,
) -> Result<Outcome, String> {
    let workers = sys::nproc().min(2);
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("in-process server: {e}"))?;
    let addr: SocketAddr = server.addr();
    e2e::warm(addr, warmup, workers)?;
    if let Some(r) = rec {
        r.reset();
    }
    let out = closed_loop(addr, reqs, wire, plan);
    server.shutdown();
    Ok(out)
}

fn p50_ms(samples: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = samples.map(|ns| ns as f64 / 1e6).collect();
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// Metrics from the two in-process passes.
fn client_metrics(
    reqs: &[Req],
    untraced: &Outcome,
    traced: &Outcome,
    rec: &recdb_obs::InMemoryRecorder,
) -> Vec<Metric> {
    let n = traced.samples.len() as u64;
    let mean_ms = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let client: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    let connects: Vec<f64> = traced
        .samples
        .iter()
        .filter(|s| s.connect_ns > 0)
        .map(|s| s.connect_ns as f64 / 1e6)
        .collect();
    let handled = rec.counter_value("serve.requests").max(1) as f64;
    let span_ms = |name: &str| rec.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6) / handled;
    let handler_ms = span_ms("serve.request.ns");
    let mut m = vec![
        Metric::new(
            "server.connect_ms",
            mean_ms(&connects),
            "ms",
            connects.len() as u64,
        ),
        Metric::new("unattributed_ms", mean_ms(&client) - handler_ms, "ms", n),
        Metric::new("serve.request_ms", handler_ms, "ms", handled as u64),
        Metric::new(
            "serve.stage.admit_us",
            span_ms("serve.stage.admit.ns") * 1e3,
            "us",
            n,
        ),
        Metric::new(
            "serve.stage.vm_us",
            span_ms("serve.stage.vm.ns") * 1e3,
            "us",
            n,
        ),
        Metric::new(
            "serve.stage.execute_us",
            span_ms("serve.stage.execute.ns") * 1e3,
            "us",
            n,
        ),
    ];
    for tag in MIX_TAGS {
        let lat: Vec<u64> = traced
            .samples
            .iter()
            .filter(|s| reqs[s.idx].tag == tag)
            .map(|s| s.latency_ns)
            .collect();
        m.push(Metric::new(
            format!("class.{tag}.p50_ms"),
            p50_ms(lat.iter().copied()),
            "ms",
            lat.len() as u64,
        ));
    }
    let overhead = p50_ms(traced.samples.iter().map(|s| s.latency_ns))
        - p50_ms(untraced.samples.iter().map(|s| s.latency_ns));
    m.push(Metric::new("trace.overhead_ms", overhead, "ms", n));
    m
}

// --- the replay ---

/// Per-layer accumulators (nanoseconds and counts) over the replay.
#[derive(Default)]
struct Acc {
    http_ns: u64,
    decode_ns: u64,
    render_ns: u64,
    ra_ns: u64,
    admit_ns: u64,
    admits: u64,
    rejects: u64,
    vm_ns: u64,
    vm_attempts: u64,
    vm_fallbacks: u64,
    canon_ns: u64,
    lookups: u64,
    hits: u64,
    bypasses: u64,
    exec_ns: u64,
    iterations: u64,
    fuel: u64,
    ops: OpStats,
}

/// Value-op timings from the [`Timed`] wrapper.
#[derive(Default)]
struct OpStats {
    ns: [u64; 8],
    count: [u64; 8],
    walker_ns: u64,
    tuples: u64,
}

impl Acc {
    fn metrics(&self, n: u64) -> Vec<Metric> {
        let per = |ns: u64| ns as f64 / 1e3 / n.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let op_ns: u64 = self.ops.ns.iter().sum::<u64>() + self.ops.walker_ns;
        let mut m = vec![
            Metric::new("http.frame_us", per(self.http_ns), "us", n),
            Metric::new("proto.decode_us", per(self.decode_ns), "us", n),
            Metric::new("proto.render_us", per(self.render_ns), "us", n),
            Metric::new("ra.compile_us", per(self.ra_ns), "us", n),
            Metric::new("admit.us", per(self.admit_ns), "us", n),
            Metric::new(
                "admit.reject_ratio",
                ratio(self.rejects, self.admits),
                "ratio",
                self.admits,
            ),
            Metric::new("vm.compile_verify_us", per(self.vm_ns), "us", n),
            Metric::new(
                "vm.fallback_ratio",
                ratio(self.vm_fallbacks, self.vm_attempts),
                "ratio",
                self.vm_attempts,
            ),
            Metric::new("cache.canonicalize_us", per(self.canon_ns), "us", n),
            Metric::new(
                "cache.hit_ratio",
                ratio(self.hits, self.lookups),
                "ratio",
                self.lookups,
            ),
            Metric::new(
                "cache.bypass_ratio",
                ratio(self.bypasses, self.lookups + self.bypasses),
                "ratio",
                self.lookups + self.bypasses,
            ),
            Metric::new(
                "exec.self_us",
                per(self.exec_ns.saturating_sub(op_ns)),
                "us",
                n,
            ),
            Metric::new(
                "exec.iterations_per_req",
                ratio(self.iterations, n),
                "count",
                n,
            ),
            Metric::new("exec.fuel_per_req", ratio(self.fuel, n), "count", n),
        ];
        for (i, op) in OPS.iter().enumerate() {
            m.push(Metric::new(
                format!("qlhs.op.{op}.us"),
                per(self.ops.ns[i]),
                "us",
                n,
            ));
            m.push(Metric::new(
                format!("qlhs.op.{op}.count"),
                ratio(self.ops.count[i], n),
                "count",
                n,
            ));
        }
        m.push(Metric::new(
            "qlhs.walker_eval.us",
            per(self.ops.walker_ns),
            "us",
            n,
        ));
        m.push(Metric::new(
            "qlhs.tuples_per_req",
            ratio(self.ops.tuples, n),
            "count",
            n,
        ));
        m
    }
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The replay's server state: the result cache and the `HsInterp`
/// shards, as one worker holds them.
struct Replay {
    cfg: ServeConfig,
    cache: ResultCache,
    hs: HashMap<String, HsInterp<'static>>,
    acc: Acc,
}

/// How the cache takes part in one request (the server's `CacheMode`).
enum Mode {
    Off,
    Bypass,
    Keyed {
        key: String,
        transport: Option<Permutation>,
    },
}

impl Replay {
    fn new() -> Replay {
        let cfg = ServeConfig::default();
        Replay {
            cache: ResultCache::new(4),
            cfg,
            hs: HashMap::new(),
            acc: Acc::default(),
        }
    }

    /// One request, bytes in, status and body out.
    fn request(&mut self, r: &Req, keep_alive: bool) -> (u16, String) {
        let bytes = crate::wire::encode("POST", r.path, &r.body, !keep_alive);
        let t = Instant::now();
        let req = match read_request(
            &mut BufReader::new(&bytes[..]),
            self.cfg.max_head,
            self.cfg.max_body,
        ) {
            Ok(ReadOutcome::Request(req)) => req,
            _ => return (400, "unreadable request".into()),
        };
        self.acc.http_ns += since(t);
        let (status, body) = match req.path.as_str() {
            "/v1/query" => self.query(&req.body),
            _ => self.ra(&req.body),
        };
        let t = Instant::now();
        let mut out = Vec::with_capacity(body.len() + 128);
        let _ = write_response(&mut out, status, &body, keep_alive);
        self.acc.http_ns += since(t);
        (status, body)
    }

    fn decode(&mut self, body: &[u8]) -> Result<recdb_serve::json::Json, (u16, String)> {
        let t = Instant::now();
        let j = std::str::from_utf8(body)
            .ok()
            .and_then(|s| parse(s).ok())
            .ok_or((400, "bad json".to_string()));
        self.acc.decode_ns += since(t);
        j
    }

    fn query(&mut self, body: &[u8]) -> (u16, String) {
        let json = match self.decode(body) {
            Ok(j) => j,
            Err(e) => return e,
        };
        let t = Instant::now();
        let req = QueryRequest::decode(&json);
        self.acc.decode_ns += since(t);
        match req {
            Ok(req) => self.execute(&req, String::new()),
            Err(e) => (400, e.0),
        }
    }

    /// The RA front end: schema, parse, typecheck, validate, rewrite,
    /// compile — then the ordinary query path.
    fn ra(&mut self, body: &[u8]) -> (u16, String) {
        let json = match self.decode(body) {
            Ok(j) => j,
            Err(e) => return e,
        };
        let t = Instant::now();
        let req = RaRequest::decode(&json);
        self.acc.decode_ns += since(t);
        let Ok(req) = req else {
            return (400, "bad ra request".into());
        };
        let t = Instant::now();
        let compiled = recdb_ra::RaSchema::parse(&req.schema)
            .map_err(|e| (400, e))
            .and_then(|schema| {
                let (prog, _spans) = recdb_ra::parse_ra_with_spans(&req.query).map_err(|e| {
                    (
                        422,
                        format!("{{\"status\":\"rejected\",\"error\":\"{}\"}}", esc(&e.msg)),
                    )
                })?;
                recdb_ra::typecheck(&prog, &schema)
                    .and_then(|_| recdb_ra::validate(&prog, &schema))
                    .and_then(|()| recdb_ra::optimize_program(&prog, &schema))
                    .and_then(|opt| recdb_ra::compile_program(&opt.program, &schema))
                    .map_err(|e| {
                        (
                            422,
                            format!("{{\"reasons\":[\"{}\"],\"status\":\"rejected\"}}", e.code),
                        )
                    })
            });
        let qreq = compiled.map(|c| {
            let attrs: Vec<String> = c.attrs.iter().map(|a| format!("\"{}\"", esc(a))).collect();
            let prog = c.prog.to_string();
            (
                QueryRequest {
                    tenant: req.tenant.clone(),
                    program: prog,
                    db: DbSpec::Finite(req.db.clone()),
                    fuel: req.fuel,
                    no_cache: req.no_cache,
                },
                format!("{{\"attrs\":[{}],", attrs.join(",")),
            )
        });
        self.acc.ra_ns += since(t);
        match qreq {
            Ok((q, prefix)) => self.execute(&q, prefix),
            Err(resp) => resp,
        }
    }

    fn execute(&mut self, req: &QueryRequest, prefix: String) -> (u16, String) {
        let dialect = req.db.dialect();
        let t = Instant::now();
        let Ok(schema) = req.db.schema() else {
            return (400, "bad schema".into());
        };
        let limits = AdmitLimits {
            fuel_default: self.cfg.fuel_default,
            fuel_max: self.cfg.fuel_max,
        };
        let admission = admit(&req.program, &schema, dialect, req.fuel, &limits);
        self.acc.admit_ns += since(t);
        self.acc.admits += 1;
        let adm = match admission {
            AdmitOutcome::Admitted(a) => a,
            AdmitOutcome::Rejected {
                reasons,
                diagnostics_json,
            } => {
                self.acc.rejects += 1;
                let t = Instant::now();
                let tags: Vec<String> = reasons.iter().map(|r| format!("\"{r}\"")).collect();
                let body = format!(
                    "{{\"diagnostics\":{diagnostics_json},\"reasons\":[{}],\"status\":\"rejected\"}}",
                    tags.join(",")
                );
                self.acc.render_ns += since(t);
                return (422, body);
            }
        };

        let t = Instant::now();
        let mode = match (&adm.cache_fixed, &req.db) {
            _ if !self.cfg.cache || req.no_cache => Mode::Off,
            (None, _) => Mode::Off,
            (Some(fixed), DbSpec::Finite(st)) => match canonicalize_finite(st, fixed) {
                Some(c) => Mode::Keyed {
                    key: cache_key(dialect, &adm, &c.key),
                    transport: Some(c.to_canon),
                },
                None => Mode::Bypass,
            },
            (Some(_), db) => Mode::Keyed {
                key: cache_key(dialect, &adm, &db.descriptor()),
                transport: None,
            },
        };
        self.acc.canon_ns += since(t);
        match mode {
            Mode::Keyed { .. } => self.acc.lookups += 1,
            Mode::Bypass => self.acc.bypasses += 1,
            Mode::Off => {}
        }
        let work_cap = predicted_work(&adm, &req.db);

        let t = Instant::now();
        let vm = compile(
            &adm.prog,
            &schema,
            dialect,
            &adm.analysis.termination,
            &LowerOpts::default(),
        )
        .ok()
        .filter(|vm| {
            verify(
                vm,
                &adm.prog,
                &schema,
                dialect,
                &adm.analysis.termination,
                Some(&adm.analysis.cost.verdict),
            )
            .is_ok()
        });
        self.acc.vm_ns += since(t);
        self.acc.vm_attempts += 1;
        if vm.is_none() {
            self.acc.vm_fallbacks += 1;
        }

        if let Mode::Keyed { key, transport } = &mode {
            let t = Instant::now();
            let hit = self.cache.get(key);
            self.acc.canon_ns += since(t);
            if let Some(entry) = hit {
                self.acc.hits += 1;
                let t = Instant::now();
                let rendered = match &*entry {
                    CachedResult::Rel(v) => result_json(&match transport {
                        Some(p) => transport_val(v, p, false),
                        None => v.clone(),
                    }),
                    CachedResult::Fcf(v) => fcf_result_json(v),
                };
                let body = ok_body(&prefix, "hit", 0, adm.plan.mode(), &rendered);
                self.acc.render_ns += since(t);
                return (200, body);
            }
        }

        let budget = budget_for(&adm.plan, self.cfg.fuel_max, work_cap);
        let label = match &mode {
            Mode::Off => "off",
            Mode::Bypass => "bypass",
            Mode::Keyed { .. } => "miss",
        };
        match &req.db {
            DbSpec::Finite(st) => {
                let mut interp = FinInterp::new(st);
                interp.set_seminaive(true);
                let (end, it) = self.run(&mut interp, dialect, &adm, vm.as_ref(), &budget);
                self.finish_rel(end, it, &adm, &mode, &prefix, label)
            }
            DbSpec::Family(_) | DbSpec::Cells(_) => {
                let descr = req.db.descriptor();
                if !self.hs.contains_key(&descr) {
                    let Some(hs) = build_hs(&req.db) else {
                        return (500, "family resolution failed".into());
                    };
                    let leaked: &'static HsDatabase = Box::leak(Box::new(hs));
                    let mut interp = HsInterp::new(leaked);
                    interp.set_seminaive(true);
                    self.hs.insert(descr.clone(), interp);
                }
                let mut interp = match self.hs.remove(&descr) {
                    Some(i) => i,
                    None => return (500, "shard lookup failed".into()),
                };
                let (end, it) = self.run(&mut interp, dialect, &adm, vm.as_ref(), &budget);
                self.hs.insert(descr, interp);
                self.finish_rel(end, it, &adm, &mode, &prefix, label)
            }
            DbSpec::Fcf(db) => {
                let mut interp = FcfInterp::new(db);
                interp.set_seminaive(true);
                let (end, it) = self.run(&mut interp, dialect, &adm, vm.as_ref(), &budget);
                let t = Instant::now();
                let resp = match end {
                    ExecEnd::Done(v) => {
                        if let Mode::Keyed { key, .. } = &mode {
                            self.cache.put(key, CachedResult::Fcf(v.clone()));
                        }
                        (
                            200,
                            ok_body(&prefix, label, it, adm.plan.mode(), &fcf_result_json(&v)),
                        )
                    }
                    end => error_response(&end, it, &adm.plan),
                };
                self.acc.render_ns += since(t);
                resp
            }
        }
    }

    /// Executes on the VM when compiled and verified, on the counted
    /// tree-walker otherwise, with every value op timed. A completed VM
    /// run is repeated untimed under a plain fuel meter to learn the
    /// fuel it used.
    fn run<B>(
        &mut self,
        b: &mut B,
        dialect: Dialect,
        adm: &Admission,
        vm: Option<&VmProg>,
        budget: &Budget<'_>,
    ) -> (ExecEnd<<B as GuardEval>::V>, u64)
    where
        B: GuardEval + VmBackend<V = <B as GuardEval>::V>,
    {
        let t = Instant::now();
        let mut timed = Timed {
            inner: b,
            ops: &mut self.acc.ops,
        };
        let preempt = AtomicBool::new(false);
        let (end, iterations) = match vm {
            Some(prog) => {
                let vb = VmBudget {
                    bounds: budget.bounds,
                    total_cap: budget.total_cap,
                    fuel: budget.fuel,
                    work_cap: budget.work_cap,
                };
                let r = exec_scheduled(&mut timed, prog, &vb, &preempt);
                (vm_end(r.end), r.iterations)
            }
            None => {
                let r = run_scheduled(&mut timed, dialect, &adm.prog, budget, &preempt);
                (r.end, r.iterations)
            }
        };
        self.acc.exec_ns += since(t);
        self.acc.iterations += iterations;
        self.acc.fuel += match (&end, vm) {
            (ExecEnd::OutOfFuel, _) => budget.fuel,
            (_, Some(prog)) => {
                let mut fuel = Fuel::new(budget.fuel);
                let _ = exec_plain(b, prog, &mut fuel);
                fuel.used()
            }
            (_, None) => 0,
        };
        (end, iterations)
    }

    fn finish_rel(
        &mut self,
        end: ExecEnd<Val>,
        iterations: u64,
        adm: &Admission,
        mode: &Mode,
        prefix: &str,
        label: &str,
    ) -> (u16, String) {
        let t = Instant::now();
        let resp = match end {
            ExecEnd::Done(v) => {
                if let Mode::Keyed { key, transport } = mode {
                    let canonical = match transport {
                        Some(p) => transport_val(&v, p, true),
                        None => v.clone(),
                    };
                    self.cache.put(key, CachedResult::Rel(canonical));
                }
                (
                    200,
                    ok_body(prefix, label, iterations, adm.plan.mode(), &result_json(&v)),
                )
            }
            end => error_response(&end, iterations, &adm.plan),
        };
        self.acc.render_ns += since(t);
        resp
    }
}

fn vm_end<V>(e: VmEnd<V>) -> ExecEnd<V> {
    match e {
        VmEnd::Done(v) => ExecEnd::Done(v),
        VmEnd::Errored(e) => ExecEnd::Errored(e),
        VmEnd::OutOfFuel => ExecEnd::OutOfFuel,
        VmEnd::Preempted => ExecEnd::Preempted,
        VmEnd::BoundExceeded { path, bound } => ExecEnd::BoundExceeded { path, bound },
        VmEnd::TotalExceeded { cap } => ExecEnd::TotalExceeded { cap },
        VmEnd::WorkExceeded { cap } => ExecEnd::WorkExceeded { cap },
    }
}

fn ok_body(prefix: &str, cache: &str, iterations: u64, mode: &str, result: &str) -> String {
    let open = if prefix.is_empty() { "{" } else { prefix };
    format!(
        "{open}\"cache\":\"{cache}\",\"iterations\":{iterations},\"mode\":\"{mode}\",\"result\":{result},\"status\":\"ok\"}}"
    )
}

fn error_response<V>(end: &ExecEnd<V>, iterations: u64, plan: &AdmPlan) -> (u16, String) {
    match end {
        ExecEnd::OutOfFuel => {
            let fuel = match plan {
                AdmPlan::Fueled { fuel } => *fuel,
                AdmPlan::Exact { .. } => 0,
            };
            (
                408,
                format!(
                    "{{\"fuel\":{fuel},\"iterations\":{iterations},\"reason\":\"fuel-exhausted\",\"status\":\"preempted\"}}"
                ),
            )
        }
        ExecEnd::Errored(e) => (
            422,
            format!(
                "{{\"error\":\"{}\",\"status\":\"error\"}}",
                esc(&e.to_string())
            ),
        ),
        _ => (
            500,
            "{\"status\":\"error\",\"violation\":\"replay\"}".into(),
        ),
    }
}

fn cache_key(dialect: Dialect, adm: &Admission, db_key: &str) -> String {
    let fixed: Vec<String> = adm
        .cache_fixed
        .iter()
        .flatten()
        .map(|c| c.to_string())
        .collect();
    format!(
        "{}|{}|f{}|{}",
        dialect.name(),
        adm.prog,
        fixed.join(","),
        db_key
    )
}

fn budget_for(plan: &AdmPlan, fuel_max: u64, work_cap: Option<u64>) -> Budget<'_> {
    static NO_BOUNDS: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    match plan {
        AdmPlan::Exact { iterations, bounds } => Budget {
            bounds,
            total_cap: *iterations,
            fuel: fuel_max,
            work_cap,
        },
        AdmPlan::Fueled { fuel } => Budget {
            bounds: &NO_BOUNDS,
            total_cap: u64::MAX,
            fuel: *fuel,
            work_cap,
        },
    }
}

fn predicted_work(adm: &Admission, db: &DbSpec) -> Option<u64> {
    let work = adm.analysis.cost.work()?;
    let env = match db {
        DbSpec::Finite(st) => CostEnv::new(
            st.universe().len() as u64,
            (0..st.schema().len())
                .map(|i| st.relation(i).len() as u64)
                .collect(),
        ),
        DbSpec::Fcf(fcf) => CostEnv::new(
            fcf.df().len() as u64,
            fcf.relations()
                .iter()
                .map(|r| r.finite_part().len() as u64)
                .collect(),
        ),
        DbSpec::Family(_) | DbSpec::Cells(_) => return None,
    };
    Some(work.eval(&env))
}

fn transport_val(v: &Val, p: &Permutation, forward: bool) -> Val {
    Val {
        rank: v.rank,
        tuples: v
            .tuples
            .iter()
            .map(|t| t.map(|e: Elem| if forward { p.apply(e) } else { p.apply_inv(e) }))
            .collect(),
    }
}

/// A backend wrapper that times every value op it forwards.
struct Timed<'a, B> {
    inner: &'a mut B,
    ops: &'a mut OpStats,
}

impl<B> Timed<'_, B> {
    fn record(&mut self, op: usize, t: Instant, tuples: u64) {
        self.ops.ns[op] += since(t);
        self.ops.count[op] += 1;
        self.ops.tuples += tuples;
    }
}

macro_rules! timed_op {
    ($self:ident, $op:expr, $call:expr) => {{
        let t = Instant::now();
        let r = $call;
        let n = r.as_ref().map_or(0, |v| B::size(v));
        $self.record($op, t, n);
        r
    }};
}

impl<B: VmBackend> VmBackend for Timed<'_, B> {
    type V = B::V;
    fn unset(&self) -> B::V {
        self.inner.unset()
    }
    fn e(&mut self) -> B::V {
        let t = Instant::now();
        let v = self.inner.e();
        self.record(0, t, B::size(&v));
        v
    }
    fn rel(&mut self, i: usize) -> Result<B::V, RunError> {
        timed_op!(self, 1, self.inner.rel(i))
    }
    fn constant(&mut self, c: u64) -> B::V {
        let t = Instant::now();
        let v = self.inner.constant(c);
        self.record(2, t, B::size(&v));
        v
    }
    fn and(&mut self, a: &B::V, b: &B::V) -> Result<B::V, RunError> {
        timed_op!(self, 3, self.inner.and(a, b))
    }
    fn not(&mut self, x: &B::V, fuel: &mut Fuel) -> Result<B::V, RunError> {
        timed_op!(self, 4, self.inner.not(x, fuel))
    }
    fn up(&mut self, x: &B::V, fuel: &mut Fuel) -> Result<B::V, RunError> {
        timed_op!(self, 5, self.inner.up(x, fuel))
    }
    fn down(&mut self, x: &B::V, fuel: &mut Fuel) -> Result<B::V, RunError> {
        timed_op!(self, 6, self.inner.down(x, fuel))
    }
    fn swap(&mut self, x: &B::V, fuel: &mut Fuel) -> Result<B::V, RunError> {
        timed_op!(self, 7, self.inner.swap(x, fuel))
    }
    fn empty(x: &B::V) -> bool {
        B::empty(x)
    }
    fn single(x: &B::V) -> bool {
        B::single(x)
    }
    fn finite(x: &B::V) -> bool {
        B::finite(x)
    }
    fn size(x: &B::V) -> u64 {
        B::size(x)
    }
}

/// On the tree-walking fallback a whole term evaluation is one timed
/// unit (`qlhs.walker_eval.us`).
impl<B: GuardEval> GuardEval for Timed<'_, B> {
    type V = B::V;
    fn eval(&mut self, t: &Term, env: &[B::V], fuel: &mut Fuel) -> Result<B::V, RunError> {
        let start = Instant::now();
        let r = self.inner.eval(t, env, fuel);
        self.ops.walker_ns += since(start);
        self.ops.tuples += r.as_ref().map_or(0, |v| B::size(v));
        r
    }
    fn unset() -> B::V {
        B::unset()
    }
    fn empty_guard(v: Option<&B::V>) -> bool {
        B::empty_guard(v)
    }
    fn single_guard(v: Option<&B::V>) -> Result<bool, RunError> {
        B::single_guard(v)
    }
    fn finite_guard(v: Option<&B::V>) -> Result<bool, RunError> {
        B::finite_guard(v)
    }
    fn size(v: &B::V) -> u64 {
        B::size(v)
    }
}
