//! The concurrent server: accept loop, worker pool, routing, and the
//! admission-gated execution path.
//!
//! Threading model: one accept thread pushes connections onto an mpsc
//! channel; `workers` threads pull connections and drive them to
//! completion (keep-alive requests run back-to-back on one worker).
//! Each worker owns a private shard of `HsInterp` instances — the
//! interpreter's canonical-representative caches are per-worker, so
//! the hot read path takes no locks at all. The only shared mutable
//! state is the sharded cross-tenant [`ResultCache`].

use crate::admit::{admit, Admission, AdmitLimits, AdmitOutcome, Plan};
use crate::cache::{canonicalize_finite, CachedResult, ResultCache};
use crate::http::{await_request, read_request, write_response, HttpError, ReadOutcome, Request};
use crate::json::{esc, parse, Json};
use crate::proto::{
    build_hs, fcf_result_json, result_json, DbSpec, FormulaRequest, QueryRequest, RaRequest,
};
use recdb_analyze::{analyze_formula, CostEnv, Diagnostic};
use recdb_core::{Elem, QueryOutcome};
use recdb_hsdb::HsDatabase;
use recdb_logic::{finite_as_db, LMinusQuery};
use recdb_qlhs::exec::{run_scheduled, Backend, Budget, ExecEnd, ExecResult, GuardEval};
use recdb_qlhs::{Dialect, FcfInterp, FcfVal, FinInterp, HsInterp, Permutation, Val};
use recdb_vm::{compile, exec_scheduled, verify, LowerOpts, VmProg};
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker thread count.
    pub workers: usize,
    /// Head (request line + headers) size limit, bytes.
    pub max_head: usize,
    /// Body size limit, bytes.
    pub max_body: usize,
    /// Fuel granted to fuel-mode requests that do not ask for a budget.
    pub fuel_default: u64,
    /// Hard ceiling on any fuel budget (also the term-evaluation fuel
    /// for exact-mode runs).
    pub fuel_max: u64,
    /// Enable the cross-tenant result cache.
    pub cache: bool,
    /// Differentially verify every cache hit against a fresh
    /// evaluation (the soak suite and ledger run with this on).
    pub verify_hits: bool,
    /// Socket read timeout in milliseconds (bounds how long an idle
    /// keep-alive connection can pin a worker; `0` disables).
    pub read_timeout_ms: u64,
    /// Execute verifier-accepted programs on the register VM
    /// (`recdb-vm`). Any compile obstruction or verifier rejection
    /// falls back to the tree-walkers with byte-identical behavior, so
    /// this flag only trades speed, never answers.
    pub vm: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_head: 16 * 1024,
            max_body: 1 << 20,
            fuel_default: 100_000,
            fuel_max: 10_000_000,
            cache: true,
            verify_hits: false,
            read_timeout_ms: 1_000,
            vm: true,
        }
    }
}

/// Stack size of each worker thread. Admission, lowering, evaluation
/// and rendering recurse over the program tree, whose nesting the
/// parsers cap at [`recdb_qlhs::MAX_DEPTH`] (RA programs are lowered
/// within the same cap). One size serves every build, so the
/// configuration the tests exercise at that cap is the one that ships:
/// an unoptimized build, whose frames are the largest, needs it.
const WORKER_STACK: usize = 32 << 20;

struct Shared {
    cfg: ServeConfig,
    cache: ResultCache,
    /// Raised on shutdown: executors stop at the next loop head.
    preempt: AtomicBool,
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the accept/worker threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ResultCache::new(cfg.workers.max(1) * 4),
            preempt: AtomicBool::new(false),
            cfg,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<Accepted>, Receiver<Accepted>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        for _ in 0..shared.cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(&rx, &shared))?,
            );
        }
        {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &tx, &stop, &shared);
            }));
        }
        Ok(Server {
            addr,
            shared,
            stop,
            threads,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Entries currently in the result cache.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Stops accepting, preempts running programs at the next loop
    /// head, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.preempt.store(true, Ordering::SeqCst);
        // Wake the accept thread out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// An accepted connection and when it was accepted (the start of its
/// `serve.stage.queue.ns` span).
type Accepted = (TcpStream, Instant);

fn accept_loop(listener: &TcpListener, tx: &Sender<Accepted>, stop: &AtomicBool, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let accepted = Instant::now();
                if stop.load(Ordering::SeqCst) {
                    return; // tx drops here; workers drain and exit
                }
                recdb_obs::count("serve.connections", 1);
                // Each response is one write; with Nagle on, one longer
                // than a segment would still hold its tail until the
                // client's delayed ACK, ≈40 ms later (DESIGN.md §9).
                let _ = stream.set_nodelay(true);
                if shared.cfg.read_timeout_ms > 0 {
                    let _ = stream
                        .set_read_timeout(Some(Duration::from_millis(shared.cfg.read_timeout_ms)));
                }
                if tx.send((stream, accepted)).is_err() {
                    return;
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Per-worker interpreter shard: `HsInterp` canonical caches persist
/// across requests, keyed by the database descriptor, with lock-free
/// access (the worker owns them outright).
struct WorkerState {
    hs: HashMap<String, HsInterp<'static>>,
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Accepted>>>, shared: &Arc<Shared>) {
    let mut ws = WorkerState { hs: HashMap::new() };
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            guard.recv()
        };
        match stream {
            Ok((s, accepted)) => {
                recdb_obs::observe_since("serve.stage.queue.ns", accepted);
                handle_connection(s, shared, &mut ws);
            }
            Err(_) => return, // sender dropped: shutting down
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, ws: &mut WorkerState) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        if !await_request(&mut reader) {
            return;
        }
        let read = {
            let _t = recdb_obs::span("serve.stage.read.ns");
            read_request(&mut reader, shared.cfg.max_head, shared.cfg.max_body)
        };
        let req = match read {
            Ok(ReadOutcome::Request(r)) => r,
            Ok(ReadOutcome::Closed) => return,
            Err(HttpError::Disconnected) => {
                recdb_obs::count("serve.conn_drops", 1);
                return;
            }
            Err(HttpError::Malformed(why)) => {
                recdb_obs::count("serve.http_errors", 1);
                let body = format!("{{\"error\":\"{}\",\"status\":\"error\"}}", esc(why));
                let _ = write_response(&mut writer, 400, &body, false);
                return;
            }
            Err(HttpError::TooLarge { limit }) => {
                recdb_obs::count("serve.http_errors", 1);
                let body = format!(
                    "{{\"error\":\"request exceeds the {limit}-byte limit\",\"status\":\"error\"}}"
                );
                let _ = write_response(&mut writer, 413, &body, false);
                return;
            }
            Err(HttpError::Io(_)) => return,
        };
        let keep = !req.wants_close();
        let _t = recdb_obs::span("serve.request.ns");
        recdb_obs::count("serve.requests", 1);
        let (status, body) = match catch_unwind(AssertUnwindSafe(|| route(&req, shared, ws))) {
            Ok(ok) => ok,
            Err(_) => {
                recdb_obs::count("serve.panics", 1);
                (
                    500,
                    "{\"error\":\"internal panic\",\"status\":\"error\"}".to_string(),
                )
            }
        };
        drop(_t);
        let written = {
            let _t = recdb_obs::span("serve.stage.write.ns");
            write_response(&mut writer, status, &body, keep)
        };
        if written.is_err() || !keep {
            return;
        }
    }
}

fn route(req: &Request, shared: &Shared, ws: &mut WorkerState) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => (200, "{\"status\":\"ok\"}".to_string()),
        ("POST", "/v1/query") => handle_query(&req.body, shared, ws),
        ("POST", "/v1/ra") => handle_ra(&req.body, shared, ws),
        ("POST", "/v1/formula") => handle_formula(&req.body),
        ("GET", "/v1/query")
        | ("GET", "/v1/ra")
        | ("GET", "/v1/formula")
        | ("POST", "/v1/health") => (
            405,
            "{\"error\":\"method not allowed\",\"status\":\"error\"}".to_string(),
        ),
        _ => (
            404,
            "{\"error\":\"no such endpoint\",\"status\":\"error\"}".to_string(),
        ),
    }
}

fn bad_request(msg: &str) -> (u16, String) {
    recdb_obs::count("serve.bad_requests", 1);
    (
        400,
        format!("{{\"error\":\"{}\",\"status\":\"error\"}}", esc(msg)),
    )
}

fn decode_body(body: &[u8]) -> Result<Json, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8"))?;
    parse(text).map_err(|e| bad_request(&format!("invalid JSON at byte {}: {}", e.at, e.msg)))
}

/// How the cache participates in one request.
enum CacheMode<'a> {
    /// Caching off (disabled, opted out, or not provably cacheable).
    Off,
    /// Cacheable but the slice exceeds the canonicalization limit.
    Bypass,
    /// Keyed: `transport` maps this slice onto the canonical form
    /// (`None` = identity, for descriptor-keyed infinite slices).
    Keyed {
        key: String,
        transport: Option<&'a Permutation>,
    },
}

impl CacheMode<'_> {
    fn label(&self, hit: bool) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Bypass => "bypass",
            CacheMode::Keyed { .. } if hit => "hit",
            CacheMode::Keyed { .. } => "miss",
        }
    }
}

fn ok_body(cache: &str, iterations: u64, mode: &str, result: &str) -> String {
    format!(
        "{{\"cache\":\"{cache}\",\"iterations\":{iterations},\"mode\":\"{mode}\",\"result\":{result},\"status\":\"ok\"}}"
    )
}

fn handle_query(body: &[u8], shared: &Shared, ws: &mut WorkerState) -> (u16, String) {
    let json = match decode_body(body) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    let req = match QueryRequest::decode(&json) {
        Ok(r) => r,
        Err(e) => return bad_request(&e.0),
    };
    execute_query(&req, shared, ws)
}

/// Admission, cache participation, and execution for one decoded
/// query — shared by `/v1/query` and (after RA compilation) `/v1/ra`.
fn execute_query(req: &QueryRequest, shared: &Shared, ws: &mut WorkerState) -> (u16, String) {
    let dialect = req.db.dialect();
    let schema = match req.db.schema() {
        Ok(s) => s,
        Err(e) => return bad_request(&e.0),
    };
    let limits = AdmitLimits {
        fuel_default: shared.cfg.fuel_default,
        fuel_max: shared.cfg.fuel_max,
    };
    let admission = {
        let _t = recdb_obs::span("serve.stage.admit.ns");
        admit(&req.program, &schema, dialect, req.fuel, &limits)
    };
    let adm = match admission {
        AdmitOutcome::Admitted(a) => a,
        AdmitOutcome::Rejected {
            reasons,
            diagnostics_json,
        } => {
            let tags: Vec<String> = reasons.iter().map(|r| format!("\"{r}\"")).collect();
            return (
                422,
                format!(
                    "{{\"diagnostics\":{diagnostics_json},\"reasons\":[{}],\"status\":\"rejected\"}}",
                    tags.join(",")
                ),
            );
        }
    };

    // Decide how the cache participates. A slice is keyed either by
    // its canonical ≅-form (finite) or its literal descriptor
    // (family/cells/fcf, whose wire form is already canonical).
    let canon = match (&adm.cache_fixed, &req.db) {
        (Some(fixed), DbSpec::Finite(st)) if shared.cfg.cache && !req.no_cache => {
            Some(canonicalize_finite(st, fixed))
        }
        _ => None,
    };
    let mode = match (&adm.cache_fixed, &req.db) {
        _ if !shared.cfg.cache || req.no_cache => CacheMode::Off,
        (None, _) => CacheMode::Off,
        (Some(_), DbSpec::Finite(_)) => match &canon {
            Some(Some(c)) => CacheMode::Keyed {
                key: cache_key(dialect, &adm, &c.key),
                transport: Some(&c.to_canon),
            },
            _ => {
                recdb_obs::count("serve.cache.bypass", 1);
                CacheMode::Bypass
            }
        },
        (Some(_), db) => CacheMode::Keyed {
            key: cache_key(dialect, &adm, &db.descriptor()),
            transport: None,
        },
    };

    let work_cap = predicted_work(&adm, &req.db);

    // Compile + verify for the register VM. The compiler is untrusted;
    // only verifier-accepted bytecode runs, and any obstruction or
    // rejection falls back to the tree-walkers (the `VM-DIFF` ledger
    // check proves the two paths byte-identical, so the fallback is
    // unobservable from outside).
    let vm_prog = if shared.cfg.vm {
        let _t = recdb_obs::span("serve.stage.vm.ns");
        match compile(
            &adm.prog,
            &schema,
            dialect,
            &adm.analysis.termination,
            &LowerOpts::default(),
        ) {
            Err(_) => {
                recdb_obs::count("serve.vm.fallbacks.compile", 1);
                None
            }
            Ok(vm)
                if verify(
                    &vm,
                    &adm.prog,
                    &schema,
                    dialect,
                    &adm.analysis.termination,
                    Some(&adm.analysis.cost.verdict),
                )
                .is_err() =>
            {
                recdb_obs::count("serve.vm.fallbacks.verify", 1);
                None
            }
            Ok(vm) => Some(vm),
        }
    } else {
        None
    };
    if shared.cfg.vm && vm_prog.is_none() {
        recdb_obs::count("serve.vm.fallbacks", 1);
    }
    let vm_prog = vm_prog.as_ref();

    let _t = recdb_obs::span("serve.stage.execute.ns");
    match &req.db {
        DbSpec::Finite(st) => {
            let mut interp = FinInterp::new(st);
            serve(&mut interp, dialect, &adm, vm_prog, shared, &mode, work_cap)
        }
        DbSpec::Family(_) | DbSpec::Cells(_) => match worker_hs_interp(ws, &req.db) {
            Some(descr) => match ws.hs.get_mut(&descr) {
                Some(interp) => serve(interp, dialect, &adm, vm_prog, shared, &mode, work_cap),
                None => internal("worker shard lookup failed"),
            },
            None => {
                // Registry full: build a throwaway database.
                match build_hs(&req.db) {
                    Some(hs) => {
                        let mut interp = HsInterp::new(&hs);
                        serve(&mut interp, dialect, &adm, vm_prog, shared, &mode, work_cap)
                    }
                    None => internal("family resolution failed after admission"),
                }
            }
        },
        DbSpec::Fcf(db) => {
            let mut interp = FcfInterp::new(db);
            serve(&mut interp, dialect, &adm, vm_prog, shared, &mode, work_cap)
        }
    }
}

/// A 422 rejection in the `/v1/query` shape, with the RA diagnostic
/// resolved to a line/col through the RA parser's span table.
fn ra_rejection(
    e: &recdb_ra::RaError,
    source: &str,
    spans: &recdb_qlhs::SpanTable,
) -> (u16, String) {
    recdb_obs::count("serve.ra.rejections", 1);
    let mut d = format!(
        "{{\"code\":\"{}\",\"severity\":\"error\",\"message\":\"{}\"",
        e.code,
        esc(&e.message)
    );
    if let Some(span) = spans.enclosing(&e.path) {
        let (line, col) = span.line_col(source);
        d.push_str(&format!(",\"line\":{line},\"col\":{col}"));
    }
    d.push('}');
    let reason = match e.code {
        "RA05" => "ra-unsafe",
        recdb_qlhs::DEPTH_CODE => "ra-depth",
        _ => "ra-type",
    };
    (
        422,
        format!("{{\"diagnostics\":[{d}],\"reasons\":[\"{reason}\"],\"status\":\"rejected\"}}"),
    )
}

fn handle_ra(body: &[u8], shared: &Shared, ws: &mut WorkerState) -> (u16, String) {
    let json = match decode_body(body) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    let req = match RaRequest::decode(&json) {
        Ok(r) => r,
        Err(e) => return bad_request(&e.0),
    };
    let schema = match recdb_ra::RaSchema::parse(&req.schema) {
        Ok(s) => s,
        Err(e) => return bad_request(&format!("bad schema: {e}")),
    };
    // The slice must have the schema's shape before anything runs.
    let want: Vec<usize> = (0..schema.rels().len())
        .map(|i| schema.attrs(i).len())
        .collect();
    let got: Vec<usize> = (0..req.db.schema().len())
        .map(|i| req.db.schema().arity(i))
        .collect();
    if want != got {
        return bad_request(&format!(
            "schema/slice arity mismatch: schema {want:?}, slice {got:?}"
        ));
    }
    let (prog, spans) = match recdb_ra::parse_ra_with_spans(&req.query) {
        Ok(ok) => ok,
        Err(e) => {
            recdb_obs::count("serve.ra.rejections", 1);
            let (line, col) = recdb_qlhs::Span {
                start: e.at,
                end: e.at + 1,
            }
            .line_col(&req.query);
            return (
                422,
                format!(
                    "{{\"diagnostics\":[{{\"code\":\"{}\",\"severity\":\"error\",\
                     \"message\":\"{}\",\"line\":{line},\"col\":{col}}}],\
                     \"reasons\":[\"parse-error\"],\"status\":\"rejected\"}}",
                    e.code,
                    esc(&e.msg)
                ),
            );
        }
    };
    // Typecheck + safety first, then the cost-guided rewriter: the
    // plan that actually runs is the cost-minimal equivalent one
    // (`RA-REWRITE-DIFF` proves the equivalence over the seeded
    // corpus).
    let compiled = match recdb_ra::typecheck(&prog, &schema)
        .and_then(|_| recdb_ra::validate(&prog, &schema))
        .and_then(|()| recdb_ra::optimize_program(&prog, &schema))
        .and_then(|opt| {
            if opt.changed {
                recdb_obs::count("serve.ra.optimized", 1);
            }
            recdb_ra::compile_program(&opt.program, &schema)
        }) {
        Ok(c) => c,
        Err(e) => return ra_rejection(&e, &req.query, &spans),
    };
    recdb_obs::count("serve.ra.queries", 1);
    // From here the request is an ordinary straight-line QLhs query:
    // render the compiled program and reuse the `/v1/query` path
    // (admission, cache, execution) unchanged.
    let qreq = QueryRequest {
        tenant: req.tenant.clone(),
        program: compiled.prog.to_string(),
        db: DbSpec::Finite(req.db),
        fuel: req.fuel,
        no_cache: req.no_cache,
    };
    let (status, body) = execute_query(&qreq, shared, ws);
    if status == 200 {
        let attrs: Vec<String> = compiled
            .attrs
            .iter()
            .map(|a| format!("\"{}\"", esc(a)))
            .collect();
        (
            200,
            format!("{{\"attrs\":[{}],{}", attrs.join(","), &body[1..]),
        )
    } else {
        (status, body)
    }
}

fn internal(msg: &str) -> (u16, String) {
    (
        500,
        format!("{{\"error\":\"{}\",\"status\":\"error\"}}", esc(msg)),
    )
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

fn budget_for<'a>(plan: &'a Plan, fuel_max: u64, work_cap: Option<u64>) -> Budget<'a> {
    static NO_BOUNDS: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    match plan {
        Plan::Exact { iterations, bounds } => Budget {
            bounds,
            total_cap: *iterations,
            fuel: fuel_max,
            work_cap,
        },
        Plan::Fueled { fuel } => Budget {
            bounds: &NO_BOUNDS,
            total_cap: u64::MAX,
            fuel: *fuel,
            work_cap,
        },
    }
}

/// Instantiates the admission's symbolic work bound at the request's
/// actual database, yielding a hard per-request work cap (DESIGN.md
/// §11): `n` maps to the backend's base-set size and `rᵢ` to relation
/// `i`'s stored size.
///
/// Only backends with a sound finite base size participate — finite
/// structures (`n` = |universe|) and fcf slices (`n` = |Df|: the
/// interpreter materializes `E` as the diagonal over Df and `↑` as a
/// product with Df, so Df's size is exactly what the polynomial's `n`
/// counts). Family/cells slices have no finite `n` and run unmetered.
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
    let w = work.eval(&env);
    recdb_obs::observe("serve.cost.predicted_work", w);
    Some(w)
}

/// Runs an admitted program: on the register VM when a
/// verifier-accepted compilation is in hand, on the tree-walking
/// statement executor otherwise. Both run under the same budget
/// schedule, event for event (same guards, same fuel ticks, same
/// scheduling ends), so callers never observe which one ran.
fn run_admitted<B>(
    b: &mut B,
    dialect: Dialect,
    adm: &Admission,
    vm: Option<&VmProg>,
    budget: &Budget<'_>,
    preempt: &AtomicBool,
) -> ExecResult<<B as GuardEval>::V>
where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
{
    let Some(prog) = vm else {
        return run_scheduled(b, dialect, &adm.prog, budget, preempt);
    };
    recdb_obs::count("serve.vm.runs", 1);
    exec_scheduled(b, prog, budget, preempt)
}

/// What serving needs from a backend's value type: its cache slot,
/// its transport through a permutation `π`, and its JSON rendering.
trait Served: Clone {
    fn cached(entry: &CachedResult) -> Option<&Self>;
    fn into_cached(self) -> CachedResult;
    /// `π` (forward) or `π⁻¹` applied to every element. Descriptor-keyed
    /// slices (fcf) never carry a transport, so identity is the default.
    fn transport(&self, _p: &Permutation, _forward: bool) -> Self {
        self.clone()
    }
    fn render(&self) -> String;
}

impl Served for Val {
    fn cached(entry: &CachedResult) -> Option<&Val> {
        match entry {
            CachedResult::Rel(v) => Some(v),
            CachedResult::Fcf(_) => None,
        }
    }
    fn into_cached(self) -> CachedResult {
        CachedResult::Rel(self)
    }
    fn transport(&self, p: &Permutation, forward: bool) -> Val {
        Val {
            rank: self.rank,
            tuples: self
                .tuples
                .iter()
                .map(|t| t.map(|e: Elem| if forward { p.apply(e) } else { p.apply_inv(e) }))
                .collect(),
        }
    }
    fn render(&self) -> String {
        result_json(self)
    }
}

impl Served for FcfVal {
    fn cached(entry: &CachedResult) -> Option<&FcfVal> {
        match entry {
            CachedResult::Fcf(v) => Some(v),
            CachedResult::Rel(_) => None,
        }
    }
    fn into_cached(self) -> CachedResult {
        CachedResult::Fcf(self)
    }
    fn render(&self) -> String {
        fcf_result_json(self)
    }
}

/// The post-admission path every backend shares: cache lookup,
/// execution, cache fill, and response rendering.
fn serve<V, B>(
    b: &mut B,
    dialect: Dialect,
    adm: &Admission,
    vm: Option<&VmProg>,
    shared: &Shared,
    mode: &CacheMode<'_>,
    work_cap: Option<u64>,
) -> (u16, String)
where
    V: Served,
    B: GuardEval<V = V> + Backend<V = V>,
{
    if let CacheMode::Keyed { key, transport } = mode {
        if let Some(entry) = shared.cache.get(key) {
            if let Some(qk) = V::cached(&entry) {
                recdb_obs::count("serve.cache.hits", 1);
                let answer = match transport {
                    Some(p) => qk.transport(p, false),
                    None => qk.clone(),
                };
                let rendered = answer.render();
                if shared.cfg.verify_hits {
                    let budget = budget_for(&adm.plan, shared.cfg.fuel_max, work_cap);
                    let fresh = run_admitted(b, dialect, adm, vm, &budget, &shared.preempt);
                    match fresh.end {
                        ExecEnd::Done(v) if v.render() == rendered => {
                            recdb_obs::count("serve.cache.verified", 1);
                        }
                        _ => {
                            recdb_obs::count("serve.soundness_violations", 1);
                            shared.cache.evict(key);
                            return (
                                500,
                                "{\"error\":\"cache hit failed differential verification\",\
                                 \"status\":\"error\",\"violation\":\"cache-differential\"}"
                                    .to_string(),
                            );
                        }
                    }
                }
                return (200, ok_body("hit", 0, adm.plan.mode(), &rendered));
            }
        }
        recdb_obs::count("serve.cache.misses", 1);
    }
    let budget = budget_for(&adm.plan, shared.cfg.fuel_max, work_cap);
    let r = run_admitted(b, dialect, adm, vm, &budget, &shared.preempt);
    match r.end {
        ExecEnd::Done(v) => {
            recdb_obs::observe("serve.iterations", r.iterations);
            let rendered = v.render();
            if let CacheMode::Keyed { key, transport } = mode {
                let canonical = match transport {
                    Some(p) => v.transport(p, true),
                    None => v,
                };
                shared.cache.put(key, canonical.into_cached());
            }
            (
                200,
                ok_body(mode.label(false), r.iterations, adm.plan.mode(), &rendered),
            )
        }
        end => error_response(&end, r.iterations, &adm.plan),
    }
}

fn error_response<V>(end: &ExecEnd<V>, iterations: u64, plan: &Plan) -> (u16, String) {
    match end {
        ExecEnd::Done(_) => internal("unreachable: Done in error path"),
        ExecEnd::OutOfFuel => {
            recdb_obs::count("serve.preempted", 1);
            let fuel = match plan {
                Plan::Fueled { fuel } => *fuel,
                Plan::Exact { .. } => 0,
            };
            (
                408,
                format!(
                    "{{\"fuel\":{fuel},\"iterations\":{iterations},\"reason\":\"fuel-exhausted\",\"status\":\"preempted\"}}"
                ),
            )
        }
        ExecEnd::Preempted => {
            recdb_obs::count("serve.preempted", 1);
            (
                408,
                format!(
                    "{{\"iterations\":{iterations},\"reason\":\"shutdown\",\"status\":\"preempted\"}}"
                ),
            )
        }
        ExecEnd::Errored(e) => {
            recdb_obs::count("serve.exec_errors", 1);
            (
                422,
                format!(
                    "{{\"error\":\"{}\",\"status\":\"error\"}}",
                    esc(&e.to_string())
                ),
            )
        }
        ExecEnd::BoundExceeded { path, bound } => {
            recdb_obs::count("serve.soundness_violations", 1);
            let path_s: Vec<String> = path.iter().map(|p| p.to_string()).collect();
            (
                500,
                format!(
                    "{{\"bound\":{bound},\"error\":\"proved loop bound exceeded at path [{}]\",\
                     \"status\":\"error\",\"violation\":\"bound-exceeded\"}}",
                    path_s.join(",")
                ),
            )
        }
        ExecEnd::TotalExceeded { cap } => {
            recdb_obs::count("serve.soundness_violations", 1);
            (
                500,
                format!(
                    "{{\"cap\":{cap},\"error\":\"proved whole-program budget exceeded\",\
                     \"status\":\"error\",\"violation\":\"total-exceeded\"}}"
                ),
            )
        }
        ExecEnd::WorkExceeded { cap } => {
            recdb_obs::count("serve.soundness_violations", 1);
            recdb_obs::count("serve.cost.overrun", 1);
            (
                500,
                format!(
                    "{{\"cap\":{cap},\"error\":\"predicted work bound exceeded\",\
                     \"status\":\"error\",\"violation\":\"work-exceeded\"}}"
                ),
            )
        }
    }
}

// --- per-worker HsInterp shards over a process-global leaked registry ---

/// Cap on distinct `HsDatabase` slices the process will pin for the
/// lifetime-erased worker shards. Beyond it, requests fall back to a
/// per-request database (correct, just cold).
const HS_REGISTRY_CAP: usize = 64;

fn hs_registry() -> &'static Mutex<HashMap<String, &'static HsDatabase>> {
    static REG: OnceLock<Mutex<HashMap<String, &'static HsDatabase>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Ensures the worker has a persistent `HsInterp` shard for this
/// slice, returning its descriptor key, or `None` when the registry is
/// full and the caller should build a throwaway database.
fn worker_hs_interp(ws: &mut WorkerState, db: &DbSpec) -> Option<String> {
    let descr = db.descriptor();
    if ws.hs.contains_key(&descr) {
        return Some(descr);
    }
    let leaked: Option<&'static HsDatabase> = {
        let mut reg = match hs_registry().lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        match reg.get(&descr) {
            Some(&hs) => Some(hs),
            None if reg.len() < HS_REGISTRY_CAP => {
                let hs = build_hs(db)?;
                let leaked: &'static HsDatabase = Box::leak(Box::new(hs));
                reg.insert(descr.clone(), leaked);
                Some(leaked)
            }
            None => None,
        }
    };
    let hs = leaked?;
    ws.hs.insert(descr.clone(), HsInterp::new(hs));
    Some(descr)
}

// --- /v1/formula ---

fn handle_formula(body: &[u8]) -> (u16, String) {
    recdb_obs::count("serve.formula.requests", 1);
    let json = match decode_body(body) {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    let req = match FormulaRequest::decode(&json) {
        Ok(r) => r,
        Err(e) => return bad_request(&e.0),
    };
    let schema = req.db.schema().clone();
    let q = match LMinusQuery::parse(&req.formula, &schema) {
        Ok(q) => q,
        Err(e) => {
            return (
                422,
                format!(
                    "{{\"error\":\"formula parse error: {}\",\"status\":\"rejected\"}}",
                    esc(&e.to_string())
                ),
            )
        }
    };
    // Undefined queries ("undefined" literal) have no body to analyze.
    if let Some(f) = q.body() {
        let report = analyze_formula(f, &schema, q.rank(), true);
        if !report.is_clean() {
            let msgs: Vec<String> = report.diagnostics.iter().map(formula_diag_json).collect();
            return (
                422,
                format!(
                    "{{\"diagnostics\":[{}],\"status\":\"rejected\"}}",
                    msgs.join(",")
                ),
            );
        }
    }
    let db = finite_as_db(&req.db);
    let mut outcomes = Vec::with_capacity(req.tuples.len());
    for t in &req.tuples {
        outcomes.push(match q.eval(&db, t) {
            QueryOutcome::Defined(true) => "\"true\"",
            QueryOutcome::Defined(false) => "\"false\"",
            QueryOutcome::Undefined => "\"undefined\"",
        });
    }
    (
        200,
        format!(
            "{{\"outcomes\":[{}],\"status\":\"ok\"}}",
            outcomes.join(",")
        ),
    )
}

/// Formula diagnostics carry empty tree paths (no statement spans), so
/// they serialize without `line`/`col`.
fn formula_diag_json(d: &Diagnostic) -> String {
    let mut s = format!(
        "{{\"code\":\"{}\",\"message\":\"{}\",\"severity\":\"{}\"",
        d.code,
        esc(&d.message),
        d.severity()
    );
    if let Some(note) = &d.note {
        s.push_str(&format!(",\"note\":\"{}\"", esc(note)));
    }
    s.push('}');
    s
}
