//! The concurrent server: worker pool, routing, and the
//! admission-gated execution path.
//!
//! Request path: `/v1/query` and `/v1/ra` differ only in their front
//! end. The QL front end hands the program text to [`admit`], which
//! parses it; the RA front end parses the query and makes one
//! [`recdb_ra::optimize_program`] call, whose report carries the
//! chosen plan already lowered, and hands that program to
//! [`admit_prog`]. From there `execute_query` is the one path:
//! admission, cache participation, execution, and rendering (with the
//! RA result's `attrs` when the front end supplied them).
//!
//! Threading model: `workers` threads each call `accept()` on the one
//! listener and drive the connection they get to its close
//! (keep-alive requests run back-to-back on one worker); connections
//! beyond the busy workers wait in the kernel's listen backlog.
//! Shutdown raises the stop flag and makes one wake-up connection per
//! worker.
//! Every request builds its own interpreter (for family/cells slices,
//! its own `HsDatabase` and `HsInterp`), so no request sees state an
//! earlier one left behind. The only shared mutable state is the
//! sharded cross-tenant [`ResultCache`].

use crate::admit::{
    admit, admit_prog, diag_object, parse_error_json, Admission, AdmitLimits, AdmitOutcome, Plan,
};
use crate::cache::{canonicalize_finite, CachedResult, ResultCache};
use crate::http::{await_request, read_request, write_response, HttpError, ReadOutcome, Request};
use crate::json::{esc, parse, Json};
use crate::proto::{
    build_hs, fcf_result_json, result_json, BadRequest, DbSpec, FormulaRequest, QueryRequest,
    RaRequest,
};
use recdb_analyze::{analyze_formula, CostEnv, Diagnostic};
use recdb_core::{Elem, QueryOutcome};
use recdb_logic::{finite_as_db, LMinusQuery};
use recdb_qlhs::exec::{run_scheduled, ExecEnd, GuardEval};
use recdb_qlhs::{Dialect, FcfInterp, FcfVal, FinInterp, HsInterp, Permutation, SpanTable, Val};
use recdb_ra::{CompiledRa, RaError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    listener: TcpListener,
    /// Raised on shutdown: workers stop accepting, and executors stop
    /// at the next loop head.
    stop: AtomicBool,
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the worker threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ResultCache::new(cfg.workers.max(1) * 4),
            listener,
            stop: AtomicBool::new(false),
            cfg,
        });
        let mut server = Server {
            addr,
            shared,
            threads: Vec::new(),
        };
        for _ in 0..server.shared.cfg.workers.max(1) {
            let shared = Arc::clone(&server.shared);
            // A failed spawn drops `server`, which stops and joins the
            // workers already running.
            server.threads.push(
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(server)
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
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // One wake-up connection per worker: each worker takes at most
        // one accept after the flag is up, then exits. A worker still
        // driving a connection finds its wake-up in the listen backlog.
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect(self.addr);
        }
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

/// Accepts on the shared listener and drives each connection to its
/// close; connections beyond the busy workers wait in the kernel's
/// listen backlog.
fn worker_loop(shared: &Shared) {
    loop {
        let accepted = shared.listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else { continue };
        recdb_obs::count("serve.connections", 1);
        // Each response is one write; with Nagle on, one longer than a
        // segment would still hold its tail until the client's delayed
        // ACK, ≈40 ms later (DESIGN.md §9).
        let _ = stream.set_nodelay(true);
        if shared.cfg.read_timeout_ms > 0 {
            let _ =
                stream.set_read_timeout(Some(Duration::from_millis(shared.cfg.read_timeout_ms)));
        }
        handle_connection(&stream, shared);
    }
}

fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
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
        let (status, body) = match catch_unwind(AssertUnwindSafe(|| route(&req, shared))) {
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

fn route(req: &Request, shared: &Shared) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => (200, "{\"status\":\"ok\"}".to_string()),
        ("POST", "/v1/query") => handle_query(&req.body, shared),
        ("POST", "/v1/ra") => handle_ra(&req.body, shared),
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

/// Parses a body as JSON and decodes it into one request type; every
/// failure is a 400.
fn decode_request<T>(
    body: &[u8],
    decode: fn(&Json) -> Result<T, BadRequest>,
) -> Result<T, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8"))?;
    let json = parse(text)
        .map_err(|e| bad_request(&format!("invalid JSON at byte {}: {}", e.at, e.msg)))?;
    decode(&json).map_err(|e| bad_request(&e.0))
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

/// A 422 rejection: the reason tags and the rendered diagnostics.
fn rejected(reasons: &[&str], diagnostics_json: &str) -> (u16, String) {
    let tags: Vec<String> = reasons.iter().map(|r| format!("\"{r}\"")).collect();
    (
        422,
        format!(
            "{{\"diagnostics\":{diagnostics_json},\"reasons\":[{}],\"status\":\"rejected\"}}",
            tags.join(",")
        ),
    )
}

/// A 200 body; `attrs` is `""` or the front end's `"attrs":[…],` field.
fn ok_body(attrs: &str, cache: &str, iterations: u64, mode: &str, result: &str) -> String {
    format!(
        "{{{attrs}\"cache\":\"{cache}\",\"iterations\":{iterations},\"mode\":\"{mode}\",\"result\":{result},\"status\":\"ok\"}}"
    )
}

/// What a front end hands to the shared path.
enum Program<'a> {
    /// `/v1/query`: QL-family source, parsed at admission.
    Source(&'a str),
    /// `/v1/ra`: the chosen plan, already lowered; its result columns
    /// go into the response as `attrs`.
    Lowered(CompiledRa),
}

/// The QL front end: the program text goes to admission as it is.
fn handle_query(body: &[u8], shared: &Shared) -> (u16, String) {
    let req = match decode_request(body, QueryRequest::decode) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let program = Program::Source(&req.program);
    execute_query(program, &req.db, req.fuel, req.no_cache, shared)
}

/// The RA front end: parse, then one [`recdb_ra::optimize_program`]
/// call typechecks, validates, rewrites and lowers the query; the
/// lowered plan then takes the `/v1/query` path.
fn handle_ra(body: &[u8], shared: &Shared) -> (u16, String) {
    let req = match decode_request(body, RaRequest::decode) {
        Ok(r) => r,
        Err(resp) => return resp,
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
            let diags = parse_error_json(e.code, &e.msg, e.at, &req.query);
            return rejected(&["parse-error"], &diags);
        }
    };
    // The plan that runs is the cost-minimal equivalent one
    // (`RA-REWRITE-DIFF` proves the equivalence over the seeded
    // corpus).
    let opt = match recdb_ra::optimize_program(&prog, &schema) {
        Ok(opt) => opt,
        Err(e) => return ra_rejection(&e, &req.query, &spans),
    };
    if opt.changed {
        recdb_obs::count("serve.ra.optimized", 1);
    }
    recdb_obs::count("serve.ra.queries", 1);
    let db = DbSpec::Finite(req.db);
    let program = Program::Lowered(opt.compiled);
    execute_query(program, &db, req.fuel, req.no_cache, shared)
}

/// A 422 rejection of an RA query that failed to typecheck, validate
/// or lower, resolved to a line/col through the RA parser's span table.
fn ra_rejection(e: &RaError, source: &str, spans: &SpanTable) -> (u16, String) {
    recdb_obs::count("serve.ra.rejections", 1);
    let at = spans.enclosing(&e.path).map(|s| s.line_col(source));
    let d = diag_object(e.code, "error", &e.message, at, None);
    let reason = match e.code {
        "RA05" => "ra-unsafe",
        "RA06" => "ra-size",
        recdb_qlhs::DEPTH_CODE => "ra-depth",
        _ => "ra-type",
    };
    rejected(&[reason], &format!("[{d}]"))
}

/// Admission, cache participation, execution and rendering for one
/// request, whichever front end built its program. A family/cells
/// slice is built once, here, and admission reads its schema from it.
fn execute_query(
    program: Program<'_>,
    db: &DbSpec,
    fuel: Option<u64>,
    no_cache: bool,
    shared: &Shared,
) -> (u16, String) {
    let dialect = db.dialect();
    let hs = build_hs(db);
    let schema = match &hs {
        Some(hs) => hs.schema().clone(),
        None => match db.schema() {
            Ok(s) => s,
            Err(e) => return bad_request(&e.0),
        },
    };
    let limits = AdmitLimits {
        fuel_default: shared.cfg.fuel_default,
        fuel_max: shared.cfg.fuel_max,
    };
    let (admission, attrs) = {
        let _t = recdb_obs::span("serve.stage.admit.ns");
        match program {
            Program::Source(src) => (admit(src, &schema, dialect, fuel, &limits), None),
            Program::Lowered(c) => {
                let spans = SpanTable::default();
                let adm = admit_prog(c.prog, spans, "", &schema, dialect, fuel, &limits);
                (adm, Some(c.attrs))
            }
        }
    };
    let adm = match admission {
        AdmitOutcome::Admitted(a) => a,
        AdmitOutcome::Rejected {
            reasons,
            diagnostics_json,
        } => return rejected(&reasons, &diagnostics_json),
    };
    let attrs = attrs.map_or(String::new(), |names| {
        let names: Vec<String> = names.iter().map(|a| format!("\"{}\"", esc(a))).collect();
        format!("\"attrs\":[{}],", names.join(","))
    });

    // Decide how the cache participates. A slice is keyed either by
    // its canonical ≅-form (finite) or its literal descriptor
    // (family/cells/fcf, whose wire form is already canonical).
    let canon = match (&adm.cache_fixed, db) {
        (Some(fixed), DbSpec::Finite(st)) if shared.cfg.cache && !no_cache => {
            Some(canonicalize_finite(st, fixed))
        }
        _ => None,
    };
    let mode = match (&adm.cache_fixed, db) {
        _ if !shared.cfg.cache || no_cache => CacheMode::Off,
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

    let work_cap = predicted_work(&adm, db);

    let _t = recdb_obs::span("serve.stage.execute.ns");
    match (db, &hs) {
        (_, Some(hs)) => {
            let mut interp = HsInterp::new(hs);
            serve(&mut interp, dialect, &adm, shared, &mode, work_cap, &attrs)
        }
        (DbSpec::Finite(st), None) => {
            let mut interp = FinInterp::new(st);
            serve(&mut interp, dialect, &adm, shared, &mode, work_cap, &attrs)
        }
        (DbSpec::Fcf(fcf), None) => {
            let mut interp = FcfInterp::new(fcf);
            serve(&mut interp, dialect, &adm, shared, &mode, work_cap, &attrs)
        }
        _ => internal("family resolution failed after admission"),
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
    shared: &Shared,
    mode: &CacheMode<'_>,
    work_cap: Option<u64>,
    attrs: &str,
) -> (u16, String)
where
    V: Served,
    B: GuardEval<V = V>,
{
    // A cache hit, in this slice's element names.
    let hit = match mode {
        CacheMode::Keyed { key, transport } => shared.cache.get(key).and_then(|entry| {
            let qk = V::cached(&entry)?;
            let answer = match transport {
                Some(p) => qk.transport(p, false),
                None => qk.clone(),
            };
            Some((key, answer.render()))
        }),
        _ => None,
    };
    match (&hit, mode) {
        (Some(_), _) => recdb_obs::count("serve.cache.hits", 1),
        (None, CacheMode::Keyed { .. }) => recdb_obs::count("serve.cache.misses", 1),
        _ => {}
    }
    let ok_hit = |rendered: &str| (200, ok_body(attrs, "hit", 0, adm.plan.mode(), rendered));
    if let (Some((_, rendered)), false) = (&hit, shared.cfg.verify_hits) {
        return ok_hit(rendered);
    }
    let budget = adm.plan.budget(shared.cfg.fuel_max, work_cap);
    let r = run_scheduled(b, dialect, &adm.prog, &budget, &shared.stop);
    if let Some((key, rendered)) = hit {
        // `verify_hits`: the hit must equal the fresh run.
        return match r.end {
            ExecEnd::Done(v) if v.render() == rendered => {
                recdb_obs::count("serve.cache.verified", 1);
                ok_hit(&rendered)
            }
            _ => {
                recdb_obs::count("serve.soundness_violations", 1);
                shared.cache.evict(key);
                (
                    500,
                    "{\"error\":\"cache hit failed differential verification\",\
                     \"status\":\"error\",\"violation\":\"cache-differential\"}"
                        .to_string(),
                )
            }
        };
    }
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
            let label = mode.label(false);
            (
                200,
                ok_body(attrs, label, r.iterations, adm.plan.mode(), &rendered),
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

// --- /v1/formula ---

fn handle_formula(body: &[u8]) -> (u16, String) {
    recdb_obs::count("serve.formula.requests", 1);
    let req = match decode_request(body, FormulaRequest::decode) {
        Ok(r) => r,
        Err(resp) => return resp,
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
