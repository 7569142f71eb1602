//! Seeded workload generation, and the reference evaluation every
//! response is checked against.
//!
//! All inputs are a pure function of `(workload, seed)`: the same seed
//! yields byte-identical request bodies, and nothing else reaches the
//! server. Expectations are computed in-process before timing starts,
//! through the interpreters' tree-walking executor (not the VM the
//! server prefers) and, for relational algebra, from the *unoptimized*
//! compiled program — so the check is differential, not a replay of
//! the server's own code path.

use recdb_conformance::gen::{self as cgen, ProgShape, RaShape};
use recdb_core::{Elem, FiniteStructure, Schema, SplitMix64, Tuple};
use recdb_qlhs::{Dialect, FcfInterp, FinInterp, HsInterp, Permutation};
use recdb_ra::{RaProgram, RaSchema};
use recdb_serve::admit::{admit, Admission, AdmitLimits, AdmitOutcome, Plan};
use recdb_serve::exec::{run_scheduled, Budget, ExecEnd, ExecResult, GuardEval};
use recdb_serve::json::{esc, parse};
use recdb_serve::proto::{build_hs, fcf_result_json, result_json, DbSpec, QueryRequest, RaRequest};
use recdb_serve::ServeConfig;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::AtomicBool;

/// The four closed-loop workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The loadgen class mix over keep-alive connections.
    MixKeepalive,
    /// A distinct seeded program per request, fresh connections.
    AdmitUnique,
    /// Value-heavy RA and QL queries above the cache's size limit.
    ValueJoin,
    /// Fuel-mode loops over tiny values with large budgets.
    FuelLoop,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::MixKeepalive,
        Workload::AdmitUnique,
        Workload::ValueJoin,
        Workload::FuelLoop,
    ];

    /// The workload's name on the command line and in the manifest.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixKeepalive => "mix_keepalive",
            Workload::AdmitUnique => "admit_unique",
            Workload::ValueJoin => "value_join",
            Workload::FuelLoop => "fuel_loop",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Keep-alive connections (otherwise one fresh connection per
    /// request, sent with `connection: close`).
    pub fn keep_alive(self) -> bool {
        self == Workload::MixKeepalive
    }

    /// Does the closed loop keep the server busy, so that latency and
    /// throughput move with the host's speed? Not on the mix, where
    /// today a ≈40 ms delayed-ACK timer makes up nearly all of each
    /// request's latency.
    pub fn cpu_bound(self) -> bool {
        self != Workload::MixKeepalive
    }

    /// Every request in the pool is distinct and sent at most once:
    /// the run ends early rather than repeat one.
    pub fn unique(self) -> bool {
        self == Workload::AdmitUnique
    }

    fn salt(self) -> u64 {
        match self {
            Workload::MixKeepalive => 0x6d69_785f,
            Workload::AdmitUnique => 0x6164_6d5f,
            Workload::ValueJoin => 0x6a6f_696e,
            Workload::FuelLoop => 0x6675_656c,
        }
    }

    /// Pool size: enough distinct requests that a run never repeats
    /// one on `admit_unique`; small fixed pools elsewhere, where
    /// repeats are harmless because the cache is bypassed.
    fn pool(self) -> usize {
        match self {
            Workload::MixKeepalive => 4096,
            Workload::AdmitUnique => 80_000,
            Workload::ValueJoin | Workload::FuelLoop => 48,
        }
    }
}

/// What a response must look like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// The exact status.
    pub status: u16,
    /// The body must start with this.
    pub prefix: String,
    /// The body must end with this.
    pub suffix: String,
}

impl Expect {
    /// Does a response satisfy this expectation?
    pub fn matches(&self, status: u16, body: &str) -> bool {
        status == self.status && body.starts_with(&self.prefix) && body.ends_with(&self.suffix)
    }
}

/// One generated request with its expected response.
#[derive(Clone, Debug)]
pub struct Req {
    /// The endpoint.
    pub path: &'static str,
    /// The JSON body, exactly as sent.
    pub body: String,
    /// The request class (loadgen tag on the mix, shape elsewhere).
    pub tag: &'static str,
    /// The expected response.
    pub expect: Expect,
}

/// Generates a workload's request pool from `seed`, with the
/// reference expectation of every request.
pub fn generate(w: Workload, seed: u64) -> Result<Vec<Req>, String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ w.salt());
    let raw: Vec<(&'static str, String, &'static str, Option<u16>)> = match w {
        Workload::MixKeepalive => Class::schedule(&mut rng, w.pool())
            .into_iter()
            .map(|c| {
                let body = c.body(&mut rng);
                (c.path(), body, c.tag(), Some(c.expected_status()))
            })
            .collect(),
        Workload::AdmitUnique => {
            let mut seen = HashSet::new();
            let mut out = Vec::with_capacity(w.pool());
            while out.len() < w.pool() {
                let (path, body) = unique_body(&mut rng);
                if seen.insert(body.clone()) {
                    out.push((path, body, "", None));
                }
            }
            out
        }
        Workload::ValueJoin => (0..w.pool())
            .map(|i| {
                let shape = JOIN_SHAPES[i % JOIN_SHAPES.len()];
                let (path, body) = shape.body(&mut rng);
                (path, body, shape.tag, Some(200))
            })
            .collect(),
        Workload::FuelLoop => (0..w.pool())
            .map(|i| {
                let shape = LOOP_SHAPES[i % LOOP_SHAPES.len()];
                ("/v1/query", shape.body(&mut rng), shape.tag, Some(408))
            })
            .collect(),
    };
    // References for the distinct bodies, computed on every core.
    let mut index: HashMap<(&str, &str), usize> = HashMap::new();
    let mut distinct: Vec<(&str, &str)> = Vec::new();
    for (path, body, _, _) in &raw {
        index.entry((*path, body.as_str())).or_insert_with(|| {
            distinct.push((*path, body.as_str()));
            distinct.len() - 1
        });
    }
    let chunk = distinct.len().div_ceil(crate::sys::nproc().max(1)).max(1);
    let refs: Vec<Result<(Expect, &'static str), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(p, b)| reference(p, b))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Err("reference thread panicked".into())])
            })
            .collect()
    });
    let mut out = Vec::with_capacity(raw.len());
    for (path, body, tag, want) in &raw {
        let (expect, verdict) = refs[index[&(*path, body.as_str())]].clone()?;
        if want.is_some_and(|s| s != expect.status) {
            return Err(format!(
                "{} class {tag}: generator expects {want:?} but the reference gives {} for {body}",
                w.name(),
                expect.status
            ));
        }
        out.push(Req {
            path,
            body: body.clone(),
            tag: if tag.is_empty() { verdict } else { tag },
            expect,
        });
    }
    Ok(out)
}

/// The fixed warm-up pass every server gets before it is measured: a
/// slice of the mix from a constant seed, so it fills the `HsInterp`
/// registry and the ≅-orbit cache entries the mix relies on, plus
/// [`WARMUP_LOOPS`] `fuel_loop` requests. Those are about a hundred
/// milliseconds of the server's steadiest work (interpreter dispatch
/// over tiny values, no allocation to speak of), so `setup_s` is
/// dominated by neither process-spawn jitter nor the first-touch page
/// faults of a fresh heap, which vary twofold on a shared host.
pub fn warmup() -> Result<Vec<Req>, String> {
    let mut reqs = generate(Workload::MixKeepalive, WARMUP_SEED)?;
    reqs.truncate(WARMUP_REQUESTS);
    reqs.extend(
        generate(Workload::FuelLoop, WARMUP_SEED)?
            .into_iter()
            .take(WARMUP_LOOPS),
    );
    Ok(reqs)
}

const WARMUP_SEED: u64 = 0x5ecd_eb0a;
const WARMUP_REQUESTS: usize = 64;
const WARMUP_LOOPS: usize = 24;

// --- reference evaluation ---

fn limits() -> AdmitLimits {
    let cfg = ServeConfig::default();
    AdmitLimits {
        fuel_default: cfg.fuel_default,
        fuel_max: cfg.fuel_max,
    }
}

/// The expected response for one request, plus a verdict tag
/// (`exact`, `fuel` or `reject`).
pub fn reference(path: &str, body: &str) -> Result<(Expect, &'static str), String> {
    let json = parse(body).map_err(|e| format!("generated body is not JSON: {}", e.msg))?;
    match path {
        "/v1/query" => {
            let req = QueryRequest::decode(&json).map_err(|e| e.0)?;
            query_reference(&req, String::new())
        }
        "/v1/ra" => {
            let req = RaRequest::decode(&json).map_err(|e| e.0)?;
            let schema = RaSchema::parse(&req.schema)?;
            let compiled = recdb_ra::parse_ra(&req.query)
                .map_err(|e| e.msg)
                .and_then(|p| {
                    recdb_ra::typecheck(&p, &schema)
                        .and_then(|_| recdb_ra::validate(&p, &schema))
                        .and_then(|()| recdb_ra::compile_program(&p, &schema))
                        .map_err(|e| e.to_string())
                });
            let Ok(compiled) = compiled else {
                return Ok((rejected("rejected"), "reject"));
            };
            let attrs: Vec<String> = compiled
                .attrs
                .iter()
                .map(|a| format!("\"{}\"", esc(a)))
                .collect();
            let qreq = QueryRequest {
                tenant: req.tenant,
                program: compiled.prog.to_string(),
                db: DbSpec::Finite(req.db),
                fuel: req.fuel,
                no_cache: req.no_cache,
            };
            query_reference(&qreq, format!("{{\"attrs\":[{}],", attrs.join(",")))
        }
        other => Err(format!("no reference for endpoint {other}")),
    }
}

fn rejected(status: &str) -> Expect {
    Expect {
        status: 422,
        prefix: String::new(),
        suffix: format!("\"status\":\"{status}\"}}"),
    }
}

fn query_reference(req: &QueryRequest, prefix: String) -> Result<(Expect, &'static str), String> {
    let dialect = req.db.dialect();
    let schema = req.db.schema().map_err(|e| e.0)?;
    let a = match admit(&req.program, &schema, dialect, req.fuel, &limits()) {
        AdmitOutcome::Admitted(a) => a,
        AdmitOutcome::Rejected { .. } => return Ok((rejected("rejected"), "reject")),
    };
    let prefix = if prefix.is_empty() {
        "{\"cache\":".to_string()
    } else {
        prefix + "\"cache\":"
    };
    let expect = match &req.db {
        DbSpec::Finite(st) => {
            let mut interp = FinInterp::new(st);
            interp.set_seminaive(true);
            expect_end(
                direct_run(&mut interp, dialect, &a),
                &a.plan,
                prefix,
                result_json,
            )
        }
        DbSpec::Family(_) | DbSpec::Cells(_) => {
            let hs = build_hs(&req.db).ok_or("family resolution failed")?;
            let mut interp = HsInterp::new(&hs);
            interp.set_seminaive(true);
            expect_end(
                direct_run(&mut interp, dialect, &a),
                &a.plan,
                prefix,
                result_json,
            )
        }
        DbSpec::Fcf(db) => {
            let mut interp = FcfInterp::new(db);
            interp.set_seminaive(true);
            expect_end(
                direct_run(&mut interp, dialect, &a),
                &a.plan,
                prefix,
                fcf_result_json,
            )
        }
    }?;
    Ok((expect, a.plan.mode()))
}

/// Runs an admitted program on the tree-walking executor under exactly
/// the budget the server grants it.
fn direct_run<B: GuardEval>(b: &mut B, dialect: Dialect, a: &Admission) -> ExecResult<B::V> {
    let no_bounds = BTreeMap::new();
    let budget = match &a.plan {
        Plan::Exact { iterations, bounds } => Budget {
            bounds,
            total_cap: *iterations,
            fuel: limits().fuel_max,
            work_cap: None,
        },
        Plan::Fueled { fuel } => Budget {
            bounds: &no_bounds,
            total_cap: u64::MAX,
            fuel: *fuel,
            work_cap: None,
        },
    };
    run_scheduled(b, dialect, &a.prog, &budget, &AtomicBool::new(false))
}

fn expect_end<V>(
    r: ExecResult<V>,
    plan: &Plan,
    prefix: String,
    render: fn(&V) -> String,
) -> Result<Expect, String> {
    match r.end {
        ExecEnd::Done(v) => Ok(Expect {
            status: 200,
            prefix,
            suffix: format!(",\"result\":{},\"status\":\"ok\"}}", render(&v)),
        }),
        ExecEnd::OutOfFuel => {
            let fuel = match plan {
                Plan::Fueled { fuel } => *fuel,
                Plan::Exact { .. } => 0,
            };
            Ok(Expect {
                status: 408,
                prefix: format!(
                    "{{\"fuel\":{fuel},\"iterations\":{},\"reason\":\"fuel-exhausted\",\"status\":\"preempted\"}}",
                    r.iterations
                ),
                suffix: String::new(),
            })
        }
        ExecEnd::Errored(_) => Ok(rejected("error")),
        _ => Err("reference run ended in a soundness violation".to_string()),
    }
}

// --- mix_keepalive: the loadgen classes, weights and bodies ---

/// `crates/serve/src/bin/loadgen.rs`'s request classes, reproduced
/// body for body (the binary exposes no library API).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    ExactOrbit,
    ExactFresh,
    FuelOk,
    RejectDiverge,
    RejectUnsafe,
    Family,
    Fcf,
    FuelExhaust,
    Heavy,
    RaExact,
    RaReject,
}

/// Class weights, as in loadgen.
pub const CLASSES: [(Class, u32); 11] = [
    (Class::ExactOrbit, 25),
    (Class::ExactFresh, 15),
    (Class::FuelOk, 15),
    (Class::RejectDiverge, 10),
    (Class::RejectUnsafe, 5),
    (Class::Family, 10),
    (Class::Fcf, 5),
    (Class::FuelExhaust, 10),
    (Class::Heavy, 5),
    (Class::RaExact, 7),
    (Class::RaReject, 3),
];

/// The loadgen class tags, one `class.<tag>.p50_ms` metric each.
pub const MIX_TAGS: [&str; 10] = [
    "exact_orbit",
    "exact_fresh",
    "fuel_ok",
    "admit_reject",
    "family",
    "fcf",
    "fuel_exhaust",
    "heavy",
    "ra_exact",
    "ra_reject",
];

impl Class {
    /// `n` classes in loadgen's proportions: blocks that hold each
    /// class exactly its weight's number of times, shuffled within the
    /// block. Every stretch of a hundred-odd requests then has the same
    /// composition whatever the seed; drawing each class independently,
    /// as loadgen does, moved the share of the costliest classes in a
    /// run by about ±15% from seed to seed.
    fn schedule(rng: &mut SplitMix64, n: usize) -> Vec<Class> {
        let block: Vec<Class> = CLASSES
            .iter()
            .flat_map(|&(c, w)| std::iter::repeat_n(c, w as usize))
            .collect();
        let mut out = Vec::with_capacity(n + block.len());
        while out.len() < n {
            let mut b = block.clone();
            for i in (1..b.len()).rev() {
                b.swap(i, rng.gen_usize(i + 1));
            }
            out.extend(b);
        }
        out.truncate(n);
        out
    }

    fn path(self) -> &'static str {
        match self {
            Class::RaExact | Class::RaReject => "/v1/ra",
            _ => "/v1/query",
        }
    }

    fn expected_status(self) -> u16 {
        match self {
            Class::RejectDiverge | Class::RejectUnsafe | Class::RaReject => 422,
            Class::FuelExhaust | Class::Heavy => 408,
            _ => 200,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Class::ExactOrbit => "exact_orbit",
            Class::ExactFresh => "exact_fresh",
            Class::FuelOk => "fuel_ok",
            Class::RejectDiverge | Class::RejectUnsafe => "admit_reject",
            Class::Family => "family",
            Class::Fcf => "fcf",
            Class::FuelExhaust => "fuel_exhaust",
            Class::Heavy => "heavy",
            Class::RaExact => "ra_exact",
            Class::RaReject => "ra_reject",
        }
    }

    fn body(self, rng: &mut SplitMix64) -> String {
        match self {
            Class::ExactOrbit => {
                let p = Permutation::random(rng, 5);
                let edges: Vec<String> = (0..4u64)
                    .map(|i| {
                        format!(
                            "[{},{}]",
                            p.apply(Elem(i)).value(),
                            p.apply(Elem(i + 1)).value()
                        )
                    })
                    .collect();
                finite_query("Y1 := R1;", &edges.join(","), None)
            }
            Class::ExactFresh => {
                let mut edges = Vec::new();
                for a in 0..5u64 {
                    for b in 0..5u64 {
                        if a != b && rng.gen_bool() && rng.gen_bool() {
                            edges.push(format!("[{a},{b}]"));
                        }
                    }
                }
                finite_query("Y1 := R1;", &edges.join(","), None)
            }
            Class::FuelOk => finite_query(
                "Y2 := R1; while empty(Y3) { Y3 := Y2; }",
                "[0,1],[1,2],[2,3]",
                Some(10_000),
            ),
            Class::FuelExhaust => {
                finite_two_rel_query("while empty(Y3) { Y3 := R2; }", "[0,1],[1,2]", Some(300))
            }
            Class::Heavy => finite_two_rel_query(
                "while empty(Y3) { Y3 := R2; }",
                "[0,1],[1,2],[2,3],[3,4]",
                Some(60_000),
            ),
            Class::RejectDiverge => finite_query("while empty(Y2) { Y3 := E; }", "[0,1]", None),
            Class::RejectUnsafe => finite_query("while single(Y1) { Y1 := E; }", "[0,1]", None),
            Class::Family => {
                r#"{"program":"Y1 := R1;","db":{"kind":"family","name":"clique"}}"#.to_string()
            }
            Class::Fcf => {
                let k = rng.gen_usize(5);
                format!(
                    r#"{{"program":"Y1 := R1;","db":{{"kind":"fcf","relations":[{{"cofinite":{{"arity":1,"exceptions":[[{k}]]}}}}]}}}}"#
                )
            }
            Class::RaExact => {
                let p = Permutation::random(rng, 4);
                let shift = |v: u64| p.apply(Elem(v)).value() + 1;
                let edges: Vec<String> = (0..3u64)
                    .map(|i| format!("[{},{}]", shift(i), shift(i + 1)))
                    .collect();
                ra_body(
                    "select #x = 0 (E union rename #x -> #y, #y -> #x (E))",
                    &edges.join(","),
                )
            }
            Class::RaReject => ra_body("E union not (E)", "[0,1]"),
        }
    }
}

fn ra_body(query: &str, edges: &str) -> String {
    format!(
        r#"{{"query":"{query}","schema":"E(x, y)","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":[{{"arity":2,"tuples":[{edges}]}}]}}}}"#
    )
}

fn finite_query(program: &str, edges: &str, fuel: Option<u64>) -> String {
    finite_body(
        program,
        &format!(r#"[{{"arity":2,"tuples":[{edges}]}}]"#),
        fuel,
    )
}

fn finite_two_rel_query(program: &str, edges: &str, fuel: Option<u64>) -> String {
    finite_body(
        program,
        &format!(r#"[{{"arity":2,"tuples":[{edges}]}},{{"arity":2,"tuples":[]}}]"#),
        fuel,
    )
}

fn finite_body(program: &str, relations: &str, fuel: Option<u64>) -> String {
    let fuel_part = match fuel {
        Some(f) => format!(",\"fuel\":{f}"),
        None => String::new(),
    };
    format!(
        r#"{{"program":"{program}","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":{relations}}}{fuel_part}}}"#
    )
}

// --- admit_unique: one distinct generated program per request ---

/// Fuel requested by every `admit_unique` program: small enough that
/// some generated loops exhaust it, so the 408 path is exercised.
const UNIQUE_FUEL: u64 = 5_000;

/// The wire `db` object of a finite structure.
fn finite_db_json(st: &FiniteStructure) -> String {
    let universe: Vec<String> = st
        .universe()
        .iter()
        .map(|e| e.value().to_string())
        .collect();
    let rels: Vec<String> = (0..st.schema().len())
        .map(|i| {
            let tuples: Vec<String> = st
                .relation(i)
                .iter()
                .map(|t| {
                    let parts: Vec<String> =
                        t.elems().iter().map(|e| e.value().to_string()).collect();
                    format!("[{}]", parts.join(","))
                })
                .collect();
            format!(
                "{{\"arity\":{},\"tuples\":[{}]}}",
                st.schema().arities()[i],
                tuples.join(",")
            )
        })
        .collect();
    format!(
        "{{\"kind\":\"finite\",\"universe\":[{}],\"relations\":[{}]}}",
        universe.join(","),
        rels.join(",")
    )
}

/// A random finite slice for an RA schema over the universe `0..size`.
fn random_ra_db(rng: &mut SplitMix64, schema: &RaSchema, size: u64) -> FiniteStructure {
    let arities: Vec<usize> = schema.rels().iter().map(|(_, a)| a.len()).collect();
    let relations = arities
        .iter()
        .map(|&k| {
            let n = rng.gen_usize(7);
            cgen::random_tuples(rng, n, k, size)
                .into_iter()
                .collect::<std::collections::BTreeSet<Tuple>>()
        })
        .collect();
    FiniteStructure::new(Schema::new(arities), (0..size).map(Elem), relations)
}

/// One `admit_unique` request: three in four are QL programs from the
/// conformance generator over a random graph with |D| ≤ 5, the rest RA
/// programs (some with bare complements the validator rejects) over
/// |D| ≤ 3 — RA joins pad to rank 7, so one wide join at |D| = 5 costs
/// hundreds of milliseconds and would dominate a run by itself.
fn unique_body(rng: &mut SplitMix64) -> (&'static str, String) {
    if rng.gen_usize(4) == 0 {
        let schema = cgen::random_ra_schema(rng);
        let shape = RaShape {
            depth: 2,
            views: rng.gen_usize(2),
            consts: 3,
            free_complement: rng.gen_bool(),
        };
        let prog: RaProgram = cgen::random_ra_program(rng, &schema, &shape);
        let size = 2 + rng.gen_range(0, 2);
        let db = random_ra_db(rng, &schema, size);
        let body = format!(
            "{{\"query\":\"{}\",\"schema\":\"{}\",\"db\":{},\"fuel\":{UNIQUE_FUEL}}}",
            esc(&prog.to_string()),
            esc(&schema.to_string()),
            finite_db_json(&db)
        );
        return ("/v1/ra", body);
    }
    let shape = ProgShape {
        rels: 1,
        vars: 3,
        allow_singleton: false,
        allow_finite: false,
        consts: 4,
        union_bias: false,
    };
    let size = 2 + rng.gen_range(0, 4);
    let st = cgen::random_finite_graph(rng, size);
    let src = cgen::random_prog(rng, 2, 3, &shape).to_string();
    let body = format!(
        "{{\"program\":\"{}\",\"db\":{},\"fuel\":{UNIQUE_FUEL}}}",
        esc(&src),
        finite_db_json(&st)
    );
    ("/v1/query", body)
}

// --- value_join: value-heavy queries above the canonicalization limit ---

/// |D| for every `value_join` graph: above `cache::MAX_CANON_FREE`, so
/// every request bypasses the result cache.
pub const JOIN_DOMAIN: u64 = 10;

/// One `value_join` request shape.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Class tag.
    pub tag: &'static str,
    /// `Some(schema)` for an RA query, `None` for a QL program.
    ra_schema: Option<&'static str>,
    /// The query or program text.
    text: &'static str,
}

/// Shapes whose per-request costs lie within about 2× of each other
/// (5–8 ms each at `JOIN_DOMAIN`).
pub const JOIN_SHAPES: [Shape; 6] = [
    Shape {
        tag: "ra_grandparent",
        ra_schema: Some("E(x, y)"),
        text: "project #x, #z (E join rename #x -> #y, #y -> #z (E))",
    },
    Shape {
        tag: "ra_path_diff",
        ra_schema: Some("E(x, y)"),
        text: "project #x, #z (E join rename #x -> #y, #y -> #z (E)) diff rename #y -> #z (E)",
    },
    Shape {
        tag: "ra_sources_path",
        ra_schema: Some("E(x, y)"),
        text: "Sources := project #x (E) diff project #x (rename #x -> #y, #y -> #x (E)); Sources join (E join rename #x -> #y, #y -> #z (E))",
    },
    Shape {
        tag: "ql_up_andnot",
        ra_schema: None,
        text: "Y1 := down(down(up(up(R1)) & !swap(up(up(R1)))));",
    },
    Shape {
        tag: "ql_up_swap",
        ra_schema: None,
        text: "Y2 := up(up(R1)); Y1 := down(down(!(Y2 & swap(Y2))));",
    },
    Shape {
        tag: "ql_compose",
        ra_schema: None,
        text: "Y2 := up(R1) & swap(up(swap(R1))); Y1 := down(!(up(Y2) & swap(up(Y2))));",
    },
];

impl Shape {
    fn body(self, rng: &mut SplitMix64) -> (&'static str, String) {
        let st = cgen::random_finite_graph(rng, JOIN_DOMAIN);
        match self.ra_schema {
            Some(schema) => (
                "/v1/ra",
                format!(
                    "{{\"query\":\"{}\",\"schema\":\"{schema}\",\"db\":{}}}",
                    self.text,
                    finite_db_json(&st)
                ),
            ),
            None => (
                "/v1/query",
                format!(
                    "{{\"program\":\"{}\",\"db\":{}}}",
                    self.text,
                    finite_db_json(&st)
                ),
            ),
        }
    }
}

// --- fuel_loop: long fuel-mode loops over tiny values ---

/// One `fuel_loop` shape: a loop whose guard feed `R2` is empty at
/// runtime (statically opaque, so admitted under fuel), run until its
/// budget is gone. Every value a body computes flows into the guard,
/// so the VM's dead-store elimination cannot drop it.
#[derive(Clone, Copy)]
pub struct LoopShape {
    /// Class tag.
    pub tag: &'static str,
    program: &'static str,
    /// Fuel per request, chosen so every shape costs about the same.
    fuel: u64,
}

/// Edges in every `fuel_loop` graph.
const LOOP_EDGES: usize = 4;

/// Loop shapes over values of at most five tuples, with budgets that
/// cost about 5 ms each on the VM.
pub const LOOP_SHAPES: [LoopShape; 4] = [
    LoopShape {
        tag: "spin",
        program: "while empty(Y3) { Y3 := R2; }",
        fuel: 1_000_000,
    },
    LoopShape {
        tag: "shuffle",
        program: "while empty(Y3) { Y4 := R2; Y3 := Y4; }",
        fuel: 1_000_000,
    },
    LoopShape {
        tag: "swap_and",
        program: "while empty(Y3) { Y2 := swap(R1) & R1; Y3 := R2 & Y2; }",
        fuel: 75_000,
    },
    LoopShape {
        tag: "const_and",
        program: "while empty(Y3) { Y2 := C1 & down(swap(R1)); Y3 := R2 & up(Y2); }",
        fuel: 75_000,
    },
];

impl LoopShape {
    /// `R1` is exactly [`LOOP_EDGES`] random distinct edges over 0..5:
    /// the ops' cost follows its size, so a fixed size keeps one seed's
    /// pool as costly as another's.
    fn body(self, rng: &mut SplitMix64) -> String {
        let mut edges = std::collections::BTreeSet::new();
        while edges.len() < LOOP_EDGES {
            edges.insert((rng.gen_range(0, 5), rng.gen_range(0, 5)));
        }
        let edges: Vec<String> = edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
        finite_two_rel_query(self.program, &edges.join(","), Some(self.fuel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        use crate::spec::{DEFAULT_SEED, HELDOUT_SEED};
        for w in Workload::ALL {
            if w == Workload::AdmitUnique {
                continue; // covered below on a prefix (the pool is large)
            }
            let a = generate(w, DEFAULT_SEED).unwrap();
            let b = generate(w, DEFAULT_SEED).unwrap();
            let c = generate(w, HELDOUT_SEED).unwrap();
            let bodies = |r: &[Req]| r.iter().map(|q| q.body.clone()).collect::<Vec<_>>();
            assert_eq!(bodies(&a), bodies(&b), "{}", w.name());
            assert_ne!(bodies(&a), bodies(&c), "{}", w.name());
        }
        let mut r1 = SplitMix64::seed_from_u64(DEFAULT_SEED);
        let mut r2 = SplitMix64::seed_from_u64(DEFAULT_SEED);
        let mut r3 = SplitMix64::seed_from_u64(HELDOUT_SEED);
        let a: Vec<_> = (0..200).map(|_| unique_body(&mut r1)).collect();
        let b: Vec<_> = (0..200).map(|_| unique_body(&mut r2)).collect();
        let c: Vec<_> = (0..200).map(|_| unique_body(&mut r3)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_matches_loadgen_weights_and_expectations() {
        let reqs = generate(Workload::MixKeepalive, 7).unwrap();
        for tag in MIX_TAGS {
            assert!(reqs.iter().any(|r| r.tag == tag), "class {tag} missing");
        }
        assert!(reqs.iter().any(|r| r.expect.status == 422));
        assert!(reqs.iter().any(|r| r.expect.status == 408));
    }

    /// Median served latency per request class, in milliseconds: an
    /// in-process server with one worker after the fixed warm-up, one
    /// closed-loop client connecting the way the workload does, for
    /// `ms` milliseconds. Classes too rare to be reached in that time
    /// are absent.
    pub(super) fn served_p50_by_class(
        w: Workload,
        reqs: &[Req],
        ms: u64,
    ) -> BTreeMap<&'static str, f64> {
        use crate::drive::{closed_loop, encode_all, Plan};
        let server = recdb_serve::Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        crate::e2e::warm(server.addr(), &warmup().unwrap(), 1).unwrap();
        let plan = Plan {
            threads: 1,
            keep_alive: w.keep_alive(),
            unique: false,
            duration: std::time::Duration::from_millis(ms),
        };
        let out = closed_loop(server.addr(), reqs, &encode_all(reqs, w.keep_alive()), plan);
        server.shutdown();
        assert_eq!(out.failed(), 0, "{:?}", out.first_errors);
        let mut lat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &out.samples {
            lat.entry(reqs[s.idx].tag)
                .or_default()
                .push(s.latency_ns as f64 / 1e6);
        }
        lat.into_iter()
            .map(|(tag, v)| (tag, crate::stats::median(&v)))
            .collect()
    }

    /// Cumulative pool shares, cheapest class first, at every served
    /// cost gap of more than 2× between neighbouring classes: the
    /// places where a percentile would jump between two classes.
    fn cost_gap_boundaries(reqs: &[Req], cost: &BTreeMap<&str, f64>) -> Vec<f64> {
        let mut classes: Vec<(f64, usize)> = cost
            .iter()
            .map(|(tag, c)| (*c, reqs.iter().filter(|r| r.tag == *tag).count()))
            .collect();
        classes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cumulative = 0;
        let mut out = Vec::new();
        for pair in classes.windows(2) {
            cumulative += pair[0].1;
            if pair[1].0 > 2.0 * pair[0].0 {
                out.push(cumulative as f64 / reqs.len() as f64);
            }
        }
        out
    }

    /// Guards against a reported percentile sitting on the seam
    /// between a cheap and an expensive request class, where it would
    /// flip between the two from run to run. Costs are the latencies
    /// the server actually serves (cache hits, VM runs and the mix's
    /// keep-alive stall included), not the reference evaluation's.
    #[test]
    fn reported_percentiles_avoid_class_boundaries() {
        for (w, ms) in [
            (Workload::MixKeepalive, 3000),
            (Workload::ValueJoin, 1500),
            (Workload::FuelLoop, 1500),
        ] {
            for seed in [crate::spec::DEFAULT_SEED, crate::spec::HELDOUT_SEED] {
                let reqs = generate(w, seed).unwrap();
                let cost = served_p50_by_class(w, &reqs, ms);
                assert!(cost.len() >= 4, "{}: too few classes served", w.name());
                for b in cost_gap_boundaries(&reqs, &cost) {
                    for q in [0.5, 0.9] {
                        assert!(
                            (b - q).abs() >= 0.01,
                            "{} seed {seed}: p{} sits at a class boundary ({b:.3}) of {cost:?}",
                            w.name(),
                            q * 100.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expectations_accept_the_right_bodies() {
        let e = Expect {
            status: 200,
            prefix: "{\"cache\":".into(),
            suffix: ",\"result\":{\"rank\":0,\"tuples\":[]},\"status\":\"ok\"}".into(),
        };
        assert!(e.matches(
            200,
            "{\"cache\":\"miss\",\"iterations\":0,\"mode\":\"exact\",\"result\":{\"rank\":0,\"tuples\":[]},\"status\":\"ok\"}"
        ));
        assert!(!e.matches(
            200,
            "{\"cache\":\"miss\",\"result\":{\"rank\":1,\"tuples\":[]},\"status\":\"ok\"}"
        ));
        assert!(!e.matches(
            500,
            "{\"cache\":\"miss\",\"result\":{\"rank\":0,\"tuples\":[]},\"status\":\"ok\"}"
        ));
    }
}

#[cfg(test)]
mod calibrate {
    use super::*;

    /// Prints each shape's median served latency (run with
    /// `--ignored --nocapture` when retuning shapes or budgets).
    #[test]
    #[ignore]
    fn shape_costs() {
        for w in [Workload::ValueJoin, Workload::FuelLoop] {
            let reqs = generate(w, 1).unwrap();
            for (tag, ms) in tests::served_p50_by_class(w, &reqs, 3000) {
                println!("{} {tag}: p50={ms:.3} ms", w.name());
            }
        }
    }
}
