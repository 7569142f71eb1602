//! Metrics-invariance property suite (ISSUE 3, satellite 1): the
//! observability layer is a pure side channel. Every instrumented
//! entry point — `v_n_r`, `find_r0`, `partition_by_local_iso`, the
//! QLhs `HsInterp`, the semi-naive delta engine, and the incremental
//! refinement caches — must return bit-identical results with a
//! recorder installed, with none installed, and after uninstalling one
//! again.
//!
//! Compiling the suite with `--features parallel` routes the same
//! assertions through the threaded partition pipeline, so the ledger
//! seed exercises both schedules:
//!
//! ```text
//! cargo test -p recdb-suite --test metrics_invariance
//! cargo test -p recdb-suite --test metrics_invariance --features parallel
//! ```
//!
//! Tests in this binary share the process-global recorder slot and so
//! serialize on a local lock.

use recdb_conformance::gen::{random_graph_db, random_tuples};
use recdb_core::{fnv1a, FiniteStructure, Fuel, SplitMix64};
use recdb_hsdb::{
    find_r0, infinite_clique, paper_example_graph, partition_by_local_iso, rado_graph, unary_cells,
    v_n_r, CellSize, HsDatabase, IncrementalPartition, VnrCache,
};
use recdb_obs::InMemoryRecorder;
use recdb_qlhs::{FinInterp, HsInterp, Prog, Term, Val};
use std::sync::{Mutex, MutexGuard};

/// Fixed ledger seed (`recdb_conformance::DEFAULT_SEED`).
const SEED: u64 = 0x5ecd_eb0a;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn rng_for(test: &str) -> SplitMix64 {
    SplitMix64::seed_from_u64(fnv1a(test) ^ SEED)
}

/// Zoo members paired with the deepest tree level that is practical to
/// enumerate (the Rado graph's BIT coding is shallow-only — see
/// `FamilyInfo::practical_depth` in the hsdb catalog).
fn zoo() -> Vec<(HsDatabase, usize)> {
    vec![
        (infinite_clique(), usize::MAX),
        (paper_example_graph(), usize::MAX),
        (
            unary_cells(vec![CellSize::Infinite, CellSize::Infinite]),
            usize::MAX,
        ),
        (rado_graph(), 3),
    ]
}

/// Runs `f` three ways — bare, with an installed recorder, bare again —
/// and asserts all three results are identical. Returns the bare one.
fn invariant_under_recorder<R: PartialEq + std::fmt::Debug>(
    what: &str,
    mut f: impl FnMut() -> R,
) -> R {
    let before = f();
    recdb_obs::install(InMemoryRecorder::shared());
    let during = f();
    recdb_obs::uninstall();
    let after = f();
    assert_eq!(
        before, during,
        "{what}: recorder install changed the result"
    );
    assert_eq!(before, after, "{what}: recorder uninstall left residue");
    before
}

/// `v_n_r` over the zoo at the (n, r) grid the conformance ledger
/// uses: identical partitions (block order included) recorder on/off.
#[test]
fn v_n_r_invariant_on_zoo() {
    let _g = serial();
    for (hs, depth) in zoo() {
        let name = hs.database().name().to_string();
        for n in 1..=2 {
            for r in 0..=2 {
                if n + r > depth {
                    continue;
                }
                invariant_under_recorder(&format!("v_n_r({name}, {n}, {r})"), || {
                    v_n_r(&hs, n, r).expect("deterministic tree")
                });
            }
        }
    }
}

/// `find_r0` returns the same (r₀, trajectory) pair recorder on/off.
#[test]
fn find_r0_invariant_on_zoo() {
    let _g = serial();
    for (hs, depth) in zoo() {
        let name = hs.database().name().to_string();
        let max_r = 3.min(depth.saturating_sub(1));
        invariant_under_recorder(&format!("find_r0({name})"), || {
            find_r0(&hs, 1, max_r).expect("deterministic tree")
        });
    }
}

/// The bucketed partition on seeded random graph databases (the same
/// generator family the conformance ledger draws from) is identical
/// recorder on/off — covering inputs where fingerprint buckets do
/// split and the pairwise-fallback path runs under instrumentation.
#[test]
fn partition_invariant_on_seeded_random_dbs() {
    let _g = serial();
    let mut rng = rng_for("partition_invariant_on_seeded_random_dbs");
    for case in 0..12 {
        let db = random_graph_db(&mut rng, &format!("inv-{case}"));
        let tuples = random_tuples(&mut rng, 24, 2, 10);
        invariant_under_recorder(&format!("partition(case {case})"), || {
            partition_by_local_iso(&db, &tuples)
        });
    }
}

/// `HsInterp::run` on seeded rank-2 term programs produces identical
/// values recorder on/off — the canonical-rep cache counters must not
/// leak into evaluation.
#[test]
fn hs_interp_invariant_on_seeded_terms() {
    let _g = serial();
    let mut rng = rng_for("hs_interp_invariant_on_seeded_terms");
    // Graph-schema zoo members only (unary_cells has no binary R1).
    for hs in [infinite_clique(), paper_example_graph(), rado_graph()] {
        let name = hs.database().name().to_string();
        for case in 0..8 {
            let t = rank2_term(&mut rng, 3);
            let prog = Prog::assign(0, t);
            invariant_under_recorder(&format!("hs_interp({name}, case {case})"), || {
                let v: Val = HsInterp::new(&hs)
                    .run(&prog, &mut Fuel::new(5_000_000))
                    .expect("rank-2 terms are total on graph schemas");
                v
            });
        }
    }
}

/// The semi-naive delta engine is a pure evaluation strategy: a
/// reachability fixpoint through `FinInterp` returns the identical
/// `Val` recorder on/off, with the delta engine both enabled (the
/// `fixpoint.delta.*` histograms fire) and disabled (the from-scratch
/// path), and the two engines agree with each other.
#[test]
fn seminaive_fixpoint_invariant_under_recorder() {
    let _g = serial();
    const LAST: u64 = 23;
    let st = FiniteStructure::undirected_graph(0..=LAST, (0..LAST).map(|i| (i, i + 1)));
    let union = |v: usize, s: Term| Prog::assign(v, Term::Var(v).union(s));
    let succ = Term::Var(1).up().and(Term::Rel(0)).down();
    let prog = Prog::seq([
        Prog::assign(1, Term::Const(0)),
        Prog::assign(2, Term::Const(0).and(Term::Const(LAST))),
        Prog::WhileEmpty(
            2,
            Box::new(Prog::seq([
                union(1, succ),
                union(2, Term::Var(1).and(Term::Const(LAST))),
            ])),
        ),
    ]);
    let run = |seminaive: bool| {
        invariant_under_recorder(&format!("fin_interp(seminaive={seminaive})"), || {
            let mut i = FinInterp::new(&st);
            i.set_seminaive(seminaive);
            i.run(&prog, &mut Fuel::new(10_000_000))
                .expect("path reachability terminates")
        })
    };
    assert_eq!(run(true), run(false), "delta engine diverged from scratch");
}

/// `IncrementalPartition` and `VnrCache` produce identical partitions
/// recorder on/off — the `refine.incr.*` counters and the reproject
/// span must not leak into the maintained state.
#[test]
fn incremental_refinement_invariant_under_recorder() {
    let _g = serial();
    let mut rng = rng_for("incremental_refinement_invariant_under_recorder");
    let db = random_graph_db(&mut rng, "incr-inv");
    let tuples = random_tuples(&mut rng, 24, 2, 10);
    invariant_under_recorder("incremental_partition", || {
        let mut part = IncrementalPartition::new(&db);
        for t in &tuples {
            part.insert(t.clone());
        }
        part.blocks().clone()
    });
    let hs = paper_example_graph();
    let nodes = hs.t_n(1);
    invariant_under_recorder("vnr_cache(paper_example, r=1)", || {
        let mut cache = VnrCache::new(&hs, 1);
        for u in &nodes {
            cache.insert(u.clone());
        }
        cache.partition().expect("tree covers depth 1")
    });
}

// --- serving layer (ISSUE 7, satellite 3) ---

/// A fixed, fully deterministic request burst against a live server,
/// dispatched *sequentially* (concurrency would make the cache
/// hit/miss labels schedule-dependent). The mix touches every
/// admission verdict, the cache hit/miss/bypass paths, a fuel
/// preemption, a runtime error, the formula endpoint, a malformed
/// request, a protocol-shape error, and a mid-request connection drop
/// — every `serve.*` metric except the two that only fire on bugs
/// (`serve.panics`, `serve.soundness_violations`).
fn serve_burst(addr: std::net::SocketAddr) -> Vec<(u16, String)> {
    use recdb_serve::{post_once, Conn};
    let finite = |prog: &str, edges: &str, extra: &str| {
        format!(
            r#"{{"program":"{prog}","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":[{{"arity":2,"tuples":[{edges}]}}]}}{extra}}}"#
        )
    };
    let queries = [
        // Exact admission: miss, identical hit, orbit-relabeled hit.
        finite("Y1 := R1;", "[0,1],[1,2]", ""),
        finite("Y1 := R1;", "[0,1],[1,2]", ""),
        finite("Y1 := R1;", "[4,1],[1,2]", ""),
        // Canonicalization bypass: > 6 free elements.
        r#"{"program":"Y1 := R1;","db":{"kind":"finite","universe":[0,1,2,3,4,5,6,7,8,9],"relations":[{"arity":2,"tuples":[[0,1]]}]}}"#.to_string(),
        // Fuel mode, completing.
        finite(
            "Y2 := R1; while empty(Y3) { Y3 := Y2; }",
            "[0,1]",
            ",\"fuel\":10000",
        ),
        // Fuel mode, exhausting (R2 empty at runtime, opaque statically).
        r#"{"program":"while empty(Y3) { Y3 := R2; }","db":{"kind":"finite","universe":[0,1],"relations":[{"arity":2,"tuples":[[0,1]]},{"arity":2,"tuples":[]}]},"fuel":300}"#.to_string(),
        // Rejections: proved divergence, dialect unsafety.
        finite("while empty(Y2) { Y3 := E; }", "[0,1]", ""),
        finite("while single(Y1) { Y1 := E; }", "[0,1]", ""),
        // Protocol-shape error (valid HTTP, invalid JSON).
        "{not json".to_string(),
        // Runtime error: `up` on a co-finite value passes admission.
        r#"{"program":"Y1 := up(R1);","db":{"kind":"fcf","relations":[{"cofinite":{"arity":1,"exceptions":[[2]]}}]}}"#.to_string(),
    ];
    let mut out = Vec::new();
    for body in &queries {
        let r = post_once(addr, "/v1/query", body).expect("query round trip");
        out.push((r.status, r.body));
    }
    // The RA endpoint: one accepted compile-and-run, one RA05
    // rejection — `serve.ra.queries` and `serve.ra.rejections` fire.
    for q in ["project #y (E)", "E union not (E)"] {
        let body = format!(
            r#"{{"query":"{q}","schema":"E(x, y)","db":{{"kind":"finite","universe":[0,1,2],"relations":[{{"arity":2,"tuples":[[0,1]]}}]}},"no_cache":true}}"#
        );
        let r = post_once(addr, "/v1/ra", &body).expect("ra round trip");
        out.push((r.status, r.body));
    }
    let r = post_once(
        addr,
        "/v1/formula",
        r#"{"formula":"{(x,y) | R1(x,y)}","db":{"kind":"finite","universe":[0,1,2],"relations":[{"arity":2,"tuples":[[0,1]]}]},"tuples":[[0,1],[1,0]]}"#,
    )
    .expect("formula round trip");
    out.push((r.status, r.body));
    // Malformed HTTP (unsupported version) — 400, connection closed.
    let mut c = Conn::connect(addr).expect("connect");
    c.send_raw(b"GET /v1/health HTTP/9\r\n\r\n").expect("send");
    let r = c.read_response().expect("read 400");
    out.push((r.status, r.body));
    // Mid-request drop: half a head, then hang up.
    {
        let mut c = Conn::connect(addr).expect("connect");
        c.send_raw(b"POST /v1/query HTTP/1.1\r\ncontent-le")
            .expect("send partial");
    }
    // A trailing request — the kernel's accept queue is FIFO, so once
    // this response is back, a worker has accepted the dropped
    // connection; shutdown's join then guarantees its
    // `serve.conn_drops` tick lands before any snapshot.
    let mut c = Conn::connect(addr).expect("connect");
    let r = c.request("GET", "/v1/health", "", true).expect("health");
    out.push((r.status, r.body));
    out
}

fn serve_server(workers: usize) -> recdb_serve::Server {
    recdb_serve::Server::start(recdb_serve::ServeConfig {
        workers,
        verify_hits: true,
        read_timeout_ms: 200,
        ..recdb_serve::ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

/// The serving layer's responses are bit-identical with a recorder
/// installed, with none, and after uninstalling one — the request
/// spans and admission counters are a pure side channel.
#[test]
fn serve_burst_invariant_under_recorder() {
    let _g = serial();
    invariant_under_recorder("serve_burst", || {
        let s = serve_server(2);
        let out = serve_burst(s.addr());
        s.shutdown();
        out
    });
}

/// A serial worker and a sharded worker pool emit the same metric
/// *key set* over the fixed burst (values legitimately differ across
/// schedules; which metrics exist must not).
#[test]
fn serve_metric_key_sets_match_across_worker_shards() {
    let _g = serial();
    let run = |workers: usize| {
        let rec = InMemoryRecorder::shared();
        recdb_obs::install(rec.clone());
        let s = serve_server(workers);
        serve_burst(s.addr());
        s.shutdown(); // joins workers: every metric is recorded by now
        recdb_obs::uninstall();
        assert!(
            rec.counter_value("serve.cache.hits") > 0,
            "burst must exercise the hit path ({workers} workers)"
        );
        assert!(
            rec.counter_value("serve.cache.misses") > 0,
            "burst must exercise the miss path ({workers} workers)"
        );
        assert_eq!(
            rec.counter_value("serve.soundness_violations"),
            0,
            "burst must stay violation-free ({workers} workers)"
        );
        let spans = |name: &str| rec.histogram(name).map_or(0, |h| h.count);
        assert_eq!(
            spans("serve.stage.write.ns"),
            rec.counter_value("serve.requests"),
            "one write span per routed request ({workers} workers)"
        );
        rec.snapshot().keys()
    };
    assert_eq!(
        run(1),
        run(4),
        "metric key sets diverged across worker configurations"
    );
}

/// Every request builds its own `HsInterp`, so the canonical-rep cache
/// counters a request bumps depend on the request alone: the same
/// uncached cells request, sent twice on one keep-alive connection
/// (hence to one worker), must report the same `qlhs.canon_*` deltas
/// both times.
#[test]
fn canon_counters_do_not_depend_on_an_earlier_request() {
    let _g = serial();
    let rec = InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    let s = serve_server(1);
    let mut c = recdb_serve::Conn::connect(s.addr()).expect("connect");
    let body = r#"{"program":"Y2 := up(C3); Y1 := swap(Y2) & down(up(Y2));","db":{"kind":"cells","cells":[[0,1,2,3],"inf"]},"no_cache":true}"#;
    let canon = || {
        (
            rec.counter_value("qlhs.canon_hits"),
            rec.counter_value("qlhs.canon_misses"),
        )
    };
    let mut deltas = Vec::new();
    for _ in 0..2 {
        let (hits, misses) = canon();
        let r = c.post("/v1/query", body).expect("cells round trip");
        assert_eq!(r.status, 200, "{}", r.body);
        let (hits_after, misses_after) = canon();
        deltas.push((hits_after - hits, misses_after - misses));
    }
    drop(c);
    s.shutdown();
    recdb_obs::uninstall();
    assert!(deltas[0].1 > 0, "the request must canonicalize: {deltas:?}");
    assert_eq!(
        deltas[0], deltas[1],
        "(canon_hits, canon_misses) deltas differ between identical requests"
    );
}

// --- cost analysis & RA rewriter (ISSUE 9, satellite 3) ---

/// `analyze_full`'s cost pass and the RA optimizer emit
/// `analyze.cost.*` / `ra.rewrite.*` counters but must return
/// bit-identical verdicts, statement bounds, diagnostics, and chosen
/// plans recorder on/off.
#[test]
fn cost_analysis_and_rewriter_invariant_under_recorder() {
    let _g = serial();
    use recdb_conformance::gen::{random_prog, random_ra_program, ProgShape, RaShape};
    use recdb_qlhs::Dialect;
    let mut rng = rng_for("cost_analysis_and_rewriter_invariant_under_recorder");
    let schema = recdb_core::Schema::new(vec![2, 2]);
    let shape = ProgShape {
        rels: 2,
        vars: 3,
        allow_singleton: false,
        allow_finite: false,
        consts: 3,
        union_bias: true,
    };
    let progs: Vec<_> = (0..10)
        .map(|_| random_prog(&mut rng, 2, 3, &shape))
        .collect();
    invariant_under_recorder("cost_analysis", || {
        progs
            .iter()
            .map(|p| {
                let full = recdb_analyze::analyze_full(p, &schema, Dialect::Ql);
                (
                    full.cost.verdict.to_string(),
                    full.cost
                        .stmts
                        .iter()
                        .map(|s| (s.path.clone(), s.executions, format!("{:?}", s.work)))
                        .collect::<Vec<_>>(),
                    full.cost.diagnostics.len(),
                )
            })
            .collect::<Vec<_>>()
    });
    let ra_schema = recdb_ra::RaSchema::sanitized([("E", vec!["x", "y"])]);
    let ra_shape = RaShape {
        depth: 3,
        views: 2,
        consts: 3,
        free_complement: false,
    };
    let ra_progs: Vec<_> = (0..10)
        .map(|_| random_ra_program(&mut rng, &ra_schema, &ra_shape))
        .collect();
    invariant_under_recorder("ra_rewriter", || {
        ra_progs
            .iter()
            .map(|p| {
                let r =
                    recdb_ra::optimize_program(p, &ra_schema).expect("generator programs optimize");
                (
                    r.program.to_string(),
                    r.changed,
                    r.cost_chosen,
                    r.cost_original,
                )
            })
            .collect::<Vec<_>>()
    });
}

// --- relational-algebra frontend (ISSUE 8, satellite 4) ---

/// RA compile + evaluate burst: the `ra.compile.*`, `ra.eval.*`, and
/// `ra.safety.*` instruments are a pure side channel. A fixed seeded
/// mix of validator-accepted and RA05-rejected programs is compiled,
/// directly evaluated, and (when accepted) run through `FinInterp` —
/// all outcomes bit-identical recorder on/off.
#[test]
fn ra_compile_eval_burst_invariant_under_recorder() {
    let _g = serial();
    use recdb_conformance::gen::{random_ra_program, random_ra_schema, random_tuples, RaShape};
    use recdb_core::Elem;
    use std::collections::BTreeSet;
    let mut rng = rng_for("ra_compile_eval_burst_invariant_under_recorder");
    let shape = RaShape {
        depth: 3,
        views: 2,
        consts: 3,
        free_complement: true,
    };
    // Pre-draw the burst so all three recorder configurations replay
    // the identical programs and slices.
    let mut cases = Vec::new();
    for _ in 0..10 {
        let schema = random_ra_schema(&mut rng);
        let universe: Vec<Elem> = (0..4).map(Elem).collect();
        let rels: Vec<BTreeSet<recdb_core::Tuple>> = (0..schema.rels().len())
            .map(|i| {
                random_tuples(&mut rng, 6, schema.attrs(i).len(), 4)
                    .into_iter()
                    .collect()
            })
            .collect();
        let st = FiniteStructure::new(schema.core_schema(), universe, rels);
        let p = random_ra_program(&mut rng, &schema, &shape);
        cases.push((schema, st, p));
    }
    invariant_under_recorder("ra_burst", || {
        cases
            .iter()
            .map(|(schema, st, p)| {
                let direct = recdb_ra::eval_program(p, schema, st, st.universe())
                    .expect("generator programs are well-typed");
                let compiled = recdb_ra::compile_program(p, schema);
                let run = compiled.as_ref().ok().map(|c| {
                    FinInterp::new(st)
                        .run(&c.prog, &mut Fuel::new(1_000_000))
                        .expect("straight-line programs are total")
                });
                (
                    direct.tuples,
                    compiled
                        .map(|c| (c.prog.to_string(), c.attrs))
                        .map_err(|e| e.to_string()),
                    run,
                )
            })
            .collect::<Vec<_>>()
    });
}

/// Cache hits re-verified against a fresh run (`verify_hits`): the
/// fixed burst returns byte-identical responses recorder on/off.
#[test]
fn verified_hit_burst_invariant_under_recorder() {
    let _g = serial();
    invariant_under_recorder("verified_hit_burst", || {
        let s = recdb_serve::Server::start(recdb_serve::ServeConfig {
            workers: 2,
            verify_hits: true,
            read_timeout_ms: 200,
            ..recdb_serve::ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let out = serve_burst(s.addr());
        s.shutdown();
        out
    });
}

// --- bytecode VM ---

/// Bytecode compilation, verification, and execution emit `vm.*`
/// counters but must return bit-identical obstructions, bytecode, and
/// values recorder on/off.
#[test]
fn vm_compile_exec_invariant_under_recorder() {
    let _g = serial();
    use recdb_conformance::gen::{random_finite_graph, random_prog, ProgShape};
    use recdb_qlhs::Dialect;
    use recdb_vm::{compile, exec_plain, verify, LowerOpts};
    let mut rng = rng_for("vm_compile_exec_invariant_under_recorder");
    let shape = ProgShape {
        rels: 1,
        vars: 3,
        allow_singleton: false,
        allow_finite: false,
        consts: 3,
        union_bias: true,
    };
    let st = random_finite_graph(&mut rng, 4);
    let progs: Vec<_> = (0..12)
        .map(|_| random_prog(&mut rng, 2, 3, &shape))
        .collect();
    invariant_under_recorder("vm_compile_exec", || {
        progs
            .iter()
            .map(|p| {
                let full = recdb_analyze::analyze_full(p, st.schema(), Dialect::Ql);
                let vm = match compile(
                    p,
                    st.schema(),
                    Dialect::Ql,
                    &full.termination,
                    &LowerOpts::default(),
                ) {
                    Err(o) => return Err(format!("{o}")),
                    Ok(vm) => vm,
                };
                verify(
                    &vm,
                    p,
                    st.schema(),
                    Dialect::Ql,
                    &full.termination,
                    Some(&full.cost.verdict),
                )
                .expect("verifier accepts the compiler's output");
                let mut b = FinInterp::new(&st);
                let val = exec_plain(&mut b, &vm, &mut Fuel::new(2_000)).map_err(|e| e.to_string());
                Ok((vm.dump(), val))
            })
            .collect::<Vec<_>>()
    });
}

/// Random rank-preserving term over {E, R1, ¬, swap, ∧} — mirrors the
/// qlhs property-test generator.
fn rank2_term(rng: &mut SplitMix64, depth: usize) -> Term {
    if depth == 0 || rng.gen_usize(4) == 0 {
        return if rng.gen_bool() {
            Term::E
        } else {
            Term::Rel(0)
        };
    }
    match rng.gen_usize(3) {
        0 => rank2_term(rng, depth - 1).not(),
        1 => rank2_term(rng, depth - 1).swap(),
        _ => rank2_term(rng, depth - 1).and(rank2_term(rng, depth - 1)),
    }
}
