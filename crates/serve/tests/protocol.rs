//! Deterministic protocol suite: every admission verdict path, the
//! cache paths, malformed input, oversized bodies, and mid-request
//! connection drops — ephemeral ports, fixed seeds, no sleeps.

use recdb_core::SplitMix64;
use recdb_qlhs::Permutation;
use recdb_serve::client::Conn;
use recdb_serve::{ServeConfig, Server};

fn server() -> Server {
    Server::start(ServeConfig {
        verify_hits: true,
        read_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn conn(s: &Server) -> Conn {
    Conn::connect(s.addr()).expect("connect")
}

fn finite_query(program: &str, edges: &str, extra: &str) -> String {
    format!(
        r#"{{"program":"{program}","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":[{{"arity":2,"tuples":[{edges}]}}]}}{extra}}}"#
    )
}

#[test]
fn health_and_unknown_routes() {
    let s = server();
    let mut c = conn(&s);
    let r = c.get("/v1/health").unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, "{\"status\":\"ok\"}"));
    assert_eq!(c.get("/v1/nope").unwrap().status, 404);
    assert_eq!(c.post("/v1/health", "{}").unwrap().status, 405);
}

#[test]
fn exact_admission_runs_under_proved_budget() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post("/v1/query", &finite_query("Y1 := R1;", "[0,1],[1,2]", ""))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"mode\":\"exact\""), "{}", r.body);
    assert!(
        r.body
            .contains("\"result\":{\"rank\":2,\"tuples\":[[0,1],[1,2]]}"),
        "{}",
        r.body
    );
}

#[test]
fn cost_bounded_programs_run_within_their_work_caps() {
    let s = server();
    let mut c = conn(&s);
    // Cost-bounded programs are admitted with a hard work cap
    // (the §11 polynomial instantiated at this slice); a sound bound
    // never trips on the actual run, so these must all be 200s.
    for prog in [
        "Y1 := E & R1;",
        "Y1 := up(down(R1)); Y2 := Y1 & R1;",
        "Y1 := !R1 & R1;",
    ] {
        let r = c
            .post("/v1/query", &finite_query(prog, "[0,1],[1,2],[2,3]", ""))
            .unwrap();
        assert_eq!(r.status, 200, "{prog}: {}", r.body);
        assert!(!r.body.contains("work-exceeded"), "{prog}: {}", r.body);
    }
}

#[test]
fn unknown_termination_runs_under_fuel() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post(
            "/v1/query",
            &finite_query(
                "Y2 := R1; while empty(Y3) { Y3 := Y2; }",
                "[0,1]",
                ",\"fuel\":10000",
            ),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"mode\":\"fuel\""), "{}", r.body);
    assert!(
        r.body.contains("\"cache\":\"off\""),
        "unproved ⇒ uncached: {}",
        r.body
    );
}

#[test]
fn fuel_exhaustion_preempts_with_408() {
    let s = server();
    let mut c = conn(&s);
    // R2 is empty at runtime but statically opaque: fuel-mode, never
    // exits, stopped by the 300-tick budget.
    let body = r#"{"program":"while empty(Y3) { Y3 := R2; }","db":{"kind":"finite","universe":[0,1],"relations":[{"arity":2,"tuples":[[0,1]]},{"arity":2,"tuples":[]}]},"fuel":300}"#;
    let r = c.post("/v1/query", body).unwrap();
    assert_eq!(r.status, 408, "{}", r.body);
    assert!(
        r.body.contains("\"reason\":\"fuel-exhausted\""),
        "{}",
        r.body
    );
    assert!(r.body.contains("\"fuel\":300"), "{}", r.body);
}

#[test]
fn provable_divergence_rejects_with_span_diagnostics() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post(
            "/v1/query",
            &finite_query("while empty(Y2) { Y3 := E; }", "[0,1]", ""),
        )
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"reasons\":[\"diverges\"]"), "{}", r.body);
    assert!(r.body.contains("\"line\":1"), "span-resolved: {}", r.body);
}

#[test]
fn dialect_unsafety_rejects() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post(
            "/v1/query",
            &finite_query("while single(Y1) { Y1 := E; }", "[0,1]", ""),
        )
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"unsafe\""), "{}", r.body);
}

#[test]
fn parse_errors_reject_with_line_col() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post("/v1/query", &finite_query("Y1 := ;", "[0,1]", ""))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"parse-error\""), "{}", r.body);
    assert!(r.body.contains("\"line\":1"), "{}", r.body);
}

#[test]
fn cache_misses_then_hits_across_the_orbit() {
    let s = server();
    let mut c = conn(&s);
    let miss = c
        .post(
            "/v1/query",
            &finite_query("Y1 := R1;", "[0,1],[1,2],[2,3]", ""),
        )
        .unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert!(miss.body.contains("\"cache\":\"miss\""), "{}", miss.body);
    assert_eq!(s.cache_len(), 1);

    // The same slice again: a verified hit (verify_hits is on).
    let hit = c
        .post(
            "/v1/query",
            &finite_query("Y1 := R1;", "[0,1],[1,2],[2,3]", ""),
        )
        .unwrap();
    assert!(hit.body.contains("\"cache\":\"hit\""), "{}", hit.body);
    // Identical slice ⇒ identical result bytes.
    let result = |b: &str| b.split("\"result\":").nth(1).map(str::to_string);
    assert_eq!(result(&miss.body), result(&hit.body));

    // A relabeled copy (π = seeded random permutation) is the same
    // ≅-orbit: still a hit, with the answer transported back through
    // π⁻¹ — and differentially verified against fresh evaluation.
    let mut rng = SplitMix64::seed_from_u64(42);
    let p = Permutation::random(&mut rng, 5);
    let edges: Vec<String> = [(0u64, 1u64), (1, 2), (2, 3)]
        .iter()
        .map(|&(a, b)| {
            format!(
                "[{},{}]",
                p.apply(recdb_core::Elem(a)).value(),
                p.apply(recdb_core::Elem(b)).value()
            )
        })
        .collect();
    let relabeled = c
        .post(
            "/v1/query",
            &finite_query("Y1 := R1;", &edges.join(","), ""),
        )
        .unwrap();
    assert_eq!(relabeled.status, 200, "{}", relabeled.body);
    assert!(
        relabeled.body.contains("\"cache\":\"hit\""),
        "same orbit must hit: {}",
        relabeled.body
    );
    assert_eq!(s.cache_len(), 1, "one orbit, one entry");

    // Opting out bypasses the cache entirely.
    let off = c
        .post(
            "/v1/query",
            &finite_query("Y1 := R1;", "[0,1],[1,2],[2,3]", ",\"no_cache\":true"),
        )
        .unwrap();
    assert!(off.body.contains("\"cache\":\"off\""), "{}", off.body);
}

#[test]
fn oversized_orbits_bypass_the_cache() {
    let s = server();
    let mut c = conn(&s);
    // 10 universe elements, no fixed constants: > MAX_CANON_FREE.
    let body = r#"{"program":"Y1 := R1;","db":{"kind":"finite","universe":[0,1,2,3,4,5,6,7,8,9],"relations":[{"arity":2,"tuples":[[0,1]]}]}}"#;
    let r = c.post("/v1/query", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cache\":\"bypass\""), "{}", r.body);
    assert_eq!(s.cache_len(), 0);
}

#[test]
fn family_and_fcf_slices_are_descriptor_cached() {
    let s = server();
    let mut c = conn(&s);
    let fam = r#"{"program":"Y1 := R1;","db":{"kind":"family","name":"clique"}}"#;
    let first = c.post("/v1/query", fam).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"cache\":\"miss\""), "{}", first.body);
    let second = c.post("/v1/query", fam).unwrap();
    assert!(second.body.contains("\"cache\":\"hit\""), "{}", second.body);

    let fcf = r#"{"program":"Y1 := R1;","db":{"kind":"fcf","relations":[{"cofinite":{"arity":1,"exceptions":[[2]]}}]}}"#;
    let f1 = c.post("/v1/query", fcf).unwrap();
    assert_eq!(f1.status, 200, "{}", f1.body);
    assert!(f1.body.contains("\"finite\":false"), "{}", f1.body);
    let f2 = c.post("/v1/query", fcf).unwrap();
    assert!(f2.body.contains("\"cache\":\"hit\""), "{}", f2.body);
}

#[test]
fn runtime_errors_are_422() {
    let s = server();
    let mut c = conn(&s);
    // `up` on a co-finite value is a QLf+ runtime error the static
    // passes cannot rule out — it passes admission, then errors.
    let body = r#"{"program":"Y1 := up(R1);","db":{"kind":"fcf","relations":[{"cofinite":{"arity":1,"exceptions":[[2]]}}]}}"#;
    let r = c.post("/v1/query", body).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"status\":\"error\""), "{}", r.body);
}

#[test]
fn out_of_schema_relations_are_statically_unsafe() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post("/v1/query", &finite_query("Y1 := R9;", "[0,1]", ""))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"status\":\"rejected\""), "{}", r.body);
    assert!(r.body.contains("E0002"), "{}", r.body);
}

#[test]
fn malformed_json_and_shapes_are_400() {
    let s = server();
    for bad in [
        "not json at all",
        "{\"program\":42}",
        "{\"program\":\"Y1 := E;\"}", // missing db
        r#"{"program":"Y1 := E;","db":{"kind":"blob"}}"#,
        r#"{"program":"Y1 := E;","db":{"kind":"finite","universe":[0],"relations":[{"arity":2,"tuples":[[0,7]]}]}}"#,
        r#"{"program":"Y1 := E;","dialect":"qlhs","db":{"kind":"finite","universe":[0],"relations":[]}}"#,
    ] {
        let mut c = conn(&s);
        let r = c.post("/v1/query", bad).unwrap();
        assert_eq!(r.status, 400, "{bad} → {}", r.body);
    }
}

#[test]
fn malformed_http_is_400_and_closes() {
    let s = server();
    let mut c = conn(&s);
    c.send_raw(b"GET /v1/health HTTP/2\r\n\r\n").unwrap();
    let r = c.read_response().unwrap();
    assert_eq!(r.status, 400);
    // The server closed the connection; a fresh one still works.
    let mut c2 = conn(&s);
    assert_eq!(c2.get("/v1/health").unwrap().status, 200);
}

#[test]
fn oversized_bodies_are_413() {
    let s = Server::start(ServeConfig {
        max_body: 256,
        read_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut c = conn(&s);
    c.send_raw(b"POST /v1/query HTTP/1.1\r\ncontent-length: 5000\r\n\r\n")
        .unwrap();
    let r = c.read_response().unwrap();
    assert_eq!(r.status, 413);
    assert!(r.body.contains("256-byte limit"), "{}", r.body);
}

#[test]
fn mid_request_drops_leave_the_server_healthy() {
    let s = server();
    {
        let mut c = conn(&s);
        // Declares a body, sends half a head, hangs up.
        c.send_raw(b"POST /v1/query HTTP/1.1\r\ncontent-le")
            .unwrap();
    } // dropped here
    {
        let mut c = conn(&s);
        // Declares a 100-byte body, sends 3 bytes, hangs up.
        c.send_raw(b"POST /v1/query HTTP/1.1\r\ncontent-length: 100\r\n\r\nabc")
            .unwrap();
    }
    let mut c = conn(&s);
    assert_eq!(c.get("/v1/health").unwrap().status, 200);
}

#[test]
fn keep_alive_and_connection_close_are_honored() {
    let s = server();
    let mut c = conn(&s);
    for _ in 0..5 {
        assert_eq!(c.get("/v1/health").unwrap().status, 200);
    }
    let r = c.request("GET", "/v1/health", "", true).unwrap();
    assert_eq!(r.status, 200);
    // Server closed after the `Connection: close` exchange.
    assert!(c.get("/v1/health").is_err());
}

#[test]
fn keep_alive_round_trips_do_not_stall() {
    // A message split over several writes on a Nagle-enabled socket
    // waits ≈40–44 ms for the peer's delayed ACK, so 200 stalled round
    // trips take ≥ 8.8 s; unstalled they take milliseconds.
    let s = server();
    let mut c = conn(&s);
    let body = finite_query("Y1 := R1;", "[0,1],[1,2]", "");
    let start = std::time::Instant::now();
    for i in 0..200 {
        let r = if i % 2 == 0 {
            c.post("/v1/query", &body).unwrap()
        } else {
            c.get("/v1/health").unwrap()
        };
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "200 keep-alive round trips took {took:?}"
    );
}

#[test]
fn formula_endpoint_evaluates_lminus() {
    let s = server();
    let mut c = conn(&s);
    let body = r#"{"formula":"{(x0,x1) | R1(x0,x1)}","db":{"kind":"finite","universe":[0,1,2],"relations":[{"arity":2,"tuples":[[0,1]]}]},"tuples":[[0,1],[1,0]]}"#;
    let r = c.post("/v1/formula", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body.contains("\"outcomes\":[\"true\",\"false\"]"),
        "{}",
        r.body
    );
}

#[test]
fn quantified_formulas_are_rejected_for_lminus() {
    let s = server();
    let mut c = conn(&s);
    let body = r#"{"formula":"{(x0) | exists x1. R1(x0,x1)}","db":{"kind":"finite","universe":[0,1],"relations":[{"arity":2,"tuples":[[0,1]]}]},"tuples":[[0]]}"#;
    let r = c.post("/v1/formula", body).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
}

/// An `/v1/ra` body over the graph schema `E(x, y)`.
fn ra_query(query: &str, edges: &str, extra: &str) -> String {
    format!(
        r#"{{"query":"{query}","schema":"E(x, y)","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":[{{"arity":2,"tuples":[{edges}]}}]}}{extra}}}"#
    )
}

#[test]
fn ra_endpoint_compiles_and_runs_end_to_end() {
    let s = server();
    let mut c = conn(&s);
    // π_y(E ⋈ ρ_{x→y,y→z}(E)): targets of length-2 paths.
    let r = c
        .post(
            "/v1/ra",
            &ra_query(
                "project #z (E join rename #x -> #y, #y -> #z (E))",
                "[0,1],[1,2],[2,3]",
                "",
            ),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.starts_with("{\"attrs\":[\"z\"],"), "{}", r.body);
    assert!(r.body.contains("\"mode\":\"exact\""), "{}", r.body);
    assert!(
        r.body
            .contains("\"result\":{\"rank\":1,\"tuples\":[[2],[3]]}"),
        "{}",
        r.body
    );
    assert_eq!(c.post("/v1/ra", "{}").unwrap().status, 400);
    assert_eq!(c.get("/v1/ra").unwrap().status, 405);
}

#[test]
fn ra_validator_rejection_is_422_with_span() {
    let s = server();
    let mut c = conn(&s);
    // A bare complement: rejected at validation, never compiled.
    let r = c
        .post("/v1/ra", &ra_query("E union not (E)", "[0,1]", ""))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"RA05\""), "{}", r.body);
    assert!(r.body.contains("\"reasons\":[\"ra-unsafe\"]"), "{}", r.body);
    assert!(
        r.body.contains("\"line\":1,\"col\":9"),
        "span resolves to the complement: {}",
        r.body
    );

    // A type error: unknown attribute, rejected with its code.
    let r = c
        .post("/v1/ra", &ra_query("project #nope (E)", "[0,1]", ""))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"RA02\""), "{}", r.body);
    assert!(r.body.contains("\"reasons\":[\"ra-type\"]"), "{}", r.body);

    // An RA parse error carries line/col too.
    let r = c
        .post("/v1/ra", &ra_query("project # (E)", "[0,1]", ""))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"PARSE\""), "{}", r.body);
}

#[test]
fn ra_compiled_queries_share_the_query_cache() {
    let s = server();
    let mut c = conn(&s);
    // A constant selection compiles to a `Generic {fixed:{2}}`
    // straight-line program: cacheable, keyed on the fixed orbit.
    let q = || ra_query("select #x = 2 (E)", "[0,1],[2,3]", "");
    let miss = c.post("/v1/ra", &q()).unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert!(miss.body.contains("\"cache\":\"miss\""), "{}", miss.body);
    assert_eq!(s.cache_len(), 1);
    let hit = c.post("/v1/ra", &q()).unwrap();
    assert!(hit.body.contains("\"cache\":\"hit\""), "{}", hit.body);
    assert!(
        hit.body
            .contains("\"result\":{\"rank\":2,\"tuples\":[[2,3]]}"),
        "{}",
        hit.body
    );
    assert_eq!(s.cache_len(), 1, "same compiled program, same key");

    // Opting out bypasses the cache.
    let off = c
        .post(
            "/v1/ra",
            &ra_query("select #x = 2 (E)", "[0,1],[2,3]", ",\"no_cache\":true"),
        )
        .unwrap();
    assert!(off.body.contains("\"cache\":\"off\""), "{}", off.body);
}

/// A query the §11 optimizer provably rewrites (projection cascade +
/// selection pushdown through a union) still answers exactly — the
/// `/v1/ra` path runs every query through `optimize_program` before
/// compilation, and the chosen plan must be transparent.
#[test]
fn ra_endpoint_optimizes_plans_transparently() {
    let s = server();
    let mut c = conn(&s);
    let r = c
        .post(
            "/v1/ra",
            &ra_query(
                "project #x (project #x, #y (select #x = 0 (E union E)))",
                "[0,1],[1,2],[0,3]",
                "",
            ),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body.contains("\"result\":{\"rank\":1,\"tuples\":[[0]]}"),
        "{}",
        r.body
    );
}

/// One class of the mixed load: a seeded body generator and the
/// status admission and execution must produce for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// `Y1 := R1` over a relabeled copy of one fixed 5-path: one
    /// ≅-orbit, so all but the first requests hit the cache.
    ExactOrbit,
    /// `Y1 := R1` over a fresh random graph: mostly misses.
    ExactFresh,
    /// A fuel-mode loop that exits quickly.
    FuelOk,
    /// Provably divergent: rejected at admission.
    RejectDiverge,
    /// Dialect-unsafe: rejected at admission.
    RejectUnsafe,
    /// An exact query against a catalog family (QLhs backend).
    Family,
    /// An exact query against an fcf database (QLf+ backend).
    Fcf,
    /// A fuel-mode loop whose guard feed `R2` is empty at runtime:
    /// preempted when its 300-tick budget is gone.
    FuelExhaust,
    /// The same loop at 60,000 fuel: fast-forwarded to its budget.
    Heavy,
    /// A constant selection on `/v1/ra` over a relabeling fixing 0:
    /// one `Generic {fixed:{0}}` orbit.
    RaExact,
    /// A bare RA complement: rejected by the validator (`RA05`).
    RaReject,
}

/// The classes and their weights.
const MIX: [(Class, usize); 11] = [
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

impl Class {
    fn pick(rng: &mut SplitMix64) -> Class {
        let mut roll = rng.gen_usize(MIX.iter().map(|&(_, w)| w).sum());
        for (class, weight) in MIX {
            if roll < weight {
                return class;
            }
            roll -= weight;
        }
        unreachable!("the roll is below the weights' sum")
    }

    fn status(self) -> u16 {
        match self {
            Class::RejectDiverge | Class::RejectUnsafe | Class::RaReject => 422,
            Class::FuelExhaust | Class::Heavy => 408,
            _ => 200,
        }
    }

    /// The endpoint, the body, and for the `Y1 := R1` classes the
    /// edges the answer must hold.
    fn request(self, rng: &mut SplitMix64) -> (&'static str, String, Option<Vec<(u64, u64)>>) {
        let two_rel = |program: &str, edges: &str, fuel: u64| {
            format!(
                r#"{{"program":"{program}","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":[{{"arity":2,"tuples":[{edges}]}},{{"arity":2,"tuples":[]}}]}},"fuel":{fuel}}}"#
            )
        };
        let copy = |edges: Vec<(u64, u64)>| {
            let body = finite_query("Y1 := R1;", &render(&edges), "");
            ("/v1/query", body, Some(edges))
        };
        let query = |body: String| ("/v1/query", body, None);
        match self {
            Class::ExactOrbit => {
                let p = Permutation::random(rng, 5);
                let at = |i: u64| p.apply(recdb_core::Elem(i)).value();
                copy((0..4).map(|i| (at(i), at(i + 1))).collect())
            }
            Class::ExactFresh => {
                let mut edges = Vec::new();
                for a in 0..5 {
                    for b in 0..5 {
                        if a != b && rng.gen_bool() && rng.gen_bool() {
                            edges.push((a, b));
                        }
                    }
                }
                copy(edges)
            }
            Class::FuelOk => query(finite_query(
                "Y2 := R1; while empty(Y3) { Y3 := Y2; }",
                "[0,1],[1,2],[2,3]",
                ",\"fuel\":10000",
            )),
            Class::RejectDiverge => {
                query(finite_query("while empty(Y2) { Y3 := E; }", "[0,1]", ""))
            }
            Class::RejectUnsafe => {
                query(finite_query("while single(Y1) { Y1 := E; }", "[0,1]", ""))
            }
            Class::Family => query(
                r#"{"program":"Y1 := R1;","db":{"kind":"family","name":"clique"}}"#.to_string(),
            ),
            Class::Fcf => query(format!(
                r#"{{"program":"Y1 := R1;","db":{{"kind":"fcf","relations":[{{"cofinite":{{"arity":1,"exceptions":[[{}]]}}}}]}}}}"#,
                rng.gen_usize(5)
            )),
            Class::FuelExhaust => {
                query(two_rel("while empty(Y3) { Y3 := R2; }", "[0,1],[1,2]", 300))
            }
            Class::Heavy => query(two_rel(
                "while empty(Y3) { Y3 := R2; }",
                "[0,1],[1,2],[2,3],[3,4]",
                60_000,
            )),
            Class::RaExact => {
                let p = Permutation::random(rng, 4);
                let at = |i: u64| p.apply(recdb_core::Elem(i)).value() + 1;
                let edges: Vec<_> = (0..3).map(|i| (at(i), at(i + 1))).collect();
                let q = "select #x = 0 (E union rename #x -> #y, #y -> #x (E))";
                ("/v1/ra", ra_query(q, &render(&edges), ""), None)
            }
            Class::RaReject => ("/v1/ra", ra_query("E union not (E)", "[0,1]", ""), None),
        }
    }
}

/// `[a,b],[c,d],…` in the given order.
fn render(edges: &[(u64, u64)]) -> String {
    let pairs: Vec<String> = edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    pairs.join(",")
}

/// Posts `per_thread` requests from each of `threads` client threads,
/// one fresh connection per request, each class drawn by `pick`:
/// every answer has its class's status, none reports a soundness or
/// work-bound violation, and every `Y1 := R1` answer — cache hits
/// transported through the relabeling included — is exactly its
/// request's edges. Returns each request's class and whether it hit
/// the cache.
fn drive(
    addr: std::net::SocketAddr,
    threads: u64,
    per_thread: usize,
    pick: fn(&mut SplitMix64) -> Class,
) -> Vec<(Class, bool)> {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(0x5ecd_eb0a ^ t);
                let mut seen = Vec::new();
                for _ in 0..per_thread {
                    let class = pick(&mut rng);
                    let (path, body, edges) = class.request(&mut rng);
                    let r = recdb_serve::post_once(addr, path, &body).expect("round trip");
                    assert_eq!(r.status, class.status(), "{class:?}: {}", r.body);
                    assert!(!r.body.contains("\"violation\""), "{class:?}: {}", r.body);
                    if let Some(mut edges) = edges {
                        edges.sort_unstable();
                        let want =
                            format!("\"result\":{{\"rank\":2,\"tuples\":[{}]}}", render(&edges));
                        assert!(
                            r.body.contains(&want),
                            "{class:?}: want {want} in {}",
                            r.body
                        );
                    }
                    seen.push((class, r.body.contains("\"cache\":\"hit\"")));
                }
                seen
            })
        })
        .collect();
    let seen: Vec<(Class, bool)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(seen.len(), threads as usize * per_thread);
    seen
}

/// Against 8 workers that verify every cache hit: first relabelings
/// of one path from 8 threads at once, which must leave one cache
/// entry whatever the interleaving; then every class of the mix from
/// 32 client threads.
#[test]
fn concurrent_mixed_load_is_fully_consistent() {
    let s = Server::start(ServeConfig {
        workers: 8,
        verify_hits: true,
        read_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = s.addr();
    let orbit = drive(addr, 8, 25, |_| Class::ExactOrbit);
    assert!(orbit.iter().any(|&(_, hit)| hit), "no relabeling hit");
    // One orbit, one cache entry, no matter the interleaving.
    assert_eq!(s.cache_len(), 1);
    let seen = drive(addr, 32, 32, Class::pick);
    for (class, _) in MIX {
        assert!(
            seen.iter().any(|&(c, _)| c == class),
            "{class:?} never drawn"
        );
    }
    assert!(
        seen.iter().any(|&(c, hit)| c == Class::ExactOrbit && hit),
        "relabeled copies of one path must hit the cache"
    );
    s.shutdown();
}

#[test]
fn shutdown_joins_with_an_idle_keepalive_connection_open() {
    let s = Server::start(ServeConfig {
        read_timeout_ms: 50,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut c = conn(&s);
    assert_eq!(c.get("/v1/health").unwrap().status, 200);
    // `c` stays open and idle; shutdown must still join promptly
    // (the worker's read timeout is the bound).
    s.shutdown();
}

/// Whole response bodies, byte for byte, for the paths whose bodies are
/// assembled from several pieces: the RA front end (attrs, rejections
/// of every kind), family slices, and admission parse errors.
#[test]
fn response_bodies_are_golden() {
    let s = server();
    let mut c = conn(&s);
    let wide = r#"{"query":"project #a (W join V)","schema":"W(a, b, c, d, e, f, g, h); V(i, j, k, l, m, n, o, p)","db":{"kind":"finite","universe":[0,1],"relations":[{"arity":8,"tuples":[[0,1,0,1,0,1,0,1]]},{"arity":8,"tuples":[[1,1,1,1,0,0,0,0]]}]}}"#;
    let ra_ok = ra_query(
        "project #y (select #x = 2 (E union E))",
        "[0,1],[2,3],[2,4]",
        "",
    );
    let cases: Vec<(&str, String)> = vec![
        ("/v1/ra", ra_ok.clone()),
        ("/v1/ra", ra_ok),
        (
            "/v1/ra",
            ra_query("select #x = 2 (E)", "[0,1],[2,3]", ",\"no_cache\":true"),
        ),
        ("/v1/ra", ra_query("E union not (E)", "[0,1]", "")),
        ("/v1/ra", ra_query("project #nope (E)", "[0,1]", "")),
        ("/v1/ra", ra_query("project # (E)", "[0,1]", "")),
        ("/v1/ra", wide.to_string()),
        (
            "/v1/query",
            r#"{"program":"Y1 := R1;","db":{"kind":"family","name":"clique"}}"#.to_string(),
        ),
        (
            "/v1/query",
            r#"{"program":"Y1 := R1;","db":{"kind":"family","name":"nope"}}"#.to_string(),
        ),
        ("/v1/query", finite_query("Y1 := ;", "[0,1]", "")),
    ];
    let want: [(u16, &str); 10] = [
        (
            200,
            r#"{"attrs":["y"],"cache":"miss","iterations":0,"mode":"exact","result":{"rank":1,"tuples":[[3],[4]]},"status":"ok"}"#,
        ),
        (
            200,
            r#"{"attrs":["y"],"cache":"hit","iterations":0,"mode":"exact","result":{"rank":1,"tuples":[[3],[4]]},"status":"ok"}"#,
        ),
        (
            200,
            r#"{"attrs":["x","y"],"cache":"off","iterations":0,"mode":"exact","result":{"rank":2,"tuples":[[2,3]]},"status":"ok"}"#,
        ),
        (
            422,
            r#"{"diagnostics":[{"code":"RA05","severity":"error","message":"unsafe expression: the query is not range-restricted (complement outside any bounded guard)","line":1,"col":9}],"reasons":["ra-unsafe"],"status":"rejected"}"#,
        ),
        (
            422,
            r#"{"diagnostics":[{"code":"RA02","severity":"error","message":"projection mentions unknown attribute #nope","line":1,"col":1}],"reasons":["ra-type"],"status":"rejected"}"#,
        ),
        (
            422,
            r#"{"diagnostics":[{"code":"PARSE","severity":"error","message":"expected an attribute name after '#'","line":1,"col":10}],"reasons":["parse-error"],"status":"rejected"}"#,
        ),
        (
            422,
            r#"{"diagnostics":[{"code":"DEPTH","severity":"error","message":"lowers to a QL term nested more than 1024 levels deep","line":1,"col":13}],"reasons":["ra-depth"],"status":"rejected"}"#,
        ),
        (
            200,
            r#"{"cache":"miss","iterations":0,"mode":"exact","result":{"rank":2,"tuples":[[0,1]]},"status":"ok"}"#,
        ),
        (
            400,
            r#"{"error":"unknown catalog family \"nope\"","status":"error"}"#,
        ),
        (
            422,
            r#"{"diagnostics":[{"code":"PARSE","severity":"error","message":"expected a term","line":1,"col":7}],"reasons":["parse-error"],"status":"rejected"}"#,
        ),
    ];
    for ((path, body), (status, bytes)) in cases.iter().zip(want) {
        let r = c.post(path, body).unwrap();
        assert_eq!(
            (r.status, r.body.as_str()),
            (status, bytes),
            "{path} {body}"
        );
    }
}
