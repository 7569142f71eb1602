//! Deeply nested programs: past the parsers' nesting limit, past it
//! once an RA query is lowered to QL, or past the `while` nesting cap,
//! they are a 422 with code `DEPTH` and the server keeps answering; at
//! exactly the limit, admission, lowering, evaluation and rendering
//! fit a worker's stack (in an unoptimized build frames are largest,
//! and the workers have the same stack in every build). Variable
//! indices are capped the same way, at `MAX_VAR`.

use recdb_serve::client::Conn;
use recdb_serve::{ServeConfig, Server};

fn server() -> Server {
    Server::start(ServeConfig {
        read_timeout_ms: 5_000,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

const DB: &str = r#"{"kind":"finite","universe":[0,1,2,3,4],"relations":[{"arity":2,"tuples":[[0,1],[1,2],[3,3]]}]}"#;

fn query(program: &str) -> String {
    format!(r#"{{"program":"{program}","db":{DB},"fuel":100000}}"#)
}

fn ra(query: &str) -> String {
    format!(r#"{{"query":"{query}","schema":"E(x, y)","db":{DB}}}"#)
}

/// QL terms of nesting depth exactly `n`, one per way of nesting.
fn ql_shapes(n: usize) -> Vec<(&'static str, String)> {
    let wrap = |open: &str, close: &str, k: usize| (open.repeat(k), close.repeat(k));
    let (o, c) = wrap("swap(", ")", n);
    let (du_o, du_c) = wrap("down(up(", "))", n / 2);
    let (p_o, p_c) = wrap("(", ")", n - 1);
    // `!(R1 & …)`: a `!` and a parenthesis open two levels, and the
    // `&` inside is one below the `!` in the tree.
    let (na_o, na_c) = wrap("!(R1 & ", ")", (n - 2) / 2);
    vec![
        ("not", format!("Y1 := {}R1;", "!".repeat(n))),
        ("swap", format!("Y1 := {o}R1{c};")),
        ("down-up", format!("Y1 := {du_o}R1{du_c};")),
        ("and-chain", format!("Y1 := R1{};", " & R1".repeat(n))),
        ("parens", format!("Y1 := {p_o}R1 & R1{p_c};")),
        ("not-and", format!("Y1 := !{na_o}R1{na_c};")),
    ]
}

#[test]
fn too_deep_programs_are_422_and_the_server_keeps_serving() {
    let s = server();
    let mut c = Conn::connect(s.addr()).expect("connect");
    // A 50 KB program: before the limit, this overflowed a worker's
    // stack and aborted the process.
    let deep = format!("Y1 := {}R1;", "!".repeat(50_000));
    let r = c.post("/v1/query", &query(&deep)).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"DEPTH\""), "{}", r.body);
    assert!(
        r.body.contains("\"reasons\":[\"parse-error\"]"),
        "{}",
        r.body
    );
    let deep_ra = format!("{}E{}", "not (".repeat(20_000), ")".repeat(20_000));
    let r = c.post("/v1/ra", &ra(&deep_ra)).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"DEPTH\""), "{}", r.body);
    // The same server, on the same connection, still answers.
    let r = c.post("/v1/query", &query("Y1 := swap(R1);")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("[[1,0],[2,1],[3,3]]"), "{}", r.body);
    let r = c.post("/v1/ra", &ra("project #x (E)")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn programs_at_the_depth_limit_run_on_a_worker_stack() {
    let s = server();
    let mut c = Conn::connect(s.addr()).expect("connect");
    for (shape, program) in ql_shapes(recdb_qlhs::MAX_DEPTH) {
        let r = c.post("/v1/query", &query(&program)).unwrap();
        assert_eq!(r.status, 200, "{shape} at the limit: {}", r.body);
    }
    for (shape, program) in ql_shapes(recdb_qlhs::MAX_DEPTH + 3) {
        let r = c.post("/v1/query", &query(&program)).unwrap();
        assert_eq!(r.status, 422, "{shape} past the limit: {}", r.body);
        assert!(r.body.contains("\"code\":\"DEPTH\""), "{shape}: {}", r.body);
    }
    // RA at its own limit: each swap-rename lowers to a chain of QL
    // rotations and swaps, so the lowered program is far deeper.
    let n = recdb_ra::MAX_DEPTH;
    let renames = format!(
        "{}E{}",
        "rename #x -> #y, #y -> #x (".repeat(n),
        ")".repeat(n)
    );
    let r = c.post("/v1/ra", &ra(&renames)).unwrap();
    assert_eq!(r.status, 200, "RA renames at the limit: {}", r.body);
    let nots = format!("E diff {}E{}", "not (".repeat(n - 1), ")".repeat(n - 1));
    let r = c.post("/v1/ra", &ra(&nots)).unwrap();
    assert_eq!(r.status, 200, "RA complements at the limit: {}", r.body);
}

/// An 8-ary relation pair: the widest the wire format allows.
const WIDE_DB: &str = r#"{"kind":"finite","universe":[0,1],"relations":[{"arity":8,"tuples":[[0,1,0,1,0,1,0,1]]},{"arity":8,"tuples":[[1,1,1,1,0,0,0,0]]}]}"#;

fn wide_ra(query: &str) -> String {
    format!(
        r#"{{"query":"{query}","schema":"W(a, b, c, d, e, f, g, h); V(i, j, k, l, m, n, o, p)","db":{WIDE_DB}}}"#
    )
}

#[test]
fn ra_queries_that_lower_too_deep_are_422_at_their_ra_node() {
    let s = server();
    let mut c = Conn::connect(s.addr()).expect("connect");
    let reverse = "rename #a -> #h, #b -> #g, #c -> #f, #d -> #e, \
                   #e -> #d, #f -> #c, #g -> #b, #h -> #a";
    // One reversing rename of an 8-ary relation lowers to a QL term
    // close to the limit, and runs.
    let r = c
        .post("/v1/ra", &wide_ra(&format!("{reverse} (W)")))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("[[1,0,1,0,1,0,1,0]]"), "{}", r.body);
    // Two nested ones, or a join over 16 attributes, would lower past
    // it: rejected before the QL is built, at the RA node's position.
    for (query, col) in [
        (format!("W diff {reverse} ({reverse} (W))"), 8),
        ("project #a (W join V)".to_string(), 13),
    ] {
        let r = c.post("/v1/ra", &wide_ra(&query)).unwrap();
        assert_eq!(r.status, 422, "{query}: {}", r.body);
        assert!(r.body.contains("\"code\":\"DEPTH\""), "{}", r.body);
        assert!(
            r.body.contains(&format!("\"line\":1,\"col\":{col}}}")),
            "{query}: {}",
            r.body
        );
        assert!(r.body.contains("\"reasons\":[\"ra-depth\"]"), "{}", r.body);
    }
    let r = c.post("/v1/ra", &wide_ra("project #a (W)")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

/// `n` nested `while empty(Yk)` blocks, each run once: the innermost
/// body copies R1 to the output, and each block then sets its guard.
fn nested_loops(n: usize) -> String {
    let open: String = (2..n + 2)
        .map(|k| format!("while empty(Y{k}) {{ "))
        .collect();
    let close: String = (2..n + 2)
        .rev()
        .map(|k| format!("Y{k} := E; }} "))
        .collect();
    format!("{open}Y1 := R1; {close}")
}

#[test]
fn while_nesting_is_capped_at_max_loop_depth() {
    let s = server();
    let mut c = Conn::connect(s.addr()).expect("connect");
    let n = recdb_qlhs::MAX_LOOP_DEPTH;
    let r = c.post("/v1/query", &query(&nested_loops(n))).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("[[0,1],[1,2],[3,3]]"), "{}", r.body);
    // One more level is rejected at the innermost `while`.
    let r = c.post("/v1/query", &query(&nested_loops(n + 1))).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"DEPTH\""), "{}", r.body);
    let col = "while empty(Y2) { ".len() * n + 1;
    assert!(
        r.body.contains(&format!("\"line\":1,\"col\":{col}}}")),
        "{}",
        r.body
    );
    // The same server, on the same connection, still answers.
    let r = c.post("/v1/query", &query(&nested_loops(n))).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

/// `examples/programs/nested_chain.ql`: eight nested loops whose
/// loop-head fixpoints would multiply out to millions of rounds. Every
/// analysis and the lowerer widen once the round budget is spent, so
/// admission finishes and the server answers.
#[test]
fn nested_loop_fixpoints_widen_within_the_round_budget() {
    let rec = recdb_obs::InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    let s = server();
    let mut c = Conn::connect(s.addr()).expect("connect");
    let program = include_str!("../../../examples/programs/nested_chain.ql").replace('\n', "\\n");
    let r = c.post("/v1/query", &query(&program)).unwrap();
    recdb_obs::uninstall();
    assert!(matches!(r.status, 200 | 408 | 422), "{}", r.body);
    assert!(rec.counter_value("analyze.fixpoint.widened") >= 1);
}

/// Variable indices past `MAX_VAR`: every analysis and executor sizes
/// its state by the largest index, so before the cap this 21-byte
/// program made admission ask for terabytes and abort the process.
/// Now it is a located 422, as is an RA query with more views than QL
/// has variables, and the server keeps answering.
#[test]
fn variable_indices_past_max_var_are_422() {
    let s = server();
    let mut c = Conn::connect(s.addr()).expect("connect");
    let r = c.post("/v1/query", &query("Y1 := Y100000000000;")).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"PARSE\""), "{}", r.body);
    assert!(r.body.contains("\"line\":1,\"col\":7"), "{}", r.body);
    assert!(
        r.body.contains("\"reasons\":[\"parse-error\"]"),
        "{}",
        r.body
    );
    let views = |n: usize| -> String { (0..n).map(|i| format!("V{i} := E; ")).collect() };
    let last = recdb_qlhs::MAX_VAR - 1;
    let r = c.post("/v1/ra", &ra(&format!("{}E", views(last)))).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let r = c
        .post("/v1/ra", &ra(&format!("{}E", views(last + 1))))
        .unwrap();
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"code\":\"RA06\""), "{}", r.body);
    assert!(r.body.contains("\"reasons\":[\"ra-size\"]"), "{}", r.body);
    // The same server, on the same connection, still answers.
    let r = c.post("/v1/query", &query("Y1 := swap(R1);")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}
