//! Serving-layer differentials: the wire protocol, admission gate,
//! and cross-tenant result cache of `recdb-serve`, replayed against
//! direct in-process interpreter evaluation.
//!
//! Two rows:
//!
//! * **SERVE-DIFF** — seeded random programs and database slices are
//!   round-tripped through a live server (HTTP parse → admission →
//!   scheduled execution → JSON response) and the response must agree
//!   *byte-for-byte* with direct `FinInterp`/`HsInterp` evaluation
//!   under the same budget: completed runs match on the rendered
//!   result, fuel exhaustion maps to 408, runtime errors to 422, and
//!   analyzer rejections to 422 with `"status":"rejected"`. Any
//!   `"violation"` field in a response (a proved bound contradicted at
//!   runtime, or a cache hit failing its differential check) fails the
//!   row outright.
//! * **SERVE-CACHE-GENERIC** — the cache-soundness claim (DESIGN.md
//!   §9) made executable: for programs admitted with a proved
//!   `Generic {fixed}` verdict, submit `B` (filling the cache), then
//!   `π(B)` for a seeded random `π` fixing `fixed` pointwise. The
//!   second request must be served *from the cache* (same ≅-orbit ⇒
//!   same canonical key) and its answer must equal `π(q(B))`
//!   byte-for-byte — Def 2.5 commutation, through the wire, the
//!   canonicalizer, and the inverse transport.
//!
//! Both rows run with `verify_hits` on, so the server additionally
//! differentially checks every cache hit against fresh evaluation
//! while the ledger watches for the `cache-differential` violation.

use crate::gen::{self, ProgShape};
use crate::ledger::{CheckCtx, CheckDef};
use recdb_core::{FiniteStructure, Schema};
use recdb_hsdb::{unary_cells, CellSize};
use recdb_obs::esc;
use recdb_qlhs::{Dialect, FinInterp, HsInterp, Permutation, Val};
use recdb_serve::admit::{admit, Admission, AdmitLimits, AdmitOutcome};
use recdb_serve::exec::{run_scheduled, ExecEnd, GuardEval};
use recdb_serve::proto::result_json;
use recdb_serve::{post_once, Response, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;

/// The serving rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "SERVE-DIFF",
            result: "§2/§4/§5 semantics through the serving layer",
            title: "server round-trips ≡ direct FinInterp/HsInterp evaluation",
            run: serve_diff,
        },
        CheckDef {
            id: "SERVE-CACHE-GENERIC",
            result: "Def 2.5 / cache soundness (DESIGN.md §9)",
            title: "cache-served answers commute with permutations fixing `fixed`",
            run: serve_cache_generic,
        },
    ]
}

/// Mirrors the server's default admission limits (the ledger computes
/// its expectations under the same budgets the server grants).
const LIMITS: AdmitLimits = AdmitLimits {
    fuel_default: 100_000,
    fuel_max: 10_000_000,
};

/// The fuel the differential rounds request explicitly — small enough
/// that some generated loops exhaust it, so the 408 path is exercised.
const ROUND_FUEL: u64 = 5_000;

fn start_server() -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: 2,
        verify_hits: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server bind failed: {e}"))
}

/// Serializes a finite structure as the wire's `db` object.
fn finite_db_json(st: &FiniteStructure) -> String {
    let universe: Vec<String> = st
        .universe()
        .iter()
        .map(|e| e.value().to_string())
        .collect();
    let mut rels = Vec::new();
    for i in 0..st.schema().len() {
        let tuples: Vec<String> = st
            .relation(i)
            .iter()
            .map(|t| {
                let parts: Vec<String> = t.elems().iter().map(|e| e.value().to_string()).collect();
                format!("[{}]", parts.join(","))
            })
            .collect();
        rels.push(format!(
            "{{\"arity\":{},\"tuples\":[{}]}}",
            st.schema().arities()[i],
            tuples.join(",")
        ));
    }
    format!(
        "{{\"kind\":\"finite\",\"universe\":[{}],\"relations\":[{}]}}",
        universe.join(","),
        rels.join(",")
    )
}

/// Serializes a unary-cells layout as the wire's `db` object.
fn cells_db_json(cells: &[CellSize]) -> String {
    let parts: Vec<String> = cells
        .iter()
        .map(|c| match c {
            CellSize::Infinite => "\"inf\"".to_string(),
            CellSize::Finite(vals) => {
                let vs: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
                format!("[{}]", vs.join(","))
            }
        })
        .collect();
    format!("{{\"kind\":\"cells\",\"cells\":[{}]}}", parts.join(","))
}

/// Runs an admitted program directly, under exactly the budget the
/// server would grant it.
fn direct_run<B: GuardEval<V = Val>>(b: &mut B, dialect: Dialect, a: &Admission) -> ExecEnd<Val> {
    let budget = a.plan.budget(LIMITS.fuel_max, None);
    run_scheduled(b, dialect, &a.prog, &budget, &AtomicBool::new(false)).end
}

/// Compares one server response against the direct outcome. Returns
/// `Ok(true)` when the round byte-compared a completed result.
fn check_round(
    label: &str,
    resp: &Response,
    direct: Option<&ExecEnd<Val>>,
) -> Result<bool, String> {
    if resp.body.contains("\"violation\"") {
        return Err(format!(
            "{label}: soundness violation reported: {}",
            resp.body
        ));
    }
    match direct {
        None => {
            // Locally rejected at admission.
            if resp.status != 422 || !resp.body.contains("\"status\":\"rejected\"") {
                return Err(format!(
                    "{label}: admission divergence: expected a 422 rejection, got {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(false)
        }
        Some(ExecEnd::Done(v)) => {
            let want = format!("\"result\":{}", result_json(v));
            if resp.status != 200 || !resp.body.contains(&want) {
                return Err(format!(
                    "{label}: result divergence: direct gave {want}, server {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(true)
        }
        Some(ExecEnd::OutOfFuel) => {
            if resp.status != 408 || !resp.body.contains("fuel-exhausted") {
                return Err(format!(
                    "{label}: direct run exhausted fuel but server answered {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(false)
        }
        Some(ExecEnd::Errored(e)) => {
            if resp.status != 422 || !resp.body.contains("\"status\":\"error\"") {
                return Err(format!(
                    "{label}: direct run errored ({e}) but server answered {} {}",
                    resp.status, resp.body
                ));
            }
            Ok(false)
        }
        Some(other) => Err(format!(
            "{label}: direct replay of an admitted program ended abnormally: {other:?}"
        )),
    }
}

fn serve_diff(ctx: &mut CheckCtx) -> Result<(), String> {
    let server = start_server()?;
    let addr = server.addr();
    let mut compared = 0usize;

    // Finite backend: random graphs under QL.
    let fin_shape = ProgShape {
        rels: 1,
        vars: 3,
        allow_singleton: false,
        allow_finite: false,
        consts: 4,
        union_bias: false,
    };
    for round in 0..40 {
        ctx.family("random-finite-graph");
        let st = gen::random_finite_graph(ctx.rng(), 6);
        let src = gen::random_prog(ctx.rng(), 2, 3, &fin_shape).to_string();
        let body = format!(
            "{{\"program\":\"{}\",\"db\":{},\"fuel\":{ROUND_FUEL}}}",
            esc(&src),
            finite_db_json(&st)
        );
        let resp = round_trip(addr, &body, &format!("fin round {round}"))?;
        let direct = match admit(&src, st.schema(), Dialect::Ql, Some(ROUND_FUEL), &LIMITS) {
            AdmitOutcome::Admitted(a) => {
                let mut interp = FinInterp::new(&st);
                Some(direct_run(&mut interp, Dialect::Ql, &a))
            }
            AdmitOutcome::Rejected { .. } => None,
        };
        compared += usize::from(check_round(
            &format!("fin round {round} [{}]", compact(&src)),
            &resp,
            direct.as_ref(),
        )?);
    }

    // Homogeneous-set backend: random unary-cell layouts under QLhs.
    for round in 0..30 {
        ctx.family("unary-cells");
        let cells = random_cells(ctx);
        let shape = ProgShape {
            rels: cells.len(),
            vars: 3,
            allow_singleton: true,
            allow_finite: false,
            consts: 4,
            union_bias: false,
        };
        let src = gen::random_prog(ctx.rng(), 2, 3, &shape).to_string();
        let body = format!(
            "{{\"program\":\"{}\",\"db\":{},\"fuel\":{ROUND_FUEL}}}",
            esc(&src),
            cells_db_json(&cells)
        );
        let resp = round_trip(addr, &body, &format!("hs round {round}"))?;
        let schema = Schema::new(vec![1usize; cells.len()]);
        let direct = match admit(&src, &schema, Dialect::Qlhs, Some(ROUND_FUEL), &LIMITS) {
            AdmitOutcome::Admitted(a) => {
                let hs = unary_cells(cells.clone());
                let mut interp = HsInterp::new(&hs);
                Some(direct_run(&mut interp, Dialect::Qlhs, &a))
            }
            AdmitOutcome::Rejected { .. } => None,
        };
        compared += usize::from(check_round(
            &format!("hs round {round} [{}]", compact(&src)),
            &resp,
            direct.as_ref(),
        )?);
    }

    if compared < 10 {
        return Err(format!(
            "only {compared} rounds byte-compared a completed result (wanted ≥ 10); \
             the generator mix has degenerated"
        ));
    }
    Ok(())
}

fn serve_cache_generic(ctx: &mut CheckCtx) -> Result<(), String> {
    let server = start_server()?;
    let addr = server.addr();
    let shape = ProgShape {
        rels: 1,
        vars: 2,
        allow_singleton: false,
        allow_finite: false,
        consts: 4,
        union_bias: false,
    };
    let mut verified = 0usize;
    for round in 0..120 {
        if verified >= 12 {
            break;
        }
        ctx.family("random-finite-graph");
        let st = gen::random_finite_graph(ctx.rng(), 5);
        // Straight-line programs: always proved terminating, so
        // cacheability turns purely on the genericity verdict.
        let src = gen::random_prog(ctx.rng(), 0, 2, &shape).to_string();
        let a = match admit(&src, st.schema(), Dialect::Ql, None, &LIMITS) {
            AdmitOutcome::Admitted(a) => a,
            AdmitOutcome::Rejected { .. } => continue,
        };
        let Some(fixed) = a.cache_fixed.clone() else {
            continue;
        };
        let mut interp = FinInterp::new(&st);
        let ExecEnd::Done(q_of_b) = direct_run(&mut interp, Dialect::Ql, &a) else {
            continue;
        };

        // Leg 1: submit B; the response must match direct evaluation
        // (and fill — or already hold — this orbit's cache entry).
        let label = format!("cache round {round} [{}]", compact(&src));
        let body = format!(
            "{{\"program\":\"{}\",\"db\":{}}}",
            esc(&src),
            finite_db_json(&st)
        );
        let fill = round_trip(addr, &body, &label)?;
        check_round(&label, &fill, Some(&ExecEnd::Done(q_of_b.clone())))?;

        // Leg 2: submit π(B), π fixing `fixed` pointwise. Same
        // ≅-orbit ⇒ a cache hit, and the served answer must be
        // exactly π(q(B)).
        let perm = Permutation::random_fixing(ctx.rng(), gen::WINDOW, &fixed);
        let pst = FiniteStructure::new(
            st.schema().clone(),
            st.universe().iter().map(|&e| perm.apply(e)),
            (0..st.schema().len())
                .map(|i| st.relation(i).iter().map(|t| perm.apply_tuple(t)).collect())
                .collect(),
        );
        let pbody = format!(
            "{{\"program\":\"{}\",\"db\":{}}}",
            esc(&src),
            finite_db_json(&pst)
        );
        let hit = round_trip(addr, &pbody, &label)?;
        if hit.body.contains("\"violation\"") {
            return Err(format!(
                "{label}: π(B) leg: violation reported: {}",
                hit.body
            ));
        }
        if hit.status != 200 || !hit.body.contains("\"cache\":\"hit\"") {
            return Err(format!(
                "{label}: π(B) is in B's orbit but was not cache-served: {} {}",
                hit.status, hit.body
            ));
        }
        let transported = Val {
            rank: q_of_b.rank,
            tuples: q_of_b.tuples.iter().map(|t| perm.apply_tuple(&t)).collect(),
        };
        let want = format!("\"result\":{}", result_json(&transported));
        if !hit.body.contains(&want) {
            return Err(format!(
                "{label}: cache-served answer does not commute: wanted {want}, got {}",
                hit.body
            ));
        }
        verified += 1;
    }
    if verified < 12 {
        return Err(format!(
            "only {verified} cacheable rounds in 120 attempts (wanted ≥ 12); \
             the generator mix has degenerated"
        ));
    }
    Ok(())
}

fn round_trip(addr: SocketAddr, body: &str, label: &str) -> Result<Response, String> {
    post_once(addr, "/v1/query", body).map_err(|e| format!("{label}: transport failure: {e}"))
}

/// A random disjoint unary-cells layout: 1–3 cells, each infinite or a
/// subset of its own 4-element window.
fn random_cells(ctx: &mut CheckCtx) -> Vec<CellSize> {
    let ncells = 1 + ctx.rng().gen_usize(3);
    (0..ncells)
        .map(|i| {
            if ctx.rng().gen_usize(3) == 0 {
                CellSize::Infinite
            } else {
                let base = (i as u64) * 4;
                CellSize::Finite((base..base + 4).filter(|_| ctx.rng().gen_bool()).collect())
            }
        })
        .collect()
}

/// One-line program text for failure messages.
fn compact(src: &str) -> String {
    src.split_whitespace().collect::<Vec<_>>().join(" ")
}
