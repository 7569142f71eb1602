//! Cost-analysis rows: the §11 abstract interpreter's symbolic bounds
//! checked against what the counting executor actually materializes,
//! and the RA rewriter's plans checked for equivalence and
//! cost-monotonicity.
//!
//! * **COST-SOUND** — ≥500 seeded programs *per backend* (finitary
//!   QL, QLhs over a discrete hs-wrapping, QLf+ over fcf slices).
//!   Whenever `analyze_cost` derives `Bounded`, the polynomial is
//!   instantiated at the concrete slice (`n` ↦ base-set size, `rᵢ` ↦
//!   stored relation size) and the counted run must respect it:
//!   total materialized tuples ≤ the work bound, every single
//!   assignment ≤ its per-statement cardinality bound, and the final
//!   `Y1` ≤ the result bound. Work is prefix-sound, so errored and
//!   fuel-exhausted runs are checked too, on the prefix they ran.
//! * **RA-REWRITE-DIFF** — ≥500 seeded RA expressions through
//!   [`optimize_program`]: the chosen plan's nominal cost never
//!   exceeds the original's, and the optimized plan agrees byte-wise
//!   with the *unoptimized* direct semantics three ways (direct,
//!   compiled-`FinInterp`, compiled-`HsInterp`).

use super::ra::round_inputs;
use crate::gen::{self, RaShape};
use crate::ledger::{CheckCtx, CheckDef};
use crate::slice::{discrete_hs, metered, Out};
use recdb_analyze::{analyze_full, CostVerdict};
use recdb_core::Fuel;
use recdb_qlhs::{FinInterp, HsInterp};
use recdb_ra::{compile_program, eval_program, optimize_program, RaSchema};
use std::collections::BTreeMap;

/// COST-SOUND: observed work and cardinalities never exceed the
/// derived bounds, 500 programs on each of the three backends.
fn cost_bounds_are_sound(ctx: &mut CheckCtx) -> Result<(), String> {
    const PER_BACKEND: usize = 500;
    let mut bounded = [0usize; 3];
    let mut bounded_loops = 0usize;
    let mut nonzero_work = 0usize;
    for (which, bounded_here) in bounded.iter_mut().enumerate() {
        for round in 0..PER_BACKEND {
            let families = ["cost-fin", "cost-hs-discrete", "cost-fcf"];
            let slice = metered(ctx, which, families, &format!("cost-{round}"));
            let dialect = slice.dialect();
            let schema = slice.schema();
            let shape = slice.shape(3, round % 2 == 0);
            let stmts = 1 + ctx.rng().gen_usize(3);
            let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
            let full = analyze_full(&p, &schema, dialect);
            let CostVerdict::Bounded { cardinality, work } = &full.cost.verdict else {
                continue;
            };
            *bounded_here += 1;
            if p.to_string().contains("while") {
                bounded_loops += 1;
            }
            let Some(env) = slice.cost_env() else {
                return Err(format!("{dialect} slice has no finite cost valuation"));
            };
            let work_cap = work.eval(&env);
            let card_cap = cardinality.eval(&env);

            // The counted run: work is prefix-sound, so the
            // comparison holds however the run ended.
            let r = slice.run_counted(&p, 4096, &BTreeMap::new());
            if r.work > work_cap {
                return Err(format!(
                    "seed {:#x} ({dialect}, round {round}): materialized {} tuples, \
                     work bound said ≤ {work_cap} ({work})\n{p}",
                    ctx.seed, r.work
                ));
            }
            if r.work > 0 {
                nonzero_work += 1;
            }
            // Every single materialization obeys its per-statement
            // cardinality bound.
            for stmt in &full.cost.stmts {
                let (Some(poly), Some(&got)) =
                    (stmt.cardinality.poly(), r.stmt_tuples.get(&stmt.path))
                else {
                    continue;
                };
                let cap = poly.eval(&env);
                if got > cap {
                    return Err(format!(
                        "seed {:#x} ({dialect}, round {round}): statement at {:?} \
                         materialized {got} tuples, bound said ≤ {cap} ({poly})\n{p}",
                        ctx.seed, stmt.path
                    ));
                }
            }
            // The final result obeys the whole-program cardinality
            // bound (only comparable when the run completed).
            let final_size = slice.run(&p).ok().map(|out| match out {
                Out::Val(v) => v.len() as u64,
                Out::Fcf(f) => f.tuples.len() as u64,
            });
            if let Some(got) = final_size {
                if got > card_cap {
                    return Err(format!(
                        "seed {:#x} ({dialect}, round {round}): |Y1| = {got}, \
                         cardinality bound said ≤ {card_cap} ({cardinality})\n{p}",
                        ctx.seed
                    ));
                }
            }
        }
    }
    // Teeth: every backend must contribute real bounded programs,
    // including loops and nonzero materializations.
    if bounded.iter().any(|&b| b < 150) || bounded_loops < 25 || nonzero_work < 300 {
        return Err(format!(
            "stream lost its teeth: bounded per backend {bounded:?}, \
             {bounded_loops} bounded programs with loops, \
             {nonzero_work} runs with nonzero work"
        ));
    }
    Ok(())
}

/// RA-REWRITE-DIFF: the optimizer's chosen plan is cost-monotone and
/// semantically transparent, three ways, on ≥500 expressions.
fn ra_rewrites_preserve_semantics(ctx: &mut CheckCtx) -> Result<(), String> {
    let graph = RaSchema::sanitized([("E", vec!["x", "y"])]);
    let mut exprs = 0usize;
    let mut rewritten = 0usize;
    let mut nonempty = 0usize;
    let mut round = 0usize;
    while exprs < 500 {
        let (schema, st) = round_inputs(ctx, round, &graph);
        round += 1;
        let shape = RaShape {
            depth: 3,
            views: ctx.rng().gen_usize(3),
            consts: 3,
            free_complement: false,
        };
        let p = gen::random_ra_program(ctx.rng(), &schema, &shape);
        exprs += 1 + p.views.len();

        // The reference semantics come from the *unoptimized* program.
        let direct = eval_program(&p, &schema, &st, st.universe())
            .map_err(|e| format!("seed {:#x}: direct eval failed: {e}\n{p}", ctx.seed))?;

        let report = optimize_program(&p, &schema).map_err(|e| {
            format!(
                "seed {:#x}: optimizer rejected guarded program: {e}\n{p}",
                ctx.seed
            )
        })?;
        if report.cost_chosen > report.cost_original {
            return Err(format!(
                "seed {:#x}: optimizer chose a costlier plan ({} > {})\n{p}\n=> {}",
                ctx.seed, report.cost_chosen, report.cost_original, report.program
            ));
        }
        if report.changed {
            rewritten += 1;
        }

        // The chosen plan, compiled and run both ways, must agree
        // with the original's direct semantics tuple-for-tuple.
        let compiled = compile_program(&report.program, &schema).map_err(|e| {
            format!(
                "seed {:#x}: optimized plan uncompilable: {e}\n{p}\n=> {}",
                ctx.seed, report.program
            )
        })?;
        // Generous fuel: the nominal cost orders plans by materialized
        // tuples, not interpreter ticks, so a chosen plan may walk
        // more term nodes than the original.
        let fin = FinInterp::new(&st)
            .run(&compiled.prog, &mut Fuel::new(2_000_000))
            .map_err(|e| format!("seed {:#x}: FinInterp error {e:?}\n{p}", ctx.seed))?;
        if fin.tuples != direct.tuples.iter().cloned().collect() {
            return Err(format!(
                "seed {:#x}: optimized plan ≠ original semantics (FinInterp)\n{p}\n=> {}\n\
                 fin: {:?}\ndirect: {:?}",
                ctx.seed, report.program, fin.tuples, direct.tuples
            ));
        }
        let hs = discrete_hs(&st);
        let hsv = HsInterp::new(&hs)
            .run(&compiled.prog, &mut Fuel::new(2_000_000))
            .map_err(|e| format!("seed {:#x}: HsInterp error {e:?}\n{p}", ctx.seed))?;
        if hsv.rank != fin.rank || hsv.tuples != fin.tuples {
            return Err(format!(
                "seed {:#x}: optimized plan diverges across interpreters\n{p}\n=> {}",
                ctx.seed, report.program
            ));
        }
        if !direct.tuples.is_empty() {
            nonempty += 1;
        }
    }
    if rewritten < 100 || nonempty < 80 {
        return Err(format!(
            "stream lost its teeth: {rewritten} rewritten plans, {nonempty} nonempty results"
        ));
    }
    Ok(())
}

/// The cost-analysis rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "COST-SOUND",
            result: "§11 cost analysis / soundness",
            title: "Cost bounds: counted runs never exceed the derived polynomials, 3 backends",
            run: cost_bounds_are_sound,
        },
        CheckDef {
            id: "RA-REWRITE-DIFF",
            result: "§11 RA rewriter / plan equivalence",
            title: "RA rewriter: chosen plans are cost-monotone and semantically transparent",
            run: ra_rewrites_preserve_semantics,
        },
    ]
}
