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

use super::ra::{discrete_hs, round_inputs};
use crate::gen::{self, ProgShape, RaShape};
use crate::ledger::{CheckCtx, CheckDef};
use recdb_analyze::{analyze_full, CostEnv, CostVerdict};
use recdb_core::{FiniteStructure, Fuel, Schema};
use recdb_hsdb::FcfDatabase;
use recdb_qlhs::iter_count::{run_counted, CountedRun};
use recdb_qlhs::{Dialect, FcfInterp, FinInterp, HsInterp, Prog};
use recdb_ra::{compile_program, eval_program, optimize_program, RaSchema};
use std::collections::BTreeMap;

/// One cost-metered backend for a round.
enum CostBackend {
    Fin(FiniteStructure),
    /// The discrete hs-wrapping of a finite structure: reps are
    /// literal tuples, so counted sizes are comparable and the base
    /// size is the wrapped universe.
    Hs(FiniteStructure),
    Fcf(FcfDatabase),
}

impl CostBackend {
    fn dialect(&self) -> Dialect {
        match self {
            CostBackend::Fin(_) => Dialect::Ql,
            CostBackend::Hs(_) => Dialect::Qlhs,
            CostBackend::Fcf(_) => Dialect::QlfPlus,
        }
    }

    fn schema(&self) -> Schema {
        match self {
            CostBackend::Fin(st) | CostBackend::Hs(st) => st.schema().clone(),
            CostBackend::Fcf(db) => db.schema(),
        }
    }

    /// The concrete valuation of the symbolic bounds for this slice:
    /// `n` ↦ the base-set size, `rᵢ` ↦ relation `i`'s stored size —
    /// the same instantiation the server's admission uses.
    fn cost_env(&self) -> CostEnv {
        match self {
            CostBackend::Fin(st) | CostBackend::Hs(st) => CostEnv::new(
                st.universe().len() as u64,
                (0..st.schema().len())
                    .map(|i| st.relation(i).len() as u64)
                    .collect(),
            ),
            CostBackend::Fcf(db) => CostEnv::new(
                db.df().len() as u64,
                db.relations()
                    .iter()
                    .map(|r| r.finite_part().len() as u64)
                    .collect(),
            ),
        }
    }

    fn counted_run(&self, p: &Prog) -> CountedRun {
        let (d, nb) = (self.dialect(), BTreeMap::new());
        match self {
            CostBackend::Fin(st) => run_counted(&mut FinInterp::new(st), d, p, 200_000, 4096, &nb),
            CostBackend::Hs(st) => {
                let hs = discrete_hs(st);
                run_counted(&mut HsInterp::new(&hs), d, p, 60_000, 4096, &nb)
            }
            CostBackend::Fcf(db) => run_counted(&mut FcfInterp::new(db), d, p, 60_000, 4096, &nb),
        }
    }
}

/// COST-SOUND: observed work and cardinalities never exceed the
/// derived bounds, 500 programs on each of the three backends.
fn cost_bounds_are_sound(ctx: &mut CheckCtx) -> Result<(), String> {
    const PER_BACKEND: usize = 500;
    let mut bounded = [0usize; 3];
    let mut bounded_loops = 0usize;
    let mut nonzero_work = 0usize;
    for (which, bounded_here) in bounded.iter_mut().enumerate() {
        for round in 0..PER_BACKEND {
            let backend = match which {
                0 => {
                    ctx.family("cost-fin");
                    let size = 3 + ctx.rng().gen_range(0, 2);
                    CostBackend::Fin(gen::random_finite_graph(ctx.rng(), size))
                }
                1 => {
                    ctx.family("cost-hs-discrete");
                    let size = 3 + ctx.rng().gen_range(0, 2);
                    CostBackend::Hs(gen::random_finite_graph(ctx.rng(), size))
                }
                _ => {
                    ctx.family("cost-fcf");
                    CostBackend::Fcf(gen::random_fcf(ctx.rng(), &format!("cost-{round}")))
                }
            };
            let dialect = backend.dialect();
            let schema = backend.schema();
            let shape = ProgShape {
                rels: schema.len(),
                vars: 3,
                allow_singleton: dialect.admits_singleton_test(),
                allow_finite: dialect.admits_finiteness_test(),
                consts: 3,
                union_bias: round % 2 == 0,
            };
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
            let env = backend.cost_env();
            let work_cap = work.eval(&env);
            let card_cap = cardinality.eval(&env);

            // The counted run: work is prefix-sound, so the
            // comparison holds however the run ended.
            let r = backend.counted_run(&p);
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
            let final_size = match &backend {
                CostBackend::Fin(st) => FinInterp::new(st)
                    .run(&p, &mut Fuel::new(200_000))
                    .ok()
                    .map(|v| v.len() as u64),
                CostBackend::Hs(st) => HsInterp::new(&discrete_hs(st))
                    .run(&p, &mut Fuel::new(60_000))
                    .ok()
                    .map(|v| v.len() as u64),
                CostBackend::Fcf(db) => FcfInterp::new(db)
                    .run(&p, &mut Fuel::new(60_000))
                    .ok()
                    .map(|v| v.tuples.len() as u64),
            };
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
        if fin.tuples != direct.tuples {
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
