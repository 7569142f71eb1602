//! Relational-algebra frontend rows: the `recdb-ra` compiler
//! ([`recdb_ra::compile_program`]) checked against the crate's direct
//! finite-model evaluator, three ways, plus the safety validator's
//! semantic contract (DESIGN.md §10).
//!
//! * **RA-DIFF** — ≥500 seeded well-typed RA expressions, lowered to
//!   straight-line QLhs and run through [`FinInterp`] *and* through
//!   [`HsInterp`] over a *discrete* hs-wrapping of the same finite
//!   structure; both must match [`recdb_ra::eval_program`]
//!   tuple-for-tuple, and every compiled program must come out of
//!   [`analyze_full`] `Safe`, `Terminates {0}`, `Generic`, and
//!   rank-exact.
//! * **RA-SAFETY** — the validator's judgment is *semantic*: accepted
//!   programs commute with domain extension (active-domain safety),
//!   rejected programs never reach the compiler, and enough rejected
//!   programs demonstrably fail to commute that the check has teeth.

use crate::gen::{self, RaShape};
use crate::ledger::{CheckCtx, CheckDef};
use crate::slice::{discrete_hs, FIN_FUEL};
use recdb_analyze::{analyze_full, GenericityVerdict, TerminationVerdict, Verdict};
use recdb_core::{Elem, FiniteStructure, Fuel, Tuple};
use recdb_hsdb::HsDatabase;
use recdb_qlhs::{Dialect, FinInterp, HsInterp};
use recdb_ra::{compile_program, eval_program, validate, RaProgram, RaSchema};
use std::collections::BTreeSet;

/// A random finite structure matching `schema`: universe `0..size`,
/// each relation filled with random tuples at moderate density.
pub(super) fn random_ra_structure(
    ctx: &mut CheckCtx,
    schema: &RaSchema,
    size: u64,
) -> FiniteStructure {
    let universe: Vec<Elem> = (0..size).map(Elem).collect();
    let mut rels = Vec::new();
    for i in 0..schema.rels().len() {
        let rank = schema.attrs(i).len();
        let count = 1 + ctx.rng().gen_usize(2 * size as usize);
        let tuples: BTreeSet<Tuple> = gen::random_tuples(ctx.rng(), count, rank, size)
            .into_iter()
            .collect();
        rels.push(tuples);
    }
    FiniteStructure::new(schema.core_schema(), universe, rels)
}

/// A finite slice of a zoo hs-db's edge relation: universe `0..size`,
/// tuples read off the infinite database's membership oracle.
fn zoo_slice(db: &HsDatabase, schema: &RaSchema, size: u64) -> FiniteStructure {
    let universe: Vec<Elem> = (0..size).map(Elem).collect();
    let tuples: BTreeSet<Tuple> = universe
        .iter()
        .flat_map(|&x| {
            universe
                .iter()
                .map(move |&y| Tuple::from_values([x.0, y.0]))
        })
        .filter(|t| db.database().query(0, t.elems()))
        .collect();
    FiniteStructure::new(schema.core_schema(), universe, vec![tuples])
}

/// The round's schema + structure, cycling random multi-arity
/// structures with finite slices of two zoo databases.
pub(super) fn round_inputs(
    ctx: &mut CheckCtx,
    round: usize,
    graph: &RaSchema,
) -> (RaSchema, FiniteStructure) {
    match round % 4 {
        0 | 1 => {
            ctx.family("random-ra");
            let schema = gen::random_ra_schema(ctx.rng());
            let size = 3 + ctx.rng().gen_range(0, 2);
            let st = random_ra_structure(ctx, &schema, size);
            (schema, st)
        }
        2 => {
            ctx.family("clique");
            let st = zoo_slice(&recdb_hsdb::infinite_clique(), graph, 4);
            (graph.clone(), st)
        }
        _ => {
            ctx.family("paper-example");
            let st = zoo_slice(&recdb_hsdb::paper_example_graph(), graph, 4);
            (graph.clone(), st)
        }
    }
}

/// RA-DIFF: direct evaluator vs compiled-`FinInterp` vs
/// compiled-`HsInterp`, three-way equal on ≥500 expressions.
fn ra_three_way_differential(ctx: &mut CheckCtx) -> Result<(), String> {
    let graph = RaSchema::sanitized([("E", vec!["x", "y"])]);
    let mut exprs = 0usize;
    let mut nonempty = 0usize;
    let mut guarded_negs = 0usize;
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
        guarded_negs += p.to_string().matches("not").count().min(1);

        // Leg 1: the direct finite-model semantics.
        let direct = eval_program(&p, &schema, &st, st.universe())
            .map_err(|e| format!("seed {:#x}: direct eval failed: {e}\n{p}", ctx.seed))?;

        // The compiler must accept every guarded program, and the
        // compiled program must clear `analyze_full` admission the
        // way `/v1/ra` relies on: Safe, zero-iteration, generic.
        let compiled = compile_program(&p, &schema)
            .map_err(|e| format!("seed {:#x}: guarded program rejected: {e}\n{p}", ctx.seed))?;
        let full = analyze_full(&compiled.prog, st.schema(), Dialect::Qlhs);
        if full.safety.verdict != Verdict::Safe {
            return Err(format!(
                "seed {:#x}: compiled program not Safe ({})\n{}",
                ctx.seed, full.safety.verdict, compiled.prog
            ));
        }
        if full.termination.verdict != (TerminationVerdict::Terminates { iterations: 0 }) {
            return Err(format!(
                "seed {:#x}: compiled program not zero-iteration ({})",
                ctx.seed, full.termination.verdict
            ));
        }
        if !matches!(full.genericity.verdict, GenericityVerdict::Generic { .. }) {
            return Err(format!(
                "seed {:#x}: compiled program not generic ({})",
                ctx.seed, full.genericity.verdict
            ));
        }

        // Leg 2: the finite interpreter, rank-exact.
        let fin = FinInterp::new(&st)
            .run(&compiled.prog, &mut Fuel::new(FIN_FUEL))
            .map_err(|e| format!("seed {:#x}: FinInterp error {e:?}\n{p}", ctx.seed))?;
        if fin.rank != compiled.attrs.len() {
            return Err(format!(
                "seed {:#x}: rank {} ≠ {} attributes\n{p}",
                ctx.seed,
                fin.rank,
                compiled.attrs.len()
            ));
        }
        if fin.tuples != direct.tuples.iter().cloned().collect() {
            return Err(format!(
                "seed {:#x}: FinInterp ≠ direct evaluator\n{p}\ncompiled: {}\nfin: {:?}\ndirect: {:?}",
                ctx.seed, compiled.prog, fin.tuples, direct.tuples
            ));
        }

        // Leg 3: the hs interpreter over the discrete wrapping, at the
        // finite leg's fuel.
        let hs = discrete_hs(&st);
        let hsv = HsInterp::new(&hs)
            .run(&compiled.prog, &mut Fuel::new(FIN_FUEL))
            .map_err(|e| format!("seed {:#x}: HsInterp error {e:?}\n{p}", ctx.seed))?;
        if hsv.rank != fin.rank || hsv.tuples != fin.tuples {
            return Err(format!(
                "seed {:#x}: HsInterp ≠ FinInterp\n{p}\nhs: {:?}\nfin: {:?}",
                ctx.seed, hsv.tuples, fin.tuples
            ));
        }

        if !direct.tuples.is_empty() {
            nonempty += 1;
        }
    }
    // Teeth: the stream must exercise real answers and real guarded
    // negation, not just empty results.
    if nonempty < 80 || guarded_negs < 40 {
        return Err(format!(
            "stream lost its teeth: {nonempty} nonempty results, {guarded_negs} programs with negation"
        ));
    }
    Ok(())
}

/// Evaluates `p` twice — over `st` and over `st` with `extra` fresh
/// elements appended to the universe (relations unchanged) — and
/// reports whether the results agree.
fn commutes_with_extension(
    p: &RaProgram,
    schema: &RaSchema,
    st: &FiniteStructure,
    extra: u64,
) -> bool {
    let size = st.universe().len() as u64;
    let extended: Vec<Elem> = (0..size + extra).map(Elem).collect();
    let rels: Vec<BTreeSet<Tuple>> = (0..schema.rels().len())
        .map(|i| st.relation(i).clone())
        .collect();
    let ext = FiniteStructure::new(schema.core_schema(), extended, rels);
    // The generator only emits well-typed programs, so both runs
    // evaluate; an evaluation error would count as non-commuting.
    let (Ok(small), Ok(big)) = (
        eval_program(p, schema, st, st.universe()),
        eval_program(p, schema, &ext, ext.universe()),
    ) else {
        return false;
    };
    small.tuples == big.tuples
}

/// RA-SAFETY: acceptance ⇔ active-domain safety, with teeth.
fn ra_safety_is_semantic(ctx: &mut CheckCtx) -> Result<(), String> {
    let mut exprs = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut confirmed_unsafe = 0usize;
    let mut round = 0usize;
    while exprs < 500 {
        ctx.family("random-ra");
        let schema = gen::random_ra_schema(ctx.rng());
        let size = 3 + ctx.rng().gen_range(0, 2);
        let st = random_ra_structure(ctx, &schema, size);
        // Alternate guarded-only rounds (all accepted) with
        // free-complement rounds (mostly rejected) so both sides of
        // the judgment stay well populated.
        let shape = RaShape {
            depth: 3,
            views: ctx.rng().gen_usize(2),
            consts: 3,
            free_complement: round.is_multiple_of(2),
        };
        round += 1;
        let p = gen::random_ra_program(ctx.rng(), &schema, &shape);
        exprs += 1 + p.views.len();
        match validate(&p, &schema) {
            Ok(()) => {
                accepted += 1;
                // Accepted ⇒ the answer must not change when the
                // domain grows: hard per-program assertion.
                if !commutes_with_extension(&p, &schema, &st, 2) {
                    return Err(format!(
                        "seed {:#x}: accepted program fails to commute with domain extension\n{p}",
                        ctx.seed
                    ));
                }
                // Accepted ⇒ compiles, and the lowering is Safe.
                let compiled = compile_program(&p, &schema)
                    .map_err(|e| format!("seed {:#x}: accepted but uncompilable: {e}", ctx.seed))?;
                let full = analyze_full(&compiled.prog, st.schema(), Dialect::Qlhs);
                if full.safety.verdict != Verdict::Safe {
                    return Err(format!(
                        "seed {:#x}: accepted program compiled to non-Safe QLhs",
                        ctx.seed
                    ));
                }
            }
            Err(e) => {
                rejected += 1;
                if e.code != "RA05" {
                    return Err(format!(
                        "seed {:#x}: well-typed program rejected with {} (expected RA05)",
                        ctx.seed, e.code
                    ));
                }
                // Rejected ⇒ never admitted: the compiler must refuse
                // (this is how unsafe shapes "fail analysis" — they
                // are stopped before a QLhs program exists).
                if compile_program(&p, &schema).is_ok() {
                    return Err(format!(
                        "seed {:#x}: validator-rejected program compiled anyway\n{p}",
                        ctx.seed
                    ));
                }
                // Count the rejections that demonstrably violate
                // active-domain safety. Rejection is conservative, so
                // this is aggregate teeth, not a per-program claim.
                if !commutes_with_extension(&p, &schema, &st, 2) {
                    confirmed_unsafe += 1;
                }
            }
        }
    }
    if accepted < 120 || rejected < 80 || confirmed_unsafe < 30 {
        return Err(format!(
            "stream lost its teeth: {accepted} accepted, {rejected} rejected, \
             {confirmed_unsafe} confirmed non-adom-safe"
        ));
    }
    Ok(())
}

/// The relational-algebra rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "RA-DIFF",
            result: "RA frontend / §3.3-§4 encoding",
            title: "RA lowering: direct evaluator ≡ FinInterp ≡ HsInterp on ≥500 expressions",
            run: ra_three_way_differential,
        },
        CheckDef {
            id: "RA-SAFETY",
            result: "RA frontend / range restriction",
            title: "RA validator: acceptance commutes with domain extension, rejection has teeth",
            run: ra_safety_is_semantic,
        },
    ]
}
