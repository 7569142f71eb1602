//! Analyzer-differential rows: the static analyzer's claims
//! ([`recdb_analyze::Verdict`]) checked against what the three
//! interpreters actually do on seeded random programs.
//!
//! The claims under test (see `recdb_analyze::prog`):
//!
//! * **accept** — `Safe` means no run can raise a rank mismatch,
//!   missing relation, or dialect violation. Fuel exhaustion and
//!   QLf+'s `↑`-on-infinite are outside the claim (the analyzer does
//!   not model termination or finiteness of values).
//! * **reject** — `Unsafe` means every run returns an error (of any
//!   kind: a must-execute defect errors unless an earlier statement —
//!   including a diverging loop — errors first).
//! * **simplify** — rank-aware simplification preserves both the
//!   verdict and the interpreted result.
//!
//! Together the three checks drive well over 500 seeded random
//! programs (620 per ledger run) through analyzer + interpreters.

use crate::gen::{self, ProgShape};
use crate::ledger::CheckCtx;
use crate::slice::cycle;
use recdb_analyze::{analyze_prog, simplify_prog_checked, Verdict};
use recdb_qlhs::{Prog, RunError, Term};

/// Errors outside the `Safe` claim: the analyzer does not model
/// termination (fuel) or value finiteness (QLf+ `↑` on co-finite).
fn outside_safe_claim(e: &RunError) -> bool {
    matches!(e, RunError::Fuel(_) | RunError::UpOnInfinite)
}

/// `Safe` ⇒ running the program in its dialect's interpreter never
/// raises a rank/arity/dialect error.
pub fn analyzer_accepts_soundly(ctx: &mut CheckCtx) -> Result<(), String> {
    const ROUNDS: usize = 300;
    let mut safe_runs = 0usize;
    for round in 0..ROUNDS {
        let slice = cycle(ctx, round);
        let dialect = slice.dialect();
        let schema = slice.schema();
        // Mostly well-formed programs (so plenty reach `Safe`), with
        // a seasoning of out-of-schema relation indices.
        let shape = ProgShape {
            rels: schema.len() + usize::from(ctx.rng().gen_usize(6) == 0),
            ..slice.shape(0, false)
        };
        let stmts = 1 + ctx.rng().gen_usize(3);
        let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        let analysis = analyze_prog(&p, &schema, dialect);
        if analysis.verdict != Verdict::Safe {
            continue;
        }
        safe_runs += 1;
        match slice.run(&p) {
            Ok(_) => {}
            Err(e) if outside_safe_claim(&e) => {}
            Err(e) => {
                return Err(format!(
                    "analyzer said Safe under {dialect} but run errored with {e:?} \
                     (round {round}):\n{p}"
                ));
            }
        }
    }
    if safe_runs < 60 {
        return Err(format!(
            "generator drift: only {safe_runs}/{ROUNDS} programs reached Safe — \
             the accept direction lost its teeth"
        ));
    }
    Ok(())
}

/// `Unsafe` ⇒ every run returns an error — checked on naturally
/// ill-formed programs plus rounds with an injected must-execute
/// defect (which the analyzer must also classify `Unsafe`).
pub fn analyzer_rejects_soundly(ctx: &mut CheckCtx) -> Result<(), String> {
    const ROUNDS: usize = 200;
    let mut unsafe_runs = 0usize;
    for round in 0..ROUNDS {
        let slice = cycle(ctx, round);
        let dialect = slice.dialect();
        let schema = slice.schema();
        // All test forms and an over-wide relation window: dialect
        // violations and missing relations arise naturally.
        let shape = ProgShape {
            rels: schema.len() + usize::from(round % 3 == 0),
            vars: 3,
            allow_singleton: true,
            allow_finite: true,
            consts: 0,
            union_bias: false,
        };
        let stmts = 1 + ctx.rng().gen_usize(3);
        let mut p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        let injected = round % 2 == 0;
        if injected {
            let defect = match ctx.rng().gen_usize(3) {
                0 => Prog::assign(1, Term::E.and(Term::E.up())),
                1 => Prog::assign(1, Term::Rel(schema.len())),
                _ => Prog::assign(1, Term::E.up().and(Term::E.down())),
            };
            p = Prog::seq([p, defect]);
        }
        let analysis = analyze_prog(&p, &schema, dialect);
        if injected && analysis.verdict != Verdict::Unsafe {
            return Err(format!(
                "analyzer missed an injected must-execute defect under {dialect} \
                 (verdict {:?}, round {round}):\n{p}",
                analysis.verdict
            ));
        }
        if analysis.verdict != Verdict::Unsafe {
            continue;
        }
        unsafe_runs += 1;
        if let Ok(v) = slice.run(&p) {
            return Err(format!(
                "analyzer said Unsafe under {dialect} but the run succeeded \
                 with {v:?} (round {round}):\n{p}"
            ));
        }
    }
    if unsafe_runs < 100 {
        return Err(format!(
            "generator drift: only {unsafe_runs}/{ROUNDS} programs reached Unsafe"
        ));
    }
    Ok(())
}

/// Rank-aware simplification preserves the analyzer verdict and the
/// interpreted result (modulo fuel: the simplified program spends
/// fewer ticks).
pub fn simplifier_preserves_semantics(ctx: &mut CheckCtx) -> Result<(), String> {
    const ROUNDS: usize = 120;
    for round in 0..ROUNDS {
        let slice = cycle(ctx, round);
        let dialect = slice.dialect();
        let schema = slice.schema();
        let shape = slice.shape(0, false);
        let stmts = 1 + ctx.rng().gen_usize(3);
        let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        let s = simplify_prog_checked(&p, &schema);
        let before = analyze_prog(&p, &schema, dialect).verdict;
        let after = analyze_prog(&s, &schema, dialect).verdict;
        if before != after {
            return Err(format!(
                "simplification changed the verdict under {dialect}: \
                 {before:?} → {after:?} (round {round})\nbefore:\n{p}\nafter:\n{s}"
            ));
        }
        let (ro, rs) = (slice.run(&p), slice.run(&s));
        match (ro, rs) {
            (Ok(a), Ok(b)) => {
                if a != b {
                    return Err(format!(
                        "simplification changed the result under {dialect} \
                         (round {round})\nbefore:\n{p}\nafter:\n{s}"
                    ));
                }
            }
            // Fuel timing may differ; any pairing involving fuel
            // exhaustion is outside the comparison.
            (Err(RunError::Fuel(_)), _) | (_, Err(RunError::Fuel(_))) => {}
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(format!(
                    "simplification changed success under {dialect}: \
                     {a:?} vs {b:?} (round {round})\nbefore:\n{p}\nafter:\n{s}"
                ));
            }
        }
    }
    Ok(())
}

use crate::ledger::CheckDef;

/// The analyzer-differential rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "ANALYZE-ACCEPT",
            result: "static analysis / §3.3-§4 semantics",
            title: "Safe verdict ⇒ no rank/arity/dialect error in any interpreter",
            run: analyzer_accepts_soundly,
        },
        CheckDef {
            id: "ANALYZE-REJECT",
            result: "static analysis / §3.3-§4 semantics",
            title: "Unsafe verdict ⇒ every interpreter run errors",
            run: analyzer_rejects_soundly,
        },
        CheckDef {
            id: "ANALYZE-SIMPLIFY",
            result: "static analysis / optimize rewrites",
            title: "rank-aware simplification preserves verdicts and results",
            run: simplifier_preserves_semantics,
        },
    ]
}
