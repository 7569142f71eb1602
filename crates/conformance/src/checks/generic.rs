//! Genericity & termination differentials: the abstract
//! interpretation passes' *proved* verdicts
//! ([`recdb_analyze::GenericityVerdict`],
//! [`recdb_analyze::TerminationVerdict`]) replayed against the real
//! interpreters.
//!
//! Three rows:
//!
//! * **GENERIC-PERM** — every `Generic {fixed}` verdict is a
//!   commutation claim (Def 2.5): for any permutation `π` fixing
//!   `fixed` pointwise, `q(π(B)) = π(q(B))`. The check runs ≥ 500
//!   seeded random permutations *per backend* (finitary structures,
//!   unary-cell hs databases, fcf databases), comparing the permuted
//!   run against the transported original — including error outcomes,
//!   which must correspond kind-for-kind (a permutation flipping a
//!   run between `Ok` and fuel exhaustion would expose an unsound
//!   `fixed` set).
//! * **NONGENERIC-WITNESS** — every `NonGeneric {output, witness}`
//!   verdict must be *demonstrably* non-generic: the output equals
//!   the claimed constant relation on two different databases (`B`
//!   and the witness-transposed `π(B)`), while the transposition
//!   moves the relation itself — `π(q(B)) ≠ q(π(B))` concretely.
//! * **TERMINATE-BOUND** — every proved per-loop bound is enforced
//!   during a counted replay ([`recdb_qlhs::iter_count`]); `Terminates`
//!   programs respect their total-iteration claim and `Diverges`
//!   programs must hit the iteration cap (or exhaust fuel) instead of
//!   completing.

use crate::gen;
use crate::ledger::CheckCtx;
use crate::slice::{cycle, random_graph, HsSource, Out, Slice};
use recdb_analyze::{analyze_full, GenericityVerdict, LoopBound, TerminationVerdict, Verdict};
use recdb_core::{CoFiniteRelation, FiniteRelation, FiniteStructure};
use recdb_hsdb::{CellSize, FcfDatabase, FcfRel};
use recdb_qlhs::exec::ExecEnd;
use recdb_qlhs::{Permutation, Prog, Rows, RunError, Term};
use std::collections::BTreeMap;
use std::mem::discriminant;

/// Constants are drawn from `0..CONSTS` — a strict subwindow of
/// [`gen::WINDOW`], so permutations fixing every observed constant
/// still have room to move something.
const CONSTS: u64 = 6;

/// The isomorphic copy `π(B)`: relations (and, for a finite structure,
/// the universe) mapped element-wise through `perm`. A cell layout is
/// rebuilt from its moved cells rather than wrapped; the infinite
/// clique is its own image under every permutation.
fn permuted(slice: &Slice, perm: &Permutation) -> Slice {
    let fin = |st: &FiniteStructure| {
        let universe = st.universe().iter().map(|&e| perm.apply(e));
        let relations = (0..st.schema().len())
            .map(|i| st.relation(i).iter().map(|t| perm.apply_tuple(t)).collect())
            .collect();
        FiniteStructure::new(st.schema().clone(), universe, relations)
    };
    match slice {
        Slice::Fin(st) => Slice::Fin(fin(st)),
        Slice::Hs(_, HsSource::Discrete(st)) => Slice::discrete(fin(st)),
        Slice::Hs(_, HsSource::Clique) => Slice::clique(),
        Slice::Hs(_, HsSource::Cells(cells)) => Slice::cells(
            cells
                .iter()
                .map(|c| match c {
                    CellSize::Finite(vals) => CellSize::Finite(
                        vals.iter()
                            .map(|&v| perm.apply(recdb_core::Elem(v)).value())
                            .collect(),
                    ),
                    CellSize::Infinite => CellSize::Infinite,
                })
                .collect(),
        ),
        Slice::Fcf(db) => {
            let rels = db
                .relations()
                .iter()
                .map(|r| {
                    let part = r.finite_part().iter().map(|t| perm.apply_tuple(t));
                    match r {
                        FcfRel::Finite(_) => FcfRel::Finite(FiniteRelation::new(r.arity(), part)),
                        FcfRel::CoFinite(_) => {
                            FcfRel::CoFinite(CoFiniteRelation::new(r.arity(), part))
                        }
                    }
                })
                .collect();
            Slice::Fcf(FcfDatabase::new("fcf-perm", rels))
        }
    }
}

/// A fresh seeded slice of the given kind (0 = finite graph,
/// 1 = unary-cell hs database, 2 = fcf database).
fn make_slice(ctx: &mut CheckCtx, kind: usize) -> Slice {
    match kind {
        0 => {
            ctx.family("random-graph");
            Slice::Fin(random_graph(ctx))
        }
        1 => {
            ctx.family("unary-cells");
            let mut elems: Vec<u64> = (0..gen::WINDOW).collect();
            ctx.rng().shuffle(&mut elems);
            let n1 = 1 + ctx.rng().gen_usize(2);
            let n2 = 1 + ctx.rng().gen_usize(2);
            Slice::cells(vec![
                CellSize::Finite(elems[..n1].to_vec()),
                CellSize::Finite(elems[n1..n1 + n2].to_vec()),
                CellSize::Infinite,
            ])
        }
        _ => {
            ctx.family("random-fcf");
            Slice::Fcf(gen::random_fcf(ctx.rng(), "fcf-generic"))
        }
    }
}

/// `q(π(B)) ≟ π(q(B))`: compares the permuted run against the
/// transported base outcome. `moved_slice` is `π(B)` (needed to
/// canonicalize transported hs tuples in *its* representation).
fn agree(
    base: &Result<Out, RunError>,
    moved: &Result<Out, RunError>,
    perm: &Permutation,
    moved_slice: &Slice,
) -> Result<(), String> {
    match (moved_slice, base, moved) {
        (Slice::Fin(_), Ok(Out::Val(v1)), Ok(Out::Val(v2))) => {
            if perm.apply_val(v1) != *v2 {
                return Err(format!(
                    "π(q(B)) = {:?} but q(π(B)) = {v2:?}",
                    perm.apply_val(v1)
                ));
            }
        }
        (Slice::Hs(hs, _), Ok(Out::Val(v1)), Ok(Out::Val(v2))) => {
            // Transport class-wise: the class of π(u) in π(B),
            // canonicalized in π(B)'s representation.
            let transported: Rows = v1
                .tuples
                .iter()
                .map(|u| hs.canonical_rep(&perm.apply_tuple(&u)))
                .collect();
            if v1.rank != v2.rank || transported != v2.tuples {
                return Err(format!(
                    "π(q(B)) has reps {transported:?} (rank {}) but q(π(B)) = {v2:?}",
                    v1.rank
                ));
            }
        }
        (Slice::Fcf(_), Ok(Out::Fcf(f1)), Ok(Out::Fcf(f2))) => {
            let transported: Rows = f1.tuples.iter().map(|t| perm.apply_tuple(&t)).collect();
            if f1.finite != f2.finite || f1.rank != f2.rank || transported != f2.tuples {
                return Err(format!(
                    "π(q(B)) = (finite: {}, rank {}, {transported:?}) but q(π(B)) = {f2:?}",
                    f1.finite, f1.rank
                ));
            }
        }
        (_, Err(a), Err(b)) => {
            if discriminant(a) != discriminant(b) {
                return Err(format!("B errored with {a:?} but π(B) with {b:?}"));
            }
        }
        (_, a, b) => {
            return Err(format!("B produced {a:?} but π(B) produced {b:?}"));
        }
    }
    Ok(())
}

/// One GENERIC-PERM round on one backend kind; bumps `runs` per
/// permutation differential executed.
fn perm_round(ctx: &mut CheckCtx, kind: usize, runs: &mut usize) -> Result<(), String> {
    const PERMS: usize = 6;
    let slice = make_slice(ctx, kind);
    let dialect = slice.dialect();
    let schema = slice.schema();
    let shape = slice.shape(CONSTS, false);
    let stmts = 1 + ctx.rng().gen_usize(3);
    let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
    let full = analyze_full(&p, &schema, dialect);
    let GenericityVerdict::Generic { fixed } = &full.genericity.verdict else {
        return Ok(());
    };
    let base = slice.run(&p);
    for _ in 0..PERMS {
        let perm = Permutation::random_fixing(ctx.rng(), gen::WINDOW, fixed);
        let moved_slice = permuted(&slice, &perm);
        let moved = moved_slice.run(&p);
        *runs += 1;
        agree(&base, &moved, &perm, &moved_slice).map_err(|why| {
            format!(
                "Generic {{fixed: {fixed:?}}} verdict refuted under {dialect}: {why}\n\
                 permutation: {perm:?}\nprogram:\n{p}"
            )
        })?;
    }
    Ok(())
}

/// `Generic {fixed}` verdicts survive seeded permutation
/// differentials — at least 500 permuted runs per backend.
pub fn generic_verdicts_survive_permutation(ctx: &mut CheckCtx) -> Result<(), String> {
    const NEEDED: usize = 500;
    const MAX_ROUNDS: usize = 400;
    for kind in 0..3 {
        let mut runs = 0usize;
        let mut rounds = 0usize;
        while runs < NEEDED && rounds < MAX_ROUNDS {
            perm_round(ctx, kind, &mut runs)?;
            rounds += 1;
        }
        if runs < NEEDED {
            return Err(format!(
                "generator drift: only {runs}/{NEEDED} permutation runs on backend kind \
                 {kind} after {rounds} rounds — the differential lost its teeth"
            ));
        }
    }
    Ok(())
}

/// Exact-output tails for witness rounds: each evaluates to `{(c)}`
/// through a different exactness-preserving path.
fn exact_tail(ctx: &mut CheckCtx) -> Term {
    let c = ctx.rng().gen_range(0, 4);
    match ctx.rng().gen_usize(3) {
        0 => Term::Const(c),
        1 => Term::Const(c).swap(),
        _ => Term::Const(c).and(Term::Const(c)),
    }
}

/// `NonGeneric {output, witness}` verdicts are demonstrably
/// non-generic: the output is the claimed constant relation on both
/// `B` and the witness-transposed `π(B)`, and `π` moves the relation.
pub fn nongeneric_witnesses_change_the_output(ctx: &mut CheckCtx) -> Result<(), String> {
    const ROUNDS: usize = 240;
    let mut checked = 0usize;
    for round in 0..ROUNDS {
        // Fin and Fcf only: exact-value verdicts are not claimed under
        // QLhs (`Cₐ` denotes a class there, not `{(a)}`).
        let slice = make_slice(ctx, if round % 2 == 0 { 0 } else { 2 });
        let dialect = slice.dialect();
        let schema = slice.schema();
        let shape = slice.shape(4, false);
        let stmts = 1 + ctx.rng().gen_usize(2);
        let mut p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        let injected = round % 2 == 0;
        if injected {
            let tail = exact_tail(ctx);
            p = Prog::seq([p, Prog::assign(0, tail)]);
        }
        let full = analyze_full(&p, &schema, dialect);
        let completes = full.safety.verdict == Verdict::Safe
            && matches!(
                full.termination.verdict,
                TerminationVerdict::Terminates { .. }
            );
        let (output, (e, d)) = match &full.genericity.verdict {
            GenericityVerdict::NonGeneric { output, witness } => (output, *witness),
            other => {
                if injected && completes {
                    return Err(format!(
                        "injected exact tail on a Safe, terminating {dialect} program \
                         but the verdict is {other:?} (round {round}):\n{p}"
                    ));
                }
                continue;
            }
        };
        let perm = Permutation::transposition(e, d);
        if perm.apply_val(output) == *output {
            return Err(format!(
                "witness ({e} {d}) does not move the claimed output {output:?} \
                 (round {round}):\n{p}"
            ));
        }
        let same = |r: &Result<Out, RunError>, which: &str| -> Result<bool, String> {
            match r {
                Ok(Out::Val(v)) => {
                    if v != output {
                        return Err(format!(
                            "claimed constant output {output:?} but {which} computed {v:?} \
                             (round {round}):\n{p}"
                        ));
                    }
                    Ok(true)
                }
                Ok(Out::Fcf(f)) => {
                    if !f.finite || f.rank != output.rank || f.tuples != output.tuples {
                        return Err(format!(
                            "claimed constant output {output:?} but {which} computed {f:?} \
                             (round {round}):\n{p}"
                        ));
                    }
                    Ok(true)
                }
                // Fuel is outside the proof (bounds count iterations,
                // not ticks); any other error refutes `Safe`.
                Err(RunError::Fuel(_)) => Ok(false),
                Err(e) => Err(format!(
                    "NonGeneric claims a completing run but {which} errored with {e:?} \
                     (round {round}):\n{p}"
                )),
            }
        };
        let ok_base = same(&slice.run(&p), "B")?;
        let ok_moved = same(&permuted(&slice, &perm).run(&p), "π(B)")?;
        if ok_base && ok_moved {
            checked += 1;
        }
    }
    if checked < 30 {
        return Err(format!(
            "generator drift: only {checked}/{ROUNDS} NonGeneric witnesses replayed"
        ));
    }
    Ok(())
}

/// Proved iteration bounds hold in counted replays; `Diverges`
/// programs never complete.
pub fn termination_bounds_hold(ctx: &mut CheckCtx) -> Result<(), String> {
    const ROUNDS: usize = 240;
    const CAP: u64 = 10_000;
    let mut bounded_checks = 0usize;
    let mut diverges_checked = 0usize;
    for round in 0..ROUNDS {
        let slice = cycle(ctx, round);
        let dialect = slice.dialect();
        let schema = slice.schema();
        let shape = slice.shape(3, false);
        let stmts = 1 + ctx.rng().gen_usize(3);
        let mut p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        if round % 4 == 0 {
            // Inject a guaranteed-divergent spine loop: the guard
            // variable is never assigned, so `while empty` spins.
            let filler = gen::random_term(ctx.rng(), 1, &shape);
            p = Prog::seq([
                Prog::assign(0, filler),
                Prog::WhileEmpty(1, Box::new(Prog::assign(2, Term::E))),
            ]);
        }
        if dialect.check(&p).is_err() {
            continue;
        }
        let full = analyze_full(&p, &schema, dialect);
        let bounds: BTreeMap<Vec<u32>, u64> = full
            .termination
            .loops
            .iter()
            .filter_map(|l| match l.bound {
                LoopBound::Bounded(b) => Some((l.path.clone(), b)),
                _ => None,
            })
            .collect();
        bounded_checks += bounds.len();
        let counted = slice.run_counted(&p, CAP, &bounds);
        if let ExecEnd::BoundExceeded { path, bound } = &counted.end {
            return Err(format!(
                "proved bound ≤ {bound} for the loop at {path:?} was exceeded under \
                 {dialect} (round {round}):\n{p}"
            ));
        }
        match &full.termination.verdict {
            TerminationVerdict::Terminates { iterations } => {
                if matches!(counted.end, ExecEnd::TotalExceeded { .. }) {
                    return Err(format!(
                        "Terminates (≤ {iterations}) claimed but the run hit the \
                         {CAP}-iteration cap under {dialect} (round {round}):\n{p}"
                    ));
                }
                if counted.total > *iterations {
                    return Err(format!(
                        "Terminates claims ≤ {iterations} total iterations but the run \
                         used {} under {dialect} (round {round}):\n{p}",
                        counted.total
                    ));
                }
            }
            TerminationVerdict::Diverges => {
                diverges_checked += 1;
                match &counted.end {
                    ExecEnd::TotalExceeded { .. } | ExecEnd::OutOfFuel => {}
                    other => {
                        return Err(format!(
                            "Diverges claimed but the run ended with {other:?} under \
                             {dialect} (round {round}):\n{p}"
                        ));
                    }
                }
            }
            TerminationVerdict::Unknown => {}
        }
    }
    if bounded_checks < 50 || diverges_checked < 12 {
        return Err(format!(
            "generator drift: {bounded_checks} bounded-loop checks and \
             {diverges_checked} Diverges replays — the harness lost its teeth"
        ));
    }
    Ok(())
}

use crate::ledger::CheckDef;

/// The genericity/termination differential rows.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "GENERIC-PERM",
            result: "static analysis / Def 2.5 genericity",
            title: "Generic verdicts survive ≥500 seeded permutation runs per backend",
            run: generic_verdicts_survive_permutation,
        },
        CheckDef {
            id: "NONGENERIC-WITNESS",
            result: "static analysis / Def 2.5 genericity",
            title: "NonGeneric witness transpositions concretely change the output",
            run: nongeneric_witnesses_change_the_output,
        },
        CheckDef {
            id: "TERMINATE-BOUND",
            result: "static analysis / P3.7-C3.3 refinement bound",
            title: "proved loop bounds hold in counted replays; Diverges never completes",
            run: termination_bounds_hold,
        },
    ]
}
