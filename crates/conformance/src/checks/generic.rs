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

use crate::gen::{self, ProgShape};
use crate::ledger::CheckCtx;
use recdb_analyze::{analyze_full, GenericityVerdict, LoopBound, TerminationVerdict, Verdict};
use recdb_core::{CoFiniteRelation, FiniteRelation, FiniteStructure, Fuel, Schema};
use recdb_hsdb::{unary_cells, CellSize, FcfDatabase, FcfRel, HsDatabase};
use recdb_qlhs::iter_count::{run_counted, CountedEnd};
use recdb_qlhs::{
    Dialect, FcfInterp, FcfVal, FinInterp, HsInterp, Permutation, Prog, Rows, RunError, Term, Val,
};
use std::collections::BTreeMap;
use std::mem::discriminant;

/// Constants are drawn from `0..CONSTS` — a strict subwindow of
/// [`gen::WINDOW`], so permutations fixing every observed constant
/// still have room to move something.
const CONSTS: u64 = 6;

/// One backend instance for a genericity round. The `Hs` variant
/// keeps its cell layout so the permuted copy can be *constructed*
/// (π applied to the finite cells) rather than wrapped.
enum GBackend {
    Fin(FiniteStructure),
    Hs {
        cells: Vec<CellSize>,
        hs: HsDatabase,
    },
    Fcf(FcfDatabase),
}

/// A successful run's result.
#[derive(PartialEq, Debug)]
enum GOut {
    Val(Val),
    Fcf(FcfVal),
}

impl GBackend {
    fn dialect(&self) -> Dialect {
        match self {
            GBackend::Fin(_) => Dialect::Ql,
            GBackend::Hs { .. } => Dialect::Qlhs,
            GBackend::Fcf(_) => Dialect::QlfPlus,
        }
    }

    fn schema(&self) -> Schema {
        match self {
            GBackend::Fin(st) => st.schema().clone(),
            GBackend::Hs { hs, .. } => hs.database().schema().clone(),
            GBackend::Fcf(db) => db.schema(),
        }
    }

    fn run(&self, p: &Prog) -> Result<GOut, RunError> {
        match self {
            GBackend::Fin(st) => FinInterp::new(st)
                .run(p, &mut Fuel::new(200_000))
                .map(GOut::Val),
            GBackend::Hs { hs, .. } => HsInterp::new(hs)
                .run(p, &mut Fuel::new(60_000))
                .map(GOut::Val),
            GBackend::Fcf(db) => FcfInterp::new(db)
                .run(p, &mut Fuel::new(60_000))
                .map(GOut::Fcf),
        }
    }

    /// The isomorphic copy `π(B)`: relations (and, for `Fin`, the
    /// universe) mapped element-wise through `perm`.
    fn permuted(&self, perm: &Permutation) -> GBackend {
        match self {
            GBackend::Fin(st) => {
                let universe = st.universe().iter().map(|&e| perm.apply(e));
                let relations = (0..st.schema().len())
                    .map(|i| st.relation(i).iter().map(|t| perm.apply_tuple(t)).collect())
                    .collect();
                GBackend::Fin(FiniteStructure::new(
                    st.schema().clone(),
                    universe,
                    relations,
                ))
            }
            GBackend::Hs { cells, .. } => {
                let moved: Vec<CellSize> = cells
                    .iter()
                    .map(|c| match c {
                        CellSize::Finite(vals) => CellSize::Finite(
                            vals.iter()
                                .map(|&v| perm.apply(recdb_core::Elem(v)).value())
                                .collect(),
                        ),
                        CellSize::Infinite => CellSize::Infinite,
                    })
                    .collect();
                let hs = unary_cells(moved.clone());
                GBackend::Hs { cells: moved, hs }
            }
            GBackend::Fcf(db) => {
                let rels = db
                    .relations()
                    .iter()
                    .map(|r| {
                        let part = r.finite_part().iter().map(|t| perm.apply_tuple(t));
                        match r {
                            FcfRel::Finite(_) => {
                                FcfRel::Finite(FiniteRelation::new(r.arity(), part))
                            }
                            FcfRel::CoFinite(_) => {
                                FcfRel::CoFinite(CoFiniteRelation::new(r.arity(), part))
                            }
                        }
                    })
                    .collect();
                GBackend::Fcf(FcfDatabase::new("fcf-perm", rels))
            }
        }
    }
}

/// A fresh seeded backend of the given kind (0 = finitary graph,
/// 1 = unary-cell hs database, 2 = fcf database).
fn make_backend(ctx: &mut CheckCtx, kind: usize) -> GBackend {
    match kind {
        0 => {
            ctx.family("random-graph");
            let size = 3 + ctx.rng().gen_range(0, 2);
            GBackend::Fin(gen::random_finite_graph(ctx.rng(), size))
        }
        1 => {
            ctx.family("unary-cells");
            let mut elems: Vec<u64> = (0..gen::WINDOW).collect();
            ctx.rng().shuffle(&mut elems);
            let n1 = 1 + ctx.rng().gen_usize(2);
            let n2 = 1 + ctx.rng().gen_usize(2);
            let cells = vec![
                CellSize::Finite(elems[..n1].to_vec()),
                CellSize::Finite(elems[n1..n1 + n2].to_vec()),
                CellSize::Infinite,
            ];
            let hs = unary_cells(cells.clone());
            GBackend::Hs { cells, hs }
        }
        _ => {
            ctx.family("random-fcf");
            GBackend::Fcf(gen::random_fcf(ctx.rng(), "fcf-generic"))
        }
    }
}

fn shape_for(backend: &GBackend, consts: u64) -> ProgShape {
    let dialect = backend.dialect();
    ProgShape {
        rels: backend.schema().len(),
        vars: 3,
        allow_singleton: dialect.admits_singleton_test(),
        allow_finite: dialect.admits_finiteness_test(),
        consts,
        union_bias: false,
    }
}

/// `q(π(B)) ≟ π(q(B))`: compares the permuted run against the
/// transported base outcome. `moved_backend` is `π(B)` (needed to
/// canonicalize transported hs tuples in *its* representation).
fn agree(
    base: &Result<GOut, RunError>,
    moved: &Result<GOut, RunError>,
    perm: &Permutation,
    moved_backend: &GBackend,
) -> Result<(), String> {
    match (moved_backend, base, moved) {
        (GBackend::Fin(_), Ok(GOut::Val(v1)), Ok(GOut::Val(v2))) => {
            if perm.apply_val(v1) != *v2 {
                return Err(format!(
                    "π(q(B)) = {:?} but q(π(B)) = {v2:?}",
                    perm.apply_val(v1)
                ));
            }
        }
        (GBackend::Hs { hs, .. }, Ok(GOut::Val(v1)), Ok(GOut::Val(v2))) => {
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
        (GBackend::Fcf(_), Ok(GOut::Fcf(f1)), Ok(GOut::Fcf(f2))) => {
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
    let backend = make_backend(ctx, kind);
    let dialect = backend.dialect();
    let schema = backend.schema();
    let shape = shape_for(&backend, CONSTS);
    let stmts = 1 + ctx.rng().gen_usize(3);
    let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
    let full = analyze_full(&p, &schema, dialect);
    let GenericityVerdict::Generic { fixed } = &full.genericity.verdict else {
        return Ok(());
    };
    let base = backend.run(&p);
    for _ in 0..PERMS {
        let perm = Permutation::random_fixing(ctx.rng(), gen::WINDOW, fixed);
        let moved_backend = backend.permuted(&perm);
        let moved = moved_backend.run(&p);
        *runs += 1;
        agree(&base, &moved, &perm, &moved_backend).map_err(|why| {
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
        let backend = make_backend(ctx, if round % 2 == 0 { 0 } else { 2 });
        let dialect = backend.dialect();
        let schema = backend.schema();
        let shape = shape_for(&backend, 4);
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
        let same = |r: &Result<GOut, RunError>, which: &str| -> Result<bool, String> {
            match r {
                Ok(GOut::Val(v)) => {
                    if v != output {
                        return Err(format!(
                            "claimed constant output {output:?} but {which} computed {v:?} \
                             (round {round}):\n{p}"
                        ));
                    }
                    Ok(true)
                }
                Ok(GOut::Fcf(f)) => {
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
        let ok_base = same(&backend.run(&p), "B")?;
        let ok_moved = same(&backend.permuted(&perm).run(&p), "π(B)")?;
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
        let backend = match round % 3 {
            0 => {
                ctx.family("random-graph");
                let size = 3 + ctx.rng().gen_range(0, 2);
                GBackend::Fin(gen::random_finite_graph(ctx.rng(), size))
            }
            1 => {
                ctx.family("infinite-clique");
                GBackend::Hs {
                    cells: Vec::new(),
                    hs: recdb_hsdb::infinite_clique(),
                }
            }
            _ => {
                ctx.family("random-fcf");
                GBackend::Fcf(gen::random_fcf(ctx.rng(), &format!("fcf-{round}")))
            }
        };
        let dialect = backend.dialect();
        let schema = backend.schema();
        let shape = shape_for(&backend, 3);
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
        let (d, bs) = (dialect, &bounds);
        let counted = match &backend {
            GBackend::Fin(st) => run_counted(&mut FinInterp::new(st), d, &p, 200_000, CAP, bs),
            GBackend::Hs { hs, .. } => run_counted(&mut HsInterp::new(hs), d, &p, 60_000, CAP, bs),
            GBackend::Fcf(db) => run_counted(&mut FcfInterp::new(db), d, &p, 60_000, CAP, bs),
        };
        if let CountedEnd::BoundExceeded { path, bound } = &counted.end {
            return Err(format!(
                "proved bound ≤ {bound} for the loop at {path:?} was exceeded under \
                 {dialect} (round {round}):\n{p}"
            ));
        }
        match &full.termination.verdict {
            TerminationVerdict::Terminates { iterations } => {
                if matches!(counted.end, CountedEnd::CapHit) {
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
                    CountedEnd::CapHit | CountedEnd::Errored(RunError::Fuel(_)) => {}
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
