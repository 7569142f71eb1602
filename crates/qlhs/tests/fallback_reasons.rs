//! Every semi-naive fallback is counted under its reason code
//! (`fixpoint.seminaive.fallbacks.<code>`) as well as in the total,
//! and a loop that falls back ends exactly as it does with semi-naive
//! evaluation off, fuel left included.
//!
//! The metrics recorder is process-global, so the tests serialize on
//! [`LOCK`].

mod support;

use recdb_core::{tuple, CoFiniteRelation, FiniteRelation, FiniteStructure, Fuel};
use recdb_hsdb::{FcfDatabase, FcfRel};
use recdb_obs::InMemoryRecorder;
use recdb_qlhs::exec::{run_with, FuelOnly, Schedule};
use recdb_qlhs::{parse_program, Dialect, FcfInterp, FinInterp, Prog, RunError, Term, Val};
use std::sync::Mutex;
use support::Unfused;

static LOCK: Mutex<()> = Mutex::new(());

fn union_assign(v: usize, s: Term) -> Prog {
    Prog::assign(v, Term::Var(v).union(s))
}

/// The fcf database of the co-finite cases: `R1 = {1}`, `R2 = D ∖ {1}`.
fn cofinite_db() -> FcfDatabase {
    FcfDatabase::new(
        "s",
        vec![
            FcfRel::Finite(FiniteRelation::unary([1])),
            FcfRel::CoFinite(CoFiniteRelation::new(1, [tuple![1]])),
        ],
    )
}

#[test]
fn each_fallback_is_counted_under_its_reason() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let rec = InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    let path = FiniteStructure::undirected_graph(0..3, [(0, 1), (1, 2)]);
    let succ = Term::Var(1).up().and(Term::Rel(0)).down();
    let mut fin = FinInterp::new(&path);
    let mut run = |p: &Prog, fuel: u64| {
        let mut env = vec![Val::empty(0); 4];
        let _ = fin.exec(p, &mut env, &mut Fuel::new(fuel));
    };
    // A replacement write is outside the fragment.
    run(
        &Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E))),
        1_000,
    );
    // Y2 is rank 0 on entry, its source rank 1.
    run(
        &Prog::WhileEmpty(1, Box::new(union_assign(1, Term::Const(0)))),
        1_000,
    );
    // Y2 saturates while the guard Y3 stays empty.
    let seeded = |body: Prog| {
        Prog::seq([
            Prog::assign(1, Term::Const(0)),
            Prog::WhileEmpty(2, Box::new(body)),
        ])
    };
    run(&seeded(union_assign(1, succ.clone())), 10_000);
    // The budget runs out after the seeding statement.
    run(&seeded(union_assign(1, succ)), 4);
    // R5 is not in the schema.
    run(&seeded(union_assign(1, Term::Rel(4).down())), 1_000);

    // A co-finite loop variable on entry.
    let fcf = cofinite_db();
    let p = Prog::seq([
        Prog::assign(1, Term::Rel(1)),
        Prog::WhileEmpty(2, Box::new(union_assign(1, Term::Rel(0)))),
    ]);
    let _ = FcfInterp::new(&fcf).run(&p, &mut Fuel::new(1_000));
    recdb_obs::uninstall();

    for code in [
        "ineligible_body",
        "rank_mismatch",
        "divergent",
        "fuel",
        "eval_error",
        "cofinite_var",
    ] {
        let name = format!("fixpoint.seminaive.fallbacks.{code}");
        assert_eq!(rec.counter_value(&name), 1, "{name}");
    }
    assert_eq!(rec.counter_value("fixpoint.seminaive.fallbacks"), 6);
}

/// Runs a program with semi-naive evaluation on or off at a budget;
/// returns the outcome and the fuel left.
type Run = Box<dyn Fn(bool, u64) -> (String, u64)>;

fn on_fin(st: FiniteStructure, p: Prog) -> Run {
    Box::new(move |seminaive, budget| {
        let mut fin = FinInterp::new(&st);
        fin.set_seminaive(seminaive);
        let mut fuel = Fuel::new(budget);
        let r = fin.run(&p, &mut fuel);
        (format!("{r:?}"), fuel.remaining())
    })
}

fn on_fcf(p: Prog) -> Run {
    Box::new(move |seminaive, budget| {
        let db = cofinite_db();
        let mut fcf = FcfInterp::new(&db);
        fcf.set_seminaive(seminaive);
        let mut fuel = Fuel::new(budget);
        let r = fcf.run(&p, &mut fuel);
        (format!("{r:?}"), fuel.remaining())
    })
}

/// The from-scratch schedule, counting loop iterations.
#[derive(Default)]
struct CountIterations(u64);

impl Schedule for CountIterations {
    type Stop = RunError;
    fn iteration(&mut self, _path: &[u32], _here: u64) -> Result<(), RunError> {
        self.0 += 1;
        Ok(())
    }
}

/// One program per reachable fallback reason, each swept over every
/// budget from 0 to two past what its from-scratch run spends: the
/// result and the fuel left must not depend on the semi-naive switch,
/// so a fallback hands the from-scratch loop its entry budget back.
#[test]
fn fallbacks_match_the_from_scratch_loop_at_every_budget() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const BIG: u64 = 2_000;
    let path_of = |n: u64| FiniteStructure::undirected_graph(0..n, (0..n - 1).map(|i| (i, i + 1)));
    let path = || path_of(4);
    let prog = |text: &str| parse_program(text).expect("parses");
    let succ = "down(up(Y2) & R1)";
    // `Y3` starts empty at rank 1, so its union is well-typed in every
    // round; `C32` lies outside the path, so the guard never holds and
    // the loop runs until the fuel does. On a path of 32 nodes `Y2`
    // takes 31 rounds to saturate, so at most budgets of the sweep the
    // delta engine runs out of fuel before its logs reach a fixpoint.
    const LONG: u64 = 32;
    let fuel_case = prog(&format!(
        "Y2 := C1; Y3 := C1 & C2; while empty(Y3) {{ Y2 := !(!Y2 & !{succ}); Y3 := !(!Y3 & !(Y2 & C{LONG})); }}"
    ));
    let cases: Vec<(&str, Run)> = vec![
        (
            "ineligible_body",
            on_fin(
                path(),
                prog("Y2 := C1; while empty(Y3) { Y3 := Y2 & C4; Y2 := down(up(Y2) & R1); }"),
            ),
        ),
        (
            "rank_mismatch",
            on_fin(path(), prog("while empty(Y3) { Y2 := !(!Y2 & !R1); }")),
        ),
        (
            "divergent",
            on_fin(
                path(),
                prog(&format!(
                    "Y2 := C1; while empty(Y3) {{ Y2 := !(!Y2 & !{succ}); }}"
                )),
            ),
        ),
        ("fuel", on_fin(path_of(LONG), fuel_case.clone())),
        (
            "eval_error",
            on_fin(
                path(),
                prog("Y2 := C1; while empty(Y3) { Y2 := !(!Y2 & !down(R5)); }"),
            ),
        ),
        (
            "cofinite_var",
            on_fcf(prog("Y2 := R2; while empty(Y3) { Y2 := !(!Y2 & !R1); }")),
        ),
        (
            "cofinite_contribution",
            on_fcf(prog("Y2 := R1; while empty(Y3) { Y2 := !(!Y2 & !R2); }")),
        ),
    ];
    for (code, run) in &cases {
        let rec = InMemoryRecorder::shared();
        recdb_obs::install(rec.clone());
        let (_, left) = run(false, BIG);
        for budget in 0..=BIG - left + 2 {
            assert_eq!(
                run(true, budget),
                run(false, budget),
                "{code} at fuel {budget}"
            );
        }
        recdb_obs::uninstall();
        let name = format!("fixpoint.seminaive.fallbacks.{code}");
        assert!(
            rec.counter_value(&name) >= 1,
            "{code}: the sweep never hits {name}"
        );
        if *code == "fuel" {
            let (fuel, divergent) = (
                rec.counter_value(&name),
                rec.counter_value("fixpoint.seminaive.fallbacks.divergent"),
            );
            assert!(
                fuel > divergent,
                "fuel: {fuel} fuel fallbacks against {divergent} divergent"
            );
            // At the sweep's largest budget the from-scratch run
            // passes the guard at least three times, so at least two
            // rounds run to completion before the fuel runs out.
            let mut rounds = CountIterations::default();
            let r = run_with(
                &mut FinInterp::new(&path_of(LONG)),
                Dialect::Ql,
                &fuel_case,
                &mut Fuel::new(BIG - left + 2),
                &mut rounds,
            );
            assert!(matches!(r, Err(RunError::Fuel(_))), "fuel: {r:?}");
            assert!(rounds.0 >= 3, "fuel: {} guard passes", rounds.0);
        }
    }
}

/// `Y1 := Y1 ∪ ↓(↑Y1 ∩ R1)` — reachability through the semijoin the
/// walker fuses — swept over every budget from 0 to two past the
/// from-scratch run's cost, each engine on the fused walker and on the
/// unfused one ([`Unfused`]):
/// * on each engine, the fused and the unfused walker end alike, fuel
///   left included;
/// * while the guard never holds (`divergent`), semi-naive and
///   from-scratch end alike, fuel left included;
/// * once it does (`terminating`), the two engines compute the same
///   value whenever both complete. Their fuel differs by design — the
///   delta rounds evaluate the semijoin on the new rows only — so no
///   fuel pairing is asserted across engines there.
#[test]
fn semijoin_reachability_keeps_fuel_identity_at_every_budget() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const BIG: u64 = 2_000;
    let st = FiniteStructure::undirected_graph(0..6, (0..5).map(|i| (i, i + 1)));
    let reach = "Y1 := !(!Y1 & !down(up(Y1) & R1))";
    let cases = [
        ("divergent", format!("Y1 := C1; while empty(Y3) {{ {reach}; }}")),
        (
            "terminating",
            format!("Y1 := C1; Y3 := C1 & C2; while empty(Y3) {{ {reach}; Y3 := !(!Y3 & !(Y1 & C5)); }}"),
        ),
    ];
    let rec = InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    for (name, text) in &cases {
        let p = parse_program(text).expect("parses");
        let run = |seminaive: bool, fused: bool, budget: u64| {
            let mut fuel = Fuel::new(budget);
            let mut s = FuelOnly { seminaive };
            let r = if fused {
                run_with(&mut FinInterp::new(&st), Dialect::Ql, &p, &mut fuel, &mut s)
            } else {
                run_with(
                    &mut Unfused(FinInterp::new(&st)),
                    Dialect::Ql,
                    &p,
                    &mut fuel,
                    &mut s,
                )
            };
            (r, fuel.remaining())
        };
        let (_, left) = run(false, true, BIG);
        for budget in 0..=BIG - left + 2 {
            let at = |seminaive| {
                let fused = run(seminaive, true, budget);
                assert_eq!(
                    fused,
                    run(seminaive, false, budget),
                    "{name}: seminaive {seminaive}, fused vs unfused at fuel {budget}"
                );
                fused
            };
            let (delta, scratch) = (at(true), at(false));
            match (&delta, &scratch, *name) {
                (_, _, "divergent") => assert_eq!(delta, scratch, "{name} at fuel {budget}"),
                ((Ok(d), _), (Ok(s), _), _) => assert_eq!(d, s, "{name} at fuel {budget}"),
                _ => {}
            }
        }
        let (full, _) = run(true, true, BIG);
        if *name == "terminating" {
            assert_eq!(full.expect("reaches C5").len(), 6, "{name}");
        }
    }
    recdb_obs::uninstall();
    assert!(
        rec.counter_value("fixpoint.seminaive.loops") >= 1,
        "a delta loop completed"
    );
    assert!(
        rec.counter_value("qlhs.fused.semijoin") >= 1,
        "the semijoin was fused"
    );
}
