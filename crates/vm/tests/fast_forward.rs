//! Loop fast-forward is exact: on programs whose loops fall into a
//! cycle, the tree walker and the VM (both of which skip whole
//! periods) agree with the reference — the tree walker with every
//! fast-forward declined, which runs every iteration — on the result
//! or end event, the iteration count, the work and the fuel left,
//! wherever a limit trips.
//!
//! Each budget is swept over every value in a window spanning more
//! than two periods past the point where the executors first skip, so
//! the trip lands on every statement of a period. Every case also
//! demands that both executors really skipped, with the period the
//! program was written to have.

use recdb_analyze::analyze_full;
use recdb_core::{Elem, FiniteRelation, FiniteStructure, Fuel, Schema, Tuple};
use recdb_hsdb::{FcfDatabase, FcfRel, FnEquiv, FnTree, HsDatabase};
use recdb_logic::finite_as_db;
use recdb_qlhs::exec::{
    run_with, Backend, Budget, Budgeted, FuelOnly, GuardEval, Period, RecordSkips,
};
use recdb_qlhs::{parse_program, Dialect, FcfInterp, FinInterp, HsInterp, Prog};
use recdb_vm::{compile, exec_with, verify, LowerOpts, VmProg};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A cyclic program, the tree path of its cycling loop, and the
/// period (in iterations of that loop) it settles into.
struct Case {
    name: &'static str,
    src: &'static str,
    cycling: &'static [u32],
    period: u64,
}

/// `Y5` is never assigned, so every `while empty(Y5)` runs until a
/// limit stops it; `R1` must not be symmetric, so `swap` moves it.
const CASES: &[Case] = &[
    Case {
        name: "period 1",
        src: "Y2 := R1; while empty(Y5) { Y2 := Y2 & R1; }",
        cycling: &[1],
        period: 1,
    },
    Case {
        name: "period 2",
        src: "Y2 := R1; while empty(Y5) { Y2 := swap(Y2); }",
        cycling: &[1],
        period: 2,
    },
    Case {
        // Rotates three values of sizes 3, 1 and 3, so each phase of
        // the period commits a different amount of work.
        name: "period 3",
        src: "Y2 := R1; Y3 := R1 & E; Y4 := E; \
              while empty(Y5) { Y6 := Y2; Y2 := Y3; Y3 := Y4; Y4 := Y6; }",
        cycling: &[3],
        period: 3,
    },
    Case {
        // With R = R1 and D = {(3,3)} = E & R: heads (R, E, E),
        // (R~, D, E), then (R, D, D), (R~, D, D) repeating, a
        // pre-period of two iterations.
        name: "pre-period",
        src: "Y2 := R1; Y3 := E; Y4 := E; \
              while empty(Y5) { Y4 := Y4 & Y3; Y3 := Y3 & Y2; Y2 := swap(Y2); }",
        cycling: &[3],
        period: 2,
    },
    Case {
        // The outer loop would stop after one iteration, but its inner
        // loop never exits.
        name: "cycling inner loop",
        src: "Y2 := R1; Y3 := E & !E; \
              while empty(Y3) { Y3 := E; while empty(Y5) { Y2 := swap(Y2); } }",
        cycling: &[2, 0, 1],
        period: 2,
    },
    Case {
        // Every outer period enters the inner loop, which exits after
        // one iteration.
        name: "terminating inner loop",
        src: "Y2 := R1; \
              while empty(Y5) { Y2 := swap(Y2); Y4 := down(E & !E); \
                                while empty(Y4) { Y4 := down(Y2 & R1); } }",
        cycling: &[1],
        period: 2,
    },
    Case {
        name: "commit-heavy body",
        src: "Y2 := R1; Y3 := R1; Y4 := down(R1); Y6 := R1; \
              while empty(Y5) { Y3 := Y2 & Y3; Y4 := Y4 & down(Y3); Y6 := swap(Y6) & Y3; \
                                Y3 := Y3 & Y6; Y2 := swap(Y2); }",
        cycling: &[4],
        period: 2,
    },
];

fn graph() -> FiniteStructure {
    FiniteStructure::graph([1, 2, 3], [(1, 2), (2, 3), (3, 3)])
}

fn discrete_hs(st: &FiniteStructure) -> HsDatabase {
    let universe: Vec<Elem> = st.universe().to_vec();
    let tree = FnTree::new(move |_| universe.clone());
    let equiv = FnEquiv::new(|u: &Tuple, v: &Tuple| u == v);
    HsDatabase::with_computed_reps(finite_as_db(st), Arc::new(tree), Arc::new(equiv))
}

fn fcf() -> FcfDatabase {
    FcfDatabase::new(
        "fast-forward",
        vec![FcfRel::Finite(FiniteRelation::new(
            2,
            [
                Tuple::from_values([1, 2]),
                Tuple::from_values([2, 3]),
                Tuple::from_values([3, 3]),
            ],
        ))],
    )
}

/// Compiles under the program's own analysis and demands the verifier
/// accept with no elided store (so both executors count the same
/// work) and the cycling loop in guard/backedge form.
fn compiled(c: &Case, schema: &Schema, dialect: Dialect) -> (Prog, VmProg) {
    let p = parse_program(c.src).unwrap_or_else(|e| panic!("{}: {e}", c.name));
    let full = analyze_full(&p, schema, dialect);
    let vm = compile(
        &p,
        schema,
        dialect,
        &full.termination,
        &LowerOpts::default(),
    )
    .unwrap_or_else(|o| panic!("{} ({dialect}): obstructed: {o}\n{p}", c.name));
    let report = verify(
        &vm,
        &p,
        schema,
        dialect,
        &full.termination,
        Some(&full.cost.verdict),
    )
    .unwrap_or_else(|r| panic!("{} ({dialect}): rejected: {r}\n{vm}", c.name));
    assert_eq!(report.elided_stores, 0, "{}: elided a store\n{vm}", c.name);
    assert!(
        vm.loops
            .iter()
            .any(|l| l.path == c.cycling && l.peeled.is_none()),
        "{}: the cycling loop is not a backedge loop\n{vm}",
        c.name
    );
    (p, vm)
}

/// The first period the walker grants under `budget`, at the budget's
/// fuel — the probe that places each sweep's window — after checking
/// the VM grants the same one.
fn first_period<B>(
    mk: &dyn Fn() -> B,
    dialect: Dialect,
    p: &Prog,
    vm: &VmProg,
    budget: &Budget<'_>,
) -> Period
where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
{
    let preempt = AtomicBool::new(false);
    let mut walk = RecordSkips::new(Budgeted::new(budget, &preempt));
    let r = run_with(
        &mut mk(),
        dialect,
        p,
        &mut Fuel::new(budget.fuel),
        &mut walk,
    );
    assert!(r.is_err(), "a cyclic program cannot complete");
    let mut s = RecordSkips::new(Budgeted::new(budget, &preempt));
    let _ = exec_with(&mut mk(), vm, &mut Fuel::new(budget.fuel), &mut s);
    let first = *walk
        .granted
        .first()
        .expect("the walker never fast-forwarded");
    assert_eq!(s.granted.first(), Some(&first), "the VM's first period");
    first
}

/// One fuel-only run (semi-naive off) of the reference, the walker
/// and the VM: each executor must match the reference's result and
/// fuel left, and must have fast-forwarded.
fn plain_runs<B>(mk: &dyn Fn() -> B, dialect: Dialect, p: &Prog, vm: &VmProg, fuel: u64, what: &str)
where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
    <B as GuardEval>::V: Debug + PartialEq,
{
    let plain = || FuelOnly { seminaive: false };
    let mut want_fuel = Fuel::new(fuel);
    let mut reference = RecordSkips::declining(plain());
    let want = run_with(&mut mk(), dialect, p, &mut want_fuel, &mut reference);
    let (mut walk_fuel, mut walk) = (Fuel::new(fuel), RecordSkips::new(plain()));
    let walked = run_with(&mut mk(), dialect, p, &mut walk_fuel, &mut walk);
    let (mut vm_fuel, mut s) = (Fuel::new(fuel), RecordSkips::new(plain()));
    let got = exec_with(&mut mk(), vm, &mut vm_fuel, &mut s);
    let runs = [
        ("walker", walked, walk_fuel, walk.granted),
        ("vm", got, vm_fuel, s.granted),
    ];
    for (who, out, left, skips) in runs {
        assert_eq!(out, want, "{what}: {who} result at fuel {fuel}");
        assert_eq!(left, want_fuel, "{what}: {who} fuel left at fuel {fuel}");
        assert!(
            !skips.is_empty(),
            "{what}: {who}: no fast-forward at fuel {fuel}"
        );
    }
}

/// One budget-schedule run of the reference, the walker and the VM,
/// compared on the end event, the iterations, the work and the fuel
/// left; each executor must have fast-forwarded.
fn sched_runs<B>(
    mk: &dyn Fn() -> B,
    dialect: Dialect,
    p: &Prog,
    vm: &VmProg,
    budget: &Budget<'_>,
    what: &str,
) where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
    <B as GuardEval>::V: Debug + PartialEq,
{
    let preempt = AtomicBool::new(false);
    let budgeted = || Budgeted::new(budget, &preempt);
    let mut want_fuel = Fuel::new(budget.fuel);
    let mut reference = RecordSkips::declining(budgeted());
    let out = run_with(&mut mk(), dialect, p, &mut want_fuel, &mut reference);
    let want = reference.inner.finish(out);
    let (mut walk_fuel, mut walk) = (Fuel::new(budget.fuel), RecordSkips::new(budgeted()));
    let out = run_with(&mut mk(), dialect, p, &mut walk_fuel, &mut walk);
    let walked = walk.inner.finish(out);
    let (mut vm_fuel, mut s) = (Fuel::new(budget.fuel), RecordSkips::new(budgeted()));
    let out = exec_with(&mut mk(), vm, &mut vm_fuel, &mut s);
    let got = s.inner.finish(out);
    let at = format!("{what}: {budget:?}");
    let runs = [
        ("walker", walked, walk_fuel, walk.granted),
        ("vm", got, vm_fuel, s.granted),
    ];
    for (who, run, left, skips) in runs {
        assert_eq!(run.end, want.end, "{at}: {who} end");
        assert_eq!(run.iterations, want.iterations, "{at}: {who} iterations");
        assert_eq!(run.work, want.work, "{at}: {who} work");
        assert_eq!(left, want_fuel, "{at}: {who} fuel left");
        assert!(!skips.is_empty(), "{at}: {who}: no fast-forward");
    }
}

fn budget(
    fuel: u64,
    total_cap: u64,
    work_cap: Option<u64>,
    bounds: &BTreeMap<Vec<u32>, u64>,
) -> Budget<'_> {
    Budget {
        bounds,
        total_cap,
        fuel,
        work_cap,
    }
}

/// Sweeps every limit across more than two periods past the first
/// skip, on one backend, and checks both executors skipped, with the
/// case's period, in every run.
fn sweep<B>(c: &Case, mk: &dyn Fn() -> B, schema: &Schema, dialect: Dialect)
where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
    <B as GuardEval>::V: Debug + PartialEq,
{
    let what = format!("{} ({dialect})", c.name);
    let (p, vm) = compiled(c, schema, dialect);
    let none = BTreeMap::new();
    const BASE: u64 = 2_000;
    let period = first_period(mk, dialect, &p, &vm, &budget(BASE, u64::MAX, None, &none));
    assert_eq!(period.here, c.period, "{what}: {period:?}");
    assert!(period.work > 0, "{what}: the body commits nothing");
    let sched = |b: &Budget<'_>| sched_runs(mk, dialect, &p, &vm, b, &what);

    // Fuel: the plain schedule and the budget schedule with no other
    // limit in reach.
    for fuel in BASE..=BASE + 2 * period.fuel + 1 {
        plain_runs(mk, dialect, &p, &vm, fuel, &what);
        sched(&budget(fuel, u64::MAX, None, &none));
    }
    // The iteration cap, the work cap and the loop's bound, each with
    // fuel to spare.
    const ROOM: u64 = 100_000;
    const AT: u64 = 60;
    for cap in AT..=AT + 2 * period.iterations + 1 {
        sched(&budget(ROOM, cap, None, &none));
    }
    let work_at = AT * period.work;
    for cap in work_at..=work_at + 2 * period.work + 1 {
        sched(&budget(ROOM, u64::MAX, Some(cap), &none));
    }
    for bound in AT..=AT + 2 * period.here + 1 {
        let bounds: BTreeMap<Vec<u32>, u64> = [(c.cycling.to_vec(), bound)].into_iter().collect();
        sched(&budget(ROOM, u64::MAX, None, &bounds));
    }
}

#[test]
fn finitary_ql_fast_forward_is_exact() {
    let st = graph();
    for c in CASES {
        sweep(c, &|| FinInterp::new(&st), st.schema(), Dialect::Ql);
    }
}

#[test]
fn qlhs_fast_forward_is_exact() {
    let st = graph();
    let hs = discrete_hs(&st);
    for c in CASES {
        sweep(c, &|| HsInterp::new(&hs), hs.schema(), Dialect::Qlhs);
    }
}

#[test]
fn fcf_fast_forward_is_exact() {
    let db = fcf();
    let schema = db.schema();
    for c in CASES {
        sweep(c, &|| FcfInterp::new(&db), &schema, Dialect::QlfPlus);
    }
}
