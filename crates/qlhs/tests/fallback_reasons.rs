//! Every semi-naive fallback is counted under its reason code
//! (`fixpoint.seminaive.fallbacks.<code>`) as well as in the total.
//!
//! One test per binary: the metrics recorder is process-global.

use recdb_core::{tuple, CoFiniteRelation, FiniteRelation, FiniteStructure, Fuel};
use recdb_hsdb::{FcfDatabase, FcfRel};
use recdb_obs::InMemoryRecorder;
use recdb_qlhs::{FcfInterp, FinInterp, Prog, Term, Val};

fn union_assign(v: usize, s: Term) -> Prog {
    Prog::assign(v, Term::Var(v).union(s))
}

#[test]
fn each_fallback_is_counted_under_its_reason() {
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
    let fcf = FcfDatabase::new(
        "s",
        vec![
            FcfRel::Finite(FiniteRelation::unary([1])),
            FcfRel::CoFinite(CoFiniteRelation::new(1, [tuple![1]])),
        ],
    );
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
