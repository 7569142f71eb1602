//! Scratch review test: co-finite guard variable misread by the
//! semi-naive engine's count()-based guard.

use recdb_core::{Elem, Fuel, Tuple};
use recdb_hsdb::{FcfDatabase, FcfRel};
use recdb_qlhs::{FcfInterp, Prog, Term};

#[test]
fn cofinite_guard_matches_from_scratch() {
    // One finite unary relation so Df is nonempty.
    let db = FcfDatabase::new(
        "scratch",
        vec![FcfRel::Finite(recdb_core::FiniteRelation::new(
            1,
            [Tuple::from(vec![Elem(0)]), Tuple::from(vec![Elem(1)])],
        ))],
    );
    // Y0 := ¬Y2 (co-finite, empty complement → relation NOT empty);
    // while |Y0| = 0 { Y1 := Y1 ∪ R0 }   -- should exit immediately
    // Y1 := R0                            -- forces a post-loop tick
    let p = Prog::seq([
        Prog::assign(0, Term::Var(2).not()),
        Prog::WhileEmpty(
            0,
            Box::new(Prog::assign(1, Term::Var(1).union(Term::Rel(0)))),
        ),
        Prog::assign(0, Term::Rel(0)),
    ]);

    let mut scratch = FcfInterp::new(&db);
    scratch.set_seminaive(false);
    let a = scratch.run(&p, &mut Fuel::new(60_000));

    let mut delta = FcfInterp::new(&db); // semi-naive on by default
    let b = delta.run(&p, &mut Fuel::new(60_000));

    assert_eq!(a, b, "from-scratch: {a:?}, semi-naive: {b:?}");
}
