//! Cross-crate pipeline: hs-r-db representation → QLhs → GMhs → FO.
//!
//! Exercises the whole §3–§6 stack on shared inputs and checks that
//! the different formalisms agree with each other and with the
//! membership oracles.

use recdb_bp::{fo_member, quantifier_pool};
use recdb_core::{Fuel, Tuple};
use recdb_gm::{GmAction, GmBuilder};
use recdb_hsdb::{paper_example_graph, rado_graph, random_digraph, HsDatabase};
use recdb_logic::ast::{Formula, Var};
use recdb_qlhs::{parse_program, HsInterp, Prog, Rows, Term};

fn run_qlhs(hs: &HsDatabase, src: &str) -> recdb_qlhs::Val {
    let prog = parse_program(src).expect("parses");
    HsInterp::new(hs)
        .run(&prog, &mut Fuel::new(5_000_000))
        .expect("runs")
}

#[test]
fn qlhs_complement_agrees_with_oracle_on_rado() {
    let hs = rado_graph();
    // Non-edge distinct pairs via QLhs.
    let v = run_qlhs(&hs, "Y1 := !R1 & !E;");
    assert_eq!(v.rank, 2);
    for rep in &v.tuples {
        assert!(!hs.database().query(0, rep.elems()));
        assert_ne!(rep[0], rep[1]);
    }
    // Union with R1 and E must be all of T².
    let all = run_qlhs(&hs, "Y1 := !(!R1 & !E) & !(R1 & E);"); // xor-free sanity
    assert!(all.len() <= hs.t_n(2).len());
}

#[test]
fn qlhs_and_fo_agree_on_edge_classes() {
    let hs = random_digraph();
    // QLhs: the loop class E ∩ R1 (diagonal pairs that are edges).
    let v = run_qlhs(&hs, "Y1 := E & R1;");
    // FO: φ(x,y) = x = y ∧ E(x,y).
    let phi = Formula::and(vec![
        Formula::Eq(Var(0), Var(1)),
        Formula::Rel(0, vec![Var(0), Var(1)]),
    ]);
    for t in hs.t_n(2) {
        assert_eq!(
            v.tuples.contains(&t),
            fo_member(&hs, &phi, &t),
            "QLhs and FO disagree at {t:?}"
        );
    }
}

#[test]
fn gm_copy_agrees_with_qlhs_identity() {
    let hs = paper_example_graph();
    // GMhs: load R1, store into out, erase, halt.
    let mut b = GmBuilder::new();
    let s0 = b.fresh();
    let s1 = b.fresh();
    let s2 = b.fresh();
    let halt = b.fresh();
    b.set(s0, GmAction::LoadRel { rel: 0, next: s1 });
    b.set(s1, GmAction::StoreCurrent { rel: 1, next: s2 });
    b.set(s2, GmAction::EraseTape(halt));
    b.set(halt, GmAction::Halt);
    let gm = b.build(2);
    let out = gm.run(&hs, &mut Fuel::new(1_000_000)).expect("halts");
    // QLhs: Y1 := R1.
    let v = run_qlhs(&hs, "Y1 := R1;");
    assert_eq!(
        out.store[1].iter().cloned().collect::<Rows>(),
        v.tuples,
        "GMhs and QLhs compute the same C₁"
    );
}

#[test]
fn gm_offspring_matches_qlhs_up() {
    let hs = paper_example_graph();
    let mut b = GmBuilder::new();
    let s0 = b.fresh();
    let s1 = b.fresh();
    let s2 = b.fresh();
    let s3 = b.fresh();
    let halt = b.fresh();
    b.set(s0, GmAction::LoadRel { rel: 0, next: s1 });
    b.set(s1, GmAction::LoadOffspring { next: s2 });
    b.set(s2, GmAction::StoreCurrent { rel: 1, next: s3 });
    b.set(s3, GmAction::EraseTape(halt));
    b.set(halt, GmAction::Halt);
    let gm = b.build(2);
    let out = gm.run(&hs, &mut Fuel::new(5_000_000)).expect("halts");
    let v = run_qlhs(&hs, "Y1 := up(R1);");
    assert_eq!(
        out.store[1].iter().cloned().collect::<Rows>(),
        v.tuples,
        "offspring load ≡ QLhs ↑"
    );
}

#[test]
fn representation_membership_round_trip() {
    // u ∈ Rᵢ ⟺ u ≅_B some rep in Cᵢ, across arbitrary tuples.
    for hs in [rado_graph(), paper_example_graph()] {
        for t in [
            Tuple::from_values([4, 9]),
            Tuple::from_values([3, 3]),
            Tuple::from_values([0, 2]),
            Tuple::from_values([5, 1]),
        ] {
            assert_eq!(
                hs.member_via_reps(0, &t),
                hs.database().query(0, t.elems()),
                "representation disagrees at {t:?}"
            );
        }
    }
}

#[test]
fn theorem_6_3_pool_is_stable() {
    // Enlarging the quantifier pool beyond T^{n+k} must not change FO
    // answers (the paper's "not necessary to evaluate over all of D").
    let hs = paper_example_graph();
    let phi = Formula::Exists(Var(1), Box::new(Formula::Rel(0, vec![Var(0), Var(1)])));
    for t in hs.t_n(1) {
        let small = fo_member(&hs, &phi, &t);
        // Hand evaluation with a much larger pool:
        let mut asg = recdb_logic::Assignment::from_tuple(&hs.canonical_rep(&t));
        let big_pool = quantifier_pool(&hs, 4);
        let big = recdb_logic::eval_with_pool(hs.database(), &phi, &mut asg, &big_pool).unwrap();
        assert_eq!(small, big, "pool instability at {t:?}");
    }
}

#[test]
fn qlhs_program_via_ast_matches_parsed() {
    let hs = rado_graph();
    let parsed = parse_program("Y1 := swap(up(R1) & up(E));").unwrap();
    let built = Prog::assign(0, Term::Rel(0).up().and(Term::E.up()).swap());
    let a = HsInterp::new(&hs)
        .run(&parsed, &mut Fuel::new(1_000_000))
        .unwrap();
    let b = HsInterp::new(&hs)
        .run(&built, &mut Fuel::new(1_000_000))
        .unwrap();
    assert_eq!(a, b);
}
