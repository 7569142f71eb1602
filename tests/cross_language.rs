//! Cross-language agreement: L⁻, full FO, QL (finite), and QLhs views
//! of the same data coincide wherever their domains overlap.

use recdb_core::{tuple, FiniteStructure, Fuel, Tuple};
use recdb_hsdb::{infinite_clique, paper_example_graph, ComponentGraph, HsDatabase};
use recdb_logic::{eval_finite, finite_as_db, Assignment, LMinusQuery};
use recdb_qlhs::{parse_program, FinInterp, HsInterp};

/// One finite component of the §3.1 example graph, as a finite
/// structure (sym pair 0⇄1 plus arrow 2→3 would be disconnected; use
/// just the symmetric pair plus arrow in separate checks).
fn sym_pair() -> FiniteStructure {
    FiniteStructure::graph([0, 1], [(0, 1), (1, 0)])
}

#[test]
fn lminus_agrees_with_finite_fo_on_fragments() {
    // A quantifier-free query evaluated (a) on the infinite clique via
    // the r-db oracle, and (b) on finite fragments via FO evaluation,
    // gives the same answers for tuples inside the fragment.
    let schema = recdb_core::Schema::with_names(&["E"], &[2]);
    let q = LMinusQuery::parse("{ (x, y) | E(x, y) & !E(y, x) }", &schema).unwrap();
    let clique_db = recdb_core::DatabaseBuilder::new("K")
        .relation("E", recdb_core::FnRelation::infinite_clique())
        .build();
    let frag = FiniteStructure::restriction(&clique_db, &tuple![0, 1, 2]);
    for t in [tuple![0, 1], tuple![1, 1], tuple![2, 0]] {
        let via_oracle = q.eval(&clique_db, &t).is_member();
        let mut asg = Assignment::from_tuple(&t);
        let via_finite = eval_finite(&frag, q.body().unwrap(), &mut asg).unwrap();
        assert_eq!(via_oracle, via_finite, "at {t:?}");
    }
}

#[test]
fn finitary_ql_on_component_matches_qlhs_on_replication() {
    // The same QL program run (a) by the finitary interpreter on one
    // finite component and (b) by QLhs on the infinite replication of
    // that component describes "the same" relation: the QLhs answer is
    // the class set; the finite answer must be a union of those
    // classes restricted to one copy.
    let hs: HsDatabase = ComponentGraph::new(vec![sym_pair()]).into_hsdb();
    let fin = sym_pair();
    // Program: the symmetric part of R1 (here: everything).
    let prog = parse_program("Y1 := R1 & swap(R1);").unwrap();
    let vf = FinInterp::new(&fin)
        .run(&prog, &mut Fuel::new(100_000))
        .unwrap();
    let vh = HsInterp::new(&hs)
        .run(&prog, &mut Fuel::new(1_000_000))
        .unwrap();
    // Finite: both directed edges. QLhs: their single class.
    assert_eq!(vf.len(), 2);
    assert_eq!(vh.len(), 1);
    // Every finite tuple is equivalent (within its copy) to the class
    // representative — map (0,1) ↦ encoded copy-0 pair.
    let g = ComponentGraph::new(vec![sym_pair()]);
    for t in &vf.tuples {
        let enc: Tuple = t
            .elems()
            .iter()
            .map(|e| {
                g.encode(recdb_hsdb::Coords {
                    ty: 0,
                    copy: 0,
                    node: e.value() as usize,
                })
            })
            .collect();
        assert!(
            vh.tuples
                .iter()
                .any(|rep| hs.equivalent(&rep.to_tuple(), &enc)),
            "finite answer {t:?} not covered by a QLhs class"
        );
    }
}

#[test]
fn finite_as_db_round_trips_queries() {
    let fin = sym_pair();
    let db = finite_as_db(&fin);
    for t in [tuple![0, 1], tuple![1, 1]] {
        assert_eq!(db.query(0, t.elems()), fin.contains(0, &t));
    }
}

#[test]
fn ql_dialect_boundaries_are_enforced_everywhere() {
    let fin = sym_pair();
    let hs = infinite_clique();
    let singleton = parse_program("while single(Y1) { Y1 := up(Y1); }").unwrap();
    let finite_test = parse_program("while finite(Y1) { Y1 := !Y1; }").unwrap();
    // QL (finite): rejects both extensions.
    assert!(FinInterp::new(&fin)
        .run(&singleton, &mut Fuel::new(1000))
        .is_err());
    assert!(FinInterp::new(&fin)
        .run(&finite_test, &mut Fuel::new(1000))
        .is_err());
    // QLhs: accepts |Y|=1, rejects |Y|<∞.
    let mut hsi = HsInterp::new(&hs);
    assert!(hsi
        .run(
            &parse_program("Y1 := down(E); while single(Y1) { Y1 := up(Y1); }").unwrap(),
            &mut Fuel::new(100_000)
        )
        .is_ok());
    assert!(HsInterp::new(&hs)
        .run(&finite_test, &mut Fuel::new(1000))
        .is_err());
}

#[test]
fn paper_example_swap_intersection_across_formalisms() {
    // R1 ∩ R1~ (symmetric edges) on the §3.1 example: QLhs answer has
    // exactly the symmetric class; verify against the oracle.
    let hs = paper_example_graph();
    let v = HsInterp::new(&hs)
        .run(
            &parse_program("Y1 := R1 & swap(R1);").unwrap(),
            &mut Fuel::new(1_000_000),
        )
        .unwrap();
    assert_eq!(v.len(), 1);
    let rep = v.tuples.iter().next().unwrap();
    let db = hs.database();
    assert!(db.query(0, rep.elems()) && db.query(0, &[rep[1], rep[0]]));
}
