//! §4 end-to-end: fcf-r-dbs as hs-r-dbs, Df extraction, and agreement
//! between the QLf+ and QLhs views of the same database.

use recdb_core::{tuple, CoFiniteRelation, FiniteRelation, Fuel, Tuple};
use recdb_hsdb::{df_from_tree, FcfDatabase, FcfRel};
use recdb_qlhs::{parse_program, FcfInterp, HsInterp};

fn sample() -> FcfDatabase {
    FcfDatabase::new(
        "s",
        vec![
            FcfRel::Finite(FiniteRelation::unary([1, 2])),
            FcfRel::CoFinite(CoFiniteRelation::new(2, [tuple![1, 1], tuple![2, 1]])),
        ],
    )
}

#[test]
fn prop_4_1_both_directions() {
    let fcf = sample();
    let df = fcf.df();
    // Direction 1: the fcf-r-db is an hs-r-db with a valid C_B.
    let hs = fcf.clone().into_hsdb();
    hs.validate(2).expect("valid representation");
    // Direction 2: Df is recoverable from the tree alone.
    assert_eq!(df_from_tree(hs.tree(), 4), Some(df));
}

#[test]
fn qlfplus_and_qlhs_agree_on_shared_programs() {
    // Programs in the common QL fragment (no singleton/finiteness
    // tests) run under both interpreters; their answers describe the
    // same relation — check membership agreement tuple-by-tuple.
    let fcf = sample();
    let hs = fcf.clone().into_hsdb();
    let mut fcf_interp = FcfInterp::new(&fcf);
    // Note: `E` itself is NOT in the shared fragment — QLf+'s `E` is
    // the Df-diagonal while QLhs's is the full diagonal class (see the
    // dedicated test below).
    let sources = [
        "Y1 := R1;",
        "Y1 := !R1;",
        "Y1 := swap(R2);",
        "Y1 := down(R2);",
        "Y1 := R2 & swap(R2);",
    ];
    let probes: Vec<Tuple> = vec![
        tuple![1],
        tuple![2],
        tuple![7],
        tuple![1, 1],
        tuple![1, 2],
        tuple![2, 1],
        tuple![9, 9],
        tuple![],
    ];
    for src in sources {
        let prog = parse_program(src).unwrap();
        let fv = fcf_interp.run(&prog, &mut Fuel::new(1_000_000)).unwrap();
        let hv = HsInterp::new(&hs)
            .run(&prog, &mut Fuel::new(1_000_000))
            .unwrap();
        assert_eq!(fv.rank, hv.rank, "{src}: rank mismatch");
        for t in probes.iter().filter(|t| t.rank() == fv.rank) {
            // QLf+ answers membership directly…
            let in_fcf = fv.contains(t);
            // …QLhs answers via class representatives.
            let in_hs = hv
                .tuples
                .iter()
                .any(|rep| hs.equivalent(&rep.to_tuple(), t));
            assert_eq!(in_fcf, in_hs, "{src} disagrees at {t:?}");
        }
    }
}

#[test]
fn qlfplus_e_restricted_to_df_vs_qlhs_e() {
    // The ONE deliberate semantic difference: QLf+'s E is the diagonal
    // over Df; QLhs's E is the diagonal class over all of D. Verify
    // the difference is exactly the non-Df diagonal.
    let fcf = sample();
    let hs = fcf.clone().into_hsdb();
    let prog = parse_program("Y1 := E;").unwrap();
    let fv = FcfInterp::new(&fcf)
        .run(&prog, &mut Fuel::new(100_000))
        .unwrap();
    let hv = HsInterp::new(&hs)
        .run(&prog, &mut Fuel::new(100_000))
        .unwrap();
    // (7,7): non-Df diagonal — in QLhs's E, not in QLf+'s.
    let t = tuple![7, 7];
    assert!(!fv.contains(&t));
    assert!(hv
        .tuples
        .iter()
        .any(|rep| hs.equivalent(&rep.to_tuple(), &t)));
}

#[test]
fn finiteness_test_drives_control_flow() {
    let fcf = sample();
    // Flip Y1 until co-finite, counting iterations in Y2's rank.
    let prog = parse_program(
        "
        Y1 := R1;
        Y2 := down(down(E));
        while finite(Y1) {
            Y1 := !Y1;
            Y2 := up(Y2);
        }
        ",
    )
    .unwrap();
    let mut interp = FcfInterp::new(&fcf);
    let mut env = Vec::new();
    interp
        .exec(&prog, &mut env, &mut Fuel::new(100_000))
        .unwrap();
    assert!(!env[0].finite, "loop exits on a co-finite value");
    assert_eq!(env[1].rank, 1, "exactly one flip");
}

#[test]
fn projections_preserve_fcf_prop_4_2() {
    // down(R2) over a rank-2 co-finite relation is all of D¹; its
    // complement is empty; both are fcf values.
    let fcf = sample();
    let prog = parse_program("Y1 := !down(R2);").unwrap();
    let v = FcfInterp::new(&fcf)
        .run(&prog, &mut Fuel::new(100_000))
        .unwrap();
    assert!(v.finite);
    assert!(v.tuples.is_empty());
}

#[test]
fn df_structure_automorphisms_govern_equivalence() {
    // In `sample`, R2's complement {(1,1),(2,1)} pins 1 and 2 apart:
    // the Df structure is rigid, so (1) ≇ (2).
    let fcf = sample();
    assert_eq!(fcf.df_structure().automorphisms().len(), 1);
    let eq = fcf.equiv();
    assert!(!eq.equivalent(&tuple![1], &tuple![2]));
    assert!(eq.equivalent(&tuple![5], &tuple![9]));
}
