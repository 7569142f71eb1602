//! Finite ∕ co-finite databases (§4): the middle ground between
//! arbitrary recursive databases and finite ones.
//!
//! An fcf-r-db stores each relation as either a finite set of tuples
//! or the finite *complement* of one — with an indicator saying which.
//! That indicator is genuine extra information (finiteness is not
//! decidable from a membership oracle), and it buys a lot: Prop 4.1
//! makes every fcf-r-db a highly symmetric database, and QLf+ is a
//! complete query language whose values stay finite-or-co-finite.
//!
//! Run with `cargo run --example fcf_databases`.

use recdb_core::{tuple, CoFiniteRelation, FiniteRelation, Fuel};
use recdb_hsdb::{df_from_tree, FcfDatabase, FcfRel};
use recdb_qlhs::{parse_program, FcfInterp};

fn main() {
    // A blocklist-style database: a small set of flagged users and an
    // "allowed pairs" relation that is everything except a few bans.
    let db = FcfDatabase::new(
        "moderation",
        vec![
            FcfRel::Finite(FiniteRelation::unary([3, 7])), // Flagged
            FcfRel::CoFinite(CoFiniteRelation::new(
                2,
                [tuple![3, 7], tuple![7, 3], tuple![3, 3]],
            )), // MayMessage = ℕ² ∖ bans
        ],
    );
    println!("Df (constants of the finite parts): {:?}", db.df());

    // Membership is computed from the representation.
    let plain = db.as_database();
    println!("\nmembership oracles:");
    for (rel, t) in [
        (0usize, tuple![3]),
        (0, tuple![4]),
        (1, tuple![3, 7]),
        (1, tuple![100, 200]),
    ] {
        println!("  {:?} ∈ R{}? {}", t, rel + 1, plain.query(rel, t.elems()));
    }

    // Prop 4.1: the fcf-r-db is an hs-r-db; its characteristic tree is
    // computable, and Df can be recovered from the TREE ALONE — no
    // access to the finite parts needed.
    let df = db.df();
    let hs = db.clone().into_hsdb();
    hs.validate(2).expect("valid C_B representation");
    let extracted = df_from_tree(hs.tree(), df.len() + 1).expect("Prop 4.1 algorithm");
    println!("\nDf extracted from the characteristic tree: {extracted:?}");
    assert_eq!(extracted, df);

    // QLf+ queries. "Flagged users who may still message someone":
    // finite ∩ projection of a co-finite = finite.
    let mut interp = FcfInterp::new(&db);
    let prog = parse_program(
        "
        Y2 := down(swap(R2));  // users that can be messaged by someone… projected
        Y1 := R1 & Y2;         // flagged ∩ that projection
        ",
    )
    .unwrap();
    let v = interp.run(&prog, &mut Fuel::new(1_000_000)).unwrap();
    println!(
        "\nflagged ∩ (∃ partner): finite={}, tuples={:?}",
        v.finite, v.tuples
    );

    // The finiteness *test* — the construct that makes QLf+ strictly
    // more than finitary QL: flip until co-finite, observing the loop.
    let prog = parse_program(
        "
        Y1 := R1;
        Y3 := down(down(E));
        while finite(Y1) {
            Y1 := !Y1;
            Y3 := up(Y3);
        }
        ",
    )
    .unwrap();
    let mut env = Vec::new();
    interp
        .exec(&prog, &mut env, &mut Fuel::new(100_000))
        .unwrap();
    println!(
        "\nafter `while finite(Y1) {{ Y1 := !Y1; }}`: co-finite reached in {} flip(s)",
        env[2].rank
    );

    // Prop 4.2 live: projecting a co-finite relation yields the full
    // relation one rank down.
    let v = interp
        .run(
            &parse_program("Y1 := down(R2);").unwrap(),
            &mut Fuel::new(100_000),
        )
        .unwrap();
    println!(
        "\nR2↓ is co-finite with empty complement (= D¹): finite={}, complement={:?}",
        v.finite, v.tuples
    );
    assert!(v.tuples.is_empty());
}
