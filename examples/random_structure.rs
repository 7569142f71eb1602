//! Recursive countable random structures (Prop 3.2) and QLhs.
//!
//! Builds the Rado graph (the countable random graph) as a recursive
//! database, verifies extension axioms by *construction*, shows its
//! characteristic tree, and runs QLhs programs over the finite
//! representation `C_B`.
//!
//! Run with `cargo run --example random_structure`.

use recdb_core::{Elem, Fuel, Tuple};
use recdb_hsdb::{level_sizes, rado_graph, rado_witness, verify_rado_extension};
use recdb_qlhs::{parse_program, HsInterp};

fn main() {
    let hs = rado_graph();
    println!("the Rado graph as an hs-r-db (≅_A = ≅ₗ, Prop 3.2)");

    // Extension axioms, constructively: for X = {0, 3, 5} and every
    // neighbourhood pattern, a witness exists and is computed directly
    // from the BIT coding.
    let xs: Vec<Elem> = vec![Elem(0), Elem(3), Elem(5)];
    let patterns = verify_rado_extension(&xs);
    println!("\nverified {patterns} extension patterns over X = {{0,3,5}}");
    let w = rado_witness(&xs, &[Elem(0), Elem(5)]);
    println!("witness adjacent to exactly {{0,5}}: element {w}");

    // The characteristic tree: finitely branching, one path per
    // ≅_B-class.
    println!(
        "\ncharacteristic tree levels |T¹|..|T³|: {:?}",
        level_sizes(hs.tree(), 3)
    );
    println!("T² representatives:");
    for t in hs.t_n(2) {
        println!("  {t}  (edge: {})", hs.database().query(0, t.elems()));
    }

    // Canonical representatives of arbitrary tuples.
    for t in [Tuple::from_values([10, 25]), Tuple::from_values([7, 7])] {
        println!("canonical rep of {t}: {}", hs.canonical_rep(&t));
    }

    // QLhs over C_B: compute the non-edge distinct-pair class as
    // ¬(R1 ∪ E) = ¬R1 ∩ ¬E, and then its ↑-children.
    let prog = parse_program(
        "
        Y2 := !R1 & !E;       // the non-adjacent distinct pairs
        Y3 := up(Y2);         // their one-element extension classes
        Y1 := Y2;
        ",
    )
    .unwrap();
    let mut interp = HsInterp::new(&hs);
    let mut fuel = Fuel::new(1_000_000);
    let v = interp.run(&prog, &mut fuel).unwrap();
    println!("\nQLhs: ¬R1 ∩ ¬E = {:?} (the non-edge class)", v.tuples);

    // The same in the language of the paper: relations are unions of
    // classes; QLhs manipulates only the representatives, yet defines
    // the full infinite relation.
    let rep = v.tuples.iter().next().expect("one class");
    println!(
        "the represented relation is infinite: e.g. (40,41) non-adjacent? {}",
        !hs.database().query(0, &[Elem(40), Elem(41)])
            && hs.equivalent(&rep.to_tuple(), &Tuple::from_values([40, 41]))
    );
}
