//! A tour of QLhs (Theorem 3.1): the language, the derived operators,
//! the counter-machine power, and the completeness pipeline.
//!
//! Run with `cargo run --example qlhs_tour`.

use recdb_core::Fuel;
use recdb_hsdb::{infinite_clique, paper_example_graph};
use recdb_qlhs::exec::eval_term;
use recdb_qlhs::{compile_counter, numeral, parse_program, theorem_3_1_pipeline, HsInterp, Val};
use recdb_turing::{Asm, Instr};

fn main() {
    // 1. The language, on the §3.1 example graph's representation.
    let hs = paper_example_graph();
    println!(
        "QLhs on the §3.1 example graph  (C₁ has {} classes)",
        hs.reps(0).len()
    );
    let prog = parse_program(
        "
        Y2 := R1 & swap(R1);   // the symmetric edge class
        Y3 := R1 & !Y2;        // the one-way edge class
        Y1 := up(Y3);          // its extension classes
        ",
    )
    .unwrap();
    let mut interp = HsInterp::new(&hs);
    let v = interp.run(&prog, &mut Fuel::new(1_000_000)).unwrap();
    println!(
        "up(one-way-edges) has {} classes of rank {}\n",
        v.len(),
        v.rank
    );

    // 2. Derived operators: numerals as ranks.
    let clique = infinite_clique();
    let mut interp = HsInterp::new(&clique);
    for n in 0..4 {
        let val = eval_term(&mut interp, &numeral(n), &[], &mut Fuel::new(100_000)).unwrap();
        println!(
            "numeral({n}): rank {} with {} representatives",
            val.rank,
            val.len()
        );
    }

    // 3. Counter-machine power: multiply 3 × 2 inside QLhs.
    let mult = Asm::new()
        .label("outer")
        .jz(0, "done")
        .instr(Instr::Dec(0))
        .instr(Instr::Copy { src: 1, dst: 3 })
        .label("inner")
        .jz(3, "outer")
        .instr(Instr::Dec(3))
        .instr(Instr::Inc(2))
        .jmp("inner")
        .label("done")
        .instr(Instr::Halt(true))
        .assemble();
    let cc = compile_counter(&mult, &[3, 2]).unwrap();
    let mut env: Vec<Val> = Vec::new();
    HsInterp::new(&clique)
        .exec(&cc.prog, &mut env, &mut Fuel::new(50_000_000))
        .unwrap();
    println!(
        "\n3 × 2 computed by a QLhs program: rank {} (the number!)",
        env[cc.reg_var(2)].rank
    );

    // 4. The Theorem 3.1 pipeline: encode C's into integers, run an
    //    arbitrary recursive query there, decode through d.
    let reversed = theorem_3_1_pipeline(&hs, |x, _| {
        x[0].iter()
            .map(|idx| idx.iter().rev().copied().collect())
            .collect()
    });
    println!("\npipeline(reverse) = {} classes:", reversed.len());
    for rep in &reversed {
        println!(
            "  {rep}  (still an edge: {})",
            hs.database().query(0, rep.elems())
        );
    }
    // 5. Cross-check against the native swap operator.
    let native = HsInterp::new(&hs)
        .run(
            &parse_program("Y1 := swap(R1);").unwrap(),
            &mut Fuel::new(1_000_000),
        )
        .unwrap();
    println!(
        "\npipeline(reverse) == QLhs swap(R1): {}",
        native.tuples == reversed.iter().cloned().collect()
    );
}
