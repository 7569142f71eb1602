//! Derived operators and the counter-machine compiler (Theorem 3.1's
//! computational core).
//!
//! The completeness proof rests on two programmability facts quoted
//! from [CH]: boolean control flow (`if … then … else`) is expressible
//! with `while |Y|=0` alone, and "QLhs can be thought of as having
//! counters: `E↓↓` plays the role of 0, and if `e` plays the role of
//! the natural number `i`, then `e↑` and `e↓` play the role of `i+1`
//! and `i−1` … This gives QL the power of general counter machines
//! (and hence of Turing machines), with numbers represented by the
//! ranks of the relations in the variables."
//!
//! This module makes both facts executable: rank-0 booleans, branch
//! combinators, and a compiler from (oracle-free) counter programs to
//! QL programs, runnable on any of the three interpreters that accept
//! plain QL (all of them).

use crate::ast::{Prog, Term, VarId};
use recdb_turing::{CounterProgram, Instr};

/// The rank-0 "true": `E↓↓ = {()}` — nonempty.
pub fn true_term() -> Term {
    Term::E.down_n(2)
}

/// The rank-0 "false": `E↓↓↓` — the ↓-below-rank-0 convention makes
/// this the empty rank-0 relation.
pub fn false_term() -> Term {
    Term::E.down_n(3)
}

/// The Church-style numeral `n`: a nonempty relation of rank `n`
/// (`E↓↓↑ⁿ`).
pub fn numeral(n: usize) -> Term {
    true_term().up_n(n)
}

/// `if |Y_cond| = 0 then body` — runs `body` exactly once when the
/// condition variable is empty. Uses `scratch` (must be distinct from
/// every variable `body` writes and from `cond`).
pub fn if_empty(cond: VarId, body: Prog, scratch: VarId) -> Prog {
    Prog::seq([
        Prog::assign(scratch, Term::Var(cond)),
        Prog::WhileEmpty(
            scratch,
            Box::new(Prog::seq([body, Prog::assign(scratch, true_term())])),
        ),
    ])
}

/// `if |Y_cond| ≠ 0 then body` — via a negated rank-0 flag.
pub fn if_nonempty(cond: VarId, body: Prog, scratch1: VarId, scratch2: VarId) -> Prog {
    Prog::seq([
        // scratch2 ← nonempty iff cond empty.
        Prog::assign(scratch2, false_term()),
        if_empty(cond, Prog::assign(scratch2, true_term()), scratch1),
        // Run body iff scratch2 empty iff cond nonempty.
        if_empty(scratch2, body, scratch1),
    ])
}

/// The [CH] derived operator `rank(e)`: computes the rank of the
/// relation in `src` as a numeral (a nonempty relation of that rank)
/// in `out`. Implements the counting loop — repeatedly `↓` a working
/// copy while `↑`-ing the output — with the rank-0-`↓` convention as
/// the exit test. Requires `src` to hold a **nonempty** value (the
/// rank of an empty relation is invisible to emptiness tests; [CH]'s
/// programs maintain the same nonemptiness invariant).
///
/// `scratch = [copy, probe, flag, s1]`, all distinct from `src`,
/// `out`, and each other.
pub fn rank_program(src: VarId, out: VarId, scratch: [VarId; 4]) -> Prog {
    let [copy, probe, flag, s1] = scratch;
    let check_done = |flag: VarId, probe: VarId, s1: VarId| {
        Prog::seq([
            // flag ← nonempty iff probe empty iff rank(copy) = 0.
            Prog::assign(flag, false_term()),
            if_empty(probe, Prog::assign(flag, true_term()), s1),
        ])
    };
    Prog::seq([
        Prog::assign(out, true_term()), // numeral 0
        Prog::assign(copy, Term::Var(src)),
        Prog::assign(probe, Term::Var(copy).down()),
        check_done(flag, probe, s1),
        Prog::WhileEmpty(
            flag,
            Box::new(Prog::seq([
                Prog::assign(copy, Term::Var(copy).down()),
                Prog::assign(out, Term::Var(out).up()),
                Prog::assign(probe, Term::Var(copy).down()),
                check_done(flag, probe, s1),
            ])),
        ),
    ])
}

/// Layout of a compiled counter machine inside the QL variable space.
#[derive(Clone, Debug)]
pub struct CompiledCounter {
    /// The QL program.
    pub prog: Prog,
    /// `Y₁` — holds rank-0 `{()}` iff the machine halted with `true`.
    pub result_var: VarId,
    /// Nonempty once the machine halts.
    pub halt_var: VarId,
    /// First program-counter flag; the flag for address `a` lives at
    /// `pc0_var + a` (one rank-0 boolean per address — unary PC).
    pub pc0_var: VarId,
    /// First register variable; register `r` lives at `reg0_var + r`.
    pub reg0_var: VarId,
}

impl CompiledCounter {
    /// The variable holding register `r`.
    pub fn reg_var(&self, r: usize) -> VarId {
        self.reg0_var + r
    }

    /// The flag variable for program address `a`.
    pub fn pc_var(&self, a: usize) -> VarId {
        self.pc0_var + a
    }
}

/// Compiles an oracle-free counter program (with the given initial
/// register values) into a QL program. Register values are represented
/// by ranks ("numbers represented by the ranks of the relations",
/// §3.3); the program counter is a bank of rank-0 flags, one per
/// address (ranks would also work but cost `|Tᵖᶜ|` space — an
/// engineering choice, not a power upgrade: both encodings are plain
/// QL). The dispatch runs inside one `while |HALT| = 0` loop with a
/// per-sweep "stepped" flag so exactly one instruction fires per
/// sweep.
///
/// # Errors
/// Returns a message for `Oracle` instructions (the compiler covers
/// the pure fragment — the fragment the Theorem 3.1 proof needs for
/// Turing power; oracle questions are handled by the surrounding `P_Q`
/// machinery, not by the counter core).
pub fn compile_counter(cp: &CounterProgram, initial: &[u64]) -> Result<CompiledCounter, String> {
    // Variable layout.
    const RESULT: VarId = 0;
    const HALT: VarId = 1;
    const STEP: VarId = 2;
    const S1: VarId = 3; // scratch for if_empty
    const S2: VarId = 4; // scratch for if_nonempty
    const ZTEST: VarId = 5; // zero-test scratch
    const PC0: VarId = 6;
    let len = cp.code.len();
    let off_pc = PC0 + len; // the "fell off the end" flag
    let reg0 = off_pc + 1;

    let nregs = cp
        .code
        .iter()
        .map(|i| match i {
            Instr::Inc(r) | Instr::Dec(r) | Instr::Jz(r, _) => r + 1,
            Instr::Copy { src, dst } => src.max(dst) + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
        .max(initial.len());

    // PC manipulation helpers (unary flags).
    let goto = |from: usize, to: usize| {
        Prog::seq([
            Prog::assign(PC0 + from, false_term()),
            Prog::assign(PC0 + to.min(len), true_term()),
        ])
    };

    let mut init = vec![
        Prog::assign(RESULT, false_term()),
        Prog::assign(HALT, false_term()),
        Prog::assign(PC0, true_term()),
    ];
    for a in 1..=len {
        init.push(Prog::assign(PC0 + a, false_term()));
    }
    for r in 0..nregs {
        let v = initial.get(r).copied().unwrap_or(0);
        init.push(Prog::assign(reg0 + r, numeral(v as usize)));
    }

    // One dispatch arm per instruction address.
    let mut arms = vec![
        // Reset the per-sweep flag.
        Prog::assign(STEP, false_term()),
    ];
    for (a, instr) in cp.code.iter().enumerate() {
        let body = match instr {
            Instr::Inc(r) => Prog::seq([
                Prog::assign(reg0 + r, Term::Var(reg0 + r).up()),
                goto(a, a + 1),
            ]),
            Instr::Dec(r) => Prog::seq([
                // Saturating: only move down when the value is > 0.
                Prog::assign(ZTEST, Term::Var(reg0 + r).down()),
                if_nonempty(ZTEST, Prog::assign(reg0 + r, Term::Var(ZTEST)), S1, S2),
                goto(a, a + 1),
            ]),
            Instr::Jz(r, target) => Prog::seq([
                Prog::assign(ZTEST, Term::Var(reg0 + r).down()),
                if_empty(ZTEST, goto(a, *target), S1),
                if_nonempty(ZTEST, goto(a, a + 1), S1, S2),
            ]),
            Instr::Jmp(target) => goto(a, *target),
            Instr::Copy { src, dst } => Prog::seq([
                Prog::assign(reg0 + dst, Term::Var(reg0 + src)),
                goto(a, a + 1),
            ]),
            Instr::Halt(b) => Prog::seq([
                Prog::assign(HALT, true_term()),
                Prog::assign(RESULT, if *b { true_term() } else { false_term() }),
            ]),
            Instr::Oracle { .. } => {
                return Err("oracle instructions are outside the pure counter fragment".into())
            }
        };
        // Guard: flag a set, and not yet stepped this sweep.
        let step_guard = Prog::seq([body, Prog::assign(STEP, true_term())]);
        arms.push(if_nonempty(PC0 + a, if_empty(STEP, step_guard, S1), S1, S2));
    }
    // Falling off the end: the off-end flag set → halt rejecting.
    arms.push(if_nonempty(
        off_pc,
        Prog::seq([
            Prog::assign(HALT, true_term()),
            Prog::assign(RESULT, false_term()),
        ]),
        S1,
        S2,
    ));

    let master = Prog::WhileEmpty(HALT, Box::new(Prog::seq(arms)));
    init.push(master);
    Ok(CompiledCounter {
        prog: Prog::seq(init),
        result_var: RESULT,
        halt_var: HALT,
        pc0_var: PC0,
        reg0_var: reg0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::eval_term;
    use crate::hs_interp::HsInterp;
    use crate::value::Val;
    use recdb_core::Fuel;
    use recdb_hsdb::infinite_clique;
    use recdb_turing::Asm;

    fn run_compiled(cc: &CompiledCounter) -> Vec<Val> {
        let hs = infinite_clique();
        let mut interp = HsInterp::new(&hs);
        let mut env: Vec<Val> = Vec::new();
        let mut fuel = Fuel::new(5_000_000);
        interp.exec(&cc.prog, &mut env, &mut fuel).expect("runs");
        env
    }

    #[test]
    fn booleans_and_numerals() {
        let hs = infinite_clique();
        let mut interp = HsInterp::new(&hs);
        let mut fuel = Fuel::new(100_000);
        let t = eval_term(&mut interp, &true_term(), &[], &mut fuel).unwrap();
        assert!(t.is_singleton() && t.rank == 0);
        let f = eval_term(&mut interp, &false_term(), &[], &mut fuel).unwrap();
        assert!(f.is_empty() && f.rank == 0);
        for n in 0..4 {
            let v = eval_term(&mut interp, &numeral(n), &[], &mut fuel).unwrap();
            assert_eq!(v.rank, n);
            assert!(!v.is_empty());
        }
    }

    #[test]
    fn if_combinators_branch_correctly() {
        let hs = infinite_clique();
        let mut interp = HsInterp::new(&hs);
        // Y0 result; Y1 condition; Y2,Y3 scratch.
        for (cond, expect_then) in [(false_term(), true), (true_term(), false)] {
            let p = Prog::seq([
                Prog::assign(0, false_term()),
                Prog::assign(1, cond.clone()),
                if_empty(1, Prog::assign(0, true_term()), 2),
            ]);
            let mut env = Vec::new();
            interp.exec(&p, &mut env, &mut Fuel::new(100_000)).unwrap();
            assert_eq!(!env[0].is_empty(), expect_then, "if_empty({cond})");

            let p = Prog::seq([
                Prog::assign(0, false_term()),
                Prog::assign(1, cond.clone()),
                if_nonempty(1, Prog::assign(0, true_term()), 2, 3),
            ]);
            let mut env = Vec::new();
            interp.exec(&p, &mut env, &mut Fuel::new(100_000)).unwrap();
            assert_eq!(!env[0].is_empty(), !expect_then, "if_nonempty({cond})");
        }
    }

    #[test]
    fn compiled_addition() {
        // c0 += c1 by transfer, from the turing crate's test program.
        let p = Asm::new()
            .label("loop")
            .jz(1, "done")
            .instr(Instr::Dec(1))
            .instr(Instr::Inc(0))
            .jmp("loop")
            .label("done")
            .instr(Instr::Halt(true))
            .assemble();
        let cc = compile_counter(&p, &[2, 3]).unwrap();
        let env = run_compiled(&cc);
        assert!(!env[cc.result_var].is_empty(), "halted true");
        assert_eq!(env[cc.reg_var(0)].rank, 5, "2 + 3 = 5 as a rank");
        assert_eq!(env[cc.reg_var(1)].rank, 0);
    }

    #[test]
    fn compiled_halt_false() {
        let p = CounterProgram {
            code: vec![Instr::Halt(false)],
        };
        let cc = compile_counter(&p, &[]).unwrap();
        let env = run_compiled(&cc);
        assert!(env[cc.result_var].is_empty(), "halted false");
        assert!(!env[cc.halt_var].is_empty());
    }

    #[test]
    fn compiled_fall_off_rejects() {
        let p = CounterProgram {
            code: vec![Instr::Inc(0)],
        };
        let cc = compile_counter(&p, &[]).unwrap();
        let env = run_compiled(&cc);
        assert!(env[cc.result_var].is_empty());
        assert_eq!(env[cc.reg_var(0)].rank, 1, "the Inc executed first");
    }

    #[test]
    fn compiled_saturating_dec() {
        let p = CounterProgram {
            code: vec![Instr::Dec(0), Instr::Dec(0), Instr::Halt(true)],
        };
        let cc = compile_counter(&p, &[1]).unwrap();
        let env = run_compiled(&cc);
        assert_eq!(env[cc.reg_var(0)].rank, 0, "1 − 1 − 1 saturates at 0");
    }

    #[test]
    fn compiled_copy() {
        let p = CounterProgram {
            code: vec![Instr::Copy { src: 0, dst: 1 }, Instr::Halt(true)],
        };
        let cc = compile_counter(&p, &[3]).unwrap();
        let env = run_compiled(&cc);
        assert_eq!(env[cc.reg_var(1)].rank, 3);
    }

    #[test]
    fn oracle_instruction_rejected() {
        let p = CounterProgram {
            code: vec![Instr::Oracle {
                rel: 0,
                args: vec![],
                jyes: 0,
                jno: 0,
            }],
        };
        assert!(compile_counter(&p, &[]).is_err());
    }

    #[test]
    fn agreement_with_native_counter_machine() {
        // The compiled program computes the same function as the
        // native interpreter (Theorem 3.1's simulation fidelity).
        let p = Asm::new()
            .label("loop")
            .jz(1, "done")
            .instr(Instr::Dec(1))
            .instr(Instr::Inc(0))
            .instr(Instr::Inc(0))
            .jmp("loop")
            .label("done")
            .instr(Instr::Halt(true))
            .assemble();
        for (a, b) in [(0, 0), (1, 2), (2, 1)] {
            let mut fuel = Fuel::new(10_000);
            let native = p.run_pure(&[a, b], &mut fuel).unwrap();
            let cc = compile_counter(&p, &[a, b]).unwrap();
            let env = run_compiled(&cc);
            assert_eq!(
                env[cc.reg_var(0)].rank as u64,
                native.registers[0],
                "native and compiled agree on inputs ({a},{b})"
            );
        }
    }
}

#[cfg(test)]
mod rank_tests {
    use super::*;
    use crate::hs_interp::HsInterp;
    use crate::value::Val;
    use recdb_core::Fuel;
    use recdb_hsdb::{infinite_clique, paper_example_graph};

    #[test]
    fn rank_of_numerals() {
        let hs = infinite_clique();
        for n in 0..5usize {
            let p = Prog::seq([
                Prog::assign(1, numeral(n)),
                rank_program(1, 0, [2, 3, 4, 5]),
            ]);
            let mut interp = HsInterp::new(&hs);
            let mut env: Vec<Val> = Vec::new();
            interp
                .exec(&p, &mut env, &mut Fuel::new(1_000_000))
                .unwrap();
            assert_eq!(env[0].rank, n, "rank(numeral({n})) = {n}");
            assert!(!env[0].is_empty());
        }
    }

    #[test]
    fn rank_of_relations() {
        // rank(R1) = 2 on graphs; rank(E↓) = 1.
        let hs = paper_example_graph();
        let p = Prog::seq([
            Prog::assign(1, Term::Rel(0)),
            rank_program(1, 0, [2, 3, 4, 5]),
        ]);
        let mut interp = HsInterp::new(&hs);
        let mut env: Vec<Val> = Vec::new();
        interp
            .exec(&p, &mut env, &mut Fuel::new(1_000_000))
            .unwrap();
        assert_eq!(env[0].rank, 2);

        let p = Prog::seq([
            Prog::assign(1, Term::E.down()),
            rank_program(1, 0, [2, 3, 4, 5]),
        ]);
        let mut env: Vec<Val> = Vec::new();
        HsInterp::new(&hs)
            .exec(&p, &mut env, &mut Fuel::new(1_000_000))
            .unwrap();
        assert_eq!(env[0].rank, 1);
    }
}
