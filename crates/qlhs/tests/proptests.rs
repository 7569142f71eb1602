//! Property-based tests for the QL interpreters: boolean-algebra laws
//! on representative sets, parser round trips, and interpreter
//! determinism.
//!
//! Written as seeded deterministic property loops over
//! [`recdb_core::SplitMix64`] rather than an external framework, so
//! they run in offline environments (DESIGN.md §7, seed-test triage).

use recdb_core::{fnv1a, Fuel, SplitMix64};
use recdb_hsdb::{infinite_clique, paper_example_graph, unary_cells, CellSize, HsDatabase};
use recdb_qlhs::{parse_program, HsInterp, Prog, Term};

const CASES: usize = 48;

fn rng_for(test: &str) -> SplitMix64 {
    SplitMix64::seed_from_u64(fnv1a(test) ^ 0x5ecd_eb0a)
}

fn zoo(ix: usize) -> HsDatabase {
    match ix % 3 {
        0 => infinite_clique(),
        1 => paper_example_graph(),
        _ => unary_cells(vec![CellSize::Infinite, CellSize::Infinite]),
    }
}

/// A random rank-2 term over R1 (for graph-shaped members) closed
/// under the rank-preserving operations ∩, ¬, ~, with recursion depth
/// at most `depth`.
fn rank2_term(rng: &mut SplitMix64, depth: usize) -> Term {
    if depth == 0 || rng.gen_usize(4) == 0 {
        return if rng.gen_bool() {
            Term::E
        } else {
            Term::Rel(0)
        };
    }
    match rng.gen_usize(3) {
        0 => rank2_term(rng, depth - 1).not(),
        1 => rank2_term(rng, depth - 1).swap(),
        _ => rank2_term(rng, depth - 1).and(rank2_term(rng, depth - 1)),
    }
}

fn eval(hs: &HsDatabase, t: &Term) -> recdb_qlhs::Val {
    let prog = Prog::assign(0, t.clone());
    HsInterp::new(hs)
        .run(&prog, &mut Fuel::new(5_000_000))
        .expect("rank-2 terms cannot fail on graph schemas")
}

/// Rank-preserving term trees always produce rank-2 values whose
/// tuples are T² representatives.
#[test]
fn rank2_terms_stay_in_t2() {
    let mut rng = rng_for("rank2_terms_stay_in_t2");
    // zoo(2) has a unary first relation; restrict to graph members.
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let t = rank2_term(&mut rng, 3);
            let v = eval(&hs, &t);
            assert_eq!(v.rank, 2);
            let t2: std::collections::BTreeSet<_> = hs.t_n(2).into_iter().collect();
            for rep in &v.tuples {
                assert!(
                    t2.contains(&rep.to_tuple()),
                    "values are representative sets"
                );
            }
        }
    }
}

/// Complement is an involution.
#[test]
fn complement_involution() {
    let mut rng = rng_for("complement_involution");
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let t = rank2_term(&mut rng, 3);
            assert_eq!(eval(&hs, &t), eval(&hs, &t.clone().not().not()));
        }
    }
}

/// Intersection is idempotent, commutative, associative.
#[test]
fn intersection_laws() {
    let mut rng = rng_for("intersection_laws");
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let a = rank2_term(&mut rng, 3);
            let b = rank2_term(&mut rng, 3);
            let c = rank2_term(&mut rng, 3);
            assert_eq!(eval(&hs, &a.clone().and(a.clone())), eval(&hs, &a));
            assert_eq!(
                eval(&hs, &a.clone().and(b.clone())),
                eval(&hs, &b.clone().and(a.clone()))
            );
            assert_eq!(
                eval(&hs, &a.clone().and(b.clone()).and(c.clone())),
                eval(&hs, &a.clone().and(b.clone().and(c.clone())))
            );
        }
    }
}

/// De Morgan on representative sets.
#[test]
fn de_morgan() {
    let mut rng = rng_for("de_morgan");
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let a = rank2_term(&mut rng, 3);
            let b = rank2_term(&mut rng, 3);
            let lhs = a.clone().and(b.clone()).not();
            let rhs = a.clone().not().union(b.clone().not());
            assert_eq!(eval(&hs, &lhs), eval(&hs, &rhs));
        }
    }
}

/// Swap is an involution on rank-2 values.
#[test]
fn swap_involution() {
    let mut rng = rng_for("swap_involution");
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let t = rank2_term(&mut rng, 3);
            assert_eq!(eval(&hs, &t.clone().swap().swap()), eval(&hs, &t));
        }
    }
}

/// down(up(e)) ⊒ e's projection closure: every element of e survives
/// one up-down round trip (up adds a coordinate at the end, down
/// removes the FIRST — so this is not identity; instead verify the
/// sound direction: up never empties a nonempty value and down of up
/// is nonempty when e is).
#[test]
fn up_down_preserve_nonemptiness() {
    let mut rng = rng_for("up_down_preserve_nonemptiness");
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let t = rank2_term(&mut rng, 3);
            let v = eval(&hs, &t);
            let up = eval(&hs, &t.clone().up());
            assert_eq!(v.is_empty(), up.is_empty(), "↑ preserves (non)emptiness");
            let updown = eval(&hs, &t.clone().up().down());
            assert_eq!(v.is_empty(), updown.is_empty());
        }
    }
}

/// Display → parse round trip for whole programs.
#[test]
fn program_display_roundtrip() {
    let mut rng = rng_for("program_display_roundtrip");
    for _ in 0..CASES {
        let t = rank2_term(&mut rng, 3);
        let w = rng.gen_usize(3);
        let prog = Prog::seq([
            Prog::assign(1, t),
            Prog::WhileEmpty(w, Box::new(Prog::assign(w, Term::E))),
        ]);
        let printed = prog.to_string();
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(reparsed.to_string(), printed);
    }
}

/// The interpreter is deterministic. (zoo(2) has unary R1 — rank
/// mismatch risk — so only the graph members are exercised.)
#[test]
fn interpreter_deterministic() {
    let mut rng = rng_for("interpreter_deterministic");
    for ix in 0..2 {
        let hs = zoo(ix);
        for _ in 0..CASES / 2 {
            let t = rank2_term(&mut rng, 3);
            assert_eq!(eval(&hs, &t), eval(&hs, &t));
        }
    }
}
