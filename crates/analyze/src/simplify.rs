//! Flow-sensitive, rank-aware program simplification.
//!
//! [`recdb_qlhs::simplify_term_with`] fires the swap rewrites exactly
//! when a [`RankOracle`](recdb_qlhs::RankOracle) proves a rank. This
//! module supplies the strongest oracle the analyzer can justify: for
//! each statement, the abstract ranks of all variables *at that
//! program point* (schema-aware, flow-sensitive). Loop bodies are
//! simplified against the loop-head fixpoint environment, where
//! `Known(k)` over-approximates every iteration — so a rewrite fired
//! inside a loop is valid on the first iteration and the thousandth.
//!
//! Those rewrites are exactly the `W0106` lint's: the safety walk
//! ([`crate::analyze_prog`]) computes each one at its statement, and
//! this module only rebuilds the program from them.
//!
//! The rewrites themselves preserve semantics and errors (see
//! `recdb_qlhs::optimize`), so simplification can never change the
//! analyzer's verdict; `verdict_is_invariant_under_simplification`
//! pins that, and the conformance harness re-checks it on seeded
//! random programs.

use recdb_core::Schema;
use recdb_qlhs::{NodePath, Prog, Term};
use std::collections::BTreeMap;

/// Rebuilds `p` with each assignment's term replaced by its rewrite,
/// flattening nested sequences.
fn rebuild(p: &Prog, path: &mut NodePath, rewrites: &mut BTreeMap<NodePath, Term>) -> Prog {
    match p {
        Prog::Assign(v, t) => Prog::Assign(*v, rewrites.remove(path).unwrap_or_else(|| t.clone())),
        Prog::Seq(ps) => {
            let mut flat = Vec::new();
            for (i, q) in ps.iter().enumerate() {
                path.push(i as u32);
                match rebuild(q, path, rewrites) {
                    Prog::Seq(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
                path.pop();
            }
            Prog::Seq(flat)
        }
        Prog::WhileEmpty(v, body) | Prog::WhileSingleton(v, body) | Prog::WhileFinite(v, body) => {
            path.push(0);
            let new_body = Box::new(rebuild(body, path, rewrites));
            path.pop();
            let while_ = match p {
                Prog::WhileEmpty(..) => Prog::WhileEmpty,
                Prog::WhileSingleton(..) => Prog::WhileSingleton,
                _ => Prog::WhileFinite,
            };
            while_(*v, new_body)
        }
    }
}

/// Simplifies every term of `p` with the strongest rank oracle the
/// schema and flow analysis justify, and flattens nested sequences.
/// Semantics- and verdict-preserving. Bumps no counter.
pub fn simplify_prog_checked(p: &Prog, schema: &Schema) -> Prog {
    rebuild(p, &mut Vec::new(), &mut crate::prog::rewrites(p, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::analyze_prog;
    use recdb_qlhs::{parse_program, Dialect};

    fn s2() -> Schema {
        Schema::new(vec![2])
    }

    #[test]
    fn schema_rank_unlocks_double_swap() {
        let p = parse_program("Y1 := swap(swap(R1));").unwrap();
        let s = simplify_prog_checked(&p, &s2());
        assert_eq!(s, Prog::Seq(vec![Prog::Assign(0, Term::Rel(0))]));
        // Without a proof of R1's rank the rewrite must not fire.
        let t = Term::Rel(0).swap().swap();
        assert_eq!(recdb_qlhs::simplify_term_with(&t, &|_: &Term| None), t);
    }

    #[test]
    fn seq_flattening() {
        let p = Prog::seq([
            Prog::seq([Prog::assign(0, Term::E.not().not())]),
            Prog::seq([Prog::seq([Prog::assign(1, Term::E)])]),
        ]);
        let s = simplify_prog_checked(&p, &s2());
        assert_eq!(
            s,
            Prog::Seq(vec![Prog::assign(0, Term::E), Prog::assign(1, Term::E)])
        );
    }

    #[test]
    fn flow_sensitivity_uses_variable_ranks() {
        // Y2 is rank 1 (E↓) at the point of the swap: swap(Y2) = Y2.
        let p = parse_program("Y2 := down(E); Y1 := swap(Y2);").unwrap();
        let s = simplify_prog_checked(&p, &s2());
        assert_eq!(
            s,
            Prog::Seq(vec![
                Prog::Assign(1, Term::E.down()),
                Prog::Assign(0, Term::Var(1)),
            ])
        );
    }

    #[test]
    fn loop_body_uses_fixpoint_ranks_not_entry_ranks() {
        // On entry Y2 has rank 0, but the body raises it each
        // iteration — the fixpoint rank is ⊤, so the lone swap in the
        // body must NOT be erased.
        let p =
            parse_program("while empty(Y1) { Y2 := up(Y2); Y3 := swap(Y2); Y1 := E; }").unwrap();
        let s = simplify_prog_checked(&p, &s2());
        let body_src = format!("{s}");
        assert!(body_src.contains("swap(Y2)"), "{body_src}");
    }

    #[test]
    fn loop_body_rewrites_fire_when_rank_is_iteration_invariant() {
        // Y2 := R1 keeps rank 2 in every iteration, so the double
        // swap inside the loop is provable.
        let p = parse_program("while empty(Y1) { Y2 := swap(swap(R1)); Y1 := Y2; }").unwrap();
        let s = simplify_prog_checked(&p, &s2());
        let src = format!("{s}");
        assert!(!src.contains("swap"), "{src}");
    }

    #[test]
    fn verdict_is_invariant_under_simplification() {
        let corpus = [
            "Y1 := E & down(E);",
            "Y1 := swap(swap(R1));",
            "Y2 := up(R1); Y1 := swap(Y2) & Y2;",
            "Y1 := R2;",
            "while empty(Y1) { Y2 := up(Y2); Y1 := E; } Y1 := Y2 & E;",
            "Y1 := E; while single(Y1) { Y2 := !!E & (E & E); }",
            "while finite(Y1) { Y1 := up(Y1); }",
            "Y1 := down(down(down(E)));",
            "Y1 := !(!R1 & !swap(R1));",
            // Self-intersections at ⊤ rank: collapsing `Y & Y` (or
            // `!!Y & Y`) must not flip an Unknown verdict to Safe —
            // the analyzer proves the operands agree either way.
            "while empty(Y1) { Y2 := R1; Y1 := (Y1 & Y1); Y1 := Y2; Y1 := E; }",
            "while empty(Y1) { Y2 := up(Y2); Y1 := !!Y2 & Y2; Y1 := E; }",
        ];
        for src in corpus {
            let p = parse_program(src).unwrap();
            let s = simplify_prog_checked(&p, &s2());
            for d in Dialect::ALL {
                let before = analyze_prog(&p, &s2(), d).verdict;
                let after = analyze_prog(&s, &s2(), d).verdict;
                assert_eq!(before, after, "verdict changed for `{src}` under {d}");
            }
        }
    }

    #[test]
    fn idempotent() {
        let p =
            parse_program("Y1 := swap(swap(R1)) & !!R1; while empty(Y2) { Y2 := E & E; }").unwrap();
        let s1 = simplify_prog_checked(&p, &s2());
        let s2_ = simplify_prog_checked(&s1, &s2());
        assert_eq!(s1, s2_);
    }
}
