//! Term simplification for QL programs.
//!
//! Rewrites that are sound in *every* dialect's semantics (they follow
//! from the set-algebra laws alone, which all three interpreters
//! share):
//!
//! * `¬¬e → e`
//! * `e ∩ e → e`
//! * `(e~)~ → e` — applied exactly when rank inference proves the
//!   inner term's rank is some concrete `k` (so either `k ≥ 2`, where
//!   `~∘~` exchanges twice, or `k < 2`, where `~` is already the
//!   identity). Without a rank proof the rewrite does not fire: the
//!   simplifier never claims more than the analysis can show.
//! * `e~ → e` when the rank is provably `< 2` (the swap is the
//!   identity there) — this rewrite *only* exists in the rank-aware
//!   path, since it is unsound to guess.
//! * `¬e ∩ ¬f → ¬(e ∪ f)` is *not* applied (union is not primitive);
//! * constant folding of `E↓↓↓…` chains is left to the interpreters
//!   (the empty-rank-0 convention is semantic, not syntactic).
//!
//! Rank proofs come from a [`RankOracle`]. [`simplify_term`] uses the
//! built-in [`ClosedRanks`] oracle, which proves ranks of subterms
//! built without `Relᵢ`/`Yᵢ` (those need a schema and an environment).
//! The `recdb-analyze` crate supplies a stronger oracle from its
//! abstract rank-inference engine via [`simplify_term_with`] /
//! [`simplify_prog_with`], so e.g. `(R1~)~` simplifies once the
//! schema's arity for `R1` is known.
//!
//! The simplifier is careful about *errors*: a rewrite must not turn a
//! failing term (rank mismatch, missing relation) into a succeeding
//! one or vice versa. `e ∩ e → e` preserves errors because both sides
//! evaluate `e`; `¬¬e → e` likewise; the swap rewrites only drop
//! error-free nodes (`~` itself never errors).

use crate::ast::{Prog, Term};

/// A source of static rank facts for terms. `term_rank` returns
/// `Some(k)` only when the term *provably* has rank `k` in every
/// execution reaching it — `None` means "cannot prove", never "rank
/// unknown but probably fine".
pub trait RankOracle {
    /// The proven rank of `t`, if any.
    fn term_rank(&self, t: &Term) -> Option<usize>;
}

impl<F: Fn(&Term) -> Option<usize>> RankOracle for F {
    fn term_rank(&self, t: &Term) -> Option<usize> {
        self(t)
    }
}

/// The oracle every caller gets for free: ranks of *closed* terms —
/// those mentioning neither `Relᵢ` (needs a schema) nor `Yᵢ` (needs an
/// environment). `E` has rank 2, `↑`/`↓` shift by one (with `↓`
/// clamping at 0, matching the empty-rank-0 convention), `∩` requires
/// agreeing operands.
pub struct ClosedRanks;

impl RankOracle for ClosedRanks {
    fn term_rank(&self, t: &Term) -> Option<usize> {
        match t {
            Term::E => Some(2),
            Term::Const(_) => Some(1),
            Term::Rel(_) | Term::Var(_) => None,
            Term::And(a, b) => match (self.term_rank(a), self.term_rank(b)) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            },
            Term::Not(e) | Term::Swap(e) => self.term_rank(e),
            Term::Up(e) => self.term_rank(e).map(|k| k + 1),
            Term::Down(e) => self.term_rank(e).map(|k| k.saturating_sub(1)),
        }
    }
}

/// Simplifies a term bottom-up with the closed-term rank oracle.
/// Idempotent.
pub fn simplify_term(t: &Term) -> Term {
    simplify_term_with(t, &ClosedRanks)
}

/// Simplifies a term bottom-up, consulting `ranks` for the rank proofs
/// the swap rewrites need. Idempotent for a fixed oracle.
pub fn simplify_term_with(t: &Term, ranks: &impl RankOracle) -> Term {
    match t {
        Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => t.clone(),
        Term::And(a, b) => {
            let (sa, sb) = (simplify_term_with(a, ranks), simplify_term_with(b, ranks));
            if sa == sb {
                sa
            } else {
                Term::And(Box::new(sa), Box::new(sb))
            }
        }
        Term::Not(e) => {
            let se = simplify_term_with(e, ranks);
            match se {
                Term::Not(inner) => *inner,
                other => Term::Not(Box::new(other)),
            }
        }
        Term::Up(e) => Term::Up(Box::new(simplify_term_with(e, ranks))),
        Term::Down(e) => Term::Down(Box::new(simplify_term_with(e, ranks))),
        Term::Swap(e) => {
            let se = simplify_term_with(e, ranks);
            match se {
                // `(f~)~ → f` exactly when the rank of `f` is proven
                // (≥ 2: double exchange; < 2: both swaps are already
                // the identity).
                Term::Swap(inner) if ranks.term_rank(&inner).is_some() => *inner,
                // `f~ → f` when rank < 2 is proven: the swap is the
                // identity below rank 2.
                other if ranks.term_rank(&other).is_some_and(|k| k < 2) => other,
                other => Term::Swap(Box::new(other)),
            }
        }
    }
}

/// Simplifies every term in a program (closed-term oracle) and
/// flattens nested sequences.
pub fn simplify_prog(p: &Prog) -> Prog {
    simplify_prog_with(p, &ClosedRanks)
}

/// Simplifies every term in a program with a caller-supplied rank
/// oracle and flattens nested sequences.
///
/// The oracle is consulted per term *as written*; a flow-sensitive
/// caller (the analyzer's `simplify_prog_checked`) should instead walk
/// the program itself so each statement sees the environment at its
/// own program point.
pub fn simplify_prog_with(p: &Prog, ranks: &impl RankOracle) -> Prog {
    match p {
        Prog::Assign(v, t) => Prog::Assign(*v, simplify_term_with(t, ranks)),
        Prog::Seq(ps) => {
            let mut flat = Vec::new();
            for q in ps {
                match simplify_prog_with(q, ranks) {
                    Prog::Seq(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            Prog::Seq(flat)
        }
        Prog::WhileEmpty(v, body) => {
            Prog::WhileEmpty(*v, Box::new(simplify_prog_with(body, ranks)))
        }
        Prog::WhileSingleton(v, body) => {
            Prog::WhileSingleton(*v, Box::new(simplify_prog_with(body, ranks)))
        }
        Prog::WhileFinite(v, body) => {
            Prog::WhileFinite(*v, Box::new(simplify_prog_with(body, ranks)))
        }
    }
}

/// Size of a term (AST nodes) — the quantity simplification reduces.
pub fn term_size(t: &Term) -> usize {
    match t {
        Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => 1,
        Term::And(a, b) => 1 + term_size(a) + term_size(b),
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => 1 + term_size(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::eval_term;
    use crate::hs_interp::HsInterp;
    use recdb_core::Fuel;
    use recdb_hsdb::{infinite_clique, paper_example_graph};

    #[test]
    fn rewrites_fire() {
        let t = Term::Rel(0).not().not();
        assert_eq!(simplify_term(&t), Term::Rel(0));
        let t = Term::Rel(0).and(Term::Rel(0));
        assert_eq!(simplify_term(&t), Term::Rel(0));
        // Nested: ¬¬(e ∩ e) → e.
        let t = Term::Rel(0).and(Term::Rel(0)).not().not();
        assert_eq!(simplify_term(&t), Term::Rel(0));
        // Double swap on a closed term: rank of E is proven (2), so
        // the rewrite fires without any schema.
        let t = Term::E.swap().swap();
        assert_eq!(simplify_term(&t), Term::E);
    }

    #[test]
    fn double_swap_needs_a_rank_proof() {
        // `Rel(0)` has unknown rank without a schema: the closed-term
        // oracle cannot prove ≥ 2 or < 2, so `(R1~)~` must stay.
        let t = Term::Rel(0).swap().swap();
        assert_eq!(simplify_term(&t), t);
        // With a schema-backed oracle (here: "every relation is
        // binary"), the proof exists and the rewrite fires.
        let binary = |u: &Term| match u {
            Term::Rel(_) => Some(2),
            Term::E => Some(2),
            _ => None,
        };
        assert_eq!(simplify_term_with(&t, &binary), Term::Rel(0));
    }

    #[test]
    fn single_swap_erased_below_rank_two() {
        // E↓ has proven rank 1, so a lone swap on it is the identity.
        let t = Term::E.down().swap();
        assert_eq!(simplify_term(&t), Term::E.down());
        // E↓↓↓ clamps at rank 0 (the empty-rank-0 convention) — still
        // provably < 2.
        let t = Term::E.down_n(3).swap();
        assert_eq!(simplify_term(&t), Term::E.down_n(3));
        // Rank 2: the swap is semantically meaningful and must stay.
        let t = Term::E.swap();
        assert_eq!(simplify_term(&t), Term::E.swap());
    }

    #[test]
    fn simplification_is_idempotent_and_shrinking() {
        let t = Term::E
            .not()
            .not()
            .and(Term::E.not().not())
            .swap()
            .swap()
            .up();
        let s1 = simplify_term(&t);
        let s2 = simplify_term(&s1);
        assert_eq!(s1, s2);
        assert!(term_size(&s1) <= term_size(&t));
        assert_eq!(s1, Term::E.up());
    }

    #[test]
    fn semantics_preserved_on_hs_interpreters() {
        let binary = |u: &Term| {
            ClosedRanks.term_rank(u).or(match u {
                Term::Rel(0) => Some(2),
                _ => None,
            })
        };
        let terms = [
            Term::Rel(0).not().not(),
            Term::Rel(0).swap().swap().and(Term::Rel(0)),
            Term::E.and(Term::E).not(),
            Term::Rel(0).up().swap().swap().down(),
            Term::Rel(0).down().swap(),
        ];
        for hs in [infinite_clique(), paper_example_graph()] {
            for t in &terms {
                for s in [simplify_term(t), simplify_term_with(t, &binary)] {
                    let mut i1 = HsInterp::new(&hs);
                    let mut i2 = HsInterp::new(&hs);
                    let v1 = eval_term(&mut i1, t, &[], &mut Fuel::new(1_000_000)).unwrap();
                    let v2 = eval_term(&mut i2, &s, &[], &mut Fuel::new(1_000_000)).unwrap();
                    assert_eq!(v1, v2, "simplification changed semantics of {t}");
                }
            }
        }
    }

    #[test]
    fn errors_are_preserved() {
        // Rank-mismatch terms still fail after simplification.
        let t = Term::E.and(Term::E.down()).not().not();
        let s = simplify_term(&t);
        let hs = infinite_clique();
        let r1 = eval_term(&mut HsInterp::new(&hs), &t, &[], &mut Fuel::new(10_000));
        let r2 = eval_term(&mut HsInterp::new(&hs), &s, &[], &mut Fuel::new(10_000));
        assert!(r1.is_err() && r2.is_err());
    }

    #[test]
    fn seq_flattening() {
        let p = Prog::seq([
            Prog::seq([Prog::assign(0, Term::E.not().not())]),
            Prog::seq([Prog::seq([Prog::assign(1, Term::E)])]),
        ]);
        let s = simplify_prog(&p);
        match s {
            Prog::Seq(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0], Prog::assign(0, Term::E));
            }
            other => panic!("expected flat Seq, got {other:?}"),
        }
    }
}
