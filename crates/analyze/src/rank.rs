//! The abstract domains: rank, emptiness, assignment state, and QLf⁺
//! finiteness — and [`step`], the one per-node (rank, finiteness)
//! transfer every walk reads its ranks from.
//!
//! ## Rank lattice
//!
//! ```text
//!           ⊤   (rank not provable — or a definite mismatch)
//!        / / \ \
//!   …  0  1  2  3 …   (Known(k): the value has rank k on EVERY run)
//!        \ \ / /
//!           ⊥   (unreachable — no run gets here)
//! ```
//!
//! The rank transfer ([`step`], folded by [`term_rank`]) is *exact*
//! on `Known` inputs: every QL operator's output rank is a function of
//! its input ranks (`E↦2`, `Relᵢ↦arity(i)`, `↑` adds one, `↓`
//! subtracts one clamping at 0 — the empty-rank-0 convention —
//! `∩`/`¬`/`~` preserve), and an unassigned variable evaluates to the
//! empty rank-0 value, never an error. So `Known(k)` genuinely means "rank k on every execution
//! reaching this point"; information is only lost at control-flow
//! joins, where disagreeing `Known`s go to `⊤`.
//!
//! ## Emptiness lattice
//!
//! `⊥ ⊑ {Empty, NonEmpty} ⊑ ⊤`. This one is *not* exact (`∩` of two
//! non-empty values may be empty, `¬` depends on the domain), and
//! `NonEmpty` facts for `E` assume a non-empty domain — true for every
//! structure this repo builds, but an assumption. It therefore only
//! feeds *warnings* (unreachable/divergent loops), never the
//! [`Verdict`](crate::Verdict).
//!
//! ## Finiteness lattice
//!
//! `{Finite, Cofinite} ⊑ Unknown`: whether a QLf⁺ value surely stores
//! its own tuples, surely stores its complement, or may do either
//! (P4.1–4.3). Under QL and QLhs every value is `Finite`. The VM
//! lowerer needs it to prove `↑` operands finite; it walks programs in
//! (rank, finiteness) with [`ShapeWalk`], whose loops run to the
//! shared [`loop_head`](crate::fix::loop_head) state.

use crate::fix::{self, Budget, Lattice};
use recdb_core::Schema;
use recdb_qlhs::{Dialect, Prog, Term, VarId};

/// Abstract rank of a QL value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsRank {
    /// Unreachable.
    Bot,
    /// Provably rank `k` on every run reaching this point.
    Known(usize),
    /// Not provable (or provably erroneous).
    Top,
}

impl AbsRank {
    /// Least upper bound.
    pub fn join(self, other: AbsRank) -> AbsRank {
        match (self, other) {
            (AbsRank::Bot, x) | (x, AbsRank::Bot) => x,
            (AbsRank::Known(a), AbsRank::Known(b)) if a == b => AbsRank::Known(a),
            _ => AbsRank::Top,
        }
    }

    /// The proven concrete rank, if any.
    pub fn known(self) -> Option<usize> {
        match self {
            AbsRank::Known(k) => Some(k),
            _ => None,
        }
    }

    /// Applies `f` to a `Known` rank, passing `Bot`/`Top` through.
    pub fn map(self, f: impl FnOnce(usize) -> usize) -> AbsRank {
        match self {
            AbsRank::Known(k) => AbsRank::Known(f(k)),
            other => other,
        }
    }
}

/// Abstract emptiness of a QL value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsEmpty {
    /// Unreachable.
    Bot,
    /// Provably empty.
    Empty,
    /// Provably non-empty (under the non-empty-domain assumption).
    NonEmpty,
    /// Unknown.
    Top,
}

impl AbsEmpty {
    /// Least upper bound.
    pub fn join(self, other: AbsEmpty) -> AbsEmpty {
        match (self, other) {
            (AbsEmpty::Bot, x) | (x, AbsEmpty::Bot) => x,
            (a, b) if a == b => a,
            _ => AbsEmpty::Top,
        }
    }
}

/// Whether a variable has been assigned on paths reaching a point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Assigned {
    /// On no path (a read is a definite use-before-assign).
    No,
    /// On some paths.
    Maybe,
    /// On every path.
    Yes,
}

impl Assigned {
    /// Least upper bound (`No ⊔ Yes = Maybe`).
    pub fn join(self, other: Assigned) -> Assigned {
        if self == other {
            self
        } else {
            Assigned::Maybe
        }
    }
}

/// Three-valued QLf⁺ finiteness of a value's stored tuples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fin {
    /// Surely the relation itself (every QL and QLhs value).
    Finite,
    /// Surely the complement of the relation.
    Cofinite,
    /// Either.
    Unknown,
}

/// A value's abstract rank and finiteness: the state [`step`] maps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    /// The abstract rank.
    pub rank: AbsRank,
    /// The finiteness of the stored tuples.
    pub fin: Fin,
}

impl Shape {
    /// A never-assigned variable: the empty rank-0 value.
    pub const UNSET: Shape = Shape {
        rank: AbsRank::Known(0),
        fin: Fin::Finite,
    };

    /// Nothing known.
    pub const TOP: Shape = Shape {
        rank: AbsRank::Top,
        fin: Fin::Unknown,
    };
}

impl Lattice for Shape {
    fn join(&self, other: &Shape) -> Shape {
        Shape {
            rank: self.rank.join(other.rank),
            fin: if self.fin == other.fin {
                self.fin
            } else {
                Fin::Unknown
            },
        }
    }
}

/// A rank with nothing known about finiteness — for walks that keep
/// their own finiteness flag and read only [`step`]'s rank.
impl From<AbsRank> for Shape {
    fn from(rank: AbsRank) -> Shape {
        Shape {
            rank,
            fin: Fin::Unknown,
        }
    }
}

/// The per-node transfer: the shape of `t`'s value given its
/// children's shapes `kids`, in order (for a `Var`, the one input is
/// the variable's own shape). The rank part is *exact* on `Known`
/// inputs and needs no dialect; it is `Top` for a definite
/// `∩`-mismatch or an out-of-schema `Relᵢ` — the *diagnosis* of those
/// is the caller's. Finiteness follows the QLf⁺ representation:
/// `¬` swaps finite and co-finite, `↑` only succeeds on finite input,
/// and `↓` of a rank-≤1 value stores `{()}` or `∅`.
pub fn step(t: &Term, schema: &Schema, dialect: Dialect, kids: &[Shape]) -> Shape {
    use AbsRank::Known;
    let fcf = dialect == Dialect::QlfPlus;
    let [a, b] = [0, 1].map(|i| kids.get(i).copied().unwrap_or(Shape::TOP));
    let finite = |rank| Shape {
        rank,
        fin: Fin::Finite,
    };
    match t {
        Term::E => finite(Known(2)),
        // A constant is always the rank-1 singleton `{(a)}` (the class
        // of `a` over C_B representations) — rank 1 on every backend.
        Term::Const(_) => finite(Known(1)),
        // A QLf⁺ schema relation may be stored co-finite — that is
        // per-database data, not schema.
        Term::Rel(i) if *i < schema.len() => Shape {
            rank: Known(schema.arity(*i)),
            fin: if fcf { Fin::Unknown } else { Fin::Finite },
        },
        Term::Rel(_) => Shape::TOP,
        Term::Var(_) | Term::Swap(_) => a,
        Term::And(..) => Shape {
            rank: match (a.rank, b.rank) {
                (AbsRank::Bot, x) | (x, AbsRank::Bot) => x,
                (Known(x), Known(y)) if x == y => Known(x),
                _ => AbsRank::Top,
            },
            fin: match (a.fin, b.fin) {
                (Fin::Finite, _) | (_, Fin::Finite) => Fin::Finite,
                (Fin::Cofinite, Fin::Cofinite) => Fin::Cofinite,
                _ => Fin::Unknown,
            },
        },
        Term::Not(_) => Shape {
            rank: a.rank,
            fin: match a.fin {
                _ if !fcf => Fin::Finite,
                Fin::Finite => Fin::Cofinite,
                Fin::Cofinite => Fin::Finite,
                Fin::Unknown => Fin::Unknown,
            },
        },
        Term::Up(_) => finite(a.rank.map(|k| k + 1)),
        // ↓ clamps at rank 0 (the empty-rank-0 convention).
        Term::Down(_) => Shape {
            rank: a.rank.map(|k| k.saturating_sub(1)),
            fin: match (a.fin, a.rank) {
                (Fin::Finite, _) => Fin::Finite,
                (_, Known(k)) if k <= 1 => Fin::Finite,
                (Fin::Cofinite, Known(_)) => Fin::Cofinite,
                _ => Fin::Unknown,
            },
        },
    }
}

/// [`step`] folded over `t`, with `var` giving each variable's shape.
fn fold(t: &Term, schema: &Schema, dialect: Dialect, var: &impl Fn(VarId) -> Shape) -> Shape {
    let kid = |e: &Term| fold(e, schema, dialect, var);
    match t {
        Term::Var(v) => var(*v),
        Term::And(a, b) => step(t, schema, dialect, &[kid(a), kid(b)]),
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => {
            step(t, schema, dialect, &[kid(e)])
        }
        Term::E | Term::Rel(_) | Term::Const(_) => step(t, schema, dialect, &[]),
    }
}

/// The exact rank of `t` ([`step`]'s rank part). `vars[v]` is the
/// abstract rank of `Yᵥ` at this program point (indices past the slice
/// mean never-assigned, i.e. `Known(0)`).
pub fn term_rank(t: &Term, schema: &Schema, vars: &[AbsRank]) -> AbsRank {
    let var = |v: VarId| Shape::from(vars.get(v).copied().unwrap_or(AbsRank::Known(0)));
    fold(t, schema, Dialect::Ql, &var).rank
}

/// The VM lowerer's abstract statement walk over variable shapes.
#[derive(Debug)]
pub struct ShapeWalk<'a> {
    /// Where `Relᵢ` ranks come from.
    pub schema: &'a Schema,
    /// The dialect finiteness follows.
    pub dialect: Dialect,
    /// Pays for the loop-head rounds.
    pub budget: Budget,
}

impl ShapeWalk<'_> {
    /// The shape of `t` with `vars[v]` the shape of `Yᵥ`
    /// (never-assigned past the slice).
    pub fn term(&self, t: &Term, vars: &[Shape]) -> Shape {
        fold(t, self.schema, self.dialect, &|v| {
            vars.get(v).copied().unwrap_or(Shape::UNSET)
        })
    }

    /// Runs `p` on the variable shapes `vars`. A loop leaves in its
    /// [`ShapeWalk::loop_head`] state, which covers any number of
    /// iterations, so it over-approximates both an unrolled and a
    /// backedge loop.
    pub fn exec(&self, p: &Prog, vars: &mut Vec<Shape>) {
        match p {
            Prog::Assign(v, t) => {
                let s = self.term(t, vars);
                if let Some(x) = vars.get_mut(*v) {
                    *x = s;
                }
            }
            Prog::Seq(ps) => ps.iter().for_each(|q| self.exec(q, vars)),
            Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b) => {
                *vars = self.loop_head(b, std::mem::take(vars));
            }
        }
    }

    /// The shapes at the head of a loop over `body` entered with
    /// `entry`: stable under the body, so a body typed against them is
    /// typed for every iteration.
    pub fn loop_head(&self, body: &Prog, entry: Vec<Shape>) -> Vec<Shape> {
        fix::var_head(&self.budget, body, entry, Shape::TOP, |head| {
            let mut out = head.clone();
            self.exec(body, &mut out);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_qlhs::Term;

    #[test]
    fn rank_join_table() {
        use AbsRank::*;
        assert_eq!(Bot.join(Known(2)), Known(2));
        assert_eq!(Known(2).join(Known(2)), Known(2));
        assert_eq!(Known(1).join(Known(2)), Top);
        assert_eq!(Top.join(Bot), Top);
    }

    #[test]
    fn empty_join_table() {
        use AbsEmpty::*;
        assert_eq!(Bot.join(Empty), Empty);
        assert_eq!(Empty.join(Empty), Empty);
        assert_eq!(Empty.join(NonEmpty), Top);
        assert_eq!(NonEmpty.join(Top), Top);
    }

    #[test]
    fn assigned_join_table() {
        use Assigned::*;
        assert_eq!(No.join(Yes), Maybe);
        assert_eq!(Yes.join(Yes), Yes);
        assert_eq!(Maybe.join(No), Maybe);
    }

    #[test]
    fn transfer_matches_runtime_rank_rules() {
        let schema = Schema::new(vec![2, 3]);
        let vars = [AbsRank::Known(1), AbsRank::Top];
        let cases: [(Term, AbsRank); 8] = [
            (Term::E, AbsRank::Known(2)),
            (Term::Rel(1), AbsRank::Known(3)),
            (Term::Rel(9), AbsRank::Top),
            (Term::Var(0).up(), AbsRank::Known(2)),
            (Term::Var(1).down(), AbsRank::Top),
            // Unassigned variable: empty rank-0 at runtime.
            (Term::Var(7), AbsRank::Known(0)),
            // ↓ clamps at rank 0.
            (Term::Var(7).down(), AbsRank::Known(0)),
            (Term::E.and(Term::Rel(0).swap()), AbsRank::Known(2)),
        ];
        for (t, want) in cases {
            assert_eq!(term_rank(&t, &schema, &vars), want, "{t}");
        }
        // Definite mismatch degrades to Top (diagnosis elsewhere).
        let t = Term::E.and(Term::E.up());
        assert_eq!(term_rank(&t, &schema, &vars), AbsRank::Top);
    }

    #[test]
    fn finiteness_follows_the_qlf_representation() {
        let schema = Schema::new(vec![2]);
        let cofinite = Shape {
            rank: AbsRank::Known(2),
            fin: Fin::Cofinite,
        };
        let fin = |t: Term, dialect| {
            let walk = ShapeWalk {
                schema: &schema,
                dialect,
                budget: Budget::default(),
            };
            walk.term(&t, &[cofinite]).fin
        };
        let q = Dialect::QlfPlus;
        let y = || Term::Var(0);
        assert_eq!(fin(y().not(), q), Fin::Finite);
        assert_eq!(fin(y().and(Term::E), q), Fin::Finite);
        assert_eq!(fin(y().and(y()), q), Fin::Cofinite);
        // A schema relation may be stored either way.
        assert_eq!(fin(y().and(Term::Rel(0)), q), Fin::Unknown);
        // ↓ keeps a rank-2 complement, but a rank ≤ 1 one is {()} or ∅.
        assert_eq!(fin(y().down(), q), Fin::Cofinite);
        assert_eq!(fin(y().down().down(), q), Fin::Finite);
        // Outside QLf⁺ every value stores its own tuples.
        assert_eq!(fin(Term::E.not(), Dialect::Ql), Fin::Finite);
    }
}
