//! Abstract syntax of the QL language family (§3.3, §4; [CH]).
//!
//! One AST serves three dialects:
//!
//! * **QL** — Chandra–Harel's language over finite databases (the
//!   baseline): terms `E`, `Relᵢ`, `Yᵢ`, `∩`, `¬`, `↑`, `↓`, `~`;
//!   programs are assignments, sequencing, and `while |Y|=0`.
//! * **QLhs** — the paper's hs-r-complete variant: same terms
//!   (interpreted over representatives in `T_B`), plus the new test
//!   `while |Y|=1` (footnote 8: `perm(D)` is unavailable over infinite
//!   domains, so the singleton test must be primitive).
//! * **QLf+** — the finite∕co-finite variant (§4): adds
//!   `while |Y|<∞`, and reinterprets `E` and `↑` over `Df`.
//!
//! Dialect restrictions are enforced *statically*, before a program
//! runs: every interpreter's `run` entry point calls
//! [`crate::dialect::Dialect::check`] as a mandatory pre-pass, so an
//! illegal test anywhere in the program is rejected up-front with a
//! [`crate::value::RunError::DialectViolation`]. (The backends'
//! guards keep an interpretation-time check as defense in depth for
//! callers driving `exec` directly.) The `recdb-analyze` crate builds
//! its richer diagnostics — rank/arity inference, lints, spans — on
//! the same AST.

use std::fmt;

/// A path from the root of a [`Prog`] tree to one of its nodes, as a
/// sequence of child indices. The child convention:
///
/// * `Seq(ps)` — child `i` is `ps[i]`;
/// * the three `while` forms — child `0` is the loop body;
/// * `Assign` — a leaf (term-level positions are reported by quoting
///   the offending subterm, not by extending the path).
///
/// The parser's span table ([`crate::parser::SpanTable`]) and the
/// static analyzer's diagnostics both key on this type, which is how a
/// diagnostic on a builder-constructed AST finds its source span when
/// the program came from [`crate::parser::parse_program_with_spans`].
pub type NodePath = Vec<u32>;

/// A relational variable `Yᵢ` (0-based).
pub type VarId = usize;

/// A QL-family term.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// The distinguished term `E` — the diagonal `{(a,a)}` (over `D`
    /// for QL/QLhs-representatives, over `Df` for QLf+).
    E,
    /// `Relᵢ` — the `i`-th input relation (0-based).
    Rel(usize),
    /// `Yᵢ` — a relational variable.
    Var(VarId),
    /// `e ∩ f` — intersection (equal ranks required).
    And(Box<Term>, Box<Term>),
    /// `¬e` — complement within rank.
    Not(Box<Term>),
    /// `e↑` — rank-raising extension.
    Up(Box<Term>),
    /// `e↓` — project out the first coordinate. On rank 0 this yields
    /// the empty rank-0 relation — the convention that makes the
    /// counter zero-test ("test `e↓` for emptiness", §3.3) work.
    Down(Box<Term>),
    /// `e~` — exchange the two rightmost coordinates.
    Swap(Box<Term>),
    /// `Cₐ` — a domain constant: the rank-1 singleton `{(a)}` naming
    /// the element `a`. Constants are the [CH] §2.5 extension that
    /// turns plain genericity into *C-genericity*: a program using
    /// `Cₐ` is only expected to commute with permutations fixing `a`.
    /// Over `C_B` representations (QLhs) the constant denotes the
    /// whole `≅_B`-class of `a` — the representation cannot split a
    /// class — and over QLf+ it is the finite value `{(a)}` whether or
    /// not `a ∈ Df`.
    Const(u64),
}

impl Term {
    /// `e ∩ f`.
    pub fn and(self, other: Term) -> Term {
        Term::And(Box::new(self), Box::new(other))
    }
    /// `¬e`.
    #[allow(clippy::should_implement_trait)] // deliberate builder name mirroring ¬
    pub fn not(self) -> Term {
        Term::Not(Box::new(self))
    }
    /// `e↑`.
    pub fn up(self) -> Term {
        Term::Up(Box::new(self))
    }
    /// `e↓`.
    pub fn down(self) -> Term {
        Term::Down(Box::new(self))
    }
    /// `e↓` iterated `k` times.
    pub fn down_n(self, k: usize) -> Term {
        (0..k).fold(self, |t, _| t.down())
    }
    /// `e↑` iterated `k` times.
    pub fn up_n(self, k: usize) -> Term {
        (0..k).fold(self, |t, _| t.up())
    }
    /// `e~`.
    pub fn swap(self) -> Term {
        Term::Swap(Box::new(self))
    }
    /// `e ∖ f = e ∩ ¬f` (derived).
    pub fn minus(self, other: Term) -> Term {
        self.and(other.not())
    }
    /// `e ∪ f = ¬(¬e ∩ ¬f)` (derived).
    pub fn union(self, other: Term) -> Term {
        self.not().and(other.not()).not()
    }

    /// Collects every constant symbol mentioned in the term into `out`.
    pub fn constants_into(&self, out: &mut std::collections::BTreeSet<u64>) {
        match self {
            Term::E | Term::Rel(_) | Term::Var(_) => {}
            Term::Const(c) => {
                out.insert(*c);
            }
            Term::And(a, b) => {
                a.constants_into(out);
                b.constants_into(out);
            }
            Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => e.constants_into(out),
        }
    }
}

/// A QL-family program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Prog {
    /// `Yᵢ ← e`.
    Assign(VarId, Term),
    /// `(P; P′)` — sequencing (n-ary for convenience).
    Seq(Vec<Prog>),
    /// `while |Yᵢ| = 0 do P`.
    WhileEmpty(VarId, Box<Prog>),
    /// `while |Yᵢ| = 1 do P` — QLhs only (footnote 8).
    WhileSingleton(VarId, Box<Prog>),
    /// `while |Yᵢ| < ∞ do P` — QLf+ only (§4).
    WhileFinite(VarId, Box<Prog>),
}

impl Prog {
    /// Sequences a list of programs.
    pub fn seq(ps: impl Into<Vec<Prog>>) -> Prog {
        Prog::Seq(ps.into())
    }

    /// The assignment `Yᵢ ← e`.
    pub fn assign(v: VarId, e: Term) -> Prog {
        Prog::Assign(v, e)
    }

    /// Does the program use `while |Y|=1`? (Then it is QLhs-only —
    /// the E13 ablation keys on this.)
    pub fn uses_singleton_test(&self) -> bool {
        match self {
            Prog::Assign(..) => false,
            Prog::Seq(ps) => ps.iter().any(Prog::uses_singleton_test),
            Prog::WhileEmpty(_, p) | Prog::WhileFinite(_, p) => p.uses_singleton_test(),
            Prog::WhileSingleton(..) => true,
        }
    }

    /// Does the program use `while |Y|<∞`? (Then it is QLf+-only.)
    pub fn uses_finiteness_test(&self) -> bool {
        match self {
            Prog::Assign(..) => false,
            Prog::Seq(ps) => ps.iter().any(Prog::uses_finiteness_test),
            Prog::WhileEmpty(_, p) | Prog::WhileSingleton(_, p) => p.uses_finiteness_test(),
            Prog::WhileFinite(..) => true,
        }
    }

    /// The largest variable index mentioned (for environment sizing).
    pub fn max_var(&self) -> Option<VarId> {
        fn term_max(t: &Term) -> Option<VarId> {
            match t {
                Term::E | Term::Rel(_) | Term::Const(_) => None,
                Term::Var(v) => Some(*v),
                Term::And(a, b) => term_max(a).max(term_max(b)),
                Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => term_max(e),
            }
        }
        match self {
            Prog::Assign(v, e) => Some(*v).max(term_max(e)),
            Prog::Seq(ps) => ps.iter().filter_map(Prog::max_var).max(),
            Prog::WhileEmpty(v, p) | Prog::WhileSingleton(v, p) | Prog::WhileFinite(v, p) => {
                Some(*v).max(p.max_var())
            }
        }
    }

    /// Every constant symbol mentioned anywhere in the program — the
    /// syntactic upper bound on the set `C` the program's output may
    /// depend on (C-genericity, [CH] §2.5).
    pub fn constants(&self) -> std::collections::BTreeSet<u64> {
        fn go(p: &Prog, out: &mut std::collections::BTreeSet<u64>) {
            match p {
                Prog::Assign(_, e) => e.constants_into(out),
                Prog::Seq(ps) => ps.iter().for_each(|q| go(q, out)),
                Prog::WhileEmpty(_, p) | Prog::WhileSingleton(_, p) | Prog::WhileFinite(_, p) => {
                    go(p, out)
                }
            }
        }
        let mut out = std::collections::BTreeSet::new();
        go(self, &mut out);
        out
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::E => write!(f, "E"),
            Term::Rel(i) => write!(f, "R{}", i + 1),
            Term::Var(v) => write!(f, "Y{}", v + 1),
            Term::And(a, b) => write!(f, "({a} & {b})"),
            Term::Not(e) => write!(f, "!{e}"),
            Term::Up(e) => write!(f, "up({e})"),
            Term::Down(e) => write!(f, "down({e})"),
            Term::Swap(e) => write!(f, "swap({e})"),
            Term::Const(c) => write!(f, "C{c}"),
        }
    }
}

impl fmt::Display for Prog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Prog, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match p {
                Prog::Assign(v, e) => writeln!(f, "{pad}Y{} := {e};", v + 1),
                Prog::Seq(ps) => ps.iter().try_for_each(|q| go(q, f, indent)),
                Prog::WhileEmpty(v, body) => {
                    writeln!(f, "{pad}while empty(Y{}) {{", v + 1)?;
                    go(body, f, indent + 1)?;
                    writeln!(f, "{pad}}}")
                }
                Prog::WhileSingleton(v, body) => {
                    writeln!(f, "{pad}while single(Y{}) {{", v + 1)?;
                    go(body, f, indent + 1)?;
                    writeln!(f, "{pad}}}")
                }
                Prog::WhileFinite(v, body) => {
                    writeln!(f, "{pad}while finite(Y{}) {{", v + 1)?;
                    go(body, f, indent + 1)?;
                    writeln!(f, "{pad}}}")
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let t = Term::Rel(0).and(Term::Var(1)).not().up().down().swap();
        assert_eq!(t.to_string(), "swap(down(up(!(R1 & Y2))))");
    }

    #[test]
    fn derived_union_via_de_morgan() {
        let t = Term::Rel(0).union(Term::Rel(1));
        assert_eq!(t.to_string(), "!(!R1 & !R2)");
    }

    #[test]
    fn down_n_iterates() {
        assert_eq!(Term::E.down_n(2).to_string(), "down(down(E))");
        assert_eq!(Term::E.down_n(0), Term::E);
    }

    #[test]
    fn dialect_flags() {
        let ql = Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E)));
        assert!(!ql.uses_singleton_test());
        assert!(!ql.uses_finiteness_test());
        let qlhs = Prog::seq([
            Prog::assign(1, Term::Var(0)),
            Prog::WhileSingleton(1, Box::new(Prog::assign(1, Term::Var(1).up()))),
        ]);
        assert!(qlhs.uses_singleton_test());
        let qlf = Prog::WhileFinite(0, Box::new(Prog::assign(0, Term::Var(0).up())));
        assert!(qlf.uses_finiteness_test());
    }

    #[test]
    fn max_var_spans_terms_and_controls() {
        let p = Prog::seq([
            Prog::assign(2, Term::Var(5)),
            Prog::WhileEmpty(1, Box::new(Prog::assign(0, Term::E))),
        ]);
        assert_eq!(p.max_var(), Some(5));
        assert_eq!(Prog::Seq(vec![]).max_var(), None);
    }

    #[test]
    fn display_program_shape() {
        let p = Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::Rel(0).and(Term::E))));
        let s = p.to_string();
        assert!(s.contains("while empty(Y1)"), "{s}");
        assert!(s.contains("Y1 := (R1 & E);"), "{s}");
    }
}
