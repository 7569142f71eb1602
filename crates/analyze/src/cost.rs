//! Cost & cardinality abstract interpretation.
//!
//! The fourth analysis pass: symbolic *upper bounds* on how many
//! tuples a program materializes. The abstract domain is the lattice
//! of polynomials in `n = |B|` (the base size: universe for finite
//! structures, representative universe for hereditary sets, `|Df|`
//! for finitely-characterizable-by-finite databases) and the declared
//! relation sizes `r₁, r₂, …` (stored tuples per schema relation),
//! completed with `⊤` ("no bound derivable"). Polynomials with
//! non-negative coefficients are ordered pointwise over non-negative
//! valuations; the join is the monomial-wise coefficient maximum,
//! which dominates both arguments at every such valuation.
//!
//! Bounds are on the *stored representation* of a value — exactly
//! what the counting executor
//! (`recdb-conformance`'s `iter_count`) observes and what `recdb-serve`
//! meters: finite tuple sets for QL/QLhs, the finite part *or* the
//! stored complement for QLf⁺ co-finite values. The transfer
//! functions are dialect-aware (see DESIGN.md §11 for the full
//! table); the QLf⁺ cases track a "surely finite" flag so that `∩`
//! with a co-finite operand and complement flips stay sound.
//!
//! Loops are *unrolled*: the iteration bound proved by
//! [`crate::analyze_termination`] (rules B0/B1/B2, always ≤ 2) tells
//! us how many abstract passes over the body cover every concrete
//! run, and the exit state is the join over "0..=bound iterations
//! executed". A loop with no proved bound — or any statement whose
//! cardinality has no bound (e.g. `~t` at unprovable rank) — is an
//! *obstruction*: the whole-program verdict collapses to ⊤ and a
//! `W0601` diagnostic names the offending statement.
//!
//! Soundness is checked, not assumed: the `COST-SOUND` conformance
//! ledger entry replays ≥500 seeded programs per backend through the
//! counting executor and asserts observed work and cardinalities
//! never exceed these bounds.

use crate::diag::{Code, Diagnostic};
use crate::rank::{step, AbsRank};
use crate::terminate::{LoopBound, TerminationAnalysis};
use recdb_core::Schema;
use recdb_qlhs::{Dialect, NodePath, Prog, Term};
use std::collections::BTreeMap;

/// Most iterations a single proved loop bound may demand before the
/// analysis gives up (the B-rules prove at most 2; anything larger
/// would signal a new prover rule this pass has not been audited
/// against). The VM lowerer unrolls exactly the loops this pass does.
pub const UNROLL_CAP: u64 = 8;

/// Most abstract statement executions per program — a backstop against
/// pathological nesting, far above anything the generators produce.
const VISIT_CAP: u64 = 4096;

/// Most monomials a polynomial may carry before degrading to ⊤.
const TERM_CAP: usize = 64;

/// Highest total degree a monomial may reach before degrading to ⊤.
const DEGREE_CAP: u32 = 16;

/// A monomial: the exponent of `n` and, per schema relation index,
/// the exponent of `rᵢ`. Zero exponents are never stored.
type Mono = (u32, BTreeMap<usize, u32>);

/// A polynomial in `n` and the relation sizes, with `u64` saturating
/// coefficients. The zero polynomial has no terms.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Poly {
    terms: BTreeMap<Mono, u64>,
}

fn spow(x: u64, e: u32) -> u64 {
    (0..e).fold(1u64, |acc, _| acc.saturating_mul(x))
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: u64) -> Poly {
        let mut p = Poly::default();
        if c > 0 {
            p.terms.insert((0, BTreeMap::new()), c);
        }
        p
    }

    /// The polynomial `n` (the base size).
    pub fn base() -> Poly {
        let mut p = Poly::default();
        p.terms.insert((1, BTreeMap::new()), 1);
        p
    }

    /// The polynomial `rᵢ` (stored size of schema relation `i`).
    pub fn rel(i: usize) -> Poly {
        let mut p = Poly::default();
        p.terms.insert((0, BTreeMap::from([(i, 1)])), 1);
        p
    }

    /// Is this the zero polynomial?
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient-saturating sum.
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            let e = out.terms.entry(m.clone()).or_insert(0);
            *e = e.saturating_add(*c);
        }
        out
    }

    /// Product (exponents and coefficients saturate).
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::default();
        for ((ba, rsa), ca) in &self.terms {
            for ((bb, rsb), cb) in &other.terms {
                let mut rels = rsa.clone();
                for (i, e) in rsb {
                    let slot = rels.entry(*i).or_insert(0);
                    *slot = slot.saturating_add(*e);
                }
                let mono = (ba.saturating_add(*bb), rels);
                let e = out.terms.entry(mono).or_insert(0);
                *e = e.saturating_add(ca.saturating_mul(*cb));
            }
        }
        out
    }

    /// Least upper bound: monomial-wise coefficient maximum. For any
    /// non-negative valuation of `n`/`rᵢ` the result dominates both
    /// arguments pointwise.
    pub fn join(&self, other: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            let e = out.terms.entry(m.clone()).or_insert(0);
            *e = (*e).max(*c);
        }
        out
    }

    /// Evaluates at a concrete instantiation, saturating at `u64::MAX`.
    /// Relation indices beyond `env.rels` count as size 0.
    pub fn eval(&self, env: &CostEnv) -> u64 {
        let mut total = 0u64;
        for ((b, rels), c) in &self.terms {
            let mut v = c.saturating_mul(spow(env.base, *b));
            for (i, e) in rels {
                v = v.saturating_mul(spow(env.rels.get(*i).copied().unwrap_or(0), *e));
            }
            total = total.saturating_add(v);
        }
        total
    }

    /// True when `self ≥ other` at every non-negative valuation,
    /// checked monomial-wise: each coefficient of `other` must be ≤
    /// the matching coefficient of `self`. Sound but not complete
    /// (`n² ≥ n` for `n ≥ 1` is not detected) — a `false` here means
    /// "could not prove", never "proved smaller". Used by the bytecode
    /// verifier to check its instruction-level cost sum against the
    /// admission claim.
    pub fn dominates(&self, other: &Poly) -> bool {
        other
            .terms
            .iter()
            .all(|(m, c)| self.terms.get(m).copied().unwrap_or(0) >= *c)
    }

    /// Largest total degree across monomials.
    pub fn degree(&self) -> u32 {
        self.terms
            .keys()
            .map(|(b, rels)| rels.values().fold(*b, |acc, e| acc.saturating_add(*e)))
            .max()
            .unwrap_or(0)
    }

    fn too_complex(&self) -> bool {
        self.terms.len() > TERM_CAP || self.degree() > DEGREE_CAP
    }
}

impl std::fmt::Display for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        // Highest monomial first: `n^2 + 3·n·r1 + 1`.
        for (i, ((b, rels), c)) in self.terms.iter().rev().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            let mut factors: Vec<String> = Vec::new();
            if *c != 1 || (*b == 0 && rels.is_empty()) {
                factors.push(c.to_string());
            }
            if *b == 1 {
                factors.push("n".into());
            } else if *b > 1 {
                factors.push(format!("n^{b}"));
            }
            for (ri, e) in rels {
                if *e == 1 {
                    factors.push(format!("r{}", ri + 1));
                } else {
                    factors.push(format!("r{}^{e}", ri + 1));
                }
            }
            f.write_str(&factors.join("·"))?;
        }
        Ok(())
    }
}

/// A cost bound: a polynomial, or ⊤ when none is derivable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Bound {
    /// The stored size is at most this polynomial, at every sound
    /// instantiation of `n`/`rᵢ`.
    Poly(Poly),
    /// No bound derivable.
    Top,
}

impl Bound {
    /// The zero bound.
    pub fn zero() -> Bound {
        Bound::Poly(Poly::zero())
    }

    fn capped(p: Poly) -> Bound {
        if p.too_complex() {
            Bound::Top
        } else {
            Bound::Poly(p)
        }
    }

    /// Wraps a polynomial, degrading to ⊤ past the same complexity
    /// caps the internal transfer functions apply — external mirrors
    /// of the cost pass (the bytecode verifier) must build bounds
    /// through this to stay bit-equal with [`analyze_cost`].
    pub fn of(p: Poly) -> Bound {
        Bound::capped(p)
    }

    /// Saturating sum; ⊤ is absorbing.
    pub fn add(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Poly(a), Bound::Poly(b)) => Bound::capped(a.add(b)),
            _ => Bound::Top,
        }
    }

    /// Product; ⊤ is absorbing.
    pub fn mul(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Poly(a), Bound::Poly(b)) => Bound::capped(a.mul(b)),
            _ => Bound::Top,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Poly(a), Bound::Poly(b)) => Bound::capped(a.join(b)),
            _ => Bound::Top,
        }
    }

    /// Evaluates at a concrete instantiation (`None` for ⊤).
    pub fn eval(&self, env: &CostEnv) -> Option<u64> {
        match self {
            Bound::Poly(p) => Some(p.eval(env)),
            Bound::Top => None,
        }
    }

    /// The polynomial, if bounded.
    pub fn poly(&self) -> Option<&Poly> {
        match self {
            Bound::Poly(p) => Some(p),
            Bound::Top => None,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Poly(p) => p.fmt(f),
            Bound::Top => f.write_str("⊤"),
        }
    }
}

/// A concrete instantiation of the bound variables: the base size `n`
/// and per-relation stored sizes. Sound when `n` dominates the
/// backend's base (|universe| for Fin, representative universe size
/// for the discrete Hs wrapping, |Df| for Fcf) and `rels[i]` the
/// stored size of relation `i`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CostEnv {
    /// The base size `n`.
    pub base: u64,
    /// Stored tuples per schema relation.
    pub rels: Vec<u64>,
}

impl CostEnv {
    /// An instantiation from explicit sizes.
    pub fn new(base: u64, rels: Vec<u64>) -> CostEnv {
        CostEnv { base, rels }
    }

    /// The fixed nominal instantiation (`n = 8`, every relation 8) the
    /// RA rewriter uses to compare candidate plans deterministically.
    pub fn nominal(schema: &Schema) -> CostEnv {
        CostEnv {
            base: 8,
            rels: vec![8; schema.len()],
        }
    }
}

/// Abstract value: proven rank, stored-size bound, and (for QLf⁺)
/// whether the value is surely finite (stored = the tuples
/// themselves, not a complement).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Abs {
    rank: AbsRank,
    bound: Bound,
    finite: bool,
}

impl Abs {
    /// An unassigned variable: the empty rank-0 value.
    fn unset() -> Abs {
        Abs {
            rank: AbsRank::Known(0),
            bound: Bound::zero(),
            finite: true,
        }
    }

    fn join(&self, other: &Abs) -> Abs {
        Abs {
            rank: self.rank.join(other.rank),
            bound: self.bound.join(&other.bound),
            finite: self.finite && other.finite,
        }
    }
}

/// The dialect-aware transfer function: an upper bound on the stored
/// size of `t` under `env`. See DESIGN.md §11 for the case table and
/// its per-backend soundness argument. Ranks come from the shared
/// per-node transfer [`step`].
fn term_cost(t: &Term, schema: &Schema, dialect: Dialect, env: &[Abs]) -> Abs {
    let fcf = dialect == Dialect::QlfPlus;
    let kid = |e: &Term| term_cost(e, schema, dialect, env);
    // The operands' values (`Abs::unset` where `t` has fewer).
    let (x, y) = match t {
        Term::Var(v) => return env.get(*v).cloned().unwrap_or_else(Abs::unset),
        Term::And(a, b) => (kid(a), kid(b)),
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => (kid(e), Abs::unset()),
        Term::E | Term::Rel(_) | Term::Const(_) => (Abs::unset(), Abs::unset()),
    };
    let rank = step(t, schema, dialect, &[x.rank.into(), y.rank.into()]).rank;
    let (bound, finite) = match t {
        // E: the diagonal — n tuples on every backend.
        Term::E => (Bound::Poly(Poly::base()), true),
        // A constant is the rank-1 singleton `{(a)}`.
        Term::Const(_) => (Bound::Poly(Poly::constant(1)), true),
        // A QLf⁺ schema relation may be declared co-finite; its
        // *stored* size is still rᵢ, but ∩ must not treat it as a
        // finite operand.
        Term::Rel(i) if *i < schema.len() => (Bound::Poly(Poly::rel(*i)), !fcf),
        Term::Rel(_) => (Bound::Top, false),
        // finite ∩ anything ⊆ the finite side's tuples; co-finite ∩
        // co-finite stores the union of the two complements.
        Term::And(..) if fcf => {
            let bound = if x.finite {
                x.bound
            } else if y.finite {
                y.bound
            } else {
                x.bound.add(&y.bound)
            };
            (bound, x.finite || y.finite)
        }
        // Set intersection: both operands' bounds are sound; keep the
        // nominally smaller one.
        Term::And(..) => (smaller(&x.bound, &y.bound, schema), x.finite || y.finite),
        // QLf⁺ complement flips the finiteness flag and keeps the
        // stored tuples verbatim.
        Term::Not(_) if fcf => (x.bound, false),
        // Complement within rank k: at most n^k stored tuples —
        // derivable only when the rank is proved.
        Term::Not(_) => match x.rank {
            AbsRank::Known(k) => {
                let mut p = Poly::constant(1);
                for _ in 0..k {
                    p = p.mul(&Poly::base());
                }
                (Bound::capped(p), true)
            }
            _ => (Bound::Top, true),
        },
        // QLf⁺ ↑ errors on infinite input; any produced value extends
        // finitely many tuples by Df.
        Term::Up(_) => (x.bound.mul(&Bound::Poly(Poly::base())), true),
        // A rank-0 value stores at most one tuple on every backend
        // (`{()}`, `{}`, or a co-finite representation whose complement
        // is a subset of `{()}`); otherwise projection cannot grow a
        // finite store, and the QLf⁺ ↓ of a co-finite value of rank ≥ 2
        // is the full co-finite value with an empty stored complement.
        Term::Down(_) if rank == AbsRank::Known(0) => (Bound::Poly(Poly::constant(1)), x.finite),
        Term::Down(_) | Term::Swap(_) | Term::Var(_) => (x.bound, x.finite),
    };
    Abs {
        rank,
        bound,
        finite,
    }
}

/// Of two individually-sound bounds, keep the one that is nominally
/// smaller (deterministic tie-break toward the left).
fn smaller(a: &Bound, b: &Bound, schema: &Schema) -> Bound {
    match (a, b) {
        (Bound::Top, x) | (x, Bound::Top) => x.clone(),
        (Bound::Poly(pa), Bound::Poly(pb)) => {
            let nominal = CostEnv::nominal(schema);
            if pb.eval(&nominal) < pa.eval(&nominal) {
                b.clone()
            } else {
                a.clone()
            }
        }
    }
}

/// Per-assignment cost facts, keyed by the statement's tree path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StmtCost {
    /// Tree path of the `Assign` (same convention as
    /// [`Diagnostic::path`]).
    pub path: NodePath,
    /// Abstract executions covered (the product of enclosing proved
    /// loop bounds, as unrolled).
    pub executions: u64,
    /// Bound on the stored size of any single value this statement
    /// assigns.
    pub cardinality: Bound,
    /// Bound on the total tuples this statement materializes across
    /// all its executions.
    pub work: Bound,
}

/// The whole-program verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CostVerdict {
    /// Every completed (or partial) run materializes at most `work`
    /// tuples in total, and the final `Y1` stores at most
    /// `cardinality` tuples.
    Bounded {
        /// Bound on the stored size of the program's result.
        cardinality: Poly,
        /// Bound on total tuples materialized by all assignments.
        work: Poly,
    },
    /// An obstruction (unbounded loop, unprovable rank under `~`, or
    /// a blown complexity cap) prevented any bound; see the `W0601`
    /// diagnostics.
    Unbounded,
}

impl std::fmt::Display for CostVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostVerdict::Bounded { cardinality, work } => {
                write!(f, "bounded (|Y1| ≤ {cardinality}, work ≤ {work})")
            }
            CostVerdict::Unbounded => f.write_str("unbounded (⊤)"),
        }
    }
}

/// The result of [`analyze_cost`].
#[derive(Clone, Debug)]
pub struct CostAnalysis {
    /// The whole-program verdict.
    pub verdict: CostVerdict,
    /// Per-assignment bounds, in path order. On an `Unbounded`
    /// verdict this covers the statements reached before the
    /// obstruction.
    pub stmts: Vec<StmtCost>,
    /// `W0601` findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl CostAnalysis {
    /// Did the analysis derive whole-program bounds?
    pub fn is_bounded(&self) -> bool {
        matches!(self.verdict, CostVerdict::Bounded { .. })
    }

    /// The whole-program work bound, if bounded.
    pub fn work(&self) -> Option<&Poly> {
        match &self.verdict {
            CostVerdict::Bounded { work, .. } => Some(work),
            CostVerdict::Unbounded => None,
        }
    }

    /// The result-cardinality bound, if bounded.
    pub fn cardinality(&self) -> Option<&Poly> {
        match &self.verdict {
            CostVerdict::Bounded { cardinality, .. } => Some(cardinality),
            CostVerdict::Unbounded => None,
        }
    }
}

#[derive(Default)]
struct StmtAcc {
    executions: u64,
    cardinality: Option<Bound>,
    work: Option<Bound>,
}

struct Obstruction;

struct Walker<'a> {
    schema: &'a Schema,
    dialect: Dialect,
    termination: &'a TerminationAnalysis,
    stmts: BTreeMap<NodePath, StmtAcc>,
    work: Bound,
    diagnostics: Vec<Diagnostic>,
    visits: u64,
}

impl Walker<'_> {
    fn obstruct(&mut self, path: &[u32], msg: String, note: &str) {
        let d = Diagnostic::new(Code::CostUnbounded, path.to_vec(), msg).with_note(note);
        d.record();
        self.diagnostics.push(d);
    }

    fn walk(
        &mut self,
        p: &Prog,
        path: &mut NodePath,
        env: &mut Vec<Abs>,
    ) -> Result<(), Obstruction> {
        match p {
            Prog::Assign(v, t) => {
                self.visits += 1;
                if self.visits > VISIT_CAP {
                    self.obstruct(
                        path,
                        format!("abstract unrolling exceeds {VISIT_CAP} statement executions"),
                        "deeply nested proved loops multiply out past the analysis budget",
                    );
                    return Err(Obstruction);
                }
                let a = term_cost(t, self.schema, self.dialect, env);
                if a.bound == Bound::Top {
                    self.obstruct(
                        path,
                        format!("no cardinality bound for the value assigned to Y{}", v + 1),
                        "complement at unprovable rank, an out-of-schema relation, or a \
                         blown complexity cap leaves the stored size unbounded",
                    );
                    return Err(Obstruction);
                }
                let acc = self.stmts.entry(path.clone()).or_default();
                acc.executions += 1;
                acc.cardinality = Some(match acc.cardinality.take() {
                    Some(c) => c.join(&a.bound),
                    None => a.bound.clone(),
                });
                acc.work = Some(match acc.work.take() {
                    Some(w) => w.add(&a.bound),
                    None => a.bound.clone(),
                });
                self.work = self.work.add(&a.bound);
                if env.len() <= *v {
                    env.resize(*v + 1, Abs::unset());
                }
                env[*v] = a;
                Ok(())
            }
            Prog::Seq(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    path.push(i as u32);
                    let r = self.walk(q, path, env);
                    path.pop();
                    r?;
                }
                Ok(())
            }
            Prog::WhileEmpty(_, body)
            | Prog::WhileSingleton(_, body)
            | Prog::WhileFinite(_, body) => {
                let bound = self
                    .termination
                    .bound_at(path)
                    .map(|l| l.bound)
                    .unwrap_or(LoopBound::Unknown);
                let b = match bound {
                    LoopBound::Bounded(b) if b <= UNROLL_CAP => b,
                    LoopBound::Bounded(b) => {
                        self.obstruct(
                            path,
                            format!(
                                "proved iteration bound {b} exceeds the unroll budget {UNROLL_CAP}"
                            ),
                            "the cost pass unrolls loops; bounds past the budget degrade to ⊤",
                        );
                        return Err(Obstruction);
                    }
                    LoopBound::Divergent => {
                        self.obstruct(
                            path,
                            "loop provably never exits once entered".into(),
                            "a divergent loop admits runs of unbounded work (see W0402)",
                        );
                        return Err(Obstruction);
                    }
                    LoopBound::Unknown => {
                        self.obstruct(
                            path,
                            "no iteration bound proved for this loop".into(),
                            "the termination prover reported no bound (see W0401); \
                             cost bounds need one",
                        );
                        return Err(Obstruction);
                    }
                };
                // Unroll: pass j over-approximates concrete iteration
                // j; the exit state joins "exited after 0..=b
                // iterations".
                let mut exit = env.clone();
                for _ in 0..b {
                    path.push(0);
                    let r = self.walk(body, path, env);
                    path.pop();
                    r?;
                    for (i, a) in env.iter().enumerate() {
                        if i < exit.len() {
                            exit[i] = exit[i].join(a);
                        } else {
                            exit.push(Abs::unset().join(a));
                        }
                    }
                }
                *env = exit;
                Ok(())
            }
        }
    }
}

/// Runs the cost pass. `termination` must come from
/// [`crate::analyze_termination`] on the same program — the proved
/// loop bounds drive the unrolling.
pub fn analyze_cost(
    p: &Prog,
    schema: &Schema,
    dialect: Dialect,
    termination: &TerminationAnalysis,
) -> CostAnalysis {
    recdb_obs::count("analyze.cost.programs", 1);
    let mut w = Walker {
        schema,
        dialect,
        termination,
        stmts: BTreeMap::new(),
        work: Bound::zero(),
        diagnostics: Vec::new(),
        visits: 0,
    };
    let mut env: Vec<Abs> = Vec::new();
    let walked = w.walk(p, &mut Vec::new(), &mut env);
    let verdict = match walked {
        Ok(()) => {
            let y1 = env.first().cloned().unwrap_or_else(Abs::unset);
            match (y1.bound.poly(), w.work.poly()) {
                (Some(card), Some(work)) => CostVerdict::Bounded {
                    cardinality: card.clone(),
                    work: work.clone(),
                },
                _ => CostVerdict::Unbounded,
            }
        }
        Err(Obstruction) => CostVerdict::Unbounded,
    };
    match &verdict {
        CostVerdict::Bounded { .. } => recdb_obs::count("analyze.cost.bounded", 1),
        CostVerdict::Unbounded => recdb_obs::count("analyze.cost.unbounded", 1),
    }
    let stmts: Vec<StmtCost> = w
        .stmts
        .into_iter()
        .map(|(path, acc)| StmtCost {
            path,
            executions: acc.executions,
            cardinality: acc.cardinality.unwrap_or_else(Bound::zero),
            work: acc.work.unwrap_or_else(Bound::zero),
        })
        .collect();
    recdb_obs::observe("analyze.cost.stmts", stmts.len() as u64);
    CostAnalysis {
        verdict,
        stmts,
        diagnostics: w.diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_prog, analyze_termination};
    use recdb_qlhs::{Dialect, Prog, Term};

    fn run(p: &Prog, schema: &Schema, dialect: Dialect) -> CostAnalysis {
        let safety = analyze_prog(p, schema, dialect);
        let termination = analyze_termination(p, schema, dialect, &safety);
        analyze_cost(p, schema, dialect, &termination)
    }

    #[test]
    fn dominates_is_coefficient_wise() {
        let n = Poly::base();
        let n2 = n.mul(&n);
        let sum = n2.add(&n);
        assert!(sum.dominates(&n));
        assert!(sum.dominates(&n2));
        assert!(sum.dominates(&Poly::zero()));
        assert!(!n.dominates(&n2), "cross-monomial dominance is not proved");
        assert!(!n2.dominates(&n), "sound: n² vs n stays unproved");
        assert!(n.add(&n).dominates(&n), "2n ≥ n");
        assert!(!Poly::rel(0).dominates(&Poly::rel(1)));
    }

    #[test]
    fn straight_line_join_bound() {
        // Y1 := E & R1 — stored size ≤ min-side, and the nominal pick
        // keeps r1 (both are degree 1; tie-break favors E's n… n=8,
        // r1=8 tie → left = n).
        let p = Prog::Assign(0, Term::E.and(Term::Rel(0)));
        let schema = Schema::new(vec![2]);
        let a = run(&p, &schema, Dialect::Ql);
        let CostVerdict::Bounded { cardinality, work } = &a.verdict else {
            panic!("expected bounded: {:?}", a.verdict);
        };
        assert_eq!(cardinality.to_string(), "n");
        assert_eq!(work.to_string(), "n");
        assert_eq!(a.stmts.len(), 1);
        assert_eq!(a.stmts[0].executions, 1);
    }

    #[test]
    fn up_multiplies_by_base() {
        // Y1 := up(up(R1)) — ≤ r1·n².
        let p = Prog::Assign(0, Term::Rel(0).up().up());
        let schema = Schema::new(vec![2]);
        let a = run(&p, &schema, Dialect::Ql);
        assert_eq!(a.cardinality().unwrap().to_string(), "n^2·r1");
    }

    #[test]
    fn not_needs_proved_rank() {
        // Y2 := ~E is fine (rank 2 proved → n²); complement under a
        // rank-⊤ operand obstructs with W0601.
        let schema = Schema::new(vec![2]);
        let fine = Prog::Assign(0, Term::E.not());
        let a = run(&fine, &schema, Dialect::Ql);
        assert_eq!(a.cardinality().unwrap().to_string(), "n^2");
        assert!(a.diagnostics.is_empty());

        let bad = Prog::Assign(0, Term::Rel(7).not());
        let a = run(&bad, &schema, Dialect::Ql);
        assert!(!a.is_bounded());
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].code, Code::CostUnbounded);
    }

    #[test]
    fn bounded_loop_unrolls() {
        // while empty(Y1) { Y1 := E; } — B1 proves bound 1, so the
        // body contributes one execution of work n.
        let p = Prog::Seq(vec![Prog::WhileEmpty(
            0,
            Box::new(Prog::Assign(0, Term::E)),
        )]);
        let schema = Schema::new(vec![]);
        let a = run(&p, &schema, Dialect::Ql);
        let CostVerdict::Bounded { cardinality, work } = &a.verdict else {
            panic!("expected bounded: {:?}", a.verdict);
        };
        // Exit state joins "0 iterations" (Y1 unset, 0) with "1
        // iteration" (Y1 = E, n).
        assert_eq!(cardinality.to_string(), "n");
        assert_eq!(work.to_string(), "n");
        let row = &a.stmts[0];
        assert_eq!(row.path, vec![0, 0]);
        assert_eq!(row.executions, 1);
    }

    #[test]
    fn unbounded_loop_obstructs() {
        // while empty(Y2) { Y1 := E; } — guard never flipped, W0401 →
        // the cost pass reports W0601 at the loop.
        let p = Prog::Seq(vec![Prog::WhileEmpty(
            1,
            Box::new(Prog::Assign(0, Term::E)),
        )]);
        let schema = Schema::new(vec![]);
        let a = run(&p, &schema, Dialect::Ql);
        assert!(!a.is_bounded());
        assert_eq!(a.diagnostics[0].code, Code::CostUnbounded);
        assert_eq!(a.diagnostics[0].path, vec![0]);
    }

    #[test]
    fn fcf_intersection_prefers_finite_side() {
        // QLf⁺: R1 finite, ~R1 co-finite; (~R1 ∩ R2) must not claim
        // the finite-side bound unless a side is surely finite.
        let schema = Schema::new(vec![1, 2]);
        let p = Prog::Assign(0, Term::Rel(0).and(Term::Rel(1).not()));
        let a = run(&p, &schema, Dialect::QlfPlus);
        // Rel(0) is not *surely* finite in QLf⁺ (declaration unknown),
        // so the bound is the sum r1 + r2.
        assert_eq!(a.cardinality().unwrap().to_string(), "r2 + r1");
    }

    #[test]
    fn eval_saturates() {
        let p = Poly::base().mul(&Poly::base()).mul(&Poly::constant(7));
        let env = CostEnv::new(u64::MAX / 2, vec![]);
        assert_eq!(p.eval(&env), u64::MAX);
    }
}
