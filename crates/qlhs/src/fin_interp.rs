//! The finitary QL interpreter — the Chandra–Harel baseline.
//!
//! QL is complete for computable queries over **finite** databases
//! [CH]. Values are plain finite relations over the structure's
//! universe `D`; `E = {(a,a) | a ∈ D}`, `¬e = Dⁿ ∖ e`, `e↑ = e × D`,
//! `e↓` projects out the first coordinate, `e~` swaps the two
//! rightmost coordinates. The only test is `while |Y| = 0` —
//! `|Y| = 1` is *definable* in finitary QL via `perm(D)` (footnote 8),
//! so admitting it as primitive here would blur the E13 ablation;
//! this interpreter rejects it.

use crate::ast::Prog;
use crate::dialect::Dialect;
use crate::exec::{run_with, Backend, FuelOnly};
use crate::value::{Rows, RunError, Val};
use recdb_core::{Elem, FiniteStructure, Fuel};

/// A finitary QL interpreter over one finite structure.
pub struct FinInterp<'a> {
    st: &'a FiniteStructure,
    /// The stored relations, flattened once so `Rᵢ` is one copy.
    rels: Vec<Rows>,
    seminaive: bool,
}

impl<'a> FinInterp<'a> {
    /// Binds the interpreter to a finite structure.
    pub fn new(st: &'a FiniteStructure) -> Self {
        FinInterp {
            st,
            rels: (0..st.schema().len())
                .map(|i| st.relation(i).iter().cloned().collect())
                .collect(),
            seminaive: true,
        }
    }

    /// Toggles the semi-naive loop engine (on by default). Turning it
    /// off forces every `while` through the from-scratch path — the
    /// differential oracle the `SEMI-NAIVE-DIFF` conformance check
    /// compares against.
    pub fn set_seminaive(&mut self, on: bool) {
        self.seminaive = on;
    }

    /// The sorted, duplicate-free universe `D`.
    fn universe(&self) -> &[Elem] {
        self.st.universe()
    }

    /// `x↑`'s fuel: one step per output tuple, `|x|·|D|`.
    fn up_cost(&self, x: &Val) -> u64 {
        (x.len() as u64).saturating_mul(self.universe().len() as u64)
    }

    /// `↑x ∩ y`, ranks checked: the rows of `y` that extend a row of
    /// `x` by an element of `D`.
    fn semijoin(&self, x: &Val, y: &Val) -> Val {
        recdb_obs::count("qlhs.fused.semijoin", 1);
        Val {
            rank: y.rank,
            tuples: y.tuples.semijoin(&x.tuples, self.universe()),
        }
    }

    /// Runs a program; result is `Y₁`.
    ///
    /// The QL dialect check runs first: a `while |Y|=1` or
    /// `while |Y|<∞` anywhere in the program — reachable or not — is
    /// rejected up-front.
    pub fn run(&mut self, p: &Prog, fuel: &mut Fuel) -> Result<Val, RunError> {
        let seminaive = self.seminaive;
        run_with(self, Dialect::Ql, p, fuel, &mut FuelOnly { seminaive })
    }

    /// Runs a program in a caller-supplied environment.
    pub fn exec(&mut self, p: &Prog, env: &mut Vec<Val>, fuel: &mut Fuel) -> Result<(), RunError> {
        let seminaive = self.seminaive;
        crate::exec::exec(self, p, env, fuel, seminaive)
    }
}

/// `Σᵢ₌₁ⁿ dⁱ` — the tuples a level-by-level enumeration of `Dⁿ` visits
/// (`d = |D|`), saturating at `u64::MAX`.
fn complement_cost(d: u64, n: usize) -> u64 {
    let mut level: u64 = 1;
    let mut total: u64 = 0;
    for _ in 0..n {
        level = level.saturating_mul(d);
        total = total.saturating_add(level);
    }
    total
}

/// The `∩` rank check, `left` and `right` as the operands are written.
fn rank_check(left: usize, right: usize) -> Result<(), RunError> {
    if left == right {
        Ok(())
    } else {
        Err(RunError::RankMismatch { left, right })
    }
}

impl Backend for FinInterp<'_> {
    type V = Val;
    fn unset(&self) -> Val {
        Val::empty(0)
    }

    /// The diagonal `E = {(a,a) | a ∈ D}`.
    fn e(&mut self) -> Val {
        let data = self.universe().iter().flat_map(|&a| [a, a]).collect();
        Val {
            rank: 2,
            tuples: Rows::from_unsorted(2, self.universe().len(), data),
        }
    }

    /// Stored relation `Rᵢ` (0-based), bounds-checked against the
    /// schema.
    fn rel(&mut self, i: usize) -> Result<Val, RunError> {
        let Some(rows) = self.rels.get(i) else {
            return Err(RunError::NoSuchRelation(i));
        };
        Ok(Val {
            rank: self.st.schema().arity(i),
            tuples: rows.clone(),
        })
    }

    /// `Cₐ = {(a)}` whether or not `a` lies in this structure's
    /// universe — constants name elements of the ambient domain, and
    /// structures are finite windows onto it. (`¬Cₐ` still complements
    /// within the universe.)
    fn constant(&mut self, c: u64) -> Val {
        Val {
            rank: 1,
            tuples: Rows::from_unsorted(1, 1, vec![Elem(c)]),
        }
    }

    /// Intersection `x ∩ y`; ranks must agree.
    fn and(&mut self, x: &Val, y: &Val) -> Result<Val, RunError> {
        rank_check(x.rank, y.rank)?;
        Ok(Val {
            rank: x.rank,
            tuples: x.tuples.intersection(&y.tuples),
        })
    }

    /// Complement `¬x = Dⁿ ∖ x`. Charges `Σᵢ₌₁ⁿ |D|ⁱ` up front — one
    /// step per tuple of the level-by-level enumeration of `Dⁿ` — and
    /// only then materializes the result.
    fn not(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        fuel.consume(complement_cost(self.universe().len() as u64, x.rank))?;
        Ok(Val {
            rank: x.rank,
            tuples: x.tuples.complement(x.rank, self.universe()),
        })
    }

    /// Cylindrification `x↑ = x × D`. Charges one step per output
    /// tuple, `|x|·|D|`, before building it.
    fn up(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        fuel.consume(self.up_cost(x))?;
        Ok(Val {
            rank: x.rank + 1,
            tuples: x.tuples.times(self.universe()),
        })
    }

    /// Projection `x↓` drops the first coordinate (tick-free).
    fn down(&mut self, x: &Val, _fuel: &mut Fuel) -> Result<Val, RunError> {
        if x.rank == 0 {
            return Ok(Val::empty(0));
        }
        Ok(Val {
            rank: x.rank - 1,
            tuples: x.tuples.drop_first(),
        })
    }

    /// `x~` swaps the two rightmost coordinates (identity below rank
    /// 2; tick-free).
    fn swap(&mut self, x: &Val, _fuel: &mut Fuel) -> Result<Val, RunError> {
        Ok(Val {
            rank: x.rank,
            tuples: x.tuples.swap_last_two(),
        })
    }

    /// `↑x ∩ y` as `Rows::semijoin`: `x↑`'s fuel is charged before
    /// `rhs` runs, and `x↑` is never built.
    fn semijoin_left<F>(&mut self, x: &Val, fuel: &mut Fuel, rhs: F) -> Result<Val, RunError>
    where
        F: FnOnce(&mut Self, &mut Fuel) -> Result<Val, RunError>,
    {
        fuel.consume(self.up_cost(x))?;
        let y = rhs(self, fuel)?;
        rank_check(x.rank + 1, y.rank)?;
        Ok(self.semijoin(x, &y))
    }

    /// `x ∩ ↑y` as `Rows::semijoin`, charged as `y↑`.
    fn semijoin_right(&mut self, x: &Val, y: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        fuel.consume(self.up_cost(y))?;
        rank_check(x.rank, y.rank + 1)?;
        Ok(self.semijoin(y, x))
    }

    /// `x ∩ ¬y` as one difference merge restricted to `Dⁿ` (a `Cₐ`
    /// row may lie outside it), charged as `¬y`.
    fn antijoin(&mut self, x: &Val, y: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        fuel.consume(complement_cost(self.universe().len() as u64, y.rank))?;
        rank_check(x.rank, y.rank)?;
        recdb_obs::count("qlhs.fused.antijoin", 1);
        Ok(Val {
            rank: x.rank,
            tuples: x.tuples.difference_within(&y.tuples, self.universe()),
        })
    }

    /// `↓¬y` as `Rows::divide`, charged as `¬y`.
    fn division(&mut self, y: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        fuel.consume(complement_cost(self.universe().len() as u64, y.rank))?;
        if y.rank == 0 {
            return Ok(Val::empty(0));
        }
        recdb_obs::count("qlhs.fused.division", 1);
        Ok(Val {
            rank: y.rank - 1,
            tuples: y.tuples.divide(y.rank, self.universe()),
        })
    }

    fn empty(x: &Val) -> bool {
        x.is_empty()
    }
    fn single(x: &Val) -> bool {
        x.is_singleton()
    }
    fn finite(_: &Val) -> bool {
        true
    }
    fn size(x: &Val) -> u64 {
        x.len() as u64
    }
}

crate::exec::guard_eval!(FinInterp, Val, Dialect::Ql);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Prog, Term};
    use recdb_core::tuple;

    fn path3() -> FiniteStructure {
        FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2)])
    }

    fn run_on(st: &FiniteStructure, p: &Prog) -> Result<Val, RunError> {
        FinInterp::new(st).run(p, &mut Fuel::new(100_000))
    }

    #[test]
    fn e_is_full_diagonal() {
        let v = run_on(&path3(), &Prog::assign(0, Term::E)).unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.tuples.contains(&tuple![2, 2]));
    }

    #[test]
    fn up_is_cartesian_with_domain() {
        // R1↑: 4 edges × 3 universe elements = 12 triples.
        let v = run_on(&path3(), &Prog::assign(0, Term::Rel(0).up())).unwrap();
        assert_eq!(v.rank, 3);
        assert_eq!(v.len(), 12);
    }

    #[test]
    fn down_projects() {
        // R1↓: second endpoints of edges = {0,1,2} (1 is adjacent both
        // ways, endpoints appear via (1,0),(1,2)).
        let v = run_on(&path3(), &Prog::assign(0, Term::Rel(0).down())).unwrap();
        assert_eq!(v.rank, 1);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn complement_and_swap() {
        // Symmetric graph: R1~ = R1, so R1 ∖ R1~ = ∅.
        let v = run_on(
            &path3(),
            &Prog::assign(0, Term::Rel(0).minus(Term::Rel(0).swap())),
        )
        .unwrap();
        assert!(v.is_empty());
        // ¬R1 has 9 − 4 = 5 pairs.
        let v = run_on(&path3(), &Prog::assign(0, Term::Rel(0).not())).unwrap();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn common_neighbour_triples() {
        // A composition-flavoured query built from ↑ and ~ alone:
        // up(R1) = {(x,y,z) | E(x,y)}, and swapping its last two
        // coordinates gives {(x,y,z) | E(x,z)} — so the intersection
        // is {(x,y,z) | E(x,y) ∧ E(x,z)}: the common-neighbour triples
        // (the building block of QL's relational composition).
        let st = path3();
        let common = Term::Rel(0).up().and(Term::Rel(0).up().swap());
        let v = run_on(&st, &Prog::assign(0, common)).unwrap();
        // Σ_x deg(x)² on the path 0–1–2: 1 + 4 + 1 = 6.
        assert_eq!(v.len(), 6);
        assert!(v.tuples.contains(&tuple![1, 0, 2]));
        assert!(v.tuples.contains(&tuple![0, 1, 1]));
    }

    #[test]
    fn while_empty_runs() {
        let p = Prog::seq([Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E)))]);
        let v = run_on(&path3(), &p).unwrap();
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn singleton_test_rejected_in_ql() {
        let p = Prog::WhileSingleton(0, Box::new(Prog::Seq(vec![])));
        assert!(matches!(
            run_on(&path3(), &p),
            Err(RunError::DialectViolation(_))
        ));
    }

    #[test]
    fn genericity_of_ql_on_isomorphic_structures() {
        // The same program on isomorphic structures gives isomorphic
        // results (here: equal cardinalities and shapes).
        let a = path3();
        let b = FiniteStructure::undirected_graph([10, 20, 30], [(10, 20), (20, 30)]);
        let prog = Prog::assign(0, Term::Rel(0).up().and(Term::Rel(0).up().swap()));
        let va = run_on(&a, &prog).unwrap();
        let vb = run_on(&b, &prog).unwrap();
        assert_eq!(va.len(), vb.len());
        assert_eq!(va.rank, vb.rank);
    }
}
