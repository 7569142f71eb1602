//! The QLhs interpreter (§3.3).
//!
//! Programs act on the representation `C_B`, never on the infinite
//! database itself: "at any point during the computation of a program
//! each term contains the labels along some paths in `Tⁿ`". Term
//! values are finite sets of tree representatives; the operations use
//! the highly recursive tree for `E`/`↑`/`¬` and the `≅_B` oracle for
//! `↓`/`~`, exactly as the Theorem 3.1 soundness argument describes.

use crate::ast::Prog;
use crate::dialect::Dialect;
use crate::exec::{run_with, Backend, FuelOnly};
use crate::value::{Rows, RunError, Val};
use recdb_core::{Elem, Fuel, Tuple, TupleId, TupleInterner};
use recdb_hsdb::HsDatabase;
use std::collections::HashMap;

/// A QLhs interpreter bound to one hs-r-db representation.
pub struct HsInterp<'a> {
    hs: &'a HsDatabase,
    /// Cache of `Tⁿ` levels (the tree is deterministic).
    levels: HashMap<usize, Rows>,
    /// The stored relations' representatives, flattened once.
    rels: Vec<Rows>,
    /// Dense ids for every tuple the interpreter has canonicalized —
    /// memo keys are `u32`s instead of cloned tuples.
    interner: TupleInterner,
    /// Cache of canonical representatives, keyed by interned id.
    canon: HashMap<TupleId, Tuple>,
    seminaive: bool,
}

impl<'a> HsInterp<'a> {
    /// Binds an interpreter to a database representation.
    pub fn new(hs: &'a HsDatabase) -> Self {
        HsInterp {
            hs,
            levels: HashMap::new(),
            rels: (0..hs.schema().len())
                .map(|i| hs.reps(i).iter().cloned().collect())
                .collect(),
            interner: TupleInterner::new(),
            canon: HashMap::new(),
            seminaive: true,
        }
    }

    /// Toggles the semi-naive loop engine (on by default; see
    /// [`FinInterp::set_seminaive`](crate::FinInterp::set_seminaive)).
    /// Either way the canonicalization cache (`canon`) persists across
    /// iterations and across loops, so `↓`/`~` memo state stays warm
    /// under delta evaluation instead of being recomputed.
    pub fn set_seminaive(&mut self, on: bool) {
        self.seminaive = on;
    }

    fn level(&mut self, n: usize) -> &Rows {
        self.levels
            .entry(n)
            .or_insert_with(|| self.hs.t_n(n).into_iter().collect())
    }

    fn canonical(&mut self, u: &Tuple) -> Tuple {
        let id = self.interner.intern(u);
        if let Some(c) = self.canon.get(&id) {
            recdb_obs::count("qlhs.canon_hits", 1);
            return c.clone();
        }
        recdb_obs::count("qlhs.canon_misses", 1);
        let c = self.hs.canonical_rep(u);
        self.canon.insert(id, c.clone());
        // A canonical rep is its own rep: pre-seed so the linear scan
        // in `canonical_rep` never reruns for tuples already in Tⁿ.
        let cid = self.interner.intern(&c);
        self.canon.entry(cid).or_insert_with(|| c.clone());
        c
    }

    /// Maps every row of `x` through `f` and canonicalizes the image,
    /// ticking once per row before its `canonical` call — the order the
    /// `canon_hits`/`canon_misses` counters and the fuel error depend
    /// on.
    fn canonical_map(
        &mut self,
        x: &Val,
        rank: usize,
        fuel: &mut Fuel,
        f: impl Fn(&Tuple) -> Result<Tuple, RunError>,
    ) -> Result<Val, RunError> {
        let mut data: Vec<Elem> = Vec::with_capacity(x.len() * rank);
        for u in &x.tuples {
            fuel.tick()?;
            let image = f(&u.to_tuple())?;
            data.extend_from_slice(self.canonical(&image).elems());
        }
        Ok(Val {
            rank,
            tuples: Rows::from_unsorted(rank, x.len(), data),
        })
    }

    /// Runs a program; the result is the final value of `Y₁`
    /// (variable 0), as in §3.3.
    ///
    /// The QLhs dialect check runs first: a `while |Y|<∞` anywhere in
    /// the program — reachable or not — is rejected up-front.
    pub fn run(&mut self, p: &Prog, fuel: &mut Fuel) -> Result<Val, RunError> {
        let seminaive = self.seminaive;
        run_with(self, Dialect::Qlhs, p, fuel, &mut FuelOnly { seminaive })
    }

    /// Runs a program in a caller-supplied environment (for staged
    /// computations that pre-load inputs into variables).
    pub fn exec(&mut self, p: &Prog, env: &mut Vec<Val>, fuel: &mut Fuel) -> Result<(), RunError> {
        let seminaive = self.seminaive;
        crate::exec::exec(self, p, env, fuel, seminaive)
    }
}

impl Backend for HsInterp<'_> {
    type V = Val;
    fn unset(&self) -> Val {
        Val::empty(0)
    }

    /// The diagonal classes of `T²`.
    fn e(&mut self) -> Val {
        let data: Vec<Elem> = self
            .level(2)
            .iter()
            .filter(|t| t[0] == t[1])
            .flat_map(|t| t.elems().iter().copied())
            .collect();
        Val {
            rank: 2,
            tuples: Rows::from_unsorted(2, data.len() / 2, data),
        }
    }

    /// Stored relation `Rᵢ`'s representatives, bounds-checked.
    fn rel(&mut self, i: usize) -> Result<Val, RunError> {
        let Some(rows) = self.rels.get(i) else {
            return Err(RunError::NoSuchRelation(i));
        };
        Ok(Val {
            rank: self.hs.schema().arity(i),
            tuples: rows.clone(),
        })
    }

    /// Over a `C_B` representation a constant cannot name a single
    /// element — values are unions of `≅_B`-classes — so `Cₐ` denotes
    /// the whole class of `a`: the canonical rep of `(a)` in `T¹`.
    fn constant(&mut self, c: u64) -> Val {
        let rep = self.canonical(&Tuple::from_values([c]));
        Val {
            rank: 1,
            tuples: [rep].into_iter().collect(),
        }
    }

    /// Intersection `x ∩ y`; ranks must agree.
    fn and(&mut self, x: &Val, y: &Val) -> Result<Val, RunError> {
        if x.rank != y.rank {
            return Err(RunError::RankMismatch {
                left: x.rank,
                right: y.rank,
            });
        }
        Ok(Val {
            rank: x.rank,
            tuples: x.tuples.intersection(&y.tuples),
        })
    }

    /// Complement within the `Tⁿ` level (tick-free: the level cache
    /// makes it a merge difference).
    fn not(&mut self, x: &Val, _fuel: &mut Fuel) -> Result<Val, RunError> {
        Ok(Val {
            rank: x.rank,
            tuples: self.level(x.rank).difference(&x.tuples),
        })
    }

    /// `x↑` collects tree offspring; ticks once per child.
    fn up(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        let mut data: Vec<Elem> = Vec::new();
        let mut len = 0;
        for u in &x.tuples {
            let u = u.to_tuple();
            for a in self.hs.tree().offspring(&u) {
                fuel.tick()?;
                data.extend_from_slice(u.elems());
                data.push(a);
                len += 1;
            }
        }
        Ok(Val {
            rank: x.rank + 1,
            tuples: Rows::from_unsorted(x.rank + 1, len, data),
        })
    }

    /// `x↓` via the `≅_B` oracle; ticks once per tuple, canonicalizing
    /// between ticks in row order.
    fn down(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        if x.rank == 0 {
            // Convention: ↓ below rank 0 is the empty rank-0 relation
            // (this is what makes "test e↓ for emptiness" a zero-test
            // for rank-counters).
            return Ok(Val::empty(0));
        }
        self.canonical_map(x, x.rank - 1, fuel, |u| {
            u.drop_first()
                .ok_or(RunError::Internal("↓ on a tuple shorter than its rank"))
        })
    }

    /// `x~` via the `≅_B` oracle; ticks once per tuple (identity below
    /// rank 2).
    fn swap(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        if x.rank < 2 {
            return Ok(x.clone()); // nothing to exchange
        }
        self.canonical_map(x, x.rank, fuel, |u| {
            u.swap_last_two()
                .ok_or(RunError::Internal("swap on a tuple shorter than its rank"))
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

crate::exec::guard_eval!(HsInterp, Val, Dialect::Qlhs);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Prog, Term};
    use recdb_core::tuple;
    use recdb_hsdb::{infinite_clique, paper_example_graph, rado_graph};

    fn run_on(hs: &HsDatabase, p: &Prog) -> Result<Val, RunError> {
        let mut interp = HsInterp::new(hs);
        let mut fuel = Fuel::new(100_000);
        interp.run(p, &mut fuel)
    }

    #[test]
    fn e_is_the_diagonal_class() {
        let hs = infinite_clique();
        let v = run_on(&hs, &Prog::assign(0, Term::E)).unwrap();
        assert_eq!(v.rank, 2);
        assert_eq!(
            v.tuples.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            vec![tuple![0, 0]]
        );
    }

    #[test]
    fn rel_loads_representatives() {
        let hs = infinite_clique();
        let v = run_on(&hs, &Prog::assign(0, Term::Rel(0))).unwrap();
        assert_eq!(v.rank, 2);
        assert_eq!(
            v.tuples.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            vec![tuple![0, 1]],
            "the clique's single edge class"
        );
    }

    #[test]
    fn complement_within_level() {
        // ¬R1 on the clique: T² ∖ {(0,1)} = {(0,0)} — the diagonal.
        let hs = infinite_clique();
        let v = run_on(&hs, &Prog::assign(0, Term::Rel(0).not())).unwrap();
        assert_eq!(
            v.tuples.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            vec![tuple![0, 0]]
        );
    }

    #[test]
    fn up_collects_children() {
        let hs = infinite_clique();
        // E↑: children of (0,0): (0,0,0) and (0,0,1) — 2 classes.
        let v = run_on(&hs, &Prog::assign(0, Term::E.up())).unwrap();
        assert_eq!(v.rank, 3);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn down_uses_equivalence() {
        let hs = infinite_clique();
        // R1↓ on the clique: drop first of (0,1) → (1) ≅ (0): T¹'s rep.
        let v = run_on(&hs, &Prog::assign(0, Term::Rel(0).down())).unwrap();
        assert_eq!(v.rank, 1);
        assert_eq!(
            v.tuples.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            vec![tuple![0]]
        );
    }

    #[test]
    fn down_on_rank_zero_is_empty() {
        let hs = infinite_clique();
        // E↓↓ = {()} (the rank-0 "true"); E↓↓↓ = ∅ rank 0.
        let v = run_on(&hs, &Prog::assign(0, Term::E.down_n(2))).unwrap();
        assert_eq!(v.rank, 0);
        assert!(v.is_singleton(), "E↓↓ is the nonempty rank-0 relation");
        let v = run_on(&hs, &Prog::assign(0, Term::E.down_n(3))).unwrap();
        assert_eq!(v.rank, 0);
        assert!(v.is_empty());
    }

    #[test]
    fn swap_on_asymmetric_classes() {
        // On the §3.1 example graph, the one-way edge class (2→3)
        // swaps to the reversed class (3←2 viewed as ordered pair
        // (sink, source)), which is a different representative.
        let hs = paper_example_graph();
        let edges = run_on(&hs, &Prog::assign(0, Term::Rel(0))).unwrap();
        assert_eq!(edges.len(), 2);
        let swapped = run_on(&hs, &Prog::assign(0, Term::Rel(0).swap())).unwrap();
        assert_eq!(swapped.rank, 2);
        // The symmetric class maps to itself; the one-way class maps
        // out of R1 — so R1 ∩ R1~ is exactly the symmetric class.
        let sym = run_on(&hs, &Prog::assign(0, Term::Rel(0).and(Term::Rel(0).swap()))).unwrap();
        assert_eq!(sym.len(), 1, "only the symmetric edge class survives");
    }

    #[test]
    fn swap_below_rank_two_is_identity() {
        let hs = infinite_clique();
        let v = run_on(&hs, &Prog::assign(0, Term::Rel(0).down().swap())).unwrap();
        assert_eq!(v.rank, 1);
        assert!(!v.is_empty());
    }

    #[test]
    fn rank_mismatch_detected() {
        let hs = infinite_clique();
        let e = run_on(&hs, &Prog::assign(0, Term::E.and(Term::E.down())));
        assert!(matches!(
            e,
            Err(RunError::RankMismatch { left: 2, right: 1 })
        ));
    }

    #[test]
    fn no_such_relation_detected() {
        let hs = infinite_clique();
        assert!(matches!(
            run_on(&hs, &Prog::assign(0, Term::Rel(5))),
            Err(RunError::NoSuchRelation(5))
        ));
    }

    #[test]
    fn while_empty_terminates_when_filled() {
        let hs = infinite_clique();
        // while |Y1|=0 { Y1 := E } — one iteration.
        let p = Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E)));
        let v = run_on(&hs, &p).unwrap();
        assert!(!v.is_empty());
    }

    #[test]
    fn while_singleton_escapes_via_up() {
        let hs = infinite_clique();
        // Y1 := E↓ (singleton); while |Y1|=1 { Y1 := Y1↑ } — up from
        // (0) gives {(0,0),(0,1)}: two reps, loop exits.
        let p = Prog::seq([
            Prog::assign(0, Term::E.down()),
            Prog::WhileSingleton(0, Box::new(Prog::assign(0, Term::Var(0).up()))),
        ]);
        let v = run_on(&hs, &p).unwrap();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn diverging_loop_exhausts_fuel() {
        let hs = infinite_clique();
        // Y2 stays empty forever.
        let p = Prog::WhileEmpty(1, Box::new(Prog::assign(0, Term::E)));
        assert!(matches!(run_on(&hs, &p), Err(RunError::Fuel(_))));
    }

    #[test]
    fn whilefinite_rejected_in_qlhs() {
        let hs = infinite_clique();
        let p = Prog::WhileFinite(0, Box::new(Prog::Seq(vec![])));
        assert!(matches!(
            run_on(&hs, &p),
            Err(RunError::DialectViolation(_))
        ));
    }

    #[test]
    fn rado_set_algebra() {
        let hs = rado_graph();
        // T² has 3 classes: diag, edge, non-edge. R1 ∪ E covers 2;
        // its complement is the non-edge class.
        let p = Prog::assign(0, Term::Rel(0).union(Term::E).not());
        let v = run_on(&hs, &p).unwrap();
        assert_eq!(v.len(), 1);
        let rep = v.tuples.iter().next().unwrap();
        assert_ne!(rep[0], rep[1]);
        assert!(!hs.database().query(0, rep.elems()));
    }

    #[test]
    fn uninitialized_variable_is_empty_rank0() {
        let hs = infinite_clique();
        let v = run_on(&hs, &Prog::assign(0, Term::Var(7))).unwrap();
        assert_eq!(v, Val::empty(0));
    }
}
