//! The QLf+ interpreter (§4).
//!
//! QLf+ is finitary QL re-targeted at finite∕co-finite r-dbs, plus the
//! test `while |Y| < ∞`. Values carry the §4 representation directly:
//! a finite set of tuples plus the indicator saying whether it is the
//! relation itself or the complement. The amended operations:
//!
//! * `E = {(a,a) | a ∈ Df}`;
//! * `e↑ = e × Df`, defined only for finite `e`;
//! * `¬e` flips the indicator;
//! * `e↓` on a co-finite value of rank `n ≥ 1` is all of `Dⁿ⁻¹`
//!   (Prop 4.2) — finite (`{()}`) for `n = 1`, co-finite otherwise;
//! * `while |Y| < ∞` is true iff the value is finite.

use crate::ast::Prog;
use crate::dialect::Dialect;
use crate::exec::{run_with, Backend, FuelOnly};
use crate::value::RunError;
use recdb_core::{Elem, Fuel, Tuple};
use recdb_hsdb::FcfDatabase;
use std::collections::BTreeSet;

/// A QLf+ value: a finite∕co-finite relation of some rank.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FcfVal {
    /// The rank.
    pub rank: usize,
    /// True: `tuples` *is* the relation. False: `tuples` is the
    /// complement (the relation is co-finite).
    pub finite: bool,
    /// The finite part (relation or complement).
    pub tuples: BTreeSet<Tuple>,
}

impl FcfVal {
    /// The empty relation of a rank.
    pub fn empty(rank: usize) -> Self {
        FcfVal {
            rank,
            finite: true,
            tuples: BTreeSet::new(),
        }
    }

    /// The full relation `Dⁿ`.
    pub fn full(rank: usize) -> Self {
        FcfVal {
            rank,
            finite: false,
            tuples: BTreeSet::new(),
        }
    }

    /// Is the relation (not the representation) empty?
    pub fn is_empty_relation(&self) -> bool {
        self.finite && self.tuples.is_empty()
    }

    /// Membership of a tuple.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.finite == self.tuples.contains(t)
    }
}

/// A QLf+ interpreter over one fcf-r-db.
pub struct FcfInterp<'a> {
    db: &'a FcfDatabase,
    df: Vec<Elem>,
    seminaive: bool,
}

impl<'a> FcfInterp<'a> {
    /// Binds the interpreter; computes `Df` once.
    pub fn new(db: &'a FcfDatabase) -> Self {
        FcfInterp {
            db,
            df: db.df().into_iter().collect(),
            seminaive: true,
        }
    }

    /// Toggles the semi-naive loop engine (on by default; see
    /// [`FinInterp::set_seminaive`](crate::FinInterp::set_seminaive)).
    /// Loops whose variables hold co-finite values always fall back —
    /// delta logs represent finite growing relations only.
    pub fn set_seminaive(&mut self, on: bool) {
        self.seminaive = on;
    }

    /// Runs a program; result is `Y₁`.
    ///
    /// The QLf+ dialect check runs first: a `while |Y|=1` anywhere in
    /// the program — reachable or not — is rejected up-front.
    pub fn run(&mut self, p: &Prog, fuel: &mut Fuel) -> Result<FcfVal, RunError> {
        let seminaive = self.seminaive;
        run_with(self, Dialect::QlfPlus, p, fuel, &mut FuelOnly { seminaive })
    }

    /// Runs a program in a caller-supplied environment.
    pub fn exec(
        &mut self,
        p: &Prog,
        env: &mut Vec<FcfVal>,
        fuel: &mut Fuel,
    ) -> Result<(), RunError> {
        let seminaive = self.seminaive;
        crate::exec::exec(self, p, env, fuel, seminaive)
    }
}

impl Backend for FcfInterp<'_> {
    type V = FcfVal;
    fn unset(&self) -> FcfVal {
        FcfVal::empty(0)
    }

    /// `E = {(a,a) | a ∈ Df}` — always finite.
    fn e(&mut self) -> FcfVal {
        FcfVal {
            rank: 2,
            finite: true,
            tuples: self.df.iter().map(|&a| Tuple::from(vec![a, a])).collect(),
        }
    }

    /// Stored relation `Rᵢ` in its §4 representation, bounds-checked.
    fn rel(&mut self, i: usize) -> Result<FcfVal, RunError> {
        let Some(rel) = self.db.relations().get(i) else {
            return Err(RunError::NoSuchRelation(i));
        };
        Ok(FcfVal {
            rank: rel.arity(),
            finite: matches!(rel, recdb_hsdb::FcfRel::Finite(_)),
            tuples: rel.finite_part().clone(),
        })
    }

    /// The finite rank-1 singleton `{(a)}`, whether or not `a ∈ Df`
    /// (constants name domain elements, and the domain is all of ℕ).
    fn constant(&mut self, c: u64) -> FcfVal {
        FcfVal {
            rank: 1,
            finite: true,
            tuples: [Tuple::from_values([c])].into_iter().collect(),
        }
    }

    /// Intersection by the four finite∕co-finite cases; ranks must
    /// agree.
    fn and(&mut self, x: &FcfVal, y: &FcfVal) -> Result<FcfVal, RunError> {
        if x.rank != y.rank {
            return Err(RunError::RankMismatch {
                left: x.rank,
                right: y.rank,
            });
        }
        Ok(match (x.finite, y.finite) {
            (true, true) => FcfVal {
                rank: x.rank,
                finite: true,
                tuples: x.tuples.intersection(&y.tuples).cloned().collect(),
            },
            // Finite ∩ co-finite: remove the complement's tuples from
            // the finite side (the paper's e ∖ (¬f) computation).
            (true, false) => FcfVal {
                rank: x.rank,
                finite: true,
                tuples: x.tuples.difference(&y.tuples).cloned().collect(),
            },
            (false, true) => FcfVal {
                rank: x.rank,
                finite: true,
                tuples: y.tuples.difference(&x.tuples).cloned().collect(),
            },
            // Co-finite ∩ co-finite: complement is the union.
            (false, false) => FcfVal {
                rank: x.rank,
                finite: false,
                tuples: x.tuples.union(&y.tuples).cloned().collect(),
            },
        })
    }

    /// `¬x` flips the indicator (tick-free).
    fn not(&mut self, x: &FcfVal, _fuel: &mut Fuel) -> Result<FcfVal, RunError> {
        let mut x = x.clone();
        x.finite = !x.finite;
        Ok(x)
    }

    /// `x↑ = x × Df`, defined only for finite `x`; ticks once per
    /// output tuple.
    fn up(&mut self, x: &FcfVal, fuel: &mut Fuel) -> Result<FcfVal, RunError> {
        if !x.finite {
            return Err(RunError::UpOnInfinite);
        }
        let mut out = BTreeSet::new();
        for u in &x.tuples {
            for &d in &self.df {
                fuel.tick()?;
                out.insert(u.extend(d));
            }
        }
        Ok(FcfVal {
            rank: x.rank + 1,
            finite: true,
            tuples: out,
        })
    }

    /// `x↓` with the Prop 4.2 co-finite cases (tick-free).
    fn down(&mut self, x: &FcfVal, _fuel: &mut Fuel) -> Result<FcfVal, RunError> {
        if x.rank == 0 {
            return Ok(FcfVal::empty(0));
        }
        if x.finite {
            Ok(FcfVal {
                rank: x.rank - 1,
                finite: true,
                tuples: x
                    .tuples
                    .iter()
                    .map(|u| {
                        u.drop_first()
                            .ok_or(RunError::Internal("↓ on a tuple shorter than its rank"))
                    })
                    .collect::<Result<_, _>>()?,
            })
        } else if x.rank == 1 {
            // Prop 4.2: co-finite R ⊆ D¹ projects to D⁰ = {()}.
            Ok(FcfVal {
                rank: 0,
                finite: true,
                tuples: [Tuple::empty()].into_iter().collect(),
            })
        } else {
            // Prop 4.2: R↓ = Dⁿ⁻¹, co-finite with empty complement.
            Ok(FcfVal::full(x.rank - 1))
        }
    }

    /// `x~` swaps the finite part, preserving the indicator (swapping
    /// commutes with complementation; tick-free).
    fn swap(&mut self, x: &FcfVal, _fuel: &mut Fuel) -> Result<FcfVal, RunError> {
        if x.rank < 2 {
            return Ok(x.clone());
        }
        Ok(FcfVal {
            rank: x.rank,
            finite: x.finite,
            tuples: x
                .tuples
                .iter()
                .map(|u| {
                    u.swap_last_two()
                        .ok_or(RunError::Internal("swap on a tuple shorter than its rank"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    fn empty(x: &FcfVal) -> bool {
        x.is_empty_relation()
    }
    fn single(_: &FcfVal) -> bool {
        false
    }
    fn finite(x: &FcfVal) -> bool {
        x.finite
    }
    fn size(x: &FcfVal) -> u64 {
        x.tuples.len() as u64
    }
}

crate::exec::guard_eval!(FcfInterp, FcfVal, Dialect::QlfPlus);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Prog, Term};
    use recdb_core::{tuple, CoFiniteRelation, FiniteRelation};
    use recdb_hsdb::{FcfDatabase, FcfRel};

    /// Finite unary {1,2}; co-finite binary ℕ²∖{(1,1)}.
    fn sample() -> FcfDatabase {
        FcfDatabase::new(
            "s",
            vec![
                FcfRel::Finite(FiniteRelation::unary([1, 2])),
                FcfRel::CoFinite(CoFiniteRelation::new(2, [tuple![1, 1]])),
            ],
        )
    }

    fn run_on(db: &FcfDatabase, p: &Prog) -> Result<FcfVal, RunError> {
        FcfInterp::new(db).run(p, &mut Fuel::new(100_000))
    }

    #[test]
    fn e_is_df_diagonal() {
        let v = run_on(&sample(), &Prog::assign(0, Term::E)).unwrap();
        assert!(v.finite);
        assert_eq!(v.tuples, [tuple![1, 1], tuple![2, 2]].into_iter().collect());
    }

    #[test]
    fn rel_loads_representation() {
        let v = run_on(&sample(), &Prog::assign(0, Term::Rel(1))).unwrap();
        assert!(!v.finite);
        assert_eq!(v.tuples, [tuple![1, 1]].into_iter().collect());
        assert!(v.contains(&tuple![5, 9]));
        assert!(!v.contains(&tuple![1, 1]));
    }

    #[test]
    fn complement_flips_indicator() {
        let v = run_on(&sample(), &Prog::assign(0, Term::Rel(1).not())).unwrap();
        assert!(v.finite);
        assert_eq!(v.tuples, [tuple![1, 1]].into_iter().collect());
    }

    #[test]
    fn intersection_cases() {
        let db = sample();
        // finite ∩ co-finite: E ∩ R2 = E ∖ {(1,1)} = {(2,2)}.
        let v = run_on(&db, &Prog::assign(0, Term::E.and(Term::Rel(1)))).unwrap();
        assert!(v.finite);
        assert_eq!(v.tuples, [tuple![2, 2]].into_iter().collect());
        // co-finite ∩ co-finite: R2 ∩ R2~: complement is union of
        // complements {(1,1)} ∪ {(1,1)} = {(1,1)}.
        let v = run_on(&db, &Prog::assign(0, Term::Rel(1).and(Term::Rel(1).swap()))).unwrap();
        assert!(!v.finite);
        assert_eq!(v.tuples, [tuple![1, 1]].into_iter().collect());
    }

    #[test]
    fn up_is_cartesian_with_df_and_rejects_infinite() {
        let db = sample();
        let v = run_on(&db, &Prog::assign(0, Term::Rel(0).up())).unwrap();
        assert_eq!(v.rank, 2);
        assert_eq!(v.len_for_test(), 4, "{{1,2}} × Df");
        assert!(matches!(
            run_on(&db, &Prog::assign(0, Term::Rel(1).up())),
            Err(RunError::UpOnInfinite)
        ));
    }

    #[test]
    fn down_on_cofinite_prop_4_2() {
        let db = sample();
        // R2↓ (rank 2, co-finite) = D¹ full.
        let v = run_on(&db, &Prog::assign(0, Term::Rel(1).down())).unwrap();
        assert!(!v.finite);
        assert!(v.tuples.is_empty());
        // Another ↓: rank-1 co-finite → {()}.
        let v = run_on(&db, &Prog::assign(0, Term::Rel(1).down().down())).unwrap();
        assert!(v.finite);
        assert_eq!(v.tuples, [Tuple::empty()].into_iter().collect());
    }

    #[test]
    fn while_finite_loops_until_cofinite() {
        let db = sample();
        // Y1 := R1 (finite); while |Y1|<∞ { Y1 := !Y1 } — one flip.
        let p = Prog::seq([
            Prog::assign(0, Term::Rel(0)),
            Prog::WhileFinite(0, Box::new(Prog::assign(0, Term::Var(0).not()))),
        ]);
        let v = run_on(&db, &p).unwrap();
        assert!(!v.finite);
    }

    #[test]
    fn outputs_stay_fcf() {
        // Prop 4.3's easy half, empirically: a battery of programs all
        // produce fcf values (the type system enforces it — reaching
        // here without error is the assertion).
        let db = sample();
        for p in [
            Prog::assign(0, Term::Rel(0).union(Term::E.down_n(2).up())),
            Prog::assign(0, Term::Rel(1).swap().not()),
            Prog::assign(0, Term::Rel(1).down().not().up()),
            Prog::assign(0, Term::Rel(0).up().swap().down()),
        ] {
            let v = run_on(&db, &p).unwrap();
            // Value is by construction finite-or-cofinite.
            let _ = v.finite;
        }
    }

    #[test]
    fn singleton_test_rejected() {
        let p = Prog::WhileSingleton(0, Box::new(Prog::Seq(vec![])));
        assert!(matches!(
            run_on(&sample(), &p),
            Err(RunError::DialectViolation(_))
        ));
    }

    impl FcfVal {
        fn len_for_test(&self) -> usize {
            self.tuples.len()
        }
    }
}
