//! One database slice for the differential ledger: a finite structure,
//! an hs-r-db or an fcf-r-db, with the dialect that runs on it, its
//! schema, and one way to run a program on it.
//!
//! Every check that runs seeded programs on the three kinds of database
//! (ANALYZE-*, SEMI-NAIVE-DIFF, GENERIC-PERM, NONGENERIC-WITNESS,
//! TERMINATE-BOUND, COST-SOUND, VM-*) builds its databases here. All
//! but the VM rows, which sweep fuel levels of their own, run programs
//! through [`Slice::run`] or [`Slice::run_counted`], so they run at the
//! same fuel: [`FIN_FUEL`] on `FinInterp`, [`INF_FUEL`] on `HsInterp`
//! and `FcfInterp`.

use crate::gen::{self, ProgShape};
use crate::ledger::CheckCtx;
use recdb_analyze::CostEnv;
use recdb_core::{Elem, FiniteStructure, Fuel, Schema, Tuple};
use recdb_hsdb::{unary_cells, CellSize, FcfDatabase, FnEquiv, FnTree, HsDatabase};
use recdb_logic::finite_as_db;
use recdb_qlhs::iter_count::{run_counted, CountedRun};
use recdb_qlhs::{Dialect, FcfInterp, FcfVal, FinInterp, HsInterp, Prog, RunError, Val};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run fuel on a finite structure.
pub const FIN_FUEL: u64 = 200_000;

/// Run fuel on an hs-r-db or an fcf-r-db.
pub const INF_FUEL: u64 = 60_000;

/// A database of one of the three kinds.
pub enum Slice {
    /// A finite structure, run by `FinInterp` under QL.
    Fin(FiniteStructure),
    /// An hs-r-db, run by `HsInterp` under QLhs, with what it was
    /// built from.
    Hs(HsDatabase, HsSource),
    /// An fcf-r-db, run by `FcfInterp` under QLf⁺.
    Fcf(FcfDatabase),
}

/// What an hs slice was built from.
pub enum HsSource {
    /// The infinite clique.
    Clique,
    /// The discrete wrapping ([`discrete_hs`]) of a finite structure.
    Discrete(FiniteStructure),
    /// [`unary_cells`] over these cells.
    Cells(Vec<CellSize>),
}

/// A successful run's result.
#[derive(PartialEq, Debug)]
pub enum Out {
    /// The value of `Y1` on a finite structure or an hs-r-db.
    Val(Val),
    /// The value of `Y1` on an fcf-r-db.
    Fcf(FcfVal),
}

/// Wraps a finite structure as a *discrete* hs-r-db: the
/// characteristic tree's nodes are exactly the tuples over the
/// universe and `≅_B` is equality, so every class is a singleton and
/// `HsInterp` must agree with `FinInterp` tuple-for-tuple.
pub fn discrete_hs(st: &FiniteStructure) -> HsDatabase {
    let universe: Vec<Elem> = st.universe().to_vec();
    let tree = FnTree::new(move |_| universe.clone());
    let equiv = FnEquiv::new(|u: &Tuple, v: &Tuple| u == v);
    HsDatabase::with_computed_reps(finite_as_db(st), Arc::new(tree), Arc::new(equiv))
}

/// A seeded random graph on 3 or 4 elements.
pub fn random_graph(ctx: &mut CheckCtx) -> FiniteStructure {
    let size = 3 + ctx.rng().gen_range(0, 2);
    gen::random_finite_graph(ctx.rng(), size)
}

/// The slice of `round` for the checks that cycle through the three
/// dialects: a random graph, the infinite clique, a random fcf-r-db.
pub fn cycle(ctx: &mut CheckCtx, round: usize) -> Slice {
    match round % 3 {
        0 => {
            ctx.family("random-graph");
            Slice::Fin(random_graph(ctx))
        }
        1 => {
            ctx.family("infinite-clique");
            Slice::clique()
        }
        _ => {
            ctx.family("random-fcf");
            Slice::Fcf(gen::random_fcf(ctx.rng(), &format!("fcf-{round}")))
        }
    }
}

/// A slice with a finite cost valuation ([`Slice::cost_env`]),
/// recorded under `families[kind]`: a random graph (`kind` 0), the
/// discrete hs wrapping of one (1), or a random fcf-r-db named
/// `fcf_name` (2).
pub fn metered(ctx: &mut CheckCtx, kind: usize, families: [&str; 3], fcf_name: &str) -> Slice {
    ctx.family(families[kind.min(2)]);
    match kind {
        0 => Slice::Fin(random_graph(ctx)),
        1 => Slice::discrete(random_graph(ctx)),
        _ => Slice::Fcf(gen::random_fcf(ctx.rng(), fcf_name)),
    }
}

impl Slice {
    /// The infinite clique.
    pub fn clique() -> Slice {
        Slice::Hs(recdb_hsdb::infinite_clique(), HsSource::Clique)
    }

    /// The discrete hs wrapping of `st`.
    pub fn discrete(st: FiniteStructure) -> Slice {
        Slice::Hs(discrete_hs(&st), HsSource::Discrete(st))
    }

    /// The unary-cell hs-r-db over `cells`.
    pub fn cells(cells: Vec<CellSize>) -> Slice {
        Slice::Hs(unary_cells(cells.clone()), HsSource::Cells(cells))
    }

    /// The dialect that runs on this kind of database.
    pub fn dialect(&self) -> Dialect {
        match self {
            Slice::Fin(_) => Dialect::Ql,
            Slice::Hs(..) => Dialect::Qlhs,
            Slice::Fcf(_) => Dialect::QlfPlus,
        }
    }

    /// The database's schema.
    pub fn schema(&self) -> Schema {
        match self {
            Slice::Fin(st) => st.schema().clone(),
            Slice::Hs(hs, _) => hs.schema().clone(),
            Slice::Fcf(db) => db.schema(),
        }
    }

    /// Random programs over this slice's schema in its dialect's tests,
    /// with constants from `0..consts`.
    pub fn shape(&self, consts: u64, union_bias: bool) -> ProgShape {
        let dialect = self.dialect();
        ProgShape {
            rels: self.schema().len(),
            vars: 3,
            allow_singleton: dialect.admits_singleton_test(),
            allow_finite: dialect.admits_finiteness_test(),
            consts,
            union_bias,
        }
    }

    /// The valuation of symbolic cost bounds at this slice — `n` ↦ the
    /// base-set size, `rᵢ` ↦ relation `i`'s stored size, as the
    /// server's admission instantiates them. `None` for an hs slice
    /// with no finite base set.
    pub fn cost_env(&self) -> Option<CostEnv> {
        match self {
            Slice::Fin(st) | Slice::Hs(_, HsSource::Discrete(st)) => Some(CostEnv::new(
                st.universe().len() as u64,
                (0..st.schema().len())
                    .map(|i| st.relation(i).len() as u64)
                    .collect(),
            )),
            Slice::Fcf(db) => Some(CostEnv::new(
                db.df().len() as u64,
                db.relations()
                    .iter()
                    .map(|r| r.finite_part().len() as u64)
                    .collect(),
            )),
            Slice::Hs(..) => None,
        }
    }

    fn fuel(&self) -> u64 {
        match self {
            Slice::Fin(_) => FIN_FUEL,
            Slice::Hs(..) | Slice::Fcf(_) => INF_FUEL,
        }
    }

    /// Runs `p` through the dialect's interpreter, semi-naive engine on.
    pub fn run(&self, p: &Prog) -> Result<Out, RunError> {
        self.run_seminaive(p, true)
    }

    /// Runs `p` with the semi-naive engine on or off.
    pub fn run_seminaive(&self, p: &Prog, seminaive: bool) -> Result<Out, RunError> {
        let mut fuel = Fuel::new(self.fuel());
        match self {
            Slice::Fin(st) => {
                let mut i = FinInterp::new(st);
                i.set_seminaive(seminaive);
                i.run(p, &mut fuel).map(Out::Val)
            }
            Slice::Hs(hs, _) => {
                let mut i = HsInterp::new(hs);
                i.set_seminaive(seminaive);
                i.run(p, &mut fuel).map(Out::Val)
            }
            Slice::Fcf(db) => {
                let mut i = FcfInterp::new(db);
                i.set_seminaive(seminaive);
                i.run(p, &mut fuel).map(Out::Fcf)
            }
        }
    }

    /// Replays `p` under the counting schedule: at most `cap` loop
    /// iterations in total and the proved per-entry `bounds`.
    pub fn run_counted(&self, p: &Prog, cap: u64, bounds: &BTreeMap<Vec<u32>, u64>) -> CountedRun {
        let (d, fuel) = (self.dialect(), self.fuel());
        match self {
            Slice::Fin(st) => run_counted(&mut FinInterp::new(st), d, p, fuel, cap, bounds),
            Slice::Hs(hs, _) => run_counted(&mut HsInterp::new(hs), d, p, fuel, cap, bounds),
            Slice::Fcf(db) => run_counted(&mut FcfInterp::new(db), d, p, fuel, cap, bounds),
        }
    }
}
