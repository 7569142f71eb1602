//! The counting schedule: the dynamic side of the `TERMINATE-BOUND`
//! and `COST-SOUND` differentials. [`run_counted`] replays a program
//! through the one statement executor ([`crate::exec`]), stops the
//! moment a proved per-entry loop bound is exceeded or the iteration
//! cap is hit (the evidence a `Diverges` verdict needs), and records
//! per-loop iteration maxima and per-statement materialized sizes by
//! [`crate::NodePath`] — the dynamic mirror of the termination and
//! cost analyzers' bounds (DESIGN.md §11).

use crate::ast::Prog;
use crate::dialect::Dialect;
use crate::exec::{run_with, Budget, Budgeted, GuardEval, Schedule, Stop};
use crate::value::RunError;
use recdb_core::Fuel;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// How a counted run ended.
#[derive(Debug)]
pub enum CountedEnd {
    /// The program ran to completion.
    Completed,
    /// The interpreter returned an error (fuel included).
    Errored(RunError),
    /// A proved per-entry bound was exceeded: the loop at `path`
    /// passed `bound` iterations in a single entry.
    BoundExceeded {
        /// The loop's tree path.
        path: Vec<u32>,
        /// The bound it was proved to respect.
        bound: u64,
    },
    /// The global iteration cap was hit (divergence evidence).
    CapHit,
}

/// The result of a counted run.
#[derive(Debug)]
pub struct CountedRun {
    /// Per-loop maximum iteration count over any single entry.
    pub per_entry_max: BTreeMap<Vec<u32>, u64>,
    /// Total loop iterations across the whole run.
    pub total: u64,
    /// Per-assignment maximum materialized size (tuples for a finite
    /// value, stored representation size for an fcf value), keyed by
    /// the statement's tree path — the dynamic mirror of the cost
    /// analyzer's per-statement cardinality bounds (DESIGN.md §11).
    pub stmt_tuples: BTreeMap<Vec<u32>, u64>,
    /// Total materialized tuples across every assignment execution —
    /// the dynamic mirror of the whole-program work bound.
    pub work: u64,
    /// How the run ended.
    pub end: CountedEnd,
}

/// The counting schedule: the budget schedule (proved per-entry
/// bounds, an iteration cap, no work cap, never preempted) plus the
/// per-loop and per-statement maxima [`CountedRun`] reports.
pub struct Counting<'b> {
    budget: Budgeted<'b>,
    per_entry_max: BTreeMap<Vec<u32>, u64>,
    stmt_tuples: BTreeMap<Vec<u32>, u64>,
}

fn note_max(m: &mut BTreeMap<Vec<u32>, u64>, path: &[u32], n: u64) {
    let slot = m.entry(path.to_vec()).or_insert(0);
    *slot = (*slot).max(n);
}

impl Schedule for Counting<'_> {
    type Stop = Stop;
    fn assigned(&mut self, path: &[u32], size: u64) -> Result<(), Stop> {
        note_max(&mut self.stmt_tuples, path, size);
        self.budget.assigned(path, size)
    }
    fn iteration(&mut self, path: &[u32], here: u64) -> Result<(), Stop> {
        self.budget.iteration(path, here)
    }
    fn loop_exit(&mut self, path: &[u32], here: u64) {
        note_max(&mut self.per_entry_max, path, here);
    }
}

/// Runs `p` on `b` under the counting schedule: `fuel` steps, at most
/// `cap` loop iterations in total, and the proved per-entry `bounds`
/// (by loop path). The dialect check runs first.
pub fn run_counted<B: GuardEval>(
    b: &mut B,
    dialect: Dialect,
    p: &Prog,
    fuel: u64,
    cap: u64,
    bounds: &BTreeMap<Vec<u32>, u64>,
) -> CountedRun {
    let never = AtomicBool::new(false);
    let budget = Budget {
        bounds,
        total_cap: cap,
        fuel,
        work_cap: None,
    };
    let mut c = Counting {
        budget: Budgeted::new(&budget, &never),
        per_entry_max: BTreeMap::new(),
        stmt_tuples: BTreeMap::new(),
    };
    let end = match run_with(b, dialect, p, &mut Fuel::new(fuel), &mut c) {
        Ok(_) => CountedEnd::Completed,
        Err(Stop::Run(e)) => CountedEnd::Errored(e),
        Err(Stop::Bound { path, bound }) => CountedEnd::BoundExceeded { path, bound },
        // This schedule neither preempts nor caps work: `Total` is
        // its iteration cap.
        Err(Stop::Total | Stop::Preempted | Stop::Work) => CountedEnd::CapHit,
    };
    CountedRun {
        per_entry_max: c.per_entry_max,
        total: c.budget.total,
        stmt_tuples: c.stmt_tuples,
        work: c.budget.work,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::FinInterp;
    use recdb_core::FiniteStructure;

    fn graph() -> FiniteStructure {
        FiniteStructure::graph(0..3, [(0, 1), (1, 2)])
    }

    fn counted_run_fin(
        st: &FiniteStructure,
        p: &Prog,
        fuel: u64,
        cap: u64,
        bounds: &BTreeMap<Vec<u32>, u64>,
    ) -> CountedRun {
        run_counted(&mut FinInterp::new(st), Dialect::Ql, p, fuel, cap, bounds)
    }

    #[test]
    fn counts_match_the_guard_flip() {
        // The loop runs exactly once: the body flips the guard.
        let p = parse_program("while empty(Y2) { Y2 := E; } Y1 := Y2;").unwrap();
        let r = counted_run_fin(&graph(), &p, 10_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, CountedEnd::Completed), "{:?}", r.end);
        assert_eq!(r.per_entry_max.get(&vec![0]), Some(&1));
        assert_eq!(r.total, 1);
    }

    #[test]
    fn a_divergent_loop_hits_the_cap() {
        let p = parse_program("while empty(Y2) { Y3 := E; }").unwrap();
        let r = counted_run_fin(&graph(), &p, 1_000_000, 50, &BTreeMap::new());
        assert!(matches!(r.end, CountedEnd::CapHit), "{:?}", r.end);
    }

    #[test]
    fn an_exceeded_bound_is_reported_with_its_path() {
        let p = parse_program("while empty(Y2) { Y3 := E; }").unwrap();
        let bounds: BTreeMap<Vec<u32>, u64> = [(vec![0], 3u64)].into_iter().collect();
        let r = counted_run_fin(&graph(), &p, 1_000_000, 50, &bounds);
        match r.end {
            CountedEnd::BoundExceeded { path, bound } => {
                assert_eq!(path, vec![0]);
                assert_eq!(bound, 3);
            }
            other => panic!("expected BoundExceeded, got {other:?}"),
        }
    }

    #[test]
    fn nested_loops_count_per_entry_not_in_total() {
        // The outer loop runs 2 iterations (Y2 arrives via Y4 with a
        // one-iteration delay); the inner loop is entered twice, one
        // iteration each. `per_entry_max` for the inner loop is the
        // per-entry maximum 1, while its share of `total` is 2.
        let p = parse_program(
            "while empty(Y2) { while empty(Y3) { Y3 := E; } Y3 := Y2; Y2 := Y4; Y4 := E; }",
        )
        .unwrap();
        let r = counted_run_fin(&graph(), &p, 100_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, CountedEnd::Completed), "{:?}", r.end);
        assert_eq!(r.per_entry_max.get(&vec![0]), Some(&2), "{r:?}");
        assert_eq!(r.per_entry_max.get(&vec![0, 0, 0]), Some(&1), "{r:?}");
        assert_eq!(r.total, 4, "{r:?}");
    }

    #[test]
    fn grandparent_example_counts_materialized_tuples() {
        // The DESIGN.md §10 worked example
        // (`examples/programs/ra_grandparent.ra`), compiled to QLhs
        // and replayed on the 4-chain with per-statement counts: two
        // edge scans, the joined pairs, and the projected endpoints.
        // (The compiled program crosses over as text: `recdb-ra`
        // links its own build of this crate.)
        let schema = recdb_ra::RaSchema::parse("E(x, y)").unwrap();
        let p = recdb_ra::parse_ra("project #z (E join rename #x -> #y, #y -> #z (E))").unwrap();
        let compiled = recdb_ra::compile_program(&p, &schema).unwrap();
        let prog = parse_program(&compiled.prog.to_string()).unwrap();
        let st = FiniteStructure::graph(0..4, [(0, 1), (1, 2), (2, 3)]);
        let r = counted_run_fin(&st, &prog, 1_000_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, CountedEnd::Completed), "{:?}", r.end);
        // The query compiles to a single binding, so the statement
        // layer materializes exactly once: the two grandparent pairs
        // of the chain (0→2, 1→3), projected to their far endpoints.
        assert_eq!(
            r.stmt_tuples,
            [(vec![0], 2u64)].into_iter().collect::<BTreeMap<_, _>>()
        );
        assert_eq!(r.work, 2);
    }

    #[test]
    fn work_sums_every_assignment_execution() {
        // Three statements over the 3-element universe: the diagonal
        // `E` (3 tuples), `Y1 & E` (3), and the loop's one flip
        // re-materializing `E` (3).
        let p = parse_program("Y1 := E; Y2 := Y1 & E; while empty(Y3) { Y3 := E; }").unwrap();
        let r = counted_run_fin(&graph(), &p, 100_000, 100, &BTreeMap::new());
        assert!(matches!(r.end, CountedEnd::Completed), "{:?}", r.end);
        assert_eq!(r.stmt_tuples.get(&vec![0]), Some(&3));
        assert_eq!(r.stmt_tuples.get(&vec![1]), Some(&3));
        assert_eq!(r.stmt_tuples.get(&vec![2, 0, 0]), Some(&3));
        assert_eq!(r.work, 9);
    }

    #[test]
    fn dialect_violations_surface_as_errors() {
        let p = parse_program("while single(Y1) { Y1 := E; }").unwrap();
        let r = counted_run_fin(&graph(), &p, 10_000, 100, &BTreeMap::new());
        assert!(
            matches!(r.end, CountedEnd::Errored(RunError::DialectViolation(_))),
            "{:?}",
            r.end
        );
    }
}
