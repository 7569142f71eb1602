//! The statement layer of the QL family. QL, QLhs and QLf⁺ are one
//! Chandra–Harel statement language (assignment, sequencing, `while`)
//! over three value domains, differing only in their term operations
//! and admitted `while` tests (§3.3, §4), so it exists once here:
//!
//! * [`Backend`] — the op level: one method per term operator, the
//!   guard predicates, a stored size. The interpreters implement it;
//!   the bytecode VM (`recdb-vm`) calls the same methods.
//! * [`eval_term`] — the one tree walker over a `Backend`: one fuel
//!   tick per node at entry; ops charge their data-dependent fuel.
//! * [`GuardEval`] — the statement level: term evaluation, the `while`
//!   guards (with the dialect's error for a test it lacks), the unset
//!   value, and the size the cost pass bounds.
//! * `exec_stmt` — the one statement executor: one tick per
//!   statement and per loop iteration; guards are fuel-free. A
//!   [`Schedule`] sees each assignment, loop iteration and loop exit,
//!   and may stop the run at the first two.
//!
//! The schedules: [`FuelOnly`] (the interpreters' `run`/`exec`, the
//! only one that tries [`crate::seminaive::try_loop`]), [`Budgeted`]
//! (the server's [`Budget`]: proved loop bounds, iteration and work
//! caps, preemption at loop heads), and
//! [`crate::iter_count::Counting`] (the `TERMINATE-BOUND` and
//! `COST-SOUND` replays).

use crate::ast::{NodePath, Prog, Term};
use crate::dialect::Dialect;
use crate::seminaive::{try_loop, DeltaValue, LoopKind};
use crate::value::RunError;
use recdb_core::Fuel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One backend's value operations. The `op` methods carry the
/// backend's semantics and its internal (data-dependent) fuel; entry
/// ticks belong to the caller ([`eval_term`] or the VM's pre-summed
/// instruction ticks).
pub trait Backend {
    /// The value type the backend computes with.
    type V: Clone;
    /// The value an unassigned variable holds.
    fn unset(&self) -> Self::V;
    /// The diagonal `E` (infallible on every backend).
    fn e(&mut self) -> Self::V;
    /// Schema relation `i` (0-based).
    fn rel(&mut self, i: usize) -> Result<Self::V, RunError>;
    /// The singleton `{(c)}`.
    fn constant(&mut self, c: u64) -> Self::V;
    /// Intersection.
    fn and(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V, RunError>;
    /// Complement (charges its data-dependent fuel itself).
    fn not(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// Rank raise (charges its data-dependent fuel itself).
    fn up(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// Rank lower (charges its data-dependent fuel itself).
    fn down(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// Exchange of the two rightmost coordinates (charges its
    /// data-dependent fuel itself).
    fn swap(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// The `while |Y|=0` predicate.
    fn empty(x: &Self::V) -> bool;
    /// The `while |Y|=1` predicate (only compiled for QLhs).
    fn single(x: &Self::V) -> bool;
    /// The `while |Y|<∞` predicate (only compiled for QLf⁺).
    fn finite(x: &Self::V) -> bool;
    /// Stored size — the budget schedule's work unit.
    fn size(x: &Self::V) -> u64;
}

/// One backend's value operations, as the statement layer needs them.
pub trait GuardEval {
    /// The value type the backend computes with.
    type V: DeltaValue;
    /// Term evaluation — [`eval_term`] over the backend's ops.
    fn eval(&mut self, t: &Term, env: &[Self::V], fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// The value an unassigned variable holds.
    fn unset() -> Self::V;
    /// The `while empty(Y)` guard.
    fn empty_guard(v: Option<&Self::V>) -> bool;
    /// The `while single(Y)` guard (dialect violation where not admitted).
    fn single_guard(v: Option<&Self::V>) -> Result<bool, RunError>;
    /// The `while finite(Y)` guard (dialect violation where not admitted).
    fn finite_guard(v: Option<&Self::V>) -> Result<bool, RunError>;
    /// Stored size of a value — the tuples the backend materializes
    /// for it (finite part *or* stored complement for QLf⁺). This is
    /// the unit the cost pass bounds.
    fn size(v: &Self::V) -> u64;
}

/// Implements [`GuardEval`] for an interpreter `$interp` with values
/// `$val`: terms go through [`eval_term`], guards and size through the
/// interpreter's [`Backend`] predicates, and a `while` test
/// `$dialect` lacks fails with [`Dialect::reject`]'s message.
macro_rules! guard_eval {
    ($interp:ident, $val:ident, $dialect:expr) => {
        impl crate::exec::GuardEval for $interp<'_> {
            type V = $val;
            fn eval(
                &mut self,
                t: &crate::ast::Term,
                env: &[$val],
                fuel: &mut recdb_core::Fuel,
            ) -> Result<$val, crate::value::RunError> {
                crate::exec::eval_term(self, t, env, fuel)
            }
            fn unset() -> $val {
                $val::empty(0)
            }
            fn empty_guard(v: Option<&$val>) -> bool {
                v.is_none_or(<Self as crate::exec::Backend>::empty)
            }
            fn single_guard(v: Option<&$val>) -> Result<bool, crate::value::RunError> {
                if !$dialect.admits_singleton_test() {
                    return Err($dialect.reject(crate::dialect::IllegalTest::Singleton));
                }
                Ok(v.is_some_and(<Self as crate::exec::Backend>::single))
            }
            fn finite_guard(v: Option<&$val>) -> Result<bool, crate::value::RunError> {
                if !$dialect.admits_finiteness_test() {
                    return Err($dialect.reject(crate::dialect::IllegalTest::Finiteness));
                }
                Ok(v.is_none_or(<Self as crate::exec::Backend>::finite))
            }
            fn size(v: &$val) -> u64 {
                <Self as crate::exec::Backend>::size(v)
            }
        }
    };
}
pub(crate) use guard_eval;

/// Evaluates a term over `b`'s ops: one fuel tick per node at entry.
/// An unassigned variable reads as [`Backend::unset`].
pub fn eval_term<B: Backend>(
    b: &mut B,
    t: &Term,
    env: &[B::V],
    fuel: &mut Fuel,
) -> Result<B::V, RunError> {
    fuel.tick()?;
    Ok(match t {
        Term::E => b.e(),
        Term::Rel(i) => b.rel(*i)?,
        Term::Var(v) => env.get(*v).cloned().unwrap_or_else(|| b.unset()),
        Term::Const(c) => b.constant(*c),
        Term::And(l, r) => {
            let x = eval_term(b, l, env, fuel)?;
            let y = eval_term(b, r, env, fuel)?;
            b.and(&x, &y)?
        }
        Term::Not(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.not(&x, fuel)?
        }
        Term::Up(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.up(&x, fuel)?
        }
        Term::Down(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.down(&x, fuel)?
        }
        Term::Swap(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.swap(&x, fuel)?
        }
    })
}

/// The hooks a statement executor (this module's `exec_stmt` or the
/// VM's dispatch loop) calls. Loops are named by their [`NodePath`];
/// `here` counts the iterations of the current loop entry.
pub trait Schedule {
    /// What ends a run early under this schedule.
    type Stop: From<RunError>;
    /// May a `while` loop try the semi-naive engine first?
    fn seminaive(&self) -> bool {
        false
    }
    /// An assignment at `path` materialized `size` tuples. (The VM
    /// tracks no statement paths and passes `&[]`.)
    fn assigned(&mut self, _path: &[u32], _size: u64) -> Result<(), Self::Stop> {
        Ok(())
    }
    /// The guard of the loop at `path` passed for the `here`-th time
    /// in this entry; the iteration's fuel tick follows.
    fn iteration(&mut self, _path: &[u32], _here: u64) -> Result<(), Self::Stop> {
        Ok(())
    }
    /// The loop at `path` was left after `here` iterations, normally
    /// or by an error.
    fn loop_exit(&mut self, _path: &[u32], _here: u64) {}
}

/// Why a [`Budgeted`] or counting run stopped before completing.
#[derive(Debug)]
pub enum Stop {
    /// A runtime error, fuel exhaustion included.
    Run(RunError),
    /// The cooperative-preemption flag was raised at a loop head.
    Preempted,
    /// A proved per-entry loop bound was exceeded.
    Bound {
        /// The loop's tree path.
        path: NodePath,
        /// The bound it was proved to respect.
        bound: u64,
    },
    /// The whole-program iteration cap was exceeded.
    Total,
    /// The work cap was exceeded.
    Work,
}

impl From<RunError> for Stop {
    fn from(e: RunError) -> Self {
        Stop::Run(e)
    }
}

/// The plain schedule: fuel is the only limit.
pub struct FuelOnly {
    /// Attempt the semi-naive engine before each `while` loop.
    pub seminaive: bool,
}

impl Schedule for FuelOnly {
    type Stop = RunError;
    fn seminaive(&self) -> bool {
        self.seminaive
    }
}

/// The scheduling envelope an admitted program runs under.
#[derive(Clone, Debug)]
pub struct Budget<'a> {
    /// Proved per-entry bounds by loop path (empty in fuel mode).
    pub bounds: &'a BTreeMap<Vec<u32>, u64>,
    /// Whole-program iteration cap. In exact mode this is the proved
    /// `Terminates {iterations}` figure; in fuel mode `u64::MAX` (fuel
    /// is the limiter).
    pub total_cap: u64,
    /// The fuel budget for term evaluation and statement ticks.
    pub fuel: u64,
    /// Statically predicted total work (materialized tuples across
    /// all assignments), when the cost pass derived one at this
    /// database's instantiation. Exceeding it is a cost-soundness
    /// violation.
    pub work_cap: Option<u64>,
}

/// How an execution ended.
#[derive(Debug, PartialEq)]
pub enum ExecEnd<V> {
    /// Completed; the payload is `Y1`.
    Done(V),
    /// The interpreter returned a runtime error (fuel exhaustion is
    /// reported separately).
    Errored(RunError),
    /// Fuel ran out — the fuel-mode analogue of preemption.
    OutOfFuel,
    /// The cooperative-preemption flag was raised at a loop head.
    Preempted,
    /// A proved per-loop bound was exceeded — admission soundness
    /// violation.
    BoundExceeded {
        /// The loop's tree path.
        path: Vec<u32>,
        /// The bound it was proved to respect.
        bound: u64,
    },
    /// The proved whole-program budget was exceeded — admission
    /// soundness violation.
    TotalExceeded {
        /// The proved whole-program budget.
        cap: u64,
    },
    /// The statically predicted work bound was exceeded — a
    /// cost-soundness violation (counted as `serve.cost.overrun`).
    WorkExceeded {
        /// The predicted work bound.
        cap: u64,
    },
}

impl<V> ExecEnd<V> {
    /// Is this end an admission-soundness violation (a static proof
    /// contradicted at runtime)?
    pub fn is_soundness_violation(&self) -> bool {
        matches!(
            self,
            ExecEnd::BoundExceeded { .. }
                | ExecEnd::TotalExceeded { .. }
                | ExecEnd::WorkExceeded { .. }
        )
    }
}

/// An execution outcome plus its iteration accounting.
#[derive(Debug)]
pub struct ExecResult<V> {
    /// How the run ended.
    pub end: ExecEnd<V>,
    /// Total loop iterations executed.
    pub iterations: u64,
    /// Total tuples materialized by assignments (the observed work).
    pub work: u64,
}

/// The budget schedule: enforces a [`Budget`] and watches a
/// preemption flag. On a passing guard the order is preempt check,
/// total counter, proved-bound check, total-budget check; work is
/// committed after each assignment.
pub struct Budgeted<'a> {
    budget: Budget<'a>,
    preempt: &'a AtomicBool,
    pub(crate) total: u64,
    pub(crate) work: u64,
}

impl<'a> Budgeted<'a> {
    /// A fresh schedule for one run under `budget`.
    pub fn new(budget: &Budget<'a>, preempt: &'a AtomicBool) -> Self {
        Budgeted {
            budget: budget.clone(),
            preempt,
            total: 0,
            work: 0,
        }
    }

    /// Turns a run's outcome into the server's [`ExecResult`].
    pub fn finish<V>(self, r: Result<V, Stop>) -> ExecResult<V> {
        let (total_cap, work_cap) = (self.budget.total_cap, self.budget.work_cap.unwrap_or(0));
        let end = match r {
            Ok(v) => ExecEnd::Done(v),
            Err(Stop::Run(RunError::Fuel(_))) => ExecEnd::OutOfFuel,
            Err(Stop::Run(e)) => ExecEnd::Errored(e),
            Err(Stop::Preempted) => ExecEnd::Preempted,
            Err(Stop::Bound { path, bound }) => ExecEnd::BoundExceeded { path, bound },
            Err(Stop::Total) => ExecEnd::TotalExceeded { cap: total_cap },
            Err(Stop::Work) => ExecEnd::WorkExceeded { cap: work_cap },
        };
        ExecResult {
            end,
            iterations: self.total,
            work: self.work,
        }
    }
}

impl Schedule for Budgeted<'_> {
    type Stop = Stop;
    #[inline]
    fn assigned(&mut self, _path: &[u32], size: u64) -> Result<(), Stop> {
        self.work = self.work.saturating_add(size);
        if self.budget.work_cap.is_some_and(|cap| self.work > cap) {
            return Err(Stop::Work);
        }
        Ok(())
    }
    #[inline]
    fn iteration(&mut self, path: &[u32], here: u64) -> Result<(), Stop> {
        if self.preempt.load(Ordering::Relaxed) {
            return Err(Stop::Preempted);
        }
        self.total += 1;
        if let Some(&bound) = self.budget.bounds.get(path) {
            if here > bound {
                return Err(Stop::Bound {
                    path: path.to_vec(),
                    bound,
                });
            }
        }
        if self.total > self.budget.total_cap {
            return Err(Stop::Total);
        }
        Ok(())
    }
}

fn guard<B: GuardEval>(kind: LoopKind, v: Option<&B::V>) -> Result<bool, RunError> {
    match kind {
        LoopKind::Empty => Ok(B::empty_guard(v)),
        LoopKind::Singleton => B::single_guard(v),
        LoopKind::Finite => B::finite_guard(v),
    }
}

/// Executes `p` against `b` in `env` under schedule `s` — the one
/// statement executor. `path` is `p`'s tree path.
pub(crate) fn exec_stmt<B: GuardEval, S: Schedule>(
    b: &mut B,
    p: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
    path: &mut NodePath,
    s: &mut S,
) -> Result<(), S::Stop> {
    fuel.tick().map_err(RunError::from)?;
    match p {
        Prog::Assign(v, t) => {
            let val = b.eval(t, env, fuel)?;
            s.assigned(path, B::size(&val))?;
            if *v >= env.len() {
                env.resize(*v + 1, B::unset());
            }
            env[*v] = val;
        }
        Prog::Seq(ps) => {
            for (i, q) in ps.iter().enumerate() {
                path.push(i as u32);
                let r = exec_stmt(b, q, env, fuel, path, s);
                path.pop();
                r?;
            }
        }
        Prog::WhileEmpty(v, body) | Prog::WhileSingleton(v, body) | Prog::WhileFinite(v, body) => {
            let kind = match p {
                Prog::WhileEmpty(..) => LoopKind::Empty,
                Prog::WhileSingleton(..) => LoopKind::Singleton,
                _ => LoopKind::Finite,
            };
            if s.seminaive() {
                // A test the dialect lacks fails before the delta
                // engine may run the loop.
                guard::<B>(kind, env.get(*v))?;
                if try_loop(b, kind, *v, body, env, fuel) {
                    return Ok(());
                }
            }
            // The closure scopes the early exits, so `loop_exit` sees
            // every way out of the loop.
            let mut here = 0u64;
            let r = (|| -> Result<(), S::Stop> {
                while guard::<B>(kind, env.get(*v))? {
                    here += 1;
                    s.iteration(path, here)?;
                    fuel.tick().map_err(RunError::from)?;
                    path.push(0);
                    let r = exec_stmt(b, body, env, fuel, path, s);
                    path.pop();
                    r?;
                }
                Ok(())
            })();
            s.loop_exit(path, here);
            r?;
        }
    }
    Ok(())
}

/// Checks `p` against `dialect`, then runs it under `s` from a fresh
/// environment; the result is `Y1`.
pub(crate) fn run_with<B: GuardEval, S: Schedule>(
    b: &mut B,
    dialect: Dialect,
    p: &Prog,
    fuel: &mut Fuel,
    s: &mut S,
) -> Result<B::V, S::Stop> {
    dialect
        .check(p)
        .map_err(|v| RunError::DialectViolation(v.message()))?;
    let mut env = vec![B::unset(); p.max_var().map_or(1, |m| m + 1)];
    exec_stmt(b, p, &mut env, fuel, &mut Vec::new(), s)?;
    Ok(env.into_iter().next().unwrap_or_else(B::unset))
}

/// Runs `p` in a caller-supplied environment under the fuel-only
/// schedule. There is no up-front dialect check: a `while` test the
/// backend's dialect lacks fails when it is reached, with the same
/// message the check gives.
pub fn exec<B: GuardEval>(
    b: &mut B,
    p: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
    seminaive: bool,
) -> Result<(), RunError> {
    let mut s = FuelOnly { seminaive };
    exec_stmt(b, p, env, fuel, &mut Vec::new(), &mut s)
}

/// Runs `p` under `budget`, with term semantics from `b`. The dialect
/// check runs first, exactly as the interpreters' own `run` methods do.
pub fn run_scheduled<B: GuardEval>(
    b: &mut B,
    dialect: Dialect,
    p: &Prog,
    budget: &Budget<'_>,
    preempt: &AtomicBool,
) -> ExecResult<B::V> {
    let mut s = Budgeted::new(budget, preempt);
    let r = run_with(b, dialect, p, &mut Fuel::new(budget.fuel), &mut s);
    s.finish(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::{FcfInterp, FinInterp, HsInterp, Val};
    use recdb_core::FiniteStructure;

    fn graph() -> FiniteStructure {
        FiniteStructure::graph(0..3, [(0, 1), (1, 2)])
    }

    fn run(src: &str, budget: &Budget<'_>) -> ExecResult<Val> {
        let p = parse_program(src).unwrap();
        let st = graph();
        let mut interp = FinInterp::new(&st);
        run_scheduled(
            &mut interp,
            Dialect::Ql,
            &p,
            budget,
            &AtomicBool::new(false),
        )
    }

    fn fueled(fuel: u64) -> Budget<'static> {
        static EMPTY: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
        Budget {
            bounds: &EMPTY,
            total_cap: u64::MAX,
            fuel,
            work_cap: None,
        }
    }

    #[test]
    fn completion_returns_y1() {
        let r = run("Y1 := E;", &fueled(10_000));
        match r.end {
            ExecEnd::Done(v) => assert_eq!(v.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn divergent_loops_run_out_of_fuel() {
        let r = run("while empty(Y2) { Y3 := E; }", &fueled(500));
        assert!(matches!(r.end, ExecEnd::OutOfFuel), "{:?}", r.end);
        assert!(r.iterations > 0);
    }

    #[test]
    fn preemption_stops_at_a_loop_head() {
        let p = parse_program("while empty(Y2) { Y3 := E; }").unwrap();
        let st = graph();
        let mut interp = FinInterp::new(&st);
        let flag = AtomicBool::new(true);
        let r = run_scheduled(&mut interp, Dialect::Ql, &p, &fueled(100_000), &flag);
        assert!(matches!(r.end, ExecEnd::Preempted), "{:?}", r.end);
    }

    #[test]
    fn exceeded_bounds_are_soundness_violations() {
        let bounds: BTreeMap<Vec<u32>, u64> = [(vec![0], 2u64)].into_iter().collect();
        let budget = Budget {
            bounds: &bounds,
            total_cap: 100,
            fuel: 100_000,
            work_cap: None,
        };
        let r = run("while empty(Y2) { Y3 := E; }", &budget);
        assert!(r.end.is_soundness_violation(), "{:?}", r.end);
        match r.end {
            ExecEnd::BoundExceeded { path, bound } => {
                assert_eq!(path, vec![0]);
                assert_eq!(bound, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn total_budget_is_enforced() {
        let bounds = BTreeMap::new();
        let budget = Budget {
            bounds: &bounds,
            total_cap: 5,
            fuel: 100_000,
            work_cap: None,
        };
        let r = run("while empty(Y2) { Y3 := E; }", &budget);
        assert!(
            matches!(r.end, ExecEnd::TotalExceeded { cap: 5 }),
            "{:?}",
            r.end
        );
    }

    #[test]
    fn work_is_counted_and_capped() {
        let r = run("Y1 := E; Y2 := E;", &fueled(10_000));
        assert!(matches!(r.end, ExecEnd::Done(_)), "{:?}", r.end);
        // E on the 3-node graph stores 3 tuples; two assignments.
        assert_eq!(r.work, 6);

        let bounds = BTreeMap::new();
        let budget = Budget {
            bounds: &bounds,
            total_cap: u64::MAX,
            fuel: 10_000,
            work_cap: Some(5),
        };
        let r = run("Y1 := E; Y2 := E;", &budget);
        assert!(
            matches!(r.end, ExecEnd::WorkExceeded { cap: 5 }),
            "{:?}",
            r.end
        );
        assert!(r.end.is_soundness_violation());
    }

    #[test]
    fn runtime_errors_pass_through() {
        let r = run("Y1 := R9;", &fueled(10_000));
        // R9 in the surface syntax is input index 8 (relations are
        // 1-based on the wire, 0-based internally).
        assert!(
            matches!(r.end, ExecEnd::Errored(RunError::NoSuchRelation(8))),
            "{:?}",
            r.end
        );
    }

    /// The caller-env `exec` entry skips the up-front dialect check, so
    /// each backend's guards must reject the `while` forms its dialect
    /// lacks — with the check's own message, semi-naive on or off.
    #[test]
    fn caller_env_exec_rejects_tests_outside_the_dialect() {
        fn expect<B: GuardEval>(b: &mut B, dialect: Dialect, p: &Prog) {
            let want = dialect.check(p).expect_err("outside the dialect").message();
            for seminaive in [true, false] {
                let mut env = vec![B::unset(); 2];
                let got = exec(b, p, &mut env, &mut Fuel::new(10_000), seminaive);
                assert_eq!(got, Err(RunError::DialectViolation(want)), "{dialect}: {p}");
            }
        }
        let body = || Box::new(Prog::assign(1, Term::Var(1).union(Term::E)));
        let single = Prog::WhileSingleton(0, body());
        let finite = Prog::WhileFinite(0, body());

        let st = graph();
        expect(&mut FinInterp::new(&st), Dialect::Ql, &single);
        expect(&mut FinInterp::new(&st), Dialect::Ql, &finite);
        let hs = recdb_hsdb::infinite_clique();
        expect(&mut HsInterp::new(&hs), Dialect::Qlhs, &finite);
        let db = recdb_hsdb::FcfDatabase::new(
            "t",
            vec![recdb_hsdb::FcfRel::Finite(
                recdb_core::FiniteRelation::unary([1, 2]),
            )],
        );
        expect(&mut FcfInterp::new(&db), Dialect::QlfPlus, &single);
    }
}
