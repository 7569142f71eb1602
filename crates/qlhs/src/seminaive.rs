//! Semi-naive (delta) evaluation of QL-family `while` loops.
//!
//! A from-scratch `while` loop re-evaluates its whole body against the
//! full variable values every iteration — `O(program × structure)` per
//! round. When the body is *provably inflationary and monotone* in the
//! variables it writes, the classic datafrog discipline applies: keep
//! each written variable as a growing log (a sorted [`Rows`] plus the
//! sorted batch each admission added), and per round feed each
//! statement only the tuples its source variable gained since that
//! statement last ran.
//!
//! # The provable fragment
//!
//! [`classify_loop`] accepts a loop body iff it flattens (through
//! `Seq`) to assignments only, and every assignment has the shape
//!
//! ```text
//! Y_w := Y_w ∪ s        (union as the derived ¬(¬a ∩ ¬b) pattern)
//! ```
//!
//! where `s` is **linear monotone** over the set `W` of loop-written
//! variables: at most one occurrence of a `W`-variable, reached
//! through `∩`/`↑`/`↓`/`~` only (the other `∩` operand must be
//! `W`-free), and `¬` only inside `W`-free subterms. Linear monotone
//! terms distribute over union — `s(X ∪ Δ) = s(X) ∪ s(Δ)` — which is
//! what makes per-statement delta feeding *exact*, not approximate:
//! the engine reproduces the from-scratch iteration values, guard
//! decisions, and final environment bit-for-bit. (Monotone but
//! non-inflationary replacement writes are rejected on purpose:
//! sequential swap-via-temporary bodies oscillate forever without ever
//! shrinking, so value logs alone cannot represent them.)
//!
//! # The fallback contract
//!
//! Only the fuel-only schedule of the statement executor
//! ([`crate::exec::FuelOnly`], behind the interpreters' `run`/`exec`)
//! calls [`try_loop`], once per `while` entry, when the interpreter's
//! semi-naive switch is on. The server's budget schedule never does:
//! its iteration counts are reported in responses.
//!
//! [`try_loop`] never mutates the environment until the loop has run
//! to successful completion. On *any* obstruction — ineligible body,
//! non-finite values, a rank mismatch, an evaluation error, fuel
//! exhaustion — it abandons its private state, restores the entry
//! fuel and returns `false`, and the executor runs the untouched
//! from-scratch loop with the same budget, which reproduces the exact
//! from-scratch outcome (including which error is reported and the
//! fuel left). The from-scratch path thus stays live as the
//! differential oracle, exactly like `partition_by_local_iso_pairwise`
//! in the refinement pipeline; the `SEMI-NAIVE-DIFF` conformance check
//! drives both paths over random programs.
//!
//! A stabilized delta (no new tuples in a round) with the guard still
//! true means the from-scratch loop diverges; the engine falls back,
//! and the from-scratch loop, whose state now repeats, runs out of
//! fuel through the statement executor's loop fast-forward.

use crate::ast::{LoopKind, Prog, Term, VarId};
use crate::exec::GuardEval;
use crate::value::{Rows, RunError};
use recdb_core::Fuel;
use std::collections::{BTreeMap, BTreeSet};

/// Why a loop body is outside the provable semi-naive fragment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IneligibleLoop {
    /// The body contains a nested `while`.
    NestedLoop,
    /// An assignment is not of the shape `Y_w := Y_w ∪ s`.
    NotInflationary,
    /// A delta source mentions loop-written variables in more than one
    /// position (union distributivity fails).
    NonLinearSource,
    /// A loop-written variable occurs under `¬` (anti-monotone).
    NegatedDelta,
}

impl IneligibleLoop {
    /// A short human-readable reason.
    pub fn message(self) -> &'static str {
        match self {
            IneligibleLoop::NestedLoop => "loop body contains a nested while",
            IneligibleLoop::NotInflationary => {
                "an assignment is not an inflationary union Y := Y ∪ s"
            }
            IneligibleLoop::NonLinearSource => {
                "a delta source mentions loop-written variables in more than one position"
            }
            IneligibleLoop::NegatedDelta => "a loop-written variable occurs under ¬",
        }
    }
}

/// One compiled body statement `Y_target := Y_target ∪ s`.
#[derive(Clone, Debug)]
pub struct PlanStmt {
    /// The written variable.
    pub target: VarId,
    /// The loop-written variable `s` reads (its delta source), or
    /// `None` when `s` is constant across iterations.
    pub source: Option<VarId>,
    /// `s` with the delta-source occurrence replaced by the scratch
    /// variable; evaluated by the backend against per-round deltas.
    rewritten: Term,
}

/// A loop body compiled for semi-naive execution.
#[derive(Clone, Debug)]
pub struct LoopPlan {
    /// The statements, in body order.
    pub stmts: Vec<PlanStmt>,
    /// The scratch slot deltas are staged through (one past the
    /// largest variable the body mentions).
    pub scratch: VarId,
    /// The set `W` of loop-written variables.
    pub writes: BTreeSet<VarId>,
}

/// Does `t` mention any variable from `vars`?
fn mentions(t: &Term, vars: &BTreeSet<VarId>) -> bool {
    match t {
        Term::E | Term::Rel(_) | Term::Const(_) => false,
        Term::Var(v) => vars.contains(v),
        Term::And(a, b) => mentions(a, vars) || mentions(b, vars),
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => mentions(e, vars),
    }
}

/// Checks `s` is linear monotone over `writes` and substitutes its one
/// `W`-occurrence with `Var(scratch)`; returns the rewritten term and
/// the source variable.
fn rewrite(
    s: &Term,
    writes: &BTreeSet<VarId>,
    scratch: VarId,
) -> Result<(Term, Option<VarId>), IneligibleLoop> {
    if !mentions(s, writes) {
        return Ok((s.clone(), None));
    }
    match s {
        Term::Var(w) => Ok((Term::Var(scratch), Some(*w))),
        Term::And(a, b) => {
            if mentions(a, writes) && mentions(b, writes) {
                return Err(IneligibleLoop::NonLinearSource);
            }
            if mentions(a, writes) {
                let (ra, src) = rewrite(a, writes, scratch)?;
                Ok((Term::And(Box::new(ra), b.clone()), src))
            } else {
                let (rb, src) = rewrite(b, writes, scratch)?;
                Ok((Term::And(a.clone(), Box::new(rb)), src))
            }
        }
        Term::Up(e) => {
            let (re, src) = rewrite(e, writes, scratch)?;
            Ok((Term::Up(Box::new(re)), src))
        }
        Term::Down(e) => {
            let (re, src) = rewrite(e, writes, scratch)?;
            Ok((Term::Down(Box::new(re)), src))
        }
        Term::Swap(e) => {
            let (re, src) = rewrite(e, writes, scratch)?;
            Ok((Term::Swap(Box::new(re)), src))
        }
        Term::Not(_) => Err(IneligibleLoop::NegatedDelta),
        Term::E | Term::Rel(_) | Term::Const(_) => Ok((s.clone(), None)),
    }
}

/// Flattens `body` through `Seq` into assignments; `Err` on a nested
/// loop.
fn flatten<'p>(body: &'p Prog, out: &mut Vec<(VarId, &'p Term)>) -> Result<(), IneligibleLoop> {
    match body {
        Prog::Assign(v, e) => {
            out.push((*v, e));
            Ok(())
        }
        Prog::Seq(ps) => ps.iter().try_for_each(|p| flatten(p, out)),
        Prog::WhileEmpty(..) | Prog::WhileSingleton(..) | Prog::WhileFinite(..) => {
            Err(IneligibleLoop::NestedLoop)
        }
    }
}

/// Compiles a loop body into a [`LoopPlan`], or reports why it is
/// outside the provable fragment. Purely syntactic — shared by the
/// three interpreters and by the `SEMI-NAIVE-DIFF` ledger check.
pub fn classify_loop(body: &Prog) -> Result<LoopPlan, IneligibleLoop> {
    let mut assigns = Vec::new();
    flatten(body, &mut assigns)?;
    let writes: BTreeSet<VarId> = assigns.iter().map(|(w, _)| *w).collect();
    let scratch = body.max_var().map_or(0, |m| m + 1);
    let mut stmts = Vec::new();
    for (w, term) in assigns {
        // Recognize the derived union ¬(¬a ∩ ¬b) with a or b = Y_w.
        let Term::Not(inner) = term else {
            return Err(IneligibleLoop::NotInflationary);
        };
        let Term::And(na, nb) = inner.as_ref() else {
            return Err(IneligibleLoop::NotInflationary);
        };
        let (Term::Not(a), Term::Not(b)) = (na.as_ref(), nb.as_ref()) else {
            return Err(IneligibleLoop::NotInflationary);
        };
        let s = if a.as_ref() == &Term::Var(w) {
            b.as_ref()
        } else if b.as_ref() == &Term::Var(w) {
            a.as_ref()
        } else {
            return Err(IneligibleLoop::NotInflationary);
        };
        let (rewritten, source) = rewrite(s, &writes, scratch)?;
        stmts.push(PlanStmt {
            target: w,
            source,
            rewritten,
        });
    }
    Ok(LoopPlan {
        stmts,
        scratch,
        writes,
    })
}

/// The value operations the delta engine needs beyond
/// [`GuardEval`]'s. `Val` (Fin/Hs) is always finite; `FcfVal` exposes
/// its indicator.
pub trait DeltaValue: Clone {
    /// The value's rank.
    fn rank(&self) -> usize;
    /// The tuples, if the relation is finite.
    fn finite_tuples(&self) -> Option<&Rows>;
    /// Builds a finite value.
    fn from_tuples(rank: usize, tuples: Rows) -> Self;
}

impl DeltaValue for crate::value::Val {
    fn rank(&self) -> usize {
        self.rank
    }
    fn finite_tuples(&self) -> Option<&Rows> {
        Some(&self.tuples)
    }
    fn from_tuples(rank: usize, tuples: Rows) -> Self {
        crate::value::Val { rank, tuples }
    }
}

impl DeltaValue for crate::fcf_interp::FcfVal {
    fn rank(&self) -> usize {
        self.rank
    }
    fn finite_tuples(&self) -> Option<&Rows> {
        self.finite.then_some(&self.tuples)
    }
    fn from_tuples(rank: usize, tuples: Rows) -> Self {
        crate::fcf_interp::FcfVal {
            rank,
            finite: true,
            tuples,
        }
    }
}

/// Why [`try_loop`] handed a loop back to the from-scratch executor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fallback {
    /// The body is outside the provable fragment ([`classify_loop`]).
    IneligibleBody,
    /// A loop-written variable held a co-finite value on entry.
    CofiniteVar,
    /// Fuel ran out mid-loop, between statements or inside a term.
    Fuel,
    /// A body term raised a runtime error other than fuel exhaustion.
    EvalError,
    /// A body term produced a co-finite contribution.
    CofiniteContribution,
    /// A contribution's rank differs from its target's.
    RankMismatch,
    /// A statement targets a variable without a log (unreachable:
    /// targets are the loop's writes).
    UnseededTarget,
    /// The logs reached a fixpoint with the guard still true.
    Divergent,
}

/// Counts a fallback in the total `fixpoint.seminaive.fallbacks` and
/// in its reason's own counter; returns `false` for [`try_loop`].
fn fallback(reason: Fallback) -> bool {
    recdb_obs::count("fixpoint.seminaive.fallbacks", 1);
    match reason {
        Fallback::IneligibleBody => {
            recdb_obs::count("fixpoint.seminaive.fallbacks.ineligible_body", 1)
        }
        Fallback::CofiniteVar => recdb_obs::count("fixpoint.seminaive.fallbacks.cofinite_var", 1),
        Fallback::Fuel => recdb_obs::count("fixpoint.seminaive.fallbacks.fuel", 1),
        Fallback::EvalError => recdb_obs::count("fixpoint.seminaive.fallbacks.eval_error", 1),
        Fallback::CofiniteContribution => {
            recdb_obs::count("fixpoint.seminaive.fallbacks.cofinite_contribution", 1)
        }
        Fallback::RankMismatch => recdb_obs::count("fixpoint.seminaive.fallbacks.rank_mismatch", 1),
        Fallback::UnseededTarget => {
            recdb_obs::count("fixpoint.seminaive.fallbacks.unseeded_target", 1)
        }
        Fallback::Divergent => recdb_obs::count("fixpoint.seminaive.fallbacks.divergent", 1),
    }
    false
}

/// One loop-written variable's growing value: the sorted set of rows
/// admitted so far plus the same rows as one sorted batch per
/// admission, so a statement's cursor into the batches yields exactly
/// the rows admitted since it last ran (the datafrog per-reader delta).
struct Log {
    rank: usize,
    all: Rows,
    /// The entry value, then the new rows of each admission.
    batches: Vec<Rows>,
    /// `all.len()` at the last round boundary.
    rotated: usize,
}

impl Log {
    fn new(rank: usize, entry: &Rows) -> Self {
        Log {
            rank,
            all: entry.clone(),
            batches: vec![entry.clone()],
            rotated: 0,
        }
    }

    /// Admits `rows` (sorted, of this log's rank); true if any was new.
    fn admit(&mut self, rows: &Rows) -> bool {
        let fresh = rows.difference(&self.all);
        if fresh.is_empty() {
            return false;
        }
        self.all = self.all.union(&fresh);
        self.batches.push(fresh);
        true
    }

    /// The rows of the batches from `cursor` on.
    fn since(&self, cursor: usize) -> Rows {
        match &self.batches[cursor..] {
            [one] => one.clone(),
            batches => batches.iter().fold(Rows::new(), |acc, b| acc.union(b)),
        }
    }

    /// Closes a round, observing the rows it admitted as
    /// `fixpoint.delta.recent`.
    fn rotate(&mut self) {
        let count = self.all.len();
        recdb_obs::observe("fixpoint.delta.recent", (count - self.rotated) as u64);
        self.rotated = count;
    }
}

/// Attempts to run `while <kind>(Y_guard) do body` semi-naively.
///
/// Returns `true` when the loop ran to completion (the environment now
/// holds the exact from-scratch result). Returns `false` — with the
/// environment and the fuel as they were on entry — when the caller
/// must run the from-scratch loop instead; the [`Fallback`] reason is
/// counted.
pub fn try_loop<B: GuardEval>(
    backend: &mut B,
    kind: LoopKind,
    guard: VarId,
    body: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
) -> bool {
    let entry_fuel = *fuel;
    match delta_loop(backend, kind, guard, body, env, fuel) {
        Ok(()) => true,
        Err(reason) => {
            // The from-scratch loop restarts from the entry state, so
            // it must get the entry budget back, or it could run out
            // where it would not have.
            *fuel = entry_fuel;
            fallback(reason)
        }
    }
}

/// The delta rounds of [`try_loop`]; on `Err` the environment is
/// untouched.
fn delta_loop<B: GuardEval>(
    backend: &mut B,
    kind: LoopKind,
    guard: VarId,
    body: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
) -> Result<(), Fallback> {
    let plan = classify_loop(body).map_err(|_| Fallback::IneligibleBody)?;
    // Entry snapshot: one log per written variable, seeded with the
    // entry value so the first round's per-statement delta is the full
    // entry value — round 1 then reproduces iteration 1 exactly.
    let mut logs: BTreeMap<VarId, Log> = BTreeMap::new();
    for &w in &plan.writes {
        let entry = env.get(w).cloned().unwrap_or_else(B::unset);
        let Some(tuples) = entry.finite_tuples() else {
            return Err(Fallback::CofiniteVar);
        };
        logs.insert(w, Log::new(entry.rank(), tuples));
    }
    let guard_size = |logs: &BTreeMap<VarId, Log>, env: &[B::V]| -> u64 {
        match logs.get(&guard) {
            Some(log) => log.all.len() as u64,
            None => env.get(guard).map_or(0, B::size),
        }
    };
    let guard_finite = |logs: &BTreeMap<VarId, Log>, env: &[B::V]| -> bool {
        match logs.get(&guard) {
            Some(_) => true, // loop variables stay finite by construction
            None => env.get(guard).is_none_or(|v| v.finite_tuples().is_some()),
        }
    };
    let continues = |logs: &BTreeMap<VarId, Log>, env: &[B::V]| -> bool {
        match kind {
            LoopKind::Empty => guard_size(logs, env) == 0,
            LoopKind::Singleton => guard_size(logs, env) == 1,
            LoopKind::Finite => guard_finite(logs, env),
        }
    };
    // Scratch environment: entry values (K-subterms are W-free, so
    // these never go stale) plus the delta staging slot.
    let mut scratch_env: Vec<B::V> = (0..=plan.scratch)
        .map(|v| env.get(v).cloned().unwrap_or_else(B::unset))
        .collect();
    let mut cursors = vec![0usize; plan.stmts.len()];
    let mut rounds: u64 = 0;
    loop {
        if !continues(&logs, env) {
            break;
        }
        if fuel.tick().is_err() {
            return Err(Fallback::Fuel);
        }
        rounds += 1;
        let mut progress = false;
        for (i, stmt) in plan.stmts.iter().enumerate() {
            if fuel.tick().is_err() {
                return Err(Fallback::Fuel);
            }
            let delta: B::V = match stmt.source {
                Some(src) => {
                    let log = &logs[&src];
                    let cur = cursors[i];
                    cursors[i] = log.batches.len();
                    if cur == log.batches.len() && rounds > 1 {
                        // Linear monotone s: s(∅) = ∅. Round 1 always
                        // evaluates, so static errors still surface.
                        continue;
                    }
                    B::V::from_tuples(log.rank, log.since(cur))
                }
                None => {
                    if rounds > 1 {
                        continue; // constant source: contributed on round 1
                    }
                    B::unset()
                }
            };
            scratch_env[plan.scratch] = delta;
            let contribution = backend
                .eval(&stmt.rewritten, &scratch_env, fuel)
                .map_err(|e| match e {
                    RunError::Fuel(_) => Fallback::Fuel,
                    _ => Fallback::EvalError,
                })?;
            let Some(tuples) = contribution.finite_tuples() else {
                return Err(Fallback::CofiniteContribution);
            };
            let Some(log) = logs.get_mut(&stmt.target) else {
                return Err(Fallback::UnseededTarget); // unreachable: targets ⊆ writes
            };
            if contribution.rank() != log.rank {
                // The from-scratch union ¬(¬v ∩ ¬s) raises the same
                // mismatch on its first iteration.
                return Err(Fallback::RankMismatch);
            }
            recdb_obs::observe("fixpoint.delta.size", tuples.len() as u64);
            progress |= log.admit(tuples);
        }
        for log in logs.values_mut() {
            log.rotate();
        }
        if !progress && continues(&logs, env) {
            // Fixpoint reached with the guard still true: the
            // from-scratch loop diverges, and its loop fast-forward
            // spends the budget in whole periods.
            return Err(Fallback::Divergent);
        }
    }
    if rounds > 0 {
        for (w, log) in logs {
            if w >= env.len() {
                env.resize(w + 1, B::unset());
            }
            env[w] = B::V::from_tuples(log.rank, log.all);
        }
    }
    recdb_obs::count("fixpoint.seminaive.loops", 1);
    recdb_obs::observe("fixpoint.delta.rounds", rounds);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Prog, Term};
    use crate::fin_interp::FinInterp;
    use crate::value::{RunError, Val};
    use recdb_core::FiniteStructure;

    fn union_assign(v: VarId, s: Term) -> Prog {
        Prog::assign(v, Term::Var(v).union(s))
    }

    #[test]
    fn classify_accepts_frontier_loop() {
        // Y1 := Y1 ∪ down(up(Y1) ∩ R1); Y2 := Y2 ∪ (Y1 ∩ C5)
        let body = Prog::seq([
            union_assign(0, Term::Var(0).up().and(Term::Rel(0)).down()),
            union_assign(1, Term::Var(0).and(Term::Const(5))),
        ]);
        let plan = classify_loop(&body).expect("eligible");
        assert_eq!(plan.stmts.len(), 2);
        assert_eq!(plan.stmts[0].source, Some(0));
        assert_eq!(plan.stmts[1].source, Some(0));
        assert_eq!(plan.writes.iter().copied().collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn classify_rejects_outside_fragment() {
        // Nested loop.
        let nested = Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E)));
        assert_eq!(
            classify_loop(&nested).err(),
            Some(IneligibleLoop::NestedLoop)
        );
        // Plain replacement (not union-shaped).
        let replace = Prog::assign(0, Term::Var(0).up());
        assert_eq!(
            classify_loop(&replace).err(),
            Some(IneligibleLoop::NotInflationary)
        );
        // Non-linear source: both ∩ operands read the written var.
        let nonlinear = union_assign(0, Term::Var(0).up().and(Term::Var(0).up().swap()));
        assert_eq!(
            classify_loop(&nonlinear).err(),
            Some(IneligibleLoop::NonLinearSource)
        );
        // Written var under ¬ inside the source.
        let negated = union_assign(0, Term::Var(0).not().down());
        assert_eq!(
            classify_loop(&negated).err(),
            Some(IneligibleLoop::NegatedDelta)
        );
    }

    #[test]
    fn w_free_not_is_still_eligible() {
        // ¬ over a term not touching loop-written vars is constant
        // across iterations, hence fine.
        let body = union_assign(0, Term::Rel(0).not().down());
        let plan = classify_loop(&body).expect("W-free ¬ is eligible");
        assert_eq!(plan.stmts[0].source, None);
    }

    fn path(n: u64) -> FiniteStructure {
        FiniteStructure::undirected_graph(0..n, (0..n - 1).map(|i| (i, i + 1)))
    }

    /// `Y2 := C0; Y3 := C0 ∩ C1; while |Y3|=0 { Y2 ∪= succ(Y2); Y3 ∪= Y2 ∩ C_last }`
    fn reach_prog(last: u64) -> Prog {
        let succ = Term::Var(1).up().and(Term::Rel(0)).down();
        Prog::seq([
            Prog::assign(1, Term::Const(0)),
            Prog::assign(2, Term::Const(0).and(Term::Const(1))),
            Prog::WhileEmpty(
                2,
                Box::new(Prog::seq([
                    union_assign(1, succ),
                    union_assign(2, Term::Var(1).and(Term::Const(last))),
                ])),
            ),
        ])
    }

    #[test]
    fn seminaive_matches_from_scratch_on_reachability() {
        let st = path(8);
        let p = reach_prog(7);
        let mut on = FinInterp::new(&st);
        let mut off = FinInterp::new(&st);
        off.set_seminaive(false);
        let a = on.run(&p, &mut Fuel::new(1_000_000));
        let b = off.run(&p, &mut Fuel::new(1_000_000));
        assert_eq!(a, b);
        let v = a.expect("reachability terminates");
        assert!(v.is_empty(), "Y1 untouched");
    }

    #[test]
    fn seminaive_final_frontier_value_is_exact() {
        let st = path(6);
        // Surface Y2 (the frontier) as the program result.
        let p = Prog::seq([reach_prog(5), Prog::assign(0, Term::Var(1))]);
        let mut interp = FinInterp::new(&st);
        let v = interp.run(&p, &mut Fuel::new(1_000_000)).expect("runs");
        assert_eq!(v.rank, 1);
        assert_eq!(v.len(), 6, "every path node reached");
    }

    #[test]
    fn divergent_eligible_loop_exhausts_fuel() {
        let st = path(3);
        // Y2 saturates but the guard var Y3 never fills: divergence.
        let body = union_assign(1, Term::Var(1).up().and(Term::Rel(0)).down());
        let p = Prog::seq([
            Prog::assign(1, Term::Const(0)),
            Prog::WhileEmpty(2, Box::new(body)),
        ]);
        let mut interp = FinInterp::new(&st);
        let mut env = vec![Val::empty(0); 3];
        let mut fuel = Fuel::new(50_000);
        let r = interp.exec(&p, &mut env, &mut fuel);
        assert!(matches!(r, Err(RunError::Fuel(_))));
        assert_eq!(fuel.remaining(), 0);
    }

    #[test]
    fn rank_mismatched_union_reports_from_scratch_error() {
        let st = path(3);
        // Y2 entry rank 0 (uninitialized), source rank 1: the union's
        // ∩ mismatches on iteration 1 in both engines.
        let p = Prog::WhileEmpty(1, Box::new(union_assign(1, Term::Const(0))));
        let mut interp = FinInterp::new(&st);
        let mut env = vec![Val::empty(0); 2];
        let r = interp.exec(&p, &mut env, &mut Fuel::new(10_000));
        assert!(matches!(r, Err(RunError::RankMismatch { .. })), "{r:?}");
    }
}
