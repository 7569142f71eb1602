//! Flow-sensitive analysis of QL-family programs: rank/arity
//! inference, dialect checking, lints, and the three-valued safety
//! verdict.
//!
//! ## What the verdict means
//!
//! * [`Verdict::Safe`] — running the program in its dialect's
//!   interpreter can never raise a rank mismatch, a missing-relation
//!   error, or a dialect violation (it may still exhaust fuel). This
//!   is backed by the *exactness* of the rank transfer function
//!   ([`crate::rank::term_rank`]): `Known(k)` means rank `k` on every
//!   execution, so if every `&` node has provably-agreeing operand
//!   ranks, every `Relᵢ` is in schema, and every `while` test is
//!   admitted, no such error exists on any run. Where agreement is
//!   *not provable* (a `Top` operand, e.g. after a control-flow
//!   join), the analyzer emits [`Code::UnprovableRank`], which blocks
//!   `Safe`.
//! * [`Verdict::Unsafe`] — some run is guaranteed to return an error:
//!   either an error-severity finding sits on the must-execute
//!   straight-line spine (every preceding statement either completes
//!   or itself errors, so the run ends `Err` regardless), or the
//!   program uses a `while` test its dialect does not admit (the
//!   interpreters reject that statically in `run`, reachable or not).
//! * [`Verdict::Unknown`] — a potential error was found, but only at
//!   a program point the analysis cannot prove reachable (inside a
//!   loop body) or with unprovable ranks.
//!
//! The emptiness lattice is deliberately second-class: it powers the
//! unreachable-/divergent-loop lints and the termination rules (under
//! a non-empty-domain assumption) and never influences the verdict.
//!
//! Loops are analyzed to their [`crate::fix::loop_head`] state with
//! diagnostics muted, then the body is re-walked once at that
//! environment with diagnostics on — each statement is diagnosed
//! exactly once, against an environment that over-approximates every
//! real iteration. Ranks come from the shared per-node transfer
//! [`crate::rank::step`]; this walk adds emptiness, assignment state,
//! the diagnostics, and the `&` same-value rule.
//!
//! This walk is the crate's only (rank, emptiness) abstract
//! interpreter. Its reporting pass also records what termination and
//! the checked simplifier need, so neither walks the program again:
//! each loop's [`LoopFacts`] (entry state, loop-head fixpoint, and one
//! probing iteration), and each assignment's `W0106` rewrite.

use crate::diag::{Code, Diagnostic, Severity};
use crate::fix::{self, Budget, Lattice};
use crate::rank::{step, term_rank, AbsEmpty, AbsRank, Assigned};
use recdb_core::Schema;
use recdb_qlhs::{Dialect, LoopKind, NodePath, Prog, Term, VarId};
use std::collections::BTreeMap;

/// The analyzer's overall safety classification of a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No rank/arity/dialect error on any possible run.
    Safe,
    /// Every run returns an error.
    Unsafe,
    /// A potential error the analysis can neither prove nor refute.
    Unknown,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Safe => "safe",
            Verdict::Unsafe => "unsafe",
            Verdict::Unknown => "unknown",
        })
    }
}

/// The result of [`analyze_prog`].
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The dialect the program was checked against.
    pub dialect: Dialect,
    /// The safety verdict (see [`Verdict`]).
    pub verdict: Verdict,
    /// All findings, in program order of discovery.
    pub diagnostics: Vec<Diagnostic>,
    /// Abstract rank of each variable at program exit — `Known(k)` is
    /// a proof that `Yᵢ` holds a rank-`k` value on every completed
    /// run.
    pub exit_ranks: Vec<AbsRank>,
    /// What the walk proved at each `while`, outer loops before inner
    /// ones — the facts [`crate::analyze_termination`] reads.
    pub loops: Vec<LoopFacts>,
}

/// The guard variable's abstract state at the points of one `while`
/// that the termination rules read (see [`crate::terminate`]).
/// Recorded once per loop, by the reporting walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopFacts {
    /// Tree path of the `while` statement.
    pub path: NodePath,
    /// The guard variable.
    pub guard: VarId,
    /// The guard's test.
    pub kind: LoopKind,
    /// Is the loop on the program's must-execute spine (not nested in
    /// any other loop's body)?
    pub on_spine: bool,
    /// The guard's rank when the loop is first reached.
    pub entry_rank: AbsRank,
    /// The guard's emptiness when the loop is first reached (the
    /// `W0103` fact).
    pub entry_empty: AbsEmpty,
    /// The guard's emptiness at the loop-head fixpoint, which covers
    /// the start of every iteration, entry included (the `W0104`
    /// fact).
    pub head_empty: AbsEmpty,
    /// The guard's emptiness after one abstract iteration from the
    /// loop head met with the guard-true constraint; `None` for
    /// `while finite`, whose constraint the domain cannot state.
    pub after_one: Option<AbsEmpty>,
}

/// Does a guard variable with emptiness `e` make the test false?
pub(crate) fn refutes(kind: LoopKind, e: AbsEmpty) -> bool {
    match kind {
        LoopKind::Empty => e == AbsEmpty::NonEmpty,
        LoopKind::Singleton => e == AbsEmpty::Empty,
        LoopKind::Finite => false,
    }
}

impl Analysis {
    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Is a specific code present?
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct VarState {
    rank: AbsRank,
    empty: AbsEmpty,
    assigned: Assigned,
}

impl VarState {
    /// The state of a never-assigned variable: reads yield the empty
    /// rank-0 value (a semantic guarantee of all three interpreters,
    /// not an error).
    const UNSET: VarState = VarState {
        rank: AbsRank::Known(0),
        empty: AbsEmpty::Empty,
        assigned: Assigned::No,
    };

    /// A widened loop head's body-written variables.
    const TOP: VarState = VarState {
        rank: AbsRank::Top,
        empty: AbsEmpty::Top,
        assigned: Assigned::Maybe,
    };
}

impl Lattice for VarState {
    fn join(&self, other: &VarState) -> VarState {
        VarState {
            rank: self.rank.join(other.rank),
            empty: self.empty.join(other.empty),
            assigned: self.assigned.join(other.assigned),
        }
    }
}

type Env = Vec<VarState>;

struct Analyzer<'a> {
    schema: &'a Schema,
    dialect: Dialect,
    budget: &'a Budget,
    diags: Vec<Diagnostic>,
    /// True while iterating a loop body to fixpoint — findings are
    /// suppressed (the post-fixpoint reporting pass emits them once).
    mute: bool,
    /// An error-severity finding holds on every run (see module doc).
    definite_error: bool,
    path: NodePath,
    /// Facts of each loop the reporting walk reached.
    loops: Vec<LoopFacts>,
    /// The `W0106` rewrite of each assignment that has one, keyed by
    /// the statement's path.
    rewrites: BTreeMap<NodePath, Term>,
}

impl Analyzer<'_> {
    fn emit(&mut self, code: Code, message: String, note: Option<String>, definite: bool) {
        if self.mute {
            return;
        }
        if code.severity() == Severity::Error && definite {
            self.definite_error = true;
        }
        let mut d = Diagnostic::new(code, self.path.clone(), message);
        if let Some(n) = note {
            d = d.with_note(n);
        }
        self.diags.push(d);
    }

    fn var_ranks(&self, env: &Env) -> Vec<AbsRank> {
        env.iter().map(|s| s.rank).collect()
    }

    /// The abstract value of a term, emitting term-level findings.
    /// `must` marks the must-execute spine (for error definiteness).
    fn eval_term(&mut self, t: &Term, env: &Env, must: bool) -> (AbsRank, AbsEmpty) {
        const NONE: (AbsRank, AbsEmpty) = (AbsRank::Top, AbsEmpty::Top);
        // The operands' values (`NONE` where `t` has fewer).
        let ((ra, ea), (rb, eb)) = match t {
            Term::Var(v) => {
                let s = env.get(*v).copied().unwrap_or(VarState::UNSET);
                if s.assigned == Assigned::No {
                    self.emit(
                        Code::UseBeforeAssign,
                        format!("`Y{}` is read before any assignment", v + 1),
                        Some("an unassigned variable evaluates to the empty rank-0 value".into()),
                        must,
                    );
                }
                return (s.rank, s.empty);
            }
            Term::And(a, b) => (self.eval_term(a, env, must), self.eval_term(b, env, must)),
            Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => {
                (self.eval_term(e, env, must), NONE)
            }
            Term::E | Term::Rel(_) | Term::Const(_) => (NONE, NONE),
        };
        let mut rank = step(t, self.schema, self.dialect, &[ra.into(), rb.into()]).rank;
        let fcf = self.dialect == Dialect::QlfPlus;
        let empty = match t {
            // E is the diagonal on D (QL/QLhs) — non-empty under the
            // non-empty-domain assumption — but on Df for QLf+, and Df
            // may genuinely be empty.
            Term::E if fcf => AbsEmpty::Top,
            // `Cₐ` is a rank-1 singleton on every backend (the class of
            // `a` over C_B representations) — never empty.
            Term::E | Term::Const(_) => AbsEmpty::NonEmpty,
            Term::Rel(i) => {
                if *i >= self.schema.len() {
                    self.emit(
                        Code::NoSuchRelation,
                        format!(
                            "`R{}` does not exist: the schema has {} relation(s)",
                            i + 1,
                            self.schema.len()
                        ),
                        None,
                        must,
                    );
                }
                AbsEmpty::Top
            }
            Term::And(a, b) => {
                match (ra, rb) {
                    (AbsRank::Known(x), AbsRank::Known(y)) if x != y => self.emit(
                        Code::RankMismatch,
                        format!("`&` applied to rank {x} and rank {y}"),
                        Some(format!("in `{t}`: `{a}` has rank {x}, `{b}` has rank {y}")),
                        must,
                    ),
                    (AbsRank::Known(_), AbsRank::Known(_)) => {}
                    // Operands with the same simplified form denote
                    // the same value on every run, so their ranks
                    // agree even when neither is individually
                    // provable (`Y & Y` at a control-flow join).
                    _ if self.provably_same_value(a, b, env) => rank = ra.join(rb),
                    // `step`'s rank is ⊤ here.
                    _ => self.emit(
                        Code::UnprovableRank,
                        format!("cannot prove the operands of `&` in `{t}` have equal ranks"),
                        Some("ranks that disagree across control-flow paths degrade to ⊤".into()),
                        must,
                    ),
                }
                if ea == AbsEmpty::Empty || eb == AbsEmpty::Empty {
                    AbsEmpty::Empty
                } else {
                    AbsEmpty::Top
                }
            }
            // Complement is exact at rank 0 (the full rank-0 value {()}
            // is non-empty over ANY domain); at higher proven ranks, ¬∅
            // is the full relation — non-empty under the
            // non-empty-domain assumption.
            Term::Not(_) => match (ra, ea) {
                (AbsRank::Known(0), AbsEmpty::Empty) => AbsEmpty::NonEmpty,
                (AbsRank::Known(0), AbsEmpty::NonEmpty) => AbsEmpty::Empty,
                (AbsRank::Known(_), AbsEmpty::Empty) => AbsEmpty::NonEmpty,
                _ => AbsEmpty::Top,
            },
            // e↑ = e × D (or × Df for QLf+, which may be empty).
            Term::Up(_) => match ea {
                AbsEmpty::Empty => AbsEmpty::Empty,
                AbsEmpty::NonEmpty if !fcf => AbsEmpty::NonEmpty,
                _ => AbsEmpty::Top,
            },
            Term::Down(e) => match ra {
                AbsRank::Known(0) => {
                    self.emit(
                        Code::DownOnRankZero,
                        format!("`down` on the rank-0 term `{e}`"),
                        Some(
                            "this always yields the empty rank-0 value (the counter \
                             zero-test idiom); it is not an error"
                                .into(),
                        ),
                        must,
                    );
                    AbsEmpty::Empty
                }
                AbsRank::Known(_) => ea,
                // Rank unknown: a rank-0 operand would make the result
                // empty, so only Empty survives.
                _ if ea == AbsEmpty::Empty => AbsEmpty::Empty,
                _ => AbsEmpty::Top,
            },
            Term::Swap(_) | Term::Var(_) => ea,
        };
        (rank, empty)
    }

    fn exec(&mut self, p: &Prog, env: &mut Env, must: bool) {
        match p {
            Prog::Assign(v, t) => {
                self.lint_simplifiable(t, env);
                let (rank, empty) = self.eval_term(t, env, must);
                if *v >= env.len() {
                    env.resize(*v + 1, VarState::UNSET);
                }
                env[*v] = VarState {
                    rank,
                    empty,
                    assigned: Assigned::Yes,
                };
            }
            Prog::Seq(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    self.path.push(i as u32);
                    self.exec(q, env, must);
                    self.path.pop();
                }
            }
            Prog::WhileEmpty(v, body) => self.exec_loop(LoopKind::Empty, *v, body, env, must),
            Prog::WhileSingleton(v, body) => {
                self.exec_loop(LoopKind::Singleton, *v, body, env, must)
            }
            Prog::WhileFinite(v, body) => self.exec_loop(LoopKind::Finite, *v, body, env, must),
        }
    }

    /// Diagnoses one `while` and leaves `env` at its exit state. The
    /// body is iterated to a fixpoint with diagnostics muted, then (in
    /// the reporting walk only) the loop's [`LoopFacts`] are recorded
    /// and the body is re-walked once, diagnostics on, at the
    /// post-fixpoint environment — an over-approximation of the state
    /// after 0, 1, 2, … iterations.
    fn exec_loop(&mut self, kind: LoopKind, v: VarId, body: &Prog, env: &mut Env, must: bool) {
        let illegal = match kind {
            LoopKind::Empty => None,
            LoopKind::Singleton => {
                (!self.dialect.admits_singleton_test()).then_some(Code::IllegalSingletonTest)
            }
            LoopKind::Finite => {
                (!self.dialect.admits_finiteness_test()).then_some(Code::IllegalFinitenessTest)
            }
        };
        if let Some(code) = illegal {
            self.emit(
                code,
                format!(
                    "`while {}(Y{})` is not admitted by {}",
                    kind.keyword(),
                    v + 1,
                    self.dialect
                ),
                Some(format!(
                    "{} rejects it before running the program",
                    self.dialect
                )),
                true,
            );
        }
        let entry = env[v];
        if refutes(kind, entry.empty) {
            let why = match kind {
                LoopKind::Singleton => format!(
                    "`Y{}` is provably empty here, so `|Y{}| = 1` is false",
                    v + 1,
                    v + 1
                ),
                _ => format!("`Y{}` is provably non-empty here", v + 1),
            };
            self.emit(
                Code::UnreachableLoop,
                format!("{why}: this loop body never runs"),
                None,
                false,
            );
        }
        let reporting = !self.mute;
        self.mute = true;
        let budget = self.budget;
        *env = fix::var_head(budget, body, std::mem::take(env), VarState::TOP, |head| {
            let mut out = head.clone();
            self.path.push(0);
            self.exec(body, &mut out, false);
            self.path.pop();
            out
        });
        let head = env[v];
        if reporting {
            let after_one = self.one_iteration(kind, v, body, env);
            self.loops.push(LoopFacts {
                path: self.path.clone(),
                guard: v,
                kind,
                on_spine: must,
                entry_rank: entry.rank,
                entry_empty: entry.empty,
                head_empty: head.empty,
                after_one,
            });
            self.mute = false;
            let mut replay = env.clone();
            self.path.push(0);
            self.exec(body, &mut replay, false);
            self.path.pop();
        }
        self.mute = !reporting;
        let divergent = kind == LoopKind::Empty && head.empty == AbsEmpty::Empty;
        if divergent {
            self.emit(
                Code::DivergentLoop,
                format!(
                    "`Y{}` is provably empty at every iteration: `while empty(Y{})` never exits",
                    v + 1,
                    v + 1
                ),
                None,
                false,
            );
        }
        // Leaving `while empty` means the guard went false, i.e.
        // |Y| ≠ 0; leaving `while finite` means |Y| = ∞, hence
        // non-empty. Leaving `while single` says nothing about
        // emptiness.
        if kind != LoopKind::Singleton && env[v].empty == AbsEmpty::Top {
            env[v].empty = AbsEmpty::NonEmpty;
        }
    }

    /// The probe behind termination's rule B1: one muted pass over
    /// `body` from the loop-head state `head` met with the guard-true
    /// constraint (the only states an iteration starts from). Returns
    /// the guard's emptiness afterwards; `None` for `while finite`,
    /// whose guard-true constraint the emptiness domain cannot state.
    fn one_iteration(
        &mut self,
        kind: LoopKind,
        v: VarId,
        body: &Prog,
        head: &Env,
    ) -> Option<AbsEmpty> {
        let mut env = head.clone();
        env[v].empty = match kind {
            LoopKind::Empty => AbsEmpty::Empty,
            LoopKind::Singleton => AbsEmpty::NonEmpty,
            LoopKind::Finite => return None,
        };
        self.path.push(0);
        self.exec(body, &mut env, false);
        self.path.pop();
        Some(env[v].empty)
    }

    /// Do `a` and `b` provably evaluate to the same value here? True
    /// when they share a simplified form under this program point's
    /// rank oracle — the rewrites preserve semantics, so equal forms
    /// mean equal runtime values (and hence equal ranks). This is also
    /// what keeps the verdict invariant under
    /// [`crate::simplify_prog_checked`], which collapses `a & a` to
    /// `a`.
    fn provably_same_value(&self, a: &Term, b: &Term, env: &Env) -> bool {
        if a == b {
            return true;
        }
        let ranks = self.var_ranks(env);
        let schema = self.schema;
        let oracle = move |u: &Term| term_rank(u, schema, &ranks).known();
        recdb_qlhs::simplify_term_with(a, &oracle) == recdb_qlhs::simplify_term_with(b, &oracle)
    }

    /// `W0106`: the assigned term has a rewrite the rank oracle can
    /// justify at this program point.
    fn lint_simplifiable(&mut self, t: &Term, env: &Env) {
        if self.mute {
            return;
        }
        let ranks = self.var_ranks(env);
        let schema = self.schema;
        let oracle = move |u: &Term| term_rank(u, schema, &ranks).known();
        let s = recdb_qlhs::simplify_term_with(t, &oracle);
        if s != *t {
            self.emit(
                Code::SimplifiableTerm,
                format!("`{t}` simplifies to `{s}`"),
                Some("double negation, self-intersection, or a rank-provable swap".into()),
                false,
            );
            self.rewrites.insert(self.path.clone(), s);
        }
    }
}

/// `W0102`: variables assigned somewhere but read nowhere (neither in
/// a term nor as a loop guard). `Y1` is exempt — it is the program's
/// output.
fn dead_variable_lints(p: &Prog) -> Vec<Diagnostic> {
    fn walk(p: &Prog, path: &mut NodePath, writes: &mut BTreeMap<VarId, NodePath>) {
        match p {
            Prog::Assign(v, _) => {
                writes.entry(*v).or_insert_with(|| path.clone());
            }
            Prog::Seq(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    path.push(i as u32);
                    walk(q, path, writes);
                    path.pop();
                }
            }
            Prog::WhileEmpty(_, body)
            | Prog::WhileSingleton(_, body)
            | Prog::WhileFinite(_, body) => {
                path.push(0);
                walk(body, path, writes);
                path.pop();
            }
        }
    }
    let mut reads = std::collections::BTreeSet::new();
    crate::dataflow::prog_reads(p, &mut reads);
    let mut writes = BTreeMap::new();
    walk(p, &mut Vec::new(), &mut writes);
    writes
        .into_iter()
        .filter(|(v, _)| *v != 0 && !reads.contains(v))
        .map(|(v, path)| {
            Diagnostic::new(
                Code::DeadVariable,
                path,
                format!("`Y{}` is assigned but never read", v + 1),
            )
            .with_note("Y1 is the output; every other variable should feed it".to_string())
        })
        .collect()
}

/// Walks `p` once, reporting: the analyzer's final state and the
/// exit environment. Bumps no counter; `budget` pays for the loop-head
/// rounds.
fn walk<'a>(
    p: &Prog,
    schema: &'a Schema,
    dialect: Dialect,
    budget: &'a Budget,
) -> (Analyzer<'a>, Env) {
    let nvars = p.max_var().map_or(1, |m| m + 1).max(1);
    let mut a = Analyzer {
        schema,
        dialect,
        budget,
        diags: Vec::new(),
        mute: false,
        definite_error: false,
        path: Vec::new(),
        loops: Vec::new(),
        rewrites: BTreeMap::new(),
    };
    let mut env: Env = vec![VarState::UNSET; nvars];
    a.exec(p, &mut env, true);
    (a, env)
}

/// The `W0106` rewrite of every assignment in `p` that has one, keyed
/// by statement path — what [`crate::simplify_prog_checked`] applies.
/// Ranks do not depend on the dialect, so neither do the rewrites.
pub(crate) fn rewrites(p: &Prog, schema: &Schema) -> BTreeMap<NodePath, Term> {
    walk(p, schema, Dialect::Ql, &Budget::default()).0.rewrites
}

/// Analyzes `p` against `schema` as a `dialect` program.
///
/// This is the front door of the crate: rank/arity inference, dialect
/// checking, lints, the [`Verdict`] and the per-loop [`LoopFacts`] in
/// one walk. Bumps the `analyze.programs` and
/// `analyze.diagnostics.<code>` counters when a `recdb-obs` recorder
/// is installed.
pub fn analyze_prog(p: &Prog, schema: &Schema, dialect: Dialect) -> Analysis {
    recdb_obs::count("analyze.programs", 1);
    let _t = recdb_obs::span("analyze.prog_seconds");
    let budget = Budget::default();
    let (mut a, env) = walk(p, schema, dialect, &budget);
    budget.record();
    a.diags.extend(dead_variable_lints(p));
    a.diags.iter().for_each(Diagnostic::record);
    let verdict = if a.definite_error {
        Verdict::Unsafe
    } else if a
        .diags
        .iter()
        .any(|d| d.severity() == Severity::Error || d.code == Code::UnprovableRank)
    {
        Verdict::Unknown
    } else {
        Verdict::Safe
    };
    Analysis {
        dialect,
        verdict,
        diagnostics: a.diags,
        exit_ranks: env.iter().map(|s| s.rank).collect(),
        loops: a.loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_qlhs::parse_program;

    fn s2() -> Schema {
        Schema::new(vec![2])
    }

    fn analyze_src(src: &str, dialect: Dialect) -> Analysis {
        analyze_prog(&parse_program(src).unwrap(), &s2(), dialect)
    }

    #[test]
    fn straight_line_mismatch_is_unsafe() {
        let a = analyze_src("Y1 := E & down(E);", Dialect::Ql);
        assert_eq!(a.verdict, Verdict::Unsafe);
        assert!(a.has(Code::RankMismatch));
    }

    #[test]
    fn clean_program_is_safe_with_exact_ranks() {
        let a = analyze_src("Y2 := up(R1); Y1 := swap(Y2) & Y2;", Dialect::Ql);
        assert_eq!(a.verdict, Verdict::Safe, "{:?}", a.diagnostics);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.exit_ranks[0], AbsRank::Known(3));
        assert_eq!(a.exit_ranks[1], AbsRank::Known(3));
    }

    #[test]
    fn missing_relation_is_unsafe_on_the_spine() {
        let a = analyze_src("Y1 := R2;", Dialect::Ql);
        assert_eq!(a.verdict, Verdict::Unsafe);
        assert!(a.has(Code::NoSuchRelation));
    }

    #[test]
    fn loop_body_mismatch_is_unknown_not_unsafe() {
        // The defect sits in a body the analysis cannot prove runs.
        let a = analyze_src(
            "Y1 := E; while single(Y1) { Y2 := E & down(E); }",
            Dialect::Qlhs,
        );
        assert_eq!(a.verdict, Verdict::Unknown);
        assert!(a.has(Code::RankMismatch));
    }

    #[test]
    fn dialect_violation_is_unsafe_even_inside_a_loop() {
        // Interpreters statically reject illegal tests in run(), so
        // reachability does not matter.
        let a = analyze_src(
            "Y1 := E; while empty(Y2) { while single(Y1) { Y1 := E; } Y2 := E; }",
            Dialect::Ql,
        );
        assert_eq!(a.verdict, Verdict::Unsafe);
        assert!(a.has(Code::IllegalSingletonTest));
    }

    #[test]
    fn rank_disagreement_across_loop_degrades_to_unknown() {
        // Y2 is rank 0 before the loop and rank 1 after one iteration:
        // the join is ⊤, so `Y2 & E` is unprovable, not a definite
        // mismatch.
        let a = analyze_src(
            "while empty(Y1) { Y2 := up(Y2); Y1 := E; } Y1 := Y2 & E;",
            Dialect::Ql,
        );
        assert_eq!(a.verdict, Verdict::Unknown);
        assert!(a.has(Code::UnprovableRank));
        assert!(!a.has(Code::RankMismatch));
    }

    #[test]
    fn self_intersection_agrees_even_at_top_rank() {
        // Y1's rank is ⊤ at the loop fixpoint, but `Y1 & Y1` cannot
        // mismatch (same value on both sides) — and neither can
        // `!!Y1 & Y1`, whose operands share a simplified form.
        let a = analyze_src(
            "while empty(Y1) { Y2 := R1; Y1 := Y1 & Y1; Y1 := Y2; Y1 := E; }",
            Dialect::Ql,
        );
        assert!(!a.has(Code::UnprovableRank), "{:?}", a.diagnostics);
        assert_eq!(a.verdict, Verdict::Safe);
        let a = analyze_src(
            "while empty(Y1) { Y2 := up(Y2); Y1 := !!Y2 & Y2; Y1 := E; }",
            Dialect::Ql,
        );
        assert!(!a.has(Code::UnprovableRank), "{:?}", a.diagnostics);
    }

    #[test]
    fn use_before_assign_and_down_on_rank0_are_warnings_only() {
        let a = analyze_src("Y1 := down(Y2);", Dialect::Ql);
        // Y2 unassigned → rank 0; down on it → empty rank-0. No error.
        assert!(a.has(Code::UseBeforeAssign));
        assert!(a.has(Code::DownOnRankZero));
        assert_eq!(a.verdict, Verdict::Safe);
    }

    #[test]
    fn dead_variable_flagged_but_output_exempt() {
        let a = analyze_src("Y1 := E; Y3 := E;", Dialect::Ql);
        let dead: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::DeadVariable)
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("Y3"));
        assert_eq!(a.verdict, Verdict::Safe);
    }

    #[test]
    fn unreachable_and_divergent_loops() {
        // Guard var provably non-empty on entry → body unreachable.
        let a = analyze_src("Y1 := E; while empty(Y1) { Y1 := E; }", Dialect::Ql);
        assert!(a.has(Code::UnreachableLoop), "{:?}", a.diagnostics);
        // Guard var provably empty at every iteration → divergence.
        let a = analyze_src("while empty(Y1) { Y2 := E; }", Dialect::Ql);
        assert!(a.has(Code::DivergentLoop), "{:?}", a.diagnostics);
        // A loop that genuinely flips its guard gets neither lint.
        let a = analyze_src("while empty(Y1) { Y1 := E; }", Dialect::Ql);
        assert!(!a.has(Code::UnreachableLoop));
        assert!(!a.has(Code::DivergentLoop));
    }

    #[test]
    fn while_empty_exit_refines_to_nonempty() {
        // R1's emptiness is unknown, so inside/after the first loop
        // Y1 is ⊤ — but a normal exit from `while empty(Y1)` means
        // Y1 ≠ ∅, so the second loop's body is unreachable.
        let a = analyze_src(
            "while empty(Y1) { Y1 := R1; } while empty(Y1) { Y2 := E; }",
            Dialect::Ql,
        );
        assert!(a.has(Code::UnreachableLoop), "{:?}", a.diagnostics);
    }

    #[test]
    fn simplifiable_term_lint_uses_inferred_ranks() {
        // swap(swap(R1)) is provably rank 2 with the schema.
        let a = analyze_src("Y1 := swap(swap(R1));", Dialect::Ql);
        assert!(a.has(Code::SimplifiableTerm), "{:?}", a.diagnostics);
        // Plain R1 has nothing to simplify.
        let a = analyze_src("Y1 := R1;", Dialect::Ql);
        assert!(!a.has(Code::SimplifiableTerm));
    }

    #[test]
    fn analyzer_dialect_findings_match_the_qlhs_checker() {
        let progs = [
            "Y1 := E;",
            "while single(Y1) { Y1 := E; }",
            "while finite(Y1) { Y1 := E; }",
            "while empty(Y1) { while finite(Y2) { Y2 := E; } Y1 := E; }",
        ];
        for src in progs {
            let p = parse_program(src).unwrap();
            for d in Dialect::ALL {
                let a = analyze_prog(&p, &s2(), d);
                let analyzer_rejects =
                    a.has(Code::IllegalSingletonTest) || a.has(Code::IllegalFinitenessTest);
                assert_eq!(analyzer_rejects, d.check(&p).is_err(), "{src} under {d}");
            }
        }
    }

    #[test]
    fn nested_loop_diagnostics_are_not_duplicated() {
        let a = analyze_src(
            "while empty(Y1) { while empty(Y2) { Y3 := E & down(E); Y2 := E; } Y1 := E; }",
            Dialect::Ql,
        );
        let mismatches = a
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::RankMismatch)
            .count();
        assert_eq!(mismatches, 1, "{:?}", a.diagnostics);
    }

    #[test]
    fn paths_locate_the_offending_statement() {
        let a = analyze_src("Y1 := E; Y1 := E & down(E);", Dialect::Ql);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::RankMismatch)
            .unwrap();
        assert_eq!(d.path, vec![1]);
    }
}
