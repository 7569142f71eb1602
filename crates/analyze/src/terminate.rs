//! Termination and progress: proved per-loop iteration bounds and
//! proved divergence.
//!
//! ## Where the bounds come from
//!
//! Three bound rules, each a *proof* (an upper bound on the number of
//! iterations of the loop on every run, on every database):
//!
//! * **B0 — refuted at entry.** The guard is provably false when the
//!   loop is first reached (`while empty(Y)` with `Y` provably
//!   non-empty, `while single(Y)` with `Y` provably empty): the body
//!   runs 0 times.
//! * **B1 — one abstract iteration refutes the guard.** Run the body
//!   once, abstractly, from the loop-head fixpoint environment *met
//!   with the guard-true constraint* (the only states an iteration can
//!   start from). If the resulting state refutes the guard, no
//!   iteration can be followed by another: the body runs at most once.
//! * **B2 — the refinement bound (QLhs only).** For
//!   `while single(Yv) { …; Yv := up(Yv); …}` where *every* write to
//!   `Yv` in the body is syntactically `Yv := up(Yv)` and at least one
//!   sits on the body's must-execute spine: over the infinite
//!   homogeneous databases `HsInterp` serves, `↑` of a rank-`r ≥ 1`
//!   singleton has at least two `≅_B`-classes — `u·u_last` and
//!   `u·fresh` have different equality patterns, and an isomorphism
//!   preserves equality patterns — so the guard `|Yv| = 1` is false at
//!   the next head. This is exactly the tree-refinement structure of
//!   P3.7/C3.3: a tuple's offspring in `Tⁿ⁺¹` are never a single
//!   class once the tuple has positive rank, and distinct parents
//!   have disjoint offspring (`Vⁿ⁺¹ᵣ↓ = Vⁿᵣ₊₁`), so `|↑X| ≥ |X|`.
//!   Bound: 1 iteration from rank ≥ 1, 2 from rank 0 (the first `↑`
//!   may land on a single class of rank-1 tuples — e.g. the infinite
//!   clique — but the second cannot).
//!
//! `while finite(Y)` never gets a bound: the analysis carries no
//! finiteness domain, and QLf+ loops can genuinely pump.
//!
//! B0, B1 and divergence read the [`LoopFacts`](crate::prog::LoopFacts)
//! the safety walk ([`crate::analyze_prog`]) records at each loop; this
//! pass runs no abstract interpretation of its own, so it is exactly
//! as precise as safety (B0 holds exactly where `W0103` is reported).
//!
//! ## Divergence
//!
//! `while empty(Y)` whose loop-head fixpoint proves `Y` empty at
//! *every* iteration (the same fact behind the `W0104` lint) never
//! exits once entered — and the fixpoint includes the entry state, so
//! it *is* entered. If such a loop sits on the program's must-execute
//! spine and the safety verdict is [`Verdict::Safe`] (no run can
//! bail out with an error first), every run of the whole program
//! diverges: control either reaches the loop (and stays) or is
//! already stuck inside an earlier non-terminating loop.
//!
//! The [`Verdict::Safe`]-style asymmetry applies here too:
//! `Terminates` and `Diverges` are proofs, `Unknown` is honest
//! ignorance. The conformance check `TERMINATE-BOUND` replays proved
//! bounds against the real interpreters with a counting executor.

use crate::diag::{Code, Diagnostic};
use crate::prog::{refutes, Analysis, Verdict};
use crate::rank::{AbsEmpty, AbsRank};
use recdb_core::Schema;
use recdb_qlhs::{Dialect, LoopKind, NodePath, Prog, Term, VarId};
use std::collections::BTreeMap;

/// What the analysis proved about one loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopBound {
    /// The body runs at most this many times, on every run and every
    /// database (for B2: every database the loop's dialect runs on).
    Bounded(u64),
    /// Once entered, the loop never exits — and its fixpoint proves it
    /// is entered whenever reached.
    Divergent,
    /// No bound proved.
    Unknown,
}

/// One loop of the program, with the bound proved for it.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// Tree path of the `while` statement (same convention as
    /// [`Diagnostic::path`]).
    pub path: NodePath,
    /// The guard variable.
    pub guard: VarId,
    /// The guard's test.
    pub kind: LoopKind,
    /// The proved bound, if any.
    pub bound: LoopBound,
    /// Is the loop on the program's must-execute spine (not nested in
    /// any other loop's body)?
    pub on_spine: bool,
}

/// The whole-program termination verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TerminationVerdict {
    /// Every run of the program executes at most `iterations` loop
    /// iterations in total (summed over all loops, nested loops
    /// multiplied out) — so with enough fuel, every run completes.
    Terminates {
        /// The proved whole-program iteration budget.
        iterations: u64,
    },
    /// Every run of the program fails to halt.
    Diverges,
    /// Neither proved.
    Unknown,
}

impl std::fmt::Display for TerminationVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerminationVerdict::Terminates { iterations } => {
                write!(f, "terminates (≤ {iterations} iterations)")
            }
            TerminationVerdict::Diverges => f.write_str("diverges"),
            TerminationVerdict::Unknown => f.write_str("unknown"),
        }
    }
}

/// The result of [`analyze_termination`].
#[derive(Clone, Debug)]
pub struct TerminationAnalysis {
    /// The whole-program verdict.
    pub verdict: TerminationVerdict,
    /// Every loop in the program, outer before inner, with its bound.
    pub loops: Vec<LoopInfo>,
    /// `W0401`/`W0402` findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl TerminationAnalysis {
    /// The proved bound of the loop at `path`, if any.
    pub fn bound_at(&self, path: &[u32]) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.path == path)
    }
}

/// B2: the refinement bound. Applies to QLhs `while single(Yv)` loops
/// whose every write to `Yv` is syntactically `Yv := up(Yv)`, with at
/// least one such write on the body's must-execute spine, and whose
/// entry rank is proved. See the module doc for the P3.7/C3.3
/// justification.
fn rank_growth_bound(
    dialect: Dialect,
    kind: LoopKind,
    v: VarId,
    body: &Prog,
    entry_rank: AbsRank,
) -> Option<u64> {
    if dialect != Dialect::Qlhs || kind != LoopKind::Singleton {
        return None;
    }
    fn scan(p: &Prog, v: VarId, spine: bool, all_up: &mut bool, spine_up: &mut bool) {
        match p {
            Prog::Assign(w, t) => {
                if *w == v {
                    let is_self_up = matches!(t, Term::Up(inner) if **inner == Term::Var(v));
                    if is_self_up {
                        if spine {
                            *spine_up = true;
                        }
                    } else {
                        *all_up = false;
                    }
                }
            }
            Prog::Seq(ps) => {
                for q in ps {
                    scan(q, v, spine, all_up, spine_up);
                }
            }
            Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b) => {
                scan(b, v, false, all_up, spine_up);
            }
        }
    }
    let (mut all_up, mut spine_up) = (true, false);
    scan(body, v, true, &mut all_up, &mut spine_up);
    let r = entry_rank.known()?;
    if all_up && spine_up {
        Some(if r >= 1 { 1 } else { 2 })
    } else {
        None
    }
}

/// Total iteration budget: sum over a `Seq`, and a loop bounded by `b`
/// whose body needs `t` contributes `b + b·t` (saturating). `None` if
/// any loop on the walk lacks a proved bound.
fn total_bound(p: &Prog, path: &mut NodePath, bounds: &BTreeMap<NodePath, u64>) -> Option<u64> {
    match p {
        Prog::Assign(..) => Some(0),
        Prog::Seq(ps) => {
            let mut sum: u64 = 0;
            for (i, q) in ps.iter().enumerate() {
                path.push(i as u32);
                let t = total_bound(q, path, bounds);
                path.pop();
                sum = sum.saturating_add(t?);
            }
            Some(sum)
        }
        Prog::WhileEmpty(_, body) | Prog::WhileSingleton(_, body) | Prog::WhileFinite(_, body) => {
            let b = *bounds.get(path)?;
            path.push(0);
            let t = total_bound(body, path, bounds);
            path.pop();
            Some(b.saturating_add(b.saturating_mul(t?)))
        }
    }
}

/// The body of the `while` statement at `path` in `p`, if there is one.
fn loop_body_at<'a>(p: &'a Prog, path: &[u32]) -> Option<&'a Prog> {
    let (node, rest) = match (p, path.split_first()) {
        (Prog::Seq(ps), Some((&i, rest))) => (ps.get(i as usize)?, rest),
        (
            Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b),
            Some((0, rest)),
        ) => (&**b, rest),
        (Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b), None) => {
            return Some(b)
        }
        _ => return None,
    };
    loop_body_at(node, rest)
}

/// Analyzes the termination behaviour of `p` under `dialect`.
///
/// `safety` is the program's [`crate::analyze_prog`] result under the
/// same `dialect`: its per-loop [`LoopFacts`](crate::prog::LoopFacts)
/// carry the entry states, loop-head fixpoints and one-iteration
/// probes rules B0, B1 and divergence read, so this pass walks no
/// abstract state of its own (the `schema` is already folded into
/// those facts). The `Diverges` verdict also leans on
/// [`Verdict::Safe`] to rule out runs that error their way past a
/// divergent loop. Bumps the `analyze.terminate.*` counters when a
/// `recdb-obs` recorder is installed.
pub fn analyze_termination(
    p: &Prog,
    _schema: &Schema,
    dialect: Dialect,
    safety: &Analysis,
) -> TerminationAnalysis {
    recdb_obs::count("analyze.terminate.programs", 1);
    let mut loops = Vec::with_capacity(safety.loops.len());
    let mut diagnostics = Vec::new();
    for f in &safety.loops {
        let bound = if refutes(f.kind, f.entry_empty) {
            // B0: guard provably false the first time the loop is
            // reached.
            LoopBound::Bounded(0)
        } else if f.kind == LoopKind::Empty && f.head_empty == AbsEmpty::Empty {
            // Guard true at every iteration (the fixpoint covers every
            // loop-head state, entry included), so the loop is entered
            // and never left.
            LoopBound::Divergent
        } else if f.after_one.is_some_and(|e| refutes(f.kind, e)) {
            LoopBound::Bounded(1)
        } else if let Some(b) = loop_body_at(p, &f.path)
            .and_then(|body| rank_growth_bound(dialect, f.kind, f.guard, body, f.entry_rank))
        {
            LoopBound::Bounded(b)
        } else {
            LoopBound::Unknown
        };
        let finding = match bound {
            LoopBound::Unknown => Some(
                Diagnostic::new(
                    Code::UnboundedLoop,
                    f.path.clone(),
                    format!(
                        "no iteration bound proved for this `while` on `Y{}`",
                        f.guard + 1
                    ),
                )
                .with_note(
                    "neither the guard-refutation rule (B0/B1) nor the QLhs \
                     refinement bound (B2) applies"
                        .to_string(),
                ),
            ),
            LoopBound::Divergent => Some(Diagnostic::new(
                Code::ProvedDivergentLoop,
                f.path.clone(),
                format!(
                    "`Y{}` is provably empty at every iteration: this loop is \
                     entered and never exits",
                    f.guard + 1
                ),
            )),
            LoopBound::Bounded(_) => None,
        };
        if let Some(d) = finding {
            d.record();
            diagnostics.push(d);
        }
        loops.push(LoopInfo {
            path: f.path.clone(),
            guard: f.guard,
            kind: f.kind,
            bound,
            on_spine: f.on_spine,
        });
    }
    let bounds: BTreeMap<NodePath, u64> = loops
        .iter()
        .filter_map(|l| match l.bound {
            LoopBound::Bounded(b) => Some((l.path.clone(), b)),
            _ => None,
        })
        .collect();
    let spine_divergence = safety.verdict == Verdict::Safe
        && loops
            .iter()
            .any(|l| l.on_spine && l.bound == LoopBound::Divergent);
    let verdict = if spine_divergence {
        TerminationVerdict::Diverges
    } else if let Some(iterations) = total_bound(p, &mut Vec::new(), &bounds) {
        TerminationVerdict::Terminates { iterations }
    } else {
        TerminationVerdict::Unknown
    };
    recdb_obs::count(
        match verdict {
            TerminationVerdict::Terminates { .. } => "analyze.terminate.verdict.terminates",
            TerminationVerdict::Diverges => "analyze.terminate.verdict.diverges",
            TerminationVerdict::Unknown => "analyze.terminate.verdict.unknown",
        },
        1,
    );
    TerminationAnalysis {
        verdict,
        loops,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_prog;
    use recdb_qlhs::parse_program;

    fn s2() -> Schema {
        Schema::new(vec![2])
    }

    fn term_of(src: &str, dialect: Dialect) -> TerminationAnalysis {
        let p = parse_program(src).unwrap();
        let safety = analyze_prog(&p, &s2(), dialect);
        analyze_termination(&p, &s2(), dialect, &safety)
    }

    #[test]
    fn straight_line_terminates_with_zero_iterations() {
        let t = term_of("Y1 := E;", Dialect::Ql);
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 0 });
        assert!(t.loops.is_empty());
    }

    #[test]
    fn guard_flip_gives_bound_one() {
        let t = term_of("while empty(Y1) { Y1 := E; }", Dialect::Ql);
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 1 });
        assert_eq!(t.loops.len(), 1);
        assert_eq!(t.loops[0].bound, LoopBound::Bounded(1));
        assert!(t.loops[0].on_spine);
    }

    #[test]
    fn refuted_at_entry_gives_bound_zero() {
        let t = term_of("Y1 := E; while empty(Y1) { Y2 := R1; }", Dialect::Ql);
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 0 });
        assert_eq!(t.loops[0].bound, LoopBound::Bounded(0));
    }

    #[test]
    fn divergent_loop_is_proved_when_safe() {
        let t = term_of("while empty(Y1) { Y2 := E; }", Dialect::Ql);
        assert_eq!(t.verdict, TerminationVerdict::Diverges);
        assert_eq!(t.loops[0].bound, LoopBound::Divergent);
        assert!(t
            .diagnostics
            .iter()
            .any(|d| d.code == Code::ProvedDivergentLoop));
    }

    #[test]
    fn divergence_claim_needs_the_safety_verdict() {
        // Same shape, but the body has a definite rank error: runs end
        // `Err`, not in an infinite loop — no Diverges claim.
        let t = term_of(
            "Y3 := E & down(E); while empty(Y1) { Y2 := E; }",
            Dialect::Ql,
        );
        assert_eq!(t.verdict, TerminationVerdict::Unknown);
        assert_eq!(t.loops[0].bound, LoopBound::Divergent);
    }

    #[test]
    fn qlhs_refinement_bound_from_rank_one() {
        // Yv starts at rank 2 (E): one up-iteration breaks |Y|=1.
        let t = term_of("Y2 := E; while single(Y2) { Y2 := up(Y2); }", Dialect::Qlhs);
        assert_eq!(t.loops[0].bound, LoopBound::Bounded(1));
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 1 });
    }

    #[test]
    fn qlhs_refinement_bound_from_rank_zero_is_two() {
        // down(down(E)) is the rank-0 singleton {()}. up({()}) can be
        // a single class (the infinite clique), so the bound is 2.
        let t = term_of(
            "Y2 := down(down(E)); while single(Y2) { Y2 := up(Y2); }",
            Dialect::Qlhs,
        );
        assert_eq!(t.loops[0].bound, LoopBound::Bounded(2));
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 2 });
    }

    #[test]
    fn down_of_a_non_empty_value_is_non_empty() {
        // Y2 = E↓ is non-empty, so one iteration flips the guard (B1).
        let t = term_of("Y2 := E; while empty(Y1) { Y1 := down(Y2); }", Dialect::Ql);
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 1 });
        assert!(t.diagnostics.iter().all(|d| d.code != Code::UnboundedLoop));
        // ¬ of the non-empty rank-0 value {()} is empty, so `|Y2| = 1`
        // is false on entry (B0).
        let t = term_of(
            "Y2 := !down(down(E)); while single(Y2) { Y2 := up(Y2); }",
            Dialect::Qlhs,
        );
        assert_eq!(t.loops[0].bound, LoopBound::Bounded(0));
    }

    #[test]
    fn unassigned_singleton_guard_is_refuted_at_entry() {
        // An unassigned variable is the empty rank-0 value: |Y2| = 1
        // is false the first time the loop is reached.
        let t = term_of("while single(Y2) { Y2 := up(Y2); }", Dialect::Qlhs);
        assert_eq!(t.loops[0].bound, LoopBound::Bounded(0));
    }

    #[test]
    fn foreign_write_disables_the_refinement_bound() {
        // A write that is not `Yv := up(Yv)` can re-shrink the value.
        let t = term_of(
            "Y2 := E; while single(Y2) { Y2 := up(Y2); Y2 := Y2 & Y2; }",
            Dialect::Qlhs,
        );
        assert_eq!(t.loops[0].bound, LoopBound::Unknown);
        assert_eq!(t.verdict, TerminationVerdict::Unknown);
        assert!(t.diagnostics.iter().any(|d| d.code == Code::UnboundedLoop));
    }

    #[test]
    fn up_only_inside_inner_loop_is_not_a_spine_write() {
        // The only self-up write sits in a nested body that may run 0
        // times, so an iteration need not grow the rank.
        let t = term_of(
            "Y2 := E; while single(Y2) { while empty(Y3) { Y2 := up(Y2); Y3 := E; } }",
            Dialect::Qlhs,
        );
        assert_eq!(t.loops[0].bound, LoopBound::Unknown);
    }

    #[test]
    fn while_finite_is_never_bounded() {
        let t = term_of(
            "Y1 := E; while finite(Y1) { Y1 := up(Y1); }",
            Dialect::QlfPlus,
        );
        assert_eq!(t.loops[0].bound, LoopBound::Unknown);
        assert_eq!(t.verdict, TerminationVerdict::Unknown);
    }

    #[test]
    fn nested_bounds_compose_multiplicatively() {
        // Outer bound 1, inner bound 1: total 1 + 1·1 = 2.
        let t = term_of(
            "while empty(Y1) { while empty(Y2) { Y2 := E; } Y1 := E; }",
            Dialect::Ql,
        );
        assert_eq!(t.verdict, TerminationVerdict::Terminates { iterations: 2 });
        assert_eq!(t.loops.len(), 2);
        assert!(t.loops.iter().all(|l| l.bound == LoopBound::Bounded(1)));
        assert_eq!(t.loops[1].path, vec![0, 0, 0]);
        assert!(!t.loops[1].on_spine);
    }

    #[test]
    fn loop_paths_match_the_statement_tree() {
        let t = term_of("Y1 := E; while single(Y1) { Y1 := up(Y1); }", Dialect::Qlhs);
        assert_eq!(t.loops[0].path, vec![1]);
        assert!(t.bound_at(&[1]).is_some());
        assert!(t.bound_at(&[0]).is_none());
    }
}
