//! C-genericity: which domain constants can a program's output
//! observe?
//!
//! A query `q` is **C-generic** when every domain permutation `π`
//! fixing `C` pointwise commutes with it: `π(q(B)) = q(π(B))`
//! ([CH] §2.5). Every QL construct except
//! [`Term::Const`](recdb_qlhs::Term) is π-equivariant — `E`, `Relᵢ`,
//! `∩`, `¬`, `↑`, `↓`, `~`, assignment, and all three `while` tests
//! commute with any bijection of the domain — and equivariance is a
//! congruence. So non-genericity can only enter through constants,
//! and the analysis reduces to a taint problem: which constants can
//! *influence* the run?
//!
//! ## The abstract domain
//!
//! Per variable, a pair:
//!
//! * **taint** — the set of constants that flowed into the value, by
//!   data (through terms) or by control (assigned under a loop whose
//!   guard is tainted: the iteration count may depend on those
//!   constants). The lattice is `(𝒫(C), ⊆)` — finite, since `C` is
//!   the program's syntactic constant set.
//! * **exact** — `Some(V)`: on every *completing* run over a finite
//!   structure, the variable holds exactly `V`. Survives `Const`
//!   (`{(a)}`), variable copies, `∩`, `↓`, `~`; anything
//!   domain-dependent (`E`, `Relᵢ`, `¬`, `↑`) degrades to `None`.
//!
//! Loops run to their [`crate::fix::loop_head`] state with the
//! guard's taint added to the control context each round. A widened
//! loop head taints its body-written variables with every constant
//! and forgets their exact values; since its body's inner guards then
//! go unrecorded, any widening fixes every constant in the verdict.
//!
//! ## Verdict soundness
//!
//! * [`GenericityVerdict::Generic`]`{fixed}` is a **proof**: the
//!   program commutes with every permutation fixing `fixed`
//!   pointwise. `fixed` is the output taint *plus every loop guard's
//!   taint* — the latter because a permutation moving a
//!   guard-observed constant could change an iteration count (or
//!   termination itself) even when the changed values never reach
//!   `Y1`. With all guards π-related, the two runs proceed in
//!   lockstep and every env entry stays π-related, so outputs (and
//!   error/divergence outcomes) correspond.
//! * [`GenericityVerdict::NonGeneric`] is a **proof with a witness**:
//!   the run is [`Verdict::Safe`], provably terminating, and the
//!   output is exactly a non-empty constant relation `V` on every
//!   finite structure — so the transposition `(e d)` with
//!   `e ∈ elems(V)`, `d` fresh satisfies `π(q(B)) = π(V) ≠ V =
//!   q(π(B))`.
//!
//!   Exactness is grounded in the finitary/fcf semantics, where
//!   `Cₐ = {(a)}`. Under the **QLhs dialect** `Cₐ` denotes the whole
//!   `≅_B`-class of `a` — `C3 & C5` is non-empty on a clique — so
//!   neither exact-value verdict (`NonGeneric`, or `Generic {∅}` from
//!   an exact element-free value) is claimed there; QLhs programs fall
//!   back to the taint proof, which *is* valid on `hs` databases
//!   (a `π` fixing `a` pointwise maps the class of `a` in `B` to the
//!   class of `a` in `π(B)`).
//! * [`GenericityVerdict::Unknown`] — the program is not a
//!   well-formed program of its dialect, so there is no semantics to
//!   be generic about (the interpreter rejects it before running).
//!
//! The conformance checks `GENERIC-PERM` and `NONGENERIC-WITNESS`
//! replay both proved verdicts against the real interpreters.

use crate::diag::{Code, Diagnostic};
use crate::fix::{self, Budget, Lattice};
use crate::prog::{Analysis, Verdict};
use crate::terminate::{TerminationAnalysis, TerminationVerdict};
use recdb_core::Tuple;
use recdb_qlhs::{Dialect, Prog, Term, Val};
use std::collections::BTreeSet;

/// The three-valued genericity verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GenericityVerdict {
    /// Proof: the program commutes with every domain permutation that
    /// fixes `fixed` pointwise. `fixed = ∅` is plain genericity.
    Generic {
        /// The constants a permutation must fix.
        fixed: BTreeSet<u64>,
    },
    /// Proof: the output is exactly `output` on every completing run
    /// over a finite structure, and the transposition swapping
    /// `witness.0` and `witness.1` changes it.
    NonGeneric {
        /// The proved constant output relation.
        output: Val,
        /// A transposition `(e, d)`: `e` occurs in the output, `d` is
        /// fresh (in neither the output nor the program's constants).
        witness: (u64, u64),
    },
    /// Not decided (dialect-rejected programs have no runs to judge).
    Unknown,
}

impl std::fmt::Display for GenericityVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenericityVerdict::Generic { fixed } if fixed.is_empty() => f.write_str("generic"),
            GenericityVerdict::Generic { fixed } => {
                write!(f, "generic fixing {{")?;
                for (i, c) in fixed.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str("}")
            }
            GenericityVerdict::NonGeneric {
                witness: (e, d), ..
            } => {
                write!(f, "non-generic (witness: swap {e} and {d})")
            }
            GenericityVerdict::Unknown => f.write_str("unknown"),
        }
    }
}

/// The result of [`analyze_genericity`].
#[derive(Clone, Debug)]
pub struct GenericAnalysis {
    /// The program's syntactic constant set `C` — the upper bound on
    /// what any verdict may mention.
    pub constants: BTreeSet<u64>,
    /// The verdict.
    pub verdict: GenericityVerdict,
    /// `W0301`/`W0302` findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// Abstract state of one variable: taint plus optional exact value.
#[derive(Clone, PartialEq, Eq, Debug)]
struct GVar {
    taint: BTreeSet<u64>,
    exact: Option<Val>,
}

impl GVar {
    /// An unassigned variable: untainted, exactly the empty rank-0
    /// value (a semantic guarantee of all three interpreters).
    fn unset() -> GVar {
        GVar {
            taint: BTreeSet::new(),
            exact: Some(Val::empty(0)),
        }
    }
}

impl Lattice for GVar {
    fn join(&self, other: &GVar) -> GVar {
        GVar {
            taint: self.taint.union(&other.taint).cloned().collect(),
            exact: match (&self.exact, &other.exact) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                _ => None,
            },
        }
    }
}

type GEnv = Vec<GVar>;

/// Renders a constant relation for diagnostics, e.g. `{(3), (7)}`.
fn fmt_val(v: &Val) -> String {
    format!("{:?}", v.tuples)
}

/// Taint and exactness of a term. Exactness follows the finitary
/// semantics (`Cₐ = {(a)}`), which is the backend the NonGeneric
/// witness is replayed on; taint is an over-approximation of
/// influence on *every* backend.
fn eval_term(t: &Term, env: &GEnv) -> GVar {
    match t {
        // Domain-dependent atoms: untainted, not exactly known.
        Term::E | Term::Rel(_) => GVar {
            taint: BTreeSet::new(),
            exact: None,
        },
        Term::Const(c) => GVar {
            taint: [*c].into_iter().collect(),
            exact: Some(Val::new(1, [Tuple::from_values([*c])])),
        },
        Term::Var(v) => env.get(*v).cloned().unwrap_or_else(GVar::unset),
        Term::And(a, b) => {
            let (x, y) = (eval_term(a, env), eval_term(b, env));
            let exact = match (&x.exact, &y.exact) {
                (Some(va), Some(vb)) if va.rank == vb.rank => Some(Val {
                    rank: va.rank,
                    tuples: va.tuples.intersection(&vb.tuples),
                }),
                _ => None,
            };
            GVar {
                taint: x.taint.union(&y.taint).cloned().collect(),
                exact,
            }
        }
        // ¬ and ↑ quantify over the domain: never exactly known.
        Term::Not(e) | Term::Up(e) => GVar {
            taint: eval_term(e, env).taint,
            exact: None,
        },
        Term::Down(e) => {
            let x = eval_term(e, env);
            let exact = x.exact.map(|v| match v.rank {
                0 => Val::empty(0),
                n => Val {
                    rank: n - 1,
                    tuples: v.tuples.drop_first(),
                },
            });
            GVar {
                taint: x.taint,
                exact,
            }
        }
        Term::Swap(e) => {
            let x = eval_term(e, env);
            let exact = x.exact.map(|v| Val {
                rank: v.rank,
                tuples: v.tuples.swap_last_two(),
            });
            GVar {
                taint: x.taint,
                exact,
            }
        }
    }
}

/// Walks `p`, accumulating every loop guard's fixpoint taint into
/// `guard_taint` (those constants can steer iteration counts and
/// termination, so any `Generic` claim must fix them too). `budget`
/// pays for the loop-head rounds; a widening taints with `constants`.
fn exec(
    p: &Prog,
    env: &mut GEnv,
    ctl: &BTreeSet<u64>,
    guard_taint: &mut BTreeSet<u64>,
    budget: &Budget,
    constants: &BTreeSet<u64>,
) {
    match p {
        Prog::Assign(v, t) => {
            let mut val = eval_term(t, env);
            val.taint.extend(ctl.iter().copied());
            if *v >= env.len() {
                env.resize(*v + 1, GVar::unset());
            }
            env[*v] = val;
        }
        Prog::Seq(ps) => {
            for q in ps {
                exec(q, env, ctl, guard_taint, budget, constants);
            }
        }
        Prog::WhileEmpty(v, body) | Prog::WhileSingleton(v, body) | Prog::WhileFinite(v, body) => {
            // The guard's taint joins the control context, and grows
            // monotonically round to round.
            let top = GVar {
                taint: constants.clone(),
                exact: None,
            };
            *env = fix::var_head(budget, body, std::mem::take(env), top, |head| {
                let guard = head.get(*v).map(|s| s.taint.clone()).unwrap_or_default();
                let ctl2: BTreeSet<u64> = ctl.union(&guard).copied().collect();
                let mut out = head.clone();
                exec(body, &mut out, &ctl2, guard_taint, budget, constants);
                out
            });
            guard_taint.extend(env.get(*v).map(|s| s.taint.clone()).unwrap_or_default());
        }
    }
}

/// Analyzes which constants the output of `p` can observe and
/// produces the three-valued genericity verdict.
///
/// `safety` and `termination` are the program's [`crate::analyze_prog`]
/// / [`crate::analyze_termination`] results: the `NonGeneric` proof
/// needs completing runs (`Safe` + `Terminates`) to exhibit its
/// witness. Bumps the `analyze.generic.*` counters when a `recdb-obs`
/// recorder is installed.
pub fn analyze_genericity(
    p: &Prog,
    dialect: Dialect,
    safety: &Analysis,
    termination: &TerminationAnalysis,
) -> GenericAnalysis {
    recdb_obs::count("analyze.generic.programs", 1);
    let constants = p.constants();
    let mut diagnostics = Vec::new();
    let verdict = if dialect.check(p).is_err() {
        let d = Diagnostic::new(
            Code::GenericityUnknown,
            Vec::new(),
            format!("not a well-formed {dialect} program: genericity not analyzed"),
        )
        .with_note(format!(
            "{dialect} rejects the program before running it, so there is no output to judge"
        ));
        d.record();
        diagnostics.push(d);
        GenericityVerdict::Unknown
    } else if constants.is_empty() {
        // No constant symbols at all: every construct is
        // π-equivariant, so the program is plainly generic.
        GenericityVerdict::Generic {
            fixed: BTreeSet::new(),
        }
    } else {
        let nvars = p.max_var().map_or(1, |m| m + 1).max(1);
        let mut env: GEnv = vec![GVar::unset(); nvars];
        let mut guard_taint = BTreeSet::new();
        let budget = Budget::default();
        exec(
            p,
            &mut env,
            &BTreeSet::new(),
            &mut guard_taint,
            &budget,
            &constants,
        );
        budget.record();
        if budget.widened() > 0 {
            guard_taint.clone_from(&constants);
        }
        let out = env.first().cloned().unwrap_or_else(GVar::unset);
        let observed: BTreeSet<u64> = out.taint.union(&guard_taint).copied().collect();
        let exact_elems: Option<BTreeSet<u64>> = out.exact.as_ref().map(|v| {
            v.tuples
                .iter()
                .flat_map(|t| t.elems())
                .map(|e| e.value())
                .collect()
        });
        let completes = safety.verdict == Verdict::Safe
            && matches!(termination.verdict, TerminationVerdict::Terminates { .. });
        // Exact values follow `Cₐ = {(a)}` — true on the finitary and
        // fcf backends, false on `hs` where `Cₐ` is a `≅_B`-class. So
        // exact-based verdicts are only claimed outside QLhs.
        let exact_grounded = dialect != Dialect::Qlhs;
        match (out.exact, exact_elems) {
            // The output is provably a fixed constant relation with at
            // least one element: a transposition moving that element
            // to a fresh one changes π(q(B)) but not q(π(B)).
            (Some(output), Some(elems)) if exact_grounded && completes && !elems.is_empty() => {
                let e = elems.iter().min().copied().unwrap_or(0);
                let d = elems
                    .iter()
                    .chain(constants.iter())
                    .max()
                    .copied()
                    .unwrap_or(0)
                    + 1;
                let diag = Diagnostic::new(
                    Code::NonGenericOutput,
                    Vec::new(),
                    format!(
                        "the output is the fixed relation {} on every database: \
                         swapping {e} and {d} changes it",
                        fmt_val(&output)
                    ),
                )
                .with_note(format!(
                    "depends on the constant(s) {observed:?}; a C-generic query commutes \
                     with every permutation fixing C"
                ));
                diag.record();
                diagnostics.push(diag);
                GenericityVerdict::NonGeneric {
                    output,
                    witness: (e, d),
                }
            }
            // Provably constant output with no elements (empty, or a
            // set of empty tuples): every permutation fixes it. Only
            // claimable when the run provably completes — otherwise a
            // guard-observed constant can flip Ok vs divergence under
            // a permutation, so the guard taint must stay fixed.
            (Some(_), Some(elems)) if exact_grounded && completes && elems.is_empty() => {
                GenericityVerdict::Generic {
                    fixed: BTreeSet::new(),
                }
            }
            // The sound default: invariant under permutations fixing
            // everything the run can observe.
            _ => GenericityVerdict::Generic { fixed: observed },
        }
    };
    recdb_obs::count(
        match &verdict {
            GenericityVerdict::Generic { .. } => "analyze.generic.verdict.generic",
            GenericityVerdict::NonGeneric { .. } => "analyze.generic.verdict.nongeneric",
            GenericityVerdict::Unknown => "analyze.generic.verdict.unknown",
        },
        1,
    );
    GenericAnalysis {
        constants,
        verdict,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_prog;
    use crate::terminate::analyze_termination;
    use recdb_core::Schema;
    use recdb_qlhs::parse_program;

    fn s2() -> Schema {
        Schema::new(vec![2])
    }

    fn generic_of(src: &str, dialect: Dialect) -> GenericAnalysis {
        let p = parse_program(src).unwrap();
        let safety = analyze_prog(&p, &s2(), dialect);
        let term = analyze_termination(&p, &s2(), dialect, &safety);
        analyze_genericity(&p, dialect, &safety, &term)
    }

    fn fixed_of(a: &GenericAnalysis) -> BTreeSet<u64> {
        match &a.verdict {
            GenericityVerdict::Generic { fixed } => fixed.clone(),
            other => panic!("expected Generic, got {other:?}"),
        }
    }

    #[test]
    fn constant_free_programs_are_plainly_generic() {
        let a = generic_of("Y2 := up(R1); Y1 := swap(Y2) & Y2;", Dialect::Ql);
        assert!(a.constants.is_empty());
        assert_eq!(fixed_of(&a), BTreeSet::new());
    }

    #[test]
    fn constant_output_is_nongeneric_with_a_fresh_witness() {
        let a = generic_of("Y1 := C3;", Dialect::Ql);
        match &a.verdict {
            GenericityVerdict::NonGeneric { output, witness } => {
                assert_eq!(output.rank, 1);
                assert_eq!(witness.0, 3);
                assert!(witness.1 != 3 && !a.constants.contains(&witness.1));
            }
            other => panic!("expected NonGeneric, got {other:?}"),
        }
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == Code::NonGenericOutput));
    }

    #[test]
    fn exactness_survives_intersection_and_projection() {
        // C3 & C3 = {(3)}; down({(3)}) = {()}: non-empty but with no
        // elements, so every permutation fixes it — generic.
        let a = generic_of("Y1 := down(C3 & C3);", Dialect::Ql);
        assert_eq!(fixed_of(&a), BTreeSet::new());
        // But the exact value {(3)} itself is non-generic.
        let a = generic_of("Y1 := C3 & C3;", Dialect::Ql);
        assert!(matches!(a.verdict, GenericityVerdict::NonGeneric { .. }));
    }

    #[test]
    fn disjoint_constants_intersect_to_the_generic_empty_value() {
        let a = generic_of("Y1 := C2 & C5;", Dialect::Ql);
        assert_eq!(fixed_of(&a), BTreeSet::new());
    }

    #[test]
    fn domain_dependent_use_falls_back_to_fixing_the_constant() {
        // ¬C2 depends on the database (the complement base), so no
        // exact value — but the taint proof still gives invariance
        // under permutations fixing 2.
        let a = generic_of("Y1 := !C2;", Dialect::Ql);
        assert_eq!(fixed_of(&a), [2].into_iter().collect::<BTreeSet<u64>>());
    }

    #[test]
    fn control_taint_flows_from_loop_guards() {
        // Y1's assigned term is constant-free, but the assignment sits
        // under a guard tainted by C4: the iteration count (and
        // whether the loop exits at all) can observe 4.
        let a = generic_of(
            "Y2 := C4 & down(R1); while empty(Y2) { Y1 := E; Y2 := E & E; }",
            Dialect::Ql,
        );
        assert_eq!(fixed_of(&a), [4].into_iter().collect::<BTreeSet<u64>>());
    }

    #[test]
    fn guard_taint_counts_even_when_the_output_is_untouched() {
        // The tainted loop assigns nothing Y1 ever sees — but π moving
        // 4 can still flip the loop between terminating and not, which
        // a permutation differential would observe as Ok vs Fuel.
        let a = generic_of(
            "Y1 := R1; Y2 := C4 & down(R1); while empty(Y2) { Y3 := E; Y2 := R1 & R1; }",
            Dialect::Ql,
        );
        assert_eq!(fixed_of(&a), [4].into_iter().collect::<BTreeSet<u64>>());
    }

    #[test]
    fn exact_empty_generic_claim_needs_proved_termination() {
        // Y1 is provably empty on every *completing* run, but the loop
        // has no proved bound and its guard observes 4: a π moving 4
        // can flip the run between Ok(∅) and divergence, so the plain
        // Generic {∅} claim is unsound — fall back to fixing the
        // guard taint.
        let a = generic_of(
            "Y2 := C4 & down(R1); while empty(Y2) { Y3 := E; }",
            Dialect::Ql,
        );
        assert_eq!(fixed_of(&a), [4].into_iter().collect::<BTreeSet<u64>>());
    }

    #[test]
    fn nongeneric_needs_proved_termination() {
        // Output would be exactly {(3)}, but the loop before it has no
        // proved bound, so no completing-run claim — fall back to the
        // Generic-fixing proof.
        let a = generic_of(
            "Y2 := down(R1); while empty(Y2) { Y2 := up(Y2) & R1; } Y1 := C3;",
            Dialect::Ql,
        );
        assert_eq!(fixed_of(&a), [3].into_iter().collect::<BTreeSet<u64>>());
    }

    #[test]
    fn exact_values_are_not_trusted_under_qlhs() {
        // On an hs database `C3`/`C5` denote whole ≅_B-classes:
        // `C3 & C5` is non-empty on a clique, so neither the
        // NonGeneric claim nor the exact-empty Generic {∅} claim is
        // grounded there. QLhs falls back to the taint proof.
        let a = generic_of("Y1 := C3 & C5;", Dialect::Qlhs);
        assert_eq!(fixed_of(&a), [3, 5].into_iter().collect::<BTreeSet<u64>>());
        let a = generic_of("Y1 := C3;", Dialect::Qlhs);
        assert_eq!(fixed_of(&a), [3].into_iter().collect::<BTreeSet<u64>>());
        // The identical programs under QL keep their exact verdicts.
        let a = generic_of("Y1 := C3 & C5;", Dialect::Ql);
        assert_eq!(fixed_of(&a), BTreeSet::new());
        let a = generic_of("Y1 := C3;", Dialect::Ql);
        assert!(matches!(a.verdict, GenericityVerdict::NonGeneric { .. }));
    }

    #[test]
    fn dialect_rejected_programs_are_unknown() {
        // QLf+-only construct under the QL dialect: Unknown, not
        // Generic (satellite: dialect/verdict interaction).
        let a = generic_of("Y1 := E; while finite(Y1) { Y1 := up(Y1); }", Dialect::Ql);
        assert_eq!(a.verdict, GenericityVerdict::Unknown);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == Code::GenericityUnknown));
        // The same program in its own dialect is judged (and has no
        // constants, so it is plainly generic).
        let a = generic_of(
            "Y1 := E; while finite(Y1) { Y1 := up(Y1); }",
            Dialect::QlfPlus,
        );
        assert_eq!(fixed_of(&a), BTreeSet::new());
    }

    #[test]
    fn singleton_test_under_ql_is_unknown_too() {
        let a = generic_of("Y1 := C1; while single(Y1) { Y1 := up(Y1); }", Dialect::Ql);
        assert_eq!(a.verdict, GenericityVerdict::Unknown);
        // Under QLhs the loop is judged: the guard is tainted by 1,
        // and `up` kills exactness, so the verdict is the sound
        // fallback — generic fixing {1}.
        let a = generic_of(
            "Y1 := C1; while single(Y1) { Y1 := up(Y1); }",
            Dialect::Qlhs,
        );
        assert_eq!(fixed_of(&a), [1].into_iter().collect::<BTreeSet<u64>>());
    }
}
