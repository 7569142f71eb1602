//! Admission control: every request passes through
//! [`recdb_analyze::analyze_full`] before any evaluation happens, and
//! the verdicts *are* the scheduling policy.
//!
//! | analyzer verdict            | admission decision                    |
//! |-----------------------------|---------------------------------------|
//! | safety `Unsafe`             | rejected (diagnostics serialized)     |
//! | termination `Diverges`      | rejected (diagnostics serialized)     |
//! | termination `Terminates{n}` | admitted, **exact** budget `n` + the proved per-loop bounds |
//! | termination `Unknown`       | admitted under **fuel** with cooperative preemption |
//! | genericity `Generic{fixed}` | (+ proved termination + safety) ⇒ result-cache eligible |
//!
//! Rejection responses carry the analyzer's span diagnostics resolved
//! to `line:col` through the parser's span table — the same data the
//! `analyze` CLI renders rustc-style.

use crate::json::esc;
use recdb_analyze::{
    analyze_full, Diagnostic, FullAnalysis, LoopBound, TerminationVerdict, Verdict,
};
use recdb_core::Schema;
use recdb_qlhs::{parse_program_with_spans, Dialect, Prog, Span, SpanTable};
use std::collections::{BTreeMap, BTreeSet};

/// Admission-side limits (from the server config).
#[derive(Clone, Copy, Debug)]
pub struct AdmitLimits {
    /// Fuel granted when the client does not ask for a budget.
    pub fuel_default: u64,
    /// Hard ceiling on any granted fuel budget.
    pub fuel_max: u64,
}

/// How an admitted program will be scheduled.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Proved terminating: exact iteration budget and per-loop bounds.
    Exact {
        /// The proved whole-program iteration budget.
        iterations: u64,
        /// Proved per-entry bounds, keyed by loop path.
        bounds: BTreeMap<Vec<u32>, u64>,
    },
    /// Termination unknown: run under fuel with preemption.
    Fueled {
        /// The granted fuel budget.
        fuel: u64,
    },
}

impl Plan {
    /// The plan's wire label (`"exact"` / `"fuel"`).
    pub fn mode(&self) -> &'static str {
        match self {
            Plan::Exact { .. } => "exact",
            Plan::Fueled { .. } => "fuel",
        }
    }
}

/// A program that passed admission.
#[derive(Clone, Debug)]
pub struct Admission {
    /// The parsed program.
    pub prog: Prog,
    /// The parser's span table (for any later diagnostics).
    pub spans: SpanTable,
    /// The scheduling plan.
    pub plan: Plan,
    /// `Some(fixed)` when the result is cacheable: the program is
    /// proved C-generic fixing `fixed`, proved terminating, and proved
    /// safe — the three legs of the cache-soundness argument
    /// (DESIGN.md §9).
    pub cache_fixed: Option<BTreeSet<u64>>,
    /// The full analysis (verdict strings go into the response).
    pub analysis: FullAnalysis,
}

/// The admission decision.
#[derive(Clone, Debug)]
pub enum AdmitOutcome {
    /// Run it.
    Admitted(Box<Admission>),
    /// Do not run it: machine-readable reasons plus serialized
    /// diagnostics.
    Rejected {
        /// Stable reason tags (`"parse-error"`, `"unsafe"`,
        /// `"diverges"`).
        reasons: Vec<&'static str>,
        /// The diagnostics as JSON objects (already rendered).
        diagnostics_json: String,
    },
}

/// Serializes one diagnostic, resolving its tree path to `line:col`
/// when the span table covers it.
fn diag_json(d: &Diagnostic, source: &str, spans: &SpanTable) -> String {
    let mut s = format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
        d.code,
        d.severity(),
        esc(&d.message)
    );
    if let Some(Span { start, end }) = spans.enclosing(&d.path) {
        let (line, col) = Span { start, end }.line_col(source);
        s.push_str(&format!(",\"line\":{line},\"col\":{col}"));
    }
    if let Some(note) = &d.note {
        s.push_str(&format!(",\"note\":\"{}\"", esc(note)));
    }
    s.push('}');
    s
}

/// Serializes a diagnostic list as a JSON array.
pub fn diags_json(diags: &[&Diagnostic], source: &str, spans: &SpanTable) -> String {
    let items: Vec<String> = diags.iter().map(|d| diag_json(d, source, spans)).collect();
    format!("[{}]", items.join(","))
}

/// All diagnostics of an analysis, in pass order.
pub fn all_diags(a: &FullAnalysis) -> Vec<&Diagnostic> {
    a.safety
        .diagnostics
        .iter()
        .chain(&a.termination.diagnostics)
        .chain(&a.genericity.diagnostics)
        .collect()
}

/// Runs admission on one program source.
pub fn admit(
    source: &str,
    schema: &Schema,
    dialect: Dialect,
    requested_fuel: Option<u64>,
    limits: &AdmitLimits,
) -> AdmitOutcome {
    let (prog, spans) = match parse_program_with_spans(source) {
        Ok(ok) => ok,
        Err(e) => {
            let (line, col) = Span {
                start: e.at,
                end: e.at + 1,
            }
            .line_col(source);
            return AdmitOutcome::Rejected {
                reasons: vec!["parse-error"],
                diagnostics_json: format!(
                    "[{{\"code\":\"{}\",\"severity\":\"error\",\"message\":\"{}\",\
                     \"line\":{line},\"col\":{col}}}]",
                    e.code,
                    esc(&e.msg)
                ),
            };
        }
    };
    let analysis = analyze_full(&prog, schema, dialect);
    let mut reasons = Vec::new();
    if analysis.safety.verdict == Verdict::Unsafe {
        reasons.push("unsafe");
    }
    if analysis.termination.verdict == TerminationVerdict::Diverges {
        reasons.push("diverges");
    }
    if !reasons.is_empty() {
        for r in &reasons {
            match *r {
                "unsafe" => recdb_obs::count("serve.admit.unsafe", 1),
                _ => recdb_obs::count("serve.admit.diverges", 1),
            }
        }
        return AdmitOutcome::Rejected {
            reasons,
            diagnostics_json: diags_json(&all_diags(&analysis), source, &spans),
        };
    }
    let plan = match analysis.termination.verdict {
        TerminationVerdict::Terminates { iterations } => {
            recdb_obs::count("serve.admit.exact", 1);
            let bounds = analysis
                .termination
                .loops
                .iter()
                .filter_map(|l| match l.bound {
                    LoopBound::Bounded(b) => Some((l.path.clone(), b)),
                    _ => None,
                })
                .collect();
            Plan::Exact { iterations, bounds }
        }
        _ => {
            recdb_obs::count("serve.admit.fueled", 1);
            Plan::Fueled {
                fuel: requested_fuel
                    .unwrap_or(limits.fuel_default)
                    .min(limits.fuel_max),
            }
        }
    };
    let cache_fixed = match (&analysis.genericity.verdict, &analysis.termination.verdict) {
        (
            recdb_analyze::GenericityVerdict::Generic { fixed },
            TerminationVerdict::Terminates { .. },
        ) if analysis.safety.verdict == Verdict::Safe => Some(fixed.clone()),
        _ => None,
    };
    AdmitOutcome::Admitted(Box::new(Admission {
        prog,
        spans,
        plan,
        cache_fixed,
        analysis,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: AdmitLimits = AdmitLimits {
        fuel_default: 10_000,
        fuel_max: 1_000_000,
    };

    fn schema() -> Schema {
        Schema::new([2])
    }

    fn admit_ql(src: &str) -> AdmitOutcome {
        admit(src, &schema(), Dialect::Ql, None, &LIMITS)
    }

    #[test]
    fn straight_line_programs_get_exact_plans() {
        match admit_ql("Y1 := R1;") {
            AdmitOutcome::Admitted(a) => {
                assert!(matches!(a.plan, Plan::Exact { iterations: 0, .. }));
                assert!(a.cache_fixed.is_some(), "generic + terminating + safe");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_reject_with_line_col() {
        match admit_ql("Y1 := ;") {
            AdmitOutcome::Rejected {
                reasons,
                diagnostics_json,
            } => {
                assert_eq!(reasons, vec!["parse-error"]);
                assert!(
                    diagnostics_json.contains("\"line\":1"),
                    "{diagnostics_json}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn provable_divergence_rejects() {
        // Guard variable is never written in the body: provably
        // divergent.
        match admit_ql("while empty(Y2) { Y3 := E; }") {
            AdmitOutcome::Rejected { reasons, .. } => assert!(reasons.contains(&"diverges")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dialect_violations_reject_as_unsafe() {
        match admit_ql("while single(Y1) { Y1 := E; }") {
            AdmitOutcome::Rejected {
                reasons,
                diagnostics_json,
            } => {
                assert!(reasons.contains(&"unsafe"));
                assert!(diagnostics_json.contains("E0003"), "{diagnostics_json}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_termination_runs_under_fuel() {
        // The loop flips its own guard via a relation value the
        // analysis cannot bound.
        match admit(
            "while empty(Y2) { Y2 := R1; }",
            &schema(),
            Dialect::Ql,
            Some(12_345),
            &LIMITS,
        ) {
            AdmitOutcome::Admitted(a) => {
                assert!(
                    matches!(a.plan, Plan::Fueled { fuel: 12_345 }),
                    "{:?}",
                    a.plan
                );
                assert!(a.cache_fixed.is_none(), "unproved termination ⇒ no cache");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requested_fuel_is_clamped() {
        match admit(
            "while empty(Y2) { Y2 := R1; }",
            &schema(),
            Dialect::Ql,
            Some(u64::MAX),
            &LIMITS,
        ) {
            AdmitOutcome::Admitted(a) => {
                assert!(matches!(a.plan, Plan::Fueled { fuel } if fuel == LIMITS.fuel_max));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constants_shrink_but_keep_cacheability() {
        // The output mixes a constant with input data, so the verdict
        // is `Generic {fixed: {3}}` (an exactly-constant output would
        // be NonGeneric, with a transposition witness).
        match admit_ql("Y1 := C3 & down(R1);") {
            AdmitOutcome::Admitted(a) => {
                let fixed = a.cache_fixed.expect("generic fixing {3}");
                assert!(fixed.contains(&3));
            }
            other => panic!("{other:?}"),
        }
    }
}
