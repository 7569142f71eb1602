//! # recdb-analyze — static semantic analysis for the QL family and L⁻
//!
//! Everything the repo can say about a program *without running it*:
//!
//! * **Rank/arity inference** ([`analyze_prog`], [`rank`]) — an
//!   abstract interpretation over the lattice
//!   `⊥ ⊑ Known(k) ⊑ ⊤` whose transfer function is *exact*: a
//!   `Known(k)` is a proof that the value has rank `k` on every
//!   execution. Detects `&` rank mismatches, out-of-schema `Relᵢ`,
//!   and use-before-assign, with `while` bodies iterated to a
//!   fixpoint.
//! * **One loop-head driver, one term transfer** ([`fix`], [`rank`]) —
//!   every walk (safety, genericity, liveness, and the VM lowerer's
//!   (rank, finiteness) walk) reaches its loop-head states through
//!   [`fix::loop_head`], whose per-call round budget widens to ⊤ once
//!   spent (`analyze.fixpoint.widened`); every rank comes from the
//!   per-node transfer [`rank::step`].
//! * **Dialect checking** — delegated to [`recdb_qlhs::dialect`] (the
//!   same checker the interpreters run in their `run` entry points),
//!   surfaced as coded diagnostics `E0003`/`E0004`.
//! * **Lints** — dead variables, unreachable and divergent loops
//!   (constant-emptiness propagation), `down` on rank 0, and
//!   rank-provable simplification opportunities.
//! * **L⁻ analysis** ([`analyze_formula`]) — schema conformance,
//!   quantifier-freeness, free-variable/head agreement, polarity-aware
//!   active-domain safety, and a syntactic EF-rank upper bound.
//! * **Verdicts** ([`Verdict`]) — `Safe` (no rank/arity/dialect error
//!   on any run), `Unsafe` (every run errors), `Unknown`. The
//!   conformance harness checks these claims differentially against
//!   all three interpreters on seeded random programs.
//! * **Diagnostics** ([`diag`]) — stable codes, severities, tree
//!   paths, spans (via the parser's span table), a rustc-style
//!   renderer, and `analyze.diagnostics.<code>` counters on the
//!   `recdb-obs` metrics layer.
//!
//! The `analyze` binary is the CLI front end.

#![warn(missing_docs)]

pub mod cost;
pub mod dataflow;
pub mod diag;
pub mod fix;
pub mod generic;
pub mod logic;
pub mod prog;
pub mod rank;
pub mod simplify;
pub mod terminate;

pub use cost::{analyze_cost, Bound, CostAnalysis, CostEnv, CostVerdict, Poly, StmtCost};
pub use dataflow::{analyze_dataflow, DataflowAnalysis, RegPool};
pub use diag::{Code, Diagnostic, Severity};
pub use generic::{analyze_genericity, GenericAnalysis, GenericityVerdict};
pub use logic::{analyze_formula, FormulaReport};
pub use prog::{analyze_prog, Analysis, LoopFacts, Verdict};
pub use rank::{term_rank, AbsEmpty, AbsRank, Fin, Shape};
pub use simplify::simplify_prog_checked;
pub use terminate::{
    analyze_termination, LoopBound, LoopInfo, TerminationAnalysis, TerminationVerdict,
};

/// The analyses admission reads, in one call — four passes composed
/// in dependency order (termination reads the safety walk's loop facts
/// and verdict, genericity uses both, cost uses termination's bounds).
#[derive(Clone, Debug)]
pub struct FullAnalysis {
    /// Rank/arity/dialect safety ([`analyze_prog`]).
    pub safety: Analysis,
    /// Loop bounds and the termination verdict ([`analyze_termination`]).
    pub termination: TerminationAnalysis,
    /// The C-genericity verdict ([`analyze_genericity`]).
    pub genericity: GenericAnalysis,
    /// Cardinality and work upper bounds ([`analyze_cost`]).
    pub cost: CostAnalysis,
}

/// Runs the four program analyses on `p`: safety, termination,
/// genericity and cost.
pub fn analyze_full(
    p: &recdb_qlhs::Prog,
    schema: &recdb_core::Schema,
    dialect: recdb_qlhs::Dialect,
) -> FullAnalysis {
    let safety = analyze_prog(p, schema, dialect);
    let termination = analyze_termination(p, schema, dialect, &safety);
    let genericity = analyze_genericity(p, dialect, &safety, &termination);
    let cost = analyze_cost(p, schema, dialect, &termination);
    FullAnalysis {
        safety,
        termination,
        genericity,
        cost,
    }
}
