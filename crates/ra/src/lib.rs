//! `recdb-ra` — a typed relational-algebra frontend for the QL stack.
//!
//! The paper's interpreters speak the QL-family ASTs; this crate puts
//! a classical relational algebra in front of them (ROADMAP item 3):
//!
//! * [`ast`] — expressions over *named attributes* (select, project,
//!   rename, natural join, union, difference, guarded complement) and
//!   programs with named views, plus a builder API;
//! * [`parser`] — concrete syntax with span diagnostics in the house
//!   style (same [`Span`](recdb_qlhs::Span)/
//!   [`SpanTable`](recdb_qlhs::SpanTable) plumbing as the QL parser);
//! * [`schema`] — named-attribute schemas and the typechecker;
//! * [`safety`] — range-restriction validation: bare complements are
//!   rejected (`RA05`), guarded negation is admitted;
//! * [`eval`] — the direct finite-model semantics the compiler is
//!   differentially tested against;
//! * [`compile`] — lowering to straight-line QLhs programs over the
//!   paper's rank-`k` encoding, so every RA query flows through
//!   `recdb_analyze::analyze_full` admission, the semi-naive engine,
//!   and the serve cache unchanged.
//!
//! The conformance ledger proves the whole pipeline: `RA-DIFF` runs
//! ≥500 seeded expressions three ways (direct, compiled-`FinInterp`,
//! compiled-`HsInterp`) and demands byte-equality; `RA-SAFETY` checks
//! that acceptance commutes with domain extension and that rejections
//! have teeth (DESIGN.md §10).

pub mod ast;
pub mod compile;
pub mod diag;
pub mod eval;
pub mod parser;
pub mod rewrite;
pub mod safety;
pub mod schema;

pub use ast::{rel, Pred, RaExpr, RaProgram};
pub use compile::{compile_program, CompiledRa};
pub use diag::RaError;
pub use eval::{eval_program, RaValue};
pub use parser::{parse_ra, parse_ra_with_spans, RaParseError, MAX_DEPTH};
pub use rewrite::{optimize_program, RewriteReport};
pub use safety::validate;
pub use schema::{typecheck, RaSchema};
