//! # recdb-qlhs — the QL language family (§3.3, §4; [CH])
//!
//! Three dialects of Chandra–Harel's QL over one AST:
//!
//! * **QL** ([`FinInterp`]) — the finitary baseline over
//!   [`recdb_core::FiniteStructure`]s;
//! * **QLhs** ([`HsInterp`]) — the paper's hs-r-complete language,
//!   acting on `C_B` representations with the added `while |Y|=1`
//!   test (Theorem 3.1);
//! * **QLf+** ([`FcfInterp`]) — the finite∕co-finite variant with
//!   `while |Y|<∞` (§4, Prop 4.3).
//!
//! All three run on one statement layer, [`exec`]: a term walker over
//! the op-level [`exec::Backend`] and one schedule-driven statement
//! executor.
//!
//! [`derived`] supplies the programmability toolkit the completeness
//! proof leans on: rank-0 booleans, branching combinators, and a
//! compiler from counter machines to QL programs ("this gives QL the
//! power of general counter machines, and hence of Turing machines").

#![warn(missing_docs)]

pub mod ast;
pub mod completeness;
pub mod derived;
pub mod dialect;
pub mod exec;
pub mod fcf_interp;
pub mod fin_interp;
pub mod hs_interp;
pub mod iter_count;
pub mod optimize;
pub mod parser;
pub mod permute;
pub mod seminaive;
pub mod value;

pub use ast::{LoopKind, NodePath, Prog, Term, VarId};
pub use completeness::{theorem_3_1_pipeline, DEncoding, IndexTuple};
pub use derived::{
    compile_counter, false_term, if_empty, if_nonempty, numeral, rank_program, true_term,
    CompiledCounter,
};
pub use dialect::{classify, Dialect, DialectViolation, IllegalTest};
pub use fcf_interp::{FcfInterp, FcfVal};
pub use fin_interp::FinInterp;
pub use hs_interp::HsInterp;
pub use optimize::{simplify_term_with, term_size, RankOracle};
pub use parser::{
    parse_program, parse_program_with_spans, ProgParseError, Span, SpanTable, DEPTH_CODE,
    MAX_DEPTH, MAX_LOOP_DEPTH, MAX_VAR, PARSE_CODE,
};
pub use permute::Permutation;
pub use seminaive::{classify_loop, IneligibleLoop, LoopPlan};
pub use value::{Row, Rows, RunError, Val};
