//! recdb-vm: a statically-verified bytecode compiler and register VM
//! for the QL dialect family.
//!
//! The tree-walking interpreters in `recdb-qlhs` are the semantic
//! ground truth; this crate makes the hot path faster without widening
//! the trusted base:
//!
//! 1. [`lower::compile`] flattens a validated AST into register
//!    bytecode ([`bytecode::VmProg`]), driven by `recdb-analyze`'s
//!    liveness/last-use pass, a rank-typed register allocator, loop
//!    unrolling for small proved bounds, and dead-store elimination.
//!    The compiler is **not trusted** — it may be arbitrarily clever.
//! 2. [`verify::verify`] is an independent abstract interpreter over
//!    the instruction stream that re-proves rank/arity agreement,
//!    dialect legality, register init-before-use, fuel-tick placement,
//!    loop certificates, and the §11 cost obligation. Programs execute
//!    only if the verifier accepts.
//! 3. [`exec::exec_plain`] and [`exec::exec_scheduled`] run accepted
//!    programs through one dispatch loop over any
//!    [`recdb_qlhs::exec::Backend`] (the three interpreters' value
//!    domains), driven by the statement layer's fuel-only and budget
//!    schedules — so results, fuel accounting, and scheduling events
//!    match the tree walker's exactly, and on any obstruction or
//!    rejection the caller falls back to the tree walker and the
//!    difference is unobservable.

#![warn(missing_docs)]

pub mod bytecode;
pub mod exec;
pub mod lower;
pub mod verify;

pub use bytecode::{GuardKind, Inst, LoopMeta, VmProg};
pub use exec::{exec_plain, exec_scheduled, VmBackend, VmBudget, VmEnd, VmRun};
pub use lower::{compile, LowerOpts, Obstruction, ObstructionKind};
pub use verify::{verify, Rejection, VerifyReport};
