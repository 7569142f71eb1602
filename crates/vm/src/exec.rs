//! The register VM's one dispatch loop over a verifier-accepted
//! [`VmProg`], driven by the statement layer's schedules.
//!
//! The loop calls the same [`Backend`] ops as the tree walker
//! ([`recdb_qlhs::exec::eval_term`]), so the two share value
//! semantics by construction. What the VM removes is everything
//! *around* the ops: recursion, per-node fuel ticks (pre-summed into
//! each instruction's `ticks`), dialect re-checks, and env
//! option-handling — discharged by the compiler, re-proved by the
//! verifier. It calls the [`Schedule`] where the tree-walking executor
//! does: a passing guard is an iteration event (its tick rides on the
//! next instruction), a failing guard a loop exit, each `Commit` an
//! assignment. [`exec_plain`] runs it under the fuel-only schedule,
//! [`exec_scheduled`] under the budget schedule; both monomorphize.

use crate::bytecode::{GuardKind, Inst, VmProg};
use recdb_core::Fuel;
use recdb_qlhs::exec::{Backend, Budget, Budgeted, ExecEnd, ExecResult, FuelOnly, Schedule};
use recdb_qlhs::RunError;
use std::sync::atomic::AtomicBool;

/// The op-level backend trait, under the name VM callers have always
/// imported (kept so downstream code compiles unchanged).
pub use recdb_qlhs::exec::Backend as VmBackend;

/// The scheduling envelope of a VM run — the statement layer's
/// [`Budget`] (alias kept so downstream code compiles unchanged).
pub type VmBudget<'a> = Budget<'a>;
/// How a scheduled VM run ended — the statement layer's [`ExecEnd`]
/// (alias kept so downstream code compiles unchanged).
pub type VmEnd<V> = ExecEnd<V>;
/// A scheduled VM outcome — the statement layer's [`ExecResult`]
/// (alias kept so downstream code compiles unchanged).
pub type VmRun<V> = ExecResult<V>;

const TRAP_MSG: &str = "vm: loop ran past its statically proved bound";
const PC_MSG: &str = "vm: fell off the instruction stream";

fn guard_go<B: Backend>(kind: GuardKind, v: &B::V) -> bool {
    match kind {
        GuardKind::Empty => B::empty(v),
        GuardKind::Single => B::single(v),
        GuardKind::Finite => B::finite(v),
    }
}

fn burn(fuel: &mut Fuel, ticks: u32) -> Result<(), RunError> {
    Ok(fuel.consume(u64::from(ticks))?)
}

/// The dispatch loop: runs `prog` to `Halt` under schedule `s`; the
/// result is `Y1`.
fn run<B: Backend, S: Schedule>(
    b: &mut B,
    prog: &VmProg,
    fuel: &mut Fuel,
    s: &mut S,
) -> Result<B::V, S::Stop> {
    let mut frame: Vec<B::V> = vec![b.unset(); prog.frame.max(1)];
    let mut here: Vec<u64> = vec![0; prog.loops.len()];
    let mut pc = 0usize;
    loop {
        let inst = prog.code.get(pc).ok_or(RunError::Internal(PC_MSG))?;
        match inst {
            Inst::E { dst, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.e();
            }
            Inst::Rel { dst, rel, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.rel(*rel)?;
            }
            Inst::Const { dst, val, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.constant(*val);
            }
            Inst::Copy { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = frame[*src].clone();
            }
            Inst::And {
                dst,
                a,
                b: rb,
                ticks,
            } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.and(&frame[*a], &frame[*rb])?;
            }
            Inst::Not { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.not(&frame[*src], fuel)?;
            }
            Inst::Up { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.up(&frame[*src], fuel)?;
            }
            Inst::Down { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.down(&frame[*src], fuel)?;
            }
            Inst::Swap { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.swap(&frame[*src], fuel)?;
            }
            Inst::Commit { src } => s.assigned(&[], B::size(&frame[*src]))?,
            Inst::Nop { ticks } => burn(fuel, *ticks)?,
            Inst::Enter { loop_id, ticks } => {
                burn(fuel, *ticks)?;
                here[*loop_id] = 0;
            }
            Inst::Guard {
                loop_id,
                var,
                kind,
                exit,
            } => {
                if !guard_go::<B>(*kind, &frame[*var]) {
                    s.loop_exit(&prog.loops[*loop_id].path, here[*loop_id]);
                    pc = *exit;
                    continue;
                }
                here[*loop_id] += 1;
                s.iteration(&prog.loops[*loop_id].path, here[*loop_id])?;
            }
            Inst::Back { to, ticks } => {
                burn(fuel, *ticks)?;
                pc = *to;
                continue;
            }
            Inst::Trap { .. } => return Err(RunError::Internal(TRAP_MSG).into()),
            Inst::Halt { ticks } => {
                burn(fuel, *ticks)?;
                return Ok(frame.swap_remove(0));
            }
        }
        pc += 1;
    }
}

/// Runs a verifier-accepted program under a plain fuel budget — the
/// VM analogue of the interpreters' from-scratch `run` entry points
/// (semi-naive evaluation off), with identical observable fuel.
pub fn exec_plain<B: Backend>(b: &mut B, prog: &VmProg, fuel: &mut Fuel) -> Result<B::V, RunError> {
    run(b, prog, fuel, &mut FuelOnly { seminaive: false })
}

/// Runs a verifier-accepted program under the server's budget
/// schedule. The caller is responsible for having dialect-checked the
/// program (compilation obstructs on dialect violations, so a
/// verifier-accepted program is dialect-legal by construction).
pub fn exec_scheduled<B: Backend>(
    b: &mut B,
    prog: &VmProg,
    budget: &Budget<'_>,
    preempt: &AtomicBool,
) -> ExecResult<B::V> {
    let mut s = Budgeted::new(budget, preempt);
    let r = run(b, prog, &mut Fuel::new(budget.fuel), &mut s);
    s.finish(r)
}
