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
//! assignment. At a backedge loop's head it also watches for a
//! repeated state and lets the schedule charge whole periods at once
//! ([`exec_with`]). [`exec_plain`] runs it under the fuel-only
//! schedule, [`exec_scheduled`] under the budget schedule; both
//! monomorphize.

use crate::bytecode::{Inst, VmProg};
use recdb_core::Fuel;
use recdb_qlhs::exec::{
    Backend, Budget, Budgeted, ExecEnd, ExecResult, FuelOnly, Period, Schedule,
};
use recdb_qlhs::{LoopKind, RunError};
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

fn guard_go<B: Backend>(kind: LoopKind, v: &B::V) -> bool {
    match kind {
        LoopKind::Empty => B::empty(v),
        LoopKind::Singleton => B::single(v),
        LoopKind::Finite => B::finite(v),
    }
}

fn burn(fuel: &mut Fuel, ticks: u32) -> Result<(), RunError> {
    Ok(fuel.consume(u64::from(ticks))?)
}

/// The run's monotone counters at one loop head: the loop's own
/// iteration number, the schedule's iteration events and work, and
/// the fuel left.
#[derive(Clone, Copy)]
struct Mark {
    here: u64,
    iterations: u64,
    work: u64,
    fuel: u64,
}

/// Brent's cycle detection at the head of one guard/backedge loop,
/// for the current entry: the registers the body writes (the rest of
/// the frame is constant while the loop runs), snapshotted at
/// iterations 1, 2, 4, 8, …, and where the snapshot was taken.
struct Watch<V> {
    regs: Vec<usize>,
    seen: Vec<V>,
    at: Option<Mark>,
}

impl<V: Clone + PartialEq> Watch<V> {
    fn new(body: &[Inst]) -> Self {
        let mut regs: Vec<usize> = body.iter().filter_map(Inst::dst).collect();
        regs.sort_unstable();
        regs.dedup();
        Watch {
            regs,
            seen: Vec::new(),
            at: None,
        }
    }

    /// At a head with counters `now`: the period since the snapshot
    /// when the watched registers repeat it, otherwise `None` (after
    /// re-snapshotting at a power of two).
    fn head(&mut self, frame: &[V], now: Mark) -> Option<Period> {
        if let Some(at) = self.at {
            if self
                .regs
                .iter()
                .zip(&self.seen)
                .all(|(&r, v)| frame[r] == *v)
            {
                return Some(Period {
                    here: now.here - at.here,
                    iterations: now.iterations - at.iterations,
                    work: now.work - at.work,
                    fuel: at.fuel - now.fuel,
                });
            }
        }
        if now.here.is_power_of_two() {
            self.seen.clear();
            self.seen
                .extend(self.regs.iter().map(|&r| frame[r].clone()));
            self.at = Some(now);
        }
        None
    }
}

/// The dispatch loop: runs `prog` to `Halt` under schedule `s`; the
/// result is `Y1`.
///
/// At the head of each guard/backedge loop it looks for a repeated
/// state (DESIGN.md §6, loop fast-forward). From a head whose frame
/// equals an earlier head's in the same loop entry, execution is a
/// function of the frame alone, so every further period replays the
/// last one exactly; the schedule then charges the whole periods no
/// limit would stop, and ordinary execution runs the rest, the trip
/// included.
pub fn exec_with<B: Backend, S: Schedule>(
    b: &mut B,
    prog: &VmProg,
    fuel: &mut Fuel,
    s: &mut S,
) -> Result<B::V, S::Stop> {
    let mut frame: Vec<B::V> = vec![b.unset(); prog.frame.max(1)];
    let mut here: Vec<u64> = vec![0; prog.loops.len()];
    let mut watch: Vec<Option<Watch<B::V>>> = prog.loops.iter().map(|_| None).collect();
    // The schedule's iteration events and work, for period deltas.
    let (mut iterations, mut work) = (0u64, 0u64);
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
            Inst::Commit { src } => {
                let size = B::size(&frame[*src]);
                work = work.saturating_add(size);
                s.assigned(&[], size)?;
            }
            Inst::Nop { ticks } => burn(fuel, *ticks)?,
            Inst::Enter { loop_id, ticks } => {
                burn(fuel, *ticks)?;
                here[*loop_id] = 0;
                if let Some(w) = &mut watch[*loop_id] {
                    w.at = None;
                }
            }
            Inst::Guard {
                loop_id,
                var,
                kind,
                exit,
            } => {
                let meta = &prog.loops[*loop_id];
                if !guard_go::<B>(*kind, &frame[*var]) {
                    s.loop_exit(&meta.path, here[*loop_id]);
                    pc = *exit;
                    continue;
                }
                here[*loop_id] += 1;
                iterations += 1;
                s.iteration(&meta.path, here[*loop_id])?;
                if meta.peeled.is_none() {
                    // A verified loop's body is `pc + 1..exit`; the
                    // whole stream watches a superset of its writes.
                    let body = prog.code.get(pc + 1..*exit).unwrap_or(&prog.code);
                    let w = watch[*loop_id].get_or_insert_with(|| Watch::new(body));
                    let now = Mark {
                        here: here[*loop_id],
                        iterations,
                        work,
                        fuel: fuel.remaining(),
                    };
                    if let Some(period) = w.head(&frame, now) {
                        let k = s.fast_forward(&meta.path, now.here, &period, fuel);
                        if k > 0 {
                            here[*loop_id] += k * period.here;
                            iterations += k * period.iterations;
                            work = work.saturating_add(k.saturating_mul(period.work));
                            recdb_obs::count("vm.loop.fast_forwards", 1);
                            recdb_obs::observe("vm.loop.skipped_iterations", k * period.iterations);
                        }
                        w.at = Some(Mark {
                            here: here[*loop_id],
                            iterations,
                            work,
                            fuel: fuel.remaining(),
                        });
                    }
                }
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

/// A schedule that passes every hook through to `inner` and records
/// the fast-forwards `inner` grants: the way to tell that a run really
/// skipped periods, which its outcome never shows.
pub struct RecordSkips<S> {
    /// The schedule that decides.
    pub inner: S,
    /// The period of each granted fast-forward.
    pub granted: Vec<Period>,
}

impl<S> RecordSkips<S> {
    /// Records the fast-forwards `inner` grants.
    pub fn new(inner: S) -> Self {
        RecordSkips {
            inner,
            granted: Vec::new(),
        }
    }
}

impl<S: Schedule> Schedule for RecordSkips<S> {
    type Stop = S::Stop;
    fn seminaive(&self) -> bool {
        self.inner.seminaive()
    }
    fn assigned(&mut self, path: &[u32], size: u64) -> Result<(), S::Stop> {
        self.inner.assigned(path, size)
    }
    fn iteration(&mut self, path: &[u32], here: u64) -> Result<(), S::Stop> {
        self.inner.iteration(path, here)
    }
    fn loop_exit(&mut self, path: &[u32], here: u64) {
        self.inner.loop_exit(path, here)
    }
    fn fast_forward(&mut self, path: &[u32], here: u64, period: &Period, fuel: &mut Fuel) -> u64 {
        let k = self.inner.fast_forward(path, here, period, fuel);
        if k > 0 {
            self.granted.push(*period);
        }
        k
    }
}

/// Runs a verifier-accepted program under a plain fuel budget — the
/// VM analogue of the interpreters' from-scratch `run` entry points
/// (semi-naive evaluation off), with identical observable fuel.
pub fn exec_plain<B: Backend>(b: &mut B, prog: &VmProg, fuel: &mut Fuel) -> Result<B::V, RunError> {
    exec_with(b, prog, fuel, &mut FuelOnly { seminaive: false })
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
    let r = exec_with(b, prog, &mut Fuel::new(budget.fuel), &mut s);
    s.finish(r)
}
