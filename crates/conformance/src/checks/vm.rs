//! Bytecode-VM rows: the compile → verify → execute pipeline of
//! `recdb-vm`, differentially checked against the tree-walking
//! interpreters and adversarially checked against corrupted bytecode.
//!
//! * **VM-DIFF** — ≥1000 seeded programs across the three backends
//!   (finitary QL, QLhs over a discrete hs-wrapping, QLf+ over fcf
//!   slices). Every program the compiler lowers must be accepted by
//!   the independent verifier, and the VM run must agree with the
//!   tree-walker *exactly* — completed values, runtime errors, and
//!   fuel exhaustion alike — at several fuel budgets including 0.
//!   The serve scheduling envelope is replayed too: `exec_scheduled`
//!   versus the tree-walking `run_scheduled`, both under the budget
//!   schedule, must agree on the end event (the server's
//!   200/408/422/500 decision), the iteration count, the preemption
//!   response, and — for programs with no elided stores — the
//!   observed work and the work-cap verdict.
//! * **VM-VERIFY** — seeded single-instruction corruptions of
//!   verifier-accepted bytecode: every register bump, tick skew,
//!   opcode swap, relation-index change, guard/loop retarget, and
//!   constant change must either be *rejected* by the verifier or
//!   execute with semantics identical to the original at every probed
//!   fuel level. A corruption that changes behavior and slips through
//!   fails the row — the verifier, not the compiler, is the trusted
//!   component, and this row is its teeth.

use super::ra::discrete_hs;
use crate::gen::{self, ProgShape};
use crate::ledger::{CheckCtx, CheckDef};
use recdb_analyze::analyze_full;
use recdb_core::{FiniteStructure, Fuel, Schema};
use recdb_hsdb::FcfDatabase;
use recdb_qlhs::exec::{run_scheduled, Backend, Budget, ExecEnd, GuardEval};
use recdb_qlhs::{Dialect, FcfInterp, FinInterp, HsInterp, Prog};
use recdb_vm::{compile, exec_plain, exec_scheduled, verify, GuardKind, Inst, LowerOpts, VmProg};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// The bytecode-VM rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "VM-DIFF",
            result: "§2/§4/§5 semantics on the register VM",
            title: "verified bytecode ≡ tree-walkers: values, errors, fuel, scheduling",
            run: vm_diff,
        },
        CheckDef {
            id: "VM-VERIFY",
            result: "verifier soundness under bytecode corruption",
            title: "single-instruction mutants are rejected or semantics-identical",
            run: vm_verify,
        },
    ]
}

/// One backend for a round.
enum VmCase {
    Fin(FiniteStructure),
    Hs(FiniteStructure),
    Fcf(FcfDatabase),
}

impl VmCase {
    fn dialect(&self) -> Dialect {
        match self {
            VmCase::Fin(_) => Dialect::Ql,
            VmCase::Hs(_) => Dialect::Qlhs,
            VmCase::Fcf(_) => Dialect::QlfPlus,
        }
    }

    fn schema(&self) -> Schema {
        match self {
            VmCase::Fin(st) | VmCase::Hs(st) => st.schema().clone(),
            VmCase::Fcf(db) => db.schema(),
        }
    }
}

/// Compiles and verifies under the round's full analysis, exactly as
/// the server does. The inner `Err` is a (legitimate) compile
/// obstruction, tagged with its stable code — those programs take the
/// tree-walk path on the server, so *runtime-erroring programs never
/// reach the VM at all* (rank mismatches, out-of-schema relations,
/// and dialect violations are all static obstructions; the only
/// runtime failure an accepted program retains is fuel exhaustion).
/// A verifier rejection of the compiler's own output is a hard error.
fn compile_verified(
    p: &Prog,
    schema: &Schema,
    dialect: Dialect,
) -> Result<Result<(VmProg, usize), &'static str>, String> {
    let full = analyze_full(p, schema, dialect);
    let vm = match compile(p, schema, dialect, &full.termination, &LowerOpts::default()) {
        Ok(vm) => vm,
        Err(o) => return Ok(Err(o.kind.code())),
    };
    match verify(
        &vm,
        p,
        schema,
        dialect,
        &full.termination,
        Some(&full.cost.verdict),
    ) {
        Ok(report) => Ok(Ok((vm, report.elided_stores))),
        Err(r) => Err(format!(
            "verifier rejected the compiler's own output: {r}\n{p}\n{vm}"
        )),
    }
}

fn end_tag<V>(e: &ExecEnd<V>) -> &'static str {
    match e {
        ExecEnd::Done(_) => "done",
        ExecEnd::Errored(_) => "errored",
        ExecEnd::OutOfFuel => "out-of-fuel",
        ExecEnd::Preempted => "preempted",
        ExecEnd::BoundExceeded { .. } => "bound-exceeded",
        ExecEnd::TotalExceeded { .. } => "total-exceeded",
        ExecEnd::WorkExceeded { .. } => "work-exceeded",
    }
}

/// Tallies from the differential rounds, for the final teeth check.
#[derive(Default)]
struct DiffTally {
    programs: usize,
    vm_executed: usize,
    done_eq: usize,
    err_eq: usize,
    fuel_eq: usize,
    /// Static obstructions by stable code — the tree-walk-fallback
    /// population (the server's 422s live here, and SERVE-DIFF proves
    /// that path byte-identical).
    obstructed: BTreeMap<&'static str, usize>,
}

/// Plain-mode differential on one backend instance: the tree-walker
/// (semi-naive off — the VM recomputes from scratch) versus
/// `exec_plain`, at each fuel level.
macro_rules! plain_diff {
    ($interp:ident, $backing:expr, $p:expr, $vm:expr, $fuels:expr, $tally:expr, $round:expr) => {{
        for &fuel in $fuels {
            let mut tree = $interp::new($backing);
            tree.set_seminaive(false);
            let want = tree.run($p, &mut Fuel::new(fuel));
            let mut vm_b = $interp::new($backing);
            let got = exec_plain(&mut vm_b, $vm, &mut Fuel::new(fuel));
            if got != want {
                return Err(format!(
                    "round {}: plain VM run diverged at fuel {fuel}:\n  tree: {want:?}\n  vm:   {got:?}\n{}\n{}",
                    $round, $p, $vm
                ));
            }
            match &want {
                Ok(_) => $tally.done_eq += 1,
                Err(recdb_qlhs::RunError::Fuel(_)) => $tally.fuel_eq += 1,
                Err(_) => $tally.err_eq += 1,
            }
        }
    }};
}

/// Scheduled-mode differential on one backend instance, under a
/// serve-shaped budget (and optionally with the preemption flag up).
#[allow(clippy::too_many_arguments)]
fn sched_diff<B>(
    mk: &mut dyn FnMut() -> B,
    dialect: Dialect,
    p: &Prog,
    vm: &VmProg,
    elided: usize,
    fuel: u64,
    work_cap: Option<u64>,
    preempt_flag: bool,
    round: usize,
) -> Result<&'static str, String>
where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
    <B as GuardEval>::V: PartialEq + std::fmt::Debug,
{
    let no_bounds = BTreeMap::new();
    // Elided dead stores legitimately lower the VM's observed work;
    // only meter work when the two executors count the same stores.
    let cap = if elided == 0 { work_cap } else { None };
    let budget = Budget {
        bounds: &no_bounds,
        total_cap: u64::MAX,
        fuel,
        work_cap: cap,
    };
    let preempt = AtomicBool::new(preempt_flag);
    let mut tree_b = mk();
    let tree = run_scheduled(&mut tree_b, dialect, p, &budget, &preempt);
    let mut vm_b = mk();
    let got = exec_scheduled(&mut vm_b, vm, &budget, &preempt);
    // The end event is the server's status-code decision: Done→200,
    // OutOfFuel/Preempted→408, Errored→422, *Exceeded→500.
    if tree.end != got.end {
        return Err(format!(
            "round {round}: scheduled end diverged at fuel {fuel} (work_cap {cap:?}, preempt {preempt_flag}):\n  tree: {:?}\n  vm:   {:?}\n{p}\n{vm}",
            tree.end, got.end
        ));
    }
    if tree.iterations != got.iterations {
        return Err(format!(
            "round {round}: iteration counts diverged at fuel {fuel}: tree {} vs vm {}\n{p}\n{vm}",
            tree.iterations, got.iterations
        ));
    }
    if elided == 0 && tree.work != got.work {
        return Err(format!(
            "round {round}: work counts diverged at fuel {fuel}: tree {} vs vm {}\n{p}\n{vm}",
            tree.work, got.work
        ));
    }
    Ok(end_tag(&tree.end))
}

/// VM-DIFF: see the module docs.
fn vm_diff(ctx: &mut CheckCtx) -> Result<(), String> {
    const PER_BACKEND: usize = 350;
    let mut tally = DiffTally::default();
    let mut sched: BTreeMap<&'static str, usize> = BTreeMap::new();
    for which in 0..3 {
        for round in 0..PER_BACKEND {
            let case = match which {
                0 => {
                    ctx.family("vm-fin");
                    let size = 3 + ctx.rng().gen_range(0, 2);
                    VmCase::Fin(gen::random_finite_graph(ctx.rng(), size))
                }
                1 => {
                    ctx.family("vm-hs-discrete");
                    let size = 3 + ctx.rng().gen_range(0, 2);
                    VmCase::Hs(gen::random_finite_graph(ctx.rng(), size))
                }
                _ => {
                    ctx.family("vm-fcf");
                    VmCase::Fcf(gen::random_fcf(ctx.rng(), &format!("vm-{round}")))
                }
            };
            let dialect = case.dialect();
            let schema = case.schema();
            let shape = ProgShape {
                rels: schema.len(),
                vars: 3,
                allow_singleton: dialect.admits_singleton_test(),
                allow_finite: dialect.admits_finiteness_test(),
                consts: 3,
                union_bias: round % 2 == 0,
            };
            let stmts = 1 + ctx.rng().gen_usize(3);
            let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
            tally.programs += 1;
            let (vm, elided) = match compile_verified(&p, &schema, dialect)? {
                Ok(ok) => ok,
                Err(code) => {
                    // Obstructed: the server falls back to the
                    // tree-walker (byte-identically, per SERVE-DIFF).
                    *tally.obstructed.entry(code).or_default() += 1;
                    continue;
                }
            };
            tally.vm_executed += 1;
            let fuels = [0, 5 + ctx.rng().gen_range(0, 40), 60_000];
            let sched_fuel = 20 + ctx.rng().gen_range(0, 60);
            let work_cap = Some(1 + ctx.rng().gen_range(0, 8));
            let preempt = round % 5 == 0;
            match &case {
                VmCase::Fin(st) => {
                    plain_diff!(FinInterp, st, &p, &vm, &fuels, tally, round);
                    for (fuel, cap) in [(sched_fuel, None), (60_000, work_cap)] {
                        let tag = sched_diff(
                            &mut || FinInterp::new(st),
                            dialect,
                            &p,
                            &vm,
                            elided,
                            fuel,
                            cap,
                            preempt,
                            round,
                        )?;
                        *sched.entry(tag).or_default() += 1;
                    }
                }
                VmCase::Hs(st) => {
                    let hs = discrete_hs(st);
                    plain_diff!(HsInterp, &hs, &p, &vm, &fuels, tally, round);
                    for (fuel, cap) in [(sched_fuel, None), (60_000, work_cap)] {
                        let tag = sched_diff(
                            &mut || HsInterp::new(&hs),
                            dialect,
                            &p,
                            &vm,
                            elided,
                            fuel,
                            cap,
                            preempt,
                            round,
                        )?;
                        *sched.entry(tag).or_default() += 1;
                    }
                }
                VmCase::Fcf(db) => {
                    plain_diff!(FcfInterp, db, &p, &vm, &fuels, tally, round);
                    for (fuel, cap) in [(sched_fuel, None), (60_000, work_cap)] {
                        let tag = sched_diff(
                            &mut || FcfInterp::new(db),
                            dialect,
                            &p,
                            &vm,
                            elided,
                            fuel,
                            cap,
                            preempt,
                            round,
                        )?;
                        *sched.entry(tag).or_default() += 1;
                    }
                }
            }
        }
    }
    // Teeth: the differential must have actually exercised every
    // outcome class, at scale. Verifier-accepted programs cannot
    // error at runtime except by fuel (every other failure is a
    // static obstruction), so the error/422 leg is covered by the
    // obstructed population instead: it must be non-trivial, and the
    // `error`-coded slice of it (definite runtime errors) present.
    let sched_tag = |tag: &str| sched.get(tag).copied().unwrap_or(0);
    let obstructed_err = tally.obstructed.get("error").copied().unwrap_or(0);
    if tally.programs < 1000
        || tally.vm_executed < 150
        || tally.done_eq < 150
        || tally.fuel_eq < 100
        || tally.err_eq != 0
        || obstructed_err < 25
        || sched_tag("done") < 50
        || sched_tag("out-of-fuel") < 25
        || sched_tag("preempted") < 10
        || sched_tag("work-exceeded") < 10
    {
        return Err(format!(
            "differential lost its teeth: programs {}, vm-executed {}, done {}, \
             errors {}, fuel {}, obstructed {:?}, scheduled {:?}",
            tally.programs,
            tally.vm_executed,
            tally.done_eq,
            tally.err_eq,
            tally.fuel_eq,
            tally.obstructed,
            sched
        ));
    }
    Ok(())
}

/// Every single-field corruption of one instruction, excluding
/// identity rewrites. Register bumps stay inside the frame (the
/// verifier's bounds checks are exercised by the `+1 % frame`
/// wrap-around hitting foreign registers, not by out-of-frame
/// indices, which `dst_ok`/`src_ok` reject trivially).
fn mutations(inst: &Inst, frame: usize, nrels: usize) -> Vec<Inst> {
    let bump = |r: usize| (r + 1) % frame.max(1);
    let mut out = Vec::new();
    match *inst {
        Inst::E { dst, ticks } => {
            out.push(Inst::E {
                dst: bump(dst),
                ticks,
            });
            out.push(Inst::E {
                dst,
                ticks: ticks + 1,
            });
        }
        Inst::Rel { dst, rel, ticks } => {
            out.push(Inst::Rel {
                dst: bump(dst),
                rel,
                ticks,
            });
            if nrels > 1 {
                out.push(Inst::Rel {
                    dst,
                    rel: (rel + 1) % nrels,
                    ticks,
                });
            }
            out.push(Inst::Rel {
                dst,
                rel,
                ticks: ticks + 1,
            });
        }
        Inst::Const { dst, val, ticks } => {
            out.push(Inst::Const {
                dst: bump(dst),
                val,
                ticks,
            });
            out.push(Inst::Const {
                dst,
                val: val + 1,
                ticks,
            });
            out.push(Inst::Const {
                dst,
                val,
                ticks: ticks + 1,
            });
        }
        Inst::Copy { dst, src, ticks } => {
            out.push(Inst::Copy {
                dst: bump(dst),
                src,
                ticks,
            });
            out.push(Inst::Copy {
                dst,
                src: bump(src),
                ticks,
            });
            out.push(Inst::Copy {
                dst,
                src,
                ticks: ticks + 1,
            });
        }
        Inst::And { dst, a, b, ticks } => {
            out.push(Inst::And {
                dst: bump(dst),
                a,
                b,
                ticks,
            });
            out.push(Inst::And {
                dst,
                a: bump(a),
                b,
                ticks,
            });
            out.push(Inst::And {
                dst,
                a,
                b: bump(b),
                ticks,
            });
            out.push(Inst::And {
                dst,
                a,
                b,
                ticks: ticks + 1,
            });
        }
        Inst::Not { dst, src, ticks } => {
            // Opcode swaps: ¬ → ↑/↓/swap are rank- or value-corrupting.
            out.push(Inst::Up { dst, src, ticks });
            out.push(Inst::Swap { dst, src, ticks });
            out.push(Inst::Not {
                dst: bump(dst),
                src,
                ticks,
            });
            out.push(Inst::Not {
                dst,
                src: bump(src),
                ticks,
            });
            out.push(Inst::Not {
                dst,
                src,
                ticks: ticks + 1,
            });
        }
        Inst::Up { dst, src, ticks } => {
            out.push(Inst::Down { dst, src, ticks });
            out.push(Inst::Not { dst, src, ticks });
            out.push(Inst::Up {
                dst: bump(dst),
                src,
                ticks,
            });
            out.push(Inst::Up {
                dst,
                src: bump(src),
                ticks,
            });
            out.push(Inst::Up {
                dst,
                src,
                ticks: ticks + 1,
            });
        }
        Inst::Down { dst, src, ticks } => {
            out.push(Inst::Up { dst, src, ticks });
            out.push(Inst::Swap { dst, src, ticks });
            out.push(Inst::Down {
                dst: bump(dst),
                src,
                ticks,
            });
            out.push(Inst::Down {
                dst,
                src: bump(src),
                ticks,
            });
            out.push(Inst::Down {
                dst,
                src,
                ticks: ticks + 1,
            });
        }
        Inst::Swap { dst, src, ticks } => {
            out.push(Inst::Not { dst, src, ticks });
            out.push(Inst::Swap {
                dst: bump(dst),
                src,
                ticks,
            });
            out.push(Inst::Swap {
                dst,
                src: bump(src),
                ticks,
            });
            out.push(Inst::Swap {
                dst,
                src,
                ticks: ticks + 1,
            });
        }
        Inst::Commit { src } => {
            out.push(Inst::Commit { src: bump(src) });
        }
        Inst::Nop { ticks } => {
            out.push(Inst::Nop { ticks: ticks + 1 });
            if ticks > 0 {
                out.push(Inst::Nop { ticks: ticks - 1 });
            }
        }
        Inst::Enter { loop_id, ticks } => {
            out.push(Inst::Enter {
                loop_id: loop_id + 1,
                ticks,
            });
            out.push(Inst::Enter {
                loop_id,
                ticks: ticks + 1,
            });
        }
        Inst::Guard {
            loop_id,
            var,
            kind,
            exit,
        } => {
            let other = match kind {
                GuardKind::Empty => GuardKind::Single,
                GuardKind::Single => GuardKind::Finite,
                GuardKind::Finite => GuardKind::Empty,
            };
            out.push(Inst::Guard {
                loop_id,
                var,
                kind: other,
                exit,
            });
            out.push(Inst::Guard {
                loop_id: loop_id + 1,
                var,
                kind,
                exit,
            });
            out.push(Inst::Guard {
                loop_id,
                var: bump(var),
                kind,
                exit,
            });
            out.push(Inst::Guard {
                loop_id,
                var,
                kind,
                exit: exit + 1,
            });
            if exit > 0 {
                out.push(Inst::Guard {
                    loop_id,
                    var,
                    kind,
                    exit: exit - 1,
                });
            }
        }
        Inst::Back { to, ticks } => {
            out.push(Inst::Back { to: to + 1, ticks });
            out.push(Inst::Back {
                to,
                ticks: ticks + 1,
            });
        }
        Inst::Trap { loop_id } => {
            out.push(Inst::Trap {
                loop_id: loop_id + 1,
            });
        }
        Inst::Halt { ticks } => {
            out.push(Inst::Halt { ticks: ticks + 1 });
        }
    }
    out.retain(|m| m != inst);
    out
}

/// VM-VERIFY: see the module docs.
fn vm_verify(ctx: &mut CheckCtx) -> Result<(), String> {
    const ROUNDS: usize = 120;
    let mut accepted_programs = 0usize;
    let mut mutants = 0usize;
    let mut rejected = 0usize;
    let mut accepted_identical = 0usize;
    for round in 0..ROUNDS {
        let case = match round % 3 {
            0 => {
                ctx.family("vm-verify-fin");
                let size = 3 + ctx.rng().gen_range(0, 2);
                VmCase::Fin(gen::random_finite_graph(ctx.rng(), size))
            }
            1 => {
                ctx.family("vm-verify-hs");
                let size = 3 + ctx.rng().gen_range(0, 2);
                VmCase::Hs(gen::random_finite_graph(ctx.rng(), size))
            }
            _ => {
                ctx.family("vm-verify-fcf");
                VmCase::Fcf(gen::random_fcf(ctx.rng(), &format!("vm-verify-{round}")))
            }
        };
        let dialect = case.dialect();
        let schema = case.schema();
        let shape = ProgShape {
            rels: schema.len(),
            vars: 3,
            allow_singleton: dialect.admits_singleton_test(),
            allow_finite: dialect.admits_finiteness_test(),
            consts: 3,
            union_bias: round % 2 == 0,
        };
        let stmts = 1 + ctx.rng().gen_usize(3);
        let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        let Ok((vm, _)) = compile_verified(&p, &schema, dialect)? else {
            continue;
        };
        accepted_programs += 1;
        let full = analyze_full(&p, &schema, dialect);
        // Mutate a seeded sample of instruction positions (all of
        // them for short programs).
        let picks: Vec<usize> = if vm.code.len() <= 6 {
            (0..vm.code.len()).collect()
        } else {
            (0..6).map(|_| ctx.rng().gen_usize(vm.code.len())).collect()
        };
        for at in picks {
            for m in mutations(&vm.code[at], vm.frame, schema.len()) {
                mutants += 1;
                let mut corrupted = vm.clone();
                corrupted.code[at] = m;
                let accepted = verify(
                    &corrupted,
                    &p,
                    &schema,
                    dialect,
                    &full.termination,
                    Some(&full.cost.verdict),
                )
                .is_ok();
                if !accepted {
                    rejected += 1;
                    continue;
                }
                // A corruption the verifier accepts must be
                // observationally identical to the original.
                for fuel in [0u64, 13, 50_000] {
                    let same = match &case {
                        VmCase::Fin(st) => {
                            exec_plain(&mut FinInterp::new(st), &vm, &mut Fuel::new(fuel))
                                == exec_plain(
                                    &mut FinInterp::new(st),
                                    &corrupted,
                                    &mut Fuel::new(fuel),
                                )
                        }
                        VmCase::Hs(st) => {
                            let hs = discrete_hs(st);
                            exec_plain(&mut HsInterp::new(&hs), &vm, &mut Fuel::new(fuel))
                                == exec_plain(
                                    &mut HsInterp::new(&hs),
                                    &corrupted,
                                    &mut Fuel::new(fuel),
                                )
                        }
                        VmCase::Fcf(db) => {
                            exec_plain(&mut FcfInterp::new(db), &vm, &mut Fuel::new(fuel))
                                == exec_plain(
                                    &mut FcfInterp::new(db),
                                    &corrupted,
                                    &mut Fuel::new(fuel),
                                )
                        }
                    };
                    if !same {
                        return Err(format!(
                            "round {round}: verifier accepted a semantics-changing mutation \
                             at pc {at} ({:?} → {:?}) observable at fuel {fuel}\n{p}\n{vm}",
                            vm.code[at], corrupted.code[at]
                        ));
                    }
                }
                accepted_identical += 1;
            }
        }
    }
    if accepted_programs < 50 || mutants < 500 || rejected < 450 {
        return Err(format!(
            "adversarial row lost its teeth: {accepted_programs} accepted programs, \
             {mutants} mutants ({rejected} rejected, {accepted_identical} accepted-identical)"
        ));
    }
    Ok(())
}
