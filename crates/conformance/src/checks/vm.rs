//! Bytecode-VM rows: the compile → verify → execute pipeline of
//! `recdb-vm`, differentially checked against the tree-walking
//! interpreters and adversarially checked against corrupted bytecode.
//!
//! * **VM-DIFF** — ≥1000 seeded programs across the three backends
//!   (finitary QL, QLhs over a discrete hs-wrapping, QLf+ over fcf
//!   slices). Every program the compiler lowers must be accepted by
//!   the independent verifier. The reference is the tree walker with
//!   every loop fast-forward declined, so it runs every iteration;
//!   the VM and the fast-forwarding walker must agree with it
//!   *exactly* — completed values, runtime errors, and fuel exhaustion
//!   alike — at several fuel budgets including 0. The serve scheduling
//!   envelope is replayed too, under the budget schedule: the end
//!   event (the server's 200/408/422/500 decision), the iteration
//!   count, the preemption response, and the observed work and the
//!   work-cap verdict (for the VM, on programs with no elided stores).
//!   Both executors run under a recording wrapper of the schedules
//!   `run`/`run_scheduled`/`exec_plain`/`exec_scheduled` use, so the
//!   row also counts, per executor, the runs that really
//!   fast-forwarded a cycling loop, and demands enough of them. The
//!   random programs' cycling loops are mostly fixed points, where
//!   watching any subset of the written slots is exact, so the row
//!   adds seeded loops of period 6 whose largest written slot rotates
//!   through values of different sizes that no other slot determines,
//!   and demands enough fast-forwards of those too.
//! * **VM-VERIFY** — seeded single-instruction corruptions of
//!   verifier-accepted bytecode: every register bump, tick skew,
//!   opcode swap, relation-index change, guard/loop retarget, and
//!   constant change must either be *rejected* by the verifier or
//!   execute with semantics identical to the original at every probed
//!   fuel level. A corruption that changes behavior and slips through
//!   fails the row — the verifier, not the compiler, is the trusted
//!   component, and this row is its teeth.

use crate::gen;
use crate::ledger::{CheckCtx, CheckDef};
use crate::slice::{metered, Out, Slice};
use recdb_analyze::analyze_full;
use recdb_core::{Elem, FiniteStructure, Fuel, Schema, SplitMix64, Tuple};
use recdb_qlhs::exec::{
    run_with, Backend, Budget, Budgeted, ExecEnd, FuelOnly, GuardEval, RecordSkips,
};
use recdb_qlhs::{
    parse_program, Dialect, FcfInterp, FinInterp, HsInterp, LoopKind, Prog, RunError,
};
use recdb_vm::{compile, exec_plain, exec_with, verify, Inst, LowerOpts, VmProg};
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

/// Compiles and verifies under the round's full analysis. The inner
/// `Err` is a (legitimate) compile obstruction, tagged with its stable
/// code — those programs run on the tree walker only, so
/// *runtime-erroring programs never reach the VM at all* (rank
/// mismatches, out-of-schema relations, and dialect violations are all
/// static obstructions; the only runtime failure an accepted program
/// retains is fuel exhaustion).
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
    /// VM runs, plain and scheduled, that skipped at least one period.
    fast_forwarded: usize,
    /// Tree-walker runs, plain and scheduled, that did.
    walker_fast_forwarded: usize,
    /// VM runs that skipped a period of at least two iterations.
    long_periods: usize,
    /// Tree-walker runs that did.
    walker_long_periods: usize,
    /// Static obstructions by stable code — the programs only the tree
    /// walker runs (runtime errors, the server's 422s, live here).
    obstructed: BTreeMap<&'static str, usize>,
    /// Scheduled runs by end event.
    sched: BTreeMap<&'static str, usize>,
}

impl DiffTally {
    /// Counts the fast-forwards one VM run and one walker run made.
    fn count_skips<S>(&mut self, vm: &RecordSkips<S>, walker: &RecordSkips<S>) {
        let long = |r: &RecordSkips<S>| usize::from(r.granted.iter().any(|p| p.here >= 2));
        self.fast_forwarded += usize::from(!vm.granted.is_empty());
        self.walker_fast_forwarded += usize::from(!walker.granted.is_empty());
        self.long_periods += long(vm);
        self.walker_long_periods += long(walker);
    }
}

/// A seeded loop of period 6 whose largest written slot carries state
/// no other slot determines: `Y2` toggles between `R1` and its swap
/// (period 2) while `Y3` steps through the successor sets `{a}`,
/// `{b, c}`, `{d}` of `R1 = a→b, a→c, b→d, c→d, d→a` (period 3, of
/// sizes 1, 2, 1, so the phases differ in fuel and work). `Y1` is never
/// assigned, so the loop runs until a limit stops it. A watch that
/// misses `Y3` sees period 2 and skips to the wrong phase. The four
/// named elements are drawn from a universe of 4–6.
fn periodic_loop(rng: &mut SplitMix64) -> Result<(FiniteStructure, Prog), String> {
    let size = 4 + rng.gen_range(0, 3);
    let mut labels: Vec<u64> = (0..size).collect();
    rng.shuffle(&mut labels);
    let [a, b, c, d] = [labels[0], labels[1], labels[2], labels[3]];
    let edge = |x: u64, y: u64| Tuple::from_values([x, y]);
    let st = FiniteStructure::new(
        Schema::new([2, 1]),
        (0..size).map(Elem),
        vec![
            [edge(a, b), edge(a, c), edge(b, d), edge(c, d), edge(d, a)].into(),
            [Tuple::from_values([a])].into(),
        ],
    );
    let p = parse_program(
        "Y2 := R1; Y3 := R2; while empty(Y1) { Y2 := swap(Y2); Y3 := down(up(Y3) & R1); }",
    )
    .map_err(|e| format!("the periodic loop does not parse: {}", e.msg))?;
    Ok((st, p))
}

/// One round's program, its verified bytecode, and the budgets it runs
/// under.
struct Round<'a> {
    n: usize,
    dialect: Dialect,
    p: &'a Prog,
    vm: &'a VmProg,
    elided: usize,
    /// Plain-mode fuel levels.
    fuels: [u64; 3],
    /// Budget-schedule (fuel, work cap) pairs.
    sched: [(u64, Option<u64>); 2],
    preempt: bool,
}

/// Both executors, each fast-forwarding, against the reference: the
/// tree walker under the same schedule with every fast-forward
/// declined, so it runs every iteration. Plain mode (semi-naive off —
/// the VM recomputes from scratch) compares the result and, for the
/// walker, the fuel left; the serve-shaped budget schedule compares the
/// end event, the iterations and the work.
fn diff_round<B>(mk: &dyn Fn() -> B, r: &Round<'_>, tally: &mut DiffTally) -> Result<(), String>
where
    B: GuardEval + Backend<V = <B as GuardEval>::V>,
    <B as GuardEval>::V: PartialEq + std::fmt::Debug,
{
    let (p, vm, round) = (r.p, r.vm, r.n);
    let plain = || FuelOnly { seminaive: false };
    for &fuel in &r.fuels {
        let mut ref_fuel = Fuel::new(fuel);
        let mut reference = RecordSkips::declining(plain());
        let want = run_with(&mut mk(), r.dialect, p, &mut ref_fuel, &mut reference);
        let (mut walk_fuel, mut walk) = (Fuel::new(fuel), RecordSkips::new(plain()));
        let walked = run_with(&mut mk(), r.dialect, p, &mut walk_fuel, &mut walk);
        let mut s = RecordSkips::new(plain());
        let got = exec_with(&mut mk(), vm, &mut Fuel::new(fuel), &mut s);
        tally.count_skips(&s, &walk);
        if got != want || walked != want || walk_fuel != ref_fuel {
            return Err(format!(
                "round {round}: plain run diverged at fuel {fuel}:\n  reference: {want:?}\n  \
                 walker:    {walked:?} ({} fuel left, reference {})\n  vm:        {got:?}\n{p}\n{vm}",
                walk_fuel.remaining(),
                ref_fuel.remaining()
            ));
        }
        match &want {
            Ok(_) => tally.done_eq += 1,
            Err(recdb_qlhs::RunError::Fuel(_)) => tally.fuel_eq += 1,
            Err(_) => tally.err_eq += 1,
        }
    }
    let no_bounds = BTreeMap::new();
    for &(fuel, work_cap) in &r.sched {
        // Elided dead stores legitimately lower the VM's observed work;
        // only meter work when both executors count the same stores.
        let cap = if r.elided == 0 { work_cap } else { None };
        let budget = Budget {
            bounds: &no_bounds,
            total_cap: u64::MAX,
            fuel,
            work_cap: cap,
        };
        let preempt = AtomicBool::new(r.preempt);
        let budgeted = || Budgeted::new(&budget, &preempt);
        let mut reference = RecordSkips::declining(budgeted());
        let out = run_with(
            &mut mk(),
            r.dialect,
            p,
            &mut Fuel::new(fuel),
            &mut reference,
        );
        let want = reference.inner.finish(out);
        let mut walk = RecordSkips::new(budgeted());
        let out = run_with(&mut mk(), r.dialect, p, &mut Fuel::new(fuel), &mut walk);
        let mut s = RecordSkips::new(budgeted());
        let vm_out = exec_with(&mut mk(), vm, &mut Fuel::new(fuel), &mut s);
        tally.count_skips(&s, &walk);
        let walked = walk.inner.finish(out);
        let got = s.inner.finish(vm_out);
        // The end event is the server's status-code decision:
        // Done→200, OutOfFuel/Preempted→408, Errored→422, *Exceeded→500.
        for (who, run, counts_work) in [("walker", &walked, true), ("vm", &got, r.elided == 0)] {
            if run.end != want.end
                || run.iterations != want.iterations
                || (counts_work && run.work != want.work)
            {
                return Err(format!(
                    "round {round}: scheduled {who} run diverged at fuel {fuel} \
                     (work_cap {cap:?}, preempt {}):\n  reference: {want:?}\n  {who}: {run:?}\n{p}\n{vm}",
                    r.preempt
                ));
            }
        }
        *tally.sched.entry(end_tag(&want.end)).or_default() += 1;
    }
    Ok(())
}

/// [`diff_round`] on `slice`'s interpreter.
fn diff_slice(slice: &Slice, r: &Round<'_>, tally: &mut DiffTally) -> Result<(), String> {
    match slice {
        Slice::Fin(st) => diff_round(&|| FinInterp::new(st), r, tally),
        Slice::Hs(hs, _) => diff_round(&|| HsInterp::new(hs), r, tally),
        Slice::Fcf(db) => diff_round(&|| FcfInterp::new(db), r, tally),
    }
}

/// Runs verified bytecode on `slice`'s interpreter at `fuel`.
fn exec_vm(slice: &Slice, vm: &VmProg, fuel: u64) -> Result<Out, RunError> {
    let mut fuel = Fuel::new(fuel);
    match slice {
        Slice::Fin(st) => exec_plain(&mut FinInterp::new(st), vm, &mut fuel).map(Out::Val),
        Slice::Hs(hs, _) => exec_plain(&mut HsInterp::new(hs), vm, &mut fuel).map(Out::Val),
        Slice::Fcf(db) => exec_plain(&mut FcfInterp::new(db), vm, &mut fuel).map(Out::Fcf),
    }
}

/// VM-DIFF: see the module docs.
fn vm_diff(ctx: &mut CheckCtx) -> Result<(), String> {
    const PER_BACKEND: usize = 350;
    // Random-program runs with a granted fast-forward, per executor
    // (50 on the VM and 51 on the walker at the CI seed): without them
    // the row would compare no skipped period at all.
    const FAST_FORWARDED: usize = 25;
    // Seeded period-6 loops, and the runs per executor that must skip
    // a period of at least two iterations (120 each at the CI seed).
    const PERIODIC: usize = 40;
    const LONG_PERIODS: usize = 60;
    let mut tally = DiffTally::default();
    for which in 0..3 {
        for round in 0..PER_BACKEND {
            let families = ["vm-fin", "vm-hs-discrete", "vm-fcf"];
            let slice = metered(ctx, which, families, &format!("vm-{round}"));
            let dialect = slice.dialect();
            let schema = slice.schema();
            let shape = slice.shape(3, round % 2 == 0);
            let stmts = 1 + ctx.rng().gen_usize(3);
            let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
            tally.programs += 1;
            let (vm, elided) = match compile_verified(&p, &schema, dialect)? {
                Ok(ok) => ok,
                Err(code) => {
                    // Obstructed: the program runs on the tree walker
                    // only.
                    *tally.obstructed.entry(code).or_default() += 1;
                    continue;
                }
            };
            tally.vm_executed += 1;
            let r = Round {
                n: round,
                dialect,
                p: &p,
                vm: &vm,
                elided,
                fuels: [0, 5 + ctx.rng().gen_range(0, 40), 60_000],
                sched: [
                    (20 + ctx.rng().gen_range(0, 60), None),
                    (60_000, Some(1 + ctx.rng().gen_range(0, 8))),
                ],
                preempt: round % 5 == 0,
            };
            diff_slice(&slice, &r, &mut tally)?;
        }
    }
    let random_skips = (tally.fast_forwarded, tally.walker_fast_forwarded);
    // Loops whose period the watch must see in full, on the finite and
    // the hs backend, run far enough to skip and then hit every limit.
    for round in 0..PERIODIC {
        let (st, p) = periodic_loop(ctx.rng())?;
        let dialect = if round % 2 == 0 {
            Dialect::Ql
        } else {
            Dialect::Qlhs
        };
        let (vm, elided) = compile_verified(&p, st.schema(), dialect)?
            .map_err(|code| format!("periodic loop obstructed ({code}):\n{p}"))?;
        let r = Round {
            n: round,
            dialect,
            p: &p,
            vm: &vm,
            elided,
            fuels: [
                0,
                40 + ctx.rng().gen_range(0, 200),
                3_000 + ctx.rng().gen_range(0, 3_000),
            ],
            sched: [
                (3_000 + ctx.rng().gen_range(0, 3_000), None),
                (60_000, Some(200 + ctx.rng().gen_range(0, 2_000))),
            ],
            preempt: false,
        };
        let slice = if dialect == Dialect::Ql {
            Slice::Fin(st)
        } else {
            Slice::discrete(st)
        };
        diff_slice(&slice, &r, &mut tally)?;
    }
    // Teeth: the differential must have actually exercised every
    // outcome class, at scale. Verifier-accepted programs cannot
    // error at runtime except by fuel (every other failure is a
    // static obstruction), so the error/422 leg is covered by the
    // obstructed population instead: it must be non-trivial, and the
    // `error`-coded slice of it (definite runtime errors) present.
    let sched_tag = |tag: &str| tally.sched.get(tag).copied().unwrap_or(0);
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
        || random_skips.0 < FAST_FORWARDED
        || random_skips.1 < FAST_FORWARDED
        || tally.long_periods < LONG_PERIODS
        || tally.walker_long_periods < LONG_PERIODS
    {
        return Err(format!(
            "differential lost its teeth: programs {}, vm-executed {}, done {}, \
             errors {}, fuel {}, fast-forwarded {} (walker {}), periods ≥ 2 skipped {} \
             (walker {}), obstructed {:?}, scheduled {:?}",
            tally.programs,
            tally.vm_executed,
            tally.done_eq,
            tally.err_eq,
            tally.fuel_eq,
            random_skips.0,
            random_skips.1,
            tally.long_periods,
            tally.walker_long_periods,
            tally.obstructed,
            tally.sched
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
                LoopKind::Empty => LoopKind::Singleton,
                LoopKind::Singleton => LoopKind::Finite,
                LoopKind::Finite => LoopKind::Empty,
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
        let families = ["vm-verify-fin", "vm-verify-hs", "vm-verify-fcf"];
        let slice = metered(ctx, round % 3, families, &format!("vm-verify-{round}"));
        let dialect = slice.dialect();
        let schema = slice.schema();
        let shape = slice.shape(3, round % 2 == 0);
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
                    let same = exec_vm(&slice, &vm, fuel) == exec_vm(&slice, &corrupted, fuel);
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
