//! Lowering: validated QLhs AST → flat register bytecode.
//!
//! The compiler is *not* trusted — every program it emits must pass
//! the independent verifier before execution — but it is engineered to
//! preserve tree-walker semantics exactly:
//!
//! * **Fuel**: the tree-walkers tick once at every `Prog`-node entry
//!   and every `Term`-node entry, plus once per loop iteration.
//!   Lowering accumulates those statically-known ticks in a `pending`
//!   counter flushed into the next emitted instruction's `ticks`
//!   field. Between a tick and the next data-dependent fuel event or
//!   fallible op the walkers perform no observable action, so bulk
//!   `Fuel::consume` at instruction boundaries drains fuel at the
//!   same observable positions with the same `FuelError`.
//! * **Errors**: lowering *obstructs* (returns [`Obstruction`]) on
//!   anything that could make an instruction fail at runtime other
//!   than fuel — unknown/poisoned ranks, provable rank mismatches,
//!   out-of-schema relations, dialect violations, a QLf⁺ `↑` whose
//!   operand is not surely finite. The caller falls back to the tree
//!   walker, which reproduces the identical runtime error (or
//!   success); accepted programs can only fail with fuel exhaustion.
//! * **Loops**: a loop the termination prover bounded by small `b` is
//!   unrolled into `b` guarded body copies, a final guard, and a
//!   [`Inst::Trap`] that is unreachable unless the prover's bound was
//!   wrong. Other loops lower to a guard/backedge pair, which
//!   requires the variable ranks at the loop head to be stable under
//!   the body: the head is `recdb_analyze::rank::ShapeWalk::loop_head`,
//!   the shared loop-head driver run over the shared (rank,
//!   finiteness) transfer, where changed ranks join to unknown (as
//!   does every body-written variable once the round budget is
//!   spent); a body that then *reads* such a variable obstructs.
//! * **Dead stores** found by `recdb_analyze::dataflow` are elided
//!   when the stored term is tick-free under the dialect and provably
//!   error-free; the term's static entry ticks survive as pending
//!   ticks, so fuel accounting is unchanged.
//!
//! This module defines no value lattice or term transfer of its own:
//! every state it types registers with comes from
//! `recdb_analyze::rank::step`. What it adds is the obstruction checks.

use crate::bytecode::{Inst, LoopMeta, VmProg};
use recdb_analyze::cost::UNROLL_CAP;
use recdb_analyze::dataflow::{analyze_dataflow, RegPool};
use recdb_analyze::fix::{join_vars, Budget};
use recdb_analyze::rank::{step, Fin, Shape, ShapeWalk};
use recdb_analyze::{LoopBound, TerminationAnalysis};
use recdb_core::Schema;
use recdb_qlhs::{term_size, Dialect, LoopKind, NodePath, Prog, Term};
use std::collections::BTreeSet;
use std::fmt;

/// Why a program could not be lowered. Obstructed programs run on the
/// tree-walking interpreters instead — same results, same errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obstruction {
    /// Coarse class, stable for tooling (`dialect`/`error`/`unprovable`).
    pub kind: ObstructionKind,
    /// Tree path of the statement that obstructed.
    pub path: NodePath,
    /// Human-readable detail.
    pub detail: String,
}

/// The coarse obstruction classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObstructionKind {
    /// The program fails the dialect check (the tree-walker raises
    /// `DialectViolation`).
    Dialect,
    /// An instruction would provably error at runtime (rank mismatch,
    /// out-of-schema relation, `↑` of a surely-infinite value).
    Error,
    /// A static fact the compiler needs (exact rank, surely-finite,
    /// loop-stable ranks) could not be proved.
    Unprovable,
}

impl ObstructionKind {
    /// Stable lowercase code (`dialect` / `error` / `unprovable`) —
    /// the token the corpus `// VM: reject=<code>` directives pin.
    pub fn code(self) -> &'static str {
        match self {
            ObstructionKind::Dialect => "dialect",
            ObstructionKind::Error => "error",
            ObstructionKind::Unprovable => "unprovable",
        }
    }
}

impl fmt::Display for Obstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at {:?}: {}",
            self.kind.code(),
            self.path,
            self.detail
        )
    }
}

/// Compiler knobs. Loops with a proved bound of at most the cost
/// pass's unroll budget (`recdb_analyze::cost::UNROLL_CAP`) are always
/// unrolled.
#[derive(Clone, Debug)]
pub struct LowerOpts {
    /// Eliminate dead stores (liveness-killed assignments of tick-free
    /// terms).
    pub dse: bool,
}

impl Default for LowerOpts {
    fn default() -> LowerOpts {
        LowerOpts { dse: true }
    }
}

/// An operator instruction from its `dst`, operand registers (the
/// second unused by unary operators) and `ticks`.
type OpInst = fn(usize, usize, usize, u32) -> Inst;

struct Lower<'a> {
    walk: ShapeWalk<'a>,
    termination: &'a TerminationAnalysis,
    dead: BTreeSet<NodePath>,
    opts: LowerOpts,
    code: Vec<Inst>,
    loops: Vec<LoopMeta>,
    pool: RegPool,
    pending: u32,
    vars: Vec<Shape>,
    unrolled: u64,
}

impl Lower<'_> {
    fn take_pending(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }

    fn obstruct<T>(
        &self,
        kind: ObstructionKind,
        path: &[u32],
        detail: impl Into<String>,
    ) -> Result<T, Obstruction> {
        Err(Obstruction {
            kind,
            path: path.to_vec(),
            detail: detail.into(),
        })
    }

    /// Is `t` free of data-dependent fuel under the dialect? (The
    /// dead-store side condition: elision must not change fuel.)
    fn tick_free(&self, t: &Term) -> bool {
        let op_ok = match t {
            Term::Not(_) => self.walk.dialect != Dialect::Ql,
            Term::Up(_) => false,
            Term::Down(_) | Term::Swap(_) => self.walk.dialect != Dialect::Qlhs,
            _ => true,
        };
        op_ok
            && match t {
                Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => true,
                Term::And(a, b) => self.tick_free(a) && self.tick_free(b),
                Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => self.tick_free(e),
            }
    }

    /// Lowers a term in post-order. Returns the register holding the
    /// value and its shape ([`step`] of its operands' shapes). `dst`
    /// forces the result register (the assignment root's home
    /// register).
    fn lower_term(
        &mut self,
        t: &Term,
        dst: Option<usize>,
        path: &[u32],
    ) -> Result<(usize, Shape), Obstruction> {
        self.pending += 1; // the term node's entry tick
                           // Operand registers and shapes; `n` of them are used.
        let mut kids = [(0, Shape::TOP); 2];
        let (inst, n): (OpInst, usize) = match t {
            Term::Var(v) => {
                let s = self.vars[*v];
                if s.rank.known().is_none() {
                    return self.obstruct(
                        ObstructionKind::Unprovable,
                        path,
                        format!("Y{} has no provable rank here", v + 1),
                    );
                }
                return match dst {
                    // Interior Var: the value already lives in its
                    // home register; no instruction, the entry tick
                    // stays pending.
                    None => Ok((*v, s)),
                    Some(d) => {
                        let ticks = self.take_pending();
                        self.code.push(Inst::Copy {
                            dst: d,
                            src: *v,
                            ticks,
                        });
                        Ok((d, s))
                    }
                };
            }
            Term::Rel(i) if *i >= self.walk.schema.len() => {
                return self.obstruct(
                    ObstructionKind::Error,
                    path,
                    format!("R{} is outside the schema", i + 1),
                );
            }
            Term::E | Term::Rel(_) | Term::Const(_) => {
                let s = step(t, self.walk.schema, self.walk.dialect, &[]);
                let d = self.place(dst, s.rank.known().unwrap_or(0));
                let ticks = self.take_pending();
                self.code.push(match t {
                    Term::Rel(i) => Inst::Rel {
                        dst: d,
                        rel: *i,
                        ticks,
                    },
                    Term::Const(c) => Inst::Const {
                        dst: d,
                        val: *c,
                        ticks,
                    },
                    _ => Inst::E { dst: d, ticks },
                });
                return Ok((d, s));
            }
            Term::And(a, b) => {
                kids[0] = self.lower_term(a, None, path)?;
                kids[1] = self.lower_term(b, None, path)?;
                let [ka, kb] = kids.map(|k| k.1.rank.known().unwrap_or(0));
                if ka != kb {
                    return self.obstruct(
                        ObstructionKind::Error,
                        path,
                        format!("∩ of rank {ka} with rank {kb} always errors"),
                    );
                }
                (|dst, a, b, ticks| Inst::And { dst, a, b, ticks }, 2)
            }
            Term::Not(e) => {
                kids[0] = self.lower_term(e, None, path)?;
                (|dst, src, _, ticks| Inst::Not { dst, src, ticks }, 1)
            }
            Term::Up(e) => {
                kids[0] = self.lower_term(e, None, path)?;
                if self.walk.dialect == Dialect::QlfPlus {
                    match kids[0].1.fin {
                        Fin::Finite => {}
                        Fin::Cofinite => {
                            return self.obstruct(
                                ObstructionKind::Error,
                                path,
                                "↑ of a surely co-finite value always errors",
                            )
                        }
                        Fin::Unknown => {
                            return self.obstruct(
                                ObstructionKind::Unprovable,
                                path,
                                "cannot prove the ↑ operand finite",
                            )
                        }
                    }
                }
                (|dst, src, _, ticks| Inst::Up { dst, src, ticks }, 1)
            }
            Term::Down(e) => {
                kids[0] = self.lower_term(e, None, path)?;
                (|dst, src, _, ticks| Inst::Down { dst, src, ticks }, 1)
            }
            Term::Swap(e) => {
                kids[0] = self.lower_term(e, None, path)?;
                (|dst, src, _, ticks| Inst::Swap { dst, src, ticks }, 1)
            }
        };
        let s = step(
            t,
            self.walk.schema,
            self.walk.dialect,
            &kids.map(|k| k.1)[..n],
        );
        for k in &kids[..n] {
            self.pool.release(k.0);
        }
        let d = self.place(dst, s.rank.known().unwrap_or(0));
        let ticks = self.take_pending();
        self.code.push(inst(d, kids[0].0, kids[1].0, ticks));
        Ok((d, s))
    }

    fn place(&mut self, dst: Option<usize>, rank: usize) -> usize {
        match dst {
            Some(d) => d,
            None => self.pool.alloc(rank),
        }
    }

    fn lower_prog(&mut self, p: &Prog, path: &mut NodePath) -> Result<(), Obstruction> {
        self.pending += 1; // the statement node's entry tick
        match p {
            Prog::Assign(v, t) => {
                if self.opts.dse && self.dead.contains(path.as_slice()) && self.tick_free(t) {
                    let s = self.walk.term(t, &self.vars);
                    if s.rank.known().is_some() {
                        // Elide the store: its statically-counted term
                        // ticks stay pending; no value, no commit.
                        self.pending += term_size(t) as u32;
                        self.vars[*v] = s;
                        return Ok(());
                    }
                }
                let (_, s) = self.lower_term(t, Some(*v), path)?;
                self.vars[*v] = s;
                self.code.push(Inst::Commit { src: *v });
                Ok(())
            }
            Prog::Seq(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    path.push(i as u32);
                    let r = self.lower_prog(q, path);
                    path.pop();
                    r?;
                }
                Ok(())
            }
            Prog::WhileEmpty(v, body)
            | Prog::WhileSingleton(v, body)
            | Prog::WhileFinite(v, body) => {
                let kind = match p {
                    Prog::WhileEmpty(..) => LoopKind::Empty,
                    Prog::WhileSingleton(..) => LoopKind::Singleton,
                    _ => LoopKind::Finite,
                };
                let bound = self
                    .termination
                    .bound_at(path)
                    .map(|l| l.bound)
                    .unwrap_or(LoopBound::Unknown);
                let peeled = match bound {
                    LoopBound::Bounded(b) if b <= UNROLL_CAP => Some(b),
                    _ => None,
                };
                self.lower_loop(*v, kind, body, peeled, path)
            }
        }
    }

    /// Lowers a loop in one of two forms, both entered by `enter`.
    ///
    /// * Unrolled, for a loop `peeled` with a proved bound `b`:
    ///   `(guard body)ᵇ guard trap`. The trap is unreachable unless the
    ///   prover's bound was wrong; in scheduled mode with the bound in
    ///   the budget, the final guard's counter check reports
    ///   `BoundExceeded` first — exactly the counted executor's
    ///   behavior. It leaves in the join of the states after 0..=b
    ///   iterations.
    /// * Backedge, otherwise: `guard body back`. The body is lowered
    ///   once, so the variable ranks it is typed under must hold on
    ///   *every* iteration: the head state is
    ///   [`ShapeWalk::loop_head`] (changed ranks join to unknown; the
    ///   body reading such a variable obstructs inside `lower_term`).
    ///   It leaves at the guard, i.e. in the head state, which the
    ///   body's concrete transfer stays within.
    fn lower_loop(
        &mut self,
        var: usize,
        kind: LoopKind,
        body: &Prog,
        peeled: Option<u64>,
        path: &mut NodePath,
    ) -> Result<(), Obstruction> {
        let loop_id = self.loops.len();
        self.loops.push(LoopMeta {
            path: path.clone(),
            peeled,
        });
        let ticks = self.take_pending();
        self.code.push(Inst::Enter { loop_id, ticks });
        if peeled.is_none() {
            self.vars = self.walk.loop_head(body, self.vars.clone());
        }
        // Unrolled: the state after 0 iterations; backedge: the head.
        let mut exit_state = self.vars.clone();
        let mut guards = Vec::new();
        for _ in 0..peeled.unwrap_or(1) {
            guards.push(self.code.len());
            self.code.push(Inst::Guard {
                loop_id,
                var,
                kind,
                exit: usize::MAX,
            });
            self.pending += 1; // the iteration tick
            path.push(0);
            let r = self.lower_prog(body, path);
            path.pop();
            r?;
            if peeled.is_some() {
                if self.pending > 0 {
                    let ticks = self.take_pending();
                    self.code.push(Inst::Nop { ticks });
                }
                exit_state = join_vars(&exit_state, &self.vars);
            }
        }
        if peeled.is_some() {
            guards.push(self.code.len());
            self.code.push(Inst::Guard {
                loop_id,
                var,
                kind,
                exit: usize::MAX,
            });
            self.code.push(Inst::Trap { loop_id });
            self.unrolled += 1;
        } else {
            let ticks = self.take_pending();
            self.code.push(Inst::Back {
                to: guards[0],
                ticks,
            });
        }
        let end = self.code.len();
        for g in guards {
            if let Inst::Guard { exit, .. } = &mut self.code[g] {
                *exit = end;
            }
        }
        self.vars = exit_state;
        Ok(())
    }
}

/// Compiles a program against a schema, dialect, and the termination
/// prover's loop bounds. On success the result must still pass
/// [`crate::verify::verify`] before anything executes it.
pub fn compile(
    p: &Prog,
    schema: &Schema,
    dialect: Dialect,
    termination: &TerminationAnalysis,
    opts: &LowerOpts,
) -> Result<VmProg, Obstruction> {
    if let Err(v) = dialect.check(p) {
        return Err(Obstruction {
            kind: ObstructionKind::Dialect,
            path: Vec::new(),
            detail: v.message().to_string(),
        });
    }
    let nvars = p.max_var().map_or(1, |m| m + 1).max(1);
    let dead = if opts.dse {
        analyze_dataflow(p).dead_stores
    } else {
        BTreeSet::new()
    };
    let mut l = Lower {
        walk: ShapeWalk {
            schema,
            dialect,
            budget: Budget::default(),
        },
        termination,
        dead,
        opts: opts.clone(),
        code: Vec::new(),
        loops: Vec::new(),
        pool: RegPool::new(nvars),
        pending: 0,
        vars: vec![Shape::UNSET; nvars],
        unrolled: 0,
    };
    let lowered = l.lower_prog(p, &mut Vec::new());
    l.walk.budget.record();
    lowered?;
    let ticks = l.take_pending();
    l.code.push(Inst::Halt { ticks });
    recdb_obs::count("vm.compiles", 1);
    recdb_obs::count("vm.loops.unrolled", l.unrolled);
    recdb_obs::observe("vm.registers.allocated", l.pool.frame_size() as u64);
    Ok(VmProg {
        code: l.code,
        nvars,
        frame: l.pool.frame_size(),
        loops: l.loops,
    })
}
