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
//!   the body's abstract transfer (iterated to a fixpoint, widening
//!   changed ranks to unknown; a body that then *reads* a widened
//!   variable obstructs).
//! * **Dead stores** found by `recdb_analyze::dataflow` are elided
//!   when the stored term is tick-free under the dialect and provably
//!   error-free; the term's static entry ticks survive as pending
//!   ticks, so fuel accounting is unchanged.

use crate::bytecode::{Inst, LoopMeta, VmProg};
use recdb_analyze::dataflow::{analyze_dataflow, RegPool};
use recdb_analyze::{LoopBound, TerminationAnalysis};
use recdb_core::Schema;
use recdb_qlhs::{Dialect, LoopKind, NodePath, Prog, Term};
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

/// Compiler knobs.
#[derive(Clone, Debug)]
pub struct LowerOpts {
    /// Unroll loops with a proved bound of at most this many
    /// iterations (matches the cost pass's unroll budget by default).
    pub peel_cap: u64,
    /// Eliminate dead stores (liveness-killed assignments of tick-free
    /// terms).
    pub dse: bool,
}

impl Default for LowerOpts {
    fn default() -> LowerOpts {
        LowerOpts {
            peel_cap: 8,
            dse: true,
        }
    }
}

/// Surely-finite lattice for QLf⁺ values (whether the *stored* tuples
/// are the relation itself, not a complement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fin3 {
    Finite,
    Infinite,
    Unknown,
}

impl Fin3 {
    fn join(self, other: Fin3) -> Fin3 {
        if self == other {
            self
        } else {
            Fin3::Unknown
        }
    }
}

/// Per-variable static state. `rank: None` means unknown/poisoned.
#[derive(Clone, Debug, PartialEq, Eq)]
struct VarState {
    rank: Option<usize>,
    fin: Fin3,
}

impl VarState {
    fn unset() -> VarState {
        VarState {
            rank: Some(0),
            fin: Fin3::Finite,
        }
    }

    fn join(&self, other: &VarState) -> VarState {
        VarState {
            rank: match (self.rank, other.rank) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            fin: self.fin.join(other.fin),
        }
    }
}

fn join_vars(a: &[VarState], b: &[VarState]) -> Vec<VarState> {
    a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
}

/// Term-node count — the statically-known entry ticks of a term.
fn term_nodes(t: &Term) -> u32 {
    match t {
        Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => 1,
        Term::And(a, b) => 1 + term_nodes(a) + term_nodes(b),
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => 1 + term_nodes(e),
    }
}

struct Lower<'a> {
    schema: &'a Schema,
    dialect: Dialect,
    termination: &'a TerminationAnalysis,
    dead: BTreeSet<NodePath>,
    opts: LowerOpts,
    code: Vec<Inst>,
    loops: Vec<LoopMeta>,
    pool: RegPool,
    pending: u32,
    vars: Vec<VarState>,
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

    /// The dialect-aware (rank, finiteness) transfer of a term, total:
    /// un-typable subterms yield `rank: None` and the *concrete*
    /// lowering reports the obstruction. Used for loop fixpoints and
    /// dead-store legality.
    fn abs_term(&self, t: &Term, vars: &[VarState]) -> VarState {
        let fcf = self.dialect == Dialect::QlfPlus;
        match t {
            Term::E => VarState {
                rank: Some(2),
                fin: Fin3::Finite,
            },
            Term::Const(_) => VarState {
                rank: Some(1),
                fin: Fin3::Finite,
            },
            Term::Rel(i) => {
                if *i < self.schema.len() {
                    VarState {
                        rank: Some(self.schema.arity(*i)),
                        // A QLf⁺ schema relation may be stored co-finite
                        // — that is per-database data, not schema.
                        fin: if fcf { Fin3::Unknown } else { Fin3::Finite },
                    }
                } else {
                    VarState {
                        rank: None,
                        fin: Fin3::Unknown,
                    }
                }
            }
            Term::Var(v) => vars.get(*v).cloned().unwrap_or_else(VarState::unset),
            Term::And(a, b) => {
                let (xa, xb) = (self.abs_term(a, vars), self.abs_term(b, vars));
                VarState {
                    rank: match (xa.rank, xb.rank) {
                        (Some(x), Some(y)) if x == y => Some(x),
                        _ => None,
                    },
                    fin: match (xa.fin, xb.fin) {
                        (Fin3::Finite, _) | (_, Fin3::Finite) => Fin3::Finite,
                        (Fin3::Infinite, Fin3::Infinite) => Fin3::Infinite,
                        _ => Fin3::Unknown,
                    },
                }
            }
            Term::Not(e) => {
                let x = self.abs_term(e, vars);
                VarState {
                    rank: x.rank,
                    fin: if fcf {
                        match x.fin {
                            Fin3::Finite => Fin3::Infinite,
                            Fin3::Infinite => Fin3::Finite,
                            Fin3::Unknown => Fin3::Unknown,
                        }
                    } else {
                        Fin3::Finite
                    },
                }
            }
            Term::Up(e) => {
                let x = self.abs_term(e, vars);
                VarState {
                    rank: x.rank.map(|k| k + 1),
                    fin: Fin3::Finite,
                }
            }
            Term::Down(e) => {
                let x = self.abs_term(e, vars);
                let rank = x.rank.map(|k| k.saturating_sub(1));
                VarState {
                    rank,
                    fin: match x.fin {
                        Fin3::Finite => Fin3::Finite,
                        // ↓ of a co-finite value of rank ≤ 1 stores
                        // finitely ({()} or ∅); rank ≥ 2 stays co-finite.
                        Fin3::Infinite => match x.rank {
                            Some(k) if k <= 1 => Fin3::Finite,
                            Some(_) => Fin3::Infinite,
                            None => Fin3::Unknown,
                        },
                        Fin3::Unknown => match x.rank {
                            Some(0) => Fin3::Finite,
                            Some(1) => Fin3::Finite,
                            _ => Fin3::Unknown,
                        },
                    },
                }
            }
            Term::Swap(e) => self.abs_term(e, vars),
        }
    }

    /// Abstract statement transfer (total, no emission): the loop
    /// fixpoint driver. Inner loops are themselves join-fixpointed,
    /// which over-approximates both lowering forms.
    fn abs_prog(&self, p: &Prog, vars: &mut Vec<VarState>) {
        match p {
            Prog::Assign(v, t) => {
                let s = self.abs_term(t, vars);
                if *v < vars.len() {
                    vars[*v] = s;
                }
            }
            Prog::Seq(ps) => {
                for q in ps {
                    self.abs_prog(q, vars);
                }
            }
            Prog::WhileEmpty(_, body)
            | Prog::WhileSingleton(_, body)
            | Prog::WhileFinite(_, body) => {
                let mut head = vars.clone();
                loop {
                    let mut s = head.clone();
                    self.abs_prog(body, &mut s);
                    let next = join_vars(&head, &s);
                    if next == head {
                        break;
                    }
                    head = next;
                }
                *vars = head;
            }
        }
    }

    /// Is `t` free of data-dependent fuel under the dialect? (The
    /// dead-store side condition: elision must not change fuel.)
    fn tick_free(&self, t: &Term) -> bool {
        let op_ok = match t {
            Term::Not(_) => self.dialect != Dialect::Ql,
            Term::Up(_) => false,
            Term::Down(_) | Term::Swap(_) => self.dialect != Dialect::Qlhs,
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
    /// value and its static state. `dst` forces the result register
    /// (the assignment root's home register).
    fn lower_term(
        &mut self,
        t: &Term,
        dst: Option<usize>,
        path: &[u32],
    ) -> Result<(usize, VarState), Obstruction> {
        self.pending += 1; // the term node's entry tick
        let fcf = self.dialect == Dialect::QlfPlus;
        match t {
            Term::Var(v) => {
                let s = self.vars[*v].clone();
                if s.rank.is_none() {
                    return self.obstruct(
                        ObstructionKind::Unprovable,
                        path,
                        format!("Y{} has no provable rank here", v + 1),
                    );
                }
                match dst {
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
                }
            }
            Term::E => {
                let s = VarState {
                    rank: Some(2),
                    fin: Fin3::Finite,
                };
                let d = self.place(dst, 2);
                let ticks = self.take_pending();
                self.code.push(Inst::E { dst: d, ticks });
                Ok((d, s))
            }
            Term::Const(c) => {
                let s = VarState {
                    rank: Some(1),
                    fin: Fin3::Finite,
                };
                let d = self.place(dst, 1);
                let ticks = self.take_pending();
                self.code.push(Inst::Const {
                    dst: d,
                    val: *c,
                    ticks,
                });
                Ok((d, s))
            }
            Term::Rel(i) => {
                if *i >= self.schema.len() {
                    return self.obstruct(
                        ObstructionKind::Error,
                        path,
                        format!("R{} is outside the schema", i + 1),
                    );
                }
                let rank = self.schema.arity(*i);
                let s = VarState {
                    rank: Some(rank),
                    fin: if fcf { Fin3::Unknown } else { Fin3::Finite },
                };
                let d = self.place(dst, rank);
                let ticks = self.take_pending();
                self.code.push(Inst::Rel {
                    dst: d,
                    rel: *i,
                    ticks,
                });
                Ok((d, s))
            }
            Term::And(a, b) => {
                let (ra, sa) = self.lower_term(a, None, path)?;
                let (rb, sb) = self.lower_term(b, None, path)?;
                let (ka, kb) = (sa.rank.unwrap_or(0), sb.rank.unwrap_or(0));
                if ka != kb {
                    return self.obstruct(
                        ObstructionKind::Error,
                        path,
                        format!("∩ of rank {ka} with rank {kb} always errors"),
                    );
                }
                self.pool.release(ra);
                self.pool.release(rb);
                let d = self.place(dst, ka);
                let ticks = self.take_pending();
                self.code.push(Inst::And {
                    dst: d,
                    a: ra,
                    b: rb,
                    ticks,
                });
                let fin = match (sa.fin, sb.fin) {
                    (Fin3::Finite, _) | (_, Fin3::Finite) => Fin3::Finite,
                    (Fin3::Infinite, Fin3::Infinite) => Fin3::Infinite,
                    _ => Fin3::Unknown,
                };
                Ok((
                    d,
                    VarState {
                        rank: Some(ka),
                        fin,
                    },
                ))
            }
            Term::Not(e) => {
                let (rx, sx) = self.lower_term(e, None, path)?;
                let k = sx.rank.unwrap_or(0);
                self.pool.release(rx);
                let d = self.place(dst, k);
                let ticks = self.take_pending();
                self.code.push(Inst::Not {
                    dst: d,
                    src: rx,
                    ticks,
                });
                let fin = if fcf {
                    match sx.fin {
                        Fin3::Finite => Fin3::Infinite,
                        Fin3::Infinite => Fin3::Finite,
                        Fin3::Unknown => Fin3::Unknown,
                    }
                } else {
                    Fin3::Finite
                };
                Ok((d, VarState { rank: Some(k), fin }))
            }
            Term::Up(e) => {
                let (rx, sx) = self.lower_term(e, None, path)?;
                if fcf {
                    match sx.fin {
                        Fin3::Finite => {}
                        Fin3::Infinite => {
                            return self.obstruct(
                                ObstructionKind::Error,
                                path,
                                "↑ of a surely co-finite value always errors",
                            )
                        }
                        Fin3::Unknown => {
                            return self.obstruct(
                                ObstructionKind::Unprovable,
                                path,
                                "cannot prove the ↑ operand finite",
                            )
                        }
                    }
                }
                let k = sx.rank.unwrap_or(0) + 1;
                self.pool.release(rx);
                let d = self.place(dst, k);
                let ticks = self.take_pending();
                self.code.push(Inst::Up {
                    dst: d,
                    src: rx,
                    ticks,
                });
                Ok((
                    d,
                    VarState {
                        rank: Some(k),
                        fin: Fin3::Finite,
                    },
                ))
            }
            Term::Down(e) => {
                let (rx, sx) = self.lower_term(e, None, path)?;
                let k0 = sx.rank.unwrap_or(0);
                let k = k0.saturating_sub(1);
                self.pool.release(rx);
                let d = self.place(dst, k);
                let ticks = self.take_pending();
                self.code.push(Inst::Down {
                    dst: d,
                    src: rx,
                    ticks,
                });
                let fin = match sx.fin {
                    Fin3::Finite => Fin3::Finite,
                    Fin3::Infinite if k0 <= 1 => Fin3::Finite,
                    Fin3::Infinite => Fin3::Infinite,
                    Fin3::Unknown if k0 <= 1 => Fin3::Finite,
                    Fin3::Unknown => Fin3::Unknown,
                };
                Ok((d, VarState { rank: Some(k), fin }))
            }
            Term::Swap(e) => {
                let (rx, sx) = self.lower_term(e, None, path)?;
                let k = sx.rank.unwrap_or(0);
                self.pool.release(rx);
                let d = self.place(dst, k);
                let ticks = self.take_pending();
                self.code.push(Inst::Swap {
                    dst: d,
                    src: rx,
                    ticks,
                });
                Ok((d, sx))
            }
        }
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
                    let s = self.abs_term(t, &self.vars);
                    if s.rank.is_some() {
                        // Elide the store: its statically-counted term
                        // ticks stay pending; no value, no commit.
                        self.pending += term_nodes(t);
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
                match bound {
                    LoopBound::Bounded(b) if b <= self.opts.peel_cap => {
                        self.peel(*v, kind, body, b, path)
                    }
                    _ => self.backedge(*v, kind, body, path),
                }
            }
        }
    }

    /// Unrolled form: `enter (guard body)ᵇ guard trap`. The trap is
    /// unreachable unless the prover's bound was wrong; in scheduled
    /// mode with the bound in the budget, the final guard's counter
    /// check reports `BoundExceeded` first — exactly the counted
    /// executor's behavior.
    fn peel(
        &mut self,
        v: usize,
        kind: LoopKind,
        body: &Prog,
        b: u64,
        path: &mut NodePath,
    ) -> Result<(), Obstruction> {
        let loop_id = self.loops.len();
        self.loops.push(LoopMeta {
            path: path.clone(),
            peeled: Some(b),
        });
        let ticks = self.take_pending();
        self.code.push(Inst::Enter { loop_id, ticks });
        let mut exit_state = self.vars.clone();
        let mut guards = Vec::new();
        for _ in 0..b {
            guards.push(self.code.len());
            self.code.push(Inst::Guard {
                loop_id,
                var: v,
                kind,
                exit: usize::MAX,
            });
            self.pending += 1; // the iteration tick
            path.push(0);
            let r = self.lower_prog(body, path);
            path.pop();
            r?;
            if self.pending > 0 {
                let ticks = self.take_pending();
                self.code.push(Inst::Nop { ticks });
            }
            exit_state = join_vars(&exit_state, &self.vars);
        }
        guards.push(self.code.len());
        self.code.push(Inst::Guard {
            loop_id,
            var: v,
            kind,
            exit: usize::MAX,
        });
        self.code.push(Inst::Trap { loop_id });
        let end = self.code.len();
        for g in guards {
            if let Inst::Guard { exit, .. } = &mut self.code[g] {
                *exit = end;
            }
        }
        self.vars = exit_state;
        self.unrolled += 1;
        Ok(())
    }

    /// Guard/backedge form. The body is lowered once, so the variable
    /// ranks it is typed under must hold on *every* iteration: the
    /// head state is the fixpoint of the body's abstract transfer
    /// (changed ranks widen to unknown; the body reading a widened
    /// variable obstructs inside `lower_term`).
    fn backedge(
        &mut self,
        v: usize,
        kind: LoopKind,
        body: &Prog,
        path: &mut NodePath,
    ) -> Result<(), Obstruction> {
        let loop_id = self.loops.len();
        self.loops.push(LoopMeta {
            path: path.clone(),
            peeled: None,
        });
        let ticks = self.take_pending();
        self.code.push(Inst::Enter { loop_id, ticks });
        let mut head = self.vars.clone();
        loop {
            let mut s = head.clone();
            self.abs_prog(body, &mut s);
            let next = join_vars(&head, &s);
            if next == head {
                break;
            }
            head = next;
        }
        self.vars = head.clone();
        let guard_at = self.code.len();
        self.code.push(Inst::Guard {
            loop_id,
            var: v,
            kind,
            exit: usize::MAX,
        });
        self.pending += 1; // the iteration tick
        path.push(0);
        let r = self.lower_prog(body, path);
        path.pop();
        r?;
        let ticks = self.take_pending();
        self.code.push(Inst::Back {
            to: guard_at,
            ticks,
        });
        let end = self.code.len();
        if let Inst::Guard { exit, .. } = &mut self.code[guard_at] {
            *exit = end;
        }
        // The loop leaves at the guard, i.e. in the head state (the
        // fixpoint guarantees the body's concrete transfer stays
        // within it).
        self.vars = head;
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
        schema,
        dialect,
        termination,
        dead,
        opts: opts.clone(),
        code: Vec::new(),
        loops: Vec::new(),
        pool: RegPool::new(nvars),
        pending: 0,
        vars: vec![VarState::unset(); nvars],
        unrolled: 0,
    };
    l.lower_prog(p, &mut Vec::new())?;
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
