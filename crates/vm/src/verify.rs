//! The bytecode verifier: an independent abstract interpreter over the
//! instruction stream.
//!
//! Trust is split deliberately. The compiler ([`crate::lower`]) is a
//! large optimizing pass — register allocation, loop unrolling,
//! dead-store elimination — and is *not* trusted. The verifier is the
//! trusted component: it re-walks the source AST with its own abstract
//! domains while driving a cursor over the instruction stream, and a
//! program executes on the VM only if every instruction is exactly the
//! one the verifier's own derivation demands. Concretely it re-proves:
//!
//! * **rank/arity agreement** — its own rank lattice re-derives every
//!   subterm's rank (loop heads re-fixpointed from scratch) and rejects
//!   any `∩` whose operand ranks could differ, any read of a variable
//!   whose rank is not provable at that point, and any out-of-schema
//!   relation;
//! * **dialect legality** — `Dialect::check` on the AST *and* a
//!   per-guard re-check that `single`/`finite` guards appear only in
//!   their dialects;
//! * **register safety** — every register operand is in frame bounds;
//!   temporaries are written before read and never clobber a value
//!   still held as a pending operand; interior destinations stay out
//!   of the variables' home slots; each assignment root lands exactly
//!   in its variable's home register, followed by its `commit`;
//! * **fuel agreement** — the verifier counts the tree-walkers' entry
//!   ticks itself and checks every instruction's `ticks` field against
//!   its own pending counter;
//! * **loop certificates** — an unrolled loop must peel exactly the
//!   termination prover's `Bounded(b)` certificate (`b` guarded body
//!   copies, a final guard, a trap); a backedge loop must have
//!   verifier-re-derived rank-stable heads, a `back` to its own guard,
//!   and a guard exit one past the backedge;
//! * **the §11 cost obligation** — a per-assignment mirror of the cost
//!   pass's transfer function accumulates a derived work bound; a
//!   claimed [`CostVerdict::Bounded`] is accepted only if the claimed
//!   polynomials coefficient-wise dominate the derived ones.
//!
//! The only analysis shared with the compiler is `recdb_analyze`'s
//! liveness pass, used to re-derive which dead stores *may* be elided
//! (DESIGN.md §12 records it as a shared trusted pass). Elision is
//! then checked structurally: the verifier first tries to match the
//! materialized instruction sequence and falls back to the elided form
//! (no instructions, ticks folded into the next one) only when the
//! store is provably dead, tick-free, and error-free.

use crate::bytecode::{Inst, VmProg};
use recdb_analyze::TerminationAnalysis;
use recdb_analyze::{analyze_dataflow, Bound, CostEnv, CostVerdict, LoopBound, Poly};
use recdb_core::Schema;
use recdb_qlhs::{Dialect, LoopKind, NodePath, Prog, Term};
use std::collections::BTreeSet;
use std::fmt;

/// Why the verifier refused a program. A rejected program is not
/// executable on the VM; callers fall back to the tree-walking
/// interpreters (which agree with the VM by construction, so the
/// fallback is behaviorally invisible).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// Instruction index the cursor had reached when the check failed.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rejected at pc {}: {}", self.at, self.reason)
    }
}

/// What an accepted program proved — the CI artifact payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instruction count.
    pub instructions: usize,
    /// Frame size (home slots + temporaries).
    pub frame: usize,
    /// Loop-metadata entries (unroll copies included).
    pub loops: usize,
    /// Dead stores the verifier confirmed elided.
    pub elided_stores: usize,
    /// The verifier's own total-work bound, if derivable.
    pub derived_work: Option<String>,
    /// The verifier's own `Y1` cardinality bound, if derivable.
    pub derived_cardinality: Option<String>,
    /// Whether a `Bounded` cost claim was checked for dominance.
    pub claim_checked: bool,
}

/// Surely-finite lattice (the verifier's own copy — deliberately not
/// shared with the compiler).
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

/// Per-variable rank/finiteness state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct VState {
    rank: Option<usize>,
    fin: Fin3,
}

impl VState {
    fn unset() -> VState {
        VState {
            rank: Some(0),
            fin: Fin3::Finite,
        }
    }

    fn join(&self, other: &VState) -> VState {
        VState {
            rank: match (self.rank, other.rank) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            fin: self.fin.join(other.fin),
        }
    }
}

fn join_vars(a: &[VState], b: &[VState]) -> Vec<VState> {
    a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
}

/// Mirror of the cost pass's abstract value (`AbsRank::Top` ↦ `None`;
/// `Bot` cannot arise from the transfer function's outputs).
#[derive(Clone, Debug, PartialEq, Eq)]
struct CAbs {
    rank: Option<usize>,
    bound: Bound,
    finite: bool,
}

impl CAbs {
    fn unset() -> CAbs {
        CAbs {
            rank: Some(0),
            bound: Bound::zero(),
            finite: true,
        }
    }

    fn top() -> CAbs {
        CAbs {
            rank: None,
            bound: Bound::Top,
            finite: false,
        }
    }

    fn join(&self, other: &CAbs) -> CAbs {
        CAbs {
            rank: match (self.rank, other.rank) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            bound: self.bound.join(&other.bound),
            finite: self.finite && other.finite,
        }
    }
}

fn join_cost(a: &[CAbs], b: &[CAbs]) -> Vec<CAbs> {
    a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
}

/// A term's entry ticks, one per node. The lowerer counts them with
/// `recdb_qlhs::term_size`; the verifier keeps its own count so that
/// its tick accounting does not lean on the lowerer's.
fn term_nodes(t: &Term) -> u32 {
    match t {
        Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => 1,
        Term::And(a, b) => 1 + term_nodes(a) + term_nodes(b),
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => 1 + term_nodes(e),
    }
}

/// Of two individually-sound bounds, the nominally smaller (tie-break
/// left) — the cost pass's `∩` rule, mirrored.
fn smaller(a: &Bound, b: &Bound, schema: &Schema) -> Bound {
    match (a, b) {
        (Bound::Top, x) | (x, Bound::Top) => x.clone(),
        (Bound::Poly(pa), Bound::Poly(pb)) => {
            let nominal = CostEnv::nominal(schema);
            if pb.eval(&nominal) < pa.eval(&nominal) {
                b.clone()
            } else {
                a.clone()
            }
        }
    }
}

struct Snapshot {
    pc: usize,
    pending: u32,
    vars: Vec<VState>,
    cost: Vec<CAbs>,
    work: Bound,
    written: Vec<bool>,
    next_loop: usize,
    elided: usize,
}

struct Verify<'a> {
    prog: &'a VmProg,
    schema: &'a Schema,
    dialect: Dialect,
    termination: &'a TerminationAnalysis,
    dead: BTreeSet<NodePath>,
    pc: usize,
    pending: u32,
    vars: Vec<VState>,
    cost: Vec<CAbs>,
    work: Bound,
    written: Vec<bool>,
    next_loop: usize,
    elided: usize,
}

impl Verify<'_> {
    fn snap(&self) -> Snapshot {
        Snapshot {
            pc: self.pc,
            pending: self.pending,
            vars: self.vars.clone(),
            cost: self.cost.clone(),
            work: self.work.clone(),
            written: self.written.clone(),
            next_loop: self.next_loop,
            elided: self.elided,
        }
    }

    fn restore(&mut self, s: Snapshot) {
        self.pc = s.pc;
        self.pending = s.pending;
        self.vars = s.vars;
        self.cost = s.cost;
        self.work = s.work;
        self.written = s.written;
        self.next_loop = s.next_loop;
        self.elided = s.elided;
    }

    fn fetch(&mut self) -> Result<Inst, String> {
        let i = self
            .prog
            .code
            .get(self.pc)
            .cloned()
            .ok_or_else(|| "instruction stream ends mid-program".to_string())?;
        self.pc += 1;
        Ok(i)
    }

    fn ticks(&mut self, got: u32) -> Result<(), String> {
        if got != self.pending {
            return Err(format!(
                "ticks {got} disagree with the verifier's count {}",
                self.pending
            ));
        }
        self.pending = 0;
        Ok(())
    }

    /// Validates a destination register: an assignment root must land
    /// exactly in the home slot, an interior destination must be a
    /// frame temporary that clobbers no held operand.
    fn dst_ok(&mut self, d: usize, root: Option<usize>, held: &[usize]) -> Result<(), String> {
        match root {
            Some(h) => {
                if d != h {
                    return Err(format!("root must write home register r{h}, writes r{d}"));
                }
            }
            None => {
                if d < self.prog.nvars || d >= self.prog.frame {
                    return Err(format!(
                        "interior destination r{d} outside the temporary window {}..{}",
                        self.prog.nvars, self.prog.frame
                    ));
                }
                if held.contains(&d) {
                    return Err(format!("r{d} clobbers a value still held as an operand"));
                }
            }
        }
        if d < self.written.len() {
            self.written[d] = true;
        }
        Ok(())
    }

    /// An operand must be in frame bounds, and a temporary must have
    /// been written on some path before it is read.
    fn src_ok(&self, r: usize) -> Result<(), String> {
        if r >= self.prog.frame {
            return Err(format!("operand r{r} outside the frame"));
        }
        if r >= self.prog.nvars && !self.written[r] {
            return Err(format!("temporary r{r} read before any write"));
        }
        Ok(())
    }

    /// The verifier's own total rank/finiteness transfer (loop
    /// fixpoints and dead-store legality).
    fn abs_term(&self, t: &Term, vars: &[VState]) -> VState {
        let fcf = self.dialect == Dialect::QlfPlus;
        match t {
            Term::E => VState {
                rank: Some(2),
                fin: Fin3::Finite,
            },
            Term::Const(_) => VState {
                rank: Some(1),
                fin: Fin3::Finite,
            },
            Term::Rel(i) => {
                if *i < self.schema.len() {
                    VState {
                        rank: Some(self.schema.arity(*i)),
                        fin: if fcf { Fin3::Unknown } else { Fin3::Finite },
                    }
                } else {
                    VState {
                        rank: None,
                        fin: Fin3::Unknown,
                    }
                }
            }
            Term::Var(v) => vars.get(*v).cloned().unwrap_or_else(VState::unset),
            Term::And(a, b) => {
                let (xa, xb) = (self.abs_term(a, vars), self.abs_term(b, vars));
                VState {
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
                VState {
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
            Term::Up(e) => VState {
                rank: self.abs_term(e, vars).rank.map(|k| k + 1),
                fin: Fin3::Finite,
            },
            Term::Down(e) => {
                let x = self.abs_term(e, vars);
                VState {
                    rank: x.rank.map(|k| k.saturating_sub(1)),
                    fin: match x.fin {
                        Fin3::Finite => Fin3::Finite,
                        Fin3::Infinite => match x.rank {
                            Some(k) if k <= 1 => Fin3::Finite,
                            Some(_) => Fin3::Infinite,
                            None => Fin3::Unknown,
                        },
                        Fin3::Unknown => match x.rank {
                            Some(0) | Some(1) => Fin3::Finite,
                            _ => Fin3::Unknown,
                        },
                    },
                }
            }
            Term::Swap(e) => self.abs_term(e, vars),
        }
    }

    fn abs_prog(&self, p: &Prog, vars: &mut Vec<VState>) {
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

    /// Data-dependent fuel freedom under the dialect (the dead-store
    /// side condition, re-derived).
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

    /// The cost pass's transfer function, mirrored over the verifier's
    /// own cost environment (DESIGN.md §11 case table).
    fn cterm(&self, t: &Term) -> CAbs {
        let fcf = self.dialect == Dialect::QlfPlus;
        match t {
            Term::E => CAbs {
                rank: Some(2),
                bound: Bound::of(Poly::base()),
                finite: true,
            },
            Term::Const(_) => CAbs {
                rank: Some(1),
                bound: Bound::of(Poly::constant(1)),
                finite: true,
            },
            Term::Rel(i) => {
                if *i < self.schema.len() {
                    CAbs {
                        rank: Some(self.schema.arity(*i)),
                        bound: Bound::of(Poly::rel(*i)),
                        finite: !fcf,
                    }
                } else {
                    CAbs::top()
                }
            }
            Term::Var(v) => self.cost.get(*v).cloned().unwrap_or_else(CAbs::unset),
            Term::And(a, b) => {
                let (xa, xb) = (self.cterm(a), self.cterm(b));
                let rank = match (xa.rank, xb.rank) {
                    (Some(x), Some(y)) if x == y => Some(x),
                    _ => None,
                };
                let bound = if fcf {
                    if xa.finite {
                        xa.bound.clone()
                    } else if xb.finite {
                        xb.bound.clone()
                    } else {
                        xa.bound.add(&xb.bound)
                    }
                } else {
                    smaller(&xa.bound, &xb.bound, self.schema)
                };
                CAbs {
                    rank,
                    bound,
                    finite: xa.finite || xb.finite,
                }
            }
            Term::Not(e) => {
                let x = self.cterm(e);
                if fcf {
                    CAbs {
                        rank: x.rank,
                        bound: x.bound,
                        finite: false,
                    }
                } else {
                    let bound = match x.rank {
                        Some(k) => {
                            let mut p = Poly::constant(1);
                            for _ in 0..k {
                                p = p.mul(&Poly::base());
                            }
                            Bound::of(p)
                        }
                        None => Bound::Top,
                    };
                    CAbs {
                        rank: x.rank,
                        bound,
                        finite: true,
                    }
                }
            }
            Term::Up(e) => {
                let x = self.cterm(e);
                CAbs {
                    rank: x.rank.map(|k| k + 1),
                    bound: x.bound.mul(&Bound::of(Poly::base())),
                    finite: true,
                }
            }
            Term::Down(e) => {
                let x = self.cterm(e);
                let rank = x.rank.map(|k| k.saturating_sub(1));
                let bound = if rank == Some(0) {
                    Bound::of(Poly::constant(1))
                } else {
                    x.bound
                };
                CAbs {
                    rank,
                    bound,
                    finite: x.finite,
                }
            }
            Term::Swap(e) => self.cterm(e),
        }
    }

    /// Walks a term in post-order, demanding the exact instruction the
    /// verifier's own derivation calls for at each emitting node.
    fn walk_term(
        &mut self,
        t: &Term,
        dst: Option<usize>,
        held: &mut Vec<usize>,
    ) -> Result<(usize, VState), String> {
        self.pending += 1;
        let fcf = self.dialect == Dialect::QlfPlus;
        match t {
            Term::Var(v) => {
                let s = self.vars[*v].clone();
                if s.rank.is_none() {
                    return Err(format!("Y{} has no provable rank here", v + 1));
                }
                match dst {
                    None => Ok((*v, s)),
                    Some(d) => match self.fetch()? {
                        Inst::Copy {
                            dst: id,
                            src,
                            ticks,
                        } => {
                            self.ticks(ticks)?;
                            if src != *v {
                                return Err(format!("copy reads r{src}, expected home r{v}"));
                            }
                            self.src_ok(src)?;
                            self.dst_ok(id, Some(d), held)?;
                            Ok((id, s))
                        }
                        other => Err(format!("expected copy for Y{} root, got `{other}`", v + 1)),
                    },
                }
            }
            Term::E => match self.fetch()? {
                Inst::E { dst: id, ticks } => {
                    self.ticks(ticks)?;
                    self.dst_ok(id, dst, held)?;
                    Ok((
                        id,
                        VState {
                            rank: Some(2),
                            fin: Fin3::Finite,
                        },
                    ))
                }
                other => Err(format!("expected e, got `{other}`")),
            },
            Term::Const(c) => match self.fetch()? {
                Inst::Const {
                    dst: id,
                    val,
                    ticks,
                } => {
                    self.ticks(ticks)?;
                    if val != *c {
                        return Err(format!("const ={val}, expected ={c}"));
                    }
                    self.dst_ok(id, dst, held)?;
                    Ok((
                        id,
                        VState {
                            rank: Some(1),
                            fin: Fin3::Finite,
                        },
                    ))
                }
                other => Err(format!("expected const, got `{other}`")),
            },
            Term::Rel(i) => {
                if *i >= self.schema.len() {
                    return Err(format!("R{} is outside the schema", i + 1));
                }
                match self.fetch()? {
                    Inst::Rel {
                        dst: id,
                        rel,
                        ticks,
                    } => {
                        self.ticks(ticks)?;
                        if rel != *i {
                            return Err(format!("rel #{rel}, expected #{i}"));
                        }
                        self.dst_ok(id, dst, held)?;
                        Ok((
                            id,
                            VState {
                                rank: Some(self.schema.arity(*i)),
                                fin: if fcf { Fin3::Unknown } else { Fin3::Finite },
                            },
                        ))
                    }
                    other => Err(format!("expected rel, got `{other}`")),
                }
            }
            Term::And(a, b) => {
                let (ra, sa) = self.walk_term(a, None, held)?;
                held.push(ra);
                let rbsb = self.walk_term(b, None, held);
                held.pop();
                let (rb, sb) = rbsb?;
                let (ka, kb) = (sa.rank.unwrap_or(0), sb.rank.unwrap_or(0));
                if ka != kb {
                    return Err(format!("∩ of rank {ka} with rank {kb} always errors"));
                }
                match self.fetch()? {
                    Inst::And {
                        dst: id,
                        a: ia,
                        b: ib,
                        ticks,
                    } => {
                        self.ticks(ticks)?;
                        if ia != ra || ib != rb {
                            return Err(format!("and reads r{ia} r{ib}, expected r{ra} r{rb}"));
                        }
                        self.src_ok(ia)?;
                        self.src_ok(ib)?;
                        self.dst_ok(id, dst, held)?;
                        let fin = match (sa.fin, sb.fin) {
                            (Fin3::Finite, _) | (_, Fin3::Finite) => Fin3::Finite,
                            (Fin3::Infinite, Fin3::Infinite) => Fin3::Infinite,
                            _ => Fin3::Unknown,
                        };
                        Ok((
                            id,
                            VState {
                                rank: Some(ka),
                                fin,
                            },
                        ))
                    }
                    other => Err(format!("expected and, got `{other}`")),
                }
            }
            Term::Not(e) => {
                let (rx, sx) = self.walk_term(e, None, held)?;
                let k = sx.rank.unwrap_or(0);
                match self.fetch()? {
                    Inst::Not {
                        dst: id,
                        src,
                        ticks,
                    } => {
                        self.ticks(ticks)?;
                        if src != rx {
                            return Err(format!("not reads r{src}, expected r{rx}"));
                        }
                        self.src_ok(src)?;
                        self.dst_ok(id, dst, held)?;
                        let fin = if fcf {
                            match sx.fin {
                                Fin3::Finite => Fin3::Infinite,
                                Fin3::Infinite => Fin3::Finite,
                                Fin3::Unknown => Fin3::Unknown,
                            }
                        } else {
                            Fin3::Finite
                        };
                        Ok((id, VState { rank: Some(k), fin }))
                    }
                    other => Err(format!("expected not, got `{other}`")),
                }
            }
            Term::Up(e) => {
                let (rx, sx) = self.walk_term(e, None, held)?;
                if fcf {
                    match sx.fin {
                        Fin3::Finite => {}
                        Fin3::Infinite => {
                            return Err("↑ of a surely co-finite value always errors".into())
                        }
                        Fin3::Unknown => return Err("cannot prove the ↑ operand finite".into()),
                    }
                }
                let k = sx.rank.unwrap_or(0) + 1;
                match self.fetch()? {
                    Inst::Up {
                        dst: id,
                        src,
                        ticks,
                    } => {
                        self.ticks(ticks)?;
                        if src != rx {
                            return Err(format!("up reads r{src}, expected r{rx}"));
                        }
                        self.src_ok(src)?;
                        self.dst_ok(id, dst, held)?;
                        Ok((
                            id,
                            VState {
                                rank: Some(k),
                                fin: Fin3::Finite,
                            },
                        ))
                    }
                    other => Err(format!("expected up, got `{other}`")),
                }
            }
            Term::Down(e) => {
                let (rx, sx) = self.walk_term(e, None, held)?;
                let k0 = sx.rank.unwrap_or(0);
                let k = k0.saturating_sub(1);
                match self.fetch()? {
                    Inst::Down {
                        dst: id,
                        src,
                        ticks,
                    } => {
                        self.ticks(ticks)?;
                        if src != rx {
                            return Err(format!("down reads r{src}, expected r{rx}"));
                        }
                        self.src_ok(src)?;
                        self.dst_ok(id, dst, held)?;
                        let fin = match sx.fin {
                            Fin3::Finite => Fin3::Finite,
                            Fin3::Infinite if k0 <= 1 => Fin3::Finite,
                            Fin3::Infinite => Fin3::Infinite,
                            Fin3::Unknown if k0 <= 1 => Fin3::Finite,
                            Fin3::Unknown => Fin3::Unknown,
                        };
                        Ok((id, VState { rank: Some(k), fin }))
                    }
                    other => Err(format!("expected down, got `{other}`")),
                }
            }
            Term::Swap(e) => {
                let (rx, sx) = self.walk_term(e, None, held)?;
                match self.fetch()? {
                    Inst::Swap {
                        dst: id,
                        src,
                        ticks,
                    } => {
                        self.ticks(ticks)?;
                        if src != rx {
                            return Err(format!("swap reads r{src}, expected r{rx}"));
                        }
                        self.src_ok(src)?;
                        self.dst_ok(id, dst, held)?;
                        Ok((id, sx))
                    }
                    other => Err(format!("expected swap, got `{other}`")),
                }
            }
        }
    }

    /// The materialized form of an assignment: the lowered term ending
    /// in the home register, then its `commit`.
    fn walk_assign(&mut self, v: usize, t: &Term) -> Result<(), String> {
        let ca = self.cterm(t);
        let (_, s) = self.walk_term(t, Some(v), &mut Vec::new())?;
        match self.fetch()? {
            Inst::Commit { src } => {
                if src != v {
                    return Err(format!("commit r{src}, expected home r{v}"));
                }
            }
            other => {
                return Err(format!(
                    "expected commit after Y{} root, got `{other}`",
                    v + 1
                ))
            }
        }
        self.vars[v] = s;
        self.work = self.work.add(&ca.bound);
        self.cost[v] = ca;
        Ok(())
    }

    fn walk_prog(&mut self, p: &Prog, path: &mut NodePath) -> Result<(), String> {
        self.pending += 1; // the statement node's entry tick
        match p {
            Prog::Assign(v, t) => {
                let elidable = self.dead.contains(path.as_slice())
                    && self.tick_free(t)
                    && self.abs_term(t, &self.vars).rank.is_some();
                if !elidable {
                    return self.walk_assign(*v, t);
                }
                // The store may be elided. Try the materialized shape
                // first; the first instruction's ticks (or kind)
                // disambiguate, so a failure here is contained to this
                // assignment and we fall back to the elided shape.
                let snap = self.snap();
                match self.walk_assign(*v, t) {
                    Ok(()) => Ok(()),
                    Err(_) => {
                        self.restore(snap);
                        self.pending += term_nodes(t);
                        let s = self.abs_term(t, &self.vars);
                        let ca = self.cterm(t);
                        self.vars[*v] = s;
                        self.cost[*v] = ca;
                        self.elided += 1;
                        Ok(())
                    }
                }
            }
            Prog::Seq(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    path.push(i as u32);
                    let r = self.walk_prog(q, path);
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
                match (kind, self.dialect) {
                    (LoopKind::Empty, _)
                    | (LoopKind::Singleton, Dialect::Qlhs)
                    | (LoopKind::Finite, Dialect::QlfPlus) => {}
                    _ => return Err(format!("{kind:?} guard is illegal in {:?}", self.dialect)),
                }
                let loop_id = self.next_loop;
                match self.fetch()? {
                    Inst::Enter { loop_id: id, ticks } => {
                        self.ticks(ticks)?;
                        if id != loop_id {
                            return Err(format!("enter L{id}, expected L{loop_id}"));
                        }
                    }
                    other => return Err(format!("expected enter, got `{other}`")),
                }
                let meta = self
                    .prog
                    .loops
                    .get(loop_id)
                    .ok_or_else(|| format!("no metadata for L{loop_id}"))?
                    .clone();
                if meta.path != *path {
                    return Err(format!(
                        "L{loop_id} metadata names path {:?}, loop is at {:?}",
                        meta.path, path
                    ));
                }
                self.next_loop += 1;
                let bound = self
                    .termination
                    .bound_at(path)
                    .map(|l| l.bound)
                    .unwrap_or(LoopBound::Unknown);
                match meta.peeled {
                    Some(b) => {
                        if bound != LoopBound::Bounded(b) {
                            return Err(format!(
                                "peel count {b} is not the prover's certificate ({bound:?})"
                            ));
                        }
                        self.walk_peeled(*v, kind, body, b, loop_id, path)
                    }
                    None => self.walk_backedge(*v, kind, body, loop_id, path),
                }
            }
        }
    }

    fn expect_guard(&mut self, loop_id: usize, v: usize, kind: LoopKind) -> Result<usize, String> {
        match self.fetch()? {
            Inst::Guard {
                loop_id: id,
                var,
                kind: k,
                exit,
            } => {
                if self.pending != 0 {
                    return Err(format!(
                        "{} ticks pending at a guard (guards are fuel-free)",
                        self.pending
                    ));
                }
                if id != loop_id {
                    return Err(format!("guard L{id}, expected L{loop_id}"));
                }
                if var != v {
                    return Err(format!("guard reads r{var}, expected home r{v}"));
                }
                if k != kind {
                    return Err(format!("guard kind {k:?}, expected {kind:?}"));
                }
                Ok(exit)
            }
            other => Err(format!("expected guard, got `{other}`")),
        }
    }

    /// The unrolled form: `b` guarded body copies, a final guard, a
    /// trap. The exit state joins "exited after 0..=b iterations" —
    /// the same join the cost pass's unroller computes.
    fn walk_peeled(
        &mut self,
        v: usize,
        kind: LoopKind,
        body: &Prog,
        b: u64,
        loop_id: usize,
        path: &mut NodePath,
    ) -> Result<(), String> {
        let mut exit_vars = self.vars.clone();
        let mut exit_cost = self.cost.clone();
        let mut exits = Vec::new();
        for _ in 0..b {
            exits.push(self.expect_guard(loop_id, v, kind)?);
            self.pending += 1; // the iteration tick
            path.push(0);
            let r = self.walk_prog(body, path);
            path.pop();
            r?;
            if self.pending > 0 {
                match self.fetch()? {
                    Inst::Nop { ticks } => self.ticks(ticks)?,
                    other => {
                        return Err(format!(
                            "expected nop flushing {} ticks, got `{other}`",
                            self.pending
                        ))
                    }
                }
            }
            exit_vars = join_vars(&exit_vars, &self.vars);
            exit_cost = join_cost(&exit_cost, &self.cost);
        }
        exits.push(self.expect_guard(loop_id, v, kind)?);
        match self.fetch()? {
            Inst::Trap { loop_id: id } => {
                if id != loop_id {
                    return Err(format!("trap L{id}, expected L{loop_id}"));
                }
            }
            other => return Err(format!("expected trap, got `{other}`")),
        }
        let end = self.pc;
        for e in exits {
            if e != end {
                return Err(format!("guard exits to {e}, loop ends at {end}"));
            }
        }
        self.vars = exit_vars;
        self.cost = exit_cost;
        Ok(())
    }

    /// The guard/backedge form. The body is verified once, under the
    /// verifier's *own* fixpoint of its abstract transfer — rank
    /// stability is re-proved, not taken from the compiler. No cost
    /// bound is derivable for an uncertified loop, so the cost
    /// environment is poisoned; a `Bounded` claim then fails the
    /// dominance check (the cost pass cannot certify such a program
    /// either, so this never rejects a legitimate claim).
    fn walk_backedge(
        &mut self,
        v: usize,
        kind: LoopKind,
        body: &Prog,
        loop_id: usize,
        path: &mut NodePath,
    ) -> Result<(), String> {
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
        for c in self.cost.iter_mut() {
            *c = CAbs::top();
        }
        self.work = Bound::Top;
        let guard_at = self.pc;
        let exit = self.expect_guard(loop_id, v, kind)?;
        self.pending += 1; // the iteration tick
        path.push(0);
        let r = self.walk_prog(body, path);
        path.pop();
        r?;
        match self.fetch()? {
            Inst::Back { to, ticks } => {
                self.ticks(ticks)?;
                if to != guard_at {
                    return Err(format!("back @{to}, expected the guard @{guard_at}"));
                }
            }
            other => return Err(format!("expected back, got `{other}`")),
        }
        if exit != self.pc {
            return Err(format!("guard exits to {exit}, loop ends at {}", self.pc));
        }
        self.vars = head;
        Ok(())
    }
}

fn verify_inner(
    prog: &VmProg,
    ast: &Prog,
    schema: &Schema,
    dialect: Dialect,
    termination: &TerminationAnalysis,
    claim: Option<&CostVerdict>,
) -> Result<VerifyReport, (usize, String)> {
    if let Err(v) = dialect.check(ast) {
        return Err((0, format!("dialect: {}", v.message())));
    }
    let nvars = ast.max_var().map_or(1, |m| m + 1).max(1);
    if prog.nvars != nvars {
        return Err((0, format!("nvars {} ≠ program's {nvars}", prog.nvars)));
    }
    if prog.frame < nvars {
        return Err((0, format!("frame {} < nvars {nvars}", prog.frame)));
    }
    let mut w = Verify {
        prog,
        schema,
        dialect,
        termination,
        dead: analyze_dataflow(ast).dead_stores,
        pc: 0,
        pending: 0,
        vars: vec![VState::unset(); nvars],
        cost: vec![CAbs::unset(); nvars],
        work: Bound::zero(),
        written: vec![false; prog.frame],
        next_loop: 0,
        elided: 0,
    };
    w.walk_prog(ast, &mut Vec::new()).map_err(|e| (w.pc, e))?;
    match w.fetch().map_err(|e| (w.pc, e))? {
        Inst::Halt { ticks } => w.ticks(ticks).map_err(|e| (w.pc, e))?,
        other => return Err((w.pc, format!("expected halt, got `{other}`"))),
    }
    if w.pc != prog.code.len() {
        return Err((w.pc, "instructions after halt".into()));
    }
    if w.next_loop != prog.loops.len() {
        return Err((
            w.pc,
            format!(
                "{} loop-metadata entries, only {} loops verified",
                prog.loops.len(),
                w.next_loop
            ),
        ));
    }
    let mut claim_checked = false;
    if let Some(CostVerdict::Bounded { cardinality, work }) = claim {
        claim_checked = true;
        let dw = w
            .work
            .poly()
            .ok_or((w.pc, "work claimed bounded but derived ⊤".to_string()))?;
        if !work.dominates(dw) {
            return Err((
                w.pc,
                format!("claimed work {work} does not dominate derived {dw}"),
            ));
        }
        let dc = w.cost[0].bound.poly().ok_or((
            w.pc,
            "cardinality claimed bounded but derived ⊤".to_string(),
        ))?;
        if !cardinality.dominates(dc) {
            return Err((
                w.pc,
                format!("claimed cardinality {cardinality} does not dominate derived {dc}"),
            ));
        }
    }
    Ok(VerifyReport {
        instructions: prog.code.len(),
        frame: prog.frame,
        loops: prog.loops.len(),
        elided_stores: w.elided,
        derived_work: w.work.poly().map(|p| p.to_string()),
        derived_cardinality: w.cost[0].bound.poly().map(|p| p.to_string()),
        claim_checked,
    })
}

/// Verifies `prog` against the source AST it claims to implement, the
/// schema/dialect it will run under, the termination prover's loop
/// certificates, and (optionally) the cost pass's verdict. Nothing may
/// execute a [`VmProg`] that this function has not accepted.
pub fn verify(
    prog: &VmProg,
    ast: &Prog,
    schema: &Schema,
    dialect: Dialect,
    termination: &TerminationAnalysis,
    claim: Option<&CostVerdict>,
) -> Result<VerifyReport, Rejection> {
    match verify_inner(prog, ast, schema, dialect, termination, claim) {
        Ok(r) => Ok(r),
        Err((at, reason)) => {
            recdb_obs::count("vm.verifier.rejections", 1);
            Err(Rejection { at, reason })
        }
    }
}
