//! Per-variable dataflow for the bytecode compiler (DESIGN.md §12).
//!
//! Three classical analyses over the QL AST, consumed by `recdb-vm`'s
//! lowering pass and re-derived independently by its verifier:
//!
//! * **liveness** — backward may-analysis with a fixpoint over loop
//!   bodies (a body may run zero or more times; the guard variable is
//!   live at every loop head), found by the shared
//!   [`crate::fix::loop_head`] driver; a widened loop head has every
//!   variable live that can be (`Y1` and every variable read). `Y1`
//!   is live at program exit — it *is* the program's result.
//! * **dead stores** — assignments whose variable is not live
//!   afterwards. The compiler may drop the materialization (the term's
//!   statically-counted fuel ticks are preserved by a `nop`), but only
//!   under the additional tick-freedom and error-freedom side
//!   conditions the compiler and verifier each re-check.
//! * **last use / register reuse** — term trees use each subterm value
//!   exactly once (the parent edge), so temporaries die the moment the
//!   parent instruction consumes them; [`RegPool`] turns that into a
//!   static rank-typed register allocation where each temp slot holds
//!   values of one proven rank and the frame size is a compile-time
//!   constant.

use crate::fix::{self, Budget};
use recdb_qlhs::{NodePath, Prog, Term, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The result of [`analyze_dataflow`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataflowAnalysis {
    /// Variables live at program entry (read before any write on some
    /// path). Semantically these read the unset value `∅` rank 0.
    pub live_in: BTreeSet<VarId>,
    /// Tree paths of `Assign` statements whose variable is dead
    /// afterwards — the value is never read by a later term or loop
    /// guard and is not the final `Y1`.
    pub dead_stores: BTreeSet<NodePath>,
    /// Total assignments in the program.
    pub stores: usize,
}

/// Adds the variables `t` reads to `out`.
pub(crate) fn term_vars(t: &Term, out: &mut BTreeSet<VarId>) {
    match t {
        Term::E | Term::Rel(_) | Term::Const(_) => {}
        Term::Var(v) => {
            out.insert(*v);
        }
        Term::And(a, b) => {
            term_vars(a, out);
            term_vars(b, out);
        }
        Term::Not(e) | Term::Up(e) | Term::Down(e) | Term::Swap(e) => term_vars(e, out),
    }
}

/// Adds the variables `p` reads, in a term or as a loop guard, to
/// `out` — with `Y1`, the only variables that can be live in `p`.
pub(crate) fn prog_reads(p: &Prog, out: &mut BTreeSet<VarId>) {
    match p {
        Prog::Assign(_, t) => term_vars(t, out),
        Prog::Seq(ps) => ps.iter().for_each(|q| prog_reads(q, out)),
        Prog::WhileEmpty(v, b) | Prog::WhileSingleton(v, b) | Prog::WhileFinite(v, b) => {
            out.insert(*v);
            prog_reads(b, out);
        }
    }
}

/// Backward liveness transfer over one statement. `live` is the set
/// live *after* `p` on entry and the set live *before* `p` on return.
/// When `record` is set, dead stores are collected (recording runs
/// only after loop fixpoints converge). `budget` pays for the
/// loop-head rounds; a widened head has `all` live — every variable
/// that can be.
fn live_prog(
    p: &Prog,
    path: &mut NodePath,
    live: &mut BTreeSet<VarId>,
    record: bool,
    out: &mut DataflowAnalysis,
    budget: &Budget,
    all: &BTreeSet<VarId>,
) {
    match p {
        Prog::Assign(v, t) => {
            if record {
                out.stores += 1;
                if !live.contains(v) {
                    out.dead_stores.insert(path.clone());
                }
            }
            live.remove(v);
            term_vars(t, live);
        }
        Prog::Seq(ps) => {
            for (i, q) in ps.iter().enumerate().rev() {
                path.push(i as u32);
                live_prog(q, path, live, record, out, budget, all);
                path.pop();
            }
        }
        Prog::WhileEmpty(v, body) | Prog::WhileSingleton(v, body) | Prog::WhileFinite(v, body) => {
            // live(head) = {guard} ∪ live(exit) ∪ transfer(body, live(head))
            let mut through = |head: &BTreeSet<VarId>, record: bool| {
                let mut next = head.clone();
                path.push(0);
                live_prog(body, path, &mut next, record, out, budget, all);
                path.pop();
                next
            };
            let mut entry = std::mem::take(live);
            entry.insert(*v);
            let join = |head: &BTreeSet<VarId>, mut next: BTreeSet<VarId>| {
                next.extend(head);
                next
            };
            *live = fix::loop_head(
                budget,
                body,
                entry,
                join,
                |h| through(h, false),
                |_| all.clone(),
            );
            if record {
                through(live, true);
            }
        }
    }
}

/// Runs liveness + dead-store analysis. `Y1` (variable 0) seeds the
/// live set at program exit.
pub fn analyze_dataflow(p: &Prog) -> DataflowAnalysis {
    let mut out = DataflowAnalysis {
        live_in: BTreeSet::new(),
        dead_stores: BTreeSet::new(),
        stores: 0,
    };
    let mut live: BTreeSet<VarId> = [0].into_iter().collect();
    let mut all = BTreeSet::from([0]);
    prog_reads(p, &mut all);
    let budget = Budget::default();
    live_prog(p, &mut Vec::new(), &mut live, true, &mut out, &budget, &all);
    budget.record();
    out.live_in = live;
    out
}

/// A static rank-typed register allocator. Registers `0..nvars` are
/// the variables' home slots; temporaries are allocated above them,
/// one proven rank per slot, and a released temp is only reused for a
/// value of the same rank — so every slot's rank is a compile-time
/// constant and the frame never grows at runtime.
#[derive(Clone, Debug)]
pub struct RegPool {
    nvars: usize,
    /// Rank per temp slot, by temp index (register `nvars + i`).
    slots: Vec<usize>,
    free: BTreeMap<usize, Vec<usize>>,
}

impl RegPool {
    /// A pool for a program with `nvars` home registers.
    pub fn new(nvars: usize) -> RegPool {
        RegPool {
            nvars,
            slots: Vec::new(),
            free: BTreeMap::new(),
        }
    }

    /// Allocates a temp register for a value of the given rank,
    /// reusing a released same-rank slot when one exists.
    pub fn alloc(&mut self, rank: usize) -> usize {
        if let Some(slot) = self.free.get_mut(&rank).and_then(Vec::pop) {
            return self.nvars + slot;
        }
        self.slots.push(rank);
        self.nvars + self.slots.len() - 1
    }

    /// Releases a temp register (home registers are never released —
    /// passing one is a no-op).
    pub fn release(&mut self, reg: usize) {
        if let Some(slot) = reg.checked_sub(self.nvars) {
            if let Some(&rank) = self.slots.get(slot) {
                self.free.entry(rank).or_default().push(slot);
            }
        }
    }

    /// The compile-time frame size: homes plus every temp slot ever
    /// allocated.
    pub fn frame_size(&self) -> usize {
        self.nvars + self.slots.len()
    }

    /// The declared rank of a register's slot (`None` for homes, whose
    /// rank is flow-dependent).
    pub fn slot_rank(&self, reg: usize) -> Option<usize> {
        reg.checked_sub(self.nvars)
            .and_then(|slot| self.slots.get(slot).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_qlhs::parse_program;

    fn dataflow(src: &str) -> DataflowAnalysis {
        analyze_dataflow(&parse_program(src).unwrap())
    }

    #[test]
    fn straight_line_dead_store_found() {
        // Y2 is written and never read; Y1 is the result.
        let a = dataflow("Y2 := E; Y1 := E;");
        assert_eq!(a.stores, 2);
        assert_eq!(a.dead_stores, [vec![0]].into_iter().collect());
    }

    #[test]
    fn overwritten_y1_is_dead() {
        let a = dataflow("Y1 := E; Y1 := R1;");
        assert_eq!(a.dead_stores, [vec![0]].into_iter().collect());
    }

    #[test]
    fn guard_variables_are_live() {
        // Y2 is only read by the guard — its store is live.
        let a = dataflow("Y2 := E; while empty(Y2) { Y1 := E; }");
        assert!(a.dead_stores.is_empty());
    }

    #[test]
    fn loop_carried_reads_keep_stores_live() {
        // Y2 := E before the loop feeds Y1 := Y2 inside it; the loop
        // may iterate more than once, so Y2's in-loop rewrite is live
        // around the back edge too.
        let a = dataflow("Y2 := E; while empty(Y1) { Y1 := Y2; Y2 := Y2; }");
        assert!(a.dead_stores.is_empty(), "{:?}", a.dead_stores);
    }

    #[test]
    fn dead_store_inside_loop() {
        let a = dataflow("while empty(Y1) { Y3 := E; Y1 := E; }");
        assert_eq!(a.dead_stores, [vec![0, 0, 0]].into_iter().collect());
    }

    #[test]
    fn live_in_reports_unwritten_reads() {
        let a = dataflow("Y1 := Y5;");
        assert_eq!(a.live_in, [4].into_iter().collect());
    }

    #[test]
    fn pool_reuses_same_rank_slots_only() {
        let mut pool = RegPool::new(2);
        let a = pool.alloc(2);
        assert_eq!(a, 2);
        pool.release(a);
        assert_eq!(pool.alloc(2), a, "same-rank slot is reused");
        let b = pool.alloc(3);
        assert_eq!(b, 3, "different rank gets a fresh slot");
        assert_eq!(pool.frame_size(), 4);
        assert_eq!(pool.slot_rank(2), Some(2));
        assert_eq!(pool.slot_rank(0), None);
        pool.release(0); // home: no-op
        assert_eq!(pool.frame_size(), 4);
    }
}
