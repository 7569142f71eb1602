//! The loop-head fixpoint driver every abstract walk shares — safety,
//! genericity, liveness and the VM lowerer's (rank, finiteness) walk —
//! and the round budget that bounds it.
//!
//! A `while` body may run any number of times, so a walk needs the
//! state at the loop head: a `head ⊒ entry` the body cannot leave.
//! [`loop_head`] iterates `head ⊔ body(head)` from `entry` until it
//! stops changing. Each round of an outer loop re-runs every inner
//! loop's iteration, so rounds multiply with nesting depth. A
//! [`Budget`] caps the body statements all rounds of one analysis or
//! compile call may walk, at [`ROUND_CAP`]. Once it runs out, every
//! loop head reached afterwards is widened instead — to a state the
//! body cannot leave, by the caller's `widen` — and no further round
//! runs. Each widening counts as `analyze.fixpoint.widened`.
//!
//! The forward walks keep one state per variable; [`var_head`] runs
//! the driver for them with a pointwise [`Lattice`] join, widening
//! the body-written variables to ⊤.

use recdb_qlhs::Prog;
use std::cell::Cell;

/// Most body statements the loop-head rounds of one analysis or
/// compile call may walk — the unit of cost's `VISIT_CAP`: each round
/// costs the assignments its body contains, nested bodies included.
pub const ROUND_CAP: u64 = 1 << 14;

/// The round budget of one analysis or compile call.
#[derive(Debug, Default)]
pub struct Budget {
    spent: Cell<u64>,
    widened: Cell<u64>,
}

impl Budget {
    /// Loop heads widened so far.
    pub fn widened(&self) -> u64 {
        self.widened.get()
    }

    /// Adds this call's widenings to `analyze.fixpoint.widened` — zero
    /// included, so a healthy report shows the counter at 0.
    pub fn record(&self) {
        recdb_obs::count("analyze.fixpoint.widened", self.widened.get());
    }
}

/// The loop-head state: `head ⊔ body(head)` iterated from `entry`
/// until it stops changing, or `widen(head)` once `budget` cannot pay
/// for another round over `body`.
pub fn loop_head<S: PartialEq>(
    budget: &Budget,
    body: &Prog,
    entry: S,
    join: impl Fn(&S, S) -> S,
    mut round: impl FnMut(&S) -> S,
    widen: impl FnOnce(S) -> S,
) -> S {
    let cost = assignments(body);
    let mut head = entry;
    loop {
        let spent = budget.spent.get().saturating_add(cost);
        if spent > ROUND_CAP {
            // Out for good: every later loop head of this call widens
            // too, so no further round runs.
            budget.spent.set(ROUND_CAP + 1);
            budget.widened.set(budget.widened.get() + 1);
            return widen(head);
        }
        budget.spent.set(spent);
        let next = join(&head, round(&head));
        if next == head {
            return head;
        }
        head = next;
    }
}

/// One variable's abstract state in a forward walk.
pub trait Lattice: Clone + PartialEq {
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;
}

/// Pointwise join of two variable states.
pub fn join_vars<T: Lattice>(a: &[T], b: &[T]) -> Vec<T> {
    a.iter().zip(b).map(|(x, y)| x.join(y)).collect()
}

/// [`loop_head`] over per-variable states: joined pointwise, and
/// widened by sending every variable `body` assigns to `top`.
pub fn var_head<T: Lattice>(
    budget: &Budget,
    body: &Prog,
    entry: Vec<T>,
    top: T,
    round: impl FnMut(&Vec<T>) -> Vec<T>,
) -> Vec<T> {
    let widen = |mut head: Vec<T>| {
        for v in body.written() {
            if let Some(x) = head.get_mut(v) {
                *x = top.clone();
            }
        }
        head
    };
    loop_head(
        budget,
        body,
        entry,
        |h, out| join_vars(h, &out),
        round,
        widen,
    )
}

/// Assignments in `p`, nested loop bodies included.
fn assignments(p: &Prog) -> u64 {
    match p {
        Prog::Assign(..) => 1,
        Prog::Seq(ps) => ps.iter().map(assignments).sum(),
        Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b) => {
            assignments(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_qlhs::{parse_program, VarId};
    use std::collections::BTreeSet;

    /// Liveness-shaped toy domain: the set of variables reached.
    fn reach(src: &str, budget: &Budget) -> BTreeSet<VarId> {
        let body = parse_program(src).unwrap();
        loop_head(
            budget,
            &body,
            BTreeSet::from([0]),
            |h, r| h.union(&r).copied().collect(),
            // Each round reaches one variable past the largest so far.
            |h| h.iter().map(|v| (v + 1).min(5)).collect(),
            |_| body.written(),
        )
    }

    #[test]
    fn iterates_to_the_fixpoint_within_budget() {
        let b = Budget::default();
        assert_eq!(reach("Y1 := E;", &b), (0..=5).collect());
        assert_eq!(b.widened(), 0);
    }

    #[test]
    fn widens_once_the_budget_is_spent() {
        let b = Budget::default();
        b.spent.set(ROUND_CAP);
        assert_eq!(reach("Y3 := E; Y4 := Y3;", &b), BTreeSet::from([2, 3]));
        assert_eq!(b.widened(), 1);
        // Exhaustion is permanent: even a body of no assignments widens.
        assert_eq!(reach("while empty(Y1) { }", &b), BTreeSet::new());
        assert_eq!(b.widened(), 2);
    }

    #[test]
    fn written_covers_nested_bodies() {
        let p = parse_program("Y2 := E; while empty(Y1) { Y3 := Y4; }").unwrap();
        assert_eq!(p.written(), BTreeSet::from([1, 2]));
        assert_eq!(assignments(&p), 2);
    }
}
