//! Test support shared by the integration tests of this crate.

use recdb_core::Fuel;
use recdb_qlhs::exec::{eval_term, Backend, GuardEval};
use recdb_qlhs::{FinInterp, RunError, Term, Val};

/// [`FinInterp`] with every fused term shape left at its default: the
/// wrapper forwards only the required [`Backend`] methods, so
/// `semijoin_left`, `semijoin_right`, `antijoin` and `division` compose
/// `up`/`not`/`and`/`down` one op at a time — the unfused reference the
/// fused kernels must match value for value and fuel for fuel.
pub struct Unfused<'a>(pub FinInterp<'a>);

impl Backend for Unfused<'_> {
    type V = Val;
    fn unset(&self) -> Val {
        self.0.unset()
    }
    fn e(&mut self) -> Val {
        self.0.e()
    }
    fn rel(&mut self, i: usize) -> Result<Val, RunError> {
        self.0.rel(i)
    }
    fn constant(&mut self, c: u64) -> Val {
        self.0.constant(c)
    }
    fn and(&mut self, a: &Val, b: &Val) -> Result<Val, RunError> {
        self.0.and(a, b)
    }
    fn not(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        self.0.not(x, fuel)
    }
    fn up(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        self.0.up(x, fuel)
    }
    fn down(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        self.0.down(x, fuel)
    }
    fn swap(&mut self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        self.0.swap(x, fuel)
    }
    fn empty(x: &Val) -> bool {
        <FinInterp as Backend>::empty(x)
    }
    fn single(x: &Val) -> bool {
        <FinInterp as Backend>::single(x)
    }
    fn finite(x: &Val) -> bool {
        <FinInterp as Backend>::finite(x)
    }
    fn size(x: &Val) -> u64 {
        <FinInterp as Backend>::size(x)
    }
}

impl GuardEval for Unfused<'_> {
    type V = Val;
    fn eval(&mut self, t: &Term, env: &[Val], fuel: &mut Fuel) -> Result<Val, RunError> {
        eval_term(self, t, env, fuel)
    }
    fn unset() -> Val {
        <FinInterp as GuardEval>::unset()
    }
    fn empty_guard(v: Option<&Val>) -> bool {
        <FinInterp as GuardEval>::empty_guard(v)
    }
    fn single_guard(v: Option<&Val>) -> Result<bool, RunError> {
        <FinInterp as GuardEval>::single_guard(v)
    }
    fn finite_guard(v: Option<&Val>) -> Result<bool, RunError> {
        <FinInterp as GuardEval>::finite_guard(v)
    }
    fn size(v: &Val) -> u64 {
        <FinInterp as GuardEval>::size(v)
    }
}
