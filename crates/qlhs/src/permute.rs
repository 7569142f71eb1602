//! Domain permutations — the semantic probe behind *C-genericity*.
//!
//! A query `q` is **C-generic** when every permutation `π` of the
//! domain that fixes the constants `C` pointwise commutes with it:
//! `π(q(B)) = q(π(B))` ([CH] §2.5). Every QL construct except
//! [`Term::Const`](crate::Term::Const) is π-equivariant, so the
//! genericity analysis in `recdb-analyze` reduces the question to
//! "which constants can the output observe?" — and this module
//! supplies the *dynamic* side of that story: finitely-supported
//! permutations that can be applied to elements, tuples, and whole
//! [`Val`]ues, so a conformance harness can actually run `q` on
//! `π(B)` and compare.
//!
//! A [`Permutation`] stores `(forward, inverse)` tables over a window
//! `0..n` and acts as the identity outside it — exactly the
//! finite-support shape [`Database::isomorphic_copy`] consumes (via
//! [`Permutation::inv_fn`]), and the shape a [`NonGeneric`
//! witness](crate::Term::Const) needs: a single transposition
//! `(a d)` already distinguishes a constant-dependent output.
//!
//! [`Database::isomorphic_copy`]: recdb_core::Database::isomorphic_copy

use crate::value::Val;
use recdb_core::rng::SplitMix64;
use recdb_core::{Elem, Tuple};
use std::collections::BTreeSet;

/// A permutation of `0..window`, extended by the identity outside.
///
/// Stored with its inverse so both directions are O(1).
#[derive(Clone, Debug)]
pub struct Permutation {
    forward: Vec<u64>,
    inverse: Vec<u64>,
}

impl Permutation {
    /// The identity on `0..window` (and, vacuously, everywhere).
    pub fn identity(window: u64) -> Self {
        let forward: Vec<u64> = (0..window).collect();
        Permutation {
            inverse: forward.clone(),
            forward,
        }
    }

    /// The transposition `(a b)` — the minimal non-identity
    /// permutation, and the canonical shape of a non-genericity
    /// witness. The window is `max(a, b) + 1`.
    pub fn transposition(a: u64, b: u64) -> Self {
        let mut p = Permutation::identity(a.max(b) + 1);
        p.forward.swap(a as usize, b as usize);
        p.inverse.swap(a as usize, b as usize);
        p
    }

    /// A uniformly random permutation of `0..window`.
    pub fn random(rng: &mut SplitMix64, window: u64) -> Self {
        let mut forward: Vec<u64> = (0..window).collect();
        rng.shuffle(&mut forward);
        Permutation::from_forward(forward)
    }

    /// A random permutation of `0..window` that fixes every element of
    /// `fixed` pointwise — the probe C-genericity calls for: only the
    /// non-constant positions are shuffled (a Fisher–Yates over the
    /// free positions, so it is uniform on the stabiliser subgroup).
    pub fn random_fixing(rng: &mut SplitMix64, window: u64, fixed: &BTreeSet<u64>) -> Self {
        let free: Vec<u64> = (0..window).filter(|e| !fixed.contains(e)).collect();
        let mut images = free.clone();
        rng.shuffle(&mut images);
        let mut forward: Vec<u64> = (0..window).collect();
        for (&slot, &img) in free.iter().zip(&images) {
            forward[slot as usize] = img;
        }
        Permutation::from_forward(forward)
    }

    /// Builds a permutation from an explicit forward table over
    /// `0..forward.len()`. The table must be a bijection (every image
    /// below the window appearing exactly once) — callers construct it
    /// by completing a partial assignment, as the canonicalizer in
    /// `recdb-serve` does.
    pub fn from_forward(forward: Vec<u64>) -> Self {
        let mut inverse = vec![0u64; forward.len()];
        for (i, &f) in forward.iter().enumerate() {
            inverse[f as usize] = i as u64;
        }
        Permutation { forward, inverse }
    }

    /// Does `π` fix every element of `c` pointwise? (Constants outside
    /// the window are fixed by construction.)
    pub fn fixes(&self, c: &BTreeSet<u64>) -> bool {
        c.iter().all(|&e| self.apply(Elem(e)) == Elem(e))
    }

    /// Is `π` the identity?
    pub fn is_identity(&self) -> bool {
        self.forward.iter().enumerate().all(|(i, &f)| i as u64 == f)
    }

    /// `π(e)` — identity outside the window.
    pub fn apply(&self, e: Elem) -> Elem {
        match self.forward.get(e.value() as usize) {
            Some(&f) => Elem(f),
            None => e,
        }
    }

    /// `π⁻¹(e)` — identity outside the window.
    pub fn apply_inv(&self, e: Elem) -> Elem {
        match self.inverse.get(e.value() as usize) {
            Some(&i) => Elem(i),
            None => e,
        }
    }

    /// `π` applied elementwise to a tuple.
    pub fn apply_tuple(&self, t: &[Elem]) -> Tuple {
        t.iter().map(|&e| self.apply(e)).collect()
    }

    /// `π` applied pointwise to a QL value: `π({u₁,…}) = {π(u₁),…}`,
    /// rank unchanged. This is the left-hand side of the genericity
    /// equation `π(⟦q⟧_B) = ⟦q⟧_{π(B)}`.
    pub fn apply_val(&self, v: &Val) -> Val {
        Val {
            rank: v.rank,
            tuples: v.tuples.iter().map(|t| self.apply_tuple(&t)).collect(),
        }
    }

    /// The inverse as an owned closure, in the shape
    /// [`Database::isomorphic_copy`](recdb_core::Database::isomorphic_copy)
    /// wants (`f_inv`).
    pub fn inv_fn(&self) -> impl Fn(Elem) -> Elem + Send + Sync + Clone + 'static {
        let inverse = self.inverse.clone();
        move |e: Elem| match inverse.get(e.value() as usize) {
            Some(&i) => Elem(i),
            None => e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::tuple;

    #[test]
    fn transposition_swaps_and_inverts() {
        let p = Permutation::transposition(1, 4);
        assert_eq!(p.apply(Elem(1)), Elem(4));
        assert_eq!(p.apply(Elem(4)), Elem(1));
        assert_eq!(p.apply(Elem(2)), Elem(2));
        assert_eq!(p.apply(Elem(99)), Elem(99));
        assert_eq!(p.apply_inv(p.apply(Elem(4))), Elem(4));
        assert!(!p.is_identity());
        assert!(Permutation::identity(8).is_identity());
    }

    #[test]
    fn random_fixing_respects_the_stabiliser() {
        let fixed: BTreeSet<u64> = [2, 5].into_iter().collect();
        let mut rng = SplitMix64::seed_from_u64(17);
        for _ in 0..50 {
            let p = Permutation::random_fixing(&mut rng, 8, &fixed);
            assert!(p.fixes(&fixed));
            // Still a bijection: inverse round-trips everywhere.
            for e in 0..8 {
                assert_eq!(p.apply_inv(p.apply(Elem(e))), Elem(e));
            }
        }
        // Unconstrained random permutations need not fix anything,
        // but `fixes(∅)` always holds.
        let p = Permutation::random(&mut rng, 8);
        assert!(p.fixes(&BTreeSet::new()));
    }

    #[test]
    fn values_permute_pointwise() {
        let p = Permutation::transposition(0, 3);
        let v = Val {
            rank: 2,
            tuples: [tuple![0, 1], tuple![3, 3]].into_iter().collect(),
        };
        let pv = p.apply_val(&v);
        assert_eq!(pv.rank, 2);
        assert!(pv.tuples.contains(&tuple![3, 1]));
        assert!(pv.tuples.contains(&tuple![0, 0]));
        assert_eq!(pv.tuples.len(), 2);
    }
}
