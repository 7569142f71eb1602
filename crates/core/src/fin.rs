//! Finite relational structures.
//!
//! Finite structures appear throughout the paper as *restrictions*: the
//! restriction of an r-db to the elements of a tuple (Def 2.2(3)), the
//! finite parts of fcf relations (§4), the finite data bases of the
//! Chandra–Harel baseline, and the small graphs fed to the §6 gadget.
//! Unlike [`crate::Database`], a [`FiniteStructure`] is fully
//! materialized, so genuine isomorphism *search* (not just the fixed
//! positional map of `≅ₗ`) is decidable; this module provides it, along
//! with automorphism enumeration.

use crate::{Database, Elem, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// A finite relational structure: a finite universe plus finite
/// relations matching a schema.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FiniteStructure {
    schema: Schema,
    universe: Vec<Elem>,
    relations: Vec<BTreeSet<Tuple>>,
}

impl FiniteStructure {
    /// Builds a structure, checking that every tuple is over the
    /// universe and has the right rank.
    ///
    /// # Panics
    /// Panics on rank mismatch or tuples mentioning elements outside
    /// the universe.
    pub fn new(
        schema: Schema,
        universe: impl IntoIterator<Item = Elem>,
        relations: Vec<BTreeSet<Tuple>>,
    ) -> Self {
        let universe: Vec<Elem> = {
            let mut u: Vec<Elem> = universe.into_iter().collect();
            u.sort_unstable();
            u.dedup();
            u
        };
        assert_eq!(schema.len(), relations.len(), "relation count mismatch");
        for (i, rel) in relations.iter().enumerate() {
            for t in rel {
                assert_eq!(t.rank(), schema.arity(i), "tuple rank mismatch");
                for e in t.elems() {
                    assert!(
                        universe.binary_search(e).is_ok(),
                        "tuple {t:?} mentions {e:?} outside the universe"
                    );
                }
            }
        }
        FiniteStructure {
            schema,
            universe,
            relations,
        }
    }

    /// The restriction of `db` to the elements of `u` — "the
    /// restriction of B₁ to the elements of u" of Def 2.2(3). Obtained
    /// with finitely many oracle questions.
    pub fn restriction(db: &Database, u: &Tuple) -> Self {
        let universe = u.distinct_elems();
        let schema = db.schema().clone();
        let mut relations = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let a = schema.arity(i);
            let mut rel = BTreeSet::new();
            if a == 0 {
                if db.query(i, &[]) {
                    rel.insert(Tuple::empty());
                }
            } else if !universe.is_empty() {
                for idx in crate::lociso::index_vectors(universe.len(), a) {
                    let t: Tuple = idx.iter().map(|&j| universe[j]).collect();
                    if db.query(i, t.elems()) {
                        rel.insert(t);
                    }
                }
            }
            relations.push(rel);
        }
        FiniteStructure::new(schema, universe, relations)
    }

    /// Builds a finite *graph* structure (single binary relation "E").
    pub fn graph(
        universe: impl IntoIterator<Item = u64>,
        edges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Self {
        let schema = Schema::with_names(&["E"], &[2]);
        let rel: BTreeSet<Tuple> = edges
            .into_iter()
            .map(|(a, b)| Tuple::from_values([a, b]))
            .collect();
        FiniteStructure::new(schema, universe.into_iter().map(Elem), vec![rel])
    }

    /// Builds a finite *symmetric* graph: each edge inserted both ways.
    pub fn undirected_graph(
        universe: impl IntoIterator<Item = u64>,
        edges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Self {
        let mut both = Vec::new();
        for (a, b) in edges {
            both.push((a, b));
            both.push((b, a));
        }
        Self::graph(universe, both)
    }

    /// The schema of the structure.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The (sorted, deduplicated) universe.
    pub fn universe(&self) -> &[Elem] {
        &self.universe
    }

    /// Universe size.
    pub fn size(&self) -> usize {
        self.universe.len()
    }

    /// The tuples of relation `i`.
    pub fn relation(&self, i: usize) -> &BTreeSet<Tuple> {
        &self.relations[i]
    }

    /// Membership test.
    pub fn contains(&self, i: usize, t: &Tuple) -> bool {
        self.relations[i].contains(t)
    }

    /// Does the map (given as pairs of universe elements) extend to an
    /// isomorphism onto `other`? The map must be total on `self`'s
    /// universe.
    fn is_isomorphism(&self, other: &FiniteStructure, map: &BTreeMap<Elem, Elem>) -> bool {
        for (i, rel) in self.relations.iter().enumerate() {
            if rel.len() != other.relations[i].len() {
                return false;
            }
            for t in rel {
                let mapped: Tuple = t.elems().iter().map(|e| map[e]).collect();
                if !other.relations[i].contains(&mapped) {
                    return false;
                }
            }
        }
        true
    }

    /// Searches for an isomorphism `self → other` extending the partial
    /// map `u ↦ v` (backtracking over the remaining elements). With
    /// empty tuples this is plain isomorphism search; with `u`, `v`
    /// nonempty it decides `(self, u) ≅ (other, v)` for finite
    /// structures.
    pub fn isomorphism_extending(
        &self,
        other: &FiniteStructure,
        u: &Tuple,
        v: &Tuple,
    ) -> Option<BTreeMap<Elem, Elem>> {
        if self.schema != other.schema
            || self.universe.len() != other.universe.len()
            || u.rank() != v.rank()
        {
            return None;
        }
        // Seed with the forced assignments.
        let mut map = BTreeMap::new();
        let mut inv = BTreeMap::new();
        for (a, b) in u.elems().iter().zip(v.elems()) {
            if let Some(&prev) = map.get(a) {
                if prev != *b {
                    return None;
                }
            }
            if let Some(&prev) = inv.get(b) {
                if prev != *a {
                    return None;
                }
            }
            map.insert(*a, *b);
            inv.insert(*b, *a);
        }
        let unmapped: Vec<Elem> = self
            .universe
            .iter()
            .copied()
            .filter(|e| !map.contains_key(e))
            .collect();
        let free: Vec<Elem> = other
            .universe
            .iter()
            .copied()
            .filter(|e| !inv.contains_key(e))
            .collect();
        if unmapped.len() != free.len() {
            return None;
        }
        self.search(other, &unmapped, &free, &mut map, &mut inv, 0)
    }

    fn search(
        &self,
        other: &FiniteStructure,
        unmapped: &[Elem],
        free: &[Elem],
        map: &mut BTreeMap<Elem, Elem>,
        inv: &mut BTreeMap<Elem, Elem>,
        depth: usize,
    ) -> Option<BTreeMap<Elem, Elem>> {
        if depth == unmapped.len() {
            return if self.is_isomorphism(other, map) {
                Some(map.clone())
            } else {
                None
            };
        }
        let a = unmapped[depth];
        for &b in free {
            if inv.contains_key(&b) {
                continue;
            }
            map.insert(a, b);
            inv.insert(b, a);
            // Prune: check all facts among currently-mapped elements.
            if self.partial_consistent(other, map) {
                if let Some(full) = self.search(other, unmapped, free, map, inv, depth + 1) {
                    return Some(full);
                }
            }
            map.remove(&a);
            inv.remove(&b);
        }
        None
    }

    /// Checks that all relation facts among already-mapped elements are
    /// preserved both ways.
    fn partial_consistent(&self, other: &FiniteStructure, map: &BTreeMap<Elem, Elem>) -> bool {
        for (i, rel) in self.relations.iter().enumerate() {
            let a = self.schema.arity(i);
            if a == 0 {
                if (rel.contains(&Tuple::empty())) != other.relations[i].contains(&Tuple::empty()) {
                    return false;
                }
                continue;
            }
            let mapped: Vec<Elem> = map.keys().copied().collect();
            if mapped.is_empty() {
                continue;
            }
            for idx in crate::lociso::index_vectors(mapped.len(), a) {
                let t: Tuple = idx.iter().map(|&j| mapped[j]).collect();
                let mt: Tuple = t.elems().iter().map(|e| map[e]).collect();
                if rel.contains(&t) != other.relations[i].contains(&mt) {
                    return false;
                }
            }
        }
        true
    }

    /// Plain isomorphism search.
    pub fn isomorphic_to(&self, other: &FiniteStructure) -> bool {
        self.isomorphism_extending(other, &Tuple::empty(), &Tuple::empty())
            .is_some()
    }

    /// Enumerates all automorphisms of the structure. Exponential;
    /// intended for the small structures of §4's finite parts.
    pub fn automorphisms(&self) -> Vec<BTreeMap<Elem, Elem>> {
        let mut out = Vec::new();
        let n = self.universe.len();
        let mut perm: Vec<usize> = (0..n).collect();
        // Heap-style enumeration over all permutations with pruning
        // would be better for large n; for the workloads here plain
        // enumeration is fine and simpler to verify.
        permute(&mut perm, 0, &mut |p| {
            let map: BTreeMap<Elem, Elem> = self
                .universe
                .iter()
                .enumerate()
                .map(|(i, &e)| (e, self.universe[p[i]]))
                .collect();
            if self.is_isomorphism(self, &map) {
                out.push(map);
            }
        });
        out
    }

    /// Decides `(self, u) ≅ (self, v)`: is there an automorphism taking
    /// `u` to `v`? This is `≅_B` (Def 3.1) for finite structures.
    pub fn equivalent_tuples(&self, u: &Tuple, v: &Tuple) -> bool {
        self.isomorphism_extending(self, u, v).is_some()
    }
}

/// Calls `f` on every ordering of `perm[k..]` (with `perm[..k]` held),
/// by recursive swaps; `perm` is restored before returning. Starting
/// from the identity, the order is fixed, so callers that keep the
/// first or least result get the same one every run.
pub fn permute(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        f(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, f);
        perm.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, DatabaseBuilder, FnRelation};

    #[test]
    fn restriction_of_clique() {
        let db = DatabaseBuilder::new("K")
            .relation("E", FnRelation::infinite_clique())
            .build();
        let s = FiniteStructure::restriction(&db, &tuple![3, 7, 3]);
        assert_eq!(s.size(), 2);
        assert!(s.contains(0, &tuple![3, 7]));
        assert!(s.contains(0, &tuple![7, 3]));
        assert!(!s.contains(0, &tuple![3, 3]));
    }

    #[test]
    fn triangle_isomorphic_to_relabelled_triangle() {
        let a = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)]);
        let b = FiniteStructure::undirected_graph([10, 20, 30], [(10, 20), (20, 30), (30, 10)]);
        assert!(a.isomorphic_to(&b));
    }

    #[test]
    fn path_not_isomorphic_to_triangle() {
        let path = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2)]);
        let tri = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)]);
        assert!(!path.isomorphic_to(&tri));
    }

    #[test]
    fn isomorphism_respects_anchored_tuples() {
        // Path 0–1–2: endpoints 0 and 2 are equivalent; 0 and 1 are not.
        let p = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2)]);
        assert!(p.equivalent_tuples(&tuple![0], &tuple![2]));
        assert!(!p.equivalent_tuples(&tuple![0], &tuple![1]));
        assert!(p.equivalent_tuples(&tuple![0, 1], &tuple![2, 1]));
        assert!(!p.equivalent_tuples(&tuple![0, 1], &tuple![1, 0]));
    }

    #[test]
    fn automorphism_counts() {
        // Triangle: S₃, 6 automorphisms.
        let tri = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(tri.automorphisms().len(), 6);
        // Path of 3: identity + end-swap.
        let p = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2)]);
        assert_eq!(p.automorphisms().len(), 2);
        // Directed 3-cycle: the rotation group, 3 automorphisms.
        let c = FiniteStructure::graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(c.automorphisms().len(), 3);
    }

    #[test]
    fn forced_map_conflicts_are_rejected() {
        let a = FiniteStructure::undirected_graph([0, 1], [(0, 1)]);
        // u maps 0↦5 and 0↦6 simultaneously: impossible.
        assert!(a
            .isomorphism_extending(
                &FiniteStructure::undirected_graph([5, 6], [(5, 6)]),
                &tuple![0, 0],
                &tuple![5, 6]
            )
            .is_none());
        // Non-injective target with injective source: impossible.
        assert!(a
            .isomorphism_extending(
                &FiniteStructure::undirected_graph([5, 6], [(5, 6)]),
                &tuple![0, 1],
                &tuple![5, 5]
            )
            .is_none());
    }

    #[test]
    fn rank_zero_relation_checked() {
        let schema = Schema::new([0]);
        let yes = FiniteStructure::new(
            schema.clone(),
            [Elem(0)],
            vec![[Tuple::empty()].into_iter().collect()],
        );
        let no = FiniteStructure::new(schema, [Elem(0)], vec![BTreeSet::new()]);
        assert!(!yes.isomorphic_to(&no));
        assert!(yes.isomorphic_to(&yes.clone()));
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn tuples_must_be_over_universe() {
        FiniteStructure::graph([0, 1], [(0, 5)]);
    }

    #[test]
    fn restriction_then_positional_iso_agrees_with_lociso() {
        let db = DatabaseBuilder::new("line")
            .relation("E", FnRelation::infinite_line())
            .build();
        let u = tuple![0, 2];
        let v = tuple![2, 4];
        let ru = FiniteStructure::restriction(&db, &u);
        let rv = FiniteStructure::restriction(&db, &v);
        // Def 2.2(3): local isomorphism = restrictions isomorphic *via*
        // the map u↦v.
        assert_eq!(
            ru.isomorphism_extending(&rv, &u, &v).is_some(),
            crate::locally_equivalent(&db, &u, &v)
        );
    }
}
