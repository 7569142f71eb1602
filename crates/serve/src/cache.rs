//! The cross-tenant result cache, keyed on canonical ≅_B-class
//! fingerprints — `Generic {fixed}` verdicts put to work.
//!
//! ## Soundness argument (DESIGN.md §9 has the prose version)
//!
//! A cache entry is created only for programs the analyzer **proved**
//! (1) safe, (2) terminating, and (3) C-generic fixing `fixed`. For a
//! finite slice `B`, canonicalization finds a permutation `π` fixing
//! `fixed` pointwise with `π(B) = K`, where `K` is the
//! lexicographically least relabeling of `B` over a fixed slot
//! alphabet — so every slice in `B`'s ≅-orbit (under permutations
//! fixing `fixed`) maps to the *same* `K`. The entry stores
//! `q(K) = q(π(B)) = π(q(B))` (the middle step is exactly Def 2.5
//! genericity), computed without ever evaluating on `K`: the server
//! runs `q` on `B` and stores `π(q(B))`. A later request for `B'` in
//! the same orbit recovers `q(B') = π'⁻¹(q(K))`. Legs (1) and (2) make
//! the stored value independent of scheduling: a proved-terminating,
//! proved-safe program completes with the same `Y₁` on every
//! successful run, so which tenant happened to fill the entry cannot
//! be observed. Errors and preempted runs are never cached.
//!
//! The orbit search is exact but exponential in the number of
//! non-fixed universe elements, so slices with more than
//! [`MAX_CANON_FREE`] free elements bypass the cache (counted, never
//! silent). Infinite-db slices (`family`/`cells`/`fcf`) are keyed by
//! their canonical descriptor with identity transport — their wire
//! form is already a canonical name, not an element listing.

use recdb_core::{permute, Elem, FiniteStructure, Tuple};
use recdb_qlhs::{FcfVal, Permutation, Val};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Largest number of non-fixed universe elements the canonicalizer
/// will search over (`6! = 720` candidate relabelings).
pub const MAX_CANON_FREE: usize = 6;

/// A canonicalized finite slice: the cache key component and the
/// permutation `π` (fixing `fixed`) with `π(B) = K`.
#[derive(Clone, Debug)]
pub struct CanonicalSlice {
    /// Serialized canonical structure — equal for every slice in the
    /// ≅-orbit.
    pub key: String,
    /// `π : B → K`.
    pub to_canon: Permutation,
}

/// Canonicalizes a finite structure under permutations fixing `fixed`
/// pointwise. `None` when the slice has more than [`MAX_CANON_FREE`]
/// free elements (cache bypass).
pub fn canonicalize_finite(st: &FiniteStructure, fixed: &BTreeSet<u64>) -> Option<CanonicalSlice> {
    let universe: Vec<u64> = st.universe().iter().map(|e| e.value()).collect();
    let (fixed_in, free): (Vec<u64>, Vec<u64>) = universe.iter().partition(|e| fixed.contains(e));
    if free.len() > MAX_CANON_FREE {
        return None;
    }
    // Slot alphabet: the smallest naturals not claimed by any fixed
    // constant (fixed elements keep their own names, and a slot
    // colliding with a fixed id would break injectivity).
    let mut slots = Vec::with_capacity(free.len());
    let mut next = 0u64;
    while slots.len() < free.len() {
        if !fixed.contains(&next) {
            slots.push(next);
        }
        next += 1;
    }
    // Search all bijections free → slots for the lexicographically
    // least relabeled relation list.
    let k = free.len();
    let mut idx: Vec<usize> = (0..k).collect();
    let mut best: Option<(Vec<Vec<Tuple>>, Vec<usize>)> = None;
    permute(&mut idx, 0, &mut |assign| {
        let relabel = |e: Elem| -> Elem {
            match free.iter().position(|&f| f == e.value()) {
                Some(i) => Elem(slots[assign[i]]),
                None => e,
            }
        };
        let mut rels = Vec::with_capacity(st.schema().len());
        for i in 0..st.schema().len() {
            let mut ts: Vec<Tuple> = st.relation(i).iter().map(|t| t.map(relabel)).collect();
            ts.sort_unstable();
            rels.push(ts);
        }
        if best.as_ref().is_none_or(|(b, _)| rels < *b) {
            best = Some((rels, assign.to_vec()));
        }
    });
    let (rels, assign) = best?;
    // Serialize K.
    let mut canon_universe: Vec<u64> = fixed_in
        .iter()
        .copied()
        .chain(slots.iter().copied())
        .collect();
    canon_universe.sort_unstable();
    let mut key = format!("a{:?};u{:?};", st.schema().arities(), canon_universe);
    for ts in &rels {
        key.push('r');
        for t in ts {
            key.push('(');
            for (i, e) in t.elems().iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(&e.value().to_string());
            }
            key.push(')');
        }
        key.push(';');
    }
    // Build π as a full permutation of 0..window: fixed pointwise,
    // free[i] → slots[assign[i]], remaining ids completed greedily.
    let window = universe
        .iter()
        .chain(slots.iter())
        .chain(fixed.iter())
        .copied()
        .max()
        .unwrap_or(0)
        + 1;
    let mut forward: Vec<Option<u64>> = vec![None; window as usize];
    let mut used: Vec<bool> = vec![false; window as usize];
    for &f in fixed {
        if f < window {
            forward[f as usize] = Some(f);
            used[f as usize] = true;
        }
    }
    for (i, &u) in free.iter().enumerate() {
        let s = slots[assign[i]];
        forward[u as usize] = Some(s);
        used[s as usize] = true;
    }
    let mut spare: Vec<u64> = (0..window).filter(|&x| !used[x as usize]).collect();
    spare.reverse();
    let forward: Vec<u64> = forward
        .into_iter()
        .map(|slot| match slot {
            Some(s) => s,
            // `spare` has exactly one id per unassigned slot.
            None => spare.pop().unwrap_or(0),
        })
        .collect();
    Some(CanonicalSlice {
        key,
        to_canon: Permutation::from_forward(forward),
    })
}

/// A cached answer, stored in canonical (`q(K)`) coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedResult {
    /// A finite-relation value (`FinInterp`/`HsInterp` backends).
    Rel(Val),
    /// An fcf value (`FcfInterp` backend).
    Fcf(FcfVal),
}

/// Most entries one cache shard holds. A new key arriving at a full
/// shard evicts one of that shard's entries first, so the cache never
/// holds more than `shards × SHARD_CAP` entries, however many distinct
/// programs clients send.
pub const SHARD_CAP: usize = 4096;

/// The sharded cross-tenant result cache. Reads and writes take one
/// shard mutex each; entries are immutable `Arc`s, so a hit clones a
/// pointer, not a value. Each shard holds at most [`SHARD_CAP`]
/// entries.
pub struct ResultCache {
    shards: Vec<Mutex<HashMap<String, Arc<CachedResult>>>>,
}

impl ResultCache {
    /// A cache with `shards` independently locked shards.
    pub fn new(shards: usize) -> Self {
        ResultCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Arc<CachedResult>>> {
        let h = recdb_core::fnv1a(key) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<Arc<CachedResult>> {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Stores `value` under `key` (last writer wins; all writers hold
    /// byte-identical values by the soundness argument). A new key in
    /// a full shard first evicts one entry of that shard; which one is
    /// unspecified.
    pub fn put(&self, key: &str, value: CachedResult) {
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAP && !shard.contains_key(key) {
            if let Some(victim) = shard.keys().next().cloned() {
                shard.remove(&victim);
                recdb_obs::count("serve.cache.evictions", 1);
            }
        }
        shard.insert(key.to_string(), Arc::new(value));
    }

    /// Removes `key` (hit-verification failure path).
    pub fn evict(&self, key: &str) {
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::SplitMix64;

    fn line(u: &[u64], edges: &[(u64, u64)]) -> FiniteStructure {
        FiniteStructure::graph(u.iter().copied(), edges.iter().copied())
    }

    #[test]
    fn isomorphic_slices_share_a_key() {
        let a = line(&[0, 1, 2], &[(0, 1), (1, 2)]);
        // Same path, relabeled 0↦2, 1↦0, 2↦1.
        let b = line(&[0, 1, 2], &[(2, 0), (0, 1)]);
        let none = BTreeSet::new();
        let ca = canonicalize_finite(&a, &none).unwrap();
        let cb = canonicalize_finite(&b, &none).unwrap();
        assert_eq!(ca.key, cb.key);
        // And the transports really map both slices onto the *same* K.
        let image = |st: &FiniteStructure, c: &CanonicalSlice| -> BTreeSet<Tuple> {
            st.relation(0)
                .iter()
                .map(|t| c.to_canon.apply_tuple(t))
                .collect()
        };
        assert_eq!(image(&a, &ca), image(&b, &cb));
    }

    #[test]
    fn value_relabelings_of_the_same_graph_agree_under_transport() {
        // q(B) computed on B then transported = q computed on the
        // canonical form — probed via a random relabeling.
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..20 {
            let base = line(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
            let p = Permutation::random(&mut rng, 4);
            let relabeled = FiniteStructure::graph(
                (0..4).map(|e| p.apply(Elem(e)).value()),
                base.relation(0)
                    .iter()
                    .map(|t| (p.apply(t.elems()[0]).value(), p.apply(t.elems()[1]).value())),
            );
            let none = BTreeSet::new();
            let ca = canonicalize_finite(&base, &none).unwrap();
            let cb = canonicalize_finite(&relabeled, &none).unwrap();
            assert_eq!(ca.key, cb.key);
        }
    }

    #[test]
    fn fixed_elements_keep_their_names() {
        let fixed: BTreeSet<u64> = [5].into_iter().collect();
        let st = line(&[0, 5, 7], &[(0, 5), (5, 7)]);
        let c = canonicalize_finite(&st, &fixed).unwrap();
        assert_eq!(c.to_canon.apply(Elem(5)), Elem(5));
        assert!(c.key.contains('5'), "{}", c.key);
        // Non-fixed slices relabel away from 5: slots are 0,1 here.
        assert!(c.to_canon.apply(Elem(7)) != Elem(7) || c.to_canon.apply(Elem(0)) == Elem(0));
    }

    #[test]
    fn distinct_structures_get_distinct_keys() {
        let none = BTreeSet::new();
        let path = line(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let tri = line(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        assert_ne!(
            canonicalize_finite(&path, &none).unwrap().key,
            canonicalize_finite(&tri, &none).unwrap().key
        );
    }

    #[test]
    fn oversized_orbits_bypass() {
        let st = line(&(0..10).collect::<Vec<_>>(), &[(0, 1)]);
        assert!(canonicalize_finite(&st, &BTreeSet::new()).is_none());
    }

    #[test]
    fn cache_round_trips_and_evicts() {
        let cache = ResultCache::new(4);
        assert!(cache.is_empty());
        let v = CachedResult::Rel(Val::empty(2));
        cache.put("k1", v.clone());
        assert_eq!(cache.get("k1").as_deref(), Some(&v));
        assert!(cache.get("k2").is_none());
        cache.evict("k1");
        assert!(cache.is_empty());
    }

    #[test]
    fn a_full_shard_evicts_to_stay_at_its_cap() {
        let cache = ResultCache::new(1);
        let v = CachedResult::Rel(Val::empty(0));
        for i in 0..2 * SHARD_CAP {
            cache.put(&format!("Y1 := C{i};"), v.clone());
        }
        assert_eq!(cache.len(), SHARD_CAP);
        let last = format!("Y1 := C{};", 2 * SHARD_CAP - 1);
        assert_eq!(cache.get(&last).as_deref(), Some(&v));
        // Re-putting a present key in a full shard evicts nothing.
        cache.put(&last, v.clone());
        assert_eq!(cache.len(), SHARD_CAP);
    }
}
