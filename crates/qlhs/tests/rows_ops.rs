//! The flat value layer against a `BTreeSet<Tuple>` reference.
//!
//! The reference below is the set-of-tuples evaluator the finitary
//! interpreter used before values became [`Rows`]: one fuel tick per
//! enumerated tuple of `Dⁿ` for `¬`, one per output tuple for `↑`,
//! tick-free `∩`/`↓`/`~`. Every op of [`FinInterp`] must return the
//! same relation, the same error, and leave the same
//! [`Fuel::remaining`] at every budget from 0 up to the op's full cost —
//! the arithmetic charge is exact, including on exhaustion. Ranks run
//! from 0 to 6.

use recdb_core::{fnv1a, Elem, FiniteStructure, Fuel, FuelError, SplitMix64, Tuple};
use recdb_qlhs::exec::Backend;
use recdb_qlhs::{FinInterp, Rows, RunError, Val};
use std::collections::BTreeSet;

const CASES: usize = 64;

type Set = BTreeSet<Tuple>;

fn rng_for(test: &str) -> SplitMix64 {
    SplitMix64::seed_from_u64(fnv1a(test) ^ 0x5ecd_eb0a)
}

/// The reference `¬x`: enumerate `Dⁿ` level by level, ticking per
/// tuple, then take the set difference.
fn ref_not(x: &Set, rank: usize, dom: &[Elem], fuel: &mut Fuel) -> Result<Set, FuelError> {
    let mut all: Set = [Tuple::empty()].into_iter().collect();
    for _ in 0..rank {
        let mut next = Set::new();
        for t in &all {
            for &a in dom {
                fuel.tick()?;
                next.insert(t.extend(a));
            }
        }
        all = next;
    }
    Ok(all.difference(x).cloned().collect())
}

/// The reference `x↑ = x × D`, ticking per output tuple.
fn ref_up(x: &Set, dom: &[Elem], fuel: &mut Fuel) -> Result<Set, FuelError> {
    let mut out = Set::new();
    for u in x {
        for &a in dom {
            fuel.tick()?;
            out.insert(u.extend(a));
        }
    }
    Ok(out)
}

fn ref_down(x: &Set, rank: usize) -> Set {
    if rank == 0 {
        return Set::new();
    }
    x.iter().filter_map(Tuple::drop_first).collect()
}

fn ref_swap(x: &Set, rank: usize) -> Set {
    if rank < 2 {
        return x.clone();
    }
    x.iter().filter_map(Tuple::swap_last_two).collect()
}

fn as_set(v: &Val) -> Set {
    v.tuples.iter().map(|t| t.to_tuple()).collect()
}

/// A structure over `|D| ≤ max` scattered elements (not `0..n`, so
/// the order of `D` is exercised, not just its size).
fn random_structure(rng: &mut SplitMix64, max: usize) -> FiniteStructure {
    let n = rng.gen_usize(max + 1);
    let universe: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 40)).collect();
    FiniteStructure::undirected_graph(universe, [])
}

/// A random rank-`rank` relation over `dom` plus, sometimes, an element
/// outside it (constants may name elements outside the universe).
/// Dense relations (most of `Dⁿ`) are drawn up to rank 3, where the
/// budget sweeps stay short.
fn random_set(rng: &mut SplitMix64, rank: usize, dom: &[Elem]) -> Set {
    let mut pool = dom.to_vec();
    if pool.is_empty() || rng.gen_usize(4) == 0 {
        pool.push(Elem(99));
    }
    if rank == 0 {
        return if rng.gen_bool() {
            [Tuple::empty()].into_iter().collect()
        } else {
            Set::new()
        };
    }
    let tuple = |rng: &mut SplitMix64| -> Tuple { (0..rank).map(|_| *rng.pick(&pool)).collect() };
    let count = if rank <= 3 && pool.len() <= 5 && rng.gen_usize(3) == 0 {
        pool.len().pow(rank as u32) * 3 / 4
    } else {
        rng.gen_usize(30)
    };
    (0..count).map(|_| tuple(rng)).collect()
}

fn val(rank: usize, s: &Set) -> Val {
    Val::new(rank, s.iter().cloned())
}

/// Runs `op` and `reference` at every budget `0..=cost` (and one
/// more), where `cost` is the reference's fuel use with an unlimited
/// budget, and asserts identical outcomes and remaining fuel.
fn sweep(
    what: &str,
    rank_out: usize,
    mut op: impl FnMut(&mut Fuel) -> Result<Val, RunError>,
    mut reference: impl FnMut(&mut Fuel) -> Result<Set, FuelError>,
) {
    let mut unlimited = Fuel::new(u64::MAX);
    reference(&mut unlimited).expect("reference completes");
    let cost = unlimited.used();
    for budget in 0..=cost + 1 {
        let (mut f_op, mut f_ref) = (Fuel::new(budget), Fuel::new(budget));
        let got = op(&mut f_op);
        let want = reference(&mut f_ref);
        match (&got, &want) {
            (Ok(v), Ok(s)) => {
                assert_eq!(v.rank, rank_out, "{what}: rank at budget {budget}");
                assert_eq!(&as_set(v), s, "{what}: tuples at budget {budget}");
            }
            (Err(RunError::Fuel(a)), Err(b)) => assert_eq!(a, b, "{what}: error at {budget}"),
            _ => panic!("{what}: budget {budget}: got {got:?}, want {want:?}"),
        }
        assert_eq!(
            f_op.remaining(),
            f_ref.remaining(),
            "{what}: remaining fuel at budget {budget}"
        );
    }
}

#[test]
fn ops_match_the_btreeset_reference_at_every_budget() {
    let mut rng = rng_for("ops_match_the_btreeset_reference_at_every_budget");
    for case in 0..CASES {
        // Rank 4 over |D| = 6 makes ¬'s sweep 1554 budgets long, each
        // rerunning the reference: cap D lower as the rank grows.
        let rank = rng.gen_usize(7);
        let st = random_structure(&mut rng, [6, 6, 6, 6, 5, 3, 2][rank]);
        let dom = st.universe().to_vec();
        let xs = random_set(&mut rng, rank, &dom);
        let ys = if rng.gen_bool() {
            // Overlapping operands: a subset of x plus fresh tuples.
            let mut ys = random_set(&mut rng, rank, &dom);
            ys.extend(xs.iter().filter(|_| rng.gen_bool()).cloned());
            ys
        } else {
            random_set(&mut rng, rank, &dom)
        };
        let (x, y) = (val(rank, &xs), val(rank, &ys));
        let mut fin = FinInterp::new(&st);
        let tag = |op: &str| format!("case {case}: {op} rank {rank} |D| {}", dom.len());

        sweep(
            &tag("not"),
            rank,
            |f| fin.not(&x, f),
            |f| ref_not(&xs, rank, &dom, f),
        );
        sweep(
            &tag("up"),
            rank + 1,
            |f| fin.up(&x, f),
            |f| ref_up(&xs, &dom, f),
        );
        sweep(
            &tag("down"),
            rank.saturating_sub(1),
            |f| fin.down(&x, f),
            |_| Ok(ref_down(&xs, rank)),
        );
        sweep(
            &tag("swap"),
            rank,
            |f| fin.swap(&x, f),
            |_| Ok(ref_swap(&xs, rank)),
        );
        sweep(
            &tag("and"),
            rank,
            |_| fin.and(&x, &y),
            |_| Ok(xs.intersection(&ys).cloned().collect()),
        );
        assert!(matches!(
            fin.and(&x, &Val::empty(rank + 1)),
            Err(RunError::RankMismatch { .. })
        ));
    }
}

#[test]
fn rows_set_ops_match_btreeset() {
    let mut rng = rng_for("rows_set_ops_match_btreeset");
    for _ in 0..CASES {
        let dom: Vec<Elem> = (0..rng.gen_usize(7) as u64).map(Elem).collect();
        let rank = rng.gen_usize(7);
        let (xs, ys) = (
            random_set(&mut rng, rank, &dom),
            random_set(&mut rng, rank, &dom),
        );
        let rows = |s: &Set| s.iter().cloned().collect::<Rows>();
        let (x, y) = (rows(&xs), rows(&ys));
        assert_eq!(x.len(), xs.len());
        assert_eq!(
            x.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            xs.iter().cloned().collect::<Vec<_>>(),
            "iteration order is BTreeSet order"
        );
        assert_eq!(
            x.intersection(&y),
            rows(&xs.intersection(&ys).cloned().collect())
        );
        assert_eq!(
            x.difference(&y),
            rows(&xs.difference(&ys).cloned().collect())
        );
        assert_eq!(x.union(&y), rows(&xs.union(&ys).cloned().collect()));
        for t in xs.iter().chain(&ys) {
            assert_eq!(x.contains(t), xs.contains(t));
        }
        assert_eq!(
            format!("{x:?}"),
            format!("{xs:?}"),
            "Debug renders like the set"
        );
    }
}

#[test]
fn rank_zero_unit_and_empty() {
    let st = FiniteStructure::undirected_graph([3, 5], []);
    let mut fin = FinInterp::new(&st);
    let unit = Val::new(0, [Tuple::empty()]);
    let empty = Val::empty(0);
    assert_eq!(unit.len(), 1);
    assert_ne!(unit, empty);
    let mut fuel = Fuel::new(10);
    // ¬ flips {()} and {} at no cost (Σ over zero levels).
    assert_eq!(fin.not(&unit, &mut fuel).unwrap(), empty);
    assert_eq!(fin.not(&empty, &mut fuel).unwrap(), unit);
    assert_eq!(fuel.remaining(), 10);
    // {()}↑ = D¹, {}↑ = the empty rank-1 relation.
    let d1 = fin.up(&unit, &mut fuel).unwrap();
    assert_eq!(
        as_set(&d1),
        [3u64, 5].map(|a| Tuple::from_values([a])).into()
    );
    assert_eq!(fin.up(&empty, &mut fuel).unwrap(), Val::empty(1));
    assert_eq!(fuel.remaining(), 8);
    // D¹↓ = {()}; ∅¹↓ = {}; below rank 0, ↓ is {}.
    assert_eq!(fin.down(&d1, &mut fuel).unwrap(), unit);
    assert_eq!(fin.down(&Val::empty(1), &mut fuel).unwrap(), empty);
    assert_eq!(fin.down(&unit, &mut fuel).unwrap(), empty);
    // ∩ and ~ on rank 0.
    assert_eq!(fin.and(&unit, &unit).unwrap(), unit);
    assert_eq!(fin.and(&unit, &empty).unwrap(), empty);
    assert_eq!(fin.swap(&unit, &mut fuel).unwrap(), unit);
    assert_eq!(
        [Tuple::empty(), Tuple::empty()]
            .into_iter()
            .collect::<Rows>(),
        Rows::unit()
    );
}
