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
//!
//! `↓` and `~` reuse their operand's order (`↓` merges the runs of rows
//! that share a first element, `~` re-sorts pairs within each group of
//! rows that agree on all but the last two elements), so they also get
//! operands shaped to stress that order: `↑` outputs, heavily
//! overlapping runs, a single run, one row per run, the empty prefix
//! of rank 2, and ranks up to 6.
//!
//! The fused term shapes (`↑x ∩ y`, `y ∩ ↑x`, `x ∩ ¬y`, `↓¬y`) are
//! checked twice: each kernel against the same reference composed from
//! `ref_up`/`ref_not` and `∩`/`↓` at every budget, and whole random
//! terms rich in those shapes through the tree walker against the same
//! walker over [`Unfused`], which leaves every fused method at its
//! default.

mod support;

use recdb_core::{fnv1a, Elem, FiniteStructure, Fuel, FuelError, Schema, SplitMix64, Tuple};
use recdb_qlhs::exec::{eval_term, Backend};
use recdb_qlhs::{FinInterp, Rows, RunError, Term, Val};
use std::collections::BTreeSet;
use support::Unfused;

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

/// `x↓` and `x~` through [`FinInterp`] and directly on [`Rows`], against
/// the reference sets, with `Debug` bytes compared too.
fn check_down_and_swap(what: &str, fin: &mut FinInterp, rank: usize, xs: &Set) {
    let x = val(rank, xs);
    let mut fuel = Fuel::new(0);
    for (op, got, want) in [
        ("down", fin.down(&x, &mut fuel), ref_down(xs, rank)),
        ("swap", fin.swap(&x, &mut fuel), ref_swap(xs, rank)),
    ] {
        let got = got.unwrap_or_else(|e| panic!("{what}: {op}: {e}"));
        assert_eq!(as_set(&got), want, "{what}: {op} rank {rank}");
        assert_eq!(
            format!("{:?}", got.tuples),
            format!("{want:?}"),
            "{what}: {op} Debug"
        );
    }
    let rows: Rows = xs.iter().cloned().collect();
    if rank >= 1 {
        let down: Rows = ref_down(xs, rank).into_iter().collect();
        assert_eq!(rows.drop_first(), down, "{what}: Rows::drop_first");
    }
    let swap: Rows = ref_swap(xs, rank).into_iter().collect();
    assert_eq!(rows.swap_last_two(), swap, "{what}: Rows::swap_last_two");
}

#[test]
fn down_and_swap_on_order_stressing_operands() {
    let mut rng = rng_for("down_and_swap_on_order_stressing_operands");
    for case in 0..CASES {
        let rank = 1 + rng.gen_usize(6);
        let st = random_structure(&mut rng, [0, 6, 6, 5, 4, 3, 3][rank]);
        let dom = st.universe().to_vec();
        let mut fin = FinInterp::new(&st);
        let tag = |shape: &str| format!("case {case}: {shape} rank {rank} |D| {}", dom.len());
        let tails = random_set(&mut rng, rank - 1, &dom);
        let firsts: Vec<Elem> = dom.iter().copied().filter(|_| rng.gen_bool()).collect();
        let prefixed = |firsts: &[Elem]| -> Set {
            firsts
                .iter()
                .flat_map(|&a| {
                    tails
                        .iter()
                        .map(move |t| Tuple::from_values([a.0]).concat(t))
                })
                .collect()
        };

        // `↑` outputs, fed to `~` (and `↓`): every row ends in all of D.
        let below = random_set(&mut rng, rank - 1, &dom);
        let up = fin
            .up(&val(rank - 1, &below), &mut Fuel::new(u64::MAX))
            .expect("fuel");
        check_down_and_swap(&tag("up(x)"), &mut fin, rank, &as_set(&up));
        // F × S for a few first elements F: the runs `↓` merges are
        // identical, so nearly every row is a duplicate.
        check_down_and_swap(&tag("F × S"), &mut fin, rank, &prefixed(&firsts));
        check_down_and_swap(&tag("D × S"), &mut fin, rank, &prefixed(&dom));
        // A single run: one first element.
        check_down_and_swap(
            &tag("single run"),
            &mut fin,
            rank,
            &prefixed(&dom[..dom.len().min(1)]),
        );
        // One row per run: distinct first elements, random tails.
        let one_per_run: Set = dom
            .iter()
            .map(|&a| {
                let t = random_set(&mut rng, rank - 1, &dom).into_iter().next();
                Tuple::from_values([a.0]).concat(&t.unwrap_or_else(Tuple::empty))
            })
            .filter(|t| t.rank() == rank)
            .collect();
        check_down_and_swap(&tag("one row per run"), &mut fin, rank, &one_per_run);
        // Random operands, which at rank 2 have the empty prefix: `~`
        // re-sorts the whole relation as one group.
        check_down_and_swap(
            &tag("random"),
            &mut fin,
            rank,
            &random_set(&mut rng, rank, &dom),
        );
    }
}

/// Rank-`rank + 1` rows to semijoin against the rank-`rank` `xs`: some
/// rows of `xs` extended by an element of `dom` or by the
/// out-of-universe 99, plus random rows.
fn extensions(rng: &mut SplitMix64, xs: &Set, rank: usize, dom: &[Elem]) -> Set {
    let mut last = dom.to_vec();
    last.push(Elem(99));
    let mut ys = random_set(rng, rank + 1, dom);
    for x in xs {
        for &a in &last {
            if rng.gen_usize(3) == 0 {
                ys.insert(x.extend(a));
            }
        }
    }
    ys
}

/// A rank-`rank` relation for `↓¬y`: `F × S` for first elements `F`
/// (all of `dom`, or all but one) and random tails `S`, with a few rows
/// dropped and random rows added, so some tails lie under every first
/// element and some do not.
fn run_heavy(rng: &mut SplitMix64, rank: usize, dom: &[Elem]) -> Set {
    if rank == 0 {
        return random_set(rng, 0, dom);
    }
    let tails = random_set(rng, rank - 1, dom);
    let skip = (rng.gen_usize(3) == 0 && !dom.is_empty()).then(|| *rng.pick(dom));
    let mut ys: Set = dom
        .iter()
        .filter(|&&a| Some(a) != skip)
        .flat_map(|&a| {
            tails
                .iter()
                .map(move |t| Tuple::from_values([a.0]).concat(t))
        })
        .filter(|_| rng.gen_usize(8) != 0)
        .collect();
    ys.extend(random_set(rng, rank, dom));
    ys
}

/// An empty set now and then, else `draw`'s.
fn sometimes_empty(rng: &mut SplitMix64, draw: impl FnOnce(&mut SplitMix64) -> Set) -> Set {
    if rng.gen_usize(8) == 0 {
        Set::new()
    } else {
        draw(rng)
    }
}

#[test]
fn fused_shapes_match_the_btreeset_reference_at_every_budget() {
    let mut rng = rng_for("fused_shapes_match_the_btreeset_reference_at_every_budget");
    for case in 0..CASES {
        // `n` is the rank of the `∩` operands and of `↓¬y`'s operand.
        let n = rng.gen_usize(5);
        let st = random_structure(&mut rng, [6, 6, 6, 6, 5][n]);
        let dom = st.universe().to_vec();
        let mut fin = FinInterp::new(&st);
        let tag = |op: &str| format!("case {case}: {op} rank {n} |D| {}", dom.len());

        // x ∩ ¬y: out-of-universe rows may sit in either operand.
        let xs = sometimes_empty(&mut rng, |r| random_set(r, n, &dom));
        let ys = if rng.gen_bool() {
            let mut ys = random_set(&mut rng, n, &dom);
            ys.extend(xs.iter().filter(|_| rng.gen_bool()).cloned());
            ys
        } else {
            random_set(&mut rng, n, &dom)
        };
        let ys = sometimes_empty(&mut rng, |_| ys);
        let (x, y) = (val(n, &xs), val(n, &ys));
        sweep(
            &tag("antijoin"),
            n,
            |f| fin.antijoin(&x, &y, f),
            |f| {
                Ok(xs
                    .intersection(&ref_not(&ys, n, &dom, f)?)
                    .cloned()
                    .collect())
            },
        );

        // ↓¬y.
        let ys = sometimes_empty(&mut rng, |r| run_heavy(r, n, &dom));
        let y = val(n, &ys);
        sweep(
            &tag("division"),
            n.saturating_sub(1),
            |f| fin.division(&y, f),
            |f| Ok(ref_down(&ref_not(&ys, n, &dom, f)?, n)),
        );

        // ↑p ∩ y and y ∩ ↑p, for a rank-(n−1) p: `semijoin_left`'s
        // right operand ticks once, after `p↑`'s charge.
        if n == 0 {
            continue;
        }
        let ps = sometimes_empty(&mut rng, |r| random_set(r, n - 1, &dom));
        let ys = sometimes_empty(&mut rng, |r| extensions(r, &ps, n - 1, &dom));
        let (p, y) = (val(n - 1, &ps), val(n, &ys));
        sweep(
            &tag("semijoin_left"),
            n,
            |f| {
                fin.semijoin_left(&p, f, |_, f| {
                    f.tick()?;
                    Ok(y.clone())
                })
            },
            |f| {
                let up = ref_up(&ps, &dom, f)?;
                f.tick()?;
                Ok(up.intersection(&ys).cloned().collect())
            },
        );
        sweep(
            &tag("semijoin_right"),
            n,
            |f| fin.semijoin_right(&y, &p, f),
            |f| Ok(ys.intersection(&ref_up(&ps, &dom, f)?).cloned().collect()),
        );
    }
}

/// The fused shapes with operands of the wrong ranks, or a right
/// operand that fails, each run on `b` from a fresh budget: outcomes
/// and fuel left.
fn mismatches<B: Backend<V = Val>>(
    b: &mut B,
    dom: &[Elem],
    budget: u64,
) -> Vec<(Result<Val, RunError>, u64)> {
    let rank = |r: usize| {
        let rows: Set = (0..4)
            .map(|i| (0..r).map(|j| dom[(i + j) % dom.len()]).collect())
            .collect();
        val(r, &rows)
    };
    let (r1, r2, r3) = (rank(1), rank(2), rank(3));
    let mut out = Vec::new();
    let mut run = |f: &mut dyn FnMut(&mut Fuel) -> Result<Val, RunError>| {
        let mut fuel = Fuel::new(budget);
        let r = f(&mut fuel);
        out.push((r, fuel.remaining()));
    };
    run(&mut |f| b.semijoin_left(&r1, f, |_, _| Ok(r3.clone())));
    run(&mut |f| b.semijoin_left(&r1, f, |_, _| Err(RunError::NoSuchRelation(7))));
    run(&mut |f| b.semijoin_right(&r3, &r1, f));
    run(&mut |f| b.antijoin(&r2, &r1, f));
    run(&mut |f| b.antijoin(&r1, &r2, f));
    out
}

#[test]
fn fused_shapes_keep_the_rank_mismatch_and_its_fuel() {
    let st = FiniteStructure::undirected_graph([2, 5, 7], []);
    let dom = st.universe().to_vec();
    let (mut fin, mut unfused) = (FinInterp::new(&st), Unfused(FinInterp::new(&st)));
    for budget in 0..=45 {
        assert_eq!(
            mismatches(&mut fin, &dom, budget),
            mismatches(&mut unfused, &dom, budget),
            "budget {budget}"
        );
    }
    let errors: Vec<RunError> = mismatches(&mut fin, &dom, 1_000)
        .into_iter()
        .map(|(r, _)| r.expect_err("every case fails"))
        .collect();
    let rank = |left, right| RunError::RankMismatch { left, right };
    assert_eq!(
        errors,
        [
            rank(2, 3),
            RunError::NoSuchRelation(7),
            rank(3, 2),
            rank(2, 1),
            rank(1, 2)
        ]
    );
}

/// A random term of rank `rank` (a wrong-rank operand now and then),
/// weighted toward the fused shapes. Leaves are the variables `Y1`–`Y4`
/// (ranks 0–3), `R1` (rank 2), `R2` (rank 1), `E` and constants, some
/// outside the universe.
fn random_term(rng: &mut SplitMix64, rank: usize, depth: usize, dom: &[Elem]) -> Term {
    let rank = if rng.gen_usize(12) == 0 {
        rng.gen_usize(4)
    } else {
        rank
    };
    if depth == 0 || rng.gen_usize(5) == 0 {
        return match (rank, rng.gen_usize(3)) {
            (1, 0) => Term::Rel(1),
            (1, 1) => Term::Const(dom.first().map_or(99, |e| e.0) + rng.gen_range(0, 3)),
            (2, 0) => Term::Rel(0),
            (2, 1) => Term::E,
            _ => Term::Var(rank.min(3)),
        };
    }
    let pick = rng.gen_usize(10);
    let mut sub = |r: usize| random_term(rng, r, depth - 1, dom);
    match pick {
        0 | 1 if rank >= 1 => sub(rank - 1).up().and(sub(rank)),
        2 if rank >= 1 => sub(rank).and(sub(rank - 1).up()),
        3 | 4 => sub(rank).and(sub(rank).not()),
        5 | 6 if rank < 3 => sub(rank + 1).not().down(),
        7 => sub(rank).and(sub(rank)),
        8 if rank < 3 => sub(rank + 1).down(),
        9 if rank >= 1 => sub(rank - 1).up(),
        _ => sub(rank).not().swap(),
    }
}

/// The fused shapes in `t`, in the walker's precedence: antijoins,
/// semijoins, divisions.
fn fused_nodes(t: &Term, counts: &mut [usize; 3]) {
    match t {
        Term::And(l, r) => {
            match (&**l, &**r) {
                (_, Term::Not(_)) => counts[0] += 1,
                (Term::Up(_), _) | (_, Term::Up(_)) => counts[1] += 1,
                _ => {}
            }
            fused_nodes(l, counts);
            fused_nodes(r, counts);
        }
        Term::Down(e) => {
            if matches!(**e, Term::Not(_)) {
                counts[2] += 1;
            }
            fused_nodes(e, counts);
        }
        Term::Not(e) | Term::Up(e) | Term::Swap(e) => fused_nodes(e, counts),
        Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => {}
    }
}

/// The tree walker over [`FinInterp`] against the same walker over
/// [`Unfused`]: every outcome and the fuel left agree at every budget
/// from 0 to one past the term's cost, on random terms whose fused
/// nodes evaluate in every combination, errors included.
#[test]
fn fused_walker_matches_the_unfused_walker_on_random_terms() {
    let mut rng = rng_for("fused_walker_matches_the_unfused_walker_on_random_terms");
    let mut completed = [0usize; 3];
    for case in 0..4 * CASES {
        let n = rng.gen_usize(6);
        let universe: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 12)).collect();
        let pool: Vec<Elem> = {
            let mut u = universe.clone();
            u.sort_unstable();
            u.dedup();
            u.into_iter().map(Elem).collect()
        };
        let edges = random_set(&mut rng, 2, &pool);
        let marks = random_set(&mut rng, 1, &pool);
        let inside = |s: Set| -> BTreeSet<Tuple> {
            s.into_iter()
                .filter(|t| t.elems().iter().all(|e| pool.contains(e)))
                .collect()
        };
        let st = FiniteStructure::new(
            Schema::new([2, 1]),
            pool.iter().copied(),
            vec![inside(edges), inside(marks)],
        );
        let env: Vec<Val> = (0..4)
            .map(|r| val(r, &random_set(&mut rng, r, &pool)))
            .collect();
        let rank = rng.gen_usize(4);
        let depth = 1 + rng.gen_usize(3);
        let t = random_term(&mut rng, rank, depth, &pool);
        let (mut fin, mut unfused) = (FinInterp::new(&st), Unfused(FinInterp::new(&st)));
        let mut run = |fused: bool, budget: u64| {
            let mut fuel = Fuel::new(budget);
            let r = if fused {
                eval_term(&mut fin, &t, &env, &mut fuel)
            } else {
                eval_term(&mut unfused, &t, &env, &mut fuel)
            };
            (r, fuel.remaining())
        };
        let (full, left) = run(false, u64::MAX);
        let cost = u64::MAX - left;
        for budget in 0..=cost + 1 {
            assert_eq!(
                run(true, budget),
                run(false, budget),
                "case {case}: {t} at fuel {budget} (|D| {})",
                pool.len()
            );
        }
        if full.is_ok() {
            let mut counts = [0; 3];
            fused_nodes(&t, &mut counts);
            for (done, c) in completed.iter_mut().zip(counts) {
                *done += c;
            }
        }
    }
    // Antijoins, semijoins and divisions that evaluated to a value.
    for (shape, done) in ["antijoin", "semijoin", "division"].iter().zip(completed) {
        assert!(done >= 40, "only {done} completed {shape} nodes");
    }
}
