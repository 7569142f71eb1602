//! Delta-engine differentials: the semi-naive loop evaluator against
//! the from-scratch interpreters, and the incremental `Vⁿᵣ` cache
//! against full recomputation.
//!
//! The semi-naive engine's correctness story is *exactness*: for loops
//! in the provable fragment it must produce the same value — and for
//! loops it abandons, the same error — as the naive re-evaluation it
//! replaces. These checks drive that claim with seeded random programs
//! (biased toward the provable fragment via
//! [`ProgShape::union_bias`](crate::gen::ProgShape::union_bias))
//! and seeded random insertion orders.

use crate::differential::norm;
use crate::gen;
use crate::ledger::{CheckCtx, CheckDef};
use crate::slice::cycle;
use recdb_core::Tuple;
use recdb_hsdb::{v_n_r, v_n_r_over, HsDatabase, VnrCache};
use recdb_qlhs::{classify_loop, Prog, RunError};

/// The loops of `p`, nested ones included, whose body is in the
/// provable semi-naive fragment.
fn eligible(p: &Prog) -> usize {
    match p {
        Prog::Assign(..) => 0,
        Prog::Seq(ps) => ps.iter().map(eligible).sum(),
        Prog::WhileEmpty(_, body) | Prog::WhileSingleton(_, body) | Prog::WhileFinite(_, body) => {
            usize::from(classify_loop(body).is_ok()) + eligible(body)
        }
    }
}

/// Semi-naive loop evaluation must be observationally identical to
/// from-scratch re-evaluation: same value on success, same error on
/// failure, across all three interpreters. Fuel pairings are excluded
/// — the two engines spend ticks differently by design, so a budget
/// boundary can fall between them without either being wrong.
pub fn seminaive_vs_from_scratch(ctx: &mut CheckCtx) -> Result<(), String> {
    // 510 programs per backend.
    const ROUNDS: usize = 1530;
    let mut eligible_loops = 0usize;
    let mut fuel_skips = 0usize;
    for round in 0..ROUNDS {
        let slice = cycle(ctx, round);
        let dialect = slice.dialect();
        let shape = slice.shape(0, true);
        let stmts = 1 + ctx.rng().gen_usize(3);
        let p = gen::random_prog(ctx.rng(), 2, stmts, &shape);
        eligible_loops += eligible(&p);
        let scratch = slice.run_seminaive(&p, false);
        let delta = slice.run_seminaive(&p, true);
        match (&scratch, &delta) {
            (Err(RunError::Fuel(_)), _) | (_, Err(RunError::Fuel(_))) => {
                if scratch != delta {
                    fuel_skips += 1;
                }
            }
            _ => {
                if scratch != delta {
                    return Err(format!(
                        "semi-naive diverged from from-scratch under {dialect} \
                         (round {round}):\nfrom-scratch: {scratch:?}\nsemi-naive: {delta:?}\n{p}"
                    ));
                }
            }
        }
    }
    if eligible_loops < 150 {
        return Err(format!(
            "generator drift: only {eligible_loops} provably-eligible loops in \
             {ROUNDS} programs — the differential lost its teeth"
        ));
    }
    if fuel_skips > ROUNDS / 10 {
        return Err(format!(
            "{fuel_skips}/{ROUNDS} rounds hid behind fuel asymmetry — \
             raise the budgets"
        ));
    }
    Ok(())
}

/// Fisher–Yates over the check's RNG stream.
fn shuffle(ctx: &mut CheckCtx, v: &mut [Tuple]) {
    for i in (1..v.len()).rev() {
        let j = ctx.rng().gen_usize(i + 1);
        v.swap(i, j);
    }
}

/// One family/rank/depth cell of the incremental-`Vⁿᵣ` differential.
fn vnr_cell(ctx: &mut CheckCtx, hs: &HsDatabase, n: usize, r: usize) -> Result<(), String> {
    let mut nodes = hs.t_n(n);
    shuffle(ctx, &mut nodes);
    let mut cache = VnrCache::new(hs, r);
    // Compare at a few random prefixes plus the full subset.
    let mut checkpoints: Vec<usize> = (0..3)
        .map(|_| 1 + ctx.rng().gen_usize(nodes.len()))
        .collect();
    checkpoints.push(nodes.len());
    for (i, u) in nodes.iter().enumerate() {
        cache.insert(u.clone());
        if !checkpoints.contains(&(i + 1)) {
            continue;
        }
        let incr = cache
            .partition()
            .map_err(|e| format!("cache (n={n}, r={r}, prefix {}): {e}", i + 1))?;
        let scratch = v_n_r_over(hs, &nodes[..=i], r)
            .map_err(|e| format!("oracle (n={n}, r={r}, prefix {}): {e}", i + 1))?;
        if norm(incr) != norm(scratch) {
            return Err(format!(
                "incremental Vⁿᵣ != from-scratch on {} at n={n}, r={r} \
                 after {} of {} insertions",
                hs.database().name(),
                i + 1,
                nodes.len()
            ));
        }
    }
    // The full subset must also reproduce the batch pipeline.
    let full = v_n_r(hs, n, r).map_err(|e| format!("v_n_r (n={n}, r={r}): {e}"))?;
    let incr = cache
        .partition()
        .map_err(|e| format!("cache full (n={n}, r={r}): {e}"))?;
    if norm(incr) != norm(full) {
        return Err(format!(
            "incremental Vⁿᵣ over all of Tⁿ != v_n_r on {} at n={n}, r={r}",
            hs.database().name()
        ));
    }
    Ok(())
}

/// The delta-maintained `Vⁿᵣ` cache must equal a full recomputation
/// after every prefix of a random insertion order, on every family.
pub fn incremental_vnr_vs_recompute(ctx: &mut CheckCtx) -> Result<(), String> {
    let families: Vec<(&str, HsDatabase)> = vec![
        ("paper-example", recdb_hsdb::paper_example_graph()),
        ("infinite-clique", recdb_hsdb::infinite_clique()),
        (
            "unary-cells",
            recdb_hsdb::unary_cells(vec![
                recdb_hsdb::CellSize::Infinite,
                recdb_hsdb::CellSize::Infinite,
            ]),
        ),
        ("rado", recdb_hsdb::rado_graph()),
    ];
    for (name, hs) in &families {
        ctx.family(name);
        for (n, r) in [(1, 0), (1, 1), (1, 2), (2, 1)] {
            vnr_cell(ctx, hs, n, r)?;
        }
    }
    Ok(())
}

/// The delta-engine rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "SEMI-NAIVE-DIFF",
            result: "delta engine / §3.3-§4 semantics",
            title: "semi-naive loop evaluation ≡ from-scratch on all three interpreters",
            run: seminaive_vs_from_scratch,
        },
        CheckDef {
            id: "INCR-VNR-DIFF",
            result: "Props 3.4-3.7 pipeline, incremental",
            title: "delta-maintained Vⁿᵣ cache ≡ full recomputation under insertion",
            run: incremental_vnr_vs_recompute,
        },
    ]
}
