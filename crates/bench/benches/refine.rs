//! E7 — the `Vⁿᵣ` refinement pipeline (Props 3.5–3.7, Cor 3.3): cost
//! of one refinement level, of the full `r₀` search, of the direct
//! `≡ᵣ` recursion it cross-checks against, and of the base-partition
//! strategies (fingerprint-bucketed vs the O(t²) pairwise oracle).
//!
//! The `E7/partition` group is the before/after record for the
//! fingerprint rewrite: `pairwise/<t>` is the old algorithm (kept as
//! a test oracle), `bucketed/<t>` is the shipping one. The ratcheted
//! record is the std-timer harness's (`scripts/bench_refine.sh`).

use recdb_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recdb_bench::{infinite_db_zoo, random_tuples};
use recdb_hsdb::{
    equiv_r_tree, find_r0, paper_example_graph, partition_by_local_iso,
    partition_by_local_iso_pairwise, v_n_r, TreeGame,
};
use std::hint::black_box;
use std::time::Duration;

fn bench_vnr(c: &mut Criterion) {
    let hs = paper_example_graph();
    let mut g = c.benchmark_group("E7/v_n_r");
    for (n, r) in [(1usize, 0usize), (1, 1), (1, 2), (2, 0), (2, 1)] {
        let label = format!("n{n}r{r}");
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(v_n_r(&hs, n, r).expect("tree covers all levels").len()))
        });
    }
    g.finish();
}

fn bench_find_r0(c: &mut Criterion) {
    let mut g = c.benchmark_group("E7/find_r0");
    for (name, hs) in recdb_bench::hs_zoo() {
        if name == "rado" {
            continue; // shallow tree: r₀ search would hit the coding bound
        }
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(find_r0(&hs, 1, 2).expect("tree covers all levels")))
        });
    }
    g.finish();
}

fn bench_direct_equiv_r(c: &mut Criterion) {
    let hs = paper_example_graph();
    let nodes = hs.t_n(1);
    let mut g = c.benchmark_group("E7/equiv_r_tree");
    for r in [0usize, 1, 2] {
        g.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| {
                let mut agree = 0u32;
                for u in &nodes {
                    for v in &nodes {
                        if equiv_r_tree(&hs, u, v, r) {
                            agree += 1;
                        }
                    }
                }
                black_box(agree)
            })
        });
    }
    g.finish();
}

fn bench_cached_equiv_r(c: &mut Criterion) {
    // Same all-pairs sweep as `equiv_r_tree`, but sharing one solver
    // (interner + memo) across the run — the shape `v_n_r` callers use.
    let hs = paper_example_graph();
    let nodes = hs.t_n(1);
    let mut g = c.benchmark_group("E7/equiv_r_cached");
    for r in [0usize, 1, 2] {
        g.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| {
                let mut game = TreeGame::new(&hs);
                let mut agree = 0u32;
                for u in &nodes {
                    for v in &nodes {
                        if game.equiv_r(u, v, r) {
                            agree += 1;
                        }
                    }
                }
                black_box(agree)
            })
        });
    }
    g.finish();
}

fn bench_partition_strategies(c: &mut Criterion) {
    // Base-partition cost vs tuple-set size, on an infinite db whose
    // atomic types genuinely vary (divides). Rank 4 over 0..16
    // realizes hundreds of distinct atomic types, so the pairwise
    // oracle pays its full blocks-per-tuple scan while the bucketed
    // path stays O(t) hashing.
    let db = infinite_db_zoo()
        .into_iter()
        .find(|d| d.name() == "divides")
        .expect("zoo has divides");
    let mut g = c.benchmark_group("E7/partition");
    for size in [64usize, 256, 1024] {
        let tuples = random_tuples(size, 4, 16, 42);
        g.bench_with_input(BenchmarkId::new("bucketed", size), &tuples, |b, tuples| {
            b.iter(|| black_box(partition_by_local_iso(&db, tuples).len()))
        });
        g.bench_with_input(BenchmarkId::new("pairwise", size), &tuples, |b, tuples| {
            b.iter(|| black_box(partition_by_local_iso_pairwise(&db, tuples).len()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    targets = bench_vnr, bench_find_r0, bench_direct_equiv_r,
        bench_cached_equiv_r, bench_partition_strategies
}
criterion_main!(benches);
