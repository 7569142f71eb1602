//! Std-timer benchmark for the `Vⁿᵣ` refinement pipeline — the
//! criterion-free companion to `crates/bench/benches/refine.rs`.
//!
//! Measures the base-partition strategies (fingerprint-bucketed vs the
//! O(t²) pairwise oracle) on the same workload as the criterion
//! `E7/partition` group — rank-4 random tuples over the `divides`
//! database, a workload that realizes hundreds of distinct atomic
//! types, scaled to 4096 tuples — plus the full `v_n_r` pipeline on
//! the paper's example graph, the semi-naive delta engine against
//! from-scratch loop evaluation (`E7/fixpoint`), and incremental
//! partition maintenance against full recomputation under single-tuple
//! insertion (`E7/incr_vnr`), and the per-op cost of the QL value
//! layer on mid-sized and tiny values (`E7/ops`, `E7/ops_tiny`).
//! Emits the `BENCH_refine.json` schema on stdout:
//!
//! ```text
//! cargo run --release --example bench_refine > BENCH_refine.json
//! ```
//!
//! `scripts/bench_refine.sh` wraps exactly that. With
//! `--metrics-out <path>` the run also installs a metrics recorder and
//! writes a `METRICS/v1` report of the hot-path counters (buckets
//! probed, fingerprint collisions, fan-out imbalance, …) next to the
//! timing points — the "why is it slow" companion to the medians.

use recdb_analyze::analyze_full;
use recdb_core::{
    Database, DatabaseBuilder, Elem, FiniteStructure, FnRelation, Fuel, Schema, Tuple,
};
use recdb_hsdb::{
    paper_example_graph, partition_by_local_iso, partition_by_local_iso_pairwise, v_n_r,
    IncrementalPartition,
};
use recdb_qlhs::exec::Backend;
use recdb_qlhs::{Dialect, FinInterp, Prog, Term, Val};
use recdb_vm::{compile, exec_plain, verify, LowerOpts};
use std::time::Instant;

/// Splitmix-style deterministic generator: the harness must not pull
/// in `rand` (it runs where dev-dependencies cannot resolve), and the
/// exact sample hardly matters — only that both strategies see the
/// same tuple set.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn random_tuples(count: usize, rank: usize, universe: u64, seed: u64) -> Vec<Tuple> {
    let mut lcg = Lcg(seed);
    (0..count)
        .map(|_| (0..rank).map(|_| Elem(lcg.next() % universe)).collect())
        .collect()
}

/// Median wall time of `iters` runs (after one warmup), in ns.
fn median_ns(iters: usize, mut f: impl FnMut() -> usize) -> u128 {
    std::hint::black_box(f());
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Point {
    group: &'static str,
    bench: String,
    size: usize,
    median_ns: u128,
}

/// An undirected path `0 — 1 — … — n-1` (schema `E : 2`).
fn path_graph(n: u64) -> FiniteStructure {
    FiniteStructure::undirected_graph(0..n, (0..n - 1).map(|i| (i, i + 1)))
}

/// `Y2 := C0; Y3 := C0 ∩ C_last; while |Y3|=0 { Y2 ∪= succ(Y2); Y3 ∪= Y2 ∩ C_last }`
/// — single-source reachability, with every assignment inside the
/// provable semi-naive fragment.
fn reach_prog(last: u64) -> Prog {
    let union = |v: usize, s: Term| Prog::assign(v, Term::Var(v).union(s));
    let succ = Term::Var(1).up().and(Term::Rel(0)).down();
    Prog::seq([
        Prog::assign(1, Term::Const(0)),
        Prog::assign(2, Term::Const(0).and(Term::Const(last))),
        Prog::WhileEmpty(
            2,
            Box::new(Prog::seq([
                union(1, succ),
                union(2, Term::Var(1).and(Term::Const(last))),
            ])),
        ),
    ])
}

/// A straight-line §2 pipeline whose scratch variable `Y2` is written
/// every stage but never read: the bytecode compiler's liveness pass
/// proves those stores dead and tick-free and elides them, while the
/// tree-walker evaluates every assignment. All operators stay in the
/// tick-free Ql fragment so elision is fuel-sound.
fn straightline_prog(stages: usize) -> Prog {
    let mut stmts = vec![Prog::assign(1, Term::Rel(0))];
    for _ in 0..stages {
        stmts.push(Prog::assign(
            2,
            Term::Var(1)
                .swap()
                .and(Term::Rel(0))
                .and(Term::Var(1).and(Term::E).swap()),
        ));
        stmts.push(Prog::assign(
            1,
            Term::Var(1).and(Term::Rel(0).swap()).swap(),
        ));
    }
    stmts.push(Prog::assign(0, Term::Var(1)));
    Prog::seq(stmts)
}

fn parse_metrics_out() -> Option<String> {
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--metrics-out" {
            return Some(it.next().expect("--metrics-out needs a path"));
        }
    }
    None
}

fn main() {
    let metrics_out = parse_metrics_out();
    let recorder = metrics_out.as_ref().map(|_| {
        let r = recdb_obs::InMemoryRecorder::shared();
        recdb_obs::install(r.clone());
        r
    });
    let divides: Database = DatabaseBuilder::new("divides")
        .relation("E", FnRelation::divides())
        .build();
    let mut points = Vec::new();

    for size in [64usize, 256, 1024, 4096] {
        let tuples = random_tuples(size, 4, 16, 42);
        points.push(Point {
            group: "E7/partition",
            bench: "bucketed".into(),
            size,
            median_ns: median_ns(5, || partition_by_local_iso(&divides, &tuples).len()),
        });
        // The O(t²) oracle gets fewer samples at the top size: one run
        // is ~0.5 s there and the median is stable anyway.
        let iters = if size >= 4096 { 3 } else { 5 };
        points.push(Point {
            group: "E7/partition",
            bench: "pairwise".into(),
            size,
            median_ns: median_ns(iters, || {
                partition_by_local_iso_pairwise(&divides, &tuples).len()
            }),
        });
    }

    // Semi-naive vs from-scratch loop evaluation: single-source
    // reachability on an undirected path — the canonical workload
    // where from-scratch is O(n³) (re-deriving the whole frontier
    // history each round) and the delta engine is O(n²).
    for size in [64u64, 128, 256] {
        let st = path_graph(size);
        let p = reach_prog(size - 1);
        let run = |seminaive: bool| {
            let mut i = FinInterp::new(&st);
            i.set_seminaive(seminaive);
            i.run(&p, &mut Fuel::new(1 << 40))
                .expect("reachability terminates")
                .tuples
                .len()
        };
        points.push(Point {
            group: "E7/fixpoint",
            bench: "seminaive".into(),
            size: size as usize,
            median_ns: median_ns(5, || run(true)),
        });
        points.push(Point {
            group: "E7/fixpoint",
            bench: "scratch".into(),
            size: size as usize,
            median_ns: median_ns(3, || run(false)),
        });
    }

    // Per-op cost of the flat value layer (`E7/ops`): each QL operator
    // on half-dense random relations of rank 2–4 over |D| = 10, the
    // shape of the serve benchmark's value-heavy joins. `size` is the
    // operand rank; `and` intersects two independent draws.
    let st = FiniteStructure::undirected_graph(0..10, []);
    for rank in [2usize, 3, 4] {
        let half = 10usize.pow(rank as u32) / 2;
        let x = Val::new(rank, random_tuples(half, rank, 10, 7));
        let y = Val::new(rank, random_tuples(half, rank, 10, 8));
        let mut fin = FinInterp::new(&st);
        let mut op = |bench: &str, f: &mut dyn FnMut(&mut FinInterp) -> Val| {
            points.push(Point {
                group: "E7/ops",
                bench: bench.into(),
                size: rank,
                median_ns: median_ns(21, || f(&mut fin).len()),
            });
        };
        let fuel = || Fuel::new(1 << 40);
        op("and", &mut |i| i.and(&x, &y).expect("ranks agree"));
        op("not", &mut |i| i.not(&x, &mut fuel()).expect("fuel"));
        op("up", &mut |i| i.up(&x, &mut fuel()).expect("fuel"));
        op("down", &mut |i| i.down(&x, &mut fuel()).expect("fuel"));
        op("swap", &mut |i| i.swap(&x, &mut fuel()).expect("fuel"));
    }

    // The same ops on a tiny value (`E7/ops_tiny`): the serve
    // benchmark's `fuel_loop` relation `R1`, which is 4 distinct
    // directed edges over |D| = 5 (4 rows of rank 2); these are the
    // edges its generator draws for seed 1's `const_and` request, whose
    // loop runs `down(swap(R1))` thousands of times a request. One call
    // is too fast for the timer, so each sample times a batch and
    // `median_ns` is per call; `size` is the row count; `and`
    // intersects `R1` with its swap.
    const TINY_BATCH: usize = 1000;
    let edges = [(2, 0), (2, 3), (3, 2), (4, 4)];
    let st = FiniteStructure::new(
        Schema::new([2]),
        (0..5).map(Elem),
        vec![edges
            .iter()
            .map(|&(a, b)| Tuple::from_values([a, b]))
            .collect()],
    );
    let x = Val::new(2, st.relation(0).iter().cloned());
    let mut fin = FinInterp::new(&st);
    let swapped = fin.swap(&x, &mut Fuel::new(0)).expect("tick-free");
    let mut op = |bench: &str, f: &mut dyn FnMut(&mut FinInterp) -> Val| {
        points.push(Point {
            group: "E7/ops_tiny",
            bench: bench.into(),
            size: x.len(),
            median_ns: median_ns(21, || (0..TINY_BATCH).map(|_| f(&mut fin).len()).sum())
                / TINY_BATCH as u128,
        });
    };
    let fuel = || Fuel::new(1 << 40);
    op("and", &mut |i| i.and(&x, &swapped).expect("ranks agree"));
    op("up", &mut |i| i.up(&x, &mut fuel()).expect("fuel"));
    op("down", &mut |i| i.down(&x, &mut fuel()).expect("fuel"));
    op("swap", &mut |i| i.swap(&x, &mut fuel()).expect("fuel"));

    // Verified bytecode vs tree-walking the same admitted program
    // (`E7/vm`): compilation and verification happen once per
    // admission in the serving layer, so the timed region is execution
    // only — flat register dispatch with dead scratch stores elided
    // against the AST walker that pays for every assignment.
    for size in [64u64, 256, 1024] {
        let st = path_graph(size);
        let p = straightline_prog(8);
        let full = analyze_full(&p, st.schema(), Dialect::Ql);
        let vm = compile(
            &p,
            st.schema(),
            Dialect::Ql,
            &full.termination,
            &LowerOpts::default(),
        )
        .expect("straight-line pipeline lowers");
        verify(&vm, &p, st.schema(), Dialect::Ql, &full.termination, None)
            .expect("bytecode verifies");
        points.push(Point {
            group: "E7/vm",
            bench: "vm".into(),
            size: size as usize,
            median_ns: median_ns(5, || {
                let mut i = FinInterp::new(&st);
                exec_plain(&mut i, &vm, &mut Fuel::new(1 << 40))
                    .expect("bytecode run terminates")
                    .tuples
                    .len()
            }),
        });
        points.push(Point {
            group: "E7/vm",
            bench: "ast".into(),
            size: size as usize,
            median_ns: median_ns(5, || {
                FinInterp::new(&st)
                    .run(&p, &mut Fuel::new(1 << 40))
                    .expect("tree walk terminates")
                    .tuples
                    .len()
            }),
        });
    }

    // Incremental vs from-scratch partition maintenance under
    // single-tuple insertion: the delta-maintained core of the Vⁿᵣ
    // cache. The incremental point is the per-insert median over a
    // batch of 16 (one insert is too fast for the timer); recompute is
    // one full repartition of the same grown set.
    const INSERT_BATCH: usize = 16;
    for size in [1024usize, 4096] {
        let tuples = random_tuples(size, 4, 16, 42);
        let batch = random_tuples(INSERT_BATCH, 4, 16, 0xfeed);
        let mut cache = IncrementalPartition::from_tuples(&divides, &tuples);
        points.push(Point {
            group: "E7/incr_vnr",
            bench: "insert".into(),
            size,
            median_ns: median_ns(5, || {
                for t in &batch {
                    cache.insert(t.clone());
                }
                cache.len()
            }) / INSERT_BATCH as u128,
        });
        let mut grown = tuples.clone();
        grown.extend(batch.iter().cloned());
        points.push(Point {
            group: "E7/incr_vnr",
            bench: "recompute".into(),
            size,
            median_ns: median_ns(5, || partition_by_local_iso(&divides, &grown).len()),
        });
    }

    let hs = paper_example_graph();
    for (n, r) in [(1usize, 2usize), (2, 1)] {
        points.push(Point {
            group: "E7/v_n_r",
            bench: format!("n{n}r{r}"),
            size: hs.t_n(n).len(),
            median_ns: median_ns(5, || {
                v_n_r(&hs, n, r).expect("tree covers all levels").len()
            }),
        });
    }

    // Hand-rolled JSON: the harness has no serde and needs none.
    println!("{{");
    println!("  \"schema\": \"BENCH_refine/v1\",");
    println!("  \"harness\": \"std-timer (examples/bench_refine.rs, median of 5)\",");
    println!(
        "  \"parallel_feature\": {},", // true under `--features parallel`
        cfg!(feature = "parallel")
    );
    println!("  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        println!(
            "    {{\"group\": \"{}\", \"bench\": \"{}\", \"size\": {}, \"median_ns\": {}}}{comma}",
            p.group, p.bench, p.size, p.median_ns
        );
    }
    println!("  ]");
    println!("}}");

    if let (Some(path), Some(rec)) = (&metrics_out, recorder) {
        recdb_obs::uninstall();
        let mut metrics = rec.snapshot();
        metrics.parallel = cfg!(feature = "parallel");
        metrics.write_json(path).expect("write metrics report");
        eprintln!("wrote {path}");
    }

    // Human-readable speedup summary on stderr so redirecting stdout
    // to BENCH_refine.json still shows the headline.
    let ns = |group: &str, bench: &str, size: usize| {
        points
            .iter()
            .find(|p| p.group == group && p.bench == bench && p.size == size)
            .map(|p| p.median_ns)
            .unwrap_or(0)
    };
    for size in [64usize, 256, 1024, 4096] {
        let (b, p) = (
            ns("E7/partition", "bucketed", size),
            ns("E7/partition", "pairwise", size),
        );
        if b > 0 {
            eprintln!(
                "partition t={size:>5}: pairwise {p} ns / bucketed {b} ns = {:.1}x",
                p as f64 / b as f64
            );
        }
    }
    for size in [64usize, 128, 256] {
        let (d, s) = (
            ns("E7/fixpoint", "seminaive", size),
            ns("E7/fixpoint", "scratch", size),
        );
        if d > 0 {
            eprintln!(
                "fixpoint n={size:>5}: scratch {s} ns / seminaive {d} ns = {:.1}x",
                s as f64 / d as f64
            );
        }
    }
    for size in [1024usize, 4096] {
        let (i, r) = (
            ns("E7/incr_vnr", "insert", size),
            ns("E7/incr_vnr", "recompute", size),
        );
        if i > 0 {
            eprintln!(
                "incr_vnr t={size:>5}: recompute {r} ns / insert {i} ns = {:.1}x",
                r as f64 / i as f64
            );
        }
    }
    for rank in [2usize, 3, 4] {
        let line: Vec<String> = ["and", "not", "up", "down", "swap"]
            .iter()
            .map(|op| format!("{op} {} ns", ns("E7/ops", op, rank)))
            .collect();
        eprintln!("ops      rank {rank}: {}", line.join(", "));
    }
    let line: Vec<String> = ["and", "up", "down", "swap"]
        .iter()
        .map(|op| format!("{op} {} ns", ns("E7/ops_tiny", op, 8)))
        .collect();
    eprintln!("ops_tiny 8 rows: {}", line.join(", "));
    for size in [64usize, 256, 1024] {
        let (v, a) = (ns("E7/vm", "vm", size), ns("E7/vm", "ast", size));
        if v > 0 {
            eprintln!(
                "vm       n={size:>5}: ast {a} ns / vm {v} ns = {:.1}x",
                a as f64 / v as f64
            );
        }
    }
}
