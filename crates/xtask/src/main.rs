//! `xtask` — repo maintenance tasks, runnable offline.
//!
//! ```text
//! cargo run -p xtask -- lint [--update-baseline]
//! cargo run -p xtask -- bench-ratchet [--update-baseline]
//! cargo run -p xtask -- analyze-corpus [--report PATH]
//! cargo run -p xtask -- pairs FILE
//! ```
//!
//! * `lint` — the panic-freedom ratchet (counts `panic!` / `.unwrap()`
//!   / `.expect(` in non-test crate sources against the committed
//!   `LINT_RATCHET.json` baseline and fails on growth) plus a
//!   cross-check of the DESIGN.md §6 metric-name table against the
//!   `recdb_obs::{count,observe,span}` call sites in the sources.
//! * `bench-ratchet` — the perf ratchet: reads the speedup *ratios*
//!   (bucketed/pairwise, semi-naive/from-scratch, incremental
//!   insert/recompute) out of `BENCH_refine.json` and fails if any
//!   falls below the tolerance-banded floor in `BENCH_RATCHET.json`.
//! * `analyze-corpus` — runs the static analyzer over
//!   `examples/programs/*.ql` (each file carries `// analyze:`
//!   directives naming its dialect, schema, and expected verdict) and,
//!   report-only, over single-line `parse_program("…")` literals found
//!   in `examples/` and `tests/`.
//! * `pairs` — compares alternating parent/change servebench runs
//!   metric by metric against the bounds in `BENCHMARK.json` (see
//!   [`pairs`]).

mod bench_ratchet;
mod corpus;
mod metrics_doc;
mod pairs;
mod ratchet;
mod scan;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workspace root: `crates/xtask/../..`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn usage() -> &'static str {
    "usage: cargo run -p xtask -- <task>\n\
     tasks:\n\
       lint [--update-baseline]      panic ratchet + metric-table cross-check\n\
       bench-ratchet [--update-baseline]  pinned speedup ratios from\n\
                                          BENCH_refine.json vs BENCH_RATCHET.json\n\
       analyze-corpus [--report PATH]  analyzer over examples/programs and\n\
                                       embedded program literals\n\
       pairs FILE                    paired parent/change servebench results\n\
                                     against the BENCHMARK.json bounds"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    let ok = match args.first().map(String::as_str) {
        Some("lint") => {
            let update = args.iter().any(|a| a == "--update-baseline");
            let ratchet_ok = ratchet::run(&root, update);
            let metrics_ok = metrics_doc::run(&root);
            ratchet_ok && metrics_ok
        }
        Some("bench-ratchet") => {
            let update = args.iter().any(|a| a == "--update-baseline");
            bench_ratchet::run(&root, update)
        }
        Some("analyze-corpus") => {
            let report = args
                .iter()
                .position(|a| a == "--report")
                .and_then(|i| args.get(i + 1))
                .map(PathBuf::from);
            corpus::run(&root, report.as_deref())
        }
        Some("pairs") if args.len() == 2 => pairs::run(&root, Path::new(&args[1])),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
