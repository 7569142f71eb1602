//! DESIGN.md §6 metric-table cross-check.
//!
//! The Observability section documents every metric name the sources
//! can emit. Documentation tables rot silently, so this check holds
//! the two in lock-step, both directions:
//!
//! * every name passed literally to `recdb_obs::{count,observe,span}`
//!   in non-test `crates/*/src` code must appear in the table (exactly,
//!   or covered by a `prefix.*` wildcard row);
//! * every table name must correspond to a source call site (for
//!   wildcard rows: a `concat!("prefix.", …)` construction or any
//!   literal with that prefix).

use crate::scan;
use std::collections::BTreeSet;
use std::path::Path;

/// Metric-name tokens from DESIGN.md table rows: backticked tokens in
/// the first cell of `| name | kind | …|` rows whose kind mentions
/// counter/histogram, split on `/`.
fn table_names(design: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in design.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        if cells.len() < 3 {
            continue;
        }
        let kind = cells[1].to_ascii_lowercase();
        if !kind.contains("counter") && !kind.contains("histogram") {
            continue;
        }
        for token in cells[0].split('`') {
            for name in token.split('/') {
                let name = name.trim();
                if !name.is_empty() && name.contains('.') && !name.contains(' ') {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

struct SourceNames {
    /// Literal names from `count("…"` / `observe("…"` / `span("…"`.
    literal: BTreeSet<String>,
    /// `concat!("prefix.", …)` prefixes (dynamic name families).
    prefixes: BTreeSet<String>,
}

fn source_names(root: &Path) -> SourceNames {
    let mut literal = BTreeSet::new();
    let mut prefixes = BTreeSet::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)
        .map(|es| es.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        // The obs crate defines the API; its own sources and xtask are
        // not emitters.
        if crate_dir
            .file_name()
            .is_some_and(|n| n == "obs" || n == "xtask")
        {
            continue;
        }
        for file in scan::rust_files(&crate_dir.join("src")) {
            let Ok(raw) = std::fs::read_to_string(&file) else {
                continue;
            };
            let source = scan::non_test_source(&raw, true);
            for marker in ["count(", "observe(", "span("] {
                literal.extend(scan::literals_after(&source, marker));
            }
            for lit in scan::literals_after(&source, "concat!(") {
                if lit.ends_with('.') {
                    prefixes.insert(lit);
                }
            }
        }
    }
    SourceNames { literal, prefixes }
}

/// Runs the cross-check; returns `true` when table and sources agree.
pub fn run(root: &Path) -> bool {
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let table = table_names(&design);
    let source = source_names(root);
    let mut ok = true;

    let wildcards: Vec<&str> = table.iter().filter_map(|n| n.strip_suffix('*')).collect();
    for name in &source.literal {
        let documented = table.contains(name) || wildcards.iter().any(|w| name.starts_with(w));
        if !documented {
            ok = false;
            eprintln!("metrics: `{name}` is emitted by the sources but missing from the DESIGN.md §6 table");
        }
    }
    for prefix in &source.prefixes {
        if !wildcards.iter().any(|w| *w == prefix) {
            ok = false;
            eprintln!(
                "metrics: dynamic family `{prefix}*` has no wildcard row in the DESIGN.md §6 table"
            );
        }
    }
    for name in &table {
        let found = match name.strip_suffix('*') {
            Some(prefix) => {
                source.prefixes.contains(prefix)
                    || source.literal.iter().any(|l| l.starts_with(prefix))
            }
            None => source.literal.contains(name),
        };
        if !found {
            ok = false;
            eprintln!(
                "metrics: `{name}` is documented in DESIGN.md §6 but no source call site emits it"
            );
        }
    }
    if ok {
        println!(
            "metrics: OK — {} documented name(s) match {} literal call site(s) + {} dynamic family(ies)",
            table.len(),
            source.literal.len(),
            source.prefixes.len()
        );
    }
    ok
}
