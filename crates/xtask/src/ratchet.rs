//! The panic-freedom ratchet.
//!
//! Counts `panic!` / `.unwrap()` / `.expect(` occurrences in each
//! non-test source file under `crates/*/src` and compares them with
//! the committed `LINT_RATCHET.json` baseline: any file whose count
//! *grows* fails the lint, shrinking is celebrated and can be locked
//! in with `--update-baseline`. The goal is monotone progress toward
//! panic-free library code without demanding a flag-day cleanup.

use crate::scan;
use std::collections::BTreeMap;
use std::path::Path;

const BASELINE: &str = "LINT_RATCHET.json";
const PATTERNS: [&str; 3] = ["panic!", ".unwrap()", ".expect("];

/// Per-file totals, keyed by workspace-relative path.
type Counts = BTreeMap<String, usize>;

fn current_counts(root: &Path) -> Counts {
    let mut counts = Counts::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return counts;
    };
    let mut crate_dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        // xtask polices the rest of the workspace, not itself.
        if crate_dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        for file in scan::rust_files(&crate_dir.join("src")) {
            let Ok(raw) = std::fs::read_to_string(&file) else {
                continue;
            };
            let source = scan::non_test_source(&raw, false);
            let total: usize = PATTERNS
                .iter()
                .map(|p| scan::count_occurrences(&source, p))
                .sum();
            if total > 0 {
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                counts.insert(rel, total);
            }
        }
    }
    counts
}

fn render_baseline(counts: &Counts) -> String {
    let mut s = String::from("{\n  \"schema\": \"LINT_RATCHET/v1\",\n");
    s.push_str("  \"patterns\": [\"panic!\", \".unwrap()\", \".expect(\"],\n");
    if counts.is_empty() {
        s.push_str("  \"files\": {}\n}\n");
        return s;
    }
    s.push_str("  \"files\": {\n");
    let rows: Vec<String> = counts
        .iter()
        .map(|(f, n)| format!("    \"{f}\": {n}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// A minimal reader for the baseline's `"path": count` rows — the file
/// is machine-written by `render_baseline`, so line-shape parsing is
/// exact.
fn parse_baseline(text: &str) -> Counts {
    let mut counts = Counts::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once("\": ") else {
            continue;
        };
        let key = key.trim_start_matches('"');
        if key == "schema" || key == "patterns" || key == "files" {
            continue;
        }
        if let Ok(n) = value.trim().parse::<usize>() {
            counts.insert(key.to_string(), n);
        }
    }
    counts
}

/// Runs the ratchet; returns `true` when the lint passes.
pub fn run(root: &Path, update: bool) -> bool {
    let counts = current_counts(root);
    let baseline_path = root.join(BASELINE);
    if update || !baseline_path.exists() {
        std::fs::write(&baseline_path, render_baseline(&counts))
            .expect("writing the ratchet baseline");
        println!(
            "ratchet: wrote {} ({} file(s), {} call(s))",
            BASELINE,
            counts.len(),
            counts.values().sum::<usize>()
        );
        return true;
    }
    let baseline = parse_baseline(&std::fs::read_to_string(&baseline_path).unwrap_or_default());
    let mut ok = true;
    let mut improved = 0usize;
    for (file, &n) in &counts {
        let allowed = baseline.get(file).copied().unwrap_or(0);
        match n.cmp(&allowed) {
            std::cmp::Ordering::Greater => {
                ok = false;
                eprintln!(
                    "ratchet: {file} has {n} panic-prone call(s), baseline allows {allowed} \
                     — prefer Result/Option plumbing over unwrap/expect/panic"
                );
            }
            std::cmp::Ordering::Less => improved += n.abs_diff(allowed),
            std::cmp::Ordering::Equal => {}
        }
    }
    for file in baseline.keys() {
        if !counts.contains_key(file) {
            improved += baseline[file];
        }
    }
    let total: usize = counts.values().sum();
    if ok {
        println!(
            "ratchet: OK — {total} panic-prone call(s) across {} file(s), none above baseline{}",
            counts.len(),
            if improved > 0 {
                format!(" ({improved} below; run `cargo run -p xtask -- lint --update-baseline` to lock in)")
            } else {
                String::new()
            }
        );
    }
    ok
}
