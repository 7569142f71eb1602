//! The performance ratchet: pinned speedup ratios for the optimized
//! hot paths.
//!
//! `BENCH_refine.json` carries absolute medians, which are useless as
//! CI gates (runner hardware varies wildly). What *is* stable across
//! machines is the **ratio** between two implementations of the same
//! work measured in the same process — bucketed vs pairwise
//! partitioning, semi-naive vs from-scratch loop evaluation,
//! incremental insertion vs full repartition, a request rejected at
//! admission vs one that evaluates. This task pins
//! those ratios in `BENCH_RATCHET.json`: each entry says "the fast
//! path must stay at least `min_speedup`× faster than the slow path at
//! this size". Baselines are locked at `measured / 2` by
//! `--update-baseline`, so noise cannot trip the gate but losing more
//! than half the win fails CI. An update only adds rows for specs the
//! file lacks; a locked row is never rewritten (to re-lock one on
//! purpose, delete it by hand first), so an update cannot lower a
//! floor a change fell below.

use std::path::Path;

const BASELINE: &str = "BENCH_RATCHET.json";
const INPUT: &str = "BENCH_refine.json";

/// Headroom factor applied when locking a baseline: the gate trips
/// only when a change loses more than half the measured speedup.
const TOLERANCE: f64 = 2.0;

/// One pinned ratio: `slow`'s median over `fast`'s median within
/// `group` at `size`.
struct Spec {
    id: &'static str,
    group: &'static str,
    size: usize,
    slow: &'static str,
    fast: &'static str,
}

/// The ratios under ratchet. The first is the PR-5 partition win; the
/// next two pin the delta engine and the incremental Vⁿᵣ cache; the
/// next pins the register VM's execution win over the AST walker on
/// the same verified straight-line program; the next pins
/// loop fast-forward in the statement executor on a cycling fuel-mode
/// loop, against the same walker declining every skip; the next pins
/// admission against execution through one in-process server on one
/// keep-alive connection — a request rejected at admission must stay
/// well ahead of one that evaluates rank-4 value ops; the last three
/// pin the fused term shapes of the tree walker (semijoin, antijoin,
/// division) against the same ops called one by one, at rank 4.
const SPECS: [Spec; 9] = [
    Spec {
        id: "partition.bucketed.4096",
        group: "E7/partition",
        size: 4096,
        slow: "pairwise",
        fast: "bucketed",
    },
    Spec {
        id: "fixpoint.seminaive.256",
        group: "E7/fixpoint",
        size: 256,
        slow: "scratch",
        fast: "seminaive",
    },
    Spec {
        id: "incr_vnr.insert.4096",
        group: "E7/incr_vnr",
        size: 4096,
        slow: "recompute",
        fast: "insert",
    },
    Spec {
        id: "vm.exec.1024",
        group: "E7/vm",
        size: 1024,
        slow: "ast",
        fast: "vm",
    },
    Spec {
        id: "exec.cycle",
        group: "E7/exec",
        size: 1_000_000,
        slow: "cycle_noskip",
        fast: "cycle",
    },
    Spec {
        id: "serve.reject.10",
        group: "E7/serve",
        size: 10,
        slow: "exec",
        fast: "reject",
    },
    Spec {
        id: "ops.semijoin.4",
        group: "E7/ops",
        size: 4,
        slow: "up_and",
        fast: "semijoin",
    },
    Spec {
        id: "ops.antijoin.4",
        group: "E7/ops",
        size: 4,
        slow: "not_and",
        fast: "antijoin",
    },
    Spec {
        id: "ops.division.4",
        group: "E7/ops",
        size: 4,
        slow: "not_down",
        fast: "division",
    },
];

/// Extracts a `"key": value` field from a one-point-per-line JSON row
/// (both files are machine-written, so line-shape parsing is exact,
/// mirroring the lint ratchet's reader; `pairs` reads servebench
/// results and `BENCHMARK.json` the same way).
pub(crate) fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `(group, bench, size) → median_ns` from `BENCH_refine.json`.
fn parse_points(text: &str) -> Vec<(String, String, usize, u128)> {
    let mut points = Vec::new();
    for line in text.lines() {
        let (Some(group), Some(bench), Some(size), Some(ns)) = (
            field(line, "group"),
            field(line, "bench"),
            field(line, "size"),
            field(line, "median_ns"),
        ) else {
            continue;
        };
        if let (Ok(size), Ok(ns)) = (size.parse(), ns.parse()) {
            points.push((group.to_string(), bench.to_string(), size, ns));
        }
    }
    points
}

/// `id → min_speedup` rows of `BENCH_RATCHET.json`.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(id), Some(min)) = (field(line, "id"), field(line, "min_speedup")) else {
            continue;
        };
        if let Ok(min) = min.parse() {
            out.push((id.to_string(), min));
        }
    }
    out
}

fn median_of(points: &[(String, String, usize, u128)], spec: &Spec, bench: &str) -> Option<u128> {
    points
        .iter()
        .find(|(g, b, s, _)| g == spec.group && b == bench && *s == spec.size)
        .map(|&(_, _, _, ns)| ns)
}

/// Measured speedups for every spec, from `BENCH_refine.json`.
fn measure(root: &Path) -> Result<Vec<(&'static Spec, f64)>, String> {
    let text = std::fs::read_to_string(root.join(INPUT)).map_err(|e| {
        format!("bench-ratchet: cannot read {INPUT}: {e} — run scripts/bench_refine.sh first")
    })?;
    let points = parse_points(&text);
    let mut out = Vec::new();
    for spec in &SPECS {
        let median = |bench: &str| {
            median_of(&points, spec, bench).ok_or_else(|| {
                format!(
                    "bench-ratchet: {INPUT} has no {}/{bench} point at size {}",
                    spec.group, spec.size
                )
            })
        };
        let (slow, fast) = (median(spec.slow)?, median(spec.fast)?);
        if fast == 0 {
            return Err(format!("bench-ratchet: zero median for {}", spec.id));
        }
        out.push((spec, slow as f64 / fast as f64));
    }
    Ok(out)
}

/// One locked `BENCH_RATCHET.json` row.
fn render_row(spec: &Spec, speedup: f64) -> String {
    let min = (speedup / TOLERANCE).max(1.0);
    format!(
        "    {{\"id\": \"{}\", \"group\": \"{}\", \"size\": {}, \"slow\": \"{}\", \
         \"fast\": \"{}\", \"locked_at\": {:.1}, \"min_speedup\": {:.1}}}",
        spec.id, spec.group, spec.size, spec.slow, spec.fast, speedup, min
    )
}

/// A whole `BENCH_RATCHET.json` holding `rows`.
fn render_baseline(rows: &[String]) -> String {
    let mut s = String::from("{\n  \"schema\": \"BENCH_RATCHET/v1\",\n");
    s.push_str(&format!(
        "  \"policy\": \"min_speedup = measured / {TOLERANCE} at lock time; \
         ratios are machine-stable, absolute ns are not\",\n"
    ));
    s.push_str("  \"ratchets\": [\n");
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// `existing` with `rows` appended to its `ratchets` array; every
/// other byte is kept. `None` when the file has no array close
/// (`\n  ]`) to append before.
fn add_rows(existing: &str, rows: &[String]) -> Option<String> {
    let (head, tail) = existing.split_at(existing.rfind("\n  ]")?);
    let sep = if head.ends_with('}') { ",\n" } else { "\n" };
    Some(format!("{head}{sep}{}{tail}", rows.join(",\n")))
}

/// Locks a row for every measured spec `BENCH_RATCHET.json` lacks
/// (all of them when the file does not exist yet).
fn lock_missing(path: &Path, measured: &[(&'static Spec, f64)]) -> Result<(), String> {
    let existing = std::fs::read_to_string(path).ok();
    let locked = parse_baseline(existing.as_deref().unwrap_or_default());
    let missing: Vec<&(&Spec, f64)> = measured
        .iter()
        .filter(|(spec, _)| !locked.iter().any(|(id, _)| id == spec.id))
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    let rows: Vec<String> = missing.iter().map(|(s, x)| render_row(s, *x)).collect();
    let text = match existing {
        None => render_baseline(&rows),
        Some(t) => add_rows(&t, &rows)
            .ok_or_else(|| format!("bench-ratchet: {BASELINE} has no ratchets array to extend"))?,
    };
    std::fs::write(path, text)
        .map_err(|e| format!("bench-ratchet: cannot write {BASELINE}: {e}"))?;
    for (spec, speedup) in missing {
        println!(
            "bench-ratchet: locked {} at {:.1}x (min {:.1}x)",
            spec.id,
            speedup,
            (speedup / TOLERANCE).max(1.0)
        );
    }
    Ok(())
}

/// Runs the perf ratchet; returns `true` when every pinned ratio
/// holds. `update` first locks rows for the specs the baseline lacks.
pub fn run(root: &Path, update: bool) -> bool {
    let measured = match measure(root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let baseline_path = root.join(BASELINE);
    if update || !baseline_path.exists() {
        if let Err(e) = lock_missing(&baseline_path, &measured) {
            eprintln!("{e}");
            return false;
        }
    }
    let baseline = parse_baseline(&std::fs::read_to_string(&baseline_path).unwrap_or_default());
    let mut ok = true;
    for (spec, speedup) in &measured {
        let Some(&(_, min)) = baseline.iter().find(|(id, _)| id == spec.id) else {
            eprintln!(
                "bench-ratchet: {} missing from {BASELINE} — run with --update-baseline",
                spec.id
            );
            ok = false;
            continue;
        };
        if *speedup < min {
            eprintln!(
                "bench-ratchet: {} regressed — {:.1}x measured, baseline requires ≥{:.1}x",
                spec.id, speedup, min
            );
            ok = false;
        } else {
            println!(
                "bench-ratchet: {} OK — {:.1}x (≥{:.1}x required)",
                spec.id, speedup, min
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape_parsers_roundtrip() {
        let point = r#"    {"group": "E7/fixpoint", "bench": "seminaive", "size": 256, "median_ns": 9358883},"#;
        let parsed = parse_points(point);
        assert_eq!(
            parsed,
            vec![("E7/fixpoint".into(), "seminaive".into(), 256, 9358883)]
        );
        let rows: Vec<String> = SPECS.iter().map(|s| render_row(s, 10.0)).collect();
        let rendered = render_baseline(&rows);
        let baseline = parse_baseline(&rendered);
        assert_eq!(baseline.len(), SPECS.len());
        for (_, min) in baseline {
            assert!((min - 5.0).abs() < 1e-9, "min_speedup = measured/2");
        }
    }

    /// Writes every spec's slow/fast points into `BENCH_refine.json`.
    fn write_points(dir: &Path, fast_ns: u64) {
        let mut points = String::new();
        for spec in &SPECS {
            for (bench, ns) in [(spec.slow, 100), (spec.fast, fast_ns)] {
                points.push_str(&format!(
                    "{{\"group\": \"{}\", \"bench\": \"{bench}\", \"size\": {}, \"median_ns\": {ns}}}\n",
                    spec.group, spec.size
                ));
            }
        }
        std::fs::write(dir.join(INPUT), points).expect("write input");
    }

    #[test]
    fn speedup_below_minimum_is_detected() {
        let dir = std::env::temp_dir().join("bench_ratchet_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        write_points(&dir, 50);
        // First run locks 2.0x/2 = 1.0x minimums.
        assert!(run(&dir, true));
        assert!(run(&dir, false), "2.0x clears the 1.0x bar");
        // Degrade the fast paths below the bar.
        write_points(&dir, 200);
        assert!(!run(&dir, false), "0.5x must fail the 1.0x bar");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_adds_missing_rows_and_keeps_locked_ones() {
        let dir = std::env::temp_dir().join("bench_ratchet_update_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        write_points(&dir, 50);
        // Every spec but the last is locked, the first by hand at a
        // value no measurement would give; formatting quirks included.
        let (locked, last) = SPECS.split_at(SPECS.len() - 1);
        let mut rows = vec![format!(
            "    {{\"id\": \"{}\",  \"min_speedup\": 1.5, \"note\": \"hand-locked\"}}",
            locked[0].id
        )];
        rows.extend(locked[1..].iter().map(|s| render_row(s, 3.0)));
        let before = format!(
            "{{\n  \"schema\": \"BENCH_RATCHET/v1\",\n  \"ratchets\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write(dir.join(BASELINE), &before).expect("write baseline");
        assert!(run(&dir, true), "2.0x clears every floor");
        let after = std::fs::read_to_string(dir.join(BASELINE)).expect("read baseline");
        let (head, tail) = before.split_at(before.rfind("\n  ]").unwrap());
        let added = format!(",\n{}", render_row(&last[0], 2.0));
        assert_eq!(
            after,
            format!("{head}{added}{tail}"),
            "locked rows kept byte for byte"
        );
        // A second update finds nothing missing and writes nothing.
        assert!(run(&dir, true));
        let again = std::fs::read_to_string(dir.join(BASELINE)).expect("read baseline");
        assert_eq!(again, after);
        std::fs::remove_dir_all(&dir).ok();
    }
}
