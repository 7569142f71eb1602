//! Paired servebench comparison: `cargo run -p xtask -- pairs FILE`.
//!
//! `FILE` holds one servebench result per line, each prefixed by the
//! side it measured: `parent <json>` or `change <json>` (blank lines
//! and `#` comments are skipped). The i-th parent run pairs with the
//! i-th change run, so alternate the two sides while measuring. For
//! every end-to-end metric in `BENCHMARK.json` the task prints each
//! side's median and quartiles, the pairs the change won, and a
//! verdict:
//!
//! * `gain` — the change won at least 9 of every 10 pairs and its
//!   median beats the parent's by more than the parent's quartile
//!   distance;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the metric's bound (a fraction of the parent's median);
//! * `unresolved` — either side's quartile distance is wider than the
//!   bound, so the runs cannot tell;
//! * `within bound` — otherwise.
//!
//! It fails when a metric is `worse` or a run was not `correct` or
//! had failed requests.

use crate::bench_ratchet::field;
use std::path::Path;

/// One end-to-end metric row of `BENCHMARK.json`.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The verdict on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Gain,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One servebench result line.
struct Run {
    change: bool,
    ok: bool,
    line: String,
}

/// The end-to-end metrics: the `BENCHMARK.json` rows with a bound.
fn parse_metrics(benchmark: &str) -> Vec<Metric> {
    benchmark
        .lines()
        .filter_map(|line| {
            let (name, better, bound) = (
                field(line, "name")?,
                field(line, "better")?,
                field(line, "bound")?.parse().ok()?,
            );
            Some(Metric {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (side, json) = line.split_once(' ').unwrap_or((line, ""));
        let change = match side {
            "parent" => false,
            "change" => true,
            _ => return Err(format!("line {}: expected `parent` or `change`", i + 1)),
        };
        let ok = field(json, "correct") == Some("true") && field(json, "failed") == Some("0");
        runs.push(Run {
            change,
            ok,
            line: json.to_string(),
        });
    }
    Ok(runs)
}

/// Metric `name`'s `value` in one result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": {{");
    let start = line.find(&tag)? + tag.len();
    field(&line[start..], "value")?.parse().ok()
}

/// The `q`-quantile of sorted values, interpolating linearly.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartiles `[q1, median, q3]`.
fn quartiles(values: impl Iterator<Item = f64>) -> [f64; 3] {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| quantile(&sorted, q))
}

/// Quartiles of the parent's and of the change's side of the pairs.
fn sides(pairs: &[(f64, f64)]) -> ([f64; 3], [f64; 3]) {
    (
        quartiles(pairs.iter().map(|p| p.0)),
        quartiles(pairs.iter().map(|p| p.1)),
    )
}

/// Pairs won by the change, and the verdict, over `(parent, change)`
/// values of one metric.
fn judge(metric: &Metric, pairs: &[(f64, f64)]) -> (usize, Verdict) {
    // How much `b` improves on `a` in the metric's direction.
    let gain = |a: f64, b: f64| if metric.lower_is_better { a - b } else { b - a };
    let wins = pairs.iter().filter(|&&(p, c)| gain(p, c) > 0.0).count();
    let (p, c) = sides(pairs);
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    let verdict = if wins * 10 >= pairs.len() * 9 && gain(p[1], c[1]) > p[2] - p[0] {
        Verdict::Gain
    } else if -gain(p[1], c[1]) > metric.bound * p[1].abs() {
        Verdict::Worse
    } else if spread(p) > metric.bound || spread(c) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (wins, verdict)
}

fn report(metrics: &[Metric], runs: &[Run]) -> Result<bool, String> {
    let side = |change: bool| runs.iter().filter(move |r| r.change == change);
    let (n_parent, n_change) = (side(false).count(), side(true).count());
    if n_parent == 0 || n_parent != n_change {
        return Err(format!(
            "{n_parent} parent and {n_change} change runs: need equal, nonzero counts"
        ));
    }
    let bad = runs.iter().filter(|r| !r.ok).count();
    println!("pairs: {n_parent}; runs not correct or with failed requests: {bad}");
    println!(
        "{:<16} {:>32} {:>32} {:>7}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut ok = bad == 0;
    for m in metrics {
        let mut pairs = Vec::new();
        for (p, c) in side(false).zip(side(true)) {
            match (value(&p.line, &m.name), value(&c.line, &m.name)) {
                (Some(p), Some(c)) => pairs.push((p, c)),
                _ => return Err(format!("a run lacks metric {}", m.name)),
            }
        }
        let (wins, verdict) = judge(m, &pairs);
        let (p, c) = sides(&pairs);
        let show = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
        println!(
            "{:<16} {:>32} {:>32} {:>7}  {}",
            m.name,
            show(p),
            show(c),
            format!("{wins}/{}", pairs.len()),
            verdict.label()
        );
        ok &= verdict != Verdict::Worse;
    }
    Ok(ok)
}

/// Runs the comparison; `false` on a `worse` metric, a bad run, or
/// unreadable input.
pub fn run(root: &Path, file: &Path) -> bool {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let result = read(&root.join("BENCHMARK.json")).and_then(|benchmark| {
        let runs = parse_runs(&read(file)?)?;
        report(&parse_metrics(&benchmark), &runs)
    });
    result.unwrap_or_else(|e| {
        eprintln!("pairs: {e}");
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "latency_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    /// Ten pairs: the parent at `parent[i]`, the change at `parent[i] + delta[i]`.
    fn pairs(parent: &[f64], delta: &[f64]) -> Vec<(f64, f64)> {
        parent
            .iter()
            .zip(delta)
            .map(|(&p, &d)| (p, p + d))
            .collect()
    }

    const PARENT: [f64; 10] = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98];

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_median_past_the_parent_iqr() {
        let m = lower(0.25);
        assert_eq!(judge(&m, &pairs(&PARENT, &[-0.1; 10])), (10, Verdict::Gain));
        // Nine wins still count; eight do not.
        let mut d = [-0.1; 10];
        d[0] = 0.01;
        assert_eq!(judge(&m, &pairs(&PARENT, &d)), (9, Verdict::Gain));
        d[1] = 0.01;
        assert_eq!(judge(&m, &pairs(&PARENT, &d)), (8, Verdict::Within));
        // Every pair won, but by less than the parent's quartile spread.
        assert_eq!(
            judge(&m, &pairs(&PARENT, &[-0.005; 10])),
            (10, Verdict::Within)
        );
    }

    #[test]
    fn the_direction_follows_the_metric() {
        let higher = Metric {
            lower_is_better: false,
            ..lower(0.25)
        };
        assert_eq!(
            judge(&higher, &pairs(&PARENT, &[0.1; 10])),
            (10, Verdict::Gain)
        );
        assert_eq!(
            judge(&higher, &pairs(&PARENT, &[-0.1; 10])),
            (0, Verdict::Within)
        );
        assert_eq!(
            judge(&higher, &pairs(&PARENT, &[-0.3; 10])),
            (0, Verdict::Worse)
        );
    }

    #[test]
    fn worse_past_the_bound_and_unresolved_past_the_spread() {
        assert_eq!(
            judge(&lower(0.25), &pairs(&PARENT, &[0.3; 10])),
            (0, Verdict::Worse)
        );
        assert_eq!(
            judge(&lower(0.25), &pairs(&PARENT, &[0.2; 10])),
            (0, Verdict::Within)
        );
        // The parent's quartiles sit 0.03 apart around 1.0: wider than
        // a 2% bound, so a 1% move cannot be told apart.
        assert_eq!(
            judge(&lower(0.02), &pairs(&PARENT, &[0.01; 10])),
            (0, Verdict::Unresolved)
        );
    }

    #[test]
    fn quartiles_interpolate() {
        let pairs = [(4.0, 1.0), (1.0, 2.0), (3.0, 3.0), (2.0, 4.0), (5.0, 4.0)];
        assert_eq!(sides(&pairs).0, [2.0, 3.0, 4.0]);
        assert_eq!(sides(&pairs[..4]).1, [1.75, 2.5, 3.25]);
    }

    #[test]
    fn reads_benchmark_rows_and_result_lines() {
        let bench = r#"  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25}
  ],
  "per_layer": [
    {"name": "server.connect_ms", "unit": "ms", "better": "lower"}"#;
        let metrics = parse_metrics(bench);
        assert_eq!(metrics.len(), 2);
        assert!(metrics[0].lower_is_better && !metrics[1].lower_is_better);
        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.0134, "unit": "s"}, "throughput_rps": {"value": 1948.86, "unit": "1/s"}}}"#;
        let text = format!(
            "# a comment\nparent {line}\n\nchange {}\n",
            line.replace("\"failed\": 0", "\"failed\": 2")
        );
        let runs = parse_runs(&text).expect("parses");
        assert_eq!((runs[0].change, runs[0].ok), (false, true));
        assert_eq!((runs[1].change, runs[1].ok), (true, false));
        assert_eq!(value(&runs[0].line, "throughput_rps"), Some(1948.86));
        assert_eq!(value(&runs[0].line, "setup_s"), Some(0.0134));
        assert_eq!(value(&runs[0].line, "server_rss_mb"), None);
        assert!(parse_runs("baseline {}").is_err());
    }
}
