//! `servebench` — the closed-loop benchmark of the `recdb-serve` query
//! service, end to end and layer by layer.
//!
//! ```text
//! servebench --workload NAME --seed N|heldout --seconds S --trace 0|1
//! servebench --all [--seed N] [--seconds S]
//! servebench --steady K --workload NAME [--seed N] [--seconds S]
//! servebench --manifest
//! ```
//!
//! `--trace 0` spawns the release `serve` binary (built next to this
//! one) and reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics of the same workload (see `trace.rs`). `--all`
//! runs every workload once; `--steady K` runs one workload K times
//! with seeds N, N+1, … and prints each metric's median and quartile
//! spread next to its bound; `--manifest` prints the `BENCHMARK.json`
//! this program is described by. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod drive;
mod e2e;
mod gen;
mod spec;
mod stats;
mod sys;
mod trace;
mod wire;

use gen::Workload;
use std::path::PathBuf;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as in the manifest).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (as in the manifest).
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: u64,
}

impl Metric {
    /// A metric; non-finite values are reported as 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// Renders the result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    steady: Option<usize>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        all: false,
        steady: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = match v.as_str() {
                    "heldout" => spec::HELDOUT_SEED,
                    _ => v.parse().map_err(|e| format!("--seed: {e}"))?,
                };
            }
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--steady" => a.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?),
            "--all" => a.all = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(a)
}

fn serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no serve binary next to {}", exe.display()))
    }
}

/// One run of one workload: its result line fields.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let env: Vec<String> = sys::environment()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("env: {}", env.join(" "));
    let warmup = gen::warmup()?;
    let started = if trace {
        None
    } else {
        Some(e2e::start(&serve_bin()?, &warmup)?)
    };
    let reqs = gen::generate(w, seed)?;
    eprintln!(
        "{}: {} requests generated from seed {seed} ({})",
        w.name(),
        reqs.len(),
        tag_counts(&reqs)
    );
    let out = if let Some(started) = started {
        let r = e2e::run(started, w, &reqs, seconds)?;
        let o = &r.outcome;
        eprintln!(
            "{}: attempted={} completed={} failed={} error_rate={} mismatches={} violations={} connect_failures={} io_failures={}",
            w.name(),
            o.attempted,
            o.samples.len(),
            o.failed(),
            o.failed() as f64 / o.attempted.max(1) as f64,
            o.mismatches,
            o.violations,
            o.connect_failures,
            o.io_failures
        );
        for e in &o.first_errors {
            eprintln!("  {e}");
        }
        Outcome {
            attempted: o.attempted,
            failed: o.failed(),
            metrics: r.metrics,
        }
    } else {
        trace::run(w, &reqs, &warmup, seconds)?
    };
    for m in &out.metrics {
        eprintln!(
            "  {}/{:<32} {:>14.4} {:<6} (n={})",
            w.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
    Ok(out)
}

fn tag_counts(reqs: &[gen::Req]) -> String {
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in reqs {
        *counts.entry(r.tag).or_default() += 1;
    }
    counts
        .iter()
        .map(|(t, n)| format!("{t}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest());
        return;
    }
    let code = if args.all {
        run_all(&args)
    } else if let Some(k) = args.steady {
        steady(&args, k)
    } else {
        run_single(&args)
    };
    std::process::exit(code);
}

fn run_single(args: &Args) -> i32 {
    let Some(w) = args.workload else {
        eprintln!("servebench: --workload is required");
        return 2;
    };
    match run_one(w, args.seed, args.seconds, args.trace) {
        Ok(o) => {
            println!(
                "{}",
                result_json(o.failed == 0, o.attempted.max(1), o.failed, &o.metrics)
            );
            i32::from(o.failed > 0)
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            1
        }
    }
}

/// Every workload once, each in a fresh process; metrics are
/// prefixed `workload/`.
fn run_all(args: &Args) -> i32 {
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for w in Workload::ALL {
        let line = match run_child(w, args.seed, args.seconds, args.trace) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("servebench: {}: {e}", w.name());
                return 1;
            }
        };
        attempted += number_after(&line, "\"attempted\": ").unwrap_or(0);
        failed += number_after(&line, "\"failed\": ").unwrap_or(1);
        metrics.extend(metric_values(&line).into_iter().map(|(name, v)| {
            let unit = spec::unit(&name);
            Metric::new(format!("{}/{name}", w.name()), v, unit, 1)
        }));
    }
    println!(
        "{}",
        result_json(failed == 0, attempted.max(1), failed, &metrics)
    );
    i32::from(failed > 0)
}

/// Runs one workload in a fresh process started the way the
/// benchmark's runner starts it, and returns its result line. A later
/// run must not inherit the heap of an earlier one: forking the server
/// from a large process slows `setup_s`.
fn run_child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string();
    if metric_values(&line).is_empty() {
        return Err(format!("run printed no result ({})", out.status));
    }
    Ok(line)
}

/// `k` back-to-back runs of one workload with seeds `seed..seed+k`,
/// each in a fresh process: each metric's median and quartile spread
/// next to its bound.
fn steady(args: &Args, k: usize) -> i32 {
    let Some(w) = args.workload else {
        eprintln!("servebench: --steady needs --workload");
        return 2;
    };
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for i in 0..k as u64 {
        let line = match run_child(w, args.seed + i, args.seconds, args.trace) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("servebench: run {i}: {e}");
                return 1;
            }
        };
        let metrics = metric_values(&line);
        attempted += number_after(&line, "\"attempted\": ").unwrap_or(0);
        failed += number_after(&line, "\"failed\": ").unwrap_or(1);
        runs.push(metrics);
    }
    let mut summary = Vec::new();
    println!(
        "{:<28} {:>14} {:>8} {:>8}  verdict",
        "metric", "median", "spread", "bound"
    );
    for (j, (name, _)) in runs[0].iter().enumerate() {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(j).map(|m| m.1)).collect();
        let med = stats::median(&values);
        let spread = stats::spread(&values).unwrap_or(0.0);
        let bound = spec::bound(name);
        let verdict = match bound {
            Some(b) if spread < b / 3.0 => "steady",
            Some(b) if spread <= b => "within bound",
            Some(_) => "TOO NOISY",
            None => "",
        };
        let bound_s = bound.map_or("-".to_string(), |b| format!("{b:.2}"));
        let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{:<28} {med:>14.4} {spread:>8.4} {bound_s:>8}  {verdict:<12} [{}]",
            name,
            each.join(" ")
        );
        let unit = spec::unit(name);
        summary.push(Metric::new(name.clone(), med, unit, k as u64));
    }
    println!(
        "{}",
        result_json(failed == 0, attempted.max(1), failed, &summary)
    );
    i32::from(failed > 0)
}

/// The metric names and values of a result line, in order.
fn metric_values(line: &str) -> Vec<(String, f64)> {
    const KEY: &str = ": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(KEY) {
        let name = rest[..i].rsplit('"').nth(1).unwrap_or("").to_string();
        rest = &rest[i + KEY.len()..];
        let end = rest.find(',').unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse() {
            out.push((name, v));
        }
    }
    out
}

/// The whole number that follows `key` in `line`.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_read_back() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric::new("setup_s", 0.125, "s", 3),
                Metric::new("latency_p50_ms", 1.5e-3, "ms", 3),
            ],
        );
        assert_eq!(
            metric_values(&line),
            vec![("setup_s".into(), 0.125), ("latency_p50_ms".into(), 1.5e-3)]
        );
        assert_eq!(number_after(&line, "\"attempted\": "), Some(12));
        assert_eq!(number_after(&line, "\"failed\": "), Some(0));
    }
}
