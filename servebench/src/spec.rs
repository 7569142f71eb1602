//! What the benchmark measures and promises: workloads, metrics,
//! bounds and seeds. `BENCHMARK.json` at the repository root is
//! rendered from this module (`servebench --manifest`), and a test
//! keeps the two identical.

use crate::gen::{Workload, MIX_TAGS};

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, held out from tuning, for checking that conclusions
/// do not depend on the default one.
pub const HELDOUT_SEED: u64 = 0x5ecd_eb0b;
/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

/// Why each workload is in the benchmark: what it loads and bypasses.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::MixKeepalive => {
            "loadgen's 11-class mix on keep-alive connections: loads http framing (today's stall), \
             proto, admit, vm and cache hits; bypasses connect cost and heavy execution"
        }
        Workload::AdmitUnique => {
            "a distinct seeded QL or RA program per fresh connection: loads server connect, ra, \
             admit and vm; every cache lookup misses and pays its insert"
        }
        Workload::ValueJoin => {
            "RA join/diff and QL up/swap/& queries on |D|=10 graphs, above the canonicalization \
             limit: loads the qlhs value ops; bypasses the cache"
        }
        Workload::FuelLoop => {
            "fuel-mode while loops over values of at most 5 tuples, budgets of about 5 ms each: \
             loads exec/vm dispatch and fuel ticks; bypasses the cache and heavy value ops"
        }
    }
}

/// End-to-end metrics: name, unit, bound (the share of the parent's
/// median by which a later change may worsen it).
///
/// The timing metrics carry the widest bound the benchmark may set: on
/// a small shared host the same CPU work takes up to 50% longer from
/// one minute to the next. Scaling by the host probe (see `e2e.rs`)
/// takes out about half of that; per-window medians absorb bursts.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("latency_p50_ms", "ms", 0.25),
    ("latency_p90_ms", "ms", 0.25),
    ("throughput_rps", "1/s", 0.25),
    ("server_rss_mb", "MiB", 0.2),
];

/// Does a smaller value of this end-to-end metric mean better?
pub fn lower_is_better(name: &str) -> bool {
    name != "throughput_rps"
}

/// The unit of a metric (end-to-end or per-layer); `""` if unknown.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, u, _)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
        .unwrap_or("")
}

/// The bound of an end-to-end metric.
pub fn bound(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, _, b)| b)
}

/// The value ops timed in the replay, in `VmBackend` order.
pub const OPS: [&str; 8] = ["e", "rel", "const", "and", "not", "up", "down", "swap"];

/// Per-layer metrics (traced run): name and unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("server.connect_ms", "ms"),
        ("unattributed_ms", "ms"),
        ("serve.request_ms", "ms"),
        ("serve.stage.admit_us", "us"),
        ("serve.stage.vm_us", "us"),
        ("serve.stage.execute_us", "us"),
        ("http.frame_us", "us"),
        ("proto.decode_us", "us"),
        ("proto.render_us", "us"),
        ("ra.compile_us", "us"),
        ("admit.us", "us"),
        ("admit.reject_ratio", "ratio"),
        ("vm.compile_verify_us", "us"),
        ("vm.fallback_ratio", "ratio"),
        ("cache.canonicalize_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("cache.bypass_ratio", "ratio"),
        ("exec.self_us", "us"),
        ("exec.iterations_per_req", "count"),
        ("exec.fuel_per_req", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for op in OPS {
        m.push((format!("qlhs.op.{op}.us"), "us"));
        m.push((format!("qlhs.op.{op}.count"), "count"));
    }
    m.push(("qlhs.walker_eval.us".into(), "us"));
    m.push(("qlhs.tuples_per_req".into(), "count"));
    for tag in MIX_TAGS {
        m.push((format!("class.{tag}.p50_ms"), "ms"));
    }
    m.push(("trace.overhead_ms".into(), "ms"));
    m
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b)| {
            let better = if lower_is_better(n) { "lower" } else { "higher" };
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{better}\", \"bound\": {b}}}"
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(n, u)| {
            let better = if n.ends_with("hit_ratio") {
                "higher"
            } else {
                "lower"
            };
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"servebench/run.sh\"],\n  \"paths\": [\"servebench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `servebench --manifest`"
        );
    }

    #[test]
    fn manifest_respects_the_limits() {
        for w in Workload::ALL {
            assert!(why(w).len() <= 200, "{}: why too long", w.name());
            assert!(!why(w).contains('"') && !why(w).contains('\n'));
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|&(_, _, b)| b > 0.0 && b <= 0.25));
        let max = END_TO_END.iter().map(|e| e.2).fold(0.0, f64::max);
        assert_eq!(
            bound("setup_s"),
            Some(max),
            "setup_s carries the largest bound"
        );
        assert_ne!(DEFAULT_SEED, HELDOUT_SEED);
    }
}
