//! # recdb-obs — observability for the refinement/EF hot paths.
//!
//! The ROADMAP's north star is a system that runs as fast as the
//! hardware allows; this crate is the layer that makes "why is it
//! slow?" answerable. It provides:
//!
//! * the [`Recorder`] trait — counters and value observations
//!   (histograms), with span timers built on top;
//! * a process-global recorder slot ([`install`]/[`uninstall`]) whose
//!   disabled fast path is a single relaxed atomic load, so
//!   instrumented hot paths cost nothing when metrics are off;
//! * [`InMemoryRecorder`] — counters + log₂-bucketed histograms behind
//!   mutexes, snapshot-able into a [`MetricsReport`];
//! * [`MetricsReport`] — hand-rolled JSON (schema `METRICS/v1`, same
//!   writer style as the conformance ledger's `CONFORMANCE.json`) and a
//!   flat-text rendering for terminals.
//!
//! # Semantics contract
//!
//! Instrumentation must never perturb results: recorders only *read*
//! values handed to them, and every instrumented call site is a pure
//! side channel. The `metrics_invariance` suite test pins this —
//! `v_n_r`/`find_r0`/`HsInterp` answers are bit-identical with the
//! recorder installed, absent, and under `--features parallel`.
//!
//! # Metric names
//!
//! Names are `&'static str` in `subsystem.metric` form, e.g.
//! `refine.pairwise_verify_fallbacks` or `ef.memo_hits`. The full
//! catalog lives in DESIGN.md §8 ("Observability"); counter-pinned
//! regression tests assert on deltas of these names, so renaming one
//! is a breaking change caught by `scripts/conformance.sh`'s
//! serial-vs-parallel metrics key diff.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A sink for metric events. Implementations must be cheap and
/// side-effect free with respect to the instrumented computation.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter `name`.
    fn counter(&self, name: &'static str, delta: u64);
    /// Records one sample of `value` into the histogram `name`.
    fn observe(&self, name: &'static str, value: u64);
}

/// Disabled fast-path flag: one relaxed load decides whether any
/// recording work happens at all.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Arc<dyn Recorder>>> = Mutex::new(None);

fn recorder_slot() -> std::sync::MutexGuard<'static, Option<Arc<dyn Recorder>>> {
    // A recorder is never allowed to panic while holding the slot, but
    // a panicking *test* thread may; recover the data either way.
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `r` as the process-global recorder (replacing any previous
/// one) and enables the instrumented fast paths.
pub fn install(r: Arc<dyn Recorder>) {
    *recorder_slot() = Some(r);
    ENABLED.store(true, Ordering::Release);
}

/// Disables recording and removes the global recorder, returning it
/// (so tests can cycle enabled → disabled → enabled).
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::Release);
    recorder_slot().take()
}

/// Is a recorder currently installed?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to counter `name` — no-op (one atomic load) when no
/// recorder is installed.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    if let Some(r) = recorder_slot().as_ref() {
        r.counter(name, delta);
    }
}

/// Records one histogram sample — no-op when no recorder is installed.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    if let Some(r) = recorder_slot().as_ref() {
        r.observe(name, value);
    }
}

/// A span timer: created by [`span`], records elapsed nanoseconds into
/// the histogram it was opened under when dropped.
pub struct SpanTimer {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span timer over histogram `name` (conventionally suffixed
/// `.ns`). When recording is disabled the clock is never read.
pub fn span(name: &'static str) -> SpanTimer {
    SpanTimer {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            observe(self.name, nanos);
        }
    }
}

/// Number of log₂ buckets a histogram keeps (values ≥ 2⁶² share the
/// last bucket).
pub const HIST_BUCKETS: usize = 64;

/// Aggregated samples of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `buckets[i]` counts samples whose bit length is `i` (i.e. in
    /// `[2^(i-1), 2^i)`, with bucket 0 holding the zeros).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `max / mean` — the imbalance ratio, the headline number for
    /// per-worker load histograms (1.0 = perfectly balanced; 0.0 when
    /// empty or all-zero).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.max as f64 / mean
        }
    }
}

/// The standard recorder: counters and histograms in `BTreeMap`s, so
/// reports come out in stable sorted order.
#[derive(Default)]
pub struct InMemoryRecorder {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, HistSnapshot>>,
}

impl InMemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        InMemoryRecorder::default()
    }

    /// A fresh recorder already wrapped for [`install`].
    pub fn shared() -> Arc<Self> {
        Arc::new(InMemoryRecorder::new())
    }

    /// The current value of counter `name` (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        *self.lock_counters().get(name).unwrap_or(&0)
    }

    /// Snapshot of histogram `name`, if it has any samples.
    pub fn histogram(&self, name: &str) -> Option<HistSnapshot> {
        self.lock_hists().get(name).cloned()
    }

    /// Clears all counters and histograms.
    pub fn reset(&self) {
        self.lock_counters().clear();
        self.lock_hists().clear();
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            parallel: false,
            counters: self
                .lock_counters()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: self
                .lock_hists()
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    fn lock_counters(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, u64>> {
        self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_hists(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, HistSnapshot>> {
        self.hists.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Recorder for InMemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        *self.lock_counters().entry(name).or_insert(0) += delta;
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.lock_hists().entry(name).or_default().record(value);
    }
}

/// A frozen metrics report, renderable as `METRICS/v1` JSON or flat
/// text. Produced by [`InMemoryRecorder::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Whether the producing run had the threaded refinement pipeline
    /// (`--features parallel`) active — set by the caller, since the
    /// feature lives in `recdb-hsdb`, not here.
    pub parallel: bool,
    /// Counter values, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots, sorted by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

/// Escapes a string for the inside of a JSON string literal (RFC
/// 8259): quotes, backslashes and every control character. The one
/// escaper of the workspace's hand-written JSON.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl MetricsReport {
    /// Every metric name in the report (counters then histograms,
    /// each sorted) — what the serial-vs-parallel key diff compares.
    pub fn keys(&self) -> Vec<String> {
        self.counters
            .keys()
            .map(|k| format!("counter:{k}"))
            .chain(self.histograms.keys().map(|k| format!("histogram:{k}")))
            .collect()
    }

    /// The `METRICS/v1` JSON document.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("    \"{}\": {v}", esc(k)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {:.3}, \"imbalance\": {:.3}}}",
                    esc(k),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.imbalance(),
                )
            })
            .collect();
        format!
            (
            "{{\n  \"schema\": \"METRICS/v1\",\n  \"parallel\": {},\n  \"counters\": {{\n{}\n  }},\n  \"histograms\": {{\n{}\n  }}\n}}\n",
            self.parallel,
            counters.join(",\n"),
            hists.join(",\n"),
        )
    }

    /// A flat-text rendering for terminals and CI logs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics (parallel={})", self.parallel);
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  {k:<44} {v:>12}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {k:<44} n={} min={} max={} mean={:.1} imbalance={:.2}",
                h.count,
                h.min,
                h.max,
                h.mean(),
                h.imbalance(),
            );
        }
        out
    }

    /// Writes the JSON document to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global recorder slot is process-wide; tests that install
    /// must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _g = serial();
        uninstall();
        assert!(!enabled());
        count("x", 1);
        observe("y", 2);
        let _t = span("z.ns");
    }

    #[test]
    fn install_routes_counts_and_observes() {
        let _g = serial();
        let rec = InMemoryRecorder::shared();
        install(rec.clone());
        count("refine.buckets_probed", 3);
        count("refine.buckets_probed", 4);
        observe("refine.bucket_size", 5);
        observe("refine.bucket_size", 1);
        uninstall();
        count("refine.buckets_probed", 100); // after uninstall: dropped
        assert_eq!(rec.counter_value("refine.buckets_probed"), 7);
        let h = rec.histogram("refine.bucket_size").unwrap();
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 1, 5, 6));
    }

    #[test]
    fn span_records_nanos() {
        let _g = serial();
        let rec = InMemoryRecorder::shared();
        install(rec.clone());
        {
            let _t = span("work.ns");
            std::hint::black_box(41 + 1);
        }
        uninstall();
        let h = rec.histogram("work.ns").unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = HistSnapshot::default();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.count, 6);
        assert!((h.mean() - (1034.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let mut h = HistSnapshot::default();
        for v in [10u64, 10, 10, 10] {
            h.record(v);
        }
        assert!((h.imbalance() - 1.0).abs() < 1e-9);
        h.record(50);
        assert!(h.imbalance() > 2.0);
    }

    #[test]
    fn report_json_and_keys() {
        let rec = InMemoryRecorder::new();
        rec.counter("a.count", 2);
        rec.observe("b.size", 9);
        let mut report = rec.snapshot();
        report.parallel = true;
        let j = report.to_json();
        assert!(j.contains("\"schema\": \"METRICS/v1\""));
        assert!(j.contains("\"parallel\": true"));
        assert!(j.contains("\"a.count\": 2"));
        assert!(j.contains("\"b.size\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(
            report.keys(),
            vec!["counter:a.count".to_string(), "histogram:b.size".into()]
        );
        assert!(report.to_text().contains("a.count"));
    }

    #[test]
    fn snapshot_deltas_support_pinned_tests() {
        // The pattern counter-pinned regression tests use: snapshot,
        // run, snapshot, diff.
        let rec = InMemoryRecorder::new();
        rec.counter("x", 5);
        let before = rec.counter_value("x");
        rec.counter("x", 2);
        assert_eq!(rec.counter_value("x") - before, 2);
    }
}
