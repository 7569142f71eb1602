#!/usr/bin/env bash
# Run the theorem-ledger conformance harness at the fixed CI seed,
# serially and through the threaded refinement pipeline, and verify the
# two runs report identical per-check statuses. Writes CONFORMANCE.json
# (the serial run's report; `"parallel": false` distinguishes it) and a
# METRICS.json hot-path counter report per mode; the serial and
# parallel metric *key sets* must match (values legitimately differ —
# thread fan-out changes chunk counts, not which metrics exist). It
# also runs the SERVE checks twice and requires equal qlhs.canon_*
# counters in the two runs. At the fixed seed every counter of the
# fresh serial METRICS.json must equal the one it replaces (the
# committed file), so an edit that makes any check draw different
# programs or databases fails here by counter name.
#
# Usage:
#   scripts/conformance.sh                 fixed seed, both modes, diff
#   scripts/conformance.sh --seed 0xbeef   override the seed
#   scripts/conformance.sh --serial-only   skip the parallel pass
#
# No dev-dependencies needed — the conformance crate is offline-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

DEFAULT_SEED=0x5ecdeb0a
SEED=$DEFAULT_SEED
SERIAL_ONLY=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) SEED="$2"; shift 2 ;;
        --serial-only) SERIAL_ONLY=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

OUT=CONFORMANCE.json
PAR_OUT=target/CONFORMANCE.parallel.json
METRICS=METRICS.json
PAR_METRICS=target/METRICS.parallel.json

COMMITTED_METRICS=target/METRICS.committed.json
mkdir -p target
cp "$METRICS" "$COMMITTED_METRICS"

cargo run --release -p recdb-conformance --bin conformance -- \
    --seed "$SEED" --out "$OUT" --metrics-out "$METRICS"

# The counters pin what the ledger runs: at the fixed seed they are a
# pure function of the programs and databases every check draws. Only
# the qlhs.canon_* pair is exempt (it has been seen to flicker by one
# between runs of one binary).
python3 - "$SEED" "$DEFAULT_SEED" "$COMMITTED_METRICS" "$METRICS" <<'PY'
import json, sys

seed, default, committed, fresh = sys.argv[1:5]
if int(seed, 0) != int(default, 0):
    print(f"seed {seed} is not the fixed seed: counters not compared")
    sys.exit(0)
exempt = {"qlhs.canon_hits", "qlhs.canon_misses"}
a, b = (json.load(open(p))["counters"] for p in (committed, fresh))
moved = sorted(k for k in (a.keys() | b.keys()) - exempt if a.get(k) != b.get(k))
for k in moved:
    print(f"  {k}: committed {a.get(k)}, fresh {b.get(k)}", file=sys.stderr)
if moved:
    sys.exit(f"{len(moved)} ledger counters differ from the committed METRICS.json "
             "(the fresh report replaced it; commit it if the change is intended)")
print(f"ledger counters equal the committed METRICS.json ({len(b)} counters)")
PY

# The registry must stay complete: every registered check present, none
# skipped (in particular the permutation differentials — a skipped
# GENERIC-PERM would silently stop validating the genericity pass).
# The expected count is derived from the registry itself, so adding a
# check can never leave this gate stale.
EXPECTED=$(cargo run --release -q -p recdb-conformance --bin conformance -- --list | wc -l)
python3 - "$OUT" "$EXPECTED" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
expected = int(sys.argv[2])
checks = report["checks"]
if len(checks) != expected:
    sys.exit(f"ledger regressed: {len(checks)} checks reported, registry lists {expected}")
skipped = [c["id"] for c in checks if c["status"] == "SKIPPED"]
if skipped:
    sys.exit(f"ledger checks skipped: {', '.join(skipped)}")
print(f"ledger complete: {len(checks)} checks, none skipped")
PY

# The server builds one interpreter per request, so the canonical-rep
# cache counters of the SERVE checks must not depend on which worker
# served what before: two runs must report the same qlhs.canon_* values.
for run in 1 2; do
    cargo run --release -q -p recdb-conformance --bin conformance -- \
        --seed "$SEED" --filter SERVE --out "target/CONFORMANCE.serve$run.json" \
        --metrics-out "target/METRICS.serve$run.json" > /dev/null
done
python3 - target/METRICS.serve1.json target/METRICS.serve2.json <<'PY'
import json, sys

a, b = ({k: v for k, v in json.load(open(p))["counters"].items()
         if k.startswith("qlhs.canon_")} for p in sys.argv[1:3])
if not a:
    sys.exit("the SERVE checks recorded no qlhs.canon_* counter")
if a != b:
    sys.exit(f"qlhs.canon_* differ between two SERVE runs: {a} vs {b}")
print(f"qlhs.canon_* agree across two SERVE runs: {a}")
PY

if [[ "$SERIAL_ONLY" == 1 ]]; then
    echo "serial-only run complete; wrote $OUT and $METRICS"
    exit 0
fi

cargo run --release -p recdb-conformance --features parallel --bin conformance -- \
    --seed "$SEED" --out "$PAR_OUT" --metrics-out "$PAR_METRICS"

python3 - "$OUT" "$PAR_OUT" <<'PY'
import json, sys

serial, parallel = (json.load(open(p)) for p in sys.argv[1:3])
assert serial["parallel"] is False and parallel["parallel"] is True, \
    "feature flags not reflected in the reports"
key = lambda run: [(c["id"], c["status"], c["seed"]) for c in run["checks"]]
a, b = key(serial), key(parallel)
if a != b:
    for x, y in zip(a, b):
        if x != y:
            print(f"  serial {x} vs parallel {y}", file=sys.stderr)
    sys.exit("serial and parallel ledgers disagree")
print(f"serial and parallel ledgers agree ({len(a)} checks)")
PY

# Key-set diff only: values differ across schedules by design.
python3 - "$METRICS" "$PAR_METRICS" <<'PY'
import json, sys

serial, parallel = (json.load(open(p)) for p in sys.argv[1:3])
assert serial["parallel"] is False and parallel["parallel"] is True, \
    "feature flags not reflected in the metrics reports"
keys = lambda m: {f"counter:{k}" for k in m["counters"]} \
    | {f"histogram:{k}" for k in m["histograms"]}
a, b = keys(serial), keys(parallel)
if a != b:
    for k in sorted(a - b):
        print(f"  serial-only metric: {k}", file=sys.stderr)
    for k in sorted(b - a):
        print(f"  parallel-only metric: {k}", file=sys.stderr)
    sys.exit("serial and parallel metric key sets disagree")
print(f"serial and parallel metric key sets agree ({len(a)} keys)")
PY
echo "wrote $OUT, $METRICS"
