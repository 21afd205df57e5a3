#!/usr/bin/env bash
# Perf-regression gate: compare freshly generated BENCH_*.json files
# against the committed baselines in results/.
#
#   tools/check_bench.sh <fresh_dir> [tolerance_pct]
#
# For every BENCH_*.json present in BOTH <fresh_dir> and results/:
#
# - serve_load groups: sustained req/s may not drop more than
#   tolerance_pct below baseline; per-rung p50/p99 drain latency may
#   not rise more than tolerance_pct above baseline (rungs with zero
#   baseline samples are skipped); the identity check must have
#   compared at least one response and found them bit-identical, the
#   chaos checks must hold and the violations list must be empty.
# - harness groups (cargo-bench artifacts with a results[] array):
#   per-case median_ns and p95_ns may not rise more than
#   tolerance_pct above baseline.
#
# Baselines only present on one side are reported and skipped, so the
# gate never blocks on a bench that did not run. Exits non-zero on any
# regression; CI uploads both JSON files as artifacts in that case.
#
# The default tolerance is deliberately generous (50%): CI runners
# vary widely, and the gate exists to catch order-of-magnitude
# regressions and broken invariants, not scheduler noise.

set -euo pipefail

FRESH_DIR="${1:?usage: tools/check_bench.sh <fresh_dir> [tolerance_pct]}"
TOLERANCE="${2:-50}"
BASELINE_DIR="$(dirname "$0")/../results"

python3 - "$FRESH_DIR" "$BASELINE_DIR" "$TOLERANCE" <<'PYEOF'
import glob
import json
import os
import sys

fresh_dir, baseline_dir, tol_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])
tol = tol_pct / 100.0
regressions = []
compared = 0


def check_low(label, base, fresh):
    """fresh may not drop more than tol below base (throughput)."""
    global compared
    compared += 1
    if base > 0 and fresh < base * (1.0 - tol):
        regressions.append(
            f"{label}: {fresh:.0f} fell more than {tol_pct:.0f}% below baseline {base:.0f}"
        )


def check_high(label, base, fresh):
    """fresh may not rise more than tol above base (latency)."""
    global compared
    compared += 1
    if base > 0 and fresh > base * (1.0 + tol):
        regressions.append(
            f"{label}: {fresh:.0f} rose more than {tol_pct:.0f}% above baseline {base:.0f}"
        )


def check_serve_load(name, base, fresh):
    if fresh.get("violations"):
        regressions.append(f"{name}: fresh run reported violations: {fresh['violations']}")
    identity = fresh.get("identity", {})
    if not identity.get("bit_identical", False):
        regressions.append(f"{name}: batched inference no longer bit-identical to per-request")
    if identity.get("checked", 0) <= 0:
        regressions.append(f"{name}: identity check compared no responses")
    chaos = fresh.get("chaos", {})
    if not chaos.get("healthy_shards_stayed_fresh", False):
        regressions.append(f"{name}: chaos blast radius escaped the killed shard")
    if chaos.get("killed_degraded", 0) <= 0:
        regressions.append(f"{name}: killed shard never degraded")
    drill = fresh.get("recovery_drill")
    if drill is not None:
        if not drill.get("warm", False):
            regressions.append(f"{name}: recovery drill did not restore warm")
        if not drill.get("corrupt_cold", False):
            regressions.append(f"{name}: corrupted store was not refused cold")
    check_low(
        f"{name}: throughput req_per_s",
        base["throughput"]["req_per_s"],
        fresh["throughput"]["req_per_s"],
    )
    base_rungs = {r["rung"]: r for r in base.get("rungs", [])}
    for r in fresh.get("rungs", []):
        b = base_rungs.get(r["rung"])
        if b is None or b.get("count", 0) == 0 or r.get("count", 0) == 0:
            continue
        for pct in ("p50_ns", "p99_ns"):
            check_high(f"{name}: {r['rung']} {pct}", b[pct], r[pct])


def check_harness(name, base, fresh):
    base_cases = {r["name"]: r for r in base.get("results", [])}
    for r in fresh.get("results", []):
        b = base_cases.get(r["name"])
        if b is None:
            print(f"note: {name}: case {r['name']} has no baseline, skipped")
            continue
        for metric in ("median_ns", "p95_ns"):
            if metric in b and metric in r:
                check_high(f"{name}: {r['name']} {metric}", b[metric], r[metric])


baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
fresh_seen = {
    os.path.basename(p) for p in glob.glob(os.path.join(fresh_dir, "BENCH_*.json"))
}
for baseline_path in baselines:
    name = os.path.basename(baseline_path)
    fresh_path = os.path.join(fresh_dir, name)
    if name not in fresh_seen:
        print(f"note: {name}: no fresh run in {fresh_dir}, skipped")
        continue
    fresh_seen.discard(name)
    with open(baseline_path) as f:
        base = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    if base.get("group") != fresh.get("group"):
        regressions.append(
            f"{name}: group mismatch ({base.get('group')} vs {fresh.get('group')})"
        )
        continue
    if base.get("group") == "serve_load":
        check_serve_load(name, base, fresh)
    else:
        check_harness(name, base, fresh)
    print(f"compared {name}")
for name in sorted(fresh_seen):
    print(f"note: {name}: fresh result has no committed baseline, skipped")

if regressions:
    print(f"\nPERF GATE FAILED ({len(regressions)} regressions, tolerance {tol_pct:.0f}%):")
    for r in regressions:
        print(f"  REGRESSION {r}")
    sys.exit(1)
print(f"perf gate passed: {compared} metrics within {tol_pct:.0f}% of baseline")
PYEOF
