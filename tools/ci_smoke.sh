#!/usr/bin/env bash
# One CI smoke leg, runnable locally too:
#
#   tools/ci_smoke.sh <telemetry|resume|fuzz|robustness|chaos|serve_load|trace|failover|scenario|recovery>
#
# Every leg assumes the release build already exists (CI restores it
# from the shared cache; locally run `cargo build --release --offline`
# first — the cargo invocations below only relink if needed).
# Artifacts land in ci_artifacts/ so CI can upload them on failure.

set -euo pipefail

LEG="${1:?usage: tools/ci_smoke.sh <telemetry|resume|fuzz|robustness|chaos|serve_load|trace|failover|scenario|recovery>}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ART="$ROOT/ci_artifacts"
mkdir -p "$ART"
cd "$ROOT"

run() {
  cargo run --release --offline -p gddr-bench --bin "$@"
}

case "$LEG" in
  telemetry)
    # Seeded training with a JSONL sink, then validate the trace.
    run fig7_learning_curves -- \
      --steps 512 --seed 0 --seq-len 10 --cycle 5 --telemetry "$ART/trace.jsonl"
    run telemetry_check -- --file "$ART/trace.jsonl"
    ;;
  resume)
    # Kill-and-resume checkpoint determinism.
    run resume_check -- \
      --steps 96 --seed 7 --halt-updates 2 --dir "$ART/resume_check"
    ;;
  fuzz)
    # Fixed seeds, invariants + differential references.
    run fuzz_harness -- \
      --targets ci --seeds 30 --size 12 --budget-ms 30000 \
      --out "$ART/fuzz_report.json" --replay-out "$ART/fuzz_counterexample.json"
    ;;
  robustness)
    # Fixed-seed link-failure sweep.
    run robustness_sweep -- \
      --steps 512 --seed 0 --max-failures 3 --episodes 3 \
      | tee "$ART/robustness_sweep.csv"
    ;;
  chaos)
    # Single-controller serving SLOs under seeded faults (the
    # `controller`-tagged scenarios), then validate the serve-mode
    # telemetry trace (shard-tagged events round-trip). budget_zero
    # burns its error budget, so the flight recorder must leave an
    # slo_alert postmortem behind — uploaded with the artifacts.
    run chaos_harness -- \
      --scenario controller --seed 42 --requests 48 \
      --out "$ART/chaos_report.json" --telemetry "$ART/chaos_events.jsonl" \
      --postmortem "$ART/chaos_postmortem.jsonl"
    run telemetry_check -- --file "$ART/chaos_events.jsonl" --mode serve
    ;;
  serve_load)
    # Sharded fleet under ≥100k requests with batched GNN inference,
    # then gate sustained req/s and per-rung latency against the
    # committed baseline in results/.
    run serve_load -- \
      --requests 100000 --seed 42 --out "$ART/BENCH_serve_load.json"
    cp results/BENCH_serve_load.json "$ART/BENCH_serve_load.baseline.json"
    bash tools/check_bench.sh "$ART" "${BENCH_TOLERANCE_PCT:-50}"
    ;;
  trace)
    # Request-scoped tracing end to end: a seeded fleet run with a
    # full JSONL stream, the trace-mode validity gate, and the
    # waterfall report with its ≥99% completeness gate.
    run serve_load -- \
      --requests 4000 --seed 42 --out "$ART/BENCH_serve_load_trace.json" \
      --telemetry "$ART/fleet_trace.jsonl" \
      --postmortem "$ART/serve_load_postmortem.jsonl"
    run telemetry_check -- --file "$ART/fleet_trace.jsonl" --mode trace
    run fleet_report -- \
      --trace "$ART/fleet_trace.jsonl" --min-complete 0.99 \
      --out "$ART/FLEET_report.json"
    ;;
  failover)
    # Replicated self-healing under seeded chaos: primary kills,
    # hedged stragglers, rolling retools under live traffic, and a
    # flapping replica — every scenario replayed twice with
    # bit-identical rung AND failover sequences, zero unanswered
    # requests, and a ≥90% Fresh recovery window after the
    # primary-kill failover. replicas_exhausted is deliberately
    # broken (zero restart budget on every replica) and must fail;
    # its slo_alert postmortem is uploaded with the artifacts. The
    # serve-mode telemetry gate then checks the failover /
    # hedge_fired / replica_recovered event streams against their
    # counters.
    run chaos_harness -- \
      --scenario replication --seed 42 --requests 48 \
      --out "$ART/failover_report.json" --telemetry "$ART/failover_events.jsonl" \
      --postmortem "$ART/failover_postmortem.jsonl"
    run telemetry_check -- --file "$ART/failover_events.jsonl" --mode serve
    ;;
  scenario)
    # Live-dynamics scenario engine: every dynamic scenario (diurnal
    # flash crowd, rolling maintenance, flap storm, a 400-node WAN
    # under live drains) replayed twice with bit-identical event, rung
    # AND failover sequences and zero unanswered requests.
    # broken_blackout is deliberately broken and must fail; its
    # slo_alert postmortem is uploaded with the artifacts. Then a
    # cheap single-regime scenario_sweep replay (flap_storm needs no
    # in-process training) regenerates the quality-vs-reference side.
    run chaos_harness -- \
      --scenario dynamics --seed 42 --requests 88 \
      --out "$ART/scenario_report.json" --telemetry "$ART/scenario_events.jsonl" \
      --postmortem "$ART/scenario_postmortem.jsonl"
    run telemetry_check -- --file "$ART/scenario_events.jsonl" --mode serve \
      --relax breaker_transition,worker_restart,request_shed,health_transition
    run scenario_sweep -- \
      --regimes flap_storm --eval-steps 4 --seed 42 \
      --out "$ART/BENCH_scenario_sweep.json"
    ;;
  recovery)
    # Crash-consistent fleet state: crash/restore at the half-way
    # tick (warm restart on the restored LastGood rung), a corruption
    # sweep (torn prefixes, bit flips, missing record/manifest — every
    # case a typed cold start), and the deliberately broken
    # manifest_lies (a stale record under an intact manifest is
    # detected as ManifestMismatch but the scenario demands warm, so
    # it must fail). Each replays twice with bit-identical event, rung
    # AND failover sequences. The serve-mode telemetry gate then
    # checks snapshot_written / recovery events against their store.*
    # counters, and the snapshot_decode fuzz target hammers the record
    # codec with mutations that must all be typed StoreErrors.
    run chaos_harness -- \
      --scenario recovery --seed 42 --requests 48 \
      --out "$ART/recovery_report.json" --telemetry "$ART/recovery_events.jsonl" \
      --postmortem "$ART/recovery_postmortem.jsonl"
    run telemetry_check -- --file "$ART/recovery_events.jsonl" --mode serve \
      --relax breaker_transition,worker_restart,request_shed,health_transition
    run fuzz_harness -- \
      --targets snapshot_decode --seeds 30 --size 12 \
      --out "$ART/snapshot_fuzz_report.json" \
      --replay-out "$ART/snapshot_fuzz_counterexample.json"
    ;;
  *)
    echo "unknown smoke leg '$LEG'" >&2
    exit 2
    ;;
esac
