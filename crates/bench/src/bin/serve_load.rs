//! Fleet load bench: a sharded multi-topology serving fleet under a
//! sustained request stream, with batched GNN inference.
//!
//! Five phases, all checked, each a `fleet`-tagged scenario of
//! `gddr_serve::scenario` served on this bench's fleet settings:
//!
//! 1. **load** — `fleet_load`: ≥100k keyed bimodal requests across 11
//!    zoo-topology shards, every one Fresh, reporting sustained req/s
//!    (requests over the wall time inside `ShardRouter::run`) and
//!    p50/p99 drain latency per ladder rung,
//! 2. **identity** — `fleet_load` at its minimum budget through a
//!    per-request fleet (coalesce 1) and a coalescing fleet; every
//!    shard's rung sequence and routing digest must match (batched GNN
//!    inference is exactly per-request inference, bit for bit),
//! 3. **chaos** — `fleet_blast_radius`: one shard's workers die under
//!    a panic storm with zero restart budget; only that shard may
//!    degrade, every other shard must stay 100% Fresh,
//! 4. **replicated** — `fleet_failover`: a two-replica fleet with a
//!    dying primary: the set must hedge the in-window batches, fail
//!    over to the standby, shadow-probe the demoted primary back to
//!    eligibility, answer every request, and replay bit-identically
//!    under the same seed,
//! 5. **recovery_drill** — `fleet_recovery_drill`: a snapshot-enabled
//!    fleet crashes mid-serve and is rebuilt from its durable store:
//!    the restore must come back warm (first post-restore responses on
//!    the restored LastGood rung, restore wall time reported), and a
//!    corrupted store must degrade to a clean cold start that still
//!    serves.
//!
//! ```text
//! serve_load [--requests N] [--seed N] [--clients N] [--coalesce N]
//!            [--threads N] [--out PATH] [--telemetry PATH]
//!            [--postmortem PATH]
//! ```
//!
//! `--clients` sets the load phase's same-tick clients per shard. A
//! fleet setting the fleet rejects (`--coalesce 0`, `--threads 0`) is
//! reported and exits 2.
//!
//! A bounded [`FlightRecorder`] is always installed (the throughput
//! number is measured with the recorder on — that is the production
//! configuration), auto-dumping a postmortem JSONL to `--postmortem`
//! on the first `slo_alert`; `--telemetry` tees the full event stream
//! to a JSONL file on top. The run also self-checks the streaming HDR
//! histogram: fleet p50/p99 from per-response `latency_ns` must agree
//! with the exact sorted percentiles within one HDR bucket width.
//!
//! Writes `results/BENCH_serve_load.json` (the CI perf gate compares
//! it against the committed baseline via `tools/check_bench.sh`) and
//! exits non-zero on any violation, printing a repro line.

use std::sync::Arc;

use gddr_bench::{flag, parse_args, write_artifact};
use gddr_ser::Json;
use gddr_serve::{
    scenario, FleetConfig, HealthState, Rung, ScenarioOutcome, ScenarioSpec, ShardSpec,
};
use gddr_telemetry::{bucket_width, FlightRecorder, JsonlSink, LogHistogram, Sink, TeeSink};

fn fleet_config(coalesce: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        coalesce_window: coalesce,
        threads,
        admit_chunk: coalesce.max(8),
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// Per-rung response counts and latency percentiles over a run.
fn rung_report(outcome: &ScenarioOutcome) -> Vec<Json> {
    let rungs = [Rung::Fresh, Rung::LastGood, Rung::Ecmp, Rung::ShortestPath];
    rungs
        .iter()
        .map(|rung| {
            let mut lat: Vec<u64> = outcome
                .rung_sequence
                .chars()
                .zip(&outcome.latencies_ns)
                .filter(|&(c, _)| c == rung.letter())
                .map(|(_, &l)| l)
                .collect();
            lat.sort_unstable();
            Json::obj([
                ("rung", Json::Str(rung.name().to_string())),
                ("count", Json::Num(lat.len() as f64)),
                ("p50_ns", Json::Num(percentile(&lat, 0.50) as f64)),
                ("p99_ns", Json::Num(percentile(&lat, 0.99) as f64)),
            ])
        })
        .collect()
}

fn main() {
    let args = parse_args(&[
        "requests",
        "seed",
        "clients",
        "coalesce",
        "threads",
        "out",
        "telemetry",
        "postmortem",
    ]);
    // The flight recorder stays on for every run — the reported
    // throughput is the with-recorder number. A full JSONL stream is
    // teed on top only when asked for.
    let postmortem = args
        .get("postmortem")
        .cloned()
        .unwrap_or_else(|| "results/serve_load_postmortem.jsonl".to_string());
    let recorder = Arc::new(FlightRecorder::with_dump(&postmortem, &["slo_alert"]));
    let mut sinks: Vec<Arc<dyn Sink>> = vec![recorder.clone()];
    if let Some(path) = args.get("telemetry") {
        let sink = JsonlSink::create(path).expect("create telemetry file");
        sinks.push(Arc::new(sink));
    }
    gddr_telemetry::install(Arc::new(TeeSink::new(sinks)));
    let requests: usize = flag(&args, "requests", 100_000);
    let seed: u64 = flag(&args, "seed", 42);
    let clients: usize = flag(&args, "clients", 8);
    let coalesce: usize = flag(&args, "coalesce", 8);
    let threads: usize = flag(&args, "threads", 4);
    let out = args
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_serve_load.json".to_string());

    // Every phase is a named scenario on this bench's fleet settings,
    // served with the raw seed.
    let bench_spec = |name: &str, coalesce: usize| {
        let mut spec = scenario::spec(name).expect("fleet scenario exists");
        spec.fleet = fleet_config(coalesce, threads);
        spec
    };
    let serve = |spec: &ScenarioSpec, requests: usize| {
        scenario::run(spec, seed, requests).unwrap_or_else(|e| {
            eprintln!("serve_load: {}: {e}", spec.name);
            std::process::exit(2);
        })
    };
    let mut violations: Vec<String> = Vec::new();

    // Phase 1: sustained load.
    let mut load_spec = bench_spec("fleet_load", coalesce);
    load_spec.clients_per_tick = clients;
    let shards = load_spec.shards.len();
    println!("serve_load: {requests} requests, {shards} shards, {clients} clients/tick, coalesce {coalesce}, {threads} threads");
    let load = serve(&load_spec, requests);
    violations.extend(load.violations.iter().map(|v| format!("load: {v}")));
    let (total, answered) = (load.submitted, load.answered);
    let elapsed_s = load.serve_ns as f64 / 1e9;
    let req_per_s = answered as f64 / elapsed_s;
    let all_fresh = load
        .rung_sequence
        .chars()
        .all(|c| c == Rung::Fresh.letter());
    println!(
        "serve_load: answered {answered} of {total} in {elapsed_s:.2}s — {req_per_s:.0} req/s, all {}",
        if all_fresh { "Fresh" } else { "NOT fresh" }
    );

    // Streaming-HDR self-check: the log-bucketed histogram the SLO
    // engine keeps must agree with the exact sorted percentiles of the
    // same per-response latencies, within one bucket width (the HDR
    // quantile is a bucket upper bound, so it may only sit above).
    let mut exact = load.latencies_ns.clone();
    let mut hdr = LogHistogram::new();
    for &ns in &exact {
        hdr.record(ns);
    }
    exact.sort_unstable();
    let (hdr_p50, hdr_p99) = (hdr.quantile(0.50), hdr.quantile(0.99));
    let (exact_p50, exact_p99) = (percentile(&exact, 0.50), percentile(&exact, 0.99));
    for (label, est, truth) in [("p50", hdr_p50, exact_p50), ("p99", hdr_p99, exact_p99)] {
        if est < truth || est - truth > bucket_width(truth) {
            violations.push(format!(
                "hdr: {label} estimate {est}ns disagrees with exact {truth}ns by more than one bucket (width {})",
                bucket_width(truth)
            ));
        }
    }
    println!(
        "serve_load: hdr self-check — p50 {hdr_p50}ns / p99 {hdr_p99}ns vs exact {exact_p50}ns / {exact_p99}ns"
    );

    // Phase 2: batched == per-request, bit for bit.
    let identity = |coalesce: usize| serve(&bench_spec("fleet_load", coalesce), 0);
    let (reference, batched) = (identity(1), identity(coalesce.max(2)));
    for run in [&reference, &batched] {
        violations.extend(run.violations.iter().map(|v| format!("identity: {v}")));
    }
    let mut identity_checked = 0usize;
    for (a, b) in reference.shards.iter().zip(&batched.shards) {
        if a.rung_sequence != b.rung_sequence || a.routing_digest != b.routing_digest {
            violations.push(format!(
                "identity: shard {} diverged between batched and per-request inference (rungs {} vs {}, routing digest {:016x} vs {:016x})",
                a.name, a.rung_sequence, b.rung_sequence, a.routing_digest, b.routing_digest
            ));
        } else {
            identity_checked += a.rung_sequence.len();
        }
    }
    let identity_ok = violations.iter().all(|v| !v.starts_with("identity"));
    println!(
        "serve_load: identity check over {identity_checked} responses — {}",
        if identity_ok {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    // Phases 3-5 are the `fleet`-tagged scenarios, run on this bench's
    // fleet settings. The injected panics are expected and supervised
    // — the default hook's backtraces would drown the report.
    std::panic::set_hook(Box::new(|_| {}));
    let drill = |name: &str| {
        let spec = bench_spec(name, coalesce);
        let outcome = serve(&spec, 0);
        (spec, outcome)
    };
    let (blast_spec, blast) = drill("fleet_blast_radius");
    let (rep_spec, rep) = drill("fleet_failover");
    let (_, replay) = drill("fleet_failover");
    let (_, recovery) = drill("fleet_recovery_drill");
    for outcome in [&blast, &rep, &recovery] {
        let name = &outcome.name;
        violations.extend(outcome.violations.iter().map(|v| format!("{name}: {v}")));
    }
    // The shard with injected faults: the one the drill kills.
    let faulted = |spec: &ScenarioSpec| {
        let killed = spec.shards.iter().position(ShardSpec::has_faults);
        killed.expect("drill injects faults")
    };
    let fresh_count = |rungs: &str| rungs.chars().filter(|&c| c == Rung::Fresh.letter()).count();

    // Phase 3: kill one shard's workers; the blast radius must stay
    // inside that shard.
    let killed = &blast.shards[faulted(&blast_spec)];
    let killed_degraded = killed.rung_sequence.len() - fresh_count(&killed.rung_sequence);
    if killed_degraded == 0 {
        violations.push(format!(
            "chaos: killed shard {} never degraded",
            killed.name
        ));
    }
    if killed.alive_workers != 0 {
        violations.push(format!(
            "chaos: killed shard still reports {} live workers",
            killed.alive_workers
        ));
    }
    println!(
        "serve_load: chaos — shard {} degraded {killed_degraded}/{} (health {:?}), others Fresh",
        killed.name,
        killed.rung_sequence.len(),
        killed.health
    );

    // Phase 4: replicated self-healing, run twice: rung and failover
    // sequences are pure functions of the seed.
    let rep_killed = &rep.shards[faulted(&rep_spec)];
    let rep_deterministic = rep.rung_sequence == replay.rung_sequence
        && rep.failover_sequence == replay.failover_sequence;
    if !rep_deterministic {
        violations.push(format!(
            "replicated: same-seed replay diverged (failover sequence [{}] vs [{}])",
            rep.failover_sequence, replay.failover_sequence
        ));
    }
    let rep_killed_fresh_ratio = fresh_count(&rep_killed.rung_sequence) as f64
        / rep_killed.rung_sequence.len().max(1) as f64;
    if rep_killed_fresh_ratio < 0.9 {
        violations.push(format!(
            "replicated: hedging + failover left only {:.0}% of {} Fresh (want >= 90%)",
            rep_killed_fresh_ratio * 100.0,
            rep_killed.name
        ));
    }
    let rep_stats = &rep_killed.stats;
    println!(
        "serve_load: replicated — {}/{} answered, shard {}: {} failovers [{}], {} hedges ({} wins), {} recoveries, {:.0}% Fresh, replay {}",
        rep.answered,
        rep.submitted,
        rep_killed.name,
        rep_stats.failovers,
        rep_stats.failover_sequence(),
        rep_stats.hedges_fired,
        rep_stats.hedge_wins,
        rep_stats.recoveries,
        rep_killed_fresh_ratio * 100.0,
        if rep_deterministic {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    // Phase 5: recovery drill. A snapshot-enabled fleet crashes
    // half-way and restores warm, then restarts from a store with every
    // record torn: a clean cold start that still serves.
    let (warm, cold) = (&recovery.restarts[0], &recovery.restarts[1]);
    let restore_ms = warm.restore_ns as f64 / 1e6;
    let drill_first_rungs = recovery
        .shards
        .iter()
        .zip(&warm.first_tick)
        .map(|(shard, rungs)| format!("{}:{rungs}", shard.name))
        .collect::<Vec<_>>()
        .join(";");
    println!(
        "serve_load: recovery_drill — {} restore in {restore_ms:.1}ms (generation {}), first rungs [{drill_first_rungs}], corrupt store {} ({}), {}/{} answered",
        if warm.warm { "warm" } else { "COLD" },
        warm.generation,
        if cold.warm { "NOT refused" } else { "cold-started" },
        cold.cold_kind,
        recovery.answered,
        recovery.submitted,
    );

    let _ = std::panic::take_hook();

    // The killed shard burns its error budget, so by here the chaos
    // phase must have tripped the always-on recorder into writing a
    // postmortem whose trigger is an slo_alert.
    let mut postmortem_alerts = 0usize;
    if !recorder.has_dumped() {
        violations.push(format!(
            "chaos: killed shard {} never tripped an slo_alert postmortem",
            killed.name
        ));
    } else {
        let text = std::fs::read_to_string(&postmortem).expect("read postmortem");
        match gddr_telemetry::parse_jsonl(&text) {
            Ok(events) => {
                postmortem_alerts = events
                    .iter()
                    .filter(|e| matches!(e, gddr_telemetry::Event::SloAlert { .. }))
                    .count();
                if postmortem_alerts == 0 {
                    violations.push("postmortem contains no slo_alert event".to_string());
                }
                println!(
                    "serve_load: postmortem {postmortem} — {} events, {postmortem_alerts} slo_alerts",
                    events.len()
                );
            }
            Err(e) => violations.push(format!("postmortem does not parse as JSONL events: {e}")),
        }
    }

    gddr_telemetry::counter_add("serve_load.requests", answered as u64);
    gddr_telemetry::counter_add("serve_load.violations", violations.len() as u64);

    let artifact = Json::obj([
        ("group", Json::Str("serve_load".to_string())),
        (
            "meta",
            Json::obj([
                ("bench", Json::Str("serve_load".to_string())),
                ("requests", Json::Num(total as f64)),
                ("shards", Json::Num(shards as f64)),
                ("clients", Json::Num(clients as f64)),
                ("coalesce", Json::Num(coalesce as f64)),
                ("threads", Json::Num(threads as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        ),
        (
            "throughput",
            Json::obj([
                ("req_per_s", Json::Num(req_per_s)),
                ("answered", Json::Num(answered as f64)),
                ("elapsed_ms", Json::Num((load.serve_ns / 1_000_000) as f64)),
            ]),
        ),
        ("rungs", Json::Arr(rung_report(&load))),
        (
            "hdr",
            Json::obj([
                ("p50_ns", Json::Num(hdr_p50 as f64)),
                ("p99_ns", Json::Num(hdr_p99 as f64)),
                ("exact_p50_ns", Json::Num(exact_p50 as f64)),
                ("exact_p99_ns", Json::Num(exact_p99 as f64)),
            ]),
        ),
        (
            "postmortem",
            Json::obj([
                ("path", Json::Str(postmortem.clone())),
                ("dumped", Json::Bool(recorder.has_dumped())),
                ("slo_alerts", Json::Num(postmortem_alerts as f64)),
            ]),
        ),
        (
            "identity",
            Json::obj([
                ("checked", Json::Num(identity_checked as f64)),
                ("bit_identical", Json::Bool(identity_ok)),
            ]),
        ),
        (
            "chaos",
            Json::obj([
                ("killed_shard", Json::Str(killed.name.clone())),
                ("killed_degraded", Json::Num(killed_degraded as f64)),
                (
                    "killed_responses",
                    Json::Num(killed.rung_sequence.len() as f64),
                ),
                (
                    "killed_unhealthy",
                    Json::Bool(killed.health != HealthState::Healthy),
                ),
                (
                    "healthy_shards_stayed_fresh",
                    Json::Bool(blast.violations.iter().all(|v| !v.contains("bystander"))),
                ),
            ]),
        ),
        (
            "replicated",
            Json::obj([
                ("shards", Json::Num(rep.shards.len() as f64)),
                ("replicas_per_shard", Json::Num(2.0)),
                ("answered", Json::Num(rep.answered as f64)),
                ("killed_shard", Json::Str(rep_killed.name.clone())),
                ("failovers", Json::Num(rep_stats.failovers as f64)),
                ("hedges_fired", Json::Num(rep_stats.hedges_fired as f64)),
                ("hedge_wins", Json::Num(rep_stats.hedge_wins as f64)),
                ("recoveries", Json::Num(rep_stats.recoveries as f64)),
                (
                    "failover_sequence",
                    Json::Str(rep_stats.failover_sequence()),
                ),
                ("deterministic", Json::Bool(rep_deterministic)),
                ("killed_fresh_ratio", Json::Num(rep_killed_fresh_ratio)),
            ]),
        ),
        (
            "recovery_drill",
            Json::obj([
                ("warm", Json::Bool(warm.warm)),
                ("generation", Json::Num(warm.generation as f64)),
                ("restore_ms", Json::Num(restore_ms)),
                ("first_rungs", Json::Str(drill_first_rungs.clone())),
                ("corrupt_cold", Json::Bool(!cold.warm)),
                ("cold_kind", Json::Str(cold.cold_kind.to_string())),
                ("submitted", Json::Num(recovery.submitted as f64)),
                ("answered", Json::Num(recovery.answered as f64)),
            ]),
        ),
        (
            "violations",
            Json::Arr(
                violations
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    write_artifact(&out, &artifact.to_string());
    gddr_telemetry::uninstall();

    if violations.is_empty() {
        println!(
            "serve_load: ok ({answered} requests, {:.0} req/s)",
            req_per_s
        );
    } else {
        // Leave a postmortem behind for debugging even when no
        // slo_alert tripped the latch (first trigger still wins).
        recorder.dump_once("serve_load violations");
        for v in &violations {
            eprintln!("serve_load VIOLATION: {v}");
        }
        eprintln!("reproduce with:");
        eprintln!("  serve_load --requests {requests} --seed {seed} --clients {clients} --coalesce {coalesce} --threads {threads}");
        std::process::exit(1);
    }
}
