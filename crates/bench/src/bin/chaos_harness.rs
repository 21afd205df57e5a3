//! Chaos harness for the serving fleet.
//!
//! Runs the named scenarios of `gddr_serve::scenario` and checks their
//! declarative gates: zero unanswered requests, every routing valid on
//! the topology active when served, bounded p99 ladder depth, recovery
//! after the fault window, plus each scenario's own failover, hedge,
//! shed, breaker, restart and bystander expectations. Every scenario
//! runs **twice** and the two rung, failover and event digests must be
//! bit-identical — determinism is itself an SLO — and the first run is
//! checked against the committed golden row for the same
//! `(name, seed, requests)`, when one exists.
//!
//! Scenarios flagged deliberately broken (`budget_zero`,
//! `replicas_exhausted`, `broken_blackout`, `manifest_lies`) must FAIL
//! their gates: they prove the harness detects violations rather than
//! rubber-stamping. All others must pass.
//!
//! `--scenario` takes `all`, a tag (`controller`, `replication`,
//! `dynamics`, `recovery`, `fleet`) or a comma-separated list of
//! names. A request budget below a scenario's minimum is raised to it.
//!
//! ```text
//! chaos_harness [--scenario all|<tag>|<name>[,<name>...]]
//!               [--seed N] [--requests N] [--out PATH]
//!               [--telemetry PATH] [--postmortem PATH]
//! ```
//!
//! A bounded flight recorder is always installed: the first
//! `slo_alert` (scenarios that burn their error budget must trip one)
//! — or, failing that, the first unexpected violation — dumps the
//! recent event history to `--postmortem` as replayable JSONL.
//!
//! Exits non-zero on any unexpected result and prints the scenario
//! name and seed needed to reproduce it:
//!
//! ```text
//! chaos_harness --scenario worker_panic --seed 42
//! ```

use std::sync::Arc;

use gddr_bench::{flag, parse_args, write_artifact};
use gddr_ser::Json;
use gddr_serve::scenario::{golden_mismatches, run, scenario_seed, select, ScenarioOutcome};
use gddr_telemetry::{FlightRecorder, JsonlSink, Sink, TeeSink};

fn outcome_json(
    outcome: &ScenarioOutcome,
    expected_fail: bool,
    deterministic: bool,
    golden: Option<bool>,
) -> Json {
    Json::obj([
        ("name", Json::Str(outcome.name.clone())),
        ("seed", Json::Num(outcome.seed as f64)),
        ("submitted", Json::Num(outcome.submitted as f64)),
        ("answered", Json::Num(outcome.answered as f64)),
        ("rung_sequence", Json::Str(outcome.rung_sequence.clone())),
        ("shed", Json::Num(outcome.shed as f64)),
        ("worker_restarts", Json::Num(outcome.worker_restarts as f64)),
        (
            "breaker_transitions",
            Json::Num(outcome.breaker_transitions as f64),
        ),
        ("p99_depth", Json::Num(outcome.p99_depth as f64)),
        ("failovers", Json::Num(outcome.failovers as f64)),
        ("hedges", Json::Num(outcome.hedges as f64)),
        ("recoveries", Json::Num(outcome.recoveries as f64)),
        (
            "failover_sequence",
            Json::Str(outcome.failover_sequence.clone()),
        ),
        ("event_sequence", Json::Str(outcome.event_sequence.clone())),
        ("deterministic", Json::Bool(deterministic)),
        ("expected_fail", Json::Bool(expected_fail)),
        ("golden_match", golden.map_or(Json::Null, Json::Bool)),
        (
            "violations",
            Json::Arr(
                outcome
                    .violations
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

fn main() {
    let args = parse_args(&[
        "scenario",
        "seed",
        "requests",
        "out",
        "telemetry",
        "postmortem",
    ]);

    // Always-on flight recorder; a full JSONL stream is teed on top
    // only when --telemetry asks for it.
    let postmortem = args
        .get("postmortem")
        .cloned()
        .unwrap_or_else(|| "results/chaos_postmortem.jsonl".to_string());
    let recorder = Arc::new(FlightRecorder::with_dump(&postmortem, &["slo_alert"]));
    let mut sinks: Vec<Arc<dyn Sink>> = vec![recorder.clone()];
    if let Some(path) = args.get("telemetry") {
        let sink = JsonlSink::create(path).expect("create telemetry file");
        sinks.push(Arc::new(sink));
    }
    gddr_telemetry::install(Arc::new(TeeSink::new(sinks)));

    let scenario_arg = args.get("scenario").map(String::as_str).unwrap_or("all");
    let specs = select(scenario_arg).unwrap_or_else(|e| {
        eprintln!("chaos_harness: {e}");
        std::process::exit(2);
    });
    let base_seed: u64 = flag(&args, "seed", 42);
    let requests: usize = flag(&args, "requests", 48);
    let out = args
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/CHAOS_report.json".to_string());

    // Injected worker panics are expected and supervised; the default
    // hook's backtrace spam would drown the report.
    std::panic::set_hook(Box::new(|_| {}));

    let mut results = Vec::new();
    let mut unexpected: Vec<String> = Vec::new();
    for spec in &specs {
        let name = spec.name;
        let seed = scenario_seed(base_seed, name);
        let expected_fail = spec.expect_fail;
        // Replay-determinism SLO: same seed, same scenario, twice.
        match (run(spec, seed, requests), run(spec, seed, requests)) {
            (Ok(a), Ok(b)) => {
                let deterministic = a.rung_sequence == b.rung_sequence
                    && a.failover_sequence == b.failover_sequence
                    && a.event_sequence == b.event_sequence;
                if !deterministic {
                    unexpected.push(format!(
                        "{name}: same-seed replay diverged ({}/{}/{} vs {}/{}/{})",
                        a.rung_sequence,
                        a.failover_sequence,
                        a.event_sequence,
                        b.rung_sequence,
                        b.failover_sequence,
                        b.event_sequence
                    ));
                }
                let golden = golden_mismatches(&a);
                for m in golden.iter().flatten() {
                    unexpected.push(format!("{name}: golden mismatch, {m}"));
                }
                if expected_fail && a.passed() {
                    unexpected.push(format!(
                        "{name}: deliberately broken scenario passed its SLOs"
                    ));
                }
                if !expected_fail && !a.passed() {
                    for v in &a.violations {
                        unexpected.push(format!("{name}: {v}"));
                    }
                }
                println!(
                    "chaos {name}: {} submitted, {} answered, rungs {}, shed {}, restarts {}, breaker {}, p99 depth {}, failovers {} [{}], hedges {}, recoveries {}, golden {} — {}",
                    a.submitted,
                    a.answered,
                    a.rung_sequence,
                    a.shed,
                    a.worker_restarts,
                    a.breaker_transitions,
                    a.p99_depth,
                    a.failovers,
                    a.failover_sequence,
                    a.hedges,
                    a.recoveries,
                    match &golden {
                        None => "none",
                        Some(m) if m.is_empty() => "match",
                        Some(_) => "MISMATCH",
                    },
                    if expected_fail {
                        if a.passed() { "UNEXPECTED PASS" } else { "failed as designed" }
                    } else if a.passed() && deterministic {
                        "ok"
                    } else {
                        "VIOLATED"
                    }
                );
                let golden = golden.map(|m| m.is_empty());
                results.push(outcome_json(&a, expected_fail, deterministic, golden));
            }
            (Err(e), _) | (_, Err(e)) => {
                unexpected.push(format!("{name}: harness error: {e}"));
            }
        }
    }
    let _ = std::panic::take_hook();

    // Scenarios that burn their whole error budget must leave a
    // postmortem behind whose trigger — and final line — is an
    // slo_alert.
    let mut postmortem_alerts = 0usize;
    if specs.iter().any(|s| s.slo_alert) {
        if !recorder.has_dumped() {
            unexpected.push("no scenario tripped an slo_alert postmortem".to_string());
        } else {
            let text = std::fs::read_to_string(&postmortem).expect("read postmortem");
            match gddr_telemetry::parse_jsonl(&text) {
                Ok(events) => {
                    postmortem_alerts = events
                        .iter()
                        .filter(|e| matches!(e, gddr_telemetry::Event::SloAlert { .. }))
                        .count();
                    if postmortem_alerts == 0 {
                        unexpected.push("postmortem contains no slo_alert event".to_string());
                    }
                    println!(
                        "chaos: postmortem {postmortem} — {} events, {postmortem_alerts} slo_alerts",
                        events.len()
                    );
                }
                Err(e) => {
                    unexpected.push(format!("postmortem does not parse as JSONL events: {e}"))
                }
            }
        }
    }
    if !unexpected.is_empty() {
        // First trigger still wins; this only writes when no slo_alert
        // already did.
        recorder.dump_once("chaos unexpected violation");
    }

    gddr_telemetry::counter_add("chaos.scenarios", specs.len() as u64);
    gddr_telemetry::counter_add("chaos.unexpected", unexpected.len() as u64);

    let artifact = Json::obj([
        ("base_seed", Json::Num(base_seed as f64)),
        ("requests", Json::Num(requests as f64)),
        ("scenarios", Json::Arr(results)),
        (
            "postmortem",
            Json::obj([
                ("path", Json::Str(postmortem.clone())),
                ("dumped", Json::Bool(recorder.has_dumped())),
                ("slo_alerts", Json::Num(postmortem_alerts as f64)),
            ]),
        ),
        (
            "unexpected",
            Json::Arr(
                unexpected
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    write_artifact(&out, &artifact.to_string());
    gddr_telemetry::uninstall();

    if unexpected.is_empty() {
        println!(
            "chaos: {} scenarios behaved as specified (deliberately broken ones failed as designed)",
            specs.len()
        );
    } else {
        for v in &unexpected {
            eprintln!("chaos VIOLATION: {v}");
        }
        eprintln!("reproduce a scenario with:");
        eprintln!("  chaos_harness --scenario <name> --seed {base_seed} --requests {requests}");
        std::process::exit(1);
    }
}
