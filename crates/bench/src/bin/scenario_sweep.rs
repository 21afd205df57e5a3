//! Scenario sweep: extends the Fig. 8 generalisation study across the
//! live-dynamics traffic regimes of the scenario engine.
//!
//! For each regime the sweep reports two complementary views:
//!
//! - **routing quality** — the mean and max `U_agent / U_ref` ratio of
//!   the policy's softmin routing over the regime's demand sequence.
//!   At zoo scale (cesnet) the reference is the exact LP optimum
//!   (`"lp_opt"`), matching fig8. On the synthetic hierarchical WANs
//!   (100 and 400 nodes) the LP is intractable, so the reference is
//!   unit-weight shortest-path routing (`"sp_routing"`) — ratios are
//!   then comparative, not optimality gaps, and the JSON labels them
//!   as such.
//! - **serve-side behaviour** — the matching `dynamics` chaos scenario
//!   ([`gddr_serve::scenario::run`]) is run under the
//!   fleet and its p99 ladder-rung depth, answered/submitted counts
//!   and applied-event digest are recorded.
//!
//! The cesnet regimes use a policy PPO-trained in-process (like
//! `robustness_sweep`); the WAN regimes use an untrained policy of the
//! same shape the serving engines deploy — policies are
//! topology-shaped (`memory·n²` inputs), so a zoo-trained MLP cannot
//! transfer to a 400-node WAN.
//!
//! ```text
//! cargo run -p gddr-bench --release --bin scenario_sweep -- \
//!     [--regimes diurnal_flash_crowd,big_wan_drain] [--steps 1200] \
//!     [--eval-steps 16] [--requests 88] [--seed 42] [--out PATH]
//! ```
//!
//! Writes `results/BENCH_scenario_sweep.json` and exits non-zero if
//! any ratio is non-finite, an LP-referenced regime dips below 1, or
//! a serve-side scenario violates its SLOs.

use gddr_bench::{flag, parse_args, write_artifact};
use gddr_core::env::{standard_sequences, DdrEnv, DdrEnvConfig, GraphContext};
use gddr_core::policies::MlpPolicy;
use gddr_lp::CachedOracle;
use gddr_net::topology::hierarchical::hierarchical_wan_sized;
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rl::{FaultTolerance, Ppo, PpoConfig, TrainingLog};
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_routing::baselines::shortest_path_routing;
use gddr_routing::sim::max_link_utilisation;
use gddr_routing::softmin::softmin_routing;
use gddr_ser::Json;
use gddr_serve::engine::{InferenceEngine, PolicyEngine};
use gddr_serve::scenario::{self, scenario_seed};
use gddr_serve::{EpochRequest, DEFAULT_DEADLINE_MS};
use gddr_telemetry::Reporter;
use gddr_traffic::gen::BimodalParams;
use gddr_traffic::scenario::{
    diurnal_flash_crowd, elephant_mice, ElephantMiceParams, FlashCrowdParams,
};
use gddr_traffic::sequence::noisy_cyclical;
use gddr_traffic::DemandMatrix;

/// What `U_agent` is measured against.
enum Reference {
    /// Exact multi-commodity-flow optimum (zoo scale only).
    LpOpt(Box<CachedOracle>),
    /// Unit-weight shortest-path routing (big WANs, where the LP is
    /// intractable).
    SpRouting,
}

impl Reference {
    fn label(&self) -> &'static str {
        match self {
            Reference::LpOpt(_) => "lp_opt",
            Reference::SpRouting => "sp_routing",
        }
    }
}

/// One regime's quality-side definition.
struct Regime {
    name: &'static str,
    graph: Graph,
    demands: Vec<DemandMatrix>,
    reference: Reference,
    policy: MlpPolicy,
    policy_label: &'static str,
    memory: usize,
}

/// Mean and max `U_agent / U_ref` over the regime's demand sequence,
/// serving each matrix through the same engine path the fleet uses.
fn quality_sweep(regime: &Regime) -> (f64, f64) {
    let env_cfg = DdrEnvConfig {
        memory: regime.memory,
        ..DdrEnvConfig::default()
    };
    let mut engine = PolicyEngine::new(regime.policy.clone(), &regime.graph, regime.memory);
    let sp = match regime.reference {
        Reference::SpRouting => Some(shortest_path_routing(
            &regime.graph,
            &vec![1.0; regime.graph.num_edges()],
        )),
        Reference::LpOpt(_) => None,
    };
    let mut history: Vec<DemandMatrix> = Vec::new();
    let mut ratio_sum = 0.0;
    let mut ratio_max = 0.0f64;
    for (i, dm) in regime.demands.iter().enumerate() {
        let req = EpochRequest {
            epoch: i as u64,
            demands: dm.clone(),
            deadline_ms: DEFAULT_DEADLINE_MS,
        };
        let reply = engine.infer(&req, &history);
        let weights = env_cfg
            .try_action_to_weights(&reply.action, regime.graph.num_edges())
            .expect("policy action has the right arity");
        let routing = softmin_routing(&regime.graph, &weights, &env_cfg.softmin)
            .expect("softmin routing on a connected graph");
        let u_agent = max_link_utilisation(&regime.graph, &routing, dm)
            .expect("agent routing covers all commodities")
            .u_max;
        let u_ref = match (&regime.reference, &sp) {
            (Reference::LpOpt(oracle), _) => oracle.u_opt(dm).expect("LP solves at zoo scale"),
            (Reference::SpRouting, Some(sp)) => {
                max_link_utilisation(&regime.graph, sp, dm)
                    .expect("sp routing covers all commodities")
                    .u_max
            }
            (Reference::SpRouting, None) => unreachable!(),
        };
        let ratio = if u_ref > 0.0 { u_agent / u_ref } else { 1.0 };
        ratio_sum += ratio;
        ratio_max = ratio_max.max(ratio);
        history.push(dm.clone());
        if history.len() > regime.memory {
            history.remove(0);
        }
    }
    (ratio_sum / regime.demands.len() as f64, ratio_max)
}

/// Trains the cesnet policy the zoo-scale regimes evaluate, exactly
/// like `robustness_sweep` but without failure injection.
fn train_cesnet_policy(g: &Graph, steps: usize, seed: u64, reporter: &Reporter) -> MlpPolicy {
    let mut rng = StdRng::seed_from_u64(seed);
    let train_seqs = standard_sequences(g, 2, 10, 5, &mut rng);
    let env_cfg = DdrEnvConfig {
        memory: 2,
        ..DdrEnvConfig::default()
    };
    let mut policy = MlpPolicy::new(2, g.num_nodes(), g.num_edges(), &[16], -0.7, &mut rng);
    let ctx = GraphContext::new(g.clone(), train_seqs);
    let mut env = DdrEnv::new(ctx, env_cfg);
    let mut ppo = Ppo::new(PpoConfig {
        n_steps: 32,
        minibatch_size: 16,
        epochs: 2,
        learning_rate: 1e-3,
        ..Default::default()
    });
    let mut log = TrainingLog::default();
    let report = ppo
        .train_resilient(
            &mut env,
            &mut policy,
            steps,
            &mut rng,
            &mut log,
            &FaultTolerance::default(),
            None,
        )
        .expect("training run");
    reporter.info(format!(
        "trained cesnet policy: {} good updates, {} skipped, {} rollbacks",
        report.good_updates, report.skipped_updates, report.rollbacks
    ));
    policy
}

fn main() {
    let args = parse_args(&["regimes", "steps", "eval-steps", "requests", "seed", "out"]);
    let steps = flag(&args, "steps", 1_200usize);
    let eval_steps = flag(&args, "eval-steps", 16usize);
    let requests = flag(&args, "requests", 88usize).max(88);
    let seed = flag(&args, "seed", 42u64);
    let out = args
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_scenario_sweep.json".to_string());
    let all = [
        "diurnal_flash_crowd",
        "rolling_maintenance",
        "flap_storm",
        "big_wan_drain",
    ];
    let selected: Vec<String> = match args.get("regimes") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => all.iter().map(|s| s.to_string()).collect(),
    };
    for name in &selected {
        assert!(
            all.contains(&name.as_str()),
            "unknown regime '{name}' (known: {})",
            all.join(",")
        );
    }

    let reporter = Reporter::new("scenario_sweep");
    let cesnet = zoo::cesnet();
    let needs_cesnet = selected
        .iter()
        .any(|n| n == "diurnal_flash_crowd" || n == "rolling_maintenance");
    let trained = if needs_cesnet {
        Some(train_cesnet_policy(&cesnet, steps, seed, &reporter))
    } else {
        None
    };

    let mut results = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    println!("# Scenario sweep — per-regime U_agent/U_ref and serve-side p99 rung depth");
    println!("regime,nodes,reference,policy,mean_ratio,max_ratio,serve_p99_depth,serve_answered");
    for name in &selected {
        let mut rng = StdRng::seed_from_u64(scenario_seed(seed, name) ^ 0x5eed);
        let regime = match name.as_str() {
            "diurnal_flash_crowd" => {
                let n = cesnet.num_nodes();
                Regime {
                    name: "diurnal_flash_crowd",
                    graph: cesnet.clone(),
                    demands: diurnal_flash_crowd(
                        n,
                        eval_steps,
                        12,
                        0.3,
                        600.0 * (n * (n - 1)) as f64,
                        &FlashCrowdParams::default(),
                        &mut rng,
                    ),
                    reference: Reference::LpOpt(Box::new(CachedOracle::new(cesnet.clone()))),
                    policy: trained.clone().expect("cesnet policy trained"),
                    policy_label: "trained",
                    memory: 2,
                }
            }
            "rolling_maintenance" => {
                let n = cesnet.num_nodes();
                Regime {
                    name: "rolling_maintenance",
                    graph: cesnet.clone(),
                    demands: noisy_cyclical(
                        n,
                        6,
                        eval_steps,
                        0.1,
                        &BimodalParams::default(),
                        &mut rng,
                    ),
                    reference: Reference::LpOpt(Box::new(CachedOracle::new(cesnet.clone()))),
                    policy: trained.clone().expect("cesnet policy trained"),
                    policy_label: "trained",
                    memory: 2,
                }
            }
            "flap_storm" => {
                let g = hierarchical_wan_sized(100, &mut StdRng::seed_from_u64(seed ^ 0x1a57));
                let n = g.num_nodes();
                let policy = MlpPolicy::new(
                    2,
                    n,
                    g.num_edges(),
                    &[8],
                    -0.5,
                    &mut StdRng::seed_from_u64(seed),
                );
                Regime {
                    name: "flap_storm",
                    graph: g,
                    demands: elephant_mice(n, eval_steps, &ElephantMiceParams::default(), &mut rng),
                    reference: Reference::SpRouting,
                    policy,
                    policy_label: "untrained",
                    memory: 2,
                }
            }
            "big_wan_drain" => {
                let g = hierarchical_wan_sized(400, &mut StdRng::seed_from_u64(seed ^ 0xb16));
                let n = g.num_nodes();
                let policy = MlpPolicy::new(
                    1,
                    n,
                    g.num_edges(),
                    &[4],
                    -0.5,
                    &mut StdRng::seed_from_u64(seed),
                );
                Regime {
                    name: "big_wan_drain",
                    graph: g,
                    demands: elephant_mice(
                        n,
                        eval_steps,
                        &ElephantMiceParams {
                            elephants: 12,
                            ..ElephantMiceParams::default()
                        },
                        &mut rng,
                    ),
                    reference: Reference::SpRouting,
                    policy,
                    policy_label: "untrained",
                    memory: 1,
                }
            }
            _ => unreachable!("regimes validated above"),
        };

        let (mean_ratio, max_ratio) = quality_sweep(&regime);
        if !mean_ratio.is_finite() || !max_ratio.is_finite() {
            failures.push(format!("{name}: non-finite quality ratio"));
        }
        if matches!(regime.reference, Reference::LpOpt(_)) && mean_ratio < 1.0 - 1e-6 {
            failures.push(format!(
                "{name}: mean U_agent/U_opt {mean_ratio:.4} below 1 (beat the LP optimum?)"
            ));
        }

        let spec = scenario::spec(name).expect("every regime is a scenario");
        let serve = scenario::run(&spec, scenario_seed(seed, name), requests)
            .expect("dynamic scenario runs");
        if !serve.passed() {
            for v in &serve.violations {
                failures.push(format!("{name} (serve): {v}"));
            }
        }

        println!(
            "{},{},{},{},{:.4},{:.4},{},{}",
            regime.name,
            regime.graph.num_nodes(),
            regime.reference.label(),
            regime.policy_label,
            mean_ratio,
            max_ratio,
            serve.p99_depth,
            serve.answered
        );
        results.push(Json::obj([
            ("regime", Json::Str(regime.name.to_string())),
            ("nodes", Json::Num(regime.graph.num_nodes() as f64)),
            ("edges", Json::Num(regime.graph.num_edges() as f64)),
            ("reference", Json::Str(regime.reference.label().to_string())),
            ("policy", Json::Str(regime.policy_label.to_string())),
            ("eval_steps", Json::Num(regime.demands.len() as f64)),
            ("mean_ratio", Json::Num(mean_ratio)),
            ("max_ratio", Json::Num(max_ratio)),
            (
                "serve",
                Json::obj([
                    ("submitted", Json::Num(serve.submitted as f64)),
                    ("answered", Json::Num(serve.answered as f64)),
                    ("p99_depth", Json::Num(serve.p99_depth as f64)),
                    ("failovers", Json::Num(serve.failovers as f64)),
                    ("event_sequence", Json::Str(serve.event_sequence.clone())),
                    ("passed", Json::Bool(serve.passed())),
                ]),
            ),
        ]));
    }

    let artifact = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("train_steps", Json::Num(steps as f64)),
        ("eval_steps", Json::Num(eval_steps as f64)),
        ("serve_requests", Json::Num(requests as f64)),
        ("regimes", Json::Arr(results)),
        (
            "failures",
            Json::Arr(
                failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    write_artifact(&out, &artifact.to_string());
    reporter.done();

    if failures.is_empty() {
        println!("# scenario sweep: {} regimes ok", selected.len());
    } else {
        for f in &failures {
            eprintln!("scenario_sweep FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
