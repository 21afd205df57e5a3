//! The `train_abilene` workload: PPO training of the default GNN policy
//! on Abilene with the paper's cyclical workload (7 × 60 matrices,
//! cycle 10, memory 5) and the `FixedGraphConfig` PPO settings.
//!
//! Phase A trains a fixed step budget twice from the same seed; both
//! rounds must evaluate to the same `U_agent / U_opt` bit for bit.
//! Phase B serves the trained policy's greedy decisions on the held-out
//! matrices on an open-loop schedule. The oracle is prewarmed in set-up
//! with every matrix either phase scores, so the timed phases never
//! solve an LP.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gddr_core::env::standard_sequences;
use gddr_core::eval::{eval_oneshot, EvalResult};
use gddr_core::experiment::FixedGraphConfig;
use gddr_core::{DdrEnv, DdrEnvConfig, GnnPolicy, GraphContext};
use gddr_gnn::GraphStructure;
use gddr_lp::CachedOracle;
use gddr_net::topology::zoo;
use gddr_rl::{Policy, Ppo, TrainingLog};
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_routing::softmin::softmin_routing;
use gddr_routing::Routing;
use gddr_traffic::DemandMatrix;

use crate::process::{self, HostSpeed};
use crate::replay::{median_us, observe, replay_batch, Item, LayerTimes};
use crate::report::{EndToEnd, PerLayer, Report};
use crate::schedule::{open_loop, TickDriver, TickTiming};
use crate::stats::{median, percentile};
use crate::trace::LayerSink;

/// PPO steps per training round; fixed whatever `--seconds` says.
const STEP_BUDGET: usize = 1280;
/// Steps per `Ppo::train` call: one `n_steps` rollout and its update.
const CHUNK_STEPS: usize = 128;
/// Training rounds from the same seed (the determinism check).
const ROUNDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Policy initialisation and PPO sampling seeds: part of the program
/// configuration, fixed across workload seeds.
const INIT_SEED: u64 = 0x22;
const PPO_SEED: u64 = 0x33;
/// Fixed open-loop period of the phase-B decisions, ms.
pub const PERIOD_MS: f64 = 1.0;
/// Share of `--seconds` given to phase B.
const PHASE_B_SHARE: f64 = 0.3;
/// Phase-B slices; the host-speed reference is sampled before each.
const SLICES: u32 = 5;
/// Consecutive held-out decisions per replayed batch.
const REPLAY_BATCH: usize = 4;

struct Setup {
    env: DdrEnv,
    test: Vec<Vec<DemandMatrix>>,
    policy: GnnPolicy,
}

fn setup(config: &FixedGraphConfig, seed: u64) -> Setup {
    let graph = zoo::by_name(&config.graph_name).expect("Abilene is in the zoo");
    let w = config.workload;
    let mut rng = StdRng::seed_from_u64(seed);
    let train = standard_sequences(&graph, w.train_sequences, w.seq_length, w.cycle, &mut rng);
    let test = standard_sequences(&graph, w.test_sequences, w.seq_length, w.cycle, &mut rng);
    let ctx = GraphContext::new(graph, train);
    let memory = config.env.memory;
    for seq in ctx.sequences.iter().chain(&test) {
        for dm in &seq[memory..] {
            ctx.oracle
                .u_opt_resilient(dm)
                .expect("cyclical Abilene demands have an optimum");
        }
    }
    let env = DdrEnv::new(ctx, config.env);
    let policy = GnnPolicy::new(
        &config.gnn,
        config.init_log_std,
        &mut StdRng::seed_from_u64(INIT_SEED),
    );
    Setup { env, test, policy }
}

struct Round {
    policy: GnnPolicy,
    /// Wall time of each `CHUNK_STEPS`-step `Ppo::train` call, s.
    chunk_secs: Vec<f64>,
    steps: usize,
    cpu_s: f64,
    eval: EvalResult,
}

fn train_round(config: &FixedGraphConfig, s: &mut Setup, host: &mut HostSpeed) -> Round {
    let mut policy = s.policy.clone();
    let mut rng = StdRng::seed_from_u64(PPO_SEED);
    let mut ppo = Ppo::new(config.ppo);
    let mut log = TrainingLog::default();
    let mut chunk_secs = Vec::new();
    let mut cpu_s = 0.0;
    while log.total_steps < STEP_BUDGET {
        host.sample();
        let cpu = process::cpu_seconds();
        let start = Instant::now();
        ppo.train(&mut s.env, &mut policy, CHUNK_STEPS, &mut rng, &mut log);
        chunk_secs.push(start.elapsed().as_secs_f64());
        if let (Some(a), Some(b)) = (cpu, process::cpu_seconds()) {
            cpu_s += b - a;
        }
    }
    let eval = eval_oneshot(s.env.context(), s.env.config(), &policy, &s.test)
        .expect("held-out sequences evaluate");
    Round {
        policy,
        chunk_secs,
        steps: log.total_steps,
        cpu_s,
        eval,
    }
}

/// Training steps per second at the median chunk time.
fn rate(chunk_secs: impl Iterator<Item = f64>) -> f64 {
    let secs: Vec<f64> = chunk_secs.collect();
    median(&secs).map_or(0.0, |s| CHUNK_STEPS as f64 / s)
}

/// One greedy decision per tick, cycling through the held-out matrices
/// in `eval_oneshot`'s order.
struct Decisions<'a> {
    env: &'a DdrEnvConfig,
    ctx: &'a GraphContext,
    structure: Arc<GraphStructure>,
    policy: &'a GnnPolicy,
    test: &'a [Vec<DemandMatrix>],
    order: Vec<(usize, usize)>,
    latencies_ms: Vec<f64>,
    ratios: Vec<f64>,
    attempted: u64,
    fresh: u64,
    problems: Vec<String>,
}

impl TickDriver for Decisions<'_> {
    type Input = (usize, usize);
    type Output = Result<Routing, String>;

    fn prepare(&mut self, tick: u64) -> (usize, usize) {
        self.order[tick as usize % self.order.len()]
    }

    fn serve(&mut self, (seq, t): (usize, usize)) -> Result<Routing, String> {
        let history = &self.test[seq][t - self.env.memory..t];
        let obs = observe(&self.structure, history, self.env.memory);
        let action = self.policy.act_greedy(&obs);
        let weights = self
            .env
            .try_action_to_weights(&action, self.ctx.graph.num_edges())
            .map_err(|e| e.to_string())?;
        softmin_routing(&self.ctx.graph, &weights, &self.env.softmin).map_err(|e| format!("{e:?}"))
    }

    fn finish(&mut self, output: Result<Routing, String>, timing: &TickTiming) {
        self.attempted += 1;
        self.latencies_ms.push(timing.latency().as_secs_f64() * 1e3);
        let (seq, t) = self.order[timing.tick as usize % self.order.len()];
        let checked = output.and_then(|routing| {
            let violations = routing.validate(&self.ctx.graph);
            if !violations.is_empty() {
                return Err(format!("invalid routing {violations:?}"));
            }
            let ratio = self
                .ctx
                .try_ratio(&routing, &self.test[seq][t])
                .map_err(|e| e.to_string())?
                .ratio;
            if !(ratio.is_finite() && ratio >= 1.0 - 1e-9) {
                return Err(format!("ratio {ratio} below the optimum"));
            }
            Ok(ratio)
        });
        match checked {
            Ok(ratio) => {
                self.fresh += 1;
                if (timing.tick as usize) < self.order.len() {
                    self.ratios.push(ratio);
                }
            }
            Err(e) => {
                if self.problems.len() < 20 {
                    self.problems.push(format!(
                        "decision {} (sequence {seq}, t {t}): {e}",
                        timing.tick
                    ));
                }
            }
        }
    }
}

/// Replays the held-out decisions in batches of consecutive matrices on
/// a cold oracle and compares every ratio with the evaluator's.
fn replay(
    s: &Setup,
    policy: &GnnPolicy,
    eval: &EvalResult,
    times: &mut LayerTimes,
) -> Result<usize, String> {
    let ctx = s.env.context();
    let env = s.env.config();
    let oracle = CachedOracle::new(ctx.graph.clone());
    let mut ratios = Vec::new();
    for seq in &s.test {
        let steps: Vec<usize> = (env.memory..seq.len()).collect();
        for batch in steps.chunks(REPLAY_BATCH) {
            let items: Vec<Item> = batch
                .iter()
                .map(|&t| Item {
                    history: &seq[t - env.memory..t],
                    demands: &seq[t],
                    score: true,
                })
                .collect();
            let decisions = replay_batch(
                policy,
                &ctx.graph,
                &ctx.structure,
                env,
                &items,
                &oracle,
                times,
            )?;
            ratios.extend(decisions.iter().map(|d| {
                let (u, opt) = d.utilisation.expect("scored item");
                if opt <= 1e-12 {
                    1.0
                } else {
                    u / opt
                }
            }));
        }
    }
    if ratios.len() != eval.ratios.len()
        || ratios
            .iter()
            .zip(&eval.ratios)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("replayed U_agent/U_opt ratios differ from eval_oneshot's".to_string());
    }
    Ok(ratios.len())
}

/// Runs `train_abilene`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let config = FixedGraphConfig::default();
    let mut host = HostSpeed::default();
    host.sample();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(setup(&config, seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut s = built.expect("at least one setup");
    let mut report = Report::default();

    let oracle_before = s.env.context().oracle.stats();
    let sink = Arc::new(LayerSink::new());
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // The traced run traces the second round only; the first is the
        // untraced reference for the overhead ratio.
        if traced && round == 1 {
            gddr_telemetry::install(Arc::clone(&sink) as Arc<dyn gddr_telemetry::Sink>);
        }
        rounds.push(train_round(&config, &mut s, &mut host));
    }
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.eval.mean_ratio.to_bits() != rounds[0].eval.mean_ratio.to_bits() {
            report.problems.push(format!(
                "same-seed training round {i} evaluated to {} but round 0 to {}",
                r.eval.mean_ratio, rounds[0].eval.mean_ratio
            ));
            report.failed += 1;
        }
    }
    let untraced = if traced { &rounds[..1] } else { &rounds[..] };
    let throughput = rate(untraced.iter().flat_map(|r| r.chunk_secs.iter().copied()));
    let trained = &rounds[0];

    let ctx = s.env.context();
    let mut order = Vec::new();
    for (i, seq) in s.test.iter().enumerate() {
        order.extend((config.env.memory..seq.len()).map(|t| (i, t)));
    }
    let mut decisions = Decisions {
        env: s.env.config(),
        ctx,
        structure: Arc::clone(&ctx.structure),
        policy: &trained.policy,
        test: &s.test,
        order,
        latencies_ms: Vec::new(),
        ratios: Vec::new(),
        attempted: 0,
        fresh: 0,
        problems: Vec::new(),
    };
    let period = Duration::from_secs_f64(PERIOD_MS / 1e3);
    let slice = Duration::from_secs_f64(seconds * PHASE_B_SHARE) / SLICES;
    let mut phase_b = Vec::new();
    for _ in 0..SLICES {
        host.sample();
        phase_b.extend(open_loop(
            &mut decisions,
            phase_b.len() as u64,
            period,
            slice,
        ));
    }
    let oracle_after = ctx.oracle.stats();

    // The open-loop decisions are the evaluator's decisions, so their
    // ratios must reproduce `eval_oneshot` bit for bit.
    let expected = &trained.eval.ratios[..decisions.ratios.len()];
    if decisions
        .ratios
        .iter()
        .zip(expected)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        decisions
            .problems
            .push("phase-B decisions differ from eval_oneshot's".to_string());
    }
    let p50 = percentile(&decisions.latencies_ms, 50.0);
    let p90 = percentile(&decisions.latencies_ms, 90.0);

    report.echo("threads", 1.0);
    report.echo("tick_period_ms", PERIOD_MS);
    report.echo("step_budget", STEP_BUDGET as f64);
    report.echo("rounds", ROUNDS as f64);
    report.echo("phase_b_decisions", phase_b.len() as f64);
    report.echo("decide_samples", decisions.latencies_ms.len() as f64);
    report.echo("decide_beyond_p90", p90.map_or(0, |p| p.beyond) as f64);
    report.echo("held_out_decisions", trained.eval.ratios.len() as f64);

    report.set_end_to_end(
        EndToEnd {
            setup_s: median(&setup_s).unwrap_or(0.0),
            throughput_per_s: throughput,
            decide_p50_ms: p50.map_or(0.0, |p| p.value),
            decide_p90_ms: p90.map_or(0.0, |p| p.value),
            fresh_ratio: decisions.fresh as f64 / decisions.attempted.max(1) as f64,
            u_ratio_mean: trained.eval.mean_ratio,
            peak_rss_mb: process::peak_rss_mb().unwrap_or(0.0),
        },
        host.scale(),
    );

    if traced {
        let layers = sink.stats();
        // The replay stays under the sink so the registry counts its
        // simplex pivots.
        let mut times = LayerTimes::default();
        match replay(&s, &trained.policy, &trained.eval, &mut times) {
            Ok(n) => report.echo("replay_bit_identical_ratios", n as f64),
            Err(e) => {
                decisions.problems.push(format!("layer replay: {e}"));
                report.failed += 1;
            }
        }
        let cpu_ms_per_op = trained.cpu_s * 1e3 / trained.steps as f64;
        let traced_rate = rate(rounds[1].chunk_secs.iter().copied());
        // Training time outside the two PPO phase spans, as a share of
        // the traced round's CPU time.
        let phases_s =
            (layers.span("ppo.rollout").total_ns + layers.span("ppo.update").total_ns) as f64 / 1e9;
        let block = layers.span("gnn.block.forward");
        let hits = oracle_after.hits - oracle_before.hits;
        let misses = oracle_after.misses - oracle_before.misses;
        let late: Vec<f64> = phase_b
            .iter()
            .map(|t| t.late().as_secs_f64() * 1e3)
            .collect();
        report.per_layer = PerLayer {
            cpu_ms_per_op,
            residual_share: 1.0 - phases_s / rounds[1].cpu_s,
            trace_overhead: traced_rate / throughput,
            late_p90_ms: percentile(&late, 90.0).map_or(0.0, |p| p.value),
            obs_us: median_us(&times.obs),
            weights_us: median_us(&times.weights),
            forward_us_per_item: median_us(&times.forward_batch),
            forward_solo_us: median_us(&times.forward_solo),
            block_forward_us: block.self_ns as f64 / block.count.max(1) as f64 / 1e3,
            softmin_us: median_us(&times.softmin),
            sim_us: median_us(&times.sim),
            lp_solve_ms: median_us(&times.lp) / 1e3,
            pivots_per_solve: times.lp_pivots as f64 / times.lp_solves.max(1) as f64,
            lp_solves: misses as f64,
            lp_hit_ratio: if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            serve_degraded: 0.0,
            serve_shed: 0.0,
            serve_batch_items_mean: 0.0,
            store_snapshot_bytes: 0.0,
        };
        let per_call_us = |name: &str| {
            let s = layers.span(name);
            s.self_ns as f64 / s.count.max(1) as f64 / 1e3
        };
        report.row(
            "core.env_step_us",
            "us",
            per_call_us("env.step"),
            "env.step span self time per call",
        );
        report.row(
            "core.env_reward_us",
            "us",
            per_call_us("env.reward"),
            "env.reward span self time per call",
        );
        for (row, span) in [
            ("rl.rollout_s", "ppo.rollout"),
            ("rl.update_s", "ppo.update"),
            ("rl.backward_s", "ppo.backward"),
        ] {
            report.row(
                row,
                "s",
                layers.span(span).total_ns as f64 / 1e9,
                "traced round, span total",
            );
        }
        report.spans = layers.spans;
    }
    gddr_telemetry::uninstall();
    report.attempted = (rounds.iter().map(|r| r.steps).sum::<usize>() as u64) + decisions.attempted;
    report.failed += decisions.attempted - decisions.fresh;
    report.problems.append(&mut decisions.problems);
    report
}
