//! The serving workloads: a `ShardRouter` fleet driven through a
//! closed-loop phase A (capacity) and an open-loop phase B (latency from
//! each tick's due time).
//!
//! The fleet is configured as the `serve_load` bench configures it: the
//! always-on flight recorder, a latent-8 GNN per shard seeded
//! `42 ^ shard`, coalescing window 8, admission chunk 8, but with as many
//! fleet threads as the sandbox has cores (2) and one generator thread.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gddr_core::{DdrEnvConfig, GnnPolicy, GnnPolicyConfig};
use gddr_gnn::GraphStructure;
use gddr_lp::CachedOracle;
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_routing::sim::max_link_utilisation;
use gddr_serve::{
    ControllerConfig, EngineFactory, EpochRequest, FleetConfig, FleetRequest, InferenceEngine,
    PolicyEngine, RouteResponse, Rung, ShardOutcome, ShardRouter, SnapshotPolicy,
};
use gddr_telemetry::{FlightRecorder, Sink, TeeSink};
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::scenario::{diurnal_flash_crowd, FlashCrowdParams};
use gddr_traffic::DemandMatrix;

use crate::process::{self, HostSpeed};
use crate::replay::{median_us, replay_batch, Item, LayerTimes};
use crate::report::{EndToEnd, PerLayer, Report};
use crate::schedule::{closed_loop, open_loop, TickDriver, TickTiming};
use crate::stats::{median, percentile};
use crate::trace::{LayerSink, LayerStats};

/// Fleet worker threads: one per core of the 2-core sandbox.
pub const THREADS: usize = 2;
/// Same-tick requests coalesced into one batched forward.
pub const COALESCE: usize = 8;
/// Requests admitted to a shard per drain cycle.
pub const ADMIT_CHUNK: usize = 8;
/// Same-tick clients per shard per tick.
pub const CLIENTS: u64 = 4;
/// Demand-history length of every shard's policy.
const MEMORY: usize = 3;
/// Per-request logical inference budget (never binds on a healthy fleet).
const DEADLINE_MS: u64 = 10_000;
/// Policy weights are part of the program under test, not of the
/// workload: shard `i` is seeded `POLICY_SEED ^ mix(i)` on every run.
const POLICY_SEED: u64 = 42;
/// Cold starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Untimed closed-loop ticks before phase A, tick 0 (set-up) included.
const WARMUP_TICKS: u64 = 4;
/// `u_ratio_mean` covers the scored responses of ticks `0..SCORED_TICKS`,
/// a fixed prefix, so it is a deterministic function of the seed. Phase
/// B alone sends `0.6 * seconds / period` ticks, so with 20 s runs the
/// prefix is always served.
const SCORED_TICKS: u64 = 216;
/// Phase-A ticks the traced run replays layer by layer.
const REPLAY_TICKS: u64 = 4;
/// Ticks of diurnal traffic generated per block (see [`Demands`]).
const BLOCK_TICKS: u64 = 24;
/// `snapshot_now` calls timed by the traced run.
const SNAPSHOT_SAMPLES: usize = 9;
/// Phase-A ticks per capacity window: one `BLOCK_TICKS` diurnal day.
const CAPACITY_WINDOW: usize = BLOCK_TICKS as usize;
/// Phase-B ticks a run must send, so that ten lie beyond p90.
const MIN_PHASE_B_TICKS: usize = 100;
/// Alternating phase-A/phase-B slices per run.
const SLICES: u32 = 5;
/// Share of the run's seconds given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.4;

/// How a serving workload generates its demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Independent bimodal matrices per (tick, client, shard).
    Bimodal,
    /// `diurnal_flash_crowd` sequences per shard, indexed
    /// `tick * CLIENTS + client`: consecutive matrices are near-identical
    /// but never equal.
    DiurnalFlashCrowd,
}

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServingWorkload {
    /// Zoo topologies, one shard each.
    pub shards: &'static [&'static str],
    /// Score every Fresh response against the LP optimum.
    pub score: bool,
    /// Durable snapshot after every `run` (`SnapshotPolicy::default()`).
    pub snapshots: bool,
    /// Demand generator.
    pub traffic: Traffic,
    /// Fixed open-loop tick period of phase B, ms: about 55% of the
    /// closed-loop tick time measured when the benchmark was defined.
    pub period_ms: f64,
}

/// All 11 zoo shards, scoring off: the serving hot path.
pub const ZOO_FLEET: ServingWorkload = ServingWorkload {
    shards: &[
        "abilene", "nsfnet", "arpanet", "cesnet", "b4", "garr", "renater", "uninett", "geant",
        "janet", "sprint",
    ],
    score: false,
    snapshots: false,
    traffic: Traffic::Bimodal,
    period_ms: 13.0,
};

/// Four shards whose LP solves in a few ms, every response scored, a
/// durable snapshot per tick: the full-featured controller.
pub const LP_SCORED: ServingWorkload = ServingWorkload {
    shards: &["cesnet", "janet", "arpanet", "abilene"],
    score: true,
    snapshots: true,
    traffic: Traffic::DiurnalFlashCrowd,
    period_ms: 56.0,
};

fn graphs(w: &ServingWorkload) -> Vec<Graph> {
    w.shards
        .iter()
        .map(|name| zoo::by_name(name).expect("zoo topology exists"))
        .collect()
}

fn policy_config() -> GnnPolicyConfig {
    GnnPolicyConfig {
        memory: MEMORY,
        latent: 8,
        hidden: 16,
        message_steps: 2,
        layer_norm: true,
    }
}

fn env_config() -> DdrEnvConfig {
    DdrEnvConfig {
        memory: MEMORY,
        ..DdrEnvConfig::default()
    }
}

/// The policy every engine of shard `shard` runs.
fn shard_policy(shard: usize) -> GnnPolicy {
    let seed = POLICY_SEED ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    GnnPolicy::new(&policy_config(), -0.5, &mut StdRng::seed_from_u64(seed))
}

fn factory(shard: usize) -> EngineFactory {
    Arc::new(move |graph: &Graph| {
        Box::new(PolicyEngine::new(shard_policy(shard), graph, MEMORY)) as Box<dyn InferenceEngine>
    })
}

/// Builds the workload's fleet; `store` enables per-tick snapshots there.
fn build_fleet(w: &ServingWorkload, graphs: &[Graph], store: Option<&Path>) -> ShardRouter {
    let mut fleet = ShardRouter::new(FleetConfig {
        coalesce_window: COALESCE,
        threads: THREADS,
        admit_chunk: ADMIT_CHUNK,
    })
    .expect("fleet config is valid");
    for (i, (name, graph)) in w.shards.iter().zip(graphs).enumerate() {
        let config = ControllerConfig {
            // Holds a whole tick; nothing is shed on the healthy path.
            queue_capacity: 64,
            score_responses: w.score,
            ..ControllerConfig::default()
        };
        fleet
            .add_shard(name, graph.clone(), env_config(), config, factory(i))
            .expect("unique shard name");
    }
    if let Some(dir) = store {
        fleet
            .enable_snapshots(dir, SnapshotPolicy::default())
            .expect("snapshot store opens");
    }
    fleet
}

/// Deterministic demands of a workload: tick `t` is a pure function of
/// the seed and `t`. Diurnal traffic is generated in blocks of
/// `BLOCK_TICKS` ticks, each block its own `diurnal_flash_crowd` day, so
/// memory stays bounded however many ticks a run serves.
pub struct Demands {
    traffic: Traffic,
    seed: u64,
    sizes: Vec<usize>,
    names: Vec<String>,
    block: Option<(u64, Vec<Vec<DemandMatrix>>)>,
}

impl Demands {
    fn new(w: &ServingWorkload, graphs: &[Graph], seed: u64) -> Self {
        Demands {
            traffic: w.traffic,
            seed,
            sizes: graphs.iter().map(Graph::num_nodes).collect(),
            names: w.shards.iter().map(|s| s.to_string()).collect(),
            block: None,
        }
    }

    fn mix(&self, a: u64, b: u64, c: u64) -> u64 {
        self.seed ^ (a << 24 | b << 8 | c).wrapping_mul(0x0000_0100_0000_01b3)
    }

    fn matrix(&mut self, tick: u64, client: u64, shard: usize) -> DemandMatrix {
        let n = self.sizes[shard];
        match self.traffic {
            Traffic::Bimodal => {
                let mut rng = StdRng::seed_from_u64(self.mix(tick, client, shard as u64));
                bimodal(n, &BimodalParams::default(), &mut rng)
            }
            Traffic::DiurnalFlashCrowd => {
                let block = tick / BLOCK_TICKS;
                if self.block.as_ref().map(|(b, _)| *b) != Some(block) {
                    let days = (0..self.sizes.len())
                        .map(|s| {
                            let n = self.sizes[s];
                            let mut rng =
                                StdRng::seed_from_u64(self.mix(block, 0xd1, s as u64) ^ 0xd1a1);
                            diurnal_flash_crowd(
                                n,
                                (BLOCK_TICKS * CLIENTS) as usize,
                                12,
                                0.3,
                                600.0 * (n * (n - 1)) as f64,
                                &FlashCrowdParams::default(),
                                &mut rng,
                            )
                        })
                        .collect();
                    self.block = Some((block, days));
                }
                let (_, days) = self.block.as_ref().expect("block generated");
                days[shard][((tick % BLOCK_TICKS) * CLIENTS + client) as usize].clone()
            }
        }
    }

    /// Tick `tick`'s requests, client-major: each shard sees its
    /// clients in order 0..CLIENTS.
    pub fn tick(&mut self, tick: u64) -> Vec<FleetRequest> {
        let mut out = Vec::with_capacity(CLIENTS as usize * self.sizes.len());
        for client in 0..CLIENTS {
            for shard in 0..self.sizes.len() {
                out.push(FleetRequest {
                    topology: self.names[shard].clone(),
                    request: EpochRequest {
                        epoch: tick,
                        demands: self.matrix(tick, client, shard),
                        deadline_ms: DEADLINE_MS,
                    },
                });
            }
        }
        out
    }
}

/// Drives the fleet tick by tick and checks every response.
struct FleetDriver<'a> {
    fleet: &'a ShardRouter,
    graphs: &'a [Graph],
    demands: Demands,
    score: bool,
    submitted: u64,
    failed: u64,
    fresh: u64,
    problems: Vec<String>,
    scores: Vec<f64>,
    /// Phase-B `RouteResponse.latency_ns` (admission to answer), ms.
    admit_ms: Vec<f64>,
    record_latency: bool,
    /// Ticks whose outcomes are kept for the layer replay.
    keep: std::ops::Range<u64>,
    kept: Vec<(u64, Vec<ShardOutcome>)>,
}

impl FleetDriver<'_> {
    fn problem(&mut self, text: String) {
        if self.problems.len() < 20 {
            self.problems.push(text);
        }
    }

    /// Output checks of one response; true when it passes.
    fn check(&mut self, shard: usize, tick: u64, r: &RouteResponse) -> bool {
        let name = self.demands.names[shard].clone();
        if r.epoch != tick {
            self.problem(format!("{name} tick {tick}: answer for epoch {}", r.epoch));
            return false;
        }
        if r.rung != Rung::Fresh || r.shed {
            self.problem(format!("{name} tick {tick}: degraded to {:?}", r.rung));
            return false;
        }
        let violations = r.routing.validate(&self.graphs[shard]);
        if !violations.is_empty() {
            self.problem(format!(
                "{name} tick {tick}: invalid routing {violations:?}"
            ));
            return false;
        }
        if self.score {
            match r.score {
                Some(s) if s.is_finite() && s >= 1.0 - 1e-9 => {
                    if tick < SCORED_TICKS {
                        self.scores.push(s);
                    }
                }
                other => {
                    self.problem(format!(
                        "{name} tick {tick}: score {other:?} below the optimum"
                    ));
                    return false;
                }
            }
        }
        true
    }
}

impl TickDriver for FleetDriver<'_> {
    type Input = Vec<FleetRequest>;
    type Output = Vec<ShardOutcome>;

    fn prepare(&mut self, tick: u64) -> Vec<FleetRequest> {
        self.demands.tick(tick)
    }

    fn serve(&mut self, input: Vec<FleetRequest>) -> Vec<ShardOutcome> {
        self.submitted += input.len() as u64;
        self.fleet.run(&input).expect("every request names a shard")
    }

    fn finish(&mut self, outcomes: Vec<ShardOutcome>, timing: &TickTiming) {
        let tick = timing.tick;
        for (shard, outcome) in outcomes.iter().enumerate() {
            // Exactly once: CLIENTS answers with CLIENTS distinct trace ids.
            let ids: BTreeSet<u64> = outcome.responses.iter().map(|r| r.trace_id).collect();
            let answered = outcome.responses.len() as u64;
            if answered != CLIENTS || ids.len() as u64 != CLIENTS {
                self.problem(format!(
                    "{} tick {tick}: {answered} answers with {} distinct ids for {CLIENTS} requests",
                    outcome.name,
                    ids.len()
                ));
                self.failed += CLIENTS.saturating_sub(answered.min(ids.len() as u64));
            }
            for r in &outcome.responses {
                if self.check(shard, tick, r) {
                    self.fresh += 1;
                } else {
                    self.failed += 1;
                }
                if self.record_latency {
                    self.admit_ms.push(r.latency_ns as f64 / 1e6);
                }
            }
        }
        if self.keep.contains(&tick) {
            self.kept.push((tick, outcomes));
        }
    }
}

/// Requests answered per second inside `run` over each window of
/// `CAPACITY_WINDOW` consecutive ticks of one closed-loop slice (the
/// whole slice when it is shorter). A window spans one diurnal day, so
/// every window carries the same traffic mix.
fn window_rates(slice: &[TickTiming], per_tick: usize) -> Vec<f64> {
    let rate = |w: &[TickTiming]| {
        let busy: f64 = w.iter().map(|t| t.service().as_secs_f64()).sum();
        (w.len() * per_tick) as f64 / busy
    };
    let mut rates: Vec<f64> = slice.chunks_exact(CAPACITY_WINDOW).map(rate).collect();
    if rates.is_empty() && !slice.is_empty() {
        rates.push(rate(slice));
    }
    rates
}

/// Phase-A capacity: the median window rate.
fn capacity(rates: &[f64]) -> f64 {
    median(rates).unwrap_or(0.0)
}

/// `u_ratio_mean` of an unscored workload: every response of tick 0,
/// scored after the timed phases.
fn score_sample(graphs: &[Graph], requests: &[FleetRequest], tick0: &[ShardOutcome]) -> Vec<f64> {
    let mut scores = Vec::with_capacity(requests.len());
    for (shard, (graph, outcome)) in graphs.iter().zip(tick0).enumerate() {
        let oracle = CachedOracle::new(graph.clone());
        let mine = requests.iter().skip(shard).step_by(graphs.len());
        for (response, req) in outcome.responses.iter().zip(mine) {
            let dm = &req.request.demands;
            let u = max_link_utilisation(graph, &response.routing, dm)
                .expect("valid routing simulates")
                .u_max;
            let opt = oracle
                .u_opt_checked(dm)
                .expect("zoo demands have an optimum");
            scores.push(u / opt);
        }
    }
    scores
}

/// Replays ticks `kept` through the layer functions with per-shard
/// histories rebuilt in serving order from tick 0, and compares every
/// routing (and score) bit for bit with the fleet's.
fn replay(
    w: &ServingWorkload,
    graphs: &[Graph],
    seed: u64,
    kept: &[(u64, Vec<ShardOutcome>)],
    times: &mut LayerTimes,
) -> Result<usize, String> {
    let env = env_config();
    let structures: Vec<Arc<GraphStructure>> = graphs
        .iter()
        .map(|g| Arc::new(GraphStructure::from_graph(g)))
        .collect();
    let policies: Vec<GnnPolicy> = (0..graphs.len()).map(shard_policy).collect();
    let oracles: Vec<CachedOracle> = graphs
        .iter()
        .map(|g| CachedOracle::new(g.clone()))
        .collect();
    let mut histories: Vec<Vec<DemandMatrix>> = graphs
        .iter()
        .map(|g| vec![DemandMatrix::zeros(g.num_nodes()); MEMORY])
        .collect();
    let mut demands = Demands::new(w, graphs, seed);
    let last = kept.last().map_or(0, |(t, _)| *t);
    let mut checked = 0;
    for tick in 0..=last {
        let requests = demands.tick(tick);
        let outcomes = kept.iter().find(|(t, _)| *t == tick).map(|(_, o)| o);
        for (shard, graph) in graphs.iter().enumerate() {
            let mine: Vec<&DemandMatrix> = requests
                .iter()
                .skip(shard)
                .step_by(graphs.len())
                .map(|r| &r.request.demands)
                .collect();
            let snapshots: Vec<Vec<DemandMatrix>> = mine
                .iter()
                .map(|dm| {
                    let snapshot = histories[shard].clone();
                    histories[shard].remove(0);
                    histories[shard].push((*dm).clone());
                    snapshot
                })
                .collect();
            let Some(outcomes) = outcomes else { continue };
            // Unscored workloads solve one LP per shard and tick: enough
            // to time the layer without an 80 ms nsfnet solve per item.
            let items: Vec<Item> = snapshots
                .iter()
                .zip(&mine)
                .enumerate()
                .map(|(k, (history, dm))| Item {
                    history,
                    demands: dm,
                    score: w.score || k == 0,
                })
                .collect();
            let decisions = replay_batch(
                &policies[shard],
                graph,
                &structures[shard],
                &env,
                &items,
                &oracles[shard],
                times,
            )
            .map_err(|e| format!("{} tick {tick}: {e}", w.shards[shard]))?;
            for (k, (decision, response)) in
                decisions.iter().zip(&outcomes[shard].responses).enumerate()
            {
                if decision.routing != response.routing {
                    return Err(format!(
                        "{} tick {tick} client {k}: replayed routing differs from the fleet's",
                        w.shards[shard]
                    ));
                }
                if w.score {
                    let (u, opt) = decision.utilisation.expect("scored item");
                    let score = if opt > 0.0 { u / opt } else { 1.0 };
                    if response.score.map(f64::to_bits) != Some(score.to_bits()) {
                        return Err(format!(
                            "{} tick {tick} client {k}: replayed score {score} differs from the fleet's {:?}",
                            w.shards[shard], response.score
                        ));
                    }
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

fn serve_stats(fleet: &ShardRouter) -> (u64, u64, u64, u64) {
    let (mut degraded, mut shed, mut hits, mut misses) = (0, 0, 0, 0);
    for shard in 0..fleet.shard_count() {
        let (stats, oracle) = fleet
            .with_controller(shard, |c| (c.stats().clone(), c.oracle().stats()))
            .expect("shard exists");
        degraded += stats.responses() - stats.fresh;
        shed += stats.shed;
        hits += oracle.hits;
        misses += oracle.misses;
    }
    (degraded, shed, hits, misses)
}

/// Size of the newest committed snapshot record in `dir`, bytes.
fn newest_record_bytes(dir: &Path) -> u64 {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let generation: u64 = name
                .strip_prefix("fleet-")?
                .strip_suffix(".rec")?
                .parse()
                .ok()?;
            Some((generation, entry.metadata().ok()?.len()))
        })
        .max();
    newest.map_or(0, |(_, bytes)| bytes)
}

/// Runs one serving workload for `seconds` of timed phases.
pub fn run(w: &ServingWorkload, seed: u64, seconds: f64, traced: bool, scratch: &Path) -> Report {
    let graphs = graphs(w);
    let recorder: Arc<dyn Sink> = Arc::new(FlightRecorder::with_dump(
        scratch.join("postmortem.jsonl"),
        &["slo_alert"],
    ));
    gddr_telemetry::install(Arc::clone(&recorder));

    // Set-up is a cold start: building the fleet and serving its first
    // tick, so work moved from construction into first use still shows.
    let mut host = HostSpeed::default();
    host.sample();
    let mut demands = Demands::new(w, &graphs, seed);
    let first = demands.tick(0);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let store = w.snapshots.then(|| scratch.join(format!("store-{rep}")));
        drop(built.take());
        let start = Instant::now();
        let fleet = build_fleet(w, &graphs, store.as_deref());
        let outcomes = fleet.run(&first).expect("every request names a shard");
        let elapsed = start.elapsed();
        setup.push(elapsed.as_secs_f64());
        built = Some((fleet, outcomes, elapsed));
    }
    let (fleet, tick0, tick0_time) = built.expect("at least one setup");
    let store = scratch.join(format!("store-{}", SETUP_REPS - 1));

    let per_tick = CLIENTS as usize * graphs.len();
    let window_a = Duration::from_secs_f64(seconds * PHASE_A_SHARE);
    let window_b = Duration::from_secs_f64(seconds * (1.0 - PHASE_A_SHARE));
    let max_ticks_a = (window_a.as_secs_f64() * 1e3) as u64 + 1;
    let mut driver = FleetDriver {
        fleet: &fleet,
        graphs: &graphs,
        demands,
        score: w.score,
        submitted: first.len() as u64,
        failed: 0,
        fresh: 0,
        problems: Vec::new(),
        scores: Vec::new(),
        admit_ms: Vec::new(),
        record_latency: false,
        keep: 0..0,
        kept: Vec::new(),
    };
    let tick0_timing = TickTiming {
        tick: 0,
        due: Duration::ZERO,
        started: Duration::ZERO,
        ended: tick0_time,
    };
    let tick0 = if w.score {
        driver.finish(tick0, &tick0_timing);
        None
    } else {
        driver.keep = 0..1;
        driver.finish(tick0, &tick0_timing);
        driver.kept.pop().map(|(_, o)| o)
    };
    closed_loop(&mut driver, 1, WARMUP_TICKS - 1, Duration::MAX);
    driver.keep = WARMUP_TICKS..WARMUP_TICKS + REPLAY_TICKS;

    let sink = Arc::new(LayerSink::new());
    // The traced run first repeats phase A untraced: the reference for
    // the overhead ratio and the CPU-per-request reading.
    let mut next = WARMUP_TICKS;
    let mut reference = (0.0, 0.0);
    if traced {
        let cpu = process::cpu_seconds();
        let untraced = closed_loop(&mut driver, next, max_ticks_a, window_a);
        let cpu_ms_per_op = match (cpu, process::cpu_seconds()) {
            (Some(a), Some(b)) => (b - a) * 1e3 / (untraced.len() * per_tick) as f64,
            _ => 0.0,
        };
        reference = (capacity(&window_rates(&untraced, per_tick)), cpu_ms_per_op);
        next += untraced.len() as u64;
        let tee: Arc<dyn Sink> = Arc::new(TeeSink::new(vec![
            Arc::clone(&recorder),
            Arc::clone(&sink) as Arc<dyn Sink>,
        ]));
        gddr_telemetry::install(tee);
    }
    // Phases A and B alternate in slices, so both sample the whole run's
    // mix of fast and slow host states.
    let before = serve_stats(&fleet);
    let period = Duration::from_secs_f64(w.period_ms / 1e3);
    let (mut phase_a, mut phase_b, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SLICES {
        host.sample();
        let a = closed_loop(&mut driver, next, max_ticks_a, window_a / SLICES);
        next += a.len() as u64;
        rates.extend(window_rates(&a, per_tick));
        phase_a.extend(a);
        driver.record_latency = true;
        host.sample();
        let b = open_loop(&mut driver, next, period, window_b / SLICES);
        driver.record_latency = false;
        next += b.len() as u64;
        phase_b.extend(b);
    }
    gddr_telemetry::install(Arc::clone(&recorder));
    let after = serve_stats(&fleet);
    let throughput = capacity(&rates);

    // Every request of a tick waits from the same due time to the same
    // return, so tick latencies carry the per-request percentiles.
    let tick_latency: Vec<f64> = phase_b
        .iter()
        .map(|t| t.latency().as_secs_f64() * 1e3)
        .collect();
    let p50 = percentile(&tick_latency, 50.0);
    let p90 = percentile(&tick_latency, 90.0);
    if phase_b.len() < MIN_PHASE_B_TICKS {
        driver.problem(format!(
            "only {} phase-B ticks; p90 needs {MIN_PHASE_B_TICKS}",
            phase_b.len()
        ));
    }
    let late_ms: Vec<f64> = phase_b
        .iter()
        .map(|t| t.late().as_secs_f64() * 1e3)
        .collect();
    let run_ms: Vec<f64> = phase_a
        .iter()
        .chain(&phase_b)
        .map(|t| t.service().as_secs_f64() * 1e3)
        .collect();

    let scores = if w.score {
        std::mem::take(&mut driver.scores)
    } else {
        score_sample(&graphs, &first, tick0.as_deref().unwrap_or_default())
    };
    for s in &scores {
        if !(s.is_finite() && *s >= 1.0 - 1e-9) {
            driver.problem(format!("score {s} below the optimum"));
            driver.failed += 1;
        }
    }
    if w.score && (scores.len() as u64) < SCORED_TICKS * per_tick as u64 {
        driver.problem(format!(
            "only {} responses scored; u_ratio_mean needs the first {SCORED_TICKS} ticks",
            scores.len()
        ));
    }
    let u_ratio_mean = crate::stats::mean(&scores).unwrap_or(0.0);

    let mut report = Report::default();
    report.echo("threads", THREADS as f64);
    report.echo("coalesce_window", COALESCE as f64);
    report.echo("admit_chunk", ADMIT_CHUNK as f64);
    report.echo("tick_period_ms", w.period_ms);
    report.echo("requests_per_tick", per_tick as f64);
    report.echo("phase_a_ticks", phase_a.len() as f64);
    report.echo("phase_b_ticks", phase_b.len() as f64);
    report.echo(
        "phase_b_ticks_beyond_p90",
        p90.map_or(0, |p| p.beyond) as f64,
    );
    report.echo("decide_samples", (phase_b.len() * per_tick) as f64);
    report.echo("scored_responses", scores.len() as f64);

    report.set_end_to_end(
        EndToEnd {
            setup_s: median(&setup).unwrap_or(0.0),
            throughput_per_s: throughput,
            decide_p50_ms: p50.map_or(0.0, |p| p.value),
            decide_p90_ms: p90.map_or(0.0, |p| p.value),
            fresh_ratio: driver.fresh as f64 / driver.submitted.max(1) as f64,
            u_ratio_mean,
            peak_rss_mb: process::peak_rss_mb().unwrap_or(0.0),
        },
        host.scale(),
    );

    if traced {
        let layers = sink.stats();
        let snapshot_ms: Vec<f64> = if w.snapshots {
            (0..SNAPSHOT_SAMPLES)
                .map(|_| {
                    let start = Instant::now();
                    fleet.snapshot_now().expect("snapshot commits");
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut times = LayerTimes::default();
        match replay(w, &graphs, seed, &driver.kept, &mut times) {
            Ok(checked) => report.echo("replay_bit_identical_routings", checked as f64),
            Err(e) => {
                driver.problem(format!("layer replay: {e}"));
                driver.failed += 1;
            }
        }
        per_layer(
            &mut report,
            w,
            &layers,
            &times,
            LayerInputs {
                cpu_ms_per_op: reference.1,
                throughput: reference.0,
                traced_throughput: throughput,
                late_ms: &late_ms,
                run_ms: &run_ms,
                admit_ms: &driver.admit_ms,
                snapshot_ms: &snapshot_ms,
                snapshot_bytes: if w.snapshots {
                    newest_record_bytes(&store)
                } else {
                    0
                },
                degraded: after.0 - before.0,
                shed: after.1 - before.1,
                hits: after.2 - before.2,
                misses: after.3 - before.3,
            },
        );
    }
    gddr_telemetry::uninstall();
    report.attempted = driver.submitted;
    report.failed = driver.failed;
    report.problems = driver.problems;
    report
}

/// Serving measurements the per-layer table is built from.
struct LayerInputs<'a> {
    cpu_ms_per_op: f64,
    throughput: f64,
    traced_throughput: f64,
    late_ms: &'a [f64],
    run_ms: &'a [f64],
    admit_ms: &'a [f64],
    snapshot_ms: &'a [f64],
    snapshot_bytes: u64,
    degraded: u64,
    shed: u64,
    hits: u64,
    misses: u64,
}

fn per_layer(
    report: &mut Report,
    w: &ServingWorkload,
    layers: &LayerStats,
    times: &LayerTimes,
    m: LayerInputs<'_>,
) {
    let block = layers.span("gnn.block.forward");
    let lookups = m.hits + m.misses;
    report.per_layer = PerLayer {
        cpu_ms_per_op: m.cpu_ms_per_op,
        residual_share: 1.0 - times.path_ms(w.score) / m.cpu_ms_per_op,
        trace_overhead: m.traced_throughput / m.throughput,
        late_p90_ms: percentile(m.late_ms, 90.0).map_or(0.0, |p| p.value),
        obs_us: median_us(&times.obs),
        weights_us: median_us(&times.weights),
        forward_us_per_item: median_us(&times.forward_batch),
        forward_solo_us: median_us(&times.forward_solo),
        block_forward_us: block.self_ns as f64 / block.count.max(1) as f64 / 1e3,
        softmin_us: median_us(&times.softmin),
        sim_us: median_us(&times.sim),
        lp_solve_ms: median_us(&times.lp) / 1e3,
        pivots_per_solve: times.lp_pivots as f64 / times.lp_solves.max(1) as f64,
        lp_solves: m.misses as f64,
        lp_hit_ratio: if lookups == 0 {
            1.0
        } else {
            m.hits as f64 / lookups as f64
        },
        serve_degraded: m.degraded as f64,
        serve_shed: m.shed as f64,
        serve_batch_items_mean: layers.infer_items as f64 / layers.infer_batches.max(1.0),
        store_snapshot_bytes: m.snapshot_bytes as f64,
    };
    let run = percentile(m.run_ms, 50.0);
    report.row(
        "serve.run_ms",
        "ms",
        run.map_or(0.0, |p| p.value),
        "p50 of the bench span around ShardRouter::run",
    );
    report.row(
        "serve.admit_to_answer_p50_ms",
        "ms",
        median(m.admit_ms).unwrap_or(0.0),
        "RouteResponse.latency_ns, phase B",
    );
    report.row(
        "serve.queue_wait_p50_us",
        "us",
        median(&layers.queue_wait_us).unwrap_or(0.0),
        "fleet.response queue_wait_ns",
    );
    report.row(
        "serve.infer_us_per_item",
        "us",
        layers.infer_item_ns / layers.infer_items.max(1) as f64 / 1e3,
        "serve.infer span / batch size",
    );
    if w.snapshots {
        report.row(
            "store.snapshot_ms",
            "ms",
            median(m.snapshot_ms).unwrap_or(0.0),
            "p50 of ShardRouter::snapshot_now",
        );
    }
    report.spans = layers.spans.clone();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-shard scored fleet: small enough for a unit test, and it
    /// exercises both the routing and the score comparison.
    const SMALL: ServingWorkload = ServingWorkload {
        shards: &["cesnet", "abilene"],
        score: true,
        snapshots: false,
        traffic: Traffic::DiurnalFlashCrowd,
        period_ms: 1.0,
    };

    fn serve(w: &ServingWorkload, seed: u64, ticks: u64) -> Vec<(u64, Vec<ShardOutcome>)> {
        let graphs = graphs(w);
        let fleet = build_fleet(w, &graphs, None);
        let mut demands = Demands::new(w, &graphs, seed);
        (0..ticks)
            .map(|tick| (tick, fleet.run(&demands.tick(tick)).unwrap()))
            .collect()
    }

    #[test]
    fn replay_reproduces_the_fleet_bit_for_bit() {
        let graphs = graphs(&SMALL);
        let served = serve(&SMALL, 7, 4);
        // Replay the last two ticks: histories must be rebuilt from tick 0.
        let mut times = LayerTimes::default();
        let checked = replay(&SMALL, &graphs, 7, &served[2..], &mut times).unwrap();
        assert_eq!(checked, 2 * CLIENTS as usize * graphs.len());
        assert_eq!(times.forward_batch.len(), checked);
        assert_eq!(times.lp.len(), checked, "every scored item solved its LP");
    }

    #[test]
    fn replay_rejects_outcomes_from_another_history() {
        let graphs = graphs(&SMALL);
        let mut served = serve(&SMALL, 7, 4);
        // Tick 3's answers presented as tick 2's: same shapes, different
        // histories and demands, so the replay must notice.
        let (_, last) = served.pop().expect("served ticks");
        let shifted = vec![(2, last)];
        let mut times = LayerTimes::default();
        assert!(replay(&SMALL, &graphs, 7, &shifted, &mut times).is_err());
    }

    #[test]
    fn demands_are_a_pure_function_of_seed_and_tick() {
        let graphs = graphs(&LP_SCORED);
        let mut a = Demands::new(&LP_SCORED, &graphs, 3);
        let mut b = Demands::new(&LP_SCORED, &graphs, 3);
        let later = a.tick(BLOCK_TICKS + 5);
        let first = a.tick(0);
        assert_eq!(b.tick(0)[5].request.demands, first[5].request.demands);
        assert_eq!(
            b.tick(BLOCK_TICKS + 5)[5].request.demands,
            later[5].request.demands
        );
        // Consecutive diurnal matrices of one shard differ.
        assert_ne!(
            first[0].request.demands,
            first[graphs.len()].request.demands
        );
    }
}
