//! The serving controller: supervised inference, oracle scoring
//! behind a circuit breaker, and the graceful-degradation ladder that
//! guarantees every request an answer. Admission lives in front of it,
//! in the [`ReplicaSet`](crate::replica::ReplicaSet)'s bounded queue;
//! every served request goes through one batched path,
//! `serve_batch` → [`WorkerPool::dispatch_batch`].
//!
//! Ladder, best rung first:
//!
//! 1. **Fresh** — policy inference on this request's demands,
//! 2. **LastGood** — the most recent fresh routing, while within the
//!    staleness bound,
//! 3. **Ecmp** — the precomputed unit-weight ECMP baseline,
//! 4. **ShortestPath** — the precomputed unit-weight shortest-path
//!    baseline; always available, so no request goes unanswered.
//!
//! All rung-affecting decisions run on logical time (serving epochs
//! and engine-reported `cost_ms`), so a scenario's rung sequence is a
//! deterministic function of its seed.

use std::collections::VecDeque;
use std::time::Instant;

use gddr_core::eval::{unit_ecmp_routing, unit_shortest_path_routing};
use gddr_core::DdrEnvConfig;
use gddr_lp::CachedOracle;
use gddr_net::Graph;
use gddr_routing::sim::max_link_utilisation;
use gddr_routing::softmin::softmin_routing;
use gddr_routing::Routing;
use gddr_ser::{FromJson, Json, ToJson};
use gddr_telemetry::{HdrSnapshot, SloConfig, SloTracker, TraceCtx};
use gddr_traffic::DemandMatrix;

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::engine::{BatchItem, EngineFactory, InferenceReply};
use crate::health::{HealthInputs, HealthMonitor, HealthState};
use crate::queue::Admitted;
use crate::request::{EpochRequest, RouteResponse, Rung, ServeError};
use crate::snapshot::{count_from_json, routing_from_json, routing_to_json};
use crate::worker::{PoolConfig, WorkerPool};

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Capacity of the replica set's bounded admission queue
    /// (overflow sheds oldest).
    pub queue_capacity: usize,
    /// How many serving epochs a last-good routing stays usable.
    pub staleness_limit: u64,
    /// Score fresh responses against the strict LP oracle
    /// (`U_agent / U_opt`), circuit breaker permitting.
    pub score_responses: bool,
    /// Keep the ECMP rung in the ladder. Disable to drop straight to
    /// shortest path (exercises the last rung).
    pub use_ecmp: bool,
    /// Worker-pool supervision settings.
    pub pool: PoolConfig,
    /// Scoring circuit-breaker settings.
    pub breaker: BreakerConfig,
    /// Streaming SLO evaluation settings (error-budget burn alerting
    /// over the response stream).
    pub slo: SloConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            queue_capacity: 8,
            staleness_limit: 16,
            score_responses: true,
            use_ecmp: true,
            pool: PoolConfig::default(),
            breaker: BreakerConfig::default(),
            slo: SloConfig::default(),
        }
    }
}

/// Serving counters, kept separately from telemetry so callers can
/// assert on them without a sink installed.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Responses served, by ladder rung.
    pub fresh: u64,
    /// See [`ServeStats::fresh`].
    pub last_good: u64,
    /// See [`ServeStats::fresh`].
    pub ecmp: u64,
    /// See [`ServeStats::fresh`].
    pub shortest_path: u64,
    /// Requests shed from the queue (still answered via the ladder).
    pub shed: u64,
    /// Breaker state changes.
    pub breaker_transitions: u64,
    /// Scoring calls skipped because the breaker was open.
    pub scoring_skipped: u64,
    /// Scoring calls that failed (feeding the breaker).
    pub scoring_failed: u64,
    /// Error-budget burn alerts fired by the streaming SLO tracker.
    pub slo_alerts: u64,
}

impl ServeStats {
    /// Total responses served.
    pub fn responses(&self) -> u64 {
        self.fresh + self.last_good + self.ecmp + self.shortest_path
    }
}

/// One stats field: its JSON name, a getter and a mutable accessor.
type StatField = (
    &'static str,
    fn(&ServeStats) -> u64,
    fn(&mut ServeStats) -> &mut u64,
);

/// (field name, accessor) pairs shared by the stats codec below so the
/// two directions cannot drift.
const STAT_FIELDS: [StatField; 9] = [
    ("fresh", |s| s.fresh, |s| &mut s.fresh),
    ("last_good", |s| s.last_good, |s| &mut s.last_good),
    ("ecmp", |s| s.ecmp, |s| &mut s.ecmp),
    (
        "shortest_path",
        |s| s.shortest_path,
        |s| &mut s.shortest_path,
    ),
    ("shed", |s| s.shed, |s| &mut s.shed),
    (
        "breaker_transitions",
        |s| s.breaker_transitions,
        |s| &mut s.breaker_transitions,
    ),
    (
        "scoring_skipped",
        |s| s.scoring_skipped,
        |s| &mut s.scoring_skipped,
    ),
    (
        "scoring_failed",
        |s| s.scoring_failed,
        |s| &mut s.scoring_failed,
    ),
    ("slo_alerts", |s| s.slo_alerts, |s| &mut s.slo_alerts),
];

fn stats_to_json(stats: &ServeStats) -> Json {
    Json::Obj(
        STAT_FIELDS
            .iter()
            .map(|(name, get, _)| ((*name).to_string(), Json::Num(get(stats) as f64)))
            .collect(),
    )
}

fn stats_from_json(json: &Json) -> Result<ServeStats, String> {
    let mut stats = ServeStats::default();
    for (name, _, get_mut) in &STAT_FIELDS {
        let value = json.field(name).map_err(|e| format!("stats: {}", e.0))?;
        *get_mut(&mut stats) = count_from_json(value, name)?;
    }
    Ok(stats)
}

/// The online routing controller for one topology. It has no queue of
/// its own: a [`ReplicaSet`](crate::replica::ReplicaSet) admits
/// requests and hands each coalesced run to the primary's
/// `serve_batch`, or a shed victim to `answer_shed` — every admitted
/// request yields exactly one response.
pub struct Controller {
    shard: u64,
    graph: Graph,
    env_cfg: DdrEnvConfig,
    config: ControllerConfig,
    oracle: CachedOracle,
    pool: WorkerPool,
    breaker: CircuitBreaker,
    health: HealthMonitor,
    history: VecDeque<DemandMatrix>,
    last_good: Option<(Routing, u64)>,
    ecmp: Routing,
    shortest_path: Routing,
    epoch: u64,
    stats: ServeStats,
    slo: SloTracker,
    /// Pool restarts already attributed to the SLO tracker.
    slo_restarts_seen: u64,
    /// Last epoch of the post-restore warm window. While
    /// `epoch <= warm_until`, fresh inference is deliberately skipped
    /// so the first responses after a crash come from the restored
    /// LastGood rung, never a cold model. `0` (the default) means no
    /// warm window: epochs start at 1.
    warm_until: u64,
}

/// Observability context threaded from admission to response: the
/// request's trace, its admission timestamp, and how long it waited in
/// the queue before serving began. Never consulted by a serving
/// decision.
struct TraceInfo {
    ctx: TraceCtx,
    admitted_at: Instant,
    queue_wait_ns: u64,
}

impl Controller {
    /// Builds a controller tagged with a fleet `shard` id; every
    /// telemetry event it (and its worker pool) emits carries the tag.
    pub fn with_shard(
        graph: Graph,
        env_cfg: DdrEnvConfig,
        config: ControllerConfig,
        factory: EngineFactory,
        shard: u64,
    ) -> Self {
        let oracle = CachedOracle::new(graph.clone());
        let pool = WorkerPool::new(factory, &graph, config.pool.clone(), shard);
        let breaker = CircuitBreaker::new(config.breaker.clone());
        let ecmp = unit_ecmp_routing(&graph);
        let shortest_path = unit_shortest_path_routing(&graph);
        let slo = SloTracker::new(config.slo.clone());
        Controller {
            shard,
            graph,
            env_cfg,
            config,
            oracle,
            pool,
            breaker,
            health: HealthMonitor::new(),
            history: VecDeque::new(),
            last_good: None,
            ecmp,
            shortest_path,
            epoch: 0,
            stats: ServeStats::default(),
            slo,
            slo_restarts_seen: 0,
            warm_until: 0,
        }
    }

    /// The fleet shard id this controller is tagged with (0 for a
    /// standalone deployment).
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// The tuning knobs this controller was built with.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The topology currently being served.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The strict scoring oracle (exposed for fault injection in the
    /// chaos harness).
    pub fn oracle(&self) -> &CachedOracle {
        &self.oracle
    }

    /// Current health.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Serving counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The streaming SLO tracker (burn rate, window rates, and the
    /// mergeable latency histogram snapshot).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Live (not budget-exhausted) worker slots.
    pub fn alive_workers(&self) -> usize {
        self.pool.alive_workers()
    }

    /// Worker restarts performed so far.
    pub fn worker_restarts(&self) -> u64 {
        self.pool.restarts()
    }

    /// Swaps in a new topology (e.g. after link failures): rebuilds
    /// the oracle, baselines and worker engines, resets the breaker,
    /// and invalidates the last-good routing (it was computed for the
    /// old graph).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TopologyMismatch`] when the node count
    /// differs from the current graph — demand matrices in flight and
    /// in history are indexed by node.
    pub fn apply_topology(&mut self, graph: Graph) -> Result<(), ServeError> {
        if graph.num_nodes() != self.graph.num_nodes() {
            return Err(ServeError::TopologyMismatch {
                expected: self.graph.num_nodes(),
                got: graph.num_nodes(),
            });
        }
        self.ecmp = unit_ecmp_routing(&graph);
        self.shortest_path = unit_shortest_path_routing(&graph);
        self.oracle = CachedOracle::new(graph.clone());
        self.breaker = CircuitBreaker::new(self.config.breaker.clone());
        self.pool.retool(&graph);
        self.last_good = None;
        self.graph = graph;
        Ok(())
    }

    /// Advances this controller's serving clock and history for a
    /// request that another replica answered. Replica sets call this
    /// on every non-serving replica so (epoch, history, staleness)
    /// march in lockstep across the whole set — any replica can be
    /// promoted to primary with a warm state. No inference runs, no
    /// stats change, no telemetry is emitted.
    pub fn observe_passive(&mut self, req: &EpochRequest) {
        self.epoch += 1;
        if self.validate_demands(&req.demands).is_ok() {
            self.push_history(req.demands.clone());
        }
    }

    /// Rebuilds the worker pool from the factory — dead slots
    /// included, restart budget restored — and resets the scoring
    /// breaker and health monitor to their starting states. The
    /// failover path calls this when demoting a failed primary into
    /// its shadow-probe recovery window. Serving epoch, history and
    /// last-good survive: the replica stays in lockstep with the set.
    pub fn revive(&mut self) {
        self.pool.revive();
        self.breaker = CircuitBreaker::new(self.config.breaker.clone());
        if let Some((from, to)) = self.health.reset() {
            gddr_telemetry::health_transition_event(self.shard, from.name(), to.name(), self.epoch);
        }
    }

    /// Last epoch of the post-restore warm window (`0` when the
    /// controller was never restored: epochs start at 1).
    pub fn warm_until(&self) -> u64 {
        self.warm_until
    }

    /// Serialises the crash-restorable state for a fleet snapshot:
    /// serving epoch, last-good routing + stamp, breaker and health
    /// state machines, worker restart budgets, serving counters, and
    /// the SLO latency histogram. Demand history is deliberately not
    /// persisted — it re-warms from live traffic — and tuning configs
    /// belong to the process, not the snapshot.
    pub fn export_state(&self) -> Json {
        let (breaker_state, failures, opened_at, probes_ok) = self.breaker.export();
        let (slots, restarts_total) = self.pool.budget_export();
        Json::obj([
            ("epoch", Json::Num(self.epoch as f64)),
            (
                "last_good",
                match &self.last_good {
                    Some((routing, stamp)) => Json::obj([
                        ("routing", routing_to_json(routing)),
                        ("stamp", Json::Num(*stamp as f64)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "breaker",
                Json::obj([
                    ("state", Json::Str(breaker_state.name().to_string())),
                    ("failures", Json::Num(f64::from(failures))),
                    ("opened_at", Json::Num(opened_at as f64)),
                    ("probes_ok", Json::Num(f64::from(probes_ok))),
                ]),
            ),
            ("health", Json::Str(self.health.state().name().to_string())),
            (
                "pool",
                Json::obj([
                    (
                        "slots",
                        Json::Arr(
                            slots
                                .iter()
                                .map(|&(alive, restarts, available_from)| {
                                    Json::obj([
                                        ("alive", Json::Bool(alive)),
                                        ("restarts", Json::Num(f64::from(restarts))),
                                        ("available_from", Json::Num(available_from as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("restarts_total", Json::Num(restarts_total as f64)),
                ]),
            ),
            ("stats", stats_to_json(&self.stats)),
            ("slo_latency", self.slo.latency_snapshot().to_json()),
            (
                "slo_restarts_seen",
                Json::Num(self.slo_restarts_seen as f64),
            ),
        ])
    }

    /// Restores state exported by [`Controller::export_state`] into
    /// this (freshly built, identically configured) controller, then
    /// opens a warm window of `warm_epochs` serving epochs during which
    /// inference is skipped and the ladder answers from the restored
    /// LastGood routing.
    ///
    /// All-or-nothing: everything is parsed and re-validated (routing
    /// shape, state-machine names, histogram consistency) before the
    /// first field is mutated, so a malformed snapshot leaves the
    /// controller untouched.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offence when the snapshot
    /// does not decode to a state valid for this controller's graph.
    pub fn restore_state(&mut self, json: &Json, warm_epochs: u64) -> Result<(), String> {
        let err = |e: gddr_ser::JsonError| format!("controller: {}", e.0);
        let epoch = count_from_json(json.field("epoch").map_err(err)?, "controller.epoch")?;
        let last_good = match json.field("last_good").map_err(err)? {
            Json::Null => None,
            obj => {
                let routing = routing_from_json(obj.field("routing").map_err(err)?, &self.graph)?;
                let stamp = count_from_json(obj.field("stamp").map_err(err)?, "controller.stamp")?;
                Some((routing, stamp))
            }
        };

        let breaker = json.field("breaker").map_err(err)?;
        let breaker_state = match breaker.field("state").map_err(err)? {
            Json::Str(name) => BreakerState::from_name(name)
                .ok_or_else(|| format!("controller: unknown breaker state '{name}'"))?,
            _ => return Err("controller: breaker state must be a string".into()),
        };
        let failures = count_from_json(breaker.field("failures").map_err(err)?, "breaker")?;
        let failures =
            u32::try_from(failures).map_err(|_| "controller: breaker failures overflow")?;
        let opened_at = count_from_json(breaker.field("opened_at").map_err(err)?, "breaker")?;
        let probes_ok = count_from_json(breaker.field("probes_ok").map_err(err)?, "breaker")?;
        let probes_ok =
            u32::try_from(probes_ok).map_err(|_| "controller: breaker probes overflow")?;

        let health = match json.field("health").map_err(err)? {
            Json::Str(name) => HealthState::from_name(name)
                .ok_or_else(|| format!("controller: unknown health state '{name}'"))?,
            _ => return Err("controller: health state must be a string".into()),
        };

        let pool = json.field("pool").map_err(err)?;
        let mut slots = Vec::new();
        for slot in pool.field("slots").map_err(err)?.elements().map_err(err)? {
            let alive = match slot.field("alive").map_err(err)? {
                Json::Bool(b) => *b,
                _ => return Err("controller: slot alive must be a bool".into()),
            };
            let restarts = count_from_json(slot.field("restarts").map_err(err)?, "slot")?;
            let restarts =
                u32::try_from(restarts).map_err(|_| "controller: slot restarts overflow")?;
            let available_from =
                count_from_json(slot.field("available_from").map_err(err)?, "slot")?;
            slots.push((alive, restarts, available_from));
        }
        let restarts_total = count_from_json(pool.field("restarts_total").map_err(err)?, "pool")?;

        let stats = stats_from_json(json.field("stats").map_err(err)?)?;
        let latency = HdrSnapshot::from_json(json.field("slo_latency").map_err(err)?)
            .map_err(|e| format!("controller: latency snapshot: {}", e.0))?;
        let slo_restarts_seen = count_from_json(
            json.field("slo_restarts_seen").map_err(err)?,
            "controller.slo_restarts_seen",
        )?;

        // Everything parsed and validated: commit. The latency restore
        // goes first because it is the only step that can still reject
        // (an internally inconsistent histogram), and it leaves the
        // tracker unchanged when it does.
        if !self.slo.restore_latency(&latency) {
            return Err("controller: inconsistent latency histogram snapshot".into());
        }
        self.epoch = epoch;
        self.last_good = last_good;
        self.breaker
            .restore(breaker_state, failures, opened_at, probes_ok);
        self.health.restore(health);
        self.pool.budget_restore(&slots, restarts_total);
        self.stats = stats;
        self.slo_restarts_seen = slo_restarts_seen;
        self.warm_until = epoch.saturating_add(warm_epochs);
        Ok(())
    }

    fn note_breaker(&mut self, transition: Option<Transition>, epoch: u64) {
        if let Some(t) = transition {
            self.stats.breaker_transitions += 1;
            gddr_telemetry::breaker_transition_event(self.shard, t.from.name(), t.to.name(), epoch);
        }
    }

    fn validate_demands(&self, dm: &DemandMatrix) -> Result<(), ServeError> {
        let n = self.graph.num_nodes();
        if dm.num_nodes() != n {
            return Err(ServeError::InvalidDemand(format!(
                "expected {n} nodes, got {}",
                dm.num_nodes()
            )));
        }
        for src in 0..n {
            for dst in 0..n {
                if !dm.get(src, dst).is_finite() {
                    return Err(ServeError::InvalidDemand(format!(
                        "non-finite demand at ({src}, {dst})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// History snapshot for inference over `history`: exactly `memory`
    /// matrices, oldest first, zero-padded at the front during warm-up
    /// (`serve_batch` replays sequential snapshots ahead of one
    /// batched dispatch).
    fn snapshot_of(&self, history: &VecDeque<DemandMatrix>) -> Vec<DemandMatrix> {
        let memory = self.env_cfg.memory;
        let n = self.graph.num_nodes();
        let mut out = Vec::with_capacity(memory);
        for _ in history.len()..memory {
            out.push(DemandMatrix::zeros(n));
        }
        out.extend(history.iter().cloned());
        out
    }

    fn push_history(&mut self, dm: DemandMatrix) {
        if self.history.len() == self.env_cfg.memory {
            self.history.pop_front();
        }
        self.history.push_back(dm);
    }

    /// Turns a raw inference reply into an installable routing,
    /// enforcing the deadline and validating the action. `Err`
    /// explains which stage failed and sends the request down the
    /// ladder.
    fn reply_to_routing(
        &mut self,
        reply: InferenceReply,
        req: &EpochRequest,
        epoch: u64,
    ) -> Result<Routing, ServeError> {
        if reply.cost_ms > req.deadline_ms {
            // Deadline misses feed the breaker: a slow oracle-scored
            // pipeline and a slow solver look the same to a caller.
            let t = self.breaker.on_failure(epoch);
            self.note_breaker(t, epoch);
            return Err(ServeError::DeadlineMiss {
                cost_ms: reply.cost_ms,
                deadline_ms: req.deadline_ms,
            });
        }
        let weights = self
            .env_cfg
            .try_action_to_weights(&reply.action, self.graph.num_edges())
            .map_err(|e| ServeError::BadAction(e.to_string()))?;
        let routing = softmin_routing(&self.graph, &weights, &self.env_cfg.softmin)
            .map_err(|e| ServeError::BadAction(format!("{e:?}")))?;
        Ok(routing)
    }

    /// Score a fresh routing against the strict oracle, breaker
    /// permitting.
    fn score(&mut self, routing: &Routing, dm: &DemandMatrix, epoch: u64) -> Option<f64> {
        if !self.config.score_responses {
            return None;
        }
        let (allowed, t) = self.breaker.allow(epoch);
        self.note_breaker(t, epoch);
        if !allowed {
            self.stats.scoring_skipped += 1;
            return None;
        }
        let u_agent = match max_link_utilisation(&self.graph, routing, dm) {
            Ok(report) => report.u_max,
            Err(_) => {
                self.stats.scoring_failed += 1;
                let t = self.breaker.on_failure(epoch);
                self.note_breaker(t, epoch);
                return None;
            }
        };
        match self.oracle.u_opt_checked(dm) {
            Ok(u_opt) if u_opt > 0.0 => {
                let t = self.breaker.on_success();
                self.note_breaker(t, epoch);
                Some(u_agent / u_opt)
            }
            Ok(_) => {
                // Zero-demand epoch: trivially optimal, nothing to
                // learn from the ratio.
                let t = self.breaker.on_success();
                self.note_breaker(t, epoch);
                Some(1.0)
            }
            Err(_) => {
                self.stats.scoring_failed += 1;
                let t = self.breaker.on_failure(epoch);
                self.note_breaker(t, epoch);
                None
            }
        }
    }

    /// Answer from the ladder below Fresh.
    fn ladder_answer(&self, epoch: u64) -> (Rung, Routing) {
        if let Some((routing, stamp)) = &self.last_good {
            if epoch.saturating_sub(*stamp) <= self.config.staleness_limit {
                return (Rung::LastGood, routing.clone());
            }
        }
        if self.config.use_ecmp {
            (Rung::Ecmp, self.ecmp.clone())
        } else {
            (Rung::ShortestPath, self.shortest_path.clone())
        }
    }

    /// Answers a request shed from the admission queue: it advances
    /// the serving epoch and history like any other request, but goes
    /// straight to the ladder without an inference attempt.
    pub(crate) fn answer_shed(&mut self, entry: &Admitted) -> RouteResponse {
        self.stats.shed += 1;
        self.epoch += 1;
        let info = TraceInfo {
            ctx: entry.ctx,
            admitted_at: entry.admitted_at,
            queue_wait_ns: entry.admitted_at.elapsed().as_nanos() as u64,
        };
        let valid = self.validate_demands(&entry.req.demands);
        self.finish(&entry.req, info, self.epoch, true, valid, None)
    }

    /// Serves a coalesced run of requests with **one** batched
    /// inference dispatch. A one-item run is the per-request reference;
    /// a longer run reproduces a sequence of one-item runs on the
    /// healthy path bit for bit: item k's history snapshot includes
    /// items 0..k's (valid) demands, serving epochs advance one per
    /// request, and every post-inference step runs in request order.
    /// When the batch dispatch fails, the whole run degrades together
    /// — a panicked or exhausted engine leaves no partial answers worth
    /// trusting.
    pub(crate) fn serve_batch(&mut self, entries: &[Admitted]) -> Vec<RouteResponse> {
        // Phase 1 (sequential): assign epochs, validate, and snapshot
        // each item's history exactly as sequential serving would have
        // seen it.
        let mut sim = self.history.clone();
        let mut pending = Vec::with_capacity(entries.len());
        let mut items = Vec::new();
        for Admitted {
            req,
            ctx,
            admitted_at,
        } in entries
        {
            self.epoch += 1;
            let epoch = self.epoch;
            let queue_wait_ns = admitted_at.elapsed().as_nanos() as u64;
            let valid = self.validate_demands(&req.demands);
            let batch_slot = if valid.is_ok() && req.deadline_ms > 0 && epoch > self.warm_until {
                items.push(BatchItem {
                    req: req.clone(),
                    history: self.snapshot_of(&sim),
                    trace: *ctx,
                });
                Some(items.len() - 1)
            } else {
                None
            };
            if valid.is_ok() {
                if sim.len() == self.env_cfg.memory {
                    sim.pop_front();
                }
                sim.push_back(req.demands.clone());
            }
            let info = TraceInfo {
                ctx: *ctx,
                admitted_at: *admitted_at,
                queue_wait_ns,
            };
            pending.push((req, info, epoch, valid, batch_slot));
        }

        // Phase 2: one batched dispatch covering every
        // inference-eligible item, pinned to the first batched epoch
        // (worker backoff is measured against it).
        let batch_outcome = if items.is_empty() {
            None
        } else {
            let epoch = pending
                .iter()
                .find(|(_, _, _, _, slot)| slot.is_some())
                .map(|(_, _, e, _, _)| *e)
                .expect("non-empty batch implies a batched slot");
            Some(self.pool.dispatch_batch(items, epoch))
        };

        // Phase 3 (sequential): post-process in request order.
        pending
            .into_iter()
            .map(|(req, info, epoch, valid, batch_slot)| {
                let attempt = batch_slot.map(|slot| match &batch_outcome {
                    Some(Ok(replies)) => Ok(replies[slot].clone()),
                    Some(Err(e)) => Err(e.clone()),
                    None => unreachable!("slot implies a dispatched batch"),
                });
                self.finish(req, info, epoch, false, valid, attempt)
            })
            .collect()
    }

    /// Shared tail of every serving path: resolve the ladder rung,
    /// update history/stats/health, emit telemetry, and build the
    /// response. `attempt` is `None` when inference was never tried
    /// (shed, invalid demands, or a zero deadline).
    fn finish(
        &mut self,
        req: &EpochRequest,
        info: TraceInfo,
        epoch: u64,
        shed: bool,
        valid: Result<(), ServeError>,
        attempt: Option<Result<InferenceReply, ServeError>>,
    ) -> RouteResponse {
        let mut degraded_reason = None;
        let mut score = None;
        let mut infer_cost_ms = None;

        let (rung, routing) = match attempt {
            Some(outcome) => {
                // The engine-reported logical cost survives into the
                // response even when it misses the deadline: hedged
                // dispatch keys its straggler threshold off it.
                infer_cost_ms = outcome.as_ref().ok().map(|reply| reply.cost_ms);
                match outcome.and_then(|reply| self.reply_to_routing(reply, req, epoch)) {
                    Ok(routing) => {
                        score = self.score(&routing, &req.demands, epoch);
                        self.last_good = Some((routing.clone(), epoch));
                        (Rung::Fresh, routing)
                    }
                    Err(e) => {
                        degraded_reason = Some(e);
                        self.ladder_answer(epoch)
                    }
                }
            }
            None => {
                match (&valid, shed) {
                    (Err(e), _) => degraded_reason = Some(e.clone()),
                    (Ok(()), false) => {
                        degraded_reason = Some(if req.deadline_ms == 0 {
                            // No inference budget at all.
                            ServeError::DeadlineMiss {
                                cost_ms: 0,
                                deadline_ms: 0,
                            }
                        } else {
                            // Inside the post-restore warm window.
                            ServeError::WarmRestart {
                                until_epoch: self.warm_until,
                            }
                        });
                    }
                    (Ok(()), true) => {}
                }
                self.ladder_answer(epoch)
            }
        };

        // Valid demands are real observed traffic: they enter the
        // history even when inference failed, so the next fresh
        // attempt sees them.
        if valid.is_ok() {
            self.push_history(req.demands.clone());
        }

        match rung {
            Rung::Fresh => self.stats.fresh += 1,
            Rung::LastGood => self.stats.last_good += 1,
            Rung::Ecmp => self.stats.ecmp += 1,
            Rung::ShortestPath => self.stats.shortest_path += 1,
        }
        gddr_telemetry::rung_served_event(self.shard, epoch, rung.name(), shed, info.ctx.trace_id);

        let latency_ns = info.admitted_at.elapsed().as_nanos() as u64;

        // SLO accounting: attribute worker restarts since the last
        // response, then fold this response in. Alert decisions depend
        // only on rung depth and the shed flag (logical facts), so
        // seeded runs alert at identical epochs; wall-clock latency
        // only feeds the histogram.
        let restarts = self.pool.restarts();
        for _ in self.slo_restarts_seen..restarts {
            self.slo.observe_restart();
        }
        self.slo_restarts_seen = restarts;
        if let Some(alert) = self
            .slo
            .observe_response(rung.depth(), shed, latency_ns, epoch)
        {
            self.stats.slo_alerts += 1;
            gddr_telemetry::slo_alert_event(self.shard, "serve.good_fraction", &alert);
        }

        let breaker_disturbed = self.breaker.state() != BreakerState::Closed;
        if let Some((from, to)) = self.health.observe(HealthInputs {
            rung,
            workers_alive: self.pool.alive_workers(),
            breaker_disturbed,
            slo_breached: self.slo.breached(),
        }) {
            gddr_telemetry::health_transition_event(self.shard, from.name(), to.name(), epoch);
        }

        gddr_telemetry::trace_annotation_event(
            info.ctx,
            "fleet.response",
            gddr_telemetry::now_us(),
            &[
                ("rung", rung.name().to_string()),
                ("shed", shed.to_string()),
                ("served_at", epoch.to_string()),
                ("queue_wait_ns", info.queue_wait_ns.to_string()),
                ("latency_ns", latency_ns.to_string()),
            ],
        );

        RouteResponse {
            epoch: req.epoch,
            trace_id: info.ctx.trace_id,
            latency_ns,
            served_at: epoch,
            rung,
            routing,
            shed,
            infer_cost_ms,
            score,
            degraded_reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChaosEngine, Fault, FaultPlan, InferenceEngine, PolicyEngine};
    use crate::replica::{FailoverConfig, HedgeConfig, ReplicaSet};
    use crate::request::DEFAULT_DEADLINE_MS;
    use gddr_core::MlpPolicy;
    use gddr_net::topology::zoo;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;
    use gddr_traffic::gen::{bimodal, BimodalParams};
    use std::sync::Arc;

    fn factory(plan: Arc<FaultPlan>) -> EngineFactory {
        Arc::new(move |graph: &Graph| {
            let mut rng = StdRng::seed_from_u64(7);
            let policy = MlpPolicy::new(
                3,
                graph.num_nodes(),
                graph.num_edges(),
                &[8],
                -0.5,
                &mut rng,
            );
            let engine = PolicyEngine::new(policy, graph, 3);
            Box::new(ChaosEngine::new(engine, Arc::clone(&plan))) as Box<dyn InferenceEngine>
        })
    }

    fn env_cfg() -> DdrEnvConfig {
        DdrEnvConfig {
            memory: 3,
            ..DdrEnvConfig::default()
        }
    }

    fn controller(plan: FaultPlan, config: ControllerConfig) -> Controller {
        Controller::with_shard(zoo::cesnet(), env_cfg(), config, factory(Arc::new(plan)), 0)
    }

    /// A one-replica set: the admission queue in front of a controller.
    fn single_set(plan: FaultPlan, config: ControllerConfig) -> ReplicaSet {
        ReplicaSet::new(
            0,
            zoo::cesnet(),
            env_cfg(),
            config,
            vec![factory(Arc::new(plan))],
            FailoverConfig::default(),
            HedgeConfig::default(),
        )
        .unwrap()
    }

    fn admitted(req: EpochRequest, ctx: TraceCtx) -> Admitted {
        Admitted {
            req,
            ctx,
            admitted_at: Instant::now(),
        }
    }

    /// Serves `req` untraced as a one-item run.
    fn handle(c: &mut Controller, req: EpochRequest) -> Vec<RouteResponse> {
        c.serve_batch(&[admitted(req, TraceCtx::default())])
    }

    fn request(epoch: u64, seed: u64) -> EpochRequest {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(epoch));
        EpochRequest {
            epoch,
            demands: bimodal(6, &BimodalParams::default(), &mut rng),
            deadline_ms: DEFAULT_DEADLINE_MS,
        }
    }

    #[test]
    fn healthy_path_serves_fresh_scored_routings() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        for e in 0..5 {
            let responses = handle(&mut c, request(e, 100));
            assert_eq!(responses.len(), 1);
            let r = &responses[0];
            assert_eq!(r.rung, Rung::Fresh);
            assert!(!r.shed);
            assert!(r.degraded_reason.is_none());
            let score = r.score.expect("scored");
            assert!(score >= 1.0 - 1e-9, "ratio {score} below optimum");
            assert!(r.routing.validate(c.graph()).is_empty());
        }
        assert_eq!(c.stats().fresh, 5);
        assert_eq!(c.health(), HealthState::Healthy);
    }

    #[test]
    fn ladder_descends_last_good_then_ecmp_then_shortest_path() {
        // Panic every epoch from 2 on with zero restart budget: the
        // pool dies, last_good serves until stale, then ECMP.
        let plan = FaultPlan::new().span(2..=100, Fault::Panic);
        let mut config = ControllerConfig {
            staleness_limit: 3,
            ..ControllerConfig::default()
        };
        config.pool.workers = 1;
        config.pool.restart_budget = 0;
        let mut c = controller(plan, config);

        let fresh = handle(&mut c, request(1, 100)).remove(0);
        assert_eq!(fresh.rung, Rung::Fresh);

        // Epoch 2 panics, slot dies; last_good (stamped at serving
        // epoch 1) serves while within staleness 3 (epochs 2..=4).
        for e in 2..=4 {
            let r = handle(&mut c, request(e, 100)).remove(0);
            assert_eq!(r.rung, Rung::LastGood, "epoch {e}");
        }
        assert_eq!(c.alive_workers(), 0);
        assert_eq!(c.health(), HealthState::Unhealthy);
        let r = handle(&mut c, request(5, 100)).remove(0);
        assert_eq!(r.rung, Rung::Ecmp);

        // With ECMP disabled the last rung is shortest path.
        let plan = FaultPlan::new().span(0..=100, Fault::Panic);
        let mut config = ControllerConfig {
            use_ecmp: false,
            ..ControllerConfig::default()
        };
        config.pool.workers = 1;
        config.pool.restart_budget = 0;
        let mut c = controller(plan, config);
        let r = handle(&mut c, request(0, 100)).remove(0);
        assert_eq!(r.rung, Rung::ShortestPath);
        assert!(r.routing.validate(c.graph()).is_empty());
    }

    #[test]
    fn deadline_miss_degrades_and_feeds_the_breaker() {
        let plan = FaultPlan::new().span(1..=8, Fault::Slow { cost_ms: 99 });
        let mut c = controller(plan, ControllerConfig::default());
        let r = handle(&mut c, request(0, 100)).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
        for e in 1..=8 {
            let r = handle(&mut c, request(e, 100)).remove(0);
            assert_eq!(r.rung, Rung::LastGood);
            assert!(matches!(
                r.degraded_reason,
                Some(ServeError::DeadlineMiss { cost_ms: 99, .. })
            ));
        }
        // Three consecutive misses tripped the breaker open.
        assert!(c.stats().breaker_transitions >= 1);
        assert_eq!(c.health(), HealthState::Degraded);
    }

    #[test]
    fn garbage_actions_fall_back_without_poisoning_last_good() {
        let plan = FaultPlan::new().at(1, Fault::Garbage);
        let mut c = controller(plan, ControllerConfig::default());
        let r = handle(&mut c, request(0, 100)).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
        let r = handle(&mut c, request(1, 100)).remove(0);
        assert_eq!(r.rung, Rung::LastGood);
        assert!(matches!(r.degraded_reason, Some(ServeError::BadAction(_))));
        // Recovery on the next clean epoch.
        let r = handle(&mut c, request(2, 100)).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
    }

    #[test]
    fn invalid_demands_are_answered_from_the_ladder() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        handle(&mut c, request(0, 100));

        let inf = EpochRequest {
            epoch: 1,
            demands: DemandMatrix::from_fn(
                6,
                |s, d| if s == 0 && d == 1 { f64::INFINITY } else { 0.1 },
            ),
            deadline_ms: DEFAULT_DEADLINE_MS,
        };
        let r = handle(&mut c, inf).remove(0);
        assert_eq!(r.rung, Rung::LastGood);
        assert!(matches!(
            r.degraded_reason,
            Some(ServeError::InvalidDemand(_))
        ));

        let wrong_size = EpochRequest {
            epoch: 2,
            demands: DemandMatrix::zeros(9),
            deadline_ms: DEFAULT_DEADLINE_MS,
        };
        let r = handle(&mut c, wrong_size).remove(0);
        assert_eq!(r.rung, Rung::LastGood);

        let zero_deadline = EpochRequest {
            epoch: 3,
            demands: request(3, 100).demands,
            deadline_ms: 0,
        };
        let r = handle(&mut c, zero_deadline).remove(0);
        assert_eq!(r.rung, Rung::LastGood);

        // Valid traffic still reaches fresh inference afterwards.
        let r = handle(&mut c, request(4, 100)).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
    }

    #[test]
    fn overflow_sheds_oldest_but_still_answers_via_ladder() {
        let mut config = ControllerConfig {
            queue_capacity: 2,
            ..ControllerConfig::default()
        };
        config.pool.workers = 1;
        let mut set = single_set(FaultPlan::new(), config);
        // Prime last_good.
        set.handle(request(0, 100), 1);

        let mut responses = Vec::new();
        for e in 1..=5 {
            responses.extend(set.enqueue(request(e, 100)));
        }
        while let Some(r) = set.process_next() {
            responses.push(r);
        }
        // 5 submitted → 5 answered: 3 shed (oldest), 2 processed.
        assert_eq!(responses.len(), 5);
        let shed: Vec<_> = responses.iter().filter(|r| r.shed).collect();
        assert_eq!(shed.len(), 3);
        assert_eq!(set.with_primary(|c| c.stats().shed), 3);
        let graph = set.with_primary(|c| c.graph().clone());
        for r in &shed {
            assert_ne!(r.rung, Rung::Fresh);
            assert!(r.routing.validate(&graph).is_empty());
        }
        let epochs: Vec<u64> = shed.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
    }

    #[test]
    fn apply_topology_rebuilds_and_invalidates_last_good() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        handle(&mut c, request(0, 100));
        assert!(c.stats().fresh == 1);

        let mut injector = gddr_core::FailureInjector::from_seed(2, 5);
        let (degraded, dropped) = injector.degrade(&zoo::cesnet());
        assert!(dropped > 0);
        c.apply_topology(degraded.clone()).unwrap();
        assert_eq!(c.graph().num_edges(), degraded.num_edges());

        let r = handle(&mut c, request(1, 100)).remove(0);
        // Last-good was invalidated; fresh inference on the new graph.
        assert_eq!(r.rung, Rung::Fresh);
        assert!(r.routing.validate(&degraded).is_empty());

        // Node-count changes are rejected.
        let bad = gddr_net::topology::zoo::abilene();
        assert!(c.apply_topology(bad).is_err());
    }

    #[test]
    fn coalesced_serving_matches_sequential_bitwise() {
        // Two identically seeded controllers: one serves 4 same-tick
        // requests per tick as one-item runs, the other serves each
        // tick as a single 4-item run with one batched dispatch. Every
        // response field that matters must match bit for bit.
        let mut seq = controller(FaultPlan::new(), ControllerConfig::default());
        let mut coal = controller(FaultPlan::new(), ControllerConfig::default());
        for tick in 0..3u64 {
            let reqs: Vec<EpochRequest> = (0..4).map(|c| request(tick, 300 + c * 17)).collect();
            let mut a = Vec::new();
            for r in reqs.clone() {
                a.extend(handle(&mut seq, r));
            }
            let run: Vec<Admitted> = reqs
                .into_iter()
                .map(|r| admitted(r, TraceCtx::default()))
                .collect();
            let b = coal.serve_batch(&run);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.rung, y.rung, "tick {tick}");
                assert_eq!(x.served_at, y.served_at);
                assert_eq!(x.routing, y.routing, "tick {tick}: routing diverged");
                assert_eq!(x.score, y.score);
            }
        }
        assert_eq!(seq.stats().fresh, coal.stats().fresh);
        assert_eq!(seq.stats().responses(), coal.stats().responses());
    }

    #[test]
    fn coalescing_stops_at_tick_boundaries() {
        let mut set = single_set(FaultPlan::new(), ControllerConfig::default());
        // Three clients at tick 0, then one at tick 1.
        for (i, tick) in [(0u64, 0u64), (1, 0), (2, 0), (3, 1)] {
            set.enqueue(request(tick, 400 + i));
        }
        let first = set.process_coalesced(8);
        assert_eq!(first.len(), 3, "tick-0 run coalesces together");
        let second = set.process_coalesced(8);
        assert_eq!(second.len(), 1, "tick-1 request serves alone");
        assert!(set.process_coalesced(8).is_empty());
    }

    #[test]
    fn apply_topology_mismatch_is_typed() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        let err = c.apply_topology(zoo::abilene()).unwrap_err();
        assert_eq!(
            err,
            ServeError::TopologyMismatch {
                expected: 6,
                got: 11
            }
        );
    }

    #[test]
    fn trace_context_flows_to_the_response() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        let ctx = TraceCtx::mint(0, 5);
        let r = c.serve_batch(&[admitted(request(5, 100), ctx)]).remove(0);
        assert_eq!(r.trace_id, ctx.trace_id);
        assert!(r.latency_ns > 0);
        // Untraced admission keeps the zero sentinel.
        let r = handle(&mut c, request(6, 100)).remove(0);
        assert_eq!(r.trace_id, 0);
    }

    #[test]
    fn sustained_degradation_fires_slo_alerts_deterministically() {
        // Kill the pool outright: every response is LastGood/Ecmp, the
        // burn rate pins at its maximum, and alerts fire on a schedule
        // that depends only on logical response counts.
        let run = || {
            let plan = FaultPlan::new().span(0..=100, Fault::Panic);
            let mut config = ControllerConfig::default();
            config.pool.workers = 1;
            config.pool.restart_budget = 0;
            config.slo.min_samples = 8;
            config.slo.window = 16;
            let mut c = controller(plan, config);
            for e in 0..30 {
                handle(&mut c, request(e, 100));
            }
            assert!(c.slo().breached());
            assert!(c.slo().burn_rate() >= 4.0);
            assert_eq!(c.slo().latency_snapshot().count, 30);
            assert_eq!(c.health(), HealthState::Unhealthy);
            c.stats().slo_alerts
        };
        let alerts = run();
        assert!(alerts >= 1, "no SLO alert over a 30-response breach");
        assert_eq!(alerts, run(), "alert count must be seed-deterministic");
    }

    #[test]
    fn state_round_trips_into_a_warm_restart() {
        let mut a = controller(FaultPlan::new(), ControllerConfig::default());
        let mut last_fresh = None;
        for e in 0..6 {
            last_fresh = Some(handle(&mut a, request(e, 100)).remove(0));
        }
        assert_eq!(a.stats().fresh, 6);
        let snap = a.export_state();

        let mut b = controller(FaultPlan::new(), ControllerConfig::default());
        b.restore_state(&snap, 2).expect("restore");
        assert_eq!(b.warm_until(), 6 + 2);
        assert_eq!(b.stats().fresh, 6);
        assert_eq!(b.health(), HealthState::Healthy);

        // Warm window: inference is skipped and the *restored* LastGood
        // routing answers — never a cold baseline.
        let r = handle(&mut b, request(6, 100)).remove(0);
        assert_eq!(r.rung, Rung::LastGood);
        assert_eq!(r.routing, last_fresh.expect("six responses").routing);
        assert!(matches!(
            r.degraded_reason,
            Some(ServeError::WarmRestart { until_epoch: 8 })
        ));
        let r = handle(&mut b, request(7, 100)).remove(0);
        assert_eq!(r.rung, Rung::LastGood);

        // Past the window: fresh inference resumes on the history the
        // warm responses accumulated.
        let r = handle(&mut b, request(8, 100)).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
        assert_eq!(b.stats().fresh, 7);
        assert_eq!(b.stats().last_good, 2);
        // The latency histogram survived the crash and kept counting.
        assert_eq!(b.slo().latency_snapshot().count, 6 + 3);
    }

    #[test]
    fn restore_rejects_malformed_snapshots_untouched() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        handle(&mut c, request(0, 100));
        assert!(c.restore_state(&gddr_ser::Json::Null, 1).is_err());

        let tampered = c.export_state().to_string().replace("healthy", "zombie");
        let tampered = gddr_ser::Json::parse(&tampered).expect("still JSON");
        assert!(c.restore_state(&tampered, 1).is_err());

        // The failed restores left the controller untouched.
        assert_eq!(c.warm_until(), 0);
        assert_eq!(c.stats().fresh, 1);
        let r = handle(&mut c, request(1, 100)).remove(0);
        assert_eq!(r.rung, Rung::Fresh);
    }

    #[test]
    fn oracle_fault_storm_trips_and_recovers_the_breaker() {
        let mut c = controller(FaultPlan::new(), ControllerConfig::default());
        c.oracle().inject_pivot_limit(5);
        let mut rungs = Vec::new();
        for e in 0..24 {
            let r = handle(&mut c, request(e, 200)).remove(0);
            rungs.push(r.rung);
        }
        // Scoring failures never degrade the rung.
        assert!(rungs.iter().all(|&r| r == Rung::Fresh));
        assert!(c.stats().scoring_failed >= 3);
        assert!(c.stats().scoring_skipped >= 1);
        // Breaker tripped open and eventually closed again.
        assert!(c.stats().breaker_transitions >= 3);
        assert_eq!(c.breaker_state(), BreakerState::Closed);
        assert_eq!(c.health(), HealthState::Healthy);
    }
}
