//! Every chaos scenario as data, and the one runner that serves it.
//!
//! A [`ScenarioSpec`] describes a whole drill: the fleet's shards (a
//! topology and one [`FaultPlan`] per replica each), the controller,
//! fleet, failover and hedge configs, the policy, the traffic, bursts,
//! malformed requests and oracle pivot faults, one [`DynamicsPlan`] of
//! live topology churn, crash-and-restart points against the durable
//! store, and the declarative [`Gates`] the run must meet. [`specs`]
//! is the table of named scenarios, [`run`] serves one through a
//! [`ShardRouter`] on its public API, and one evaluator turns the
//! result into SLO violations. Each scenario carries a [`Tag`]
//! (`controller`, `replication`, `dynamics`, `recovery`, `fleet`) that
//! the chaos harness selects by.
//!
//! A [`DynamicsPlan`] schedules link flaps (with repair timers),
//! capacity drains (with restore timers) and rolling maintenance
//! windows on a **count-based tick clock**. The plan compiles to a
//! [`DynamicsTimeline`] — a pure, pre-simulated map from tick to the
//! exact topology and retool actions due — so applying it while the
//! fleet serves traffic is replayable: every event lands between
//! serving epochs. Link flaps are drawn through
//! [`gddr_core::FailureInjector`] (connectivity-preserving, seeded)
//! against the *currently degraded* topology, so overlapping flaps
//! compose without ever disconnecting the WAN.
//!
//! Runs are pure functions of `(spec, seed, requests)`: same-seed runs
//! produce bit-identical rung, failover and event digests. The digests
//! of every scenario at the harness's default seed are committed in
//! `golden/scenarios.tsv` and checked by [`golden_mismatches`].

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gddr_core::{DdrEnvConfig, FailureInjector, GnnPolicy, GnnPolicyConfig, MlpPolicy};
use gddr_net::algo::is_strongly_connected;
use gddr_net::graph::EdgeId;
use gddr_net::topology::hierarchical::hierarchical_wan_sized;
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};
use gddr_store::Store;
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::scenario::{
    diurnal_flash_crowd, elephant_mice, ElephantMiceParams, FlashCrowdParams,
};
use gddr_traffic::sequence::noisy_cyclical;
use gddr_traffic::DemandMatrix;

use crate::breaker::BreakerState;
use crate::controller::ControllerConfig;
use crate::engine::{ChaosEngine, EngineFactory, Fault, FaultPlan, InferenceEngine, PolicyEngine};
use crate::fleet::{FleetConfig, FleetRequest, RecoveryReport, ShardRouter, SnapshotPolicy};
use crate::health::HealthState;
use crate::replica::{FailoverConfig, HedgeConfig, ReplicaStats, ReplicaTransition};
use crate::request::{EpochRequest, Rung, ServeError, DEFAULT_DEADLINE_MS};
use crate::worker::{ExecMode, PoolConfig};

/// Typed validation and compilation errors for dynamics plans.
///
/// Malformed plans are *data*, not bugs: every degenerate input maps
/// to a variant here and never to a panic (the `scenario_plan` fuzz
/// target enforces this).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A repair/restore timer, window stride, flap count or window
    /// length of zero — the event would be a no-op or never end.
    ZeroDuration { tick: usize },
    /// A flap names an edge the base graph does not have.
    UnknownEdge { edge: usize, num_edges: usize },
    /// A maintenance window reaches a replica index out of range.
    UnknownReplica { replica: usize, replicas: usize },
    /// A drain factor outside `(0, 1]` (draining *below* zero capacity
    /// or inflating it) or non-finite.
    InvalidFactor { factor: f64 },
    /// Removing the named edge would disconnect the active topology.
    DisconnectingFlap { edge: usize, tick: usize },
    /// Stacked drains pushed some capacity to zero (underflow).
    DegenerateCapacity { tick: usize },
    /// An event window ends past [`MAX_HORIZON`] (or overflows),
    /// which would make the compiler's tick loop unbounded.
    HorizonOverflow { tick: usize },
}

/// Upper bound on any event window's closing tick. Far beyond any
/// real scenario; exists so a malformed plan (e.g. `tick =
/// usize::MAX`) is a typed error instead of an unbounded compile
/// loop.
pub const MAX_HORIZON: usize = 1 << 20;

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ZeroDuration { tick } => {
                write!(f, "zero-duration event scheduled at tick {tick}")
            }
            ScenarioError::UnknownEdge { edge, num_edges } => {
                write!(f, "flap names edge {edge} but the graph has {num_edges}")
            }
            ScenarioError::UnknownReplica { replica, replicas } => {
                write!(
                    f,
                    "maintenance window reaches replica {replica} of {replicas}"
                )
            }
            ScenarioError::InvalidFactor { factor } => {
                write!(f, "drain factor {factor} outside (0, 1]")
            }
            ScenarioError::DisconnectingFlap { edge, tick } => {
                write!(f, "flapping edge {edge} at tick {tick} disconnects the WAN")
            }
            ScenarioError::DegenerateCapacity { tick } => {
                write!(
                    f,
                    "stacked drains underflow capacity to zero at tick {tick}"
                )
            }
            ScenarioError::HorizonOverflow { tick } => {
                write!(
                    f,
                    "event at tick {tick} ends past the supported horizon ({MAX_HORIZON})"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One scheduled dynamics event.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsEvent {
    /// Remove `count` seeded, connectivity-preserving undirected links
    /// (via [`FailureInjector`]) from the currently active topology,
    /// repairing them `repair_after` ticks later.
    LinkFlap { count: usize, repair_after: usize },
    /// Flap one specific undirected link (named by a base-graph edge
    /// id), repairing it `repair_after` ticks later. Compilation fails
    /// if removing it would disconnect the active topology.
    FlapEdge { edge: usize, repair_after: usize },
    /// Scale every active link capacity by `factor` (in `(0, 1]`),
    /// restoring `restore_after` ticks later. Overlapping drains
    /// compose multiplicatively.
    CapacityDrain { factor: f64, restore_after: usize },
    /// A rolling maintenance window: retool `replicas` replicas
    /// starting at `first_replica`, one every `stride` ticks.
    MaintenanceWindow {
        first_replica: usize,
        replicas: usize,
        stride: usize,
    },
}

/// A deterministic schedule of [`DynamicsEvent`]s keyed by tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsPlan {
    events: Vec<(usize, DynamicsEvent)>,
}

impl DynamicsPlan {
    /// An empty plan.
    pub fn new() -> Self {
        DynamicsPlan::default()
    }

    /// Schedules `event` at `tick`. Events sharing a tick apply in
    /// insertion order.
    #[must_use]
    pub fn at(mut self, tick: usize, event: DynamicsEvent) -> Self {
        self.events.push((tick, event));
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against the base graph and replica count.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found, in schedule order.
    pub fn validate(&self, graph: &Graph, replica_count: usize) -> Result<(), ScenarioError> {
        for &(tick, ref event) in &self.events {
            match *event {
                DynamicsEvent::LinkFlap {
                    count,
                    repair_after,
                } => {
                    if count == 0 || repair_after == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    check_horizon(tick, repair_after)?;
                }
                DynamicsEvent::FlapEdge { edge, repair_after } => {
                    if repair_after == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    if edge >= graph.num_edges() {
                        return Err(ScenarioError::UnknownEdge {
                            edge,
                            num_edges: graph.num_edges(),
                        });
                    }
                    check_horizon(tick, repair_after)?;
                }
                DynamicsEvent::CapacityDrain {
                    factor,
                    restore_after,
                } => {
                    if restore_after == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                        return Err(ScenarioError::InvalidFactor { factor });
                    }
                    check_horizon(tick, restore_after)?;
                }
                DynamicsEvent::MaintenanceWindow {
                    first_replica,
                    replicas,
                    stride,
                } => {
                    if replicas == 0 || stride == 0 {
                        return Err(ScenarioError::ZeroDuration { tick });
                    }
                    // Two-step check avoids `first + replicas - 1`
                    // overflowing on adversarial input.
                    if first_replica >= replica_count || replicas > replica_count - first_replica {
                        return Err(ScenarioError::UnknownReplica {
                            replica: first_replica.saturating_add(replicas).saturating_sub(1),
                            replicas: replica_count,
                        });
                    }
                    let span = (replicas - 1)
                        .checked_mul(stride)
                        .ok_or(ScenarioError::HorizonOverflow { tick })?;
                    check_horizon(tick, span)?;
                }
            }
        }
        Ok(())
    }
}

/// Rejects event windows that end past [`MAX_HORIZON`] (or whose end
/// overflows), keeping [`DynamicsTimeline::compile`]'s tick loop
/// bounded for arbitrary (fuzzed) plans.
fn check_horizon(tick: usize, span: usize) -> Result<(), ScenarioError> {
    match tick.checked_add(span) {
        Some(end) if end <= MAX_HORIZON => Ok(()),
        _ => Err(ScenarioError::HorizonOverflow { tick }),
    }
}

/// Everything due at one tick of a compiled timeline.
#[derive(Debug, Clone)]
pub struct TickActions {
    /// The topology to apply this tick (base minus open flaps, drains
    /// composed in), if anything topological changed.
    pub topology: Option<Graph>,
    /// Replica indices to retool this tick.
    pub retools: Vec<usize>,
    /// Digest labels for the events landing this tick.
    pub labels: Vec<String>,
}

impl TickActions {
    fn new() -> Self {
        TickActions {
            topology: None,
            retools: Vec::new(),
            labels: Vec::new(),
        }
    }
}

/// A [`DynamicsPlan`] pre-simulated against a base graph: a pure map
/// from tick to [`TickActions`]. Compilation resolves every seeded
/// draw up front, so the live run only applies snapshots — an event
/// can never observe serving state, which is what makes same-seed
/// replays bit-identical.
#[derive(Debug, Clone)]
pub struct DynamicsTimeline {
    ticks: BTreeMap<usize, TickActions>,
    horizon: usize,
    digest: String,
}

impl DynamicsTimeline {
    /// Compiles `plan` against `base`, drawing flaps from a
    /// [`FailureInjector`] derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for invalid plans (see
    /// [`DynamicsPlan::validate`]) or for flaps/drains whose composed
    /// effect would disconnect the WAN or underflow a capacity.
    pub fn compile(
        plan: &DynamicsPlan,
        base: &Graph,
        replica_count: usize,
        seed: u64,
    ) -> Result<Self, ScenarioError> {
        plan.validate(base, replica_count)?;

        // End of the last event window.
        let end = plan
            .events
            .iter()
            .map(|&(tick, ref e)| {
                tick + match *e {
                    DynamicsEvent::LinkFlap { repair_after, .. }
                    | DynamicsEvent::FlapEdge { repair_after, .. } => repair_after,
                    DynamicsEvent::CapacityDrain { restore_after, .. } => restore_after,
                    DynamicsEvent::MaintenanceWindow {
                        replicas, stride, ..
                    } => (replicas - 1) * stride,
                }
            })
            .max()
            .unwrap_or(0);

        // Open mutations: (close tick, removed directed node pairs) for
        // flaps, (close tick, factor) for drains.
        let mut open_flaps: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        let mut open_drains: Vec<(usize, f64)> = Vec::new();
        let mut retools_due: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut ticks: BTreeMap<usize, TickActions> = BTreeMap::new();
        let mut digest: Vec<String> = Vec::new();

        for tick in 0..=end {
            let mut actions = TickActions::new();
            let mut topo_changed = false;

            // Close expiring mutations first, so a repair and a fresh
            // flap at the same tick compose in a fixed order.
            let before = open_flaps.len();
            open_flaps.retain(|&(close, _)| close != tick);
            for _ in open_flaps.len()..before {
                actions.labels.push(format!("repair@{tick}"));
                topo_changed = true;
            }
            let before = open_drains.len();
            open_drains.retain(|&(close, _)| close != tick);
            for _ in open_drains.len()..before {
                actions.labels.push(format!("restore@{tick}"));
                topo_changed = true;
            }

            // Open events scheduled at this tick, in insertion order.
            for &(at, ref event) in plan.events.iter().filter(|&&(at, _)| at == tick) {
                match *event {
                    DynamicsEvent::LinkFlap {
                        count,
                        repair_after,
                    } => {
                        let active = compose_unscaled(base, &open_flaps);
                        let mut injector = FailureInjector::from_seed(
                            count,
                            seed ^ 0xf1a9 ^ (at as u64).wrapping_mul(0x9e3779b97f4a7c15),
                        );
                        let (degraded, removed) = injector.degrade(&active);
                        let gone = removed_pairs(&active, &degraded);
                        open_flaps.push((tick + repair_after, gone));
                        actions.labels.push(format!("flap{removed}@{tick}"));
                        topo_changed = true;
                    }
                    DynamicsEvent::FlapEdge { edge, repair_after } => {
                        let (a, b) = base.endpoints(EdgeId(edge));
                        let pairs = vec![(a.0, b.0), (b.0, a.0)];
                        open_flaps.push((tick + repair_after, pairs));
                        let candidate = compose_unscaled(base, &open_flaps);
                        if !is_strongly_connected(&candidate) {
                            return Err(ScenarioError::DisconnectingFlap { edge, tick });
                        }
                        actions.labels.push(format!("flapE{edge}@{tick}"));
                        topo_changed = true;
                    }
                    DynamicsEvent::CapacityDrain {
                        factor,
                        restore_after,
                    } => {
                        open_drains.push((tick + restore_after, factor));
                        actions.labels.push(format!("drain{factor:.2}@{tick}"));
                        topo_changed = true;
                    }
                    DynamicsEvent::MaintenanceWindow {
                        first_replica,
                        replicas,
                        stride,
                    } => {
                        for i in 0..replicas {
                            retools_due
                                .entry(tick + i * stride)
                                .or_default()
                                .push(first_replica + i);
                        }
                        actions
                            .labels
                            .push(format!("window{first_replica}+{replicas}@{tick}"));
                    }
                }
            }

            if topo_changed {
                let mut g = compose_unscaled(base, &open_flaps);
                let product: f64 = open_drains.iter().map(|&(_, f)| f).product();
                if product != 1.0 {
                    for e in 0..g.num_edges() {
                        let cap = g.capacity(EdgeId(e)) * product;
                        g.set_capacity(EdgeId(e), cap)
                            .map_err(|_| ScenarioError::DegenerateCapacity { tick })?;
                    }
                }
                actions.topology = Some(g);
            }
            if let Some(due) = retools_due.remove(&tick) {
                for r in due {
                    actions.labels.push(format!("retool{r}@{tick}"));
                    actions.retools.push(r);
                }
            }

            if actions.topology.is_some() || !actions.retools.is_empty() {
                digest.extend(actions.labels.iter().cloned());
                ticks.insert(tick, actions);
            } else if !actions.labels.is_empty() {
                // Window announcements with no same-tick retool.
                digest.extend(actions.labels.iter().cloned());
                ticks.insert(tick, actions);
            }
        }

        Ok(DynamicsTimeline {
            ticks,
            horizon: end,
            digest: digest.join(";"),
        })
    }

    /// Actions due at `tick`, if any.
    pub fn actions(&self, tick: usize) -> Option<&TickActions> {
        self.ticks.get(&tick)
    }

    /// The last tick at which any event window is still open.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The full event digest (`flap2@5;repair@9;drain0.50@13`), the
    /// `event_sequence` half of the dynamic determinism check.
    pub fn event_sequence(&self) -> &str {
        &self.digest
    }
}

/// Base graph minus every currently-open flapped link; capacities from
/// the base (drains are layered on top by the caller).
fn compose_unscaled(base: &Graph, open_flaps: &[(usize, Vec<(usize, usize)>)]) -> Graph {
    let removed: BTreeSet<(usize, usize)> = open_flaps
        .iter()
        .flat_map(|(_, pairs)| pairs.iter().copied())
        .collect();
    if removed.is_empty() {
        return base.clone();
    }
    let (g, _) = base.filter_edges(|e| {
        let (a, b) = base.endpoints(e);
        !removed.contains(&(a.0, b.0))
    });
    g
}

/// Directed node pairs present in `before` but not in `after`.
fn removed_pairs(before: &Graph, after: &Graph) -> Vec<(usize, usize)> {
    let kept: BTreeSet<(usize, usize)> = after
        .edges()
        .map(|e| {
            let (a, b) = after.endpoints(e);
            (a.0, b.0)
        })
        .collect();
    before
        .edges()
        .map(|e| {
            let (a, b) = before.endpoints(e);
            (a.0, b.0)
        })
        .filter(|p| !kept.contains(p))
        .collect()
}

/// The family of drill a scenario belongs to; `chaos_harness --scenario
/// <tag>` runs every scenario carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// One controller under worker, oracle, input and overload faults.
    Controller,
    /// Replica sets: failover, hedged stragglers, live maintenance.
    Replication,
    /// Topology churn from a [`DynamicsPlan`] under scenario traffic.
    Dynamics,
    /// Crash and restart from the durable snapshot store.
    Recovery,
    /// Multi-shard fleet drills: blast radius, failover, recovery.
    Fleet,
}

impl Tag {
    /// The tag's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Controller => "controller",
            Tag::Replication => "replication",
            Tag::Dynamics => "dynamics",
            Tag::Recovery => "recovery",
            Tag::Fleet => "fleet",
        }
    }
}

/// Where a shard's graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// A topology-zoo graph, by name.
    Zoo(&'static str),
    /// A hierarchical WAN of about `nodes` nodes drawn from
    /// `seed ^ salt`.
    HierWan {
        /// Target node count.
        nodes: usize,
        /// XORed into the run seed to draw the graph.
        salt: u64,
    },
}

impl Topology {
    fn build(&self, seed: u64) -> Result<Graph, ServeError> {
        match *self {
            Topology::Zoo(name) => zoo::by_name(name)
                .ok_or_else(|| ServeError::Config(format!("unknown zoo topology '{name}'"))),
            Topology::HierWan { nodes, salt } => Ok(hierarchical_wan_sized(
                nodes,
                &mut StdRng::seed_from_u64(seed ^ salt),
            )),
        }
    }
}

/// The policy every engine of a scenario serves, with seeded weights.
#[derive(Debug, Clone)]
pub enum Policy {
    /// An MLP with the given demand memory and hidden widths.
    Mlp {
        /// Demand-history length.
        memory: usize,
        /// Hidden-layer widths.
        hidden: Vec<usize>,
    },
    /// A GNN (the fleet drills).
    Gnn(GnnPolicyConfig),
}

impl Policy {
    fn memory(&self) -> usize {
        match self {
            Policy::Mlp { memory, .. } => *memory,
            Policy::Gnn(config) => config.memory,
        }
    }

    /// An engine factory whose engines are seeded from `seed` and run
    /// `faults`.
    fn factory(&self, seed: u64, faults: &FaultPlan) -> EngineFactory {
        let policy = self.clone();
        let faults = Arc::new(faults.clone());
        Arc::new(move |graph: &Graph| {
            let engine: Box<dyn InferenceEngine> = match &policy {
                Policy::Mlp { memory, hidden } => {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
                    let mlp = MlpPolicy::new(
                        *memory,
                        graph.num_nodes(),
                        graph.num_edges(),
                        hidden,
                        -0.5,
                        &mut rng,
                    );
                    let engine = PolicyEngine::new(mlp, graph, *memory);
                    Box::new(ChaosEngine::new(engine, Arc::clone(&faults)))
                }
                Policy::Gnn(config) => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let gnn = GnnPolicy::new(config, -0.5, &mut rng);
                    let engine = PolicyEngine::new(gnn, graph, config.memory);
                    Box::new(ChaosEngine::new(engine, Arc::clone(&faults)))
                }
            };
            engine
        })
    }
}

/// Where request demand matrices come from.
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// One seeded bimodal stream, drawn in submission order.
    Bimodal,
    /// An independently seeded bimodal matrix per (tick, client,
    /// shard), keyed off `seed ^ salt`.
    Keyed {
        /// XORed into the run seed.
        salt: u64,
    },
    /// A day/night cycle with a flash crowd, one matrix per tick.
    DiurnalFlashCrowd,
    /// A jittered repeating cycle of bimodal matrices, one per tick.
    NoisyCyclical {
        /// Cycle length in ticks.
        cycle: usize,
    },
    /// Persistent elephant flows over churning mice, one per tick.
    ElephantMice {
        /// Persistent elephant flows.
        elephants: usize,
    },
}

impl Traffic {
    /// The precomputed per-tick sequence (empty for the bimodal
    /// streams, which draw per request).
    fn sequence(&self, n: usize, ticks: usize, seed: u64) -> Vec<DemandMatrix> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00d1_57a2);
        match *self {
            Traffic::Bimodal | Traffic::Keyed { .. } => Vec::new(),
            Traffic::DiurnalFlashCrowd => diurnal_flash_crowd(
                n,
                ticks,
                12,
                0.3,
                600.0 * (n * (n - 1)) as f64,
                &FlashCrowdParams::default(),
                &mut rng,
            ),
            Traffic::NoisyCyclical { cycle } => {
                noisy_cyclical(n, cycle, ticks, 0.1, &BimodalParams::default(), &mut rng)
            }
            Traffic::ElephantMice { elephants } => elephant_mice(
                n,
                ticks,
                &ElephantMiceParams {
                    elephants,
                    ..ElephantMiceParams::default()
                },
                &mut rng,
            ),
        }
    }
}

/// How requests are numbered and counted against the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Every request carries its tick as epoch (same-tick clients
    /// coalesce), and bursts count toward the request budget.
    Tick,
    /// Every request is its own epoch (its submission index), and the
    /// budget counts only the regular per-tick requests: bursts ride
    /// on top.
    Request,
}

/// A malformed request replacing a tick's first request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// An infinite demand entry (NaN is unconstructible in-tree:
    /// `DemandMatrix::from_fn` clamps it away).
    NonFinite,
    /// A zero-node matrix.
    Empty,
    /// Node count disagrees with the graph.
    WrongSize,
    /// No inference budget at all.
    ZeroDeadline,
}

/// One replica of a shard.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// XORed into the run seed (with the shard's salt) to seed this
    /// replica's engines.
    pub seed_salt: u64,
    /// Faults its engines inject, keyed by request epoch.
    pub faults: FaultPlan,
}

/// One shard of the fleet.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The graph it serves.
    pub topology: Topology,
    /// XORed into the run seed for every replica's engines.
    pub seed_salt: u64,
    /// Worker-pool override for this shard only.
    pub pool: Option<PoolConfig>,
    /// Replica 0 starts as primary.
    pub replicas: Vec<ReplicaSpec>,
}

impl ShardSpec {
    /// Whether any replica's engines inject faults.
    pub fn has_faults(&self) -> bool {
        self.replicas
            .iter()
            .any(|r| r.faults.last_epoch().is_some())
    }
}

/// How the committed snapshot store is damaged before a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Torn write: the latest record keeps only its first `n` bytes.
    TornAt(usize),
    /// Torn write: the latest record keeps only its first `1/parts`.
    TornFraction(usize),
    /// Torn write: the latest record loses its last byte.
    TornTail,
    /// Every record file keeps only its first `n` bytes.
    TornAll(usize),
    /// One payload bit of the latest record flips: the `nth` draw of
    /// the run's seeded flip stream.
    FlipBit(usize),
    /// The manifest is lost.
    DropManifest,
    /// The record the manifest points at is lost.
    DropRecord,
    /// The latest record holds the previous generation's bytes: a
    /// stale record under an intact manifest.
    StaleRecord,
}

/// A crash at tick `at`, and a rebuilt fleet recovering from the store.
#[derive(Debug, Clone)]
pub struct Restart {
    /// The running fleet is dropped (no shutdown hook) before this
    /// tick is served.
    pub at: usize,
    /// Event-digest label (`torn_half` gives `torn_half>cold:...`).
    pub label: &'static str,
    /// Damage applied to the store as it stood at the first crash.
    pub damage: Option<Damage>,
    /// Whether the restart must come back warm (else cold).
    pub expect_warm: bool,
}

/// Among the first `within` responses to epochs after `after`, one
/// must be Fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshWithin {
    /// The last epoch of the fault window.
    pub after: u64,
    /// Responses within which a Fresh one must appear.
    pub within: usize,
}

/// Declarative SLO gates. Zero unanswered requests, routings valid on
/// the topology active when served, restarts coming back as expected
/// and no LastGood from a cold-started fleet are always checked.
#[derive(Debug, Clone)]
pub struct Gates {
    /// Maximum p99 ladder depth over all responses.
    pub max_p99_depth: u8,
    /// Recovery after the fault window.
    pub fresh_within: Option<FreshWithin>,
    /// Failovers, summed over shards.
    pub failovers: RangeInclusive<u64>,
    /// Hedged dispatches, summed over shards.
    pub hedges: RangeInclusive<u64>,
    /// Replica recoveries, summed over shards.
    pub recoveries: RangeInclusive<u64>,
    /// Some request must be shed.
    pub must_shed: bool,
    /// At least this many breaker transitions, and every primary's
    /// breaker closed at the end.
    pub breaker_cycle: Option<u64>,
    /// `(k, ratio)`: of each failed-over shard's `k` responses from its
    /// first failover on, at least `ratio` are Fresh.
    pub fresh_after_failover: Option<(usize, f64)>,
    /// Every shard's first response after a warm restore is this rung.
    pub first_post_restore: Option<Rung>,
    /// Every shard without injected faults answers 100% Fresh.
    pub bystanders_fresh: bool,
}

impl Default for Gates {
    fn default() -> Self {
        Gates {
            max_p99_depth: 2,
            fresh_within: None,
            failovers: 0..=u64::MAX,
            hedges: 0..=u64::MAX,
            recoveries: 0..=u64::MAX,
            must_shed: false,
            breaker_cycle: None,
            fresh_after_failover: None,
            first_post_restore: None,
            bystanders_fresh: false,
        }
    }
}

/// A whole scenario, as data. See the module docs.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Unique scenario name.
    pub name: &'static str,
    /// The family the harness selects it by.
    pub tag: Tag,
    /// The fleet's shards, in shard-id order.
    pub shards: Vec<ShardSpec>,
    /// Every controller's config (a shard may override its pool).
    pub controller: ControllerConfig,
    /// Coalescing window, drain threads and admission chunk.
    pub fleet: FleetConfig,
    /// Failover policy; its `seed` is replaced by the run seed.
    pub failover: FailoverConfig,
    /// Hedged dispatch.
    pub hedge: HedgeConfig,
    /// The policy every engine serves.
    pub policy: Policy,
    /// Where demand matrices come from.
    pub traffic: Traffic,
    /// Epoch numbering and request counting.
    pub clock: Clock,
    /// Per-request inference budget.
    pub deadline_ms: u64,
    /// Regular requests per shard per tick.
    pub clients_per_tick: usize,
    /// Ticks at which `burst_size` extra requests per shard arrive.
    pub bursts: Vec<usize>,
    /// Extra requests per shard at each burst tick.
    pub burst_size: usize,
    /// Ticks submitted per [`ShardRouter::run`] call. Above 1, one
    /// admission chunk may span ticks, as in a fleet fed a long stream;
    /// dynamics, link failures and restarts need 1.
    pub ticks_per_run: usize,
    /// Ticks whose first request is replaced by a malformed one.
    pub malformed: Vec<(usize, Malformed)>,
    /// Forced LP-oracle failures injected into every primary at build.
    pub pivot_faults: u64,
    /// Tick at which two seeded link failures degrade every shard's
    /// topology for good.
    pub link_failure_at: Option<usize>,
    /// Live topology churn, applied to every shard (which must then
    /// share one topology).
    pub dynamics: DynamicsPlan,
    /// Crash-and-restart points, in tick order.
    pub restarts: Vec<Restart>,
    /// What the run must meet.
    pub gates: Gates,
    /// Deliberately broken: its gates must fail.
    pub expect_fail: bool,
    /// The run burns an SLO error budget, so a flight recorder must see
    /// an `slo_alert`.
    pub slo_alert: bool,
    /// Smaller request budgets are raised to this.
    pub min_requests: usize,
}

impl ScenarioSpec {
    /// Ticks needed to submit `requests` under this spec's clock.
    fn ticks(&self, requests: usize) -> usize {
        let (mut ticks, mut counted) = (0, 0);
        while counted < requests {
            let burst = if self.clock == Clock::Tick && self.bursts.contains(&ticks) {
                self.burst_size
            } else {
                0
            };
            counted += (self.clients_per_tick + burst) * self.shards.len();
            ticks += 1;
        }
        ticks
    }
}

/// A one-shard cesnet scenario of the given family, one replica per
/// fault plan.
fn cesnet(name: &'static str, tag: Tag, replicas: Vec<FaultPlan>) -> ScenarioSpec {
    // A bare controller's engines are seeded with the run seed itself,
    // replica i's with `seed ^ (i + 1)`.
    let salt = |i: usize| {
        if tag == Tag::Controller {
            0
        } else {
            i as u64 + 1
        }
    };
    let replicas = replicas.into_iter().enumerate();
    let (fleet, clients_per_tick, clock) = match tag {
        Tag::Controller => (fleet_config(1, 1, 64), 1, Clock::Request),
        Tag::Replication => (fleet_config(4, 1, 64), 2, Clock::Tick),
        _ => (FleetConfig::default(), 2, Clock::Tick),
    };
    let mut controller = ControllerConfig::default();
    controller.pool.backoff_base_epochs = 1;
    ScenarioSpec {
        name,
        tag,
        shards: vec![ShardSpec {
            topology: Topology::Zoo("cesnet"),
            seed_salt: 0,
            pool: None,
            replicas: replicas
                .map(|(i, faults)| ReplicaSpec {
                    seed_salt: salt(i),
                    faults,
                })
                .collect(),
        }],
        controller,
        fleet,
        failover: FailoverConfig::default(),
        hedge: HedgeConfig::default(),
        policy: Policy::Mlp {
            memory: 3,
            hidden: vec![8],
        },
        traffic: Traffic::Bimodal,
        clock,
        deadline_ms: DEFAULT_DEADLINE_MS,
        clients_per_tick,
        bursts: Vec::new(),
        burst_size: 0,
        ticks_per_run: 1,
        malformed: Vec::new(),
        pivot_faults: 0,
        link_failure_at: None,
        dynamics: DynamicsPlan::new(),
        restarts: Vec::new(),
        gates: Gates::default(),
        expect_fail: false,
        slo_alert: false,
        min_requests: if tag == Tag::Dynamics { 88 } else { 40 },
    }
}

/// A GNN fleet drill over zoo shards `(name, seed salt, replica
/// salts)`, each request's demands keyed off `seed ^ traffic_salt`.
fn fleet(
    name: &'static str,
    shards: &[(&'static str, u64, &[u64])],
    traffic_salt: u64,
) -> ScenarioSpec {
    let mut spec = cesnet(name, Tag::Fleet, Vec::new());
    spec.shards = shards
        .iter()
        .map(|&(zoo, seed_salt, replicas)| ShardSpec {
            topology: Topology::Zoo(zoo),
            seed_salt,
            pool: None,
            replicas: replicas
                .iter()
                .map(|&seed_salt| ReplicaSpec {
                    seed_salt,
                    faults: FaultPlan::new(),
                })
                .collect(),
        })
        .collect();
    spec.controller = ControllerConfig {
        queue_capacity: 64,
        score_responses: false,
        ..ControllerConfig::default()
    };
    spec.policy = Policy::Gnn(GnnPolicyConfig {
        memory: 3,
        latent: 8,
        hidden: 16,
        message_steps: 2,
        layer_norm: true,
    });
    spec.traffic = Traffic::Keyed { salt: traffic_salt };
    spec.deadline_ms = 10_000;
    spec
}

fn fleet_config(coalesce_window: usize, threads: usize, admit_chunk: usize) -> FleetConfig {
    FleetConfig {
        coalesce_window,
        threads,
        admit_chunk,
    }
}

fn faults(epochs: &[u64], fault: Fault) -> FaultPlan {
    epochs
        .iter()
        .fold(FaultPlan::new(), |plan, &e| plan.at(e, fault.clone()))
}

fn panics(epochs: RangeInclusive<u64>) -> FaultPlan {
    FaultPlan::new().span(epochs, Fault::Panic)
}

fn slow(epochs: RangeInclusive<u64>, cost_ms: u64) -> FaultPlan {
    FaultPlan::new().span(epochs, Fault::Slow { cost_ms })
}

fn fresh(after: u64, within: usize) -> Option<FreshWithin> {
    Some(FreshWithin { after, within })
}

fn failover(threshold: u64, min_hold: u64, hold_jitter: u64, probe_window: u64) -> FailoverConfig {
    FailoverConfig {
        failover_threshold: threshold,
        min_hold,
        hold_jitter,
        probe_window,
        ..FailoverConfig::default()
    }
}

fn flap(count: usize, repair_after: usize) -> DynamicsEvent {
    DynamicsEvent::LinkFlap {
        count,
        repair_after,
    }
}

fn drain(factor: f64, restore_after: usize) -> DynamicsEvent {
    DynamicsEvent::CapacityDrain {
        factor,
        restore_after,
    }
}

fn window(first_replica: usize, replicas: usize, stride: usize) -> DynamicsEvent {
    DynamicsEvent::MaintenanceWindow {
        first_replica,
        replicas,
        stride,
    }
}

fn restart(at: usize, label: &'static str, damage: Option<Damage>, expect_warm: bool) -> Restart {
    Restart {
        at,
        label,
        damage,
        expect_warm,
    }
}

/// Spreads per-shard engine seeds (golden-ratio increments).
fn spread(i: u64) -> u64 {
    i.wrapping_mul(0x9e3779b97f4a7c15)
}

/// Every named scenario, in harness order.
pub fn specs() -> Vec<ScenarioSpec> {
    use Tag::{Controller, Dynamics, Recovery, Replication};
    let none = || vec![FaultPlan::new()];
    let mut out = Vec::new();

    // One controller (a single-replica shard, coalescing off), one
    // request per tick, each request its own epoch.
    let mut s = cesnet("healthy", Controller, none());
    s.gates.max_p99_depth = 0;
    out.push(s);
    let mut s = cesnet(
        "worker_panic",
        Controller,
        vec![faults(&[10, 12, 14, 16], Fault::Panic)],
    );
    s.gates.fresh_within = fresh(16, 10);
    out.push(s);
    // Scoring failures never degrade the rung: the ladder stays fresh
    // while the breaker cycles open and closed.
    let mut s = cesnet("oracle_storm", Controller, none());
    s.pivot_faults = 5;
    s.gates.max_p99_depth = 0;
    s.gates.fresh_within = fresh(2, 10);
    s.gates.breaker_cycle = Some(3);
    out.push(s);
    let mut s = cesnet("slow_inference", Controller, vec![slow(10..=20, 99)]);
    s.gates.fresh_within = fresh(20, 10);
    out.push(s);
    let mut s = cesnet("malformed", Controller, none());
    s.malformed = vec![
        (10, Malformed::NonFinite),
        (13, Malformed::Empty),
        (16, Malformed::WrongSize),
        (18, Malformed::ZeroDeadline),
    ];
    s.gates.fresh_within = fresh(18, 10);
    out.push(s);
    let mut s = cesnet("overload_burst", Controller, none());
    s.controller.queue_capacity = 4;
    (s.bursts, s.burst_size) = (vec![15, 30], 10);
    s.gates.fresh_within = fresh(30, 10);
    s.gates.must_shed = true;
    out.push(s);
    let mut s = cesnet("link_failure", Controller, none());
    s.link_failure_at = Some(15);
    s.gates.fresh_within = fresh(15, 10);
    out.push(s);
    let hang = Fault::Hang { sleep_ms: 400 };
    let mut s = cesnet("hang", Controller, vec![faults(&[10, 20], hang)]);
    s.controller.pool.mode = ExecMode::Threaded;
    s.controller.pool.hang_timeout_ms = 60;
    s.gates.fresh_within = fresh(20, 10);
    out.push(s);
    // Deliberately broken: a panic storm with no restart budget kills
    // the pool, so no fresh response ever returns.
    let mut s = cesnet("budget_zero", Controller, vec![panics(10..=4096)]);
    s.controller.pool.workers = 1;
    s.controller.pool.restart_budget = 0;
    s.gates.fresh_within = fresh(12, 10);
    (s.expect_fail, s.slo_alert) = (true, true);
    out.push(s);

    // Replica sets, two clients per tick, coalescing window 4. The
    // primary's pool dies; the standby takes over, with the fresh ratio
    // back above 90% within 20 responses of the failover.
    let mut s = cesnet(
        "primary_kill_failover",
        Replication,
        vec![panics(10..=14), FaultPlan::new()],
    );
    s.controller.pool.workers = 1;
    s.controller.pool.restart_budget = 1;
    s.gates.failovers = 1..=u64::MAX;
    s.gates.recoveries = 1..=u64::MAX;
    s.gates.fresh_after_failover = Some((20, 0.9));
    out.push(s);
    // A slow-but-correct primary is hedged around, never failed over.
    let mut s = cesnet(
        "hedged_straggler",
        Replication,
        vec![slow(10..=25, 30), FaultPlan::new()],
    );
    s.hedge = HedgeConfig {
        enabled: true,
        threshold_ms: 20,
    };
    s.gates.max_p99_depth = 0;
    s.gates.hedges = 10..=u64::MAX;
    s.gates.failovers = 0..=0;
    out.push(s);
    // Live maintenance under traffic (a link flap, a rolling retool, a
    // capacity drain) plus an overload burst and a slow window, with
    // failover out of reach: the set absorbs everything in place.
    let mut s = cesnet("rolling_retool", Replication, vec![slow(14..=15, 99); 3]);
    s.controller.queue_capacity = 4;
    (s.bursts, s.burst_size) = (vec![8], 10);
    s.failover.failover_threshold = 1_000;
    s.dynamics = DynamicsPlan::new()
        .at(5, flap(2, 4))
        .at(10, window(0, 3, 1))
        .at(13, drain(0.5, 3));
    s.gates.failovers = 0..=0;
    s.gates.must_shed = true;
    out.push(s);
    // Each replica fails in turn: the role ping-pongs 0 -> 1 -> 0 with
    // hysteresis between swaps.
    let mut s = cesnet(
        "flapping_replica",
        Replication,
        vec![panics(8..=11), panics(18..=21)],
    );
    s.controller.pool.workers = 1;
    s.controller.pool.restart_budget = 1;
    s.failover = failover(2, 4, 2, 4);
    s.gates.failovers = 2..=u64::MAX;
    s.gates.recoveries = 1..=u64::MAX;
    out.push(s);
    // Deliberately broken: every replica dies with no restart budget,
    // so no failover target can ever serve fresh.
    let mut s = cesnet(
        "replicas_exhausted",
        Replication,
        vec![panics(10..=4096); 2],
    );
    s.controller.pool.workers = 1;
    s.controller.pool.restart_budget = 0;
    s.failover.failover_threshold = 2;
    s.gates.failovers = 1..=u64::MAX;
    s.gates.fresh_after_failover = Some((20, 0.9));
    (s.expect_fail, s.slo_alert) = (true, true);
    out.push(s);

    // Live dynamics over two replicas: fresh service must resume within
    // 12 responses of the last event window closing. A day/night cycle
    // with a flash crowd at its shoulder and a mid-spike link flap, on
    // two shards.
    let mut s = cesnet("diurnal_flash_crowd", Dynamics, vec![FaultPlan::new(); 2]);
    s.shards.push(s.shards[0].clone());
    s.traffic = Traffic::DiurnalFlashCrowd;
    s.dynamics = DynamicsPlan::new().at(10, flap(1, 6));
    s.gates.fresh_within = fresh(16, 12);
    out.push(s);
    // A rolling retool window overlapping a capacity drain, with
    // failover out of reach.
    let mut s = cesnet("rolling_maintenance", Dynamics, vec![FaultPlan::new(); 3]);
    s.traffic = Traffic::NoisyCyclical { cycle: 6 };
    s.failover.failover_threshold = 1_000;
    s.dynamics = DynamicsPlan::new()
        .at(6, window(0, 3, 2))
        .at(8, drain(0.6, 4));
    s.gates.fresh_within = fresh(12, 12);
    s.gates.failovers = 0..=0;
    out.push(s);
    // Overlapping seeded flaps on a 100-node hierarchical WAN: the
    // active topology changes nearly every other tick.
    let mut s = cesnet("flap_storm", Dynamics, vec![FaultPlan::new(); 2]);
    s.shards[0].topology = Topology::HierWan {
        nodes: 100,
        salt: 0x1a57,
    };
    s.controller.score_responses = false;
    s.policy = Policy::Mlp {
        memory: 2,
        hidden: vec![8],
    };
    s.traffic = Traffic::ElephantMice { elephants: 6 };
    let edge0 = DynamicsEvent::FlapEdge {
        edge: 0,
        repair_after: 4,
    };
    s.dynamics = DynamicsPlan::new()
        .at(4, flap(2, 5))
        .at(7, flap(2, 5))
        .at(10, edge0)
        .at(13, flap(1, 4));
    s.gates.fresh_within = fresh(17, 12);
    out.push(s);
    // A 400-node hierarchical WAN served end to end under overlapping
    // capacity drains and a flap; policy sizes shrink so an engine
    // stays a few megabytes.
    let mut s = cesnet("big_wan_drain", Dynamics, vec![FaultPlan::new(); 2]);
    s.shards[0].topology = Topology::HierWan {
        nodes: 400,
        salt: 0xb16,
    };
    s.controller.score_responses = false;
    s.policy = Policy::Mlp {
        memory: 1,
        hidden: vec![4],
    };
    s.clients_per_tick = 1;
    s.traffic = Traffic::ElephantMice { elephants: 12 };
    s.dynamics = DynamicsPlan::new()
        .at(4, drain(0.5, 6))
        .at(6, drain(0.7, 6))
        .at(9, flap(2, 4));
    s.gates.fresh_within = fresh(13, 12);
    out.push(s);
    // Deliberately broken: both replicas die under a panic storm while
    // a flap window is open, so nothing fresh follows the horizon.
    let mut s = cesnet("broken_blackout", Dynamics, vec![panics(6..=4096); 2]);
    s.controller.pool.workers = 1;
    s.controller.pool.restart_budget = 0;
    s.failover.failover_threshold = 2;
    s.traffic = Traffic::NoisyCyclical { cycle: 4 };
    s.dynamics = DynamicsPlan::new().at(4, flap(1, 4));
    s.gates.max_p99_depth = 3;
    s.gates.fresh_within = fresh(8, 10);
    (s.expect_fail, s.slo_alert) = (true, true);
    out.push(s);

    // Crash and restart from the snapshot store. A clean crash
    // half-way comes back warm, rides the restored LastGood rung, then
    // infers fresh again.
    let mut s = cesnet("process_crash_recovery", Recovery, none());
    s.restarts = vec![restart(12, "", None, true)];
    s.gates.fresh_within = fresh(11, usize::MAX);
    s.gates.first_post_restore = Some(Rung::LastGood);
    out.push(s);
    // Torn writes inside and past the header, seeded payload bit flips
    // and missing files, each a clean typed cold start. Labels carry no
    // byte positions: the record length is not replay-stable.
    let mut s = cesnet("corrupt_snapshot", Recovery, none());
    s.restarts = [
        ("torn_empty", Damage::TornAt(0)),
        ("torn_hdr7", Damage::TornAt(7)),
        ("torn_hdr19", Damage::TornAt(19)),
        ("torn_third", Damage::TornFraction(3)),
        ("torn_half", Damage::TornFraction(2)),
        ("torn_tail", Damage::TornTail),
        ("flip0", Damage::FlipBit(0)),
        ("flip1", Damage::FlipBit(1)),
        ("flip2", Damage::FlipBit(2)),
        ("flip3", Damage::FlipBit(3)),
        ("no_manifest", Damage::DropManifest),
        ("no_record", Damage::DropRecord),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (label, damage))| restart(4 + i, label, Some(damage), false))
    .collect();
    out.push(s);
    // Deliberately broken: the manifest pins bytes that hold the
    // previous generation. The store rightly refuses the warm restore
    // this spec demands.
    let mut s = cesnet("manifest_lies", Recovery, none());
    s.restarts = vec![restart(4, "", Some(Damage::StaleRecord), true)];
    s.expect_fail = true;
    out.push(s);

    // GNN fleet drills. Blast radius: one of 11 zoo shards panics on
    // every epoch with no restart budget; every other shard stays
    // Fresh.
    let zoo_names = [
        "abilene", "nsfnet", "arpanet", "cesnet", "b4", "garr", "renater", "uninett", "geant",
        "janet", "sprint",
    ];
    let shards: Vec<_> = (0..zoo_names.len() as u64)
        .map(|i| (zoo_names[i as usize], spread(i), &[0][..]))
        .collect();
    let mut s = fleet("fleet_blast_radius", &shards, 0xc4a05);
    s.shards[8].pool = Some(PoolConfig {
        workers: 1,
        restart_budget: 0,
        ..PoolConfig::default()
    });
    s.shards[8].replicas[0].faults = panics(1..=4096);
    s.clients_per_tick = 4;
    s.ticks_per_run = usize::MAX;
    s.gates.bystanders_fresh = true;
    s.slo_alert = true;
    s.min_requests = 8 * 4 * 11;
    out.push(s);
    // Two replicas per shard; geant's primary dies over a window and its
    // batches are hedged to the standby. Real engines report wall-clock
    // cost, so the straggler threshold sits far above scheduler noise:
    // only the injected panics trigger hedges.
    let pair = &[0, 0x5eed][..];
    let shards = [
        ("cesnet", spread(1), pair),
        ("abilene", spread(2), pair),
        ("geant", spread(3), pair),
    ];
    let mut s = fleet("fleet_failover", &shards, 0x5e1f);
    s.shards[2].pool = Some(PoolConfig {
        workers: 1,
        restart_budget: 1,
        ..PoolConfig::default()
    });
    s.shards[2].replicas[0].faults = panics(2..=6);
    s.clients_per_tick = 3;
    s.ticks_per_run = usize::MAX;
    s.failover = failover(3, 6, 2, 4);
    s.hedge = HedgeConfig {
        enabled: true,
        threshold_ms: 5_000,
    };
    s.gates.failovers = 1..=u64::MAX;
    s.gates.recoveries = 1..=u64::MAX;
    s.gates.fresh_after_failover = Some((48, 0.9));
    s.gates.bystanders_fresh = true;
    s.min_requests = 16 * 3 * 3;
    out.push(s);
    // Crash half-way and restore warm, then restart again from a store
    // whose every record is torn: a clean cold start that still serves.
    let shards = [
        ("cesnet", spread(21), &[0][..]),
        ("abilene", spread(22), &[0][..]),
        ("geant", spread(23), &[0][..]),
    ];
    let mut s = fleet("fleet_recovery_drill", &shards, 0xd811);
    s.restarts = vec![
        restart(4, "", None, true),
        restart(8, "torn_all", Some(Damage::TornAll(10)), false),
    ];
    s.gates.first_post_restore = Some(Rung::LastGood);
    s.min_requests = 9 * 2 * 3;
    out.push(s);
    out
}

/// The named scenario.
pub fn spec(name: &str) -> Option<ScenarioSpec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Scenarios selected by `all`, a tag name, or a comma-separated list
/// of scenario names.
///
/// # Errors
///
/// Returns [`ServeError::Config`] naming the first unknown scenario.
pub fn select(filter: &str) -> Result<Vec<ScenarioSpec>, ServeError> {
    let table = specs();
    if filter == "all" {
        return Ok(table);
    }
    let tagged: Vec<ScenarioSpec> = table
        .iter()
        .filter(|s| s.tag.name() == filter)
        .cloned()
        .collect();
    if !tagged.is_empty() {
        return Ok(tagged);
    }
    filter
        .split(',')
        .map(|name| {
            table
                .iter()
                .find(|s| s.name == name)
                .cloned()
                .ok_or_else(|| ServeError::Config(format!("unknown scenario '{name}'")))
        })
        .collect()
}

/// Mixes the scenario name into a base seed so scenarios don't share
/// traffic streams.
pub fn scenario_seed(base: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    base ^ h
}

/// One shard at the end of a run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard name (the topology name, suffixed `-s<i>` when several
    /// shards serve the same topology).
    pub name: String,
    /// One letter per response of this shard, in serving order.
    pub rung_sequence: String,
    /// Replication counters and failover log of the final fleet.
    pub stats: ReplicaStats,
    /// Health of the final primary.
    pub health: HealthState,
    /// Live workers of the final primary.
    pub alive_workers: usize,
    /// Whether the final primary's breaker is closed.
    pub breaker_closed: bool,
}

/// How one restart came back.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Tick the restarted fleet started serving at.
    pub at: usize,
    /// Whether it restored warm.
    pub warm: bool,
    /// The restored generation (0 when cold).
    pub generation: u64,
    /// Typed store error kind of a cold start (empty when warm).
    pub cold_kind: &'static str,
    /// Wall-clock nanoseconds `recover_from` took. Not part of any
    /// digest.
    pub restore_ns: u64,
    /// Per shard, the rungs of the first tick served after the restart.
    pub first_tick: Vec<String>,
    /// Every rung the restarted fleet served, in order.
    pub rungs: String,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Request budget used (the caller's, raised to the spec minimum).
    pub requests: usize,
    /// Requests submitted.
    pub submitted: usize,
    /// Responses received.
    pub answered: usize,
    /// One letter per response (`F`/`L`/`E`/`S`): fleet runs in order,
    /// shards in order within a run.
    pub rung_sequence: String,
    /// Requests shed (still answered), summed over shards.
    pub shed: u64,
    /// Worker restarts, summed over shards.
    pub worker_restarts: u64,
    /// Breaker state changes, summed over shards.
    pub breaker_transitions: u64,
    /// 99th-percentile ladder depth over all responses.
    pub p99_depth: u8,
    /// Primary failovers, summed over shards.
    pub failovers: u64,
    /// Hedged batch dispatches, summed over shards.
    pub hedges: u64,
    /// Replicas recovered through a shadow-probe window.
    pub recoveries: u64,
    /// Per-shard failover digests (`0>1@24;^0@34`) joined by `|`.
    pub failover_sequence: String,
    /// Applied dynamics events then restart outcomes
    /// (`flap2@5;repair@9`, `warm(g12)@t12`, `torn_half>cold:...`).
    pub event_sequence: String,
    /// Per-shard detail, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-restart detail, in order.
    pub restarts: Vec<RestartReport>,
    /// SLO violations (empty = pass).
    pub violations: Vec<String>,
}

impl ScenarioOutcome {
    /// Whether every SLO held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

pub(crate) fn p99_depth(depths: &[u8]) -> u8 {
    if depths.is_empty() {
        return 0;
    }
    let mut sorted = depths.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// Restarted fleets read the store but never write it, so one
/// restart's serving cannot heal the damage the next one injects.
const PASSIVE: SnapshotPolicy = SnapshotPolicy {
    every_runs: u64::MAX,
    warm_epochs: 2,
};

/// Store directories are unique per run: two same-seed runs of one
/// scenario in one process must never share (and corrupt) a store.
static STORE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Serves `spec` with `seed` for at least `requests` requests (raised
/// to `spec.min_requests`) and evaluates its gates.
///
/// # Errors
///
/// Returns [`ServeError`] for specs the fleet cannot build or serve
/// (unknown topologies, invalid dynamics plans, dynamics over shards
/// with different topologies, store I/O failures). SLO failures are
/// reported in [`ScenarioOutcome::violations`], not as `Err`.
pub fn run(spec: &ScenarioSpec, seed: u64, requests: usize) -> Result<ScenarioOutcome, ServeError> {
    if spec.restarts.is_empty() {
        return Run::serve(spec, seed, requests, None);
    }
    let dir = std::env::temp_dir().join(format!(
        "gddr-scenario-{}-{seed}-{}-{}",
        spec.name,
        std::process::id(),
        STORE_RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = Run::serve(spec, seed, requests, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The state of one run.
struct Run<'a> {
    spec: &'a ScenarioSpec,
    seed: u64,
    graphs: Vec<Graph>,
    names: Vec<String>,
    store: Option<&'a Path>,
    /// Per shard, the topology currently applied.
    active: Vec<Graph>,
    /// Per response: (epoch, rung).
    served: Vec<(u64, Rung)>,
    shard_rungs: Vec<String>,
    invalid: usize,
    events: Vec<String>,
    restarts: Vec<RestartReport>,
}

impl<'a> Run<'a> {
    fn serve(
        spec: &'a ScenarioSpec,
        seed: u64,
        requests: usize,
        store: Option<&'a Path>,
    ) -> Result<ScenarioOutcome, ServeError> {
        let churn = !spec.dynamics.is_empty()
            || !spec.restarts.is_empty()
            || spec.link_failure_at.is_some();
        if spec.shards.is_empty()
            || spec.clients_per_tick == 0
            || spec.ticks_per_run == 0
            || (churn && spec.ticks_per_run > 1)
        {
            return Err(ServeError::Config(format!(
                "scenario '{}' needs a shard, a client per tick, and one tick per run under churn",
                spec.name
            )));
        }
        let requests = requests.max(spec.min_requests);
        let ticks = spec.ticks(requests);
        if let Some(late) = spec.restarts.iter().find(|r| r.at == 0 || r.at >= ticks) {
            return Err(ServeError::Config(format!(
                "restart at tick {} falls outside ticks 1..{ticks}",
                late.at
            )));
        }
        let graphs = spec
            .shards
            .iter()
            .map(|s| s.topology.build(seed))
            .collect::<Result<Vec<_>, _>>()?;
        // Shards are named after their topology, suffixed `-s<i>` when
        // several serve the same one.
        let names: Vec<String> = spec
            .shards
            .iter()
            .zip(&graphs)
            .enumerate()
            .map(|(i, (shard, graph))| {
                let name = match shard.topology {
                    Topology::Zoo(name) => name,
                    Topology::HierWan { .. } => graph.name(),
                };
                if spec
                    .shards
                    .iter()
                    .filter(|s| s.topology == shard.topology)
                    .count()
                    > 1
                {
                    format!("{name}-s{i}")
                } else {
                    name.to_string()
                }
            })
            .collect();
        let timeline = if spec.dynamics.is_empty() {
            None
        } else {
            if spec
                .shards
                .iter()
                .any(|s| s.topology != spec.shards[0].topology)
            {
                return Err(ServeError::Config(
                    "a dynamics plan needs every shard on one topology".to_string(),
                ));
            }
            let replicas = spec.shards.iter().map(|s| s.replicas.len()).min();
            Some(
                DynamicsTimeline::compile(&spec.dynamics, &graphs[0], replicas.unwrap_or(0), seed)
                    .map_err(|e| ServeError::Config(format!("dynamics plan: {e}")))?,
            )
        };
        let sequence = spec.traffic.sequence(graphs[0].num_nodes(), ticks, seed);
        let mut stream = StdRng::seed_from_u64(seed);
        let mut injector = FailureInjector::from_seed(2, seed ^ 0xabcd);

        let mut run = Run {
            spec,
            seed,
            active: graphs.clone(),
            shard_rungs: vec![String::new(); graphs.len()],
            graphs,
            names,
            store,
            served: Vec::new(),
            invalid: 0,
            events: timeline
                .iter()
                .map(|t| t.event_sequence().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
            restarts: Vec::new(),
        };
        let mut fleet = run.build()?;
        if let Some(dir) = store {
            fleet.enable_snapshots(
                dir,
                SnapshotPolicy {
                    every_runs: 1,
                    warm_epochs: 2,
                },
            )?;
        }
        let mut pristine: Option<Vec<(PathBuf, Vec<u8>)>> = None;
        let mut submitted = 0usize;
        let mut batch = Vec::new();

        for tick in 0..ticks {
            for restart in spec.restarts.iter().filter(|r| r.at == tick) {
                // The crash: no shutdown hook runs, only the committed
                // store survives.
                drop(fleet);
                fleet = run.restart(restart, &mut pristine)?;
            }
            // Topology changes land before same-tick retools.
            let actions = timeline.as_ref().and_then(|t| t.actions(tick));
            let mut topology = None;
            if spec.link_failure_at == Some(tick) {
                topology = Some(run.graphs.iter().map(|g| injector.degrade(g).0).collect());
            }
            if let Some(g) = actions.and_then(|a| a.topology.as_ref()) {
                topology = Some(vec![g.clone(); run.graphs.len()]);
            }
            if let Some(graphs) = topology {
                run.active = graphs;
                run.apply_active(&fleet)?;
            }
            for &r in actions.map_or(&[][..], |a| &a.retools) {
                for s in 0..run.graphs.len() {
                    fleet.with_replica_set(s, |set| set.retool_replica(r))??;
                }
            }

            let burst = if spec.bursts.contains(&tick) {
                spec.burst_size
            } else {
                0
            };
            for client in 0..spec.clients_per_tick + burst {
                for (s, graph) in run.graphs.iter().enumerate() {
                    let n = graph.num_nodes();
                    let demands = match spec.traffic {
                        Traffic::Bimodal => bimodal(n, &BimodalParams::default(), &mut stream),
                        Traffic::Keyed { salt } => {
                            let key = (tick as u64) << 24 | (client as u64) << 8 | s as u64;
                            let mut rng = StdRng::seed_from_u64(
                                (seed ^ salt) ^ key.wrapping_mul(0x100000001b3),
                            );
                            bimodal(n, &BimodalParams::default(), &mut rng)
                        }
                        _ => sequence[tick % sequence.len()].clone(),
                    };
                    let epoch = match spec.clock {
                        Clock::Tick => tick as u64,
                        Clock::Request => submitted as u64,
                    };
                    let malformed = spec
                        .malformed
                        .iter()
                        .find(|&&(at, _)| at == tick && client == 0)
                        .map(|&(_, kind)| kind);
                    batch.push(FleetRequest {
                        topology: run.names[s].clone(),
                        request: request(epoch, demands, spec.deadline_ms, malformed),
                    });
                    submitted += 1;
                }
            }
            if (tick + 1) % spec.ticks_per_run != 0 && tick + 1 < ticks {
                continue;
            }
            let mut tick_rungs = Vec::with_capacity(run.graphs.len());
            for (s, outcome) in fleet.run(&std::mem::take(&mut batch))?.iter().enumerate() {
                for resp in &outcome.responses {
                    run.invalid += usize::from(!resp.routing.validate(&run.active[s]).is_empty());
                    run.served.push((resp.epoch, resp.rung));
                }
                let rungs = outcome.rung_sequence();
                run.shard_rungs[s].push_str(&rungs);
                tick_rungs.push(rungs);
            }
            if let Some(report) = run.restarts.last_mut() {
                report
                    .rungs
                    .extend(tick_rungs.iter().flat_map(|r| r.chars()));
                if report.at == tick {
                    report.first_tick = tick_rungs;
                }
            }
        }
        run.finish(&fleet, requests, submitted)
    }

    /// Builds the fleet from the spec: one replicated shard per
    /// [`ShardSpec`], oracle pivot faults injected into every primary.
    fn build(&self) -> Result<ShardRouter, ServeError> {
        let spec = self.spec;
        let mut fleet = ShardRouter::new(spec.fleet.clone())?;
        let env = DdrEnvConfig {
            memory: spec.policy.memory(),
            ..DdrEnvConfig::default()
        };
        let failover = FailoverConfig {
            seed: self.seed,
            ..spec.failover.clone()
        };
        for (s, shard) in spec.shards.iter().enumerate() {
            let mut config = spec.controller.clone();
            if let Some(pool) = &shard.pool {
                config.pool = pool.clone();
            }
            let factories = shard
                .replicas
                .iter()
                .map(|r| {
                    spec.policy
                        .factory(self.seed ^ shard.seed_salt ^ r.seed_salt, &r.faults)
                })
                .collect();
            fleet.add_replicated_shard(
                &self.names[s],
                self.graphs[s].clone(),
                env,
                config,
                factories,
                failover.clone(),
                spec.hedge.clone(),
            )?;
            if spec.pivot_faults > 0 {
                fleet.with_controller(s, |c| c.oracle().inject_pivot_limit(spec.pivot_faults))?;
            }
        }
        Ok(fleet)
    }

    /// Puts every shard whose active topology differs from its base
    /// graph onto the active one.
    fn apply_active(&self, fleet: &ShardRouter) -> Result<(), ServeError> {
        for (s, graph) in self.active.iter().enumerate() {
            fleet.with_replica_set(s, |set| set.apply_topology(graph.clone()))??;
        }
        Ok(())
    }

    /// Rebuilds the fleet after a crash: resets the store to what the
    /// first crash left, damages it, and recovers.
    fn restart(
        &mut self,
        restart: &Restart,
        pristine: &mut Option<Vec<(PathBuf, Vec<u8>)>>,
    ) -> Result<ShardRouter, ServeError> {
        let io = |e: std::io::Error| ServeError::Config(format!("snapshot store: {e}"));
        let dir = self
            .store
            .ok_or_else(|| ServeError::Config("restart without a store".to_string()))?;
        match pristine {
            None => *pristine = Some(read_store(dir).map_err(io)?),
            Some(files) => {
                std::fs::remove_dir_all(dir).map_err(io)?;
                std::fs::create_dir_all(dir).map_err(io)?;
                for (path, bytes) in files.iter() {
                    std::fs::write(path, bytes).map_err(io)?;
                }
            }
        }
        if let Some(damage) = restart.damage {
            damage_store(dir, damage, self.seed)?;
        }
        let mut fleet = self.build()?;
        fleet.enable_snapshots(dir, PASSIVE)?;
        if self.active != self.graphs {
            self.apply_active(&fleet)?;
        }
        let start = Instant::now();
        let recovery = fleet.recover_from();
        let restore_ns = start.elapsed().as_nanos() as u64;
        let prefix = if restart.label.is_empty() {
            String::new()
        } else {
            format!("{}>", restart.label)
        };
        let (warm, generation, cold_kind) = match &recovery {
            RecoveryReport::Warm { generation, tick } => {
                self.events
                    .push(format!("{prefix}warm(g{generation})@t{tick}"));
                (true, *generation, "")
            }
            RecoveryReport::Cold { error } => {
                self.events
                    .push(format!("{prefix}cold:{}", error.kind_name()));
                (false, 0, error.kind_name())
            }
        };
        self.restarts.push(RestartReport {
            at: restart.at,
            warm,
            generation,
            cold_kind,
            restore_ns,
            first_tick: Vec::new(),
            rungs: String::new(),
        });
        Ok(fleet)
    }

    fn finish(
        mut self,
        fleet: &ShardRouter,
        requests: usize,
        submitted: usize,
    ) -> Result<ScenarioOutcome, ServeError> {
        let (mut shards, mut worker_restarts, mut breaker_transitions) = (Vec::new(), 0, 0);
        for (s, name) in self.names.iter().enumerate() {
            let report = fleet.with_replica_set(s, |set| {
                worker_restarts += set.worker_restarts();
                for i in 0..set.replica_count() {
                    breaker_transitions += set
                        .with_replica(i, |c| c.stats().breaker_transitions)
                        .unwrap_or(0);
                }
                let (alive_workers, breaker_closed) = set.with_primary(|c| {
                    (c.alive_workers(), c.breaker_state() == BreakerState::Closed)
                });
                ShardReport {
                    name: name.clone(),
                    rung_sequence: std::mem::take(&mut self.shard_rungs[s]),
                    stats: set.stats().clone(),
                    health: set.health(),
                    alive_workers,
                    breaker_closed,
                }
            })?;
            shards.push(report);
        }
        let sum = |f: fn(&ReplicaStats) -> u64| shards.iter().map(|s| f(&s.stats)).sum::<u64>();
        let depths: Vec<u8> = self.served.iter().map(|(_, r)| r.depth()).collect();
        let mut outcome = ScenarioOutcome {
            name: self.spec.name.to_string(),
            seed: self.seed,
            requests,
            submitted,
            answered: self.served.len(),
            rung_sequence: self.served.iter().map(|(_, r)| r.letter()).collect(),
            shed: sum(|s| s.shed),
            worker_restarts,
            breaker_transitions,
            p99_depth: p99_depth(&depths),
            failovers: sum(|s| s.failovers),
            hedges: sum(|s| s.hedges_fired),
            recoveries: sum(|s| s.recoveries),
            failover_sequence: shards
                .iter()
                .map(|s| s.stats.failover_sequence())
                .collect::<Vec<_>>()
                .join("|"),
            event_sequence: self.events.join(";"),
            shards,
            restarts: self.restarts,
            violations: Vec::new(),
        };
        outcome.violations = evaluate(self.spec, &outcome, &self.served, self.invalid);
        Ok(outcome)
    }
}

fn request(
    epoch: u64,
    demands: DemandMatrix,
    deadline_ms: u64,
    malformed: Option<Malformed>,
) -> EpochRequest {
    let n = demands.num_nodes();
    let (demands, deadline_ms) = match malformed {
        None => (demands, deadline_ms),
        Some(Malformed::NonFinite) => (
            DemandMatrix::from_fn(n, |s, d| {
                if s == 0 && d == 1 {
                    f64::INFINITY
                } else {
                    demands.get(s, d)
                }
            }),
            deadline_ms,
        ),
        Some(Malformed::Empty) => (DemandMatrix::zeros(0), deadline_ms),
        Some(Malformed::WrongSize) => (DemandMatrix::zeros(n + 3), deadline_ms),
        Some(Malformed::ZeroDeadline) => (demands, 0),
    };
    EpochRequest {
        epoch,
        demands,
        deadline_ms,
    }
}

fn read_store(dir: &Path) -> std::io::Result<Vec<(PathBuf, Vec<u8>)>> {
    std::fs::read_dir(dir)?
        .map(|entry| {
            let path = entry?.path();
            let bytes = std::fs::read(&path)?;
            Ok((path, bytes))
        })
        .collect()
}

fn damage_store(dir: &Path, damage: Damage, seed: u64) -> Result<(), ServeError> {
    let store_err = |e: gddr_store::StoreError| ServeError::Config(format!("snapshot store: {e}"));
    let io = |e: std::io::Error| ServeError::Config(format!("damage store: {e}"));
    let store = Store::open(dir).map_err(store_err)?;
    let latest = store.manifest().map_err(store_err)?.generation;
    let record = store.record_path(latest);
    let bytes = std::fs::read(&record).map_err(io)?;
    let len = bytes.len();
    let keep = |k: usize| std::fs::write(&record, &bytes[..k.min(len)]).map_err(io);
    match damage {
        Damage::TornAt(k) => keep(k),
        Damage::TornFraction(parts) => keep(len / parts.max(1)),
        Damage::TornTail => keep(len.saturating_sub(1)),
        Damage::TornAll(k) => {
            for (path, bytes) in read_store(dir).map_err(io)? {
                if path.extension().is_some_and(|e| e == "rec") {
                    std::fs::write(&path, &bytes[..k.min(bytes.len())]).map_err(io)?;
                }
            }
            Ok(())
        }
        Damage::FlipBit(nth) => {
            // Payload-only flips, so the class is always a checksum
            // mismatch whatever the record length.
            let header = gddr_store::RECORD_HEADER_LEN;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
            for _ in 0..2 * nth {
                rng.next_u64();
            }
            let pos = header + (rng.next_u64() as usize) % (len - header).max(1);
            let bit = (rng.next_u64() % 8) as u8;
            let mut flipped = bytes.clone();
            if let Some(byte) = flipped.get_mut(pos) {
                *byte ^= 1 << bit;
            }
            std::fs::write(&record, &flipped).map_err(io)
        }
        Damage::DropManifest => std::fs::remove_file(store.manifest_path()).map_err(io),
        Damage::DropRecord => std::fs::remove_file(&record).map_err(io),
        Damage::StaleRecord => {
            let stale = std::fs::read(store.record_path(latest.saturating_sub(1))).map_err(io)?;
            std::fs::write(&record, stale).map_err(io)
        }
    }
}

/// The gate evaluator: every SLO violation of one run.
fn evaluate(
    spec: &ScenarioSpec,
    outcome: &ScenarioOutcome,
    served: &[(u64, Rung)],
    invalid: usize,
) -> Vec<String> {
    let gates = &spec.gates;
    let mut v = Vec::new();
    if outcome.answered != outcome.submitted {
        v.push(format!(
            "unanswered requests: submitted {}, answered {}",
            outcome.submitted, outcome.answered
        ));
    }
    if invalid > 0 {
        v.push(format!(
            "{invalid} responses carried routings invalid for the active topology"
        ));
    }
    if outcome.p99_depth > gates.max_p99_depth {
        v.push(format!(
            "p99 ladder depth {} exceeds bound {}",
            outcome.p99_depth, gates.max_p99_depth
        ));
    }
    if let Some(FreshWithin { after, within }) = gates.fresh_within {
        let recovered = served
            .iter()
            .filter(|&&(epoch, _)| epoch > after)
            .take(within)
            .any(|&(_, rung)| rung == Rung::Fresh);
        if !recovered {
            v.push(format!(
                "no fresh response within {within} requests after epoch {after}"
            ));
        }
    }
    for (what, count, range) in [
        ("failovers", outcome.failovers, &gates.failovers),
        ("hedged dispatches", outcome.hedges, &gates.hedges),
        ("replica recoveries", outcome.recoveries, &gates.recoveries),
    ] {
        if !range.contains(&count) {
            v.push(format!("{count} {what}, expected {range:?}"));
        }
    }
    if gates.must_shed && outcome.shed == 0 {
        v.push("overload never shed (queue bound not exercised)".to_string());
    }
    if let Some(min) = gates.breaker_cycle {
        if outcome.breaker_transitions < min {
            v.push(format!(
                "breaker saw only {} transitions (expected at least {min})",
                outcome.breaker_transitions
            ));
        }
        if outcome.shards.iter().any(|s| !s.breaker_closed) {
            v.push("breaker failed to close after the storm".to_string());
        }
    }
    if let Some((k, ratio)) = gates.fresh_after_failover {
        let mut any = false;
        for shard in &outcome.shards {
            // The failover clock ticks once per answered request, so
            // the first failover's clock indexes the shard's responses.
            let Some(clock) = shard.stats.log.iter().find_map(|t| match t {
                ReplicaTransition::Failover { clock, .. } => Some(*clock as usize),
                ReplicaTransition::Recovered { .. } => None,
            }) else {
                continue;
            };
            any = true;
            let window: Vec<char> = shard.rung_sequence.chars().skip(clock).take(k).collect();
            let fresh = window
                .iter()
                .filter(|&&c| c == Rung::Fresh.letter())
                .count();
            if window.is_empty() || (fresh as f64) < ratio * window.len() as f64 {
                v.push(format!(
                    "shard {}: fresh ratio {fresh}/{} within {k} responses of failover below {ratio}",
                    shard.name,
                    window.len()
                ));
            }
        }
        if !any {
            v.push("fresh-after-failover gate set but no failover ever fired".to_string());
        }
    }
    for (restart, expected) in outcome.restarts.iter().zip(&spec.restarts) {
        if restart.warm != expected.expect_warm {
            let (want, got) = if restart.warm {
                ("cold", format!("warm (generation {})", restart.generation))
            } else {
                ("a warm restore", format!("cold ({})", restart.cold_kind))
            };
            v.push(format!(
                "restart at tick {} came back {got} but the spec demands {want}",
                restart.at
            ));
        }
        if !restart.warm && restart.rungs.contains(Rung::LastGood.letter()) {
            v.push(format!(
                "restart at tick {}: cold start served restored state",
                restart.at
            ));
        }
        let Some(rung) = gates.first_post_restore.filter(|_| restart.warm) else {
            continue;
        };
        for (shard, rungs) in outcome.shards.iter().zip(&restart.first_tick) {
            if !rungs.starts_with(rung.letter()) {
                v.push(format!(
                    "shard {}: first post-restore rungs '{rungs}', expected {}",
                    shard.name,
                    rung.name()
                ));
            }
        }
    }
    if gates.bystanders_fresh {
        for (shard, spec) in outcome.shards.iter().zip(&spec.shards) {
            let degraded = shard
                .rung_sequence
                .chars()
                .filter(|&c| c != Rung::Fresh.letter())
                .count();
            if !spec.has_faults() && degraded > 0 {
                v.push(format!(
                    "bystander shard {} degraded {degraded} responses (blast radius escaped)",
                    shard.name
                ));
            }
        }
    }
    v
}

/// The committed golden digests: one tab-separated row per
/// `(name, seed, requests)`.
const GOLDEN: &str = include_str!("../golden/scenarios.tsv");

/// Compares `outcome` with its committed golden row. `None` when no row
/// exists for its `(name, seed, requests)`; otherwise one entry per
/// mismatching column (empty = match).
pub fn golden_mismatches(outcome: &ScenarioOutcome) -> Option<Vec<String>> {
    let (seed, requests) = (outcome.seed.to_string(), outcome.requests.to_string());
    let key = [outcome.name.as_str(), seed.as_str(), requests.as_str()];
    let actual = [
        outcome.submitted.to_string(),
        outcome.answered.to_string(),
        (if outcome.passed() { "pass" } else { "fail" }).to_string(),
        outcome.rung_sequence.clone(),
        outcome.failover_sequence.clone(),
        outcome.event_sequence.clone(),
    ];
    let columns = [
        "submitted",
        "answered",
        "verdict",
        "rung_sequence",
        "failover_sequence",
        "event_sequence",
    ];
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split('\t').collect::<Vec<_>>())
        .find(|f| f.len() == 9 && f[..3] == key)
        .map(|f| {
            columns
                .iter()
                .zip(&f[3..])
                .zip(&actual)
                .filter(|((_, want), got)| **want != got.as_str())
                .map(|((column, want), got)| format!("{column}: golden '{want}', got '{got}'"))
                .collect()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamondish() -> Graph {
        zoo::cesnet()
    }

    #[test]
    fn plan_validation_catches_degenerate_inputs() {
        let g = diamondish();
        let zero = DynamicsPlan::new().at(
            3,
            DynamicsEvent::LinkFlap {
                count: 1,
                repair_after: 0,
            },
        );
        assert_eq!(
            zero.validate(&g, 2),
            Err(ScenarioError::ZeroDuration { tick: 3 })
        );
        let bad_edge = DynamicsPlan::new().at(
            0,
            DynamicsEvent::FlapEdge {
                edge: 10_000,
                repair_after: 2,
            },
        );
        assert!(matches!(
            bad_edge.validate(&g, 2),
            Err(ScenarioError::UnknownEdge { .. })
        ));
        let bad_factor = DynamicsPlan::new().at(
            0,
            DynamicsEvent::CapacityDrain {
                factor: -0.5,
                restore_after: 2,
            },
        );
        assert!(matches!(
            bad_factor.validate(&g, 2),
            Err(ScenarioError::InvalidFactor { .. })
        ));
        let bad_replica = DynamicsPlan::new().at(
            0,
            DynamicsEvent::MaintenanceWindow {
                first_replica: 1,
                replicas: 4,
                stride: 1,
            },
        );
        assert!(matches!(
            bad_replica.validate(&g, 2),
            Err(ScenarioError::UnknownReplica { .. })
        ));
    }

    #[test]
    fn plan_validation_bounds_the_horizon() {
        let g = diamondish();
        // Overflowing end ticks and absurdly far windows are typed
        // errors, never a (near-)unbounded compile loop.
        for plan in [
            DynamicsPlan::new().at(
                usize::MAX,
                DynamicsEvent::LinkFlap {
                    count: 1,
                    repair_after: 2,
                },
            ),
            DynamicsPlan::new().at(
                0,
                DynamicsEvent::CapacityDrain {
                    factor: 0.5,
                    restore_after: MAX_HORIZON + 1,
                },
            ),
            DynamicsPlan::new().at(
                MAX_HORIZON,
                DynamicsEvent::MaintenanceWindow {
                    first_replica: 0,
                    replicas: 2,
                    stride: usize::MAX / 2,
                },
            ),
        ] {
            assert!(matches!(
                plan.validate(&g, 2),
                Err(ScenarioError::HorizonOverflow { .. })
            ));
            assert!(DynamicsTimeline::compile(&plan, &g, 2, 7).is_err());
        }
        // The bound itself is inclusive and huge windows under it pass.
        let ok = DynamicsPlan::new().at(
            0,
            DynamicsEvent::FlapEdge {
                edge: 0,
                repair_after: 64,
            },
        );
        assert!(ok.validate(&g, 2).is_ok());
    }

    #[test]
    fn timeline_opens_and_closes_windows() {
        let g = diamondish();
        let plan = DynamicsPlan::new()
            .at(
                2,
                DynamicsEvent::CapacityDrain {
                    factor: 0.5,
                    restore_after: 3,
                },
            )
            .at(
                3,
                DynamicsEvent::MaintenanceWindow {
                    first_replica: 0,
                    replicas: 2,
                    stride: 2,
                },
            );
        let tl = DynamicsTimeline::compile(&plan, &g, 2, 7).unwrap();
        // Drain opens at 2: all capacities halved.
        let drained = tl.actions(2).unwrap().topology.as_ref().unwrap();
        let e0 = EdgeId(0);
        assert!((drained.capacity(e0) - g.capacity(e0) * 0.5).abs() < 1e-12);
        // Restores at 5: back to base capacities.
        let restored = tl.actions(5).unwrap().topology.as_ref().unwrap();
        assert!((restored.capacity(e0) - g.capacity(e0)).abs() < 1e-12);
        // Window retools replica 0 at 3, replica 1 at 5.
        assert_eq!(tl.actions(3).unwrap().retools, vec![0]);
        assert_eq!(tl.actions(5).unwrap().retools, vec![1]);
        assert_eq!(tl.horizon(), 5);
        assert!(tl.event_sequence().contains("drain0.50@2"));
        assert!(tl.event_sequence().contains("restore@5"));
    }

    #[test]
    fn overlapping_flaps_stay_connected_and_repair_fully() {
        let g = hierarchical_wan_sized(100, &mut StdRng::seed_from_u64(5));
        let plan = DynamicsPlan::new()
            .at(
                1,
                DynamicsEvent::LinkFlap {
                    count: 2,
                    repair_after: 4,
                },
            )
            .at(
                3,
                DynamicsEvent::LinkFlap {
                    count: 2,
                    repair_after: 4,
                },
            );
        let tl = DynamicsTimeline::compile(&plan, &g, 2, 11).unwrap();
        for tick in [1usize, 3, 5] {
            if let Some(actions) = tl.actions(tick) {
                if let Some(topo) = &actions.topology {
                    assert!(is_strongly_connected(topo), "tick {tick}");
                    assert!(topo.num_edges() < g.num_edges(), "tick {tick}");
                }
            }
        }
        // After the last repair the base graph is back.
        let last = tl.actions(7).unwrap().topology.as_ref().unwrap();
        assert_eq!(last.num_edges(), g.num_edges());
    }

    #[test]
    fn timeline_is_deterministic_under_seed() {
        let g = diamondish();
        let plan = DynamicsPlan::new().at(
            1,
            DynamicsEvent::LinkFlap {
                count: 2,
                repair_after: 3,
            },
        );
        let a = DynamicsTimeline::compile(&plan, &g, 2, 9).unwrap();
        let b = DynamicsTimeline::compile(&plan, &g, 2, 9).unwrap();
        assert_eq!(a.event_sequence(), b.event_sequence());
        let ta = a.actions(1).unwrap().topology.as_ref().unwrap();
        let tb = b.actions(1).unwrap().topology.as_ref().unwrap();
        assert_eq!(ta, tb);
    }

    fn run_named(name: &str, requests: usize) -> ScenarioOutcome {
        let spec = spec(name).expect("named scenario exists");
        run(&spec, scenario_seed(42, name), requests).expect("scenario runs")
    }

    /// Every committed golden row reproduces, except the two
    /// hierarchical-WAN scenarios, which are slow in debug builds
    /// (`chaos_harness` checks them against the same rows).
    #[test]
    fn golden_digests_match() {
        for spec in specs() {
            if matches!(spec.shards[0].topology, Topology::HierWan { .. }) {
                continue;
            }
            let outcome = run(&spec, scenario_seed(42, spec.name), 48).unwrap();
            let mismatches = golden_mismatches(&outcome)
                .unwrap_or_else(|| panic!("{}: no golden row", spec.name));
            assert!(mismatches.is_empty(), "{}: {mismatches:?}", spec.name);
            assert_eq!(outcome.passed(), !spec.expect_fail, "{}", spec.name);
        }
    }

    #[test]
    fn multi_shard_digests_do_not_depend_on_thread_count() {
        for mut spec in specs().into_iter().filter(|s| s.shards.len() > 1) {
            let digests = |spec: &ScenarioSpec| {
                let o = run(spec, scenario_seed(42, spec.name), 0).unwrap();
                let shards: Vec<String> =
                    o.shards.iter().map(|s| s.rung_sequence.clone()).collect();
                (
                    o.rung_sequence,
                    o.failover_sequence,
                    o.event_sequence,
                    shards,
                )
            };
            spec.fleet.threads = 1;
            let one = digests(&spec);
            spec.fleet.threads = 4;
            assert_eq!(one, digests(&spec), "{}", spec.name);
        }
    }

    #[test]
    fn concurrent_same_seed_recovery_runs_do_not_share_a_store() {
        let spec = spec("process_crash_recovery").unwrap();
        let seed = scenario_seed(42, spec.name);
        let mut digests = Vec::new();
        for _ in 0..20 {
            // Both runs start together, so their store lifetimes overlap.
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let pair = [(); 2].map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        run(&spec, seed, 48).unwrap()
                    })
                });
                for handle in pair {
                    let o = handle.join().unwrap();
                    assert!(o.passed(), "violations: {:?}", o.violations);
                    digests.push((o.rung_sequence, o.event_sequence));
                }
            });
        }
        assert!(digests.iter().all(|d| *d == digests[0]), "{digests:?}");
    }

    #[test]
    fn budget_zero_scenario_fails_loudly() {
        let outcome = run_named("budget_zero", 40);
        assert!(!outcome.passed());
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.contains("no fresh response")));
    }

    #[test]
    fn replicas_exhausted_fails_loudly() {
        let outcome = run_named("replicas_exhausted", 48);
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.contains("fresh ratio") || v.contains("no failover")));
        // Still zero unanswered: the ladder answers even with every
        // replica dead.
        assert_eq!(outcome.answered, outcome.submitted);
    }

    #[test]
    fn dynamic_scenarios_pass_and_replay_bit_identically() {
        for name in ["diurnal_flash_crowd", "rolling_maintenance"] {
            let spec = spec(name).unwrap();
            assert_eq!(spec.tag, Tag::Dynamics, "{name}");
            let seed = scenario_seed(42, name);
            let a = run(&spec, seed, 88).unwrap();
            assert!(a.passed(), "{name} violations: {:?}", a.violations);
            assert_eq!(a.answered, a.submitted, "{name}");
            assert!(!a.event_sequence.is_empty(), "{name}");
            let b = run(&spec, seed, 88).unwrap();
            assert_eq!(a.rung_sequence, b.rung_sequence, "{name}");
            assert_eq!(a.event_sequence, b.event_sequence, "{name}");
            assert_eq!(a.failover_sequence, b.failover_sequence, "{name}");
        }
    }

    #[test]
    fn broken_blackout_fails_loudly_but_answers_everything() {
        let outcome = run_named("broken_blackout", 48);
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.contains("no fresh response")));
        assert_eq!(outcome.answered, outcome.submitted);
    }

    #[test]
    fn manifest_lies_fails_loudly() {
        let outcome = run_named("manifest_lies", 40);
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.contains("demands a warm restore")));
        // Availability holds even while the warm-restore SLO fails.
        assert_eq!(outcome.answered, outcome.submitted);
        assert!(outcome.event_sequence.contains("cold:manifest_mismatch"));
    }

    #[test]
    fn rolling_retool_absorbs_maintenance_without_failover() {
        let a = run_named("rolling_retool", 48);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.failovers, 0);
        assert!(a.shed > 0, "burst must shed");
        assert!(a.breaker_transitions > 0, "slow window must trip breakers");
        assert!(a
            .event_sequence
            .starts_with("flap2@5;repair@9;window0+3@10"));
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(spec("nope").is_none());
        assert!(matches!(select("healthy,nope"), Err(ServeError::Config(_))));
        let names = |filter| {
            select(filter)
                .unwrap()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names("recovery"),
            [
                "process_crash_recovery",
                "corrupt_snapshot",
                "manifest_lies"
            ]
        );
        assert_eq!(names("healthy,hang"), ["healthy", "hang"]);
        assert_eq!(select("all").unwrap().len(), specs().len());
        // Budgets below the spec's minimum are raised to it.
        let small = run_named("healthy", 3);
        assert_eq!((small.requests, small.submitted), (40, 40));
    }

    #[test]
    fn unknown_dynamic_scenario_is_an_error() {
        assert!(matches!(
            select("flap_storm,nope"),
            Err(ServeError::Config(_))
        ));
        let dynamics = select(Tag::Dynamics.name()).unwrap();
        assert!(dynamics.iter().all(|s| s.tag == Tag::Dynamics));
        assert!(dynamics.iter().any(|s| s.name == "flap_storm"));
        assert!(dynamics.iter().all(|s| s.name != "rolling_retool"));
        // Budgets below the dynamics minimum are raised to it.
        let small = run_named("flap_storm", 39);
        assert_eq!((small.requests, small.submitted), (88, 88));
    }

    #[test]
    fn scenario_seeds_differ_by_name() {
        let table = specs();
        for (i, s) in table.iter().enumerate() {
            assert!(table[..i].iter().all(|t| t.name != s.name), "{}", s.name);
        }
        assert_ne!(
            scenario_seed(7, "healthy"),
            scenario_seed(7, "worker_panic")
        );
    }
}
