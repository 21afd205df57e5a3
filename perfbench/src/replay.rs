//! Layer replay: pushes recorded inputs through the program's layer
//! functions one at a time and times each.
//!
//! The serving path is obs build → `act_greedy_batch` →
//! `try_action_to_weights` → `softmin_routing`, optionally scored by
//! `max_link_utilisation` and a cold `CachedOracle::u_opt_checked`.
//! A replay only measures the program it claims to when it reproduces
//! the program's own output, so callers compare every routing (and
//! score) bit for bit against what the fleet or evaluator returned.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gddr_core::obs::{flat_features, node_features, DemandHistory};
use gddr_core::{BatchGreedy, DdrEnvConfig, DdrObs};
use gddr_gnn::GraphStructure;
use gddr_lp::CachedOracle;
use gddr_net::Graph;
use gddr_nn::Matrix;
use gddr_rl::Policy;
use gddr_routing::sim::max_link_utilisation;
use gddr_routing::softmin::softmin_routing;
use gddr_routing::Routing;
use gddr_traffic::DemandMatrix;

use crate::stats::median;

/// Per-item wall time of each replayed layer, ns.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Demand history → observation.
    pub obs: Vec<f64>,
    /// One batched greedy forward, divided by the batch size.
    pub forward_batch: Vec<f64>,
    /// One greedy forward of a single observation.
    pub forward_solo: Vec<f64>,
    /// Action → edge weights.
    pub weights: Vec<f64>,
    /// Edge weights → softmin routing.
    pub softmin: Vec<f64>,
    /// Routing + demands → max link utilisation.
    pub sim: Vec<f64>,
    /// One LP solve of `U_opt` (cache hits are not timed).
    pub lp: Vec<f64>,
    /// Simplex pivots over the replayed solves.
    pub lp_pivots: u64,
    /// Simplex solves over the replayed solves.
    pub lp_solves: u64,
}

/// Median of a per-item sample in µs (0 when empty).
pub fn median_us(ns: &[f64]) -> f64 {
    median(ns).unwrap_or(0.0) / 1e3
}

impl LayerTimes {
    /// Median self time of the forward path per item, ms: obs build,
    /// batched forward, weights and softmin, plus simulation and LP
    /// when `scored`.
    pub fn path_ms(&self, scored: bool) -> f64 {
        let mut us = median_us(&self.obs)
            + median_us(&self.forward_batch)
            + median_us(&self.weights)
            + median_us(&self.softmin);
        if scored {
            us += median_us(&self.sim) + median_us(&self.lp);
        }
        us / 1e3
    }
}

/// One replayed decision.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The routing the replay produced.
    pub routing: Routing,
    /// `(U_agent, U_opt)` when the item was scored.
    pub utilisation: Option<(f64, f64)>,
}

/// One input to [`replay_batch`].
pub struct Item<'a> {
    /// Exactly `memory` matrices, oldest first, zero-padded at the front
    /// while the history warms up.
    pub history: &'a [DemandMatrix],
    /// The demands the decision is scored against.
    pub demands: &'a DemandMatrix,
    /// Whether to simulate and solve the LP for this item.
    pub score: bool,
}

/// The observation `gddr_serve::PolicyEngine` and the one-shot
/// evaluator build from a demand history.
pub fn observe(structure: &Arc<GraphStructure>, history: &[DemandMatrix], memory: usize) -> DdrObs {
    let num_nodes = structure.num_nodes;
    let mut h = DemandHistory::new(memory);
    for dm in history {
        h.push(dm.clone());
    }
    DdrObs {
        structure: Arc::clone(structure),
        node_feats: node_features(&h, num_nodes, memory),
        edge_feats: Matrix::zeros(structure.num_edges, 3),
        globals: Matrix::zeros(1, 1),
        flat: flat_features(&h, num_nodes, memory),
        target_edge: None,
    }
}

fn timed<T>(sample: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    sample.push(start.elapsed().as_nanos() as f64);
    out
}

fn counter(name: &str) -> u64 {
    gddr_telemetry::registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

/// Replays one coalesced batch through every layer, timing each.
///
/// # Errors
///
/// Describes the first layer that failed, or a batched forward that
/// differed from the solo forward of the same item.
#[allow(clippy::too_many_arguments)]
pub fn replay_batch<P: Policy<Obs = DdrObs> + BatchGreedy>(
    policy: &P,
    graph: &Graph,
    structure: &Arc<GraphStructure>,
    env: &DdrEnvConfig,
    items: &[Item<'_>],
    oracle: &CachedOracle,
    times: &mut LayerTimes,
) -> Result<Vec<Decision>, String> {
    let obs: Vec<DdrObs> = items
        .iter()
        .map(|item| {
            timed(&mut times.obs, || {
                observe(structure, item.history, env.memory)
            })
        })
        .collect();
    let start = Instant::now();
    let actions = black_box(policy.act_greedy_batch(&obs));
    let per_item = start.elapsed().as_nanos() as f64 / items.len().max(1) as f64;
    times
        .forward_batch
        .extend(std::iter::repeat_n(per_item, items.len()));
    let mut decisions = Vec::with_capacity(items.len());
    for ((item, obs), action) in items.iter().zip(&obs).zip(&actions) {
        let solo = timed(&mut times.forward_solo, || policy.act_greedy(obs));
        if &solo != action {
            return Err("batched forward differs from the solo forward".to_string());
        }
        let weights = timed(&mut times.weights, || {
            env.try_action_to_weights(action, graph.num_edges())
        })
        .map_err(|e| format!("weights: {e}"))?;
        let routing = timed(&mut times.softmin, || {
            softmin_routing(graph, &weights, &env.softmin)
        })
        .map_err(|e| format!("softmin: {e:?}"))?;
        let utilisation = if item.score {
            let report = timed(&mut times.sim, || {
                max_link_utilisation(graph, &routing, item.demands)
            })
            .map_err(|e| format!("simulation: {e:?}"))?;
            let (pivots, solves) = (counter("lp.simplex.pivots"), counter("lp.simplex.solves"));
            let misses = oracle.stats().misses;
            let start = Instant::now();
            let u_opt =
                black_box(oracle.u_opt_checked(item.demands)).map_err(|e| format!("lp: {e:?}"))?;
            // Cyclical workloads repeat matrices: only solves are LP time.
            if oracle.stats().misses > misses {
                times.lp.push(start.elapsed().as_nanos() as f64);
            }
            times.lp_pivots += counter("lp.simplex.pivots") - pivots;
            times.lp_solves += counter("lp.simplex.solves") - solves;
            Some((report.u_max, u_opt))
        } else {
            None
        };
        decisions.push(Decision {
            routing,
            utilisation,
        });
    }
    Ok(decisions)
}
