//! Softmin routing: the paper's translation from learned edge weights
//! to a full routing strategy (Alg. 2, Eq. 3).
//!
//! For each flow `(s, t)`:
//!
//! 1. prune the weighted graph to a DAG for the flow ([`crate::prune`]),
//! 2. compute every vertex's distance to the sink on the pruned graph,
//! 3. at each vertex, score every retained out-edge by
//!    `w(edge) + d(neighbour)` and convert the scores into splitting
//!    ratios with the softmin function
//!    `softmin(x)_i = exp(-γ·x_i) / Σ_j exp(-γ·x_j)`.
//!
//! With the default [`PruneMode::DistanceDag`] all three steps run off
//! one Dijkstra per destination: the distance DAG keeps exactly the
//! edges on which those distances strictly descend, so step 2 reuses
//! the pruning distances instead of re-running Dijkstra on the pruned
//! graph. An exactness certificate guards the reuse: at every vertex
//! that reaches the sink, the smallest retained score must equal the
//! vertex's own distance bit for bit. When it holds, the pruned-graph
//! distances are provably the same numbers, so the ratios are bitwise
//! those of the two-pass computation. A weight near the 1e-12 descent
//! epsilon can drop a vertex's shortest out-edge and break the
//! certificate; that destination then takes the two-pass path.
//!
//! The temperature `γ` controls how aggressively traffic concentrates
//! on the shortest alternatives (γ → ∞ approaches shortest-path
//! routing; γ → 0 approaches uniform splitting over the DAG).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use gddr_net::{EdgeId, Graph, NodeId};

use crate::prune::{distance_dag, prune, PruneMode};
use crate::routing::Routing;

/// Typed rejection of bad inputs at the routing boundary.
///
/// The softmin translation sits between the learned policy and the
/// simulator: a NaN or negative weight here would silently become a NaN
/// splitting ratio and corrupt every downstream reward. All input
/// validation is therefore checked (not asserted) so callers — and the
/// fuzz harness — can rely on "typed error or valid routing, never a
/// panic".
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingError {
    /// `weights` does not provide exactly one weight per edge.
    WeightCountMismatch {
        /// Edges in the graph.
        expected: usize,
        /// Weights supplied.
        got: usize,
    },
    /// A weight was NaN, infinite, zero or negative (softmin distances
    /// need positive finite lengths).
    InvalidWeight {
        /// Dense edge index of the offending weight.
        edge: usize,
        /// The offending value.
        value: f64,
    },
    /// The softmin temperature γ was negative or non-finite.
    InvalidGamma {
        /// The offending value.
        gamma: f64,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::WeightCountMismatch { expected, got } => {
                write!(f, "expected {expected} edge weights, got {got}")
            }
            RoutingError::InvalidWeight { edge, value } => {
                write!(
                    f,
                    "weight {value} on edge {edge} is not positive and finite"
                )
            }
            RoutingError::InvalidGamma { gamma } => {
                write!(f, "softmin temperature {gamma} is not finite and >= 0")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Configuration for [`softmin_routing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftminConfig {
    /// Softmin temperature γ (paper Eq. 3). The paper's experiments use
    /// values around 2; the iterative GNN policy learns γ itself.
    pub gamma: f64,
    /// DAG-conversion algorithm.
    pub prune_mode: PruneMode,
}

impl Default for SoftminConfig {
    fn default() -> Self {
        SoftminConfig {
            gamma: 2.0,
            prune_mode: PruneMode::DistanceDag,
        }
    }
}

/// The softmin function (paper Eq. 3), numerically stabilised by
/// shifting by the minimum score.
///
/// # Panics
///
/// Panics if `xs` is empty or `gamma` is negative/non-finite.
pub fn softmin(xs: &[f64], gamma: f64) -> Vec<f64> {
    assert!(!xs.is_empty(), "softmin of an empty slice");
    assert!(gamma.is_finite() && gamma >= 0.0, "gamma must be >= 0");
    let mut out = Vec::with_capacity(xs.len());
    softmin_into(xs, gamma, &mut out);
    out
}

/// [`softmin`] into a reused buffer (`out` is overwritten).
fn softmin_into(xs: &[f64], gamma: f64, out: &mut Vec<f64>) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    out.clear();
    out.extend(xs.iter().map(|&x| (-gamma * (x - min)).exp()));
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Min-heap entry for the distance-to-sink Dijkstra: smallest distance
/// first, ties broken by the smaller node index (the order
/// [`gddr_net::algo::dijkstra_to_sink`] uses, so both compute the same
/// distances bit for bit).
#[derive(PartialEq)]
struct Entry(f64, usize);

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Distance of every node to `sink` into `dist` (Dijkstra on reversed
/// edges), over the edges `mask` keeps or over every edge when `mask`
/// is `None`.
fn dist_to_sink(
    graph: &Graph,
    sink: NodeId,
    weights: &[f64],
    mask: Option<&[bool]>,
    dist: &mut Vec<f64>,
    heap: &mut BinaryHeap<Entry>,
) {
    dist.clear();
    dist.resize(graph.num_nodes(), f64::INFINITY);
    heap.clear();
    dist[sink.0] = 0.0;
    heap.push(Entry(0.0, sink.0));
    while let Some(Entry(d, v)) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for &e in graph.in_edges(NodeId(v)) {
            if mask.is_some_and(|m| !m[e.0]) {
                continue;
            }
            let u = graph.src(e).0;
            let nd = d + weights[e.0];
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(Entry(nd, u));
            }
        }
    }
}

/// Splitting ratios for a single destination on an already-pruned DAG:
/// Dijkstra over the masked edges, then a softmin over each vertex's
/// masked out-edges.
fn destination_ratios(
    graph: &Graph,
    sink: NodeId,
    weights: &[f64],
    mask: &[bool],
    gamma: f64,
) -> Vec<f64> {
    let mut d = Vec::new();
    dist_to_sink(
        graph,
        sink,
        weights,
        Some(mask),
        &mut d,
        &mut BinaryHeap::new(),
    );
    let mut ratios = vec![0.0; graph.num_edges()];
    for v in graph.nodes() {
        if v == sink {
            continue;
        }
        let out: Vec<_> = graph
            .out_edges(v)
            .iter()
            .copied()
            .filter(|&e| mask[e.0] && d[graph.dst(e).0].is_finite())
            .collect();
        if out.is_empty() {
            continue;
        }
        let scores: Vec<f64> = out
            .iter()
            .map(|&e| weights[e.0] + d[graph.dst(e).0])
            .collect();
        for (e, r) in out.iter().zip(softmin(&scores, gamma)) {
            ratios[e.0] = r;
        }
    }
    ratios
}

/// Work buffers of the one-pass distance-DAG path, reused across
/// destinations so only the returned ratio vector is allocated.
#[derive(Default)]
struct Scratch {
    dist: Vec<f64>,
    heap: BinaryHeap<Entry>,
    edges: Vec<EdgeId>,
    scores: Vec<f64>,
    split: Vec<f64>,
}

/// Distance-DAG splitting ratios for destination `sink` from a single
/// Dijkstra, or `None` when the exactness certificate fails.
///
/// The unmasked distances `d` decide which edges the distance DAG keeps
/// (the descent test `d[u] > d[v] + 1e-12` of
/// [`crate::prune::distance_dag`]) and also score them (`w[e] + d[v]`).
/// The two-pass path instead re-runs Dijkstra on the kept edges and
/// scores with those masked distances. The certificate is that at every
/// vertex with finite `d`, the smallest kept score equals `d[u]` bit for
/// bit. Then `d` solves the masked graph's Bellman equations, whose
/// solution on a DAG is unique, so the masked distances *are* `d` and
/// the ratios are bitwise those of the two-pass path. The check fails
/// only when a weight near the 1e-12 descent epsilon drops a vertex's
/// shortest out-edge (or all of them, where `distance_dag` keeps the
/// shortest one anyway); the caller then falls back to the two-pass
/// path.
fn one_pass_ratios(
    graph: &Graph,
    sink: NodeId,
    weights: &[f64],
    gamma: f64,
    s: &mut Scratch,
) -> Option<Vec<f64>> {
    dist_to_sink(graph, sink, weights, None, &mut s.dist, &mut s.heap);
    let d = &s.dist;
    let mut ratios = vec![0.0; graph.num_edges()];
    for u in graph.nodes() {
        if u == sink || !d[u.0].is_finite() {
            continue;
        }
        s.edges.clear();
        s.scores.clear();
        for &e in graph.out_edges(u) {
            let dv = d[graph.dst(e).0];
            if dv.is_finite() && d[u.0] > dv + 1e-12 {
                s.edges.push(e);
                s.scores.push(weights[e.0] + dv);
            }
        }
        let best = s.scores.iter().copied().fold(f64::INFINITY, f64::min);
        if best.to_bits() != d[u.0].to_bits() {
            return None;
        }
        softmin_into(&s.scores, gamma, &mut s.split);
        for (e, &r) in s.edges.iter().zip(&s.split) {
            ratios[e.0] = r;
        }
    }
    Some(ratios)
}

/// Derives a complete routing strategy from edge weights (paper
/// Alg. 2).
///
/// With [`PruneMode::DistanceDag`] the pruning depends only on the
/// destination, so the per-destination ratios are computed once, from
/// one Dijkstra (see the module docs for the certificate that keeps
/// this exact), and shared by all sources; with
/// [`PruneMode::FrontierMeets`] each flow gets its own pruning, as in
/// the paper's pseudocode.
///
/// # Errors
///
/// Returns a [`RoutingError`] if `weights` does not cover every edge,
/// contains a non-finite or non-positive value, or the configured γ is
/// invalid. Bad inputs are rejected up front so no NaN can reach the
/// splitting ratios.
pub fn softmin_routing(
    graph: &Graph,
    weights: &[f64],
    config: &SoftminConfig,
) -> Result<Routing, RoutingError> {
    let _span = gddr_telemetry::span("routing.softmin");
    if weights.len() != graph.num_edges() {
        return Err(RoutingError::WeightCountMismatch {
            expected: graph.num_edges(),
            got: weights.len(),
        });
    }
    if let Some((edge, &value)) = weights
        .iter()
        .enumerate()
        .find(|(_, &w)| !w.is_finite() || w <= 0.0)
    {
        return Err(RoutingError::InvalidWeight { edge, value });
    }
    if !config.gamma.is_finite() || config.gamma < 0.0 {
        return Err(RoutingError::InvalidGamma {
            gamma: config.gamma,
        });
    }
    let n = graph.num_nodes();
    let mut routing = Routing::new(n, graph.num_edges());
    match config.prune_mode {
        PruneMode::DistanceDag => {
            let mut scratch = Scratch::default();
            for t in 0..n {
                let sink = NodeId(t);
                let ratios = one_pass_ratios(graph, sink, weights, config.gamma, &mut scratch)
                    .unwrap_or_else(|| {
                        let mask = distance_dag(graph, sink, weights);
                        destination_ratios(graph, sink, weights, &mask, config.gamma)
                    });
                routing.set_dest_flow(t, ratios);
            }
        }
        PruneMode::FrontierMeets => {
            for s in 0..n {
                for t in 0..n {
                    if s == t {
                        continue;
                    }
                    let mask = prune(graph, NodeId(s), NodeId(t), weights, config.prune_mode);
                    let ratios = destination_ratios(graph, NodeId(t), weights, &mask, config.gamma);
                    routing.set_flow(s, t, ratios);
                }
            }
        }
    }
    Ok(routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::{from_links, zoo};
    use gddr_rng::rngs::StdRng;
    use gddr_rng::{Rng, SeedableRng};

    /// The two-pass DistanceDag loop the one-pass path must reproduce
    /// bit for bit: prune per destination, then Dijkstra again on the
    /// pruned graph inside `destination_ratios`.
    fn distance_dag_reference(graph: &Graph, weights: &[f64], gamma: f64) -> Routing {
        let mut routing = Routing::new(graph.num_nodes(), graph.num_edges());
        for t in 0..graph.num_nodes() {
            let mask = prune(graph, NodeId(0), NodeId(t), weights, PruneMode::DistanceDag);
            let ratios = destination_ratios(graph, NodeId(t), weights, &mask, gamma);
            routing.set_dest_flow(t, ratios);
        }
        routing
    }

    /// Panics unless every flow's ratios agree bit for bit.
    fn assert_bitwise_eq(graph: &Graph, got: &Routing, want: &Routing, what: &str) {
        for s in 0..graph.num_nodes() {
            for t in 0..graph.num_nodes() {
                let bits = |r: &Routing| {
                    r.flow(s, t)
                        .map(|f| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(bits(got), bits(want), "{what}: flow ({s},{t}) differs");
            }
        }
    }

    /// Seeded weights in [0.05, 5); one draw in ten also puts ~30% of
    /// its edges in [5e-13, 2e-12], around the 1e-12 descent epsilon.
    fn seeded_weights(m: usize, rng: &mut StdRng) -> Vec<f64> {
        let near_eps = rng.gen_range(0..10) == 0;
        (0..m)
            .map(|_| {
                if near_eps && rng.gen_range(0.0..1.0) < 0.3 {
                    rng.gen_range(5e-13..2e-12)
                } else {
                    rng.gen_range(0.05..5.0)
                }
            })
            .collect()
    }

    #[test]
    fn one_pass_matches_two_pass_reference_bitwise() {
        let cfg = SoftminConfig::default();
        let mut fallbacks = 0;
        for (gi, g) in zoo::all().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(gi as u64);
            for draw in 0..200 {
                let w = seeded_weights(g.num_edges(), &mut rng);
                let got = softmin_routing(g, &w, &cfg).unwrap();
                let want = distance_dag_reference(g, &w, cfg.gamma);
                assert_bitwise_eq(g, &got, &want, &format!("{} draw {draw}", g.name()));
                let mut scratch = Scratch::default();
                fallbacks += (0..g.num_nodes())
                    .filter(|&t| {
                        one_pass_ratios(g, NodeId(t), &w, cfg.gamma, &mut scratch).is_none()
                    })
                    .count();
            }
        }
        assert!(fallbacks > 0, "no draw reached the two-pass fallback");
    }

    #[test]
    fn near_epsilon_shortest_edge_takes_the_fallback() {
        // Sink 2. Node 0's shortest out-edge 0→1 weighs 5e-13, below the
        // 1e-12 descent epsilon, so the distance DAG drops it and 0's
        // pruned-graph distance is 2 (via 0→2), not 1 + 5e-13. Node 3
        // scores 3→0 with that distance, so reusing the unpruned one
        // would skew 3's split.
        let g = from_links("eps", 4, &[(0, 1), (1, 2), (0, 2), (3, 0), (3, 2)], 10.0);
        let mut w = vec![10.0; g.num_edges()];
        for (a, b, x) in [
            (0, 1, 5e-13),
            (1, 2, 1.0),
            (0, 2, 2.0),
            (3, 0, 1.0),
            (3, 2, 2.5),
        ] {
            w[g.edge_between(NodeId(a), NodeId(b)).unwrap().0] = x;
        }
        let mut scratch = Scratch::default();
        assert!(one_pass_ratios(&g, NodeId(2), &w, 2.0, &mut scratch).is_none());
        let got = softmin_routing(&g, &w, &SoftminConfig::default()).unwrap();
        let want = distance_dag_reference(&g, &w, 2.0);
        assert_bitwise_eq(&g, &got, &want, "near-epsilon graph");
        // The split at node 3 uses the pruned distance: scores 1 + 2 on
        // 3→0 and 2.5 on 3→2, so 3→2 carries the larger share.
        let r = got.flow(3, 2).unwrap();
        let e30 = g.edge_between(NodeId(3), NodeId(0)).unwrap();
        let e32 = g.edge_between(NodeId(3), NodeId(2)).unwrap();
        assert_eq!(r[e30.0].to_bits(), softmin(&[3.0, 2.5], 2.0)[0].to_bits());
        assert!(r[e32.0] > r[e30.0]);
    }

    #[test]
    fn softmin_is_a_distribution() {
        let r = softmin(&[1.0, 2.0, 3.0], 2.0);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(r[0] > r[1] && r[1] > r[2], "smaller score gets more");
    }

    #[test]
    fn softmin_gamma_zero_is_uniform() {
        let r = softmin(&[1.0, 5.0, 9.0], 0.0);
        for x in r {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn softmin_large_gamma_is_argmin() {
        let r = softmin(&[1.0, 2.0], 100.0);
        assert!(r[0] > 0.999);
    }

    #[test]
    fn softmin_is_shift_invariant_and_stable() {
        let a = softmin(&[1.0, 2.0], 3.0);
        let b = softmin(&[1001.0, 1002.0], 3.0);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        let c = softmin(&[1e6, 2e6], 5.0);
        assert!(c.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn routing_is_valid_on_zoo_graphs() {
        for g in [zoo::cesnet(), zoo::abilene()] {
            let w = vec![1.0; g.num_edges()];
            let r = softmin_routing(&g, &w, &SoftminConfig::default()).unwrap();
            let violations = r.validate(&g);
            assert!(violations.is_empty(), "{}: {:?}", g.name(), violations);
            assert_eq!(r.num_flows(), g.num_nodes() * (g.num_nodes() - 1));
        }
    }

    #[test]
    fn frontier_meets_mode_is_valid() {
        let g = zoo::cesnet();
        let w = vec![1.0; g.num_edges()];
        let cfg = SoftminConfig {
            prune_mode: crate::prune::PruneMode::FrontierMeets,
            ..Default::default()
        };
        let r = softmin_routing(&g, &w, &cfg).unwrap();
        assert!(r.validate(&g).is_empty());
    }

    #[test]
    fn diamond_splits_between_equal_paths() {
        let g = from_links("diamond", 4, &[(0, 1), (1, 3), (0, 2), (2, 3)], 10.0);
        let w = vec![1.0; g.num_edges()];
        let r = softmin_routing(&g, &w, &SoftminConfig::default()).unwrap();
        let ratios = r.flow(0, 3).unwrap();
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e02 = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        assert!((ratios[e01.0] - 0.5).abs() < 1e-9);
        assert!((ratios[e02.0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_the_split() {
        let g = from_links("diamond", 4, &[(0, 1), (1, 3), (0, 2), (2, 3)], 10.0);
        let mut w = vec![1.0; g.num_edges()];
        // Make the path through node 1 cheaper.
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        w[e01.0] = 0.5;
        let r = softmin_routing(&g, &w, &SoftminConfig::default()).unwrap();
        let ratios = r.flow(0, 3).unwrap();
        let e02 = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        assert!(ratios[e01.0] > ratios[e02.0]);
    }

    #[test]
    fn rejects_zero_weights_with_typed_error() {
        let g = zoo::cesnet();
        let w = vec![0.0; g.num_edges()];
        let err = softmin_routing(&g, &w, &SoftminConfig::default()).unwrap_err();
        assert_eq!(
            err,
            RoutingError::InvalidWeight {
                edge: 0,
                value: 0.0
            }
        );
    }

    #[test]
    fn rejects_nonfinite_weights_with_typed_error() {
        let g = zoo::cesnet();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut w = vec![1.0; g.num_edges()];
            w[3] = bad;
            match softmin_routing(&g, &w, &SoftminConfig::default()) {
                Err(RoutingError::InvalidWeight { edge: 3, .. }) => {}
                other => panic!("expected InvalidWeight, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_weight_count_mismatch() {
        let g = zoo::cesnet();
        let w = vec![1.0; g.num_edges() - 1];
        assert_eq!(
            softmin_routing(&g, &w, &SoftminConfig::default()).unwrap_err(),
            RoutingError::WeightCountMismatch {
                expected: g.num_edges(),
                got: g.num_edges() - 1,
            }
        );
    }

    #[test]
    fn rejects_invalid_gamma() {
        let g = zoo::cesnet();
        let w = vec![1.0; g.num_edges()];
        for gamma in [f64::NAN, f64::INFINITY, -0.5] {
            let cfg = SoftminConfig {
                gamma,
                ..Default::default()
            };
            assert!(matches!(
                softmin_routing(&g, &w, &cfg),
                Err(RoutingError::InvalidGamma { .. })
            ));
        }
    }
}
