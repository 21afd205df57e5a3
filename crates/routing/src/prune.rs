//! DAG conversion: breaking routing loops while retaining multipath.
//!
//! Softmin routing over arbitrary weighted graphs can create routing
//! loops (paper §VI). The paper breaks loops by converting the graph to
//! a per-flow DAG with Alg. 3 ("frontier meets"). As printed, Alg. 3 is
//! underspecified (see DESIGN.md), so this module provides:
//!
//! - [`distance_dag`] (default): keep edge `(u, v)` iff the weighted
//!   distance-to-sink strictly decreases, `d(u) > d(v) + 1e-12`.
//!   Guarantees acyclicity and that every node that can reach the sink
//!   keeps a path to it (its shortest-path out-edge is downhill, or is
//!   kept anyway when a near-zero weight leaves the node no downhill
//!   edge), while retaining every non-shortest "downhill" edge for
//!   multipath — the properties Alg. 3 is designed to provide.
//! - [`frontier_meets_dag`]: a faithful best-effort implementation of
//!   Alg. 3's construction (Dijkstra from the source, parent traceback,
//!   frontier-meet repair), validated and falling back to
//!   [`distance_dag`] if the construction yields an unusable subgraph.

use gddr_net::algo::{dijkstra, dijkstra_to_sink, is_dag};
use gddr_net::{EdgeId, Graph, NodeId};

/// Which DAG-conversion algorithm softmin routing uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Strictly-decreasing distance-to-sink filter (default).
    #[default]
    DistanceDag,
    /// The paper's Alg. 3 frontier-meets construction.
    FrontierMeets,
}

/// Edge mask keeping exactly the edges on which the weighted distance
/// to `sink` strictly decreases (by more than 1e-12), plus, for a node
/// left with no such out-edge, its shortest-path edge.
///
/// Only depends on the destination, so the result is shared by all
/// sources routing towards `sink`.
///
/// # Panics
///
/// Panics if `weights` does not cover every edge (see
/// [`dijkstra_to_sink`]).
pub fn distance_dag(graph: &Graph, sink: NodeId, weights: &[f64]) -> Vec<bool> {
    let sp = dijkstra_to_sink(graph, sink, weights);
    let d = &sp.dist;
    let mut mask: Vec<bool> = graph
        .edges()
        .map(|e| {
            let (u, v) = graph.endpoints(e);
            d[u.0].is_finite() && d[v.0].is_finite() && d[u.0] > d[v.0] + 1e-12
        })
        .collect();
    // A shortest-path edge no heavier than the 1e-12 epsilon fails the
    // descent test. Where that leaves a vertex with no kept out-edge,
    // keep its shortest-path edge, or flow entering it would be lost.
    // Shortest-path edges point at vertices Dijkstra settled earlier,
    // so the mask stays acyclic.
    for u in graph.nodes() {
        if let Some(e) = sp.via[u.0] {
            if !graph.out_edges(u).iter().any(|o| mask[o.0]) {
                mask[e.0] = true;
            }
        }
    }
    mask
}

/// The paper's Alg. 3: Dijkstra from `source`, trace the shortest path
/// back from `sink`, then use "frontier meet" edges to graft additional
/// (longer) paths onto the structure; finally keep edges that descend
/// towards the sink on the assembled path set.
///
/// If the construction fails to produce a usable DAG (every node kept
/// must still reach the sink), the result falls back to
/// [`distance_dag`], which provides the guarantees Alg. 3 promises.
///
/// # Panics
///
/// Panics if `weights` does not cover every edge.
pub fn frontier_meets_dag(
    graph: &Graph,
    source: NodeId,
    sink: NodeId,
    weights: &[f64],
) -> Vec<bool> {
    let n = graph.num_nodes();
    let sp = dijkstra(graph, source, weights);
    if !sp.reachable(sink) {
        return vec![false; graph.num_edges()];
    }
    // Parent = predecessor edge on the shortest path from the source.
    let parent: Vec<Option<EdgeId>> = sp.via.clone();

    // Frontier meets: edges joining two nodes that were both reached,
    // but that are not parent edges (these are where the Dijkstra
    // frontier collided with already-explored territory).
    let frontier_meets: Vec<EdgeId> = graph
        .edges()
        .filter(|&e| {
            let (u, v) = graph.endpoints(e);
            sp.reachable(u) && sp.reachable(v) && parent[v.0] != Some(e) && u != v
        })
        .collect();

    // Trace back from the sink, marking the shortest path and assigning
    // distance-to-sink labels along it.
    let mut on_path = vec![false; n];
    let mut dist_to_sink = vec![f64::INFINITY; n];
    {
        let mut v = sink;
        on_path[v.0] = true;
        dist_to_sink[v.0] = 0.0;
        while let Some(e) = parent[v.0] {
            let p = graph.src(e);
            dist_to_sink[p.0] = dist_to_sink[v.0] + weights[e.0];
            on_path[p.0] = true;
            v = p;
        }
    }

    // Walk parent links from `x` until hitting an on-path node; returns
    // the chain (x excluded ancestors included) if one exists.
    let ancestor_chain = |x: NodeId, on_path: &[bool]| -> Option<Vec<EdgeId>> {
        let mut chain = Vec::new();
        let mut v = x;
        while !on_path[v.0] {
            let e = parent[v.0]?;
            chain.push(e);
            v = graph.src(e);
            if chain.len() > n {
                return None;
            }
        }
        Some(chain)
    };

    // For every frontier meet, graft the longer side onto the path set:
    // nodes along both parent chains become on-path, with
    // distance-to-sink labels propagated through the meet edge in the
    // direction from the farther ancestor to the closer one.
    for e in frontier_meets {
        let (u, v) = graph.endpoints(e);
        let (Some(chain_u), Some(chain_v)) =
            (ancestor_chain(u, &on_path), ancestor_chain(v, &on_path))
        else {
            continue;
        };
        // Ancestors where each chain touches the existing path set.
        let a = chain_u.last().map_or(u, |&le| graph.src(le));
        let b = chain_v.last().map_or(v, |&le| graph.src(le));
        if !dist_to_sink[a.0].is_finite() || !dist_to_sink[b.0].is_finite() {
            continue;
        }
        if (dist_to_sink[a.0] - dist_to_sink[b.0]).abs() < 1e-12 {
            continue; // Paper: skip equal-distance collisions.
        }
        // Label a parent chain on one side of the meet: chain edges run
        // from the meet endpoint back towards `end`; distances flow up
        // from the ancestor.
        fn label_chain(
            graph: &Graph,
            weights: &[f64],
            chain: &[EdgeId],
            end: NodeId,
            dist_to_sink: &mut [f64],
            on_path: &mut [bool],
        ) {
            let mut below: Vec<NodeId> = Vec::new();
            let mut x = if chain.is_empty() {
                end
            } else {
                graph.dst(chain[0])
            };
            below.push(x);
            for &ce in chain {
                x = graph.src(ce);
                below.push(x);
            }
            // `below` = [meet endpoint, ..., ancestor].
            for i in (0..below.len().saturating_sub(1)).rev() {
                let upper = below[i];
                let lower = below[i + 1];
                if let Some(edge) = graph.edge_between(upper, lower) {
                    let cand = dist_to_sink[lower.0] + weights[edge.0];
                    if cand < dist_to_sink[upper.0] {
                        dist_to_sink[upper.0] = cand;
                    }
                    on_path[upper.0] = true;
                }
            }
        }
        // Direction: route across the meet edge from farther to closer.
        if dist_to_sink[a.0] > dist_to_sink[b.0] {
            // Flow goes u-side → v-side: label v's chain first (towards
            // b), then u's chain picks up distance through the meet edge.
            label_chain(graph, weights, &chain_v, b, &mut dist_to_sink, &mut on_path);
            if dist_to_sink[v.0].is_finite() {
                let cand = dist_to_sink[v.0] + weights[e.0];
                if cand < dist_to_sink[u.0] {
                    dist_to_sink[u.0] = cand;
                }
                on_path[u.0] = true;
                label_chain(graph, weights, &chain_u, a, &mut dist_to_sink, &mut on_path);
            }
        } else {
            label_chain(graph, weights, &chain_u, a, &mut dist_to_sink, &mut on_path);
            if let Some(rev) = graph.edge_between(v, u) {
                if dist_to_sink[u.0].is_finite() {
                    let cand = dist_to_sink[u.0] + weights[rev.0];
                    if cand < dist_to_sink[v.0] {
                        dist_to_sink[v.0] = cand;
                    }
                    on_path[v.0] = true;
                    label_chain(graph, weights, &chain_v, b, &mut dist_to_sink, &mut on_path);
                }
            }
        }
    }

    // Keep edges that descend towards the sink within the on-path set.
    let mask: Vec<bool> = graph
        .edges()
        .map(|e| {
            let (x, y) = graph.endpoints(e);
            on_path[x.0]
                && on_path[y.0]
                && dist_to_sink[x.0].is_finite()
                && dist_to_sink[y.0].is_finite()
                && dist_to_sink[x.0] > dist_to_sink[y.0] + 1e-12
        })
        .collect();

    if mask_is_usable(graph, source, sink, &mask) {
        mask
    } else {
        distance_dag(graph, sink, weights)
    }
}

/// Whether the masked subgraph is a DAG in which the source can reach
/// the sink and every node reachable from the source reaches the sink.
pub fn mask_is_usable(graph: &Graph, source: NodeId, sink: NodeId, mask: &[bool]) -> bool {
    if !is_dag(graph, mask) {
        return false;
    }
    // Forward reachability from the source over masked edges.
    let n = graph.num_nodes();
    let mut fwd = vec![false; n];
    let mut stack = vec![source];
    fwd[source.0] = true;
    while let Some(v) = stack.pop() {
        for &e in graph.out_edges(v) {
            if mask[e.0] {
                let u = graph.dst(e);
                if !fwd[u.0] {
                    fwd[u.0] = true;
                    stack.push(u);
                }
            }
        }
    }
    if !fwd[sink.0] {
        return false;
    }
    // Backward reachability to the sink over masked edges.
    let mut bwd = vec![false; n];
    let mut stack = vec![sink];
    bwd[sink.0] = true;
    while let Some(v) = stack.pop() {
        for &e in graph.in_edges(v) {
            if mask[e.0] {
                let u = graph.src(e);
                if !bwd[u.0] {
                    bwd[u.0] = true;
                    stack.push(u);
                }
            }
        }
    }
    // Every node the flow can enter must be able to leave towards the
    // sink; otherwise traffic would be lost there.
    (0..n).all(|v| !fwd[v] || bwd[v] || v == sink.0)
}

/// Dispatches on [`PruneMode`].
pub fn prune(
    graph: &Graph,
    source: NodeId,
    sink: NodeId,
    weights: &[f64],
    mode: PruneMode,
) -> Vec<bool> {
    match mode {
        PruneMode::DistanceDag => distance_dag(graph, sink, weights),
        PruneMode::FrontierMeets => frontier_meets_dag(graph, source, sink, weights),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::zoo;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::{Rng, SeedableRng};

    fn random_weights(m: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..m).map(|_| rng.gen_range(0.5..5.0)).collect()
    }

    #[test]
    fn distance_dag_is_acyclic_and_usable_everywhere() {
        let mut rng = StdRng::seed_from_u64(0);
        for g in [zoo::abilene(), zoo::nsfnet(), zoo::geant()] {
            let w = random_weights(g.num_edges(), &mut rng);
            for t in 0..g.num_nodes() {
                let mask = distance_dag(&g, NodeId(t), &w);
                assert!(is_dag(&g, &mask), "{}: cycle for sink {t}", g.name());
                for s in 0..g.num_nodes() {
                    if s != t {
                        assert!(
                            mask_is_usable(&g, NodeId(s), NodeId(t), &mask),
                            "{}: unusable mask for ({s},{t})",
                            g.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distance_dag_keeps_nonshortest_downhill_edges() {
        // Triangle with distinct weights: 0-1 (1.0), 1-2 (1.0), 0-2 (3.0).
        // Sink 2: edge 0→2 (distance 3 → 0) and 0→1 (2 → 1) both kept:
        // multipath retained.
        let mut g = gddr_net::Graph::new("tri");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let (e_ab, _) = g.add_link(a, b, 1.0).unwrap();
        let (e_bc, _) = g.add_link(b, c, 1.0).unwrap();
        let (e_ac, _) = g.add_link(a, c, 1.0).unwrap();
        let mut w = vec![0.0; g.num_edges()];
        w[e_ab.0] = 1.0;
        w[e_bc.0] = 1.0;
        w[e_ac.0] = 3.0;
        // Set reverse weights symmetric.
        for e in g.edges() {
            if w[e.0] == 0.0 {
                let (s, t) = g.endpoints(e);
                let rev = g.edge_between(t, s).unwrap();
                w[e.0] = w[rev.0];
            }
        }
        let mask = distance_dag(&g, c, &w);
        assert!(mask[e_ac.0], "direct (longer) edge must be retained");
        assert!(mask[e_ab.0]);
        assert!(mask[e_bc.0]);
        // Reverse edges all dropped.
        assert_eq!(mask.iter().filter(|&&m| m).count(), 3);
    }

    #[test]
    fn near_zero_weight_cannot_strand_a_node() {
        // Path 0 – 1 – 2 with sink 2. The only way out of node 0 weighs
        // 5e-13, below the 1e-12 descent epsilon, so the descent test
        // alone drops it and traffic from 0 would be lost; the node's
        // shortest-path edge is kept instead.
        let g = gddr_net::topology::from_links("path", 3, &[(0, 1), (1, 2)], 10.0);
        let mut w = vec![1.0; g.num_edges()];
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        w[e01.0] = 5e-13;
        let mask = distance_dag(&g, NodeId(2), &w);
        assert!(mask[e01.0], "node 0 lost its only way to the sink");
        assert!(is_dag(&g, &mask));
        for s in 0..2 {
            assert!(mask_is_usable(&g, NodeId(s), NodeId(2), &mask));
        }
        // Nothing else is added: the reverse edges stay dropped.
        assert_eq!(mask.iter().filter(|&&m| m).count(), 2);
    }

    #[test]
    fn frontier_meets_is_acyclic_and_usable() {
        let mut rng = StdRng::seed_from_u64(1);
        for g in [zoo::abilene(), zoo::b4()] {
            let w = random_weights(g.num_edges(), &mut rng);
            for s in 0..g.num_nodes() {
                for t in 0..g.num_nodes() {
                    if s == t {
                        continue;
                    }
                    let mask = frontier_meets_dag(&g, NodeId(s), NodeId(t), &w);
                    assert!(is_dag(&g, &mask), "{}: cycle ({s},{t})", g.name());
                    assert!(
                        mask_is_usable(&g, NodeId(s), NodeId(t), &mask),
                        "{}: unusable ({s},{t})",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_meets_retains_at_least_shortest_path() {
        let g = zoo::abilene();
        let w = vec![1.0; g.num_edges()];
        let mask = frontier_meets_dag(&g, NodeId(0), NodeId(10), &w);
        let kept = mask.iter().filter(|&&m| m).count();
        assert!(kept >= 3, "too few edges kept: {kept}");
    }

    #[test]
    fn prune_dispatch() {
        let g = zoo::cesnet();
        let w = vec![1.0; g.num_edges()];
        let a = prune(&g, NodeId(0), NodeId(5), &w, PruneMode::DistanceDag);
        let b = distance_dag(&g, NodeId(5), &w);
        assert_eq!(a, b);
        let c = prune(&g, NodeId(0), NodeId(5), &w, PruneMode::FrontierMeets);
        assert!(is_dag(&g, &c));
    }

    #[test]
    fn unreachable_sink_gives_empty_mask() {
        let mut g = gddr_net::Graph::new("disc");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let iso = g.add_node("iso");
        g.add_link(a, b, 1.0).unwrap();
        let w = vec![1.0; g.num_edges()];
        let mask = frontier_meets_dag(&g, a, iso, &w);
        assert!(mask.iter().all(|&m| !m));
    }

    /// Nodes that can reach `sink` through edges kept by `mask`.
    fn masked_reaches_sink(g: &gddr_net::Graph, sink: NodeId, mask: &[bool]) -> Vec<bool> {
        let mut seen = vec![false; g.num_nodes()];
        seen[sink.0] = true;
        let mut stack = vec![sink];
        while let Some(v) = stack.pop() {
            for &e in g.in_edges(v) {
                if mask[e.0] && !seen[g.src(e).0] {
                    seen[g.src(e).0] = true;
                    stack.push(g.src(e));
                }
            }
        }
        seen
    }

    /// Seeded property loop over both prune modes, random and zoo
    /// topologies: the kept subgraph is acyclic, usable from source to
    /// sink, and the sink stays reachable from every node the mask
    /// lets the source reach (no dead ends a flow could leak into).
    #[test]
    fn prune_property_acyclic_and_sink_reachable() {
        use gddr_net::topology::random::erdos_renyi;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = match seed % 4 {
                0 => zoo::abilene(),
                1 => zoo::nsfnet(),
                2 => erdos_renyi(rng.gen_range(4..10usize), 0.35, 100.0, &mut rng),
                _ => erdos_renyi(rng.gen_range(6..14usize), 0.2, 100.0, &mut rng),
            };
            let w = random_weights(g.num_edges(), &mut rng);
            let source = NodeId(rng.gen_range(0..g.num_nodes()));
            let mut sink = NodeId(rng.gen_range(0..g.num_nodes()));
            if sink == source {
                sink = NodeId((sink.0 + 1) % g.num_nodes());
            }
            for mode in [PruneMode::DistanceDag, PruneMode::FrontierMeets] {
                let mask = prune(&g, source, sink, &w, mode);
                assert!(
                    is_dag(&g, &mask),
                    "seed {seed} {mode:?}: pruned subgraph has a cycle"
                );
                assert!(
                    mask_is_usable(&g, source, sink, &mask),
                    "seed {seed} {mode:?}: mask unusable"
                );
                // No dead ends: every node the mask lets the source
                // reach must still reach the sink through the mask.
                let to_sink = masked_reaches_sink(&g, sink, &mask);
                let mut stack = vec![source];
                let mut fwd = vec![false; g.num_nodes()];
                fwd[source.0] = true;
                while let Some(v) = stack.pop() {
                    for &e in g.out_edges(v) {
                        if mask[e.0] && !fwd[g.dst(e).0] {
                            fwd[g.dst(e).0] = true;
                            stack.push(g.dst(e));
                        }
                    }
                }
                for v in 0..g.num_nodes() {
                    if fwd[v] {
                        assert!(
                            to_sink[v],
                            "seed {seed} {mode:?}: node {v} entered but cannot reach sink"
                        );
                    }
                }
                // The distance DAG keeps a sink path for *every* node
                // (zoo and Erdős–Rényi graphs here are strongly
                // connected, so every node reaches the sink in full).
                if mode == PruneMode::DistanceDag {
                    for (v, reaches) in to_sink.iter().enumerate() {
                        assert!(reaches, "seed {seed}: node {v} lost its path to the sink");
                    }
                }
            }
        }
    }

    #[test]
    fn multipath_retention_distance_dag_counts_paths() {
        // On Abilene with unit weights, the sink-side DAG should retain
        // strictly more edges than a shortest-path tree (which has
        // n - 1 = 10 edges).
        let g = zoo::abilene();
        let w = vec![1.0; g.num_edges()];
        let mask = distance_dag(&g, NodeId(4), &w);
        let kept = mask.iter().filter(|&&m| m).count();
        assert!(kept > 10, "DAG keeps only a tree: {kept} edges");
    }
}
