//! Codec helpers between live serving state and durable snapshots.
//!
//! The fleet snapshot stores each shard's controller state as opaque
//! JSON inside a CRC-framed [`gddr_store`] record. This module owns the
//! conversions that need care:
//!
//! - **Routings** round-trip through sorted flow lists so snapshot
//!   bytes are a deterministic function of the routing (the underlying
//!   maps are hash maps), and decode re-validates every index and
//!   ratio before touching a [`Routing`] — the setters panic on
//!   malformed input, and a snapshot is never trusted that far.
//! - **u64 values** that can exceed 2^53 (RNG state words) travel as
//!   decimal strings; JSON numbers are f64.
//!
//! Every decode error is a `String` describing the first offence;
//! callers wrap it into [`gddr_store::StoreError::Decode`].

use gddr_net::Graph;
use gddr_routing::Routing;
use gddr_ser::{FromJson, Json};

/// Encodes a u64 losslessly (decimal string; JSON numbers are f64).
pub(crate) fn u64_to_json(v: u64) -> Json {
    Json::Str(v.to_string())
}

/// Decodes a u64 written by [`u64_to_json`].
pub(crate) fn u64_from_json(json: &Json, what: &str) -> Result<u64, String> {
    match json {
        Json::Str(s) => s.parse().map_err(|_| format!("{what}: bad u64 '{s}'")),
        _ => Err(format!("{what}: expected string-encoded u64")),
    }
}

/// Decodes a small non-negative integer stored as a JSON number.
pub(crate) fn index_from_json(json: &Json, what: &str) -> Result<usize, String> {
    usize::from_json(json).map_err(|e| format!("{what}: {}", e.0))
}

/// See [`index_from_json`]; counters and epochs fit in 2^53 easily.
pub(crate) fn count_from_json(json: &Json, what: &str) -> Result<u64, String> {
    index_from_json(json, what).map(|v| v as u64)
}

fn ratios_to_json(ratios: &[f64]) -> Json {
    Json::Arr(ratios.iter().map(|&r| Json::Num(r)).collect())
}

fn ratios_from_json(json: &Json, num_edges: usize, what: &str) -> Result<Vec<f64>, String> {
    let items = json
        .elements()
        .map_err(|e| format!("{what}: {}", e.0))?
        .iter()
        .map(|j| match j {
            Json::Num(r) if r.is_finite() => Ok(*r),
            _ => Err(format!("{what}: non-finite or non-numeric ratio")),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if items.len() != num_edges {
        return Err(format!(
            "{what}: {} ratios for {num_edges} edges",
            items.len()
        ));
    }
    Ok(items)
}

/// Serialises a routing with sorted, deterministic flow order.
pub(crate) fn routing_to_json(routing: &Routing) -> Json {
    let mut dest: Vec<(usize, &[f64])> = routing.dest_flows().collect();
    dest.sort_by_key(|&(t, _)| t);
    let mut pairs: Vec<((usize, usize), &[f64])> = routing.pair_flows().collect();
    pairs.sort_by_key(|&(k, _)| k);
    Json::obj([
        ("nodes", Json::Num(routing.num_nodes() as f64)),
        ("edges", Json::Num(routing.num_edges() as f64)),
        (
            "dest",
            Json::Arr(
                dest.into_iter()
                    .map(|(t, r)| {
                        Json::obj([("t", Json::Num(t as f64)), ("ratios", ratios_to_json(r))])
                    })
                    .collect(),
            ),
        ),
        (
            "pairs",
            Json::Arr(
                pairs
                    .into_iter()
                    .map(|((s, t), r)| {
                        Json::obj([
                            ("s", Json::Num(s as f64)),
                            ("t", Json::Num(t as f64)),
                            ("ratios", ratios_to_json(r)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Rebuilds a routing from [`routing_to_json`] output, re-validating
/// shape, indices and ratios against `graph` before any setter runs
/// (the setters panic on malformed input), and running the routing's
/// own [`Routing::validate`] before release. A corrupt-but-CRC-valid
/// snapshot must degrade to a typed error, never a panic and never an
/// installable bad routing.
pub(crate) fn routing_from_json(json: &Json, graph: &Graph) -> Result<Routing, String> {
    let err = |e: gddr_ser::JsonError| format!("routing: {}", e.0);
    let nodes = index_from_json(json.field("nodes").map_err(err)?, "routing.nodes")?;
    let edges = index_from_json(json.field("edges").map_err(err)?, "routing.edges")?;
    if nodes != graph.num_nodes() || edges != graph.num_edges() {
        return Err(format!(
            "routing: snapshot is {nodes}n/{edges}e, graph is {}n/{}e",
            graph.num_nodes(),
            graph.num_edges()
        ));
    }
    let mut routing = Routing::new(nodes, edges);
    for item in json.field("dest").map_err(err)?.elements().map_err(err)? {
        let t = index_from_json(item.field("t").map_err(err)?, "routing.dest.t")?;
        if t >= nodes {
            return Err(format!("routing: dest node {t} out of range ({nodes})"));
        }
        let ratios = ratios_from_json(item.field("ratios").map_err(err)?, edges, "routing.dest")?;
        routing.set_dest_flow(t, ratios);
    }
    for item in json.field("pairs").map_err(err)?.elements().map_err(err)? {
        let s = index_from_json(item.field("s").map_err(err)?, "routing.pairs.s")?;
        let t = index_from_json(item.field("t").map_err(err)?, "routing.pairs.t")?;
        if s >= nodes || t >= nodes || s == t {
            return Err(format!("routing: bad pair ({s}, {t}) for {nodes} nodes"));
        }
        let ratios = ratios_from_json(item.field("ratios").map_err(err)?, edges, "routing.pairs")?;
        routing.set_flow(s, t, ratios);
    }
    let violations = routing.validate(graph);
    if !violations.is_empty() {
        return Err(format!(
            "routing: snapshot fails validation ({} violations, first: {:?})",
            violations.len(),
            violations[0]
        ));
    }
    Ok(routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_core::eval::{unit_ecmp_routing, unit_shortest_path_routing};
    use gddr_net::topology::zoo;

    #[test]
    fn routings_round_trip_deterministically() {
        let graph = zoo::cesnet();
        let mut routing = unit_ecmp_routing(&graph);
        // Add a per-pair override (cloned from a valid shared entry) so
        // both flow maps are exercised.
        let ratios = routing.flow(0, 1).expect("ecmp covers (0, 1)").to_vec();
        routing.set_flow(0, 1, ratios);

        let json = routing_to_json(&routing);
        let back = routing_from_json(&json, &graph).expect("round trip");
        assert_eq!(routing, back);
        // Sorted flow order: identical JSON text every time.
        assert_eq!(json.to_string(), routing_to_json(&back).to_string());
    }

    #[test]
    fn shortest_path_round_trips() {
        let graph = zoo::cesnet();
        let routing = unit_shortest_path_routing(&graph);
        let json = routing_to_json(&routing);
        assert_eq!(routing, routing_from_json(&json, &graph).expect("round"));
    }

    #[test]
    fn corrupt_routings_are_rejected_not_panicked() {
        let graph = zoo::cesnet();
        let edges = graph.num_edges();
        let zeros = |n: usize| Json::Arr(vec![Json::Num(0.0); n]);
        let dest_entry =
            |t: f64, ratios: Json| Json::obj([("t", Json::Num(t)), ("ratios", ratios)]);
        let base = |nodes: f64, dest: Json| {
            Json::obj([
                ("nodes", Json::Num(nodes)),
                ("edges", Json::Num(edges as f64)),
                ("dest", dest),
                ("pairs", Json::Arr(vec![])),
            ])
        };
        let mut bad_ratios = vec![Json::Num(0.0); edges];
        bad_ratios[0] = Json::Num(f64::NAN);

        // Shape attacks: each must fail typed, never panic.
        let attacks = [
            base(7.0, Json::Arr(vec![])),
            Json::obj([("nodes", Json::Num(6.0))]),
            base(6.0, Json::Arr(vec![dest_entry(99.0, zeros(edges))])),
            base(6.0, Json::Arr(vec![dest_entry(-1.0, zeros(edges))])),
            base(6.0, Json::Arr(vec![dest_entry(0.0, zeros(edges - 1))])),
            base(6.0, Json::Arr(vec![dest_entry(0.0, Json::Arr(bad_ratios))])),
            Json::Arr(vec![]),
        ];
        for (i, json) in attacks.iter().enumerate() {
            assert!(
                routing_from_json(json, &graph).is_err(),
                "attack {i} was accepted"
            );
        }
    }

    #[test]
    fn pair_flow_for_same_endpoints_is_rejected() {
        let graph = zoo::cesnet();
        let ratios: Vec<Json> = (0..graph.num_edges()).map(|_| Json::Num(0.0)).collect();
        let json = Json::obj([
            ("nodes", Json::Num(6.0)),
            ("edges", Json::Num(graph.num_edges() as f64)),
            ("dest", Json::Arr(vec![])),
            (
                "pairs",
                Json::Arr(vec![Json::obj([
                    ("s", Json::Num(2.0)),
                    ("t", Json::Num(2.0)),
                    ("ratios", Json::Arr(ratios)),
                ])]),
            ),
        ]);
        let err = routing_from_json(&json, &graph).unwrap_err();
        assert!(err.contains("bad pair"), "{err}");
    }

    #[test]
    fn u64_helpers_round_trip_extremes() {
        for v in [0u64, 1, u64::MAX, 1 << 63, (1 << 53) + 1] {
            let json = u64_to_json(v);
            assert_eq!(u64_from_json(&json, "x").unwrap(), v);
        }
        assert!(u64_from_json(&Json::Num(3.0), "x").is_err());
        assert!(u64_from_json(&Json::Str("12x".into()), "x").is_err());
        assert!(index_from_json(&Json::Num(3.5), "x").is_err());
        assert!(index_from_json(&Json::Num(-1.0), "x").is_err());
        assert!(index_from_json(&Json::Num(f64::NAN), "x").is_err());
        assert_eq!(index_from_json(&Json::Num(7.0), "x").unwrap(), 7);
    }
}
