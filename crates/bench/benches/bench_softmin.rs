//! Microbenchmark: softmin routing translation (paper Alg. 2) across
//! topology sizes and pruning modes, from the zoo up to the 400-node
//! hierarchical WAN.

use gddr_bench::harness::BenchGroup;
use gddr_net::topology::hierarchical::hierarchical_wan_sized;
use gddr_net::topology::zoo;
use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};
use gddr_routing::prune::PruneMode;
use gddr_routing::softmin::{softmin_routing, SoftminConfig};

fn main() {
    let mut group = BenchGroup::new("softmin_routing");
    group.sample_size(20);
    let wan = |n| hierarchical_wan_sized(n, &mut StdRng::seed_from_u64(3));
    for g in [
        zoo::cesnet(),
        zoo::abilene(),
        zoo::geant(),
        wan(100),
        wan(400),
    ] {
        let mut rng = StdRng::seed_from_u64(0);
        let weights: Vec<f64> = (0..g.num_edges())
            .map(|_| rng.gen_range(0.5..4.5))
            .collect();
        for (label, mode) in [
            ("distance_dag", PruneMode::DistanceDag),
            ("frontier_meets", PruneMode::FrontierMeets),
        ] {
            // Frontier-meets is per-flow (|V|² prunings); skip it on the
            // largest graph to keep the bench short.
            if matches!(mode, PruneMode::FrontierMeets) && g.num_nodes() > 14 {
                continue;
            }
            let cfg = SoftminConfig {
                gamma: 2.0,
                prune_mode: mode,
            };
            group.bench(&format!("{label}/{}_{}n", g.name(), g.num_nodes()), || {
                softmin_routing(&g, &weights, &cfg).unwrap()
            });
        }
    }
    group.finish();
}
