//! Microbenchmark: LP oracle solve time across topology sizes.
//!
//! The paper notes "the LP step makes the process CPU-bound"
//! (§VIII-C); this bench quantifies the oracle cost per topology, the
//! effect of the demand-matrix cache, and a serving-like sequence of
//! near-identical matrices that re-solve from one reference basis.
//!
//! Run with `cargo bench --offline --bench bench_lp`; it writes
//! `results/BENCH_lp_{solve,cache,sequence}.json`.

use gddr_bench::harness::BenchGroup;
use gddr_lp::mcf::{min_max_utilisation, CachedOracle};
use gddr_net::topology::zoo;
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::scenario::{diurnal_flash_crowd, FlashCrowdParams};

fn bench_lp_solve() {
    let mut group = BenchGroup::new("lp_solve");
    group
        .meta("demand_model", "bimodal_default")
        .meta("seed", 0usize);
    for g in [zoo::cesnet(), zoo::abilene(), zoo::nsfnet()] {
        let mut rng = StdRng::seed_from_u64(0);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        group.bench(&format!("{}_{}n", g.name(), g.num_nodes()), || {
            min_max_utilisation(&g, &dm).unwrap().u_max
        });
    }
    group.finish();
}

fn bench_lp_cache() {
    let g = zoo::abilene();
    let mut rng = StdRng::seed_from_u64(1);
    let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
    let oracle = CachedOracle::new(g);
    oracle.u_opt(&dm).unwrap(); // warm
    let mut group = BenchGroup::new("lp_cache");
    group
        .meta("topology", "abilene")
        .meta("demand_model", "bimodal_default")
        .meta("seed", 1usize);
    group.bench("lp_cache_hit", || oracle.u_opt(&dm).unwrap());
    group.finish();
}

/// 24 consecutive `diurnal_flash_crowd` matrices (one day, as served
/// by the `lp_scored` workload) through a fresh oracle per iteration, so
/// the reference-basis build is inside the timing. Every matrix is a
/// cache miss.
fn bench_lp_sequence() {
    const DAY: usize = 24;
    let mut group = BenchGroup::new("lp_sequence");
    group
        .meta("demand_model", "diurnal_flash_crowd")
        .meta("matrices", DAY)
        .meta("seed", 2usize);
    for g in [zoo::abilene(), zoo::nsfnet()] {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(2);
        let day = diurnal_flash_crowd(
            n,
            DAY,
            12,
            0.3,
            600.0 * (n * (n - 1)) as f64,
            &FlashCrowdParams::default(),
            &mut rng,
        );
        group.bench(&format!("{}_{}n_{DAY}_matrices", g.name(), n), || {
            let oracle = CachedOracle::new(g.clone());
            day.iter().map(|dm| oracle.u_opt(dm).unwrap()).sum::<f64>()
        });
    }
    group.finish();
}

fn main() {
    bench_lp_solve();
    bench_lp_cache();
    bench_lp_sequence();
}
