//! Multicommodity-flow optimal-routing oracle.
//!
//! Computes the minimum achievable maximum link utilisation `U_opt` for
//! a demand matrix on a capacitated graph — the LP the paper solves
//! with OR-Tools to normalise the agent's reward (Eq. 2):
//!
//! `reward = − U_max_agent / U_max_optimal`.
//!
//! # Formulation
//!
//! The per-commodity LP of §II-A has `|V|²·|E|` variables. For the
//! min-max-utilisation objective, flows towards the same destination
//! are interchangeable, so commodities aggregate exactly by
//! destination (a standard TE reduction):
//!
//! - variables: `x[t][e] ≥ 0` (flow destined to `t` on edge `e`) and
//!   `U ≥ 0`,
//! - for every destination `t` and node `v ≠ t`:
//!   `Σ_out x[t] − Σ_in x[t] = D[v][t]` (conservation + source
//!   injection; absorption at `t` is implied),
//! - for every edge `e`: `Σ_t x[t][e] ≤ U · c(e)`,
//! - objective: `min U`.
//!
//! `U` may exceed 1: the oracle measures over-utilisation rather than
//! enforcing capacity, exactly like the paper's utilisation ratios.
//!
//! # One exact path: re-solves from a per-topology reference
//!
//! Demands enter only the right-hand side, so one optimal basis of a
//! graph's LP stays dual-feasible for every demand matrix on that graph.
//! The default solve therefore carries **all** `|V|` destinations (so
//! one basis fits every matrix) and re-solves from a **reference
//! basis** with the dual simplex ([`crate::simplex::resolve`]). The
//! reference is a cold solve of the capacity-gravity matrix
//! `cap_out(s)·cap_out(t)`, normalised to mean 1 over the `s ≠ t`
//! pairs: close to real traffic in shape, so few dual pivots remain,
//! and small enough in scale for phase 1's absolute feasibility test.
//!
//! The reference depends on the graph only, so every answer is a pure
//! function of `(graph, demand matrix)`: the same bits whichever
//! matrices were solved before and on whichever thread.
//! [`CachedOracle`] builds its reference once, on its first miss; the
//! free functions build one per call. If a re-solve fails for any
//! reason, the oracle runs the cold two-phase solve over the
//! destinations with demand (bumping the `lp.mcf.cold_fallbacks`
//! counter), which is also what any non-default [`SolveOptions`] run.

use std::collections::{HashMap, VecDeque};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use gddr_net::{Graph, NodeId};
use gddr_traffic::DemandMatrix;

use crate::simplex::{
    resolve, solve_with, solve_with_basis, Basis, LinearProgram, LpError, Relation, SolveOptions,
};

/// The oracle's answer for one demand matrix.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// Minimum achievable maximum link utilisation.
    pub u_max: f64,
    /// Optimal flow per destination per edge: `flows[t][e]`.
    pub flows: Vec<Vec<f64>>,
}

impl McfSolution {
    /// Per-edge total load implied by the optimal flows.
    pub fn edge_loads(&self, graph: &Graph) -> Vec<f64> {
        let mut loads = vec![0.0; graph.num_edges()];
        for per_dest in &self.flows {
            for (e, f) in per_dest.iter().enumerate() {
                loads[e] += f;
            }
        }
        loads
    }

    /// Per-edge utilisation (load / capacity).
    pub fn utilisations(&self, graph: &Graph) -> Vec<f64> {
        self.edge_loads(graph)
            .iter()
            .enumerate()
            .map(|(e, load)| load / graph.capacity(gddr_net::EdgeId(e)))
            .collect()
    }
}

/// Solves the min-max-utilisation multicommodity flow LP with default
/// solver options: a re-solve from the graph's reference basis, built
/// for this call (see the module docs). Repeated solves on one graph
/// should go through a [`CachedOracle`], which builds it once.
///
/// # Errors
///
/// Returns an [`LpError`] if the LP cannot be solved — on a strongly
/// connected graph this indicates a disconnected destination (the
/// demands cannot be delivered at any utilisation) — or
/// [`LpError::InvalidInput`] if the demand matrix does not fit the
/// graph or contains non-finite entries.
pub fn min_max_utilisation(graph: &Graph, dm: &DemandMatrix) -> Result<McfSolution, LpError> {
    min_max_utilisation_with(graph, dm, &SolveOptions::default())
}

/// [`min_max_utilisation`] under explicit [`SolveOptions`] — the entry
/// point the resilient oracle's retry ladder uses. Default options
/// re-solve from the reference basis; any other options run the cold
/// two-phase solve directly.
///
/// # Errors
///
/// As [`min_max_utilisation`].
pub fn min_max_utilisation_with(
    graph: &Graph,
    dm: &DemandMatrix,
    opts: &SolveOptions,
) -> Result<McfSolution, LpError> {
    solve_mcf(graph, dm, opts, &OnceLock::new())
}

/// The one exact path: validate, then re-solve from `reference` (built
/// on first use) under default options, else solve cold.
fn solve_mcf(
    graph: &Graph,
    dm: &DemandMatrix,
    opts: &SolveOptions,
    reference: &OnceLock<Result<Basis, LpError>>,
) -> Result<McfSolution, LpError> {
    let _span = gddr_telemetry::span("lp.mcf.solve");
    check_demands(graph, dm)?;
    if *opts == SolveOptions::default() {
        let reference = reference.get_or_init(|| reference_basis(graph));
        if let Ok(basis) = reference {
            if let Ok(sol) = resolve(basis, &all_destination_rhs(graph, dm), opts) {
                return Ok(all_destination_solution(graph, dm, &sol.x));
            }
        }
        gddr_telemetry::counter_add("lp.mcf.cold_fallbacks", 1);
    }
    let dests: Vec<usize> = (0..graph.num_nodes())
        .filter(|&t| dm.in_sum(t) > 0.0)
        .collect();
    let sol = solve_with(&build_lp(graph, dm, &dests), opts)?;
    let m = graph.num_edges();
    let mut flows = vec![vec![0.0; m]; graph.num_nodes()];
    for (d, &t) in dests.iter().enumerate() {
        flows[t].copy_from_slice(&sol.x[d * m..(d + 1) * m]);
    }
    Ok(McfSolution {
        u_max: sol.x[dests.len() * m],
        flows,
    })
}

/// Rejects a matrix that does not fit `graph` or holds a non-finite
/// entry.
fn check_demands(graph: &Graph, dm: &DemandMatrix) -> Result<(), LpError> {
    let n = graph.num_nodes();
    if dm.num_nodes() != n {
        return Err(LpError::InvalidInput(format!(
            "demand matrix is {}x{0} but the graph has {n} nodes",
            dm.num_nodes()
        )));
    }
    for s in 0..n {
        for t in 0..n {
            if !dm.get(s, t).is_finite() {
                return Err(LpError::InvalidInput(format!(
                    "non-finite demand at ({s}, {t})"
                )));
            }
        }
    }
    Ok(())
}

/// The destination-aggregated LP over `dests`. Variable layout:
/// `x[d * m + e]` for the `d`-th destination, then `U` last; rows: the
/// conservation rows of each destination in turn (nodes ascending, the
/// destination skipped), then one capacity row per edge.
fn build_lp(graph: &Graph, dm: &DemandMatrix, dests: &[usize]) -> LinearProgram {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let u_var = dests.len() * m;
    let mut lp = LinearProgram::new(u_var + 1);
    lp.set_objective_coeff(u_var, 1.0);

    for (d, &t) in dests.iter().enumerate() {
        for v in 0..n {
            if v == t {
                continue;
            }
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for &e in graph.out_edges(NodeId(v)) {
                terms.push((d * m + e.0, 1.0));
            }
            for &e in graph.in_edges(NodeId(v)) {
                terms.push((d * m + e.0, -1.0));
            }
            lp.add_constraint(&terms, Relation::Eq, dm.get(v, t));
        }
    }
    for e in 0..m {
        let mut terms: Vec<(usize, f64)> = (0..dests.len()).map(|d| (d * m + e, 1.0)).collect();
        terms.push((u_var, -graph.capacity(gddr_net::EdgeId(e))));
        lp.add_constraint(&terms, Relation::Le, 0.0);
    }
    lp
}

/// The reference matrix: `cap_out(s)·cap_out(t)` for `s ≠ t`, scaled
/// to mean 1 over those pairs.
fn reference_matrix(graph: &Graph) -> DemandMatrix {
    let n = graph.num_nodes();
    let cap_out: Vec<f64> = (0..n)
        .map(|v| {
            graph
                .out_edges(NodeId(v))
                .iter()
                .map(|&e| graph.capacity(e))
                .sum()
        })
        .collect();
    let gravity = |s: usize, t: usize| if s == t { 0.0 } else { cap_out[s] * cap_out[t] };
    let pairs = (n * n.saturating_sub(1)).max(1) as f64;
    let total: f64 = (0..n)
        .flat_map(|s| (0..n).map(move |t| (s, t)))
        .map(|(s, t)| gravity(s, t))
        .sum();
    let scale = if total > 0.0 { pairs / total } else { 1.0 };
    DemandMatrix::from_fn(n, |s, t| gravity(s, t) * scale)
}

/// Cold-solves the all-destination LP for the reference matrix and
/// keeps its optimal basis.
fn reference_basis(graph: &Graph) -> Result<Basis, LpError> {
    let _span = gddr_telemetry::span("lp.mcf.reference");
    let all: Vec<usize> = (0..graph.num_nodes()).collect();
    let lp = build_lp(graph, &reference_matrix(graph), &all);
    solve_with_basis(&lp, &SolveOptions::default()).map(|(_, basis)| basis)
}

/// Right-hand side of the all-destination LP for `dm`, in
/// [`build_lp`]'s row order.
fn all_destination_rhs(graph: &Graph, dm: &DemandMatrix) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut rhs = Vec::with_capacity(n * n.saturating_sub(1) + graph.num_edges());
    for t in 0..n {
        rhs.extend((0..n).filter(|&v| v != t).map(|v| dm.get(v, t)));
    }
    rhs.resize(rhs.len() + graph.num_edges(), 0.0);
    rhs
}

/// Unpacks an all-destination solution. A destination without demand
/// can only carry a circulation, which never raises `U`, so its flows
/// are reported as zero like the cold formulation's.
fn all_destination_solution(graph: &Graph, dm: &DemandMatrix, x: &[f64]) -> McfSolution {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let flows = (0..n)
        .map(|t| {
            if dm.in_sum(t) > 0.0 {
                x[t * m..(t + 1) * m].to_vec()
            } else {
                vec![0.0; m]
            }
        })
        .collect();
    McfSolution {
        u_max: x[n * m],
        flows,
    }
}

/// Point-in-time cache statistics for a [`CachedOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required an LP solve.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Lookups answered by the fallback ladder (Bland retry or
    /// shortest-path bound) instead of the default LP solve.
    pub fallbacks: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// An oracle answer carrying its provenance: `degraded` marks values
/// produced by the shortest-path fallback bound rather than the exact
/// LP — an upper bound on the true `U_opt`, good enough to keep an
/// episode alive but not for publication-grade ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleValue {
    /// Maximum link utilisation under the chosen routing.
    pub u_opt: f64,
    /// `true` when `u_opt` is the shortest-path upper bound, not the
    /// exact LP optimum.
    pub degraded: bool,
}

/// Keyed cache body: the map (value + degraded flag) plus FIFO
/// insertion order for eviction.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<u64, (f64, bool)>,
    order: VecDeque<u64>,
}

/// A caching wrapper around the oracle, bound to one graph.
///
/// The paper's demand sequences are cyclical (`q` distinct matrices per
/// sequence), so training revisits identical matrices constantly; the
/// cache keys on the matrix fingerprint and makes the LP cost amortised
/// O(1) per step. Hit/miss/eviction counts are kept in atomics beside
/// the map — reading [`CachedOracle::stats`] never widens the cache
/// lock's critical section.
#[derive(Debug)]
pub struct CachedOracle {
    graph: Graph,
    cache: Mutex<CacheInner>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    fallbacks: AtomicU64,
    /// Outstanding forced `PivotLimit` failures — the fault-injection
    /// hook ([`CachedOracle::inject_pivot_limit`]).
    forced_failures: AtomicU64,
    /// The graph's reference basis, built on the first miss.
    reference: OnceLock<Result<Basis, LpError>>,
}

impl CachedOracle {
    /// Creates an oracle for `graph` with an unbounded cache.
    pub fn new(graph: Graph) -> Self {
        Self::with_capacity(graph, None)
    }

    /// Creates an oracle whose cache holds at most `capacity` entries,
    /// evicting in FIFO insertion order (`None` = unbounded). The
    /// paper's workloads cycle through a small set of matrices, so FIFO
    /// behaves like LRU there at a fraction of the bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn with_capacity(graph: Graph, capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "cache capacity must be positive");
        CachedOracle {
            graph,
            cache: Mutex::new(CacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            forced_failures: AtomicU64::new(0),
            reference: OnceLock::new(),
        }
    }

    /// The graph this oracle is bound to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Locks the cache, recovering from a poisoned lock: the cache's
    /// invariants hold at every await-free point inside the critical
    /// sections, so a panic elsewhere must not wedge the oracle.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of cached entries.
    pub fn cache_len(&self) -> usize {
        self.lock().map.len()
    }

    /// Current cache statistics (counters read atomically).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            entries: self.cache_len(),
        }
    }

    /// Forces the next `n` cache-miss solves through
    /// [`CachedOracle::u_opt_resilient`] to fail with
    /// [`LpError::PivotLimit`] (a zero pivot budget), exercising the
    /// fallback ladder. Fault injection for robustness tests — strict
    /// [`CachedOracle::u_opt`] lookups are unaffected.
    pub fn inject_pivot_limit(&self, n: u64) {
        self.forced_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one forced failure, if any are outstanding.
    fn take_forced_failure(&self) -> bool {
        self.forced_failures
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Records a cache hit (telemetry + counter) and unpacks the entry.
    fn record_hit(&self, entry: (f64, bool)) -> OracleValue {
        self.hits.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::counter_add("lp.oracle.hits", 1);
        OracleValue {
            u_opt: entry.0,
            degraded: entry.1,
        }
    }

    /// Inserts (or replaces) an entry, evicts to capacity, and updates
    /// the entries gauge.
    fn insert(&self, key: u64, u: f64, degraded: bool) {
        let entries = {
            let mut cache = self.lock();
            // A racing thread may have solved the same matrix; only
            // record the key once so FIFO order stays consistent.
            if cache.map.insert(key, (u, degraded)).is_none() {
                cache.order.push_back(key);
            }
            if let Some(cap) = self.capacity {
                while cache.map.len() > cap {
                    let Some(oldest) = cache.order.pop_front() else {
                        debug_assert!(false, "order must track map");
                        break;
                    };
                    cache.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    gddr_telemetry::counter_add("lp.oracle.evictions", 1);
                }
            }
            cache.map.len()
        };
        gddr_telemetry::gauge_set("lp.oracle.entries", entries as f64);
    }

    /// Solves `dm` exactly from this oracle's reference basis, bypassing
    /// the cache: the full [`McfSolution`], bit-identical to
    /// [`min_max_utilisation`] but without rebuilding the reference.
    ///
    /// # Errors
    ///
    /// As [`min_max_utilisation`].
    pub fn solve(&self, dm: &DemandMatrix) -> Result<McfSolution, LpError> {
        self.solve_with(dm, &SolveOptions::default())
    }

    /// [`min_max_utilisation_with`] on this oracle's graph and reference.
    fn solve_with(&self, dm: &DemandMatrix, opts: &SolveOptions) -> Result<McfSolution, LpError> {
        solve_mcf(&self.graph, dm, opts, &self.reference)
    }

    /// The optimal max-link utilisation for `dm`, cached. Exact: a
    /// cached entry produced by the degraded fallback is re-solved with
    /// the real LP and replaced, so fallback bounds never leak through
    /// this method (no cache poisoning).
    ///
    /// Emits telemetry when enabled: `lp.oracle.hits` / `.misses` /
    /// `.evictions` counters, the `lp.oracle.entries` gauge and an
    /// `lp.oracle.solve` span around cache-miss LP solves.
    ///
    /// # Errors
    ///
    /// Propagates LP failures (see [`min_max_utilisation`]).
    pub fn u_opt(&self, dm: &DemandMatrix) -> Result<f64, LpError> {
        let key = dm.fingerprint();
        match self.lock().map.get(&key) {
            Some(&(_, true)) => {} // Degraded bound: re-solve exactly.
            Some(&entry) => return Ok(self.record_hit(entry).u_opt),
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::counter_add("lp.oracle.misses", 1);
        let sol = {
            let _span = gddr_telemetry::span("lp.oracle.solve");
            self.solve(dm)?
        };
        self.insert(key, sol.u_max, false);
        Ok(sol.u_max)
    }

    /// Strict lookup that honours the fault-injection hook: like
    /// [`CachedOracle::u_opt`] it has **no** fallback ladder, but a
    /// cache-miss solve consumes one outstanding
    /// [`CachedOracle::inject_pivot_limit`] failure (a zero pivot
    /// budget) and surfaces it as an [`LpError::PivotLimit`].
    ///
    /// This is the entry point for callers that supply their own
    /// degradation policy — `gddr-serve` wraps it in a circuit breaker
    /// and must *see* injected faults rather than have them absorbed.
    /// Exact values only: degraded cache entries are re-solved, and
    /// nothing degraded is ever written back.
    ///
    /// # Errors
    ///
    /// Propagates LP failures, including injected pivot-limit faults.
    pub fn u_opt_checked(&self, dm: &DemandMatrix) -> Result<f64, LpError> {
        let key = dm.fingerprint();
        match self.lock().map.get(&key) {
            Some(&(_, true)) => {} // Degraded bound: re-solve exactly.
            Some(&entry) => return Ok(self.record_hit(entry).u_opt),
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::counter_add("lp.oracle.misses", 1);
        let forced = self.take_forced_failure();
        let max_pivots = if forced { Some(0) } else { None };
        let sol = {
            let _span = gddr_telemetry::span("lp.oracle.solve");
            self.solve_with(
                dm,
                &SolveOptions {
                    bland_from_start: false,
                    max_pivots,
                },
            )?
        };
        self.insert(key, sol.u_max, false);
        Ok(sol.u_max)
    }

    /// The optimal max-link utilisation for `dm` with graceful
    /// degradation: a solver failure never propagates as long as a
    /// routing exists at all. The retry ladder on
    /// [`LpError::PivotLimit`]:
    ///
    /// 1. the default solve (Dantzig with late Bland switch-over),
    /// 2. a retry with Bland's rule from the first pivot (immune to
    ///    cycling),
    /// 3. the shortest-path utilisation upper bound, returned with
    ///    `degraded: true` and cached under the degraded flag so a
    ///    later strict [`CachedOracle::u_opt`] re-solves it.
    ///
    /// Each rung taken emits an `lp_fallback` telemetry event and bumps
    /// [`CacheStats::fallbacks`]. Non-retryable errors (infeasible,
    /// unbounded, invalid input) propagate unchanged.
    ///
    /// # Errors
    ///
    /// Propagates LP failures other than [`LpError::PivotLimit`], and
    /// [`LpError::Infeasible`] if some commodity has no path at all
    /// (the fallback bound needs connectivity too).
    pub fn u_opt_resilient(&self, dm: &DemandMatrix) -> Result<OracleValue, LpError> {
        let key = dm.fingerprint();
        if let Some(&entry) = self.lock().map.get(&key) {
            return Ok(self.record_hit(entry));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::counter_add("lp.oracle.misses", 1);

        let forced = self.take_forced_failure();
        let max_pivots = if forced { Some(0) } else { None };
        let first = {
            let _span = gddr_telemetry::span("lp.oracle.solve");
            self.solve_with(
                dm,
                &SolveOptions {
                    bland_from_start: false,
                    max_pivots,
                },
            )
        };
        match first {
            Ok(sol) => {
                self.insert(key, sol.u_max, false);
                return Ok(OracleValue {
                    u_opt: sol.u_max,
                    degraded: false,
                });
            }
            Err(LpError::PivotLimit { .. }) => {
                let _span = gddr_telemetry::span("lp.oracle.retry_bland");
                match self.solve_with(
                    dm,
                    &SolveOptions {
                        bland_from_start: true,
                        max_pivots,
                    },
                ) {
                    Ok(sol) => {
                        self.fallbacks.fetch_add(1, Ordering::Relaxed);
                        gddr_telemetry::emit(|| gddr_telemetry::Event::LpFallback {
                            strategy: "bland_retry".to_string(),
                            degraded: false,
                        });
                        self.insert(key, sol.u_max, false);
                        return Ok(OracleValue {
                            u_opt: sol.u_max,
                            degraded: false,
                        });
                    }
                    Err(LpError::PivotLimit { .. }) => {}
                    Err(other) => return Err(other),
                }
            }
            Err(other) => return Err(other),
        }

        // Last rung: route every commodity on a hop-count shortest path
        // and report the resulting max utilisation — an upper bound on
        // the true optimum, flagged degraded.
        let u_bound = shortest_path_bound(&self.graph, dm)?;
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::emit(|| gddr_telemetry::Event::LpFallback {
            strategy: "shortest_path_bound".to_string(),
            degraded: true,
        });
        self.insert(key, u_bound, true);
        Ok(OracleValue {
            u_opt: u_bound,
            degraded: true,
        })
    }
}

/// Max link utilisation when every commodity follows one hop-count
/// shortest path — the LP-free upper bound the resilient oracle falls
/// back to.
///
/// # Errors
///
/// [`LpError::InvalidInput`] on a size mismatch, [`LpError::Infeasible`]
/// if some commodity's destination is unreachable.
pub fn shortest_path_bound(graph: &Graph, dm: &DemandMatrix) -> Result<f64, LpError> {
    if dm.num_nodes() != graph.num_nodes() {
        return Err(LpError::InvalidInput(format!(
            "demand matrix is {}x{0} but the graph has {} nodes",
            dm.num_nodes(),
            graph.num_nodes()
        )));
    }
    let w = vec![1.0; graph.num_edges()];
    let mut loads = vec![0.0; graph.num_edges()];
    for (s, t, d) in dm.commodities() {
        let sp = gddr_net::algo::dijkstra(graph, NodeId(s), &w);
        let path =
            gddr_net::algo::extract_path(&sp, graph, NodeId(t)).ok_or(LpError::Infeasible)?;
        for e in path {
            loads[e.0] += d;
        }
    }
    Ok(loads
        .iter()
        .enumerate()
        .map(|(e, l)| l / graph.capacity(gddr_net::EdgeId(e)))
        .fold(0.0f64, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::{from_links, zoo};
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;
    use gddr_traffic::gen::{bimodal, BimodalParams};
    use gddr_traffic::scenario::{diurnal_flash_crowd, FlashCrowdParams};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn single_link_utilisation() {
        // Two nodes, one link of capacity 10, demand 5 → U = 0.5.
        let g = from_links("pair", 2, &[(0, 1)], 10.0);
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 5.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.5, 1e-7);
    }

    #[test]
    fn over_capacity_demand_gives_u_above_one() {
        let g = from_links("pair", 2, &[(0, 1)], 10.0);
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 25.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 2.5, 1e-7);
    }

    #[test]
    fn parallel_paths_split_optimally() {
        // Diamond: 0-1-3 and 0-2-3, all capacity 10; demand 0→3 of 10.
        // Optimal splits 5/5 → U = 0.5.
        let g = from_links("diamond", 4, &[(0, 1), (1, 3), (0, 2), (2, 3)], 10.0);
        let mut dm = DemandMatrix::zeros(4);
        dm.set(0, 3, 10.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.5, 1e-7);
    }

    #[test]
    fn asymmetric_capacities_bias_split() {
        // Two disjoint 2-hop paths with capacities 30 (via 1) and
        // 10 (via 2); demand 0→3 of 20.
        // Balanced utilisation: f1/30 = f2/10, f1+f2=20 → f1=15, f2=5,
        // U = 0.5.
        let mut g = gddr_net::Graph::new("asym");
        let n: Vec<_> = (0..4).map(|i| g.add_node(format!("n{i}"))).collect();
        g.add_link(n[0], n[1], 30.0).unwrap();
        g.add_link(n[1], n[3], 30.0).unwrap();
        g.add_link(n[0], n[2], 10.0).unwrap();
        g.add_link(n[2], n[3], 10.0).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(0, 3, 20.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.5, 1e-7);
    }

    #[test]
    fn flow_conservation_holds_in_solution() {
        let g = zoo::abilene();
        let mut rng = StdRng::seed_from_u64(0);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        for t in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if v == t {
                    continue;
                }
                let out: f64 = g
                    .out_edges(NodeId(v))
                    .iter()
                    .map(|&e| sol.flows[t][e.0])
                    .sum();
                let inn: f64 = g
                    .in_edges(NodeId(v))
                    .iter()
                    .map(|&e| sol.flows[t][e.0])
                    .sum();
                assert_close(out - inn, dm.get(v, t), 1e-5);
            }
        }
        // U matches the max utilisation implied by the flows.
        let max_util = sol.utilisations(&g).into_iter().fold(0.0f64, f64::max);
        assert_close(sol.u_max, max_util, 1e-5);
        assert!(sol.u_max > 0.0);
    }

    #[test]
    fn optimal_is_at_most_any_shortest_path_utilisation() {
        // Push everything along one fixed shortest path and check the
        // LP never does worse.
        let g = zoo::abilene();
        let mut rng = StdRng::seed_from_u64(1);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let sol = min_max_utilisation(&g, &dm).unwrap();

        let w = vec![1.0; g.num_edges()];
        let mut loads = vec![0.0; g.num_edges()];
        for (s, t, d) in dm.commodities() {
            let sp = gddr_net::algo::dijkstra(&g, NodeId(s), &w);
            let path = gddr_net::algo::extract_path(&sp, &g, NodeId(t)).unwrap();
            for e in path {
                loads[e.0] += d;
            }
        }
        let sp_util = loads
            .iter()
            .enumerate()
            .map(|(e, l)| l / g.capacity(gddr_net::EdgeId(e)))
            .fold(0.0f64, f64::max);
        assert!(
            sol.u_max <= sp_util + 1e-6,
            "LP ({}) must beat single shortest path ({})",
            sol.u_max,
            sp_util
        );
    }

    #[test]
    fn utilisation_scales_linearly_with_demands() {
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(2);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let u1 = min_max_utilisation(&g, &dm).unwrap().u_max;
        let u2 = min_max_utilisation(&g, &dm.scaled(2.0)).unwrap().u_max;
        assert_close(u2, 2.0 * u1, 1e-5);
    }

    #[test]
    fn empty_demand_matrix_is_free() {
        let g = zoo::cesnet();
        let dm = DemandMatrix::zeros(g.num_nodes());
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.0, 1e-9);
    }

    #[test]
    fn cached_oracle_hits() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let a = oracle.u_opt(&dm).unwrap();
        assert_eq!(oracle.cache_len(), 1);
        let b = oracle.u_opt(&dm).unwrap();
        assert_eq!(oracle.cache_len(), 1);
        assert_eq!(a, b);
        let dm2 = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        oracle.u_opt(&dm2).unwrap();
        assert_eq!(oracle.cache_len(), 2);
    }

    #[test]
    fn repeated_identical_matrices_produce_hits() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        assert_eq!(oracle.stats(), CacheStats::default());
        for _ in 0..4 {
            oracle.u_opt(&dm).unwrap();
        }
        let stats = oracle.stats();
        assert_eq!(stats.misses, 1, "first lookup solves the LP");
        assert_eq!(stats.hits, 3, "repeats must be served from cache");
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn bounded_cache_evicts_fifo() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::with_capacity(g.clone(), Some(2));
        let mut rng = StdRng::seed_from_u64(6);
        let params = BimodalParams::default();
        let dms: Vec<_> = (0..3)
            .map(|_| bimodal(g.num_nodes(), &params, &mut rng))
            .collect();
        let first = oracle.u_opt(&dms[0]).unwrap();
        oracle.u_opt(&dms[1]).unwrap();
        // Third insert exceeds the capacity of 2 and evicts dms[0].
        oracle.u_opt(&dms[2]).unwrap();
        let stats = oracle.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // dms[0] was evicted, so asking again re-solves (a miss).
        assert_eq!(oracle.u_opt(&dms[0]).unwrap(), first);
        assert_eq!(oracle.stats().misses, 4);
    }

    #[test]
    fn mismatched_demand_matrix_is_invalid_input_not_panic() {
        let g = zoo::abilene();
        let dm = DemandMatrix::zeros(g.num_nodes() + 3);
        assert!(matches!(
            min_max_utilisation(&g, &dm),
            Err(LpError::InvalidInput(_))
        ));
        assert!(matches!(
            shortest_path_bound(&g, &dm),
            Err(LpError::InvalidInput(_))
        ));
    }

    #[test]
    fn nonfinite_demand_is_invalid_input_not_panic() {
        // `DemandMatrix::set` rejects non-finite values, but `from_fn`
        // lets +inf through — the LP layer must still refuse it.
        let g = zoo::abilene();
        let dm = DemandMatrix::from_fn(g.num_nodes(), |s, t| {
            if (s, t) == (0, 1) {
                f64::INFINITY
            } else {
                0.0
            }
        });
        assert!(matches!(
            min_max_utilisation(&g, &dm),
            Err(LpError::InvalidInput(_))
        ));
    }

    #[test]
    fn resilient_lookup_matches_exact_on_healthy_solver() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let exact = oracle.u_opt(&dm).unwrap();
        let resilient = oracle.u_opt_resilient(&dm).unwrap();
        assert_eq!(resilient.u_opt, exact);
        assert!(!resilient.degraded);
        assert_eq!(oracle.stats().fallbacks, 0);
    }

    #[test]
    fn forced_pivot_limit_degrades_to_shortest_path_bound() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(8);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);

        oracle.inject_pivot_limit(1);
        let v = oracle.u_opt_resilient(&dm).unwrap();
        assert!(v.degraded, "zero pivot budget must force the fallback");
        assert_eq!(v.u_opt, shortest_path_bound(&g, &dm).unwrap());
        assert!(v.u_opt.is_finite() && v.u_opt > 0.0);
        let stats = oracle.stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.entries, 1);

        // The degraded value is cached for subsequent resilient
        // lookups (a hit, still flagged).
        let again = oracle.u_opt_resilient(&dm).unwrap();
        assert_eq!(again, v);
        assert_eq!(oracle.stats().hits, 1);

        // The degraded bound really is an upper bound on the optimum.
        let exact = min_max_utilisation(&g, &dm).unwrap().u_max;
        assert!(exact <= v.u_opt + 1e-9);
    }

    #[test]
    fn strict_lookup_repairs_degraded_cache_entry() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);

        oracle.inject_pivot_limit(1);
        let degraded = oracle.u_opt_resilient(&dm).unwrap();
        assert!(degraded.degraded);

        // Strict lookup must not serve the degraded bound: it
        // re-solves exactly and replaces the entry.
        let exact = oracle.u_opt(&dm).unwrap();
        assert!(exact <= degraded.u_opt + 1e-9);
        let repaired = oracle.u_opt_resilient(&dm).unwrap();
        assert_eq!(repaired.u_opt, exact);
        assert!(!repaired.degraded, "cache entry must be repaired");
        assert_eq!(oracle.cache_len(), 1);
    }

    #[test]
    fn injected_failures_are_consumed_one_per_miss() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(10);
        let params = BimodalParams::default();
        let dm1 = bimodal(g.num_nodes(), &params, &mut rng);
        let dm2 = bimodal(g.num_nodes(), &params, &mut rng);

        oracle.inject_pivot_limit(1);
        assert!(oracle.u_opt_resilient(&dm1).unwrap().degraded);
        assert!(
            !oracle.u_opt_resilient(&dm2).unwrap().degraded,
            "only one failure was injected"
        );
    }

    #[test]
    fn checked_lookup_surfaces_injected_faults_without_fallback() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let params = BimodalParams::default();
        let dm1 = bimodal(g.num_nodes(), &params, &mut rng);
        let dm2 = bimodal(g.num_nodes(), &params, &mut rng);

        oracle.inject_pivot_limit(1);
        // The injected fault propagates as an error: no fallback rung.
        assert!(matches!(
            oracle.u_opt_checked(&dm1),
            Err(LpError::PivotLimit { .. })
        ));
        assert_eq!(oracle.stats().fallbacks, 0);
        // The failed solve cached nothing, and the fault was consumed:
        // the next miss solves exactly and matches the strict path.
        assert_eq!(oracle.cache_len(), 0);
        let checked = oracle.u_opt_checked(&dm1).unwrap();
        assert_eq!(checked, oracle.u_opt(&dm1).unwrap());
        // Cache hits never consume injected faults.
        oracle.inject_pivot_limit(1);
        assert_eq!(oracle.u_opt_checked(&dm1).unwrap(), checked);
        assert!(matches!(
            oracle.u_opt_checked(&dm2),
            Err(LpError::PivotLimit { .. })
        ));
    }

    #[test]
    fn checked_lookup_repairs_degraded_entries() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(12);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);

        oracle.inject_pivot_limit(1);
        let degraded = oracle.u_opt_resilient(&dm).unwrap();
        assert!(degraded.degraded);
        let exact = oracle.u_opt_checked(&dm).unwrap();
        assert!(exact <= degraded.u_opt + 1e-9);
        let repaired = oracle.u_opt_resilient(&dm).unwrap();
        assert!(!repaired.degraded, "checked lookup must repair the entry");
        assert_eq!(repaired.u_opt, exact);
    }

    #[test]
    fn shortest_path_bound_matches_manual_routing() {
        // Two nodes, one link of capacity 10, demand 5 → bound 0.5,
        // identical to the LP on a path-unique topology.
        let g = from_links("pair", 2, &[(0, 1)], 10.0);
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 5.0);
        assert_close(shortest_path_bound(&g, &dm).unwrap(), 0.5, 1e-9);
    }

    #[test]
    fn all_zoo_topologies_solvable() {
        let mut rng = StdRng::seed_from_u64(4);
        for g in zoo::all() {
            if g.num_nodes() > 14 {
                continue; // Keep the unit test fast; big graphs are benched.
            }
            let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
            let sol = min_max_utilisation(&g, &dm).unwrap();
            assert!(sol.u_max > 0.0, "{} gave zero utilisation", g.name());
            assert!(sol.u_max.is_finite());
        }
    }

    /// Today's cold solve over the destinations with demand, bypassing
    /// the reference.
    fn cold(g: &Graph, dm: &DemandMatrix) -> f64 {
        let dests: Vec<usize> = (0..g.num_nodes()).filter(|&t| dm.in_sum(t) > 0.0).collect();
        let sol = solve_with(&build_lp(g, dm, &dests), &SolveOptions::default()).unwrap();
        sol.x[dests.len() * g.num_edges()]
    }

    /// `lp_scored`-style traffic: consecutive diurnal flash-crowd
    /// matrices, then independent bimodal ones.
    fn traffic(g: &Graph, seed: u64, diurnal: usize, bimodal_count: usize) -> Vec<DemandMatrix> {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dms = diurnal_flash_crowd(
            n,
            diurnal,
            12,
            0.3,
            600.0 * (n * (n - 1)) as f64,
            &FlashCrowdParams::default(),
            &mut rng,
        );
        dms.extend((0..bimodal_count).map(|_| bimodal(n, &BimodalParams::default(), &mut rng)));
        dms
    }

    #[test]
    fn reference_matrix_is_capacity_gravity_with_mean_one() {
        let g = zoo::abilene();
        let n = g.num_nodes();
        let dm = reference_matrix(&g);
        assert_close(dm.total() / (n * (n - 1)) as f64, 1.0, 1e-12);
        let cap_out =
            |v: usize| -> f64 { g.out_edges(NodeId(v)).iter().map(|&e| g.capacity(e)).sum() };
        let scale = dm.get(0, 1) / (cap_out(0) * cap_out(1));
        for s in 0..n {
            assert_eq!(dm.get(s, s), 0.0);
            for t in (0..n).filter(|&t| t != s) {
                assert_close(dm.get(s, t), scale * cap_out(s) * cap_out(t), 1e-12);
            }
        }
    }

    #[test]
    fn resolve_from_reference_matches_cold_solves() {
        for g in zoo::all().into_iter().filter(|g| g.num_nodes() <= 14) {
            let oracle = CachedOracle::new(g.clone());
            for (i, dm) in traffic(&g, 21, 6, 2).iter().enumerate() {
                let warm = oracle.solve(dm).unwrap().u_max;
                let cold = cold(&g, dm);
                assert!(
                    (warm - cold).abs() <= 1e-9 * cold.abs(),
                    "{} matrix {i}: resolve {warm} vs cold {cold}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn answers_are_pure_functions_of_graph_and_matrix() {
        let g = zoo::janet();
        let dms = traffic(&g, 22, 4, 2);
        let fresh: Vec<McfSolution> = dms
            .iter()
            .map(|dm| min_max_utilisation(&g, dm).unwrap())
            .collect();
        // One oracle walks the matrices backwards after unrelated
        // solves; another answers them on other threads.
        let oracle = CachedOracle::new(g.clone());
        for dm in traffic(&g, 23, 3, 1) {
            oracle.solve(&dm).unwrap();
        }
        for (dm, want) in dms.iter().zip(&fresh).rev() {
            let got = oracle.solve(dm).unwrap();
            assert_eq!(got.u_max.to_bits(), want.u_max.to_bits());
            assert_eq!(got.flows, want.flows);
        }
        let shared = CachedOracle::new(g.clone());
        std::thread::scope(|scope| {
            for (dm, want) in dms.iter().zip(&fresh) {
                let shared = &shared;
                scope.spawn(move || {
                    assert_eq!(shared.u_opt(dm).unwrap().to_bits(), want.u_max.to_bits());
                });
            }
        });
    }

    #[test]
    fn sparse_kernel_keeps_u_and_flows_bit_identical() {
        use crate::simplex::with_dense_pivots;
        for g in [zoo::cesnet(), zoo::janet(), zoo::arpanet(), zoo::abilene()] {
            for dm in traffic(&g, 24, 4, 2) {
                let sparse = min_max_utilisation(&g, &dm).unwrap();
                let dense = with_dense_pivots(|| min_max_utilisation(&g, &dm).unwrap());
                assert_eq!(
                    sparse.u_max.to_bits(),
                    dense.u_max.to_bits(),
                    "{}",
                    g.name()
                );
                assert_eq!(sparse.flows, dense.flows, "{}", g.name());
                let bland = SolveOptions {
                    bland_from_start: true,
                    max_pivots: None,
                };
                let cold_sparse = min_max_utilisation_with(&g, &dm, &bland).unwrap();
                let cold_dense =
                    with_dense_pivots(|| min_max_utilisation_with(&g, &dm, &bland).unwrap());
                assert_eq!(cold_sparse.u_max.to_bits(), cold_dense.u_max.to_bits());
                assert_eq!(cold_sparse.flows, cold_dense.flows);
            }
        }
    }

    #[test]
    fn destinations_without_demand_carry_no_flow() {
        let g = zoo::abilene();
        let mut dm = DemandMatrix::zeros(g.num_nodes());
        dm.set(0, 5, 40.0);
        dm.set(3, 5, 25.0);
        dm.set(7, 2, 10.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        for (t, flows) in sol.flows.iter().enumerate() {
            if t != 5 && t != 2 {
                assert!(
                    flows.iter().all(|&f| f == 0.0),
                    "destination {t} carries flow"
                );
            }
        }
        assert_close(sol.u_max, cold(&g, &dm), 1e-12);
    }
}
