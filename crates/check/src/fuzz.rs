//! Deterministic structured fuzzer on `gddr-rng`.
//!
//! A fuzz case is three values — `(target, seed, size)` — and every
//! generator draws all randomness from `StdRng::seed_from_u64(seed)`,
//! so a case reproduces bit-for-bit on any machine. Failures shrink
//! greedily over `size` to a minimal counterexample and serialise to a
//! one-line JSON replay file; `fuzz_harness --replay <file>` reruns it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gddr_lp::simplex::solve;
use gddr_lp::{mcf, LinearProgram, LpError, Relation};
use gddr_net::topology::random::erdos_renyi;
use gddr_net::topology::{mutate, text};
use gddr_net::{dot, Graph};
use gddr_rng::rngs::StdRng;
use gddr_rng::{Rng, SeedableRng};
use gddr_routing::sim::max_link_utilisation;
use gddr_routing::softmin::{softmin_routing, SoftminConfig};
use gddr_ser::{FromJson, Json, JsonError, ToJson};
use gddr_traffic::DemandMatrix;

use crate::diff::{brute_force_lp, path_enumeration_loads};
use crate::gradcheck;
use crate::invariants::{check_graph, check_routing, check_utilisation_bound};
use crate::lp_cert::{check_certificate, DEFAULT_TOL};

/// One reproducible fuzz input: a target name, the PRNG seed and a
/// structural size knob the shrinker minimises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Which property to exercise — see [`all_targets`].
    pub target: String,
    /// Seed for every random draw the case makes.
    pub seed: u64,
    /// Structural size (graph nodes, LP rows, mutation count, …).
    pub size: u64,
}

impl ToJson for FuzzCase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("target", Json::Str(self.target.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("size", Json::Num(self.size as f64)),
        ])
    }
}

impl FromJson for FuzzCase {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_field = |key: &str| -> Result<String, JsonError> {
            match json.field(key)? {
                Json::Str(s) => Ok(s.clone()),
                other => Err(JsonError(format!("{key}: expected string, got {other:?}"))),
            }
        };
        let num_field = |key: &str| -> Result<u64, JsonError> {
            match json.field(key)? {
                Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as u64),
                other => Err(JsonError(format!(
                    "{key}: expected a non-negative integer, got {other:?}"
                ))),
            }
        };
        Ok(FuzzCase {
            target: str_field("target")?,
            seed: num_field("seed")?,
            size: num_field("size")?,
        })
    }
}

impl FuzzCase {
    /// The one-line JSON replay representation.
    pub fn to_replay_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a replay file's contents.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or missing fields.
    pub fn from_replay_string(text: &str) -> Result<Self, JsonError> {
        FuzzCase::from_json(&Json::parse(text.trim())?)
    }
}

/// Result of running one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The property held.
    Pass,
    /// The property failed (or the code under test panicked).
    Fail {
        /// What went wrong.
        message: String,
        /// Whether the failure was a caught panic rather than a typed
        /// property violation.
        panicked: bool,
    },
}

impl Outcome {
    /// Whether this outcome is a failure.
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail { .. })
    }
}

/// A failing case plus its diagnosis, as collected by [`sweep`].
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The failing input (post-shrink if the caller shrank it).
    pub case: FuzzCase,
    /// Failure message.
    pub message: String,
    /// Whether the case panicked (vs a typed violation).
    pub panicked: bool,
}

/// Every fuzz target, including the deliberately broken `planted`
/// target used to test the harness itself.
pub fn all_targets() -> &'static [&'static str] {
    &[
        "routing_valid",
        "routing_rejects_bad_weights",
        "softmin_differential",
        "lp_certificate",
        "lp_differential",
        "demand_matrix",
        "parse_topology_no_panic",
        "parse_dot_no_panic",
        "mutate_invariants",
        "gradcheck",
        "serve_request",
        "telemetry_events",
        "scenario_plan",
        "snapshot_decode",
        "planted",
    ]
}

/// The CI seed-set targets: everything except `planted` (which exists
/// to prove the harness catches, shrinks and replays real failures).
pub fn ci_targets() -> Vec<&'static str> {
    all_targets()
        .iter()
        .copied()
        .filter(|&t| t != "planted")
        .collect()
}

// ---------------------------------------------------------------------
// Generators. All randomness flows from the case's seed; `size` sets
// the structural scale so shrinking it shrinks the instance.
// ---------------------------------------------------------------------

fn gen_graph(rng: &mut StdRng, size: u64) -> Graph {
    let n = 3 + (size as usize % 10);
    let p = rng.gen_range(0.15..0.6);
    erdos_renyi(n, p, rng.gen_range(50.0..500.0), rng)
}

fn gen_weights(rng: &mut StdRng, m: usize) -> Vec<f64> {
    (0..m).map(|_| rng.gen_range(0.1..10.0)).collect()
}

/// A weight vector with one adversarial entry injected.
fn gen_bad_weights(rng: &mut StdRng, m: usize) -> (Vec<f64>, usize) {
    let mut w = gen_weights(rng, m);
    let idx = rng.gen_range(0..m);
    w[idx] = match rng.gen_range(0u8..5) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -rng.gen_range(0.1..5.0),
        _ => 0.0,
    };
    (w, idx)
}

fn gen_demand(rng: &mut StdRng, n: usize) -> DemandMatrix {
    let mut dm = DemandMatrix::zeros(n);
    for s in 0..n {
        for t in 0..n {
            if s != t && rng.gen_range(0.0..1.0) < 0.4 {
                dm.set(s, t, rng.gen_range(0.5..20.0));
            }
        }
    }
    dm
}

/// A feasible-by-witness LP with box bounds, occasionally degenerate
/// (duplicated rows, zero RHS contributions).
fn gen_feasible_lp(rng: &mut StdRng, size: u64) -> LinearProgram {
    let n = 2 + (size as usize % 3);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
    let mut lp = LinearProgram::new(n);
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    lp.set_objective(&obj);
    let rows = 1 + (size as usize % 4);
    for _ in 0..rows {
        let coeffs: Vec<(usize, f64)> = (0..n).map(|i| (i, rng.gen_range(-3.0..3.0))).collect();
        let lhs: f64 = coeffs.iter().map(|&(i, c)| c * x0[i]).sum();
        let dup = rng.gen_range(0u8..4) == 0;
        match rng.gen_range(0u8..3) {
            0 => lp.add_constraint(&coeffs, Relation::Le, lhs + rng.gen_range(0.0..2.0)),
            1 => lp.add_constraint(&coeffs, Relation::Ge, lhs - rng.gen_range(0.0..2.0)),
            _ => lp.add_constraint(&coeffs, Relation::Eq, lhs),
        }
        if dup {
            // Degeneracy magnet: an exactly duplicated equality.
            lp.add_constraint(&coeffs, Relation::Eq, lhs);
        }
    }
    for i in 0..n {
        lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
    }
    lp
}

/// A small LP that may or may not be feasible, always box-bounded so
/// the brute-force reference is exact.
fn gen_any_lp(rng: &mut StdRng, size: u64) -> LinearProgram {
    let n = 2 + (size as usize % 2);
    let mut lp = LinearProgram::new(n);
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    lp.set_objective(&obj);
    let rows = 1 + (size as usize % 3);
    for _ in 0..rows {
        let coeffs: Vec<(usize, f64)> = (0..n).map(|i| (i, rng.gen_range(-2.0..2.0))).collect();
        let rel = match rng.gen_range(0u8..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_constraint(&coeffs, rel, rng.gen_range(-4.0..4.0));
    }
    for i in 0..n {
        lp.add_constraint(&[(i, 1.0)], Relation::Le, 8.0);
    }
    lp
}

/// Structured text mutation: deletes, duplicates, truncates lines and
/// injects garbage tokens into an initially valid document.
fn mutate_text(rng: &mut StdRng, valid: &str, edits: usize) -> String {
    let mut lines: Vec<String> = valid.lines().map(str::to_string).collect();
    for _ in 0..edits {
        if lines.is_empty() {
            lines.push("garbage".to_string());
            continue;
        }
        let i = rng.gen_range(0..lines.len());
        match rng.gen_range(0u8..6) {
            0 => {
                lines.remove(i);
            }
            1 => {
                let l = lines[i].clone();
                lines.insert(i, l);
            }
            2 => {
                let cut = rng.gen_range(0..=lines[i].chars().count());
                lines[i] = lines[i].chars().take(cut).collect();
            }
            3 => {
                let mut toks: Vec<&str> = lines[i].split(' ').collect();
                if toks.len() >= 2 {
                    let a = rng.gen_range(0..toks.len());
                    let b = rng.gen_range(0..toks.len());
                    toks.swap(a, b);
                }
                lines[i] = toks.join(" ");
            }
            4 => {
                let garbage = ["-> ->", "\"", "nan", "}", "node node", "-1e999", "🦀"];
                let g = garbage[rng.gen_range(0..garbage.len())];
                lines[i] = format!("{} {g}", lines[i]);
            }
            _ => {
                lines.insert(i, "total garbage ! [ ;".to_string());
            }
        }
    }
    lines.join("\n")
}

// ---------------------------------------------------------------------
// Targets.
// ---------------------------------------------------------------------

fn fail(message: impl Into<String>) -> Result<(), String> {
    Err(message.into())
}

fn target_routing_valid(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen_graph(&mut rng, size);
    let w = gen_weights(&mut rng, g.num_edges());
    let routing = softmin_routing(&g, &w, &SoftminConfig::default())
        .map_err(|e| format!("valid weights rejected: {e}"))?;
    let violations = check_routing(&g, &routing);
    if !violations.is_empty() {
        return fail(format!("routing invariants: {}", violations[0]));
    }
    let dm = gen_demand(&mut rng, g.num_nodes());
    let report =
        max_link_utilisation(&g, &routing, &dm).map_err(|e| format!("simulation failed: {e}"))?;
    if !report.u_max.is_finite() || report.u_max < 0.0 {
        return fail(format!("non-finite U_max {}", report.u_max));
    }
    // On small instances, verify the routing cannot beat the LP optimum.
    if g.num_nodes() <= 6 && dm.total() > 0.0 {
        let opt = mcf::min_max_utilisation(&g, &dm).map_err(|e| format!("oracle failed: {e}"))?;
        let violations = check_utilisation_bound(report.u_max, opt.u_max, 1e-6);
        if !violations.is_empty() {
            return fail(format!("optimality bound: {}", violations[0]));
        }
    }
    Ok(())
}

fn target_routing_rejects_bad_weights(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen_graph(&mut rng, size);
    let (w, idx) = gen_bad_weights(&mut rng, g.num_edges());
    match softmin_routing(&g, &w, &SoftminConfig::default()) {
        Err(_) => Ok(()),
        Ok(_) => fail(format!(
            "weight {} at edge {idx} was accepted by softmin_routing",
            w[idx]
        )),
    }
}

fn target_softmin_differential(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 3 + (size as usize % 4); // Tiny: exhaustive enumeration.
    let g = erdos_renyi(n, 0.4, 100.0, &mut rng);
    let w = gen_weights(&mut rng, g.num_edges());
    let routing = softmin_routing(&g, &w, &SoftminConfig::default())
        .map_err(|e| format!("softmin failed: {e}"))?;
    let s = rng.gen_range(0..n);
    let t = (s + 1 + rng.gen_range(0..n - 1)) % n;
    if s == t {
        return Ok(());
    }
    let mut dm = DemandMatrix::zeros(n);
    dm.set(s, t, 1.0);
    let report = max_link_utilisation(&g, &routing, &dm)
        .map_err(|e| format!("simulation failed on unit demand {s}->{t}: {e}"))?;
    let loads = path_enumeration_loads(&g, &routing, s, t, 1_000_000)
        .ok_or_else(|| format!("ratio subgraph for {s}->{t} is cyclic or path-explosive"))?;
    for (e, (path_load, sim_load)) in loads.iter().zip(&report.loads).enumerate() {
        if (path_load - sim_load).abs() > 1e-6 {
            return fail(format!(
                "edge {e} load: paths {path_load} vs simulator {sim_load}"
            ));
        }
    }
    Ok(())
}

fn target_lp_certificate(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lp = gen_feasible_lp(&mut rng, size);
    let sol = solve(&lp).map_err(|e| format!("feasible-by-witness LP failed: {e}"))?;
    let violations = check_certificate(&lp, &sol, DEFAULT_TOL);
    if violations.is_empty() {
        Ok(())
    } else {
        fail(format!(
            "{} certificate violations, first: {}",
            violations.len(),
            violations[0]
        ))
    }
}

fn target_lp_differential(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lp = gen_any_lp(&mut rng, size);
    let reference = brute_force_lp(&lp);
    match (solve(&lp), reference) {
        (Ok(sol), Some((obj, _))) => {
            if (sol.objective - obj).abs() > 1e-6 * (1.0 + obj.abs()) {
                fail(format!("simplex {} vs brute force {obj}", sol.objective))
            } else {
                Ok(())
            }
        }
        (Err(LpError::Infeasible), None) => Ok(()),
        (Ok(sol), None) => fail(format!(
            "simplex found {} but brute force says infeasible",
            sol.objective
        )),
        (Err(LpError::Infeasible), Some((obj, _))) => {
            fail(format!("simplex says infeasible, brute force found {obj}"))
        }
        (Err(e), _) => fail(format!("simplex error on boxed LP: {e}")),
    }
}

fn target_demand_matrix(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen_graph(&mut rng, size.min(4)); // Keep the LP small.
    let n = g.num_nodes();
    let dm = gen_demand(&mut rng, n);
    match mcf::min_max_utilisation(&g, &dm) {
        Ok(sol) if sol.u_max.is_finite() && sol.u_max >= 0.0 => {}
        Ok(sol) => return fail(format!("oracle returned U_opt = {}", sol.u_max)),
        Err(e) => return fail(format!("valid demand matrix rejected: {e}")),
    }
    // A size-mismatched matrix must be a typed error, never a panic.
    let wrong = gen_demand(&mut rng, n + 1);
    match mcf::min_max_utilisation(&g, &wrong) {
        Err(LpError::InvalidInput(_)) => {}
        Err(e) => return fail(format!("expected InvalidInput, got {e}")),
        Ok(sol) => {
            return fail(format!(
                "size-mismatched demand accepted with U_opt = {}",
                sol.u_max
            ))
        }
    }
    // Non-finite demand is rejected at construction: `DemandMatrix::set`
    // must refuse it (so NaN can never reach the oracle at all).
    let s = rng.gen_range(0..n);
    let t = (s + 1) % n;
    let bad_value = if rng.gen_range(0u8..3) == 0 {
        f64::NAN
    } else if rng.gen_range(0u8..2) == 0 {
        f64::INFINITY
    } else {
        -rng.gen_range(0.1..5.0)
    };
    let rejected = catch_unwind(AssertUnwindSafe(|| {
        let mut dm = DemandMatrix::zeros(n);
        dm.set(s, t, bad_value);
    }))
    .is_err();
    if rejected {
        Ok(())
    } else {
        fail(format!("DemandMatrix accepted demand {bad_value}"))
    }
}

fn target_parse_topology_no_panic(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen_graph(&mut rng, size);
    let valid = text::to_text(&g);
    let edits = 1 + (size as usize % 6);
    let mutated = mutate_text(&mut rng, &valid, edits);
    // Ok and Err are both acceptable; the property is "no panic" (the
    // harness catches unwinds) and "Ok graphs are well-formed".
    if let Ok(parsed) = text::parse_topology(&mutated) {
        for e in parsed.edges() {
            let cap = parsed.capacity(e);
            if !(cap.is_finite() && cap > 0.0) {
                return fail(format!("parser accepted capacity {cap}"));
            }
        }
    }
    Ok(())
}

fn target_parse_dot_no_panic(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen_graph(&mut rng, size);
    let valid = dot::to_dot(&g);
    let edits = 1 + (size as usize % 6);
    let mutated = mutate_text(&mut rng, &valid, edits);
    if let Ok(parsed) = dot::parse_dot(&mutated) {
        for e in parsed.edges() {
            let cap = parsed.capacity(e);
            if !(cap.is_finite() && cap > 0.0) {
                return fail(format!("parser accepted capacity {cap}"));
            }
        }
    }
    Ok(())
}

fn target_mutate_invariants(seed: u64, size: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen_graph(&mut rng, size);
    let edits = 1 + (size as usize % 5);
    let mutated = mutate::random_edits(&g, edits, &mut rng);
    let violations = check_graph(&mutated);
    if violations.is_empty() {
        Ok(())
    } else {
        fail(format!("after {edits} edits: {}", violations[0]))
    }
}

fn target_gradcheck(seed: u64, _size: u64) -> Result<(), String> {
    let report = gradcheck::check_all(seed);
    if report.ok() {
        Ok(())
    } else {
        fail(format!(
            "max relative error {} at {}",
            report.max_rel_err, report.worst
        ))
    }
}

/// Serving never drops a request: drive a small inline-mode
/// one-replica set with a hostile request mix — valid bimodal traffic,
/// infinite demands, wrong-size and zero-node matrices, zero
/// deadlines, random bursts against a tiny queue — and require that
/// every submitted request gets exactly one response, every response
/// carries a routing valid for the graph, only valid requests with a
/// real deadline ever earn fresh inference, and the controller's shed
/// counter matches the shed-tagged responses.
fn target_serve_request(seed: u64, size: u64) -> Result<(), String> {
    use gddr_core::{DdrEnvConfig, MlpPolicy};
    use gddr_serve::{
        ControllerConfig, EngineFactory, EpochRequest, FailoverConfig, HedgeConfig,
        InferenceEngine, PolicyEngine, ReplicaSet, Rung,
    };
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(seed);
    let n = 4;
    let graph = gddr_net::topology::from_links(
        "fuzz-serve",
        n,
        &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)],
        100.0,
    );
    let memory = 2;
    let factory: EngineFactory = Arc::new(move |g: &Graph| {
        let mut prng = StdRng::seed_from_u64(0xfee1);
        let policy = MlpPolicy::new(memory, g.num_nodes(), g.num_edges(), &[4], -0.5, &mut prng);
        Box::new(PolicyEngine::new(policy, g, memory)) as Box<dyn InferenceEngine>
    });
    let mut config = ControllerConfig {
        queue_capacity: 1 + (size as usize % 4),
        // Oracle scoring on some cases only: it exercises the breaker
        // path but costs an LP solve per request.
        score_responses: seed.is_multiple_of(4),
        ..ControllerConfig::default()
    };
    config.pool.workers = 1;
    let mut set = ReplicaSet::new(
        0,
        graph.clone(),
        DdrEnvConfig {
            memory,
            ..DdrEnvConfig::default()
        },
        config,
        vec![factory],
        FailoverConfig::default(),
        HedgeConfig::default(),
    )
    .map_err(|e| format!("replica set: {e}"))?;

    let rounds = 2 + (size as usize % 12);
    let mut submitted: u64 = 0;
    let mut answered: u64 = 0;
    let mut shed_seen: u64 = 0;
    let mut valid_by_epoch: Vec<bool> = Vec::new();

    let check = |resp: &gddr_serve::RouteResponse, valid_by_epoch: &[bool]| -> Result<(), String> {
        if !resp.routing.validate(&graph).is_empty() {
            return Err(format!(
                "response for request {} carries an invalid routing",
                resp.epoch
            ));
        }
        let was_valid = *valid_by_epoch
            .get(resp.epoch as usize)
            .ok_or_else(|| format!("response for unknown request {}", resp.epoch))?;
        if resp.rung == Rung::Fresh && !was_valid {
            return Err(format!(
                "malformed request {} was served fresh inference",
                resp.epoch
            ));
        }
        if resp.rung == Rung::Fresh && resp.shed {
            return Err(format!("request {} both shed and fresh", resp.epoch));
        }
        Ok(())
    };

    for _ in 0..rounds {
        let burst = 1 + (rng.next_u64() % 3);
        let mut responses = Vec::new();
        for _ in 0..burst {
            let kind = rng.next_u64() % 8;
            let (demands, deadline_ms, valid) =
                match kind {
                    // NaN itself is unconstructible in-tree (`from_fn`
                    // clamps it away); infinity is the non-finite probe.
                    0 => (
                        DemandMatrix::from_fn(n, |s, d| {
                            if s == 0 && d == 1 {
                                f64::INFINITY
                            } else {
                                1.0
                            }
                        }),
                        50,
                        false,
                    ),
                    1 => (DemandMatrix::zeros(0), 50, false),
                    2 => {
                        let wrong = 1 + (rng.next_u64() as usize % 9);
                        let valid = wrong == n;
                        (DemandMatrix::zeros(wrong), 50, valid)
                    }
                    3 => (gen_demand(&mut rng, n), 0, false),
                    _ => (gen_demand(&mut rng, n), 50, true),
                };
            let req = EpochRequest {
                epoch: submitted,
                demands,
                deadline_ms,
            };
            // Zero-deadline requests are well-formed but can never be
            // served fresh.
            valid_by_epoch.push(valid && deadline_ms > 0);
            submitted += 1;
            responses.extend(set.enqueue(req));
        }
        while let Some(resp) = set.process_next() {
            responses.push(resp);
        }
        for resp in &responses {
            answered += 1;
            shed_seen += u64::from(resp.shed);
            check(resp, &valid_by_epoch)?;
        }
    }

    if answered != submitted {
        return fail(format!(
            "submitted {submitted} requests but {answered} answered"
        ));
    }
    let stats = set.with_primary(|c| c.stats().clone());
    if stats.responses() != answered {
        return fail(format!(
            "stats disagree: {} recorded vs {answered} observed",
            stats.responses()
        ));
    }
    if stats.shed != shed_seen {
        return fail(format!(
            "shed counter disagrees: {} recorded vs {shed_seen} shed-tagged responses",
            stats.shed
        ));
    }
    Ok(())
}

/// Round-trips randomly generated observability events — trace spans,
/// trace annotations, SLO alerts — through the JSONL telemetry codec
/// with hostile attribute strings (quotes, backslashes, newlines,
/// NULs, multi-byte scalars), then feeds a mutated line back through
/// the parser, which must reject it with a typed error, never a panic
/// and never a silent accept.
fn target_telemetry_events(seed: u64, size: u64) -> Result<(), String> {
    use gddr_telemetry::{parse_jsonl, Event};
    let mut rng = StdRng::seed_from_u64(seed);
    let hostile = |rng: &mut StdRng| -> String {
        const POOL: &[&str] = &[
            "plain",
            "q\"uote",
            "back\\slash",
            "new\nline",
            "tab\there",
            "\u{1F980}",
            "",
            "nul\u{0}byte",
            "ctrl\u{1}\u{1f}",
        ];
        POOL[(rng.next_u64() as usize) % POOL.len()].to_string()
    };
    let count = 1 + (size as usize % 24);
    let mut events = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let attrs: Vec<(String, String)> = (0..rng.next_u64() % 4)
            .map(|k| (format!("k{k}"), hostile(&mut rng)))
            .collect();
        events.push(match rng.next_u64() % 3 {
            0 => Event::TraceSpan {
                trace_id: 1 + rng.next_u64() % 1000,
                shard: rng.next_u64() % 16,
                name: hostile(&mut rng),
                start_us: rng.next_u64() % 1_000_000,
                dur_ns: rng.next_u64() % 1_000_000_000,
                attrs,
            },
            1 => Event::TraceAnnotation {
                trace_id: 1 + rng.next_u64() % 1000,
                shard: rng.next_u64() % 16,
                name: hostile(&mut rng),
                at_us: rng.next_u64() % 1_000_000,
                attrs,
            },
            _ => Event::SloAlert {
                shard: rng.next_u64() % 16,
                metric: hostile(&mut rng),
                burn_rate: rng.gen_range(0.0..64.0),
                threshold: 4.0,
                window: 1 + rng.next_u64() % 256,
                epoch: i,
            },
        });
    }
    let text: String = events
        .iter()
        .map(|e| e.to_json().to_string() + "\n")
        .collect();
    let back = parse_jsonl(&text).map_err(|e| format!("round-trip parse failed: {e}"))?;
    if back != events {
        return fail("parsed events disagree with the originals".to_string());
    }
    let again: String = back
        .iter()
        .map(|e| e.to_json().to_string() + "\n")
        .collect();
    if again != text {
        return fail("re-serialisation is not byte-stable".to_string());
    }

    // Adversarial half: truncating a line, renaming the type tag, or
    // appending garbage must all be rejected with a typed error (the
    // harness's catch_unwind turns any panic into a failure).
    let lines: Vec<&str> = text.lines().collect();
    let victim = lines[(rng.next_u64() as usize) % lines.len()];
    let mutated: String = match rng.next_u64() % 3 {
        // Char-boundary-safe truncation: always loses the closing brace.
        0 => victim.chars().take(victim.chars().count() / 2).collect(),
        1 => victim.replacen("\"type\":", "\"tpye\":", 1),
        _ => format!("{victim}garbage"),
    };
    if parse_jsonl(&mutated).is_ok() {
        return fail(format!("mutated line unexpectedly parsed: {mutated:?}"));
    }
    Ok(())
}

/// Dynamics plans are data, not code: throw randomly generated —
/// mostly malformed — [`gddr_serve::DynamicsPlan`]s at validation and
/// timeline compilation. Malformed plans (zero timers/strides,
/// out-of-range edges and replica windows, non-finite or out-of-range
/// drain factors, overflowing event horizons) must come back as typed
/// [`gddr_serve::ScenarioError`]s, never a panic; well-formed plans
/// must validate, and when they compile the resulting timeline must be
/// deterministic (bit-identical event digest on recompile) and keep
/// every emitted topology strongly connected.
fn target_scenario_plan(seed: u64, size: u64) -> Result<(), String> {
    use gddr_serve::{DynamicsEvent, DynamicsPlan, DynamicsTimeline, MAX_HORIZON};

    let mut rng = StdRng::seed_from_u64(seed);
    let graph = gen_graph(&mut rng, size);
    let m = graph.num_edges();
    let replica_count = 1 + (rng.next_u64() as usize % 4);

    let mut plan = DynamicsPlan::new();
    let mut malformed = false;
    let events = 1 + (size as usize % 6);
    for _ in 0..events {
        let tick = (rng.next_u64() % 12) as usize;
        // Roughly half the events are degenerate by construction.
        let (tick, event) = match rng.next_u64() % 12 {
            0 => {
                malformed = true;
                (
                    tick,
                    DynamicsEvent::LinkFlap {
                        count: 0,
                        repair_after: 1 + (rng.next_u64() as usize % 5),
                    },
                )
            }
            1 => {
                malformed = true;
                (
                    tick,
                    DynamicsEvent::FlapEdge {
                        edge: m + (rng.next_u64() as usize % 7),
                        repair_after: 2,
                    },
                )
            }
            2 => {
                malformed = true;
                let factor = match rng.next_u64() % 5 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -rng.gen_range(0.1..2.0),
                    3 => 0.0,
                    _ => 1.0 + rng.gen_range(0.1..4.0),
                };
                (
                    tick,
                    DynamicsEvent::CapacityDrain {
                        factor,
                        restore_after: 2,
                    },
                )
            }
            3 => {
                malformed = true;
                (
                    tick,
                    DynamicsEvent::MaintenanceWindow {
                        first_replica: replica_count + (rng.next_u64() as usize % 3),
                        replicas: 1,
                        stride: 1,
                    },
                )
            }
            4 => {
                malformed = true;
                // Zero stride or zero replicas, alternating.
                let zero_stride = rng.next_u64() % 2 == 0;
                (
                    tick,
                    DynamicsEvent::MaintenanceWindow {
                        first_replica: 0,
                        replicas: if zero_stride { 1 } else { 0 },
                        stride: if zero_stride { 0 } else { 1 },
                    },
                )
            }
            5 => {
                malformed = true;
                // Horizon overflow: an end tick past MAX_HORIZON or
                // past usize::MAX entirely.
                match rng.next_u64() % 3 {
                    0 => (
                        usize::MAX - (rng.next_u64() as usize % 3),
                        DynamicsEvent::LinkFlap {
                            count: 1,
                            repair_after: 2 + (rng.next_u64() as usize % 9),
                        },
                    ),
                    1 => (
                        tick,
                        DynamicsEvent::CapacityDrain {
                            factor: 0.5,
                            restore_after: MAX_HORIZON + 1 + (rng.next_u64() as usize % 9),
                        },
                    ),
                    _ => (
                        tick,
                        DynamicsEvent::MaintenanceWindow {
                            first_replica: 0,
                            replicas: 2.max(replica_count),
                            stride: usize::MAX / 2,
                        },
                    ),
                }
            }
            6 | 7 => (
                tick,
                DynamicsEvent::LinkFlap {
                    count: 1 + (rng.next_u64() as usize % 2),
                    repair_after: 1 + (rng.next_u64() as usize % 5),
                },
            ),
            8 => (
                tick,
                DynamicsEvent::FlapEdge {
                    edge: rng.next_u64() as usize % m,
                    repair_after: 1 + (rng.next_u64() as usize % 5),
                },
            ),
            9 | 10 => (
                tick,
                DynamicsEvent::CapacityDrain {
                    factor: rng.gen_range(0.3..1.0),
                    restore_after: 1 + (rng.next_u64() as usize % 5),
                },
            ),
            _ => {
                let first = rng.next_u64() as usize % replica_count;
                (
                    tick,
                    DynamicsEvent::MaintenanceWindow {
                        first_replica: first,
                        replicas: 1 + (rng.next_u64() as usize % (replica_count - first)),
                        stride: 1 + (rng.next_u64() as usize % 3),
                    },
                )
            }
        };
        plan = plan.at(tick, event);
    }

    let validated = plan.validate(&graph, replica_count);
    if malformed {
        match validated {
            Err(e) => {
                // Display must not panic on any variant.
                let _ = e.to_string();
                return Ok(());
            }
            Ok(()) => {
                return fail("plan with a malformed event passed validation".to_string());
            }
        }
    }
    validated.map_err(|e| format!("well-formed plan rejected: {e}"))?;

    // A valid plan may still fail to compile for composition reasons
    // (e.g. a FlapEdge that would disconnect the WAN) — those must be
    // typed errors too; a successful compile must be deterministic and
    // keep every snapshot strongly connected.
    match DynamicsTimeline::compile(&plan, &graph, replica_count, seed) {
        Err(e) => {
            let _ = e.to_string();
            Ok(())
        }
        Ok(tl) => {
            let again = DynamicsTimeline::compile(&plan, &graph, replica_count, seed)
                .map_err(|e| format!("recompile of a compilable plan failed: {e}"))?;
            if tl.event_sequence() != again.event_sequence() {
                return fail(format!(
                    "non-deterministic compile: {:?} vs {:?}",
                    tl.event_sequence(),
                    again.event_sequence()
                ));
            }
            if tl.horizon() != again.horizon() {
                return fail("non-deterministic horizon".to_string());
            }
            for tick in 0..=tl.horizon() {
                if let Some(actions) = tl.actions(tick) {
                    if let Some(topo) = &actions.topology {
                        if !gddr_net::algo::is_strongly_connected(topo) {
                            return fail(format!("snapshot at tick {tick} is disconnected"));
                        }
                    }
                }
            }
            Ok(())
        }
    }
}

/// The durable-snapshot codec never panics and never silently accepts
/// damage: build a valid [`gddr_store::FleetSnapshot`] with hostile
/// shard names and state trees, require the framed record to decode
/// back to a byte-identical fixed point, then attack the frame —
/// truncation at a random prefix, a single bit flip anywhere, trailing
/// garbage, a rewritten magic/version byte, and free-form random bytes
/// — and require every attack to come back as a typed
/// [`gddr_store::StoreError`] whose `Display` and `kind_name` are
/// callable.
fn target_snapshot_decode(seed: u64, size: u64) -> Result<(), String> {
    use gddr_store::{FleetSnapshot, ShardSnapshot, StoreError, RECORD_HEADER_LEN};

    let mut rng = StdRng::seed_from_u64(seed);
    let hostile = |rng: &mut StdRng| -> String {
        const POOL: &[&str] = &[
            "cesnet",
            "eu\"west",
            "back\\slash",
            "multi\nline",
            "\u{1F980}-shard",
            "",
            "nul\u{0}byte",
        ];
        POOL[(rng.next_u64() as usize) % POOL.len()].to_string()
    };
    let state = |rng: &mut StdRng| -> Json {
        match rng.next_u64() % 4 {
            0 => Json::Null,
            1 => Json::obj([
                ("epoch", Json::Num((rng.next_u64() % 4096) as f64)),
                ("rung", Json::Str(hostile(rng))),
            ]),
            2 => Json::Arr(
                (0..rng.next_u64() % 5)
                    .map(|i| Json::Num(i as f64 * 0.5 - 1.0))
                    .collect(),
            ),
            _ => Json::obj([("nested", Json::obj([("deep", Json::Str(hostile(rng)))]))]),
        }
    };
    let shard_count = 1 + (size as usize % 8);
    let snap = FleetSnapshot {
        generation: 1 + rng.next_u64() % 1000,
        tick: rng.next_u64() % 100_000,
        shards: (0..shard_count)
            .map(|i| ShardSnapshot {
                shard: i as u64,
                // Names get an index suffix so by-name lookup stays
                // unambiguous even when the hostile pool repeats.
                name: format!("{}-{i}", hostile(&mut rng)),
                state: state(&mut rng),
            })
            .collect(),
    };

    // A valid snapshot round-trips to a byte-identical fixed point.
    let bytes = snap.to_record_bytes();
    let back = FleetSnapshot::from_record_bytes(&bytes)
        .map_err(|e| format!("valid snapshot rejected: {e} ({})", e.kind_name()))?;
    if back != snap {
        return fail("decoded snapshot disagrees with the original".to_string());
    }
    if back.to_record_bytes() != bytes {
        return fail("re-encoding the decoded snapshot is not byte-identical".to_string());
    }
    for shard in &snap.shards {
        if back.shard_named(&shard.name).map(|s| s.shard) != Some(shard.shard) {
            return fail(format!("shard {:?} lost in the round trip", shard.name));
        }
    }

    // Every corruption class must surface as a typed error (the
    // harness's catch_unwind turns any panic into a failure) whose
    // Display and kind_name render without panicking.
    let expect_err = |label: &str, data: &[u8]| -> Result<(), String> {
        match FleetSnapshot::from_record_bytes(data) {
            Err(e) => {
                let _ = e.to_string();
                let _ = e.kind_name();
                Ok(())
            }
            Ok(_) => Err(format!("{label}: corrupted record decoded cleanly")),
        }
    };
    let attacks = 2 + (size as usize % 6);
    for _ in 0..attacks {
        match rng.next_u64() % 5 {
            0 => {
                let cut = (rng.next_u64() as usize) % bytes.len();
                expect_err("truncation", &bytes[..cut])?;
            }
            1 => {
                let mut bad = bytes.clone();
                let byte = (rng.next_u64() as usize) % bad.len();
                bad[byte] ^= 1 << (rng.next_u64() % 8);
                expect_err("bit flip", &bad)?;
            }
            2 => {
                let mut bad = bytes.clone();
                bad.extend((0..1 + rng.next_u64() % 9).map(|i| i as u8));
                expect_err("trailing garbage", &bad)?;
            }
            3 => {
                let mut bad = bytes.clone();
                let header_byte = (rng.next_u64() as usize) % RECORD_HEADER_LEN;
                bad[header_byte] = bad[header_byte].wrapping_add(1 + (rng.next_u64() % 254) as u8);
                expect_err("header rewrite", &bad)?;
            }
            _ => {
                let junk: Vec<u8> = (0..rng.next_u64() % 64)
                    .map(|_| (rng.next_u64() & 0xFF) as u8)
                    .collect();
                // Random bytes never carry the magic tag, so decode
                // must refuse them.
                expect_err("random bytes", &junk)?;
            }
        }
    }

    // An intact frame around a non-snapshot payload is a Decode error,
    // not a panic and not a framing error.
    let framed = gddr_store::encode_record(b"{\"generation\":\"not a number\"}");
    match FleetSnapshot::from_record_bytes(&framed) {
        Err(StoreError::Decode(_)) => Ok(()),
        Err(e) => fail(format!(
            "wrong-shape payload gave {} instead of decode",
            e.kind_name()
        )),
        Ok(_) => fail("wrong-shape payload decoded cleanly".to_string()),
    }
}

/// The deliberately bad target: fails (via a typed error, not a panic)
/// whenever `size ≥ 3` on every seventh seed, so the harness's
/// catch/shrink/replay loop can be demonstrated end to end. The
/// shrinker must reduce any failing case to `size == 3`.
fn target_planted(seed: u64, size: u64) -> Result<(), String> {
    if size >= 3 && seed.is_multiple_of(7) {
        fail(format!("planted violation at seed {seed} size {size}"))
    } else {
        Ok(())
    }
}

/// Runs one case, converting panics in the code under test into
/// [`Outcome::Fail`] with `panicked = true`.
pub fn run_case(case: &FuzzCase) -> Outcome {
    let (seed, size) = (case.seed, case.size);
    let run = || -> Result<(), String> {
        match case.target.as_str() {
            "routing_valid" => target_routing_valid(seed, size),
            "routing_rejects_bad_weights" => target_routing_rejects_bad_weights(seed, size),
            "softmin_differential" => target_softmin_differential(seed, size),
            "lp_certificate" => target_lp_certificate(seed, size),
            "lp_differential" => target_lp_differential(seed, size),
            "demand_matrix" => target_demand_matrix(seed, size),
            "parse_topology_no_panic" => target_parse_topology_no_panic(seed, size),
            "parse_dot_no_panic" => target_parse_dot_no_panic(seed, size),
            "mutate_invariants" => target_mutate_invariants(seed, size),
            "gradcheck" => target_gradcheck(seed, size),
            "serve_request" => target_serve_request(seed, size),
            "telemetry_events" => target_telemetry_events(seed, size),
            "scenario_plan" => target_scenario_plan(seed, size),
            "snapshot_decode" => target_snapshot_decode(seed, size),
            "planted" => target_planted(seed, size),
            other => Err(format!("unknown fuzz target {other:?}")),
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(message)) => Outcome::Fail {
            message,
            panicked: false,
        },
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Outcome::Fail {
                message: format!("panic: {message}"),
                panicked: true,
            }
        }
    }
}

/// Greedily shrinks a failing case over `size`, re-running candidates
/// and keeping the smallest one that still fails. Deterministic: the
/// seed never changes, so the shrunk case is the replayable minimal
/// counterexample.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    let mut best = case.clone();
    loop {
        let mut improved = false;
        for candidate_size in [best.size / 2, best.size.saturating_sub(1)] {
            if candidate_size >= best.size {
                continue;
            }
            let candidate = FuzzCase {
                size: candidate_size,
                ..best.clone()
            };
            if run_case(&candidate).is_fail() {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Summary of a budgeted sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Cases executed (may stop short of the full grid on budget).
    pub cases: usize,
    /// Cases skipped because the time budget ran out.
    pub skipped: usize,
    /// Every failure, unshrunk (callers shrink what they report).
    pub failures: Vec<FuzzFailure>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Runs `seeds` seeds of every target with sizes cycling up to
/// `max_size`, stopping early when `budget` is exhausted.
pub fn sweep(targets: &[&str], seeds: u64, max_size: u64, budget: Option<Duration>) -> SweepReport {
    let start = Instant::now();
    let max_size = max_size.max(1);
    let mut report = SweepReport {
        cases: 0,
        skipped: 0,
        failures: Vec::new(),
        elapsed: Duration::ZERO,
    };
    for seed in 0..seeds {
        for &target in targets {
            if budget.is_some_and(|b| start.elapsed() >= b) {
                report.skipped += 1;
                continue;
            }
            let case = FuzzCase {
                target: target.to_string(),
                seed,
                // Sizes cycle deterministically so every target sees
                // small and large instances across the seed range.
                size: 1 + (seed * 13 + 7) % max_size,
            };
            report.cases += 1;
            if let Outcome::Fail { message, panicked } = run_case(&case) {
                report.failures.push(FuzzFailure {
                    case,
                    message,
                    panicked,
                });
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_format_round_trips() {
        let case = FuzzCase {
            target: "lp_differential".to_string(),
            seed: 42,
            size: 9,
        };
        let text = case.to_replay_string();
        assert_eq!(FuzzCase::from_replay_string(&text).unwrap(), case);
        // Malformed replays are typed errors.
        assert!(FuzzCase::from_replay_string("{\"seed\": 1}").is_err());
        assert!(FuzzCase::from_replay_string("not json").is_err());
        assert!(FuzzCase::from_replay_string("{\"target\":\"x\",\"seed\":-1,\"size\":0}").is_err());
    }

    #[test]
    fn every_target_passes_a_quick_seed_grid() {
        for &target in ci_targets().iter() {
            for seed in 0..4u64 {
                let case = FuzzCase {
                    target: target.to_string(),
                    seed,
                    size: 1 + seed * 3,
                };
                let outcome = run_case(&case);
                assert_eq!(
                    outcome,
                    Outcome::Pass,
                    "target {target} seed {seed}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn planted_failure_is_caught_and_shrunk_to_minimum() {
        let case = FuzzCase {
            target: "planted".to_string(),
            seed: 14, // 14 % 7 == 0 → fails for any size ≥ 3.
            size: 40,
        };
        assert!(run_case(&case).is_fail());
        let minimal = shrink(&case);
        assert_eq!(minimal.size, 3, "shrinker stopped early: {minimal:?}");
        assert_eq!(minimal.seed, 14);
        // The shrunk case still fails and survives a replay round-trip.
        assert!(run_case(&minimal).is_fail());
        let replayed = FuzzCase::from_replay_string(&minimal.to_replay_string()).unwrap();
        assert!(run_case(&replayed).is_fail());
    }

    #[test]
    fn unknown_targets_fail_gracefully() {
        let case = FuzzCase {
            target: "no_such_target".to_string(),
            seed: 0,
            size: 1,
        };
        match run_case(&case) {
            Outcome::Fail { message, panicked } => {
                assert!(!panicked);
                assert!(message.contains("unknown fuzz target"));
            }
            Outcome::Pass => panic!("unknown target passed"),
        }
    }

    #[test]
    fn sweep_honours_its_budget_and_reports_planted_failures() {
        let report = sweep(&["planted"], 15, 10, None);
        assert_eq!(report.cases, 15);
        // Seeds 0, 7 and 14 fail (size is always ≥ 3 here except when
        // the cycling size lands small — count whatever failed and
        // check they all replay).
        assert!(!report.failures.is_empty());
        for f in &report.failures {
            assert_eq!(f.case.seed % 7, 0);
            assert!(run_case(&f.case).is_fail());
        }
        // A zero budget runs nothing but counts the skips.
        let starved = sweep(&["planted"], 5, 10, Some(Duration::ZERO));
        assert_eq!(starved.cases, 0);
        assert_eq!(starved.skipped, 5);
    }
}
