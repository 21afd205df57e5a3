//! Policy evaluation: mean `U_agent / U_opt` ratios over held-out
//! demand sequences — the bar heights of the paper's Figs. 6 and 8 —
//! plus the shortest-path baseline ratio (the dotted line).
//!
//! Every evaluation entry point returns `Result<_, CoreError>`: these
//! paths are reachable from serve requests (`gddr-serve` routes live
//! traffic matrices through the same ratio machinery), so malformed
//! input must surface as a typed error rather than abort the caller.

use gddr_rl::Policy;
use gddr_routing::baselines::{ecmp_routing, shortest_path_routing};
use gddr_routing::softmin::{softmin_routing, SoftminConfig};
use gddr_routing::Routing;
use gddr_ser::json_struct;
use gddr_traffic::DemandMatrix;

use crate::env::{DdrEnvConfig, GraphContext};
use crate::env_iterative::IterativeDdrEnv;
use crate::error::CoreError;
use crate::obs::{flat_features, node_features, DdrObs, DemandHistory};

json_struct! {
    /// Summary statistics of utilisation ratios across evaluated demand
    /// matrices (1.0 = optimal; lower is better).
    #[derive(Debug, Clone)]
    pub struct EvalResult {
        /// Mean ratio (the bar height).
        pub mean_ratio: f64,
        /// Standard deviation of the ratios.
        pub std_ratio: f64,
        /// Every individual ratio.
        pub ratios: Vec<f64>,
    }
}

impl EvalResult {
    /// Aggregates raw ratios.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyEvaluation`] if `ratios` is empty.
    pub fn from_ratios(ratios: Vec<f64>) -> Result<Self, CoreError> {
        if ratios.is_empty() {
            return Err(CoreError::EmptyEvaluation);
        }
        let n = ratios.len() as f64;
        let mean = ratios.iter().sum::<f64>() / n;
        let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
        Ok(EvalResult {
            mean_ratio: mean,
            std_ratio: var.sqrt(),
            ratios,
        })
    }
}

/// Checks that every sequence is non-empty relative to the memory.
fn check_sequences(test_sequences: &[Vec<DemandMatrix>], memory: usize) -> Result<(), CoreError> {
    if test_sequences.is_empty() {
        return Err(CoreError::EmptyEvaluation);
    }
    for seq in test_sequences {
        if seq.len() <= memory {
            return Err(CoreError::SequenceTooShort {
                len: seq.len(),
                memory,
            });
        }
    }
    Ok(())
}

/// Walks one sequence with a one-shot policy, returning the ratio for
/// every routed demand matrix.
fn walk_oneshot<P: Policy<Obs = DdrObs>>(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    policy: &P,
    seq: &[DemandMatrix],
) -> Result<Vec<f64>, CoreError> {
    let n = ctx.graph.num_nodes();
    let m_e = ctx.graph.num_edges();
    let mut history = DemandHistory::new(config.memory);
    for dm in &seq[..config.memory] {
        history.push(dm.clone());
    }
    let mut ratios = Vec::new();
    for dm in &seq[config.memory..] {
        let obs = DdrObs {
            structure: std::sync::Arc::clone(&ctx.structure),
            node_feats: node_features(&history, n, config.memory),
            edge_feats: gddr_nn::Matrix::zeros(m_e, 3),
            globals: gddr_nn::Matrix::zeros(1, 1),
            flat: flat_features(&history, n, config.memory),
            target_edge: None,
        };
        let action = policy.act_greedy(&obs);
        let weights = config.try_action_to_weights(&action, m_e)?;
        let routing = softmin_routing(&ctx.graph, &weights, &config.softmin)
            .map_err(|e| CoreError::Routing(format!("{e:?}")))?;
        ratios.push(ctx.try_ratio(&routing, dm)?.ratio);
        history.push(dm.clone());
    }
    Ok(ratios)
}

/// Evaluates a one-shot policy (MLP or GNN) deterministically on test
/// sequences.
///
/// # Errors
///
/// [`CoreError::EmptyEvaluation`] on empty input,
/// [`CoreError::SequenceTooShort`] if any sequence is not longer than
/// the memory, plus any routing/oracle failure from the walked steps.
pub fn eval_oneshot<P: Policy<Obs = DdrObs>>(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    policy: &P,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    check_sequences(test_sequences, config.memory)?;
    let mut ratios = Vec::new();
    for seq in test_sequences {
        ratios.extend(walk_oneshot(ctx, config, policy, seq)?);
    }
    EvalResult::from_ratios(ratios)
}

/// Evaluates an iterative policy deterministically on test sequences.
///
/// # Errors
///
/// Same conditions as [`eval_oneshot`].
pub fn eval_iterative<P: Policy<Obs = DdrObs>>(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    policy: &P,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    check_sequences(test_sequences, config.memory)?;
    use gddr_rl::Env;
    use gddr_rng::SeedableRng;
    let mut ratios = Vec::new();
    for seq in test_sequences {
        // A single-sequence env makes the reset deterministic.
        let eval_ctx = GraphContext::new(ctx.graph.clone(), vec![seq.clone()]);
        let mut env = IterativeDdrEnv::new(eval_ctx, *config);
        let mut rng = gddr_rng::rngs::StdRng::seed_from_u64(0);
        let mut obs = env.reset(&mut rng);
        loop {
            let action = policy.act_greedy(&obs);
            let step = env.step(&action, &mut rng);
            if step.reward != 0.0 {
                ratios.push(-step.reward);
            }
            if step.done {
                break;
            }
            obs = step.obs;
        }
    }
    EvalResult::from_ratios(ratios)
}

/// Evaluates a fixed (demand-independent) routing over test sequences.
///
/// # Errors
///
/// [`CoreError::EmptyEvaluation`] on empty input, plus any
/// simulation/oracle failure on the evaluated matrices.
pub fn eval_fixed_routing(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    routing: &Routing,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    if test_sequences.is_empty() {
        return Err(CoreError::EmptyEvaluation);
    }
    let mut ratios = Vec::new();
    for seq in test_sequences {
        for dm in &seq[config.memory.min(seq.len())..] {
            ratios.push(ctx.try_ratio(routing, dm)?.ratio);
        }
    }
    EvalResult::from_ratios(ratios)
}

/// Unit-weight single shortest-path routing for `graph` — the fixed
/// strategy behind the paper's dotted baseline, also the last rung of
/// `gddr-serve`'s degradation ladder (demand-independent, so it can be
/// precomputed once and served forever).
pub fn unit_shortest_path_routing(graph: &gddr_net::Graph) -> Routing {
    let w = vec![1.0; graph.num_edges()];
    shortest_path_routing(graph, &w)
}

/// Unit-weight ECMP routing for `graph` — the equal-split baseline
/// strategy, demand-independent like its shortest-path sibling.
pub fn unit_ecmp_routing(graph: &gddr_net::Graph) -> Routing {
    let w = vec![1.0; graph.num_edges()];
    ecmp_routing(graph, &w)
}

/// The shortest-path baseline ratio (the dotted line in Figs. 6/8):
/// unit-weight single shortest-path routing, held fixed for all demand
/// matrices.
///
/// # Errors
///
/// As [`eval_fixed_routing`].
pub fn shortest_path_baseline(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    let routing = unit_shortest_path_routing(&ctx.graph);
    eval_fixed_routing(ctx, config, &routing, test_sequences)
}

/// ECMP baseline ratio (an extension beyond the paper's dotted line).
///
/// # Errors
///
/// As [`eval_fixed_routing`].
pub fn ecmp_baseline(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    let routing = unit_ecmp_routing(&ctx.graph);
    eval_fixed_routing(ctx, config, &routing, test_sequences)
}

/// The predict-then-route baseline the paper argues against (§II-A):
/// predict the next demand matrix as the average of the history, solve
/// the multicommodity-flow LP for the *prediction*, and route the
/// actual matrix with the resulting strategy. "This does not lead to
/// good results when the predictions are incorrect."
///
/// # Errors
///
/// [`CoreError::EmptyEvaluation`]/[`CoreError::SequenceTooShort`] on
/// malformed input, [`CoreError::Oracle`] if the prediction's LP has no
/// solution.
pub fn prediction_baseline(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    check_sequences(test_sequences, config.memory)?;
    let mut ratios = Vec::new();
    for seq in test_sequences {
        let mut history = DemandHistory::new(config.memory);
        for dm in &seq[..config.memory] {
            history.push(dm.clone());
        }
        for dm in &seq[config.memory..] {
            let window: Vec<&DemandMatrix> = history.iter().collect();
            let predicted = gddr_traffic::sequence::average(&window);
            let sol = ctx
                .oracle
                .solve(&predicted)
                .map_err(|e| CoreError::Oracle(format!("{e:?}")))?;
            let routing = Routing::from_destination_flows(&ctx.graph, &sol.flows);
            // The predicted-optimal routing may not cover commodities
            // absent from the prediction; with bimodal demands every
            // commodity is active, so simulation succeeds.
            ratios.push(ctx.try_ratio(&routing, dm)?.ratio);
            history.push(dm.clone());
        }
    }
    EvalResult::from_ratios(ratios)
}

/// Ratio of untrained softmin routing with uniform weights — the
/// "no-agent" reference point for softmin translation quality.
///
/// # Errors
///
/// As [`eval_fixed_routing`].
pub fn uniform_softmin_baseline(
    ctx: &GraphContext,
    config: &DdrEnvConfig,
    test_sequences: &[Vec<DemandMatrix>],
) -> Result<EvalResult, CoreError> {
    let w = vec![1.0; ctx.graph.num_edges()];
    let routing = softmin_routing(&ctx.graph, &w, &SoftminConfig::default())
        .map_err(|e| CoreError::Routing(format!("{e:?}")))?;
    eval_fixed_routing(ctx, config, &routing, test_sequences)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::standard_sequences;
    use crate::policies::{GnnPolicy, GnnPolicyConfig, MlpPolicy};
    use gddr_net::topology::zoo;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;

    fn fixture() -> (GraphContext, DdrEnvConfig, Vec<Vec<DemandMatrix>>, StdRng) {
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(0);
        let train = standard_sequences(&g, 1, 6, 3, &mut rng);
        let test = standard_sequences(&g, 2, 6, 3, &mut rng);
        let ctx = GraphContext::new(g, train);
        let config = DdrEnvConfig {
            memory: 2,
            ..Default::default()
        };
        (ctx, config, test, rng)
    }

    #[test]
    fn ratios_are_at_least_one() {
        let (ctx, config, test, mut rng) = fixture();
        let gnn = GnnPolicy::new(
            &GnnPolicyConfig {
                memory: 2,
                latent: 4,
                hidden: 8,
                message_steps: 1,
                layer_norm: false,
            },
            -0.5,
            &mut rng,
        );
        let res = eval_oneshot(&ctx, &config, &gnn, &test).unwrap();
        assert_eq!(res.ratios.len(), 2 * 4);
        assert!(res.mean_ratio >= 1.0 - 1e-6, "cannot beat the optimum");
        assert!(res.std_ratio >= 0.0);
    }

    #[test]
    fn mlp_and_baselines_evaluate() {
        let (ctx, config, test, mut rng) = fixture();
        let mlp = MlpPolicy::new(
            2,
            ctx.graph.num_nodes(),
            ctx.graph.num_edges(),
            &[8],
            -0.5,
            &mut rng,
        );
        let res = eval_oneshot(&ctx, &config, &mlp, &test).unwrap();
        assert!(res.mean_ratio >= 1.0 - 1e-6);
        let sp = shortest_path_baseline(&ctx, &config, &test).unwrap();
        assert!(sp.mean_ratio >= 1.0 - 1e-6);
        let ecmp = ecmp_baseline(&ctx, &config, &test).unwrap();
        // ECMP load-balances, so it should not be worse than single-SP
        // on average by much; sanity: both finite.
        assert!(ecmp.mean_ratio.is_finite() && sp.mean_ratio.is_finite());
        let uni = uniform_softmin_baseline(&ctx, &config, &test).unwrap();
        assert!(uni.mean_ratio >= 1.0 - 1e-6);
    }

    #[test]
    fn iterative_eval_produces_one_ratio_per_dm() {
        let (ctx, config, test, mut rng) = fixture();
        let policy = crate::policies::GnnIterativePolicy::new(
            &GnnPolicyConfig {
                memory: 2,
                latent: 4,
                hidden: 8,
                message_steps: 1,
                layer_norm: false,
            },
            -0.5,
            &mut rng,
        );
        let res = eval_iterative(&ctx, &config, &policy, &test).unwrap();
        assert_eq!(res.ratios.len(), 2 * 4);
        assert!(res.mean_ratio >= 1.0 - 1e-6);
    }

    #[test]
    fn prediction_baseline_is_good_on_constant_traffic() {
        // If traffic never changes, predicting the average is exact and
        // the predict-then-route baseline is optimal (ratio 1).
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(7);
        let base = gddr_traffic::gen::bimodal(
            g.num_nodes(),
            &gddr_traffic::gen::BimodalParams::default(),
            &mut rng,
        );
        let constant: Vec<DemandMatrix> = vec![base; 6];
        let ctx = GraphContext::new(g, vec![constant.clone()]);
        let config = DdrEnvConfig {
            memory: 2,
            ..Default::default()
        };
        let res = prediction_baseline(&ctx, &config, &[constant]).unwrap();
        assert!(
            (res.mean_ratio - 1.0).abs() < 1e-4,
            "constant traffic must be routed optimally, got {}",
            res.mean_ratio
        );
    }

    #[test]
    fn prediction_baseline_degrades_on_varying_traffic() {
        let (ctx, config, test, _) = fixture();
        let res = prediction_baseline(&ctx, &config, &test).unwrap();
        assert!(res.mean_ratio >= 1.0 - 1e-6);
        assert!(res.mean_ratio.is_finite());
    }

    #[test]
    fn eval_is_deterministic() {
        let (ctx, config, test, mut rng) = fixture();
        let gnn = GnnPolicy::new(
            &GnnPolicyConfig {
                memory: 2,
                latent: 4,
                hidden: 8,
                message_steps: 1,
                layer_norm: false,
            },
            -0.5,
            &mut rng,
        );
        let a = eval_oneshot(&ctx, &config, &gnn, &test).unwrap();
        let b = eval_oneshot(&ctx, &config, &gnn, &test).unwrap();
        assert_eq!(a.ratios, b.ratios);
    }

    #[test]
    fn from_ratios_statistics() {
        let r = EvalResult::from_ratios(vec![1.0, 2.0, 3.0]).unwrap();
        assert!((r.mean_ratio - 2.0).abs() < 1e-12);
        assert!((r.std_ratio - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        let (ctx, config, test, mut rng) = fixture();
        assert!(matches!(
            EvalResult::from_ratios(vec![]),
            Err(CoreError::EmptyEvaluation)
        ));
        let mlp = MlpPolicy::new(
            2,
            ctx.graph.num_nodes(),
            ctx.graph.num_edges(),
            &[8],
            -0.5,
            &mut rng,
        );
        assert!(matches!(
            eval_oneshot(&ctx, &config, &mlp, &[]),
            Err(CoreError::EmptyEvaluation)
        ));
        let short = vec![test[0][..2].to_vec()];
        assert!(matches!(
            eval_oneshot(&ctx, &config, &mlp, &short),
            Err(CoreError::SequenceTooShort { len: 2, memory: 2 })
        ));
        assert!(matches!(
            prediction_baseline(&ctx, &config, &short),
            Err(CoreError::SequenceTooShort { len: 2, memory: 2 })
        ));
        // A fixed routing against a mismatched demand matrix degrades
        // to a typed error through the simulator.
        let routing = unit_shortest_path_routing(&ctx.graph);
        let bad = vec![vec![DemandMatrix::zeros(ctx.graph.num_nodes() + 1); 4]];
        assert!(matches!(
            eval_fixed_routing(&ctx, &config, &routing, &bad),
            Err(CoreError::DemandMismatch { .. })
        ));
    }

    #[test]
    fn unit_baseline_routings_are_valid() {
        let g = zoo::cesnet();
        assert!(unit_shortest_path_routing(&g).validate(&g).is_empty());
        assert!(unit_ecmp_routing(&g).validate(&g).is_empty());
    }
}
