//! Experiment harnesses regenerating the paper's evaluation figures.
//!
//! - [`fixed_graph`] — Fig. 6 (fixed-graph bars) and Fig. 7 (learning
//!   curves come from the returned [`TrainingLog`]s),
//! - [`generalisation`] — Fig. 8 (unseen and modified topologies).
//!
//! Training budgets default to a laptop-scale fraction of the paper's
//! 500k steps; the comparisons are relative (every agent gets the same
//! budget), which preserves the figures' qualitative shape (see
//! DESIGN.md, "Substitutions").

use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_ser::json_struct;

use gddr_net::topology::{mutate, zoo};
use gddr_net::Graph;
use gddr_rl::{Ppo, PpoConfig, TrainingLog};
use gddr_traffic::DemandMatrix;

use crate::env::{standard_sequences, DdrEnv, DdrEnvConfig, GraphContext, MultiGraphDdrEnv};
use crate::env_iterative::IterativeDdrEnv;
use crate::eval::{eval_iterative, eval_oneshot, shortest_path_baseline, EvalResult};
use crate::policies::{GnnIterativePolicy, GnnPolicy, GnnPolicyConfig, MlpPolicy};

/// Workload parameters shared by all experiments (paper §VIII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Demand matrices per sequence (paper: 60).
    pub seq_length: usize,
    /// Cycle length `q` (paper: 10).
    pub cycle: usize,
    /// Training sequences (paper: 7).
    pub train_sequences: usize,
    /// Held-out test sequences (paper: 3).
    pub test_sequences: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seq_length: 60,
            cycle: 10,
            train_sequences: 7,
            test_sequences: 3,
        }
    }
}

/// Configuration of the fixed-graph experiment (Figs. 6 and 7).
#[derive(Debug, Clone)]
pub struct FixedGraphConfig {
    /// Topology name (paper: Abilene).
    pub graph_name: String,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Environment settings (memory `m` = 5 in the paper).
    pub env: DdrEnvConfig,
    /// PPO settings for both agents.
    pub ppo: PpoConfig,
    /// GNN architecture.
    pub gnn: GnnPolicyConfig,
    /// MLP hidden layer widths.
    pub mlp_hidden: Vec<usize>,
    /// Initial exploration log-std.
    pub init_log_std: f64,
    /// Training steps per agent (paper: 500k; scaled down by default).
    pub train_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FixedGraphConfig {
    fn default() -> Self {
        FixedGraphConfig {
            graph_name: "Abilene".into(),
            workload: WorkloadConfig::default(),
            env: DdrEnvConfig::default(),
            // One-shot routing is a contextual decision per timestep
            // (demands evolve independently of actions), so a modest
            // discount trains faster at small budgets.
            ppo: PpoConfig {
                gamma: 0.4,
                n_steps: 128,
                minibatch_size: 32,
                epochs: 4,
                learning_rate: 1e-3,
                ..Default::default()
            },
            gnn: GnnPolicyConfig::default(),
            mlp_hidden: vec![64, 64],
            init_log_std: -0.7,
            train_steps: 30_000,
            seed: 0,
        }
    }
}

json_struct! {
    /// A trained agent's evaluation plus its learning curve.
    #[derive(Debug, Clone)]
    pub struct PolicyOutcome {
        /// Held-out mean ratio and spread (Fig. 6 bar).
        pub eval: EvalResult,
        /// Per-episode rewards during training (Fig. 7 curve).
        pub log: TrainingLog,
    }
}

json_struct! {
    /// Result of the fixed-graph experiment.
    #[derive(Debug, Clone)]
    pub struct FixedGraphResult {
        /// The MLP baseline agent (Valadarsky et al.).
        pub mlp: PolicyOutcome,
        /// The GNN agent.
        pub gnn: PolicyOutcome,
        /// Shortest-path routing ratio (the dotted line).
        pub shortest_path: EvalResult,
        /// Predict-then-route baseline (§II-A): LP-optimal routing for the
        /// history-averaged prediction, applied to the real demands.
        pub prediction: EvalResult,
    }
}

/// Runs the fixed-graph experiment: trains the MLP baseline and the
/// GNN policy with identical budgets on the same workload, then
/// evaluates both on held-out sequences.
///
/// # Panics
///
/// Panics if the topology name is unknown.
pub fn fixed_graph(config: &FixedGraphConfig) -> FixedGraphResult {
    let graph = zoo::by_name(&config.graph_name)
        .unwrap_or_else(|| panic!("unknown topology {:?}", config.graph_name));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let w = &config.workload;
    let train = standard_sequences(&graph, w.train_sequences, w.seq_length, w.cycle, &mut rng);
    let test = standard_sequences(&graph, w.test_sequences, w.seq_length, w.cycle, &mut rng);

    // The two agents are independent; train them on parallel threads
    // (each with its own environment, oracle cache and RNG stream).
    let (mlp_outcome, gnn_outcome) = std::thread::scope(|scope| {
        let mlp_handle = scope.spawn(|| {
            let mut mlp_rng = StdRng::seed_from_u64(config.seed ^ 0x11);
            let mut mlp = MlpPolicy::new(
                config.env.memory,
                graph.num_nodes(),
                graph.num_edges(),
                &config.mlp_hidden,
                config.init_log_std,
                &mut mlp_rng,
            );
            let mut env = DdrEnv::new(GraphContext::new(graph.clone(), train.clone()), config.env);
            let mut log = TrainingLog::default();
            let mut ppo = Ppo::new(config.ppo);
            ppo.train(
                &mut env,
                &mut mlp,
                config.train_steps,
                &mut mlp_rng,
                &mut log,
            );
            let ctx = GraphContext::new(graph.clone(), train.clone());
            let eval = eval_oneshot(&ctx, &config.env, &mlp, &test).expect("MLP evaluation");
            PolicyOutcome { eval, log }
        });
        let gnn_handle = scope.spawn(|| {
            let mut gnn_rng = StdRng::seed_from_u64(config.seed ^ 0x22);
            let mut gnn = GnnPolicy::new(&config.gnn, config.init_log_std, &mut gnn_rng);
            let mut env = DdrEnv::new(GraphContext::new(graph.clone(), train.clone()), config.env);
            let mut log = TrainingLog::default();
            let mut ppo = Ppo::new(config.ppo);
            ppo.train(
                &mut env,
                &mut gnn,
                config.train_steps,
                &mut gnn_rng,
                &mut log,
            );
            let ctx = GraphContext::new(graph.clone(), train.clone());
            let eval = eval_oneshot(&ctx, &config.env, &gnn, &test).expect("GNN evaluation");
            PolicyOutcome { eval, log }
        });
        (
            mlp_handle.join().expect("MLP training thread"),
            gnn_handle.join().expect("GNN training thread"),
        )
    });

    let eval_ctx = GraphContext::new(graph.clone(), train.clone());
    let sp = shortest_path_baseline(&eval_ctx, &config.env, &test).expect("baseline evaluation");
    let prediction = crate::eval::prediction_baseline(&eval_ctx, &config.env, &test)
        .expect("prediction baseline");

    FixedGraphResult {
        mlp: mlp_outcome,
        gnn: gnn_outcome,
        shortest_path: sp,
        prediction,
    }
}

/// Configuration of the generalisation experiment (Fig. 8).
#[derive(Debug, Clone)]
pub struct GeneralisationConfig {
    /// Workload shape per graph.
    pub workload: WorkloadConfig,
    /// Environment settings.
    pub env: DdrEnvConfig,
    /// PPO settings for the one-shot GNN.
    pub ppo: PpoConfig,
    /// PPO settings for the iterative GNN (needs a high discount to
    /// propagate the delayed per-DM reward across sub-steps).
    pub ppo_iterative: PpoConfig,
    /// GNN architecture (shared by both policies).
    pub gnn: GnnPolicyConfig,
    /// Initial exploration log-std.
    pub init_log_std: f64,
    /// Training steps per policy.
    pub train_steps: usize,
    /// Training steps for the iterative policy (its steps are
    /// sub-steps, |E| per demand matrix, so it needs more).
    pub train_steps_iterative: usize,
    /// How many modified-Abilene variants to evaluate on.
    pub modified_variants: usize,
    /// Random edits per variant (paper: one or two).
    pub edits_per_variant: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for GeneralisationConfig {
    fn default() -> Self {
        GeneralisationConfig {
            workload: WorkloadConfig {
                seq_length: 30,
                cycle: 10,
                train_sequences: 3,
                test_sequences: 2,
            },
            env: DdrEnvConfig::default(),
            ppo: PpoConfig {
                gamma: 0.4,
                n_steps: 128,
                minibatch_size: 32,
                epochs: 4,
                learning_rate: 1e-3,
                ..Default::default()
            },
            ppo_iterative: PpoConfig {
                gamma: 0.99,
                gae_lambda: 0.95,
                n_steps: 256,
                minibatch_size: 64,
                epochs: 4,
                learning_rate: 1e-3,
                ..Default::default()
            },
            gnn: GnnPolicyConfig::default(),
            init_log_std: -0.7,
            train_steps: 20_000,
            train_steps_iterative: 40_000,
            modified_variants: 4,
            edits_per_variant: 2,
            seed: 0,
        }
    }
}

json_struct! {
    /// Evaluation of one policy on one test family.
    #[derive(Debug, Clone)]
    pub struct FamilyEval {
        /// Mean ratio across all graphs and demand matrices in the family.
        pub policy: EvalResult,
        /// Shortest-path baseline on the same family.
        pub shortest_path: EvalResult,
    }
}

json_struct! {
    /// Result of the generalisation experiment.
    #[derive(Debug, Clone)]
    pub struct GeneralisationResult {
        /// One-shot GNN on unseen different graphs.
        pub gnn_different: FamilyEval,
        /// One-shot GNN on modified Abilene.
        pub gnn_modified: FamilyEval,
        /// Iterative GNN on unseen different graphs.
        pub iterative_different: FamilyEval,
        /// Iterative GNN on modified Abilene.
        pub iterative_modified: FamilyEval,
        /// Training curves (gnn, iterative).
        pub gnn_log: TrainingLog,
        /// Iterative policy training curve.
        pub iterative_log: TrainingLog,
    }
}

/// The training graph mixture: zoo topologies between half and double
/// the size of Abilene, excluding Abilene itself and the held-out test
/// graphs.
pub fn training_graphs() -> Vec<Graph> {
    zoo::in_size_range(6, 22)
        .into_iter()
        .filter(|g| !matches!(g.name(), "Abilene" | "Nsfnet" | "Janet"))
        .collect()
}

/// The held-out "different graphs" test family.
pub fn test_graphs() -> Vec<Graph> {
    vec![zoo::nsfnet(), zoo::janet()]
}

fn contexts_for(
    graphs: &[Graph],
    w: &WorkloadConfig,
    count: usize,
    rng: &mut StdRng,
) -> Vec<GraphContext> {
    graphs
        .iter()
        .map(|g| {
            let seqs = standard_sequences(g, count, w.seq_length, w.cycle, rng);
            GraphContext::new(g.clone(), seqs)
        })
        .collect()
}

fn eval_family<P, F>(
    graphs: &[Graph],
    w: &WorkloadConfig,
    env: &DdrEnvConfig,
    policy: &P,
    eval_fn: F,
    rng: &mut StdRng,
) -> FamilyEval
where
    P: gddr_rl::Policy<Obs = crate::obs::DdrObs>,
    F: Fn(
        &GraphContext,
        &DdrEnvConfig,
        &P,
        &[Vec<DemandMatrix>],
    ) -> Result<EvalResult, crate::error::CoreError>,
{
    let mut policy_ratios = Vec::new();
    let mut sp_ratios = Vec::new();
    for g in graphs {
        let test = standard_sequences(g, w.test_sequences, w.seq_length, w.cycle, rng);
        let ctx = GraphContext::new(g.clone(), test.clone());
        let res = eval_fn(&ctx, env, policy, &test).expect("family evaluation");
        policy_ratios.extend(res.ratios);
        let sp = shortest_path_baseline(&ctx, env, &test).expect("family baseline");
        sp_ratios.extend(sp.ratios);
    }
    FamilyEval {
        policy: EvalResult::from_ratios(policy_ratios).expect("non-empty family"),
        shortest_path: EvalResult::from_ratios(sp_ratios).expect("non-empty family"),
    }
}

/// Builds the modified-Abilene test family: `variants` copies of
/// Abilene, each with `edits` random node/edge additions or deletions
/// (paper Fig. 8's second group).
pub fn modified_abilene(variants: usize, edits: usize, rng: &mut StdRng) -> Vec<Graph> {
    let base = zoo::abilene();
    (0..variants)
        .map(|_| mutate::random_edits(&base, edits, rng))
        .collect()
}

/// Runs the generalisation experiment: trains the one-shot GNN and the
/// iterative GNN on a mixture of topologies, then evaluates both on
/// (a) unseen different graphs and (b) Abilene with small random
/// modifications.
pub fn generalisation(config: &GeneralisationConfig) -> GeneralisationResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let w = &config.workload;
    let train_graphs = training_graphs();

    // Both policies train independently; run them on parallel threads.
    let gnn_contexts = contexts_for(&train_graphs, w, w.train_sequences, &mut rng);
    let it_contexts = contexts_for(&train_graphs, w, w.train_sequences, &mut rng);
    let ((gnn, gnn_log), (iterative, it_log)) = std::thread::scope(|scope| {
        let gnn_handle = scope.spawn(|| {
            let mut gnn_rng = StdRng::seed_from_u64(config.seed ^ 0x33);
            let mut gnn = GnnPolicy::new(&config.gnn, config.init_log_std, &mut gnn_rng);
            let mut env = MultiGraphDdrEnv::new(gnn_contexts, config.env);
            let mut log = TrainingLog::default();
            let mut ppo = Ppo::new(config.ppo);
            ppo.train(
                &mut env,
                &mut gnn,
                config.train_steps,
                &mut gnn_rng,
                &mut log,
            );
            (gnn, log)
        });
        let it_handle = scope.spawn(|| {
            let mut it_rng = StdRng::seed_from_u64(config.seed ^ 0x44);
            let mut iterative =
                GnnIterativePolicy::new(&config.gnn, config.init_log_std, &mut it_rng);
            let mut env = IterativeDdrEnv::new_multi(it_contexts, config.env);
            let mut log = TrainingLog::default();
            let mut ppo = Ppo::new(config.ppo_iterative);
            ppo.train(
                &mut env,
                &mut iterative,
                config.train_steps_iterative,
                &mut it_rng,
                &mut log,
            );
            (iterative, log)
        });
        (
            gnn_handle.join().expect("GNN training thread"),
            it_handle.join().expect("iterative training thread"),
        )
    });

    // --- Test families ---
    let different = test_graphs();
    let modified = modified_abilene(config.modified_variants, config.edits_per_variant, &mut rng);

    let gnn_different = eval_family(&different, w, &config.env, &gnn, eval_oneshot, &mut rng);
    let gnn_modified = eval_family(&modified, w, &config.env, &gnn, eval_oneshot, &mut rng);
    let iterative_different = eval_family(
        &different,
        w,
        &config.env,
        &iterative,
        eval_iterative,
        &mut rng,
    );
    let iterative_modified = eval_family(
        &modified,
        w,
        &config.env,
        &iterative,
        eval_iterative,
        &mut rng,
    );

    GeneralisationResult {
        gnn_different,
        gnn_modified,
        iterative_different,
        iterative_modified,
        gnn_log,
        iterative_log: it_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal budget that exercises the full pipeline quickly.
    fn tiny_fixed_config() -> FixedGraphConfig {
        FixedGraphConfig {
            graph_name: "Cesnet".into(),
            workload: WorkloadConfig {
                seq_length: 8,
                cycle: 4,
                train_sequences: 2,
                test_sequences: 1,
            },
            env: DdrEnvConfig {
                memory: 2,
                ..Default::default()
            },
            ppo: PpoConfig {
                n_steps: 12,
                minibatch_size: 6,
                epochs: 1,
                gamma: 0.4,
                ..Default::default()
            },
            gnn: GnnPolicyConfig {
                memory: 2,
                latent: 4,
                hidden: 8,
                message_steps: 1,
                layer_norm: false,
            },
            mlp_hidden: vec![16],
            init_log_std: -0.7,
            train_steps: 24,
            seed: 1,
        }
    }

    #[test]
    fn fixed_graph_pipeline_runs() {
        let result = fixed_graph(&tiny_fixed_config());
        assert!(result.mlp.eval.mean_ratio >= 1.0 - 1e-6);
        assert!(result.gnn.eval.mean_ratio >= 1.0 - 1e-6);
        assert!(result.shortest_path.mean_ratio >= 1.0 - 1e-6);
        assert!(result.mlp.log.total_steps >= 24);
        assert!(result.gnn.log.total_steps >= 24);
        assert!(!result.gnn.log.episodes.is_empty());
    }

    #[test]
    fn training_and_test_graphs_are_disjoint() {
        let train: Vec<String> = training_graphs()
            .iter()
            .map(|g| g.name().to_string())
            .collect();
        for g in test_graphs() {
            assert!(!train.contains(&g.name().to_string()));
        }
        assert!(!train.contains(&"Abilene".to_string()));
        assert!(train.len() >= 6, "mixture too small: {train:?}");
    }

    #[test]
    fn modified_abilene_variants_are_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        let variants = modified_abilene(3, 2, &mut rng);
        assert_eq!(variants.len(), 3);
        for v in &variants {
            assert!(gddr_net::algo::is_strongly_connected(v));
        }
    }
}
