//! The one-shot GNN policy (paper §VII-A, Fig. 5).
//!
//! An encode-process-decode graph network reads the per-node demand
//! aggregates (Eq. 4) and emits one weight per edge (Eq. 5) as the mean
//! of a diagonal Gaussian; the value estimate is decoded from the
//! global attribute. The parameter count is independent of the graph,
//! so a trained policy applies unchanged to other topologies.
//!
//! Training (`act`, `evaluate`) records the forward on an autodiff
//! tape. Greedy inference (`act_greedy`, `act_greedy_batch`) is
//! tape-free: it runs [`EncodeProcessDecode::eval`], which computes
//! only the decoded edge column, bitwise equal to the tape's mean.

use gddr_rng::rngs::StdRng;

use gddr_gnn::{EncodeProcessDecode, EpdConfig, GraphBatch, GraphFeatures, GraphStructure};
use gddr_nn::dist::DiagGaussian;
use gddr_nn::{Matrix, ParamId, ParamStore, Tape, Var};
use gddr_rl::{ActionSample, Evaluation, Policy};

use crate::obs::DdrObs;

/// Architecture hyperparameters shared by both GNN policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnPolicyConfig {
    /// Demand-history length `m` (node input width is `2m`).
    pub memory: usize,
    /// Latent feature width.
    pub latent: usize,
    /// Hidden width of every MLP inside the graph network.
    pub hidden: usize,
    /// Message-passing steps of the core block.
    pub message_steps: usize,
    /// Layer-normalise the latents after every message-passing step.
    pub layer_norm: bool,
}

impl Default for GnnPolicyConfig {
    fn default() -> Self {
        GnnPolicyConfig {
            memory: 5,
            latent: 16,
            hidden: 32,
            message_steps: 3,
            layer_norm: false,
        }
    }
}

/// One-shot GNN policy: all `|E|` edge weights in a single action.
///
/// Greedy inference never builds a tape (see the module docs).
#[derive(Debug, Clone)]
pub struct GnnPolicy {
    store: ParamStore,
    net: EncodeProcessDecode,
    log_std: ParamId,
    config: GnnPolicyConfig,
}

impl GnnPolicy {
    /// Builds the policy.
    pub fn new(config: &GnnPolicyConfig, init_log_std: f64, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let epd = EpdConfig {
            node_in: 2 * config.memory,
            edge_in: 3,
            global_in: 1,
            node_out: 1,
            edge_out: 1,
            global_out: 1,
            latent: config.latent,
            hidden: config.hidden,
            message_steps: config.message_steps,
            layer_norm: config.layer_norm,
        };
        let net = EncodeProcessDecode::new(&mut store, "gnn_policy", &epd, rng);
        // A single state-independent log-std shared by every edge, so
        // exploration scale transfers across graph sizes.
        let log_std = store.register("log_std", Matrix::from_vec(1, 1, vec![init_log_std]));
        GnnPolicy {
            store,
            net,
            log_std,
            config: *config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GnnPolicyConfig {
        &self.config
    }

    /// Total trainable scalars (graph-size independent; see §IX).
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Serialises the parameters.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, w: impl std::io::Write) -> Result<(), gddr_nn::params::ParamIoError> {
        self.store.save(w)
    }

    /// Restores parameters saved by [`GnnPolicy::save`].
    ///
    /// # Errors
    ///
    /// Fails on layout mismatch or corrupt data.
    pub fn load(&mut self, r: impl std::io::Read) -> Result<(), gddr_nn::params::ParamIoError> {
        self.store.load(r)
    }

    /// Runs the network and returns the Gaussian over edge weights plus
    /// the value estimate.
    fn dist(&self, tape: &mut Tape, obs: &DdrObs) -> (DiagGaussian, Var) {
        let features = GraphFeatures {
            nodes: obs.node_feats.clone(),
            edges: obs.edge_feats.clone(),
            globals: obs.globals.clone(),
        };
        let out = self
            .net
            .forward(tape, &self.store, &obs.structure, &features);
        let m_e = obs.structure.num_edges;
        // Edge outputs are m×1; the Gaussian wants a 1×m mean row.
        let mean = tape.reshape(out.edges, 1, m_e);
        // Broadcast the scalar log-std across the row via matmul with a
        // ones row (differentiable w.r.t. the scalar).
        let scalar = tape.param(&self.store, self.log_std);
        let ones = tape.constant(Matrix::full(1, m_e, 1.0));
        let log_std = tape.matmul(scalar, ones);
        let value = out.globals;
        (DiagGaussian::new(tape, mean, log_std), value)
    }
}

impl Policy for GnnPolicy {
    type Obs = DdrObs;

    fn act(&self, obs: &DdrObs, rng: &mut StdRng) -> ActionSample {
        let mut tape = Tape::new();
        let (dist, value) = self.dist(&mut tape, obs);
        let action = dist.sample(&tape, rng);
        let lp = dist.log_prob(&mut tape, &action);
        ActionSample {
            action: action.as_slice().to_vec(),
            log_prob: tape.value(lp).get(0, 0),
            value: tape.value(value).get(0, 0),
        }
    }

    /// The Gaussian's mode: the decoded edge column, computed by the
    /// tape-free [`EncodeProcessDecode::eval`].
    fn act_greedy(&self, obs: &DdrObs) -> Vec<f64> {
        use crate::policies::BatchGreedy;
        self.act_greedy_batch(std::slice::from_ref(obs))
            .pop()
            .expect("one action per observation")
    }

    fn evaluate(&self, tape: &mut Tape, obs: &DdrObs, action: &[f64]) -> Evaluation {
        let (dist, value) = self.dist(tape, obs);
        let a = Matrix::row_vector(action.to_vec());
        let log_prob = dist.log_prob(tape, &a);
        let entropy = dist.entropy(tape);
        Evaluation {
            log_prob,
            entropy,
            value,
        }
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl crate::policies::BatchGreedy for GnnPolicy {
    /// One block-diagonal, tape-free forward over all observations. The
    /// greedy action is the mean — the decoded m×1 edge column — which
    /// [`EncodeProcessDecode::eval`] computes bitwise as the tape would,
    /// without recording gradients or computing the outputs greedy
    /// serving never reads. Slicing its batched output per graph
    /// reproduces [`Policy::act_greedy`] bit-for-bit ([`GraphBatch`]
    /// guarantees the forward itself is bit-identical).
    fn act_greedy_batch(&self, obs: &[DdrObs]) -> Vec<Vec<f64>> {
        if obs.is_empty() {
            return Vec::new();
        }
        let structures: Vec<&GraphStructure> = obs.iter().map(|o| o.structure.as_ref()).collect();
        let batch = GraphBatch::new(&structures);
        let nodes: Vec<&Matrix> = obs.iter().map(|o| &o.node_feats).collect();
        let edges: Vec<&Matrix> = obs.iter().map(|o| &o.edge_feats).collect();
        let globals: Vec<&Matrix> = obs.iter().map(|o| &o.globals).collect();
        let packed = batch.pack(&nodes, &edges, &globals);
        let out = self.net.eval(&self.store, &batch, &packed);
        // One decoded column, so graph g's actions are its edge rows.
        (0..batch.num_graphs)
            .map(|g| out.as_slice()[batch.edge_offsets[g]..batch.edge_offsets[g + 1]].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{standard_sequences, DdrEnvConfig, GraphContext};
    use crate::DdrEnv;
    use gddr_net::topology::zoo;
    use gddr_rl::Env;
    use gddr_rng::SeedableRng;

    fn policy_and_env(graph_name: &str, memory: usize) -> (GnnPolicy, DdrEnv, StdRng) {
        let g = gddr_net::topology::zoo::by_name(graph_name).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let seqs = standard_sequences(&g, 1, memory + 3, 3, &mut rng);
        let env = DdrEnv::new(
            GraphContext::new(g, seqs),
            DdrEnvConfig {
                memory,
                ..Default::default()
            },
        );
        let config = GnnPolicyConfig {
            memory,
            latent: 8,
            hidden: 16,
            message_steps: 2,
            layer_norm: false,
        };
        let policy = GnnPolicy::new(&config, -0.5, &mut rng);
        (policy, env, rng)
    }

    #[test]
    fn action_length_matches_graph() {
        let (policy, mut env, mut rng) = policy_and_env("cesnet", 2);
        let obs = env.reset(&mut rng);
        let sample = policy.act(&obs, &mut rng);
        assert_eq!(sample.action.len(), obs.structure.num_edges);
        let s = env.step(&sample.action, &mut rng);
        assert!(s.reward < 0.0);
    }

    #[test]
    fn one_policy_runs_on_different_graphs() {
        // The headline property: the same trained parameters apply to
        // other topologies with no change.
        let (policy, _, mut rng) = policy_and_env("cesnet", 2);
        for name in ["abilene", "geant"] {
            let g = zoo::by_name(name).unwrap();
            let seqs = standard_sequences(&g, 1, 5, 3, &mut rng);
            let mut env = DdrEnv::new(
                GraphContext::new(g.clone(), seqs),
                DdrEnvConfig {
                    memory: 2,
                    ..Default::default()
                },
            );
            let obs = env.reset(&mut rng);
            let action = policy.act_greedy(&obs);
            assert_eq!(action.len(), g.num_edges());
            let s = env.step(&action, &mut rng);
            assert!(s.reward < 0.0);
        }
    }

    #[test]
    fn evaluate_is_consistent_with_act() {
        let (policy, mut env, mut rng) = policy_and_env("cesnet", 2);
        let obs = env.reset(&mut rng);
        let sample = policy.act(&obs, &mut rng);
        let mut tape = Tape::new();
        let eval = policy.evaluate(&mut tape, &obs, &sample.action);
        assert!((tape.value(eval.log_prob).get(0, 0) - sample.log_prob).abs() < 1e-9);
        assert!((tape.value(eval.value).get(0, 0) - sample.value).abs() < 1e-9);
    }

    #[test]
    fn log_std_gradient_reaches_scalar() {
        let (mut policy, mut env, mut rng) = policy_and_env("cesnet", 2);
        let obs = env.reset(&mut rng);
        let sample = policy.act(&obs, &mut rng);
        let mut tape = Tape::new();
        let eval = policy.evaluate(&mut tape, &obs, &sample.action);
        let store = policy.params_mut();
        store.zero_grads();
        tape.backward(eval.log_prob, store);
        let ls_id = store
            .iter()
            .find(|(_, name, _)| *name == "log_std")
            .map(|(id, _, _)| id)
            .unwrap();
        assert!(store.grad(ls_id).norm() > 0.0, "log_std got no gradient");
    }

    #[test]
    fn act_greedy_batch_matches_sequential_bitwise() {
        use crate::policies::BatchGreedy;
        let (policy, _, mut rng) = policy_and_env("cesnet", 2);
        let mut observations = Vec::new();
        for name in ["cesnet", "abilene", "geant", "abilene"] {
            let g = zoo::by_name(name).unwrap();
            let seqs = standard_sequences(&g, 1, 5, 3, &mut rng);
            let mut env = DdrEnv::new(
                GraphContext::new(g, seqs),
                DdrEnvConfig {
                    memory: 2,
                    ..Default::default()
                },
            );
            observations.push(env.reset(&mut rng));
        }
        let sequential: Vec<Vec<f64>> = observations.iter().map(|o| policy.act_greedy(o)).collect();
        let batched = policy.act_greedy_batch(&observations);
        // Exact equality: serving coalesces requests into one batch and
        // must answer exactly as if each were served alone.
        assert_eq!(batched, sequential);
        assert!(policy.act_greedy_batch(&[]).is_empty());
    }

    #[test]
    fn tape_free_greedy_is_the_tape_mean_bitwise() {
        use crate::policies::BatchGreedy;
        for layer_norm in [false, true] {
            let mut rng = StdRng::seed_from_u64(5);
            let config = GnnPolicyConfig {
                memory: 2,
                latent: 8,
                hidden: 16,
                message_steps: 2,
                layer_norm,
            };
            let policy = GnnPolicy::new(&config, -0.5, &mut rng);
            let mut observations = Vec::new();
            for g in zoo::all() {
                let seqs = standard_sequences(&g, 1, 5, 3, &mut rng);
                let mut env = DdrEnv::new(
                    GraphContext::new(g, seqs),
                    DdrEnvConfig {
                        memory: 2,
                        ..Default::default()
                    },
                );
                observations.push(env.reset(&mut rng));
            }
            let tape_means: Vec<Vec<f64>> = observations
                .iter()
                .map(|o| {
                    let mut tape = Tape::new();
                    let (dist, _) = policy.dist(&mut tape, o);
                    dist.mode(&tape).as_slice().to_vec()
                })
                .collect();
            let solo: Vec<Vec<f64>> = observations.iter().map(|o| policy.act_greedy(o)).collect();
            let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
                v.iter()
                    .map(|a| a.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&solo), bits(&tape_means), "layer_norm {layer_norm}");
            for chunk in observations.chunks(4).zip(tape_means.chunks(4)) {
                assert_eq!(bits(&policy.act_greedy_batch(chunk.0)), bits(chunk.1));
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let (mut policy, mut env, mut rng) = policy_and_env("cesnet", 2);
        let obs = env.reset(&mut rng);
        let before = policy.act_greedy(&obs);
        let mut buf = Vec::new();
        policy.save(&mut buf).unwrap();
        // Perturb the edge-decoder output bias (directly shifts every
        // edge weight), then restore.
        let id = policy
            .params()
            .iter()
            .find(|(_, name, _)| *name == "gnn_policy.dec_edges.l1.bias")
            .map(|(id, _, _)| id)
            .expect("decoder bias exists");
        policy.params_mut().value_mut(id).as_mut_slice()[0] += 1.0;
        assert_ne!(policy.act_greedy(&obs), before);
        policy.load(buf.as_slice()).unwrap();
        assert_eq!(policy.act_greedy(&obs), before);
    }
}
