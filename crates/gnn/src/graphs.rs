//! Graph feature containers and the encode-process-decode composition
//! (paper Fig. 5).

use gddr_rng::Rng;

use gddr_net::Graph;
use gddr_nn::layers::{Activation, LayerNorm, Mlp};
use gddr_nn::{Matrix, ParamStore, Tape};

use crate::batch::GraphBatch;
use crate::block::{GnBlock, GnBlockConfig, GraphVars};

/// Static connectivity of a graph in GNN form: per-edge sender and
/// receiver node indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStructure {
    /// Number of vertices.
    pub num_nodes: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// `senders[e]` is the source node of edge `e`.
    pub senders: Vec<usize>,
    /// `receivers[e]` is the destination node of edge `e`.
    pub receivers: Vec<usize>,
}

impl GraphStructure {
    /// Extracts the structure of a [`gddr_net::Graph`]; edge order
    /// follows the graph's dense edge ids, which is what the policies
    /// rely on to map GNN edge outputs back to routing weights.
    pub fn from_graph(graph: &Graph) -> Self {
        GraphStructure {
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_edges(),
            senders: graph.edges().map(|e| graph.src(e).0).collect(),
            receivers: graph.edges().map(|e| graph.dst(e).0).collect(),
        }
    }
}

/// Concrete node, edge and global features of one graph or of a
/// [`GraphBatch`]: network inputs, or the values a tape-free `eval`
/// passes between layers.
#[derive(Debug, Clone)]
pub struct GraphFeatures {
    /// n×d_node features.
    pub nodes: Matrix,
    /// m×d_edge features.
    pub edges: Matrix,
    /// 1×d_global features (one row per graph in a batch).
    pub globals: Matrix,
}

/// Configuration of an [`EncodeProcessDecode`] network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpdConfig {
    /// Input node-feature width (2·history for GDDR, Eq. 4).
    pub node_in: usize,
    /// Input edge-feature width (0-padded to 1, or 3 for the iterative
    /// policy, Eq. 6).
    pub edge_in: usize,
    /// Input global-feature width.
    pub global_in: usize,
    /// Decoded node output width.
    pub node_out: usize,
    /// Decoded edge output width (1 for GDDR: the edge weight, Eq. 5).
    pub edge_out: usize,
    /// Decoded global output width (Eq. 7 for the iterative policy).
    pub global_out: usize,
    /// Latent feature width used between encoder, core and decoder.
    pub latent: usize,
    /// Hidden width of every MLP.
    pub hidden: usize,
    /// Number of message-passing steps of the core block.
    pub message_steps: usize,
    /// Apply layer normalisation to the latents after every core step
    /// (graph_nets-style stabiliser; off in the paper's base setup).
    pub layer_norm: bool,
}

/// The encode-process-decode model of the paper's Fig. 5: an
/// independent encoder lifts raw attributes to a latent size, a full GN
/// block runs several message-passing steps (each step re-consuming the
/// encoded input via concatenation — the "extra loop" in the figure),
/// and an independent decoder maps the final latents to output sizes.
#[derive(Debug, Clone)]
pub struct EncodeProcessDecode {
    enc_nodes: Mlp,
    enc_edges: Mlp,
    enc_globals: Mlp,
    core: GnBlock,
    dec_nodes: Mlp,
    dec_edges: Mlp,
    dec_globals: Mlp,
    norms: Option<(LayerNorm, LayerNorm, LayerNorm)>,
    config: EpdConfig,
}

impl EncodeProcessDecode {
    /// Registers all parameters in `store`.
    ///
    /// # Panics
    ///
    /// Panics if `message_steps == 0` or `latent == 0`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        config: &EpdConfig,
        rng: &mut R,
    ) -> Self {
        assert!(config.message_steps >= 1, "need at least one core step");
        assert!(config.latent >= 1, "latent width must be positive");
        let l = config.latent;
        let core_cfg = GnBlockConfig {
            // Core consumes [encoded ‖ current] for nodes/edges/globals.
            edge_in: 2 * l,
            node_in: 2 * l,
            global_in: 2 * l,
            edge_out: l,
            node_out: l,
            global_out: l,
            hidden: config.hidden,
        };
        EncodeProcessDecode {
            enc_nodes: Mlp::new(
                store,
                &format!("{name}.enc_nodes"),
                &[config.node_in, config.hidden, l],
                Activation::Relu,
                rng,
            ),
            enc_edges: Mlp::new(
                store,
                &format!("{name}.enc_edges"),
                &[config.edge_in, config.hidden, l],
                Activation::Relu,
                rng,
            ),
            enc_globals: Mlp::new(
                store,
                &format!("{name}.enc_globals"),
                &[config.global_in, config.hidden, l],
                Activation::Relu,
                rng,
            ),
            core: GnBlock::new(store, &format!("{name}.core"), &core_cfg, rng),
            dec_nodes: Mlp::new(
                store,
                &format!("{name}.dec_nodes"),
                &[l, config.hidden, config.node_out],
                Activation::Relu,
                rng,
            ),
            dec_edges: Mlp::new(
                store,
                &format!("{name}.dec_edges"),
                &[l, config.hidden, config.edge_out],
                Activation::Relu,
                rng,
            ),
            dec_globals: Mlp::new(
                store,
                &format!("{name}.dec_globals"),
                &[l, config.hidden, config.global_out],
                Activation::Relu,
                rng,
            ),
            norms: config.layer_norm.then(|| {
                (
                    LayerNorm::new(store, &format!("{name}.ln_nodes"), l),
                    LayerNorm::new(store, &format!("{name}.ln_edges"), l),
                    LayerNorm::new(store, &format!("{name}.ln_globals"), l),
                )
            }),
            config: *config,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &EpdConfig {
        &self.config
    }

    /// Full forward pass on one graph:
    /// [`EncodeProcessDecode::forward_batched`] over a one-graph batch.
    ///
    /// # Panics
    ///
    /// Panics if feature shapes disagree with the configuration or the
    /// structure.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        structure: &GraphStructure,
        features: &GraphFeatures,
    ) -> GraphVars {
        self.forward_batched(tape, store, &GraphBatch::new(&[structure]), features)
    }

    /// Full forward pass over a block-diagonal [`GraphBatch`] —
    /// `features` must be in batch form ([`GraphBatch::batch_features`])
    /// with `num_graphs×global_in` globals. Encoders, decoders and
    /// layer norms are row-wise and the core delegates to
    /// [`GnBlock::forward_batched`], so unbatching the output is
    /// bit-identical to per-graph [`EncodeProcessDecode::forward`].
    ///
    /// # Panics
    ///
    /// Panics if feature shapes disagree with the configuration or the
    /// batch.
    pub fn forward_batched(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &GraphBatch,
        features: &GraphFeatures,
    ) -> GraphVars {
        self.check_batch_shapes(batch, features);

        let node_in = tape.constant(features.nodes.clone());
        let edge_in = tape.constant(features.edges.clone());
        let global_in = tape.constant(features.globals.clone());

        let enc = GraphVars {
            nodes: self.enc_nodes.forward(tape, store, node_in),
            edges: self.enc_edges.forward(tape, store, edge_in),
            globals: self.enc_globals.forward(tape, store, global_in),
        };

        let mut state = enc;
        for _ in 0..self.config.message_steps {
            let core_in = GraphVars {
                nodes: tape.concat_cols(&[enc.nodes, state.nodes]),
                edges: tape.concat_cols(&[enc.edges, state.edges]),
                globals: tape.concat_cols(&[enc.globals, state.globals]),
            };
            state = self.core.forward_batched(tape, store, batch, core_in);
            if let Some((ln_n, ln_e, ln_g)) = &self.norms {
                state = GraphVars {
                    nodes: ln_n.forward(tape, store, state.nodes),
                    edges: ln_e.forward(tape, store, state.edges),
                    globals: ln_g.forward(tape, store, state.globals),
                };
            }
        }

        GraphVars {
            nodes: self.dec_nodes.forward(tape, store, state.nodes),
            edges: self.dec_edges.forward(tape, store, state.edges),
            globals: self.dec_globals.forward(tape, store, state.globals),
        }
    }

    /// No-grad inference: the decoded `total_edges×edge_out` edge
    /// output of [`EncodeProcessDecode::forward_batched`], bitwise,
    /// without a tape.
    ///
    /// Only what feeds the decoded edges is computed: the last core
    /// step skips its node and global updates (and their layer norms),
    /// and the node and global decoders never run.
    ///
    /// # Panics
    ///
    /// Panics if feature shapes disagree with the configuration or the
    /// batch.
    pub fn eval(&self, store: &ParamStore, batch: &GraphBatch, features: &GraphFeatures) -> Matrix {
        self.check_batch_shapes(batch, features);
        let enc = GraphFeatures {
            nodes: self.enc_nodes.eval(store, &features.nodes),
            edges: self.enc_edges.eval(store, &features.edges),
            globals: self.enc_globals.eval(store, &features.globals),
        };
        // Each core step consumes [encoded ‖ current].
        let core_in = |cur: &GraphFeatures| GraphFeatures {
            nodes: Matrix::concat_cols(&[&enc.nodes, &cur.nodes]),
            edges: Matrix::concat_cols(&[&enc.edges, &cur.edges]),
            globals: Matrix::concat_cols(&[&enc.globals, &cur.globals]),
        };
        let mut state: Option<GraphFeatures> = None;
        for _ in 1..self.config.message_steps {
            let mut out = self
                .core
                .eval(store, batch, &core_in(state.as_ref().unwrap_or(&enc)));
            if let Some((ln_n, ln_e, ln_g)) = &self.norms {
                out = GraphFeatures {
                    nodes: ln_n.eval(store, &out.nodes),
                    edges: ln_e.eval(store, &out.edges),
                    globals: ln_g.eval(store, &out.globals),
                };
            }
            state = Some(out);
        }
        let mut edges =
            self.core
                .eval_edges(store, batch, &core_in(state.as_ref().unwrap_or(&enc)));
        if let Some((_, ln_e, _)) = &self.norms {
            edges = ln_e.eval(store, &edges);
        }
        self.dec_edges.eval(store, &edges)
    }

    fn check_batch_shapes(&self, batch: &GraphBatch, features: &GraphFeatures) {
        assert_eq!(
            features.nodes.shape(),
            (batch.total_nodes(), self.config.node_in)
        );
        assert_eq!(
            features.edges.shape(),
            (batch.total_edges(), self.config.edge_in)
        );
        assert_eq!(
            features.globals.shape(),
            (batch.num_graphs, self.config.global_in)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::zoo;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;

    fn config() -> EpdConfig {
        EpdConfig {
            node_in: 2,
            edge_in: 1,
            global_in: 1,
            node_out: 3,
            edge_out: 1,
            global_out: 2,
            latent: 8,
            hidden: 16,
            message_steps: 3,
            layer_norm: false,
        }
    }

    fn features(s: &GraphStructure, cfg: &EpdConfig) -> GraphFeatures {
        GraphFeatures {
            nodes: Matrix::from_fn(s.num_nodes, cfg.node_in, |r, c| {
                ((r + 1) * (c + 1)) as f64 * 0.01
            }),
            edges: Matrix::from_fn(s.num_edges, cfg.edge_in, |r, _| r as f64 * 0.01),
            globals: Matrix::zeros(1, cfg.global_in),
        }
    }

    #[test]
    fn forward_shapes() {
        let g = zoo::abilene();
        let s = GraphStructure::from_graph(&g);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = config();
        let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
        let mut tape = Tape::new();
        let out = net.forward(&mut tape, &store, &s, &features(&s, &cfg));
        assert_eq!(tape.value(out.nodes).shape(), (s.num_nodes, 3));
        assert_eq!(tape.value(out.edges).shape(), (s.num_edges, 1));
        assert_eq!(tape.value(out.globals).shape(), (1, 2));
    }

    #[test]
    fn same_params_generalise_across_graphs() {
        // The core property the paper relies on: one parameter set runs
        // on any topology.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = config();
        let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
        for g in [zoo::cesnet(), zoo::abilene(), zoo::geant()] {
            let s = GraphStructure::from_graph(&g);
            let mut tape = Tape::new();
            let out = net.forward(&mut tape, &store, &s, &features(&s, &cfg));
            assert_eq!(tape.value(out.edges).shape(), (g.num_edges(), 1));
            assert!(tape.value(out.edges).is_finite());
        }
    }

    #[test]
    fn param_count_is_independent_of_graph_size() {
        // (Discussion §IX: "the parameter count for GNNs remains fixed
        // with larger graphs".)
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = EncodeProcessDecode::new(&mut store, "epd", &config(), &mut rng);
        let count = store.num_scalars();
        assert!(count > 0);
        // No graph was involved in construction at all; nothing to vary.
        // Re-register with another seed to ensure deterministic layout.
        let mut store2 = ParamStore::new();
        let mut rng2 = StdRng::seed_from_u64(3);
        let _ = EncodeProcessDecode::new(&mut store2, "epd", &config(), &mut rng2);
        assert_eq!(store2.num_scalars(), count);
    }

    #[test]
    fn message_steps_extend_receptive_field() {
        // With one step, information from a node reaches only adjacent
        // edges; with enough steps it reaches the farthest edge. Probe
        // by differencing outputs under an input perturbation.
        let g = zoo::abilene();
        let s = GraphStructure::from_graph(&g);
        let far_node = 0usize; // Seattle
                               // Find an edge maximally far from Seattle (NY-DC side).
        let probe_edge = s
            .senders
            .iter()
            .position(|&x| x == 9 || x == 10)
            .expect("east-coast edge exists");

        for (steps, expect_reach) in [(1, false), (6, true)] {
            let cfg = EpdConfig {
                message_steps: steps,
                ..config()
            };
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(4);
            let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
            let base = features(&s, &cfg);
            let mut perturbed = base.clone();
            perturbed
                .nodes
                .set(far_node, 0, base.nodes.get(far_node, 0) + 1.0);
            let mut t1 = Tape::new();
            let o1 = net.forward(&mut t1, &store, &s, &base);
            let mut t2 = Tape::new();
            let o2 = net.forward(&mut t2, &store, &s, &perturbed);
            let d = (t1.value(o1.edges).get(probe_edge, 0) - t2.value(o2.edges).get(probe_edge, 0))
                .abs();
            if expect_reach {
                assert!(d > 1e-9, "{steps} steps should reach the probe edge");
            } else {
                assert!(d < 1e-9, "1 step must not reach a distant edge (got {d})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core step")]
    fn rejects_zero_steps() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = EpdConfig {
            message_steps: 0,
            ..config()
        };
        EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
    }
}
