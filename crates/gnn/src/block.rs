//! The full GN block of Battaglia et al.
//!
//! Update order (their Algorithm 1):
//!
//! 1. φᵉ updates every edge from `[eₖ, v_sender, v_receiver, u]`,
//! 2. ρᵉ→ᵛ sum-pools updated incoming edges per receiver vertex,
//! 3. φᵛ updates every vertex from `[ēᵢ, vᵢ, u]`,
//! 4. ρᵉ→ᵘ and ρᵛ→ᵘ sum-pool all edges and vertices,
//! 5. φᵘ updates the global from `[ē, v̄, u]`.
//!
//! All three φ functions are MLPs ([`gddr_nn::layers::Mlp`]), matching
//! the paper ("we implement all of these functions as MLPs"), and all
//! ρ are sums (`tf.unsorted_segment_sum` in the paper's stack).

use gddr_rng::Rng;

use gddr_nn::layers::{Activation, Mlp};
use gddr_nn::{Matrix, ParamStore, Tape, Var};

use crate::batch::GraphBatch;
use crate::graphs::{GraphFeatures, GraphStructure};

/// Tape variables holding a graph's node/edge/global features.
#[derive(Debug, Clone, Copy)]
pub struct GraphVars {
    /// n×d_node features.
    pub nodes: Var,
    /// m×d_edge features.
    pub edges: Var,
    /// 1×d_global features.
    pub globals: Var,
}

/// Feature widths of a [`GnBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnBlockConfig {
    /// Input edge-feature width.
    pub edge_in: usize,
    /// Input node-feature width.
    pub node_in: usize,
    /// Input global-feature width.
    pub global_in: usize,
    /// Output edge-feature width.
    pub edge_out: usize,
    /// Output node-feature width.
    pub node_out: usize,
    /// Output global-feature width.
    pub global_out: usize,
    /// Hidden width of the three update MLPs.
    pub hidden: usize,
}

/// A full graph-network block with learned edge, node and global update
/// functions.
#[derive(Debug, Clone)]
pub struct GnBlock {
    phi_e: Mlp,
    phi_v: Mlp,
    phi_u: Mlp,
    config: GnBlockConfig,
}

impl GnBlock {
    /// Registers the block's parameters in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        config: &GnBlockConfig,
        rng: &mut R,
    ) -> Self {
        let phi_e_in = config.edge_in + 2 * config.node_in + config.global_in;
        let phi_v_in = config.edge_out + config.node_in + config.global_in;
        let phi_u_in = config.edge_out + config.node_out + config.global_in;
        GnBlock {
            phi_e: Mlp::new(
                store,
                &format!("{name}.phi_e"),
                &[phi_e_in, config.hidden, config.edge_out],
                Activation::Relu,
                rng,
            ),
            phi_v: Mlp::new(
                store,
                &format!("{name}.phi_v"),
                &[phi_v_in, config.hidden, config.node_out],
                Activation::Relu,
                rng,
            ),
            phi_u: Mlp::new(
                store,
                &format!("{name}.phi_u"),
                &[phi_u_in, config.hidden, config.global_out],
                Activation::Relu,
                rng,
            ),
            config: *config,
        }
    }

    /// The block's configuration.
    pub fn config(&self) -> &GnBlockConfig {
        &self.config
    }

    /// One full GN-block pass: [`GnBlock::forward_batched`] over a
    /// one-graph batch.
    ///
    /// # Panics
    ///
    /// Panics if the feature shapes do not match the configuration or
    /// the structure.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        structure: &GraphStructure,
        input: GraphVars,
    ) -> GraphVars {
        self.forward_batched(tape, store, &GraphBatch::new(&[structure]), input)
    }

    /// One full GN-block pass over a block-diagonal [`GraphBatch`].
    ///
    /// Globals are `G×d_global` (one row per graph); per-edge/per-node
    /// global context is gathered via the batch's segment vectors and
    /// the graph-level pools are segment sums, so each graph's rows see
    /// exactly the operands (in the same accumulation order) as in a
    /// one-graph batch — the batched result unbatches bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if the feature shapes do not match the configuration or
    /// the batch.
    pub fn forward_batched(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        batch: &GraphBatch,
        input: GraphVars,
    ) -> GraphVars {
        let _span = gddr_telemetry::span("gnn.block.forward");
        let structure = &batch.structure;
        let n = structure.num_nodes;
        let m = structure.num_edges;
        assert_eq!(
            tape.value(input.nodes).shape(),
            (n, self.config.node_in),
            "node feature shape mismatch"
        );
        assert_eq!(
            tape.value(input.edges).shape(),
            (m, self.config.edge_in),
            "edge feature shape mismatch"
        );
        assert_eq!(
            tape.value(input.globals).shape(),
            (batch.num_graphs, self.config.global_in),
            "global feature shape mismatch"
        );

        // 1. Edge update — each edge reads its own graph's global row.
        let sender_feats = tape.gather_rows(input.nodes, &structure.senders);
        let receiver_feats = tape.gather_rows(input.nodes, &structure.receivers);
        let global_per_edge = tape.gather_rows(input.globals, &batch.edge_segments);
        let phi_e_in =
            tape.concat_cols(&[input.edges, sender_feats, receiver_feats, global_per_edge]);
        let edges_out = self.phi_e.forward(tape, store, phi_e_in);

        // 2. Aggregate incoming edges per receiver, 3. node update.
        let agg_in = tape.segment_sum(edges_out, &structure.receivers, n);
        let global_per_node = tape.gather_rows(input.globals, &batch.node_segments);
        let phi_v_in = tape.concat_cols(&[agg_in, input.nodes, global_per_node]);
        let nodes_out = self.phi_v.forward(tape, store, phi_v_in);

        // 4. Per-graph aggregations, 5. global update. Rows of each
        // graph are contiguous, so segment_sum accumulates each graph's
        // rows in order, whatever else shares the batch.
        let agg_e = tape.segment_sum(edges_out, &batch.edge_segments, batch.num_graphs);
        let agg_v = tape.segment_sum(nodes_out, &batch.node_segments, batch.num_graphs);
        let phi_u_in = tape.concat_cols(&[agg_e, agg_v, input.globals]);
        let globals_out = self.phi_u.forward(tape, store, phi_u_in);

        GraphVars {
            nodes: nodes_out,
            edges: edges_out,
            globals: globals_out,
        }
    }

    /// No-grad [`GnBlock::forward_batched`] on plain matrices: the same
    /// operations in the same order, so the outputs are bitwise the
    /// tape's.
    ///
    /// # Panics
    ///
    /// Panics if the feature shapes do not match the configuration or
    /// the batch.
    pub fn eval(
        &self,
        store: &ParamStore,
        batch: &GraphBatch,
        input: &GraphFeatures,
    ) -> GraphFeatures {
        let _span = gddr_telemetry::span("gnn.block.forward");
        let edges = self.edge_update(store, batch, input);
        let n = batch.structure.num_nodes;
        let agg_in = edges.segment_sum(&batch.structure.receivers, n);
        let global_per_node = input.globals.gather_rows(&batch.node_segments);
        let phi_v_in = Matrix::concat_cols(&[&agg_in, &input.nodes, &global_per_node]);
        let nodes = self.phi_v.eval(store, &phi_v_in);
        let agg_e = edges.segment_sum(&batch.edge_segments, batch.num_graphs);
        let agg_v = nodes.segment_sum(&batch.node_segments, batch.num_graphs);
        let phi_u_in = Matrix::concat_cols(&[&agg_e, &agg_v, &input.globals]);
        let globals = self.phi_u.eval(store, &phi_u_in);
        GraphFeatures {
            nodes,
            edges,
            globals,
        }
    }

    /// [`GnBlock::eval`] up to the edge update only: the updated edge
    /// features, without the node and global updates that read them.
    ///
    /// # Panics
    ///
    /// Panics if the feature shapes do not match the configuration or
    /// the batch.
    pub(crate) fn eval_edges(
        &self,
        store: &ParamStore,
        batch: &GraphBatch,
        input: &GraphFeatures,
    ) -> Matrix {
        let _span = gddr_telemetry::span("gnn.block.forward");
        self.edge_update(store, batch, input)
    }

    /// Step 1 of [`GnBlock::eval`] (shapes checked here).
    fn edge_update(&self, store: &ParamStore, batch: &GraphBatch, input: &GraphFeatures) -> Matrix {
        let structure = &batch.structure;
        assert_eq!(
            input.nodes.shape(),
            (structure.num_nodes, self.config.node_in),
            "node feature shape mismatch"
        );
        assert_eq!(
            input.edges.shape(),
            (structure.num_edges, self.config.edge_in),
            "edge feature shape mismatch"
        );
        assert_eq!(
            input.globals.shape(),
            (batch.num_graphs, self.config.global_in),
            "global feature shape mismatch"
        );
        let sender_feats = input.nodes.gather_rows(&structure.senders);
        let receiver_feats = input.nodes.gather_rows(&structure.receivers);
        let global_per_edge = input.globals.gather_rows(&batch.edge_segments);
        let phi_e_in = Matrix::concat_cols(&[
            &input.edges,
            &sender_feats,
            &receiver_feats,
            &global_per_edge,
        ]);
        self.phi_e.eval(store, &phi_e_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::zoo;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;

    fn fixture() -> (GraphStructure, ParamStore, GnBlock) {
        let g = zoo::cesnet();
        let structure = GraphStructure::from_graph(&g);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let config = GnBlockConfig {
            edge_in: 3,
            node_in: 2,
            global_in: 1,
            edge_out: 4,
            node_out: 5,
            global_out: 2,
            hidden: 8,
        };
        let block = GnBlock::new(&mut store, "gn", &config, &mut rng);
        (structure, store, block)
    }

    fn inputs(tape: &mut Tape, s: &GraphStructure) -> GraphVars {
        let nodes = tape.constant(Matrix::from_fn(s.num_nodes, 2, |r, c| {
            (r * 2 + c) as f64 * 0.1
        }));
        let edges = tape.constant(Matrix::from_fn(s.num_edges, 3, |r, c| {
            (r + c) as f64 * 0.05
        }));
        let globals = tape.constant(Matrix::row_vector(vec![0.3]));
        GraphVars {
            nodes,
            edges,
            globals,
        }
    }

    #[test]
    fn output_shapes() {
        let (s, store, block) = fixture();
        let mut tape = Tape::new();
        let inp = inputs(&mut tape, &s);
        let out = block.forward(&mut tape, &store, &s, inp);
        assert_eq!(tape.value(out.nodes).shape(), (s.num_nodes, 5));
        assert_eq!(tape.value(out.edges).shape(), (s.num_edges, 4));
        assert_eq!(tape.value(out.globals).shape(), (1, 2));
    }

    #[test]
    fn gradient_flows_to_all_phi_functions() {
        let (s, mut store, block) = fixture();
        let mut tape = Tape::new();
        let inp = inputs(&mut tape, &s);
        let out = block.forward(&mut tape, &store, &s, inp);
        let ge = tape.sum_all(out.edges);
        let gn = tape.sum_all(out.nodes);
        let gu = tape.sum_all(out.globals);
        let t1 = tape.add(ge, gn);
        let loss = tape.add(t1, gu);
        store.zero_grads();
        tape.backward(loss, &mut store);
        // Every parameter should receive some gradient (ReLU may zero a
        // few rows, but not entire weight matrices here).
        let nonzero = store
            .iter()
            .filter(|(id, _, _)| store.grad(*id).norm() > 0.0)
            .count();
        assert!(
            nonzero >= store.len() - 2,
            "only {nonzero}/{} params got gradient",
            store.len()
        );
    }

    #[test]
    fn permutation_equivariance_of_edge_update() {
        // Relabelling edges permutes edge outputs identically.
        let (s, store, block) = fixture();
        let mut tape = Tape::new();
        let inp = inputs(&mut tape, &s);
        let out = block.forward(&mut tape, &store, &s, inp);
        let edges_a = tape.value(out.edges).clone();

        // Build a permuted structure: swap edges 0 and 1.
        let mut s2 = s.clone();
        s2.senders.swap(0, 1);
        s2.receivers.swap(0, 1);
        let mut tape2 = Tape::new();
        let nodes = tape2.constant(Matrix::from_fn(s.num_nodes, 2, |r, c| {
            (r * 2 + c) as f64 * 0.1
        }));
        let mut em = Matrix::from_fn(s.num_edges, 3, |r, c| (r + c) as f64 * 0.05);
        for c in 0..3 {
            let tmp = em.get(0, c);
            em.set(0, c, em.get(1, c));
            em.set(1, c, tmp);
        }
        let edges = tape2.constant(em);
        let globals = tape2.constant(Matrix::row_vector(vec![0.3]));
        let out2 = block.forward(
            &mut tape2,
            &store,
            &s2,
            GraphVars {
                nodes,
                edges,
                globals,
            },
        );
        let edges_b = tape2.value(out2.edges).clone();
        for c in 0..4 {
            assert!((edges_a.get(0, c) - edges_b.get(1, c)).abs() < 1e-12);
            assert!((edges_a.get(1, c) - edges_b.get(0, c)).abs() < 1e-12);
        }
        // Globals are permutation-invariant.
        let ga = tape.value(out.globals).clone();
        let gb = tape2.value(out2.globals).clone();
        for c in 0..2 {
            assert!((ga.get(0, c) - gb.get(0, c)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "node feature shape")]
    fn rejects_wrong_shapes() {
        let (s, store, block) = fixture();
        let mut tape = Tape::new();
        let nodes = tape.constant(Matrix::zeros(s.num_nodes, 7)); // wrong width
        let edges = tape.constant(Matrix::zeros(s.num_edges, 3));
        let globals = tape.constant(Matrix::zeros(1, 1));
        block.forward(
            &mut tape,
            &store,
            &s,
            GraphVars {
                nodes,
                edges,
                globals,
            },
        );
    }
}
