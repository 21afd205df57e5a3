//! Block-diagonal graph batching (a `GraphsTuple`-style disjoint
//! union).
//!
//! Many independent graphs are packed into one big graph whose
//! adjacency is block-diagonal: node and edge feature matrices are
//! stacked vertically, sender/receiver indices are shifted by each
//! graph's node offset, and per-graph segment vectors record which
//! graph every node/edge belongs to. One forward pass over the batch
//! then computes exactly what per-graph forward passes would — since no
//! edge crosses a graph boundary, message passing cannot mix graphs,
//! and per-graph global pooling uses the segment vectors.
//!
//! **Bit-identity is the contract**: for every op on the batched path
//! (row-wise MLPs, gathers, segment sums accumulating in row order),
//! each graph's rows are processed in the same order with the same
//! operand values as in a solo forward, so unbatching the output
//! reproduces per-graph forwards down to the last bit. The serving
//! fleet's request coalescing relies on this — batched answers must be
//! indistinguishable from per-request answers.

use gddr_nn::Matrix;

use crate::graphs::{GraphFeatures, GraphStructure};

/// A disjoint union of graphs with per-graph bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphBatch {
    /// The merged block-diagonal structure (global node/edge indices).
    pub structure: GraphStructure,
    /// Number of graphs in the batch.
    pub num_graphs: usize,
    /// `node_offsets[g]..node_offsets[g + 1]` are graph `g`'s node
    /// rows; `len == num_graphs + 1`.
    pub node_offsets: Vec<usize>,
    /// `edge_offsets[g]..edge_offsets[g + 1]` are graph `g`'s edge
    /// rows; `len == num_graphs + 1`.
    pub edge_offsets: Vec<usize>,
    /// `node_segments[v]` is the graph owning global node `v`.
    pub node_segments: Vec<usize>,
    /// `edge_segments[e]` is the graph owning global edge `e`.
    pub edge_segments: Vec<usize>,
}

impl GraphBatch {
    /// Builds the disjoint union of `structures`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `structures` is empty.
    pub fn new(structures: &[&GraphStructure]) -> Self {
        assert!(!structures.is_empty(), "batch needs at least one graph");
        let num_graphs = structures.len();
        let mut node_offsets = Vec::with_capacity(num_graphs + 1);
        let mut edge_offsets = Vec::with_capacity(num_graphs + 1);
        node_offsets.push(0);
        edge_offsets.push(0);
        let total_nodes: usize = structures.iter().map(|s| s.num_nodes).sum();
        let total_edges: usize = structures.iter().map(|s| s.num_edges).sum();
        let mut senders = Vec::with_capacity(total_edges);
        let mut receivers = Vec::with_capacity(total_edges);
        let mut node_segments = Vec::with_capacity(total_nodes);
        let mut edge_segments = Vec::with_capacity(total_edges);
        for (g, s) in structures.iter().enumerate() {
            let node_base = *node_offsets.last().expect("non-empty");
            senders.extend(s.senders.iter().map(|&v| v + node_base));
            receivers.extend(s.receivers.iter().map(|&v| v + node_base));
            node_segments.extend(std::iter::repeat_n(g, s.num_nodes));
            edge_segments.extend(std::iter::repeat_n(g, s.num_edges));
            node_offsets.push(node_base + s.num_nodes);
            edge_offsets.push(edge_offsets.last().expect("non-empty") + s.num_edges);
        }
        GraphBatch {
            structure: GraphStructure {
                num_nodes: total_nodes,
                num_edges: total_edges,
                senders,
                receivers,
            },
            num_graphs,
            node_offsets,
            edge_offsets,
            node_segments,
            edge_segments,
        }
    }

    /// Total nodes across the batch.
    pub fn total_nodes(&self) -> usize {
        self.structure.num_nodes
    }

    /// Total edges across the batch.
    pub fn total_edges(&self) -> usize {
        self.structure.num_edges
    }

    /// Stacks per-graph features into batch form: nodes and edges are
    /// concatenated vertically in batch order, and the `1×d_global`
    /// rows become one `num_graphs×d_global` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != num_graphs`, a block's row counts
    /// disagree with its structure, or feature widths differ between
    /// graphs.
    pub fn batch_features(&self, features: &[&GraphFeatures]) -> GraphFeatures {
        let nodes: Vec<&Matrix> = features.iter().map(|f| &f.nodes).collect();
        let edges: Vec<&Matrix> = features.iter().map(|f| &f.edges).collect();
        let globals: Vec<&Matrix> = features.iter().map(|f| &f.globals).collect();
        self.pack(&nodes, &edges, &globals)
    }

    /// [`GraphBatch::batch_features`] from per-graph matrices held
    /// elsewhere (say, in observations), copied straight into the batch.
    ///
    /// # Panics
    ///
    /// As [`GraphBatch::batch_features`].
    pub fn pack(&self, nodes: &[&Matrix], edges: &[&Matrix], globals: &[&Matrix]) -> GraphFeatures {
        for parts in [nodes, edges, globals] {
            assert_eq!(parts.len(), self.num_graphs, "one feature set per graph");
        }
        for g in 0..self.num_graphs {
            let n = self.node_offsets[g + 1] - self.node_offsets[g];
            let m = self.edge_offsets[g + 1] - self.edge_offsets[g];
            assert_eq!(nodes[g].rows(), n, "graph {g}: node row mismatch");
            assert_eq!(edges[g].rows(), m, "graph {g}: edge row mismatch");
            assert_eq!(globals[g].rows(), 1, "graph {g}: globals must be one row");
        }
        GraphFeatures {
            nodes: Matrix::concat_rows(nodes),
            edges: Matrix::concat_rows(edges),
            globals: Matrix::concat_rows(globals),
        }
    }

    /// Splits a batched `total_nodes×d` matrix back into per-graph
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if the row count disagrees with the batch.
    pub fn unbatch_nodes(&self, m: &Matrix) -> Vec<Matrix> {
        assert_eq!(m.rows(), self.total_nodes(), "node row mismatch");
        self.blocks(m, &self.node_offsets)
    }

    /// Splits a batched `total_edges×d` matrix back into per-graph
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if the row count disagrees with the batch.
    pub fn unbatch_edges(&self, m: &Matrix) -> Vec<Matrix> {
        assert_eq!(m.rows(), self.total_edges(), "edge row mismatch");
        self.blocks(m, &self.edge_offsets)
    }

    /// Splits a batched `num_graphs×d` globals matrix into per-graph
    /// `1×d` rows.
    ///
    /// # Panics
    ///
    /// Panics if the row count disagrees with the batch.
    pub fn unbatch_globals(&self, m: &Matrix) -> Vec<Matrix> {
        assert_eq!(m.rows(), self.num_graphs, "one globals row per graph");
        (0..self.num_graphs)
            .map(|g| m.slice_rows(g, g + 1))
            .collect()
    }

    fn blocks(&self, m: &Matrix, offsets: &[usize]) -> Vec<Matrix> {
        (0..self.num_graphs)
            .map(|g| m.slice_rows(offsets[g], offsets[g + 1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{EncodeProcessDecode, EpdConfig};
    use gddr_net::topology::zoo;
    use gddr_nn::{ParamStore, Tape};
    use gddr_rng::rngs::StdRng;
    use gddr_rng::{Rng, SeedableRng};

    fn config() -> EpdConfig {
        EpdConfig {
            node_in: 4,
            edge_in: 3,
            global_in: 1,
            node_out: 2,
            edge_out: 1,
            global_out: 2,
            latent: 8,
            hidden: 16,
            message_steps: 3,
            layer_norm: true,
        }
    }

    fn seeded_features(s: &GraphStructure, cfg: &EpdConfig, seed: u64) -> GraphFeatures {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fill =
            |rows: usize, cols: usize| Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
        GraphFeatures {
            nodes: fill(s.num_nodes, cfg.node_in),
            edges: fill(s.num_edges, cfg.edge_in),
            globals: fill(1, cfg.global_in),
        }
    }

    #[test]
    fn disjoint_union_bookkeeping() {
        let a = GraphStructure::from_graph(&zoo::abilene());
        let b = GraphStructure::from_graph(&zoo::cesnet());
        let batch = GraphBatch::new(&[&a, &b]);
        assert_eq!(batch.num_graphs, 2);
        assert_eq!(batch.total_nodes(), a.num_nodes + b.num_nodes);
        assert_eq!(batch.total_edges(), a.num_edges + b.num_edges);
        assert_eq!(
            batch.node_offsets,
            vec![0, a.num_nodes, a.num_nodes + b.num_nodes]
        );
        // No edge crosses a graph boundary.
        for e in 0..batch.total_edges() {
            let g = batch.edge_segments[e];
            let (lo, hi) = (batch.node_offsets[g], batch.node_offsets[g + 1]);
            assert!((lo..hi).contains(&batch.structure.senders[e]));
            assert!((lo..hi).contains(&batch.structure.receivers[e]));
        }
        // Graph b's first edge is a's edge shifted by a's node count.
        assert_eq!(
            batch.structure.senders[a.num_edges],
            b.senders[0] + a.num_nodes
        );
    }

    #[test]
    fn batch_unbatch_features_round_trip() {
        let cfg = config();
        let graphs = [zoo::abilene(), zoo::cesnet(), zoo::janet()];
        let structures: Vec<GraphStructure> =
            graphs.iter().map(GraphStructure::from_graph).collect();
        let refs: Vec<&GraphStructure> = structures.iter().collect();
        let batch = GraphBatch::new(&refs);
        let features: Vec<GraphFeatures> = structures
            .iter()
            .enumerate()
            .map(|(i, s)| seeded_features(s, &cfg, i as u64))
            .collect();
        let feat_refs: Vec<&GraphFeatures> = features.iter().collect();
        let packed = batch.batch_features(&feat_refs);
        assert_eq!(packed.globals.shape(), (3, cfg.global_in));
        let nodes = batch.unbatch_nodes(&packed.nodes);
        let edges = batch.unbatch_edges(&packed.edges);
        let globals = batch.unbatch_globals(&packed.globals);
        for (i, f) in features.iter().enumerate() {
            assert_eq!(nodes[i], f.nodes);
            assert_eq!(edges[i], f.edges);
            assert_eq!(globals[i], f.globals);
        }
    }

    /// The load-bearing property: a batched forward followed by
    /// unbatching is **bit-identical** to running each graph through
    /// `forward` alone — across ≥20 seeded (topology, features) pairs,
    /// mixed batch sizes, repeated topologies, and layer-norm on.
    #[test]
    fn batched_forward_is_bit_identical_to_solo_forwards() {
        let cfg = config();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(99);
        let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);

        let zoo_graphs = zoo::all();
        let mut pairs: Vec<(GraphStructure, GraphFeatures)> = Vec::new();
        for seed in 0..24u64 {
            let g = &zoo_graphs[seed as usize % zoo_graphs.len()];
            let s = GraphStructure::from_graph(g);
            let f = seeded_features(&s, &cfg, 1000 + seed);
            pairs.push((s, f));
        }

        // Solo reference forwards.
        let mut solo: Vec<(Matrix, Matrix, Matrix)> = Vec::new();
        for (s, f) in &pairs {
            let mut tape = Tape::new();
            let out = net.forward(&mut tape, &store, s, f);
            solo.push((
                tape.value(out.nodes).clone(),
                tape.value(out.edges).clone(),
                tape.value(out.globals).clone(),
            ));
        }

        // Batched forwards over varying window sizes.
        for window in [1usize, 2, 5, 24] {
            let mut start = 0;
            while start < pairs.len() {
                let end = (start + window).min(pairs.len());
                let structures: Vec<&GraphStructure> =
                    pairs[start..end].iter().map(|(s, _)| s).collect();
                let feats: Vec<&GraphFeatures> = pairs[start..end].iter().map(|(_, f)| f).collect();
                let batch = GraphBatch::new(&structures);
                let packed = batch.batch_features(&feats);
                let mut tape = Tape::new();
                let out = net.forward_batched(&mut tape, &store, &batch, &packed);
                let nodes = batch.unbatch_nodes(tape.value(out.nodes));
                let edges = batch.unbatch_edges(tape.value(out.edges));
                let globals = batch.unbatch_globals(tape.value(out.globals));
                for (k, i) in (start..end).enumerate() {
                    // Bitwise equality, not tolerance: coalesced serving
                    // depends on batch membership being unobservable.
                    assert_eq!(
                        nodes[k], solo[i].0,
                        "nodes diverged (graph {i}, window {window})"
                    );
                    assert_eq!(
                        edges[k], solo[i].1,
                        "edges diverged (graph {i}, window {window})"
                    );
                    assert_eq!(
                        globals[k], solo[i].2,
                        "globals diverged (graph {i}, window {window})"
                    );
                }
                start = end;
            }
        }
    }

    /// The no-grad `eval` returns the tape forward's decoded edges bit
    /// for bit — across seeds, every zoo graph, layer norm on and off,
    /// 1–3 message-passing steps and batches of 1–4 graphs.
    #[test]
    fn eval_is_bit_identical_to_the_tape_forward() {
        let zoo_graphs = zoo::all();
        let structures: Vec<GraphStructure> =
            zoo_graphs.iter().map(GraphStructure::from_graph).collect();
        let mut next = 0;
        for layer_norm in [false, true] {
            for message_steps in 1..=3 {
                let cfg = EpdConfig {
                    layer_norm,
                    message_steps,
                    ..config()
                };
                for batch_size in 1..=4 {
                    let seed = (message_steps * 10 + batch_size) as u64;
                    let mut store = ParamStore::new();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
                    // Cycle through the zoo so every graph shows up in
                    // several batch positions.
                    let members: Vec<&GraphStructure> = (0..batch_size)
                        .map(|_| {
                            next += 1;
                            &structures[next % structures.len()]
                        })
                        .collect();
                    let feats: Vec<GraphFeatures> = members
                        .iter()
                        .enumerate()
                        .map(|(i, s)| seeded_features(s, &cfg, seed * 100 + i as u64))
                        .collect();
                    let feat_refs: Vec<&GraphFeatures> = feats.iter().collect();
                    let batch = GraphBatch::new(&members);
                    let packed = batch.batch_features(&feat_refs);
                    let mut tape = Tape::new();
                    let out = net.forward_batched(&mut tape, &store, &batch, &packed);
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&net.eval(&store, &batch, &packed)),
                        bits(tape.value(out.edges)),
                        "layer_norm {layer_norm}, {message_steps} steps, batch {batch_size}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one graph")]
    fn empty_batch_is_rejected() {
        GraphBatch::new(&[]);
    }

    #[test]
    #[should_panic(expected = "node row mismatch")]
    fn mismatched_features_are_rejected() {
        let s = GraphStructure::from_graph(&zoo::abilene());
        let batch = GraphBatch::new(&[&s]);
        let cfg = config();
        let mut bad = seeded_features(&s, &cfg, 0);
        bad.nodes = Matrix::zeros(s.num_nodes + 1, cfg.node_in);
        batch.batch_features(&[&bad]);
    }
}
