//! # gddr-gnn
//!
//! Graph network blocks in the formulation of Battaglia et al.
//! ("Relational inductive biases, deep learning, and graph networks"),
//! the GNN model the paper builds its policies on (§IV, §VII-A).
//!
//! A graph carries a global attribute vector `u`, per-vertex attribute
//! vectors `V`, and per-edge attribute vectors `E` with sender/receiver
//! indices. A full GN block applies three learned update functions
//! (φᵉ, φᵛ, φᵘ — all MLPs here, as in the paper) interleaved with three
//! sum-pooling aggregations ρ (the paper uses
//! `tf.unsorted_segment_sum`; here [`gddr_nn::Tape::segment_sum`]).
//!
//! [`EncodeProcessDecode`] composes an independent encoder, a number of
//! message-passing steps of a full [`GnBlock`] core (with the
//! encoded-input skip connection of the paper's Fig. 5), and an
//! independent decoder — exactly the paper's policy architecture.
//!
//! Both run over a block-diagonal [`GraphBatch`]; a one-graph
//! `forward` is a one-graph batch. `forward` records on a
//! [`gddr_nn::Tape`] for training; `eval` is the tape-free inference
//! pass, bitwise equal to the tape's values.
//!
//! # Example
//!
//! ```
//! use gddr_gnn::{EncodeProcessDecode, EpdConfig, GraphStructure, GraphFeatures};
//! use gddr_net::topology::zoo;
//! use gddr_nn::{Matrix, ParamStore, Tape};
//! use gddr_rng::SeedableRng;
//!
//! let g = zoo::abilene();
//! let structure = GraphStructure::from_graph(&g);
//! let mut store = ParamStore::new();
//! let mut rng = gddr_rng::rngs::StdRng::seed_from_u64(0);
//! let config = EpdConfig {
//!     node_in: 2, edge_in: 1, global_in: 1,
//!     node_out: 2, edge_out: 1, global_out: 2,
//!     latent: 8, hidden: 16, message_steps: 2, layer_norm: false,
//! };
//! let net = EncodeProcessDecode::new(&mut store, "epd", &config, &mut rng);
//! let mut tape = Tape::new();
//! let feats = GraphFeatures {
//!     nodes: Matrix::zeros(structure.num_nodes, 2),
//!     edges: Matrix::zeros(structure.num_edges, 1),
//!     globals: Matrix::zeros(1, 1),
//! };
//! let out = net.forward(&mut tape, &store, &structure, &feats);
//! assert_eq!(tape.value(out.edges).shape(), (structure.num_edges, 1));
//! assert_eq!(tape.value(out.globals).shape(), (1, 2));
//!
//! // Inference without a tape: the decoded edges, bit for bit.
//! let batch = gddr_gnn::GraphBatch::new(&[&structure]);
//! assert_eq!(&net.eval(&store, &batch, &feats), tape.value(out.edges));
//! ```

pub mod batch;
pub mod block;
pub mod graphs;

pub use batch::GraphBatch;
pub use block::{GnBlock, GnBlockConfig, GraphVars};
pub use graphs::{EncodeProcessDecode, EpdConfig, GraphFeatures, GraphStructure};
