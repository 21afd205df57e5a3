//! Microbenchmark: encode-process-decode forward and backward passes
//! on Abilene-sized graphs, across message-passing step counts, plus
//! greedy batched inference on the tape and on the tape-free `eval`.

use gddr_bench::harness::BenchGroup;
use gddr_gnn::{EncodeProcessDecode, EpdConfig, GraphBatch, GraphFeatures, GraphStructure};
use gddr_net::topology::zoo;
use gddr_nn::{Matrix, ParamStore, Tape};
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;

fn main() {
    let g = zoo::abilene();
    let s = GraphStructure::from_graph(&g);
    let feats = GraphFeatures {
        nodes: Matrix::full(s.num_nodes, 10, 0.3),
        edges: Matrix::zeros(s.num_edges, 3),
        globals: Matrix::zeros(1, 1),
    };
    let mut group = BenchGroup::new("gnn_epd");
    for steps in [1usize, 3, 5] {
        let cfg = EpdConfig {
            node_in: 10,
            edge_in: 3,
            global_in: 1,
            node_out: 1,
            edge_out: 1,
            global_out: 1,
            latent: 16,
            hidden: 32,
            message_steps: steps,
            layer_norm: false,
        };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
        group.bench(&format!("forward/{steps}"), || {
            let mut tape = Tape::new();
            net.forward(&mut tape, &store, &s, &feats)
        });
        // Gradients land in a copy made once, outside the timed loop.
        let mut grads = store.clone();
        group.bench(&format!("forward_backward/{steps}"), || {
            let mut tape = Tape::new();
            let out = net.forward(&mut tape, &store, &s, &feats);
            let loss = tape.sum_all(out.edges);
            grads.zero_grads();
            tape.backward(loss, &mut grads);
        });
    }

    // Greedy serving's shape: the latent-8 policy the serving fleet runs
    // (m = 5 demand history, 2 steps, layer norm) on four coalesced
    // Abilene requests, through the tape and through `eval`.
    let cfg = EpdConfig {
        node_in: 10,
        edge_in: 3,
        global_in: 1,
        node_out: 1,
        edge_out: 1,
        global_out: 1,
        latent: 8,
        hidden: 16,
        message_steps: 2,
        layer_norm: true,
    };
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let net = EncodeProcessDecode::new(&mut store, "epd", &cfg, &mut rng);
    let batch = GraphBatch::new(&[&s, &s, &s, &s]);
    let packed = batch.batch_features(&[&feats, &feats, &feats, &feats]);
    group.bench("greedy_batch/4/tape", || {
        let mut tape = Tape::new();
        let out = net.forward_batched(&mut tape, &store, &batch, &packed);
        tape.value(out.edges).clone()
    });
    group.bench("greedy_batch/4/eval", || net.eval(&store, &batch, &packed));
    group.finish();
}
