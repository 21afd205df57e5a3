//! Layer building blocks: `Linear` and `Mlp`.
//!
//! The paper implements every learned function — the MLP baseline policy
//! and all six graph-network update/pooling functions — as multilayer
//! perceptrons; these two types cover all of them.
//!
//! Every layer has two passes. `forward` records on a [`Tape`] for
//! training. `eval` is the no-grad pass for inference: it works on plain
//! [`Matrix`] values and reads parameters by reference, but does each
//! element's arithmetic in the same order as the tape ops, so its
//! output is bitwise the tape's.

use gddr_rng::Rng;

use crate::init;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Activation functions supported by [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no activation).
    Linear,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Linear => x,
        }
    }

    /// Applies the activation in place, as [`Activation::apply`] would.
    pub(crate) fn eval(self, x: &mut Matrix) {
        let f: fn(f64) -> f64 = match self {
            Activation::Relu => |v| v.max(0.0),
            Activation::Tanh => f64::tanh,
            Activation::Linear => return,
        };
        for v in x.as_mut_slice() {
            *v = f(*v);
        }
    }
}

/// A fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer's parameters in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let bias = store.register(format!("{name}.bias"), crate::Matrix::zeros(1, out_dim));
        Linear {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass: `x` is n×in, result is n×out.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let xw = tape.matmul(x, w);
        tape.add_row_broadcast(xw, b)
    }

    /// No-grad [`Linear::forward`].
    pub fn eval(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let mut y = x.matmul(store.value(self.weight));
        y.add_row_assign(store.value(self.bias));
        y
    }
}

/// A multilayer perceptron with a shared hidden activation and a linear
/// output layer.
///
/// `sizes` lists the layer widths including input and output, e.g.
/// `&[4, 64, 64, 2]` builds two hidden layers of 64 units.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with linear output.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self::with_output_activation(store, name, sizes, activation, Activation::Linear, rng)
    }

    /// Builds an MLP with an explicit output activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn with_output_activation<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            activation,
            output_activation,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("MLP has layers").in_dim()
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("MLP has layers").out_dim()
    }

    /// Forward pass over the whole stack.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h);
            h = if i == last {
                self.output_activation.apply(tape, h)
            } else {
                self.activation.apply(tape, h)
            };
        }
        h
    }

    /// No-grad [`Mlp::forward`].
    pub fn eval(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.eval(store, h.as_ref().unwrap_or(x));
            if i == last {
                self.output_activation.eval(&mut y);
            } else {
                self.activation.eval(&mut y);
            }
            h = Some(y);
        }
        h.expect("MLP has layers")
    }
}

/// Layer normalisation over feature columns with learned gain and
/// bias: `y = (x − mean_row) / sqrt(var_row + ε) · g + b`.
///
/// The paper's graph_nets stack offers LayerNorm inside GN-block MLPs
/// as a stabiliser; provided here for the same purpose (optional in
/// the policies).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
    dim: usize,
    eps: f64,
}

impl LayerNorm {
    /// Registers gain (ones) and bias (zeros) parameters of width
    /// `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gain = store.register(format!("{name}.gain"), crate::Matrix::full(1, dim, 1.0));
        let bias = store.register(format!("{name}.bias"), crate::Matrix::zeros(1, dim));
        LayerNorm {
            gain,
            bias,
            dim,
            eps: 1e-5,
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Forward pass: normalises each row of the n×dim input.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from `dim`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let (_, d) = tape.value(x).shape();
        assert_eq!(d, self.dim, "layer-norm width mismatch");
        let inv_d = 1.0 / d as f64;
        // mean per row (n×1 → n×d).
        let row_sums = tape.row_sum(x);
        let mean_col = tape.scale(row_sums, inv_d);
        let mean = tape.broadcast_cols(mean_col, d);
        let centred = tape.sub(x, mean);
        // variance per row.
        let sq = tape.mul(centred, centred);
        let var_sums = tape.row_sum(sq);
        let var_col = tape.scale(var_sums, inv_d);
        let var_eps = tape.add_scalar(var_col, self.eps);
        // rsqrt via exp(-0.5 ln(v)).
        let log_v = tape.ln(var_eps);
        let neg_half_log = tape.scale(log_v, -0.5);
        let rstd_col = tape.exp(neg_half_log);
        let rstd = tape.broadcast_cols(rstd_col, d);
        let normed = tape.mul(centred, rstd);
        let g = tape.param(store, self.gain);
        let gb = tape.broadcast_rows(g, tape.value(normed).rows());
        let scaled = tape.mul(normed, gb);
        let b = tape.param(store, self.bias);
        tape.add_row_broadcast(scaled, b)
    }

    /// No-grad [`LayerNorm::forward`]: the same per-element operations,
    /// fused into one pass per row.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from `dim`.
    pub fn eval(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let (n, d) = x.shape();
        assert_eq!(d, self.dim, "layer-norm width mismatch");
        let inv_d = 1.0 / d as f64;
        let gain = store.value(self.gain).row(0);
        let bias = store.value(self.bias).row(0);
        let mut out = Matrix::zeros(n, d);
        for r in 0..n {
            let mean = x.row(r).iter().sum::<f64>() * inv_d;
            let y = out.row_mut(r);
            for (o, &v) in y.iter_mut().zip(x.row(r)) {
                *o = v - mean;
            }
            let var = y.iter().map(|&c| c * c).sum::<f64>() * inv_d;
            let rstd = ((var + self.eps).ln() * -0.5).exp();
            for ((o, &g), &b) in y.iter_mut().zip(gain).zip(bias) {
                *o = *o * rstd * g + b;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, "l", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(7, 3));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (7, 5));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn mlp_shapes_and_param_count() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut store, "m", &[4, 8, 8, 2], Activation::Tanh, &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        // 3 layers × (weight + bias).
        assert_eq!(store.len(), 6);
        assert_eq!(store.num_scalars(), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(5, 4));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 2));
    }

    #[test]
    fn mlp_can_fit_xor() {
        // End-to-end learning smoke test for the whole substrate.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = Mlp::new(&mut store, "xor", &[2, 8, 1], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = crate::optim::Adam::new(0.05);
        let mut final_loss = f64::INFINITY;
        for _ in 0..500 {
            let mut tape = Tape::new();
            let xs = tape.constant(x.clone());
            let ys = tape.constant(y.clone());
            let pred = mlp.forward(&mut tape, &store, xs);
            let diff = tape.sub(pred, ys);
            let sq = tape.mul(diff, diff);
            let loss = tape.mean_all(sq);
            final_loss = tape.value(loss).get(0, 0);
            store.zero_grads();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(final_loss < 0.01, "XOR did not converge: loss {final_loss}");
    }

    #[test]
    fn output_activation_is_applied() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::with_output_activation(
            &mut store,
            "m",
            &[2, 4, 3],
            Activation::Relu,
            Activation::Tanh,
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(1, 2, 10.0));
        let y = mlp.forward(&mut tape, &store, x);
        assert!(tape.value(y).as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn layer_norm_standardises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(
            2,
            4,
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 30.0, 30.0],
        ));
        let y = ln.forward(&mut tape, &store, x);
        let out = tape.value(y);
        for r in 0..2 {
            let mean: f64 = out.row(r).iter().sum::<f64>() / 4.0;
            let var: f64 = out.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-9, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_gradients_flow() {
        // Finite-difference check through the rsqrt composition.
        let mut store = ParamStore::new();
        let id = store.register(
            "x",
            Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.8, 0.1, 0.9, -0.4]),
        );
        let ln = LayerNorm::new(&mut store, "ln", 3);
        let build = |tape: &mut Tape, store: &ParamStore| {
            let x = tape.param(store, id);
            let y = ln.forward(tape, store, x);
            let sq = tape.mul(y, y);
            tape.sum_all(sq)
        };
        let mut tape = Tape::new();
        let loss = build(&mut tape, &store);
        store.zero_grads();
        tape.backward(loss, &mut store);
        let analytic = store.grad(id).clone();
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let orig = store.value(id).get(r, c);
                store.value_mut(id).set(r, c, orig + eps);
                let mut t1 = Tape::new();
                let l1 = build(&mut t1, &store);
                let f1 = t1.value(l1).get(0, 0);
                store.value_mut(id).set(r, c, orig - eps);
                let mut t2 = Tape::new();
                let l2 = build(&mut t2, &store);
                let f2 = t2.value(l2).get(0, 0);
                store.value_mut(id).set(r, c, orig);
                let numeric = (f1 - f2) / (2.0 * eps);
                assert!(
                    (analytic.get(r, c) - numeric).abs() < 1e-4,
                    "grad mismatch at ({r},{c}): {} vs {numeric}",
                    analytic.get(r, c)
                );
            }
        }
    }

    /// `eval` must reproduce the tape's values bit for bit.
    #[test]
    fn eval_matches_forward_bitwise() {
        use gddr_rng::Rng;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&mut store, "m", &[5, 9, 3], Activation::Relu, &mut rng);
        let tanh = Mlp::with_output_activation(
            &mut store,
            "t",
            &[5, 4, 5],
            Activation::Tanh,
            Activation::Tanh,
            &mut rng,
        );
        let ln = LayerNorm::new(&mut store, "ln", 5);
        // Non-trivial gain and bias so the affine step is exercised.
        let ids: Vec<ParamId> = store.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            for v in store.value_mut(id).as_mut_slice() {
                *v += rng.gen_range(-0.5..0.5);
            }
        }
        for rows in [1, 4, 13] {
            let x = Matrix::from_fn(rows, 5, |_, _| rng.gen_range(-2.0..2.0));
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let cases: [(Var, Matrix); 3] = [
                (mlp.forward(&mut tape, &store, xv), mlp.eval(&store, &x)),
                (tanh.forward(&mut tape, &store, xv), tanh.eval(&store, &x)),
                (ln.forward(&mut tape, &store, xv), ln.eval(&store, &x)),
            ];
            for (i, (var, eager)) in cases.iter().enumerate() {
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(tape.value(*var)), bits(eager), "case {i}, {rows} rows");
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn layer_norm_rejects_wrong_width() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(2, 3));
        ln.forward(&mut tape, &store, x);
    }

    #[test]
    #[should_panic(expected = "input and output")]
    fn mlp_rejects_single_size() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        Mlp::new(&mut store, "bad", &[4], Activation::Relu, &mut rng);
    }
}
