//! Eager reverse-mode automatic differentiation.
//!
//! A [`Tape`] is built per forward pass (define-by-run, as in the
//! TensorFlow-eager style the paper's stack uses). Each operation
//! computes its value immediately and records enough information for
//! the backward sweep. [`Tape::backward`] then accumulates parameter
//! gradients into a [`ParamStore`].
//!
//! The op set is exactly what the GDDR policies need, including the
//! graph-network primitives `gather_rows` (edge ← node feature lookup)
//! and `segment_sum` (the paper's `tf.unsorted_segment_sum` pooling).

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Constant,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRowBroadcast(Var, Var),
    BroadcastRows(Var),
    Scale(Var, f64),
    AddScalar(Var),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    Ln(Var),
    SumAll(Var),
    MeanAll(Var),
    RowSum(Var),
    ConcatCols(Vec<Var>),
    GatherRows(Var, Vec<usize>),
    SegmentSum(Var, Vec<usize>),
    SliceCols(Var, usize),
    Min(Var, Var),
    Clamp(Var, f64, f64),
    Reshape(Var),
    BroadcastCols(Var),
}

struct Node {
    op: Op,
    value: Matrix,
    needs_grad: bool,
}

/// A reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix, needs_grad: bool) -> Var {
        let id = self.nodes.len();
        self.nodes.push(Node {
            op,
            value,
            needs_grad,
        });
        Var(id)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Records a constant (no gradient flows into it).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Constant, value, false)
    }

    /// Records a leaf bound to a trainable parameter; its gradient is
    /// accumulated into the store on [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(Op::Param(id), store.value(id).clone(), true)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MatMul(a, b), value, ng)
    }

    /// Element-wise addition of equal-shaped variables.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a) + self.value(b);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Add(a, b), value, ng)
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a) - self.value(b);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Sub(a, b), value, ng)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a) * self.value(b);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Mul(a, b), value, ng)
    }

    /// Adds a 1×d row vector to every row of an n×d matrix (bias add).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not 1×d or widths mismatch.
    pub fn add_row_broadcast(&mut self, x: Var, row: Var) -> Var {
        let mut out = self.value(x).clone();
        out.add_row_assign(self.value(row));
        let ng = self.needs(x) || self.needs(row);
        self.push(Op::AddRowBroadcast(x, row), out, ng)
    }

    /// Replicates a 1×d row vector into n rows.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a row vector.
    pub fn broadcast_rows(&mut self, x: Var, n: usize) -> Var {
        let xm = self.value(x);
        assert_eq!(xm.rows(), 1, "can only broadcast a row vector");
        let row = xm.row(0).to_vec();
        let out = Matrix::from_fn(n, row.len(), |_, c| row[c]);
        let ng = self.needs(x);
        self.push(Op::BroadcastRows(x), out, ng)
    }

    /// Multiplies by a constant scalar.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        let value = self.value(a).scale(s);
        let ng = self.needs(a);
        self.push(Op::Scale(a, s), value, ng)
    }

    /// Adds a constant scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        let value = self.value(a).map(|x| x + s);
        let ng = self.needs(a);
        self.push(Op::AddScalar(a), value, ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(Op::Relu(a), value, ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f64::tanh);
        let ng = self.needs(a);
        self.push(Op::Tanh(a), value, ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.needs(a);
        self.push(Op::Sigmoid(a), value, ng)
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f64::exp);
        let ng = self.needs(a);
        self.push(Op::Exp(a), value, ng)
    }

    /// Element-wise natural logarithm.
    ///
    /// # Panics
    ///
    /// Debug-asserts that all inputs are positive.
    pub fn ln(&mut self, a: Var) -> Var {
        debug_assert!(
            self.value(a).as_slice().iter().all(|&x| x > 0.0),
            "ln requires positive inputs"
        );
        let value = self.value(a).map(f64::ln);
        let ng = self.needs(a);
        self.push(Op::Ln(a), value, ng)
    }

    /// Sum of all elements → 1×1.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let ng = self.needs(a);
        self.push(Op::SumAll(a), value, ng)
    }

    /// Mean of all elements → 1×1.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        let ng = self.needs(a);
        self.push(Op::MeanAll(a), value, ng)
    }

    /// Per-row sum: n×d → n×1.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let am = self.value(a);
        let value = Matrix::from_fn(am.rows(), 1, |r, _| am.row(r).iter().sum());
        let ng = self.needs(a);
        self.push(Op::RowSum(a), value, ng)
    }

    /// Horizontal concatenation of equal-row-count variables.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::concat_cols(&mats);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(Op::ConcatCols(parts.to_vec()), value, ng)
    }

    /// Row lookup: `out[i] = x[indices[i]]`. Gradient scatter-adds.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, x: Var, indices: &[usize]) -> Var {
        let value = self.value(x).gather_rows(indices);
        let ng = self.needs(x);
        self.push(Op::GatherRows(x, indices.to_vec()), value, ng)
    }

    /// Unsorted segment sum: rows of `x` are summed into
    /// `num_segments` buckets given by `segments` (the paper's
    /// `tf.unsorted_segment_sum` ρ pooling).
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != x.rows()` or a segment id is out of
    /// range.
    pub fn segment_sum(&mut self, x: Var, segments: &[usize], num_segments: usize) -> Var {
        let value = self.value(x).segment_sum(segments, num_segments);
        let ng = self.needs(x);
        self.push(Op::SegmentSum(x, segments.to_vec()), value, ng)
    }

    /// Column slice `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        let xm = self.value(x);
        assert!(start < end && end <= xm.cols(), "invalid column slice");
        let value = Matrix::from_fn(xm.rows(), end - start, |r, c| xm.get(r, start + c));
        let ng = self.needs(x);
        self.push(Op::SliceCols(x, start), value, ng)
    }

    /// Element-wise minimum of two equal-shaped variables. The gradient
    /// follows the smaller operand (the first on exact ties), the
    /// standard subgradient choice used by PPO's clipped objective.
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), f64::min);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Min(a, b), value, ng)
    }

    /// Clamps every element into `[lo, hi]`; the gradient passes
    /// through only where the input is strictly inside the interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&mut self, a: Var, lo: f64, hi: f64) -> Var {
        assert!(lo <= hi, "clamp interval must be ordered");
        let value = self.value(a).map(|x| x.clamp(lo, hi));
        let ng = self.needs(a);
        self.push(Op::Clamp(a, lo, hi), value, ng)
    }

    /// Replicates an n×1 column vector into n×d.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a column vector.
    pub fn broadcast_cols(&mut self, x: Var, d: usize) -> Var {
        let xm = self.value(x);
        assert_eq!(xm.cols(), 1, "can only broadcast a column vector");
        let out = Matrix::from_fn(xm.rows(), d, |r, _| xm.get(r, 0));
        let ng = self.needs(x);
        self.push(Op::BroadcastCols(x), out, ng)
    }

    /// Reinterprets a variable's data with a new shape (row-major
    /// element order preserved). The gradient reshapes back.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let am = self.value(a);
        assert_eq!(am.len(), rows * cols, "reshape must preserve element count");
        let value = Matrix::from_vec(rows, cols, am.as_slice().to_vec());
        let ng = self.needs(a);
        self.push(Op::Reshape(a), value, ng)
    }

    /// Runs the backward sweep from `loss` (must be 1×1) and accumulates
    /// parameter gradients into `store`. Gradients from successive
    /// `backward` calls add up until [`ParamStore::zero_grads`].
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a 1×1 variable.
    pub fn backward(&self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "loss must be a scalar (1x1)"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        let add_grad =
            |grads: &mut Vec<Option<Matrix>>, v: Var, delta: Matrix| match &mut grads[v.0] {
                Some(g) => g.add_assign(&delta),
                slot => *slot = Some(delta),
            };

        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[i].op {
                Op::Constant => {}
                Op::Param(id) => store.accumulate_grad(*id, &g),
                Op::MatMul(a, b) => {
                    if self.needs(*a) {
                        let delta = g.matmul(&self.value(*b).transpose());
                        add_grad(&mut grads, *a, delta);
                    }
                    if self.needs(*b) {
                        let delta = self.value(*a).transpose().matmul(&g);
                        add_grad(&mut grads, *b, delta);
                    }
                }
                Op::Add(a, b) => {
                    if self.needs(*a) {
                        add_grad(&mut grads, *a, g.clone());
                    }
                    if self.needs(*b) {
                        add_grad(&mut grads, *b, g);
                    }
                }
                Op::Sub(a, b) => {
                    if self.needs(*a) {
                        add_grad(&mut grads, *a, g.clone());
                    }
                    if self.needs(*b) {
                        add_grad(&mut grads, *b, g.scale(-1.0));
                    }
                }
                Op::Mul(a, b) => {
                    if self.needs(*a) {
                        add_grad(&mut grads, *a, &g * self.value(*b));
                    }
                    if self.needs(*b) {
                        add_grad(&mut grads, *b, &g * self.value(*a));
                    }
                }
                Op::AddRowBroadcast(x, row) => {
                    if self.needs(*x) {
                        add_grad(&mut grads, *x, g.clone());
                    }
                    if self.needs(*row) {
                        let mut rg = Matrix::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for c in 0..g.cols() {
                                let v = rg.get(0, c) + g.get(r, c);
                                rg.set(0, c, v);
                            }
                        }
                        add_grad(&mut grads, *row, rg);
                    }
                }
                Op::BroadcastRows(x) => {
                    let mut rg = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            let v = rg.get(0, c) + g.get(r, c);
                            rg.set(0, c, v);
                        }
                    }
                    add_grad(&mut grads, *x, rg);
                }
                Op::Scale(a, s) => add_grad(&mut grads, *a, g.scale(*s)),
                Op::AddScalar(a) => add_grad(&mut grads, *a, g),
                Op::Relu(a) => {
                    let mask = self.value(*a).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                    add_grad(&mut grads, *a, &g * &mask);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let d = y.map(|t| 1.0 - t * t);
                    add_grad(&mut grads, *a, &g * &d);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let d = y.map(|s| s * (1.0 - s));
                    add_grad(&mut grads, *a, &g * &d);
                }
                Op::Exp(a) => {
                    let y = &self.nodes[i].value;
                    add_grad(&mut grads, *a, &g * y);
                }
                Op::Ln(a) => {
                    let d = self.value(*a).map(|x| 1.0 / x);
                    add_grad(&mut grads, *a, &g * &d);
                }
                Op::SumAll(a) => {
                    let am = self.value(*a);
                    add_grad(
                        &mut grads,
                        *a,
                        Matrix::full(am.rows(), am.cols(), g.get(0, 0)),
                    );
                }
                Op::MeanAll(a) => {
                    let am = self.value(*a);
                    let s = g.get(0, 0) / am.len() as f64;
                    add_grad(&mut grads, *a, Matrix::full(am.rows(), am.cols(), s));
                }
                Op::RowSum(a) => {
                    let am = self.value(*a);
                    let delta = Matrix::from_fn(am.rows(), am.cols(), |r, _| g.get(r, 0));
                    add_grad(&mut grads, *a, delta);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let pc = self.value(p).cols();
                        if self.needs(p) {
                            let delta = Matrix::from_fn(g.rows(), pc, |r, c| g.get(r, offset + c));
                            add_grad(&mut grads, p, delta);
                        }
                        offset += pc;
                    }
                }
                Op::GatherRows(x, indices) => {
                    let xm = self.value(*x);
                    let mut delta = Matrix::zeros(xm.rows(), xm.cols());
                    for (r, &idx) in indices.iter().enumerate() {
                        for c in 0..g.cols() {
                            let v = delta.get(idx, c) + g.get(r, c);
                            delta.set(idx, c, v);
                        }
                    }
                    add_grad(&mut grads, *x, delta);
                }
                Op::SegmentSum(x, segments) => {
                    let xm = self.value(*x);
                    let delta = Matrix::from_fn(xm.rows(), xm.cols(), |r, c| g.get(segments[r], c));
                    add_grad(&mut grads, *x, delta);
                }
                Op::Min(a, b) => {
                    let am = self.value(*a);
                    let bm = self.value(*b);
                    if self.needs(*a) {
                        let mask = am.zip(bm, |x, y| if x <= y { 1.0 } else { 0.0 });
                        add_grad(&mut grads, *a, &g * &mask);
                    }
                    if self.needs(*b) {
                        let mask = am.zip(bm, |x, y| if x <= y { 0.0 } else { 1.0 });
                        add_grad(&mut grads, *b, &g * &mask);
                    }
                }
                Op::Clamp(a, lo, hi) => {
                    let mask = self
                        .value(*a)
                        .map(|x| if x > *lo && x < *hi { 1.0 } else { 0.0 });
                    add_grad(&mut grads, *a, &g * &mask);
                }
                Op::Reshape(a) => {
                    let (r, c) = self.value(*a).shape();
                    let delta = Matrix::from_vec(r, c, g.as_slice().to_vec());
                    add_grad(&mut grads, *a, delta);
                }
                Op::BroadcastCols(a) => {
                    let mut delta = Matrix::zeros(g.rows(), 1);
                    for r in 0..g.rows() {
                        let sum: f64 = g.row(r).iter().sum();
                        delta.set(r, 0, sum);
                    }
                    add_grad(&mut grads, *a, delta);
                }
                Op::SliceCols(x, start) => {
                    let xm = self.value(*x);
                    let mut delta = Matrix::zeros(xm.rows(), xm.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            delta.set(r, start + c, g.get(r, c));
                        }
                    }
                    add_grad(&mut grads, *x, delta);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of d(loss)/d(param) for a scalar-valued
    /// builder function.
    fn grad_check(
        build: impl Fn(&mut Tape, &ParamStore) -> Var,
        store: &mut ParamStore,
        id: ParamId,
    ) {
        let mut tape = Tape::new();
        let loss = build(&mut tape, store);
        store.zero_grads();
        tape.backward(loss, store);
        let analytic = store.grad(id).clone();
        let eps = 1e-6;
        let (rows, cols) = store.value(id).shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(id).get(r, c);
                store.value_mut(id).set(r, c, orig + eps);
                let mut t1 = Tape::new();
                let l1 = build(&mut t1, store);
                let f1 = t1.value(l1).get(0, 0);
                store.value_mut(id).set(r, c, orig - eps);
                let mut t2 = Tape::new();
                let l2 = build(&mut t2, store);
                let f2 = t2.value(l2).get(0, 0);
                store.value_mut(id).set(r, c, orig);
                let numeric = (f1 - f2) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 1e-4 * (1.0 + a.abs().max(numeric.abs())),
                    "grad mismatch at ({r},{c}): analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn store_with(name: &str, m: Matrix) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.register(name, m);
        (s, id)
    }

    #[test]
    fn matmul_grad() {
        let (mut s, id) = store_with(
            "w",
            Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.2, 0.7, 0.3, -0.1]),
        );
        grad_check(
            |t, s| {
                let x = t.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]));
                let w = t.param(s, ParamId(0));
                let y = t.matmul(x, w);
                t.sum_all(y)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn activation_grads() {
        let (mut s, id) = store_with("w", Matrix::from_vec(1, 4, vec![0.3, -0.8, 1.2, 0.05]));
        grad_check(
            |t, s| {
                let w = t.param(s, ParamId(0));
                let a = t.tanh(w);
                let b = t.sigmoid(a);
                let c = t.relu(b);
                let d = t.exp(c);
                t.mean_all(d)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn relu_grad_at_negative_is_zero() {
        let mut s = ParamStore::new();
        let id = s.register("w", Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let mut tape = Tape::new();
        let w = tape.param(&s, id);
        let y = tape.relu(w);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut s);
        assert_eq!(s.grad(id).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn broadcast_and_bias_grads() {
        let (mut s, id) = store_with("b", Matrix::row_vector(vec![0.2, -0.3]));
        grad_check(
            |t, s| {
                let x = t.constant(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
                let b = t.param(s, ParamId(0));
                let y = t.add_row_broadcast(x, b);
                let z = t.tanh(y);
                t.sum_all(z)
            },
            &mut s,
            id,
        );
        grad_check(
            |t, s| {
                let b = t.param(s, ParamId(0));
                let y = t.broadcast_rows(b, 4);
                let z = t.mul(y, y);
                t.sum_all(z)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn gather_and_segment_grads() {
        let (mut s, id) = store_with(
            "x",
            Matrix::from_vec(3, 2, vec![0.5, -0.2, 0.8, 0.1, -0.6, 0.9]),
        );
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let g = t.gather_rows(x, &[2, 0, 2, 1]);
                let seg = t.segment_sum(g, &[0, 1, 0, 1], 2);
                let sq = t.mul(seg, seg);
                t.sum_all(sq)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn concat_slice_reduction_grads() {
        let (mut s, id) = store_with("x", Matrix::from_vec(2, 2, vec![0.5, -0.2, 0.8, 0.1]));
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let c = t.concat_cols(&[x, x]);
                let sl = t.slice_cols(c, 1, 3);
                let rs = t.row_sum(sl);
                t.sum_all(rs)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn ln_and_scale_grads() {
        let (mut s, id) = store_with("x", Matrix::from_vec(1, 3, vec![0.5, 1.5, 2.5]));
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let y = t.ln(x);
                let z = t.scale(y, 3.0);
                let w = t.add_scalar(z, 1.0);
                t.mean_all(w)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn sub_and_mul_grads() {
        let (mut s, id) = store_with("x", Matrix::from_vec(1, 2, vec![0.7, -0.4]));
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let c = t.constant(Matrix::from_vec(1, 2, vec![0.2, 0.3]));
                let d = t.sub(x, c);
                let e = t.mul(d, x);
                t.sum_all(e)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn min_and_clamp_grads() {
        let (mut s, id) = store_with("x", Matrix::from_vec(1, 4, vec![0.2, 0.9, -0.5, 1.7]));
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let c = t.constant(Matrix::from_vec(1, 4, vec![0.5, 0.5, 0.5, 0.5]));
                let m = t.min_elem(x, c);
                let cl = t.clamp(m, -0.3, 0.8);
                let sq = t.mul(cl, cl);
                t.sum_all(sq)
            },
            &mut s,
            id,
        );
    }

    #[test]
    fn min_elem_values() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
        let b = tape.constant(Matrix::from_vec(1, 2, vec![0.5, 3.0]));
        let m = tape.min_elem(a, b);
        assert_eq!(tape.value(m).as_slice(), &[0.5, -2.0]);
    }

    #[test]
    fn clamp_values() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_vec(1, 3, vec![-5.0, 0.3, 5.0]));
        let c = tape.clamp(a, 0.0, 1.0);
        assert_eq!(tape.value(c).as_slice(), &[0.0, 0.3, 1.0]);
    }

    #[test]
    fn broadcast_cols_grad() {
        let (mut s, id) = store_with("x", Matrix::from_vec(3, 1, vec![0.2, -0.5, 1.1]));
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let b = t.broadcast_cols(x, 4);
                let sq = t.mul(b, b);
                t.sum_all(sq)
            },
            &mut s,
            id,
        );
        let mut tape = Tape::new();
        let x = tape.param(&s, id);
        let b = tape.broadcast_cols(x, 2);
        assert_eq!(tape.value(b).shape(), (3, 2));
        assert_eq!(tape.value(b).get(1, 1), -0.5);
    }

    #[test]
    fn reshape_grad() {
        let (mut s, id) = store_with(
            "x",
            Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        );
        grad_check(
            |t, s| {
                let x = t.param(s, ParamId(0));
                let r = t.reshape(x, 3, 2);
                let sq = t.mul(r, r);
                t.sum_all(sq)
            },
            &mut s,
            id,
        );
        let mut tape = Tape::new();
        let x = tape.param(&s, id);
        let r = tape.reshape(x, 1, 6);
        assert_eq!(tape.value(r).shape(), (1, 6));
        assert_eq!(tape.value(r).as_slice(), tape.value(x).as_slice());
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut s = ParamStore::new();
        let id = s.register("w", Matrix::from_vec(1, 1, vec![2.0]));
        for _ in 0..2 {
            let mut tape = Tape::new();
            let w = tape.param(&s, id);
            let y = tape.mul(w, w);
            let loss = tape.sum_all(y);
            tape.backward(loss, &mut s);
        }
        // d(w^2)/dw = 2w = 4, twice.
        assert_eq!(s.grad(id).get(0, 0), 8.0);
    }

    #[test]
    fn constants_receive_no_grad_work() {
        let mut s = ParamStore::new();
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::full(2, 2, 1.0));
        let b = tape.mul(a, a);
        let loss = tape.sum_all(b);
        tape.backward(loss, &mut s); // must not panic with zero params
        assert!(s.is_empty());
    }

    /// Randomised algebraic identities, formerly proptest-based; now
    /// deterministic seeded loops over `gddr-rng` draws.
    mod property {
        use super::*;
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};

        const CASES: u64 = 32;

        fn uniform_vec(rng: &mut StdRng, len: usize, range: std::ops::Range<f64>) -> Vec<f64> {
            (0..len).map(|_| rng.gen_range(range.clone())).collect()
        }

        /// Algebraic identity: segment-sum with identity segments is
        /// the identity, and gather after it reproduces the input.
        #[test]
        fn segment_identity() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let data = uniform_vec(&mut rng, 6, -5.0..5.0);
                let mut tape = Tape::new();
                let x = tape.constant(Matrix::from_vec(3, 2, data.clone()));
                let seg = tape.segment_sum(x, &[0, 1, 2], 3);
                assert_eq!(tape.value(seg).as_slice(), &data[..]);
                let gathered = tape.gather_rows(seg, &[0, 1, 2]);
                assert_eq!(tape.value(gathered).as_slice(), &data[..]);
            }
        }

        /// sum(concat(a, b)) == sum(a) + sum(b).
        #[test]
        fn sum_distributes_over_concat() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = uniform_vec(&mut rng, 4, -5.0..5.0);
                let b = uniform_vec(&mut rng, 6, -5.0..5.0);
                let mut tape = Tape::new();
                let va = tape.constant(Matrix::from_vec(2, 2, a.clone()));
                let vb = tape.constant(Matrix::from_vec(2, 3, b.clone()));
                let c = tape.concat_cols(&[va, vb]);
                let total = tape.sum_all(c);
                let expected: f64 = a.iter().chain(&b).sum();
                assert!((tape.value(total).get(0, 0) - expected).abs() < 1e-9);
            }
        }

        /// Linearity of the gradient: scaling the loss scales every
        /// parameter gradient.
        #[test]
        fn gradient_is_linear_in_loss_scale() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let w = uniform_vec(&mut rng, 4, -2.0..2.0);
                let k = rng.gen_range(0.5..4.0);
                let mut store = ParamStore::new();
                let id = store.register("w", Matrix::from_vec(2, 2, w));
                let run = |scale: f64, store: &mut ParamStore| {
                    let mut tape = Tape::new();
                    let v = tape.param(store, id);
                    let t = tape.tanh(v);
                    let s = tape.sum_all(t);
                    let l = tape.scale(s, scale);
                    store.zero_grads();
                    tape.backward(l, store);
                    store.grad(id).clone()
                };
                let g1 = run(1.0, &mut store);
                let gk = run(k, &mut store);
                for (a, b) in g1.as_slice().iter().zip(gk.as_slice()) {
                    assert!((a * k - b).abs() < 1e-9);
                }
            }
        }

        /// relu(x) + relu(-x) == |x| elementwise.
        #[test]
        fn relu_absolute_value_identity() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let data = uniform_vec(&mut rng, 8, -5.0..5.0);
                let mut tape = Tape::new();
                let x = tape.constant(Matrix::from_vec(2, 4, data.clone()));
                let neg = tape.scale(x, -1.0);
                let rp = tape.relu(x);
                let rn = tape.relu(neg);
                let abs = tape.add(rp, rn);
                for (v, d) in tape.value(abs).as_slice().iter().zip(&data) {
                    assert!((v - d.abs()).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut s = ParamStore::new();
        let id = s.register("w", Matrix::zeros(2, 2));
        let mut tape = Tape::new();
        let w = tape.param(&s, id);
        tape.backward(w, &mut s);
    }
}
