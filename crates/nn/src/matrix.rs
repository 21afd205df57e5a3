//! Dense row-major `f64` matrix.
//!
//! All tensors in this reproduction are rank-2 (batch × features), which
//! is all the paper's MLPs and graph-network blocks require.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use gddr_ser::{json_struct, JsonError};

json_struct! {
    /// A dense row-major matrix of `f64`.
    #[derive(Clone, PartialEq)]
    pub struct Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    }
    validate = shape_fits
}

fn shape_fits(m: &Matrix) -> Result<(), JsonError> {
    let (rows, cols) = (m.rows, m.cols);
    if rows.checked_mul(cols) != Some(m.data.len()) {
        return Err(JsonError(format!(
            "matrix data length {} does not match shape {rows}x{cols}",
            m.data.len()
        )));
    }
    Ok(())
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// An n×1 column vector.
    pub fn column_vector(data: Vec<f64>) -> Self {
        let rows = data.len();
        Matrix {
            rows,
            cols: 1,
            data,
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dimensions must agree ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order for cache-friendly access of `other`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two equal-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip requires equal shapes");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add requires equal shapes");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element (negative infinity for an empty matrix).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Concatenates matrices horizontally (same row count).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `parts` is empty.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "need at least one part");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "all parts must have the same row count"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Concatenates matrices vertically (same column count) — the
    /// disjoint-union stacking used by graph batching.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or `parts` is empty.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "need at least one part");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "all parts must have the same column count"
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Copies rows `[start, end)` into a new matrix — the inverse of
    /// [`Matrix::concat_rows`] for one block.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "invalid row slice");
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Row lookup: `out[i] = self[indices[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        assert!(
            indices.iter().all(|&i| i < self.rows),
            "gather index out of range"
        );
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }

    /// Unsorted segment sum: row `r` is added into output row
    /// `segments[r]`, rows accumulating in order.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len() != rows` or a segment id is out of
    /// range.
    pub fn segment_sum(&self, segments: &[usize], num_segments: usize) -> Matrix {
        assert_eq!(segments.len(), self.rows, "one segment id per row");
        assert!(
            segments.iter().all(|&s| s < num_segments),
            "segment id out of range"
        );
        let mut out = Matrix::zeros(num_segments, self.cols);
        for (r, &s) in segments.iter().enumerate() {
            for (o, &x) in out.row_mut(s).iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Adds the 1×cols row vector `row` to every row, in place (bias
    /// add).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a 1×cols row vector.
    pub fn add_row_assign(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(self.cols, row.cols, "widths must match for broadcast");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
    }

    /// Whether all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    /// Element-wise (Hadamard) product; use [`Matrix::matmul`] for the
    /// matrix product.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::{FromJson, Json, ToJson};

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let mut m = m;
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert!((a.norm() - (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn finiteness_check() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        assert!(a.is_finite());
        let b = Matrix::from_vec(1, 2, vec![1.0, f64::NAN]);
        assert!(!b.is_finite());
    }

    /// Randomised algebraic identities, formerly proptest-based; now a
    /// seeded sweep so the cases are reproducible and dependency-free.
    mod property {
        use super::*;
        use gddr_rng::{Rng, SeedableRng, StdRng};

        fn matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-10.0..10.0))
        }

        const CASES: u64 = 32;

        #[test]
        fn matmul_associativity() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = matrix(2, 3, &mut rng);
                let b = matrix(3, 4, &mut rng);
                let c = matrix(4, 2, &mut rng);
                let left = a.matmul(&b).matmul(&c);
                let right = a.matmul(&b.matmul(&c));
                for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                    assert!((x - y).abs() < 1e-9, "seed {seed}");
                }
            }
        }

        #[test]
        fn transpose_reverses_matmul() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = matrix(2, 3, &mut rng);
                let b = matrix(3, 4, &mut rng);
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                assert_eq!(lhs.shape(), rhs.shape());
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    assert!((x - y).abs() < 1e-9, "seed {seed}");
                }
            }
        }

        #[test]
        fn scale_distributes_over_add() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = matrix(3, 3, &mut rng);
                let b = matrix(3, 3, &mut rng);
                let k = rng.gen_range(-5.0..5.0);
                let lhs = (&a + &b).scale(k);
                let rhs = &a.scale(k) + &b.scale(k);
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    assert!((x - y).abs() < 1e-9, "seed {seed}");
                }
            }
        }

        #[test]
        fn sum_equals_matmul_with_ones() {
            for seed in 0..CASES {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = matrix(3, 4, &mut rng);
                let ones_l = Matrix::full(1, 3, 1.0);
                let ones_r = Matrix::full(4, 1, 1.0);
                let total = ones_l.matmul(&a).matmul(&ones_r).get(0, 0);
                assert!((total - a.sum()).abs() < 1e-9, "seed {seed}");
            }
        }
    }

    #[test]
    fn json_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -2.5, 3.0, 0.0, 5.5, -6.0]);
        let text = m.to_json().to_string();
        let back = Matrix::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn json_rejects_bad_shape() {
        for bad in [
            r#"{"rows":2,"cols":2,"data":[1,2,3]}"#,
            // rows * cols overflows usize: must be an error, not a
            // multiply-overflow panic or a 2^64-entry matrix with no data.
            r#"{"rows":4294967296,"cols":4294967296,"data":[]}"#,
            r#"{"rows":9007199254740992,"cols":2048,"data":[]}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(Matrix::from_json(&json).is_err(), "{bad}");
        }
    }

    #[test]
    fn vectors() {
        let r = Matrix::row_vector(vec![1.0, 2.0]);
        assert_eq!(r.shape(), (1, 2));
        let c = Matrix::column_vector(vec![1.0, 2.0]);
        assert_eq!(c.shape(), (2, 1));
    }

    #[test]
    fn concat_rows_stacks_and_slice_rows_inverts() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(1, 2, vec![5.0, 6.0]);
        let stacked = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(stacked.shape(), (3, 2));
        assert_eq!(stacked.row(2), &[5.0, 6.0]);
        assert_eq!(stacked.slice_rows(0, 2), a);
        assert_eq!(stacked.slice_rows(2, 3), b);
        // Empty blocks are representable (a zero-node graph slice).
        assert_eq!(stacked.slice_rows(1, 1).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "same column count")]
    fn concat_rows_rejects_ragged_parts() {
        Matrix::concat_rows(&[&Matrix::zeros(1, 2), &Matrix::zeros(1, 3)]);
    }
}
