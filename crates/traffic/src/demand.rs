//! The demand matrix (DM) type.

use std::fmt;

use gddr_ser::{json_struct, JsonError};

json_struct! {
    /// A traffic demand matrix `D ∈ R^{|V|×|V|}` where `D[s][t]` is the
    /// demand from source `s` to destination `t` (paper §IV-A).
    ///
    /// The diagonal is always zero: a node sends no traffic to itself.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DemandMatrix {
        n: usize,
        data: Vec<f64>,
    }
    validate = shape_fits
}

fn shape_fits(dm: &DemandMatrix) -> Result<(), JsonError> {
    let n = dm.n;
    if n.checked_mul(n) != Some(dm.data.len()) {
        return Err(JsonError(format!(
            "demand matrix data length {} does not match {n}x{n}",
            dm.data.len()
        )));
    }
    Ok(())
}

impl DemandMatrix {
    /// An all-zero demand matrix for `n` nodes.
    pub fn zeros(n: usize) -> Self {
        DemandMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds a DM from a closure over `(src, dst)`; the diagonal is
    /// forced to zero and negative demands are clamped to zero.
    ///
    /// # Non-finite values
    ///
    /// The clamp is `f(s, t).max(0.0)`, which has two deliberate edge
    /// behaviours:
    ///
    /// - **NaN is clamped to zero** ([`f64::max`] returns the other
    ///   operand when one side is NaN), so a NaN demand is
    ///   unconstructible in-tree — neither `from_fn` nor the asserting
    ///   [`DemandMatrix::set`] can produce one, and downstream code
    ///   (LP oracle, softmin routing, reward) may assume NaN-free
    ///   matrices.
    /// - **`f64::INFINITY` passes through.** An infinite demand is the
    ///   repo's convention for a deliberately malformed matrix: the
    ///   serving layer's admission validation rejects it with a typed
    ///   error, and the chaos scenarios use exactly this constructor
    ///   to build their `malformed` inputs. Producers of real traffic
    ///   (everything in [`crate::gen`], [`crate::sequence`] and
    ///   [`crate::scenario`]) only ever emit finite demands.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut dm = DemandMatrix::zeros(n);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    dm.data[s * n + t] = f(s, t).max(0.0);
                }
            }
        }
        dm
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Demand from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.data[src * self.n + dst]
    }

    /// Sets the demand from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if out of range, on the diagonal, or for a negative /
    /// non-finite demand.
    pub fn set(&mut self, src: usize, dst: usize, demand: f64) {
        assert!(src < self.n && dst < self.n, "index out of range");
        assert_ne!(src, dst, "diagonal demands must stay zero");
        assert!(
            demand.is_finite() && demand >= 0.0,
            "demand must be finite and non-negative"
        );
        self.data[src * self.n + dst] = demand;
    }

    /// Total outgoing demand of node `v`: `Σ_j D[v][j]` (first element
    /// of the paper's Eq. 4 per-node aggregation).
    pub fn out_sum(&self, v: usize) -> f64 {
        (0..self.n).map(|j| self.get(v, j)).sum()
    }

    /// Total incoming demand of node `v`: `Σ_j D[j][v]` (second element
    /// of Eq. 4).
    pub fn in_sum(&self, v: usize) -> f64 {
        (0..self.n).map(|j| self.get(j, v)).sum()
    }

    /// Sum of all demands.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest single demand.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Iterates over the non-zero `(src, dst, demand)` commodities.
    pub fn commodities(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |s| {
            (0..self.n).filter_map(move |t| {
                let d = self.get(s, t);
                (d > 0.0).then_some((s, t, d))
            })
        })
    }

    /// Row-major flattened view (length `n²`), as consumed by the MLP
    /// policy's observation.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Returns a copy scaled by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        DemandMatrix {
            n: self.n,
            data: self.data.iter().map(|d| d * factor).collect(),
        }
    }

    /// A stable 64-bit fingerprint of the matrix contents, used to key
    /// the LP-oracle cache.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the bit patterns.
        let mut h: u64 = 0xcbf29ce484222325;
        h ^= self.n as u64;
        h = h.wrapping_mul(0x100000001b3);
        for d in &self.data {
            for b in d.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

impl fmt::Display for DemandMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DemandMatrix({} nodes, total {:.1})",
            self.n,
            self.total()
        )?;
        for s in 0..self.n {
            for t in 0..self.n {
                write!(f, "{:8.1} ", self.get(s, t))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::{FromJson, Json};

    #[test]
    fn json_rejects_bad_shape() {
        for bad in [
            r#"{"n":2,"data":[0,1,2]}"#,
            // n * n overflows usize: an error, not a panic or an empty
            // 2^32-node matrix.
            r#"{"n":4294967296,"data":[]}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(DemandMatrix::from_json(&json).is_err(), "{bad}");
        }
    }

    #[test]
    fn zeros_and_set_get() {
        let mut dm = DemandMatrix::zeros(3);
        assert_eq!(dm.total(), 0.0);
        dm.set(0, 1, 5.0);
        dm.set(1, 2, 3.0);
        assert_eq!(dm.get(0, 1), 5.0);
        assert_eq!(dm.total(), 8.0);
        assert_eq!(dm.max(), 5.0);
    }

    #[test]
    fn from_fn_zeroes_diagonal_and_clamps() {
        let dm = DemandMatrix::from_fn(3, |s, t| if s == 0 && t == 1 { -4.0 } else { 1.0 });
        assert_eq!(dm.get(0, 0), 0.0);
        assert_eq!(dm.get(1, 1), 0.0);
        assert_eq!(dm.get(0, 1), 0.0); // clamped
        assert_eq!(dm.get(2, 1), 1.0);
    }

    #[test]
    fn from_fn_clamps_nan_but_passes_infinity() {
        // The documented convention: NaN is unconstructible (clamped
        // to zero), while +inf passes through as the deliberate
        // malformed-matrix marker the chaos scenarios rely on.
        let dm = DemandMatrix::from_fn(3, |s, t| match (s, t) {
            (0, 1) => f64::NAN,
            (1, 2) => f64::INFINITY,
            (2, 0) => f64::NEG_INFINITY,
            _ => 1.0,
        });
        assert_eq!(dm.get(0, 1), 0.0, "NaN clamps to zero");
        assert_eq!(dm.get(1, 2), f64::INFINITY, "+inf passes through");
        assert_eq!(dm.get(2, 0), 0.0, "-inf clamps like any negative");
        assert!(dm.as_flat().iter().all(|d| !d.is_nan()));
    }

    #[test]
    fn in_out_sums() {
        let mut dm = DemandMatrix::zeros(3);
        dm.set(0, 1, 2.0);
        dm.set(0, 2, 3.0);
        dm.set(1, 0, 7.0);
        assert_eq!(dm.out_sum(0), 5.0);
        assert_eq!(dm.in_sum(0), 7.0);
        assert_eq!(dm.in_sum(2), 3.0);
    }

    #[test]
    fn commodities_iteration() {
        let mut dm = DemandMatrix::zeros(3);
        dm.set(0, 2, 4.0);
        dm.set(2, 1, 6.0);
        let c: Vec<_> = dm.commodities().collect();
        assert_eq!(c, vec![(0, 2, 4.0), (2, 1, 6.0)]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_diagonal_panics() {
        let mut dm = DemandMatrix::zeros(2);
        dm.set(1, 1, 1.0);
    }

    #[test]
    fn scaled_copy() {
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 2.0);
        let dm2 = dm.scaled(2.5);
        assert_eq!(dm2.get(0, 1), 5.0);
        assert_eq!(dm.get(0, 1), 2.0);
    }

    #[test]
    fn fingerprint_distinguishes_and_is_stable() {
        let mut a = DemandMatrix::zeros(3);
        a.set(0, 1, 1.0);
        let mut b = DemandMatrix::zeros(3);
        b.set(0, 1, 1.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set(0, 1, 1.0000001);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn display_contains_total() {
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 2.0);
        assert!(dm.to_string().contains("total 2.0"));
    }
}
