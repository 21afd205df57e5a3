//! Two-phase dense primal simplex, plus a revised dual simplex that
//! re-solves a program under a new right-hand side.
//!
//! [`solve`] handles `min cᵀx  s.t.  Aᵢx {≤,=,≥} bᵢ, x ≥ 0` on a dense
//! tableau. Pivoting uses Dantzig's rule (most negative reduced cost)
//! and falls back to Bland's rule once the iteration count suggests
//! cycling, which guarantees termination. The pivot kernel is
//! sparse-row: it touches only the pivot row's nonzero columns, and
//! every nonzero entry comes out bit-identical to the textbook dense
//! update.
//!
//! [`solve_with_basis`] also hands back the optimal [`Basis`]: the basic
//! column per row, `B⁻¹` and the reduced costs. Since `A` and `c` fix
//! dual feasibility, that basis stays dual-feasible for *any*
//! right-hand side, and [`resolve`] restores primal feasibility with
//! dual-simplex pivots on an explicit `B⁻¹` — usually a few dozen where
//! a cold solve takes hundreds.
//!
//! This is deliberately a textbook implementation: the multicommodity
//! LPs in this reproduction have at most a few thousand variables, where
//! a dense tableau is simple and predictable, and its answers are easy
//! to validate against invariants (see the `mcf` tests).

use std::fmt;

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `≤ b`
    Le,
    /// `= b`
    Eq,
    /// `≥ b`
    Ge,
}

/// A sparse constraint row: terms, relation and right-hand side.
type ConstraintRow = (Vec<(usize, f64)>, Relation, f64);

/// A linear program in `min cᵀx` form with non-negative variables.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<ConstraintRow>,
}

/// An optimal solution, including the solver-effort diagnostics that
/// telemetry and error reporting share (one source of truth for pivot
/// accounting).
#[derive(Debug, Clone)]
pub struct Solution {
    /// The optimal objective value.
    pub objective: f64,
    /// The optimal assignment, one entry per variable.
    pub x: Vec<f64>,
    /// Dual multipliers, one per constraint row (in `add_constraint`
    /// order), under the convention for `min cᵀx, x ≥ 0`: `y ≤ 0` on
    /// `≤` rows, `y ≥ 0` on `≥` rows, free on `=` rows, with
    /// `cᵀx = bᵀy` at the optimum. Read off the final reduced costs of
    /// each row's slack/artificial column, so an external certificate
    /// checker can verify optimality without trusting the pivot path.
    pub duals: Vec<f64>,
    /// Total pivot operations across both phases (including basis
    /// repair after phase 1).
    pub pivots: usize,
    /// Pivot iterations spent in phase 1 (artificial elimination).
    pub phase1_pivots: usize,
    /// Pivot iterations spent in phase 2 (the real objective).
    pub phase2_pivots: usize,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The pivot limit was exceeded — either the built-in anti-cycling
    /// safety net or an explicit [`SolveOptions::max_pivots`] budget.
    /// Carries the pivot count at abort so diagnostics report the
    /// actual effort spent.
    PivotLimit {
        /// Pivots executed before giving up.
        pivots: usize,
    },
    /// The program itself is malformed (e.g. a non-finite objective
    /// coefficient) — retrying cannot help.
    InvalidInput(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::PivotLimit { pivots } => {
                write!(f, "simplex pivot limit exceeded after {pivots} pivots")
            }
            LpError::InvalidInput(m) => write!(f, "invalid linear program: {m}"),
        }
    }
}

/// Tuning knobs for [`solve_with`], used by the oracle's fallback
/// ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveOptions {
    /// Use Bland's anti-cycling rule from the first pivot instead of
    /// switching over only after Dantzig stalls. Slower on benign
    /// problems, immune to cycling.
    pub bland_from_start: bool,
    /// Hard pivot budget across both phases; `None` uses the built-in
    /// safety net. `Some(0)` fails every solve — the fault-injection
    /// hook used by robustness tests.
    pub max_pivots: Option<usize>,
}

impl std::error::Error for LpError {}

impl LinearProgram {
    /// Creates a program over `num_vars` non-negative variables with a
    /// zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the minimisation objective coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the variable count.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.num_vars, "objective length mismatch");
        self.objective = c.to_vec();
    }

    /// Sets a single objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "variable out of range");
        self.objective[var] = coeff;
    }

    /// Adds a sparse constraint `Σ coeff·x_var  rel  rhs`.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is out of range or a
    /// coefficient is non-finite.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], rel: Relation, rhs: f64) {
        assert!(
            terms
                .iter()
                .all(|&(v, c)| v < self.num_vars && c.is_finite()),
            "constraint references invalid variable or coefficient"
        );
        assert!(rhs.is_finite(), "rhs must be finite");
        self.constraints.push((terms.to_vec(), rel, rhs));
    }

    /// The minimisation objective coefficients, one per variable.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Iterates the constraint rows as `(terms, relation, rhs)` — the
    /// read side of [`add_constraint`](Self::add_constraint), used by
    /// external certificate checkers.
    pub fn constraints(&self) -> impl Iterator<Item = (&[(usize, f64)], Relation, f64)> {
        self.constraints
            .iter()
            .map(|(terms, rel, rhs)| (terms.as_slice(), *rel, *rhs))
    }
}

const EPS: f64 = 1e-9;

/// Dense simplex tableau with an explicit basis.
struct Tableau {
    /// rows × cols coefficient matrix (cols excludes the RHS).
    a: Vec<Vec<f64>>,
    /// Right-hand sides (kept non-negative).
    b: Vec<f64>,
    /// Objective row (reduced costs), length cols.
    c: Vec<f64>,
    /// Objective constant (negated running objective value).
    obj: f64,
    /// Basis: which column is basic in each row.
    basis: Vec<usize>,
    cols: usize,
    /// Scratch: the pivot row's nonzero columns, reused across pivots.
    nonzeros: Vec<usize>,
}

#[cfg(test)]
thread_local! {
    /// Routes [`Tableau::pivot`] through the dense reference kernel, so
    /// tests can compare whole solves against it.
    static DENSE_PIVOTS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every tableau pivot on this thread going through the
/// dense reference kernel.
#[cfg(test)]
pub(crate) fn with_dense_pivots<R>(f: impl FnOnce() -> R) -> R {
    DENSE_PIVOTS.with(|d| d.set(true));
    let out = f();
    DENSE_PIVOTS.with(|d| d.set(false));
    out
}

impl Tableau {
    /// Sparse-row pivot: scales the pivot row, collects its nonzero
    /// columns once, and updates only those columns in rows whose
    /// factor is nonzero. Each updated entry sees the same `a − p·f`
    /// as the dense loop and skipped entries would only lose `±0`, so
    /// every nonzero entry is bit-identical to the dense update. The
    /// objective row stays dense.
    fn pivot(&mut self, row: usize, col: usize) {
        #[cfg(test)]
        if DENSE_PIVOTS.with(std::cell::Cell::get) {
            return self.pivot_dense(row, col);
        }
        let pivot_val = self.a[row][col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on a ~zero element");
        let inv = 1.0 / pivot_val;
        let mut pivot_row = std::mem::take(&mut self.a[row]);
        let mut nonzeros = std::mem::take(&mut self.nonzeros);
        nonzeros.clear();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            *v *= inv;
            if *v != 0.0 {
                nonzeros.push(j);
            }
        }
        self.b[row] *= inv;
        let b_row = self.b[row];
        for (r, a_r) in self.a.iter_mut().enumerate() {
            // The pivot row itself is taken out (empty) here.
            if r == row {
                continue;
            }
            let factor = a_r[col];
            if factor != 0.0 {
                for &j in &nonzeros {
                    a_r[j] -= pivot_row[j] * factor;
                }
                self.b[r] -= b_row * factor;
            }
        }
        self.a[row] = pivot_row;
        self.nonzeros = nonzeros;
        self.update_objective_row(row, col);
    }

    /// The textbook dense pivot, kept as the reference the sparse
    /// kernel is tested against.
    #[cfg(test)]
    fn pivot_dense(&mut self, row: usize, col: usize) {
        let pivot_val = self.a[row][col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on a ~zero element");
        let inv = 1.0 / pivot_val;
        for v in &mut self.a[row] {
            *v *= inv;
        }
        self.b[row] *= inv;
        for r in 0..self.a.len() {
            if r != row {
                let factor = self.a[r][col];
                if factor != 0.0 {
                    for cidx in 0..self.cols {
                        let d = self.a[row][cidx] * factor;
                        self.a[r][cidx] -= d;
                    }
                    self.b[r] -= self.b[row] * factor;
                }
            }
        }
        self.update_objective_row(row, col);
    }

    /// Prices the (already scaled) pivot row out of the objective row
    /// and records the new basic column.
    fn update_objective_row(&mut self, row: usize, col: usize) {
        let factor = self.c[col];
        if factor != 0.0 {
            for cidx in 0..self.cols {
                self.c[cidx] -= self.a[row][cidx] * factor;
            }
            self.obj -= self.b[row] * factor;
        }
        self.basis[row] = col;
    }

    /// Runs the simplex method on the current (feasible) tableau,
    /// returning the number of pivots performed. `allowed` restricts
    /// entering columns (used to ban artificials in phase 2);
    /// `max_pivots` is the remaining budget for this run when an
    /// explicit [`SolveOptions::max_pivots`] is in force.
    fn run(
        &mut self,
        allowed: &[bool],
        bland_from_start: bool,
        max_pivots: Option<usize>,
    ) -> Result<usize, LpError> {
        let m = self.a.len();
        // Generous limit: Bland's rule guarantees finite termination; the
        // cap is a safety net against numerical pathologies.
        let max_iters = max_pivots.unwrap_or(50 * (m + self.cols) + 10_000);
        let bland_after = 5 * (m + self.cols) + 1_000;
        for iter in 0..max_iters {
            let use_bland = bland_from_start || iter > bland_after;
            // Choose entering column.
            let mut entering = None;
            if use_bland {
                entering = (0..self.cols).find(|&j| allowed[j] && self.c[j] < -EPS);
            } else {
                let mut best = -EPS;
                for (j, (&ok, &cost)) in allowed.iter().zip(&self.c).enumerate() {
                    if ok && cost < best {
                        best = cost;
                        entering = Some(j);
                    }
                }
            }
            let Some(col) = entering else {
                return Ok(iter); // Optimal.
            };
            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = self.a[r][col];
                if a > EPS {
                    let ratio = self.b[r] / a;
                    let better = match leaving {
                        None => true,
                        Some(prev) => {
                            ratio < best_ratio - EPS
                                || (ratio < best_ratio + EPS && self.basis[r] < self.basis[prev])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        leaving = Some(r);
                    }
                }
            }
            let Some(row) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(LpError::PivotLimit { pivots: max_iters })
    }
}

/// Solves the linear program with default options.
///
/// Emits telemetry when enabled: an `lp.simplex.solve` span, the
/// `lp.simplex.pivots` counter and a `lp.simplex.pivots_per_solve`
/// histogram observation.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] or [`LpError::Unbounded`] as
/// appropriate; [`LpError::PivotLimit`] is a safety net that should
/// not occur in practice; [`LpError::InvalidInput`] flags a non-finite
/// objective.
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    solve_with(lp, &SolveOptions::default())
}

/// Solves the linear program under explicit [`SolveOptions`] — the
/// entry point of the oracle's retry ladder (Dantzig, then Bland from
/// the first pivot).
///
/// # Errors
///
/// As [`solve`], plus [`LpError::PivotLimit`] whenever an explicit
/// `max_pivots` budget runs out.
pub fn solve_with(lp: &LinearProgram, opts: &SolveOptions) -> Result<Solution, LpError> {
    solve_tableau(lp, opts).map(|(sol, _, _)| sol)
}

/// [`solve_with`], also handing back the optimal [`Basis`] so later
/// right-hand sides can be [`resolve`]d from it.
///
/// # Errors
///
/// As [`solve_with`], plus [`LpError::InvalidInput`] when a redundant
/// row kept an artificial column basic: such a tableau row was zeroed,
/// so it carries no `B⁻¹` to re-solve from.
pub fn solve_with_basis(
    lp: &LinearProgram,
    opts: &SolveOptions,
) -> Result<(Solution, Basis), LpError> {
    let (sol, t, layout) = solve_tableau(lp, opts)?;
    let basis = Basis::from_tableau(lp, t, layout)?;
    Ok((sol, basis))
}

/// Where the cold solver put each row's extra columns.
#[derive(Debug, Clone)]
struct Layout {
    /// Per row: the `b ≥ 0` normalisation sign.
    row_sign: Vec<f64>,
    /// Per row: the column holding its `+1` unit coefficient (slack or
    /// artificial).
    row_unit: Vec<usize>,
    /// Per row: the surplus column of a (normalised) `≥` row.
    row_surplus: Vec<Option<usize>>,
    /// First artificial column; every later column is artificial.
    first_artificial: usize,
}

/// The two-phase cold solve, returning the final tableau and its column
/// layout beside the solution.
fn solve_tableau(
    lp: &LinearProgram,
    opts: &SolveOptions,
) -> Result<(Solution, Tableau, Layout), LpError> {
    let _span = gddr_telemetry::span("lp.simplex.solve");
    if let Some(bad) = lp.objective.iter().find(|c| !c.is_finite()) {
        return Err(LpError::InvalidInput(format!(
            "non-finite objective coefficient {bad}"
        )));
    }
    let n = lp.num_vars;
    let m = lp.constraints.len();

    // Column layout: [original n] [one slack/surplus per Le/Ge row]
    // [one artificial per row that needs one].
    let mut num_slack = 0;
    for (_, rel, _) in &lp.constraints {
        if *rel != Relation::Eq {
            num_slack += 1;
        }
    }
    // Worst case every row needs an artificial.
    let cols = n + num_slack + m;
    let mut a = vec![vec![0.0; cols]; m];
    let mut b = vec![0.0; m];
    let mut basis = vec![usize::MAX; m];
    let mut artificials = Vec::new();

    // Per row: the column holding its +1 unit coefficient (slack or
    // artificial) and the normalisation sign. The final reduced cost of
    // that column is `-λ_r`, giving the dual of the normalised row;
    // multiplying by the sign recovers the dual of the original row.
    let mut layout = Layout {
        row_sign: vec![1.0; m],
        row_unit: vec![usize::MAX; m],
        row_surplus: vec![None; m],
        first_artificial: n + num_slack,
    };

    let mut slack_idx = n;
    let mut art_idx = n + num_slack;
    for (r, (terms, rel, rhs)) in lp.constraints.iter().enumerate() {
        // Normalise to b >= 0.
        let flip = *rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        layout.row_sign[r] = sign;
        for &(v, coeff) in terms {
            a[r][v] += sign * coeff;
        }
        b[r] = sign * rhs;
        let rel = if flip {
            match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            }
        } else {
            *rel
        };
        match rel {
            Relation::Le => {
                a[r][slack_idx] = 1.0;
                basis[r] = slack_idx; // Slack starts basic.
                layout.row_unit[r] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                a[r][slack_idx] = -1.0; // Surplus.
                layout.row_surplus[r] = Some(slack_idx);
                slack_idx += 1;
                a[r][art_idx] = 1.0;
                basis[r] = art_idx;
                layout.row_unit[r] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                a[r][art_idx] = 1.0;
                basis[r] = art_idx;
                layout.row_unit[r] = art_idx;
                artificials.push(art_idx);
                art_idx += 1;
            }
        }
    }
    let used_cols = art_idx;
    for row in &mut a {
        row.truncate(used_cols);
    }

    let mut t = Tableau {
        a,
        b,
        c: vec![0.0; used_cols],
        obj: 0.0,
        basis,
        cols: used_cols,
        nonzeros: Vec::new(),
    };

    // Phase 1: minimise the sum of artificials.
    let mut phase1_pivots = 0;
    if !artificials.is_empty() {
        for &j in &artificials {
            t.c[j] = 1.0;
        }
        // Price out the basic artificials so reduced costs start
        // consistent with the basis.
        for r in 0..m {
            if artificials.contains(&t.basis[r]) {
                for j in 0..t.cols {
                    t.c[j] -= t.a[r][j];
                }
                t.obj -= t.b[r];
            }
        }
        let allowed = vec![true; t.cols];
        phase1_pivots += t.run(&allowed, opts.bland_from_start, opts.max_pivots)?;
        let phase1_obj = -t.obj;
        if phase1_obj > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive any remaining basic artificials out of the basis.
        for r in 0..m {
            if artificials.contains(&t.basis[r]) {
                let mut swapped = false;
                for j in 0..n + num_slack {
                    if t.a[r][j].abs() > EPS {
                        t.pivot(r, j);
                        phase1_pivots += 1;
                        swapped = true;
                        break;
                    }
                }
                if !swapped {
                    // Row is redundant; zero it so it cannot interfere.
                    for j in 0..t.cols {
                        t.a[r][j] = 0.0;
                    }
                    t.b[r] = 0.0;
                }
            }
        }
    }

    // Phase 2: restore the real objective, priced out w.r.t. the basis.
    t.c = vec![0.0; t.cols];
    t.obj = 0.0;
    for j in 0..n {
        t.c[j] = lp.objective[j];
    }
    for r in 0..m {
        let bj = t.basis[r];
        if bj != usize::MAX && t.c[bj].abs() > 0.0 {
            let factor = t.c[bj];
            for j in 0..t.cols {
                t.c[j] -= t.a[r][j] * factor;
            }
            t.obj -= t.b[r] * factor;
        }
    }
    let mut allowed = vec![true; t.cols];
    for &j in &artificials {
        allowed[j] = false;
    }
    let phase2_budget = opts.max_pivots.map(|m| m.saturating_sub(phase1_pivots));
    let phase2_pivots = t
        .run(&allowed, opts.bland_from_start, phase2_budget)
        .map_err(|e| match e {
            LpError::PivotLimit { pivots } => LpError::PivotLimit {
                pivots: pivots + phase1_pivots,
            },
            other => other,
        })?;

    let mut x = vec![0.0; n];
    for r in 0..m {
        let bj = t.basis[r];
        if bj < n {
            x[bj] = t.b[r];
        }
    }
    let objective = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    // Dual extraction: the tableau maintains the invariant
    // c_final = c_orig − λᵀA over every column, and each row's unit
    // column has c_orig = 0 and A-column e_r, so c_final[unit_r] = −λ_r.
    // Undo the b ≥ 0 normalisation to get the original row's dual.
    let duals = layout.duals(&t.c);
    let sol = Solution {
        objective,
        x,
        duals,
        pivots: phase1_pivots + phase2_pivots,
        phase1_pivots,
        phase2_pivots,
    };
    record_solve(sol.pivots);
    Ok((sol, t, layout))
}

impl Layout {
    /// Original-row duals from final reduced costs over every column.
    fn duals(&self, reduced: &[f64]) -> Vec<f64> {
        self.row_sign
            .iter()
            .zip(&self.row_unit)
            .map(|(sign, &unit)| sign * -reduced[unit])
            .collect()
    }
}

/// The per-solve telemetry both solvers emit.
fn record_solve(pivots: usize) {
    gddr_telemetry::counter_add("lp.simplex.solves", 1);
    gddr_telemetry::counter_add("lp.simplex.pivots", pivots as u64);
    gddr_telemetry::histogram_record("lp.simplex.pivots_per_solve", pivots as u64);
}

/// The optimal basis of a cold solve: the basic column per row, `B⁻¹`
/// and the reduced costs, plus the normalised constraint matrix by
/// column. Everything [`resolve`] needs to re-solve the same `A` and `c`
/// under a new right-hand side, and nothing that depends on the old one.
#[derive(Clone)]
pub struct Basis {
    /// Objective over the original variables.
    objective: Vec<f64>,
    /// Normalised `A` over every internal column (originals, slacks and
    /// surpluses, artificials) in compressed-column form: column `j`
    /// holds `(col_row[k], col_val[k])` for `k` in
    /// `col_start[j]..col_start[j + 1]`.
    col_start: Vec<usize>,
    col_row: Vec<usize>,
    col_val: Vec<f64>,
    /// Row normalisation and unit columns, frozen at the cold solve.
    layout: Layout,
    /// Basic column per row.
    basic: Vec<usize>,
    /// `B⁻¹` by row. Row vectors rather than one rows² block: every
    /// allocation stays small, so re-solves that copy and drop `B⁻¹`
    /// never push the allocator onto its large-block path, which would
    /// leave each thread's heap holding the freed blocks.
    b_inv: Vec<Vec<f64>>,
    /// Dual steepest-edge weights: the squared norm of each `B⁻¹` row.
    weights: Vec<f64>,
    /// Reduced costs per internal column (non-negative on every column
    /// that may enter: the basis is dual-feasible).
    reduced: Vec<f64>,
}

/// A summary: the rows² inverse is too large to print usefully.
impl fmt::Debug for Basis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Basis")
            .field("rows", &self.basic.len())
            .field("columns", &self.reduced.len())
            .finish_non_exhaustive()
    }
}

impl Basis {
    /// Reads the basis off a final phase-2 tableau. Column `r` of `B⁻¹`
    /// is the tableau column of row `r`'s unit column (its original
    /// column is `e_r`). The tableau is consumed row by row, so `B⁻¹`
    /// never coexists with a full copy of it.
    fn from_tableau(lp: &LinearProgram, t: Tableau, layout: Layout) -> Result<Basis, LpError> {
        if t.basis.iter().any(|&j| j >= layout.first_artificial) {
            return Err(LpError::InvalidInput(
                "a redundant row keeps an artificial basic: no basis to re-solve from".into(),
            ));
        }
        // Same coefficients as the tableau build, duplicates summed.
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); t.cols];
        for (r, (terms, _, _)) in lp.constraints.iter().enumerate() {
            let sign = layout.row_sign[r];
            for &(v, coeff) in terms {
                match columns[v].last_mut() {
                    Some((row, value)) if *row == r => *value += sign * coeff,
                    _ => columns[v].push((r, sign * coeff)),
                }
            }
            if let Some(surplus) = layout.row_surplus[r] {
                columns[surplus].push((r, -1.0));
            }
            columns[layout.row_unit[r]].push((r, 1.0));
        }
        let mut col_start = Vec::with_capacity(t.cols + 1);
        col_start.push(0);
        let (mut col_row, mut col_val) = (Vec::new(), Vec::new());
        for column in columns {
            for (r, v) in column {
                col_row.push(r);
                col_val.push(v);
            }
            col_start.push(col_row.len());
        }
        let b_inv: Vec<Vec<f64>> =
            t.a.into_iter()
                .map(|row| layout.row_unit.iter().map(|&unit| row[unit]).collect())
                .collect();
        let weights = b_inv
            .iter()
            .map(|row| row.iter().map(|v| v * v).sum::<f64>().max(EPS))
            .collect();
        Ok(Basis {
            objective: lp.objective.clone(),
            col_start,
            col_row,
            col_val,
            layout,
            basic: t.basis,
            b_inv,
            weights,
            reduced: t.c,
        })
    }

    /// Number of constraint rows: the right-hand-side length
    /// [`resolve`] expects.
    pub fn num_rows(&self) -> usize {
        self.basic.len()
    }

    /// `ρ · A_j` for the dense row vector `rho`.
    fn row_times_column(&self, rho: &[f64], j: usize) -> f64 {
        let span = self.col_start[j]..self.col_start[j + 1];
        self.col_row[span.clone()]
            .iter()
            .zip(&self.col_val[span])
            .map(|(&r, &v)| rho[r] * v)
            .sum()
    }
}

/// `row -= factor · p`, returning the pre-update `row · p`. Four
/// independent accumulators let the loop vectorise; their fixed
/// combination order keeps the result deterministic.
fn axpy_dot(row: &mut [f64], p: &[f64], factor: f64) -> f64 {
    let mut acc = [0.0; 4];
    let mut rows = row.chunks_exact_mut(4);
    let ps = p.chunks_exact(4);
    let p_tail = ps.remainder();
    for (a, b) in (&mut rows).zip(ps) {
        for l in 0..4 {
            let old = a[l];
            acc[l] += old * b[l];
            a[l] = old - factor * b[l];
        }
    }
    let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (a, &b) in rows.into_remainder().iter_mut().zip(p_tail) {
        dot += *a * b;
        *a -= factor * b;
    }
    dot
}

/// Re-solves the program `basis` came from under the new right-hand
/// side `rhs` (one entry per constraint, in `add_constraint` order),
/// with a revised dual simplex on an explicit `B⁻¹`.
///
/// The start is dual-feasible because `A` and `c` are unchanged, so
/// only primal feasibility needs restoring: `x_B = B⁻¹b`, then each
/// pivot takes out the most negative basic value measured in dual
/// steepest-edge terms, `x_r² / ‖e_rᵀB⁻¹‖²` (lowest row on ties), and
/// brings in the column minimising `d_j / |α_j|` (lowest column on
/// ties). The row norms are exact at the start and updated with each
/// pivot; against the plain most-negative rule they cut the dual pivots
/// on nsfnet-sized graphs about threefold. With
/// [`SolveOptions::bland_from_start`], or after as many pivots as the
/// cold solver tolerates before switching, the leaving row is the
/// infeasible one with the lowest basic column instead — the dual Bland
/// rule. [`SolveOptions::max_pivots`] caps the pivots with the same
/// safety net as the cold solver.
///
/// The answer, duals included, is a pure function of `basis` and `rhs`,
/// and it emits the cold solver's telemetry (an `lp.simplex.solve`
/// span, `lp.simplex.solves` and `lp.simplex.pivots`).
///
/// # Errors
///
/// [`LpError::InvalidInput`] on a wrong-length or non-finite `rhs`;
/// [`LpError::Infeasible`] when no column can restore a row;
/// [`LpError::PivotLimit`] when the pivot budget runs out or a pivot
/// element loses its accuracy — a cold [`solve_with`] is the remedy.
pub fn resolve(basis: &Basis, rhs: &[f64], opts: &SolveOptions) -> Result<Solution, LpError> {
    let _span = gddr_telemetry::span("lp.simplex.solve");
    let m = basis.num_rows();
    if rhs.len() != m {
        return Err(LpError::InvalidInput(format!(
            "{} right-hand sides for {m} constraints",
            rhs.len()
        )));
    }
    if let Some(bad) = rhs.iter().find(|v| !v.is_finite()) {
        return Err(LpError::InvalidInput(format!("non-finite rhs {bad}")));
    }
    let cols = basis.reduced.len();
    let art = basis.layout.first_artificial;
    // Stay in the basis' normalised frame: a row flipped for the cold
    // solve stays flipped, since the dual simplex needs no `b ≥ 0`.
    let b: Vec<(usize, f64)> = rhs
        .iter()
        .zip(&basis.layout.row_sign)
        .map(|(v, sign)| sign * v)
        .enumerate()
        .filter(|&(_, v)| v != 0.0)
        .collect();
    let feasibility_tol = EPS * (1.0 + b.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs())));

    let mut b_inv = basis.b_inv.clone();
    let mut weights = basis.weights.clone();
    let mut basic = basis.basic.clone();
    let mut d = basis.reduced.clone();
    let mut is_basic = vec![false; cols];
    for &j in &basic {
        is_basic[j] = true;
    }
    let mut x_b: Vec<f64> = b_inv
        .iter()
        .map(|row| b.iter().map(|&(k, v)| row[k] * v).sum())
        .collect();

    let max_iters = opts.max_pivots.unwrap_or(50 * (m + cols) + 10_000);
    let bland_after = 5 * (m + cols) + 1_000;
    let mut alpha_row = vec![0.0; cols];
    let mut alpha_col = vec![0.0; m];
    let mut pivot_row = vec![0.0; m];
    let mut optimal = false;
    let mut pivots = 0;
    while pivots < max_iters {
        // Leaving row: a basic variable below zero.
        let use_bland = opts.bland_from_start || pivots > bland_after;
        let mut leaving: Option<usize> = None;
        let mut best_score = 0.0;
        for (r, &v) in x_b.iter().enumerate() {
            if v < -feasibility_tol {
                let score = v * v / weights[r];
                let better = match leaving {
                    None => true,
                    Some(l) if use_bland => basic[r] < basic[l],
                    Some(_) => score > best_score,
                };
                if better {
                    leaving = Some(r);
                    best_score = score;
                }
            }
        }
        let Some(r) = leaving else {
            optimal = true;
            break;
        };

        // Pivot row α = (row r of B⁻¹)·A over the nonbasic columns, and
        // the dual ratio test over those that may enter.
        let rho = &b_inv[r];
        let mut entering: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for j in 0..cols {
            if is_basic[j] {
                continue;
            }
            let a = basis.row_times_column(rho, j);
            alpha_row[j] = a;
            if j < art && a < -EPS {
                let ratio = d[j].max(0.0) / -a;
                if ratio < best_ratio {
                    best_ratio = ratio;
                    entering = Some(j);
                }
            }
        }
        let Some(q) = entering else {
            return Err(LpError::Infeasible);
        };

        // Entering column α_q = B⁻¹ A_q; its row-r entry must agree with
        // the pivot row's, or B⁻¹ has drifted too far to trust.
        let span = basis.col_start[q]..basis.col_start[q + 1];
        for (a, row) in alpha_col.iter_mut().zip(&b_inv) {
            *a = basis.col_row[span.clone()]
                .iter()
                .zip(&basis.col_val[span.clone()])
                .map(|(&k, &v)| row[k] * v)
                .sum();
        }
        let pivot = alpha_col[r];
        if (pivot - alpha_row[q]).abs() > 1e-7 * (1.0 + alpha_row[q].abs()) {
            return Err(LpError::PivotLimit { pivots });
        }

        // Dual update: the entering column's reduced cost drops to zero
        // and the leaving column's becomes −θ_d ≥ 0.
        let theta_d = d[q] / alpha_row[q];
        for j in 0..cols {
            if !is_basic[j] && alpha_row[j] != 0.0 {
                d[j] -= theta_d * alpha_row[j];
            }
        }
        let leaving_col = basic[r];
        d[q] = 0.0;
        d[leaving_col] = -theta_d;

        // Primal update.
        let theta_p = x_b[r] / pivot;
        for (i, (x, &a)) in x_b.iter_mut().zip(&alpha_col).enumerate() {
            if i != r && a != 0.0 {
                *x -= theta_p * a;
            }
        }
        x_b[r] = theta_p;

        // B⁻¹ update: row i becomes ρ_i − α_i·p for the scaled pivot row
        // p, so its squared norm becomes w_i − 2α_i(ρ_i·p) + α_i²‖p‖²,
        // the dot taken in the same pass. B⁻¹ of these bases is mostly
        // dense, so the rows are swept whole; a nonzero-index walk like
        // the cold kernel's measured no faster.
        let inv = 1.0 / pivot;
        for (v, p) in b_inv[r].iter_mut().zip(&mut pivot_row) {
            *v *= inv;
            *p = *v;
        }
        let p_norm: f64 = pivot_row.iter().map(|v| v * v).sum();
        for (i, (row, w)) in b_inv.iter_mut().zip(&mut weights).enumerate() {
            let factor = alpha_col[i];
            if i == r || factor == 0.0 {
                continue;
            }
            let dot = axpy_dot(row, &pivot_row, factor);
            *w = (*w - 2.0 * factor * dot + factor * factor * p_norm).max(EPS);
        }
        weights[r] = p_norm.max(EPS);

        is_basic[leaving_col] = false;
        is_basic[q] = true;
        basic[r] = q;
        pivots += 1;
    }
    if !optimal {
        return Err(LpError::PivotLimit { pivots });
    }

    let mut x = vec![0.0; basis.objective.len()];
    for (&j, &v) in basic.iter().zip(&x_b) {
        if j < x.len() {
            x[j] = v;
        }
    }
    let objective = basis.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    let sol = Solution {
        objective,
        x,
        duals: basis.layout.duals(&d),
        pivots,
        phase1_pivots: 0,
        phase2_pivots: pivots,
    };
    record_solve(pivots);
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn simple_maximisation() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, -36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 10, x - y = 2 → x=6, y=4.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 6.0);
        assert_close(sol.x[1], 4.0);
        assert_close(sol.objective, 14.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → x=4 (y=0) cost 8? No:
        // cost(4,0)=8, cost(1,3)=11 → optimum x=4,y=0.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[2.0, 3.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 8.0);
        assert_close(sol.x[0], 4.0);
    }

    #[test]
    fn pivot_counts_are_recorded_and_bounded() {
        // The classic 3-constraint max problem: a textbook run takes a
        // handful of pivots; the recorded counts must reflect that and
        // agree across fields.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.pivots, sol.phase1_pivots + sol.phase2_pivots);
        // All-Le rows start from a feasible slack basis: no phase 1.
        assert_eq!(sol.phase1_pivots, 0);
        assert!(sol.phase2_pivots > 0, "a pivot is needed to improve");
        assert!(
            sol.pivots <= 10,
            "small LP should solve in few pivots, took {}",
            sol.pivots
        );
    }

    #[test]
    fn equality_constraints_report_phase1_effort() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 2.0);
        let sol = solve(&lp).unwrap();
        assert!(sol.phase1_pivots > 0, "artificials must be pivoted out");
        assert!(sol.pivots <= 20, "took {}", sol.pivots);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        assert!(matches!(solve(&lp), Err(LpError::Infeasible)));
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[-1.0]); // max x with no upper bound.
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 0.0);
        assert!(matches!(solve(&lp), Err(LpError::Unbounded)));
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // x >= 2 written as -x <= -2.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, -1.0)], Relation::Le, -2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-style degeneracy magnet; mostly checks we do not
        // cycle forever.
        let n = 6;
        let mut lp = LinearProgram::new(n);
        let obj: Vec<f64> = (0..n).map(|i| -(2f64.powi((n - 1 - i) as i32))).collect();
        lp.set_objective(&obj);
        for i in 0..n {
            let mut terms: Vec<(usize, f64)> =
                (0..i).map(|j| (j, 2f64.powi((i - j + 1) as i32))).collect();
            terms.push((i, 1.0));
            lp.add_constraint(&terms, Relation::Le, 5f64.powi(i as i32 + 1));
        }
        let sol = solve(&lp).unwrap();
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0] + sol.x[1], 5.0);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 4 twice (redundant) plus x - y = 0 → x = y = 2.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 0.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn bland_from_start_agrees_with_dantzig() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let dantzig = solve(&lp).unwrap();
        let bland = solve_with(
            &lp,
            &SolveOptions {
                bland_from_start: true,
                max_pivots: None,
            },
        )
        .unwrap();
        assert_close(dantzig.objective, bland.objective);
    }

    #[test]
    fn zero_pivot_budget_forces_pivot_limit() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        let err = solve_with(
            &lp,
            &SolveOptions {
                bland_from_start: false,
                max_pivots: Some(0),
            },
        )
        .unwrap_err();
        assert_eq!(err, LpError::PivotLimit { pivots: 0 });
    }

    #[test]
    fn nonfinite_objective_is_invalid_input() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[f64::NAN]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        assert!(matches!(solve(&lp), Err(LpError::InvalidInput(_))));
    }

    /// Deterministic seeded stress on degenerate, cycling-prone
    /// programs: duplicated constraint rows, zero-cost columns and
    /// zero right-hand sides. The contract is termination with `Ok` or
    /// a typed error — never a panic, never a hang.
    #[test]
    fn degenerate_stress_terminates_without_panicking() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..6usize);
            let mut lp = LinearProgram::new(n);
            // Zero-cost columns: roughly half the objective is zero.
            let obj: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0u8..2) == 0 {
                        0.0
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            lp.set_objective(&obj);
            let n_rows = rng.gen_range(1..4usize);
            for _ in 0..n_rows {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|i| (i, rng.gen_range(-2.0..2.0))).collect();
                let rel = match rng.gen_range(0u8..3) {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                // Degenerate RHS: zero half the time.
                let rhs = if rng.gen_range(0u8..2) == 0 {
                    0.0
                } else {
                    rng.gen_range(-3.0..3.0)
                };
                // Duplicate every row — the classic degeneracy magnet.
                lp.add_constraint(&coeffs, rel, rhs);
                lp.add_constraint(&coeffs, rel, rhs);
            }
            // Box the variables so Ok solutions are bounded.
            for i in 0..n {
                lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
            }
            for opts in [
                SolveOptions::default(),
                SolveOptions {
                    bland_from_start: true,
                    max_pivots: None,
                },
            ] {
                match solve_with(&lp, &opts) {
                    Ok(sol) => {
                        assert!(
                            sol.objective.is_finite(),
                            "seed {seed}: non-finite objective"
                        );
                        assert!(sol.x.iter().all(|v| v.is_finite()));
                    }
                    Err(
                        LpError::Infeasible
                        | LpError::Unbounded
                        | LpError::PivotLimit { .. }
                        | LpError::InvalidInput(_),
                    ) => {}
                }
            }
        }
    }

    /// Randomised solver audit, formerly proptest-based; now a
    /// deterministic seeded loop over `gddr-rng` draws.
    mod property {
        use super::*;
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};

        /// Builds a random LP that is feasible by construction: draw a
        /// witness `x0 ≥ 0`, random constraint rows, and set each RHS
        /// so `x0` satisfies the row.
        fn feasible_lp(x0: &[f64], rows: &[(Vec<f64>, u8)], objective: &[f64]) -> LinearProgram {
            let n = x0.len();
            let mut lp = LinearProgram::new(n);
            lp.set_objective(objective);
            for (coeffs, kind) in rows {
                let lhs: f64 = coeffs.iter().zip(x0).map(|(c, x)| c * x).sum();
                let terms: Vec<(usize, f64)> =
                    coeffs.iter().enumerate().map(|(i, &c)| (i, c)).collect();
                match kind % 3 {
                    0 => lp.add_constraint(&terms, Relation::Le, lhs + 1.0),
                    1 => lp.add_constraint(&terms, Relation::Ge, lhs - 1.0),
                    _ => lp.add_constraint(&terms, Relation::Eq, lhs),
                }
            }
            lp
        }

        /// On feasible bounded problems the solver returns a point
        /// that satisfies every constraint and whose objective is
        /// no worse than the witness's.
        #[test]
        fn solver_beats_witness_on_feasible_lps() {
            for seed in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.gen_range(2..5usize);
                let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
                let n_rows = rng.gen_range(1..5usize);
                let rows: Vec<(Vec<f64>, u8)> = (0..n_rows)
                    .map(|_| {
                        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
                        (c, rng.gen_range(0u8..3))
                    })
                    .collect();
                let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                // Bound the feasible region so the LP cannot be
                // unbounded: x_i <= 10.
                let mut lp = feasible_lp(&x0, &rows, &obj);
                for i in 0..n {
                    lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
                }
                let sol = solve(&lp).expect("constructed LP is feasible");
                // Feasibility of the returned point.
                assert!(sol.x.iter().all(|&v| v >= -1e-7));
                for (coeffs, kind) in &rows {
                    let witness: f64 = coeffs.iter().zip(&x0).map(|(c, x)| c * x).sum();
                    let lhs: f64 = coeffs.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
                    match kind % 3 {
                        0 => assert!(lhs <= witness + 1.0 + 1e-6),
                        1 => assert!(lhs >= witness - 1.0 - 1e-6),
                        _ => assert!((lhs - witness).abs() < 1e-6),
                    }
                }
                // Optimality relative to the witness (x0 may violate the
                // x <= 10 box only if drawn above it, which it is not).
                let witness_obj: f64 = obj.iter().zip(&x0).map(|(c, x)| c * x).sum();
                assert!(sol.objective <= witness_obj + 1e-6);
            }
        }
    }

    #[test]
    fn duals_certify_the_classic_maximisation() {
        // max 3x + 5y (min −3x − 5y): known shadow prices for the max
        // problem are (0, 3/2, 1); the min formulation negates them.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.duals.len(), 3);
        assert_close(sol.duals[0], 0.0);
        assert_close(sol.duals[1], -1.5);
        assert_close(sol.duals[2], -1.0);
        // Strong duality: bᵀy = cᵀx.
        let dual_obj = 4.0 * sol.duals[0] + 12.0 * sol.duals[1] + 18.0 * sol.duals[2];
        assert_close(dual_obj, sol.objective);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_seeded_feasible_lps() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..5usize);
            let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let mut lp = LinearProgram::new(n);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            lp.set_objective(&obj);
            for _ in 0..rng.gen_range(1..5usize) {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|i| (i, rng.gen_range(-3.0..3.0))).collect();
                let lhs: f64 = coeffs.iter().map(|&(i, c)| c * x0[i]).sum();
                match rng.gen_range(0u8..3) {
                    0 => lp.add_constraint(&coeffs, Relation::Le, lhs + 1.0),
                    1 => lp.add_constraint(&coeffs, Relation::Ge, lhs - 1.0),
                    _ => lp.add_constraint(&coeffs, Relation::Eq, lhs),
                }
            }
            for i in 0..n {
                lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
            }
            let sol = solve(&lp).expect("constructed LP is feasible");
            // Dual sign conventions per relation.
            let mut dual_obj = 0.0;
            let mut at_y = vec![0.0; n];
            for (r, (terms, rel, rhs)) in lp.constraints().enumerate() {
                let y = sol.duals[r];
                assert!(y.is_finite(), "seed {seed}: non-finite dual");
                match rel {
                    Relation::Le => assert!(y <= 1e-7, "seed {seed}: Le dual {y} > 0"),
                    Relation::Ge => assert!(y >= -1e-7, "seed {seed}: Ge dual {y} < 0"),
                    Relation::Eq => {}
                }
                dual_obj += y * rhs;
                for &(v, c) in terms {
                    at_y[v] += c * y;
                }
            }
            // Dual feasibility: reduced costs c − Aᵀy ≥ 0.
            for j in 0..n {
                assert!(
                    obj[j] - at_y[j] >= -1e-6,
                    "seed {seed}: negative reduced cost on x{j}"
                );
            }
            // Strong duality.
            assert!(
                (dual_obj - sol.objective).abs() <= 1e-6 * (1.0 + sol.objective.abs()),
                "seed {seed}: duality gap {} vs {}",
                dual_obj,
                sol.objective
            );
        }
    }

    #[test]
    fn solution_respects_constraints() {
        // Randomised feasibility audit on a fixed seedless grid.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(&[1.0, -2.0, 0.5]);
        lp.add_constraint(&[(0, 1.0), (1, 2.0), (2, 1.0)], Relation::Le, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Ge, -3.0);
        lp.add_constraint(&[(2, 1.0)], Relation::Le, 4.0);
        let sol = solve(&lp).unwrap();
        let x = &sol.x;
        assert!(x[0] + 2.0 * x[1] + x[2] <= 10.0 + 1e-7);
        assert!(x[0] - x[1] >= -3.0 - 1e-7);
        assert!(x[2] <= 4.0 + 1e-7);
        assert!(x.iter().all(|&v| v >= -1e-9));
        // Optimum: push y as high as possible: y bounded by
        // x - y >= -3 with x >= 0 ... y <= x + 3; and x + 2y <= 10.
        // Best at x=0.8? Solve: maximise 2y - x: x=0.8,y=3.8? check:
        // x+2y = 0.8+7.6 = 8.4 <10 → could raise y more: y <= x+3 and
        // x+2y<=10 → x + 2(x+3) <= 10 → x <= 4/3 → y = 13/3.
        assert_close(sol.objective, 4.0 / 3.0 - 2.0 * (13.0 / 3.0));
    }

    mod sparse_kernel {
        use super::*;
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};

        /// A seeded tableau with about half its entries zero.
        fn random_tableau(rng: &mut StdRng) -> Tableau {
            let rows = rng.gen_range(2..7usize);
            let cols = rng.gen_range(rows + 1..rows + 9);
            let entry = |rng: &mut StdRng| {
                if rng.gen_range(0u8..2) == 0 {
                    0.0
                } else {
                    rng.gen_range(-3.0..3.0)
                }
            };
            let a = (0..rows)
                .map(|_| (0..cols).map(|_| entry(&mut *rng)).collect())
                .collect();
            let c = (0..cols).map(|_| entry(&mut *rng)).collect();
            Tableau {
                a,
                b: (0..rows).map(|_| rng.gen_range(0.0..5.0)).collect(),
                c,
                obj: 0.0,
                basis: vec![usize::MAX; rows],
                cols,
                nonzeros: Vec::new(),
            }
        }

        /// Every entry agrees between the kernels (`==`, so only the
        /// sign of an exact zero may differ).
        fn assert_same(sparse: &Tableau, dense: &Tableau, context: &str) {
            assert_eq!(sparse.a, dense.a, "{context}: tableau body");
            assert_eq!(sparse.b, dense.b, "{context}: rhs");
            assert_eq!(sparse.c, dense.c, "{context}: objective row");
            assert_eq!(sparse.obj.to_bits(), dense.obj.to_bits(), "{context}: obj");
            assert_eq!(sparse.basis, dense.basis, "{context}: basis");
        }

        #[test]
        fn sparse_pivot_matches_dense_reference_on_seeded_tableaus() {
            for seed in 0..200u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sparse = random_tableau(&mut rng);
                let mut dense = Tableau {
                    a: sparse.a.clone(),
                    b: sparse.b.clone(),
                    c: sparse.c.clone(),
                    obj: sparse.obj,
                    basis: sparse.basis.clone(),
                    cols: sparse.cols,
                    nonzeros: Vec::new(),
                };
                for step in 0..10 {
                    let col = rng.gen_range(0..sparse.cols);
                    let rows: Vec<usize> = (0..sparse.a.len())
                        .filter(|&r| sparse.a[r][col].abs() > 0.1)
                        .collect();
                    if rows.is_empty() {
                        continue;
                    }
                    let row = rows[rng.gen_range(0..rows.len())];
                    sparse.pivot(row, col);
                    dense.pivot_dense(row, col);
                    assert_same(&sparse, &dense, &format!("seed {seed} step {step}"));
                }
            }
        }

        #[test]
        fn sparse_solves_are_bit_identical_to_dense_solves() {
            for seed in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (obj, rows) = super::resolve_tests::seeded_rows(&mut rng);
                let x0: Vec<f64> = (0..obj.len()).map(|_| rng.gen_range(0.0..5.0)).collect();
                let lp = super::resolve_tests::program(&obj, &rows, &x0);
                let sparse = solve(&lp);
                let dense = with_dense_pivots(|| solve(&lp));
                match (sparse, dense) {
                    (Ok(s), Ok(d)) => {
                        assert_eq!(s.objective.to_bits(), d.objective.to_bits(), "seed {seed}");
                        assert_eq!(s.x, d.x, "seed {seed}");
                        assert_eq!(s.duals, d.duals, "seed {seed}");
                        assert_eq!(s.pivots, d.pivots, "seed {seed}");
                    }
                    (s, d) => assert_eq!(s.err(), d.err(), "seed {seed}"),
                }
            }
        }
    }

    pub(crate) mod resolve_tests {
        use super::*;
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};

        /// One seeded row: dense coefficients, relation and the slack
        /// margin its rhs leaves around a witness.
        type Row = (Vec<(usize, f64)>, Relation, f64);

        /// A seeded objective and constraint rows with about a third
        /// equalities and an occasional duplicated row.
        pub(crate) fn seeded_rows(rng: &mut StdRng) -> (Vec<f64>, Vec<Row>) {
            let n = rng.gen_range(2..6usize);
            let obj = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut rows = Vec::new();
            for _ in 0..rng.gen_range(1..6usize) {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|i| (i, rng.gen_range(-3.0..3.0))).collect();
                let rel = match rng.gen_range(0u8..3) {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                let margin = rng.gen_range(0.0..2.0);
                if rel != Relation::Eq && rng.gen_range(0u8..4) == 0 {
                    rows.push((coeffs.clone(), rel, margin));
                }
                rows.push((coeffs, rel, margin));
            }
            (obj, rows)
        }

        /// The program whose rhs lets witness `x0` satisfy every row,
        /// boxed by `x ≤ 10` so it is bounded.
        pub(crate) fn program(obj: &[f64], rows: &[Row], x0: &[f64]) -> LinearProgram {
            let mut lp = LinearProgram::new(obj.len());
            lp.set_objective(obj);
            for (coeffs, rel, margin) in rows {
                let lhs: f64 = coeffs.iter().map(|&(i, c)| c * x0[i]).sum();
                let rhs = match rel {
                    Relation::Le => lhs + margin,
                    Relation::Ge => lhs - margin,
                    Relation::Eq => lhs,
                };
                lp.add_constraint(coeffs, *rel, rhs);
            }
            for i in 0..obj.len() {
                lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
            }
            lp
        }

        fn rhs(lp: &LinearProgram) -> Vec<f64> {
            lp.constraints().map(|(_, _, rhs)| rhs).collect()
        }

        /// Primal feasibility, dual signs, dual feasibility and strong
        /// duality of `sol` for `lp`.
        fn assert_certified(lp: &LinearProgram, sol: &Solution, context: &str) {
            let tol = 1e-7;
            assert!(sol.x.iter().all(|&v| v >= -tol), "{context}: x < 0");
            let mut dual_obj = 0.0;
            let mut at_y = vec![0.0; lp.num_vars()];
            for (r, (terms, rel, rhs)) in lp.constraints().enumerate() {
                let lhs: f64 = terms.iter().map(|&(v, c)| c * sol.x[v]).sum();
                let y = sol.duals[r];
                match rel {
                    Relation::Le => assert!(lhs <= rhs + tol && y <= tol, "{context}: row {r}"),
                    Relation::Ge => assert!(lhs >= rhs - tol && y >= -tol, "{context}: row {r}"),
                    Relation::Eq => assert!((lhs - rhs).abs() <= tol, "{context}: row {r}"),
                }
                dual_obj += y * rhs;
                for &(v, c) in terms {
                    at_y[v] += c * y;
                }
            }
            for (j, (c, ay)) in lp.objective().iter().zip(&at_y).enumerate() {
                assert!(c - ay >= -1e-6, "{context}: reduced cost of x{j}");
            }
            assert!(
                (dual_obj - sol.objective).abs() <= 1e-6 * (1.0 + sol.objective.abs()),
                "{context}: duality gap {dual_obj} vs {}",
                sol.objective
            );
        }

        #[test]
        fn resolve_matches_cold_solves_on_perturbed_rhs() {
            let mut resolved = 0;
            for seed in 0..128u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (obj, rows) = seeded_rows(&mut rng);
                let x0: Vec<f64> = (0..obj.len()).map(|_| rng.gen_range(0.0..5.0)).collect();
                let Ok((_, basis)) =
                    solve_with_basis(&program(&obj, &rows, &x0), &SolveOptions::default())
                else {
                    continue; // A redundant row kept an artificial.
                };
                for round in 0..4 {
                    let x1: Vec<f64> = (0..obj.len()).map(|_| rng.gen_range(0.0..5.0)).collect();
                    let lp = program(&obj, &rows, &x1);
                    let context = format!("seed {seed} round {round}");
                    let cold = solve(&lp).expect("feasible by witness");
                    let warm = resolve(&basis, &rhs(&lp), &SolveOptions::default())
                        .unwrap_or_else(|e| panic!("{context}: {e}"));
                    assert!(
                        (warm.objective - cold.objective).abs()
                            <= 1e-9 * (1.0 + cold.objective.abs()),
                        "{context}: resolve {} vs cold {}",
                        warm.objective,
                        cold.objective
                    );
                    assert_certified(&lp, &warm, &context);
                    resolved += 1;
                }
            }
            assert!(resolved >= 400, "only {resolved} re-solves ran");
        }

        #[test]
        fn resolve_is_a_pure_function_of_basis_and_rhs() {
            let mut rng = StdRng::seed_from_u64(3);
            let (obj, rows) = seeded_rows(&mut rng);
            let lp = program(&obj, &rows, &[1.0; 5][..obj.len()]);
            let (_, basis) = solve_with_basis(&lp, &SolveOptions::default()).unwrap();
            let first = resolve(&basis, &rhs(&lp), &SolveOptions::default()).unwrap();
            let other = program(&obj, &rows, &[3.0; 5][..obj.len()]);
            resolve(&basis, &rhs(&other), &SolveOptions::default()).unwrap();
            let again = resolve(&basis, &rhs(&lp), &SolveOptions::default()).unwrap();
            assert_eq!(first.objective.to_bits(), again.objective.to_bits());
            assert_eq!(first.x, again.x);
            assert_eq!(first.duals, again.duals);
        }

        #[test]
        fn resolve_from_the_same_rhs_needs_no_pivots() {
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[-3.0, -5.0]);
            lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
            lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
            lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
            let (cold, basis) = solve_with_basis(&lp, &SolveOptions::default()).unwrap();
            let warm = resolve(&basis, &[4.0, 12.0, 18.0], &SolveOptions::default()).unwrap();
            assert_eq!(warm.pivots, 0);
            assert_close(warm.objective, cold.objective);
            assert_eq!(warm.duals.len(), 3);
            assert_close(warm.duals[1], -1.5);
            // Tighter rhs: x ≤ 1 moves the optimum to (1, 6).
            let tight = resolve(&basis, &[1.0, 12.0, 18.0], &SolveOptions::default()).unwrap();
            assert!(tight.pivots > 0);
            assert_close(tight.x[0], 1.0);
            assert_close(tight.x[1], 6.0);
            assert_close(tight.objective, -33.0);
        }

        #[test]
        fn resolve_reports_typed_errors() {
            let mut lp = LinearProgram::new(1);
            lp.set_objective(&[1.0]);
            lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
            lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
            let (_, basis) = solve_with_basis(&lp, &SolveOptions::default()).unwrap();
            assert_eq!(basis.num_rows(), 2);
            let opts = SolveOptions::default();
            assert!(matches!(
                resolve(&basis, &[1.0], &opts),
                Err(LpError::InvalidInput(_))
            ));
            assert!(matches!(
                resolve(&basis, &[f64::NAN, 4.0], &opts),
                Err(LpError::InvalidInput(_))
            ));
            // x ≥ 5 and x ≤ 4 cannot both hold.
            assert_eq!(
                resolve(&basis, &[5.0, 4.0], &opts).unwrap_err(),
                LpError::Infeasible
            );
            // A zero budget fails like the cold solver's.
            let zero = SolveOptions {
                bland_from_start: false,
                max_pivots: Some(0),
            };
            assert_eq!(
                resolve(&basis, &[2.0, 4.0], &zero).unwrap_err(),
                LpError::PivotLimit { pivots: 0 }
            );
        }

        #[test]
        fn redundant_rows_leave_no_basis_to_resolve_from() {
            let mut lp = LinearProgram::new(2);
            lp.set_objective(&[1.0, 1.0]);
            lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
            lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
            assert!(solve(&lp).is_ok());
            assert!(matches!(
                solve_with_basis(&lp, &SolveOptions::default()),
                Err(LpError::InvalidInput(_))
            ));
        }

        #[test]
        fn dual_bland_rule_agrees_with_steepest_edge() {
            for seed in 0..32u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (obj, rows) = seeded_rows(&mut rng);
                let x0: Vec<f64> = (0..obj.len()).map(|_| rng.gen_range(0.0..5.0)).collect();
                let Ok((_, basis)) =
                    solve_with_basis(&program(&obj, &rows, &x0), &SolveOptions::default())
                else {
                    continue;
                };
                let x1: Vec<f64> = (0..obj.len()).map(|_| rng.gen_range(0.0..5.0)).collect();
                let lp = program(&obj, &rows, &x1);
                let bland = SolveOptions {
                    bland_from_start: true,
                    max_pivots: None,
                };
                let a = resolve(&basis, &rhs(&lp), &SolveOptions::default()).unwrap();
                let b = resolve(&basis, &rhs(&lp), &bland).unwrap();
                assert!(
                    (a.objective - b.objective).abs() <= 1e-9 * (1.0 + a.objective.abs()),
                    "seed {seed}"
                );
            }
        }
    }
}
