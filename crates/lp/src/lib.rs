//! # gddr-lp
//!
//! Linear-programming substrate for the GDDR reproduction.
//!
//! The paper's environment "implements a linear solver for the optimal
//! routing to calculate the optimal link utilisation ... on top of
//! Google OR-Tools" (§V-A). OR-Tools is unavailable here, so this crate
//! provides:
//!
//! - [`simplex`]: a from-scratch two-phase dense primal simplex solver
//!   with a Bland anti-cycling fallback and a sparse-row pivot kernel,
//!   plus a revised dual simplex ([`simplex::resolve`]) that re-solves a
//!   program under a new right-hand side from an optimal [`Basis`],
//! - [`mcf`]: the destination-aggregated multicommodity-flow LP that
//!   computes the optimal (minimum) maximum link utilisation `U_opt`
//!   for a demand matrix — the denominator of the paper's reward
//!   (Eq. 2) — plus a per-demand-matrix cache, since the paper's
//!   cyclical sequences revisit the same matrices.
//!
//! Every exact `U_opt` comes from one deterministic path: the LP over
//! **all** destinations, re-solved with the dual simplex from a
//! per-topology *reference basis* (the cold optimum of the graph's
//! capacity-gravity matrix, normalised to mean 1). Demands enter only
//! the right-hand side, so that basis fits every matrix on the graph,
//! and since it depends on the graph alone, `U_opt` is a pure function
//! of (graph, demand matrix) — the same bits whatever was solved before
//! and on any thread. A failed re-solve falls back to the cold solve.
//!
//! # Example
//!
//! ```
//! use gddr_lp::simplex::{LinearProgram, Relation};
//!
//! // max x + y  s.t.  x + y <= 4, x <= 2  ==  min -(x + y)
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[-1.0, -1.0]);
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
//! let sol = gddr_lp::simplex::solve(&lp)?;
//! assert!((sol.objective + 4.0).abs() < 1e-9);
//! # Ok::<(), gddr_lp::simplex::LpError>(())
//! ```

pub mod mcf;
pub mod simplex;

pub use mcf::{CacheStats, CachedOracle, McfSolution, OracleValue};
pub use simplex::{Basis, LinearProgram, LpError, Relation, Solution, SolveOptions};
