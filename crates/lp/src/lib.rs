//! A small, dependency-free linear-programming solver.
//!
//! The efficient recursive mechanism (paper Sec. 5.3) computes each entry of
//! the sequences `H` and `G` by solving a linear program with `O(L)`
//! variables, where `L` is the total length of the annotations of the
//! sensitive K-relation. This crate provides the solver: a sparse
//! bounded-variable **revised simplex** ([`revised`]) over models with boxed
//! variables and `≤ / ≥ / =` constraints. The basis is maintained as a
//! sparse **LU factorization** (a singleton pass, then threshold Markowitz
//! on the remaining bump) kept current by Forrest–Tomlin updates, and warm
//! re-entry picks its dual leaving rows by steepest edge.
//! [`time_factorizations`] counts and times the factorizations a closure
//! runs, on a clock the caller supplies, and counts its basis updates with
//! the entries they store.
//! Variables fixed by their bounds stay columns that never enter the
//! basis. The original dense two-phase tableau
//! ([`simplex::solve_dense`]) is retained as the differential-testing
//! oracle.
//!
//! Two ways in:
//!
//! * [`Model::solve`] — one-shot: standardize and solve.
//! * [`Model::prepare`] → [`PreparedLp`] — standardize once, then mutate the
//!   right-hand side ([`PreparedLp::set_rhs`]) or objective
//!   ([`PreparedLp::set_objective`]) and re-solve, warm-starting each solve
//!   from the previous optimal [`Basis`] ([`PreparedLp::solve_warm`]). This
//!   is the interface the mechanism's `H`/`G` sequence chains use: the
//!   `|P_named|+1` entry LPs of one query family (one per mass over the
//!   participants its distinct annotations name) share everything except
//!   the mass-tie right-hand side, so a chain of warm solves replaces `O(|P|)`
//!   cold starts.
//!
//! ```
//! use rmdp_lp::{Model, Sense, SimplexOptions};
//!
//! // minimize  x + 2y   subject to  x + y >= 1,  0 <= x,y <= 1
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_var(0.0, 1.0, 1.0);
//! let y = m.add_var(0.0, 1.0, 2.0);
//! m.add_ge([(x, 1.0), (y, 1.0)], 1.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - 1.0).abs() < 1e-9);
//! assert!((sol.value(x) - 1.0).abs() < 1e-9);
//!
//! // The same model through the standardize-once path, re-solved after an
//! // RHS step with a warm start.
//! let mut prepared = m.prepare().unwrap();
//! let options = SimplexOptions::default();
//! let first = prepared.solve(&options).unwrap();
//! prepared.set_rhs(0, 1.5);
//! let second = prepared.solve_warm(&first.basis, &options).unwrap();
//! // x runs to its cap, y covers the rest: 1 + 2·0.5 = 2.
//! assert!((second.solution.objective - 2.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod error;
mod lu;
pub mod model;
pub mod prepared;
pub mod revised;
pub mod simplex;
pub mod solution;
pub mod sparse;

pub use error::LpError;
pub use lu::{time_factorizations, FactorTiming};
pub use model::{Constraint, ConstraintOp, Model, Sense, Var};
pub use prepared::{Basis, PreparedLp, PreparedSolution, VarStatus};
pub use simplex::SimplexOptions;
pub use solution::{Solution, SolveStats};
pub use sparse::CscMatrix;
