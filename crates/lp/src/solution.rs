//! Solutions returned by the simplex solver.

use crate::model::Var;

/// Counters describing the work done by one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex pivots performed in phase 1 (for the revised backend: pivots
    /// plus bound flips spent restoring primal feasibility through the
    /// composite phase 1; 0 when a warm start re-entered feasible or the
    /// dual simplex restored feasibility).
    pub phase1_iterations: usize,
    /// Dual simplex pivots spent restoring primal feasibility from a warm,
    /// dual-feasible basis (revised backends only; 0 on cold starts).
    pub dual_iterations: usize,
    /// Simplex pivots performed in phase 2.
    pub phase2_iterations: usize,
    /// Rows of the standardised system.
    pub rows: usize,
    /// Columns of the standardised system (excluding the right-hand side).
    /// The revised backend adds exactly one slack per row and splits nothing,
    /// so this is `model vars + rows`; the dense oracle is wider (free-var
    /// splits and explicit upper-bound rows).
    pub cols: usize,
    /// From-scratch basis factorizations triggered after entry (drift check
    /// or eta-file cap), on either revised backend.
    pub refactorizations: usize,
    /// Bound flips — iterations that moved a nonbasic variable to its other
    /// bound without touching the basis (revised backends only).
    pub bound_flips: usize,
    /// Product-form basis updates applied (one per true pivot): eta-file
    /// updates on the sparse-LU backend, dense `B⁻¹` eta transformations on
    /// the dense revised backend.
    pub basis_updates: usize,
    /// Peak stored nonzeros of the sparse LU factorization (factors plus
    /// eta file) across the solve; 0 on the dense backends, which do not
    /// track fill-in.
    pub fill_in_nnz: usize,
    /// Constraint rows removed by presolve before the solve (full presolve
    /// on the [`crate::Model::solve`] path; the RHS-safe
    /// [`crate::PreparedLp`] subset never removes rows).
    pub presolve_rows_removed: usize,
    /// Variables removed by presolve before the solve (fixed, substituted
    /// or merged away). `rows`/`cols` report the *reduced* system.
    pub presolve_cols_removed: usize,
    /// Whether this solve re-entered from a caller-supplied basis
    /// ([`crate::PreparedLp::solve_warm`]).
    pub warm_started: bool,
}

impl SolveStats {
    /// Every iteration of the solve: composite phase 1, dual and phase 2.
    pub fn total_iterations(&self) -> usize {
        self.phase1_iterations + self.dual_iterations + self.phase2_iterations
    }
}

/// An optimal solution of a linear program.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal objective value (in the caller's optimisation direction).
    pub objective: f64,
    /// Optimal value of every model variable, indexed by [`Var::index`].
    pub values: Vec<f64>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// The optimal value of a variable.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }
}
