//! Solutions returned by the simplex solver.

use crate::model::Var;

/// Counters describing the work done by one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex pivots performed in phase 1 (for the revised solver: pivots
    /// plus bound flips spent restoring primal feasibility through the
    /// composite phase 1; 0 when a warm start re-entered feasible or the
    /// dual simplex restored feasibility).
    pub phase1_iterations: usize,
    /// Dual simplex pivots spent restoring primal feasibility from a warm,
    /// dual-feasible basis (revised solver only; 0 on cold starts).
    pub dual_iterations: usize,
    /// Simplex pivots performed in phase 2.
    pub phase2_iterations: usize,
    /// Rows of the standardised system.
    pub rows: usize,
    /// Columns of the standardised system (excluding the right-hand side).
    /// The revised solver adds exactly one slack per row and splits nothing,
    /// so this is `kept model vars + rows`; the dense oracle is wider
    /// (free-var splits and explicit upper-bound rows).
    pub cols: usize,
    /// From-scratch basis factorizations triggered after entry (drift check,
    /// update cap or a refused update; revised solver only).
    pub refactorizations: usize,
    /// Bound flips — iterations that moved a nonbasic variable to its other
    /// bound without touching the basis (revised solver only).
    pub bound_flips: usize,
    /// Basis changes, each applied as a Forrest–Tomlin update unless the
    /// update was refused (one per true pivot; revised solver only).
    pub basis_updates: usize,
    /// Peak stored nonzeros of the sparse LU factorization (factors plus
    /// their updates) across the solve; 0 on the dense oracle, which does
    /// not track fill-in.
    pub fill_in_nnz: usize,
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
