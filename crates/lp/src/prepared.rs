//! Standardize-once / solve-many linear programs.
//!
//! [`PreparedLp`] separates the two halves of a solve: *standardization*
//! (mapping a model with boxed variables and `≤ / ≥ / =` rows onto equality
//! form `Ax = b`, `l ≤ x ≤ u`) happens once, and *solving* can then be
//! repeated after mutating the right-hand side ([`PreparedLp::set_rhs`]) or
//! the objective ([`PreparedLp::set_objective`]) — the mutations the
//! recursive mechanism's `H`/`G` sequence chains need, where consecutive
//! entries differ only in the mass-tie equality `Σ_p f_p = i`.
//!
//! Standard form is deliberately slack-complete: every constraint row gets
//! exactly one slack column (`≤` → `s ∈ [0, ∞)`, `≥` → `s ∈ (−∞, 0]`,
//! `=` → `s ∈ [0, 0]`), so the all-slack basis is always a valid (if
//! possibly infeasible) starting basis with `B = I`, and row `i` of the
//! standardized system is the model's `i`-th constraint verbatim — which is
//! what makes [`PreparedLp::set_rhs`] a plain store. Boxed variables are kept
//! native (no column splits, no extra bound rows): the bounded-variable
//! revised simplex of [`crate::revised`] tracks nonbasic-at-lower /
//! nonbasic-at-upper status instead.
//!
//! A variable fixed by its bounds (`l = u`) stays a column like any other:
//! it starts nonbasic at its value and the revised simplex never lets it
//! enter the basis.
//!
//! A successful solve returns the optimal [`Basis`]; feeding it to
//! [`PreparedLp::solve_warm`] after an RHS step re-enters the simplex from
//! that basis (through the dual simplex, with no composite phase 1),
//! which is how a chain of `|P_named|+1` sequence solves avoids `|P_named|`
//! cold starts.

use crate::error::LpError;
use crate::lu::LuFactor;
use crate::model::{ConstraintOp, Model, Sense, Var};
use crate::simplex::SimplexOptions;
use crate::solution::Solution;
use crate::sparse::CscMatrix;

/// Where a variable sits relative to the current basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis; its value is determined by `B⁻¹(b − N x_N)`.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable (both bounds infinite), parked at 0.
    Free,
}

/// A simplex basis: which column is basic in each row, plus the bound status
/// of every column. Returned by a solve and accepted by
/// [`PreparedLp::solve_warm`] to continue a chain from the previous optimum.
///
/// A basis returned by a solve also carries the maintained LU basis
/// factorization. Re-entering with it skips the from-scratch
/// refactorization as long as the constraint matrix is unchanged (RHS and
/// objective mutations keep it valid; the factor is fingerprinted against
/// the matrix so a basis fed to a *different* prepared LP silently falls
/// back to refactorizing). The hand-off is O(1): the factorization shares
/// its bulk behind an `Arc`, and a solve that pivots from it copies the
/// factors before its first update, so the basis handed in stays valid.
#[derive(Clone, Debug)]
pub struct Basis {
    /// Basic column of each row (length = number of rows).
    pub(crate) basic: Vec<usize>,
    /// Status of every standardized column (structural + slack).
    pub(crate) status: Vec<VarStatus>,
    /// The maintained basis factorization, if this basis came out of a solve.
    pub(crate) factor: Option<BasisFactor>,
}

/// A cached basis factorization, tied to the constraint matrix it was
/// factored against.
#[derive(Clone, Debug)]
pub(crate) struct BasisFactor {
    /// Sparse Markowitz LU with its Forrest–Tomlin updates, shared
    /// copy-on-write: cloning it copies nothing, and the first update of a
    /// clone copies the factors.
    pub(crate) lu: LuFactor,
    /// Fingerprint of the [`CscMatrix`] the factor belongs to.
    pub(crate) fingerprint: u64,
    /// Dual steepest-edge weights `‖e_rᵀB⁻¹‖²` per basis row, when they are
    /// still exact for this basis (see [`crate::revised`]).
    pub(crate) weights: Option<Vec<f64>>,
}

impl Basis {
    /// Number of basic columns (= rows of the LP it belongs to).
    pub fn num_rows(&self) -> usize {
        self.basic.len()
    }

    /// Number of standardized columns this basis describes.
    pub fn num_cols(&self) -> usize {
        self.status.len()
    }
}

/// The result of a [`PreparedLp`] solve: the solution plus the optimal basis
/// to warm-start the next solve in a chain from.
#[derive(Clone, Debug)]
pub struct PreparedSolution {
    /// The optimal solution (objective in the caller's direction, values per
    /// model variable).
    pub solution: Solution,
    /// The optimal basis.
    pub basis: Basis,
}

/// A model standardized once into sparse equality form, ready for repeated
/// (warm-started) solves under RHS / objective mutation.
#[derive(Clone, Debug)]
pub struct PreparedLp {
    /// Rows (= model constraints).
    pub(crate) nrows: usize,
    /// Standardized columns: structural variables then one slack per row.
    pub(crate) ncols: usize,
    /// Structural variables (the model's, in its order).
    pub(crate) nvars: usize,
    /// The standardized constraint matrix (slack columns included).
    pub(crate) a: CscMatrix,
    /// Per-column lower bounds.
    pub(crate) lower: Vec<f64>,
    /// Per-column upper bounds.
    pub(crate) upper: Vec<f64>,
    /// Internal minimization costs per column (sign already applied).
    pub(crate) cost: Vec<f64>,
    /// Right-hand side per row.
    pub(crate) b: Vec<f64>,
    /// The caller's objective coefficients (their direction), for reporting.
    user_objective: Vec<f64>,
    /// +1 for minimization, −1 for maximization.
    sign: f64,
    /// Fingerprint of `a`, fixed at preparation time (RHS and objective
    /// mutations leave the matrix untouched).
    pub(crate) fingerprint: u64,
}

impl PreparedLp {
    /// Standardizes a model. Fails on the same invalid inputs
    /// [`Model::solve`] rejects (bad bounds, unknown variables, non-finite
    /// coefficients).
    pub fn new(model: &Model) -> Result<Self, LpError> {
        model.validate()?;
        let nvars = model.vars.len();
        let nrows = model.constraints.len();
        let sign = if model.sense == Sense::Minimize {
            1.0
        } else {
            -1.0
        };

        let ncols = nvars + nrows;
        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        let mut cost = vec![0.0; ncols];
        let mut user_objective = Vec::with_capacity(nvars);
        for (j, v) in model.vars.iter().enumerate() {
            user_objective.push(v.objective);
            lower.push(v.lower);
            upper.push(v.upper);
            cost[j] = sign * v.objective;
        }

        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(nrows);
        for (i, c) in model.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                triplets.push((i, v.index(), a));
            }
            // One slack per row makes the all-slack basis the identity.
            triplets.push((i, nvars + i, 1.0));
            let (slo, shi) = match c.op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            lower.push(slo);
            upper.push(shi);
            b.push(c.rhs);
        }
        let a = CscMatrix::from_triplets(nrows, ncols, &triplets);
        let fingerprint = a.fingerprint();

        Ok(PreparedLp {
            nrows,
            ncols,
            nvars,
            a,
            lower,
            upper,
            cost,
            b,
            user_objective,
            sign,
            fingerprint,
        })
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Number of model (structural) variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Number of standardized columns (structurals + slacks).
    pub fn num_cols(&self) -> usize {
        self.ncols
    }

    /// Overwrites the right-hand side of one constraint. `row` is the index
    /// of the constraint in the order it was added to the [`Model`]; the
    /// constraint matrix, operators and bounds are untouched, so a basis from
    /// a previous solve stays structurally valid for
    /// [`PreparedLp::solve_warm`].
    ///
    /// # Panics
    /// If `row` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(row < self.nrows, "row {row} out of range ({})", self.nrows);
        assert!(rhs.is_finite(), "rhs must be finite, got {rhs}");
        self.b[row] = rhs;
    }

    /// Overwrites the objective coefficient of a model variable (in the
    /// model's optimisation direction).
    ///
    /// # Panics
    /// If the variable does not belong to the prepared model or the
    /// coefficient is not finite.
    pub fn set_objective(&mut self, var: Var, coefficient: f64) {
        assert!(
            var.index() < self.nvars,
            "variable {} out of range ({})",
            var.index(),
            self.nvars
        );
        assert!(
            coefficient.is_finite(),
            "objective coefficient must be finite, got {coefficient}"
        );
        self.user_objective[var.index()] = coefficient;
        self.cost[var.index()] = self.sign * coefficient;
    }

    /// Solves from a cold start (the all-slack basis).
    pub fn solve(&self, options: &SimplexOptions) -> Result<PreparedSolution, LpError> {
        crate::revised::solve_prepared(self, None, options)
    }

    /// Solves warm-started from `basis` (typically the optimal basis of the
    /// previous solve in a chain). After an RHS step the old optimal basis
    /// is still dual feasible, so the dual simplex re-optimises from it with
    /// no composite phase-1 pivots; a basis that is not dual feasible (e.g.
    /// after [`PreparedLp::set_objective`]) re-enters through the composite
    /// phase 1 instead. A basis that does not fit this LP (wrong shape) or
    /// whose basis matrix has gone numerically singular falls back to a cold
    /// solve instead of failing.
    pub fn solve_warm(
        &self,
        basis: &Basis,
        options: &SimplexOptions,
    ) -> Result<PreparedSolution, LpError> {
        if basis.basic.len() != self.nrows || basis.status.len() != self.ncols {
            return self.solve(options);
        }
        match crate::revised::solve_prepared(self, Some(basis), options) {
            Ok(s) => Ok(s),
            // Warm re-entry can only fail *numerically* in ways a fresh start
            // avoids (stale basis drift); verdicts like Infeasible/Unbounded
            // and stalls are re-derived cold so a bad warm basis can never
            // change the reported outcome of a solve.
            Err(LpError::IterationLimit { .. } | LpError::Infeasible | LpError::Unbounded) => {
                self.solve(options)
            }
            Err(e) => Err(e),
        }
    }

    /// The caller-direction objective value of a point.
    pub(crate) fn user_objective_value(&self, values: &[f64]) -> f64 {
        self.user_objective
            .iter()
            .zip(values)
            .map(|(c, x)| c * x)
            .sum()
    }
}
