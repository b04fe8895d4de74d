//! Solver options and the dense two-phase tableau oracle.
//!
//! [`SimplexOptions`] configures the sparse bounded-variable revised simplex
//! of [`crate::revised`], which every [`Model::solve`] and
//! [`crate::PreparedLp`] solve runs on. [`solve_dense`] is the dense tableau
//! this crate started from, kept as a structurally independent
//! differential-testing oracle: the property tests pit it against the
//! revised solver on random LPs and on the mechanism's real sequence models.
//!
//! The dense oracle standardises a [`Model`] into equality form
//! `min c'ᵀx'  s.t.  Ax' = b, x' ≥ 0` (shifting finite lower bounds to zero,
//! reflecting upper-bounded-only variables, splitting free variables and
//! turning finite upper bounds into explicit rows), then runs the classical
//! two-phase tableau simplex:
//!
//! * phase 1 minimises the sum of artificial variables to find a basic
//!   feasible solution (or proves infeasibility),
//! * phase 2 minimises the real objective (or detects unboundedness).
//!
//! Pivoting uses Dantzig's rule and falls back to Bland's rule after a
//! configurable number of iterations so the solver cannot cycle forever on
//! degenerate instances.

use crate::error::LpError;
use crate::model::{ConstraintOp, Model, Sense};
use crate::solution::{Solution, SolveStats};

/// Options controlling the simplex run.
#[derive(Clone, Copy, Debug)]
pub struct SimplexOptions {
    /// Hard cap on pivots per phase.
    pub max_iterations: usize,
    /// After this many pivots in a phase, switch from Dantzig's rule to
    /// Bland's anti-cycling rule.
    pub bland_after: usize,
    /// Numerical tolerance for reduced costs, pivots and feasibility.
    pub tol: f64,
    /// Revised solver only: pivots between drift checks of the maintained
    /// basis factorization. Each check costs O(nnz); a primal residual above
    /// tolerance triggers a from-scratch refactorization (and a
    /// recomputation of the primal point). Smaller values trade time for
    /// numerical robustness on long pivot chains over badly scaled data.
    pub refactor_every: usize,
    /// Revised solver only: relative threshold of Markowitz pivoting. A
    /// candidate pivot must be at least this fraction of the largest
    /// magnitude in its column. Larger values favour stability, smaller
    /// values favour sparsity; clamped to `[0, 1]`.
    pub markowitz_threshold: f64,
    /// Revised solver only: Forrest–Tomlin basis updates applied before a
    /// forced refactorization. Bounds the row etas and updated `U` columns
    /// every FTRAN and BTRAN replays, and the error they can accumulate.
    /// (An update that fails its stability check forces one sooner.)
    pub update_cap: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 30_000,
            bland_after: 5_000,
            tol: 1e-9,
            refactor_every: 64,
            markowitz_threshold: 0.1,
            update_cap: 48,
        }
    }
}

/// How each model variable maps into the standardised nonnegative variables.
#[derive(Clone, Copy, Debug)]
enum VarMap {
    /// `x = lower + x'` with `x' ≥ 0`.
    Shifted { col: usize, lower: f64 },
    /// `x = upper − x'` with `x' ≥ 0` (no finite lower bound).
    Reflected { col: usize, upper: f64 },
    /// `x = x⁺ − x⁻` with both parts nonnegative (free variable).
    Free { pos: usize, neg: usize },
}

struct Standardized {
    /// Row-major constraint matrix; each row has `cols + 1` entries, the last
    /// being the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Number of structural + slack columns (artificials are appended later).
    cols: usize,
    /// Phase-2 cost of every column.
    costs: Vec<f64>,
    /// Mapping from model variables to standardised columns.
    var_map: Vec<VarMap>,
    /// Per row, the slack column that can start basic: the row's slack when
    /// its coefficient is +1 after normalisation (slacks appear in exactly
    /// one row); `None` where phase 1 needs an artificial.
    basic_slack: Vec<Option<usize>>,
}

fn standardize(model: &Model, minimize: bool, perturbation: f64) -> Result<Standardized, LpError> {
    let mut var_map = Vec::with_capacity(model.vars.len());
    let mut cols = 0usize;
    // Extra rows for finite upper bounds of shifted variables.
    let mut upper_rows: Vec<(usize, f64)> = Vec::new();

    for v in &model.vars {
        if v.lower.is_finite() {
            let col = cols;
            cols += 1;
            var_map.push(VarMap::Shifted {
                col,
                lower: v.lower,
            });
            if v.upper.is_finite() {
                upper_rows.push((col, v.upper - v.lower));
            }
        } else if v.upper.is_finite() {
            let col = cols;
            cols += 1;
            var_map.push(VarMap::Reflected {
                col,
                upper: v.upper,
            });
        } else {
            let pos = cols;
            let neg = cols + 1;
            cols += 2;
            var_map.push(VarMap::Free { pos, neg });
        }
    }

    let n_structural = cols;

    // Count slacks: one per inequality (model constraints + upper-bound rows).
    let n_ineq = model
        .constraints
        .iter()
        .filter(|c| c.op != ConstraintOp::Eq)
        .count()
        + upper_rows.len();
    let total_cols = n_structural + n_ineq;

    let sign = if minimize { 1.0 } else { -1.0 };
    let mut costs = vec![0.0; total_cols];
    for (v, def) in model.vars.iter().enumerate() {
        let c = sign * def.objective;
        match var_map[v] {
            VarMap::Shifted { col, .. } => costs[col] += c,
            VarMap::Reflected { col, .. } => costs[col] -= c,
            VarMap::Free { pos, neg } => {
                costs[pos] += c;
                costs[neg] -= c;
            }
        }
    }

    let n_rows = model.constraints.len() + upper_rows.len();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n_rows);
    let mut basic_slack: Vec<Option<usize>> = Vec::with_capacity(n_rows);
    let mut next_slack = n_structural;

    let mut push_row = |coeffs: Vec<(usize, f64)>, op: ConstraintOp, rhs: f64| {
        let mut row = vec![0.0; total_cols + 1];
        for (col, a) in coeffs {
            row[col] += a;
        }
        let slack = match op {
            ConstraintOp::Le => Some((next_slack, 1.0)),
            ConstraintOp::Ge => Some((next_slack, -1.0)),
            ConstraintOp::Eq => None,
        };
        if let Some((col, coeff)) = slack {
            row[col] = coeff;
            next_slack += 1;
        }
        row[total_cols] = rhs;
        // Normalise to b ≥ 0.
        let flip = rhs < 0.0;
        if flip {
            for x in row.iter_mut() {
                *x = -*x;
            }
        }
        basic_slack.push(slack.and_then(|(col, coeff)| ((coeff > 0.0) != flip).then_some(col)));
        rows.push(row);
    };

    for c in &model.constraints {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
        let mut rhs = c.rhs;
        for &(v, a) in &c.terms {
            match var_map[v.index()] {
                VarMap::Shifted { col, lower } => {
                    coeffs.push((col, a));
                    rhs -= a * lower;
                }
                VarMap::Reflected { col, upper } => {
                    coeffs.push((col, -a));
                    rhs -= a * upper;
                }
                VarMap::Free { pos, neg } => {
                    coeffs.push((pos, a));
                    coeffs.push((neg, -a));
                }
            }
        }
        push_row(coeffs, c.op, rhs);
    }
    for &(col, ub) in &upper_rows {
        push_row(vec![(col, 1.0)], ConstraintOp::Le, ub);
    }

    // Optional anti-degeneracy perturbation: a tiny, deterministic, strictly
    // increasing offset per row breaks the ratio-test ties that make highly
    // degenerate instances stall. Applied only on the retry path of
    // [`solve_dense`], so the common case stays exact.
    if perturbation > 0.0 {
        for (i, row) in rows.iter_mut().enumerate() {
            let rhs = row.last_mut().expect("row has rhs");
            *rhs += perturbation * (i + 1) as f64;
        }
    }

    Ok(Standardized {
        rows,
        cols: total_cols,
        costs,
        var_map,
        basic_slack,
    })
}

/// State of the tableau during the simplex iterations.
struct Tableau {
    /// m rows, each of width `width + 1` (rhs last).
    rows: Vec<Vec<f64>>,
    /// Number of columns excluding the rhs.
    width: usize,
    /// Cost row of width `width + 1`; the last entry holds minus the current
    /// objective value.
    cost: Vec<f64>,
    /// Basic column of each row.
    basis: Vec<usize>,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > 0.0);
        let inv = 1.0 / pivot_val;
        for x in self.rows[row].iter_mut() {
            *x *= inv;
        }
        // Borrow the pivot row immutably via a clone-free split.
        let pivot_row = std::mem::take(&mut self.rows[row]);
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor != 0.0 {
                for (x, &p) in r.iter_mut().zip(pivot_row.iter()) {
                    *x -= factor * p;
                }
                // Clean the pivot column explicitly to avoid drift.
                r[col] = 0.0;
            }
        }
        let factor = self.cost[col];
        if factor != 0.0 {
            for (x, &p) in self.cost.iter_mut().zip(pivot_row.iter()) {
                *x -= factor * p;
            }
            self.cost[col] = 0.0;
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Runs simplex iterations until optimality/unboundedness. `allowed_cols`
    /// limits which columns may enter (used to keep artificials out in phase
    /// 2). Returns the number of iterations or an error.
    fn iterate(&mut self, allowed_cols: usize, options: &SimplexOptions) -> Result<usize, LpError> {
        let tol = options.tol;
        let mut iterations = 0usize;
        loop {
            if iterations > options.max_iterations {
                return Err(LpError::IterationLimit {
                    limit: options.max_iterations,
                });
            }
            let use_bland = iterations >= options.bland_after;

            // Entering column.
            let mut entering: Option<usize> = None;
            if use_bland {
                for j in 0..allowed_cols {
                    if self.cost[j] < -tol {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -tol;
                for j in 0..allowed_cols {
                    if self.cost[j] < best {
                        best = self.cost[j];
                        entering = Some(j);
                    }
                }
            }
            let Some(col) = entering else {
                return Ok(iterations);
            };

            // Ratio test. Only entries comfortably above the numerical noise
            // floor are eligible pivots: dividing by a near-zero pivot would
            // amplify rounding errors across the whole tableau.
            let pivot_eligible = 1e-7_f64.max(tol);
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, row) in self.rows.iter().enumerate() {
                let a = row[col];
                if a > pivot_eligible {
                    // Guard against slightly negative right-hand sides caused
                    // by numerical drift: a negative ratio would move the
                    // basis the wrong way.
                    let ratio = (row[self.width] / a).max(0.0);
                    let accept = match leaving {
                        None => true,
                        Some(l) => {
                            if ratio < best_ratio - tol {
                                true
                            } else if ratio < best_ratio + tol {
                                if use_bland {
                                    // Bland's anti-cycling tie-break:
                                    // smallest basic index leaves.
                                    self.basis[i] < self.basis[l]
                                } else {
                                    // Numerical tie-break: prefer the larger
                                    // pivot element for stability.
                                    a > self.rows[l][col]
                                }
                            } else {
                                false
                            }
                        }
                    };
                    if accept {
                        best_ratio = best_ratio.min(ratio);
                        leaving = Some(i);
                    }
                }
            }
            let Some(row) = leaving else {
                return Err(LpError::Unbounded);
            };

            self.pivot(row, col);
            iterations += 1;
        }
    }
}

/// Solves a model on the dense two-phase tableau oracle. Options shared
/// with the revised solver (`max_iterations`, `bland_after`, `tol`) apply;
/// the revised-only ones are ignored.
///
/// Highly degenerate instances can stall the plain simplex; if the iteration
/// limit is hit, the solve is retried with a tiny deterministic right-hand
/// side perturbation (1e-8, then 1e-6 per row index) that breaks the
/// degeneracy. The perturbation changes the optimum by at most the
/// perturbation times the dual magnitudes — negligible for the LPs produced
/// by the mechanism — and is only used on the fallback path.
pub fn solve_dense(model: &Model, options: &SimplexOptions) -> Result<Solution, LpError> {
    // Retry with perturbation on both stalling (iteration limit) and on an
    // unboundedness verdict: on heavily degenerate instances accumulated
    // rounding can empty a pivot column, and the perturbed re-solve settles
    // the question from a fresh tableau.
    let retryable = |e: &LpError| matches!(e, LpError::IterationLimit { .. } | LpError::Unbounded);
    match solve_once(model, options, 0.0) {
        Err(ref e) if retryable(e) => match solve_once(model, options, 1e-8) {
            Err(ref e2) if retryable(e2) => solve_once(model, options, 1e-6),
            other => other,
        },
        other => other,
    }
}

fn solve_once(
    model: &Model,
    options: &SimplexOptions,
    perturbation: f64,
) -> Result<Solution, LpError> {
    model.validate()?;

    let minimize = model.sense == Sense::Minimize;
    let std = standardize(model, minimize, perturbation)?;
    let m = std.rows.len();
    let n = std.cols;
    let tol = options.tol;

    // Attach artificial variables where no +1 slack is available.
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    let n_artificial = std.basic_slack.iter().filter(|s| s.is_none()).count();
    let total = n + n_artificial;

    let mut next_artificial = n;
    for (row, &slack) in std.rows.iter().zip(&std.basic_slack) {
        let mut padded = vec![0.0; total + 1];
        padded[..n].copy_from_slice(&row[..n]);
        padded[total] = row[n];
        match slack {
            Some(col) => basis.push(col),
            None => {
                padded[next_artificial] = 1.0;
                basis.push(next_artificial);
                next_artificial += 1;
            }
        }
        rows.push(padded);
    }

    let mut stats = SolveStats {
        rows: m,
        cols: total,
        ..SolveStats::default()
    };

    // ---- Phase 1 ----
    let mut tableau = Tableau {
        rows,
        width: total,
        cost: {
            let mut c = vec![0.0; total + 1];
            c[n..total].fill(1.0);
            c
        },
        basis,
    };
    // Reduce the cost row over the initial basis (only artificial basics have
    // nonzero phase-1 cost).
    for i in 0..m {
        if tableau.basis[i] >= n {
            let row = tableau.rows[i].clone();
            for (c, r) in tableau.cost.iter_mut().zip(row.iter()) {
                *c -= r;
            }
        }
    }

    if n_artificial > 0 {
        stats.phase1_iterations = tableau.iterate(total, options)?;
        let phase1_obj = -tableau.cost[total];
        if phase1_obj > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive remaining artificials out of the basis.
        let mut redundant_rows: Vec<usize> = Vec::new();
        for i in 0..m {
            if tableau.basis[i] >= n {
                let mut pivot_col = None;
                for j in 0..n {
                    if tableau.rows[i][j].abs() > tol {
                        pivot_col = Some(j);
                        break;
                    }
                }
                match pivot_col {
                    Some(j) => tableau.pivot(i, j),
                    None => redundant_rows.push(i),
                }
            }
        }
        // Remove redundant rows (they are all-zero over structural columns).
        for &i in redundant_rows.iter().rev() {
            tableau.rows.remove(i);
            tableau.basis.remove(i);
        }
    }

    // ---- Phase 2 ----
    let remaining_rows = tableau.rows.len();
    let mut cost = vec![0.0; total + 1];
    cost[..n].copy_from_slice(&std.costs);
    tableau.cost = cost;
    for i in 0..remaining_rows {
        let b = tableau.basis[i];
        let c_b = tableau.cost[b];
        if c_b != 0.0 {
            let row = tableau.rows[i].clone();
            for (c, r) in tableau.cost.iter_mut().zip(row.iter()) {
                *c -= c_b * r;
            }
        }
    }
    // Artificial columns may not re-enter: restrict entering columns to the
    // first `n` columns.
    stats.phase2_iterations = tableau.iterate(n, options)?;

    // Extract standardised variable values.
    let mut x_std = vec![0.0; total];
    for (i, &b) in tableau.basis.iter().enumerate() {
        if b < total {
            x_std[b] = tableau.rows[i][total];
        }
    }

    // Map back to model variables.
    let mut values = vec![0.0; model.vars.len()];
    for (v, map) in std.var_map.iter().enumerate() {
        values[v] = match *map {
            VarMap::Shifted { col, lower } => lower + x_std[col],
            VarMap::Reflected { col, upper } => upper - x_std[col],
            VarMap::Free { pos, neg } => x_std[pos] - x_std[neg],
        };
    }
    let objective = model
        .vars
        .iter()
        .enumerate()
        .map(|(i, v)| v.objective * values[i])
        .sum();

    Ok(Solution {
        objective,
        values,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// Solves on the dense oracle and on the revised solver, which must
    /// reach the same verdict and objective; returns the oracle's answer.
    fn solve(m: &Model) -> Result<Solution, LpError> {
        let dense = solve_dense(m, &SimplexOptions::default());
        match (&dense, m.solve()) {
            (Ok(d), Ok(r)) => assert_close(d.objective, r.objective),
            (Err(d), Err(r)) => assert_eq!(*d, r),
            (d, r) => panic!("oracle says {d:?}, revised says {r:?}"),
        }
        dense
    }

    #[test]
    fn simple_minimization_with_unit_bounds() {
        // min x + 2y  s.t. x + y >= 1, 0 <= x,y <= 1  =>  x = 1, y = 0.
        let mut m = Model::minimize();
        let x = m.add_unit_var(1.0);
        let y = m.add_unit_var(2.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 1.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 1.0);
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn classic_maximization() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
        // Optimum 36 at (2, 6).
        let mut m = Model::maximize();
        let x = m.add_nonneg_var(3.0);
        let y = m.add_nonneg_var(5.0);
        m.add_le([(x, 1.0)], 4.0);
        m.add_le([(y, 2.0)], 12.0);
        m.add_le([(x, 3.0), (y, 2.0)], 18.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y  s.t. x + 2y = 4, x - y = 1, x,y >= 0. Solution x=2, y=1.
        let mut m = Model::minimize();
        let x = m.add_nonneg_var(1.0);
        let y = m.add_nonneg_var(1.0);
        m.add_eq([(x, 1.0), (y, 2.0)], 4.0);
        m.add_eq([(x, 1.0), (y, -1.0)], 1.0);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn infeasible_model_is_reported() {
        let mut m = Model::minimize();
        let x = m.add_unit_var(1.0);
        m.add_ge([(x, 1.0)], 2.0);
        match solve(&m) {
            Err(LpError::Infeasible) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_model_is_reported() {
        let mut m = Model::maximize();
        let x = m.add_nonneg_var(1.0);
        m.add_ge([(x, 1.0)], 1.0);
        match solve(&m) {
            Err(LpError::Unbounded) => {}
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn negative_lower_bounds_are_shifted() {
        // min x  s.t. x >= -3 (bound), x + y = 0, y in [0, 2]. Optimum x = -2? No:
        // y in [0,2], x = -y, so x in [-2, 0]; min x = -2.
        let mut m = Model::minimize();
        let x = m.add_var(-3.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, 2.0, 0.0);
        m.add_eq([(x, 1.0), (y, 1.0)], 0.0);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), -2.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn free_variables_are_split() {
        // min |style| objective via free variable: min z s.t. z >= x - 5,
        // z >= 5 - x, x free fixed by x = 3 -> z = 2.
        let mut m = Model::minimize();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let z = m.add_nonneg_var(1.0);
        m.add_eq([(x, 1.0)], 3.0);
        m.add_ge([(z, 1.0), (x, -1.0)], -5.0);
        m.add_ge([(z, 1.0), (x, 1.0)], 5.0);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(z), 2.0);
    }

    #[test]
    fn upper_bounded_only_variable_is_reflected() {
        // max x with x <= 7 and no lower bound, subject to x >= 1: optimum 7.
        let mut m = Model::maximize();
        let x = m.add_var(f64::NEG_INFINITY, 7.0, 1.0);
        m.add_ge([(x, 1.0)], 1.0);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 7.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many redundant constraints through the origin.
        let mut m = Model::minimize();
        let x = m.add_nonneg_var(-1.0);
        let y = m.add_nonneg_var(-1.0);
        for k in 1..=10 {
            m.add_le([(x, k as f64), (y, 1.0)], k as f64);
        }
        m.add_le([(x, 1.0)], 1.0);
        m.add_le([(y, 1.0)], 1.0);
        let s = solve(&m).unwrap();
        // Optimum at x = 1 - something... verify feasibility and objective by
        // checking against a grid search.
        let mut best = f64::INFINITY;
        let steps = 200;
        for i in 0..=steps {
            for j in 0..=steps {
                let xx = i as f64 / steps as f64;
                let yy = j as f64 / steps as f64;
                let feasible = (1..=10).all(|k| k as f64 * xx + yy <= k as f64 + 1e-9);
                if feasible {
                    best = best.min(-xx - yy);
                }
            }
        }
        assert!(s.objective <= best + 1e-6);
    }

    #[test]
    fn hinge_epigraph_minimization_matches_closed_form() {
        // The shape used by the efficient mechanism: minimize a sum of hinge
        // functions over the capped simplex.
        //   min v1 + v2
        //   v1 >= f0 + f1 - 1, v2 >= f1 + f2 - 1, v >= 0,
        //   f0 + f1 + f2 = 2, 0 <= f <= 1.
        // Put mass on f0 and f2: f = (1, 0, 1) gives v = 0. Optimum 0.
        let mut m = Model::minimize();
        let f: Vec<_> = (0..3).map(|_| m.add_unit_var(0.0)).collect();
        let v1 = m.add_nonneg_var(1.0);
        let v2 = m.add_nonneg_var(1.0);
        m.add_ge([(v1, 1.0), (f[0], -1.0), (f[1], -1.0)], -1.0);
        m.add_ge([(v2, 1.0), (f[1], -1.0), (f[2], -1.0)], -1.0);
        m.add_eq(f.iter().map(|&x| (x, 1.0)), 2.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 0.0);

        // With |f| = 3 every variable is 1 and both hinges are active.
        let mut m = Model::minimize();
        let f: Vec<_> = (0..3).map(|_| m.add_unit_var(0.0)).collect();
        let v1 = m.add_nonneg_var(1.0);
        let v2 = m.add_nonneg_var(1.0);
        m.add_ge([(v1, 1.0), (f[0], -1.0), (f[1], -1.0)], -1.0);
        m.add_ge([(v2, 1.0), (f[1], -1.0), (f[2], -1.0)], -1.0);
        m.add_eq(f.iter().map(|&x| (x, 1.0)), 3.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Model::minimize();
        let x = m.add_unit_var(1.0);
        m.add_ge([(x, 1.0)], 0.5);
        let s = solve(&m).unwrap();
        // One model row plus the explicit upper-bound row of the unit box.
        assert_eq!(s.stats.rows, 2);
        assert!(s.stats.cols >= 1);
    }

    #[test]
    fn empty_model_solves_trivially() {
        let m = Model::minimize();
        let s = solve(&m).unwrap();
        assert_close(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut m = Model::minimize();
        let x = m.add_var(2.5, 2.5, 1.0);
        let y = m.add_unit_var(1.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 3.0);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 2.5);
        assert_close(s.value(y), 0.5);
    }
}
