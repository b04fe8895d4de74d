//! Sparse bounded-variable revised simplex.
//!
//! The solver works on a [`PreparedLp`] in equality form `Ax = b`,
//! `l ≤ x ≤ u` and maintains the basis as a sparse LU factorization
//! (`crate::lu`) kept current across pivots by Forrest–Tomlin updates, so
//! per-pivot work tracks the factor nonzeros instead of `rows²`. The FTRAN
//! of each entering column saves its spike `L⁻¹a_q`, and the basis change
//! swaps that spike into `U` with one sparse row eta.
//!
//! The factorization is revalidated every
//! [`SimplexOptions::refactor_every`] pivots by an O(nnz) primal-residual
//! drift check that gates a from-scratch refactorization. It is rebuilt
//! unconditionally after [`SimplexOptions::update_cap`] updates, and when
//! an update is refused as numerically unsafe.
//! Bounds are handled natively:
//!
//! * nonbasic variables sit at a finite bound (or at 0 when free) and may
//!   enter by increasing from their lower bound or decreasing from their
//!   upper bound;
//! * the ratio test also considers the entering variable's own opposite
//!   bound — a *bound flip* changes no basis column at all;
//! * fixed variables (`l = u`) never enter.
//!
//! Warm re-entry after an RHS step is a **bounded dual simplex**. A previous
//! optimal basis stays dual feasible when only `b` moved, so a warm solve
//! first checks every nonbasic, non-fixed reduced cost against the primal
//! pricing tolerance; if the basis is dual feasible but primal infeasible,
//! dual pivots restore primal feasibility while keeping optimality: a
//! violated basic leaves at the bound it violates, and the dual ratio test
//! over row `r` of `B⁻¹N` picks the entering column (ties go to the largest
//! `|α|`).
//!
//! The leaving row is chosen by **dual steepest edge** (Forrest and
//! Goldfarb, 1992): the row maximising `violation² / β_r`, where
//! `β_r = ‖e_rᵀB⁻¹‖²`. After each dual pivot one extra FTRAN
//! `τ = B⁻¹ρ_r` updates every weight, with `β_r` recomputed exactly as
//! `ρ_r·ρ_r`. The weights travel in [`crate::Basis`] along a chain and
//! across refactorizations, and are used only while they are exact: they
//! start at 1 on the all-slack cold start (`B = I`), and any phase-1 or
//! phase-2 pivot — which has no cheap update — drops them, as does a warm
//! basis that arrives without them. The dual then falls back to the largest
//! violation, which is what weights of 1 reduce to.
//!
//! The dual reuses the primal path's basis update, drift check and
//! refactorization. It never issues a verdict: when
//! its ratio test finds no entering column, or it reaches
//! [`SimplexOptions::bland_after`] pivots, it hands its current basis to the
//! composite phase 1 below, which decides the outcome.
//!
//! Every other start — the cold all-slack basis, or a warm basis that is not
//! dual feasible (an objective change) — restores feasibility with a
//! composite (artificial-free) phase 1: basic variables outside their bounds
//! get cost `±1`, the cost vector is recomputed every iteration, and an
//! out-of-bounds basic leaves the basis at the bound it crosses. Phase 1
//! works from *any* basis and exits without a pivot when the basis is
//! already primal feasible.
//!
//! Pricing is Dantzig's rule with Bland's anti-cycling rule after
//! [`SimplexOptions::bland_after`] pivots, mirroring the dense oracle in
//! [`crate::simplex`]. Pricing, both ratio tests and the leaving-row choice
//! count scores within a relative `1e-9` as tied and keep the first
//! candidate, so a pivot path does not depend on how the LU rounds.

use crate::error::LpError;
use crate::lu::{LuFactor, Spike};
use crate::model::Model;
use crate::prepared::{Basis, BasisFactor, PreparedLp, PreparedSolution, VarStatus};
use crate::simplex::SimplexOptions;
use crate::solution::{Solution, SolveStats};

/// Bound-violation tolerance: a basic variable within this distance of its
/// bounds counts as feasible.
const FEAS_TOL: f64 = 1e-7;

/// Smallest pivot magnitude accepted by the ratio test and the
/// refactorization. Dividing by anything smaller would amplify rounding
/// errors across the basis representation.
const PIVOT_TOL: f64 = 1e-7;

/// Relative margin within which two pivot scores count as tied. Pricing,
/// both ratio tests and the leaving-row choice keep the first candidate on
/// a tie, so a pivot path does not hinge on the last bits of factorization
/// rounding: values that are equal in exact arithmetic (±1 coefficients
/// make many) choose the same way under any LU pivot order.
const TIE_REL: f64 = 1e-9;

/// Primal residual `‖b − A·x‖∞` above which the periodic drift check
/// triggers a refactorization (kept below [`FEAS_TOL`] so the factors are
/// rebuilt before drift can corrupt feasibility decisions).
const REFRESH_TOL: f64 = 1e-8;

/// Solves a [`Model`] through the revised simplex (the
/// [`crate::Model::solve`] path).
pub(crate) fn solve_model(model: &Model, options: &SimplexOptions) -> Result<Solution, LpError> {
    let prepared = PreparedLp::new(model)?;
    Ok(solve_prepared(&prepared, None, options)?.solution)
}

/// Solves a prepared LP, cold (`start = None`, all-slack basis) or warm
/// (from a previous basis).
///
/// Iteration-limit stalls and Unbounded verdicts are retried once under
/// maximum-robustness settings — Bland's rule from the first pivot, a drift
/// check after every pivot and a refactorization after every update —
/// because on heavily degenerate instances accumulated rounding can empty
/// a pivot column and fake an unbounded ray (the dense oracle guards the
/// same failure mode with its RHS-perturbation retry).
pub(crate) fn solve_prepared(
    lp: &PreparedLp,
    start: Option<&Basis>,
    options: &SimplexOptions,
) -> Result<PreparedSolution, LpError> {
    match Engine::new(lp, start, options)?.run() {
        Err(LpError::IterationLimit { .. } | LpError::Unbounded) => {
            let robust = SimplexOptions {
                bland_after: 0,
                refactor_every: 1,
                update_cap: 1,
                ..*options
            };
            Engine::new(lp, start, &robust)?.run()
        }
        other => other,
    }
}

/// Which phase the iteration loop is running.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

/// Working vectors reused across pivots, so the hot loop allocates nothing
/// per pivot.
#[derive(Default)]
struct Buffers {
    /// FTRAN image `B⁻¹a_q` of the entering column.
    col: Vec<f64>,
    /// The entering column's spike, for the basis update.
    spike: Spike,
    /// A BTRAN result: the dual vector `y`, or row `ρ_r = e_rᵀB⁻¹`.
    row: Vec<f64>,
    /// The partial BTRAN saved with `ρ_r`, for the dual pivot's update.
    partial: Vec<f64>,
    /// `τ = B⁻¹ρ_r`, the dual steepest-edge update vector.
    tau: Vec<f64>,
    /// Row `r` of `B⁻¹N`, per standardized column.
    alpha: Vec<f64>,
    /// Working space of the LU solves.
    scratch: Vec<f64>,
    /// `b − N·x_N` or `b − A·x`, for `compute_x` and the drift check.
    rhs: Vec<f64>,
}

struct Engine<'a> {
    lp: &'a PreparedLp,
    options: &'a SimplexOptions,
    m: usize,
    /// The maintained basis factorization.
    factor: LuFactor,
    basic: Vec<usize>,
    status: Vec<VarStatus>,
    /// Dual steepest-edge weights `β_r = ‖e_rᵀB⁻¹‖²` per basis row, while
    /// they are exact for the current basis; `None` after a primal pivot or
    /// on a basis that arrived without them.
    weights: Option<Vec<f64>>,
    /// Current value of every standardized column.
    x: Vec<f64>,
    /// Pivots since the last refactorization.
    since_refactor: usize,
    stats: SolveStats,
    buf: Buffers,
}

impl<'a> Engine<'a> {
    fn new(
        lp: &'a PreparedLp,
        start: Option<&Basis>,
        options: &'a SimplexOptions,
    ) -> Result<Self, LpError> {
        for &bi in &lp.b {
            if !bi.is_finite() {
                return Err(LpError::NonFiniteInput);
            }
        }
        let m = lp.nrows;
        let start = start.filter(|s| basis_is_consistent(lp, s));
        let (basic, status, inherited_factor, weights) = match start {
            Some(s) => {
                // Reuse the carried factorization when the basis was produced
                // against this exact matrix — the common chain case. The
                // hand-off is O(1): the LU base is shared behind an Arc, so
                // no O(m²) clone happens here. The steepest-edge weights
                // describe the same basis matrix, so they travel with it.
                let carried = s
                    .factor
                    .as_ref()
                    .filter(|f| f.fingerprint == lp.fingerprint && f.lu.dim() == m);
                (
                    s.basic.clone(),
                    s.status.clone(),
                    carried.map(|f| f.lu.clone()),
                    carried.and_then(|f| f.weights.clone()),
                )
            }
            None => {
                // All-slack basis; structurals at their nearest finite bound.
                let mut status = Vec::with_capacity(lp.ncols);
                for j in 0..lp.ncols {
                    status.push(if j >= lp.nvars {
                        VarStatus::Basic
                    } else {
                        initial_status(lp.lower[j], lp.upper[j])
                    });
                }
                // The all-slack basis matrix is the identity: no
                // factorization needed, and every row of B⁻¹ is a unit
                // vector, so the steepest-edge weights are exactly 1.
                (
                    (lp.nvars..lp.ncols).collect(),
                    status,
                    Some(LuFactor::identity(m)),
                    Some(vec![1.0; m]),
                )
            }
        };
        let inherited = inherited_factor.is_some() && start.is_some();
        let factor = match inherited_factor {
            Some(f) => f,
            None => match LuFactor::factorize(&lp.a, &basic, options.markowitz_threshold) {
                Ok(f) => f,
                // A singular warm basis is repaired by falling back to the
                // all-slack basis (which is the identity, always invertible).
                Err(()) => return Engine::new(lp, None, options),
            },
        };
        let mut engine = Engine {
            lp,
            options,
            m,
            factor,
            basic,
            status,
            weights,
            x: vec![0.0; lp.ncols],
            since_refactor: 0,
            stats: SolveStats {
                rows: m,
                cols: lp.ncols,
                warm_started: start.is_some(),
                ..SolveStats::default()
            },
            buf: Buffers::default(),
        };
        engine.stats.fill_in_nnz = engine.factor.nnz();
        let mut buf = std::mem::take(&mut engine.buf);
        engine.compute_x(&mut buf);
        if inherited && engine.primal_residual(&mut buf) > REFRESH_TOL {
            // The per-solve pivot counts inside a chain rarely reach the
            // periodic drift check, so an inherited factorization is
            // validated here instead: accumulated update error across the
            // chain forces a fresh factorization before it can corrupt this
            // solve.
            if engine.refactorize().is_err() {
                return Engine::new(lp, None, options);
            }
            engine.stats.refactorizations += 1;
            engine.compute_x(&mut buf);
        }
        engine.buf = buf;
        Ok(engine)
    }

    /// Rebuilds the basis factorization from scratch.
    fn refactorize(&mut self) -> Result<(), ()> {
        self.factor =
            LuFactor::factorize(&self.lp.a, &self.basic, self.options.markowitz_threshold)?;
        self.since_refactor = 0;
        self.stats.fill_in_nnz = self.stats.fill_in_nnz.max(self.factor.nnz());
        Ok(())
    }

    /// The resting value of a nonbasic column.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lp.lower[j],
            VarStatus::AtUpper => self.lp.upper[j],
            VarStatus::Free => 0.0,
            VarStatus::Basic => unreachable!("nonbasic_value on a basic column"),
        }
    }

    /// Recomputes every `x` from the basis: nonbasics at their bound, basics
    /// as `B⁻¹(b − N x_N)`.
    fn compute_x(&mut self, buf: &mut Buffers) {
        let r = &mut buf.rhs;
        r.clear();
        r.extend_from_slice(&self.lp.b);
        for j in 0..self.lp.ncols {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            self.x[j] = v;
            if v != 0.0 {
                for (i, a) in self.lp.a.col(j) {
                    r[i] -= a * v;
                }
            }
        }
        self.factor.ftran(r, &mut buf.scratch);
        for (row, &j) in self.basic.iter().enumerate() {
            self.x[j] = r[row];
        }
    }

    /// Overwrites `buf.col` with `B⁻¹ · a_j` for the entering column `j`,
    /// saving its spike in `buf.spike` for the basis update.
    fn ftran_entering(&self, j: usize, buf: &mut Buffers) {
        let w = &mut buf.col;
        w.clear();
        w.resize(self.m, 0.0);
        for (r, v) in self.lp.a.col(j) {
            w[r] += v;
        }
        self.factor
            .ftran_entering(w, &mut buf.spike, &mut buf.scratch);
    }

    /// `‖b − A·x‖∞` of the current iterate — the cheap (O(nnz)) drift
    /// signal deciding whether the basis representation needs a rebuild.
    fn primal_residual(&self, buf: &mut Buffers) -> f64 {
        let r = &mut buf.rhs;
        r.clear();
        r.extend_from_slice(&self.lp.b);
        for j in 0..self.lp.ncols {
            let xj = self.x[j];
            if xj != 0.0 {
                for (i, a) in self.lp.a.col(j) {
                    r[i] -= a * xj;
                }
            }
        }
        r.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    }

    /// Total bound violation of the basic variables; writes the phase-1
    /// cost vector (−1 below lower, +1 above upper) into `cb`.
    fn infeasibility(&self, cb: &mut Vec<f64>) -> f64 {
        let mut total = 0.0;
        cb.clear();
        cb.resize(self.m, 0.0);
        for (row, &j) in self.basic.iter().enumerate() {
            let xj = self.x[j];
            if xj < self.lp.lower[j] - FEAS_TOL {
                cb[row] = -1.0;
                total += self.lp.lower[j] - xj;
            } else if xj > self.lp.upper[j] + FEAS_TOL {
                cb[row] = 1.0;
                total += xj - self.lp.upper[j];
            }
        }
        total
    }

    /// Overwrites `cb` with the phase-2 costs of the basic columns.
    fn basic_costs(&self, cb: &mut Vec<f64>) {
        cb.clear();
        cb.extend(self.basic.iter().map(|&j| self.lp.cost[j]));
    }

    /// Reduced costs `c_j − a_jᵀy` of every column for the phase-2 objective
    /// (0 for basics) — the same arithmetic as phase-2 pricing, so the dual
    /// entry test agrees bit for bit with what pricing would see.
    fn reduced_costs(&self, buf: &mut Buffers) -> Vec<f64> {
        let y = &mut buf.row;
        self.basic_costs(y);
        self.factor.btran(y, &mut buf.scratch);
        (0..self.lp.ncols)
            .map(|j| match self.status[j] {
                VarStatus::Basic => 0.0,
                _ => self.lp.cost[j] - self.lp.a.col_dot(j, y),
            })
            .collect()
    }

    /// Whether column `j` can never enter: basic, or fixed by its bounds.
    fn is_frozen(&self, j: usize) -> bool {
        self.status[j] == VarStatus::Basic || self.lp.lower[j] == self.lp.upper[j]
    }

    /// The dual leaving row among basics violating a bound by more than
    /// [`FEAS_TOL`], with the bound its variable leaves at: the largest
    /// `violation² / β_r` while the steepest-edge weights are exact, else
    /// the largest violation (what weights of 1 reduce to). Lowest row on
    /// ties.
    fn leaving_row(&self) -> Option<(usize, f64, VarStatus)> {
        let mut best: Option<(usize, f64, VarStatus)> = None;
        let mut best_score = 0.0;
        for (row, &j) in self.basic.iter().enumerate() {
            let xj = self.x[j];
            let (violation, target, status) = if xj < self.lp.lower[j] {
                (self.lp.lower[j] - xj, self.lp.lower[j], VarStatus::AtLower)
            } else if xj > self.lp.upper[j] {
                (xj - self.lp.upper[j], self.lp.upper[j], VarStatus::AtUpper)
            } else {
                continue;
            };
            if violation <= FEAS_TOL {
                continue;
            }
            let score = match &self.weights {
                Some(beta) => violation * violation / beta[row],
                None => violation,
            };
            if best.is_none() || score > best_score * (1.0 + TIE_REL) {
                best_score = score;
                best = Some((row, target, status));
            }
        }
        best
    }

    /// Dual simplex re-entry from a warm basis; returns its pivot count.
    ///
    /// Runs only when the basis is dual feasible for the current costs
    /// (every nonbasic, non-fixed reduced cost passes the primal pricing
    /// tolerance) and primal infeasible; otherwise it pivots nothing. It
    /// stops without a verdict when the basis turns primal feasible, when
    /// the ratio test finds no entering column, or after
    /// [`SimplexOptions::bland_after`] pivots — the composite phase 1 that
    /// follows takes over from whatever basis it leaves.
    fn dual(&mut self) -> Result<usize, LpError> {
        let mut buf = std::mem::take(&mut self.buf);
        let result = self.dual_with(&mut buf);
        self.buf = buf;
        result
    }

    fn dual_with(&mut self, buf: &mut Buffers) -> Result<usize, LpError> {
        let tol = self.options.tol;
        let pivot_tol = PIVOT_TOL.max(tol);
        let limit = self.options.bland_after.min(self.options.max_iterations);
        if limit == 0 || self.leaving_row().is_none() {
            return Ok(0);
        }
        let mut d = self.reduced_costs(buf);
        let dual_feasible = (0..self.lp.ncols).all(|j| {
            self.is_frozen(j)
                || match self.status[j] {
                    VarStatus::AtLower => -d[j] <= tol,
                    VarStatus::AtUpper => d[j] <= tol,
                    _ => d[j].abs() <= tol,
                }
        });
        if !dual_feasible {
            return Ok(0);
        }
        buf.alpha.resize(self.lp.ncols, 0.0);
        let mut iterations = 0usize;
        while iterations < limit {
            let Some((r, target, leave_status)) = self.leaving_row() else {
                break;
            };
            // Row r of B⁻¹N. The leaving basic moves down onto its upper
            // bound (sign +1) or up onto its lower bound (sign −1).
            let rho = &mut buf.row;
            self.factor
                .btran_unit(r, rho, &mut buf.partial, &mut buf.scratch);
            let sign = if leave_status == VarStatus::AtUpper {
                1.0
            } else {
                -1.0
            };
            let alpha = &mut buf.alpha;
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..self.lp.ncols {
                if self.is_frozen(j) {
                    continue;
                }
                let aj = self.lp.a.col_dot(j, rho);
                alpha[j] = aj;
                let signed = sign * aj;
                // Eligible columns are those whose reduced cost moves
                // toward zero as the dual step grows.
                let slack = match self.status[j] {
                    VarStatus::AtLower if signed > pivot_tol => d[j].max(0.0),
                    VarStatus::AtUpper if signed < -pivot_tol => (-d[j]).max(0.0),
                    VarStatus::Free if signed.abs() > pivot_tol => d[j].abs(),
                    _ => continue,
                };
                let ratio = slack / signed.abs();
                let accept = match entering {
                    None => true,
                    Some(e) => {
                        ratio < best_ratio - tol
                            || (ratio < best_ratio + tol
                                && aj.abs() > alpha[e].abs() * (1.0 + TIE_REL))
                    }
                };
                if accept {
                    best_ratio = best_ratio.min(ratio);
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                break;
            };
            self.ftran_entering(q, buf);
            if buf.col[r].abs() <= pivot_tol {
                break;
            }
            self.update_weights(r, buf);
            // Move the entering column so the leaving basic lands exactly on
            // its violated bound, then update the reduced costs for the new
            // basis (the leaving column's becomes −θ).
            let step = (self.x[self.basic[r]] - target) / buf.col[r];
            let theta = d[q] / buf.alpha[q];
            for (j, (dj, &aj)) in d.iter_mut().zip(&buf.alpha).enumerate() {
                if !self.is_frozen(j) {
                    *dj -= theta * aj;
                }
            }
            let out = self.basic[r];
            self.step_basics(step, &buf.col);
            let refactored = self.swap_in(r, q, leave_status, step, buf, true)?;
            d[q] = 0.0;
            d[out] = -theta;
            if refactored {
                d = self.reduced_costs(buf);
            }
            iterations += 1;
        }
        Ok(iterations)
    }

    /// Dual steepest-edge update for a pivot on row `r` (Forrest and
    /// Goldfarb, 1992), before the basis changes: with `ρ_r` in `buf.row`
    /// and the entering column's image `w` in `buf.col`, one extra FTRAN
    /// `τ = B⁻¹ρ_r` gives every new weight
    /// `β_i ← β_i − 2(w_i/w_r)τ_i + (w_i/w_r)²β_r` and `β_r ← β_r/w_r²`,
    /// with `β_r = ρ_r·ρ_r` recomputed exactly. No-op without weights.
    fn update_weights(&mut self, r: usize, buf: &mut Buffers) {
        let Some(beta) = self.weights.as_mut() else {
            return;
        };
        let (rho, w, tau) = (&buf.row, &buf.col, &mut buf.tau);
        let beta_r: f64 = rho.iter().map(|v| v * v).sum();
        tau.clear();
        tau.extend_from_slice(rho);
        self.factor.ftran(tau, &mut buf.scratch);
        // The new row i of B⁻¹ has component −w_i/w_r along the leaving
        // column, so its squared norm is at least (w_i/w_r)²/‖a_out‖²:
        // a floor that keeps rounding from driving a weight to zero.
        let out_norm2: f64 = self.lp.a.col(self.basic[r]).map(|(_, v)| v * v).sum();
        let (inv_wr, inv_norm2) = (1.0 / w[r], 1.0 / out_norm2);
        for (i, (b, (&wi, &ti))) in beta.iter_mut().zip(w.iter().zip(tau.iter())).enumerate() {
            if i == r || wi == 0.0 {
                continue;
            }
            let ratio = wi * inv_wr;
            *b = (*b + ratio * (ratio * beta_r - 2.0 * ti)).max(ratio * ratio * inv_norm2);
        }
        beta[r] = beta_r * inv_wr * inv_wr;
    }

    fn run(mut self) -> Result<PreparedSolution, LpError> {
        if self.stats.warm_started {
            self.stats.dual_iterations = self.dual()?;
        }
        self.stats.phase1_iterations = self.iterate(Phase::One)?;
        self.stats.phase2_iterations = self.iterate(Phase::Two)?;

        let values = self.x[..self.lp.nvars].to_vec();
        let objective = self.lp.user_objective_value(&values);
        Ok(PreparedSolution {
            solution: Solution {
                objective,
                values,
                stats: self.stats,
            },
            basis: Basis {
                basic: self.basic,
                status: self.status,
                factor: Some(BasisFactor {
                    lu: self.factor,
                    fingerprint: self.lp.fingerprint,
                    weights: self.weights,
                }),
            },
        })
    }

    /// Runs simplex iterations for one phase; returns the pivot count.
    fn iterate(&mut self, phase: Phase) -> Result<usize, LpError> {
        let mut buf = std::mem::take(&mut self.buf);
        let result = self.iterate_with(phase, &mut buf);
        self.buf = buf;
        result
    }

    fn iterate_with(&mut self, phase: Phase, buf: &mut Buffers) -> Result<usize, LpError> {
        let tol = self.options.tol;
        let pivot_tol = PIVOT_TOL.max(tol);
        let mut iterations = 0usize;
        loop {
            // Phase-dependent cost of the current basis. Phase-1 costs depend
            // on which basics are out of bounds, so they are recomputed every
            // iteration.
            let y = &mut buf.row;
            match phase {
                Phase::One => {
                    if self.infeasibility(y) <= FEAS_TOL {
                        return Ok(iterations);
                    }
                }
                Phase::Two => self.basic_costs(y),
            }
            if iterations >= self.options.max_iterations {
                return Err(LpError::IterationLimit {
                    limit: self.options.max_iterations,
                });
            }
            let use_bland = iterations >= self.options.bland_after;
            self.factor.btran(y, &mut buf.scratch);

            // Pricing: pick an entering nonbasic column whose reduced cost
            // improves the phase objective in its admissible direction.
            let mut entering: Option<(usize, f64)> = None; // (col, direction)
            let mut best_score = tol;
            for j in 0..self.lp.ncols {
                if self.is_frozen(j) {
                    continue;
                }
                let cj = match phase {
                    Phase::One => 0.0,
                    Phase::Two => self.lp.cost[j],
                };
                let d = cj - self.lp.a.col_dot(j, y);
                let (score, dir) = match self.status[j] {
                    VarStatus::AtLower => (-d, 1.0),
                    VarStatus::AtUpper => (d, -1.0),
                    VarStatus::Free => (d.abs(), if d < 0.0 { 1.0 } else { -1.0 }),
                    VarStatus::Basic => unreachable!(),
                };
                if score > tol {
                    if use_bland {
                        entering = Some((j, dir));
                        break;
                    }
                    if score > best_score * (1.0 + TIE_REL) {
                        best_score = score;
                        entering = Some((j, dir));
                    }
                }
            }
            let Some((q, dir)) = entering else {
                return match phase {
                    // Phase-1 optimum with residual infeasibility (checked at
                    // the top of the loop): no feasible point exists.
                    Phase::One => Err(LpError::Infeasible),
                    Phase::Two => Ok(iterations),
                };
            };

            self.ftran_entering(q, buf);
            let w = &buf.col;

            // Ratio test. The entering variable moves by `t ≥ 0` in direction
            // `dir`; basic `row` changes as `x − t·dir·w[row]`. The entering
            // variable's own opposite bound caps the step (a *bound flip*
            // when nothing blocks earlier); with any infinite bound the range
            // is infinite.
            let mut t_best = self.lp.upper[q] - self.lp.lower[q];
            let mut leaving: Option<(usize, VarStatus)> = None;
            for row in 0..self.m {
                let wi = w[row];
                if wi.abs() <= pivot_tol {
                    continue;
                }
                let j = self.basic[row];
                let xj = self.x[j];
                let delta = dir * wi; // x_Bj decreases at rate `delta` per unit t
                let (target, leave_status) = if delta > 0.0 {
                    if phase == Phase::One && xj < self.lp.lower[j] - FEAS_TOL {
                        // Already below its lower bound and moving further
                        // down: the phase-1 cost accounts for it linearly, so
                        // it never blocks.
                        continue;
                    }
                    if phase == Phase::One && xj > self.lp.upper[j] + FEAS_TOL {
                        // Above its upper bound, moving down: it leaves when
                        // it *reaches* the violated bound.
                        (self.lp.upper[j], VarStatus::AtUpper)
                    } else {
                        (self.lp.lower[j], VarStatus::AtLower)
                    }
                } else {
                    if phase == Phase::One && xj > self.lp.upper[j] + FEAS_TOL {
                        continue;
                    }
                    if phase == Phase::One && xj < self.lp.lower[j] - FEAS_TOL {
                        (self.lp.lower[j], VarStatus::AtLower)
                    } else {
                        (self.lp.upper[j], VarStatus::AtUpper)
                    }
                };
                if !target.is_finite() {
                    continue;
                }
                let ratio = ((xj - target) / delta).max(0.0);
                let accept = match leaving {
                    None => ratio < t_best + tol,
                    Some((l, _)) => {
                        if ratio < t_best - tol {
                            true
                        } else if ratio < t_best + tol {
                            if use_bland {
                                // Bland's tie-break: smallest basic index
                                // leaves.
                                self.basic[row] < self.basic[l]
                            } else {
                                // Stability tie-break: larger pivot element.
                                wi.abs() > w[l].abs() * (1.0 + TIE_REL)
                            }
                        } else {
                            false
                        }
                    }
                };
                if accept {
                    t_best = t_best.min(ratio);
                    leaving = Some((row, leave_status));
                }
            }

            if t_best.is_infinite() {
                return match phase {
                    // A phase-1 objective is bounded below by zero, so an
                    // unblocked improving ray can only be numerical noise;
                    // report a stall so the Bland retry takes over.
                    Phase::One => Err(LpError::IterationLimit {
                        limit: self.options.max_iterations,
                    }),
                    Phase::Two => Err(LpError::Unbounded),
                };
            }

            // Apply the step.
            let t = t_best;
            self.step_basics(t * dir, w);
            match leaving {
                None => {
                    // Bound flip: the entering variable runs to its opposite
                    // bound; the basis is unchanged.
                    self.status[q] = if dir > 0.0 {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.x[q] = self.nonbasic_value(q);
                    self.stats.bound_flips += 1;
                }
                Some((row, leave_status)) => {
                    // A primal pivot has no cheap steepest-edge update: the
                    // weights stop being exact, and later dual re-entries
                    // fall back to the largest violation.
                    self.weights = None;
                    self.swap_in(row, q, leave_status, dir * t, buf, false)?;
                }
            }
            iterations += 1;
        }
    }

    /// Moves the basics along the entering column's FTRAN image `w` for a
    /// signed entering step `step` (`x_B −= step·w`).
    fn step_basics(&mut self, step: f64, w: &[f64]) {
        if step != 0.0 {
            for (&j, &wi) in self.basic.iter().zip(w) {
                self.x[j] -= step * wi;
            }
        }
    }

    /// Swaps entering column `q` (moved by `step` from its resting value)
    /// into the basis at `row`, whose basic leaves at `leave_status`. Applies
    /// the Forrest–Tomlin update from the entering FTRAN in `buf` (and,
    /// when `with_partial`, the partial BTRAN saved with `ρ_row`) and the
    /// drift-gated refactorization; returns whether the basis was
    /// refactorized (which recomputes `x`).
    fn swap_in(
        &mut self,
        row: usize,
        q: usize,
        leave_status: VarStatus,
        step: f64,
        buf: &mut Buffers,
        with_partial: bool,
    ) -> Result<bool, LpError> {
        let out = self.basic[row];
        self.x[q] = self.nonbasic_value(q) + step;
        self.status[out] = leave_status;
        // Snap the leaving variable exactly onto its bound to stop drift
        // accumulating along a chain of pivots.
        self.x[out] = match leave_status {
            VarStatus::AtLower => self.lp.lower[out],
            VarStatus::AtUpper => self.lp.upper[out],
            _ => unreachable!("leaving variable always lands on a bound"),
        };
        self.basic[row] = q;
        self.status[q] = VarStatus::Basic;
        let partial = with_partial.then_some(&buf.partial[..]);
        let refused = self
            .factor
            .update(row, buf.col[row], &buf.spike, partial, &mut buf.scratch)
            .is_err();
        self.stats.basis_updates += 1;
        self.since_refactor += 1;
        // Updates are bounded: hitting the cap forces a refactorization
        // regardless of drift (the row etas and the updated columns grow,
        // and their error compounds). A refused update leaves the factor on
        // the old basis, so it forces one too.
        let forced = refused || self.factor.pending_updates() >= self.options.update_cap.max(1);
        if forced || self.since_refactor >= self.options.refactor_every.max(1) {
            self.since_refactor = 0;
            // Refactorizing from scratch is expensive, so outside the cap it
            // is gated on an O(nnz) drift check: only a primal residual above
            // tolerance triggers the rebuild. Well-scaled instances (the
            // mechanism's ±1-coefficient LPs) essentially never pay it.
            if forced || self.primal_residual(buf) > REFRESH_TOL {
                if self.refactorize().is_err() {
                    return Err(LpError::IterationLimit {
                        limit: self.options.max_iterations,
                    });
                }
                self.stats.refactorizations += 1;
                self.compute_x(buf);
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Initial nonbasic status for a structural variable given its bounds.
fn initial_status(lower: f64, upper: f64) -> VarStatus {
    if lower.is_finite() {
        VarStatus::AtLower
    } else if upper.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::Free
    }
}

/// Structural sanity of a warm basis: right shapes, exactly the basic
/// columns flagged `Basic`, and every nonbasic resting on a bound that
/// exists.
fn basis_is_consistent(lp: &PreparedLp, basis: &Basis) -> bool {
    if basis.basic.len() != lp.nrows || basis.status.len() != lp.ncols {
        return false;
    }
    let mut seen = vec![false; lp.ncols];
    for &j in &basis.basic {
        if j >= lp.ncols || seen[j] || basis.status[j] != VarStatus::Basic {
            return false;
        }
        seen[j] = true;
    }
    for (j, &s) in basis.status.iter().enumerate() {
        match s {
            VarStatus::Basic => {
                if !seen[j] {
                    return false;
                }
            }
            VarStatus::AtLower => {
                if !lp.lower[j].is_finite() {
                    return false;
                }
            }
            VarStatus::AtUpper => {
                if !lp.upper[j].is_finite() {
                    return false;
                }
            }
            VarStatus::Free => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    /// The dense tableau oracle's solution of a model.
    fn tableau(m: &Model) -> Solution {
        crate::simplex::solve_dense(m, &opts()).unwrap()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// The H-style family: hinges over the capped simplex with a mass row.
    fn hinge_family(mass: f64) -> Model {
        let mut m = Model::minimize();
        let f: Vec<_> = (0..5).map(|_| m.add_unit_var(0.0)).collect();
        // Mass row first so set_rhs(0, i) steps the chain.
        m.add_eq(f.iter().map(|&x| (x, 1.0)), mass);
        for window in f.windows(3) {
            let v = m.add_nonneg_var(1.0);
            let mut terms = vec![(v, -1.0)];
            terms.extend(window.iter().map(|&x| (x, 1.0)));
            m.add_le(terms, 2.0);
        }
        m
    }

    #[test]
    fn boxed_variables_take_no_extra_rows_or_columns() {
        let mut m = Model::minimize();
        let x = m.add_unit_var(-1.0);
        let y = m.add_var(-2.0, 3.0, 1.0);
        m.add_le([(x, 1.0), (y, 1.0)], 2.0);
        let prepared = m.prepare().unwrap();
        // 2 structural + 1 slack, 1 row: bounds are native, not rows.
        assert_eq!(prepared.num_rows(), 1);
        assert_eq!(prepared.num_cols(), 3);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), -2.0);
        assert_close(s.objective, -3.0);
    }

    #[test]
    fn warm_start_after_rhs_step_skips_phase_one() {
        let m = hinge_family(1.0);
        let mut prepared = m.prepare().unwrap();
        let first = prepared.solve(&opts()).unwrap();
        assert!(!first.solution.stats.warm_started);

        prepared.set_rhs(0, 2.0);
        let second = prepared.solve_warm(&first.basis, &opts()).unwrap();
        assert!(second.solution.stats.warm_started);
        // The dense oracle agrees on the stepped instance.
        let oracle = tableau(&hinge_family(2.0));
        assert_close(second.solution.objective, oracle.objective);
    }

    #[test]
    fn warm_chain_matches_cold_solves_and_spends_fewer_pivots() {
        let options = opts();
        let mut prepared = hinge_family(0.0).prepare().unwrap();
        let mut basis: Option<crate::Basis> = None;
        let mut warm_pivots = 0usize;
        let mut cold_pivots = 0usize;
        for i in 0..=5usize {
            prepared.set_rhs(0, i as f64);
            let warm = match &basis {
                None => prepared.solve(&options).unwrap(),
                Some(b) => prepared.solve_warm(b, &options).unwrap(),
            };
            let cold = prepared.solve(&options).unwrap();
            assert_close(warm.solution.objective, cold.solution.objective);
            warm_pivots += warm.solution.stats.total_iterations();
            cold_pivots += cold.solution.stats.total_iterations();
            basis = Some(warm.basis);
        }
        assert!(
            warm_pivots < cold_pivots,
            "warm chain spent {warm_pivots} pivots vs cold {cold_pivots}"
        );
    }

    #[test]
    fn rhs_chains_reenter_through_the_dual_simplex() {
        let options = opts();
        let mut prepared = hinge_family(0.0).prepare().unwrap();
        let mut basis = prepared.solve(&options).unwrap().basis;
        let mut dual_pivots = 0usize;
        for i in 1..=5usize {
            prepared.set_rhs(0, i as f64);
            let warm = prepared.solve_warm(&basis, &options).unwrap();
            let stats = warm.solution.stats;
            assert!(stats.warm_started);
            assert_eq!(stats.phase1_iterations, 0, "entry {i} took phase 1");
            // Dual pivots keep the basis dual feasible: primal feasible
            // means optimal, with nothing left for phase 2.
            assert_eq!(stats.phase2_iterations, 0, "entry {i} took phase 2");
            dual_pivots += stats.dual_iterations;
            let cold = prepared.solve(&options).unwrap();
            assert_eq!(cold.solution.stats.dual_iterations, 0);
            assert_close(warm.solution.objective, cold.solution.objective);
            basis = warm.basis;
        }
        assert!(dual_pivots > 0, "the chain never pivoted in the dual");
    }

    #[test]
    fn a_dual_infeasible_warm_basis_takes_the_composite_phase_one() {
        // min x + 2y  s.t.  x + y = m,  x, y ∈ [0, 5]. At m = 1 the optimum
        // keeps x basic and y at its lower bound.
        let model = |cy: f64, mass: f64| {
            let mut m = Model::minimize();
            let x = m.add_var(0.0, 5.0, 1.0);
            let y = m.add_var(0.0, 5.0, cy);
            m.add_eq([(x, 1.0), (y, 1.0)], mass);
            (m, y)
        };
        let options = opts();
        let (m, y) = model(2.0, 1.0);
        let mut prepared = m.prepare().unwrap();
        let first = prepared.solve(&options).unwrap();
        // y turns cheap (its reduced cost goes negative at its lower
        // bound) and x = 7 breaks its box: dual and primal infeasible.
        prepared.set_objective(y, 0.5);
        prepared.set_rhs(0, 7.0);
        let warm = prepared.solve_warm(&first.basis, &options).unwrap();
        assert!(warm.solution.stats.warm_started);
        assert_eq!(warm.solution.stats.dual_iterations, 0);
        assert!(warm.solution.stats.phase1_iterations > 0);
        let cold = prepared.solve(&options).unwrap();
        assert_close(warm.solution.objective, cold.solution.objective);
        let oracle = tableau(&model(0.5, 7.0).0);
        assert_close(warm.solution.objective, oracle.objective);
        assert_close(warm.solution.objective, 4.5);
    }

    #[test]
    fn an_rhs_step_beyond_the_box_is_still_infeasible() {
        let options = opts();
        let mut prepared = hinge_family(4.0).prepare().unwrap();
        let first = prepared.solve(&options).unwrap();
        // Five unit variables cannot carry mass 6.
        prepared.set_rhs(0, 6.0);
        match prepared.solve_warm(&first.basis, &options) {
            Err(LpError::Infeasible) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn set_objective_changes_are_picked_up() {
        let mut m = Model::minimize();
        let x = m.add_unit_var(1.0);
        let y = m.add_unit_var(2.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 1.0);
        let mut prepared = m.prepare().unwrap();
        let first = prepared.solve(&opts()).unwrap();
        assert_close(first.solution.objective, 1.0);
        // Make y the cheap variable; the optimum flips to y = 1.
        prepared.set_objective(y, 0.5);
        let second = prepared.solve_warm(&first.basis, &opts()).unwrap();
        assert_close(second.solution.objective, 0.5);
        assert_close(second.solution.values[y.index()], 1.0);
    }

    #[test]
    fn infeasible_and_unbounded_verdicts_survive_warm_starts() {
        let mut m = Model::minimize();
        let x = m.add_unit_var(1.0);
        m.add_ge([(x, 1.0)], 0.5);
        let mut prepared = m.prepare().unwrap();
        let sol = prepared.solve(&opts()).unwrap();
        // Step the RHS beyond the box: infeasible from the warm basis.
        prepared.set_rhs(0, 2.0);
        match prepared.solve_warm(&sol.basis, &opts()) {
            Err(LpError::Infeasible) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }

        let mut m = Model::maximize();
        let x = m.add_nonneg_var(1.0);
        m.add_ge([(x, 1.0)], 1.0);
        match m.solve() {
            Err(LpError::Unbounded) => {}
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn a_stale_basis_from_another_shape_falls_back_to_cold() {
        let small = hinge_family(1.0).prepare().unwrap();
        let small_solution = small.solve(&opts()).unwrap();
        let mut other = Model::minimize();
        let x = other.add_unit_var(1.0);
        other.add_ge([(x, 1.0)], 0.25);
        let other = other.prepare().unwrap();
        let sol = other.solve_warm(&small_solution.basis, &opts()).unwrap();
        assert_close(sol.solution.objective, 0.25);
        assert!(!sol.solution.stats.warm_started);
    }

    #[test]
    fn unconstrained_model_settles_on_bounds() {
        // No rows at all: every variable just runs to its cheaper bound.
        let mut m = Model::minimize();
        let x = m.add_var(-1.0, 2.0, 1.0);
        let y = m.add_var(-3.0, 4.0, -1.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), -1.0);
        assert_close(s.value(y), 4.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn free_variable_without_constraints_is_unbounded() {
        let mut m = Model::minimize();
        m.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        match m.solve() {
            Err(LpError::Unbounded) => {}
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn refactorization_interval_does_not_change_the_optimum() {
        let m = hinge_family(3.5);
        let baseline = m.solve().unwrap();
        let frequent = m
            .solve_with(&SimplexOptions {
                refactor_every: 1,
                ..opts()
            })
            .unwrap();
        assert_close(baseline.objective, frequent.objective);
        assert!(frequent.stats.refactorizations >= baseline.stats.refactorizations);
    }

    #[test]
    fn a_tight_update_cap_does_not_change_the_optimum() {
        let m = hinge_family(3.5);
        let baseline = m.solve().unwrap();
        let capped = m
            .solve_with(&SimplexOptions {
                update_cap: 1,
                ..opts()
            })
            .unwrap();
        assert_close(baseline.objective, capped.objective);
        // Every pivot past the first forces a refactorization.
        assert!(capped.stats.refactorizations >= baseline.stats.refactorizations);
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        let mut m = Model::minimize();
        let x = m.add_var(2.5, 2.5, -10.0);
        let y = m.add_unit_var(1.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 3.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 2.5);
        assert_close(s.value(y), 0.5);
    }

    #[test]
    fn negative_rhs_rows_are_handled_without_sign_normalisation() {
        // min x  s.t.  -x <= -2  (i.e. x >= 2), x in [0, 5].
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 5.0, 1.0);
        m.add_le([(x, -1.0)], -2.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 2.0);
    }

    #[test]
    fn sparse_lu_and_tableau_agree_on_the_mechanism_shape() {
        for mass in [0.0, 1.0, 2.5, 4.0, 5.0] {
            let m = hinge_family(mass);
            let sparse = m.solve().unwrap();
            let tableau = tableau(&m);
            assert!(
                (sparse.objective - tableau.objective).abs() < 1e-7,
                "mass {mass}: sparse {} vs tableau {}",
                sparse.objective,
                tableau.objective
            );
        }
    }

    #[test]
    fn warm_handoff_shares_the_lu_base_without_deep_copies() {
        let prepared = hinge_family(2.0).prepare().unwrap();
        let first = prepared.solve(&opts()).unwrap();
        // Re-solving the unchanged instance warm needs zero pivots, so the
        // carried factorization must be reused as-is (same Arc), not cloned.
        let second = prepared.solve_warm(&first.basis, &opts()).unwrap();
        assert_eq!(second.solution.stats.total_iterations(), 0);
        let (Some(a), Some(b)) = (&first.basis.factor, &second.basis.factor) else {
            panic!("both solves must carry factors");
        };
        assert!(
            a.lu.shares_base_with(&b.lu),
            "LU base was deep-copied on hand-off"
        );
    }

    #[test]
    fn warm_solves_branching_from_one_basis_leave_it_intact() {
        // A family run keeps its first basis (for refresh seeds) while the
        // chain re-enters from the same basis: the first update of each
        // branch must copy the shared factors, not write through them.
        let options = opts();
        let mut prepared = hinge_family(0.0).prepare().unwrap();
        let cold = prepared.solve(&options).unwrap();
        prepared.set_rhs(0, 1.0);
        let root = prepared.solve_warm(&cold.basis, &options).unwrap();
        let root_lu = &root.basis.factor.as_ref().unwrap().lu;
        let root_updates = root_lu.pending_updates();
        assert!(root_updates > 0, "the root basis carries updates");
        for mass in [2.0, 4.0] {
            prepared.set_rhs(0, mass);
            let branch = prepared.solve_warm(&root.basis, &options).unwrap();
            assert!(branch.solution.stats.dual_iterations > 0);
            assert_close(
                branch.solution.objective,
                tableau(&hinge_family(mass)).objective,
            );
            assert!(!branch.basis.factor.unwrap().lu.shares_base_with(root_lu));
        }
        // The root still factors its own basis: B⁻¹·a_basic[k] = e_k.
        assert_eq!(root_lu.pending_updates(), root_updates);
        let m = prepared.num_rows();
        for (k, &j) in root.basis.basic.iter().enumerate() {
            let mut col = vec![0.0; m];
            for (i, v) in prepared.a.col(j) {
                col[i] += v;
            }
            root_lu.ftran(&mut col, &mut Vec::new());
            for (i, x) in col.iter().enumerate() {
                assert_close(*x, if i == k { 1.0 } else { 0.0 });
            }
        }
        prepared.set_rhs(0, 1.0);
        let again = prepared.solve_warm(&root.basis, &options).unwrap();
        assert_eq!(again.solution.stats.total_iterations(), 0);
        assert_close(again.solution.objective, root.solution.objective);
    }

    /// Refuses every basis update on this thread while alive.
    struct RefuseUpdates;

    impl RefuseUpdates {
        fn new() -> Self {
            crate::lu::REFUSE_UPDATES.with(|r| r.set(true));
            RefuseUpdates
        }
    }

    impl Drop for RefuseUpdates {
        fn drop(&mut self) {
            crate::lu::REFUSE_UPDATES.with(|r| r.set(false));
        }
    }

    #[test]
    fn refused_updates_refactorize_and_still_match_the_tableau() {
        let _refuse = RefuseUpdates::new();
        let options = opts();
        // Primal pivots (a cold solve) and dual pivots (a chain step).
        let primal = hinge_family(3.0).solve().unwrap();
        let mut prepared = hinge_family(0.0).prepare().unwrap();
        let mut basis = prepared.solve(&options).unwrap().basis;
        prepared.set_rhs(0, 3.0);
        let dual = prepared.solve_warm(&basis, &options).unwrap();
        assert!(dual.solution.stats.dual_iterations > 0);
        basis = dual.basis;
        for stats in [primal.stats, dual.solution.stats] {
            assert!(stats.basis_updates > 0);
            // Every refused update forces a counted refactorization.
            assert!(stats.refactorizations >= stats.basis_updates, "{stats:?}");
        }
        let oracle = tableau(&hinge_family(3.0)).objective;
        assert_close(primal.objective, oracle);
        assert_close(dual.solution.objective, oracle);
        // The refactorized basis carries a fresh factor with no updates.
        assert_eq!(basis.factor.unwrap().lu.pending_updates(), 0);
    }

    #[test]
    fn a_warm_basis_without_a_factor_is_refactorized_on_entry() {
        let options = opts();
        let mut prepared = hinge_family(1.0).prepare().unwrap();
        let first = prepared.solve(&options).unwrap();
        prepared.set_rhs(0, 2.0);
        // A basis stripped of its factor must refactorize on entry and still
        // agree with cold.
        let stripped = Basis {
            basic: first.basis.basic.clone(),
            status: first.basis.status.clone(),
            factor: None,
        };
        let warm = prepared.solve_warm(&stripped, &options).unwrap();
        assert!(warm.solution.stats.warm_started);
        let cold = prepared.solve(&options).unwrap();
        assert_close(warm.solution.objective, cold.solution.objective);
    }

    #[test]
    fn lu_solves_report_fill_in_and_update_counters() {
        let s = hinge_family(3.0).solve().unwrap();
        assert!(s.stats.fill_in_nnz > 0, "sparse solves track factor nnz");
        assert!(
            s.stats.basis_updates
                >= s.stats
                    .phase2_iterations
                    .saturating_sub(s.stats.bound_flips),
            "every true pivot applies one basis update"
        );
    }

    /// `‖e_rᵀB⁻¹‖²` for every row, by one BTRAN per row of the carried
    /// factorization.
    fn exact_weights(basis: &Basis) -> Vec<f64> {
        let lu = &basis.factor.as_ref().expect("solves carry factors").lu;
        let m = lu.dim();
        (0..m)
            .map(|r| {
                let mut rho = vec![0.0; m];
                rho[r] = 1.0;
                lu.btran(&mut rho, &mut Vec::new());
                rho.iter().map(|v| v * v).sum()
            })
            .collect()
    }

    fn weights(basis: &Basis) -> Option<&Vec<f64>> {
        basis.factor.as_ref().and_then(|f| f.weights.as_ref())
    }

    #[test]
    fn a_refactorizing_cold_chain_keeps_exact_weights() {
        // A one-update cap refactorizes after every pivot; the weights must
        // survive each rebuild and stay exact.
        let options = SimplexOptions {
            update_cap: 1,
            ..opts()
        };
        let mut prepared = hinge_family(0.0).prepare().unwrap();
        let first = prepared.solve(&options).unwrap();
        assert_eq!(first.solution.stats.total_iterations(), 0);
        assert_eq!(weights(&first.basis), Some(&vec![1.0; prepared.num_rows()]));
        let mut basis = first.basis;
        let (mut dual_pivots, mut refactorizations) = (0, 0);
        for i in 1..=5usize {
            prepared.set_rhs(0, i as f64);
            let warm = prepared.solve_warm(&basis, &options).unwrap();
            let stats = warm.solution.stats;
            assert_eq!(stats.phase1_iterations + stats.phase2_iterations, 0);
            dual_pivots += stats.dual_iterations;
            refactorizations += stats.refactorizations;
            assert_close(
                warm.solution.objective,
                tableau(&hinge_family(i as f64)).objective,
            );
            let carried = weights(&warm.basis).expect("dual pivots keep the weights");
            for (got, want) in carried.iter().zip(exact_weights(&warm.basis)) {
                assert!(
                    (got - want).abs() <= 1e-9 * want,
                    "entry {i}: {got} vs {want}"
                );
            }
            basis = warm.basis;
        }
        assert!(dual_pivots > 0 && refactorizations > 0);
    }

    #[test]
    fn bases_without_exact_weights_fall_back_to_the_largest_violation() {
        let options = opts();
        // A cold solve that needs primal pivots leaves no weights.
        let prepared = hinge_family(3.0).prepare().unwrap();
        let primal = prepared.solve(&options).unwrap();
        assert!(primal.solution.stats.total_iterations() > 0);
        assert_eq!(weights(&primal.basis), None);
        // A chain basis with exact weights, then stripped of them.
        let mut chained = hinge_family(0.0).prepare().unwrap();
        let start = chained.solve(&options).unwrap().basis;
        chained.set_rhs(0, 2.0);
        let mut stripped = chained.solve_warm(&start, &options).unwrap().basis;
        assert!(weights(&stripped).is_some());
        if let Some(f) = stripped.factor.as_mut() {
            f.weights = None;
        }

        for (mut lp, basis) in [(prepared, primal.basis), (chained, stripped)] {
            lp.set_rhs(0, 4.0);
            let engine = Engine::new(&lp, Some(&basis), &options).unwrap();
            assert!(engine.weights.is_none());
            // The leaving row is the largest violation, lowest row on ties.
            let violation = |row: usize| {
                let j = engine.basic[row];
                (lp.lower[j] - engine.x[j]).max(engine.x[j] - lp.upper[j])
            };
            let largest = (0..lp.num_rows())
                .filter(|&r| violation(r) > FEAS_TOL)
                .fold(None, |best: Option<usize>, r| match best {
                    Some(b) if violation(r) <= violation(b) => Some(b),
                    _ => Some(r),
                });
            assert!(largest.is_some(), "the mass step violates a bound");
            assert_eq!(engine.leaving_row().map(|(r, _, _)| r), largest);

            let warm = lp.solve_warm(&basis, &options).unwrap();
            assert!(warm.solution.stats.dual_iterations > 0);
            assert_eq!(weights(&warm.basis), None);
            let cold = lp.solve(&options).unwrap();
            assert_close(warm.solution.objective, cold.solution.objective);
        }
    }
}
