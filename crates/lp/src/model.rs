//! LP model construction.
//!
//! A [`Model`] owns a set of bounded variables, a linear objective and a list
//! of linear constraints. [`Model::solve`] standardises the model and runs
//! the sparse revised simplex of [`crate::revised`]; [`Model::prepare`]
//! standardises once into a [`crate::PreparedLp`] for repeated
//! warm-started solves.

use crate::error::LpError;
use crate::solution::Solution;

/// Optimisation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// A handle to a model variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Relational operator of a constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// A linear constraint `Σ aᵢxᵢ (≤|≥|=) b`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Nonzero terms `(variable, coefficient)`.
    pub terms: Vec<(Var, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

#[derive(Clone, Debug)]
pub(crate) struct VariableDef {
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

/// A linear program.
#[derive(Clone, Debug)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VariableDef>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// A new, empty model with the given optimisation direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Convenience constructor for a minimisation model.
    pub fn minimize() -> Self {
        Model::new(Sense::Minimize)
    }

    /// Convenience constructor for a maximisation model.
    pub fn maximize() -> Self {
        Model::new(Sense::Maximize)
    }

    /// Adds a variable with bounds `[lower, upper]` and the given objective
    /// coefficient. Use `f64::NEG_INFINITY` / `f64::INFINITY` for unbounded
    /// sides.
    pub fn add_var(&mut self, lower: f64, upper: f64, objective: f64) -> Var {
        let v = Var(self.vars.len());
        self.vars.push(VariableDef {
            lower,
            upper,
            objective,
        });
        v
    }

    /// Adds a nonnegative variable `x ≥ 0` with the given objective
    /// coefficient.
    pub fn add_nonneg_var(&mut self, objective: f64) -> Var {
        self.add_var(0.0, f64::INFINITY, objective)
    }

    /// Adds a `[0, 1]`-bounded variable with the given objective coefficient.
    pub fn add_unit_var(&mut self, objective: f64) -> Var {
        self.add_var(0.0, 1.0, objective)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a general constraint. Terms naming the same variable more than
    /// once are merged by summing their coefficients (first occurrence keeps
    /// its position), so `x + x ≤ 1` and `2x ≤ 1` build the same row — no
    /// standardization path can double-count or overwrite a duplicate.
    pub fn add_constraint<I>(&mut self, terms: I, op: ConstraintOp, rhs: f64)
    where
        I: IntoIterator<Item = (Var, f64)>,
    {
        // Hybrid merge: a linear scan while the row is small (the typical
        // hinge row has a handful of terms — no allocation), switching to a
        // hash index once it grows (mass-tie rows have |P| terms and must
        // not go quadratic).
        const SCAN_LIMIT: usize = 16;
        let mut merged: Vec<(Var, f64)> = Vec::new();
        let mut position: Option<std::collections::HashMap<usize, usize>> = None;
        for (var, coeff) in terms {
            let slot = match &position {
                Some(map) => map.get(&var.index()).copied(),
                None => merged.iter().position(|(v, _)| *v == var),
            };
            match slot {
                Some(k) => merged[k].1 += coeff,
                None => {
                    if let Some(map) = &mut position {
                        map.insert(var.index(), merged.len());
                    }
                    merged.push((var, coeff));
                    if position.is_none() && merged.len() >= SCAN_LIMIT {
                        position = Some(
                            merged
                                .iter()
                                .enumerate()
                                .map(|(k, (v, _))| (v.index(), k))
                                .collect(),
                        );
                    }
                }
            }
        }
        self.constraints.push(Constraint {
            terms: merged,
            op,
            rhs,
        });
    }

    /// Adds `Σ aᵢxᵢ ≤ b`.
    pub fn add_le<I>(&mut self, terms: I, rhs: f64)
    where
        I: IntoIterator<Item = (Var, f64)>,
    {
        self.add_constraint(terms, ConstraintOp::Le, rhs);
    }

    /// Adds `Σ aᵢxᵢ ≥ b`.
    pub fn add_ge<I>(&mut self, terms: I, rhs: f64)
    where
        I: IntoIterator<Item = (Var, f64)>,
    {
        self.add_constraint(terms, ConstraintOp::Ge, rhs);
    }

    /// Adds `Σ aᵢxᵢ = b`.
    pub fn add_eq<I>(&mut self, terms: I, rhs: f64)
    where
        I: IntoIterator<Item = (Var, f64)>,
    {
        self.add_constraint(terms, ConstraintOp::Eq, rhs);
    }

    /// Changes the objective coefficient of a variable.
    pub fn set_objective(&mut self, var: Var, coefficient: f64) {
        self.vars[var.0].objective = coefficient;
    }

    /// Solves the model with the default simplex options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&crate::simplex::SimplexOptions::default())
    }

    /// Solves with explicit solver options.
    pub fn solve_with(
        &self,
        options: &crate::simplex::SimplexOptions,
    ) -> Result<Solution, LpError> {
        crate::revised::solve_model(self, options)
    }

    /// Standardizes the model once into a [`crate::PreparedLp`] for repeated
    /// (warm-started) solves under right-hand-side or objective mutation.
    pub fn prepare(&self) -> Result<crate::PreparedLp, LpError> {
        crate::PreparedLp::new(self)
    }

    pub(crate) fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() || !v.objective.is_finite() {
                return Err(LpError::NonFiniteInput);
            }
            if v.lower > v.upper {
                return Err(LpError::InvalidBounds { var: i });
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(LpError::NonFiniteInput);
            }
            for &(v, coeff) in &c.terms {
                if v.0 >= self.vars.len() {
                    return Err(LpError::UnknownVariable { var: v.0 });
                }
                if !coeff.is_finite() {
                    return Err(LpError::NonFiniteInput);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accumulates_vars_and_constraints() {
        let mut m = Model::minimize();
        let x = m.add_unit_var(1.0);
        let y = m.add_nonneg_var(-1.0);
        m.add_le([(x, 1.0), (y, 2.0)], 5.0);
        m.add_eq([(y, 1.0)], 2.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 2);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
    }

    #[test]
    fn duplicate_terms_are_merged_at_insertion() {
        // x + x + y − x ≤ 1 must become x + y ≤ 1 — on the solver and the
        // oracle, the duplicate must neither double-count nor overwrite.
        let mut m = Model::maximize();
        let x = m.add_unit_var(1.0);
        let y = m.add_unit_var(1.0);
        m.add_le([(x, 1.0), (x, 1.0), (y, 1.0), (x, -1.0)], 1.0);
        assert_eq!(m.constraints[0].terms, vec![(x, 1.0), (y, 1.0)]);
        let revised = m.solve().unwrap();
        let dense = crate::simplex::solve_dense(&m, &Default::default()).unwrap();
        assert!((revised.objective - 1.0).abs() < 1e-7);
        assert!((dense.objective - 1.0).abs() < 1e-7);

        // Full cancellation leaves a zero-coefficient term in the row (the
        // CSC standardization drops exact zeros; the dense tableau stores
        // them harmlessly).
        let mut m = Model::minimize();
        let x = m.add_unit_var(-1.0);
        let y = m.add_unit_var(0.0);
        m.add_le([(x, 2.0), (x, -2.0), (y, 1.0)], 0.5);
        assert_eq!(m.constraints[0].terms, vec![(x, 0.0), (y, 1.0)]);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 1.0).abs() < 1e-7, "x is unconstrained");
    }

    #[test]
    fn validation_rejects_bad_bounds() {
        let mut m = Model::minimize();
        m.add_var(2.0, 1.0, 0.0);
        assert_eq!(m.validate(), Err(LpError::InvalidBounds { var: 0 }));
    }

    #[test]
    fn validation_rejects_unknown_variables() {
        let mut a = Model::minimize();
        let _x = a.add_nonneg_var(1.0);
        let mut b = Model::minimize();
        let y_from_other_model = Var(5);
        b.add_le([(y_from_other_model, 1.0)], 1.0);
        assert_eq!(b.validate(), Err(LpError::UnknownVariable { var: 5 }));
    }

    #[test]
    fn validation_rejects_non_finite_input() {
        let mut m = Model::minimize();
        let x = m.add_nonneg_var(1.0);
        m.add_le([(x, f64::NAN)], 1.0);
        assert_eq!(m.validate(), Err(LpError::NonFiniteInput));
    }
}
