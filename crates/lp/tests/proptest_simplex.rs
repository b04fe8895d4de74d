//! Property-based tests for the simplex solver.
//!
//! For random small LPs over box-bounded variables the solver's answer is
//! checked against a rejection-sampled feasible set: the returned point must
//! be feasible and no sampled feasible point may be better.

use proptest::prelude::*;
use rmdp_lp::{ConstraintOp, LpError, Model, Sense};

#[derive(Clone, Debug)]
struct RandomLp {
    n_vars: usize,
    objective: Vec<f64>,
    // (coefficients, op_le, rhs)
    constraints: Vec<(Vec<f64>, bool, f64)>,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..=4)
        .prop_flat_map(|n_vars| {
            let obj = proptest::collection::vec(-3.0..3.0f64, n_vars);
            let cons = proptest::collection::vec(
                (
                    proptest::collection::vec(-2.0..2.0f64, n_vars),
                    any::<bool>(),
                    -1.0..3.0f64,
                ),
                1..5,
            );
            (Just(n_vars), obj, cons)
        })
        .prop_map(|(n_vars, objective, constraints)| RandomLp {
            n_vars,
            objective,
            constraints,
        })
}

fn build_model(lp: &RandomLp) -> (Model, Vec<rmdp_lp::Var>) {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = lp
        .objective
        .iter()
        .map(|&c| m.add_var(0.0, 1.0, c))
        .collect();
    for (coeffs, le, rhs) in &lp.constraints {
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        let op = if *le {
            ConstraintOp::Le
        } else {
            ConstraintOp::Ge
        };
        m.add_constraint(terms, op, *rhs);
    }
    (m, vars)
}

fn is_feasible(lp: &RandomLp, x: &[f64], tol: f64) -> bool {
    for (coeffs, le, rhs) in &lp.constraints {
        let lhs: f64 = coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
        let ok = if *le {
            lhs <= rhs + tol
        } else {
            lhs >= rhs - tol
        };
        if !ok {
            return false;
        }
    }
    x.iter().all(|&v| (-tol..=1.0 + tol).contains(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The solver never returns an infeasible point, and when it declares
    /// optimality no sampled feasible point beats it.
    #[test]
    fn simplex_solution_is_feasible_and_not_dominated(lp in random_lp(), seed in any::<u64>()) {
        let (model, _vars) = build_model(&lp);
        let solved = model.solve();

        // Sample candidate feasible points on a coarse grid plus random
        // points derived from the seed.
        let mut feasible_points: Vec<Vec<f64>> = Vec::new();
        let steps = 4usize;
        let total = (steps + 1).pow(lp.n_vars as u32);
        for idx in 0..total {
            let mut x = vec![0.0; lp.n_vars];
            let mut rest = idx;
            for v in x.iter_mut() {
                *v = (rest % (steps + 1)) as f64 / steps as f64;
                rest /= steps + 1;
            }
            if is_feasible(&lp, &x, 1e-9) {
                feasible_points.push(x);
            }
        }
        let mut state = seed;
        let mut next01 = || {
            // xorshift-based deterministic pseudo-random in [0, 1]
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let x: Vec<f64> = (0..lp.n_vars).map(|_| next01()).collect();
            if is_feasible(&lp, &x, 1e-9) {
                feasible_points.push(x);
            }
        }

        match solved {
            Ok(sol) => {
                prop_assert!(is_feasible(&lp, &sol.values, 1e-6),
                    "solver returned infeasible point {:?}", sol.values);
                let obj = |x: &[f64]| -> f64 {
                    lp.objective.iter().zip(x).map(|(c, v)| c * v).sum()
                };
                prop_assert!((obj(&sol.values) - sol.objective).abs() < 1e-6);
                for p in &feasible_points {
                    prop_assert!(sol.objective <= obj(p) + 1e-6,
                        "sampled point {:?} with objective {} beats reported optimum {}",
                        p, obj(p), sol.objective);
                }
            }
            Err(LpError::Infeasible) => {
                // No sampled point may be strictly feasible.
                for p in &feasible_points {
                    prop_assert!(!is_feasible(&lp, p, -1e-6),
                        "solver said infeasible but {:?} is strictly feasible", p);
                }
            }
            Err(LpError::Unbounded) => {
                // Impossible: all variables live in [0, 1].
                prop_assert!(false, "bounded LP reported as unbounded");
            }
            Err(other) => {
                prop_assert!(false, "unexpected solver error: {other}");
            }
        }
    }

    /// Adding a redundant constraint never changes the optimum.
    #[test]
    fn redundant_constraints_do_not_change_optimum(lp in random_lp()) {
        let (model, _) = build_model(&lp);
        if let Ok(base) = model.solve() {
            let (mut with_redundant, vars) = build_model(&lp);
            // x_0 <= 2 is implied by the unit box.
            with_redundant.add_le([(vars[0], 1.0)], 2.0);
            let again = with_redundant.solve().expect("still solvable");
            prop_assert!((again.objective - base.objective).abs() < 1e-6);
        }
    }
}

// ---- Differential testing: revised simplex vs the dense tableau oracle ----

/// A random LP over *general* bounded variables: shifted boxes, one-sided
/// bounds, fixed variables and free variables — every shape the two
/// standardizations handle differently (the revised solver keeps bounds
/// native and never lets a fixed variable enter; the dense oracle shifts,
/// reflects, splits and adds bound rows).
#[derive(Clone, Debug)]
struct BoundedLp {
    bounds: Vec<(f64, f64)>,
    objective: Vec<f64>,
    constraints: Vec<(Vec<f64>, u8, f64)>, // op: 0 = Le, 1 = Ge, 2 = Eq
}

fn bound_pair() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        // Shifted box.
        (-3.0..0.0f64, 0.0..3.0f64),
        // Unit box (the mechanism's f-variables).
        Just((0.0, 1.0)),
        // One-sided: lower only / upper only.
        (-2.0..1.0f64).prop_map(|l| (l, f64::INFINITY)),
        (-1.0..2.0f64).prop_map(|u| (f64::NEG_INFINITY, u)),
        // Fixed.
        (-1.0..1.0f64).prop_map(|v| (v, v)),
        // Free.
        Just((f64::NEG_INFINITY, f64::INFINITY)),
    ]
}

fn bounded_lp() -> impl Strategy<Value = BoundedLp> {
    (2usize..=5)
        .prop_flat_map(|n_vars| {
            let bounds = proptest::collection::vec(bound_pair(), n_vars);
            let obj = proptest::collection::vec(-3.0..3.0f64, n_vars);
            let cons = proptest::collection::vec(
                (
                    proptest::collection::vec(-2.0..2.0f64, n_vars),
                    0u8..3,
                    -2.0..3.0f64,
                ),
                1..5,
            );
            (bounds, obj, cons)
        })
        .prop_map(|(bounds, objective, constraints)| BoundedLp {
            bounds,
            objective,
            constraints,
        })
}

fn build_bounded(lp: &BoundedLp) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = lp
        .bounds
        .iter()
        .zip(&lp.objective)
        .map(|(&(lo, hi), &c)| m.add_var(lo, hi, c))
        .collect();
    for (coeffs, op, rhs) in &lp.constraints {
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        let op = match op {
            0 => ConstraintOp::Le,
            1 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        m.add_constraint(terms, op, *rhs);
    }
    m
}

/// Feasibility of a point in the *original* bounded model (before either
/// solver standardizes it).
fn bounded_feasible(lp: &BoundedLp, x: &[f64], tol: f64) -> bool {
    for ((lo, hi), v) in lp.bounds.iter().zip(x) {
        if *v < lo - tol || *v > hi + tol {
            return false;
        }
    }
    for (coeffs, op, rhs) in &lp.constraints {
        let lhs: f64 = coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
        let ok = match op {
            0 => lhs <= rhs + tol,
            1 => lhs >= rhs - tol,
            _ => (lhs - rhs).abs() <= tol,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Whether a free/one-sided variable makes the instance unbounded is a
/// question the solver and the oracle must answer the same way, and on bounded optima
/// the values must agree. Iteration limits are treated as "no verdict".
fn verdict(result: &Result<rmdp_lp::Solution, LpError>) -> Option<Result<f64, &LpError>> {
    match result {
        Ok(s) => Some(Ok(s.objective)),
        Err(e @ (LpError::Infeasible | LpError::Unbounded)) => Some(Err(e)),
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The sparse-LU revised solver and the dense tableau oracle agree on
    /// every random bounded-variable LP: same optimum within tolerance, or
    /// the same infeasible/unbounded verdict. The solver's point is feasible
    /// in the original model.
    #[test]
    fn revised_solver_and_dense_tableau_agree(lp in bounded_lp()) {
        let model = build_bounded(&lp);
        let sparse = model.solve();
        let dense = rmdp_lp::simplex::solve_dense(&model, &Default::default());
        match (verdict(&sparse), verdict(&dense)) {
            (Some(Ok(a)), Some(Ok(b))) => {
                prop_assert!((a - b).abs() < 1e-6,
                    "optima differ: sparse-LU {a} vs dense tableau {b}");
                let sol = sparse.as_ref().unwrap();
                prop_assert!(bounded_feasible(&lp, &sol.values, 1e-6),
                    "sparse-LU point {:?} violates the original model", sol.values);
            }
            (Some(Err(a)), Some(Err(b))) => {
                prop_assert_eq!(a, b, "verdicts differ");
            }
            (Some(a), Some(b)) => {
                prop_assert!(false, "sparse-LU says {a:?}, dense tableau says {b:?}");
            }
            // A solver giving up (iteration limit) is not a disagreement.
            _ => {}
        }
    }

    /// The same agreement on reduction-rich instances: duplicated columns, a
    /// singleton row and a fixed variable grafted onto every model. The
    /// fixed variable never enters the revised solver's basis and must be
    /// reported at its value.
    #[test]
    fn revised_solver_and_dense_tableau_agree_on_reduction_rich_models(lp in bounded_lp(), dup_cost in -2.0..2.0f64, singleton_cap in 0.5..3.0f64) {
        let mut model = build_bounded(&lp);
        // Two duplicate columns (identical pattern + cost) in a fresh row.
        let d1 = model.add_var(0.0, 1.0, dup_cost);
        let d2 = model.add_var(0.0, 1.0, dup_cost);
        model.add_le([(d1, 1.0), (d2, 1.0)], 1.5);
        // A singleton row bounding d1, and a fixed variable in that row's
        // shadow.
        model.add_le([(d1, 1.0)], singleton_cap);
        let fixed = model.add_var(0.25, 0.25, 1.0);
        model.add_le([(fixed, 1.0), (d2, 1.0)], 2.0);

        let sparse = model.solve();
        let dense = rmdp_lp::simplex::solve_dense(&model, &Default::default());
        match (verdict(&sparse), verdict(&dense)) {
            (Some(Ok(a)), Some(Ok(b))) => {
                prop_assert!((a - b).abs() < 1e-6,
                    "optima differ: sparse-LU {a} vs dense tableau {b}");
                let sol = sparse.as_ref().unwrap();
                prop_assert_eq!(sol.values.len(), model.num_vars(),
                    "solutions must report the full variable space");
                prop_assert!((sol.values[fixed.index()] - 0.25).abs() < 1e-9);
            }
            (Some(Err(a)), Some(Err(b))) => {
                prop_assert_eq!(a, b, "verdicts differ");
            }
            (Some(a), Some(b)) => {
                prop_assert!(false, "sparse-LU says {a:?}, dense tableau says {b:?}");
            }
            _ => {}
        }
    }

    /// A warm-started RHS chain returns the same optima as cold re-solves of
    /// every step (the PreparedLp contract the sequence chains rely on).
    #[test]
    fn warm_chain_matches_cold_solves(lp in bounded_lp(), steps in proptest::collection::vec(-2.0..3.0f64, 1..5)) {
        let model = build_bounded(&lp);
        let options = rmdp_lp::SimplexOptions::default();
        let mut prepared = model.prepare().expect("validated by construction");
        let mut basis = if prepared.num_rows() == 0 {
            None
        } else {
            prepared.solve(&options).ok().map(|s| s.basis)
        };
        let mut k = 0usize;
        while let Some(prev) = basis.take() {
            let Some(&rhs) = steps.get(k) else { break };
            prepared.set_rhs(k % prepared.num_rows(), rhs);
            let warm = prepared.solve_warm(&prev, &options);
            let cold = prepared.solve(&options);
            let warm_solution = warm
                .as_ref()
                .map(|s| s.solution.clone())
                .map_err(|e| e.clone());
            let cold_solution = cold
                .as_ref()
                .map(|s| s.solution.clone())
                .map_err(|e| e.clone());
            match (verdict(&warm_solution), verdict(&cold_solution)) {
                (Some(Ok(a)), Some(Ok(b))) => {
                    prop_assert!((a - b).abs() < 1e-6,
                        "step {k}: warm {a} vs cold {b}");
                }
                (Some(Err(_)), Some(Err(_))) => {}
                (Some(a), Some(b)) => {
                    prop_assert!(false, "step {k}: warm says {a:?}, cold says {b:?}");
                }
                _ => {}
            }
            basis = warm.ok().map(|s| s.basis);
            k += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Warm re-entry after RHS steps — the dual simplex path whenever the
    /// previous optimal basis stays dual feasible — reaches the same verdict
    /// as a cold dense-tableau solve of the stepped model, with objectives
    /// within 1e-7.
    #[test]
    fn dual_reentry_matches_a_cold_dense_tableau(
        lp in bounded_lp(),
        steps in proptest::collection::vec((0usize..5, -2.0..3.0f64), 1..5),
    ) {
        // A one-update cap refactorizes after every pivot, so the steepest-edge
        // weights must survive rebuilds; 64 is the default.
        for update_cap in [1, 64] {
            let options = rmdp_lp::SimplexOptions {
                update_cap,
                ..rmdp_lp::SimplexOptions::default()
            };
            let mut stepped = lp.clone();
            let mut prepared = build_bounded(&stepped).prepare().expect("validated by construction");
            let Ok(first) = prepared.solve(&options) else {
                continue;
            };
            let mut basis = first.basis;
            for (k, &(row, rhs)) in steps.iter().enumerate() {
                let row = row % stepped.constraints.len();
                stepped.constraints[row].2 = rhs;
                prepared.set_rhs(row, rhs);
                let warm = prepared.solve_warm(&basis, &options);
                let oracle = rmdp_lp::simplex::solve_dense(&build_bounded(&stepped), &options);
                let warm_solution = warm
                    .as_ref()
                    .map(|s| s.solution.clone())
                    .map_err(|e| e.clone());
                match (verdict(&warm_solution), verdict(&oracle)) {
                    (Some(Ok(a)), Some(Ok(b))) => {
                        prop_assert!((a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0),
                            "cap {update_cap} step {k}: warm {a} vs dense tableau {b}");
                    }
                    (Some(Err(a)), Some(Err(b))) => {
                        prop_assert_eq!(a, b, "cap {} step {}: verdicts differ", update_cap, k);
                    }
                    (Some(a), Some(b)) => {
                        prop_assert!(false, "cap {update_cap} step {k}: warm says {a:?}, tableau says {b:?}");
                    }
                    _ => {}
                }
                match warm {
                    Ok(s) => basis = s.basis,
                    Err(_) => break,
                }
            }
        }
    }
}
