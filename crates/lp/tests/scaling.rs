//! Basis scaling: the sparse-LU solver on synthetic 2-star counting
//! `H`-models from 301 up to 101,501 rows.
//!
//! Each point is solved cold, then re-solved warm after stepping the mass
//! row by one, which is how a sequence chain moves from one entry to the
//! next. Every point must report LU fill-in. At 301 rows the objective must
//! agree with the dense tableau oracle. The two large points gate the warm
//! step's pivots exactly (pivot counts are deterministic) and need release
//! speed, so a debug build ignores them; `cargo test --release -p rmdp-lp`
//! runs them.

use rmdp_lp::{simplex, Model, Sense, SimplexOptions, SolveStats};

/// A synthetic 2-star counting `H`-model with the shape
/// `rmdp_core::efficient` builds for fig-4, scaled up: unit variables
/// `f_p ∈ [0,1]` per participant, the mass row `Σ f_p = mass` first (row 0,
/// so a chain steps the index with one `set_rhs`), then one hinge row
/// `f_c + f_l + f_l' − v ≤ 2` per 2-star, `centers × C(leaves_per, 2)` in
/// all. `(20, 6)` gives 300 hinge rows, `(100, 10)` 4,500, `(250, 29)`
/// 101,500.
fn two_star_h_model(centers: usize, leaves_per: usize, mass: f64) -> Model {
    let mut model = Model::new(Sense::Minimize);
    let mut participants = Vec::with_capacity(centers * (1 + leaves_per));
    let mut stars = Vec::with_capacity(centers);
    for _ in 0..centers {
        let c = model.add_unit_var(0.0);
        participants.push(c);
        let leaves: Vec<_> = (0..leaves_per)
            .map(|_| {
                let l = model.add_unit_var(0.0);
                participants.push(l);
                l
            })
            .collect();
        stars.push((c, leaves));
    }
    model.add_eq(participants.iter().map(|&v| (v, 1.0)), mass);
    for (c, leaves) in &stars {
        for i in 0..leaves.len() {
            for j in (i + 1)..leaves.len() {
                let v = model.add_nonneg_var(1.0);
                model.add_le(
                    [(*c, 1.0), (leaves[i], 1.0), (leaves[j], 1.0), (v, -1.0)],
                    2.0,
                );
            }
        }
    }
    model
}

/// One solved scaling point.
struct ScalingPoint {
    model: Model,
    objective: f64,
    cold: SolveStats,
    /// The warm re-solve after stepping the mass row RHS by one.
    warm: SolveStats,
}

/// Solves the point at mass `mass_per_center × centers` cold, then steps
/// the mass row and re-enters from the optimal basis, which carries the LU
/// factors. Checks the structure every point shares: the expected row
/// count, nonzero fill-in and a warm re-entry.
fn solve_point(centers: usize, leaves_per: usize, mass_per_center: f64) -> ScalingPoint {
    let mass = mass_per_center * centers as f64;
    let model = two_star_h_model(centers, leaves_per, mass);
    let opts = SimplexOptions::default();
    let prepared = model.prepare().expect("scaling model is well-formed");
    let cold = prepared
        .solve(&opts)
        .expect("scaling model is feasible and bounded");
    let mut stepped = prepared.clone();
    stepped.set_rhs(0, mass + 1.0);
    let warm = stepped
        .solve_warm(&cold.basis, &opts)
        .expect("stepped scaling model stays feasible")
        .solution
        .stats;
    let stats = cold.solution.stats;
    let hinge_rows = centers * leaves_per * (leaves_per - 1) / 2;
    assert_eq!(stats.rows, hinge_rows + 1, "hinge rows plus the mass row");
    assert!(
        stats.fill_in_nnz > 0,
        "sparse solve at {} rows reported no factor fill-in",
        stats.rows
    );
    assert!(warm.warm_started, "the stepped solve must re-enter warm");
    ScalingPoint {
        model,
        objective: cold.solution.objective,
        cold: stats,
        warm,
    }
}

#[test]
fn the_301_row_point_matches_the_dense_oracle() {
    // One unit of mass per star optimises to 0 (every center at 1, every
    // leaf at 0), so this point carries 6.5 per 7-participant star, past
    // the 6 a star absorbs at zero cost: its optimum is positive.
    let point = solve_point(20, 6, 6.5);
    assert_eq!(point.cold.rows, 301);
    assert!(point.objective > 0.0);
    let oracle = simplex::solve_dense(&point.model, &SimplexOptions::default())
        .expect("the dense oracle solves the same instance")
        .objective;
    let scale = point.objective.abs().max(oracle.abs()).max(1.0);
    assert!(
        (point.objective - oracle).abs() <= 1e-9 * scale,
        "sparse objective {:.12} vs tableau {oracle:.12}",
        point.objective
    );
}

#[test]
fn the_4_5k_row_point_solves_with_fill_in() {
    assert_eq!(solve_point(100, 10, 1.0).cold.rows, 4_501);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs release speed; runs in the release LP step"
)]
fn the_18k_row_warm_step_stays_within_14_pivots() {
    let point = solve_point(150, 16, 1.0);
    assert_eq!(point.cold.rows, 18_001);
    let pivots = point.warm.total_iterations();
    assert!(pivots <= 14, "warm step spent {pivots} pivots (limit 14)");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs release speed; runs in the release LP step"
)]
fn the_101_5k_row_instance_completes_and_its_warm_step_stays_within_9_pivots() {
    let point = solve_point(250, 29, 1.0);
    assert_eq!(point.cold.rows, 101_501);
    let pivots = point.warm.total_iterations();
    assert!(pivots <= 9, "warm step spent {pivots} pivots (limit 9)");
}
