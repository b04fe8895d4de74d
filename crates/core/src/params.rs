//! Mechanism parameters.
//!
//! The recursive mechanism has five knobs (Sec. 4.1): the privacy split
//! `ε₁` (for the noisy bound `Δ̂`) and `ε₂` (for the final answer `X̂`), the
//! geometric step `β` of the threshold ladder, the ladder floor `θ` and the
//! multiplicative safety margin `μ` of `Δ̂ = e^{μ+Y}Δ`.
//!
//! The paper's experiments use `θ = 1`, `β = ε/5`, `μ = 0.5` for edge privacy
//! and `μ = 1` for node privacy; the total privacy cost is `ε₁ + ε₂`.
//!
//! A sixth, non-privacy knob rides along: [`Parallelism`] selects how many
//! worker threads may solve a query's sequence table. It never affects the
//! released values — the parallel path is bit-identical to the serial one —
//! only wall-clock time.

use crate::error::MechanismError;
use rmdp_runtime::Parallelism;

/// Parameters of the recursive mechanism.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MechanismParams {
    /// Privacy budget spent on releasing the noisy sensitivity bound `Δ̂`.
    pub epsilon1: f64,
    /// Privacy budget spent on the final Laplace release of `X̂`.
    pub epsilon2: f64,
    /// Geometric step of the threshold ladder `Δ ∈ {θ, e^β θ, e^{2β} θ, …}`.
    pub beta: f64,
    /// Floor of the threshold ladder.
    pub theta: f64,
    /// Multiplicative safety margin applied to `Δ̂` (larger μ makes
    /// `Δ̂ < Δ` — the only failure mode of the utility analysis — less
    /// likely, at the price of more noise).
    pub mu: f64,
    /// Worker-thread budget for solving a query's `H`/`G` table (default
    /// [`Parallelism::Serial`]). The table is always solved whole before the
    /// driver releases from it: the H chain and the G chain (each one
    /// warm-started chain of `|P_named|+1` LPs over the query's distinct
    /// annotations, `P_named` the participants they name) are the two units
    /// of parallel work, and `Serial` solves H then G on the calling thread.
    /// Each chain runs the same solves wherever it runs, so the entry values
    /// — and therefore the releases — are bit-identical for every setting.
    pub parallelism: Parallelism,
}

impl MechanismParams {
    /// Explicit constructor (serial execution; see
    /// [`MechanismParams::with_parallelism`]).
    pub fn new(epsilon1: f64, epsilon2: f64, beta: f64, theta: f64, mu: f64) -> Self {
        MechanismParams {
            epsilon1,
            epsilon2,
            beta,
            theta,
            mu,
            parallelism: Parallelism::Serial,
        }
    }

    /// Sets the worker-thread budget for solving sequence tables. Purely a
    /// performance knob: releases are bit-identical for every setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The paper's experimental setting for edge privacy at total budget
    /// `epsilon`: `ε₁ = ε₂ = ε/2`, `β = ε/5`, `θ = 1`, `μ = 0.5`.
    pub fn paper_edge_privacy(epsilon: f64) -> Self {
        MechanismParams {
            epsilon1: epsilon / 2.0,
            epsilon2: epsilon / 2.0,
            beta: epsilon / 5.0,
            theta: 1.0,
            mu: 0.5,
            parallelism: Parallelism::Serial,
        }
    }

    /// The paper's experimental setting for node privacy at total budget
    /// `epsilon`: as [`MechanismParams::paper_edge_privacy`] but with `μ = 1`.
    pub fn paper_node_privacy(epsilon: f64) -> Self {
        MechanismParams {
            mu: 1.0,
            ..Self::paper_edge_privacy(epsilon)
        }
    }

    /// Total privacy cost `ε₁ + ε₂` of one release.
    pub fn total_epsilon(&self) -> f64 {
        self.epsilon1 + self.epsilon2
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), MechanismError> {
        let fields = [
            ("epsilon1", self.epsilon1),
            ("epsilon2", self.epsilon2),
            ("beta", self.beta),
            ("theta", self.theta),
        ];
        for (name, value) in fields {
            if !(value.is_finite() && value > 0.0) {
                return Err(MechanismError::InvalidParams(format!(
                    "{name} must be positive and finite, got {value}"
                )));
            }
        }
        if !self.mu.is_finite() || self.mu < 0.0 {
            return Err(MechanismError::InvalidParams(format!(
                "mu must be nonnegative, got {}",
                self.mu
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_evaluation_section() {
        let edge = MechanismParams::paper_edge_privacy(0.5);
        assert!((edge.epsilon1 - 0.25).abs() < 1e-12);
        assert!((edge.epsilon2 - 0.25).abs() < 1e-12);
        assert!((edge.beta - 0.1).abs() < 1e-12);
        assert!((edge.theta - 1.0).abs() < 1e-12);
        assert!((edge.mu - 0.5).abs() < 1e-12);
        assert!((edge.total_epsilon() - 0.5).abs() < 1e-12);

        let node = MechanismParams::paper_node_privacy(0.5);
        assert!((node.mu - 1.0).abs() < 1e-12);
        assert!((node.total_epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallelism_defaults_to_serial_and_is_a_pure_perf_knob() {
        let base = MechanismParams::paper_edge_privacy(0.5);
        assert_eq!(base.parallelism, Parallelism::Serial);
        let parallel = base.with_parallelism(Parallelism::Threads(4));
        assert_eq!(parallel.parallelism, Parallelism::Threads(4));
        // Everything privacy-relevant is untouched.
        assert_eq!(parallel.total_epsilon(), base.total_epsilon());
        assert_eq!(parallel.beta, base.beta);
        assert!(parallel.validate().is_ok());
        assert_eq!(
            MechanismParams::new(0.25, 0.25, 0.1, 1.0, 0.5).parallelism,
            Parallelism::Serial
        );
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut p = MechanismParams::paper_edge_privacy(0.5);
        assert!(p.validate().is_ok());
        p.beta = 0.0;
        assert!(p.validate().is_err());
        p = MechanismParams::paper_edge_privacy(0.5);
        p.mu = -1.0;
        assert!(p.validate().is_err());
        p = MechanismParams::paper_edge_privacy(0.5);
        p.theta = f64::NAN;
        assert!(p.validate().is_err());
    }
}
