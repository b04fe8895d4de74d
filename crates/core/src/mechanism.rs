//! The recursive-mechanism driver (paper Sec. 4.1).
//!
//! Given the complete table of an instantiation's sequences `H` and `G`
//! (one [`FrozenSequences`] per query, shared as [`CachedSequences`]), the
//! driver performs the three steps of the framework:
//!
//! 1. `Δ = min{ e^{iβ}θ : G_{|P|−i} ≤ e^{iβ}θ }` — a data-dependent bound on
//!    the empirical sensitivity whose logarithm has global sensitivity at
//!    most `β` (Lemma 1). Because `G_{|P|−j} − e^{jβ}θ` is non-increasing in
//!    `j`, the smallest valid `j` is found by binary search touching only
//!    `O(log(log(G_{|P|})/β))` entries of `G` (Sec. 5.3).
//! 2. `Δ̂ = e^{μ+Y}·Δ` with `Y ∼ Lap(β/ε₁)` — the ε₁-differentially private
//!    release of the bound (Lemma 4).
//! 3. `X = min_i H_i + (|P|−i)·Δ̂` — an estimate of the true answer whose
//!    global sensitivity is at most `Δ̂` (Lemma 7), found by a linear scan of
//!    the table that keeps the first minimal index. The scan needs no
//!    convexity of the computed `H` (Lemma 10 holds for the exact values,
//!    not necessarily for LP optima rounded to floating point). The final
//!    release is `X̂ = X + Lap(Δ̂/ε₂)`.
//!
//! The driver never solves an LP: the table is complete before it is built.
//! One `RecursiveMechanism` can release repeatedly on the same table (each
//! release spends `ε₁ + ε₂`); `Δ` is deterministic and computed once, so
//! repeated releases only sample fresh noise.

use crate::cache::{CachedSequences, FrozenSequences};
use crate::error::MechanismError;
use crate::params::MechanismParams;
use rand::Rng;
use rmdp_noise::laplace::sample_laplace;
use rmdp_observe::{NoopRecorder, Recorder, Stage};
use std::sync::Arc;

/// One differentially private release together with its diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct Release {
    /// The released (noisy) answer `X̂`.
    pub noisy_answer: f64,
    /// The deterministic threshold `Δ` (not privacy-safe to publish on its
    /// own; exposed for analysis and testing).
    pub delta: f64,
    /// The noisy threshold `Δ̂` actually used to calibrate the answer noise.
    pub delta_hat: f64,
    /// The clipped estimate `X` before the final Laplace noise.
    pub x: f64,
    /// The index `i` attaining `X = H_i + (|P|−i)Δ̂`.
    pub argmin_index: usize,
    /// The true answer `H_{|P|}` (diagnostic only — never publish).
    pub true_answer: f64,
    /// Total privacy budget `ε₁ + ε₂` consumed by this release.
    pub epsilon_spent: f64,
}

/// The recursive mechanism: a driver over one query's sequence table.
pub struct RecursiveMechanism {
    table: Arc<FrozenSequences>,
    params: MechanismParams,
    delta: f64,
}

impl RecursiveMechanism {
    /// Validates `params` and computes `Δ` from the table.
    pub fn new(
        sequences: CachedSequences,
        params: MechanismParams,
    ) -> Result<Self, MechanismError> {
        params.validate()?;
        let table = sequences.0;
        let delta = threshold(table.g_entries(), params.beta, params.theta);
        Ok(RecursiveMechanism {
            table,
            params,
            delta,
        })
    }

    /// Read access to the parameters.
    pub fn params(&self) -> &MechanismParams {
        &self.params
    }

    /// Step 1: the deterministic threshold `Δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Steps 2–3: one differentially private release, spending `ε₁ + ε₂`.
    pub fn release<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Release, MechanismError> {
        self.release_recorded(rng, &mut NoopRecorder)
    }

    /// [`release`](Self::release) with stage telemetry: the scan of the
    /// table for `X` is bracketed with [`Stage::SequenceSolve`] and the two
    /// Laplace draws with [`Stage::NoiseSample`] (entered twice, so
    /// recorders accumulate). Solving the table happened before the driver
    /// was built; callers bracket that with [`Stage::SequenceSolve`] too.
    ///
    /// The recorder only observes wall-time; it never touches the RNG or
    /// any value, so the release is bit-identical for every recorder
    /// (`release` itself delegates here with the no-op recorder).
    pub fn release_recorded<R: Rng + ?Sized, T: Recorder>(
        &mut self,
        rng: &mut R,
        recorder: &mut T,
    ) -> Result<Release, MechanismError> {
        // Step 2: multiplicative noise on Δ.
        recorder.enter(Stage::NoiseSample);
        let y = sample_laplace(self.params.beta / self.params.epsilon1, rng);
        recorder.exit(Stage::NoiseSample);
        let delta_hat = (self.params.mu + y).exp() * self.delta;

        // Step 3: X = min_i H_i + (n − i)·Δ̂ over integers.
        recorder.enter(Stage::SequenceSolve);
        let (argmin_index, x) = argmin_x(self.table.h_entries(), delta_hat);
        recorder.exit(Stage::SequenceSolve);

        recorder.enter(Stage::NoiseSample);
        let noise = sample_laplace(delta_hat / self.params.epsilon2, rng);
        recorder.exit(Stage::NoiseSample);

        Ok(Release {
            noisy_answer: x + noise,
            delta: self.delta,
            delta_hat,
            x,
            argmin_index,
            true_answer: self.table.h_entries()[self.table.num_participants()],
            epsilon_spent: self.params.total_epsilon(),
        })
    }

    /// Performs `trials` releases and returns them all (the experiment
    /// harness uses this to estimate median relative error; each release is
    /// an independent run of the mechanism).
    pub fn release_many<R: Rng + ?Sized>(
        &mut self,
        trials: usize,
        rng: &mut R,
    ) -> Result<Vec<Release>, MechanismError> {
        (0..trials).map(|_| self.release(rng)).collect()
    }
}

/// `Δ`: the smallest ladder value `e^{jβ}θ` with `G_{n−j} ≤ e^{jβ}θ`.
fn threshold(g: &[f64], beta: f64, theta: f64) -> f64 {
    let n = g.len() - 1;
    // Ladder value at step j.
    let ladder = |j: usize| (j as f64 * beta).exp() * theta;
    let holds = |j: usize| g[n - j] <= ladder(j);

    // The difference G_{n−j} − ladder(j) is non-increasing in j, so binary
    // search applies. The paper's bound j ≤ 1 + ln(G_n/θ)/β restricts the
    // search range further.
    let g_full = g[n];
    if g_full <= ladder(0) {
        return ladder(0);
    }
    let j_cap = ((g_full / theta).ln() / beta).ceil() as usize + 1;
    // Invariant: the predicate is false at lo and holds at hi.
    let mut lo = 0usize;
    let mut hi = j_cap.min(n);
    if !holds(hi) {
        hi = n;
        if !holds(hi) {
            // G_0 = 0 ≤ ladder(n) must hold for a valid bounding sequence;
            // fall back to the top of the ladder defensively.
            return ladder(n);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    ladder(hi)
}

/// The objective `H_i + (n − i)·Δ̂` minimised over every integer `i` by a
/// linear scan; ties keep the first minimal index.
fn argmin_x(h: &[f64], delta_hat: f64) -> (usize, f64) {
    let n = h.len() - 1;
    let mut best = (0usize, f64::INFINITY);
    for (i, &hi) in h.iter().enumerate() {
        let v = hi + (n - i) as f64 * delta_hat;
        if v < best.1 {
            best = (i, v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A hand-built table (bounding factor 1).
    fn table(h: Vec<f64>, g: Vec<f64>) -> CachedSequences {
        FrozenSequences::from_entries(h, g, 1.0).into()
    }

    /// A deterministic toy table: H_i = max(0, i − 5)·3 (piecewise linear,
    /// convex), G_i = 3 for i > 0 (the exact largest marginal).
    fn toy(n: usize) -> CachedSequences {
        table(
            (0..=n).map(|i| i.saturating_sub(5) as f64 * 3.0).collect(),
            (0..=n).map(|i| if i == 0 { 0.0 } else { 3.0 }).collect(),
        )
    }

    fn params() -> MechanismParams {
        MechanismParams::paper_edge_privacy(0.5)
    }

    #[test]
    fn delta_is_the_smallest_ladder_value_covering_g() {
        let m = RecursiveMechanism::new(toy(50), params()).unwrap();
        // Need e^{jβ}θ ≥ 3 with β = 0.1, θ = 1: j = ceil(ln 3 / 0.1) = 11.
        let expected = (11.0f64 * 0.1).exp();
        assert!(
            (m.delta() - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.delta()
        );
    }

    #[test]
    fn delta_equals_theta_when_g_is_small() {
        let tiny = table((0..=10).map(|i| i as f64 * 0.1).collect(), vec![0.5; 11]);
        let m = RecursiveMechanism::new(tiny, params()).unwrap();
        assert!((m.delta() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn release_is_unbiased_around_the_true_answer() {
        let mut m = RecursiveMechanism::new(toy(50), params()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let releases = m.release_many(600, &mut rng).unwrap();
        let true_answer = 45.0 * 3.0 / 3.0 * 3.0; // (50 − 5)·3 = 135
        let median = {
            let mut xs: Vec<f64> = releases.iter().map(|r| r.noisy_answer).collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        assert!((median - true_answer).abs() < 25.0, "median {median}");
        for r in &releases {
            assert_eq!(r.true_answer, 135.0);
            assert!(r.delta_hat > 0.0);
            assert!((r.epsilon_spent - 0.5).abs() < 1e-12);
            // X never exceeds the true answer (Lemma 8, second inequality).
            assert!(r.x <= 135.0 + 1e-9);
        }
    }

    #[test]
    fn x_equals_true_answer_when_delta_hat_is_large_enough() {
        // If Δ̂ exceeds every marginal of H, the argmin is at i = |P| and
        // X = H_{|P|}.
        let h = toy(30).0.h_entries().to_vec();
        let (idx, x) = argmin_x(&h, 10.0);
        assert_eq!(idx, 30);
        assert!((x - 75.0).abs() < 1e-9);
        // If Δ̂ is tiny, the argmin collapses towards i = 0 and X ≈ n·Δ̂.
        let (idx_small, x_small) = argmin_x(&h, 0.01);
        assert!(idx_small <= 5);
        assert!(x_small <= 0.3 + 1e-9);
    }

    #[test]
    fn argmin_finds_the_true_minimum_of_a_non_convex_h() {
        // H_i + (n − i)·Δ̂ with n = 12, Δ̂ = 1: the objective is 12 at i = 0,
        // dips to 11.5 at i = 2, then climbs to 13 and falls back to 12.5 at
        // i = n, so v_n ≤ v_{n−1} although an earlier index is strictly
        // smaller. A search that assumes convexity stops at i = n.
        let mut h: Vec<f64> = (0..=12).map(|i| i as f64 + 1.0).collect();
        h[0] = 0.0;
        h[1] = 1.0;
        h[2] = 1.5;
        h[12] = 12.5;
        let objective = |i: usize| h[i] + (12 - i) as f64;
        assert!(objective(12) <= objective(11));
        assert!(crate::sequences::validate_convexity(&h).is_err());
        assert_eq!(argmin_x(&h, 1.0), (2, 11.5));

        // Ties keep the first minimal index: H_i = i at Δ̂ = 1 is flat.
        let flat: Vec<f64> = (0..=12).map(|i| i as f64).collect();
        assert_eq!(argmin_x(&flat, 1.0), (0, 12.0));
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = params();
        p.epsilon2 = 0.0;
        assert!(RecursiveMechanism::new(toy(5), p).is_err());
    }

    #[test]
    fn log_delta_sensitivity_is_bounded_by_beta() {
        // Lemma 1: ln Δ changes by at most β between neighbouring databases.
        // Simulate a neighbouring pair with toy tables: the larger database
        // has one more participant and (recursively monotone) G entries
        // shifted by one index.
        let shifted = |n: usize| {
            table(
                (0..=n).map(|i| i as f64).collect(),
                (0..=n)
                    .map(|i| if i == 0 { 0.0 } else { 2.0 + i as f64 * 0.05 })
                    .collect(),
            )
        };
        let small = RecursiveMechanism::new(shifted(40), params()).unwrap();
        let large = RecursiveMechanism::new(shifted(41), params()).unwrap();
        assert!((small.delta().ln() - large.delta().ln()).abs() <= params().beta + 1e-9);
    }
}
