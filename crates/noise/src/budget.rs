//! Privacy budgets and sequential composition.

use std::fmt;

/// An (ε, δ) differential-privacy budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyBudget {
    /// The ε parameter.
    pub epsilon: f64,
    /// The δ parameter (0 for pure ε-DP).
    pub delta: f64,
}

impl PrivacyBudget {
    /// A pure ε-DP budget.
    pub fn pure(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        PrivacyBudget {
            epsilon,
            delta: 0.0,
        }
    }

    /// An approximate (ε, δ)-DP budget.
    pub fn approximate(epsilon: f64, delta: f64) -> Self {
        assert!(
            epsilon > 0.0 && (0.0..1.0).contains(&delta),
            "invalid budget"
        );
        PrivacyBudget { epsilon, delta }
    }

    /// Whether this is a pure ε-DP budget.
    pub fn is_pure(&self) -> bool {
        // lint:allow(float-eq): pure ε-DP is exactly δ = 0; a tolerance would misclassify small approximate-DP deltas as pure
        self.delta == 0.0
    }

    /// Sequential composition: running a mechanism with budget `self` and then
    /// one with budget `other` on the same data costs the sum of both.
    pub fn compose(&self, other: &PrivacyBudget) -> PrivacyBudget {
        PrivacyBudget {
            epsilon: self.epsilon + other.epsilon,
            delta: self.delta + other.delta,
        }
    }

    /// Splits the budget into `n` equal parts (the recursive mechanism splits
    /// its ε between the Δ̂ release and the X̂ release).
    pub fn split(&self, n: usize) -> PrivacyBudget {
        assert!(n >= 1);
        PrivacyBudget {
            epsilon: self.epsilon / n as f64,
            delta: self.delta / n as f64,
        }
    }

    /// Splits the ε into two parts with ratio `fraction` for the first part.
    pub fn split_fraction(&self, fraction: f64) -> (PrivacyBudget, PrivacyBudget) {
        assert!((0.0..=1.0).contains(&fraction));
        let first = PrivacyBudget {
            epsilon: self.epsilon * fraction,
            delta: self.delta * fraction,
        };
        let second = PrivacyBudget {
            epsilon: self.epsilon - first.epsilon,
            delta: self.delta - first.delta,
        };
        (first, second)
    }
}

impl fmt::Display for PrivacyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pure() {
            write!(f, "{}-DP", self.epsilon)
        } else {
            write!(f, "({}, {})-DP", self.epsilon, self.delta)
        }
    }
}

/// A requested debit would overdraw a [`BudgetAccountant`]. Nothing was
/// consumed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetExhausted {
    /// The cost of the refused operation.
    pub requested: PrivacyBudget,
    /// What the accountant had left.
    pub remaining: PrivacyBudget,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "privacy budget exhausted: requested {}, remaining {}",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// Slack for comparing accumulated floating-point spend against a total,
/// **relative to that total** so that e.g. five debits of `ε/5` still exactly
/// exhaust `ε` while tiny budgets (δ is routinely `1e-6..1e-12`) cannot be
/// overdrawn by an absolute allowance that dwarfs them.
///
/// This is the accountant's documented **admission tolerance**: with the
/// compensated ledger below, `N` debits of `total/N` accumulate to the
/// correctly rounded sum of the real debits, so the drift against `total` is
/// at most one rounding of `total/N` per debit — far inside this allowance —
/// and the worst-case overdraft the tolerance can ever admit is
/// `total · 1e-12`, privacy-insignificant at any ε.
fn budget_tolerance(total: f64) -> f64 {
    total.abs() * 1e-12
}

/// One step of Kahan (compensated) summation: adds `x` to the running
/// `(sum, compensation)` pair and returns the updated pair. The compensation
/// carries the low-order bits `sum + x` loses to rounding, so a long stream
/// of equal debits (the `N × ε/N` workload) cannot drift the ledger the way
/// a bare `+=` does — neither into spurious refusals on the last debit nor
/// into an overdraft of accumulated ulps.
fn kahan_add(sum: f64, compensation: f64, x: f64) -> (f64, f64) {
    let y = x - compensation;
    let t = sum + y;
    (t, (t - sum) - y)
}

/// How a grouped (`GROUP BY`) report splits privacy budget across its `k`
/// per-group releases under sequential composition.
///
/// The recursive mechanism releases one monotone aggregate at a time; a
/// grouped report is `k` such releases, one per key of the declared public
/// domain. Sequential composition prices the report at the **sum** of the
/// per-group costs, and this policy decides how that sum relates to the
/// session's per-release budget `ε = ε₁ + ε₂`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroupBudgetPolicy {
    /// The whole report costs one release's `ε`; every group releases with
    /// `ε/k` (both `ε₁` and `ε₂` scaled by `1/k`). The default: a grouped
    /// report is priced like the single query it replaces, trading per-group
    /// accuracy for composition safety.
    #[default]
    SplitEvenly,
    /// Every group spends the full per-release `ε`; the report costs `k·ε`.
    /// Maximal per-group accuracy — and `k` times the privacy bill, admitted
    /// atomically up front.
    PerGroup,
}

impl std::fmt::Display for GroupBudgetPolicy {
    /// The stable policy name recorded in release traces.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GroupBudgetPolicy::SplitEvenly => "split-evenly",
            GroupBudgetPolicy::PerGroup => "per-group",
        })
    }
}

impl GroupBudgetPolicy {
    /// The fraction of the per-release `ε` each of `k` groups spends.
    pub fn per_group_fraction(self, k: usize) -> f64 {
        assert!(k >= 1, "a grouped report needs at least one group");
        match self {
            GroupBudgetPolicy::SplitEvenly => 1.0 / k as f64,
            GroupBudgetPolicy::PerGroup => 1.0,
        }
    }

    /// The atomic admission cost of a `k`-group report whose per-release
    /// cost is `per_release`. For [`GroupBudgetPolicy::SplitEvenly`] this is
    /// `per_release` exactly (not `k · per_release/k`, which could differ by
    /// an ulp); for [`GroupBudgetPolicy::PerGroup`] it is `k · per_release`.
    pub fn report_cost(self, per_release: PrivacyBudget, k: usize) -> PrivacyBudget {
        assert!(k >= 1, "a grouped report needs at least one group");
        match self {
            GroupBudgetPolicy::SplitEvenly => per_release,
            GroupBudgetPolicy::PerGroup => PrivacyBudget {
                epsilon: per_release.epsilon * k as f64,
                delta: per_release.delta * k as f64,
            },
        }
    }
}

/// A sequential-composition ledger over a fixed total [`PrivacyBudget`].
///
/// Debits are all-or-nothing: [`BudgetAccountant::try_spend`] either records
/// the full cost or — when the cost exceeds what remains — refuses and
/// leaves the ledger untouched, so a refused operation consumes no privacy.
/// The accountant is deliberately sequential (plain sequential composition,
/// the guarantee the recursive mechanism's per-release `ε₁ + ε₂` costs
/// compose under); callers that parallelise work must still funnel their
/// debits through one accountant, which is what `SqlSession`'s single
/// release pipeline does for every entry point, batches included.
/// Spend is accumulated with **compensated (Kahan) summation**: a stream of
/// `N` debits of `ε/N` sums to the correctly rounded total instead of
/// drifting by an ulp per debit, so the last debit of an exact split is
/// admitted (no spurious refusal) and the ledger cannot overspend by
/// accumulated rounding. Comparisons against the total use the documented
/// relative admission tolerance (`total · 1e-12`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetAccountant {
    total: PrivacyBudget,
    spent_epsilon: f64,
    epsilon_compensation: f64,
    spent_delta: f64,
    delta_compensation: f64,
}

impl BudgetAccountant {
    /// A fresh ledger over `total`.
    pub fn new(total: PrivacyBudget) -> Self {
        BudgetAccountant {
            total,
            spent_epsilon: 0.0,
            epsilon_compensation: 0.0,
            spent_delta: 0.0,
            delta_compensation: 0.0,
        }
    }

    /// The total budget the ledger started with.
    pub fn total(&self) -> PrivacyBudget {
        self.total
    }

    /// What has been debited so far.
    pub fn spent(&self) -> PrivacyBudget {
        PrivacyBudget {
            epsilon: self.spent_epsilon,
            delta: self.spent_delta,
        }
    }

    /// What is still available (clamped at zero).
    pub fn remaining(&self) -> PrivacyBudget {
        PrivacyBudget {
            epsilon: (self.total.epsilon - self.spent_epsilon).max(0.0),
            delta: (self.total.delta - self.spent_delta).max(0.0),
        }
    }

    /// Whether a debit of `cost` would be accepted right now. The check
    /// projects the **compensated** post-debit sums — the exact sums
    /// [`BudgetAccountant::try_spend`] would record — so admission and
    /// recording can never disagree.
    pub fn can_afford(&self, cost: PrivacyBudget) -> bool {
        let (epsilon, _) = kahan_add(self.spent_epsilon, self.epsilon_compensation, cost.epsilon);
        let (delta, _) = kahan_add(self.spent_delta, self.delta_compensation, cost.delta);
        epsilon <= self.total.epsilon + budget_tolerance(self.total.epsilon)
            && delta <= self.total.delta + budget_tolerance(self.total.delta)
    }

    /// Debits `cost`, or refuses without consuming anything when `cost`
    /// exceeds the remaining budget.
    pub fn try_spend(&mut self, cost: PrivacyBudget) -> Result<(), BudgetExhausted> {
        if !self.can_afford(cost) {
            return Err(BudgetExhausted {
                requested: cost,
                remaining: self.remaining(),
            });
        }
        (self.spent_epsilon, self.epsilon_compensation) =
            kahan_add(self.spent_epsilon, self.epsilon_compensation, cost.epsilon);
        (self.spent_delta, self.delta_compensation) =
            kahan_add(self.spent_delta, self.delta_compensation, cost.delta);
        Ok(())
    }

    /// Returns a previously debited `cost` to the ledger.
    ///
    /// This exists for **reserve-then-commit** admission (the `rmdp-server`
    /// discipline): a concurrent server debits a query's cost *at admission*
    /// — so two racing queries can never both pass a `can_afford` check the
    /// budget only covers once — and refunds it if the query later fails
    /// having released nothing. A refund is only privacy-sound when the
    /// reserved release never happened; callers must never refund a cost
    /// whose noisy output was observed.
    ///
    /// The refund runs through the same compensated ledger as
    /// [`BudgetAccountant::try_spend`] (adding `-cost`): the compensation
    /// term carries the round trip's rounding, so reserve-and-refund cycles
    /// cannot drift the *effective* spend — the compensated sum every
    /// admission decision projects — beyond the documented admission
    /// tolerance. Spent totals are clamped at zero: refunding more than was
    /// ever debited leaves a fresh ledger, not a negative one.
    pub fn refund(&mut self, cost: PrivacyBudget) {
        (self.spent_epsilon, self.epsilon_compensation) =
            kahan_add(self.spent_epsilon, self.epsilon_compensation, -cost.epsilon);
        (self.spent_delta, self.delta_compensation) =
            kahan_add(self.spent_delta, self.delta_compensation, -cost.delta);
        if self.spent_epsilon < 0.0 {
            self.spent_epsilon = 0.0;
            self.epsilon_compensation = 0.0;
        }
        if self.spent_delta < 0.0 {
            self.spent_delta = 0.0;
            self.delta_compensation = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_adds_parameters() {
        let a = PrivacyBudget::pure(0.3);
        let b = PrivacyBudget::approximate(0.2, 1e-6);
        let c = a.compose(&b);
        assert!((c.epsilon - 0.5).abs() < 1e-12);
        assert!((c.delta - 1e-6).abs() < 1e-18);
        assert!(!c.is_pure());
    }

    #[test]
    fn split_divides_evenly() {
        let b = PrivacyBudget::pure(1.0).split(4);
        assert!((b.epsilon - 0.25).abs() < 1e-12);
        assert!(b.is_pure());
    }

    #[test]
    fn split_fraction_partitions_the_budget() {
        let (a, b) = PrivacyBudget::pure(0.5).split_fraction(0.4);
        assert!((a.epsilon - 0.2).abs() < 1e-12);
        assert!((b.epsilon - 0.3).abs() < 1e-12);
        let total = a.compose(&b);
        assert!((total.epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PrivacyBudget::pure(0.5)), "0.5-DP");
        assert_eq!(
            format!("{}", PrivacyBudget::approximate(0.5, 0.1)),
            "(0.5, 0.1)-DP"
        );
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn non_positive_epsilon_rejected() {
        let _ = PrivacyBudget::pure(0.0);
    }

    #[test]
    fn accountant_debits_and_refuses_overdrafts_atomically() {
        let mut acc = BudgetAccountant::new(PrivacyBudget::pure(1.0));
        assert!(acc.try_spend(PrivacyBudget::pure(0.6)).is_ok());
        assert!((acc.remaining().epsilon - 0.4).abs() < 1e-12);

        let err = acc.try_spend(PrivacyBudget::pure(0.6)).unwrap_err();
        assert!((err.requested.epsilon - 0.6).abs() < 1e-12);
        assert!((err.remaining.epsilon - 0.4).abs() < 1e-12);
        // The refused debit consumed nothing.
        assert!((acc.remaining().epsilon - 0.4).abs() < 1e-12);

        assert!(acc.try_spend(PrivacyBudget::pure(0.4)).is_ok());
        assert_eq!(acc.remaining().epsilon, 0.0);
    }

    #[test]
    fn repeated_fractional_debits_exactly_exhaust_the_total() {
        let mut acc = BudgetAccountant::new(PrivacyBudget::pure(1.0));
        for _ in 0..5 {
            acc.try_spend(PrivacyBudget::pure(0.2)).unwrap();
        }
        assert!(!acc.can_afford(PrivacyBudget::pure(0.2)));
        assert!(acc.spent().epsilon <= 1.0 + 1e-9);
    }

    #[test]
    fn ten_tenth_debits_exhaust_a_pure_budget_with_no_refusal_and_no_overdraft() {
        // The Kahan regression: `0.1` is not exact in binary, and a bare
        // `+=` accumulates an ulp of drift per debit — enough for the tenth
        // debit to be spuriously refused (or for the ledger to overspend)
        // depending on the rounding direction. Compensated summation makes
        // the accumulated spend the correctly rounded sum, for any total.
        for total in [1.0, 0.7, 0.3, 1e-9, 2.6543] {
            let mut acc = BudgetAccountant::new(PrivacyBudget::pure(total));
            let slice = PrivacyBudget::pure(total / 10.0);
            for i in 0..10 {
                acc.try_spend(slice)
                    .unwrap_or_else(|e| panic!("debit {i} of {total}/10 refused: {e}"));
            }
            // Exhausted: nothing measurable is left, and the next slice is
            // refused — no refusal before, no overdraft after.
            let spent = acc.spent().epsilon;
            assert!(
                (spent - total).abs() <= budget_tolerance(total),
                "{total}: spent {spent}"
            );
            assert!(acc.remaining().epsilon <= budget_tolerance(total));
            assert!(!acc.can_afford(slice), "{total}: eleventh debit admitted");
        }
    }

    #[test]
    fn long_equal_debit_streams_do_not_drift() {
        // 1000 debits of ε/1000: naive accumulation drifts by hundreds of
        // ulps; the compensated ledger stays within the admission tolerance
        // the whole way and admits every slice of the exact split.
        let total = 0.1;
        let n = 1000;
        let mut acc = BudgetAccountant::new(PrivacyBudget::pure(total));
        let slice = PrivacyBudget::pure(total / n as f64);
        for _ in 0..n {
            acc.try_spend(slice).unwrap();
        }
        assert!((acc.spent().epsilon - total).abs() <= budget_tolerance(total));
        assert!(!acc.can_afford(slice));
    }

    #[test]
    fn group_policy_prices_reports_and_groups_consistently() {
        let per_release = PrivacyBudget::pure(0.5);

        let split = GroupBudgetPolicy::default();
        assert_eq!(split, GroupBudgetPolicy::SplitEvenly);
        assert_eq!(split.report_cost(per_release, 8).epsilon, 0.5);
        assert!((split.per_group_fraction(8) - 0.125).abs() < 1e-15);
        // SplitEvenly's report cost is the per-release budget *exactly*,
        // not k·(ε/k) — so admission never depends on a rounding round-trip.
        assert_eq!(split.report_cost(per_release, 7).epsilon, 0.5);

        let full = GroupBudgetPolicy::PerGroup;
        assert_eq!(full.per_group_fraction(8), 1.0);
        assert!((full.report_cost(per_release, 8).epsilon - 4.0).abs() < 1e-12);

        let approx = PrivacyBudget::approximate(0.5, 1e-8);
        assert!((full.report_cost(approx, 4).delta - 4e-8).abs() < 1e-20);
        assert_eq!(split.report_cost(approx, 4).delta, 1e-8);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn group_policy_rejects_zero_groups() {
        let _ = GroupBudgetPolicy::SplitEvenly.per_group_fraction(0);
    }

    #[test]
    fn refund_restores_a_reserved_debit_exactly() {
        // The server's reserve-then-commit round trip: reserve at admission,
        // refund when the query fails having released nothing. The ledger
        // must land back on its exact pre-reserve state — including through
        // an inexact running sum (0.1 is not exact in binary).
        let mut acc = BudgetAccountant::new(PrivacyBudget::pure(1.0));
        acc.try_spend(PrivacyBudget::pure(0.1)).unwrap();
        let before = acc.remaining().epsilon;
        acc.try_spend(PrivacyBudget::pure(0.3)).unwrap();
        acc.refund(PrivacyBudget::pure(0.3));
        // The effective spend is back within the admission tolerance (the
        // compensation term carries the round trip's rounding) …
        assert!((acc.remaining().epsilon - before).abs() <= budget_tolerance(1.0));
        // … and the freed budget is genuinely spendable again: nine more
        // 0.1ε debits admit (the compensated stream cannot spuriously
        // refuse) and exactly exhaust the total.
        for i in 0..9 {
            acc.try_spend(PrivacyBudget::pure(0.1))
                .unwrap_or_else(|e| panic!("debit {i} refused after refund: {e}"));
        }
        assert!(!acc.can_afford(PrivacyBudget::pure(0.1)));
    }

    #[test]
    fn refund_clamps_at_a_fresh_ledger() {
        let mut acc = BudgetAccountant::new(PrivacyBudget::pure(1.0));
        acc.try_spend(PrivacyBudget::pure(0.2)).unwrap();
        acc.refund(PrivacyBudget::pure(0.5));
        assert_eq!(acc.spent().epsilon, 0.0);
        assert_eq!(acc.remaining().epsilon, 1.0);
    }

    #[test]
    fn delta_is_tracked_independently() {
        let mut acc = BudgetAccountant::new(PrivacyBudget::approximate(1.0, 1e-6));
        acc.try_spend(PrivacyBudget::approximate(0.1, 1e-6))
            .unwrap();
        // δ is gone even though plenty of ε remains.
        assert!(!acc.can_afford(PrivacyBudget::approximate(0.1, 1e-7)));
        assert!(acc.can_afford(PrivacyBudget::pure(0.1)));
    }

    #[test]
    fn tolerance_is_relative_so_tiny_delta_budgets_cannot_be_overdrawn() {
        // With an absolute slack, a 1e-9 allowance would admit a δ debit 10x
        // the entire 1e-10 budget. The relative tolerance must refuse it.
        let mut acc = BudgetAccountant::new(PrivacyBudget::approximate(1.0, 1e-10));
        let err = acc
            .try_spend(PrivacyBudget::approximate(0.1, 1e-9))
            .unwrap_err();
        assert_eq!(err.remaining.delta, 1e-10);
        // The exact budget is still spendable.
        acc.try_spend(PrivacyBudget::approximate(0.1, 1e-10))
            .unwrap();
        assert!(!acc.can_afford(PrivacyBudget::approximate(0.1, 1e-12)));
    }
}
