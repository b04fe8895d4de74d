//! Recursive sequences and bounding sequences.
//!
//! The mechanism driver only needs three things from an instantiation
//! (Defs. 17, 18):
//!
//! * the number of participants `|P|`,
//! * the recursive sequence entries `H_0 … H_{|P|}` with
//!   `H_{|P|} = q(M(P))`,
//! * a g-bounding sequence `G_0 … G_{|P|}` together with its factor `g`.
//!
//! Both instantiations deliver all of it as one complete table, a
//! [`FrozenSequences`]: the LP-based
//! [`EfficientSequences`](crate::EfficientSequences) solves its H and G
//! chains whole, and the subset-enumeration
//! [`GeneralSequences`](crate::GeneralSequences) builds every entry eagerly.
//! The driver reads entries from the table and never solves anything.
//!
//! The `validate_*` functions are test oracles for the defining
//! inequalities; the unit and property tests of both instantiations run
//! them over the produced tables.

use crate::cache::FrozenSequences;

/// Checks `entries[0] = 0` and the within-database consequence of recursive
/// monotonicity: the entries must be non-decreasing in `i` (test helper, for
/// `H` and `G` alike).
pub fn validate_monotone_start_at_zero(entries: &[f64]) -> Result<(), String> {
    let first = entries.first().copied().unwrap_or(0.0);
    if first.abs() > 1e-7 {
        return Err(format!("entry 0 is {first}, expected 0"));
    }
    for (i, pair) in entries.windows(2).enumerate() {
        let (prev, cur) = (pair[0], pair[1]);
        if cur + 1e-7 < prev {
            return Err(format!(
                "entry {} = {cur} decreased below entry {i} = {prev}",
                i + 1
            ));
        }
    }
    Ok(())
}

/// Checks the cross-database half of recursive monotonicity (Def. 17):
/// `H_i(P₂) ≤ H_i(P₁) ≤ H_{i+1}(P₂)` for a neighbouring pair where `P₂` has
/// one more participant than `P₁`, and the same for `G` (test helper;
/// `smaller` must be the ancestor).
pub fn validate_recursive_monotonicity(
    smaller: &FrozenSequences,
    larger: &FrozenSequences,
) -> Result<(), String> {
    let n1 = smaller.num_participants();
    let n2 = larger.num_participants();
    if n2 != n1 + 1 {
        return Err(format!("expected |P2| = |P1| + 1, got {n1} and {n2}"));
    }
    let families = [
        ("H", smaller.h_entries(), larger.h_entries()),
        ("G", smaller.g_entries(), larger.g_entries()),
    ];
    for (name, small, large) in families {
        for i in 0..=n1 {
            let (v1, v2, v2_next) = (small[i], large[i], large[i + 1]);
            if v2 > v1 + 1e-7 {
                return Err(format!(
                    "{name}_{i}(P2) = {v2} exceeds {name}_{i}(P1) = {v1}"
                ));
            }
            if v1 > v2_next + 1e-7 {
                return Err(format!(
                    "{name}_{i}(P1) = {v1} exceeds {name}_{}(P2) = {v2_next}",
                    i + 1
                ));
            }
        }
    }
    Ok(())
}

/// Checks the g-bounding property (Def. 18):
/// `H_j ≤ H_i + (|P| − i) · G_k` with `k = |P| − ⌊(|P| − j)/g⌋`, for all
/// `0 ≤ i ≤ j ≤ |P|` (test helper).
pub fn validate_bounding_property(table: &FrozenSequences) -> Result<(), String> {
    let n = table.num_participants();
    let g = table.bounding_factor();
    let (h_entries, g_entries) = (table.h_entries(), table.g_entries());
    for j in 0..=n {
        let k = n - ((n - j) as f64 / g).floor() as usize;
        let (hj, gk) = (h_entries[j], g_entries[k]);
        for (i, &hi) in h_entries[..=j].iter().enumerate() {
            let bound = hi + (n - i) as f64 * gk;
            if hj > bound + 1e-6 {
                return Err(format!(
                    "H_{j} = {hj} exceeds H_{i} + (|P|-{i})·G_{k} = {bound}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks convexity of `H` over integer indices, a property of the exact
/// sequences (Lemma 10) that the computed ones should keep up to the LP
/// tolerance (test helper). The driver does not rely on it: its argmin is a
/// linear scan.
pub fn validate_convexity(h: &[f64]) -> Result<(), String> {
    for (i, w) in h.windows(3).enumerate() {
        let (rise, next_rise) = (w[1] - w[0], w[2] - w[1]);
        if rise > next_rise + 1e-6 {
            return Err(format!(
                "convexity violated at {i}: increments {rise} then {next_rise}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy table for exercising the validators: H_i = i² (convex,
    /// monotone, 0 at 0), G_i = 2i + 1 ≥ max marginal of H up to |P|.
    fn quadratic(n: usize) -> FrozenSequences {
        // The largest marginal of H on a database with i participants is
        // H_i − H_{i−1} = 2i − 1; use 2i + 1 ≥ that, monotone, G_0 = 1.
        FrozenSequences::from_entries(
            (0..=n).map(|i| (i * i) as f64).collect(),
            (0..=n).map(|i| (2 * i + 1) as f64).collect(),
            1.0,
        )
    }

    #[test]
    fn quadratic_sequence_passes_monotonicity_and_convexity() {
        let q = quadratic(8);
        assert!(validate_monotone_start_at_zero(q.h_entries()).is_ok());
        assert!(validate_convexity(q.h_entries()).is_ok());
        assert_eq!(q.h_entries().last(), Some(&64.0));
    }

    #[test]
    fn bounding_property_holds_for_quadratic() {
        // H_j − H_i = j² − i² ≤ (n − i)(2n+1)? For j ≤ n this holds since
        // j² − i² = (j−i)(j+i) ≤ (n − i)·2n < (n − i)·G_n; the validator
        // uses G_k with k ≥ j which is even larger.
        assert!(validate_bounding_property(&quadratic(8)).is_ok());
    }

    #[test]
    fn violations_are_detected() {
        // Not convex and not starting at zero.
        let bad = FrozenSequences::from_entries(vec![1.0, 5.0, 6.0, 7.0], vec![0.0; 4], 1.0);
        assert!(validate_monotone_start_at_zero(bad.h_entries()).is_err());
        assert!(validate_convexity(bad.h_entries()).is_err());
        assert!(validate_bounding_property(&bad).is_err());
        assert!(validate_recursive_monotonicity(&bad, &quadratic(4)).is_err());
    }
}
