//! The general but inefficient instantiation (paper Sec. 4.2).
//!
//! For an arbitrary monotonic query on an arbitrary sensitive database the
//! paper constructs
//!
//! * `H_i = min_{|P'| = i} q(M(P'))` (Eq. 13) and
//! * `G_i = min_{|P'| = i} G̃S_q(P', M)` (Eq. 14),
//!
//! both minima over ancestor databases with exactly `i` participants. `H` is
//! a recursive sequence with `H_{|P|} = q(M(P))` and `G` is a (1-)bounding
//! sequence of `H` (Theorem 2), so the driver's error is roughly proportional
//! to the global empirical sensitivity.
//!
//! The construction enumerates all `2^{|P|}` participant subsets; it is the
//! reference implementation used for small databases and as a test oracle for
//! the efficient instantiation. [`GeneralSequences::into_table`] hands the
//! eager build to the driver as a [`FrozenSequences`] table.

use crate::cache::FrozenSequences;
use crate::error::MechanismError;
use crate::sensitive::SensitiveQuery;
use rmdp_krelation::hash::FxHashSet;
use rmdp_krelation::participant::ParticipantId;
use rmdp_runtime::{par_map_indexed, Parallelism};

/// Hard cap on `|P|` for the exhaustive enumeration.
pub const MAX_PARTICIPANTS: usize = 22;

/// The subset-enumeration instantiation.
///
/// All `2^{|P|}` query values and global-empirical-sensitivity values are
/// computed eagerly at construction time (each subset is visited once).
pub struct GeneralSequences {
    /// `H_i` for every `i`.
    h: Vec<f64>,
    /// `G_i` for every `i`.
    g: Vec<f64>,
}

/// Evaluates `q(M(S))` for the subset encoded by `mask`.
fn eval_mask<Q: SensitiveQuery>(query: &Q, participants: &[ParticipantId], mask: usize) -> f64 {
    let subset: FxHashSet<ParticipantId> = participants
        .iter()
        .enumerate()
        .filter(|(i, _)| (mask >> i) & 1 == 1)
        .map(|(_, &p)| p)
        .collect();
    query.query_on_subset(&subset)
}

impl GeneralSequences {
    /// Checks the enumeration cap and returns `(participants, 2^|P|)`.
    fn check<Q: SensitiveQuery>(query: &Q) -> Result<(Vec<ParticipantId>, usize), MechanismError> {
        let participants = query.participants();
        let n = participants.len();
        if n > MAX_PARTICIPANTS {
            return Err(MechanismError::UnsupportedInstance(format!(
                "general instantiation enumerates 2^|P| subsets; |P| = {n} exceeds the cap of {MAX_PARTICIPANTS}"
            )));
        }
        Ok((participants, 1usize << n))
    }

    /// Builds the sequences for a sensitive query by exhaustive enumeration
    /// on the calling thread. See [`GeneralSequences::build_with`] for the
    /// parallel variant (which additionally needs `Q: Sync`).
    pub fn build<Q: SensitiveQuery>(query: &Q) -> Result<Self, MechanismError> {
        let (participants, size) = Self::check(query)?;
        let q_of: Vec<f64> = (0..size)
            .map(|mask| eval_mask(query, &participants, mask))
            .collect();
        Ok(Self::from_subset_values(participants.len(), q_of))
    }

    /// Builds the sequences for a sensitive query by exhaustive enumeration,
    /// evaluating the `2^{|P|}` subset queries — the expensive part, each an
    /// independent evaluation of `q(M(S))` — in chunks on the scoped worker
    /// pool. The sensitivity DP that follows is inherently sequential (each
    /// subset reads its one-bit-smaller subsets) but costs only a few float
    /// ops per subset, so it stays on the calling thread. Results are
    /// bit-identical to the serial build.
    pub fn build_with<Q: SensitiveQuery + Sync>(
        query: &Q,
        parallelism: Parallelism,
    ) -> Result<Self, MechanismError> {
        if parallelism.workers() <= 1 {
            return Self::build(query);
        }
        let (participants, size) = Self::check(query)?;
        // Computed in contiguous chunks so each worker writes one dense run
        // and the merge is a concatenation in chunk (= mask) order.
        let chunk = size.div_ceil(parallelism.workers() * 8).max(1);
        let num_chunks = size.div_ceil(chunk);
        let chunks = par_map_indexed(parallelism, num_chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(size);
            (lo..hi)
                .map(|mask| eval_mask(query, &participants, mask))
                .collect::<Vec<f64>>()
        });
        Ok(Self::from_subset_values(
            participants.len(),
            chunks.concat(),
        ))
    }

    /// Finishes the build from the per-mask query values: the sensitivity DP
    /// and the per-size minima.
    fn from_subset_values(n: usize, q_of: Vec<f64>) -> Self {
        let size = q_of.len();
        debug_assert_eq!(size, 1usize << n);

        // Local empirical sensitivity per subset, then the global empirical
        // sensitivity G̃S(S) = max(L̃S(S), max_{p∈S} G̃S(S − {p})) via a DP in
        // increasing subset order (every strict subset has a smaller mask
        // when exactly one bit is cleared).
        let mut gs: Vec<f64> = vec![0.0; size];
        for mask in 0..size {
            let mut local = 0.0f64;
            let mut inherited = 0.0f64;
            for i in 0..n {
                if (mask >> i) & 1 == 1 {
                    let smaller = mask & !(1 << i);
                    local = local.max((q_of[mask] - q_of[smaller]).abs());
                    inherited = inherited.max(gs[smaller]);
                }
            }
            gs[mask] = local.max(inherited);
        }

        // H_i and G_i: minima over subsets of each size.
        let mut h = vec![f64::INFINITY; n + 1];
        let mut g = vec![f64::INFINITY; n + 1];
        for mask in 0..size {
            let i = (mask as u64).count_ones() as usize;
            h[i] = h[i].min(q_of[mask]);
            g[i] = g[i].min(gs[mask]);
        }

        GeneralSequences { h, g }
    }

    /// The precomputed `H` entries (diagnostic access).
    pub fn h_entries(&self) -> &[f64] {
        &self.h
    }

    /// The precomputed `G` entries (diagnostic access).
    pub fn g_entries(&self) -> &[f64] {
        &self.g
    }

    /// The complete table the driver releases from; `G` is a 1-bounding
    /// sequence of `H` (Theorem 2).
    pub fn into_table(self) -> FrozenSequences {
        FrozenSequences::from_entries(self.h, self.g, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::global_empirical_sensitivity_exhaustive;
    use crate::sensitive::FnSensitiveQuery;
    use crate::sequences::{
        validate_bounding_property, validate_monotone_start_at_zero,
        validate_recursive_monotonicity,
    };

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    /// q(S) = number of unordered pairs {u, v} ⊆ S that are "friends"
    /// according to a fixed edge list — a tiny node-privacy edge-counting
    /// query.
    fn edge_count_query(
        nodes: usize,
        edges: &'static [(u32, u32)],
    ) -> FnSensitiveQuery<impl Fn(&FxHashSet<ParticipantId>) -> f64> {
        FnSensitiveQuery::new((0..nodes as u32).map(p).collect(), move |s| {
            edges
                .iter()
                .filter(|(u, v)| s.contains(&p(*u)) && s.contains(&p(*v)))
                .count() as f64
        })
    }

    const SQUARE_WITH_DIAGONAL: &[(u32, u32)] = &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];

    #[test]
    fn h_last_entry_is_the_true_answer_and_h0_is_zero() {
        let q = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let seq = GeneralSequences::build(&q).unwrap();
        assert_eq!(seq.h_entries()[0], 0.0);
        assert_eq!(seq.h_entries()[4], 5.0);
        assert_eq!(seq.into_table().num_participants(), 4);
    }

    #[test]
    fn h_entries_are_minima_over_subsets() {
        let q = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let seq = GeneralSequences::build(&q).unwrap();
        // With only 2 nodes kept, the best case keeps a non-adjacent pair:
        // {1, 3} has 0 edges.
        assert_eq!(seq.h_entries()[2], 0.0);
        // With 3 nodes kept, the sparsest induced subgraph is {1, 2, 3} or
        // {0, 1, 3} with 2 edges... {1,2,3} has edges (1,2),(2,3) = 2;
        // {0,1,3} has (0,1),(3,0) = 2. So H_3 = 2.
        assert_eq!(seq.h_entries()[3], 2.0);
    }

    #[test]
    fn g_last_entry_matches_global_empirical_sensitivity() {
        let q = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let seq = GeneralSequences::build(&q).unwrap();
        let gs = global_empirical_sensitivity_exhaustive(&q);
        assert_eq!(seq.g_entries()[4], gs);
        // Node 0 and 2 have degree 3: removing either changes the count by 3.
        assert_eq!(gs, 3.0);
    }

    #[test]
    fn sequences_satisfy_the_defining_properties() {
        let q = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let table = GeneralSequences::build(&q).unwrap().into_table();
        validate_monotone_start_at_zero(table.h_entries()).unwrap();
        validate_monotone_start_at_zero(table.g_entries()).unwrap();
        validate_bounding_property(&table).unwrap();
    }

    #[test]
    fn recursive_monotonicity_across_a_neighbouring_pair() {
        // The smaller database drops node 3 (and therefore its incident
        // edges) — exactly the node-privacy notion of neighbouring.
        const SMALLER_EDGES: &[(u32, u32)] = &[(0, 1), (1, 2), (0, 2)];
        let q_small = edge_count_query(3, SMALLER_EDGES);
        let q_large = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let small = GeneralSequences::build(&q_small).unwrap().into_table();
        let large = GeneralSequences::build(&q_large).unwrap().into_table();
        validate_recursive_monotonicity(&small, &large).unwrap();
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let q = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let serial = GeneralSequences::build(&q).unwrap();
        for p in [Parallelism::Threads(2), Parallelism::Threads(5)] {
            let parallel = GeneralSequences::build_with(&q, p).unwrap();
            assert_eq!(serial.h_entries(), parallel.h_entries(), "{p}");
            assert_eq!(serial.g_entries(), parallel.g_entries(), "{p}");
        }
    }

    #[test]
    fn too_many_participants_are_rejected() {
        let q = FnSensitiveQuery::new((0..30).map(p).collect(), |s| s.len() as f64);
        match GeneralSequences::build(&q) {
            Err(MechanismError::UnsupportedInstance(_)) => {}
            other => panic!("expected UnsupportedInstance, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn end_to_end_release_with_the_general_instantiation() {
        use crate::mechanism::RecursiveMechanism;
        use crate::params::MechanismParams;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let q = edge_count_query(4, SQUARE_WITH_DIAGONAL);
        let table = GeneralSequences::build(&q).unwrap().into_table();
        let mut mech =
            RecursiveMechanism::new(table.into(), MechanismParams::paper_node_privacy(1.0))
                .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let releases = mech.release_many(50, &mut rng).unwrap();
        for r in &releases {
            assert_eq!(r.true_answer, 5.0);
            assert!(r.noisy_answer.is_finite());
        }
    }
}
