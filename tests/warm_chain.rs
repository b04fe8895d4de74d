//! Warm-started sequence chains, end to end (the fig-4 workloads).
//!
//! The point of the revised-simplex refactor: solving a whole `H`/`G` family
//! as warm-started chains must (a) produce the same sequences as
//! entry-by-entry cold solves within tolerance, (b) spend strictly fewer
//! total simplex pivots — observable through `LpWorkStats` — and (c) keep
//! the serial/parallel bit-identity contract of `tests/parallel_determinism.rs`
//! intact (that file runs unchanged next to this one).

use rand::rngs::StdRng;
use rand::SeedableRng;
use recursive_mechanism_dp::core::efficient::EfficientSequences;
use recursive_mechanism_dp::core::params::MechanismParams;
use recursive_mechanism_dp::core::sequences::MechanismSequences;
use recursive_mechanism_dp::core::subgraph::{PrivacyUnit, SubgraphCounter};
use recursive_mechanism_dp::core::{Parallelism, SensitiveKRelation};
use recursive_mechanism_dp::graph::{generators, Pattern};

/// A fig-4 workload at small scale: `pattern` counts under node privacy on a
/// G(n, p) random graph. (Kept small enough for debug-mode CI: a 2-star
/// family on this graph is still a few-hundred-row LP per entry.)
fn fig4_relation(pattern: Pattern) -> SensitiveKRelation {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::gnp_average_degree(16, 4.5, &mut rng);
    SubgraphCounter::new(
        pattern,
        PrivacyUnit::Node,
        MechanismParams::paper_node_privacy(0.5),
    )
    .build_sensitive_relation(&graph)
}

#[test]
fn warm_chains_beat_cold_solves_on_the_fig4_families() {
    for pattern in [Pattern::triangle(), Pattern::k_star(2)] {
        let name = pattern.name().to_string();
        let relation = fig4_relation(pattern);
        let n = relation.num_participants();

        // Warm-started chains (the default) vs entry-by-entry cold solves
        // (run length 1 disables warm starts).
        let mut chained = EfficientSequences::new(relation.clone());
        let mut cold = EfficientSequences::new(relation).with_chain_run_len(1);
        chained.precompute(Parallelism::Serial).unwrap();
        cold.precompute(Parallelism::Serial).unwrap();

        // Same number of solves either way — the chains change *how* each
        // entry is solved, not *what* is solved.
        assert_eq!(chained.stats().h_solves, n + 1, "{name}");
        assert_eq!(cold.stats().h_solves, n + 1, "{name}");
        assert_eq!(chained.stats().g_solves, n + 1, "{name}");

        // Same sequences within tolerance.
        for i in 0..=n {
            let (hw, hc) = (chained.h(i).unwrap(), cold.h(i).unwrap());
            assert!((hw - hc).abs() < 1e-6, "{name} H_{i}: {hw} vs {hc}");
            let (gw, gc) = (chained.g(i).unwrap(), cold.g(i).unwrap());
            assert!((gw - gc).abs() < 1e-6, "{name} G_{i}: {gw} vs {gc}");
        }

        // The headline claim, asserted via LpWorkStats: strictly fewer total
        // pivots, with the savings visible in the right counters.
        let warm = chained.stats();
        let cold = cold.stats();
        assert!(
            warm.total_pivots < cold.total_pivots,
            "{name}: warm chains spent {} pivots, cold solves {}",
            warm.total_pivots,
            cold.total_pivots
        );
        assert!(warm.warm_start_hits > 0, "{name}");
        assert_eq!(cold.warm_start_hits, 0, "{name}");
        assert!(
            warm.phase1_pivots < cold.phase1_pivots,
            "{name}: warm re-entry must cut phase-1 work ({} vs {})",
            warm.phase1_pivots,
            cold.phase1_pivots
        );
        // Warm entries re-enter through the dual simplex: no composite
        // phase-1 pivot anywhere in the default chains.
        assert_eq!(warm.phase1_pivots, 0, "{name}");
        assert!(warm.dual_pivots > 0, "{name}");
    }
}

#[test]
fn warm_chains_survive_parallelism_bit_for_bit() {
    // The chunked-chain mapping: runs are cut at fixed points, so the warm
    // starts inside a run happen identically no matter how many workers the
    // runs are spread over.
    let relation = fig4_relation(Pattern::triangle());
    let n = relation.num_participants();

    let mut serial = EfficientSequences::new(relation.clone());
    serial.precompute(Parallelism::Serial).unwrap();
    for workers in [2usize, 5] {
        let mut parallel = EfficientSequences::new(relation.clone());
        parallel.precompute(Parallelism::Threads(workers)).unwrap();
        for i in 0..=n {
            assert_eq!(serial.h(i).unwrap(), parallel.h(i).unwrap(), "H_{i}");
            assert_eq!(serial.g(i).unwrap(), parallel.g(i).unwrap(), "G_{i}");
        }
        assert_eq!(
            serial.stats().total_pivots,
            parallel.stats().total_pivots,
            "{workers} workers: same chains, same pivots"
        );
        assert_eq!(
            serial.stats().warm_start_hits,
            parallel.stats().warm_start_hits,
            "{workers} workers: same chains, same warm starts"
        );
    }
}
