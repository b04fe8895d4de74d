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
use recursive_mechanism_dp::core::subgraph::{PrivacyUnit, SubgraphCounter};
use recursive_mechanism_dp::core::{Parallelism, SensitiveKRelation, SequenceFamily};
use recursive_mechanism_dp::graph::{generators, Pattern};
use recursive_mechanism_dp::krelation::hash::FxHashSet;
use recursive_mechanism_dp::lp::SimplexOptions;

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

/// What entry-by-entry cold solves of one family cost: values, total and
/// phase-1 pivots.
struct ColdFamily {
    values: Vec<f64>,
    pivots: usize,
    phase1_pivots: usize,
}

/// Solves every entry model of `family` from a cold start.
fn solve_cold(seq: &EfficientSequences, family: SequenceFamily) -> ColdFamily {
    let mut cold = ColdFamily {
        values: Vec::new(),
        pivots: 0,
        phase1_pivots: 0,
    };
    for i in 0..=seq.query().num_participants() {
        let (model, offset) = seq.entry_model(family, i);
        let solution = model
            .prepare()
            .unwrap()
            .solve(&SimplexOptions::default())
            .unwrap()
            .solution;
        assert!(!solution.stats.warm_started, "{family}_{i}");
        cold.values.push(solution.objective + offset);
        cold.pivots += solution.stats.total_iterations();
        cold.phase1_pivots += solution.stats.phase1_iterations;
    }
    cold
}

#[test]
fn warm_chains_beat_cold_solves_on_the_fig4_families() {
    for pattern in [Pattern::triangle(), Pattern::k_star(2)] {
        let name = pattern.name().to_string();
        let seq = EfficientSequences::new(fig4_relation(pattern));
        let n = seq.query().num_participants();
        let mut named = FxHashSet::default();
        for (expr, _) in seq.query().terms() {
            expr.collect_variables(&mut named);
        }

        // Warm-started chains vs entry-by-entry cold solves of the same
        // entry models.
        let (table, warm) = seq.solve_table(Parallelism::Serial).unwrap();
        let cold_h = solve_cold(&seq, SequenceFamily::H);
        let cold_g = solve_cold(&seq, SequenceFamily::G);

        // The cold side solves every entry of the unreduced LP; the chains
        // step only over the participants some pattern occurrence names.
        assert_eq!(warm.h_solves, named.len() + 1, "{name}");
        assert_eq!(cold_h.values.len(), n + 1, "{name}");
        assert_eq!(warm.g_solves, named.len() + 1, "{name}");

        // Same sequences within tolerance.
        for i in 0..=n {
            let (hw, hc) = (table.h_entries()[i], cold_h.values[i]);
            assert!((hw - hc).abs() < 1e-6, "{name} H_{i}: {hw} vs {hc}");
            let (gw, gc) = (table.g_entries()[i], cold_g.values[i]);
            assert!((gw - gc).abs() < 1e-6, "{name} G_{i}: {gw} vs {gc}");
        }

        // The headline claim, asserted via LpWorkStats: strictly fewer total
        // pivots, with the savings visible in the right counters.
        let cold_pivots = cold_h.pivots + cold_g.pivots;
        let cold_phase1 = cold_h.phase1_pivots + cold_g.phase1_pivots;
        assert!(
            warm.total_pivots < cold_pivots,
            "{name}: warm chains spent {} pivots, cold solves {cold_pivots}",
            warm.total_pivots,
        );
        assert!(warm.warm_start_hits > 0, "{name}");
        assert!(
            warm.phase1_pivots < cold_phase1,
            "{name}: warm re-entry must cut phase-1 work ({} vs {cold_phase1})",
            warm.phase1_pivots,
        );
        // Warm entries re-enter through the dual simplex: no composite
        // phase-1 pivot anywhere in the default chains.
        assert_eq!(warm.phase1_pivots, 0, "{name}");
        assert!(warm.dual_pivots > 0, "{name}");
    }
}

#[test]
fn warm_chains_survive_parallelism_bit_for_bit() {
    // The H and G chains are the units of parallel work: each runs whole on
    // one worker, so the warm starts inside it happen identically no matter
    // how many workers there are.
    let seq = EfficientSequences::new(fig4_relation(Pattern::triangle()));
    let (serial, serial_stats) = seq.solve_table(Parallelism::Serial).unwrap();
    for workers in [2usize, 5] {
        let (parallel, stats) = seq.solve_table(Parallelism::Threads(workers)).unwrap();
        assert_eq!(
            serial.h_entries(),
            parallel.h_entries(),
            "{workers} workers"
        );
        assert_eq!(
            serial.g_entries(),
            parallel.g_entries(),
            "{workers} workers"
        );
        assert_eq!(
            serial_stats.total_pivots, stats.total_pivots,
            "{workers} workers: same chains, same pivots"
        );
        assert_eq!(
            serial_stats.warm_start_hits, stats.warm_start_hits,
            "{workers} workers: same chains, same warm starts"
        );
    }
}
