//! Warm-started sequence chains, end to end (the fig-4 workloads).
//!
//! The point of the revised-simplex refactor: solving a whole `H`/`G` family
//! as warm-started chains must (a) produce the same sequences as
//! entry-by-entry cold solves within tolerance, (b) spend strictly fewer
//! total simplex pivots — observable through `LpWorkStats` — and (c) keep
//! the serial/parallel bit-identity contract of `tests/parallel_determinism.rs`
//! intact (that file runs unchanged next to this one). On a larger graph the
//! chains' pivots, solve count and basis-update sizes are held to exact
//! limits: all three are deterministic, so exceeding one is a regression,
//! not noise.

use rand::rngs::StdRng;
use rand::SeedableRng;
use recursive_mechanism_dp::core::efficient::EfficientSequences;
use recursive_mechanism_dp::core::params::MechanismParams;
use recursive_mechanism_dp::core::subgraph::{PrivacyUnit, SubgraphCounter};
use recursive_mechanism_dp::core::{Parallelism, SensitiveKRelation, SequenceFamily};
use recursive_mechanism_dp::graph::{generators, Pattern};
use recursive_mechanism_dp::krelation::hash::FxHashSet;
use recursive_mechanism_dp::lp::{time_factorizations, SimplexOptions};

/// A fig-4 workload at small scale: `pattern` counts under node privacy on a
/// G(n, p) random graph with `nodes` nodes. (Kept small enough for
/// debug-mode CI: a 2-star family on 16 nodes is still a few-hundred-row LP
/// per entry.)
fn fig4_relation(pattern: Pattern, nodes: usize, average_degree: f64) -> SensitiveKRelation {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::gnp_average_degree(nodes, average_degree, &mut rng);
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

/// The participants some term of `seq`'s query names: each chain steps over
/// these only.
fn named_participants(seq: &EfficientSequences) -> usize {
    let mut named = FxHashSet::default();
    for (expr, _) in seq.query().terms() {
        expr.collect_variables(&mut named);
    }
    named.len()
}

#[test]
fn warm_chains_beat_cold_solves_on_the_fig4_families() {
    for pattern in [Pattern::triangle(), Pattern::k_star(2)] {
        let name = pattern.name().to_string();
        let seq = EfficientSequences::new(fig4_relation(pattern, 16, 4.5));
        let n = seq.query().num_participants();
        let named = named_participants(&seq);

        // Warm-started chains vs entry-by-entry cold solves of the same
        // entry models.
        let (table, warm) = seq.solve_table(Parallelism::Serial).unwrap();
        let cold_h = solve_cold(&seq, SequenceFamily::H);
        let cold_g = solve_cold(&seq, SequenceFamily::G);

        // The cold side solves every entry of the unreduced LP; the chains
        // step only over the participants some pattern occurrence names.
        assert_eq!(warm.h_solves, named + 1, "{name}");
        assert_eq!(cold_h.values.len(), n + 1, "{name}");
        assert_eq!(warm.g_solves, named + 1, "{name}");

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
    let seq = EfficientSequences::new(fig4_relation(Pattern::triangle(), 16, 4.5));
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

#[test]
fn fig4_warm_chains_stay_within_their_exact_work_limits() {
    // The 24-node graph of the fig-4 work limits. Per pattern: the pivot
    // limit the chains reach on the reduced LP, and the mean entries a
    // Forrest–Tomlin update may store (set when those updates replaced the
    // product-form eta file, which stored 544.35 per update on the 2-star
    // chain).
    for (pattern, pivot_limit, update_nnz_limit) in [
        (Pattern::triangle(), 272, None),
        (Pattern::k_star(2), 1_282, Some(57.95)),
    ] {
        let name = pattern.name().to_string();
        let seq = EfficientSequences::new(fig4_relation(pattern, 24, 6.0));
        // A zero clock: only the update counts are read, never a time.
        let ((_, warm), factor) =
            time_factorizations(|| 0, || seq.solve_table(Parallelism::Serial).unwrap());

        assert!(
            warm.total_pivots <= pivot_limit,
            "{name}: warm chains spent {} pivots (limit {pivot_limit})",
            warm.total_pivots,
        );
        // Every warm entry re-enters through the dual simplex; a silent
        // fallback to the composite phase 1 costs 2–3× the pivots.
        assert_eq!(warm.phase1_pivots, 0, "{name}");
        // One step per named participant plus `j = 0`, per chain: any other
        // count means the chains no longer run on the reduced LP.
        assert_eq!(
            warm.h_solves + warm.g_solves,
            2 * (named_participants(&seq) + 1),
            "{name}"
        );
        if let Some(limit) = update_nnz_limit {
            let mean = factor.update_nnz as f64 / factor.updates.max(1) as f64;
            assert!(
                mean <= limit,
                "{name}: {mean:.2} entries stored per basis update (limit {limit})"
            );
        }
    }
}
