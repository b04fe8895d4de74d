//! Cross-crate integration tests: graph substrate → relational algebra →
//! sensitive K-relation → recursive mechanism, plus comparisons between the
//! general and the efficient instantiations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use recursive_mechanism_dp::core::efficient::EfficientSequences;
use recursive_mechanism_dp::core::general::GeneralSequences;
use recursive_mechanism_dp::core::params::MechanismParams;
use recursive_mechanism_dp::core::subgraph::{PrivacyUnit, SubgraphCounter};
use recursive_mechanism_dp::core::{Parallelism, RecursiveMechanism, SensitiveKRelation};
use recursive_mechanism_dp::graph::subgraph::triangle_count;
use recursive_mechanism_dp::graph::{generators, Graph, Pattern};
use recursive_mechanism_dp::krelation::algebra::{natural_join, rename, select};
use recursive_mechanism_dp::krelation::participant::ParticipantId;
use recursive_mechanism_dp::krelation::tuple::{Attr, Tuple};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::noise::accuracy::{median, relative_error};

/// The paper's Fig. 2 graph.
fn paper_graph() -> Graph {
    Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
}

/// Counting triangles through an explicit relational-algebra plan (a 3-way
/// self-join of the annotated edge table) must give the same sensitive
/// K-relation semantics as the direct subgraph-counting front-end: same true
/// answer, same universal empirical sensitivity.
#[test]
fn relational_algebra_plan_matches_subgraph_front_end() {
    let graph = paper_graph();

    // Edge table with both orientations, annotated for node privacy.
    let mut edges = KRelation::new(["x", "y"]);
    for &(u, v) in graph.edges() {
        for (a, b) in [(u, v), (v, u)] {
            edges.insert(
                Tuple::new([("x", a), ("y", b)]),
                Expr::conjunction_of_vars([ParticipantId(a), ParticipantId(b)]),
            );
        }
    }
    let e_xy = edges.clone();
    let e_yz = rename(&edges, |attr| match attr.name() {
        "x" => Attr::new("y"),
        _ => Attr::new("z"),
    });
    let e_xz = rename(&edges, |attr| match attr.name() {
        "x" => Attr::new("x"),
        _ => Attr::new("z"),
    });
    let triangles_rel = select(&natural_join(&natural_join(&e_xy, &e_yz), &e_xz), |t| {
        let x = t.get_named("x").unwrap().as_int().unwrap();
        let y = t.get_named("y").unwrap().as_int().unwrap();
        let z = t.get_named("z").unwrap().as_int().unwrap();
        x < y && y < z
    });

    let participants: Vec<ParticipantId> = (0..6).map(ParticipantId).collect();
    let algebra_query = SensitiveKRelation::new(&triangles_rel, participants, |_| 1.0);

    let counter = SubgraphCounter::new(
        Pattern::triangle(),
        PrivacyUnit::Node,
        MechanismParams::paper_node_privacy(0.5),
    );
    let front_end_query = counter.build_sensitive_relation(&graph);

    assert_eq!(algebra_query.true_answer(), 3.0);
    assert_eq!(algebra_query.true_answer(), front_end_query.true_answer());
    assert_eq!(algebra_query.support_size(), front_end_query.support_size());
    // The join-produced annotations repeat variables (e.g. (a∧b)∧(b∧c)∧(a∧c)),
    // but the impacted-participant structure is identical, so the universal
    // empirical sensitivity agrees with the front-end's.
    for p in (0..6).map(ParticipantId) {
        assert_eq!(
            algebra_query.universal_sensitivity_of(p),
            front_end_query.universal_sensitivity_of(p),
            "participant {p}"
        );
    }
}

/// On a tiny instance the general (subset-enumeration) and the efficient
/// (LP relaxation) instantiations must agree on the endpoints of H and
/// bracket each other in the documented direction in between.
#[test]
fn general_and_efficient_instantiations_are_consistent() {
    let graph = paper_graph();
    let counter = SubgraphCounter::new(
        Pattern::triangle(),
        PrivacyUnit::Node,
        MechanismParams::paper_node_privacy(0.5),
    );
    let query = counter.build_sensitive_relation(&graph);

    let (efficient, _) = EfficientSequences::new(query.clone())
        .solve_table(Parallelism::Serial)
        .unwrap();
    let general = GeneralSequences::build(&query).unwrap();

    let n = query.num_participants();
    let (relaxed_h, subset_h) = (efficient.h_entries(), general.h_entries());
    assert!((relaxed_h[n] - subset_h[n]).abs() < 1e-6);
    assert!((relaxed_h[0] - 0.0).abs() < 1e-9);
    for i in 0..=n {
        let (relaxed, subset) = (relaxed_h[i], subset_h[i]);
        assert!(
            relaxed <= subset + 1e-6,
            "H_{i}: relaxation {relaxed} must not exceed the subset minimum {subset}"
        );
        assert!(relaxed >= -1e-9);
    }
}

/// End-to-end node-privacy releases concentrate around the true triangle
/// count once the graph is large enough relative to the sensitivity, and the
/// clipped estimate X never exceeds the true answer.
#[test]
fn node_privacy_releases_concentrate_on_a_mid_size_graph() {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = generators::gnp_average_degree(40, 8.0, &mut rng);
    let true_count = triangle_count(&graph) as f64;

    let counter = SubgraphCounter::new(
        Pattern::triangle(),
        PrivacyUnit::Edge,
        MechanismParams::paper_edge_privacy(1.0),
    );
    let mut prepared = counter.prepare(&graph).unwrap();
    assert_eq!(prepared.true_count, true_count);

    let answers = prepared.release_many(41, &mut rng).unwrap();
    let errors: Vec<f64> = answers
        .iter()
        .map(|a| relative_error(a.noisy_count, true_count))
        .collect();
    let med = median(&errors);
    assert!(
        med < 1.0,
        "median relative error {med} unexpectedly large for edge privacy at eps=1"
    );
    for a in &answers {
        assert!(a.release.x <= true_count + 1e-6);
    }
}

/// Withdrawing a node from the graph (the node-privacy notion of
/// neighbouring) never increases the deterministic threshold Δ by more than
/// the factor e^β (Lemma 1), checked end-to-end through the subgraph
/// front-end.
#[test]
fn delta_is_stable_across_node_withdrawal() {
    let graph = paper_graph();
    let params = MechanismParams::paper_node_privacy(0.5);
    let beta = params.beta;

    let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Node, params);

    let full = counter.prepare(&graph).unwrap();
    let delta_full = full.mechanism().delta();

    for v in 0..6u32 {
        // The neighbouring database: node v withdraws, taking its incident
        // edges along. The participant universe keeps the same size (the
        // node is still listed, just contributes nothing), which mirrors the
        // K-relation restriction R(t)|v→False.
        let smaller_graph = graph.without_node(v);
        let smaller = counter.prepare(&smaller_graph).unwrap();
        let delta_smaller = smaller.mechanism().delta();
        let log_gap = (delta_full.ln() - delta_smaller.ln()).abs();
        assert!(
            log_gap <= beta + 1e-9,
            "withdrawing node {v}: |ln Δ − ln Δ'| = {log_gap} exceeds β = {beta}"
        );
    }
}

/// The whole pipeline stays usable for a weighted linear statistic (not just
/// counting): weighting triangles by a per-occurrence payload.
#[test]
fn weighted_linear_statistic_release() {
    let graph = paper_graph();
    let counter = SubgraphCounter::new(
        Pattern::triangle(),
        PrivacyUnit::Node,
        MechanismParams::paper_node_privacy(1.0),
    );
    let relation_tuples = counter.build_sensitive_relation(&graph);
    // Re-weight: the first tuple counts double.
    let terms: Vec<(Expr, f64)> = relation_tuples
        .terms()
        .iter()
        .enumerate()
        .map(|(i, (e, _))| (e.clone(), if i == 0 { 2.0 } else { 1.0 }))
        .collect();
    let weighted = SensitiveKRelation::from_terms(relation_tuples.participants().to_vec(), terms);
    assert_eq!(weighted.true_answer(), 4.0);

    let params = MechanismParams::paper_node_privacy(1.0);
    let (table, _) = EfficientSequences::new(weighted)
        .solve_table(params.parallelism)
        .unwrap();
    let mut mech = RecursiveMechanism::new(table.into(), params).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let release = mech.release(&mut rng).unwrap();
    assert!((release.true_answer - 4.0).abs() < 1e-6);
    assert!(release.noisy_answer.is_finite());
}
