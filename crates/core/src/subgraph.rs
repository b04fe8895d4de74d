//! Subgraph counting under node or edge differential privacy.
//!
//! Subgraph counting is the paper's flagship instance of a linear statistic
//! over an unrestricted-join query: every occurrence of the query pattern
//! becomes one tuple of the sensitive K-relation, annotated with
//!
//! * the conjunction of its **node** participants (node privacy — the first
//!   mechanism to achieve this for arbitrary patterns), or
//! * the conjunction of its **edge** participants (edge privacy, the setting
//!   of the prior work it is compared against),
//!
//! exactly as in the paper's Fig. 2. The annotations are single conjunctions
//! (DNF clauses), so every φ-sensitivity is 1 and the mechanism's error is
//! roughly proportional to the *local empirical sensitivity* of the count.
//!
//! Optional occurrence constraints ("only triangles whose nodes all satisfy
//! X") are supported by filtering the matched occurrences before annotation —
//! the privacy argument is unchanged because the constraint only removes
//! tuples from the K-relation.

use crate::efficient::{EfficientSequences, LpWorkStats};
use crate::error::MechanismError;
use crate::krelation_query::SensitiveKRelation;
use crate::mechanism::{RecursiveMechanism, Release};
use crate::params::MechanismParams;
use rand::Rng;
use rmdp_graph::subgraph::{enumerate_pattern, k_stars, k_triangles, triangles, Occurrence};
use rmdp_graph::{Graph, Pattern};
use rmdp_krelation::participant::ParticipantId;
use rmdp_krelation::{Expr, KRelation, Tuple};
use rmdp_observe::Stopwatch;
use std::time::Duration;

/// The unit of privacy protection: who counts as one participant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrivacyUnit {
    /// Each graph node is a participant; withdrawing removes the node's
    /// incident edges. The stronger notion.
    Node,
    /// Each edge is a participant; withdrawing removes that edge. The notion
    /// used by the prior local-sensitivity mechanisms.
    Edge,
}

/// A differentially private subgraph counter built on the efficient recursive
/// mechanism.
pub struct SubgraphCounter {
    pattern: Pattern,
    privacy: PrivacyUnit,
    params: MechanismParams,
    enumeration_limit: usize,
    constraint: Option<OccurrenceConstraint>,
}

/// A caller-supplied filter on enumerated occurrences.
type OccurrenceConstraint = Box<dyn Fn(&Occurrence) -> bool + Send + Sync>;

/// A subgraph query that has been matched against a concrete graph and whose
/// `H`/`G` table is solved: the mechanism is ready to produce any number of
/// releases from that one table.
pub struct PreparedSubgraphQuery {
    mechanism: RecursiveMechanism,
    /// True number of (constraint-satisfying) occurrences.
    pub true_count: f64,
    /// Support size of the K-relation (equals `true_count` for unweighted
    /// counting).
    pub support_size: usize,
    /// Number of participants `|P|` (nodes or edges of the graph).
    pub num_participants: usize,
    /// Universal empirical sensitivity `ŨS_q(P, R)`.
    pub universal_sensitivity: f64,
    /// Wall-clock time spent matching the pattern and building the
    /// K-relation.
    pub build_time: Duration,
    /// LP work of solving the sequence table.
    pub lp: LpWorkStats,
}

/// One differentially private subgraph-count release plus diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct SubgraphAnswer {
    /// The released noisy count.
    pub noisy_count: f64,
    /// The true count (diagnostic — never publish).
    pub true_count: f64,
    /// The underlying mechanism release.
    pub release: Release,
    /// Number of participants (nodes or edges).
    pub num_participants: usize,
    /// Wall-clock time of this release (pattern matching excluded).
    pub release_time: Duration,
}

impl SubgraphCounter {
    /// A counter for `pattern` under the given privacy unit and parameters.
    pub fn new(pattern: Pattern, privacy: PrivacyUnit, params: MechanismParams) -> Self {
        SubgraphCounter {
            pattern,
            privacy,
            params,
            enumeration_limit: usize::MAX,
            constraint: None,
        }
    }

    /// Caps the number of enumerated occurrences (protective cap for very
    /// dense graphs; the default is unlimited).
    pub fn with_enumeration_limit(mut self, limit: usize) -> Self {
        self.enumeration_limit = limit;
        self
    }

    /// Restricts counting to occurrences satisfying a predicate (e.g.
    /// attribute constraints on the matched nodes or edges).
    pub fn with_constraint<F>(mut self, constraint: F) -> Self
    where
        F: Fn(&Occurrence) -> bool + Send + Sync + 'static,
    {
        self.constraint = Some(Box::new(constraint));
        self
    }

    /// The query pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The privacy unit.
    pub fn privacy(&self) -> PrivacyUnit {
        self.privacy
    }

    /// Enumerates the pattern occurrences, using the specialised fast
    /// enumerators for triangles, k-stars and k-triangles and the generic
    /// backtracking matcher otherwise.
    pub fn occurrences(&self, graph: &Graph) -> Vec<Occurrence> {
        let limit = self.enumeration_limit;
        let raw: Vec<Occurrence> = if self.pattern.edges() == Pattern::triangle().edges() {
            triangles(graph)
                .into_iter()
                .take(limit)
                .map(|[a, b, c]| Occurrence {
                    nodes: vec![a, b, c],
                    edges: vec![(a, b), (a, c), (b, c)],
                })
                .collect()
        } else if let Some(k) = star_arity(&self.pattern) {
            k_stars(graph, k, limit)
                .into_iter()
                .map(|(centre, leaves)| {
                    let mut nodes = vec![centre];
                    nodes.extend(&leaves);
                    nodes.sort_unstable();
                    let edges = leaves
                        .iter()
                        .map(|&l| (centre.min(l), centre.max(l)))
                        .collect();
                    Occurrence { nodes, edges }
                })
                .collect()
        } else if let Some(k) = k_triangle_arity(&self.pattern) {
            k_triangles(graph, k, limit)
                .into_iter()
                .map(|((u, v), apexes)| {
                    let mut nodes = vec![u, v];
                    nodes.extend(&apexes);
                    nodes.sort_unstable();
                    let mut edges = vec![(u.min(v), u.max(v))];
                    for &a in &apexes {
                        edges.push((u.min(a), u.max(a)));
                        edges.push((v.min(a), v.max(a)));
                    }
                    edges.sort_unstable();
                    Occurrence { nodes, edges }
                })
                .collect()
        } else {
            enumerate_pattern(graph, &self.pattern, limit)
        };
        match &self.constraint {
            Some(pred) => raw.into_iter().filter(|o| pred(o)).collect(),
            None => raw,
        }
    }

    /// Builds the sensitive K-relation of the matched occurrences: one tuple
    /// per occurrence, annotated per the privacy unit, unit weight.
    pub fn build_sensitive_relation(&self, graph: &Graph) -> SensitiveKRelation {
        let occurrences = self.occurrences(graph);
        let mut relation = KRelation::new(["occurrence"]);
        for (idx, occ) in occurrences.iter().enumerate() {
            let annotation = match self.privacy {
                PrivacyUnit::Node => {
                    Expr::conjunction_of_vars(occ.nodes.iter().map(|&n| ParticipantId(n)))
                }
                PrivacyUnit::Edge => Expr::conjunction_of_vars(occ.edges.iter().map(|&(u, v)| {
                    ParticipantId(
                        graph
                            .edge_id(u, v)
                            .expect("occurrence edge must exist in the graph")
                            as u32,
                    )
                })),
            };
            relation.insert(Tuple::new([("occurrence", idx as i64)]), annotation);
        }
        let participants: Vec<ParticipantId> = match self.privacy {
            PrivacyUnit::Node => (0..graph.num_nodes() as u32).map(ParticipantId).collect(),
            PrivacyUnit::Edge => (0..graph.num_edges() as u32).map(ParticipantId).collect(),
        };
        SensitiveKRelation::new(&relation, participants, |_| 1.0)
    }

    /// Matches the pattern, solves the sequence table (with
    /// `params.parallelism`) and sets the mechanism up; the result can
    /// release any number of times.
    pub fn prepare(&self, graph: &Graph) -> Result<PreparedSubgraphQuery, MechanismError> {
        let watch = Stopwatch::start();
        let query = self.build_sensitive_relation(graph);
        let build_time = watch.elapsed();
        let true_count = query.true_answer();
        let support_size = query.support_size();
        let num_participants = query.num_participants();
        let universal_sensitivity = query.universal_sensitivity();
        let (table, lp) = EfficientSequences::new(query).solve_table(self.params.parallelism)?;
        let mechanism = RecursiveMechanism::new(table.into(), self.params)?;
        Ok(PreparedSubgraphQuery {
            mechanism,
            true_count,
            support_size,
            num_participants,
            universal_sensitivity,
            build_time,
            lp,
        })
    }

    /// Convenience: prepare and produce a single release.
    pub fn release<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        rng: &mut R,
    ) -> Result<SubgraphAnswer, MechanismError> {
        let mut prepared = self.prepare(graph)?;
        prepared.release(rng)
    }
}

impl PreparedSubgraphQuery {
    /// Produces one ε₁+ε₂ differentially private release.
    pub fn release<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<SubgraphAnswer, MechanismError> {
        let watch = Stopwatch::start();
        let release = self.mechanism.release(rng)?;
        Ok(SubgraphAnswer {
            noisy_count: release.noisy_answer,
            true_count: self.true_count,
            release,
            num_participants: self.num_participants,
            release_time: watch.elapsed(),
        })
    }

    /// Produces many independent releases (the experiments use the median
    /// relative error over these).
    pub fn release_many<R: Rng + ?Sized>(
        &mut self,
        trials: usize,
        rng: &mut R,
    ) -> Result<Vec<SubgraphAnswer>, MechanismError> {
        (0..trials).map(|_| self.release(rng)).collect()
    }

    /// The underlying mechanism (e.g. to read `Δ` in experiments).
    pub fn mechanism(&self) -> &RecursiveMechanism {
        &self.mechanism
    }
}

/// Detects whether the pattern is a k-star and returns `k`.
fn star_arity(pattern: &Pattern) -> Option<usize> {
    let n = pattern.num_nodes();
    if n < 3 || pattern.num_edges() != n - 1 {
        return None;
    }
    let centre_count = (0..n).filter(|&v| pattern.degree(v) == n - 1).count();
    let leaf_count = (0..n).filter(|&v| pattern.degree(v) == 1).count();
    (centre_count == 1 && leaf_count == n - 1).then_some(n - 1)
}

/// Detects whether the pattern is a k-triangle (k ≥ 2: `k` triangles sharing
/// one edge) and returns `k`.
fn k_triangle_arity(pattern: &Pattern) -> Option<usize> {
    let n = pattern.num_nodes();
    if n < 4 {
        return None;
    }
    let k = n - 2;
    if pattern.num_edges() != 2 * k + 1 {
        return None;
    }
    let hubs: Vec<usize> = (0..n)
        .filter(|&v| pattern.degree(v) == k + 1)
        .count()
        .eq(&2)
        .then(|| (0..n).filter(|&v| pattern.degree(v) == k + 1).collect())?;
    let apexes_ok = (0..n)
        .filter(|&v| !hubs.contains(&v))
        .all(|v| pattern.degree(v) == 2);
    let hub_edge = pattern
        .edges()
        .iter()
        .any(|&(a, b)| hubs.contains(&a) && hubs.contains(&b));
    (apexes_ok && hub_edge).then_some(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmdp_graph::generators;

    /// The 6-node social network of the paper's Fig. 2 (a–e connected, f
    /// isolated).
    fn paper_graph() -> Graph {
        Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    }

    fn node_params() -> MechanismParams {
        MechanismParams::paper_node_privacy(0.5)
    }

    fn edge_params() -> MechanismParams {
        MechanismParams::paper_edge_privacy(0.5)
    }

    #[test]
    fn fig2a_node_privacy_krelation_matches_the_paper() {
        let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Node, node_params());
        let query = counter.build_sensitive_relation(&paper_graph());
        assert_eq!(query.support_size(), 3);
        assert_eq!(
            query.num_participants(),
            6,
            "all nodes, including isolated f"
        );
        assert_eq!(query.true_answer(), 3.0);
        // Every annotation is a 3-variable conjunction.
        for (e, _) in query.terms() {
            assert!(e.is_simple_conjunction());
            assert_eq!(e.len(), 3);
        }
        // Node c (id 2) is in every triangle.
        assert_eq!(query.universal_sensitivity_of(ParticipantId(2)), 3.0);
        assert_eq!(query.universal_sensitivity(), 3.0);
    }

    #[test]
    fn fig2a_edge_privacy_krelation_uses_edge_participants() {
        let g = paper_graph();
        let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Edge, edge_params());
        let query = counter.build_sensitive_relation(&g);
        assert_eq!(query.support_size(), 3);
        assert_eq!(query.num_participants(), 7, "one participant per edge");
        // Edge bc (between nodes 1 and 2) is in triangles abc and bcd.
        let bc = ParticipantId(g.edge_id(1, 2).unwrap() as u32);
        assert_eq!(query.universal_sensitivity_of(bc), 2.0);
    }

    #[test]
    fn node_and_edge_privacy_release_reasonable_counts() {
        let g = paper_graph();
        let mut rng = StdRng::seed_from_u64(17);
        for (privacy, params) in [
            (PrivacyUnit::Node, node_params()),
            (PrivacyUnit::Edge, edge_params()),
        ] {
            let counter = SubgraphCounter::new(Pattern::triangle(), privacy, params);
            let answer = counter.release(&g, &mut rng).unwrap();
            assert_eq!(answer.true_count, 3.0);
            assert!(answer.noisy_count.is_finite());
            assert!(answer.release.x <= 3.0 + 1e-7);
        }
    }

    #[test]
    fn star_and_k_triangle_arity_detection() {
        assert_eq!(star_arity(&Pattern::k_star(2)), Some(2));
        assert_eq!(star_arity(&Pattern::k_star(5)), Some(5));
        assert_eq!(star_arity(&Pattern::triangle()), None);
        assert_eq!(star_arity(&Pattern::path(3)), None);
        assert_eq!(k_triangle_arity(&Pattern::k_triangle(2)), Some(2));
        assert_eq!(k_triangle_arity(&Pattern::k_triangle(3)), Some(3));
        assert_eq!(k_triangle_arity(&Pattern::triangle()), None);
        assert_eq!(k_triangle_arity(&Pattern::clique(4)), None);
    }

    #[test]
    fn fast_paths_agree_with_generic_enumeration() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::gnp_average_degree(25, 6.0, &mut rng);
        for pattern in [
            Pattern::triangle(),
            Pattern::k_star(2),
            Pattern::k_triangle(2),
        ] {
            let counter = SubgraphCounter::new(pattern.clone(), PrivacyUnit::Node, node_params());
            let fast = counter.occurrences(&g).len();
            let generic = enumerate_pattern(&g, &pattern, usize::MAX).len();
            assert_eq!(fast, generic, "pattern {pattern}");
        }
    }

    #[test]
    fn constraints_filter_occurrences() {
        let g = paper_graph();
        // Count only triangles containing node 4 (= e): exactly one (cde).
        let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Node, node_params())
            .with_constraint(|occ: &Occurrence| occ.nodes.contains(&4));
        let query = counter.build_sensitive_relation(&g);
        assert_eq!(query.true_answer(), 1.0);
    }

    #[test]
    fn enumeration_limit_caps_the_relation() {
        let g = paper_graph();
        let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Node, node_params())
            .with_enumeration_limit(2);
        assert_eq!(counter.build_sensitive_relation(&g).support_size(), 2);
    }

    #[test]
    fn two_star_counting_end_to_end_on_a_small_random_graph() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::gnp_average_degree(20, 4.0, &mut rng);
        let true_count = rmdp_graph::subgraph::k_star_count(&g, 2) as f64;
        let counter = SubgraphCounter::new(Pattern::k_star(2), PrivacyUnit::Edge, edge_params());
        let mut prepared = counter.prepare(&g).unwrap();
        assert_eq!(prepared.true_count, true_count);
        let answers = prepared.release_many(5, &mut rng).unwrap();
        for a in &answers {
            assert!(a.noisy_count.is_finite());
            assert!(a.release.x <= true_count + 1e-6);
        }
    }

    #[test]
    fn repeated_releases_reuse_cached_lp_entries() {
        let g = paper_graph();
        let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Node, node_params());
        let mut prepared = counter.prepare(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let _ = prepared.release_many(10, &mut rng).unwrap();
        // |P| = 6, but node 5 is in no triangle, so |P_named| = 5: prepare
        // solved 6 H and 6 G chain steps once, and 10 releases from the
        // table solved nothing more.
        assert_eq!(prepared.lp.h_solves, 6);
        assert_eq!(prepared.lp.g_solves, 6);
    }
}
