//! One runner per paper artefact, plus shared helpers.

pub mod fig4;
pub mod fig5;
pub mod fig6_7;
pub mod fig8_9;
pub mod table1;

use rand::Rng;
use rmdp_baselines::kstar::KStarMechanism;
use rmdp_baselines::ktriangle::KTriangleMechanism;
use rmdp_baselines::rhms::Rhms;
use rmdp_baselines::smooth_triangle::SmoothSensitivityTriangle;
use rmdp_baselines::BaselineMechanism;
use rmdp_core::params::MechanismParams;
use rmdp_core::subgraph::{PrivacyUnit, SubgraphCounter};
use rmdp_core::MechanismError;
use rmdp_graph::{Graph, Pattern};
use rmdp_noise::accuracy::{median, relative_error};
use std::time::Duration;

/// The three query families of the paper's subgraph-counting evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Triangle counting.
    Triangle,
    /// 2-star counting.
    TwoStar,
    /// 2-triangle counting.
    TwoTriangle,
}

impl QueryKind {
    /// All three queries in the paper's order.
    pub fn all() -> [QueryKind; 3] {
        [
            QueryKind::Triangle,
            QueryKind::TwoStar,
            QueryKind::TwoTriangle,
        ]
    }

    /// The query pattern.
    pub fn pattern(self) -> Pattern {
        match self {
            QueryKind::Triangle => Pattern::triangle(),
            QueryKind::TwoStar => Pattern::k_star(2),
            QueryKind::TwoTriangle => Pattern::k_triangle(2),
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Triangle => "triangle",
            QueryKind::TwoStar => "2-star",
            QueryKind::TwoTriangle => "2-triangle",
        }
    }

    /// Whether the query is the (large-support) star query, which uses the
    /// reduced quick-scale grids.
    pub fn is_star(self) -> bool {
        self == QueryKind::TwoStar
    }

    /// The paper's local-sensitivity baseline for this query.
    pub fn local_sensitivity_baseline(
        self,
        epsilon: f64,
        delta: f64,
    ) -> Box<dyn BaselineMechanism> {
        match self {
            QueryKind::Triangle => Box::new(SmoothSensitivityTriangle::new(epsilon)),
            QueryKind::TwoStar => Box::new(KStarMechanism::new(2, epsilon)),
            QueryKind::TwoTriangle => Box::new(KTriangleMechanism::new(2, epsilon, delta)),
        }
    }

    /// The RHMS baseline for this query.
    pub fn rhms_baseline(self, epsilon: f64) -> Box<dyn BaselineMechanism> {
        Box::new(Rhms::for_pattern(self.pattern(), epsilon))
    }
}

/// Result of evaluating one mechanism on one graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct MechanismOutcome {
    /// Median relative error over the trials.
    pub median_relative_error: f64,
    /// Wall-clock time to prepare (pattern matching, K-relation, Δ) — zero
    /// for the baselines.
    pub prepare_time: Duration,
    /// Mean wall-clock time of one release.
    pub mean_release_time: Duration,
    /// The true count on this graph.
    pub true_count: f64,
}

/// Runs the recursive mechanism on one graph and summarises the error.
pub fn run_recursive<R: Rng + ?Sized>(
    graph: &Graph,
    query: QueryKind,
    privacy: PrivacyUnit,
    epsilon: f64,
    trials: usize,
    rng: &mut R,
) -> Result<MechanismOutcome, MechanismError> {
    let params = match privacy {
        PrivacyUnit::Node => MechanismParams::paper_node_privacy(epsilon),
        PrivacyUnit::Edge => MechanismParams::paper_edge_privacy(epsilon),
    };
    let counter = SubgraphCounter::new(query.pattern(), privacy, params);
    let watch = rmdp_observe::Stopwatch::start();
    // Preparing solves the whole sequence table and computes Δ.
    let mut prepared = counter.prepare(graph)?;
    let prepare_time = watch.elapsed();

    let answers = prepared.release_many(trials, rng)?;
    let errors: Vec<f64> = answers
        .iter()
        .map(|a| relative_error(a.noisy_count, a.true_count))
        .collect();
    let total_release: Duration = answers.iter().map(|a| a.release_time).sum();
    Ok(MechanismOutcome {
        median_relative_error: median(&errors),
        prepare_time,
        mean_release_time: total_release / trials.max(1) as u32,
        true_count: prepared.true_count,
    })
}

/// Runs a baseline mechanism on one graph and summarises the error.
pub fn run_baseline<R: Rng>(
    baseline: &dyn BaselineMechanism,
    graph: &Graph,
    trials: usize,
    rng: &mut R,
) -> MechanismOutcome {
    let truth = baseline.true_count(graph);
    let watch = rmdp_observe::Stopwatch::start();
    let errors: Vec<f64> = (0..trials)
        .map(|_| relative_error(baseline.release(graph, rng), truth))
        .collect();
    let elapsed = watch.elapsed();
    MechanismOutcome {
        median_relative_error: median(&errors),
        prepare_time: Duration::ZERO,
        mean_release_time: elapsed / trials.max(1) as u32,
        true_count: truth,
    }
}

/// Pools several per-graph medians into one representative value (the median
/// of medians, which is what the paper's per-point markers show).
pub fn pool_medians(values: &[f64]) -> f64 {
    median(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmdp_graph::generators;

    #[test]
    fn query_kinds_expose_patterns_and_baselines() {
        for q in QueryKind::all() {
            assert!(q.pattern().is_connected());
            assert!(!q.name().is_empty());
            let b = q.local_sensitivity_baseline(0.5, 0.1);
            assert!(!b.name().is_empty());
            let r = q.rhms_baseline(0.5);
            assert_eq!(r.name(), "RHMS");
        }
        assert!(QueryKind::TwoStar.is_star());
        assert!(!QueryKind::Triangle.is_star());
    }

    #[test]
    fn recursive_and_baseline_runs_produce_sane_outcomes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp_average_degree(25, 6.0, &mut rng);
        let rec =
            run_recursive(&g, QueryKind::Triangle, PrivacyUnit::Edge, 1.0, 5, &mut rng).unwrap();
        assert!(rec.median_relative_error.is_finite());
        assert!(rec.true_count >= 0.0);
        assert!(rec.prepare_time > Duration::ZERO);

        let baseline = QueryKind::Triangle.local_sensitivity_baseline(1.0, 0.1);
        let base = run_baseline(baseline.as_ref(), &g, 5, &mut rng);
        assert!(base.median_relative_error.is_finite());
        assert_eq!(base.true_count, rec.true_count);
    }

    #[test]
    fn pooling_medians_is_the_median() {
        assert_eq!(pool_medians(&[0.1, 0.5, 0.2]), 0.2);
    }
}
