//! Fig. 8 and Fig. 9: the mechanism on synthetic K-relations.
//!
//! The paper generates K-relations directly (rather than from a particular
//! SQL query): every tuple is annotated with a random 3-DNF or 3-CNF
//! expression, `|P| = |supp(R)|` and `q(t) = 1`. Fig. 8 sweeps the number of
//! clauses per expression at fixed support 1000; Fig. 9 sweeps the support
//! size at 3 clauses per expression. Both figures report the median relative
//! error — with the reference curve `ŨS_q / (ε · q(P, R))` — and the running
//! time.

use crate::cli::CliOptions;
use crate::report::{fmt_float, fmt_secs, Table};
use crate::workloads::{random_krelation, ExpressionShape, RandomKRelationSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmdp_core::efficient::EfficientSequences;
use rmdp_core::params::MechanismParams;
use rmdp_core::RecursiveMechanism;
use rmdp_noise::accuracy::{median, relative_error};

/// Which sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// Fig. 8: vary the number of clauses per expression.
    Clauses,
    /// Fig. 9: vary the support size.
    Support,
}

/// One measured point.
#[derive(Clone, Debug)]
pub struct KRelationPoint {
    /// "3-DNF" or "3-CNF".
    pub shape: String,
    /// The x value (clauses or support size).
    pub x: usize,
    /// Median relative error of the recursive mechanism.
    pub median_relative_error: f64,
    /// The reference curve `ŨS_q / (ε · true answer)`.
    pub reference_curve: f64,
    /// Wall-clock seconds (preparation + all releases).
    pub seconds: f64,
    /// The true answer (the support size).
    pub true_answer: f64,
}

/// Runs one sweep for both expression shapes.
pub fn run(sweep: Sweep, options: &CliOptions) -> Vec<KRelationPoint> {
    let scale = options.scale;
    let trials = options.trials();
    let epsilon = 0.5;
    let params = MechanismParams::paper_edge_privacy(epsilon);
    let mut out = Vec::new();

    for shape in [ExpressionShape::Dnf, ExpressionShape::Cnf] {
        let xs: Vec<usize> = match sweep {
            Sweep::Clauses => scale.fig8_clause_grid(),
            Sweep::Support => scale.fig9_support_grid(),
        };
        for &x in &xs {
            let spec = match sweep {
                Sweep::Clauses => RandomKRelationSpec {
                    support: scale.fig8_support(),
                    clauses: x,
                    literals_per_clause: 3,
                    shape,
                },
                Sweep::Support => RandomKRelationSpec {
                    support: x,
                    clauses: 3,
                    literals_per_clause: 3,
                    shape,
                },
            };
            let mut rng = StdRng::seed_from_u64(
                options
                    .seed
                    .wrapping_add(x as u64)
                    .wrapping_mul(if shape == ExpressionShape::Dnf { 3 } else { 7 }),
            );
            let query = random_krelation(spec, &mut rng);
            let true_answer = query.true_answer();
            let universal = query.universal_sensitivity();
            let reference_curve = if true_answer > 0.0 {
                universal / (epsilon * true_answer)
            } else {
                0.0
            };

            let watch = rmdp_observe::Stopwatch::start();
            let mechanism = EfficientSequences::new(query)
                .solve_table(params.parallelism)
                .and_then(|(table, _)| RecursiveMechanism::new(table.into(), params));
            let mut mechanism = match mechanism {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("skipping {shape:?} x={x}: {e}");
                    continue;
                }
            };
            let errors: Vec<f64> = match mechanism.release_many(trials, &mut rng) {
                Ok(releases) => releases
                    .iter()
                    .map(|r| relative_error(r.noisy_answer, true_answer))
                    .collect(),
                Err(e) => {
                    eprintln!("skipping {shape:?} x={x}: {e}");
                    continue;
                }
            };
            let seconds = watch.elapsed_seconds();

            out.push(KRelationPoint {
                shape: shape.label(spec.literals_per_clause),
                x,
                median_relative_error: median(&errors),
                reference_curve,
                seconds,
                true_answer,
            });
        }
    }
    out
}

/// Renders the table for the given sweep.
pub fn to_table(sweep: Sweep, points: &[KRelationPoint]) -> Table {
    let (title, x_label) = match sweep {
        Sweep::Clauses => (
            "Figure 8: error and time vs clauses per expression",
            "clauses",
        ),
        Sweep::Support => ("Figure 9: error and time vs |supp(R)|", "|supp(R)|"),
    };
    let mut table = Table::new(
        title,
        &[
            "shape",
            x_label,
            "median relative error",
            "US/(eps*answer) reference",
            "time",
            "true answer",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.shape.clone(),
            p.x.to_string(),
            fmt_float(p.median_relative_error),
            fmt_float(p.reference_curve),
            fmt_secs(p.seconds),
            fmt_float(p.true_answer),
        ]);
    }
    table
}

/// The qualitative expectation from the paper.
pub fn paper_expectation(sweep: Sweep) -> &'static str {
    match sweep {
        Sweep::Clauses => {
            "Paper expectation (Fig. 8): the error tracks the ŨS/(ε·answer) reference closely, \
             grows slowly with the number of clauses, and 3-CNF is somewhat noisier than 3-DNF \
             (its φ-sensitivities exceed 1); the running time grows polynomially with the \
             expression length."
        }
        Sweep::Support => {
            "Paper expectation (Fig. 9): ŨS is insensitive to the support size, so the relative \
             error decreases as |supp(R)| grows, while the running time grows polynomially with \
             |supp(R)|."
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use rmdp_core::Parallelism;

    #[test]
    fn table_rendering() {
        let points = vec![KRelationPoint {
            shape: "3-DNF".into(),
            x: 3,
            median_relative_error: 0.08,
            reference_curve: 0.06,
            seconds: 1.2,
            true_answer: 200.0,
        }];
        let t = to_table(Sweep::Clauses, &points);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("3-DNF"));
        assert!(!paper_expectation(Sweep::Clauses).is_empty());
        assert!(!paper_expectation(Sweep::Support).is_empty());
    }

    /// A genuinely tiny end-to-end run (small support, few trials) so the
    /// K-relation pipeline is exercised in the regular test suite.
    #[test]
    fn tiny_end_to_end_sweep() {
        let options = CliOptions {
            trials: Some(3),
            scale: Scale::Quick,
            ..CliOptions::default()
        };
        // Run a single hand-built point rather than the full quick grid.
        let spec = RandomKRelationSpec {
            support: 30,
            clauses: 2,
            literals_per_clause: 3,
            shape: ExpressionShape::Dnf,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let query = random_krelation(spec, &mut rng);
        let truth = query.true_answer();
        let (table, _) = EfficientSequences::new(query)
            .solve_table(Parallelism::Serial)
            .unwrap();
        let mut mech =
            RecursiveMechanism::new(table.into(), MechanismParams::paper_edge_privacy(0.5))
                .unwrap();
        let releases = mech.release_many(options.trials(), &mut rng).unwrap();
        for r in &releases {
            // The true answer is recovered from the LP optimum at i = |P|,
            // so compare with a numerical tolerance.
            assert!((r.true_answer - truth).abs() < 1e-6);
            assert!(r.noisy_answer.is_finite());
        }
    }
}
