//! Micro-benchmark of the simplex solver on the LP shapes the efficient
//! mechanism produces (hinge epigraphs over the capped simplex): one-shot
//! solves on the revised solver and the dense tableau oracle, plus the
//! standardize-once warm-started chain that the `H`/`G` sequence
//! computation runs on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rmdp_lp::{Model, Sense, SimplexOptions};

/// Builds the H-style LP for `tuples` random 3-variable hinges over
/// `participants` variables with mass `i`.
fn hinge_lp(participants: usize, tuples: usize, mass: f64, rng: &mut StdRng) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let f: Vec<_> = (0..participants).map(|_| m.add_unit_var(0.0)).collect();
    for _ in 0..tuples {
        let v = m.add_nonneg_var(1.0);
        let a = rng.gen_range(0..participants);
        let b = rng.gen_range(0..participants);
        let c = rng.gen_range(0..participants);
        m.add_ge([(v, 1.0), (f[a], -1.0), (f[b], -1.0), (f[c], -1.0)], -2.0);
    }
    m.add_eq(f.iter().map(|&x| (x, 1.0)), mass);
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_hinge_lp");
    group.sample_size(10);
    for &(participants, tuples) in &[(30usize, 50usize), (60, 150), (100, 300)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{participants}p_{tuples}t")),
            &(participants, tuples),
            |b, &(participants, tuples)| {
                let mut rng = StdRng::seed_from_u64(1);
                let model = hinge_lp(participants, tuples, participants as f64 - 1.0, &mut rng);
                b.iter(|| model.solve().expect("solvable"));
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{participants}p_{tuples}t_dense_oracle")),
            &(participants, tuples),
            |b, &(participants, tuples)| {
                let mut rng = StdRng::seed_from_u64(1);
                let model = hinge_lp(participants, tuples, participants as f64 - 1.0, &mut rng);
                let options = SimplexOptions::default();
                b.iter(|| rmdp_lp::simplex::solve_dense(&model, &options).expect("solvable"));
            },
        );
    }
    group.finish();
}

/// The sequence-chain access pattern: standardize once, then walk the mass
/// index `0..=participants` warm-starting each solve from the previous
/// optimal basis — versus re-solving every step cold.
fn bench_warm_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_mass_chain");
    group.sample_size(10);
    for &(participants, tuples) in &[(30usize, 50usize), (60, 150)] {
        let mut rng = StdRng::seed_from_u64(1);
        let model = hinge_lp(participants, tuples, 0.0, &mut rng);
        let mass_row = tuples; // the mass equality is added after the hinges
        let options = SimplexOptions::default();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{participants}p_{tuples}t_warm")),
            &model,
            |b, model| {
                b.iter(|| {
                    let mut prepared = model.prepare().expect("valid model");
                    let mut basis = None;
                    for i in 0..=participants {
                        prepared.set_rhs(mass_row, i as f64);
                        let solved = match &basis {
                            None => prepared.solve(&options),
                            Some(prev) => prepared.solve_warm(prev, &options),
                        }
                        .expect("solvable");
                        basis = Some(solved.basis);
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{participants}p_{tuples}t_cold")),
            &model,
            |b, model| {
                b.iter(|| {
                    let mut prepared = model.prepare().expect("valid model");
                    for i in 0..=participants {
                        prepared.set_rhs(mass_row, i as f64);
                        prepared.solve(&options).expect("solvable");
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simplex, bench_warm_chain);
criterion_main!(benches);
