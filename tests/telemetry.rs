//! End-to-end telemetry tests: the observability hard invariant.
//!
//! * **Bit-identity**: a traced release (`query_traced` / `EXPLAIN
//!   ANALYZE`, with a metrics registry and a sequence cache attached) must
//!   be bit-identical to the plain `query` release under the same seed,
//!   for every `Parallelism` — telemetry may never perturb a release.
//! * **Trace consistency** (property-based): stage durations sum to at
//!   most the total, cache outcomes cohere with the session configuration,
//!   and the ε a trace records equals the ε the accountant debited.
//! * **Deterministic stat folding**: session LP totals fold by input
//!   index, so identical sessions agree exactly, whatever the schedule.
//! * **Monotone counters**: registry counters never decrease, and the
//!   snapshot JSON round-trips.
//! * **Overhead** (release builds only): a live span recorder costs at most
//!   5% plus 5 ms over the no-op recorder on uncached fig-4 releases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use recursive_mechanism_dp::core::efficient::EfficientSequences;
use recursive_mechanism_dp::core::subgraph::{PrivacyUnit, SubgraphCounter};
use recursive_mechanism_dp::core::{
    MechanismParams, Parallelism, RecursiveMechanism, Release, SensitiveKRelation,
};
use recursive_mechanism_dp::graph::{generators, Pattern};
use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::noise::PrivacyBudget;
use recursive_mechanism_dp::observe::{
    parse_json, CacheOutcome, MetricsRegistry, MetricsSnapshot, MonotonicClock, NoopRecorder,
    Recorder, SpanRecorder, Stage, Stopwatch,
};
use recursive_mechanism_dp::sql::{QueryOutput, SqlSession};
use std::sync::Arc;

const SCALAR_SQL: &str = "SELECT COUNT(*) FROM visits WHERE place = 'museum'";
const GROUPED_SQL: &str = "SELECT place, COUNT(*) FROM visits GROUP BY place";

/// A small visits database with a declared public domain for the group key.
fn visits_db() -> AnnotatedDatabase {
    let mut db = AnnotatedDatabase::new();
    let mut visits = KRelation::new(["person", "place"]);
    for (person, place) in [
        ("ada", "museum"),
        ("bo", "museum"),
        ("bo", "cafe"),
        ("cy", "cafe"),
        ("dee", "park"),
    ] {
        let p = db.intern(person);
        visits.insert(
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
            Expr::Var(p),
        );
    }
    db.insert_table("visits", visits);
    db.declare_public_domain(
        "visits",
        "place",
        [Value::str("museum"), Value::str("cafe"), Value::str("park")],
    );
    db
}

/// The released values of one release, as raw bits.
fn bits(r: &Release) -> [u64; 3] {
    [
        r.noisy_answer.to_bits(),
        r.delta_hat.to_bits(),
        r.x.to_bits(),
    ]
}

/// Every released value of an output, as raw bits, in a fixed order.
fn release_bits(output: QueryOutput) -> Vec<[u64; 3]> {
    match output {
        QueryOutput::Scalar(r) => vec![bits(&r)],
        QueryOutput::Grouped(g) => g.groups.iter().map(|group| bits(&group.release)).collect(),
        QueryOutput::Explained(t) => release_bits(t.output),
    }
}

#[test]
fn traced_releases_are_bit_identical_to_plain_ones_for_every_parallelism() {
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ] {
        let params = MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism);
        for sql in [SCALAR_SQL, GROUPED_SQL] {
            // The plain session: uncached, unmetered, untraced.
            let mut plain = SqlSession::with_seed(visits_db(), params, 42);
            let expected = release_bits(plain.query(sql).unwrap());

            // Fully instrumented: metrics registry, sequence cache, trace.
            let mut traced_session = SqlSession::with_seed(visits_db(), params, 42)
                .with_metrics(Arc::new(MetricsRegistry::new()))
                .with_cache_capacity(8);
            let traced = traced_session.query_traced(sql).unwrap();
            assert!(traced.trace.is_consistent(), "{parallelism} {sql}");
            assert_eq!(
                release_bits(traced.output),
                expected,
                "traced release diverged under {parallelism} for {sql}"
            );

            // And the SQL-level `EXPLAIN ANALYZE` spelling of the same.
            let mut explain_session = SqlSession::with_seed(visits_db(), params, 42)
                .with_metrics(Arc::new(MetricsRegistry::new()))
                .with_cache_capacity(8);
            let output = explain_session
                .query(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap();
            let explained = output.explained().expect("EXPLAIN ANALYZE wraps a trace");
            assert!(explained.trace.is_consistent());
            assert!(explained.trace.render().starts_with("EXPLAIN ANALYZE"));
            assert_eq!(
                release_bits(explained.output),
                expected,
                "EXPLAIN ANALYZE release diverged under {parallelism} for {sql}"
            );
        }
    }
}

#[test]
fn lp_totals_fold_deterministically() {
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let params = MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism);
        let run = || {
            let mut session = SqlSession::with_seed(visits_db(), params, 3);
            session
                .query_batch(&[SCALAR_SQL, "SELECT COUNT(*) FROM visits", SCALAR_SQL])
                .unwrap();
            session.query_grouped(GROUPED_SQL).unwrap();
            session.lp_totals()
        };
        let (a, b) = (run(), run());
        assert!(a.h_solves > 0 && a.g_solves > 0, "{parallelism}");
        assert_eq!(a, b, "LP totals depend on the schedule under {parallelism}");
    }
}

#[test]
fn metrics_counters_are_monotone_and_the_snapshot_json_round_trips() {
    let metrics = Arc::new(MetricsRegistry::new());
    let mut session =
        SqlSession::with_seed(visits_db(), MechanismParams::paper_edge_privacy(1.0), 4)
            .with_cache_capacity(4)
            .with_metrics(Arc::clone(&metrics));
    let mut last: Option<MetricsSnapshot> = None;
    for _ in 0..3 {
        session.query_scalar(SCALAR_SQL).unwrap();
        session.query_traced(GROUPED_SQL).unwrap();
        let snap = metrics.snapshot();
        if let Some(prev) = &last {
            for name in prev.counter_names() {
                assert!(
                    snap.counter(name) >= prev.counter(name),
                    "counter {name} decreased"
                );
            }
        }
        last = Some(snap);
    }
    let snap = last.unwrap();
    assert!(snap.counter("sql.releases").unwrap() > 0);
    let json = snap.to_json();
    assert_eq!(MetricsSnapshot::parse_json(&json).unwrap(), snap);
}

/// One uncached release the way the SQL miss path runs it: the table solve
/// bracketed as [`Stage::SequenceSolve`], then the release with its noise
/// stages.
fn release_uncached<T: Recorder>(
    relation: &SensitiveKRelation,
    params: MechanismParams,
    seed: u64,
    recorder: &mut T,
) -> Release {
    recorder.enter(Stage::SequenceSolve);
    let (table, _) = EfficientSequences::new(relation.clone())
        .solve_table(params.parallelism)
        .unwrap();
    recorder.exit(Stage::SequenceSolve);
    RecursiveMechanism::new(table.into(), params)
        .and_then(|mut mech| mech.release_recorded(&mut StdRng::seed_from_u64(seed), recorder))
        .unwrap()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code; run with --release")]
fn span_recording_costs_at_most_five_percent_over_the_noop_recorder() {
    // Four uncached fig-4 triangle releases (24 nodes, node privacy) per
    // pass: each pays the sequence LPs, the ladder walk and the noise, the
    // region a recorder straddles in a real query.
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::gnp_average_degree(24, 6.0, &mut rng);
    let params = MechanismParams::paper_node_privacy(0.5);
    let relation = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Node, params)
        .build_sensitive_relation(&graph);
    let mut seed_stream = StdRng::seed_from_u64(2025);
    let seeds: Vec<u64> = (0..4).map(|_| seed_stream.next_u64()).collect();

    // One pass: its wall milliseconds and the released bits.
    let pass = |traced: bool| -> (f64, Vec<[u64; 3]>) {
        let watch = Stopwatch::start();
        let releases: Vec<Release> = seeds
            .iter()
            .map(|&seed| {
                if !traced {
                    return release_uncached(&relation, params, seed, &mut NoopRecorder);
                }
                let mut recorder = SpanRecorder::new(MonotonicClock::new());
                let release = release_uncached(&relation, params, seed, &mut recorder);
                assert!(recorder.stage_entries(Stage::SequenceSolve) > 0);
                assert!(recorder.stage_entries(Stage::NoiseSample) > 0);
                release
            })
            .collect();
        let ms = watch.elapsed_seconds() * 1e3;
        (ms, releases.iter().map(bits).collect())
    };

    // The minimum of 10 passes per side, the side that goes first
    // alternating each round, shaves scheduler noise off both.
    let (mut noop_ms, mut traced_ms) = (f64::INFINITY, f64::INFINITY);
    let expected = pass(false).1;
    for round in 0..10 {
        for traced in [round % 2 == 1, round % 2 == 0] {
            let (ms, bits) = pass(traced);
            assert_eq!(bits, expected, "telemetry changed a release");
            let best = if traced { &mut traced_ms } else { &mut noop_ms };
            *best = best.min(ms);
        }
    }
    assert!(
        traced_ms <= noop_ms * 1.05 + 5.0,
        "span recording took {traced_ms:.2} ms against {noop_ms:.2} ms without it"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random sessions (seed, ε, cache on/off, query shape) always produce
    /// internally consistent traces whose recorded ε equals the debit.
    #[test]
    fn traces_are_consistent_for_random_sessions(
        seed in any::<u64>(),
        epsilon in 0.5f64..4.0,
        cached in any::<bool>(),
        grouped in any::<bool>(),
    ) {
        let params = MechanismParams::paper_edge_privacy(epsilon);
        let mut session = SqlSession::with_seed(visits_db(), params, seed).with_budget(
            PrivacyBudget {
                epsilon: 100.0,
                delta: 0.0,
            },
        );
        if cached {
            session = session.with_cache_capacity(4);
        }
        let sql = if grouped { GROUPED_SQL } else { SCALAR_SQL };
        let before = session.remaining_budget().unwrap().epsilon;
        let traced = session.query_traced(sql).unwrap();
        let after = session.remaining_budget().unwrap().epsilon;

        let trace = &traced.trace;
        prop_assert!(trace.is_consistent());
        prop_assert!(trace.stage_nanos_total() <= trace.total_nanos);
        prop_assert!((trace.epsilon_spent - (before - after)).abs() < 1e-9);
        if cached {
            prop_assert!(matches!(trace.cache, CacheOutcome::Miss | CacheOutcome::Hit));
        } else {
            prop_assert!(matches!(trace.cache, CacheOutcome::Uncached));
        }
        if grouped {
            let split = trace.group_split.as_ref().expect("grouped trace has a split");
            prop_assert_eq!(split.groups, 3);
            prop_assert_eq!(trace.noise.len(), 3);
        } else {
            prop_assert!(trace.fingerprint.is_some());
            prop_assert_eq!(trace.noise.len(), 1);
        }
        // The trace serialises to parseable JSON and renders.
        prop_assert!(parse_json(&trace.to_json()).is_ok());
        prop_assert!(trace.render().starts_with("EXPLAIN ANALYZE"));
    }
}
