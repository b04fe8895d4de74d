//! Serial/parallel equivalence, budget accounting and cross-query caching,
//! end to end.
//!
//! The `Parallelism` knob must be a pure wall-clock knob: the parallel
//! table solve has to produce bit-identical `H`/`G` vectors — and, given a
//! fixed seed, bit-identical `Release`s — to the serial one. The
//! `SqlSession` budget accountant has to refuse over-budget batches
//! atomically, consuming nothing. And the sequence cache has to be equally
//! invisible: structurally identical queries (any alias names, join order,
//! conjunct order) must collide on one fingerprint, structurally different
//! ones must not, and a cached session must release bit-identically to an
//! uncached one under the same seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recursive_mechanism_dp::core::efficient::EfficientSequences;
use recursive_mechanism_dp::core::general::GeneralSequences;
use recursive_mechanism_dp::core::params::MechanismParams;
use recursive_mechanism_dp::core::subgraph::{PrivacyUnit, SubgraphCounter};
use recursive_mechanism_dp::core::{Parallelism, RecursiveMechanism, Release, SensitiveKRelation};
use recursive_mechanism_dp::graph::{generators, Pattern};
use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
use recursive_mechanism_dp::krelation::hash::FxHashSet;
use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::noise::PrivacyBudget;
use recursive_mechanism_dp::sql::{QueryOutput, SqlError, SqlSession};

/// The fig-4 workload at small scale: triangles under node privacy on a
/// G(n, p) random graph.
fn fig4_relation() -> SensitiveKRelation {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::gnp_average_degree(40, 8.0, &mut rng);
    SubgraphCounter::new(
        Pattern::triangle(),
        PrivacyUnit::Node,
        MechanismParams::paper_node_privacy(0.5),
    )
    .build_sensitive_relation(&graph)
}

#[test]
fn serial_and_parallel_efficient_sequences_are_bit_identical() {
    let relation = fig4_relation();
    // The chains walk only the participants some triangle names.
    let mut named = FxHashSet::default();
    for (expr, _) in relation.terms() {
        expr.collect_variables(&mut named);
    }

    let sequences = EfficientSequences::new(relation);
    let (serial, serial_stats) = sequences.solve_table(Parallelism::Serial).unwrap();
    let (parallel, parallel_stats) = sequences.solve_table(Parallelism::Threads(4)).unwrap();

    // Bitwise equality — not within-tolerance — because both paths must run
    // the exact same deterministic LP solves.
    assert_eq!(serial.h_entries(), parallel.h_entries());
    assert_eq!(serial.g_entries(), parallel.g_entries());
    assert_eq!(serial_stats.h_solves, named.len() + 1);
    assert_eq!(parallel_stats.h_solves, named.len() + 1);
    assert_eq!(
        serial_stats.total_pivots, parallel_stats.total_pivots,
        "same LPs, same pivots"
    );
}

#[test]
fn serial_and_parallel_mechanisms_release_identically_under_a_fixed_seed() {
    let serial_params = MechanismParams::paper_node_privacy(1.0);
    let parallel_params = serial_params.with_parallelism(Parallelism::Threads(4));

    let mechanism = |params: MechanismParams| {
        let (table, _) = EfficientSequences::new(fig4_relation())
            .solve_table(params.parallelism)
            .unwrap();
        RecursiveMechanism::new(table.into(), params).unwrap()
    };
    let mut serial_mech = mechanism(serial_params);
    let mut parallel_mech = mechanism(parallel_params);

    let serial_releases = serial_mech
        .release_many(8, &mut StdRng::seed_from_u64(123))
        .unwrap();
    let parallel_releases = parallel_mech
        .release_many(8, &mut StdRng::seed_from_u64(123))
        .unwrap();

    for (a, b) in serial_releases.iter().zip(&parallel_releases) {
        assert_eq!(a.noisy_answer, b.noisy_answer);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.delta_hat, b.delta_hat);
        assert_eq!(a.x, b.x);
        assert_eq!(a.argmin_index, b.argmin_index);
        assert_eq!(a.true_answer, b.true_answer);
    }
}

#[test]
fn general_sequences_parallel_build_matches_serial() {
    let relation = fig4_relation();
    // Shrink to the general instantiation's exhaustive range by restricting
    // to a 12-participant sub-universe.
    let keep = 12u32;
    let terms: Vec<(Expr, f64)> = relation
        .terms()
        .iter()
        .filter(|(e, _)| {
            (keep..relation.num_participants() as u32).all(|p| {
                e.restrict(recursive_mechanism_dp::krelation::ParticipantId(p), false) == *e
            })
        })
        .cloned()
        .collect();
    let small = SensitiveKRelation::from_terms(
        (0..keep)
            .map(recursive_mechanism_dp::krelation::ParticipantId)
            .collect(),
        terms,
    );
    let serial = GeneralSequences::build(&small).unwrap();
    let parallel = GeneralSequences::build_with(&small, Parallelism::Threads(4)).unwrap();
    assert_eq!(serial.h_entries(), parallel.h_entries());
    assert_eq!(serial.g_entries(), parallel.g_entries());
}

fn visits_db() -> AnnotatedDatabase {
    let mut db = AnnotatedDatabase::new();
    let mut visits = KRelation::new(["person", "place"]);
    for (person, place) in [
        ("ada", "museum"),
        ("bo", "museum"),
        ("bo", "cafe"),
        ("cy", "cafe"),
        ("dee", "museum"),
    ] {
        let p = db.intern(person);
        visits.insert(
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
            Expr::Var(p),
        );
    }
    db.insert_table("visits", visits);
    db
}

const BATCH: [&str; 3] = [
    "SELECT COUNT(*) FROM visits WHERE place = 'museum'",
    "SELECT COUNT(*) FROM visits",
    "SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place WHERE v1.person < v2.person",
];

#[test]
fn sql_batch_is_bit_identical_across_parallelism_settings() {
    let params = MechanismParams::paper_edge_privacy(1.0);
    let scalars = |outputs: Vec<QueryOutput>| -> Vec<Release> {
        outputs.into_iter().map(|o| o.scalar().unwrap()).collect()
    };
    let serial = scalars(
        SqlSession::with_seed(visits_db(), params, 99)
            .query_batch(&BATCH)
            .unwrap(),
    );
    for parallelism in [
        Parallelism::Threads(2),
        Parallelism::Threads(8),
        Parallelism::Auto,
    ] {
        let parallel = scalars(
            SqlSession::with_seed(visits_db(), params.with_parallelism(parallelism), 99)
                .query_batch(&BATCH)
                .unwrap(),
        );
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.noisy_answer, b.noisy_answer);
            assert_eq!(a.true_answer, b.true_answer);
            assert_eq!(a.delta_hat, b.delta_hat);
        }
    }
    assert_eq!(serial[0].true_answer, 3.0);
    assert_eq!(serial[1].true_answer, 5.0);
}

#[test]
fn over_budget_batch_is_rejected_without_consuming_epsilon() {
    let params = MechanismParams::paper_edge_privacy(0.5); // 0.5ε per release
    let mut session =
        SqlSession::with_seed(visits_db(), params, 5).with_budget(PrivacyBudget::pure(1.0));

    // Three releases need 1.5ε against a 1.0ε budget: refused atomically.
    let err = session.query_batch(&BATCH).unwrap_err();
    match err {
        SqlError::BudgetExhausted(e) => {
            assert!((e.requested.epsilon - 1.5).abs() < 1e-12);
            assert!((e.remaining.epsilon - 1.0).abs() < 1e-12);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(
        session.remaining_budget().unwrap().epsilon,
        1.0,
        "a refused batch must consume nothing"
    );

    // Two of the three fit exactly and drain the budget to zero.
    let releases = session.query_batch(&BATCH[..2]).unwrap();
    assert_eq!(releases.len(), 2);
    assert!(session.remaining_budget().unwrap().epsilon.abs() < 1e-9);

    // Everything afterwards — batch or single — is refused.
    assert!(matches!(
        session.query_batch(&BATCH[..1]).unwrap_err(),
        SqlError::BudgetExhausted(_)
    ));
    assert!(matches!(
        session
            .query_scalar("SELECT COUNT(*) FROM visits")
            .unwrap_err(),
        SqlError::BudgetExhausted(_)
    ));
}

// ---------------------------------------------------------------------------
// Cross-query sequence cache: fingerprint invariance and release bit-identity.
// ---------------------------------------------------------------------------

use recursive_mechanism_dp::sql::fingerprint::plan_fingerprint;
use recursive_mechanism_dp::sql::{parse, plan_query};
use std::sync::Arc;

/// One abstract query shape over `visits`: a star self-join of `1 + joins`
/// aliases on `person`, per-alias `place` filters, and an optional ordering
/// conjunct between two roles. The *surface form* (alias names, join order,
/// conjunct order, operand order) is chosen separately, so one shape can be
/// rendered many ways.
#[derive(Clone, Debug)]
struct QueryShape {
    /// Number of JOINed aliases (role 0 is the FROM table).
    joins: usize,
    /// `place = <literal>` filter per role (`None` = no filter for that role).
    place_filter: Vec<Option<&'static str>>,
    /// Optional `role_a.person < role_b.person` conjunct.
    ordering: Option<(usize, usize)>,
}

/// How one rendering permutes and renames the shape.
#[derive(Clone, Debug)]
struct Rendering {
    /// Order in which roles 1.. are JOINed (a permutation of 1..=joins).
    join_order: Vec<usize>,
    /// Order of the WHERE conjuncts (a permutation).
    conjunct_order: Vec<usize>,
    /// Alias naming scheme: role i is named `format!("{prefix}{suffix[i]}")`.
    prefix: &'static str,
    suffixes: Vec<usize>,
    /// Whether to flip `x = y` equalities to `y = x` and `a < b` to `b > a`.
    flip_operands: bool,
}

fn render(shape: &QueryShape, r: &Rendering) -> String {
    let alias = |role: usize| format!("{}{}", r.prefix, r.suffixes[role]);
    let mut sql = format!("SELECT COUNT(*) FROM visits {}", alias(0));
    for &role in &r.join_order {
        let (a, b) = (alias(role), alias(0));
        let on = if r.flip_operands {
            format!("{b}.person = {a}.person")
        } else {
            format!("{a}.person = {b}.person")
        };
        sql.push_str(&format!(" JOIN visits {} ON {on}", alias(role)));
    }
    let mut conjuncts: Vec<String> = Vec::new();
    for (role, filter) in shape.place_filter.iter().enumerate() {
        if let Some(place) = filter {
            conjuncts.push(format!("{}.place = '{place}'", alias(role)));
        }
    }
    if let Some((lo, hi)) = shape.ordering {
        conjuncts.push(if r.flip_operands {
            format!("{}.person > {}.person", alias(hi), alias(lo))
        } else {
            format!("{}.person < {}.person", alias(lo), alias(hi))
        });
    }
    let ordered: Vec<String> = r
        .conjunct_order
        .iter()
        .filter(|&&i| i < conjuncts.len())
        .map(|&i| conjuncts[i].clone())
        .collect();
    if !ordered.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&ordered.join(" AND "));
    }
    sql
}

fn arb_shape() -> impl Strategy<Value = QueryShape> {
    (1usize..=3)
        .prop_flat_map(|joins| {
            let filters = proptest::collection::vec(
                prop_oneof![
                    Just(None),
                    Just(Some("museum")),
                    Just(Some("cafe")),
                    Just(Some("park")),
                ],
                joins + 1,
            );
            let ordering = prop_oneof![
                Just(None),
                (0..=joins, 0..=joins)
                    .prop_filter("distinct roles", |(a, b)| a != b)
                    .prop_map(Some),
            ];
            (Just(joins), filters, ordering)
        })
        .prop_map(|(joins, place_filter, ordering)| QueryShape {
            joins,
            place_filter,
            ordering,
        })
}

fn arb_rendering(joins: usize) -> impl Strategy<Value = Rendering> {
    let max_conjuncts = joins + 2; // every role filtered + the ordering
    (
        Just((1..=joins).collect::<Vec<usize>>()).prop_shuffle(),
        Just((0..max_conjuncts).collect::<Vec<usize>>()).prop_shuffle(),
        prop_oneof![Just("t"), Just("q"), Just("alias")],
        Just((0..=joins).collect::<Vec<usize>>()).prop_shuffle(),
        any::<bool>(),
    )
        .prop_map(
            |(join_order, conjunct_order, prefix, suffixes, flip_operands)| Rendering {
                join_order,
                conjunct_order,
                prefix,
                suffixes,
                flip_operands,
            },
        )
}

fn fingerprint_of(db: &AnnotatedDatabase, sql: &str) -> rmdp_fp::Fingerprint {
    let params = MechanismParams::paper_edge_privacy(1.0);
    let plan = parse(sql)
        .and_then(|query| plan_query(db, &query))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .expect_scalar();
    plan_fingerprint(db, &plan, &params)
}

use recursive_mechanism_dp::krelation::fingerprint as rmdp_fp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any two renderings of the same shape — permuted join order, permuted
    /// conjunct order, different alias names, flipped symmetric operands —
    /// must collide on one fingerprint.
    #[test]
    fn fingerprints_are_invariant_under_query_rewrites(
        shape in arb_shape(),
        renderings in (1usize..=3).prop_flat_map(|j| (arb_rendering(j), arb_rendering(j))),
    ) {
        // Tie the independently drawn renderings to the shape's join count.
        let shape = QueryShape { joins: renderings.0.join_order.len(), ..shape.clone() };
        let mut filters = shape.place_filter.clone();
        filters.resize(shape.joins + 1, None);
        let ordering = shape.ordering.filter(|(a, b)| *a <= shape.joins && *b <= shape.joins);
        let shape = QueryShape { place_filter: filters, ordering, ..shape };

        let db = visits_db();
        let a = render(&shape, &renderings.0);
        let b = render(&shape, &renderings.1);
        prop_assert_eq!(
            fingerprint_of(&db, &a),
            fingerprint_of(&db, &b),
            "renderings of one shape diverged:\n  {}\n  {}",
            a,
            b
        );
    }

    /// Structurally different shapes (different join arity, or a literal the
    /// other shape never mentions) must never collide.
    #[test]
    fn structurally_different_queries_never_collide(
        shape in arb_shape(),
        rendering in (1usize..=3).prop_flat_map(arb_rendering),
    ) {
        let joins = rendering.join_order.len();
        let mut filters = shape.place_filter.clone();
        filters.resize(joins + 1, None);
        let ordering = shape.ordering.filter(|(a, b)| *a <= joins && *b <= joins);
        let shape = QueryShape { joins, place_filter: filters, ordering };

        let db = visits_db();
        let base = fingerprint_of(&db, &render(&shape, &rendering));

        // A literal no shape in this universe uses: guaranteed non-isomorphic.
        let mut fresh_literal = shape.clone();
        fresh_literal.place_filter[0] = Some("zoo");
        let identity = Rendering {
            join_order: (1..=shape.joins).collect(),
            conjunct_order: (0..shape.joins + 2).collect(),
            prefix: "t",
            suffixes: (0..=shape.joins).collect(),
            flip_operands: false,
        };
        prop_assert_ne!(base, fingerprint_of(&db, &render(&fresh_literal, &identity)));

        // One more join than the base shape: different scan multiset.
        let mut wider = shape.clone();
        wider.joins += 1;
        wider.place_filter.push(None);
        let wider_identity = Rendering {
            join_order: (1..=wider.joins).collect(),
            conjunct_order: (0..wider.joins + 2).collect(),
            prefix: "t",
            suffixes: (0..=wider.joins).collect(),
            flip_operands: false,
        };
        prop_assert_ne!(base, fingerprint_of(&db, &render(&wider, &wider_identity)));
    }

    /// A cached session must release bit-identically to an uncached one
    /// under the same seed — repeats served from the cache included.
    #[test]
    fn cached_and_cold_sessions_release_bit_identically(seed in any::<u64>()) {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let queries = [BATCH[0], BATCH[2], BATCH[0], BATCH[2], BATCH[1], BATCH[0]];
        let mut cold = SqlSession::with_seed(visits_db(), params, seed);
        let cache = recursive_mechanism_dp::core::SequenceCache::shared(16);
        let mut cached = SqlSession::with_seed(visits_db(), params, seed)
            .with_sequence_cache(Arc::clone(&cache));
        for sql in queries {
            let a = cold.query_scalar(sql).unwrap();
            let b = cached.query_scalar(sql).unwrap();
            prop_assert_eq!(a.noisy_answer.to_bits(), b.noisy_answer.to_bits(), "{}", sql);
            prop_assert_eq!(a.delta_hat.to_bits(), b.delta_hat.to_bits(), "{}", sql);
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits(), "{}", sql);
            prop_assert_eq!(a.argmin_index, b.argmin_index, "{}", sql);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 3, "three distinct shapes");
        prop_assert_eq!(stats.hits, 3, "three repeats");
    }
}

/// The permuted self-join renderings of the paper's running example must hit
/// one cache entry end to end (not just fingerprint-equal): queries are
/// answered from each other's sequences with bit-identical `X`.
#[test]
fn permuted_self_join_renderings_share_one_cache_entry() {
    let params = MechanismParams::paper_edge_privacy(1.0);
    let cache = recursive_mechanism_dp::core::SequenceCache::shared(8);
    let mut session =
        SqlSession::with_seed(visits_db(), params, 42).with_sequence_cache(Arc::clone(&cache));
    let renderings = [
        "SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place \
         WHERE v1.person < v2.person",
        "SELECT COUNT(*) FROM visits a JOIN visits b ON b.place = a.place \
         WHERE a.person < b.person",
        "SELECT COUNT(*) FROM visits y JOIN visits x ON x.place = y.place \
         WHERE y.person < x.person",
    ];
    let releases: Vec<_> = renderings
        .iter()
        .map(|sql| session.query_scalar(sql).unwrap())
        .collect();
    assert_eq!(cache.len(), 1, "all renderings share one entry");
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 2);
    for r in &releases {
        assert_eq!(r.true_answer, releases[0].true_answer);
        assert_eq!(r.delta, releases[0].delta, "same cached sequences");
    }
}
