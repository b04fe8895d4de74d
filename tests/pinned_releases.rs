//! Released values pinned bit for bit across every session entry point.
//!
//! Each case opens a fresh seeded session, runs the same release twice (so a
//! cached session serves its second pass from the cache) and compares
//! `noisy_answer.to_bits()` and `delta_hat.to_bits()` of every release, in
//! output order, against a table computed once and committed here. Every
//! case runs uncached and cached, at `Serial` and `Threads(2)`: all four
//! runs must produce the pinned table. A refactor of the release path that
//! changes the seed schedule, the fan-out or the noise draws fails here.
//!
//! The `server_*` cases run the same releases through `DpServer::query`,
//! which always shares one cache across its requests, so their uncached
//! and cached runs are the same server path.

use recursive_mechanism_dp::core::{MechanismParams, Parallelism, Release, SequenceCache};
use recursive_mechanism_dp::krelation::annotate::{AnnotatedDatabase, AnnotationRule};
use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::noise::{GroupBudgetPolicy, PrivacyBudget};
use recursive_mechanism_dp::server::{DpServer, ServerConfig};
use recursive_mechanism_dp::sql::{CatalogSnapshot, QueryOutput, SqlSession};

const SCALAR_SQL: &str = "SELECT COUNT(*) FROM visits v1 JOIN visits v2 \
                          ON v1.place = v2.place WHERE v1.person < v2.person";
const GROUPED_SQL: &str = "SELECT place, COUNT(*) FROM visits GROUP BY place";
const SEED: u64 = 2024;

/// The `visits` table, each row annotated with its person's participant,
/// interned under the label `owner` gives the person.
fn visits_db(owner: fn(&str) -> String) -> AnnotatedDatabase {
    let mut db = AnnotatedDatabase::new();
    let mut visits = KRelation::new(["person", "place"]);
    for (person, place) in [
        ("ada", "museum"),
        ("bo", "museum"),
        ("bo", "cafe"),
        ("cy", "cafe"),
        ("dee", "museum"),
        ("eve", "park"),
    ] {
        let p = db.intern(&owner(person));
        visits.insert(
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
            Expr::Var(p),
        );
    }
    db.insert_table("visits", visits);
    db.declare_public_domain(
        "visits",
        "place",
        ["museum", "cafe", "park", "zoo"].map(Value::str),
    );
    db
}

type Bits = Vec<(u64, u64)>;

fn bits(release: &Release) -> (u64, u64) {
    (release.noisy_answer.to_bits(), release.delta_hat.to_bits())
}

fn output_bits(output: &QueryOutput, out: &mut Bits) {
    match output {
        QueryOutput::Scalar(r) => out.push(bits(r)),
        QueryOutput::Grouped(g) => out.extend(g.groups.iter().map(|g| bits(&g.release))),
        QueryOutput::Explained(t) => output_bits(&t.output, out),
    }
}

/// Every release of one `server_*` case, twice over for one tenant of one
/// server. The `server_ingest_*` cases ingest one `visits` row between
/// their two releases: `server_ingest_scalar` a new participant,
/// `server_ingest_count` a known one, so that delta is intern-only and the
/// count's terms stay bare variables.
fn run_server(case: &str, params: MechanismParams) -> Bits {
    // Participants carry the labels the owner rule derives, so an ingested
    // row of a known person annotates with that person's participant.
    let mut db = visits_db(|person| AnnotationRule::owner_label("person", &Value::str(person)));
    db.declare_annotation_rule("visits", AnnotationRule::OwnerColumn("person".into()));
    let config = ServerConfig {
        seed: SEED,
        ..ServerConfig::default()
    };
    let server = DpServer::new(CatalogSnapshot::shared(db, params), config);
    server.register_tenant("alice", PrivacyBudget::pure(100.0));
    let sql = match case {
        "server_scalar" | "server_ingest_scalar" => SCALAR_SQL.to_owned(),
        "server_grouped" => GROUPED_SQL.to_owned(),
        "server_explain_scalar" => format!("EXPLAIN ANALYZE {SCALAR_SQL}"),
        "server_ingest_count" => "SELECT COUNT(*) FROM visits".to_owned(),
        other => panic!("unknown case {other}"),
    };
    let ingested = match case {
        "server_ingest_scalar" => Some(("fay", "museum")),
        "server_ingest_count" => Some(("bo", "park")),
        _ => None,
    };
    let mut out = Bits::new();
    for pass in 0..2 {
        if let (1, Some((person, place))) = (pass, ingested) {
            let row = Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]);
            server.ingest("visits", vec![row]).unwrap();
        }
        output_bits(&server.query("alice", &sql).unwrap(), &mut out);
    }
    out
}

/// Every release of one case, twice over in one session.
fn run(case: &str, parallelism: Parallelism, cached: bool) -> Bits {
    let params = MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism);
    if case.starts_with("server_") {
        return run_server(case, params);
    }
    let mut session = SqlSession::with_seed(visits_db(str::to_owned), params, SEED);
    if cached {
        session = session.with_sequence_cache(SequenceCache::shared(32));
    }
    if case.ends_with("per_group") {
        session = session.with_group_policy(GroupBudgetPolicy::PerGroup);
    }
    let mut out = Bits::new();
    for _ in 0..2 {
        match case {
            "query_scalar" => output_bits(&session.query(SCALAR_SQL).unwrap(), &mut out),
            "query_grouped_split" | "query_grouped_per_group" => {
                output_bits(&session.query(GROUPED_SQL).unwrap(), &mut out)
            }
            "explain_scalar" => output_bits(
                &session
                    .query(&format!("EXPLAIN ANALYZE {SCALAR_SQL}"))
                    .unwrap(),
                &mut out,
            ),
            "explain_grouped" => output_bits(
                &session
                    .query(&format!("EXPLAIN ANALYZE {GROUPED_SQL}"))
                    .unwrap(),
                &mut out,
            ),
            "batch_scalar" => session
                .query_batch(&[
                    SCALAR_SQL,
                    "SELECT COUNT(*) FROM visits",
                    "SELECT COUNT(*) FROM visits WHERE place = 'cafe'",
                ])
                .unwrap()
                .iter()
                .for_each(|o| output_bits(o, &mut out)),
            "batch_mixed" => session
                .query_batch(&["SELECT COUNT(*) FROM visits", GROUPED_SQL, SCALAR_SQL])
                .unwrap()
                .iter()
                .for_each(|o| output_bits(o, &mut out)),
            other => panic!("unknown case {other}"),
        }
    }
    out
}

/// `(case, pinned bits)`, computed once and committed.
const PINNED: &[(&str, &[(u64, u64)])] = &[
    (
        "query_scalar",
        &[
            (0x3feb82c0ab282f40, 0x4004133a0526f3a3),
            (0x4001ba375ecaf7ea, 0x3ffd83ac281e679c),
        ],
    ),
    (
        "query_grouped_split",
        &[
            (0x40141d7f5aad767b, 0x3ff85b24244e8518),
            (0xbfd13ae0afdac41e, 0x3fc90c0f2187a9e0),
            (0x404249d538b1d944, 0x40197bdb6e0fd232),
            (0x405123eca52d0b3c, 0x3ffec1b47517f31b),
            (0xbfa1c526c923d766, 0x3f96f6d4f69b63b4),
            (0x3fe837144b8dc600, 0x400029e1dd093564),
            (0x3fa5aca66cfba636, 0x3f5fea2e9d0ae1b2),
            (0x40810d4c3a7ff185, 0x40331eb981240ed9),
        ],
    ),
    (
        "query_grouped_per_group",
        &[
            (0x400dd0a816eb6708, 0x400173de2797318e),
            (0x3ff0d168360b2f12, 0x3ff1fd3b3598b111),
            (0x4012ff5b006ead34, 0x40057c4a87227688),
            (0x402e8d6983b36a1f, 0x3ffb696206d989e1),
            (0x3ff6a8086f233538, 0x3fe8523fcb6025ff),
            (0x3ffb0a0d2a3c7e8e, 0x40001f97285e6247),
            (0x40019117f905a3b0, 0x3fd6ba9629466fee),
            (0x4035b5192030179d, 0x40085711494c5038),
        ],
    ),
    (
        "explain_scalar",
        &[
            (0x3feb82c0ab282f40, 0x4004133a0526f3a3),
            (0x4001ba375ecaf7ea, 0x3ffd83ac281e679c),
        ],
    ),
    (
        "explain_grouped",
        &[
            (0x40141d7f5aad767b, 0x3ff85b24244e8518),
            (0xbfd13ae0afdac41e, 0x3fc90c0f2187a9e0),
            (0x404249d538b1d944, 0x40197bdb6e0fd232),
            (0x405123eca52d0b3c, 0x3ffec1b47517f31b),
            (0xbfa1c526c923d766, 0x3f96f6d4f69b63b4),
            (0x3fe837144b8dc600, 0x400029e1dd093564),
            (0x3fa5aca66cfba636, 0x3f5fea2e9d0ae1b2),
            (0x40810d4c3a7ff185, 0x40331eb981240ed9),
        ],
    ),
    (
        "batch_scalar",
        &[
            (0x401509860bf5c927, 0x40014b15f62a55d7),
            (0x40123b069d64c186, 0x400357304427c763),
            (0x400ce0c6221321ba, 0x3ffc2fe7bb9686f8),
            (0x3feaa9115afe6094, 0x400108406ab8d152),
            (0x401ec45747b8b817, 0x3ff755440917a4af),
            (0x4010c9935e06e2c0, 0x40060abf7f2469c1),
        ],
    ),
    (
        "batch_mixed",
        &[
            (0x402031fd88704f1e, 0x40014b15f62a55d7),
            (0xc0627d0fc5d6bea0, 0x402887b19f30bed9),
            (0xc050548b084473e7, 0x3ffdfdc08442c972),
            (0x3fe593e9d09e1634, 0x3fd3883985ae88eb),
            (0xbff3976fbc9ae06f, 0x3fdfda120013c7c3),
            (0x401478b9dd46de13, 0x400136c3650d64ba),
            (0x400da203ec06c6d3, 0x400108406ab8d152),
            (0x40512f42514e5b96, 0x40047297e36b592e),
            (0xc039c9b35ba98cc3, 0x40132925fbfd7df1),
            (0x403b6aaca9ba71b5, 0x3ff4634236b1f6c7),
            (0xc0144c11fd0e39d3, 0x3fff55c20863400b),
            (0x401abba34dedee16, 0x400aec11693d2fa7),
        ],
    ),
    (
        "server_scalar",
        &[
            (0x400024f9807d19b6, 0x40034b45bc4aa9a9),
            (0x40015af5c5081433, 0x3ff4e3f2a0ded6c3),
        ],
    ),
    (
        "server_grouped",
        &[
            (0xbfe6c8ca7ad9d394, 0x3fc4f82408aa0626),
            (0x3fc63c93c7a43816, 0x3fc296441ec3336d),
            (0xc04f490c1377a2d0, 0x40175f6ace66f238),
            (0xc09a3d12558c81fb, 0x406ee840c286112d),
            (0x403090b8eb0d8790, 0x3ff325be81ef216a),
            (0x4071b2fd741b7ed6, 0x403b672acd851c01),
            (0xc004329f5b92ece6, 0x3fe43dcc3e4d741a),
            (0x400342f17cdee894, 0x3fd329cadde2fc4a),
        ],
    ),
    (
        "server_explain_scalar",
        &[
            (0x400024f9807d19b6, 0x40034b45bc4aa9a9),
            (0x40015af5c5081433, 0x3ff4e3f2a0ded6c3),
        ],
    ),
    (
        "server_ingest_scalar",
        &[
            (0x400024f9807d19b6, 0x40034b45bc4aa9a9),
            (0x4007ccef15777f94, 0x3ff4e3f2a0ded6c3),
        ],
    ),
    (
        "server_ingest_count",
        &[
            (0x40126cd9e2193807, 0x40034b45bc4aa9a9),
            (0x4014ad7ae2840a1a, 0x3ff4e3f2a0ded6c3),
        ],
    ),
];

#[test]
fn released_values_match_the_pinned_bits_on_every_path() {
    let mut failures = Vec::new();
    for case in [
        "query_scalar",
        "query_grouped_split",
        "query_grouped_per_group",
        "explain_scalar",
        "explain_grouped",
        "batch_scalar",
        "batch_mixed",
        "server_scalar",
        "server_grouped",
        "server_explain_scalar",
        "server_ingest_scalar",
        "server_ingest_count",
    ] {
        let pinned = PINNED.iter().find(|(c, _)| *c == case).map(|(_, b)| *b);
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            for cached in [false, true] {
                let got = run(case, parallelism, cached);
                if pinned != Some(got.as_slice()) {
                    let got: Vec<String> = got
                        .iter()
                        .map(|(n, d)| format!("(0x{n:016x}, 0x{d:016x})"))
                        .collect();
                    failures.push(format!(
                        "{case} ({parallelism}, cached {cached}): got [{}]",
                        got.join(", ")
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A one-item batch is `query` on that item, bit for bit: a single plan
/// releases inline on the session RNG whichever entry point admitted it.
#[test]
fn one_item_batch_releases_exactly_like_query() {
    for sql in [SCALAR_SQL, GROUPED_SQL] {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            for cached in [false, true] {
                let params = MechanismParams::paper_edge_privacy(1.0).with_parallelism(parallelism);
                let session = || {
                    let session = SqlSession::with_seed(visits_db(str::to_owned), params, SEED);
                    if cached {
                        session.with_sequence_cache(SequenceCache::shared(32))
                    } else {
                        session
                    }
                };
                let (mut single, mut batch) = (Bits::new(), Bits::new());
                output_bits(&session().query(sql).unwrap(), &mut single);
                for output in session().query_batch(&[sql]).unwrap() {
                    output_bits(&output, &mut batch);
                }
                assert_eq!(batch, single, "{sql} ({parallelism}, cached {cached})");
            }
        }
    }
}
