//! A multi-tenant differentially private query server over the recursive
//! mechanism (Chen & Zhou, SIGMOD 2013).
//!
//! This crate is the service topology around the `rmdp-sql` frontend:
//!
//! ```text
//!  clients ──TCP──▶ [protocol]  line requests, one thread per connection
//!                        │
//!                        ▼
//!                   [DpServer]  admission gate → prepare → price → reserve
//!                    │   │  │
//!        ┌───────────┘   │  └────────────┐
//!        ▼               ▼               ▼
//!  CatalogSnapshot  TenantRegistry  SequenceCache
//!  (immutable,      (per-tenant ε   (shared across
//!   Arc-shared)      + admission)    ALL tenants)
//!                        │
//!                        ▼
//!              per-request SqlSession
//!              (seed = f(server, tenant, index))
//! ```
//!
//! The design splits server state along one line: **what is sound to share**
//! (the immutable catalog snapshot; the sequence cache, whose fingerprint
//! keys bake in database identity) is shared by every tenant, and **what
//! meters privacy** (ε ledgers, admission indices, replay logs) is strictly
//! per-tenant. Refused and shed requests consume no ε; see
//! [`ServerError`]. Releases are a deterministic function of the admitted
//! per-tenant workload — [`DpServer::replay`] reproduces them
//! bit-identically from the query log, whatever thread schedule produced it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod seed;
pub mod server;
pub mod tenant;

pub use client::{DpClient, WireRelease, WireResponse};
pub use error::ServerError;
pub use protocol::{serve, ServerHandle};
pub use seed::{derive_query_seed, derive_tenant_seed};
pub use server::{DpServer, IngestReport, ServerConfig};
pub use tenant::{AdmittedQuery, TenantRegistry};

#[cfg(test)]
mod tests {
    use super::*;
    use rmdp_core::MechanismParams;
    use rmdp_krelation::annotate::{AnnotatedDatabase, AnnotationRule};
    use rmdp_krelation::tuple::{Tuple, Value};
    use rmdp_krelation::{Expr, KRelation};
    use rmdp_noise::PrivacyBudget;
    use rmdp_runtime::AdmissionConfig;
    use rmdp_sql::{CatalogSnapshot, QueryOutput};
    use std::sync::Arc;

    fn snapshot() -> Arc<CatalogSnapshot> {
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
        db.declare_public_domain(
            "visits",
            "place",
            [Value::str("museum"), Value::str("cafe"), Value::str("park")],
        );
        CatalogSnapshot::shared(db, MechanismParams::paper_edge_privacy(1.0))
    }

    fn row(pairs: &[(&str, &str)]) -> Tuple {
        Tuple::new(pairs.iter().map(|(a, v)| (*a, Value::str(v))))
    }

    /// Two tables loaded through the delta path itself, so their
    /// participant labels are rule-consistent and later ingests of known
    /// people are intern-only (no universe epoch bump).
    fn delta_snapshot() -> Arc<CatalogSnapshot> {
        let mut db = AnnotatedDatabase::new();
        db.insert_table("visits", KRelation::new(["person", "place"]));
        db.insert_table("residents", KRelation::new(["person", "town"]));
        db.declare_annotation_rule("visits", AnnotationRule::OwnerColumn("person".into()));
        db.declare_annotation_rule("residents", AnnotationRule::OwnerColumn("person".into()));
        db.declare_public_domain(
            "visits",
            "place",
            [Value::str("museum"), Value::str("cafe"), Value::str("park")],
        );
        db.apply_delta(
            "visits",
            [
                row(&[("person", "ada"), ("place", "museum")]),
                row(&[("person", "bo"), ("place", "cafe")]),
            ],
        )
        .unwrap();
        db.apply_delta(
            "residents",
            [row(&[("person", "ada"), ("town", "springfield")])],
        )
        .unwrap();
        CatalogSnapshot::shared(db, MechanismParams::paper_edge_privacy(1.0))
    }

    fn eps(e: f64) -> PrivacyBudget {
        PrivacyBudget {
            epsilon: e,
            delta: 0.0,
        }
    }

    #[test]
    fn queries_release_and_debit_per_tenant() {
        let server = DpServer::new(snapshot(), ServerConfig::default());
        assert!(server.register_tenant("alice", eps(4.0)));
        assert!(!server.register_tenant("alice", eps(99.0)), "no resets");
        server.register_tenant("bob", eps(4.0));

        let out = server
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap();
        let release = out.scalar().expect("scalar release");
        assert_eq!(release.true_answer, 5.0);
        assert_eq!(release.epsilon_spent, 1.0);

        assert_eq!(server.spent_budget("alice").unwrap().epsilon, 1.0);
        assert_eq!(
            server.spent_budget("bob").unwrap().epsilon,
            0.0,
            "bob pays nothing for alice's query"
        );
        assert_eq!(server.query_log("alice").unwrap().len(), 1);
        let metrics = server.metrics().snapshot();
        let latency = metrics
            .histogram("server.latency_ms")
            .expect("latency histogram");
        assert_eq!(latency.count, 1, "one latency sample per query run");
    }

    #[test]
    fn refusals_leave_the_ledger_bit_unchanged() {
        let server = DpServer::new(snapshot(), ServerConfig::default());
        server.register_tenant("alice", eps(0.5));
        let before = server.remaining_budget("alice").unwrap();

        let err = server
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap_err();
        assert!(matches!(err, ServerError::BudgetExhausted(_)), "{err}");
        assert!(!err.consumed_epsilon());
        let after = server.remaining_budget("alice").unwrap();
        assert_eq!(before.epsilon.to_bits(), after.epsilon.to_bits());
        assert!(
            server.query_log("alice").unwrap().is_empty(),
            "refusals never enter the replay log"
        );

        let err = server.query("nobody", "SELECT COUNT(*) FROM visits");
        assert!(matches!(err, Err(ServerError::UnknownTenant(_))));
    }

    #[test]
    fn failed_queries_refund_their_reservation() {
        let server = DpServer::new(snapshot(), ServerConfig::default());
        server.register_tenant("alice", eps(4.0));
        // An unknown table fails at the prepare step, before any
        // reservation is made.
        let err = server.query("alice", "SELECT COUNT(*) FROM nowhere");
        assert!(matches!(err, Err(ServerError::Sql(_))));
        assert_eq!(server.spent_budget("alice").unwrap().epsilon, 0.0);
    }

    #[test]
    fn replay_reproduces_releases_bit_identically() {
        let server = DpServer::new(snapshot(), ServerConfig::default());
        server.register_tenant("alice", eps(16.0));
        let sqls = [
            "SELECT COUNT(*) FROM visits",
            "SELECT COUNT(*) FROM visits WHERE place = 'museum'",
            "SELECT COUNT(*) FROM visits",
            "SELECT place, COUNT(*) FROM visits GROUP BY place",
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM visits",
        ];
        let mut live = Vec::new();
        for sql in sqls {
            live.push(server.query("alice", sql).unwrap());
        }
        // The third query hits the shared cache (same fingerprint as the
        // first); replay re-solves everything cold.
        assert!(server.cache_stats().hits >= 1, "expected a cache hit");

        let replayed = server.replay("alice").unwrap();
        assert_eq!(replayed.len(), live.len());
        for (orig, re) in live.iter().zip(&replayed) {
            let re = re.as_ref().unwrap();
            match (orig, re) {
                (QueryOutput::Scalar(a), QueryOutput::Scalar(b)) => {
                    assert_eq!(a.noisy_answer.to_bits(), b.noisy_answer.to_bits());
                }
                (QueryOutput::Grouped(a), QueryOutput::Grouped(b)) => {
                    assert_eq!(a.groups.len(), b.groups.len());
                    for (ga, gb) in a.groups.iter().zip(&b.groups) {
                        assert_eq!(ga.key, gb.key);
                        assert_eq!(
                            ga.release.noisy_answer.to_bits(),
                            gb.release.noisy_answer.to_bits()
                        );
                    }
                }
                (QueryOutput::Explained(a), QueryOutput::Explained(b)) => {
                    let (a, b) = (&a.output, &b.output);
                    let (QueryOutput::Scalar(a), QueryOutput::Scalar(b)) = (a, b) else {
                        panic!("EXPLAIN of a scalar released {a:?} / {b:?}");
                    };
                    assert_eq!(a.noisy_answer.to_bits(), b.noisy_answer.to_bits());
                    assert_eq!(a.delta_hat.to_bits(), b.delta_hat.to_bits());
                }
                other => panic!("shape changed under replay: {other:?}"),
            }
        }
    }

    #[test]
    fn ingest_swaps_snapshots_while_untouched_tables_keep_hitting() {
        let server = DpServer::new(delta_snapshot(), ServerConfig::default());
        server.register_tenant("alice", eps(64.0));
        let visits = server
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap();
        assert_eq!(visits.scalar().unwrap().true_answer, 2.0);
        server
            .query("alice", "SELECT COUNT(*) FROM residents")
            .unwrap();
        let misses = server.cache_stats().misses;

        // An intern-only delta: "bo" is a known participant, so only the
        // visits table epoch moves — the universe epoch stays put.
        let report = server
            .ingest("visits", vec![row(&[("person", "bo"), ("place", "park")])])
            .unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(report.rows, 1);
        assert_eq!(report.swept, 1, "only the visits plan goes stale");
        assert_eq!(server.snapshot().version(), 1);

        // The untouched table's fingerprint is byte-identical across the
        // swap: the residents entry survived the sweep and still hits.
        let hits = server.cache_stats().hits;
        server
            .query("alice", "SELECT COUNT(*) FROM residents")
            .unwrap();
        assert_eq!(server.cache_stats().hits, hits + 1);
        assert_eq!(server.cache_stats().misses, misses, "no new cold solve");

        // The mutated table answers over the new snapshot.
        let visits = server
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap();
        assert_eq!(visits.scalar().unwrap().true_answer, 3.0);

        // A rejected delta changes nothing: same version, same data.
        let err = server
            .ingest("nowhere", vec![row(&[("x", "1")])])
            .unwrap_err();
        assert!(matches!(err, ServerError::Sql(_)), "{err}");
        assert_eq!(server.snapshot().version(), 1);
    }

    #[test]
    fn replay_is_bit_identical_across_interleaved_ingests() {
        let server = DpServer::new(delta_snapshot(), ServerConfig::default());
        server.register_tenant("alice", eps(64.0));
        let mut live = Vec::new();
        live.push(
            server
                .query("alice", "SELECT COUNT(*) FROM visits")
                .unwrap(),
        );
        server
            .ingest("visits", vec![row(&[("person", "cy"), ("place", "park")])])
            .unwrap();
        live.push(
            server
                .query("alice", "SELECT COUNT(*) FROM visits")
                .unwrap(),
        );
        server
            .ingest(
                "visits",
                vec![row(&[("person", "dee"), ("place", "museum")])],
            )
            .unwrap();
        live.push(
            server
                .query("alice", "SELECT COUNT(*) FROM visits")
                .unwrap(),
        );
        live.push(
            server
                .query("alice", "SELECT place, COUNT(*) FROM visits GROUP BY place")
                .unwrap(),
        );

        // The data really moved under the repeated query…
        let trues: Vec<f64> = live[..3]
            .iter()
            .map(|o| o.clone().scalar().unwrap().true_answer)
            .collect();
        assert_eq!(trues, [2.0, 3.0, 4.0]);
        // …and the log pinned each admission to the snapshot it saw.
        let versions: Vec<u64> = server
            .query_log("alice")
            .unwrap()
            .iter()
            .map(|q| q.snapshot_version)
            .collect();
        assert_eq!(versions, [0, 1, 2, 2]);

        let replayed = server.replay("alice").unwrap();
        assert_eq!(replayed.len(), live.len());
        for (orig, re) in live.iter().zip(&replayed) {
            match (orig, re.as_ref().unwrap()) {
                (QueryOutput::Scalar(a), QueryOutput::Scalar(b)) => {
                    assert_eq!(a.true_answer, b.true_answer);
                    assert_eq!(a.noisy_answer.to_bits(), b.noisy_answer.to_bits());
                }
                (QueryOutput::Grouped(a), QueryOutput::Grouped(b)) => {
                    assert_eq!(a.groups.len(), b.groups.len());
                    for (ga, gb) in a.groups.iter().zip(&b.groups) {
                        assert_eq!(ga.key, gb.key);
                        assert_eq!(
                            ga.release.noisy_answer.to_bits(),
                            gb.release.noisy_answer.to_bits()
                        );
                    }
                }
                other => panic!("shape changed under replay: {other:?}"),
            }
        }
    }

    #[test]
    fn tenant_in_flight_cap_sheds_without_spending() {
        let config = ServerConfig {
            per_tenant_in_flight: 0,
            ..ServerConfig::default()
        };
        let server = DpServer::new(snapshot(), config);
        server.register_tenant("alice", eps(4.0));
        let err = server
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap_err();
        assert!(matches!(err, ServerError::TenantBusy { .. }), "{err}");
        assert_eq!(server.spent_budget("alice").unwrap().epsilon, 0.0);
    }

    #[test]
    fn the_wire_round_trips_releases_bit_identically() {
        let config = ServerConfig {
            admission: AdmissionConfig::with_in_flight(4),
            ..ServerConfig::default()
        };
        let server = Arc::new(DpServer::new(snapshot(), config));
        server.register_tenant("alice", eps(16.0));
        let mut handle = serve(Arc::clone(&server), "127.0.0.1:0").unwrap();

        let mut client = DpClient::connect(handle.addr()).unwrap();
        let scalar = client
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap();
        let wire = scalar.scalar().expect("scalar release").clone();
        let log = server.query_log("alice").unwrap();
        assert_eq!(log.len(), 1);
        let replayed = server.replay("alice").unwrap().remove(0).unwrap();
        let re = replayed.scalar().unwrap();
        assert_eq!(
            wire.noisy_answer.to_bits(),
            re.noisy_answer.to_bits(),
            "shortest-round-trip float formatting preserves bits over the wire"
        );

        let grouped = client
            .query("alice", "SELECT place, COUNT(*) FROM visits GROUP BY place")
            .unwrap();
        match grouped {
            WireResponse::Grouped { groups, .. } => assert_eq!(groups.len(), 3),
            other => panic!("expected grouped response, got {other:?}"),
        }

        let explained = client
            .query("alice", "EXPLAIN ANALYZE SELECT COUNT(*) FROM visits")
            .unwrap();
        assert!(
            matches!(explained, WireResponse::Explained { .. }),
            "{explained:?}"
        );

        match client.budget("alice").unwrap() {
            WireResponse::Budget { remaining, spent } => {
                let ledger = server.remaining_budget("alice").unwrap();
                assert_eq!(remaining.to_bits(), ledger.epsilon.to_bits());
                assert!(spent > 0.0);
            }
            other => panic!("expected budget response, got {other:?}"),
        }

        match client
            .query("nobody", "SELECT COUNT(*) FROM visits")
            .unwrap()
        {
            WireResponse::Error { code, .. } => assert_eq!(code, "UNKNOWN_TENANT"),
            other => panic!("expected error, got {other:?}"),
        }

        handle.stop();
    }

    #[test]
    fn the_wire_ingests_and_serves_the_new_snapshot() {
        let server = Arc::new(DpServer::new(delta_snapshot(), ServerConfig::default()));
        server.register_tenant("alice", eps(16.0));
        let mut handle = serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = DpClient::connect(handle.addr()).unwrap();

        let before = client
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap();

        match client
            .ingest("visits", "person=eve,place=park;person=fay,place=museum")
            .unwrap()
        {
            WireResponse::Ingest { version, rows } => {
                assert_eq!(version, 1);
                assert_eq!(rows, 2);
            }
            other => panic!("expected ingest receipt, got {other:?}"),
        }

        let after = client
            .query("alice", "SELECT COUNT(*) FROM visits")
            .unwrap();

        match client.ingest("visits", "garbage").unwrap() {
            WireResponse::Error { code, .. } => assert_eq!(code, "PROTOCOL"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        match client.ingest("nowhere", "x=1").unwrap() {
            WireResponse::Error { code, .. } => assert_eq!(code, "SQL"),
            other => panic!("expected SQL error, got {other:?}"),
        }
        assert_eq!(server.snapshot().version(), 1, "rejections swap nothing");
        // The sweep count stays in process: the wire receipt omits it.
        let metrics = server.metrics().snapshot();
        assert_eq!(metrics.counter("server.ingest.swept"), Some(1));

        // The exact answers never cross the wire; replay recomputes both
        // releases over the snapshots they saw: 2 visits before the
        // ingest, 4 after, with the noisy values the wire carried.
        let replayed: Vec<_> = server
            .replay("alice")
            .unwrap()
            .into_iter()
            .map(|o| o.unwrap().scalar().unwrap())
            .collect();
        assert_eq!(replayed[0].true_answer, 2.0);
        assert_eq!(replayed[1].true_answer, 4.0);
        for (wire, replay) in [before, after].iter().zip(&replayed) {
            let noisy = wire.scalar().unwrap().noisy_answer;
            assert_eq!(noisy.to_bits(), replay.noisy_answer.to_bits());
        }

        handle.stop();
    }
}
