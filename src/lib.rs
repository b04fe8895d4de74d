//! # recursive-mechanism-dp
//!
//! A reproduction of *"Recursive Mechanism: Towards Node Differential Privacy
//! and Unrestricted Joins"* (Chen & Zhou, SIGMOD 2013).
//!
//! This facade crate re-exports the workspace crates so downstream users can
//! depend on a single package:
//!
//! * [`krelation`] — positive Boolean provenance expressions, the relaxation
//!   `φ`, K-relations and positive relational algebra.
//! * [`lp`] — the bounded-variable simplex solver used by the efficient
//!   mechanism.
//! * [`graph`] — the graph substrate (generators, subgraph enumeration).
//! * [`noise`] — differential-privacy noise primitives.
//! * [`core`] — the recursive mechanism itself (general and efficient
//!   instantiations, subgraph-counting front-end).
//! * [`baselines`] — the competing mechanisms from the paper's evaluation.
//! * [`sql`] — a SQL frontend: a positive SQL subset (joins, including
//!   self-joins, with conjunctive predicates) compiled to the K-relation
//!   algebra and released through the recursive mechanism. Every
//!   `SqlSession` entry point — `query`, `query_traced`, `query_scalar`,
//!   `query_grouped` and `query_batch` (scalar and `GROUP BY` items alike)
//!   — admits, releases and debits through one pipeline.
//! * [`runtime`] — the deterministic scoped worker pool and the admission
//!   gate (bounded in-flight + waiting-queue permits) the server fronts it
//!   with.
//! * [`observe`] — observability: deterministic clocks, stage recorders, the
//!   session metrics registry and the per-query `ReleaseTrace` returned by
//!   `SqlSession::query_traced` / SQL `EXPLAIN ANALYZE`.
//! * [`server`] — a multi-tenant DP query server: one shared immutable
//!   `CatalogSnapshot` and cross-tenant sequence cache, per-tenant ε
//!   budgets and replay logs, admission control in front of the worker
//!   pool, and a dependency-free line protocol over TCP.
//!
//! ## Quickstart
//!
//! ```
//! use recursive_mechanism_dp::core::subgraph::{SubgraphCounter, PrivacyUnit};
//! use recursive_mechanism_dp::core::params::MechanismParams;
//! use recursive_mechanism_dp::graph::{Graph, generators};
//! use recursive_mechanism_dp::graph::pattern::Pattern;
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = generators::gnp_average_degree(40, 6.0, &mut rng);
//! let params = MechanismParams::paper_edge_privacy(0.5);
//! let counter = SubgraphCounter::new(Pattern::triangle(), PrivacyUnit::Edge, params);
//! let answer = counter.release(&graph, &mut rng).unwrap();
//! assert!(answer.noisy_count.is_finite());
//! ```

//! ## SQL quickstart
//!
//! ```
//! use recursive_mechanism_dp::core::MechanismParams;
//! use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
//! use recursive_mechanism_dp::krelation::tuple::{Tuple, Value};
//! use recursive_mechanism_dp::krelation::{Expr, KRelation};
//! use recursive_mechanism_dp::sql::SqlSession;
//!
//! let mut db = AnnotatedDatabase::new();
//! let mut visits = KRelation::new(["person", "place"]);
//! for (person, place) in [("ada", "museum"), ("bo", "museum")] {
//!     let p = db.intern(person);
//!     visits.insert(
//!         Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
//!         Expr::Var(p),
//!     );
//! }
//! db.insert_table("visits", visits);
//! db.declare_public_domain("visits", "place", [Value::str("museum"), Value::str("cafe")]);
//! let mut session = SqlSession::new(db, MechanismParams::paper_edge_privacy(1.0));
//! let release = session
//!     .query_scalar("SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place \
//!             WHERE v1.person < v2.person")
//!     .unwrap();
//! assert_eq!(release.true_answer, 1.0);
//!
//! // A GROUP BY report over the declared public domain: one release per key.
//! let report = session
//!     .query_grouped("SELECT place, COUNT(*) FROM visits GROUP BY place")
//!     .unwrap();
//! assert_eq!(report.len(), 2);
//! assert_eq!(report.get(&Value::str("museum")).unwrap().true_answer, 2.0);
//! ```

#![deny(missing_docs)]

pub use rmdp_baselines as baselines;
pub use rmdp_core as core;
pub use rmdp_graph as graph;
pub use rmdp_krelation as krelation;
pub use rmdp_lp as lp;
pub use rmdp_noise as noise;
pub use rmdp_observe as observe;
pub use rmdp_runtime as runtime;
pub use rmdp_server as server;
pub use rmdp_sql as sql;
