//! SQL frontend for the recursive mechanism: a positive SQL subset compiled
//! to K-relation algebra and released with differential privacy.
//!
//! The paper's headline capability is DP aggregation over queries with
//! **unrestricted joins** (Sec. 3.2, 5.2): a join can fan one participant's
//! data out into arbitrarily many output rows, which breaks the classical
//! global-sensitivity Laplace mechanism but is exactly what the recursive
//! mechanism absorbs. This crate makes that capability consumable the way
//! DP-SQL systems (Chorus; Johnson, Near & Song) are consumed — as a SQL
//! string — while accepting the self-joins those systems must restrict:
//!
//! * [`token`] / [`parser`] / [`ast`] — a hand-rolled tokenizer and
//!   recursive-descent parser for `SELECT COUNT(*)|SUM(col) FROM … JOIN … ON …
//!   WHERE …` with conjunctive predicates. Constructs outside positive
//!   relational algebra (`NOT`, `NOT IN`, outer joins, `EXCEPT`, …) are
//!   rejected with span-carrying errors explaining the monotonicity reason.
//! * [`mod@plan`] — validation against the [`AnnotatedDatabase`] schema (alias
//!   resolution, ambiguity checks) and lowering to the algebra operators of
//!   `rmdp_krelation`: scans + `ρ` renames, hash theta-joins, selections.
//! * [`exec`] — plan evaluation producing the annotated output relation.
//! * [`session`] — [`SqlSession::query`], the one-call path from a SQL
//!   string to a [`Release`](rmdp_core::Release) (or a per-group
//!   [`GroupedRelease`] for `GROUP BY` reports over declared public key
//!   domains) through [`EfficientSequences`](rmdp_core::EfficientSequences).
//!
//! ```
//! use rmdp_core::MechanismParams;
//! use rmdp_krelation::annotate::AnnotatedDatabase;
//! use rmdp_krelation::tuple::{Tuple, Value};
//! use rmdp_krelation::{Expr, KRelation};
//! use rmdp_sql::SqlSession;
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
//!
//! let mut session = SqlSession::new(db, MechanismParams::paper_edge_privacy(1.0));
//! let release = session
//!     .query_scalar(
//!         "SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place \
//!          WHERE v1.person < v2.person",
//!     )
//!     .unwrap();
//! assert_eq!(release.true_answer, 1.0); // ada and bo met at the museum
//! ```

#![deny(missing_docs)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod parser;
pub mod plan;
mod release;
pub mod session;
pub mod snapshot;
pub mod token;

pub use error::SqlError;
pub use fingerprint::{plan_fingerprint, plan_key, PlanKey};
pub use parser::parse;
pub use plan::{plan_query, AnyPlan, GroupedQueryPlan, QueryPlan};
pub use session::{GroupRelease, GroupedRelease, QueryOutput, SqlSession, TracedOutput};
pub use snapshot::{CatalogSnapshot, Prepared};
pub use token::{Span, Token, TokenKind};

// Re-exported so downstream users can configure grouped-report pricing
// without importing `rmdp_noise` separately.
pub use rmdp_noise::GroupBudgetPolicy;

// Re-exported so downstream users can read traces and wire up telemetry
// (`SqlSession::with_metrics` / `with_clock`) without importing
// `rmdp_observe` separately.
pub use rmdp_observe::{
    CacheOutcome, MetricsRegistry, MetricsSnapshot, ReleaseTrace, Stage, StageSpan,
};

// Re-exported so downstream users of the facade crate can name the argument
// type of `SqlSession::new` without importing `rmdp_krelation` separately.
pub use rmdp_krelation::annotate::AnnotatedDatabase;
