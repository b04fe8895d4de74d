//! The immutable, shareable half of a SQL session.
//!
//! [`CatalogSnapshot`] bundles everything about a query frontend that never
//! changes while queries run: the annotated database (tables, participant
//! universe, declared public key domains — the *catalog*), and the default
//! [`MechanismParams`] releases are priced and noised with. A snapshot is
//! deliberately **immutable**: it hands out only `&` access, so an
//! `Arc<CatalogSnapshot>` can be shared by any number of concurrent
//! sessions, worker threads, or server tenants without locking — the split
//! that turns the library-level [`SqlSession`](crate::SqlSession) into a
//! long-lived multi-tenant service (`rmdp-server`).
//!
//! Everything *mutable* about query execution — the noise RNG, the budget
//! accountant, LP-work totals — stays in the per-session half
//! ([`SqlSession`](crate::SqlSession)), which is now a thin, cheap wrapper:
//! minting one session per request over a shared snapshot costs two `Arc`
//! clones and an RNG seed.
//!
//! Because the snapshot owns the [`AnnotatedDatabase`] *value* (not a copy
//! per session), every session sees the same database `instance_id` and
//! epoch stamps — which is exactly what makes one shared
//! [`SequenceCache`](rmdp_core::SequenceCache) sound across tenants: plan
//! fingerprints embed that identity, so entries computed by one tenant are
//! valid for every other tenant of the same snapshot by construction.
//!
//! ## Versioned snapshot chains
//!
//! A snapshot is immutable, but the *service* over it need not be frozen:
//! [`CatalogSnapshot::with_delta`] forks a **new** snapshot with rows
//! appended to one table, sharing every untouched table with its parent
//! copy-on-write (the same `Arc`'d relations, the same epoch stamps). The
//! parent stays fully usable — in-flight sessions holding it keep
//! releasing against exactly the data they were admitted under — while a
//! server atomically swaps its serving handle to the child. Each fork
//! increments [`version`](CatalogSnapshot::version), giving replay logs a
//! stable name for "the database state this release saw".

use crate::error::SqlError;
use crate::parser::parse;
use crate::plan::{plan_query, AnyPlan};
use rmdp_core::MechanismParams;
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::tuple::Tuple;
use rmdp_observe::{Clock, ManualClock};
use std::sync::Arc;

/// One SQL request, parsed and planned once: what
/// [`CatalogSnapshot::prepare`] returns and
/// [`SqlSession::release_prepared`](crate::SqlSession::release_prepared)
/// releases. Its price is [`AnyPlan::cost`] of `plan`, so a caller can
/// price and release the same value.
///
/// The timings are durations, not clock readings: a server prepares on its
/// own clock and releases on the session's, and the two have different
/// origins.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The validated plan.
    pub plan: AnyPlan,
    /// Whether the text carried an `EXPLAIN ANALYZE` prefix.
    pub explain: bool,
    /// Nanoseconds spent tokenizing and parsing.
    pub parse_nanos: u64,
    /// Nanoseconds spent validating and lowering to the plan.
    pub plan_nanos: u64,
}

/// The immutable catalog + planner + parameter bundle shared by all
/// sessions over one database state.
///
/// ```
/// use rmdp_core::MechanismParams;
/// use rmdp_krelation::annotate::AnnotatedDatabase;
/// use rmdp_krelation::tuple::{Tuple, Value};
/// use rmdp_krelation::{Expr, KRelation};
/// use rmdp_sql::{CatalogSnapshot, SqlSession};
///
/// let mut db = AnnotatedDatabase::new();
/// let mut visits = KRelation::new(["person", "place"]);
/// let p = db.intern("ada");
/// visits.insert(
///     Tuple::new([("person", Value::str("ada")), ("place", Value::str("museum"))]),
///     Expr::Var(p),
/// );
/// db.insert_table("visits", visits);
///
/// let snapshot = CatalogSnapshot::shared(db, MechanismParams::paper_edge_privacy(1.0));
/// // Two sessions over one snapshot: no copy of the database, and cache
/// // fingerprints agree because the database identity is shared.
/// let mut a = SqlSession::over(std::sync::Arc::clone(&snapshot), 1);
/// let mut b = SqlSession::over(std::sync::Arc::clone(&snapshot), 2);
/// assert_eq!(
///     a.query_scalar("SELECT COUNT(*) FROM visits").unwrap().true_answer,
///     b.query_scalar("SELECT COUNT(*) FROM visits").unwrap().true_answer,
/// );
/// ```
#[derive(Debug)]
pub struct CatalogSnapshot {
    db: AnnotatedDatabase,
    params: MechanismParams,
    version: u64,
}

impl CatalogSnapshot {
    /// Freezes `db` and `params` into an immutable snapshot (version 0).
    pub fn new(db: AnnotatedDatabase, params: MechanismParams) -> Self {
        CatalogSnapshot {
            db,
            params,
            version: 0,
        }
    }

    /// [`CatalogSnapshot::new`], already wrapped in the [`Arc`] every caller
    /// wants.
    pub fn shared(db: AnnotatedDatabase, params: MechanismParams) -> Arc<Self> {
        Arc::new(Self::new(db, params))
    }

    /// Forks a **new** snapshot with `rows` appended to `table`, sharing
    /// every untouched table (content *and* epoch stamp) with this one
    /// copy-on-write. This snapshot is unchanged and stays fully usable;
    /// the fork's [`version`](Self::version) is this one's plus one.
    ///
    /// The fork keeps the database `instance_id`, so cache entries for
    /// queries that do not scan `table` remain valid — and keep their exact
    /// keys — across the swap. All-or-nothing: on error nothing is forked.
    pub fn with_delta<I>(&self, table: &str, rows: I) -> Result<Arc<Self>, SqlError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let db = self.db.fork_with_delta(table, rows)?;
        Ok(Arc::new(CatalogSnapshot {
            db,
            params: self.params,
            version: self.version + 1,
        }))
    }

    /// Which link of the snapshot chain this is: 0 for a freshly built
    /// snapshot, parent + 1 for every [`with_delta`](Self::with_delta)
    /// fork. Replay logs record it so a replayed release runs against the
    /// same database state it was admitted under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The annotated database (read-only — the snapshot never mutates, so
    /// its epoch stamps and cache fingerprints are stable for life).
    pub fn database(&self) -> &AnnotatedDatabase {
        &self.db
    }

    /// The default mechanism parameters sessions over this snapshot release
    /// with.
    pub fn params(&self) -> MechanismParams {
        self.params
    }

    /// Parses, validates and lowers `sql` against the snapshot's catalog
    /// without touching the data, timing both steps on `clock` — the one
    /// step from SQL text to a plan. Usable from any thread, concurrently.
    pub fn prepare(&self, sql: &str, clock: &dyn Clock) -> Result<Prepared, SqlError> {
        let started = clock.now_nanos();
        let query = parse(sql)?;
        let parsed = clock.now_nanos();
        let plan = plan_query(&self.db, &query)?;
        Ok(Prepared {
            plan,
            explain: query.explain,
            parse_nanos: parsed.saturating_sub(started),
            plan_nanos: clock.now_nanos().saturating_sub(parsed),
        })
    }

    /// [`CatalogSnapshot::prepare`] without timings: just the plan.
    pub fn plan(&self, sql: &str) -> Result<AnyPlan, SqlError> {
        Ok(self.prepare(sql, &ManualClock::new())?.plan)
    }
}
