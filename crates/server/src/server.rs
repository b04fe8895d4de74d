//! The long-lived multi-tenant server around the per-request [`SqlSession`].
//!
//! # Shared vs per-request state
//!
//! One [`DpServer`] owns exactly the state that is sound to share across
//! tenants, and nothing more:
//!
//! - a versioned chain of immutable [`CatalogSnapshot`]s. The *current*
//!   snapshot is what new queries capture; [`DpServer::ingest`] forks it
//!   with a delta and atomically swaps the new version in, while in-flight
//!   sessions keep the `Arc` they captured at admission. Every version
//!   ever served stays in a history so replay can re-execute each query
//!   over exactly the data it originally saw;
//! - one [`SequenceCache`] shared by **all** tenants. Cache keys are
//!   canonical plan fingerprints that bake in the database's instance
//!   identity and the per-table epochs of exactly the scanned tables, so a
//!   hit can only ever return a table the same data would have produced —
//!   cross-tenant sharing leaks nothing a tenant could not compute from
//!   its own admitted queries, and an ingest invalidates only the plans
//!   that scanned the mutated table;
//! - per-tenant ε ledgers and admission state in a [`TenantRegistry`];
//! - a server-wide [`AdmissionGate`] that sheds load *before* any budget
//!   is touched.
//!
//! Each admitted query then gets a throwaway [`SqlSession`] seeded from
//! `(server seed, tenant name, per-tenant admission index)` — see
//! [`crate::seed`] — so releases are a pure function of the admitted
//! per-tenant workload, never of the thread schedule.
//!
//! # What refusals cost
//!
//! Nothing. Every refusal path — gate shed, per-tenant in-flight cap,
//! budget refusal, unknown tenant — returns before any ε is reserved, and
//! a query that fails *after* admission has its reservation refunded in
//! full (a failed query releases nothing). Tests assert both directions:
//! debits sum exactly to admissions, and refusals leave `remaining_budget`
//! bit-unchanged.

use crate::error::ServerError;
use crate::seed::derive_query_seed;
use crate::tenant::{AdmittedQuery, Reservation, TenantRegistry};
use rmdp_core::SequenceCache;
use rmdp_krelation::tuple::Tuple;
use rmdp_noise::{GroupBudgetPolicy, PrivacyBudget};
use rmdp_observe::{Clock, MetricsRegistry, MonotonicClock, LATENCY_BUCKETS_MS};
use rmdp_runtime::{AdmissionConfig, AdmissionGate};
use rmdp_sql::{CatalogSnapshot, Prepared, QueryOutput, SqlError, SqlSession};
use std::sync::{Arc, PoisonError, RwLock};

/// Knobs for one [`DpServer`]. See `docs/TUNING.md` for how each one trades
/// throughput against refusal rate.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The server-wide admission gate: concurrent execution slots and the
    /// bounded wait queue in front of them.
    pub admission: AdmissionConfig,
    /// Per-tenant in-flight cap: one tenant can hold at most this many
    /// execution slots at once, so a chatty tenant cannot starve the rest.
    pub per_tenant_in_flight: usize,
    /// Capacity of the shared cross-tenant sequence cache (frozen LP
    /// tables keyed by canonical plan fingerprint).
    pub cache_capacity: usize,
    /// Root of the server's deterministic seed schedule.
    pub seed: u64,
    /// How grouped (`GROUP BY`) reports split budget across their groups.
    pub group_policy: GroupBudgetPolicy,
}

impl Default for ServerConfig {
    /// Eight execution slots with an equal-depth wait queue, four in-flight
    /// requests per tenant, a 256-entry shared cache.
    fn default() -> Self {
        ServerConfig {
            admission: AdmissionConfig::with_in_flight(8),
            per_tenant_in_flight: 4,
            cache_capacity: 256,
            seed: 0x5EED,
            group_policy: GroupBudgetPolicy::default(),
        }
    }
}

/// Receipt for one applied ingest: the snapshot version it produced, how
/// many rows it appended, and how many cache entries went stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Version of the snapshot the delta produced (parent version + 1).
    pub version: u64,
    /// Number of tuples appended to the target table.
    pub rows: u64,
    /// Entries the stale sweep removed from the shared cache — exactly the
    /// cached plans that scanned the mutated table. Untouched-table entries
    /// survive and keep hitting.
    pub swept: u64,
}

/// A long-lived, thread-safe multi-tenant DP query server.
///
/// All methods take `&self`; one `Arc<DpServer>` is shared by every
/// connection handler and test thread. See the [module docs](self) for the
/// shared-vs-per-request split and the refusal semantics.
pub struct DpServer {
    /// The current snapshot, swapped atomically by [`DpServer::ingest`].
    /// In-flight sessions hold their own `Arc` clone, so a swap never
    /// changes what an already-admitted query sees.
    snapshot: RwLock<Arc<CatalogSnapshot>>,
    /// Every snapshot version ever served, in version order. Replay looks
    /// up each admitted query's recorded version here so re-execution sees
    /// the same data the live run did, whatever ingests happened since.
    history: RwLock<Vec<Arc<CatalogSnapshot>>>,
    cache: Arc<SequenceCache>,
    gate: AdmissionGate,
    tenants: TenantRegistry,
    metrics: Arc<MetricsRegistry>,
    clock: MonotonicClock,
    config: ServerConfig,
}

impl DpServer {
    /// A server over `snapshot` with the given `config`. Tenants start
    /// empty; register them with [`DpServer::register_tenant`].
    pub fn new(snapshot: Arc<CatalogSnapshot>, config: ServerConfig) -> Self {
        DpServer {
            snapshot: RwLock::new(Arc::clone(&snapshot)),
            history: RwLock::new(vec![snapshot]),
            cache: Arc::new(SequenceCache::new(config.cache_capacity)),
            gate: AdmissionGate::new(config.admission),
            tenants: TenantRegistry::new(),
            metrics: Arc::new(MetricsRegistry::new()),
            clock: MonotonicClock::new(),
            config,
        }
    }

    /// Registers `tenant` with a lifetime ε budget. Returns `false` (and
    /// changes nothing) if the tenant already exists — budgets can never be
    /// reset by re-registering.
    pub fn register_tenant(&self, tenant: &str, total: PrivacyBudget) -> bool {
        self.tenants.register(tenant, total, self.config.seed)
    }

    /// The server's configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// The current catalog snapshot. Owned, not borrowed: ingests swap the
    /// server's snapshot, and a caller holding this `Arc` keeps a
    /// consistent view across the swap.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        // Poisoning is recovered, not propagated: the guarded value is an
        // `Arc` swapped atomically under the write lock, so it is consistent
        // even if some thread panicked while holding the guard — and a panic
        // must never cascade into refusing every later request.
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The snapshot with exactly this version, if the server ever served
    /// it. Version 0 is the construction snapshot; each ingest appends one.
    pub fn snapshot_at(&self, version: u64) -> Option<Arc<CatalogSnapshot>> {
        self.history
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|s| s.version() == version)
            .cloned()
    }

    /// The server's metrics registry (admissions, sheds, latencies).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Statistics of the shared cross-tenant sequence cache.
    pub fn cache_stats(&self) -> rmdp_core::CacheStats {
        self.cache.stats()
    }

    /// All registered tenant names, in deterministic order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.names()
    }

    /// The tenant's remaining budget, or `None` for unknown tenants.
    pub fn remaining_budget(&self, tenant: &str) -> Option<PrivacyBudget> {
        self.tenants.remaining(tenant)
    }

    /// The tenant's spent budget, or `None` for unknown tenants.
    pub fn spent_budget(&self, tenant: &str) -> Option<PrivacyBudget> {
        self.tenants.spent(tenant)
    }

    /// The tenant's admitted queries in admission order, or `None` for
    /// unknown tenants. This is the replay log: re-executing it serially
    /// through [`DpServer::replay`] reproduces the tenant's releases
    /// bit-identically.
    pub fn query_log(&self, tenant: &str) -> Option<Vec<AdmittedQuery>> {
        self.tenants.query_log(tenant)
    }

    /// What one query would cost this server, without running it: its
    /// plan's [`AnyPlan::cost`](rmdp_sql::AnyPlan::cost). Scalar releases
    /// cost `ε₁ + ε₂`; grouped reports are priced by the configured
    /// [`GroupBudgetPolicy`]. An `EXPLAIN ANALYZE` prefix does not change
    /// the price — tracing performs the release it traces.
    pub fn price(&self, sql: &str) -> Result<PrivacyBudget, SqlError> {
        let snapshot = self.snapshot();
        let prepared = snapshot.prepare(sql, &self.clock)?;
        Ok(self.cost(&snapshot, &prepared))
    }

    /// The price of a prepared request over `snapshot`.
    fn cost(&self, snapshot: &CatalogSnapshot, prepared: &Prepared) -> PrivacyBudget {
        prepared
            .plan
            .cost(&snapshot.params(), self.config.group_policy)
    }

    /// Runs one query for `tenant` through the full server path: gate →
    /// prepare and price → atomic per-tenant reservation → throwaway seeded
    /// session → release of the prepared plan (or refund). See the
    /// [module docs](self) for what each refusal costs (nothing).
    pub fn query(&self, tenant: &str, sql: &str) -> Result<QueryOutput, ServerError> {
        let started = self.clock.now_nanos();
        let permit = match self.gate.enter() {
            Ok(p) => p,
            Err(e) => {
                self.metrics.counter_add("server.shed.overloaded", 1);
                return Err(e.into());
            }
        };
        // Pin the snapshot for this query's whole lifetime. Ingests swap
        // the server's current snapshot, but this query prepares, reserves
        // and executes against the one Arc it captured here — and records
        // its version in the replay log.
        let snapshot = self.snapshot();
        // Prepare once: the plan priced here is the plan released below,
        // and a malformed query is refused before the ledger is touched.
        let prepared = snapshot.prepare(sql, &self.clock).map_err(|e| {
            self.metrics.counter_add("server.errors.sql", 1);
            ServerError::Sql(e)
        })?;
        let cost = self.cost(&snapshot, &prepared);
        let reservation = self
            .tenants
            .reserve(
                tenant,
                sql,
                cost,
                self.config.per_tenant_in_flight,
                snapshot.version(),
            )
            .ok_or_else(|| {
                self.metrics.counter_add("server.refused.unknown_tenant", 1);
                ServerError::UnknownTenant(tenant.to_owned())
            })?;
        let (index, tenant_seed) = match reservation {
            Reservation::Admitted { index, tenant_seed } => (index, tenant_seed),
            Reservation::Busy { in_flight } => {
                self.metrics.counter_add("server.shed.tenant_busy", 1);
                return Err(ServerError::TenantBusy {
                    tenant: tenant.to_owned(),
                    in_flight,
                });
            }
            Reservation::OverBudget(e) => {
                self.metrics.counter_add("server.refused.budget", 1);
                return Err(ServerError::BudgetExhausted(e));
            }
            Reservation::LogFull => {
                self.metrics.counter_add("server.refused.log_full", 1);
                return Err(ServerError::LogFull(tenant.to_owned()));
            }
        };

        let mut session = self.session_for(snapshot, derive_query_seed(tenant_seed, index));
        let result = session.release_prepared(&prepared);
        self.tenants.finish(tenant, cost, result.is_err());
        self.absorb_session(&session);
        drop(permit);

        let elapsed_ms = (self.clock.now_nanos() - started) as f64 / 1e6;
        self.metrics
            .histogram_observe("server.latency_ms", &LATENCY_BUCKETS_MS, elapsed_ms);
        match result {
            Ok(output) => {
                self.metrics.counter_add("server.queries", 1);
                self.metrics
                    .counter_add(&format!("tenant.{tenant}.queries"), 1);
                Ok(output)
            }
            Err(e) => {
                self.metrics.counter_add("server.errors.sql", 1);
                Err(ServerError::Sql(e))
            }
        }
    }

    /// Serially re-executes the tenant's admitted query log against fresh
    /// **cache-free** sessions, reproducing every release bit-identically —
    /// including the failures. Cold solves prove the shared cache never
    /// changed an answer; the seed schedule proves the thread schedule
    /// never did. `None` for unknown tenants.
    ///
    /// Replay draws no budget and records no metrics: it recomputes what
    /// was already paid for. Returns `None` for unknown tenants, or if a
    /// logged snapshot version is missing from the history (the log records
    /// only served versions and the history never evicts, so that would
    /// mean corrupted state — replay refuses rather than panics).
    pub fn replay(&self, tenant: &str) -> Option<Vec<Result<QueryOutput, SqlError>>> {
        let log = self.tenants.query_log(tenant)?;
        let tenant_seed = self.tenants.tenant_seed(tenant)?;
        let mut outputs = Vec::with_capacity(log.len());
        for q in &log {
            let seed = derive_query_seed(tenant_seed, q.index);
            let snapshot = self.snapshot_at(q.snapshot_version)?;
            let mut session =
                SqlSession::over(snapshot, seed).with_group_policy(self.config.group_policy);
            outputs.push(session.query(&q.sql));
        }
        Some(outputs)
    }

    /// Appends `rows` to `table` and atomically swaps in the resulting
    /// snapshot, while already-admitted queries keep serving from theirs.
    ///
    /// The whole operation — fork the current snapshot with the delta,
    /// publish it, append it to the version history, sweep the shared
    /// cache's now-stale entries — happens under the snapshot write lock,
    /// so concurrent ingests serialize and none is lost. Queries never take
    /// that lock for longer than one `Arc` clone. An ingest occupies one
    /// admission-gate slot like any query, so a flood of ingests sheds
    /// instead of starving queries; a rejected delta (unknown table or
    /// column mismatch) changes nothing.
    ///
    /// Only plans that scan `table` lose their cache entries — and their
    /// solved tables are parked as refresh bases, so re-releasing a plan
    /// whose query the delta left unchanged republishes without LP work.
    /// Untouched tables' plan fingerprints are byte-identical across the
    /// swap and keep hitting.
    pub fn ingest(&self, table: &str, rows: Vec<Tuple>) -> Result<IngestReport, ServerError> {
        let permit = match self.gate.enter() {
            Ok(p) => p,
            Err(e) => {
                self.metrics.counter_add("server.shed.overloaded", 1);
                return Err(e.into());
            }
        };
        let row_count = rows.len() as u64;
        let report = {
            let mut current = self
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let next = current.with_delta(table, rows).map_err(|e| {
                self.metrics.counter_add("server.errors.ingest", 1);
                ServerError::Sql(e)
            })?;
            let swept =
                self.cache
                    .purge_stale(&next.database().current_epoch_stamps()) as u64;
            self.history
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&next));
            let version = next.version();
            *current = next;
            IngestReport {
                version,
                rows: row_count,
                swept,
            }
        };
        drop(permit);
        self.metrics.counter_add("server.ingests", 1);
        self.metrics.counter_add("server.ingest.rows", report.rows);
        self.metrics
            .counter_add("server.ingest.swept", report.swept);
        Ok(report)
    }

    /// Stops admitting new work. Queued requests are woken and refused
    /// with [`ServerError::ShuttingDown`]; in-flight queries finish.
    pub fn shutdown(&self) {
        self.gate.shutdown();
    }

    /// Blocks until every admitted and queued request has left the gate.
    /// Call after [`DpServer::shutdown`] for a clean drain.
    pub fn drain(&self) {
        self.gate.drain();
    }

    /// A throwaway per-request session over the given snapshot and the
    /// shared cache.
    fn session_for(&self, snapshot: Arc<CatalogSnapshot>, seed: u64) -> SqlSession {
        SqlSession::over(snapshot, seed)
            .with_group_policy(self.config.group_policy)
            .with_sequence_cache(Arc::clone(&self.cache))
    }

    /// Folds one finished session's work counters into the server metrics.
    /// Cache totals come from the shared cache itself (monotone, so
    /// `counter_record_total` keeps the latest snapshot).
    fn absorb_session(&self, session: &SqlSession) {
        let lp = session.lp_totals();
        self.metrics
            .counter_add("server.lp.solves", (lp.h_solves + lp.g_solves) as u64);
        self.metrics
            .counter_add("server.lp.pivots", lp.total_pivots as u64);
        let cache = self.cache.stats();
        self.metrics
            .counter_record_total("server.cache.hits", cache.hits);
        self.metrics
            .counter_record_total("server.cache.misses", cache.misses);
    }
}
