//! The public entry point: a SQL session over one annotated database.

use crate::error::SqlError;
use crate::exec::{execute, execute_grouped};
use crate::plan::AnyPlan;
use crate::release::{fan_out, release_any, ReleaseOutcome};
use crate::snapshot::{CatalogSnapshot, Prepared};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rmdp_core::{CacheStats, LpWorkStats, MechanismParams, RefreshTier, Release, SequenceCache};
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::fingerprint::Fingerprint;
use rmdp_krelation::tuple::Value;
use rmdp_krelation::KRelation;
use rmdp_noise::{BudgetAccountant, BudgetExhausted, GroupBudgetPolicy, PrivacyBudget};
use rmdp_observe::{
    CacheOutcome, Clock, GroupSplit, MetricsRegistry, MonotonicClock, NoiseScales, NoopRecorder,
    Recorder, ReleaseTrace, SpanRecorder, Stage,
};
use std::sync::Arc;

/// One group of a [`GroupedRelease`]: the (public) key and its release.
#[derive(Clone, Debug)]
pub struct GroupRelease {
    /// The group's key value, from the declared public domain.
    pub key: Value,
    /// The differentially private release of this group's aggregate.
    pub release: Release,
}

/// A grouped (`GROUP BY`) report: one independent release per key of the
/// declared public domain, plus the composition accounting of the whole
/// report.
///
/// Groups appear in **domain declaration order** and always cover the whole
/// declared domain — keys absent from the data release a noised zero, so the
/// set of released keys reveals nothing. The per-group noise seed derives
/// from the key value (not its position), which makes per-key releases
/// invariant under re-declaring the domain in a different order.
#[derive(Clone, Debug)]
pub struct GroupedRelease {
    /// The grouping key column, as written in the query.
    pub key_column: String,
    /// One release per declared key, in domain order.
    pub groups: Vec<GroupRelease>,
    /// The ε each individual group's release spent (`ε/k` under the default
    /// [`GroupBudgetPolicy::SplitEvenly`], the full per-release `ε` under
    /// [`GroupBudgetPolicy::PerGroup`]).
    pub per_group_epsilon: f64,
    /// The total ε the report debited from the session budget under
    /// sequential composition across groups.
    pub epsilon_spent: f64,
    /// The policy that priced this report.
    pub policy: GroupBudgetPolicy,
}

impl GroupedRelease {
    /// Number of groups (= declared domain size).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the report has no groups (never true for a released report;
    /// plans over empty domains are refused at planning time).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The release for `key`, if it is part of the declared domain.
    pub fn get(&self, key: &Value) -> Option<&Release> {
        self.groups
            .iter()
            .find(|g| &g.key == key)
            .map(|g| &g.release)
    }
}

/// What [`SqlSession::query`] returns: a scalar release for ordinary
/// aggregates, a grouped report for `GROUP BY` queries.
#[derive(Clone, Debug)]
pub enum QueryOutput {
    /// A single aggregate release.
    Scalar(Release),
    /// A per-group report over a declared public key domain.
    Grouped(GroupedRelease),
    /// An `EXPLAIN ANALYZE` query: the release it performed (budget was
    /// spent normally) plus the [`ReleaseTrace`] of how it was produced.
    Explained(Box<TracedOutput>),
}

impl QueryOutput {
    /// The scalar release, if this is one (an `EXPLAIN ANALYZE` of a scalar
    /// query unwraps transparently).
    pub fn scalar(self) -> Option<Release> {
        match self {
            QueryOutput::Scalar(r) => Some(r),
            QueryOutput::Explained(t) => t.output.scalar(),
            QueryOutput::Grouped(_) => None,
        }
    }

    /// The grouped report, if this is one (an `EXPLAIN ANALYZE` of a grouped
    /// query unwraps transparently).
    pub fn grouped(self) -> Option<GroupedRelease> {
        match self {
            QueryOutput::Scalar(_) => None,
            QueryOutput::Explained(t) => t.output.grouped(),
            QueryOutput::Grouped(g) => Some(g),
        }
    }

    /// The traced output, if this query carried an `EXPLAIN ANALYZE` prefix.
    pub fn explained(self) -> Option<TracedOutput> {
        match self {
            QueryOutput::Explained(t) => Some(*t),
            QueryOutput::Scalar(_) | QueryOutput::Grouped(_) => None,
        }
    }
}

/// A query output together with the [`ReleaseTrace`] describing how it was
/// produced: what [`SqlSession::query_traced`] returns, and what an
/// `EXPLAIN ANALYZE` query wraps in [`QueryOutput::Explained`].
///
/// The output inside is a real release — it ran end to end and debited the
/// budget like any other query; the trace is a read-only account of that
/// run (stage timings, cache outcome, LP work, noise scales, ε spent).
#[derive(Clone, Debug)]
pub struct TracedOutput {
    /// The released output (never [`QueryOutput::Explained`] itself).
    pub output: QueryOutput,
    /// The trace of the release that produced `output`.
    pub trace: ReleaseTrace,
}

/// A SQL session: an annotated database plus mechanism parameters and a
/// seeded noise source.
///
/// One scalar [`SqlSession::query`] spends `ε₁ + ε₂` of privacy budget (the
/// split lives in the [`MechanismParams`]); a grouped report spends what its
/// [`GroupBudgetPolicy`] prices it at. By default the session does not
/// meter a total budget across queries; [`SqlSession::with_budget`] attaches
/// a [`BudgetAccountant`] that meters every release under sequential
/// composition. Admission is checked **before** any work (an over-budget
/// query or batch is refused consuming nothing) and the debit is recorded
/// only **after** the release succeeds end to end — a query that fails
/// between admission and the noise draw (an LP failure, a bad aggregate)
/// released nothing and therefore consumes no ε.
///
/// [`SqlSession::query_batch`] releases several independent queries —
/// scalar or grouped — in one call, running them concurrently on the
/// worker pool when the params' [`Parallelism`](rmdp_core::Parallelism)
/// knob allows; results are bit-identical to running the batch serially.
/// Every entry point admits, releases and debits through one private
/// pipeline, so all of them meter budget and book statistics alike.
///
/// ## Cross-query sequence caching
///
/// [`SqlSession::with_sequence_cache`] attaches a shared
/// [`SequenceCache`]: every query is keyed by its canonical plan
/// fingerprint ([`crate::fingerprint`] — alias names, join order and
/// conjunct order normalised away, database mutation epoch and
/// sensitivity-relevant params hashed in), and a repeat of a structurally
/// identical query serves its `H`/`G` sequences from the cache, skipping
/// plan execution and all `2(|P_named|+1)` sequence LPs. Per-query noise is
/// still drawn fresh from the session RNG, so caching changes **only**
/// wall-clock time: under a fixed seed the released values are
/// bit-identical with and without the cache.
///
/// ## Grouped reports
///
/// `SELECT key, COUNT(*) … GROUP BY key` releases one noised value per key
/// of the key column's **declared public domain**
/// ([`AnnotatedDatabase::declare_public_domain`]); grouping on an
/// undeclared column is a planner error, since a data-derived key set would
/// leak which keys occur. The whole report is admitted atomically against
/// the budget (priced by the [`GroupBudgetPolicy`]), and the `k` per-group
/// sequence computations fan out across the worker pool and the sequence
/// cache under the same determinism discipline as batches.
///
/// ```
/// use rmdp_core::MechanismParams;
/// use rmdp_krelation::annotate::AnnotatedDatabase;
/// use rmdp_krelation::tuple::{Tuple, Value};
/// use rmdp_krelation::{Expr, KRelation};
/// use rmdp_sql::SqlSession;
///
/// let mut db = AnnotatedDatabase::new();
/// let mut visits = KRelation::new(["person", "place"]);
/// for (person, place) in [("ada", "museum"), ("bo", "museum"), ("bo", "cafe")] {
///     let p = db.intern(person);
///     visits.insert(
///         Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
///         Expr::Var(p),
///     );
/// }
/// db.insert_table("visits", visits);
/// db.declare_public_domain(
///     "visits",
///     "place",
///     [Value::str("museum"), Value::str("cafe"), Value::str("park")],
/// );
///
/// let mut session = SqlSession::new(db, MechanismParams::paper_edge_privacy(1.0));
/// let release = session
///     .query_scalar("SELECT COUNT(*) FROM visits WHERE place = 'museum'")
///     .unwrap();
/// assert_eq!(release.true_answer, 2.0);
/// assert!(release.noisy_answer.is_finite());
///
/// let report = session
///     .query_grouped("SELECT place, COUNT(*) FROM visits GROUP BY place")
///     .unwrap();
/// assert_eq!(report.len(), 3); // every declared key, present in the data or not
/// assert_eq!(report.get(&Value::str("museum")).unwrap().true_answer, 2.0);
/// assert_eq!(report.get(&Value::str("park")).unwrap().true_answer, 0.0);
/// ```
pub struct SqlSession {
    snapshot: Arc<CatalogSnapshot>,
    params: MechanismParams,
    rng: StdRng,
    accountant: Option<BudgetAccountant>,
    cache: Option<Arc<SequenceCache>>,
    group_policy: GroupBudgetPolicy,
    metrics: Option<Arc<MetricsRegistry>>,
    clock: Arc<dyn Clock + Send + Sync>,
    lp_totals: LpWorkStats,
}

impl SqlSession {
    /// Opens a session with a fixed default noise seed (releases are
    /// deterministic given the database and query sequence; use
    /// [`SqlSession::with_seed`] to vary it).
    pub fn new(db: AnnotatedDatabase, params: MechanismParams) -> Self {
        Self::with_seed(db, params, 0x5EED)
    }

    /// Opens a session whose noise stream derives from `seed`.
    pub fn with_seed(db: AnnotatedDatabase, params: MechanismParams, seed: u64) -> Self {
        Self::over(CatalogSnapshot::shared(db, params), seed)
    }

    /// Opens a session **over a shared [`CatalogSnapshot`]**: the
    /// multi-session form of [`SqlSession::with_seed`]. The snapshot (the
    /// immutable half — database, planner, default params) is shared by
    /// reference; everything mutable (the noise RNG seeded from `seed`, the
    /// optional budget accountant and cache handle, LP-work totals) is
    /// private to this session. Minting a session per request this way is
    /// cheap — two `Arc` clones and an RNG seed — which is how `rmdp-server`
    /// serves many concurrent tenants over one snapshot.
    pub fn over(snapshot: Arc<CatalogSnapshot>, seed: u64) -> Self {
        let params = snapshot.params();
        SqlSession {
            snapshot,
            params,
            // lint:allow(rng-confinement): the sanctioned root — every draw in the session descends from this caller-supplied, replay-logged seed
            rng: StdRng::seed_from_u64(seed),
            accountant: None,
            cache: None,
            group_policy: GroupBudgetPolicy::default(),
            metrics: None,
            clock: Arc::new(MonotonicClock::new()),
            lp_totals: LpWorkStats::default(),
        }
    }

    /// The shared immutable half of this session.
    pub fn snapshot(&self) -> &Arc<CatalogSnapshot> {
        &self.snapshot
    }

    /// Attaches a [`MetricsRegistry`] the session reports into: release and
    /// LP-work counters, sequence-cache counters and hit rate, and the
    /// budget series (`budget.admitted/debited/refused` with their ε sums).
    /// The registry may be shared across sessions (and with
    /// [`rmdp_runtime::install_pool_metrics`]); recording never touches the
    /// noise RNG, so metered releases stay bit-identical to unmetered ones.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Replaces the clock behind [`SqlSession::query_traced`] stage timings.
    /// The default is the process monotonic clock; tests inject a
    /// [`ManualClock`](rmdp_observe::ManualClock) to make traces
    /// deterministic. The clock is read only on traced paths and only
    /// between releases' RNG draws — never by the mechanism itself.
    pub fn with_clock(mut self, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        self.clock = clock;
        self
    }

    /// Cumulative LP work across every release this session performed
    /// (scalar queries, grouped reports and batches alike), folded in input
    /// order so the totals are identical for every
    /// [`Parallelism`](rmdp_core::Parallelism).
    pub fn lp_totals(&self) -> LpWorkStats {
        self.lp_totals
    }

    /// Sets how grouped (`GROUP BY`) reports split privacy budget across
    /// their `k` groups. The default [`GroupBudgetPolicy::SplitEvenly`]
    /// prices a whole report like one scalar release (each group gets
    /// `ε/k`); [`GroupBudgetPolicy::PerGroup`] gives every group the full
    /// per-release `ε` and prices the report at `k·ε`.
    pub fn with_group_policy(mut self, policy: GroupBudgetPolicy) -> Self {
        self.group_policy = policy;
        self
    }

    /// The active grouped-report budget policy.
    pub fn group_policy(&self) -> GroupBudgetPolicy {
        self.group_policy
    }

    /// Attaches a (possibly shared) cross-query sequence cache. Queries that
    /// compile to structurally identical plans over the same database state
    /// reuse each other's completed `H`/`G` sequences instead of re-solving
    /// the sequence LPs; releases stay bit-identical to the uncached session
    /// under the same seed. The cache may be shared across sessions and
    /// threads — keys embed each database's identity and mutation epoch, so
    /// sessions over different (or since-mutated) databases can never read
    /// each other's entries.
    pub fn with_sequence_cache(mut self, cache: Arc<SequenceCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Convenience: attaches a fresh, private sequence cache bounded to
    /// `capacity` frozen tables.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.with_sequence_cache(SequenceCache::shared(capacity))
    }

    /// The attached sequence cache, if any.
    pub fn sequence_cache(&self) -> Option<&Arc<SequenceCache>> {
        self.cache.as_ref()
    }

    /// Counters of the attached sequence cache (`None` when uncached).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Caps the session's total privacy spend. Every successful release
    /// debits `ε₁ + ε₂` from the accountant (sequential composition). A
    /// query or batch that would overdraw is refused with
    /// [`SqlError::BudgetExhausted`] **before** any work happens, and a
    /// query that fails anywhere between admission and the noise draw
    /// released nothing — so in both cases nothing is consumed.
    pub fn with_budget(mut self, total: PrivacyBudget) -> Self {
        self.accountant = Some(BudgetAccountant::new(total));
        self
    }

    /// The underlying database.
    pub fn database(&self) -> &AnnotatedDatabase {
        self.snapshot.database()
    }

    /// The mechanism parameters used by [`SqlSession::query`].
    pub fn params(&self) -> &MechanismParams {
        &self.params
    }

    /// What is left of the session budget (`None` when the session is
    /// unmetered).
    pub fn remaining_budget(&self) -> Option<PrivacyBudget> {
        self.accountant.as_ref().map(BudgetAccountant::remaining)
    }

    /// Admission check: refuses `cost` (consuming nothing) when the metered
    /// budget cannot cover it.
    fn ensure_affordable(&self, cost: PrivacyBudget) -> Result<(), SqlError> {
        match &self.accountant {
            Some(acc) if !acc.can_afford(cost) => {
                if let Some(m) = &self.metrics {
                    m.counter_add("budget.refused", 1);
                    m.sum_add("budget.refused_epsilon", cost.epsilon);
                }
                Err(SqlError::BudgetExhausted(BudgetExhausted {
                    requested: cost,
                    remaining: acc.remaining(),
                }))
            }
            _ => {
                if let Some(m) = &self.metrics {
                    m.counter_add("budget.admitted", 1);
                    m.sum_add("budget.admitted_epsilon", cost.epsilon);
                }
                Ok(())
            }
        }
    }

    /// Records `cost` after a successful release. Admission was checked on
    /// this same `&mut self` call path, so the debit cannot fail; the
    /// `Result` guards the accounting invariant anyway.
    fn debit(&mut self, cost: PrivacyBudget) -> Result<(), SqlError> {
        if let Some(acc) = &mut self.accountant {
            acc.try_spend(cost)?;
        }
        if let Some(m) = &self.metrics {
            m.counter_add("budget.debited", 1);
            m.sum_add("budget.debited_epsilon", cost.epsilon);
        }
        Ok(())
    }

    /// Parses, validates and lowers `sql` without touching the data — the
    /// `EXPLAIN` of this frontend. The plan's `Display` renders the algebra
    /// pipeline (with a `γ` header for grouped reports).
    pub fn plan(&self, sql: &str) -> Result<AnyPlan, SqlError> {
        self.snapshot.plan(sql)
    }

    /// Evaluates a scalar `sql` **without differential privacy**, returning
    /// the annotated output relation. Intended for tests and debugging: the
    /// result reveals raw data. Grouped queries go through
    /// [`SqlSession::evaluate_grouped`].
    pub fn evaluate(&self, sql: &str) -> Result<KRelation, SqlError> {
        match self.plan(sql)? {
            AnyPlan::Scalar(plan) => execute(self.snapshot.database(), &plan),
            AnyPlan::Grouped(g) => Err(SqlError::QueryShape {
                message: "evaluate returns one relation; evaluate grouped queries through \
                          `evaluate_grouped`"
                    .to_owned(),
                span: g.key_span,
            }),
        }
    }

    /// Evaluates a grouped `sql` **without differential privacy**, returning
    /// one annotated relation per declared key, in domain order. Like
    /// [`SqlSession::evaluate`], this reveals raw data — tests and debugging
    /// only.
    pub fn evaluate_grouped(&self, sql: &str) -> Result<Vec<(Value, KRelation)>, SqlError> {
        match self.plan(sql)? {
            AnyPlan::Grouped(g) => execute_grouped(self.snapshot.database(), &g),
            AnyPlan::Scalar(p) => Err(SqlError::QueryShape {
                message: "evaluate_grouped needs a `GROUP BY` query; use `evaluate` for \
                          scalar aggregates"
                    .to_owned(),
                span: p.aggregate_span,
            }),
        }
    }

    /// Runs `sql` end-to-end and releases it through the recursive mechanism
    /// (efficient LP instantiation, paper Sec. 5): a scalar aggregate yields
    /// [`QueryOutput::Scalar`], a `GROUP BY` over a declared public domain
    /// yields [`QueryOutput::Grouped`] — one independent release per key.
    ///
    /// The participant universe is the database's full universe — people
    /// interned but absent from every table still count toward `|P|`, as in
    /// node privacy where isolated nodes are still protected.
    ///
    /// Budget accounting is **admission-checked, debit-on-success**: the
    /// query (or the whole grouped report, priced by the
    /// [`GroupBudgetPolicy`]) is refused up front, consuming nothing, when
    /// the budget cannot cover it, and the cost is recorded only once the
    /// release has succeeded end to end. Every failure path between the
    /// admission check and the noise draw — plan execution, weight
    /// validation, the sequence LPs, parameter validation inside the
    /// mechanism — releases nothing, so none of them consume ε. (Callers
    /// that treat *error messages* as observable output should still account
    /// for them out of band; the accountant meters released answers, and a
    /// failed query releases none.)
    ///
    /// The text is parsed and planned once ([`CatalogSnapshot::prepare`]);
    /// an `EXPLAIN ANALYZE` prefix then releases through the traced path
    /// and yields [`QueryOutput::Explained`].
    pub fn query(&mut self, sql: &str) -> Result<QueryOutput, SqlError> {
        let prepared = self.prepare(sql)?;
        self.release_prepared(&prepared)
    }

    /// Releases a request already turned into a plan by
    /// [`CatalogSnapshot::prepare`] — the tail of [`SqlSession::query`],
    /// for callers that priced the plan before releasing it (a server
    /// reserves budget in between). An `EXPLAIN ANALYZE` request releases
    /// through the traced path and returns [`QueryOutput::Explained`].
    pub fn release_prepared(&mut self, prepared: &Prepared) -> Result<QueryOutput, SqlError> {
        if prepared.explain {
            return Ok(QueryOutput::Explained(Box::new(
                self.release_traced(prepared)?,
            )));
        }
        Ok(self.release_one(&prepared.plan, &mut NoopRecorder)?.0)
    }

    /// Runs `sql` like [`SqlSession::query`] and returns the output together
    /// with its [`ReleaseTrace`] — the programmatic form of
    /// `EXPLAIN ANALYZE` (which is sugar for this method).
    ///
    /// The release is **bit-identical** to what [`SqlSession::query`] would
    /// have produced at this point of the session: the trace recorder reads
    /// only the session clock, never the noise RNG, and the budget is
    /// admitted and debited exactly as usual. Scalar traces time all seven
    /// pipeline stages individually (parse → plan → fingerprint → cache
    /// lookup → sequence solves → noise draws → budget accounting); a
    /// grouped report's parallel fan-out is booked as one
    /// [`Stage::SequenceSolve`] span — splitting stages across concurrent
    /// workers would double-count wall time — with per-group cache hits,
    /// LP work (folded in domain order), noise scales and the ε split
    /// reported in the trace body instead.
    pub fn query_traced(&mut self, sql: &str) -> Result<TracedOutput, SqlError> {
        let prepared = self.prepare(sql)?;
        self.release_traced(&prepared)
    }

    /// The traced release behind [`SqlSession::query_traced`] and
    /// `EXPLAIN ANALYZE`: the Parse and Plan spans are the prepared
    /// durations, and the rest is timed on the session clock.
    fn release_traced(&mut self, prepared: &Prepared) -> Result<TracedOutput, SqlError> {
        let started = self.clock.now_nanos();
        let mut recorder = SpanRecorder::new(Arc::clone(&self.clock));
        recorder.book(Stage::Parse, prepared.parse_nanos);
        recorder.book(Stage::Plan, prepared.plan_nanos);
        let (output, mut trace) = self.release_one(&prepared.plan, &mut recorder)?;
        trace.stages = recorder.spans();
        trace.total_nanos = prepared.parse_nanos
            + prepared.plan_nanos
            + self.clock.now_nanos().saturating_sub(started);
        if let Some(m) = &self.metrics {
            m.counter_add("sql.traced_queries", 1);
            for span in &trace.stages {
                m.sum_add(
                    &format!("stage.{}.seconds", span.stage.name()),
                    span.nanos as f64 / 1e9,
                );
            }
        }
        Ok(TracedOutput { output, trace })
    }

    /// [`SqlSession::query`] for callers that know the query is scalar;
    /// a grouped query is refused with a span-carrying
    /// [`SqlError::QueryShape`] pointing at its `GROUP BY`.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Release, SqlError> {
        match self.prepare(sql)?.plan {
            AnyPlan::Grouped(g) => Err(SqlError::QueryShape {
                message: "this query is grouped; release it through `query` or \
                          `query_grouped`"
                    .to_owned(),
                span: g.key_span,
            }),
            plan => Ok(self
                .release_one(&plan, &mut NoopRecorder)?
                .0
                .scalar()
                .expect("scalar plan")),
        }
    }

    /// [`SqlSession::query`] for callers that know the query is grouped;
    /// a scalar query is refused with a span-carrying
    /// [`SqlError::QueryShape`].
    pub fn query_grouped(&mut self, sql: &str) -> Result<GroupedRelease, SqlError> {
        match self.prepare(sql)?.plan {
            AnyPlan::Scalar(p) => Err(SqlError::QueryShape {
                message: "query_grouped needs a `GROUP BY` query; use `query` or \
                          `query_scalar` for scalar aggregates"
                    .to_owned(),
                span: p.aggregate_span,
            }),
            plan => Ok(self
                .release_one(&plan, &mut NoopRecorder)?
                .0
                .grouped()
                .expect("grouped plan")),
        }
    }

    /// Runs several independent queries — scalar **or** `GROUP BY` — and
    /// releases each through the recursive mechanism, spending each item's
    /// price ([`AnyPlan::cost`]) under sequential composition.
    ///
    /// The whole batch is admitted atomically: every query must plan
    /// successfully and the parameters must validate (both data-independent
    /// checks), and when the session carries a budget the *sum* of the item
    /// prices must fit in what remains — an over-budget batch is refused
    /// with no release performed and **no privacy consumed**. The debit is
    /// recorded only after *every* item has released; a failure anywhere
    /// fails the whole batch and, since none of its releases are returned,
    /// consumes nothing.
    ///
    /// A batch of two or more items draws one noise seed per item from the
    /// session RNG, in input order, before fanning out on the worker pool,
    /// so its releases are bit-identical whatever the
    /// [`Parallelism`](rmdp_core::Parallelism) and with or without a
    /// [`SequenceCache`]. Workers share the cache:
    /// repeated shapes inside one batch (or across batches and sessions)
    /// reuse each other's frozen sequences, and two workers racing on the
    /// same cold shape at worst both compute the (deterministic) table. A
    /// one-item batch is exactly [`SqlSession::query`] on that item.
    pub fn query_batch<S: AsRef<str>>(&mut self, sqls: &[S]) -> Result<Vec<QueryOutput>, SqlError> {
        let plans: Vec<AnyPlan> = sqls
            .iter()
            .map(|sql| Ok(self.prepare(sql.as_ref())?.plan))
            .collect::<Result<_, SqlError>>()?;
        Ok(self.release(&plans, &mut NoopRecorder)?.0)
    }

    /// [`CatalogSnapshot::prepare`] on the session's snapshot and clock.
    fn prepare(&self, sql: &str) -> Result<Prepared, SqlError> {
        self.snapshot.prepare(sql, &*self.clock)
    }

    /// [`SqlSession::release`] on one plan.
    fn release_one<T: Recorder>(
        &mut self,
        plan: &AnyPlan,
        recorder: &mut T,
    ) -> Result<(QueryOutput, ReleaseTrace), SqlError> {
        let (outputs, trace) = self.release(std::slice::from_ref(plan), recorder)?;
        let output = outputs.into_iter().next().expect("one output per plan");
        Ok((output, trace))
    }

    /// The one release pipeline behind every public entry point, in order:
    ///
    /// 1. validate the params — data-independent, so a misconfigured
    ///    session fails loudly instead of looking over budget;
    /// 2. price every plan with [`AnyPlan::cost`] and admit the sum
    ///    atomically — a refusal consumes nothing;
    /// 3. release: a single plan runs inline on the session RNG with the
    ///    caller's recorder; `n ≥ 2` plans draw `n` seeds from the session
    ///    RNG in input order, then fan out once with [`NoopRecorder`]
    ///    workers, booked as one [`Stage::SequenceSolve`] span;
    /// 4. debit the admitted cost, only once every plan has released;
    /// 5. fold the statistics once ([`SqlSession::fold`]).
    ///
    /// Returns one output per plan, in input order, and the fold as a
    /// [`ReleaseTrace`] without stage timings.
    fn release<T: Recorder>(
        &mut self,
        plans: &[AnyPlan],
        recorder: &mut T,
    ) -> Result<(Vec<QueryOutput>, ReleaseTrace), SqlError> {
        self.params.validate()?;
        let (params, policy) = (self.params, self.group_policy);
        let mut cost = PrivacyBudget {
            epsilon: 0.0,
            delta: 0.0,
        };
        for plan in plans {
            let price = plan.cost(&params, policy);
            cost.epsilon += price.epsilon;
            cost.delta += price.delta;
        }
        recorder.enter(Stage::BudgetDebit);
        let admitted = self.ensure_affordable(cost);
        recorder.exit(Stage::BudgetDebit);
        admitted?;

        let db = self.snapshot.database();
        let cache = self.cache.as_deref();
        let released = if let [plan] = plans {
            vec![release_any(
                db,
                plan,
                params,
                policy,
                &mut self.rng,
                cache,
                recorder,
            )?]
        } else {
            // lint:allow(rng-confinement): sanctioned seed-schedule derivation — per-item seeds drawn serially from the session root before fan-out
            let seeds: Vec<u64> = plans.iter().map(|_| self.rng.next_u64()).collect();
            recorder.enter(Stage::SequenceSolve);
            let released = fan_out(params, &seeds, |i, params, rng| {
                release_any(db, &plans[i], params, policy, rng, cache, &mut NoopRecorder)
            });
            recorder.exit(Stage::SequenceSolve);
            released?
        };

        recorder.enter(Stage::BudgetDebit);
        let debited = self.debit(cost);
        recorder.exit(Stage::BudgetDebit);
        debited?;
        Ok(self.fold(plans, released, cost))
    }

    /// Folds one release call in input order, so every total is identical
    /// for every [`Parallelism`](rmdp_core::Parallelism): LP work, cache
    /// traffic and the refresh tier of each mechanism release go into the
    /// session totals and metrics, and the outputs and the trace body are
    /// assembled. The trace
    /// carries the fingerprint and group split of the call's last plan (a
    /// traced call has exactly one).
    fn fold(
        &mut self,
        plans: &[AnyPlan],
        released: Vec<(Option<Fingerprint>, Vec<ReleaseOutcome>)>,
        cost: PrivacyBudget,
    ) -> (Vec<QueryOutput>, ReleaseTrace) {
        let policy = self.group_policy;
        let mut lp = LpWorkStats::default();
        let mut trace = ReleaseTrace {
            fingerprint: None,
            cache: CacheOutcome::Uncached,
            cache_hits: 0,
            cache_misses: 0,
            stages: Vec::new(),
            total_nanos: 0,
            lp: lp.to_summary(),
            noise: Vec::new(),
            epsilon_spent: cost.epsilon,
            group_split: None,
        };
        let mut outputs = Vec::with_capacity(plans.len());
        for (plan, (fingerprint, outcomes)) in plans.iter().zip(released) {
            let params = plan.release_params(self.params, policy);
            trace.fingerprint = fingerprint.map(|f| f.0);
            for outcome in &outcomes {
                lp.absorb(&outcome.lp);
                match outcome.cache {
                    CacheOutcome::Hit => trace.cache_hits += 1,
                    CacheOutcome::Miss => trace.cache_misses += 1,
                    CacheOutcome::Uncached => {}
                }
                self.absorb_refresh_tier(outcome.refresh);
                trace.noise.push(NoiseScales {
                    log_scale: params.beta / params.epsilon1,
                    answer_scale: outcome.release.delta_hat / params.epsilon2,
                });
            }
            let mut releases = outcomes.into_iter().map(|o| o.release);
            outputs.push(match plan {
                AnyPlan::Scalar(_) => QueryOutput::Scalar(releases.next().expect("one release")),
                AnyPlan::Grouped(g) => {
                    let report = GroupedRelease {
                        key_column: g.key_display.clone(),
                        groups: g
                            .domain
                            .iter()
                            .cloned()
                            .zip(releases)
                            .map(|(key, release)| GroupRelease { key, release })
                            .collect(),
                        per_group_epsilon: params.total_epsilon(),
                        epsilon_spent: plan.cost(&self.params, policy).epsilon,
                        policy,
                    };
                    trace.group_split = Some(GroupSplit {
                        policy: policy.to_string(),
                        groups: report.len() as u64,
                        per_group_fraction: policy.per_group_fraction(report.len()),
                        per_group_epsilon: report.per_group_epsilon,
                    });
                    QueryOutput::Grouped(report)
                }
            });
        }
        trace.cache = match (&self.cache, trace.cache_misses) {
            (None, _) => CacheOutcome::Uncached,
            (Some(_), 0) => CacheOutcome::Hit,
            (Some(_), _) => CacheOutcome::Miss,
        };
        trace.lp = lp.to_summary();
        self.absorb_release_stats(&lp, trace.noise.len() as u64);
        (outputs, trace)
    }

    /// Folds one call's LP work into the session totals and, when a
    /// registry is attached, into the process metrics. `releases` is how
    /// many mechanism releases the call performed (1 for a scalar, `k` for
    /// a grouped report, summed over a batch).
    fn absorb_release_stats(&mut self, lp: &LpWorkStats, releases: u64) {
        self.lp_totals.absorb(lp);
        if let Some(m) = &self.metrics {
            m.counter_add("sql.releases", releases);
            m.counter_add("lp.h_solves", lp.h_solves as u64);
            m.counter_add("lp.g_solves", lp.g_solves as u64);
            m.counter_add("lp.total_pivots", lp.total_pivots as u64);
            m.counter_add("lp.dual_pivots", lp.dual_pivots as u64);
            m.counter_add("lp.warm_start_hits", lp.warm_start_hits as u64);
            m.counter_add("lp.refactorizations", lp.refactorizations as u64);
            m.counter_add("lp.basis_updates", lp.basis_updates as u64);
            // Peak, not a sum: the session total already folds with `max`.
            m.gauge_set("lp.peak_fill_in_nnz", self.lp_totals.fill_in_nnz as f64);
            if let Some(stats) = self.cache_stats() {
                m.counter_record_total("cache.hits", stats.hits);
                m.counter_record_total("cache.misses", stats.misses);
                m.counter_record_total("cache.insertions", stats.insertions);
                m.counter_record_total("cache.evictions", stats.evictions);
                m.counter_record_total("cache.evictions_stale", stats.evictions_stale);
                m.gauge_set("cache.hit_rate", stats.hit_rate());
            }
        }
    }

    /// Books which refresh tier served one mechanism release's cache miss,
    /// when the miss was re-derived from a parked pre-delta entry rather
    /// than computed cold.
    fn absorb_refresh_tier(&self, refresh: Option<RefreshTier>) {
        if let Some(m) = &self.metrics {
            match refresh {
                Some(RefreshTier::Unchanged) => m.counter_add("lp.warm_refresh_unchanged", 1),
                Some(RefreshTier::ColdRebuild) => m.counter_add("lp.warm_refresh_cold", 1),
                // No refresh returns `WarmChain`.
                Some(RefreshTier::WarmChain) | None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdp_core::Parallelism;
    use rmdp_krelation::tuple::{Tuple, Value};
    use rmdp_krelation::Expr;
    use rmdp_observe::LpSummary;

    /// The releases of a batch of scalar queries.
    fn scalars(outputs: Vec<QueryOutput>) -> Vec<Release> {
        outputs
            .into_iter()
            .map(|o| o.scalar().expect("scalar item"))
            .collect()
    }

    fn db() -> AnnotatedDatabase {
        let mut db = AnnotatedDatabase::new();
        let mut payments = KRelation::new(["person", "amount"]);
        for (person, amount) in [("ada", 3i64), ("bo", 5), ("cy", -2)] {
            let p = db.intern(person);
            payments.insert(
                Tuple::new([
                    ("person", Value::str(person)),
                    ("amount", Value::Int(amount)),
                ]),
                Expr::Var(p),
            );
        }
        db.insert_table("payments", payments);
        db
    }

    #[test]
    fn count_release_has_the_right_true_answer() {
        let mut session = SqlSession::new(db(), MechanismParams::paper_edge_privacy(1.0));
        let release = session
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap();
        assert_eq!(release.true_answer, 3.0);
        assert!(release.noisy_answer.is_finite());
        assert!((release.epsilon_spent - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_aggregates_weights() {
        let mut session = SqlSession::new(db(), MechanismParams::paper_edge_privacy(1.0));
        let release = session
            .query_scalar("SELECT SUM(amount) FROM payments WHERE amount > 0")
            .unwrap();
        assert_eq!(release.true_answer, 8.0);
    }

    #[test]
    fn negative_sum_weights_are_a_sql_error_not_a_panic() {
        let mut session = SqlSession::new(db(), MechanismParams::paper_edge_privacy(1.0));
        let err = session
            .query_scalar("SELECT SUM(amount) FROM payments")
            .unwrap_err();
        match err {
            SqlError::BadAggregate { message, .. } => {
                assert!(message.contains("negative"), "{message}")
            }
            other => panic!("expected BadAggregate, got {other:?}"),
        }
    }

    #[test]
    fn sum_over_strings_is_a_sql_error() {
        let mut session = SqlSession::new(db(), MechanismParams::paper_edge_privacy(1.0));
        let err = session
            .query_scalar("SELECT SUM(person) FROM payments")
            .unwrap_err();
        assert!(matches!(err, SqlError::BadAggregate { .. }));
    }

    #[test]
    fn releases_are_deterministic_per_seed() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let a = SqlSession::with_seed(db(), params, 1)
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap();
        let b = SqlSession::with_seed(db(), params, 1)
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap();
        let c = SqlSession::with_seed(db(), params, 2)
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap();
        assert_eq!(a.noisy_answer, b.noisy_answer);
        assert_ne!(a.noisy_answer, c.noisy_answer);
    }

    #[test]
    fn query_batch_matches_itself_across_parallelism_settings() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let sqls = [
            "SELECT COUNT(*) FROM payments",
            "SELECT SUM(amount) FROM payments WHERE amount > 0",
            "SELECT COUNT(*) FROM payments WHERE amount > 4",
        ];
        let serial = scalars(
            SqlSession::with_seed(db(), params, 7)
                .query_batch(&sqls)
                .unwrap(),
        );
        let parallel = scalars(
            SqlSession::with_seed(db(), params.with_parallelism(Parallelism::Threads(3)), 7)
                .query_batch(&sqls)
                .unwrap(),
        );
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.noisy_answer, b.noisy_answer);
            assert_eq!(a.true_answer, b.true_answer);
        }
        assert_eq!(serial[0].true_answer, 3.0);
        assert_eq!(serial[1].true_answer, 8.0);
        assert_eq!(serial[2].true_answer, 1.0);
    }

    #[test]
    fn query_batch_fails_whole_batch_on_a_bad_query_without_spending() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session =
            SqlSession::new(db(), params).with_budget(rmdp_noise::PrivacyBudget::pure(10.0));
        let err = session
            .query_batch(&["SELECT COUNT(*) FROM payments", "SELECT * FROM nowhere"])
            .unwrap_err();
        assert!(
            matches!(
                err,
                SqlError::Parse { .. }
                    | SqlError::Unsupported { .. }
                    | SqlError::UnknownTable { .. }
            ),
            "{err:?}"
        );
        assert_eq!(session.remaining_budget().unwrap().epsilon, 10.0);
    }

    #[test]
    fn over_budget_batch_is_refused_without_consuming_epsilon() {
        let params = MechanismParams::paper_edge_privacy(0.6);
        let mut session =
            SqlSession::new(db(), params).with_budget(rmdp_noise::PrivacyBudget::pure(1.0));
        // Two releases need 1.2ε but only 1.0ε exists: refused atomically.
        let err = session
            .query_batch(&[
                "SELECT COUNT(*) FROM payments",
                "SELECT COUNT(*) FROM payments",
            ])
            .unwrap_err();
        match err {
            SqlError::BudgetExhausted(e) => {
                assert!((e.requested.epsilon - 1.2).abs() < 1e-12);
                assert!((e.remaining.epsilon - 1.0).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(session.remaining_budget().unwrap().epsilon, 1.0);

        // A batch that fits goes through and debits exactly its cost.
        let releases = session
            .query_batch(&["SELECT COUNT(*) FROM payments"])
            .unwrap();
        assert_eq!(releases.len(), 1);
        assert!((session.remaining_budget().unwrap().epsilon - 0.4).abs() < 1e-12);

        // And now the single-query path is over budget too.
        let err = session
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap_err();
        assert!(matches!(err, SqlError::BudgetExhausted(_)));
        assert!((session.remaining_budget().unwrap().epsilon - 0.4).abs() < 1e-12);
    }

    #[test]
    fn invalid_params_do_not_drain_the_budget() {
        // Parameter validation is data-independent, so it must run before
        // the debit: a misconfigured session keeps its full budget.
        let params = MechanismParams::new(0.0, 0.5, 0.1, 1.0, 0.5);
        let mut session =
            SqlSession::new(db(), params).with_budget(rmdp_noise::PrivacyBudget::pure(1.0));
        for _ in 0..3 {
            let err = session
                .query_scalar("SELECT COUNT(*) FROM payments")
                .unwrap_err();
            assert!(matches!(err, SqlError::Mechanism(_)));
        }
        let err = session
            .query_batch(&["SELECT COUNT(*) FROM payments"])
            .unwrap_err();
        assert!(matches!(err, SqlError::Mechanism(_)));
        assert_eq!(session.remaining_budget().unwrap().epsilon, 1.0);
    }

    #[test]
    fn failing_query_leaves_the_budget_unchanged() {
        // SUM over a column with a negative value fails *after* admission
        // (the failure is data-dependent) but released nothing, so the
        // budget must be untouched, and the failed miss caches nothing.
        let params = MechanismParams::paper_edge_privacy(0.5);
        let cache = SequenceCache::shared(4);
        let mut session = SqlSession::new(db(), params)
            .with_budget(rmdp_noise::PrivacyBudget::pure(2.0))
            .with_sequence_cache(Arc::clone(&cache));
        let err = session
            .query_scalar("SELECT SUM(amount) FROM payments")
            .unwrap_err();
        assert!(matches!(err, SqlError::BadAggregate { .. }));
        assert_eq!(session.remaining_budget().unwrap().epsilon, 2.0);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().insertions, 0);
        assert!(cache.is_empty(), "a failed miss publishes no table");

        // A batch failing on its last query consumes nothing either.
        let err = session
            .query_batch(&[
                "SELECT COUNT(*) FROM payments",
                "SELECT SUM(amount) FROM payments",
            ])
            .unwrap_err();
        assert!(matches!(err, SqlError::BadAggregate { .. }));
        assert_eq!(session.remaining_budget().unwrap().epsilon, 2.0);

        // A succeeding query then debits exactly once.
        session
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap();
        assert!((session.remaining_budget().unwrap().epsilon - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cached_sessions_release_bit_identically_to_uncached_ones() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let queries = [
            "SELECT COUNT(*) FROM payments",
            "SELECT COUNT(*) FROM payments WHERE amount > 0",
            "SELECT COUNT(*) FROM payments", // repeat: served from cache
            "SELECT COUNT(*) FROM payments",
        ];
        let mut plain = SqlSession::with_seed(db(), params, 11);
        let mut cached = SqlSession::with_seed(db(), params, 11).with_cache_capacity(16);
        for sql in queries {
            let a = plain.query_scalar(sql).unwrap();
            let b = cached.query_scalar(sql).unwrap();
            assert_eq!(a.noisy_answer, b.noisy_answer, "{sql}");
            assert_eq!(a.delta_hat, b.delta_hat, "{sql}");
            assert_eq!(a.x, b.x, "{sql}");
        }
        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "two distinct shapes");
        assert_eq!(stats.hits, 2, "two repeats");
        assert_eq!(stats.insertions, 2);
    }

    #[test]
    fn alias_renames_hit_the_cache() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session = SqlSession::new(db(), params).with_cache_capacity(8);
        session
            .query_scalar("SELECT COUNT(*) FROM payments p WHERE p.amount > 0")
            .unwrap();
        session
            .query_scalar("SELECT COUNT(*) FROM payments q WHERE q.amount > 0")
            .unwrap();
        let stats = session.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn batches_share_the_cache_across_parallelism_settings() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let sqls = [
            "SELECT COUNT(*) FROM payments",
            "SELECT COUNT(*) FROM payments",
            "SELECT COUNT(*) FROM payments WHERE amount > 0",
        ];
        let baseline = scalars(
            SqlSession::with_seed(db(), params, 3)
                .query_batch(&sqls)
                .unwrap(),
        );
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let cache = rmdp_core::SequenceCache::shared(8);
            let mut session = SqlSession::with_seed(db(), params.with_parallelism(parallelism), 3)
                .with_sequence_cache(Arc::clone(&cache));
            let releases = scalars(session.query_batch(&sqls).unwrap());
            for (a, b) in baseline.iter().zip(&releases) {
                assert_eq!(a.noisy_answer, b.noisy_answer, "{parallelism}");
                assert_eq!(a.true_answer, b.true_answer);
            }
            assert_eq!(cache.len(), 2, "two distinct shapes cached");
            // A follow-up batch is served entirely from the cache.
            let before = cache.stats().misses;
            session.query_batch(&sqls).unwrap();
            assert_eq!(cache.stats().misses, before, "{parallelism}");
        }
    }

    #[test]
    fn mutating_the_database_between_sessions_invalidates_cache_reuse() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let cache = rmdp_core::SequenceCache::shared(8);
        let base = db();
        let mut changed = base.clone();
        changed.insert_table("payments", KRelation::new(["person", "amount"]));

        let mut s1 = SqlSession::new(base, params).with_sequence_cache(Arc::clone(&cache));
        s1.query_scalar("SELECT COUNT(*) FROM payments").unwrap();
        // Different database value (clone has a fresh identity, and it was
        // mutated): the same SQL must miss, not reuse s1's sequences.
        let mut s2 = SqlSession::new(changed, params).with_sequence_cache(Arc::clone(&cache));
        let release = s2.query_scalar("SELECT COUNT(*) FROM payments").unwrap();
        assert_eq!(release.true_answer, 0.0, "empty table after mutation");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    /// Two rule-annotated tables built entirely through `apply_delta`, so
    /// later ingests by known owners are intern-only.
    fn delta_db() -> AnnotatedDatabase {
        use rmdp_krelation::AnnotationRule;
        let mut db = AnnotatedDatabase::new();
        db.insert_table("visits", KRelation::new(["person", "place"]));
        db.insert_table("residents", KRelation::new(["person", "city"]));
        db.declare_annotation_rule("visits", AnnotationRule::OwnerColumn("person".to_owned()));
        db.declare_annotation_rule(
            "residents",
            AnnotationRule::OwnerColumn("person".to_owned()),
        );
        db.apply_delta(
            "visits",
            [
                Tuple::new([
                    ("person", Value::str("ada")),
                    ("place", Value::str("museum")),
                ]),
                Tuple::new([("person", Value::str("bo")), ("place", Value::str("cafe"))]),
            ],
        )
        .unwrap();
        db.apply_delta(
            "residents",
            [
                Tuple::new([("person", Value::str("ada")), ("city", Value::str("rome"))]),
                Tuple::new([("person", Value::str("bo")), ("city", Value::str("oslo"))]),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn snapshot_delta_keeps_untouched_entries_and_refreshes_the_rest() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let cache = rmdp_core::SequenceCache::shared(8);
        let snapshot = CatalogSnapshot::shared(delta_db(), params);
        const VISITS: &str = "SELECT COUNT(*) FROM visits";
        const RESIDENTS: &str = "SELECT COUNT(*) FROM residents";

        // Prime both entries under snapshot version 0.
        let mut s1 =
            SqlSession::over(Arc::clone(&snapshot), 7).with_sequence_cache(Arc::clone(&cache));
        let v_before = s1.query_scalar(VISITS).unwrap();
        s1.query_scalar(RESIDENTS).unwrap();
        assert_eq!(cache.stats().misses, 2);

        // Ingest one row (known owner) into `visits`: a new snapshot link;
        // the parent stays untouched and usable.
        let next = snapshot
            .with_delta(
                "visits",
                [Tuple::new([
                    ("person", Value::str("ada")),
                    ("place", Value::str("park")),
                ])],
            )
            .unwrap();
        assert_eq!(snapshot.version(), 0);
        assert_eq!(next.version(), 1);
        assert_eq!(snapshot.database().table("visits").unwrap().len(), 2);
        assert_eq!(next.database().table("visits").unwrap().len(), 3);

        // Sweep the cache against the new snapshot's stamps: exactly the
        // visits entry is stale; it parks as a refresh base.
        let swept = cache.purge_stale(&next.database().current_epoch_stamps());
        assert_eq!(swept, 1);
        assert_eq!(cache.stats().evictions_stale, 1);
        assert_eq!(cache.banked_refresh_bases(), 1);

        // In-flight sessions over the *old* snapshot keep releasing against
        // the data they were admitted under.
        let held = s1.query_scalar(VISITS).unwrap();
        assert_eq!(held.true_answer, v_before.true_answer);

        // Over the new snapshot: the untouched table still hits, and the
        // touched table's miss claims the parked base (refresh).
        let mut s2 = SqlSession::over(Arc::clone(&next), 7).with_sequence_cache(Arc::clone(&cache));
        let hits_before = cache.stats().hits;
        s2.query_scalar(RESIDENTS).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1);
        let refreshed = s2.query_scalar(VISITS).unwrap();
        assert_eq!(refreshed.true_answer, 3.0);
        assert_eq!(cache.banked_refresh_bases(), 0, "base was claimed");

        // Bit-identity: a cold session over the new snapshot (fresh empty
        // cache, same seed, same query order) releases identically.
        let mut cold = SqlSession::over(Arc::clone(&next), 7)
            .with_sequence_cache(rmdp_core::SequenceCache::shared(8));
        cold.query_scalar(RESIDENTS).unwrap();
        let cold_visits = cold.query_scalar(VISITS).unwrap();
        assert_eq!(refreshed.noisy_answer, cold_visits.noisy_answer);
        assert_eq!(refreshed.true_answer, cold_visits.true_answer);
    }

    #[test]
    fn every_entry_point_books_each_release_refresh_tier() {
        // After one intern-only delta (ada also visits the cafe), each
        // post-delta shape's miss claims its parked pre-delta base and takes
        // one refresh tier: the self-join gains a pair and the counts gain a
        // row (cold rebuild), and the shapes the delta filters out
        // republish unchanged. The counters must book every mechanism
        // release's own tier, whichever entry point released it.
        const JOIN: &str = "SELECT COUNT(*) FROM visits v1 JOIN visits v2 \
                            ON v1.place = v2.place WHERE v1.person < v2.person";
        const GROUPED: &str = "SELECT place, COUNT(*) FROM visits GROUP BY place";
        const BATCH: [&str; 3] = [
            "SELECT COUNT(*) FROM visits",
            "SELECT COUNT(*) FROM visits WHERE person = 'bo'",
            "SELECT COUNT(*) FROM residents",
        ];
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut db = delta_db();
        db.declare_public_domain(
            "visits",
            "place",
            ["museum", "cafe", "park"].map(Value::str),
        );
        let snapshot = CatalogSnapshot::shared(db, params);
        let next = snapshot
            .with_delta(
                "visits",
                [Tuple::new([
                    ("person", Value::str("ada")),
                    ("place", Value::str("cafe")),
                ])],
            )
            .unwrap();
        // Two caches primed and swept alike: one serves the metered
        // session, the other the direct releases whose outcomes name the
        // tiers.
        let primed = || {
            let cache = rmdp_core::SequenceCache::shared(32);
            let mut s =
                SqlSession::over(Arc::clone(&snapshot), 1).with_sequence_cache(Arc::clone(&cache));
            s.query(JOIN).unwrap();
            s.query(GROUPED).unwrap();
            s.query_batch(&BATCH).unwrap();
            cache.purge_stale(&next.database().current_epoch_stamps());
            cache
        };

        let metrics = Arc::new(MetricsRegistry::new());
        let mut session = SqlSession::over(Arc::clone(&next), 2)
            .with_sequence_cache(primed())
            .with_metrics(Arc::clone(&metrics));
        session.query(JOIN).unwrap();
        session.query(GROUPED).unwrap();
        session.query_batch(&BATCH).unwrap();

        let truth = primed();
        let mut rng = StdRng::seed_from_u64(2);
        let mut tiers = Vec::new();
        for sql in [JOIN, GROUPED].into_iter().chain(BATCH) {
            let plan = next.plan(sql).unwrap();
            let (_, outcomes) = release_any(
                next.database(),
                &plan,
                params,
                GroupBudgetPolicy::default(),
                &mut rng,
                Some(&truth),
                &mut NoopRecorder,
            )
            .unwrap();
            tiers.extend(outcomes.iter().filter_map(|o| o.refresh));
        }
        assert!(!tiers.contains(&RefreshTier::WarmChain));
        let snap = metrics.snapshot();
        for (counter, tier) in [
            ("lp.warm_refresh_unchanged", RefreshTier::Unchanged),
            ("lp.warm_refresh_cold", RefreshTier::ColdRebuild),
        ] {
            let expected = tiers.iter().filter(|&&t| t == tier).count() as u64;
            assert!(
                expected > 0,
                "{counter}: the scenario must reach every tier"
            );
            assert_eq!(snap.counter(counter).unwrap_or(0), expected, "{counter}");
        }
    }

    /// Visits with a declared public domain over `place`, including a key
    /// (`park`) the data never mentions.
    fn grouped_db() -> AnnotatedDatabase {
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
        db
    }

    const GROUPED_SQL: &str = "SELECT place, COUNT(*) FROM visits GROUP BY place";

    #[test]
    fn grouped_release_covers_the_declared_domain_with_split_budget() {
        let params = MechanismParams::paper_edge_privacy(1.2);
        let mut session =
            SqlSession::new(grouped_db(), params).with_budget(rmdp_noise::PrivacyBudget::pure(2.0));
        let report = session.query_grouped(GROUPED_SQL).unwrap();

        assert_eq!(report.key_column, "place");
        assert_eq!(report.len(), 3, "every declared key releases");
        assert_eq!(report.policy, GroupBudgetPolicy::SplitEvenly);
        // Declared-domain order, true answers per key — absent keys release 0.
        let keys: Vec<&Value> = report.groups.iter().map(|g| &g.key).collect();
        assert_eq!(
            keys,
            [
                &Value::str("museum"),
                &Value::str("cafe"),
                &Value::str("park")
            ]
        );
        assert_eq!(report.get(&Value::str("museum")).unwrap().true_answer, 3.0);
        assert_eq!(report.get(&Value::str("cafe")).unwrap().true_answer, 2.0);
        assert_eq!(report.get(&Value::str("park")).unwrap().true_answer, 0.0);
        assert!(report.get(&Value::str("zoo")).is_none());
        for g in &report.groups {
            assert!(g.release.noisy_answer.is_finite());
            assert!(
                (g.release.epsilon_spent - 0.4).abs() < 1e-12,
                "ε/k per group"
            );
        }
        // The whole report is priced like one release under SplitEvenly.
        assert!((report.per_group_epsilon - 0.4).abs() < 1e-12);
        assert!((report.epsilon_spent - 1.2).abs() < 1e-12);
        assert!((session.remaining_budget().unwrap().epsilon - 0.8).abs() < 1e-12);
    }

    #[test]
    fn per_group_policy_prices_the_report_at_k_times_epsilon() {
        let params = MechanismParams::paper_edge_privacy(0.5);
        let mut session = SqlSession::new(grouped_db(), params)
            .with_group_policy(GroupBudgetPolicy::PerGroup)
            .with_budget(rmdp_noise::PrivacyBudget::pure(2.0));
        let report = session.query_grouped(GROUPED_SQL).unwrap();
        assert!((report.per_group_epsilon - 0.5).abs() < 1e-12);
        assert!((report.epsilon_spent - 1.5).abs() < 1e-12);
        for g in &report.groups {
            assert!((g.release.epsilon_spent - 0.5).abs() < 1e-12);
        }
        assert!((session.remaining_budget().unwrap().epsilon - 0.5).abs() < 1e-12);

        // A second report needs another 1.5ε but only 0.5ε remains: refused
        // atomically, consuming nothing.
        let err = session.query_grouped(GROUPED_SQL).unwrap_err();
        match err {
            SqlError::BudgetExhausted(e) => {
                assert!((e.requested.epsilon - 1.5).abs() < 1e-12);
                assert!((e.remaining.epsilon - 0.5).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!((session.remaining_budget().unwrap().epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grouped_releases_are_bit_identical_across_parallelism_and_caching() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let baseline = SqlSession::with_seed(grouped_db(), params, 31)
            .query_grouped(GROUPED_SQL)
            .unwrap();
        for parallelism in [Parallelism::Threads(3), Parallelism::Auto] {
            let report =
                SqlSession::with_seed(grouped_db(), params.with_parallelism(parallelism), 31)
                    .query_grouped(GROUPED_SQL)
                    .unwrap();
            for (a, b) in baseline.groups.iter().zip(&report.groups) {
                assert_eq!(a.key, b.key, "{parallelism}");
                assert_eq!(
                    a.release.noisy_answer.to_bits(),
                    b.release.noisy_answer.to_bits(),
                    "{parallelism}"
                );
                assert_eq!(a.release.delta_hat.to_bits(), b.release.delta_hat.to_bits());
            }
        }
        let cached = SqlSession::with_seed(grouped_db(), params, 31)
            .with_cache_capacity(8)
            .query_grouped(GROUPED_SQL)
            .unwrap();
        for (a, b) in baseline.groups.iter().zip(&cached.groups) {
            assert_eq!(
                a.release.noisy_answer.to_bits(),
                b.release.noisy_answer.to_bits()
            );
        }
    }

    #[test]
    fn per_key_releases_are_invariant_under_domain_order() {
        // The per-group seed binds to the key value, not the domain slot:
        // re-declaring the domain in another order permutes the report rows
        // but must not change any key's released value.
        let params = MechanismParams::paper_edge_privacy(1.0);
        let forward = SqlSession::with_seed(grouped_db(), params, 7)
            .query_grouped(GROUPED_SQL)
            .unwrap();
        let mut db = grouped_db();
        db.declare_public_domain(
            "visits",
            "place",
            [Value::str("park"), Value::str("cafe"), Value::str("museum")],
        );
        let reversed = SqlSession::with_seed(db, params, 7)
            .query_grouped(GROUPED_SQL)
            .unwrap();
        assert_eq!(
            reversed.groups[0].key,
            Value::str("park"),
            "report rows follow the declared order"
        );
        for g in &forward.groups {
            let other = reversed.get(&g.key).unwrap();
            assert_eq!(
                g.release.noisy_answer.to_bits(),
                other.noisy_answer.to_bits()
            );
            assert_eq!(g.release.delta_hat.to_bits(), other.delta_hat.to_bits());
        }
    }

    #[test]
    fn grouped_reports_share_cache_entries_with_scalar_traffic() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let cache = rmdp_core::SequenceCache::shared(16);
        let mut session =
            SqlSession::new(grouped_db(), params).with_sequence_cache(Arc::clone(&cache));

        // Scalar queries warm two of the three group entries…
        session
            .query_scalar("SELECT COUNT(*) FROM visits WHERE place = 'museum'")
            .unwrap();
        session
            .query_scalar("SELECT COUNT(*) FROM visits WHERE place = 'cafe'")
            .unwrap();
        assert_eq!(cache.stats().misses, 2);

        // …so the grouped report misses only on 'park', and a repeat of the
        // report is served entirely from the cache.
        session.query_grouped(GROUPED_SQL).unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 2);
        session.query_grouped(GROUPED_SQL).unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 5);
    }

    #[test]
    fn grouped_refusals_and_shape_errors_carry_spans_and_consume_nothing() {
        let params = MechanismParams::paper_edge_privacy(1.0);

        // Undeclared key column: planner error pointing at the key.
        let sql = "SELECT person, COUNT(*) FROM visits GROUP BY person";
        let mut session =
            SqlSession::new(grouped_db(), params).with_budget(rmdp_noise::PrivacyBudget::pure(1.0));
        match session.query(sql).unwrap_err() {
            SqlError::UndeclaredGroupDomain {
                column,
                table,
                span,
            } => {
                assert_eq!(column, "person");
                assert_eq!(table, "visits");
                assert_eq!(span.slice(sql), "person");
            }
            other => panic!("expected UndeclaredGroupDomain, got {other:?}"),
        }
        assert_eq!(session.remaining_budget().unwrap().epsilon, 1.0);

        // Mismatched SELECT/GROUP BY keys.
        let sql = "SELECT person, COUNT(*) FROM visits GROUP BY place";
        assert!(matches!(
            session.query(sql).unwrap_err(),
            SqlError::GroupKeyMismatch { .. }
        ));

        // An empty declared domain is as good as none.
        let mut empty = grouped_db();
        empty.declare_public_domain("visits", "place", []);
        let mut empty_session = SqlSession::new(empty, params);
        assert!(matches!(
            empty_session.query_grouped(GROUPED_SQL).unwrap_err(),
            SqlError::UndeclaredGroupDomain { .. }
        ));

        // Shape errors: grouped SQL in scalar entry points and vice versa.
        let err = session.query_scalar(GROUPED_SQL).unwrap_err();
        assert!(matches!(err, SqlError::QueryShape { .. }));
        assert!(err.span().is_some());
        assert!(matches!(
            session
                .query_grouped("SELECT COUNT(*) FROM visits")
                .unwrap_err(),
            SqlError::QueryShape { .. }
        ));
        assert!(matches!(
            session.evaluate(GROUPED_SQL).unwrap_err(),
            SqlError::QueryShape { .. }
        ));
        assert_eq!(session.remaining_budget().unwrap().epsilon, 1.0);
    }

    #[test]
    fn query_dispatches_on_the_plan_shape() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session = SqlSession::new(grouped_db(), params);
        match session.query("SELECT COUNT(*) FROM visits").unwrap() {
            QueryOutput::Scalar(release) => assert_eq!(release.true_answer, 5.0),
            other => panic!("scalar SQL released {other:?}"),
        }
        match session.query(GROUPED_SQL).unwrap() {
            QueryOutput::Grouped(report) => assert_eq!(report.len(), 3),
            other => panic!("grouped SQL released {other:?}"),
        }
        match session
            .query("EXPLAIN ANALYZE SELECT COUNT(*) FROM visits")
            .unwrap()
        {
            QueryOutput::Explained(traced) => {
                assert!(matches!(traced.output, QueryOutput::Scalar(_)));
                assert!(traced.trace.is_consistent());
            }
            other => panic!("EXPLAIN ANALYZE released {other:?}"),
        }
        // And the convenience accessors agree.
        assert!(session.query(GROUPED_SQL).unwrap().scalar().is_none());
        assert!(session.query(GROUPED_SQL).unwrap().grouped().is_some());
    }

    #[test]
    fn explain_without_analyze_is_rejected() {
        let mut session = SqlSession::new(db(), MechanismParams::paper_edge_privacy(1.0));
        let err = session
            .query("EXPLAIN SELECT COUNT(*) FROM payments")
            .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { .. }), "{err}");
        assert!(err.to_string().contains("EXPLAIN ANALYZE"), "{err}");
    }

    #[test]
    fn traced_releases_are_bit_identical_to_untraced() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let sql = "SELECT COUNT(*) FROM payments";
        let mut plain_session = SqlSession::with_seed(db(), params, 7);
        let plain = plain_session.query_scalar(sql).unwrap();
        let mut traced_session = SqlSession::with_seed(db(), params, 7);
        let traced = traced_session.query_traced(sql).unwrap();
        let release = traced.output.scalar().unwrap();
        assert_eq!(release.noisy_answer.to_bits(), plain.noisy_answer.to_bits());
        assert_eq!(release.delta_hat.to_bits(), plain.delta_hat.to_bits());
        assert!(traced.trace.is_consistent());
        assert_eq!(traced.trace.epsilon_spent, params.total_epsilon());
    }

    #[test]
    fn traced_hit_and_miss_paths_populate_the_trace() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session = SqlSession::with_seed(db(), params, 11).with_cache_capacity(8);
        let sql = "SELECT COUNT(*) FROM payments";

        let miss = session.query_traced(sql).unwrap().trace;
        assert_eq!(miss.cache, CacheOutcome::Miss);
        assert_eq!((miss.cache_hits, miss.cache_misses), (0, 1));
        assert!(miss.fingerprint.is_some());
        assert!(miss.lp.h_solves > 0 && miss.lp.g_solves > 0);
        assert!(miss.is_consistent());

        let hit = session.query_traced(sql).unwrap().trace;
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!((hit.cache_hits, hit.cache_misses), (1, 0));
        assert_eq!(hit.fingerprint, miss.fingerprint);
        // A hit runs no LP of either chain: every counter stays at zero.
        assert_eq!(hit.lp, LpSummary::default(), "a hit re-solves nothing");
        // Nor does it execute the plan. The Plan span is booked once for
        // lowering, and a miss enters it again to execute the plan.
        let plan_entries = |trace: &ReleaseTrace| {
            trace
                .stages
                .iter()
                .find(|span| span.stage == Stage::Plan)
                .map(|span| span.entries)
        };
        assert_eq!(plan_entries(&miss), Some(2));
        assert_eq!(plan_entries(&hit), Some(1), "a hit executes no plan");
        assert!(hit.is_consistent());

        // Both paths run (and time) all seven pipeline stages: the hit
        // still parses, plans, fingerprints, probes the cache, walks the
        // frozen ladders, draws noise and debits the budget.
        for trace in [&miss, &hit] {
            for stage in Stage::ALL {
                assert!(
                    trace.stages.iter().any(|span| span.stage == stage),
                    "{} missing from {:?} trace",
                    stage.name(),
                    trace.cache
                );
            }
        }
    }

    #[test]
    fn grouped_traces_report_the_budget_split() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session = SqlSession::with_seed(grouped_db(), params, 5);
        let traced = session.query_traced(GROUPED_SQL).unwrap();
        assert!(traced.trace.is_consistent());
        let split = traced.trace.group_split.as_ref().unwrap();
        assert_eq!(split.groups, 3);
        assert_eq!(split.policy, "split-evenly");
        assert!((split.per_group_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(traced.trace.noise.len(), 3);
        assert!(traced
            .trace
            .noise
            .iter()
            .all(|n| n.log_scale.is_finite() && n.answer_scale > 0.0));
        assert_eq!(traced.output.grouped().unwrap().len(), 3);
    }

    #[test]
    fn session_metrics_cover_budget_lp_and_cache() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let metrics = Arc::new(MetricsRegistry::new());
        let mut session = SqlSession::with_seed(db(), params, 3)
            .with_cache_capacity(4)
            .with_budget(PrivacyBudget {
                epsilon: 2.5,
                delta: 0.0,
            })
            .with_metrics(Arc::clone(&metrics));
        let sql = "SELECT COUNT(*) FROM payments";
        session.query_scalar(sql).unwrap();
        session.query_scalar(sql).unwrap();
        // The third release would overdraw the 2.5ε budget.
        assert!(session.query_scalar(sql).is_err());

        let snap = metrics.snapshot();
        assert_eq!(snap.counter("budget.admitted"), Some(2));
        assert_eq!(snap.counter("budget.debited"), Some(2));
        assert_eq!(snap.counter("budget.refused"), Some(1));
        assert_eq!(snap.sum("budget.debited_epsilon"), Some(2.0));
        assert_eq!(snap.sum("budget.refused_epsilon"), Some(1.0));
        assert_eq!(snap.counter("sql.releases"), Some(2));
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert!(snap.counter("lp.h_solves").unwrap() > 0);
        assert!(session.lp_totals().h_solves > 0);
        assert!(snap.counter("lp.basis_updates").unwrap() > 0);
        assert_eq!(
            snap.counter("lp.dual_pivots"),
            Some(session.lp_totals().dual_pivots as u64)
        );
        assert!(snap.gauge("lp.peak_fill_in_nnz").unwrap() > 0.0);
        assert_eq!(
            snap.gauge("lp.peak_fill_in_nnz").unwrap(),
            session.lp_totals().fill_in_nnz as f64,
            "the gauge mirrors the session peak"
        );

        // The snapshot JSON round-trips.
        let json = snap.to_json();
        assert_eq!(
            rmdp_observe::MetricsSnapshot::parse_json(&json).unwrap(),
            snap
        );
    }

    #[test]
    fn evaluate_grouped_returns_per_key_relations() {
        let session = SqlSession::new(grouped_db(), MechanismParams::paper_edge_privacy(1.0));
        let groups = session.evaluate_grouped(GROUPED_SQL).unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, Value::str("museum"));
        assert_eq!(groups[0].1.len(), 3);
        assert_eq!(groups[2].0, Value::str("park"));
        assert!(groups[2].1.is_empty());
        assert!(matches!(
            session.evaluate_grouped("SELECT COUNT(*) FROM visits"),
            Err(SqlError::QueryShape { .. })
        ));
    }

    #[test]
    fn reading_the_universe_does_not_evict_cached_sequences() {
        // The epoch-bump bugfix, observed end to end: lookups through
        // `universe()` and re-interning existing participants leave the
        // fingerprint epoch — and therefore the cache hit-rate — unchanged.
        let params = MechanismParams::paper_edge_privacy(1.0);
        let cache = rmdp_core::SequenceCache::shared(8);
        let mut db = grouped_db();
        let mut session =
            SqlSession::new(db.clone(), params).with_sequence_cache(Arc::clone(&cache));
        session.query_scalar("SELECT COUNT(*) FROM visits").unwrap();
        assert_eq!(cache.stats().misses, 1);

        // Reads against the session's own database handle.
        assert!(session.database().universe().get("ada").is_some());
        let _ = session.database().universe().len();
        session.query_scalar("SELECT COUNT(*) FROM visits").unwrap();
        assert_eq!(cache.stats().misses, 1, "reads must not invalidate");
        assert_eq!(cache.stats().hits, 1);

        // Re-interning an existing participant is also a read; a genuinely
        // new participant is a mutation and must invalidate.
        let epoch = db.annotation_epoch();
        db.intern("ada");
        assert_eq!(db.annotation_epoch(), epoch);
        db.intern("newcomer");
        assert!(db.annotation_epoch() > epoch);
    }

    #[test]
    fn unmetered_sessions_report_no_remaining_budget() {
        let session = SqlSession::new(db(), MechanismParams::paper_edge_privacy(1.0));
        assert!(session.remaining_budget().is_none());
    }

    #[test]
    fn invalid_params_surface_as_mechanism_errors() {
        let params = MechanismParams::new(0.0, 0.5, 0.1, 1.0, 0.5);
        let mut session = SqlSession::new(db(), params);
        let err = session
            .query_scalar("SELECT COUNT(*) FROM payments")
            .unwrap_err();
        assert!(matches!(err, SqlError::Mechanism(_)));
    }

    #[test]
    fn mixed_batch_releases_scalars_and_grouped_reports_atomically() {
        // SplitEvenly prices the grouped item like one release, so the
        // batch costs 2·(ε₁+ε₂) = 2.0ε of the 5ε budget.
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session =
            SqlSession::new(grouped_db(), params).with_budget(rmdp_noise::PrivacyBudget::pure(5.0));
        let releases = session
            .query_batch(&["SELECT COUNT(*) FROM visits", GROUPED_SQL])
            .unwrap();
        assert_eq!(releases.len(), 2);
        match &releases[0] {
            QueryOutput::Scalar(r) => assert_eq!(r.true_answer, 5.0),
            other => panic!("expected scalar, got {other:?}"),
        }
        match &releases[1] {
            QueryOutput::Grouped(report) => {
                assert_eq!(report.len(), 3, "every declared key releases");
                assert_eq!(report.get(&Value::str("museum")).unwrap().true_answer, 3.0);
                assert_eq!(report.get(&Value::str("park")).unwrap().true_answer, 0.0);
                assert!((report.epsilon_spent - 1.0).abs() < 1e-12);
            }
            other => panic!("expected grouped, got {other:?}"),
        }
        assert!((session.remaining_budget().unwrap().epsilon - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_batch_is_bit_identical_across_parallelism_and_caching() {
        let params = MechanismParams::paper_edge_privacy(1.0);
        let sqls = [
            "SELECT COUNT(*) FROM visits",
            GROUPED_SQL,
            "SELECT COUNT(*) FROM visits WHERE place = 'cafe'",
        ];
        let runs = [
            SqlSession::with_seed(grouped_db(), params, 23)
                .query_batch(&sqls)
                .unwrap(),
            SqlSession::with_seed(
                grouped_db(),
                params.with_parallelism(Parallelism::Threads(4)),
                23,
            )
            .query_batch(&sqls)
            .unwrap(),
            SqlSession::with_seed(grouped_db(), params, 23)
                .with_sequence_cache(rmdp_core::SequenceCache::shared(16))
                .query_batch(&sqls)
                .unwrap(),
        ];
        for run in &runs[1..] {
            for (a, b) in runs[0].iter().zip(run) {
                match (a, b) {
                    (QueryOutput::Scalar(x), QueryOutput::Scalar(y)) => {
                        assert_eq!(x.noisy_answer, y.noisy_answer);
                    }
                    (QueryOutput::Grouped(x), QueryOutput::Grouped(y)) => {
                        for (gx, gy) in x.groups.iter().zip(&y.groups) {
                            assert_eq!(gx.key, gy.key);
                            assert_eq!(gx.release.noisy_answer, gy.release.noisy_answer);
                        }
                    }
                    other => panic!("shape mismatch across runs: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn over_budget_mixed_batch_is_refused_atomically() {
        // PerGroup prices the grouped item at k·ε = 3ε, so scalar + grouped
        // needs 4ε against a 3.5ε budget: refused, nothing spent.
        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut session = SqlSession::new(grouped_db(), params)
            .with_group_policy(GroupBudgetPolicy::PerGroup)
            .with_budget(rmdp_noise::PrivacyBudget::pure(3.5));
        let err = session
            .query_batch(&["SELECT COUNT(*) FROM visits", GROUPED_SQL])
            .unwrap_err();
        match err {
            SqlError::BudgetExhausted(e) => {
                assert!((e.requested.epsilon - 4.0).abs() < 1e-12);
                assert!((e.remaining.epsilon - 3.5).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(session.remaining_budget().unwrap().epsilon, 3.5);
    }
}
