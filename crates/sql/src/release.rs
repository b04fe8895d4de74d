//! The stateless release core under the session's one release pipeline.
//!
//! Every [`SqlSession`](crate::SqlSession) entry point — `query`,
//! `query_traced`, `query_scalar`, `query_grouped` and `query_batch` —
//! goes through the session's private `release`, which validates the
//! params, prices and admits the plans, seeds and runs them, debits, and
//! folds their statistics once. The functions here are that pipeline's
//! execution tail: they take *explicit* shared state (database, params,
//! cache handle) and *explicit* per-release state (the noise RNG), own no
//! session, and debit no budget. That split is what lets a single inline
//! release, batch workers and grouped-report workers run the *same* code
//! under their own concurrency regimes.

use crate::error::SqlError;
use crate::exec::{execute, weigh};
use crate::fingerprint::{plan_key, PlanKey};
use crate::plan::{AnyPlan, QueryPlan};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rmdp_core::{
    CachedSequences, EfficientSequences, EntryTag, FrozenSequences, LpWorkStats, MechanismParams,
    Parallelism, RecursiveMechanism, RefreshTier, Release, SensitiveKRelation, SequenceCache,
    SimplexOptions,
};
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::fingerprint::{Fingerprint, FingerprintHasher};
use rmdp_krelation::tuple::Value;
use rmdp_noise::GroupBudgetPolicy;
use rmdp_observe::{CacheOutcome, NoopRecorder, Recorder, Stage};
use rmdp_runtime::par_try_map_indexed;
use std::sync::Arc;

/// What one [`release_plan`] call produced beyond the release itself: how
/// the cache behaved, how much LP work ran on this call (zero on a hit),
/// and — when the miss was served by re-deriving a parked pre-delta entry —
/// which refresh tier did it.
pub(crate) struct ReleaseOutcome {
    pub(crate) release: Release,
    pub(crate) cache: CacheOutcome,
    pub(crate) lp: LpWorkStats,
    pub(crate) refresh: Option<RefreshTier>,
}

/// The noise seed of one group: a stable hash of the report-level seed and
/// the **key value** (type-tagged, so `Int(1)` and `Str("1")` differ).
/// Binding the seed to the value rather than the domain position makes
/// per-key releases invariant under re-declaring the domain in a different
/// order — and keeps the fan-out bit-identical for every `Parallelism`,
/// since every group's stream is fixed before any worker starts.
pub(crate) fn group_seed(report_seed: u64, key: &Value) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_u64(report_seed);
    match key {
        Value::Int(v) => {
            hasher.write_u64(1);
            hasher.write_u64(*v as u64);
        }
        Value::Str(s) => {
            hasher.write_u64(2);
            hasher.write_bytes(s.as_bytes());
        }
        Value::Bool(b) => {
            hasher.write_u64(3);
            hasher.write_u64(u64::from(*b));
        }
    }
    hasher.finish().0 as u64
}

/// Executes a validated scalar plan and releases its aggregate: the tail of
/// every mechanism release, scalar or per group.
///
/// With a cache handle, a fingerprint hit serves the frozen `H`/`G` table
/// directly — skipping plan execution *and* every sequence LP. A miss
/// executes the plan, solves the whole table once (the H and G chains, up to
/// `params.parallelism` workers), publishes it, and releases from it; without
/// a cache handle the same miss path runs without the publish. Noise is
/// drawn from `rng` identically on every path, so hit, miss and uncached
/// releases are bit-identical under the same seed.
pub(crate) fn release_plan<T: Recorder>(
    db: &AnnotatedDatabase,
    plan: &QueryPlan,
    params: MechanismParams,
    rng: &mut StdRng,
    cache: Option<(&SequenceCache, &PlanKey)>,
    recorder: &mut T,
) -> Result<ReleaseOutcome, SqlError> {
    let hit = cache.and_then(|(cache, key)| {
        recorder.enter(Stage::CacheLookup);
        let found = cache.get(key.key);
        recorder.exit(Stage::CacheLookup);
        found
    });
    let (table, outcome, lp, refresh) = match hit {
        Some(hit) => (hit, CacheOutcome::Hit, LpWorkStats::default(), None),
        None => {
            recorder.enter(Stage::Plan);
            let query = build_sensitive_query(db, plan);
            recorder.exit(Stage::Plan);
            recorder.enter(Stage::SequenceSolve);
            // A parked pre-delta entry of the same lineage (swept by
            // `purge_stale` on snapshot swap) turns this miss into a
            // refresh, which republishes it when the delta left the query
            // unchanged and computes cold otherwise; either path is
            // bit-identical to a cold compute on the post-delta data.
            let computed = query.and_then(|query| {
                let base = cache.and_then(|(cache, key)| cache.take_refresh_base(key.lineage));
                match base {
                    Some((base, seed)) => base
                        .refresh(&seed, query, SimplexOptions::default(), params.parallelism)
                        .map(|(table, next_seed, stats)| {
                            (table, next_seed, stats.lp, Some(stats.tier))
                        }),
                    None => FrozenSequences::compute_with_seed(
                        EfficientSequences::new(query),
                        params.parallelism,
                    )
                    .map(|(table, seed, stats)| (table, seed, stats, None)),
                }
                .map_err(SqlError::from)
            });
            recorder.exit(Stage::SequenceSolve);
            let (table, seed, stats, refresh) = computed?;
            let table = Arc::new(table);
            let outcome = match cache {
                Some((cache, key)) => {
                    cache.insert_tagged(
                        key.key,
                        Arc::clone(&table),
                        EntryTag {
                            stamps: key.stamps.clone(),
                            lineage: key.lineage,
                        },
                        Some(Arc::new(seed)),
                    );
                    CacheOutcome::Miss
                }
                None => CacheOutcome::Uncached,
            };
            (table, outcome, stats, refresh)
        }
    };
    let mut mechanism = RecursiveMechanism::new(CachedSequences(table), params)?;
    let release = mechanism.release_recorded(rng, recorder)?;
    Ok(ReleaseOutcome {
        release,
        cache: outcome,
        lp,
        refresh,
    })
}

/// Releases one plan of either shape on `rng`: the per-item body of the
/// session's release pipeline, run inline for a single plan and on each
/// fan-out worker of a batch. Returns the scalar plan's canonical
/// fingerprint (a grouped report has one per group and returns none) and
/// one outcome per mechanism release, in output order (a grouped report's
/// in domain order).
///
/// `params` is the caller's **full per-release** parameter set. A grouped
/// report releases each group with the policy's per-group ε split
/// ([`AnyPlan::release_params`]); β and θ — the sensitivity-relevant fields
/// the cache keys on — stay put, so grouped and scalar traffic share
/// sequence-cache entries. Its `k` groups fan out through [`fan_out`]: one
/// seed is drawn from `rng` per report, and each group's noise stream
/// derives from that seed **and the key value** ([`group_seed`]), so
/// releases are bit-identical across `Parallelism` settings, cached and
/// uncached runs, and re-declared domain orders. The recorder books the
/// report's fingerprints and its whole fan-out as one
/// [`Stage::SequenceSolve`] span; the group workers record nothing.
pub(crate) fn release_any<T: Recorder>(
    db: &AnnotatedDatabase,
    plan: &AnyPlan,
    params: MechanismParams,
    policy: GroupBudgetPolicy,
    rng: &mut StdRng,
    cache: Option<&SequenceCache>,
    recorder: &mut T,
) -> Result<(Option<Fingerprint>, Vec<ReleaseOutcome>), SqlError> {
    let grouped = match plan {
        AnyPlan::Scalar(plan) => {
            recorder.enter(Stage::Fingerprint);
            let key = plan_key(db, plan, &params);
            recorder.exit(Stage::Fingerprint);
            let outcome = release_plan(db, plan, params, rng, cache.map(|c| (c, &key)), recorder)?;
            return Ok((Some(key.key), vec![outcome]));
        }
        AnyPlan::Grouped(grouped) => grouped,
    };
    let group_params = plan.release_params(params, policy);
    let plans: Vec<QueryPlan> = grouped
        .domain
        .iter()
        .map(|v| grouped.group_plan(v))
        .collect();
    // Fingerprints are computed before the fan-out (cheap and pure), so
    // workers only touch the shared cache.
    recorder.enter(Stage::Fingerprint);
    let keys: Option<Vec<PlanKey>> = cache.map(|_| {
        plans
            .iter()
            .map(|p| plan_key(db, p, &group_params))
            .collect()
    });
    recorder.exit(Stage::Fingerprint);
    // lint:allow(rng-confinement): sanctioned seed-schedule derivation — the per-report root comes from the session's logged seed stream
    let report_seed = rng.next_u64();
    let seeds: Vec<u64> = grouped
        .domain
        .iter()
        .map(|v| group_seed(report_seed, v))
        .collect();
    recorder.enter(Stage::SequenceSolve);
    let outcomes = fan_out(group_params, &seeds, |i, params, rng| {
        let key = keys.as_ref().map(|ks| &ks[i]);
        release_plan(
            db,
            &plans[i],
            params,
            rng,
            cache.zip(key),
            &mut NoopRecorder,
        )
    });
    recorder.exit(Stage::SequenceSolve);
    Ok((None, outcomes?))
}

/// Runs `release(i, params, rng)` once per seed on the worker pool, the one
/// fan-out of the release path (a batch's items and a grouped report's
/// groups both go through it). Item `i` draws its noise from an RNG seeded
/// with `seeds[i]`, and `par_try_map_indexed` returns results in index
/// order, so the output is bit-identical for every `Parallelism`.
///
/// The fan-out level owns the concurrency: the worker budget is split so
/// thread counts do not multiply, and workers left over by fewer items than
/// workers are handed to each item's own table solve.
pub(crate) fn fan_out<R: Send>(
    params: MechanismParams,
    seeds: &[u64],
    release: impl Fn(usize, MechanismParams, &mut StdRng) -> Result<R, SqlError> + Sync,
) -> Result<Vec<R>, SqlError> {
    let per_item = params.parallelism.workers() / seeds.len().max(1);
    let worker_params = params.with_parallelism(if per_item > 1 {
        Parallelism::Threads(per_item)
    } else {
        Parallelism::Serial
    });
    par_try_map_indexed(params.parallelism, seeds.len(), |i| {
        // lint:allow(rng-confinement): sanctioned construction — each worker's RNG descends from the logged seed schedule, so replay is bit-identical
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        release(i, worker_params, &mut rng)
    })
}

/// Executes the plan and wraps its annotated output as the linear query the
/// mechanism aggregates.
pub(crate) fn build_sensitive_query(
    db: &AnnotatedDatabase,
    plan: &QueryPlan,
) -> Result<SensitiveKRelation, SqlError> {
    let output = execute(db, plan)?;

    // Validate all weights before handing them to the mechanism (whose
    // constructor asserts) so bad aggregates surface as SqlError.
    for (tuple, _) in output.iter() {
        weigh(plan, tuple)?;
    }
    let participants = db.universe().ids().collect();
    Ok(SensitiveKRelation::new(&output, participants, |t| {
        weigh(plan, t).expect("weights validated above")
    }))
}
