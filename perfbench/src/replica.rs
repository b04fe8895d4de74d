//! An in-process replica of the server's release path, built only from the
//! layers' public functions, so the traced run can put a span around each
//! layer call. It keeps its own sequence cache and its own snapshot chain,
//! and seeds each release the way the server does, so its answers must be
//! bit-identical to the wire's.

use crate::data::{params, Snapshot};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmdp_core::{
    CachedSequences, EfficientSequences, EntryTag, FrozenSequences, LpWorkStats,
    RecursiveMechanism, RefreshTier, SensitiveKRelation, SequenceCache, SimplexOptions,
};
use rmdp_krelation::tuple::Tuple;
use rmdp_sql::exec::{execute, weigh};
use rmdp_sql::{parse, plan_key, plan_query, AnyPlan, QueryOutput, SqlSession};
use std::sync::Arc;

/// What one miss cost the sequence layer.
#[derive(Clone, Copy, Debug)]
pub struct Miss {
    pub lp: LpWorkStats,
    pub tier: Option<RefreshTier>,
    pub participants: usize,
    pub bytes: usize,
}

/// One replica release: the published fields plus what the layers did.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `(noisy, epsilon)` per release: one for a scalar, one per group.
    pub releases: Vec<(f64, f64)>,
    /// Exact answer of a scalar (compared with the graph count, never with
    /// anything from the wire).
    pub true_answer: Option<f64>,
    /// Output rows of the executed plan, on a miss.
    pub rows: Option<usize>,
    pub hit: bool,
    pub miss: Option<Miss>,
}

/// What one fork of the snapshot chain did.
#[derive(Clone, Copy, Debug)]
pub struct Fork {
    pub swept: usize,
    pub banked: usize,
}

pub struct Replica {
    cache: Arc<SequenceCache>,
    snapshots: Vec<Snapshot>,
}

impl Replica {
    /// A replica over the server's version-0 snapshot with an empty cache of
    /// the server's capacity.
    pub fn new(base: Snapshot, capacity: usize) -> Self {
        Replica {
            cache: SequenceCache::shared(capacity),
            snapshots: vec![base],
        }
    }

    /// Appends `rows` to `table` as a new snapshot version and sweeps the
    /// cache entries it made stale, as `DpServer::ingest` does.
    pub fn fork<T: Tracer>(
        &mut self,
        t: &mut T,
        table: &str,
        rows: Vec<Tuple>,
    ) -> Result<Fork, String> {
        let latest = self
            .snapshots
            .last()
            .expect("the chain starts at version 0");
        let span = t.enter("krel.fork");
        let next = latest.with_delta(table, rows).map_err(|e| e.to_string())?;
        t.exit(span);
        let span = t.enter("cache.purge");
        let swept = self
            .cache
            .purge_stale(&next.database().current_epoch_stamps());
        t.exit(span);
        self.snapshots.push(next);
        Ok(Fork {
            swept,
            banked: self.cache.banked_refresh_bases(),
        })
    }

    /// Releases `sql` over snapshot `version` with noise seed `seed`.
    pub fn release<T: Tracer>(
        &self,
        t: &mut T,
        version: u64,
        sql: &str,
        seed: u64,
    ) -> Result<Outcome, String> {
        let snapshot = self
            .snapshots
            .get(version as usize)
            .ok_or_else(|| format!("no replica snapshot at version {version}"))?;
        let db = snapshot.database();
        let params = params();
        let root = t.enter("request");

        let span = t.enter("sql.parse");
        let ast = parse(sql).map_err(|e| e.to_string())?;
        t.exit(span);
        let span = t.enter("sql.plan");
        let planned = plan_query(db, &ast).map_err(|e| e.to_string())?;
        t.exit(span);

        let plan = match planned {
            AnyPlan::Scalar(plan) => plan,
            AnyPlan::Grouped(_) => {
                // Per-group seeds derive inside the crate, so a grouped
                // report is released whole through a session seeded like
                // the server's.
                let span = t.enter("sql.session_grouped");
                let out = SqlSession::over(Arc::clone(snapshot), seed)
                    .with_sequence_cache(Arc::clone(&self.cache))
                    .query(sql)
                    .map_err(|e| e.to_string())?;
                t.exit(span);
                t.exit(root);
                let QueryOutput::Grouped(report) = out else {
                    return Err("grouped plan released a non-grouped output".into());
                };
                return Ok(Outcome {
                    releases: report
                        .groups
                        .iter()
                        .map(|g| (g.release.noisy_answer, g.release.epsilon_spent))
                        .collect(),
                    true_answer: None,
                    rows: None,
                    hit: false,
                    miss: None,
                });
            }
        };

        let span = t.enter("sql.fingerprint");
        let key = plan_key(db, &plan, &params);
        t.exit(span);
        let span = t.enter("cache.lookup");
        let cached = self.cache.get(key.key);
        t.exit(span);

        let (frozen, rows, miss) = match cached {
            Some(frozen) => (frozen, None, None),
            None => {
                let span = t.enter("sql.exec");
                let output = execute(db, &plan).map_err(|e| e.to_string())?;
                for (tuple, _) in output.iter() {
                    weigh(&plan, tuple).map_err(|e| e.to_string())?;
                }
                let query = SensitiveKRelation::new(&output, db.universe().ids().collect(), |t| {
                    weigh(&plan, t).expect("weights validated above")
                });
                t.exit(span);
                let participants = query.num_participants();
                let span = t.enter("cache.take_base");
                let base = self.cache.take_refresh_base(key.lineage);
                t.exit(span);
                let (frozen, seed_out, lp, tier) = match base {
                    Some((base, refresh_seed)) => {
                        let span = t.enter("seq.refresh");
                        let (frozen, next, stats) = base
                            .refresh(
                                &refresh_seed,
                                query,
                                SimplexOptions::default(),
                                params.parallelism,
                            )
                            .map_err(|e| e.to_string())?;
                        t.exit(span);
                        (frozen, next, stats.lp, Some(stats.tier))
                    }
                    None => {
                        let span = t.enter("seq.compute");
                        let (frozen, next, lp) = FrozenSequences::compute_with_seed(
                            EfficientSequences::new(query),
                            params.parallelism,
                        )
                        .map_err(|e| e.to_string())?;
                        t.exit(span);
                        (frozen, next, lp, None)
                    }
                };
                let bytes = frozen.size_bytes();
                let frozen = Arc::new(frozen);
                let span = t.enter("cache.insert");
                self.cache.insert_tagged(
                    key.key,
                    Arc::clone(&frozen),
                    EntryTag {
                        stamps: key.stamps.clone(),
                        lineage: key.lineage,
                    },
                    Some(Arc::new(seed_out)),
                );
                t.exit(span);
                let miss = Miss {
                    lp,
                    tier,
                    participants,
                    bytes,
                };
                (frozen, Some(output.len()), Some(miss))
            }
        };

        // The exact answer is H_|P|, read from the sequences rather than
        // from the release, whose diagnostics are not meant to leave it.
        let true_answer = frozen.h_entries().last().copied();
        let span = t.enter("mech.release");
        let mut rng = StdRng::seed_from_u64(seed);
        let release = RecursiveMechanism::new(CachedSequences(frozen), params)
            .and_then(|mut m| m.release(&mut rng))
            .map_err(|e| e.to_string())?;
        t.exit(span);
        t.exit(root);
        Ok(Outcome {
            releases: vec![(release.noisy_answer, release.epsilon_spent)],
            true_answer,
            rows,
            hit: miss.is_none(),
            miss,
        })
    }
}
