//! Cross-query sequence cache.
//!
//! The recursive mechanism's cost is entirely in solving the `H`/`G`
//! sequences — two LP chains of `2(|P_named|+1)` LPs over the query's
//! distinct annotations (Sec. 5.3). Production DP-SQL traffic, however, is dominated by *repeated query shapes* (Chorus:
//! Johnson, Near, Song & Sarwate; FLEX: Johnson, Near & Song), so the second
//! structurally identical query over the same data should not pay the
//! simplex again. This module provides the storage layer of that reuse:
//!
//! * [`FrozenSequences`] — the complete table of one query: every
//!   `H_i`/`G_i` value plus the bounding factor. The LP-based
//!   [`EfficientSequences`] and the subset-enumeration [`GeneralSequences`]
//!   both produce one, and the
//!   [`RecursiveMechanism`](crate::RecursiveMechanism) releases only from a
//!   shared table ([`CachedSequences`]), cached or freshly solved alike.
//! * [`SequenceCache`] — a thread-safe, capacity-bounded LRU mapping
//!   [`Fingerprint`] keys to `Arc<FrozenSequences>`, with hit/miss/eviction
//!   counters surfaced through [`CacheStats`].
//!
//! ## What caching can and cannot change
//!
//! A frozen table stores the *exact* values the cold path computes — the
//! same deterministic warm-started chains behind
//! [`EfficientSequences::solve_table`] — and the mechanism draws its noise
//! per release from the caller's RNG either way. A cache hit therefore skips
//! all LP work but leaves the released values **bit-identical** to a cold
//! run under the same seed: caching is a wall-clock optimisation, never a
//! distribution change.
//!
//! ## Keying discipline
//!
//! The cache itself is key-agnostic: it stores whatever the caller
//! fingerprints. Soundness lives in the key — a key must determine the
//! sequence values, i.e. it must cover the canonical query plan, the
//! database identity *and* mutation epoch (see
//! [`AnnotatedDatabase::annotation_epoch`](rmdp_krelation::annotate::AnnotatedDatabase::annotation_epoch)),
//! and any parameter that shapes the values. `rmdp_sql::fingerprint` is the
//! reference implementation of that contract.
//!
//! [`EfficientSequences`]: crate::EfficientSequences
//! [`GeneralSequences`]: crate::GeneralSequences

use crate::efficient::{EfficientSequences, LpWorkStats, RefreshSeed, RefreshStats, RefreshTier};
use crate::error::MechanismError;
use crate::krelation_query::SensitiveKRelation;
use rmdp_krelation::fingerprint::Fingerprint;
use rmdp_krelation::hash::FxHashMap;
use rmdp_lp::SimplexOptions;
use rmdp_runtime::Parallelism;
use std::sync::{Arc, Mutex};

/// Default number of frozen sequence tables a cache holds before evicting.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// The complete table of one query: every `H_i` and `G_i` value plus the
/// bounding factor `g`.
///
/// The table is `Send + Sync` plain data (`2(|P|+1)` floats), so it is
/// cheap to share behind an [`Arc`] across sessions and worker threads.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenSequences {
    h: Vec<f64>,
    g: Vec<f64>,
    bounding_factor: f64,
}

impl FrozenSequences {
    /// A table from its entries (`h.len() == g.len() == |P| + 1`).
    pub(crate) fn from_entries(h: Vec<f64>, g: Vec<f64>, bounding_factor: f64) -> Self {
        debug_assert!(!h.is_empty() && h.len() == g.len());
        FrozenSequences {
            h,
            g,
            bounding_factor,
        }
    }

    /// [`EfficientSequences::solve_table`] plus a [`RefreshSeed`], so a
    /// later [`refresh`](Self::refresh) can tell whether a data delta changed
    /// the query, and the LP work the solve performed (telemetry attributes
    /// it to the query that filled the cache).
    pub fn compute_with_seed(
        sequences: EfficientSequences,
        parallelism: Parallelism,
    ) -> Result<(Self, RefreshSeed, LpWorkStats), MechanismError> {
        let (table, stats) = sequences.solve_table(parallelism)?;
        Ok((table, sequences.refresh_seed(), stats))
    }

    /// Re-derives this table for the **post-delta** query, bit-identical
    /// (per seed) to a cold [`compute_with_seed`](Self::compute_with_seed)
    /// of `query`:
    ///
    /// * [`RefreshTier::Unchanged`] — `query` is structurally identical to
    ///   the seeded one: republish the frozen values, zero LP work;
    /// * [`RefreshTier::ColdRebuild`] — anything changed: the cold
    ///   [`compute_with_seed`](Self::compute_with_seed) of `query` under
    ///   `options`, so both sides run one code path.
    ///
    /// Returns the refreshed table, a fresh seed for the *next* delta,
    /// and what the refresh cost.
    pub fn refresh(
        &self,
        seed: &RefreshSeed,
        query: SensitiveKRelation,
        options: SimplexOptions,
        parallelism: Parallelism,
    ) -> Result<(Self, RefreshSeed, RefreshStats), MechanismError> {
        let tier = seed.tier_for(&query);
        if tier == RefreshTier::Unchanged {
            return Ok((
                self.clone(),
                seed.clone(),
                RefreshStats {
                    tier,
                    lp: LpWorkStats::default(),
                },
            ));
        }
        let (frozen, next_seed, lp) = Self::compute_with_seed(
            EfficientSequences::new(query).with_solver_options(options),
            parallelism,
        )?;
        Ok((frozen, next_seed, RefreshStats { tier, lp }))
    }

    /// Number of participants `|P|`.
    pub fn num_participants(&self) -> usize {
        self.h.len() - 1
    }

    /// The `H` entries `H_0 … H_{|P|}`.
    pub fn h_entries(&self) -> &[f64] {
        &self.h
    }

    /// The `G` entries `G_0 … G_{|P|}`.
    pub fn g_entries(&self) -> &[f64] {
        &self.g
    }

    /// The factor `g` of the g-bounding property (1 for the general
    /// instantiation, 2 for the efficient one).
    pub fn bounding_factor(&self) -> f64 {
        self.bounding_factor
    }

    /// Approximate heap size of the table in bytes (diagnostics).
    pub fn size_bytes(&self) -> usize {
        (self.h.capacity() + self.g.capacity()) * std::mem::size_of::<f64>()
    }
}

/// A shared table: what the [`RecursiveMechanism`](crate::RecursiveMechanism)
/// releases from. The `Arc` keeps a cached table alive even if the cache
/// evicts it mid-release.
#[derive(Clone, Debug)]
pub struct CachedSequences(pub Arc<FrozenSequences>);

impl From<FrozenSequences> for CachedSequences {
    fn from(table: FrozenSequences) -> Self {
        CachedSequences(Arc::new(table))
    }
}

/// Cumulative counters of one [`SequenceCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a frozen table.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Tables inserted (including overwrites of an existing key).
    pub insertions: u64,
    /// Tables evicted to respect the capacity bound.
    pub evictions: u64,
    /// Tables swept by [`SequenceCache::purge_stale`] because their epoch
    /// stamps are no longer live on the serving snapshot. Counted separately
    /// from capacity `evictions`: stale sweeps are correctness hygiene (the
    /// key can never be looked up again), not memory pressure.
    pub evictions_stale: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Epoch/lineage tags of one cache entry, supplied by epoch-aware callers
/// ([`SequenceCache::insert_tagged`]).
///
/// * `stamps` — the epoch stamps the entry's key was built from (scanned
///   tables + universe). [`SequenceCache::purge_stale`] sweeps the entry
///   once any stamp stops being live, because stamps are globally unique:
///   a key hashing a dead stamp can never be produced again.
/// * `lineage` — the epoch-*free* structural fingerprint of the plan. Two
///   keys of the same query shape across different epochs share a lineage,
///   which is how a swept entry's [`RefreshSeed`] finds its way to the
///   post-delta recompute of the same query ([`SequenceCache::take_refresh_base`]).
#[derive(Clone, Debug)]
pub struct EntryTag {
    /// Epoch stamps the entry's cache key hashes.
    pub stamps: Vec<u64>,
    /// Epoch-free structural fingerprint of the plan.
    pub lineage: Fingerprint,
}

/// One cache slot: the shared snapshot plus its last-used tick and, for
/// epoch-aware entries, the tag + refresh seed that let a snapshot swap
/// park it for re-derivation instead of dropping it.
struct Slot {
    value: Arc<FrozenSequences>,
    last_used: u64,
    tag: Option<EntryTag>,
    seed: Option<Arc<RefreshSeed>>,
}

/// A stale entry parked by [`SequenceCache::purge_stale`], keyed by lineage:
/// the frozen values plus the refresh seed of the newest pre-delta version
/// of one query shape.
struct BankEntry {
    frozen: Arc<FrozenSequences>,
    seed: Arc<RefreshSeed>,
    parked_at: u64,
}

/// The guarded interior of a [`SequenceCache`].
struct CacheInner {
    slots: FxHashMap<u128, Slot>,
    /// Refresh seeds of swept entries, keyed by lineage fingerprint.
    seed_bank: FxHashMap<u128, BankEntry>,
    stats: CacheStats,
    /// Logical clock driving LRU order; bumped on every touch.
    tick: u64,
}

/// A thread-safe, capacity-bounded LRU cache of completed sequence tables.
///
/// All methods take `&self`; interior state lives behind one [`Mutex`]. The
/// lock is held only for the map operation itself — never while sequences
/// are being *computed* — so concurrent batch workers contend for
/// nanoseconds, and two workers racing on the same missing key simply both
/// compute the (deterministic, bit-identical) table and the second insert
/// overwrites the first with an equal value.
pub struct SequenceCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl Default for SequenceCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl SequenceCache {
    /// A cache holding at most `capacity` frozen tables (`capacity` is
    /// clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SequenceCache {
            inner: Mutex::new(CacheInner {
                slots: FxHashMap::default(),
                seed_bank: FxHashMap::default(),
                stats: CacheStats::default(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Convenience constructor returning the cache ready for sharing.
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tables currently cached.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Drops every cached table and parked refresh base (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.slots.clear();
        inner.seed_bank.clear();
    }

    /// Looks `key` up, counting a hit or miss and refreshing LRU order.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<FrozenSequences>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.slots.get_mut(&key.0) {
            Some(slot) => {
                slot.last_used = tick;
                let value = Arc::clone(&slot.value);
                inner.stats.hits += 1;
                Some(value)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) `key`, evicting least-recently-used tables
    /// while over capacity.
    pub fn insert(&self, key: Fingerprint, value: Arc<FrozenSequences>) {
        self.insert_slot(key, value, None, None);
    }

    /// Inserts (or overwrites) `key` with its epoch/lineage tag and refresh
    /// seed, so a later [`purge_stale`](Self::purge_stale) can park the
    /// entry for re-derivation instead of dropping it. Also retires any
    /// banked predecessor of the same lineage — the new entry supersedes it
    /// as the freshest refresh base.
    pub fn insert_tagged(
        &self,
        key: Fingerprint,
        value: Arc<FrozenSequences>,
        tag: EntryTag,
        seed: Option<Arc<RefreshSeed>>,
    ) {
        self.insert_slot(key, value, Some(tag), seed);
    }

    fn insert_slot(
        &self,
        key: Fingerprint,
        value: Arc<FrozenSequences>,
        tag: Option<EntryTag>,
        seed: Option<Arc<RefreshSeed>>,
    ) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(tag) = &tag {
            inner.seed_bank.remove(&tag.lineage.0);
        }
        inner.slots.insert(
            key.0,
            Slot {
                value,
                last_used: tick,
                tag,
                seed,
            },
        );
        inner.stats.insertions += 1;
        while inner.slots.len() > self.capacity {
            let Some((&oldest, _)) = inner.slots.iter().min_by_key(|(_, slot)| slot.last_used)
            else {
                break;
            };
            inner.slots.remove(&oldest);
            inner.stats.evictions += 1;
        }
    }

    /// Sweeps every tagged entry whose epoch stamps are not all contained in
    /// `live_stamps` (the serving snapshot's
    /// [`current_epoch_stamps`](rmdp_krelation::annotate::AnnotatedDatabase::current_epoch_stamps)).
    /// Swept entries are counted as [`CacheStats::evictions_stale`] — their
    /// keys hash dead stamps and can never be looked up again — and entries
    /// carrying a refresh seed are parked in the lineage-keyed seed bank so
    /// the first post-delta recompute of the same query shape can
    /// [`refresh`](FrozenSequences::refresh) from it, republishing without
    /// LP work when the delta left that query unchanged.
    /// Untagged entries are left alone. Returns the number of swept entries.
    ///
    /// Call this on snapshot swap: the sweep is what keeps a long-running
    /// server's cache from carrying one dead generation per delta until
    /// capacity pressure happens to reach it.
    pub fn purge_stale(&self, live_stamps: &[u64]) -> usize {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let stale: Vec<u128> = inner
            .slots
            .iter()
            .filter(|(_, slot)| {
                slot.tag
                    .as_ref()
                    .is_some_and(|tag| tag.stamps.iter().any(|s| !live_stamps.contains(s)))
            })
            .map(|(&key, _)| key)
            .collect();
        for key in &stale {
            let Some(slot) = inner.slots.remove(key) else {
                continue;
            };
            inner.stats.evictions_stale += 1;
            let (Some(tag), Some(seed)) = (slot.tag, slot.seed) else {
                continue;
            };
            inner.seed_bank.insert(
                tag.lineage.0,
                BankEntry {
                    frozen: slot.value,
                    seed,
                    parked_at: tick,
                },
            );
        }
        // The bank obeys the same capacity bound as the live slots; oldest
        // parked lineages go first (they have waited longest unclaimed).
        while inner.seed_bank.len() > self.capacity {
            let Some((&oldest, _)) = inner
                .seed_bank
                .iter()
                .min_by_key(|(_, entry)| entry.parked_at)
            else {
                break;
            };
            inner.seed_bank.remove(&oldest);
        }
        stale.len()
    }

    /// Claims the parked pre-delta version of the query shape `lineage`:
    /// the frozen values plus the refresh seed the next compute of that
    /// shape should [`refresh`](FrozenSequences::refresh) from. Consuming —
    /// the claimant republishes a refreshed entry (with a fresh seed) via
    /// [`insert_tagged`](Self::insert_tagged), which supersedes the banked
    /// one; a racing second claimant simply computes cold, which is
    /// bit-identical anyway.
    pub fn take_refresh_base(
        &self,
        lineage: Fingerprint,
    ) -> Option<(Arc<FrozenSequences>, Arc<RefreshSeed>)> {
        let mut inner = self.lock();
        let entry = inner.seed_bank.remove(&lineage.0)?;
        Some((entry.frozen, entry.seed))
    }

    /// Number of parked refresh bases currently in the seed bank.
    pub fn banked_refresh_bases(&self) -> usize {
        self.lock().seed_bank.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A poisoned mutex means a panic inside one of the short map-only
        // critical sections above; the map itself is still structurally
        // sound, so keep serving rather than wedging every session.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficient::EfficientSequences;
    use crate::general::GeneralSequences;
    use crate::krelation_query::SensitiveKRelation;
    use crate::mechanism::RecursiveMechanism;
    use crate::params::MechanismParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmdp_krelation::participant::ParticipantId;
    use rmdp_krelation::{Expr, KRelation, Tuple};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn fig2a() -> SensitiveKRelation {
        let mut r = KRelation::new(["t"]);
        r.insert(
            Tuple::new([("t", "abc")]),
            Expr::conjunction_of_vars([p(0), p(1), p(2)]),
        );
        r.insert(
            Tuple::new([("t", "bcd")]),
            Expr::conjunction_of_vars([p(1), p(2), p(3)]),
        );
        r.insert(
            Tuple::new([("t", "cde")]),
            Expr::conjunction_of_vars([p(2), p(3), p(4)]),
        );
        SensitiveKRelation::counting(&r)
    }

    fn frozen_fig2a() -> FrozenSequences {
        let (table, _, _) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(fig2a()),
            Parallelism::Serial,
        )
        .unwrap();
        table
    }

    #[test]
    fn computed_tables_hold_every_entry_of_both_chains() {
        let sequences = EfficientSequences::new(fig2a());
        let (solved, stats) = sequences.solve_table(Parallelism::Serial).unwrap();
        let (frozen, _, seeded_stats) =
            FrozenSequences::compute_with_seed(sequences, Parallelism::Serial).unwrap();
        assert_eq!(frozen, solved);
        assert_eq!(seeded_stats, stats);
        assert_eq!(frozen.num_participants(), 5);
        assert_eq!(frozen.h_entries().len(), 6);
        assert_eq!(frozen.g_entries().len(), 6);
        assert_eq!(frozen.bounding_factor(), 2.0);
        assert_eq!(frozen.size_bytes(), 12 * std::mem::size_of::<f64>());
    }

    #[test]
    fn frozen_general_sequences_work_too() {
        let general = GeneralSequences::build(&fig2a()).unwrap();
        let h_ref = general.h_entries().to_vec();
        let frozen = general.into_table();
        assert_eq!(frozen.h_entries(), &h_ref[..]);
        assert_eq!(frozen.bounding_factor(), 1.0);
    }

    #[test]
    fn cached_release_is_bit_identical_to_a_fresh_table_release() {
        let params = MechanismParams::paper_node_privacy(1.0);
        let cache = SequenceCache::new(2);
        cache.insert(Fingerprint(5), Arc::new(frozen_fig2a()));
        let cached_table = cache.get(Fingerprint(5)).unwrap();
        let mut fresh = RecursiveMechanism::new(frozen_fig2a().into(), params).unwrap();
        let mut cached = RecursiveMechanism::new(CachedSequences(cached_table), params).unwrap();
        let a = fresh
            .release_many(6, &mut StdRng::seed_from_u64(17))
            .unwrap();
        let b = cached
            .release_many(6, &mut StdRng::seed_from_u64(17))
            .unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.noisy_answer, rb.noisy_answer);
            assert_eq!(ra.delta, rb.delta);
            assert_eq!(ra.delta_hat, rb.delta_hat);
            assert_eq!(ra.x, rb.x);
        }
    }

    #[test]
    fn hits_misses_and_insertions_are_counted() {
        let cache = SequenceCache::new(4);
        let key = Fingerprint(42);
        assert!(cache.get(key).is_none());
        let table = Arc::new(frozen_fig2a());
        cache.insert(key, Arc::clone(&table));
        let again = cache.get(key).unwrap();
        assert!(Arc::ptr_eq(&table, &again));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_removes_the_least_recently_used_table() {
        let cache = SequenceCache::new(2);
        let table = Arc::new(frozen_fig2a());
        cache.insert(Fingerprint(1), Arc::clone(&table));
        cache.insert(Fingerprint(2), Arc::clone(&table));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(Fingerprint(1)).is_some());
        cache.insert(Fingerprint(3), Arc::clone(&table));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(Fingerprint(1)).is_some());
        assert!(cache.get(Fingerprint(2)).is_none(), "2 was evicted");
        assert!(cache.get(Fingerprint(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_clamped_and_clear_keeps_counters() {
        let cache = SequenceCache::new(0);
        assert_eq!(cache.capacity(), 1);
        let table = Arc::new(frozen_fig2a());
        cache.insert(Fingerprint(1), Arc::clone(&table));
        cache.insert(Fingerprint(2), table);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn concurrent_access_is_safe_and_deterministic() {
        let cache = SequenceCache::shared(8);
        let key = Fingerprint(7);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let table = cache.get(key).unwrap_or_else(|| {
                        let table = Arc::new(frozen_fig2a());
                        cache.insert(key, Arc::clone(&table));
                        table
                    });
                    assert_eq!(table.h_entries().len(), 6);
                });
            }
        });
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
    }

    /// A var-only counting query: `n` participants, one unit-weight term per
    /// owned tuple, `extra` additional tuples all owned by participant 0.
    fn counting_query(n: u32, extra: usize) -> SensitiveKRelation {
        let mut terms: Vec<(Expr, f64)> = (0..n).map(|i| (Expr::var(p(i)), 1.0)).collect();
        for _ in 0..extra {
            terms.push((Expr::var(p(0)), 1.0));
        }
        SensitiveKRelation::from_terms((0..n).map(p).collect(), terms)
    }

    #[test]
    fn refresh_republishes_structurally_unchanged_queries_without_lp_work() {
        let (frozen, seed, _) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(counting_query(6, 0)),
            Parallelism::Serial,
        )
        .unwrap();
        let (refreshed, next_seed, stats) = frozen
            .refresh(
                &seed,
                counting_query(6, 0),
                SimplexOptions::default(),
                Parallelism::Serial,
            )
            .unwrap();
        assert_eq!(stats.tier, RefreshTier::Unchanged);
        assert_eq!(stats.lp, LpWorkStats::default());
        assert_eq!(refreshed, frozen);
        assert_eq!(next_seed.terms_fingerprint, seed.terms_fingerprint);
    }

    #[test]
    fn weight_only_deltas_rebuild_cold_bit_identically_at_the_cold_lp_cost() {
        // 18 participants → 19 entries → one whole-family chain each.
        let before = counting_query(18, 0);
        let after = counting_query(18, 5); // delta: 5 new tuples, known owners
        let (frozen, seed, _) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(before),
            Parallelism::Serial,
        )
        .unwrap();

        let (cold, cold_seed, cold_stats) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(after.clone()),
            Parallelism::Serial,
        )
        .unwrap();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
        ] {
            let (refreshed, next_seed, stats) = frozen
                .refresh(&seed, after.clone(), SimplexOptions::default(), parallelism)
                .unwrap();
            assert_eq!(stats.tier, RefreshTier::ColdRebuild);
            // The refreshed release surface must be bit-identical to the cold
            // post-delta recompute, for every Parallelism setting…
            assert_eq!(refreshed.h_entries(), cold.h_entries());
            assert_eq!(refreshed.g_entries(), cold.g_entries());
            assert_eq!(refreshed.bounding_factor(), cold.bounding_factor());
            // …and so must its LP work: both sides run one code path.
            assert_eq!(stats.lp, cold_stats);
            // The fresh seed is ready for the next delta.
            assert_eq!(next_seed.terms_fingerprint, cold_seed.terms_fingerprint);
        }
    }

    #[test]
    fn structural_changes_fall_back_to_a_cold_identical_rebuild() {
        let (frozen, seed, _) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(counting_query(6, 0)),
            Parallelism::Serial,
        )
        .unwrap();

        // A new participant changes the variable space: cold rebuild.
        let grown = counting_query(7, 0);
        let (refreshed, _, stats) = frozen
            .refresh(
                &seed,
                grown.clone(),
                SimplexOptions::default(),
                Parallelism::Serial,
            )
            .unwrap();
        assert_eq!(stats.tier, RefreshTier::ColdRebuild);
        let (cold, _) = EfficientSequences::new(grown)
            .solve_table(Parallelism::Serial)
            .unwrap();
        assert_eq!(refreshed, cold);

        // A changed annotation over the same participants rebuilds cold too.
        let mut terms: Vec<(Expr, f64)> = (0..6).map(|i| (Expr::var(p(i)), 1.0)).collect();
        terms.push((Expr::conjunction_of_vars([p(0), p(1)]), 1.0));
        let conj = SensitiveKRelation::from_terms((0..6).map(p).collect(), terms);
        let (refreshed, _, stats) = frozen
            .refresh(
                &seed,
                conj.clone(),
                SimplexOptions::default(),
                Parallelism::Serial,
            )
            .unwrap();
        assert_eq!(stats.tier, RefreshTier::ColdRebuild);
        let (cold, _) = EfficientSequences::new(conj)
            .solve_table(Parallelism::Serial)
            .unwrap();
        assert_eq!(refreshed, cold);
    }

    #[test]
    fn purge_stale_sweeps_dead_epochs_and_parks_refresh_seeds() {
        let cache = SequenceCache::new(8);
        let (frozen, seed, _) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(counting_query(6, 0)),
            Parallelism::Serial,
        )
        .unwrap();
        let frozen = Arc::new(frozen);
        let seed = Arc::new(seed);
        let lineage_a = Fingerprint(100);
        let lineage_b = Fingerprint(200);

        // Entry keyed on stamps {1, 10}; another on {1, 20}; one untagged.
        cache.insert_tagged(
            Fingerprint(1),
            Arc::clone(&frozen),
            EntryTag {
                stamps: vec![1, 10],
                lineage: lineage_a,
            },
            Some(Arc::clone(&seed)),
        );
        cache.insert_tagged(
            Fingerprint(2),
            Arc::clone(&frozen),
            EntryTag {
                stamps: vec![1, 20],
                lineage: lineage_b,
            },
            None,
        );
        cache.insert(Fingerprint(3), Arc::clone(&frozen));

        // Table with stamp 10 was mutated: its stamp died, 20 survived.
        let swept = cache.purge_stale(&[1, 11, 20]);
        assert_eq!(swept, 1);
        assert!(cache.get(Fingerprint(1)).is_none());
        assert!(cache.get(Fingerprint(2)).is_some());
        assert!(
            cache.get(Fingerprint(3)).is_some(),
            "untagged entries survive"
        );
        let stats = cache.stats();
        assert_eq!(stats.evictions_stale, 1);
        assert_eq!(
            stats.evictions, 0,
            "stale sweeps are not capacity evictions"
        );

        // The swept entry's seed is parked under its lineage, claimable once.
        assert_eq!(cache.banked_refresh_bases(), 1);
        let (banked_frozen, banked_seed) = cache.take_refresh_base(lineage_a).unwrap();
        assert!(Arc::ptr_eq(&banked_frozen, &frozen));
        assert!(Arc::ptr_eq(&banked_seed, &seed));
        assert!(cache.take_refresh_base(lineage_a).is_none(), "consuming");
    }

    #[test]
    fn republishing_a_lineage_supersedes_its_banked_predecessor() {
        let cache = SequenceCache::new(8);
        let (frozen, seed, _) = FrozenSequences::compute_with_seed(
            EfficientSequences::new(counting_query(6, 0)),
            Parallelism::Serial,
        )
        .unwrap();
        let frozen = Arc::new(frozen);
        let seed = Arc::new(seed);
        let lineage = Fingerprint(77);
        cache.insert_tagged(
            Fingerprint(1),
            Arc::clone(&frozen),
            EntryTag {
                stamps: vec![10],
                lineage,
            },
            Some(Arc::clone(&seed)),
        );
        assert_eq!(cache.purge_stale(&[11]), 1);
        assert_eq!(cache.banked_refresh_bases(), 1);

        // The post-delta recompute republishes under the new stamp; the
        // parked predecessor is retired with it.
        cache.insert_tagged(
            Fingerprint(2),
            Arc::clone(&frozen),
            EntryTag {
                stamps: vec![11],
                lineage,
            },
            Some(Arc::clone(&seed)),
        );
        assert_eq!(cache.banked_refresh_bases(), 0);
        assert!(cache.take_refresh_base(lineage).is_none());
        // A sweep under the *same* live stamps touches nothing.
        assert_eq!(cache.purge_stale(&[11]), 0);
        assert!(cache.get(Fingerprint(2)).is_some());
    }
}
