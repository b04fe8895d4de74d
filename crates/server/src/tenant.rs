//! Per-tenant mutable state: budgets, admission indices and the replay log.
//!
//! Everything schedule-dependent about one tenant funnels through one
//! mutex: the reservation of a query's cost, the assignment of its
//! per-tenant admission index (the seed binding — see [`crate::seed`]), the
//! in-flight cap, and the append to the replay log all happen under the
//! tenant's lock in one critical section, so they are mutually atomic.
//! Two of the tenant's own queries racing can never double-spend a budget
//! only one fits in, never share an admission index, and never interleave
//! log entries out of admission order. Different tenants use different
//! locks and never contend.
//!
//! The ε ledgers themselves live in a [`BudgetRegistry`] — the noise
//! crate's thread-safe map of per-tenant
//! [`BudgetAccountant`](rmdp_noise::BudgetAccountant)s — and the registry
//! here layers the server's admission state on top.

use crate::seed::derive_tenant_seed;
use rmdp_noise::{BudgetExhausted, BudgetRegistry, PrivacyBudget};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One admitted query in a tenant's replay log: the admission index its
/// noise seed derives from, the SQL text to re-execute, and the catalog
/// snapshot version it was admitted against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmittedQuery {
    /// The per-tenant admission index (0-based, gapless).
    pub index: u64,
    /// The query text as admitted.
    pub sql: String,
    /// Version of the [`CatalogSnapshot`](rmdp_sql::CatalogSnapshot) the
    /// query executed over. Ingests advance the server's snapshot, and
    /// replay must re-execute each query over the *same* data it originally
    /// saw, or interleaved ingests would change the replayed answers.
    pub snapshot_version: u64,
}

/// The mutable half of one tenant, guarded by one mutex.
#[derive(Debug)]
pub(crate) struct TenantMut {
    /// Root of this tenant's seed stream.
    pub(crate) seed: u64,
    /// Queries currently executing for this tenant.
    pub(crate) in_flight: usize,
    /// Every admitted query in admission order (including ones that later
    /// failed and were refunded — replay reproduces their failures too), as
    /// the id of its text in `texts`. An entry's position is its admission
    /// index, so the log grows by 4 bytes a request.
    pub(crate) log: Vec<u32>,
    /// Each distinct text in `log`, stored once and indexed by its id.
    pub(crate) texts: Vec<Arc<str>>,
    /// The id of each text in `texts`.
    pub(crate) text_ids: HashMap<Arc<str>, u32>,
    /// The snapshot version each admission saw, as runs of
    /// `(first admission index, version)`: a run starts wherever the
    /// version differs from the previous admission's. Versions are not
    /// monotone in admission order — two in-flight queries can pin `v` and
    /// `v + 1` and then reserve in either order — so a version can recur.
    pub(crate) versions: Vec<(u64, u64)>,
}

/// The server's tenant table: per-tenant ε ledgers (behind the noise
/// crate's [`BudgetRegistry`]) plus per-tenant admission state.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    budgets: BudgetRegistry,
    tenants: RwLock<BTreeMap<String, Arc<Mutex<TenantMut>>>>,
}

/// What one admission reservation decided, under the tenant lock.
#[derive(Debug)]
pub(crate) enum Reservation {
    /// Cost reserved; execute with this admission index.
    Admitted {
        /// The query's per-tenant admission index.
        index: u64,
        /// The tenant's seed-stream root (for deriving the query seed).
        tenant_seed: u64,
    },
    /// The tenant's in-flight cap is full. Nothing reserved.
    Busy {
        /// In-flight count at refusal time.
        in_flight: usize,
    },
    /// The ledger refused the cost. Nothing reserved.
    OverBudget(BudgetExhausted),
    /// The tenant's log holds 2³² distinct texts, and a new one has no id
    /// left. Nothing reserved.
    LogFull,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `tenant` with budget `total`; its seed stream derives from
    /// `server_seed` and its name. Returns `false` (leaving existing state
    /// untouched) if the tenant already exists.
    pub fn register(&self, tenant: &str, total: PrivacyBudget, server_seed: u64) -> bool {
        if !self.budgets.register(tenant, total) {
            return false;
        }
        // Throughout the registry, lock poisoning is recovered rather than
        // propagated: every critical section is panic-free (the lint's
        // panic-freedom rule enforces that), so a poisoned flag can only be
        // inherited from a test or foreign unwind — and one tenant's panic
        // must never start refusing every other tenant's requests.
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                tenant.to_owned(),
                Arc::new(Mutex::new(TenantMut {
                    seed: derive_tenant_seed(server_seed, tenant),
                    in_flight: 0,
                    log: Vec::new(),
                    texts: Vec::new(),
                    text_ids: HashMap::new(),
                    versions: Vec::new(),
                })),
            );
        true
    }

    /// All registered tenant names, in deterministic order.
    pub fn names(&self) -> Vec<String> {
        self.budgets.names()
    }

    /// The tenant's remaining budget, or `None` for unknown tenants.
    pub fn remaining(&self, tenant: &str) -> Option<PrivacyBudget> {
        self.budgets.remaining(tenant)
    }

    /// The tenant's spent budget, or `None` for unknown tenants.
    pub fn spent(&self, tenant: &str) -> Option<PrivacyBudget> {
        self.budgets.spent(tenant)
    }

    /// The tenant's replay log (admission order), or `None` for unknown
    /// tenants.
    pub fn query_log(&self, tenant: &str) -> Option<Vec<AdmittedQuery>> {
        let state = self.state(tenant)?;
        let t = state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut runs = t.versions.iter().peekable();
        let mut snapshot_version = 0;
        t.log
            .iter()
            .zip(0..)
            .map(|(&id, index)| {
                if let Some(&(_, version)) = runs.next_if(|&&(first, _)| first == index) {
                    snapshot_version = version;
                }
                Some(AdmittedQuery {
                    index,
                    sql: t.texts.get(id as usize)?.to_string(),
                    snapshot_version,
                })
            })
            .collect()
    }

    /// The tenant's seed-stream root, or `None` for unknown tenants.
    pub fn tenant_seed(&self, tenant: &str) -> Option<u64> {
        let state = self.state(tenant)?;
        let t = state.lock().unwrap_or_else(PoisonError::into_inner);
        Some(t.seed)
    }

    pub(crate) fn state(&self, tenant: &str) -> Option<Arc<Mutex<TenantMut>>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .cloned()
    }

    /// The admission critical section: under the tenant's lock, check the
    /// in-flight cap, reserve `cost` on the ledger, assign the admission
    /// index, bump in-flight, and append to the replay log — atomically.
    /// Returns `None` for unknown tenants.
    pub(crate) fn reserve(
        &self,
        tenant: &str,
        sql: &str,
        cost: PrivacyBudget,
        max_in_flight: usize,
        snapshot_version: u64,
    ) -> Option<Reservation> {
        let state = self.state(tenant)?;
        let ledger = self.budgets.handle(tenant)?;
        let mut t = state.lock().unwrap_or_else(PoisonError::into_inner);
        if t.in_flight >= max_in_flight {
            return Some(Reservation::Busy {
                in_flight: t.in_flight,
            });
        }
        let known = t.text_ids.get(sql).copied();
        // Decided before the ledger is touched, so a full log reserves no ε.
        let Some(id) = known.or_else(|| next_text_id(t.texts.len())) else {
            return Some(Reservation::LogFull);
        };
        // Lock order is always tenant → ledger (the only place both are
        // held), so the pair cannot deadlock.
        let mut acc = ledger.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = acc.try_spend(cost) {
            return Some(Reservation::OverBudget(e));
        }
        drop(acc);
        let index = t.log.len() as u64;
        t.in_flight += 1;
        if known.is_none() {
            let text: Arc<str> = Arc::from(sql);
            t.text_ids.insert(Arc::clone(&text), id);
            t.texts.push(text);
        }
        t.log.push(id);
        if t.versions.last().map(|&(_, version)| version) != Some(snapshot_version) {
            t.versions.push((index, snapshot_version));
        }
        Some(Reservation::Admitted {
            index,
            tenant_seed: t.seed,
        })
    }

    /// Ends an admitted query's flight. When it failed (released nothing),
    /// `refund` returns the reserved cost to the ledger.
    pub(crate) fn finish(&self, tenant: &str, cost: PrivacyBudget, refund: bool) {
        if let Some(state) = self.state(tenant) {
            let mut t = state.lock().unwrap_or_else(PoisonError::into_inner);
            t.in_flight = t.in_flight.saturating_sub(1);
        }
        if refund {
            if let Some(ledger) = self.budgets.handle(tenant) {
                ledger
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .refund(cost);
            }
        }
    }
}

/// The id a new text gets in a log that already holds `texts` distinct
/// texts, or `None` once all 2³² ids are taken. A truncating cast here would
/// hand out an id that already names another text and corrupt replay.
fn next_text_id(texts: usize) -> Option<u32> {
    u32::try_from(texts).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_ids_run_out_after_two_to_the_32_texts() {
        assert_eq!(next_text_id(0), Some(0));
        assert_eq!(next_text_id(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(next_text_id(u32::MAX as usize + 1), None);
    }

    #[test]
    fn repeated_texts_share_one_allocation_and_keep_admission_order() {
        let registry = TenantRegistry::new();
        registry.register("alice", PrivacyBudget::pure(8.0), 1);
        let admissions = [
            ("SELECT COUNT(*) FROM visits", 0),
            ("SELECT COUNT(*) FROM residents", 0),
            ("SELECT COUNT(*) FROM visits", 1),
        ];
        for (sql, version) in admissions {
            let reservation = registry.reserve("alice", sql, PrivacyBudget::pure(1.0), 8, version);
            assert!(matches!(reservation, Some(Reservation::Admitted { .. })));
        }

        let state = registry.state("alice").unwrap();
        let t = state.lock().unwrap();
        assert_eq!(t.log, [0, 1, 0]);
        assert_eq!(t.texts.len(), 2);
        assert_eq!(t.text_ids.len(), 2);
        drop(t);

        let log = registry.query_log("alice").unwrap();
        let got: Vec<(u64, &str, u64)> = log
            .iter()
            .map(|q| (q.index, q.sql.as_str(), q.snapshot_version))
            .collect();
        let want: Vec<(u64, &str, u64)> = admissions
            .iter()
            .zip(0..)
            .map(|(&(sql, version), index)| (index, sql, version))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_versions_round_trip_out_of_order() {
        let registry = TenantRegistry::new();
        registry.register("alice", PrivacyBudget::pure(8.0), 1);
        // Two in-flight queries can pin v and v + 1 and reserve in either
        // order, so a version recurs after a later one.
        let versions = [0, 0, 1, 0];
        for version in versions {
            let reservation = registry.reserve(
                "alice",
                "SELECT COUNT(*) FROM visits",
                PrivacyBudget::pure(1.0),
                8,
                version,
            );
            assert!(matches!(reservation, Some(Reservation::Admitted { .. })));
        }

        let state = registry.state("alice").unwrap();
        assert_eq!(state.lock().unwrap().versions, [(0, 0), (2, 1), (3, 0)]);
        let log = registry.query_log("alice").unwrap();
        let got: Vec<(u64, u64)> = log.iter().map(|q| (q.index, q.snapshot_version)).collect();
        assert_eq!(got, [(0, 0), (1, 0), (2, 1), (3, 0)]);
        assert!(log.iter().all(|q| q.sql == "SELECT COUNT(*) FROM visits"));
    }
}
