//! Canonical plan fingerprints for the cross-query sequence cache.
//!
//! Two SQL strings that compile to *structurally identical* plans over the
//! same annotated database must produce the same fingerprint, so the second
//! one can serve its `H`/`G` sequences from the
//! [`SequenceCache`](rmdp_core::SequenceCache) instead of re-running
//! `2(|P|+1)` LP chains. "Structurally identical" deliberately ignores the
//! three sources of textual noise production query logs are full of
//! (Chorus and FLEX both normalise the same way before caching):
//!
//! * **alias names** — `FROM visits v1 JOIN visits v2` and
//!   `FROM visits a JOIN visits b` are the same query;
//! * **join order** — an inner-join chain is a selection over a cross
//!   product, so `A JOIN B` and `B JOIN A` (with the same predicates) are
//!   the same query — including the induced reclassification of `ON`
//!   conjuncts between equi-keys and residual filters;
//! * **conjunct order** — `WHERE x AND y` and `WHERE y AND x`, and
//!   operand order of symmetric comparisons (`a = b` vs `b = a`,
//!   `a > b` vs `b < a`).
//!
//! ## Canonicalisation
//!
//! The plan is dissolved into order-free parts: the multiset of scanned
//! tables, one flat conjunct multiset (equi keys re-expressed as
//! equalities, plus the join residuals and scan filters holding every other
//! `ON` and `WHERE` conjunct), and the aggregate.
//! Aliases are renamed to canonical indices by grouping them per table
//! name and choosing, among all within-group permutations, the assignment
//! whose serialized encoding is lexicographically smallest — an exact
//! canonical form for self-joins (up to [`MAX_CANON_PERMUTATIONS`]
//! assignments are tried; beyond that the plan order is kept, which is
//! still *sound*, merely blind to some permuted-self-join repeats).
//!
//! ## Soundness
//!
//! A false collision would release one query's answer calibrated with
//! another query's sequences, so the mapping must be injective up to
//! semantic equality: every component (tables, every predicate operand and
//! operator, the aggregate) is length-prefix framed into the encoding, the
//! encoding is hashed with the 128-bit [`FingerprintHasher`],
//! and the database's `instance_id`, its **universe epoch**, and the
//! epoch stamps of **exactly the scanned tables** plus the
//! sensitivity-relevant [`MechanismParams`] fields (`beta`, `theta`) are
//! hashed alongside. Scoping the epoch vector to the scanned tables is
//! what makes invalidation *delta-scoped*: ingesting into table `A`
//! re-keys only the queries that scan `A`; every cached entry over other
//! tables keeps its key byte-for-byte and keeps hitting. The universe
//! epoch is folded into every key because participant-set changes
//! (growth, relabeling) change the sequence length `|P|+1` for *all*
//! queries regardless of which tables they scan.
//!
//! Strictly, *no* params field can change a frozen
//! `H`/`G` value (the sequences are a function of the query relation
//! alone; `β`/`θ` enter only at release time, where the Δ-ladder is
//! rebuilt from the live params against the cached `G` entries), so
//! including `β`/`θ` is deliberate conservative over-keying: a cached
//! table is only ever reused under the identical sensitivity
//! configuration, which keeps the key sound even if a future change
//! freezes ladder-derived data (e.g. Δ itself) into the table. The cost
//! is that a `β`/`θ` parameter sweep over one query re-pays the
//! precompute per setting. Purely noise-scaling fields (`ε₁`, `ε₂`, `μ`)
//! and performance knobs (`parallelism`) are excluded outright: splitting
//! the cache on them would only lower the hit rate.

use crate::ast::Comparison;
use crate::plan::{CompiledOperand, CompiledPredicate, PlanAggregate, QueryPlan};
use rmdp_core::MechanismParams;
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::fingerprint::{Fingerprint, FingerprintHasher};
use rmdp_krelation::tuple::Value;

/// Version tag of the canonical encoding; bump when the encoding changes so
/// stale fingerprints from older builds can never alias new ones.
/// Version 2: the single `annotation_epoch` was replaced by the universe
/// epoch plus the per-table epoch stamps of the scanned tables.
const ENCODING_VERSION: u64 = 2;

/// Cap on how many alias assignments the exact canonicalisation tries (the
/// product of per-table factorials). `7! = 5040` keeps even a 7-way
/// self-join exact while bounding the worst case to well under a
/// millisecond.
pub const MAX_CANON_PERMUTATIONS: usize = 5040;

/// Everything the cache layer needs to know about one
/// `(database state, canonical plan, params)` triple:
///
/// * [`key`](Self::key) — the epoch-scoped cache key: two plans collide iff
///   they are structurally identical **and** every table either plan scans
///   (plus the participant universe) is at the same epoch stamp;
/// * [`lineage`](Self::lineage) — the epoch-*free* structural identity of
///   the plan over this database instance: stable across deltas, it links a
///   post-delta recompute to the pre-delta entry parked in the cache's seed
///   bank so the recompute can warm-refresh instead of solving cold;
/// * [`stamps`](Self::stamps) — the exact epoch stamps the key was minted
///   under (universe first, then the scanned tables in sorted name order),
///   the tag [`SequenceCache::purge_stale`](rmdp_core::SequenceCache::purge_stale)
///   sweeps against on snapshot swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanKey {
    /// The epoch-scoped fingerprint keying the sequence cache.
    pub key: Fingerprint,
    /// The epoch-free structural fingerprint keying the refresh seed bank.
    pub lineage: Fingerprint,
    /// The epoch stamps hashed into `key`: the universe epoch followed by
    /// each scanned table's epoch (sorted, deduplicated table order).
    pub stamps: Vec<u64>,
}

/// Computes the [`PlanKey`] of a plan: the cache key hashing the epoch
/// vector of exactly the scanned tables (universe epoch folded in), the
/// epoch-free lineage, and the stamp vector for staleness sweeps.
pub fn plan_key(db: &AnnotatedDatabase, plan: &QueryPlan, params: &MechanismParams) -> PlanKey {
    let encoding = canonical_plan_encoding(plan);

    // The tables the plan scans, sorted and deduplicated — a self-join
    // reads one table state, so its epoch is hashed once.
    let mut scanned: Vec<&str> = plan.scans().map(|s| s.table.as_str()).collect();
    scanned.sort_unstable();
    scanned.dedup();

    let mut stamps = Vec::with_capacity(scanned.len() + 1);
    stamps.push(db.universe_epoch());

    let mut hasher = FingerprintHasher::new();
    hasher.write_u64(ENCODING_VERSION);
    // Database identity, universe epoch, and the epoch of every scanned
    // table: a delta to any *other* table leaves this key byte-identical.
    hasher.write_u64(db.instance_id());
    hasher.write_u64(db.universe_epoch());
    hasher.write_u64(scanned.len() as u64);
    for table in &scanned {
        let epoch = db.table_epoch(table);
        hasher.write_str(table);
        hasher.write_u64(epoch);
        stamps.push(epoch);
    }
    // Sensitivity-relevant parameters (see module docs for the rationale).
    hasher.write_f64(params.beta);
    hasher.write_f64(params.theta);
    hasher.write_bytes(&encoding);
    let key = hasher.finish();

    // The lineage is the same construction minus every epoch: it survives
    // deltas, so it can pair a post-delta miss with its pre-delta seed.
    let mut hasher = FingerprintHasher::new();
    hasher.write_u64(ENCODING_VERSION);
    hasher.write_u64(db.instance_id());
    hasher.write_f64(params.beta);
    hasher.write_f64(params.theta);
    hasher.write_bytes(&encoding);
    let lineage = hasher.finish();

    PlanKey {
        key,
        lineage,
        stamps,
    }
}

/// The fingerprint keying one `(database state, canonical plan, params)`
/// triple in the sequence cache — [`plan_key`]'s `key` component, kept as
/// the stable entry point for callers that need only the cache key.
pub fn plan_fingerprint(
    db: &AnnotatedDatabase,
    plan: &QueryPlan,
    params: &MechanismParams,
) -> Fingerprint {
    plan_key(db, plan, params).key
}

/// The canonical byte encoding of a plan: equal for structurally identical
/// plans (alias names, join order, conjunct order normalised away),
/// distinct otherwise. Exposed for tests and diagnostics.
pub fn canonical_plan_encoding(plan: &QueryPlan) -> Vec<u8> {
    let scans: Vec<&crate::plan::ScanStep> = plan.scans().collect();
    let aliases: Vec<&str> = scans.iter().map(|s| s.alias.as_str()).collect();

    // Group plan-order alias indices by table name, groups sorted by name.
    // Canonical ids are assigned group-major, so aliases of lexicographically
    // smaller tables always get smaller ids.
    let mut tables: Vec<&str> = scans.iter().map(|s| s.table.as_str()).collect();
    let mut group_names: Vec<&str> = tables.clone();
    group_names.sort_unstable();
    group_names.dedup();
    let groups: Vec<Vec<usize>> = group_names
        .iter()
        .map(|name| (0..tables.len()).filter(|&i| tables[i] == *name).collect())
        .collect();
    tables.sort_unstable();

    let assignments = alias_assignments(&groups);
    let mut best: Option<Vec<u8>> = None;
    for assignment in assignments {
        // assignment[k] = plan index of the alias given canonical id k;
        // invert it to canonical_of[plan index] = canonical id.
        let mut canonical_of = vec![0usize; aliases.len()];
        for (canonical, &plan_idx) in assignment.iter().enumerate() {
            canonical_of[plan_idx] = canonical;
        }
        let encoded = encode_with(plan, &tables, &aliases, &canonical_of);
        if best.as_ref().is_none_or(|b| encoded < *b) {
            best = Some(encoded);
        }
    }
    best.expect("a plan always has at least the FROM scan")
}

/// All canonical-id assignments to try: the cartesian product of each
/// group's permutations, truncated to the identity-only assignment when the
/// product of factorials would exceed [`MAX_CANON_PERMUTATIONS`].
fn alias_assignments(groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut total: usize = 1;
    for g in groups {
        for k in 1..=g.len() {
            total = total.saturating_mul(k);
            if total > MAX_CANON_PERMUTATIONS {
                // Fall back to plan order within every group: sound (the
                // assignment is still deterministic and injective), just
                // blind to permutations of very wide self-joins.
                return vec![groups.concat()];
            }
        }
    }
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new()];
    for g in groups {
        let perms = permutations(g);
        assignments = assignments
            .iter()
            .flat_map(|prefix| {
                perms.iter().map(move |perm| {
                    let mut next = prefix.clone();
                    next.extend_from_slice(perm);
                    next
                })
            })
            .collect();
    }
    assignments
}

/// All permutations of `items` (small inputs only; callers cap the size).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Serializes the plan under one alias→canonical-id assignment.
fn encode_with(
    plan: &QueryPlan,
    sorted_tables: &[&str],
    aliases: &[&str],
    canonical_of: &[usize],
) -> Vec<u8> {
    let mut buf = Vec::new();

    // Scanned tables in canonical-id order (the group-major construction
    // makes this exactly the sorted table list).
    push_u64(&mut buf, sorted_tables.len() as u64);
    for table in sorted_tables {
        push_str(&mut buf, table);
    }

    // One flat conjunct multiset: equi keys as equalities + join residuals
    // + scan filters, each normalised, then sorted and deduplicated
    // (conjunction is idempotent and commutative) — so where the planner
    // placed a conjunct never reaches the key.
    let mut predicates: Vec<Vec<u8>> = Vec::new();
    for step in &plan.joins {
        for (a, b) in &step.equi {
            predicates.push(encode_predicate(
                &CompiledPredicate {
                    lhs: CompiledOperand::Column(a.clone()),
                    op: Comparison::Eq,
                    rhs: CompiledOperand::Column(b.clone()),
                },
                aliases,
                canonical_of,
            ));
        }
        for pred in &step.residual {
            predicates.push(encode_predicate(pred, aliases, canonical_of));
        }
    }
    for pred in plan.scans().flat_map(|s| &s.filter) {
        predicates.push(encode_predicate(pred, aliases, canonical_of));
    }
    predicates.sort_unstable();
    predicates.dedup();
    push_u64(&mut buf, predicates.len() as u64);
    for pred in predicates {
        push_bytes(&mut buf, &pred);
    }

    // The aggregate.
    match &plan.aggregate {
        PlanAggregate::CountStar => buf.push(b'C'),
        PlanAggregate::Sum(attr) => {
            buf.push(b'S');
            encode_column(&mut buf, attr.name(), aliases, canonical_of);
        }
    }
    buf
}

/// Encodes one predicate with symmetric/reversible operators normalised:
/// `a > b` becomes `b < a`, `a >= b` becomes `b <= a`, and the operands of
/// `=` / `<>` are sorted by their encodings.
fn encode_predicate(pred: &CompiledPredicate, aliases: &[&str], canonical_of: &[usize]) -> Vec<u8> {
    let mut lhs = Vec::new();
    encode_operand(&mut lhs, &pred.lhs, aliases, canonical_of);
    let mut rhs = Vec::new();
    encode_operand(&mut rhs, &pred.rhs, aliases, canonical_of);

    let (op, mut lhs, mut rhs) = match pred.op {
        Comparison::Gt => (Comparison::Lt, rhs, lhs),
        Comparison::Ge => (Comparison::Le, rhs, lhs),
        op => (op, lhs, rhs),
    };
    if matches!(op, Comparison::Eq | Comparison::Neq) && rhs < lhs {
        std::mem::swap(&mut lhs, &mut rhs);
    }

    let mut buf = Vec::new();
    buf.push(match op {
        Comparison::Eq => b'=',
        Comparison::Neq => b'!',
        Comparison::Lt => b'<',
        Comparison::Le => b'l',
        Comparison::Gt | Comparison::Ge => unreachable!("normalised above"),
    });
    push_bytes(&mut buf, &lhs);
    push_bytes(&mut buf, &rhs);
    buf
}

fn encode_operand(
    buf: &mut Vec<u8>,
    operand: &CompiledOperand,
    aliases: &[&str],
    canonical_of: &[usize],
) {
    match operand {
        CompiledOperand::Column(attr) => encode_column(buf, attr.name(), aliases, canonical_of),
        CompiledOperand::Literal(value) => match value {
            Value::Int(v) => {
                buf.push(b'I');
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(b'T');
                push_str(buf, s);
            }
            Value::Bool(b) => {
                buf.push(b'B');
                buf.push(u8::from(*b));
            }
        },
    }
}

/// Encodes a qualified column `alias.column` as `(canonical id, column)`.
/// Plans only ever carry qualified attributes (the planner qualifies every
/// resolved column), and aliases cannot contain `.` (they are SQL
/// identifiers), so splitting at the first dot recovers the alias exactly.
fn encode_column(buf: &mut Vec<u8>, qualified: &str, aliases: &[&str], canonical_of: &[usize]) {
    buf.push(b'c');
    match qualified.split_once('.') {
        Some((alias, column)) => match aliases.iter().position(|a| *a == alias) {
            Some(plan_idx) => {
                push_u64(buf, canonical_of[plan_idx] as u64);
                push_str(buf, column);
            }
            // Unknown alias: keep the raw name (cannot happen for planner
            // output, but stay total and injective).
            None => push_str(buf, qualified),
        },
        None => push_str(buf, qualified),
    }
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    push_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_bytes(buf, s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use rmdp_krelation::tuple::{Tuple, Value};
    use rmdp_krelation::{Expr, KRelation};

    fn db() -> AnnotatedDatabase {
        let mut db = AnnotatedDatabase::new();
        let mut residents = KRelation::new(["person", "city"]);
        let mut visits = KRelation::new(["person", "place"]);
        for (person, city, place) in [("ada", "rome", "museum"), ("bo", "oslo", "cafe")] {
            let p = db.universe_mut().intern(person);
            residents.insert(
                Tuple::new([("person", Value::str(person)), ("city", Value::str(city))]),
                Expr::Var(p),
            );
            visits.insert(
                Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
                Expr::Var(p),
            );
        }
        db.insert_table("residents", residents);
        db.insert_table("visits", visits);
        db
    }

    fn encoding(db: &AnnotatedDatabase, sql: &str) -> Vec<u8> {
        canonical_plan_encoding(&plan(db, sql).unwrap().expect_scalar())
    }

    fn fp(db: &AnnotatedDatabase, sql: &str) -> Fingerprint {
        let params = MechanismParams::paper_edge_privacy(1.0);
        plan_fingerprint(db, &plan(db, sql).unwrap().expect_scalar(), &params)
    }

    #[test]
    fn alias_names_are_normalised_away() {
        let db = db();
        assert_eq!(
            fp(
                &db,
                "SELECT COUNT(*) FROM visits v1 WHERE v1.place = 'museum'"
            ),
            fp(
                &db,
                "SELECT COUNT(*) FROM visits zz WHERE zz.place = 'museum'"
            ),
        );
    }

    #[test]
    fn join_order_is_normalised_away() {
        let db = db();
        let a = fp(
            &db,
            "SELECT COUNT(*) FROM visits v JOIN residents r ON r.person = v.person",
        );
        let b = fp(
            &db,
            "SELECT COUNT(*) FROM residents r JOIN visits v ON v.person = r.person",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn conjunct_order_and_operand_order_are_normalised_away() {
        let db = db();
        let a = fp(
            &db,
            "SELECT COUNT(*) FROM visits v JOIN residents r ON r.person = v.person \
             WHERE v.place = 'museum' AND r.city = 'rome'",
        );
        let b = fp(
            &db,
            "SELECT COUNT(*) FROM visits v JOIN residents r ON v.person = r.person \
             WHERE r.city = 'rome' AND v.place = 'museum'",
        );
        assert_eq!(a, b);
        // a > b normalises onto b < a.
        let lt = fp(
            &db,
            "SELECT COUNT(*) FROM visits a JOIN visits b ON a.place = b.place \
             WHERE a.person < b.person",
        );
        let gt = fp(
            &db,
            "SELECT COUNT(*) FROM visits a JOIN visits b ON a.place = b.place \
             WHERE b.person > a.person",
        );
        assert_eq!(lt, gt);
    }

    #[test]
    fn self_join_alias_swaps_collide_only_when_symmetric() {
        let db = db();
        // Swapping the roles of the two visits aliases everywhere is an
        // isomorphism — must collide.
        let a = fp(
            &db,
            "SELECT COUNT(*) FROM visits x JOIN visits y ON x.place = y.place \
             WHERE x.person < y.person",
        );
        let b = fp(
            &db,
            "SELECT COUNT(*) FROM visits y JOIN visits x ON y.place = x.place \
             WHERE y.person < x.person",
        );
        assert_eq!(a, b);
        // Moving the `<` to the *other* side is a different query (the
        // output rows differ) — must NOT collide. (Here both sides count
        // the same pairs, but e.g. with per-side filters they would not;
        // the canonical form must distinguish the shapes.)
        let c = fp(
            &db,
            "SELECT COUNT(*) FROM visits x JOIN visits y ON x.place = y.place \
             WHERE x.person < y.person AND x.place = 'museum'",
        );
        let d = fp(
            &db,
            "SELECT COUNT(*) FROM visits x JOIN visits y ON x.place = y.place \
             WHERE y.person < x.person AND x.place = 'museum'",
        );
        assert_ne!(c, d, "asymmetric self-join shapes must stay distinct");
    }

    #[test]
    fn different_schemas_tables_literals_and_aggregates_stay_distinct() {
        let db = db();
        let base = encoding(&db, "SELECT COUNT(*) FROM visits WHERE place = 'museum'");
        for other in [
            "SELECT COUNT(*) FROM visits WHERE place = 'cafe'",
            "SELECT COUNT(*) FROM visits WHERE person = 'museum'",
            "SELECT COUNT(*) FROM visits",
            "SELECT COUNT(*) FROM residents WHERE city = 'rome'",
            "SELECT SUM(person) FROM visits WHERE place = 'museum'",
            "SELECT COUNT(*) FROM visits v JOIN visits w ON v.place = w.place \
             WHERE v.place = 'museum'",
        ] {
            assert_ne!(base, encoding(&db, other), "{other}");
        }
    }

    #[test]
    fn equi_key_vs_residual_classification_does_not_split_the_key() {
        // `ON r.person = v.person` is an equi key when residents joins in
        // second, but the same equality may land elsewhere under another
        // order; both dissolve into the same conjunct multiset.
        let db = db();
        let a = encoding(
            &db,
            "SELECT COUNT(*) FROM visits v JOIN residents r ON r.person = v.person \
             WHERE v.place = 'museum'",
        );
        let b = encoding(
            &db,
            "SELECT COUNT(*) FROM residents r JOIN visits v ON r.person = v.person \
             WHERE v.place = 'museum'",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn database_identity_epoch_and_params_split_the_fingerprint() {
        let db1 = db();
        let sql = "SELECT COUNT(*) FROM visits";
        let q = plan(&db1, sql).unwrap().expect_scalar();
        let params = MechanismParams::paper_edge_privacy(1.0);
        let base = plan_fingerprint(&db1, &q, &params);

        // Same content, different database instance.
        let db2 = db();
        assert_ne!(base, plan_fingerprint(&db2, &q, &params));

        // Same instance, an *unrelated* table added: the query scans only
        // `visits`, whose epoch did not move, so the key must survive —
        // invalidation is delta-scoped, not global.
        let mut db3 = db1.clone();
        let before = plan_fingerprint(&db3, &q, &params);
        db3.insert_table("extra", KRelation::empty());
        assert_eq!(before, plan_fingerprint(&db3, &q, &params));

        // Mutating the scanned table itself must split the key.
        db3.insert_table("visits", KRelation::new(["person", "place"]));
        assert_ne!(before, plan_fingerprint(&db3, &q, &params));

        // A universe mutation invalidates every key: `|P|` changes the
        // sequence length for all queries.
        let mut db4 = db1.clone();
        let before = plan_fingerprint(&db4, &q, &params);
        db4.universe_mut().intern("newcomer");
        assert_ne!(before, plan_fingerprint(&db4, &q, &params));

        // Sensitivity-relevant params split; noise-only params do not.
        let mut wide = params;
        wide.beta = 0.33;
        assert_ne!(base, plan_fingerprint(&db1, &q, &wide));
        let mut noisy = params;
        noisy.epsilon2 = 9.0;
        noisy.mu = 3.0;
        assert_eq!(base, plan_fingerprint(&db1, &q, &noisy));
    }

    #[test]
    fn group_plans_fingerprint_like_their_hand_written_equality_queries() {
        // The group key dissolves into an equality conjunct, so the
        // per-group plan of `GROUP BY place` at key 'museum' must share a
        // cache entry with the hand-written `WHERE place = 'museum'` query —
        // grouped reports and scalar traffic warm each other's cache.
        let mut db = db();
        db.declare_public_domain(
            "visits",
            "place",
            [Value::str("museum"), Value::str("cafe")],
        );
        let grouped = plan(&db, "SELECT place, COUNT(*) FROM visits GROUP BY place")
            .unwrap()
            .as_grouped()
            .cloned()
            .unwrap();
        assert_eq!(grouped.num_groups(), 2);

        let params = MechanismParams::paper_edge_privacy(1.0);
        let mut per_group = Vec::new();
        for (value, literal) in grouped.domain.iter().zip(["'museum'", "'cafe'"]) {
            let group_fp = plan_fingerprint(&db, &grouped.group_plan(value), &params);
            let scalar_fp = fp(
                &db,
                &format!("SELECT COUNT(*) FROM visits WHERE place = {literal}"),
            );
            assert_eq!(group_fp, scalar_fp, "group {literal}");
            per_group.push(group_fp);
        }
        // Distinct keys must never collide (the literal is framed in).
        assert_ne!(per_group[0], per_group[1]);
    }

    #[test]
    fn deltas_invalidate_only_queries_scanning_the_touched_table() {
        use rmdp_krelation::AnnotationRule;

        let mut db = db();
        db.declare_annotation_rule("visits", AnnotationRule::OwnerColumn("person".to_owned()));
        // Initial loads intern the same labels the rule derives, so a later
        // ingest by a known owner is intern-only (see `AnnotationRule` docs).
        db.intern(&AnnotationRule::owner_label("person", &Value::str("ada")));
        let params = MechanismParams::paper_edge_privacy(1.0);
        let visits_q = plan(&db, "SELECT COUNT(*) FROM visits")
            .unwrap()
            .expect_scalar();
        let residents_q = plan(&db, "SELECT COUNT(*) FROM residents")
            .unwrap()
            .expect_scalar();
        let join_q = plan(
            &db,
            "SELECT COUNT(*) FROM residents r JOIN visits v ON r.person = v.person",
        )
        .unwrap()
        .expect_scalar();

        let visits_before = plan_key(&db, &visits_q, &params);
        let residents_before = plan_key(&db, &residents_q, &params);
        let join_before = plan_key(&db, &join_q, &params);

        // Ingest one row owned by an already-known participant: intern-only,
        // so only the `visits` epoch may move.
        db.apply_delta(
            "visits",
            [Tuple::new([
                ("person", Value::str("ada")),
                ("place", Value::str("park")),
            ])],
        )
        .unwrap();

        // The untouched table's key is *byte-identical* — fingerprint,
        // lineage and every stamp — so its cached sequences keep hitting.
        assert_eq!(residents_before, plan_key(&db, &residents_q, &params));

        // Everything scanning the mutated table re-keys...
        let visits_after = plan_key(&db, &visits_q, &params);
        let join_after = plan_key(&db, &join_q, &params);
        assert_ne!(visits_before.key, visits_after.key);
        assert_ne!(join_before.key, join_after.key);
        // ...but keeps its lineage, linking it to the pre-delta seed.
        assert_eq!(visits_before.lineage, visits_after.lineage);
        assert_eq!(join_before.lineage, join_after.lineage);
        // The universe stamp (slot 0) did not move: pure tuple appends by
        // known participants never bump the universe epoch.
        assert_eq!(visits_before.stamps[0], visits_after.stamps[0]);
    }

    #[test]
    fn self_joins_hash_the_scanned_table_epoch_once() {
        let db = db();
        let params = MechanismParams::paper_edge_privacy(1.0);
        let q = plan(
            &db,
            "SELECT COUNT(*) FROM visits a JOIN visits b ON a.place = b.place",
        )
        .unwrap()
        .expect_scalar();
        // Universe stamp + exactly one stamp for `visits`.
        assert_eq!(plan_key(&db, &q, &params).stamps.len(), 2);
    }

    #[test]
    fn duplicate_conjuncts_are_idempotent() {
        let db = db();
        assert_eq!(
            encoding(
                &db,
                "SELECT COUNT(*) FROM visits WHERE place = 'museum' AND place = 'museum'"
            ),
            encoding(&db, "SELECT COUNT(*) FROM visits WHERE place = 'museum'"),
        );
    }

    /// Placement moves conjuncts between scan filters and join residuals;
    /// the encoding reads them as one sorted multiset, so the cache keys of
    /// the benchmark's two miss shapes keep these exact bytes.
    #[test]
    fn canonical_encodings_are_pinned() {
        let mut db = db();
        db.insert_table("edges", KRelation::new(["src", "dst"]));
        let triangle = "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src \
                        JOIN edges e3 ON e2.dst = e3.src AND e3.dst = e1.src \
                        WHERE e1.src < e1.dst AND e2.src < e2.dst AND e1.src >= 3 \
                        AND e2.dst < 20 AND e1.dst <> 5 AND e2.dst <> 7";
        let co_visit = "SELECT COUNT(*) FROM visits c1 JOIN visits c2 ON c1.place = c2.place \
                        WHERE c1.person < c2.person";
        let hex = |sql| -> String {
            encoding(&db, sql)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect()
        };
        assert_eq!(
            hex(triangle),
            concat!(
                "03000000000000000500000000000000656467657305000000000000006564676573050000000000",
                "0000656467657309000000000000002e000000000000002109000000000000004905000000000000",
                "00140000000000000063000000000000000003000000000000006473742e00000000000000210900",
                "00000000000049070000000000000014000000000000006301000000000000000300000000000000",
                "64737439000000000000003c14000000000000006300000000000000000300000000000000737263",
                "140000000000000063000000000000000003000000000000006473742e000000000000003c140000",
                "00000000006301000000000000000300000000000000647374090000000000000049140000000000",
                "000039000000000000003c1400000000000000630100000000000000030000000000000073726314",
                "00000000000000630100000000000000030000000000000064737439000000000000003d14000000",
                "00000000630000000000000000030000000000000064737414000000000000006301000000000000",
                "00030000000000000073726339000000000000003d14000000000000006300000000000000000300",
                "00000000000073726314000000000000006302000000000000000300000000000000647374390000",
                "00000000003d14000000000000006301000000000000000300000000000000647374140000000000",
                "000063020000000000000003000000000000007372632e000000000000006c090000000000000049",
                "03000000000000001400000000000000630000000000000000030000000000000073726343",
            )
        );
        assert_eq!(
            hex(co_visit),
            concat!(
                "02000000000000000600000000000000766973697473060000000000000076697369747302000000",
                "000000003f000000000000003c170000000000000063000000000000000006000000000000007065",
                "72736f6e17000000000000006301000000000000000600000000000000706572736f6e3d00000000",
                "0000003d16000000000000006300000000000000000500000000000000706c616365160000000000",
                "00006301000000000000000500000000000000706c61636543",
            )
        );
    }
}
