//! Logical planner: validates a parsed [`Query`] against a database schema
//! and lowers it to K-relation algebra operators.
//!
//! The lowering follows the safe-annotation recipe of paper Sec. 5.2:
//!
//! 1. every table reference becomes a **scan + rename** `ρ` that qualifies
//!    each attribute with the reference's alias (`person` ↦ `v1.person`), so
//!    self-joins never collide;
//! 2. every `JOIN … ON` becomes a **theta-join**: the `ON` conjuncts that
//!    equate a column of the new table with a column of the accumulated
//!    relation become hash-join keys ([`rmdp_krelation::algebra::theta_join`]);
//!    the remaining conjuncts join the `WHERE` conjuncts;
//! 3. every other conjunct becomes a selection `σ` **placed at the earliest
//!    point where all its columns are bound**: a conjunct over one alias (or
//!    none — a literal-only conjunct goes to the `FROM` scan) filters that
//!    alias's scan ([`ScanStep::filter`]), and a conjunct over several
//!    aliases is a residual of the join step that binds the last of them
//!    ([`JoinStep::residual`]). Inner-join semantics make `σ` commute with
//!    `⋈` tuple by tuple, so placement changes what the executor
//!    materialises, never which tuples or annotations come out.
//!
//! Because only `ρ`, `⋈` and `σ` are emitted, the provenance annotations of
//! the output are conjunctions/disjunctions of base-table annotations —
//! negation-free by construction, which is exactly the monotonicity the
//! recursive mechanism requires (Theorem 5).

use crate::ast::{Aggregate, ColumnRef, Comparison, GroupBy, Operand, Predicate, Query, TableRef};
use crate::error::SqlError;
use crate::parser::parse;
use crate::token::Span;
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::tuple::{Attr, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A scan of one base table under an alias; `renames` maps every base
/// attribute to its alias-qualified name, and `filter` keeps only the base
/// tuples the conjuncts over this alias alone accept.
#[derive(Clone, Debug)]
pub struct ScanStep {
    /// The base table.
    pub table: String,
    /// The alias qualifying this scan's attributes.
    pub alias: String,
    /// `(base, qualified)` attribute pairs, sorted by base attribute.
    pub renames: Vec<(Attr, Attr)>,
    /// Conjuncts whose columns all belong to this alias (the `FROM` scan
    /// also holds the literal-only ones), over qualified attributes.
    pub filter: Vec<CompiledPredicate>,
}

/// A comparison compiled against qualified attribute names.
#[derive(Clone, Debug)]
pub struct CompiledPredicate {
    /// Left operand.
    pub lhs: CompiledOperand,
    /// Operator.
    pub op: Comparison,
    /// Right operand.
    pub rhs: CompiledOperand,
}

/// An operand compiled to a qualified attribute or a constant.
#[derive(Clone, Debug)]
pub enum CompiledOperand {
    /// A qualified attribute of the intermediate relation.
    Column(Attr),
    /// A constant.
    Literal(Value),
}

impl CompiledOperand {
    /// The operand's value on `tuple`, borrowed from the tuple or the literal.
    fn value<'a>(&'a self, tuple: &'a Tuple) -> Option<&'a Value> {
        match self {
            CompiledOperand::Column(attr) => tuple.get(attr),
            CompiledOperand::Literal(v) => Some(v),
        }
    }
}

impl CompiledPredicate {
    /// Evaluates the predicate on a merged tuple. Comparisons between values
    /// of different types (or on absent attributes) are `false`, mirroring
    /// SQL's "unknown is not true".
    pub fn matches(&self, tuple: &Tuple) -> bool {
        let (Some(lhs), Some(rhs)) = (self.lhs.value(tuple), self.rhs.value(tuple)) else {
            return false;
        };
        let comparable = matches!(
            (lhs, rhs),
            (Value::Int(_), Value::Int(_))
                | (Value::Str(_), Value::Str(_))
                | (Value::Bool(_), Value::Bool(_))
        );
        if !comparable {
            return false;
        }
        match self.op {
            Comparison::Eq => lhs == rhs,
            Comparison::Neq => lhs != rhs,
            Comparison::Lt => lhs < rhs,
            Comparison::Gt => lhs > rhs,
            Comparison::Le => lhs <= rhs,
            Comparison::Ge => lhs >= rhs,
        }
    }

    /// The attributes the predicate reads, in operand order.
    fn columns(&self) -> impl Iterator<Item = &Attr> + '_ {
        [&self.lhs, &self.rhs]
            .into_iter()
            .filter_map(|op| match op {
                CompiledOperand::Column(attr) => Some(attr),
                CompiledOperand::Literal(_) => None,
            })
    }
}

impl fmt::Display for CompiledPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |op: &CompiledOperand| match op {
            CompiledOperand::Column(a) => a.name().to_owned(),
            CompiledOperand::Literal(v) => format!("{v:?}"),
        };
        write!(
            f,
            "{} {} {}",
            side(&self.lhs),
            self.op.symbol(),
            side(&self.rhs)
        )
    }
}

/// One join of the chain: equi-join keys plus residual predicates.
#[derive(Clone, Debug)]
pub struct JoinStep {
    /// The scan joined in by this step.
    pub scan: ScanStep,
    /// `(accumulated, new)` qualified attribute pairs joined with `=`.
    pub equi: Vec<(Attr, Attr)>,
    /// Conjuncts (from `ON` or `WHERE`) over several aliases, the last of
    /// which this step binds.
    pub residual: Vec<CompiledPredicate>,
}

/// The weight function of the aggregate, compiled.
#[derive(Clone, Debug)]
pub enum PlanAggregate {
    /// `COUNT(*)`: weight 1 per output tuple.
    CountStar,
    /// `SUM(col)`: weight = the tuple's value of the qualified column.
    Sum(Attr),
}

/// A validated, lowered query plan.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The compiled aggregate.
    pub aggregate: PlanAggregate,
    /// Source span of the aggregate (for runtime aggregate errors).
    pub aggregate_span: crate::token::Span,
    /// The first scan (`FROM`).
    pub from: ScanStep,
    /// The join chain in execution order.
    pub joins: Vec<JoinStep>,
}

impl QueryPlan {
    /// Every scan in execution order: the `FROM` scan, then each join's.
    pub(crate) fn scans(&self) -> impl Iterator<Item = &ScanStep> + '_ {
        std::iter::once(&self.from).chain(self.joins.iter().map(|j| &j.scan))
    }

    /// Adds a conjunct at the earliest point where all its columns are
    /// bound: the filter of the one scan it reads (the `FROM` scan when it
    /// reads none), or else the residual of the join step binding the last
    /// alias it reads. A column no scan binds counts as bound by the last
    /// scan, where it fails every tuple, as it would after the last join.
    fn place(&mut self, pred: CompiledPredicate) {
        let last_scan = self.joins.len();
        let binders: Vec<usize> = pred
            .columns()
            .map(|attr| {
                self.scans()
                    .position(|s| s.renames.iter().any(|(_, q)| q == attr))
                    .unwrap_or(last_scan)
            })
            .collect();
        let last = binders.iter().copied().max().unwrap_or(0);
        if binders.iter().all(|&b| b == last) {
            match last {
                0 => self.from.filter.push(pred),
                k => self.joins[k - 1].scan.filter.push(pred),
            }
        } else {
            self.joins[last - 1].residual.push(pred);
        }
    }
}

/// A grouped report plan: one scalar template plus the declared public key
/// domain it fans out over.
///
/// The group key is **dissolved into an equality conjunct**: the per-group
/// plan for key value `v` is the template with `key = v` appended to the
/// filter of the scan that owns `key` — a plain monotone scalar plan,
/// indistinguishable from the hand-written `… WHERE key = v` query. That is
/// what makes grouped releases compose with every scalar facility for free:
/// each group runs through the same executor, the same sequence LPs, and the
/// same [`SequenceCache`](rmdp_core::SequenceCache) keys (a grouped report
/// and the equivalent hand-written per-key queries share cache entries).
#[derive(Clone, Debug)]
pub struct GroupedQueryPlan {
    /// The qualified grouping-key attribute (`alias.column`).
    pub key: Attr,
    /// The key as written in the query (for reports and errors).
    pub key_display: String,
    /// Span of the `GROUP BY` clause.
    pub key_span: Span,
    /// The declared public domain, in declaration order (non-empty,
    /// deduplicated by [`AnnotatedDatabase::declare_public_domain`]).
    pub domain: Vec<Value>,
    /// The group-free scalar template every per-group plan extends.
    pub template: QueryPlan,
}

impl GroupedQueryPlan {
    /// Number of groups (`k`), i.e. the size of the declared domain.
    pub fn num_groups(&self) -> usize {
        self.domain.len()
    }

    /// The monotone scalar plan of one group: the template plus the
    /// dissolved key conjunct `key = value` on the scan that owns `key`.
    pub fn group_plan(&self, value: &Value) -> QueryPlan {
        let mut plan = self.template.clone();
        plan.place(CompiledPredicate {
            lhs: CompiledOperand::Column(self.key.clone()),
            op: Comparison::Eq,
            rhs: CompiledOperand::Literal(value.clone()),
        });
        plan
    }
}

impl fmt::Display for GroupedQueryPlan {
    /// Renders the grouped pipeline: a `γ` header naming the key and domain,
    /// then the shared template.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values: Vec<String> = self.domain.iter().map(|v| format!("{v:?}")).collect();
        writeln!(
            f,
            "γ {} ∈ {{{}}} ({} groups, key dissolved into σ {} = ⟨v⟩)",
            self.key,
            values.join(", "),
            self.num_groups(),
            self.key,
        )?;
        self.template.fmt(f)
    }
}

/// A validated plan of either shape: one scalar aggregate, or a grouped
/// report over a public key domain.
#[derive(Clone, Debug)]
pub enum AnyPlan {
    /// A single scalar aggregate release.
    Scalar(QueryPlan),
    /// A grouped report: one release per declared key.
    Grouped(GroupedQueryPlan),
}

impl AnyPlan {
    /// The scalar plan, if this is one.
    pub fn as_scalar(&self) -> Option<&QueryPlan> {
        match self {
            AnyPlan::Scalar(p) => Some(p),
            AnyPlan::Grouped(_) => None,
        }
    }

    /// The grouped plan, if this is one.
    pub fn as_grouped(&self) -> Option<&GroupedQueryPlan> {
        match self {
            AnyPlan::Scalar(_) => None,
            AnyPlan::Grouped(g) => Some(g),
        }
    }

    /// Unwraps the scalar plan; panics on a grouped one. For tests and
    /// callers that just planned a known-scalar query.
    pub fn expect_scalar(self) -> QueryPlan {
        match self {
            AnyPlan::Scalar(p) => p,
            AnyPlan::Grouped(g) => panic!("expected a scalar plan, got GROUP BY {}", g.key),
        }
    }
}

impl fmt::Display for AnyPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyPlan::Scalar(p) => p.fmt(f),
            AnyPlan::Grouped(g) => g.fmt(f),
        }
    }
}

impl fmt::Display for QueryPlan {
    /// Renders the plan as an algebra pipeline, one operator per line. Each
    /// `σ` sits under the step where it runs: `σ_alias` lines filter that
    /// alias's scan, plain `σ` lines filter the join above them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scan_filter = |f: &mut fmt::Formatter<'_>, scan: &ScanStep| -> fmt::Result {
            for r in &scan.filter {
                writeln!(f, "  σ_{} {r}", scan.alias)?;
            }
            Ok(())
        };
        writeln!(f, "ρ_{} (scan {})", self.from.alias, self.from.table)?;
        scan_filter(f, &self.from)?;
        for step in &self.joins {
            let keys: Vec<String> = step
                .equi
                .iter()
                .map(|(a, b)| format!("{a} = {b}"))
                .collect();
            writeln!(
                f,
                "⋈ ρ_{} (scan {}) on [{}]",
                step.scan.alias,
                step.scan.table,
                keys.join(", ")
            )?;
            scan_filter(f, &step.scan)?;
            for r in &step.residual {
                writeln!(f, "  σ {r}")?;
            }
        }
        match &self.aggregate {
            PlanAggregate::CountStar => write!(f, "Σ count(*)"),
            PlanAggregate::Sum(attr) => write!(f, "Σ sum({attr})"),
        }
    }
}

/// Parses and plans `sql` against the schema of `db`, returning a scalar or
/// grouped plan depending on the query's shape.
pub fn plan(db: &AnnotatedDatabase, sql: &str) -> Result<AnyPlan, SqlError> {
    let query = parse(sql)?;
    plan_query(db, &query)
}

/// Plans an already-parsed [`Query`] against the schema of `db`.
///
/// [`SqlSession::query_traced`](crate::SqlSession::query_traced) uses this
/// to time parsing and lowering as separate trace stages; [`plan`] is the
/// one-shot convenience wrapper.
pub fn plan_query(db: &AnnotatedDatabase, query: &Query) -> Result<AnyPlan, SqlError> {
    Planner { db }.lower(query)
}

struct Planner<'a> {
    db: &'a AnnotatedDatabase,
}

/// A table reference resolved against the schema.
struct ResolvedRef {
    scan: ScanStep,
    /// Base attribute names of the table (unqualified).
    columns: BTreeSet<String>,
}

impl Planner<'_> {
    fn lower(&self, query: &Query) -> Result<AnyPlan, SqlError> {
        // Resolve all table references, checking aliases are unique.
        let mut resolved: Vec<ResolvedRef> = vec![self.resolve_table(&query.from)?];
        for join in &query.joins {
            let r = self.resolve_table(&join.table)?;
            if resolved.iter().any(|seen| seen.scan.alias == r.scan.alias) {
                return Err(SqlError::DuplicateAlias {
                    alias: r.scan.alias.clone(),
                    span: join.table.alias_span,
                });
            }
            resolved.push(r);
        }

        // Lower the join chain. `visible` grows one alias per step; the `ON`
        // conjuncts that are not equi keys are placed with the WHERE ones.
        let mut joins = Vec::new();
        let mut conjuncts = Vec::new();
        for (k, join) in query.joins.iter().enumerate() {
            let visible = &resolved[..k + 2]; // FROM + joins up to and including this one
            let new_alias = &resolved[k + 1].scan.alias;
            let mut equi = Vec::new();
            for pred in &join.on {
                match self.as_equi_key(pred, visible, new_alias)? {
                    Some(pair) => equi.push(pair),
                    None => conjuncts.push(self.compile_predicate(pred, visible)?),
                }
            }
            joins.push(JoinStep {
                scan: resolved[k + 1].scan.clone(),
                equi,
                residual: Vec::new(),
            });
        }

        // WHERE sees every alias.
        for pred in &query.filter {
            conjuncts.push(self.compile_predicate(pred, &resolved)?);
        }

        let aggregate = match &query.aggregate {
            Aggregate::CountStar => PlanAggregate::CountStar,
            Aggregate::Sum(col) => PlanAggregate::Sum(self.resolve_column(col, &resolved)?),
        };

        // Grouping resolves against the full alias set before the FROM scan
        // is moved out of `resolved`.
        let grouping = match &query.group_by {
            Some(gb) => Some(self.resolve_grouping(gb, query.select_key.as_ref(), &resolved)?),
            None => None,
        };

        let mut template = QueryPlan {
            aggregate,
            aggregate_span: query.aggregate_span,
            from: resolved.swap_remove(0).scan,
            joins,
        };
        for pred in conjuncts {
            template.place(pred);
        }
        Ok(match grouping {
            None => AnyPlan::Scalar(template),
            Some((key, domain, gb)) => AnyPlan::Grouped(GroupedQueryPlan {
                key,
                key_display: gb.key.display_name(),
                key_span: gb.span,
                domain,
                template,
            }),
        })
    }

    /// Resolves the `GROUP BY` key: it must name a column of a visible
    /// alias, match the SELECT-list key (when one is written), and range
    /// over a non-empty **declared public domain** of its base table — a
    /// data-derived key set would leak which keys occur.
    fn resolve_grouping<'q>(
        &self,
        gb: &'q GroupBy,
        select_key: Option<&ColumnRef>,
        visible: &[ResolvedRef],
    ) -> Result<(Attr, Vec<Value>, &'q GroupBy), SqlError> {
        let key = self.resolve_column(&gb.key, visible)?;
        if let Some(sel) = select_key {
            let sel_attr = self.resolve_column(sel, visible)?;
            if sel_attr != key {
                return Err(SqlError::GroupKeyMismatch {
                    select: sel.display_name(),
                    group: gb.key.display_name(),
                    span: sel.span,
                });
            }
        }
        // The base table whose schema must declare the domain: the holder of
        // the key column. `resolve_column` just succeeded, so the holder
        // exists and (for unqualified keys) is unique.
        let table = match &gb.key.qualifier {
            Some(qualifier) => visible.iter().find(|r| &r.scan.alias == qualifier),
            None => visible.iter().find(|r| r.columns.contains(&gb.key.column)),
        }
        .map(|r| r.scan.table.clone())
        .expect("resolve_column validated the key against the visible aliases");
        match self.db.public_domain(&table, &gb.key.column) {
            Some(domain) if !domain.is_empty() => Ok((key, domain.to_vec(), gb)),
            _ => Err(SqlError::UndeclaredGroupDomain {
                column: gb.key.display_name(),
                table,
                span: gb.key.span,
            }),
        }
    }

    fn resolve_table(&self, table_ref: &TableRef) -> Result<ResolvedRef, SqlError> {
        let Some(table) = self.db.table(&table_ref.table) else {
            return Err(SqlError::UnknownTable {
                name: table_ref.table.clone(),
                span: table_ref.table_span,
                available: self
                    .db
                    .table_names()
                    .into_iter()
                    .map(str::to_owned)
                    .collect(),
            });
        };
        let mut renames = Vec::new();
        let mut columns = BTreeSet::new();
        for attr in table.schema() {
            renames.push((attr.clone(), qualified(&table_ref.alias, attr.name())));
            columns.insert(attr.name().to_owned());
        }
        Ok(ResolvedRef {
            scan: ScanStep {
                table: table_ref.table.clone(),
                alias: table_ref.alias.clone(),
                renames,
                filter: Vec::new(),
            },
            columns,
        })
    }

    /// Resolves a column reference against the visible aliases, returning its
    /// qualified attribute.
    fn resolve_column(&self, col: &ColumnRef, visible: &[ResolvedRef]) -> Result<Attr, SqlError> {
        if let Some(qualifier) = &col.qualifier {
            let Some(r) = visible.iter().find(|r| &r.scan.alias == qualifier) else {
                return Err(SqlError::UnknownColumn {
                    column: col.display_name(),
                    span: col.span,
                });
            };
            if !r.columns.contains(&col.column) {
                return Err(SqlError::UnknownColumn {
                    column: col.display_name(),
                    span: col.span,
                });
            }
            Ok(qualified(qualifier, &col.column))
        } else {
            let holders: Vec<&ResolvedRef> = visible
                .iter()
                .filter(|r| r.columns.contains(&col.column))
                .collect();
            match holders.len() {
                0 => Err(SqlError::UnknownColumn {
                    column: col.display_name(),
                    span: col.span,
                }),
                1 => Ok(qualified(&holders[0].scan.alias, &col.column)),
                _ => Err(SqlError::AmbiguousColumn {
                    column: col.display_name(),
                    span: col.span,
                    candidates: holders.iter().map(|r| r.scan.alias.clone()).collect(),
                }),
            }
        }
    }

    fn compile_operand(
        &self,
        operand: &Operand,
        visible: &[ResolvedRef],
    ) -> Result<CompiledOperand, SqlError> {
        Ok(match operand {
            Operand::Column(col) => CompiledOperand::Column(self.resolve_column(col, visible)?),
            Operand::Literal(v, _) => CompiledOperand::Literal(v.clone()),
        })
    }

    fn compile_predicate(
        &self,
        pred: &Predicate,
        visible: &[ResolvedRef],
    ) -> Result<CompiledPredicate, SqlError> {
        Ok(CompiledPredicate {
            lhs: self.compile_operand(&pred.lhs, visible)?,
            op: pred.op,
            rhs: self.compile_operand(&pred.rhs, visible)?,
        })
    }

    /// Returns `Some((accumulated, new))` when the predicate is an equality
    /// between a column of an earlier alias and a column of the newly joined
    /// alias — i.e. a hash-join key for this step.
    fn as_equi_key(
        &self,
        pred: &Predicate,
        visible: &[ResolvedRef],
        new_alias: &str,
    ) -> Result<Option<(Attr, Attr)>, SqlError> {
        if pred.op != Comparison::Eq {
            return Ok(None);
        }
        let (Operand::Column(a), Operand::Column(b)) = (&pred.lhs, &pred.rhs) else {
            return Ok(None);
        };
        let attr_a = self.resolve_column(a, visible)?;
        let attr_b = self.resolve_column(b, visible)?;
        let is_new = |attr: &Attr| attr.name().starts_with(&format!("{new_alias}."));
        match (is_new(&attr_a), is_new(&attr_b)) {
            (false, true) => Ok(Some((attr_a, attr_b))),
            (true, false) => Ok(Some((attr_b, attr_a))),
            // new = new or old = old: keep it as a residual filter.
            _ => Ok(None),
        }
    }
}

/// The qualified attribute name `alias.column`.
pub fn qualified(alias: &str, column: &str) -> Attr {
    Attr::new(&format!("{alias}.{column}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdp_krelation::{Expr, KRelation};

    fn db() -> AnnotatedDatabase {
        let mut db = AnnotatedDatabase::new();
        let mut residents = KRelation::new(["person", "city"]);
        let mut visits = KRelation::new(["person", "place"]);
        for (i, (person, city)) in [("ada", "rome"), ("bo", "oslo")].iter().enumerate() {
            let p = db.universe_mut().intern(person);
            residents.insert(
                Tuple::new([("person", Value::str(person)), ("city", Value::str(city))]),
                Expr::Var(p),
            );
            visits.insert(
                Tuple::new([
                    ("person", Value::str(person)),
                    ("place", Value::str(if i == 0 { "museum" } else { "cafe" })),
                ]),
                Expr::Var(p),
            );
        }
        db.insert_table("residents", residents);
        db.insert_table("visits", visits);
        db
    }

    /// The schema of the benchmark graph: one directed `edges(src, dst)`.
    fn edges_db() -> AnnotatedDatabase {
        let mut db = AnnotatedDatabase::new();
        db.insert_table("edges", KRelation::new(["src", "dst"]));
        db
    }

    /// The rendered conjuncts of a filter or residual list.
    fn shown(preds: &[CompiledPredicate]) -> Vec<String> {
        preds.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn equality_on_the_new_table_becomes_a_join_key() {
        let db = db();
        let plan = plan(
            &db,
            "SELECT COUNT(*) FROM visits v1 JOIN residents r1 ON r1.person = v1.person",
        )
        .unwrap()
        .expect_scalar();
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.joins[0].equi.len(), 1);
        let (acc, new) = &plan.joins[0].equi[0];
        assert_eq!(acc.name(), "v1.person");
        assert_eq!(new.name(), "r1.person");
        assert!(plan.joins[0].residual.is_empty());
    }

    #[test]
    fn non_equality_on_conjuncts_become_residuals() {
        let db = db();
        let plan = plan(
            &db,
            "SELECT COUNT(*) FROM visits v1 JOIN visits v2 \
             ON v1.place = v2.place AND v1.person < v2.person",
        )
        .unwrap()
        .expect_scalar();
        assert_eq!(plan.joins[0].equi.len(), 1);
        assert_eq!(plan.joins[0].residual.len(), 1);
    }

    #[test]
    fn unqualified_columns_resolve_when_unambiguous() {
        let db = db();
        let plan = plan(&db, "SELECT COUNT(*) FROM residents WHERE city = 'rome'")
            .unwrap()
            .expect_scalar();
        match &plan.from.filter[0].lhs {
            CompiledOperand::Column(attr) => assert_eq!(attr.name(), "residents.city"),
            other => panic!("expected column, got {other:?}"),
        }
    }

    #[test]
    fn ambiguous_and_unknown_columns_are_rejected() {
        let db = db();
        let sql = "SELECT COUNT(*) FROM visits v1 JOIN residents r1 \
                   ON r1.person = v1.person WHERE person = 'ada'";
        match plan(&db, sql).unwrap_err() {
            SqlError::AmbiguousColumn {
                column,
                candidates,
                span,
            } => {
                assert_eq!(column, "person");
                assert_eq!(candidates, vec!["v1".to_owned(), "r1".to_owned()]);
                assert_eq!(span.slice(sql), "person");
            }
            other => panic!("unexpected {other:?}"),
        }
        match plan(&db, "SELECT COUNT(*) FROM visits WHERE nope = 1").unwrap_err() {
            SqlError::UnknownColumn { column, .. } => assert_eq!(column, "nope"),
            other => panic!("unexpected {other:?}"),
        }
        match plan(&db, "SELECT COUNT(*) FROM visits v WHERE zz.person = 1").unwrap_err() {
            SqlError::UnknownColumn { column, .. } => assert_eq!(column, "zz.person"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_tables_and_duplicate_aliases_are_rejected() {
        let db = db();
        match plan(&db, "SELECT COUNT(*) FROM trips").unwrap_err() {
            SqlError::UnknownTable {
                name, available, ..
            } => {
                assert_eq!(name, "trips");
                assert_eq!(available, vec!["residents".to_owned(), "visits".to_owned()]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = plan(
            &db,
            "SELECT COUNT(*) FROM visits v JOIN residents v ON v.person = v.person",
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::DuplicateAlias { ref alias, .. } if alias == "v"));
    }

    #[test]
    fn sum_column_resolves_to_a_qualified_attribute() {
        let db = db();
        let plan = plan(&db, "SELECT SUM(city) FROM residents")
            .unwrap()
            .expect_scalar();
        match plan.aggregate {
            PlanAggregate::Sum(ref attr) => assert_eq!(attr.name(), "residents.city"),
            ref other => panic!("expected SUM, got {other:?}"),
        }
    }

    #[test]
    fn display_shows_the_algebra_pipeline() {
        let db = db();
        let plan = plan(
            &db,
            "SELECT COUNT(*) FROM visits v1 JOIN residents r1 ON r1.person = v1.person \
             WHERE r1.city <> 'rome'",
        )
        .unwrap()
        .expect_scalar();
        let shown = plan.to_string();
        assert!(shown.contains("ρ_v1 (scan visits)"));
        assert!(shown.contains("⋈ ρ_r1 (scan residents) on [v1.person = r1.person]"));
        assert!(shown.contains("  σ_r1 r1.city <> \"rome\""));
        assert!(shown.ends_with("Σ count(*)"));
    }

    #[test]
    fn triangle_conjuncts_land_on_the_scans_that_bind_them() {
        let plan = plan(
            &edges_db(),
            "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src \
             JOIN edges e3 ON e2.dst = e3.src AND e3.dst = e1.src \
             WHERE e1.src < e1.dst AND e2.src < e2.dst AND e1.src >= 3 AND e2.dst < 20 \
             AND e1.dst <> 5 AND e2.dst <> 7",
        )
        .unwrap()
        .expect_scalar();
        assert_eq!(
            shown(&plan.from.filter),
            ["e1.src < e1.dst", "e1.src >= 3", "e1.dst <> 5"]
        );
        assert_eq!(
            shown(&plan.joins[0].scan.filter),
            ["e2.src < e2.dst", "e2.dst < 20", "e2.dst <> 7"]
        );
        assert!(plan.joins[1].scan.filter.is_empty());
        // Both `ON` conjuncts of the closing join are its hash keys, so no
        // step filters a join result.
        assert_eq!(plan.joins[1].equi.len(), 2);
        assert!(plan.joins.iter().all(|j| j.residual.is_empty()));
    }

    #[test]
    fn multi_alias_conjuncts_become_residuals_of_the_step_binding_the_last_alias() {
        let two_path = plan(
            &edges_db(),
            "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src \
             WHERE e1.src < e2.dst",
        )
        .unwrap()
        .expect_scalar();
        assert_eq!(shown(&two_path.joins[0].residual), ["e1.src < e2.dst"]);
        assert!(two_path.from.filter.is_empty() && two_path.joins[0].scan.filter.is_empty());

        // An `ON` conjunct over earlier aliases only runs at the join that
        // binds them, and one over the new alias alone filters its scan.
        let chain = plan(
            &db(),
            "SELECT COUNT(*) FROM visits v1 JOIN visits v2 ON v1.place = v2.place \
             JOIN residents r1 ON r1.person = v1.person AND v1.person < v2.person \
             AND r1.city <> 'oslo' WHERE 1 = 1",
        )
        .unwrap()
        .expect_scalar();
        assert_eq!(shown(&chain.joins[0].residual), ["v1.person < v2.person"]);
        assert_eq!(shown(&chain.joins[1].scan.filter), ["r1.city <> \"oslo\""]);
        assert!(chain.joins[1].residual.is_empty());
        // A literal-only conjunct filters the FROM scan.
        assert_eq!(shown(&chain.from.filter), ["1 = 1"]);
    }

    #[test]
    fn group_key_conjuncts_land_on_the_owning_scan() {
        let mut db = db();
        db.declare_public_domain(
            "residents",
            "city",
            [Value::str("rome"), Value::str("oslo")],
        );
        let grouped = match plan(
            &db,
            "SELECT r1.city, COUNT(*) FROM visits v1 JOIN residents r1 \
             ON r1.person = v1.person GROUP BY r1.city",
        )
        .unwrap()
        {
            AnyPlan::Grouped(g) => g,
            AnyPlan::Scalar(_) => panic!("expected a grouped plan"),
        };
        let group = grouped.group_plan(&Value::str("rome"));
        assert!(group.from.filter.is_empty());
        assert_eq!(shown(&group.joins[0].scan.filter), ["r1.city = \"rome\""]);
        assert!(group.joins[0].residual.is_empty());
    }
}
