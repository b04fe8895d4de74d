//! Plan execution over an [`AnnotatedDatabase`].
//!
//! Executing a [`QueryPlan`] produces the annotated output relation. Each
//! scan renames (`ρ`) and filters (`σ`) its base tuples in one pass, so only
//! the tuples its [`ScanStep::filter`] accepts are built; each join runs
//! through the algebra layer's hash theta-join with the step's residual
//! conjuncts. The planner has already placed every conjunct where its
//! columns are first bound, so no selection runs after the last join. The
//! annotations of the output tuples are exactly the provenance expressions
//! the recursive mechanism aggregates — see [`crate::session::SqlSession`]
//! for the private release.

use crate::error::SqlError;
use crate::plan::{CompiledOperand, CompiledPredicate, GroupedQueryPlan, PlanAggregate};
use crate::plan::{QueryPlan, ScanStep};
use rmdp_krelation::algebra::theta_join;
use rmdp_krelation::annotate::AnnotatedDatabase;
use rmdp_krelation::tuple::{Attr, Tuple, Value};
use rmdp_krelation::KRelation;

/// Evaluates `plan` against `db`, returning the annotated output relation.
///
/// The plan must have been produced against the same database schema
/// (`SqlSession` guarantees this); a table dropped between planning and
/// execution surfaces as [`SqlError::UnknownTable`].
pub fn execute(db: &AnnotatedDatabase, plan: &QueryPlan) -> Result<KRelation, SqlError> {
    let mut acc = scan(db, &plan.from)?;
    for step in &plan.joins {
        let right = scan(db, &step.scan)?;
        acc = theta_join(&acc, &right, &step.equi, |t| {
            step.residual.iter().all(|p| p.matches(t))
        });
    }
    Ok(acc)
}

/// Evaluates every group of a grouped plan: one execution of the template
/// with the dissolved key conjunct appended, per declared domain value, in
/// domain order. Keys the data never mentions evaluate to empty relations —
/// by design: the released report always covers exactly the declared public
/// domain, so the *set* of released keys reveals nothing about the data.
pub fn execute_grouped(
    db: &AnnotatedDatabase,
    plan: &GroupedQueryPlan,
) -> Result<Vec<(Value, KRelation)>, SqlError> {
    plan.domain
        .iter()
        .map(|value| Ok((value.clone(), execute(db, &plan.group_plan(value))?)))
        .collect()
}

/// The per-tuple weight function of the plan's aggregate.
///
/// `COUNT(*)` weighs every tuple 1. `SUM(col)` weighs a tuple by its value
/// of `col`; the values must be nonnegative integers (Def. 12 requires
/// nonnegative weights — a negative weight would break the monotonicity of
/// the linear query).
pub fn weigh(plan: &QueryPlan, tuple: &Tuple) -> Result<f64, SqlError> {
    match &plan.aggregate {
        PlanAggregate::CountStar => Ok(1.0),
        PlanAggregate::Sum(attr) => match tuple.get(attr) {
            Some(Value::Int(v)) if *v >= 0 => Ok(*v as f64),
            Some(Value::Int(v)) => Err(SqlError::BadAggregate {
                message: format!(
                    "SUM({attr}) hit the negative value {v}; linear-query weights must be \
                     nonnegative (Def. 12)"
                ),
                span: plan.aggregate_span,
            }),
            Some(other) => Err(SqlError::BadAggregate {
                message: format!("SUM({attr}) hit the non-numeric value {other:?}"),
                span: plan.aggregate_span,
            }),
            None => Err(SqlError::BadAggregate {
                message: format!("SUM({attr}): output tuple lacks the attribute"),
                span: plan.aggregate_span,
            }),
        },
    }
}

fn scan(db: &AnnotatedDatabase, step: &ScanStep) -> Result<KRelation, SqlError> {
    let Some(table) = db.table(&step.table) else {
        return Err(SqlError::UnknownTable {
            name: step.table.clone(),
            span: crate::token::Span::new(0, 0),
            available: db.table_names().into_iter().map(str::to_owned).collect(),
        });
    };
    let to_qualified = |attr: &Attr| {
        step.renames
            .iter()
            .find(|(base, _)| base == attr)
            .map_or_else(|| attr.clone(), |(_, qualified)| qualified.clone())
    };
    // The filter rewritten over base attributes, so it runs before a tuple
    // is renamed and only survivors are built.
    let to_base = |op: &CompiledOperand| match op {
        CompiledOperand::Column(attr) => CompiledOperand::Column(
            step.renames
                .iter()
                .find(|(_, qualified)| qualified == attr)
                .map_or_else(|| attr.clone(), |(base, _)| base.clone()),
        ),
        CompiledOperand::Literal(_) => op.clone(),
    };
    let filter: Vec<CompiledPredicate> = step
        .filter
        .iter()
        .map(|p| CompiledPredicate {
            lhs: to_base(&p.lhs),
            op: p.op,
            rhs: to_base(&p.rhs),
        })
        .collect();

    let mut out = KRelation::new(table.schema().iter().map(to_qualified));
    for (tuple, annotation) in table.iter() {
        if filter.iter().all(|p| p.matches(tuple)) {
            out.insert(tuple.rename(to_qualified), annotation.clone());
        }
    }
    Ok(out)
}
