//! Correctness checks every run makes; a miss makes the run exit nonzero.

use crate::load::{Class, Record, Reply, TENANTS};
use crate::run::{ClientRun, Env, Window};
use rmdp_sql::exec::execute;
use rmdp_sql::{AnyPlan, QueryOutput};
use std::collections::HashMap;

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Every record with its run, warm-up first.
fn all<'a>(
    env: &'a Env,
    runs: &'a [ClientRun],
) -> impl Iterator<Item = (&'a ClientRun, &'a Record)> {
    std::iter::once(&env.warm)
        .chain(runs)
        .flat_map(|run| run.records.iter().map(move |r| (run, r)))
}

/// The published values of an in-process output, in wire order.
pub fn published(output: &QueryOutput) -> Vec<(f64, f64)> {
    match output {
        QueryOutput::Scalar(r) => vec![(r.noisy_answer, r.epsilon_spent)],
        QueryOutput::Grouped(g) => g
            .groups
            .iter()
            .map(|g| (g.release.noisy_answer, g.release.epsilon_spent))
            .collect(),
        QueryOutput::Explained(t) => published(&t.output),
    }
}

/// Bit equality of two published value lists.
pub fn same_bits(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// (1) Each tenant's spent ε equals its admitted releases times their
/// price, and every reply charged the server's quoted price.
pub fn budget(env: &Env, runs: &[ClientRun]) -> Check {
    let mut expected = vec![0.0f64; TENANTS.len()];
    let mut prices: HashMap<&str, f64> = HashMap::new();
    let mut wrong_price = 0usize;
    for (run, r) in all(env, runs) {
        if let Reply::Released { charged, .. } = &r.reply {
            let sql = run.texts[r.text].as_str();
            let price = *prices
                .entry(sql)
                .or_insert_with(|| env.server.price(sql).map_or(f64::NAN, |p| p.epsilon));
            if charged.to_bits() != price.to_bits() {
                wrong_price += 1;
            }
            expected[r.tenant] += charged;
        }
    }
    let mut off = Vec::new();
    for (t, name) in TENANTS.iter().enumerate() {
        let spent = env
            .server
            .spent_budget(name)
            .map_or(f64::NAN, |b| b.epsilon);
        if (spent - expected[t]).abs() > 1e-9 * expected[t].max(1.0) {
            off.push(format!("{name}: spent {spent} expected {}", expected[t]));
        }
    }
    let ok = wrong_price == 0 && off.is_empty();
    let detail = format!(
        "{} tenants, {wrong_price} wrong prices{}",
        TENANTS.len(),
        off.iter().map(|o| format!("; {o}")).collect::<String>()
    );
    check("epsilon_ledger", ok, detail)
}

/// (2) Every audit tenant's wire answers are bit-identical to
/// `DpServer::replay`, which re-solves each one cold.
pub fn audits(env: &Env, runs: &[ClientRun]) -> Check {
    let mut compared = 0usize;
    let mut problems = Vec::new();
    for (c, run) in runs.iter().enumerate() {
        let tenant = crate::load::audit_tenant(c);
        let wire: Vec<&Record> = run
            .records
            .iter()
            .filter(|r| r.tenant == tenant && !r.reply.refused_before_admission())
            .collect();
        let Some(replayed) = env.server.replay(TENANTS[tenant]) else {
            problems.push(format!("{}: replay refused", TENANTS[tenant]));
            continue;
        };
        if replayed.len() != wire.len() {
            problems.push(format!(
                "{}: {} logged, {} on the wire",
                TENANTS[tenant],
                replayed.len(),
                wire.len()
            ));
            continue;
        }
        for (r, re) in wire.iter().zip(&replayed) {
            compared += 1;
            let same = match (&r.reply, re) {
                (Reply::Released { values, .. }, Ok(out)) => same_bits(values, &published(out)),
                (Reply::Refused(code), Err(_)) => code == "SQL",
                _ => false,
            };
            if !same {
                problems.push(format!("{}: reply differs from replay", TENANTS[tenant]));
            }
        }
    }
    let ok = problems.is_empty() && compared > 0;
    let detail = format!(
        "{compared} audited replies{}",
        problems.first().map_or(String::new(), |p| format!("; {p}"))
    );
    check("wire_equals_replay", ok, detail)
}

/// (3) The exact answer of every `edges` shape sent, computed by plan
/// execution, equals the count `rmdp_graph`'s subgraph enumeration finds
/// on the generated graph.
pub fn graph_counts(env: &Env, runs: &[ClientRun]) -> Check {
    let db = env.base.database();
    let mut seen = HashMap::new();
    for (run, r) in all(env, runs) {
        if let Some(Some(shape)) = run.shapes.get(r.text).filter(|_| r.class != Class::Ingest) {
            seen.entry(*shape)
                .or_insert_with(|| run.texts[r.text].clone());
        }
    }
    let mut compared = 0usize;
    let mut wrong = Vec::new();
    for (shape, sql) in &seen {
        let Some(expected) = shape.graph_count(&env.graph) else {
            continue;
        };
        let rows = match env.base.plan(sql) {
            Ok(AnyPlan::Scalar(plan)) => execute(db, &plan).map(|r| r.len() as u64).ok(),
            _ => None,
        };
        compared += 1;
        if rows != Some(expected) {
            wrong.push(format!("{shape:?}: sql {rows:?} graph {expected}"));
        }
    }
    let ok = wrong.is_empty() && compared > 0;
    let detail = format!(
        "{compared} shapes{}",
        wrong.first().map_or(String::new(), |w| format!("; {w}"))
    );
    check("true_counts_match_graph", ok, detail)
}

/// Shed and refused counters are zero whenever no request failed.
pub fn no_refusals(env: &Env, failed: usize) -> Check {
    let snapshot = env.server.metrics().snapshot();
    let shed = shed_refused(&snapshot);
    let ok = failed > 0 || shed == (0, 0);
    check(
        "no_shed_or_refused",
        ok,
        format!("shed {} refused {} failed {failed}", shed.0, shed.1),
    )
}

/// `(shed, refused)` server counters.
pub fn shed_refused(s: &rmdp_observe::MetricsSnapshot) -> (u64, u64) {
    let c = |n: &str| s.counter(n).unwrap_or(0);
    (
        c("server.shed.overloaded") + c("server.shed.tenant_busy"),
        c("server.refused.budget") + c("server.refused.unknown_tenant"),
    )
}

/// (4) `ingest_mix`: across every ingest, each `edges` lookup hit and only
/// the writer's `checkins` re-queries missed.
pub fn untouched_hits(window: &Window, runs: &[ClientRun]) -> Check {
    let records = || runs.iter().flat_map(|r| r.records.iter());
    let lookups: u64 = records()
        .filter(|r| matches!(r.class, Class::Read | Class::Grouped))
        .map(|r| match &r.reply {
            Reply::Released { values, .. } => values.len() as u64,
            _ => 0,
        })
        .sum();
    let requeries = records()
        .filter(|r| matches!(r.class, Class::Requery(_)) && !r.reply.failed())
        .count() as u64;
    let ingests = records().filter(|r| r.reply == Reply::Ingested).count();
    let cache = window.cache();
    let ok = ingests > 0 && cache.hits == lookups && cache.misses == requeries;
    check(
        "untouched_table_keeps_hitting",
        ok,
        format!(
            "{ingests} ingests; hits {} of {lookups} edges lookups; misses {} of {requeries} re-queries",
            cache.hits, cache.misses
        ),
    )
}
