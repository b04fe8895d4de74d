//! Integration tests of the SQL frontend against hand-built algebra plans,
//! plus property tests that compiled queries stay inside the monotone
//! (negation-free) fragment the recursive mechanism requires.

use proptest::prelude::*;
use recursive_mechanism_dp::core::sensitive::check_monotonicity_exhaustive;
use recursive_mechanism_dp::core::{MechanismParams, SensitiveKRelation};
use recursive_mechanism_dp::krelation::algebra::{natural_join, rename, select, theta_join};
use recursive_mechanism_dp::krelation::annotate::AnnotatedDatabase;
use recursive_mechanism_dp::krelation::tuple::{Attr, Tuple, Value};
use recursive_mechanism_dp::krelation::{Expr, KRelation};
use recursive_mechanism_dp::sql::exec::{execute, execute_grouped};
use recursive_mechanism_dp::sql::{parse, plan, AnyPlan, SqlError, SqlSession};

/// The residents/visits database of the `sql_unrestricted_join` example.
fn database() -> AnnotatedDatabase {
    let mut db = AnnotatedDatabase::new();
    let residents_data = [
        ("ada", "rome"),
        ("bo", "rome"),
        ("cy", "oslo"),
        ("dee", "oslo"),
        ("eli", "lima"),
    ];
    let visits_data = [
        ("ada", "museum"),
        ("ada", "cafe"),
        ("ada", "park"),
        ("bo", "museum"),
        ("cy", "museum"),
        ("cy", "cafe"),
        ("dee", "park"),
        ("eli", "park"),
        ("eli", "cafe"),
    ];
    let mut residents = KRelation::new(["person", "city"]);
    for (person, city) in residents_data {
        let p = db.intern(person);
        residents.insert(
            Tuple::new([("person", Value::str(person)), ("city", Value::str(city))]),
            Expr::Var(p),
        );
    }
    let mut visits = KRelation::new(["person", "place"]);
    for (person, place) in visits_data {
        let p = db.intern(person);
        visits.insert(
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
            Expr::Var(p),
        );
    }
    db.insert_table("residents", residents);
    db.insert_table("visits", visits);
    db
}

fn session() -> SqlSession {
    SqlSession::with_seed(database(), MechanismParams::paper_edge_privacy(1.0), 7)
}

/// The annotations of a relation as a sorted multiset of rendered strings —
/// schema-independent, so a SQL output (qualified attributes) can be compared
/// against a hand-built plan (short attribute names).
fn annotation_fingerprint(r: &KRelation) -> Vec<String> {
    let mut out: Vec<String> = r.annotations().map(|e| format!("{e}")).collect();
    out.sort();
    out
}

#[test]
fn four_way_self_join_matches_hand_built_algebra() {
    let db = database();
    let visits = db.table("visits").unwrap().clone();
    let residents = db.table("residents").unwrap().clone();

    // Hand-built: the plan from the example, written with rename+natural_join.
    let v1 = rename(&visits, |a| match a.name() {
        "person" => Attr::new("p1"),
        other => Attr::new(other),
    });
    let v2 = rename(&visits, |a| match a.name() {
        "person" => Attr::new("p2"),
        other => Attr::new(other),
    });
    let same_place = select(&natural_join(&v1, &v2), |t| {
        t.get_named("p1").unwrap() < t.get_named("p2").unwrap()
    });
    let r1 = rename(&residents, |a| match a.name() {
        "person" => Attr::new("p1"),
        "city" => Attr::new("city1"),
        other => Attr::new(other),
    });
    let r2 = rename(&residents, |a| match a.name() {
        "person" => Attr::new("p2"),
        "city" => Attr::new("city2"),
        other => Attr::new(other),
    });
    let joined = natural_join(&natural_join(&same_place, &r1), &r2);
    let hand_built = select(&joined, |t| {
        t.get_named("city1").unwrap() != t.get_named("city2").unwrap()
    });

    let sql = "SELECT COUNT(*) \
               FROM Visits v1 JOIN Visits v2 ON v1.place = v2.place \
               JOIN Residents r1 ON r1.person = v1.person \
               JOIN Residents r2 ON r2.person = v2.person \
               WHERE r1.city <> r2.city AND v1.person < v2.person";
    let mut session = session();
    let output = session.evaluate(sql).unwrap();

    assert_eq!(output.len(), hand_built.len());
    assert_eq!(
        annotation_fingerprint(&output),
        annotation_fingerprint(&hand_built)
    );

    // And the DP release reports the same true answer.
    let release = session.query_scalar(sql).unwrap();
    assert_eq!(release.true_answer, hand_built.len() as f64);
    assert!(release.noisy_answer.is_finite());
    assert!(release.delta_hat > 0.0);
}

#[test]
fn two_way_join_with_literal_filter_matches_hand_built_algebra() {
    let db = database();
    let visits = db.table("visits").unwrap().clone();
    let residents = db.table("residents").unwrap().clone();

    // Who visited the museum, joined with their city, restricted to rome.
    let joined = natural_join(&visits, &residents);
    let hand_built = select(&joined, |t| {
        t.get_named("place").unwrap() == &Value::str("museum")
            && t.get_named("city").unwrap() == &Value::str("rome")
    });

    let sql = "SELECT COUNT(*) FROM visits v JOIN residents r ON v.person = r.person \
               WHERE v.place = 'museum' AND r.city = 'rome'";
    let output = session().evaluate(sql).unwrap();
    assert_eq!(output.len(), hand_built.len());
    assert_eq!(
        annotation_fingerprint(&output),
        annotation_fingerprint(&hand_built)
    );
}

#[test]
fn sum_aggregate_matches_hand_computed_weights() {
    let mut db = database();
    let mut trips = KRelation::new(["person", "distance"]);
    for (person, distance) in [("ada", 10i64), ("bo", 3), ("cy", 0), ("dee", 7)] {
        let p = db.intern(person);
        trips.insert(
            Tuple::new([
                ("person", Value::str(person)),
                ("distance", Value::Int(distance)),
            ]),
            Expr::Var(p),
        );
    }
    db.insert_table("trips", trips);

    let mut session = SqlSession::with_seed(db, MechanismParams::paper_edge_privacy(1.0), 3);
    let release = session
        .query_scalar("SELECT SUM(distance) FROM trips WHERE distance > 1")
        .unwrap();
    assert_eq!(release.true_answer, 20.0);
}

#[test]
fn unqualified_columns_resolve_across_joined_tables() {
    // `place` only exists in visits, `city` only in residents: both resolve
    // without qualifiers even in a join.
    let sql = "SELECT COUNT(*) FROM visits v JOIN residents r ON v.person = r.person \
               WHERE place = 'museum' AND city = 'rome'";
    let output = session().evaluate(sql).unwrap();
    assert_eq!(output.len(), 2); // ada and bo, both rome, both at the museum
}

/// Every rejected construct gets an `Unsupported` error whose span points at
/// the offending keyword and whose rendering underlines it.
#[test]
fn rejected_constructs_have_precise_spans_and_messages() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "SELECT COUNT(*) FROM t WHERE NOT a = 1",
            "negation (`NOT`)",
            "NOT",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE a NOT IN (1)",
            "`NOT IN`",
            "NOT",
        ),
        (
            "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2",
            "disjunction (`OR`)",
            "OR",
        ),
        (
            "SELECT COUNT(*) FROM t LEFT JOIN u ON t.a = u.a",
            "outer joins",
            "LEFT",
        ),
        (
            "SELECT COUNT(*) FROM t RIGHT JOIN u ON t.a = u.a",
            "outer joins",
            "RIGHT",
        ),
        (
            "SELECT COUNT(*) FROM t FULL OUTER JOIN u ON t.a = u.a",
            "outer joins",
            "FULL",
        ),
        (
            "SELECT COUNT(*) FROM t UNION SELECT COUNT(*) FROM u",
            "`UNION`",
            "UNION",
        ),
        (
            "SELECT COUNT(*) FROM t EXCEPT SELECT COUNT(*) FROM u",
            "`EXCEPT`",
            "EXCEPT",
        ),
        (
            "SELECT COUNT(*) FROM t INTERSECT SELECT COUNT(*) FROM u",
            "`INTERSECT`",
            "INTERSECT",
        ),
        (
            "SELECT COUNT(*) FROM t GROUP BY a, b",
            "multi-column `GROUP BY`",
            ",",
        ),
        ("SELECT COUNT(*) FROM t ORDER BY a", "`ORDER BY`", "ORDER"),
        ("SELECT COUNT(*) FROM t HAVING a = 1", "`HAVING`", "HAVING"),
        ("SELECT DISTINCT COUNT(*) FROM t", "`DISTINCT`", "DISTINCT"),
    ];
    for (sql, want_construct, want_keyword) in cases {
        match parse(sql) {
            Err(SqlError::Unsupported {
                construct, span, ..
            }) => {
                assert_eq!(&construct, want_construct, "for {sql:?}");
                assert_eq!(&span.slice(sql), want_keyword, "for {sql:?}");
                let rendered = SqlError::Unsupported {
                    construct: construct.clone(),
                    reason: String::new(),
                    span,
                }
                .render(sql);
                let caret_line = rendered.lines().last().unwrap();
                let caret_col = caret_line
                    .find('^')
                    .unwrap_or_else(|| panic!("no caret for {sql:?}: {rendered}"));
                // The carets sit under the offending keyword.
                let source_line = rendered.lines().nth(1).unwrap();
                assert!(
                    source_line[caret_col..].starts_with(want_keyword),
                    "for {sql:?}: {rendered}"
                );
            }
            other => panic!("expected Unsupported for {sql:?}, got {other:?}"),
        }
    }
}

/// Structural check: positive Boolean expressions only (no negation exists in
/// `Expr`, so this documents and guards the invariant that executing a plan
/// yields expressions built from variables with ∧/∨ alone).
fn assert_positive(expr: &Expr) {
    match expr {
        Expr::True | Expr::False | Expr::Var(_) => {}
        Expr::And(children) | Expr::Or(children) => children.iter().for_each(assert_positive),
    }
}

/// Builds a random-but-valid join query over the residents/visits schema.
///
/// `spec` drives the shape: for each join step `(use_visits, prior, cols)`
/// pick the joined table, the earlier alias to connect to, and which column
/// pair to equate. Always planable; the interesting property is downstream.
fn build_sql(spec: &[(bool, u8, u8)], with_filter: bool) -> String {
    // Alias 0 is always the FROM table (visits).
    let mut tables = vec![true];
    let mut sql = String::from("SELECT COUNT(*) FROM visits t0");
    for (i, &(use_visits, prior, cols)) in spec.iter().enumerate() {
        let alias = i + 1;
        let prior = prior as usize % tables.len();
        let new_cols = columns_of(use_visits);
        let prior_cols = columns_of(tables[prior]);
        let new_col = new_cols[cols as usize % 2];
        let prior_col = prior_cols[(cols as usize / 2) % 2];
        sql.push_str(&format!(
            " JOIN {} t{alias} ON t{alias}.{new_col} = t{prior}.{prior_col}",
            if use_visits { "visits" } else { "residents" }
        ));
        tables.push(use_visits);
    }
    if with_filter {
        sql.push_str(" WHERE t0.person <> 'zz'");
    }
    sql
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated join query compiles, executes, and yields provenance
    /// annotations that are (a) structurally negation-free and (b) monotone:
    /// adding a participant to a subset never shrinks the query answer —
    /// verified exhaustively over all participant subsets.
    #[test]
    fn generated_join_queries_produce_monotone_provenance(
        spec in proptest::collection::vec((any::<bool>(), 0u8..8, 0u8..4), 0..3),
        with_filter in any::<bool>(),
    ) {
        let sql = build_sql(&spec, with_filter);
        let session = session();
        let output = session.evaluate(&sql).unwrap_or_else(|e| {
            panic!("query failed to evaluate: {sql:?}: {}", e.render(&sql))
        });

        for (_, expr) in output.iter() {
            assert_positive(expr);
        }

        let query = SensitiveKRelation::counting(&output);
        prop_assert!(
            check_monotonicity_exhaustive(&query).is_ok(),
            "non-monotone query answer for {sql:?}"
        );
    }
}

/// The columns of a residents/visits table.
fn columns_of(is_visits: bool) -> [&'static str; 2] {
    if is_visits {
        ["person", "place"]
    } else {
        ["person", "city"]
    }
}

/// One side of a generated comparison: column `col` of alias `t{i}`, or a
/// literal.
#[derive(Debug)]
enum Side {
    Col(usize, &'static str),
    Lit(Value),
}

/// A generated conjunct, evaluated by the oracle with its own reading of
/// SQL comparison: absent attributes and mismatched types are false.
#[derive(Debug)]
struct Cond {
    lhs: Side,
    op: &'static str,
    rhs: Side,
}

/// Raw conjunct spec: `(kind, a, b, c, op)`.
type CondSpec = (u8, u8, u8, u8, u8);

impl Cond {
    /// Interprets `spec` over the aliases `t0..` whose tables `tables`
    /// lists (`true` = visits). Kinds 0–10 compare a column with a string
    /// literal, 11–13 two columns (of one alias or two), 14 two literals, 15
    /// a column with an integer (a type mismatch no tuple satisfies).
    fn new((kind, a, b, c, op): CondSpec, tables: &[bool]) -> Cond {
        const STRINGS: [&str; 13] = [
            "ada", "bo", "cy", "dee", "eli", "museum", "cafe", "park", "rome", "oslo", "lima", "d",
            "n",
        ];
        let column = |pick: u8, col: u8| {
            let alias = pick as usize % tables.len();
            Side::Col(alias, columns_of(tables[alias])[col as usize % 2])
        };
        let string = |pick: u8| Side::Lit(Value::str(STRINGS[pick as usize % STRINGS.len()]));
        let any_literal = |pick: u8| match pick % 4 {
            0 => Side::Lit(Value::Int(i64::from(pick % 3))),
            _ => string(pick / 4),
        };
        let (lhs, rhs) = match kind % 16 {
            0..=10 => (column(a, b), string(c / 2)),
            11..=13 => (column(a, c), column(b, c / 2)),
            14 => (any_literal(a), any_literal(b)),
            _ => (column(a, b), Side::Lit(Value::Int(i64::from(c % 8)))),
        };
        let (lhs, rhs) = if c % 2 == 1 { (rhs, lhs) } else { (lhs, rhs) };
        let op = ["=", "<>", "<", ">", "<=", ">="][op as usize % 6];
        Cond { lhs, op, rhs }
    }

    fn sql(&self) -> String {
        let side = |s: &Side| match s {
            Side::Col(alias, col) => format!("t{alias}.{col}"),
            Side::Lit(Value::Str(v)) => format!("'{v}'"),
            Side::Lit(v) => format!("{v}"),
        };
        format!("{} {} {}", side(&self.lhs), self.op, side(&self.rhs))
    }

    fn holds(&self, t: &Tuple) -> bool {
        let value = |s: &Side| match s {
            Side::Col(alias, col) => t.get_named(&format!("t{alias}.{col}")).cloned(),
            Side::Lit(v) => Some(v.clone()),
        };
        let (Some(l), Some(r)) = (value(&self.lhs), value(&self.rhs)) else {
            return false;
        };
        if std::mem::discriminant(&l) != std::mem::discriminant(&r) {
            return false;
        }
        match self.op {
            "=" => l == r,
            "<>" => l != r,
            "<" => l < r,
            ">" => l > r,
            "<=" => l <= r,
            _ => l >= r,
        }
    }
}

/// Table `name` renamed the way the planner qualifies alias `t{alias}`.
fn scan_as(db: &AnnotatedDatabase, name: &str, alias: usize) -> KRelation {
    rename(db.table(name).unwrap(), |a| {
        Attr::new(&format!("t{alias}.{}", a.name()))
    })
}

/// A relation's `(tuple, annotation)` pairs, sorted by tuple.
fn sorted_pairs(r: &KRelation) -> Vec<(Tuple, Expr)> {
    let mut pairs: Vec<(Tuple, Expr)> = r.iter().map(|(t, e)| (t.clone(), e.clone())).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The executor, which runs each conjunct where the planner placed it,
    /// returns exactly the relation of the unpushed composition: renamed
    /// scans, hash theta-joins filtered by their `ON` residuals, and one
    /// final selection of the `WHERE` conjuncts. Grouped plans agree per
    /// key with that relation restricted to the key.
    #[test]
    fn placed_conjuncts_match_the_unpushed_composition(
        joins in proptest::collection::vec(
            (
                any::<bool>(),
                0u8..8,
                0u8..4,
                proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>(), 0u8..6), 0..2),
            ),
            0..3,
        ),
        filter in proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>(), 0u8..6), 0..3),
        group in (any::<bool>(), 0u8..3),
    ) {
        let mut db = database();
        db.declare_public_domain("visits", "place", ["museum", "cafe", "zoo"].map(Value::str));
        db.declare_public_domain("residents", "city", ["rome", "oslo", "nyc"].map(Value::str));

        let mut tables = vec![true];
        let mut from = String::from("FROM visits t0");
        let mut oracle = scan_as(&db, "visits", 0);
        for (k, (use_visits, prior, cols, on)) in joins.iter().enumerate() {
            let alias = k + 1;
            let prior = *prior as usize % tables.len();
            // Mostly joins on a shared column; one spec in four equates a
            // non-person column with a person, a join no pair satisfies.
            let (new_col, prior_col) = match cols {
                0 | 1 => ("person", "person"),
                2 if tables[prior] == *use_visits => {
                    let col = columns_of(*use_visits)[1];
                    (col, col)
                }
                2 => ("person", "person"),
                _ => (columns_of(*use_visits)[1], "person"),
            };
            let table = if *use_visits { "visits" } else { "residents" };
            tables.push(*use_visits);
            let on: Vec<Cond> = on.iter().map(|&spec| Cond::new(spec, &tables)).collect();
            from.push_str(&format!(
                " JOIN {table} t{alias} ON t{alias}.{new_col} = t{prior}.{prior_col}"
            ));
            for cond in &on {
                from.push_str(&format!(" AND {}", cond.sql()));
            }
            let key = (
                Attr::new(&format!("t{prior}.{prior_col}")),
                Attr::new(&format!("t{alias}.{new_col}")),
            );
            oracle = theta_join(&oracle, &scan_as(&db, table, alias), &[key], |t| {
                on.iter().all(|c| c.holds(t))
            });
        }
        let filter: Vec<Cond> = filter.iter().map(|&spec| Cond::new(spec, &tables)).collect();
        if !filter.is_empty() {
            let conds: Vec<String> = filter.iter().map(Cond::sql).collect();
            from.push_str(&format!(" WHERE {}", conds.join(" AND ")));
        }
        let oracle = select(&oracle, |t| filter.iter().all(|c| c.holds(t)));

        let sql = format!("SELECT COUNT(*) {from}");
        let scalar = plan(&db, &sql).unwrap().expect_scalar();
        prop_assert_eq!(
            sorted_pairs(&execute(&db, &scalar).unwrap()),
            sorted_pairs(&oracle),
            "executor and oracle disagree on {sql:?}"
        );

        let (grouped, g) = group;
        if grouped {
            let g = g as usize % tables.len();
            let key = format!("t{g}.{}", if tables[g] { "place" } else { "city" });
            let sql = format!("SELECT {key}, COUNT(*) {from} GROUP BY {key}");
            let AnyPlan::Grouped(grouped) = plan(&db, &sql).unwrap() else {
                panic!("{sql:?} planned as a scalar query");
            };
            let groups = execute_grouped(&db, &grouped).unwrap();
            prop_assert_eq!(groups.len(), 3);
            for (value, relation) in groups {
                let expected = select(&oracle, |t| t.get_named(&key) == Some(&value));
                prop_assert_eq!(
                    sorted_pairs(&relation),
                    sorted_pairs(&expected),
                    "group {value:?} of {sql:?} disagrees with the oracle"
                );
            }
        }
    }
}
