//! Seeded inputs: the `edges` graph table, the `checkins` table, the query
//! shapes each workload sends, and the independent subgraph counts the
//! correctness check compares the SQL path against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmdp_core::MechanismParams;
use rmdp_graph::{generators, subgraph, Graph};
use rmdp_krelation::annotate::{AnnotatedDatabase, AnnotationRule};
use rmdp_krelation::tuple::{Tuple, Value};
use rmdp_krelation::{Expr, KRelation};
use std::collections::HashSet;
use std::sync::Arc;

/// Nodes of the `edges` graph. Small enough that a 2-path miss (2(|P|+1)
/// sequence LPs) costs tens of milliseconds rather than seconds.
pub const GRAPH_NODES: usize = 32;
/// Target average degree of the `G(n, p)` graph.
pub const AVG_DEGREE: f64 = 6.0;
/// Size of the declared public `GROUP BY` domain over `edges.src`.
pub const GROUP_DOMAIN: i64 = 8;
/// People in `checkins`; every ingested row belongs to one of them, so an
/// ingest never grows the participant universe.
pub const PEOPLE: usize = 16;
/// Initial distinct places per person.
pub const VISITS_PER_PERSON: usize = 6;
/// Initial visitors per place: 16 · 6 visits over 24 places, so the
/// co-visit join starts at 24 · C(4, 2) = 144 pairs.
pub const VISITORS_PER_PLACE: usize = 4;
/// Rows per `INGEST` batch.
pub const INGEST_ROWS: usize = 2;
/// Place ids below this bound match the filtered `checkins` count.
pub const FILTER_PLACE_BOUND: i64 = 500;

/// One scalar query over `edges`, or the grouped report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Triangles `a < b < c` with `a >= lo`, `c < hi`, `b != skip` and
    /// `c != tail`.
    Triangle {
        lo: i64,
        hi: i64,
        skip: Option<i64>,
        tail: Option<i64>,
    },
    /// 2-paths `a - b - c` with `a < c`, `a >= lo`, `c < hi`, `b != skip`
    /// and `c != tail`.
    TwoPath {
        lo: i64,
        hi: i64,
        skip: Option<i64>,
        tail: Option<i64>,
    },
    /// Edges `a < c` with `a >= lo` and `c < hi`.
    Edge { lo: i64, hi: i64 },
    /// Edge counts grouped by `src` over the declared public domain.
    Grouped,
}

impl Shape {
    /// The SQL text the wire carries for this shape.
    pub fn sql(&self) -> String {
        match *self {
            Shape::Triangle { lo, hi, skip, tail } => {
                let mut sql = String::from(
                    "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src \
                     JOIN edges e3 ON e2.dst = e3.src AND e3.dst = e1.src \
                     WHERE e1.src < e1.dst AND e2.src < e2.dst",
                );
                push_bounds(&mut sql, lo, hi, skip, tail);
                sql
            }
            Shape::TwoPath { lo, hi, skip, tail } => {
                let mut sql = String::from(
                    "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dst = e2.src \
                     WHERE e1.src < e2.dst",
                );
                push_bounds(&mut sql, lo, hi, skip, tail);
                sql
            }
            Shape::Edge { lo, hi } => {
                let mut sql = String::from("SELECT COUNT(*) FROM edges WHERE src < dst");
                if lo > 0 {
                    sql.push_str(&format!(" AND src >= {lo}"));
                }
                if hi < GRAPH_NODES as i64 {
                    sql.push_str(&format!(" AND dst < {hi}"));
                }
                sql
            }
            Shape::Grouped => {
                "SELECT src, COUNT(*) FROM edges WHERE src < dst GROUP BY src".to_owned()
            }
        }
    }

    /// The exact answer computed straight from the graph by `rmdp_graph`'s
    /// subgraph enumeration, independent of the SQL path. `None` for the
    /// grouped report.
    pub fn graph_count(&self, g: &Graph) -> Option<u64> {
        let inside = |a: u32, c: u32, lo: i64, hi: i64| i64::from(a) >= lo && i64::from(c) < hi;
        let kept = |v: u32, skip: Option<i64>| skip != Some(i64::from(v));
        match *self {
            Shape::Triangle { lo, hi, skip, tail } => Some(
                subgraph::triangles(g)
                    .iter()
                    .filter(|[a, b, c]| inside(*a, *c, lo, hi) && kept(*b, skip) && kept(*c, tail))
                    .count() as u64,
            ),
            Shape::TwoPath { lo, hi, skip, tail } => Some(
                subgraph::k_stars(g, 2, usize::MAX)
                    .iter()
                    .filter(|(b, leaves)| {
                        let (a, c) = (leaves[0].min(leaves[1]), leaves[0].max(leaves[1]));
                        inside(a, c, lo, hi) && kept(*b, skip) && kept(c, tail)
                    })
                    .count() as u64,
            ),
            Shape::Edge { lo, hi } => Some(
                g.edges()
                    .iter()
                    .filter(|&&(u, v)| inside(u.min(v), u.max(v), lo, hi))
                    .count() as u64,
            ),
            Shape::Grouped => None,
        }
    }
}

/// Appends a self-join's literal filters: the end points `a = e1.src` and
/// `c = e2.dst`, and the middle node `b = e1.dst`.
fn push_bounds(sql: &mut String, lo: i64, hi: i64, skip: Option<i64>, tail: Option<i64>) {
    if lo > 0 {
        sql.push_str(&format!(" AND e1.src >= {lo}"));
    }
    if hi < GRAPH_NODES as i64 {
        sql.push_str(&format!(" AND e2.dst < {hi}"));
    }
    if let Some(b) = skip {
        sql.push_str(&format!(" AND e1.dst <> {b}"));
    }
    if let Some(c) = tail {
        sql.push_str(&format!(" AND e2.dst <> {c}"));
    }
}

const FULL: (i64, i64) = (0, GRAPH_NODES as i64);

/// The fixed hot working set: 15 scalar shapes plus the grouped report.
/// Every one is warmed before timing, so every timed request hits.
pub fn hot_shapes() -> Vec<Shape> {
    let (lo, hi) = FULL;
    vec![
        Shape::Triangle {
            lo,
            hi,
            skip: None,
            tail: None,
        },
        Shape::Triangle {
            lo: 4,
            hi,
            skip: None,
            tail: None,
        },
        Shape::Triangle {
            lo,
            hi: 28,
            skip: None,
            tail: None,
        },
        Shape::Triangle {
            lo: 2,
            hi: 30,
            skip: None,
            tail: None,
        },
        Shape::Triangle {
            lo,
            hi,
            skip: Some(5),
            tail: None,
        },
        Shape::TwoPath {
            lo: 0,
            hi: 16,
            skip: None,
            tail: None,
        },
        Shape::TwoPath {
            lo: 8,
            hi: 24,
            skip: None,
            tail: None,
        },
        Shape::TwoPath {
            lo: 16,
            hi,
            skip: None,
            tail: None,
        },
        Shape::TwoPath {
            lo: 4,
            hi: 20,
            skip: None,
            tail: None,
        },
        Shape::TwoPath {
            lo: 12,
            hi: 28,
            skip: Some(20),
            tail: None,
        },
        Shape::Edge { lo, hi },
        Shape::Edge { lo: 8, hi },
        Shape::Edge { lo, hi: 16 },
        Shape::Edge { lo: 4, hi: 28 },
        Shape::Edge { lo: 16, hi },
        Shape::Grouped,
    ]
}

/// Width of the node window a cold 2-path's end points fall in: about a
/// third of the nodes keeps a 2-path miss in the tens of milliseconds.
pub const COLD_WINDOW: i64 = 14;

/// One client's endless stream of never-seen shapes: three 2-paths for
/// every triangle. Window positions and widths cycle through every value in
/// turn, so each run sees the same mix of cheap and expensive windows; the
/// seed picks the skipped middle node and the excluded end node. Client `c`
/// only excludes end nodes `≡ c (mod 2)`, so the two clients' shapes are
/// disjoint and every request misses.
pub struct ColdStream {
    rng: StdRng,
    seen: HashSet<Shape>,
    client: i64,
    sent: i64,
}

impl ColdStream {
    pub fn new(seed: u64, client: usize) -> Self {
        ColdStream {
            rng: StdRng::seed_from_u64(seed ^ (0xC01D + client as u64)),
            seen: HashSet::new(),
            client: client as i64,
            sent: 0,
        }
    }

    pub fn next_shape(&mut self) -> Shape {
        let n = GRAPH_NODES as i64;
        let k = self.sent / 4;
        let triangle = self.sent % 4 == 3;
        self.sent += 1;
        loop {
            let skip = Some(self.rng.gen_range(0..n));
            let tail = Some(2 * self.rng.gen_range(0..n / 2) + self.client);
            let shape = if triangle {
                let lo = k % 8;
                let hi = n - (k / 8) % 9;
                Shape::Triangle { lo, hi, skip, tail }
            } else {
                let j = 3 * k + self.sent % 4;
                let positions = n - COLD_WINDOW + 1;
                let lo = j % positions;
                let hi = lo + COLD_WINDOW - (j / positions) % 3;
                Shape::TwoPath { lo, hi, skip, tail }
            };
            if self.seen.insert(shape) {
                return shape;
            }
        }
    }
}

/// The stream the `edges` graph is drawn from. It is fixed rather than
/// taken from `--seed`: graph-to-graph differences in how many 2-paths fall
/// inside a node window moved `cold_joins` latency by a third between
/// seeds, which would drown any change to the code. The seed drives every
/// request stream instead.
pub const GRAPH_SEED: u64 = 0x6EA9_0032;

/// The `edges` graph: one `G(n, p)` draw with average degree 6.
pub fn graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    generators::gnp_average_degree(GRAPH_NODES, AVG_DEGREE, &mut rng)
}

/// The mechanism parameters every release uses: node privacy at ε = 1, so
/// one scalar release (or one evenly split grouped report) costs exactly 1.
pub fn params() -> MechanismParams {
    MechanismParams::paper_node_privacy(1.0)
}

/// Builds the database: `edges` in both directions, each edge annotated
/// `node:u ∧ node:v` over interned node ids (a column-qualified owner rule
/// would make `src:5` and `dst:5` two participants), and, when
/// `with_checkins`, the `checkins(person, place)` table under the
/// `OwnerColumn(person)` rule.
pub fn database(g: &Graph, with_checkins: bool) -> AnnotatedDatabase {
    let mut db = AnnotatedDatabase::new();
    let nodes: Vec<_> = (0..GRAPH_NODES)
        .map(|i| db.intern(&format!("node:{i}")))
        .collect();
    let mut edges = KRelation::new(["src", "dst"]);
    for &(u, v) in g.edges() {
        for (a, b) in [(u, v), (v, u)] {
            edges.insert(
                Tuple::new([("src", Value::Int(a.into())), ("dst", Value::Int(b.into()))]),
                Expr::and2(Expr::Var(nodes[a as usize]), Expr::Var(nodes[b as usize])),
            );
        }
    }
    db.insert_table("edges", edges);
    db.declare_public_domain("edges", "src", (0..GROUP_DOMAIN).map(Value::Int));

    if with_checkins {
        for p in 0..PEOPLE {
            db.intern(&AnnotationRule::owner_label("person", &person(p)));
        }
        db.insert_table("checkins", KRelation::new(["person", "place"]));
        db.declare_annotation_rule("checkins", AnnotationRule::OwnerColumn("person".into()));
        // A balanced design: visit slot `s` goes to person `s mod PEOPLE` at
        // place `s / VISITORS_PER_PLACE`, so every person visits
        // VISITS_PER_PERSON distinct places and every place has the same
        // visitors, a fixed co-visit count.
        let rows = (0..PEOPLE * VISITS_PER_PERSON)
            .map(|s| checkin(s % PEOPLE, (s / VISITORS_PER_PLACE) as i64));
        db.apply_delta("checkins", rows)
            .expect("checkins has an owner rule and every row names its owner");
    }
    db
}

/// The person value of participant `p`.
pub fn person(p: usize) -> Value {
    Value::str(&format!("u{p}"))
}

/// One `checkins` row.
pub fn checkin(p: usize, place: i64) -> Tuple {
    Tuple::new([("person", person(p)), ("place", Value::Int(place))])
}

/// Which of [`checkins_sql`] is the co-visit join.
pub const COVISIT: u8 = 2;

/// The `checkins` shapes connection A re-queries after every ingest, one per
/// refresh tier: a filtered count that every batch grows (bare `Var` terms,
/// so the refresh re-enters warm), a point count no batch touches (its one
/// term is unchanged, so the refresh republishes) and a co-visit self-join
/// (conjunctive terms, so the refresh rebuilds cold). The point count has a
/// single row on purpose: a larger unchanged result can still come out of
/// the hash-keyed relation in another order after a delta, which takes the
/// warm tier instead.
pub fn checkins_sql() -> [String; 3] {
    [
        format!("SELECT COUNT(*) FROM checkins WHERE place < {FILTER_PLACE_BOUND}"),
        "SELECT COUNT(*) FROM checkins WHERE person = 'u0' AND place = 0".to_owned(),
        "SELECT COUNT(*) FROM checkins c1 JOIN checkins c2 ON c1.place = c2.place \
         WHERE c1.person < c2.person"
            .to_owned(),
    ]
}

/// The rows of ingest round `round` (1-based): two people meet at a place no
/// row has named before, so every row is a fresh tuple (a repeated tuple
/// would OR its annotation into the old one and grow the LP instead). The
/// filtered count gains both rows and the co-visit join exactly one pair.
/// The pairs rotate through every person and every gap in turn from the
/// seed's `offset`, so each seed grows the join by the same kind of pairs.
pub fn ingest_batch(offset: usize, round: u64) -> Vec<Tuple> {
    let place = 100 + round as i64;
    let first = (offset + 5 * round as usize) % PEOPLE;
    let second = (first + 1 + round as usize % (PEOPLE - 1)) % PEOPLE;
    debug_assert_eq!(INGEST_ROWS, 2);
    vec![checkin(first, place), checkin(second, place)]
}

/// The seed's starting person for [`ingest_batch`].
pub fn ingest_offset(seed: u64) -> usize {
    StdRng::seed_from_u64(seed ^ 0xA11CE).gen_range(0..PEOPLE)
}

/// The wire form of a batch: `;`-separated rows of `column=value` pairs.
pub fn wire_rows(rows: &[Tuple]) -> String {
    rows.iter()
        .map(|t| {
            t.iter()
                .map(|(a, v)| match v {
                    Value::Int(i) => format!("{}={i}", a.name()),
                    Value::Str(s) => format!("{}={s}", a.name()),
                    Value::Bool(b) => format!("{}={b}", a.name()),
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Shared handle type of the catalog every component reads.
pub type Snapshot = Arc<rmdp_sql::CatalogSnapshot>;
