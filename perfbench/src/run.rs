//! One workload run: set-up, the timed wire window, the correctness
//! checks, and the end-to-end metrics (or, traced, the per-layer ones).

use crate::checks::{self, Check};
use crate::data::{self, ColdStream, Shape, Snapshot};
use crate::load::{audit_tenant, Class, Conn, Record, Request, TENANTS, WARM};
use crate::stats::{metric, result_line, Metric, Sorted};
use crate::{layers, Args, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmdp_core::CacheStats;
use rmdp_graph::Graph;
use rmdp_krelation::tuple::Tuple;
use rmdp_noise::PrivacyBudget;
use rmdp_observe::{MetricsSnapshot, MonotonicClock, Stopwatch};
use rmdp_server::{serve, DpServer, ServerConfig, ServerHandle};
use rmdp_sql::CatalogSnapshot;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};

/// Client connections: at most one per core of the reference host.
pub const CLIENTS: usize = 2;
/// Every 997th hot read goes to the client's audit tenant, at most
/// [`AUDIT_CAP`] times, which bounds the cold re-solves replay costs.
const AUDIT_STRIDE_HOT: usize = 997;
/// Every 16th cold query goes to the audit tenant.
const AUDIT_STRIDE_COLD: usize = 16;
/// Every 6th ingest round re-queries as the writer's audit tenant.
const AUDIT_ROUND: u64 = 6;
const AUDIT_CAP: usize = 16;
/// The writer starts one ingest round a second, so a run performs the same
/// number of ingests however fast the server is, and the co-visit join
/// grows by the same number of pairs. A round's LP work takes a few percent
/// of the period: more, and the reader's tail would measure where the
/// scheduler happens to place the writer's LP thread rather than the
/// ingest itself.
const ROUND_PERIOD_NS: u64 = 1_000_000_000;
/// Each tenant's lifetime ε: far above what a run spends, so the budget is
/// never a refusal cause.
const BUDGET: f64 = 1e12;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// What one connection sent, with the texts its records index.
pub struct ClientRun {
    pub records: Vec<Record>,
    /// SQL texts; a query record's `text` indexes this.
    pub texts: Vec<String>,
    /// The `edges` shape behind each text, where there is one.
    pub shapes: Vec<Option<Shape>>,
    /// Ingested batches; an ingest record's `text` indexes this.
    pub batches: Vec<Vec<Tuple>>,
}

impl ClientRun {
    fn from_conn(conn: Conn, shapes: Vec<Option<Shape>>, texts: Vec<String>) -> Self {
        ClientRun {
            records: conn.records,
            texts,
            shapes,
            batches: Vec::new(),
        }
    }
}

/// A served server ready for the timed window.
pub struct Env {
    pub graph: Graph,
    pub base: Snapshot,
    pub server: Arc<DpServer>,
    handle: ServerHandle,
    /// The warm-up requests of set-up.
    pub warm: ClientRun,
}

impl Env {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// Server counters read at the edges of the timed window.
pub struct Window {
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    pub metrics_before: MetricsSnapshot,
    pub metrics_after: MetricsSnapshot,
}

impl Window {
    pub fn cache(&self) -> CacheStats {
        let (a, b) = (self.cache_after, self.cache_before);
        CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            insertions: a.insertions - b.insertions,
            evictions: a.evictions - b.evictions,
            evictions_stale: a.evictions_stale - b.evictions_stale,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let after = self.metrics_after.counter(name).unwrap_or(0);
        after - self.metrics_before.counter(name).unwrap_or(0)
    }
}

fn hot_set() -> (Vec<Option<Shape>>, Vec<String>) {
    let shapes = data::hot_shapes();
    let texts = shapes.iter().map(Shape::sql).collect();
    (shapes.into_iter().map(Some).collect(), texts)
}

/// Builds the data, starts the server, registers the tenants and warms up
/// over the wire: the reading workloads send every working-set shape once;
/// `cold_joins`, which has no working set, sends one full triangle count as
/// a readiness probe (the cold stream always filters, so never hits it).
fn setup(w: Workload, clock: MonotonicClock) -> Result<Env, String> {
    let graph = data::graph();
    let db = data::database(&graph, w == Workload::IngestMix);
    let base = CatalogSnapshot::shared(db, data::params());
    let server = Arc::new(DpServer::new(Arc::clone(&base), ServerConfig::default()));
    for tenant in TENANTS {
        let budget = PrivacyBudget {
            epsilon: BUDGET,
            delta: 0.0,
        };
        if !server.register_tenant(tenant, budget) {
            return Err(format!("tenant {tenant} registered twice"));
        }
    }
    let handle = serve(Arc::clone(&server), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let (mut shapes, mut texts) = hot_set();
    match w {
        Workload::HotReads => {}
        Workload::ColdJoins => {
            shapes.truncate(1);
            texts.truncate(1);
        }
        Workload::IngestMix => {
            texts.extend(data::checkins_sql());
            shapes.extend([None; 3]);
        }
    }
    let mut conn = Conn::connect(handle.addr(), clock)?;
    for (i, sql) in texts.iter().enumerate() {
        conn.send(Request::Query { tenant: WARM, sql }, Class::Warm, i);
    }
    let warm = ClientRun::from_conn(conn, shapes, texts);
    Ok(Env {
        graph,
        base,
        server,
        handle,
        warm,
    })
}

/// One client's seeded stream of hot reads; every [`AUDIT_STRIDE_HOT`]-th
/// read goes to the client's audit tenant.
struct Reader {
    rng: StdRng,
    client: usize,
    sent: usize,
    audits: usize,
}

impl Reader {
    fn new(seed: u64, client: usize) -> Self {
        Reader {
            rng: StdRng::seed_from_u64(seed ^ (0x5EAD_0000 + client as u64)),
            client,
            sent: 0,
            audits: 0,
        }
    }

    /// Sends one read of a random shape among `shapes`, whose texts start at
    /// `texts[base]`.
    fn read(&mut self, conn: &mut Conn, shapes: &[Option<Shape>], texts: &[String], base: usize) {
        let i = self.rng.gen_range(0..shapes.len());
        let audit = self.sent % AUDIT_STRIDE_HOT == AUDIT_STRIDE_HOT - 1 && self.audits < AUDIT_CAP;
        let tenant = if audit {
            self.audits += 1;
            audit_tenant(self.client)
        } else {
            self.client
        };
        self.sent += 1;
        let class = if shapes[i] == Some(Shape::Grouped) {
            Class::Grouped
        } else {
            Class::Read
        };
        let sql = &texts[base + i];
        conn.send(Request::Query { tenant, sql }, class, base + i);
    }
}

/// Closed-loop reads of the hot working set until the deadline.
fn hot_loop(mut conn: Conn, client: usize, seed: u64, seconds: f64) -> ClientRun {
    let (shapes, texts) = hot_set();
    let mut reader = Reader::new(seed, client);
    let watch = Stopwatch::start();
    while conn.alive() && watch.elapsed_seconds() < seconds {
        reader.read(&mut conn, &shapes, &texts, 0);
    }
    ClientRun::from_conn(conn, shapes, texts)
}

/// Closed-loop never-seen shapes until the deadline.
fn cold_loop(mut conn: Conn, client: usize, seed: u64, seconds: f64) -> ClientRun {
    let mut stream = ColdStream::new(seed, client);
    let (mut shapes, mut texts) = (Vec::new(), Vec::new());
    let watch = Stopwatch::start();
    let mut audits = 0usize;
    while conn.alive() && watch.elapsed_seconds() < seconds {
        let shape = stream.next_shape();
        let sent = texts.len();
        texts.push(shape.sql());
        shapes.push(Some(shape));
        let tenant = if sent % AUDIT_STRIDE_COLD == AUDIT_STRIDE_COLD - 1 && audits < AUDIT_CAP {
            audits += 1;
            audit_tenant(client)
        } else {
            client
        };
        let class = Class::Cold {
            triangle: matches!(shape, Shape::Triangle { .. }),
        };
        conn.send(
            Request::Query {
                tenant,
                sql: &texts[sent],
            },
            class,
            sent,
        );
    }
    ClientRun::from_conn(conn, shapes, texts)
}

/// Connection A of `ingest_mix`: each round ingests a fresh batch, then
/// re-queries each `checkins` shape once, then reads the hot set until the
/// next round is due. The reads keep both vCPUs busy, as in `hot_reads`: a
/// single closed-loop connection leaves a vCPU idle between requests, and on
/// a shared host waking it dominated the reads' latency (p95 0.17-0.46 ms
/// between runs).
fn writer_loop(mut conn: Conn, seed: u64, seconds: f64) -> ClientRun {
    let mut texts = data::checkins_sql().to_vec();
    let base = texts.len();
    let mut shapes = vec![None; base];
    let (hot_shapes, hot_texts) = hot_set();
    texts.extend(hot_texts);
    shapes.extend(hot_shapes);
    let mut reader = Reader::new(seed, 0);
    let offset = data::ingest_offset(seed);
    let mut batches = Vec::new();
    let deadline = (seconds * 1e9) as u64;
    let watch = Stopwatch::start();
    let mut audits = 0usize;
    for round in 1u64.. {
        let due = ((round - 1) * ROUND_PERIOD_NS).min(deadline);
        while conn.alive() && watch.elapsed_nanos() < due {
            reader.read(&mut conn, &shapes[base..], &texts, base);
        }
        if !conn.alive() || watch.elapsed_nanos() >= deadline {
            break;
        }
        let rows = data::ingest_batch(offset, round);
        let wire = data::wire_rows(&rows);
        batches.push(rows);
        let ingest = Request::Ingest {
            table: "checkins",
            rows: &wire,
        };
        conn.send(ingest, Class::Ingest, batches.len() - 1);
        let tenant = if round % AUDIT_ROUND == 0 && audits < AUDIT_CAP {
            audits += 1;
            audit_tenant(0)
        } else {
            0
        };
        for (k, sql) in texts[..base].iter().enumerate() {
            conn.send(Request::Query { tenant, sql }, Class::Requery(k as u8), k);
        }
    }
    ClientRun {
        records: conn.records,
        texts,
        shapes,
        batches,
    }
}

/// Runs the timed window: one thread per connection, all released at once.
fn window(
    env: &Env,
    args: &Args,
    clock: MonotonicClock,
) -> Result<(Vec<ClientRun>, Window), String> {
    let addr = env.addr();
    let barrier = Barrier::new(CLIENTS + 1);
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let conn = Conn::connect(addr, clock);
                    barrier.wait();
                    let conn = conn?;
                    Ok::<_, String>(match (w, c) {
                        (Workload::HotReads, _) => hot_loop(conn, c, seed, seconds),
                        (Workload::ColdJoins, _) => cold_loop(conn, c, seed, seconds),
                        (Workload::IngestMix, 0) => writer_loop(conn, seed, seconds),
                        (Workload::IngestMix, _) => hot_loop(conn, c, seed, seconds),
                    })
                })
            })
            .collect();
        let cache_before = env.server.cache_stats();
        let metrics_before = env.server.metrics().snapshot();
        barrier.wait();
        let runs: Result<Vec<ClientRun>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect();
        let window = Window {
            cache_before,
            cache_after: env.server.cache_stats(),
            metrics_before,
            metrics_after: env.server.metrics().snapshot(),
        };
        Ok((runs?, window))
    })
}

/// Latencies in ms of the successful records `pick` selects.
fn latencies<'a>(
    records: impl Iterator<Item = &'a Record>,
    pick: impl Fn(&Record) -> bool,
) -> Sorted {
    Sorted::new(
        records
            .filter(|r| pick(r) && !r.reply.failed())
            .map(|r| r.nanos as f64 / 1e6)
            .collect(),
    )
}

/// Completed `pick` requests per second of the wall time they spanned.
fn throughput<'a>(
    records: impl Iterator<Item = &'a Record> + Clone,
    pick: impl Fn(&Record) -> bool,
) -> f64 {
    let picked = records.filter(|r| pick(r) && !r.reply.failed());
    let first = picked.clone().map(|r| r.start_ns).min().unwrap_or(0);
    let last = picked
        .clone()
        .map(|r| r.start_ns + r.nanos)
        .max()
        .unwrap_or(0);
    let n = picked.count();
    if last > first {
        n as f64 / ((last - first) as f64 / 1e9)
    } else {
        0.0
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn info(name: &str, value: f64, unit: &str, note: &str) {
    println!(
        "# {name} {value} {unit}{}{note}",
        if note.is_empty() { "" } else { "  " }
    );
}

fn tail_note(s: &Sorted, q: f64) -> String {
    let beyond = s.beyond(q);
    let flag = if beyond >= 10 {
        ""
    } else {
        " (fewer than 10 beyond: not meaningful)"
    };
    format!("n={} beyond={beyond}{flag}", s.len())
}

/// The end-to-end metrics: the same six names on every workload, each read
/// from the request class the workload exists for. Also prints the same
/// figures under per-workload names (`read_p50_ms`, `cold_p95_ms`, ...).
fn end_to_end(w: Workload, runs: &[ClientRun], setup_s: f64) -> Vec<Metric> {
    let all = || runs.iter().flat_map(|r| r.records.iter());
    let reads = |r: &Record| matches!(r.class, Class::Read | Class::Grouped);
    let cold = |r: &Record| matches!(r.class, Class::Cold { .. });
    let (primary, qps, tail_q, side) = match w {
        // Reads, every one a cache hit. Side: the grouped report.
        Workload::HotReads => (
            latencies(all(), reads),
            throughput(all(), reads),
            0.99,
            latencies(all(), |r| r.class == Class::Grouped),
        ),
        // Misses of never-seen shapes. Side: the triangle misses.
        Workload::ColdJoins => (
            latencies(all(), cold),
            throughput(all(), cold),
            0.95,
            latencies(all(), |r| r.class == Class::Cold { triangle: true }),
        ),
        // Reads of both connections beside the ingests. Side: the writer's
        // whole round, INGEST plus its re-queries.
        Workload::IngestMix => (
            latencies(all(), reads),
            throughput(all(), reads),
            0.99,
            Sorted::new(rounds(&runs[0].records).map(|ns| ns as f64 / 1e6).collect()),
        ),
    };
    let names = match w {
        Workload::HotReads => ["read_p50_ms", "read_p99_ms", "read_qps", "group_p50_ms"],
        Workload::ColdJoins => [
            "cold_p50_ms",
            "cold_p95_ms",
            "cold_qps",
            "cold_triangle_p50_ms",
        ],
        Workload::IngestMix => ["read_p50_ms", "read_p99_ms", "read_qps", "round_p50_ms"],
    };
    info(
        names[0],
        primary.median(),
        "ms",
        &format!("n={}", primary.len()),
    );
    info(
        names[1],
        primary.quantile(tail_q),
        "ms",
        &tail_note(&primary, tail_q),
    );
    info(names[2], qps, "1/s", "");
    info(names[3], side.median(), "ms", &format!("n={}", side.len()));
    if w == Workload::IngestMix {
        let writer = |pick: &dyn Fn(&Record) -> bool| latencies(runs[0].records.iter(), pick);
        for (name, s) in [
            ("ingest_p50_ms", writer(&|r| r.class == Class::Ingest)),
            (
                "refresh_p50_ms",
                writer(&|r| matches!(r.class, Class::Requery(_))),
            ),
            (
                "refresh_filtered_p50_ms",
                writer(&|r| r.class == Class::Requery(0)),
            ),
            (
                "refresh_point_p50_ms",
                writer(&|r| r.class == Class::Requery(1)),
            ),
            (
                "refresh_covisit_p50_ms",
                writer(&|r| r.class == Class::Requery(data::COVISIT)),
            ),
        ] {
            info(name, s.median(), "ms", &format!("n={}", s.len()));
        }
    }
    vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_ms", primary.median(), "ms"),
        metric("tail_ms", primary.quantile(tail_q), "ms"),
        metric("qps", qps, "1/s"),
        metric("side_p50_ms", side.median(), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Wall time of each writer round: its INGEST plus the re-queries after it
/// (the reads between rounds are not part of a round).
fn rounds(records: &[Record]) -> impl Iterator<Item = u64> + '_ {
    records
        .split_inclusive(|r| r.class == Class::Requery(data::COVISIT))
        .filter_map(|chunk| {
            let start = chunk.iter().rposition(|r| r.class == Class::Ingest)?;
            Some(chunk[start..].iter().map(|r| r.nanos).sum())
        })
}

/// Runs one workload; returns whether every correctness check passed.
pub fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let clock = MonotonicClock::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {nproc} clients {CLIENTS}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up runs several times and reports its median; the last one
    // serves the window.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut env = None;
    for _ in 0..reps {
        drop(env.take());
        let watch = Stopwatch::start();
        env = Some(setup(w, clock)?);
        setups.push(watch.elapsed_seconds());
    }
    let env = env.expect("at least one set-up");
    println!(
        "# sizes graph_nodes {} graph_edges {} participants {} hot_shapes {} cache_capacity {} checkins_rows {} rows_per_ingest {}",
        data::GRAPH_NODES,
        env.graph.num_edges(),
        env.base.database().universe().len(),
        data::hot_shapes().len(),
        env.server.config().cache_capacity,
        env.base.database().table("checkins").map_or(0, |t| t.len()),
        data::INGEST_ROWS,
    );
    let setup_list = format!("{setups:.3?}");
    let setup_s = Sorted::new(setups).median();

    let (runs, window) = window(&env, args, clock)?;

    let records = || {
        env.warm
            .records
            .iter()
            .chain(runs.iter().flat_map(|r| r.records.iter()))
    };
    let attempted = records().count();
    let failed = records().filter(|r| r.reply.failed()).count();

    let mut checks: Vec<Check> = vec![
        checks::budget(&env, &runs),
        checks::audits(&env, &runs),
        checks::graph_counts(&env, &runs),
        checks::no_refusals(&env, failed),
    ];
    if w == Workload::IngestMix {
        checks.push(checks::untouched_hits(&window, &runs));
    }

    let mut metrics = end_to_end(w, &runs, setup_s);
    if args.trace {
        let (per_layer, traced_checks, prediction) = layers::traced(&env, &runs, &window, args)?;
        checks.extend(traced_checks);
        metrics = per_layer;
        println!(
            "# prediction {} {} {}",
            prediction.name,
            if prediction.ok { "holds" } else { "MISSED" },
            prediction.detail
        );
    }
    info("setup_s", setup_s, "s", &format!("median of {setup_list}"));
    info("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    let frac = failed as f64 / attempted.max(1) as f64;
    info(
        "failed_frac",
        frac,
        "ratio",
        &format!("{failed} of {attempted}"),
    );
    for check in &checks {
        println!(
            "# check {} {} {}",
            check.name,
            if check.ok { "ok" } else { "FAILED" },
            check.detail
        );
    }
    let correct = checks.iter().all(|c| c.ok);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
