//! The traced run: replays the wire run's request stream in-process through
//! the replica, once untraced and once with spans, checks that every
//! replica release is bit-identical to its wire answer, times the server's
//! own public calls on the same requests, and derives the per-layer metrics.

use crate::checks::{same_bits, shed_refused, Check};
use crate::data::{self, Shape};
use crate::load::{Class, Record, Reply, INPROC, TENANTS, WARM};
use crate::replica::{Fork, Miss, Outcome, Replica};
use crate::run::{ClientRun, Env, Window};
use crate::stats::{median, metric, Metric};
use crate::trace::{Off, Spans, Tracer};
use crate::{Args, Workload};
use rmdp_krelation::tuple::Tuple;
use rmdp_observe::Stopwatch;
use rmdp_server::protocol::encode_response;
use rmdp_server::{derive_query_seed, derive_tenant_seed, ServerConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Window requests replayed per snapshot version: all of a hot run's
/// version, and enough of each `ingest_mix` version to see whether the
/// `edges` entries survive every ingest.
const REPLAY_HOT: usize = 20_000;
const REPLAY_HOT_PER_VERSION: usize = 400;
/// Cold requests replayed: each re-solves its LPs twice (untraced and
/// traced), so this bounds the traced run's extra time.
const REPLAY_COLD: usize = 48;
/// Window requests the server's in-process calls are timed on.
const INPROCESS: usize = 5_000;
/// In-process ingests timed after the replay.
const INPROCESS_INGESTS: u64 = 8;

enum Kind<'a> {
    Ingest(&'a [Tuple]),
    Query {
        tenant: usize,
        index: u64,
        sql: &'a str,
        shape: Option<Shape>,
        record: &'a Record,
    },
}

struct Event<'a> {
    version: u64,
    start_ns: u64,
    class: Class,
    kind: Kind<'a>,
}

/// Pairs every admitted wire request with its replay-log entry (admission
/// index and snapshot version), and every applied ingest with the version
/// it produced.
fn events<'a>(
    env: &Env,
    runs: &'a [ClientRun],
    warm: &'a ClientRun,
) -> Result<Vec<Event<'a>>, String> {
    let mut out = Vec::new();
    let sources = std::iter::once((warm, WARM)).chain(
        runs.iter()
            .enumerate()
            .flat_map(|(c, run)| [(run, c), (run, crate::load::audit_tenant(c))]),
    );
    for (run, tenant) in sources {
        let name = TENANTS[tenant];
        let log = env
            .server
            .query_log(name)
            .ok_or_else(|| format!("no log for {name}"))?;
        let admitted = run
            .records
            .iter()
            .filter(|r| r.tenant == tenant && !r.reply.refused_before_admission());
        let mut paired = 0usize;
        for (record, entry) in admitted.zip(&log) {
            let sql = run.texts[record.text].as_str();
            if entry.sql != sql {
                return Err(format!(
                    "{name}: log entry {} is not the request sent",
                    entry.index
                ));
            }
            out.push(Event {
                version: entry.snapshot_version,
                start_ns: record.start_ns,
                class: record.class,
                kind: Kind::Query {
                    tenant,
                    index: entry.index,
                    sql,
                    shape: run.shapes[record.text],
                    record,
                },
            });
            paired += 1;
        }
        if paired != log.len() {
            return Err(format!("{name}: {} logged, {paired} paired", log.len()));
        }
    }
    if let Some(writer) = runs.first() {
        let applied = writer.records.iter().filter(|r| r.reply == Reply::Ingested);
        for (k, r) in applied.enumerate() {
            out.push(Event {
                version: k as u64 + 1,
                start_ns: r.start_ns,
                class: Class::Ingest,
                kind: Kind::Ingest(&writer.batches[r.text]),
            });
        }
    }
    // Ingest v comes after every query of version v - 1 and before every
    // query of version v.
    out.sort_by_key(|e| (e.version, matches!(e.kind, Kind::Query { .. }), e.start_ns));
    Ok(out)
}

/// Keeps set-up, ingests and writer re-queries whole, and caps the reads
/// and cold queries of the window.
fn select<'a>(w: Workload, events: Vec<Event<'a>>) -> Vec<Event<'a>> {
    let mut per_version: BTreeMap<u64, usize> = BTreeMap::new();
    let mut cold = 0usize;
    events
        .into_iter()
        .filter(|e| match e.class {
            Class::Read | Class::Grouped => {
                let cap = if w == Workload::IngestMix {
                    REPLAY_HOT_PER_VERSION
                } else {
                    REPLAY_HOT
                };
                let n = per_version.entry(e.version).or_insert(0);
                *n += 1;
                *n <= cap
            }
            Class::Cold { .. } => {
                cold += 1;
                cold <= REPLAY_COLD
            }
            _ => true,
        })
        .collect()
}

/// One replayed event.
struct Replayed {
    nanos: u64,
    outcome: Option<Outcome>,
    fork: Option<Fork>,
    /// The replica's answer differed from the wire's, or it failed.
    mismatch: bool,
}

fn replay<T: Tracer>(t: &mut T, env: &Env, events: &[Event]) -> Vec<Replayed> {
    let config = ServerConfig::default();
    let mut replica = Replica::new(std::sync::Arc::clone(&env.base), config.cache_capacity);
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        t.request(i as u64);
        let watch = Stopwatch::start();
        let replayed = match &e.kind {
            Kind::Ingest(rows) => {
                let fork = replica.fork(t, "checkins", rows.to_vec());
                Replayed {
                    nanos: watch.elapsed_nanos(),
                    outcome: None,
                    mismatch: fork.is_err(),
                    fork: fork.ok(),
                }
            }
            Kind::Query {
                tenant,
                index,
                sql,
                record,
                ..
            } => {
                let seed =
                    derive_query_seed(derive_tenant_seed(config.seed, TENANTS[*tenant]), *index);
                let outcome = replica.release(t, e.version, sql, seed);
                let nanos = watch.elapsed_nanos();
                let mismatch = match (&outcome, &record.reply) {
                    (Ok(o), Reply::Released { values, .. }) => !same_bits(&o.releases, values),
                    (Err(_), Reply::Refused(code)) => code != "SQL",
                    _ => true,
                };
                Replayed {
                    nanos,
                    outcome: outcome.ok(),
                    fork: None,
                    mismatch,
                }
            }
        };
        out.push(replayed);
    }
    out
}

/// Span durations per (request, span name), in nanoseconds.
struct SpanTable(BTreeMap<(u64, &'static str), u64>);

impl SpanTable {
    fn new(spans: &Spans) -> Self {
        let mut table = BTreeMap::new();
        for s in spans.spans() {
            *table.entry((s.request, s.name)).or_insert(0) += s.nanos();
        }
        SpanTable(table)
    }

    fn get(&self, request: usize, name: &'static str) -> Option<u64> {
        self.0.get(&(request as u64, name)).copied()
    }

    /// Median over `requests` of the summed duration of `names`, in µs;
    /// requests without any of the spans are skipped.
    fn median_us(&self, requests: &[usize], names: &[&'static str]) -> f64 {
        median(requests.iter().filter_map(|&i| {
            let parts: Vec<u64> = names.iter().filter_map(|n| self.get(i, n)).collect();
            (!parts.is_empty()).then(|| parts.iter().sum::<u64>() as f64 / 1e3)
        }))
    }

    fn total(&self, requests: &[usize], names: &[&'static str]) -> u64 {
        requests
            .iter()
            .flat_map(|&i| names.iter().filter_map(move |n| self.get(i, n)))
            .sum()
    }
}

/// Median of a `usize` field over the misses.
fn miss_median(misses: &[&Miss], f: impl Fn(&Miss) -> usize) -> f64 {
    median(misses.iter().map(|m| f(m) as f64))
}

/// Mean of a `usize` field over the misses: LP work per miss, which stays
/// steady when misses of very different cost mix.
fn miss_mean(misses: &[&Miss], f: impl Fn(&Miss) -> usize) -> f64 {
    if misses.is_empty() {
        return 0.0;
    }
    misses.iter().map(|m| f(m) as f64).sum::<f64>() / misses.len() as f64
}

pub fn traced(
    env: &Env,
    runs: &[ClientRun],
    window: &Window,
    args: &Args,
) -> Result<(Vec<Metric>, Vec<Check>, Check), String> {
    let w = args.workload;
    let events = select(w, events(env, runs, &env.warm)?);

    let untraced = replay(&mut Off, env, &events);
    let mut spans = Spans::new();
    let traced = replay(&mut spans, env, &events);
    let table = SpanTable::new(&spans);

    let in_window: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].class != Class::Warm)
        .collect();
    let queries: Vec<usize> = in_window
        .iter()
        .copied()
        .filter(|&i| matches!(events[i].kind, Kind::Query { .. }))
        .collect();
    let scalar_hits: Vec<usize> = queries
        .iter()
        .copied()
        .filter(|&i| traced[i].outcome.as_ref().is_some_and(|o| o.hit))
        .collect();
    let missed: Vec<usize> = queries
        .iter()
        .copied()
        .filter(|&i| traced[i].outcome.as_ref().is_some_and(|o| o.miss.is_some()))
        .collect();
    let misses: Vec<&Miss> = missed
        .iter()
        .filter_map(|&i| traced[i].outcome.as_ref().and_then(|o| o.miss.as_ref()))
        .collect();
    let computes: Vec<&Miss> = misses
        .iter()
        .copied()
        .filter(|m| m.tier.is_none())
        .collect();
    let refreshed: Vec<usize> = missed
        .iter()
        .copied()
        .filter(|&i| {
            traced[i]
                .outcome
                .as_ref()
                .is_some_and(|o| o.miss.is_some_and(|m| m.tier.is_some()))
        })
        .collect();
    let forks: Vec<Fork> = in_window.iter().filter_map(|&i| traced[i].fork).collect();
    let mismatches = untraced
        .iter()
        .chain(&traced)
        .filter(|r| r.mismatch)
        .count();

    // The server's own public calls on the same hot requests.
    let hot: Vec<usize> = queries
        .iter()
        .copied()
        .filter(|&i| matches!(events[i].class, Class::Read | Class::Grouped))
        .take(INPROCESS)
        .collect();
    let (mut query_ns, mut scalar_query_ns, mut price_ns, mut encode_ns, mut wire_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    if w != Workload::ColdJoins {
        for &i in &hot {
            let Kind::Query { sql, record, .. } = &events[i].kind else {
                continue;
            };
            let watch = Stopwatch::start();
            black_box(env.server.price(sql).ok());
            price_ns.push(watch.elapsed_nanos() as f64);
            let watch = Stopwatch::start();
            let result = env.server.query(TENANTS[INPROC], sql);
            let ns = watch.elapsed_nanos() as f64;
            query_ns.push(ns);
            if events[i].class == Class::Read {
                scalar_query_ns.push(ns);
            }
            let watch = Stopwatch::start();
            black_box(encode_response(&result));
            encode_ns.push(watch.elapsed_nanos() as f64);
            wire_ns.push(record.nanos as f64);
        }
    }
    let mut ingest_ns = Vec::new();
    if w == Workload::IngestMix {
        let offset = data::ingest_offset(args.seed);
        for k in 0..INPROCESS_INGESTS {
            let rows = data::ingest_batch(offset, 1_000_000 + k);
            let watch = Stopwatch::start();
            let applied = env.server.ingest("checkins", rows);
            ingest_ns.push(watch.elapsed_nanos() as f64);
            applied.map_err(|e| format!("in-process ingest: {e}"))?;
        }
    }
    let history = (0u64..)
        .take_while(|&v| env.server.snapshot_at(v).is_some())
        .count();

    let us = |v: &[f64]| median(v.iter().copied()) / 1e3;
    let front = [
        "sql.parse",
        "sql.plan",
        "sql.fingerprint",
        "cache.lookup",
        "mech.release",
    ];
    let scalar_replica_us = table.median_us(&scalar_hits, &front);
    let untraced_ns: u64 = in_window.iter().map(|&i| untraced[i].nanos).sum();
    let traced_ns: u64 = in_window.iter().map(|&i| traced[i].nanos).sum();
    let heavy = table.total(&missed, &["sql.exec", "seq.compute", "seq.refresh"]);
    let roots = table.total(&missed, &["request"]);
    let share = if roots > 0 {
        heavy as f64 / roots as f64
    } else {
        0.0
    };
    // Self time of each request span: what no layer span covers.
    let unattributed = median(queries.iter().filter_map(|&i| {
        let root = table.get(i, "request")?;
        let layers: u64 = table
            .0
            .range((i as u64, "")..(i as u64 + 1, ""))
            .filter(|((_, name), _)| *name != "request")
            .map(|(_, ns)| ns)
            .sum();
        Some(root.saturating_sub(layers) as f64 / 1e3)
    }));
    let pivots: usize = misses.iter().map(|m| m.lp.total_pivots).sum();
    let solve_ns = table.total(&missed, &["seq.compute", "seq.refresh"]);
    let tiers = |tier: rmdp_core::RefreshTier| {
        misses.iter().filter(|m| m.tier == Some(tier)).count() as f64
    };
    let cache = window.cache();

    // The `edges` hit rate of each snapshot version's replayed reads.
    let mut by_version: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for &i in &queries {
        if events[i].class == Class::Read {
            let hit = traced[i].outcome.as_ref().is_some_and(|o| o.hit);
            let entry = by_version.entry(events[i].version).or_insert((0, 0));
            entry.0 += usize::from(hit);
            entry.1 += 1;
        }
    }
    let edges_hit_min = by_version
        .values()
        .map(|&(h, n)| h as f64 / n as f64)
        .fold(f64::INFINITY, f64::min);
    let edges_hit_min = if by_version.is_empty() {
        0.0
    } else {
        edges_hit_min
    };

    // Co-visit refreshes in version order: their LP input must grow by
    // exactly the one pair each round adds, and their cost should not climb.
    let covisit: Vec<usize> = missed
        .iter()
        .copied()
        .filter(|&i| events[i].class == Class::Requery(data::COVISIT))
        .collect();
    let covisit_rows: Vec<(u64, usize)> = covisit
        .iter()
        .filter_map(|&i| Some((events[i].version, traced[i].outcome.as_ref()?.rows?)))
        .collect();
    let stationary = covisit_rows.first().is_none_or(|&(v0, r0)| {
        covisit_rows
            .iter()
            .all(|&(v, r)| r as u64 == r0 as u64 + (v - v0))
    });
    let third = covisit.len() / 3;
    let early = table.median_us(&covisit[..third], &["seq.refresh"]);
    let late = table.median_us(&covisit[covisit.len() - third..], &["seq.refresh"]);
    let drift = if early > 0.0 { late / early } else { 0.0 };
    let (shed, refused) = shed_refused(&env.server.metrics().snapshot());

    let server_query_us = us(&query_ns);
    let metrics = vec![
        metric("protocol.wire_us", us(&wire_ns) - server_query_us, "us"),
        metric("protocol.encode_us", us(&encode_ns), "us"),
        metric("server.query_us", server_query_us, "us"),
        metric("server.price_us", us(&price_ns), "us"),
        metric(
            "server.own_us",
            us(&scalar_query_ns) - scalar_replica_us,
            "us",
        ),
        metric(
            "server.ingest_ms",
            median(ingest_ns.iter().copied()) / 1e6,
            "ms",
        ),
        metric("server.refused", refused as f64, "count"),
        metric("server.shed", shed as f64, "count"),
        metric("server.history_len", history as f64, "count"),
        metric(
            "sql.parse_us",
            table.median_us(&queries, &["sql.parse"]),
            "us",
        ),
        metric(
            "sql.plan_us",
            table.median_us(&queries, &["sql.plan"]),
            "us",
        ),
        metric(
            "sql.fingerprint_us",
            table.median_us(&queries, &["sql.fingerprint"]),
            "us",
        ),
        metric(
            "sql.exec_ms",
            table.median_us(&missed, &["sql.exec"]) / 1e3,
            "ms",
        ),
        metric(
            "sql.exec_rows",
            median(
                missed
                    .iter()
                    .filter_map(|&i| Some(traced[i].outcome.as_ref()?.rows? as f64)),
            ),
            "count",
        ),
        metric(
            "cache.lookup_us",
            table.median_us(&scalar_hits, &["cache.lookup"]),
            "us",
        ),
        metric("cache.hit_rate", cache.hit_rate(), "ratio"),
        metric("cache.evictions", cache.evictions as f64, "count"),
        metric(
            "cache.evictions_stale",
            cache.evictions_stale as f64,
            "count",
        ),
        metric(
            "cache.refresh_bases",
            forks.iter().map(|f| f.banked).max().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "cache.bytes",
            misses.iter().map(|m| m.bytes).sum::<usize>() as f64,
            "bytes",
        ),
        metric("cache.edges_hit_rate_min", edges_hit_min, "ratio"),
        metric(
            "seq.compute_ms",
            table.median_us(&missed, &["seq.compute"]) / 1e3,
            "ms",
        ),
        metric(
            "seq.lp_solves",
            miss_median(&computes, |m| m.lp.h_solves + m.lp.g_solves),
            "count",
        ),
        metric(
            "seq.participants",
            miss_median(&misses, |m| m.participants),
            "count",
        ),
        metric(
            "seq.refresh_ms",
            if refreshed.is_empty() {
                0.0
            } else {
                table.total(&refreshed, &["cache.take_base", "seq.refresh"]) as f64
                    / 1e6
                    / refreshed.len() as f64
            },
            "ms",
        ),
        metric(
            "seq.tier_unchanged",
            tiers(rmdp_core::RefreshTier::Unchanged),
            "count",
        ),
        metric(
            "seq.tier_warm",
            tiers(rmdp_core::RefreshTier::WarmChain),
            "count",
        ),
        metric(
            "seq.tier_cold",
            tiers(rmdp_core::RefreshTier::ColdRebuild),
            "count",
        ),
        metric("seq.refresh_drift", drift, "ratio"),
        metric(
            "lp.pivots",
            miss_mean(&misses, |m| m.lp.total_pivots),
            "count",
        ),
        metric(
            "lp.phase1_pivots",
            miss_mean(&misses, |m| m.lp.phase1_pivots),
            "count",
        ),
        metric(
            "lp.phase2_pivots",
            miss_mean(&misses, |m| m.lp.phase2_pivots),
            "count",
        ),
        metric(
            "lp.us_per_pivot",
            if pivots > 0 {
                solve_ns as f64 / 1e3 / pivots as f64
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "lp.warm_start_hits",
            miss_mean(&misses, |m| m.lp.warm_start_hits),
            "count",
        ),
        metric(
            "lp.refactorizations",
            miss_mean(&misses, |m| m.lp.refactorizations),
            "count",
        ),
        metric(
            "lp.basis_updates",
            miss_mean(&misses, |m| m.lp.basis_updates),
            "count",
        ),
        metric(
            "lp.peak_fill_in_nnz",
            misses.iter().map(|m| m.lp.fill_in_nnz).max().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "lp.window_pivots",
            window.counter("server.lp.pivots") as f64,
            "count",
        ),
        metric(
            "mech.release_us",
            table.median_us(&queries, &["mech.release"]),
            "us",
        ),
        metric(
            "krel.fork_ms",
            table.median_us(&in_window, &["krel.fork"]) / 1e3,
            "ms",
        ),
        metric(
            "krel.purge_us",
            table.median_us(&in_window, &["cache.purge"]),
            "us",
        ),
        metric(
            "krel.swept",
            forks.iter().map(|f| f.swept).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "trace.overhead_frac",
            (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
            "ratio",
        ),
        metric("trace.exec_seq_share", share, "ratio"),
        metric("trace.unattributed_us", unattributed, "us"),
        metric("replica.requests", queries.len() as f64, "count"),
        metric("replica.mismatches", mismatches as f64, "count"),
    ];

    // The replica's exact answers for the `edges` shapes against the graph.
    let mut counted = 0usize;
    let mut miscounted = 0usize;
    for &i in &queries {
        let Kind::Query {
            shape: Some(shape), ..
        } = &events[i].kind
        else {
            continue;
        };
        let (Some(expected), Some(answer)) = (
            shape.graph_count(&env.graph),
            traced[i].outcome.as_ref().and_then(|o| o.true_answer),
        ) else {
            continue;
        };
        counted += 1;
        // H_n is an LP optimum, exact only up to the solver's rounding.
        if (answer - expected as f64).abs() > 1e-9 * (expected as f64).max(1.0) {
            miscounted += 1;
        }
    }

    let checks = vec![
        Check {
            name: "replica_true_counts_match_graph",
            ok: miscounted == 0,
            detail: format!("{counted} replica answers, {miscounted} differ from the graph count"),
        },
        Check {
            name: "replica_bit_identical",
            ok: mismatches == 0 && !queries.is_empty(),
            detail: format!(
                "{} window requests replayed twice, {mismatches} mismatches",
                queries.len()
            ),
        },
    ];
    // The predictions about where the work goes. They describe this
    // commit's behaviour and are printed, not enforced: a later change may
    // move them on purpose.
    let share = if roots > 0 {
        heavy as f64 / roots as f64
    } else {
        0.0
    };
    let predicted = match w {
        Workload::HotReads => (
            "hot_window_all_hits_no_lp",
            cache.hit_rate() == 1.0 && window.counter("server.lp.pivots") == 0 && misses.is_empty(),
        ),
        Workload::ColdJoins => (
            "cold_window_all_misses_with_evictions",
            cache.hits == 0 && cache.misses > 0 && cache.evictions > 0 && share >= 0.8,
        ),
        Workload::IngestMix => (
            "ingest_all_tiers_edges_keep_hitting",
            [
                rmdp_core::RefreshTier::Unchanged,
                rmdp_core::RefreshTier::WarmChain,
                rmdp_core::RefreshTier::ColdRebuild,
            ]
            .into_iter()
            .all(|t| tiers(t) > 0.0)
                && edges_hit_min == 1.0
                && stationary,
        ),
    };
    let prediction = Check {
        name: predicted.0,
        ok: predicted.1,
        detail: format!(
            "hit_rate {} evictions {} window_pivots {} exec_seq_share {share:.3} tiers {}/{}/{} edges_hit_min {edges_hit_min} covisit_rows_stationary {stationary}",
            cache.hit_rate(),
            cache.evictions,
            window.counter("server.lp.pivots"),
            tiers(rmdp_core::RefreshTier::Unchanged),
            tiers(rmdp_core::RefreshTier::WarmChain),
            tiers(rmdp_core::RefreshTier::ColdRebuild),
        ),
    };

    write_spans(w, &spans);
    Ok((metrics, checks, prediction))
}

/// Writes the traced pass's spans to `perfbench/out/trace_<workload>.jsonl`.
fn write_spans(w: Workload, spans: &Spans) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace_{}.jsonl", w.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans.write_jsonl(&mut out)
    });
    match written {
        Ok(()) => println!(
            "# spans {} written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
}
