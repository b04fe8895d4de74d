//! The server's line-oriented text protocol over `std::net` TCP.
//!
//! Dependency-free by design: requests and responses are UTF-8 lines, so
//! the benchmark harness and tests can drive a server with nothing but the
//! standard library. One request line in, one response (of one or more
//! lines, with an explicit count) out:
//!
//! ```text
//! → QUERY alice SELECT COUNT(*) FROM visits
//! ← OK SCALAR noisy=4.1282089816519635 epsilon=1 delta_hat=2
//!
//! → QUERY alice SELECT COUNT(*) FROM visits GROUP BY visits.site
//! ← OK GROUPED key=visits.site epsilon=1 groups=2
//! ← GROUP noisy=3.8151817442574024 epsilon=0.5 key="a"
//! ← GROUP noisy=0.4961026413242692 epsilon=0.5 key="b"
//!
//! → QUERY alice EXPLAIN ANALYZE SELECT COUNT(*) FROM visits
//! ← OK EXPLAIN hits=1 misses=0 lp_solves=0 epsilon=1
//! ← OK SCALAR noisy=3.8941646195731284 epsilon=1 delta_hat=2
//!
//! → BUDGET alice
//! ← OK BUDGET remaining=2.5 spent=1.5
//!
//! → INGEST visits person=eve,place=park;person=fay,place=museum
//! ← OK INGEST version=1 rows=2 swept=3
//!
//! ← ERR OVERLOADED server overloaded: 8 in flight, 8 waiting
//! ```
//!
//! `INGEST` rows are `;`-separated, each row a `,`-separated list of
//! `column=value` pairs. Values parse as integers first, then booleans,
//! and fall back to strings — matching how the SQL frontend's literals
//! compare against stored values.
//!
//! Floats are rendered with Rust's `Display`, which prints the **shortest
//! string that round-trips**: a client parsing `noisy=…` back with
//! `str::parse::<f64>()` recovers the bit-identical release, so the
//! concurrency battery can assert bit-identity *through the wire*. Group
//! keys are rendered with `Debug` (quoted, escaped) as the line's final
//! field, so string keys with spaces survive.

use crate::error::ServerError;
use crate::server::DpServer;
use rmdp_krelation::tuple::{Tuple, Value};
use rmdp_sql::QueryOutput;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// Encodes one request's outcome as protocol lines (each entry one line,
/// no trailing newline).
pub fn encode_response(result: &Result<QueryOutput, ServerError>) -> Vec<String> {
    match result {
        Ok(output) => encode_output(output),
        Err(e) => {
            // Error text must stay one line; SQL errors can carry spans
            // with embedded newlines.
            let msg = e.to_string().replace('\n', " ");
            vec![format!("ERR {} {}", e.code(), msg)]
        }
    }
}

fn encode_output(output: &QueryOutput) -> Vec<String> {
    match output {
        QueryOutput::Scalar(r) => vec![format!(
            "OK SCALAR noisy={} epsilon={} delta_hat={}",
            r.noisy_answer, r.epsilon_spent, r.delta_hat
        )],
        QueryOutput::Grouped(g) => {
            let mut lines = vec![format!(
                "OK GROUPED key={} epsilon={} groups={}",
                g.key_column,
                g.epsilon_spent,
                g.groups.len()
            )];
            for group in &g.groups {
                lines.push(format!(
                    "GROUP noisy={} epsilon={} key={:?}",
                    group.release.noisy_answer, group.release.epsilon_spent, group.key,
                ));
            }
            lines
        }
        QueryOutput::Explained(traced) => {
            let t = &traced.trace;
            let mut lines = vec![format!(
                "OK EXPLAIN hits={} misses={} lp_solves={} epsilon={}",
                t.cache_hits,
                t.cache_misses,
                t.lp.h_solves + t.lp.g_solves,
                t.epsilon_spent,
            )];
            lines.extend(encode_output(&traced.output));
            lines
        }
    }
}

/// Parses the `INGEST` row syntax: rows separated by `;`, columns within a
/// row as `,`-separated `column=value` pairs. Values parse as integers
/// first, then booleans, then fall back to strings.
fn parse_rows(spec: &str) -> Result<Vec<Tuple>, String> {
    let mut rows = Vec::new();
    for (i, row) in spec.split(';').enumerate() {
        let row = row.trim();
        if row.is_empty() {
            return Err(format!("row {i} is empty"));
        }
        let mut entries = Vec::new();
        for pair in row.split(',') {
            let (col, val) = pair
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("row {i}: '{}' is not column=value", pair.trim()))?;
            let value = if let Ok(n) = val.parse::<i64>() {
                Value::Int(n)
            } else if let Ok(b) = val.parse::<bool>() {
                Value::Bool(b)
            } else {
                Value::str(val)
            };
            entries.push((col.to_owned(), value));
        }
        rows.push(Tuple::new(entries));
    }
    Ok(rows)
}

fn encode_ingest(server: &DpServer, table: &str, spec: &str) -> Vec<String> {
    match parse_rows(spec) {
        Ok(rows) => match server.ingest(table, rows) {
            Ok(r) => vec![format!(
                "OK INGEST version={} rows={} swept={}",
                r.version, r.rows, r.swept
            )],
            Err(e) => {
                let msg = e.to_string().replace('\n', " ");
                vec![format!("ERR {} {}", e.code(), msg)]
            }
        },
        Err(msg) => vec![format!("ERR PROTOCOL {msg}")],
    }
}

/// Serves one accepted connection: read request lines until EOF, answer
/// each in order. Any I/O error just drops the connection — the server
/// state is untouched because budgets and admission live in [`DpServer`].
fn handle_connection(server: &DpServer, stream: TcpStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        let lines = match request.split_once(' ') {
            Some(("QUERY", rest)) => match rest.split_once(' ') {
                Some((tenant, sql)) => encode_response(&server.query(tenant, sql)),
                None => vec!["ERR PROTOCOL QUERY needs <tenant> <sql>".to_owned()],
            },
            Some(("BUDGET", tenant)) => {
                let tenant = tenant.trim();
                match (server.remaining_budget(tenant), server.spent_budget(tenant)) {
                    (Some(remaining), Some(spent)) => vec![format!(
                        "OK BUDGET remaining={} spent={}",
                        remaining.epsilon, spent.epsilon
                    )],
                    _ => vec![format!("ERR UNKNOWN_TENANT unknown tenant '{tenant}'")],
                }
            }
            Some(("INGEST", rest)) => match rest.split_once(' ') {
                Some((table, spec)) => encode_ingest(server, table, spec.trim()),
                None => vec!["ERR PROTOCOL INGEST needs <table> <rows>".to_owned()],
            },
            _ => vec![format!(
                "ERR PROTOCOL unrecognised request '{}'",
                request.split(' ').next().unwrap_or_default()
            )],
        };
        for l in &lines {
            writer.write_all(l.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
    }
    Ok(())
}

/// A running TCP front-end: the accept loop and its connection handlers.
///
/// The **only** place in the workspace that constructs a [`TcpListener`]
/// (CI greps for strays): all listening sockets answer to this module's
/// shutdown discipline, so `perf_smoke` and the tests always drain cleanly.
pub struct ServerHandle {
    server: Arc<DpServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connection streams, shared with the accept loop so `stop` can
    /// shut them down — a connection handler otherwise blocks on its
    /// client forever, and joining it would deadlock shutdown against any
    /// still-open client.
    streams: Arc<Mutex<Vec<TcpStream>>>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves `server`
/// until [`ServerHandle::stop`]. Each connection gets its own thread; the
/// admission gate, not the thread count, bounds concurrent query work.
pub fn serve(server: Arc<DpServer>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_server = Arc::clone(&server);
    let accept_stop = Arc::clone(&stop);
    let accept_streams = Arc::clone(&streams);
    let accept_thread = thread::spawn(move || {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Responses are a handful of short lines flushed at once; NODELAY
            // keeps Nagle from trading their latency against delayed ACKs.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                // Poisoning is recovered, not propagated: the list is only
                // ever pushed to or drained whole, so it is consistent even
                // after a panic elsewhere — and the accept loop must outlive
                // any one connection's failure.
                accept_streams
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(clone);
            }
            let conn_server = Arc::clone(&accept_server);
            connections.push(thread::spawn(move || {
                // A dropped connection is the client's problem, not ours.
                let _ = handle_connection(&conn_server, stream);
            }));
        }
        for handle in connections {
            let _ = handle.join();
        }
    });

    Ok(ServerHandle {
        server,
        addr,
        stop,
        streams,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`DpServer`].
    pub fn server(&self) -> &Arc<DpServer> {
        &self.server
    }

    /// Stops accepting, refuses queued work, drains in-flight queries and
    /// joins every thread. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.server.shutdown();
        // Unblock the connection handlers: each blocks reading its client,
        // so close both directions under it. The handler sees EOF and
        // returns; clients see a closed connection, which is the protocol's
        // shutdown signal.
        // Take the list out of the mutex first: the socket shutdowns below
        // must not run under the lock the accept loop also takes.
        let streams = {
            let mut held = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *held)
        };
        for stream in streams {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop: `incoming()` has no timeout, so poke it
        // with a throwaway connection. Failure means the listener is
        // already gone, which is the outcome we wanted.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.server.drain();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdp_core::MechanismParams;
    use rmdp_krelation::annotate::AnnotatedDatabase;
    use rmdp_krelation::{Expr, KRelation};
    use rmdp_sql::SqlSession;

    #[test]
    fn release_lines_never_carry_the_exact_answer() {
        let mut db = AnnotatedDatabase::new();
        let mut visits = KRelation::new(["person", "place"]);
        for (person, place) in [("ada", "museum"), ("bo", "museum"), ("bo", "cafe")] {
            let p = db.intern(person);
            visits.insert(
                Tuple::new([("person", Value::str(person)), ("place", Value::str(place))]),
                Expr::Var(p),
            );
        }
        db.insert_table("visits", visits);
        db.declare_public_domain("visits", "place", ["museum", "cafe"].map(Value::str));
        let mut session = SqlSession::new(db, MechanismParams::paper_edge_privacy(1.0));
        for sql in [
            "SELECT COUNT(*) FROM visits",
            "SELECT place, COUNT(*) FROM visits GROUP BY place",
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM visits",
        ] {
            let lines = encode_response(&Ok(session.query(sql).unwrap()));
            assert!(
                lines.iter().any(|l| l.contains("noisy=")),
                "{sql}: {lines:?}"
            );
            for line in &lines {
                assert!(!line.contains("true="), "{sql}: {line}");
            }
        }
    }
}
