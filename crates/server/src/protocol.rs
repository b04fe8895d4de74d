//! The server's line-oriented text protocol over `std::net` TCP.
//!
//! Dependency-free by design: requests and responses are UTF-8 lines, so
//! the benchmark harness and tests can drive a server with nothing but the
//! standard library. One request line in, one response (of one or more
//! lines, with an explicit count) out. Each message leaves its writer in
//! one write — the server frames all of a response's lines, the client its
//! request line, newline included — so with `TCP_NODELAY` on (Nagle would
//! hold short messages ~40 ms against delayed ACKs) a message is one
//! segment and wakes its reader once:
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
//! ← OK EXPLAIN epsilon=1
//! ← OK SCALAR noisy=3.8941646195731284 epsilon=1 delta_hat=2
//!
//! → BUDGET alice
//! ← OK BUDGET remaining=2.5 spent=1.5
//!
//! → INGEST visits person=eve,place=park;person=fay,place=museum
//! ← OK INGEST version=1 rows=2
//!
//! ← ERR OVERLOADED server overloaded: 8 in flight, 8 waiting
//! ```
//!
//! Beside the differentially private releases, tenants see no field that
//! depends on the data or on other tenants. `OK EXPLAIN` carries ε alone:
//! cache hits and misses describe other tenants' traffic, and a miss's LP
//! solve count is 2(|P_named|+1), which reveals how many participants the
//! query's annotations name.
//! `OK INGEST` omits how many cache entries the swap swept; the server
//! counts that in `server.ingest.swept`.
//!
//! A request line longer than 64 KiB is answered with one `ERR PROTOCOL`
//! and ends the connection.
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
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
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
            // Only ε: cache and LP counts describe other tenants' traffic
            // and, after a miss, the named participants (2(|P_named|+1)
            // solves).
            let mut lines = vec![format!("OK EXPLAIN epsilon={}", traced.trace.epsilon_spent)];
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
            Ok(r) => vec![format!("OK INGEST version={} rows={}", r.version, r.rows)],
            Err(e) => {
                let msg = e.to_string().replace('\n', " ");
                vec![format!("ERR {} {}", e.code(), msg)]
            }
        },
        Err(msg) => vec![format!("ERR PROTOCOL {msg}")],
    }
}

/// Answers one request line with its response lines.
fn respond(server: &DpServer, request: &str) -> Vec<String> {
    match request.split_once(' ') {
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
    }
}

/// The longest request line served, in bytes, newline excluded. A client
/// cannot make the server buffer more than this per connection; a longer
/// line is answered with one `ERR PROTOCOL` and the connection is closed.
const MAX_LINE: usize = 64 * 1024;

/// Serves one connection: read request lines until EOF, answer each in
/// order. Lines are read into one reused buffer, at most [`MAX_LINE`] bytes
/// each. Each response is framed into one buffer and leaves in one
/// `write_all`, so an unbuffered `writer` (a `TcpStream`) sends it as one
/// segment. Any I/O error just drops the connection — the server state is
/// untouched because budgets and admission live in [`DpServer`].
fn handle_connection(
    server: &DpServer,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    let mut line = Vec::new();
    let mut frame = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_LINE {
            let refusal = format!("ERR PROTOCOL request line exceeds {MAX_LINE} bytes\n");
            return writer.write_all(refusal.as_bytes());
        }
        let request = std::str::from_utf8(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .trim();
        if request.is_empty() {
            continue;
        }
        frame.clear();
        for l in respond(server, request) {
            frame.extend_from_slice(l.as_bytes());
            frame.push(b'\n');
        }
        writer.write_all(&frame)?;
    }
}

/// The gauge of connections currently served.
const LIVE_CONNECTIONS: &str = "server.connections.live";

/// Streams of the connections currently served, by connection id.
type LiveStreams = Arc<Mutex<HashMap<u64, Arc<TcpStream>>>>;

/// A running TCP front-end: the accept loop and its connection handlers.
///
/// The **only** place in the workspace that constructs a [`TcpListener`]
/// (CI greps for strays): all listening sockets answer to this module's
/// shutdown discipline, so `perfbench` and the tests always drain cleanly.
pub struct ServerHandle {
    server: Arc<DpServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connection streams, shared with the accept loop so `stop` can
    /// shut them down — a connection handler otherwise blocks on its
    /// client forever, and joining it would deadlock shutdown against any
    /// still-open client. Each handler removes its own entry when it ends,
    /// so a closed connection holds no descriptor.
    streams: LiveStreams,
    accept_thread: Option<JoinHandle<()>>,
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves `server`
/// until [`ServerHandle::stop`]. Each connection gets its own thread; the
/// admission gate, not the thread count, bounds concurrent query work.
pub fn serve(server: Arc<DpServer>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let streams: LiveStreams = Arc::default();

    let accept_server = Arc::clone(&server);
    let accept_stop = Arc::clone(&stop);
    let accept_streams = Arc::clone(&streams);
    let accept_thread = thread::spawn(move || {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            let Ok(stream) = stream else { continue };
            // Responses are a handful of short lines sent in one write;
            // NODELAY keeps Nagle from holding them against delayed ACKs.
            let _ = stream.set_nodelay(true);
            let stream = Arc::new(stream);
            {
                // Poisoning is recovered, not propagated: every critical
                // section on the map is one insert, remove or take, so it is
                // consistent even after a panic elsewhere — and the accept
                // loop must outlive any one connection's failure.
                let mut live = accept_streams
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // Checked under the lock `stop` takes the map with, so a
                // connection is either shut down by `stop` or never served.
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                live.insert(id, Arc::clone(&stream));
                accept_server
                    .metrics()
                    .gauge_set(LIVE_CONNECTIONS, live.len() as f64);
            }
            // Joining a finished handler does not block.
            for handle in connections.extract_if(.., |handle| handle.is_finished()) {
                let _ = handle.join();
            }
            let conn_server = Arc::clone(&accept_server);
            let conn_streams = Arc::clone(&accept_streams);
            connections.push(thread::spawn(move || {
                // A dropped connection is the client's problem, not ours.
                let _ = handle_connection(&conn_server, BufReader::new(&*stream), &*stream);
                let mut live = conn_streams.lock().unwrap_or_else(PoisonError::into_inner);
                if live.remove(&id).is_some() {
                    conn_server
                        .metrics()
                        .gauge_set(LIVE_CONNECTIONS, live.len() as f64);
                }
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
        for stream in streams.values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop: `incoming()` has no timeout, so poke it
        // with a throwaway connection. Failure means the listener is
        // already gone, which is the outcome we wanted.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.server.metrics().gauge_set(LIVE_CONNECTIONS, 0.0);
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
    use crate::client::{DpClient, WireResponse};
    use crate::server::ServerConfig;
    use rmdp_core::MechanismParams;
    use rmdp_krelation::annotate::{AnnotatedDatabase, AnnotationRule};
    use rmdp_krelation::{Expr, KRelation};
    use rmdp_noise::PrivacyBudget;
    use rmdp_sql::{CatalogSnapshot, SqlSession};
    use std::time::Duration;

    /// A server over three visits loaded through the delta path (so
    /// `INGEST` appends under the owner rule), with tenant `alice`.
    fn visits_server() -> DpServer {
        let mut db = AnnotatedDatabase::new();
        db.insert_table("visits", KRelation::new(["person", "place"]));
        db.declare_annotation_rule("visits", AnnotationRule::OwnerColumn("person".into()));
        db.declare_public_domain(
            "visits",
            "place",
            ["museum", "cafe", "park"].map(Value::str),
        );
        let rows = [("ada", "museum"), ("bo", "museum"), ("bo", "cafe")].map(|(person, place)| {
            Tuple::new([("person", Value::str(person)), ("place", Value::str(place))])
        });
        db.apply_delta("visits", rows).unwrap();
        let snapshot = CatalogSnapshot::shared(db, MechanismParams::paper_edge_privacy(1.0));
        let server = DpServer::new(snapshot, ServerConfig::default());
        server.register_tenant("alice", PrivacyBudget::pure(64.0));
        server
    }

    /// A writer that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_leaves_in_one_write() {
        let requests = [
            ("QUERY alice SELECT COUNT(*) FROM visits", "OK SCALAR", 1),
            (
                "QUERY alice SELECT place, COUNT(*) FROM visits GROUP BY place",
                "OK GROUPED",
                4,
            ),
            (
                "QUERY alice EXPLAIN ANALYZE SELECT COUNT(*) FROM visits",
                "OK EXPLAIN",
                2,
            ),
            ("BUDGET alice", "OK BUDGET", 1),
            ("INGEST visits person=eve,place=park", "OK INGEST", 1),
            ("FETCH alice", "ERR PROTOCOL", 1),
        ];
        let input: String = requests.iter().map(|(r, _, _)| format!("{r}\n")).collect();
        let mut writes = WriteLog::default();
        handle_connection(&visits_server(), input.as_bytes(), &mut writes).unwrap();
        assert_eq!(writes.0.len(), requests.len(), "one write per response");

        // A twin server answers the same requests in the same order, so its
        // seed schedule and therefore its lines are identical.
        let twin = visits_server();
        for ((request, verb, count), written) in requests.iter().zip(&writes.0) {
            let lines = respond(&twin, request);
            assert_eq!(lines.len(), *count, "{request}: {lines:?}");
            assert!(lines[0].starts_with(verb), "{request}: {lines:?}");
            let framed: String = lines.iter().map(|l| format!("{l}\n")).collect();
            assert_eq!(written.as_slice(), framed.as_bytes(), "{request}");
        }
    }

    #[test]
    fn request_lines_are_capped_at_max_line_bytes() {
        // Trailing blanks pad a query to an exact length; the request is
        // trimmed, so padding changes nothing but the line's size.
        let padded = |len: usize| {
            let query = "QUERY alice SELECT COUNT(*) FROM visits";
            format!("{query}{}\n", " ".repeat(len - query.len()))
        };
        let server = visits_server();
        let spent = || server.spent_budget("alice").unwrap().epsilon;

        // A line at the cap is served and debited.
        let mut out = Vec::new();
        handle_connection(&server, padded(MAX_LINE).as_bytes(), &mut out).unwrap();
        assert!(
            out.starts_with(b"OK SCALAR"),
            "{}",
            String::from_utf8_lossy(&out)
        );
        assert_eq!(spent(), 1.0);

        // One byte more is refused without a debit, and the connection
        // closes: the request after it is never read.
        let input = format!("{}BUDGET alice\n", padded(MAX_LINE + 1));
        let mut out = Vec::new();
        handle_connection(&server, input.as_bytes(), &mut out).unwrap();
        let reply = String::from_utf8(out).unwrap();
        assert_eq!(
            reply,
            format!("ERR PROTOCOL request line exceeds {MAX_LINE} bytes\n")
        );
        assert_eq!(spent(), 1.0);
    }

    #[test]
    fn tenant_lines_carry_no_cache_lp_or_sweep_counts() {
        let server = visits_server();
        let explain = "EXPLAIN ANALYZE SELECT COUNT(*) FROM visits WHERE place = 'cafe'";
        let miss = server.query("alice", explain);
        match &miss {
            Ok(QueryOutput::Explained(t)) => assert!(t.trace.lp.h_solves > 0),
            other => panic!("expected a traced miss, got {other:?}"),
        }
        let mut lines = encode_response(&miss);
        for sql in [
            explain,
            "SELECT COUNT(*) FROM visits",
            "SELECT place, COUNT(*) FROM visits GROUP BY place",
        ] {
            lines.extend(encode_response(&server.query("alice", sql)));
        }
        lines.extend(encode_ingest(&server, "visits", "person=eve,place=park"));
        let swept = server.metrics().snapshot().counter("server.ingest.swept");
        assert!(swept > Some(0), "the ingest swept entries in process");

        assert!(
            lines.contains(&"OK EXPLAIN epsilon=1".to_owned()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"OK INGEST version=1 rows=1".to_owned()),
            "{lines:?}"
        );
        for line in &lines {
            for key in ["hits=", "misses=", "lp_solves=", "swept="] {
                assert!(!line.contains(key), "{key} in {line}");
            }
        }
    }

    #[test]
    fn closed_connections_release_their_streams() {
        let server = Arc::new(visits_server());
        let mut handle = serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let live = || {
            let metrics = server.metrics().snapshot();
            metrics.gauge(LIVE_CONNECTIONS).unwrap_or(0.0)
        };
        for _ in 0..32 {
            let mut client = DpClient::connect(handle.addr()).unwrap();
            let budget = client.budget("alice").unwrap();
            assert!(matches!(budget, WireResponse::Budget { .. }), "{budget:?}");
            assert!(live() >= 1.0);
        }
        // Handlers end on their own schedule; give them up to 10 s.
        for _ in 0..2000 {
            if live() == 0.0 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live(), 0.0, "closed connections still counted live");
        assert!(handle.streams.lock().unwrap().is_empty());
        handle.stop();
        assert_eq!(live(), 0.0);
    }

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
