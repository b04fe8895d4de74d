//! A minimal blocking client for the line protocol, used by the benchmark
//! harness and the concurrency tests. Standard library only.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A parsed `OK SCALAR` / `GROUP` release line: the fields a client can
/// observe over the wire. Floats round-trip bit-identically (the server
/// prints shortest-round-trip representations).
#[derive(Clone, Debug, PartialEq)]
pub struct WireRelease {
    /// The differentially private released answer.
    pub noisy_answer: f64,
    /// ε spent by this release.
    pub epsilon: f64,
}

/// One parsed server response.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// A scalar release.
    Scalar(WireRelease),
    /// A grouped report: `(key debug rendering, release)` in domain order.
    Grouped {
        /// The grouping key column.
        key_column: String,
        /// Total ε the report debited.
        epsilon: f64,
        /// Per-group releases, keyed by the `Debug` rendering of the key.
        groups: Vec<(String, WireRelease)>,
    },
    /// An `EXPLAIN ANALYZE` header plus the release it performed.
    Explained {
        /// The traced release.
        inner: Box<WireResponse>,
    },
    /// A `BUDGET` report.
    Budget {
        /// Remaining ε.
        remaining: f64,
        /// Spent ε.
        spent: f64,
    },
    /// An applied `INGEST` receipt.
    Ingest {
        /// The snapshot version the delta produced.
        version: u64,
        /// Rows appended.
        rows: u64,
    },
    /// An `ERR <code> <message>` refusal.
    Error {
        /// The stable refusal code (`OVERLOADED`, `BUSY`, `BUDGET`, …).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl WireResponse {
    /// The scalar release, unwrapping an `EXPLAIN` header if present.
    pub fn scalar(&self) -> Option<&WireRelease> {
        match self {
            WireResponse::Scalar(r) => Some(r),
            WireResponse::Explained { inner, .. } => inner.scalar(),
            _ => None,
        }
    }

    /// The refusal code, if this is an error.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            WireResponse::Error { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// A blocking connection to a [`ServerHandle`](crate::ServerHandle).
#[derive(Debug)]
pub struct DpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl DpClient {
    /// Connects to a served address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single short lines; without NODELAY, Nagle holds them
        // back against the peer's delayed ACK and every round trip costs
        // ~40 ms instead of microseconds.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(DpClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Runs `sql` as `tenant` (use an `EXPLAIN ANALYZE` prefix for a
    /// traced release). Refusals come back as [`WireResponse::Error`],
    /// not `Err` — `Err` is reserved for transport failures.
    pub fn query(&mut self, tenant: &str, sql: &str) -> io::Result<WireResponse> {
        self.send(format!("QUERY {tenant} {sql}"))?;
        self.read_response()
    }

    /// Fetches the tenant's remaining and spent ε.
    pub fn budget(&mut self, tenant: &str) -> io::Result<WireResponse> {
        self.send(format!("BUDGET {tenant}"))?;
        self.read_response()
    }

    /// Appends rows to `table` through the server's ingest path. `rows`
    /// uses the wire syntax: `;`-separated rows of `,`-separated
    /// `column=value` pairs, e.g. `person=eve,place=park;person=fay,place=museum`.
    /// Rejections come back as [`WireResponse::Error`].
    pub fn ingest(&mut self, table: &str, rows: &str) -> io::Result<WireResponse> {
        self.send(format!("INGEST {table} {rows}"))?;
        self.read_response()
    }

    /// Sends one request line, newline included, in one write: with
    /// NODELAY on, every write is its own segment and wakes the server.
    fn send(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches('\n').to_owned())
    }

    fn read_response(&mut self) -> io::Result<WireResponse> {
        let line = self.read_line()?;
        self.parse_header(&line)
    }

    fn parse_header(&mut self, line: &str) -> io::Result<WireResponse> {
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Ok(WireResponse::Error {
                code: code.to_owned(),
                message: message.to_owned(),
            });
        }
        if let Some(rest) = line.strip_prefix("OK SCALAR ") {
            return Ok(WireResponse::Scalar(parse_release(rest)?));
        }
        if let Some(rest) = line.strip_prefix("OK GROUPED ") {
            let key_column = field(rest, "key")?;
            let epsilon = parse_f64(&field(rest, "epsilon")?)?;
            let count: usize = field(rest, "groups")?
                .parse()
                .map_err(|e| bad(format!("bad group count: {e}")))?;
            let mut groups = Vec::with_capacity(count);
            for _ in 0..count {
                let group_line = self.read_line()?;
                let rest = group_line
                    .strip_prefix("GROUP ")
                    .ok_or_else(|| bad(format!("expected GROUP line, got '{group_line}'")))?;
                let release = parse_release(rest)?;
                // `key=` is always the last field, so the raw remainder
                // (which may contain spaces inside the quotes) is the key.
                let key = rest
                    .split_once("key=")
                    .map(|(_, k)| k.to_owned())
                    .ok_or_else(|| bad("GROUP line missing key".to_owned()))?;
                groups.push((key, release));
            }
            return Ok(WireResponse::Grouped {
                key_column,
                epsilon,
                groups,
            });
        }
        if line.starts_with("OK EXPLAIN ") {
            let inner = self.read_response()?;
            return Ok(WireResponse::Explained {
                inner: Box::new(inner),
            });
        }
        if let Some(rest) = line.strip_prefix("OK BUDGET ") {
            return Ok(WireResponse::Budget {
                remaining: parse_f64(&field(rest, "remaining")?)?,
                spent: parse_f64(&field(rest, "spent")?)?,
            });
        }
        if let Some(rest) = line.strip_prefix("OK INGEST ") {
            return Ok(WireResponse::Ingest {
                version: parse_u64(&field(rest, "version")?)?,
                rows: parse_u64(&field(rest, "rows")?)?,
            });
        }
        Err(bad(format!("unrecognised response '{line}'")))
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Extracts `name=value` from a space-separated field line.
fn field(line: &str, name: &str) -> io::Result<String> {
    line.split(' ')
        .find_map(|f| f.strip_prefix(&format!("{name}=")))
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing field '{name}' in '{line}'")))
}

fn parse_f64(s: &str) -> io::Result<f64> {
    s.parse().map_err(|e| bad(format!("bad float '{s}': {e}")))
}

fn parse_u64(s: &str) -> io::Result<u64> {
    s.parse()
        .map_err(|e| bad(format!("bad integer '{s}': {e}")))
}

fn parse_release(line: &str) -> io::Result<WireRelease> {
    Ok(WireRelease {
        noisy_answer: parse_f64(&field(line, "noisy")?)?,
        epsilon: parse_f64(&field(line, "epsilon")?)?,
    })
}
