//! The wire side: closed-loop `DpClient` connections against a served
//! `DpServer`, one thread per connection, every request timed from send to
//! reply. Only `OK`/`ERR` codes, `noisy=` and `epsilon=` are read from the
//! wire; failures are recorded, never unwrapped.

use rmdp_observe::{Clock, MonotonicClock, Stopwatch};
use rmdp_server::{DpClient, WireResponse};
use std::net::SocketAddr;

/// Tenants every workload registers. Clients send as `c0`/`c1`, and a
/// sparse sample of requests as their audit tenant `a0`/`a1`, whose short
/// log `DpServer::replay` re-solves cold after the run.
pub const TENANTS: [&str; 6] = ["c0", "c1", "a0", "a1", "warm", "inproc"];
pub const WARM: usize = 4;
pub const INPROC: usize = 5;

pub fn audit_tenant(client: usize) -> usize {
    2 + client
}

/// What a request asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A scalar read expected to hit the cache.
    Read,
    /// A grouped report expected to hit the cache.
    Grouped,
    /// A never-seen shape; `triangle` tells the cheap kind from the 2-path.
    Cold { triangle: bool },
    /// An `INGEST` into `checkins`.
    Ingest,
    /// The first re-query of a `checkins` shape after an ingest, by its
    /// index in `data::checkins_sql`.
    Requery(u8),
    /// A set-up request that fills the cache.
    Warm,
}

/// The published part of one reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `noisy=`/`epsilon=` of each release (one for a scalar, one per
    /// group) and the ε the request was charged.
    Released {
        values: Vec<(f64, f64)>,
        charged: f64,
    },
    Ingested,
    /// An `ERR` code.
    Refused(String),
    /// The connection failed.
    Transport(String),
}

impl Reply {
    pub fn failed(&self) -> bool {
        matches!(self, Reply::Refused(_) | Reply::Transport(_))
    }

    /// Whether the server refused before reserving budget, so the request
    /// never entered the tenant's replay log.
    pub fn refused_before_admission(&self) -> bool {
        match self {
            Reply::Refused(code) => code != "SQL",
            Reply::Transport(_) => true,
            _ => false,
        }
    }
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Record {
    pub tenant: usize,
    pub class: Class,
    /// Index of the SQL text in the workload's query table, or of the batch
    /// in its ingest table.
    pub text: usize,
    pub start_ns: u64,
    pub nanos: u64,
    pub reply: Reply,
}

/// One connection and the records of what it sent.
pub struct Conn {
    client: Option<DpClient>,
    addr: SocketAddr,
    clock: MonotonicClock,
    pub records: Vec<Record>,
}

/// The request a connection sends next.
pub enum Request<'a> {
    Query { tenant: usize, sql: &'a str },
    Ingest { table: &'a str, rows: &'a str },
}

impl Conn {
    /// Connects; `clock` is the run's shared clock, so start times of
    /// different connections compare.
    pub fn connect(addr: SocketAddr, clock: MonotonicClock) -> Result<Self, String> {
        let client = DpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            client: Some(client),
            addr,
            clock,
            records: Vec::new(),
        })
    }

    /// Whether the connection is usable: after a transport failure that a
    /// reconnect could not repair, the client stops sending.
    pub fn alive(&self) -> bool {
        self.client.is_some()
    }

    /// Sends one request, waits for the reply and records it. A transport
    /// failure is recorded and the connection re-opened for the next one.
    pub fn send(&mut self, request: Request<'_>, class: Class, text: usize) {
        let start_ns = self.clock.now_nanos();
        let watch = Stopwatch::start();
        let (tenant, result) = match self.client.as_mut() {
            None => (None, Err("not connected".to_owned())),
            Some(client) => match request {
                Request::Query { tenant, sql } => (
                    Some(tenant),
                    client
                        .query(TENANTS[tenant], sql)
                        .map_err(|e| e.to_string()),
                ),
                Request::Ingest { table, rows } => {
                    (None, client.ingest(table, rows).map_err(|e| e.to_string()))
                }
            },
        };
        let nanos = watch.elapsed_nanos();
        let reply = match result {
            Ok(response) => published(response),
            Err(e) => {
                self.client = DpClient::connect(self.addr).ok();
                Reply::Transport(e)
            }
        };
        self.records.push(Record {
            tenant: tenant.unwrap_or(usize::MAX),
            class,
            text,
            start_ns,
            nanos,
            reply,
        });
    }
}

/// Keeps only what a tenant may see of a reply.
fn published(response: WireResponse) -> Reply {
    match response {
        WireResponse::Scalar(r) => Reply::Released {
            values: vec![(r.noisy_answer, r.epsilon)],
            charged: r.epsilon,
        },
        WireResponse::Grouped {
            epsilon, groups, ..
        } => Reply::Released {
            values: groups
                .iter()
                .map(|(_, r)| (r.noisy_answer, r.epsilon))
                .collect(),
            charged: epsilon,
        },
        WireResponse::Ingest { .. } => Reply::Ingested,
        WireResponse::Error { code, .. } => Reply::Refused(code),
        // This benchmark sends no EXPLAIN or BUDGET request.
        _ => Reply::Refused("UNEXPECTED".to_owned()),
    }
}
