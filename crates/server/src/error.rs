//! Every way a server request can be refused or fail.

use rmdp_noise::BudgetExhausted;
use rmdp_runtime::AdmissionError;
use rmdp_sql::SqlError;
use std::fmt;

/// Why a [`DpServer`](crate::DpServer) request produced no release.
///
/// The variants split along the server's one privacy-critical line: which
/// refusals consume ε. **None of them do.** Admission refusals
/// ([`ServerError::Overloaded`], [`ServerError::TenantBusy`],
/// [`ServerError::ShuttingDown`]) happen before any budget is touched;
/// [`ServerError::BudgetExhausted`] and [`ServerError::LogFull`] are
/// atomic refusals of the reservation itself; and a [`ServerError::Sql`]
/// failure after admission released nothing, so its reservation is
/// refunded in full.
#[derive(Debug)]
pub enum ServerError {
    /// The server-wide admission gate shed the request: all execution slots
    /// busy and the bounded queue full. Nothing ran; no ε was consumed.
    Overloaded {
        /// Requests holding execution permits at refusal time.
        in_flight: usize,
        /// Requests queued at refusal time.
        waiting: usize,
    },
    /// The tenant already has its maximum number of requests in flight.
    /// Nothing ran; no ε was consumed.
    TenantBusy {
        /// The refused tenant.
        tenant: String,
        /// The tenant's in-flight count at refusal time.
        in_flight: usize,
    },
    /// The server is shutting down; no new work is admitted.
    ShuttingDown,
    /// No tenant of this name is registered.
    UnknownTenant(
        /// The unrecognised tenant name.
        String,
    ),
    /// The tenant's remaining budget cannot cover the query's cost. The
    /// refusal is atomic: the reservation never landed.
    BudgetExhausted(BudgetExhausted),
    /// The tenant's replay log already holds 2³² distinct query texts, the
    /// most its 4-byte text ids can name. Repeats of logged texts still run;
    /// no ε was consumed.
    LogFull(
        /// The refused tenant.
        String,
    ),
    /// The query itself failed (parse, plan, execution or mechanism error).
    /// When this happens after admission the reservation is refunded —
    /// a failed query releases nothing.
    Sql(SqlError),
}

impl From<AdmissionError> for ServerError {
    fn from(e: AdmissionError) -> Self {
        match e {
            AdmissionError::Overloaded { in_flight, waiting } => {
                ServerError::Overloaded { in_flight, waiting }
            }
            AdmissionError::ShuttingDown => ServerError::ShuttingDown,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded { in_flight, waiting } => write!(
                f,
                "server overloaded: {in_flight} in flight, {waiting} waiting"
            ),
            ServerError::TenantBusy { tenant, in_flight } => {
                write!(f, "tenant '{tenant}' busy: {in_flight} requests in flight")
            }
            ServerError::ShuttingDown => f.write_str("server shutting down"),
            ServerError::UnknownTenant(name) => write!(f, "unknown tenant '{name}'"),
            ServerError::BudgetExhausted(e) => e.fmt(f),
            ServerError::LogFull(name) => {
                write!(f, "tenant '{name}' has logged 2^32 distinct query texts")
            }
            ServerError::Sql(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::BudgetExhausted(e) => Some(e),
            ServerError::Sql(e) => Some(e),
            _ => None,
        }
    }
}

impl ServerError {
    /// The stable wire-protocol code for this error (`ERR <code> <message>`).
    pub fn code(&self) -> &'static str {
        match self {
            ServerError::Overloaded { .. } => "OVERLOADED",
            ServerError::TenantBusy { .. } => "BUSY",
            ServerError::ShuttingDown => "SHUTDOWN",
            ServerError::UnknownTenant(_) => "UNKNOWN_TENANT",
            ServerError::BudgetExhausted(_) => "BUDGET",
            ServerError::LogFull(_) => "LOG_FULL",
            ServerError::Sql(_) => "SQL",
        }
    }

    /// Whether this refusal consumed privacy budget. Always `false` — the
    /// method exists so tests state the invariant in one place.
    pub fn consumed_epsilon(&self) -> bool {
        false
    }
}
