//! Error type of the recursive mechanism.

use rmdp_lp::LpError;
use std::fmt;

/// Which of the two sequence families an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SequenceFamily {
    /// The recursive sequence `H` (paper Eq. 16).
    H,
    /// The bounding sequence `G` (paper Eq. 19).
    G,
}

impl fmt::Display for SequenceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceFamily::H => write!(f, "H"),
            SequenceFamily::G => write!(f, "G"),
        }
    }
}

/// Errors reported by the mechanism.
#[derive(Clone, Debug, PartialEq)]
pub enum MechanismError {
    /// An LP failed outside the sequence-entry pipeline.
    Lp(LpError),
    /// The LP behind one specific sequence entry failed — the error names
    /// the entry (`H_7`, `G_3`) so a failure inside a warm-started chain or
    /// a parallel table solve can be traced to the exact solve.
    SequenceLp {
        /// The family the failing entry belongs to.
        family: SequenceFamily,
        /// The entry index `i` of `H_i` / `G_i`.
        index: usize,
        /// The underlying solver error.
        source: LpError,
    },
    /// The mechanism parameters are invalid (non-positive ε, β or θ).
    InvalidParams(String),
    /// The instantiation cannot handle the instance (e.g. the general
    /// instantiation was given too many participants to enumerate).
    UnsupportedInstance(String),
}

impl MechanismError {
    /// Wraps an [`LpError`] with the sequence entry it occurred in.
    pub fn sequence_lp(family: SequenceFamily, index: usize, source: LpError) -> Self {
        MechanismError::SequenceLp {
            family,
            index,
            source,
        }
    }
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismError::Lp(e) => write!(f, "linear program failed: {e}"),
            MechanismError::SequenceLp {
                family,
                index,
                source,
            } => {
                write!(
                    f,
                    "sequence entry {family}_{index}: linear program failed: {source}"
                )
            }
            MechanismError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            MechanismError::UnsupportedInstance(msg) => {
                write!(f, "unsupported instance: {msg}")
            }
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Lp(e) | MechanismError::SequenceLp { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<LpError> for MechanismError {
    fn from(e: LpError) -> Self {
        MechanismError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_errors_name_the_entry() {
        let e = MechanismError::sequence_lp(
            SequenceFamily::H,
            7,
            LpError::IterationLimit { limit: 100 },
        );
        let msg = e.to_string();
        assert!(msg.contains("H_7"), "{msg}");
        assert!(msg.contains("iteration limit"), "{msg}");
        let e = MechanismError::sequence_lp(SequenceFamily::G, 3, LpError::Infeasible);
        assert!(e.to_string().contains("G_3"), "{e}");
    }

    #[test]
    fn the_underlying_lp_error_is_exposed_as_the_source() {
        use std::error::Error;
        let e = MechanismError::sequence_lp(SequenceFamily::G, 2, LpError::Unbounded);
        assert!(e.source().is_some());
    }
}
