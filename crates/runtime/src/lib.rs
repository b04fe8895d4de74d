//! A scoped worker pool for the embarrassingly parallel parts of the
//! recursive mechanism (no dependencies beyond the workspace's own
//! `rmdp-observe` telemetry crate).
//!
//! The mechanism's cost is dominated by the LP solves behind the sequences
//! `H_0…H_{|P|}` and `G_0…G_{|P|}` (paper Sec. 5.3). Each family is one
//! warm-started chain over a shared immutable view of the query, so the H
//! chain and the G chain run side by side; batches of queries and the groups
//! of a grouped report fan out the same way. This crate provides the runtime
//! those call sites share:
//!
//! * [`Parallelism`] — the user-facing knob (`Serial`, `Threads(n)` or
//!   `Auto`), threaded through `MechanismParams` one crate up.
//! * [`par_map_indexed`] / [`par_try_map_indexed`] — map a function over
//!   `0..len` on a scoped worker pool ([`std::thread::scope`], so borrowed
//!   data flows into workers without `'static` bounds) with **deterministic
//!   result ordering**: the output vector is always indexed by input index,
//!   regardless of which worker computed which entry, and the first error in
//!   *index* order (not completion order) is the one reported.
//! * [`install_pool_metrics`] — optional observability: once a
//!   [`MetricsRegistry`](rmdp_observe::MetricsRegistry) is installed, every
//!   fan-out reports queue depth and per-worker busy time into it. Until
//!   then the pool pays one relaxed atomic load per call and records
//!   nothing; recording never affects scheduling or results.
//!
//! The pool is deliberately tiny: an atomic next-index counter hands indices
//! to workers (good load balancing when items have very different costs, as
//! LP sizes do), each worker accumulates `(index, value)` pairs locally, and
//! the results are stitched back in index order at the end. There are no
//! locks on the hot path and no shared mutable state beyond the counter.
//!
//! ```
//! use rmdp_runtime::{par_map_indexed, Parallelism};
//!
//! let squares = par_map_indexed(Parallelism::Threads(4), 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! Determinism contract: for a pure `f`, `par_map_indexed(p, len, f)`
//! returns the same vector for every `p` — callers in `rmdp-core` rely on
//! this to make the parallel mechanism bit-identical to the serial one.

#![deny(missing_docs)]

pub mod admission;
pub mod metrics;
pub mod parallelism;
pub mod pool;

pub use admission::{AdmissionConfig, AdmissionError, AdmissionGate, Permit};
pub use metrics::install_pool_metrics;
pub use parallelism::Parallelism;
pub use pool::{par_map_indexed, par_try_map_indexed};
