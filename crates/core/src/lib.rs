//! The recursive mechanism for differentially private aggregation with
//! unrestricted joins and node differential privacy.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Chen & Zhou, SIGMOD 2013). The pieces map onto the paper as follows:
//!
//! | module | paper |
//! |---|---|
//! | [`sensitive`] | sensitive databases `(P, M)`, neighbouring, ancestors, monotonic queries (Sec. 3.1) |
//! | [`empirical`] | local / global / universal empirical sensitivity (Defs. 9, 10, 16) |
//! | [`sequences`] | recursive sequences `H` and g-bounding sequences `G` (Defs. 17, 18): property checks over tables |
//! | [`mechanism`] | the mechanism driver over one complete `H`/`G` table: `Δ`, `Δ̂`, `X`, `X̂` (Sec. 4.1, Theorem 1) |
//! | [`general`] | the general but inefficient instantiation via subset enumeration (Sec. 4.2) |
//! | [`krelation_query`] | linear queries over sensitive K-relations (Sec. 3.2) |
//! | [`efficient`] | the efficient LP-based instantiation with the relaxation `φ` (Sec. 5) |
//! | [`subgraph`] | subgraph counting under node or edge privacy (Sec. 1.1, 6.1) |
//! | [`params`] | the parameters ε₁, ε₂, β, θ, μ with the paper's experimental defaults |
//! | [`cache`] | cross-query sequence cache: frozen `H`/`G` tables behind a fingerprint-keyed LRU |
//!
//! ## Quick example: node-private triangle counting
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use rmdp_core::params::MechanismParams;
//! use rmdp_core::subgraph::{PrivacyUnit, SubgraphCounter};
//! use rmdp_graph::{generators, Pattern};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = generators::gnp_average_degree(30, 6.0, &mut rng);
//! let counter = SubgraphCounter::new(
//!     Pattern::triangle(),
//!     PrivacyUnit::Node,
//!     MechanismParams::paper_node_privacy(0.5),
//! );
//! let answer = counter.release(&graph, &mut rng).unwrap();
//! println!("true {} / released {}", answer.true_count, answer.noisy_count);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod efficient;
pub mod empirical;
pub mod error;
pub mod general;
pub mod krelation_query;
pub mod mechanism;
pub mod params;
pub mod sensitive;
pub mod sequences;
pub mod subgraph;

pub use cache::{CacheStats, CachedSequences, EntryTag, FrozenSequences, SequenceCache};
pub use efficient::{EfficientSequences, LpWorkStats, RefreshSeed, RefreshStats, RefreshTier};
pub use error::{MechanismError, SequenceFamily};
pub use general::GeneralSequences;
pub use krelation_query::SensitiveKRelation;
pub use mechanism::{RecursiveMechanism, Release};
pub use params::MechanismParams;
// Re-exported so callers of `FrozenSequences::refresh` can name the solver
// options without depending on `rmdp-lp` directly.
pub use rmdp_lp::SimplexOptions;
// Re-exported so callers of `release_recorded` can name the recorder types
// without depending on `rmdp-observe` directly.
pub use rmdp_observe::{NoopRecorder, Recorder, SpanRecorder, Stage};
pub use rmdp_runtime::Parallelism;
