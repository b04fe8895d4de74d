//! Experiment harness reproducing the paper's evaluation (Sec. 6).
//!
//! Every table and figure has a dedicated runner and a thin CLI binary:
//!
//! | paper artefact | runner | binary |
//! |---|---|---|
//! | Fig. 1 / Table 1 (mechanism comparison) | [`runners::table1`] | `cargo run -p rmdp-experiments --bin table1` |
//! | Fig. 4(a)(b)(c) (error vs \|V\|, avg degree, ε) | [`runners::fig4`] | `--bin fig4 -- --panel a\|b\|c` |
//! | Fig. 5 (running time vs \|V\|) | [`runners::fig5`] | `--bin fig5` |
//! | Fig. 6 & 7 (real graphs: sizes, time, error) | [`runners::fig6_7`] | `--bin fig6_7` |
//! | Fig. 8 (error/time vs expression length) | [`runners::fig8_9`] | `--bin fig8` |
//! | Fig. 9 (error/time vs \|supp(R)\|) | [`runners::fig8_9`] | `--bin fig9` |
//!
//! All binaries accept `--scale quick|paper|full` (default `quick`),
//! `--seed <u64>`, `--trials <n>` and `--csv <path>`. `quick` shrinks the
//! grids so the full suite finishes in minutes; `paper` matches the
//! published parameters (and, like the original implementation, can take
//! hours for the largest points). `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for each artefact.
//!
//! Beyond Fig. 5's running times, performance is measured by the
//! repository benchmark in `perfbench/`, which drives the server end to end
//! over the wire. The sequence layer's exact pivot and update-size limits
//! are tests (`tests/warm_chain.rs`, `crates/lp/tests/scaling.rs`).

#![deny(missing_docs)]

pub mod cli;
pub mod report;
pub mod runners;
pub mod scale;
pub mod workloads;

pub use cli::CliOptions;
pub use scale::Scale;
