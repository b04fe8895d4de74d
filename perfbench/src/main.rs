//! The repository benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_reads --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Untraced (`--trace 0`), the run drives an in-process `DpServer` through
//! `serve` and `DpClient` and prints the end-to-end metrics. Traced
//! (`--trace 1`), it runs the same wire load and then replays the request
//! stream in-process through a replica of the release path, with a span
//! around every layer call, and prints the per-layer metrics. Both print
//! the per-workload named metrics as `# name value unit` lines first and one JSON
//! result object last; the process exits nonzero when a correctness check
//! fails. `LAYERS.md` maps every metric to its layer and workload.

mod checks;
mod data;
mod layers;
mod load;
mod replica;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

/// The three workloads; see `LAYERS.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotReads,
    ColdJoins,
    IngestMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "hot_reads" => Some(Workload::HotReads),
            "cold_joins" => Some(Workload::ColdJoins),
            "ingest_mix" => Some(Workload::IngestMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot_reads",
            Workload::ColdJoins => "cold_joins",
            Workload::IngestMix => "ingest_mix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(12.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload hot_reads|cold_joins|ingest_mix --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
