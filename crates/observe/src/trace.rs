//! The per-query audit record returned by traced releases.

use crate::json::{write_json_f64, write_json_string};
use crate::recorder::Stage;
use std::fmt::Write as _;

/// What the cross-query sequence cache did for one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The session has no sequence cache attached.
    Uncached,
    /// Every probed entry was served from the cache.
    Hit,
    /// At least one probe missed and sequences were computed (and inserted).
    Miss,
}

impl CacheOutcome {
    /// Stable lower-case name used in rendered traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Accumulated wall-time of one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage.
    pub stage: Stage,
    /// Total nanoseconds across all entries of the stage.
    pub nanos: u64,
    /// How many times the stage was entered (noise sampling enters twice
    /// per scalar release).
    pub entries: u64,
}

/// LP work attributed to one query (a `u64` mirror of the core crate's
/// `LpWorkStats`, kept primitive so this crate stays dependency-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpSummary {
    /// LPs solved for `H` entries.
    pub h_solves: u64,
    /// LPs solved for `G` entries.
    pub g_solves: u64,
    /// Total simplex pivots.
    pub total_pivots: u64,
    /// Composite phase-1 (feasibility) pivots.
    pub phase1_pivots: u64,
    /// Dual simplex pivots (warm re-entry after an RHS step).
    pub dual_pivots: u64,
    /// Phase-2 (optimisation) pivots.
    pub phase2_pivots: u64,
    /// Solves warm-started from the previous entry's basis.
    pub warm_start_hits: u64,
    /// Basis refactorizations.
    pub refactorizations: u64,
    /// Basis updates (one per true pivot).
    pub basis_updates: u64,
    /// Peak stored nonzeros of any single solve's LU factorization
    /// (a maximum across solves, not a sum).
    pub fill_in_nnz: u64,
}

impl LpSummary {
    /// Folds another summary into this one (deterministic: plain sums).
    pub fn absorb(&mut self, other: &LpSummary) {
        self.h_solves += other.h_solves;
        self.g_solves += other.g_solves;
        self.total_pivots += other.total_pivots;
        self.phase1_pivots += other.phase1_pivots;
        self.dual_pivots += other.dual_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.warm_start_hits += other.warm_start_hits;
        self.refactorizations += other.refactorizations;
        self.basis_updates += other.basis_updates;
        self.fill_in_nnz = self.fill_in_nnz.max(other.fill_in_nnz);
    }

    /// Internal coherence: pivots split into composite phase 1, dual and
    /// phase 2.
    pub fn is_consistent(&self) -> bool {
        self.total_pivots == self.phase1_pivots + self.dual_pivots + self.phase2_pivots
            && self.warm_start_hits <= self.h_solves + self.g_solves
    }
}

/// The Laplace scales used by one release (diagnostic — publishing them is
/// safe: they depend only on public parameters and the released `Δ̂`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseScales {
    /// Scale of the log-domain draw perturbing `Δ`: `β/ε₁`.
    pub log_scale: f64,
    /// Scale of the answer draw: `Δ̂/ε₂`.
    pub answer_scale: f64,
}

/// How a grouped report split its budget across groups.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSplit {
    /// Display name of the active `GroupBudgetPolicy`.
    pub policy: String,
    /// Number of groups in the declared public domain.
    pub groups: u64,
    /// Fraction of the per-release budget given to each group.
    pub per_group_fraction: f64,
    /// ε spent by each per-group release.
    pub per_group_epsilon: f64,
}

/// The audit record of one traced release: what the query cost in wall-time,
/// LP work, cache traffic and ε, and which mechanism decisions were made.
///
/// Returned by `SqlSession::query_traced` and SQL `EXPLAIN ANALYZE`.
/// Everything here is diagnostic metadata; the differentially private
/// answer itself travels separately (the trace never changes it — gated
/// bit-identity tests enforce that).
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseTrace {
    /// Canonical plan fingerprint (the cross-query cache key), when the
    /// query has one (scalar queries always do; grouped reports have one
    /// per group and record `None` here).
    pub fingerprint: Option<u128>,
    /// Overall cache outcome.
    pub cache: CacheOutcome,
    /// Cache hits across the query (a grouped report probes once per group).
    pub cache_hits: u64,
    /// Cache misses across the query.
    pub cache_misses: u64,
    /// Wall-time per pipeline stage, in pipeline order.
    pub stages: Vec<StageSpan>,
    /// Total wall-time of the query, nanoseconds (measured around the whole
    /// pipeline, so it is an upper bound on the stage sum).
    pub total_nanos: u64,
    /// LP work attributed to this query (folded across groups by index).
    pub lp: LpSummary,
    /// Noise scales, one entry per release (one for scalars, one per group
    /// for grouped reports, in group-domain order).
    pub noise: Vec<NoiseScales>,
    /// ε debited from the session budget for this query.
    pub epsilon_spent: f64,
    /// Present for grouped reports: how ε was split across groups.
    pub group_split: Option<GroupSplit>,
}

impl ReleaseTrace {
    /// Accumulated nanoseconds for `stage` (0 if never entered).
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0, |s| s.nanos)
    }

    /// Sum of all stage durations.
    pub fn stage_nanos_total(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Internal consistency of the record:
    ///
    /// * stage durations sum to at most the total wall-time;
    /// * stages appear at most once each, in pipeline order, with ≥ 1 entry;
    /// * the cache outcome agrees with the hit/miss counters;
    /// * the LP summary's pivot split adds up;
    /// * ε and the noise scales are finite and non-negative;
    /// * a group split, when present, covers at least one group and spends
    ///   per group no more than the report spends in total.
    pub fn is_consistent(&self) -> bool {
        let ordered = self
            .stages
            .windows(2)
            .all(|w| (w[0].stage as usize) < (w[1].stage as usize));
        let entered = self.stages.iter().all(|s| s.entries >= 1);
        let stage_sum_ok = self.stage_nanos_total() <= self.total_nanos;
        let cache_ok = match self.cache {
            CacheOutcome::Uncached => self.cache_hits == 0 && self.cache_misses == 0,
            CacheOutcome::Hit => self.cache_hits > 0 && self.cache_misses == 0,
            CacheOutcome::Miss => self.cache_misses > 0,
        };
        let epsilon_ok = self.epsilon_spent.is_finite() && self.epsilon_spent >= 0.0;
        let noise_ok = self.noise.iter().all(|n| {
            n.log_scale.is_finite()
                && n.log_scale >= 0.0
                && n.answer_scale.is_finite()
                && n.answer_scale >= 0.0
        });
        let split_ok = self.group_split.as_ref().is_none_or(|g| {
            g.groups > 0
                && g.per_group_fraction > 0.0
                && g.per_group_fraction <= 1.0
                && g.per_group_epsilon <= self.epsilon_spent * (1.0 + 1e-9)
                && self.noise.len() as u64 == g.groups
        });
        ordered
            && entered
            && stage_sum_ok
            && cache_ok
            && self.lp.is_consistent()
            && epsilon_ok
            && noise_ok
            && split_ok
    }

    /// Serialises the trace to JSON (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"fingerprint\": ");
        match self.fingerprint {
            Some(fp) => {
                let mut hex = String::new();
                let _ = write!(hex, "{fp:032x}");
                write_json_string(&mut out, &hex);
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"cache\": ");
        write_json_string(&mut out, self.cache.name());
        let _ = write!(
            out,
            ", \"cache_hits\": {}, \"cache_misses\": {}",
            self.cache_hits, self.cache_misses
        );
        out.push_str(", \"stages\": {");
        for (i, span) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, span.stage.name());
            let _ = write!(
                out,
                ": {{\"nanos\": {}, \"entries\": {}}}",
                span.nanos, span.entries
            );
        }
        let _ = write!(out, "}}, \"total_nanos\": {}", self.total_nanos);
        let _ = write!(
            out,
            ", \"lp\": {{\"h_solves\": {}, \"g_solves\": {}, \"total_pivots\": {}, \
             \"phase1_pivots\": {}, \"dual_pivots\": {}, \"phase2_pivots\": {}, \
             \"warm_start_hits\": {}, \
             \"refactorizations\": {}, \"basis_updates\": {}, \"fill_in_nnz\": {}}}",
            self.lp.h_solves,
            self.lp.g_solves,
            self.lp.total_pivots,
            self.lp.phase1_pivots,
            self.lp.dual_pivots,
            self.lp.phase2_pivots,
            self.lp.warm_start_hits,
            self.lp.refactorizations,
            self.lp.basis_updates,
            self.lp.fill_in_nnz
        );
        out.push_str(", \"noise\": [");
        for (i, n) in self.noise.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"log_scale\": ");
            write_json_f64(&mut out, n.log_scale);
            out.push_str(", \"answer_scale\": ");
            write_json_f64(&mut out, n.answer_scale);
            out.push('}');
        }
        out.push_str("], \"epsilon_spent\": ");
        write_json_f64(&mut out, self.epsilon_spent);
        out.push_str(", \"group_split\": ");
        match &self.group_split {
            None => out.push_str("null"),
            Some(g) => {
                out.push_str("{\"policy\": ");
                write_json_string(&mut out, &g.policy);
                let _ = write!(out, ", \"groups\": {}", g.groups);
                out.push_str(", \"per_group_fraction\": ");
                write_json_f64(&mut out, g.per_group_fraction);
                out.push_str(", \"per_group_epsilon\": ");
                write_json_f64(&mut out, g.per_group_epsilon);
                out.push('}');
            }
        }
        out.push('}');
        out
    }

    /// Renders the trace as the human-readable `EXPLAIN ANALYZE` report.
    pub fn render(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        match self.fingerprint {
            Some(fp) => {
                let _ = writeln!(out, "  fingerprint     {fp:032x}");
            }
            None => out.push_str("  fingerprint     (per-group)\n"),
        }
        let _ = writeln!(
            out,
            "  cache           {} (hits {}, misses {})",
            self.cache.name(),
            self.cache_hits,
            self.cache_misses
        );
        out.push_str("  stages\n");
        for span in &self.stages {
            let _ = writeln!(
                out,
                "    {:<14} {:>12} ({} span{})",
                span.stage.name(),
                format_nanos(span.nanos),
                span.entries,
                if span.entries == 1 { "" } else { "s" }
            );
        }
        let _ = writeln!(
            out,
            "    {:<14} {:>12}",
            "total",
            format_nanos(self.total_nanos)
        );
        let _ = writeln!(
            out,
            "  lp              {} H + {} G solves, {} pivots ({} warm-started, {} refactorizations)",
            self.lp.h_solves,
            self.lp.g_solves,
            self.lp.total_pivots,
            self.lp.warm_start_hits,
            self.lp.refactorizations
        );
        let _ = writeln!(
            out,
            "  lp pivots       {} phase-1, {} dual, {} phase-2",
            self.lp.phase1_pivots, self.lp.dual_pivots, self.lp.phase2_pivots
        );
        let _ = writeln!(
            out,
            "  lp basis        {} updates, peak factor nnz {}",
            self.lp.basis_updates, self.lp.fill_in_nnz
        );
        for (i, n) in self.noise.iter().enumerate() {
            let label = if self.noise.len() == 1 {
                "  noise          ".to_owned()
            } else {
                format!("  noise[{i}]       ")
            };
            let _ = writeln!(
                out,
                "{label} log_scale {:.6}, answer_scale {:.6}",
                n.log_scale, n.answer_scale
            );
        }
        let _ = writeln!(out, "  epsilon_spent   {:.6}", self.epsilon_spent);
        if let Some(g) = &self.group_split {
            let _ = writeln!(
                out,
                "  groups          {} × ε {:.6} each ({:.4} of the per-release budget, policy {})",
                g.groups, g.per_group_epsilon, g.per_group_fraction, g.policy
            );
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit.
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ReleaseTrace {
        ReleaseTrace {
            fingerprint: Some(0xDEAD_BEEF),
            cache: CacheOutcome::Miss,
            cache_hits: 0,
            cache_misses: 1,
            stages: vec![
                StageSpan {
                    stage: Stage::Parse,
                    nanos: 10,
                    entries: 1,
                },
                StageSpan {
                    stage: Stage::SequenceSolve,
                    nanos: 100,
                    entries: 2,
                },
                StageSpan {
                    stage: Stage::NoiseSample,
                    nanos: 5,
                    entries: 2,
                },
            ],
            total_nanos: 200,
            lp: LpSummary {
                h_solves: 7,
                g_solves: 7,
                total_pivots: 36,
                phase1_pivots: 10,
                dual_pivots: 6,
                phase2_pivots: 20,
                warm_start_hits: 5,
                refactorizations: 1,
                basis_updates: 25,
                fill_in_nnz: 40,
            },
            noise: vec![NoiseScales {
                log_scale: 1.5,
                answer_scale: 20.0,
            }],
            epsilon_spent: 0.5,
            group_split: None,
        }
    }

    #[test]
    fn sample_trace_is_consistent() {
        assert!(sample_trace().is_consistent());
        assert_eq!(sample_trace().stage_nanos(Stage::SequenceSolve), 100);
        assert_eq!(sample_trace().stage_nanos(Stage::BudgetDebit), 0);
        assert_eq!(sample_trace().stage_nanos_total(), 115);
    }

    #[test]
    fn inconsistencies_are_detected() {
        let mut t = sample_trace();
        t.total_nanos = 50; // stage sum exceeds total
        assert!(!t.is_consistent());

        let mut t = sample_trace();
        t.cache = CacheOutcome::Hit; // but cache_misses == 1
        assert!(!t.is_consistent());

        let mut t = sample_trace();
        t.lp.total_pivots = 37; // phase split no longer adds up
        assert!(!t.is_consistent());

        let mut t = sample_trace();
        t.lp.dual_pivots = 0; // dual pivots missing from the split
        assert!(!t.is_consistent());

        let mut t = sample_trace();
        t.stages.swap(0, 1); // out of pipeline order
        assert!(!t.is_consistent());

        let mut t = sample_trace();
        t.epsilon_spent = f64::NAN;
        assert!(!t.is_consistent());

        let mut t = sample_trace();
        t.group_split = Some(GroupSplit {
            policy: "SplitEvenly".to_owned(),
            groups: 2, // but only one noise entry
            per_group_fraction: 0.5,
            per_group_epsilon: 0.25,
        });
        assert!(!t.is_consistent());
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample_trace().to_json();
        for key in [
            "fingerprint",
            "cache",
            "stages",
            "sequence_solve",
            "total_nanos",
            "lp",
            "dual_pivots",
            "basis_updates",
            "fill_in_nnz",
            "noise",
            "epsilon_spent",
            "group_split",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let doc = crate::json::parse_json(&json).unwrap();
        assert_eq!(doc.get("total_nanos").unwrap().as_u64(), Some(200));
        assert_eq!(
            doc.get("cache").unwrap().as_str(),
            Some("miss"),
            "cache outcome name"
        );
    }

    #[test]
    fn render_mentions_stages_and_epsilon() {
        let text = sample_trace().render();
        assert!(text.contains("sequence_solve"));
        assert!(text.contains("epsilon_spent"));
        assert!(text.contains("peak factor nnz 40"));
        assert!(text.contains("10 phase-1, 6 dual, 20 phase-2"));
        assert!(text.contains("100ns"));
        assert!(format_nanos(2_500).starts_with("2.5"));
        assert!(format_nanos(2_500_000).ends_with("ms"));
        assert!(format_nanos(2_500_000_000).ends_with('s'));
    }
}
