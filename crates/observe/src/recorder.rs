//! Span-style stage recorders for the release pipeline.

use crate::clock::Clock;
use crate::trace::StageSpan;

/// The stages of the SQL → LP → noise release pipeline, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Tokenizing + parsing the SQL text.
    Parse,
    /// Validating and lowering to the algebra plan, plus plan evaluation
    /// (materializing the annotated output relation).
    Plan,
    /// Computing the canonical plan fingerprint.
    Fingerprint,
    /// Probing the cross-query sequence cache.
    CacheLookup,
    /// The sequence layer: solving the whole `H`/`G` table of a cache miss
    /// or an uncached release, and the mechanism's scan of the table for
    /// `X` on every release.
    SequenceSolve,
    /// Drawing Laplace noise (the log-scale draw and the answer draw).
    NoiseSample,
    /// Admission-checking and debiting the privacy budget.
    BudgetDebit,
}

impl Stage {
    /// Number of distinct stages.
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::Plan,
        Stage::Fingerprint,
        Stage::CacheLookup,
        Stage::SequenceSolve,
        Stage::NoiseSample,
        Stage::BudgetDebit,
    ];

    /// Stable snake_case name used in traces, metrics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::Fingerprint => "fingerprint",
            Stage::CacheLookup => "cache_lookup",
            Stage::SequenceSolve => "sequence_solve",
            Stage::NoiseSample => "noise_sample",
            Stage::BudgetDebit => "budget_debit",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A sink for stage enter/exit events emitted along the release path.
///
/// Both hooks default to empty bodies, so an implementation records only the
/// events it cares about, and [`NoopRecorder`] inlines to nothing — the
/// untraced release path is the same machine code it was before
/// instrumentation (the bit-identity gate checks the stronger property that
/// results match exactly).
pub trait Recorder {
    /// A stage begins. Stages may be entered repeatedly; recorders must
    /// accumulate.
    #[inline]
    fn enter(&mut self, _stage: Stage) {}

    /// The most recently entered occurrence of `stage` ends.
    #[inline]
    fn exit(&mut self, _stage: Stage) {}
}

/// The do-nothing recorder used by every untraced release path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Sentinel marking a stage with no open span.
const CLOSED: u64 = u64::MAX;

/// A recorder that accumulates wall-time per stage on an injected [`Clock`].
///
/// Re-entered stages accumulate (the mechanism draws noise twice per
/// release, so [`Stage::NoiseSample`] is entered twice). Unbalanced `exit`
/// calls are ignored; a span left open contributes nothing until exited.
#[derive(Clone, Debug)]
pub struct SpanRecorder<C: Clock> {
    clock: C,
    opened_at: [u64; Stage::COUNT],
    nanos: [u64; Stage::COUNT],
    entries: [u64; Stage::COUNT],
}

impl<C: Clock> SpanRecorder<C> {
    /// A recorder reading time from `clock`.
    pub fn new(clock: C) -> Self {
        SpanRecorder {
            clock,
            opened_at: [CLOSED; Stage::COUNT],
            nanos: [0; Stage::COUNT],
            entries: [0; Stage::COUNT],
        }
    }

    /// Accumulated nanoseconds for one stage.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Number of completed spans for one stage.
    pub fn stage_entries(&self, stage: Stage) -> u64 {
        self.entries[stage.index()]
    }

    /// Total accumulated nanoseconds across all stages.
    pub fn recorded_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Books one completed span of `stage` that lasted `nanos`, timed
    /// before this recorder existed.
    pub fn book(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage.index()] += nanos;
        self.entries[stage.index()] += 1;
    }

    /// The completed spans, in pipeline order, skipping never-entered stages.
    pub fn spans(&self) -> Vec<StageSpan> {
        Stage::ALL
            .iter()
            .filter(|s| self.entries[s.index()] > 0)
            .map(|&stage| StageSpan {
                stage,
                nanos: self.nanos[stage.index()],
                entries: self.entries[stage.index()],
            })
            .collect()
    }
}

impl SpanRecorder<crate::clock::MonotonicClock> {
    /// A recorder on a fresh process monotonic clock.
    pub fn monotonic() -> Self {
        SpanRecorder::new(crate::clock::MonotonicClock::new())
    }
}

impl<C: Clock> Recorder for SpanRecorder<C> {
    fn enter(&mut self, stage: Stage) {
        self.opened_at[stage.index()] = self.clock.now_nanos();
    }

    fn exit(&mut self, stage: Stage) {
        let i = stage.index();
        let opened = self.opened_at[i];
        if opened != CLOSED {
            self.nanos[i] += self.clock.now_nanos().saturating_sub(opened);
            self.entries[i] += 1;
            self.opened_at[i] = CLOSED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn stage_names_are_distinct_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        assert_eq!(deduped.len(), Stage::COUNT);
        assert_eq!(names[0], "parse");
        assert_eq!(names[Stage::COUNT - 1], "budget_debit");
    }

    #[test]
    fn span_recorder_accumulates_reentered_stages() {
        let clock = ManualClock::new();
        let mut rec = SpanRecorder::new(&clock);
        rec.enter(Stage::SequenceSolve);
        clock.advance(10);
        rec.exit(Stage::SequenceSolve);
        rec.enter(Stage::NoiseSample);
        clock.advance(3);
        rec.exit(Stage::NoiseSample);
        rec.enter(Stage::SequenceSolve);
        clock.advance(7);
        rec.exit(Stage::SequenceSolve);
        assert_eq!(rec.stage_nanos(Stage::SequenceSolve), 17);
        assert_eq!(rec.stage_entries(Stage::SequenceSolve), 2);
        assert_eq!(rec.stage_nanos(Stage::NoiseSample), 3);
        assert_eq!(rec.recorded_nanos(), 20);
        rec.book(Stage::SequenceSolve, 5);
        assert_eq!(rec.stage_nanos(Stage::SequenceSolve), 22);
        assert_eq!(rec.stage_entries(Stage::SequenceSolve), 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::SequenceSolve);
        assert_eq!(spans[1].stage, Stage::NoiseSample);
    }

    #[test]
    fn unbalanced_exits_are_ignored_and_open_spans_do_not_count() {
        let clock = ManualClock::new();
        let mut rec = SpanRecorder::new(&clock);
        rec.exit(Stage::Parse); // never entered
        rec.enter(Stage::Plan);
        clock.advance(5);
        assert_eq!(rec.stage_nanos(Stage::Plan), 0, "still open");
        rec.exit(Stage::Plan);
        rec.exit(Stage::Plan); // double exit
        assert_eq!(rec.stage_nanos(Stage::Plan), 5);
        assert_eq!(rec.stage_entries(Stage::Plan), 1);
        assert!(rec.spans().iter().all(|s| s.stage != Stage::Parse));
    }

    #[test]
    fn noop_recorder_is_inert() {
        let mut rec = NoopRecorder;
        rec.enter(Stage::Parse);
        rec.exit(Stage::Parse);
    }
}
