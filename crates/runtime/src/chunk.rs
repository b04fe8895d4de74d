//! Fixed contiguous partitioning of an index range.
//!
//! [`contiguous_runs`] cuts `0..len` into runs of `run_len` (the last run
//! may be shorter). The cut points depend only on `len` and `run_len` —
//! *never* on the worker count — which is what lets a caller hand whole runs
//! to [`crate::par_map_indexed`] and stay bit-identical across every
//! [`crate::Parallelism`] setting: each run is computed exactly the same way
//! regardless of which worker (or the calling thread) ends up executing it.
//!
//! The caller is the sequence-chain solver in `rmdp-core`: entries of one
//! `H`/`G` family are solved as a warm-started chain *within* a run (each
//! solve re-enters from the previous entry's optimal basis), while distinct
//! runs are independent cold starts that parallelise freely. By default a
//! run is the whole family — a cold start at `i` costs about as much as
//! walking the chain from 0 to `i`, so cuts would buy no parallelism — and
//! shorter runs are an explicit opt-in. Cutting by a fixed run length
//! instead of "one chunk per worker" keeps results schedule-independent.

use std::ops::Range;

/// Splits `0..len` into contiguous runs of `run_len` indices (the final run
/// holds the remainder). `run_len` is clamped to at least 1; `len == 0`
/// yields no runs.
pub fn contiguous_runs(len: usize, run_len: usize) -> Vec<Range<usize>> {
    let run_len = run_len.max(1);
    (0..len.div_ceil(run_len))
        .map(|k| run_at(len, run_len, k * run_len))
        .collect()
}

/// The run of [`contiguous_runs`]`(len, run_len)` containing index `i`
/// (`i < len`). Lazy callers use this to solve exactly the run a cache miss
/// falls into — sharing the cut-point arithmetic with the eager partition is
/// what keeps the two paths bit-identical.
pub fn run_containing(len: usize, run_len: usize, i: usize) -> Range<usize> {
    debug_assert!(i < len, "index {i} outside 0..{len}");
    let run_len = run_len.max(1);
    run_at(len, run_len, (i / run_len) * run_len)
}

fn run_at(len: usize, run_len: usize, start: usize) -> Range<usize> {
    start..(start + run_len).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_the_range_exactly_once() {
        for len in 0..40usize {
            for run_len in 1..10usize {
                let runs = contiguous_runs(len, run_len);
                let flat: Vec<usize> = runs.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "{len}/{run_len}");
                for run in &runs {
                    assert!(run.len() <= run_len);
                    assert!(!run.is_empty());
                }
            }
        }
    }

    #[test]
    fn run_len_zero_is_clamped() {
        assert_eq!(contiguous_runs(3, 0), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn run_containing_agrees_with_the_partition() {
        for len in 1..40usize {
            for run_len in 0..10usize {
                let runs = contiguous_runs(len, run_len);
                for i in 0..len {
                    let run = run_containing(len, run_len, i);
                    assert!(run.contains(&i));
                    assert!(runs.contains(&run), "{len}/{run_len}/{i}: {run:?}");
                }
            }
        }
    }

    #[test]
    fn cut_points_do_not_depend_on_anything_but_len_and_run_len() {
        assert_eq!(contiguous_runs(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(contiguous_runs(8, 4), vec![0..4, 4..8]);
        assert_eq!(contiguous_runs(1, 4), vec![0..1]);
        assert!(contiguous_runs(0, 4).is_empty());
    }
}
