//! A process/session metrics registry: monotone counters, gauges, monotone
//! floating-point sums and fixed-bucket histograms, snapshottable to JSON.

use crate::json::{parse_json, write_json_f64, write_json_string, JsonError, JsonValue};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A cumulative histogram over fixed, caller-supplied bucket bounds.
#[derive(Clone, Debug, Default, PartialEq)]
struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing. An implicit
    /// overflow bucket catches everything above the last bound.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<u64>,
    /// Sum of all observed values.
    sum: f64,
    /// Number of observations.
    count: u64,
}

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    sums: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared registry of named metrics.
///
/// The registry is `Sync` (a mutex guards the maps) so one instance can be
/// shared by a session, its worker pool and the process. All write paths are
/// designed to never perturb the measured computation: they take no locks
/// the release path holds and never touch its randomness.
///
/// Four metric kinds:
/// * **counters** — monotone `u64` totals ([`counter_add`] /
///   [`counter_record_total`]);
/// * **gauges** — last-written `f64` values ([`gauge_set`]);
/// * **sums** — monotone `f64` accumulators, e.g. ε debited
///   ([`sum_add`]);
/// * **histograms** — fixed-bucket distributions ([`histogram_observe`]).
///
/// [`counter_add`]: MetricsRegistry::counter_add
/// [`counter_record_total`]: MetricsRegistry::counter_record_total
/// [`gauge_set`]: MetricsRegistry::gauge_set
/// [`sum_add`]: MetricsRegistry::sum_add
/// [`histogram_observe`]: MetricsRegistry::histogram_observe
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Tolerate a poisoned mutex: metrics must never take the process down.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Adds `delta` to the counter `name` (created at zero on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records an externally-accumulated total (e.g. a cumulative stats
    /// struct like the sequence cache's hit/miss counters): the counter
    /// becomes `max(current, total)`, which keeps it monotone when the same
    /// total is re-reported.
    pub fn counter_record_total(&self, name: &str, total: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(total);
    }

    /// Sets the gauge `name` to `value` (non-finite values are dropped so
    /// JSON snapshots never contain NaN).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.lock().gauges.insert(name.to_owned(), value);
    }

    /// Adds `value` (clamped to ≥ 0, non-finite dropped) to the monotone sum
    /// `name`.
    pub fn sum_add(&self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut inner = self.lock();
        *inner.sums.entry(name.to_owned()).or_insert(0.0) += value.max(0.0);
    }

    /// Observes `value` in the histogram `name`.
    ///
    /// The first observation fixes the bucket bounds; later calls ignore
    /// their `bounds` argument, so concurrent observers cannot disagree.
    pub fn histogram_observe(&self, name: &str, bounds: &[f64], value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            sums: inner.sums.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            sum: h.sum,
                            count: h.count,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Exponential-ish latency bucket bounds in **milliseconds**, shared by
/// everything that histograms request latency (the server's per-query and
/// per-tenant latency distributions) so their p50/p99 read on the same
/// scale.
pub const LATENCY_BUCKETS_MS: [f64; 16] = [
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
    10000.0,
];

/// A frozen copy of a histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Counts per finite bucket plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The estimated `q`-quantile (`0.0 ..= 1.0`) of the observed
    /// distribution, interpolated linearly inside the bucket holding the
    /// rank-`⌈q·count⌉` observation (the standard fixed-bucket estimator,
    /// e.g. Prometheus's `histogram_quantile`). Observations in the
    /// unbounded overflow bucket report the last finite bound — a floor, not
    /// an estimate. `None` when the histogram is empty or `q` is out of
    /// range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            if seen + c >= rank {
                let Some(&hi) = self.bounds.get(i) else {
                    return Some(lo);
                };
                let into = (rank - seen) as f64 / c as f64;
                return Some(lo + (hi - lo) * into);
            }
            seen += c;
        }
        None
    }
}

/// A frozen, JSON-serialisable copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    sums: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The gauge `name`, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The monotone sum `name`, if recorded.
    pub fn sum(&self, name: &str) -> Option<f64> {
        self.sums.get(name).copied()
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Serialises the snapshot to deterministic JSON (keys sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        write_u64_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        write_f64_map(&mut out, &self.gauges);
        out.push_str("},\n  \"sums\": {");
        write_f64_map(&mut out, &self.sums);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, name);
            out.push_str(": {\"bounds\": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_f64(&mut out, *b);
            }
            out.push_str("], \"counts\": [");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_string());
            }
            out.push_str("], \"sum\": ");
            write_json_f64(&mut out, h.sum);
            out.push_str(", \"count\": ");
            out.push_str(&h.count.to_string());
            out.push('}');
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn parse_json(text: &str) -> Result<Self, JsonError> {
        let doc = parse_json(text)?;
        let bad = |message: &str| JsonError {
            message: message.to_owned(),
            offset: 0,
        };
        let mut snapshot = MetricsSnapshot::default();
        for (name, value) in object_members(&doc, "counters").ok_or_else(|| bad("counters"))? {
            let v = value.as_u64().ok_or_else(|| bad("counter value"))?;
            snapshot.counters.insert(name.clone(), v);
        }
        for (name, value) in object_members(&doc, "gauges").ok_or_else(|| bad("gauges"))? {
            let v = value.as_f64().ok_or_else(|| bad("gauge value"))?;
            snapshot.gauges.insert(name.clone(), v);
        }
        for (name, value) in object_members(&doc, "sums").ok_or_else(|| bad("sums"))? {
            let v = value.as_f64().ok_or_else(|| bad("sum value"))?;
            snapshot.sums.insert(name.clone(), v);
        }
        for (name, value) in object_members(&doc, "histograms").ok_or_else(|| bad("histograms"))? {
            let bounds = value
                .get("bounds")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad("histogram bounds"))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| bad("histogram bound")))
                .collect::<Result<Vec<f64>, _>>()?;
            let counts = value
                .get("counts")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad("histogram counts"))?
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| bad("histogram count")))
                .collect::<Result<Vec<u64>, _>>()?;
            let sum = value
                .get("sum")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad("histogram sum"))?;
            let count = value
                .get("count")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("histogram count"))?;
            snapshot.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds,
                    counts,
                    sum,
                    count,
                },
            );
        }
        Ok(snapshot)
    }
}

fn object_members<'a>(doc: &'a JsonValue, key: &str) -> Option<&'a BTreeMap<String, JsonValue>> {
    doc.get(key).and_then(JsonValue::as_object)
}

fn write_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(out, name);
        out.push_str(": ");
        out.push_str(&value.to_string());
    }
}

fn write_f64_map(out: &mut String, map: &BTreeMap<String, f64>) {
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(out, name);
        out.push_str(": ");
        write_json_f64(out, *value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_under_both_write_paths() {
        let registry = MetricsRegistry::new();
        registry.counter_add("lp.pivots", 5);
        registry.counter_add("lp.pivots", 7);
        assert_eq!(registry.snapshot().counter("lp.pivots"), Some(12));
        registry.counter_record_total("cache.hits", 10);
        registry.counter_record_total("cache.hits", 4); // stale re-report
        registry.counter_record_total("cache.hits", 11);
        assert_eq!(registry.snapshot().counter("cache.hits"), Some(11));
    }

    #[test]
    fn gauges_and_sums_reject_non_finite_values() {
        let registry = MetricsRegistry::new();
        registry.gauge_set("cache.hit_rate", 0.5);
        registry.gauge_set("cache.hit_rate", f64::NAN);
        registry.sum_add("budget.debited_epsilon", 0.25);
        registry.sum_add("budget.debited_epsilon", f64::INFINITY);
        registry.sum_add("budget.debited_epsilon", 0.25);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("cache.hit_rate"), Some(0.5));
        assert_eq!(snap.sum("budget.debited_epsilon"), Some(0.5));
    }

    #[test]
    fn histogram_buckets_include_overflow() {
        let registry = MetricsRegistry::new();
        let bounds = [1.0, 10.0];
        for v in [0.5, 1.0, 2.0, 100.0] {
            registry.histogram_observe("pool.queue_depth", &bounds, v);
        }
        let snap = registry.snapshot();
        let h = snap.histogram("pool.queue_depth").unwrap();
        assert_eq!(h.bounds, vec![1.0, 10.0]);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 103.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = MetricsRegistry::new();
        registry.counter_add("a.count", u64::MAX);
        registry.gauge_set("b.gauge", -1.25e-7);
        registry.sum_add("c.sum", 0.1);
        registry.histogram_observe("d.hist", &[0.001, 0.1, 1.0], 0.05);
        registry.histogram_observe("d.hist", &[0.001, 0.1, 1.0], 5.0);
        let snap = registry.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::parse_json(&json).unwrap();
        assert_eq!(back, snap);
        // Deterministic output: serialising again is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsRegistry::new().snapshot();
        let back = MetricsSnapshot::parse_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("missing"), None);
    }

    #[test]
    fn parse_rejects_wrong_shapes() {
        assert!(MetricsSnapshot::parse_json("[]").is_err());
        assert!(MetricsSnapshot::parse_json("{\"counters\": {\"a\": -1}}").is_err());
        assert!(MetricsSnapshot::parse_json("not json").is_err());
    }
    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let registry = MetricsRegistry::new();
        // 100 observations spread 1..=100 over bounds [10, 50, 100]: p50
        // lands mid-way through the (10, 50] bucket, p99 near the top of
        // the (50, 100] one.
        for v in 1..=100 {
            registry.histogram_observe("lat", &[10.0, 50.0, 100.0], v as f64);
        }
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() < 1.0, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() < 1.0, "p99 = {p99}");
        // Extremes and degenerate inputs.
        assert_eq!(h.quantile(0.0).unwrap(), 0.0 + (10.0 - 0.0) * (1.0 / 10.0));
        assert!(h.quantile(1.5).is_none());
        assert!(HistogramSnapshot::default().quantile(0.5).is_none());
    }

    #[test]
    fn overflow_bucket_quantiles_report_the_last_finite_bound() {
        let registry = MetricsRegistry::new();
        registry.histogram_observe("lat", &[1.0, 2.0], 50.0);
        registry.histogram_observe("lat", &[1.0, 2.0], 60.0);
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("lat").unwrap();
        // Both observations overflowed: the estimator can only floor them.
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.99), Some(2.0));
    }
}
