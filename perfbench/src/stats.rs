//! Order statistics and the result line.

/// Samples sorted once, read by nearest rank.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sorted(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn rank(&self, q: f64) -> usize {
        ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len().max(1))
    }

    /// The `q`-quantile by nearest rank; 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0[self.rank(q) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly beyond the `q`-quantile's rank: a percentile is
    /// reported only where at least ten lie beyond it.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len() - self.rank(q).min(self.0.len())
    }
}

/// Median of any samples.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    Sorted::new(values.into_iter().collect()).median()
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result object, printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads as -1 and the run is already marked incorrect.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
