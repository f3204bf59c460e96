//! Metric values, percentiles, and the two output formats: one
//! `workload metric value unit` line per metric, and the final JSON
//! result line.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value, with every digit measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Nearest-rank percentiles of a sample, with the sample's size: a
/// percentile means something only with at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Samples.
    pub n: usize,
    /// Median (`NaN` without samples).
    pub p50: f64,
    /// 90th percentile (`NaN` without samples).
    pub p90: f64,
    /// 99th percentile (`NaN` without samples).
    pub p99: f64,
}

impl Percentiles {
    /// Percentiles of `samples`.
    pub fn of(mut samples: Vec<f64>) -> Percentiles {
        samples.sort_unstable_by(f64::total_cmp);
        let rank = |q: f64| -> f64 {
            match samples.len() {
                0 => f64::NAN,
                n => samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
            }
        };
        Percentiles {
            n: samples.len(),
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
        }
    }
}

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    Percentiles::of(samples.into_iter().collect()).p50
}

/// Milliseconds, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `ratio = num / den`, or `NaN` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Metrics that could not
/// be measured (non-finite) are left out.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for m in metrics.iter().filter(|m| m.value.is_finite()) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        // `f64`'s `Display` is the shortest exact round-trip form and
        // never uses an exponent, so it is valid JSON as printed.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
