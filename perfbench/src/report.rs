//! The result line every run prints last on standard output.

use std::fmt::Write;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every output was checked and found correct.
    pub correct: bool,
    /// Operations attempted: learned systems or served records.
    pub attempted: u64,
    /// Attempted operations that failed a check.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The JSON result line. A metric that is not a finite number makes the
    /// run incorrect and is written as 0, keeping the line valid JSON.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let separator = if i == 0 { "" } else { ", " };
            // `f64`'s Display prints the shortest exact representation,
            // never an exponent, so it is always a valid JSON number.
            let _ = write!(
                out,
                "{separator}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![metric("setup_s", 0.25, "s"), metric("x", 1e-7, "ms")],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0000001, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![metric("p50", f64::NAN, "us")],
        };
        let json = outcome.to_json();
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.contains("\"value\": 0,"));
    }
}
