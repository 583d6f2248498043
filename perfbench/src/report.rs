//! The benchmark's result: metrics with units, operation counts, and the
//! one-line JSON object the run ends with.

use crate::spans::SpanLog;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics of this run's mode (end-to-end untraced, or per-layer).
    pub metrics: Vec<Metric>,
    /// Operations attempted (calling runs, requests).
    pub attempted: u64,
    /// Operations that errored, came back partial or 5xx, or produced
    /// output other than the workload's reference.
    pub failed: u64,
    /// Consistency problems found (counts that did not repeat, trace
    /// integrity, reconciliation); any makes the result incorrect.
    pub problems: Vec<String>,
    /// Facts about the host and the code paths the run took.
    pub facts: Vec<(&'static str, String)>,
    /// Spans of the traced pass, written out at exit.
    pub spans: Option<SpanLog>,
}

impl Report {
    /// Record a problem when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Whether every output matched and every consistency check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The final JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; non-finite values (which JSON
/// cannot hold) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            metrics: vec![metric("call_s", 1.25, "s"), metric("setup_s", 0.001, "s")],
            attempted: 4,
            failed: 0,
            ..Report::default()
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"call_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.001, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn problems_and_failures_make_it_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        assert!(r.correct());
        r.check(true, "fine");
        assert!(r.correct());
        r.check(false, "counts differ");
        assert!(!r.correct());
        let r = Report {
            attempted: 1,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
    }

    #[test]
    fn non_finite_values_are_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(3.0), "3.0");
    }
}
