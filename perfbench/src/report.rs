//! What one run reports: the output checks, the operation tally, and the
//! metrics, printed as the run's last line of JSON.

use std::fmt::Write as _;

#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (reads mapped or requests sent).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Descriptions of the checks that failed.
    pub check_failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context printed before the result line (sample counts, host facts).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what());
        }
    }

    /// Fails the run, counting `operations` failed operations.
    pub fn fail(&mut self, operations: u64, what: String) {
        self.failed += operations;
        self.check_failures.push(what);
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The context line printed before the result.
    #[must_use]
    pub fn notes_json(&self) -> String {
        let mut out = String::from("{\"notes\": {");
        for (i, (key, value)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{key}\": \"{}\"", escape(value));
        }
        let failures: Vec<String> = self
            .check_failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let _ = write!(out, "}}, \"check_failures\": [{}]}}", failures.join(", "));
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.metric("reads_per_s", 1234.5, "1/s");
        report.metric("setup_s", 0.25, "s");
        assert_eq!(
            report.result_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"reads_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        report.check(false, || "records \"differ\"".to_string());
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
        assert!(report.result_json().starts_with("{\"correct\": false"));
        assert!(report.notes_json().contains("records \\\"differ\\\""));
    }

    #[test]
    fn a_non_finite_metric_is_not_correct() {
        let mut report = Report::default();
        report.metric("f1", f64::NAN, "1");
        assert!(!report.correct());
        assert!(report.result_json().contains("\"value\": null"));
    }
}
