//! What one run reports: named metrics with units and sample counts, correctness
//! checks, and the result line and file the run leaves behind.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or provenance, printed beside the value.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `(description, passed)` of every correctness check.
    pub checks: Vec<(String, bool)>,
    /// Free-form lines printed before the metrics (the saturation phase, comparisons).
    pub lines: Vec<String>,
    /// Requests of the measured phase, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn check(&mut self, description: impl Into<String>, passed: bool) {
        self.checks.push((description.into(), passed));
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed)| *passed)
    }

    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        for (description, passed) in &self.checks {
            let verdict = if *passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {description}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics named in
    /// `names` (all of them must be present).
    ///
    /// # Errors
    ///
    /// Names a metric the run did not produce, or produced as no finite number.
    pub fn result_json(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                metrics.push_str(", ");
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} measured no finite number"));
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }

    /// Write every metric as `name<TAB>value<TAB>unit` lines, for comparisons between
    /// runs (live against frozen, traced against untraced).
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for m in &self.metrics {
            let _ = writeln!(text, "{}\t{}\t{}", m.name, m.value, m.unit);
        }
        fs::write(path, text)
    }
}

/// Read a file written by [`Report::save`]; `None` when it does not exist or is torn.
#[must_use]
pub fn load(path: &Path) -> Option<Vec<(String, f64)>> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .map(|line| {
            let mut fields = line.split('\t');
            let name = fields.next()?.to_string();
            let value = fields.next()?.parse().ok()?;
            Some((name, value))
        })
        .collect()
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_named_metrics() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("a_ms", 1.5, "ms", "n=10");
        r.metric("b", 2.0, "count", "");
        r.check("always", true);
        assert_eq!(
            r.result_json(&["a_ms"]).expect("a_ms measured"),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(r.result_json(&["missing"]).is_err());
        r.metric("nan", f64::NAN, "ms", "");
        assert!(r.result_json(&["nan"]).is_err());
        r.check("never", false);
        assert!(r
            .result_json(&["b"])
            .expect("b measured")
            .starts_with("{\"correct\": false"));
    }
}
