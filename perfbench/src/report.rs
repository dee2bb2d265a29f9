//! What one run prints: human-readable lines, then one JSON object as the
//! last line of standard output.

use crate::stats::Summary;

/// The tolerance every result is checked to (the repository's own).
pub const TOLERANCE: f64 = 1e-9;

/// Whether `got` matches `want` to [`TOLERANCE`] (equal infinities match).
pub fn close(got: f64, want: f64) -> bool {
    got == want || (got - want).abs() < TOLERANCE
}

/// Whether two value columns match element by element.
pub fn all_close(got: impl ExactSizeIterator<Item = f64>, want: &[f64]) -> bool {
    got.len() == want.len() && got.zip(want).all(|(g, &w)| close(g, w))
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Every check that did not hold.
    pub problems: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
    lines: Vec<String>,
}

impl Report {
    /// Adds a metric to the JSON object.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Adds a latency summary as a human-readable line.
    pub fn latency_line(&mut self, name: &str, summary: Option<Summary>) {
        let line = match summary {
            Some(s) => format!(
                "{name}: p50 {:.4} ms, p90 {:.4} ms, n={}",
                s.p50, s.p90, s.n
            ),
            None => format!("{name}: no samples"),
        };
        self.lines.push(line);
    }

    /// Counts one operation; a failed one records `problem`.
    pub fn operation(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(problem());
        }
    }

    /// Records a check that did not hold (the first few are kept verbatim).
    pub fn problem(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Prints the lines, then the JSON object on the last line.
    pub fn print(&self) {
        for line in &self.lines {
            println!("# {line}");
        }
        for problem in &self.problems {
            println!("# PROBLEM: {problem}");
        }
        let finite = self.metrics.iter().all(|(_, _, v)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0 && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_matches_the_repository() {
        assert!(close(1.0, 1.0 + 5e-10));
        assert!(!close(1.0, 1.0 + 2e-9));
        assert!(close(f64::INFINITY, f64::INFINITY));
        assert!(!close(f64::INFINITY, 1.0));
        assert!(all_close([1.0, 2.0].into_iter(), &[1.0, 2.0]));
        assert!(!all_close([1.0].into_iter(), &[1.0, 2.0]));
    }
}
