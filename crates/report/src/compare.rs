//! Paper-vs-measured bookkeeping: every experiment records comparison
//! rows, and the collected set is written out as EXPERIMENTS.md.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// How a comparison value should be displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Unit {
    /// A fraction displayed as a percentage.
    Percent,
    /// An absolute count.
    Count,
    /// A dimensionless number (lookups, exponents, …).
    Plain,
}

/// One paper-vs-measured row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// What is being compared.
    pub label: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Display unit.
    pub unit: Unit,
}

impl Comparison {
    /// Relative deviation `measured / paper - 1` (0 when paper is 0).
    fn relative_error(&self) -> f64 {
        if self.paper == 0.0 {
            if self.measured == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured / self.paper - 1.0
        }
    }

    fn fmt_value(&self, v: f64) -> String {
        match self.unit {
            Unit::Percent => format!("{:.1} %", v * 100.0),
            Unit::Count => crate::render::fmt_count(v.round() as u64),
            Unit::Plain => {
                if v.fract() == 0.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.3}")
                }
            }
        }
    }
}

/// A named experiment with its comparisons and free-form notes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Experiment id, e.g. "Table 1" or "Figure 5".
    pub id: String,
    /// One-line description.
    pub description: String,
    /// Comparison rows.
    pub rows: Vec<Comparison>,
    /// Caveats / substitutions worth recording.
    pub notes: Vec<String>,
}

impl Experiment {
    /// New experiment.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Experiment {
        Experiment {
            id: id.into(),
            description: description.into(),
            ..Default::default()
        }
    }

    /// Record a percentage comparison.
    pub fn percent(&mut self, label: impl Into<String>, paper: f64, measured: f64) {
        self.rows.push(Comparison {
            label: label.into(),
            paper,
            measured,
            unit: Unit::Percent,
        });
    }

    /// Record a count comparison. When the measured side ran at scale
    /// 1:N, pass the *rescaled* value so the columns are comparable.
    pub fn count(&mut self, label: impl Into<String>, paper: u64, measured: u64) {
        self.rows.push(Comparison {
            label: label.into(),
            paper: paper as f64,
            measured: measured as f64,
            unit: Unit::Count,
        });
    }

    /// Record a plain-number comparison.
    pub fn plain(&mut self, label: impl Into<String>, paper: f64, measured: f64) {
        self.rows.push(Comparison {
            label: label.into(),
            paper,
            measured,
            unit: Unit::Plain,
        });
    }

    /// Add a caveat.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Worst absolute relative error across rows (ignores infinite rows).
    pub fn worst_relative_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.relative_error().abs())
            .filter(|e| e.is_finite())
            .fold(0.0, f64::max)
    }
}

/// The full experiment log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentLog {
    /// Run metadata shown in the report header.
    pub scale_denominator: u64,
    /// RNG seed used.
    pub seed: u64,
    /// All experiments in order.
    pub experiments: Vec<Experiment>,
}

impl ExperimentLog {
    /// New log.
    pub fn new(scale_denominator: u64, seed: u64) -> ExperimentLog {
        ExperimentLog {
            scale_denominator,
            seed,
            experiments: Vec::new(),
        }
    }

    /// Append an experiment.
    pub fn push(&mut self, experiment: Experiment) {
        self.experiments.push(experiment);
    }

    /// Render the whole log as the EXPERIMENTS.md document.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# EXPERIMENTS — paper vs. measured\n");
        let _ = writeln!(
            out,
            "Reproduction of *Lazy Gatekeepers: A Large-Scale Study on SPF \
             Configuration in the Wild* (IMC 2023)."
        );
        let _ = writeln!(
            out,
            "\nPopulation scale **1:{}** (seed `0x{:x}`). Counts measured at scale are\n\
             rescaled (×{}) before comparison, so both columns are in full-scale units.\n\
             Regenerate with `cargo run --release --bin repro -- all`.\n",
            self.scale_denominator, self.seed, self.scale_denominator
        );
        for exp in &self.experiments {
            let _ = writeln!(out, "## {} — {}\n", exp.id, exp.description);
            let _ = writeln!(out, "| Quantity | Paper | Measured | Deviation |");
            let _ = writeln!(out, "|---|---:|---:|---:|");
            for row in &exp.rows {
                let deviation = row.relative_error();
                let dev_str = if deviation.is_infinite() {
                    "n/a".to_string()
                } else {
                    format!("{:+.1} %", deviation * 100.0)
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    row.label,
                    row.fmt_value(row.paper),
                    row.fmt_value(row.measured),
                    dev_str
                );
            }
            for note in &exp.notes {
                let _ = writeln!(out, "\n> {note}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error() {
        let c = Comparison {
            label: "x".into(),
            paper: 100.0,
            measured: 103.0,
            unit: Unit::Count,
        };
        assert!((c.relative_error() - 0.03).abs() < 1e-9);
        let zero = Comparison {
            label: "z".into(),
            paper: 0.0,
            measured: 0.0,
            unit: Unit::Count,
        };
        assert_eq!(zero.relative_error(), 0.0);
        let inf = Comparison {
            label: "i".into(),
            paper: 0.0,
            measured: 5.0,
            unit: Unit::Count,
        };
        assert!(inf.relative_error().is_infinite());
    }

    #[test]
    fn experiment_helpers_and_worst_error() {
        let mut e = Experiment::new("Table 1", "adoption");
        e.percent("SPF (all)", 0.565, 0.563);
        e.count("errors", 211_018, 215_000);
        e.note("scale 1:100");
        assert_eq!(e.rows.len(), 2);
        assert!(e.worst_relative_error() < 0.02);
    }

    #[test]
    fn markdown_renders_tables() {
        let mut log = ExperimentLog::new(100, 7);
        let mut e = Experiment::new("Figure 2", "error classes");
        e.count("Syntax Error", 38_296, 38_300);
        e.note("one caveat");
        log.push(e);
        let md = log.to_markdown();
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("## Figure 2 — error classes"));
        assert!(md.contains("| Syntax Error | 38,296 | 38,300 |"));
        assert!(md.contains("> one caveat"));
        assert!(md.contains("1:100"));
    }

    #[test]
    fn percent_formatting_in_markdown() {
        let mut log = ExperimentLog::new(1, 0);
        let mut e = Experiment::new("T", "d");
        e.percent("SPF", 0.565, 0.565);
        log.push(e);
        assert!(log
            .to_markdown()
            .contains("| SPF | 56.5 % | 56.5 % | +0.0 % |"));
    }
}
