//! # spf-report — statistics and rendering for the reproduction
//!
//! Everything needed to turn scan aggregates into the paper's tables and
//! figures: CDF/histogram/heatmap primitives ([`stats`]), plain-text
//! table/bar/series renderers ([`render`]), the paper's published values
//! ([`paper`]) and the paper-vs-measured experiment log that becomes
//! EXPERIMENTS.md ([`compare`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod paper;
pub mod render;
pub mod stats;

pub use compare::{Comparison, Experiment, ExperimentLog, Unit};
pub use render::{fmt_count, fmt_percent, render_bars, render_cdf, Table};
pub use stats::{Cdf, Heatmap, Histogram};
