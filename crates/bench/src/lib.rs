//! # spf-bench — experiment regeneration pipelines and criterion benches
//!
//! [`experiments`] holds one pipeline per table/figure of the paper; the
//! `repro` binary (workspace root) drives them and writes EXPERIMENTS.md,
//! while the criterion benches in `benches/` measure the building blocks
//! (parser, evaluator, IP-set arithmetic, DNS codec, crawl, SMTP) and the
//! ablations called out in DESIGN.md §5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod guard;

pub use experiments::{
    build_resolver, extras, figure1, figure2, figure3, figure4, figure5, figure6, figure7, figure8,
    overlap, prepare, prepare_with, service_lab, spoof_matrix, spoof_matrix_stacked, table1,
    table2, table3, table4, table5, trends, Repro, ServiceLab, WireRun, WireRunStats,
};
