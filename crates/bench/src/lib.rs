//! # spf-bench — experiment regeneration pipelines
//!
//! [`experiments`] holds one pipeline per table/figure of the paper; the
//! `repro` binary (workspace root) drives them and writes EXPERIMENTS.md.
//! Performance is measured by the benchmark alone (`BENCHMARK.json`,
//! `benchmark/README.md`), which builds on [`build_resolver`] and
//! [`WireRun`] from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{
    build_resolver, extras, figure1, figure2, figure3, figure4, figure5, figure6, figure7, figure8,
    overlap, prepare, prepare_with, service_lab, spoof_matrix, spoof_matrix_stacked, table1,
    table2, table3, table4, table5, trends, Repro, ServiceLab, WireRun, WireRunStats,
};
