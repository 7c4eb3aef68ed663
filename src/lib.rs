//! # lazy-gatekeepers — reproduction of *Lazy Gatekeepers: A Large-Scale
//! Study on SPF Configuration in the Wild* (IMC 2023)
//!
//! This crate re-exports the whole workspace behind one façade so the
//! examples and downstream users need a single dependency:
//!
//! * [`types`] — domain names, CIDR, IPv4 interval sets, SPF term model;
//! * [`dns`] — the DNS substrate (wire codec, zones, resolver stack, UDP);
//! * [`core`] — RFC 7208 parser / `check_host()` evaluator / DMARC;
//! * [`analyzer`] — the misconfiguration analyzer and recommendations;
//! * [`crawler`] — the multi-worker scan pipeline and aggregates;
//! * [`netsim`] — the calibrated synthetic Internet;
//! * [`smtp`] — SMTP substrate and the spoofing case study;
//! * [`notify`] — the notification campaign and remediation model;
//! * [`report`] — statistics, rendering, paper constants;
//! * [`service`] — the resident socket-served verdict daemon;
//! * [`mod@bench`] — per-experiment regeneration pipelines.
//!
//! Quick start: parse and evaluate a record in five lines —
//!
//! ```
//! use lazy_gatekeepers::prelude::*;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ZoneStore::new());
//! let domain = DomainName::parse("example.com").unwrap();
//! store.add_txt(&domain, "v=spf1 ip4:192.0.2.0/24 -all");
//! let resolver = ZoneResolver::new(store);
//! let ctx = EvalContext::mail_from("192.0.2.7".parse().unwrap(), "alice", domain.clone());
//! let result = check_host(&resolver, &ctx, &domain, &EvalPolicy::default());
//! assert_eq!(result.result, SpfResult::Pass);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spf_analyzer as analyzer;
pub use spf_bench as bench;
pub use spf_core as core;
pub use spf_crawler as crawler;
pub use spf_dns as dns;
pub use spf_netsim as netsim;
pub use spf_notify as notify;
pub use spf_report as report;
pub use spf_service as service;
pub use spf_smtp as smtp;
pub use spf_types as types;

/// The most commonly used items, for glob import in examples.
pub mod prelude {
    pub use spf_analyzer::{
        analyze_domain, recommend, DomainReport, ErrorClass, WalkPolicy, Walker,
    };
    pub use spf_core::{
        check_host, compile_policy, parse, parse_lenient, CompiledPolicy, CompilerStats,
        EvalContext, EvalPolicy, SpfResult,
    };
    pub use spf_crawler::{
        auth_matrix, auth_matrix_with_cache, bare_row_fold, crawl, include_ecosystem,
        select_vantages, AuthMatrix, ChurnEngine, CrawlConfig, CrawlStats, EpochReport,
        LongitudinalConfig, OverlapReport, ProviderVantage, ScanAggregates, SpoofMatrix, StopLayer,
        VantagePoint, ZoneDelta,
    };
    pub use spf_dns::{
        Resolver, ServerConfig, WireClientConfig, WireFleet, WireResolver, WireSnapshot,
        ZoneResolver, ZoneStore,
    };
    pub use spf_netsim::{
        build_hosting, build_spoof_world, ChurnBatch, ChurnConfig, ChurnPreset, ChurnSimulator,
        Population, PopulationConfig, Scale, SpoofWorld,
    };
    pub use spf_service::{
        ServiceClient, ServiceConfig, TrafficMix, Transport, TtlLruConfig, VerdictService,
    };
    pub use spf_types::{
        Backend, CacheStats, CoverageMap, DomainName, Evaluator, Ipv4Cidr, Ipv4Set, Ipv6Set,
        SpfRecord, Stats, WeightedRanges,
    };
}
