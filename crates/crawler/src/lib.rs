//! # spf-crawler — the scan pipeline of Section 4.1
//!
//! Drives the full measurement: a worker pool crawls a ranked domain list
//! through the shared, memoizing [`spf_analyzer::Walker`], then
//! [`ScanAggregates`] distills every population-level count the paper
//! reports (adoption, error classes, permissiveness),
//! [`include_ecosystem`] builds the per-include view behind Table 4 and
//! Figures 4/7/8, and [`OverlapReport`] answers the cross-population
//! address-space overlap questions of §6 (most-spoofable address,
//! coverage histogram, provider concentration) from the coverage map the
//! crawl accumulates as it goes. [`spoof_matrix`] closes the §6 loop:
//! real `check_host()` verdicts for the whole population from attacker
//! vantage addresses, deduplicated through a lock-striped subtree
//! verdict cache (see [`mod@spoof`]); [`auth_matrix`] is its layered
//! successor, composing DMARC and MTA-STS stop attribution on top of
//! the byte-identical SPF sub-matrix (matrix v2, DESIGN.md §13).
//!
//! # Crawl engine invariants
//!
//! The engine is sharded at both ends of the hot path (DESIGN.md §3):
//!
//! * **One analysis per include.** All workers share one walker whose
//!   lock-striped memo cache ([`spf_analyzer::cache`]) guarantees each
//!   unique domain's subtree is analyzed once and then served as an `Arc`
//!   handle — the paper's record-cache trick across 150 query endpoints.
//! * **Bounded dispatch memory.** Work is dispatched in
//!   [`CrawlConfig::batch_size`] chunks through a channel capped at
//!   `2 × workers` batches, so in-flight work is O(workers × batch_size)
//!   regardless of population size ([`CrawlStats::peak_queue_depth`]
//!   observes the bound).
//! * **Rank-order determinism.** Reports land in a preallocated slot table
//!   indexed by Tranco rank; because every per-domain analysis is a pure
//!   function of the zone, the report vector is bit-identical across all
//!   worker / cache-shard / batch-size configurations (asserted by the
//!   `crawl_stress` suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod crawl;
pub mod ecosystem;
pub mod longitudinal;
pub mod overlap;
pub mod spoof;

pub use aggregate::{ScanAggregates, LARGE_RANGE_MAX_PREFIX};
pub use crawl::{
    crawl, CrawlConfig, CrawlOutput, CrawlStats, DEFAULT_BATCH_SIZE, DEFAULT_WIRE_SERVERS,
};
pub use ecosystem::{include_ecosystem, includes_exceeding_limit, top_includes, IncludeStats};
pub use longitudinal::{ChurnEngine, EpochReport, LongitudinalConfig, ZoneDelta};
pub use overlap::{OverlapReport, ProviderConcentration, DEFAULT_PROVIDER_ROWS};
/// Re-export of the auth-stack layer types the v2 matrix reports in.
pub use spf_core::{
    AuthCacheStats, DeploymentMix, DmarcDisposition, MtaStsMode, StopCounts, StopLayer,
};
/// Re-export of the engine-selection types every assembler consumes.
pub use spf_types::{Backend, Evaluator, Transport};
#[allow(deprecated)]
pub use spoof::spoof_matrix;
pub use spoof::{
    auth_matrix, auth_matrix_with_cache, evaluate_auth_row, evaluate_matrix_row, select_vantages,
    AuthMatrix, AuthMatrixRow, AuthMatrixStats, DomainMatrixRow, ProviderVantage, RowCell,
    SpoofMatrix, SpoofMatrixConfig, SpoofMatrixStats, SpoofVerdictCache, TierReport, VantageKind,
    VantagePoint, VantageReport, DEFAULT_CONTROLS, DEFAULT_TOP_COVERAGE, SPOOF_SENDER_LOCAL,
};

/// Re-export of the analyzer's lax-authorization threshold (100,000 IPs).
pub use spf_analyzer::LAX_IP_THRESHOLD;
