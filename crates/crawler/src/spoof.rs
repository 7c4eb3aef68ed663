//! The population-scale spoofability verdict matrix (§6 of the paper).
//!
//! PR 4's overlap engine answers *which addresses the most domains
//! authorize*; this module closes the loop by computing what a receiving
//! MTA would actually decide: it batch-evaluates
//! [`spf_core::check_host`]`(ip, domain, sender)` for every scanned
//! domain × a set of attacker vantage addresses, through the same
//! bounded worker-pool dispatch the crawl engine uses.
//!
//! # Vantage families
//!
//! * [`VantageKind::SharedCoverage`] — the top-K most-authorized
//!   addresses from the population's [`WeightedRanges`] profile: shared
//!   cloud infrastructure an attacker can rent into;
//! * [`VantageKind::ProviderWeb`] / [`VantageKind::ProviderMta`] — the
//!   §6.4 hosting-provider web-space and MTA addresses
//!   (`spf_netsim::hosting`);
//! * [`VantageKind::Control`] — deterministic random addresses *outside*
//!   every authorized range, the matrix's negative baseline (only
//!   `+all`-style records pass from these).
//!
//! # The verdict cache
//!
//! Include-heavy populations would re-walk each shared provider subtree
//! once per customer per vantage; [`SpoofVerdictCache`] memoizes subtree
//! verdicts in the analyzer's lock-striped [`ShardedCache`], keyed by
//! `(domain precomputed-hash, vantage, remaining budget)` — the exact
//! purity domain `spf_core::eval` guarantees, so cached and uncached
//! matrices serialize byte-identically (`tests/spoof_matrix_stress.rs`
//! and the proptests pin this, BENCH_5.json quantifies the speedup).
//!
//! # Determinism
//!
//! Every [`SpoofMatrix`] field is a sum of per-domain facts that are
//! pure functions of `(zone, domain, vantage)`, merged commutatively
//! from per-worker accumulators — so the serialized report is identical
//! across worker counts, batch sizes, cache shard counts, cache on/off,
//! and resolver substrates (in-memory vs wire under zero faults).
//!
//! # Matrix v2: the layered auth stack
//!
//! [`auth_matrix`] is the layered successor (DESIGN.md §13): the same
//! engine shape evaluates each domain's SPF row through the *identical*
//! [`evaluate_matrix_row`] primitive (the byte-identity rail — the v2
//! report embeds a [`SpoofMatrix`] that serializes byte-for-byte like
//! the v1 engine's), then composes the domain's DMARC disposition and
//! MTA-STS mode into a per-cell [`StopLayer`] naming which layer blocks
//! each `(vantage, victim)` pair. The report buckets per-layer stop
//! rates by observed [`DeploymentMix`] tier and carries the residual
//! spoofable set no layer stops. The v1 [`spoof_matrix`] entry point is
//! deprecated in favor of it.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;
use serde::{Deserialize, Serialize};
use spf_analyzer::{CacheKey, CacheStats, ShardedCache, DEFAULT_CACHE_SHARDS};
use spf_core::{
    check_host, check_host_cached, compile_policy, compile_policy_shared, query_mta_sts,
    stop_layer, AuthCache, AuthCacheStats, BudgetKey, CompileConfig, CompilerStats, DeploymentMix,
    DmarcDisposition, EvalContext, EvalPolicy, Evaluation, MtaStsMode, SpfResult, StopCounts,
    StopLayer, SubtreeMemo, SubtreeMemoStats, SubtreeVerdict, VerdictCache,
};
use spf_dns::Resolver;
use spf_types::{DomainName, WeightedRanges};

use crate::crawl::DEFAULT_BATCH_SIZE;

/// The MAIL FROM local-part every matrix evaluation claims. A constant:
/// the engine's verdict cache is sound only for session-independent
/// subtrees, and a fixed local-part keeps the rare `%{l}` record from
/// varying within one run.
pub const SPOOF_SENDER_LOCAL: &str = "attacker";

/// Default number of top-coverage vantage addresses.
pub const DEFAULT_TOP_COVERAGE: usize = 5;

/// Default number of control vantage addresses.
pub const DEFAULT_CONTROLS: usize = 3;

/// Which family a vantage address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VantageKind {
    /// A top-K most-authorized address from the overlap profile.
    SharedCoverage,
    /// A hosting provider's shared web-space address.
    ProviderWeb,
    /// A hosting provider's outbound MTA address.
    ProviderMta,
    /// A random address no domain authorizes.
    Control,
}

impl VantageKind {
    /// True for addresses an attacker can plausibly send from (rent the
    /// shared infrastructure, the web space, or the provider MTA) —
    /// i.e. every family except the synthetic controls.
    pub fn attacker_reachable(self) -> bool {
        !matches!(self, VantageKind::Control)
    }
}

/// One attacker vantage address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantagePoint {
    /// Human-readable label (rendered by `repro -- spoof-matrix`).
    pub label: String,
    /// The vantage family.
    pub kind: VantageKind,
    /// The connecting address the matrix evaluates from.
    pub ip: Ipv4Addr,
}

/// A hosting provider's two attacker-reachable addresses, as vantage
/// input (built from `spf_netsim::HostingProvider` by the pipeline
/// assemblers — the crawler stays independent of the world generator).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProviderVantage {
    /// Provider label (e.g. `hosting1`).
    pub label: String,
    /// The shared web-space address.
    pub web: Ipv4Addr,
    /// The provider MTA address.
    pub mta: Ipv4Addr,
}

/// splitmix64: the control sampler's deterministic stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Assemble the matrix's vantage set: the `top_k` most-covered addresses
/// from the overlap profile, each provider's web and MTA addresses, and
/// `controls` addresses with the *least* coverage — seeded-random
/// zero-coverage addresses when any exist, falling back to
/// representatives of the lowest-weight ranges when the population
/// covers the whole space (calibrated worlds do: their `+all`-shaped
/// records authorize every address, which is exactly the cohort the
/// control column is meant to isolate). Deterministic in
/// `(weighted, providers, top_k, controls, seed)`.
///
/// A provider address that happens to coincide with a top-coverage
/// address is kept in both rows (each row reports its own family);
/// control selection rejects already-selected addresses.
pub fn select_vantages(
    weighted: &WeightedRanges,
    providers: &[ProviderVantage],
    top_k: usize,
    controls: usize,
    seed: u64,
) -> Vec<VantagePoint> {
    let mut vantages = Vec::new();
    for (rank, (ip, domains)) in weighted.top_coverage(top_k).into_iter().enumerate() {
        vantages.push(VantagePoint {
            label: format!("shared#{} ({domains} domains)", rank + 1),
            kind: VantageKind::SharedCoverage,
            ip,
        });
    }
    for provider in providers {
        vantages.push(VantagePoint {
            label: format!("{}-web", provider.label),
            kind: VantageKind::ProviderWeb,
            ip: provider.web,
        });
        vantages.push(VantagePoint {
            label: format!("{}-mta", provider.label),
            kind: VantageKind::ProviderMta,
            ip: provider.mta,
        });
    }
    let mut state = seed ^ 0x5bf1_2023_0000_0001;
    let mut found = 0usize;
    // Bounded rejection sampling for zero-coverage addresses (when the
    // covered space doesn't swallow the sampler, this converges almost
    // immediately).
    for _ in 0..controls.saturating_mul(512) {
        if found == controls {
            break;
        }
        let candidate = Ipv4Addr::from(splitmix64(&mut state) as u32);
        if weighted.weight_at(candidate) > 0 || vantages.iter().any(|v| v.ip == candidate) {
            continue;
        }
        found += 1;
        vantages.push(VantagePoint {
            label: format!("control#{found}"),
            kind: VantageKind::Control,
            ip: candidate,
        });
    }
    if found < controls {
        // Fully-covered space: take the lowest-weight ranges'
        // representative addresses instead (weight ascending, address
        // ascending — deterministic like top_coverage).
        let mut ranked: Vec<(Ipv4Addr, u64)> = weighted
            .iter()
            .map(|r| (Ipv4Addr::from(r.lo), r.weight))
            .collect();
        ranked.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (ip, weight) in ranked {
            if found == controls {
                break;
            }
            if vantages.iter().any(|v| v.ip == ip) {
                continue;
            }
            found += 1;
            vantages.push(VantagePoint {
                label: format!("control#{found} (floor {weight} domains)"),
                kind: VantageKind::Control,
                ip,
            });
        }
    }
    vantages
}

/// The verdict-cache key: domain × vantage × remaining budget (see
/// [`spf_core::BudgetKey`] for why the budget is part of it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct VerdictKey {
    domain: DomainName,
    ip: IpAddr,
    budget: BudgetKey,
}

impl CacheKey for VerdictKey {
    fn shard_hash(&self) -> u64 {
        // The canonical deterministic mixer: DomainName's component
        // feeds its precomputed FNV through write_u64, the ip/budget
        // words follow through the same hasher — one mixing
        // implementation for map and stripe placement alike.
        let mut hasher = spf_types::DomainHasher::default();
        std::hash::Hash::hash(self, &mut hasher);
        std::hash::Hasher::finish(&hasher)
    }
}

/// The engine's lock-striped subtree-verdict memo: the analyzer's
/// [`ShardedCache`] under a `(domain, ip, budget)` key, implementing
/// [`spf_core::VerdictCache`] so `check_host_cached` can share provider
/// subtrees across every customer that includes them — and, for the
/// compiled backend, the [`SubtreeMemo`] that shares the same subtrees'
/// compiled tables.
///
/// Neither half is ever invalidated: a cache is sound for one frozen
/// zone and one [`EvalPolicy`]. The engines make one per
/// `auth_matrix`/`spoof_matrix` call and one per `ChurnEngine` step,
/// and drop it before the zone moves.
pub struct SpoofVerdictCache {
    inner: ShardedCache<Arc<SubtreeVerdict>, VerdictKey>,
    subtrees: SubtreeMemo,
}

impl SpoofVerdictCache {
    /// A cache with `shards` stripes (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        SpoofVerdictCache {
            inner: ShardedCache::new(shards),
            subtrees: SubtreeMemo::new(),
        }
    }

    /// A cache with the analyzer's default stripe count.
    pub fn with_default_shards() -> Self {
        Self::new(DEFAULT_CACHE_SHARDS)
    }

    /// Hit/miss/entry counters summed over all stripes.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// The compiled-subtree memo's counters (all zero unless the
    /// compiled backend ran through this cache).
    pub fn subtree_stats(&self) -> SubtreeMemoStats {
        self.subtrees.stats()
    }

    /// Memoized subtree verdicts currently resident.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

impl VerdictCache for SpoofVerdictCache {
    fn get(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
    ) -> Option<Arc<SubtreeVerdict>> {
        self.inner.get(&VerdictKey {
            domain: domain.clone(),
            ip,
            budget,
        })
    }

    fn put(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
        verdict: Arc<SubtreeVerdict>,
    ) {
        self.inner.insert_if_absent(
            &VerdictKey {
                domain: domain.clone(),
                ip,
                budget,
            },
            verdict,
        );
    }
}

/// Matrix-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpoofMatrixConfig {
    /// Worker threads evaluating `(domain, vantage)` cells.
    pub workers: usize,
    /// Domains per dispatch batch (clamped to ≥ 1).
    pub batch_size: usize,
    /// Whether the shared subtree-verdict cache is consulted.
    pub use_cache: bool,
    /// Verdict-cache stripe count (ignored when `use_cache` is false).
    pub cache_shards: usize,
    /// Whether each domain's tree is compiled to an interval matcher
    /// first, answering vantages from the tables and falling back to the
    /// (cached) evaluator only for residual regions. The matrix stays
    /// byte-identical — compiled verdicts equal `check_host`'s.
    #[serde(default)]
    pub use_compiled: bool,
    /// The `check_host()` limits and accounting mode to evaluate under.
    pub policy: EvalPolicy,
}

impl Default for SpoofMatrixConfig {
    fn default() -> Self {
        SpoofMatrixConfig {
            workers: 8,
            batch_size: DEFAULT_BATCH_SIZE,
            use_cache: true,
            cache_shards: DEFAULT_CACHE_SHARDS,
            use_compiled: false,
            policy: EvalPolicy::default(),
        }
    }
}

impl SpoofMatrixConfig {
    /// A config with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        SpoofMatrixConfig {
            workers,
            ..SpoofMatrixConfig::default()
        }
    }

    /// Builder-style override of [`SpoofMatrixConfig::batch_size`].
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Builder-style override of [`SpoofMatrixConfig::use_cache`].
    pub fn cached(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Builder-style override of [`SpoofMatrixConfig::cache_shards`].
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Builder-style override of [`SpoofMatrixConfig::use_compiled`].
    pub fn compiled(mut self, use_compiled: bool) -> Self {
        self.use_compiled = use_compiled;
        self
    }
}

/// Per-vantage verdict tallies over the whole population.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantageReport {
    /// The vantage's label.
    pub label: String,
    /// The vantage's family.
    pub kind: VantageKind,
    /// The vantage address.
    pub ip: Ipv4Addr,
    /// Domains whose `check_host()` returned `pass` from here.
    pub pass: u64,
    /// … `fail`.
    pub fail: u64,
    /// … `softfail`.
    pub softfail: u64,
    /// … `neutral`.
    pub neutral: u64,
    /// … `none` (no SPF record; identical across vantages).
    pub none: u64,
    /// … `temperror`.
    pub temperror: u64,
    /// … `permerror`.
    pub permerror: u64,
    /// DNS-querying terms charged across all evaluations from here —
    /// cached replays charge exactly what the fresh walks would.
    pub dns_lookups: u64,
    /// Void lookups observed across all evaluations from here.
    pub void_lookups: u64,
}

impl VantageReport {
    fn new(vantage: &VantagePoint) -> Self {
        VantageReport {
            label: vantage.label.clone(),
            kind: vantage.kind,
            ip: vantage.ip,
            pass: 0,
            fail: 0,
            softfail: 0,
            neutral: 0,
            none: 0,
            temperror: 0,
            permerror: 0,
            dns_lookups: 0,
            void_lookups: 0,
        }
    }

    fn add_cell(&mut self, cell: &RowCell) {
        match cell.result {
            SpfResult::Pass => self.pass += 1,
            SpfResult::Fail => self.fail += 1,
            SpfResult::SoftFail => self.softfail += 1,
            SpfResult::Neutral => self.neutral += 1,
            SpfResult::None => self.none += 1,
            SpfResult::TempError => self.temperror += 1,
            SpfResult::PermError => self.permerror += 1,
        }
        self.dns_lookups += cell.dns_lookups;
        self.void_lookups += cell.void_lookups;
    }

    /// The exact inverse of [`VantageReport::add_cell`]; the caller only
    /// retracts cells it previously folded in, so no counter underflows.
    fn remove_cell(&mut self, cell: &RowCell) {
        match cell.result {
            SpfResult::Pass => self.pass -= 1,
            SpfResult::Fail => self.fail -= 1,
            SpfResult::SoftFail => self.softfail -= 1,
            SpfResult::Neutral => self.neutral -= 1,
            SpfResult::None => self.none -= 1,
            SpfResult::TempError => self.temperror -= 1,
            SpfResult::PermError => self.permerror -= 1,
        }
        self.dns_lookups -= cell.dns_lookups;
        self.void_lookups -= cell.void_lookups;
    }

    fn merge(&mut self, other: &VantageReport) {
        self.pass += other.pass;
        self.fail += other.fail;
        self.softfail += other.softfail;
        self.neutral += other.neutral;
        self.none += other.none;
        self.temperror += other.temperror;
        self.permerror += other.permerror;
        self.dns_lookups += other.dns_lookups;
        self.void_lookups += other.void_lookups;
    }
}

/// The distilled verdict matrix: per-vantage tallies plus the §6
/// population summary. Every field is a commutative sum, so the
/// serialized report is byte-identical across engine configurations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpoofMatrix {
    /// Domains evaluated.
    pub domains: u64,
    /// Domains publishing an SPF record (non-`none` verdicts).
    pub spf_domains: u64,
    /// One tally row per vantage, in vantage input order.
    pub vantages: Vec<VantageReport>,
    /// Domains that pass from at least one attacker-reachable vantage
    /// (shared coverage, provider web, provider MTA) — the paper's
    /// spoofable-from-shared-infrastructure population.
    pub spoofable_shared: u64,
    /// Domains that pass from at least one control vantage (essentially
    /// the `+all`-style cohort: the record authorizes everyone).
    pub spoofable_control: u64,
    /// Domains that pass from at least one matrix vantage of any family
    /// — every such address is one the domain owner plausibly does not
    /// (exclusively) control, the paper's lazy-gatekeeper population.
    pub lazy_gatekeepers: u64,
}

impl SpoofMatrix {
    /// Lazy gatekeepers as a fraction of SPF-publishing domains.
    pub fn lazy_gatekeeper_rate(&self) -> f64 {
        if self.spf_domains == 0 {
            0.0
        } else {
            self.lazy_gatekeepers as f64 / self.spf_domains as f64
        }
    }

    /// An all-zero matrix over `domain_count` domains and `vantages` —
    /// the starting point incremental row folding builds from.
    pub fn empty(domain_count: u64, vantages: &[VantagePoint]) -> Self {
        SpoofMatrix {
            domains: domain_count,
            spf_domains: 0,
            vantages: vantages.iter().map(VantageReport::new).collect(),
            spoofable_shared: 0,
            spoofable_control: 0,
            lazy_gatekeepers: 0,
        }
    }

    /// Fold one domain's row into the matrix. Every matrix field is a
    /// commutative sum of per-domain rows, so fold order never matters;
    /// [`SpoofMatrix::fold_out`] is the exact inverse, which is what
    /// lets the churn engine replace a re-published domain's
    /// contribution without recomputing anyone else's. `domains` is the
    /// population size, not a row sum — folding leaves it untouched.
    pub fn fold_in(&mut self, row: &DomainMatrixRow) {
        debug_assert_eq!(row.cells.len(), self.vantages.len());
        self.spf_domains += u64::from(row.has_record);
        self.spoofable_shared += u64::from(row.passes_shared);
        self.spoofable_control += u64::from(row.passes_control);
        self.lazy_gatekeepers += u64::from(row.passes_shared || row.passes_control);
        for (report, cell) in self.vantages.iter_mut().zip(&row.cells) {
            report.add_cell(cell);
        }
    }

    /// Retract one domain's previously folded-in row — the exact
    /// inverse of [`SpoofMatrix::fold_in`].
    pub fn fold_out(&mut self, row: &DomainMatrixRow) {
        debug_assert_eq!(row.cells.len(), self.vantages.len());
        self.spf_domains -= u64::from(row.has_record);
        self.spoofable_shared -= u64::from(row.passes_shared);
        self.spoofable_control -= u64::from(row.passes_control);
        self.lazy_gatekeepers -= u64::from(row.passes_shared || row.passes_control);
        for (report, cell) in self.vantages.iter_mut().zip(&row.cells) {
            report.remove_cell(cell);
        }
    }

    /// Sum another matrix's row-derived counts into this one (worker
    /// merge). `domains` is population metadata, not a row sum — left
    /// untouched.
    fn merge_counts(&mut self, other: &SpoofMatrix) {
        self.spf_domains += other.spf_domains;
        self.spoofable_shared += other.spoofable_shared;
        self.spoofable_control += other.spoofable_control;
        self.lazy_gatekeepers += other.lazy_gatekeepers;
        for (into, from) in self.vantages.iter_mut().zip(&other.vantages) {
            into.merge(from);
        }
    }
}

/// One `(domain, vantage)` cell of a matrix row: the verdict plus the
/// lookup charges the evaluation incurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowCell {
    /// The `check_host()` verdict from this vantage.
    pub result: SpfResult,
    /// DNS-querying terms charged by this evaluation.
    pub dns_lookups: u64,
    /// Void lookups observed by this evaluation.
    pub void_lookups: u64,
}

impl RowCell {
    fn from_eval(eval: &Evaluation) -> Self {
        RowCell {
            result: eval.result,
            dns_lookups: eval.dns_lookups as u64,
            void_lookups: eval.void_lookups as u64,
        }
    }
}

/// One domain's complete row of the verdict matrix: its per-vantage
/// cells plus the derived population-summary facts. A row is a pure
/// function of `(zone, domain, vantages, policy)`; the matrix is the
/// commutative sum of all rows, so retaining rows per domain is exactly
/// what the churn engine needs to fold a re-published domain out and
/// its replacement in (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainMatrixRow {
    /// Per-vantage cells, in vantage input order.
    pub cells: Vec<RowCell>,
    /// Whether any vantage returned a non-`none` verdict (the domain
    /// publishes SPF).
    pub has_record: bool,
    /// Whether any attacker-reachable vantage returned `pass`.
    pub passes_shared: bool,
    /// Whether any control vantage returned `pass`.
    pub passes_control: bool,
}

/// Engine observability counters (worker-scheduling dependent — kept out
/// of [`SpoofMatrix`] so the report stays byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpoofMatrixStats {
    /// `check_host()` evaluations performed (domains × vantages).
    pub evaluations: u64,
    /// Wall-clock seconds the matrix took.
    pub elapsed_secs: f64,
    /// Verdict-cache hits during this run (0 when uncached).
    pub cache_hits: u64,
    /// Verdict-cache misses during this run (0 when uncached).
    pub cache_misses: u64,
    /// Highest dispatched-but-unfinished domain count observed.
    pub peak_queue_depth: usize,
    /// Batches dispatched.
    pub batches: u64,
    /// Population compilability counters when the compiled backend ran
    /// (`None` otherwise). Lives here rather than in [`SpoofMatrix`]: the
    /// matrix must serialize identically across backends.
    #[serde(default)]
    pub compiler: Option<CompilerStats>,
    /// The run's [`SubtreeMemo`] counters when the compiled backend ran
    /// with the cache on (`None` otherwise).
    #[serde(default)]
    pub subtrees: Option<SubtreeMemoStats>,
}

impl SpoofMatrixStats {
    /// Evaluations per second.
    pub fn evals_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.evaluations as f64 / self.elapsed_secs
        }
    }

    /// Verdict-cache hits as a fraction of probes (0.0 uncached).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

/// Per-worker accumulator: vantage tallies plus the population summary
/// counts, merged commutatively on the way out.
struct WorkerTally {
    vantages: Vec<VantageReport>,
    spf_domains: u64,
    spoofable_shared: u64,
    spoofable_control: u64,
    lazy_gatekeepers: u64,
    compiler: CompilerStats,
}

impl WorkerTally {
    fn new(vantages: &[VantagePoint]) -> Self {
        WorkerTally {
            vantages: vantages.iter().map(VantageReport::new).collect(),
            spf_domains: 0,
            spoofable_shared: 0,
            spoofable_control: 0,
            lazy_gatekeepers: 0,
            compiler: CompilerStats::default(),
        }
    }
}

/// Evaluate the full verdict matrix for `domains` × `vantages` over
/// `resolver`, through a bounded batched worker pool (the crawl engine's
/// dispatch shape). Returns the deterministic [`SpoofMatrix`] and the
/// run's scheduling-dependent [`SpoofMatrixStats`].
///
/// Deprecated: [`auth_matrix`] runs the same SPF engine (its embedded
/// `.spf` report is byte-identical to this one) and layers DMARC /
/// MTA-STS stop attribution on top. The body is intentionally *not* a
/// delegating shim so v2-vs-v1 comparisons stay a genuine differential
/// test.
#[deprecated(note = "use `auth_matrix`; its `.spf` component is byte-identical to this report")]
pub fn spoof_matrix<R: Resolver>(
    resolver: &R,
    domains: &[DomainName],
    vantages: &[VantagePoint],
    config: SpoofMatrixConfig,
) -> (SpoofMatrix, SpoofMatrixStats) {
    let started = Instant::now();
    let workers = config.workers.max(1);
    let batch_size = config.batch_size.max(1);
    let cache = config
        .use_cache
        .then(|| SpoofVerdictCache::new(config.cache_shards));

    let queue_depth = AtomicUsize::new(0);
    let peak_depth = AtomicUsize::new(0);
    let batches = AtomicUsize::new(0);

    let mut merged = WorkerTally::new(vantages);
    {
        let (work_tx, work_rx) = channel::bounded::<Vec<DomainName>>(workers * 2);
        let (tally_tx, tally_rx) = channel::unbounded::<WorkerTally>();
        let queue_depth = &queue_depth;
        let peak_depth = &peak_depth;
        let batches = &batches;
        let cache = cache.as_ref();
        let policy = &config.policy;
        let use_compiled = config.use_compiled;

        std::thread::scope(|scope| {
            scope.spawn(move || {
                for chunk in domains.chunks(batch_size) {
                    let batch: Vec<DomainName> = chunk.to_vec();
                    let depth = queue_depth.fetch_add(batch.len(), Ordering::Relaxed) + batch.len();
                    peak_depth.fetch_max(depth, Ordering::Relaxed);
                    batches.fetch_add(1, Ordering::Relaxed);
                    if work_tx.send(batch).is_err() {
                        return;
                    }
                }
            });
            for _ in 0..workers {
                let work_rx = work_rx.clone();
                let tally_tx = tally_tx.clone();
                scope.spawn(move || {
                    let mut tally = WorkerTally::new(vantages);
                    while let Ok(batch) = work_rx.recv() {
                        for domain in batch {
                            evaluate_domain(
                                resolver,
                                &domain,
                                vantages,
                                policy,
                                cache,
                                use_compiled,
                                &mut tally,
                            );
                            queue_depth.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    let _ = tally_tx.send(tally);
                });
            }
            drop(work_rx);
            drop(tally_tx);
            for worker in tally_rx.iter() {
                merged.spf_domains += worker.spf_domains;
                merged.spoofable_shared += worker.spoofable_shared;
                merged.spoofable_control += worker.spoofable_control;
                merged.lazy_gatekeepers += worker.lazy_gatekeepers;
                merged.compiler.merge(&worker.compiler);
                for (into, from) in merged.vantages.iter_mut().zip(&worker.vantages) {
                    into.merge(from);
                }
            }
        });
    }

    let elapsed = started.elapsed();
    let cache_stats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let matrix = SpoofMatrix {
        domains: domains.len() as u64,
        spf_domains: merged.spf_domains,
        vantages: merged.vantages,
        spoofable_shared: merged.spoofable_shared,
        spoofable_control: merged.spoofable_control,
        lazy_gatekeepers: merged.lazy_gatekeepers,
    };
    let stats = SpoofMatrixStats {
        evaluations: (domains.len() * vantages.len()) as u64,
        elapsed_secs: elapsed.as_secs_f64(),
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
        peak_queue_depth: peak_depth.load(Ordering::Relaxed),
        batches: batches.load(Ordering::Relaxed) as u64,
        compiler: config.use_compiled.then_some(merged.compiler),
        subtrees: subtree_stats(&config, cache.as_ref()),
    };
    (matrix, stats)
}

/// The compiled backend's memo counters for a run's stats.
fn subtree_stats(
    config: &SpoofMatrixConfig,
    cache: Option<&SpoofVerdictCache>,
) -> Option<SubtreeMemoStats> {
    cache
        .filter(|_| config.use_compiled)
        .map(SpoofVerdictCache::subtree_stats)
}

/// Evaluate one domain's complete [`DomainMatrixRow`] from every
/// vantage. With the compiled backend, the tree is compiled once —
/// through `cache`'s [`SubtreeMemo`] when there is one, so a provider
/// subtree is compiled once per cache rather than once per customer —
/// and every vantage answers from the interval tables; residual regions
/// fall back to the same (cached) evaluator path, so the row is
/// byte-identical either way. This is both the batch engine's inner
/// loop and the churn engine's per-delta re-evaluation primitive.
pub fn evaluate_matrix_row<R: Resolver>(
    resolver: &R,
    domain: &DomainName,
    vantages: &[VantagePoint],
    policy: &EvalPolicy,
    cache: Option<&SpoofVerdictCache>,
    use_compiled: bool,
    compiler: &mut CompilerStats,
) -> DomainMatrixRow {
    let compiled = use_compiled.then(|| {
        let config = CompileConfig::with_policy(*policy);
        let compiled = match cache {
            Some(cache) => compile_policy_shared(resolver, domain, &config, &cache.subtrees),
            None => compile_policy(resolver, domain, &config),
        };
        compiler.record(&compiled);
        compiled
    });
    let mut row = DomainMatrixRow {
        cells: Vec::with_capacity(vantages.len()),
        has_record: false,
        passes_shared: false,
        passes_control: false,
    };
    for vantage in vantages {
        let fast = compiled
            .as_ref()
            .and_then(|c| c.verdict_ref(IpAddr::V4(vantage.ip)));
        if compiled.is_some() {
            if fast.is_some() {
                compiler.compiled_verdicts += 1;
            } else {
                compiler.fallback_verdicts += 1;
            }
        }
        let cell = match fast {
            Some(eval) => RowCell::from_eval(eval),
            None => {
                let ctx = EvalContext::mail_from(
                    IpAddr::V4(vantage.ip),
                    SPOOF_SENDER_LOCAL,
                    domain.clone(),
                );
                RowCell::from_eval(&match cache {
                    Some(cache) => check_host_cached(resolver, &ctx, domain, policy, cache),
                    None => check_host(resolver, &ctx, domain, policy),
                })
            }
        };
        if cell.result != SpfResult::None {
            row.has_record = true;
        }
        if cell.result == SpfResult::Pass {
            if vantage.kind.attacker_reachable() {
                row.passes_shared = true;
            } else {
                row.passes_control = true;
            }
        }
        row.cells.push(cell);
    }
    row
}

/// One domain's row of the matrix: evaluate it from every vantage and
/// fold the results into `tally`.
fn evaluate_domain<R: Resolver>(
    resolver: &R,
    domain: &DomainName,
    vantages: &[VantagePoint],
    policy: &EvalPolicy,
    cache: Option<&SpoofVerdictCache>,
    use_compiled: bool,
    tally: &mut WorkerTally,
) {
    let row = evaluate_matrix_row(
        resolver,
        domain,
        vantages,
        policy,
        cache,
        use_compiled,
        &mut tally.compiler,
    );
    tally.spf_domains += u64::from(row.has_record);
    tally.spoofable_shared += u64::from(row.passes_shared);
    tally.spoofable_control += u64::from(row.passes_control);
    tally.lazy_gatekeepers += u64::from(row.passes_shared || row.passes_control);
    for (report, cell) in tally.vantages.iter_mut().zip(&row.cells) {
        report.add_cell(cell);
    }
}

// ---------------------------------------------------------------------------
// Matrix v2: the layered auth stack (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// One domain's layered row: the *unchanged* v1 SPF row (the
/// byte-identity rail) plus the domain-level DMARC / MTA-STS facts,
/// the [`DeploymentMix`] tier they classify into, and the per-vantage
/// [`StopLayer`] each cell's SPF verdict composes to. Like
/// [`DomainMatrixRow`], a row is a pure function of
/// `(zone, domain, vantages, policy)` and the matrix is the commutative
/// sum of rows, so the churn engine folds layered rows in and out the
/// same way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthMatrixRow {
    /// The SPF sub-row, byte-identical to [`evaluate_matrix_row`]'s.
    pub spf: DomainMatrixRow,
    /// The domain's DMARC layer (org-domain fallback included).
    pub dmarc: DmarcDisposition,
    /// The domain's MTA-STS layer.
    pub mta_sts: MtaStsMode,
    /// The deployment tier the observed layers classify into.
    pub tier: DeploymentMix,
    /// Which layer stops each vantage's attempt, in vantage input order.
    pub stops: Vec<StopLayer>,
}

impl AuthMatrixRow {
    /// Whether any attacker-reachable vantage reaches [`StopLayer::None`]
    /// — the domain belongs to the residual spoofable set.
    pub fn residual_spoofable(&self, vantages: &[VantageReport]) -> bool {
        self.stops
            .iter()
            .zip(vantages)
            .any(|(stop, v)| v.kind.attacker_reachable() && *stop == StopLayer::None)
    }
}

/// Per-[`DeploymentMix`] tier bucket: how many domains landed in the
/// tier and which layer stopped their attacker-reachable pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierReport {
    /// The tier.
    pub tier: DeploymentMix,
    /// Domains classified into this tier.
    pub domains: u64,
    /// Per-layer stop histogram over this tier's attacker-reachable
    /// `(vantage, domain)` pairs.
    pub stops: StopCounts,
    /// Domains in this tier with at least one attacker-reachable pair
    /// no layer stops.
    pub residual_spoofable: u64,
}

impl TierReport {
    fn new(tier: DeploymentMix) -> Self {
        TierReport {
            tier,
            domains: 0,
            stops: StopCounts::default(),
            residual_spoofable: 0,
        }
    }

    /// Stopped-by-`layer` pairs as a fraction of the tier's
    /// attacker-reachable pairs.
    pub fn stop_rate(&self, layer: StopLayer) -> f64 {
        let total = self.stops.total();
        if total == 0 {
            0.0
        } else {
            self.stops.get(layer) as f64 / total as f64
        }
    }
}

fn tier_index(tier: DeploymentMix) -> usize {
    DeploymentMix::ALL
        .iter()
        .position(|t| *t == tier)
        .expect("tier in ALL")
}

/// The layered spoof matrix (v2). Embeds the v1 [`SpoofMatrix`] —
/// serialized byte-identically to what the deprecated [`spoof_matrix`]
/// engine reports for the same inputs — and layers per-vantage /
/// per-tier stop histograms plus the residual spoofable set on top.
/// Every field is a commutative sum of [`AuthMatrixRow`]s, preserving
/// the determinism contract across workers, batches, shards, caches,
/// and resolver substrates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthMatrix {
    /// The SPF sub-matrix (the v1 report, byte-identical).
    pub spf: SpoofMatrix,
    /// Per-vantage stop histograms over all domains, in vantage input
    /// order (parallel to `spf.vantages`).
    pub vantage_stops: Vec<StopCounts>,
    /// Per-deployment-tier buckets, in [`DeploymentMix::ALL`] order —
    /// every preset is present even at zero domains.
    pub tiers: Vec<TierReport>,
    /// Domains with at least one attacker-reachable pair no layer stops.
    pub residual_spoofable: u64,
    /// Domains publishing a *usable* DMARC record (monitor or enforced).
    pub dmarc_domains: u64,
    /// Domains whose DMARC is enforced (`quarantine`/`reject`, `pct>0`).
    pub dmarc_enforced_domains: u64,
    /// Domains publishing an enforce-mode MTA-STS policy.
    pub mta_sts_enforced_domains: u64,
}

impl AuthMatrix {
    /// An all-zero layered matrix over `domain_count` domains and
    /// `vantages` — the starting point incremental row folding builds
    /// from.
    pub fn empty(domain_count: u64, vantages: &[VantagePoint]) -> Self {
        AuthMatrix {
            spf: SpoofMatrix::empty(domain_count, vantages),
            vantage_stops: vec![StopCounts::default(); vantages.len()],
            tiers: DeploymentMix::ALL
                .iter()
                .copied()
                .map(TierReport::new)
                .collect(),
            residual_spoofable: 0,
            dmarc_domains: 0,
            dmarc_enforced_domains: 0,
            mta_sts_enforced_domains: 0,
        }
    }

    /// The bucket for one tier.
    pub fn tier(&self, tier: DeploymentMix) -> &TierReport {
        &self.tiers[tier_index(tier)]
    }

    /// Residual spoofable domains as a fraction of the population.
    pub fn residual_rate(&self) -> f64 {
        if self.spf.domains == 0 {
            0.0
        } else {
            self.residual_spoofable as f64 / self.spf.domains as f64
        }
    }

    fn layer_facts(row: &AuthMatrixRow) -> (u64, u64, u64) {
        let usable = matches!(
            row.dmarc,
            DmarcDisposition::Monitor | DmarcDisposition::Enforced { .. }
        );
        (
            u64::from(usable),
            u64::from(row.dmarc.is_enforced()),
            u64::from(row.mta_sts == MtaStsMode::Enforce),
        )
    }

    /// Fold one domain's layered row in. Commutative like
    /// [`SpoofMatrix::fold_in`]; [`AuthMatrix::fold_out`] is the exact
    /// inverse.
    pub fn fold_in(&mut self, row: &AuthMatrixRow) {
        debug_assert_eq!(row.stops.len(), self.vantage_stops.len());
        self.spf.fold_in(&row.spf);
        for (counts, stop) in self.vantage_stops.iter_mut().zip(&row.stops) {
            counts.add(*stop);
        }
        let tier = &mut self.tiers[tier_index(row.tier)];
        tier.domains += 1;
        let mut residual = false;
        for (stop, vantage) in row.stops.iter().zip(&self.spf.vantages) {
            if vantage.kind.attacker_reachable() {
                tier.stops.add(*stop);
                residual |= *stop == StopLayer::None;
            }
        }
        tier.residual_spoofable += u64::from(residual);
        self.residual_spoofable += u64::from(residual);
        let (usable, enforced, sts) = Self::layer_facts(row);
        self.dmarc_domains += usable;
        self.dmarc_enforced_domains += enforced;
        self.mta_sts_enforced_domains += sts;
    }

    /// Retract one previously folded-in layered row — the exact inverse
    /// of [`AuthMatrix::fold_in`].
    pub fn fold_out(&mut self, row: &AuthMatrixRow) {
        debug_assert_eq!(row.stops.len(), self.vantage_stops.len());
        self.spf.fold_out(&row.spf);
        for (counts, stop) in self.vantage_stops.iter_mut().zip(&row.stops) {
            counts.remove(*stop);
        }
        let tier = &mut self.tiers[tier_index(row.tier)];
        tier.domains -= 1;
        let mut residual = false;
        for (stop, vantage) in row.stops.iter().zip(&self.spf.vantages) {
            if vantage.kind.attacker_reachable() {
                tier.stops.remove(*stop);
                residual |= *stop == StopLayer::None;
            }
        }
        tier.residual_spoofable -= u64::from(residual);
        self.residual_spoofable -= u64::from(residual);
        let (usable, enforced, sts) = Self::layer_facts(row);
        self.dmarc_domains -= usable;
        self.dmarc_enforced_domains -= enforced;
        self.mta_sts_enforced_domains -= sts;
    }

    /// Sum another layered matrix's row-derived counts in (worker
    /// merge).
    fn merge_counts(&mut self, other: &AuthMatrix) {
        self.spf.merge_counts(&other.spf);
        for (into, from) in self.vantage_stops.iter_mut().zip(&other.vantage_stops) {
            into.merge(from);
        }
        for (into, from) in self.tiers.iter_mut().zip(&other.tiers) {
            into.domains += from.domains;
            into.stops.merge(&from.stops);
            into.residual_spoofable += from.residual_spoofable;
        }
        self.residual_spoofable += other.residual_spoofable;
        self.dmarc_domains += other.dmarc_domains;
        self.dmarc_enforced_domains += other.dmarc_enforced_domains;
        self.mta_sts_enforced_domains += other.mta_sts_enforced_domains;
    }
}

/// v2 engine observability: the v1 scheduling stats plus the DMARC /
/// MTA-STS lookup-cache counters. Worker-scheduling dependent — kept
/// out of [`AuthMatrix`] so the report stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuthMatrixStats {
    /// The SPF engine's scheduling stats.
    pub engine: SpoofMatrixStats,
    /// DMARC / MTA-STS lookup-cache counters.
    pub auth_cache: AuthCacheStats,
}

/// Evaluate one domain's complete [`AuthMatrixRow`]: the SPF sub-row
/// through the *identical* [`evaluate_matrix_row`] primitive (the
/// byte-identity rail), then the domain's DMARC disposition and
/// MTA-STS mode — through `auth_cache` when given, straight to the
/// resolver otherwise — composed into per-vantage stop layers.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_auth_row<R: Resolver>(
    resolver: &R,
    domain: &DomainName,
    vantages: &[VantagePoint],
    policy: &EvalPolicy,
    cache: Option<&SpoofVerdictCache>,
    use_compiled: bool,
    compiler: &mut CompilerStats,
    auth_cache: Option<&AuthCache>,
) -> AuthMatrixRow {
    let spf = evaluate_matrix_row(
        resolver,
        domain,
        vantages,
        policy,
        cache,
        use_compiled,
        compiler,
    );
    let (dmarc, mta_sts) = match auth_cache {
        Some(cache) => (
            cache.dmarc(resolver, domain),
            cache.mta_sts(resolver, domain),
        ),
        None => (
            DmarcDisposition::from_lookup(&spf_core::query_dmarc(resolver, domain)),
            query_mta_sts(resolver, domain),
        ),
    };
    let tier = DeploymentMix::classify(spf.has_record, &dmarc, mta_sts);
    let stops = spf
        .cells
        .iter()
        .map(|cell| stop_layer(cell.result, &dmarc, mta_sts))
        .collect();
    AuthMatrixRow {
        spf,
        dmarc,
        mta_sts,
        tier,
        stops,
    }
}

/// Per-worker v2 accumulator: a zero-`domains` [`AuthMatrix`] rows fold
/// into, merged commutatively on the way out.
struct AuthWorkerTally {
    matrix: AuthMatrix,
    compiler: CompilerStats,
}

/// Evaluate the layered verdict matrix for `domains` × `vantages` over
/// `resolver` — the matrix-v2 engine. Same bounded batched worker-pool
/// dispatch as the deprecated v1 [`spoof_matrix`]; the SPF sub-matrix
/// it embeds serializes byte-identically to the v1 report, and the
/// DMARC / MTA-STS layers ride a shared [`AuthCache`] whose hit rate
/// lands in [`AuthMatrixStats`].
pub fn auth_matrix<R: Resolver>(
    resolver: &R,
    domains: &[DomainName],
    vantages: &[VantagePoint],
    config: SpoofMatrixConfig,
) -> (AuthMatrix, AuthMatrixStats) {
    auth_matrix_with_cache(resolver, domains, vantages, config, &AuthCache::new())
}

/// [`auth_matrix`] with a caller-owned [`AuthCache`]: reusing the cache
/// across runs (epoch re-crawls, repeated benches) is what makes the
/// DMARC / MTA-STS hit rate non-trivial — within one cold run each
/// domain is looked up exactly once. The returned
/// [`AuthMatrixStats::auth_cache`] snapshot is the cache's *cumulative*
/// counters.
pub fn auth_matrix_with_cache<R: Resolver>(
    resolver: &R,
    domains: &[DomainName],
    vantages: &[VantagePoint],
    config: SpoofMatrixConfig,
    auth_cache: &AuthCache,
) -> (AuthMatrix, AuthMatrixStats) {
    let started = Instant::now();
    let workers = config.workers.max(1);
    let batch_size = config.batch_size.max(1);
    let cache = config
        .use_cache
        .then(|| SpoofVerdictCache::new(config.cache_shards));

    let queue_depth = AtomicUsize::new(0);
    let peak_depth = AtomicUsize::new(0);
    let batches = AtomicUsize::new(0);

    let mut merged = AuthWorkerTally {
        matrix: AuthMatrix::empty(0, vantages),
        compiler: CompilerStats::default(),
    };
    {
        let (work_tx, work_rx) = channel::bounded::<Vec<DomainName>>(workers * 2);
        let (tally_tx, tally_rx) = channel::unbounded::<AuthWorkerTally>();
        let queue_depth = &queue_depth;
        let peak_depth = &peak_depth;
        let batches = &batches;
        let cache = cache.as_ref();
        let policy = &config.policy;
        let use_compiled = config.use_compiled;

        std::thread::scope(|scope| {
            scope.spawn(move || {
                for chunk in domains.chunks(batch_size) {
                    let batch: Vec<DomainName> = chunk.to_vec();
                    let depth = queue_depth.fetch_add(batch.len(), Ordering::Relaxed) + batch.len();
                    peak_depth.fetch_max(depth, Ordering::Relaxed);
                    batches.fetch_add(1, Ordering::Relaxed);
                    if work_tx.send(batch).is_err() {
                        return;
                    }
                }
            });
            for _ in 0..workers {
                let work_rx = work_rx.clone();
                let tally_tx = tally_tx.clone();
                scope.spawn(move || {
                    let mut tally = AuthWorkerTally {
                        matrix: AuthMatrix::empty(0, vantages),
                        compiler: CompilerStats::default(),
                    };
                    while let Ok(batch) = work_rx.recv() {
                        for domain in batch {
                            let row = evaluate_auth_row(
                                resolver,
                                &domain,
                                vantages,
                                policy,
                                cache,
                                use_compiled,
                                &mut tally.compiler,
                                Some(auth_cache),
                            );
                            tally.matrix.fold_in(&row);
                            queue_depth.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    let _ = tally_tx.send(tally);
                });
            }
            drop(work_rx);
            drop(tally_tx);
            for worker in tally_rx.iter() {
                merged.matrix.merge_counts(&worker.matrix);
                merged.compiler.merge(&worker.compiler);
            }
        });
    }

    let elapsed = started.elapsed();
    let cache_stats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let mut matrix = merged.matrix;
    matrix.spf.domains = domains.len() as u64;
    let stats = AuthMatrixStats {
        engine: SpoofMatrixStats {
            evaluations: (domains.len() * vantages.len()) as u64,
            elapsed_secs: elapsed.as_secs_f64(),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            peak_queue_depth: peak_depth.load(Ordering::Relaxed),
            batches: batches.load(Ordering::Relaxed) as u64,
            compiler: config.use_compiled.then_some(merged.compiler),
            subtrees: subtree_stats(&config, cache.as_ref()),
        },
        auth_cache: auth_cache.stats(),
    };
    (matrix, stats)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_types::CoverageMap;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    /// Three cohorts: shared-provider customers, an open `+all` domain,
    /// and a tight direct-range domain.
    fn build_world() -> (Arc<ZoneStore>, Vec<DomainName>, WeightedRanges) {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("spf.cloud.example"), "v=spf1 ip4:198.51.100.0/24 -all");
        let mut domains = Vec::new();
        for i in 0..6 {
            let d = dom(&format!("c{i}.example"));
            store.add_txt(&d, "v=spf1 include:spf.cloud.example -all");
            domains.push(d);
        }
        let open = dom("open.example");
        store.add_txt(&open, "v=spf1 +all");
        domains.push(open);
        let tight = dom("tight.example");
        store.add_txt(&tight, "v=spf1 ip4:203.0.113.7 -all");
        domains.push(tight);
        domains.push(dom("norecord.example")); // no SPF at all
        let mut coverage = CoverageMap::new();
        let mut cloud = spf_types::Ipv4Set::new();
        cloud.insert_cidr(&spf_types::Ipv4Cidr::parse("198.51.100.0/24").unwrap());
        for _ in 0..6 {
            coverage.add_set(&cloud);
        }
        let mut own = spf_types::Ipv4Set::new();
        own.insert_addr("203.0.113.7".parse().unwrap());
        coverage.add_set(&own);
        (store, domains, coverage.into_weighted())
    }

    fn vantage_set(weighted: &WeightedRanges, top_k: usize) -> Vec<VantagePoint> {
        let providers = [ProviderVantage {
            label: "hosting1".into(),
            web: "12.0.0.1".parse().unwrap(),
            mta: "12.0.0.2".parse().unwrap(),
        }];
        select_vantages(weighted, &providers, top_k, 2, 0xfeed)
    }

    #[test]
    fn vantage_selection_is_deterministic_and_layered() {
        let (_, _, weighted) = build_world();
        let a = vantage_set(&weighted, 2);
        let b = vantage_set(&weighted, 2);
        assert_eq!(a, b);
        // 2 shared + 2 provider + 2 controls.
        assert_eq!(a.len(), 6);
        assert_eq!(a[0].kind, VantageKind::SharedCoverage);
        assert_eq!(a[0].ip, "198.51.100.0".parse::<Ipv4Addr>().unwrap());
        // The second shared vantage is the weight-1 direct range.
        assert_eq!(a[1].ip, "203.0.113.7".parse::<Ipv4Addr>().unwrap());
        assert!(a.iter().filter(|v| v.kind == VantageKind::Control).count() == 2);
        // Controls are genuinely uncovered.
        for v in a.iter().filter(|v| v.kind == VantageKind::Control) {
            assert_eq!(weighted.weight_at(v.ip), 0);
        }
    }

    #[test]
    fn control_selection_falls_back_on_fully_covered_space() {
        // One +all-style domain covers everything, one /24 stacks on
        // top: no zero-coverage address exists, so controls come from
        // the lowest-weight ranges instead.
        let mut coverage = CoverageMap::new();
        coverage.add_set(&spf_types::Ipv4Set::full());
        let mut hot = spf_types::Ipv4Set::new();
        hot.insert_cidr(&spf_types::Ipv4Cidr::parse("198.51.100.0/24").unwrap());
        coverage.add_set(&hot);
        let weighted = coverage.into_weighted();
        let a = select_vantages(&weighted, &[], 1, 2, 0xfeed);
        let b = select_vantages(&weighted, &[], 1, 2, 0xfeed);
        assert_eq!(a, b);
        let controls: Vec<&VantagePoint> = a
            .iter()
            .filter(|v| v.kind == VantageKind::Control)
            .collect();
        assert_eq!(controls.len(), 2);
        for v in &controls {
            assert!(v.label.contains("floor 1"), "{}", v.label);
            assert_eq!(weighted.weight_at(v.ip), 1);
        }
    }

    #[test]
    fn matrix_counts_the_three_cohorts() {
        let (store, domains, weighted) = build_world();
        let resolver = ZoneResolver::new(store);
        let vantages = vantage_set(&weighted, 1);
        let (matrix, stats) = spoof_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(4),
        );
        assert_eq!(matrix.domains, 9);
        assert_eq!(matrix.spf_domains, 8);
        // The top shared vantage (inside the cloud /24) passes the six
        // customers plus the +all domain.
        assert_eq!(matrix.vantages[0].pass, 7);
        assert_eq!(matrix.vantages[0].none, 1);
        // Every attacker-reachable pass: 6 customers + open.example
        // (tight.example's own /32 is not in this vantage set).
        assert_eq!(matrix.spoofable_shared, 7);
        // Controls only pass the +all record.
        assert_eq!(matrix.spoofable_control, 1);
        assert_eq!(matrix.lazy_gatekeepers, 7);
        assert!((matrix.lazy_gatekeeper_rate() - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(stats.evaluations, 9 * 5);
        assert!(stats.cache_hits + stats.cache_misses > 0);
    }

    #[test]
    fn cached_and_uncached_matrices_serialize_identically() {
        let (store, domains, weighted) = build_world();
        let vantages = vantage_set(&weighted, 2);
        let run = |config: SpoofMatrixConfig| {
            let resolver = ZoneResolver::new(Arc::clone(&store));
            let (matrix, _) = spoof_matrix(&resolver, &domains, &vantages, config);
            serde_json::to_string(&matrix).unwrap()
        };
        let reference = run(SpoofMatrixConfig::with_workers(1).cached(false));
        for workers in [1usize, 4] {
            for shards in [1usize, 16] {
                assert_eq!(
                    reference,
                    run(SpoofMatrixConfig::with_workers(workers).cache_shards(shards)),
                    "diverged at workers={workers} shards={shards}"
                );
            }
        }
        assert_eq!(
            reference,
            run(SpoofMatrixConfig::with_workers(4).batch_size(1))
        );
        // The compiled backend is the third way to the same bytes.
        for workers in [1usize, 4] {
            assert_eq!(
                reference,
                run(SpoofMatrixConfig::with_workers(workers).compiled(true)),
                "compiled backend diverged at workers={workers}"
            );
        }
        assert_eq!(
            reference,
            run(SpoofMatrixConfig::with_workers(4)
                .compiled(true)
                .cached(false))
        );
    }

    #[test]
    fn compiled_backend_reports_compiler_stats() {
        let (store, domains, weighted) = build_world();
        let resolver = ZoneResolver::new(store);
        let vantages = vantage_set(&weighted, 1);
        let (_, stats) = spoof_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(2).compiled(true),
        );
        let compiler = stats.compiler.expect("compiled backend ran");
        assert_eq!(compiler.domains_compiled, domains.len() as u64);
        // build_world is all-static: everything compiles fully and every
        // verdict answers from the tables.
        assert_eq!(compiler.full, compiler.domains_compiled);
        assert_eq!(
            compiler.compiled_verdicts,
            (domains.len() * vantages.len()) as u64
        );
        assert_eq!(compiler.fallback_verdicts, 0);
        assert!((compiler.compiled_hit_rate() - 1.0).abs() < 1e-12);

        // The uncompiled backends report no compiler stats.
        let (_, plain) = spoof_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(2),
        );
        assert!(plain.compiler.is_none());
    }

    #[test]
    fn verdict_cache_dedupes_shared_subtrees() {
        let (store, domains, weighted) = build_world();
        let resolver = ZoneResolver::new(store);
        let vantages = vantage_set(&weighted, 2);
        let (_, stats) = spoof_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(1),
        );
        // Six customers share one provider subtree per vantage: at least
        // five of the six probes per vantage hit the memo.
        assert!(
            stats.cache_hits >= 5 * vantages.len() as u64,
            "hits = {}",
            stats.cache_hits
        );
    }

    #[test]
    fn folded_rows_reproduce_batch_matrix_and_fold_out_inverts() {
        let (store, domains, weighted) = build_world();
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let vantages = vantage_set(&weighted, 2);
        let (batch, _) = spoof_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(4),
        );
        let mut compiler = CompilerStats::default();
        let rows: Vec<DomainMatrixRow> = domains
            .iter()
            .map(|d| {
                evaluate_matrix_row(
                    &resolver,
                    d,
                    &vantages,
                    &EvalPolicy::default(),
                    None,
                    false,
                    &mut compiler,
                )
            })
            .collect();
        let mut folded = SpoofMatrix::empty(domains.len() as u64, &vantages);
        for row in &rows {
            folded.fold_in(row);
        }
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&folded).unwrap()
        );
        // fold_out is the exact inverse: retract + re-fold any row and
        // the bytes are unchanged.
        let snapshot = serde_json::to_string(&folded).unwrap();
        for row in &rows {
            folded.fold_out(row);
            folded.fold_in(row);
        }
        assert_eq!(snapshot, serde_json::to_string(&folded).unwrap());
        // Retracting every row returns to the all-zero matrix.
        for row in &rows {
            folded.fold_out(row);
        }
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&SpoofMatrix::empty(domains.len() as u64, &vantages)).unwrap()
        );
    }

    #[test]
    fn empty_inputs() {
        let store = Arc::new(ZoneStore::new());
        let resolver = ZoneResolver::new(store);
        let (matrix, stats) = spoof_matrix(&resolver, &[], &[], SpoofMatrixConfig::default());
        assert_eq!(matrix.domains, 0);
        assert_eq!(matrix.spf_domains, 0);
        assert!(matrix.vantages.is_empty());
        assert_eq!(stats.evaluations, 0);
    }

    /// build_world plus a DMARC / MTA-STS layer: two customers enforce
    /// DMARC (one with enforce-mode MTA-STS on top), one monitors, the
    /// tight domain enforces, the rest publish nothing above SPF.
    fn layer_world(store: &ZoneStore) {
        store.add_txt(
            &dom("_dmarc.c0.example"),
            "v=DMARC1; p=reject; rua=mailto:agg@c0.example",
        );
        store.add_txt(
            &dom("_mta-sts.c0.example"),
            "v=STSv1; id=20230801T000000; mode=enforce",
        );
        store.add_txt(&dom("_dmarc.c1.example"), "v=DMARC1; p=quarantine");
        store.add_txt(&dom("_dmarc.c2.example"), "v=DMARC1; p=none");
        store.add_txt(&dom("_dmarc.tight.example"), "v=DMARC1; p=reject");
        // Testing-mode MTA-STS does not close the residual path.
        store.add_txt(
            &dom("_mta-sts.c1.example"),
            "v=STSv1; id=20230801T000000; mode=testing",
        );
    }

    #[test]
    fn auth_matrix_spf_component_is_byte_identical_to_v1() {
        let (store, domains, weighted) = build_world();
        layer_world(&store);
        let vantages = vantage_set(&weighted, 2);
        let v1 = |config: SpoofMatrixConfig| {
            let resolver = ZoneResolver::new(Arc::clone(&store));
            let (matrix, _) = spoof_matrix(&resolver, &domains, &vantages, config);
            serde_json::to_string(&matrix).unwrap()
        };
        let v2 = |config: SpoofMatrixConfig| {
            let resolver = ZoneResolver::new(Arc::clone(&store));
            let (matrix, _) = auth_matrix(&resolver, &domains, &vantages, config);
            serde_json::to_string(&matrix.spf).unwrap()
        };
        let reference = v1(SpoofMatrixConfig::with_workers(1).cached(false));
        for workers in [1usize, 4] {
            for compiled in [false, true] {
                for cached in [false, true] {
                    let config = SpoofMatrixConfig::with_workers(workers)
                        .compiled(compiled)
                        .cached(cached);
                    assert_eq!(
                        reference,
                        v2(config),
                        "v2 SPF sub-matrix diverged at workers={workers} \
                         compiled={compiled} cached={cached}"
                    );
                }
            }
        }
        // And the full v2 report itself is config-independent.
        let full = |config: SpoofMatrixConfig| {
            let resolver = ZoneResolver::new(Arc::clone(&store));
            let (matrix, _) = auth_matrix(&resolver, &domains, &vantages, config);
            serde_json::to_string(&matrix).unwrap()
        };
        let full_ref = full(SpoofMatrixConfig::with_workers(1).cached(false));
        for workers in [1usize, 4] {
            assert_eq!(
                full_ref,
                full(SpoofMatrixConfig::with_workers(workers).compiled(true)),
                "full v2 report diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn auth_matrix_buckets_tiers_and_attributes_stops() {
        let (store, domains, weighted) = build_world();
        layer_world(&store);
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let vantages = vantage_set(&weighted, 1);
        let (matrix, stats) = auth_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(4),
        );
        // Every preset bucket is present, in ALL order, even when empty.
        assert_eq!(matrix.tiers.len(), DeploymentMix::ALL.len());
        for (bucket, tier) in matrix.tiers.iter().zip(DeploymentMix::ALL) {
            assert_eq!(bucket.tier, tier);
        }
        // norecord.example is the only no-auth domain.
        assert_eq!(matrix.tier(DeploymentMix::NoAuth).domains, 1);
        // c3..c5 + open publish SPF only.
        assert_eq!(matrix.tier(DeploymentMix::SpfOnly).domains, 4);
        // c2 monitors.
        assert_eq!(matrix.tier(DeploymentMix::SpfDmarcNone).domains, 1);
        // c1 (quarantine + testing-mode STS) and tight enforce DMARC.
        assert_eq!(matrix.tier(DeploymentMix::SpfDmarcEnforced).domains, 2);
        // c0 runs the full stack.
        assert_eq!(matrix.tier(DeploymentMix::FullStack).domains, 1);
        // Layer adoption counters: c0 + c1 + c2 + tight publish DMARC,
        // of which all but the monitoring c2 enforce.
        assert_eq!(matrix.dmarc_domains, 4);
        assert_eq!(matrix.dmarc_enforced_domains, 3);
        assert_eq!(matrix.mta_sts_enforced_domains, 1);
        // Per-domain sums reconcile with the population.
        let tier_total: u64 = matrix.tiers.iter().map(|t| t.domains).sum();
        assert_eq!(tier_total, matrix.spf.domains);
        // Stop attribution: from the in-cloud shared vantage every
        // customer passes SPF, so DMARC never gets to stop those pairs —
        // the lazy-gatekeeper story — while tight.example's -all is an
        // SPF stop from everywhere in this vantage set.
        let shared_stops = &matrix.vantage_stops[0];
        assert!(shared_stops.none >= 1, "open.example stays spoofable");
        assert!(shared_stops.spf >= 1, "tight.example hard-fails");
        // c0 passes SPF from the shared vantage (StopLayer::None on an
        // attacker-reachable pair) — the full stack does NOT rescue an
        // SPF pass, so it stays residual-spoofable.
        assert!(matrix.tier(DeploymentMix::FullStack).residual_spoofable >= 1);
        assert!(matrix.residual_spoofable >= 2);
        assert_eq!(
            matrix.residual_rate(),
            matrix.residual_spoofable as f64 / 9.0
        );
        // Per-tier stop histograms cover exactly the attacker-reachable
        // pairs of that tier.
        let attacker_vantages = vantages
            .iter()
            .filter(|v| v.kind.attacker_reachable())
            .count() as u64;
        for bucket in &matrix.tiers {
            assert_eq!(bucket.stops.total(), bucket.domains * attacker_vantages);
        }
        // A cold engine cache resolves each domain exactly once.
        assert_eq!(stats.auth_cache.dmarc_misses, 9);
        assert_eq!(stats.auth_cache.dmarc_hits, 0);
        // SPF engine stats are still reported.
        assert_eq!(stats.engine.evaluations, 9 * 5);
    }

    #[test]
    fn warm_auth_cache_shows_hit_rate() {
        let (store, domains, weighted) = build_world();
        layer_world(&store);
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let vantages = vantage_set(&weighted, 1);
        let cache = AuthCache::new();
        let config = SpoofMatrixConfig::with_workers(2);
        let (cold, _) = auth_matrix_with_cache(&resolver, &domains, &vantages, config, &cache);
        let (warm, stats) = auth_matrix_with_cache(&resolver, &domains, &vantages, config, &cache);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        assert_eq!(stats.auth_cache.dmarc_hits, 9);
        assert_eq!(stats.auth_cache.dmarc_misses, 9);
        assert!((stats.auth_cache.dmarc_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auth_rows_fold_identically_to_batch_and_invert() {
        let (store, domains, weighted) = build_world();
        layer_world(&store);
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let vantages = vantage_set(&weighted, 2);
        let (batch, _) = auth_matrix(
            &resolver,
            &domains,
            &vantages,
            SpoofMatrixConfig::with_workers(4),
        );
        let mut compiler = CompilerStats::default();
        let rows: Vec<AuthMatrixRow> = domains
            .iter()
            .map(|d| {
                evaluate_auth_row(
                    &resolver,
                    d,
                    &vantages,
                    &EvalPolicy::default(),
                    None,
                    false,
                    &mut compiler,
                    None,
                )
            })
            .collect();
        let mut folded = AuthMatrix::empty(domains.len() as u64, &vantages);
        for row in &rows {
            folded.fold_in(row);
        }
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&folded).unwrap()
        );
        let snapshot = serde_json::to_string(&folded).unwrap();
        for row in &rows {
            folded.fold_out(row);
            folded.fold_in(row);
        }
        assert_eq!(snapshot, serde_json::to_string(&folded).unwrap());
        for row in &rows {
            folded.fold_out(row);
        }
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&AuthMatrix::empty(domains.len() as u64, &vantages)).unwrap()
        );
    }
}
