//! The longitudinal layer: TTL-driven incremental re-crawl over a
//! churning zone (DESIGN.md §12).
//!
//! The snapshot pipeline answers "what does SPF look like today"; this
//! module turns the corpus into a time series. A [`ChurnEngine`] holds
//! the last full picture of the population — per-domain
//! [`DomainReport`]s, the live [`CoverageMap`], and (optionally) the
//! per-domain spoof-matrix rows — and advances it one epoch at a time:
//!
//! 1. **Deliver.** Zone deltas ([`ZoneDelta`]) arrive at any time, even
//!    while an epoch's crawl is running, and are only *buffered*. Zone
//!    mutation happens exclusively inside the single-threaded
//!    [`ChurnEngine::step`], so a delta landing mid-crawl deterministically
//!    defers to the next epoch — the scheduler quiesces by construction.
//! 2. **Schedule.** Each domain holds one deadline in *virtual* time,
//!    its deterministic per-domain TTL after its last crawl; `step(now)`
//!    takes the domains whose deadline has passed plus every delta'd
//!    domain.
//! 3. **Re-crawl & fold.** Only the due subset goes through the normal
//!    worker pool, for its [`crawl`] and (when a matrix is attached) its
//!    matrix rows; each due domain's old contribution is folded
//!    *out* of the coverage map (and matrix) and its fresh contribution
//!    folded *in*. Because every aggregate is a commutative sum of pure
//!    per-domain facts, the folded state is **byte-identical** to a full
//!    recompute from scratch — not an approximation
//!    (`tests/proptest_churn.rs` and `tests/churn_stress.rs` pin this).
//!
//! The engine does not own the walker: every backend keeps one
//! long-lived walker and relies on [`spf_analyzer::Walker::invalidate`]
//! per churned root (sound under the churn locality contract — see
//! `spf_netsim::churn`). A wire fleet serves the live zone, but its
//! client caches answers for their DNS TTL in real time, so a wire-backed
//! caller clears that cache ([`spf_dns::WireResolver::clear_cache`])
//! after each zone edit.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use spf_analyzer::{DomainReport, Walker};
use spf_core::{CompilerStats, EvalPolicy};
use spf_dns::Resolver;
use spf_types::{CoverageMap, DomainHashBuilder, DomainName, WeightedRanges};

use crate::crawl::{crawl, CrawlConfig, CrawlStats, DEFAULT_BATCH_SIZE};
use crate::pool;
use crate::spoof::{
    evaluate_matrix_row, DomainMatrixRow, SpoofMatrix, SpoofVerdictCache, VantagePoint,
};

/// A batched zone change, delivered to the engine for deterministic
/// application at the next epoch boundary.
///
/// The mutation itself is an opaque closure so the crawler never
/// depends on who generates churn (the `spf_netsim` simulator, a test,
/// a replayed trace): the producer captures its own zone handle and the
/// engine just runs the closure inside `step`, before invalidating and
/// re-crawling `changed`.
pub struct ZoneDelta {
    /// The domains the mutation touches (the invalidation set).
    pub changed: Vec<DomainName>,
    apply: Box<dyn FnOnce() + Send>,
}

impl ZoneDelta {
    /// Package a zone mutation with the set of domains it touches.
    pub fn new(changed: Vec<DomainName>, apply: impl FnOnce() + Send + 'static) -> Self {
        ZoneDelta {
            changed,
            apply: Box::new(apply),
        }
    }
}

impl std::fmt::Debug for ZoneDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZoneDelta")
            .field("changed", &self.changed.len())
            .finish()
    }
}

/// Engine configuration: how to crawl the due subset and how domain
/// TTLs are assigned.
#[derive(Debug, Clone, Copy)]
pub struct LongitudinalConfig {
    /// Worker-pool / backend configuration for each epoch's re-crawl.
    pub crawl: CrawlConfig,
    /// Base virtual TTL every domain gets.
    pub base_ttl: Duration,
    /// Deterministic per-domain jitter added on top of `base_ttl`
    /// (`domain-hash % jitter`), de-phasing expirations the way real
    /// zone TTLs spread a re-crawl.
    pub ttl_jitter: Duration,
}

impl Default for LongitudinalConfig {
    fn default() -> Self {
        LongitudinalConfig {
            crawl: CrawlConfig::default(),
            // Epochs are "months"; the default TTL re-reads a domain
            // roughly every other epoch.
            base_ttl: Duration::from_secs(45 * 86_400),
            ttl_jitter: Duration::from_secs(30 * 86_400),
        }
    }
}

impl LongitudinalConfig {
    /// Builder-style override of [`LongitudinalConfig::crawl`].
    pub fn crawl(mut self, crawl: CrawlConfig) -> Self {
        self.crawl = crawl;
        self
    }

    /// Builder-style override of the TTL assignment.
    pub fn ttl(mut self, base: Duration, jitter: Duration) -> Self {
        self.base_ttl = base;
        self.ttl_jitter = jitter;
        self
    }
}

/// What one [`ChurnEngine::step`] did (epoch 0 is the bootstrap crawl).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// The epoch this step advanced to.
    pub epoch: u64,
    /// The virtual time the step ran at.
    pub virtual_now_secs: u64,
    /// Domains re-crawled because a delivered delta touched them.
    pub delta_domains: u64,
    /// Domains re-crawled because their TTL expired (deduplicated
    /// against the delta set).
    pub expired_domains: u64,
    /// Total domains re-evaluated this epoch.
    pub recrawled: u64,
    /// The incremental crawl's scheduling/throughput counters.
    pub crawl_stats: CrawlStats,
}

/// The per-domain spoof-matrix state the engine folds deltas through.
struct MatrixState {
    vantages: Vec<VantagePoint>,
    config: CrawlConfig,
    rows: Vec<DomainMatrixRow>,
    matrix: SpoofMatrix,
}

struct EngineState {
    /// Each rank's re-crawl deadline in virtual time: the schedule.
    deadline_of: Vec<Duration>,
    reports: Vec<DomainReport>,
    coverage: CoverageMap,
    matrix: Option<MatrixState>,
    last_crawl_stats: CrawlStats,
    epoch: u64,
}

/// The longitudinal churn engine: the corpus as a time series.
///
/// See the module docs for the deliver/step contract. All mutation is
/// serialized through one internal lock; [`ChurnEngine::deliver`] is
/// safe to call from any thread at any time.
pub struct ChurnEngine {
    domains: Vec<DomainName>,
    index: HashMap<DomainName, usize, DomainHashBuilder>,
    config: LongitudinalConfig,
    inbox: Mutex<Vec<ZoneDelta>>,
    state: Mutex<EngineState>,
}

impl ChurnEngine {
    /// Bootstrap the engine with a full crawl of `domains` at virtual
    /// time zero, setting every domain's TTL deadline.
    pub fn bootstrap<R: Resolver>(
        walker: &Walker<R>,
        domains: Vec<DomainName>,
        config: LongitudinalConfig,
    ) -> ChurnEngine {
        let output = crawl(walker, &domains, config.crawl);
        let index: HashMap<DomainName, usize, DomainHashBuilder> = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.clone(), i))
            .collect();
        let deadline_of = domains.iter().map(|d| ttl_of(d, &config)).collect();
        ChurnEngine {
            domains,
            index,
            config,
            inbox: Mutex::new(Vec::new()),
            state: Mutex::new(EngineState {
                deadline_of,
                reports: output.reports,
                coverage: output.coverage,
                matrix: None,
                last_crawl_stats: output.stats,
                epoch: 0,
            }),
        }
    }

    /// Attach spoof-matrix tracking: evaluate every domain's row from
    /// the fixed `vantages` set under `config`'s workers and evaluator
    /// (as [`crate::auth_matrix`] does) and fold them into a live matrix.
    ///
    /// The vantage set is chosen once (normally from the bootstrap
    /// coverage profile) and held constant across epochs — the right
    /// longitudinal methodology (trends are measured from fixed
    /// observation points) and what makes row folding exact.
    pub fn attach_matrix<R: Resolver>(
        &self,
        resolver: &R,
        vantages: Vec<VantagePoint>,
        config: CrawlConfig,
    ) {
        let rows = evaluate_rows(resolver, &self.domains, &vantages, &config);
        let mut matrix = SpoofMatrix::empty(self.domains.len() as u64, &vantages);
        for row in &rows {
            matrix.fold_in(row);
        }
        let mut state = self.state.lock().expect("engine state lock");
        state.matrix = Some(MatrixState {
            vantages,
            config,
            rows,
            matrix,
        });
    }

    /// Buffer a zone delta for the next epoch. Never blocks on a
    /// running step for longer than the inbox push; the zone mutation
    /// itself is deferred into [`ChurnEngine::step`], so delivering
    /// mid-crawl is always safe and lands deterministically in the next
    /// epoch.
    pub fn deliver(&self, delta: ZoneDelta) {
        self.inbox.lock().expect("engine inbox lock").push(delta);
    }

    /// Advance one epoch at virtual time `now` (must be monotonically
    /// non-decreasing across calls): apply every buffered delta, then
    /// re-crawl the delta'd and TTL-expired domains through `walker`
    /// and fold their old contributions out and new ones in.
    ///
    /// Callers pass the same long-lived walker every epoch, whatever the
    /// backend (churned roots are invalidated here); a wire-backed caller
    /// also clears its client's answer cache after editing the zone.
    pub fn step<R: Resolver>(&self, walker: &Walker<R>, now: Duration) -> EpochReport {
        let deltas: Vec<ZoneDelta> = {
            let mut inbox = self.inbox.lock().expect("engine inbox lock");
            std::mem::take(&mut *inbox)
        };
        let mut state = self.state.lock().expect("engine state lock");
        let state = &mut *state;

        // Apply buffered mutations in delivery order, collecting the
        // delta'd ranks; every churned root's memoized analysis is
        // evicted so the re-crawl reads the live zone.
        let mut delta_ranks: Vec<usize> = Vec::new();
        for delta in deltas {
            let ZoneDelta { changed, apply } = delta;
            apply();
            for domain in changed {
                walker.invalidate(&domain);
                if let Some(&rank) = self.index.get(&domain) {
                    delta_ranks.push(rank);
                }
            }
        }
        delta_ranks.sort_unstable();
        delta_ranks.dedup();

        let delta_count = delta_ranks.len() as u64;
        let mut due = delta_ranks;
        due.extend((0..self.domains.len()).filter(|&rank| state.deadline_of[rank] <= now));
        due.sort_unstable();
        due.dedup();
        let expired_count = due.len() as u64 - delta_count;

        let due_domains: Vec<DomainName> =
            due.iter().map(|&rank| self.domains[rank].clone()).collect();
        let output = crawl(walker, &due_domains, self.config.crawl);

        // Fold the due subset's old coverage out, new coverage in. The
        // crawl already accumulated the new sets under the exact same
        // per-report condition it uses for full crawls.
        for &rank in &due {
            let old = &state.reports[rank];
            if old.has_spf {
                if let Some(record) = old.record.as_ref() {
                    state.coverage.remove_set(&record.ips);
                }
            }
        }
        state.coverage.merge(output.coverage);

        if let Some(matrix) = state.matrix.as_mut() {
            let rows = evaluate_rows(
                walker.resolver(),
                &due_domains,
                &matrix.vantages,
                &matrix.config,
            );
            for (&rank, row) in due.iter().zip(rows) {
                matrix.matrix.fold_out(&matrix.rows[rank]);
                matrix.matrix.fold_in(&row);
                matrix.rows[rank] = row;
            }
        }

        for (&rank, report) in due.iter().zip(output.reports) {
            state.reports[rank] = report;
        }
        for &rank in &due {
            state.deadline_of[rank] = now + ttl_of(&self.domains[rank], &self.config);
        }

        state.epoch += 1;
        state.last_crawl_stats = output.stats;
        EpochReport {
            epoch: state.epoch,
            virtual_now_secs: now.as_secs(),
            delta_domains: delta_count,
            expired_domains: expired_count,
            recrawled: due.len() as u64,
            crawl_stats: output.stats,
        }
    }

    /// The tracked population, in rank order.
    pub fn domains(&self) -> &[DomainName] {
        &self.domains
    }

    /// Epochs stepped so far (0 right after bootstrap).
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("engine state lock").epoch
    }

    /// The bootstrap (or latest incremental) crawl's counters.
    pub fn last_crawl_stats(&self) -> CrawlStats {
        self.state
            .lock()
            .expect("engine state lock")
            .last_crawl_stats
    }

    /// A snapshot of the current per-domain reports, in rank order —
    /// byte-identical to what a from-scratch full crawl of the current
    /// zone would produce.
    pub fn reports(&self) -> Vec<DomainReport> {
        self.state
            .lock()
            .expect("engine state lock")
            .reports
            .clone()
    }

    /// The current population coverage profile, swept to canonical
    /// [`WeightedRanges`] form.
    pub fn weighted(&self) -> WeightedRanges {
        self.state
            .lock()
            .expect("engine state lock")
            .coverage
            .weighted()
    }

    /// The current spoof matrix, if [`ChurnEngine::attach_matrix`] ran.
    pub fn matrix(&self) -> Option<SpoofMatrix> {
        self.state
            .lock()
            .expect("engine state lock")
            .matrix
            .as_ref()
            .map(|m| m.matrix.clone())
    }

    /// The fixed vantage set, if matrix tracking is attached.
    pub fn vantages(&self) -> Option<Vec<VantagePoint>> {
        self.state
            .lock()
            .expect("engine state lock")
            .matrix
            .as_ref()
            .map(|m| m.vantages.clone())
    }

    /// Domains currently publishing SPF (derived from the live reports).
    pub fn spf_domains(&self) -> u64 {
        self.state
            .lock()
            .expect("engine state lock")
            .reports
            .iter()
            .filter(|r| r.has_spf)
            .count() as u64
    }

    /// Pending (delivered but not yet applied) delta batches.
    pub fn pending_deltas(&self) -> usize {
        self.inbox.lock().expect("engine inbox lock").len()
    }
}

/// The deterministic per-domain TTL: base plus hash-spread jitter.
fn ttl_of(domain: &DomainName, config: &LongitudinalConfig) -> Duration {
    let jitter_ms = config.ttl_jitter.as_millis() as u64;
    let jitter = if jitter_ms == 0 {
        0
    } else {
        domain.precomputed_hash() % (jitter_ms + 1)
    };
    config.base_ttl + Duration::from_millis(jitter)
}

/// Evaluate every domain's matrix row through the crate's worker pool.
/// Rows land in rank order regardless of scheduling.
fn evaluate_rows<R: Resolver>(
    resolver: &R,
    domains: &[DomainName],
    vantages: &[VantagePoint],
    config: &CrawlConfig,
) -> Vec<DomainMatrixRow> {
    let cache = SpoofVerdictCache::for_run(config.backend.evaluator);
    let mut rows: Vec<Option<DomainMatrixRow>> = vec![None; domains.len()];
    pool::run(
        domains,
        config.workers,
        DEFAULT_BATCH_SIZE,
        CompilerStats::default,
        |compiler, batch| {
            batch
                .iter()
                .map(|domain| {
                    evaluate_matrix_row(
                        resolver,
                        domain,
                        vantages,
                        &EvalPolicy::default(),
                        cache.as_ref(),
                        config.backend.is_compiled(),
                        compiler,
                    )
                })
                .collect::<Vec<_>>()
        },
        |first, batch_rows| {
            for (slot, row) in rows[first..].iter_mut().zip(batch_rows) {
                *slot = Some(row);
            }
        },
    );
    rows.into_iter()
        .map(|r| r.expect("every rank evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    fn world() -> (Arc<ZoneStore>, Vec<DomainName>) {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("spf.cloud.example"), "v=spf1 ip4:198.51.100.0/24 -all");
        let mut domains = Vec::new();
        for i in 0..8 {
            let d = dom(&format!("site{i}.example"));
            store.add_txt(&d, "v=spf1 include:spf.cloud.example -all");
            domains.push(d);
        }
        let open = dom("open.example");
        store.add_txt(&open, "v=spf1 +all");
        domains.push(open);
        domains.push(dom("norecord.example"));
        (store, domains)
    }

    fn full_recompute(
        store: &Arc<ZoneStore>,
        domains: &[DomainName],
        config: CrawlConfig,
    ) -> (String, String) {
        let walker = Walker::new(ZoneResolver::new(Arc::clone(store)));
        let out = crawl(&walker, domains, config);
        (
            serde_json::to_string(&out.reports).unwrap(),
            serde_json::to_string(&out.coverage.weighted()).unwrap(),
        )
    }

    #[test]
    fn incremental_step_matches_full_recompute_bytes() {
        let (store, domains) = world();
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let config = LongitudinalConfig::default()
            .crawl(CrawlConfig::with_workers(2))
            .ttl(Duration::from_secs(3600), Duration::from_secs(600));
        let engine = ChurnEngine::bootstrap(&walker, domains.clone(), config);

        // Epoch 1: one domain tightens, one loses its record.
        let s2 = Arc::clone(&store);
        engine.deliver(ZoneDelta::new(
            vec![dom("open.example"), dom("site3.example")],
            move || {
                s2.replace_txt(&dom("open.example"), "v=spf1 ip4:203.0.113.9 -all");
                s2.remove_type(&dom("site3.example"), spf_dns::RecordType::Txt);
            },
        ));
        let report = engine.step(&walker, Duration::from_secs(1));
        assert_eq!(report.delta_domains, 2);
        assert_eq!(report.recrawled, 2);

        let (full_reports, full_weighted) =
            full_recompute(&store, &domains, CrawlConfig::with_workers(2));
        assert_eq!(
            serde_json::to_string(&engine.reports()).unwrap(),
            full_reports
        );
        assert_eq!(
            serde_json::to_string(&engine.weighted()).unwrap(),
            full_weighted
        );

        // Epoch 2: nothing delivered, TTLs all expire far past now + 2h.
        let report = engine.step(&walker, Duration::from_secs(2));
        assert_eq!(report.recrawled, 0);
        assert_eq!(
            serde_json::to_string(&engine.reports()).unwrap(),
            full_reports
        );
    }

    #[test]
    fn ttl_expiry_rescans_without_deltas_and_rearms() {
        let (store, domains) = world();
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let config = LongitudinalConfig::default()
            .crawl(CrawlConfig::with_workers(2))
            .ttl(Duration::from_secs(60), Duration::from_secs(30));
        let engine = ChurnEngine::bootstrap(&walker, domains.clone(), config);
        // Everything expires within 90s.
        let report = engine.step(&walker, Duration::from_secs(120));
        assert_eq!(report.expired_domains, domains.len() as u64);
        assert_eq!(report.delta_domains, 0);
        // Re-armed: a second sweep 10s later finds nothing due.
        let report = engine.step(&walker, Duration::from_secs(130));
        assert_eq!(report.recrawled, 0);
        // …but the full TTL later everything is due again.
        let report = engine.step(&walker, Duration::from_secs(240));
        assert_eq!(report.recrawled, domains.len() as u64);
    }

    #[test]
    fn delta_before_ttl_rescans_immediately_and_supersedes_deadline() {
        let (store, _) = world();
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let config = LongitudinalConfig::default()
            .crawl(CrawlConfig::with_workers(1))
            .ttl(Duration::from_secs(100), Duration::ZERO);
        // Track only site0 so the assertion isolates ITS deadline.
        let engine = ChurnEngine::bootstrap(&walker, vec![dom("site0.example")], config);
        let s2 = Arc::clone(&store);
        engine.deliver(ZoneDelta::new(vec![dom("site0.example")], move || {
            s2.replace_txt(&dom("site0.example"), "v=spf1 ?all");
        }));
        // Churned at t=10, long before its 100s TTL.
        let report = engine.step(&walker, Duration::from_secs(10));
        assert_eq!(report.recrawled, 1);
        assert!(engine.reports()[0].record.is_some());
        // The superseded 100s deadline must not fire again at t=101 —
        // the re-arm moved it to t=110.
        let report = engine.step(&walker, Duration::from_secs(105));
        assert_eq!(report.recrawled, 0);
        let report = engine.step(&walker, Duration::from_secs(111));
        assert_eq!(report.recrawled, 1);
    }

    #[test]
    fn matrix_rows_fold_identically_to_fresh_matrix() {
        use crate::spoof::{auth_matrix, select_vantages};
        for attach_workers in [2usize, 1, 4, 32] {
            let (store, domains) = world();
            let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
            let config = LongitudinalConfig::default()
                .crawl(CrawlConfig::with_workers(2))
                .ttl(Duration::from_secs(3600), Duration::ZERO);
            let engine = ChurnEngine::bootstrap(&walker, domains.clone(), config);
            let vantages = select_vantages(&engine.weighted(), &[], 3, 2, 0xbeef);
            engine.attach_matrix(
                walker.resolver(),
                vantages.clone(),
                CrawlConfig::with_workers(attach_workers),
            );
            let s2 = Arc::clone(&store);
            engine.deliver(ZoneDelta::new(vec![dom("site5.example")], move || {
                s2.replace_txt(&dom("site5.example"), "v=spf1 +all");
            }));
            engine.step(&walker, Duration::from_secs(5));
            let fresh_walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
            let (fresh, _) = auth_matrix(
                fresh_walker.resolver(),
                &domains,
                &vantages,
                CrawlConfig::with_workers(4),
            );
            assert_eq!(
                serde_json::to_string(&engine.matrix().unwrap()).unwrap(),
                serde_json::to_string(&fresh.spf).unwrap(),
                "attach workers={attach_workers}"
            );
        }
    }

    #[test]
    fn mid_crawl_delivery_defers_to_next_epoch() {
        let (store, domains) = world();
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let config = LongitudinalConfig::default()
            .crawl(CrawlConfig::with_workers(2))
            .ttl(Duration::from_secs(3600), Duration::ZERO);
        let engine = ChurnEngine::bootstrap(&walker, domains, config);
        // Deliver from another thread while a step may be running: the
        // delta is only buffered, never applied concurrently.
        std::thread::scope(|scope| {
            let engine = &engine;
            let s2 = Arc::clone(&store);
            scope.spawn(move || {
                engine.deliver(ZoneDelta::new(vec![dom("site1.example")], move || {
                    s2.replace_txt(&dom("site1.example"), "v=spf1 -all");
                }));
            });
            let _ = engine.step(&walker, Duration::from_secs(1));
        });
        // Whether the delivery won or lost the race against step's
        // inbox drain, by the next step it must be applied.
        engine.step(&walker, Duration::from_secs(2));
        assert_eq!(engine.pending_deltas(), 0);
        let reports = engine.reports();
        let site1 = reports
            .iter()
            .find(|r| r.domain == dom("site1.example"))
            .unwrap();
        assert!(site1.record.as_ref().unwrap().is_deny_all_only);
    }
}
