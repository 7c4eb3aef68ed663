//! One regeneration pipeline per table and figure of the paper.
//!
//! Every function takes the prepared scan ([`Repro`]) and returns the
//! rendered artifact plus an [`Experiment`] comparing measured values to
//! the paper's published ones (counts are rescaled to full-scale units
//! before comparison). The `repro` binary prints the artifacts and writes
//! the experiment log to EXPERIMENTS.md.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use spf_analyzer::{DomainReport, ErrorClass, Walker};
use spf_core::{check_host, AuthCache, EvalContext, EvalPolicy, NotFoundCause, SpfResult};
use spf_crawler::{
    auth_matrix, auth_matrix_with_cache, bare_row_fold, crawl, include_ecosystem, select_vantages,
    ChurnEngine, CrawlConfig, CrawlStats, DeploymentMix, IncludeStats, LongitudinalConfig,
    OverlapReport, ProviderVantage, ScanAggregates, SpoofMatrix, SpoofMatrixStats, StopLayer,
    VantageKind, VantagePoint, ZoneDelta, DEFAULT_CONTROLS, DEFAULT_PROVIDER_ROWS,
    DEFAULT_TOP_COVERAGE, SPOOF_SENDER_LOCAL,
};
use spf_dns::{
    Resolver, ServerConfig, VirtualClock, WireClientConfig, WireFleet, WireResolver, WireSnapshot,
    ZoneResolver, ZoneStore,
};
use spf_netsim::{
    build_hosting, build_spoof_world, ChurnConfig, ChurnSimulator, Population, PopulationConfig,
    Scale,
};
use spf_notify::{apply_remediation, Campaign, CampaignConfig, CampaignOutcome, FixRates};
use spf_report::{
    fmt_count, fmt_percent, paper, render_bars, render_cdf, Cdf, Experiment, Heatmap, Histogram,
    Table,
};
use spf_smtp::{run_case_study, SpoofSuccess};
use spf_types::{Backend, Evaluator, StatItem, Stats, Transport, WeightedRanges};

/// The live wire substrate of a wire-mode scan. Dropping it shuts the
/// server fleet down, so it rides inside [`Repro`] for the run's
/// lifetime.
pub struct WireRun {
    /// The sharded authoritative server fleet.
    pub fleet: WireFleet,
    /// The wire client, shared with the walker.
    pub resolver: Arc<WireResolver>,
}

impl WireRun {
    /// Point-in-time copy of the wire client's counters.
    pub fn snapshot(&self) -> WireSnapshot {
        self.resolver.snapshot()
    }

    /// The `[wire]` telemetry line for a crawl over `domains` domains:
    /// the client's counter view plus the fleet's answer counts, all
    /// rendered through the shared [`Stats`] formatter.
    pub fn stats(&self, domains: u64) -> WireRunStats {
        WireRunStats {
            view: self.snapshot().stats_view(domains),
            fleet_udp: self.fleet.answered(),
            fleet_tcp: self.fleet.tcp_answered(),
        }
    }
}

/// The `[wire]` line of one crawl: client counters + fleet answers.
pub struct WireRunStats {
    view: spf_dns::WireStatsView,
    fleet_udp: u64,
    fleet_tcp: u64,
}

impl WireRunStats {
    /// The laws that tie the fleet's answers to the client's datagrams
    /// when the fleet serves this client alone and no call is in flight;
    /// `Err` names the first one broken.
    ///
    /// * `fleet_udp <= datagrams`: the fleet answers a datagram at most
    ///   once, and only one it was sent.
    /// * `datagrams <= fleet_udp + retries + temp_errors`: an unanswered
    ///   datagram was re-sent (one retry) or was its question's last
    ///   attempt (one temp error). A faulted name the fleet stays silent
    ///   on costs both; a late answer counts as a retry *and* as a fleet
    ///   answer, so the two sides are equal on an idle host only.
    /// * `fleet_tcp <= tcp_fallbacks`: each TCP answer answers one
    ///   truncated reply's re-fetch (equal unless a connection failed).
    pub fn check_conservation(&self) -> Result<(), String> {
        let s = &self.view.snapshot;
        let (udp, tcp) = (self.fleet_udp, self.fleet_tcp);
        if udp > s.wire_queries {
            return Err(format!("fleet_udp={udp} > datagrams: {s:?}"));
        }
        if s.wire_queries > udp + s.retries + s.temp_errors {
            return Err(format!(
                "datagrams > fleet_udp={udp} + retries + temp_errors: {s:?}"
            ));
        }
        if tcp > s.tcp_fallbacks {
            return Err(format!("fleet_tcp={tcp} > tcp_fallbacks: {s:?}"));
        }
        Ok(())
    }
}

impl Stats for WireRunStats {
    fn scope(&self) -> &'static str {
        "wire"
    }

    fn items(&self) -> Vec<StatItem> {
        let mut items = self.view.items();
        items.push(StatItem::count("fleet_udp", self.fleet_udp));
        items.push(StatItem::count("fleet_tcp", self.fleet_tcp));
        items
    }
}

/// A prepared scan: population, crawl output, aggregates, ecosystem.
pub struct Repro {
    /// The generated world.
    pub population: Population,
    /// The shared walker (memo cache holds every include analysis). The
    /// resolver behind it is the in-process [`ZoneResolver`] or the
    /// wire client, per the config's [`Backend`] transport.
    pub walker: Walker<Arc<dyn Resolver>>,
    /// Per-domain reports in rank order.
    pub reports: Vec<DomainReport>,
    /// Aggregates over the full population.
    pub all: ScanAggregates,
    /// Aggregates over the top-1M segment.
    pub top: ScanAggregates,
    /// The include ecosystem.
    pub eco: Vec<IncludeStats>,
    /// The population's weighted address-space coverage profile — the
    /// sweep-line over the boundary deltas every SPF-bearing domain
    /// contributed during the crawl (DESIGN.md §7).
    pub overlap: WeightedRanges,
    /// Distinct boundaries the coverage sweep processed (its `B`).
    pub overlap_boundaries: usize,
    /// Throughput/cache/queue counters of the scan crawl.
    pub stats: CrawlStats,
    /// The crawl configuration the scan ran under.
    pub config: CrawlConfig,
    /// The wire substrate when the backend transport runs over
    /// sockets; `None` in-memory.
    pub wire: Option<WireRun>,
    /// Scale denominator, for rescaling counts.
    pub denom: u64,
    /// Seed used.
    pub seed: u64,
}

impl Repro {
    /// Rescale a measured count to full-scale units.
    pub fn up(&self, measured: u64) -> u64 {
        measured * self.denom
    }
}

/// Assemble the resolver stack a [`Backend`]'s transport selects over
/// `store`: the in-process [`ZoneResolver`], or a freshly spawned
/// server fleet fronted by the wire client. Every entry point —
/// `repro`, the spoof matrix, the verdict service, the benchmark — routes
/// through here, so a backend means the same stack everywhere.
pub fn build_resolver(
    store: &Arc<ZoneStore>,
    backend: Backend,
) -> (Arc<dyn Resolver>, Option<WireRun>) {
    match backend.transport {
        Transport::Memory => (Arc::new(ZoneResolver::new(Arc::clone(store))), None),
        Transport::WireBlocking => {
            let fleet = WireFleet::spawn(store, backend.servers.max(1), ServerConfig::default())
                .expect("wire fleet spawns on loopback");
            let resolver = Arc::new(fleet.resolver(WireClientConfig::crawl()));
            (
                Arc::clone(&resolver) as Arc<dyn Resolver>,
                Some(WireRun { fleet, resolver }),
            )
        }
    }
}

/// Generate the population and run the full crawl (in-memory mode).
pub fn prepare(denominator: u64, seed: u64, workers: usize) -> Repro {
    prepare_with(denominator, seed, CrawlConfig::with_workers(workers))
}

/// Generate the population and run the full crawl under an explicit
/// [`CrawlConfig`] — including the wire backends, which spawn the
/// sharded server fleet and crawl over real sockets.
pub fn prepare_with(denominator: u64, seed: u64, config: CrawlConfig) -> Repro {
    let population = Population::build(PopulationConfig {
        scale: Scale { denominator },
        seed,
    });
    let (resolver, wire) = build_resolver(&population.store, config.backend);
    let walker = Walker::new(resolver);
    let output = crawl(&walker, &population.domains, config);
    let all = ScanAggregates::compute(&output.reports);
    let top = ScanAggregates::compute(&output.reports[..population.top_len]);
    let eco = include_ecosystem(&output.reports, &walker);
    let mut coverage = output.coverage;
    let overlap_boundaries = coverage.boundary_count();
    let overlap = coverage.into_weighted();
    Repro {
        population,
        walker,
        reports: output.reports,
        all,
        top,
        eco,
        overlap,
        overlap_boundaries,
        stats: output.stats,
        config,
        wire,
        denom: denominator,
        seed,
    }
}

/// Table 1 — SPF and DMARC usage in the wild.
pub fn table1(r: &Repro) -> (Table, Experiment) {
    let mut table = Table::new(
        "Table 1: SPF and DMARC usage in the wild",
        &["Study", "Year", "List", "Size", "SPF", "DM."],
    );
    for (study, year, list, size, spf, dmarc) in paper::TABLE1_PRIOR {
        if study == "Our study" {
            continue; // replaced by measured rows below
        }
        table.push_row(vec![
            study.to_string(),
            year.to_string(),
            list.to_string(),
            size.to_string(),
            fmt_percent(spf),
            dmarc.map(fmt_percent).unwrap_or_else(|| "—".into()),
        ]);
    }
    table.push_row(vec![
        "Our study (measured)".into(),
        "2023".into(),
        "Tranco".into(),
        "1M".into(),
        fmt_percent(r.top.spf_rate()),
        fmt_percent(r.top.dmarc_rate()),
    ]);
    table.push_row(vec![
        "Our study (measured)".into(),
        "2023".into(),
        "Tranco".into(),
        "12M".into(),
        fmt_percent(r.all.spf_rate()),
        fmt_percent(r.all.dmarc_rate()),
    ]);

    let mut exp = Experiment::new("Table 1", "SPF and DMARC adoption");
    exp.percent(
        "SPF rate (top 1M)",
        paper::TABLE1_OURS_TOP1M.0,
        r.top.spf_rate(),
    );
    exp.percent(
        "DMARC rate (top 1M)",
        paper::TABLE1_OURS_TOP1M.1,
        r.top.dmarc_rate(),
    );
    exp.percent("SPF rate (all)", paper::TABLE1_OURS_ALL.0, r.all.spf_rate());
    exp.percent(
        "DMARC rate (all)",
        paper::TABLE1_OURS_ALL.1,
        r.all.dmarc_rate(),
    );
    exp.percent(
        "SPF among MX domains (all)",
        0.751,
        r.all.spf_rate_among_mx(),
    );
    exp.note(
        "The paper's 79.3 % SPF-among-MX figure refers to the top 1M; over all \
         12.8M domains the cohort arithmetic implies 75.1 %, which is what the \
         generator encodes.",
    );
    (table, exp)
}

/// Figure 1 — implementation of email and security mechanisms.
pub fn figure1(r: &Repro) -> (Table, Experiment) {
    let mut table = Table::new(
        "Figure 1: implementation of email and security mechanisms (full-scale units)",
        &["Mechanism", "Paper", "Measured"],
    );
    let (p_all, p_mx, p_spf, p_dmarc) = paper::FIGURE1_COUNTS;
    let rows = [
        ("All", p_all, r.up(r.all.total_domains)),
        ("MX", p_mx, r.up(r.all.with_mx)),
        ("SPF", p_spf, r.up(r.all.with_spf)),
        ("DMARC", p_dmarc, r.up(r.all.with_dmarc)),
    ];
    let mut exp = Experiment::new("Figure 1", "population overlaps (All/MX/SPF/DMARC)");
    for (label, paper_count, measured) in rows {
        table.push_row(vec![
            label.into(),
            fmt_count(paper_count),
            fmt_count(measured),
        ]);
        exp.count(label, paper_count, measured);
    }
    exp.count("SPF ∧ MX", 6_869_474, r.up(r.all.with_mx_and_spf));
    (table, exp)
}

/// Figure 2 — appearance of different error types.
pub fn figure2(r: &Repro) -> (String, Experiment) {
    let mut exp = Experiment::new("Figure 2", "SPF error classes");
    let mut buckets = Vec::new();
    for (label, paper_count) in paper::FIGURE2 {
        let class = class_by_label(label);
        let measured = r.up(r.all.error_counts.get(&class).copied().unwrap_or(0));
        buckets.push((label.to_string(), measured));
        exp.count(label, paper_count, measured);
    }
    exp.count(
        "Total errors",
        paper::TOTAL_ERRORS,
        r.up(r.all.total_errors()),
    );
    exp.count(
        "Excluded transient DNS errors",
        paper::DNS_TRANSIENT_ERRORS,
        r.up(r.all.dns_transient),
    );
    let chart = render_bars(
        "Figure 2: appearance of different error types (full-scale units)",
        &Histogram::new(buckets),
        48,
    );
    (chart, exp)
}

fn class_by_label(label: &str) -> ErrorClass {
    match label {
        "Syntax Error" => ErrorClass::SyntaxError,
        "Too Many DNS Lookups" => ErrorClass::TooManyDnsLookups,
        "Too Many Void DNS Lookups" => ErrorClass::TooManyVoidDnsLookups,
        "Redirect Loop" => ErrorClass::RedirectLoop,
        "Include Loop" => ErrorClass::IncludeLoop,
        "Record not found" => ErrorClass::RecordNotFound,
        "Invalid IP address" => ErrorClass::InvalidIpAddress,
        other => unreachable!("unknown class label {other}"),
    }
}

fn cause_by_label(label: &str) -> NotFoundCause {
    match label {
        "Other Errors" => NotFoundCause::OtherError,
        "No SPF Record" => NotFoundCause::NoSpfRecord,
        "Multiple SPF Records" => NotFoundCause::MultipleSpfRecords,
        "Domain not found" => NotFoundCause::DomainNotFound,
        "Empty Result" => NotFoundCause::EmptyResult,
        "DNS Timeout" => NotFoundCause::DnsTimeout,
        other => unreachable!("unknown cause label {other}"),
    }
}

/// Figure 3 — distribution of record-not-found errors.
pub fn figure3(r: &Repro) -> (String, Experiment) {
    let mut exp = Experiment::new("Figure 3", "record-not-found causes");
    let mut buckets = Vec::new();
    for (label, paper_count) in paper::FIGURE3 {
        let cause = cause_by_label(label);
        let raw = r.all.not_found_causes.get(&cause).copied().unwrap_or(0);
        // "Other Errors" is a fixed-count curiosity cohort (3 domains at
        // any scale), so it is not rescaled.
        let measured = if cause == NotFoundCause::OtherError {
            raw
        } else {
            r.up(raw)
        };
        buckets.push((label.to_string(), measured));
        exp.count(label, paper_count, measured);
    }
    exp.note(
        "The paper's three 'other errors' include one UTF-8 decode failure; \
         non-UTF-8 zone content cannot be expressed in this implementation, so \
         all three are oversized-label/name cases.",
    );
    let chart = render_bars(
        "Figure 3: distribution of record-not-found errors (full-scale units)",
        &Histogram::new(buckets),
        48,
    );
    (chart, exp)
}

/// Figure 4 — includes exceeding the DNS lookup limit.
pub fn figure4(r: &Repro) -> (Table, Experiment) {
    let over: Vec<&IncludeStats> = r.eco.iter().filter(|s| s.dns_lookups > 10).collect();
    let affected: u64 = over.iter().map(|s| s.used_by).sum();
    let bluehost = over.iter().max_by_key(|s| s.used_by);
    let mut table = Table::new(
        "Figure 4: includes exceeding the DNS lookup limit (top 10 by users; full-scale units)",
        &["Include", "DNS lookups", "Used by"],
    );
    let mut sorted: Vec<&&IncludeStats> = over.iter().collect();
    sorted.sort_by_key(|s| std::cmp::Reverse(s.used_by));
    for s in sorted.iter().take(10) {
        table.push_row(vec![
            s.domain.to_string(),
            s.dns_lookups.to_string(),
            fmt_count(r.up(s.used_by)),
        ]);
    }
    let mut exp = Experiment::new("Figure 4", "lookup-limit-exceeding includes");
    exp.count(
        "Includes over the limit",
        paper::FIGURE4_FAT_INCLUDES,
        r.up(over.len() as u64),
    );
    exp.count("Affected domains", paper::FIGURE4_AFFECTED, r.up(affected));
    if let Some(b) = bluehost {
        exp.plain(
            "Dominant include's lookup count",
            paper::FIGURE4_BLUEHOST_LOOKUPS as f64,
            b.dns_lookups as f64,
        );
        exp.percent(
            "Dominant include's share of affected domains",
            paper::FIGURE4_BLUEHOST_SHARE,
            b.used_by as f64 / affected.max(1) as f64,
        );
    }
    exp.note(
        "The paper reports 85,915 affected domains but classifies only 49,421 \
         under 'Too Many DNS Lookups' (Figure 2); the generator unifies the two \
         populations, so the affected count tracks the Figure 2 class.",
    );
    (table, exp)
}

/// Table 2 — errors before and after the notification campaign.
/// Runs the campaign + remediation model and rescans; mutates the zone.
/// The returned [`CrawlStats`] describe the rescan crawl.
pub fn table2(r: &Repro, workers: usize) -> (Table, Experiment, CampaignOutcome, CrawlStats) {
    // 1. Notification campaign (throttled on a virtual clock).
    let clock = Arc::new(VirtualClock::new());
    let mut campaign = Campaign::new(CampaignConfig::default(), clock);
    let outcome = campaign.run(&r.reports);

    // 2. Operators react per the calibrated fix rates.
    apply_remediation(
        &r.population.store,
        &r.reports,
        &FixRates::default(),
        r.seed ^ 0xF1,
    );

    // 3. Rescan two (virtual) weeks later — fresh walker, fresh cache, on
    // the same substrate as the first scan (`_rescan_wire` keeps a wire
    // fleet alive).
    let rescan_config = CrawlConfig {
        workers,
        ..r.config
    };
    let (resolver, _rescan_wire) = build_resolver(&r.population.store, rescan_config.backend);
    let walker = Walker::new(resolver);
    let rescan = crawl(&walker, &r.population.domains, rescan_config);
    let after = ScanAggregates::compute(&rescan.reports);

    let mut table = Table::new(
        "Table 2: SPF errors before and after our notification (full-scale units)",
        &["Error", "Before", "After", "Change"],
    );
    let mut exp = Experiment::new("Table 2", "notification campaign impact");
    let count_of = |agg: &ScanAggregates, class: ErrorClass| {
        agg.error_counts.get(&class).copied().unwrap_or(0)
    };
    for (label, p_before, p_after) in paper::TABLE2 {
        let class = class_by_label(label);
        let before = r.up(count_of(&r.all, class));
        let after_n = r.up(count_of(&after, class));
        let change = if before == 0 {
            0.0
        } else {
            after_n as f64 / before as f64 - 1.0
        };
        table.push_row(vec![
            label.to_string(),
            fmt_count(before),
            fmt_count(after_n),
            format!("{:+.2} %", change * 100.0),
        ]);
        exp.count(format!("{label} (after)"), p_after, after_n);
        let _ = p_before;
    }
    let before_total = r.up(r.all.total_errors());
    let after_total = r.up(after.total_errors());
    table.push_row(vec![
        "Total Errors".into(),
        fmt_count(before_total),
        fmt_count(after_total),
        format!(
            "{:+.2} %",
            (after_total as f64 / before_total.max(1) as f64 - 1.0) * 100.0
        ),
    ]);
    exp.count("Total errors (after)", paper::TABLE2_TOTAL.1, after_total);
    exp.count(
        "Notifications sent",
        paper::NOTIFICATIONS_SENT,
        r.up(outcome.sent),
    );
    exp.note(
        "The operator is modelled by per-class fix probabilities taken from \
         Table 2's change column (DESIGN.md §2); the rescan itself re-runs the \
         full pipeline against the mutated zone.",
    );
    (table, exp, outcome, rescan.stats)
}

/// Table 3 — very large IP ranges by CIDR class.
pub fn table3(r: &Repro) -> (Table, Experiment) {
    // Include column: unique include records carrying a network of the
    // class (measured over the ecosystem).
    let mut include_col: BTreeMap<u8, u64> = BTreeMap::new();
    for s in &r.eco {
        let mut prefixes: Vec<u8> = s
            .subnet_prefixes
            .iter()
            .copied()
            .filter(|p| *p <= 16)
            .collect();
        prefixes.dedup();
        for p in prefixes {
            *include_col.entry(p).or_default() += 1;
        }
    }
    let mut table = Table::new(
        "Table 3: type and amount of SPF mechanisms with large IP ranges (full-scale units)",
        &[
            "CIDR",
            "ip4/a/mx (paper)",
            "ip4/a/mx (ours)",
            "include (paper)",
            "include (ours)",
        ],
    );
    let mut exp = Experiment::new("Table 3", "very large IP ranges");
    for (prefix, p_direct, p_include) in paper::TABLE3 {
        let m_direct = r.up(r.all.large_ranges_direct.get(&prefix).copied().unwrap_or(0));
        let m_include = r.up(include_col.get(&prefix).copied().unwrap_or(0));
        table.push_row(vec![
            format!("/{prefix}"),
            fmt_count(p_direct),
            fmt_count(m_direct),
            fmt_count(p_include),
            fmt_count(m_include),
        ]);
        exp.count(format!("/{prefix} direct"), p_direct, m_direct);
        if p_include > 0 || m_include > 0 {
            exp.count(format!("/{prefix} include"), p_include, m_include);
        }
    }
    exp.count(
        "Domains >100k IPs via direct mechanisms",
        paper::LAX_VIA_DIRECT,
        r.up(r.all.lax_via_direct),
    );
    exp.count(
        "Domains >100k IPs via includes",
        paper::LAX_VIA_INCLUDE,
        r.up(r.all.lax_via_include),
    );
    exp.note(
        "Tiny classes are kept present at reduced scale by min-1 rounding, so \
         their rescaled counts overshoot the paper's single-digit values; the \
         distribution shape is the reproduced quantity.",
    );
    (table, exp)
}

/// Table 4 — top 20 included domains.
pub fn table4(r: &Repro) -> (Table, Experiment) {
    let mut table = Table::new(
        "Table 4: top 20 included domains (full-scale units)",
        &[
            "Include",
            "Used by (paper)",
            "Used by (ours)",
            "Allowed IPs (paper)",
            "Allowed IPs (ours)",
        ],
    );
    let mut exp = Experiment::new("Table 4", "top-20 include ecosystem");
    let by_name: BTreeMap<&str, &IncludeStats> =
        r.eco.iter().map(|s| (s.domain.as_str(), s)).collect();
    for (name, p_used, p_ips) in paper::TABLE4 {
        let stats = by_name.get(name);
        let m_used = stats.map(|s| r.up(s.used_by)).unwrap_or(0);
        let m_ips = stats.map(|s| s.allowed_ips).unwrap_or(0);
        table.push_row(vec![
            name.to_string(),
            fmt_count(p_used),
            fmt_count(m_used),
            fmt_count(p_ips),
            fmt_count(m_ips),
        ]);
        exp.count(format!("{name} allowed IPs"), p_ips, m_ips);
        exp.count(format!("{name} used by"), p_used, m_used);
    }
    exp.note(
        "Allowed-IP counts are exact by construction. Used-by counts carry a \
         global normalization: the paper's usage column sums to more include \
         slots than its Figure 6 histogram provides, so the generator scales \
         usage proportionally (ordering and magnitudes preserved).",
    );
    (table, exp)
}

/// Table 5 — the web-hosting spoofing case study (over real TCP).
pub fn table5(denominator: u64) -> (Table, Experiment) {
    let world = build_hosting(Scale { denominator });
    let resolver = Arc::new(ZoneResolver::new(Arc::clone(&world.store)));
    let rows = run_case_study(&world, resolver).expect("case study runs");
    let mut table = Table::new(
        "Table 5: results of the providers case study (full-scale units)",
        &["Provider", "Success", "# Domains", "# Allowed IPs"],
    );
    let mut exp = Experiment::new("Table 5", "web-hosting spoofing case study");
    for ((provider, p_success, p_domains, p_ips), row) in paper::TABLE5.iter().zip(&rows) {
        table.push_row(vec![
            provider.to_string(),
            row.success.to_string(),
            fmt_count(row.domains * denominator),
            fmt_count(row.allowed_ips),
        ]);
        exp.plain(
            format!("Provider {provider} success matches '{p_success}'"),
            1.0,
            f64::from(row.success.to_string() == *p_success),
        );
        exp.count(
            format!("Provider {provider} spoofable domains"),
            *p_domains,
            row.domains * denominator,
        );
        exp.count(
            format!("Provider {provider} allowed IPs"),
            *p_ips,
            row.allowed_ips,
        );
    }
    let total: u64 = rows.iter().map(|r| r.domains).sum::<u64>() * denominator;
    exp.count(
        "Total spoofable domains",
        paper::TABLE5_TOTAL_SPOOFABLE,
        total,
    );
    exp.note(
        "Every attempt is a live TCP SMTP session against a receiving MTA whose \
         SPF gate runs check_host(); port-25 blocking and MTA authentication are \
         provider behaviour flags (DESIGN.md §2).",
    );
    (table, exp)
}

/// Figure 5 — CDF of authorized IPv4 addresses.
pub fn figure5(r: &Repro) -> (String, Experiment) {
    let cdf = Cdf::new(r.all.allowed_ip_counts.clone());
    let rendered = render_cdf("Figure 5: CDF of authorized IPv4 addresses", &cdf);
    let mut exp = Experiment::new("Figure 5", "CDF of authorized IPv4 addresses");
    exp.percent(
        "Domains with <20 allowed IPs",
        paper::TIGHT_RATE,
        cdf.fraction_below(20),
    );
    exp.percent(
        "Domains with >100k allowed IPs",
        paper::LAX_RATE,
        cdf.fraction_above(100_000),
    );
    let (step_exp, _) = cdf.steepest_power_of_two_step();
    exp.plain("Steepest CDF step at 2^k, k =", 19.0, step_exp as f64);
    exp.note(
        "The paper highlights the largest rise between 400k and 700k allowed \
         addresses (Microsoft at 491,520 / secureserver at 505,104), i.e. the \
         2^18→2^19 step.",
    );
    (rendered, exp)
}

/// Figure 6 — number of includes in the top-level record.
pub fn figure6(r: &Repro) -> (String, Experiment) {
    let mut buckets = Vec::new();
    let mut exp = Experiment::new("Figure 6", "top-level include counts");
    for (k, p_count) in paper::FIGURE6.iter().enumerate() {
        let label = if k == 11 {
            ">10".to_string()
        } else {
            k.to_string()
        };
        let measured = r.up(r.all.include_count_histogram[k]);
        buckets.push((label.clone(), measured));
        exp.count(format!("{label} includes"), *p_count, measured);
    }
    let chart = render_bars(
        "Figure 6: number of includes in the top level record (full-scale units)",
        &Histogram::new(buckets),
        48,
    );
    (chart, exp)
}

/// Figure 7 — distribution of subnet sizes in includes.
pub fn figure7(r: &Repro) -> (String, Experiment) {
    let mut by_prefix: BTreeMap<u8, u64> = BTreeMap::new();
    for s in &r.eco {
        for p in &s.subnet_prefixes {
            *by_prefix.entry(*p).or_default() += 1;
        }
    }
    let key_prefixes = [32u8, 24, 16, 8, 0];
    let buckets: Vec<(String, u64)> = key_prefixes
        .iter()
        .map(|p| (format!("/{p}"), by_prefix.get(p).copied().unwrap_or(0)))
        .collect();
    let hist = Histogram::new(buckets);
    let chart = render_bars(
        "Figure 7: distribution of subnet sizes in includes (entries across unique includes)",
        &hist,
        48,
    );
    let mut exp = Experiment::new("Figure 7", "subnet sizes inside includes");
    // The reproduced quantity is the *shape*: /32 peak, /24 second.
    let peak = hist.peak().map(|(l, _)| l.clone()).unwrap_or_default();
    exp.plain("Peak bucket is /32", 1.0, f64::from(peak == "/32"));
    let v32 = hist.share("/32");
    let v24 = hist.share("/24");
    let v16 = hist.share("/16");
    exp.plain(
        "/24 is the second peak",
        1.0,
        f64::from(v24 > v16 && v32 > v24),
    );
    exp.note(
        "The paper's y-axis counts are not directly comparable (the unit of \
         counting is ambiguous between include entries and domains); the \
         reproduced property is the ordering /32 > /24 > /16 > /8 of the \
         distribution's mass.",
    );
    (chart, exp)
}

/// Figure 8 — heatmap of include usage vs. allowed IPs.
pub fn figure8(r: &Repro) -> (String, Experiment) {
    let points: Vec<(u64, u64)> = r
        .eco
        .iter()
        .map(|s| (s.allowed_ips, r.up(s.used_by)))
        .collect();
    let map = Heatmap::from_points(&points, 33, 33);
    let mut out = String::new();
    out.push_str("Figure 8: include density over (allowed IPs, used-by), log2 bins\n");
    let (hx, hy, hc) = map.hottest();
    out.push_str(&format!(
        "  includes: {}   hottest cell: allowed≈2^{hx}, used-by≈2^{hy} ({hc} includes)\n",
        map.total()
    ));
    out.push_str(&format!(
        "  mass with allowed IPs ≤ 2^20: {:.1} %\n",
        map.mass_at_most_x(20) * 100.0
    ));
    let mut exp = Experiment::new("Figure 8", "include usage × allowed-IP heatmap");
    exp.percent("Mass with allowed IPs ≤ 2^20", 0.99, map.mass_at_most_x(20));
    exp.note(
        "The paper reads the heatmap qualitatively: 'a huge concentration, up \
         to around 2^20 allowed IPs', matching the Figure 5 step. The measured \
         mass below 2^20 reproduces that concentration.",
    );
    (out, exp)
}

/// §5.1 / §5.5 — additional findings.
pub fn extras(r: &Repro) -> (Table, Experiment) {
    let mut table = Table::new(
        "Additional findings (§5.1, §5.5; full-scale units)",
        &["Finding", "Paper", "Measured"],
    );
    let mut exp = Experiment::new("§5.1/§5.5", "additional findings");
    let rows: Vec<(&str, f64, f64, bool)> = vec![
        (
            "SPF among MX-less domains",
            paper::SPF_AMONG_NO_MX,
            r.all.spf_rate_among_no_mx(),
            true,
        ),
        (
            "Deny-all share of MX-less SPF",
            paper::DENY_ALL_SHARE,
            r.all.spf_without_mx_deny_all as f64 / r.all.spf_without_mx.max(1) as f64,
            true,
        ),
        (
            "Permissive all policies",
            paper::PERMISSIVE_ALL as f64,
            r.up(r.all.permissive_all) as f64,
            false,
        ),
        (
            "PTR mechanism users",
            paper::PTR_MECHANISM as f64,
            r.up(r.all.uses_ptr) as f64,
            false,
        ),
        (
            "Deprecated SPF RR users",
            paper::DEPRECATED_SPF_RR as f64,
            r.up(r.all.deprecated_spf_rr) as f64,
            false,
        ),
        (
            "RFC 6652 ra/rp/rr users",
            paper::REPORTING_MODIFIERS as f64,
            // Fixed-count cohort: not rescaled.
            r.all.reporting_modifiers as f64,
            false,
        ),
        (
            "Include mechanism usage",
            paper::INCLUDE_USAGE_RATE,
            r.all.uses_include as f64 / r.all.with_spf.max(1) as f64,
            true,
        ),
        (
            "Direct ip6 usage (§4.1)",
            0.005,
            r.all.uses_ip6 as f64 / r.all.with_spf.max(1) as f64,
            true,
        ),
    ];
    for (label, paper_v, measured, is_rate) in rows {
        if is_rate {
            table.push_row(vec![
                label.into(),
                fmt_percent(paper_v),
                fmt_percent(measured),
            ]);
            exp.percent(label, paper_v, measured);
        } else {
            table.push_row(vec![
                label.into(),
                fmt_count(paper_v as u64),
                fmt_count(measured as u64),
            ]);
            exp.count(label, paper_v as u64, measured as u64);
        }
    }
    exp.note(
        "The XSS record (§5.5) and the 14 ra/rp/rr domains are fixed-count \
         curiosity cohorts and are generated at their absolute counts at every \
         scale.",
    );
    (table, exp)
}

/// §6 in overlap form — the cross-population address-space engine: the
/// most-spoofable address, the coverage histogram, and provider
/// concentration by covered space. Not a paper artifact row-for-row (the
/// study never published the sweep), so the experiment log carries
/// internal consistency checks instead of paper columns: the sweep's
/// max-coverage answer is recounted naively against every report's
/// membership test, and the histogram must be monotone.
pub fn overlap(r: &Repro) -> (String, Experiment) {
    let report = OverlapReport::compute(&r.overlap, &r.eco, r.all.with_spf, DEFAULT_PROVIDER_ROWS);

    let mut out = String::new();
    out.push_str("Overlap: cross-population address-space coverage\n");
    out.push_str(&format!(
        "  SPF domains contributing: {} (full-scale {})\n",
        fmt_count(report.spf_domains),
        fmt_count(r.up(report.spf_domains)),
    ));
    out.push_str(&format!(
        "  sweep: {} boundaries -> {} weighted ranges, {} addresses covered\n",
        fmt_count(r.overlap_boundaries as u64),
        fmt_count(report.weighted_ranges),
        fmt_count(report.total_covered),
    ));
    match report.max_coverage_addr {
        Some(addr) => out.push_str(&format!(
            "  most-spoofable address: {addr} — authorized by {} domains \
             (full-scale {}, {} of SPF domains)\n\n",
            fmt_count(report.max_coverage_domains),
            fmt_count(r.up(report.max_coverage_domains)),
            fmt_percent(report.max_coverage_share()),
        )),
        None => out.push_str("  no domain authorizes any address\n\n"),
    }

    let mut histogram = Table::new(
        "Coverage histogram: addresses authorized by at least k domains",
        &["k (domains)", "Addresses", "Share of covered space"],
    );
    for &(k, addrs) in &report.histogram {
        histogram.push_row(vec![
            format!("≥ {k}"),
            fmt_count(addrs),
            fmt_percent(addrs as f64 / report.total_covered.max(1) as f64),
        ]);
    }
    out.push_str(&histogram.render());
    out.push('\n');

    let mut providers = Table::new(
        "Provider concentration: top include trees by covered space (Table 4 in overlap form)",
        &[
            "Include",
            "Used by (full-scale)",
            "Covered IPs",
            "Share of union",
        ],
    );
    for p in &report.providers {
        providers.push_row(vec![
            p.domain.to_string(),
            fmt_count(r.up(p.used_by)),
            fmt_count(p.covered_ips),
            fmt_percent(p.share_of_union),
        ]);
    }
    out.push_str(&providers.render());

    let mut exp = Experiment::new("Overlap", "cross-population address-space overlap");
    // The sweep's headline answer, recounted the naive way: probe every
    // report's interval set for the winning address.
    let naive_recount = report.max_coverage_addr.map_or(0, |addr| {
        r.reports
            .iter()
            .filter(|rep| {
                rep.has_spf
                    && rep
                        .record
                        .as_ref()
                        .is_some_and(|rec| rec.ips.contains(addr))
            })
            .count() as u64
    });
    exp.plain(
        "Sweep max-coverage equals naive membership recount",
        1.0,
        f64::from(naive_recount == report.max_coverage_domains),
    );
    exp.plain(
        "Coverage histogram is monotone in k",
        1.0,
        f64::from(report.histogram.windows(2).all(|w| w[0].1 >= w[1].1)),
    );
    exp.plain(
        "Top provider's space is within the covered union",
        1.0,
        f64::from(
            report
                .providers
                .first()
                .is_none_or(|p| p.covered_ips <= report.total_covered),
        ),
    );
    // The note is repro output and stays byte-identical; the file it
    // names is docs/history/BENCH_4.json.
    exp.note(
        "The paper never published the population-wide sweep, so this section \
         has no paper column; the flags above recount the sweep-line's answers \
         through the naive per-address membership path it replaces \
         (BENCH_4.json measures the speedup).",
    );
    (out, exp)
}

/// §6 at population scale — the spoofability verdict matrix: real
/// `check_host()` verdicts for the whole population (the calibrated
/// scan plus the Table 5 hosting customers) from attacker vantage
/// addresses, deduplicated through the subtree verdict cache. The
/// config's [`Backend`] selects both halves of the stack: its transport
/// like every scan target, and its [`Evaluator`] for the verdicts —
/// [`Evaluator::Compiled`] answers every cell from the domain's
/// compiled interval matcher (residual terms fall back to the live
/// evaluator), gains the `[compiler]` compilability line, and an extra
/// experiment flag recounts the sampled sub-population through the
/// interpreted engine to pin backend equality in-run. The experiment
/// log carries internal consistency flags (sampled matrix cells
/// recounted through plain uncached `check_host`) plus the Table 5
/// label replay. The section prints only what the world fixes; the
/// population matrix's [`SpoofMatrixStats`] come back beside it, for the
/// caller to print as the `[spoof]` line.
pub fn spoof_matrix(
    denominator: u64,
    seed: u64,
    config: CrawlConfig,
) -> (String, Experiment, SpoofMatrixStats) {
    let world = build_spoof_world(Scale { denominator }, seed);
    let (resolver, _wire) = build_resolver(&world.store, config.backend);
    // The SPF half of the layered engine is this experiment's subject,
    // run under `config`'s workers and `evaluator`.
    let run_spoof_matrix = |domains: &[spf_types::DomainName],
                            vantages: &[VantagePoint],
                            evaluator: Evaluator|
     -> (SpoofMatrix, SpoofMatrixStats) {
        let config = config.backend(config.backend.evaluator(evaluator));
        let (auth, stats) = auth_matrix(&resolver, domains, vantages, config);
        (auth.spf, stats.engine)
    };
    let evaluator = config.backend.evaluator;

    // One crawl pass for the coverage profile the vantage selection
    // needs (and the SPF-domain census).
    let walker = Walker::new(Arc::clone(&resolver));
    let output = crawl(&walker, &world.domains, config);
    let weighted = output.coverage.into_weighted();

    let provider_vantages: Vec<ProviderVantage> = world
        .providers
        .iter()
        .map(|p| ProviderVantage {
            label: format!("hosting{}", p.id),
            web: p.web_ip,
            mta: p.mta_ip,
        })
        .collect();
    let vantages = select_vantages(
        &weighted,
        &provider_vantages,
        DEFAULT_TOP_COVERAGE,
        DEFAULT_CONTROLS,
        seed,
    );

    let (matrix, stats) = run_spoof_matrix(&world.domains, &vantages, evaluator);

    let mut out = String::new();
    out.push_str("Spoof matrix: population-scale check_host() verdicts\n");
    out.push_str(&format!(
        "  {} domains × {} vantages = {} evaluations\n",
        fmt_count(matrix.domains),
        vantages.len(),
        fmt_count(stats.evaluations),
    ));
    out.push_str(&format!(
        "  spoofable from shared infrastructure: {} (full-scale {})\n",
        fmt_count(matrix.spoofable_shared),
        fmt_count(matrix.spoofable_shared * denominator),
    ));
    out.push_str(&format!(
        "  spoofable from control addresses:     {} (the +all cohort)\n",
        fmt_count(matrix.spoofable_control),
    ));
    out.push_str(&format!(
        "  lazy-gatekeeper rate: {} of {} SPF domains pass from an address \
         the owner plausibly doesn't control\n\n",
        fmt_percent(matrix.lazy_gatekeeper_rate()),
        fmt_count(matrix.spf_domains),
    ));
    if let Some(compiler) = &stats.compiler {
        out.push_str(&format!("  {compiler}\n"));
        out.push_str(&format!(
            "  compiled backend: {} of trees fully static, {} of verdicts \
             answered from interval tables\n\n",
            fmt_percent(compiler.full_fraction()),
            fmt_percent(compiler.compiled_hit_rate()),
        ));
    }

    let mut vantage_table = Table::new(
        "Verdicts by vantage",
        &[
            "Vantage", "Kind", "pass", "softfail", "neutral", "fail", "errors",
        ],
    );
    for v in &matrix.vantages {
        vantage_table.push_row(vec![
            format!("{} ({})", v.label, v.ip),
            format!("{:?}", v.kind),
            fmt_count(v.pass),
            fmt_count(v.softfail),
            fmt_count(v.neutral),
            fmt_count(v.fail),
            fmt_count(v.temperror + v.permerror),
        ]);
    }
    out.push_str(&vantage_table.render());
    out.push('\n');

    // Table 5 replayed through the matrix: per provider, the verdicts of
    // its own hosted customers from its own two addresses, labeled with
    // the same SpoofSuccess logic the live TCP case study uses.
    let mut provider_table = Table::new(
        "Providers through the matrix (Table 5 replay)",
        &["Provider", "Success", "Spoofable customers", "Paper"],
    );
    let mut exp = Experiment::new("Spoof matrix", "population-scale verdict matrix");
    for (provider, (_, p_success, _, _)) in world.providers.iter().zip(paper::TABLE5.iter()) {
        let provider_vantage_pair = vec![
            VantagePoint {
                label: format!("hosting{}-web", provider.id),
                kind: VantageKind::ProviderWeb,
                ip: provider.web_ip,
            },
            VantagePoint {
                label: format!("hosting{}-mta", provider.id),
                kind: VantageKind::ProviderMta,
                ip: provider.mta_ip,
            },
        ];
        let (customer_matrix, _) =
            run_spoof_matrix(&provider.customers, &provider_vantage_pair, evaluator);
        let web_allowed = !provider.blocks_port25;
        let mta_allowed = !provider.mta_requires_auth;
        let smtp_ok = web_allowed && customer_matrix.vantages[0].pass > 0;
        let mta_ok = mta_allowed && customer_matrix.vantages[1].pass > 0;
        let success = SpoofSuccess::from_paths(smtp_ok, mta_ok);
        // Customers spoofable by ≥1 *permitted* path: the per-customer
        // union when both paths are open (spoofable_shared counts pass
        // from either vantage), one vantage's pass count when only one
        // is, zero when the provider blocks both.
        let spoofable = match (web_allowed, mta_allowed) {
            (true, true) => customer_matrix.spoofable_shared,
            (true, false) => customer_matrix.vantages[0].pass,
            (false, true) => customer_matrix.vantages[1].pass,
            (false, false) => 0,
        };
        provider_table.push_row(vec![
            format!("hosting{}", provider.id),
            success.to_string(),
            fmt_count(spoofable * denominator),
            p_success.to_string(),
        ]);
        exp.plain(
            format!(
                "Provider {} matrix label matches '{p_success}'",
                provider.id
            ),
            1.0,
            f64::from(success.to_string() == *p_success),
        );
    }
    out.push_str(&provider_table.render());

    // Consistency: re-evaluate a sampled sub-population through the
    // engine with the verdict cache off *and* through bare per-cell
    // `check_host` calls — all three views must agree exactly.
    let sample_stride = (world.domains.len() / 64).max(1);
    let sample: Vec<spf_types::DomainName> = world
        .domains
        .iter()
        .step_by(sample_stride)
        .cloned()
        .collect();
    let (cached_sample, _) = run_spoof_matrix(&sample, &vantages, evaluator);
    let (uncached_sample, _) = run_spoof_matrix(&sample, &vantages, Evaluator::Interpreted);
    let mut bare_pass = vec![0u64; vantages.len()];
    let mut sampled_cells = 0u64;
    for domain in &sample {
        for (vi, vantage) in vantages.iter().enumerate() {
            let ctx = EvalContext::mail_from(
                std::net::IpAddr::V4(vantage.ip),
                SPOOF_SENDER_LOCAL,
                domain.clone(),
            );
            let eval = check_host(resolver.as_ref(), &ctx, domain, &EvalPolicy::default());
            if eval.result == SpfResult::Pass {
                bare_pass[vi] += 1;
            }
            sampled_cells += 1;
        }
    }
    let bare_consistent = bare_pass
        .iter()
        .zip(&uncached_sample.vantages)
        .all(|(&bare, row)| bare == row.pass);
    exp.plain(
        "Cached and uncached sample matrices identical",
        1.0,
        f64::from(cached_sample == uncached_sample),
    );
    if evaluator == Evaluator::Compiled {
        let (interpreted_sample, _) = run_spoof_matrix(&sample, &vantages, Evaluator::Cached);
        exp.plain(
            "Compiled and cached sample matrices identical",
            1.0,
            f64::from(cached_sample == interpreted_sample),
        );
    }
    exp.plain(
        "Uncached sample matches bare check_host recount",
        1.0,
        f64::from(bare_consistent),
    );
    exp.plain(
        "Shared-infrastructure spoofability ≥ control spoofability",
        1.0,
        f64::from(matrix.spoofable_shared >= matrix.spoofable_control),
    );
    // Control-passers must be a subset of shared-passers (a record open
    // enough to pass from a least-covered address passes from the
    // most-covered ones too) — equivalently, the lazy-gatekeeper union
    // adds nothing beyond the shared count.
    exp.plain(
        "Every control pass is also a shared pass (+all passes everywhere)",
        1.0,
        f64::from(matrix.lazy_gatekeepers == matrix.spoofable_shared),
    );
    exp.note(format!(
        "The matrix evaluated {} cells ({} sampled for the uncached recount); \
         the byte-identity of cached vs uncached verdicts is pinned exactly by \
         tests/auth_matrix_stress.rs and the proptest suite — the flags here \
         are the cheap in-run smoke version.",
        stats.evaluations, sampled_cells
    ));
    (out, exp, stats)
}

/// Matrix v2, behind `repro -- spoof-matrix --stack`: the layered
/// auth-stack pipeline of DESIGN.md §13. Every `(vantage, domain)` cell
/// carries the same SPF verdict as the bare-row fold (pinned in-run by a
/// byte comparison of the embedded SPF sub-matrix), and on top of it
/// the victim domain's DMARC disposition and MTA-STS mode name the
/// *first layer that stops an aligned spoof* — [`StopLayer`]. The
/// rendered report buckets the population by [`DeploymentMix`] preset
/// and shows, per tier, where attacker-reachable attempts die and what
/// residue stays spoofable through the whole stack.
pub fn spoof_matrix_stacked(
    denominator: u64,
    seed: u64,
    config: CrawlConfig,
) -> (String, Experiment) {
    let world = build_spoof_world(Scale { denominator }, seed);
    let (resolver, _wire) = build_resolver(&world.store, config.backend);

    let walker = Walker::new(Arc::clone(&resolver));
    let output = crawl(&walker, &world.domains, config);
    let weighted = output.coverage.into_weighted();
    let provider_vantages: Vec<ProviderVantage> = world
        .providers
        .iter()
        .map(|p| ProviderVantage {
            label: format!("hosting{}", p.id),
            web: p.web_ip,
            mta: p.mta_ip,
        })
        .collect();
    let vantages = select_vantages(
        &weighted,
        &provider_vantages,
        DEFAULT_TOP_COVERAGE,
        DEFAULT_CONTROLS,
        seed,
    );
    let attacker_vantages = vantages
        .iter()
        .filter(|v| v.kind.attacker_reachable())
        .count() as u64;

    // A caller-owned layer memo shared across both runs: the first run
    // is cold per domain, the warm re-run must serve every DMARC and
    // MTA-STS fact from the memo (the hit rate the report prints).
    let auth_cache = AuthCache::new();
    let (auth, stats) =
        auth_matrix_with_cache(&resolver, &world.domains, &vantages, config, &auth_cache);
    let (auth_warm, warm_stats) =
        auth_matrix_with_cache(&resolver, &world.domains, &vantages, config, &auth_cache);

    let mut out = String::new();
    out.push_str("Auth-stack matrix v2: layered stop attribution (DESIGN.md §13)\n");
    out.push_str(&format!(
        "  {} domains × {} vantages ({} attacker-reachable)\n",
        fmt_count(auth.spf.domains),
        vantages.len(),
        attacker_vantages,
    ));
    out.push_str(&format!(
        "  DMARC published on {} domains ({} enforced); MTA-STS enforce on {}\n",
        fmt_count(auth.dmarc_domains),
        fmt_count(auth.dmarc_enforced_domains),
        fmt_count(auth.mta_sts_enforced_domains),
    ));
    out.push_str(&format!(
        "  residual spoofable through the full stack: {} ({} of the population, \
         full-scale {})\n",
        fmt_count(auth.residual_spoofable),
        fmt_percent(auth.residual_rate()),
        fmt_count(auth.residual_spoofable * denominator),
    ));
    out.push_str(&format!(
        "  warm re-run DMARC-memo hit rate: {} ({} layer lookups served \
         without a wire query)\n\n",
        fmt_percent(warm_stats.auth_cache.dmarc_hit_rate()),
        fmt_count(
            (warm_stats.auth_cache.dmarc_hits - stats.auth_cache.dmarc_hits)
                + (warm_stats.auth_cache.sts_hits - stats.auth_cache.sts_hits)
        ),
    ));

    let mut tier_table = Table::new(
        "Stop attribution by deployment mix",
        &[
            "Mix",
            "Domains",
            "stop=spf",
            "stop=dmarc",
            "stop=mta-sts",
            "open",
            "Residual spoofable",
        ],
    );
    for mix in DeploymentMix::ALL {
        let tier = auth.tier(mix);
        tier_table.push_row(vec![
            mix.to_string(),
            fmt_count(tier.domains),
            fmt_percent(tier.stop_rate(StopLayer::Spf)),
            fmt_percent(tier.stop_rate(StopLayer::Dmarc)),
            fmt_percent(tier.stop_rate(StopLayer::MtaSts)),
            fmt_percent(tier.stop_rate(StopLayer::None)),
            fmt_count(tier.residual_spoofable),
        ]);
    }
    out.push_str(&tier_table.render());

    let mut exp = Experiment::new("Auth-stack matrix v2", "layered stop attribution");
    // The safety rail, in-run: the embedded SPF sub-matrix must be
    // byte-identical to the bare-row fold — every row evaluated with no
    // pool, verdict cache or compiler.
    let bare = bare_row_fold(&resolver, &world.domains, &vantages, &EvalPolicy::default());
    exp.plain(
        "SPF sub-matrix byte-identical to the bare-row fold",
        1.0,
        f64::from(
            serde_json::to_string(&auth.spf).expect("serializes")
                == serde_json::to_string(&bare).expect("serializes"),
        ),
    );
    exp.plain(
        "Warm re-run byte-identical with all layers memo-served",
        1.0,
        f64::from(
            auth == auth_warm && warm_stats.auth_cache.dmarc_hits > stats.auth_cache.dmarc_hits,
        ),
    );
    exp.plain(
        "Auth matrix conservation laws hold (tiers and vantages)",
        1.0,
        f64::from(auth.check_conservation().is_ok()),
    );
    // The paper's thesis, stacked: an *authorized* attacker (SPF pass
    // from shared infrastructure) is invisible to every aligned upper
    // layer, so the SPF shared-pass cohort is a floor on the residual.
    exp.plain(
        "Every v1 shared-infrastructure pass stays residually spoofable",
        1.0,
        f64::from(auth.residual_spoofable >= bare.spoofable_shared),
    );
    exp.note(format!(
        "The stacked engine evaluated {} SPF cells plus {} DMARC and {} MTA-STS \
         layer lookups (cold run); stop attribution is pure per-cell \
         (`stop_layer`), so the whole report folds and merges exactly like v1.",
        stats.engine.evaluations, stats.auth_cache.dmarc_misses, stats.auth_cache.sts_misses,
    ));
    (out, exp)
}

/// The longitudinal trend pipeline behind `repro -- trends`: simulate
/// `epochs` virtual months of seeded zone churn over the calibrated
/// population and advance the [`ChurnEngine`] one epoch at a time. Each
/// epoch re-crawls only the churned and TTL-expired domains, folds
/// their old contributions out of the coverage map and spoof matrix and
/// the fresh ones in, and renders one trend row — the lazy-gatekeeper
/// rate as a time series from a fixed vantage set (DESIGN.md §12).
///
/// The in-run consistency flags pin the whole point of the design: the
/// final epoch's reports, weighted coverage, and spoof matrix are
/// byte-identical to a from-scratch recompute of the churned zone, and
/// every incremental epoch touched a strict subset of the population.
pub fn trends(
    denominator: u64,
    seed: u64,
    config: CrawlConfig,
    epochs: u64,
    churn_rate: f64,
) -> (String, Experiment) {
    const MONTH: Duration = Duration::from_secs(30 * 86_400);
    let population = Population::build(PopulationConfig {
        scale: Scale { denominator },
        seed,
    });
    let store = Arc::clone(&population.store);
    let (resolver, wire) = build_resolver(&store, config.backend);
    let walker = Walker::new(resolver);
    let lcfg = LongitudinalConfig::default().crawl(config);
    let engine = ChurnEngine::bootstrap(&walker, population.domains.clone(), lcfg);

    // The fixed observation points: chosen once from the bootstrap
    // coverage profile and held constant, so epoch-over-epoch matrix
    // deltas measure the population's drift, not the vantage set's.
    let vantages = select_vantages(
        &engine.weighted(),
        &[],
        DEFAULT_TOP_COVERAGE,
        DEFAULT_CONTROLS,
        seed,
    );
    engine.attach_matrix(walker.resolver(), vantages.clone(), config);

    let mut sim = ChurnSimulator::new(
        Arc::clone(&store),
        population.domains.clone(),
        ChurnConfig {
            rate: churn_rate,
            seed,
            ..ChurnConfig::default()
        },
    );

    let mut trend = Table::new(
        "Lazy-gatekeeper trend (simulated months)",
        &[
            "Epoch",
            "Events",
            "Recrawled",
            "Churned",
            "TTL-due",
            "SPF domains",
            "Lazy gatekeepers",
            "Rate",
        ],
    );
    let bootstrap_matrix = engine.matrix().expect("matrix attached");
    trend.push_row(vec![
        "0 (bootstrap)".to_string(),
        "-".to_string(),
        fmt_count(population.domains.len() as u64),
        "-".to_string(),
        "-".to_string(),
        fmt_count(engine.spf_domains()),
        fmt_count(bootstrap_matrix.lazy_gatekeepers),
        fmt_percent(bootstrap_matrix.lazy_gatekeeper_rate()),
    ]);

    let mut kind_census: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_events = 0u64;
    let mut total_recrawled = 0u64;
    let mut max_recrawled = 0u64;
    for epoch in 1..=epochs {
        let batch = sim.next_epoch();
        for event in &batch.events {
            *kind_census.entry(format!("{:?}", event.kind)).or_default() += 1;
        }
        total_events += batch.events.len() as u64;
        batch.apply(&store);
        if let Some(run) = &wire {
            // The fleet serves the live zone, but the client keeps each
            // answer for its DNS TTL in real time, and a virtual month
            // outlasts every TTL.
            run.resolver.clear_cache();
        }
        // The zone already mutated above, so the delta delivers the
        // invalidation set with a no-op apply.
        engine.deliver(ZoneDelta::new(batch.domains(), || {}));
        let report = engine.step(&walker, MONTH * u32::try_from(epoch).unwrap_or(u32::MAX));
        let matrix = engine.matrix().expect("matrix attached");
        total_recrawled += report.recrawled;
        max_recrawled = max_recrawled.max(report.recrawled);
        trend.push_row(vec![
            epoch.to_string(),
            fmt_count(batch.events.len() as u64),
            fmt_count(report.recrawled),
            fmt_count(report.delta_domains),
            fmt_count(report.expired_domains),
            fmt_count(engine.spf_domains()),
            fmt_count(matrix.lazy_gatekeepers),
            fmt_percent(matrix.lazy_gatekeeper_rate()),
        ]);
    }
    drop(wire);

    let mut out = String::new();
    out.push_str("Longitudinal trends: TTL-driven incremental re-crawl over a churning zone\n");
    out.push_str(&format!(
        "  {} domains, {} epochs (virtual months) at {} churn/month, {} vantages\n",
        fmt_count(population.domains.len() as u64),
        epochs,
        fmt_percent(churn_rate),
        vantages.len(),
    ));
    out.push_str(&format!(
        "  {} churn events total; incremental re-crawls touched {} domain-epochs \
         (full rescans would have touched {})\n\n",
        fmt_count(total_events),
        fmt_count(total_recrawled),
        fmt_count(population.domains.len() as u64 * epochs),
    ));
    out.push_str(&trend.render());
    out.push('\n');
    let census: Vec<String> = kind_census
        .iter()
        .map(|(kind, count)| format!("{kind} ×{count}"))
        .collect();
    out.push_str(&format!("  churn mix: {}\n", census.join(", ")));
    if let Some((addr, weight)) = engine.weighted().max_coverage() {
        out.push_str(&format!(
            "  most-covered address after churn: {addr} ({} domains authorize it)\n",
            fmt_count(weight),
        ));
    }

    // The delta-exactness pins: recompute the churned zone from scratch
    // (in-memory — reports are backend-identical) and compare bytes.
    let mut exp = Experiment::new("Longitudinal trends", "churn engine vs full recompute");
    let fresh_walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
    let full = crawl(
        &fresh_walker,
        &population.domains,
        CrawlConfig::with_workers(config.workers),
    );
    let reports_identical = serde_json::to_string(&engine.reports()).expect("serialize reports")
        == serde_json::to_string(&full.reports).expect("serialize reports");
    let weighted_identical = serde_json::to_string(&engine.weighted()).expect("serialize coverage")
        == serde_json::to_string(&full.coverage.weighted()).expect("serialize coverage");
    let fresh_resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&store)));
    let (fresh_matrix, _) = auth_matrix(&fresh_resolver, &population.domains, &vantages, config);
    let matrix_identical = serde_json::to_string(&engine.matrix().expect("matrix attached"))
        .expect("serialize matrix")
        == serde_json::to_string(&fresh_matrix.spf).expect("serialize matrix");
    exp.plain(
        "Folded reports byte-identical to full recompute",
        1.0,
        f64::from(reports_identical),
    );
    exp.plain(
        "Folded coverage byte-identical to full recompute",
        1.0,
        f64::from(weighted_identical),
    );
    exp.plain(
        "Folded spoof matrix byte-identical to fresh matrix",
        1.0,
        f64::from(matrix_identical),
    );
    exp.plain(
        "Every incremental epoch re-crawled a strict subset",
        1.0,
        f64::from(epochs == 0 || max_recrawled < population.domains.len() as u64),
    );
    exp.note(format!(
        "{} epochs of {} churn re-crawled {} domain-epochs instead of {}; the \
         byte-identity flags above are the in-run smoke version of the exhaustive \
         pins in tests/proptest_churn.rs and tests/churn_stress.rs.",
        epochs,
        fmt_percent(churn_rate),
        fmt_count(total_recrawled),
        fmt_count(population.domains.len() as u64 * epochs),
    ));
    (out, exp)
}

/// Everything the verdict service needs from a prepared world: the
/// shared zone store, the population in rank order, and the attacker
/// vantage addresses (top-coverage first) traffic mixes target.
///
/// Built once by [`service_lab`] and shared by `repro -- serve` and
/// `repro -- traffic`, so both serve the same world the spoof matrix
/// scored.
pub struct ServiceLab {
    /// The merged population + hosting zone store.
    pub store: Arc<ZoneStore>,
    /// Population domains in rank order (hot-set sampling relies on it).
    pub domains: Vec<spf_types::DomainName>,
    /// Vantage addresses, shared-coverage first — the IPs attacker-burst
    /// traffic queries from.
    pub vantage_ips: Vec<std::net::IpAddr>,
}

/// Build the verdict service's world at `1:denominator` scale: generate
/// the spoof world, run one coverage crawl, and select the overlap
/// engine's vantage addresses.
pub fn service_lab(denominator: u64, seed: u64, workers: usize) -> ServiceLab {
    let world = build_spoof_world(Scale { denominator }, seed);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    let walker = Walker::new(resolver);
    let output = crawl(&walker, &world.domains, CrawlConfig::with_workers(workers));
    let weighted = output.coverage.into_weighted();
    let provider_vantages: Vec<ProviderVantage> = world
        .providers
        .iter()
        .map(|p| ProviderVantage {
            label: format!("hosting{}", p.id),
            web: p.web_ip,
            mta: p.mta_ip,
        })
        .collect();
    let vantages = select_vantages(
        &weighted,
        &provider_vantages,
        DEFAULT_TOP_COVERAGE,
        DEFAULT_CONTROLS,
        seed,
    );
    ServiceLab {
        store: Arc::clone(&world.store),
        domains: world.domains,
        vantage_ips: vantages
            .iter()
            .map(|v| std::net::IpAddr::V4(v.ip))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Repro {
        prepare(5_000, 0x5bf1_2023, 4)
    }

    #[test]
    fn all_pipelines_run_at_tiny_scale() {
        let r = quick();
        let (t1, e1) = table1(&r);
        assert!(t1.render().contains("Our study (measured)"));
        assert!(e1.rows.len() >= 4);
        let (f1, _) = figure1(&r);
        assert!(f1.render().contains("SPF"));
        let (f2, e2) = figure2(&r);
        assert!(f2.contains("Syntax Error"));
        assert_eq!(e2.rows.len(), 9);
        let (f3, _) = figure3(&r);
        assert!(f3.contains("No SPF Record"));
        let (f4, e4) = figure4(&r);
        assert!(f4.render().contains("fathost"));
        assert!(e4.rows.len() >= 3);
        let (t3, _) = table3(&r);
        assert!(t3.render().contains("/16"));
        let (t4, e4b) = table4(&r);
        assert!(t4.render().contains("spf.protection.outlook.com"));
        assert!(e4b.rows.len() == 40);
        let (f5, e5) = figure5(&r);
        assert!(f5.contains("2^19"));
        assert!(e5.rows.len() == 3);
        let (f6, _) = figure6(&r);
        assert!(f6.contains(">10"));
        let (f7, e7) = figure7(&r);
        assert!(f7.contains("/32"));
        assert!(
            e7.worst_relative_error() < 1e-9,
            "figure 7 shape flags must hold"
        );
        let (f8, _) = figure8(&r);
        assert!(f8.contains("2^20"));
        let (ex, _) = extras(&r);
        assert!(ex.render().contains("PTR mechanism"));
        let (ov, eov) = overlap(&r);
        assert!(ov.contains("most-spoofable address"));
        assert!(ov.contains("Provider concentration"));
        assert!(
            eov.worst_relative_error() < 1e-9,
            "overlap consistency flags must hold"
        );
    }

    #[test]
    fn overlap_profile_survives_the_scan() {
        let r = quick();
        assert!(r.overlap_boundaries > 0);
        let report =
            OverlapReport::compute(&r.overlap, &r.eco, r.all.with_spf, DEFAULT_PROVIDER_ROWS);
        // The calibrated population's biggest include trees dominate the
        // union, and plenty of domains share the hottest address.
        assert!(report.max_coverage_domains > 100);
        assert!(report.total_covered > 1_000_000);
        assert_eq!(report.providers.len(), DEFAULT_PROVIDER_ROWS);
        assert!(report.providers[0].covered_ips >= report.providers[1].covered_ips);
    }

    #[test]
    fn table2_reduces_errors() {
        let r = quick();
        let before = r.all.total_errors();
        let (t2, _, outcome, rescan_stats) = table2(&r, 4);
        assert!(rescan_stats.domains > 0);
        assert!(t2.render().contains("Total Errors"));
        assert!(outcome.sent > 0);
        // Rescan must show fewer or equal errors.
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&r.population.store)));
        let rescan = crawl(&walker, &r.population.domains, CrawlConfig::with_workers(4));
        let after = ScanAggregates::compute(&rescan.reports);
        assert!(after.total_errors() <= before);
    }

    #[test]
    fn wire_mode_prepare_matches_in_memory() {
        let mem = quick();
        let wire = prepare_with(
            5_000,
            0x5bf1_2023,
            CrawlConfig::with_workers(4).backend(Backend::wire(2)),
        );
        let run = wire.wire.as_ref().expect("wire mode carries its substrate");
        let snap = run.snapshot();
        assert!(
            snap.wire_queries > 0,
            "crawl must hit the sockets: {snap:?}"
        );
        assert!(run.fleet.answered() > 0);
        // The `[wire]` line renders through the shared formatter, and
        // the fleet's answers account for the client's datagrams.
        let stats = run.stats(wire.stats.domains);
        let line = stats.render();
        assert!(line.starts_with("[wire] amplification="), "{line}");
        assert!(line.contains("fleet_udp="), "{line}");
        assert_eq!(stats.check_conservation(), Ok(()), "{line}");
        // Both substrates produce byte-identical report streams.
        assert_eq!(
            serde_json::to_string(&mem.reports).unwrap(),
            serde_json::to_string(&wire.reports).unwrap(),
            "wire diverged from memory"
        );
    }

    #[test]
    fn table2_rescan_honors_wire_mode() {
        let r = prepare_with(
            20_000,
            0x5bf1_2023,
            CrawlConfig::with_workers(2).backend(Backend::wire(2)),
        );
        let before = r.all.total_errors();
        let (t2, _, outcome, rescan_stats) = table2(&r, 2);
        assert!(t2.render().contains("Total Errors"));
        assert!(outcome.sent > 0);
        assert_eq!(rescan_stats.domains, r.reports.len() as u64);
        // The rescan runs on a fleet of its own: the scan's fleet still
        // answered its own client's datagrams only.
        let run = r.wire.as_ref().expect("wire mode carries its substrate");
        let stats = run.stats(r.stats.domains);
        assert_eq!(stats.check_conservation(), Ok(()), "{}", stats.render());
        let _ = before;
    }

    #[test]
    fn spoof_matrix_runs_and_matches_table5_labels() {
        let (section, exp, _) = spoof_matrix(20_000, 0x5bf1_2023, CrawlConfig::with_workers(4));
        assert!(section.contains("Spoof matrix"));
        assert!(section.contains("lazy-gatekeeper rate"));
        assert!(section.contains("Verdicts by vantage"));
        assert!(section.contains("Table 5 replay"));
        // Every flag (five Table 5 labels + the three consistency
        // checks) must hold exactly.
        assert!(
            exp.worst_relative_error() < 1e-9,
            "spoof-matrix flags must hold"
        );
    }

    #[test]
    fn spoof_matrix_compiled_backend_reports_and_agrees() {
        let (section, exp, stats) = spoof_matrix(
            20_000,
            0x5bf1_2023,
            CrawlConfig::with_workers(4).backend(Backend::memory().evaluator(Evaluator::Compiled)),
        );
        assert!(section.contains("[compiler]"));
        assert!(section.contains("compiled backend:"));
        // The memo's counters move with the schedule, so they ride on the
        // returned stats' `[spoof]` line, not in the section.
        assert!(!section.contains("subtree_"), "{section}");
        let line = stats.render();
        assert!(line.starts_with("[spoof] evaluations="), "{line}");
        assert!(line.contains(" subtree_lookups="), "{line}");
        let subtrees = stats.subtrees.expect("the compiled run has a memo");
        assert_eq!(subtrees.check_conservation(), Ok(()));
        // The compiled run carries every plain-run flag plus the
        // compiled-vs-interpreted sample identity; all must hold.
        assert!(
            exp.rows
                .iter()
                .any(|c| c.label.contains("Compiled and cached")),
            "compiled run must pin backend equality"
        );
        assert!(
            exp.worst_relative_error() < 1e-9,
            "compiled spoof-matrix flags must hold"
        );
    }

    #[test]
    fn spoof_matrix_honors_wire_mode() {
        let (section, exp, _) = spoof_matrix(
            100_000,
            0x5bf1_2023,
            CrawlConfig::with_workers(2).backend(Backend::wire(2)),
        );
        assert!(section.contains("Spoof matrix"));
        assert!(exp.worst_relative_error() < 1e-9);
    }

    #[test]
    fn table5_runs_over_tcp() {
        let (t5, e5) = table5(1_000);
        let rendered = t5.render();
        assert!(rendered.contains("SMTP, MTA"));
        assert!(rendered.contains("None"));
        // All five success labels must match the paper exactly.
        let label_rows: Vec<&Comparison> = e5
            .rows
            .iter()
            .filter(|c| c.label.contains("success matches"))
            .collect();
        assert_eq!(label_rows.len(), 5);
        assert!(label_rows.iter().all(|c| c.measured == 1.0));
    }

    use spf_report::Comparison;
}
