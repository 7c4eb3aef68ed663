//! Deterministic zone churn: the longitudinal axis of the study.
//!
//! The paper is a single snapshot; this module generates the time series
//! the churn engine (`spf-crawler`'s longitudinal layer) re-measures.
//! A [`ChurnSimulator`] walks epochs over an existing [`ZoneStore`],
//! emitting seeded [`ChurnBatch`]es of [`ChurnEvent`]s — records added
//! and removed, `+all`→`-all` tightenings (and the reverse loosenings),
//! provider migrations, and MX failover flips in the spirit of
//! Ruohonen's BLBFO backup-MX study.
//!
//! **Locality contract** (DESIGN.md §12): every event *fully replaces*
//! the affected domain's own RRset with a self-contained template that
//! references only the simulator's immutable infrastructure names
//! (churn providers and failover exchanges, published once at
//! construction and never touched again). No event edits another
//! mutable domain's subtree, so the incremental re-crawl only has to
//! invalidate the churned roots themselves — every memoized *unchanged*
//! subtree stays valid.
//!
//! **Determinism**: a batch is a pure function of (seed, epoch, zone
//! state), and zone state is itself a pure function of the build seed
//! plus the prior applied batches, so two identically-built worlds
//! churned with the same seed produce byte-identical event streams.
//! Planning ([`ChurnSimulator::next_epoch`]) is separated from
//! application ([`ChurnBatch::apply`]) so a batch can be *delivered* to
//! a mid-crawl engine and deferred to the next epoch without racing the
//! crawl workers.

use std::sync::Arc;

use spf_dns::{LookupOutcome, RecordData, RecordType, ZoneStore};
use spf_types::{splitmix64, DomainName};

/// Number of immutable churn-provider includes published at
/// construction; migrations rotate among them.
const CHURN_PROVIDERS: u64 = 4;

/// What happened to a domain in one churn epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// A domain without SPF published a record.
    RecordAdded,
    /// A domain deleted its SPF record outright.
    RecordRemoved,
    /// A lax policy (`+all` / `?all` / `~all` / missing `all`) was
    /// re-published as a tight `-all` record.
    Tightened,
    /// A tight `-all` record was re-published with a lax qualifier —
    /// a fresh lazy gatekeeper.
    Loosened,
    /// The domain migrated to a different (churn-)provider include.
    ProviderMigration,
    /// The domain's MX exchange set flipped between its primary and its
    /// BLBFO-style backup host.
    MxFailover,
    /// The domain published (or tightened to) an enforced DMARC policy
    /// at `_dmarc.<domain>`.
    DmarcAdopted,
    /// The domain deleted its `_dmarc` record.
    DmarcDropped,
    /// The domain's `_mta-sts` policy toggled: published enforce-mode
    /// when absent, removed when present.
    MtaStsFlipped,
}

/// The concrete zone mutation an event performs when applied.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ZoneChange {
    /// Replace the domain's TXT RRset with this single record.
    ReplaceTxt(String),
    /// Remove the domain's TXT RRset.
    RemoveTxt,
    /// Replace the domain's MX RRset with this single exchange.
    SetMx(DomainName),
    /// Replace the `_dmarc.<domain>` TXT RRset with this record.
    SetDmarc(String),
    /// Remove the `_dmarc.<domain>` TXT RRset.
    RemoveDmarc,
    /// Replace the `_mta-sts.<domain>` TXT RRset with this record.
    SetMtaSts(String),
    /// Remove the `_mta-sts.<domain>` TXT RRset.
    RemoveMtaSts,
}

/// One domain's change in one epoch: the classification plus the exact
/// mutation to perform at apply time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Epoch the event belongs to (1-based; epoch 0 is the bootstrap
    /// snapshot).
    pub epoch: u64,
    /// The affected domain.
    pub domain: DomainName,
    /// What kind of change this is.
    pub kind: ChurnKind,
    change: ZoneChange,
}

/// One epoch's planned events, ready to apply.
#[derive(Debug, Clone)]
pub struct ChurnBatch {
    /// The epoch these events belong to.
    pub epoch: u64,
    /// The planned events, in deterministic selection order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnBatch {
    /// The distinct domains this batch touches, deduplicated in event
    /// order — the invalidation set the churn engine queues.
    pub fn domains(&self) -> Vec<DomainName> {
        let mut out: Vec<DomainName> = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            if !out.contains(&ev.domain) {
                out.push(ev.domain.clone());
            }
        }
        out
    }

    /// Apply every event's mutation to `store`, in order. Safe to call
    /// from the engine's single-threaded epoch step; must not run
    /// concurrently with a crawl over the same store.
    pub fn apply(&self, store: &ZoneStore) {
        for ev in &self.events {
            match &ev.change {
                ZoneChange::ReplaceTxt(text) => store.replace_txt(&ev.domain, text),
                ZoneChange::RemoveTxt => store.remove_type(&ev.domain, RecordType::Txt),
                ZoneChange::SetMx(exchange) => {
                    store.remove_type(&ev.domain, RecordType::Mx);
                    store.add_mx(&ev.domain, 10, exchange);
                }
                ZoneChange::SetDmarc(text) => {
                    if let Ok(name) = ev.domain.prepend_label("_dmarc") {
                        store.replace_txt(&name, text);
                    }
                }
                ZoneChange::RemoveDmarc => {
                    if let Ok(name) = ev.domain.prepend_label("_dmarc") {
                        store.remove_type(&name, RecordType::Txt);
                    }
                }
                ZoneChange::SetMtaSts(text) => {
                    if let Ok(name) = ev.domain.prepend_label("_mta-sts") {
                        store.replace_txt(&name, text);
                    }
                }
                ZoneChange::RemoveMtaSts => {
                    if let Ok(name) = ev.domain.prepend_label("_mta-sts") {
                        store.remove_type(&name, RecordType::Txt);
                    }
                }
            }
        }
    }
}

/// Which mixture of [`ChurnKind`]s an epoch draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChurnPreset {
    /// Every kind, chosen uniformly among those applicable to the
    /// domain's current state — the default longitudinal mixture.
    #[default]
    Mixed,
    /// Operators clean up: lax records tighten, SPF-less domains adopt.
    TighteningWave,
    /// Provider consolidation: records migrate between includes.
    ProviderShuffle,
    /// BLBFO failover flapping: MX exchange sets flip, policies stay.
    FailoverFlap,
    /// Auth-stack adoption wave: domains adopt or tighten DMARC and
    /// toggle MTA-STS; SPF records stay put (the deployment-mix axis
    /// of DESIGN.md §13 moving over time).
    AuthStackWave,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Fraction of the population churned per epoch (at least one
    /// domain whenever the rate is positive).
    pub rate: f64,
    /// Seed; the event stream is a pure function of (seed, zone state).
    pub seed: u64,
    /// The kind mixture.
    pub preset: ChurnPreset,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            rate: 0.01,
            seed: 0x23_c4u64,
            preset: ChurnPreset::Mixed,
        }
    }
}

/// The zone-churn simulator: plans one [`ChurnBatch`] per epoch against
/// a live [`ZoneStore`].
pub struct ChurnSimulator {
    store: Arc<ZoneStore>,
    domains: Vec<DomainName>,
    config: ChurnConfig,
    epoch: u64,
    primary_mx: DomainName,
    backup_mx: DomainName,
}

impl ChurnSimulator {
    /// Create a simulator over `store` churning `domains`, publishing
    /// the immutable churn infrastructure (provider includes and
    /// failover exchanges) if a prior simulator has not already done so.
    pub fn new(store: Arc<ZoneStore>, domains: Vec<DomainName>, config: ChurnConfig) -> Self {
        let primary_mx = name("mx.churn-primary.example");
        let backup_mx = name("mx.churn-backup.example");
        if !store.name_exists(&primary_mx) {
            for k in 0..CHURN_PROVIDERS {
                // Disjoint /26s out of TEST-NET-2, one per provider, so
                // migrations move real coverage weight.
                let text = format!("v=spf1 ip4:198.51.100.{}/26 -all", k * 64);
                store.add_txt(&provider_name(k), &text);
            }
            store.add_a(&primary_mx, std::net::Ipv4Addr::new(192, 0, 2, 200));
            store.add_a(&backup_mx, std::net::Ipv4Addr::new(192, 0, 2, 201));
        }
        ChurnSimulator {
            store,
            domains,
            config,
            epoch: 0,
            primary_mx,
            backup_mx,
        }
    }

    /// Epochs planned so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Plan the next epoch's batch from the current zone state, without
    /// applying it. The caller (or the churn engine's deferred delta)
    /// applies it with [`ChurnBatch::apply`].
    pub fn next_epoch(&mut self) -> ChurnBatch {
        self.epoch += 1;
        let mut events = Vec::new();
        if self.domains.is_empty() || self.config.rate <= 0.0 {
            return ChurnBatch {
                epoch: self.epoch,
                events,
            };
        }
        let want = (((self.domains.len() as f64) * self.config.rate).round() as usize).max(1);
        let want = want.min(self.domains.len());
        let mut rng = self
            .config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.epoch);
        let mut picked: Vec<usize> = Vec::with_capacity(want);
        // Rejection-sample distinct ranks; the churn rate is far below
        // saturation, so the attempt bound is never the binding limit.
        let mut attempts = 0usize;
        while picked.len() < want && attempts < want * 64 {
            attempts += 1;
            let idx = (splitmix64(&mut rng) % self.domains.len() as u64) as usize;
            if !picked.contains(&idx) {
                picked.push(idx);
            }
        }
        for idx in picked {
            let domain = self.domains[idx].clone();
            let roll = splitmix64(&mut rng);
            let (kind, change) = self.plan_domain(&domain, roll);
            events.push(ChurnEvent {
                epoch: self.epoch,
                domain,
                kind,
                change,
            });
        }
        ChurnBatch {
            epoch: self.epoch,
            events,
        }
    }

    /// Decide one domain's event from its current record and the preset.
    fn plan_domain(&self, domain: &DomainName, roll: u64) -> (ChurnKind, ZoneChange) {
        let spf = current_spf(&self.store, domain);
        let h = domain.precomputed_hash() ^ roll;
        let kind = match self.config.preset {
            ChurnPreset::FailoverFlap => ChurnKind::MxFailover,
            ChurnPreset::AuthStackWave => {
                match current_auth_layer(&self.store, domain) {
                    // No DMARC yet, or monitoring-only: adopt/tighten.
                    AuthLayerState::NoDmarc | AuthLayerState::Monitoring => ChurnKind::DmarcAdopted,
                    // Enforced already: the wave reaches MTA-STS.
                    AuthLayerState::Enforced => ChurnKind::MtaStsFlipped,
                }
            }
            ChurnPreset::ProviderShuffle => match spf {
                Some(_) => ChurnKind::ProviderMigration,
                None => ChurnKind::RecordAdded,
            },
            ChurnPreset::TighteningWave => match &spf {
                Some(record) if is_lax(record) => ChurnKind::Tightened,
                Some(_) => ChurnKind::ProviderMigration,
                None => ChurnKind::RecordAdded,
            },
            ChurnPreset::Mixed => {
                let mut applicable = vec![ChurnKind::MxFailover, ChurnKind::MtaStsFlipped];
                match current_auth_layer(&self.store, domain) {
                    AuthLayerState::NoDmarc | AuthLayerState::Monitoring => {
                        applicable.push(ChurnKind::DmarcAdopted)
                    }
                    AuthLayerState::Enforced => applicable.push(ChurnKind::DmarcDropped),
                }
                match &spf {
                    None => applicable.push(ChurnKind::RecordAdded),
                    Some(record) => {
                        applicable.push(ChurnKind::RecordRemoved);
                        applicable.push(ChurnKind::ProviderMigration);
                        if is_lax(record) {
                            applicable.push(ChurnKind::Tightened);
                        } else {
                            applicable.push(ChurnKind::Loosened);
                        }
                    }
                }
                applicable[(roll % applicable.len() as u64) as usize]
            }
        };
        let change = match kind {
            ChurnKind::RecordAdded => {
                if h & 1 == 0 {
                    ZoneChange::ReplaceTxt(direct_record(h, "-all"))
                } else {
                    ZoneChange::ReplaceTxt(provider_record(h % CHURN_PROVIDERS))
                }
            }
            ChurnKind::RecordRemoved => ZoneChange::RemoveTxt,
            ChurnKind::Tightened => ZoneChange::ReplaceTxt(direct_record(h, "-all")),
            ChurnKind::Loosened => {
                let qualifier = if h & 2 == 0 { "+all" } else { "?all" };
                ZoneChange::ReplaceTxt(direct_record(h, qualifier))
            }
            ChurnKind::ProviderMigration => {
                ZoneChange::ReplaceTxt(provider_record((h.rotate_right(8)) % CHURN_PROVIDERS))
            }
            ChurnKind::MxFailover => {
                let on_primary = match self.store.lookup(domain, RecordType::Mx) {
                    LookupOutcome::Records(rrs) => rrs.iter().any(|rr| match &rr.data {
                        RecordData::Mx { exchange, .. } => *exchange == self.primary_mx,
                        _ => false,
                    }),
                    _ => false,
                };
                if on_primary {
                    ZoneChange::SetMx(self.backup_mx.clone())
                } else {
                    ZoneChange::SetMx(self.primary_mx.clone())
                }
            }
            ChurnKind::DmarcAdopted => {
                let policy = if h & 4 == 0 { "reject" } else { "quarantine" };
                ZoneChange::SetDmarc(format!("v=DMARC1; p={policy}"))
            }
            ChurnKind::DmarcDropped => ZoneChange::RemoveDmarc,
            ChurnKind::MtaStsFlipped => {
                if has_mta_sts(&self.store, domain) {
                    ZoneChange::RemoveMtaSts
                } else {
                    ZoneChange::SetMtaSts(crate::deployment::mta_sts_record("enforce"))
                }
            }
        };
        (kind, change)
    }
}

/// The domain's current DMARC layer, summarized for churn planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AuthLayerState {
    NoDmarc,
    Monitoring,
    Enforced,
}

fn current_auth_layer(store: &ZoneStore, domain: &DomainName) -> AuthLayerState {
    let Ok(name) = domain.prepend_label("_dmarc") else {
        return AuthLayerState::NoDmarc;
    };
    let Some(text) = store
        .txt_strings(&name)
        .into_iter()
        .find(|t| spf_core::is_dmarc_record(t))
    else {
        return AuthLayerState::NoDmarc;
    };
    match spf_core::parse_dmarc(&text) {
        Ok(record) if record.policy != spf_core::DmarcPolicy::None => AuthLayerState::Enforced,
        Ok(_) => AuthLayerState::Monitoring,
        Err(_) => AuthLayerState::NoDmarc,
    }
}

fn has_mta_sts(store: &ZoneStore, domain: &DomainName) -> bool {
    domain
        .prepend_label("_mta-sts")
        .map(|name| !store.txt_strings(&name).is_empty())
        .unwrap_or(false)
}

/// The domain's current SPF record text, if it publishes exactly the
/// kind of record churn rewrites (any TXT starting `v=spf1`).
fn current_spf(store: &ZoneStore, domain: &DomainName) -> Option<String> {
    store
        .txt_strings(domain)
        .into_iter()
        .find(|t| t.starts_with("v=spf1"))
}

/// Lax: a record a tightening event has something to do to — any
/// non-`-all` terminal qualifier, or no `all` term.
fn is_lax(record: &str) -> bool {
    !record.trim_end().ends_with("-all")
}

fn provider_name(k: u64) -> DomainName {
    name(&format!("spf.churn-provider-{k}.example"))
}

fn provider_record(k: u64) -> String {
    format!("v=spf1 include:{} -all", provider_name(k))
}

fn direct_record(h: u64, all: &str) -> String {
    format!("v=spf1 ip4:203.0.113.{} mx {}", h % 256, all)
}

fn name(s: &str) -> DomainName {
    DomainName::parse(s).expect("static churn infrastructure name is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};
    use crate::scale::Scale;

    fn tiny_world() -> Population {
        Population::build(PopulationConfig {
            scale: Scale {
                denominator: 20_000,
            },
            ..PopulationConfig::default()
        })
    }

    #[test]
    fn identical_seeds_produce_identical_streams_and_zones() {
        let build = |seed| {
            let world = tiny_world();
            let mut sim = ChurnSimulator::new(
                Arc::clone(&world.store),
                world.domains.clone(),
                ChurnConfig {
                    rate: 0.05,
                    seed,
                    preset: ChurnPreset::Mixed,
                },
            );
            let mut log = Vec::new();
            for _ in 0..4 {
                let batch = sim.next_epoch();
                batch.apply(&world.store);
                log.extend(batch.events);
            }
            (world, log)
        };
        let (world_a, log_a) = build(7);
        let (world_b, log_b) = build(7);
        assert_eq!(log_a, log_b);
        // Spot-check the zones converged identically for every churned
        // domain.
        for ev in &log_a {
            assert_eq!(
                world_a.store.txt_strings(&ev.domain),
                world_b.store.txt_strings(&ev.domain),
                "diverged at {}",
                ev.domain
            );
        }
        let (_, log_c) = build(8);
        assert_ne!(log_a, log_c, "different seeds should differ");
    }

    #[test]
    fn events_only_touch_selected_domains_and_use_immutable_templates() {
        let world = tiny_world();
        let mut sim = ChurnSimulator::new(
            Arc::clone(&world.store),
            world.domains.clone(),
            ChurnConfig::default(),
        );
        // Infrastructure is pinned before and after churn.
        let infra: Vec<String> = (0..CHURN_PROVIDERS)
            .map(|k| world.store.txt_strings(&provider_name(k)).join(" "))
            .collect();
        let batch = sim.next_epoch();
        assert!(!batch.events.is_empty());
        batch.apply(&world.store);
        for ev in &batch.events {
            assert!(world.domains.contains(&ev.domain));
            // Replacement records are self-contained: any include points
            // at a churn provider, never another population domain.
            for txt in world.store.txt_strings(&ev.domain) {
                if let Some(target) = txt.split("include:").nth(1) {
                    let target = target.split_whitespace().next().unwrap_or("");
                    if !ev_kept_original_record(ev) {
                        assert!(
                            target.contains("churn-provider"),
                            "{} includes mutable name {}",
                            ev.domain,
                            target
                        );
                    }
                }
            }
        }
        let after: Vec<String> = (0..CHURN_PROVIDERS)
            .map(|k| world.store.txt_strings(&provider_name(k)).join(" "))
            .collect();
        assert_eq!(infra, after);
    }

    /// MX failover and the auth-stack events keep the domain's own TXT
    /// policy untouched (DMARC/MTA-STS live at `_dmarc`/`_mta-sts`
    /// child names), so the original record legitimately survives.
    fn ev_kept_original_record(ev: &ChurnEvent) -> bool {
        matches!(
            ev.kind,
            ChurnKind::MxFailover
                | ChurnKind::DmarcAdopted
                | ChurnKind::DmarcDropped
                | ChurnKind::MtaStsFlipped
        )
    }

    #[test]
    fn auth_stack_wave_moves_domains_up_the_stack() {
        let world = tiny_world();
        let mut sim = ChurnSimulator::new(
            Arc::clone(&world.store),
            world.domains.clone(),
            ChurnConfig {
                rate: 0.10,
                seed: 21,
                preset: ChurnPreset::AuthStackWave,
            },
        );
        let batch = sim.next_epoch();
        assert!(!batch.events.is_empty());
        assert!(batch
            .events
            .iter()
            .all(|ev| matches!(ev.kind, ChurnKind::DmarcAdopted | ChurnKind::MtaStsFlipped)));
        batch.apply(&world.store);
        for ev in &batch.events {
            match ev.kind {
                ChurnKind::DmarcAdopted => {
                    assert_eq!(
                        current_auth_layer(&world.store, &ev.domain),
                        AuthLayerState::Enforced,
                        "{} did not end enforced",
                        ev.domain
                    );
                }
                ChurnKind::MtaStsFlipped => {
                    // The wave only reaches MTA-STS on already-enforced
                    // domains, and a flip toggles presence.
                    assert_eq!(
                        current_auth_layer(&world.store, &ev.domain),
                        AuthLayerState::Enforced
                    );
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
        // Re-waving the same domains climbs further: every event in the
        // second epoch over the same picks is MTA-STS once DMARC is
        // enforced everywhere it touched.
        let domains: Vec<DomainName> = batch.domains();
        let mut again = ChurnSimulator::new(
            Arc::clone(&world.store),
            domains,
            ChurnConfig {
                rate: 1.0,
                seed: 22,
                preset: ChurnPreset::AuthStackWave,
            },
        );
        let second = again.next_epoch();
        second.apply(&world.store);
        assert!(second
            .events
            .iter()
            .all(|ev| ev.kind == ChurnKind::MtaStsFlipped));
    }

    #[test]
    fn failover_flips_exchange_set_not_preference() {
        let world = tiny_world();
        let mut sim = ChurnSimulator::new(
            Arc::clone(&world.store),
            world.domains.clone(),
            ChurnConfig {
                rate: 0.02,
                seed: 11,
                preset: ChurnPreset::FailoverFlap,
            },
        );
        let first = sim.next_epoch();
        first.apply(&world.store);
        let domain = &first.events[0].domain;
        let exchanges = |d: &DomainName| match world.store.lookup(d, RecordType::Mx) {
            LookupOutcome::Records(rrs) => rrs
                .iter()
                .filter_map(|rr| match &rr.data {
                    RecordData::Mx { exchange, .. } => Some(exchange.to_string()),
                    _ => None,
                })
                .collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        let primary = exchanges(domain);
        assert_eq!(primary, vec!["mx.churn-primary.example".to_string()]);
        // Flip the same domain again (new simulator, same store) — the
        // exchange SET must change, which is what makes failover visible
        // to the `mx` mechanism (preference flips would be invisible).
        let mut again = ChurnSimulator::new(
            Arc::clone(&world.store),
            vec![domain.clone()],
            ChurnConfig {
                rate: 1.0,
                seed: 12,
                preset: ChurnPreset::FailoverFlap,
            },
        );
        let second = again.next_epoch();
        second.apply(&world.store);
        assert_eq!(
            exchanges(domain),
            vec!["mx.churn-backup.example".to_string()]
        );
    }

    #[test]
    fn tightening_wave_leaves_no_lax_target_untightened() {
        let world = tiny_world();
        let mut sim = ChurnSimulator::new(
            Arc::clone(&world.store),
            world.domains.clone(),
            ChurnConfig {
                rate: 0.05,
                seed: 3,
                preset: ChurnPreset::TighteningWave,
            },
        );
        let batch = sim.next_epoch();
        batch.apply(&world.store);
        for ev in &batch.events {
            if ev.kind == ChurnKind::Tightened {
                let txts = world.store.txt_strings(&ev.domain);
                assert!(txts.iter().any(|t| t.trim_end().ends_with("-all")));
            }
        }
    }
}
