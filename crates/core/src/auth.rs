//! The layered auth-stack pipeline: SPF × DMARC × MTA-STS.
//!
//! The paper's "lazy gatekeeper" question asks whether SPF *alone*
//! stops a spoof; real-world spoofability depends on the whole stack
//! (Hu et al., PAPERS.md). This module composes the unchanged SPF
//! `check_host` verdict with a per-domain DMARC disposition and an
//! MTA-STS mode into one [`AuthOutcome`], and names the first layer
//! that blocks a `(vantage, victim)` pair with [`StopLayer`].
//!
//! **Aligned-attacker model.** The spoof scenario mails as
//! `attacker@victim` with the RFC 5322 `From:` header set to the same
//! victim domain, so SPF and the From domain are always aligned: an SPF
//! `Pass` from the attacker's vantage implies a DMARC pass (DKIM is not
//! modeled — the attacker never holds the victim's signing key, and
//! DMARC needs only one aligned pass). The layer order is therefore:
//!
//! ```text
//! SPF Fail ──────────────────────────▶ StopLayer::Spf
//! SPF Pass ──────────────────────────▶ StopLayer::None   (spoof lands)
//! otherwise, DMARC quarantine/reject ▶ StopLayer::Dmarc
//! otherwise, MTA-STS mode=enforce ───▶ StopLayer::MtaSts
//! otherwise ─────────────────────────▶ StopLayer::None   (spoof lands)
//! ```
//!
//! MTA-STS is modeled as delivery-path protection for the residual
//! direct-to-MX spoof (the netsim publishes the discovery TXT with the
//! policy mode inlined — DESIGN.md §13 records the approximation).
//!
//! **Byte-identity rail.** The SPF component of an [`AuthOutcome`] is
//! the `Evaluation` the existing path produces — [`AuthOutcome::compose`]
//! stores the `check_host` / `check_host_cached` / [`CompiledPolicy`](crate::CompiledPolicy)
//! verdict unmodified, so serializing `outcome.spf` is byte-identical
//! to the bare verdict (`tests/proptest_auth.rs` pins this across random
//! worlds × cache × compiled configs).
//!
//! **Layer memos.** SPF subtree memos ([`VerdictCache`](crate::VerdictCache)) are keyed by
//! `(domain, ip, BudgetKey)` and stay valid across DMARC churn — DMARC
//! never influences SPF evaluation. The DMARC disposition and MTA-STS
//! mode are per-domain facts, read through [`auth_layers`] and memoized
//! by domain apart from the SPF verdicts: the matrix in an
//! [`AuthCache`], the verdict service in a TTL memo beside its SPF
//! verdicts. No cache holds a composed [`AuthOutcome`]; every outcome is
//! composed from the layers as read, so a layer change is seen as soon
//! as its own memo drops the old entry.

use std::fmt;

use serde::{Deserialize, Serialize};
use spf_dns::{DnsError, RecordData, RecordType, Resolver};
use spf_types::{DomainName, ShardedCache};

use crate::context::SpfResult;
use crate::dmarc::{query_dmarc, DmarcLookup, DmarcPolicy};
use crate::eval::Evaluation;

/// Which layer of the auth stack blocks a spoof attempt first.
///
/// Ordered by pipeline position; `None` means every layer let the
/// spoof through — the residual spoofable set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StopLayer {
    /// No layer blocked the attempt: the pair is spoofable.
    None,
    /// SPF returned `Fail` and the receiver rejects on hard fail.
    Spf,
    /// SPF was inconclusive but the domain publishes an enforced DMARC
    /// policy (`quarantine`/`reject`) the aligned attacker cannot pass.
    Dmarc,
    /// The residual direct-to-MX path is closed by an enforce-mode
    /// MTA-STS policy.
    MtaSts,
}

impl StopLayer {
    /// Every variant, in pipeline order — histogram iteration order.
    pub const ALL: [StopLayer; 4] = [
        StopLayer::None,
        StopLayer::Spf,
        StopLayer::Dmarc,
        StopLayer::MtaSts,
    ];
}

impl fmt::Display for StopLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopLayer::None => "none",
            StopLayer::Spf => "spf",
            StopLayer::Dmarc => "dmarc",
            StopLayer::MtaSts => "mta-sts",
        };
        f.write_str(s)
    }
}

/// A per-layer stop histogram: commutative counts, so per-worker
/// tallies merge and churn deltas fold in/out exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StopCounts {
    /// Pairs blocked by SPF `Fail`.
    pub spf: u64,
    /// Pairs blocked by an enforced DMARC policy.
    pub dmarc: u64,
    /// Pairs blocked by enforce-mode MTA-STS.
    pub mta_sts: u64,
    /// Residual spoofable pairs — no layer blocked them.
    pub none: u64,
}

impl StopCounts {
    /// Count one outcome.
    pub fn add(&mut self, layer: StopLayer) {
        match layer {
            StopLayer::None => self.none += 1,
            StopLayer::Spf => self.spf += 1,
            StopLayer::Dmarc => self.dmarc += 1,
            StopLayer::MtaSts => self.mta_sts += 1,
        }
    }

    /// Remove one previously-counted outcome (churn fold-out).
    pub fn remove(&mut self, layer: StopLayer) {
        match layer {
            StopLayer::None => self.none -= 1,
            StopLayer::Spf => self.spf -= 1,
            StopLayer::Dmarc => self.dmarc -= 1,
            StopLayer::MtaSts => self.mta_sts -= 1,
        }
    }

    /// Merge another tally in (worker-merge path).
    pub fn merge(&mut self, other: &StopCounts) {
        self.spf += other.spf;
        self.dmarc += other.dmarc;
        self.mta_sts += other.mta_sts;
        self.none += other.none;
    }

    /// All pairs counted.
    pub fn total(&self) -> u64 {
        self.spf + self.dmarc + self.mta_sts + self.none
    }

    /// The count for one layer.
    pub fn get(&self, layer: StopLayer) -> u64 {
        match layer {
            StopLayer::None => self.none,
            StopLayer::Spf => self.spf,
            StopLayer::Dmarc => self.dmarc,
            StopLayer::MtaSts => self.mta_sts,
        }
    }
}

/// The per-domain DMARC layer, distilled from a [`DmarcLookup`] to the
/// fields the stop decision and the cache fingerprint need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DmarcDisposition {
    /// No `_dmarc` record at the domain or its organizational domain.
    Absent,
    /// A record exists but failed to parse — receivers ignore it.
    Invalid,
    /// The lookup failed transiently; treated as absent for the stop
    /// decision (fail-open, as receivers do) but fingerprinted apart.
    TempError,
    /// `p=none`: monitoring only, nothing is blocked.
    Monitor,
    /// `p=quarantine` or `p=reject` with its sampling percentage.
    Enforced {
        /// The published policy (never `None` here).
        policy: DmarcPolicy,
        /// `pct=` sampling percentage (100 = always enforced).
        percent: u8,
    },
}

impl DmarcDisposition {
    /// Distill a lookup result.
    pub fn from_lookup(lookup: &DmarcLookup) -> DmarcDisposition {
        match lookup {
            DmarcLookup::NotFound => DmarcDisposition::Absent,
            DmarcLookup::Invalid(_) => DmarcDisposition::Invalid,
            DmarcLookup::TempError => DmarcDisposition::TempError,
            DmarcLookup::Found(record) => match record.policy {
                DmarcPolicy::None => DmarcDisposition::Monitor,
                policy => DmarcDisposition::Enforced {
                    policy,
                    percent: record.percent,
                },
            },
        }
    }

    /// Does this disposition block an aligned attacker whose SPF result
    /// is inconclusive? `pct=0` publishes an enforced policy that
    /// samples nothing, so it does not block.
    pub fn is_enforced(&self) -> bool {
        matches!(self, DmarcDisposition::Enforced { percent, .. } if *percent > 0)
    }

    /// Does a receiver act on this disposition at all — report, and
    /// enforce where it says so? A published, parseable policy is usable
    /// even at `pct=0`; an absent, invalid or unreachable one is not.
    pub fn is_usable(&self) -> bool {
        matches!(
            self,
            DmarcDisposition::Monitor | DmarcDisposition::Enforced { .. }
        )
    }
}

impl fmt::Display for DmarcDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmarcDisposition::Absent => f.write_str("absent"),
            DmarcDisposition::Invalid => f.write_str("invalid"),
            DmarcDisposition::TempError => f.write_str("temperror"),
            DmarcDisposition::Monitor => f.write_str("p=none"),
            DmarcDisposition::Enforced { policy, percent } => {
                write!(f, "p={policy} pct={percent}")
            }
        }
    }
}

/// The MTA-STS layer as the netsim models it: the `_mta-sts.<domain>`
/// discovery TXT carries the policy mode inline (`mode=enforce` /
/// `mode=testing`) instead of requiring the HTTPS policy fetch —
/// DESIGN.md §13 records the approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MtaStsMode {
    /// No `_mta-sts` TXT record.
    Absent,
    /// A policy exists but is not enforcing (testing / none / no mode).
    Testing,
    /// `mode=enforce`: the direct-to-MX residual path is closed.
    Enforce,
}

impl fmt::Display for MtaStsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MtaStsMode::Absent => "absent",
            MtaStsMode::Testing => "testing",
            MtaStsMode::Enforce => "enforce",
        };
        f.write_str(s)
    }
}

/// Query the `_mta-sts.<domain>` discovery TXT. Charges the resolver
/// like any other wire query; a transient DNS failure degrades to
/// [`MtaStsMode::Absent`] (fail-open, like receivers without a cached
/// policy).
pub fn query_mta_sts<R: Resolver + ?Sized>(resolver: &R, domain: &DomainName) -> MtaStsMode {
    let Ok(name) = domain.prepend_label("_mta-sts") else {
        return MtaStsMode::Absent;
    };
    let answers = match resolver.query(&name, RecordType::Txt) {
        Ok(a) => a,
        Err(DnsError::NxDomain) | Err(_) => return MtaStsMode::Absent,
    };
    for rr in answers.iter() {
        if let RecordData::Txt(t) = &rr.data {
            let joined = t.text();
            let head = joined.trim_start().as_bytes().get(..7);
            if head.is_some_and(|head| head.eq_ignore_ascii_case(b"v=STSv1")) {
                let enforcing = joined
                    .split(';')
                    .any(|part| part.trim().eq_ignore_ascii_case("mode=enforce"));
                return if enforcing {
                    MtaStsMode::Enforce
                } else {
                    MtaStsMode::Testing
                };
            }
        }
    }
    MtaStsMode::Absent
}

/// The first layer that blocks an aligned spoof attempt, given the
/// three per-layer facts. Pure and total — the whole pipeline's
/// determinism reduces to this function plus the determinism of its
/// inputs.
pub fn stop_layer(spf: SpfResult, dmarc: &DmarcDisposition, mta_sts: MtaStsMode) -> StopLayer {
    match spf {
        // The receiver rejects on hard fail — SPF did its job.
        SpfResult::Fail => StopLayer::Spf,
        // The attacker's vantage is authorized: every aligned layer
        // passes with it. The lazy gatekeeper in full.
        SpfResult::Pass => StopLayer::None,
        // Inconclusive SPF: DMARC is the layer that turns "no answer"
        // into a disposition the aligned attacker cannot satisfy.
        _ if dmarc.is_enforced() => StopLayer::Dmarc,
        _ if mta_sts == MtaStsMode::Enforce => StopLayer::MtaSts,
        _ => StopLayer::None,
    }
}

/// A domain's auth-stack deployment tier — the five-preset mix the
/// netsim models per-domain and matrix v2 reports per-layer stop rates
/// against. Classified from *observed* DNS (the crawler never trusts
/// generator metadata), so the same enum describes both synthetic
/// presets and measured populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeploymentMix {
    /// No SPF record at all.
    NoAuth,
    /// SPF only — no usable DMARC.
    SpfOnly,
    /// SPF plus a monitoring-only DMARC (`p=none`).
    SpfDmarcNone,
    /// SPF plus an enforced DMARC (`quarantine`/`reject`, `pct>0`).
    SpfDmarcEnforced,
    /// The full stack: enforced DMARC plus enforce-mode MTA-STS.
    FullStack,
}

impl DeploymentMix {
    /// Every tier, in stack-depth order.
    pub const ALL: [DeploymentMix; 5] = [
        DeploymentMix::NoAuth,
        DeploymentMix::SpfOnly,
        DeploymentMix::SpfDmarcNone,
        DeploymentMix::SpfDmarcEnforced,
        DeploymentMix::FullStack,
    ];

    /// Classify a domain from its observed layer facts.
    pub fn classify(has_spf: bool, dmarc: &DmarcDisposition, mta_sts: MtaStsMode) -> DeploymentMix {
        if !has_spf {
            return DeploymentMix::NoAuth;
        }
        match (dmarc, mta_sts) {
            (d, MtaStsMode::Enforce) if d.is_enforced() => DeploymentMix::FullStack,
            (d, _) if d.is_enforced() => DeploymentMix::SpfDmarcEnforced,
            (DmarcDisposition::Monitor, _) => DeploymentMix::SpfDmarcNone,
            // Invalid/absent/temperror/pct=0 DMARC all behave as no
            // usable DMARC layer.
            _ => DeploymentMix::SpfOnly,
        }
    }
}

impl fmt::Display for DeploymentMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeploymentMix::NoAuth => "no-auth",
            DeploymentMix::SpfOnly => "spf-only",
            DeploymentMix::SpfDmarcNone => "spf+dmarc-none",
            DeploymentMix::SpfDmarcEnforced => "spf+dmarc-enforced",
            DeploymentMix::FullStack => "spf+dmarc+mta-sts",
        };
        f.write_str(s)
    }
}

/// The stacked verdict for one `(vantage ip, victim domain)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuthOutcome {
    /// The SPF component — byte-identical to what the bare path
    /// produces for the same inputs (the safety rail).
    pub spf: Evaluation,
    /// The victim domain's DMARC layer.
    pub dmarc: DmarcDisposition,
    /// The victim domain's MTA-STS layer.
    pub mta_sts: MtaStsMode,
    /// The first layer that blocks the attempt.
    pub stop: StopLayer,
}

impl AuthOutcome {
    /// Compose an outcome from already-evaluated layers.
    pub fn compose(spf: Evaluation, dmarc: DmarcDisposition, mta_sts: MtaStsMode) -> AuthOutcome {
        let stop = stop_layer(spf.result, &dmarc, mta_sts);
        AuthOutcome {
            spf,
            dmarc,
            mta_sts,
            stop,
        }
    }
}

/// A per-domain memo for the DMARC and MTA-STS layers over a frozen
/// zone: two keep-first [`ShardedCache`]s.
///
/// DMARC and MTA-STS facts are per *victim domain* while the matrix
/// evaluates per `(vantage, victim)` pair, so without this memo every
/// extra vantage re-pays the `_dmarc` (and fallback) lookups. Hit
/// rates feed `repro spoof-matrix --stack`. Nothing expires: a caller
/// whose zone moves drops the cache or [`invalidate`](AuthCache::invalidate)s
/// the domain (the verdict service, whose zone is live, keeps its layers
/// in a TTL memo instead).
#[derive(Default)]
pub struct AuthCache {
    dmarc: ShardedCache<DmarcDisposition>,
    sts: ShardedCache<MtaStsMode>,
}

/// Counter snapshot from an [`AuthCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AuthCacheStats {
    /// DMARC lookups served from the memo.
    pub dmarc_hits: u64,
    /// DMARC lookups that went to the resolver.
    pub dmarc_misses: u64,
    /// MTA-STS lookups served from the memo.
    pub sts_hits: u64,
    /// MTA-STS lookups that went to the resolver.
    pub sts_misses: u64,
}

impl AuthCacheStats {
    /// Fraction of DMARC lookups served from the memo.
    pub fn dmarc_hit_rate(&self) -> f64 {
        let total = self.dmarc_hits + self.dmarc_misses;
        if total == 0 {
            0.0
        } else {
            self.dmarc_hits as f64 / total as f64
        }
    }
}

impl fmt::Debug for AuthCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuthCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl AuthCache {
    /// An empty cache.
    pub fn new() -> AuthCache {
        AuthCache::default()
    }

    /// The domain's DMARC disposition, querying through `resolver` on a
    /// miss.
    pub fn dmarc<R: Resolver + ?Sized>(
        &self,
        resolver: &R,
        domain: &DomainName,
    ) -> DmarcDisposition {
        // Query outside the lock: the worst case is a duplicated lookup
        // racing another worker, never a lock held across the wire.
        self.dmarc.get(domain).unwrap_or_else(|| {
            let fresh = DmarcDisposition::from_lookup(&query_dmarc(resolver, domain));
            self.dmarc.insert_if_absent(domain, fresh)
        })
    }

    /// The domain's MTA-STS mode, querying through `resolver` on a miss.
    pub fn mta_sts<R: Resolver + ?Sized>(&self, resolver: &R, domain: &DomainName) -> MtaStsMode {
        self.sts.get(domain).unwrap_or_else(|| {
            self.sts
                .insert_if_absent(domain, query_mta_sts(resolver, domain))
        })
    }

    /// Drop `domain`'s memoized layers (churn invalidation), keeping the
    /// counters.
    pub fn invalidate(&self, domain: &DomainName) {
        self.dmarc.remove(domain);
        self.sts.remove(domain);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AuthCacheStats {
        let (dmarc, sts) = (self.dmarc.stats(), self.sts.stats());
        AuthCacheStats {
            dmarc_hits: dmarc.hits,
            dmarc_misses: dmarc.misses,
            sts_hits: sts.hits,
            sts_misses: sts.misses,
        }
    }
}

/// The domain's DMARC disposition and MTA-STS mode — through `cache`
/// when given, straight from `resolver` otherwise.
pub fn auth_layers<R: Resolver + ?Sized>(
    resolver: &R,
    domain: &DomainName,
    cache: Option<&AuthCache>,
) -> (DmarcDisposition, MtaStsMode) {
    match cache {
        Some(cache) => (
            cache.dmarc(resolver, domain),
            cache.mta_sts(resolver, domain),
        ),
        None => (
            DmarcDisposition::from_lookup(&query_dmarc(resolver, domain)),
            query_mta_sts(resolver, domain),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    fn world() -> (Arc<ZoneStore>, ZoneResolver) {
        let store = Arc::new(ZoneStore::new());
        let resolver = ZoneResolver::new(Arc::clone(&store));
        (store, resolver)
    }

    #[test]
    fn stop_layer_order_is_spf_dmarc_sts_none() {
        let enforced = DmarcDisposition::Enforced {
            policy: DmarcPolicy::Reject,
            percent: 100,
        };
        let monitor = DmarcDisposition::Monitor;
        assert_eq!(
            stop_layer(SpfResult::Fail, &enforced, MtaStsMode::Enforce),
            StopLayer::Spf
        );
        assert_eq!(
            stop_layer(SpfResult::Pass, &enforced, MtaStsMode::Enforce),
            StopLayer::None,
            "an authorized attacker vantage passes every aligned layer"
        );
        assert_eq!(
            stop_layer(SpfResult::SoftFail, &enforced, MtaStsMode::Absent),
            StopLayer::Dmarc
        );
        assert_eq!(
            stop_layer(SpfResult::None, &monitor, MtaStsMode::Enforce),
            StopLayer::MtaSts
        );
        assert_eq!(
            stop_layer(SpfResult::Neutral, &monitor, MtaStsMode::Testing),
            StopLayer::None
        );
    }

    #[test]
    fn pct_zero_does_not_enforce() {
        let sampled_out = DmarcDisposition::Enforced {
            policy: DmarcPolicy::Reject,
            percent: 0,
        };
        assert!(!sampled_out.is_enforced());
        assert_eq!(
            stop_layer(SpfResult::None, &sampled_out, MtaStsMode::Absent),
            StopLayer::None
        );
    }

    #[test]
    fn usable_and_enforced_per_disposition() {
        let enforced = |percent| DmarcDisposition::Enforced {
            policy: DmarcPolicy::Quarantine,
            percent,
        };
        // (disposition, usable, enforced)
        let table = [
            (DmarcDisposition::Absent, false, false),
            (DmarcDisposition::Invalid, false, false),
            (DmarcDisposition::TempError, false, false),
            (DmarcDisposition::Monitor, true, false),
            (enforced(0), true, false),
            (enforced(100), true, true),
        ];
        for (disposition, usable, is_enforced) in table {
            assert_eq!(disposition.is_usable(), usable, "{disposition}");
            assert_eq!(disposition.is_enforced(), is_enforced, "{disposition}");
        }
    }

    #[test]
    fn mta_sts_modes_parse_from_discovery_txt() {
        let (store, resolver) = world();
        let enforce = dom("enforce.example");
        let testing = dom("testing.example");
        let bare = dom("bare.example");
        store.add_txt(
            &enforce.prepend_label("_mta-sts").unwrap(),
            "v=STSv1; id=20230101; mode=enforce",
        );
        store.add_txt(
            &testing.prepend_label("_mta-sts").unwrap(),
            "v=STSv1; id=20230101; mode=testing",
        );
        store.add_txt(&bare.prepend_label("_mta-sts").unwrap(), "v=STSv1; id=1");
        assert_eq!(query_mta_sts(&resolver, &enforce), MtaStsMode::Enforce);
        assert_eq!(query_mta_sts(&resolver, &testing), MtaStsMode::Testing);
        assert_eq!(query_mta_sts(&resolver, &bare), MtaStsMode::Testing);
        assert_eq!(
            query_mta_sts(&resolver, &dom("nothing.example")),
            MtaStsMode::Absent
        );
    }

    #[test]
    fn a_multi_byte_character_in_the_sts_tag_is_no_policy() {
        let (store, resolver) = world();
        let garbled = dom("garbled.example");
        store.add_txt(
            &garbled.prepend_label("_mta-sts").unwrap(),
            "v=STSv\u{e9}; mode=enforce",
        );
        assert_eq!(query_mta_sts(&resolver, &garbled), MtaStsMode::Absent);
    }

    #[test]
    fn auth_cache_memoizes_and_invalidates() {
        let (store, resolver) = world();
        let d = dom("victim.example");
        store.add_txt(&d.prepend_label("_dmarc").unwrap(), "v=DMARC1; p=reject");
        let cache = AuthCache::new();
        let first = cache.dmarc(&resolver, &d);
        let second = cache.dmarc(&resolver, &d);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.dmarc_hits, stats.dmarc_misses), (1, 1));
        assert!((stats.dmarc_hit_rate() - 0.5).abs() < 1e-9);
        // Churn the record; the stale memo survives until invalidated.
        store.replace_txt(&d.prepend_label("_dmarc").unwrap(), "v=DMARC1; p=none");
        assert_eq!(cache.dmarc(&resolver, &d), first);
        cache.invalidate(&d);
        assert_eq!(cache.dmarc(&resolver, &d), DmarcDisposition::Monitor);
    }
}
