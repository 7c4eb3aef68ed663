//! The recursive record walker — the analyzer's equivalent of the study's
//! modified `checkdmarc`.
//!
//! Unlike the evaluator in `spf-core` (which stops at the first match,
//! like an MTA), the walker explores the *entire* record tree: it keeps
//! going after errors, counts every DNS-querying term recursively, unions
//! the full set of authorized IPv4 addresses, and records every problem it
//! passes. Per-domain subtree results are memoized — the same cache trick
//! the paper used so that "only for the first domain the include mechanism
//! is processed, all others hit the cache".
//!
//! Each name's record comes from `spf_core`'s one fetch step
//! ([`select_record`]), the same the evaluator and the compiler read. The
//! walker keeps its lenient view — the selected text and every syntax
//! error — and records a failed fetch as its [`FetchFailure`]; at an
//! include target, that failure's Figure 3 cause becomes a
//! record-not-found error.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spf_core::fetch::{select_record, FetchFailure, NotFoundCause};
use spf_core::parse::ParsedRecord;
use spf_dns::{DnsError, RecordData, RecordType, Resolver, RrSet};
use spf_types::{
    CacheStats, DomainName, Ipv4Cidr, Ipv4Set, MacroString, Mechanism, Modifier, ShardedCache,
    SpfRecord, Term, MAX_DNS_LOOKUPS, MAX_VOID_LOOKUPS,
};

use crate::taxonomy::{AnalysisError, ErrorClass};

/// Walker limits (defaults mirror RFC 7208 §4.6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkPolicy {
    /// DNS-lookup-term budget used for error *classification* (10).
    pub max_dns_lookups: usize,
    /// Void-lookup budget used for error classification (2).
    pub max_void_lookups: usize,
    /// Hard recursion guard.
    pub max_depth: usize,
}

impl Default for WalkPolicy {
    fn default() -> Self {
        WalkPolicy {
            max_dns_lookups: MAX_DNS_LOOKUPS,
            max_void_lookups: MAX_VOID_LOOKUPS,
            max_depth: 40,
        }
    }
}

/// Everything the walker learned about one domain's SPF record subtree.
///
/// Subtree quantities (lookups, IPs, errors) include everything reachable
/// through `include` and `redirect`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordAnalysis {
    /// The domain this record lives at.
    pub domain: DomainName,
    /// Why the fetch found no record; `None` when exactly one SPF record
    /// was found.
    pub fetch: Option<FetchFailure>,
    /// The raw record text, when found.
    pub record_text: Option<String>,
    /// The lenient parse result, when found.
    pub parsed: Option<ParsedRecord>,
    /// DNS-querying terms in the whole subtree (include/redirect included).
    pub subtree_lookups: usize,
    /// Void lookups observed while walking the subtree.
    pub subtree_void_lookups: usize,
    /// Authorized IPv4 addresses contributed by the whole subtree.
    pub ips: Ipv4Set,
    /// Every error in the subtree (loops, missing includes, syntax, …).
    pub errors: Vec<AnalysisError>,
    /// Top-level include targets (literal ones; macro targets are skipped).
    pub include_targets: Vec<DomainName>,
    /// Number of `include:` terms in the top-level record (Figure 6 counts
    /// these, including targets that later fail to resolve).
    pub top_level_include_count: usize,
    /// IPv4 networks authorized by *this record's own* ip4/a/mx terms
    /// (Table 3, "SPF: ip4, a, mx" column).
    pub direct_networks: Vec<Ipv4Cidr>,
    /// IPv4 networks contributed by included subtrees (Table 3 "include"
    /// column and Figure 7).
    pub include_networks: Vec<Ipv4Cidr>,
    /// Deepest include/redirect nesting below this record.
    pub max_depth: usize,
    /// The record uses the deprecated `ptr` mechanism somewhere in its
    /// include tree (Table 4 flags providers like mx.ovh.com with this).
    pub uses_ptr: bool,
    /// The *top-level* record itself contains a `ptr` term — §5.5's
    /// 233,167 domains are counted on this flag, not on inherited ones.
    pub uses_ptr_direct: bool,
    /// The record uses `ip6`/AAAA-capable terms at top level.
    pub uses_ip6: bool,
    /// The record carries RFC 6652 `ra`/`rp`/`rr` reporting modifiers.
    pub uses_reporting_modifiers: bool,
    /// The top-level record ends in `-all`/`~all` (or delegates via
    /// redirect); `false` is the paper's "permissive all" finding.
    pub has_restrictive_all: bool,
    /// The record is exactly a deny-all (`v=spf1 -all` / `v=spf1 ~all`) —
    /// §5.1 counts these among no-MX domains.
    pub is_deny_all_only: bool,
}

impl RecordAnalysis {
    fn empty(domain: DomainName, fetch: Option<FetchFailure>) -> Self {
        RecordAnalysis {
            domain,
            fetch,
            record_text: None,
            parsed: None,
            subtree_lookups: 0,
            subtree_void_lookups: 0,
            ips: Ipv4Set::new(),
            errors: Vec::new(),
            include_targets: Vec::new(),
            top_level_include_count: 0,
            direct_networks: Vec::new(),
            include_networks: Vec::new(),
            max_depth: 0,
            uses_ptr: false,
            uses_ptr_direct: false,
            uses_ip6: false,
            uses_reporting_modifiers: false,
            has_restrictive_all: false,
            is_deny_all_only: false,
        }
    }

    /// Number of authorized IPv4 addresses (Figure 5's x-axis).
    pub fn allowed_ip_count(&self) -> u64 {
        self.ips.address_count()
    }
}

/// The analyzer: a resolver plus a memo of per-domain analyses (see
/// [`ShardedCache`] for the memo's invariants).
pub struct Walker<R> {
    resolver: R,
    policy: WalkPolicy,
    cache: ShardedCache<Arc<RecordAnalysis>>,
}

impl<R: Resolver> Walker<R> {
    /// Create a walker over `resolver` with default limits.
    pub fn new(resolver: R) -> Self {
        Self::with_policy(resolver, WalkPolicy::default())
    }

    /// Create a walker with explicit limits.
    pub fn with_policy(resolver: R, policy: WalkPolicy) -> Self {
        Walker {
            resolver,
            policy,
            cache: ShardedCache::new(),
        }
    }

    /// The underlying resolver.
    pub fn resolver(&self) -> &R {
        &self.resolver
    }

    /// Analyze the record subtree rooted at `domain` (memoized).
    ///
    /// The memo cache stores only *subtree-flavored*, loop-free analyses —
    /// the same value regardless of whether a domain is first reached as a
    /// crawl root or as someone's include target — so cached content never
    /// depends on worker scheduling. Root-only classification (the RFC
    /// 7208 lookup-limit errors of [`WalkPolicy`]) is applied on the way
    /// out, cloning only for the rare domains that exceed a limit.
    pub fn analyze(&self, domain: &DomainName) -> Arc<RecordAnalysis> {
        self.memoized(domain).unwrap_or_else(|| {
            self.analyze_answered(domain, self.resolver.query(domain, RecordType::Txt))
        })
    }

    /// The memoized analysis of `domain` as [`Walker::analyze`] returns
    /// it, or `None` when `analyze` would query `domain`'s TXT record.
    /// Counted as a memo probe, like the one `analyze` makes.
    pub(crate) fn memoized(&self, domain: &DomainName) -> Option<Arc<RecordAnalysis>> {
        self.cache.get(domain).map(|hit| self.finished_root(hit))
    }

    /// Analyze `domain` from `answer`, the answer to its TXT question,
    /// without probing the memo: the caller has just taken the miss from
    /// [`Walker::memoized`], and asked the question together with others.
    /// Should another caller memoize `domain` meanwhile, its analysis is
    /// the one kept.
    pub(crate) fn analyze_answered(
        &self,
        domain: &DomainName,
        answer: Result<RrSet, DnsError>,
    ) -> Arc<RecordAnalysis> {
        let mut stack = Vec::new();
        let (analysis, complete) = self.walk_fresh(domain, answer, &mut stack, 0);
        let cached = if complete && !has_loop_error(&analysis) {
            self.cache.insert_if_absent(domain, Arc::new(analysis))
        } else {
            // Loop-containing analyses describe the loop relative to the
            // walk that found it, and depth-truncated walks are missing
            // part of their subtree; like `walk_include`, never cache
            // either.
            Arc::new(analysis)
        };
        self.finished_root(cached)
    }

    /// Apply the root-only limit classification to a cached subtree
    /// analysis. The no-violation case (almost every domain) returns the
    /// shared `Arc` untouched.
    fn finished_root(&self, analysis: Arc<RecordAnalysis>) -> Arc<RecordAnalysis> {
        if analysis.subtree_lookups <= self.policy.max_dns_lookups
            && analysis.subtree_void_lookups <= self.policy.max_void_lookups
        {
            return analysis;
        }
        let mut finished = (*analysis).clone();
        self.finish_root(&mut finished);
        Arc::new(finished)
    }

    /// Cached analyses accumulated so far, keyed by domain. The include
    /// ecosystem reports (Table 4, Figures 4/7/8) read this after a crawl.
    pub fn cached(&self) -> Vec<(DomainName, Arc<RecordAnalysis>)> {
        self.cache.snapshot()
    }

    /// Number of cached subtree analyses.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Hit/miss/entry counters of the memo.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop all cached analyses (used between scan rounds so a rescan sees
    /// remediated records).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Drop the single cached analysis for `domain`, if present; returns
    /// whether an entry was evicted. The longitudinal churn engine calls
    /// this for every domain a zone delta touched so the incremental
    /// re-crawl re-reads the live zone while every *unchanged* subtree
    /// stays memoized — sound because churned records only reference
    /// immutable infrastructure names, never other mutable roots
    /// (DESIGN.md §12's locality contract).
    pub fn invalidate(&self, domain: &DomainName) -> bool {
        self.cache.remove(domain)
    }

    /// Walk `domain` from `answer`, its TXT answer, without probing the
    /// cache first — the caller ([`Walker::analyze_answered`] or
    /// [`Walker::walk_include`]) has already taken the miss. Inner include
    /// targets still reuse cached subtrees.
    ///
    /// The returned flag is `true` when the walk was *complete*: neither
    /// this record nor anything folded in from below was cut off by the
    /// [`WalkPolicy::max_depth`] recursion guard. Only complete subtrees
    /// are memoizable — a truncated analysis describes the walk's position,
    /// not the domain.
    fn walk_fresh(
        &self,
        domain: &DomainName,
        answer: Result<RrSet, DnsError>,
        stack: &mut Vec<DomainName>,
        depth: usize,
    ) -> (RecordAnalysis, bool) {
        let mut analysis = match select_record(&answer) {
            Ok((text, parsed)) => {
                let mut a = RecordAnalysis::empty(domain.clone(), None);
                a.record_text = Some(text.into_owned());
                a.parsed = Some(parsed);
                a
            }
            Err(failure) => {
                let mut a = RecordAnalysis::empty(domain.clone(), Some(failure));
                a.subtree_void_lookups = usize::from(failure.is_void());
                return (a, true);
            }
        };

        // Take the parse result out instead of cloning it: `walk_terms`
        // borrows the record while mutating the analysis, and `ParsedRecord`
        // (a full term vector) is too expensive to copy per domain.
        let parsed = analysis.parsed.take().expect("set above");
        // Syntax errors from the lenient parse, split into the two Figure 2
        // classes (invalid-IP vs everything else).
        for err in &parsed.errors {
            let class = if err.is_invalid_ip() {
                ErrorClass::InvalidIpAddress
            } else {
                ErrorClass::SyntaxError
            };
            analysis
                .errors
                .push(AnalysisError::new(class, domain.clone(), err.to_string()));
        }

        let record = &parsed.record;
        analysis.has_restrictive_all = record.has_restrictive_all();
        analysis.is_deny_all_only = is_deny_all_only(record);
        analysis.uses_reporting_modifiers = record.modifiers().any(|m| m.is_reporting_extension());

        let mut complete = depth < self.policy.max_depth;
        if complete {
            stack.push(domain.clone());
            self.walk_terms(record, &mut analysis, stack, depth, &mut complete);
            stack.pop();
        }
        analysis.parsed = Some(parsed);
        // Root-level limit classification happens in `analyze` via
        // `finished_root`; subtree counts are just data here.
        (analysis, complete)
    }

    fn walk_terms(
        &self,
        record: &SpfRecord,
        analysis: &mut RecordAnalysis,
        stack: &mut Vec<DomainName>,
        depth: usize,
        complete: &mut bool,
    ) {
        let root_domain = analysis.domain.clone();
        for term in &record.terms {
            match term {
                Term::Directive(directive) => match &directive.mechanism {
                    Mechanism::All => {}
                    Mechanism::Ip4 { cidr } => {
                        analysis.ips.insert_cidr(cidr);
                        analysis.direct_networks.push(*cidr);
                    }
                    Mechanism::Ip6 { .. } => {
                        analysis.uses_ip6 = true;
                    }
                    Mechanism::A { domain, cidr } => {
                        analysis.subtree_lookups += 1;
                        let target = self.literal_target(domain.as_ref(), &root_domain);
                        if let Some(target) = target {
                            self.collect_a_records(&target, cidr.v4, analysis);
                        }
                    }
                    Mechanism::Mx { domain, cidr } => {
                        analysis.subtree_lookups += 1;
                        let target = self.literal_target(domain.as_ref(), &root_domain);
                        if let Some(target) = target {
                            self.collect_mx_records(&target, cidr.v4, analysis);
                        }
                    }
                    Mechanism::Ptr { .. } => {
                        analysis.subtree_lookups += 1;
                        analysis.uses_ptr = true;
                        // `uses_ptr_direct` describes *this record's* own
                        // terms; the fold into parents only propagates the
                        // inherited `uses_ptr` flag, so setting it here
                        // keeps cached values independent of walk depth.
                        analysis.uses_ptr_direct = true;
                        // PTR cannot be enumerated into an IP set (the
                        // paper's measurement focus notes the same limit).
                    }
                    Mechanism::Exists { .. } => {
                        analysis.subtree_lookups += 1;
                        // exists requires a live sending IP to evaluate; the
                        // paper: "we can analyze all SPF mechanisms except
                        // for exist[s]".
                    }
                    Mechanism::Include { domain } => {
                        analysis.subtree_lookups += 1;
                        // Counts includes in *this record's* top level (the
                        // record being walked); never folded into parents,
                        // so it is the same whatever depth the record is
                        // first reached at.
                        analysis.top_level_include_count += 1;
                        // Macro include targets depend on the message;
                        // statically unanalyzable.
                        if domain.is_literal() {
                            self.walk_include(domain, analysis, stack, depth, false, complete);
                        }
                    }
                },
                Term::Modifier(Modifier::Redirect { domain }) => {
                    analysis.subtree_lookups += 1;
                    if domain.is_literal() {
                        self.walk_include(domain, analysis, stack, depth, true, complete);
                    }
                }
                Term::Modifier(_) => {}
            }
        }
    }

    /// Recurse into a literal include/redirect target, folding its subtree
    /// into the caller's analysis. Clears `complete` when the target's walk
    /// was cut off by the recursion guard.
    fn walk_include(
        &self,
        spec: &MacroString,
        analysis: &mut RecordAnalysis,
        stack: &mut Vec<DomainName>,
        depth: usize,
        is_redirect: bool,
        complete: &mut bool,
    ) {
        // The record parse already holds the name of almost every target.
        // It declines invalid names, and a 254-byte one with a root dot
        // that the evaluator would shorten but this walk reads as is.
        let target = match spec.literal_domain() {
            Some(name) => name.clone(),
            None => {
                let target_text = spec.to_string();
                match DomainName::parse(&target_text) {
                    Ok(d) => d,
                    Err(e) => {
                        // Oversized labels/names and UTF-8 failures are the
                        // paper's "other errors" under record-not-found (3
                        // cases in 12.8M).
                        analysis.errors.push(AnalysisError::not_found(
                            analysis.domain.clone(),
                            NotFoundCause::OtherError,
                            format!("invalid include target {target_text:?}: {e}"),
                        ));
                        return;
                    }
                }
            }
        };
        // Like the other top-level fields, `include_targets` lists *this
        // record's* literal includes and is never folded upward, so it is
        // recorded at every depth to keep cached values path-independent.
        if !is_redirect {
            analysis.include_targets.push(target.clone());
        }
        if stack.contains(&target) {
            let class = if is_redirect {
                ErrorClass::RedirectLoop
            } else {
                ErrorClass::IncludeLoop
            };
            let direct = stack.last() == Some(&target);
            analysis.errors.push(AnalysisError::new(
                class,
                target.clone(),
                if direct {
                    "direct self-reference".to_string()
                } else {
                    format!("loop via {}", stack.last().unwrap())
                },
            ));
            return;
        }
        // Serve repeated includes from the cache (the paper's record-cache
        // trick); misses are computed once and folded in by reference — the
        // subtree analysis itself is never deep-copied. A hit is only valid
        // where a fresh walk would not have truncated: the entry's deepest
        // descendant must clear the recursion guard from this depth.
        let cached = self
            .cache
            .get(&target)
            .filter(|hit| depth + 1 + hit.max_depth < self.policy.max_depth);
        let sub: Arc<RecordAnalysis> = match cached {
            Some(hit) => hit,
            None => {
                let answer = self.resolver.query(&target, RecordType::Txt);
                let (fresh, sub_complete) = self.walk_fresh(&target, answer, stack, depth + 1);
                *complete &= sub_complete;
                // Memoize only *complete*, loop-free subtrees: loop errors
                // depend on the current stack, and a truncated walk
                // describes where the guard fired, not the domain — caching
                // either would make the entry depend on how the domain was
                // first reached.
                if sub_complete && !has_loop_error(&fresh) {
                    self.cache.insert_if_absent(&target, Arc::new(fresh))
                } else {
                    Arc::new(fresh)
                }
            }
        };

        match sub.fetch {
            None => {
                analysis.subtree_lookups += sub.subtree_lookups;
                analysis.subtree_void_lookups += sub.subtree_void_lookups;
                analysis.ips.union_with(&sub.ips);
                // Networks below an include count toward the include column
                // (Table 3) and the include-subnet distribution (Figure 7).
                analysis
                    .include_networks
                    .reserve(sub.direct_networks.len() + sub.include_networks.len());
                analysis
                    .include_networks
                    .extend(sub.direct_networks.iter().copied());
                analysis
                    .include_networks
                    .extend(sub.include_networks.iter().copied());
                analysis.errors.extend(sub.errors.iter().cloned());
                analysis.max_depth = analysis.max_depth.max(1 + sub.max_depth);
                analysis.uses_ptr |= sub.uses_ptr;
            }
            Some(failure) => {
                // The target's own void lookup, if its fetch was one.
                analysis.subtree_void_lookups += sub.subtree_void_lookups;
                let what = match failure {
                    FetchFailure::Transient => "timed out",
                    FetchFailure::NxDomain => "NXDOMAIN (could be re-registered by an attacker)",
                    FetchFailure::EmptyAnswer => "returned an empty answer",
                    FetchFailure::NoSpfRecord => "has no SPF record",
                    FetchFailure::Multiple(count) => &format!("publishes {count} SPF records"),
                };
                analysis.errors.push(AnalysisError::not_found(
                    target,
                    failure.cause(),
                    format!("include target {what}"),
                ));
            }
        }
    }

    /// Resolve a/mx target: explicit literal argument or the record domain.
    fn literal_target(
        &self,
        target: Option<&MacroString>,
        domain: &DomainName,
    ) -> Option<DomainName> {
        match target {
            None => Some(domain.clone()),
            Some(ms) => match ms.literal_domain() {
                Some(name) => Some(name.clone()),
                None => ms.literal_text().and_then(|t| DomainName::parse(&t).ok()),
            },
        }
    }

    fn collect_a_records(&self, name: &DomainName, prefix: u8, analysis: &mut RecordAnalysis) {
        match self.resolver.query(name, RecordType::A) {
            Ok(rrs) if rrs.is_empty() => analysis.subtree_void_lookups += 1,
            Ok(rrs) => {
                for rr in &rrs {
                    if let RecordData::A(addr) = rr.data {
                        let net = Ipv4Cidr::new(addr, prefix).expect("prefix validated");
                        analysis.ips.insert_cidr(&net);
                        analysis.direct_networks.push(net);
                    }
                }
            }
            Err(DnsError::NxDomain) => analysis.subtree_void_lookups += 1,
            Err(_) => {}
        }
    }

    fn collect_mx_records(&self, name: &DomainName, prefix: u8, analysis: &mut RecordAnalysis) {
        let exchanges = match self.resolver.query(name, RecordType::Mx) {
            Ok(rrs) if rrs.is_empty() => {
                analysis.subtree_void_lookups += 1;
                return;
            }
            Ok(rrs) => rrs,
            Err(DnsError::NxDomain) => {
                analysis.subtree_void_lookups += 1;
                return;
            }
            Err(_) => return,
        };
        for rr in &exchanges {
            if let RecordData::Mx { exchange, .. } = &rr.data {
                self.collect_a_records(exchange, prefix, analysis);
            }
        }
    }

    /// Root-only classification of the limit errors.
    fn finish_root(&self, analysis: &mut RecordAnalysis) {
        if analysis.subtree_lookups > self.policy.max_dns_lookups {
            analysis.errors.push(AnalysisError::new(
                ErrorClass::TooManyDnsLookups,
                analysis.domain.clone(),
                format!(
                    "{} DNS-querying terms (limit {})",
                    analysis.subtree_lookups, self.policy.max_dns_lookups
                ),
            ));
        }
        if analysis.subtree_void_lookups > self.policy.max_void_lookups {
            analysis.errors.push(AnalysisError::new(
                ErrorClass::TooManyVoidDnsLookups,
                analysis.domain.clone(),
                format!(
                    "{} void lookups (limit {})",
                    analysis.subtree_void_lookups, self.policy.max_void_lookups
                ),
            ));
        }
    }
}

/// True when the analysis recorded an include/redirect loop anywhere in
/// its subtree. Such analyses describe the loop relative to the walk that
/// discovered it, so they are never memoized.
fn has_loop_error(analysis: &RecordAnalysis) -> bool {
    analysis
        .errors
        .iter()
        .any(|e| matches!(e.class, ErrorClass::IncludeLoop | ErrorClass::RedirectLoop))
}

/// `v=spf1 -all` / `v=spf1 ~all` and nothing else: the deliberate
/// "this domain sends no email" configuration of §5.1.
fn is_deny_all_only(record: &SpfRecord) -> bool {
    record.terms.len() == 1
        && record
            .all_directive()
            .map(|d| d.qualifier.is_restrictive())
            .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::net::Ipv4Addr;

    fn walker(store: &Arc<ZoneStore>) -> Walker<ZoneResolver> {
        Walker::new(ZoneResolver::new(Arc::clone(store)))
    }

    #[test]
    fn counts_direct_ips() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(
            &dom("d.example"),
            "v=spf1 ip4:192.0.2.0/24 ip4:10.0.0.0/16 -all",
        );
        let a = walker(&s).analyze(&dom("d.example"));
        assert_eq!(a.allowed_ip_count(), 256 + 65536);
        assert_eq!(a.direct_networks.len(), 2);
        assert!(a.has_restrictive_all);
        assert!(a.errors.is_empty());
    }

    #[test]
    fn resolves_a_and_mx() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("d.example"), "v=spf1 a mx/28 -all");
        s.add_a(&dom("d.example"), Ipv4Addr::new(192, 0, 2, 1));
        s.add_mx(&dom("d.example"), 10, &dom("mx.d.example"));
        s.add_a(&dom("mx.d.example"), Ipv4Addr::new(198, 51, 100, 16));
        let a = walker(&s).analyze(&dom("d.example"));
        // a → one /32; mx → one /28 (16 addresses).
        assert_eq!(a.allowed_ip_count(), 1 + 16);
        assert_eq!(a.subtree_lookups, 2);
    }

    #[test]
    fn include_ips_union_and_lookup_sum() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(
            &dom("root.example"),
            "v=spf1 include:p1.example include:p2.example -all",
        );
        s.add_txt(&dom("p1.example"), "v=spf1 ip4:10.0.0.0/24 a -all");
        s.add_a(&dom("p1.example"), Ipv4Addr::new(10, 0, 1, 1));
        s.add_txt(&dom("p2.example"), "v=spf1 ip4:10.0.0.0/25 -all"); // overlaps p1
        let a = walker(&s).analyze(&dom("root.example"));
        // union: /24 (256) + host (1); /25 overlaps inside the /24.
        assert_eq!(a.allowed_ip_count(), 257);
        // lookups: 2 includes + a inside p1 = 3.
        assert_eq!(a.subtree_lookups, 3);
        assert_eq!(a.top_level_include_count, 2);
        assert_eq!(
            a.include_targets,
            vec![dom("p1.example"), dom("p2.example")]
        );
        // include column gets p1/p2's networks; direct column stays empty.
        assert!(a.direct_networks.is_empty());
        assert_eq!(a.include_networks.len(), 3);
    }

    #[test]
    fn record_not_found_causes() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(
            &dom("r.example"),
            "v=spf1 include:nospf.example include:gone.example include:multi.example -all",
        );
        s.add_a(&dom("nospf.example"), Ipv4Addr::new(1, 1, 1, 1)); // exists, no TXT at all
        s.add_txt(&dom("multi.example"), "v=spf1 -all");
        s.add_txt(&dom("multi.example"), "v=spf1 mx -all");
        let a = walker(&s).analyze(&dom("r.example"));
        let causes: Vec<NotFoundCause> =
            a.errors.iter().filter_map(|e| e.not_found_cause).collect();
        assert!(causes.contains(&NotFoundCause::EmptyResult)); // nospf: no TXT answer at all
        assert!(causes.contains(&NotFoundCause::DomainNotFound)); // gone: NXDOMAIN
        assert!(causes.contains(&NotFoundCause::MultipleSpfRecords));
    }

    #[test]
    fn invalid_literal_include_target_keeps_its_error_text() {
        // The record parse caches no name for these, so the walker's own
        // parse still runs and words the error.
        let wide = format!("{}.example", "c".repeat(64));
        let s = Arc::new(ZoneStore::new());
        s.add_txt(
            &dom("r.example"),
            &format!("v=spf1 include:{wide} redirect=-bad.example"),
        );
        let a = walker(&s).analyze(&dom("r.example"));
        let details: Vec<(&str, Option<NotFoundCause>)> = a
            .errors
            .iter()
            .map(|e| (e.detail.as_str(), e.not_found_cause))
            .collect();
        assert_eq!(
            details,
            vec![
                (
                    &*format!(
                        "invalid include target {wide:?}: DNS label is 64 octets long (> 63)"
                    ),
                    Some(NotFoundCause::OtherError)
                ),
                (
                    "invalid include target \"-bad.example\": label starts or ends with a hyphen",
                    Some(NotFoundCause::OtherError)
                ),
            ]
        );
        assert!(a.errors.iter().all(|e| e.at_domain == dom("r.example")));
        assert!(a.include_targets.is_empty());
    }

    #[test]
    fn overlong_dotted_literal_target_is_walked_as_its_name() {
        // 253 bytes plus a root dot: too long for the record parse to
        // cache, yet a valid name, which the walker's fallback parse reads.
        let full = format!("{}.a", vec!["b".repeat(62); 4].join("."));
        let s = Arc::new(ZoneStore::new());
        s.add_txt(
            &dom("r.example"),
            &format!("v=spf1 include:{full}. a:{full}. -all"),
        );
        s.add_txt(&dom(&full), "v=spf1 ip4:10.0.0.0/24 -all");
        s.add_a(&dom(&full), Ipv4Addr::new(10, 0, 1, 1));
        let a = walker(&s).analyze(&dom("r.example"));
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.include_targets, vec![dom(&full)]);
        assert_eq!(a.allowed_ip_count(), 256 + 1);
    }

    #[test]
    fn no_spf_cause_when_other_txt_exists() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("r.example"), "v=spf1 include:verify.example -all");
        s.add_txt(&dom("verify.example"), "site-verification=xyz"); // TXT but not SPF
        let a = walker(&s).analyze(&dom("r.example"));
        assert_eq!(a.errors.len(), 1);
        assert_eq!(
            a.errors[0].not_found_cause,
            Some(NotFoundCause::NoSpfRecord)
        );
    }

    #[test]
    fn timeout_cause() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("r.example"), "v=spf1 include:slow.example -all");
        s.add_txt(&dom("slow.example"), "v=spf1 -all");
        s.set_fault(&dom("slow.example"), spf_dns::ZoneFault::Timeout);
        let a = walker(&s).analyze(&dom("r.example"));
        assert_eq!(a.errors[0].not_found_cause, Some(NotFoundCause::DnsTimeout));
    }

    #[test]
    fn lookup_limit_classified_at_root() {
        let s = Arc::new(ZoneStore::new());
        // bluehost-style: one include that fans out to 14 lookups.
        let mut rec = String::from("v=spf1");
        for i in 0..14 {
            rec.push_str(&format!(" include:n{i}.example"));
        }
        rec.push_str(" -all");
        s.add_txt(&dom("fat.example"), &rec);
        for i in 0..14 {
            s.add_txt(&dom(&format!("n{i}.example")), "v=spf1 ip4:10.0.0.1 -all");
        }
        s.add_txt(&dom("customer.example"), "v=spf1 include:fat.example -all");
        let w = walker(&s);
        let a = w.analyze(&dom("customer.example"));
        assert_eq!(a.subtree_lookups, 15);
        assert!(a
            .errors
            .iter()
            .any(|e| e.class == ErrorClass::TooManyDnsLookups));
        // The include record itself also exceeds the limit "directly"
        // (Figure 4's 2,408 includes).
        let fat = w.analyze(&dom("fat.example"));
        assert_eq!(fat.subtree_lookups, 14);
    }

    #[test]
    fn void_lookup_limit_classified() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(
            &dom("v.example"),
            "v=spf1 a:x1.example a:x2.example a:x3.example -all",
        );
        for n in ["x1.example", "x2.example", "x3.example"] {
            s.add_txt(&dom(n), "placeholder");
        }
        let a = walker(&s).analyze(&dom("v.example"));
        assert_eq!(a.subtree_void_lookups, 3);
        assert!(a
            .errors
            .iter()
            .any(|e| e.class == ErrorClass::TooManyVoidDnsLookups));
    }

    #[test]
    fn include_loop_direct_and_deep() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("selfie.example"), "v=spf1 include:selfie.example -all");
        let a = walker(&s).analyze(&dom("selfie.example"));
        assert!(a.errors.iter().any(|e| e.class == ErrorClass::IncludeLoop));
        assert!(a.errors[0].detail.contains("direct"));

        let s2 = Arc::new(ZoneStore::new());
        s2.add_txt(&dom("a.example"), "v=spf1 include:b.example -all");
        s2.add_txt(&dom("b.example"), "v=spf1 include:a.example -all");
        let a2 = walker(&s2).analyze(&dom("a.example"));
        assert!(a2.errors.iter().any(|e| e.class == ErrorClass::IncludeLoop));
    }

    #[test]
    fn redirect_loop_classified() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("r1.example"), "v=spf1 redirect=r2.example");
        s.add_txt(&dom("r2.example"), "v=spf1 redirect=r1.example");
        let a = walker(&s).analyze(&dom("r1.example"));
        assert!(a.errors.iter().any(|e| e.class == ErrorClass::RedirectLoop));
    }

    #[test]
    fn syntax_and_invalid_ip_split() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("bad.example"), "v=spf1 ipv4:192.0.2.1 ip4:1.2.3 -all");
        let a = walker(&s).analyze(&dom("bad.example"));
        let classes: Vec<ErrorClass> = a.errors.iter().map(|e| e.class).collect();
        assert!(classes.contains(&ErrorClass::SyntaxError)); // ipv4 misspelling
        assert!(classes.contains(&ErrorClass::InvalidIpAddress)); // 1.2.3
    }

    #[test]
    fn cache_collapses_repeated_includes() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("provider.example"), "v=spf1 ip4:198.51.100.0/24 -all");
        for i in 0..20 {
            s.add_txt(
                &dom(&format!("c{i}.example")),
                "v=spf1 include:provider.example -all",
            );
        }
        let counting = spf_testkit::CountingResolver::new(ZoneResolver::new(Arc::clone(&s)));
        let stats = counting.stats();
        let w = Walker::new(counting);
        for i in 0..20 {
            w.analyze(&dom(&format!("c{i}.example")));
        }
        let queries = stats.queries.load(std::sync::atomic::Ordering::Relaxed);
        // 20 customer TXT fetches + 1 provider fetch (cached afterwards).
        assert_eq!(queries, 21);
    }

    #[test]
    fn cached_value_is_independent_of_root_vs_include_order() {
        // A domain that is both crawled in its own right and included by
        // another crawled domain must yield the same reports regardless of
        // which analysis happens first: root-only limit errors are applied
        // on the way out of `analyze`, never baked into the cache.
        let build = || {
            let s = Arc::new(ZoneStore::new());
            let mut rec = String::from("v=spf1");
            for i in 0..14 {
                rec.push_str(&format!(" include:n{i}.example"));
            }
            rec.push_str(" -all");
            s.add_txt(&dom("fat.example"), &rec);
            for i in 0..14 {
                s.add_txt(&dom(&format!("n{i}.example")), "v=spf1 ip4:10.0.0.1 -all");
            }
            s.add_txt(&dom("customer.example"), "v=spf1 include:fat.example -all");
            s
        };
        // Order A: the fat include is analyzed as a crawl root first.
        let wa = walker(&build());
        let fat_a = wa.analyze(&dom("fat.example"));
        let customer_a = wa.analyze(&dom("customer.example"));
        // Order B: the customer (and thus fat-as-include) goes first.
        let wb = walker(&build());
        let customer_b = wb.analyze(&dom("customer.example"));
        let fat_b = wb.analyze(&dom("fat.example"));
        assert_eq!(*customer_a, *customer_b);
        assert_eq!(*fat_a, *fat_b);
        // Both roots carry their own limit classification...
        for a in [&fat_a, &customer_a] {
            assert!(a
                .errors
                .iter()
                .any(|e| e.class == ErrorClass::TooManyDnsLookups));
        }
        // ...but the customer inherits only fat's subtree data, not fat's
        // root-only error (exactly one TooManyDnsLookups, at the root).
        let limit_errors = customer_a
            .errors
            .iter()
            .filter(|e| e.class == ErrorClass::TooManyDnsLookups)
            .count();
        assert_eq!(limit_errors, 1);
    }

    #[test]
    fn depth_truncated_analyses_are_not_cached() {
        // With max_depth 1, walking a → b truncates b's subtree. That
        // truncated view must not be served to a later analyze(b), whose
        // own walk starts at depth 0 and sees the full record.
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("a.example"), "v=spf1 include:b.example -all");
        s.add_txt(&dom("b.example"), "v=spf1 include:c.example -all");
        s.add_txt(&dom("c.example"), "v=spf1 ip4:10.0.0.1 -all");
        let policy = WalkPolicy {
            max_depth: 1,
            ..WalkPolicy::default()
        };
        let run = |first_root: &str| {
            let w = Walker::with_policy(ZoneResolver::new(Arc::clone(&s)), policy);
            w.analyze(&dom(first_root));
            (w.analyze(&dom("a.example")), w.analyze(&dom("b.example")))
        };
        let (a1, b1) = run("a.example");
        let (a2, b2) = run("b.example");
        assert_eq!(*a1, *a2);
        assert_eq!(*b1, *b2);
        // b analyzed in its own right still sees its full top level.
        assert_eq!(b1.subtree_lookups, 1);
        assert_eq!(b1.include_targets, vec![dom("c.example")]);
    }

    #[test]
    fn loop_analyses_are_not_cached_at_root_either() {
        // x → c → x: x's analysis records the loop at a different domain
        // depending on the walk entry point, so neither entry point may
        // poison the cache for the other.
        let build = || {
            let s = Arc::new(ZoneStore::new());
            s.add_txt(&dom("x.example"), "v=spf1 include:c.example -all");
            s.add_txt(&dom("c.example"), "v=spf1 include:x.example -all");
            s
        };
        let wa = walker(&build());
        let x_first = wa.analyze(&dom("x.example"));
        let c_after = wa.analyze(&dom("c.example"));
        let wb = walker(&build());
        let c_first = wb.analyze(&dom("c.example"));
        let x_after = wb.analyze(&dom("x.example"));
        assert_eq!(*x_first, *x_after);
        assert_eq!(*c_first, *c_after);
        assert!(has_loop_error(&x_first) && has_loop_error(&c_first));
    }

    #[test]
    fn memo_misses_once_per_unique_domain() {
        // Single-threaded, every domain is computed once: one miss per
        // unique domain walked, a hit for every later probe of it.
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("provider.example"), "v=spf1 ip4:198.51.100.0/24 -all");
        s.add_txt(
            &dom("nested.example"),
            "v=spf1 include:provider.example -all",
        );
        for i in 0..30 {
            let rec = if i % 3 == 0 {
                "v=spf1 include:provider.example -all".to_string()
            } else {
                "v=spf1 include:nested.example ~all".to_string()
            };
            s.add_txt(&dom(&format!("c{i}.example")), &rec);
        }
        let w = walker(&s);
        for i in 0..30 {
            w.analyze(&dom(&format!("c{i}.example")));
        }
        // 30 roots + provider + nested missed once each; the 31 include
        // probes (10 + 20 from roots, 1 from nested) took 29 hits.
        let stats = w.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (32, 29, 32));
        for i in 0..30 {
            w.analyze(&dom(&format!("c{i}.example")));
        }
        let again = w.cache_stats();
        assert_eq!((again.misses, again.hits, again.entries), (32, 59, 32));
    }

    #[test]
    fn deny_all_only_detection() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("noemail.example"), "v=spf1 -all");
        s.add_txt(&dom("soft.example"), "v=spf1 ~all");
        s.add_txt(&dom("real.example"), "v=spf1 mx -all");
        let w = walker(&s);
        assert!(w.analyze(&dom("noemail.example")).is_deny_all_only);
        assert!(w.analyze(&dom("soft.example")).is_deny_all_only);
        assert!(!w.analyze(&dom("real.example")).is_deny_all_only);
    }

    #[test]
    fn permissive_all_detection() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("open.example"), "v=spf1 ip4:192.0.2.1");
        s.add_txt(&dom("neutral.example"), "v=spf1 mx ?all");
        s.add_txt(&dom("strict.example"), "v=spf1 mx -all");
        let w = walker(&s);
        assert!(!w.analyze(&dom("open.example")).has_restrictive_all);
        assert!(!w.analyze(&dom("neutral.example")).has_restrictive_all);
        assert!(w.analyze(&dom("strict.example")).has_restrictive_all);
    }

    #[test]
    fn ptr_and_reporting_flags() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("old.example"), "v=spf1 ptr ra=postmaster rp=100 -all");
        let a = walker(&s).analyze(&dom("old.example"));
        assert!(a.uses_ptr);
        assert!(a.uses_reporting_modifiers);
    }

    #[test]
    fn slash_zero_allows_everything() {
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("wild.example"), "v=spf1 ip4:0.0.0.0/0 -all");
        let a = walker(&s).analyze(&dom("wild.example"));
        assert_eq!(a.allowed_ip_count(), 1u64 << 32);
    }

    #[test]
    fn ptr_included_via_provider_sets_flag() {
        // Table 4 note: mx.ovh.com "uses not recommended PTR mechanism".
        let s = Arc::new(ZoneStore::new());
        s.add_txt(&dom("c.example"), "v=spf1 include:mx.ovh.example -all");
        s.add_txt(
            &dom("mx.ovh.example"),
            "v=spf1 ptr ip4:198.51.100.1/31 -all",
        );
        let a = walker(&s).analyze(&dom("c.example"));
        assert!(a.uses_ptr);
        assert_eq!(a.allowed_ip_count(), 2);
    }
}
