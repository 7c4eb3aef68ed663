//! The Section 7 "lessons learned" recommendation engine.
//!
//! Turns a [`DomainReport`] into the concrete, actionable guidance the
//! paper derives for domain owners (§7.1) — and that its notification
//! campaign emails contained ("we list the identified problems for the
//! particular domain, along with examples and recommendations on how to
//! fix them", §5.4).

use std::fmt;

use serde::{Deserialize, Serialize};
use spf_types::Mechanism;

use crate::findings::{DomainReport, LAX_IP_THRESHOLD};
use crate::taxonomy::ErrorClass;

/// How urgent a recommendation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational / best practice.
    Advice,
    /// Weakens protection; should be fixed.
    Warning,
    /// Breaks SPF evaluation (permerror) or enables spoofing.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Advice => write!(f, "ADVICE"),
            Severity::Warning => write!(f, "WARNING"),
            Severity::Critical => write!(f, "CRITICAL"),
        }
    }
}

/// One actionable recommendation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Urgency.
    pub severity: Severity,
    /// Stable machine-readable code (used by notification templates).
    pub code: &'static str,
    /// Human-readable guidance.
    pub message: String,
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.code, self.message)
    }
}

/// Derive the Section 7 recommendations for one domain.
pub fn recommend(report: &DomainReport) -> Vec<Recommendation> {
    let mut out = Vec::new();

    if !report.has_spf && !report.dns_transient {
        if report
            .record
            .as_ref()
            .map(|r| {
                matches!(
                    r.fetch,
                    crate::walker::FetchOutcome::MultipleSpfRecords { .. }
                )
            })
            .unwrap_or(false)
        {
            out.push(Recommendation {
                severity: Severity::Critical,
                code: "multiple-records",
                message: "The domain publishes more than one SPF record; receivers return \
                          permerror. Merge them into a single v=spf1 TXT record."
                    .into(),
            });
        } else {
            out.push(Recommendation {
                severity: Severity::Warning,
                code: "no-spf",
                message: "No SPF record found. Publish one — even a plain 'v=spf1 -all' for \
                          domains that never send email."
                    .into(),
            });
        }
        return out;
    }

    let Some(record) = report.record.as_ref() else {
        return out;
    };

    for error in &record.errors {
        let (severity, code, message) = match error.class {
            ErrorClass::SyntaxError => (
                Severity::Critical,
                "syntax-error",
                format!(
                    "Syntax error ({}). Validate the record with an SPF checker before \
                     publishing; these errors are typically trivial to fix.",
                    error.detail
                ),
            ),
            ErrorClass::InvalidIpAddress => (
                Severity::Critical,
                "invalid-ip",
                format!(
                    "Invalid IP address in the record ({}). Check octet counts, the ip4/ip6 \
                     distinction and CIDR prefix lengths.",
                    error.detail
                ),
            ),
            ErrorClass::TooManyDnsLookups => (
                Severity::Critical,
                "too-many-lookups",
                format!(
                    "The record triggers {} DNS lookups (limit 10); receivers may return \
                     permerror. Flatten includes or drop unused mechanisms.",
                    record.subtree_lookups
                ),
            ),
            ErrorClass::TooManyVoidDnsLookups => (
                Severity::Critical,
                "too-many-void-lookups",
                format!(
                    "The record causes {} void DNS lookups (limit 2). Remove mechanisms that \
                     point at names without address records.",
                    record.subtree_void_lookups
                ),
            ),
            ErrorClass::IncludeLoop => (
                Severity::Critical,
                "include-loop",
                format!(
                    "include loop at {} — the record can never evaluate.",
                    error.at_domain
                ),
            ),
            ErrorClass::RedirectLoop => (
                Severity::Critical,
                "redirect-loop",
                format!(
                    "redirect loop at {} — the record can never evaluate.",
                    error.at_domain
                ),
            ),
            ErrorClass::RecordNotFound => (
                Severity::Critical,
                "record-not-found",
                format!(
                    "Referenced record unavailable at {} ({}). If the domain is unregistered, \
                     an attacker could take it over and control your policy.",
                    error.at_domain, error.detail
                ),
            ),
        };
        out.push(Recommendation {
            severity,
            code,
            message,
        });
    }

    if !record.has_restrictive_all {
        out.push(Recommendation {
            severity: Severity::Warning,
            code: "permissive-all",
            message: "The record has no restrictive final directive; unmatched senders get \
                      'neutral'. Terminate the record with '-all' (or '~all' during rollout)."
                .into(),
        });
    }

    if record.uses_ptr {
        out.push(Recommendation {
            severity: Severity::Warning,
            code: "ptr-mechanism",
            message: "The deprecated 'ptr' mechanism is slow, unreliable and produces high DNS \
                      load (RFC 7208 §5.5). Replace it with ip4/ip6 or a/mx."
                .into(),
        });
    }

    if report.uses_deprecated_spf_rr {
        out.push(Recommendation {
            severity: Severity::Advice,
            code: "deprecated-rr-type",
            message: "The deprecated SPF RR type (99) is still published; it has been retired \
                      since RFC 7208 (2014). Keep the policy in a TXT record only."
                .into(),
        });
    }

    let allowed = record.allowed_ip_count();
    if allowed > LAX_IP_THRESHOLD {
        out.push(Recommendation {
            severity: Severity::Warning,
            code: "lax-authorization",
            message: format!(
                "The policy authorizes {allowed} IPv4 addresses. Domains rarely need more \
                 than their ~20 sending hosts; verify every include and range is really a \
                 mail server of yours."
            ),
        });
    }

    if record.max_depth >= 2 {
        out.push(Recommendation {
            severity: Severity::Advice,
            code: "deep-include-chain",
            message: format!(
                "Includes nest {} levels deep; each level is another administrative party you \
                 implicitly trust. Verify the whole chain.",
                record.max_depth
            ),
        });
    }

    // §7.1: "A further risk is an a mechanism in the SPF record of a shared
    // web space" — every co-tenant of the web server can send as you.
    let has_bare_a = record
        .parsed
        .as_ref()
        .map(|p| {
            p.record
                .directives()
                .any(|d| matches!(&d.mechanism, Mechanism::A { .. }))
        })
        .unwrap_or(false);
    if has_bare_a && allowed > 0 {
        out.push(Recommendation {
            severity: Severity::Advice,
            code: "a-on-shared-host",
            message: "The record authorizes the domain's A record. If that address is shared \
                      web space, every co-hosted customer can send email in your name; \
                      authorize dedicated mail hosts instead."
                .into(),
        });
    }

    if report.spf_without_mx() && !record.is_deny_all_only {
        out.push(Recommendation {
            severity: Severity::Warning,
            code: "spf-without-mx",
            message: "The domain authorizes senders but has no MX record, so it cannot receive \
                      bounces — unsuitable for reliable email. Either add an MX or publish \
                      'v=spf1 -all'."
                .into(),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::analyze_domain;
    use crate::walker::Walker;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn report_for(records: &[(&str, &str)], domain: &str) -> DomainReport {
        let store = Arc::new(ZoneStore::new());
        for (name, text) in records {
            store.add_txt(&dom(name), text);
        }
        store.add_mx(&dom(domain), 10, &dom("mx.example.net"));
        store.add_a(&dom("mx.example.net"), Ipv4Addr::new(192, 0, 2, 99));
        let walker = Walker::new(ZoneResolver::new(store));
        analyze_domain(&walker, &dom(domain))
    }

    fn codes(recs: &[Recommendation]) -> Vec<&'static str> {
        recs.iter().map(|r| r.code).collect()
    }

    #[test]
    fn clean_record_gets_no_critical() {
        let r = report_for(&[("d.example", "v=spf1 mx -all")], "d.example");
        let recs = recommend(&r);
        assert!(
            recs.iter().all(|r| r.severity != Severity::Critical),
            "{recs:?}"
        );
    }

    #[test]
    fn missing_spf_recommends_publishing() {
        let r = report_for(&[], "d.example");
        assert_eq!(codes(&recommend(&r)), vec!["no-spf"]);
    }

    #[test]
    fn permissive_all_flagged() {
        let r = report_for(&[("d.example", "v=spf1 ip4:192.0.2.1")], "d.example");
        assert!(codes(&recommend(&r)).contains(&"permissive-all"));
    }

    #[test]
    fn lax_authorization_flagged() {
        let r = report_for(&[("d.example", "v=spf1 ip4:10.0.0.0/8 -all")], "d.example");
        let recs = recommend(&r);
        assert!(codes(&recs).contains(&"lax-authorization"));
        assert!(recs.iter().any(|r| r.message.contains("16777216")));
    }

    #[test]
    fn ptr_flagged() {
        let r = report_for(&[("d.example", "v=spf1 ptr -all")], "d.example");
        assert!(codes(&recommend(&r)).contains(&"ptr-mechanism"));
    }

    #[test]
    fn syntax_error_is_critical() {
        let r = report_for(&[("d.example", "v=spf1 ipv4:1.2.3.4 -all")], "d.example");
        let recs = recommend(&r);
        assert!(recs
            .iter()
            .any(|x| x.code == "syntax-error" && x.severity == Severity::Critical));
    }

    #[test]
    fn nxdomain_include_mentions_takeover() {
        let r = report_for(
            &[("d.example", "v=spf1 include:gone.example -all")],
            "d.example",
        );
        let recs = recommend(&r);
        let rec = recs.iter().find(|x| x.code == "record-not-found").unwrap();
        assert!(rec.message.contains("take it over"));
    }

    #[test]
    fn a_mechanism_shared_host_advice() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("d.example"), "v=spf1 a -all");
        store.add_a(&dom("d.example"), Ipv4Addr::new(203, 0, 113, 10));
        store.add_mx(&dom("d.example"), 10, &dom("mx.d.example"));
        store.add_a(&dom("mx.d.example"), Ipv4Addr::new(203, 0, 113, 11));
        let walker = Walker::new(ZoneResolver::new(store));
        let r = analyze_domain(&walker, &dom("d.example"));
        assert!(codes(&recommend(&r)).contains(&"a-on-shared-host"));
    }

    #[test]
    fn spf_without_mx_warned_unless_deny_all() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("sender.example"), "v=spf1 ip4:192.0.2.1 -all");
        store.add_txt(&dom("parked.example"), "v=spf1 -all");
        let walker = Walker::new(ZoneResolver::new(store));
        let with_mech = analyze_domain(&walker, &dom("sender.example"));
        assert!(codes(&recommend(&with_mech)).contains(&"spf-without-mx"));
        let parked = analyze_domain(&walker, &dom("parked.example"));
        assert!(!codes(&recommend(&parked)).contains(&"spf-without-mx"));
    }

    #[test]
    fn deep_chain_advice() {
        let r = report_for(
            &[
                ("d.example", "v=spf1 include:l1.example -all"),
                ("l1.example", "v=spf1 include:l2.example -all"),
                ("l2.example", "v=spf1 ip4:192.0.2.1 -all"),
            ],
            "d.example",
        );
        assert!(codes(&recommend(&r)).contains(&"deep-include-chain"));
    }
}
