//! The paper's error taxonomy (Figures 2 and 3).
//!
//! Figure 2 partitions the 211,018 erroneous domains into seven disjoint
//! classes (the per-class counts sum exactly to the total, so the paper
//! assigns each domain one *primary* error). [`ErrorClass`] lists the
//! classes and [`primary_class`] applies a fixed priority when a domain
//! exhibits several.

use std::fmt;

use serde::{Deserialize, Serialize};
use spf_core::NotFoundCause;
use spf_types::DomainName;

/// The seven top-level error classes of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ErrorClass {
    /// An include/redirect target had no usable SPF record (42.98 % of
    /// errors — the most common class).
    RecordNotFound,
    /// More than 10 DNS-querying terms (23.42 %).
    TooManyDnsLookups,
    /// More than 2 void lookups (2.52 %).
    TooManyVoidDnsLookups,
    /// A redirect chain loops (0.03 %).
    RedirectLoop,
    /// An include chain loops (9.17 %).
    IncludeLoop,
    /// Malformed record text (18.15 %).
    SyntaxError,
    /// A malformed IP address in ip4/ip6 (3.74 %).
    InvalidIpAddress,
}

impl ErrorClass {
    /// All classes in Figure 2's display order.
    pub const ALL: [ErrorClass; 7] = [
        ErrorClass::SyntaxError,
        ErrorClass::TooManyDnsLookups,
        ErrorClass::TooManyVoidDnsLookups,
        ErrorClass::RedirectLoop,
        ErrorClass::IncludeLoop,
        ErrorClass::RecordNotFound,
        ErrorClass::InvalidIpAddress,
    ];

    /// The paper's label for the class.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::SyntaxError => "Syntax Error",
            ErrorClass::TooManyDnsLookups => "Too Many DNS Lookups",
            ErrorClass::TooManyVoidDnsLookups => "Too Many Void DNS Lookups",
            ErrorClass::RedirectLoop => "Redirect Loop",
            ErrorClass::IncludeLoop => "Include Loop",
            ErrorClass::RecordNotFound => "Record not found",
            ErrorClass::InvalidIpAddress => "Invalid IP address",
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete error found during analysis, with where it surfaced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisError {
    /// The Figure 2 class.
    pub class: ErrorClass,
    /// The domain whose record exhibited the problem (the root domain for
    /// syntax errors, an include target for record-not-found, …).
    pub at_domain: DomainName,
    /// Sub-cause for record-not-found errors (Figure 3).
    pub not_found_cause: Option<NotFoundCause>,
    /// Human-readable detail.
    pub detail: String,
}

impl AnalysisError {
    /// Construct an error without a not-found sub-cause.
    pub fn new(class: ErrorClass, at_domain: DomainName, detail: impl Into<String>) -> Self {
        AnalysisError {
            class,
            at_domain,
            not_found_cause: None,
            detail: detail.into(),
        }
    }

    /// Construct a record-not-found error with its Figure 3 cause.
    pub fn not_found(
        at_domain: DomainName,
        cause: NotFoundCause,
        detail: impl Into<String>,
    ) -> Self {
        AnalysisError {
            class: ErrorClass::RecordNotFound,
            at_domain,
            not_found_cause: Some(cause),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.class, self.at_domain, self.detail)?;
        if let Some(cause) = self.not_found_cause {
            write!(f, " ({cause})")?;
        }
        Ok(())
    }
}

/// Pick the primary error class for a domain with several errors, using a
/// fixed priority so classification is deterministic. The netsim cohorts
/// inject one error per domain, making the choice unambiguous there; in
/// the wild the paper's partition implies the same single-label scheme.
pub fn primary_class(errors: &[AnalysisError]) -> Option<ErrorClass> {
    const PRIORITY: [ErrorClass; 7] = [
        ErrorClass::RedirectLoop,
        ErrorClass::IncludeLoop,
        ErrorClass::TooManyDnsLookups,
        ErrorClass::TooManyVoidDnsLookups,
        ErrorClass::RecordNotFound,
        ErrorClass::InvalidIpAddress,
        ErrorClass::SyntaxError,
    ];
    PRIORITY
        .into_iter()
        .find(|class| errors.iter().any(|e| e.class == *class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_testkit::dom;

    #[test]
    fn class_labels_match_paper() {
        assert_eq!(ErrorClass::RecordNotFound.label(), "Record not found");
        assert_eq!(
            ErrorClass::TooManyDnsLookups.label(),
            "Too Many DNS Lookups"
        );
        // Figure 3's causes in its display order, which `ALL` keeps.
        let figure3 = [
            (NotFoundCause::OtherError, "Other Errors"),
            (NotFoundCause::NoSpfRecord, "No SPF Record"),
            (NotFoundCause::MultipleSpfRecords, "Multiple SPF Records"),
            (NotFoundCause::DomainNotFound, "Domain not found"),
            (NotFoundCause::EmptyResult, "Empty Result"),
            (NotFoundCause::DnsTimeout, "DNS Timeout"),
        ];
        assert_eq!(NotFoundCause::ALL, figure3.map(|(cause, _)| cause));
        for (cause, label) in figure3 {
            assert_eq!(cause.label(), label);
            assert_eq!(cause.to_string(), label);
        }
        // `Ord` follows the declaration, which orders the aggregate's
        // per-cause map.
        let mut sorted = NotFoundCause::ALL;
        sorted.sort();
        assert_eq!(
            sorted,
            [
                NotFoundCause::NoSpfRecord,
                NotFoundCause::MultipleSpfRecords,
                NotFoundCause::DomainNotFound,
                NotFoundCause::EmptyResult,
                NotFoundCause::DnsTimeout,
                NotFoundCause::OtherError,
            ]
        );
    }

    #[test]
    fn all_lists_cover_every_variant() {
        assert_eq!(ErrorClass::ALL.len(), 7);
        assert_eq!(NotFoundCause::ALL.len(), 6);
    }

    #[test]
    fn primary_class_priority() {
        let errors = vec![
            AnalysisError::new(ErrorClass::SyntaxError, dom("a.example"), "typo"),
            AnalysisError::new(ErrorClass::IncludeLoop, dom("a.example"), "loop"),
        ];
        assert_eq!(primary_class(&errors), Some(ErrorClass::IncludeLoop));
        assert_eq!(primary_class(&[]), None);
    }

    #[test]
    fn not_found_constructor_sets_cause() {
        let e = AnalysisError::not_found(dom("x.example"), NotFoundCause::DomainNotFound, "nx");
        assert_eq!(e.class, ErrorClass::RecordNotFound);
        assert_eq!(e.not_found_cause, Some(NotFoundCause::DomainNotFound));
        assert!(e.to_string().contains("Domain not found"));
    }
}
