//! The one SPF fetch step: a name's TXT answer in, the RFC 7208 §4.5
//! selection of its one `v=spf1` string and that string's lenient parse
//! out — or the reason there is none.
//!
//! Every consumer reads a view of the same step. The analyzer's walker
//! keeps the selected text and the lenient parse (every syntax error);
//! `check_host` and the policy compiler keep [`ParsedRecord::strict`],
//! the first error. A failed fetch is one [`FetchFailure`], and its
//! Figure 3 cause is [`FetchFailure::cause`]. Each consumer charges the
//! void lookup a failure incurs ([`FetchFailure::is_void`]) itself.

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};
use spf_dns::{DnsError, RecordData, RrSet};
use spf_types::SpfRecord;

use crate::parse::{self, ParsedRecord, SyntaxError};

/// Select the SPF record from a TXT query's outcome per RFC 7208 §4.5:
/// join each string, keep the `v=spf1` ones, and parse the one there
/// must be. The text is borrowed from `answer` when it is a single
/// character-string.
pub fn select_record(
    answer: &Result<RrSet, DnsError>,
) -> Result<(Cow<'_, str>, ParsedRecord), FetchFailure> {
    let answers = match answer {
        Ok(a) => a,
        Err(DnsError::NxDomain) => return Err(FetchFailure::NxDomain),
        Err(_) => return Err(FetchFailure::Transient),
    };
    let mut spf_texts = answers.iter().filter_map(|rr| match &rr.data {
        RecordData::Txt(t) => Some(t.text()).filter(|text| parse::is_spf_record(text)),
        _ => None,
    });
    match (spf_texts.next(), spf_texts.count()) {
        (None, _) if answers.is_empty() => Err(FetchFailure::EmptyAnswer),
        (None, _) => Err(FetchFailure::NoSpfRecord),
        (Some(text), 0) => {
            let parsed = parse::parse_lenient(&text);
            Ok((text, parsed))
        }
        (Some(_), more) => Err(FetchFailure::Multiple(more + 1)),
    }
}

impl ParsedRecord {
    /// The strict view of the parse: the record, or its first syntax
    /// error (what `check_host` reports as `permerror`).
    pub fn strict(self) -> Result<SpfRecord, SyntaxError> {
        match self.errors.into_iter().next() {
            None => Ok(self.record),
            Some(e) => Err(e),
        }
    }
}

/// Why [`select_record`] found no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchFailure {
    /// A timeout, SERVFAIL or refusal: a `temperror`, and never memoized.
    Transient,
    /// NXDOMAIN.
    NxDomain,
    /// NOERROR with an empty answer.
    EmptyAnswer,
    /// The name answers, but none of its TXT strings is an SPF record.
    NoSpfRecord,
    /// The name publishes this many SPF records.
    Multiple(usize),
}

impl FetchFailure {
    /// Whether the fetch was an RFC 7208 §4.6.4 void lookup.
    pub fn is_void(self) -> bool {
        matches!(self, FetchFailure::NxDomain | FetchFailure::EmptyAnswer)
    }

    /// The failure's Figure 3 cause.
    pub fn cause(self) -> NotFoundCause {
        match self {
            FetchFailure::Transient => NotFoundCause::DnsTimeout,
            FetchFailure::NxDomain => NotFoundCause::DomainNotFound,
            FetchFailure::EmptyAnswer => NotFoundCause::EmptyResult,
            FetchFailure::NoSpfRecord => NotFoundCause::NoSpfRecord,
            FetchFailure::Multiple(_) => NotFoundCause::MultipleSpfRecords,
        }
    }
}

/// Sub-causes of a missing record, matching Figure 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NotFoundCause {
    /// The target resolves but publishes no SPF record (53.8 %).
    NoSpfRecord,
    /// The target publishes more than one SPF record (2.5 % — of which
    /// 75.6 % were a single hosting provider, cafe24.com).
    MultipleSpfRecords,
    /// NXDOMAIN (40.5 %) — dangerous if the name can be re-registered.
    DomainNotFound,
    /// NOERROR with an empty answer (173 cases).
    EmptyResult,
    /// Query timeout (2,691 cases).
    DnsTimeout,
    /// Oversized labels/names or undecodable bytes (3 cases).
    OtherError,
}

impl NotFoundCause {
    /// All causes in Figure 3's display order.
    pub const ALL: [NotFoundCause; 6] = [
        NotFoundCause::OtherError,
        NotFoundCause::NoSpfRecord,
        NotFoundCause::MultipleSpfRecords,
        NotFoundCause::DomainNotFound,
        NotFoundCause::EmptyResult,
        NotFoundCause::DnsTimeout,
    ];

    /// The paper's label for the cause.
    pub fn label(self) -> &'static str {
        match self {
            NotFoundCause::OtherError => "Other Errors",
            NotFoundCause::NoSpfRecord => "No SPF Record",
            NotFoundCause::MultipleSpfRecords => "Multiple SPF Records",
            NotFoundCause::DomainNotFound => "Domain not found",
            NotFoundCause::EmptyResult => "Empty Result",
            NotFoundCause::DnsTimeout => "DNS Timeout",
        }
    }
}

impl fmt::Display for NotFoundCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{RecordType, Resolver, ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    #[test]
    fn the_selected_text_is_borrowed_and_strict_keeps_the_first_error() {
        let store = Arc::new(ZoneStore::new());
        let text = "v=spf1 ipv4:192.0.2.1 ip4:1.2.3 -all";
        store.add_txt(&dom("bad.example"), text);
        let answer = ZoneResolver::new(store).query(&dom("bad.example"), RecordType::Txt);
        let (selected, parsed) = select_record(&answer).expect("one record");
        assert!(matches!(selected, Cow::Borrowed(_)));
        assert_eq!(selected, text);
        assert_eq!(parsed.errors.len(), 2);
        assert_eq!(parsed.clone().strict(), Err(parsed.errors[0].clone()));
        assert_eq!(parse::parse(text), Err(parsed.errors[0].clone()));
    }
}
