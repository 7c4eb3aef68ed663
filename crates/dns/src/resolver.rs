//! The resolver abstraction: the [`Resolver`] trait and the in-process
//! [`ZoneResolver`].
//!
//! The paper's DNS error cohorts (timeouts, SERVFAIL, NXDOMAIN, empty
//! answers; Section 4.1) come from the zone itself: a name carries a
//! [`ZoneFault`] or is absent or empty, and the [`ZoneResolver`] and every
//! [`crate::UdpNameServer`] serve it alike.

use std::fmt;
use std::sync::Arc;

use spf_types::DomainName;

use crate::record::{Question, RecordType, RrSet};
use crate::zone::{LookupOutcome, ZoneFault, ZoneStore};

/// DNS-level errors as seen by a stub resolver.
///
/// `Ok(RrSet::EMPTY)` from [`Resolver::query`] means NOERROR with an
/// empty answer section; it is *not* an error here, but SPF evaluation
/// counts it as a void lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// The name does not exist (NXDOMAIN). A void lookup in SPF terms.
    NxDomain,
    /// No answer arrived in time — SPF `temperror`.
    Timeout,
    /// The server failed (SERVFAIL) — SPF `temperror`.
    ServFail,
    /// The server refused the query.
    Refused,
    /// Transport-level failure (socket errors in the wire resolver).
    Network(String),
}

impl DnsError {
    /// True for transient errors (`temperror` in RFC 7208 terms): the
    /// paper excludes these 1,179 cases from its error analysis because a
    /// rescan may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DnsError::Timeout | DnsError::ServFail | DnsError::Network(_)
        )
    }
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::NxDomain => write!(f, "NXDOMAIN"),
            DnsError::Timeout => write!(f, "query timed out"),
            DnsError::ServFail => write!(f, "SERVFAIL"),
            DnsError::Refused => write!(f, "REFUSED"),
            DnsError::Network(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for DnsError {}

/// A stub resolver: one question in, its answer's [`RrSet`] (or a DNS
/// error) out. The set is shared with wherever the resolver got it — the
/// zone, a cache, a flight another caller led — so an answer costs no
/// copy of its records.
pub trait Resolver: Send + Sync {
    /// Resolve `name`/`rtype`. `Ok(RrSet::EMPTY)` is NOERROR with no
    /// answers.
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError>;

    /// Resolve several independent questions at once: `answers[i]`
    /// receives the value [`Resolver::query`] would have given for
    /// `questions[i]`. The caller owns the answer slots, so a batch of a
    /// few questions costs no allocation. The default asks the questions
    /// one after another; a resolver that can put them on the wire
    /// together (the [`crate::WireResolver`]) waits once for all of them
    /// instead.
    ///
    /// # Panics
    /// Panics when the two slices differ in length.
    fn query_many(&self, questions: &[Question], answers: &mut [Result<RrSet, DnsError>]) {
        assert_eq!(
            questions.len(),
            answers.len(),
            "one answer slot per question"
        );
        for (q, answer) in questions.iter().zip(answers) {
            *answer = self.query(&q.name, q.rtype);
        }
    }
}

impl<R: Resolver + ?Sized> Resolver for Arc<R> {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
        (**self).query(name, rtype)
    }

    fn query_many(&self, questions: &[Question], answers: &mut [Result<RrSet, DnsError>]) {
        (**self).query_many(questions, answers)
    }
}

/// Direct, in-process resolution against a [`ZoneStore`].
pub struct ZoneResolver {
    store: Arc<ZoneStore>,
}

impl ZoneResolver {
    /// Resolve against the given store.
    pub fn new(store: Arc<ZoneStore>) -> Self {
        ZoneResolver { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<ZoneStore> {
        &self.store
    }
}

impl Resolver for ZoneResolver {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
        match self.store.lookup(name, rtype) {
            LookupOutcome::Records(set) => Ok(set),
            LookupOutcome::NoRecords => Ok(RrSet::EMPTY),
            LookupOutcome::NxDomain => Err(DnsError::NxDomain),
            LookupOutcome::Fault(ZoneFault::Timeout) => Err(DnsError::Timeout),
            LookupOutcome::Fault(ZoneFault::ServFail) => Err(DnsError::ServFail),
            LookupOutcome::Fault(ZoneFault::Refused) => Err(DnsError::Refused),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_testkit::dom;
    use std::net::Ipv4Addr;

    #[test]
    fn zone_resolver_maps_outcomes() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("example.com"), "v=spf1 -all");
        store.add_a(&dom("mail.example.com"), Ipv4Addr::new(192, 0, 2, 10));
        store.set_fault(&dom("broken.example"), ZoneFault::Timeout);
        let r = ZoneResolver::new(Arc::clone(&store));
        assert_eq!(
            r.query(&dom("example.com"), RecordType::Txt).unwrap().len(),
            1
        );
        assert_eq!(
            r.query(&dom("example.com"), RecordType::Mx).unwrap().len(),
            0
        );
        assert_eq!(
            r.query(&dom("nope.example"), RecordType::Txt),
            Err(DnsError::NxDomain)
        );
        assert_eq!(
            r.query(&dom("broken.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
    }

    /// Every lookup of a name hands out the zone's one set: the same
    /// allocation, not a copy of its records.
    #[test]
    fn lookups_of_one_name_share_the_zones_set() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("example.com"), "v=spf1 -all");
        store.add_txt(&dom("example.com"), "v=spf1 +all");
        let r = ZoneResolver::new(store);
        let first = r.query(&dom("example.com"), RecordType::Txt).unwrap();
        let second = r.query(&dom("example.com"), RecordType::Txt).unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(first.as_ptr(), second.as_ptr());
    }
}
