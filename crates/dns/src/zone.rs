//! In-memory authoritative zone data.
//!
//! The [`ZoneStore`] is the substrate standing in for "the DNS of the
//! Internet": the netsim crate publishes millions of synthetic records into
//! it, and the crawler/analyzer resolve against it — either in-process via
//! [`crate::resolver::ZoneResolver`] or over real UDP via
//! [`crate::udp::UdpNameServer`].
//!
//! Besides record data, a name can carry a [`ZoneFault`], which reproduces
//! the DNS-level failures the paper observed inside SPF evaluations
//! (timeouts → `temperror`, NXDOMAIN and empty answers → void lookups).

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use spf_types::{DomainHashBuilder, DomainName};

use crate::record::{Question, RecordData, RecordType, ResourceRecord, RrSet, TxtData};

/// A simulated per-name DNS failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneFault {
    /// The server never answers; resolvers observe a timeout
    /// (`temperror` in SPF terms).
    Timeout,
    /// The server answers SERVFAIL.
    ServFail,
    /// The server refuses the query.
    Refused,
}

/// Outcome of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// NOERROR with answer records: the zone's own set, shared.
    Records(RrSet),
    /// NOERROR but the name owns no records of the asked type
    /// (a "void lookup" of the empty-answer kind when it happens inside
    /// SPF processing).
    NoRecords,
    /// The name does not exist at all.
    NxDomain,
    /// A configured failure.
    Fault(ZoneFault),
}

/// Everything the store knows about one owner name. Keeping the fault next
/// to the records means the hot-path lookup is a *single* map probe, and
/// the outer map hashes via the name's precomputed hash
/// ([`DomainHashBuilder`]) instead of re-running SipHash per query. A name
/// owns a few types at most, so its sets are a short list scanned in
/// order, each the [`RrSet`] every lookup of it hands out: a lookup costs
/// one reference count, and an edit replaces the set it touches, leaving
/// the one a reader holds as it was.
#[derive(Default)]
struct NameEntry {
    types: Vec<(RecordType, RrSet)>,
    fault: Option<ZoneFault>,
}

impl NameEntry {
    fn set(&self, rtype: RecordType) -> Option<&RrSet> {
        self.types
            .iter()
            .find(|(t, _)| *t == rtype)
            .map(|(_, set)| set)
    }

    /// Append `rr` to the set of its type, after the records it holds.
    fn push(&mut self, rr: ResourceRecord) {
        let rtype = rr.record_type();
        match self.types.iter_mut().find(|(t, _)| *t == rtype) {
            Some((_, set)) => *set = set.with(rr),
            None => self.types.push((rtype, RrSet::from(vec![rr]))),
        }
    }

    fn remove(&mut self, rtype: RecordType) {
        self.types.retain(|(t, _)| *t != rtype);
    }
}

#[derive(Default)]
struct ZoneInner {
    records: HashMap<DomainName, NameEntry, DomainHashBuilder>,
}

/// Thread-safe in-memory zone data for the whole simulated Internet.
///
/// ```
/// use spf_dns::{ZoneStore, RecordType, LookupOutcome};
/// use spf_types::DomainName;
///
/// let store = ZoneStore::new();
/// let name = DomainName::parse("example.com").unwrap();
/// store.add_txt(&name, "v=spf1 -all");
/// match store.lookup(&name, RecordType::Txt) {
///     LookupOutcome::Records(rrs) => assert_eq!(rrs.len(), 1),
///     other => panic!("unexpected {other:?}"),
/// }
/// assert_eq!(store.lookup(&name, RecordType::Mx), LookupOutcome::NoRecords);
/// ```
#[derive(Default)]
pub struct ZoneStore {
    inner: RwLock<ZoneInner>,
}

impl ZoneStore {
    /// An empty store.
    pub fn new() -> Self {
        ZoneStore::default()
    }

    /// The zone for reading. A poisoned lock is recovered, as
    /// `spf_types::ShardedCache` recovers its stripes: every edit leaves
    /// the maps whole between statements.
    fn read(&self) -> RwLockReadGuard<'_, ZoneInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The zone for an edit; see [`ZoneStore::read`].
    fn write(&self) -> RwLockWriteGuard<'_, ZoneInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert a fully formed record.
    pub fn add_record(&self, rr: ResourceRecord) {
        self.write()
            .records
            .entry(rr.name.clone())
            .or_default()
            .push(rr);
    }

    /// Add a TXT record with the given text (split into char-strings).
    pub fn add_txt(&self, name: &DomainName, text: &str) {
        self.add_record(ResourceRecord::new(
            name.clone(),
            RecordData::Txt(TxtData::from_text(text)),
        ));
    }

    /// Add a record of the deprecated SPF type 99.
    pub fn add_spf_type99(&self, name: &DomainName, text: &str) {
        self.add_record(ResourceRecord::new(
            name.clone(),
            RecordData::Spf(TxtData::from_text(text)),
        ));
    }

    /// Add an A record.
    pub fn add_a(&self, name: &DomainName, addr: std::net::Ipv4Addr) {
        self.add_record(ResourceRecord::new(name.clone(), RecordData::A(addr)));
    }

    /// Add an MX record.
    pub fn add_mx(&self, name: &DomainName, preference: u16, exchange: &DomainName) {
        self.add_record(ResourceRecord::new(
            name.clone(),
            RecordData::Mx {
                preference,
                exchange: exchange.clone(),
            },
        ));
    }

    /// Register a name that exists in the DNS but owns no records at all —
    /// queries return NOERROR with an empty answer ("Empty Result" in the
    /// paper's Figure 3).
    pub fn add_empty_name(&self, name: &DomainName) {
        self.write().records.entry(name.clone()).or_default();
    }

    /// Configure a failure mode for a name (applies to all record types).
    pub fn set_fault(&self, name: &DomainName, fault: ZoneFault) {
        self.write().records.entry(name.clone()).or_default().fault = Some(fault);
    }

    /// Remove all records and faults for a name. Used by the remediation
    /// model when an operator "fixes" a record.
    pub fn remove_name(&self, name: &DomainName) {
        self.write().records.remove(name);
    }

    /// Remove every record of one type from a name, leaving the name
    /// (and its other RRsets, faults, or empty registration) intact.
    /// The churn simulator's MX-failover flip swaps a domain's exchange
    /// set this way without destroying its TXT policy.
    pub fn remove_type(&self, name: &DomainName, rtype: RecordType) {
        if let Some(entry) = self.write().records.get_mut(name) {
            entry.remove(rtype);
        }
    }

    /// Replace the TXT records of a name with a single new text.
    pub fn replace_txt(&self, name: &DomainName, text: &str) {
        let rr = ResourceRecord::new(name.clone(), RecordData::Txt(TxtData::from_text(text)));
        let mut inner = self.write();
        let entry = inner.records.entry(name.clone()).or_default();
        entry.remove(RecordType::Txt);
        entry.push(rr);
    }

    /// Authoritative lookup. A hit hands out the zone's own set.
    pub fn lookup(&self, name: &DomainName, rtype: RecordType) -> LookupOutcome {
        let inner = self.read();
        match inner.records.get(name) {
            None => LookupOutcome::NxDomain,
            Some(entry) => {
                if let Some(fault) = entry.fault {
                    return LookupOutcome::Fault(fault);
                }
                match entry.set(rtype) {
                    Some(set) => LookupOutcome::Records(set.clone()),
                    None => LookupOutcome::NoRecords,
                }
            }
        }
    }

    /// Lookup by question.
    pub fn lookup_question(&self, q: &Question) -> LookupOutcome {
        self.lookup(&q.name, q.rtype)
    }

    /// True if the name is present in the store (owns records, was
    /// registered empty, or carries a fault).
    pub fn name_exists(&self, name: &DomainName) -> bool {
        self.read().records.contains_key(name)
    }

    /// Total number of records in the store.
    pub fn record_count(&self) -> usize {
        self.read()
            .records
            .values()
            .flat_map(|e| &e.types)
            .map(|(_, set)| set.len())
            .sum()
    }

    /// The joined TXT strings of every TXT record at `name`, in insertion
    /// order. Convenience for tests and the analyzer's multi-record check.
    pub fn txt_strings(&self, name: &DomainName) -> Vec<String> {
        match self.lookup(name, RecordType::Txt) {
            LookupOutcome::Records(rrs) => rrs
                .iter()
                .filter_map(|rr| match &rr.data {
                    RecordData::Txt(t) => Some(t.joined()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_testkit::dom;
    use std::net::Ipv4Addr;

    #[test]
    fn remove_type_leaves_other_rrsets_intact() {
        let store = ZoneStore::new();
        let name = dom("mail.example");
        store.add_txt(&name, "v=spf1 mx -all");
        store.add_mx(&name, 10, &dom("mx1.example"));
        store.add_mx(&name, 20, &dom("mx2.example"));
        store.remove_type(&name, RecordType::Mx);
        assert_eq!(
            store.lookup(&name, RecordType::Mx),
            LookupOutcome::NoRecords
        );
        assert_eq!(store.txt_strings(&name), vec!["v=spf1 mx -all".to_string()]);
        // The name itself survives: still NOERROR, not NXDOMAIN.
        assert!(store.name_exists(&name));
        // Removing a type the name never had is a no-op.
        store.remove_type(&dom("absent.example"), RecordType::Mx);
        assert!(!store.name_exists(&dom("absent.example")));
    }

    #[test]
    fn nxdomain_vs_no_records() {
        let store = ZoneStore::new();
        let name = dom("exists.example");
        store.add_a(&name, Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(
            store.lookup(&name, RecordType::Txt),
            LookupOutcome::NoRecords
        );
        assert_eq!(
            store.lookup(&dom("missing.example"), RecordType::Txt),
            LookupOutcome::NxDomain
        );
    }

    #[test]
    fn multiple_records_of_same_type() {
        let store = ZoneStore::new();
        let name = dom("multi.example");
        store.add_txt(&name, "v=spf1 -all");
        store.add_txt(&name, "v=spf1 +all");
        match store.lookup(&name, RecordType::Txt) {
            LookupOutcome::Records(rrs) => assert_eq!(rrs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(store.txt_strings(&name).len(), 2);
    }

    /// Records of one type come back in the order they were added, when
    /// adds of another type fall between them; a reader's set stays as it
    /// was when a later add replaces it.
    #[test]
    fn insertion_order_holds_within_a_type_across_interleaved_adds() {
        let store = ZoneStore::new();
        let name = dom("mixed.example");
        store.add_txt(&name, "first");
        store.add_mx(&name, 20, &dom("mx2.example"));
        let held = store.lookup(&name, RecordType::Txt);
        store.add_txt(&name, "second");
        store.add_mx(&name, 10, &dom("mx1.example"));
        store.add_txt(&name, "third");
        assert_eq!(store.txt_strings(&name), ["first", "second", "third"]);
        let LookupOutcome::Records(mx) = store.lookup(&name, RecordType::Mx) else {
            panic!("no MX set");
        };
        let exchanges: Vec<String> = mx
            .iter()
            .map(|rr| match &rr.data {
                RecordData::Mx { exchange, .. } => exchange.to_string(),
                other => panic!("{other:?} in the MX set"),
            })
            .collect();
        assert_eq!(exchanges, ["mx2.example", "mx1.example"]);
        let LookupOutcome::Records(held) = held else {
            panic!("no TXT set");
        };
        assert_eq!(held.len(), 1);
        assert_eq!(store.record_count(), 5);
    }

    #[test]
    fn faults_override_records() {
        let store = ZoneStore::new();
        let name = dom("flaky.example");
        store.add_txt(&name, "v=spf1 -all");
        store.set_fault(&name, ZoneFault::Timeout);
        assert_eq!(
            store.lookup(&name, RecordType::Txt),
            LookupOutcome::Fault(ZoneFault::Timeout)
        );
    }

    #[test]
    fn remove_and_replace() {
        let store = ZoneStore::new();
        let name = dom("fixme.example");
        store.add_txt(&name, "v=spf1 ipv4:1.2.3.4 -all");
        store.replace_txt(&name, "v=spf1 ip4:1.2.3.4 -all");
        assert_eq!(store.txt_strings(&name), vec!["v=spf1 ip4:1.2.3.4 -all"]);
        store.remove_name(&name);
        assert_eq!(
            store.lookup(&name, RecordType::Txt),
            LookupOutcome::NxDomain
        );
    }

    #[test]
    fn counts() {
        let store = ZoneStore::new();
        store.add_a(&dom("a.example"), Ipv4Addr::new(1, 1, 1, 1));
        store.add_a(&dom("a.example"), Ipv4Addr::new(1, 1, 1, 2));
        store.add_txt(&dom("b.example"), "hello");
        assert_eq!(store.read().records.len(), 2);
        assert_eq!(store.record_count(), 3);
        assert!(store.name_exists(&dom("a.example")));
        assert!(!store.name_exists(&dom("c.example")));
    }
}
