//! Per-domain report assembly: the walker's record analysis combined with
//! the MX / DMARC / deprecated-RR lookups the crawler performs per domain
//! (§4.1: "we collect the following information per domain: SPF record,
//! DMARC record, MX record").

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spf_core::dmarc::{self, DmarcLookup};
use spf_dns::{DnsError, Question, RecordType, Resolver, RrSet};
use spf_types::DomainName;

use crate::taxonomy::{primary_class, ErrorClass};
use crate::walker::{FetchOutcome, RecordAnalysis, Walker};

/// The paper's headline permissiveness threshold: 34.7 % of domains allow
/// more than 100,000 IPv4 addresses.
pub const LAX_IP_THRESHOLD: u64 = 100_000;

/// Everything the study records about one scanned domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainReport {
    /// The scanned domain.
    pub domain: DomainName,
    /// The domain has at least one MX record.
    pub has_mx: bool,
    /// A (single, syntactically fetchable) SPF record was found.
    pub has_spf: bool,
    /// A `_dmarc` TXT record exists.
    pub has_dmarc: bool,
    /// The DMARC record parsed successfully.
    pub dmarc_valid: bool,
    /// The domain still publishes the deprecated SPF RR (type 99).
    pub uses_deprecated_spf_rr: bool,
    /// The root TXT fetch failed transiently — excluded from the error
    /// analysis like the paper's 1,179 DNS errors.
    pub dns_transient: bool,
    /// Full record analysis when an SPF record was found (also present
    /// for fetch failures that still carry error information).
    pub record: Option<Arc<RecordAnalysis>>,
    /// The single Figure 2 class assigned to this domain, if erroneous.
    pub primary_error: Option<ErrorClass>,
}

impl DomainReport {
    /// Number of authorized IPv4 addresses (0 when no SPF record).
    pub fn allowed_ip_count(&self) -> u64 {
        self.record
            .as_ref()
            .map(|r| r.allowed_ip_count())
            .unwrap_or(0)
    }

    /// The paper's "lax configuration" predicate (>100,000 allowed IPs).
    pub fn is_lax(&self) -> bool {
        self.has_spf && self.allowed_ip_count() > LAX_IP_THRESHOLD
    }

    /// The domain has any SPF error (Figure 2 membership).
    pub fn has_error(&self) -> bool {
        self.primary_error.is_some()
    }

    /// §5.1: SPF record without MX — half of these are deliberate deny-all
    /// records, the rest likely misconfigurations.
    pub fn spf_without_mx(&self) -> bool {
        self.has_spf && !self.has_mx
    }
}

/// Run the full per-domain collection: SPF walk + MX + DMARC + type-99.
///
/// The independent root questions — MX, SPF (type 99), `_dmarc` TXT and,
/// unless the walker's memo already holds the root, its TXT record —
/// go to the resolver in one [`Resolver::query_many`] call, so a wire
/// resolver waits on the network once for all of them. Only the DMARC
/// organizational-domain fallback and the walk below the root record
/// ask further questions.
///
/// Kept out of line: inlined into the crawl worker's closure, this body
/// ran `crawl-memory` 4–9 % slower than the unbatched one it replaced,
/// and out of line 1–6 % (2 vCPU guest, interleaved runs).
#[inline(never)]
pub fn analyze_domain<R: Resolver>(walker: &Walker<R>, domain: &DomainName) -> DomainReport {
    let resolver = walker.resolver();
    let memoized = walker.memoized(domain);
    let dmarc_question = dmarc::dmarc_question(domain);
    let asks_dmarc = dmarc_question.is_some();
    let mx = Question::new(domain.clone(), RecordType::Mx);
    let spf = Question::new(domain.clone(), RecordType::Spf);
    let root = || Question::new(domain.clone(), RecordType::Txt);
    // Questions and answers both stay on the stack: on the in-memory path
    // batching allocates nothing.
    let mut answers: [Result<RrSet, DnsError>; 4] = [const { Ok(RrSet::EMPTY) }; 4];
    match (dmarc_question, memoized.is_none()) {
        (Some(dmarc), true) => resolver.query_many(&[mx, spf, dmarc, root()], &mut answers),
        (Some(dmarc), false) => resolver.query_many(&[mx, spf, dmarc], &mut answers[..3]),
        (None, true) => resolver.query_many(&[mx, spf, root()], &mut answers[..3]),
        (None, false) => resolver.query_many(&[mx, spf], &mut answers[..2]),
    }
    let mut answers = answers.into_iter();
    let mut next = || answers.next().expect("one answer per question");

    let has_mx = matches!(next(), Ok(rrs) if !rrs.is_empty());
    let uses_deprecated_spf_rr = matches!(next(), Ok(rrs) if !rrs.is_empty());
    let dmarc_answer = asks_dmarc.then(&mut next);
    let (has_dmarc, dmarc_valid) = match dmarc::query_dmarc_answered(resolver, domain, dmarc_answer)
    {
        DmarcLookup::Found(_) => (true, true),
        DmarcLookup::Invalid(_) => (true, false),
        DmarcLookup::NotFound | DmarcLookup::TempError => (false, false),
    };

    let record = memoized.unwrap_or_else(|| walker.analyze_answered(domain, next()));
    let (has_spf, dns_transient) = match &record.fetch {
        FetchOutcome::Found => (true, false),
        FetchOutcome::Timeout => (false, true),
        FetchOutcome::MultipleSpfRecords { .. } => (false, false),
        _ => (false, false),
    };

    // Error classification: only domains whose own record was analyzable
    // (or that publish multiple records) enter the Figure 2 population;
    // transient failures are excluded like the paper's DNS errors.
    let primary_error = if dns_transient {
        None
    } else if matches!(record.fetch, FetchOutcome::MultipleSpfRecords { .. }) {
        // Multiple records at the scanned domain itself make the policy
        // unusable; the paper folds these into record-not-found.
        Some(ErrorClass::RecordNotFound)
    } else if has_spf {
        primary_class(&record.errors)
    } else {
        None
    };

    DomainReport {
        domain: domain.clone(),
        has_mx,
        has_spf,
        has_dmarc,
        dmarc_valid,
        uses_deprecated_spf_rr,
        dns_transient,
        record: Some(record),
        primary_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::net::Ipv4Addr;

    fn setup() -> (Arc<ZoneStore>, Walker<ZoneResolver>) {
        let store = Arc::new(ZoneStore::new());
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        (store, walker)
    }

    #[test]
    fn full_report_for_clean_domain() {
        let (s, w) = setup();
        let d = dom("good.example");
        s.add_txt(&d, "v=spf1 mx -all");
        s.add_mx(&d, 10, &dom("mx.good.example"));
        s.add_a(&dom("mx.good.example"), Ipv4Addr::new(192, 0, 2, 1));
        s.add_txt(&d.prepend_label("_dmarc").unwrap(), "v=DMARC1; p=reject");
        let r = analyze_domain(&w, &d);
        assert!(r.has_spf && r.has_mx && r.has_dmarc && r.dmarc_valid);
        assert!(!r.has_error());
        assert_eq!(r.allowed_ip_count(), 1);
        assert!(!r.is_lax());
        assert!(!r.uses_deprecated_spf_rr);
    }

    #[test]
    fn lax_domain_detected() {
        let (s, w) = setup();
        let d = dom("lax.example");
        s.add_txt(&d, "v=spf1 ip4:10.0.0.0/14 -all"); // 262,144 addresses
        let r = analyze_domain(&w, &d);
        assert!(r.is_lax());
        assert_eq!(r.allowed_ip_count(), 1 << 18);
    }

    #[test]
    fn spf_without_mx() {
        let (s, w) = setup();
        let d = dom("nomx.example");
        s.add_txt(&d, "v=spf1 -all");
        let r = analyze_domain(&w, &d);
        assert!(r.spf_without_mx());
        assert!(r.record.as_ref().unwrap().is_deny_all_only);
    }

    #[test]
    fn deprecated_rr_flag() {
        let (s, w) = setup();
        let d = dom("old.example");
        s.add_txt(&d, "v=spf1 -all");
        s.add_spf_type99(&d, "v=spf1 -all");
        let r = analyze_domain(&w, &d);
        assert!(r.uses_deprecated_spf_rr);
    }

    #[test]
    fn invalid_dmarc_detected() {
        let (s, w) = setup();
        let d = dom("baddmarc.example");
        s.add_txt(&d, "v=spf1 -all");
        s.add_txt(
            &d.prepend_label("_dmarc").unwrap(),
            "v=DMARC1; rua=mailto:x@y.z",
        );
        let r = analyze_domain(&w, &d);
        assert!(r.has_dmarc);
        assert!(!r.dmarc_valid);
    }

    #[test]
    fn transient_failure_excluded_from_errors() {
        let (s, w) = setup();
        let d = dom("flaky.example");
        s.add_txt(&d, "v=spf1 -all");
        s.set_fault(&d, spf_dns::ZoneFault::Timeout);
        let r = analyze_domain(&w, &d);
        assert!(r.dns_transient);
        assert!(!r.has_spf);
        assert_eq!(r.primary_error, None);
    }

    #[test]
    fn multiple_records_at_root_is_error() {
        let (s, w) = setup();
        let d = dom("twice.example");
        s.add_txt(&d, "v=spf1 -all");
        s.add_txt(&d, "v=spf1 mx -all");
        let r = analyze_domain(&w, &d);
        assert!(!r.has_spf);
        assert_eq!(r.primary_error, Some(ErrorClass::RecordNotFound));
    }

    /// A resolver that records every question it is asked.
    struct Recording {
        inner: ZoneResolver,
        asked: std::sync::Mutex<Vec<Question>>,
    }

    impl Resolver for Recording {
        fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
            self.asked
                .lock()
                .unwrap()
                .push(Question::new(name.clone(), rtype));
            self.inner.query(name, rtype)
        }
    }

    fn recording(store: &Arc<ZoneStore>) -> Walker<Recording> {
        Walker::new(Recording {
            inner: ZoneResolver::new(Arc::clone(store)),
            asked: std::sync::Mutex::new(Vec::new()),
        })
    }

    fn asked(walker: &Walker<Recording>) -> Vec<Question> {
        std::mem::take(&mut *walker.resolver().asked.lock().unwrap())
    }

    #[test]
    fn a_fresh_root_asks_its_four_root_questions_once_each() {
        let store = Arc::new(ZoneStore::new());
        let d = dom("fresh.example");
        store.add_txt(&d, "v=spf1 -all");
        let w = recording(&store);
        analyze_domain(&w, &d);
        let dmarc = d.prepend_label("_dmarc").unwrap();
        assert_eq!(
            asked(&w),
            vec![
                Question::new(d.clone(), RecordType::Mx),
                Question::new(d.clone(), RecordType::Spf),
                Question::new(dmarc, RecordType::Txt),
                Question::new(d, RecordType::Txt),
            ]
        );
    }

    #[test]
    fn a_root_memoized_as_an_include_target_asks_no_root_txt() {
        let store = Arc::new(ZoneStore::new());
        let provider = dom("provider.example");
        store.add_txt(&provider, "v=spf1 ip4:198.51.100.0/24 -all");
        store.add_txt(
            &dom("customer.example"),
            "v=spf1 include:provider.example -all",
        );
        let w = recording(&store);
        analyze_domain(&w, &dom("customer.example"));
        assert!(w.memoized(&provider).is_some());
        asked(&w);
        let report = analyze_domain(&w, &provider);
        assert!(report.has_spf);
        let questions = asked(&w);
        assert_eq!(questions.len(), 3, "{questions:?}");
        assert!(!questions.contains(&Question::new(provider, RecordType::Txt)));
    }

    /// A name server that holds every query until it has four, then
    /// answers them together from `store`.
    fn spawn_quorum_server(
        store: Arc<ZoneStore>,
        stop: Arc<std::sync::atomic::AtomicBool>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        use spf_dns::{LookupOutcome, Message, Rcode};
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(std::time::Duration::from_millis(5)))
            .unwrap();
        let addr = socket.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut held = Vec::new();
            let mut buf = [0u8; 512];
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok((len, peer)) = socket.recv_from(&mut buf) {
                    held.push((spf_dns::decode(&buf[..len]).unwrap(), peer));
                }
                if held.len() < 4 {
                    continue;
                }
                for (query, peer) in held.drain(..) {
                    let (rcode, answers) = match store.lookup_question(&query.questions[0]) {
                        LookupOutcome::Records(rrs) => (Rcode::NoError, rrs),
                        LookupOutcome::NxDomain => (Rcode::NxDomain, RrSet::EMPTY),
                        _ => (Rcode::NoError, RrSet::EMPTY),
                    };
                    let reply = spf_dns::encode(&Message::response(&query, rcode, answers));
                    socket.send_to(&reply.unwrap(), peer).unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_domains_root_questions_reach_the_wire_together() {
        // Asked one at a time, the first question waits for three more
        // that never come and times out; asked together, all four are
        // answered.
        let store = Arc::new(ZoneStore::new());
        let d = dom("quorum.example");
        store.add_txt(&d, "v=spf1 -all");
        store.add_mx(&d, 10, &dom("mx.quorum.example"));
        store.add_txt(&d.prepend_label("_dmarc").unwrap(), "v=DMARC1; p=reject");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (addr, server) = spawn_quorum_server(Arc::clone(&store), Arc::clone(&stop));
        let resolver = spf_dns::WireResolver::new(vec![addr], spf_dns::WireClientConfig::crawl());
        let walker = Walker::new(resolver);
        let report = analyze_domain(&walker, &d);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        server.join().unwrap();
        let snap = walker.resolver().snapshot();
        assert_eq!(snap.temp_errors, 0, "{snap:?}");
        assert!(report.has_spf && report.has_mx && report.dmarc_valid);
        assert_eq!(snap.wire_queries, 4);
        snap.check_conservation().unwrap();
    }

    #[test]
    fn primary_error_assigned() {
        let (s, w) = setup();
        let d = dom("err.example");
        s.add_txt(&d, "v=spf1 include:gone.example -all");
        let r = analyze_domain(&w, &d);
        assert_eq!(r.primary_error, Some(ErrorClass::RecordNotFound));
    }
}
