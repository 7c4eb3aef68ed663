//! The resolver abstraction and the composable layers the crawler stacks
//! on top of it, mirroring Section 4.1 of the paper:
//!
//! * **rate limiting** "across 150 servers",
//! * **fault injection** so the error cohorts (timeouts, NXDOMAIN, empty
//!   answers) arise from the DNS layer exactly as in the wild.
//!
//! All layers implement [`Resolver`] and can be stacked in any order.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spf_types::DomainName;

use crate::clock::Clock;
use crate::lock;
use crate::record::{Question, RecordType, ResourceRecord};
use crate::zone::{LookupOutcome, ZoneFault, ZoneStore};

/// DNS-level errors as seen by a stub resolver.
///
/// `Ok(vec![])` from [`Resolver::query`] means NOERROR with an empty answer
/// section; it is *not* an error here, but SPF evaluation counts it as a
/// void lookup.
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

/// A stub resolver: one question in, records (or a DNS error) out.
pub trait Resolver: Send + Sync {
    /// Resolve `name`/`rtype`. `Ok(vec![])` is NOERROR with no answers.
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError>;

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
    fn query_many(
        &self,
        questions: &[Question],
        answers: &mut [Result<Vec<ResourceRecord>, DnsError>],
    ) {
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
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        (**self).query(name, rtype)
    }

    fn query_many(
        &self,
        questions: &[Question],
        answers: &mut [Result<Vec<ResourceRecord>, DnsError>],
    ) {
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
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        match self.store.lookup(name, rtype) {
            LookupOutcome::Records(rrs) => Ok(rrs),
            LookupOutcome::NoRecords => Ok(Vec::new()),
            LookupOutcome::NxDomain => Err(DnsError::NxDomain),
            LookupOutcome::Fault(ZoneFault::Timeout) => Err(DnsError::Timeout),
            LookupOutcome::Fault(ZoneFault::ServFail) => Err(DnsError::ServFail),
            LookupOutcome::Fault(ZoneFault::Refused) => Err(DnsError::Refused),
        }
    }
}

/// Counters of a [`CountingResolver`].
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Total queries seen.
    pub queries: AtomicU64,
    /// Errors returned (any [`DnsError`]).
    pub errors: AtomicU64,
}

/// A pure counting layer, used to measure DNS load in the cache ablation.
pub struct CountingResolver<R> {
    inner: R,
    stats: Arc<QueryStats>,
}

impl<R: Resolver> CountingResolver<R> {
    /// Wrap `inner` with counters.
    pub fn new(inner: R) -> Self {
        CountingResolver {
            inner,
            stats: Arc::new(QueryStats::default()),
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<QueryStats> {
        Arc::clone(&self.stats)
    }
}

impl<R: Resolver> Resolver for CountingResolver<R> {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let result = self.inner.query(name, rtype);
        if result.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

/// Token-bucket rate limiter modelling the paper's "distribute and rate
/// limit the DNS requests across 150 servers".
///
/// Each of the `endpoints` buckets refills at `per_endpoint_rate` tokens
/// per second; a query consumes one token from the least-loaded bucket,
/// sleeping on the configured [`Clock`] when all buckets are dry. With a
/// [`crate::clock::VirtualClock`] the wait is instantaneous but the
/// *accumulated wait time* is still observable.
pub struct RateLimitedResolver<R> {
    inner: R,
    clock: Arc<dyn Clock>,
    state: Mutex<BucketState>,
    per_endpoint_rate: f64,
    burst: f64,
    endpoints: usize,
    total_wait: Mutex<Duration>,
}

struct BucketState {
    tokens: Vec<f64>,
    last_refill: Duration,
}

impl<R: Resolver> RateLimitedResolver<R> {
    /// Wrap `inner`, allowing `per_endpoint_rate` queries/second on each of
    /// `endpoints` simulated resolver endpoints.
    pub fn new(inner: R, clock: Arc<dyn Clock>, endpoints: usize, per_endpoint_rate: f64) -> Self {
        assert!(endpoints > 0 && per_endpoint_rate > 0.0);
        let burst = per_endpoint_rate.max(1.0);
        RateLimitedResolver {
            inner,
            state: Mutex::new(BucketState {
                tokens: vec![burst; endpoints],
                last_refill: clock.now(),
            }),
            clock,
            per_endpoint_rate,
            burst,
            endpoints,
            total_wait: Mutex::new(Duration::ZERO),
        }
    }

    /// Total time spent waiting for tokens.
    pub fn total_wait(&self) -> Duration {
        *lock(&self.total_wait)
    }

    /// Number of simulated endpoints.
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    fn acquire(&self) {
        loop {
            let wait = {
                let mut st = lock(&self.state);
                let now = self.clock.now();
                let elapsed = now.saturating_sub(st.last_refill).as_secs_f64();
                if elapsed > 0.0 {
                    for t in st.tokens.iter_mut() {
                        *t = (*t + elapsed * self.per_endpoint_rate).min(self.burst);
                    }
                    st.last_refill = now;
                }
                // Pick the fullest bucket (the scheduler spreading load).
                let (best, best_tokens) =
                    st.tokens
                        .iter()
                        .cloned()
                        .enumerate()
                        .fold(
                            (0, f64::MIN),
                            |acc, (i, t)| if t > acc.1 { (i, t) } else { acc },
                        );
                if best_tokens >= 1.0 {
                    st.tokens[best] -= 1.0;
                    None
                } else {
                    // Time until the fullest bucket reaches one token.
                    let deficit = 1.0 - best_tokens;
                    Some(Duration::from_secs_f64(deficit / self.per_endpoint_rate))
                }
            };
            match wait {
                None => return,
                Some(d) => {
                    *lock(&self.total_wait) += d;
                    self.clock.sleep(d);
                }
            }
        }
    }
}

impl<R: Resolver> Resolver for RateLimitedResolver<R> {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        self.acquire();
        self.inner.query(name, rtype)
    }
}

/// Probabilities for the fault-injecting layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a query times out.
    pub timeout: f64,
    /// Probability a query returns NXDOMAIN regardless of zone content.
    pub nxdomain: f64,
    /// Probability a query returns an empty NOERROR answer.
    pub empty: f64,
    /// Probability a query returns SERVFAIL.
    pub servfail: f64,
}

impl FaultProfile {
    /// No injected faults.
    pub fn none() -> Self {
        FaultProfile {
            timeout: 0.0,
            nxdomain: 0.0,
            empty: 0.0,
            servfail: 0.0,
        }
    }
}

/// Randomly injects DNS failures in front of `inner` (smoltcp-style fault
/// injection, applied at the resolver boundary).
pub struct FaultInjectingResolver<R> {
    inner: R,
    profile: FaultProfile,
    rng: Mutex<StdRng>,
    injected: AtomicU64,
}

impl<R: Resolver> FaultInjectingResolver<R> {
    /// Wrap `inner` with the given fault profile and RNG seed.
    pub fn new(inner: R, profile: FaultProfile, seed: u64) -> Self {
        let total = profile.timeout + profile.nxdomain + profile.empty + profile.servfail;
        assert!((0.0..=1.0).contains(&total), "fault probabilities exceed 1");
        FaultInjectingResolver {
            inner,
            profile,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            injected: AtomicU64::new(0),
        }
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<R: Resolver> Resolver for FaultInjectingResolver<R> {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let roll: f64 = lock(&self.rng).random();
        let p = &self.profile;
        let mut acc = p.timeout;
        if roll < acc {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(DnsError::Timeout);
        }
        acc += p.nxdomain;
        if roll < acc {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(DnsError::NxDomain);
        }
        acc += p.empty;
        if roll < acc {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Ok(Vec::new());
        }
        acc += p.servfail;
        if roll < acc {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(DnsError::ServFail);
        }
        self.inner.query(name, rtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::net::Ipv4Addr;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn store_with_basics() -> Arc<ZoneStore> {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("example.com"), "v=spf1 -all");
        store.add_a(&dom("mail.example.com"), Ipv4Addr::new(192, 0, 2, 10));
        store
    }

    #[test]
    fn zone_resolver_maps_outcomes() {
        let store = store_with_basics();
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

    #[test]
    fn counting_resolver_counts() {
        let r = CountingResolver::new(ZoneResolver::new(store_with_basics()));
        let stats = r.stats();
        r.query(&dom("example.com"), RecordType::Txt).unwrap();
        let _ = r.query(&dom("missing.example"), RecordType::Txt);
        assert_eq!(stats.queries.load(Ordering::Relaxed), 2);
        assert_eq!(stats.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rate_limiter_waits_on_virtual_clock() {
        let clock = Arc::new(VirtualClock::new());
        // 1 endpoint, 2 q/s, burst 2: the 3rd immediate query must wait.
        let r = RateLimitedResolver::new(
            ZoneResolver::new(store_with_basics()),
            clock.clone(),
            1,
            2.0,
        );
        for _ in 0..5 {
            r.query(&dom("example.com"), RecordType::Txt).unwrap();
        }
        assert!(r.total_wait() > Duration::ZERO);
        // Virtual time advanced instead of real sleeping.
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn rate_limiter_many_endpoints_less_waiting() {
        let clock_a = Arc::new(VirtualClock::new());
        let slow =
            RateLimitedResolver::new(ZoneResolver::new(store_with_basics()), clock_a, 1, 1.0);
        let clock_b = Arc::new(VirtualClock::new());
        let fast =
            RateLimitedResolver::new(ZoneResolver::new(store_with_basics()), clock_b, 150, 1.0);
        for _ in 0..20 {
            slow.query(&dom("example.com"), RecordType::Txt).unwrap();
            fast.query(&dom("example.com"), RecordType::Txt).unwrap();
        }
        assert!(fast.total_wait() < slow.total_wait());
    }

    #[test]
    fn fault_injection_rates_are_plausible() {
        let profile = FaultProfile {
            timeout: 0.2,
            nxdomain: 0.2,
            empty: 0.1,
            servfail: 0.0,
        };
        let r = FaultInjectingResolver::new(ZoneResolver::new(store_with_basics()), profile, 42);
        let mut timeouts = 0;
        let mut nx = 0;
        let mut empty = 0;
        let mut ok = 0;
        for _ in 0..2000 {
            match r.query(&dom("example.com"), RecordType::Txt) {
                Ok(v) if v.is_empty() => empty += 1,
                Ok(_) => ok += 1,
                Err(DnsError::Timeout) => timeouts += 1,
                Err(DnsError::NxDomain) => nx += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(r.injected() as usize, timeouts + nx + empty);
        // Loose 3-sigma style bounds.
        assert!((300..=500).contains(&timeouts), "timeouts={timeouts}");
        assert!((300..=500).contains(&nx), "nx={nx}");
        assert!((120..=280).contains(&empty), "empty={empty}");
        assert!((800..=1200).contains(&ok), "ok={ok}");
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let profile = FaultProfile {
            timeout: 0.5,
            nxdomain: 0.0,
            empty: 0.0,
            servfail: 0.0,
        };
        let results: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let r =
                    FaultInjectingResolver::new(ZoneResolver::new(store_with_basics()), profile, 7);
                (0..64)
                    .map(|_| r.query(&dom("example.com"), RecordType::Txt).is_ok())
                    .collect()
            })
            .collect();
        assert_eq!(results[0], results[1]);
    }
}
