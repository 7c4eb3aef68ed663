//! A resolver layer that counts what passes through it: the tests'
//! measure of DNS load (how many queries a cache or memo saved).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spf_dns::{DnsError, RecordType, Resolver, RrSet};
use spf_types::DomainName;

/// Counters of a [`CountingResolver`].
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Total queries seen.
    pub queries: AtomicU64,
    /// Errors returned (any [`DnsError`]).
    pub errors: AtomicU64,
}

/// Counts the queries and errors of the resolver it wraps.
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
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let result = self.inner.query(name, rtype);
        if result.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom;
    use spf_dns::{ZoneResolver, ZoneStore};
    use std::net::Ipv4Addr;

    #[test]
    fn counting_resolver_counts() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("example.com"), "v=spf1 -all");
        store.add_a(&dom("mail.example.com"), Ipv4Addr::new(192, 0, 2, 10));
        let r = CountingResolver::new(ZoneResolver::new(store));
        let stats = r.stats();
        r.query(&dom("example.com"), RecordType::Txt).unwrap();
        let _ = r.query(&dom("missing.example"), RecordType::Txt);
        assert_eq!(stats.queries.load(Ordering::Relaxed), 2);
        assert_eq!(stats.errors.load(Ordering::Relaxed), 1);
    }
}
