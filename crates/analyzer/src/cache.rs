//! The walker's memo cache: an N-way lock-striped shard map.
//!
//! The paper's crawler shared one record cache across 150 query endpoints
//! so that "only for the first domain the include mechanism is processed,
//! all others hit the cache". The in-process analogue used to be a single
//! `RwLock<HashMap>`: correct, but every worker thread serialized on one
//! lock word, so crawl throughput stopped scaling with worker count. This
//! module stripes the map into independently locked shards selected by the
//! key's precomputed hash ([`DomainName::precomputed_hash`]), so lookups
//! and inserts for different domains proceed in parallel and contention is
//! limited to genuine same-shard collisions.
//!
//! # Invariants
//!
//! * **One analysis per domain.** A domain's value is computed at most
//!   once per *winner*: concurrent computors may race to the same key, but
//!   [`ShardedCache::insert_if_absent`] keeps the first inserted value and
//!   discards later ones, so every reader observes one canonical `Arc`.
//!   Walk results are deterministic functions of the zone, so the racing
//!   copies are identical and the race is benign.
//! * **Deterministic shard selection.** The shard index is
//!   [`stripe_index`]`(precomputed_hash, shard_count)` — a pure function
//!   of the normalized name (FNV-1a), not of `RandomState`, so shard
//!   placement (and the per-shard counters) are reproducible across runs.
//!   It folds in the hash's high half, so the names of one shard do not
//!   crowd into the same home buckets of that shard's map.
//! * **Memory bounds.** The cache holds one entry per *unique* domain
//!   analyzed (roots and include targets); it never duplicates analyses,
//!   and the values are `Arc`-shared with the crawl reports, so the cache's
//!   own footprint is the key map plus reference counts — O(unique
//!   domains), not O(crawled domains × subtree size).
//!
//! Per-shard hit/miss counters ([`CacheStats`]) are maintained with relaxed
//! atomics: they never influence control flow, only reporting (the `repro`
//! CLI's throughput line and the benchmark's `analyzer.cache.hit_rate`).
//!
//! The cache is generic over its key through [`CacheKey`]: the walker memo
//! keeps the historical [`DomainName`] keying (the default type
//! parameter), and the spoofability verdict cache keys on
//! `(domain, vantage, budget)` composites — both supply a *precomputed*
//! shard hash so stripe placement stays deterministic across runs.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use spf_types::{stripe_index, DomainHashBuilder, DomainName};

/// A key a [`ShardedCache`] can stripe on: hashable/equatable for the
/// per-shard map, plus a deterministic, precomputed hash for shard
/// selection (never `RandomState`, so per-shard counters are
/// reproducible).
pub trait CacheKey: Hash + Eq + Clone {
    /// The deterministic hash used to pick a stripe.
    fn shard_hash(&self) -> u64;
}

impl CacheKey for DomainName {
    fn shard_hash(&self) -> u64 {
        self.precomputed_hash()
    }
}

/// Default stripe count for [`ShardedCache`] (and thus the walker).
///
/// 16 shards keep same-shard collisions rare for worker counts up to the
/// paper's 150-endpoint analogue while costing only 16 lock words
/// (docs/history/BENCH_2.json swept 1 vs. 16).
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// Aggregated (or per-shard) cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Probes that found an entry.
    pub hits: u64,
    /// Probes that found nothing (the caller then computes and inserts).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all probes (0.0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<K, V> {
    map: RwLock<HashMap<K, V, DomainHashBuilder>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// A lock-striped memo map (see the module docs for the invariants),
/// keyed by any [`CacheKey`] (domain names by default). `V` is cloned out
/// on hit, so it should be a cheap handle — the walker stores
/// `Arc<RecordAnalysis>`.
pub struct ShardedCache<V, K = DomainName> {
    shards: Box<[Shard<K, V>]>,
}

impl<V: Clone, K: CacheKey> ShardedCache<V, K> {
    /// A cache with `shard_count` stripes (clamped to at least 1).
    pub fn new(shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        ShardedCache {
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[stripe_index(key.shard_hash(), self.shards.len())]
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Probe for `key`, counting the probe as a hit or miss on its shard.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let found = shard.map.read().get(key).cloned();
        match found {
            Some(v) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert `value` unless `key` is already present; returns the resident
    /// value either way (the racing loser's value is dropped).
    pub fn insert_if_absent(&self, key: &K, value: V) -> V {
        self.shard(key)
            .map
            .write()
            .entry(key.clone())
            .or_insert(value)
            .clone()
    }

    /// Drop the entry under `key`, if resident. Returns whether an entry
    /// was removed. Probe counters are untouched — removal is a zone
    /// change, not a probe. The churn engine evicts a re-published
    /// domain's memoized analysis this way before its incremental
    /// re-crawl.
    pub fn remove(&self, key: &K) -> bool {
        self.shard(key).map.write().remove(key).is_some()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are kept; they describe probes, not
    /// residency).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.map.write().clear();
        }
    }

    /// Copy out every `(key, value)` pair, shard by shard.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.extend(shard.map.read().iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Counters for each shard, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| CacheStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                entries: s.map.read().len() as u64,
            })
            .collect()
    }

    /// Counters summed over all shards.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                entries: acc.entries + s.entries,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let cache: ShardedCache<u32> = ShardedCache::new(4);
        assert_eq!(cache.get(&dom("a.example")), None);
        cache.insert_if_absent(&dom("a.example"), 7);
        assert_eq!(cache.get(&dom("a.example")), Some(7));
        assert_eq!(cache.get(&dom("b.example")), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn insert_if_absent_keeps_first_value() {
        let cache: ShardedCache<u32> = ShardedCache::new(2);
        assert_eq!(cache.insert_if_absent(&dom("x.example"), 1), 1);
        assert_eq!(cache.insert_if_absent(&dom("x.example"), 2), 1);
        assert_eq!(cache.get(&dom("x.example")), Some(1));
    }

    #[test]
    fn shard_selection_is_deterministic_and_total() {
        let cache: ShardedCache<usize> = ShardedCache::new(8);
        for i in 0..64 {
            cache.insert_if_absent(&dom(&format!("d{i}.example")), i);
        }
        assert_eq!(cache.len(), 64);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 8);
        assert_eq!(per_shard.iter().map(|s| s.entries).sum::<u64>(), 64);
        // Every entry is findable again (same shard on re-probe).
        for i in 0..64 {
            assert_eq!(cache.get(&dom(&format!("d{i}.example"))), Some(i));
        }
    }

    #[test]
    fn shard_count_clamped_to_one() {
        let cache: ShardedCache<u8> = ShardedCache::new(0);
        assert_eq!(cache.shard_count(), 1);
        cache.insert_if_absent(&dom("a.example"), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn composite_keys_stripe_deterministically() {
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Key(DomainName, u32);
        impl CacheKey for Key {
            fn shard_hash(&self) -> u64 {
                self.0
                    .precomputed_hash()
                    .rotate_left(7)
                    .wrapping_mul(0x100000001b3)
                    ^ u64::from(self.1)
            }
        }
        let cache: ShardedCache<u32, Key> = ShardedCache::new(4);
        let a = Key(dom("a.example"), 1);
        let b = Key(dom("a.example"), 2);
        cache.insert_if_absent(&a, 10);
        cache.insert_if_absent(&b, 20);
        // Same domain, different composite component: distinct entries.
        assert_eq!(cache.get(&a), Some(10));
        assert_eq!(cache.get(&b), Some(20));
        assert_eq!(cache.len(), 2);
        // Shard placement is a pure function of the key.
        let before = cache.shard_stats();
        assert_eq!(cache.get(&a), Some(10));
        let after = cache.shard_stats();
        let changed: Vec<usize> = (0..4).filter(|&i| before[i] != after[i]).collect();
        assert_eq!(changed.len(), 1);
    }

    #[test]
    fn clear_and_snapshot() {
        let cache: ShardedCache<u8> = ShardedCache::new(3);
        cache.insert_if_absent(&dom("a.example"), 1);
        cache.insert_if_absent(&dom("b.example"), 2);
        let mut snap = cache.snapshot();
        snap.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1, 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
