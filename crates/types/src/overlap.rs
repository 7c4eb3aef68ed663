//! Cross-population address-space overlap: how many domains authorize
//! each IPv4 address.
//!
//! The paper's headline risk is *shared* laxness — huge cloud ranges
//! appear in thousands of SPF trees at once, so one rented address can
//! spoof whole swaths of the population (§6, Tables 4–5). Answering
//! population-wide questions ("which single address is authorized by the
//! most domains?", "how much space is authorized by ≥ k domains?") by
//! probing every domain's [`crate::Ipv4Set`] per candidate address is
//! O(domains × probes); this module answers them in O(B log B) over the
//! *boundary multiset* instead:
//!
//! 1. every domain's flattened range set contributes a `+1` delta at each
//!    range start and a `−1` delta one past each range end into a
//!    [`CoverageMap`];
//! 2. a sweep in boundary order turns the accumulated deltas into
//!    [`WeightedRanges`] — disjoint ranges each tagged with the exact
//!    number of contributing domains.
//!
//! Determinism: a [`CoverageMap`] is the multiset-sum of its input
//! deltas, and integer addition is commutative and associative, so the
//! map — and everything computed from it — is identical however the
//! inputs are batched, sharded, or interleaved across crawl workers
//! (DESIGN.md §7 states the full argument).

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::ipset::Ipv4Set;

/// Pending coverage events are folded into the sorted spine once this
/// many accumulate, so a long accumulation runs in sorted batches
/// (`O(B log B)` overall) with bounded scratch memory.
const FLUSH_LIMIT: usize = 4096;

/// Accumulates `+1`/`−1` coverage deltas at IPv4 range boundaries.
///
/// Boundary coordinates are `u64` in `0..=2^32`: a range `[lo, hi]`
/// contributes `+1` at `lo` and `−1` at `hi + 1`, which for
/// `hi == u32::MAX` is the one-past-the-space boundary `2^32`.
///
/// The accumulator is *bounded*: it never stores per-domain sets, only
/// the merged delta spine (one entry per distinct boundary) plus a fixed
/// number (4096) of not-yet-merged events.
///
/// ```
/// use spf_types::{CoverageMap, Ipv4Set};
/// let mut tenant = Ipv4Set::new();
/// tenant.insert_cidr(&"198.51.100.0/24".parse().unwrap());
/// let mut map = CoverageMap::new();
/// map.add_set(&tenant);
/// map.add_set(&tenant.clone());
/// let weighted = map.into_weighted();
/// assert_eq!(weighted.max_coverage().unwrap().1, 2);
/// assert_eq!(weighted.total_covered(), 256);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    /// Sorted distinct boundaries with their net (non-zero) deltas.
    merged: Vec<(u64, i64)>,
    /// Recent unsorted events, folded into `merged` at [`FLUSH_LIMIT`].
    pending: Vec<(u64, i64)>,
    /// Sets accumulated (for observability; merging sums it).
    sets: u64,
}

impl CoverageMap {
    /// An empty accumulator.
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// Fold one domain's flattened range set into the accumulator.
    pub fn add_set(&mut self, set: &Ipv4Set) {
        for (lo, hi) in set.iter_bounds() {
            self.push_event(lo as u64, 1);
            self.push_event(hi as u64 + 1, -1);
        }
        self.sets += 1;
    }

    /// Retract one domain's flattened range set from the accumulator —
    /// the exact inverse of [`CoverageMap::add_set`].
    ///
    /// Each range pushes the mirrored deltas (`−1` at `lo`, `+1` one past
    /// `hi`), so the multiset-sum argument that makes accumulation
    /// order-independent makes retraction exact as well: folding a set
    /// out after folding it in restores the map (and everything swept
    /// from it) byte-for-byte, because boundaries whose net delta
    /// returns to zero are dropped at the next flush. This is the
    /// churn engine's fold-out primitive (DESIGN.md §12).
    ///
    /// The caller must only retract sets previously folded in; removing
    /// a set that was never added trips the sweep's non-negative-weight
    /// debug assertion.
    pub fn remove_set(&mut self, set: &Ipv4Set) {
        for (lo, hi) in set.iter_bounds() {
            self.push_event(lo as u64, -1);
            self.push_event(hi as u64 + 1, 1);
        }
        self.sets = self.sets.saturating_sub(1);
    }

    /// Sweep a snapshot of the accumulated boundaries into
    /// [`WeightedRanges`] without consuming the accumulator — the
    /// longitudinal engine re-sweeps its live map every epoch.
    pub fn weighted(&self) -> WeightedRanges {
        self.clone().into_weighted()
    }

    /// Fold another accumulator into this one (consumes it). The sum of
    /// delta multisets is order-independent, so merging per-worker maps
    /// in any order yields the same result.
    pub fn merge(&mut self, other: CoverageMap) {
        let CoverageMap {
            merged,
            pending,
            sets,
        } = other;
        for (boundary, delta) in merged.into_iter().chain(pending) {
            self.push_event(boundary, delta);
        }
        self.sets += sets;
    }

    /// Number of distinct boundaries accumulated so far (the sweep's `B`).
    pub fn boundary_count(&mut self) -> usize {
        self.flush();
        self.merged.len()
    }

    /// Number of range sets folded in.
    pub fn set_count(&self) -> u64 {
        self.sets
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty() && self.pending.is_empty()
    }

    /// Sweep the accumulated boundaries into [`WeightedRanges`].
    pub fn into_weighted(mut self) -> WeightedRanges {
        self.flush();
        let mut ranges: Vec<WeightedRange> = Vec::with_capacity(self.merged.len());
        let mut weight: i64 = 0;
        let mut iter = self.merged.iter().peekable();
        while let Some(&(boundary, delta)) = iter.next() {
            weight += delta;
            debug_assert!(weight >= 0, "coverage weight went negative");
            if weight == 0 {
                continue;
            }
            // The segment runs from this boundary to just before the next
            // one; a final positive segment would mean an unmatched +1.
            let next = iter
                .peek()
                .map(|&&(b, _)| b)
                .expect("every +1 delta has a matching -1");
            ranges.push(WeightedRange {
                lo: boundary as u32,
                hi: (next - 1) as u32,
                weight: weight as u64,
            });
        }
        // Zero-net deltas were dropped by flush, so consecutive segments
        // always differ in weight or are separated by uncovered space —
        // the canonical form the byte-identity tests rely on.
        WeightedRanges { ranges }
    }

    fn push_event(&mut self, boundary: u64, delta: i64) {
        self.pending.push((boundary, delta));
        if self.pending.len() >= FLUSH_LIMIT {
            self.flush();
        }
    }

    /// Fold `pending` into the sorted `merged` spine, dropping boundaries
    /// whose net delta is zero.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable_by_key(|&(b, _)| b);
        let mut batch: Vec<(u64, i64)> = Vec::with_capacity(self.pending.len());
        for &(boundary, delta) in &self.pending {
            match batch.last_mut() {
                Some((last, sum)) if *last == boundary => *sum += delta,
                _ => batch.push((boundary, delta)),
            }
        }
        self.pending.clear();
        let mut out: Vec<(u64, i64)> = Vec::with_capacity(self.merged.len() + batch.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.merged.len() || j < batch.len() {
            let take_merged = match (self.merged.get(i), batch.get(j)) {
                (Some(&(mb, _)), Some(&(bb, _))) if mb == bb => {
                    let delta = self.merged[i].1 + batch[j].1;
                    if delta != 0 {
                        out.push((mb, delta));
                    }
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(&(mb, _)), Some(&(bb, _))) => mb < bb,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let entry = if take_merged {
                i += 1;
                self.merged[i - 1]
            } else {
                j += 1;
                batch[j - 1]
            };
            if entry.1 != 0 {
                out.push(entry);
            }
        }
        self.merged = out;
    }
}

/// One disjoint address range tagged with how many domains authorize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedRange {
    /// First address of the range.
    pub lo: u32,
    /// Last address of the range (inclusive).
    pub hi: u32,
    /// Number of contributing domains covering every address in
    /// `lo..=hi`.
    pub weight: u64,
}

impl WeightedRange {
    /// Addresses in the range.
    pub fn width(&self) -> u64 {
        (self.hi as u64) - (self.lo as u64) + 1
    }
}

/// The sweep-line result: disjoint, ascending ranges, each tagged with
/// its exact domain count — the population's address-space overlap
/// profile.
///
/// Canonical form: every weight is positive and consecutive ranges are
/// either separated by uncovered space or differ in weight, so equal
/// profiles serialize byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedRanges {
    ranges: Vec<WeightedRange>,
}

impl WeightedRanges {
    /// No covered space.
    pub fn new() -> Self {
        WeightedRanges::default()
    }

    /// True when no address is covered by any domain.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of distinct weighted ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Iterate the weighted ranges in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = &WeightedRange> + '_ {
        self.ranges.iter()
    }

    /// The highest domain count any single address reaches.
    pub fn max_weight(&self) -> u64 {
        self.ranges.iter().map(|r| r.weight).max().unwrap_or(0)
    }

    /// The most-spoofable address: the lowest address attaining the
    /// maximum domain count, with that count.
    pub fn max_coverage(&self) -> Option<(Ipv4Addr, u64)> {
        let max = self.max_weight();
        if max == 0 {
            return None;
        }
        self.ranges
            .iter()
            .find(|r| r.weight == max)
            .map(|r| (Ipv4Addr::from(r.lo), max))
    }

    /// How many domains authorize `addr` (binary search).
    pub fn weight_at(&self, addr: Ipv4Addr) -> u64 {
        let v = u32::from(addr);
        let idx = self.ranges.partition_point(|r| r.lo <= v);
        if idx > 0 && self.ranges[idx - 1].hi >= v {
            self.ranges[idx - 1].weight
        } else {
            0
        }
    }

    /// The `k` most-covered addresses: one representative address (the
    /// range's low end) per weighted range, ranked by domain count
    /// descending with ties broken on the address, so the answer is a
    /// deterministic function of the profile alone. These are the
    /// shared-infrastructure vantage points the spoofability matrix
    /// evaluates the population from.
    ///
    /// ```
    /// use spf_types::{CoverageMap, Ipv4Set, Ipv4Cidr};
    /// let mut map = CoverageMap::new();
    /// let mut shared = Ipv4Set::new();
    /// shared.insert_cidr(&Ipv4Cidr::parse("10.0.0.0/24").unwrap());
    /// map.add_set(&shared);
    /// map.add_set(&shared);
    /// let mut own = Ipv4Set::new();
    /// own.insert_addr("192.0.2.7".parse().unwrap());
    /// map.add_set(&own);
    /// let weighted = map.into_weighted();
    /// let top = weighted.top_coverage(2);
    /// assert_eq!(top[0], ("10.0.0.0".parse().unwrap(), 2));
    /// assert_eq!(top[1], ("192.0.2.7".parse().unwrap(), 1));
    /// ```
    pub fn top_coverage(&self, k: usize) -> Vec<(Ipv4Addr, u64)> {
        let mut ranked: Vec<(Ipv4Addr, u64)> = self
            .ranges
            .iter()
            .map(|r| (Ipv4Addr::from(r.lo), r.weight))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Number of addresses authorized by at least `k` domains (`k = 0`
    /// trivially yields the full space).
    fn addresses_with_at_least(&self, k: u64) -> u64 {
        if k == 0 {
            return 1u64 << 32;
        }
        self.ranges
            .iter()
            .filter(|r| r.weight >= k)
            .map(|r| r.width())
            .sum()
    }

    /// Total covered space: addresses authorized by at least one domain.
    pub fn total_covered(&self) -> u64 {
        self.addresses_with_at_least(1)
    }

    /// The coverage histogram at power-of-two thresholds: `(k, addresses
    /// authorized by ≥ k domains)` for every power of two `k` up to
    /// [`WeightedRanges::max_weight`] (at least the `k = 1` row, so an
    /// empty profile still reports its zero).
    pub fn power_of_two_histogram(&self) -> Vec<(u64, u64)> {
        let max = self.max_weight();
        let mut out = vec![(1, self.addresses_with_at_least(1))];
        let mut k = 2u64;
        while k <= max {
            out.push((k, self.addresses_with_at_least(k)));
            k = k.saturating_mul(2);
        }
        out
    }
}

impl fmt::Display for WeightedRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}-{}×{}",
                Ipv4Addr::from(r.lo),
                Ipv4Addr::from(r.hi),
                r.weight
            )?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u32, u32)]) -> Ipv4Set {
        let mut s = Ipv4Set::new();
        for &(lo, hi) in ranges {
            s.insert_range(lo, hi);
        }
        s
    }

    #[test]
    fn empty_map() {
        let map = CoverageMap::new();
        assert!(map.is_empty());
        let w = map.into_weighted();
        assert!(w.is_empty());
        assert_eq!(w.max_coverage(), None);
        assert_eq!(w.total_covered(), 0);
        assert_eq!(w.power_of_two_histogram(), vec![(1, 0)]);
    }

    #[test]
    fn overlapping_sets_stack() {
        let mut map = CoverageMap::new();
        map.add_set(&set(&[(0, 99)]));
        map.add_set(&set(&[(50, 149)]));
        map.add_set(&set(&[(75, 80)]));
        assert_eq!(map.set_count(), 3);
        let w = map.into_weighted();
        assert_eq!(w.max_coverage(), Some((Ipv4Addr::from(75u32), 3)));
        assert_eq!(w.weight_at(Ipv4Addr::from(60u32)), 2);
        assert_eq!(w.weight_at(Ipv4Addr::from(120u32)), 1);
        assert_eq!(w.weight_at(Ipv4Addr::from(150u32)), 0);
        assert_eq!(w.total_covered(), 150);
        assert_eq!(w.addresses_with_at_least(2), 50);
        assert_eq!(w.addresses_with_at_least(3), 6);
        assert_eq!(w.addresses_with_at_least(4), 0);
    }

    #[test]
    fn identical_ranges_cancel_cleanly() {
        let mut map = CoverageMap::new();
        for _ in 0..5 {
            map.add_set(&set(&[(10, 20)]));
        }
        let w = map.into_weighted();
        assert_eq!(w.range_count(), 1);
        assert_eq!(w.max_coverage(), Some((Ipv4Addr::from(10u32), 5)));
    }

    #[test]
    fn merge_is_order_independent() {
        let sets: Vec<Ipv4Set> = (0..40u32)
            .map(|i| set(&[(i * 3, i * 3 + 50), (1000 + i, 1000 + i)]))
            .collect();
        // All into one map.
        let mut all = CoverageMap::new();
        for s in &sets {
            all.add_set(s);
        }
        // Split across "workers", merged in reverse order.
        let mut shards: Vec<CoverageMap> = (0..4).map(|_| CoverageMap::new()).collect();
        for (i, s) in sets.iter().enumerate() {
            shards[i % 4].add_set(s);
        }
        let mut merged = CoverageMap::new();
        for shard in shards.into_iter().rev() {
            merged.merge(shard);
        }
        assert_eq!(merged.set_count(), all.set_count());
        assert_eq!(merged.into_weighted(), all.into_weighted());
    }

    #[test]
    fn top_of_space_boundary() {
        let mut map = CoverageMap::new();
        map.add_set(&set(&[(u32::MAX - 9, u32::MAX)]));
        map.add_set(&set(&[(u32::MAX, u32::MAX)]));
        let w = map.into_weighted();
        assert_eq!(w.max_coverage(), Some((Ipv4Addr::from(u32::MAX), 2)));
        assert_eq!(w.total_covered(), 10);
    }

    #[test]
    fn flush_limit_batching_matches_unbatched() {
        // More events than FLUSH_LIMIT exercises the batched merge path.
        let mut many = CoverageMap::new();
        let mut wide = Ipv4Set::new();
        for i in 0..3000u32 {
            wide.insert_range(i * 4, i * 4 + 1); // 3000 disjoint ranges
        }
        many.add_set(&wide);
        many.add_set(&wide.clone());
        let w = many.into_weighted();
        assert_eq!(w.max_weight(), 2);
        assert_eq!(w.total_covered(), 6000);
        assert_eq!(w.range_count(), 3000);
    }

    #[test]
    fn histogram_covers_power_of_two_ladder() {
        let mut map = CoverageMap::new();
        for _ in 0..5 {
            map.add_set(&set(&[(0, 9)]));
        }
        map.add_set(&set(&[(0, 99)]));
        let w = map.into_weighted();
        // max weight 6 → thresholds 1, 2, 4 (8 would cover nothing).
        assert_eq!(w.power_of_two_histogram(), vec![(1, 100), (2, 10), (4, 10)]);
    }

    #[test]
    fn remove_set_is_exact_inverse_of_add_set() {
        // Base population plus one extra domain; folding the extra
        // domain back out must restore the base profile byte-for-byte.
        let base_sets: Vec<Ipv4Set> = (0..10u32)
            .map(|i| set(&[(i * 7, i * 7 + 30), (500 + i * 2, 520 + i * 2)]))
            .collect();
        let extra = set(&[(3, 600), (4000, 4096)]);
        let mut base = CoverageMap::new();
        for s in &base_sets {
            base.add_set(s);
        }
        let mut churned = base.clone();
        churned.add_set(&extra);
        churned.remove_set(&extra);
        assert_eq!(churned.set_count(), base.set_count());
        let a = serde_json::to_string(&churned.into_weighted()).unwrap();
        let b = serde_json::to_string(&base.into_weighted()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn removing_last_domain_on_boundary_cancels_delta_exactly() {
        // Two domains share the boundary at 100; retracting the one that
        // *ends* there must cancel its −1 without disturbing the
        // survivor's +1 — the boundary stays, with the survivor's weight.
        let ends_at_boundary = set(&[(0, 99)]);
        let starts_at_boundary = set(&[(100, 199)]);
        let mut map = CoverageMap::new();
        map.add_set(&ends_at_boundary);
        map.add_set(&starts_at_boundary);
        map.remove_set(&ends_at_boundary);
        assert_eq!(map.boundary_count(), 2);
        let w = map.into_weighted();
        assert_eq!(w.range_count(), 1);
        assert_eq!(w.weight_at(Ipv4Addr::from(99u32)), 0);
        assert_eq!(w.weight_at(Ipv4Addr::from(100u32)), 1);

        // And retracting the only domain on a boundary cancels the ±1
        // pair entirely: the map returns to empty canonical form.
        let mut lone = CoverageMap::new();
        lone.add_set(&ends_at_boundary);
        lone.remove_set(&ends_at_boundary);
        assert_eq!(lone.boundary_count(), 0);
        assert!(lone.into_weighted().is_empty());
    }

    #[test]
    fn fold_out_never_retains_zero_weight_ranges() {
        // A wide set overlapping a narrow one: after the wide set folds
        // out, the formerly covered-by-both flanks drop to zero weight
        // and must vanish from the canonical sweep, not linger as
        // zero-weight ranges.
        let wide = set(&[(0, 1000)]);
        let narrow = set(&[(400, 600)]);
        let mut map = CoverageMap::new();
        map.add_set(&wide);
        map.add_set(&narrow);
        map.remove_set(&wide);
        let w = map.into_weighted();
        assert!(w.iter().all(|r| r.weight > 0));
        assert_eq!(w.range_count(), 1);
        assert_eq!(w.total_covered(), 201);
    }

    #[test]
    fn set_count_saturates_under_fold_out() {
        let s = set(&[(0, 9)]);
        let mut map = CoverageMap::new();
        map.add_set(&s);
        map.remove_set(&s);
        assert_eq!(map.set_count(), 0);
        // Over-retraction of the *count* saturates rather than wrapping;
        // the boundary deltas themselves are the caller's contract.
        let mut empty = CoverageMap::new();
        empty.remove_set(&set(&[]));
        assert_eq!(empty.set_count(), 0);
    }

    #[test]
    fn weighted_snapshot_matches_consuming_sweep() {
        let mut map = CoverageMap::new();
        map.add_set(&set(&[(0, 99)]));
        map.add_set(&set(&[(50, 149)]));
        let snap = map.weighted();
        assert_eq!(snap, map.into_weighted());
    }

    #[test]
    fn serde_round_trip_is_canonical() {
        let mut map = CoverageMap::new();
        map.add_set(&set(&[(0, 99)]));
        map.add_set(&set(&[(50, 149)]));
        let w = map.into_weighted();
        let json = serde_json::to_string(&w).unwrap();
        let back: WeightedRanges = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }
}
