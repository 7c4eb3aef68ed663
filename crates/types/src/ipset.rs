//! Interval-set arithmetic over the IPv4 address space.
//!
//! Counting the *number of authorized IPv4 addresses* per domain is the
//! central quantitative measurement of the paper (Figure 5: CDF of allowed
//! IPs; Table 4: allowed IPs per include). SPF records routinely authorize
//! `/8`…`/0` networks — 2^24 to 2^32 addresses — so the set must be
//! represented symbolically. [`Ipv4Set`] keeps a sorted list of disjoint
//! inclusive `u32` ranges; union/insert are `O(n log n)` in the number of
//! ranges, and counting is a sum of range widths; the proptests pin it
//! against a naive bit-vector model (DESIGN.md §7).
//!
//! The range algebra itself (union / intersection / difference / subset
//! and overlap tests) lives in the width-generic `interval` core shared
//! with [`crate::Ipv6Set`]; DESIGN.md §7 states the invariants.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::cidr::Ipv4Cidr;
use crate::interval;

/// A set of IPv4 addresses stored as sorted, disjoint, non-adjacent
/// inclusive ranges.
///
/// ```
/// use spf_types::{Ipv4Set, Ipv4Cidr};
/// let mut set = Ipv4Set::new();
/// set.insert_cidr(&"192.0.2.0/24".parse::<Ipv4Cidr>().unwrap());
/// set.insert_cidr(&"192.0.3.0/24".parse::<Ipv4Cidr>().unwrap());
/// // Adjacent ranges coalesce:
/// assert_eq!(set.range_count(), 1);
/// assert_eq!(set.address_count(), 512);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Set {
    /// Invariant: sorted by start; `ranges[i].1 + 1 < ranges[i+1].0`
    /// (disjoint and non-adjacent, so the representation is canonical).
    ranges: Vec<(u32, u32)>,
}

impl Ipv4Set {
    /// The empty set.
    pub fn new() -> Self {
        Ipv4Set { ranges: Vec::new() }
    }

    /// The full IPv4 space (what `ip4:0.0.0.0/0` authorizes).
    pub fn full() -> Self {
        Ipv4Set {
            ranges: vec![(0, u32::MAX)],
        }
    }

    /// True if no address is in the set.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Insert a single address.
    pub fn insert_addr(&mut self, addr: Ipv4Addr) {
        let v = u32::from(addr);
        self.insert_range(v, v);
    }

    /// Insert every address of a CIDR network.
    pub fn insert_cidr(&mut self, cidr: &Ipv4Cidr) {
        let (lo, hi) = cidr.range_u32();
        self.insert_range(lo, hi);
    }

    /// Insert an inclusive range, merging with overlapping/adjacent ranges.
    pub fn insert_range(&mut self, lo: u32, hi: u32) {
        interval::insert_range(&mut self.ranges, lo, hi);
    }

    /// Union with another set, in place.
    pub fn union_with(&mut self, other: &Ipv4Set) {
        if self.ranges.is_empty() {
            // Both sides are canonical, so the union is `other` itself.
            self.ranges.clone_from(&other.ranges);
        } else if other.ranges.len() > 4 && self.ranges.len() > 4 {
            // Merge-sort both range lists then coalesce in one pass; cheaper
            // than repeated splicing for the big provider sets.
            self.ranges = interval::union_merge(&self.ranges, &other.ranges);
        } else {
            for &(lo, hi) in &other.ranges {
                self.insert_range(lo, hi);
            }
        }
    }

    /// Union, returning a new set.
    pub fn union(&self, other: &Ipv4Set) -> Ipv4Set {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Intersection, returning a new set — the addresses two SPF trees
    /// *share*, the primitive behind the cross-population overlap engine.
    ///
    /// ```
    /// use spf_types::Ipv4Set;
    /// let mut a = Ipv4Set::new();
    /// a.insert_cidr(&"10.0.0.0/24".parse().unwrap());
    /// let mut b = Ipv4Set::new();
    /// b.insert_cidr(&"10.0.0.128/25".parse().unwrap());
    /// assert_eq!(a.intersect(&b).address_count(), 128);
    /// ```
    pub fn intersect(&self, other: &Ipv4Set) -> Ipv4Set {
        Ipv4Set {
            ranges: interval::intersect(&self.ranges, &other.ranges),
        }
    }

    /// Set difference `self \ other`, returning a new set — e.g. the
    /// space a domain authorizes *beyond* its provider's include.
    ///
    /// ```
    /// use spf_types::Ipv4Set;
    /// let mut a = Ipv4Set::new();
    /// a.insert_cidr(&"10.0.0.0/24".parse().unwrap());
    /// let mut b = Ipv4Set::new();
    /// b.insert_cidr(&"10.0.0.0/25".parse().unwrap());
    /// let only_a = a.difference(&b);
    /// assert_eq!(only_a.address_count(), 128);
    /// assert!(!only_a.contains("10.0.0.1".parse().unwrap()));
    /// assert!(only_a.contains("10.0.0.200".parse().unwrap()));
    /// ```
    pub fn difference(&self, other: &Ipv4Set) -> Ipv4Set {
        Ipv4Set {
            ranges: interval::difference(&self.ranges, &other.ranges),
        }
    }

    /// True when the two sets share at least one address (early-exit
    /// sweep; no allocation).
    ///
    /// ```
    /// use spf_types::Ipv4Set;
    /// let mut a = Ipv4Set::new();
    /// a.insert_range(0, 10);
    /// let mut b = Ipv4Set::new();
    /// b.insert_range(10, 20);
    /// assert!(a.intersects(&b));
    /// b = Ipv4Set::new();
    /// b.insert_range(11, 20);
    /// assert!(!a.intersects(&b));
    /// ```
    pub fn intersects(&self, other: &Ipv4Set) -> bool {
        interval::intersects(&self.ranges, &other.ranges)
    }

    /// True when every address of `self` is in `other`.
    ///
    /// ```
    /// use spf_types::Ipv4Set;
    /// let mut provider = Ipv4Set::new();
    /// provider.insert_cidr(&"198.51.100.0/24".parse().unwrap());
    /// let mut customer = Ipv4Set::new();
    /// customer.insert_cidr(&"198.51.100.64/26".parse().unwrap());
    /// assert!(customer.is_subset(&provider));
    /// assert!(!provider.is_subset(&customer));
    /// assert!(Ipv4Set::new().is_subset(&customer));
    /// ```
    pub fn is_subset(&self, other: &Ipv4Set) -> bool {
        interval::is_subset(&self.ranges, &other.ranges)
    }

    /// Membership test (binary search).
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        interval::contains(&self.ranges, u32::from(addr))
    }

    /// Total number of addresses in the set. `2^32` for the full space,
    /// hence `u64`.
    pub fn address_count(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (hi as u64) - (lo as u64) + 1)
            .sum()
    }

    /// Number of disjoint ranges (representation size).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Iterate the disjoint inclusive ranges in ascending order.
    pub fn iter_ranges(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr)> + '_ {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (Ipv4Addr::from(lo), Ipv4Addr::from(hi)))
    }

    /// Iterate the disjoint inclusive ranges as raw `u32` bounds, in
    /// ascending order — the form the coverage sweep consumes.
    pub fn iter_ranges_u32(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().copied()
    }

    /// An arbitrary member address, if the set is non-empty. The spoofing
    /// case study uses this to pick a connectable source address.
    pub fn sample_first(&self) -> Option<Ipv4Addr> {
        self.ranges.first().map(|&(lo, _)| Ipv4Addr::from(lo))
    }

    /// Decompose the set into the minimal list of CIDR blocks covering it
    /// exactly — the inverse of inserting CIDRs. Used by the record
    /// flattener to rewrite an include tree as direct `ip4:` terms.
    pub fn to_cidrs(&self) -> Vec<Ipv4Cidr> {
        let mut out = Vec::new();
        for &(lo, hi) in &self.ranges {
            let mut cursor = lo as u64;
            let end = hi as u64;
            while cursor <= end {
                // Largest block that is both aligned at `cursor` and fits
                // within the remaining range.
                let align = if cursor == 0 {
                    32
                } else {
                    cursor.trailing_zeros().min(32)
                };
                let remaining = end - cursor + 1;
                let fit = 63 - remaining.leading_zeros(); // floor(log2)
                let bits = align.min(fit);
                let prefix = (32 - bits) as u8;
                out.push(
                    Ipv4Cidr::new(Ipv4Addr::from(cursor as u32), prefix)
                        .expect("prefix within range"),
                );
                cursor += 1u64 << bits;
            }
        }
        out
    }
}

impl FromIterator<Ipv4Cidr> for Ipv4Set {
    fn from_iter<T: IntoIterator<Item = Ipv4Cidr>>(iter: T) -> Self {
        let mut set = Ipv4Set::new();
        for cidr in iter {
            set.insert_cidr(&cidr);
        }
        set
    }
}

impl fmt::Display for Ipv4Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (lo, hi)) in self.iter_ranges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}-{hi}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_set() {
        let set = Ipv4Set::new();
        assert!(set.is_empty());
        assert_eq!(set.address_count(), 0);
        assert!(!set.contains("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn single_host() {
        let mut set = Ipv4Set::new();
        set.insert_addr("192.0.2.1".parse().unwrap());
        assert_eq!(set.address_count(), 1);
        assert!(set.contains("192.0.2.1".parse().unwrap()));
        assert!(!set.contains("192.0.2.2".parse().unwrap()));
    }

    #[test]
    fn disjoint_ranges_count_independently() {
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("10.0.0.0/24"));
        set.insert_cidr(&cidr("172.16.0.0/24"));
        assert_eq!(set.range_count(), 2);
        assert_eq!(set.address_count(), 512);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("10.0.0.0/24"));
        set.insert_cidr(&cidr("10.0.0.0/25"));
        assert_eq!(set.range_count(), 1);
        assert_eq!(set.address_count(), 256);
    }

    #[test]
    fn adjacent_ranges_coalesce() {
        let mut set = Ipv4Set::new();
        set.insert_range(0, 9);
        set.insert_range(10, 19);
        assert_eq!(set.range_count(), 1);
        assert_eq!(set.address_count(), 20);
    }

    #[test]
    fn insert_spanning_multiple_existing() {
        let mut set = Ipv4Set::new();
        set.insert_range(0, 1);
        set.insert_range(10, 11);
        set.insert_range(20, 21);
        set.insert_range(1, 15); // bridges the first two but not the third
        assert_eq!(set.range_count(), 2);
        assert_eq!(set.address_count(), 16 + 2);
    }

    #[test]
    fn full_space_is_2_pow_32() {
        assert_eq!(Ipv4Set::full().address_count(), 1u64 << 32);
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("0.0.0.0/0"));
        assert_eq!(set, Ipv4Set::full());
    }

    #[test]
    fn boundary_at_u32_max() {
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("255.255.255.255"));
        set.insert_cidr(&cidr("255.255.255.254"));
        assert_eq!(set.range_count(), 1);
        assert_eq!(set.address_count(), 2);
        assert!(set.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    fn boundary_at_zero() {
        let mut set = Ipv4Set::new();
        set.insert_addr(Ipv4Addr::new(0, 0, 0, 0));
        set.insert_addr(Ipv4Addr::new(0, 0, 0, 1));
        assert_eq!(set.range_count(), 1);
        assert!(set.contains(Ipv4Addr::new(0, 0, 0, 0)));
    }

    #[test]
    fn union_matches_sequential_insert() {
        let mut a = Ipv4Set::new();
        a.insert_cidr(&cidr("10.0.0.0/16"));
        a.insert_cidr(&cidr("192.168.0.0/24"));
        let mut b = Ipv4Set::new();
        b.insert_cidr(&cidr("10.0.128.0/17")); // overlaps a
        b.insert_cidr(&cidr("172.16.0.0/12"));
        let u = a.union(&b);
        assert_eq!(u.address_count(), (1u64 << 16) + (1 << 8) + (1 << 20));
    }

    #[test]
    fn union_with_large_sets_uses_merge_path() {
        // >4 ranges on both sides exercises the merge-sort branch.
        let mut a = Ipv4Set::new();
        let mut b = Ipv4Set::new();
        for i in 0..10u32 {
            a.insert_range(i * 100, i * 100 + 10);
            b.insert_range(i * 100 + 5, i * 100 + 20);
        }
        let u = a.union(&b);
        assert_eq!(u.range_count(), 10);
        assert_eq!(u.address_count(), 10 * 21);
    }

    #[test]
    fn intersect_basics() {
        let mut a = Ipv4Set::new();
        a.insert_cidr(&cidr("10.0.0.0/16"));
        a.insert_cidr(&cidr("192.168.0.0/24"));
        let mut b = Ipv4Set::new();
        b.insert_cidr(&cidr("10.0.128.0/17"));
        let i = a.intersect(&b);
        assert_eq!(i.address_count(), 1 << 15);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(a.intersect(&Ipv4Set::new()).is_empty());
        assert_eq!(a.intersect(&Ipv4Set::full()), a);
    }

    #[test]
    fn difference_basics() {
        let mut a = Ipv4Set::new();
        a.insert_range(0, 100);
        let mut b = Ipv4Set::new();
        b.insert_range(10, 20);
        b.insert_range(30, 40);
        let d = a.difference(&b);
        assert_eq!(d.address_count(), 101 - 11 - 11);
        assert_eq!(d.range_count(), 3);
        assert!(!d.intersects(&b));
        assert_eq!(d.union(&a.intersect(&b)), a);
        assert!(a.difference(&Ipv4Set::full()).is_empty());
        assert_eq!(a.difference(&Ipv4Set::new()), a);
    }

    #[test]
    fn subset_and_overlap_predicates() {
        let mut provider = Ipv4Set::new();
        provider.insert_cidr(&cidr("198.51.100.0/24"));
        let mut inside = Ipv4Set::new();
        inside.insert_cidr(&cidr("198.51.100.128/25"));
        let mut straddling = Ipv4Set::new();
        straddling.insert_range(
            u32::from(Ipv4Addr::new(198, 51, 100, 200)),
            u32::from(Ipv4Addr::new(198, 51, 101, 5)),
        );
        assert!(inside.is_subset(&provider));
        assert!(!provider.is_subset(&inside));
        assert!(straddling.intersects(&provider));
        assert!(!straddling.is_subset(&provider));
        assert!(Ipv4Set::new().is_subset(&Ipv4Set::new()));
        assert!(!Ipv4Set::new().intersects(&provider));
    }

    #[test]
    fn provider_scale_counts() {
        // Table 4: outlook.com authorizes 491,520 addresses. A plausible
        // decomposition: 7 * /16 + 2 * /18 + /19 + /20 + ... — just verify
        // interval math at that scale with a synthetic decomposition.
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("40.92.0.0/15")); // 131072
        set.insert_cidr(&cidr("40.107.0.0/16")); // 65536
        set.insert_cidr(&cidr("52.100.0.0/14")); // 262144
        set.insert_cidr(&cidr("104.47.0.0/17")); // 32768
        assert_eq!(set.address_count(), 131072 + 65536 + 262144 + 32768);
        assert_eq!(set.address_count(), 491_520);
    }

    #[test]
    fn display_formats_ranges() {
        let mut set = Ipv4Set::new();
        set.insert_range(
            u32::from(Ipv4Addr::new(10, 0, 0, 1)),
            u32::from(Ipv4Addr::new(10, 0, 0, 1)),
        );
        set.insert_cidr(&cidr("192.0.2.0/31"));
        assert_eq!(set.to_string(), "{10.0.0.1, 192.0.2.0-192.0.2.1}");
    }

    #[test]
    fn to_cidrs_round_trips() {
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("10.0.0.0/9"));
        set.insert_cidr(&cidr("192.0.2.3"));
        set.insert_range(
            u32::from(Ipv4Addr::new(198, 51, 100, 1)),
            u32::from(Ipv4Addr::new(198, 51, 100, 14)),
        );
        let blocks = set.to_cidrs();
        let rebuilt: Ipv4Set = blocks.iter().copied().collect();
        assert_eq!(rebuilt, set);
        // Aligned single blocks decompose to themselves.
        let single: Ipv4Set = [cidr("172.16.0.0/12")].into_iter().collect();
        assert_eq!(single.to_cidrs(), vec![cidr("172.16.0.0/12")]);
    }

    #[test]
    fn to_cidrs_handles_full_space_and_edges() {
        assert_eq!(Ipv4Set::full().to_cidrs(), vec![cidr("0.0.0.0/0")]);
        let mut top = Ipv4Set::new();
        top.insert_addr(Ipv4Addr::new(255, 255, 255, 255));
        assert_eq!(top.to_cidrs(), vec![cidr("255.255.255.255")]);
        // An unaligned 3-address range needs two blocks (/31 + /32).
        let mut odd = Ipv4Set::new();
        odd.insert_range(2, 4);
        let blocks = odd.to_cidrs();
        assert_eq!(blocks.len(), 2);
        let rebuilt: Ipv4Set = blocks.into_iter().collect();
        assert_eq!(rebuilt.address_count(), 3);
    }

    #[test]
    fn sample_first_returns_lowest() {
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("192.0.2.0/24"));
        set.insert_cidr(&cidr("10.0.0.0/24"));
        assert_eq!(set.sample_first(), Some(Ipv4Addr::new(10, 0, 0, 0)));
        assert_eq!(Ipv4Set::new().sample_first(), None);
    }
}
