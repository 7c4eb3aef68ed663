//! Interval-set arithmetic over the IPv4 and IPv6 address spaces.
//!
//! Counting the *number of authorized IPv4 addresses* per domain is the
//! central quantitative measurement of the paper (Figure 5: CDF of allowed
//! IPs; Table 4: allowed IPs per include). SPF records routinely authorize
//! `/8`…`/0` networks — 2^24 to 2^32 addresses — so the set must be
//! represented symbolically. [`IpSet`] keeps a sorted list of disjoint
//! inclusive integer ranges; union/insert are `O(n log n)` in the number
//! of ranges, and counting is a sum of range widths; the proptests pin it
//! against a naive bit-vector model (DESIGN.md §7).
//!
//! One generic body serves both families through the sealed [`IpFamily`]
//! trait ([`Ipv4Set`] and [`Ipv6Set`] are its two instantiations); only
//! counting and CIDR decomposition are written per family. The range
//! algebra itself lives in the width-generic `interval` core.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use serde::{Deserialize, Serialize, Value};

use crate::cidr::{Ipv4Cidr, Ipv6Cidr};
use crate::interval::{self, Bound};

mod sealed {
    pub trait Sealed {}
    impl Sealed for std::net::Ipv4Addr {}
    impl Sealed for std::net::Ipv6Addr {}
}

/// An address family an [`IpSet`] ranges over: [`Ipv4Addr`] or
/// [`Ipv6Addr`] (sealed). It names the integer the family's addresses
/// map onto and the family's CIDR type.
pub trait IpFamily: Copy + Eq + fmt::Debug + fmt::Display + sealed::Sealed {
    /// The address space as an unsigned integer: `u32` or `u128`.
    type Bound: Bound + fmt::Debug + Serialize + Deserialize;
    /// The family's CIDR network: [`Ipv4Cidr`] or [`Ipv6Cidr`].
    type Cidr;
    /// The address as an integer.
    fn to_bound(self) -> Self::Bound;
    /// The integer as an address.
    fn from_bound(bound: Self::Bound) -> Self;
    /// A network's first and last address as integers.
    fn cidr_bounds(cidr: &Self::Cidr) -> (Self::Bound, Self::Bound);
}

impl IpFamily for Ipv4Addr {
    type Bound = u32;
    type Cidr = Ipv4Cidr;
    fn to_bound(self) -> u32 {
        u32::from(self)
    }
    fn from_bound(bound: u32) -> Self {
        Ipv4Addr::from(bound)
    }
    fn cidr_bounds(cidr: &Ipv4Cidr) -> (u32, u32) {
        cidr.range_u32()
    }
}

impl IpFamily for Ipv6Addr {
    type Bound = u128;
    type Cidr = Ipv6Cidr;
    fn to_bound(self) -> u128 {
        u128::from(self)
    }
    fn from_bound(bound: u128) -> Self {
        Ipv6Addr::from(bound)
    }
    fn cidr_bounds(cidr: &Ipv6Cidr) -> (u128, u128) {
        cidr.range_u128()
    }
}

/// A set of addresses of one family stored as sorted, disjoint,
/// non-adjacent inclusive integer ranges. Use it as [`Ipv4Set`] or
/// [`Ipv6Set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpSet<A: IpFamily> {
    /// Invariant: sorted by start; `ranges[i].1 + 1 < ranges[i+1].0`
    /// (disjoint and non-adjacent, so the representation is canonical).
    ranges: Vec<(A::Bound, A::Bound)>,
}

/// A set of IPv4 addresses.
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
pub type Ipv4Set = IpSet<Ipv4Addr>;

/// A set of IPv6 addresses. The paper restricts its quantitative analysis
/// to IPv4 (only 0.5 % of records carry `ip6` terms), but the compiler
/// splits the IPv6 space with the same algebra.
///
/// ```
/// use spf_types::{Ipv6Set, Ipv6Cidr};
/// let mut set = Ipv6Set::new();
/// set.insert_cidr(&"2001:db8::/126".parse::<Ipv6Cidr>().unwrap());
/// set.insert_cidr(&"2001:db8::4/126".parse::<Ipv6Cidr>().unwrap());
/// // Adjacent ranges coalesce:
/// assert_eq!(set.range_count(), 1);
/// assert_eq!(set.address_count(), 8);
/// ```
pub type Ipv6Set = IpSet<Ipv6Addr>;

impl<A: IpFamily> IpSet<A> {
    /// The empty set.
    pub fn new() -> Self {
        IpSet { ranges: Vec::new() }
    }

    /// The whole address space (what `ip4:0.0.0.0/0` or `ip6:::/0`
    /// authorizes).
    pub fn full() -> Self {
        IpSet {
            ranges: vec![(A::Bound::MIN, A::Bound::MAX)],
        }
    }

    /// True if no address is in the set.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Insert a single address.
    pub fn insert_addr(&mut self, addr: A) {
        let v = addr.to_bound();
        self.insert_range(v, v);
    }

    /// Insert every address of a CIDR network.
    pub fn insert_cidr(&mut self, cidr: &A::Cidr) {
        let (lo, hi) = A::cidr_bounds(cidr);
        self.insert_range(lo, hi);
    }

    /// Insert an inclusive range, merging with overlapping/adjacent ranges.
    pub fn insert_range(&mut self, lo: A::Bound, hi: A::Bound) {
        interval::insert_range(&mut self.ranges, lo, hi);
    }

    /// Union with another set, in place.
    pub fn union_with(&mut self, other: &Self) {
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
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Intersection, returning a new set — the addresses two SPF trees
    /// *share*, the primitive behind the cross-population overlap engine.
    pub fn intersect(&self, other: &Self) -> Self {
        IpSet {
            ranges: interval::intersect(&self.ranges, &other.ranges),
        }
    }

    /// Set difference `self \ other`, returning a new set — e.g. the
    /// space a domain authorizes *beyond* its provider's include.
    pub fn difference(&self, other: &Self) -> Self {
        IpSet {
            ranges: interval::difference(&self.ranges, &other.ranges),
        }
    }

    /// True when the two sets share at least one address (early-exit
    /// sweep; no allocation).
    pub fn intersects(&self, other: &Self) -> bool {
        interval::intersects(&self.ranges, &other.ranges)
    }

    /// True when every address of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        interval::is_subset(&self.ranges, &other.ranges)
    }

    /// Membership test (binary search).
    pub fn contains(&self, addr: A) -> bool {
        interval::contains(&self.ranges, addr.to_bound())
    }

    /// Number of disjoint ranges (representation size).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Iterate the disjoint inclusive ranges in ascending order.
    fn iter_ranges(&self) -> impl Iterator<Item = (A, A)> + '_ {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (A::from_bound(lo), A::from_bound(hi)))
    }

    /// Iterate the disjoint inclusive ranges as raw integer bounds, in
    /// ascending order — the form the coverage sweep and the compiled
    /// tables consume.
    pub fn iter_bounds(&self) -> impl Iterator<Item = (A::Bound, A::Bound)> + '_ {
        self.ranges.iter().copied()
    }

    /// An arbitrary member address, if the set is non-empty. The spoofing
    /// case study uses this to pick a connectable source address.
    pub fn sample_first(&self) -> Option<A> {
        self.ranges.first().map(|&(lo, _)| A::from_bound(lo))
    }
}

impl Ipv4Set {
    /// Total number of addresses in the set. `2^32` for the full space,
    /// hence `u64`.
    pub fn address_count(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (hi as u64) - (lo as u64) + 1)
            .sum()
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

impl Ipv6Set {
    /// Total number of addresses in the set, saturating at `u128::MAX`
    /// (the full space holds 2^128 addresses, one more than `u128`
    /// expresses — like [`Ipv6Cidr::address_count`]).
    pub fn address_count(&self) -> u128 {
        self.ranges.iter().fold(0u128, |acc, &(lo, hi)| {
            let width = if lo == 0 && hi == u128::MAX {
                u128::MAX
            } else {
                hi - lo + 1
            };
            acc.saturating_add(width)
        })
    }
}

impl<A: IpFamily> Default for IpSet<A> {
    fn default() -> Self {
        IpSet::new()
    }
}

/// `{"ranges": [[lo, hi], …]}` — written out because the vendored derive
/// takes no generics; the shape is the one the derive gave.
impl<A: IpFamily> Serialize for IpSet<A> {
    fn to_value(&self) -> Value {
        Value::Map(vec![("ranges".to_string(), self.ranges.to_value())])
    }
}

impl<A: IpFamily> Deserialize for IpSet<A> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Map(m) => Ok(IpSet {
                ranges: Deserialize::from_value(serde::map_get(m, "ranges")?)?,
            }),
            _ => Err(serde::Error::custom("expected map for struct IpSet")),
        }
    }
}

impl<A: IpFamily> FromIterator<A::Cidr> for IpSet<A> {
    fn from_iter<T: IntoIterator<Item = A::Cidr>>(iter: T) -> Self {
        let mut set = IpSet::new();
        for cidr in iter {
            set.insert_cidr(&cidr);
        }
        set
    }
}

impl<A: IpFamily> fmt::Display for IpSet<A> {
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
    fn serde_bytes_are_pinned() {
        // The serialized shape is part of every JSON artifact that carries
        // a set; pin the exact bytes, not just a round trip.
        assert_eq!(
            serde_json::to_string(&Ipv4Set::new()).unwrap(),
            r#"{"ranges":[]}"#
        );
        let mut one = Ipv4Set::new();
        one.insert_cidr(&cidr("192.168.0.0/24"));
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            r#"{"ranges":[[3232235520,3232235775]]}"#
        );
        assert_eq!(
            serde_json::to_string(&Ipv4Set::full()).unwrap(),
            r#"{"ranges":[[0,4294967295]]}"#
        );
        // u128 bounds past u64::MAX are carried as decimal strings.
        let mut v6 = Ipv6Set::new();
        v6.insert_range(u64::MAX as u128, u64::MAX as u128 + 1);
        v6.insert_cidr(&"2001:db8::/32".parse().unwrap());
        assert_eq!(
            serde_json::to_string(&v6).unwrap(),
            concat!(
                r#"{"ranges":[[18446744073709551615,"18446744073709551616"],"#,
                r#"["42540766411282592856903984951653826560","#,
                r#""42540766490510755371168322545197776895"]]}"#
            )
        );
        assert_eq!(
            serde_json::to_string(&Ipv6Set::full()).unwrap(),
            r#"{"ranges":[[0,"340282366920938463463374607431768211455"]]}"#
        );
    }

    #[test]
    fn sample_first_returns_lowest() {
        let mut set = Ipv4Set::new();
        set.insert_cidr(&cidr("192.0.2.0/24"));
        set.insert_cidr(&cidr("10.0.0.0/24"));
        assert_eq!(set.sample_first(), Some(Ipv4Addr::new(10, 0, 0, 0)));
        assert_eq!(Ipv4Set::new().sample_first(), None);
    }

    #[test]
    fn intersect_example() {
        let mut a = Ipv4Set::new();
        a.insert_cidr(&cidr("10.0.0.0/24"));
        let mut b = Ipv4Set::new();
        b.insert_cidr(&cidr("10.0.0.128/25"));
        assert_eq!(a.intersect(&b).address_count(), 128);
    }

    #[test]
    fn difference_example() {
        let mut a = Ipv4Set::new();
        a.insert_cidr(&cidr("10.0.0.0/24"));
        let mut b = Ipv4Set::new();
        b.insert_cidr(&cidr("10.0.0.0/25"));
        let only_a = a.difference(&b);
        assert_eq!(only_a.address_count(), 128);
        assert!(!only_a.contains("10.0.0.1".parse().unwrap()));
        assert!(only_a.contains("10.0.0.200".parse().unwrap()));
    }

    #[test]
    fn intersects_example() {
        let mut a = Ipv4Set::new();
        a.insert_range(0, 10);
        let mut b = Ipv4Set::new();
        b.insert_range(10, 20);
        assert!(a.intersects(&b));
        b = Ipv4Set::new();
        b.insert_range(11, 20);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn is_subset_example() {
        let mut provider = Ipv4Set::new();
        provider.insert_cidr(&cidr("198.51.100.0/24"));
        let mut customer = Ipv4Set::new();
        customer.insert_cidr(&cidr("198.51.100.64/26"));
        assert!(customer.is_subset(&provider));
        assert!(!provider.is_subset(&customer));
        assert!(Ipv4Set::new().is_subset(&customer));
    }

    /// The IPv6 instantiation's own cases.
    mod v6 {
        use super::*;

        fn cidr(s: &str) -> Ipv6Cidr {
            s.parse().unwrap()
        }

        #[test]
        fn empty_and_full() {
            let empty = Ipv6Set::new();
            assert!(empty.is_empty());
            assert_eq!(empty.address_count(), 0);
            let full = Ipv6Set::full();
            assert_eq!(full.address_count(), u128::MAX); // saturated
            assert!(full.contains("2001:db8::1".parse().unwrap()));
            let mut via_cidr = Ipv6Set::new();
            via_cidr.insert_cidr(&cidr("::/0"));
            assert_eq!(via_cidr, full);
        }

        #[test]
        fn insert_and_coalesce() {
            let mut set = Ipv6Set::new();
            set.insert_cidr(&cidr("2001:db8::/64"));
            set.insert_cidr(&cidr("2001:db8:0:1::/64")); // adjacent
            assert_eq!(set.range_count(), 1);
            assert_eq!(set.address_count(), 1u128 << 65);
            set.insert_cidr(&cidr("2001:db8::/63")); // already covered
            assert_eq!(set.range_count(), 1);
        }

        #[test]
        fn membership_and_sampling() {
            let mut set = Ipv6Set::new();
            set.insert_cidr(&cidr("2001:db8::/32"));
            assert!(set.contains("2001:db8:ffff::1".parse().unwrap()));
            assert!(!set.contains("2001:db9::1".parse().unwrap()));
            assert_eq!(set.sample_first(), Some("2001:db8::".parse().unwrap()));
            assert_eq!(Ipv6Set::new().sample_first(), None);
        }

        #[test]
        fn algebra_round_trip() {
            let mut a = Ipv6Set::new();
            a.insert_cidr(&cidr("2001:db8::/48"));
            let mut b = Ipv6Set::new();
            b.insert_cidr(&cidr("2001:db8:0:8000::/49"));
            b.insert_cidr(&cidr("2001:db9::/48"));
            let i = a.intersect(&b);
            assert_eq!(i.address_count(), 1u128 << 79);
            assert!(i.is_subset(&a) && i.is_subset(&b));
            let d = a.difference(&b);
            assert!(!d.intersects(&b));
            assert_eq!(d.union(&i), a);
        }

        #[test]
        fn boundary_at_u128_max() {
            let mut set = Ipv6Set::new();
            set.insert_range(u128::MAX - 1, u128::MAX);
            set.insert_range(u128::MAX - 3, u128::MAX - 2);
            assert_eq!(set.range_count(), 1);
            assert_eq!(set.address_count(), 4);
            assert!(set.contains(Ipv6Addr::from(u128::MAX)));
        }

        #[test]
        fn display_formats_ranges() {
            let mut set = Ipv6Set::new();
            set.insert_addr("2001:db8::1".parse().unwrap());
            set.insert_cidr(&cidr("2001:db8:1::/127"));
            assert_eq!(set.to_string(), "{2001:db8::1, 2001:db8:1::-2001:db8:1::1}");
        }

        #[test]
        fn serde_round_trips_past_u64() {
            // Range endpoints beyond u64 exercise the stub's string-encoded
            // u128 path.
            let mut set = Ipv6Set::new();
            set.insert_cidr(&cidr("2001:db8::/32"));
            set.insert_range(u128::MAX - 10, u128::MAX);
            let json = serde_json::to_string(&set).unwrap();
            let back: Ipv6Set = serde_json::from_str(&json).unwrap();
            assert_eq!(back, set);
        }

        #[test]
        fn intersect_example() {
            let mut a = Ipv6Set::new();
            a.insert_cidr(&cidr("2001:db8::/64"));
            let mut b = Ipv6Set::new();
            b.insert_cidr(&cidr("2001:db8::/65"));
            assert_eq!(a.intersect(&b).address_count(), 1u128 << 63);
        }

        #[test]
        fn difference_example() {
            let mut a = Ipv6Set::new();
            a.insert_range(0, 15);
            let mut b = Ipv6Set::new();
            b.insert_range(4, 7);
            let d = a.difference(&b);
            assert_eq!(d.address_count(), 12);
            assert!(!d.intersects(&b));
        }

        #[test]
        fn intersects_example() {
            let mut a = Ipv6Set::new();
            a.insert_cidr(&cidr("2001:db8::/32"));
            let mut b = Ipv6Set::new();
            b.insert_addr("2001:db8::1".parse().unwrap());
            assert!(a.intersects(&b));
        }

        #[test]
        fn is_subset_example() {
            let mut provider = Ipv6Set::new();
            provider.insert_cidr(&cidr("2001:db8::/48"));
            let mut customer = Ipv6Set::new();
            customer.insert_cidr(&cidr("2001:db8:0:42::/64"));
            assert!(customer.is_subset(&provider));
            assert!(!provider.is_subset(&customer));
        }
    }
}
