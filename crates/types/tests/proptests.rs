//! Property-based tests for the spf-types data structures.
//!
//! The [`Ipv4Set`] invariants are load-bearing for the whole reproduction:
//! Figure 5 and Table 4 are address *counts* over unions of provider
//! networks, so a merging bug silently skews every downstream number.
//! The set *algebra* (union / intersect / difference / subset) and the
//! overlap sweep-line are checked against a naive bit-vector model over a
//! small universe: every interval-set operation must agree point-by-point
//! with the same operation on plain per-address booleans.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use spf_types::{CoverageMap, DomainName, Ipv4Cidr, Ipv4Set, Ipv6Set, MacroString};

/// A model-based check: compare Ipv4Set against a BTreeSet of addresses for
/// small ranges.
fn model_insert(ops: &[(u32, u32)]) -> (Ipv4Set, BTreeSet<u32>) {
    let mut set = Ipv4Set::new();
    let mut model = BTreeSet::new();
    for &(lo, hi) in ops {
        set.insert_range(lo, hi);
        for v in lo..=hi {
            model.insert(v);
        }
    }
    (set, model)
}

/// The naive model universe for the set-algebra properties: every
/// interval operation is compared against per-address booleans over
/// `0..UNIVERSE`.
const UNIVERSE: u32 = 512;

/// Build an [`Ipv4Set`] and its bit-vector model from `(lo, width)` ops
/// clamped to the universe.
fn bitvec_set(ops: &[(u32, u32)]) -> (Ipv4Set, Vec<bool>) {
    let mut set = Ipv4Set::new();
    let mut bits = vec![false; UNIVERSE as usize];
    for &(lo, w) in ops {
        let lo = lo % UNIVERSE;
        let hi = (lo + w).min(UNIVERSE - 1);
        set.insert_range(lo, hi);
        for bit in bits.iter_mut().take(hi as usize + 1).skip(lo as usize) {
            *bit = true;
        }
    }
    (set, bits)
}

/// Assert that `set` matches `bits` at every point of the universe (and
/// nowhere above it).
fn assert_matches_bits(set: &Ipv4Set, bits: &[bool]) -> Result<(), String> {
    for (v, &expected) in bits.iter().enumerate() {
        prop_assert_eq!(
            set.contains(Ipv4Addr::from(v as u32)),
            expected,
            "mismatch at address {}",
            v
        );
    }
    prop_assert!(!set.contains(Ipv4Addr::from(UNIVERSE)));
    prop_assert_eq!(
        set.address_count(),
        bits.iter().filter(|b| **b).count() as u64
    );
    Ok(())
}

/// The strategy shared by the algebra properties: up to 8 small ranges.
fn ops_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..UNIVERSE, 0u32..48), 0..8)
}

proptest! {
    #[test]
    fn ipset_count_matches_model(
        ops in proptest::collection::vec((0u32..5000, 0u32..64), 1..20)
    ) {
        let ranges: Vec<(u32, u32)> = ops.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let (set, model) = model_insert(&ranges);
        prop_assert_eq!(set.address_count(), model.len() as u64);
    }

    #[test]
    fn ipset_contains_matches_model(
        ops in proptest::collection::vec((0u32..2000, 0u32..32), 1..12),
        probes in proptest::collection::vec(0u32..2100, 32)
    ) {
        let ranges: Vec<(u32, u32)> = ops.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let (set, model) = model_insert(&ranges);
        for p in probes {
            prop_assert_eq!(set.contains(Ipv4Addr::from(p)), model.contains(&p));
        }
    }

    #[test]
    fn ipset_insertion_order_is_irrelevant(
        ops in proptest::collection::vec((0u32..3000, 0u32..64), 1..10)
    ) {
        let ranges: Vec<(u32, u32)> = ops.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let mut forward = Ipv4Set::new();
        for &(lo, hi) in &ranges {
            forward.insert_range(lo, hi);
        }
        let mut backward = Ipv4Set::new();
        for &(lo, hi) in ranges.iter().rev() {
            backward.insert_range(lo, hi);
        }
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn ipset_union_is_commutative_and_counts_bound(
        a_ops in proptest::collection::vec((0u32..4000, 0u32..64), 0..10),
        b_ops in proptest::collection::vec((0u32..4000, 0u32..64), 0..10)
    ) {
        let a: Ipv4Set = {
            let mut s = Ipv4Set::new();
            for (lo, w) in &a_ops { s.insert_range(*lo, lo + w); }
            s
        };
        let b: Ipv4Set = {
            let mut s = Ipv4Set::new();
            for (lo, w) in &b_ops { s.insert_range(*lo, lo + w); }
            s
        };
        let ab = a.union(&b);
        let ba = b.union(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.address_count() <= a.address_count() + b.address_count());
        prop_assert!(ab.address_count() >= a.address_count().max(b.address_count()));
    }

    #[test]
    fn cidr_count_is_power_of_two(prefix in 0u8..=32, a in any::<u32>()) {
        let cidr = Ipv4Cidr::new(Ipv4Addr::from(a), prefix).unwrap();
        prop_assert_eq!(cidr.address_count(), 1u64 << (32 - prefix as u32));
        let (lo, hi) = cidr.range_u32();
        prop_assert_eq!((hi as u64) - (lo as u64) + 1, cidr.address_count());
        // The written address is always inside its own network.
        prop_assert!(cidr.contains(Ipv4Addr::from(a)));
    }

    #[test]
    fn cidr_display_parse_round_trip(prefix in 0u8..=32, a in any::<u32>()) {
        let cidr = Ipv4Cidr::new(Ipv4Addr::from(a), prefix).unwrap();
        let reparsed: Ipv4Cidr = cidr.to_string().parse().unwrap();
        prop_assert_eq!(cidr, reparsed);
    }

    #[test]
    fn domain_parse_round_trip(labels in proptest::collection::vec("[a-z][a-z0-9]{0,8}", 1..5)) {
        let name = labels.join(".");
        let d = DomainName::parse(&name).unwrap();
        prop_assert_eq!(d.as_str(), name.as_str());
        let reparsed = DomainName::parse(d.as_str()).unwrap();
        prop_assert_eq!(d, reparsed);
    }

    #[test]
    fn domain_case_insensitive(labels in proptest::collection::vec("[a-zA-Z]{1,8}", 1..4)) {
        let name = labels.join(".");
        let lower = DomainName::parse(&name.to_ascii_lowercase()).unwrap();
        let mixed = DomainName::parse(&name).unwrap();
        prop_assert_eq!(lower, mixed);
    }

    #[test]
    fn ipset_intersect_matches_bitvec_model(
        a_ops in ops_strategy(),
        b_ops in ops_strategy()
    ) {
        let (a, a_bits) = bitvec_set(&a_ops);
        let (b, b_bits) = bitvec_set(&b_ops);
        let i = a.intersect(&b);
        let model: Vec<bool> = a_bits.iter().zip(&b_bits).map(|(x, y)| *x && *y).collect();
        assert_matches_bits(&i, &model)?;
        // Commutativity and the canonical representation.
        prop_assert_eq!(&i, &b.intersect(&a));
        prop_assert!(i.is_subset(&a) && i.is_subset(&b));
    }

    #[test]
    fn ipset_difference_matches_bitvec_model(
        a_ops in ops_strategy(),
        b_ops in ops_strategy()
    ) {
        let (a, a_bits) = bitvec_set(&a_ops);
        let (b, b_bits) = bitvec_set(&b_ops);
        let d = a.difference(&b);
        let model: Vec<bool> = a_bits.iter().zip(&b_bits).map(|(x, y)| *x && !*y).collect();
        assert_matches_bits(&d, &model)?;
        // a = (a \ b) ∪ (a ∩ b), and the difference avoids b entirely.
        prop_assert_eq!(d.union(&a.intersect(&b)), a);
        prop_assert!(!d.intersects(&b));
    }

    #[test]
    fn ipset_union_matches_bitvec_model(
        a_ops in ops_strategy(),
        b_ops in ops_strategy()
    ) {
        let (a, a_bits) = bitvec_set(&a_ops);
        let (b, b_bits) = bitvec_set(&b_ops);
        let u = a.union(&b);
        let model: Vec<bool> = a_bits.iter().zip(&b_bits).map(|(x, y)| *x || *y).collect();
        assert_matches_bits(&u, &model)?;
        prop_assert!(a.is_subset(&u) && b.is_subset(&u));
    }

    #[test]
    fn ipset_predicates_match_bitvec_model(
        a_ops in ops_strategy(),
        b_ops in ops_strategy()
    ) {
        let (a, a_bits) = bitvec_set(&a_ops);
        let (b, b_bits) = bitvec_set(&b_ops);
        let model_intersects = a_bits.iter().zip(&b_bits).any(|(x, y)| *x && *y);
        let model_subset = a_bits.iter().zip(&b_bits).all(|(x, y)| !*x || *y);
        prop_assert_eq!(a.intersects(&b), model_intersects);
        prop_assert_eq!(b.intersects(&a), model_intersects);
        prop_assert_eq!(a.is_subset(&b), model_subset);
    }

    #[test]
    fn ipv6set_algebra_matches_ipv4_shape(
        a_ops in ops_strategy(),
        b_ops in ops_strategy()
    ) {
        // The two wrappers share one interval core; embedding the same
        // small universe into u128 space must give identical shapes.
        let (a4, _) = bitvec_set(&a_ops);
        let (b4, _) = bitvec_set(&b_ops);
        let lift = |s: &Ipv4Set| -> Ipv6Set {
            let mut out = Ipv6Set::new();
            for (lo, hi) in s.iter_bounds() {
                out.insert_range(lo as u128, hi as u128);
            }
            out
        };
        let (a6, b6) = (lift(&a4), lift(&b4));
        prop_assert_eq!(lift(&a4.intersect(&b4)), a6.intersect(&b6));
        prop_assert_eq!(lift(&a4.difference(&b4)), a6.difference(&b6));
        prop_assert_eq!(lift(&a4.union(&b4)), a6.union(&b6));
        prop_assert_eq!(a4.intersects(&b4), a6.intersects(&b6));
        prop_assert_eq!(a4.is_subset(&b4), a6.is_subset(&b6));
        prop_assert_eq!(a4.address_count() as u128, a6.address_count());
    }

    #[test]
    fn coverage_sweep_matches_naive_counting(
        domains in proptest::collection::vec(ops_strategy(), 0..12)
    ) {
        // The sweep-line must agree with counting, per address, how many
        // domains' sets contain it — the naive O(domains × probes) scan
        // the overlap engine replaces.
        let sets: Vec<Ipv4Set> = domains.iter().map(|ops| bitvec_set(ops).0).collect();
        let mut map = CoverageMap::new();
        for s in &sets {
            map.add_set(s);
        }
        prop_assert_eq!(map.set_count(), sets.len() as u64);
        let weighted = map.into_weighted();
        let mut max_naive = 0u64;
        let mut covered_naive = 0u64;
        for v in 0..UNIVERSE {
            let addr = Ipv4Addr::from(v);
            let naive = sets.iter().filter(|s| s.contains(addr)).count() as u64;
            prop_assert_eq!(weighted.weight_at(addr), naive, "weight at {}", v);
            max_naive = max_naive.max(naive);
            if naive > 0 {
                covered_naive += 1;
            }
        }
        prop_assert_eq!(weighted.max_weight(), max_naive);
        prop_assert_eq!(weighted.total_covered(), covered_naive);
        for (k, addrs) in weighted.power_of_two_histogram() {
            let naive_k = (0..UNIVERSE)
                .filter(|v| {
                    let addr = Ipv4Addr::from(*v);
                    sets.iter().filter(|s| s.contains(addr)).count() as u64 >= k
                })
                .count() as u64;
            prop_assert_eq!(addrs, naive_k, "histogram at k={}", k);
        }
    }

    #[test]
    fn macro_string_display_round_trip(
        parts in proptest::collection::vec(
            prop_oneof![
                "[a-z0-9.]{1,6}".prop_map(|s| s),
                Just("%{d}".to_string()),
                Just("%{i4r}".to_string()),
                Just("%%".to_string()),
                Just("%_".to_string()),
            ],
            1..6
        )
    ) {
        let text = parts.concat();
        let parsed = MacroString::parse(&text).unwrap();
        let printed = parsed.to_string();
        let reparsed = MacroString::parse(&printed).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}
