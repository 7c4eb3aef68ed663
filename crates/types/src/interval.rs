//! The interval-set core behind [`crate::IpSet`].
//!
//! A set stores sorted, disjoint, *non-adjacent* inclusive ranges over
//! an unsigned integer address space — `u32` for IPv4, `u128` for IPv6 —
//! which makes the representation canonical: two sets are equal exactly
//! when their range vectors are equal. Every operation here preserves
//! that invariant, so [`crate::IpSet`] never has to re-normalize.
//!
//! The algebra (union, intersection, difference, subset/overlap tests) is
//! implemented once over a [`Bound`] trait rather than twice over the two
//! integer widths.

/// An integer-like interval endpoint: totally ordered, with checked
/// successor/predecessor so boundary arithmetic at the ends of the
/// address space cannot wrap. Public but unnameable outside the crate:
/// it only bounds [`crate::IpFamily::Bound`].
pub trait Bound: Copy + Ord {
    /// The bottom of the address space.
    const MIN: Self;
    /// The top of the address space.
    const MAX: Self;
    /// `self + 1`, or `None` at the top of the address space.
    fn succ(self) -> Option<Self>;
    /// `self - 1`, or `None` at the bottom of the address space.
    fn pred(self) -> Option<Self>;
}

macro_rules! impl_bound {
    ($($t:ty),*) => {$(
        impl Bound for $t {
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            fn succ(self) -> Option<Self> {
                self.checked_add(1)
            }
            fn pred(self) -> Option<Self> {
                self.checked_sub(1)
            }
        }
    )*};
}

impl_bound!(u32, u128);

/// Insert the inclusive range `[lo, hi]`, merging every stored range it
/// overlaps or touches. `O(log n)` to find the merge window plus the
/// splice.
pub(crate) fn insert_range<B: Bound>(ranges: &mut Vec<(B, B)>, lo: B, hi: B) {
    assert!(lo <= hi, "inverted range");
    // Ranges strictly before the merge window end at least two below
    // `lo` (i.e. not even adjacent). Stored end points are ascending
    // (sorted + disjoint), so partition_point applies.
    let before_window = lo.pred();
    let start = ranges.partition_point(|&(_, e)| before_window.is_some_and(|lp| e < lp));
    let mut merged_lo = lo;
    let mut merged_hi = hi;
    let mut end = start;
    while end < ranges.len() {
        let (s, e) = ranges[end];
        // A range starting at least two above `hi` cannot merge; when
        // `hi` is the top of the space nothing can start above it.
        if hi.succ().is_some_and(|hs| s > hs) {
            break;
        }
        merged_lo = merged_lo.min(s);
        merged_hi = merged_hi.max(e);
        end += 1;
    }
    ranges.splice(start..end, std::iter::once((merged_lo, merged_hi)));
    debug_assert!(check_invariants(ranges));
}

/// Union of two canonical range lists by merge-sort + one coalescing
/// pass — cheaper than repeated splicing when both sides are large.
pub(crate) fn union_merge<B: Bound>(a: &[(B, B)], b: &[(B, B)]) -> Vec<(B, B)> {
    let mut all: Vec<(B, B)> = Vec::with_capacity(a.len() + b.len());
    all.extend_from_slice(a);
    all.extend_from_slice(b);
    all.sort_unstable();
    let mut out: Vec<(B, B)> = Vec::with_capacity(all.len());
    for (lo, hi) in all {
        match out.last_mut() {
            // Overlapping or adjacent: extend the previous range.
            Some((_, last_hi)) if last_hi.succ().is_none_or(|s| lo <= s) => {
                *last_hi = (*last_hi).max(hi);
            }
            _ => out.push((lo, hi)),
        }
    }
    debug_assert!(check_invariants(&out));
    out
}

/// Intersection of two canonical range lists (two-pointer sweep,
/// `O(|a| + |b|)`). The output is canonical: pieces inherit the
/// disjointness gaps of whichever input ended first.
pub(crate) fn intersect<B: Bound>(a: &[(B, B)], b: &[(B, B)]) -> Vec<(B, B)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (alo, ahi) = a[i];
        let (blo, bhi) = b[j];
        let lo = alo.max(blo);
        let hi = ahi.min(bhi);
        if lo <= hi {
            out.push((lo, hi));
        }
        // Advance whichever range ends first.
        if ahi <= bhi {
            i += 1;
        } else {
            j += 1;
        }
    }
    debug_assert!(check_invariants(&out));
    out
}

/// `a \ b` over canonical range lists (two-pointer sweep). Each `a` range
/// is emitted minus the `b` ranges overlapping it; removed pieces cover at
/// least one address, so the output stays non-adjacent.
pub(crate) fn difference<B: Bound>(a: &[(B, B)], b: &[(B, B)]) -> Vec<(B, B)> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for &(alo, ahi) in a {
        // Skip b ranges entirely below this a range; they can never
        // matter again because a ranges only move up.
        while j < b.len() && b[j].1 < alo {
            j += 1;
        }
        let mut cur = alo;
        let mut fully_covered = false;
        let mut k = j;
        while k < b.len() {
            let (blo, bhi) = b[k];
            if blo > ahi {
                break;
            }
            if blo > cur {
                out.push((cur, blo.pred().expect("blo > cur >= MIN")));
            }
            if bhi >= ahi {
                fully_covered = true;
                break;
            }
            cur = cur.max(bhi.succ().expect("bhi < ahi <= MAX"));
            k += 1;
        }
        if !fully_covered && cur <= ahi {
            out.push((cur, ahi));
        }
    }
    debug_assert!(check_invariants(&out));
    out
}

/// True when the two canonical range lists share at least one address
/// (two-pointer sweep with early exit).
pub(crate) fn intersects<B: Bound>(a: &[(B, B)], b: &[(B, B)]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (alo, ahi) = a[i];
        let (blo, bhi) = b[j];
        if alo.max(blo) <= ahi.min(bhi) {
            return true;
        }
        if ahi <= bhi {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

/// True when every address of `a` is in `b`. Because both lists are
/// canonical, each `a` range must sit inside a *single* `b` range — a
/// range spanning a `b` gap would contain an uncovered address.
pub(crate) fn is_subset<B: Bound>(a: &[(B, B)], b: &[(B, B)]) -> bool {
    let mut j = 0usize;
    for &(alo, ahi) in a {
        while j < b.len() && b[j].1 < alo {
            j += 1;
        }
        match b.get(j) {
            Some(&(blo, bhi)) if blo <= alo && ahi <= bhi => {}
            _ => return false,
        }
    }
    true
}

/// Membership test by binary search on range starts.
pub(crate) fn contains<B: Bound>(ranges: &[(B, B)], v: B) -> bool {
    let idx = ranges.partition_point(|&(s, _)| s <= v);
    idx > 0 && ranges[idx - 1].1 >= v
}

/// The canonical-representation invariant: sorted, disjoint, non-adjacent,
/// each range non-inverted.
pub(crate) fn check_invariants<B: Bound>(ranges: &[(B, B)]) -> bool {
    ranges.windows(2).all(|w| {
        let (_, e1) = w[0];
        let (s2, _) = w[1];
        e1 < s2 && e1.succ().is_none_or(|s| s < s2)
    }) && ranges.iter().all(|&(s, e)| s <= e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_carves_holes() {
        let a = vec![(0u32, 100)];
        let b = vec![(10u32, 20), (30, 40)];
        assert_eq!(difference(&a, &b), vec![(0, 9), (21, 29), (41, 100)]);
        assert_eq!(difference(&b, &a), Vec::<(u32, u32)>::new());
    }

    #[test]
    fn difference_at_space_edges() {
        let full = vec![(0u32, u32::MAX)];
        let mid = vec![(1u32, u32::MAX - 1)];
        assert_eq!(difference(&full, &mid), vec![(0, 0), (u32::MAX, u32::MAX)]);
        assert!(difference(&full, &full).is_empty());
    }

    #[test]
    fn intersect_two_pointer() {
        let a = vec![(0u32, 10), (20, 30)];
        let b = vec![(5u32, 25)];
        assert_eq!(intersect(&a, &b), vec![(5, 10), (20, 25)]);
        assert!(intersects(&a, &b));
        assert!(!intersects(&a, &[(11, 19)]));
    }

    #[test]
    fn subset_requires_single_covering_range() {
        let a = vec![(2u32, 8)];
        assert!(is_subset(&a, &[(0u32, 10)]));
        // {0-4, 6-10} has a hole at 5, so 2..=8 is not contained.
        assert!(!is_subset(&a, &[(0u32, 4), (6, 10)]));
        assert!(is_subset(&[], &[(0u32, 1)]));
        assert!(!is_subset(&[(0u32, 0)], &[]));
    }

    #[test]
    fn u128_bounds_do_not_wrap() {
        let mut ranges: Vec<(u128, u128)> = Vec::new();
        insert_range(&mut ranges, u128::MAX - 1, u128::MAX);
        insert_range(&mut ranges, 0, 1);
        assert_eq!(ranges.len(), 2);
        insert_range(&mut ranges, 2, u128::MAX - 2);
        assert_eq!(ranges, vec![(0, u128::MAX)]);
    }
}
