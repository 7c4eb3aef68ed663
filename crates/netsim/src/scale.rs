//! Deterministic scaling of the paper's full-size population.
//!
//! The study scanned 12,823,598 domains. Re-running every experiment at
//! that size is possible but slow, so the generator works at a configurable
//! scale (default 1:100). Cohort sizes are derived with largest-remainder
//! apportionment, which keeps partitions exact: the scaled parts of a
//! partition always sum to the scaled total, so measured percentages match
//! the paper at any scale.

use serde::{Deserialize, Serialize};

/// A scale factor 1:`denominator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Divide all full-scale counts by this.
    pub denominator: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { denominator: 100 }
    }
}

impl Scale {
    /// Full paper scale (1:1).
    pub fn full() -> Self {
        Scale { denominator: 1 }
    }

    /// Round a single full-scale count to this scale (half-up).
    pub fn of(&self, full: u64) -> u64 {
        (full + self.denominator / 2) / self.denominator
    }

    /// Like [`Scale::of`] but never rounds a non-zero cohort away — used
    /// for rare-but-load-bearing cohorts (the 58 redirect loops must
    /// exist at any scale).
    pub fn of_min1(&self, full: u64) -> u64 {
        if full == 0 {
            0
        } else {
            self.of(full).max(1)
        }
    }

    /// Scale the parts of a partition so they sum exactly to
    /// `self.of(parts.sum())`, using largest-remainder apportionment.
    pub fn apportion(&self, parts: &[u64]) -> Vec<u64> {
        let total_full: u64 = parts.iter().sum();
        let total_scaled = self.of(total_full);
        apportion(total_scaled, parts)
    }
}

/// Largest-remainder apportionment of `total` units across `weights`.
pub fn apportion(total: u64, weights: &[u64]) -> Vec<u64> {
    let weight_sum: u64 = weights.iter().sum();
    if weight_sum == 0 || weights.is_empty() {
        return vec![0; weights.len()];
    }
    // Floor shares plus remainders.
    let mut out: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact_num = (total as u128) * (w as u128);
        let floor = (exact_num / weight_sum as u128) as u64;
        let rem = exact_num % weight_sum as u128;
        out.push(floor);
        assigned += floor;
        remainders.push((rem, i));
    }
    // Distribute leftovers to the largest remainders (ties: lower index).
    let mut leftover = total - assigned;
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, idx) in remainders {
        if leftover == 0 {
            break;
        }
        out[idx] += 1;
        leftover -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_rounds_half_up() {
        let s = Scale { denominator: 100 };
        assert_eq!(s.of(12_823_598), 128_236);
        assert_eq!(s.of(49), 0);
        assert_eq!(s.of(50), 1);
        assert_eq!(s.of(149), 1);
        assert_eq!(s.of(150), 2);
    }

    #[test]
    fn of_min1_keeps_rare_cohorts() {
        let s = Scale { denominator: 100 };
        assert_eq!(s.of_min1(58), 1); // the 58 redirect loops
        assert_eq!(s.of_min1(14), 1); // the 14 ra/rp/rr domains
        assert_eq!(s.of_min1(0), 0);
    }

    #[test]
    fn presets_and_approx_domains() {
        // The paper's 12,823,598 domains divided by the denominator, half-up.
        let domains = |scale: Scale| scale.of(crate::population::TOTAL_DOMAINS_FULL);
        assert_eq!(domains(Scale { denominator: 500 }), 25_647);
        assert_eq!(
            domains(Scale {
                denominator: 20_000
            }),
            641
        );
        assert_eq!(domains(Scale::full()), 12_823_598);
    }

    #[test]
    fn full_scale_is_identity() {
        let s = Scale::full();
        assert_eq!(s.of(12_823_598), 12_823_598);
        assert_eq!(s.apportion(&[3, 5, 7]), vec![3, 5, 7]);
    }

    #[test]
    fn apportion_sums_exactly() {
        let weights = [38_296u64, 49_421, 5_308, 58, 19_356, 90_697, 7_882];
        let total: u64 = weights.iter().sum();
        assert_eq!(total, 211_018); // the paper's error population
        for denom in [1u64, 10, 100, 1000, 5000] {
            let s = Scale { denominator: denom };
            let parts = s.apportion(&weights);
            assert_eq!(parts.iter().sum::<u64>(), s.of(total), "denom={denom}");
        }
    }

    #[test]
    fn apportion_is_proportional() {
        let parts = apportion(1000, &[1, 1, 2]);
        assert_eq!(parts, vec![250, 250, 500]);
    }

    #[test]
    fn apportion_handles_zero_weights() {
        assert_eq!(apportion(10, &[0, 0]), vec![0, 0]);
        assert_eq!(apportion(10, &[]), Vec::<u64>::new());
        let parts = apportion(5, &[0, 10, 0]);
        assert_eq!(parts, vec![0, 5, 0]);
    }
}
