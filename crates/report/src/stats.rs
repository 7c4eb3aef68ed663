//! Statistics primitives behind the paper's figures: CDFs over allowed-IP
//! counts (Figure 5), log₂ binning (Figures 5/8 axes), labelled histograms
//! (Figures 2/3/6/7) and 2-D log-log heatmaps (Figure 8).

use serde::{Deserialize, Serialize};

/// An empirical CDF over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<u64>,
}

impl Cdf {
    /// Build from samples (unsorted input accepted).
    pub fn new(mut samples: Vec<u64>) -> Cdf {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    fn fraction_at_most(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly below `x`.
    pub fn fraction_below(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly above `x`.
    pub fn fraction_above(&self, x: u64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// The `q`-quantile (0.0..=1.0), nearest-rank.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Sample the CDF at the powers of two `2^0 .. 2^32` — the x-axis of
    /// Figure 5. Returns `(exponent, fraction ≤ 2^exponent)` pairs.
    pub fn power_of_two_series(&self) -> Vec<(u32, f64)> {
        (0..=32)
            .map(|e| {
                let x = if e == 32 { u64::MAX } else { 1u64 << e };
                (e, self.fraction_at_most(x))
            })
            .collect()
    }

    /// The largest single rise of the CDF between consecutive powers of
    /// two, as `(exponent, rise)` — the paper highlights the jump between
    /// 400k and 700k (≈2^19).
    pub fn steepest_power_of_two_step(&self) -> (u32, f64) {
        let series = self.power_of_two_series();
        let mut best = (0u32, 0.0f64);
        for w in series.windows(2) {
            let rise = w[1].1 - w[0].1;
            if rise > best.1 {
                best = (w[1].0, rise);
            }
        }
        best
    }
}

/// A labelled histogram (ordered buckets with counts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// `(label, count)` in display order.
    pub buckets: Vec<(String, u64)>,
}

impl Histogram {
    /// Build from pairs.
    pub fn new(buckets: Vec<(String, u64)>) -> Histogram {
        Histogram { buckets }
    }

    /// Sum of all bucket counts.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|(_, c)| *c).sum()
    }

    /// The bucket with the highest count.
    pub fn peak(&self) -> Option<&(String, u64)> {
        self.buckets.iter().max_by_key(|(_, c)| *c)
    }

    /// Share of one bucket, by label.
    pub fn share(&self, label: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.buckets
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| *c as f64 / total as f64)
            .unwrap_or(0.0)
    }
}

/// The log₂ bin index of a count (0 for 0 or 1; clamped to 32).
fn log2_bin(value: u64) -> u32 {
    if value <= 1 {
        0
    } else {
        (63 - value.leading_zeros() as u64).min(32) as u32
    }
}

/// A 2-D density map over log₂-binned axes — Figure 8's heatmap of
/// include usage (y) against allowed IPs (x).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heatmap {
    /// `cells[y][x]` = number of points in that bin.
    pub cells: Vec<Vec<u64>>,
    /// Number of x bins (allowed-IP log₂, 0..=32).
    pub x_bins: usize,
    /// Number of y bins (usage log₂).
    pub y_bins: usize,
}

impl Heatmap {
    /// Build from `(x_value, y_value)` points.
    pub fn from_points(points: &[(u64, u64)], x_bins: usize, y_bins: usize) -> Heatmap {
        let mut cells = vec![vec![0u64; x_bins]; y_bins];
        for &(x, y) in points {
            let xi = (log2_bin(x) as usize).min(x_bins - 1);
            let yi = (log2_bin(y) as usize).min(y_bins - 1);
            cells[yi][xi] += 1;
        }
        Heatmap {
            cells,
            x_bins,
            y_bins,
        }
    }

    /// Total points.
    pub fn total(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }

    /// The densest cell as `(x_bin, y_bin, count)`.
    pub fn hottest(&self) -> (usize, usize, u64) {
        let mut best = (0, 0, 0);
        for (y, row) in self.cells.iter().enumerate() {
            for (x, &c) in row.iter().enumerate() {
                if c > best.2 {
                    best = (x, y, c);
                }
            }
        }
        best
    }

    /// Mass (share of points) with x-bin ≤ `x` — the paper observes "a
    /// huge concentration, up to around 2^20 allowed IPs".
    pub fn mass_at_most_x(&self, x: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .cells
            .iter()
            .flat_map(|row| row.iter().take(x + 1))
            .sum();
        below as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::new(vec![1, 2, 2, 4, 10]);
        assert_eq!(cdf.len(), 5);
        assert!((cdf.fraction_at_most(2) - 0.6).abs() < 1e-9);
        assert!((cdf.fraction_below(2) - 0.2).abs() < 1e-9);
        assert!((cdf.fraction_above(4) - 0.2).abs() < 1e-9);
        assert_eq!(cdf.fraction_at_most(100), 1.0);
        assert_eq!(cdf.fraction_at_most(0), 0.0);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::new((1..=100).collect());
        assert_eq!(cdf.quantile(0.5), Some(50));
        assert_eq!(cdf.quantile(1.0), Some(100));
        assert_eq!(cdf.quantile(0.0), Some(1));
        assert_eq!(Cdf::new(vec![]).quantile(0.5), None);
    }

    #[test]
    fn cdf_power_series_monotonic() {
        let cdf = Cdf::new(vec![1, 20, 500_000, 5_000_000, 1 << 30]);
        let series = cdf.power_of_two_series();
        assert_eq!(series.len(), 33);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn steepest_step_found() {
        // Mass concentrated just under 2^19 (≈491k, the outlook step).
        let samples: Vec<u64> = std::iter::repeat_n(491_520u64, 80)
            .chain(std::iter::repeat_n(4u64, 20))
            .collect();
        let cdf = Cdf::new(samples);
        let (exp, rise) = cdf.steepest_power_of_two_step();
        assert_eq!(exp, 19);
        assert!(rise >= 0.8);
    }

    #[test]
    fn histogram_basics() {
        let h = Histogram::new(vec![
            ("/32".into(), 170),
            ("/24".into(), 40),
            ("/16".into(), 5),
        ]);
        assert_eq!(h.total(), 215);
        assert_eq!(h.peak().unwrap().0, "/32");
        assert!((h.share("/24") - 40.0 / 215.0).abs() < 1e-9);
        assert_eq!(h.share("/8"), 0.0);
    }

    #[test]
    fn log2_bins() {
        assert_eq!(log2_bin(0), 0);
        assert_eq!(log2_bin(1), 0);
        assert_eq!(log2_bin(2), 1);
        assert_eq!(log2_bin(3), 1);
        assert_eq!(log2_bin(4), 2);
        assert_eq!(log2_bin(1 << 19), 19);
        assert_eq!(log2_bin(u64::MAX), 32);
    }

    #[test]
    fn heatmap_binning() {
        let points = vec![(491_520u64, 2_456_916u64), (2, 176_191), (4_358, 289_112)];
        let map = Heatmap::from_points(&points, 33, 33);
        assert_eq!(map.total(), 3);
        let (x, y, c) = map.hottest();
        assert_eq!(c, 1);
        assert!(x <= 32 && y <= 32);
        assert_eq!(map.mass_at_most_x(32), 1.0);
    }

    #[test]
    fn heatmap_mass_concentration() {
        // 90 small includes, 10 huge ones: mass ≤ 2^20 should be 0.9.
        let mut points = vec![(1u64 << 10, 100u64); 90];
        points.extend(vec![(1u64 << 30, 100u64); 10]);
        let map = Heatmap::from_points(&points, 33, 33);
        assert!((map.mass_at_most_x(20) - 0.9).abs() < 1e-9);
    }
}
