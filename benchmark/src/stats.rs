//! Exact sample statistics: raw nanosecond samples sorted for
//! quantiles (no bucketed histogram) and medians.

use std::time::Duration;

/// Latency of an operation that never completed (lost, shed, timed out
/// or answered with a non-`ok` status): it sorts above every real
/// sample, so it misses any latency limit.
pub const NEVER_NS: u64 = u64::MAX;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Raw latency samples in nanoseconds. Recording is a `Vec` push into
/// capacity reserved up front, so the measured loop never reallocates;
/// quantiles sort a copy and pick by nearest rank.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// A recorder with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        LatencyRecorder {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Record one completed operation.
    pub fn record(&mut self, latency: Duration) {
        self.samples
            .push(u64::try_from(latency.as_nanos()).unwrap_or(NEVER_NS - 1));
    }

    /// Record one operation that never completed.
    pub fn record_never(&mut self) {
        self.samples.push(NEVER_NS);
    }

    /// Samples recorded, failed ones included.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append another recorder's samples.
    pub fn extend(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The samples sorted ascending, for repeated quantile reads.
    pub fn sorted(&self) -> SortedLatencies {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        SortedLatencies { sorted }
    }
}

/// Sorted samples; see [`LatencyRecorder::sorted`].
#[derive(Debug, Clone)]
pub struct SortedLatencies {
    sorted: Vec<u64>,
}

impl SortedLatencies {
    /// The nearest-rank `q`-quantile (`0 < q <= 1`) in microseconds;
    /// `f64::INFINITY` when that rank is a failed operation, `None`
    /// when there are no samples.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        let ns = self.sorted[rank - 1];
        Some(if ns == NEVER_NS {
            f64::INFINITY
        } else {
            ns as f64 / 1_000.0
        })
    }

    /// The largest sample in microseconds.
    pub fn max_us(&self) -> Option<f64> {
        self.quantile_us(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantiles_of_a_known_uniform_distribution() {
        // 1..=1000 µs, recorded out of order.
        let mut rec = LatencyRecorder::with_capacity(1000);
        for i in (1..=1000u64).rev() {
            rec.record(Duration::from_micros(i));
        }
        let sorted = rec.sorted();
        assert_eq!(sorted.quantile_us(0.5), Some(500.0));
        assert_eq!(sorted.quantile_us(0.99), Some(990.0));
        assert_eq!(sorted.quantile_us(0.999), Some(999.0));
        assert_eq!(sorted.max_us(), Some(1000.0));
    }

    #[test]
    fn quantiles_distinguish_what_a_log2_histogram_cannot() {
        // 1.1 ms and 1.9 ms share one log₂ bucket; raw samples keep
        // the 1.7× apart.
        let mut rec = LatencyRecorder::with_capacity(100);
        for _ in 0..60 {
            rec.record(Duration::from_micros(1100));
        }
        for _ in 0..40 {
            rec.record(Duration::from_micros(1900));
        }
        let sorted = rec.sorted();
        assert_eq!(sorted.quantile_us(0.5), Some(1100.0));
        assert_eq!(sorted.quantile_us(0.99), Some(1900.0));
    }

    #[test]
    fn failed_operations_sort_above_every_latency() {
        let mut rec = LatencyRecorder::with_capacity(4);
        rec.record(Duration::from_micros(10));
        rec.record_never();
        rec.record(Duration::from_micros(20));
        rec.record_never();
        let sorted = rec.sorted();
        assert_eq!(sorted.quantile_us(0.5), Some(20.0));
        assert_eq!(sorted.quantile_us(0.75), Some(f64::INFINITY));
    }
}
