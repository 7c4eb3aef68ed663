//! Fixed-bucket log₂ latency histogram for the service's tail telemetry.
//!
//! Buckets are powers of two in nanoseconds: bucket *i* covers
//! `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns). That gives ≤ 2×
//! relative error on any reported quantile, costs a fixed 40 atomic
//! words, and makes `record` a branch-free relaxed add — safe to call
//! from every worker on every reply without coordinating. Quantiles are
//! read as the *upper bound* of the bucket holding the requested rank,
//! so a reported p99 is always ≥ the true p99 (telemetry errs toward
//! pessimism, never optimism).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::Serialize;

/// Number of log₂ buckets: `2^39` ns ≈ 550 s ceiling, far beyond any
/// plausible query latency; longer samples clamp into the last bucket.
const BUCKET_COUNT: usize = 40;

/// A concurrently-writable log₂ histogram of durations.
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        return 0;
    }
    ((63 - nanos.leading_zeros()) as usize).min(BUCKET_COUNT - 1)
}

/// Upper bound (inclusive) of bucket `i`, in nanoseconds.
fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKET_COUNT - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Record one sample. Relaxed atomics only — callers on different
    /// threads never contend on a lock.
    pub fn record(&self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The upper bound of the bucket holding rank `⌈q·count⌉` — an
    /// upper estimate of the `q`-quantile. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_nanos(bucket_upper(i));
            }
        }
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// A serializable snapshot with the standard tail percentiles.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count();
        let mean_us = if count == 0 {
            0.0
        } else {
            self.sum_nanos.load(Ordering::Relaxed) as f64 / count as f64 / 1_000.0
        };
        LatencySnapshot {
            count,
            mean_us,
            p50_us: self.quantile(0.50).as_nanos() as f64 / 1_000.0,
            p99_us: self.quantile(0.99).as_nanos() as f64 / 1_000.0,
            p999_us: self.quantile(0.999).as_nanos() as f64 / 1_000.0,
            max_us: self.max_nanos.load(Ordering::Relaxed) as f64 / 1_000.0,
        }
    }
}

/// Point-in-time latency summary, in microseconds (the scale loopback
/// query latencies actually live at).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySnapshot {
    /// Samples behind the percentiles.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (upper bucket bound).
    pub p50_us: f64,
    /// 99th percentile (upper bucket bound).
    pub p99_us: f64,
    /// 99.9th percentile (upper bucket bound).
    pub p999_us: f64,
    /// Largest single sample (exact, not bucketed).
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(10), 2047);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let h = LogHistogram::new();
        // 99 fast samples at ~1 µs, one slow at ~1 ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(p50 >= Duration::from_micros(1) && p50 < Duration::from_micros(3));
        // p99 rank lands on the 99th fast sample; p999 rounds up to the
        // slow one and must report at least its bucket's lower bound.
        assert!(h.quantile(0.999) >= Duration::from_micros(512));
        let snap = h.snapshot();
        assert!(snap.max_us >= 1_000.0);
        assert!(snap.mean_us > 1.0 && snap.mean_us < 1_000.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.snapshot(), LatencySnapshot::default());
    }
}
