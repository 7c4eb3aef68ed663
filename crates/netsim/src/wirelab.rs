//! Per-shard fault/latency presets for the wire-path crawl.
//!
//! The paper's crawler spread queries across 150 resolver endpoints; in a
//! real fleet those endpoints do not fail uniformly — one rack is slow,
//! one upstream is lossy, the rest are healthy. The wire substrate
//! ([`spf_dns::fleet`]) accepts one [`ShardBehavior`] per server shard;
//! this module provides the named profiles the stress suites use, so
//! experiments reference a preset instead of hand-rolling probability
//! vectors.

use std::time::Duration;

use spf_dns::{FaultProfile, ShardBehavior};

/// The determinism profile: no injected faults, no added latency, on any
/// number of shards. Wire-mode crawls under this profile are byte-
/// identical to in-memory crawls (the `wire_stress` suite's invariant).
pub fn zero_faults(shards: usize) -> Vec<ShardBehavior> {
    vec![ShardBehavior::none(); shards.max(1)]
}

/// Uniformly lossy fleet: every shard times out with probability
/// `timeout_p` (the paper's transient-error cohort arising from the
/// transport instead of the zone).
pub fn lossy(shards: usize, timeout_p: f64) -> Vec<ShardBehavior> {
    let profile = FaultProfile {
        timeout: timeout_p,
        nxdomain: 0.0,
        empty: 0.0,
        servfail: 0.0,
    };
    vec![
        ShardBehavior {
            fault: profile,
            latency: Duration::ZERO,
        };
        shards.max(1)
    ]
}

/// One degraded shard in an otherwise healthy fleet: shard `victim` gets
/// heavy timeouts/SERVFAILs plus `latency`, everyone else runs clean —
/// the "one slow resolver out of 150" scenario.
pub fn degraded_shard(shards: usize, victim: usize, latency: Duration) -> Vec<ShardBehavior> {
    let shards = shards.max(1);
    let mut behaviors = zero_faults(shards);
    behaviors[victim % shards] = ShardBehavior {
        fault: FaultProfile {
            timeout: 0.25,
            nxdomain: 0.0,
            empty: 0.0,
            servfail: 0.10,
        },
        latency,
    };
    behaviors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_faults_is_the_none_behavior() {
        let b = zero_faults(4);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|s| *s == ShardBehavior::none()));
        // Degenerate shard counts clamp to one.
        assert_eq!(zero_faults(0).len(), 1);
    }

    #[test]
    fn degraded_shard_hits_only_the_victim() {
        let b = degraded_shard(4, 2, Duration::from_millis(30));
        assert_eq!(b.len(), 4);
        for (i, s) in b.iter().enumerate() {
            if i == 2 {
                assert!(s.fault.timeout > 0.0 && s.latency > Duration::ZERO);
            } else {
                assert_eq!(*s, ShardBehavior::none());
            }
        }
        // The victim index wraps instead of panicking.
        let wrapped = degraded_shard(4, 6, Duration::ZERO);
        assert!(wrapped[2].fault.timeout > 0.0);
    }

    #[test]
    fn lossy_applies_uniformly() {
        let lossy = lossy(3, 0.05);
        assert!(lossy.iter().all(|s| (s.fault.timeout - 0.05).abs() < 1e-12));
    }
}
