//! A clock abstraction so everything that expires or throttles on time
//! can run on virtual time in tests and on wall-clock time in live runs:
//! the [`crate::WireResolver`]'s answer TTLs, the verdict service's cache
//! expiry and the notification sender's throttle.
//!
//! The paper's notification campaign sent 1 email/second; replaying that
//! policy, or a cache TTL, in a test suite demands a clock that can be
//! advanced instantly.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::lock;

/// Monotonic time source.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
    /// Block (or advance virtual time) for `d`.
    fn sleep(&self, d: Duration);
}

/// Wall-clock implementation backed by [`Instant`].
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Deterministic virtual clock: `sleep` advances time instantly.
#[derive(Clone, Default)]
pub struct VirtualClock {
    now: Arc<Mutex<Duration>>,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advance time without sleeping.
    pub fn advance(&self, d: Duration) {
        *lock(&self.now) += d;
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *lock(&self.now)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_on_sleep() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(5));
        clock.advance(Duration::from_millis(500));
        assert_eq!(clock.now(), Duration::from_millis(5500));
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.now(), Duration::from_secs(1));
    }

    #[test]
    fn system_clock_moves_forward() {
        let clock = SystemClock::new();
        let t0 = clock.now();
        clock.sleep(Duration::from_millis(2));
        assert!(clock.now() > t0);
    }
}
