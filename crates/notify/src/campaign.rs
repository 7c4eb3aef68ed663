//! The large-scale notification campaign (§5.4).
//!
//! The authors sent 111,951 emails — one per operator of a domain with a
//! non-record-not-found error — from a dedicated server throttled to one
//! message per second, and maintained an opt-out list for the (three)
//! operators who objected. This module reproduces the pipeline: eligible
//! domains → operator dedup → throttled delivery on a [`Clock`] →
//! bounce/feedback accounting.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use spf_analyzer::{DomainReport, ErrorClass};
use spf_dns::Clock;
use spf_types::DomainName;

use crate::template::{render, NotificationEmail};

/// Campaign tunables, defaults calibrated to §5.4.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Messages per second (the paper throttled to 1/s to avoid
    /// blacklisting).
    pub rate_per_second: f64,
    /// Fraction of eligible domains whose operator was already notified
    /// for another domain (111,951 sent / 120,321 eligible ≈ 0.9304).
    pub operator_dedup: f64,
    /// Fraction of notifications that bounce (role addresses often do not
    /// exist; the paper reports "a large number of bounces").
    pub bounce_rate: f64,
    /// Positive feedback per sent mail (300 / 111,951).
    pub thank_rate: f64,
    /// Negative feedback per sent mail (3 / 111,951) — goes to opt-out.
    pub complaint_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            rate_per_second: 1.0,
            operator_dedup: 111_951.0 / 120_321.0,
            bounce_rate: 0.20,
            thank_rate: 300.0 / 111_951.0,
            complaint_rate: 3.0 / 111_951.0,
            seed: 0x17_2142,
        }
    }
}

/// What happened to the campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Domains with a notifiable error.
    pub eligible: u64,
    /// Domains skipped: same operator already notified.
    pub deduplicated: u64,
    /// Domains skipped: operator on the opt-out list.
    pub opted_out: u64,
    /// Notifications actually sent.
    pub sent: u64,
    /// Bounced deliveries.
    pub bounced: u64,
    /// Thank-you replies.
    pub thanked: u64,
    /// Spam complaints (operators added to the opt-out list).
    pub complaints: u64,
    /// Virtual wall-clock time the throttled send took.
    pub elapsed: Duration,
    /// The domains that were successfully notified.
    pub notified_domains: Vec<DomainName>,
}

/// The campaign runner. Owns the opt-out list across rounds.
pub struct Campaign {
    config: CampaignConfig,
    clock: Arc<dyn Clock>,
    opt_out: HashSet<DomainName>,
    rng: StdRng,
}

impl Campaign {
    /// Create a campaign runner on the given clock.
    pub fn new(config: CampaignConfig, clock: Arc<dyn Clock>) -> Campaign {
        let seed = config.seed;
        Campaign {
            config,
            clock,
            opt_out: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Is this report eligible for notification? The paper notified every
    /// error class *except* record-not-found.
    pub fn eligible(report: &DomainReport) -> bool {
        matches!(
            report.primary_error,
            Some(class) if class != ErrorClass::RecordNotFound
        )
    }

    /// Render and (virtually) deliver notifications for one scan.
    pub fn run(&mut self, reports: &[DomainReport]) -> CampaignOutcome {
        let started = self.clock.now();
        let mut outcome = CampaignOutcome::default();
        let interval = Duration::from_secs_f64(1.0 / self.config.rate_per_second);
        for report in reports.iter().filter(|r| Self::eligible(r)) {
            outcome.eligible += 1;
            if self.opt_out.contains(&report.domain) {
                outcome.opted_out += 1;
                continue;
            }
            if self.rng.random::<f64>() > self.config.operator_dedup {
                outcome.deduplicated += 1;
                continue;
            }
            let Some(_email): Option<NotificationEmail> = render(report, None) else {
                continue;
            };
            // Throttled delivery: 1 message per second of (virtual) time.
            self.clock.sleep(interval);
            outcome.sent += 1;
            outcome.notified_domains.push(report.domain.clone());
            if self.rng.random::<f64>() < self.config.bounce_rate {
                outcome.bounced += 1;
            } else if self.rng.random::<f64>() < self.config.thank_rate {
                outcome.thanked += 1;
            } else if self.rng.random::<f64>() < self.config.complaint_rate {
                outcome.complaints += 1;
                self.opt_out.insert(report.domain.clone());
            }
        }
        outcome.elapsed = self.clock.now() - started;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_analyzer::{analyze_domain, Walker};
    use spf_dns::{VirtualClock, ZoneResolver, ZoneStore};

    fn reports(n: usize) -> Vec<DomainReport> {
        let store = Arc::new(ZoneStore::new());
        let mut domains = Vec::new();
        for i in 0..n {
            let d = DomainName::parse(&format!("err{i}.example")).unwrap();
            store.add_txt(&d, "v=spf1 ipv4:10.0.0.1 -all");
            domains.push(d);
        }
        // One clean domain and one record-not-found domain: not eligible.
        let clean = DomainName::parse("clean.example").unwrap();
        store.add_txt(&clean, "v=spf1 -all");
        domains.push(clean);
        let nf = DomainName::parse("nf.example").unwrap();
        store.add_txt(&nf, "v=spf1 include:gone.example -all");
        domains.push(nf);
        let walker = Walker::new(ZoneResolver::new(store));
        domains.iter().map(|d| analyze_domain(&walker, d)).collect()
    }

    #[test]
    fn only_notifiable_errors_are_eligible() {
        let rs = reports(3);
        assert_eq!(rs.iter().filter(|r| Campaign::eligible(r)).count(), 3);
    }

    #[test]
    fn throttle_advances_virtual_time() {
        let clock = Arc::new(VirtualClock::new());
        let mut campaign = Campaign::new(
            CampaignConfig {
                operator_dedup: 1.0,
                ..Default::default()
            },
            clock.clone(),
        );
        let outcome = campaign.run(&reports(50));
        assert_eq!(outcome.sent, 50);
        // 1 msg/s → 50 virtual seconds.
        assert_eq!(outcome.elapsed, Duration::from_secs(50));
        assert_eq!(clock.now(), Duration::from_secs(50));
    }

    #[test]
    fn dedup_skips_a_fraction() {
        let clock = Arc::new(VirtualClock::new());
        let mut campaign = Campaign::new(CampaignConfig::default(), clock);
        let outcome = campaign.run(&reports(2000));
        assert_eq!(outcome.eligible, 2000);
        assert_eq!(outcome.sent + outcome.deduplicated, 2000);
        let ratio = outcome.sent as f64 / outcome.eligible as f64;
        assert!((0.90..=0.96).contains(&ratio), "dedup ratio {ratio}");
    }

    #[test]
    fn complaints_populate_opt_out_and_skip_next_round() {
        let clock = Arc::new(VirtualClock::new());
        let mut campaign = Campaign::new(
            CampaignConfig {
                operator_dedup: 1.0,
                bounce_rate: 0.0,
                complaint_rate: 1.0, // everyone complains
                thank_rate: 0.0,
                ..Default::default()
            },
            clock,
        );
        let rs = reports(10);
        let first = campaign.run(&rs);
        assert_eq!(first.complaints, 10);
        assert_eq!(campaign.opt_out.len(), 10);
        let second = campaign.run(&rs);
        assert_eq!(second.sent, 0);
        assert_eq!(second.opted_out, 10);
    }

    #[test]
    fn outcome_is_deterministic() {
        let rs = reports(200);
        let run = || {
            let clock = Arc::new(VirtualClock::new());
            let mut c = Campaign::new(CampaignConfig::default(), clock);
            c.run(&rs)
        };
        assert_eq!(run(), run());
    }
}
