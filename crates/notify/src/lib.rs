//! # spf-notify — the §5.4 notification campaign and Table 2 remediation
//!
//! Reproduces the study's operator-notification experiment: rendering the
//! per-domain problem reports ([`template`]), delivering them at the
//! paper's 1 msg/s throttle with operator dedup, bounces, feedback and an
//! opt-out list ([`campaign`]), and mutating the zone through a
//! calibrated per-class fix-probability model so a rescan regenerates
//! Table 2 ([`remediate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod remediate;
pub mod template;

pub use campaign::{Campaign, CampaignConfig, CampaignOutcome};
pub use remediate::{apply as apply_remediation, FixRates, RemediationOutcome};
pub use template::{render, NotificationEmail};
