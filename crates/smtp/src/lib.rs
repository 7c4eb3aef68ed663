//! # spf-smtp — the mail-flow substrate behind the case study
//!
//! A minimal but real SMTP implementation over TCP: a command/reply
//! [`codec`], a receiving-MTA [`server`] that runs `check_host()` at
//! `MAIL FROM` (rejecting on `fail`), a [`client`], and the [`spoof`]
//! harness that reproduces the Section 6.4 case study (Table 5) by
//! actually connecting, declaring the simulated source address via
//! `XCLIENT`, and letting the SPF gate decide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod server;
pub mod spoof;

pub use client::{ClientError, SmtpClient};
pub use codec::{Command, Reply};
pub use server::{DmarcResult, MtaConfig, ReceivedMessage, SmtpServer, SpfEnforcement};
/// Re-export of the layer the spoof harness attributes stops to.
pub use spf_core::StopLayer;
pub use spoof::{run_case_study, CaseStudyRow, SpoofSuccess};
