//! # spf-netsim — the synthetic Internet the study is re-run against
//!
//! The paper measured the live DNS of 12.8M Tranco domains; this crate
//! generates the closest synthetic equivalent: a ranked population whose
//! cohort composition embeds the paper's published marginals (adoption,
//! error classes and causes, include ecosystem, CIDR distributions) so
//! that *re-measuring the population through the real pipeline* reproduces
//! every table and figure. See DESIGN.md §2 for the substitution argument
//! and `population::cohort_table` for the calibration arithmetic.
//!
//! * [`scale`] — deterministic 1:N scaling with largest-remainder
//!   apportionment;
//! * [`blocks`] — disjoint aligned CIDR allocation and exact-count
//!   decomposition;
//! * [`providers`] — Table 4's top-20 includes, fat includes (Figure 4),
//!   the multi-record target, the Table 3 long tail;
//! * [`population`] — the cohort-calibrated domain population;
//! * [`churn`] — deterministic seeded zone churn (record add/remove,
//!   tightenings, provider migrations, BLBFO MX failover) for the
//!   longitudinal engine;
//! * [`hosting`] — the five-provider case-study world (Table 5);
//! * [`spooflab`] — the spoofability-matrix world: population + hosting
//!   merged into one zone.
//!
//! The population's DNS error cohorts are per-name `spf_dns::ZoneFault`s
//! (and absent or empty names) in the zone it builds, so the in-memory
//! and the wire crawl meet the same failures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod churn;
pub mod deployment;
pub mod hosting;
pub mod population;
pub mod providers;
pub mod scale;
pub mod spooflab;

pub use blocks::AddressAllocator;
pub use churn::{ChurnBatch, ChurnConfig, ChurnEvent, ChurnKind, ChurnPreset, ChurnSimulator};
pub use deployment::{assign_mta_sts, mta_sts_record};
pub use hosting::{build_hosting, build_hosting_into, HostingProvider, HostingWorld};
pub use population::{Population, PopulationConfig};
pub use providers::{build_providers, ProviderEntry, ProviderSpec, ProviderWorld, TABLE4};
pub use scale::{apportion, Scale};
/// Re-export of the deployment-tier enum the presets model.
pub use spf_core::DeploymentMix;
pub use spooflab::{build_spoof_world, SpoofWorld};
