//! # spf-types — core data model for the Lazy Gatekeepers reproduction
//!
//! Shared, dependency-free types used by every other crate in the
//! workspace: validated [`DomainName`]s, IPv4/IPv6 [`Ipv4Cidr`]/[`Ipv6Cidr`]
//! networks with the paper's invalid-IP error taxonomy, the one interval
//! set [`IpSet`], generic over the [`IpFamily`] and used as [`Ipv4Set`] and
//! [`Ipv6Set`], that counts and intersects authorized addresses (Figure 5
//! / Table 4), the [`CoverageMap`]/[`WeightedRanges`] cross-population
//! overlap primitives (DESIGN.md §7), and the typed SPF
//! record model ([`SpfRecord`], [`Mechanism`], [`Qualifier`],
//! [`Modifier`], [`MacroString`]), plus two cross-crate plumbing APIs:
//! the typed engine selection ([`Backend`], [`Transport`], [`Evaluator`])
//! every pipeline assembler consumes, the shared telemetry formatter
//! ([`Stats`], [`render_stats`]) every CLI counter line renders through,
//! and the keep-first memo map ([`ShardedCache`]) every engine over a
//! frozen zone memoizes in.
//!
//! Reproduces the data model underlying *Lazy Gatekeepers: A Large-Scale
//! Study on SPF Configuration in the Wild* (Czybik, Horlboge, Rieck —
//! IMC 2023).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cache;
mod cidr;
mod domain;
mod interval;
mod ipset;
mod macrostring;
mod overlap;
mod stats;
mod term;

pub use backend::{Backend, BackendParseError, Evaluator, Transport};
pub use cache::{CacheKey, CacheStats, ShardedCache, DEFAULT_CACHE_SHARDS};
pub use cidr::{DualCidr, Ip4ParseError, Ip6ParseError, Ipv4Cidr, Ipv6Cidr};
pub use domain::{
    stripe_index, DomainError, DomainHashBuilder, DomainHasher, DomainName, MAX_NAME_LEN,
};
pub use ipset::{IpFamily, IpSet, Ipv4Set, Ipv6Set};
pub use macrostring::{MacroError, MacroExpand, MacroLetter, MacroString, MacroToken};
pub use overlap::{CoverageMap, WeightedRange, WeightedRanges};
pub use stats::{render_stats, StatItem, StatValue, Stats};
pub use term::{Directive, Mechanism, Modifier, Qualifier, SpfRecord, Term};

/// The SPF version tag every record must start with (RFC 7208 §4.5).
pub const SPF_VERSION_TAG: &str = "v=spf1";

/// The RFC 7208 §4.6.4 limit on DNS-querying terms per evaluation.
pub const MAX_DNS_LOOKUPS: usize = 10;

/// The RFC 7208 §4.6.4 limit on "void lookups" (NXDOMAIN or empty answers)
/// per evaluation.
pub const MAX_VOID_LOOKUPS: usize = 2;

/// One step of the splitmix64 generator: advance `state` and return the
/// next value of its stream. The deterministic sampler behind the spoof
/// matrix's control vantages, the churn simulator and the service's
/// traffic plans: no external RNG state, the same stream on every
/// platform.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
