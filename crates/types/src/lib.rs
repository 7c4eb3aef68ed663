//! # spf-types — core data model for the Lazy Gatekeepers reproduction
//!
//! Shared, dependency-free types used by every other crate in the
//! workspace: validated [`DomainName`]s, IPv4/IPv6 [`Ipv4Cidr`]/[`Ipv6Cidr`]
//! networks with the paper's invalid-IP error taxonomy, the [`Ipv4Set`]/
//! [`Ipv6Set`] interval sets used to count and intersect authorized
//! addresses (Figure 5 / Table 4), the [`CoverageMap`]/[`WeightedRanges`]
//! cross-population overlap primitives (DESIGN.md §7), and the typed SPF
//! record model ([`SpfRecord`], [`Mechanism`], [`Qualifier`],
//! [`Modifier`], [`MacroString`]), plus two cross-crate plumbing APIs:
//! the typed engine selection ([`Backend`], [`Transport`], [`Evaluator`])
//! every pipeline assembler consumes, and the shared telemetry formatter
//! ([`Stats`], [`render_stats`]) every CLI counter line renders through.
//!
//! Reproduces the data model underlying *Lazy Gatekeepers: A Large-Scale
//! Study on SPF Configuration in the Wild* (Czybik, Horlboge, Rieck —
//! IMC 2023).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cidr;
mod domain;
mod interval;
mod ipset;
mod ipv6set;
mod macrostring;
mod overlap;
mod stats;
mod term;

pub use backend::{Backend, BackendParseError, Evaluator, Transport, DEFAULT_WIRE_SERVERS};
pub use cidr::{parse_ipv4_strict, DualCidr, Ip4ParseError, Ip6ParseError, Ipv4Cidr, Ipv6Cidr};
pub use domain::{
    DomainError, DomainHashBuilder, DomainHasher, DomainName, MAX_LABEL_LEN, MAX_NAME_LEN,
};
pub use ipset::Ipv4Set;
pub use ipv6set::Ipv6Set;
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
