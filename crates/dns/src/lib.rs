//! # spf-dns — the DNS substrate for the Lazy Gatekeepers reproduction
//!
//! The paper's measurement runs against the live DNS; this crate provides
//! the synthetic equivalent the whole pipeline resolves against:
//!
//! * [`record`]: the resource-record model (TXT, deprecated SPF type 99,
//!   A/AAAA, MX, PTR, NS, CNAME);
//! * [`wire`]: an RFC 1035 message codec with name compression;
//! * [`zone`]: the in-memory authoritative store, including per-name fault
//!   configuration (timeouts, SERVFAIL) used to reproduce the paper's DNS
//!   error cohorts;
//! * [`resolver`]: the [`Resolver`] trait plus rate-limiting, counting
//!   and fault-injecting layers mirroring the crawler design in Section
//!   4.1 of the paper;
//! * [`udp`]: a real UDP + TCP name server over the wire codec, and the
//!   batched datagram loop it shares with the verdict service;
//! * [`fleet`]: the wire-path crawl substrate — a hash-sharded
//!   authoritative server fleet plus the coalescing, TTL-caching
//!   [`WireResolver`], the one DNS-over-socket client;
//! * [`clock`]: virtual/wall clock abstraction for the throttling layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fleet;
pub mod record;
pub mod resolver;
pub mod udp;
pub mod wire;
pub mod zone;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use fleet::{
    ShardBehavior, WireClientConfig, WireFleet, WireResolver, WireSnapshot, WireStatsView,
};
pub use record::{Question, RecordData, RecordType, ResourceRecord, TxtData};
pub use resolver::{
    CountingResolver, DnsError, FaultInjectingResolver, FaultProfile, QueryStats,
    RateLimitedResolver, Resolver, ZoneResolver,
};
pub use udp::{serve_datagrams, DatagramHandler, ServerConfig, UdpNameServer};
pub use wire::{decode, encode, encode_uncompressed, Header, Message, Rcode, WireError};
pub use zone::{LookupOutcome, ZoneFault, ZoneStore};
