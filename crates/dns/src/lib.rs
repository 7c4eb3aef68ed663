//! # spf-dns — the DNS substrate for the Lazy Gatekeepers reproduction
//!
//! The paper's measurement runs against the live DNS; this crate provides
//! the synthetic equivalent the whole pipeline resolves against:
//!
//! * [`record`]: the resource-record model (TXT, deprecated SPF type 99,
//!   A/AAAA, MX, PTR, NS, CNAME);
//! * [`wire`]: an RFC 1035 message codec with name compression;
//! * [`zone`]: the in-memory authoritative store, including per-name fault
//!   configuration (timeouts, SERVFAIL, REFUSED): the one model of the
//!   paper's DNS error cohorts, served alike in process and over sockets;
//! * [`resolver`]: the [`Resolver`] trait, the in-process
//!   [`ZoneResolver`] and a query-counting layer;
//! * [`udp`]: a real UDP + TCP name server over the wire codec, and the
//!   datagram and accept loops it shares with the verdict service;
//! * [`fleet`]: the wire-path crawl substrate — a hash-sharded
//!   authoritative server fleet plus the coalescing, TTL-caching
//!   [`WireResolver`], the one DNS-over-socket client;
//! * [`clock`]: virtual/wall clock abstraction for the wire client's
//!   answer TTLs, the verdict service's cache expiry and the notification
//!   campaign's throttle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fleet;
mod inline;
pub mod record;
pub mod resolver;
pub mod udp;
pub mod wire;
pub mod zone;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use clock::{Clock, SystemClock, VirtualClock};
pub use fleet::{WireClientConfig, WireFleet, WireResolver, WireSnapshot, WireStatsView};
pub use record::{Question, RecordData, RecordType, ResourceRecord, RrSet, TxtData};
pub use resolver::{DnsError, Resolver, ZoneResolver};
pub use udp::{
    bind_udp_tcp_pair, serve_connections, serve_datagrams, DatagramHandler, ServerConfig,
    UdpNameServer,
};
pub use wire::{decode, encode, encode_uncompressed, Header, Message, Rcode, WireError};
pub use zone::{LookupOutcome, ZoneFault, ZoneStore};

/// Lock `mutex`, recovering it if a holder panicked, the way
/// `spf_types::ShardedCache` recovers its stripes: every value behind the
/// crate's locks is whole between statements, so a panic elsewhere
/// leaves nothing half-written to guard against.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
