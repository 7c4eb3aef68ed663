//! Resident SPF verdict service (ISSUE 6 / DESIGN.md §9).
//!
//! Everything before this crate is batch: load a population, scan,
//! exit. This crate is the deployment shape the paper implies —
//! receivers evaluate SPF per inbound message — as a resident daemon
//! that loads the crawled population once and then answers
//! `(client_ip, domain, sender) → verdict` queries over UDP/TCP
//! sockets at query scale.
//!
//! * [`proto`] — the length-prefixed binary frame grammar shared by
//!   both transports; decoding is total (typed errors, never panics).
//! * [`cache`] — a TTL-aware, lock-striped LRU implementing PR 5's
//!   [`VerdictCache`](spf_core::VerdictCache), so hot include subtrees
//!   and the records they read stay resident while entries expire
//!   against the pluggable clock.
//! * [`service`] — the daemon: listeners that answer resident
//!   compiled-table hits themselves (UDP in `recvmmsg`/`sendmmsg`
//!   batches), a bounded request queue with typed overload shedding for
//!   everything that can block, a worker pool, and drain-on-shutdown.
//! * [`client`] — a windowed pipelining client used by the tests and
//!   `repro -- traffic`.
//! * [`traffic`] — deterministic load mixes (Zipf hot-set, attacker
//!   bursts, cold floods) and the multi-client driver.
//! * [`histogram`] — the fixed-bucket log₂ histogram behind the
//!   p50/p99/p999 telemetry.
//!
//! The correctness bar is inherited, not relaxed: a served verdict is
//! byte-identical to bare `check_host` on the same query — under
//! concurrency, TTL expiry, and LRU eviction (`tests/service_stress.rs`
//! at the workspace root holds the proof obligation).

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod histogram;
mod json;
pub mod proto;
pub mod service;
pub mod traffic;

pub use cache::{ServiceVerdictCache, TtlLru, TtlLruConfig, TtlLruStats};
pub use client::{QuerySpec, ServiceClient, Transport};
pub use histogram::{LatencySnapshot, LogHistogram};
pub use proto::{Frame, FrameError, QueryFrame, ResponseFrame, Status};
pub use service::{ServiceConfig, ServiceTelemetry, VerdictService};
pub use traffic::{build_plan, drive, TrafficMix, TrafficReport, TRAFFIC_SENDER_LOCAL};
