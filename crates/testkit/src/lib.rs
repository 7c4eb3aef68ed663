//! Test-only support shared by the workspace's tests: production
//! crates export only what production calls, and what several test
//! files need lives here once.
//!
//! * [`CountingResolver`] — a resolver layer that counts queries;
//! * [`evaluate_auth`] — the one-pair auth composition the property
//!   suites use as a reference;
//! * [`population_at`] / [`world_at`] — the stress suites' seeded worlds;
//! * [`pairs_with_reference`] / [`replay`] / [`assert_conservation`] —
//!   the verdict service's byte-identity replay;
//! * [`arb_qualifier`] / [`arb_term`] / [`arb_record`] / [`arb_domain`]
//!   — SPF record and world generators for the property suites;
//! * [`dom`] / [`add_reverse_v4`] / [`build_world`] — zone fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auth;
mod records;
mod resolver;
mod service;
mod worlds;
mod zone;

pub use auth::evaluate_auth;
pub use records::{arb_domain, arb_qualifier, arb_record, arb_term};
pub use resolver::{CountingResolver, QueryStats};
pub use service::{assert_conservation, pairs_with_reference, replay, Expected, SENDER};
pub use worlds::{dom, population_at, world_at, SEED};
pub use zone::{add_reverse_v4, build_world};
