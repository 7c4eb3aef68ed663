//! # spf-analyzer — misconfiguration analysis for SPF record trees
//!
//! The analysis layer the study built on top of `checkdmarc` (§4.1): an
//! error-tolerant, fully-recursive walk of a domain's SPF record that
//! classifies every problem into the paper's taxonomy (Figures 2–3),
//! counts DNS-querying terms and void lookups, unions the complete set of
//! authorized IPv4 addresses (Figure 5, Tables 3–4), and derives the
//! Section 7 recommendations used by the notification campaign.
//!
//! * [`taxonomy`] — the Figure 2 error classes and Figure 3 sub-causes;
//! * [`walker`] — the memoizing recursive record walker (its memo is
//!   [`spf_types::ShardedCache`]);
//! * [`findings`] — per-domain reports (SPF + MX + DMARC + type-99);
//! * [`mod@flatten`] — record flattening, the standard fix for
//!   lookup-limit violations;
//! * [`mod@recommend`] — the Section 7 recommendation engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod flatten;
pub mod recommend;
pub mod taxonomy;
pub mod walker;

pub use findings::{analyze_domain, DomainReport, LAX_IP_THRESHOLD};
pub use flatten::{flatten, FlattenProblem, Flattened};
pub use recommend::{recommend, Recommendation, Severity};
pub use taxonomy::{primary_class, AnalysisError, ErrorClass, NotFoundCause};
pub use walker::{FetchOutcome, RecordAnalysis, WalkPolicy, Walker};
