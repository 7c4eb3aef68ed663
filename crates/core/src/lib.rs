//! # spf-core — RFC 7208 parsing and evaluation
//!
//! The from-scratch replacement for the study's modified `checkdmarc`
//! library:
//!
//! * [`mod@parse`]: an error-tolerant record parser that classifies syntax
//!   errors into the paper's Section 5.3 taxonomy while still returning a
//!   best-effort record;
//! * [`eval`]: the `check_host()` algorithm with the 10-lookup /
//!   2-void-lookup limits, include/redirect recursion, loop detection and
//!   macro expansion;
//! * [`macroexpand`]: RFC 7208 §7 macro strings (validated against the
//!   RFC's own examples);
//! * [`compile`]: the population policy compiler — SPF trees flattened
//!   to interval matchers with a typed residue for what stays dynamic;
//! * [`dmarc`]: the RFC 7489 DMARC subset the crawler also collects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod compile;
pub mod context;
pub mod dmarc;
pub mod eval;
mod family;
pub mod header;
pub mod macroexpand;
pub mod parse;

pub use auth::{
    auth_layers, query_mta_sts, stop_layer, AuthCache, AuthCacheStats, AuthOutcome, DeploymentMix,
    DmarcDisposition, MtaStsMode, StopCounts, StopLayer,
};
pub use compile::{
    compile_policy, compile_policy_shared, Compilability, CompileConfig, CompiledPolicy,
    CompilerStats, Residue, ResidueKind, SubtreeMemo, SubtreeMemoStats,
};
pub use context::{EvalContext, SpfResult};
pub use dmarc::{
    is_dmarc_record, organizational_domain, parse_dmarc, query_dmarc, Alignment, DmarcError,
    DmarcLookup, DmarcPolicy, DmarcRecord,
};
pub use eval::{
    check_host, check_host_cached, check_host_root, BudgetKey, EvalPolicy, EvalProblem, Evaluation,
    FetchedRecord, LookupAccounting, RecordNotFoundCause, RootRecord, SubtreeVerdict, VerdictCache,
    VerdictKey,
};
pub use header::received_spf_header;
pub use macroexpand::{expand, expand_domain, ExpandError};
pub use parse::{is_spf_record, parse, parse_lenient, ParseWarning, ParsedRecord, SyntaxError};
