//! `check_host()` — the RFC 7208 §4 evaluation algorithm.
//!
//! This is what a receiving MTA runs when an email arrives, and what the
//! paper's case study exercises end-to-end: given a connecting IP and a
//! sender domain, walk the domain's SPF record (recursing through
//! `include`/`redirect`), enforce the 10-lookup and 2-void-lookup limits
//! of §4.6.4, and produce one of the seven [`SpfResult`]s.
//!
//! Two details the paper leans on are modelled explicitly:
//!
//! * **Lookup accounting.** RFC 7208 is "not totally clear" (§5.3 of the
//!   paper) on whether lookups inside an included record count against the
//!   caller's budget. `checkdmarc` — and therefore the study — counts them
//!   *globally during recursion*; [`LookupAccounting::GlobalRecursive`]
//!   reproduces that, and [`LookupAccounting::PerRecord`] provides the
//!   lenient alternative as an ablation knob (DESIGN.md §5).
//! * **Early termination.** Exceeding the limit only matters if evaluation
//!   is still running; "the SPF check can be successful if a result is
//!   returned within the first 10 lookups" — which is exactly how this
//!   evaluator behaves, and why the *analyzer* (which explores the whole
//!   record) reports more lookup-limit errors than live mail flow sees.

use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use spf_dns::{DnsError, RecordData, RecordType, Resolver, RrSet};
use spf_types::{
    CacheKey, DomainHasher, DomainName, DualCidr, MacroString, Mechanism, Modifier, Qualifier,
    SpfRecord, Term, MAX_DNS_LOOKUPS, MAX_VOID_LOOKUPS,
};

use crate::context::{EvalContext, SpfResult};
use crate::family::Family;
use crate::macroexpand::expand_domain;
use crate::parse::{self, SyntaxError};

/// How DNS-querying terms are counted against the §4.6.4 limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LookupAccounting {
    /// One global budget across the whole recursive evaluation — the
    /// `checkdmarc` reading used by the paper.
    GlobalRecursive,
    /// Each record gets its own budget (lenient reading some MTAs use;
    /// ablation only).
    PerRecord,
}

/// Evaluation limits and switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalPolicy {
    /// Maximum DNS-querying terms (RFC: 10).
    pub max_dns_lookups: usize,
    /// Maximum void lookups (RFC: 2).
    pub max_void_lookups: usize,
    /// Recursion depth guard (beyond loop detection; RFC has no number,
    /// real resolvers cap around 10–20).
    pub max_recursion_depth: usize,
    /// Lookup accounting strategy.
    pub accounting: LookupAccounting,
    /// Whether to fetch and expand the `exp=` explanation on `fail`.
    pub fetch_explanation: bool,
}

impl Default for EvalPolicy {
    fn default() -> Self {
        EvalPolicy {
            max_dns_lookups: MAX_DNS_LOOKUPS,
            max_void_lookups: MAX_VOID_LOOKUPS,
            max_recursion_depth: 20,
            accounting: LookupAccounting::GlobalRecursive,
            fetch_explanation: false,
        }
    }
}

/// Why an evaluation ended in `permerror`/`temperror` (or `none`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalProblem {
    /// The initial domain has no SPF record.
    NoRecord,
    /// More than one `v=spf1` TXT record at one name.
    MultipleRecords {
        /// The offending domain.
        domain: DomainName,
        /// How many SPF records were found.
        count: usize,
    },
    /// A record failed to parse.
    Syntax {
        /// The offending domain.
        domain: DomainName,
        /// The first syntax error.
        error: SyntaxError,
    },
    /// The 10-lookup limit was exceeded.
    TooManyLookups {
        /// Lookups counted when the limit tripped.
        used: usize,
    },
    /// The 2-void-lookup limit was exceeded.
    TooManyVoidLookups {
        /// Void lookups counted when the limit tripped.
        used: usize,
    },
    /// An `include` chain revisited a domain.
    IncludeLoop {
        /// The revisited domain.
        domain: DomainName,
    },
    /// A `redirect` chain revisited a domain.
    RedirectLoop {
        /// The revisited domain.
        domain: DomainName,
    },
    /// An included/redirected domain had no usable SPF record
    /// ("record not found" in the paper's taxonomy).
    RecordNotFound {
        /// The domain whose record was missing.
        domain: DomainName,
        /// What the DNS said.
        cause: RecordNotFoundCause,
    },
    /// A transient DNS error interrupted evaluation.
    DnsTransient {
        /// The domain being queried.
        domain: DomainName,
    },
    /// A macro expansion produced an invalid domain.
    BadExpansion {
        /// The text that failed.
        text: String,
    },
    /// Recursion exceeded the policy depth guard.
    TooDeep,
    /// An internal MX mechanism listed more than 10 exchanges.
    TooManyMxRecords {
        /// The domain whose MX RRset was oversized.
        domain: DomainName,
    },
}

/// Sub-causes of a missing record, matching Figure 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordNotFoundCause {
    /// The name resolves but publishes no SPF record.
    NoSpfRecord,
    /// The name publishes multiple SPF records.
    MultipleSpfRecords,
    /// NXDOMAIN.
    DomainNotFound,
    /// NOERROR with an empty answer section.
    EmptyResult,
    /// The query timed out (a `temperror`, tracked for Figure 3).
    DnsTimeout,
}

/// The full outcome of a `check_host()` run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The RFC 7208 result.
    pub result: SpfResult,
    /// DNS-querying terms consumed (global across recursion).
    pub dns_lookups: usize,
    /// Void lookups observed.
    pub void_lookups: usize,
    /// The textual form of the directive that matched, if any — shared
    /// with the fetched record that formatted it.
    pub matched_directive: Option<Arc<str>>,
    /// The domain whose record produced the final result (differs from the
    /// queried domain after redirects).
    pub final_domain: DomainName,
    /// Failure detail for `temperror`/`permerror`/`none`.
    pub problem: Option<EvalProblem>,
    /// The expanded `exp=` text, when the policy requested it and the
    /// result is `fail`.
    pub explanation: Option<String>,
}

/// Remaining evaluation budget at include/redirect subtree entry — part
/// of the verdict-cache key (see [`VerdictCache`]).
///
/// A subtree's behaviour under RFC 7208's limits depends on how much
/// budget the caller has already consumed: the same include chain can
/// complete from a fresh record and trip `permerror` nine lookups into
/// another, so a memoized subtree verdict is only replayable when the
/// remaining budgets match the ones it was recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BudgetKey {
    /// The accounting mode in force — part of the key because the same
    /// remaining budget means different things under global and
    /// per-record accounting.
    pub accounting: LookupAccounting,
    /// Remaining DNS-querying-term budget. Under
    /// [`LookupAccounting::PerRecord`] every record starts a fresh local
    /// counter, so the entry state is always the full
    /// [`EvalPolicy::max_dns_lookups`] — which is what this field holds
    /// there, keying verdicts to the policy's limit instead of the
    /// caller's consumption.
    pub lookups_left: usize,
    /// Remaining void-lookup budget (void accounting is global in both
    /// modes).
    pub voids_left: usize,
    /// Remaining recursion depth before [`EvalPolicy::max_recursion_depth`]
    /// trips.
    pub depth_left: usize,
}

/// The `(domain, ip, budget)` key a [`VerdictCache`] memoizes subtree
/// verdicts under (see [`BudgetKey`] for why the budget is part of it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// The include/redirect target (or root) the verdict is for.
    pub domain: DomainName,
    /// The sender address it was evaluated for.
    pub ip: IpAddr,
    /// The budget left at subtree entry.
    pub budget: BudgetKey,
}

impl CacheKey for VerdictKey {
    fn shard_hash(&self) -> u64 {
        // The domain's precomputed FNV and the ip/budget words all flow
        // through DomainHasher: one deterministic mixer for map and
        // stripe placement alike.
        let mut hasher = DomainHasher::default();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// A memoized include/redirect subtree evaluation: everything
/// `check_host()` needs to replay the subtree without touching the
/// resolver, with *byte-identical* observable effects.
///
/// Counter-carrying problems ([`EvalProblem::TooManyLookups`] under
/// global accounting, [`EvalProblem::TooManyVoidLookups`] always) store
/// their `used` values relative to subtree entry; replay re-absolutizes
/// them against the live counters, so a cached trip reports exactly the
/// numbers the uncached walk would have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeVerdict {
    /// How the subtree evaluation ended (entry-relative `used` counters,
    /// see above).
    pub outcome: Result<SpfResult, EvalProblem>,
    /// DNS-querying terms the subtree charged.
    pub lookups: usize,
    /// Void lookups the subtree observed.
    pub void_lookups: usize,
    /// The matched-directive text assigned within the subtree, when one
    /// was (`None` leaves the caller's value untouched on replay).
    pub matched: Option<Arc<str>>,
    /// The final-domain value at subtree exit.
    pub final_domain: DomainName,
    /// Every include/redirect target the subtree tested against the
    /// recursion stack. A verdict is recorded only when none of them hit
    /// the caller's stack, and replayed only under stacks equally
    /// disjoint from them — so loop detection behaves identically on
    /// both paths.
    pub probed: Vec<DomainName>,
}

/// A memo store shared across `check_host()` calls: include/redirect
/// subtree verdicts, and the fetched records they are built from.
///
/// Verdicts are keyed on `(domain, ip, budget)`; the evaluator
/// guarantees a verdict is a pure function of that triple (plus the
/// zone) before offering it:
///
/// * subtrees that expanded session-dependent macros (`%{s}`, `%{l}`,
///   `%{o}`, `%{h}`, …) are never offered — their behaviour depends on
///   the sender identity, which is not in the key;
/// * subtrees whose loop probes touched the caller's recursion stack are
///   never offered, and replay re-checks stack disjointness.
///
/// Records are keyed on the domain alone: the TXT query, the §4.5
/// selection and the parse depend on nothing else, so a new sender
/// address — which never hits the verdict memo — still reads every
/// record of the tree from here. A transient fetch is never offered.
///
/// # Staleness
///
/// Every read returns the entry's `as_of`: the time the zone data it
/// holds was read. A verdict built from memoized entries is as old as
/// the oldest of them, so [`put`](Self::put) receives that time (`None`
/// when everything it read was live), and an expiring memo dates the
/// verdict from it — no verdict is served from zone data older than
/// one TTL. A memo without a clock returns any constant.
///
/// # Scoping
///
/// A cache instance must be scoped to **one resolver (one zone
/// state)** or expire its entries: the key carries the accounting mode
/// and every remaining-budget dimension (so differing policies key
/// apart), but *not* the zone contents — entries are memoized DNS
/// answers, so sharing a cache across resolvers, or across a zone
/// mutation such as the Table 2 remediation rescan, replays stale data.
/// The matrix engine builds a fresh cache per run for exactly this
/// reason.
///
/// The spoofability matrix engine (`spf-crawler`) implements this over
/// the keep-first [`spf_types::ShardedCache`] so include-heavy
/// populations evaluate each shared provider subtree once per vantage
/// instead of once per customer.
pub trait VerdictCache: Send + Sync {
    /// Look up the verdict for `(domain, ip, budget)`, with its `as_of`.
    fn get(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
    ) -> Option<(Arc<SubtreeVerdict>, Duration)>;
    /// Store a verdict for `(domain, ip, budget)`, built from zone data
    /// read at or after `as_of` (`None`: all of it read live).
    fn put(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
        verdict: Arc<SubtreeVerdict>,
        as_of: Option<Duration>,
    );
    /// Look up `domain`'s fetched record, with its `as_of`.
    fn record(&self, domain: &DomainName) -> Option<(Arc<FetchedRecord>, Duration)>;
    /// Store `domain`'s record, fetched live just now. Never offered a
    /// transient fetch.
    fn put_record(&self, domain: &DomainName, record: Arc<FetchedRecord>);
}

/// Evaluate `check_host(ip, domain, sender)` against `resolver`.
pub fn check_host<R: Resolver + ?Sized>(
    resolver: &R,
    ctx: &EvalContext,
    domain: &DomainName,
    policy: &EvalPolicy,
) -> Evaluation {
    check_host_root(
        resolver,
        ctx,
        &RootRecord::fetch(resolver, domain),
        policy,
        None,
    )
}

/// [`check_host`] through a shared memo: every record of the tree —
/// the root's included — is read from `cache` when it holds one, and
/// include/redirect subtrees already evaluated for this `(domain, ip,
/// remaining budget)` are replayed from it instead of re-walked.
/// Results — verdicts, lookup and void charges, matched directives,
/// problems — are byte-identical to the uncached path (asserted by this
/// module's tests and the `tests/auth_matrix_stress.rs` proptests).
pub fn check_host_cached<R: Resolver + ?Sized>(
    resolver: &R,
    ctx: &EvalContext,
    domain: &DomainName,
    policy: &EvalPolicy,
    cache: &dyn VerdictCache,
) -> Evaluation {
    // The root's `as_of` is not needed: the root's own verdict is
    // never memoized.
    let (record, _) = memo_record(cache, resolver, domain);
    check_host_fetched(resolver, ctx, domain, &record, policy, Some(cache))
}

/// `domain`'s record read through `cache`: the memoized one and its
/// `as_of`, or a live fetch — memoized unless it is transient — and
/// `None`.
fn memo_record<R: Resolver + ?Sized>(
    cache: &dyn VerdictCache,
    resolver: &R,
    domain: &DomainName,
) -> (Arc<FetchedRecord>, Option<Duration>) {
    if let Some((record, as_of)) = cache.record(domain) {
        return (record, Some(as_of));
    }
    let record = Arc::new(FetchedRecord::fetch(resolver, domain));
    if !record.is_transient() {
        cache.put_record(domain, Arc::clone(&record));
    }
    (record, None)
}

/// A domain's SPF record as `check_host()` reads it: the TXT query, the
/// RFC 7208 §4.5 selection of the one `v=spf1` string, and its parse —
/// or the reason there is none. None of that depends on the connecting
/// IP, which is what lets [`RootRecord`] and the [`VerdictCache`] record
/// memo reuse it. The void lookup an NXDOMAIN or empty answer incurs is
/// charged by each evaluation that reads it, not here.
///
/// It also holds each term's text, formatted the first time the term
/// matches: every evaluation that reads the record through a memo then
/// shares one `Arc<str>` as its matched directive.
#[derive(Debug)]
pub struct FetchedRecord {
    record: Result<SpfRecord, FetchFailure>,
    /// One slot per term of `record`; empty when there is no record.
    term_texts: Box<[OnceLock<Arc<str>>]>,
}

impl FetchedRecord {
    fn fetch<R: Resolver + ?Sized>(resolver: &R, domain: &DomainName) -> FetchedRecord {
        let record = select_record(resolver.query(domain, RecordType::Txt));
        let terms = record.as_ref().map_or(0, |r| r.terms.len());
        FetchedRecord {
            record,
            term_texts: (0..terms).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Whether the fetch ended in a transient DNS error. Such a record
    /// says nothing about the zone — a retry may answer — so it is never
    /// reused.
    pub fn is_transient(&self) -> bool {
        matches!(self.record, Err(FetchFailure::Transient))
    }
}

/// A domain's root record, fetched once: a caller that asks one domain
/// about many IPs (a spoof-matrix row) fetches it with
/// [`RootRecord::fetch`] and evaluates it per IP with
/// [`check_host_root`]. Every evaluation charges the root's void lookup
/// itself, so each reports exactly what a fresh [`check_host`] would.
#[derive(Debug)]
pub struct RootRecord {
    domain: DomainName,
    fetched: FetchedRecord,
}

impl RootRecord {
    /// Query `domain`'s TXT RRset through `resolver` and select and parse
    /// its SPF record.
    pub fn fetch<R: Resolver + ?Sized>(resolver: &R, domain: &DomainName) -> RootRecord {
        RootRecord {
            domain: domain.clone(),
            fetched: FetchedRecord::fetch(resolver, domain),
        }
    }

    /// [`FetchedRecord::is_transient`]: a caller evaluating several IPs
    /// re-fetches such a root for each instead of reusing it.
    pub fn is_transient(&self) -> bool {
        self.fetched.is_transient()
    }
}

/// Evaluate a fetched root for `ctx.ip`: the rest of [`check_host`] (with
/// `cache`, of [`check_host_cached`]) after the root's TXT answer is in
/// hand. [`check_host`] is exactly [`RootRecord::fetch`] followed by
/// this call, so there is one evaluator.
pub fn check_host_root<R: Resolver + ?Sized>(
    resolver: &R,
    ctx: &EvalContext,
    root: &RootRecord,
    policy: &EvalPolicy,
    cache: Option<&dyn VerdictCache>,
) -> Evaluation {
    check_host_fetched(resolver, ctx, &root.domain, &root.fetched, policy, cache)
}

fn check_host_fetched<R: Resolver + ?Sized>(
    resolver: &R,
    ctx: &EvalContext,
    domain: &DomainName,
    fetched: &FetchedRecord,
    policy: &EvalPolicy,
    cache: Option<&dyn VerdictCache>,
) -> Evaluation {
    let mut state = EvalState {
        resolver,
        ctx,
        policy,
        lookups: 0,
        void_lookups: 0,
        stack: Vec::new(),
        matched: None,
        final_domain: domain.clone(),
        explanation_source: None,
        cache,
        as_of: None,
        probed: Vec::new(),
        ctx_macro_uses: 0,
        matched_sets: 0,
    };
    let outcome = state.eval_fetched(domain, fetched, 0, true);
    let (result, problem) = match outcome {
        Ok(r) => (r, None),
        Err(p) => (problem_result(&p), Some(p)),
    };
    let explanation = if result == SpfResult::Fail && policy.fetch_explanation {
        state.fetch_explanation()
    } else {
        None
    };
    Evaluation {
        result,
        dns_lookups: state.lookups,
        void_lookups: state.void_lookups,
        matched_directive: state.matched,
        final_domain: state.final_domain,
        problem,
        explanation,
    }
}

/// Which result a problem maps to.
pub(crate) fn problem_result(p: &EvalProblem) -> SpfResult {
    match p {
        EvalProblem::NoRecord => SpfResult::None,
        EvalProblem::DnsTransient { .. } => SpfResult::TempError,
        EvalProblem::RecordNotFound {
            cause: RecordNotFoundCause::DnsTimeout,
            ..
        } => SpfResult::TempError,
        _ => SpfResult::PermError,
    }
}

struct EvalState<'a, R: ?Sized> {
    resolver: &'a R,
    ctx: &'a EvalContext,
    policy: &'a EvalPolicy,
    lookups: usize,
    void_lookups: usize,
    stack: Vec<DomainName>,
    matched: Option<Arc<str>>,
    final_domain: DomainName,
    explanation_source: Option<(DomainName, MacroString)>,
    /// Shared subtree-verdict and record memo, when evaluating through
    /// [`check_host_cached`].
    cache: Option<&'a dyn VerdictCache>,
    /// The oldest `as_of` among the memo entries the current frame read
    /// — records and replayed verdicts, its subframes' included — or
    /// `None` while all it read was live. `eval_domain` saves and
    /// restores it around each subframe, so a stored verdict carries
    /// the age of its own inputs.
    as_of: Option<Duration>,
    /// Every include/redirect target tested against `stack` so far
    /// (append-only; frames slice it by start index to learn what *they*
    /// probed, nested frames included).
    probed: Vec<Probe>,
    /// How many times a session-dependent macro string was expanded; a
    /// frame whose evaluation bumped this is not a pure function of
    /// `(domain, ip, budget)` and is never cached.
    ctx_macro_uses: usize,
    /// How many times `matched` was *assigned* (not merely left equal).
    /// Frames compare before/after to learn whether their subtree set a
    /// matched directive — value comparison is not enough, because a
    /// subtree can assign the same text the caller already had, and the
    /// resulting verdict must still assign it on replay under callers
    /// holding a different value.
    matched_sets: usize,
}

/// An entry of [`EvalState::probed`]: one target, or everything a
/// replayed subtree probed, held by reference until a verdict that
/// covers it is recorded.
enum Probe {
    Target(DomainName),
    Replayed(Arc<SubtreeVerdict>),
}

impl Probe {
    fn names(&self) -> &[DomainName] {
        match self {
            Probe::Target(name) => std::slice::from_ref(name),
            Probe::Replayed(verdict) => &verdict.probed,
        }
    }
}

impl<'a, R: Resolver + ?Sized> EvalState<'a, R> {
    /// Fold a memo read's `as_of` into the current frame's.
    fn read_as_of(&mut self, as_of: Duration) {
        self.as_of = Some(self.as_of.map_or(as_of, |oldest| oldest.min(as_of)));
    }

    fn count_void(&mut self) {
        self.void_lookups += 1;
    }

    fn check_void_budget(&self) -> Result<(), EvalProblem> {
        if self.void_lookups > self.policy.max_void_lookups {
            Err(EvalProblem::TooManyVoidLookups {
                used: self.void_lookups,
            })
        } else {
            Ok(())
        }
    }

    /// Charge one DNS-querying term against the budget. The reported
    /// `used` is the counter that actually tripped: the global one under
    /// [`LookupAccounting::GlobalRecursive`], the current record's local
    /// one under [`LookupAccounting::PerRecord`] (reporting the global
    /// counter there would overstate how many lookups were charged
    /// against the budget that failed).
    fn charge_lookup(&mut self, local_counter: &mut usize) -> Result<(), EvalProblem> {
        self.lookups += 1;
        *local_counter += 1;
        let used = match self.policy.accounting {
            LookupAccounting::GlobalRecursive => self.lookups,
            LookupAccounting::PerRecord => *local_counter,
        };
        if used > self.policy.max_dns_lookups {
            Err(EvalProblem::TooManyLookups { used })
        } else {
            Ok(())
        }
    }

    /// The budget state a subtree entered with, as a cache-key component.
    fn budget_key(&self, depth: usize) -> BudgetKey {
        BudgetKey {
            accounting: self.policy.accounting,
            lookups_left: match self.policy.accounting {
                LookupAccounting::GlobalRecursive => {
                    self.policy.max_dns_lookups.saturating_sub(self.lookups)
                }
                LookupAccounting::PerRecord => self.policy.max_dns_lookups,
            },
            voids_left: self
                .policy
                .max_void_lookups
                .saturating_sub(self.void_lookups),
            depth_left: self.policy.max_recursion_depth.saturating_sub(depth),
        }
    }

    /// Convert an absolute problem to its subtree-entry-relative form for
    /// storage in a [`SubtreeVerdict`] (see the struct docs).
    fn relativize(
        &self,
        problem: EvalProblem,
        entry_lookups: usize,
        entry_voids: usize,
    ) -> EvalProblem {
        match problem {
            EvalProblem::TooManyLookups { used }
                if self.policy.accounting == LookupAccounting::GlobalRecursive =>
            {
                EvalProblem::TooManyLookups {
                    used: used - entry_lookups,
                }
            }
            EvalProblem::TooManyVoidLookups { used } => EvalProblem::TooManyVoidLookups {
                used: used - entry_voids,
            },
            other => other,
        }
    }

    /// Replay a memoized subtree: apply its counter deltas and state
    /// effects, then return its outcome with trip counters re-absolutized
    /// against the live budget.
    fn replay(&mut self, verdict: Arc<SubtreeVerdict>) -> Result<SpfResult, EvalProblem> {
        let entry_lookups = self.lookups;
        let entry_voids = self.void_lookups;
        self.lookups += verdict.lookups;
        self.void_lookups += verdict.void_lookups;
        if let Some(matched) = &verdict.matched {
            self.matched = Some(Arc::clone(matched));
            // Replay counts as an assignment: an enclosing frame being
            // recorded must see this subtree as one that set `matched`.
            self.matched_sets += 1;
        }
        self.final_domain = verdict.final_domain.clone();
        let outcome = verdict.outcome.clone();
        if !verdict.probed.is_empty() {
            self.probed.push(Probe::Replayed(verdict));
        }
        match outcome {
            Ok(result) => Ok(result),
            Err(problem) => Err(match problem {
                EvalProblem::TooManyLookups { used }
                    if self.policy.accounting == LookupAccounting::GlobalRecursive =>
                {
                    EvalProblem::TooManyLookups {
                        used: used + entry_lookups,
                    }
                }
                EvalProblem::TooManyVoidLookups { used } => EvalProblem::TooManyVoidLookups {
                    used: used + entry_voids,
                },
                other => other,
            }),
        }
    }

    /// Evaluate an include/redirect target: the memoizable unit (the
    /// initial domain's evaluation *is* the result the caller asked for,
    /// and starts in [`check_host_root`]).
    fn eval_domain(&mut self, domain: &DomainName, depth: usize) -> Result<SpfResult, EvalProblem> {
        if depth > self.policy.max_recursion_depth {
            return Err(EvalProblem::TooDeep);
        }
        let Some(cache) = self.cache else {
            return self.eval_domain_fresh(domain, depth);
        };
        let budget = self.budget_key(depth);
        if let Some((verdict, as_of)) = cache.get(domain, self.ctx.ip, budget) {
            // Sound only when loop detection would behave identically:
            // none of the subtree's probes may hit the current stack.
            if verdict.probed.iter().all(|d| !self.stack.contains(d)) {
                self.read_as_of(as_of);
                return self.replay(verdict);
            }
        }
        let caller_as_of = self.as_of.take();
        let entry_lookups = self.lookups;
        let entry_voids = self.void_lookups;
        let matched_sets_before = self.matched_sets;
        let probed_start = self.probed.len();
        let ctx_uses_before = self.ctx_macro_uses;
        let outcome = self.eval_domain_fresh(domain, depth);
        let fresh_probes = &self.probed[probed_start..];
        // Cache only pure-in-(domain, ip, budget) subtrees: no
        // session-macro expansions, no loop probe touching the caller's
        // stack (internal loops are fine — they re-form on every replay).
        let cacheable = self.ctx_macro_uses == ctx_uses_before
            && fresh_probes
                .iter()
                .flat_map(Probe::names)
                .all(|d| !self.stack.contains(d));
        if cacheable {
            let outcome_rel = match &outcome {
                Ok(result) => Ok(*result),
                Err(problem) => Err(self.relativize(problem.clone(), entry_lookups, entry_voids)),
            };
            let verdict = SubtreeVerdict {
                outcome: outcome_rel,
                lookups: self.lookups - entry_lookups,
                void_lookups: self.void_lookups - entry_voids,
                matched: if self.matched_sets != matched_sets_before {
                    self.matched.clone()
                } else {
                    None
                },
                final_domain: self.final_domain.clone(),
                probed: fresh_probes
                    .iter()
                    .flat_map(Probe::names)
                    .cloned()
                    .collect(),
            };
            cache.put(domain, self.ctx.ip, budget, Arc::new(verdict), self.as_of);
        }
        // The caller's inputs now include this subtree's.
        if let Some(as_of) = caller_as_of {
            self.read_as_of(as_of);
        }
        outcome
    }

    /// Fetch and evaluate an include/redirect target — its record read
    /// through the memo when there is one.
    fn eval_domain_fresh(
        &mut self,
        domain: &DomainName,
        depth: usize,
    ) -> Result<SpfResult, EvalProblem> {
        let Some(cache) = self.cache else {
            let fetched = FetchedRecord::fetch(self.resolver, domain);
            return self.eval_fetched(domain, &fetched, depth, false);
        };
        let (fetched, as_of) = memo_record(cache, self.resolver, domain);
        if let Some(as_of) = as_of {
            self.read_as_of(as_of);
        }
        self.eval_fetched(domain, &fetched, depth, false)
    }

    /// Evaluate a fetched record — the root (`initial`) or an
    /// include/redirect target. The one place a fetch failure maps to
    /// its problem: the initial domain reports a missing record as
    /// [`EvalProblem::NoRecord`], a target as
    /// [`EvalProblem::RecordNotFound`] with its cause.
    fn eval_fetched(
        &mut self,
        domain: &DomainName,
        fetched: &FetchedRecord,
        depth: usize,
        initial: bool,
    ) -> Result<SpfResult, EvalProblem> {
        self.final_domain = domain.clone();
        let cause = match &fetched.record {
            Ok(record) => {
                self.stack.push(domain.clone());
                let result = self.eval_record(record, &fetched.term_texts, domain, depth);
                self.stack.pop();
                return result;
            }
            Err(FetchFailure::Transient) => {
                return Err(EvalProblem::DnsTransient {
                    domain: domain.clone(),
                })
            }
            Err(FetchFailure::Multiple(count)) => {
                return Err(EvalProblem::MultipleRecords {
                    domain: domain.clone(),
                    count: *count,
                })
            }
            Err(FetchFailure::Syntax(error)) => {
                return Err(EvalProblem::Syntax {
                    domain: domain.clone(),
                    error: error.clone(),
                })
            }
            Err(FetchFailure::NxDomain) => {
                self.count_void();
                self.check_void_budget()?;
                RecordNotFoundCause::DomainNotFound
            }
            Err(FetchFailure::EmptyAnswer) => {
                self.count_void();
                self.check_void_budget()?;
                RecordNotFoundCause::EmptyResult
            }
            Err(FetchFailure::NoSpfRecord) => RecordNotFoundCause::NoSpfRecord,
        };
        Err(if initial {
            EvalProblem::NoRecord
        } else {
            EvalProblem::RecordNotFound {
                domain: domain.clone(),
                cause,
            }
        })
    }

    fn eval_record(
        &mut self,
        record: &SpfRecord,
        term_texts: &[OnceLock<Arc<str>>],
        domain: &DomainName,
        depth: usize,
    ) -> Result<SpfResult, EvalProblem> {
        // Remember exp= for explanation fetching (original record only).
        if depth == 0 && self.explanation_source.is_none() {
            for m in record.modifiers() {
                if let Modifier::Exp { domain: exp } = m {
                    self.explanation_source = Some((domain.clone(), exp.clone()));
                }
            }
        }

        let mut local_counter = 0usize;
        let mut saw_all = false;
        for (term, text) in record.terms.iter().zip(term_texts) {
            match term {
                Term::Directive(directive) => {
                    if matches!(directive.mechanism, Mechanism::All) {
                        saw_all = true;
                    }
                    if directive.mechanism.counts_as_dns_lookup() {
                        self.charge_lookup(&mut local_counter)?;
                    }
                    let matched = self.matches(&directive.mechanism, domain, depth)?;
                    self.check_void_budget()?;
                    if matched {
                        let text = text.get_or_init(|| Arc::from(directive.to_string()));
                        self.matched = Some(Arc::clone(text));
                        self.matched_sets += 1;
                        self.final_domain = domain.clone();
                        return Ok(qualifier_result(directive.qualifier));
                    }
                }
                Term::Modifier(_) => {}
            }
        }

        // No mechanism matched: take redirect if present (ignored when an
        // `all` directive exists anywhere in the record, RFC 7208 §6.1).
        if !saw_all {
            if let Some(target) = record.redirect() {
                self.charge_lookup(&mut local_counter)?;
                let target_domain = self.expand_target(target, domain)?;
                self.probed.push(Probe::Target(target_domain.clone()));
                if self.stack.contains(&target_domain) {
                    return Err(EvalProblem::RedirectLoop {
                        domain: target_domain,
                    });
                }
                return match self.eval_domain(&target_domain, depth + 1) {
                    // RFC 7208 §6.1: if the redirect target has no record,
                    // the result is permerror.
                    Err(EvalProblem::NoRecord) => Err(EvalProblem::RecordNotFound {
                        domain: target_domain,
                        cause: RecordNotFoundCause::NoSpfRecord,
                    }),
                    other => other,
                };
            }
        }
        Ok(SpfResult::Neutral)
    }

    fn matches(
        &mut self,
        mechanism: &Mechanism,
        domain: &DomainName,
        depth: usize,
    ) -> Result<bool, EvalProblem> {
        match mechanism {
            Mechanism::All => Ok(true),
            Mechanism::Ip4 { cidr } => Ok(match self.ctx.ip {
                IpAddr::V4(v4) => cidr.contains(v4),
                IpAddr::V6(_) => false,
            }),
            Mechanism::Ip6 { cidr } => Ok(match self.ctx.ip {
                IpAddr::V6(v6) => cidr.contains(v6),
                IpAddr::V4(_) => false,
            }),
            Mechanism::A {
                domain: target,
                cidr,
            } => {
                let name = self.target_domain(target.as_ref(), domain)?;
                self.address_match(&name, cidr)
            }
            Mechanism::Mx {
                domain: target,
                cidr,
            } => {
                let name = self.target_domain(target.as_ref(), domain)?;
                let exchanges = match self.resolver.query(&name, RecordType::Mx) {
                    Ok(rrs) => {
                        if rrs.is_empty() {
                            self.count_void();
                        }
                        rrs
                    }
                    Err(DnsError::NxDomain) => {
                        self.count_void();
                        RrSet::EMPTY
                    }
                    Err(e) if e.is_transient() => {
                        return Err(EvalProblem::DnsTransient { domain: name })
                    }
                    Err(_) => RrSet::EMPTY,
                };
                let mut names: Vec<DomainName> = exchanges
                    .iter()
                    .filter_map(|rr| match &rr.data {
                        RecordData::Mx { exchange, .. } => Some(exchange.clone()),
                        _ => None,
                    })
                    .collect();
                // RFC 7208 §4.6.4: evaluating an MX mechanism across more
                // than 10 exchange names is a permerror.
                if names.len() > 10 {
                    return Err(EvalProblem::TooManyMxRecords { domain: name });
                }
                names.dedup();
                for exchange in names {
                    if self.address_match(&exchange, cidr)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Mechanism::Ptr { domain: target } => {
                let scope = self.target_domain(target.as_ref(), domain)?;
                self.ptr_match(&scope)
            }
            Mechanism::Exists { domain: target } => {
                let name = self.expand_target(target, domain)?;
                // `exists` always queries A, even for IPv6 senders.
                match self.resolver.query(&name, RecordType::A) {
                    Ok(rrs) if !rrs.is_empty() => Ok(true),
                    Ok(_) => {
                        self.count_void();
                        Ok(false)
                    }
                    Err(DnsError::NxDomain) => {
                        self.count_void();
                        Ok(false)
                    }
                    Err(e) if e.is_transient() => Err(EvalProblem::DnsTransient { domain: name }),
                    Err(_) => Ok(false),
                }
            }
            Mechanism::Include { domain: target } => {
                let target_domain = self.expand_target(target, domain)?;
                self.probed.push(Probe::Target(target_domain.clone()));
                if self.stack.contains(&target_domain) {
                    return Err(EvalProblem::IncludeLoop {
                        domain: target_domain,
                    });
                }
                match self.eval_domain(&target_domain, depth + 1) {
                    // RFC 7208 §5.2 result table.
                    Ok(SpfResult::Pass) => Ok(true),
                    Ok(SpfResult::Fail | SpfResult::SoftFail | SpfResult::Neutral) => Ok(false),
                    Ok(SpfResult::TempError) => Err(EvalProblem::DnsTransient {
                        domain: target_domain,
                    }),
                    Ok(SpfResult::None | SpfResult::PermError) | Err(EvalProblem::NoRecord) => {
                        Err(EvalProblem::RecordNotFound {
                            domain: target_domain,
                            cause: RecordNotFoundCause::NoSpfRecord,
                        })
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Resolve the effective target of a/mx/ptr: explicit (macro-expanded)
    /// argument or the current domain.
    fn target_domain(
        &mut self,
        target: Option<&MacroString>,
        domain: &DomainName,
    ) -> Result<DomainName, EvalProblem> {
        match target {
            None => Ok(domain.clone()),
            Some(ms) => self.expand_target(ms, domain),
        }
    }

    /// Macro-expand a mechanism/modifier target, flagging the evaluation
    /// as session-dependent (and thus uncacheable) when the string uses
    /// sender/HELO-derived macros.
    fn expand_target(
        &mut self,
        ms: &MacroString,
        domain: &DomainName,
    ) -> Result<DomainName, EvalProblem> {
        if ms.uses_session_macros() {
            self.ctx_macro_uses += 1;
        }
        expand_domain(ms, self.ctx, domain, None).map_err(|_| EvalProblem::BadExpansion {
            text: ms.to_string(),
        })
    }

    /// A/AAAA lookup + dual-CIDR match against the sending IP.
    fn address_match(&mut self, name: &DomainName, cidr: &DualCidr) -> Result<bool, EvalProblem> {
        match self.ctx.ip {
            IpAddr::V4(ip) => self.family_address_match(name, cidr, ip),
            IpAddr::V6(ip) => self.family_address_match(name, cidr, ip),
        }
    }

    /// [`Self::address_match`] for a sender `ip` of family `F`.
    fn family_address_match<F: Family>(
        &mut self,
        name: &DomainName,
        cidr: &DualCidr,
        ip: F,
    ) -> Result<bool, EvalProblem> {
        let rrs = match self.resolver.query(name, F::RTYPE) {
            Ok(rrs) => {
                if rrs.is_empty() {
                    self.count_void();
                }
                rrs
            }
            Err(DnsError::NxDomain) => {
                self.count_void();
                return Ok(false);
            }
            Err(e) if e.is_transient() => {
                return Err(EvalProblem::DnsTransient {
                    domain: name.clone(),
                })
            }
            Err(_) => return Ok(false),
        };
        let ip = ip.to_bound();
        Ok(rrs
            .iter()
            .filter_map(|rr| F::record_addr(&rr.data))
            .any(|addr| {
                let (lo, hi) = F::cidr_bounds(&F::network(addr, cidr));
                (lo..=hi).contains(&ip)
            }))
    }

    /// The deprecated `ptr` mechanism (RFC 7208 §5.5): reverse-map the IP,
    /// validate each candidate name forward, match if a validated name is
    /// within `scope`. DNS errors make the mechanism not match (never
    /// temperror), and at most 10 names are inspected.
    fn ptr_match(&mut self, scope: &DomainName) -> Result<bool, EvalProblem> {
        let reverse_name = match self.ctx.ip {
            IpAddr::V4(v4) => {
                let o = v4.octets();
                DomainName::parse(&format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0]))
                    .expect("reverse name valid")
            }
            IpAddr::V6(v6) => {
                let mut nibbles = Vec::with_capacity(32);
                for o in v6.octets().iter().rev() {
                    nibbles.push(format!("{:x}", o & 0xF));
                    nibbles.push(format!("{:x}", o >> 4));
                }
                DomainName::parse(&format!("{}.ip6.arpa", nibbles.join(".")))
                    .expect("reverse name valid")
            }
        };
        let ptrs = match self.resolver.query(&reverse_name, RecordType::Ptr) {
            Ok(rrs) => rrs,
            Err(_) => {
                self.count_void();
                return Ok(false);
            }
        };
        if ptrs.is_empty() {
            self.count_void();
            return Ok(false);
        }
        for rr in ptrs.iter().take(10) {
            let RecordData::Ptr(candidate) = &rr.data else {
                continue;
            };
            let validated = match self.ctx.ip {
                IpAddr::V4(ip) => self.forward_validates(candidate, ip),
                IpAddr::V6(ip) => self.forward_validates(candidate, ip),
            };
            if validated && candidate.is_subdomain_of(scope) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether `candidate`'s A/AAAA answer holds the sender `ip` — the
    /// forward validation of a `ptr` candidate (DNS errors: no).
    fn forward_validates<F: Family>(&self, candidate: &DomainName, ip: F) -> bool {
        self.resolver
            .query(candidate, F::RTYPE)
            .is_ok_and(|rrs| rrs.iter().any(|rr| F::record_addr(&rr.data) == Some(ip)))
    }

    /// Fetch and expand the `exp=` explanation after a `fail`.
    fn fetch_explanation(&mut self) -> Option<String> {
        let (record_domain, exp_spec) = self.explanation_source.clone()?;
        let exp_domain = expand_domain(&exp_spec, self.ctx, &record_domain, None).ok()?;
        let answers = self.resolver.query(&exp_domain, RecordType::Txt).ok()?;
        let text = answers.iter().find_map(|rr| match &rr.data {
            RecordData::Txt(t) => Some(t.joined()),
            _ => None,
        })?;
        Some(crate::macroexpand::expand_explain_text(
            &text,
            self.ctx,
            &record_domain,
        ))
    }
}

/// Select the SPF record from a TXT query's outcome per RFC 7208 §4.5:
/// join each string, keep the `v=spf1` ones, and parse the one there
/// must be. The one selection the evaluator and the compiler share;
/// each charges the void lookup an NXDOMAIN or empty answer incurs
/// itself.
pub(crate) fn select_record(answer: Result<RrSet, DnsError>) -> Result<SpfRecord, FetchFailure> {
    let answers = match answer {
        Ok(a) => a,
        Err(DnsError::NxDomain) => return Err(FetchFailure::NxDomain),
        Err(_) => return Err(FetchFailure::Transient),
    };
    let mut spf_texts = answers.iter().filter_map(|rr| match &rr.data {
        RecordData::Txt(t) => Some(t.text()).filter(|text| parse::is_spf_record(text)),
        _ => None,
    });
    match (spf_texts.next(), spf_texts.count()) {
        (None, _) if answers.is_empty() => Err(FetchFailure::EmptyAnswer),
        (None, _) => Err(FetchFailure::NoSpfRecord),
        (Some(text), 0) => parse::parse(&text).map_err(FetchFailure::Syntax),
        (Some(_), more) => Err(FetchFailure::Multiple(more + 1)),
    }
}

/// Why [`select_record`] found no record to evaluate. `Transient` is a
/// timeout, SERVFAIL or refusal: a `temperror`, and never memoized.
#[derive(Debug, Clone)]
pub(crate) enum FetchFailure {
    Transient,
    NxDomain,
    EmptyAnswer,
    NoSpfRecord,
    Multiple(usize),
    Syntax(SyntaxError),
}

pub(crate) fn qualifier_result(q: Qualifier) -> SpfResult {
    match q {
        Qualifier::Pass => SpfResult::Pass,
        Qualifier::Fail => SpfResult::Fail,
        Qualifier::SoftFail => SpfResult::SoftFail,
        Qualifier::Neutral => SpfResult::Neutral,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{RecordData, ResourceRecord, ZoneResolver, ZoneStore};
    use spf_testkit::{add_reverse_v4, dom};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn ctx(ip: &str) -> EvalContext {
        EvalContext::mail_from(ip.parse().unwrap(), "alice", dom("example.com"))
    }

    fn eval(store: &Arc<ZoneStore>, ip: &str, domain: &str) -> Evaluation {
        let resolver = ZoneResolver::new(Arc::clone(store));
        check_host(&resolver, &ctx(ip), &dom(domain), &EvalPolicy::default())
    }

    fn store() -> Arc<ZoneStore> {
        Arc::new(ZoneStore::new())
    }

    #[test]
    fn paper_example_record() {
        // v=spf1 +mx a:puffin.example.com/28 -all  (§2.1 of the paper)
        let s = store();
        s.add_txt(
            &dom("example.com"),
            "v=spf1 +mx a:puffin.example.com/28 -all",
        );
        s.add_mx(&dom("example.com"), 10, &dom("mail.example.com"));
        s.add_a(&dom("mail.example.com"), Ipv4Addr::new(192, 0, 2, 1));
        s.add_a(&dom("puffin.example.com"), Ipv4Addr::new(203, 0, 113, 64));

        // MX host passes.
        assert_eq!(eval(&s, "192.0.2.1", "example.com").result, SpfResult::Pass);
        // Anything in puffin's /28 passes (203.0.113.64/28 covers .64-.79).
        assert_eq!(
            eval(&s, "203.0.113.79", "example.com").result,
            SpfResult::Pass
        );
        // Outside the /28 fails.
        assert_eq!(
            eval(&s, "203.0.113.80", "example.com").result,
            SpfResult::Fail
        );
        assert_eq!(
            eval(&s, "198.51.100.99", "example.com").result,
            SpfResult::Fail
        );
    }

    #[test]
    fn no_record_gives_none() {
        let s = store();
        s.add_a(&dom("nospf.example"), Ipv4Addr::new(1, 2, 3, 4));
        let e = eval(&s, "1.2.3.4", "nospf.example");
        assert_eq!(e.result, SpfResult::None);
        assert_eq!(e.problem, Some(EvalProblem::NoRecord));
    }

    #[test]
    fn nxdomain_gives_none() {
        let s = store();
        let e = eval(&s, "1.2.3.4", "missing.example");
        assert_eq!(e.result, SpfResult::None);
    }

    #[test]
    fn default_result_is_neutral_not_fail() {
        // The paper's §2.1 warning: no matching mechanism, no all ⇒ neutral.
        let s = store();
        s.add_txt(&dom("lax.example"), "v=spf1 ip4:10.0.0.0/8");
        let e = eval(&s, "192.0.2.55", "lax.example");
        assert_eq!(e.result, SpfResult::Neutral);
        assert_eq!(e.problem, None);
    }

    #[test]
    fn implicit_pass_qualifier() {
        let s = store();
        s.add_txt(&dom("d.example"), "v=spf1 ip4:192.0.2.0/24 -all");
        let e = eval(&s, "192.0.2.200", "d.example");
        assert_eq!(e.result, SpfResult::Pass);
        assert_eq!(e.matched_directive.as_deref(), Some("ip4:192.0.2.0/24"));
    }

    #[test]
    fn all_qualifiers() {
        let cases = [
            ("v=spf1 -all", SpfResult::Fail),
            ("v=spf1 ~all", SpfResult::SoftFail),
            ("v=spf1 ?all", SpfResult::Neutral),
            ("v=spf1 +all", SpfResult::Pass),
            ("v=spf1 all", SpfResult::Pass),
        ];
        for (record, expected) in cases {
            let s = store();
            s.add_txt(&dom("q.example"), record);
            assert_eq!(
                eval(&s, "198.51.100.1", "q.example").result,
                expected,
                "{record}"
            );
        }
    }

    #[test]
    fn include_pass_matches() {
        let s = store();
        s.add_txt(
            &dom("customer.example"),
            "v=spf1 include:_spf.provider.example -all",
        );
        s.add_txt(
            &dom("_spf.provider.example"),
            "v=spf1 ip4:198.51.100.0/24 -all",
        );
        assert_eq!(
            eval(&s, "198.51.100.42", "customer.example").result,
            SpfResult::Pass
        );
        assert_eq!(
            eval(&s, "203.0.113.1", "customer.example").result,
            SpfResult::Fail
        );
    }

    #[test]
    fn include_fail_does_not_deny() {
        // §2.1: "it is not possible to deny any or all IP addresses with
        // the include mechanism" — an included -all does NOT fail the host.
        let s = store();
        s.add_txt(
            &dom("customer.example"),
            "v=spf1 include:deny.example ip4:203.0.113.5 -all",
        );
        s.add_txt(&dom("deny.example"), "v=spf1 -all");
        assert_eq!(
            eval(&s, "203.0.113.5", "customer.example").result,
            SpfResult::Pass
        );
    }

    #[test]
    fn include_missing_record_is_permerror() {
        let s = store();
        s.add_txt(&dom("broken.example"), "v=spf1 include:gone.example -all");
        let e = eval(&s, "198.51.100.1", "broken.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(
            e.problem,
            Some(EvalProblem::RecordNotFound { .. })
        ));
    }

    #[test]
    fn include_loop_detected() {
        let s = store();
        s.add_txt(&dom("a.example"), "v=spf1 include:b.example -all");
        s.add_txt(&dom("b.example"), "v=spf1 include:a.example -all");
        let e = eval(&s, "198.51.100.1", "a.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(e.problem, Some(EvalProblem::IncludeLoop { .. })));
    }

    #[test]
    fn self_include_loop_detected() {
        // 71.6 % of include loops are direct self-inclusion (§5.3).
        let s = store();
        s.add_txt(&dom("selfie.example"), "v=spf1 include:selfie.example -all");
        let e = eval(&s, "198.51.100.1", "selfie.example");
        assert!(
            matches!(e.problem, Some(EvalProblem::IncludeLoop { domain }) if domain == dom("selfie.example"))
        );
    }

    #[test]
    fn redirect_takes_over() {
        let s = store();
        s.add_txt(&dom("front.example"), "v=spf1 redirect=back.example");
        s.add_txt(&dom("back.example"), "v=spf1 ip4:192.0.2.0/24 -all");
        assert_eq!(
            eval(&s, "192.0.2.9", "front.example").result,
            SpfResult::Pass
        );
        // Unlike include, a redirect's fail IS final.
        assert_eq!(
            eval(&s, "203.0.113.9", "front.example").result,
            SpfResult::Fail
        );
    }

    #[test]
    fn redirect_loop_detected() {
        let s = store();
        s.add_txt(&dom("r1.example"), "v=spf1 redirect=r2.example");
        s.add_txt(&dom("r2.example"), "v=spf1 redirect=r1.example");
        let e = eval(&s, "198.51.100.1", "r1.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(e.problem, Some(EvalProblem::RedirectLoop { .. })));
    }

    #[test]
    fn redirect_ignored_when_all_present() {
        let s = store();
        s.add_txt(&dom("mixed.example"), "v=spf1 redirect=other.example ~all");
        // other.example would pass this IP, but ~all wins because redirect
        // is ignored when all is present.
        s.add_txt(&dom("other.example"), "v=spf1 +all");
        assert_eq!(
            eval(&s, "198.51.100.1", "mixed.example").result,
            SpfResult::SoftFail
        );
    }

    #[test]
    fn redirect_to_missing_record_is_permerror() {
        let s = store();
        s.add_txt(&dom("r.example"), "v=spf1 redirect=void.example");
        let e = eval(&s, "198.51.100.1", "r.example");
        assert_eq!(e.result, SpfResult::PermError);
    }

    #[test]
    fn multiple_spf_records_is_permerror() {
        let s = store();
        s.add_txt(&dom("twice.example"), "v=spf1 -all");
        s.add_txt(&dom("twice.example"), "v=spf1 mx -all");
        let e = eval(&s, "198.51.100.1", "twice.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(
            e.problem,
            Some(EvalProblem::MultipleRecords { count: 2, .. })
        ));
    }

    #[test]
    fn non_spf_txt_records_ignored() {
        let s = store();
        s.add_txt(&dom("d.example"), "google-site-verification=abc123");
        s.add_txt(&dom("d.example"), "v=spf1 -all");
        assert_eq!(
            eval(&s, "198.51.100.1", "d.example").result,
            SpfResult::Fail
        );
    }

    #[test]
    fn syntax_error_is_permerror() {
        let s = store();
        s.add_txt(&dom("typo.example"), "v=spf1 ipv4:192.0.2.1 -all");
        let e = eval(&s, "198.51.100.1", "typo.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(e.problem, Some(EvalProblem::Syntax { .. })));
    }

    #[test]
    fn lookup_limit_enforced_globally() {
        let s = store();
        // Chain of 12 includes; the 11th lookup must trip the limit.
        for i in 0..12 {
            let name = dom(&format!("c{i}.example"));
            let next = format!("c{}.example", i + 1);
            s.add_txt(&name, &format!("v=spf1 include:{next} -all"));
        }
        s.add_txt(&dom("c12.example"), "v=spf1 ip4:10.0.0.1 -all");
        let e = eval(&s, "10.0.0.1", "c0.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(
            e.problem,
            Some(EvalProblem::TooManyLookups { .. })
        ));
        assert!(e.dns_lookups >= 10);
    }

    #[test]
    fn ten_lookups_exactly_is_fine() {
        let s = store();
        for i in 0..9 {
            let name = dom(&format!("k{i}.example"));
            let next = format!("k{}.example", i + 1);
            s.add_txt(&name, &format!("v=spf1 include:{next} -all"));
        }
        s.add_txt(&dom("k9.example"), "v=spf1 mx -all");
        s.add_mx(&dom("k9.example"), 10, &dom("mx.k9.example"));
        s.add_a(&dom("mx.k9.example"), Ipv4Addr::new(10, 0, 0, 9));
        // 9 includes + 1 mx = 10 lookups: allowed.
        let e = eval(&s, "10.0.0.9", "k0.example");
        assert_eq!(e.result, SpfResult::Pass);
        assert_eq!(e.dns_lookups, 10);
    }

    #[test]
    fn early_match_before_limit_passes() {
        // The paper: "The SPF check can be successful if a result is
        // returned within the first 10 lookups."
        let s = store();
        let mut terms = vec!["v=spf1".to_string(), "ip4:10.1.1.1".to_string()];
        for i in 0..14 {
            terms.push(format!("include:x{i}.example"));
        }
        terms.push("-all".to_string());
        s.add_txt(&dom("early.example"), &terms.join(" "));
        for i in 0..14 {
            s.add_txt(&dom(&format!("x{i}.example")), "v=spf1 ip4:172.16.0.1 -all");
        }
        // Matching IP hits ip4 before any include is evaluated.
        assert_eq!(
            eval(&s, "10.1.1.1", "early.example").result,
            SpfResult::Pass
        );
        // Non-matching IP walks the includes and trips the limit.
        assert_eq!(
            eval(&s, "198.51.100.1", "early.example").result,
            SpfResult::PermError
        );
    }

    #[test]
    fn per_record_accounting_is_lenient() {
        let s = store();
        for i in 0..12 {
            let name = dom(&format!("p{i}.example"));
            let next = format!("p{}.example", i + 1);
            s.add_txt(&name, &format!("v=spf1 include:{next} -all"));
        }
        s.add_txt(&dom("p12.example"), "v=spf1 ip4:10.0.0.1 -all");
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let policy = EvalPolicy {
            accounting: LookupAccounting::PerRecord,
            ..Default::default()
        };
        let e = check_host(&resolver, &ctx("10.0.0.1"), &dom("p0.example"), &policy);
        // Each record uses only 1 lookup locally, so the chain completes
        // (12 includes across p0..p11).
        assert_eq!(e.result, SpfResult::Pass);
        assert_eq!(e.dns_lookups, 12);
    }

    #[test]
    fn void_lookup_limit() {
        let s = store();
        // Three a-mechanisms pointing at names that exist with no A records
        // produce three void lookups; limit is 2.
        s.add_txt(
            &dom("v.example"),
            "v=spf1 a:v1.example a:v2.example a:v3.example -all",
        );
        for n in ["v1.example", "v2.example", "v3.example"] {
            s.add_txt(&dom(n), "placeholder"); // exists, but no A record
        }
        let e = eval(&s, "198.51.100.1", "v.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(
            e.problem,
            Some(EvalProblem::TooManyVoidLookups { .. })
        ));
    }

    #[test]
    fn two_void_lookups_allowed() {
        let s = store();
        s.add_txt(
            &dom("v2.example"),
            "v=spf1 a:w1.example a:w2.example ip4:10.0.0.5 -all",
        );
        for n in ["w1.example", "w2.example"] {
            s.add_txt(&dom(n), "placeholder");
        }
        let e = eval(&s, "10.0.0.5", "v2.example");
        assert_eq!(e.result, SpfResult::Pass);
        assert_eq!(e.void_lookups, 2);
    }

    #[test]
    fn temperror_on_timeout() {
        let s = store();
        s.add_txt(&dom("t.example"), "v=spf1 include:slow.example -all");
        s.add_txt(&dom("slow.example"), "v=spf1 -all");
        s.set_fault(&dom("slow.example"), spf_dns::ZoneFault::Timeout);
        let e = eval(&s, "198.51.100.1", "t.example");
        assert_eq!(e.result, SpfResult::TempError);
    }

    #[test]
    fn mx_with_too_many_exchanges_is_permerror() {
        let s = store();
        s.add_txt(&dom("many.example"), "v=spf1 mx -all");
        for i in 0..11 {
            s.add_mx(
                &dom("many.example"),
                10,
                &dom(&format!("mx{i}.many.example")),
            );
        }
        let e = eval(&s, "198.51.100.1", "many.example");
        assert_eq!(e.result, SpfResult::PermError);
        assert!(matches!(
            e.problem,
            Some(EvalProblem::TooManyMxRecords { .. })
        ));
    }

    #[test]
    fn exists_mechanism_with_macro() {
        let s = store();
        s.add_txt(
            &dom("e.example"),
            "v=spf1 exists:%{ir}.allow.e.example -all",
        );
        // Authorize exactly 192.0.2.3 by publishing 3.2.0.192.allow.e.example.
        s.add_a(
            &dom("3.2.0.192.allow.e.example"),
            Ipv4Addr::new(127, 0, 0, 2),
        );
        assert_eq!(eval(&s, "192.0.2.3", "e.example").result, SpfResult::Pass);
        assert_eq!(eval(&s, "192.0.2.4", "e.example").result, SpfResult::Fail);
    }

    #[test]
    fn ptr_mechanism_validates_forward() {
        let s = store();
        s.add_txt(&dom("p.example"), "v=spf1 ptr -all");
        // 192.0.2.7 reverse-maps to mail.p.example which forward-maps back.
        add_reverse_v4(&s, Ipv4Addr::new(192, 0, 2, 7), &dom("mail.p.example"));
        s.add_a(&dom("mail.p.example"), Ipv4Addr::new(192, 0, 2, 7));
        assert_eq!(eval(&s, "192.0.2.7", "p.example").result, SpfResult::Pass);

        // 192.0.2.8 reverse-maps to a name that does NOT forward-validate.
        add_reverse_v4(&s, Ipv4Addr::new(192, 0, 2, 8), &dom("fake.p.example"));
        s.add_a(&dom("fake.p.example"), Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(eval(&s, "192.0.2.8", "p.example").result, SpfResult::Fail);

        // 192.0.2.9 validates but belongs to another domain: no match.
        add_reverse_v4(&s, Ipv4Addr::new(192, 0, 2, 9), &dom("mail.other.example"));
        s.add_a(&dom("mail.other.example"), Ipv4Addr::new(192, 0, 2, 9));
        assert_eq!(eval(&s, "192.0.2.9", "p.example").result, SpfResult::Fail);
    }

    #[test]
    fn ipv6_sender_against_ip6_mechanism() {
        let s = store();
        s.add_txt(&dom("six.example"), "v=spf1 ip6:2001:db8::/32 -all");
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let c = EvalContext::mail_from("2001:db8::1".parse().unwrap(), "bob", dom("six.example"));
        let e = check_host(&resolver, &c, &dom("six.example"), &EvalPolicy::default());
        assert_eq!(e.result, SpfResult::Pass);
        // An ip4 mechanism never matches a v6 sender.
        let s2 = store();
        s2.add_txt(&dom("four.example"), "v=spf1 ip4:0.0.0.0/0 -all");
        let r2 = ZoneResolver::new(Arc::clone(&s2));
        let e2 = check_host(&r2, &c, &dom("four.example"), &EvalPolicy::default());
        assert_eq!(e2.result, SpfResult::Fail);
    }

    #[test]
    fn dual_cidr_aaaa_match() {
        let s = store();
        s.add_txt(&dom("dual.example"), "v=spf1 a:host.dual.example//64 -all");
        s.add_record(ResourceRecord::new(
            dom("host.dual.example"),
            RecordData::Aaaa("2001:db8:1:2::1".parse().unwrap()),
        ));
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let c = EvalContext::mail_from(
            "2001:db8:1:2:ffff::9".parse().unwrap(),
            "bob",
            dom("dual.example"),
        );
        let e = check_host(&resolver, &c, &dom("dual.example"), &EvalPolicy::default());
        assert_eq!(e.result, SpfResult::Pass);
    }

    #[test]
    fn explanation_fetched_on_fail() {
        let s = store();
        s.add_txt(&dom("x.example"), "v=spf1 exp=why.x.example -all");
        s.add_txt(
            &dom("why.x.example"),
            "%{i} is not allowed to send for %{d}",
        );
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let policy = EvalPolicy {
            fetch_explanation: true,
            ..Default::default()
        };
        let e = check_host(&resolver, &ctx("192.0.2.3"), &dom("x.example"), &policy);
        assert_eq!(e.result, SpfResult::Fail);
        assert_eq!(
            e.explanation.as_deref(),
            Some("192.0.2.3 is not allowed to send for x.example")
        );
    }

    /// A plain mutex-map [`VerdictCache`] for exercising the cached path
    /// without the crawler's sharded implementation. It has no clock:
    /// every entry reads back as of time zero.
    #[derive(Default)]
    struct MapCache {
        map: std::sync::Mutex<
            std::collections::HashMap<(DomainName, IpAddr, BudgetKey), Arc<SubtreeVerdict>>,
        >,
        records: std::sync::Mutex<std::collections::HashMap<DomainName, Arc<FetchedRecord>>>,
        hits: std::sync::atomic::AtomicUsize,
    }

    impl VerdictCache for MapCache {
        fn get(
            &self,
            domain: &DomainName,
            ip: IpAddr,
            budget: BudgetKey,
        ) -> Option<(Arc<SubtreeVerdict>, Duration)> {
            let hit = self
                .map
                .lock()
                .unwrap()
                .get(&(domain.clone(), ip, budget))
                .cloned();
            if hit.is_some() {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            hit.map(|verdict| (verdict, Duration::ZERO))
        }

        fn put(
            &self,
            domain: &DomainName,
            ip: IpAddr,
            budget: BudgetKey,
            verdict: Arc<SubtreeVerdict>,
            _as_of: Option<Duration>,
        ) {
            self.map
                .lock()
                .unwrap()
                .insert((domain.clone(), ip, budget), verdict);
        }

        fn record(&self, domain: &DomainName) -> Option<(Arc<FetchedRecord>, Duration)> {
            let records = self.records.lock().unwrap();
            records.get(domain).map(|r| (Arc::clone(r), Duration::ZERO))
        }

        fn put_record(&self, domain: &DomainName, record: Arc<FetchedRecord>) {
            assert!(!record.is_transient(), "a transient fetch was offered");
            self.records.lock().unwrap().insert(domain.clone(), record);
        }
    }

    fn eval_cached(store: &Arc<ZoneStore>, cache: &MapCache, ip: &str, domain: &str) -> Evaluation {
        let resolver = ZoneResolver::new(Arc::clone(store));
        check_host_cached(
            &resolver,
            &ctx(ip),
            &dom(domain),
            &EvalPolicy::default(),
            cache,
        )
    }

    #[test]
    fn global_trip_reports_the_global_counter() {
        let s = store();
        for i in 0..12 {
            let name = dom(&format!("g{i}.example"));
            let next = format!("g{}.example", i + 1);
            s.add_txt(&name, &format!("v=spf1 include:{next} -all"));
        }
        let e = eval(&s, "10.0.0.1", "g0.example");
        // The 11th charge trips; under global accounting the reported
        // counter is the global one.
        assert_eq!(e.problem, Some(EvalProblem::TooManyLookups { used: 11 }));
        assert_eq!(e.dns_lookups, 11);
    }

    #[test]
    fn per_record_trip_reports_the_local_counter() {
        // Regression for the `used` misreport: one include (1 global
        // lookup) leads to a record with 11 includes of its own. Under
        // per-record accounting the 11th *local* charge trips — the old
        // code reported the global counter (12), overstating what the
        // tripped budget was actually charged.
        let s = store();
        let fat_terms: Vec<String> = (0..11)
            .map(|i| format!("include:leaf{i}.example"))
            .collect();
        s.add_txt(&dom("entry.example"), "v=spf1 include:fat.example -all");
        s.add_txt(
            &dom("fat.example"),
            &format!("v=spf1 {} -all", fat_terms.join(" ")),
        );
        for i in 0..11 {
            s.add_txt(
                &dom(&format!("leaf{i}.example")),
                "v=spf1 ip4:203.0.113.250 -all",
            );
        }
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let policy = EvalPolicy {
            accounting: LookupAccounting::PerRecord,
            ..Default::default()
        };
        let e = check_host(&resolver, &ctx("10.0.0.1"), &dom("entry.example"), &policy);
        assert_eq!(e.result, SpfResult::PermError);
        assert_eq!(e.problem, Some(EvalProblem::TooManyLookups { used: 11 }));
        // The global counter kept counting: 1 entry include + 11 charges
        // inside fat.example.
        assert_eq!(e.dns_lookups, 12);
    }

    #[test]
    fn void_boundary_exactly_two_pass_third_fails() {
        // Pin the §4.6.4 boundary: `check_void_budget` uses `>`, so the
        // 2nd void lookup passes and the 3rd is the permerror.
        let s = store();
        s.add_txt(
            &dom("vb.example"),
            "v=spf1 a:n1.example a:n2.example ip4:10.2.2.2 -all",
        );
        s.add_txt(
            &dom("vc.example"),
            "v=spf1 a:n1.example a:n2.example a:n3.example ip4:10.2.2.2 -all",
        );
        for n in ["n1.example", "n2.example", "n3.example"] {
            s.add_txt(&dom(n), "placeholder"); // exists, no A record
        }
        let two = eval(&s, "10.2.2.2", "vb.example");
        assert_eq!(two.result, SpfResult::Pass);
        assert_eq!(two.void_lookups, 2);
        let three = eval(&s, "10.2.2.2", "vc.example");
        assert_eq!(three.result, SpfResult::PermError);
        assert_eq!(
            three.problem,
            Some(EvalProblem::TooManyVoidLookups { used: 3 })
        );
    }

    /// A world where two customers share one provider include whose
    /// subtree costs lookups *and* void lookups.
    fn shared_include_store() -> Arc<ZoneStore> {
        let s = store();
        s.add_txt(
            &dom("spf.shared.example"),
            "v=spf1 a:void1.shared.example mx:hub.shared.example ip4:198.51.100.0/24 -all",
        );
        s.add_txt(&dom("void1.shared.example"), "placeholder"); // void A
        s.add_mx(&dom("hub.shared.example"), 10, &dom("mx.shared.example"));
        s.add_a(&dom("mx.shared.example"), Ipv4Addr::new(198, 51, 100, 25));
        for c in ["c1.example", "c2.example"] {
            s.add_txt(&dom(c), "v=spf1 include:spf.shared.example -all");
        }
        s
    }

    #[test]
    fn cached_path_is_byte_identical_to_uncached() {
        let s = shared_include_store();
        let cache = MapCache::default();
        for ip in ["198.51.100.42", "203.0.113.9"] {
            for domain in ["c1.example", "c2.example"] {
                let uncached = eval(&s, ip, domain);
                let cold_or_warm = eval_cached(&s, &cache, ip, domain);
                assert_eq!(uncached, cold_or_warm, "{domain} from {ip}");
            }
        }
        // c2 (and every repeat) replayed the shared subtree.
        assert!(cache.hits.load(std::sync::atomic::Ordering::Relaxed) >= 2);
    }

    #[test]
    fn cached_void_lookups_charge_identically() {
        // The shared subtree carries one void lookup; a root that enters
        // it with only one void slot left must trip on replay exactly as
        // it does on a fresh walk — same problem, same `used`.
        let s = shared_include_store();
        s.add_txt(
            &dom("tight.example"),
            "v=spf1 a:gone1.example a:gone2.example include:spf.shared.example -all",
        );
        for n in ["gone1.example", "gone2.example"] {
            s.add_txt(&dom(n), "placeholder");
        }
        let cache = MapCache::default();
        // Warm the provider subtree from a void-budget-rich root.
        let warm = eval_cached(&s, &cache, "203.0.113.9", "c1.example");
        assert_eq!(warm.void_lookups, 1);
        let uncached = eval(&s, "203.0.113.9", "tight.example");
        let cached = eval_cached(&s, &cache, "203.0.113.9", "tight.example");
        assert_eq!(uncached, cached);
        assert_eq!(cached.result, SpfResult::PermError);
        assert_eq!(
            cached.problem,
            Some(EvalProblem::TooManyVoidLookups { used: 3 })
        );
        assert_eq!(cached.void_lookups, 3);
    }

    #[test]
    fn cached_lookup_budget_trips_identically() {
        // deep.example consumes 4 lookups; entered with 9 left it
        // completes, entered with 3 left it trips mid-subtree. The cache
        // must never replay the rich-budget verdict into the poor-budget
        // entry (the budget is part of the key).
        let s = store();
        s.add_txt(
            &dom("deep.example"),
            "v=spf1 mx:hub.deep.example a:a1.deep.example a:a2.deep.example \
             a:a3.deep.example ip4:198.51.100.0/24 -all",
        );
        s.add_mx(&dom("hub.deep.example"), 10, &dom("mx.deep.example"));
        for n in [
            "mx.deep.example",
            "a1.deep.example",
            "a2.deep.example",
            "a3.deep.example",
        ] {
            s.add_a(&dom(n), Ipv4Addr::new(203, 0, 113, 77));
        }
        s.add_txt(&dom("rich.example"), "v=spf1 include:deep.example -all");
        let mut poor_terms = vec!["v=spf1".to_string()];
        for i in 0..7 {
            poor_terms.push(format!("include:hop{i}.example"));
            s.add_txt(
                &dom(&format!("hop{i}.example")),
                "v=spf1 ip4:203.0.113.250 -all",
            );
        }
        poor_terms.push("include:deep.example".to_string());
        poor_terms.push("-all".to_string());
        s.add_txt(&dom("poor.example"), &poor_terms.join(" "));
        let cache = MapCache::default();
        for domain in [
            "rich.example",
            "poor.example",
            "rich.example",
            "poor.example",
        ] {
            let uncached = eval(&s, "198.51.100.5", domain);
            let cached = eval_cached(&s, &cache, "198.51.100.5", domain);
            assert_eq!(uncached, cached, "{domain}");
        }
        let poor = eval(&s, "198.51.100.5", "poor.example");
        assert_eq!(poor.result, SpfResult::PermError);
        assert!(matches!(
            poor.problem,
            Some(EvalProblem::TooManyLookups { used: 11 })
        ));
    }

    #[test]
    fn shared_cache_keys_policies_apart() {
        // Regression: under per-record accounting the key holds the
        // policy's own limit, so one cache serving two policies must
        // never replay the lenient policy's verdict into the strict one.
        let s = store();
        s.add_txt(
            &dom("sub5.example"),
            "v=spf1 a:h1.example a:h2.example a:h3.example a:h4.example a:h5.example -all",
        );
        for n in [
            "h1.example",
            "h2.example",
            "h3.example",
            "h4.example",
            "h5.example",
        ] {
            s.add_a(&dom(n), Ipv4Addr::new(203, 0, 113, 200));
        }
        s.add_txt(&dom("entry.example"), "v=spf1 include:sub5.example -all");
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let cache = MapCache::default();
        let policy = |max: usize| EvalPolicy {
            accounting: LookupAccounting::PerRecord,
            max_dns_lookups: max,
            ..Default::default()
        };
        let run = |p: &EvalPolicy, cached: bool| {
            if cached {
                check_host_cached(
                    &resolver,
                    &ctx("192.0.2.9"),
                    &dom("entry.example"),
                    p,
                    &cache,
                )
            } else {
                check_host(&resolver, &ctx("192.0.2.9"), &dom("entry.example"), p)
            }
        };
        // Warm the cache under the lenient limit, then evaluate under
        // the strict one: each must match its own uncached reference.
        let lenient = policy(10);
        let strict = policy(2);
        assert_eq!(run(&lenient, true), run(&lenient, false));
        let strict_cached = run(&strict, true);
        assert_eq!(strict_cached, run(&strict, false));
        assert_eq!(strict_cached.result, SpfResult::PermError);
        assert_eq!(
            strict_cached.problem,
            Some(EvalProblem::TooManyLookups { used: 3 })
        );
    }

    #[test]
    fn session_macro_subtrees_are_never_cached() {
        // The include target authorizes via an %{o} (sender-domain)
        // exists-check: its verdict depends on the session, not on
        // (domain, ip), so sharing a cache across senders must not leak
        // one sender's answer to another.
        let s = store();
        s.add_txt(&dom("macro.example"), "v=spf1 exists:%{o}.chk.example -all");
        for r in ["r1.example", "r2.example"] {
            s.add_txt(&dom(r), "v=spf1 include:macro.example -all");
        }
        s.add_a(&dom("r1.example.chk.example"), Ipv4Addr::new(127, 0, 0, 2));
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let cache = MapCache::default();
        let policy = EvalPolicy::default();
        let eval_for = |root: &str| {
            let c = EvalContext::mail_from("192.0.2.55".parse().unwrap(), "ceo", dom(root));
            check_host_cached(&resolver, &c, &dom(root), &policy, &cache)
        };
        assert_eq!(eval_for("r1.example").result, SpfResult::Pass);
        assert_eq!(eval_for("r2.example").result, SpfResult::Fail);
        // And nothing about the macro subtree was memoized.
        assert_eq!(cache.hits.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn replayed_subtree_still_assigns_an_equal_matched_directive() {
        // Regression: a subtree that assigns the *same* matched text the
        // caller already had must still be recorded as assigning it —
        // otherwise its verdict replays as a no-op under callers whose
        // pre-entry matched value differs, dropping matched_directive.
        let s = store();
        s.add_txt(&dom("a1.example"), "v=spf1 -all");
        s.add_txt(&dom("a2.example"), "v=spf1");
        s.add_txt(&dom("sub.example"), "v=spf1 -all");
        // c1 warms the cache: at sub entry, matched is already
        // Some("-all") from a1's inner match, and sub matches "-all"
        // again (same text).
        s.add_txt(
            &dom("c1.example"),
            "v=spf1 include:a1.example include:sub.example",
        );
        // x enters sub with matched = None (a2 matched nothing).
        s.add_txt(
            &dom("x.example"),
            "v=spf1 include:a2.example include:sub.example",
        );
        let cache = MapCache::default();
        for domain in ["c1.example", "x.example"] {
            let uncached = eval(&s, "198.51.100.1", domain);
            let cached = eval_cached(&s, &cache, "198.51.100.1", domain);
            assert_eq!(uncached, cached, "{domain}");
        }
        let x = eval_cached(&s, &cache, "198.51.100.1", "x.example");
        assert_eq!(x.matched_directive.as_deref(), Some("-all"));
    }

    #[test]
    fn loop_probes_respect_the_caller_stack() {
        // mid.example ↔ back.example form a loop. Warming the cache from
        // a neutral root and then evaluating *from inside the loop* must
        // not replay the neutral root's view of it.
        let s = store();
        s.add_txt(&dom("mid.example"), "v=spf1 include:back.example -all");
        s.add_txt(&dom("back.example"), "v=spf1 include:mid.example -all");
        s.add_txt(&dom("other.example"), "v=spf1 include:mid.example -all");
        let cache = MapCache::default();
        for domain in ["other.example", "back.example", "mid.example"] {
            let uncached = eval(&s, "198.51.100.1", domain);
            let cached = eval_cached(&s, &cache, "198.51.100.1", domain);
            assert_eq!(uncached, cached, "{domain}");
            assert!(matches!(
                cached.problem,
                Some(EvalProblem::IncludeLoop { .. })
            ));
        }
    }

    #[test]
    fn final_domain_tracks_redirect() {
        let s = store();
        s.add_txt(&dom("a.example"), "v=spf1 redirect=b.example");
        s.add_txt(&dom("b.example"), "v=spf1 -all");
        let e = eval(&s, "198.51.100.1", "a.example");
        assert_eq!(e.final_domain, dom("b.example"));
    }

    /// Every way a record fetch can end, each at its own name: a record
    /// (with an include of its own), NXDOMAIN, an empty answer, no SPF
    /// record, two records, a syntax error and a timeout. Each also
    /// appears as an include target, behind `via-<name>`.
    const OUTCOMES: [&str; 7] = [
        "spf.example",
        "missing.example",
        "empty.example",
        "txt-only.example",
        "two.example",
        "syntax.example",
        "slow.example",
    ];

    fn outcome_store() -> Arc<ZoneStore> {
        let s = store();
        s.add_txt(
            &dom("spf.example"),
            "v=spf1 ip4:192.0.2.0/24 include:inc.example a:gone.example -all",
        );
        s.add_txt(&dom("inc.example"), "v=spf1 a:host.example ~all");
        s.add_a(&dom("host.example"), Ipv4Addr::new(203, 0, 113, 5));
        s.add_a(&dom("empty.example"), Ipv4Addr::new(192, 0, 2, 9));
        s.add_txt(&dom("txt-only.example"), "google-site-verification=abc");
        s.add_txt(&dom("two.example"), "v=spf1 -all");
        s.add_txt(&dom("two.example"), "v=spf1 ~all");
        s.add_txt(&dom("syntax.example"), "v=spf1 ipv4:192.0.2.1 -all");
        s.add_txt(&dom("slow.example"), "v=spf1 -all");
        s.set_fault(&dom("slow.example"), spf_dns::ZoneFault::Timeout);
        for target in OUTCOMES {
            s.add_txt(
                &dom(&format!("via-{target}")),
                &format!("v=spf1 include:{target} -all"),
            );
        }
        s
    }

    /// `check_host` is `RootRecord::fetch` followed by `check_host_root`,
    /// and one fetched root evaluates for every IP exactly as a fresh
    /// `check_host` per IP does — cached or not, for every way a fetch
    /// can end at the root or at an include target whose record the memo
    /// holds, under a void budget that tolerates the fetch's void charge
    /// and one that does not.
    #[test]
    fn fetched_root_evaluates_like_check_host_for_every_root_outcome() {
        let s = outcome_store();
        let resolver = ZoneResolver::new(Arc::clone(&s));
        let ips = ["192.0.2.7", "203.0.113.5", "198.51.100.1"];
        let strict = EvalPolicy {
            max_void_lookups: 0,
            ..Default::default()
        };
        let vias: Vec<String> = OUTCOMES.iter().map(|t| format!("via-{t}")).collect();
        let domains = OUTCOMES
            .iter()
            .copied()
            .chain(vias.iter().map(String::as_str));
        for policy in [EvalPolicy::default(), strict] {
            let cache = MapCache::default();
            for domain in domains.clone() {
                let root = RootRecord::fetch(&resolver, &dom(domain));
                assert_eq!(root.is_transient(), domain == "slow.example");
                let bare: Vec<Evaluation> = ips
                    .iter()
                    .map(|ip| check_host(&resolver, &ctx(ip), &dom(domain), &policy))
                    .collect();
                for (ip, bare) in ips.iter().zip(&bare) {
                    let c = ctx(ip);
                    let label = format!("{domain} from {ip}, {policy:?}");
                    assert_eq!(
                        &check_host_root(&resolver, &c, &root, &policy, None),
                        bare,
                        "{label}"
                    );
                    assert_eq!(
                        &check_host_root(&resolver, &c, &root, &policy, Some(&cache)),
                        bare,
                        "{label}"
                    );
                    assert_eq!(
                        &check_host_cached(&resolver, &c, &dom(domain), &policy, &cache),
                        bare,
                        "{label}"
                    );
                }
                // Each outcome is the one the case is named for.
                let problem = bare[2].problem.clone();
                let voids = bare[2].void_lookups;
                let (target, via) = match domain.strip_prefix("via-") {
                    Some(target) => (target, true),
                    None => (domain, false),
                };
                let not_found = |cause| {
                    Some(if via {
                        EvalProblem::RecordNotFound {
                            domain: dom(target),
                            cause,
                        }
                    } else {
                        EvalProblem::NoRecord
                    })
                };
                match target {
                    "spf.example" => {
                        let results: Vec<SpfResult> = bare.iter().map(|e| e.result).collect();
                        assert_eq!(
                            results[..2],
                            [SpfResult::Pass, SpfResult::Pass],
                            "{domain} {policy:?}"
                        );
                        assert_eq!(voids, 1);
                    }
                    "missing.example" | "empty.example" => {
                        let cause = if target == "missing.example" {
                            RecordNotFoundCause::DomainNotFound
                        } else {
                            RecordNotFoundCause::EmptyResult
                        };
                        assert_eq!(voids, 1);
                        assert_eq!(
                            problem,
                            if policy.max_void_lookups == 0 {
                                Some(EvalProblem::TooManyVoidLookups { used: 1 })
                            } else {
                                not_found(cause)
                            },
                            "{domain}"
                        );
                    }
                    "txt-only.example" => {
                        assert_eq!(problem, not_found(RecordNotFoundCause::NoSpfRecord));
                        assert_eq!(voids, 0);
                    }
                    "two.example" => assert!(matches!(
                        problem,
                        Some(EvalProblem::MultipleRecords { count: 2, .. })
                    )),
                    "syntax.example" => {
                        assert!(matches!(problem, Some(EvalProblem::Syntax { .. })))
                    }
                    _ => assert!(matches!(problem, Some(EvalProblem::DnsTransient { .. }))),
                }
            }
        }
    }

    /// The record memo reads each TXT name once per memo, whichever IP
    /// asks; a timed-out name is never memoized, so every evaluation
    /// queries it again. The world holds only `include` and `ip4` terms,
    /// so every query counted is a TXT query.
    #[test]
    fn the_record_memo_queries_each_txt_name_once() {
        let s = store();
        s.add_txt(
            &dom("root.example"),
            "v=spf1 include:p1.example include:p2.example -all",
        );
        s.add_txt(&dom("p1.example"), "v=spf1 ip4:192.0.2.0/24 ~all");
        s.add_txt(&dom("p2.example"), "v=spf1 include:p1.example ?all");
        s.add_txt(&dom("stalled.example"), "v=spf1 include:slow.example -all");
        s.add_txt(&dom("slow.example"), "v=spf1 -all");
        s.set_fault(&dom("slow.example"), spf_dns::ZoneFault::Timeout);
        let ips = ["198.51.100.1", "198.51.100.2", "198.51.100.3"];
        let queries = |domain: &str, cache: &MapCache| {
            let counting = spf_testkit::CountingResolver::new(ZoneResolver::new(Arc::clone(&s)));
            for ip in ips {
                let e = check_host_cached(
                    &counting,
                    &ctx(ip),
                    &dom(domain),
                    &EvalPolicy::default(),
                    cache,
                );
                assert_eq!(e, eval(&s, ip, domain), "{domain} from {ip}");
            }
            let stats = counting.stats();
            let total = stats.queries.load(std::sync::atomic::Ordering::Relaxed);
            let errors = stats.errors.load(std::sync::atomic::Ordering::Relaxed);
            (total, errors)
        };
        let cache = MapCache::default();
        // root, p1 and p2, once each — p1 twice in the tree, and every
        // IP a verdict-memo miss.
        assert_eq!(queries("root.example", &cache), (3, 0));
        assert_eq!(queries("root.example", &cache), (0, 0));
        // stalled once, slow on each of the three evaluations.
        assert_eq!(queries("stalled.example", &cache), (4, 3));
        // A new memo reads everything again.
        assert_eq!(queries("root.example", &MapCache::default()), (3, 0));
    }
}
