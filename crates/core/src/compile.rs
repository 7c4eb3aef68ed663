//! The population policy compiler: turn a domain's SPF tree into an
//! interval matcher (DESIGN.md §10).
//!
//! [`compile_policy`] symbolically evaluates `check_host()` over the
//! *entire* address space of each family instead of one concrete IP: the
//! evaluation state is a worklist of **groups** — disjoint address sets
//! whose members are indistinguishable to every term walked so far, each
//! carrying the exact counters (`dns_lookups`, `void_lookups`) and
//! narrative state (`matched_directive`, `final_domain`) a concrete
//! evaluation from any of its addresses would hold at that point. Terms
//! split groups (an `ip4` separates members inside the network from
//! members outside; an `mx` walks its exchanges sequentially so the
//! short-circuited void charges stay per-address exact), includes and
//! redirects recurse, and every group that reaches a verdict becomes one
//! [`Evaluation`] template covering its whole set.
//!
//! The result is a [`CompiledPolicy`]: a deduplicated outcome list plus
//! per-family sorted disjoint range tables, answering
//! `check_host(ip, domain)` by binary search in ~100 ns instead of a
//! tree walk — **byte-identical** to [`crate::check_host`], which the
//! differential suites (`tests/compiler_stress.rs`,
//! `tests/compiler_proptest.rs`) pin across the whole population.
//!
//! Terms that defeat static compilation become a typed [`Residue`] and
//! their address regions answer `None` from [`CompiledPolicy::verdict`],
//! telling the caller to fall back to the live evaluator:
//!
//! * **session macros** (`%{s}`, `%{l}`, `%{o}`, `%{h}`, …) — the target
//!   depends on the sender identity, which is not an input here;
//! * **IP-derived macros** (`%{i}`, `%{p}`) — the target differs per
//!   address, so one compile-time expansion cannot stand in for all;
//! * **`exists` / `ptr`** — RFC 7208's live-DNS probes (the paper's
//!   discouraged tail);
//! * **transient DNS errors at compile time** — the live path must
//!   re-query rather than freeze a `temperror`;
//! * **over-budget trees** — a work cap bounds pathological group
//!   fan-out (adversarial records, not the wild population).
//!
//! A population run compiles thousands of domains that `include:` the
//! same few providers. [`compile_policy_shared`] takes a
//! [`SubtreeMemo`] (one per matrix run, or one per service TTL
//! generation): each include/redirect target is compiled once,
//! standalone, and composed onto every domain that reaches it with an
//! entry state that provably cannot change the target's walk; every
//! other entry takes the direct walk, which is therefore the fallback,
//! not a second engine.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::Serialize;
use spf_dns::{DnsError, RecordData, RecordType, Resolver, RrSet};
use spf_types::{
    DomainName, DualCidr, IpSet, Ipv4Set, Ipv6Set, MacroLetter, MacroString, MacroToken, Mechanism,
    ShardedCache, SpfRecord, StatItem, Term,
};

use crate::context::{EvalContext, SpfResult};
use crate::eval::{
    fetch_problem, problem_result, qualifier_result, EvalPolicy, EvalProblem, Evaluation,
};
use crate::family::Family;
use crate::fetch::{select_record, FetchFailure, NotFoundCause};
use crate::macroexpand::expand_domain;

/// Knobs for [`compile_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileConfig {
    /// The evaluation policy compiled against — must match the policy the
    /// live fallback evaluator runs with, or verdicts diverge.
    pub policy: EvalPolicy,
    /// Symbolic work cap: total `(group × term)` steps per family before
    /// the remaining regions are classified [`ResidueKind::OverBudget`].
    /// The default (8192) is far above anything the population produces.
    pub max_steps: usize,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            policy: EvalPolicy::default(),
            max_steps: 8192,
        }
    }
}

impl CompileConfig {
    /// A config compiling against `policy` with the default work cap.
    pub fn with_policy(policy: EvalPolicy) -> Self {
        CompileConfig {
            policy,
            ..CompileConfig::default()
        }
    }
}

/// Why part of a domain's address space could not be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ResidueKind {
    /// A macro string uses sender/HELO-derived letters (`s l o h c r t`).
    SessionMacro,
    /// A macro string uses IP-derived letters (`i` or `p`).
    IpMacro,
    /// An `exists` mechanism — a live-DNS existence probe.
    Exists,
    /// A `ptr` mechanism — the deprecated reverse-DNS validation walk.
    Ptr,
    /// A DNS query failed transiently at compile time.
    Transient,
    /// The policy requests `exp=` explanation fetching, which depends on
    /// the concrete session; such policies are never compiled.
    Explanation,
    /// The symbolic work cap ([`CompileConfig::max_steps`]) tripped.
    OverBudget,
}

/// One reason some region of the address space needs live evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Residue {
    /// The classification.
    pub kind: ResidueKind,
    /// The domain whose record contains the defeating term.
    pub domain: DomainName,
    /// The term (or fetch) that defeated compilation, in record text.
    pub term: String,
}

/// How much of a domain's policy compiled (the per-population stat the
/// `[compiler]` telemetry line and report section aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Compilability {
    /// Every address of both families answers from the tables.
    Full,
    /// Some regions answer from the tables, some fall back.
    Partial,
    /// No compiled region at all — every query falls back.
    Residual,
}

/// Population-level compiler counters: how many domains compiled fully /
/// partially / not at all, how verdicts split between the tables and the
/// live fallback, and which residue kinds occurred. Merged commutatively
/// across workers (spoof-matrix) or accumulated atomically (service), so
/// the aggregate is scheduling-independent for a fixed population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, serde::Deserialize)]
pub struct CompilerStats {
    /// Domains compiled.
    pub domains_compiled: u64,
    /// … of which every address of both families answers from the tables.
    pub full: u64,
    /// … of which some regions answer and some fall back.
    pub partial: u64,
    /// … of which nothing compiled (every query falls back).
    pub residual: u64,
    /// Verdicts answered from compiled tables.
    pub compiled_verdicts: u64,
    /// Verdicts that fell back to the live evaluator.
    pub fallback_verdicts: u64,
    /// DNS queries spent compiling.
    pub compile_queries: u64,
    /// Residues from session-dependent macros.
    pub residue_session_macro: u64,
    /// Residues from IP-derived macros (`%{i}`, `%{p}`).
    pub residue_ip_macro: u64,
    /// Residues from `exists` mechanisms.
    pub residue_exists: u64,
    /// Residues from `ptr` mechanisms.
    pub residue_ptr: u64,
    /// Residues from transient DNS errors at compile time.
    pub residue_transient: u64,
    /// Residues from explanation-fetching policies.
    pub residue_explanation: u64,
    /// Residues from the symbolic work cap.
    pub residue_over_budget: u64,
}

impl CompilerStats {
    /// Fold one compiled policy's compilability and residues in.
    pub fn record(&mut self, compiled: &CompiledPolicy) {
        self.domains_compiled += 1;
        match compiled.compilability() {
            Compilability::Full => self.full += 1,
            Compilability::Partial => self.partial += 1,
            Compilability::Residual => self.residual += 1,
        }
        self.compile_queries += compiled.compile_queries() as u64;
        for residue in compiled.residues() {
            match residue.kind {
                ResidueKind::SessionMacro => self.residue_session_macro += 1,
                ResidueKind::IpMacro => self.residue_ip_macro += 1,
                ResidueKind::Exists => self.residue_exists += 1,
                ResidueKind::Ptr => self.residue_ptr += 1,
                ResidueKind::Transient => self.residue_transient += 1,
                ResidueKind::Explanation => self.residue_explanation += 1,
                ResidueKind::OverBudget => self.residue_over_budget += 1,
            }
        }
    }

    /// Commutative merge of another worker's counters.
    pub fn merge(&mut self, other: &CompilerStats) {
        self.domains_compiled += other.domains_compiled;
        self.full += other.full;
        self.partial += other.partial;
        self.residual += other.residual;
        self.compiled_verdicts += other.compiled_verdicts;
        self.fallback_verdicts += other.fallback_verdicts;
        self.compile_queries += other.compile_queries;
        self.residue_session_macro += other.residue_session_macro;
        self.residue_ip_macro += other.residue_ip_macro;
        self.residue_exists += other.residue_exists;
        self.residue_ptr += other.residue_ptr;
        self.residue_transient += other.residue_transient;
        self.residue_explanation += other.residue_explanation;
        self.residue_over_budget += other.residue_over_budget;
    }

    /// The law every [`CompilerStats::record`] and
    /// [`CompilerStats::merge`] keeps — each compiled domain is exactly
    /// one of full, partial and residual — or an error naming it.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.full + self.partial + self.residual != self.domains_compiled {
            return Err(format!(
                "full + partial + residual != domains_compiled: {self:?}"
            ));
        }
        Ok(())
    }

    /// Fully compiled domains as a fraction of compiled domains.
    pub fn full_fraction(&self) -> f64 {
        if self.domains_compiled == 0 {
            0.0
        } else {
            self.full as f64 / self.domains_compiled as f64
        }
    }

    /// Verdicts answered from tables as a fraction of all verdicts.
    pub fn compiled_hit_rate(&self) -> f64 {
        let total = self.compiled_verdicts + self.fallback_verdicts;
        if total == 0 {
            0.0
        } else {
            self.compiled_verdicts as f64 / total as f64
        }
    }
}

impl spf_types::Stats for CompilerStats {
    fn scope(&self) -> &'static str {
        "compiler"
    }

    fn items(&self) -> Vec<spf_types::StatItem> {
        use spf_types::StatItem;
        vec![
            StatItem::count("domains", self.domains_compiled),
            StatItem::count("full", self.full),
            StatItem::count("partial", self.partial),
            StatItem::count("residual", self.residual),
            StatItem::count("compiled_verdicts", self.compiled_verdicts),
            StatItem::count("fallbacks", self.fallback_verdicts),
            StatItem::count("compile_queries", self.compile_queries),
        ]
    }
}

impl std::fmt::Display for CompilerStats {
    /// The `[compiler]` telemetry line (the shared [`spf_types::Stats`]
    /// rendering).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&spf_types::Stats::render(self))
    }
}

/// Sentinel outcome index marking a residual (fall-back) range.
const RESIDUE_IDX: u32 = u32::MAX;

/// One sorted table row: addresses in `lo..=hi` map to `outcomes[idx]`
/// (or to fallback when `idx == RESIDUE_IDX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeEntry<K> {
    lo: K,
    hi: K,
    idx: u32,
}

/// A domain's SPF tree compiled to interval matchers.
///
/// Produced by [`compile_policy`]; answers with [`CompiledPolicy::verdict`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPolicy {
    domain: DomainName,
    /// Deduplicated verdict templates; table rows index into this.
    outcomes: Vec<Evaluation>,
    v4: Vec<RangeEntry<u32>>,
    v6: Vec<RangeEntry<u128>>,
    residues: Vec<Residue>,
    compile_queries: usize,
}

impl CompiledPolicy {
    /// The compiled domain.
    pub fn domain(&self) -> &DomainName {
        &self.domain
    }

    /// The verdict for `ip`, or `None` when `ip` falls in a residual
    /// region and the caller must run the live evaluator. A `Some` is
    /// byte-identical to what bare [`crate::check_host`] returns for the same
    /// `(ip, domain, policy)` against the same zone.
    pub fn verdict(&self, ip: IpAddr) -> Option<Evaluation> {
        self.verdict_ref(ip).cloned()
    }

    /// [`verdict`](Self::verdict) without the clone: a borrow of the
    /// shared verdict template. The allocation-free hot path for
    /// serving loops that only read the verdict (the service listener's
    /// inline answers, which the `serve-hot` workload measures).
    pub fn verdict_ref(&self, ip: IpAddr) -> Option<&Evaluation> {
        let idx = match ip {
            IpAddr::V4(a) => lookup_idx(&self.v4, u32::from(a)),
            IpAddr::V6(a) => lookup_idx(&self.v6, u128::from(a)),
        }?;
        Some(&self.outcomes[idx as usize])
    }

    /// Whether `ip` answers from the tables (without cloning a verdict).
    pub fn covers(&self, ip: IpAddr) -> bool {
        match ip {
            IpAddr::V4(a) => lookup_idx(&self.v4, u32::from(a)).is_some(),
            IpAddr::V6(a) => lookup_idx(&self.v6, u128::from(a)).is_some(),
        }
    }

    /// Fully / partially / not-at-all compiled.
    pub fn compilability(&self) -> Compilability {
        let has_residue = self.v4.iter().any(|e| e.idx == RESIDUE_IDX)
            || self.v6.iter().any(|e| e.idx == RESIDUE_IDX);
        let has_compiled = self.v4.iter().any(|e| e.idx != RESIDUE_IDX)
            || self.v6.iter().any(|e| e.idx != RESIDUE_IDX);
        match (has_compiled, has_residue) {
            (_, false) => Compilability::Full,
            (true, true) => Compilability::Partial,
            (false, true) => Compilability::Residual,
        }
    }

    /// Every reason any region fell back, deduplicated.
    pub fn residues(&self) -> &[Residue] {
        &self.residues
    }

    /// Distinct verdict templates the tree can produce.
    pub fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Table rows across both families (a size/compactness metric).
    pub fn range_count(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// DNS queries the compile pass costs (both families). A subtree
    /// composed from a [`SubtreeMemo`] is charged its *standalone*
    /// walk's count, whoever compiled it — an upper bound on the direct
    /// walk's where an `mx` short-circuits on a narrower entry set.
    fn compile_queries(&self) -> usize {
        self.compile_queries
    }

    /// Every table row's first and last address, both families: the
    /// only places the verdict function can change, so where a
    /// differential test probes it.
    pub fn row_bounds(&self) -> impl Iterator<Item = (IpAddr, IpAddr)> + '_ {
        let v4 = self.v4.iter().map(|e| {
            (
                IpAddr::V4(Ipv4Addr::from(e.lo)),
                IpAddr::V4(Ipv4Addr::from(e.hi)),
            )
        });
        let v6 = self.v6.iter().map(|e| {
            (
                IpAddr::V6(Ipv6Addr::from(e.lo)),
                IpAddr::V6(Ipv6Addr::from(e.hi)),
            )
        });
        v4.chain(v6)
    }

    /// Panic unless both tables are sorted, disjoint, and cover their
    /// entire address space exactly — the structural invariant the
    /// differential suites assert before trusting any timing.
    pub fn assert_invariants(&self) {
        assert_table(&self.v4, 0u32, u32::MAX, self.outcomes.len(), "v4");
        assert_table(&self.v6, 0u128, u128::MAX, self.outcomes.len(), "v6");
        let table_has_residue = self.v4.iter().any(|e| e.idx == RESIDUE_IDX)
            || self.v6.iter().any(|e| e.idx == RESIDUE_IDX);
        assert_eq!(
            table_has_residue,
            !self.residues.is_empty(),
            "residual ranges and residue records must agree for {}",
            self.domain
        );
    }
}

fn assert_table<K: Copy + Ord + Into<u128>>(
    table: &[RangeEntry<K>],
    space_lo: K,
    space_hi: K,
    outcome_count: usize,
    family: &str,
) {
    assert!(!table.is_empty(), "{family} table empty");
    assert_eq!(table[0].lo.into(), space_lo.into(), "{family} gap at start");
    for w in table.windows(2) {
        assert!(
            w[0].hi.into() + 1 == w[1].lo.into(),
            "{family} table has a gap or overlap"
        );
    }
    assert_eq!(
        table.last().expect("non-empty").hi.into(),
        space_hi.into(),
        "{family} gap at end"
    );
    for e in table {
        assert!(
            e.idx == RESIDUE_IDX || (e.idx as usize) < outcome_count,
            "{family} row indexes past the outcome list"
        );
    }
}

fn lookup_idx<K: Copy + Ord>(table: &[RangeEntry<K>], key: K) -> Option<u32> {
    let i = table.partition_point(|e| e.lo <= key);
    if i == 0 {
        return None;
    }
    let e = &table[i - 1];
    if key <= e.hi && e.idx != RESIDUE_IDX {
        Some(e.idx)
    } else {
        None
    }
}

/// Compile `domain`'s SPF tree against the zone behind `resolver`.
///
/// Each address family is compiled independently (the same record charges
/// different void lookups per family — `a`/`mx` query A for IPv4 senders
/// and AAAA for IPv6 — and `%{v}` expands differently), then merged into
/// one [`CompiledPolicy`]. Compilation costs on the order of two live
/// evaluations in DNS queries and never fails: uncompilable regions
/// simply land in the residue tables.
pub fn compile_policy<R: Resolver + ?Sized>(
    resolver: &R,
    domain: &DomainName,
    config: &CompileConfig,
) -> CompiledPolicy {
    if config.policy.fetch_explanation {
        // `exp=` text expansion depends on the live session; such
        // policies are served entirely by the fallback path.
        let residue = Residue {
            kind: ResidueKind::Explanation,
            domain: domain.clone(),
            term: "exp=".to_string(),
        };
        return CompiledPolicy {
            domain: domain.clone(),
            outcomes: Vec::new(),
            v4: vec![RangeEntry {
                lo: 0,
                hi: u32::MAX,
                idx: RESIDUE_IDX,
            }],
            v6: vec![RangeEntry {
                lo: 0,
                hi: u128::MAX,
                idx: RESIDUE_IDX,
            }],
            residues: vec![residue],
            compile_queries: 0,
        };
    }
    compile_families(resolver, domain, config, None)
}

/// [`compile_policy`] through a [`SubtreeMemo`]: every
/// include/redirect target is compiled once per memo and composed into
/// each domain that reaches it (DESIGN.md §10 *Shared subtrees*). Over
/// a zone that holds still, the result is the same verdict *function*
/// and the same residue set as [`compile_policy`]'s — outcome order and
/// row splits may differ, so compare with [`CompiledPolicy::verdict`],
/// not `==`.
///
/// The memo's contract is the caller's: a composed subtree is the zone
/// as the memo read it, so a caller whose zone changes bounds the
/// memo's life; and one `config` — a call whose `config` differs from
/// the memo's first takes the memo-less walk.
pub fn compile_policy_shared<R: Resolver + ?Sized>(
    resolver: &R,
    domain: &DomainName,
    config: &CompileConfig,
    memo: &SubtreeMemo,
) -> CompiledPolicy {
    if config.policy.fetch_explanation || memo.config.get_or_init(|| *config) != config {
        return compile_policy(resolver, domain, config);
    }
    compile_families(resolver, domain, config, Some(memo))
}

fn compile_families<R: Resolver + ?Sized>(
    resolver: &R,
    domain: &DomainName,
    config: &CompileConfig,
    memo: Option<&SubtreeMemo>,
) -> CompiledPolicy {
    let mut outcomes: Vec<Evaluation> = Vec::new();
    let mut residues: Vec<Residue> = Vec::new();

    let f4 = compile_family::<R, Ipv4Addr>(resolver, domain, config, memo);
    let v4 = flatten_family::<Ipv4Addr>(f4.terminals, f4.residual, &mut outcomes, &mut residues);
    let f6 = compile_family::<R, Ipv6Addr>(resolver, domain, config, memo);
    let v6 = flatten_family::<Ipv6Addr>(f6.terminals, f6.residual, &mut outcomes, &mut residues);

    CompiledPolicy {
        domain: domain.clone(),
        outcomes,
        v4,
        v6,
        residues,
        compile_queries: f4.queries + f6.queries,
    }
}

// ---------------------------------------------------------------------
// The symbolic engine.
// ---------------------------------------------------------------------

/// One region of the address space plus the exact evaluator state every
/// concrete evaluation from inside it would hold at this point of the
/// walk.
#[derive(Clone)]
struct Group<S> {
    set: S,
    lookups: usize,
    voids: usize,
    matched: Option<Arc<str>>,
    final_domain: DomainName,
}

type Terminal<S> = (Group<S>, Result<SpfResult, EvalProblem>);

/// The triage of one mechanism over the current groups.
struct MatchOut<S> {
    matched: Vec<Group<S>>,
    unmatched: Vec<Group<S>>,
    failed: Vec<(Group<S>, EvalProblem)>,
}

impl<S> MatchOut<S> {
    fn empty() -> Self {
        MatchOut {
            matched: Vec::new(),
            unmatched: Vec::new(),
            failed: Vec::new(),
        }
    }
}

enum ExpandOutcome {
    Ok(DomainName),
    Residue(ResidueKind),
    Bad(EvalProblem),
}

struct FamilyOut<S> {
    terminals: Vec<Terminal<S>>,
    residual: Vec<(S, Residue)>,
    queries: usize,
}

// ---------------------------------------------------------------------
// Shared subtrees: each include/redirect target compiled once per run.
// ---------------------------------------------------------------------

/// What a standalone walk would have done differently under another
/// entry state — everything [`Sym::composable`] holds an entry against.
#[derive(Default)]
struct Footprint {
    /// Highest `lookups` a group held when the lookup budget was checked.
    peak_lookups: usize,
    /// Highest `voids` a group held when the void budget was checked.
    peak_voids: usize,
    /// Deepest recursion below the target (0: the target's own record).
    height: usize,
    /// Every domain the walk looked for on its stack and then entered.
    visited: Vec<DomainName>,
}

/// One include/redirect target compiled standalone: entered with the
/// whole address space, zero counters, an empty stack, `initial = false`.
pub(crate) struct Subtree<S> {
    /// `Pass` terminals with their narratives, which a `redirect=` keeps.
    passes: Vec<Group<S>>,
    /// `passes` merged by `(lookups, voids)` — all an `include:` reads,
    /// because its caller overwrites the narrative of a matched group.
    merged_passes: Vec<Group<S>>,
    /// Every other terminal.
    others: Vec<Terminal<S>>,
    residual: Vec<(S, Residue)>,
    footprint: Footprint,
    queries: usize,
    steps: usize,
}

/// An insert-only memo of include/redirect targets compiled standalone,
/// one keep-first [`ShardedCache`] per address family, for
/// [`compile_policy_shared`].
///
/// A subtree is a function of the zone and the [`CompileConfig`] alone,
/// so a memo serves exactly the zone it read, at the time it read it.
/// Nothing in it is ever evicted or invalidated; its owner bounds its
/// life instead. It has two: the spoof matrix makes one per run over a
/// frozen zone, and the resident verdict service one per TTL
/// generation, whose tables expire one TTL after the generation began
/// (DESIGN.md §10 *Shared subtrees*).
#[derive(Default)]
pub struct SubtreeMemo {
    /// The config of the first compile; a different one bypasses the memo.
    config: OnceLock<CompileConfig>,
    pub(crate) v4: ShardedCache<Arc<Subtree<Ipv4Set>>>,
    pub(crate) v6: ShardedCache<Arc<Subtree<Ipv6Set>>>,
    lookups: AtomicU64,
    compiles: AtomicU64,
    composed: AtomicU64,
    fallbacks: AtomicU64,
}

impl SubtreeMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SubtreeMemo::default()
    }

    /// The counters so far; they keep
    /// [`SubtreeMemoStats::check_conservation`]'s laws whenever no
    /// compile is in flight.
    pub fn stats(&self) -> SubtreeMemoStats {
        SubtreeMemoStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            composed: self.composed.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for SubtreeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeMemo")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// [`SubtreeMemo`] counters (both families). Which worker compiles a
/// target first is a race, so all four counters depend on the schedule
/// and vary from run to run — unlike [`CompilerStats`], which these stay
/// out of. A standalone compile that loses the insert race counts in
/// `compiles`, and the include/redirect recursions it consulted on the
/// way already count in `lookups` and `composed` (or `fallbacks`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, serde::Deserialize)]
pub struct SubtreeMemoStats {
    /// Include/redirect recursions that consulted the memo.
    pub lookups: u64,
    /// Targets compiled standalone (a lost insert race counts too).
    pub compiles: u64,
    /// Recursions answered by composing a memoized subtree.
    pub composed: u64,
    /// Recursions whose entry state could matter — an RFC 7208 limit in
    /// reach, a loop through the caller's stack — which took the direct
    /// walk.
    pub fallbacks: u64,
}

impl SubtreeMemoStats {
    /// The memo's laws, or an error naming the first one broken: every
    /// lookup composed a subtree or fell back to the direct walk
    /// (`composed + fallbacks == lookups`), and a lookup starts at most
    /// one standalone compile (`compiles <= lookups`). Sums over several
    /// memos keep them too.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.composed + self.fallbacks != self.lookups {
            return Err(format!("subtree composed + fallbacks != lookups: {self:?}"));
        }
        if self.compiles > self.lookups {
            return Err(format!("subtree compiles > lookups: {self:?}"));
        }
        Ok(())
    }

    /// The items these counters add to a telemetry line: the service's
    /// `[compiler]` line and the spoof matrix's `[spoof]` line.
    pub fn items(&self) -> Vec<StatItem> {
        vec![
            StatItem::count("subtree_lookups", self.lookups),
            StatItem::count("subtree_compiles", self.compiles),
            StatItem::count("subtree_composed", self.composed),
            StatItem::count("subtree_fallbacks", self.fallbacks),
        ]
    }
}

/// The memo as one walk sees it.
struct Shared<'a> {
    memo: &'a SubtreeMemo,
    /// Targets being compiled standalone up the call chain; an include
    /// cycle must not start one of them again.
    building: Vec<DomainName>,
    /// Standalone compiles the root walk may still start. Each starts
    /// from a fresh budget, so without an allowance a hostile zone's
    /// include fan-out would be explored to `fan-out ^ depth` where one
    /// evaluation visits `max_dns_lookups` targets at most; what a root
    /// leaves uncompiled, a later root compiles.
    builds_left: usize,
}

struct Sym<'a, R: ?Sized, F: Family> {
    resolver: &'a R,
    policy: &'a EvalPolicy,
    max_steps: usize,
    steps: usize,
    queries: usize,
    /// The placeholder context compile-time macro expansion runs under;
    /// only `%{d}` (current domain) and `%{v}` (family tag) ever read it.
    ctx: EvalContext,
    residual: Vec<(IpSet<F>, Residue)>,
    /// The subtree memo, when compiling through one.
    shared: Option<Shared<'a>>,
    /// `Some` while compiling a target standalone for the memo.
    footprint: Option<Footprint>,
    /// Whether the work cap tripped.
    cap_hit: bool,
}

/// The group a walk of `domain` starts from: every address, nothing
/// charged.
fn entry_group<F: Family>(domain: &DomainName) -> Group<IpSet<F>> {
    Group {
        set: IpSet::full(),
        lookups: 0,
        voids: 0,
        matched: None,
        final_domain: domain.clone(),
    }
}

fn compile_family<R: Resolver + ?Sized, F: Family>(
    resolver: &R,
    domain: &DomainName,
    config: &CompileConfig,
    memo: Option<&SubtreeMemo>,
) -> FamilyOut<IpSet<F>> {
    let shared = memo.map(|memo| Shared {
        memo,
        building: Vec::new(),
        builds_left: config.policy.max_dns_lookups,
    });
    let mut sym: Sym<'_, R, F> = Sym::new(resolver, &config.policy, config.max_steps, domain);
    sym.shared = shared;
    let init = vec![entry_group::<F>(domain)];
    let terminals = sym.eval_domain(domain, 0, true, &mut Vec::new(), init);
    if sym.cap_hit && memo.is_some() {
        // Composing charges an upper bound of the direct walk's steps,
        // so only the direct walk can say whether its own count trips
        // the cap.
        return compile_family::<R, F>(resolver, domain, config, None);
    }
    FamilyOut {
        terminals,
        residual: sym.residual,
        queries: sym.queries,
    }
}

/// `inner`, a group of a standalone walk, as the direct walk would have
/// left it had it entered with `entry`; `None` where the two are
/// disjoint.
fn compose_group<F: Family>(
    entry: &Group<IpSet<F>>,
    inner: &Group<IpSet<F>>,
) -> Option<Group<IpSet<F>>> {
    let set = entry.set.intersect(&inner.set);
    (!set.is_empty()).then(|| Group {
        set,
        lookups: entry.lookups + inner.lookups,
        voids: entry.voids + inner.voids,
        matched: inner.matched.clone().or_else(|| entry.matched.clone()),
        final_domain: inner.final_domain.clone(),
    })
}

impl<'a, R: Resolver + ?Sized, F: Family> Sym<'a, R, F> {
    /// A memo-less walk rooted at `domain`, nothing spent yet.
    fn new(resolver: &'a R, policy: &'a EvalPolicy, max_steps: usize, domain: &DomainName) -> Self {
        Sym {
            resolver,
            policy,
            max_steps,
            steps: 0,
            queries: 0,
            ctx: EvalContext::mail_from(F::UNSPECIFIED.into(), "compiler", domain.clone()),
            residual: Vec::new(),
            shared: None,
            footprint: None,
            cap_hit: false,
        }
    }

    /// Recurse into an include/redirect target: compose the memo's
    /// subtree when the entry state provably cannot matter, take the
    /// direct walk otherwise (and always without a memo).
    /// `merge_passes` is the `include:` view of the subtree.
    fn eval_target(
        &mut self,
        target: &DomainName,
        depth: usize,
        stack: &mut Vec<DomainName>,
        groups: Vec<Group<IpSet<F>>>,
        merge_passes: bool,
    ) -> Vec<Terminal<IpSet<F>>> {
        if let Some(memo) = self.shared.as_ref().map(|shared| shared.memo) {
            memo.lookups.fetch_add(1, Ordering::Relaxed);
            if let Some(subtree) = self.subtree(target) {
                if self.composable(&subtree, depth, stack, &groups) {
                    memo.composed.fetch_add(1, Ordering::Relaxed);
                    return self.compose(&subtree, depth, groups, merge_passes);
                }
            }
            memo.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.eval_domain(target, depth, false, stack, groups)
    }

    /// The memo's subtree for `target`, compiled here — outside the
    /// lock, first insert wins — when nobody has yet. `None` when
    /// `target` is being compiled up the call chain (an include cycle)
    /// or the root's allowance of standalone compiles is spent.
    fn subtree(&mut self, target: &DomainName) -> Option<Arc<Subtree<IpSet<F>>>> {
        let shared = self.shared.as_mut()?;
        let memo = shared.memo;
        if let Some(hit) = F::subtrees(memo).get(target) {
            return Some(hit);
        }
        if shared.building.contains(target) || shared.builds_left == 0 {
            return None;
        }
        memo.compiles.fetch_add(1, Ordering::Relaxed);
        let mut building = std::mem::take(&mut shared.building);
        building.push(target.clone());

        let mut sym: Sym<'_, R, F> = Sym::new(self.resolver, self.policy, self.max_steps, target);
        sym.shared = Some(Shared {
            memo,
            building,
            builds_left: shared.builds_left - 1,
        });
        sym.footprint = Some(Footprint::default());
        let init = vec![entry_group::<F>(target)];
        let terminals = sym.eval_domain(target, 0, false, &mut Vec::new(), init);

        if let Some(mut nested) = sym.shared.take() {
            nested.building.pop();
            *shared = nested;
        }

        let (passes, others): (Vec<_>, Vec<_>) = terminals
            .into_iter()
            .partition(|(_, outcome)| matches!(outcome, Ok(SpfResult::Pass)));
        let passes: Vec<Group<IpSet<F>>> = passes.into_iter().map(|(g, _)| g).collect();
        let merged_passes = merge_groups::<F>(
            passes
                .iter()
                .map(|g| Group {
                    matched: None,
                    final_domain: target.clone(),
                    ..g.clone()
                })
                .collect(),
        );
        let built = Arc::new(Subtree {
            passes,
            merged_passes,
            others,
            residual: sym.residual,
            footprint: sym.footprint.unwrap_or_default(),
            queries: sym.queries,
            steps: sym.steps,
        });
        Some(F::subtrees(memo).insert_if_absent(target, built))
    }

    /// Whether entering `subtree` at `depth` with `stack` and `groups`
    /// walks it exactly as its standalone compile did: no RFC 7208
    /// limit, work cap or loop check can come out differently. A
    /// subtree that tripped one of them standalone fails its sum here
    /// under every entry, since the peaks are taken before each check.
    fn composable(
        &self,
        subtree: &Subtree<IpSet<F>>,
        depth: usize,
        stack: &[DomainName],
        groups: &[Group<IpSet<F>>],
    ) -> bool {
        let footprint = &subtree.footprint;
        let entry_lookups = groups.iter().map(|g| g.lookups).max().unwrap_or(0);
        let entry_voids = groups.iter().map(|g| g.voids).max().unwrap_or(0);
        entry_lookups + footprint.peak_lookups <= self.policy.max_dns_lookups
            && entry_voids + footprint.peak_voids <= self.policy.max_void_lookups
            && depth + footprint.height <= self.policy.max_recursion_depth
            && self.steps + groups.len() * subtree.steps <= self.max_steps
            && !footprint.visited.iter().any(|d| stack.contains(d))
    }

    /// Lay a composable `subtree` over the incoming groups: sets
    /// intersected, counters added, the inner narrative kept where the
    /// subtree set one, its parked residues intersected the same way.
    fn compose(
        &mut self,
        subtree: &Subtree<IpSet<F>>,
        depth: usize,
        groups: Vec<Group<IpSet<F>>>,
        merge_passes: bool,
    ) -> Vec<Terminal<IpSet<F>>> {
        self.queries += subtree.queries;
        // Each incoming group splits at most as the whole space did.
        self.steps += groups.len() * subtree.steps;
        if let Some(footprint) = &mut self.footprint {
            let inner = &subtree.footprint;
            for g in &groups {
                footprint.peak_lookups = footprint.peak_lookups.max(g.lookups + inner.peak_lookups);
                footprint.peak_voids = footprint.peak_voids.max(g.voids + inner.peak_voids);
            }
            footprint.height = footprint.height.max(depth + inner.height);
            for d in &inner.visited {
                if !footprint.visited.contains(d) {
                    footprint.visited.push(d.clone());
                }
            }
        }
        let passes = if merge_passes {
            &subtree.merged_passes
        } else {
            &subtree.passes
        };
        let mut out = Vec::new();
        for g in &groups {
            for pass in passes {
                if let Some(composed) = compose_group::<F>(g, pass) {
                    out.push((composed, Ok(SpfResult::Pass)));
                }
            }
            for (inner, outcome) in &subtree.others {
                if let Some(composed) = compose_group::<F>(g, inner) {
                    out.push((composed, outcome.clone()));
                }
            }
            for (set, residue) in &subtree.residual {
                let hit = g.set.intersect(set);
                if !hit.is_empty() {
                    self.residual.push((hit, residue.clone()));
                }
            }
        }
        out
    }

    fn query(&mut self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
        self.queries += 1;
        self.resolver.query(name, rtype)
    }

    fn park_residue(
        &mut self,
        groups: Vec<Group<IpSet<F>>>,
        kind: ResidueKind,
        domain: &DomainName,
        term: String,
    ) {
        for g in groups {
            if !g.set.is_empty() {
                self.residual.push((
                    g.set,
                    Residue {
                        kind,
                        domain: domain.clone(),
                        term: term.clone(),
                    },
                ));
            }
        }
    }

    /// Charge one DNS-querying term against every group — the symbolic
    /// `EvalState::charge_lookup`. Groups whose budget trips become
    /// terminals; survivors are returned.
    fn charge_lookup(
        &mut self,
        groups: Vec<Group<IpSet<F>>>,
        local_counter: &mut usize,
        terminals: &mut Vec<Terminal<IpSet<F>>>,
    ) -> Vec<Group<IpSet<F>>> {
        *local_counter += 1;
        let mut survivors = Vec::new();
        for mut g in groups {
            g.lookups += 1;
            if let Some(footprint) = &mut self.footprint {
                footprint.peak_lookups = footprint.peak_lookups.max(g.lookups);
            }
            let used = match self.policy.accounting {
                crate::eval::LookupAccounting::GlobalRecursive => g.lookups,
                crate::eval::LookupAccounting::PerRecord => *local_counter,
            };
            if used > self.policy.max_dns_lookups {
                terminals.push((g, Err(EvalProblem::TooManyLookups { used })));
            } else {
                survivors.push(g);
            }
        }
        survivors
    }

    /// The symbolic `EvalState::check_void_budget`, applied after a
    /// mechanism to both its matched and unmatched groups.
    fn check_void_budget(
        &mut self,
        groups: Vec<Group<IpSet<F>>>,
        terminals: &mut Vec<Terminal<IpSet<F>>>,
    ) -> Vec<Group<IpSet<F>>> {
        let mut survivors = Vec::new();
        for g in groups {
            if let Some(footprint) = &mut self.footprint {
                footprint.peak_voids = footprint.peak_voids.max(g.voids);
            }
            if g.voids > self.policy.max_void_lookups {
                let used = g.voids;
                terminals.push((g, Err(EvalProblem::TooManyVoidLookups { used })));
            } else {
                survivors.push(g);
            }
        }
        survivors
    }

    /// Compile-time macro expansion. Only `%{d}`/`%{v}` (plus literal
    /// text and percent escapes) are compile-constant; session letters
    /// and IP-derived letters classify the term as residue.
    fn expand_compile(&mut self, ms: &MacroString, domain: &DomainName) -> ExpandOutcome {
        if ms.uses_session_macros() {
            return ExpandOutcome::Residue(ResidueKind::SessionMacro);
        }
        let ip_dependent = ms.tokens().iter().any(|t| match t {
            MacroToken::Expand(e) => {
                matches!(e.letter, MacroLetter::Ip | MacroLetter::ValidatedDomain)
            }
            _ => false,
        });
        if ip_dependent {
            return ExpandOutcome::Residue(ResidueKind::IpMacro);
        }
        match expand_domain(ms, &self.ctx, domain, None) {
            Ok(d) => ExpandOutcome::Ok(d),
            Err(_) => ExpandOutcome::Bad(EvalProblem::BadExpansion {
                text: ms.to_string(),
            }),
        }
    }

    /// The symbolic `EvalState::eval_domain` (always fresh — the verdict
    /// memo is the thing this compiler replaces).
    fn eval_domain(
        &mut self,
        domain: &DomainName,
        depth: usize,
        initial: bool,
        stack: &mut Vec<DomainName>,
        groups: Vec<Group<IpSet<F>>>,
    ) -> Vec<Terminal<IpSet<F>>> {
        if let Some(footprint) = &mut self.footprint {
            footprint.height = footprint.height.max(depth);
            if !footprint.visited.contains(domain) {
                footprint.visited.push(domain.clone());
            }
        }
        if depth > self.policy.max_recursion_depth {
            return groups
                .into_iter()
                .map(|g| (g, Err(EvalProblem::TooDeep)))
                .collect();
        }
        let mut groups = groups;
        for g in &mut groups {
            g.final_domain = domain.clone();
        }
        let record = match self.fetch_record(domain, initial, groups) {
            Ok((record, gs)) => {
                groups = gs;
                record
            }
            Err(terminals) => return terminals,
        };
        stack.push(domain.clone());
        let out = self.eval_record(&record, domain, depth, stack, groups);
        stack.pop();
        out
    }

    /// Fetch + select the SPF record — [`select_record`] over this walk's
    /// own counted query, read through the strict view and the
    /// evaluator's [`fetch_problem`], with the void lookup charged per
    /// group. `Err` carries the terminals when the fetch decides the
    /// outcome for every group.
    #[allow(clippy::type_complexity)]
    fn fetch_record(
        &mut self,
        domain: &DomainName,
        initial: bool,
        mut groups: Vec<Group<IpSet<F>>>,
    ) -> Result<(SpfRecord, Vec<Group<IpSet<F>>>), Vec<Terminal<IpSet<F>>>> {
        let answer = self.query(domain, RecordType::Txt);
        let (problem, void) = match select_record(&answer) {
            Ok((_, parsed)) => match parsed.strict() {
                Ok(record) => return Ok((record, groups)),
                Err(error) => (
                    EvalProblem::Syntax {
                        domain: domain.clone(),
                        error,
                    },
                    false,
                ),
            },
            Err(FetchFailure::Transient) => {
                // Transient (and refused — the evaluator maps both to
                // `temperror`): never freeze a transient fault into the
                // compiled artifact; let the live path re-query.
                self.park_residue(groups, ResidueKind::Transient, domain, "txt".to_string());
                return Err(Vec::new());
            }
            Err(failure) => (fetch_problem(failure, domain, initial), failure.is_void()),
        };
        let mut terminals = Vec::new();
        if void {
            for g in &mut groups {
                g.voids += 1;
            }
            groups = self.check_void_budget(groups, &mut terminals);
        }
        terminals.extend(groups.into_iter().map(|g| (g, Err(problem.clone()))));
        Err(terminals)
    }

    /// The symbolic `EvalState::eval_record`: walk terms in order, split
    /// groups at each mechanism, take the redirect when nothing matched.
    fn eval_record(
        &mut self,
        record: &SpfRecord,
        domain: &DomainName,
        depth: usize,
        stack: &mut Vec<DomainName>,
        mut groups: Vec<Group<IpSet<F>>>,
    ) -> Vec<Terminal<IpSet<F>>> {
        let mut terminals: Vec<Terminal<IpSet<F>>> = Vec::new();
        let mut local_counter = 0usize;
        let mut saw_all = false;
        for term in &record.terms {
            let Term::Directive(directive) = term else {
                continue;
            };
            if groups.is_empty() {
                break;
            }
            // Formatted once per directive: the residue detail and, on a
            // match, the one `Arc<str>` every matched group shares.
            let term_text = directive.to_string();
            self.steps += groups.len();
            if self.steps > self.max_steps {
                self.cap_hit = true;
                self.park_residue(groups, ResidueKind::OverBudget, domain, term_text);
                return terminals;
            }
            if matches!(directive.mechanism, Mechanism::All) {
                saw_all = true;
            }
            if directive.mechanism.counts_as_dns_lookup() {
                groups = self.charge_lookup(groups, &mut local_counter, &mut terminals);
                if groups.is_empty() {
                    continue;
                }
            }
            let out = self.eval_mechanism(directive, &term_text, domain, depth, stack, groups);
            terminals.extend(out.failed.into_iter().map(|(g, p)| (g, Err(p))));
            // The evaluator checks the void budget after every mechanism,
            // before acting on a match.
            let matched = self.check_void_budget(out.matched, &mut terminals);
            groups = self.check_void_budget(out.unmatched, &mut terminals);
            let result = qualifier_result(directive.qualifier);
            if !matched.is_empty() {
                let text: Arc<str> = Arc::from(term_text);
                for mut g in matched {
                    g.matched = Some(Arc::clone(&text));
                    g.final_domain = domain.clone();
                    terminals.push((g, Ok(result)));
                }
            }
            groups = merge_groups::<F>(groups);
        }

        if groups.is_empty() {
            return terminals;
        }
        if !saw_all {
            if let Some(target) = record.redirect() {
                groups = self.charge_lookup(groups, &mut local_counter, &mut terminals);
                if groups.is_empty() {
                    return terminals;
                }
                let redirect_text = format!("redirect={target}");
                match self.expand_compile(target, domain) {
                    ExpandOutcome::Residue(kind) => {
                        self.park_residue(groups, kind, domain, redirect_text);
                        return terminals;
                    }
                    ExpandOutcome::Bad(problem) => {
                        terminals.extend(groups.into_iter().map(|g| (g, Err(problem.clone()))));
                        return terminals;
                    }
                    ExpandOutcome::Ok(target_domain) => {
                        if stack.contains(&target_domain) {
                            let problem = EvalProblem::RedirectLoop {
                                domain: target_domain,
                            };
                            terminals.extend(groups.into_iter().map(|g| (g, Err(problem.clone()))));
                            return terminals;
                        }
                        let inner =
                            self.eval_target(&target_domain, depth + 1, stack, groups, false);
                        terminals.extend(inner.into_iter().map(|(g, outcome)| {
                            // RFC 7208 §6.1: a redirect target with no
                            // record is a permerror.
                            let outcome = match outcome {
                                Err(EvalProblem::NoRecord) => Err(EvalProblem::RecordNotFound {
                                    domain: target_domain.clone(),
                                    cause: NotFoundCause::NoSpfRecord,
                                }),
                                other => other,
                            };
                            (g, outcome)
                        }));
                        return terminals;
                    }
                }
            }
        }
        terminals.extend(groups.into_iter().map(|g| (g, Ok(SpfResult::Neutral))));
        terminals
    }

    /// The symbolic `EvalState::matches` for one directive.
    fn eval_mechanism(
        &mut self,
        directive: &spf_types::Directive,
        term_text: &str,
        domain: &DomainName,
        depth: usize,
        stack: &mut Vec<DomainName>,
        groups: Vec<Group<IpSet<F>>>,
    ) -> MatchOut<IpSet<F>> {
        match &directive.mechanism {
            Mechanism::All => MatchOut {
                matched: groups,
                unmatched: Vec::new(),
                failed: Vec::new(),
            },
            Mechanism::Ip4 { cidr } => split_groups::<F>(groups, &F::ip4_set(cidr)),
            Mechanism::Ip6 { cidr } => split_groups::<F>(groups, &F::ip6_set(cidr)),
            Mechanism::A {
                domain: target,
                cidr,
            } => match self.resolve_target(target.as_ref(), domain, term_text, groups) {
                Ok((name, gs)) => self.address_mechanism(&name, cidr, term_text, domain, gs),
                Err(out) => out,
            },
            Mechanism::Mx {
                domain: target,
                cidr,
            } => match self.resolve_target(target.as_ref(), domain, term_text, groups) {
                Ok((name, gs)) => self.mx_mechanism(&name, cidr, term_text, domain, gs),
                Err(out) => out,
            },
            Mechanism::Ptr { .. } => {
                self.park_residue(groups, ResidueKind::Ptr, domain, term_text.to_string());
                MatchOut::empty()
            }
            Mechanism::Exists { .. } => {
                self.park_residue(groups, ResidueKind::Exists, domain, term_text.to_string());
                MatchOut::empty()
            }
            Mechanism::Include { domain: target } => {
                match self.expand_compile(target, domain) {
                    ExpandOutcome::Residue(kind) => {
                        self.park_residue(groups, kind, domain, term_text.to_string());
                        MatchOut::empty()
                    }
                    ExpandOutcome::Bad(problem) => MatchOut {
                        matched: Vec::new(),
                        unmatched: Vec::new(),
                        failed: groups.into_iter().map(|g| (g, problem.clone())).collect(),
                    },
                    ExpandOutcome::Ok(target_domain) => {
                        if stack.contains(&target_domain) {
                            let problem = EvalProblem::IncludeLoop {
                                domain: target_domain,
                            };
                            return MatchOut {
                                matched: Vec::new(),
                                unmatched: Vec::new(),
                                failed: groups.into_iter().map(|g| (g, problem.clone())).collect(),
                            };
                        }
                        let inner =
                            self.eval_target(&target_domain, depth + 1, stack, groups, true);
                        let mut out = MatchOut::empty();
                        for (g, outcome) in inner {
                            // RFC 7208 §5.2 result table.
                            match outcome {
                                Ok(SpfResult::Pass) => out.matched.push(g),
                                Ok(SpfResult::Fail | SpfResult::SoftFail | SpfResult::Neutral) => {
                                    out.unmatched.push(g)
                                }
                                Ok(SpfResult::TempError) => out.failed.push((
                                    g,
                                    EvalProblem::DnsTransient {
                                        domain: target_domain.clone(),
                                    },
                                )),
                                Ok(SpfResult::None | SpfResult::PermError)
                                | Err(EvalProblem::NoRecord) => out.failed.push((
                                    g,
                                    EvalProblem::RecordNotFound {
                                        domain: target_domain.clone(),
                                        cause: NotFoundCause::NoSpfRecord,
                                    },
                                )),
                                Err(e) => out.failed.push((g, e)),
                            }
                        }
                        out.unmatched = merge_groups::<F>(out.unmatched);
                        out
                    }
                }
            }
        }
    }

    /// Resolve an optional explicit `a:`/`mx:` target. `Err` carries the
    /// finished triage when expansion residues or fails.
    #[allow(clippy::type_complexity)]
    fn resolve_target(
        &mut self,
        target: Option<&MacroString>,
        domain: &DomainName,
        term_text: &str,
        groups: Vec<Group<IpSet<F>>>,
    ) -> Result<(DomainName, Vec<Group<IpSet<F>>>), MatchOut<IpSet<F>>> {
        match target {
            None => Ok((domain.clone(), groups)),
            Some(ms) => match self.expand_compile(ms, domain) {
                ExpandOutcome::Ok(name) => Ok((name, groups)),
                ExpandOutcome::Residue(kind) => {
                    self.park_residue(groups, kind, domain, term_text.to_string());
                    Err(MatchOut::empty())
                }
                ExpandOutcome::Bad(problem) => Err(MatchOut {
                    matched: Vec::new(),
                    unmatched: Vec::new(),
                    failed: groups.into_iter().map(|g| (g, problem.clone())).collect(),
                }),
            },
        }
    }

    /// The symbolic `a` mechanism (and the per-exchange step of `mx`):
    /// one family-typed address query, a void charge when it comes back
    /// empty, a match set otherwise.
    fn address_mechanism(
        &mut self,
        name: &DomainName,
        cidr: &DualCidr,
        term_text: &str,
        record_domain: &DomainName,
        mut groups: Vec<Group<IpSet<F>>>,
    ) -> MatchOut<IpSet<F>> {
        match self.query(name, F::RTYPE) {
            Ok(rrs) => {
                if rrs.is_empty() {
                    for g in &mut groups {
                        g.voids += 1;
                    }
                    return MatchOut {
                        matched: Vec::new(),
                        unmatched: groups,
                        failed: Vec::new(),
                    };
                }
                let mset = rrs
                    .iter()
                    .filter_map(|rr| F::record_addr(&rr.data))
                    .map(|addr| F::network(addr, cidr))
                    .collect();
                split_groups::<F>(groups, &mset)
            }
            Err(DnsError::NxDomain) => {
                for g in &mut groups {
                    g.voids += 1;
                }
                MatchOut {
                    matched: Vec::new(),
                    unmatched: groups,
                    failed: Vec::new(),
                }
            }
            Err(e) if e.is_transient() => {
                // The live evaluator raises `DnsTransient` here; compiled
                // artifacts never freeze a transient fault.
                self.park_residue(
                    groups,
                    ResidueKind::Transient,
                    record_domain,
                    term_text.to_string(),
                );
                MatchOut::empty()
            }
            Err(_) => MatchOut {
                matched: Vec::new(),
                unmatched: groups,
                failed: Vec::new(),
            },
        }
    }

    /// The symbolic `mx` mechanism. Exchanges are walked **sequentially**
    /// because the concrete evaluator short-circuits on the first
    /// matching exchange: an address matching exchange 1 never observes
    /// void charges from exchange 2's empty RRset, so the void counters
    /// are genuinely IP-dependent within one `mx` term and the match
    /// region must leave the walk at each step.
    fn mx_mechanism(
        &mut self,
        name: &DomainName,
        cidr: &DualCidr,
        term_text: &str,
        record_domain: &DomainName,
        mut groups: Vec<Group<IpSet<F>>>,
    ) -> MatchOut<IpSet<F>> {
        let exchanges = match self.query(name, RecordType::Mx) {
            Ok(rrs) => {
                if rrs.is_empty() {
                    for g in &mut groups {
                        g.voids += 1;
                    }
                }
                rrs
            }
            Err(DnsError::NxDomain) => {
                for g in &mut groups {
                    g.voids += 1;
                }
                RrSet::EMPTY
            }
            Err(e) if e.is_transient() => {
                self.park_residue(
                    groups,
                    ResidueKind::Transient,
                    record_domain,
                    term_text.to_string(),
                );
                return MatchOut::empty();
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
        if names.len() > 10 {
            let problem = EvalProblem::TooManyMxRecords {
                domain: name.clone(),
            };
            return MatchOut {
                matched: Vec::new(),
                unmatched: Vec::new(),
                failed: groups.into_iter().map(|g| (g, problem.clone())).collect(),
            };
        }
        names.dedup();

        let mut out = MatchOut::empty();
        for exchange in names {
            if groups.is_empty() {
                // Every address matched an earlier exchange: the concrete
                // evaluator never reaches this query for any sender.
                break;
            }
            let step = self.address_mechanism(&exchange, cidr, term_text, record_domain, groups);
            out.matched.extend(step.matched);
            out.failed.extend(step.failed);
            groups = step.unmatched;
        }
        out.unmatched = groups;
        out
    }
}

/// Split every group against a mechanism's match set.
fn split_groups<F: Family>(groups: Vec<Group<IpSet<F>>>, mset: &IpSet<F>) -> MatchOut<IpSet<F>> {
    let mut out = MatchOut::empty();
    for g in groups {
        let hit = g.set.intersect(mset);
        let miss = g.set.difference(mset);
        if !hit.is_empty() {
            out.matched.push(Group {
                set: hit,
                ..g.clone()
            });
        }
        if !miss.is_empty() {
            out.unmatched.push(Group { set: miss, ..g });
        }
    }
    out
}

/// Coalesce groups whose evaluator state is identical — include returns
/// routinely hand back several regions that re-converged.
fn merge_groups<F: Family>(groups: Vec<Group<IpSet<F>>>) -> Vec<Group<IpSet<F>>> {
    let mut out: Vec<Group<IpSet<F>>> = Vec::new();
    for g in groups {
        if g.set.is_empty() {
            continue;
        }
        match out.iter_mut().find(|e| {
            e.lookups == g.lookups
                && e.voids == g.voids
                && e.matched == g.matched
                && e.final_domain == g.final_domain
        }) {
            Some(existing) => existing.set.union_with(&g.set),
            None => out.push(g),
        }
    }
    out
}

/// Turn one family's terminals + residual regions into sorted table rows,
/// deduplicating outcome templates and residue records globally.
fn flatten_family<F: Family>(
    terminals: Vec<Terminal<IpSet<F>>>,
    residual: Vec<(IpSet<F>, Residue)>,
    outcomes: &mut Vec<Evaluation>,
    residues: &mut Vec<Residue>,
) -> Vec<RangeEntry<F::Bound>> {
    let mut entries: Vec<RangeEntry<F::Bound>> = Vec::new();
    for (group, outcome) in terminals {
        if group.set.is_empty() {
            continue;
        }
        let (result, problem) = match outcome {
            Ok(r) => (r, None),
            Err(p) => (problem_result(&p), Some(p)),
        };
        let evaluation = Evaluation {
            result,
            dns_lookups: group.lookups,
            void_lookups: group.voids,
            matched_directive: group.matched,
            final_domain: group.final_domain,
            problem,
            explanation: None,
        };
        let idx = match outcomes.iter().position(|o| *o == evaluation) {
            Some(i) => i as u32,
            None => {
                outcomes.push(evaluation);
                (outcomes.len() - 1) as u32
            }
        };
        for (lo, hi) in group.set.iter_bounds() {
            entries.push(RangeEntry { lo, hi, idx });
        }
    }
    for (set, residue) in residual {
        if set.is_empty() {
            continue;
        }
        if !residues.contains(&residue) {
            residues.push(residue);
        }
        for (lo, hi) in set.iter_bounds() {
            entries.push(RangeEntry {
                lo,
                hi,
                idx: RESIDUE_IDX,
            });
        }
    }
    entries.sort_by_key(|e| e.lo);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::check_host;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    fn txt(store: &ZoneStore, name: &str, text: &str) {
        store.add_txt(&dom(name), text);
    }

    fn a(store: &ZoneStore, name: &str, addr: &str) {
        store.add_a(&dom(name), addr.parse().unwrap());
    }

    fn mx(store: &ZoneStore, name: &str, pref: u16, exchange: &str) {
        store.add_mx(&dom(name), pref, &dom(exchange));
    }

    fn compile(resolver: &ZoneResolver, domain: &str) -> CompiledPolicy {
        compile_policy(resolver, &dom(domain), &CompileConfig::default())
    }

    /// Byte-compare the compiled verdict against bare check_host for a
    /// set of probe IPs (compiled must cover them all).
    fn assert_identical(resolver: &ZoneResolver, domain: &str, probes: &[IpAddr]) {
        let compiled = compile(resolver, domain);
        compiled.assert_invariants();
        let policy = EvalPolicy::default();
        for &ip in probes {
            let ctx = EvalContext::mail_from(ip, "probe", dom(domain));
            let live = check_host(resolver, &ctx, &dom(domain), &policy);
            match compiled.verdict(ip) {
                Some(fast) => assert_eq!(fast, live, "diverged at {ip} for {domain}"),
                None => panic!("{domain} left {ip} residual: {:?}", compiled.residues()),
            }
        }
    }

    fn v4(s: &str) -> IpAddr {
        IpAddr::V4(s.parse::<Ipv4Addr>().unwrap())
    }

    #[test]
    fn static_record_compiles_fully_and_matches_check_host() {
        let store = Arc::new(ZoneStore::new());
        txt(
            &store,
            "puffin.test",
            "v=spf1 ip4:192.0.2.0/24 ip6:2001:db8::/32 -all",
        );
        let resolver = ZoneResolver::new(store);
        let compiled = compile(&resolver, "puffin.test");
        assert_eq!(compiled.compilability(), Compilability::Full);
        assert!(compiled.residues().is_empty());
        assert_identical(
            &resolver,
            "puffin.test",
            &[
                v4("192.0.2.0"),
                v4("192.0.2.255"),
                v4("192.0.3.0"),
                v4("0.0.0.0"),
                v4("255.255.255.255"),
                "2001:db8::1".parse().unwrap(),
                "2002::1".parse().unwrap(),
            ],
        );
    }

    #[test]
    fn include_chain_and_a_mx_compile_exactly() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "org.test", "v=spf1 mx include:_spf.org.test ~all");
        txt(
            &store,
            "_spf.org.test",
            "v=spf1 a:relay.org.test/28 ip4:198.51.100.7 -all",
        );
        mx(&store, "org.test", 10, "mail1.org.test");
        mx(&store, "org.test", 20, "mail2.org.test");
        a(&store, "mail1.org.test", "203.0.113.10");
        a(&store, "mail2.org.test", "203.0.113.20");
        a(&store, "relay.org.test", "198.51.100.65");
        let resolver = ZoneResolver::new(store);
        let compiled = compile(&resolver, "org.test");
        assert_eq!(compiled.compilability(), Compilability::Full);
        assert_identical(
            &resolver,
            "org.test",
            &[
                v4("203.0.113.10"),
                v4("203.0.113.20"),
                v4("203.0.113.21"),
                v4("198.51.100.64"),
                v4("198.51.100.79"),
                v4("198.51.100.7"),
                v4("10.0.0.1"),
                "2001:db8::9".parse().unwrap(),
            ],
        );
    }

    #[test]
    fn mx_void_charges_stay_per_address_exact() {
        // mail1 has no A record (void); addresses matching mail0 exit
        // before observing it, so void counts differ across the space.
        let store = Arc::new(ZoneStore::new());
        txt(&store, "mixed.test", "v=spf1 mx ?all");
        mx(&store, "mixed.test", 5, "mail0.mixed.test");
        mx(&store, "mixed.test", 10, "mail1.mixed.test");
        mx(&store, "mixed.test", 20, "mail2.mixed.test");
        a(&store, "mail0.mixed.test", "192.0.2.1");
        store.add_empty_name(&dom("mail1.mixed.test"));
        a(&store, "mail2.mixed.test", "192.0.2.9");
        let resolver = ZoneResolver::new(store);
        assert_identical(
            &resolver,
            "mixed.test",
            &[v4("192.0.2.1"), v4("192.0.2.9"), v4("192.0.2.77")],
        );
    }

    #[test]
    fn session_macro_ip_macro_exists_and_ptr_are_residues() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "s.test", "v=spf1 include:%{o}.spf.test -all");
        txt(&store, "i.test", "v=spf1 exists:%{i}.rbl.test -all");
        txt(&store, "e.test", "v=spf1 exists:gate.test -all");
        txt(&store, "p.test", "v=spf1 ptr -all");
        let resolver = ZoneResolver::new(store);
        for (name, kind) in [
            ("s.test", ResidueKind::SessionMacro),
            ("i.test", ResidueKind::Exists),
            ("e.test", ResidueKind::Exists),
            ("p.test", ResidueKind::Ptr),
        ] {
            let compiled = compile(&resolver, name);
            compiled.assert_invariants();
            assert_eq!(compiled.compilability(), Compilability::Residual, "{name}");
            assert!(
                compiled.residues().iter().any(|r| r.kind == kind),
                "{name}: {:?}",
                compiled.residues()
            );
            assert_eq!(compiled.verdict(v4("1.2.3.4")), None);
        }
        // An a: target with %{i} residues as IpMacro specifically.
        txt(resolver.store(), "im.test", "v=spf1 a:%{i}.fwd.test -all");
        let compiled = compile(&resolver, "im.test");
        assert!(compiled
            .residues()
            .iter()
            .any(|r| r.kind == ResidueKind::IpMacro));
    }

    #[test]
    fn partial_compilation_splits_static_prefix_from_residue() {
        let store = Arc::new(ZoneStore::new());
        txt(
            &store,
            "half.test",
            "v=spf1 ip4:192.0.2.0/24 exists:gate.test -all",
        );
        let resolver = ZoneResolver::new(store);
        let compiled = compile(&resolver, "half.test");
        compiled.assert_invariants();
        assert_eq!(compiled.compilability(), Compilability::Partial);
        // The static prefix still answers.
        let ctx = EvalContext::mail_from(v4("192.0.2.5"), "probe", dom("half.test"));
        let live = check_host(&resolver, &ctx, &dom("half.test"), &EvalPolicy::default());
        assert_eq!(compiled.verdict(v4("192.0.2.5")), Some(live));
        // Everything past the exists falls back.
        assert_eq!(compiled.verdict(v4("10.0.0.1")), None);
    }

    #[test]
    fn budget_trips_compile_to_exact_counters() {
        // Eleven lookup terms: the 11th charge trips TooManyLookups for
        // every address that reaches it.
        let store = Arc::new(ZoneStore::new());
        let mut rec = String::from("v=spf1");
        for i in 0..11 {
            txt(&store, &format!("inc{i}.test"), "v=spf1 ?all");
            rec.push_str(&format!(" include:inc{i}.test"));
        }
        rec.push_str(" -all");
        txt(&store, "deep.test", &rec);
        let resolver = ZoneResolver::new(store);
        assert_identical(&resolver, "deep.test", &[v4("9.9.9.9")]);

        // Void-lookup boundary: three NXDOMAIN a-targets trip the 2-void
        // limit exactly at the third.
        let store2 = Arc::new(ZoneStore::new());
        txt(
            &store2,
            "voids.test",
            "v=spf1 a:gone1.test a:gone2.test a:gone3.test +all",
        );
        let resolver2 = ZoneResolver::new(store2);
        assert_identical(&resolver2, "voids.test", &[v4("8.8.8.8")]);
    }

    #[test]
    fn loops_no_record_and_syntax_compile_to_errors() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "loop.test", "v=spf1 include:loop.test -all");
        txt(&store, "rloop.test", "v=spf1 redirect=rloop.test");
        txt(&store, "bad.test", "v=spf1 ip4:999.0.0.1 -all");
        txt(&store, "norec.test", "not spf");
        store.add_empty_name(&dom("empty.test"));
        let resolver = ZoneResolver::new(store);
        for name in [
            "loop.test",
            "rloop.test",
            "bad.test",
            "norec.test",
            "empty.test",
            "missing.test",
        ] {
            assert_identical(&resolver, name, &[v4("4.4.4.4")]);
        }
    }

    #[test]
    fn redirect_and_neutral_fallthrough_keep_inner_state() {
        // include → inner -all matched (no outer match): the concrete
        // evaluator leaves matched/final_domain pointing into the include
        // subtree when the outer walk falls through to Neutral.
        let store = Arc::new(ZoneStore::new());
        txt(&store, "outer.test", "v=spf1 include:inner.test");
        txt(&store, "inner.test", "v=spf1 ip4:192.0.2.1 -all");
        txt(&store, "redir.test", "v=spf1 redirect=target.test");
        txt(&store, "target.test", "v=spf1 ip4:198.51.100.1 -all");
        let resolver = ZoneResolver::new(store);
        assert_identical(&resolver, "outer.test", &[v4("192.0.2.1"), v4("192.0.2.2")]);
        assert_identical(
            &resolver,
            "redir.test",
            &[v4("198.51.100.1"), v4("198.51.100.2")],
        );
    }

    #[test]
    fn explanation_policies_are_never_compiled() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "exp.test", "v=spf1 -all exp=why.test");
        let resolver = ZoneResolver::new(store);
        let policy = EvalPolicy {
            fetch_explanation: true,
            ..EvalPolicy::default()
        };
        let compiled = compile_policy(
            &resolver,
            &dom("exp.test"),
            &CompileConfig::with_policy(policy),
        );
        compiled.assert_invariants();
        assert_eq!(compiled.compilability(), Compilability::Residual);
        assert_eq!(compiled.residues()[0].kind, ResidueKind::Explanation);
        assert_eq!(compiled.verdict(v4("1.1.1.1")), None);
    }

    #[test]
    fn transient_fetch_is_residue_not_frozen_temperror() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "flaky.test", "v=spf1 -all");
        store.set_fault(&dom("flaky.test"), spf_dns::ZoneFault::Timeout);
        let resolver = ZoneResolver::new(store);
        let compiled = compile(&resolver, "flaky.test");
        compiled.assert_invariants();
        assert_eq!(compiled.compilability(), Compilability::Residual);
        assert_eq!(compiled.residues()[0].kind, ResidueKind::Transient);
    }

    #[test]
    fn work_cap_degrades_to_overbudget_residue() {
        let store = Arc::new(ZoneStore::new());
        txt(
            &store,
            "big.test",
            "v=spf1 ip4:10.0.0.0/8 ip4:11.0.0.0/8 -all",
        );
        let resolver = ZoneResolver::new(store);
        let config = CompileConfig {
            max_steps: 1,
            ..CompileConfig::default()
        };
        let compiled = compile_policy(&resolver, &dom("big.test"), &config);
        compiled.assert_invariants();
        assert!(compiled
            .residues()
            .iter()
            .any(|r| r.kind == ResidueKind::OverBudget));
        // Whatever is residual still answers correctly via fallback
        // (None), and anything compiled is still exact.
        let ctx = EvalContext::mail_from(v4("10.1.2.3"), "probe", dom("big.test"));
        let live = check_host(&resolver, &ctx, &dom("big.test"), &EvalPolicy::default());
        if let Some(fast) = compiled.verdict(v4("10.1.2.3")) {
            assert_eq!(fast, live);
        }
    }

    #[test]
    fn per_record_accounting_compiles_identically_too() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "pr.test", "v=spf1 include:a.pr.test -all");
        txt(
            &store,
            "a.pr.test",
            "v=spf1 a:h1.pr.test a:h2.pr.test a:h3.pr.test ?all",
        );
        a(&store, "h1.pr.test", "192.0.2.10");
        a(&store, "h2.pr.test", "192.0.2.20");
        a(&store, "h3.pr.test", "192.0.2.30");
        let resolver = ZoneResolver::new(store);
        let policy = EvalPolicy {
            accounting: crate::eval::LookupAccounting::PerRecord,
            ..EvalPolicy::default()
        };
        let compiled = compile_policy(
            &resolver,
            &dom("pr.test"),
            &CompileConfig::with_policy(policy),
        );
        compiled.assert_invariants();
        for ip in [v4("192.0.2.10"), v4("192.0.2.20"), v4("192.0.2.35")] {
            let ctx = EvalContext::mail_from(ip, "probe", dom("pr.test"));
            let live = check_host(&resolver, &ctx, &dom("pr.test"), &policy);
            assert_eq!(compiled.verdict(ip), Some(live), "{ip}");
        }
    }

    // -----------------------------------------------------------------
    // Shared subtrees: where the entry state bites, and where it cannot.
    // -----------------------------------------------------------------

    /// `domain` through `memo` must be the same verdict function, the
    /// same residue set and the same compilability as the memo-less
    /// walk, and every table answer must be bare `check_host`'s.
    fn assert_shared_identical(
        resolver: &ZoneResolver,
        domain: &str,
        policy: EvalPolicy,
        memo: &SubtreeMemo,
    ) {
        let config = CompileConfig::with_policy(policy);
        let shared = compile_policy_shared(resolver, &dom(domain), &config, memo);
        let direct = compile_policy(resolver, &dom(domain), &config);
        shared.assert_invariants();
        assert_eq!(shared.compilability(), direct.compilability(), "{domain}");
        let residue_set = |p: &CompiledPolicy| -> std::collections::HashSet<Residue> {
            p.residues().iter().cloned().collect()
        };
        assert_eq!(residue_set(&shared), residue_set(&direct), "{domain}");
        // Rows tile the space, so the ends of every row of both tables
        // are both sides of every boundary of either.
        let bounds = shared.row_bounds().chain(direct.row_bounds());
        for ip in bounds.flat_map(|(lo, hi)| [lo, hi]) {
            let fast = shared.verdict(ip);
            assert_eq!(fast, direct.verdict(ip), "{domain} from {ip}");
            if let Some(fast) = fast {
                let ctx = EvalContext::mail_from(ip, "probe", dom(domain));
                let live = check_host(resolver, &ctx, &dom(domain), &policy);
                assert_eq!(fast, live, "{domain} from {ip}");
            }
        }
        let stats = memo.stats();
        assert_eq!(stats.composed + stats.fallbacks, stats.lookups);
        assert!(stats.compiles <= stats.lookups);
    }

    /// One provider subtree, composed into a plain customer and then
    /// reached with an entry state under which one of RFC 7208's limits
    /// (or a loop check) comes out differently inside it: each case must
    /// equal `check_host` and must have taken the direct walk.
    #[test]
    fn entry_states_that_bite_take_the_direct_walk() {
        let store = Arc::new(ZoneStore::new());
        // Filler includes: one charged lookup each, never a match.
        let mut nine_in = String::from("v=spf1");
        for i in 0..8 {
            txt(&store, &format!("n{i}.test"), "v=spf1 ?all");
            nine_in.push_str(&format!(" include:n{i}.test"));
        }
        a(&store, "h1.prov.test", "192.0.2.10");
        a(&store, "h2.prov.test", "192.0.2.20");
        txt(
            &store,
            "prov.test",
            "v=spf1 ip4:198.51.100.0/24 a:h1.prov.test a:h2.prov.test ~all",
        );
        txt(&store, "plain.test", "v=spf1 include:prov.test -all");
        // (a) Nine lookups charged on entry: the second `a:` inside the
        // provider is the eleventh.
        txt(
            &store,
            "late.test",
            &format!("{nine_in} include:prov.test -all"),
        );
        // (b) Two voids on entry, a void `a:` inside.
        txt(
            &store,
            "vprov.test",
            "v=spf1 ip4:198.51.100.0/24 a:gone3.test ~all",
        );
        txt(&store, "vplain.test", "v=spf1 include:vprov.test -all");
        txt(
            &store,
            "voided.test",
            "v=spf1 a:gone1.test a:gone2.test include:vprov.test -all",
        );
        // (c) The provider's own include lands one past the depth limit.
        txt(&store, "leaf.test", "v=spf1 ip4:203.0.113.0/24 -all");
        txt(
            &store,
            "dprov.test",
            "v=spf1 ip4:198.51.100.0/24 include:leaf.test ~all",
        );
        txt(&store, "dplain.test", "v=spf1 include:dprov.test -all");
        txt(&store, "mid.test", "v=spf1 include:dprov.test -all");
        txt(&store, "deep.test", "v=spf1 include:mid.test -all");
        // (d) The provider includes the ancestor that includes it.
        txt(
            &store,
            "lprov.test",
            "v=spf1 ip4:198.51.100.0/24 include:anc.test ~all",
        );
        txt(&store, "anc.test", "v=spf1 include:lprov.test -all");
        // (e) A two-cycle, one end of it also compiled as a root.
        txt(
            &store,
            "cyca.test",
            "v=spf1 ip4:192.0.2.0/24 include:cycb.test -all",
        );
        txt(
            &store,
            "cycb.test",
            "v=spf1 ip4:198.51.100.0/24 include:cyca.test -all",
        );
        txt(&store, "cycroot.test", "v=spf1 include:cyca.test -all");
        let resolver = ZoneResolver::new(store);

        let shallow = EvalPolicy {
            max_recursion_depth: 2,
            ..EvalPolicy::default()
        };
        let per_record = EvalPolicy {
            accounting: crate::eval::LookupAccounting::PerRecord,
            ..EvalPolicy::default()
        };
        // (customer that composes the subtree, customers whose entry
        // bites, the policy both compile under)
        let cases: [(&str, &str, &[&str], EvalPolicy); 6] = [
            ("a", "plain.test", &["late.test"], EvalPolicy::default()),
            ("b", "vplain.test", &["voided.test"], EvalPolicy::default()),
            ("c", "dplain.test", &["deep.test"], shallow),
            ("d", "plain.test", &["anc.test"], EvalPolicy::default()),
            (
                "e",
                "plain.test",
                &["cycroot.test", "cyca.test", "cycb.test"],
                EvalPolicy::default(),
            ),
            // (f) Per-record accounting never trips here, but the
            // global counter the verdict reports still passes ten.
            ("f", "plain.test", &["late.test"], per_record),
        ];
        for (case, composes, bites, policy) in cases {
            let memo = SubtreeMemo::new();
            assert_shared_identical(&resolver, composes, policy, &memo);
            let before = memo.stats();
            assert!(before.composed > 0, "({case}) {composes} must compose");
            assert_eq!(before.fallbacks, 0, "({case}) {composes}");
            for domain in bites {
                assert_shared_identical(&resolver, domain, policy, &memo);
            }
            assert!(
                memo.stats().fallbacks > before.fallbacks,
                "({case}) {bites:?} must fall back: {:?}",
                memo.stats()
            );
        }
    }

    /// Subtrees that park residues — an IP macro, an `exists`, a
    /// transient fault — composed onto two incoming groups: the residual
    /// regions and the residue records are the direct walk's.
    #[test]
    fn residues_inside_a_shared_subtree_compose_exactly() {
        let store = Arc::new(ZoneStore::new());
        // Leaves two unmatched groups behind, told apart by narrative.
        txt(&store, "split.test", "v=spf1 -ip4:10.0.0.0/8 ~all");
        txt(
            &store,
            "iprov.test",
            "v=spf1 ip4:198.51.100.0/24 a:%{i}.fwd.test -all",
        );
        txt(
            &store,
            "eprov.test",
            "v=spf1 ip4:198.51.100.0/24 exists:gate.test -all",
        );
        txt(
            &store,
            "tprov.test",
            "v=spf1 ip4:198.51.100.0/24 a:flaky.test -all",
        );
        store.set_fault(&dom("flaky.test"), spf_dns::ZoneFault::Timeout);
        for (customer, provider) in [
            ("icust.test", "iprov.test"),
            ("ecust.test", "eprov.test"),
            ("tcust.test", "tprov.test"),
        ] {
            txt(
                &store,
                customer,
                &format!("v=spf1 include:split.test include:{provider} -all"),
            );
        }
        let resolver = ZoneResolver::new(store);
        let memo = SubtreeMemo::new();
        for (customer, kind) in [
            ("icust.test", ResidueKind::IpMacro),
            ("ecust.test", ResidueKind::Exists),
            ("tcust.test", ResidueKind::Transient),
        ] {
            assert_shared_identical(&resolver, customer, EvalPolicy::default(), &memo);
            let shared =
                compile_policy_shared(&resolver, &dom(customer), &CompileConfig::default(), &memo);
            assert_eq!(shared.compilability(), Compilability::Partial);
            assert!(shared.residues().iter().all(|r| r.kind == kind));
            assert_eq!(shared.verdict(v4("10.1.1.1")), None);
            assert_eq!(shared.verdict(v4("11.1.1.1")), None);
            assert!(shared.verdict(v4("198.51.100.9")).is_some());
        }
        let stats = memo.stats();
        assert_eq!(stats.fallbacks, 0, "{stats:?}");
        // split.test and the three providers, once per family.
        assert_eq!(stats.compiles, 8, "{stats:?}");
    }

    /// Nested standalone compiles each start with a fresh budget and
    /// depth, so nothing in RFC 7208 ends a long include chain for
    /// them; the per-root allowance does.
    #[test]
    fn a_long_include_chain_compiles_a_bounded_number_of_subtrees() {
        let store = Arc::new(ZoneStore::new());
        for i in 0..60 {
            txt(
                &store,
                &format!("c{i}.test"),
                &format!("v=spf1 include:c{}.test -all", i + 1),
            );
        }
        txt(&store, "c60.test", "v=spf1 ip4:198.51.100.0/24 -all");
        let resolver = ZoneResolver::new(store);
        let memo = SubtreeMemo::new();
        assert_shared_identical(&resolver, "c0.test", EvalPolicy::default(), &memo);
        let stats = memo.stats();
        let per_family = EvalPolicy::default().max_dns_lookups as u64;
        assert!(stats.compiles <= 2 * per_family, "{stats:?}");
        // What one root left uncompiled, a later one compiles.
        assert_shared_identical(&resolver, "c9.test", EvalPolicy::default(), &memo);
        assert!(memo.stats().compiles > stats.compiles);
    }

    /// The work cap counts `(group × term)` steps from the root, so a
    /// subtree that fits the cap on its own may not fit behind its
    /// caller's steps: the residue must be the direct walk's.
    #[test]
    fn the_work_cap_behind_the_callers_steps_takes_the_direct_walk() {
        let store = Arc::new(ZoneStore::new());
        txt(
            &store,
            "prov.test",
            "v=spf1 ip4:198.51.100.0/24 ip4:203.0.113.0/24 ip4:192.0.2.0/24 -all",
        );
        txt(&store, "plain.test", "v=spf1 include:prov.test");
        txt(
            &store,
            "late.test",
            "v=spf1 ip4:10.0.0.0/8 ip4:11.0.0.0/8 include:prov.test",
        );
        let resolver = ZoneResolver::new(store);
        let config = CompileConfig {
            max_steps: 5,
            ..CompileConfig::default()
        };
        let memo = SubtreeMemo::new();
        for (domain, over_budget) in [("plain.test", false), ("late.test", true)] {
            let shared = compile_policy_shared(&resolver, &dom(domain), &config, &memo);
            let direct = compile_policy(&resolver, &dom(domain), &config);
            shared.assert_invariants();
            assert_eq!(shared.residues(), direct.residues(), "{domain}");
            assert_eq!(
                shared
                    .residues()
                    .iter()
                    .any(|r| r.kind == ResidueKind::OverBudget),
                over_budget,
                "{domain}"
            );
            for (lo, hi) in direct.row_bounds() {
                assert_eq!(shared.verdict(lo), direct.verdict(lo), "{domain} from {lo}");
                assert_eq!(shared.verdict(hi), direct.verdict(hi), "{domain} from {hi}");
            }
        }
        assert!(memo.stats().composed > 0 && memo.stats().fallbacks > 0);
    }

    #[test]
    fn a_second_config_bypasses_the_memo() {
        let store = Arc::new(ZoneStore::new());
        txt(&store, "prov.test", "v=spf1 ip4:198.51.100.0/24 ~all");
        txt(&store, "plain.test", "v=spf1 include:prov.test -all");
        let resolver = ZoneResolver::new(store);
        let memo = SubtreeMemo::new();
        assert_shared_identical(&resolver, "plain.test", EvalPolicy::default(), &memo);
        let pinned = memo.stats();
        let other = EvalPolicy {
            max_dns_lookups: 0,
            ..EvalPolicy::default()
        };
        assert_shared_identical(&resolver, "plain.test", other, &memo);
        assert_eq!(memo.stats(), pinned);
    }
}
