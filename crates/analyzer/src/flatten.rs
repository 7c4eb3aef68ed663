//! SPF record flattening — the standard remediation for the paper's
//! second-biggest error class.
//!
//! "Too many DNS lookups" (49,421 domains, Figure 2) is fixed in practice
//! by *flattening*: resolving the include tree once and republishing the
//! resulting address set as direct `ip4:` terms, which cost zero lookups.
//! The paper's Table 2 shows this class improving slowest (−1.60 %)
//! precisely because operators rarely have such a tool; this module is
//! that tool, built on the walker's recursive IP analysis. The remediation
//! model uses it so "fixed" lookup-limit domains keep their authorized set
//! instead of being truncated.

use std::fmt;

use serde::{Deserialize, Serialize};
use spf_types::{Ipv4Set, Qualifier};

use crate::walker::{FetchOutcome, RecordAnalysis};

/// Why a record could not be fully flattened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlattenProblem {
    /// The domain has no SPF record to flatten.
    NoRecord,
    /// The record (or an include) uses `ptr` — its address set depends on
    /// reverse DNS at delivery time and cannot be enumerated.
    UsesPtr,
    /// A mechanism target contains macros — its expansion depends on the
    /// message and cannot be enumerated statically (the paper's own
    /// limitation for `exists`).
    UsesMacros,
    /// Errors inside the tree (missing includes, loops) mean the
    /// flattened set may be incomplete.
    TreeHasErrors {
        /// How many errors the walker found.
        count: usize,
    },
}

impl fmt::Display for FlattenProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenProblem::NoRecord => write!(f, "no SPF record to flatten"),
            FlattenProblem::UsesPtr => write!(f, "ptr mechanisms cannot be enumerated"),
            FlattenProblem::UsesMacros => {
                write!(
                    f,
                    "macro targets depend on the message and cannot be enumerated"
                )
            }
            FlattenProblem::TreeHasErrors { count } => {
                write!(
                    f,
                    "{count} errors in the record tree; flattened set may be incomplete"
                )
            }
        }
    }
}

/// The flattener's output: a lookup-free record plus fidelity notes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flattened {
    /// The rewritten record text (`v=spf1 ip4:… ip4:… -all`).
    pub record: String,
    /// Number of `ip4:` terms emitted.
    pub term_count: usize,
    /// Addresses covered (identical to the original tree's count when
    /// `problems` is empty).
    pub address_count: u64,
    /// Anything that makes the flattening lossy.
    pub problems: Vec<FlattenProblem>,
}

/// Flatten an analyzed record into direct `ip4:` terms.
///
/// The trailing `all` keeps the original record's qualifier (defaulting
/// to `-all` when the original had no restrictive terminator — flattening
/// is the moment to fix that too, per §7.1).
pub fn flatten(analysis: &RecordAnalysis) -> Result<Flattened, FlattenProblem> {
    if !matches!(analysis.fetch, FetchOutcome::Found) {
        return Err(FlattenProblem::NoRecord);
    }
    let mut problems = Vec::new();
    if analysis.uses_ptr {
        problems.push(FlattenProblem::UsesPtr);
    }
    let has_macro_targets = analysis
        .parsed
        .as_ref()
        .map(|p| {
            p.record.directives().any(|d| match &d.mechanism {
                spf_types::Mechanism::Include { domain }
                | spf_types::Mechanism::Exists { domain } => !domain.is_literal(),
                spf_types::Mechanism::A {
                    domain: Some(ms), ..
                }
                | spf_types::Mechanism::Mx {
                    domain: Some(ms), ..
                }
                | spf_types::Mechanism::Ptr { domain: Some(ms) } => !ms.is_literal(),
                _ => false,
            })
        })
        .unwrap_or(false);
    if has_macro_targets {
        problems.push(FlattenProblem::UsesMacros);
    }
    if !analysis.errors.is_empty() {
        problems.push(FlattenProblem::TreeHasErrors {
            count: analysis.errors.len(),
        });
    }

    let record = render_flat(&analysis.ips, terminal_qualifier(analysis));
    let term_count = analysis.ips.to_cidrs().len();
    Ok(Flattened {
        record,
        term_count,
        address_count: analysis.ips.address_count(),
        problems,
    })
}

fn terminal_qualifier(analysis: &RecordAnalysis) -> Qualifier {
    analysis
        .parsed
        .as_ref()
        .and_then(|p| p.record.all_directive().map(|d| d.qualifier))
        .filter(|q| q.is_restrictive())
        .unwrap_or(Qualifier::Fail)
}

fn render_flat(ips: &Ipv4Set, all_qualifier: Qualifier) -> String {
    let mut out = String::from("v=spf1");
    for cidr in ips.to_cidrs() {
        out.push_str(" ip4:");
        out.push_str(&cidr.to_string());
    }
    out.push(' ');
    out.push(all_qualifier.symbol());
    out.push_str("all");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::Walker;
    use spf_core::{check_host, EvalContext, EvalPolicy, SpfResult};
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    #[test]
    fn flattening_preserves_the_authorized_set() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("heavy.example"), {
            // A record that needs 12 lookups (over the limit).
            let includes: Vec<String> = (0..12).map(|i| format!("include:n{i}.example")).collect();
            &format!("v=spf1 {} ~all", includes.join(" "))
        });
        for i in 0..12 {
            store.add_txt(
                &dom(&format!("n{i}.example")),
                &format!("v=spf1 ip4:10.{i}.0.0/16 -all"),
            );
        }
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let analysis = walker.analyze(&dom("heavy.example"));
        assert!(analysis.subtree_lookups > 10);

        let flat = flatten(&analysis).unwrap();
        assert_eq!(flat.address_count, 12 * 65_536);
        assert!(flat.record.starts_with("v=spf1 ip4:"));
        assert!(flat.record.ends_with("~all"), "{}", flat.record);

        // Republish and verify: zero lookups, same pass/fail behaviour.
        store.replace_txt(&dom("heavy.example"), &flat.record);
        walker.clear_cache();
        let after = walker.analyze(&dom("heavy.example"));
        assert_eq!(after.subtree_lookups, 0);
        assert_eq!(after.allowed_ip_count(), 12 * 65_536);
        assert!(after.errors.is_empty());

        let resolver = ZoneResolver::new(Arc::clone(&store));
        let d = dom("heavy.example");
        for (ip, expected) in [
            ("10.3.4.5", SpfResult::Pass),
            ("10.11.255.255", SpfResult::Pass),
            ("10.12.0.0", SpfResult::SoftFail),
        ] {
            let ctx = EvalContext::mail_from(ip.parse().unwrap(), "a", d.clone());
            assert_eq!(
                check_host(&resolver, &ctx, &d, &EvalPolicy::default()).result,
                expected,
                "{ip}"
            );
        }
    }

    #[test]
    fn adjacent_includes_coalesce_into_fewer_terms() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(
            &dom("adj.example"),
            "v=spf1 include:a.example include:b.example -all",
        );
        // Two adjacent /25s flatten into one /24 term.
        store.add_txt(&dom("a.example"), "v=spf1 ip4:192.0.2.0/25 -all");
        store.add_txt(&dom("b.example"), "v=spf1 ip4:192.0.2.128/25 -all");
        let walker = Walker::new(ZoneResolver::new(store));
        let flat = flatten(&walker.analyze(&dom("adj.example"))).unwrap();
        assert_eq!(flat.term_count, 1);
        assert!(flat.record.contains("ip4:192.0.2.0/24"));
    }

    #[test]
    fn lossy_constructs_are_reported() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("ptr.example"), "v=spf1 ptr ip4:192.0.2.1 -all");
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let flat = flatten(&walker.analyze(&dom("ptr.example"))).unwrap();
        assert!(flat.problems.contains(&FlattenProblem::UsesPtr));

        store.add_txt(&dom("macro.example"), "v=spf1 exists:%{ir}.x.example -all");
        let flat = flatten(&walker.analyze(&dom("macro.example"))).unwrap();
        assert!(flat.problems.contains(&FlattenProblem::UsesMacros));

        store.add_txt(&dom("broken.example"), "v=spf1 include:gone.example -all");
        let flat = flatten(&walker.analyze(&dom("broken.example"))).unwrap();
        assert!(matches!(
            flat.problems[0],
            FlattenProblem::TreeHasErrors { count: 1 }
        ));
    }

    #[test]
    fn missing_record_is_an_error() {
        let store = Arc::new(ZoneStore::new());
        let walker = Walker::new(ZoneResolver::new(store));
        assert_eq!(
            flatten(&walker.analyze(&dom("void.example"))).unwrap_err(),
            FlattenProblem::NoRecord
        );
    }

    #[test]
    fn permissive_record_gains_a_restrictive_all() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("open.example"), "v=spf1 ip4:192.0.2.1");
        let walker = Walker::new(ZoneResolver::new(store));
        let flat = flatten(&walker.analyze(&dom("open.example"))).unwrap();
        assert!(flat.record.ends_with("-all"));
    }
}
