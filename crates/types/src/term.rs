//! The typed model of an SPF record: directives (qualifier + mechanism)
//! and modifiers, per RFC 7208 §4–§6, including the RFC 6652 reporting
//! modifiers (`ra`, `rp`, `rr`) whose near-absence (14 domains out of
//! 12.8 M) the paper reports in Section 5.5.
//!
//! `Display` implementations round-trip a parsed record back to canonical
//! text, which the notification templates and the netsim generator use to
//! publish records into zones.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cidr::{DualCidr, Ipv4Cidr, Ipv6Cidr};
use crate::macrostring::MacroString;

/// Result qualifier prefixed to a mechanism (RFC 7208 §4.6.2).
///
/// A directive with no explicit qualifier defaults to [`Qualifier::Pass`] —
/// the detail behind the paper's warning that "the default result for SPF
/// is not fail".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Qualifier {
    /// `+` — the host is authorized.
    Pass,
    /// `-` — the host is explicitly not authorized.
    Fail,
    /// `~` — not authorized, but not strongly enough for a hard policy.
    SoftFail,
    /// `?` — no assertion.
    Neutral,
}

impl Qualifier {
    /// The single-character prefix (`+`, `-`, `~`, `?`).
    pub fn symbol(self) -> char {
        match self {
            Qualifier::Pass => '+',
            Qualifier::Fail => '-',
            Qualifier::SoftFail => '~',
            Qualifier::Neutral => '?',
        }
    }

    /// Parse a qualifier character.
    pub fn from_symbol(c: char) -> Option<Qualifier> {
        match c {
            '+' => Some(Qualifier::Pass),
            '-' => Some(Qualifier::Fail),
            '~' => Some(Qualifier::SoftFail),
            '?' => Some(Qualifier::Neutral),
            _ => None,
        }
    }

    /// True for `-` and `~`: qualifiers that make a trailing `all`
    /// restrictive. The paper's "permissive all" finding (427,767 domains)
    /// counts records whose `all` term is missing or not restrictive.
    pub fn is_restrictive(self) -> bool {
        matches!(self, Qualifier::Fail | Qualifier::SoftFail)
    }
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// An SPF mechanism (RFC 7208 §5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mechanism {
    /// `all` — matches every sender.
    All,
    /// `include:<domain>` — delegate matching to another record; matches
    /// only if the included evaluation returns `pass`.
    Include {
        /// The target domain-spec.
        domain: MacroString,
    },
    /// `a[:<domain>][/<cidr>]` — match the A/AAAA records of the domain.
    A {
        /// Optional explicit domain (defaults to the current domain).
        domain: Option<MacroString>,
        /// IPv4/IPv6 prefix lengths applied to the looked-up addresses.
        cidr: DualCidr,
    },
    /// `mx[:<domain>][/<cidr>]` — match the hosts in the domain's MX RRset.
    Mx {
        /// Optional explicit domain (defaults to the current domain).
        domain: Option<MacroString>,
        /// IPv4/IPv6 prefix lengths applied to the looked-up addresses.
        cidr: DualCidr,
    },
    /// `ptr[:<domain>]` — validated reverse-DNS match. Deprecated by
    /// RFC 7208; the paper counts 233,167 domains still using it.
    Ptr {
        /// Optional explicit domain (defaults to the current domain).
        domain: Option<MacroString>,
    },
    /// `ip4:<network>` — match an IPv4 address or network.
    Ip4 {
        /// The authorized network.
        cidr: Ipv4Cidr,
    },
    /// `ip6:<network>` — match an IPv6 address or network.
    Ip6 {
        /// The authorized network.
        cidr: Ipv6Cidr,
    },
    /// `exists:<domain>` — match if the (macro-expanded) domain resolves.
    Exists {
        /// The domain-spec whose existence is tested.
        domain: MacroString,
    },
}

impl Mechanism {
    /// True for terms that trigger a DNS query and therefore count against
    /// the 10-lookup limit (RFC 7208 §4.6.4): `include`, `a`, `mx`, `ptr`,
    /// `exists` (the `redirect` modifier also counts; see
    /// [`Modifier::counts_as_dns_lookup`]).
    pub fn counts_as_dns_lookup(&self) -> bool {
        matches!(
            self,
            Mechanism::Include { .. }
                | Mechanism::A { .. }
                | Mechanism::Mx { .. }
                | Mechanism::Ptr { .. }
                | Mechanism::Exists { .. }
        )
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mechanism::All => write!(f, "all"),
            Mechanism::Include { domain } => write!(f, "include:{domain}"),
            Mechanism::A { domain, cidr } => {
                write!(f, "a")?;
                if let Some(d) = domain {
                    write!(f, ":{d}")?;
                }
                write!(f, "{cidr}")
            }
            Mechanism::Mx { domain, cidr } => {
                write!(f, "mx")?;
                if let Some(d) = domain {
                    write!(f, ":{d}")?;
                }
                write!(f, "{cidr}")
            }
            Mechanism::Ptr { domain } => {
                write!(f, "ptr")?;
                if let Some(d) = domain {
                    write!(f, ":{d}")?;
                }
                Ok(())
            }
            Mechanism::Ip4 { cidr } => write!(f, "ip4:{cidr}"),
            Mechanism::Ip6 { cidr } => write!(f, "ip6:{cidr}"),
            Mechanism::Exists { domain } => write!(f, "exists:{domain}"),
        }
    }
}

/// An SPF modifier (RFC 7208 §6, RFC 6652 §3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Modifier {
    /// `redirect=<domain>` — evaluate the target's record *in place of*
    /// this one. Unlike `include`, the result (including `fail`) is final,
    /// and any terms after a matching evaluation's `redirect` are ignored.
    Redirect {
        /// The delegation target.
        domain: MacroString,
    },
    /// `exp=<domain>` — fetch a human-readable explanation on `fail`.
    Exp {
        /// Where to fetch the explanation string.
        domain: MacroString,
    },
    /// `ra=<mailbox>` — abuse report address (RFC 6652).
    Ra {
        /// The report mailbox local-part.
        mailbox: String,
    },
    /// `rp=<percent>` — fraction of failures to report (RFC 6652).
    Rp {
        /// Percentage of failures to report.
        percent: u8,
    },
    /// `rr=<tags>` — which results to report (RFC 6652).
    Rr {
        /// Colon-separated report condition tags.
        tags: String,
    },
    /// Any other `name=value` pair. RFC 7208 requires receivers to ignore
    /// unknown modifiers, which is how the XSS payload the paper found
    /// (`xss=<script>…`) survives in a syntactically valid record.
    Unknown {
        /// The modifier name.
        name: String,
        /// The raw value.
        value: String,
    },
}

impl Modifier {
    /// The modifier name as written.
    pub fn name(&self) -> &str {
        match self {
            Modifier::Redirect { .. } => "redirect",
            Modifier::Exp { .. } => "exp",
            Modifier::Ra { .. } => "ra",
            Modifier::Rp { .. } => "rp",
            Modifier::Rr { .. } => "rr",
            Modifier::Unknown { name, .. } => name,
        }
    }

    /// `redirect` counts against the 10-lookup limit; other modifiers
    /// do not (`exp` is fetched only after evaluation completes).
    pub fn counts_as_dns_lookup(&self) -> bool {
        matches!(self, Modifier::Redirect { .. })
    }

    /// True for the RFC 6652 reporting extensions. The paper found only
    /// 14 domains using any of them.
    pub fn is_reporting_extension(&self) -> bool {
        matches!(
            self,
            Modifier::Ra { .. } | Modifier::Rp { .. } | Modifier::Rr { .. }
        )
    }
}

impl fmt::Display for Modifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Modifier::Redirect { domain } => write!(f, "redirect={domain}"),
            Modifier::Exp { domain } => write!(f, "exp={domain}"),
            Modifier::Ra { mailbox } => write!(f, "ra={mailbox}"),
            Modifier::Rp { percent } => write!(f, "rp={percent}"),
            Modifier::Rr { tags } => write!(f, "rr={tags}"),
            Modifier::Unknown { name, value } => write!(f, "{name}={value}"),
        }
    }
}

/// A directive: optional qualifier plus mechanism.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Directive {
    /// The effective qualifier ([`Qualifier::Pass`] when none was written).
    pub qualifier: Qualifier,
    /// Whether the qualifier was explicit in the source text; needed to
    /// round-trip `mx` vs `+mx` and for style diagnostics.
    pub explicit_qualifier: bool,
    /// The mechanism.
    pub mechanism: Mechanism,
}

impl Directive {
    /// A directive with an implied `+` qualifier.
    pub fn implicit(mechanism: Mechanism) -> Self {
        Directive {
            qualifier: Qualifier::Pass,
            explicit_qualifier: false,
            mechanism,
        }
    }

    /// A directive with an explicit qualifier.
    pub fn explicit(qualifier: Qualifier, mechanism: Mechanism) -> Self {
        Directive {
            qualifier,
            explicit_qualifier: true,
            mechanism,
        }
    }
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.explicit_qualifier {
            write!(f, "{}", self.qualifier)?;
        }
        write!(f, "{}", self.mechanism)
    }
}

/// A policy term: either a directive or a modifier, in record order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Term {
    /// A qualifier+mechanism pair.
    Directive(Directive),
    /// A `name=value` modifier.
    Modifier(Modifier),
}

impl Term {
    /// True if evaluating this term triggers a DNS query (10-lookup limit).
    pub fn counts_as_dns_lookup(&self) -> bool {
        match self {
            Term::Directive(d) => d.mechanism.counts_as_dns_lookup(),
            Term::Modifier(m) => m.counts_as_dns_lookup(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Directive(d) => write!(f, "{d}"),
            Term::Modifier(m) => write!(f, "{m}"),
        }
    }
}

/// A fully parsed SPF record: the `v=spf1` version tag plus its terms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpfRecord {
    /// Terms in source order.
    pub terms: Vec<Term>,
}

impl SpfRecord {
    /// An empty `v=spf1` record.
    pub fn new(terms: Vec<Term>) -> Self {
        SpfRecord { terms }
    }

    /// Iterate only the directives.
    pub fn directives(&self) -> impl Iterator<Item = &Directive> {
        self.terms.iter().filter_map(|t| match t {
            Term::Directive(d) => Some(d),
            Term::Modifier(_) => None,
        })
    }

    /// Iterate only the modifiers.
    pub fn modifiers(&self) -> impl Iterator<Item = &Modifier> {
        self.terms.iter().filter_map(|t| match t {
            Term::Modifier(m) => Some(m),
            Term::Directive(_) => None,
        })
    }

    /// The `all` directive, if present.
    pub fn all_directive(&self) -> Option<&Directive> {
        self.directives()
            .find(|d| matches!(d.mechanism, Mechanism::All))
    }

    /// The `redirect` modifier, if present.
    pub fn redirect(&self) -> Option<&MacroString> {
        self.modifiers().find_map(|m| match m {
            Modifier::Redirect { domain } => Some(domain),
            _ => None,
        })
    }

    /// True if the record ends the match chain restrictively: an `all`
    /// directive with `-` or `~`, or a redirect (whose target is then
    /// responsible). Mirrors the paper's "permissive all" check (§5.5).
    pub fn has_restrictive_all(&self) -> bool {
        match self.all_directive() {
            Some(d) => d.qualifier.is_restrictive(),
            None => self.redirect().is_some(),
        }
    }

    /// All include targets in source order (unexpanded macro strings).
    pub fn include_targets(&self) -> impl Iterator<Item = &MacroString> {
        self.directives().filter_map(|d| match &d.mechanism {
            Mechanism::Include { domain } => Some(domain),
            _ => None,
        })
    }
}

impl fmt::Display for SpfRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v=spf1")?;
        for term in &self.terms {
            write!(f, " {term}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macrostring::MacroString;

    fn ms(s: &str) -> MacroString {
        MacroString::parse(s).unwrap()
    }

    #[test]
    fn qualifier_symbols_round_trip() {
        for q in [
            Qualifier::Pass,
            Qualifier::Fail,
            Qualifier::SoftFail,
            Qualifier::Neutral,
        ] {
            assert_eq!(Qualifier::from_symbol(q.symbol()), Some(q));
        }
        assert_eq!(Qualifier::from_symbol('x'), None);
    }

    #[test]
    fn restrictive_qualifiers() {
        assert!(Qualifier::Fail.is_restrictive());
        assert!(Qualifier::SoftFail.is_restrictive());
        assert!(!Qualifier::Pass.is_restrictive());
        assert!(!Qualifier::Neutral.is_restrictive());
    }

    #[test]
    fn mechanism_display() {
        assert_eq!(Mechanism::All.to_string(), "all");
        assert_eq!(
            Mechanism::Include {
                domain: ms("_spf.google.com")
            }
            .to_string(),
            "include:_spf.google.com"
        );
        assert_eq!(
            Mechanism::A {
                domain: None,
                cidr: DualCidr::default()
            }
            .to_string(),
            "a"
        );
        assert_eq!(
            Mechanism::A {
                domain: Some(ms("puffin.example.com")),
                cidr: DualCidr { v4: 28, v6: 128 }
            }
            .to_string(),
            "a:puffin.example.com/28"
        );
        assert_eq!(
            Mechanism::Ip4 {
                cidr: "192.0.2.0/24".parse().unwrap()
            }
            .to_string(),
            "ip4:192.0.2.0/24"
        );
    }

    #[test]
    fn lookup_counting_terms() {
        assert!(Mechanism::Include {
            domain: ms("x.com")
        }
        .counts_as_dns_lookup());
        assert!(Mechanism::A {
            domain: None,
            cidr: DualCidr::default()
        }
        .counts_as_dns_lookup());
        assert!(Mechanism::Mx {
            domain: None,
            cidr: DualCidr::default()
        }
        .counts_as_dns_lookup());
        assert!(Mechanism::Ptr { domain: None }.counts_as_dns_lookup());
        assert!(Mechanism::Exists {
            domain: ms("x.com")
        }
        .counts_as_dns_lookup());
        assert!(!Mechanism::All.counts_as_dns_lookup());
        assert!(!Mechanism::Ip4 {
            cidr: "1.2.3.4".parse().unwrap()
        }
        .counts_as_dns_lookup());
        assert!(Modifier::Redirect {
            domain: ms("x.com")
        }
        .counts_as_dns_lookup());
        assert!(!Modifier::Exp {
            domain: ms("x.com")
        }
        .counts_as_dns_lookup());
    }

    #[test]
    fn record_display_round_trips_paper_example() {
        // The worked example from Section 2.1 of the paper.
        let record = SpfRecord::new(vec![
            Term::Directive(Directive::explicit(
                Qualifier::Pass,
                Mechanism::Mx {
                    domain: None,
                    cidr: DualCidr::default(),
                },
            )),
            Term::Directive(Directive::implicit(Mechanism::A {
                domain: Some(ms("puffin.example.com")),
                cidr: DualCidr { v4: 28, v6: 128 },
            })),
            Term::Directive(Directive::explicit(Qualifier::Fail, Mechanism::All)),
        ]);
        assert_eq!(
            record.to_string(),
            "v=spf1 +mx a:puffin.example.com/28 -all"
        );
        assert!(record.has_restrictive_all());
        assert_eq!(
            record
                .terms
                .iter()
                .filter(|t| t.counts_as_dns_lookup())
                .count(),
            2
        );
    }

    #[test]
    fn permissive_all_detection() {
        let no_all = SpfRecord::new(vec![Term::Directive(Directive::implicit(Mechanism::Ip4 {
            cidr: "192.0.2.1".parse().unwrap(),
        }))]);
        assert!(!no_all.has_restrictive_all());

        let pass_all = SpfRecord::new(vec![Term::Directive(Directive::explicit(
            Qualifier::Pass,
            Mechanism::All,
        ))]);
        assert!(!pass_all.has_restrictive_all());

        let neutral_all = SpfRecord::new(vec![Term::Directive(Directive::explicit(
            Qualifier::Neutral,
            Mechanism::All,
        ))]);
        assert!(!neutral_all.has_restrictive_all());

        let redirected = SpfRecord::new(vec![Term::Modifier(Modifier::Redirect {
            domain: ms("_spf.example.com"),
        })]);
        assert!(redirected.has_restrictive_all());
    }

    #[test]
    fn reporting_extensions_flagged() {
        assert!(Modifier::Ra {
            mailbox: "abuse".into()
        }
        .is_reporting_extension());
        assert!(Modifier::Rp { percent: 50 }.is_reporting_extension());
        assert!(Modifier::Rr { tags: "all".into() }.is_reporting_extension());
        assert!(!Modifier::Redirect {
            domain: ms("x.com")
        }
        .is_reporting_extension());
        assert!(!Modifier::Unknown {
            name: "xss".into(),
            value: "<script>".into()
        }
        .is_reporting_extension());
    }

    #[test]
    fn include_targets_iterator() {
        let record = SpfRecord::new(vec![
            Term::Directive(Directive::implicit(Mechanism::Include {
                domain: ms("a.com"),
            })),
            Term::Directive(Directive::implicit(Mechanism::Ip4 {
                cidr: "192.0.2.1".parse().unwrap(),
            })),
            Term::Directive(Directive::implicit(Mechanism::Include {
                domain: ms("b.com"),
            })),
        ]);
        let targets: Vec<String> = record.include_targets().map(|m| m.to_string()).collect();
        assert_eq!(targets, vec!["a.com", "b.com"]);
    }
}
