//! RFC 7489 DMARC record parsing — the subset `checkdmarc` covers, which
//! is what the paper's crawler collected alongside SPF (Table 1 reports
//! DMARC adoption growing from ~1 % in 2015 to 22.6 % of the top 1M).

use std::fmt;

use serde::{Deserialize, Serialize};
use spf_dns::{DnsError, Question, RecordData, RecordType, Resolver, RrSet};
use spf_types::DomainName;

/// The `p=`/`sp=` policy values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DmarcPolicy {
    /// Take no action on failure.
    None,
    /// Quarantine failing mail.
    Quarantine,
    /// Reject failing mail.
    Reject,
}

impl DmarcPolicy {
    fn parse(s: &str) -> Option<DmarcPolicy> {
        [
            ("none", DmarcPolicy::None),
            ("quarantine", DmarcPolicy::Quarantine),
            ("reject", DmarcPolicy::Reject),
        ]
        .into_iter()
        .find_map(|(name, policy)| s.eq_ignore_ascii_case(name).then_some(policy))
    }
}

impl fmt::Display for DmarcPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DmarcPolicy::None => "none",
            DmarcPolicy::Quarantine => "quarantine",
            DmarcPolicy::Reject => "reject",
        };
        f.write_str(s)
    }
}

/// DKIM/SPF alignment mode (`adkim=`/`aspf=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Alignment {
    /// Relaxed: organizational-domain match suffices.
    Relaxed,
    /// Strict: exact domain match required.
    Strict,
}

/// A parsed DMARC record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmarcRecord {
    /// Required policy for the domain itself.
    pub policy: DmarcPolicy,
    /// Policy for subdomains (defaults to `policy`).
    pub subdomain_policy: Option<DmarcPolicy>,
    /// Aggregate-report URIs (`rua=`).
    pub rua: Vec<String>,
    /// Failure-report URIs (`ruf=`).
    pub ruf: Vec<String>,
    /// Sampling percentage (`pct=`, default 100).
    pub percent: u8,
    /// DKIM alignment (`adkim=`, default relaxed).
    pub adkim: Alignment,
    /// SPF alignment (`aspf=`, default relaxed).
    pub aspf: Alignment,
    /// Unrecognized tags preserved verbatim.
    pub unknown_tags: Vec<(String, String)>,
}

/// DMARC parse failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmarcError {
    /// No `v=DMARC1` tag anywhere in the record.
    MissingVersionTag,
    /// A `v=DMARC1` tag exists but is not the first tag — RFC 7489 §6.4
    /// requires the version tag in first position, and receivers discard
    /// records that merely contain it elsewhere.
    VersionNotFirst,
    /// The required `p=` tag is absent or invalid.
    MissingPolicy,
    /// The same tag appears more than once; last-wins silently changes
    /// the effective policy, so duplicates are rejected as ambiguous.
    DuplicateTag {
        /// The repeated tag name.
        tag: String,
    },
    /// `pct=` parsed as a number but is outside 0..=100.
    PercentOutOfRange {
        /// The parsed out-of-range value.
        value: u16,
    },
    /// A tag has a malformed value.
    BadTagValue {
        /// The tag name.
        tag: String,
        /// The raw value.
        value: String,
    },
}

impl fmt::Display for DmarcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmarcError::MissingVersionTag => write!(f, "record has no v=DMARC1 tag"),
            DmarcError::VersionNotFirst => {
                write!(f, "v=DMARC1 tag present but not in first position")
            }
            DmarcError::MissingPolicy => write!(f, "required p= tag missing or invalid"),
            DmarcError::DuplicateTag { tag } => write!(f, "tag {tag} appears more than once"),
            DmarcError::PercentOutOfRange { value } => {
                write!(f, "pct={value} outside 0..=100")
            }
            DmarcError::BadTagValue { tag, value } => {
                write!(f, "bad value {value:?} for tag {tag}")
            }
        }
    }
}

impl std::error::Error for DmarcError {}

/// Is this TXT string a DMARC record? Compares bytes, so a multi-byte
/// character inside the tag is a mismatch, not a panic.
pub fn is_dmarc_record(text: &str) -> bool {
    starts_with_version_tag(text.trim_start())
}

fn starts_with_version_tag(text: &str) -> bool {
    let tag = "v=DMARC1";
    text.as_bytes()
        .get(..tag.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(tag.as_bytes()))
}

/// The tags [`parse_dmarc`] reads, lower-cased; each may appear once.
const KNOWN_TAGS: [&str; 7] = ["p", "sp", "rua", "ruf", "pct", "adkim", "aspf"];

/// Parse a DMARC record ("v=DMARC1; p=reject; rua=mailto:...").
pub fn parse_dmarc(text: &str) -> Result<DmarcRecord, DmarcError> {
    if !is_dmarc_record(text) {
        // Distinguish "no version tag at all" from "version tag buried
        // mid-record": the latter is a positional error receivers treat
        // as not-a-DMARC-record, and fuzzing the auth pipeline showed it
        // is a distinct misconfiguration class worth naming.
        let buried = text
            .split(';')
            .skip(1)
            .any(|part| starts_with_version_tag(part.trim()));
        return Err(if buried {
            DmarcError::VersionNotFirst
        } else {
            DmarcError::MissingVersionTag
        });
    }
    let mut seen = 0u8;
    let mut policy = None;
    let mut record = DmarcRecord {
        policy: DmarcPolicy::None,
        subdomain_policy: None,
        rua: Vec::new(),
        ruf: Vec::new(),
        percent: 100,
        adkim: Alignment::Relaxed,
        aspf: Alignment::Relaxed,
        unknown_tags: Vec::new(),
    };
    for part in text.split(';').skip(1) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((tag, value)) = part.split_once('=') else {
            continue; // stray token; checkdmarc warns but continues
        };
        let (tag, value) = (tag.trim(), value.trim());
        let Some(known) = KNOWN_TAGS.iter().position(|k| tag.eq_ignore_ascii_case(k)) else {
            record
                .unknown_tags
                .push((tag.to_ascii_lowercase(), value.to_string()));
            continue;
        };
        let tag = KNOWN_TAGS[known];
        // Known tags may appear at most once: last-wins would silently
        // change the effective policy, so duplicates are ambiguous.
        let bit = 1u8 << known;
        if seen & bit != 0 {
            return Err(DmarcError::DuplicateTag {
                tag: tag.to_string(),
            });
        }
        seen |= bit;
        let bad_value = || DmarcError::BadTagValue {
            tag: tag.to_string(),
            value: value.to_string(),
        };
        match tag {
            "p" => {
                policy = Some(DmarcPolicy::parse(value).ok_or(DmarcError::MissingPolicy)?);
            }
            "sp" => {
                record.subdomain_policy = Some(DmarcPolicy::parse(value).ok_or_else(bad_value)?);
            }
            "rua" => record.rua = value.split(',').map(|s| s.trim().to_string()).collect(),
            "ruf" => record.ruf = value.split(',').map(|s| s.trim().to_string()).collect(),
            "pct" => {
                // Parse wide so 150 and 400 both classify as
                // out-of-range rather than as unparseable-u8 noise.
                let pct = value.parse::<u16>().map_err(|_| bad_value())?;
                if pct > 100 {
                    return Err(DmarcError::PercentOutOfRange { value: pct });
                }
                record.percent = pct as u8;
            }
            // "adkim" | "aspf"
            _ => {
                let a = if value.eq_ignore_ascii_case("r") {
                    Alignment::Relaxed
                } else if value.eq_ignore_ascii_case("s") {
                    Alignment::Strict
                } else {
                    return Err(bad_value());
                };
                if tag == "adkim" {
                    record.adkim = a;
                } else {
                    record.aspf = a;
                }
            }
        }
    }
    record.policy = policy.ok_or(DmarcError::MissingPolicy)?;
    Ok(record)
}

/// Where a DMARC lookup can end up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmarcLookup {
    /// A valid record was found at `_dmarc.<domain>`.
    Found(DmarcRecord),
    /// No `_dmarc` TXT record exists.
    NotFound,
    /// A TXT record exists but is invalid.
    Invalid(DmarcError),
    /// DNS failed transiently.
    TempError,
}

/// Multi-label public suffixes the organizational-domain approximation
/// recognizes beyond plain TLDs. A deliberately small, unit-tested
/// subset of the PSL: the population worlds never mint names under
/// suffixes outside this list, and the approximation errs toward "one
/// extra fallback query", never toward crossing a registry boundary
/// *within* this list.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au", "com.br", "co.jp", "or.jp",
    "ne.jp", "co.nz", "co.za", "com.cn", "com.tw", "com.mx", "co.in", "com.sg",
];

/// The organizational domain of `domain` under the public-suffix
/// approximation: the public suffix (one label, or two when the last
/// two labels appear in the built-in multi-label suffix table) plus one registrant
/// label. Domains at or below that boundary are their own
/// organizational domain.
pub fn organizational_domain(domain: &DomainName) -> DomainName {
    let labels: Vec<&str> = domain.labels().collect();
    if labels.len() <= 2 {
        return domain.clone();
    }
    let last_two = format!("{}.{}", labels[labels.len() - 2], labels[labels.len() - 1]);
    let keep = if MULTI_LABEL_SUFFIXES
        .iter()
        .any(|s| s.eq_ignore_ascii_case(&last_two))
    {
        3
    } else {
        2
    };
    if labels.len() <= keep {
        return domain.clone();
    }
    let org = labels[labels.len() - keep..].join(".");
    DomainName::parse(&org).unwrap_or_else(|_| domain.clone())
}

/// The `_dmarc.<domain>` TXT question, or `None` when the prefixed name
/// is not a valid domain name (it is then treated as publishing nothing).
pub fn dmarc_question(domain: &DomainName) -> Option<Question> {
    let name = domain.prepend_label("_dmarc").ok()?;
    Some(Question::new(name, RecordType::Txt))
}

/// One `_dmarc.<name>` TXT lookup, no fallback.
fn query_dmarc_at<R: Resolver + ?Sized>(resolver: &R, domain: &DomainName) -> DmarcLookup {
    dmarc_lookup(dmarc_question(domain).map(|q| resolver.query(&q.name, q.rtype)))
}

/// Read the DMARC record out of a `_dmarc` TXT answer (`None`: no
/// question could be asked).
fn dmarc_lookup(answer: Option<Result<RrSet, DnsError>>) -> DmarcLookup {
    let answers = match answer {
        None | Some(Err(DnsError::NxDomain)) => return DmarcLookup::NotFound,
        Some(Err(_)) => return DmarcLookup::TempError,
        Some(Ok(a)) => a,
    };
    let text = answers.iter().find_map(|rr| match &rr.data {
        RecordData::Txt(t) => Some(t.text()).filter(|text| is_dmarc_record(text)),
        _ => None,
    });
    match text {
        None => DmarcLookup::NotFound,
        Some(text) => match parse_dmarc(&text) {
            Ok(r) => DmarcLookup::Found(r),
            Err(e) => DmarcLookup::Invalid(e),
        },
    }
}

/// Query `_dmarc.<domain>` the way `query_dmarc_record()` does, with the
/// RFC 7489 §6.6.3 organizational-domain fallback: when the exact name
/// publishes nothing, retry at `_dmarc.<org-domain>`. Both lookups go
/// through `resolver` and charge it like any other wire query, so the
/// fallback is visible in `WireSnapshot` amplification. The effective
/// policy for a fallback hit is the org record's `sp=` (subdomain
/// policy) when present, folded into the returned record's `policy`.
pub fn query_dmarc<R: Resolver + ?Sized>(resolver: &R, domain: &DomainName) -> DmarcLookup {
    let answer = dmarc_question(domain).map(|q| resolver.query(&q.name, q.rtype));
    query_dmarc_answered(resolver, domain, answer)
}

/// [`query_dmarc`] starting from the answer to [`dmarc_question`] the
/// caller already holds (`None` when that question is `None`), so the
/// caller can ask it together with other questions. Only the
/// organizational-domain fallback goes to `resolver`.
pub fn query_dmarc_answered<R: Resolver + ?Sized>(
    resolver: &R,
    domain: &DomainName,
    answer: Option<Result<RrSet, DnsError>>,
) -> DmarcLookup {
    let direct = dmarc_lookup(answer);
    if !matches!(direct, DmarcLookup::NotFound) {
        return direct;
    }
    let org = organizational_domain(domain);
    if org == *domain {
        return direct;
    }
    match query_dmarc_at(resolver, &org) {
        // A fallback hit governs the subdomain through sp= when set.
        DmarcLookup::Found(mut record) => {
            if let Some(sp) = record.subdomain_policy {
                record.policy = sp;
            }
            DmarcLookup::Found(record)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use std::sync::Arc;

    #[test]
    fn minimal_record() {
        let r = parse_dmarc("v=DMARC1; p=none").unwrap();
        assert_eq!(r.policy, DmarcPolicy::None);
        assert_eq!(r.percent, 100);
        assert_eq!(r.adkim, Alignment::Relaxed);
    }

    #[test]
    fn full_record() {
        let r = parse_dmarc(
            "v=DMARC1; p=reject; sp=quarantine; rua=mailto:agg@example.com,mailto:agg2@example.com; \
             ruf=mailto:fail@example.com; pct=50; adkim=s; aspf=r",
        )
        .unwrap();
        assert_eq!(r.policy, DmarcPolicy::Reject);
        assert_eq!(r.subdomain_policy, Some(DmarcPolicy::Quarantine));
        assert_eq!(r.rua.len(), 2);
        assert_eq!(r.ruf.len(), 1);
        assert_eq!(r.percent, 50);
        assert_eq!(r.adkim, Alignment::Strict);
        assert_eq!(r.aspf, Alignment::Relaxed);
    }

    #[test]
    fn case_insensitive_version() {
        assert!(is_dmarc_record("V=dmarc1; p=none"));
        assert!(parse_dmarc("V=dmarc1; p=none").is_ok());
    }

    #[test]
    fn missing_policy_rejected() {
        assert_eq!(
            parse_dmarc("v=DMARC1; rua=mailto:x@y.z"),
            Err(DmarcError::MissingPolicy)
        );
    }

    #[test]
    fn bad_pct_rejected() {
        assert!(matches!(
            parse_dmarc("v=DMARC1; p=none; pct=abc"),
            Err(DmarcError::BadTagValue { .. })
        ));
        assert_eq!(
            parse_dmarc("v=DMARC1; p=none; pct=150"),
            Err(DmarcError::PercentOutOfRange { value: 150 })
        );
        assert_eq!(
            parse_dmarc("v=DMARC1; p=none; pct=400"),
            Err(DmarcError::PercentOutOfRange { value: 400 })
        );
        // pct=100 is the inclusive boundary.
        assert_eq!(
            parse_dmarc("v=DMARC1; p=none; pct=100").unwrap().percent,
            100
        );
    }

    #[test]
    fn duplicate_tags_rejected() {
        assert_eq!(
            parse_dmarc("v=DMARC1; p=none; p=reject"),
            Err(DmarcError::DuplicateTag { tag: "p".into() })
        );
        assert_eq!(
            parse_dmarc("v=DMARC1; p=none; pct=50; pct=50"),
            Err(DmarcError::DuplicateTag { tag: "pct".into() })
        );
        // Unknown tags may legitimately repeat (fo=0; fo=1 in the wild).
        assert!(parse_dmarc("v=DMARC1; p=none; fo=0; fo=1").is_ok());
    }

    #[test]
    fn buried_version_tag_is_positional_error() {
        assert_eq!(
            parse_dmarc("p=none; v=DMARC1"),
            Err(DmarcError::VersionNotFirst)
        );
        assert_eq!(
            parse_dmarc("p=none; rua=mailto:x@y.z"),
            Err(DmarcError::MissingVersionTag)
        );
    }

    #[test]
    fn organizational_domain_approximation() {
        let org = |s: &str| organizational_domain(&DomainName::parse(s).unwrap()).to_string();
        assert_eq!(org("example.com"), "example.com");
        assert_eq!(org("mail.example.com"), "example.com");
        assert_eq!(org("a.b.mail.example.com"), "example.com");
        // Multi-label public suffixes keep one extra label.
        assert_eq!(org("example.co.uk"), "example.co.uk");
        assert_eq!(org("mail.example.co.uk"), "example.co.uk");
        assert_eq!(org("deep.mail.example.com.au"), "example.com.au");
        // Single labels are their own org domain.
        assert_eq!(org("localhost"), "localhost");
    }

    #[test]
    fn query_falls_back_to_org_domain() {
        let store = Arc::new(ZoneStore::new());
        let org = DomainName::parse("example.com").unwrap();
        let sub = DomainName::parse("mail.example.com").unwrap();
        store.add_txt(
            &org.prepend_label("_dmarc").unwrap(),
            "v=DMARC1; p=reject; sp=quarantine",
        );
        let resolver = ZoneResolver::new(Arc::clone(&store));
        // Subdomain without its own record inherits via sp=.
        match query_dmarc(&resolver, &sub) {
            DmarcLookup::Found(r) => assert_eq!(r.policy, DmarcPolicy::Quarantine),
            other => panic!("unexpected {other:?}"),
        }
        // The org domain itself keeps p=.
        match query_dmarc(&resolver, &org) {
            DmarcLookup::Found(r) => assert_eq!(r.policy, DmarcPolicy::Reject),
            other => panic!("unexpected {other:?}"),
        }
        // A direct record shadows the org fallback entirely.
        store.add_txt(&sub.prepend_label("_dmarc").unwrap(), "v=DMARC1; p=none");
        match query_dmarc(&resolver, &sub) {
            DmarcLookup::Found(r) => assert_eq!(r.policy, DmarcPolicy::None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_preserved() {
        let r = parse_dmarc("v=DMARC1; p=none; fo=1; ri=86400").unwrap();
        assert_eq!(r.unknown_tags.len(), 2);
    }

    #[test]
    fn not_dmarc() {
        assert_eq!(
            parse_dmarc("v=spf1 -all"),
            Err(DmarcError::MissingVersionTag)
        );
    }

    #[test]
    fn a_multi_byte_character_in_the_version_tag_is_not_a_tag() {
        assert!(!is_dmarc_record("v=DMARC\u{e9}; p=none"));
        assert!(!is_dmarc_record("v=DMARC\u{FFFD}"));
        assert_eq!(
            parse_dmarc("p=none; v=DMARC\u{e9}"),
            Err(DmarcError::MissingVersionTag)
        );
        assert_eq!(
            parse_dmarc("p=none; v=DMARC1"),
            Err(DmarcError::VersionNotFirst)
        );
    }

    #[test]
    fn query_finds_record_at_dmarc_label() {
        let store = Arc::new(ZoneStore::new());
        let d = DomainName::parse("example.com").unwrap();
        store.add_txt(
            &d.prepend_label("_dmarc").unwrap(),
            "v=DMARC1; p=quarantine",
        );
        let resolver = ZoneResolver::new(Arc::clone(&store));
        match query_dmarc(&resolver, &d) {
            DmarcLookup::Found(r) => assert_eq!(r.policy, DmarcPolicy::Quarantine),
            other => panic!("unexpected {other:?}"),
        }
        match query_dmarc(&resolver, &DomainName::parse("other.example").unwrap()) {
            DmarcLookup::NotFound => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_reports_invalid() {
        let store = Arc::new(ZoneStore::new());
        let d = DomainName::parse("bad.example").unwrap();
        store.add_txt(&d.prepend_label("_dmarc").unwrap(), "v=DMARC1; pct=7");
        let resolver = ZoneResolver::new(Arc::clone(&store));
        assert!(matches!(
            query_dmarc(&resolver, &d),
            DmarcLookup::Invalid(DmarcError::MissingPolicy)
        ));
    }
}
