//! RFC 7208 record parser with the paper's syntax-error taxonomy.
//!
//! The authors modified `checkdmarc` so that "warnings and errors in the SPF
//! syntax are reported, and our modified version continues with the parsing
//! afterward" (§4.1). [`parse_lenient`] reproduces that behaviour: it returns
//! a best-effort [`SpfRecord`] *plus* every error found, classified into the
//! categories of Section 5.3:
//!
//! * misspelled mechanisms (`ipv4` for `ip4` — 11.0 % of syntax errors,
//!   `ipv6` for `ip6` — 0.8 %, bare `ip` — 7.7 %),
//! * whitespace after the `:` separator (16.6 %),
//! * more than one `v=spf1` tag from concatenated recommendations (15.3 %),
//! * site-verification strings merged into the record (7.0 %),
//! * invalid IP addresses with the four sub-causes of §5.3,
//! * unknown mechanisms (including the `-al` / `-all;` typos of §5.5).

use std::fmt;

use serde::{Deserialize, Serialize};
use spf_types::{
    DualCidr, Ip4ParseError, Ip6ParseError, Ipv4Cidr, Ipv6Cidr, MacroError, MacroString, Mechanism,
    Modifier, Qualifier, SpfRecord, Term, SPF_VERSION_TAG,
};

/// A classified SPF syntax error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyntaxError {
    /// A mechanism name that is a known misspelling of a real one
    /// (`ipv4` → `ip4`, `ipv6` → `ip6`, `ip` → `ip4`).
    MisspelledMechanism {
        /// What was written.
        written: String,
        /// The mechanism the operator probably meant.
        suggestion: String,
    },
    /// An unrecognized mechanism name (includes `-al`, `all;` typos).
    UnknownMechanism {
        /// The unrecognized name.
        name: String,
    },
    /// The record contains more than one `v=spf1` tag — typically two
    /// provider recommendations pasted together.
    MultipleVersionTags {
        /// Total number of `v=spf1` occurrences.
        count: usize,
    },
    /// A bare token that is neither a directive nor a modifier and looks
    /// like a site-verification string merged into the SPF record.
    ConcatenatedVerification {
        /// The stray token.
        token: String,
    },
    /// A mechanism that requires an argument got none — the classic
    /// `ip4: 192.0.2.1` mistake where the space detaches the argument.
    WhitespaceAfterSeparator {
        /// The mechanism missing its argument.
        mechanism: String,
    },
    /// An `ip4:` argument failed to parse.
    InvalidIp4 {
        /// The paper's four-way classification of the failure.
        error: Ip4ParseError,
        /// The argument text.
        argument: String,
    },
    /// An `ip6:` argument failed to parse.
    InvalidIp6 {
        /// Failure detail.
        error: Ip6ParseError,
        /// The argument text.
        argument: String,
    },
    /// A malformed macro string in a domain-spec.
    BadMacro {
        /// The macro-level failure.
        error: MacroError,
        /// The term the macro appeared in.
        term: String,
    },
    /// A malformed dual-CIDR suffix on `a`/`mx`.
    BadCidrSuffix {
        /// The offending suffix text.
        suffix: String,
    },
    /// A modifier with an empty value (`redirect=`).
    EmptyModifierValue {
        /// The modifier name.
        name: String,
    },
    /// The record does not start with `v=spf1`.
    MissingVersionTag,
    /// An exp-only macro letter (`c`, `r`, `t`) in a domain-spec.
    ExpOnlyMacro {
        /// The term the macro appeared in.
        term: String,
    },
}

impl SyntaxError {
    /// Short machine-readable code for grouping (used by the reports).
    pub fn code(&self) -> &'static str {
        match self {
            SyntaxError::MisspelledMechanism { .. } => "misspelled-mechanism",
            SyntaxError::UnknownMechanism { .. } => "unknown-mechanism",
            SyntaxError::MultipleVersionTags { .. } => "multiple-version-tags",
            SyntaxError::ConcatenatedVerification { .. } => "concatenated-verification",
            SyntaxError::WhitespaceAfterSeparator { .. } => "whitespace-after-separator",
            SyntaxError::InvalidIp4 { .. } => "invalid-ip4",
            SyntaxError::InvalidIp6 { .. } => "invalid-ip6",
            SyntaxError::BadMacro { .. } => "bad-macro",
            SyntaxError::BadCidrSuffix { .. } => "bad-cidr-suffix",
            SyntaxError::EmptyModifierValue { .. } => "empty-modifier-value",
            SyntaxError::MissingVersionTag => "missing-version-tag",
            SyntaxError::ExpOnlyMacro { .. } => "exp-only-macro",
        }
    }

    /// True for the invalid-IP class the paper tallies separately from
    /// generic syntax errors (Figure 2 splits "Invalid IP address" out).
    pub fn is_invalid_ip(&self) -> bool {
        matches!(
            self,
            SyntaxError::InvalidIp4 { .. } | SyntaxError::InvalidIp6 { .. }
        )
    }
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxError::MisspelledMechanism {
                written,
                suggestion,
            } => {
                write!(
                    f,
                    "unknown mechanism {written:?}; did you mean {suggestion:?}?"
                )
            }
            SyntaxError::UnknownMechanism { name } => write!(f, "unknown mechanism {name:?}"),
            SyntaxError::MultipleVersionTags { count } => {
                write!(f, "{count} v=spf1 tags in one record")
            }
            SyntaxError::ConcatenatedVerification { token } => {
                write!(
                    f,
                    "stray token {token:?} (merged site-verification string?)"
                )
            }
            SyntaxError::WhitespaceAfterSeparator { mechanism } => {
                write!(
                    f,
                    "mechanism {mechanism:?} has no argument (whitespace after separator?)"
                )
            }
            SyntaxError::InvalidIp4 { error, argument } => {
                write!(f, "invalid ip4 argument {argument:?}: {error}")
            }
            SyntaxError::InvalidIp6 { error, argument } => {
                write!(f, "invalid ip6 argument {argument:?}: {error}")
            }
            SyntaxError::BadMacro { error, term } => write!(f, "bad macro in {term:?}: {error}"),
            SyntaxError::BadCidrSuffix { suffix } => write!(f, "bad CIDR suffix {suffix:?}"),
            SyntaxError::EmptyModifierValue { name } => write!(f, "modifier {name}= has no value"),
            SyntaxError::MissingVersionTag => write!(f, "record does not start with v=spf1"),
            SyntaxError::ExpOnlyMacro { term } => {
                write!(f, "exp-only macro letter used in domain-spec {term:?}")
            }
        }
    }
}

impl std::error::Error for SyntaxError {}

/// Non-fatal observations surfaced alongside a successful parse.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParseWarning {
    /// The deprecated `ptr` mechanism is present (233,167 domains in §5.5).
    PtrMechanism,
    /// Terms after `all` are ignored by evaluators.
    TermsAfterAll {
        /// How many terms are unreachable.
        ignored: usize,
    },
    /// Terms after `redirect=` are ignored when the redirect is taken;
    /// combined with `all` the redirect itself is ignored.
    RedirectWithAll,
    /// An unknown modifier (allowed by RFC 7208, but often a typo or — as
    /// the paper found — an XSS payload aimed at record-checking web UIs).
    UnknownModifier {
        /// The modifier name.
        name: String,
    },
    /// The same modifier appears more than once (RFC 7208 forbids
    /// duplicate `redirect`/`exp`).
    DuplicateModifier {
        /// The duplicated name.
        name: String,
    },
}

/// Result of a lenient parse: the usable record plus everything wrong
/// with the source text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParsedRecord {
    /// Best-effort record with erroneous terms dropped.
    pub record: SpfRecord,
    /// Classified errors in source order.
    pub errors: Vec<SyntaxError>,
    /// Non-fatal observations.
    pub warnings: Vec<ParseWarning>,
}

/// Does this TXT string *identify* as an SPF record? (RFC 7208 §4.5:
/// version section is `v=spf1`, terminated by space or end of record;
/// matching is case-insensitive.) Compares bytes, so a multi-byte
/// character where the tag should end is a mismatch, not a panic.
pub fn is_spf_record(text: &str) -> bool {
    let bytes = text.trim_start().as_bytes();
    let tag = SPF_VERSION_TAG.len();
    bytes
        .get(..tag)
        .is_some_and(|head| head.eq_ignore_ascii_case(SPF_VERSION_TAG.as_bytes()))
        && matches!(bytes.get(tag), None | Some(b' '))
}

/// Strict parse: the first error aborts. This is what a receiving MTA does
/// (any syntax error ⇒ `permerror`).
pub fn parse(text: &str) -> Result<SpfRecord, SyntaxError> {
    let parsed = parse_lenient(text);
    match parsed.errors.into_iter().next() {
        None => Ok(parsed.record),
        Some(e) => Err(e),
    }
}

/// Lenient parse: collect every error, keep the valid terms (the modified
/// `checkdmarc` behaviour the study's crawler relies on).
///
/// The tokenizer works on slices of `text`: names are matched without
/// case-folding copies, and an owned string is built only for what the
/// result keeps — a term's argument, an error's or warning's text.
pub fn parse_lenient(text: &str) -> ParsedRecord {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();

    let trimmed = text.trim();
    if !is_spf_record(trimmed) {
        errors.push(SyntaxError::MissingVersionTag);
        return ParsedRecord {
            record: SpfRecord::new(Vec::new()),
            errors,
            warnings,
        };
    }
    // The tag is ASCII, so this slices at a character boundary.
    let body = &trimmed[SPF_VERSION_TAG.len()..];

    // One pass sizes the term vector and counts the v=spf1 tags (§5.3:
    // 15.3 % of records with invalid syntax contain more than one); the
    // leading tag is the one `is_spf_record` matched.
    let (mut token_count, mut tag_count) = (0usize, 1usize);
    for token in Tokens::new(body) {
        token_count += 1;
        tag_count += usize::from(token.eq_ignore_ascii_case(SPF_VERSION_TAG));
    }
    if tag_count > 1 {
        errors.push(SyntaxError::MultipleVersionTags { count: tag_count });
    }
    let mut terms: Vec<Term> = Vec::with_capacity(token_count + 1 - tag_count);

    let mut tokens = Tokens::new(body);
    let (mut seen_redirect, mut seen_exp) = (false, false);
    let mut all_index: Option<usize> = None;
    let mut has_redirect = false;

    while let Some(token) = tokens.next() {
        if token.eq_ignore_ascii_case(SPF_VERSION_TAG) {
            continue; // counted above
        }
        match classify_token(token) {
            TokenKind::Modifier { name, value } => {
                let known = MODIFIER_NAMES
                    .into_iter()
                    .find(|known| name.eq_ignore_ascii_case(known));
                if let Some(lname @ ("redirect" | "exp")) = known {
                    let seen = if lname == "redirect" {
                        &mut seen_redirect
                    } else {
                        &mut seen_exp
                    };
                    if std::mem::replace(seen, true) {
                        warnings.push(ParseWarning::DuplicateModifier {
                            name: lname.to_string(),
                        });
                    }
                }
                match parse_modifier(known, name, value) {
                    Ok(m) => {
                        if matches!(m, Modifier::Unknown { .. }) {
                            warnings.push(ParseWarning::UnknownModifier {
                                name: name.to_ascii_lowercase(),
                            });
                        }
                        if matches!(m, Modifier::Redirect { .. }) {
                            has_redirect = true;
                        }
                        terms.push(Term::Modifier(m));
                    }
                    Err(e) => errors.push(e),
                }
            }
            TokenKind::Directive {
                qualifier,
                name,
                argument,
                cidr_suffix,
                spec,
            } => match parse_mechanism(name, argument, cidr_suffix, spec, &mut tokens) {
                Ok(mech) => {
                    if matches!(mech, Mechanism::Ptr { .. }) {
                        warnings.push(ParseWarning::PtrMechanism);
                    }
                    if matches!(mech, Mechanism::All) && all_index.is_none() {
                        all_index = Some(terms.len());
                    }
                    let directive = match qualifier {
                        Some(q) => spf_types::Directive::explicit(q, mech),
                        None => spf_types::Directive::implicit(mech),
                    };
                    terms.push(Term::Directive(directive));
                }
                Err(e) => errors.push(e),
            },
            TokenKind::Stray(token) => {
                errors.push(SyntaxError::ConcatenatedVerification {
                    token: token.to_string(),
                });
            }
        }
    }

    if let Some(idx) = all_index {
        let after = terms.len() - idx - 1;
        // Modifiers after all are common and harmless; only directives are
        // truly dead. Count all trailing terms like the paper's tooling.
        if after > 0 {
            warnings.push(ParseWarning::TermsAfterAll { ignored: after });
        }
        if has_redirect {
            warnings.push(ParseWarning::RedirectWithAll);
        }
    }

    ParsedRecord {
        record: SpfRecord::new(terms),
        errors,
        warnings,
    }
}

/// The record's whitespace-separated tokens: what `str::split_whitespace`
/// yields, found a byte at a time while the text is ASCII (almost every
/// record) instead of a decoded character at a time.
#[derive(Clone)]
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Tokens { rest: text }
    }

    fn peek(&self) -> Option<&'a str> {
        self.clone().next()
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = &self.rest[first_where(self.rest, false)..];
        let (token, rest) = rest.split_at(first_where(rest, true));
        self.rest = rest;
        (!token.is_empty()).then_some(token)
    }
}

/// The offset of the first character of `s` that is (`whitespace`) or is
/// not whitespace in `char::is_whitespace`'s sense, or `s.len()`.
fn first_where(s: &str, whitespace: bool) -> usize {
    for (i, b) in s.bytes().enumerate() {
        if !b.is_ascii() {
            // Every byte before `i` is ASCII, so `i` starts a character.
            let tail = &s[i..];
            return i + tail
                .find(|c: char| c.is_whitespace() == whitespace)
                .unwrap_or(tail.len());
        }
        if matches!(b, b'\t'..=b'\r' | b' ') == whitespace {
            return i;
        }
    }
    s.len()
}

enum TokenKind<'a> {
    Directive {
        qualifier: Option<Qualifier>,
        name: &'a str,
        argument: Option<&'a str>,
        cidr_suffix: Option<&'a str>,
        /// Argument and suffix as written, without the `:` — the network
        /// spec of `ip4`/`ip6`.
        spec: &'a str,
    },
    Modifier {
        name: &'a str,
        value: &'a str,
    },
    Stray(&'a str),
}

/// Split a token into directive/modifier/stray shape without yet
/// validating the mechanism name.
fn classify_token(token: &str) -> TokenKind<'_> {
    // Modifier: name "=" value, where name starts with ALPHA.
    if let Some(eq) = token.find('=') {
        let colon = token.find(':').unwrap_or(usize::MAX);
        if eq < colon {
            let (name, value) = token.split_at(eq);
            if name.as_bytes().first().is_some_and(u8::is_ascii_alphabetic)
                && name
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.'))
            {
                return TokenKind::Modifier {
                    name,
                    value: &value[1..],
                };
            }
            return TokenKind::Stray(token);
        }
    }

    let (qualifier, rest) = match token.chars().next().and_then(Qualifier::from_symbol) {
        Some(q) => (Some(q), &token[1..]),
        None => (None, token),
    };
    if rest.is_empty() {
        return TokenKind::Stray(token);
    }
    // Mechanism name runs until ':' (argument) or '/' (cidr suffix).
    let name_end = rest.find([':', '/']).unwrap_or(rest.len());
    let (name, after) = rest.split_at(name_end);
    let spec = after.strip_prefix(':').unwrap_or(after);
    let (argument, cidr_suffix) = if after.starts_with(':') {
        // The argument may itself carry a CIDR suffix; split outside macros.
        let (a, c) = split_cidr_outside_macros(spec);
        (Some(a), c)
    } else if after.starts_with('/') {
        (None, Some(after))
    } else {
        (None, None)
    };
    if name.as_bytes().first().is_some_and(u8::is_ascii_alphabetic) {
        TokenKind::Directive {
            qualifier,
            name,
            argument,
            cidr_suffix,
            spec,
        }
    } else {
        TokenKind::Stray(token)
    }
}

/// Find the first '/' that is not inside a `%{...}` macro body (where '/'
/// can be a delimiter) and split there.
fn split_cidr_outside_macros(s: &str) -> (&str, Option<&str>) {
    let bytes = s.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 1 < bytes.len() && bytes[i + 1] == b'{' => {
                depth += 1;
                i += 2;
                continue;
            }
            b'}' if depth > 0 => depth -= 1,
            b'/' if depth == 0 => return (&s[..i], Some(&s[i..])),
            _ => {}
        }
        i += 1;
    }
    (s, None)
}

/// The modifier names [`parse_modifier`] knows, lower-cased.
const MODIFIER_NAMES: [&str; 5] = ["redirect", "exp", "ra", "rp", "rr"];

/// Parse one modifier. `known` is its entry in [`MODIFIER_NAMES`], which
/// errors report in place of the name as written.
fn parse_modifier(
    known: Option<&'static str>,
    name: &str,
    value: &str,
) -> Result<Modifier, SyntaxError> {
    match known {
        Some(lname @ ("redirect" | "exp")) => {
            if value.is_empty() {
                return Err(SyntaxError::EmptyModifierValue {
                    name: lname.to_string(),
                });
            }
            let domain = MacroString::parse(value).map_err(|error| SyntaxError::BadMacro {
                error,
                term: format!("{lname}={value}"),
            })?;
            if lname == "exp" {
                return Ok(Modifier::Exp { domain });
            }
            if domain.uses_exp_only_macros() {
                return Err(SyntaxError::ExpOnlyMacro {
                    term: format!("{lname}={value}"),
                });
            }
            Ok(Modifier::Redirect { domain })
        }
        Some("ra") => Ok(Modifier::Ra {
            mailbox: value.to_string(),
        }),
        Some("rp") => {
            let percent = value.parse::<u8>().unwrap_or(100).min(100);
            Ok(Modifier::Rp { percent })
        }
        Some("rr") => Ok(Modifier::Rr {
            tags: value.to_string(),
        }),
        _ => Ok(Modifier::Unknown {
            name: name.to_string(),
            value: value.to_string(),
        }),
    }
}

/// The mechanism names [`parse_mechanism`] knows, lower-cased, with the
/// paper's three most common misspellings (§5.3) last.
const MECHANISM_NAMES: [&str; 11] = [
    "all", "include", "exists", "a", "mx", "ptr", "ip4", "ip6", "ipv4", "ipv6", "ip",
];

/// Parse one mechanism. `spec` is the argument and suffix as one slice.
/// `tokens` lets the whitespace-after-separator recovery peek at the
/// following token (`ip4: 1.2.3.4` arrives as two tokens; we flag the
/// error and *consume* the orphaned argument so it is not double-reported
/// as a stray token).
fn parse_mechanism(
    name: &str,
    argument: Option<&str>,
    cidr_suffix: Option<&str>,
    spec: &str,
    tokens: &mut Tokens<'_>,
) -> Result<Mechanism, SyntaxError> {
    let Some(lname) = MECHANISM_NAMES
        .into_iter()
        .find(|known| name.eq_ignore_ascii_case(known))
    else {
        return Err(SyntaxError::UnknownMechanism {
            name: name.to_string(),
        });
    };
    let mut orphaned = || {
        consume_orphan_argument(tokens);
        SyntaxError::WhitespaceAfterSeparator {
            mechanism: lname.to_string(),
        }
    };
    match lname {
        "all" => Ok(Mechanism::All),
        "include" | "exists" => {
            let arg = match argument {
                Some(a) if !a.is_empty() => a,
                _ => return Err(orphaned()),
            };
            let domain = parse_domain_spec(arg, lname)?;
            Ok(if lname == "include" {
                Mechanism::Include { domain }
            } else {
                Mechanism::Exists { domain }
            })
        }
        "a" | "mx" => {
            let domain = match argument {
                None => None,
                Some("") => return Err(orphaned()),
                Some(a) => Some(parse_domain_spec(a, lname)?),
            };
            let cidr = parse_dual_cidr(cidr_suffix)?;
            Ok(if lname == "a" {
                Mechanism::A { domain, cidr }
            } else {
                Mechanism::Mx { domain, cidr }
            })
        }
        "ptr" => {
            let domain = match argument {
                None => None,
                Some("") => return Err(orphaned()),
                Some(a) => Some(parse_domain_spec(a, lname)?),
            };
            Ok(Mechanism::Ptr { domain })
        }
        // For ip4/ip6 argument and suffix together are the network spec.
        "ip4" => {
            if spec.is_empty() {
                return Err(orphaned());
            }
            Ipv4Cidr::parse(spec)
                .map(|cidr| Mechanism::Ip4 { cidr })
                .map_err(|error| SyntaxError::InvalidIp4 {
                    error,
                    argument: spec.to_string(),
                })
        }
        "ip6" => {
            if spec.is_empty() {
                return Err(orphaned());
            }
            Ipv6Cidr::parse(spec)
                .map(|cidr| Mechanism::Ip6 { cidr })
                .map_err(|error| SyntaxError::InvalidIp6 {
                    error,
                    argument: spec.to_string(),
                })
        }
        misspelled => Err(SyntaxError::MisspelledMechanism {
            written: if argument.is_some() || cidr_suffix.is_some() {
                format!("{misspelled}:{spec}")
            } else {
                misspelled.to_string()
            },
            suggestion: if misspelled == "ipv6" { "ip6" } else { "ip4" }.to_string(),
        }),
    }
}

/// If the token after a bare `mech:` looks like an argument (an IP or a
/// domain with a dot), swallow it so it is not reported twice.
fn consume_orphan_argument(tokens: &mut Tokens<'_>) {
    let looks_like_argument = tokens.peek().is_some_and(|next| {
        next.contains('.')
            && !next.contains('=')
            && Qualifier::from_symbol(next.chars().next().unwrap_or('x')).is_none()
    });
    if looks_like_argument {
        tokens.next();
    }
}

fn parse_domain_spec(arg: &str, mechanism: &str) -> Result<MacroString, SyntaxError> {
    let ms = MacroString::parse(arg).map_err(|error| SyntaxError::BadMacro {
        error,
        term: format!("{mechanism}:{arg}"),
    })?;
    if ms.uses_exp_only_macros() {
        return Err(SyntaxError::ExpOnlyMacro {
            term: format!("{mechanism}:{arg}"),
        });
    }
    Ok(ms)
}

fn parse_dual_cidr(suffix: Option<&str>) -> Result<DualCidr, SyntaxError> {
    let Some(suffix) = suffix else {
        return Ok(DualCidr::default());
    };
    let bad = || SyntaxError::BadCidrSuffix {
        suffix: suffix.to_string(),
    };
    let mut cidr = DualCidr::default();
    // Forms: "/n", "//m", "/n//m".
    let rest = suffix.strip_prefix('/').ok_or_else(bad)?;
    if let Some(v6part) = rest.strip_prefix('/') {
        // "//m"
        cidr.v6 = parse_prefix(v6part, 128).ok_or_else(bad)?;
        return Ok(cidr);
    }
    match rest.split_once("//") {
        Some((v4part, v6part)) => {
            cidr.v4 = parse_prefix(v4part, 32).ok_or_else(bad)?;
            cidr.v6 = parse_prefix(v6part, 128).ok_or_else(bad)?;
        }
        None => {
            cidr.v4 = parse_prefix(rest, 32).ok_or_else(bad)?;
        }
    }
    Ok(cidr)
}

fn parse_prefix(s: &str, max: u8) -> Option<u8> {
    let v: u8 = s.parse().ok()?;
    (v <= max).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_types::{MacroToken, Mechanism, Modifier, Qualifier};

    fn ok(text: &str) -> SpfRecord {
        let parsed = parse_lenient(text);
        assert!(
            parsed.errors.is_empty(),
            "unexpected errors for {text:?}: {:?}",
            parsed.errors
        );
        parsed.record
    }

    #[test]
    fn detects_spf_records() {
        assert!(is_spf_record("v=spf1 -all"));
        assert!(is_spf_record("V=SPF1 -all"));
        assert!(is_spf_record("v=spf1"));
        assert!(!is_spf_record("v=spf10 -all"));
        assert!(!is_spf_record("v=DMARC1; p=none"));
        assert!(!is_spf_record("spf1 -all"));
        // A multi-byte character where the tag ends: `é`, and the U+FFFD
        // a lossy wire decode makes of a 0xff byte.
        assert!(!is_spf_record("v=spf\u{e9} -all"));
        assert!(!is_spf_record("v=spf\u{FFFD}"));
        assert!(!is_spf_record("v=spf1\u{e9}"));
        assert_eq!(
            parse_lenient("v=spf\u{e9} -all").errors,
            vec![SyntaxError::MissingVersionTag]
        );
    }

    #[test]
    fn tokens_are_split_whitespace_tokens() {
        for text in [
            "",
            "   ",
            "v=spf1 -all",
            "  v=spf1\t mx\r\n-all  ",
            "a\x0Bb\x0Cc",
            "a\u{85}b\u{A0}c\u{2003}d\u{3000}",
            "\u{A0}x\u{1680}",
            "é ip4:1.2.3.4 😀\u{FFFD} \u{1c}x",
        ] {
            let expected: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(Tokens::new(text).collect::<Vec<_>>(), expected, "{text:?}");
        }
    }

    #[test]
    fn parses_paper_example() {
        let r = ok("v=spf1 +mx a:puffin.example.com/28 -all");
        assert_eq!(r.to_string(), "v=spf1 +mx a:puffin.example.com/28 -all");
        assert_eq!(r.terms.len(), 3);
        assert!(r.has_restrictive_all());
    }

    #[test]
    fn parses_common_provider_record() {
        let r = ok("v=spf1 include:spf.protection.outlook.com -all");
        let includes: Vec<String> = r.include_targets().map(|m| m.to_string()).collect();
        assert_eq!(includes, vec!["spf.protection.outlook.com"]);
    }

    #[test]
    fn parses_all_mechanism_shapes() {
        let r = ok(
            "v=spf1 a mx ptr ip4:192.0.2.0/24 ip6:2001:db8::/32 a:h.example.com \
             mx:m.example.com/28 exists:%{ir}.sbl.example.org include:x.example ~all",
        );
        assert_eq!(r.directives().count(), 10);
    }

    #[test]
    fn dual_cidr_forms() {
        let r = ok("v=spf1 a/24 mx/24//64 a:x.example//96 -all");
        let ds: Vec<_> = r.directives().collect();
        match &ds[0].mechanism {
            Mechanism::A { cidr, .. } => assert_eq!((cidr.v4, cidr.v6), (24, 128)),
            m => panic!("unexpected {m:?}"),
        }
        match &ds[1].mechanism {
            Mechanism::Mx { cidr, .. } => assert_eq!((cidr.v4, cidr.v6), (24, 64)),
            m => panic!("unexpected {m:?}"),
        }
        match &ds[2].mechanism {
            Mechanism::A { cidr, domain } => {
                assert_eq!((cidr.v4, cidr.v6), (32, 96));
                assert_eq!(domain.as_ref().unwrap().to_string(), "x.example");
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn qualifier_parsing() {
        let r = ok("v=spf1 +a -mx ~ip4:10.0.0.1 ?include:x.example -all");
        let quals: Vec<Qualifier> = r.directives().map(|d| d.qualifier).collect();
        assert_eq!(
            quals,
            vec![
                Qualifier::Pass,
                Qualifier::Fail,
                Qualifier::SoftFail,
                Qualifier::Neutral,
                Qualifier::Fail
            ]
        );
    }

    #[test]
    fn redirect_modifier() {
        let r = ok("v=spf1 redirect=_spf.example.com");
        assert_eq!(r.redirect().unwrap().to_string(), "_spf.example.com");
        assert!(r.has_restrictive_all());
    }

    #[test]
    fn rfc6652_reporting_modifiers() {
        let r = ok("v=spf1 mx ra=postmaster rp=10 rr=all -all");
        let mods: Vec<&Modifier> = r.modifiers().collect();
        assert_eq!(mods.len(), 3);
        assert!(mods.iter().all(|m| m.is_reporting_extension()));
    }

    #[test]
    fn misspelled_ipv4_detected() {
        let parsed = parse_lenient("v=spf1 ipv4:192.0.2.1 -all");
        assert_eq!(
            parsed.errors,
            vec![SyntaxError::MisspelledMechanism {
                written: "ipv4:192.0.2.1".into(),
                suggestion: "ip4".into()
            }]
        );
        // The rest of the record still parsed.
        assert!(parsed.record.has_restrictive_all());
    }

    #[test]
    fn misspelled_ipv6_and_bare_ip_detected() {
        let parsed = parse_lenient("v=spf1 ipv6:2001:db8::1 ip:10.0.0.1 -all");
        assert_eq!(parsed.errors.len(), 2);
        assert!(matches!(
            &parsed.errors[0],
            SyntaxError::MisspelledMechanism { suggestion, .. } if suggestion == "ip6"
        ));
        assert!(matches!(
            &parsed.errors[1],
            SyntaxError::MisspelledMechanism { suggestion, .. } if suggestion == "ip4"
        ));
    }

    #[test]
    fn whitespace_after_colon_detected() {
        // §5.3: 16.6 % of syntax errors.
        let parsed = parse_lenient("v=spf1 ip4: 192.0.2.1 -all");
        assert_eq!(
            parsed.errors,
            vec![SyntaxError::WhitespaceAfterSeparator {
                mechanism: "ip4".into()
            }]
        );
        // The orphaned IP must not be double-reported as a stray token.
        assert_eq!(parsed.errors.len(), 1);
    }

    #[test]
    fn whitespace_after_include_colon() {
        let parsed = parse_lenient("v=spf1 include: _spf.example.com -all");
        assert_eq!(
            parsed.errors,
            vec![SyntaxError::WhitespaceAfterSeparator {
                mechanism: "include".into()
            }]
        );
    }

    #[test]
    fn multiple_version_tags_detected() {
        // §5.3: 15.3 % of records with invalid syntax contain >1 v=spf1.
        let parsed = parse_lenient("v=spf1 include:a.example v=spf1 include:b.example -all");
        assert!(parsed
            .errors
            .iter()
            .any(|e| matches!(e, SyntaxError::MultipleVersionTags { count: 2 })));
        // Both includes survive in the best-effort record.
        assert_eq!(parsed.record.include_targets().count(), 2);
    }

    #[test]
    fn concatenated_verification_string_detected() {
        // §5.3: 7.0 % of errors are concatenations with site-verification
        // strings. A bare base64-ish blob is neither directive nor modifier.
        let parsed = parse_lenient("v=spf1 include:x.example -all 5xKo2aEvQm9");
        assert!(matches!(
            &parsed.errors[0],
            SyntaxError::ConcatenatedVerification { token } if token == "5xKo2aEvQm9"
        ));
    }

    #[test]
    fn invalid_ip_taxonomy() {
        use spf_types::Ip4ParseError;
        let cases = [
            (
                "v=spf1 ip4:1.2.3 -all",
                Ip4ParseError::WrongOctetCount { octets: 3 },
            ),
            (
                "v=spf1 ip4:mail.example.com -all",
                Ip4ParseError::DomainInsteadOfIp,
            ),
            ("v=spf1 ip4:2001:db8::1 -all", Ip4ParseError::WrongIpVersion),
        ];
        for (text, expected) in cases {
            let parsed = parse_lenient(text);
            match &parsed.errors[0] {
                SyntaxError::InvalidIp4 { error, .. } => assert_eq!(error, &expected, "{text}"),
                other => panic!("unexpected {other:?} for {text}"),
            }
        }
        // "ip4:" with nothing: whitespace-after-separator (arg detached or
        // absent entirely).
        let parsed = parse_lenient("v=spf1 ip4: -all");
        assert!(matches!(
            &parsed.errors[0],
            SyntaxError::WhitespaceAfterSeparator { .. }
        ));
    }

    #[test]
    fn dead_all_typos_are_unknown_mechanisms() {
        // §5.5: "-al" and "-all;" typos leave records without protection.
        let parsed = parse_lenient("v=spf1 mx -al");
        assert_eq!(
            parsed.errors,
            vec![SyntaxError::UnknownMechanism { name: "al".into() }]
        );
        assert!(!parsed.record.has_restrictive_all());

        let parsed = parse_lenient("v=spf1 mx -all;");
        assert_eq!(
            parsed.errors,
            vec![SyntaxError::UnknownMechanism {
                name: "all;".into()
            }]
        );
    }

    #[test]
    fn xss_record_parses_with_unknown_modifier_warning() {
        // §5.5: v=spf1 xss=<script>alert('SPF')</script> ~all
        let parsed = parse_lenient("v=spf1 xss=<script>alert('SPF')</script> ~all");
        assert!(
            parsed.errors.is_empty(),
            "unknown modifiers are legal: {:?}",
            parsed.errors
        );
        assert!(parsed
            .warnings
            .iter()
            .any(|w| matches!(w, ParseWarning::UnknownModifier { name } if name == "xss")));
        assert!(parsed.record.has_restrictive_all());
    }

    #[test]
    fn ptr_warning() {
        let parsed = parse_lenient("v=spf1 ptr -all");
        assert!(parsed.warnings.contains(&ParseWarning::PtrMechanism));
    }

    #[test]
    fn terms_after_all_warning() {
        let parsed = parse_lenient("v=spf1 -all include:late.example");
        assert!(parsed
            .warnings
            .iter()
            .any(|w| matches!(w, ParseWarning::TermsAfterAll { ignored: 1 })));
    }

    #[test]
    fn duplicate_redirect_warning() {
        let parsed = parse_lenient("v=spf1 redirect=a.example redirect=b.example");
        assert!(parsed
            .warnings
            .iter()
            .any(|w| matches!(w, ParseWarning::DuplicateModifier { name } if name == "redirect")));
    }

    #[test]
    fn empty_redirect_value() {
        let parsed = parse_lenient("v=spf1 redirect=");
        assert_eq!(
            parsed.errors,
            vec![SyntaxError::EmptyModifierValue {
                name: "redirect".into()
            }]
        );
    }

    #[test]
    fn missing_version_tag() {
        let parsed = parse_lenient("include:x.example -all");
        assert_eq!(parsed.errors, vec![SyntaxError::MissingVersionTag]);
        assert!(parsed.record.terms.is_empty());
    }

    #[test]
    fn strict_parse_surfaces_first_error() {
        assert!(parse("v=spf1 mx -all").is_ok());
        assert!(matches!(
            parse("v=spf1 ipv4:1.2.3.4 -all"),
            Err(SyntaxError::MisspelledMechanism { .. })
        ));
    }

    #[test]
    fn macro_domain_specs_survive() {
        let r = ok("v=spf1 exists:%{ir}.%{v}._spf.%{d2} -all");
        let first = r.directives().next().unwrap();
        match &first.mechanism {
            Mechanism::Exists { domain } => {
                assert!(!domain.is_literal());
                assert!(domain
                    .tokens()
                    .iter()
                    .any(|t| matches!(t, MacroToken::Expand(_))));
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn exp_only_macro_rejected_in_domain_spec() {
        let parsed = parse_lenient("v=spf1 exists:%{c}.example.com -all");
        assert!(matches!(
            &parsed.errors[0],
            SyntaxError::ExpOnlyMacro { .. }
        ));
    }

    #[test]
    fn bad_cidr_suffix() {
        let parsed = parse_lenient("v=spf1 a/33 -all");
        assert!(matches!(
            &parsed.errors[0],
            SyntaxError::BadCidrSuffix { .. }
        ));
        let parsed = parse_lenient("v=spf1 mx/abc -all");
        assert!(matches!(
            &parsed.errors[0],
            SyntaxError::BadCidrSuffix { .. }
        ));
    }

    #[test]
    fn case_insensitive_mechanisms() {
        let r = ok("v=spf1 MX Include:X.Example IP4:192.0.2.1 -ALL");
        assert_eq!(r.directives().count(), 4);
        assert!(r.has_restrictive_all());
    }

    #[test]
    fn round_trip_preserves_canonical_text() {
        for text in [
            "v=spf1 -all",
            "v=spf1 ~all",
            "v=spf1 mx -all",
            "v=spf1 include:_spf.google.com ~all",
            "v=spf1 ip4:192.0.2.0/24 ip6:2001:db8::/32 -all",
            "v=spf1 a:mail.example.com/28 redirect=backup.example.com",
        ] {
            let r = ok(text);
            assert_eq!(r.to_string(), text);
        }
    }
}
