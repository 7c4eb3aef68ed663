//! Macro-string expansion (RFC 7208 §7.3/§7.4).
//!
//! Expansion is context-dependent: `%{i}` is the sending IP in
//! dot-decimal (v4) or dotted-nibble (v6) form, `%{d}` the current domain,
//! transformers reverse/truncate the dot-split parts, and so on. The RFC's
//! §7.4 examples are reproduced verbatim in the tests.

use std::net::IpAddr;

use spf_types::{DomainName, MacroExpand, MacroLetter, MacroString, MacroToken};

use crate::context::EvalContext;

/// Errors during macro expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// `%{p}` would require a validated reverse lookup which the caller
    /// declined to provide (we pass `unknown` per RFC advice instead, so
    /// this only fires when a caller opts into strictness).
    ValidatedDomainUnavailable,
    /// The expanded text is not a valid domain name.
    InvalidResult {
        /// The expanded text that failed validation.
        text: String,
    },
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::ValidatedDomainUnavailable => {
                write!(f, "validated domain (%{{p}}) unavailable")
            }
            ExpandError::InvalidResult { text } => {
                write!(f, "macro expansion {text:?} is not a valid domain")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// Expand a macro string to plain text in the given context.
///
/// `current_domain` is `%{d}` — the domain whose record is being evaluated
/// (it changes across `include`/`redirect` recursion while the context
/// stays fixed). `validated_domain` supplies `%{p}` when the caller has
/// done the PTR dance; otherwise the RFC-recommended literal `unknown` is
/// used.
pub fn expand(
    ms: &MacroString,
    ctx: &EvalContext,
    current_domain: &DomainName,
    validated_domain: Option<&DomainName>,
) -> String {
    let mut out = String::new();
    for token in ms.tokens() {
        match token {
            MacroToken::Literal(s) => out.push_str(s),
            MacroToken::PercentLiteral => out.push('%'),
            MacroToken::Space => out.push(' '),
            MacroToken::UrlSpace => out.push_str("%20"),
            MacroToken::Expand(e) => {
                out.push_str(&expand_one(e, ctx, current_domain, validated_domain))
            }
        }
    }
    out
}

/// Expand an *explain-string* (the TXT payload referenced by `exp=`),
/// which — unlike a domain-spec — may contain spaces (RFC 7208 §6.2).
/// Each space-separated chunk is macro-expanded independently.
pub fn expand_explain_text(text: &str, ctx: &EvalContext, current_domain: &DomainName) -> String {
    text.split(' ')
        .map(|chunk| match MacroString::parse(chunk) {
            Ok(ms) => expand(&ms, ctx, current_domain, None),
            Err(_) => chunk.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Expand a macro string and validate the result as a domain name, the
/// way `include:`/`redirect=`/`exists:` targets are consumed. A literal
/// spec's name was parsed with its record
/// ([`MacroString::literal_domain`]), and this returns it unchanged.
pub fn expand_domain(
    ms: &MacroString,
    ctx: &EvalContext,
    current_domain: &DomainName,
    validated_domain: Option<&DomainName>,
) -> Result<DomainName, ExpandError> {
    if let Some(name) = ms.literal_domain() {
        return Ok(name.clone());
    }
    let text = expand(ms, ctx, current_domain, validated_domain);
    // RFC 7208 §7.3: if the expanded domain exceeds 253 characters, labels
    // are dropped from the *left* until it fits.
    let fitted = fit_domain(&text);
    DomainName::parse(&fitted).map_err(|_| ExpandError::InvalidResult { text })
}

fn fit_domain(text: &str) -> String {
    let mut s = text;
    while s.len() > 253 {
        match s.split_once('.') {
            Some((_, rest)) => s = rest,
            None => break,
        }
    }
    s.to_string()
}

fn expand_one(
    e: &MacroExpand,
    ctx: &EvalContext,
    current_domain: &DomainName,
    validated_domain: Option<&DomainName>,
) -> String {
    let raw = match e.letter {
        MacroLetter::Sender => ctx.sender(),
        MacroLetter::LocalPart => ctx.sender_local.clone(),
        MacroLetter::SenderDomain => ctx.sender_domain.to_string(),
        MacroLetter::Domain => current_domain.to_string(),
        MacroLetter::Ip => ip_macro(ctx.ip),
        MacroLetter::ValidatedDomain => validated_domain
            .map(|d| d.to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        MacroLetter::IpVersion => match ctx.ip {
            IpAddr::V4(_) => "in-addr".to_string(),
            IpAddr::V6(_) => "ip6".to_string(),
        },
        MacroLetter::Helo => ctx.helo.to_string(),
        MacroLetter::SmtpClientIp => ctx.ip.to_string(),
        MacroLetter::ReceivingDomain => ctx
            .receiver
            .as_ref()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        MacroLetter::Timestamp => "0".to_string(),
    };

    let transformed = transform(&raw, e);
    if e.url_escape {
        url_escape(&transformed)
    } else {
        transformed
    }
}

/// `%{i}`: dot-decimal for IPv4; dotted lowercase nibbles for IPv6
/// (RFC 7208 §7.3: "1.0.B.C.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0"
/// style).
fn ip_macro(ip: IpAddr) -> String {
    match ip {
        IpAddr::V4(v4) => v4.to_string(),
        IpAddr::V6(v6) => {
            let octets = v6.octets();
            let mut nibbles = Vec::with_capacity(32);
            for o in octets {
                nibbles.push(format!("{:x}", o >> 4));
                nibbles.push(format!("{:x}", o & 0xF));
            }
            nibbles.join(".")
        }
    }
}

fn transform(raw: &str, e: &MacroExpand) -> String {
    let delimiters: &[char] = if e.delimiters.is_empty() {
        &['.']
    } else {
        &e.delimiters
    };
    let mut parts: Vec<&str> = raw.split(|c| delimiters.contains(&c)).collect();
    if e.reverse {
        parts.reverse();
    }
    if e.digits > 0 && (e.digits as usize) < parts.len() {
        parts = parts[parts.len() - e.digits as usize..].to_vec();
    }
    parts.join(".")
}

/// RFC 3986 unreserved characters stay literal; everything else becomes
/// %XX (uppercase macro letters request URL escaping).
fn url_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        let unreserved = b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~');
        if unreserved {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_types::MacroString;

    /// The exact context of RFC 7208 §7.4:
    /// IP = 192.0.2.3, sender = strong-bad@email.example.com.
    fn rfc_ctx() -> (EvalContext, DomainName) {
        let domain = DomainName::parse("email.example.com").unwrap();
        let ctx =
            EvalContext::mail_from("192.0.2.3".parse().unwrap(), "strong-bad", domain.clone());
        (ctx, domain)
    }

    fn expand_str(s: &str) -> String {
        let (ctx, domain) = rfc_ctx();
        expand(&MacroString::parse(s).unwrap(), &ctx, &domain, None)
    }

    #[test]
    fn rfc7208_section_7_4_examples() {
        // Verbatim from the RFC.
        assert_eq!(expand_str("%{s}"), "strong-bad@email.example.com");
        assert_eq!(expand_str("%{o}"), "email.example.com");
        assert_eq!(expand_str("%{d}"), "email.example.com");
        assert_eq!(expand_str("%{d4}"), "email.example.com");
        assert_eq!(expand_str("%{d3}"), "email.example.com");
        assert_eq!(expand_str("%{d2}"), "example.com");
        assert_eq!(expand_str("%{d1}"), "com");
        assert_eq!(expand_str("%{dr}"), "com.example.email");
        assert_eq!(expand_str("%{d2r}"), "example.email");
        assert_eq!(expand_str("%{l}"), "strong-bad");
        assert_eq!(expand_str("%{l-}"), "strong.bad");
        assert_eq!(expand_str("%{lr}"), "strong-bad");
        assert_eq!(expand_str("%{lr-}"), "bad.strong");
        assert_eq!(expand_str("%{l1r-}"), "strong");
    }

    #[test]
    fn rfc7208_domain_spec_examples() {
        assert_eq!(
            expand_str("%{ir}.%{v}._spf.%{d2}"),
            "3.2.0.192.in-addr._spf.example.com"
        );
        assert_eq!(
            expand_str("%{lr-}.lp._spf.%{d2}"),
            "bad.strong.lp._spf.example.com"
        );
        assert_eq!(
            expand_str("%{lr-}.lp.%{ir}.%{v}._spf.%{d2}"),
            "bad.strong.lp.3.2.0.192.in-addr._spf.example.com"
        );
        assert_eq!(
            expand_str("%{ir}.%{v}.%{l1r-}.lp._spf.%{d2}"),
            "3.2.0.192.in-addr.strong.lp._spf.example.com"
        );
        assert_eq!(
            expand_str("%{d2}.trusted-domains.example.net"),
            "example.com.trusted-domains.example.net"
        );
    }

    #[test]
    fn ipv6_example() {
        // RFC 7208 §7.4: IPv6 2001:db8::cb01 →
        // the nibble expansion used with %{ir}.
        let domain = DomainName::parse("email.example.com").unwrap();
        let ctx = EvalContext::mail_from(
            "2001:db8::cb01".parse().unwrap(),
            "strong-bad",
            domain.clone(),
        );
        let out = expand(
            &MacroString::parse("%{ir}.%{v}._spf.%{d2}").unwrap(),
            &ctx,
            &domain,
            None,
        );
        assert_eq!(
            out,
            "1.0.b.c.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.8.b.d.0.1.0.0.2.ip6._spf.example.com"
        );
    }

    #[test]
    fn escapes() {
        assert_eq!(expand_str("%%"), "%");
        assert_eq!(expand_str("a%_b"), "a b");
        assert_eq!(expand_str("a%-b"), "a%20b");
    }

    #[test]
    fn url_escape_on_uppercase_letter() {
        // %{S} escapes the '@'.
        assert_eq!(expand_str("%{S}"), "strong-bad%40email.example.com");
    }

    #[test]
    fn validated_domain_defaults_to_unknown() {
        assert_eq!(expand_str("%{p}"), "unknown");
        let (ctx, domain) = rfc_ctx();
        let vd = DomainName::parse("mx.example.org").unwrap();
        let out = expand(
            &MacroString::parse("%{p}").unwrap(),
            &ctx,
            &domain,
            Some(&vd),
        );
        assert_eq!(out, "mx.example.org");
    }

    #[test]
    fn expand_domain_validates() {
        let (ctx, domain) = rfc_ctx();
        let ok = expand_domain(&MacroString::parse("%{d2}").unwrap(), &ctx, &domain, None).unwrap();
        assert_eq!(ok.as_str(), "example.com");
        // A space literal can't appear (parser rejects), but an expansion
        // could produce an empty label; e.g. sender local-part with dots.
        let ctx2 = EvalContext::mail_from(
            "192.0.2.3".parse().unwrap(),
            "",
            DomainName::parse("example.com").unwrap(),
        );
        let err = expand_domain(
            &MacroString::parse("%{l}.x.example").unwrap(),
            &ctx2,
            &domain,
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn overlong_expansion_drops_left_labels() {
        // Five 49-char labels + ".com" = exactly 253 characters: valid,
        // but any prefix pushes the expansion over the limit.
        let base = vec!["a".repeat(49); 5].join(".") + ".com";
        assert_eq!(base.len(), 253);
        let long_domain = DomainName::parse(&base).unwrap();
        let ctx = EvalContext::mail_from("192.0.2.3".parse().unwrap(), "x", long_domain.clone());
        let out = expand_domain(
            &MacroString::parse("prefix.%{d}").unwrap(),
            &ctx,
            &long_domain,
            None,
        )
        .unwrap();
        assert!(out.len() <= 253);
        // The "prefix." label (and the leftmost original label) were
        // dropped from the left; the right side is intact.
        assert!(out.as_str().ends_with(".com"));
        assert!(!out.as_str().starts_with("prefix"));
    }

    #[test]
    fn helo_macro() {
        assert_eq!(expand_str("%{h}"), "email.example.com");
    }

    #[test]
    fn ip_version_macro() {
        assert_eq!(expand_str("%{v}"), "in-addr");
    }
}
