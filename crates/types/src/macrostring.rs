//! SPF macro strings (RFC 7208 §7).
//!
//! Most `domain-spec` arguments in the wild are plain domain names, but the
//! grammar allows macro expansion (`%{i}`, `%{d2}`, `%{ir}.%{v}._spf.%{d}`…),
//! and the `exists` mechanism depends on it. This module provides the parsed
//! token representation; the *expansion* (which needs the evaluation context)
//! lives in `spf-core`.

use std::borrow::Cow;
use std::fmt;

use serde::{map_get, Deserialize, Error as SerdeError, Serialize, Value};

use crate::domain::{DomainName, MAX_NAME_LEN};

/// Which value a macro letter expands to (RFC 7208 §7.2/§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MacroLetter {
    /// `s` — sender (`local-part@domain`).
    Sender,
    /// `l` — local-part of the sender.
    LocalPart,
    /// `o` — domain of the sender.
    SenderDomain,
    /// `d` — the domain currently being evaluated.
    Domain,
    /// `i` — the sending IP, dot-separated for v4 / nibble format for v6.
    Ip,
    /// `p` — the validated reverse-DNS domain of the IP (discouraged).
    ValidatedDomain,
    /// `v` — `"in-addr"` for IPv4, `"ip6"` for IPv6.
    IpVersion,
    /// `h` — the HELO/EHLO domain.
    Helo,
    /// `c` — pretty-printed sending IP (exp-only).
    SmtpClientIp,
    /// `r` — the receiving host's name (exp-only).
    ReceivingDomain,
    /// `t` — current timestamp (exp-only).
    Timestamp,
}

impl MacroLetter {
    /// Parse a (lowercased) macro letter.
    fn from_char(c: char) -> Option<MacroLetter> {
        match c.to_ascii_lowercase() {
            's' => Some(MacroLetter::Sender),
            'l' => Some(MacroLetter::LocalPart),
            'o' => Some(MacroLetter::SenderDomain),
            'd' => Some(MacroLetter::Domain),
            'i' => Some(MacroLetter::Ip),
            'p' => Some(MacroLetter::ValidatedDomain),
            'v' => Some(MacroLetter::IpVersion),
            'h' => Some(MacroLetter::Helo),
            'c' => Some(MacroLetter::SmtpClientIp),
            'r' => Some(MacroLetter::ReceivingDomain),
            't' => Some(MacroLetter::Timestamp),
            _ => None,
        }
    }

    /// The canonical lowercase letter.
    fn as_char(self) -> char {
        match self {
            MacroLetter::Sender => 's',
            MacroLetter::LocalPart => 'l',
            MacroLetter::SenderDomain => 'o',
            MacroLetter::Domain => 'd',
            MacroLetter::Ip => 'i',
            MacroLetter::ValidatedDomain => 'p',
            MacroLetter::IpVersion => 'v',
            MacroLetter::Helo => 'h',
            MacroLetter::SmtpClientIp => 'c',
            MacroLetter::ReceivingDomain => 'r',
            MacroLetter::Timestamp => 't',
        }
    }

    /// `c`, `r`, `t` may only appear in `exp=` text (RFC 7208 §7.2).
    fn exp_only(self) -> bool {
        matches!(
            self,
            MacroLetter::SmtpClientIp | MacroLetter::ReceivingDomain | MacroLetter::Timestamp
        )
    }

    /// True when the letter expands from the SMTP *session* (sender
    /// identity, HELO name, receiver, timestamp) rather than from the
    /// `(ip, domain, zone)` triple alone. `d`, `i`, `v` and `p` are
    /// session-independent: they derive from the evaluated domain, the
    /// connecting address and the DNS — the inputs a per-`(domain, ip)`
    /// verdict cache keys on.
    fn session_dependent(self) -> bool {
        matches!(
            self,
            MacroLetter::Sender
                | MacroLetter::LocalPart
                | MacroLetter::SenderDomain
                | MacroLetter::Helo
                | MacroLetter::SmtpClientIp
                | MacroLetter::ReceivingDomain
                | MacroLetter::Timestamp
        )
    }
}

/// One parsed `%{...}` expansion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacroExpand {
    /// Which value to substitute.
    pub letter: MacroLetter,
    /// Keep only the rightmost `n` parts after splitting (0 = all).
    pub digits: u8,
    /// Reverse the parts before truncation (`r` transformer).
    pub reverse: bool,
    /// Split delimiters (default `.`).
    pub delimiters: Vec<char>,
    /// URL-escape the result (uppercase macro letter).
    pub url_escape: bool,
}

impl fmt::Display for MacroExpand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letter = if self.url_escape {
            self.letter.as_char().to_ascii_uppercase()
        } else {
            self.letter.as_char()
        };
        write!(f, "%{{{letter}")?;
        if self.digits > 0 {
            write!(f, "{}", self.digits)?;
        }
        if self.reverse {
            write!(f, "r")?;
        }
        for d in &self.delimiters {
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

/// A single token of a macro string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacroToken {
    /// A run of literal characters.
    Literal(String),
    /// A `%{...}` expansion.
    Expand(MacroExpand),
    /// `%%` → literal `%`.
    PercentLiteral,
    /// `%_` → a space.
    Space,
    /// `%-` → URL-encoded space (`%20`).
    UrlSpace,
}

impl fmt::Display for MacroToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroToken::Literal(s) => f.write_str(s),
            MacroToken::Expand(e) => write!(f, "{e}"),
            MacroToken::PercentLiteral => f.write_str("%%"),
            MacroToken::Space => f.write_str("%_"),
            MacroToken::UrlSpace => f.write_str("%-"),
        }
    }
}

/// Errors raised while parsing a macro string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacroError {
    /// `%` followed by something other than `{`, `%`, `_`, `-`.
    BadPercentEscape {
        /// The character after `%`, or `None` at end of input.
        following: Option<char>,
    },
    /// `%{` without a closing `}`.
    UnterminatedMacro,
    /// Unknown macro letter.
    UnknownLetter {
        /// The unrecognized letter.
        letter: char,
    },
    /// Bad transformer section (e.g. `%{d1r5}`).
    BadTransformer {
        /// The full text between the braces.
        body: String,
    },
    /// The macro string is empty where a domain-spec is required.
    Empty,
    /// A character outside the visible ASCII range appeared.
    InvalidCharacter {
        /// The offending character.
        character: char,
    },
}

impl fmt::Display for MacroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroError::BadPercentEscape { following: Some(c) } => {
                write!(f, "invalid %-escape: %{c}")
            }
            MacroError::BadPercentEscape { following: None } => {
                write!(f, "record ends with a bare %")
            }
            MacroError::UnterminatedMacro => write!(f, "unterminated %{{...}} macro"),
            MacroError::UnknownLetter { letter } => write!(f, "unknown macro letter {letter:?}"),
            MacroError::BadTransformer { body } => {
                write!(f, "invalid macro transformer in %{{{body}}}")
            }
            MacroError::Empty => write!(f, "empty domain-spec"),
            MacroError::InvalidCharacter { character } => {
                write!(f, "invalid character {character:?} in domain-spec")
            }
        }
    }
}

impl std::error::Error for MacroError {}

/// A parsed macro string: the argument of `include:`, `a:`, `exists:`,
/// `redirect=` and friends.
///
/// ```
/// use spf_types::MacroString;
/// let plain = MacroString::parse("_spf.google.com").unwrap();
/// assert!(plain.is_literal());
/// let fancy = MacroString::parse("%{ir}.%{v}._spf.%{d2}").unwrap();
/// assert!(!fancy.is_literal());
/// assert_eq!(fancy.to_string(), "%{ir}.%{v}._spf.%{d2}");
/// ```
///
/// A literal spec also carries the [`DomainName`] it denotes, parsed
/// once with the record (see [`Self::literal_domain`]). The cached name
/// is invisible: equality, `Debug`, `Display` and the serialized form
/// (`{"tokens": …}`) see only the tokens.
#[derive(Clone)]
pub struct MacroString {
    tokens: Vec<MacroToken>,
    domain: Option<DomainName>,
}

impl MacroString {
    /// Parse a macro string. Allows an empty string only through
    /// [`MacroError::Empty`] so callers can decide whether empty is legal.
    pub fn parse(input: &str) -> Result<Self, MacroError> {
        if input.is_empty() {
            return Err(MacroError::Empty);
        }
        // Almost every spec in the wild is a plain name: one literal
        // token, its text copied once at its exact length.
        if input.bytes().all(|b| matches!(b, b'!'..=b'~') && b != b'%') {
            let literal = MacroToken::Literal(input.to_string());
            return Ok(Self::from_tokens(vec![literal]));
        }
        let mut tokens = Vec::new();
        let mut literal = String::new();
        let mut chars = input.chars().peekable();
        while let Some(c) = chars.next() {
            if c == '%' {
                if !literal.is_empty() {
                    tokens.push(MacroToken::Literal(std::mem::take(&mut literal)));
                }
                match chars.next() {
                    Some('%') => tokens.push(MacroToken::PercentLiteral),
                    Some('_') => tokens.push(MacroToken::Space),
                    Some('-') => tokens.push(MacroToken::UrlSpace),
                    Some('{') => {
                        let mut body = String::new();
                        let mut closed = false;
                        for c2 in chars.by_ref() {
                            if c2 == '}' {
                                closed = true;
                                break;
                            }
                            body.push(c2);
                        }
                        if !closed {
                            return Err(MacroError::UnterminatedMacro);
                        }
                        tokens.push(MacroToken::Expand(Self::parse_expand(&body)?));
                    }
                    other => return Err(MacroError::BadPercentEscape { following: other }),
                }
            } else if !(' '..='~').contains(&c) || c == ' ' {
                return Err(MacroError::InvalidCharacter { character: c });
            } else {
                literal.push(c);
            }
        }
        if !literal.is_empty() {
            tokens.push(MacroToken::Literal(literal));
        }
        Ok(Self::from_tokens(tokens))
    }

    /// Wrap parsed tokens, parsing the name a literal spec denotes.
    fn from_tokens(tokens: Vec<MacroToken>) -> Self {
        let text = match tokens.as_slice() {
            [MacroToken::Literal(s)] => Some(Cow::Borrowed(s.as_str())),
            _ if tokens.iter().all(|t| matches!(t, MacroToken::Literal(_))) => {
                Some(Cow::Owned(tokens.iter().map(ToString::to_string).collect()))
            }
            _ => None,
        };
        // Past 253 bytes `expand_domain` drops labels from the left
        // before parsing, so only a spec it passes through unchanged may
        // skip it.
        let domain = text
            .filter(|t| t.len() <= MAX_NAME_LEN)
            .and_then(|t| DomainName::parse(&t).ok());
        MacroString { tokens, domain }
    }

    fn parse_expand(body: &str) -> Result<MacroExpand, MacroError> {
        let mut chars = body.chars();
        let letter_char = chars
            .next()
            .ok_or(MacroError::BadTransformer { body: body.into() })?;
        let letter = MacroLetter::from_char(letter_char).ok_or(MacroError::UnknownLetter {
            letter: letter_char,
        })?;
        let url_escape = letter_char.is_ascii_uppercase();
        let rest: String = chars.collect();

        let mut digits_str = String::new();
        let mut idx = 0;
        let bytes: Vec<char> = rest.chars().collect();
        while idx < bytes.len() && bytes[idx].is_ascii_digit() {
            digits_str.push(bytes[idx]);
            idx += 1;
        }
        let mut reverse = false;
        if idx < bytes.len() && (bytes[idx] == 'r' || bytes[idx] == 'R') {
            reverse = true;
            idx += 1;
        }
        let mut delimiters = Vec::new();
        while idx < bytes.len() {
            let d = bytes[idx];
            if matches!(d, '.' | '-' | '+' | ',' | '/' | '_' | '=') {
                delimiters.push(d);
                idx += 1;
            } else {
                return Err(MacroError::BadTransformer { body: body.into() });
            }
        }
        let digits: u8 = if digits_str.is_empty() {
            0
        } else {
            // RFC: "transformers = *DIGIT"; a huge digit count is legal
            // syntax but clamp to avoid overflow (128 > any label count).
            digits_str
                .parse::<u32>()
                .map(|d| d.min(128) as u8)
                .unwrap_or(128)
        };
        // "%{d0}" is invalid per the grammar note: DIGIT must be nonzero
        // when present.
        if !digits_str.is_empty() && digits == 0 {
            return Err(MacroError::BadTransformer { body: body.into() });
        }
        Ok(MacroExpand {
            letter,
            digits,
            reverse,
            delimiters,
            url_escape,
        })
    }

    /// The token sequence.
    pub fn tokens(&self) -> &[MacroToken] {
        &self.tokens
    }

    /// True if the string contains no macro expansions — the common case,
    /// where the argument is just a domain name.
    pub fn is_literal(&self) -> bool {
        self.tokens
            .iter()
            .all(|t| matches!(t, MacroToken::Literal(_)))
    }

    /// If [`Self::is_literal`], the concatenated literal text.
    pub fn literal_text(&self) -> Option<String> {
        if !self.is_literal() {
            return None;
        }
        let mut out = String::new();
        for t in &self.tokens {
            if let MacroToken::Literal(s) = t {
                out.push_str(s);
            }
        }
        Some(out)
    }

    /// The domain name a literal spec denotes, parsed once when the spec
    /// was: `Some` exactly when every token is literal, the text is at
    /// most 253 bytes and [`DomainName::parse`] accepts it — the specs
    /// `spf_core`'s `expand_domain` would turn into this very name.
    ///
    /// ```
    /// use spf_types::{DomainName, MacroString};
    /// let plain = MacroString::parse("_SPF.Google.com").unwrap();
    /// let name = DomainName::parse("_spf.google.com").unwrap();
    /// assert_eq!(plain.literal_domain(), Some(&name));
    /// // Macros expand per message; an invalid name has nothing to cache.
    /// assert_eq!(MacroString::parse("%{d2}").unwrap().literal_domain(), None);
    /// assert_eq!(MacroString::parse("a..b").unwrap().literal_domain(), None);
    /// ```
    pub fn literal_domain(&self) -> Option<&DomainName> {
        self.domain.as_ref()
    }

    /// Build a literal macro string without parsing (for generators).
    pub fn literal(text: &str) -> Self {
        Self::from_tokens(vec![MacroToken::Literal(text.to_string())])
    }

    /// True if any expansion uses an exp-only letter (`c`, `r`, `t`) —
    /// a syntax error outside `exp=` per RFC 7208 §7.2.
    pub fn uses_exp_only_macros(&self) -> bool {
        self.tokens.iter().any(|t| match t {
            MacroToken::Expand(e) => e.letter.exp_only(),
            _ => false,
        })
    }

    /// True if any expansion uses a session-dependent
    /// letter. An evaluation that expanded such a string is *not* a pure
    /// function of `(ip, domain, zone)`, so subtree verdict caches must
    /// skip it (see `spf_core::eval`'s cached evaluation path).
    pub fn uses_session_macros(&self) -> bool {
        self.tokens.iter().any(|t| match t {
            MacroToken::Expand(e) => e.letter.session_dependent(),
            _ => false,
        })
    }
}

impl fmt::Display for MacroString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tokens {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

// Equality, `Debug` and serde by hand: each is the derive's, over the
// tokens alone — the cached name is derived from them.

impl PartialEq for MacroString {
    fn eq(&self, other: &Self) -> bool {
        self.tokens == other.tokens
    }
}

impl Eq for MacroString {}

impl fmt::Debug for MacroString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MacroString")
            .field("tokens", &self.tokens)
            .finish()
    }
}

impl Serialize for MacroString {
    fn to_value(&self) -> Value {
        Value::Map(vec![("tokens".to_string(), self.tokens.to_value())])
    }
}

impl Deserialize for MacroString {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Map(m) => Ok(Self::from_tokens(Vec::from_value(map_get(m, "tokens")?)?)),
            _ => Err(SerdeError::custom("expected map for struct MacroString")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_domain_is_literal() {
        let m = MacroString::parse("spf.protection.outlook.com").unwrap();
        assert!(m.is_literal());
        assert_eq!(m.literal_text().unwrap(), "spf.protection.outlook.com");
        assert_eq!(m.to_string(), "spf.protection.outlook.com");
    }

    #[test]
    fn empty_is_error() {
        assert_eq!(MacroString::parse(""), Err(MacroError::Empty));
    }

    #[test]
    fn simple_expand() {
        let m = MacroString::parse("%{d}").unwrap();
        assert!(!m.is_literal());
        assert_eq!(m.literal_text(), None);
        match &m.tokens()[0] {
            MacroToken::Expand(e) => {
                assert_eq!(e.letter, MacroLetter::Domain);
                assert_eq!(e.digits, 0);
                assert!(!e.reverse);
                assert!(e.delimiters.is_empty());
                assert!(!e.url_escape);
            }
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn transformers_parse() {
        let m = MacroString::parse("%{d2r-}").unwrap();
        match &m.tokens()[0] {
            MacroToken::Expand(e) => {
                assert_eq!(e.digits, 2);
                assert!(e.reverse);
                assert_eq!(e.delimiters, vec!['-']);
            }
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn uppercase_letter_means_url_escape() {
        let m = MacroString::parse("%{S}").unwrap();
        match &m.tokens()[0] {
            MacroToken::Expand(e) => {
                assert_eq!(e.letter, MacroLetter::Sender);
                assert!(e.url_escape);
            }
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn rfc_example_round_trips() {
        // From RFC 7208 §7.4.
        for s in [
            "%{s}",
            "%{o}",
            "%{ir}.%{v}._spf.%{d2}",
            "%{lr-}.lp._spf.%{d2}",
            "%{ir}.%{v}.%{l1r-}.lp._spf.%{d2}",
            "%{d2}.trusted-domains.example.net",
        ] {
            let m = MacroString::parse(s).unwrap();
            assert_eq!(m.to_string(), s, "round trip failed for {s}");
        }
    }

    #[test]
    fn percent_escapes() {
        let m = MacroString::parse("a%%b%_c%-d").unwrap();
        assert_eq!(m.to_string(), "a%%b%_c%-d");
        assert_eq!(m.tokens().len(), 7);
    }

    #[test]
    fn bad_escape_rejected() {
        assert_eq!(
            MacroString::parse("%x"),
            Err(MacroError::BadPercentEscape {
                following: Some('x')
            })
        );
        assert_eq!(
            MacroString::parse("abc%"),
            Err(MacroError::BadPercentEscape { following: None })
        );
    }

    #[test]
    fn unterminated_macro_rejected() {
        assert_eq!(
            MacroString::parse("%{d"),
            Err(MacroError::UnterminatedMacro)
        );
    }

    #[test]
    fn unknown_letter_rejected() {
        assert_eq!(
            MacroString::parse("%{z}"),
            Err(MacroError::UnknownLetter { letter: 'z' })
        );
    }

    #[test]
    fn zero_digits_rejected() {
        assert!(matches!(
            MacroString::parse("%{d0}"),
            Err(MacroError::BadTransformer { .. })
        ));
    }

    #[test]
    fn garbage_transformer_rejected() {
        assert!(matches!(
            MacroString::parse("%{d2x}"),
            Err(MacroError::BadTransformer { .. })
        ));
    }

    #[test]
    fn space_in_domain_spec_rejected() {
        // Section 5.3: "a whitespace in this position is causing 16.6% of
        // the errors" — the space after the colon makes the argument empty
        // at the term level; a space *inside* is an invalid character here.
        assert!(matches!(
            MacroString::parse("foo bar.com"),
            Err(MacroError::InvalidCharacter { character: ' ' })
        ));
    }

    /// The encodings the derived `Serialize` produced before the cached
    /// name existed, byte for byte.
    const LITERAL_JSON: &str = r#"{"tokens":[{"Literal":"spf.protection.outlook.com"}]}"#;
    const MACRO_JSON: &str = r#"{"tokens":[{"Expand":{"letter":"Ip","digits":0,"reverse":true,"delimiters":[],"url_escape":false}},{"Literal":"."},{"Expand":{"letter":"IpVersion","digits":0,"reverse":false,"delimiters":[],"url_escape":false}},{"Literal":"._spf."},{"Expand":{"letter":"Domain","digits":2,"reverse":false,"delimiters":[],"url_escape":false}}]}"#;
    const MIXED_JSON: &str = r#"{"tokens":[{"Expand":{"letter":"LocalPart","digits":1,"reverse":true,"delimiters":["-"],"url_escape":false}},{"Literal":".lp._spf."},{"Expand":{"letter":"Domain","digits":0,"reverse":false,"delimiters":[],"url_escape":true}},{"Literal":".ex"},"PercentLiteral",{"Literal":"a"},"Space",{"Literal":"m"},"UrlSpace",{"Literal":"ple"}]}"#;

    #[test]
    fn json_is_unchanged_by_the_cached_name() {
        for (spec, json) in [
            ("spf.protection.outlook.com", LITERAL_JSON),
            ("%{ir}.%{v}._spf.%{d2}", MACRO_JSON),
            ("%{l1r-}.lp._spf.%{D}.ex%%a%_m%-ple", MIXED_JSON),
        ] {
            let m = MacroString::parse(spec).unwrap();
            assert_eq!(serde_json::to_string(&m).unwrap(), json, "{spec}");
            let back: MacroString = serde_json::from_str(json).unwrap();
            assert_eq!(back, m);
            assert_eq!(back.literal_domain(), m.literal_domain());
        }
    }

    #[test]
    fn from_value_restores_the_literal_domain() {
        let back: MacroString = serde_json::from_str(LITERAL_JSON).unwrap();
        assert_eq!(
            back.literal_domain(),
            Some(&DomainName::parse("spf.protection.outlook.com").unwrap())
        );
        // Split literal tokens concatenate, as `expand` would.
        let split: MacroString =
            serde_json::from_str(r#"{"tokens":[{"Literal":"_spf."},{"Literal":"Google.com"}]}"#)
                .unwrap();
        assert_eq!(
            split.literal_domain(),
            Some(&DomainName::parse("_spf.google.com").unwrap())
        );
        let none: MacroString = serde_json::from_str(r#"{"tokens":[]}"#).unwrap();
        assert_eq!(none.literal_domain(), None);
    }

    #[test]
    fn equality_debug_and_display_ignore_the_cached_name() {
        let parsed = MacroString::parse("_spf.google.com").unwrap();
        let mut bare = parsed.clone();
        bare.domain = None;
        assert_eq!(parsed, bare);
        assert_eq!(parsed.to_string(), bare.to_string());
        assert_eq!(format!("{parsed:?}"), format!("{bare:?}"));
        assert_eq!(
            format!("{parsed:?}"),
            r#"MacroString { tokens: [Literal("_spf.google.com")] }"#
        );
        assert_eq!(MacroString::literal("_spf.google.com"), parsed);
        assert_eq!(
            MacroString::literal("_spf.google.com").literal_domain(),
            parsed.literal_domain()
        );
    }

    #[test]
    fn literal_domain_follows_the_253_byte_rule() {
        // Four 62-byte labels and a 1-byte one: 4 * 63 + 1 = 253 bytes.
        let max = format!("{}.a", vec!["b".repeat(62); 4].join("."));
        assert_eq!(max.len(), 253);
        let m = MacroString::parse(&max).unwrap();
        assert_eq!(m.literal_domain(), Some(&DomainName::parse(&max).unwrap()));
        // The same name with a root dot: `DomainName::parse` accepts it,
        // but `expand_domain` drops its leftmost label to fit 253 bytes.
        let dotted = format!("{max}.");
        assert_eq!(dotted.len(), 254);
        assert!(DomainName::parse(&dotted).is_ok());
        assert_eq!(MacroString::parse(&dotted).unwrap().literal_domain(), None);
        // A 64-byte label is no name at all.
        let wide = format!("{}.example", "c".repeat(64));
        assert!(MacroString::parse(&wide).unwrap().is_literal());
        assert_eq!(MacroString::parse(&wide).unwrap().literal_domain(), None);
        // Anything with a macro or escape is left to expansion.
        assert_eq!(
            MacroString::parse("a%%b.com").unwrap().literal_domain(),
            None
        );
        assert_eq!(MacroString::parse("%{d}").unwrap().literal_domain(), None);
    }

    #[test]
    fn exp_only_macros_detected() {
        assert!(MacroString::parse("%{c}").unwrap().uses_exp_only_macros());
        assert!(MacroString::parse("%{r}").unwrap().uses_exp_only_macros());
        assert!(MacroString::parse("%{t}").unwrap().uses_exp_only_macros());
        assert!(!MacroString::parse("%{d}").unwrap().uses_exp_only_macros());
    }
}
