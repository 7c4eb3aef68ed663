//! DNS resource-record model: the record types the paper's crawler touches
//! (TXT for SPF/DMARC, the deprecated SPF type 99, A/AAAA, MX, PTR) plus
//! the glue types (NS, CNAME) a zone needs.

use std::borrow::Cow;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use spf_types::DomainName;

/// DNS record types with their IANA numeric codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RecordType {
    /// IPv4 host address (1).
    A,
    /// Authoritative name server (2).
    Ns,
    /// Canonical name alias (5).
    Cname,
    /// Reverse-mapping pointer (12).
    Ptr,
    /// Mail exchange (15).
    Mx,
    /// Free-form text; carrier of SPF and DMARC policies (16).
    Txt,
    /// IPv6 host address (28).
    Aaaa,
    /// The deprecated SPF record type (99). RFC 7208 retired it in 2014;
    /// the paper still found 107,646 domains publishing it (§5.5).
    Spf,
}

impl RecordType {
    /// IANA type code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Spf => 99,
        }
    }

    /// Reverse lookup from an IANA type code.
    pub fn from_code(code: u16) -> Option<RecordType> {
        match code {
            1 => Some(RecordType::A),
            2 => Some(RecordType::Ns),
            5 => Some(RecordType::Cname),
            12 => Some(RecordType::Ptr),
            15 => Some(RecordType::Mx),
            16 => Some(RecordType::Txt),
            28 => Some(RecordType::Aaaa),
            99 => Some(RecordType::Spf),
            _ => None,
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Ptr => "PTR",
            RecordType::Mx => "MX",
            RecordType::Txt => "TXT",
            RecordType::Aaaa => "AAAA",
            RecordType::Spf => "SPF",
        };
        f.write_str(s)
    }
}

/// TXT record data: a sequence of character-strings, each at most 255
/// octets on the wire. Long SPF records are split across several strings
/// and the verifier concatenates them *without* separators (RFC 7208 §3.3).
///
/// The strings live behind an `Arc` so that cloning a TXT resource record
/// bumps a reference count instead of deep-copying record text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxtData {
    strings: Arc<[String]>,
}

impl TxtData {
    /// Maximum length of a single character-string on the wire.
    const MAX_CHAR_STRING: usize = 255;

    /// Build from pre-split character strings. Panics if any exceeds 255
    /// octets (construct via [`TxtData::from_text`] to auto-split).
    pub fn new(strings: Vec<String>) -> Self {
        assert!(
            strings.iter().all(|s| s.len() <= Self::MAX_CHAR_STRING),
            "character-string longer than 255 octets"
        );
        TxtData {
            strings: strings.into(),
        }
    }

    /// Split arbitrary text into ≤255-octet character-strings, the way
    /// operators publish long SPF records.
    pub fn from_text(text: &str) -> Self {
        if text.is_empty() {
            return TxtData {
                strings: vec![String::new()].into(),
            };
        }
        let bytes = text.as_bytes();
        let mut strings = Vec::new();
        let mut start = 0;
        while start < bytes.len() {
            let mut end = (start + Self::MAX_CHAR_STRING).min(bytes.len());
            // Do not split inside a UTF-8 sequence.
            while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                end -= 1;
            }
            strings.push(String::from_utf8_lossy(&bytes[start..end]).into_owned());
            start = end;
        }
        TxtData {
            strings: strings.into(),
        }
    }

    /// The character-strings as published.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// RFC 7208 §3.3 concatenation: join character-strings with no
    /// separator to recover the logical record.
    pub fn joined(&self) -> String {
        self.strings.concat()
    }

    /// [`TxtData::joined`], borrowed when the record is a single
    /// character-string — the common case, which then costs no copy.
    pub fn text(&self) -> Cow<'_, str> {
        match &*self.strings {
            [one] => Cow::Borrowed(one),
            many => Cow::Owned(many.concat()),
        }
    }

    /// Build from wire-decoded strings without the 255-octet assertion:
    /// each string was ≤255 bytes on the wire, but lossy UTF-8 decoding
    /// replaces invalid bytes with U+FFFD (3 bytes), which can expand the
    /// in-memory length past 255. The encoder re-splits as needed.
    pub(crate) fn from_decoded(strings: impl Into<Arc<[String]>>) -> Self {
        TxtData {
            strings: strings.into(),
        }
    }
}

impl Serialize for TxtData {
    fn to_value(&self) -> Value {
        Value::Seq(self.strings.iter().map(|s| Value::Str(s.clone())).collect())
    }
}

impl Deserialize for TxtData {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let strings = Vec::<String>::from_value(v)?;
        Ok(TxtData::from_decoded(strings))
    }
}

impl fmt::Display for TxtData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.strings.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s:?}")?;
        }
        Ok(())
    }
}

/// Typed RDATA for the supported record types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// The mail host name.
        exchange: DomainName,
    },
    /// TXT character-strings.
    Txt(TxtData),
    /// Deprecated SPF type 99 payload (same shape as TXT).
    Spf(TxtData),
    /// Reverse-mapping target name.
    Ptr(DomainName),
    /// Delegation.
    Ns(DomainName),
    /// Alias.
    Cname(DomainName),
}

impl RecordData {
    /// The record type this data belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Aaaa(_) => RecordType::Aaaa,
            RecordData::Mx { .. } => RecordType::Mx,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::Spf(_) => RecordType::Spf,
            RecordData::Ptr(_) => RecordType::Ptr,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Cname(_) => RecordType::Cname,
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data.
    pub data: RecordData,
}

impl ResourceRecord {
    /// Convenience constructor with a default 1-hour TTL.
    pub fn new(name: DomainName, data: RecordData) -> Self {
        ResourceRecord {
            name,
            ttl: 3600,
            data,
        }
    }

    /// The record's type.
    pub fn record_type(&self) -> RecordType {
        self.data.record_type()
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} IN {} ", self.name, self.ttl, self.record_type())?;
        match &self.data {
            RecordData::A(a) => write!(f, "{a}"),
            RecordData::Aaaa(a) => write!(f, "{a}"),
            RecordData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RecordData::Txt(t) | RecordData::Spf(t) => write!(f, "{t}"),
            RecordData::Ptr(d) | RecordData::Ns(d) | RecordData::Cname(d) => write!(f, "{d}"),
        }
    }
}

/// One answer: the records a name owns of one type (an RRset), as the
/// zone keeps them and every reader sees them. The set is immutable and
/// shared, so handing it on — from the [`crate::ZoneStore`] to a
/// resolver's caller, from the wire client's cache or a flight to each
/// waiter, into a server's reply — costs one reference count, and the
/// records are never copied. The empty set holds no allocation.
#[derive(Clone, Default)]
pub struct RrSet(Option<Arc<[ResourceRecord]>>);

impl RrSet {
    /// The empty answer: NOERROR with no records.
    pub const EMPTY: RrSet = RrSet(None);

    /// The records of `scratch` as a set, built with one allocation;
    /// `scratch` is left empty and keeps its capacity for the next set.
    pub(crate) fn take(scratch: &mut Vec<ResourceRecord>) -> RrSet {
        if scratch.is_empty() {
            return RrSet::EMPTY;
        }
        RrSet(Some(scratch.drain(..).collect()))
    }

    /// A new set of this one's records followed by `rr`, built with one
    /// allocation; readers holding this set keep it as it was.
    pub(crate) fn with(&self, rr: ResourceRecord) -> RrSet {
        RrSet(Some(self.iter().cloned().chain([rr]).collect()))
    }
}

impl std::ops::Deref for RrSet {
    type Target = [ResourceRecord];

    fn deref(&self) -> &[ResourceRecord] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl From<Vec<ResourceRecord>> for RrSet {
    fn from(records: Vec<ResourceRecord>) -> Self {
        if records.is_empty() {
            RrSet::EMPTY
        } else {
            RrSet(Some(records.into()))
        }
    }
}

impl<'a> IntoIterator for &'a RrSet {
    type Item = &'a ResourceRecord;
    type IntoIter = std::slice::Iter<'a, ResourceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for RrSet {
    fn eq(&self, other: &RrSet) -> bool {
        **self == **other
    }
}

impl Eq for RrSet {}

/// Formats as the list of its records, exactly as a `Vec` of them would.
impl fmt::Debug for RrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A DNS question: name + type (class is always IN here).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Question {
    /// The name being queried.
    pub name: DomainName,
    /// The record type being queried.
    pub rtype: RecordType,
}

impl Question {
    /// Convenience constructor.
    pub fn new(name: DomainName, rtype: RecordType) -> Self {
        Question { name, rtype }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IN {}", self.name, self.rtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_round_trip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Ptr,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
            RecordType::Spf,
        ] {
            assert_eq!(RecordType::from_code(t.code()), Some(t));
        }
        assert_eq!(RecordType::from_code(0), None);
        assert_eq!(RecordType::from_code(257), None);
    }

    #[test]
    fn spf_type_is_99() {
        assert_eq!(RecordType::Spf.code(), 99);
    }

    #[test]
    fn txt_split_and_join() {
        let long = "v=spf1 ".to_string() + &"ip4:192.0.2.1 ".repeat(40) + "-all";
        assert!(long.len() > 255);
        let txt = TxtData::from_text(&long);
        assert!(txt.strings().len() >= 2);
        assert!(txt.strings().iter().all(|s| s.len() <= 255));
        assert_eq!(txt.joined(), long);
    }

    #[test]
    fn txt_short_single_string() {
        let txt = TxtData::from_text("v=spf1 -all");
        assert_eq!(txt.strings().len(), 1);
        assert_eq!(txt.joined(), "v=spf1 -all");
    }

    #[test]
    fn txt_empty() {
        let txt = TxtData::from_text("");
        assert_eq!(txt.strings().len(), 1);
        assert_eq!(txt.joined(), "");
    }

    #[test]
    #[should_panic(expected = "255")]
    fn txt_new_rejects_oversized() {
        TxtData::new(vec!["x".repeat(256)]);
    }

    #[test]
    fn record_data_types() {
        let d = DomainName::parse("example.com").unwrap();
        assert_eq!(
            RecordData::A("1.2.3.4".parse().unwrap()).record_type(),
            RecordType::A
        );
        assert_eq!(
            RecordData::Mx {
                preference: 10,
                exchange: d.clone()
            }
            .record_type(),
            RecordType::Mx
        );
        assert_eq!(
            RecordData::Txt(TxtData::from_text("hi")).record_type(),
            RecordType::Txt
        );
        assert_eq!(RecordData::Ptr(d).record_type(), RecordType::Ptr);
    }

    /// The empty set is the answer an empty answer section decodes to,
    /// and reads like an empty `Vec`.
    #[test]
    fn the_empty_set_is_the_empty_decoded_answer() {
        let query = crate::Message::query(
            7,
            Question::new(DomainName::parse("example.com").unwrap(), RecordType::Txt),
        );
        let reply = crate::Message::response(&query, crate::Rcode::NoError, RrSet::EMPTY);
        let decoded = crate::decode(&crate::encode(&reply).unwrap()).unwrap();
        assert_eq!(decoded.answers, RrSet::EMPTY);
        assert_eq!(RrSet::from(Vec::new()), RrSet::EMPTY);
        assert_eq!(RrSet::default(), RrSet::EMPTY);
        assert!(RrSet::EMPTY.is_empty());
        assert_eq!(
            format!("{:?}", RrSet::EMPTY),
            format!("{:?}", Vec::<ResourceRecord>::new())
        );
    }

    #[test]
    fn display_forms() {
        let rr = ResourceRecord::new(
            DomainName::parse("mail.example.com").unwrap(),
            RecordData::A("192.0.2.5".parse().unwrap()),
        );
        assert_eq!(rr.to_string(), "mail.example.com 3600 IN A 192.0.2.5");
        let q = Question::new(DomainName::parse("example.com").unwrap(), RecordType::Txt);
        assert_eq!(q.to_string(), "example.com IN TXT");
    }
}
