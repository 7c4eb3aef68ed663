//! DNS domain names with the validation rules the paper's crawler enforced.
//!
//! The study explicitly reports three low-level name errors seen in the wild
//! (Section 5.3): a label longer than 63 octets, a full name longer than
//! 255 octets, and a UTF-8 decode failure. [`DomainName::parse`] surfaces all
//! three as distinct [`DomainError`] variants so the analyzer can classify
//! them the same way.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Maximum length of a single DNS label in octets (RFC 1035 §2.3.4).
const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a full domain name in octets, including separating dots
/// (RFC 1035 §2.3.4; 255 octets of wire format ≈ 253 presentation characters,
/// we validate the presentation form against 253 plus the optional root dot).
pub const MAX_NAME_LEN: usize = 253;

/// Errors raised while validating a domain name.
///
/// The first three variants mirror the exact error classes the paper counts
/// under "record not found / other errors".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainError {
    /// A DNS label is longer than 63 octets.
    LabelTooLong {
        /// Length of the offending label.
        label_len: usize,
    },
    /// The whole DNS name is longer than 255 octets (wire) / 253 (text).
    NameTooLong {
        /// Length of the offending name.
        name_len: usize,
    },
    /// The name is not valid UTF-8 / contains bytes outside the LDH subset
    /// we accept. The paper observed one utf-8 decode error in 12.8M domains.
    InvalidUtf8,
    /// A label is empty (e.g. `foo..bar` or a leading dot).
    EmptyLabel,
    /// The name is entirely empty.
    EmptyName,
    /// A character outside `[A-Za-z0-9_-]` appeared in a label.
    InvalidCharacter {
        /// The offending character.
        character: char,
    },
    /// A label begins or ends with `-`, which RFC 952/1123 hostnames forbid.
    BadHyphen,
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::LabelTooLong { label_len } => {
                write!(f, "DNS label is {label_len} octets long (> 63)")
            }
            DomainError::NameTooLong { name_len } => {
                write!(f, "DNS name is {name_len} octets long (> 253)")
            }
            DomainError::InvalidUtf8 => write!(f, "domain name is not valid UTF-8"),
            DomainError::EmptyLabel => write!(f, "domain name contains an empty label"),
            DomainError::EmptyName => write!(f, "domain name is empty"),
            DomainError::InvalidCharacter { character } => {
                write!(f, "invalid character {character:?} in domain name")
            }
            DomainError::BadHyphen => write!(f, "label starts or ends with a hyphen"),
        }
    }
}

impl std::error::Error for DomainError {}

/// A validated, case-normalized DNS domain name.
///
/// Names are stored lowercased without a trailing root dot, so
/// `DomainName::parse("Example.COM.")` and `parse("example.com")` compare
/// equal and hash identically — the property the crawler's cache relies on.
///
/// The normalized text is held behind an `Arc<str>` with a hash precomputed
/// at construction, because the crawl hot path clones domain names
/// pervasively (work dispatch, walker recursion, memo-cache keys): cloning
/// is a reference-count bump instead of a string copy, equality gets a
/// fast hash-first reject, and every hash-map operation hashes eight
/// precomputed bytes instead of the whole name. The crawler's sharded memo
/// cache also picks its shard from [`DomainName::precomputed_hash`].
///
/// ```
/// use spf_types::DomainName;
/// let a = DomainName::parse("Example.COM.").unwrap();
/// let b = DomainName::parse("example.com").unwrap();
/// assert_eq!(a, b);
/// assert_eq!(a.precomputed_hash(), b.precomputed_hash());
/// assert_eq!(a.labels().count(), 2);
/// assert_eq!(a.to_string(), "example.com");
/// ```
#[derive(Clone)]
pub struct DomainName {
    name: Arc<str>,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over the normalized name bytes: deterministic across
/// runs and platforms (unlike `RandomState`), so shard assignment and any
/// serialized artifact derived from it are reproducible.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A cheap mixing hasher for maps keyed by [`DomainName`] (or composites
/// of it): [`Hash for DomainName`](DomainName#impl-Hash-for-DomainName)
/// feeds the precomputed FNV-1a value through `write_u64`, so this hasher
/// only has to fold already-mixed words instead of re-hashing strings the
/// way SipHash does. Use via [`DomainHashBuilder`]:
///
/// ```
/// use std::collections::HashMap;
/// use spf_types::{DomainHashBuilder, DomainName};
/// let mut map: HashMap<DomainName, u32, DomainHashBuilder> = HashMap::default();
/// map.insert(DomainName::parse("example.com").unwrap(), 1);
/// assert_eq!(map.len(), 1);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct DomainHasher(u64);

impl Hasher for DomainHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (composite keys): FNV-1a continued from the
        // current state so every written byte influences the result.
        let mut hash = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    fn write_u64(&mut self, n: u64) {
        // One multiply to fold the (already well-mixed) word into the
        // state; sound for composite keys, nearly free for plain names.
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FNV_PRIME);
    }
}

/// `BuildHasher` for [`DomainHasher`], deterministic across runs.
pub type DomainHashBuilder = std::hash::BuildHasherDefault<DomainHasher>;

/// The stripe, of `stripes`, that a key with deterministic hash `hash`
/// lives in — for lock-striped maps whose stripes are
/// [`DomainHasher`]-keyed hash maps.
///
/// `hash % stripes` would hand each stripe keys that agree in their low
/// bits, and [`DomainHasher::write_u64`]'s multiply keeps low bits, so
/// inside a stripe those keys would share their home buckets. The high
/// half of the hash is folded into the low half first: a stripe's keys
/// then differ in their low bits wherever their high halves differ. A
/// hash below 2³² (a small test key) keeps its `% stripes` placement.
///
/// ```
/// use spf_types::stripe_index;
/// assert_eq!(stripe_index(3, 4), 3);
/// assert_eq!(stripe_index(1 << 32, 4), 1);
/// assert_eq!(stripe_index(u64::MAX, 1), 0);
/// ```
pub fn stripe_index(hash: u64, stripes: usize) -> usize {
    ((hash ^ (hash >> 32)) % stripes as u64) as usize
}

impl DomainName {
    /// Wrap an already-normalized (lowercase, no root dot) name.
    fn intern(normalized: &str) -> Self {
        DomainName {
            name: Arc::from(normalized),
            hash: fnv1a(normalized.as_bytes()),
        }
    }
    /// Parse and validate a domain name from presentation format.
    ///
    /// Accepts an optional trailing root dot. Underscores are allowed because
    /// service-label names like `_spf.google.com` are ubiquitous in SPF.
    pub fn parse(input: &str) -> Result<Self, DomainError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(DomainError::EmptyName);
        }
        if trimmed.len() > MAX_NAME_LEN {
            return Err(DomainError::NameTooLong {
                name_len: trimmed.len(),
            });
        }
        // One pass hashes the lower-cased name and checks every label
        // against the rules of `validate_label`; only a name that fails
        // is walked again, label by label, for the error to report.
        let bytes = trimmed.as_bytes();
        let label_fits = |l: &[u8]| {
            !l.is_empty() && l.len() <= MAX_LABEL_LEN && l[0] != b'-' && l[l.len() - 1] != b'-'
        };
        let (mut hash, mut valid, mut upper, mut label_start) = (FNV_OFFSET, true, false, 0);
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'.' {
                valid &= label_fits(&bytes[label_start..i]);
                label_start = i + 1;
            } else {
                valid &= b.is_ascii_alphanumeric() || b == b'-' || b == b'_';
                upper |= b.is_ascii_uppercase();
            }
            hash = (hash ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(FNV_PRIME);
        }
        if !(valid && label_fits(&bytes[label_start..])) {
            for label in trimmed.split('.') {
                Self::validate_label(label)?;
            }
        }
        // A valid name is ASCII. Lower-case input, the common case, is
        // shared as it stands; anything else is folded on the stack.
        let mut folded;
        let name = if upper {
            folded = [0u8; MAX_NAME_LEN];
            let folded = &mut folded[..bytes.len()];
            folded.copy_from_slice(bytes);
            folded.make_ascii_lowercase();
            std::str::from_utf8(folded).expect("a valid name is ASCII")
        } else {
            trimmed
        };
        Ok(DomainName {
            name: Arc::from(name),
            hash,
        })
    }

    fn validate_label(label: &str) -> Result<(), DomainError> {
        let bytes = label.as_bytes();
        match bytes {
            [] => return Err(DomainError::EmptyLabel),
            _ if bytes.len() > MAX_LABEL_LEN => {
                return Err(DomainError::LabelTooLong {
                    label_len: bytes.len(),
                })
            }
            [b'-', ..] | [.., b'-'] => return Err(DomainError::BadHyphen),
            _ => {}
        }
        let valid = |b: &u8| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_');
        match bytes.iter().position(|b| !valid(b)) {
            None => Ok(()),
            // Every byte before `i` is ASCII, so `i` starts a character.
            Some(i) => match label[i..].chars().next() {
                Some(character) if character.is_ascii() => {
                    Err(DomainError::InvalidCharacter { character })
                }
                _ => Err(DomainError::InvalidUtf8),
            },
        }
    }

    /// The hash computed once at construction (64-bit FNV-1a of the
    /// normalized name). [`Hash`] feeds this value to the hasher instead of
    /// re-walking the string, and the keep-first
    /// [`ShardedCache`](crate::ShardedCache) uses it directly for shard
    /// selection.
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }

    /// The normalized textual form, lowercase and without trailing dot.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// Iterator over labels, left to right (`www`, `example`, `com`).
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.name.split('.')
    }

    /// The parent domain (`example.com` for `www.example.com`), or `None`
    /// for a single-label (TLD-level) name.
    pub fn parent(&self) -> Option<DomainName> {
        let idx = self.name.find('.')?;
        Some(Self::intern(&self.name[idx + 1..]))
    }

    /// True if `self` equals `other` or is a subdomain of it.
    ///
    /// ```
    /// use spf_types::DomainName;
    /// let child = DomainName::parse("a.b.example.com").unwrap();
    /// let parent = DomainName::parse("example.com").unwrap();
    /// assert!(child.is_subdomain_of(&parent));
    /// assert!(!parent.is_subdomain_of(&child));
    /// ```
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        if self.name == other.name {
            return true;
        }
        self.name.len() > other.name.len()
            && self.name.ends_with(&*other.name)
            && self.name.as_bytes()[self.name.len() - other.name.len() - 1] == b'.'
    }

    /// Prepend a label: `"mail"` + `example.com` → `mail.example.com`.
    pub fn prepend_label(&self, label: &str) -> Result<DomainName, DomainError> {
        Self::validate_label(label)?;
        let name_len = label.len() + 1 + self.name.len();
        if name_len > MAX_NAME_LEN {
            return Err(DomainError::NameTooLong { name_len });
        }
        // Assembled on the stack: the shared text is the one allocation.
        let mut buf = [0u8; MAX_NAME_LEN];
        let (head, tail) = buf[..name_len].split_at_mut(label.len());
        head.copy_from_slice(label.as_bytes());
        head.make_ascii_lowercase();
        tail[0] = b'.';
        tail[1..].copy_from_slice(self.name.as_bytes());
        let candidate = std::str::from_utf8(&buf[..name_len]).expect("validated labels are ASCII");
        Ok(Self::intern(candidate))
    }

    /// The top-level domain label (`com` for `www.example.com`).
    ///
    /// The paper notes that many /8-including domains cluster in `.top`;
    /// the analyzer groups findings by this label.
    pub fn tld(&self) -> &str {
        self.labels().next_back().unwrap_or(&self.name)
    }

    /// Length in octets of the presentation form.
    pub fn len(&self) -> usize {
        self.name.len()
    }

    /// Never true: validation rejects empty names.
    pub fn is_empty(&self) -> bool {
        self.name.is_empty()
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        // Hash-first reject: unequal names almost never reach the string
        // comparison, which matters on the walker's include-stack scans.
        self.hash == other.hash && self.name == other.name
    }
}
impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({:?})", &*self.name)
    }
}

impl Serialize for DomainName {
    fn to_value(&self) -> Value {
        Value::Str(self.name.to_string())
    }
}

impl Deserialize for DomainName {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => DomainName::parse(s).map_err(SerdeError::custom),
            _ => Err(SerdeError::custom("expected a domain-name string")),
        }
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(&other.name)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl FromStr for DomainName {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes_case() {
        let d = DomainName::parse("ExAmPle.COM").unwrap();
        assert_eq!(d.as_str(), "example.com");
    }

    #[test]
    fn strips_trailing_root_dot() {
        let d = DomainName::parse("example.com.").unwrap();
        assert_eq!(d.as_str(), "example.com");
    }

    #[test]
    fn rejects_empty_name() {
        assert_eq!(DomainName::parse(""), Err(DomainError::EmptyName));
        assert_eq!(DomainName::parse("."), Err(DomainError::EmptyName));
    }

    #[test]
    fn rejects_empty_label() {
        assert_eq!(DomainName::parse("foo..bar"), Err(DomainError::EmptyLabel));
        assert_eq!(DomainName::parse(".foo"), Err(DomainError::EmptyLabel));
    }

    #[test]
    fn rejects_label_longer_than_63() {
        let label = "a".repeat(64);
        let err = DomainName::parse(&format!("{label}.com")).unwrap_err();
        assert_eq!(err, DomainError::LabelTooLong { label_len: 64 });
    }

    #[test]
    fn accepts_label_of_exactly_63() {
        let label = "a".repeat(63);
        assert!(DomainName::parse(&format!("{label}.com")).is_ok());
    }

    #[test]
    fn rejects_name_longer_than_253() {
        let mut name = String::new();
        while name.len() <= 253 {
            name.push_str("abcdefgh.");
        }
        name.push_str("com");
        let err = DomainName::parse(&name).unwrap_err();
        assert!(matches!(err, DomainError::NameTooLong { .. }));
    }

    #[test]
    fn rejects_non_ascii_char() {
        let err = DomainName::parse("exämple.com").unwrap_err();
        assert_eq!(err, DomainError::InvalidUtf8);
    }

    #[test]
    fn rejects_invalid_ascii_char() {
        let err = DomainName::parse("ex ample.com").unwrap_err();
        assert_eq!(err, DomainError::InvalidCharacter { character: ' ' });
    }

    #[test]
    fn rejects_leading_or_trailing_hyphen() {
        assert_eq!(DomainName::parse("-foo.com"), Err(DomainError::BadHyphen));
        assert_eq!(DomainName::parse("foo-.com"), Err(DomainError::BadHyphen));
    }

    #[test]
    fn allows_underscore_service_labels() {
        let d = DomainName::parse("_spf.google.com").unwrap();
        assert_eq!(d.as_str(), "_spf.google.com");
    }

    #[test]
    fn parent_walks_up_one_level() {
        let d = DomainName::parse("www.example.com").unwrap();
        assert_eq!(d.parent().unwrap().as_str(), "example.com");
        assert_eq!(d.parent().unwrap().parent().unwrap().as_str(), "com");
        assert_eq!(d.parent().unwrap().parent().unwrap().parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let child = DomainName::parse("deep.mail.example.com").unwrap();
        let parent = DomainName::parse("example.com").unwrap();
        let unrelated = DomainName::parse("notexample.com").unwrap();
        assert!(child.is_subdomain_of(&parent));
        assert!(parent.is_subdomain_of(&parent));
        assert!(!parent.is_subdomain_of(&child));
        // suffix match without a dot boundary must NOT count
        assert!(!unrelated.is_subdomain_of(&parent));
    }

    #[test]
    fn prepend_label_builds_child() {
        let d = DomainName::parse("example.com").unwrap();
        assert_eq!(
            d.prepend_label("Mail").unwrap().as_str(),
            "mail.example.com"
        );
        assert!(d.prepend_label("bad label").is_err());
    }

    #[test]
    fn tld_is_last_label() {
        assert_eq!(DomainName::parse("foo.bar.top").unwrap().tld(), "top");
        assert_eq!(DomainName::parse("com").unwrap().tld(), "com");
    }

    #[test]
    fn ordering_and_hashing_are_case_insensitive_via_normalization() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(DomainName::parse("EXAMPLE.com").unwrap());
        assert!(set.contains(&DomainName::parse("example.COM").unwrap()));
    }

    #[test]
    fn a_stripes_names_spread_over_its_home_buckets() {
        // 16 stripes, each a map whose home bucket is the low 4 bits of
        // the `DomainHasher` output. A stripe picked by `hash % 16` would
        // put all of its names in one bucket.
        let home_buckets = |in_stripe: &dyn Fn(u64) -> bool| {
            let mut buckets = std::collections::HashSet::new();
            for i in 0..4_000 {
                let name = DomainName::parse(&format!("customer{i}.example")).unwrap();
                if in_stripe(name.precomputed_hash()) {
                    let mut hasher = DomainHasher::default();
                    name.hash(&mut hasher);
                    buckets.insert(hasher.finish() % 16);
                }
            }
            buckets.len()
        };
        assert_eq!(home_buckets(&|h| h % 16 == 0), 1);
        assert_eq!(home_buckets(&|h| stripe_index(h, 16) == 0), 16);
    }

    #[test]
    fn prepend_and_parse_build_the_same_name() {
        let base = DomainName::parse("Example.COM").unwrap();
        let prefixed = base.prepend_label("_DMARC").unwrap();
        assert_eq!(prefixed, DomainName::parse("_dmarc.example.com").unwrap());
        assert_eq!(prefixed.as_str(), "_dmarc.example.com");
        let long = DomainName::parse(&"a".repeat(63)).unwrap();
        let long = long.prepend_label(&"b".repeat(63)).unwrap();
        let long = long.prepend_label(&"c".repeat(63)).unwrap();
        assert_eq!(long.len(), 191);
        assert!(matches!(
            long.prepend_label(&"d".repeat(63)),
            Err(DomainError::NameTooLong { name_len: 255 })
        ));
    }

    #[test]
    fn precomputed_hash_is_stable_and_case_insensitive() {
        let a = DomainName::parse("Example.COM").unwrap();
        let b = DomainName::parse("example.com").unwrap();
        let c = DomainName::parse("example.org").unwrap();
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        assert_ne!(a.precomputed_hash(), c.precomputed_hash());
        // The clone shares the backing allocation and the hash.
        let d = a.clone();
        assert_eq!(d.precomputed_hash(), a.precomputed_hash());
        assert_eq!(d, a);
    }

    #[test]
    fn derived_names_recompute_hashes_consistently() {
        let child = DomainName::parse("mail.example.com").unwrap();
        let parent = child.parent().unwrap();
        let direct = DomainName::parse("example.com").unwrap();
        assert_eq!(parent, direct);
        assert_eq!(parent.precomputed_hash(), direct.precomputed_hash());
        let back = direct.prepend_label("mail").unwrap();
        assert_eq!(back, child);
        assert_eq!(back.precomputed_hash(), child.precomputed_hash());
    }

    #[test]
    fn serde_round_trip_is_transparent_string() {
        let d = DomainName::parse("mail.example.org").unwrap();
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, "\"mail.example.org\"");
        let back: DomainName = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
