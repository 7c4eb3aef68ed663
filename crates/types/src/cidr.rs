//! CIDR networks and the paper's invalid-IP-address taxonomy.
//!
//! Section 5.3 of the paper classifies invalid IP addresses in `ip4:`/`ip6:`
//! mechanisms into four concrete mistakes, all of which [`Ip4ParseError`]
//! reproduces:
//!
//! * no IP at all (`ip4:`),
//! * wrong number of octets (`ip4:1.2.3`),
//! * a domain instead of an IP (`ip4:mail.example.com`),
//! * wrong IP version (`ip4:2001:db8::1`).
//!
//! Section 6.2 additionally distinguishes a *specific host address with a
//! pathological prefix* (e.g. `1.2.3.4/0`, "rather a misunderstanding of
//! CIDR prefixes") from an intentional `0.0.0.0/0`; an [`Ipv4Cidr`]
//! keeps the address as written, so it still shows the distinction.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Classification of a malformed IPv4 argument, mirroring the four error
/// types in Section 5.3 plus prefix-length problems.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ip4ParseError {
    /// `ip4:` with nothing after the colon.
    NoIp,
    /// An octet count other than 4 (`1.2.3` or `1.2.3.4.5`).
    WrongOctetCount {
        /// How many dot-separated parts were present.
        octets: usize,
    },
    /// A hostname where an address was expected.
    DomainInsteadOfIp,
    /// An IPv6 address in an `ip4:` mechanism (or vice versa).
    WrongIpVersion,
    /// An octet failed to parse as 0..=255.
    BadOctet {
        /// The offending octet text.
        octet: String,
    },
    /// The prefix length is not in 0..=32.
    BadPrefixLen {
        /// The offending prefix text.
        len: String,
    },
}

impl fmt::Display for Ip4ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ip4ParseError::NoIp => write!(f, "no IP address given"),
            Ip4ParseError::WrongOctetCount { octets } => {
                write!(f, "wrong number of octets ({octets} instead of 4)")
            }
            Ip4ParseError::DomainInsteadOfIp => write!(f, "a domain was given instead of an IP"),
            Ip4ParseError::WrongIpVersion => write!(f, "wrong IP version for this mechanism"),
            Ip4ParseError::BadOctet { octet } => write!(f, "invalid octet {octet:?}"),
            Ip4ParseError::BadPrefixLen { len } => write!(f, "invalid CIDR prefix length {len:?}"),
        }
    }
}

impl std::error::Error for Ip4ParseError {}

/// An IPv4 network in CIDR notation.
///
/// The address is stored exactly as written (host bits are *not* masked
/// away) because the analyzer needs to distinguish `0.0.0.0/0` from
/// `198.51.100.7/0`. Use [`Ipv4Cidr::network`] for the canonical base.
///
/// ```
/// use spf_types::Ipv4Cidr;
/// let c: Ipv4Cidr = "192.0.2.0/24".parse().unwrap();
/// assert_eq!(c.address_count(), 256);
/// assert!(c.contains("192.0.2.200".parse().unwrap()));
/// assert!(!c.contains("192.0.3.1".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv4Cidr {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Cidr {
    /// Build from parts. Fails if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Result<Self, Ip4ParseError> {
        if prefix_len > 32 {
            return Err(Ip4ParseError::BadPrefixLen {
                len: prefix_len.to_string(),
            });
        }
        Ok(Ipv4Cidr { addr, prefix_len })
    }

    /// A /32 covering exactly one host.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Cidr {
            addr,
            prefix_len: 32,
        }
    }

    /// Parse `a.b.c.d` or `a.b.c.d/len`, classifying failures per the paper.
    pub fn parse(input: &str) -> Result<Self, Ip4ParseError> {
        let (ip_part, prefix_part) = match input.split_once('/') {
            Some((ip, len)) => (ip, Some(len)),
            None => (input, None),
        };
        let addr = parse_ipv4_strict(ip_part)?;
        let prefix_len = match prefix_part {
            None => 32,
            Some(len_str) => {
                // An empty prefix after '/' ("1.2.3.4/") is a bad prefix.
                let len: u8 = len_str.parse().map_err(|_| Ip4ParseError::BadPrefixLen {
                    len: len_str.to_string(),
                })?;
                if len > 32 {
                    return Err(Ip4ParseError::BadPrefixLen {
                        len: len_str.to_string(),
                    });
                }
                len
            }
        };
        Ok(Ipv4Cidr { addr, prefix_len })
    }

    /// The address exactly as written (host bits preserved).
    pub fn raw_address(&self) -> Ipv4Addr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The netmask as a u32 (`/24` → `0xffff_ff00`).
    pub fn mask(&self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len)
        }
    }

    /// The canonical network base address (host bits cleared).
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.addr) & self.mask())
    }

    /// The last address of the network (broadcast for /24 etc.).
    pub fn last(&self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.addr) & self.mask() | !self.mask())
    }

    /// Number of addresses covered: `2^(32 - prefix_len)`.
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - self.prefix_len as u32)
    }

    /// Membership test.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & self.mask() == u32::from(self.addr) & self.mask()
    }

    /// The inclusive `(first, last)` range as u32s, for interval-set math.
    pub fn range_u32(&self) -> (u32, u32) {
        let base = u32::from(self.addr) & self.mask();
        (base, base | !self.mask())
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prefix_len == 32 {
            write!(f, "{}", self.addr)
        } else {
            write!(f, "{}/{}", self.addr, self.prefix_len)
        }
    }
}

impl FromStr for Ipv4Cidr {
    type Err = Ip4ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ipv4Cidr::parse(s)
    }
}

/// Parse a dotted-quad IPv4 address with the paper's error taxonomy,
/// rejecting everything `std`'s lenient-ish parser would mask.
fn parse_ipv4_strict(input: &str) -> Result<Ipv4Addr, Ip4ParseError> {
    if let Some(octets) = dotted_quad(input.as_bytes()) {
        return Ok(Ipv4Addr::from(octets));
    }
    // Not a well-formed address: find which of the paper's classes.
    if input.is_empty() {
        return Err(Ip4ParseError::NoIp);
    }
    if input.contains(':') {
        // Looks like IPv6 in an ip4 context.
        if input.parse::<Ipv6Addr>().is_ok()
            || input.chars().all(|c| c.is_ascii_hexdigit() || c == ':')
        {
            return Err(Ip4ParseError::WrongIpVersion);
        }
        return Err(Ip4ParseError::DomainInsteadOfIp);
    }
    let numeric = |p: &str| !p.is_empty() && p.bytes().all(|c| c.is_ascii_digit());
    if !input.split('.').all(numeric) {
        return Err(Ip4ParseError::DomainInsteadOfIp);
    }
    let parts = input.split('.').count();
    if parts != 4 {
        return Err(Ip4ParseError::WrongOctetCount { octets: parts });
    }
    let mut octets = [0u8; 4];
    for (octet, part) in octets.iter_mut().zip(input.split('.')) {
        *octet = part.parse::<u8>().map_err(|_| Ip4ParseError::BadOctet {
            octet: part.to_string(),
        })?;
    }
    Ok(Ipv4Addr::from(octets))
}

/// Four runs of decimal digits joined by dots, each at most 255 — read
/// in one pass. `None` for anything else, which [`parse_ipv4_strict`]
/// then classifies.
fn dotted_quad(input: &[u8]) -> Option<[u8; 4]> {
    let mut octets = [0u8; 4];
    let (mut index, mut value, mut digits) = (0, 0u32, 0);
    for &b in input {
        match b {
            b'0'..=b'9' => {
                value = value * 10 + u32::from(b - b'0');
                digits += 1;
                if value > 255 {
                    return None;
                }
            }
            b'.' if digits > 0 && index < 3 => {
                octets[index] = value as u8;
                (index, value, digits) = (index + 1, 0, 0);
            }
            _ => return None,
        }
    }
    if digits == 0 || index != 3 {
        return None;
    }
    octets[3] = value as u8;
    Some(octets)
}

/// Errors raised while parsing an IPv6 CIDR.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ip6ParseError {
    /// `ip6:` with nothing after the colon.
    NoIp,
    /// Not parseable as an IPv6 address.
    BadAddress {
        /// The text that failed to parse.
        input: String,
    },
    /// An IPv4 address in an `ip6:` mechanism.
    WrongIpVersion,
    /// The prefix length is not in 0..=128.
    BadPrefixLen {
        /// The offending prefix text.
        len: String,
    },
}

impl fmt::Display for Ip6ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ip6ParseError::NoIp => write!(f, "no IPv6 address given"),
            Ip6ParseError::BadAddress { input } => write!(f, "invalid IPv6 address {input:?}"),
            Ip6ParseError::WrongIpVersion => write!(f, "wrong IP version for this mechanism"),
            Ip6ParseError::BadPrefixLen { len } => {
                write!(f, "invalid IPv6 prefix length {len:?}")
            }
        }
    }
}

impl std::error::Error for Ip6ParseError {}

/// An IPv6 network in CIDR notation.
///
/// The paper restricts its quantitative analysis to IPv4 (only 0.5 % of
/// domains use `ip6`), but the evaluator still has to *match* ip6 terms,
/// so the full type is provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv6Cidr {
    addr: Ipv6Addr,
    prefix_len: u8,
}

impl Ipv6Cidr {
    /// Build from parts. Fails if `prefix_len > 128`.
    pub fn new(addr: Ipv6Addr, prefix_len: u8) -> Result<Self, Ip6ParseError> {
        if prefix_len > 128 {
            return Err(Ip6ParseError::BadPrefixLen {
                len: prefix_len.to_string(),
            });
        }
        Ok(Ipv6Cidr { addr, prefix_len })
    }

    /// A /128 covering exactly one host.
    pub fn host(addr: Ipv6Addr) -> Self {
        Ipv6Cidr {
            addr,
            prefix_len: 128,
        }
    }

    /// Parse `addr` or `addr/len`.
    pub fn parse(input: &str) -> Result<Self, Ip6ParseError> {
        let (ip_part, prefix_part) = match input.split_once('/') {
            Some((ip, len)) => (ip, Some(len)),
            None => (input, None),
        };
        if ip_part.is_empty() {
            return Err(Ip6ParseError::NoIp);
        }
        let addr: Ipv6Addr = ip_part.parse().map_err(|_| {
            if ip_part.parse::<Ipv4Addr>().is_ok() {
                Ip6ParseError::WrongIpVersion
            } else {
                Ip6ParseError::BadAddress {
                    input: ip_part.to_string(),
                }
            }
        })?;
        let prefix_len = match prefix_part {
            None => 128,
            Some(len_str) => {
                let len: u8 = len_str.parse().map_err(|_| Ip6ParseError::BadPrefixLen {
                    len: len_str.to_string(),
                })?;
                if len > 128 {
                    return Err(Ip6ParseError::BadPrefixLen {
                        len: len_str.to_string(),
                    });
                }
                len
            }
        };
        Ok(Ipv6Cidr { addr, prefix_len })
    }

    /// The address exactly as written.
    pub fn raw_address(&self) -> Ipv6Addr {
        self.addr
    }

    /// Prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    fn mask(&self) -> u128 {
        if self.prefix_len == 0 {
            0
        } else {
            u128::MAX << (128 - self.prefix_len as u32)
        }
    }

    /// Membership test.
    pub fn contains(&self, ip: Ipv6Addr) -> bool {
        u128::from(ip) & self.mask() == u128::from(self.addr) & self.mask()
    }

    /// Number of addresses covered, saturating at `u128::MAX` for /0.
    pub fn address_count(&self) -> u128 {
        if self.prefix_len == 0 {
            u128::MAX
        } else {
            1u128 << (128 - self.prefix_len as u32)
        }
    }

    /// The inclusive `(first, last)` range as u128s, for interval-set math
    /// (the IPv6 counterpart of [`Ipv4Cidr::range_u32`]).
    pub fn range_u128(&self) -> (u128, u128) {
        let base = u128::from(self.addr) & self.mask();
        (base, base | !self.mask())
    }
}

impl fmt::Display for Ipv6Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prefix_len == 128 {
            write!(f, "{}", self.addr)
        } else {
            write!(f, "{}/{}", self.addr, self.prefix_len)
        }
    }
}

impl FromStr for Ipv6Cidr {
    type Err = Ip6ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ipv6Cidr::parse(s)
    }
}

/// A dual-prefix pair used by the `a` and `mx` mechanisms, which accept
/// independent IPv4 and IPv6 prefix lengths (`a:host/24//64`, RFC 7208 §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DualCidr {
    /// IPv4 prefix length applied to A records (default 32).
    pub v4: u8,
    /// IPv6 prefix length applied to AAAA records (default 128).
    pub v6: u8,
}

impl Default for DualCidr {
    fn default() -> Self {
        DualCidr { v4: 32, v6: 128 }
    }
}

impl fmt::Display for DualCidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.v4, self.v6) {
            (32, 128) => Ok(()),
            (v4, 128) => write!(f, "/{v4}"),
            (32, v6) => write!(f, "//{v6}"),
            (v4, v6) => write!(f, "/{v4}//{v6}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_host() {
        let c = Ipv4Cidr::parse("192.0.2.1").unwrap();
        assert_eq!(c.prefix_len(), 32);
        assert_eq!(c.address_count(), 1);
        assert_eq!(c.to_string(), "192.0.2.1");
    }

    #[test]
    fn parses_network() {
        let c = Ipv4Cidr::parse("10.0.0.0/8").unwrap();
        assert_eq!(c.address_count(), 1 << 24);
        assert!(c.contains("10.255.255.255".parse().unwrap()));
        assert!(!c.contains("11.0.0.0".parse().unwrap()));
    }

    #[test]
    fn slash_zero_covers_everything() {
        let c = Ipv4Cidr::parse("0.0.0.0/0").unwrap();
        assert_eq!(c.address_count(), 1u64 << 32);
        assert!(c.contains("255.255.255.255".parse().unwrap()));
        assert_eq!(c.addr, c.network());
    }

    #[test]
    fn host_bits_detected_for_misunderstood_prefix() {
        // Paper §6.2: 15 domains wrote a specific address with /0.
        let c = Ipv4Cidr::parse("198.51.100.7/0").unwrap();
        assert_ne!(c.addr, c.network());
        assert_eq!(c.network(), Ipv4Addr::new(0, 0, 0, 0));
        assert_eq!(c.to_string(), "198.51.100.7/0");
        let proper = Ipv4Cidr::parse("192.0.2.0/24").unwrap();
        assert_eq!(proper.addr, proper.network());
    }

    #[test]
    fn error_no_ip() {
        assert_eq!(Ipv4Cidr::parse(""), Err(Ip4ParseError::NoIp));
    }

    #[test]
    fn error_wrong_octet_count() {
        assert_eq!(
            Ipv4Cidr::parse("1.2.3"),
            Err(Ip4ParseError::WrongOctetCount { octets: 3 })
        );
        assert_eq!(
            Ipv4Cidr::parse("1.2.3.4.5"),
            Err(Ip4ParseError::WrongOctetCount { octets: 5 })
        );
    }

    #[test]
    fn error_domain_instead_of_ip() {
        assert_eq!(
            Ipv4Cidr::parse("mail.example.com"),
            Err(Ip4ParseError::DomainInsteadOfIp)
        );
    }

    #[test]
    fn error_wrong_version() {
        assert_eq!(
            Ipv4Cidr::parse("2001:db8::1"),
            Err(Ip4ParseError::WrongIpVersion)
        );
        assert_eq!(
            Ipv6Cidr::parse("192.0.2.1"),
            Err(Ip6ParseError::WrongIpVersion)
        );
    }

    #[test]
    fn error_octet_out_of_range() {
        assert!(matches!(
            Ipv4Cidr::parse("1.2.3.256"),
            Err(Ip4ParseError::BadOctet { .. })
        ));
    }

    #[test]
    fn error_bad_prefix() {
        assert!(matches!(
            Ipv4Cidr::parse("1.2.3.4/33"),
            Err(Ip4ParseError::BadPrefixLen { .. })
        ));
        assert!(matches!(
            Ipv4Cidr::parse("1.2.3.4/"),
            Err(Ip4ParseError::BadPrefixLen { .. })
        ));
        assert!(matches!(
            Ipv4Cidr::parse("1.2.3.4/ab"),
            Err(Ip4ParseError::BadPrefixLen { .. })
        ));
    }

    #[test]
    fn range_u32_is_inclusive() {
        let c = Ipv4Cidr::parse("192.0.2.0/30").unwrap();
        let (lo, hi) = c.range_u32();
        assert_eq!(hi - lo + 1, 4);
    }

    #[test]
    fn ipv6_basics() {
        let c = Ipv6Cidr::parse("2001:db8::/32").unwrap();
        assert!(c.contains("2001:db8:1::1".parse().unwrap()));
        assert!(!c.contains("2001:db9::1".parse().unwrap()));
        assert_eq!(c.to_string(), "2001:db8::/32");
        assert_eq!(Ipv6Cidr::parse("::1").unwrap().prefix_len(), 128);
    }

    #[test]
    fn ipv6_errors() {
        assert_eq!(Ipv6Cidr::parse(""), Err(Ip6ParseError::NoIp));
        assert!(matches!(
            Ipv6Cidr::parse("zz::1"),
            Err(Ip6ParseError::BadAddress { .. })
        ));
        assert!(matches!(
            Ipv6Cidr::parse("2001:db8::/129"),
            Err(Ip6ParseError::BadPrefixLen { .. })
        ));
    }

    #[test]
    fn dual_cidr_display() {
        assert_eq!(DualCidr::default().to_string(), "");
        assert_eq!(DualCidr { v4: 24, v6: 128 }.to_string(), "/24");
        assert_eq!(DualCidr { v4: 32, v6: 64 }.to_string(), "//64");
        assert_eq!(DualCidr { v4: 28, v6: 64 }.to_string(), "/28//64");
    }

    #[test]
    fn display_round_trips() {
        for s in ["192.0.2.1", "10.0.0.0/8", "0.0.0.0/0", "203.0.113.64/28"] {
            let c = Ipv4Cidr::parse(s).unwrap();
            assert_eq!(c.to_string(), s);
        }
    }
}
