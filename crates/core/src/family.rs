//! The address-family seam the evaluator and the compiler share: what
//! differs between an IPv4 and an IPv6 sender once DNS is involved. The
//! set algebra over either space is [`spf_types::IpSet`]'s, one body for
//! both; the concrete evaluator and the symbolic compiler each write
//! their A/AAAA logic once, generic over [`Family`].

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use spf_dns::{RecordData, RecordType};
use spf_types::{DualCidr, IpFamily, IpSet, Ipv4Cidr, Ipv6Cidr, ShardedCache};

use crate::compile::{Subtree, SubtreeMemo};

/// A sender's address family as `check_host()` meets it.
pub(crate) trait Family: IpFamily + Into<IpAddr> {
    /// The address record `a`, `mx` and `ptr` validation query for a
    /// sender of this family.
    const RTYPE: RecordType;
    /// A placeholder sender of this family; compile-time macro expansion
    /// reads only its `%{v}` family tag.
    const UNSPECIFIED: Self;
    /// The address a record carries, when it is this family's address
    /// record.
    fn record_addr(data: &RecordData) -> Option<Self>;
    /// The network `addr` spans under this family's prefix of `cidr`.
    fn network(addr: Self, cidr: &DualCidr) -> Self::Cidr;
    /// The senders of this family an `ip4:` mechanism matches.
    fn ip4_set(cidr: &Ipv4Cidr) -> IpSet<Self>;
    /// The senders of this family an `ip6:` mechanism matches.
    fn ip6_set(cidr: &Ipv6Cidr) -> IpSet<Self>;
    /// This family's half of a [`SubtreeMemo`].
    fn subtrees(memo: &SubtreeMemo) -> &ShardedCache<Arc<Subtree<IpSet<Self>>>>;
}

impl Family for Ipv4Addr {
    const RTYPE: RecordType = RecordType::A;
    const UNSPECIFIED: Self = Ipv4Addr::UNSPECIFIED;
    fn record_addr(data: &RecordData) -> Option<Self> {
        match *data {
            RecordData::A(addr) => Some(addr),
            _ => None,
        }
    }
    fn network(addr: Self, cidr: &DualCidr) -> Ipv4Cidr {
        Ipv4Cidr::new(addr, cidr.v4).expect("prefix validated at parse")
    }
    fn ip4_set(cidr: &Ipv4Cidr) -> IpSet<Self> {
        IpSet::from_iter([*cidr])
    }
    fn ip6_set(_cidr: &Ipv6Cidr) -> IpSet<Self> {
        // An `ip6:` mechanism never matches an IPv4 sender.
        IpSet::new()
    }
    fn subtrees(memo: &SubtreeMemo) -> &ShardedCache<Arc<Subtree<IpSet<Self>>>> {
        &memo.v4
    }
}

impl Family for Ipv6Addr {
    const RTYPE: RecordType = RecordType::Aaaa;
    const UNSPECIFIED: Self = Ipv6Addr::UNSPECIFIED;
    fn record_addr(data: &RecordData) -> Option<Self> {
        match *data {
            RecordData::Aaaa(addr) => Some(addr),
            _ => None,
        }
    }
    fn network(addr: Self, cidr: &DualCidr) -> Ipv6Cidr {
        Ipv6Cidr::new(addr, cidr.v6).expect("prefix validated at parse")
    }
    fn ip4_set(_cidr: &Ipv4Cidr) -> IpSet<Self> {
        // An `ip4:` mechanism never matches an IPv6 sender.
        IpSet::new()
    }
    fn ip6_set(cidr: &Ipv6Cidr) -> IpSet<Self> {
        IpSet::from_iter([*cidr])
    }
    fn subtrees(memo: &SubtreeMemo) -> &ShardedCache<Arc<Subtree<IpSet<Self>>>> {
        &memo.v6
    }
}
