//! Zone fixtures the generated population never holds.

use std::net::Ipv4Addr;
use std::sync::Arc;

use spf_dns::{RecordData, ResourceRecord, ZoneStore};
use spf_types::DomainName;

/// Register the reverse-mapping PTR for `addr` (owner
/// `d.c.b.a.in-addr.arpa`), for `ptr` mechanism tests.
pub fn add_reverse_v4(store: &ZoneStore, addr: Ipv4Addr, target: &DomainName) {
    let o = addr.octets();
    let rev = DomainName::parse(&format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0]))
        .expect("reverse name is always valid");
    store.add_record(ResourceRecord::new(rev, RecordData::Ptr(target.clone())));
}

/// The zone of a world drawn with [`crate::arb_domain`]: domain `i` is
/// `d{i}.test`. Returns the domains in index order plus the address of
/// the first published `ip4` term, if any, so callers can probe a
/// passing cell.
pub fn build_world(
    world: &[(Option<String>, Option<u32>)],
) -> (Arc<ZoneStore>, Vec<DomainName>, Option<Ipv4Addr>) {
    let store = Arc::new(ZoneStore::new());
    let mut domains = Vec::new();
    let mut first_ip4 = None;
    for (i, (record, a_addr)) in world.iter().enumerate() {
        let d = DomainName::parse(&format!("d{i}.test")).unwrap();
        if let Some(text) = record {
            store.add_txt(&d, text);
            if first_ip4.is_none() {
                if let Some(pos) = text.find("ip4:") {
                    let rest = &text[pos + 4..];
                    let end = rest.find([' ', '/']).unwrap_or(rest.len());
                    first_ip4 = rest[..end].parse().ok();
                }
            }
        }
        if let Some(addr) = a_addr {
            store.add_a(&d, Ipv4Addr::from(*addr));
        }
        domains.push(d);
    }
    (store, domains, first_ip4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom;
    use spf_dns::{LookupOutcome, RecordType};

    #[test]
    fn reverse_v4_owner_name() {
        let store = ZoneStore::new();
        add_reverse_v4(
            &store,
            Ipv4Addr::new(192, 0, 2, 7),
            &dom("mail.example.com"),
        );
        let rev = dom("7.2.0.192.in-addr.arpa");
        match store.lookup(&rev, RecordType::Ptr) {
            LookupOutcome::Records(rrs) => match &rrs[0].data {
                RecordData::Ptr(t) => assert_eq!(t, &dom("mail.example.com")),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
