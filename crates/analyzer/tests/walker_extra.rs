//! Walker behaviours the Table 3 / Figure 7 pipelines depend on: which
//! column a network lands in, redirect handling inside subtree sums, and
//! cache interactions across scan rounds.

use std::sync::Arc;

use spf_analyzer::{ErrorClass, Walker};
use spf_dns::{ZoneResolver, ZoneStore};
use spf_testkit::dom;

fn walker(store: &Arc<ZoneStore>) -> Walker<ZoneResolver> {
    Walker::new(ZoneResolver::new(Arc::clone(store)))
}

#[test]
fn a_mechanism_with_prefix_contributes_direct_network() {
    // Table 3's direct column covers ip4, a and mx: an `a/8` yields an /8
    // network derived from the resolved address.
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("d.example"), "v=spf1 a:host.d.example/8 -all");
    store.add_a(&dom("host.d.example"), "10.1.2.3".parse().unwrap());
    let a = walker(&store).analyze(&dom("d.example"));
    assert_eq!(a.direct_networks.len(), 1);
    assert_eq!(a.direct_networks[0].prefix_len(), 8);
    assert_eq!(a.allowed_ip_count(), 1 << 24);
    assert!(a.include_networks.is_empty());
}

#[test]
fn mx_mechanism_with_prefix_contributes_direct_networks() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("m.example"), "v=spf1 mx/16 -all");
    store.add_mx(&dom("m.example"), 10, &dom("mx1.m.example"));
    store.add_mx(&dom("m.example"), 20, &dom("mx2.m.example"));
    store.add_a(&dom("mx1.m.example"), "172.16.1.1".parse().unwrap());
    store.add_a(&dom("mx2.m.example"), "172.17.1.1".parse().unwrap());
    let a = walker(&store).analyze(&dom("m.example"));
    assert_eq!(a.direct_networks.len(), 2);
    assert!(a.direct_networks.iter().all(|c| c.prefix_len() == 16));
    assert_eq!(a.allowed_ip_count(), 2 * 65_536);
}

#[test]
fn redirect_target_networks_count_as_include_column() {
    // A redirect crosses administrative borders like an include; its
    // networks belong to the include column.
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("front.example"), "v=spf1 redirect=back.example");
    store.add_txt(&dom("back.example"), "v=spf1 ip4:10.0.0.0/8 -all");
    let a = walker(&store).analyze(&dom("front.example"));
    assert!(a.direct_networks.is_empty());
    assert_eq!(a.include_networks.len(), 1);
    assert_eq!(a.include_networks[0].prefix_len(), 8);
    assert_eq!(a.allowed_ip_count(), 1 << 24);
    // The redirect consumed one lookup term.
    assert_eq!(a.subtree_lookups, 1);
}

#[test]
fn nested_include_networks_flatten_into_include_column() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("root.example"), "v=spf1 include:l1.example -all");
    store.add_txt(
        &dom("l1.example"),
        "v=spf1 ip4:192.0.2.0/24 include:l2.example -all",
    );
    store.add_txt(&dom("l2.example"), "v=spf1 ip4:198.51.100.0/24 -all");
    let a = walker(&store).analyze(&dom("root.example"));
    let mut prefixes: Vec<u8> = a.include_networks.iter().map(|c| c.prefix_len()).collect();
    prefixes.sort_unstable();
    assert_eq!(prefixes, vec![24, 24]);
    assert_eq!(a.max_depth, 2);
}

#[test]
fn clear_cache_makes_rescans_see_fixed_records() {
    let store = Arc::new(ZoneStore::new());
    let d = dom("fixable.example");
    store.add_txt(&d, "v=spf1 ipv4:1.2.3.4 -all");
    let w = walker(&store);
    let before = w.analyze(&d);
    assert!(before
        .errors
        .iter()
        .any(|e| e.class == ErrorClass::SyntaxError));
    // Operator fixes the record; a stale cache would hide it.
    store.replace_txt(&d, "v=spf1 ip4:1.2.3.4 -all");
    let stale = w.analyze(&d);
    assert!(
        !stale.errors.is_empty(),
        "memoized analysis is intentionally stale"
    );
    w.clear_cache();
    let fresh = w.analyze(&d);
    assert!(fresh.errors.is_empty());
    assert_eq!(fresh.allowed_ip_count(), 1);
}

#[test]
fn macro_include_targets_are_skipped_statically() {
    // The paper can only analyze exists/macros with live mail; the walker
    // skips them without error, like the study's "measurement focus".
    let store = Arc::new(ZoneStore::new());
    store.add_txt(
        &dom("dyn.example"),
        "v=spf1 include:%{ir}.dyn.example ip4:10.0.0.1 -all",
    );
    let a = walker(&store).analyze(&dom("dyn.example"));
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(a.allowed_ip_count(), 1);
    // The include still costs a lookup term.
    assert_eq!(a.subtree_lookups, 1);
    // But contributes no statically-known target.
    assert!(a.include_targets.is_empty());
    assert_eq!(a.top_level_include_count, 1);
}

#[test]
fn shared_cache_is_consistent_under_parallel_analysis() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("provider.example"), "v=spf1 ip4:198.51.100.0/24 -all");
    let mut domains = Vec::new();
    for i in 0..64 {
        let d = dom(&format!("c{i}.example"));
        store.add_txt(&d, "v=spf1 include:provider.example -all");
        domains.push(d);
    }
    let w = Arc::new(walker(&store));
    std::thread::scope(|scope| {
        for chunk in domains.chunks(16) {
            let w = Arc::clone(&w);
            scope.spawn(move || {
                for d in chunk {
                    let a = w.analyze(d);
                    assert_eq!(a.allowed_ip_count(), 256);
                }
            });
        }
    });
    // The provider analysis is cached exactly once per name.
    assert!(w.cache_len() >= 65);
}
