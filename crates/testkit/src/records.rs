//! SPF record generators for the property suites. Where two suites draw
//! different shapes, the difference is an argument, so each suite draws
//! exactly the cases it always drew.

use std::ops::Range;

use proptest::prelude::*;

/// A qualifier prefix: none, or one of `+ - ~ ?`.
pub fn arb_qualifier() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just("+"), Just("-"), Just("~"), Just("?")]
}

/// A syntactically valid SPF term: `ip4`, `include`, `a`, `mx` and
/// `exists` with random targets, plus `redirect=` when `redirect`.
pub fn arb_term(redirect: bool) -> impl Strategy<Value = String> {
    let ip = any::<u32>().prop_map(|v| std::net::Ipv4Addr::from(v).to_string());
    let domain = proptest::collection::vec("[a-z]{1,8}", 1..3).prop_map(|l| l.join("."));
    let mut terms = vec![
        (arb_qualifier(), ip.clone(), 8u8..=32)
            .prop_map(|(q, ip, p)| format!("{q}ip4:{ip}/{p}"))
            .boxed(),
        (arb_qualifier(), ip)
            .prop_map(|(q, ip)| format!("{q}ip4:{ip}"))
            .boxed(),
        (arb_qualifier(), domain.clone())
            .prop_map(|(q, d)| format!("{q}include:{d}"))
            .boxed(),
        (arb_qualifier(), domain.clone())
            .prop_map(|(q, d)| format!("{q}a:{d}"))
            .boxed(),
        (arb_qualifier(), domain.clone())
            .prop_map(|(q, d)| format!("{q}mx:{d}"))
            .boxed(),
        arb_qualifier().prop_map(|q| format!("{q}a")).boxed(),
        arb_qualifier().prop_map(|q| format!("{q}mx")).boxed(),
        (arb_qualifier(), domain.clone())
            .prop_map(|(q, d)| format!("{q}exists:{d}"))
            .boxed(),
    ];
    if redirect {
        terms.push(domain.prop_map(|d| format!("redirect={d}")).boxed());
    }
    Union::new(terms)
}

/// `v=spf1`, then `terms` draws of [`arb_term`], then an optional
/// `all` with any qualifier.
pub fn arb_record(terms: Range<usize>, redirect: bool) -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(arb_term(redirect), terms),
        prop_oneof![
            Just(""),
            Just(" -all"),
            Just(" ~all"),
            Just(" ?all"),
            Just(" +all"),
        ],
    )
        .prop_map(|(terms, all)| {
            let mut s = String::from("v=spf1");
            for t in &terms {
                s.push(' ');
                s.push_str(t);
            }
            s.push_str(all);
            s
        })
}

/// One domain of a generated world: an optional SPF record (`v=spf1`,
/// up to four draws of `term`, an optional `all`) plus an optional A
/// record (an absent one makes `a:`/`mx:` terms void lookups).
pub fn arb_domain<S: Strategy<Value = String>>(
    term: S,
) -> impl Strategy<Value = (Option<String>, Option<u32>)> {
    (
        0u8..10,
        proptest::collection::vec(term, 0..5),
        prop_oneof![Just(""), Just(" -all"), Just(" ~all"), Just(" +all")],
        0u8..2,
        any::<u32>(),
    )
        .prop_map(|(has_spf, terms, all, has_a, addr)| {
            let record = (has_spf < 9).then(|| {
                let mut s = String::from("v=spf1");
                for t in &terms {
                    s.push(' ');
                    s.push_str(t);
                }
                s.push_str(all);
                s
            });
            (record, (has_a == 1).then_some(addr))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the `Debug` form of the first 1 000 values `strategy`
    /// draws under the runner's seeds for test name `x`.
    fn digest<S: Strategy>(strategy: S) -> u64
    where
        S::Value: std::fmt::Debug,
    {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        proptest::test_runner::run(ProptestConfig::with_cases(1000), "x", |rng| {
            for b in format!("{:?}", strategy.generate(rng)).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Ok(())
        });
        h
    }

    /// The digests of the per-suite copies these generators replaced:
    /// `proptest_auth` draws `arb_record(0..6, false)`,
    /// `proptest_pipeline` `arb_record(0..8, true)`. A change here
    /// changes the cases those suites run.
    #[test]
    fn record_generators_draw_the_pinned_cases() {
        assert_eq!(digest(arb_qualifier()), 0xfcf5_46c4_da74_f278);
        assert_eq!(digest(arb_term(false)), 0x6195_1e03_b8fa_a35b);
        assert_eq!(digest(arb_term(true)), 0xcd01_c31a_284c_4682);
        assert_eq!(digest(arb_record(0..6, false)), 0x4af2_4d67_1c08_465d);
        assert_eq!(digest(arb_record(0..8, true)), 0x706a_c425_57a5_6816);
    }
}
