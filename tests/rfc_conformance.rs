//! `check_host()` conformance vectors adapted from RFC 7208 (Appendix A's
//! extended example domain) plus the semantic corner cases the paper's
//! findings hinge on. Every vector runs through the public API against an
//! in-memory zone replicating the RFC's example DNS data.
//!
//! Since ISSUE 7 every vector also carries a *compilability column*:
//! each evaluation additionally compiles the sender domain's tree into
//! a [`CompiledPolicy`] and asserts the table answer (when the address
//! compiles) is identical to bare `check_host` field for field — so
//! the RFC vectors double as the compiler's conformance suite. The
//! `rfc_fixture_compilability_column` table pins which fixtures are
//! statically compilable and which residue classification the
//! uncompilable ones carry.

use std::sync::Arc;

use spf_core::{
    check_host, compile_policy, Compilability, CompileConfig, EvalContext, EvalPolicy, Evaluation,
    ResidueKind, SpfResult,
};
use spf_dns::{ZoneResolver, ZoneStore};
use spf_testkit::{add_reverse_v4, dom};
use spf_types::DomainName;

/// Bare `check_host` plus ISSUE 7's differential obligation: compile
/// the domain's tree and, wherever the tables answer the context's
/// address, the verdict must match the live evaluation exactly.
fn checked(zone: &Arc<ZoneStore>, ctx: &EvalContext, domain: &DomainName) -> Evaluation {
    let resolver = ZoneResolver::new(Arc::clone(zone));
    let bare = check_host(&resolver, ctx, domain, &EvalPolicy::default());
    let compiled = compile_policy(&resolver, domain, &CompileConfig::default());
    compiled.assert_invariants();
    if let Some(eval) = compiled.verdict(ctx.ip) {
        assert_eq!(
            eval, bare,
            "compiled verdict diverged from check_host for {domain} from {}",
            ctx.ip
        );
    }
    bare
}

/// RFC 7208 Appendix A: the example.com zone.
fn rfc_zone() -> Arc<ZoneStore> {
    let s = Arc::new(ZoneStore::new());
    // SPF records from A.1/A.2/A.3 (adapted: TXT only, IPv4 focus).
    s.add_txt(&dom("example.com"), "v=spf1 +mx a:colo.example.com/28 -all");
    s.add_txt(&dom("amy.example.com"), "v=spf1 a mx -all");
    s.add_txt(&dom("bob.example.com"), "v=spf1 a/24 mx/24 -all");
    s.add_txt(&dom("mail-a.example.com"), "v=spf1 ip4:192.0.2.129 -all");
    s.add_txt(&dom("mail-b.example.com"), "v=spf1 ip4:192.0.2.130 -all");

    // Hosts.
    s.add_a(&dom("example.com"), "192.0.2.10".parse().unwrap());
    s.add_a(&dom("example.com"), "192.0.2.11".parse().unwrap());
    s.add_a(&dom("amy.example.com"), "192.0.2.65".parse().unwrap());
    s.add_a(&dom("bob.example.com"), "192.0.2.66".parse().unwrap());
    s.add_a(&dom("mail-a.example.com"), "192.0.2.129".parse().unwrap());
    s.add_a(&dom("mail-b.example.com"), "192.0.2.130".parse().unwrap());
    s.add_a(&dom("colo.example.com"), "192.0.2.3".parse().unwrap());

    // MX records.
    s.add_mx(&dom("example.com"), 10, &dom("mail-a.example.com"));
    s.add_mx(&dom("example.com"), 20, &dom("mail-b.example.com"));
    s.add_mx(&dom("amy.example.com"), 10, &dom("mail-a.example.com"));
    s.add_mx(&dom("bob.example.com"), 10, &dom("mail-b.example.com"));

    // Reverse mapping for ptr-based vectors.
    add_reverse_v4(&s, "192.0.2.10".parse().unwrap(), &dom("example.com"));
    add_reverse_v4(&s, "192.0.2.65".parse().unwrap(), &dom("amy.example.com"));
    s
}

fn run(zone: &Arc<ZoneStore>, ip: &str, sender_domain: &str) -> SpfResult {
    let d = dom(sender_domain);
    let ctx = EvalContext::mail_from(ip.parse().unwrap(), "postmaster", d.clone());
    checked(zone, &ctx, &d).result
}

#[test]
fn mx_hosts_pass_for_example_com() {
    let zone = rfc_zone();
    assert_eq!(run(&zone, "192.0.2.129", "example.com"), SpfResult::Pass);
    assert_eq!(run(&zone, "192.0.2.130", "example.com"), SpfResult::Pass);
}

#[test]
fn colo_slash28_passes_for_example_com() {
    let zone = rfc_zone();
    // colo.example.com is 192.0.2.3; /28 covers 192.0.2.0-15.
    assert_eq!(run(&zone, "192.0.2.3", "example.com"), SpfResult::Pass);
    assert_eq!(run(&zone, "192.0.2.15", "example.com"), SpfResult::Pass);
    assert_eq!(run(&zone, "192.0.2.16", "example.com"), SpfResult::Fail);
}

#[test]
fn amy_a_and_mx_mechanisms() {
    let zone = rfc_zone();
    assert_eq!(run(&zone, "192.0.2.65", "amy.example.com"), SpfResult::Pass); // her A
    assert_eq!(
        run(&zone, "192.0.2.129", "amy.example.com"),
        SpfResult::Pass
    ); // her MX
    assert_eq!(
        run(&zone, "192.0.2.130", "amy.example.com"),
        SpfResult::Fail
    );
}

#[test]
fn bob_slash24_widening() {
    let zone = rfc_zone();
    // a/24 and mx/24 cover the whole 192.0.2.0/24 via his A (192.0.2.66).
    assert_eq!(run(&zone, "192.0.2.1", "bob.example.com"), SpfResult::Pass);
    assert_eq!(run(&zone, "192.0.3.1", "bob.example.com"), SpfResult::Fail);
}

#[test]
fn unknown_domain_yields_none() {
    let zone = rfc_zone();
    assert_eq!(
        run(&zone, "192.0.2.1", "other.example.org"),
        SpfResult::None
    );
}

#[test]
fn null_sender_uses_postmaster_semantics() {
    // RFC 7208 §2.4: for an empty MAIL FROM, checks use postmaster@helo.
    let zone = rfc_zone();
    let helo = dom("example.com");
    let ctx = EvalContext::mail_from("192.0.2.129".parse().unwrap(), "postmaster", helo.clone());
    assert_eq!(ctx.sender(), "postmaster@example.com");
    assert_eq!(checked(&zone, &ctx, &helo).result, SpfResult::Pass);
}

#[test]
fn case_insensitive_record_and_domain() {
    let zone = Arc::new(ZoneStore::new());
    zone.add_txt(&dom("mixed.example"), "V=SPF1 IP4:192.0.2.1 -ALL");
    assert_eq!(run(&zone, "192.0.2.1", "MIXED.example"), SpfResult::Pass);
    assert_eq!(run(&zone, "192.0.2.2", "mixed.EXAMPLE"), SpfResult::Fail);
}

#[test]
fn first_match_wins_ordering() {
    let zone = Arc::new(ZoneStore::new());
    // A pass before a fail for the same address: pass wins (term order).
    zone.add_txt(&dom("order.example"), "v=spf1 ip4:192.0.2.1 -all");
    assert_eq!(run(&zone, "192.0.2.1", "order.example"), SpfResult::Pass);
    // Qualifier on a *matching* earlier term decides, later terms ignored.
    let zone2 = Arc::new(ZoneStore::new());
    zone2.add_txt(&dom("order.example"), "v=spf1 -ip4:192.0.2.1 +all");
    assert_eq!(run(&zone2, "192.0.2.1", "order.example"), SpfResult::Fail);
    assert_eq!(run(&zone2, "192.0.2.2", "order.example"), SpfResult::Pass);
}

#[test]
fn include_neutral_does_not_match() {
    // RFC 7208 §5.2: include target returning neutral ⇒ include does not
    // match, evaluation continues.
    let zone = Arc::new(ZoneStore::new());
    zone.add_txt(&dom("root.example"), "v=spf1 include:neutral.example -all");
    zone.add_txt(&dom("neutral.example"), "v=spf1 ?all");
    assert_eq!(run(&zone, "192.0.2.1", "root.example"), SpfResult::Fail);
}

#[test]
fn include_softfail_does_not_match() {
    let zone = Arc::new(ZoneStore::new());
    zone.add_txt(
        &dom("root.example"),
        "v=spf1 include:soft.example ip4:192.0.2.9 -all",
    );
    zone.add_txt(&dom("soft.example"), "v=spf1 ~all");
    // The softfail inside the include does NOT leak out; the ip4 matches.
    assert_eq!(run(&zone, "192.0.2.9", "root.example"), SpfResult::Pass);
}

#[test]
fn exists_uses_a_lookup_even_for_ipv6_sender() {
    let zone = Arc::new(ZoneStore::new());
    zone.add_txt(&dom("e.example"), "v=spf1 exists:allow.e.example -all");
    zone.add_a(&dom("allow.e.example"), "127.0.0.2".parse().unwrap());
    let d = dom("e.example");
    let ctx = EvalContext::mail_from("2001:db8::1".parse().unwrap(), "x", d.clone());
    assert_eq!(checked(&zone, &ctx, &d).result, SpfResult::Pass);
}

#[test]
fn redirect_modifier_position_is_irrelevant() {
    // RFC 7208 §6.1: redirect is a modifier — it applies after all
    // mechanisms regardless of where it is written.
    let zone = Arc::new(ZoneStore::new());
    zone.add_txt(
        &dom("front.example"),
        "v=spf1 redirect=back.example ip4:192.0.2.50",
    );
    zone.add_txt(&dom("back.example"), "v=spf1 ip4:192.0.2.60 -all");
    // ip4 matches first even though redirect is written before it.
    assert_eq!(run(&zone, "192.0.2.50", "front.example"), SpfResult::Pass);
    // Otherwise the redirect target decides.
    assert_eq!(run(&zone, "192.0.2.60", "front.example"), SpfResult::Pass);
    assert_eq!(run(&zone, "192.0.2.70", "front.example"), SpfResult::Fail);
}

#[test]
fn macro_vectors_from_rfc_section_7() {
    // exists:%{l1r-}.lp._spf.%{d2} — the RFC's own macro example, with a
    // sender whose local part selects the published name.
    let zone = Arc::new(ZoneStore::new());
    zone.add_txt(
        &dom("email.example.com"),
        "v=spf1 exists:%{l1r-}.lp._spf.%{d2} -all",
    );
    zone.add_a(
        &dom("strong.lp._spf.example.com"),
        "127.0.0.2".parse().unwrap(),
    );
    let d = dom("email.example.com");
    let ctx = EvalContext::mail_from("192.0.2.3".parse().unwrap(), "strong-bad", d.clone());
    assert_eq!(checked(&zone, &ctx, &d).result, SpfResult::Pass);
    let ctx2 = EvalContext::mail_from("192.0.2.3".parse().unwrap(), "weak-bad", d.clone());
    assert_eq!(checked(&zone, &ctx2, &d).result, SpfResult::Fail);
}

/// The compilability column itself: which RFC fixtures compile to pure
/// interval tables, and exactly which residue classification the
/// uncompilable ones carry. A reclassification in the compiler (say,
/// `exists` starting to compile, or macros misread as static) breaks
/// this table before it can silently shift the population stats.
#[test]
fn rfc_fixture_compilability_column() {
    let zone = rfc_zone();
    zone.add_txt(&dom("e.example"), "v=spf1 exists:allow.e.example -all");
    zone.add_txt(
        &dom("p.example"),
        "v=spf1 ip4:192.0.2.4 ptr:example.com -all",
    );
    let resolver = ZoneResolver::new(Arc::clone(&zone));
    let column: &[(&str, Compilability, &[ResidueKind])] = &[
        // Appendix A: a/mx/ip4 trees are fully static — every address
        // of both families answers from the tables.
        ("example.com", Compilability::Full, &[]),
        ("amy.example.com", Compilability::Full, &[]),
        ("bob.example.com", Compilability::Full, &[]),
        ("mail-a.example.com", Compilability::Full, &[]),
        ("mail-b.example.com", Compilability::Full, &[]),
        // `exists` consults the session at query time — always residual,
        // pinned as the Exists classification (not a macro residue, even
        // when the target carries macros).
        ("e.example", Compilability::Residual, &[ResidueKind::Exists]),
        // `ptr` depends on the connecting address's reverse zone: the
        // static ip4 region ahead of it compiles, the rest is a Ptr
        // residue (first-match-wins splits the space).
        ("p.example", Compilability::Partial, &[ResidueKind::Ptr]),
        // No SPF record at all: the none verdict is itself static.
        ("other.example.org", Compilability::Full, &[]),
    ];
    for (name, expected, residues) in column {
        let compiled = compile_policy(&resolver, &dom(name), &CompileConfig::default());
        compiled.assert_invariants();
        assert_eq!(
            compiled.compilability(),
            *expected,
            "compilability shifted for {name}: {:?}",
            compiled.residues()
        );
        for kind in *residues {
            assert!(
                compiled.residues().iter().any(|r| r.kind == *kind),
                "{name} lost its {kind:?} residue: {:?}",
                compiled.residues()
            );
        }
        if compiled.compilability() == Compilability::Full {
            assert!(compiled.residues().is_empty(), "{name}");
        }
    }
}
