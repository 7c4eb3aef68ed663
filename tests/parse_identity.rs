//! The SPF record read path, pinned from two sides.
//!
//! * *Totality:* a seeded loop of hostile strings — weighted towards
//!   `v=spf1`, qualifiers, separators, macro braces and multi-byte
//!   characters — through every parser a published TXT record reaches.
//!   None of them may panic: one record must not take down a crawl worker,
//!   a verdict-service worker or an SMTP session.
//! * *Byte identity:* a digest of `serde_json` of [`parse_lenient`] (and
//!   of each error's display text) over every SPF-reachable TXT text of a
//!   1:1000 population plus the §5.3 error corpus. The constant was taken
//!   from the allocating tokenizer; the borrowing one must reproduce it
//!   to the byte, errors and warnings included.

use std::collections::HashSet;

use lazy_gatekeepers::prelude::*;
use spf_core::dmarc::{is_dmarc_record, parse_dmarc};
use spf_core::is_spf_record;
use spf_testkit::population_at;
use spf_types::MacroString;

/// FNV-1a 64 over every pinned byte, in corpus order.
const PARSE_DIGEST: u64 = 0x8e2b_f1a6_52b9_4fe2;

/// Texts from `parse.rs`'s unit tests: every §5.3 error class, the §5.5
/// typos and warnings, and the clean shapes they are told apart from.
const ERROR_CORPUS: &[&str] = &[
    "v=spf1 -all",
    "V=SPF1 -all",
    "v=spf1",
    "v=spf10 -all",
    "v=DMARC1; p=none",
    "spf1 -all",
    "v=spf1 +mx a:puffin.example.com/28 -all",
    "v=spf1 include:spf.protection.outlook.com -all",
    "v=spf1 a mx ptr ip4:192.0.2.0/24 ip6:2001:db8::/32 a:h.example.com \
     mx:m.example.com/28 exists:%{ir}.sbl.example.org include:x.example ~all",
    "v=spf1 a/24 mx/24//64 a:x.example//96 -all",
    "v=spf1 +a -mx ~ip4:10.0.0.1 ?include:x.example -all",
    "v=spf1 redirect=_spf.example.com",
    "v=spf1 mx ra=postmaster rp=10 rr=all -all",
    "v=spf1 ipv4:192.0.2.1 -all",
    "v=spf1 ipv6:2001:db8::1 ip:10.0.0.1 -all",
    "v=spf1 ip4: 192.0.2.1 -all",
    "v=spf1 include: _spf.example.com -all",
    "v=spf1 include:a.example v=spf1 include:b.example -all",
    "v=spf1 include:x.example -all 5xKo2aEvQm9",
    "v=spf1 ip4:1.2.3 -all",
    "v=spf1 ip4:mail.example.com -all",
    "v=spf1 ip4:2001:db8::1 -all",
    "v=spf1 ip4: -all",
    "v=spf1 mx -al",
    "v=spf1 mx -all;",
    "v=spf1 xss=<script>alert('SPF')</script> ~all",
    "v=spf1 ptr -all",
    "v=spf1 -all include:late.example",
    "v=spf1 redirect=a.example redirect=b.example",
    "v=spf1 redirect=",
    "include:x.example -all",
    "v=spf1 ipv4:1.2.3.4 -all",
    "v=spf1 exists:%{ir}.%{v}._spf.%{d2} -all",
    "v=spf1 exists:%{c}.example.com -all",
    "v=spf1 a/33 -all",
    "v=spf1 mx/abc -all",
    "v=spf1 MX Include:X.Example IP4:192.0.2.1 -ALL",
    "v=spf1 include:_spf.google.com ~all",
    "v=spf1 a:mail.example.com/28 redirect=backup.example.com",
    // Shapes the unit tests reach only one at a time.
    "v=spf1 ipv4/24 ip/8 IPV6 ip4/24 ip6:zz ip6:192.0.2.1 ip4:1.2.3.4/ ip4:1.2.3.4/33",
    "v=spf1 Redirect=A.Example EXP=%{t}.x REDIRECT=%{c}.y Exp=explain.%{d} rp=300 RA=x",
    "v=spf1 a:%{x} mx:%{d0} include:%%{d} exists:%{d1r.-} ptr:%- a:%_ mx:bad%",
    "  v=spf1   mx   -all  ",
    "v=spf1 =x :y /24 + - ~ ? +: -/ a: mx:// include:",
];

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // A separator, so adjacent fields cannot trade bytes.
    *hash ^= 0xff;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Every TXT text of the population's domains and of the literal
/// include/redirect targets reachable from them, in discovery order.
fn population_texts() -> Vec<String> {
    let population = population_at(1_000);
    let mut queue: Vec<DomainName> = population.domains.clone();
    let mut seen: HashSet<DomainName> = queue.iter().cloned().collect();
    let mut texts = Vec::new();
    let mut next = 0;
    while next < queue.len() {
        let name = queue[next].clone();
        next += 1;
        for text in population.store.txt_strings(&name) {
            let record = parse_lenient(&text).record;
            let targets = record.include_targets().chain(record.redirect());
            for target in targets.filter_map(MacroString::literal_domain) {
                if seen.insert(target.clone()) {
                    queue.push(target.clone());
                }
            }
            texts.push(text);
        }
    }
    texts
}

#[test]
fn parse_lenient_is_byte_identical_to_the_pinned_digest() {
    let texts = population_texts();
    assert!(texts.len() > 5_000, "{} texts", texts.len());
    let corpus = texts
        .iter()
        .map(String::as_str)
        .chain(ERROR_CORPUS.iter().copied());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut errors = 0usize;
    for text in corpus {
        let parsed = parse_lenient(text);
        fnv(&mut digest, text.as_bytes());
        fnv(&mut digest, &[u8::from(is_spf_record(text))]);
        fnv(
            &mut digest,
            serde_json::to_string(&parsed).unwrap().as_bytes(),
        );
        for error in &parsed.errors {
            fnv(&mut digest, error.to_string().as_bytes());
        }
        errors += parsed.errors.len();
    }
    assert!(
        errors > 50,
        "the corpus exercises the error paths ({errors})"
    );
    assert_eq!(
        digest, PARSE_DIGEST,
        "parse_lenient output changed: {digest:#018x}"
    );
}

/// SplitMix64: a dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Pieces a hostile record is glued from, repeated by weight: the version
/// tags and separators most often, then mechanism names, digits, macro
/// braces, the multi-byte characters that broke byte-index slicing
/// (`é`, the U+FFFD a lossy wire decode leaves, a four-byte emoji) and
/// whitespace outside the printable ASCII space.
const ALPHABET: &[(&str, usize)] = &[
    ("v=spf1", 6),
    ("v=spf", 3),
    ("V=SPF1", 1),
    ("v=DMARC1", 2),
    ("v=DMARC", 1),
    (" ", 8),
    ("\t", 1),
    ("+", 2),
    ("-", 2),
    ("~", 2),
    ("?", 2),
    (":", 4),
    ("/", 4),
    ("=", 3),
    (".", 5),
    (";", 2),
    ("%{", 3),
    ("}", 3),
    ("%", 1),
    ("ip4", 3),
    ("ip6", 2),
    ("include", 2),
    ("a", 2),
    ("mx", 2),
    ("all", 2),
    ("redirect", 1),
    ("exists", 1),
    ("ptr", 1),
    ("d", 2),
    ("i", 1),
    ("r", 1),
    ("x", 2),
    ("0", 3),
    ("1", 3),
    ("2", 2),
    ("9", 1),
    ("255", 1),
    ("33", 1),
    ("é", 3),
    ("\u{FFFD}", 3),
    ("😀", 2),
    // Whitespace only `char::is_whitespace` knows: the tokenizer reads
    // ASCII a byte at a time and must split these the same way.
    ("\u{A0}", 1),
    ("\u{85}", 1),
    ("\u{2003}", 1),
    ("\x0B", 1),
];

fn hostile(rng: &mut Rng, pieces: &[&str]) -> String {
    let len = rng.below(24);
    // Half the cases open like a record, so the tokenizer sees them whole.
    let mut text = String::from(if rng.below(2) == 0 { "v=spf1 " } else { "" });
    for _ in 0..len {
        text.push_str(pieces[rng.below(pieces.len())]);
    }
    text
}

#[test]
fn record_parsers_are_total_on_hostile_text() {
    let pieces: Vec<&str> = ALPHABET
        .iter()
        .flat_map(|&(piece, weight)| std::iter::repeat_n(piece, weight))
        .collect();
    let mut rng = Rng(0x5bf1_0036);
    for case in 0..12_000 {
        let text = hostile(&mut rng, &pieces);
        let outcome = std::panic::catch_unwind(|| {
            let _ = parse_lenient(&text);
            let _ = is_spf_record(&text);
            let _ = MacroString::parse(&text);
            let _ = DomainName::parse(&text);
            let _ = Ipv4Cidr::parse(&text);
            let _ = is_dmarc_record(&text);
            let _ = parse_dmarc(&text);
        });
        assert!(outcome.is_ok(), "case {case} panicked on {text:?}");
    }
}
