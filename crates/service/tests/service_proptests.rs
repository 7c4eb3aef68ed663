//! Property tests for the wire protocol and the TTL/LRU memo (ISSUE 6,
//! satellite 2).
//!
//! Four families:
//!
//! * **Frame round-trips** — any well-formed query/response frame
//!   encodes and decodes back to itself exactly, whole or streamed;
//! * **Adversarial input** — truncations, garbage, and oversized
//!   prefixes produce *typed* [`FrameError`]s: the decoder never
//!   panics, and the stream splitter always either makes progress or
//!   asks for more bytes (it cannot hang a connection);
//! * **TTL safety** — for arbitrary interleavings of inserts, probes,
//!   and clock advances, [`TtlLru`] never serves a value older than its
//!   TTL; and at the service level, a verdict memoized before a zone
//!   mutation stops being served exactly when its TTL runs out;
//! * **Verdict writer** — the `ok` body the service writes by hand is,
//!   for any [`Evaluation`], the bytes `serde_json::to_string` makes of
//!   it, framed or not.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use spf_analyzer::CacheKey;
use spf_core::{
    check_host, EvalContext, EvalPolicy, EvalProblem, Evaluation, RecordNotFoundCause, SpfResult,
    SyntaxError,
};
use spf_dns::{Clock, VirtualClock, ZoneResolver, ZoneStore};
use spf_service::proto::{
    decode_datagram, decode_payload, encode_frame, split_frame, write_verdict, LEN_PREFIX,
    MAX_PAYLOAD,
};
use spf_service::{
    Frame, FrameError, QueryFrame, ResponseFrame, ServiceClient, ServiceConfig, Status, Transport,
    TtlLru, TtlLruConfig, VerdictService,
};
use spf_types::{DomainName, Ip4ParseError, MacroError};

fn arb_domain() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec("[a-z]{1,10}", 1..4)
        .prop_map(|labels| DomainName::parse(&labels.join(".")).expect("generated domain parses"))
}

fn arb_ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|v| IpAddr::V4(v.into())),
        any::<u128>().prop_map(|v| IpAddr::V6(v.into())),
    ]
}

fn arb_query() -> impl Strategy<Value = QueryFrame> {
    (
        any::<u64>(),
        arb_ip(),
        arb_domain(),
        "[a-zA-Z0-9._=-]{0,24}",
        any::<bool>(),
    )
        .prop_map(|(id, ip, domain, sender_local, stack)| QueryFrame {
            id,
            ip,
            domain,
            sender_local,
            stack,
        })
}

fn arb_status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::Overloaded),
        Just(Status::BadRequest),
        Just(Status::ShuttingDown),
    ]
}

fn arb_response() -> impl Strategy<Value = ResponseFrame> {
    (
        any::<u64>(),
        arb_status(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(id, status, body)| ResponseFrame { id, status, body })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_query().prop_map(Frame::Query),
        arb_response().prop_map(Frame::Response),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whole-datagram round-trip: encode → decode is the identity.
    #[test]
    fn frames_round_trip_exactly(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let decoded = decode_datagram(&bytes);
        prop_assert_eq!(decoded, Ok(frame.clone()));
        // The stream splitter agrees byte-for-byte with the datagram
        // path: one frame, fully consumed.
        let (used, payload) = split_frame(&bytes)
            .expect("split never errors on a valid frame")
            .expect("a whole frame is splittable");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decode_payload(payload), Ok(frame));
    }

    /// Every proper prefix of a valid frame yields a typed error —
    /// never a panic, never a bogus success.
    #[test]
    fn every_truncation_is_a_typed_error(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            let r = decode_datagram(&bytes[..cut]);
            prop_assert!(r.is_err(), "cut at {cut}/{} decoded: {r:?}", bytes.len());
            // The splitter must either ask for more bytes or type the
            // error; claiming progress on a partial frame would desync
            // the stream.
            match split_frame(&bytes[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(got)) => {
                    return Err(format!("split claimed a frame at cut {cut}: {got:?}"));
                }
            }
        }
    }

    /// Arbitrary garbage is handled totally: a typed error or a decoded
    /// frame (tiny inputs can be valid), but no panic — and when the
    /// splitter does produce a frame, it consumes at least the length
    /// prefix, so the reassembly loop always terminates.
    #[test]
    fn garbage_never_panics_and_splitting_always_progresses(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        let _ = decode_datagram(&bytes);
        if let Ok(Some((used, _))) = split_frame(&bytes) {
            prop_assert!(used > LEN_PREFIX);
        }
    }

    /// A length prefix past the payload cap is rejected as `Oversized`
    /// on both paths before any allocation-sized trust in the length.
    #[test]
    fn oversized_prefixes_are_typed_errors(
        extra in 1usize..1024,
        fill in any::<u8>(),
    ) {
        let len = MAX_PAYLOAD + extra;
        let mut bytes = vec![(len >> 8) as u8, (len & 0xff) as u8];
        bytes.extend(std::iter::repeat_n(fill, len));
        prop_assert_eq!(decode_datagram(&bytes), Err(FrameError::Oversized { len }));
        prop_assert_eq!(split_frame(&bytes), Err(FrameError::Oversized { len }));
    }
}

/// A tiny deterministic cache key for the op-sequence property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key(u8);

impl CacheKey for Key {
    fn shard_hash(&self) -> u64 {
        // Identity-ish on purpose: adjacent keys land on different
        // stripes, so a short op sequence still crosses stripes.
        self.0 as u64
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Admit the next globally unique value under key `k`.
    Insert(u8),
    /// Probe key `k`.
    Get(u8),
    /// Advance the virtual clock by `ms` milliseconds.
    Advance(u16),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u8..16).prop_map(Op::Insert),
        (0u8..16).prop_map(Op::Get),
        (0u16..400).prop_map(Op::Advance),
    ];
    proptest::collection::vec(op, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For any interleaving of inserts, probes, and clock advances over
    /// an eviction-heavy cache, a probe never returns a value that (a)
    /// was never inserted under that key, or (b) was inserted `ttl` or
    /// more ago — and the stripe counters stay consistent throughout.
    #[test]
    fn ttl_lru_never_serves_a_value_past_its_ttl(ops in arb_ops()) {
        let ttl = Duration::from_millis(500);
        let clock = Arc::new(VirtualClock::new());
        let lru: TtlLru<Key, u64> = TtlLru::new(
            TtlLruConfig::new(8, ttl).shards(3),
            Arc::clone(&clock) as Arc<dyn spf_dns::Clock>,
        );
        // Sound over-approximation of the cache: every insertion ever
        // made, with its timestamp. (Evictions and keep-first races mean
        // we cannot predict *which* candidate is resident, but anything
        // served must be one of them, and fresh.)
        let mut candidates: HashMap<u8, Vec<(u64, Duration)>> = HashMap::new();
        let mut next_value = 0u64;
        for op in &ops {
            match op {
                Op::Insert(k) => {
                    next_value += 1;
                    candidates.entry(*k).or_default().push((next_value, clock.now()));
                    lru.insert(Key(*k), next_value);
                }
                Op::Get(k) => {
                    if let Some(value) = lru.get(&Key(*k)) {
                        let now = clock.now();
                        let inserted_at = candidates
                            .get(k)
                            .and_then(|c| c.iter().find(|(v, _)| *v == value))
                            .map(|(_, t)| *t);
                        let Some(inserted_at) = inserted_at else {
                            return Err(format!("key {k} served value {value} never inserted"));
                        };
                        prop_assert!(
                            now < inserted_at + ttl,
                            "key {k} served value {value} aged {:?} (ttl {ttl:?})",
                            now - inserted_at
                        );
                    }
                }
                Op::Advance(ms) => clock.advance(Duration::from_millis(*ms as u64)),
            }
            let stats = lru.stats();
            prop_assert!(stats.is_consistent(), "counters drifted: {stats:?}");
            prop_assert_eq!(stats.entries, lru.len() as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Service-level TTL safety, driven end-to-end through a socket:
    /// memoize a verdict, mutate the included zone, advance an
    /// arbitrary virtual duration — the service serves the stale
    /// verdict strictly inside the TTL and the revalidated one at or
    /// past it. An expired entry is never served.
    #[test]
    fn expired_verdicts_are_never_served_stale(advance_secs in 0u64..150) {
        let ttl = Duration::from_secs(60);
        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("example.com").expect("parses");
        let included = DomainName::parse("alias.example.net").expect("parses");
        store.add_txt(&domain, "v=spf1 include:alias.example.net -all");
        store.add_txt(&included, "v=spf1 ip4:192.0.2.0/24 -all");
        let ip: IpAddr = "192.0.2.7".parse().expect("parses");
        let bare = |store: &Arc<ZoneStore>| {
            let resolver = ZoneResolver::new(Arc::clone(store));
            let ctx = EvalContext::mail_from(ip, "prop", domain.clone());
            serde_json::to_string(&check_host(&resolver, &ctx, &domain, &EvalPolicy::default()))
                .expect("serializes")
        };

        let clock = Arc::new(VirtualClock::new());
        let resolver = Arc::new(ZoneResolver::new(Arc::clone(&store)));
        let mut service = VerdictService::spawn_at(
            resolver,
            ServiceConfig::with_workers(1).cache(Some(TtlLruConfig::new(64, ttl))),
            Arc::clone(&clock) as Arc<dyn spf_dns::Clock>,
        )
        .expect("service spawns");
        let mut client =
            ServiceClient::connect(service.addr(), Transport::Udp).expect("connects");

        let before = bare(&store);
        let first = client.query(ip, &domain, "prop").expect("query");
        prop_assert_eq!(first.status, Status::Ok);
        prop_assert!(first.body == before.as_bytes(), "first verdict diverged");

        store.replace_txt(&included, "v=spf1 -all");
        let after = bare(&store);
        prop_assert!(before != after, "mutation must change the verdict");

        clock.advance(Duration::from_secs(advance_secs));
        let second = client.query(ip, &domain, "prop").expect("query");
        let expected = if advance_secs < ttl.as_secs() { &before } else { &after };
        prop_assert!(
            second.body == expected.as_bytes(),
            "at +{advance_secs}s (ttl {}s) served {}",
            ttl.as_secs(),
            String::from_utf8_lossy(&second.body)
        );
        service.shutdown();
    }
}

/// Every character class the JSON string rule treats differently: plain
/// ASCII, the two-character escapes, controls that take `\u00xx`
/// (incl. `\b`/`\f`, which `serde_json` does *not* name), DEL, `/`,
/// and non-ASCII from two to four UTF-8 bytes.
const TRICKY: &[char] = &[
    'a', 'Z', '0', ' ', ':', '%', '{', '}', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}',
    '\u{8}', '\u{b}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '\u{2028}', '日', '😀',
];

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TRICKY.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| TRICKY[i]).collect())
}

fn arb_opt_text() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), arb_text().prop_map(Some)]
}

fn arb_syntax_error() -> impl Strategy<Value = SyntaxError> {
    prop_oneof![
        (arb_text(), arb_text()).prop_map(|(written, suggestion)| {
            SyntaxError::MisspelledMechanism {
                written,
                suggestion,
            }
        }),
        any::<usize>().prop_map(|count| SyntaxError::MultipleVersionTags { count }),
        (any::<usize>(), arb_text()).prop_map(|(octets, argument)| SyntaxError::InvalidIp4 {
            error: Ip4ParseError::WrongOctetCount { octets },
            argument,
        }),
        (arb_text(), arb_text()).prop_map(|(octet, argument)| SyntaxError::InvalidIp4 {
            error: Ip4ParseError::BadOctet { octet },
            argument,
        }),
        (arb_text(), 0..TRICKY.len()).prop_map(|(term, pick)| SyntaxError::BadMacro {
            error: MacroError::UnknownLetter {
                letter: TRICKY[pick],
            },
            term,
        }),
        Just(SyntaxError::MissingVersionTag),
    ]
}

fn arb_cause() -> impl Strategy<Value = RecordNotFoundCause> {
    prop_oneof![
        Just(RecordNotFoundCause::NoSpfRecord),
        Just(RecordNotFoundCause::MultipleSpfRecords),
        Just(RecordNotFoundCause::DomainNotFound),
        Just(RecordNotFoundCause::EmptyResult),
        Just(RecordNotFoundCause::DnsTimeout),
    ]
}

/// Every [`EvalProblem`] variant.
fn arb_problem() -> impl Strategy<Value = EvalProblem> {
    prop_oneof![
        Just(EvalProblem::NoRecord),
        (arb_domain(), any::<usize>())
            .prop_map(|(domain, count)| EvalProblem::MultipleRecords { domain, count }),
        (arb_domain(), arb_syntax_error())
            .prop_map(|(domain, error)| EvalProblem::Syntax { domain, error }),
        any::<usize>().prop_map(|used| EvalProblem::TooManyLookups { used }),
        any::<usize>().prop_map(|used| EvalProblem::TooManyVoidLookups { used }),
        arb_domain().prop_map(|domain| EvalProblem::IncludeLoop { domain }),
        arb_domain().prop_map(|domain| EvalProblem::RedirectLoop { domain }),
        (arb_domain(), arb_cause())
            .prop_map(|(domain, cause)| EvalProblem::RecordNotFound { domain, cause }),
        arb_domain().prop_map(|domain| EvalProblem::DnsTransient { domain }),
        arb_text().prop_map(|text| EvalProblem::BadExpansion { text }),
        Just(EvalProblem::TooDeep),
        arb_domain().prop_map(|domain| EvalProblem::TooManyMxRecords { domain }),
    ]
}

fn arb_result() -> impl Strategy<Value = SpfResult> {
    prop_oneof![
        Just(SpfResult::None),
        Just(SpfResult::Neutral),
        Just(SpfResult::Pass),
        Just(SpfResult::Fail),
        Just(SpfResult::SoftFail),
        Just(SpfResult::TempError),
        Just(SpfResult::PermError),
    ]
}

fn arb_evaluation() -> impl Strategy<Value = Evaluation> {
    // Nested: the vendored proptest implements tuples up to five.
    (
        (
            arb_result(),
            prop_oneof![0usize..12, any::<usize>()],
            prop_oneof![0usize..4, any::<usize>()],
        ),
        (arb_opt_text(), arb_domain(), arb_opt_text()),
        prop_oneof![Just(None), arb_problem().prop_map(Some)],
    )
        .prop_map(|(counts, texts, problem)| {
            let (result, dns_lookups, void_lookups) = counts;
            let (matched_directive, final_domain, explanation) = texts;
            Evaluation {
                result,
                dns_lookups,
                void_lookups,
                matched_directive,
                final_domain,
                problem,
                explanation,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The hand-written body is `serde_json::to_string`'s, byte for
    /// byte; it parses back to the evaluation it was written from; and
    /// the frame written in place is the frame built from the parts.
    #[test]
    fn written_verdicts_are_the_derive_s_bytes(id in any::<u64>(), eval in arb_evaluation()) {
        let reference = serde_json::to_string(&eval).expect("evaluation serializes");
        let response = ResponseFrame::verdict(id, &eval);
        prop_assert!(
            response.body == reference.as_bytes(),
            "hand-written {} != derived {reference}",
            String::from_utf8_lossy(&response.body)
        );
        prop_assert_eq!(response.evaluation(), Ok(eval.clone()));
        // Appended after whatever the buffer already holds, as on a TCP
        // connection answering several frames of one read.
        let mut wire = vec![0xAA; 3];
        write_verdict(&mut wire, id, &eval).expect("a small verdict fits");
        prop_assert_eq!(&wire[3..], &encode_frame(&Frame::Response(response))[..]);
    }
}
