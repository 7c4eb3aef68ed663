//! Property tests for the RFC 1035 codec: decoding must never panic on
//! arbitrary bytes (the server feeds it raw network input), and every
//! well-formed message must round-trip both with and without compression.
//! The `pinned` tests hold the codec's exact bytes and decode results to
//! digests.

use proptest::prelude::*;
use spf_dns::{
    decode, encode, encode_uncompressed, Message, Question, RecordData, RecordType, ResourceRecord,
    TxtData,
};
use spf_types::DomainName;

fn arb_domain() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec("[a-z][a-z0-9-]{0,14}[a-z0-9]", 1..4)
        .prop_map(|labels| DomainName::parse(&labels.join(".")).expect("generated labels valid"))
}

fn arb_record_type() -> impl Strategy<Value = RecordType> {
    prop_oneof![
        Just(RecordType::A),
        Just(RecordType::Aaaa),
        Just(RecordType::Mx),
        Just(RecordType::Txt),
        Just(RecordType::Ptr),
        Just(RecordType::Ns),
        Just(RecordType::Cname),
        Just(RecordType::Spf),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_domain(), 0u32..86_400).prop_flat_map(|(name, ttl)| {
        prop_oneof![
            any::<u32>().prop_map({
                let name = name.clone();
                move |v| ResourceRecord {
                    name: name.clone(),
                    ttl,
                    data: RecordData::A(v.into()),
                }
            }),
            any::<u128>().prop_map({
                let name = name.clone();
                move |v| ResourceRecord {
                    name: name.clone(),
                    ttl,
                    data: RecordData::Aaaa(v.into()),
                }
            }),
            (any::<u16>(), arb_domain()).prop_map({
                let name = name.clone();
                move |(preference, exchange)| ResourceRecord {
                    name: name.clone(),
                    ttl,
                    data: RecordData::Mx {
                        preference,
                        exchange,
                    },
                }
            }),
            "[ -~]{0,600}".prop_map({
                let name = name.clone();
                move |text| ResourceRecord {
                    name: name.clone(),
                    ttl,
                    data: RecordData::Txt(TxtData::from_text(&text)),
                }
            }),
            arb_domain().prop_map({
                let name = name.clone();
                move |target| ResourceRecord {
                    name: name.clone(),
                    ttl,
                    data: RecordData::Ptr(target),
                }
            }),
        ]
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_domain(),
        arb_record_type(),
        proptest::collection::vec(arb_record(), 0..6),
    )
        .prop_map(|(id, qname, qtype, answers)| {
            let query = Message::query(id, Question::new(qname, qtype));
            Message::response(&query, spf_dns::Rcode::NoError, answers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes); // must return, never panic
    }

    #[test]
    fn decode_never_panics_on_mutated_valid_messages(
        msg in arb_message(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        let mut bytes = encode(&msg).unwrap();
        for (idx, value) in flips {
            if !bytes.is_empty() {
                let i = idx.index(bytes.len());
                bytes[i] ^= value;
            }
        }
        let _ = decode(&bytes);
    }

    #[test]
    fn round_trip_compressed(msg in arb_message()) {
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn round_trip_uncompressed(msg in arb_message()) {
        let bytes = encode_uncompressed(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn compression_never_grows_the_message(msg in arb_message()) {
        let compressed = encode(&msg).unwrap().len();
        let plain = encode_uncompressed(&msg).unwrap().len();
        prop_assert!(compressed <= plain);
    }
}

/// The codec pinned to the byte: two digests taken from the codec as it
/// stood before its read and write paths were rewritten without heap
/// churn. Any change to an encoded byte, a decoded field or the
/// `WireError` variant a malformed input gets moves one of them.
mod pinned {
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use spf_analyzer::Walker;
    use spf_crawler::{crawl, CrawlConfig};
    use spf_dns::wire::{decode_reply, encode_query_into, MAX_UDP_PAYLOAD};
    use spf_dns::{
        decode, encode, encode_uncompressed, DnsError, LookupOutcome, Message, Question, Rcode,
        RecordData, RecordType, Resolver, ResourceRecord, RrSet, TxtData, ZoneFault, ZoneResolver,
    };
    use spf_testkit::population_at;
    use spf_types::DomainName;

    /// FNV-1a 64 of every query and response a one-worker 1:500 wire
    /// crawl exchanges (see [`exchange_digest`]).
    const EXCHANGE_DIGEST: u64 = 0xc1ef_2ed5_b3b6_cfc3;
    /// FNV-1a 64 of `format!("{:?}", decode(..))` over the hostile corpus.
    const HOSTILE_DIGEST: u64 = 0x1a54_7772_cc04_ae2b;
    /// Datagrams in the hostile corpus.
    const HOSTILE_DATAGRAMS: usize = 24_000;

    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Passes every question to the zone and logs it, in asking order.
    struct Recording {
        zone: ZoneResolver,
        asked: Mutex<Vec<Question>>,
    }

    impl Resolver for Recording {
        fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
            self.asked
                .lock()
                .unwrap()
                .push(Question::new(name.clone(), rtype));
            self.zone.query(name, rtype)
        }
    }

    /// The exchange of a one-worker crawl of the 1:500 population: every
    /// distinct question the walker asks, in first-asked order (the wire
    /// client's cache answers the repeats), as the query datagram the
    /// client sends with ids counting from 1 and the response the name
    /// server builds from the zone (none for a timeout fault), plus the
    /// truncated form a 512-byte server sends when the response is longer.
    fn exchange_digest() -> (u64, usize) {
        let population = population_at(500);
        let recording = Arc::new(Recording {
            zone: ZoneResolver::new(Arc::clone(&population.store)),
            asked: Mutex::new(Vec::new()),
        });
        let walker = Walker::new(Arc::clone(&recording));
        crawl(&walker, &population.domains, CrawlConfig::with_workers(1));
        let asked = recording.asked.lock().unwrap();
        let mut seen = HashSet::new();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let mut datagrams = 0;
        for q in asked.iter().filter(|q| seen.insert((*q).clone())) {
            let id = (datagrams % 0xFFFF) as u16 + 1;
            let query = Message::query(id, q.clone());
            let mut put = |msg: &Message| {
                let bytes = encode(msg).expect("encodes");
                fnv(&mut hash, &(bytes.len() as u32).to_be_bytes());
                fnv(&mut hash, &bytes);
                datagrams += 1;
                bytes.len()
            };
            let query_bytes_len = put(&query);
            let mut written = Vec::new();
            encode_query_into(id, q, &mut written).expect("encodes");
            assert_eq!(written.len(), query_bytes_len);
            assert_eq!(
                written,
                encode(&query).unwrap(),
                "query {q:?} written from the question"
            );
            let (rcode, answers) = match population.store.lookup_question(q) {
                LookupOutcome::Records(rrs) => (Rcode::NoError, rrs),
                LookupOutcome::NoRecords => (Rcode::NoError, RrSet::EMPTY),
                LookupOutcome::NxDomain => (Rcode::NxDomain, RrSet::EMPTY),
                LookupOutcome::Fault(ZoneFault::Timeout) => continue,
                LookupOutcome::Fault(ZoneFault::ServFail) => (Rcode::ServFail, RrSet::EMPTY),
                LookupOutcome::Fault(ZoneFault::Refused) => (Rcode::Refused, RrSet::EMPTY),
            };
            let mut response = Message::response(&query, rcode, answers);
            if put(&response) > MAX_UDP_PAYLOAD {
                response.header.truncated = true;
                response.answers = RrSet::EMPTY;
                put(&response);
            }
        }
        (hash, datagrams)
    }

    #[test]
    fn a_wire_crawls_exchange_encodes_to_the_pinned_bytes() {
        let (digest, datagrams) = exchange_digest();
        assert!(datagrams > 50_000, "{datagrams} datagrams");
        assert_eq!(
            digest, EXCHANGE_DIGEST,
            "{datagrams} datagrams digest to {digest:#018x}"
        );
    }

    fn name(rng: &mut StdRng) -> DomainName {
        let labels = rng.random_range(1..5usize);
        let text: Vec<String> = (0..labels)
            .map(|_| {
                let len = rng.random_range(1..12usize);
                (0..len)
                    .map(|i| {
                        // No hyphen at either end of a label.
                        let end: usize = if i == 0 || i == len - 1 { 37 } else { 38 };
                        b"abcdefghijklmnopqrstuvwxyz0123456789_-"[rng.random_range(0..end)] as char
                    })
                    .collect()
            })
            .collect();
        DomainName::parse(&text.join(".")).expect("generated name is valid")
    }

    /// A well-formed message: a query or a response of up to five records
    /// whose names share suffixes often enough to compress.
    fn message(rng: &mut StdRng) -> Message {
        let mut pool: Vec<DomainName> = (0..3).map(|_| name(rng)).collect();
        pool.push(pool[0].prepend_label("mail").expect("short enough"));
        let types = [
            RecordType::A,
            RecordType::Aaaa,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Spf,
            RecordType::Ptr,
            RecordType::Ns,
            RecordType::Cname,
        ];
        let qtype = types[rng.random_range(0..types.len())];
        let query = Message::query(rng.random(), Question::new(pool[0].clone(), qtype));
        if rng.random_bool(0.2) {
            return query;
        }
        let answers: Vec<ResourceRecord> = (0..rng.random_range(0..6usize))
            .map(|_| {
                let owner = pool[rng.random_range(0..pool.len())].clone();
                let target = pool[rng.random_range(0..pool.len())].clone();
                let data = match rng.random_range(0..7u8) {
                    0 => RecordData::A(rng.random::<u32>().into()),
                    1 => RecordData::Aaaa((u128::from(rng.random::<u64>()) << 64).into()),
                    2 => RecordData::Mx {
                        preference: rng.random(),
                        exchange: target,
                    },
                    3 | 4 => {
                        let len = rng.random_range(0..400usize);
                        let text: String = (0..len)
                            .map(|_| (b' ' + rng.random_range(0..95u8)) as char)
                            .collect();
                        RecordData::Txt(TxtData::from_text(&text))
                    }
                    5 => RecordData::Spf(TxtData::from_text("v=spf1 mx -all")),
                    _ => RecordData::Ptr(target),
                };
                let mut rr = ResourceRecord::new(owner, data);
                rr.ttl = rng.random();
                rr
            })
            .collect();
        let rcodes = [
            Rcode::NoError,
            Rcode::NxDomain,
            Rcode::ServFail,
            Rcode::Refused,
        ];
        let mut response =
            Message::response(&query, rcodes[rng.random_range(0..rcodes.len())], answers);
        response.header.truncated = rng.random_bool(0.1);
        response
    }

    /// A header followed by one question whose name is `name_bytes`.
    fn with_question_name(rng: &mut StdRng, name_bytes: &[u8]) -> Vec<u8> {
        let mut bytes = vec![0, 1, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes[0] = rng.random();
        bytes.extend_from_slice(name_bytes);
        bytes.extend_from_slice(&[0, 16, 0, 1]);
        bytes
    }

    /// Datagram `i` of the hostile corpus and the name its question was
    /// about: a valid message cut short,
    /// bit-flipped, or with its question name swapped for a forward,
    /// looping or out-of-range pointer; or a question name with a
    /// 64-octet label, more than 255 octets, non-UTF-8 bytes, upper case
    /// or an embedded dot; or plain noise.
    fn hostile(rng: &mut StdRng, i: usize) -> (Vec<u8>, DomainName) {
        let msg = message(rng);
        let asked = msg.questions[0].name.clone();
        let mut bytes = if rng.random_bool(0.5) {
            encode(&msg)
        } else {
            encode_uncompressed(&msg)
        }
        .expect("generated message encodes");
        match i % 10 {
            0 => {
                let cut = rng.random_range(0..bytes.len());
                bytes.truncate(cut);
            }
            1 | 2 => {
                for _ in 0..rng.random_range(1..6usize) {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.random_range(0..8u32);
                }
            }
            3 => {
                // A pointer somewhere in the message: forward, onto
                // itself, back into the header, or past the end.
                let at = rng.random_range(12..bytes.len() - 1);
                let target = rng.random_range(0..bytes.len() as u16 + 40);
                bytes[at] = 0xC0 | (target >> 8) as u8;
                bytes[at + 1] = target as u8;
            }
            4 => {
                // Two pointers that point at each other.
                bytes = with_question_name(rng, &[0xC0, 14, 0xC0, 12]);
            }
            5 => {
                let mut name = vec![64];
                name.extend([b'a'; 64]);
                name.push(0);
                bytes = with_question_name(rng, &name);
            }
            6 => {
                let labels = rng.random_range(3..6usize);
                let len = rng.random_range(50..64u8);
                let mut name = Vec::new();
                for _ in 0..labels {
                    name.push(len);
                    name.extend(vec![b'b'; len as usize]);
                }
                name.push(0);
                bytes = with_question_name(rng, &name);
            }
            7 => {
                let mut name = vec![3, b'a', 0xC3, 0x28, 3, b'c', b'o', b'm', 0];
                if rng.random_bool(0.5) {
                    name[2] = rng.random_range(0x80..0xFFu8);
                    name[3] = rng.random();
                }
                bytes = with_question_name(rng, &name);
            }
            8 => {
                let shapes: [&[u8]; 6] = [
                    &[
                        3, b'W', b'W', b'W', 7, b'E', b'x', b'a', b'm', b'p', b'l', b'e', 0,
                    ],
                    &[5, b'a', b'.', b'b', b'.', b'c', 0],
                    &[4, b'c', b'o', b'm', b'.', 0],
                    &[0],
                    &[1, b'-', 0],
                    &[2, 0xCE, 0xBB, 3, b'o', b'r', b'g', 0],
                ];
                let shape = shapes[rng.random_range(0..shapes.len())];
                bytes = with_question_name(rng, shape);
            }
            _ => {
                let len = rng.random_range(0..64usize);
                bytes = (0..len).map(|_| rng.random()).collect();
            }
        }
        (bytes, asked)
    }

    #[test]
    fn hostile_datagrams_decode_to_the_pinned_results() {
        let mut rng = StdRng::seed_from_u64(0x1035_f022);
        let www = DomainName::parse("www.example").unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let mut errors = 0;
        for i in 0..HOSTILE_DATAGRAMS {
            let (bytes, asked) = hostile(&mut rng, i);
            let decoded = decode(&bytes);
            // Knowing the asked name saves allocations, never changes
            // the result: not for the asked name, not for a decoded
            // question's, not for one that matches only up to case.
            let echoed = decoded.as_ref().ok().and_then(|m| m.questions.first());
            for known in [Some(&asked), echoed.map(|q| &q.name), Some(&www)]
                .into_iter()
                .flatten()
            {
                assert_eq!(
                    decode_reply(&bytes, known),
                    decoded,
                    "{bytes:?} asked {known}"
                );
            }
            errors += usize::from(decoded.is_err());
            fnv(&mut hash, format!("{decoded:?}\n").as_bytes());
        }
        assert!(errors > HOSTILE_DATAGRAMS / 3, "{errors} errors");
        assert_eq!(
            hash, HOSTILE_DIGEST,
            "{HOSTILE_DATAGRAMS} datagrams ({errors} errors) digest to {hash:#018x}"
        );
    }
}
