//! RFC 1035 wire-format codec: message header, name compression,
//! resource-record encoding/decoding.
//!
//! This gives the DNS substrate a real network representation — the UDP
//! name server and client resolver in [`crate::udp`] speak this format,
//! and the integration tests drive the whole SPF pipeline over actual
//! sockets. Name compression is optional at encode time, an ablation
//! knob (DESIGN.md §5).

use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use spf_types::DomainName;

use crate::inline::InlineVec;
use crate::record::{Question, RecordData, RecordType, ResourceRecord, RrSet, TxtData};

/// Maximum size of a classic UDP DNS message (RFC 1035 §4.2.1).
pub const MAX_UDP_PAYLOAD: usize = 512;

/// Response codes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The query was malformed.
    FormErr,
    /// Server failure — the paper's crawler maps this to `temperror`.
    ServFail,
    /// Name does not exist — maps to `permerror` contexts / void lookups.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
}

impl Rcode {
    /// The 4-bit wire value.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    /// Decode a 4-bit wire value, defaulting unknown codes to ServFail.
    pub fn from_code(code: u8) -> Rcode {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => Rcode::ServFail,
        }
    }
}

/// Decoded message header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction ID, echoed by the server.
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Opcode (0 = standard query; the only one we use).
    pub opcode: u8,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Truncation flag: set when a response exceeded the UDP limit.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A standard query header.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            is_response: false,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
        }
    }

    /// A response header answering `query` with `rcode`.
    pub fn response_to(query: &Header, rcode: Rcode) -> Self {
        Header {
            id: query.id,
            is_response: true,
            opcode: query.opcode,
            authoritative: true,
            truncated: false,
            recursion_desired: query.recursion_desired,
            recursion_available: false,
            rcode,
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section: a server's reply carries the zone's set itself,
    /// and a decoded reply's set is what the client caches and hands on.
    pub answers: RrSet,
    /// Authority section.
    pub authorities: RrSet,
    /// Additional section.
    pub additionals: RrSet,
}

impl Message {
    /// A single-question query message.
    pub fn query(id: u16, question: Question) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![question],
            answers: RrSet::EMPTY,
            authorities: RrSet::EMPTY,
            additionals: RrSet::EMPTY,
        }
    }

    /// A response to `query` carrying `answers`: a set, shared, or the
    /// records of a `Vec`.
    pub fn response(query: &Message, rcode: Rcode, answers: impl Into<RrSet>) -> Self {
        Message {
            header: Header::response_to(&query.header, rcode),
            questions: query.questions.clone(),
            answers: answers.into(),
            authorities: RrSet::EMPTY,
            additionals: RrSet::EMPTY,
        }
    }
}

/// Errors from the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes while decoding.
    Truncated,
    /// A label exceeded 63 octets or a name 255 octets.
    NameTooLong,
    /// A compression pointer chain looped or pointed forward.
    BadPointer,
    /// An unsupported or malformed record was encountered.
    BadRecord {
        /// What was malformed.
        reason: &'static str,
    },
    /// The label bytes were not valid presentation characters.
    BadLabel,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::NameTooLong => write!(f, "name exceeds RFC 1035 limits"),
            WireError::BadPointer => write!(f, "invalid compression pointer"),
            WireError::BadRecord { reason } => write!(f, "malformed record: {reason}"),
            WireError::BadLabel => write!(f, "invalid label bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Compression-table entries kept inline before the table spills to the
/// heap: a name of three labels adds three, and the answers of a crawl's
/// reply point back at the question instead of adding their own.
const INLINE_SUFFIXES: usize = 16;

/// Writes one message onto the end of a caller's buffer, with optional
/// name compression. `'m` is the lifetime of the message being written:
/// the compression table borrows its names.
struct Encoder<'m, 'b> {
    buf: &'b mut Vec<u8>,
    /// Where the message starts in `buf`; compression offsets count from
    /// here.
    start: usize,
    compress: bool,
    /// The compression table: each suffix of a name already written — a
    /// slice of that name's own text — with its offset from the message
    /// start. A suffix is recorded where it is first written, so every
    /// later name points at the earliest copy.
    suffixes: InlineVec<(&'m str, u16), INLINE_SUFFIXES>,
}

impl<'m, 'b> Encoder<'m, 'b> {
    fn new(buf: &'b mut Vec<u8>, compress: bool) -> Self {
        Encoder {
            start: buf.len(),
            buf,
            compress,
            suffixes: InlineVec::new(),
        }
    }

    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// The header, with `counts` the lengths of the question, answer,
    /// authority and additional sections.
    fn put_header(&mut self, h: &Header, counts: [usize; 4]) -> Result<(), WireError> {
        self.put_u16(h.id);
        let mut flags: u16 = 0;
        if h.is_response {
            flags |= 1 << 15;
        }
        flags |= (h.opcode as u16 & 0xF) << 11;
        if h.authoritative {
            flags |= 1 << 10;
        }
        if h.truncated {
            flags |= TC_BIT;
        }
        if h.recursion_desired {
            flags |= 1 << 8;
        }
        if h.recursion_available {
            flags |= 1 << 7;
        }
        flags |= h.rcode.code() as u16;
        self.put_u16(flags);
        for c in counts {
            let c: u16 = c.try_into().map_err(|_| WireError::BadRecord {
                reason: "section too large",
            })?;
            self.put_u16(c);
        }
        Ok(())
    }

    fn put_question(&mut self, q: &'m Question) -> Result<(), WireError> {
        self.put_name(&q.name)?;
        self.put_u16(q.rtype.code());
        self.put_u16(1); // class IN
        Ok(())
    }

    /// Write `name` label by label until a suffix already in the table
    /// lets a pointer stand for the rest. Each suffix is a slice of the
    /// name's text from one label's start.
    fn put_name(&mut self, name: &'m DomainName) -> Result<(), WireError> {
        let text = name.as_str();
        let mut at = 0;
        for label in name.labels() {
            if self.compress {
                let suffix = &text[at..];
                let known = self.suffixes.as_slice().iter().find(|(s, _)| *s == suffix);
                if let Some(&(_, offset)) = known {
                    self.put_u16(0xC000 | offset);
                    return Ok(());
                }
                // Only offsets addressable by a 14-bit pointer can be reused.
                let offset = self.buf.len() - self.start;
                if offset <= 0x3FFF {
                    self.suffixes.push((suffix, offset as u16));
                }
            }
            if label.len() > 63 {
                return Err(WireError::NameTooLong);
            }
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label.as_bytes());
            at += label.len() + 1;
        }
        self.buf.push(0);
        Ok(())
    }

    fn put_record(&mut self, rr: &'m ResourceRecord) -> Result<(), WireError> {
        self.put_name(&rr.name)?;
        self.put_u16(rr.record_type().code());
        self.put_u16(1); // class IN
        self.buf.extend_from_slice(&rr.ttl.to_be_bytes());
        // Reserve rdlength, fill in after writing rdata.
        let len_pos = self.buf.len();
        self.put_u16(0);
        let rdata_start = self.buf.len();
        match &rr.data {
            RecordData::A(a) => self.buf.extend_from_slice(&a.octets()),
            RecordData::Aaaa(a) => self.buf.extend_from_slice(&a.octets()),
            RecordData::Mx {
                preference,
                exchange,
            } => {
                self.put_u16(*preference);
                self.put_name(exchange)?;
            }
            RecordData::Txt(t) | RecordData::Spf(t) => {
                for s in t.strings() {
                    // Strings from lossy wire decoding can exceed 255
                    // bytes in memory; re-split them at UTF-8 boundaries.
                    let bytes = s.as_bytes();
                    let mut start = 0;
                    loop {
                        let mut end = (start + 255).min(bytes.len());
                        while end > start && end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                            end -= 1;
                        }
                        self.buf.push((end - start) as u8);
                        self.buf.extend_from_slice(&bytes[start..end]);
                        if end == bytes.len() {
                            break;
                        }
                        start = end;
                    }
                }
            }
            RecordData::Ptr(d) | RecordData::Ns(d) | RecordData::Cname(d) => self.put_name(d)?,
        }
        let rdlen = (self.buf.len() - rdata_start) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        Ok(())
    }

    /// Run `write`; on an error, take back whatever it wrote, so a failed
    /// encode leaves the buffer as it found it.
    fn write<T>(
        mut self,
        write: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let written = write(&mut self);
        if written.is_err() {
            self.buf.truncate(self.start);
        }
        written
    }
}

/// The TC flag in the header's flags word.
const TC_BIT: u16 = 1 << 9;

/// Append `msg` to `buf` and return the position in `buf` just past its
/// question section — where [`truncate_reply`] cuts.
pub(crate) fn write_message(
    msg: &Message,
    compress: bool,
    buf: &mut Vec<u8>,
) -> Result<usize, WireError> {
    Encoder::new(buf, compress).write(|enc| {
        let counts = [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ];
        enc.put_header(&msg.header, counts)?;
        for q in &msg.questions {
            enc.put_question(q)?;
        }
        let questions_end = enc.buf.len();
        for rr in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            enc.put_record(rr)?;
        }
        Ok(questions_end)
    })
}

/// Cut a reply that [`write_message`] appended at `start` down to what a
/// server sends when the whole does not fit: the header with TC set and
/// no answers, then the question section, which ends at `questions_end`.
/// The bytes are those of encoding the reply again with TC set and its
/// answers removed — the question's names are written before any answer
/// can point at them — for a reply with no authority or additional
/// records.
pub(crate) fn truncate_reply(buf: &mut Vec<u8>, start: usize, questions_end: usize) {
    buf.truncate(questions_end);
    let flags = &mut buf[start + 2..start + 4];
    let set = u16::from_be_bytes([flags[0], flags[1]]) | TC_BIT;
    flags.copy_from_slice(&set.to_be_bytes());
    buf[start + 6..start + 8].fill(0); // ANCOUNT
}

/// Append `msg`, compressed, to `buf` — [`encode`] into a buffer the
/// caller keeps. On an error `buf` is left as it was.
fn encode_into(msg: &Message, buf: &mut Vec<u8>) -> Result<(), WireError> {
    write_message(msg, true, buf).map(|_| ())
}

/// Append the query [`Message::query`]`(id, question)` to `buf`, written
/// from the question itself: the bytes of [`encode`] on that message,
/// without building it. On an error `buf` is left as it was.
pub fn encode_query_into(id: u16, question: &Question, buf: &mut Vec<u8>) -> Result<(), WireError> {
    Encoder::new(buf, true).write(|enc| {
        enc.put_header(&Header::query(id), [1, 0, 0, 0])?;
        enc.put_question(question)
    })
}

/// Encode a message with compression enabled.
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(MAX_UDP_PAYLOAD);
    encode_into(msg, &mut buf)?;
    Ok(buf)
}

/// Encode a message without compression (ablation path).
pub fn encode_uncompressed(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(MAX_UDP_PAYLOAD);
    write_message(msg, false, &mut buf)?;
    Ok(buf)
}

/// Decode a full message from bytes.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    Decoder::new(bytes, None).message()
}

/// [`decode`] for a reply to a question about `asked`: the same result,
/// but a name in the reply equal to `asked` — the echoed question, the
/// answers' owner — shares `asked`'s text instead of copying it.
pub fn decode_reply(bytes: &[u8], asked: &DomainName) -> Result<Message, WireError> {
    Decoder::new(bytes, Some(asked.clone())).message()
}

thread_local! {
    /// Where a section's records gather before they move into its set,
    /// kept by each decoding thread between messages: a section then
    /// costs one allocation, the set's own.
    static SECTION: RefCell<Vec<ResourceRecord>> = const { RefCell::new(Vec::new()) };
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The first name of the message (the asked one, when known) and the
    /// latest other: a name whose text matches one of them is a clone of
    /// it, not a new allocation. Replies repeat their question's name as
    /// every answer's owner.
    first: Option<DomainName>,
    latest: Option<DomainName>,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8], first: Option<DomainName>) -> Self {
        Decoder {
            bytes,
            pos: 0,
            first,
            latest: None,
        }
    }

    fn message(&mut self) -> Result<Message, WireError> {
        let h = self.take(12)?;
        let id = be_u16(h, 0);
        let flags = be_u16(h, 2);
        let qdcount = be_u16(h, 4);
        let ancount = be_u16(h, 6);
        let nscount = be_u16(h, 8);
        let arcount = be_u16(h, 10);
        let header = Header {
            id,
            is_response: flags & (1 << 15) != 0,
            opcode: ((flags >> 11) & 0xF) as u8,
            authoritative: flags & (1 << 10) != 0,
            truncated: flags & TC_BIT != 0,
            recursion_desired: flags & (1 << 8) != 0,
            recursion_available: flags & (1 << 7) != 0,
            rcode: Rcode::from_code((flags & 0xF) as u8),
        };
        // A question takes at least six bytes (a pointer, type and
        // class), which bounds what a forged count can reserve.
        let mut questions = Vec::with_capacity(usize::from(qdcount).min(self.remaining() / 6));
        for _ in 0..qdcount {
            let name = self.name()?;
            let tcode = be_u16(self.take(4)?, 0); // type, then class
            let rtype = RecordType::from_code(tcode).ok_or(WireError::BadRecord {
                reason: "unknown question type",
            })?;
            questions.push(Question::new(name, rtype));
        }
        let answers = self.records(ancount)?;
        let authorities = self.records(nscount)?;
        let additionals = self.records(arcount)?;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    /// A section of `count` records. Every record takes at least eleven
    /// bytes, which bounds what a forged count can reserve.
    fn records(&mut self, count: u16) -> Result<RrSet, WireError> {
        if count == 0 {
            return Ok(RrSet::EMPTY);
        }
        SECTION.with_borrow_mut(|section| {
            // A message that failed to decode may have left records behind.
            section.clear();
            section.reserve(usize::from(count).min(self.remaining() / 11));
            for _ in 0..count {
                section.push(self.record()?);
            }
            Ok(RrSet::take(section))
        })
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn name(&mut self) -> Result<DomainName, WireError> {
        let (name, next) = self.name_at(self.pos)?;
        self.pos = next;
        Ok(name)
    }

    fn record(&mut self) -> Result<ResourceRecord, WireError> {
        let name = self.name()?;
        // type, class, ttl, rdlength
        let r = self.take(10)?;
        let tcode = be_u16(r, 0);
        let ttl = u32::from_be_bytes([r[4], r[5], r[6], r[7]]);
        let rdlen = be_u16(r, 8) as usize;
        let rdata_start = self.pos;
        let rdata = self.take(rdlen)?;
        let rtype = RecordType::from_code(tcode).ok_or(WireError::BadRecord {
            reason: "unknown record type",
        })?;
        let data = match rtype {
            RecordType::A => {
                if rdata.len() != 4 {
                    return Err(WireError::BadRecord {
                        reason: "A rdata length",
                    });
                }
                RecordData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3]))
            }
            RecordType::Aaaa => {
                if rdata.len() != 16 {
                    return Err(WireError::BadRecord {
                        reason: "AAAA rdata length",
                    });
                }
                let mut o = [0u8; 16];
                o.copy_from_slice(rdata);
                RecordData::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Mx => {
                if rdata.len() < 3 {
                    return Err(WireError::BadRecord {
                        reason: "MX rdata length",
                    });
                }
                let preference = be_u16(rdata, 0);
                // Exchange name may contain a compression pointer into the
                // full message, so decode against the whole buffer.
                let (exchange, _) = self.name_at(rdata_start + 2)?;
                RecordData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::Txt | RecordType::Spf => {
                let txt = TxtData::from_decoded(char_strings(rdata)?);
                if rtype == RecordType::Txt {
                    RecordData::Txt(txt)
                } else {
                    RecordData::Spf(txt)
                }
            }
            RecordType::Ptr | RecordType::Ns | RecordType::Cname => {
                let (target, _) = self.name_at(rdata_start)?;
                match rtype {
                    RecordType::Ptr => RecordData::Ptr(target),
                    RecordType::Ns => RecordData::Ns(target),
                    _ => RecordData::Cname(target),
                }
            }
        };
        Ok(ResourceRecord { name, ttl, data })
    }

    /// Read a (possibly compressed) name starting at `pos`; returns the
    /// name and the position just after it in the *linear* stream
    /// (pointers do not advance the linear position beyond the 2 pointer
    /// bytes). The labels are joined on the stack, so the name's text is
    /// its one allocation — none when it repeats a name already known.
    fn name_at(&mut self, mut pos: usize) -> Result<(DomainName, usize), WireError> {
        let bytes = self.bytes;
        // The joined text: at most 254 octets once the 255-octet limit,
        // which counts every label's length octet, has been checked.
        let mut text = [0u8; 255];
        let mut len = 0usize;
        let mut jumps = 0usize;
        let mut after: Option<usize> = None;
        let mut total_len = 0usize;
        loop {
            let len_byte = *bytes.get(pos).ok_or(WireError::Truncated)?;
            if len_byte & 0xC0 == 0xC0 {
                let second = *bytes.get(pos + 1).ok_or(WireError::Truncated)?;
                let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                if after.is_none() {
                    after = Some(pos + 2);
                }
                // Pointers must point strictly backwards; cap the chain to
                // guard against loops in hostile input.
                if target >= pos {
                    return Err(WireError::BadPointer);
                }
                jumps += 1;
                if jumps > 64 {
                    return Err(WireError::BadPointer);
                }
                pos = target;
                continue;
            }
            if len_byte & 0xC0 != 0 {
                return Err(WireError::BadLabel);
            }
            pos += 1;
            if len_byte == 0 {
                break;
            }
            let label_len = len_byte as usize;
            if label_len > 63 {
                return Err(WireError::NameTooLong);
            }
            let raw = bytes
                .get(pos..pos + label_len)
                .ok_or(WireError::Truncated)?;
            total_len += label_len + 1;
            if total_len > 255 {
                return Err(WireError::NameTooLong);
            }
            std::str::from_utf8(raw).map_err(|_| WireError::BadLabel)?;
            if len > 0 {
                text[len] = b'.';
                len += 1;
            }
            text[len..len + label_len].copy_from_slice(raw);
            len += label_len;
            pos += label_len;
        }
        if len == 0 {
            // The root name; we don't use it as an owner, but decode defensively.
            return Err(WireError::BadRecord {
                reason: "root owner name",
            });
        }
        // Labels of valid UTF-8 joined by dots are valid UTF-8.
        let text = std::str::from_utf8(&text[..len]).map_err(|_| WireError::BadLabel)?;
        // The same text up to ASCII case as a known name is a valid name
        // that parses to the known one.
        let known = [&self.first, &self.latest]
            .into_iter()
            .flatten()
            .find(|known| known.as_str().eq_ignore_ascii_case(text));
        let name = match known {
            Some(known) => known.clone(),
            None => {
                let name = DomainName::parse(text).map_err(|_| WireError::BadLabel)?;
                let slot = if self.first.is_none() {
                    &mut self.first
                } else {
                    &mut self.latest
                };
                *slot = Some(name.clone());
                name
            }
        };
        Ok((name, after.unwrap_or(pos)))
    }
}

/// The character-strings of TXT rdata, built straight into the shared
/// slice [`TxtData`] keeps: one pass checks every length, the second
/// copies each string out. Empty rdata is one empty string.
fn char_strings(rdata: &[u8]) -> Result<Arc<[String]>, WireError> {
    let mut count = 0;
    let mut p = 0;
    while p < rdata.len() {
        p += 1 + rdata[p] as usize;
        if p > rdata.len() {
            return Err(WireError::BadRecord {
                reason: "TXT char-string length",
            });
        }
        count += 1;
    }
    let mut rest = rdata;
    // A `Range` mapped is an iterator of known length, which `Arc<[_]>`
    // collects into one allocation of exactly that length.
    Ok((0..count.max(1))
        .map(|_| match rest.split_first() {
            Some((&len, tail)) => {
                let (string, tail) = tail.split_at(len as usize);
                rest = tail;
                String::from_utf8_lossy(string).into_owned()
            }
            None => String::new(),
        })
        .collect())
}

/// The big-endian `u16` at `at`; callers index inside a slice `take`
/// already bounded.
fn be_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([bytes[at], bytes[at + 1]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxtData;
    use spf_testkit::dom;

    fn sample_response() -> Message {
        let q = Message::query(0x1234, Question::new(dom("example.com"), RecordType::Txt));
        Message::response(
            &q,
            Rcode::NoError,
            vec![
                ResourceRecord::new(
                    dom("example.com"),
                    RecordData::Txt(TxtData::from_text("v=spf1 include:_spf.example.com -all")),
                ),
                ResourceRecord::new(
                    dom("mail.example.com"),
                    RecordData::A("192.0.2.10".parse().unwrap()),
                ),
                ResourceRecord::new(
                    dom("example.com"),
                    RecordData::Mx {
                        preference: 10,
                        exchange: dom("mail.example.com"),
                    },
                ),
            ],
        )
    }

    #[test]
    fn query_round_trip() {
        let msg = Message::query(7, Question::new(dom("_spf.google.com"), RecordType::Txt));
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn response_round_trip_with_compression() {
        let msg = sample_response();
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn response_round_trip_without_compression() {
        let msg = sample_response();
        let bytes = encode_uncompressed(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let msg = sample_response();
        let compressed = encode(&msg).unwrap();
        let plain = encode_uncompressed(&msg).unwrap();
        assert!(
            compressed.len() < plain.len(),
            "compression should shrink: {} vs {}",
            compressed.len(),
            plain.len()
        );
    }

    #[test]
    fn long_txt_round_trips_multiple_char_strings() {
        let long = "v=spf1 ".to_string() + &"ip4:198.51.100.0/24 ".repeat(30) + "~all";
        let msg = Message::response(
            &Message::query(1, Question::new(dom("big.example"), RecordType::Txt)),
            Rcode::NoError,
            vec![ResourceRecord::new(
                dom("big.example"),
                RecordData::Txt(TxtData::from_text(&long)),
            )],
        );
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        match &back.answers[0].data {
            RecordData::Txt(t) => {
                assert!(t.strings().len() > 1);
                assert_eq!(t.joined(), long);
            }
            other => panic!("unexpected rdata {other:?}"),
        }
    }

    #[test]
    fn nxdomain_header_round_trips() {
        let q = Message::query(9, Question::new(dom("missing.example"), RecordType::A));
        let resp = Message::response(&q, Rcode::NxDomain, vec![]);
        let back = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back.header.rcode, Rcode::NxDomain);
        assert!(back.header.is_response);
        assert!(back.answers.is_empty());
    }

    #[test]
    fn truncated_input_rejected() {
        let msg = sample_response();
        let bytes = encode(&msg).unwrap();
        for cut in [0, 5, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn forward_pointer_rejected() {
        // Header + a question whose name is a pointer to itself.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
        bytes.extend_from_slice(&[0xC0, 12]); // pointer to its own offset
        bytes.extend_from_slice(&[0, 16, 0, 1]);
        assert_eq!(decode(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn deprecated_spf_type_round_trips() {
        let msg = Message::response(
            &Message::query(3, Question::new(dom("old.example"), RecordType::Spf)),
            Rcode::NoError,
            vec![ResourceRecord::new(
                dom("old.example"),
                RecordData::Spf(TxtData::from_text("v=spf1 mx -all")),
            )],
        );
        let back = decode(&encode(&msg).unwrap()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn mx_exchange_uses_compression_pointer() {
        // The MX exchange repeats the owner suffix; with compression the
        // encoded form must still decode to the same exchange name.
        let msg = Message::response(
            &Message::query(4, Question::new(dom("example.org"), RecordType::Mx)),
            Rcode::NoError,
            vec![ResourceRecord::new(
                dom("example.org"),
                RecordData::Mx {
                    preference: 5,
                    exchange: dom("mx1.example.org"),
                },
            )],
        );
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        match &back.answers[0].data {
            RecordData::Mx {
                preference,
                exchange,
            } => {
                assert_eq!(*preference, 5);
                assert_eq!(exchange, &dom("mx1.example.org"));
            }
            other => panic!("unexpected rdata {other:?}"),
        }
    }

    #[test]
    fn a_message_appended_after_a_prefix_compresses_against_its_own_start() {
        let msg = sample_response();
        let mut buf = vec![0xAB, 0xCD];
        encode_into(&msg, &mut buf).unwrap();
        assert_eq!(&buf[2..], encode(&msg).unwrap().as_slice());
        assert_eq!(decode(&buf[2..]).unwrap(), msg);
    }

    #[test]
    fn a_failed_encode_leaves_the_buffer_as_it_was() {
        let mut msg = Message::query(1, Question::new(dom("example.com"), RecordType::Txt));
        msg.questions = vec![msg.questions[0].clone(); 0x1_0000];
        let mut buf = vec![1, 2, 3];
        assert_eq!(
            encode_into(&msg, &mut buf),
            Err(WireError::BadRecord {
                reason: "section too large"
            })
        );
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn a_query_written_from_its_question_is_the_encoded_query() {
        for (id, name) in [(7, "_spf.google.com"), (0xFFFF, "a.b.c.example.org")] {
            let q = Question::new(dom(name), RecordType::Txt);
            let mut buf = vec![9];
            encode_query_into(id, &q, &mut buf).unwrap();
            assert_eq!(
                &buf[1..],
                encode(&Message::query(id, q)).unwrap().as_slice()
            );
        }
    }

    /// The in-place cut gives the bytes of encoding the reply again with
    /// TC set and no answers, also behind a prefix and with a second
    /// question compressed against the first.
    #[test]
    fn a_reply_cut_in_place_is_the_truncated_reply_encoded_again() {
        let mut two_questions = sample_response();
        two_questions
            .questions
            .push(Question::new(dom("mail.example.com"), RecordType::A));
        for msg in [sample_response(), two_questions] {
            let mut truncated = msg.clone();
            truncated.header.truncated = true;
            truncated.answers = RrSet::EMPTY;
            for prefix in [0, 2] {
                let mut buf = vec![0; prefix];
                let questions_end = write_message(&msg, true, &mut buf).unwrap();
                truncate_reply(&mut buf, prefix, questions_end);
                assert_eq!(&buf[prefix..], encode(&truncated).unwrap().as_slice());
            }
        }
    }

    #[test]
    fn a_reply_shares_the_asked_names_text() {
        let msg = sample_response();
        let asked = dom("EXAMPLE.com");
        let bytes = encode(&msg).unwrap();
        let reply = decode_reply(&bytes, &asked).unwrap();
        assert_eq!(reply, decode(&bytes).unwrap());
        let shares = |name: &DomainName| name.as_str().as_ptr() == asked.as_str().as_ptr();
        assert!(shares(&reply.questions[0].name));
        assert!(shares(&reply.answers[0].name));
        assert!(
            !shares(&reply.answers[1].name),
            "mail.example.com is its own name"
        );
        assert!(shares(&reply.answers[2].name), "after another name");
    }

    #[test]
    fn header_flag_bits() {
        let mut h = Header::query(42);
        h.truncated = true;
        let msg = Message {
            header: h,
            questions: vec![],
            answers: RrSet::EMPTY,
            authorities: RrSet::EMPTY,
            additionals: RrSet::EMPTY,
        };
        let back = decode(&encode(&msg).unwrap()).unwrap();
        assert!(back.header.truncated);
        assert!(back.header.recursion_desired);
        assert!(!back.header.is_response);
        assert_eq!(back.header.id, 42);
    }
}
