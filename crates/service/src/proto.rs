//! The verdict service's length-prefixed binary wire protocol.
//!
//! Both transports carry the same frame: a 2-byte big-endian payload
//! length followed by the payload (the RFC 7766 shape the `dns` crate
//! already uses for TCP DNS). On UDP one datagram is exactly one frame;
//! on TCP frames are concatenated on the stream and reassembled with
//! [`split_frame`].
//!
//! Payload grammar (all integers big-endian):
//!
//! ```text
//! payload   = version kind id rest
//! version   = %x01
//! kind      = %x00 (query) / %x01 (response)
//! id        = 8OCTET                 ; caller-chosen correlation id
//! rest      =/ query-rest            ; when kind = 0
//! rest      =/ response-rest         ; when kind = 1
//! query-rest    = ip-tag ip-octets domain sender [stack]
//! ip-tag        = %x04 / %x06
//! ip-octets     = 4OCTET / 16OCTET   ; per ip-tag
//! domain        = len16 *OCTET       ; presentation-form domain name
//! sender        = len16 *OCTET       ; UTF-8 MAIL FROM localpart
//! stack         = %x00 / %x01        ; absent = %x00 (plain SPF query)
//! response-rest = status len16 *OCTET
//! status        = %x00 (ok) / %x01 (overloaded) / %x02 (bad-request)
//!               / %x03 (shutting-down)
//! len16         = 2OCTET
//! ```
//!
//! An `ok` response body is the canonical `serde_json` encoding of the
//! [`Evaluation`] — the same bytes `check_host` serializes to, which is
//! what lets the stress suite byte-compare served verdicts against bare
//! evaluations. (The service writes those bytes by hand, straight into
//! the frame: [`write_verdict`].) Error-status bodies are a
//! human-readable UTF-8 message.
//!
//! **Stacked queries (matrix v2, DESIGN.md §13).** A query may append a
//! single `stack` flag octet after `sender`; when it is `%x01` the `ok`
//! body is the canonical JSON of an [`AuthOutcome`] — the layered
//! SPF × DMARC × MTA-STS verdict — instead of a bare [`Evaluation`].
//! The flag octet is *omitted* (not zero-padded) for plain queries, so
//! every v1 frame is bit-identical under the v2 encoder and a v1 client
//! never sees a byte it does not expect. An absent flag decodes as
//! `%x00`, which is how a v2 service accepts v1 clients unchanged.
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`FrameError`], and the service answers garbage with a `bad-request`
//! response rather than dropping the socket. Encoding a reply never
//! panics either: [`write_verdict`] and [`write_response`] refuse a
//! payload past [`MAX_PAYLOAD`] with [`FrameError::Oversized`], and the
//! service answers that query `bad-request` too — how large a verdict
//! gets is up to the zone it was evaluated against.

use std::fmt;
use std::net::IpAddr;

use spf_core::{AuthOutcome, Evaluation};
use spf_types::DomainName;

use crate::json::write_evaluation;

/// Protocol version carried in every frame.
pub const PROTO_VERSION: u8 = 1;

/// Hard ceiling on a payload (excluding the 2-byte length prefix).
///
/// Queries are tiny; responses carry one JSON-encoded [`Evaluation`],
/// bounded by record content, so 16 KiB leaves an order of magnitude of
/// headroom while still fitting a single loopback UDP datagram.
pub const MAX_PAYLOAD: usize = 16 * 1024;

/// Size of the frame length prefix on the wire.
pub const LEN_PREFIX: usize = 2;

const KIND_QUERY: u8 = 0;
const KIND_RESPONSE: u8 = 1;
const TAG_V4: u8 = 4;
const TAG_V6: u8 = 6;
/// Fixed bytes before the kind-specific rest: version, kind, id.
const HEADER_LEN: usize = 10;

/// Response status: how the service disposed of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The query was evaluated; the body is the JSON verdict.
    Ok,
    /// The request queue was full; the query was not evaluated.
    Overloaded,
    /// The query cannot be answered as sent: its frame failed to
    /// decode, or its verdict does not fit a response frame. The body
    /// describes the error.
    BadRequest,
    /// The service is draining and no longer accepts queries.
    ShuttingDown,
}

impl Status {
    fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::BadRequest => 2,
            Status::ShuttingDown => 3,
        }
    }

    fn from_code(code: u8) -> Result<Status, FrameError> {
        match code {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Overloaded),
            2 => Ok(Status::BadRequest),
            3 => Ok(Status::ShuttingDown),
            other => Err(FrameError::BadStatus(other)),
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::BadRequest => "bad-request",
            Status::ShuttingDown => "shutting-down",
        };
        f.write_str(label)
    }
}

/// Typed decode failure. Every malformed input maps here — decoding
/// never panics, and the service turns these into `bad-request`
/// responses instead of silently dropping the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the structure it promised.
    Truncated {
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload length — advertised by a received prefix, or reached
    /// by a frame being written — exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The offending length.
        len: usize,
    },
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Unknown address-family tag (neither 4 nor 6).
    BadAddressTag(u8),
    /// The domain field is not a valid presentation-form name.
    BadDomain,
    /// The sender field is not valid UTF-8.
    BadSender,
    /// Unknown response status byte.
    BadStatus(u8),
    /// The optional stack-flag octet was neither 0 nor 1.
    BadStackFlag(u8),
    /// Bytes remained after the complete structure.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A response body did not parse as the promised verdict JSON.
    BadBody,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} > {MAX_PAYLOAD} bytes")
            }
            FrameError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadAddressTag(t) => write!(f, "unknown address tag {t}"),
            FrameError::BadDomain => write!(f, "invalid domain name"),
            FrameError::BadSender => write!(f, "sender localpart is not UTF-8"),
            FrameError::BadStatus(s) => write!(f, "unknown response status {s}"),
            FrameError::BadStackFlag(b) => write!(f, "stack flag must be 0 or 1, got {b}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
            FrameError::BadBody => write!(f, "response body is not a verdict"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A verdict query: `(client_ip, domain, sender-localpart)` plus a
/// caller-chosen correlation id echoed in the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFrame {
    /// Correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The connecting client IP (`<ip>` of `check_host`).
    pub ip: IpAddr,
    /// The MAIL FROM domain to evaluate.
    pub domain: DomainName,
    /// The MAIL FROM localpart (for macro expansion).
    pub sender_local: String,
    /// When set, the `ok` response body is a stacked [`AuthOutcome`]
    /// (SPF × DMARC × MTA-STS) instead of a bare [`Evaluation`].
    /// Encoded as an optional trailing flag octet so plain queries stay
    /// bit-identical to protocol v1.
    pub stack: bool,
}

/// A verdict response: the echoed id, a [`Status`], and a body whose
/// meaning depends on the status (verdict JSON for `Ok`, UTF-8 message
/// otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The correlation id echoed from the query (0 when the query was
    /// too mangled to recover one).
    pub id: u64,
    /// How the service disposed of the query.
    pub status: Status,
    /// Status-dependent body bytes.
    pub body: Vec<u8>,
}

impl ResponseFrame {
    /// An `Ok` response carrying `eval` as canonical JSON.
    pub fn verdict(id: u64, eval: &Evaluation) -> ResponseFrame {
        let mut body = Vec::with_capacity(192);
        write_evaluation(&mut body, eval);
        ResponseFrame {
            id,
            status: Status::Ok,
            body,
        }
    }

    /// An `Ok` response to a stacked query, carrying the layered
    /// [`AuthOutcome`] as canonical JSON.
    pub fn stacked(id: u64, outcome: &AuthOutcome) -> ResponseFrame {
        let body = serde_json::to_string(outcome)
            .expect("AuthOutcome serializes")
            .into_bytes();
        ResponseFrame {
            id,
            status: Status::Ok,
            body,
        }
    }

    /// An error response with a human-readable message body.
    pub fn error(id: u64, status: Status, message: &str) -> ResponseFrame {
        ResponseFrame {
            id,
            status,
            body: message.as_bytes().to_vec(),
        }
    }

    /// Parse the body back into an [`Evaluation`]. Fails with
    /// [`FrameError::BadBody`] unless the status is [`Status::Ok`] and
    /// the body is valid verdict JSON.
    pub fn evaluation(&self) -> Result<Evaluation, FrameError> {
        if self.status != Status::Ok {
            return Err(FrameError::BadBody);
        }
        let text = std::str::from_utf8(&self.body).map_err(|_| FrameError::BadBody)?;
        serde_json::from_str(text).map_err(|_| FrameError::BadBody)
    }

    /// Parse the body of a stacked response back into an
    /// [`AuthOutcome`]. Fails with [`FrameError::BadBody`] unless the
    /// status is [`Status::Ok`] and the body is valid stacked-verdict
    /// JSON (a plain-verdict body fails here, and vice versa — the two
    /// JSON shapes are disjoint).
    pub fn auth_outcome(&self) -> Result<AuthOutcome, FrameError> {
        if self.status != Status::Ok {
            return Err(FrameError::BadBody);
        }
        let text = std::str::from_utf8(&self.body).map_err(|_| FrameError::BadBody)?;
        serde_json::from_str(text).map_err(|_| FrameError::BadBody)
    }

    /// The body as lossy UTF-8 (error messages).
    pub fn message(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Either side of the protocol, as decoded from a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A client query.
    Query(QueryFrame),
    /// A server response.
    Response(ResponseFrame),
}

/// Append one frame to `out`: length prefix, version, `kind`, `id`,
/// then whatever `rest` appends. Total: a payload past [`MAX_PAYLOAD`]
/// is refused with `out` cut back to where it was.
fn write_frame(
    out: &mut Vec<u8>,
    kind: u8,
    id: u64,
    rest: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0, 0, PROTO_VERSION, kind]);
    out.extend_from_slice(&id.to_be_bytes());
    rest(out);
    let len = out.len() - start - LEN_PREFIX;
    if len > MAX_PAYLOAD {
        out.truncate(start);
        return Err(FrameError::Oversized { len });
    }
    out[start..start + LEN_PREFIX].copy_from_slice(&(len as u16).to_be_bytes());
    Ok(())
}

/// Append a `len16`-prefixed field whose bytes `field` appends. A field
/// too long for its prefix is also too long for [`MAX_PAYLOAD`], so
/// [`write_frame`] refuses the frame and the saturated prefix never
/// leaves.
fn write_len16(out: &mut Vec<u8>, field: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    field(out);
    let len = u16::try_from(out.len() - at - 2).unwrap_or(u16::MAX);
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
}

fn write_query(out: &mut Vec<u8>, q: &QueryFrame) -> Result<(), FrameError> {
    write_frame(out, KIND_QUERY, q.id, |out| {
        match q.ip {
            IpAddr::V4(v4) => {
                out.push(TAG_V4);
                out.extend_from_slice(&v4.octets());
            }
            IpAddr::V6(v6) => {
                out.push(TAG_V6);
                out.extend_from_slice(&v6.octets());
            }
        }
        write_len16(out, |out| {
            out.extend_from_slice(q.domain.as_str().as_bytes())
        });
        write_len16(out, |out| out.extend_from_slice(q.sender_local.as_bytes()));
        // The stack flag is omitted (not written as zero) for plain
        // queries so v1 frames stay bit-identical.
        if q.stack {
            out.push(1);
        }
    })
}

/// Append `response` to `out` as one wire frame, or refuse it with
/// [`FrameError::Oversized`] — `out` untouched — when its payload would
/// pass [`MAX_PAYLOAD`].
pub fn write_response(out: &mut Vec<u8>, response: &ResponseFrame) -> Result<(), FrameError> {
    write_frame(out, KIND_RESPONSE, response.id, |out| {
        out.push(response.status.code());
        write_len16(out, |out| out.extend_from_slice(&response.body));
    })
}

/// Append the `ok` response carrying `eval` to `out`: the frame
/// [`write_response`] makes of [`ResponseFrame::verdict`], with the
/// body written in place instead of into a `Vec` of its own. Refused
/// like any other response when the verdict does not fit.
pub fn write_verdict(out: &mut Vec<u8>, id: u64, eval: &Evaluation) -> Result<(), FrameError> {
    write_frame(out, KIND_RESPONSE, id, |out| {
        out.push(Status::Ok.code());
        write_len16(out, |out| write_evaluation(out, eval));
    })
}

/// Encode a frame for the wire: `[u16 payload-length][payload]`.
///
/// # Panics
///
/// If the payload would exceed [`MAX_PAYLOAD`] — impossible for queries
/// with a sender localpart of sane length (domains are ≤ 253 bytes); a
/// caller constructing a frame from unbounded data must bound it first,
/// or use [`write_response`] / [`write_verdict`], which return the
/// error. The service replies through those two: a zone decides how
/// large a verdict gets.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(match frame {
        Frame::Query(_) => 64,
        Frame::Response(r) => LEN_PREFIX + HEADER_LEN + 3 + r.body.len(),
    });
    let written = match frame {
        Frame::Query(q) => write_query(&mut out, q),
        Frame::Response(r) => write_response(&mut out, r),
    };
    if let Err(e) = written {
        panic!("{e}");
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated {
            needed: usize::MAX,
            have: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn finish(&self) -> Result<(), FrameError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(FrameError::TrailingBytes { extra });
        }
        Ok(())
    }
}

/// Decode one payload (the bytes after the length prefix). The payload
/// must contain exactly one frame — trailing bytes are an error.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len: payload.len() });
    }
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let version = cur.u8()?;
    if version != PROTO_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = cur.u8()?;
    let id = cur.u64()?;
    let frame = match kind {
        KIND_QUERY => {
            let ip = match cur.u8()? {
                TAG_V4 => {
                    let b = cur.take(4)?;
                    IpAddr::from([b[0], b[1], b[2], b[3]])
                }
                TAG_V6 => {
                    let b = cur.take(16)?;
                    let mut raw = [0u8; 16];
                    raw.copy_from_slice(b);
                    IpAddr::from(raw)
                }
                other => return Err(FrameError::BadAddressTag(other)),
            };
            let name_len = cur.u16()? as usize;
            let name = cur.take(name_len)?;
            let name = std::str::from_utf8(name).map_err(|_| FrameError::BadDomain)?;
            let domain = DomainName::parse(name).map_err(|_| FrameError::BadDomain)?;
            let sender_len = cur.u16()? as usize;
            let sender = cur.take(sender_len)?;
            let sender_local = std::str::from_utf8(sender)
                .map_err(|_| FrameError::BadSender)?
                .to_string();
            // Optional trailing stack flag: absent means a plain v1
            // query; anything beyond one octet is still trailing junk.
            let stack = if cur.pos < cur.buf.len() {
                match cur.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(FrameError::BadStackFlag(other)),
                }
            } else {
                false
            };
            Frame::Query(QueryFrame {
                id,
                ip,
                domain,
                sender_local,
                stack,
            })
        }
        KIND_RESPONSE => {
            let status = Status::from_code(cur.u8()?)?;
            let body_len = cur.u16()? as usize;
            let body = cur.take(body_len)?.to_vec();
            Frame::Response(ResponseFrame { id, status, body })
        }
        other => return Err(FrameError::BadKind(other)),
    };
    cur.finish()?;
    Ok(frame)
}

/// Decode a whole UDP datagram: length prefix plus exactly one payload.
pub fn decode_datagram(buf: &[u8]) -> Result<Frame, FrameError> {
    if buf.len() < LEN_PREFIX {
        return Err(FrameError::Truncated {
            needed: LEN_PREFIX,
            have: buf.len(),
        });
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len });
    }
    let body = &buf[LEN_PREFIX..];
    if body.len() < len {
        return Err(FrameError::Truncated {
            needed: LEN_PREFIX + len,
            have: buf.len(),
        });
    }
    if body.len() > len {
        return Err(FrameError::TrailingBytes {
            extra: body.len() - len,
        });
    }
    decode_payload(body)
}

/// Try to split one complete frame off the front of a TCP accumulation
/// buffer. Returns `Ok(None)` while the frame is still incomplete,
/// `Ok(Some((consumed, payload)))` once the prefix and payload are fully
/// buffered, and [`FrameError::Oversized`] when the advertised length
/// can never be valid (the connection should be dropped — the stream can
/// no longer be re-synchronized).
pub fn split_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, FrameError> {
    if buf.len() < LEN_PREFIX {
        return Ok(None);
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len });
    }
    let total = LEN_PREFIX + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((total, &buf[LEN_PREFIX..total])))
}

/// Best-effort recovery of the correlation id from a payload that failed
/// to decode, so the `bad-request` response can still be matched by the
/// client. Returns `None` when fewer than the header's worth of bytes exist.
pub fn peek_query_id(payload: &[u8]) -> Option<u64> {
    if payload.len() < HEADER_LEN {
        return None;
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&payload[2..10]);
    Some(u64::from_be_bytes(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn sample_query() -> Frame {
        Frame::Query(QueryFrame {
            id: 0xDEAD_BEEF_1234_5678,
            ip: IpAddr::from([192, 0, 2, 7]),
            domain: dom("example.com"),
            sender_local: "attacker".into(),
            stack: false,
        })
    }

    #[test]
    fn query_round_trips() {
        let frame = sample_query();
        let wire = encode_frame(&frame);
        assert_eq!(decode_datagram(&wire).unwrap(), frame);
    }

    #[test]
    fn v6_query_round_trips() {
        let frame = Frame::Query(QueryFrame {
            id: 1,
            ip: "2001:db8::25".parse().unwrap(),
            domain: dom("mail.example.org"),
            sender_local: String::new(),
            stack: false,
        });
        let wire = encode_frame(&frame);
        assert_eq!(decode_datagram(&wire).unwrap(), frame);
    }

    #[test]
    fn stacked_query_round_trips_and_plain_wire_is_v1_identical() {
        let Frame::Query(plain) = sample_query() else {
            unreachable!()
        };
        let mut stacked = plain.clone();
        stacked.stack = true;
        let stacked_wire = encode_frame(&Frame::Query(stacked.clone()));
        assert_eq!(
            decode_datagram(&stacked_wire).unwrap(),
            Frame::Query(stacked)
        );
        // A plain query must not grow a zero flag octet: its wire form
        // is exactly the stacked form minus the final flag byte (plus
        // the two-byte length delta in the prefix).
        let plain_wire = encode_frame(&Frame::Query(plain));
        assert_eq!(plain_wire.len() + 1, stacked_wire.len());
        assert_eq!(
            plain_wire[LEN_PREFIX..],
            stacked_wire[LEN_PREFIX..stacked_wire.len() - 1]
        );
        assert_eq!(stacked_wire[stacked_wire.len() - 1], 1);
    }

    #[test]
    fn explicit_zero_stack_flag_decodes_as_plain() {
        // A v2 peer may spell "plain" as an explicit %x00 flag octet;
        // accept it even though our encoder always omits it.
        let mut wire = encode_frame(&sample_query());
        wire.push(0);
        let len = u16::from_be_bytes([wire[0], wire[1]]) + 1;
        wire[..LEN_PREFIX].copy_from_slice(&len.to_be_bytes());
        assert_eq!(decode_datagram(&wire).unwrap(), sample_query());
    }

    #[test]
    fn bad_stack_flag_is_typed() {
        let mut wire = encode_frame(&sample_query());
        wire.push(7);
        let len = u16::from_be_bytes([wire[0], wire[1]]) + 1;
        wire[..LEN_PREFIX].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::BadStackFlag(7)
        );
    }

    #[test]
    fn two_trailing_bytes_after_flag_are_still_trailing() {
        let mut wire = encode_frame(&sample_query());
        wire.extend_from_slice(&[1, 0]);
        let len = u16::from_be_bytes([wire[0], wire[1]]) + 2;
        wire[..LEN_PREFIX].copy_from_slice(&len.to_be_bytes());
        assert!(matches!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn response_round_trips() {
        let frame = Frame::Response(ResponseFrame::error(42, Status::Overloaded, "queue full"));
        let wire = encode_frame(&frame);
        let decoded = decode_datagram(&wire).unwrap();
        assert_eq!(decoded, frame);
        if let Frame::Response(r) = decoded {
            assert_eq!(r.message(), "queue full");
            assert_eq!(r.evaluation(), Err(FrameError::BadBody));
        }
    }

    #[test]
    fn truncated_header_is_typed() {
        let wire = encode_frame(&sample_query());
        for cut in 0..wire.len() {
            let err = decode_datagram(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut wire = encode_frame(&sample_query());
        wire.push(0);
        assert!(matches!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn oversized_prefix_is_typed() {
        let wire = [0xFF, 0xFF, 0, 0];
        assert!(matches!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::Oversized { .. }
        ));
        assert!(matches!(
            split_frame(&wire).unwrap_err(),
            FrameError::Oversized { .. }
        ));
    }

    #[test]
    fn bad_version_kind_tag_status() {
        let mut wire = encode_frame(&sample_query());
        wire[2] = 9;
        assert_eq!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::BadVersion(9)
        );
        let mut wire = encode_frame(&sample_query());
        wire[3] = 7;
        assert_eq!(decode_datagram(&wire).unwrap_err(), FrameError::BadKind(7));
        let mut wire = encode_frame(&sample_query());
        wire[12] = 5; // address tag
        assert_eq!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::BadAddressTag(5)
        );
        let mut wire = encode_frame(&Frame::Response(ResponseFrame::error(1, Status::Ok, "")));
        wire[12] = 99; // status byte
        assert_eq!(
            decode_datagram(&wire).unwrap_err(),
            FrameError::BadStatus(99)
        );
    }

    #[test]
    fn split_frame_reassembles_a_stream() {
        let a = encode_frame(&sample_query());
        let b = encode_frame(&Frame::Response(ResponseFrame::error(
            7,
            Status::ShuttingDown,
            "draining",
        )));
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (used, payload) = split_frame(&stream).unwrap().unwrap();
        assert_eq!(used, a.len());
        assert_eq!(decode_payload(payload).unwrap(), sample_query());
        let rest = &stream[used..];
        let (used2, payload2) = split_frame(rest).unwrap().unwrap();
        assert_eq!(used2, b.len());
        assert!(matches!(
            decode_payload(payload2).unwrap(),
            Frame::Response(_)
        ));
        // A partial tail is not yet a frame.
        assert_eq!(
            split_frame(&stream[..a.len() + 1]).unwrap().map(|x| x.0),
            Some(a.len())
        );
        assert!(split_frame(&b[..1]).unwrap().is_none());
    }

    #[test]
    fn peek_recovers_id_from_mangled_frames() {
        let wire = encode_frame(&sample_query());
        let payload = &wire[LEN_PREFIX..];
        assert_eq!(peek_query_id(payload), Some(0xDEAD_BEEF_1234_5678));
        assert_eq!(peek_query_id(&payload[..9]), None);
    }
}
