//! The `ok` response body, written by hand.
//!
//! The body is, byte for byte, what `serde_json::to_string` makes of an
//! [`Evaluation`] — the stress suites and the `verdict_writer` proptest
//! compare the two on every verdict they see. Going through the
//! vendored `serde_json` means building a `Value` tree (a map of seven
//! heap-allocated keys) and rendering it into a fresh `String`: ~1.4 µs
//! a verdict, most of a hot query's user time. Writing the seven fields
//! straight into the reply buffer is ~0.1 µs and allocates nothing.
//!
//! Both patterns below are exhaustive, so a new [`Evaluation`] field or
//! [`SpfResult`] variant stops the build here instead of silently
//! parting from the derive.

use spf_core::{Evaluation, SpfResult};

/// Append `eval` as canonical JSON.
pub(crate) fn write_evaluation(out: &mut Vec<u8>, eval: &Evaluation) {
    let Evaluation {
        result,
        dns_lookups,
        void_lookups,
        matched_directive,
        final_domain,
        problem,
        explanation,
    } = eval;
    let result = match result {
        SpfResult::None => "None",
        SpfResult::Neutral => "Neutral",
        SpfResult::Pass => "Pass",
        SpfResult::Fail => "Fail",
        SpfResult::SoftFail => "SoftFail",
        SpfResult::TempError => "TempError",
        SpfResult::PermError => "PermError",
    };
    out.extend_from_slice(b"{\"result\":\"");
    out.extend_from_slice(result.as_bytes());
    out.extend_from_slice(b"\",\"dns_lookups\":");
    write_uint(out, *dns_lookups);
    out.extend_from_slice(b",\"void_lookups\":");
    write_uint(out, *void_lookups);
    out.extend_from_slice(b",\"matched_directive\":");
    write_opt_str(out, matched_directive.as_deref());
    out.extend_from_slice(b",\"final_domain\":");
    write_str(out, final_domain.as_str());
    out.extend_from_slice(b",\"problem\":");
    match problem {
        None => out.extend_from_slice(b"null"),
        // Rare (error verdicts only) and nested three enums deep: the
        // derive renders this one field.
        Some(problem) => out.extend_from_slice(
            serde_json::to_string(problem)
                .expect("EvalProblem serializes")
                .as_bytes(),
        ),
    }
    out.extend_from_slice(b",\"explanation\":");
    write_opt_str(out, explanation.as_deref());
    out.push(b'}');
}

fn write_uint(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn write_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.extend_from_slice(b"null"),
        Some(s) => write_str(out, s),
    }
}

/// `serde_json`'s string rule: `"` `\` and the three named controls get
/// a two-character escape, the other controls below U+0020 `\u00xx`,
/// everything else — DEL and non-ASCII included — goes out as it is.
/// Every byte that needs an escape is ASCII, so scanning bytes never
/// splits a UTF-8 sequence.
fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut clean_from = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let unicode;
        let escape: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                let (hi, lo) = (usize::from(byte >> 4), usize::from(byte & 0xf));
                unicode = [b'\\', b'u', b'0', b'0', HEX[hi], HEX[lo]];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean_from..i]);
        out.extend_from_slice(escape);
        clean_from = i + 1;
    }
    out.extend_from_slice(&bytes[clean_from..]);
    out.push(b'"');
}
