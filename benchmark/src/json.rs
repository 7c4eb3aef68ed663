//! The few JSON fragments the benchmark prints. Hand-written so the
//! result line's key order and number formatting are exactly what the
//! contract shows.

use std::fmt::Display;

/// A JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has. JSON has no
/// infinity: a non-finite value (a p50 that fell on a failed query)
/// prints as the largest finite number, and the run is already marked
/// incorrect by its failed operations.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// `null` or the value.
pub fn optional<T: Display>(value: Option<T>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_numbers_keep_their_digits() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(1.203_456_789), "1.203456789");
        assert_eq!(number(120000.0), "120000");
        assert!(number(f64::INFINITY).parse::<f64>().unwrap().is_finite());
        assert_eq!(optional(Some(3)), "3");
        assert_eq!(optional::<u64>(None), "null");
    }
}
