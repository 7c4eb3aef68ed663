//! Output checks: FNV-1a digests of serialized outputs, compared
//! against a reference computed during set-up, plus a cheap per-crawl
//! summary so every timed iteration is checked, not only the last.

use spf_analyzer::DomainReport;
use spf_types::WeightedRanges;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a hash over `bytes`.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a over the canonical JSON of `value`.
pub fn json_digest<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("benchmark outputs serialize")
            .as_bytes(),
    )
}

/// Digest of a crawl's whole output: every report's JSON in rank order
/// (one at a time, so the check never holds the population's JSON in
/// memory and peak RSS stays the program's), then the weighted
/// coverage.
pub fn crawl_digest(reports: &[DomainReport], weighted: &WeightedRanges) -> u64 {
    let mut hash = FNV_OFFSET;
    for report in reports {
        let json = serde_json::to_string(report).expect("reports serialize");
        hash = fnv1a_extend(hash, json.as_bytes());
    }
    let json = serde_json::to_string(weighted).expect("coverage serializes");
    fnv1a_extend(hash, json.as_bytes())
}

/// What one pass over the reports can tell without serializing them:
/// enough to catch a dropped, duplicated or mis-analyzed domain in any
/// iteration for the price of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlSummary {
    /// Reports returned.
    pub reports: usize,
    /// … with an SPF record.
    pub with_spf: u64,
    /// … with an analysis error.
    pub with_error: u64,
    /// Authorized IPv4 addresses summed over all reports (wrapping).
    pub allowed_ips: u64,
    /// Distinct coverage boundaries' ranges after the sweep.
    pub coverage_ranges: usize,
}

impl CrawlSummary {
    /// Summarize one crawl output.
    pub fn of(reports: &[DomainReport], weighted: &WeightedRanges) -> CrawlSummary {
        let mut summary = CrawlSummary {
            reports: reports.len(),
            with_spf: 0,
            with_error: 0,
            allowed_ips: 0,
            coverage_ranges: weighted.range_count(),
        };
        for report in reports {
            summary.with_spf += u64::from(report.has_spf);
            summary.with_error += u64::from(report.has_error());
            summary.allowed_ips = summary.allowed_ips.wrapping_add(report.allowed_ip_count());
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
