//! The paper's published values, transcribed once so every experiment can
//! print paper-vs-measured comparisons from a single source of truth.

/// One Table 1 prior-work row: (study, year, list, size-label, spf, dmarc).
/// `None` means the study did not report DMARC.
type Table1Row = (
    &'static str,
    u16,
    &'static str,
    &'static str,
    f64,
    Option<f64>,
);

/// Table 1 prior-work rows.
pub const TABLE1_PRIOR: [Table1Row; 10] = [
    ("Gojmerac et al.", 2014, "Alexa", "1M", 0.367, Some(0.005)),
    ("Foster et al.", 2015, "Alexa", "1M", 0.422, Some(0.010)),
    ("Foster et al.", 2015, "Adobe", "1M", 0.436, Some(0.009)),
    ("Durumeric et al.", 2015, "Alexa", "1M", 0.470, Some(0.011)),
    ("Hu and Wang", 2018, "Alexa", "1M", 0.492, Some(0.051)),
    ("Kahraman", 2020, "Alexa", "1M", 0.736, None),
    ("Wang et al.", 2022, "Alexa", "1M", 0.541, Some(0.119)),
    ("Tatang et al.", 2020, "Other", "2M", 0.507, Some(0.115)),
    ("Kahraman", 2020, "None", "168M", 0.250, None),
    ("Our study", 2023, "Tranco", "12M", 0.565, Some(0.136)),
];

/// Table 1 "Our study" row for the top 1M: SPF and DMARC rates.
pub const TABLE1_OURS_TOP1M: (f64, f64) = (0.602, 0.226);
/// Table 1 "Our study" row for all 12M.
pub const TABLE1_OURS_ALL: (f64, f64) = (0.565, 0.136);
/// §5.1: SPF adoption among MX-less domains.
pub const SPF_AMONG_NO_MX: f64 = 0.104;
/// §5.1: share of MX-less SPF records that are bare deny-alls.
pub const DENY_ALL_SHARE: f64 = 0.531;

/// Figure 1 counts (thousands): all, mx, spf, dmarc.
pub const FIGURE1_COUNTS: (u64, u64, u64, u64) = (12_823_598, 9_148_000, 7_251_736, 1_744_009);

/// Figure 2 error counts in display order.
pub const FIGURE2: [(&str, u64); 7] = [
    ("Syntax Error", 38_296),
    ("Too Many DNS Lookups", 49_421),
    ("Too Many Void DNS Lookups", 5_308),
    ("Redirect Loop", 58),
    ("Include Loop", 19_356),
    ("Record not found", 90_697),
    ("Invalid IP address", 7_882),
];

/// Total erroneous domains (2.9 % of SPF records).
pub const TOTAL_ERRORS: u64 = 211_018;
/// Transient DNS errors excluded from the analysis.
pub const DNS_TRANSIENT_ERRORS: u64 = 1_179;

/// Figure 3 record-not-found causes in display order.
pub const FIGURE3: [(&str, u64); 6] = [
    ("Other Errors", 3),
    ("No SPF Record", 48_824),
    ("Multiple SPF Records", 2_263),
    ("Domain not found", 36_743),
    ("Empty Result", 173),
    ("DNS Timeout", 2_691),
];

/// Figure 4: includes exceeding the lookup limit, affected domains, and
/// the bluehost share of those.
pub const FIGURE4_FAT_INCLUDES: u64 = 2_408;
/// Domains affected by fat includes.
pub const FIGURE4_AFFECTED: u64 = 85_915;
/// The bluehost-style record's share of affected domains.
pub const FIGURE4_BLUEHOST_SHARE: f64 = 0.796;
/// The bluehost-style record's lookup count.
pub const FIGURE4_BLUEHOST_LOOKUPS: usize = 14;

/// Table 2: per-class (before, after) counts.
pub const TABLE2: [(&str, u64, u64); 6] = [
    ("Syntax Error", 38_296, 36_103),
    ("Too Many DNS Lookups", 49_421, 48_630),
    ("Too Many Void DNS Lookups", 5_308, 5_127),
    ("Redirect Loop", 58, 56),
    ("Include Loop", 19_356, 18_617),
    ("Invalid IP address", 7_882, 7_498),
];
/// Table 2 totals (including the unlisted record-not-found class).
pub const TABLE2_TOTAL: (u64, u64) = (211_018, 204_087);
/// §5.4: notifications sent.
pub const NOTIFICATIONS_SENT: u64 = 111_951;
/// Table 3: (prefix, direct-mechanism count, include count).
pub const TABLE3: [(u8, u64, u64); 17] = [
    (0, 54, 0),
    (1, 29, 2),
    (2, 47, 10),
    (3, 16, 7),
    (4, 7, 3),
    (5, 6, 0),
    (6, 4, 0),
    (7, 4, 0),
    (8, 2_162, 110),
    (9, 23, 3),
    (10, 131, 27),
    (11, 44, 50),
    (12, 313, 137),
    (13, 228, 210),
    (14, 1_178, 5_419),
    (15, 1_145, 5_389),
    (16, 11_126, 14_243),
];

/// §6.1: share of SPF domains allowing >100,000 addresses.
pub const LAX_RATE: f64 = 0.347;
/// §6.1: share with fewer than 20 allowed hosts ("one out of three").
pub const TIGHT_RATE: f64 = 1.0 / 3.0;
/// §6.2: domains lax through direct mechanisms.
pub const LAX_VIA_DIRECT: u64 = 9_994;
/// §6.3: domains lax through includes.
pub const LAX_VIA_INCLUDE: u64 = 2_507_097;
/// §6.3: share of SPF domains using include.
pub const INCLUDE_USAGE_RATE: f64 = 0.670;

/// Table 4 rows: (include, used-by, allowed-ips).
pub const TABLE4: [(&str, u64, u64); 20] = [
    ("spf.protection.outlook.com", 2_456_916, 491_520),
    ("_spf.google.com", 1_418_705, 328_960),
    ("websitewelcome.com", 414_695, 1_088_784),
    ("secureserver.net", 374_986, 505_104),
    ("relay.mailchannels.net", 289_112, 4_358),
    ("servers.mcsv.net", 263_343, 22_528),
    ("spf.mandrillapp.com", 236_293, 4_608),
    ("sendgrid.net", 215_497, 220_672),
    ("_spf.mailspamprotection.com", 212_418, 1_049),
    ("spf.efwd.registrar-servers.com", 196_465, 264),
    ("amazonses.com", 183_184, 64_512),
    ("mx.ovh.com", 176_191, 2),
    ("mailgun.org", 172_499, 36_312),
    ("_spf.mail.hostinger.com", 139_423, 4_358),
    ("zoho.com", 138_227, 6_209),
    ("mail.zendesk.com", 114_026, 26_112),
    ("spf.mailjet.com", 111_760, 5_120),
    ("spf.web-hosting.com", 111_405, 10_492),
    ("spf.sendinblue.com", 102_004, 87_040),
    ("spf.sender.xserver.jp", 92_411, 15),
];

/// Table 5 rows: (provider, success-label, domains, allowed-ips).
pub const TABLE5: [(usize, &str, u64, u64); 5] = [
    (1, "MTA", 24_959, 177_168),
    (2, "SMTP, MTA", 713, 514),
    (3, "MTA", 264, 2_052),
    (4, "SMTP", 159, 3_074),
    (5, "None", 0, 672),
];
/// Total spoofable domains in the case study.
pub const TABLE5_TOTAL_SPOOFABLE: u64 = 26_095;

/// Figure 6: top-level include count histogram (0..=10, then >10).
pub const FIGURE6: [u64; 12] = [
    2_395_029, 3_598_864, 765_073, 286_108, 118_405, 53_526, 22_618, 8_240, 2_744, 784, 195, 150,
];

/// §5.5 curiosities.
pub const PERMISSIVE_ALL: u64 = 427_767;
/// Domains using the deprecated `ptr` mechanism.
pub const PTR_MECHANISM: u64 = 233_167;
/// Domains publishing the deprecated type-99 SPF RR.
pub const DEPRECATED_SPF_RR: u64 = 107_646;
/// Domains using the RFC 6652 reporting modifiers.
pub const REPORTING_MODIFIERS: u64 = 14;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_sums_to_total_errors() {
        let sum: u64 = FIGURE2.iter().map(|(_, c)| *c).sum();
        assert_eq!(sum, TOTAL_ERRORS);
    }

    #[test]
    fn figure3_sums_to_record_not_found() {
        let sum: u64 = FIGURE3.iter().map(|(_, c)| *c).sum();
        let not_found = FIGURE2
            .iter()
            .find(|(l, _)| *l == "Record not found")
            .unwrap()
            .1;
        assert_eq!(sum, not_found);
    }

    #[test]
    fn figure6_sums_to_spf_total() {
        let sum: u64 = FIGURE6.iter().sum();
        assert_eq!(sum, FIGURE1_COUNTS.2);
    }

    #[test]
    fn table2_change_rates_match_section_5_4() {
        // Syntax errors improved by 5.73 %.
        let (_, before, after) = TABLE2[0];
        let change = 1.0 - after as f64 / before as f64;
        assert!((change - 0.0573).abs() < 0.0005);
        // Total improvement is 3.28 % (6,931 entries).
        let (before, after) = TABLE2_TOTAL;
        assert_eq!(before - after, 6_931);
        assert!((1.0 - after as f64 / before as f64 - 0.0328).abs() < 0.0005);
    }

    #[test]
    fn lax_counts_match_lax_rate() {
        // 9,994 direct + 2,507,097 include ≈ 34.7 % of SPF domains.
        let lax = LAX_VIA_DIRECT + LAX_VIA_INCLUDE;
        let rate = lax as f64 / FIGURE1_COUNTS.2 as f64;
        assert!((rate - LAX_RATE).abs() < 0.001);
    }

    #[test]
    fn include_usage_matches_figure6() {
        let with_includes: u64 = FIGURE6.iter().skip(1).sum();
        let rate = with_includes as f64 / FIGURE1_COUNTS.2 as f64;
        assert!((rate - INCLUDE_USAGE_RATE).abs() < 0.001);
    }
}
