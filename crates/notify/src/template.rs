//! Notification email generation (§5.4).
//!
//! The campaign followed a fixed template: self-introduction, the list of
//! identified problems for the domain "along with examples and
//! recommendations on how to fix them". Recipients are the RFC 2142 role
//! addresses (`postmaster@`, `security@`) plus the security.txt contact
//! when available.

use serde::{Deserialize, Serialize};
use spf_analyzer::{recommend, DomainReport, Severity};
use spf_types::DomainName;

/// A rendered notification email.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotificationEmail {
    /// The misconfigured domain.
    pub domain: DomainName,
    /// Recipient addresses (RFC 2142 + optional security.txt contact).
    pub recipients: Vec<String>,
    /// Subject line.
    pub subject: String,
    /// Plain-text body.
    pub body: String,
    /// Number of problems listed.
    pub problem_count: usize,
}

/// Build the recipient list for a domain (RFC 2142 §4 mailbox names).
fn recipients_for(domain: &DomainName, security_txt_contact: Option<&str>) -> Vec<String> {
    let mut out = vec![format!("postmaster@{domain}"), format!("security@{domain}")];
    if let Some(contact) = security_txt_contact {
        out.push(contact.to_string());
    }
    out
}

/// Render the notification for one erroneous domain, or `None` when the
/// report carries nothing actionable.
pub fn render(
    report: &DomainReport,
    security_txt_contact: Option<&str>,
) -> Option<NotificationEmail> {
    let recommendations = recommend(report);
    let problems: Vec<_> = recommendations
        .iter()
        .filter(|r| r.severity >= Severity::Warning)
        .collect();
    if problems.is_empty() {
        return None;
    }
    let domain = report.domain.clone();
    let mut body = String::new();
    body.push_str(
        "Hello,\n\n\
         we are researchers studying the configuration of the Sender Policy\n\
         Framework (SPF) across the Internet. While scanning publicly available\n\
         DNS records we found problems in the SPF configuration of your domain\n",
    );
    body.push_str(&format!("{domain}:\n\n"));
    if let Some(record) = report.record.as_ref().and_then(|r| r.record_text.as_ref()) {
        body.push_str(&format!("    current record: {record}\n\n"));
    }
    for (i, problem) in problems.iter().enumerate() {
        body.push_str(&format!(
            "  {}. [{}] {}\n",
            i + 1,
            problem.severity,
            problem.message
        ));
    }
    body.push_str(
        "\nThese issues weaken the protection SPF offers against sender\n\
         spoofing. We would be happy to answer questions; if you prefer not\n\
         to receive such reports, reply and we will opt you out.\n\n\
         Kind regards,\nthe SPF measurement team\n",
    );
    Some(NotificationEmail {
        recipients: recipients_for(&domain, security_txt_contact),
        subject: format!("SPF misconfiguration on {domain}"),
        domain,
        problem_count: problems.len(),
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_analyzer::{analyze_domain, Walker};
    use spf_dns::{ZoneResolver, ZoneStore};
    use std::sync::Arc;

    fn report_for(record: &str) -> DomainReport {
        let store = Arc::new(ZoneStore::new());
        let d = DomainName::parse("broken.example").unwrap();
        store.add_txt(&d, record);
        let walker = Walker::new(ZoneResolver::new(store));
        analyze_domain(&walker, &d)
    }

    #[test]
    fn renders_problem_list() {
        let email = render(&report_for("v=spf1 ipv4:1.2.3.4 ptr"), None).unwrap();
        assert_eq!(email.domain.as_str(), "broken.example");
        assert!(email.subject.contains("broken.example"));
        assert!(email.body.contains("ipv4"));
        assert!(email.problem_count >= 2); // syntax + permissive-all (+ptr)
        assert_eq!(
            email.recipients,
            vec![
                "postmaster@broken.example".to_string(),
                "security@broken.example".to_string()
            ]
        );
    }

    #[test]
    fn includes_security_txt_contact() {
        let email = render(
            &report_for("v=spf1 ipv4:1.2.3.4 -all"),
            Some("mailto:sec@corp.example"),
        )
        .unwrap();
        assert_eq!(email.recipients.len(), 3);
        assert_eq!(email.recipients[2], "mailto:sec@corp.example");
    }

    #[test]
    fn clean_domain_gets_no_email() {
        // A deny-all record is fully valid even without an MX.
        assert!(render(&report_for("v=spf1 -all"), None).is_none());
    }

    #[test]
    fn body_quotes_current_record() {
        let email = render(&report_for("v=spf1 ip4:1.2.3 -all"), None).unwrap();
        assert!(email.body.contains("current record: v=spf1 ip4:1.2.3 -all"));
    }
}
