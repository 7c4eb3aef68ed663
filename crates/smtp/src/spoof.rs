//! The Section 6.4 spoofing harness: reproduce Table 5 end-to-end.
//!
//! For each hosting provider the harness plays the attacker who rented
//! web space and tries both delivery paths the paper used:
//!
//! 1. **Direct SMTP** — open a TCP connection to the victim's receiving
//!    MTA straight from the shared web space (simulated source address =
//!    the provider's web IP). Blocked when the provider filters outbound
//!    port 25 (§7.2).
//! 2. **Provider MTA** — hand the message to the provider's local MTA
//!    (PHP `mail()`), which relays it from the MTA's own address. Blocked
//!    when the MTA authenticates senders against the claimed domain.
//!
//! Every attempt is a *real TCP session* against an [`SmtpServer`] whose
//! SPF gate runs `check_host()`; a spoof succeeds iff the gate computes
//! `pass` for the spoofed domain and accepts the message.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spf_core::StopLayer;
use spf_dns::Resolver;
use spf_netsim::{HostingProvider, HostingWorld};

use crate::client::SmtpClient;
use crate::server::{MtaConfig, SmtpServer};

/// Outcome labels matching Table 5's "Success" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpoofSuccess {
    /// Both delivery paths worked.
    SmtpAndMta,
    /// Only the provider-MTA path worked.
    MtaOnly,
    /// Only the direct SMTP path worked.
    SmtpOnly,
    /// Neither worked.
    None,
}

impl SpoofSuccess {
    /// The Table 5 label for a pair of delivery-path outcomes: direct
    /// SMTP from the web space, and relay through the provider MTA. A
    /// path is open when it produced an SPF-passing spoof. The live case
    /// study and the spoofability-matrix replay both label providers
    /// through this one constructor.
    pub fn from_paths(smtp_ok: bool, mta_ok: bool) -> SpoofSuccess {
        match (smtp_ok, mta_ok) {
            (true, true) => SpoofSuccess::SmtpAndMta,
            (false, true) => SpoofSuccess::MtaOnly,
            (true, false) => SpoofSuccess::SmtpOnly,
            (false, false) => SpoofSuccess::None,
        }
    }

    /// True when at least one delivery path produced an SPF-passing
    /// spoof.
    pub fn any(self) -> bool {
        self != SpoofSuccess::None
    }
}

impl std::fmt::Display for SpoofSuccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SpoofSuccess::SmtpAndMta => "SMTP, MTA",
            SpoofSuccess::MtaOnly => "MTA",
            SpoofSuccess::SmtpOnly => "SMTP",
            SpoofSuccess::None => "None",
        };
        f.write_str(s)
    }
}

/// One Table 5 row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseStudyRow {
    /// Provider number (1–5).
    pub provider: usize,
    /// Which delivery paths produced an SPF-passing spoof.
    pub success: SpoofSuccess,
    /// Number of spoofable domains (0 when `success` is `None`).
    pub domains: u64,
    /// Addresses the provider's recommended record authorizes.
    pub allowed_ips: u64,
}

/// Run the full case study against a receiving MTA backed by `resolver`.
///
/// The resolver must serve the hosting world's zone data (customer
/// records and provider includes).
pub fn run_case_study<R: Resolver + 'static>(
    world: &HostingWorld,
    resolver: Arc<R>,
) -> std::io::Result<Vec<CaseStudyRow>> {
    let server = SmtpServer::spawn(resolver, MtaConfig::default())?;
    let mut rows = Vec::with_capacity(world.providers.len());
    for provider in &world.providers {
        let victim = provider
            .customers
            .first()
            .expect("providers have customers");
        let smtp_stop = if provider.blocks_port25 {
            // The web space cannot reach port 25 at all.
            None
        } else {
            Some(attempt(
                server.addr(),
                provider,
                victim.as_str(),
                provider.web_ip.into(),
            )?)
        };
        let mta_stop = if provider.mta_requires_auth {
            // The MTA refuses to relay for domains the account does not own.
            None
        } else {
            Some(attempt(
                server.addr(),
                provider,
                victim.as_str(),
                provider.mta_ip.into(),
            )?)
        };
        // A path counts as open only when it was available (not `None`:
        // port 25 filtered, MTA sender auth) and no auth layer stopped it.
        let success = SpoofSuccess::from_paths(
            smtp_stop == Some(StopLayer::None),
            mta_stop == Some(StopLayer::None),
        );
        let domains = if success.any() {
            provider.customers.len() as u64
        } else {
            0
        };
        rows.push(CaseStudyRow {
            provider: provider.id,
            success,
            domains,
            allowed_ips: provider.allowed_ips,
        });
    }
    Ok(rows)
}

/// One spoofed delivery attempt from `source_ip` claiming
/// `spoofed_domain`, reporting which auth layer stopped it:
///
/// * rejected at `MAIL FROM` → [`StopLayer::Spf`];
/// * rejected at end-of-data by the From domain's enforced DMARC policy
///   → [`StopLayer::Dmarc`];
/// * delivered with an SPF `pass` → [`StopLayer::None`] (a successful
///   spoof);
/// * delivered *without* a pass (a tolerated `neutral`/`softfail`) —
///   the spoof does not count in Table 5's terms because SPF denied
///   the authorization, so it is attributed to [`StopLayer::Spf`].
///
/// The message carries a `From:` header aligned with the spoofed
/// envelope (the aligned-attacker model of DESIGN.md §13), so the
/// receiver's DMARC gate evaluates the same identifier pair the matrix
/// engine models.
fn attempt(
    server: std::net::SocketAddr,
    provider: &HostingProvider,
    spoofed_domain: &str,
    source_ip: std::net::IpAddr,
) -> std::io::Result<StopLayer> {
    let run = || -> Result<StopLayer, crate::client::ClientError> {
        let mut client = SmtpClient::connect(server)?;
        client.ehlo(&format!("web.hosting{}.example", provider.id))?;
        client.xclient(source_ip)?;
        let reply = client.mail_from(&format!("ceo@{spoofed_domain}"))?;
        if !reply.is_positive() {
            let _ = client.quit();
            return Ok(StopLayer::Spf);
        }
        // The spoof only counts when it passes SPF, not merely when the
        // server tolerates a neutral result.
        let passed = reply.text.contains("spf=pass");
        client.rcpt_to("victim@receiver.example")?;
        let data = client.data(&format!(
            "From: CEO <ceo@{spoofed_domain}>\nSubject: urgent wire transfer\n\nplease"
        ))?;
        let _ = client.quit();
        if !data.is_positive() {
            return Ok(if data.text.contains("DMARC") {
                StopLayer::Dmarc
            } else {
                StopLayer::Spf
            });
        }
        Ok(if passed {
            StopLayer::None
        } else {
            StopLayer::Spf
        })
    };
    run().map_err(|e| std::io::Error::other(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::ZoneResolver;
    use spf_netsim::{build_hosting, Scale};

    #[test]
    fn table5_shape_reproduced() {
        let world = build_hosting(Scale { denominator: 100 });
        let resolver = Arc::new(ZoneResolver::new(Arc::clone(&world.store)));
        let rows = run_case_study(&world, resolver).unwrap();
        assert_eq!(rows.len(), 5);
        // Table 5: provider 1 MTA, 2 SMTP+MTA, 3 MTA, 4 SMTP, 5 None.
        assert_eq!(rows[0].success, SpoofSuccess::MtaOnly);
        assert_eq!(rows[1].success, SpoofSuccess::SmtpAndMta);
        assert_eq!(rows[2].success, SpoofSuccess::MtaOnly);
        assert_eq!(rows[3].success, SpoofSuccess::SmtpOnly);
        assert_eq!(rows[4].success, SpoofSuccess::None);
        assert_eq!(rows[4].domains, 0);
        // 4 of 5 providers enable spoofing.
        let exploitable = rows
            .iter()
            .filter(|r| r.success != SpoofSuccess::None)
            .count();
        assert_eq!(exploitable, 4);
        // Allowed-IP column matches Table 5 exactly.
        let allowed: Vec<u64> = rows.iter().map(|r| r.allowed_ips).collect();
        assert_eq!(allowed, vec![177_168, 514, 2_052, 3_074, 672]);
        // Spoofable domain counts scale with the provider customer bases.
        assert_eq!(rows[0].domains, 250); // 24,959 / 100
        assert!(rows.iter().map(|r| r.domains).sum::<u64>() >= 250);
    }
}
