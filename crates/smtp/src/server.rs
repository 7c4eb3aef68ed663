//! A receiving MTA with an SPF gate at `MAIL FROM` and a DMARC gate at
//! `DATA`.
//!
//! This is the "our site" end of the case study: the paper sent spoofed
//! mails to themselves and "examined how the emails are received on our
//! site and whether they pass the SPF checks". The server runs real
//! `check_host()` against its resolver for every `MAIL FROM`, stamps the
//! result into the stored message (Received-SPF style) and — depending on
//! policy — rejects on `fail`. On top of the SPF gate, the layered
//! pipeline (DESIGN.md §13) checks DMARC at end-of-data: the `From:`
//! header domain is aligned against the envelope sender under relaxed
//! (organizational-domain) alignment, DMARC passes only for an aligned
//! SPF `pass`, and an enforced policy (`quarantine`/`reject`) on the
//! From domain rejects failing mail.

use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use spf_core::{
    check_host, organizational_domain, query_dmarc, received_spf_header, DmarcDisposition,
    EvalContext, EvalPolicy, SpfResult,
};
use spf_dns::{serve_connections, Resolver};
use spf_types::DomainName;

use crate::codec::{Command, Reply};

/// How the gate treats each SPF outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpfEnforcement {
    /// Reject `fail` at MAIL FROM (550); accept everything else.
    RejectFail,
    /// Accept everything, only annotate the result (monitoring mode).
    MarkOnly,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct MtaConfig {
    /// The server's own hostname (used in the banner and `%{r}`).
    pub hostname: String,
    /// SPF enforcement policy.
    pub enforcement: SpfEnforcement,
    /// Honour the From-header domain's enforced DMARC policy at
    /// end-of-data (reject failing mail under `p=quarantine`/`reject`).
    /// When `false` the DMARC verdict is only annotated.
    pub enforce_dmarc: bool,
    /// Honour `XCLIENT ADDR=` from connecting clients. The spoofing
    /// harness needs this to carry the simulated source address across a
    /// loopback socket; production servers only enable it for trusted
    /// proxies.
    pub trust_xclient: bool,
}

impl Default for MtaConfig {
    fn default() -> Self {
        MtaConfig {
            hostname: "mx.receiver.example".into(),
            enforcement: SpfEnforcement::RejectFail,
            enforce_dmarc: true,
            trust_xclient: true,
        }
    }
}

/// The receiver's DMARC verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmarcResult {
    /// An aligned identifier authenticated (here: SPF `pass` with the
    /// `From:` domain org-aligned to the envelope sender).
    Pass,
    /// The From domain publishes a usable DMARC record and no aligned
    /// identifier authenticated.
    Fail,
    /// No usable DMARC record on the From domain (or no From domain).
    None,
}

impl std::fmt::Display for DmarcResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DmarcResult::Pass => "pass",
            DmarcResult::Fail => "fail",
            DmarcResult::None => "none",
        };
        f.write_str(s)
    }
}

/// A message the server accepted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceivedMessage {
    /// Envelope sender.
    pub mail_from: String,
    /// Envelope recipients.
    pub rcpt_to: Vec<String>,
    /// Message body.
    pub body: String,
    /// The (possibly XCLIENT-declared) client address.
    pub client_ip: IpAddr,
    /// The SPF verdict computed at MAIL FROM.
    pub spf_result: SpfResult,
    /// The `From:` header domain the DMARC check evaluated (absent when
    /// the message carries no parsable From header).
    pub from_domain: Option<String>,
    /// The DMARC verdict computed at end-of-data.
    pub dmarc_result: DmarcResult,
}

/// A running receiving MTA.
pub struct SmtpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    received: Arc<Mutex<Vec<ReceivedMessage>>>,
}

impl SmtpServer {
    /// Bind to 127.0.0.1 on an ephemeral port and serve connections, using
    /// `resolver` for SPF checks.
    pub fn spawn<R: Resolver + 'static>(
        resolver: Arc<R>,
        config: MtaConfig,
    ) -> std::io::Result<SmtpServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let received = Arc::new(Mutex::new(Vec::new()));
        let t_shutdown = Arc::clone(&shutdown);
        let t_received = Arc::clone(&received);
        let session = move |stream, peer| {
            let _ = serve_session(stream, peer, resolver, config, t_received);
        };
        let handle = std::thread::Builder::new()
            .name("smtp-server".into())
            .spawn(move || serve_connections(listener, &t_shutdown, "smtp-session", session))?;
        Ok(SmtpServer {
            addr,
            shutdown,
            handle: Some(handle),
            received,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Messages accepted so far. A poisoned lock is recovered, as
    /// `spf_types::ShardedCache` recovers its stripes: the only write is
    /// one `push` of a whole message.
    pub fn received(&self) -> Vec<ReceivedMessage> {
        self.received
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Drop for SmtpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct SessionState {
    client_ip: IpAddr,
    helo: Option<String>,
    mail_from: Option<String>,
    mail_from_domain: Option<DomainName>,
    spf_result: Option<SpfResult>,
    spf_header: Option<String>,
    rcpt_to: Vec<String>,
}

/// Extract the domain of the first `From:` header in `body` (the
/// RFC 5322 identifier DMARC aligns). Handles `Name <a@b>` and bare
/// `a@b` shapes; header scanning stops at the first empty line.
fn from_header_domain(body: &str) -> Option<DomainName> {
    for line in body.lines() {
        if line.is_empty() {
            break;
        }
        let Some(value) = line
            .get(..5)
            .filter(|p| p.eq_ignore_ascii_case("from:"))
            .map(|_| line[5..].trim())
        else {
            continue;
        };
        let addr = match (value.find('<'), value.find('>')) {
            (Some(open), Some(close)) if open < close => &value[open + 1..close],
            _ => value,
        };
        return addr
            .rsplit_once('@')
            .and_then(|(_, domain)| DomainName::parse(domain).ok());
    }
    None
}

/// The receiver-side DMARC check (DESIGN.md §13): relaxed alignment of
/// the From domain against the envelope sender, SPF `pass` as the only
/// authenticating mechanism (the replay world has no DKIM), enforced
/// dispositions rejecting failures.
fn dmarc_verdict<R: Resolver>(
    resolver: &R,
    spf: SpfResult,
    mail_from_domain: Option<&DomainName>,
    from_domain: &DomainName,
) -> (DmarcResult, DmarcDisposition) {
    let disposition = DmarcDisposition::from_lookup(&query_dmarc(resolver, from_domain));
    if !disposition.is_usable() {
        return (DmarcResult::None, disposition);
    }
    let aligned = mail_from_domain
        .is_some_and(|mf| organizational_domain(mf) == organizational_domain(from_domain));
    let result = if aligned && spf == SpfResult::Pass {
        DmarcResult::Pass
    } else {
        DmarcResult::Fail
    };
    (result, disposition)
}

fn serve_session<R: Resolver>(
    stream: TcpStream,
    peer: SocketAddr,
    resolver: Arc<R>,
    config: MtaConfig,
    received: Arc<Mutex<Vec<ReceivedMessage>>>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let send = |w: &mut TcpStream, reply: Reply| -> std::io::Result<()> {
        write!(w, "{reply}\r\n")?;
        w.flush()
    };
    send(
        &mut writer,
        Reply::new(220, format!("{} ESMTP", config.hostname)),
    )?;

    let mut state = SessionState {
        client_ip: peer.ip(),
        helo: None,
        mail_from: None,
        mail_from_domain: None,
        spf_result: None,
        spf_header: None,
        rcpt_to: Vec::new(),
    };

    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        match Command::parse(&line) {
            Command::Helo { domain } | Command::Ehlo { domain } => {
                state.helo = Some(domain);
                send(&mut writer, Reply::new(250, config.hostname.clone()))?;
            }
            Command::XClient { addr } => {
                if config.trust_xclient {
                    state.client_ip = addr;
                    send(&mut writer, Reply::new(220, "XCLIENT accepted"))?;
                } else {
                    send(&mut writer, Reply::new(550, "XCLIENT not trusted"))?;
                }
            }
            cmd @ Command::MailFrom { .. } => {
                let Command::MailFrom { path } = &cmd else {
                    unreachable!()
                };
                let (verdict, header, sender_domain) = match cmd.sender_parts() {
                    Some((local, domain)) => {
                        let helo = state
                            .helo
                            .as_deref()
                            .and_then(|h| DomainName::parse(h).ok())
                            .unwrap_or_else(|| domain.clone());
                        let ctx = EvalContext {
                            ip: state.client_ip,
                            sender_local: local,
                            sender_domain: domain.clone(),
                            helo,
                            receiver: DomainName::parse(&config.hostname).ok(),
                        };
                        let eval =
                            check_host(resolver.as_ref(), &ctx, &domain, &EvalPolicy::default());
                        let header = received_spf_header(&eval, &ctx);
                        (eval.result, Some(header), Some(domain))
                    }
                    // Null sender / unparsable domain → none.
                    None => (SpfResult::None, None, None),
                };
                if verdict == SpfResult::Fail && config.enforcement == SpfEnforcement::RejectFail {
                    send(
                        &mut writer,
                        Reply::new(550, format!("5.7.23 SPF check failed ({verdict})")),
                    )?;
                    continue;
                }
                state.mail_from = Some(path.clone());
                state.mail_from_domain = sender_domain;
                state.spf_result = Some(verdict);
                state.spf_header = header;
                state.rcpt_to.clear();
                send(&mut writer, Reply::new(250, format!("OK spf={verdict}")))?;
            }
            Command::RcptTo { path } => {
                if state.mail_from.is_none() {
                    send(&mut writer, Reply::new(503, "need MAIL first"))?;
                } else {
                    state.rcpt_to.push(path);
                    send(&mut writer, Reply::new(250, "OK"))?;
                }
            }
            Command::Data => {
                if state.rcpt_to.is_empty() {
                    send(&mut writer, Reply::new(503, "need RCPT first"))?;
                    continue;
                }
                send(&mut writer, Reply::new(354, "end with <CRLF>.<CRLF>"))?;
                let mut body = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 {
                        return Ok(());
                    }
                    let stripped = line.trim_end_matches(['\r', '\n']);
                    if stripped == "." {
                        break;
                    }
                    // Dot-unstuffing (RFC 5321 §4.5.2).
                    body.push_str(stripped.strip_prefix('.').unwrap_or(stripped));
                    body.push('\n');
                }
                // The DMARC gate: evaluated against the From header at
                // end-of-data, where real receivers apply it.
                let spf_result = state.spf_result.unwrap_or(SpfResult::None);
                let from_domain = from_header_domain(&body);
                let (dmarc_result, disposition) = match &from_domain {
                    Some(fd) => dmarc_verdict(
                        resolver.as_ref(),
                        spf_result,
                        state.mail_from_domain.as_ref(),
                        fd,
                    ),
                    None => (DmarcResult::None, DmarcDisposition::Absent),
                };
                if config.enforce_dmarc
                    && dmarc_result == DmarcResult::Fail
                    && disposition.is_enforced()
                {
                    send(
                        &mut writer,
                        Reply::new(550, "5.7.1 rejected by DMARC policy".to_string()),
                    )?;
                    state.mail_from = None;
                    state.mail_from_domain = None;
                    state.rcpt_to.clear();
                    continue;
                }
                // Prepend the Received-SPF header the way an MTA stamps
                // accepted mail (RFC 7208 §9.1), then the combined
                // Authentication-Results line (RFC 8601).
                let auth_results = format!(
                    "Authentication-Results: {}; spf={}; dmarc={}{}",
                    config.hostname,
                    spf_result,
                    dmarc_result,
                    from_domain
                        .as_ref()
                        .map(|d| format!(" header.from={}", d.as_str()))
                        .unwrap_or_default(),
                );
                let mut stored_body = String::new();
                if let Some(h) = &state.spf_header {
                    stored_body.push_str(h);
                    stored_body.push('\n');
                }
                stored_body.push_str(&auth_results);
                stored_body.push('\n');
                stored_body.push_str(&body);
                received
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(ReceivedMessage {
                        mail_from: state.mail_from.clone().unwrap_or_default(),
                        rcpt_to: state.rcpt_to.clone(),
                        body: stored_body,
                        client_ip: state.client_ip,
                        spf_result,
                        from_domain: from_domain.map(|d| d.as_str().to_string()),
                        dmarc_result,
                    });
                state.mail_from = None;
                state.mail_from_domain = None;
                state.rcpt_to.clear();
                send(&mut writer, Reply::new(250, "OK message accepted"))?;
            }
            Command::Rset => {
                state.mail_from = None;
                state.mail_from_domain = None;
                state.spf_result = None;
                state.rcpt_to.clear();
                send(&mut writer, Reply::new(250, "OK"))?;
            }
            Command::Noop => send(&mut writer, Reply::new(250, "OK"))?,
            Command::Quit => {
                send(&mut writer, Reply::new(221, "bye"))?;
                return Ok(());
            }
            Command::Unknown { .. } => {
                send(&mut writer, Reply::new(500, "command unrecognized"))?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SmtpClient;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::net::Ipv4Addr;

    fn world() -> Arc<ZoneStore> {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("good.example"), "v=spf1 ip4:198.51.100.7 -all");
        store
    }

    fn server(store: &Arc<ZoneStore>) -> SmtpServer {
        SmtpServer::spawn(
            Arc::new(ZoneResolver::new(Arc::clone(store))),
            MtaConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn accepts_mail_from_authorized_ip() {
        let store = world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("webhost.example").unwrap();
        client
            .xclient(Ipv4Addr::new(198, 51, 100, 7).into())
            .unwrap();
        let reply = client.mail_from("ceo@good.example").unwrap();
        assert!(reply.is_positive(), "{reply}");
        assert!(reply.text.contains("spf=pass"));
        client.rcpt_to("victim@receiver.example").unwrap();
        client.data("Subject: hi\n\nhello").unwrap();
        client.quit().unwrap();
        let msgs = server.received();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].spf_result, SpfResult::Pass);
        assert_eq!(msgs[0].mail_from, "ceo@good.example");
        assert_eq!(
            msgs[0].client_ip,
            IpAddr::from(Ipv4Addr::new(198, 51, 100, 7))
        );
    }

    #[test]
    fn rejects_mail_from_unauthorized_ip() {
        let store = world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("attacker.example").unwrap();
        client
            .xclient(Ipv4Addr::new(203, 0, 113, 99).into())
            .unwrap();
        let reply = client.mail_from("ceo@good.example").unwrap();
        assert_eq!(reply.code, 550);
        assert!(server.received().is_empty());
    }

    #[test]
    fn mark_only_mode_accepts_failures() {
        let store = world();
        let server = SmtpServer::spawn(
            Arc::new(ZoneResolver::new(Arc::clone(&store))),
            MtaConfig {
                enforcement: SpfEnforcement::MarkOnly,
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("attacker.example").unwrap();
        client
            .xclient(Ipv4Addr::new(203, 0, 113, 99).into())
            .unwrap();
        let reply = client.mail_from("ceo@good.example").unwrap();
        assert!(reply.is_positive());
        assert!(reply.text.contains("spf=fail"));
        client.rcpt_to("victim@receiver.example").unwrap();
        client.data("spoofed").unwrap();
        assert_eq!(server.received()[0].spf_result, SpfResult::Fail);
    }

    #[test]
    fn no_spf_record_yields_none() {
        let store = world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("host.example").unwrap();
        client
            .xclient(Ipv4Addr::new(203, 0, 113, 99).into())
            .unwrap();
        let reply = client.mail_from("user@nospf.example").unwrap();
        assert!(reply.is_positive());
        assert!(reply.text.contains("spf=none"));
    }

    #[test]
    fn rcpt_before_mail_rejected() {
        let store = world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("h.example").unwrap();
        let reply = client.rcpt_to("x@y.example").unwrap();
        assert_eq!(reply.code, 503);
    }

    #[test]
    fn dot_stuffed_body_round_trips() {
        let store = world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("h.example").unwrap();
        client
            .xclient(Ipv4Addr::new(198, 51, 100, 7).into())
            .unwrap();
        client.mail_from("ceo@good.example").unwrap();
        client.rcpt_to("v@r.example").unwrap();
        client.data("line one\n.leading dot\nlast").unwrap();
        let msgs = server.received();
        // The stored body carries the stamped Received-SPF header first,
        // then the combined Authentication-Results line.
        let (header, rest) = msgs[0].body.split_once('\n').unwrap();
        assert!(header.starts_with("Received-SPF: pass"));
        let (auth, body) = rest.split_once('\n').unwrap();
        assert!(auth.starts_with("Authentication-Results:"), "{auth}");
        assert!(auth.contains("spf=pass"));
        assert_eq!(body, "line one\n.leading dot\nlast\n");
    }

    fn dmarc_world() -> Arc<ZoneStore> {
        let store = world();
        // victim.example: permissive SPF (the lazy-gatekeeper shape) but
        // an enforced DMARC policy on top.
        store.add_txt(&dom("victim.example"), "v=spf1 ?all");
        store.add_txt(&dom("_dmarc.victim.example"), "v=DMARC1; p=reject");
        store.add_txt(&dom("_dmarc.good.example"), "v=DMARC1; p=reject");
        store
    }

    #[test]
    fn dmarc_gate_rejects_unaligned_spoof_at_data() {
        let store = dmarc_world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("attacker.example").unwrap();
        client
            .xclient(Ipv4Addr::new(203, 0, 113, 99).into())
            .unwrap();
        // The envelope claims the attacker's own (recordless) domain, so
        // SPF is `none` and the MAIL FROM gate lets it through…
        let reply = client.mail_from("ceo@attacker.example").unwrap();
        assert!(reply.is_positive());
        client.rcpt_to("victim@receiver.example").unwrap();
        // …but the From header spoofs the DMARC-enforced victim.
        let reply = client
            .data("From: CEO <ceo@victim.example>\nSubject: wire\n\npay up")
            .unwrap();
        assert_eq!(reply.code, 550, "{reply}");
        assert!(reply.text.contains("DMARC"));
        assert!(server.received().is_empty());
    }

    #[test]
    fn aligned_spf_pass_yields_dmarc_pass() {
        let store = dmarc_world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("webhost.example").unwrap();
        client
            .xclient(Ipv4Addr::new(198, 51, 100, 7).into())
            .unwrap();
        client.mail_from("ceo@good.example").unwrap();
        client.rcpt_to("victim@receiver.example").unwrap();
        let reply = client
            .data("From: ceo@good.example\nSubject: hi\n\nhello")
            .unwrap();
        assert!(reply.is_positive(), "{reply}");
        let msgs = server.received();
        assert_eq!(msgs[0].dmarc_result, DmarcResult::Pass);
        assert_eq!(msgs[0].from_domain.as_deref(), Some("good.example"));
        assert!(msgs[0].body.contains("dmarc=pass header.from=good.example"));
    }

    #[test]
    fn dmarc_mark_only_annotates_failures() {
        let store = dmarc_world();
        let server = SmtpServer::spawn(
            Arc::new(ZoneResolver::new(Arc::clone(&store))),
            MtaConfig {
                enforce_dmarc: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("attacker.example").unwrap();
        client
            .xclient(Ipv4Addr::new(203, 0, 113, 99).into())
            .unwrap();
        client.mail_from("ceo@attacker.example").unwrap();
        client.rcpt_to("victim@receiver.example").unwrap();
        let reply = client.data("From: ceo@victim.example\n\nspoofed").unwrap();
        assert!(reply.is_positive());
        let msgs = server.received();
        assert_eq!(msgs[0].dmarc_result, DmarcResult::Fail);
        assert!(msgs[0].body.contains("dmarc=fail"));
    }

    #[test]
    fn no_dmarc_record_yields_dmarc_none() {
        let store = world();
        let server = server(&store);
        let mut client = SmtpClient::connect(server.addr()).unwrap();
        client.ehlo("webhost.example").unwrap();
        client
            .xclient(Ipv4Addr::new(198, 51, 100, 7).into())
            .unwrap();
        client.mail_from("ceo@good.example").unwrap();
        client.rcpt_to("v@r.example").unwrap();
        client.data("From: ceo@good.example\n\nhi").unwrap();
        let msgs = server.received();
        assert_eq!(msgs[0].dmarc_result, DmarcResult::None);
    }

    #[test]
    fn from_header_domain_parses_both_shapes() {
        assert_eq!(
            from_header_domain("From: CEO <ceo@victim.example>\n\nbody"),
            Some(dom("victim.example"))
        );
        assert_eq!(
            from_header_domain("Subject: x\nfrom: ceo@victim.example\n\nbody"),
            Some(dom("victim.example"))
        );
        // Headers stop at the first empty line.
        assert_eq!(from_header_domain("Subject: x\n\nFrom: a@b.example"), None);
        assert_eq!(from_header_domain("no headers here"), None);
    }
}
