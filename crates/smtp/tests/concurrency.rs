//! The receiving MTA under concurrent load: parallel spoofing attempts
//! (like the case study's per-provider probes) must not interleave
//! sessions or corrupt verdicts.

use std::sync::Arc;

use spf_dns::{ZoneResolver, ZoneStore};
use spf_smtp::{MtaConfig, SmtpClient, SmtpServer, SpfEnforcement};
use spf_testkit::dom;

#[test]
fn parallel_sessions_keep_their_own_verdicts() {
    let store = Arc::new(ZoneStore::new());
    // Ten victim domains, each authorizing its own distinct /32.
    for i in 0..10u8 {
        let d = dom(&format!("victim{i}.example"));
        store.add_txt(&d, &format!("v=spf1 ip4:198.51.100.{i} -all"));
    }
    let server = SmtpServer::spawn(
        Arc::new(ZoneResolver::new(Arc::clone(&store))),
        MtaConfig {
            enforcement: SpfEnforcement::MarkOnly,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        for i in 0..10u8 {
            scope.spawn(move || {
                let mut client = SmtpClient::connect(addr).unwrap();
                client.ehlo("sender.example").unwrap();
                // Even sessions use the matching IP (pass), odd ones a
                // mismatched IP (fail).
                let ip = if i % 2 == 0 {
                    format!("198.51.100.{i}")
                } else {
                    format!("203.0.113.{i}")
                };
                client.xclient(ip.parse().unwrap()).unwrap();
                let reply = client.mail_from(&format!("ceo@victim{i}.example")).unwrap();
                let expected = if i % 2 == 0 { "spf=pass" } else { "spf=fail" };
                assert!(reply.text.contains(expected), "session {i}: {reply}");
                client.rcpt_to("inbox@receiver.example").unwrap();
                client.data(&format!("marker-{i}")).unwrap();
                client.quit().unwrap();
            });
        }
    });

    let msgs = server.received();
    assert_eq!(msgs.len(), 10);
    for msg in &msgs {
        // Every stored message's verdict matches its own envelope.
        let i: u8 = msg.mail_from["ceo@victim".len()..]
            .split('.')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let expected = if i.is_multiple_of(2) { "pass" } else { "fail" };
        assert_eq!(msg.spf_result.to_string(), expected, "message {i}");
        assert!(msg.body.contains(&format!("marker-{i}")));
    }
}

#[test]
fn session_survives_rset_and_reuse() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("v.example"), "v=spf1 ip4:192.0.2.1 -all");
    let server = SmtpServer::spawn(
        Arc::new(ZoneResolver::new(Arc::clone(&store))),
        MtaConfig::default(),
    )
    .unwrap();
    let mut client = SmtpClient::connect(server.addr()).unwrap();
    client.ehlo("h.example").unwrap();
    client.xclient("192.0.2.1".parse().unwrap()).unwrap();
    // First transaction, then RSET, then a second one on the same socket.
    client.mail_from("a@v.example").unwrap();
    client.rcpt_to("x@r.example").unwrap();
    let rset_code = {
        // RSET via a NOOP-like path: reuse mail_from after reset.
        let mut c2 = client;
        let reply = c2.data("first message").unwrap();
        assert!(reply.is_positive());
        c2.mail_from("b@v.example").unwrap();
        c2.rcpt_to("y@r.example").unwrap();
        c2.data("second message").unwrap().code
    };
    assert_eq!(rset_code, 250);
    let msgs = server.received();
    assert_eq!(msgs.len(), 2);
    assert_eq!(msgs[0].mail_from, "a@v.example");
    assert_eq!(msgs[1].mail_from, "b@v.example");
}
