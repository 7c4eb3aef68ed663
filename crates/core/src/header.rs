//! The `Received-SPF` header (RFC 7208 §9.1) — how a receiving MTA records
//! the verdict in the message itself. The case-study MTA stamps this
//! header on accepted mail, matching what the authors would have seen in
//! their own inboxes when their spoofed messages arrived.

use std::fmt::Write as _;

use crate::context::{EvalContext, SpfResult};
use crate::eval::Evaluation;

/// Render the `Received-SPF:` header value for an evaluation.
///
/// Format per RFC 7208 §9.1: the result, an optional human comment, then
/// `key=value` pairs (`client-ip`, `envelope-from`, `helo`, `receiver`,
/// `mechanism`, `identity`).
///
/// ```
/// use spf_core::{check_host, received_spf_header, EvalContext, EvalPolicy};
/// use spf_dns::{ZoneResolver, ZoneStore};
/// use spf_types::DomainName;
/// use std::sync::Arc;
///
/// let store = Arc::new(ZoneStore::new());
/// let domain = DomainName::parse("example.com").unwrap();
/// store.add_txt(&domain, "v=spf1 ip4:192.0.2.1 -all");
/// let resolver = ZoneResolver::new(store);
/// let ctx = EvalContext::mail_from("192.0.2.1".parse().unwrap(), "alice", domain.clone());
/// let eval = check_host(&resolver, &ctx, &domain, &EvalPolicy::default());
/// let header = received_spf_header(&eval, &ctx);
/// assert!(header.starts_with("Received-SPF: pass"));
/// assert!(header.contains("client-ip=192.0.2.1"));
/// ```
pub fn received_spf_header(eval: &Evaluation, ctx: &EvalContext) -> String {
    let mut out = String::with_capacity(160);
    let _ = write!(out, "Received-SPF: {}", eval.result);

    // Human-readable comment.
    let receiver = ctx
        .receiver
        .as_ref()
        .map(|d| d.to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let comment = match eval.result {
        SpfResult::Pass => format!(
            "{receiver}: domain of {} designates {} as permitted sender",
            ctx.sender_domain, ctx.ip
        ),
        SpfResult::Fail => format!(
            "{receiver}: domain of {} does not designate {} as permitted sender",
            ctx.sender_domain, ctx.ip
        ),
        SpfResult::SoftFail => format!(
            "{receiver}: transitioning domain of {} discourages use of {}",
            ctx.sender_domain, ctx.ip
        ),
        SpfResult::Neutral => {
            format!("{receiver}: {} is neither permitted nor denied", ctx.ip)
        }
        SpfResult::None => format!("{receiver}: no SPF policy for {}", ctx.sender_domain),
        SpfResult::TempError => format!("{receiver}: transient DNS failure"),
        SpfResult::PermError => {
            let detail = eval
                .problem
                .as_ref()
                .map(|p| format!("{p:?}"))
                .unwrap_or_else(|| "invalid record".to_string());
            format!("{receiver}: permanent error: {detail}")
        }
    };
    let _ = write!(out, " ({comment})");

    // Key-value pairs.
    let _ = write!(out, " client-ip={};", ctx.ip);
    let _ = write!(out, " envelope-from=\"{}\";", ctx.sender());
    let _ = write!(out, " helo={};", ctx.helo);
    let _ = write!(out, " receiver={receiver};");
    if let Some(mechanism) = &eval.matched_directive {
        let _ = write!(out, " mechanism=\"{mechanism}\";");
    }
    let _ = write!(out, " identity=mailfrom");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{check_host, EvalPolicy};
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    fn ctx_and_eval(record: &str, ip: &str) -> (EvalContext, Evaluation) {
        let store = Arc::new(ZoneStore::new());
        let domain = dom("example.com");
        store.add_txt(&domain, record);
        let resolver = ZoneResolver::new(store);
        let mut ctx = EvalContext::mail_from(ip.parse().unwrap(), "alice", domain.clone());
        ctx.receiver = Some(dom("mx.receiver.example"));
        let eval = check_host(&resolver, &ctx, &domain, &EvalPolicy::default());
        (ctx, eval)
    }

    #[test]
    fn pass_header_names_the_mechanism() {
        let (ctx, eval) = ctx_and_eval("v=spf1 ip4:192.0.2.1 -all", "192.0.2.1");
        let header = received_spf_header(&eval, &ctx);
        assert!(header.starts_with("Received-SPF: pass (mx.receiver.example: domain of"));
        assert!(header.contains("designates 192.0.2.1 as permitted sender"));
        assert!(header.contains("client-ip=192.0.2.1;"));
        assert!(header.contains("envelope-from=\"alice@example.com\";"));
        assert!(header.contains("mechanism=\"ip4:192.0.2.1\";"));
        assert!(header.ends_with("identity=mailfrom"));
    }

    #[test]
    fn fail_header_says_not_designated() {
        let (ctx, eval) = ctx_and_eval("v=spf1 ip4:192.0.2.1 -all", "203.0.113.9");
        let header = received_spf_header(&eval, &ctx);
        assert!(header.starts_with("Received-SPF: fail"));
        assert!(header.contains("does not designate 203.0.113.9"));
        assert!(header.contains("mechanism=\"-all\";"));
    }

    #[test]
    fn none_and_permerror_variants() {
        let (ctx, eval) = ctx_and_eval("not-an-spf-record", "192.0.2.1");
        let header = received_spf_header(&eval, &ctx);
        assert!(header.starts_with("Received-SPF: none"));
        assert!(!header.contains("mechanism="));

        let (ctx, eval) = ctx_and_eval("v=spf1 ipv4:1.2.3.4 -all", "192.0.2.1");
        let header = received_spf_header(&eval, &ctx);
        assert!(header.starts_with("Received-SPF: permerror"));
        assert!(header.contains("permanent error"));
    }

    #[test]
    fn softfail_and_neutral_comments() {
        let (ctx, eval) = ctx_and_eval("v=spf1 ~all", "192.0.2.1");
        assert!(received_spf_header(&eval, &ctx).contains("transitioning"));
        let (ctx, eval) = ctx_and_eval("v=spf1 ip4:10.0.0.1", "192.0.2.1");
        assert!(received_spf_header(&eval, &ctx).contains("neither permitted nor denied"));
    }
}
