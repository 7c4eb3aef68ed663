//! The verdict service's byte-identity replay: every served verdict
//! must equal bare `check_host` for the same query.

use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;

use spf_core::{check_host, EvalContext, EvalPolicy};
use spf_dns::{ZoneResolver, ZoneStore};
use spf_service::{QuerySpec, ServiceClient, Status, Transport, VerdictService};
use spf_types::DomainName;

/// The sender local part of every replayed query.
pub const SENDER: &str = "stress";

/// One query plus the bare-`check_host` JSON the service must echo.
pub type Expected = (QuerySpec, String);

/// Every `(domain × vantage)` pair, with its reference verdict
/// evaluated *uncached* through the plain resolver over `store`.
pub fn pairs_with_reference(
    store: &Arc<ZoneStore>,
    domains: &[DomainName],
    vantage_ips: &[IpAddr],
) -> Vec<Expected> {
    let resolver = ZoneResolver::new(Arc::clone(store));
    let policy = EvalPolicy::default();
    let mut items = Vec::with_capacity(domains.len() * vantage_ips.len());
    for domain in domains {
        for ip in vantage_ips {
            let ctx = EvalContext::mail_from(*ip, SENDER, domain.clone());
            let eval = check_host(&resolver, &ctx, domain, &policy);
            let json = serde_json::to_string(&eval).expect("evaluation serializes");
            items.push((
                QuerySpec {
                    ip: *ip,
                    domain: domain.clone(),
                    sender_local: SENDER.to_string(),
                    stack: false,
                },
                json,
            ));
        }
    }
    items
}

/// Replay `items` through a connected client and byte-compare every
/// response body against its reference JSON.
pub fn replay(addr: SocketAddr, transport: Transport, items: &[Expected], label: &str) {
    let mut client = ServiceClient::connect(addr, transport).expect("client connects");
    for chunk in items.chunks(2048) {
        let specs: Vec<QuerySpec> = chunk.iter().map(|(spec, _)| spec.clone()).collect();
        let responses = client
            .run(&specs, 64, None)
            .unwrap_or_else(|e| panic!("run failed [{label}]: {e}"));
        assert_eq!(responses.len(), specs.len(), "response count [{label}]");
        for (response, (spec, expected)) in responses.iter().zip(chunk) {
            assert_eq!(
                response.status,
                Status::Ok,
                "non-ok verdict for {} from {} [{label}]",
                spec.domain,
                spec.ip
            );
            assert!(
                response.body == expected.as_bytes(),
                "verdict diverged for {} from {} [{label}]:\n served: {}\n   bare: {}",
                spec.domain,
                spec.ip,
                String::from_utf8_lossy(&response.body),
                expected
            );
        }
    }
}

/// After `shutdown` — every admitted query answered, every thread
/// joined — the service's counters must balance (see
/// `ServiceTelemetry::check_conservation` for the laws).
pub fn assert_conservation(service: &VerdictService, label: &str) {
    if let Err(law) = service.telemetry().check_conservation() {
        panic!("conservation broken [{label}]: {law}");
    }
}
