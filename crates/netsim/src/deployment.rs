//! Per-domain auth-stack deployment modeling: which DMARC / MTA-STS
//! records a population domain publishes on top of its SPF cohort.
//!
//! The population builder assigns each SPF-publishing domain a
//! [`DeploymentMix`] tier (DESIGN.md §13). The DMARC *budget* and
//! policy mix ride the calibrated rng stream exactly as before (the
//! paper's Table 1 marginals); the MTA-STS layer is derived from the
//! domain's precomputed hash so adding it never shifts the rng stream
//! — every pre-existing population byte stays identical.
//!
//! **Modeling approximation**: real MTA-STS publishes only `v=STSv1;
//! id=…` in DNS and serves the policy (with its `mode=`) over HTTPS.
//! The netsim has no HTTPS fetcher, so the discovery TXT carries the
//! mode inline — `spf_core::query_mta_sts` parses exactly this shape.

use spf_core::DeploymentMix;
use spf_dns::ZoneStore;
use spf_types::DomainName;

/// Of the domains whose DMARC policy came out enforced, one in
/// `MTA_STS_ENFORCED_STRIDE` also publishes an enforce-mode MTA-STS
/// policy, and the next hash slot publishes a testing-mode one.
/// Hash-derived, not rng-derived — see the module docs.
const MTA_STS_ENFORCED_STRIDE: u64 = 5;

/// The MTA-STS discovery TXT the netsim publishes for `mode`.
pub fn mta_sts_record(mode: &str) -> String {
    format!("v=STSv1; id=20230801T000000; mode={mode}")
}

/// Decide the MTA-STS layer for a domain whose DMARC policy is already
/// decided, and publish the discovery TXT when the tier calls for one.
/// Returns the resulting deployment tier given `dmarc_enforced`.
pub fn assign_mta_sts(
    store: &ZoneStore,
    domain: &DomainName,
    dmarc_enforced: bool,
) -> DeploymentMix {
    if !dmarc_enforced {
        return DeploymentMix::SpfDmarcNone;
    }
    let Ok(name) = domain.prepend_label("_mta-sts") else {
        return DeploymentMix::SpfDmarcEnforced;
    };
    match domain.precomputed_hash() % MTA_STS_ENFORCED_STRIDE {
        0 => {
            store.add_txt(&name, &mta_sts_record("enforce"));
            DeploymentMix::FullStack
        }
        1 => {
            // Testing mode exists in the zone but does not close the
            // residual path — classified as SpfDmarcEnforced.
            store.add_txt(&name, &mta_sts_record("testing"));
            DeploymentMix::SpfDmarcEnforced
        }
        _ => DeploymentMix::SpfDmarcEnforced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_core::{query_mta_sts, MtaStsMode};
    use spf_dns::ZoneResolver;
    use std::sync::Arc;

    #[test]
    fn assignment_is_hash_deterministic_and_parseable() {
        let store = Arc::new(ZoneStore::new());
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let mut tiers = std::collections::BTreeMap::new();
        for i in 0..64u64 {
            let d = DomainName::parse(&format!("d{i}.example")).unwrap();
            let tier = assign_mta_sts(&store, &d, true);
            *tiers.entry(tier).or_insert(0u64) += 1;
            let mode = query_mta_sts(&resolver, &d);
            match tier {
                DeploymentMix::FullStack => assert_eq!(mode, MtaStsMode::Enforce),
                DeploymentMix::SpfDmarcEnforced => {
                    assert_ne!(mode, MtaStsMode::Enforce)
                }
                other => panic!("unexpected tier {other:?}"),
            }
        }
        // Both tiers occur at this sample size.
        assert!(tiers.len() >= 2, "expected a mixed assignment: {tiers:?}");
        // Unenforced DMARC never gets an MTA-STS record.
        let lax = DomainName::parse("lax.example").unwrap();
        assert_eq!(
            assign_mta_sts(&store, &lax, false),
            DeploymentMix::SpfDmarcNone
        );
        assert_eq!(query_mta_sts(&resolver, &lax), MtaStsMode::Absent);
    }
}
