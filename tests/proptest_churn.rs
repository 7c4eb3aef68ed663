//! Longitudinal delta-exactness under random churn: for *any* seeded
//! churn sequence the generator can produce — any rate, preset, epoch
//! count, and evaluator/cache configuration — the [`ChurnEngine`]'s
//! incrementally folded state must stay **byte-identical** to a
//! from-scratch recompute of the churned zone at every epoch. Not
//! approximately equal: the coverage map is a commutative monoid of
//! signed boundary deltas and the matrix a sum of per-domain rows, so
//! fold-out/fold-in is exact by construction, and these properties pin
//! that across the serialized forms of all three artifacts (report
//! vector, overlap report, spoof matrix — the last against both a fresh
//! `auth_matrix` and the per-cell `bare_row_fold` oracle).

use std::sync::Arc;
use std::time::Duration;

use lazy_gatekeepers::crawler::{evaluate_auth_row, AuthMatrixRow, DEFAULT_PROVIDER_ROWS};
use lazy_gatekeepers::prelude::*;
use proptest::prelude::*;
use spf_testkit::{engine_config, population_at};

const MONTH: Duration = Duration::from_secs(30 * 86_400);

fn arb_preset() -> impl Strategy<Value = ChurnPreset> {
    prop_oneof![
        Just(ChurnPreset::Mixed),
        Just(ChurnPreset::TighteningWave),
        Just(ChurnPreset::ProviderShuffle),
        Just(ChurnPreset::FailoverFlap),
    ]
}

fn arb_evaluator() -> impl Strategy<Value = Evaluator> {
    (0..Evaluator::ALL.len()).prop_map(|i| Evaluator::ALL[i])
}

/// Serialize the §6 overlap artifact for a report/coverage snapshot.
fn overlap_json<R: Resolver>(
    walker: &Walker<R>,
    reports: &[DomainReport],
    weighted: &WeightedRanges,
) -> String {
    let eco = include_ecosystem(reports, walker);
    let spf_domains = reports.iter().filter(|r| r.has_spf).count() as u64;
    let report = OverlapReport::compute(weighted, &eco, spf_domains, DEFAULT_PROVIDER_ROWS);
    serde_json::to_string(&report).expect("overlap report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: random churn sequences, incremental vs
    /// full re-crawl, byte-identical serialized artifacts every epoch,
    /// under every matrix evaluator (interpreted, cached, compiled).
    #[test]
    fn incremental_folding_is_byte_identical_to_full_recompute(
        churn_seed in any::<u64>(),
        rate_permille in 5u64..100,
        preset in arb_preset(),
        epochs in 1u64..4,
        evaluator in arb_evaluator(),
    ) {
        let rate = rate_permille as f64 / 1000.0;
        let population = population_at(20_000);
        let store = Arc::clone(&population.store);
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        // A TTL span shorter than the simulated horizon, so later epochs
        // mix TTL-expired domains into the due set alongside the deltas.
        let config = LongitudinalConfig::default()
            .crawl(CrawlConfig::with_workers(4))
            .ttl(Duration::from_secs(40 * 86_400), Duration::from_secs(40 * 86_400));
        let engine = ChurnEngine::bootstrap(&walker, population.domains.clone(), config);

        let vantages = select_vantages(&engine.weighted(), &[], 3, 2, churn_seed);
        let matrix_config = engine_config(2, evaluator);
        engine.attach_matrix(walker.resolver(), vantages.clone(), matrix_config);

        let mut sim = ChurnSimulator::new(
            Arc::clone(&store),
            population.domains.clone(),
            ChurnConfig { rate, seed: churn_seed, preset },
        );

        // The layered matrix, kept the churn engine's way: every delta
        // domain's row folded out and its re-evaluated row folded in.
        let mut compiler = CompilerStats::default();
        let mut auth_row = |domain: &DomainName| {
            evaluate_auth_row(
                walker.resolver(),
                domain,
                &vantages,
                &EvalPolicy::default(),
                None,
                false,
                &mut compiler,
                None,
            )
        };
        let mut rows: Vec<AuthMatrixRow> = population.domains.iter().map(&mut auth_row).collect();
        let mut layered = AuthMatrix::empty(population.domains.len() as u64, &vantages);
        for row in &rows {
            layered.fold_in(row);
        }

        for epoch in 1..=epochs {
            let batch = sim.next_epoch();
            prop_assert!(!batch.events.is_empty(), "simulator must emit churn");
            batch.apply(&store);
            engine.deliver(ZoneDelta::new(batch.domains(), || {}));
            let report = engine.step(&walker, MONTH * u32::try_from(epoch).unwrap());
            prop_assert!(report.delta_domains >= 1);
            prop_assert!(report.recrawled >= report.delta_domains);

            // Full recompute of the churned zone from scratch.
            let fresh_walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
            let full = crawl(&fresh_walker, &population.domains, CrawlConfig::with_workers(2));
            let full_weighted = full.coverage.into_weighted();

            let inc_reports = serde_json::to_string(&engine.reports()).unwrap();
            let full_reports = serde_json::to_string(&full.reports).unwrap();
            prop_assert_eq!(inc_reports, full_reports, "reports diverged at epoch {}", epoch);

            let inc_weighted = engine.weighted();
            prop_assert_eq!(
                serde_json::to_string(&inc_weighted).unwrap(),
                serde_json::to_string(&full_weighted).unwrap(),
                "coverage diverged at epoch {}", epoch
            );

            prop_assert_eq!(
                overlap_json(&walker, &engine.reports(), &inc_weighted),
                overlap_json(&fresh_walker, &full.reports, &full_weighted),
                "overlap report diverged at epoch {}", epoch
            );

            let (fresh_matrix, _) = auth_matrix(
                fresh_walker.resolver(),
                &population.domains,
                &vantages,
                matrix_config,
            );
            for domain in batch.domains() {
                let rank = population.domains.iter().position(|d| *d == domain).unwrap();
                layered.fold_out(&rows[rank]);
                rows[rank] = auth_row(&domain);
                layered.fold_in(&rows[rank]);
            }
            prop_assert_eq!(layered.check_conservation(), Ok(()), "epoch {}", epoch);
            prop_assert_eq!(fresh_matrix.check_conservation(), Ok(()), "epoch {}", epoch);
            prop_assert_eq!(
                serde_json::to_string(&layered).unwrap(),
                serde_json::to_string(&fresh_matrix).unwrap(),
                "layered matrix diverged at epoch {}", epoch
            );
            prop_assert_eq!(
                serde_json::to_string(&engine.matrix().unwrap()).unwrap(),
                serde_json::to_string(&fresh_matrix.spf).unwrap(),
                "spoof matrix diverged at epoch {}", epoch
            );

            // The per-cell oracle: a whole `check_host` per cell on the
            // calling thread, sharing no cache, compiler, pool or root
            // fetch with either engine.
            let bare = bare_row_fold(
                fresh_walker.resolver(),
                &population.domains,
                &vantages,
                &EvalPolicy::default(),
            );
            prop_assert_eq!(
                serde_json::to_string(&engine.matrix().unwrap()).unwrap(),
                serde_json::to_string(&bare).unwrap(),
                "spoof matrix diverged from the bare-row fold at epoch {}", epoch
            );
        }
    }

    /// Churn batches themselves are a pure function of (zone, seed,
    /// rate, preset, epoch): two simulators over identical worlds plan
    /// identical event streams.
    #[test]
    fn churn_streams_are_deterministic(
        churn_seed in any::<u64>(),
        rate_permille in 5u64..100,
        preset in arb_preset(),
    ) {
        let rate = rate_permille as f64 / 1000.0;
        let build = || {
            let population = population_at(20_000);
            let mut sim = ChurnSimulator::new(
                Arc::clone(&population.store),
                population.domains.clone(),
                ChurnConfig { rate, seed: churn_seed, preset },
            );
            let mut stream = Vec::new();
            for _ in 0..3 {
                let batch = sim.next_epoch();
                stream.push(format!("{:?}", batch.events));
                batch.apply(&population.store);
            }
            stream
        };
        prop_assert_eq!(build(), build());
    }
}
