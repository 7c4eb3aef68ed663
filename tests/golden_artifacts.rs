//! Golden digests of the paper's artifacts: every table and figure
//! `repro all` prints, the spoof matrix and the layered auth-stack
//! matrix under each evaluator, and the churn trends, run in-process at
//! one small scale and seed on the memory backend. Each artifact's text
//! and its experiment rows (as EXPERIMENTS.md renders them) hash to a
//! committed constant, so an engine refactor that moves one verdict,
//! count or label anywhere in the paper's output fails here by name.
//!
//! Nothing is stripped: an experiment function returns only what the
//! world fixes, and `repro` prints the timings and the scheduling-
//! dependent counters (`[throughput]`, `[wire]`, `[spoof]`, `done in`)
//! beside the artifacts, never inside them. Every pipeline runs at one
//! and at four workers against the same constants, so a figure that
//! moves with the schedule fails here too.
//!
//! The wire transport is held byte-identical to memory by the suites
//! that run it: `wire_stress::wire_reports_byte_identical_to_in_memory_across_matrix`,
//! `churn_stress::churned_state_is_byte_identical_across_workers_and_backends`,
//! `auth_matrix_stress::auth_matrix_byte_identical_between_wire_and_memory`,
//! and spf-bench's `wire_mode_prepare_matches_in_memory` and
//! `table2_rescan_honors_wire_mode`.
//!
//! The constants were computed once from the code the suite was written
//! against and are never edited to make a change pass: a digest that
//! moves is a paper output that moved.

use lazy_gatekeepers::bench::{
    extras, figure1, figure2, figure3, figure4, figure5, figure6, figure7, figure8, overlap,
    prepare, spoof_matrix, spoof_matrix_stacked, table1, table2, table3, table4, table5, trends,
};
use lazy_gatekeepers::crawler::CrawlConfig;
use lazy_gatekeepers::report::{Experiment, ExperimentLog};
use lazy_gatekeepers::types::{Backend, Evaluator};

const SCALE: u64 = 5_000;
const SEED: u64 = 0x5bf1_2023;
/// Every pipeline runs at each count; the digests must not move.
const WORKERS: [usize; 2] = [1, 4];
/// `repro`'s defaults for the `trends` target.
const EPOCHS: u64 = 6;
const CHURN_RATE: f64 = 0.01;

/// 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One artifact's digest: every line of its text as returned, joined by
/// `\n` (a trailing newline does not count), then its experiment rows
/// rendered as EXPERIMENTS.md renders them.
fn digest(text: &str, exp: &Experiment) -> u64 {
    let mut log = ExperimentLog::new(SCALE, SEED);
    log.push(exp.clone());
    let lines = text.lines().collect::<Vec<_>>().join("\n");
    let hash = fnv1a(lines.as_bytes(), 0xcbf2_9ce4_8422_2325);
    fnv1a(log.to_markdown().as_bytes(), fnv1a(b"\0", hash))
}

/// Compare every computed digest at `workers` with its golden value; on
/// a mismatch list every artifact, so one run shows the whole picture.
fn check(workers: usize, computed: &[(String, u64)], golden: &[(&str, u64)]) {
    let names: Vec<&str> = computed.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "artifact list changed");
    let moved: Vec<String> = computed
        .iter()
        .zip(golden)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: {got:#018x} (golden {want:#018x})"))
        .collect();
    assert!(
        moved.is_empty(),
        "paper artifacts moved at workers={workers}:\n{}\nall computed:\n{}",
        moved.join("\n"),
        computed
            .iter()
            .map(|(n, d)| format!("(\"{n}\", {d:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn config(workers: usize, evaluator: Evaluator) -> CrawlConfig {
    CrawlConfig::with_workers(workers).backend(Backend::memory().evaluator(evaluator))
}

const EVALUATORS: [Evaluator; 3] = [
    Evaluator::Interpreted,
    Evaluator::Cached,
    Evaluator::Compiled,
];

#[test]
fn repro_all_artifacts_match_golden_digests() {
    // Table 5 takes no worker count, so it runs once.
    let (t, e) = table5(SCALE);
    let table5_digest = digest(&t.render(), &e);
    for workers in WORKERS {
        let r = prepare(SCALE, SEED, workers);
        let mut computed: Vec<(String, u64)> = Vec::new();
        let mut push = |name: &str, text: String, exp: Experiment| {
            computed.push((name.to_string(), digest(&text, &exp)));
        };
        let (t, e) = table1(&r);
        push("table1", t.render(), e);
        let (t, e) = figure1(&r);
        push("fig1", t.render(), e);
        let (s, e) = figure2(&r);
        push("fig2", s, e);
        let (s, e) = figure3(&r);
        push("fig3", s, e);
        let (t, e) = figure4(&r);
        push("fig4", t.render(), e);
        let (t, e) = table3(&r);
        push("table3", t.render(), e);
        let (t, e) = table4(&r);
        push("table4", t.render(), e);
        let (s, e) = figure5(&r);
        push("fig5", s, e);
        let (s, e) = figure6(&r);
        push("fig6", s, e);
        let (s, e) = figure7(&r);
        push("fig7", s, e);
        let (s, e) = figure8(&r);
        push("fig8", s, e);
        let (t, e) = extras(&r);
        push("extras", t.render(), e);
        let (s, e) = overlap(&r);
        push("overlap", s, e);
        // Table 2 remediates the zone, so it runs last (as in `repro`).
        let (t, e, outcome, _) = table2(&r, workers);
        let campaign = format!(
            "{} eligible, {} sent, {} bounced, {} thanked, {} complaints\n{}",
            outcome.eligible,
            outcome.sent,
            outcome.bounced,
            outcome.thanked,
            outcome.complaints,
            t.render()
        );
        push("table2", campaign, e);
        computed.push(("table5".to_string(), table5_digest));
        check(
            workers,
            &computed,
            &[
                ("table1", 0xdad6_16a8_8b34_2fad),
                ("fig1", 0x065b_ed86_47ac_f168),
                ("fig2", 0x023d_d22f_0d4d_35fa),
                ("fig3", 0xc3d1_1ff9_cc39_af52),
                ("fig4", 0xd49a_9c6e_f4dc_415a),
                ("table3", 0xf395_5a16_798d_5999),
                ("table4", 0xe836_3860_1667_c308),
                ("fig5", 0x6c39_9339_e262_f0f4),
                ("fig6", 0x007e_2366_4be7_dd9d),
                ("fig7", 0x6b41_b2c4_8d70_b7b6),
                ("fig8", 0xa9df_9cbf_c16c_108f),
                ("extras", 0x7b53_2eeb_11f1_48d1),
                ("overlap", 0x22db_02f9_a15d_4cae),
                ("table2", 0xb900_ba7d_ec4f_d81f),
                ("table5", 0xe9a6_e979_61f4_778f),
            ],
        );
    }
}

#[test]
fn spoof_matrices_match_golden_digests_under_every_evaluator() {
    for workers in WORKERS {
        let mut computed: Vec<(String, u64)> = Vec::new();
        for evaluator in EVALUATORS {
            let (s, e, _) = spoof_matrix(SCALE, SEED, config(workers, evaluator));
            computed.push((format!("spoof-matrix+{evaluator}"), digest(&s, &e)));
            let (s, e) = spoof_matrix_stacked(SCALE, SEED, config(workers, evaluator));
            computed.push((format!("spoof-matrix --stack+{evaluator}"), digest(&s, &e)));
        }
        check(
            workers,
            &computed,
            &[
                ("spoof-matrix+interpreted", 0xea09_b260_be5b_b261),
                ("spoof-matrix --stack+interpreted", 0xca29_d90e_d57c_3543),
                ("spoof-matrix+cached", 0xea09_b260_be5b_b261),
                ("spoof-matrix --stack+cached", 0xca29_d90e_d57c_3543),
                ("spoof-matrix+compiled", 0x73b6_848e_7628_2af1),
                ("spoof-matrix --stack+compiled", 0xca29_d90e_d57c_3543),
            ],
        );
    }
}

#[test]
fn trends_match_golden_digests_under_every_evaluator() {
    for workers in WORKERS {
        let mut computed: Vec<(String, u64)> = Vec::new();
        for evaluator in EVALUATORS {
            let (s, e) = trends(SCALE, SEED, config(workers, evaluator), EPOCHS, CHURN_RATE);
            computed.push((format!("trends+{evaluator}"), digest(&s, &e)));
        }
        check(
            workers,
            &computed,
            &[
                ("trends+interpreted", 0xa043_9ae2_4bbd_d616),
                ("trends+cached", 0xa043_9ae2_4bbd_d616),
                ("trends+compiled", 0xa043_9ae2_4bbd_d616),
            ],
        );
    }
}
