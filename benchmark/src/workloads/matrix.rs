//! `matrix-cached` and `matrix-compiled`: the auth-stack matrix over
//! the same world, vantages and cells, through the cached evaluator or
//! through compiled tables — compile time included, because a cold
//! `repro spoof-matrix` run pays it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spf_crawler::{auth_matrix, AuthMatrix, SpoofMatrixConfig};
use spf_dns::{Resolver, ZoneResolver};

use super::{SpoofLab, TimedCalls, Workload};
use crate::check::json_digest;
use crate::trace::Tracer;
use crate::{Measured, ProbeWorld, Sizes, MEMORY_POOL};

/// A set-up matrix workload.
pub struct Matrix {
    lab: SpoofLab,
    resolver: Arc<dyn Resolver>,
    config: SpoofMatrixConfig,
    reference: AuthMatrix,
}

impl Matrix {
    /// Build the world, select the vantages and compute the reference
    /// matrix with neither cache nor compiler.
    pub fn setup(seed: u64, sizes: &Sizes, compiled: bool, tracer: &mut Tracer) -> Matrix {
        let lab = SpoofLab::build(sizes.matrix_scale, seed, tracer);
        let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&lab.world.store)));
        let config = SpoofMatrixConfig::with_workers(MEMORY_POOL).compiled(compiled);
        let span = tracer.begin("reference auth_matrix");
        let (reference, _) = auth_matrix(
            &resolver,
            &lab.world.domains,
            &lab.vantages,
            config.cached(false).compiled(false),
        );
        tracer.end(span);
        Matrix {
            lab,
            resolver,
            config,
            reference,
        }
    }
}

impl Workload for Matrix {
    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Measured {
        let domains = &self.lab.world.domains;
        let cells = (domains.len() * self.lab.vantages.len()) as u64;
        let started = Instant::now();
        let mut calls = TimedCalls::default();
        let mut failed_ops = 0u64;
        let mut last_stats = None;
        while calls.samples.is_empty() || started.elapsed() < budget {
            // `auth_matrix` builds its verdict cache (and compiles its
            // tables) afresh on every call: each iteration is a cold run.
            let span = tracer.begin("auth_matrix");
            let (matrix, stats) = calls.time(
                || auth_matrix(&self.resolver, domains, &self.lab.vantages, self.config),
                |_| cells,
            );
            tracer.end(span);
            if matrix != self.reference {
                failed_ops += cells;
            }
            last_stats = Some(stats);
        }
        let iterations = calls.samples.len();
        let stats = last_stats.expect("at least one iteration");
        let compiler = stats.engine.compiler.unwrap_or_default();
        let verdicts = compiler.compiled_verdicts + compiler.fallback_verdicts;
        Measured {
            ops: cells * iterations as u64,
            failed_ops,
            latency_us: calls.per_op_us(),
            samples: calls.samples,
            counts: vec![
                ("domains", domains.len() as u64),
                ("vantages", self.lab.vantages.len() as u64),
                ("cells", cells),
                ("output_digest", json_digest(&self.reference)),
                ("core.compile.domains_compiled", compiler.domains_compiled),
                ("core.compile.fallback_verdicts", compiler.fallback_verdicts),
            ],
            layers: vec![
                (
                    "crawler.spoof.cache_hit_rate",
                    stats.engine.cache_hit_rate(),
                ),
                ("core.compile.full_fraction", compiler.full_fraction()),
                (
                    "core.compile.fallback_share",
                    if verdicts == 0 {
                        0.0
                    } else {
                        compiler.fallback_verdicts as f64 / verdicts as f64
                    },
                ),
            ],
        }
    }

    fn probe_world(&self) -> ProbeWorld {
        ProbeWorld {
            store: Arc::clone(&self.lab.world.store),
            domains: self.lab.world.domains.clone(),
            ips: self.lab.vantage_ips(),
        }
    }
}
