//! The correctness gate: every run checks the program's outputs and exits
//! non-zero on any failure.

use std::collections::HashSet;

use mikpoly::{
    CacheStats, Disposition, Engine, Request, RestoreOutcome, RestoreReport, ServingReport,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tensor_ir::{reference_gemm, GemmShape, Operator, Tensor};

use crate::setup::Libraries;
use crate::workload::Workload;

/// Accumulated gate failures (one line each).
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// The failures so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Each request has exactly one record and one disposition, the
    /// disposition counts sum to the number attempted, and shed reasons
    /// appear exactly on shed records.
    pub fn serve_report(&mut self, requests: &[Request], report: &ServingReport) {
        let ids: HashSet<usize> = report.records.iter().map(|r| r.id).collect();
        let wanted: HashSet<usize> = requests.iter().map(|r| r.id).collect();
        self.check(
            report.records.len() == requests.len() && ids == wanted,
            || {
                format!(
                    "serve returned {} records ({} distinct ids) for {} requests",
                    report.records.len(),
                    ids.len(),
                    requests.len()
                )
            },
        );
        let counts = report.dispositions();
        self.check(counts.total() == requests.len(), || {
            format!("dispositions {counts:?} do not sum to {}", requests.len())
        });
        let bad = report
            .records
            .iter()
            .filter(|r| (r.disposition == Disposition::Shed) != r.shed_reason.is_some())
            .count();
        self.check(bad == 0, || {
            format!("{bad} records carry a shed reason inconsistent with their disposition")
        });
    }

    /// The exact fill ledger of a program cache.
    pub fn ledger(&mut self, stats: CacheStats, label: &str) {
        self.check(
            stats.entries + stats.evictions + stats.invalidations
                == stats.computations + stats.direct_inserts,
            || format!("{label}: cache fill ledger broken: {stats:?}"),
        );
    }

    /// Ledgers of both compilers, plus polymerizations == unique shapes
    /// on an unbounded GEMM cache that has seen exactly `unique` shapes.
    pub fn engine_caches(&mut self, engine: &Engine, unique: Option<usize>, label: &str) {
        let gemm = engine.gemm_compiler().cache_stats();
        self.ledger(gemm, &format!("{label} gemm"));
        self.ledger(
            engine.conv_compiler().cache_stats(),
            &format!("{label} conv"),
        );
        if let Some(unique) = unique {
            self.check(gemm.computations == unique as u64, || {
                format!(
                    "{label}: {} polymerizations for {unique} unique shapes",
                    gemm.computations
                )
            });
        }
    }

    /// Every cached program (decoded back from the engine's own bundle
    /// encoding) covers its output exactly.
    pub fn programs(&mut self, engine: &Engine, label: &str) {
        for compiler in [engine.gemm_compiler(), engine.conv_compiler()] {
            match mikpoly::decode_bundle(&compiler.encode_program_cache()) {
                Ok(programs) => {
                    for program in programs {
                        if let Err(e) = program.verify_coverage() {
                            self.fail(format!(
                                "{label}: program for {} fails coverage: {e}",
                                program.operator
                            ));
                        }
                    }
                }
                Err(e) => self.fail(format!("{label}: cache bundle does not decode: {e}")),
            }
        }
    }

    /// A warm-state restore was clean for both bundles and restored
    /// exactly the `saved` programs.
    pub fn restore(&mut self, report: &RestoreReport, saved: usize) {
        for bundle in &report.bundles {
            self.check(bundle.outcome == RestoreOutcome::Clean, || {
                format!("restore of {} was {:?}", bundle.bundle, bundle.outcome)
            });
        }
        self.check(report.bundles.len() == 2, || {
            format!("restore reported {} bundles, not 2", report.bundles.len())
        });
        self.check(report.restored() == saved, || {
            format!("restored {} programs, saved {saved}", report.restored())
        });
    }

    /// A seeded sample of small GEMMs, compiled for `w` on a fresh engine
    /// and executed on real data, matches the reference GEMM.
    pub fn numerics(&mut self, libs: &Libraries, w: Workload, seed: u64) {
        let engine = libs.engine(w);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        for i in 0..6u64 {
            let shape = GemmShape::new(
                rng.gen_range(1usize..=96),
                rng.gen_range(1usize..=96),
                rng.gen_range(1usize..=64),
            );
            let program = engine.gemm_compiler().compile(&Operator::gemm(shape));
            let a = Tensor::random(&[shape.m, shape.k], seed.wrapping_add(2 * i));
            let b = Tensor::random(&[shape.k, shape.n], seed.wrapping_add(2 * i + 1));
            let checked = std::panic::catch_unwind(|| {
                let got = mikpoly::execute_gemm(&program, &a, &b);
                mikpoly_conformance::assert_matches_reference(
                    &got,
                    &reference_gemm(shape, &a, &b),
                    &format!("gemm {shape:?}"),
                );
            });
            self.check(checked.is_ok(), || {
                format!("execute_gemm of {shape:?} does not match the reference")
            });
        }
    }
}
