//! Set-up: both micro-kernel libraries generated from scratch with the
//! paper's offline options, the engine, and the workload's warm-up.

use std::sync::Arc;
use std::time::Instant;

use accel_sim::{Cluster, Interconnect, MachineModel};
use mikpoly::{
    CacheOutcome, CompileBudget, Engine, MicroKernelLibrary, MikPoly, OfflineOptions, TemplateKind,
};

use crate::workload::{Workload, DEVICES};

/// The benchmark's machine.
pub fn machine() -> MachineModel {
    MachineModel::a100()
}

/// The simulated device pool.
pub fn cluster() -> Cluster {
    Cluster::new(machine(), DEVICES, Interconnect::nvlink3())
}

/// Generates one template's library with `OfflineOptions::paper()`.
pub fn generate(template: TemplateKind) -> MicroKernelLibrary {
    MicroKernelLibrary::generate(&machine(), &OfflineOptions::paper().with_template(template))
}

/// Both template libraries.
#[derive(Debug, Clone)]
pub struct Libraries {
    /// The GEMM-template library.
    pub gemm: MicroKernelLibrary,
    /// The implicit-GEMM convolution library.
    pub conv: MicroKernelLibrary,
}

impl Libraries {
    /// Generates both libraries from scratch.
    pub fn generate() -> Self {
        Self {
            gemm: generate(TemplateKind::Gemm),
            conv: generate(TemplateKind::Conv),
        }
    }

    /// A cold engine over copies of these libraries, configured for `w`.
    pub fn engine(&self, w: Workload) -> Arc<Engine> {
        let compiler = |library: &MicroKernelLibrary| {
            Arc::new(
                MikPoly::with_library(machine(), library.clone()).with_options(w.online_options()),
            )
        };
        Arc::new(Engine::from_compilers(
            machine(),
            compiler(&self.gemm),
            compiler(&self.conv),
        ))
    }

    /// A cold engine for `w` warmed the way set-up warms it.
    ///
    /// # Errors
    ///
    /// A warm-up compile failure.
    pub fn warm_engine(&self, w: Workload) -> Result<Arc<Engine>, String> {
        let engine = self.engine(w);
        warm_up(&engine, w)?;
        Ok(engine)
    }
}

/// Compiles every warm-up shape of `w` in order and returns the real
/// wall-clock ns of each first-seen polymerization.
///
/// # Errors
///
/// A compile failure, or a warm-up shape that was already cached.
pub fn warm_up(engine: &Engine, w: Workload) -> Result<Vec<f64>, String> {
    let mut compile_ns = Vec::new();
    for op in w.warmup_ops() {
        let start = Instant::now();
        let reply = engine
            .gemm_compiler()
            .try_compile(&op, CompileBudget::default())
            .map_err(|e| format!("warm-up compile of {op} failed: {e}"))?;
        let ns = start.elapsed().as_nanos() as f64;
        if reply.outcome != CacheOutcome::Computed {
            return Err(format!(
                "warm-up shape {op} was not a fresh polymerization: {:?}",
                reply.outcome
            ));
        }
        compile_ns.push(ns);
    }
    Ok(compile_ns)
}

/// One timed set-up.
pub struct Setup {
    /// The generated libraries (reused to build fresh engines).
    pub libs: Libraries,
    /// The warmed engine.
    pub engine: Arc<Engine>,
    /// Wall-clock seconds of library generation, engine build and warm-up.
    pub seconds: f64,
}

/// Runs and times one complete set-up for `w`.
///
/// # Errors
///
/// A warm-up compile failure.
pub fn set_up(w: Workload) -> Result<Setup, String> {
    let start = Instant::now();
    let libs = Libraries::generate();
    let engine = libs.engine(w);
    warm_up(&engine, w)?;
    Ok(Setup {
        seconds: start.elapsed().as_secs_f64(),
        libs,
        engine,
    })
}
