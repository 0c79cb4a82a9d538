//! The untraced mode: end-to-end metrics of one workload.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mikpoly::{Disposition, Engine, Request, ServingReport, ServingRuntime};

use crate::gate::Gate;
use crate::setup::{cluster, set_up, warm_up, Libraries};
use crate::stats::{iq_mean, mean, median, pct};
use crate::trace::Recorder;
use crate::workload::{unique_ops, Workload, WORKERS};
use crate::{Metric, Outcome};

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Polymerizations timed after each serve of a precompiled workload.
const COMPILE_SAMPLES: usize = 512;
/// Warm restarts timed after each serve.
const RESTARTS: usize = 3;

/// One timed `ServingRuntime::serve` call.
pub struct Served {
    /// The runtime's report.
    pub report: ServingReport,
    /// Host wall-clock seconds of the call.
    pub wall_s: f64,
}

/// Serves `requests` on `engine` with the workload's runtime
/// configuration, timing only the `serve` call.
pub fn serve(engine: &Arc<Engine>, w: Workload, requests: &[Request]) -> Served {
    let runtime = ServingRuntime::new(Arc::clone(engine), cluster(), WORKERS)
        .with_options(w.serving_options());
    let start = Instant::now();
    let report = runtime.serve(requests);
    Served {
        wall_s: start.elapsed().as_secs_f64(),
        report,
    }
}

/// The virtual-timeline figures of one serve. On `shape-storm` they
/// include the real compile time the runtime projects onto the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virtual {
    /// Exact p50 of `timeline_total_ns` over executed requests, us.
    pub p50_us: f64,
    /// Exact p99 of `timeline_total_ns` over executed requests, us.
    pub p99_us: f64,
    /// Share of attempted requests served within the latency limit.
    pub slo_attainment: f64,
    /// Share of attempted requests served (Completed or Degraded).
    pub served_share: f64,
    /// Simulated device us per executed request: each device run (a
    /// co-launched wave counts once) shared among its members.
    pub device_us_mean: f64,
}

impl Virtual {
    /// The figures of `report` for a stream of `attempted` requests.
    pub fn of(w: Workload, report: &ServingReport, attempted: usize) -> Self {
        let executed: Vec<_> = report.records.iter().filter(|r| r.executed()).collect();
        let totals: Vec<f64> = executed.iter().map(|r| r.timeline_total_ns()).collect();
        let served = |r: &&mikpoly::RequestRecord| {
            matches!(
                r.disposition,
                Disposition::Completed | Disposition::Degraded
            )
        };
        let limit = w.spec().latency_limit_ns;
        let within = report
            .records
            .iter()
            .filter(served)
            .filter(|r| r.timeline_total_ns() <= limit)
            .count();
        let device: Vec<f64> = executed
            .iter()
            .map(|r| r.device_ns / r.batch_size.max(1) as f64)
            .collect();
        Self {
            p50_us: pct(&totals, 0.5) / 1e3,
            p99_us: pct(&totals, 0.99) / 1e3,
            slo_attainment: within as f64 / attempted as f64,
            served_share: report.records.iter().filter(served).count() as f64 / attempted as f64,
            device_us_mean: mean(&device) / 1e3,
        }
    }
}

/// Real us of each polymerization a serve ran (records with a non-zero
/// compile time).
pub fn compile_us(report: &ServingReport) -> Vec<f64> {
    report
        .records
        .iter()
        .map(|r| r.compile.ns() / 1e3)
        .filter(|&us| us > 0.0)
        .collect()
}

/// A warm restart: the engine's program caches saved under `dir` and
/// restored into a fresh engine, with the restore gated.
pub struct Restart {
    /// Seconds to save.
    pub save_s: f64,
    /// Seconds to restore.
    pub restore_s: f64,
    /// Programs saved (and restored).
    pub programs: usize,
    /// Bundle bytes written.
    pub bytes: u64,
}

/// Saves `engine`'s warm state into `dir`, restores it into a fresh engine
/// for `w`, and checks the restore. The save and the restore are recorded
/// as `persist.*` spans under `parent`.
///
/// # Errors
///
/// An I/O error from the save or from reading the committed manifest.
pub fn warm_restart(
    engine: &Engine,
    libs: &Libraries,
    w: Workload,
    dir: &Path,
    gate: &mut Gate,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> Result<Restart, String> {
    let programs = (engine.gemm_compiler().cache_stats().entries
        + engine.conv_compiler().cache_stats().entries) as usize;
    let start = Instant::now();
    let span = rec.open(parent, None);
    engine
        .save_program_caches(dir)
        .map_err(|e| format!("saving warm state to {}: {e}", dir.display()))?;
    rec.close(span, "persist.save");
    let save_s = start.elapsed().as_secs_f64();
    let fresh = libs.engine(w);
    let start = Instant::now();
    let span = rec.open(parent, None);
    let report = fresh.restore_program_caches(dir);
    rec.close(span, "persist.restore");
    let restore_s = start.elapsed().as_secs_f64();
    gate.restore(&report, programs);
    let bytes = mikpoly::Manifest::read(dir)
        .map_err(|e| format!("reading the committed manifest: {e}"))?
        .map_or(0, |m| m.bundles.iter().map(|(_, len, _)| len).sum());
    Ok(Restart {
        save_s,
        restore_s,
        programs,
        bytes,
    })
}

/// Checks that every op of a precompiled workload's streams was compiled
/// in set-up (so the timed serves are all cache hits).
pub fn check_precompiled(w: Workload, streams: &[Vec<Request>], gate: &mut Gate) {
    if w.precompiled() {
        let warm: std::collections::HashSet<_> = w.warmup_ops().into_iter().collect();
        let missing = unique_ops(streams.iter().flatten())
            .difference(&warm)
            .count();
        gate.check(missing == 0, || {
            format!("{missing} stream shapes are not compiled in set-up")
        });
    }
}

/// The unique-shape count the GEMM cache must report as polymerizations
/// (unbounded caches only).
pub fn unique_warm_shapes(w: Workload) -> Option<usize> {
    w.precompiled().then(|| {
        w.warmup_ops()
            .into_iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    })
}

/// One serve's figures.
#[derive(Clone, Copy)]
struct Sample {
    host_rps: f64,
    virt: Virtual,
    compile_p50_us: f64,
    compile_p99_us: f64,
    restart_ms: f64,
}

/// Runs `w` untraced for about `seconds` of timed serving.
///
/// # Errors
///
/// A set-up or I/O failure (gate failures are recorded in `gate`).
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    gate: &mut Gate,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let s = set_up(w)?;
        setup_s.push(s.seconds);
        setup = Some(s);
    }
    let setup = setup.ok_or("no set-up ran")?;
    let unique = unique_warm_shapes(w);
    gate.engine_caches(&setup.engine, unique, "set-up");
    let streams = w.streams(seed);
    check_precompiled(w, &streams, gate);

    let state_dir = out_dir.join(format!("state-{}-{}", w.name(), std::process::id()));
    let mut per_stream: Vec<Vec<Sample>> = vec![Vec::new(); streams.len()];
    let (mut attempted, mut failed) = (0, 0);
    let mut last_engine = Arc::clone(&setup.engine);
    let start = Instant::now();
    let mut i = 0;
    while i < streams.len() || start.elapsed().as_secs_f64() < seconds {
        let index = i % streams.len();
        let requests = &streams[index];
        let engine = if w.precompiled() {
            Arc::clone(&setup.engine)
        } else {
            setup.libs.engine(w)
        };
        let served = serve(&engine, w, requests);
        gate.serve_report(requests, &served.report);
        gate.engine_caches(&engine, unique, w.name());
        let counts = served.report.dispositions();
        attempted += requests.len();
        failed += counts.shed + counts.failed;
        // Best of a few save + restore cycles: other tenants' disk syncs
        // only ever add to this one's.
        let mut restart_ms = f64::INFINITY;
        for _ in 0..RESTARTS {
            let restart = warm_restart(
                &engine,
                &setup.libs,
                w,
                &state_dir,
                gate,
                &mut Recorder::disabled(),
                None,
            )?;
            restart_ms = restart_ms.min((restart.save_s + restart.restore_s) * 1e3);
        }
        // First-seen polymerizations: inside the serve on shape-storm; on
        // a precompiled workload, the warm-up's, repeated on cold engines
        // until there are enough for a p99.
        let compile = if w.precompiled() {
            let mut us = Vec::new();
            while us.len() < COMPILE_SAMPLES {
                us.extend(
                    warm_up(&setup.libs.engine(w), w)?
                        .into_iter()
                        .map(|ns| ns / 1e3),
                );
            }
            us
        } else {
            compile_us(&served.report)
        };
        per_stream[index].push(Sample {
            host_rps: counts.served() as f64 / served.wall_s,
            virt: Virtual::of(w, &served.report, requests.len()),
            compile_p50_us: pct(&compile, 0.5),
            compile_p99_us: pct(&compile, 0.99),
            restart_ms,
        });
        last_engine = engine;
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    gate.programs(&last_engine, w.name());
    gate.numerics(&setup.libs, w, seed);

    // Host-time figures: the interquartile mean over every serve. Virtual
    // figures: the median per stream over its serves, then over the
    // streams — exact per seed wherever the serves themselves are.
    let host =
        |f: fn(&Sample) -> f64| iq_mean(&per_stream.iter().flatten().map(f).collect::<Vec<_>>());
    let virt = |f: fn(&Virtual) -> f64| {
        median(
            &per_stream
                .iter()
                .map(|samples| median(&samples.iter().map(|s| f(&s.virt)).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        )
    };
    let metrics = vec![
        Metric::new("host_rps", host(|s| s.host_rps), "1/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mib", crate::meta::peak_rss_mib(), "MiB"),
        Metric::new("virtual_p50_us", virt(|v| v.p50_us), "us"),
        Metric::new("virtual_p99_us", virt(|v| v.p99_us), "us"),
        Metric::new("slo_attainment", virt(|v| v.slo_attainment), "ratio"),
        Metric::new("served_share", virt(|v| v.served_share), "ratio"),
        Metric::new("device_us_mean", virt(|v| v.device_us_mean), "us"),
        Metric::new("compile_us_p50", host(|s| s.compile_p50_us), "us"),
        Metric::new("compile_us_p99", host(|s| s.compile_p99_us), "us"),
        Metric::new("warm_restart_ms", host(|s| s.restart_ms), "ms"),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}
