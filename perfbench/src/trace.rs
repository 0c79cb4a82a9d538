//! The traced mode: per-layer metrics from spans recorded around calls
//! into each layer's public functions.
//!
//! The program itself carries no tracing. This module replays a
//! workload's first stream in a single thread and, for each op, calls
//! `MikPoly::try_compile` (the `cache` or `search` layer), `Engine::launch_for`
//! and `Engine::simulate` (the `sim` layer); for each request it then calls
//! `Engine::try_plan_graph` (the `engine` layer), by then always warm. It
//! calls `ServingRuntime::serve` (the `serving` and `colaunch` layers),
//! `colaunch::wave_device_ns`, `Engine::save_program_caches` and
//! `Engine::restore_program_caches` (the `persist` layer) once each, and
//! times library generation (the `offline` layer) in set-up. Spans are
//! kept in memory and written as JSON lines when the run ends.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mikpoly::serving::{colaunch, request_shape_key};
use mikpoly::{
    CacheOutcome, CacheStats, CompileBudget, CompiledProgram, Engine, OpPlan, Request, SearchStats,
    ShedReason, TemplateKind,
};

use crate::gate::Gate;
use crate::run::{self, check_precompiled, unique_warm_shapes, Virtual};
use crate::setup::{self, machine, Libraries};
use crate::stats::{mean, median, pct};
use crate::workload::{Workload, WORKERS};
use crate::{Metric, Outcome};

/// Requests of the first stream replayed by each tracing-overhead pair.
const OVERHEAD_REQUESTS: usize = 2_000;

/// One recorded span. Times are ns since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.simulate`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span served, if any.
    pub request: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled recorder reads no clock and
/// keeps nothing, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Self {
            epoch: Some(Instant::now()),
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Self {
            epoch: None,
            spans: Vec::new(),
        }
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; returns its id.
    pub fn open(&mut self, parent: Option<usize>, request: Option<usize>) -> usize {
        let Some(epoch) = self.epoch else {
            return 0;
        };
        let start_ns = Self::now_ns(epoch);
        self.spans.push(Span {
            name: "",
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` under `name` (chosen at the end, once the outcome
    /// is known); returns its duration in ns (0 when disabled).
    pub fn close(&mut self, id: usize, name: &'static str) -> u64 {
        let Some(epoch) = self.epoch else {
            return 0;
        };
        let end_ns = Self::now_ns(epoch);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.name = name;
        span.duration_ns()
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap: the replay is
    /// single-threaded).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// Writes one JSON object per span to `path`, after a `header` line.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent),
                opt(span.request)
            )?;
        }
        out.flush()
    }
}

/// What the traced calls observed, per layer.
#[derive(Default)]
struct Layers {
    /// ns of each `try_compile` answered by a cache hit.
    hit_ns: Vec<f64>,
    /// ns and search statistics of each fresh polymerization.
    computed: Vec<(f64, SearchStats)>,
    /// ns of each `Engine::simulate`.
    sim_ns: Vec<f64>,
    /// Tasks simulated by those calls.
    sim_tasks: u64,
    /// ns of each `Engine::try_plan_graph`.
    plan_ns: Vec<f64>,
    /// Compile + simulate ns, and plan ns, over requests whose ops all hit.
    warm_parts_ns: f64,
    warm_plan_ns: f64,
    /// Compile + launch + simulate ns over the replayed requests: the
    /// layer calls a serving worker makes through `try_plan_graph`.
    layer_ns: f64,
    /// Tasks each replayed request ran (op grid sizes times op counts).
    request_tasks: Vec<f64>,
    /// The retained launches of each request shape.
    plans: HashMap<u64, Vec<OpPlan>>,
}

/// A traced `try_compile` of one GEMM.
fn compile(
    engine: &Engine,
    op: &tensor_ir::Operator,
    rec: &mut Recorder,
    parent: Option<usize>,
    request: Option<usize>,
    layers: &mut Layers,
) -> Result<(Arc<CompiledProgram>, CacheOutcome, f64), String> {
    let span = rec.open(parent, request);
    let reply = engine
        .gemm_compiler()
        .try_compile(op, CompileBudget::default())
        .map_err(|e| format!("compile of {op} failed: {e}"))?;
    let name = match reply.outcome {
        CacheOutcome::Hit => "cache.hit",
        CacheOutcome::Computed => "search.polymerize",
        CacheOutcome::Waited => "cache.wait",
    };
    let ns = rec.close(span, name) as f64;
    match reply.outcome {
        CacheOutcome::Hit => layers.hit_ns.push(ns),
        CacheOutcome::Computed => layers.computed.push((ns, reply.program.stats)),
        CacheOutcome::Waited => {}
    }
    Ok((reply.program, reply.outcome, ns))
}

/// Replays `requests` in one thread through the layer calls.
fn replay(
    engine: &Engine,
    requests: &[Request],
    rec: &mut Recorder,
    parent: Option<usize>,
    layers: &mut Layers,
) -> Result<(), String> {
    for request in requests {
        let id = Some(request.id);
        let req = rec.open(parent, id);
        let (mut parts_ns, mut all_hit, mut tasks) = (0.0, true, 0u64);
        for (op, count) in &request.ops {
            let (program, outcome, compile_ns) = compile(engine, op, rec, Some(req), id, layers)?;
            all_hit &= outcome == CacheOutcome::Hit;
            let span = rec.open(Some(req), id);
            black_box(engine.launch_for(&program));
            let launch_ns = rec.close(span, "sim.launch") as f64;
            let span = rec.open(Some(req), id);
            let report = black_box(engine.simulate(&program));
            let sim_ns = rec.close(span, "sim.simulate") as f64;
            layers.sim_ns.push(sim_ns);
            layers.sim_tasks += report.grid_size as u64;
            tasks += (report.grid_size * count) as u64;
            parts_ns += compile_ns + sim_ns;
            layers.layer_ns += compile_ns + launch_ns + sim_ns;
        }
        let span = rec.open(Some(req), id);
        let plan = engine
            .try_plan_graph(
                request.ops.iter().map(|(op, count)| (op, *count)),
                CompileBudget::default(),
            )
            .map_err(|e| format!("planning request {} failed: {e}", request.id))?;
        let plan_ns = rec.close(span, "engine.plan") as f64;
        layers.plan_ns.push(plan_ns);
        if all_hit {
            layers.warm_parts_ns += parts_ns;
            layers.warm_plan_ns += plan_ns;
        }
        layers.request_tasks.push(tasks as f64);
        layers
            .plans
            .entry(request_shape_key(request))
            .or_insert(plan.ops);
        rec.close(req, "request");
    }
    Ok(())
}

/// Counter differences of a cache across one serve.
fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        computations: after.computations - before.computations,
        coalesced_waits: after.coalesced_waits - before.coalesced_waits,
        direct_inserts: after.direct_inserts - before.direct_inserts,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        entries: after.entries,
    }
}

/// Runs `w` traced: one traced set-up, replay, serve, co-launch timing
/// and warm restart, then tracing-overhead pairs for about `seconds`.
///
/// # Errors
///
/// A set-up, compile or I/O failure (gate failures are recorded in `gate`).
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    gate: &mut Gate,
) -> Result<Outcome, String> {
    let mut rec = Recorder::enabled();
    let mut layers = Layers::default();

    // offline + warm-up
    let root = rec.open(None, None);
    let span = rec.open(Some(root), None);
    let gemm = setup::generate(TemplateKind::Gemm);
    let offline_gemm_ns = rec.close(span, "offline.gemm") as f64;
    let span = rec.open(Some(root), None);
    let conv = setup::generate(TemplateKind::Conv);
    let offline_conv_ns = rec.close(span, "offline.conv") as f64;
    let kernels = gemm.kernels.len() + conv.kernels.len();
    let libs = Libraries { gemm, conv };
    let engine = libs.engine(w);
    let span = rec.open(Some(root), None);
    for op in w.warmup_ops() {
        compile(&engine, &op, &mut rec, Some(span), None, &mut layers)?;
    }
    rec.close(span, "warmup");
    rec.close(root, "setup");
    let unique = unique_warm_shapes(w);
    gate.engine_caches(&engine, unique, "traced set-up");

    let stream = w.stream(seed, 0);
    check_precompiled(w, std::slice::from_ref(&stream), gate);
    let reference = run::serve(&libs.warm_engine(w)?, w, &stream).report;
    gate.serve_report(&stream, &reference);

    // replay
    let replay_span = rec.open(None, None);
    replay(&engine, &stream, &mut rec, Some(replay_span), &mut layers)?;
    rec.close(replay_span, "replay");

    // serve: the traced engine when set-up precompiled every shape (so
    // its figures must equal the untraced serve's), a cold one otherwise
    let serve_engine = if w.precompiled() {
        Arc::clone(&engine)
    } else {
        libs.engine(w)
    };
    let before = serve_engine.gemm_compiler().cache_stats();
    let span = rec.open(None, None);
    let served = run::serve(&serve_engine, w, &stream);
    rec.close(span, "serving.serve");
    let cache = delta(serve_engine.gemm_compiler().cache_stats(), before);
    let report = &served.report;
    gate.serve_report(&stream, report);
    gate.engine_caches(&serve_engine, unique, "traced serve");
    if w.precompiled() {
        let traced = Virtual::of(w, report, stream.len());
        let untraced = Virtual::of(w, &reference, stream.len());
        gate.check(traced == untraced, || {
            format!("traced virtual figures {traced:?} differ from untraced {untraced:?}")
        });
    }

    // co-launch: every observed (shape, wave size) pair, timed once
    let executed: Vec<_> = report.records.iter().filter(|r| r.executed()).collect();
    let waves: f64 = executed
        .iter()
        .map(|r| 1.0 / r.batch_size.max(1) as f64)
        .sum();
    let pairs: BTreeSet<(u64, usize)> = executed
        .iter()
        .map(|r| (request_shape_key(&stream[r.id]), r.batch_size.max(1)))
        .collect();
    let span = rec.open(None, None);
    let mut wave_ns = Vec::new();
    for (key, size) in pairs {
        let ops = layers
            .plans
            .get(&key)
            .ok_or("a served shape was never planned by the replay")?;
        let wave = rec.open(Some(span), None);
        black_box(colaunch::wave_device_ns(&machine(), ops, size));
        wave_ns.push(rec.close(wave, "colaunch.wave") as f64);
    }
    rec.close(span, "colaunch");

    // persist
    let state_dir = out_dir.join(format!("state-{}-{}", w.name(), std::process::id()));
    let span = rec.open(None, None);
    let restart = run::warm_restart(
        &serve_engine,
        &libs,
        w,
        &state_dir,
        gate,
        &mut rec,
        Some(span),
    );
    rec.close(span, "persist");
    let _ = std::fs::remove_dir_all(&state_dir);
    let restart = restart?;
    gate.programs(&serve_engine, w.name());
    gate.numerics(&libs, w, seed);

    // tracing overhead: untraced and traced replays of a stream prefix on
    // identically warmed engines, in alternating order
    let prefix = &stream[..stream.len().min(OVERHEAD_REQUESTS)];
    let mut overhead_pct = Vec::new();
    let start = Instant::now();
    while overhead_pct.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut wall = [0.0f64; 2];
        for k in 0..2 {
            let traced = (k + overhead_pct.len()) % 2 == 1;
            let engine = libs.warm_engine(w)?;
            let mut rec = if traced {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            };
            let t = Instant::now();
            replay(&engine, prefix, &mut rec, None, &mut Layers::default())?;
            wall[usize::from(traced)] = t.elapsed().as_secs_f64();
        }
        overhead_pct.push((wall[1] - wall[0]) / wall[0] * 100.0);
    }

    let self_ns = rec.self_ns();
    let glue_ns: u64 = rec
        .spans()
        .iter()
        .enumerate()
        .filter(|(id, s)| *id == replay_span || s.name == "request")
        .map(|(id, _)| self_ns[id])
        .sum();
    let coverage = 1.0 - glue_ns as f64 / rec.spans()[replay_span].duration_ns() as f64;
    rec.write_jsonl(
        &out_dir.join(format!("spans-{}.jsonl", w.name())),
        &format!("{{\"workload\": \"{}\", \"seed\": {seed}}}", w.name()),
    )
    .map_err(|e| format!("writing spans: {e}"))?;

    let search_us: Vec<f64> = layers
        .computed
        .iter()
        .map(|(_, s)| s.search_ns as f64 / 1e3)
        .collect();
    let miss_overhead_us: Vec<f64> = layers
        .computed
        .iter()
        .map(|(ns, s)| (ns - s.search_ns as f64) / 1e3)
        .collect();
    let stat_mean = |f: fn(&SearchStats) -> usize| {
        mean(
            &layers
                .computed
                .iter()
                .map(|(_, s)| f(s) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let stat_sum = |f: fn(&SearchStats) -> usize| {
        layers.computed.iter().map(|(_, s)| f(s)).sum::<usize>() as f64
    };
    let serve_thread_ns = served.wall_s * 1e9 * WORKERS as f64;
    let sheds = |reason: ShedReason| {
        report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(reason))
            .count() as f64
    };
    let queue_us: Vec<f64> = executed.iter().map(|r| r.queue_ns / 1e3).collect();
    let plan_us: Vec<f64> = layers.plan_ns.iter().map(|ns| ns / 1e3).collect();
    let sim_us: Vec<f64> = layers.sim_ns.iter().map(|ns| ns / 1e3).collect();
    let counts = report.dispositions();
    let hit_rate = if cache.hits + cache.misses == 0 {
        0.0
    } else {
        cache.hits as f64 / (cache.hits + cache.misses) as f64
    };
    let metrics = vec![
        Metric::new("offline.gemm_ms", offline_gemm_ns / 1e6, "ms"),
        Metric::new("offline.conv_ms", offline_conv_ns / 1e6, "ms"),
        Metric::new("offline.kernels", kernels as f64, "count"),
        Metric::new("search.us_per_shape_p50", pct(&search_us, 0.5), "us"),
        Metric::new("search.us_per_shape_p99", pct(&search_us, 0.99), "us"),
        Metric::new(
            "search.strategies_evaluated_mean",
            stat_mean(|s| s.strategies_evaluated),
            "count",
        ),
        Metric::new(
            "search.strategies_pruned_mean",
            stat_mean(|s| s.strategies_pruned),
            "count",
        ),
        Metric::new("search.escalations", stat_sum(|s| s.escalations), "count"),
        Metric::new(
            "search.budget_exhausted",
            stat_sum(|s| s.budget_exhausted),
            "count",
        ),
        Metric::new("cache.hit_ns_p50", pct(&layers.hit_ns, 0.5), "ns"),
        Metric::new("cache.hit_ns_p99", pct(&layers.hit_ns, 0.99), "ns"),
        Metric::new(
            "cache.miss_overhead_us_p50",
            pct(&miss_overhead_us, 0.5),
            "us",
        ),
        Metric::new("cache.hit_rate", hit_rate, "ratio"),
        Metric::new("cache.computations", cache.computations as f64, "count"),
        Metric::new("cache.evictions", cache.evictions as f64, "count"),
        Metric::new(
            "cache.coalesced_waits",
            cache.coalesced_waits as f64,
            "count",
        ),
        Metric::new(
            "cache.wait_ms",
            report
                .records
                .iter()
                .map(|r| r.cache_wait_ns as f64)
                .sum::<f64>()
                / 1e6,
            "ms",
        ),
        Metric::new("sim.us_per_launch_p50", pct(&sim_us, 0.5), "us"),
        Metric::new("sim.us_per_launch_p99", pct(&sim_us, 0.99), "us"),
        Metric::new(
            "sim.mtasks_per_s",
            layers.sim_tasks as f64 / layers.sim_ns.iter().sum::<f64>() * 1e3,
            "Mtasks/s",
        ),
        Metric::new(
            "sim.tasks_per_request",
            mean(&layers.request_tasks),
            "count",
        ),
        Metric::new("engine.plan_us_p50", pct(&plan_us, 0.5), "us"),
        Metric::new("engine.plan_us_p99", pct(&plan_us, 0.99), "us"),
        Metric::new(
            "engine.plan_self_share",
            1.0 - layers.warm_parts_ns / layers.warm_plan_ns,
            "ratio",
        ),
        Metric::new(
            "serving.host_us_per_request",
            serve_thread_ns / 1e3 / stream.len() as f64,
            "us",
        ),
        Metric::new(
            "serving.unattributed_share",
            1.0 - layers.layer_ns / serve_thread_ns,
            "ratio",
        ),
        Metric::new("serving.queue_us_mean", mean(&queue_us), "us"),
        Metric::new("serving.mean_batch_size", report.mean_batch_size(), "count"),
        Metric::new(
            "serving.shed_deadline_at_enqueue",
            sheds(ShedReason::DeadlineAtEnqueue),
            "count",
        ),
        Metric::new(
            "serving.shed_deadline_at_dispatch",
            sheds(ShedReason::DeadlineAtDispatch),
            "count",
        ),
        Metric::new(
            "serving.shed_queue_full",
            sheds(ShedReason::QueueFull),
            "count",
        ),
        Metric::new(
            "serving.shed_tenant_throttled",
            sheds(ShedReason::TenantThrottled),
            "count",
        ),
        Metric::new(
            "serving.shed_draining",
            sheds(ShedReason::Draining),
            "count",
        ),
        Metric::new("colaunch.waves", waves, "count"),
        Metric::new(
            "colaunch.mean_wave_members",
            executed.len() as f64 / waves,
            "count",
        ),
        Metric::new("colaunch.wave_sim_us_p50", pct(&wave_ns, 0.5) / 1e3, "us"),
        Metric::new("persist.save_ms", restart.save_s * 1e3, "ms"),
        Metric::new("persist.restore_ms", restart.restore_s * 1e3, "ms"),
        Metric::new(
            "persist.bytes_per_program",
            restart.bytes as f64 / restart.programs as f64,
            "bytes",
        ),
        Metric::new(
            "persist.restore_us_per_program",
            restart.restore_s * 1e6 / restart.programs as f64,
            "us",
        ),
        Metric::new("trace.overhead_pct", median(&overhead_pct), "%"),
        Metric::new("trace.coverage", coverage, "ratio"),
    ];
    let replayed = stream.len() + prefix.len() * 2 * overhead_pct.len();
    Ok(Outcome {
        metrics,
        attempted: 2 * stream.len() + replayed,
        failed: counts.shed
            + counts.failed
            + reference.dispositions().shed
            + reference.dispositions().failed,
    })
}
