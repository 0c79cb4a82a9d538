//! The serving runtime: one dispatcher, a two-phase replay with two
//! device-placement rules.
//!
//! * **Phase A — parallel compile.** Compile threads — one per worker,
//!   but no more than the host has cores — race an atomic cursor over the
//!   arrival-ordered stream. Each request first meets pre-admission: one
//!   that arrived past the drain point or after its own deadline is shed
//!   and never compiled. Every other request runs the compile pipeline ([`ServingRuntime::compile_request`]: breaker check,
//!   panic-isolated budgeted compile, degraded fallback, deterministic
//!   device-fault retry schedule). The verdict — shed, or compiled with
//!   its outcome — is stored per request; phase B only reads it.
//! * **Phase B — single-threaded replay** on virtual timestamps, so the
//!   timeline is a function of the stream and the measured compile times,
//!   never of thread scheduling. Step 1 walks arrivals in order through
//!   the shed ladder (deadline → tenant quota → queue bound) and places
//!   each admitted request on the earliest-free worker slot. Then the
//!   device is placed by one of two rules:
//!   * **solo** (default) — the request takes the earliest-free device at
//!     its ready time and holds its worker until it finishes, as a wave of
//!     one;
//!   * **batched** ([`ServingOptions::batching`]) — the worker is released
//!     at compile-done; ready requests enter shape buckets
//!     ([`super::batching`]) and flushed buckets are packed into co-launch
//!     waves ([`super::colaunch`]) that share one device launch.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accel_sim::{Cluster, FaultPlan};
use mikpoly_telemetry::span::current_thread_lane;
use mikpoly_telemetry::{Clock, ClockNs, Lane, SpanRecord, Telemetry};

use super::admission::{FairMeter, TenantPolicy, WaitQueue};
use super::batching::{form_batches, BatchingOptions, ReadyEvent};
use super::colaunch::{plan_demand, plan_waves, warp_capacity, wave_device_ns};
use super::lifecycle::{drained_count, DrainReport, Lifecycle};
use super::report::{
    describe_serving_metrics, emit_request_telemetry, EmitContext, ServingReport, WorkerStats,
};
use super::request::{
    request_shape_key, shed_record, Disposition, Request, RequestRecord, ShedReason, NO_SLOT,
};
use crate::compiler::CompileBudget;
use crate::engine::{Engine, GraphPlan};
use crate::resilience::{BreakerDecision, BreakerPolicy, CircuitBreaker, RetryPolicy};

/// Fault-tolerance and dispatch policy for one [`ServingRuntime`]. The
/// default is the fault-free solo fast path: no deadlines enforced beyond
/// the requests' own, unbounded queue, no breaker, no injected faults,
/// no batching, no tenant quotas.
#[derive(Debug, Clone, Default)]
pub struct ServingOptions {
    /// Bound on requests admitted but waiting for a worker; `None` is
    /// unbounded. A request that would wait behind a full queue is shed.
    pub queue_capacity: Option<usize>,
    /// Per-request real-time compile budget. The staged search degrades
    /// to its incumbent (and then to the search-free fallback) rather
    /// than overrun it.
    pub compile_budget: Option<Duration>,
    /// Retry schedule for transient device faults.
    pub retry: RetryPolicy,
    /// Per-shape circuit breaker for persistent compile failures.
    pub breaker: Option<BreakerPolicy>,
    /// Deterministic fault-injection plan, installed into the engine's
    /// compilers for the duration of each [`ServingRuntime::serve`] call.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Continuous batching + co-launch. `None` (default) places each
    /// request on a device by itself (solo).
    pub batching: Option<BatchingOptions>,
    /// Per-tenant quotas and fair-share weights. `None` (default) treats
    /// the stream as single-tenant.
    pub tenancy: Option<TenantPolicy>,
}

/// What the parallel (pre-dispatch) compile phase produced.
struct CompileOutcome {
    /// The compiled forward pass, with its per-op launches retained only
    /// under batching; `None` when both the full path and the degraded
    /// fallback failed.
    plan: Option<GraphPlan>,
    /// Real wall-clock of the whole compile phase, ns (the graph's own
    /// measurement on the clean path; the measured window including the
    /// failed attempt when the fallback ran).
    compile_ns: u128,
    /// Device-fault retries the request will pay for.
    retries: u32,
    /// All retries faulted too: the request fails after occupying the
    /// device for every attempt.
    device_failed: bool,
    /// Total virtual device time across attempts and backoffs, ns.
    total_device_ns: f64,
    /// Breaker transition this compile triggered or rode, if any.
    breaker_event: Option<&'static str>,
}

/// Phase A's verdict on one request.
enum Verdict {
    /// Shed at pre-admission, before any compile work.
    Shed(ShedReason),
    /// Compiled; phase B admits or sheds it on the virtual timeline.
    Compiled(CompileOutcome),
}

/// A compiled request that passed admission and awaits its device run.
struct Admitted<'a> {
    request: &'a Request,
    worker: usize,
    start_ns: f64,
    ready_ns: f64,
    compile: ClockNs,
    plan: GraphPlan,
    retries: u32,
    device_failed: bool,
    /// Virtual device time across attempts and backoffs, ns.
    total_device_ns: f64,
    breaker_event: Option<&'static str>,
}

impl Admitted<'_> {
    /// The record of the executed request: its device run began on
    /// `device` at `device_start` (dispatch latency included) and took
    /// `run_ns` — the solo run with its retries, or the shared wave — plus
    /// `extra_ns` charged to this request alone.
    fn record(
        &self,
        device: usize,
        device_start: f64,
        run_ns: f64,
        extra_ns: f64,
        batch_size: usize,
        dispatch_ns: f64,
    ) -> RequestRecord {
        let disposition = if self.device_failed {
            Disposition::Failed
        } else if self.plan.run.degraded > 0 {
            Disposition::Degraded
        } else {
            Disposition::Completed
        };
        RequestRecord {
            id: self.request.id,
            tenant: self.request.tenant,
            worker: self.worker,
            device,
            queue_ns: (self.start_ns - self.request.arrival_ns)
                + (device_start - dispatch_ns - self.ready_ns),
            compile: self.compile,
            search_ns: self.plan.run.search_ns,
            cache_wait_ns: self.plan.run.cache_wait_ns,
            device_ns: run_ns + dispatch_ns + extra_ns,
            finish_ns: device_start + run_ns + extra_ns,
            disposition,
            shed_reason: None,
            retries: self.retries,
            deadline_ns: self.request.deadline_ns,
            breaker_event: self.breaker_event,
            batch_size,
        }
    }
}

/// A multi-worker request executor over a shared engine and a simulated
/// device pool.
pub struct ServingRuntime {
    engine: Arc<Engine>,
    cluster: Cluster,
    workers: usize,
    telemetry: Arc<Telemetry>,
    options: ServingOptions,
    breaker: Option<CircuitBreaker>,
    lifecycle: Arc<Lifecycle>,
}

impl ServingRuntime {
    /// Creates a runtime with `workers` worker slots over `cluster`'s
    /// devices. Requests compile on `workers` threads, capped at the
    /// host's core count. Telemetry defaults to the engine's handle (so an engine built with
    /// [`Engine::offline_with_telemetry`] gets serving spans for free).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or the cluster's device model differs
    /// from the engine's machine (programs would be timed on the wrong
    /// accelerator).
    pub fn new(engine: Arc<Engine>, cluster: Cluster, workers: usize) -> Self {
        assert!(workers > 0, "serving needs at least one worker");
        assert_eq!(
            cluster.machine.name,
            engine.machine().name,
            "device pool and engine must model the same machine"
        );
        let telemetry = Arc::clone(engine.telemetry());
        Self {
            engine,
            cluster,
            workers,
            telemetry,
            options: ServingOptions::default(),
            breaker: None,
            lifecycle: Arc::new(Lifecycle::new()),
        }
    }

    /// Replaces the telemetry handle (builder style).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the fault-tolerance and dispatch policy (builder style).
    /// Creates the per-shape circuit breaker when the options ask for
    /// one.
    #[must_use]
    pub fn with_options(mut self, options: ServingOptions) -> Self {
        self.breaker = options.breaker.map(CircuitBreaker::new);
        self.options = options;
        self
    }

    /// The telemetry handle serving spans and metrics are recorded into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Worker-slot count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The fault-tolerance policy in force.
    pub fn options(&self) -> &ServingOptions {
        &self.options
    }

    /// The per-shape circuit breaker, when enabled.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// The drain handle. Clone it out to trigger a graceful shutdown
    /// from another thread ([`Lifecycle::request_drain`]) or pin a
    /// deterministic virtual drain point before serving
    /// ([`Lifecycle::request_drain_at`]); requests arriving past the
    /// drain point are shed as [`ShedReason::Draining`].
    pub fn lifecycle(&self) -> &Arc<Lifecycle> {
        &self.lifecycle
    }

    /// Finalizes a graceful drain after [`ServingRuntime::serve`]
    /// returns: closes admission for good, persists the warm program
    /// caches into `snapshot_dir` (atomic generation commit) when one is
    /// given, and accounts for the run — every admitted request's
    /// disposition, the draining sheds, and the retained
    /// flight-recorder chains. A persist failure is reported in the
    /// [`DrainReport`], never panicked on: dispositions are not held
    /// hostage by disk.
    pub fn drain(
        &self,
        report: &ServingReport,
        snapshot_dir: Option<&std::path::Path>,
    ) -> DrainReport {
        self.lifecycle.request_drain();
        let dispositions = report.dispositions();
        let drained = drained_count(&report.records);
        let (persisted_generation, persist_error) = match snapshot_dir {
            Some(dir) => match self.engine.save_program_caches(dir) {
                Ok(generation) => (Some(generation), None),
                Err(e) => (None, Some(e.to_string())),
            },
            None => (None, None),
        };
        let chains_retained = self.telemetry.recorder().retained();
        if self.telemetry.is_enabled() {
            let registry = self.telemetry.registry();
            registry.describe(
                "serving.drain.drained",
                "Requests shed because admission was closed by a graceful drain",
            );
            registry.describe(
                "serving.drain.generation",
                "Warm-state generation committed by the drain's final persist",
            );
            registry
                .counter("serving.drain.drained")
                .add(drained as u64);
            if let Some(generation) = persisted_generation {
                registry
                    .gauge("serving.drain.generation")
                    .set(generation as f64);
            }
        }
        DrainReport {
            drained,
            dispositions,
            chains_retained,
            persisted_generation,
            persist_error,
        }
    }

    /// Whether a tenant policy is configured (gates per-tenant metrics).
    fn tenancy(&self) -> bool {
        self.options.tenancy.is_some()
    }

    /// The tenant's waiting-slot bound under the configured policy.
    fn tenant_waiting_cap(&self, request: &Request) -> Option<usize> {
        self.options
            .tenancy
            .as_ref()
            .and_then(|p| p.max_waiting_for(request.tenant))
    }

    /// The parallel compile phase for one admitted request: breaker check,
    /// panic-isolated full compile under the budget, degraded fallback,
    /// and the deterministic device-fault retry schedule.
    fn compile_request(&self, request: &Request) -> CompileOutcome {
        let key = request_shape_key(request);
        let breaker = self.breaker.as_ref();
        let decision = breaker.map_or(BreakerDecision::Allow, |b| b.check(key, request.arrival_ns));
        let degrade_only = decision == BreakerDecision::Degrade;
        let compile_start = Instant::now();
        let budget = CompileBudget {
            deadline: self
                .options
                .compile_budget
                .map(|limit| compile_start + limit),
            degrade_only,
        };
        // Only co-launch waves read the per-op launches; a solo replay
        // reads just the aggregate run, so it never builds them.
        let keep_ops = self.options.batching.is_some();
        let run = |budget: CompileBudget| {
            catch_unwind(AssertUnwindSafe(|| {
                let ops = request.ops.iter().map(|(op, count)| (op, *count));
                if keep_ops {
                    self.engine.try_plan_graph(ops, budget)
                } else {
                    let run = self.engine.try_run_graph(ops, budget)?;
                    Ok(GraphPlan {
                        run,
                        ops: Vec::new(),
                    })
                }
            }))
        };
        // Breaker transitions are recorded onto the request's chain: a
        // `Degrade` decision short-circuits, a tripping failure opens,
        // and a successful half-open probe closes.
        let mut breaker_event = degrade_only.then_some("short-circuit");
        let (plan, fell_back) = match run(budget) {
            Ok(Ok(plan)) => {
                if !degrade_only {
                    if let Some(b) = breaker {
                        if b.record_success(key) {
                            breaker_event = Some("closed");
                        }
                    }
                }
                (Some(plan), false)
            }
            // Typed failure or panic: both feed the breaker and fall
            // through to the search-free fallback, itself panic-isolated
            // so a poisoned shape cannot kill the worker.
            Ok(Err(_)) | Err(_) => {
                if !degrade_only {
                    if let Some(b) = breaker {
                        if b.record_failure(key, request.arrival_ns) {
                            breaker_event = Some("opened");
                        }
                    }
                }
                let fallback = CompileBudget {
                    deadline: None,
                    degrade_only: true,
                };
                match run(fallback) {
                    Ok(Ok(plan)) => (Some(plan), true),
                    Ok(Err(_)) | Err(_) => (None, true),
                }
            }
        };
        let compile_ns = match (&plan, fell_back) {
            (Some(plan), false) => plan.run.compile_ns,
            _ => compile_start.elapsed().as_nanos(),
        };
        // Device faults are a pure function of (plan, request id, attempt),
        // so the whole retry schedule — and its virtual cost — is known
        // before the replay places the request on a device.
        let mut retries = 0u32;
        let mut device_failed = false;
        let mut total_device_ns = plan.as_ref().map_or(0.0, |p| p.run.device_ns);
        if let (Some(plan), Some(fault_plan)) = (&plan, self.options.fault_plan.as_deref()) {
            let retry = self.options.retry;
            let mut attempt = 0u32;
            while fault_plan.device_fault(request.id as u64, attempt) {
                if attempt >= retry.max_retries {
                    device_failed = true;
                    break;
                }
                total_device_ns += retry.backoff_for(attempt) + plan.run.device_ns;
                retries += 1;
                attempt += 1;
            }
        }
        CompileOutcome {
            plan,
            compile_ns,
            retries,
            device_failed,
            total_device_ns,
            breaker_event,
        }
    }

    /// Serves `requests` (any order; they are dispatched by arrival time)
    /// to completion and reports per-request latency decompositions plus
    /// worker and cache counters. Every request terminates with exactly
    /// one [`Disposition`].
    ///
    /// Phase A compiles every request in parallel across threads.
    /// Phase B replays the virtual timeline on this thread: admission and
    /// worker placement in arrival order, then device placement — straight
    /// onto the earliest-free device (solo), or through shape buckets and
    /// co-launch waves when [`ServingOptions::batching`] is set.
    ///
    /// With telemetry enabled, the two phases are recorded as the
    /// real-clock host spans `serving.compile_phase` (arrival ordering
    /// plus phase A) and `serving.replay` (phase B plus the report), which
    /// together cover the whole call.
    pub fn serve(&self, requests: &[Request]) -> ServingReport {
        let telemetry = &self.telemetry;
        let phase_start = telemetry.is_enabled().then(|| telemetry.now_ns());
        if let Some(plan) = &self.options.fault_plan {
            self.engine.set_fault_plan(Some(Arc::clone(plan)));
        }
        let batching = self.options.batching;
        let mut ordered: Vec<&Request> = requests.iter().collect();
        ordered.sort_by(|a, b| f64::total_cmp(&a.arrival_ns, &b.arrival_ns));
        let verdicts = self.compile_phase(&ordered);
        let replay_start = phase_start.map(|_| telemetry.now_ns());

        // Dispatch over the interconnect only when the pool is remote.
        let dispatch_ns = if self.cluster.devices > 1 {
            self.cluster.interconnect.latency_ns
        } else {
            0.0
        };
        let tenancy = self.tenancy();
        let mut records: Vec<RequestRecord> = Vec::with_capacity(ordered.len());
        // Files a request's one record and emits its telemetry.
        let mut settle =
            |request: &Request, record: RequestRecord, start: f64, exec: Option<(f64, f64)>| {
                if telemetry.is_enabled() {
                    let ctx = EmitContext {
                        start,
                        exec,
                        dispatch_ns,
                        tenancy,
                        batched: batching.is_some(),
                    };
                    emit_request_telemetry(telemetry, request, &record, &ctx);
                }
                records.push(record);
            };

        // Phase B step 1: admission and worker placement in arrival
        // order. Worker slots and devices are virtual free times,
        // decoupled from the OS threads that compiled in phase A, so the
        // timeline cannot be skewed by thread scheduling.
        let mut worker_pool = vec![0.0f64; self.workers];
        let mut device_pool = vec![0.0f64; self.cluster.devices];
        let mut waiting = WaitQueue::new();
        let mut pending: Vec<Admitted<'_>> = Vec::new();
        for (&request, verdict) in ordered.iter().zip(verdicts) {
            let outcome = match verdict {
                Verdict::Shed(reason) => {
                    let record = shed_record(request, reason);
                    settle(request, record, request.arrival_ns, None);
                    continue;
                }
                Verdict::Compiled(outcome) => outcome,
            };
            waiting.expire(request.arrival_ns);
            let (worker, worker_free) = earliest_free(&worker_pool);
            let start = request.arrival_ns.max(worker_free);
            // The shed ladder, in its fixed order: deadline, then tenant
            // quota, then the global queue bound. Shed requests consume
            // no virtual resources.
            let waits = start > request.arrival_ns;
            let shed = if request.deadline_ns.is_some_and(|d| start > d) {
                Some(ShedReason::DeadlineAtDispatch)
            } else if waits
                && self
                    .tenant_waiting_cap(request)
                    .is_some_and(|cap| waiting.tenant_len(request.tenant) >= cap)
            {
                Some(ShedReason::TenantThrottled)
            } else if waits
                && self
                    .options
                    .queue_capacity
                    .is_some_and(|cap| waiting.len() >= cap)
            {
                Some(ShedReason::QueueFull)
            } else {
                if waits {
                    waiting.push(start, request.tenant);
                }
                None
            };
            if let Some(reason) = shed {
                let record = shed_record(request, reason);
                settle(request, record, request.arrival_ns, None);
                continue;
            }
            // The worker is genuinely occupied for the real compile
            // wall-clock while virtual arrivals keep accumulating — the
            // one sanctioned projection of real time onto the timeline.
            let compile = ClockNs::real(outcome.compile_ns as f64);
            let ready = start + compile.onto_virtual_timeline();
            let Some(plan) = outcome.plan else {
                // Both compile paths failed: the worker was occupied for
                // the compile window; no device is ever dispatched.
                worker_pool[worker] = ready;
                let record = RequestRecord {
                    id: request.id,
                    tenant: request.tenant,
                    worker,
                    device: NO_SLOT,
                    queue_ns: start - request.arrival_ns,
                    compile,
                    search_ns: 0,
                    cache_wait_ns: 0,
                    device_ns: 0.0,
                    finish_ns: ready,
                    disposition: Disposition::Failed,
                    shed_reason: None,
                    retries: outcome.retries,
                    deadline_ns: request.deadline_ns,
                    breaker_event: outcome.breaker_event,
                    batch_size: 0,
                };
                settle(request, record, start, None);
                continue;
            };
            let admitted = Admitted {
                request,
                worker,
                start_ns: start,
                ready_ns: ready,
                compile,
                plan,
                retries: outcome.retries,
                device_failed: outcome.device_failed,
                total_device_ns: outcome.total_device_ns,
                breaker_event: outcome.breaker_event,
            };
            if batching.is_some() {
                // Continuous batching releases the worker at compile-done;
                // steps 2 and 3 place the device run.
                worker_pool[worker] = ready;
                pending.push(admitted);
            } else {
                // Solo: the request takes the earliest-free device at its
                // ready time and holds its worker until it finishes.
                let (device, device_free) = earliest_free(&device_pool);
                let device_start = ready.max(device_free) + dispatch_ns;
                let record = admitted.record(
                    device,
                    device_start,
                    admitted.total_device_ns,
                    0.0,
                    1,
                    dispatch_ns,
                );
                device_pool[device] = record.finish_ns;
                worker_pool[worker] = record.finish_ns;
                settle(request, record, start, Some((ready, device_start)));
            }
        }

        if let Some(batching) = batching {
            // Phase B step 2: shape-bucket formation over ready events.
            let mut events: Vec<ReadyEvent> = pending
                .iter()
                .enumerate()
                .map(|(index, p)| ReadyEvent {
                    pending: index,
                    id: p.request.id,
                    ready_ns: p.ready_ns,
                    shape_key: request_shape_key(p.request),
                })
                .collect();
            events.sort_by(|a, b| f64::total_cmp(&a.ready_ns, &b.ready_ns).then(a.id.cmp(&b.id)));
            let flushes = form_batches(&events, batching);

            // Phase B step 3: co-launch waves onto the device pool in
            // flush order. Bucket members run identical programs, so a
            // wave of k members is k merged copies of one launch
            // sequence; its simulated duration is cached per (shape, k).
            let policy = self.options.tenancy.clone().unwrap_or_default();
            let capacity = warp_capacity(&self.cluster.machine);
            let mut meter = FairMeter::new();
            let mut wave_cache: HashMap<(u64, usize), f64> = HashMap::new();
            for flush in flushes {
                let mut members = flush.members;
                meter.order_by_fairness(&policy, &mut members, |index| {
                    pending[index].request.tenant
                });
                let demands: Vec<u64> = members
                    .iter()
                    .map(|&index| plan_demand(&pending[index].plan.ops))
                    .collect();
                for wave in plan_waves(&demands, capacity) {
                    let k = wave.len();
                    let lead = &pending[members[wave[0]]];
                    let wave_ns = *wave_cache.entry((flush.shape_key, k)).or_insert_with(|| {
                        wave_device_ns(&self.cluster.machine, &lead.plan.ops, k)
                    });
                    let (device, device_free) = earliest_free(&device_pool);
                    let wave_start = flush.flush_ns.max(device_free) + dispatch_ns;
                    device_pool[device] = wave_start + wave_ns;
                    if telemetry.is_enabled() {
                        let registry = telemetry.registry();
                        registry.counter("serving.waves").inc();
                        let load: u64 = wave.iter().map(|&w| demands[w]).sum();
                        registry
                            .histogram("serving.wave_occupancy_pct", Clock::Virtual)
                            .record_f64(100.0 * load as f64 / capacity.max(1) as f64);
                    }
                    for &w in &wave {
                        let p = &pending[members[w]];
                        // Fault backoffs and re-runs are charged to the
                        // member, not to the shared wave.
                        let retry_extra_ns = p.total_device_ns - p.plan.run.device_ns;
                        let record =
                            p.record(device, wave_start, wave_ns, retry_extra_ns, k, dispatch_ns);
                        meter.charge(p.request.tenant, wave_ns / k as f64);
                        settle(
                            p.request,
                            record,
                            p.start_ns,
                            Some((p.ready_ns, wave_start)),
                        );
                    }
                }
            }
        }

        let first_arrival = ordered.first().map_or(0.0, |r| r.arrival_ns);
        debug_assert_eq!(records.len(), ordered.len(), "one record per request");
        let report = self.build_report(records, first_arrival, batching.is_none());
        if let (Some(start), Some(replay)) = (phase_start, replay_start) {
            // Recorded last, so the replay's many timeline spans cannot
            // push them out of the bounded span ring.
            let lane = Lane::HostThread(current_thread_lane());
            let end = telemetry.now_ns();
            telemetry.record_span(SpanRecord::complete(
                "serving.compile_phase",
                lane,
                start,
                replay - start,
            ));
            telemetry.record_span(SpanRecord::complete(
                "serving.replay",
                lane,
                replay,
                end - replay,
            ));
        }
        report
    }

    /// Phase A: every request that passes pre-admission is compiled, in
    /// parallel across the compile threads, and the verdicts come back in
    /// `ordered` order. A request that arrived past the drain point or
    /// after its own deadline is never compiled at all. Without batching
    /// the replay reads only each plan's [`GraphRun`](crate::GraphRun),
    /// so [`ServingRuntime::compile_request`] builds no per-op launches.
    fn compile_phase(&self, ordered: &[&Request]) -> impl Iterator<Item = Verdict> {
        // No more threads than cores: time-sliced threads would charge
        // their descheduled time to the timeline as compile wall-clock.
        // The virtual worker slots of phase B are unaffected.
        let threads = std::thread::available_parallelism()
            .map_or(self.workers, |cores| self.workers.min(cores.get()));
        let share = ordered.len() / threads + 1;
        let cursor = &AtomicUsize::new(0);
        let per_thread: Vec<Vec<(usize, Verdict)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut mine = Vec::with_capacity(share);
                        loop {
                            let index = cursor.fetch_add(1, Ordering::SeqCst);
                            let Some(&request) = ordered.get(index) else {
                                break mine;
                            };
                            let verdict = if self.lifecycle.draining_at(request.arrival_ns) {
                                Verdict::Shed(ShedReason::Draining)
                            } else if request.deadline_ns.is_some_and(|d| d <= request.arrival_ns) {
                                Verdict::Shed(ShedReason::DeadlineAtEnqueue)
                            } else {
                                Verdict::Compiled(self.compile_request(request))
                            };
                            mine.push((index, verdict));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // Compiles are panic-isolated; if a worker dies anyway,
                    // surface the panic rather than losing its requests.
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        // Each worker's list is in cursor order, so merging the lists
        // restores arrival order without a second copy of the verdicts.
        let mut lists: Vec<_> = per_thread.into_iter().map(Vec::into_iter).collect();
        std::iter::from_fn(move || {
            let next = lists.iter_mut().min_by_key(|list| {
                list.as_slice()
                    .first()
                    .map_or(usize::MAX, |&(index, _)| index)
            })?;
            next.next().map(|(_, verdict)| verdict)
        })
    }

    /// The shared reporting tail: makespan, per-worker accounting, cache
    /// counters, and the collector-style metric export.
    ///
    /// `device_on_worker` states whether workers held their requests
    /// through device execution (solo) or only through compile (batched);
    /// worker busy time follows.
    fn build_report(
        &self,
        mut records: Vec<RequestRecord>,
        first_arrival: f64,
        device_on_worker: bool,
    ) -> ServingReport {
        let last_finish = records
            .iter()
            .map(|r| r.finish_ns)
            .fold(first_arrival, f64::max);
        let makespan_ns = (last_finish - first_arrival).max(f64::MIN_POSITIVE);
        records.sort_by_key(|r| r.id);
        let workers = (0..self.workers)
            .map(|worker| {
                let mine = records.iter().filter(|r| r.worker == worker);
                let busy_ns = mine
                    .clone()
                    .map(|r| {
                        let device = if device_on_worker { r.device_ns } else { 0.0 };
                        r.compile.onto_virtual_timeline() + device
                    })
                    .sum::<f64>();
                WorkerStats {
                    worker,
                    requests: mine.count(),
                    busy_ns,
                    utilization: busy_ns / makespan_ns,
                }
            })
            .collect();
        let cache = self
            .engine
            .gemm_compiler()
            .cache_stats()
            .merged(self.engine.conv_compiler().cache_stats());
        let breaker_opens = self.breaker.as_ref().map_or(0, CircuitBreaker::opens);
        if self.telemetry.is_enabled() {
            let registry = self.telemetry.registry();
            // Collector-style export: the registry's cache.* counters are
            // overwritten with the caches' own (authoritative) atomics, so
            // a metrics snapshot taken now exactly equals `cache`.
            cache.export_to(registry);
            registry.gauge("serving.workers").set(self.workers as f64);
            registry
                .gauge("serving.devices")
                .set(self.cluster.devices as f64);
            registry.gauge("serving.makespan_ms").set(makespan_ns / 1e6);
            registry
                .gauge("serving.throughput_rps")
                .set(records.len() as f64 / (makespan_ns / 1e9));
            registry
                .gauge("serving.breaker_opens")
                .set(breaker_opens as f64);
            describe_serving_metrics(registry);
            self.telemetry.export_health();
        }
        ServingReport {
            records,
            workers,
            cache,
            makespan_ns,
            breaker_opens,
        }
    }
}

/// The index and virtual free time of the earliest-free pool slot (the
/// last one on a tie). Phase B places both workers and devices with it.
/// An empty pool — excluded by the constructor asserts — yields the
/// infinity sentinel.
fn earliest_free(pool: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (slot, &free_at) in pool.iter().enumerate() {
        if free_at <= best.1 {
            best = (slot, free_at);
        }
    }
    best
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::admission::TenantQuota;
    use super::super::request::poisson_arrivals;
    use super::*;
    use crate::offline::OfflineOptions;
    use accel_sim::{Interconnect, MachineModel};
    use tensor_ir::{GemmShape, Operator};

    fn engine() -> Arc<Engine> {
        let mut o = OfflineOptions::fast();
        o.n_gen = 4;
        Arc::new(Engine::offline(MachineModel::a100(), &o))
    }

    fn local_cluster(engine: &Engine) -> Cluster {
        Cluster::new(engine.machine().clone(), 1, Interconnect::nvlink3())
    }

    fn stream(n: usize, gap: f64) -> Vec<Request> {
        let shapes = [(256, 256, 256), (777, 512, 256), (64, 64, 64)];
        poisson_arrivals(n, gap, 7)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let (m, nn, k) = shapes[i % shapes.len()];
                Request::single(i, t, Operator::gemm(GemmShape::new(m, nn, k)))
            })
            .collect()
    }

    #[test]
    fn decomposition_adds_up_and_all_requests_complete() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime =
            ServingRuntime::new(engine, cluster, 2).with_telemetry(Arc::clone(&telemetry));
        let requests = stream(24, 50_000.0);
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 24);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.queue_ns >= -1e-6, "negative queue: {r:?}");
            assert!(r.device_ns > 0.0);
            assert_eq!(r.compile.clock(), Clock::Real);
            assert_eq!(r.disposition, Disposition::Completed);
            assert!(r.executed());
            assert_eq!(r.batch_size, 1, "solo records are singleton waves");
            assert!((r.timeline_total_ns() - (r.finish_ns - requests[i].arrival_ns)).abs() < 1e-3);
        }
        // 3 unique shapes → 3 polymerizations, regardless of worker count.
        assert_eq!(report.cache.computations, 3);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers.iter().map(|w| w.requests).sum::<usize>(), 24);
        let counts = report.dispositions();
        assert_eq!(counts.completed, 24);
        assert_eq!(counts.total(), 24);
        assert_eq!(report.breaker_opens, 0);
        // Telemetry: every request got queue/request/compile/device spans,
        // and the exported cache counters equal the report's snapshot.
        let spans = telemetry.drain_spans();
        for name in [
            "serving.queue",
            "serving.request",
            "serving.compile",
            "serving.device",
        ] {
            let count = spans.iter().filter(|s| s.name == name).count();
            assert_eq!(count, 24, "{name}: {count} spans");
        }
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(report.cache.hits));
        assert_eq!(
            snap.counter("cache.computations"),
            Some(report.cache.computations)
        );
        assert_eq!(
            snap.counter("cache.coalesced_waits"),
            Some(report.cache.coalesced_waits)
        );
        assert_eq!(snap.counter("serving.requests"), Some(24));
        assert_eq!(snap.counter("serving.completed"), Some(24));
        // Single-tenant stream without a policy: no per-tenant counters.
        assert_eq!(snap.counter("serving.tenant.0.requests"), None);
        let summary = report.latency_summary();
        assert_eq!(summary.total.count, 24);
        assert_eq!(summary.compile.clock, Clock::Real);
        assert_eq!(summary.total.clock, Clock::Virtual);
    }

    #[test]
    fn more_workers_do_not_reduce_saturated_throughput() {
        // Near-zero inter-arrival gap = saturating load: service is the
        // bottleneck, so throughput must improve with workers.
        // The device pool stays fixed while the worker count varies, so
        // the comparison isolates host-side parallelism; the cache is
        // warmed first so real compile wall-clock (identical work, but
        // paid once per engine) does not blur the virtual-time comparison.
        let requests = stream(48, 1.0);
        let mut last = 0.0;
        for workers in [1usize, 2, 4] {
            let engine = engine();
            for request in &requests {
                for (op, _) in &request.ops {
                    engine.run_operator(op);
                }
            }
            let cluster = Cluster::new(engine.machine().clone(), 4, Interconnect::nvlink3());
            let report = ServingRuntime::new(engine, cluster, workers).serve(&requests);
            let rps = report.throughput_rps();
            assert!(
                rps >= last * 0.99,
                "{workers} workers: {rps} rps after {last}"
            );
            last = rps;
        }
    }

    #[test]
    fn expired_deadline_requests_are_shed_without_compiling() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let runtime = ServingRuntime::new(engine, cluster, 2);
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                let arrival = i as f64 * 10_000.0;
                Request::single(i, arrival, Operator::gemm(GemmShape::new(256, 256, 256)))
                    .with_deadline(arrival - 1.0)
            })
            .collect();
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 6);
        for r in &report.records {
            assert_eq!(r.disposition, Disposition::Shed);
            assert_eq!(r.shed_reason, Some(ShedReason::DeadlineAtEnqueue));
            assert!(!r.executed());
            assert_eq!(r.compile.real_ns(), 0.0);
        }
        // The whole point: a request shed at enqueue is never compiled.
        assert_eq!(report.cache.computations, 0);
        assert_eq!(report.dispositions().shed, 6);
        assert_eq!(report.goodput_rps(), 0.0);
    }

    #[test]
    fn bounded_queue_sheds_bursts_and_late_starts_shed_on_deadline() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let runtime = ServingRuntime::new(engine, cluster, 1).with_options(ServingOptions {
            queue_capacity: Some(2),
            ..ServingOptions::default()
        });
        let op = || Operator::gemm(GemmShape::new(256, 256, 256));
        // A burst of 8 simultaneous arrivals against 1 worker and a
        // 2-deep queue: the first starts immediately, two wait, the rest
        // overflow. A ninth, slightly later request has a deadline far
        // tighter than the backlog, so it sheds at dispatch (the deadline
        // check dominates the queue check).
        let mut requests: Vec<Request> = (0..8).map(|i| Request::single(i, 0.0, op())).collect();
        requests.push(Request::single(8, 1.0, op()).with_deadline(2.0));
        let report = runtime.serve(&requests);
        let counts = report.dispositions();
        assert_eq!(counts.completed, 3, "{counts:?}");
        assert_eq!(counts.shed, 6, "{counts:?}");
        assert_eq!(counts.total(), 9);
        let queue_full = report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::QueueFull))
            .count();
        assert_eq!(queue_full, 5);
        assert_eq!(
            report.records[8].shed_reason,
            Some(ShedReason::DeadlineAtDispatch)
        );
        // Shed requests never occupy a worker slot.
        assert!(report
            .records
            .iter()
            .filter(|r| r.disposition == Disposition::Shed)
            .all(|r| r.worker == usize::MAX && !r.executed()));
    }

    #[test]
    fn breaker_opens_probes_and_recovers() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        // Compilation of the (single) shape panics on its first 5
        // attempts, then heals. Threshold 2 and a cooldown shorter than
        // the arrival gap give a fully deterministic single-worker
        // timeline: fail, fail-and-open, three failed probes (re-opens),
        // a successful probe that closes, then cache hits.
        let plan = FaultPlan {
            seed: 11,
            compile_panic_rate: 1.0,
            panic_attempts: 5,
            ..FaultPlan::none()
        };
        let runtime = ServingRuntime::new(engine, cluster, 1).with_options(ServingOptions {
            breaker: Some(BreakerPolicy {
                failure_threshold: 2,
                cooldown_ns: 5_000.0,
            }),
            fault_plan: Some(Arc::new(plan)),
            ..ServingOptions::default()
        });
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                Request::single(
                    i,
                    i as f64 * 10_000.0,
                    Operator::gemm(GemmShape::new(256, 256, 256)),
                )
            })
            .collect();
        let report = runtime.serve(&requests);
        let counts = report.dispositions();
        assert_eq!(counts.degraded, 5, "{counts:?}");
        assert_eq!(counts.completed, 3, "{counts:?}");
        assert_eq!(counts.failed, 0, "{counts:?}");
        // Open on the second failure, then three failed probes re-open.
        assert_eq!(report.breaker_opens, 4);
        for r in &report.records[..5] {
            assert_eq!(r.disposition, Disposition::Degraded, "{r:?}");
            assert!(r.executed(), "degraded requests still run: {r:?}");
        }
        for r in &report.records[5..] {
            assert_eq!(r.disposition, Disposition::Completed, "{r:?}");
        }
    }

    #[test]
    fn batched_dispatcher_preserves_invariants_and_forms_waves() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime = ServingRuntime::new(engine, cluster, 4)
            .with_telemetry(Arc::clone(&telemetry))
            .with_options(ServingOptions {
                batching: Some(BatchingOptions::new(200_000.0, 8)),
                ..ServingOptions::default()
            });
        // A tight burst of one small shape: the whole burst should share
        // waves instead of running 16 solo launches.
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                Request::single(
                    i,
                    i as f64 * 100.0,
                    Operator::gemm(GemmShape::new(64, 64, 64)),
                )
            })
            .collect();
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 16);
        let counts = report.dispositions();
        assert_eq!(counts.completed, 16, "{counts:?}");
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.executed());
            assert!(r.batch_size >= 1);
            assert!(r.queue_ns >= -1e-6, "negative queue: {r:?}");
            // The timeline identity holds under batching too: queueing
            // (including batch-forming delay) + compile + wave device
            // time equals end-to-end latency.
            assert!(
                (r.timeline_total_ns() - (r.finish_ns - requests[i].arrival_ns)).abs() < 1e-3,
                "identity broken: {r:?}"
            );
        }
        assert!(
            report.mean_batch_size() > 1.0,
            "burst formed no waves: mean batch {}",
            report.mean_batch_size()
        );
        let snap = telemetry.registry().snapshot();
        let waves = snap.counter("serving.waves").unwrap_or(0);
        assert!(waves >= 1, "no waves counted");
        assert!(
            (waves as usize) < 16,
            "every request launched solo: {waves} waves"
        );
        assert_eq!(snap.counter("serving.requests"), Some(16));
    }

    #[test]
    fn virtual_drain_point_sheds_exactly_the_late_arrivals() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime =
            ServingRuntime::new(engine, cluster, 2).with_telemetry(Arc::clone(&telemetry));
        let requests = stream(16, 50_000.0);
        // Pin the drain point to request 10's arrival: the shed set is a
        // pure function of arrival times, so exactly requests 10..16 are
        // shed as draining and everything earlier runs to completion.
        runtime
            .lifecycle()
            .request_drain_at(requests[10].arrival_ns);
        let report = runtime.serve(&requests);
        assert_eq!(report.records.len(), 16);
        for r in &report.records[..10] {
            assert_eq!(r.disposition, Disposition::Completed, "{r:?}");
        }
        for r in &report.records[10..] {
            assert_eq!(r.disposition, Disposition::Shed, "{r:?}");
            assert_eq!(r.shed_reason, Some(ShedReason::Draining));
            assert!(!r.executed(), "drained requests consume no device");
        }
        let dir = std::env::temp_dir().join(format!("mikpoly-drain-solo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let drain = runtime.drain(&report, Some(&dir));
        // The nothing-lost invariant: every request has a disposition,
        // the draining sheds are counted, and the caches committed.
        assert_eq!(drain.dispositions.total(), 16);
        assert_eq!(drain.drained, 6);
        assert_eq!(drain.dispositions.shed, 6);
        assert_eq!(drain.persisted_generation, Some(1));
        assert!(drain.persist_error.is_none());
        assert!(
            drain.chains_retained >= 6,
            "every shed request retains a chain: {drain:?}"
        );
        assert!(runtime.lifecycle().is_draining());
        // Admission stays closed after the drain: a fresh serve sheds
        // everything.
        let after = runtime.serve(&stream(4, 50_000.0));
        assert!(after
            .records
            .iter()
            .all(|r| r.shed_reason == Some(ShedReason::Draining)));
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("serving.drain.drained"), Some(6));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_drain_keeps_the_disposition_invariant() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let runtime = ServingRuntime::new(engine, cluster, 4).with_options(ServingOptions {
            batching: Some(BatchingOptions::new(200_000.0, 8)),
            ..ServingOptions::default()
        });
        let requests: Vec<Request> = (0..16)
            .map(|i| {
                Request::single(
                    i,
                    i as f64 * 100.0,
                    Operator::gemm(GemmShape::new(64, 64, 64)),
                )
            })
            .collect();
        runtime
            .lifecycle()
            .request_drain_at(requests[12].arrival_ns);
        let report = runtime.serve(&requests);
        let drain = runtime.drain(&report, None);
        assert_eq!(drain.dispositions.total(), 16);
        assert_eq!(drain.drained, 4);
        assert_eq!(drain.dispositions.completed, 12);
        assert_eq!(drain.persisted_generation, None);
        assert!(drain.persist_error.is_none());
        for r in &report.records[12..] {
            assert_eq!(r.shed_reason, Some(ShedReason::Draining), "{r:?}");
            assert_eq!(r.batch_size, 0, "drained requests join no wave");
        }
        // Deterministic replay: the same stream and drain point produce
        // the same shed set on a fresh runtime.
        let fresh = self::engine();
        let cluster = local_cluster(&fresh);
        let rerun = ServingRuntime::new(fresh, cluster, 4).with_options(ServingOptions {
            batching: Some(BatchingOptions::new(200_000.0, 8)),
            ..ServingOptions::default()
        });
        rerun.lifecycle().request_drain_at(requests[12].arrival_ns);
        let rerun_report = rerun.serve(&requests);
        let sheds: Vec<usize> = rerun_report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::Draining))
            .map(|r| r.id)
            .collect();
        assert_eq!(sheds, vec![12, 13, 14, 15]);
    }

    #[test]
    fn batched_waves_beat_solo_execution_on_a_homogeneous_burst() {
        // The co-launch claim itself: for a burst of identical small
        // kernels, merged waves recover idle PEs, so batched serving
        // finishes the burst no later than solo serving. Compile cost is
        // excluded by warming the cache first (both runtimes share one
        // engine).
        let engine = engine();
        let shape = GemmShape::new(64, 64, 64);
        engine.run_operator(&Operator::gemm(shape));
        let requests: Vec<Request> = (0..24)
            .map(|i| Request::single(i, i as f64, Operator::gemm(shape)))
            .collect();
        let solo =
            ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 4).serve(&requests);
        let batched = ServingRuntime::new(Arc::clone(&engine), local_cluster(&engine), 4)
            .with_options(ServingOptions {
                batching: Some(BatchingOptions::new(100_000.0, 8)),
                ..ServingOptions::default()
            })
            .serve(&requests);
        assert_eq!(batched.dispositions().completed, 24);
        assert!(
            batched.makespan_ns <= solo.makespan_ns * 1.001,
            "batched {} ns vs solo {} ns",
            batched.makespan_ns,
            solo.makespan_ns
        );
        assert!(batched.mean_batch_size() > 1.0);
    }

    #[test]
    fn tenant_quota_isolates_a_flooding_tenant() {
        let engine = engine();
        let cluster = local_cluster(&engine);
        let telemetry = mikpoly_telemetry::Telemetry::enabled();
        let runtime = ServingRuntime::new(engine, cluster, 1)
            .with_telemetry(Arc::clone(&telemetry))
            .with_options(ServingOptions {
                queue_capacity: Some(8),
                tenancy: Some(TenantPolicy::new(vec![
                    TenantQuota::new(1, 2),
                    TenantQuota::new(2, 8).with_weight(2.0),
                ])),
                ..ServingOptions::default()
            });
        let op = || Operator::gemm(GemmShape::new(256, 256, 256));
        // Tenant 1 floods 12 simultaneous requests; tenant 2 sends 4
        // well-spaced ones afterward. The flood saturates its own
        // 2-waiting-slot quota, not the global queue, so every tenant-2
        // request is served.
        let mut requests: Vec<Request> = (0..12)
            .map(|i| Request::single(i, 0.0, op()).with_tenant(1))
            .collect();
        for i in 0..4 {
            requests.push(Request::single(12 + i, 1e9 + i as f64 * 1e9, op()).with_tenant(2));
        }
        let report = runtime.serve(&requests);
        let throttled = report
            .records
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::TenantThrottled))
            .count();
        assert_eq!(throttled, 9, "flood beyond the quota is throttled");
        let tenants = report.tenant_stats();
        let t1 = tenants.iter().find(|t| t.tenant == 1).unwrap();
        let t2 = tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert_eq!(t1.dispositions.served(), 3, "{t1:?}");
        assert_eq!(
            t2.dispositions.served(),
            4,
            "victim tenant fully served: {t2:?}"
        );
        assert_eq!(t2.dispositions.shed, 0);
        // Per-tenant counters are live once a policy is configured, and
        // throttled chains land in the flight recorder with their tenant.
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("serving.tenant.1.requests"), Some(12));
        assert_eq!(snap.counter("serving.tenant.2.requests"), Some(4));
        assert_eq!(snap.counter("serving.tenant.2.served"), Some(4));
        assert_eq!(snap.counter("serving.tenant.1.shed"), Some(9));
        let shed_id = report
            .records
            .iter()
            .find(|r| r.shed_reason == Some(ShedReason::TenantThrottled))
            .unwrap()
            .id;
        let chain = telemetry.recorder().find(shed_id as u64).unwrap();
        assert_eq!(chain.chain.tenant, 1);
        assert_eq!(chain.chain.error.as_deref(), Some("tenant-throttled"));
    }
}
