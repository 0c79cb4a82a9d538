//! The serving replay is a pure function of its inputs.
//!
//! On a warm engine (every shape compiled before serving, so no real
//! compile time reaches the virtual timeline) a serving report depends only
//! on the request stream and the options. Serving a stream twice must give
//! identical records, and each configuration's records hash to a pinned
//! digest, so a dispatcher change that moves any virtual figure by one bit
//! fails here. The streams exercise every admission rung at once: expired
//! and tight deadlines, a queue bound, tenant quotas, a virtual drain point
//! and device-fault retries, under 1, 2 and 4 workers, in both dispatch
//! modes.
//!
//! A third test pins the latency summary to the exact percentiles of the
//! records, and the last covers the real-time drain: a drain fired while the
//! stream is compiling may shed only requests that were never compiled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mikpoly_suite::accel_sim::{Cluster, FaultPlan, Interconnect, MachineModel};
use mikpoly_suite::mikpoly::{
    percentile, poisson_arrivals, BatchingOptions, Engine, OfflineOptions, Request, RequestRecord,
    ServingOptions, ServingReport, ServingRuntime, ShedReason, TenantPolicy, TenantQuota,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

fn engine() -> Arc<Engine> {
    let mut o = OfflineOptions::fast();
    o.n_gen = 4;
    Arc::new(Engine::offline(MachineModel::a100(), &o))
}

fn shapes() -> [GemmShape; 4] {
    [
        GemmShape::new(64, 64, 64),
        GemmShape::new(128, 256, 64),
        GemmShape::new(96, 512, 256),
        GemmShape::new(256, 256, 256),
    ]
}

/// An overloaded three-tenant stream. Every eleventh request has already
/// expired at arrival; the rest must start within 30 us of arriving.
const GAP: f64 = 10_000.0;
fn stream() -> Vec<Request> {
    let shapes = shapes();
    poisson_arrivals(96, GAP, 17)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let deadline = match i % 11 {
                0 => t - 1.0,
                1 | 5 => t + 30_000.0,
                _ => t + 200_000.0,
            };
            Request::single(i, t, Operator::gemm(shapes[i % shapes.len()]))
                .with_tenant((i % 3) as u32)
                .with_deadline(deadline)
        })
        .collect()
}

fn options(batching: Option<BatchingOptions>) -> ServingOptions {
    ServingOptions {
        queue_capacity: Some(8),
        fault_plan: Some(Arc::new(FaultPlan {
            seed: 0x5EED,
            device_fault_rate: 0.2,
            ..FaultPlan::none()
        })),
        batching,
        tenancy: Some(TenantPolicy::new(vec![
            TenantQuota::new(0, 4),
            TenantQuota::new(1, 2).with_weight(2.0),
        ])),
        ..ServingOptions::default()
    }
}

fn serve(
    engine: &Arc<Engine>,
    workers: usize,
    batching: Option<BatchingOptions>,
    requests: &[Request],
) -> ServingReport {
    let cluster = Cluster::new(engine.machine().clone(), 2, Interconnect::nvlink3());
    let runtime =
        ServingRuntime::new(Arc::clone(engine), cluster, workers).with_options(options(batching));
    runtime
        .lifecycle()
        .request_drain_at(requests[84].arrival_ns);
    runtime.serve(requests)
}

/// FNV-1a over every field of every record, floats by their bits.
fn digest(records: &[RequestRecord]) -> u64 {
    let fnv = |h: u64, word: u64| {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    };
    records.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let label = r.breaker_event.unwrap_or("");
        let words = [
            r.id as u64,
            u64::from(r.tenant),
            r.worker as u64,
            r.device as u64,
            r.queue_ns.to_bits(),
            r.compile.real_ns().to_bits(),
            r.search_ns as u64,
            r.cache_wait_ns as u64,
            r.device_ns.to_bits(),
            r.finish_ns.to_bits(),
            r.disposition as u64,
            r.shed_reason.map_or(u64::MAX, |s| s as u64),
            u64::from(r.retries),
            r.deadline_ns.map_or(u64::MAX, f64::to_bits),
            r.batch_size as u64,
        ];
        let h = words.iter().fold(h, |h, &w| fnv(h, w));
        label.bytes().fold(h, |h, b| fnv(h, u64::from(b)))
    })
}

/// Record digests per (dispatch mode, worker count), captured on the
/// two-dispatcher implementation this replay replaced.
const PINNED: [(&str, usize, u64); 6] = [
    ("solo", 1, 0x5646_7c7f_824d_0504),
    ("solo", 2, 0xb5de_bb0f_319f_712d),
    ("solo", 4, 0x160c_f75f_06c4_378e),
    ("batched", 1, 0x140c_c98b_1962_ce41),
    ("batched", 2, 0x52ed_6b87_3e6f_d1b5),
    ("batched", 4, 0x258c_6c2c_814a_6e79),
];

#[test]
fn warm_replay_is_deterministic_and_pinned() {
    let engine = engine();
    for shape in shapes() {
        engine.run_operator(&Operator::gemm(shape));
    }
    let requests = stream();
    let mut reasons = Vec::new();
    let mut retried = false;
    for (mode, workers, pinned) in PINNED {
        let batching = (mode == "batched").then(|| BatchingOptions::new(20_000.0, 4));
        let first = serve(&engine, workers, batching, &requests);
        let second = serve(&engine, workers, batching, &requests);
        assert!(
            first.records.iter().all(|r| r.compile.real_ns() == 0.0),
            "{mode}/{workers}: a warm engine compiles nothing"
        );
        assert_eq!(first.records, second.records, "{mode}/{workers}");
        assert_eq!(first.makespan_ns.to_bits(), second.makespan_ns.to_bits());
        let busy = |r: &ServingReport| -> Vec<(usize, u64)> {
            r.workers
                .iter()
                .map(|w| (w.requests, w.busy_ns.to_bits()))
                .collect()
        };
        assert_eq!(busy(&first), busy(&second), "{mode}/{workers}");
        let got = digest(&first.records);
        assert_eq!(got, pinned, "{mode}/{workers}: digest {got:#018x}");
        reasons.extend(first.records.iter().filter_map(|r| r.shed_reason));
        retried |= first.records.iter().any(|r| r.retries > 0);
    }
    // The stream reaches every admission rung and the retry schedule.
    for reason in [
        ShedReason::DeadlineAtEnqueue,
        ShedReason::DeadlineAtDispatch,
        ShedReason::QueueFull,
        ShedReason::TenantThrottled,
        ShedReason::Draining,
    ] {
        assert!(reasons.contains(&reason), "no {reason:?} shed");
    }
    assert!(retried, "no device-fault retry");
}

#[test]
fn latency_summary_percentiles_are_exact() {
    let engine = engine();
    let report = serve(&engine, 2, None, &stream());
    let mut totals: Vec<f64> = report
        .records
        .iter()
        .map(RequestRecord::timeline_total_ns)
        .collect();
    totals.sort_by(f64::total_cmp);
    let summary = report.latency_summary().total;
    assert_eq!(summary.count, totals.len() as u64);
    assert_eq!(summary.p50_ns, percentile(&totals, 0.50));
    assert_eq!(summary.p95_ns, percentile(&totals, 0.95));
    assert_eq!(summary.p99_ns, percentile(&totals, 0.99));
    assert_eq!(summary.max_ns, totals[totals.len() - 1]);
}

#[test]
fn realtime_drain_never_sheds_a_compiled_request() {
    for batching in [None, Some(BatchingOptions::new(20_000.0, 4))] {
        // A cold engine and one unique shape per request: every request
        // that was compiled is exactly one cache computation. Each search
        // stalls so the drain is likely to land while the stream is still
        // compiling; the assertion must hold wherever it lands.
        let engine = engine();
        let cluster = Cluster::new(engine.machine().clone(), 2, Interconnect::nvlink3());
        let stall = FaultPlan {
            seed: 3,
            search_stall_rate: 1.0,
            search_stall_ns: 500_000,
            ..FaultPlan::none()
        };
        let runtime =
            ServingRuntime::new(Arc::clone(&engine), cluster, 2).with_options(ServingOptions {
                batching,
                fault_plan: Some(Arc::new(stall)),
                ..ServingOptions::default()
            });
        let requests: Vec<Request> = (0..48)
            .map(|i| {
                let shape = GemmShape::new(64 + i, 128, 64);
                Request::single(i, i as f64 * 1_000.0, Operator::gemm(shape))
            })
            .collect();
        let served = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !served.load(Ordering::SeqCst)
                    && engine.gemm_compiler().cache_stats().computations < 4
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
                runtime.lifecycle().request_drain();
            });
            let report = runtime.serve(&requests);
            served.store(true, Ordering::SeqCst);
            report
        });
        let kept = report
            .records
            .iter()
            .filter(|r| r.shed_reason != Some(ShedReason::Draining))
            .count();
        assert_eq!(
            report.cache.computations as usize, kept,
            "batching {batching:?}: a compiled request was shed as draining"
        );
    }
}
