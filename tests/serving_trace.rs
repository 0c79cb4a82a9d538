//! Acceptance: a telemetered BERT Poisson serving run exports a Chrome
//! trace-event file that parses as JSON, carries the
//! queue/compile(search, cache-wait)/device phase spans for every request
//! with correct nesting and lane placement, and a metrics snapshot whose
//! cache counters exactly mirror [`mikpoly::CacheStats`]. The two host
//! phase spans of `ServingRuntime::serve` account for its wall time.

use std::sync::Arc;
use std::time::Instant;

use mikpoly_suite::accel_sim::{Cluster, Interconnect, MachineModel};
use mikpoly_suite::mikpoly::serving::poisson_arrivals;
use mikpoly_suite::mikpoly::{
    BatchingOptions, Engine, OfflineOptions, Request, ServingOptions, ServingRuntime,
};
use mikpoly_suite::models::TransformerConfig;
use mikpoly_suite::telemetry::Telemetry;

#[test]
fn bert_poisson_stream_emits_valid_nested_trace() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let telemetry = Telemetry::enabled();
    let engine = Arc::new(Engine::offline_with_telemetry(
        MachineModel::a100(),
        &options,
        Arc::clone(&telemetry),
    ));

    // A Poisson stream of BERT forward passes at four sequence lengths.
    let bert = TransformerConfig::bert_base();
    let n = 24;
    let requests: Vec<Request> = poisson_arrivals(n, 50_000.0, 11)
        .into_iter()
        .enumerate()
        .map(|(id, arrival_ns)| Request {
            id,
            arrival_ns,
            ops: bert
                .graph(1, 16 * (1 + id % 4))
                .ops
                .iter()
                .map(|op| (op.operator, op.count))
                .collect(),
            deadline_ns: None,
            tenant: 0,
        })
        .collect();
    let cluster = Cluster::new(MachineModel::a100(), 2, Interconnect::nvlink3());
    let report = ServingRuntime::new(Arc::clone(&engine), cluster, 4).serve(&requests);
    assert_eq!(report.records.len(), n);

    // The metrics snapshot's cache counters equal the authoritative
    // CacheStats, field for field.
    let snap = telemetry.registry().snapshot();
    for (counter, expected) in [
        ("cache.hits", report.cache.hits),
        ("cache.misses", report.cache.misses),
        ("cache.computations", report.cache.computations),
        ("cache.coalesced_waits", report.cache.coalesced_waits),
        ("cache.entries", report.cache.entries),
        ("serving.requests", n as u64),
    ] {
        assert_eq!(
            snap.counter(counter),
            Some(expected),
            "registry counter '{counter}' out of sync with CacheStats"
        );
    }

    // The exported trace is valid JSON with the trace-event envelope.
    let json = telemetry.render_chrome_trace();
    let value: serde_json::Value = serde_json::from_str(&json).expect("trace must parse as JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");

    // Index the phase events per request.
    let arg_request = |event: &serde_json::Value| {
        event
            .get("args")
            .and_then(|a| a.get("request"))
            .and_then(|v| v.as_u64())
            .map(|v| v as usize)
    };
    let window = |event: &serde_json::Value| {
        let ts = event.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = event.get("dur").and_then(|v| v.as_f64()).unwrap_or(0.0);
        (ts, ts + dur)
    };
    let mut queue = vec![0usize; n];
    let mut request_windows: Vec<Option<(f64, f64)>> = vec![None; n];
    let mut compile_windows: Vec<Option<(f64, f64)>> = vec![None; n];
    let mut device = vec![0usize; n];
    let mut search_spans = 0usize;
    let mut wait_spans = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("ph");
        let name = event.get("name").and_then(|v| v.as_str()).expect("name");
        match (ph, name) {
            ("b", "serving.queue") => {
                let id = event.get("id").and_then(|v| v.as_u64()).expect("async id");
                queue[id as usize] += 1;
            }
            ("X", "serving.request") => {
                request_windows[arg_request(event).expect("request arg")] = Some(window(event));
            }
            ("X", "serving.compile") => {
                compile_windows[arg_request(event).expect("request arg")] = Some(window(event));
            }
            ("X", "serving.compile.search") => search_spans += 1,
            ("X", "serving.compile.wait") => wait_spans += 1,
            ("X", "serving.device") => {
                device[arg_request(event).expect("request arg")] += 1;
                // Device execution sits on a device lane of the
                // virtual-time process.
                assert_eq!(event.get("pid").and_then(|v| v.as_u64()), Some(1));
                assert!(event.get("tid").and_then(|v| v.as_u64()).expect("tid") >= 10_000);
            }
            _ => {}
        }
    }
    for id in 0..n {
        assert_eq!(queue[id], 1, "request {id}: missing queue phase");
        assert_eq!(device[id], 1, "request {id}: missing device phase");
        let (req_start, req_end) = request_windows[id].expect("request span");
        let (c_start, c_end) = compile_windows[id].expect("compile span");
        // The compile window nests inside the request window by time
        // containment (ts are microseconds; allow float slack).
        assert!(
            c_start >= req_start - 1e-6 && c_end <= req_end + 1e-6,
            "request {id}: compile [{c_start}, {c_end}] escapes request [{req_start}, {req_end}]"
        );
    }
    // Cold shapes were polymerized, so search sub-phases must appear, and
    // they never outnumber the per-request compile windows.
    assert!(search_spans > 0, "no serving.compile.search spans recorded");
    assert!(search_spans + wait_spans <= 2 * n);

    // The host (real-clock) side of the pipeline traced too: the offline
    // stage and one online.compile span per operator run.
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some(name))
            .count()
    };
    assert!(count("offline.generate") >= 1, "offline stage untraced");
    assert!(count("online.compile") > 0, "online compile path untraced");
    assert_eq!(
        count("online.search") as u64,
        report.cache.computations,
        "exactly one real search per polymerization"
    );
}

/// Every complete ('X') event on a lane must either be disjoint from or
/// strictly nested inside the spans around it — a partially-overlapping
/// pair renders as garbage in Perfetto, and async begin/end ('b'/'e')
/// pairs must balance per id. Validated on a real telemetered stream.
#[test]
fn chrome_trace_spans_nest_strictly_per_lane() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let telemetry = Telemetry::enabled();
    let engine = Arc::new(Engine::offline_with_telemetry(
        MachineModel::a100(),
        &options,
        Arc::clone(&telemetry),
    ));
    let bert = TransformerConfig::bert_base();
    let requests: Vec<Request> = poisson_arrivals(12, 40_000.0, 23)
        .into_iter()
        .enumerate()
        .map(|(id, arrival_ns)| Request {
            id,
            arrival_ns,
            ops: bert
                .graph(1, 16 * (1 + id % 3))
                .ops
                .iter()
                .map(|op| (op.operator, op.count))
                .collect(),
            deadline_ns: None,
            tenant: 0,
        })
        .collect();
    let cluster = Cluster::new(MachineModel::a100(), 2, Interconnect::nvlink3());
    ServingRuntime::new(Arc::clone(&engine), cluster, 3).serve(&requests);

    let json = telemetry.render_chrome_trace();
    let value: serde_json::Value = serde_json::from_str(&json).expect("trace must parse as JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Group complete events into per-lane interval lists and collect
    // async begin/end pairs.
    use std::collections::HashMap;
    let mut lanes: HashMap<(u64, u64), Vec<(f64, f64)>> = HashMap::new();
    let mut asyncs: HashMap<(String, u64), (usize, usize, f64, f64)> = HashMap::new();
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("ph");
        let pid = event.get("pid").and_then(|v| v.as_u64()).expect("pid");
        let tid = event.get("tid").and_then(|v| v.as_u64()).expect("tid");
        let ts = event.get("ts").and_then(|v| v.as_f64()).expect("ts");
        match ph {
            "X" => {
                let dur = event.get("dur").and_then(|v| v.as_f64()).expect("dur");
                assert!(dur >= 0.0, "negative duration at ts {ts}");
                lanes.entry((pid, tid)).or_default().push((ts, ts + dur));
            }
            "b" | "e" => {
                let name = event.get("name").and_then(|v| v.as_str()).expect("name");
                let id = event.get("id").and_then(|v| v.as_u64()).expect("async id");
                let slot = asyncs.entry((name.to_string(), id)).or_insert((
                    0,
                    0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ));
                if ph == "b" {
                    slot.0 += 1;
                    slot.2 = slot.2.min(ts);
                } else {
                    slot.1 += 1;
                    slot.3 = slot.3.max(ts);
                }
            }
            "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // Async pairs balance, and every end is at or after its begin.
    assert!(!asyncs.is_empty(), "no async phase events recorded");
    for ((name, id), (begins, ends, first_b, last_e)) in &asyncs {
        assert_eq!(begins, ends, "unbalanced b/e for {name} id {id}");
        assert!(
            last_e >= first_b,
            "{name} id {id}: end {last_e} before begin {first_b}"
        );
    }

    // Strict nesting per lane: sweep intervals sorted by (start asc,
    // end desc); each span must close inside whatever span encloses it.
    const EPS: f64 = 1e-6; // trace timestamps are microseconds
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, open_end)) = stack.last() {
                if open_end <= start + EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    end <= open_end + EPS,
                    "lane ({pid},{tid}): span [{start}, {end}] partially overlaps \
                     enclosing [{open_start}, {open_end}]"
                );
            }
            stack.push((start, end));
        }
    }
}

/// With telemetry on, `serving.compile_phase` and `serving.replay` are
/// recorded once per serve, back to back on the serving thread, and
/// together cover at least 95% of the call's wall time — cold (phase A
/// polymerizes) and warm (every program cached), solo and batched.
#[test]
fn serve_phase_spans_cover_the_serve_wall_time() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let telemetry = Telemetry::enabled();
    let engine = Arc::new(Engine::offline_with_telemetry(
        MachineModel::a100(),
        &options,
        Arc::clone(&telemetry),
    ));
    let bert = TransformerConfig::bert_base();
    let requests: Vec<Request> = poisson_arrivals(200, 20_000.0, 5)
        .into_iter()
        .enumerate()
        .map(|(id, arrival_ns)| Request {
            id,
            arrival_ns,
            ops: bert
                .graph(1, 16 * (1 + id % 6))
                .ops
                .iter()
                .map(|op| (op.operator, op.count))
                .collect(),
            deadline_ns: None,
            tenant: 0,
        })
        .collect();
    for (round, batching) in [
        ("cold solo", None),
        ("warm solo", None),
        ("warm batched", Some(BatchingOptions::new(20_000.0, 4))),
    ] {
        let cluster = Cluster::new(MachineModel::a100(), 2, Interconnect::nvlink3());
        let runtime =
            ServingRuntime::new(Arc::clone(&engine), cluster, 2).with_options(ServingOptions {
                batching,
                ..ServingOptions::default()
            });
        telemetry.drain_spans();
        let start = Instant::now();
        runtime.serve(&requests);
        let wall_ns = start.elapsed().as_nanos() as f64;
        let spans = telemetry.drain_spans();
        let phase = |name: &str| {
            let found: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(found.len(), 1, "{round}: one {name} span per serve");
            (found[0].start_ns, found[0].dur_ns)
        };
        let (compile_start, compile_ns) = phase("serving.compile_phase");
        let (replay_start, replay_ns) = phase("serving.replay");
        assert_eq!(
            replay_start,
            compile_start + compile_ns,
            "{round}: back to back"
        );
        let covered = compile_ns + replay_ns;
        assert!(
            covered <= wall_ns && covered >= 0.95 * wall_ns,
            "{round}: phase spans cover {covered} ns of a {wall_ns} ns serve"
        );
    }
}
