//! The benchmark's own checks on its generated inputs.

use std::collections::HashSet;
use std::sync::Arc;

use mikpoly::{Request, ServingOptions, ServingReport};
use mikpoly_perfbench::run::serve;
use mikpoly_perfbench::setup::Libraries;
use mikpoly_perfbench::trace::Recorder;
use mikpoly_perfbench::workload::Workload;
use mikpoly_perfbench::{result_json, Metric};

/// A stream's exact bytes: `Debug` prints every `f64` round-trip exact.
fn bytes(stream: &[Request]) -> String {
    format!("{stream:?}")
}

#[test]
fn streams_are_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        let a = w.streams(7);
        let b = w.streams(7);
        assert_eq!(a.len(), mikpoly_perfbench::workload::STREAMS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), w.spec().requests, "{}", w.name());
            assert_eq!(bytes(x), bytes(y), "{} is not deterministic", w.name());
        }
        assert_ne!(
            bytes(&a[0]),
            bytes(&w.stream(8, 0)),
            "{}: seeds 7 and 8 give the same stream",
            w.name()
        );
        assert_ne!(
            bytes(&a[0]),
            bytes(&a[1]),
            "{}: a run's streams repeat",
            w.name()
        );
        assert!(a[0]
            .windows(2)
            .all(|p| p[0].arrival_ns <= p[1].arrival_ns && p[0].id + 1 == p[1].id));
    }
}

#[test]
fn shape_storm_is_mostly_first_seen_shapes() {
    for seed in 0..4 {
        for stream in Workload::ShapeStorm.streams(seed) {
            let mut seen = HashSet::new();
            let first = stream
                .iter()
                .filter(|r| r.ops.iter().all(|(op, _)| seen.insert(*op)))
                .count();
            let share = first as f64 / stream.len() as f64;
            assert!(share >= 0.9, "seed {seed}: only {share:.3} first-seen");
        }
    }
}

#[test]
fn precompiled_workloads_cover_every_stream_shape() {
    for w in [Workload::BertWarm, Workload::DecodeBurst] {
        let warm: HashSet<_> = w.warmup_ops().into_iter().collect();
        for seed in 0..4 {
            for stream in w.streams(seed) {
                assert!(stream
                    .iter()
                    .flat_map(|r| &r.ops)
                    .all(|(op, _)| warm.contains(op)));
            }
        }
    }
    assert_eq!(Workload::BertWarm.warmup_ops().len(), 128);
    assert_eq!(Workload::DecodeBurst.warmup_ops().len(), 8);
}

/// Mean virtual queueing of the last quarter of a report's executed
/// requests over that of the first quarter: ~1 without a backlog.
fn backlog_growth(report: &ServingReport) -> f64 {
    let mut records: Vec<_> = report.records.iter().filter(|r| r.executed()).collect();
    records.sort_by_key(|r| r.id);
    let quarter = records.len() / 4;
    let mean = |rs: &[&mikpoly::RequestRecord]| {
        rs.iter().map(|r| r.queue_ns).sum::<f64>() / rs.len() as f64
    };
    mean(&records[records.len() - quarter..]) / mean(&records[..quarter]).max(1.0)
}

#[test]
fn decode_burst_load_sits_between_solo_and_batched_capacity() {
    let w = Workload::DecodeBurst;
    let libs = Libraries::generate();
    let engine = libs.warm_engine(w).expect("warm-up");
    let stream: Vec<Request> = w.stream(3, 0).into_iter().take(3_000).collect();

    let batched = serve(&engine, w, &stream).report;
    let counts = batched.dispositions();
    assert_eq!(counts.shed + counts.failed, 0, "batched: {counts:?}");
    let growth = backlog_growth(&batched);
    assert!(growth < 2.0, "batched dispatch backlogs: x{growth:.2}");

    let solo = mikpoly::ServingRuntime::new(
        Arc::clone(&engine),
        mikpoly_perfbench::setup::cluster(),
        mikpoly_perfbench::workload::WORKERS,
    )
    .with_options(ServingOptions {
        batching: None,
        ..w.serving_options()
    })
    .serve(&stream);
    let shed = solo.dispositions().shed;
    let growth = backlog_growth(&solo);
    assert!(
        shed > 0 || growth > 10.0,
        "solo dispatch keeps up: {shed} shed, backlog x{growth:.2}"
    );
}

#[test]
fn self_time_subtracts_children() {
    let mut rec = Recorder::enabled();
    let parent = rec.open(None, Some(1));
    let child = rec.open(Some(parent), Some(1));
    std::thread::sleep(std::time::Duration::from_millis(2));
    rec.close(child, "child");
    rec.close(parent, "parent");
    let self_ns = rec.self_ns();
    let spans = rec.spans();
    assert_eq!(self_ns[child], spans[child].duration_ns());
    assert_eq!(
        self_ns[parent],
        spans[parent].duration_ns() - spans[child].duration_ns()
    );
    let mut off = Recorder::disabled();
    let id = off.open(None, None);
    assert_eq!(off.close(id, "x"), 0);
    assert!(off.spans().is_empty());
}

#[test]
fn result_line_has_the_contract_keys() {
    let line = result_json(true, 3, 0, &[Metric::new("host_rps", 1.5, "1/s")]);
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"host_rps": {"value": 1.5, "unit": "1/s"}}}"#
    );
}
