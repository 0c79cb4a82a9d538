//! The solo-time memo of the program cache.
//!
//! `Engine::try_run_graph` and `Engine::try_plan_graph` simulate each
//! cached program once, at its first execution, and read the memoized
//! solo device time beside the cache entry afterwards. These tests pin the
//! memo to the simulator: `GraphRun::device_ns` and `OpPlan::solo_ns` must
//! equal `Engine::simulate(&program).time_ns` bit for bit, on the call
//! that fills the memo and on every hit, for dynamic (A100) and static
//! (Ascend 910A) placement, split-K programs, degraded programs, a bounded
//! cache across eviction and refill, a cache-less compiler, and an engine
//! restored from a saved bundle. Planning must also leave the encoded
//! bundle bytes unchanged: the memo is never persisted.

use std::sync::Arc;

use mikpoly_suite::accel_sim::MachineModel;
use mikpoly_suite::mikpoly::{
    CacheOutcome, CompileBudget, Engine, GraphPlan, MikPoly, OfflineOptions, OnlineOptions,
    TemplateKind,
};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

/// A cold engine on `machine` whose compilers use `online`.
fn engine(machine: MachineModel, online: OnlineOptions) -> Engine {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let compiler = |template| {
        let offline = options.clone().with_template(template);
        Arc::new(MikPoly::offline(machine.clone(), &offline).with_options(online.clone()))
    };
    Engine::from_compilers(
        machine.clone(),
        compiler(TemplateKind::Gemm),
        compiler(TemplateKind::Conv),
    )
}

fn gemm(m: usize, n: usize, k: usize) -> Operator {
    Operator::gemm(GemmShape::new(m, n, k))
}

const FULL: CompileBudget = CompileBudget {
    deadline: None,
    degrade_only: false,
};
const DEGRADED: CompileBudget = CompileBudget {
    deadline: None,
    degrade_only: true,
};

/// Each op's freshly simulated solo time and the graph total, summed in
/// graph order exactly as the engine sums it.
fn simulated(engine: &Engine, ops: &[(Operator, usize)], budget: CompileBudget) -> (Vec<f64>, f64) {
    let mut total = 0.0;
    let times: Vec<f64> = ops
        .iter()
        .map(|(op, count)| {
            let program = engine
                .gemm_compiler()
                .try_compile(op, budget)
                .expect("compile")
                .program;
            let ns = engine.simulate(&program).time_ns;
            total += ns * *count as f64;
            ns
        })
        .collect();
    (times, total)
}

fn plan(engine: &Engine, ops: &[(Operator, usize)], budget: CompileBudget) -> GraphPlan {
    engine
        .try_plan_graph(ops.iter().map(|(op, c)| (op, *c)), budget)
        .expect("plan")
}

/// Plans and runs `ops` three times (the first plan fills each memo) and
/// checks every figure against fresh simulation.
fn assert_memo_matches_simulation(
    engine: &Engine,
    ops: &[(Operator, usize)],
    budget: CompileBudget,
) {
    // Compiling first caches every program without executing it, so the
    // first plan below is the call that fills the memos.
    let (times, total) = simulated(engine, ops, budget);
    for round in ["filling", "hit", "hit again"] {
        let planned = plan(engine, ops, budget);
        assert_eq!(planned.run.compilations, 0, "{round}: programs were cached");
        assert_eq!(
            planned.run.device_ns.to_bits(),
            total.to_bits(),
            "{round}: plan device_ns {} vs simulated {total}",
            planned.run.device_ns
        );
        for (i, (op_plan, want)) in planned.ops.iter().zip(&times).enumerate() {
            assert_eq!(
                op_plan.solo_ns.to_bits(),
                want.to_bits(),
                "{round}: op {i} solo_ns {} vs simulated {want}",
                op_plan.solo_ns
            );
        }
        let run = engine
            .try_run_graph(ops.iter().map(|(op, c)| (op, *c)), budget)
            .expect("run");
        assert_eq!(
            run.device_ns.to_bits(),
            total.to_bits(),
            "{round}: run_graph"
        );
        assert_eq!(run.executions, planned.run.executions);
    }
}

fn ops() -> Vec<(Operator, usize)> {
    vec![
        (gemm(256, 2304, 768), 1),
        (gemm(256, 768, 768), 2),
        (gemm(96, 3072, 768), 1),
        (gemm(1000, 300, 200), 3),
    ]
}

#[test]
fn memo_equals_simulation_with_dynamic_placement() {
    let e = engine(MachineModel::a100(), OnlineOptions::default());
    assert_memo_matches_simulation(&e, &ops(), FULL);
}

#[test]
fn memo_equals_simulation_with_static_placement() {
    let e = engine(MachineModel::ascend910a(), OnlineOptions::default());
    assert_memo_matches_simulation(&e, &ops(), FULL);
}

#[test]
fn memo_covers_the_split_k_reduction_pass() {
    let e = engine(
        MachineModel::a100(),
        OnlineOptions {
            split_k: true,
            ..OnlineOptions::default()
        },
    );
    let op = gemm(64, 64, 100_000);
    let program = e.gemm_compiler().compile(&op);
    assert!(program.split_k > 1, "split-K must fire on this shape");
    assert!(program.reduction_launch().is_some());
    assert_memo_matches_simulation(&e, &[(op, 2), (gemm(128, 128, 128), 1)], FULL);
}

#[test]
fn memo_covers_the_degraded_cache() {
    let e = engine(MachineModel::a100(), OnlineOptions::default());
    let ops = ops();
    assert_memo_matches_simulation(&e, &ops, DEGRADED);
    // The degraded plans are single-kernel fallbacks, cached apart from
    // the full search's: a full plan of the same shapes fills its own.
    let program = e
        .gemm_compiler()
        .try_compile(&ops[0].0, DEGRADED)
        .expect("degraded")
        .program;
    assert!(program.stats.degraded);
    assert_eq!(plan(&e, &ops, DEGRADED).run.degraded, ops.len());
    assert_memo_matches_simulation(&e, &ops, FULL);
}

#[test]
fn memo_is_rebuilt_after_eviction_and_refill() {
    let bounded = OnlineOptions {
        cache_capacity: Some(1),
        ..OnlineOptions::default()
    };
    let e = engine(MachineModel::a100(), bounded.clone());
    // Compilation is deterministic, so a second engine yields the expected
    // figures without touching `e`'s cache (a hit would promote A and
    // shield it from eviction).
    let (times, total) = simulated(
        &engine(MachineModel::a100(), bounded),
        &[(gemm(300, 200, 100), 2)],
        FULL,
    );
    let a = [(gemm(300, 200, 100), 2)];
    let b = [(gemm(64, 512, 256), 1)];
    for round in ["fill", "refill"] {
        let planned = plan(&e, &a, FULL);
        assert_eq!(planned.run.compilations, 1, "{round}: A compiles");
        assert_eq!(planned.run.device_ns.to_bits(), total.to_bits(), "{round}");
        assert_eq!(
            planned.ops[0].solo_ns.to_bits(),
            times[0].to_bits(),
            "{round}"
        );
        // B's fill evicts the unreferenced A, and A's memo with it.
        assert_eq!(plan(&e, &b, FULL).run.compilations, 1);
    }
    // A, then B, then A again made way.
    assert_eq!(e.gemm_compiler().cache_stats().evictions, 3);
    assert_memo_matches_simulation(&e, &a, FULL);
}

#[test]
fn uncached_compilers_simulate_every_execution() {
    let e = engine(
        MachineModel::a100(),
        OnlineOptions {
            cache: false,
            ..OnlineOptions::default()
        },
    );
    let ops = ops();
    let (times, total) = simulated(&e, &ops, FULL);
    let planned = plan(&e, &ops, FULL);
    assert_eq!(planned.run.compilations, ops.len());
    assert_eq!(planned.run.device_ns.to_bits(), total.to_bits());
    for (op_plan, want) in planned.ops.iter().zip(&times) {
        assert_eq!(op_plan.solo_ns.to_bits(), want.to_bits());
    }
}

#[test]
fn restored_engine_refills_its_memo_and_bundles_carry_none() {
    let dir = std::env::temp_dir().join(format!("mikpoly-plan-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ops = ops();
    let a = engine(MachineModel::ascend910a(), OnlineOptions::default());
    for (op, _) in &ops {
        a.gemm_compiler().compile(op);
    }
    // Planning fills every memo but must not change a single bundle byte.
    let before = a.gemm_compiler().encode_program_cache();
    let warm = plan(&a, &ops, FULL);
    assert_eq!(a.gemm_compiler().encode_program_cache(), before);
    a.save_program_caches(&dir).expect("save");

    let b = engine(MachineModel::ascend910a(), OnlineOptions::default());
    assert!(b.restore_program_caches(&dir).clean());
    let restored = plan(&b, &ops, FULL);
    assert_eq!(restored.run.compile_ns, 0, "restored programs are warm");
    assert_eq!(
        restored.run.device_ns.to_bits(),
        warm.run.device_ns.to_bits()
    );
    assert_memo_matches_simulation(&b, &ops, FULL);
    let hit = b
        .gemm_compiler()
        .try_compile(&ops[0].0, FULL)
        .expect("compile");
    assert_eq!(hit.outcome, CacheOutcome::Hit);
    let _ = std::fs::remove_dir_all(dir);
}
