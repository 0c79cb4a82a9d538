//! The program cache under concurrency, through the public API: exact
//! ledgers and structural invariants after multi-thread churn on a bounded
//! cache, the capacity bound at every instant of that churn, single flight
//! on an unbounded one, cross-thread visibility of in-place updates, and a
//! compiler's fault plan switching on and off between compiles.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use mikpoly_suite::accel_sim::{FaultPlan, MachineModel};
use mikpoly_suite::mikpoly::{CacheOutcome, CompileBudget, MikPoly, OfflineOptions, ShardedCache};
use mikpoly_suite::tensor_ir::{GemmShape, Operator};

#[test]
fn bounded_churn_keeps_invariants_and_an_exact_fill_ledger() {
    let cache: ShardedCache<u64, u64> = ShardedCache::bounded(32);
    let threads = 4u64;
    let start = Barrier::new(threads as usize);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (cache, start) = (&cache, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..2_000u64 {
                    // 96 shared keys against a bound of 32 keep fills,
                    // hits, removes and evictions racing on every shard.
                    let k = (t * 1_000 + i * 7) % 96;
                    let (v, _) = cache.get_or_compute(&k, || k * 3);
                    assert_eq!(*v, k * 3, "wrong value for key {k}");
                    if let Some(v) = cache.get(&k) {
                        assert_eq!(*v, k * 3, "wrong value for key {k}");
                    }
                    if i % 3 == 0 {
                        let _ = cache.remove(&k);
                    }
                    // Direct inserts go to keys no other call touches,
                    // so none replaces an entry and the ledger closes.
                    if i % 10 == 0 {
                        cache.insert(1_000_000 + t * 10_000 + i, Arc::new(0));
                    }
                }
            });
        }
    });
    cache.check_invariants().expect("invariants after churn");
    let s = cache.stats();
    assert!(s.hits > 0, "no lookup hit: {s:?}");
    assert!(s.evictions > 0, "the bound never evicted: {s:?}");
    assert!(s.invalidations > 0, "no remove hit a ready entry: {s:?}");
    assert_eq!(
        s.entries + s.evictions + s.invalidations,
        s.computations + s.direct_inserts,
        "fill ledger does not close: {s:?}"
    );
    assert_eq!(s.misses, s.computations, "every miss filled: {s:?}");
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn bounded_churn_never_shows_more_entries_than_capacity() {
    let cache: ShardedCache<u64, u64> = ShardedCache::bounded(32);
    let threads = 4u64;
    let start = Barrier::new(threads as usize + 1);
    let stop = AtomicBool::new(false);
    let samples = std::thread::scope(|scope| {
        let churners: Vec<_> = (0..threads)
            .map(|t| {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..2_000u64 {
                        let k = (t * 1_000 + i * 7) % 96;
                        let _ = cache.get_or_compute(&k, || k * 3);
                        if i % 3 == 0 {
                            let _ = cache.remove(&k);
                        }
                        if i % 10 == 0 {
                            cache.insert(1_000_000 + t * 10_000 + i, Arc::new(0));
                        }
                    }
                })
            })
            .collect();
        // The monitor samples while the churners run: every snapshot, not
        // only the one at quiescence, must respect the bound, and each
        // shard must be consistent whenever its lock is free.
        let monitor = scope.spawn(|| {
            start.wait();
            let mut samples = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let entries = cache.stats().entries;
                assert!(entries <= 32, "sample {samples}: {entries} entries over 32");
                cache
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("sample {samples}: {e}"));
                samples += 1;
            }
            samples
        });
        for churner in churners {
            churner.join().expect("churn thread");
        }
        stop.store(true, Ordering::SeqCst);
        monitor.join().expect("monitor thread")
    });
    assert!(samples > 0, "the monitor never sampled");
    let s = cache.stats();
    assert!(s.evictions > 0, "the bound never evicted: {s:?}");
    assert_eq!(
        s.entries + s.evictions + s.invalidations,
        s.computations + s.direct_inserts,
        "fill ledger does not close: {s:?}"
    );
}

#[test]
fn single_flight_computes_each_key_once_on_an_unbounded_cache() {
    let cache: ShardedCache<u64, u64> = ShardedCache::new();
    let computed = AtomicUsize::new(0);
    let threads = 4usize;
    let keys = 256u64;
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (cache, computed, start) = (&cache, &computed, &start);
            scope.spawn(move || {
                start.wait();
                for k in 0..keys {
                    let (v, _) = cache.get_or_compute(&k, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        k + 1
                    });
                    assert_eq!(*v, k + 1);
                }
            });
        }
    });
    assert_eq!(computed.load(Ordering::SeqCst), keys as usize);
    let s = cache.stats();
    assert_eq!(s.computations, keys);
    assert_eq!(s.misses, keys);
    assert_eq!(s.entries, keys);
    assert_eq!(s.hits + s.coalesced_waits, (threads as u64 - 1) * keys);
    cache.check_invariants().expect("invariants");
}

#[test]
fn insert_reinsert_and_remove_are_visible_across_threads() {
    let cache: ShardedCache<u64, u64> = ShardedCache::new();
    // Each step: the writer mutates, both meet at the barrier, the reader
    // checks, and both meet again before the next mutation.
    let step = Barrier::new(2);
    let expected = [Some(50), Some(51), None];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for want in expected {
                step.wait();
                assert_eq!(cache.get(&5).map(|v| *v), want);
                step.wait();
            }
        });
        cache.insert(5, Arc::new(50));
        step.wait();
        step.wait();
        cache.insert(5, Arc::new(51));
        step.wait();
        step.wait();
        assert!(cache.remove(&5), "the re-inserted entry is ready");
        step.wait();
        step.wait();
    });
    let s = cache.stats();
    assert_eq!((s.direct_inserts, s.invalidations, s.entries), (2, 1, 0));
}

#[test]
fn fault_plan_applies_from_the_next_compile_and_clears() {
    let mut options = OfflineOptions::fast();
    options.n_gen = 4;
    let compiler = MikPoly::offline(MachineModel::a100(), &options);
    let compile = |m: usize| {
        let op = Operator::gemm(GemmShape::new(m, 512, 256));
        compiler
            .try_compile(&op, CompileBudget::default())
            .expect("compiles")
    };
    assert!(compiler.fault_plan().is_none());
    let clean = compile(301);
    assert_eq!(
        (clean.outcome, clean.poison_retries),
        (CacheOutcome::Computed, 0)
    );

    // Every shape's first compile is corrupted while the plan is armed:
    // the next compile, on another thread, must validate, evict and retry.
    compiler.set_fault_plan(Some(Arc::new(FaultPlan {
        cache_corrupt_rate: 1.0,
        ..FaultPlan::none()
    })));
    assert!(compiler.fault_plan().is_some());
    let poisoned =
        std::thread::scope(|scope| scope.spawn(|| compile(302)).join()).expect("compile thread");
    assert!(
        poisoned.poison_retries > 0,
        "the armed plan was not applied"
    );
    poisoned.program.verify_coverage().expect("retry is clean");
    let invalidations = compiler.cache_stats().invalidations;
    assert!(invalidations > 0);

    compiler.set_fault_plan(None);
    assert!(compiler.fault_plan().is_none());
    let cleared = compile(303);
    assert_eq!(cleared.poison_retries, 0, "the cleared plan still applied");
    assert_eq!(compiler.cache_stats().invalidations, invalidations);
}
