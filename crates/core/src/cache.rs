//! Sharded, read-mostly program cache with single-flight fills and a
//! segmented-LRU capacity bound.
//!
//! The online stage is on the request path: under concurrent serving, a
//! single `Mutex<HashMap>` serializes every lookup, and the naive
//! check-then-insert pattern lets N threads that miss on the same shape
//! all run the (micro- to millisecond) polymerization, N−1 of them
//! wasted — a classic cache stampede. This cache fixes both:
//!
//! * **Sharded in-place maps** — keys hash onto [`DEFAULT_SHARDS`]
//!   shards, each a `RwLock` over a `HashMap` on its own pair of cache
//!   lines. A hit takes its shard's read lock; a miss, fill, insert,
//!   remove or eviction is one map operation (plus the shard's own
//!   eviction bookkeeping when bounded) under the write lock. No
//!   computation and no value drop runs under a shard lock, so the lock
//!   is held only for the bookkeeping itself.
//! * **Single flight** — a miss installs an in-flight slot before
//!   computing. Concurrent misses on the same key find the slot and block
//!   on its condvar instead of re-running the computation; exactly one
//!   thread polymerizes each unique shape, and everyone shares the
//!   resulting `Arc`. If the computing thread panics, the slot is
//!   abandoned and one waiter takes over, so a poisoned key cannot wedge
//!   the cache.
//!
//! Counters are lock-free atomics (the hot hit counter is striped across
//! cache lines); [`ShardedCache::stats`] snapshots them for serving
//! telemetry, with the entry count summed from the shards' exact ready
//! counts, each maintained under its shard's lock — no map scans.
//!
//! An optional **capacity bound** ([`ShardedCache::bounded`]) lives inside
//! the shards: `capacity` is split into per-shard caps that sum exactly to
//! it, and each shard evicts by a segmented-LRU policy of its own. New
//! entries enter the shard's probation queue; an entry that was hit while
//! resident is promoted to its protected queue at its first eviction scan
//! (and given halved-frequency second chances there), while unreferenced
//! entries are evicted in insertion order. Hot shapes therefore survive a
//! churning tail instead of being FIFO-thrashed. A fill, insert, batch
//! insert or remove updates the map, the ready count and the queues, and
//! evicts, under the one write lock of its shard, so the queues hold
//! exactly the ready keys and no shard is ever seen above its cap: the
//! bound is exact at every instant, not only at quiescence. The price is
//! that the order is per shard — a full shard evicts even while others
//! have room — which costs a Zipfian churn well under a point of hit
//! rate. Unbounded caches (the default) keep no queues.
//!
//! Failure story: a computing closure that returns `Err` (or panics) never
//! caches its result — the in-flight slot is cleared, waiters are woken,
//! and the next caller retries from scratch
//! ([`ShardedCache::try_get_or_compute`]). Entries found invalid after the
//! fact are evicted with [`ShardedCache::remove`] (counted as
//! `invalidations`).

// Online hot path: failures must surface as typed errors, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

/// Default shard count: enough to make cross-shard lock collisions rare
/// at serving-realistic thread counts, small enough that the padded
/// shards (128 bytes each) and the per-shard sums of `stats` stay cheap.
/// A bounded cache uses at most one shard per unit of capacity.
pub const DEFAULT_SHARDS: usize = 16;

/// Stripes of the hot hit counter (each on its own cache line).
const HIT_STRIPES: usize = 8;

/// Frequencies saturate here; far beyond any promotion threshold.
const FREQ_CEILING: u32 = 1 << 20;

/// How a value came out of [`ShardedCache::get_or_compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already cached.
    Hit,
    /// This call computed the value (the single flight).
    Computed,
    /// Another thread was computing the value; this call waited for it.
    Waited,
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry (each starts one computation).
    pub misses: u64,
    /// Computations that ran to completion (the polymerization count —
    /// with single flight this equals the number of unique keys computed).
    pub computations: u64,
    /// Lookups that blocked on another thread's in-flight computation
    /// instead of re-running it (each is one saved computation).
    pub coalesced_waits: u64,
    /// Entries inserted directly (e.g. a loaded ahead-of-time bundle).
    pub direct_inserts: u64,
    /// Ready entries evicted by the capacity bound (0 when unbounded).
    pub evictions: u64,
    /// Ready entries explicitly evicted by [`ShardedCache::remove`]
    /// (e.g. entries that failed post-fill validation — poisoned entries).
    pub invalidations: u64,
    /// Cached entries at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// Computations started but not yet finished at snapshot time.
    pub fn in_flight(&self) -> u64 {
        self.misses.saturating_sub(self.computations)
    }

    /// Fraction of lookups answered without computing; `0.0` before the
    /// first lookup (never `NaN` — this value reaches exported metrics).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses + self.coalesced_waits;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }

    /// Field-wise sum of two snapshots (e.g. the GEMM and conv caches of
    /// an engine, reported as one).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            computations: self.computations + other.computations,
            coalesced_waits: self.coalesced_waits + other.coalesced_waits,
            direct_inserts: self.direct_inserts + other.direct_inserts,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            entries: self.entries + other.entries,
        }
    }

    /// Publishes this snapshot into a telemetry registry (collector style:
    /// the cache's own atomics stay authoritative; the registry's
    /// `cache.*` counters are overwritten with the snapshot, so they
    /// always equal a [`ShardedCache::stats`] call made at the same time).
    pub fn export_to(&self, registry: &mikpoly_telemetry::Registry) {
        for (name, help) in [
            (
                "cache.hits",
                "program-cache lookups answered from the cache",
            ),
            ("cache.misses", "program-cache lookups that missed"),
            ("cache.computations", "programs compiled on a cache miss"),
            (
                "cache.coalesced_waits",
                "lookups that waited for an in-flight compile of the same key",
            ),
            ("cache.direct_inserts", "programs inserted without a lookup"),
            ("cache.evictions", "entries evicted by the LRU policy"),
            (
                "cache.invalidations",
                "entries dropped by explicit invalidation",
            ),
            ("cache.entries", "resident program-cache entries"),
            (
                "cache.hit_rate",
                "hits over lookups, 0 before the first lookup",
            ),
        ] {
            registry.describe(name, help);
        }
        registry.counter("cache.hits").store(self.hits);
        registry.counter("cache.misses").store(self.misses);
        registry
            .counter("cache.computations")
            .store(self.computations);
        registry
            .counter("cache.coalesced_waits")
            .store(self.coalesced_waits);
        registry
            .counter("cache.direct_inserts")
            .store(self.direct_inserts);
        registry.counter("cache.evictions").store(self.evictions);
        registry
            .counter("cache.invalidations")
            .store(self.invalidations);
        registry.counter("cache.entries").store(self.entries);
        // hit_rate is 0.0 before the first lookup, so the gauge (and the
        // Prometheus exposition rendered from it) can never carry a NaN.
        registry.gauge("cache.hit_rate").set(self.hit_rate());
    }
}

/// An in-flight computation other threads can await.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

enum FlightState<V> {
    Pending,
    Done(Arc<V>),
    /// The computing thread panicked; a waiter must restart the flight.
    Abandoned,
}

/// A ready cache entry: the value plus its hotness.
struct ReadyEntry<V> {
    value: Arc<V>,
    /// Lookup hits since the entry was filled (or last promoted); drives
    /// the segmented-LRU promotion decision. Atomic so that hits, which
    /// hold only the shard's read lock, can record it.
    freq: AtomicU32,
}

enum Slot<V> {
    Ready(ReadyEntry<V>),
    InFlight(Arc<Flight<V>>),
}

/// One cache-line-padded counter cell.
#[derive(Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A counter striped across cache lines so 8 threads hammering the hit
/// path don't serialize on one line. `sum` folds the stripes.
#[derive(Default)]
struct StripedU64 {
    cells: [PaddedU64; HIT_STRIPES],
}

impl StripedU64 {
    #[inline]
    fn add(&self, stripe: usize, n: u64) {
        self.cells[stripe & (HIT_STRIPES - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Default)]
struct Counters {
    hits: StripedU64,
    misses: AtomicU64,
    computations: AtomicU64,
    coalesced_waits: AtomicU64,
    direct_inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

thread_local! {
    /// This thread's hit-counter stripe, handed out round-robin.
    static HIT_STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// One shard, mutated in place under its reader–writer lock.
///
/// Aligned to 128 bytes so no two shards' lock words share a cache line
/// (or the adjacent line the hardware prefetches with it): readers of
/// neighbouring shards then never contend on one line.
#[repr(align(128))]
struct Shard<K, V> {
    state: RwLock<ShardState<K, V>>,
}

/// Everything one shard lock guards: the map, its exact ready count and,
/// when bounded, the segmented-LRU queues, which hold exactly the ready
/// keys (unbounded shards leave them empty).
struct ShardState<K, V> {
    /// Most ready entries the shard holds; `None` when unbounded.
    cap: Option<usize>,
    map: HashMap<K, Slot<V>>,
    /// Number of [`Slot::Ready`] entries in `map`.
    ready: usize,
    /// Probation segment, oldest first: entries that have not earned a
    /// promotion.
    probation: VecDeque<K>,
    /// Protected segment, oldest first: entries hit while resident.
    protected: VecDeque<K>,
}

impl<K: Eq + Hash + Clone, V> ShardState<K, V> {
    /// Installs a ready entry for `key`, queueing it at the probation tail
    /// when bounded unless it replaced a ready entry (which keeps its
    /// queue position). Returns the replaced slot, for the caller to drop
    /// after the lock is released.
    fn fill(&mut self, key: K, value: Arc<V>) -> Option<Slot<V>> {
        let entry = ReadyEntry {
            value,
            freq: AtomicU32::new(0),
        };
        let queued = self.cap.is_some().then(|| key.clone());
        let replaced = self.map.insert(key, Slot::Ready(entry));
        if !matches!(replaced, Some(Slot::Ready(_))) {
            self.ready += 1;
            self.probation.extend(queued);
        }
        replaced
    }

    /// Removes `key`'s ready entry, if any, from the map and the queues.
    /// An in-flight slot is left alone.
    fn remove_ready(&mut self, key: &K) -> Option<Slot<V>> {
        if !matches!(self.map.get(key), Some(Slot::Ready(_))) {
            return None;
        }
        self.ready -= 1;
        self.probation.retain(|k| k != key);
        self.protected.retain(|k| k != key);
        self.map.remove(key)
    }

    /// The segmented-LRU eviction scan, trimming the shard to its cap and
    /// moving victims into `evicted`; returns how many it evicted.
    /// Victims come from the probation queue first (insertion order); an
    /// entry that was hit while resident is promoted to the protected
    /// queue on its first scan instead of dying, and protected entries
    /// earn halved-frequency second chances. The scan budget (one full
    /// pass over the queues) guarantees termination even when everything
    /// is hot: once it runs out, the next queued entry is evicted
    /// regardless.
    fn evict(&mut self, evicted: &mut Vec<Slot<V>>) -> u64 {
        let cap = self.cap.unwrap_or(usize::MAX);
        let mut budget = self.probation.len() + self.protected.len();
        let mut count = 0;
        while self.ready > cap {
            let forced = budget == 0;
            budget = budget.saturating_sub(1);
            let from_probation = !self.probation.is_empty();
            // `None` is unreachable: the queues hold every ready key.
            let Some(key) = self
                .probation
                .pop_front()
                .or_else(|| self.protected.pop_front())
            else {
                break;
            };
            // Always a ready entry: queued keys are exactly the ready ones.
            let Some(Slot::Ready(entry)) = self.map.get(&key) else {
                continue;
            };
            let freq = entry.freq.load(Ordering::Relaxed);
            if !forced && freq > 0 {
                // Promote (probation → protected) or rotate (protected)
                // with decayed frequency instead of evicting a hot entry.
                entry
                    .freq
                    .store(if from_probation { 0 } else { freq / 2 }, Ordering::Relaxed);
                self.protected.push_back(key);
                continue;
            }
            evicted.extend(self.map.remove(&key));
            self.ready -= 1;
            count += 1;
        }
        count
    }
}

/// What a lookup found: a ready value (already counted as a hit) or a
/// flight to await.
enum Found<V> {
    Ready(Arc<V>),
    InFlight(Arc<Flight<V>>),
}

/// Removes the in-flight slot and wakes waiters if the computation never
/// completed (i.e. the closure panicked). Removal is identity-checked: if
/// something else (a direct insert) already replaced the slot, it is left
/// alone.
struct FlightGuard<'a, K: Eq + Hash + Clone, V> {
    shard: &'a Shard<K, V>,
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Eq + Hash + Clone, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            {
                let mut state = self.shard.state.write();
                if matches!(state.map.get(&key), Some(Slot::InFlight(f)) if Arc::ptr_eq(f, &self.flight))
                {
                    state.map.remove(&key);
                }
            }
            *self.flight.state.lock() = FlightState::Abandoned;
            self.flight.ready.notify_all();
        }
    }
}

/// A sharded map from keys to `Arc`'d values with read-locked hits,
/// single-flight fills, and an optional per-shard segmented-LRU capacity
/// bound.
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    counters: Counters,
    /// Maximum ready entries (the sum of the shard caps); `None` means
    /// unbounded (no queues are kept).
    capacity: Option<usize>,
}

impl<K, V> ShardedCache<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// A cache with [`DEFAULT_SHARDS`] shards and no capacity bound.
    pub fn new() -> Self {
        Self::with_caps(vec![None; DEFAULT_SHARDS], None)
    }

    /// A cache holding at most `capacity` ready entries, split over
    /// `min(DEFAULT_SHARDS, capacity)` shards whose caps sum exactly to
    /// `capacity`. A shard over its cap evicts by the segmented-LRU
    /// policy: unreferenced entries go in insertion order, and entries hit
    /// while resident get a protected second life. A `capacity` of zero is
    /// treated as one — an empty bound would evict every fill before its
    /// caller returned.
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = DEFAULT_SHARDS.min(capacity);
        let caps = (0..shards)
            .map(|i| Some(capacity / shards + usize::from(i < capacity % shards)))
            .collect();
        Self::with_caps(caps, Some(capacity))
    }

    fn with_caps(caps: Vec<Option<usize>>, capacity: Option<usize>) -> Self {
        Self {
            shards: caps
                .into_iter()
                .map(|cap| Shard {
                    state: RwLock::new(ShardState {
                        cap,
                        map: HashMap::new(),
                        ready: 0,
                        probation: VecDeque::new(),
                        protected: VecDeque::new(),
                    }),
                })
                .collect(),
            counters: Counters::default(),
            capacity,
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[self.shard_index(key)]
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Looks `key` up in a locked shard, counting a ready entry as a hit.
    /// Callers pass the guard as a temporary, so the lock is released
    /// before they act on the result (awaiting a flight in particular).
    fn find(&self, state: &ShardState<K, V>, key: &K) -> Option<Found<V>> {
        match state.map.get(key)? {
            Slot::Ready(e) => {
                self.note_hit(e);
                Some(Found::Ready(Arc::clone(&e.value)))
            }
            Slot::InFlight(f) => Some(Found::InFlight(Arc::clone(f))),
        }
    }

    fn note_hit(&self, entry: &ReadyEntry<V>) {
        // Thread-local storage is gone only during thread teardown.
        let stripe = HIT_STRIPE.try_with(|s| *s).unwrap_or(0);
        self.counters.hits.add(stripe, 1);
        if self.capacity.is_some() && entry.freq.load(Ordering::Relaxed) < FREQ_CEILING {
            entry.freq.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Installs ready entries in `shard` and trims it back to its cap, all
    /// under one write lock, so the shard never shows more than its cap.
    /// Replaced and evicted values are dropped after the lock is released.
    fn commit(&self, shard: &Shard<K, V>, entries: impl IntoIterator<Item = (K, Arc<V>)>) {
        let mut displaced = Vec::new();
        let evicted = {
            let mut state = shard.state.write();
            for (key, value) in entries {
                displaced.extend(state.fill(key, value));
            }
            state.evict(&mut displaced)
        };
        if evicted > 0 {
            self.counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks `key` up without filling; counts as a hit when present.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        match self.find(&self.shard(key).state.read(), key) {
            Some(Found::Ready(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// a miss. Concurrent callers for the same key coalesce onto a single
    /// computation; the outcome says which role this call played.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> (Arc<V>, CacheOutcome) {
        match self.try_get_or_compute(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok(found) => found,
            Err(infallible) => match infallible {},
        }
    }

    /// Like [`ShardedCache::get_or_compute`], but the computation may
    /// fail. An `Err` is **never cached**: the in-flight slot is removed
    /// and every coalesced waiter is woken to retry (one of them becomes
    /// the next leader), exactly as if the closure had panicked. The
    /// error is returned to the leader only; waiters re-run `compute`
    /// under their own call's closure.
    pub fn try_get_or_compute<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, CacheOutcome), E> {
        let shard = self.shard(key);
        // Fast path under the read lock: a ready hit returns directly; a
        // visible in-flight slot is awaited after the lock is released.
        let found = self.find(&shard.state.read(), key);
        match found {
            Some(Found::Ready(v)) => return Ok((v, CacheOutcome::Hit)),
            Some(Found::InFlight(flight)) => {
                if let Some(v) = self.await_flight(&flight) {
                    return Ok((v, CacheOutcome::Waited));
                }
                // Abandoned: fall through and contend for the takeover.
            }
            None => {}
        }
        loop {
            // Decide this thread's role under the shard's write lock…
            let flight = {
                let mut state = shard.state.write();
                match self.find(&state, key) {
                    Some(Found::Ready(v)) => return Ok((v, CacheOutcome::Hit)),
                    Some(Found::InFlight(flight)) => {
                        drop(state);
                        match self.await_flight(&flight) {
                            Some(v) => return Ok((v, CacheOutcome::Waited)),
                            // Computing thread panicked or failed: retry
                            // and take over the flight.
                            None => continue,
                        }
                    }
                    None => {
                        self.counters.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            ready: Condvar::new(),
                        });
                        state
                            .map
                            .insert(key.clone(), Slot::InFlight(Arc::clone(&flight)));
                        flight
                    }
                }
            };
            // …then compute outside any shard lock. The guard clears the
            // in-flight slot and wakes waiters on *any* early exit —
            // panic or `Err` — so a failed leader can never wedge them.
            let mut guard = FlightGuard {
                shard,
                key: Some(key.clone()),
                flight: Arc::clone(&flight),
            };
            let value = Arc::new(compute()?);
            guard.key = None; // disarm: the fill is committing
            self.commit(shard, [(key.clone(), Arc::clone(&value))]);
            *flight.state.lock() = FlightState::Done(Arc::clone(&value));
            flight.ready.notify_all();
            self.counters.computations.fetch_add(1, Ordering::Relaxed);
            return Ok((value, CacheOutcome::Computed));
        }
    }

    /// Evicts `key`'s ready entry, if any (counted as an invalidation —
    /// the knob for entries found corrupt after the fact). An in-flight
    /// slot is left alone: its leader still owns the fill and its waiters
    /// its condvar.
    pub fn remove(&self, key: &K) -> bool {
        // Bound outside the guard's statement, so the removed value is
        // dropped after the write lock is released.
        let removed = self.shard(key).state.write().remove_ready(key);
        if removed.is_none() {
            return false;
        }
        self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Blocks until `flight` resolves; `None` means it was abandoned.
    fn await_flight(&self, flight: &Flight<V>) -> Option<Arc<V>> {
        self.counters
            .coalesced_waits
            .fetch_add(1, Ordering::Relaxed);
        let mut state = flight.state.lock();
        loop {
            match &*state {
                FlightState::Done(v) => return Some(Arc::clone(v)),
                FlightState::Abandoned => return None,
                FlightState::Pending => flight.ready.wait(&mut state),
            }
        }
    }

    /// Inserts a ready value, replacing any previous entry.
    pub fn insert(&self, key: K, value: Arc<V>) {
        self.counters.direct_inserts.fetch_add(1, Ordering::Relaxed);
        self.commit(self.shard(&key), [(key, value)]);
    }

    /// Bulk [`ShardedCache::insert`]: groups the batch by shard so each
    /// shard's write lock is taken **once** for all of its entries.
    pub fn insert_many(&self, entries: impl IntoIterator<Item = (K, Arc<V>)>) {
        let mut by_shard: Vec<Vec<(K, Arc<V>)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut n = 0u64;
        for (key, value) in entries {
            by_shard[self.shard_index(&key)].push((key, value));
            n += 1;
        }
        self.counters.direct_inserts.fetch_add(n, Ordering::Relaxed);
        for (shard, batch) in self.shards.iter().zip(by_shard) {
            if !batch.is_empty() {
                self.commit(shard, batch);
            }
        }
    }

    /// Clones out every ready value — a consistent-enough snapshot taken
    /// shard by shard, without holding any lock across the whole scan.
    pub fn snapshot(&self) -> Vec<Arc<V>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .state
                    .read()
                    .map
                    .values()
                    .filter_map(|slot| match slot {
                        Slot::Ready(e) => Some(Arc::clone(&e.value)),
                        Slot::InFlight(_) => None,
                    }),
            );
        }
        out
    }

    /// Number of ready entries, counted by scanning the shard maps — the
    /// ground truth the maintained counts of
    /// [`ShardedCache::ready_entries`] are tested against.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.state
                    .read()
                    .map
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Ready-entry count from the shards' maintained counts (no map
    /// scans). Each shard is read under its own lock, at a moment when it
    /// holds at most its cap, so the sum never exceeds the capacity.
    pub fn ready_entries(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().ready).sum()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.ready_entries() == 0
    }

    /// Snapshots the counters; `entries` is [`ShardedCache::ready_entries`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.sum(),
            misses: self.counters.misses.load(Ordering::Relaxed),
            computations: self.counters.computations.load(Ordering::Relaxed),
            coalesced_waits: self.counters.coalesced_waits.load(Ordering::Relaxed),
            direct_inserts: self.counters.direct_inserts.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            invalidations: self.counters.invalidations.load(Ordering::Relaxed),
            entries: self.ready_entries() as u64,
        }
    }

    /// Checks each shard's structural invariants, intended for tests and
    /// the `cache-bench` smoke: the ready count equals a scan of the map
    /// and is at most the shard's cap, and the queues hold exactly the
    /// ready keys, each once (empty when unbounded). Each shard is checked
    /// under its read lock, so the check is sound under concurrent
    /// mutators too.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let s = shard.state.read();
            let scanned = s
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready(_)))
                .count();
            let queued = s.probation.len() + s.protected.len();
            let distinct: std::collections::HashSet<&K> =
                s.probation.iter().chain(&s.protected).collect();
            let problem = if s.ready != scanned {
                format!("ready count {} != scanned entry count {scanned}", s.ready)
            } else if s.cap.is_some_and(|cap| s.ready > cap) {
                format!("{} ready entries exceed its cap {:?}", s.ready, s.cap)
            } else if queued != if s.cap.is_some() { s.ready } else { 0 }
                || distinct.len() != queued
                || distinct
                    .iter()
                    .any(|k| !matches!(s.map.get(*k), Some(Slot::Ready(_))))
            {
                format!(
                    "queues hold {queued} records ({} distinct) for {} ready entries",
                    distinct.len(),
                    s.ready
                )
            } else {
                continue;
            };
            return Err(format!("shard {i}: {problem}"));
        }
        Ok(())
    }
}

impl<K, V> Default for ShardedCache<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hit_after_compute_and_counters() {
        let cache: ShardedCache<u64, String> = ShardedCache::new();
        let (v, outcome) = cache.get_or_compute(&7, || "seven".to_string());
        assert_eq!(outcome, CacheOutcome::Computed);
        assert_eq!(&*v, "seven");
        let (v2, outcome2) = cache.get_or_compute(&7, || unreachable!("must hit"));
        assert_eq!(outcome2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&v, &v2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.computations), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn hit_rate_is_zero_before_first_lookup_and_never_nan() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0, "empty stats must not be NaN");
        assert!(stats.hit_rate().is_finite());
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        assert!(cache.stats().hit_rate().is_finite());
        let _ = cache.get_or_compute(&1, || 1);
        let _ = cache.get(&1);
        assert_eq!(cache.stats().hit_rate(), 0.5);
    }

    #[test]
    fn concurrent_misses_compute_exactly_once() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                scope.spawn(move || {
                    let (v, _) = cache.get_or_compute(&42, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        4242
                    });
                    assert_eq!(*v, 4242);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        let stats = cache.stats();
        assert_eq!(stats.computations, 1);
        assert_eq!(stats.hits + stats.coalesced_waits, threads - 1);
    }

    #[test]
    fn panicked_flight_is_taken_over() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let _ = c2.get_or_compute(&1, || panic!("simulated compile failure"));
        });
        assert!(panicker.join().is_err());
        // The key is not wedged: the next caller computes it.
        let (v, outcome) = cache.get_or_compute(&1, || 11);
        assert_eq!((*v, outcome), (11, CacheOutcome::Computed));
    }

    #[test]
    fn failed_flight_is_not_cached_and_retries() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let err = cache
            .try_get_or_compute(&5, || Err::<u64, &str>("injected"))
            .expect_err("leader must see its own error");
        assert_eq!(err, "injected");
        assert_eq!(cache.len(), 0, "errors are never cached");
        assert!(cache.get(&5).is_none());
        // The key is not wedged: the next caller computes fresh.
        let (v, outcome) = cache
            .try_get_or_compute(&5, || Ok::<u64, &str>(55))
            .expect("retry succeeds");
        assert_eq!((*v, outcome), (55, CacheOutcome::Computed));
        let stats = cache.stats();
        assert_eq!(stats.computations, 1, "only the success counts");
        assert_eq!(stats.misses, 2, "both calls missed");
    }

    #[test]
    fn followers_of_failed_leader_retry_instead_of_hanging() {
        // One leader fails (errors or panics) while several followers are
        // already blocked on its flight. Every follower must terminate:
        // one takes over and computes, the rest share the result.
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let started = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let _ = cache.try_get_or_compute(&9, || {
                    started.wait(); // followers may now pile on
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err::<u64, &str>("leader fails")
                });
            })
        };
        started.wait();
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (v, _) = cache
                        .try_get_or_compute(&9, || Ok::<u64, &str>(99))
                        .expect("follower retry must succeed");
                    *v
                })
            })
            .collect();
        leader.join().expect("leader thread must not die");
        for f in followers {
            assert_eq!(f.join().expect("follower must terminate"), 99);
        }
        let stats = cache.stats();
        assert_eq!(stats.computations, 1, "exactly one successful fill");
        assert!(cache.get(&9).is_some());
    }

    #[test]
    fn followers_of_panicked_leader_do_not_hang() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        let started = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(&3, || {
                    started.wait();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("injected compile panic");
                });
            })
        };
        started.wait();
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let (v, _) = cache.get_or_compute(&3, || 33);
                    *v
                })
            })
            .collect();
        assert!(leader.join().is_err(), "leader panics");
        for f in followers {
            assert_eq!(f.join().expect("follower must terminate"), 33);
        }
    }

    #[test]
    fn remove_evicts_ready_entries_and_counts_invalidations() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        cache.insert(1, Arc::new(10));
        assert!(cache.remove(&1), "ready entry removed");
        assert!(!cache.remove(&1), "second remove is a no-op");
        assert!(!cache.remove(&2), "absent key is a no-op");
        assert!(cache.get(&1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
        // Removed keys recompute on next sight.
        let (_, outcome) = cache.get_or_compute(&1, || 11);
        assert_eq!(outcome, CacheOutcome::Computed);
    }

    #[test]
    fn snapshot_and_direct_insert() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..100 {
            cache.insert(k, Arc::new(k * 2));
        }
        assert_eq!(cache.len(), 100);
        let mut values: Vec<u64> = cache.snapshot().iter().map(|v| **v).collect();
        values.sort_unstable();
        assert_eq!(values, (0..100).map(|k| k * 2).collect::<Vec<_>>());
        assert_eq!(cache.stats().direct_inserts, 100);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn insert_many_matches_individual_inserts() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        cache.insert_many((0..500).map(|k| (k, Arc::new(k * 3))));
        assert_eq!(cache.len(), 500);
        assert_eq!(cache.ready_entries(), 500);
        for k in 0..500 {
            assert_eq!(*cache.get(&k).expect("present"), k * 3);
        }
        assert_eq!(cache.stats().direct_inserts, 500);
        cache.check_invariants().expect("invariants");
        // Re-inserting the same keys replaces, never double-counts.
        cache.insert_many((0..500).map(|k| (k, Arc::new(k * 4))));
        assert_eq!(cache.ready_entries(), 500);
        assert_eq!(*cache.get(&7).expect("present"), 28);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn bounded_cache_evicts_unreferenced_entries_in_insertion_order() {
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(1);
        assert_eq!(cache.capacity(), Some(1));
        let (_, o1) = cache.get_or_compute(&1, || 10);
        let (_, o2) = cache.get_or_compute(&2, || 20);
        // Key 1 was evicted to make room for key 2, so it recomputes.
        let (v1, o3) = cache.get_or_compute(&1, || 11);
        assert_eq!(
            (o1, o2, o3),
            (
                CacheOutcome::Computed,
                CacheOutcome::Computed,
                CacheOutcome::Computed
            )
        );
        assert_eq!(*v1, 11);
        let stats = cache.stats();
        assert_eq!(stats.computations, 3);
        assert!(stats.entries <= 1);
        assert!(stats.evictions >= 2, "evictions={}", stats.evictions);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn bounded_caps_split_the_capacity_exactly() {
        for capacity in [1usize, 4, 16, 17, 32, 2048, 2050] {
            let cache: ShardedCache<u64, u64> = ShardedCache::bounded(capacity);
            let caps: Vec<usize> = cache
                .shards
                .iter()
                .filter_map(|s| s.state.read().cap)
                .collect();
            assert_eq!(caps.len(), DEFAULT_SHARDS.min(capacity), "{capacity}");
            assert_eq!(caps.iter().sum::<usize>(), capacity, "{capacity}");
            let (lo, hi) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(hi - lo <= 1, "{capacity}: uneven caps {caps:?}");
        }
        assert!(ShardedCache::<u64, u64>::new().shards.iter().all(|s| s
            .state
            .read()
            .cap
            .is_none()));
    }

    #[test]
    fn bounded_cache_keeps_newest_entries() {
        // Without any hits, the segmented-LRU policy degenerates to
        // insertion order within each shard: every shard keeps its newest
        // entries up to its cap (here 4 shards of one entry each).
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(4);
        for k in 0..32 {
            cache.insert(k, Arc::new(k));
        }
        let mut newest = vec![None; cache.shards.len()];
        for k in 0..32 {
            newest[cache.shard_index(&k)] = Some(k);
        }
        assert!(newest.iter().all(Option::is_some), "a shard got no key");
        assert_eq!(cache.len(), 4);
        for k in 0..32 {
            let survives = newest.contains(&Some(k));
            assert_eq!(cache.get(&k).is_some(), survives, "key {k}");
        }
        assert_eq!(cache.stats().evictions, 28);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn hot_entries_survive_a_churning_tail() {
        // The capacity-thrash fix: a hit-while-resident entry is promoted
        // to the protected segment and outlives a stream of one-shot keys
        // that would have FIFO-evicted it.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(4);
        cache.insert(1000, Arc::new(1));
        for _ in 0..3 {
            assert!(cache.get(&1000).is_some());
        }
        for k in 0..64 {
            cache.insert(k, Arc::new(k));
        }
        assert!(
            cache.get(&1000).is_some(),
            "hot key must survive 64 cold inserts at capacity 4"
        );
        assert_eq!(cache.len(), 4);
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn remove_and_reinsert_never_evicts_or_leaks_queue_records() {
        // Regression for the FIFO-order leak: an invalidate/re-insert
        // loop used to grow the order list without bound, and the stale
        // front records could evict a re-inserted key prematurely. Here
        // the cache is exactly full (one key per shard of cap 1) for the
        // whole loop.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(8);
        let mut keys = vec![None; cache.shards.len()];
        for k in 0.. {
            let slot = &mut keys[cache.shard_index(&k)];
            if slot.is_none() {
                *slot = Some(k);
                if keys.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        let keys: Vec<u64> = keys.into_iter().flatten().collect();
        for &k in &keys {
            cache.insert(k, Arc::new(k));
        }
        for round in 0..1000u64 {
            let k = keys[round as usize % keys.len()];
            assert!(cache.remove(&k), "round {round}: live entry removed");
            cache.insert(k, Arc::new(k + round));
        }
        // Survivor set: exactly the 8 keys, all at their newest values.
        assert_eq!(cache.len(), 8);
        for &k in &keys {
            assert!(cache.get(&k).is_some(), "key {k} must survive the churn");
        }
        // No evictions ever happened — no shard ever exceeded its cap, so
        // any eviction would have been a stale-record bug.
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "removed keys must not evict");
        assert_eq!(stats.invalidations, 1000);
        // The queues hold exactly the 8 ready keys, once each.
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn ready_counter_matches_scan_under_mixed_operations() {
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(16);
        for k in 0..64 {
            cache.insert(k, Arc::new(k));
            if k % 3 == 0 {
                cache.remove(&(k / 2));
            }
            if k % 5 == 0 {
                let _ = cache.get_or_compute(&(k + 1000), || k);
            }
            assert_eq!(
                cache.ready_entries(),
                cache.len(),
                "counter diverged at step {k}"
            );
        }
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn ready_counter_matches_scan_under_concurrent_churn() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::bounded(32));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 1000 + i) % 96;
                        match i % 4 {
                            0 => cache.insert(k, Arc::new(i)),
                            1 => {
                                let _ = cache.get_or_compute(&k, || i);
                            }
                            2 => {
                                let _ = cache.get(&k);
                            }
                            _ => {
                                let _ = cache.remove(&k);
                            }
                        }
                    }
                });
            }
        });
        cache.check_invariants().expect("invariants after churn");
    }

    #[test]
    fn eviction_racing_a_committing_flight_strands_no_one() {
        // A bounded cache under simultaneous fills: flights commit while
        // other threads' eviction scans trim the same shards. Nobody may
        // hang, every caller gets its value, and the counters stay
        // consistent (evictions never exceed successful fills).
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::bounded(4));
        let threads = 8u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t + i) % 32;
                        let (v, _) = cache.get_or_compute(&k, || k * 7);
                        assert_eq!(*v, k * 7, "wrong value for key {k}");
                    }
                });
            }
        });
        let stats = cache.stats();
        let fills = stats.computations + stats.direct_inserts;
        assert!(
            stats.evictions <= fills,
            "evictions {} exceed fills {fills} — double-counted",
            stats.evictions
        );
        assert_eq!(
            stats.entries as usize,
            cache.len(),
            "ready counter diverged under racing eviction"
        );
        cache.check_invariants().expect("invariants");
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..256 {
            cache.insert(k, Arc::new(k));
        }
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.state.read().map.is_empty())
            .count();
        assert!(occupied >= 12, "only {occupied}/16 shards occupied");
    }

    #[test]
    fn cross_thread_visibility_of_insert_and_remove() {
        // A value inserted on one thread is visible to another thread, and
        // a re-insert or remove is visible to the next read.
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new());
        cache.insert(5, Arc::new(50));
        assert_eq!(*cache.get(&5).expect("same-thread read"), 50);
        let c2 = Arc::clone(&cache);
        let handle = std::thread::spawn(move || c2.get(&5).map(|v| *v));
        assert_eq!(handle.join().expect("reader thread"), Some(50));
        // Mutate and re-read on this thread: the in-place map update is
        // visible immediately.
        cache.insert(5, Arc::new(51));
        assert_eq!(*cache.get(&5).expect("post-update read"), 51);
        cache.remove(&5);
        assert!(cache.get(&5).is_none(), "removal visible immediately");
    }
}
