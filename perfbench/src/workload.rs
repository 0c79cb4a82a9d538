//! The three seeded workloads: their fixed constants, request streams,
//! and engine/serving configuration.
//!
//! Arrival rates and latency limits are constants of each workload (they
//! are repeated in `BENCHMARK.json`). They are never derived from a
//! measured host or device time, so a change that speeds either one up
//! cannot change the offered load.

use std::collections::HashSet;

use mikpoly::{BatchingOptions, OnlineOptions, Request, ServingOptions, TenantPolicy, TenantQuota};
use mikpoly_workloads::{bursty_traffic, LENGTH_PALETTE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tensor_ir::{GemmShape, Operator};

/// Serving worker threads (and `nproc`) of every workload.
pub const WORKERS: usize = 2;
/// Simulated devices behind the NVLink interconnect.
pub const DEVICES: usize = 2;
/// Distinct seeded streams per run, served round-robin: the virtual
/// figures are medians over them, which steadies them across seeds.
pub const STREAMS: usize = 8;
/// The (N, K) pairs of a BERT-base encoder layer's four GEMMs: fused QKV
/// projection, attention output, FFN up, FFN down.
pub const BERT_PAIRS: [(usize, usize); 4] = [(2304, 768), (768, 768), (3072, 768), (768, 3072)];
/// The (N, K) pairs of a thin decode step's two attention projections
/// (the `batch-serving` experiment's request).
pub const DECODE_PAIRS: [(usize, usize); 2] = [(256, 256), (512, 256)];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solo dispatch of BERT encoder layers over 128 precompiled shapes.
    BertWarm,
    /// Solo dispatch of single GEMMs with mostly first-seen shapes into a
    /// bounded program cache.
    ShapeStorm,
    /// Batched, co-launched, two-tenant dispatch of bursty decode steps.
    DecodeBurst,
}

/// The fixed constants of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Requests per stream.
    pub requests: usize,
    /// Mean virtual gap between arrivals, ns (the offered load).
    pub mean_gap_ns: f64,
    /// Virtual end-to-end latency limit, ns: the SLO of
    /// `slo_attainment` (and each request's deadline on `decode-burst`).
    pub latency_limit_ns: f64,
    /// Bound on the GEMM program cache (`None` = unbounded).
    pub cache_capacity: Option<usize>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BertWarm,
        Workload::ShapeStorm,
        Workload::DecodeBurst,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BertWarm => "bert-warm",
            Workload::ShapeStorm => "shape-storm",
            Workload::DecodeBurst => "decode-burst",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's constants.
    pub fn spec(self) -> Spec {
        match self {
            // 67.8 us of device time per request (47.8 us simulated plus
            // the 20 us NVLink dispatch) on 2 devices: a 48.5 us gap is
            // ~70% of the pool's capacity.
            Workload::BertWarm => Spec {
                requests: 20_000,
                mean_gap_ns: 45_200.0,
                latency_limit_ns: 350_000.0,
                cache_capacity: None,
            },
            // ~104 us of device time per request plus a real compile of
            // tens of us that the runtime projects onto the timeline: a
            // 160 us gap keeps the two workers below ~50% busy.
            Workload::ShapeStorm => Spec {
                requests: 5_000,
                mean_gap_ns: 160_000.0,
                latency_limit_ns: 500_000.0,
                cache_capacity: Some(2_048),
            },
            // ~25 us of device time per solo request: a 9 us gap offers
            // ~1.4x what solo dispatch can serve on 2 devices, which only
            // co-launched waves absorb.
            Workload::DecodeBurst => Spec {
                requests: 20_000,
                mean_gap_ns: 9_000.0,
                latency_limit_ns: 1_000_000.0,
                cache_capacity: None,
            },
        }
    }

    /// Whether set-up compiles every shape the streams can carry, so the
    /// timed serves are all cache hits and their virtual timeline is an
    /// exact function of the seed.
    pub fn precompiled(self) -> bool {
        !matches!(self, Workload::ShapeStorm)
    }

    /// The shapes set-up compiles (the whole shape universe of a
    /// precompiled workload; none for `shape-storm`).
    pub fn warmup_ops(self) -> Vec<Operator> {
        match self {
            Workload::BertWarm => (1..=32).flat_map(|u| bert_layer(16 * u)).collect(),
            Workload::ShapeStorm => Vec::new(),
            Workload::DecodeBurst => LENGTH_PALETTE.into_iter().flat_map(decode_step).collect(),
        }
    }

    /// Online options of the engine's compilers.
    pub fn online_options(self) -> OnlineOptions {
        OnlineOptions {
            cache_capacity: self.spec().cache_capacity,
            ..OnlineOptions::default()
        }
    }

    /// Dispatch policy of the serving runtime.
    pub fn serving_options(self) -> ServingOptions {
        match self {
            Workload::BertWarm | Workload::ShapeStorm => ServingOptions::default(),
            Workload::DecodeBurst => ServingOptions {
                batching: Some(BatchingOptions::default()),
                tenancy: Some(TenantPolicy::new(
                    (0..2)
                        .map(|tenant| TenantQuota {
                            tenant,
                            weight: 1.0,
                            max_waiting: None,
                        })
                        .collect(),
                )),
                ..ServingOptions::default()
            },
        }
    }

    /// The run's seeded streams: stream `i` of `seed` is always the same.
    pub fn streams(self, seed: u64) -> Vec<Vec<Request>> {
        (0..STREAMS).map(|i| self.stream(seed, i)).collect()
    }

    /// Stream `index` of `seed`.
    pub fn stream(self, seed: u64, index: usize) -> Vec<Request> {
        let spec = self.spec();
        let seed = splitmix64(seed ^ splitmix64(index as u64 + 1));
        match self {
            Workload::BertWarm => {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xBE27);
                poisson(spec, seed)
                    .enumerate()
                    .map(|(id, arrival_ns)| Request {
                        id,
                        arrival_ns,
                        ops: bert_layer(16 * rng.gen_range(1usize..=32))
                            .into_iter()
                            .map(|op| (op, 1))
                            .collect(),
                        deadline_ns: None,
                        tenant: 0,
                    })
                    .collect()
            }
            Workload::ShapeStorm => {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5707);
                poisson(spec, seed)
                    .enumerate()
                    .map(|(id, arrival_ns)| {
                        let m = rng.gen_range(1usize..=8192);
                        let (n, k) = BERT_PAIRS[rng.gen_range(0..BERT_PAIRS.len())];
                        Request::single(id, arrival_ns, Operator::gemm(GemmShape::new(m, n, k)))
                    })
                    .collect()
            }
            Workload::DecodeBurst => bursty_traffic(spec.requests, spec.mean_gap_ns, 8, 2, seed)
                .into_iter()
                .enumerate()
                .map(|(id, event)| Request {
                    id,
                    arrival_ns: event.arrival_ns,
                    ops: decode_step(event.seq_len)
                        .into_iter()
                        .map(|op| (op, 1))
                        .collect(),
                    deadline_ns: Some(event.arrival_ns + spec.latency_limit_ns),
                    tenant: event.tenant,
                })
                .collect(),
        }
    }
}

/// Distinct operators across `requests`.
pub fn unique_ops<'a>(requests: impl IntoIterator<Item = &'a Request>) -> HashSet<Operator> {
    requests
        .into_iter()
        .flat_map(|r| r.ops.iter().map(|(op, _)| *op))
        .collect()
}

/// Poisson arrivals at the workload's fixed rate.
fn poisson(spec: Spec, seed: u64) -> impl Iterator<Item = f64> {
    mikpoly::poisson_arrivals(spec.requests, spec.mean_gap_ns, seed).into_iter()
}

/// The four GEMMs of a BERT-base encoder layer at sequence length `len`
/// (the request shape of `mikpoly serve`).
fn bert_layer(len: usize) -> Vec<Operator> {
    BERT_PAIRS
        .into_iter()
        .map(|(n, k)| Operator::gemm(GemmShape::new(len, n, k)))
        .collect()
}

/// The two projection GEMMs of one decode step at sequence length `len`.
fn decode_step(len: usize) -> Vec<Operator> {
    DECODE_PAIRS
        .into_iter()
        .map(|(n, k)| Operator::gemm(GemmShape::new(len, n, k)))
        .collect()
}

/// SplitMix64: derives independent sub-seeds from the run seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
