//! Request and record types of the serving pipeline.
//!
//! One [`Request`] flows through the layered dispatcher — admission →
//! (optional) batching/co-launch → workers — and terminates with exactly
//! one [`Disposition`], captured in a [`RequestRecord`]. Everything here
//! is plain data; the policy lives in the sibling modules.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mikpoly_telemetry::{ChainDisposition, ClockNs};
use tensor_ir::Operator;

/// Sentinel for "no worker/device slot": shed requests never occupy one.
pub(crate) const NO_SLOT: usize = usize::MAX;

/// Identifies the tenant a request bills against. Tenant `0` is the
/// default for single-tenant streams; ids are dense small integers so
/// per-tenant accounting can use flat arrays.
pub type TenantId = u32;

/// One inference request: a weighted operator list (one forward pass)
/// arriving at a virtual timestamp, billed to a tenant.
#[derive(Debug, Clone)]
pub struct Request {
    /// Stream-unique id (records are reported in id order).
    pub id: usize,
    /// Virtual arrival time, ns from stream start.
    pub arrival_ns: f64,
    /// The operators of the forward pass, each with an execution count.
    pub ops: Vec<(Operator, usize)>,
    /// Virtual deadline, ns from stream start: the request is shed unless
    /// its service can *start* by this time. `None` means no deadline.
    pub deadline_ns: Option<f64>,
    /// The tenant this request bills against (0 for single-tenant
    /// streams; see [`crate::serving::TenantPolicy`]).
    pub tenant: TenantId,
}

impl Request {
    /// A single-operator request with no deadline, billed to tenant 0.
    pub fn single(id: usize, arrival_ns: f64, operator: Operator) -> Self {
        Self {
            id,
            arrival_ns,
            ops: vec![(operator, 1)],
            deadline_ns: None,
            tenant: 0,
        }
    }

    /// Sets the virtual deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline_ns: f64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Sets the billing tenant (builder style).
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// How a request's service terminated. Every request gets exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served with a fully-searched program.
    Completed,
    /// Served correctly but with a degraded program (deadline-cut search
    /// incumbent, search-free fallback, or an open breaker's detour).
    Degraded,
    /// Rejected by admission control before consuming virtual resources
    /// (see [`RequestRecord::shed_reason`]).
    Shed,
    /// Admitted but not served: both compile paths failed, or device
    /// retries were exhausted.
    Failed,
}

/// Why admission control rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The deadline had already passed when the request arrived; it was
    /// shed before any compile work.
    DeadlineAtEnqueue,
    /// Service would have started after the deadline.
    DeadlineAtDispatch,
    /// The bounded wait queue was full at enqueue time.
    QueueFull,
    /// The request's tenant had exhausted its waiting-slot quota; other
    /// tenants' capacity is untouched (the isolation mechanism).
    TenantThrottled,
    /// The runtime was draining: admission was closed by a graceful
    /// shutdown (see [`crate::serving::Lifecycle`]). The request still
    /// gets a disposition and a retained chain — a drain loses nothing
    /// silently.
    Draining,
}

impl ShedReason {
    /// Stable lowercase label, used as the flight-recorder chain's error
    /// string for shed requests.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::DeadlineAtEnqueue => "deadline-at-enqueue",
            ShedReason::DeadlineAtDispatch => "deadline-at-dispatch",
            ShedReason::QueueFull => "queue-full",
            ShedReason::TenantThrottled => "tenant-throttled",
            ShedReason::Draining => "draining",
        }
    }
}

/// Per-request latency decomposition (see the module docs for which parts
/// are real versus virtual time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// The request's id.
    pub id: usize,
    /// The tenant the request billed against.
    pub tenant: TenantId,
    /// Worker slot that served it (`usize::MAX` for shed requests,
    /// which never occupy one — see [`RequestRecord::executed`]).
    pub worker: usize,
    /// Device that executed it (`usize::MAX` when none did).
    pub device: usize,
    /// Virtual wait for a worker plus a device, ns.
    pub queue_ns: f64,
    /// Online-compilation wall clock, explicitly labelled as **real**
    /// time (zero when fully cache-hit) — the clock tag is what keeps it
    /// from being summed into virtual durations unannotated.
    pub compile: ClockNs,
    /// Portion of the compile window the polymerization search took
    /// (real ns; fresh compilations only).
    pub search_ns: u128,
    /// Portion of the compile window spent blocked on another worker's
    /// in-flight compilation of the same shape (real ns).
    pub cache_wait_ns: u128,
    /// Simulated device time including dispatch and any fault retries
    /// with their backoffs, ns. For a co-launched request this is its
    /// *wave's* duration — the time the request actually occupied the
    /// device timeline.
    pub device_ns: f64,
    /// Virtual completion time, ns from stream start (arrival time for
    /// shed requests).
    pub finish_ns: f64,
    /// How service terminated.
    pub disposition: Disposition,
    /// Set iff `disposition` is [`Disposition::Shed`].
    pub shed_reason: Option<ShedReason>,
    /// Device-fault retries this request paid for (in backoff + re-run
    /// virtual time).
    pub retries: u32,
    /// The request's deadline, copied through so SLO evaluation can
    /// compute deadline-hit rates from records alone.
    pub deadline_ns: Option<f64>,
    /// Circuit-breaker transition observed while serving this request:
    /// `"opened"` (this request's failure tripped the breaker),
    /// `"closed"` (its probe succeeded), or `"short-circuit"` (an open
    /// breaker routed it straight to the degraded path).
    pub breaker_event: Option<&'static str>,
    /// Requests co-launched in this request's device wave, including
    /// itself: 1 for solo execution, 0 when no device ran.
    pub batch_size: usize,
}

impl RequestRecord {
    /// End-to-end latency on the serving timeline: queueing + the compile
    /// window (a real-clock measurement explicitly projected onto the
    /// virtual timeline, 1:1 — the worker really is occupied that long
    /// while virtual arrivals accumulate) + device, ns.
    pub fn timeline_total_ns(&self) -> f64 {
        self.queue_ns + self.compile.onto_virtual_timeline() + self.device_ns
    }

    /// Whether the request ran on a device (shed requests and
    /// compile-failed requests did not).
    pub fn executed(&self) -> bool {
        self.device != NO_SLOT
    }
}

/// The record for a request rejected by admission control: sentinel
/// worker/device slots, zero resource use, finish at arrival.
pub(crate) fn shed_record(request: &Request, reason: ShedReason) -> RequestRecord {
    RequestRecord {
        id: request.id,
        tenant: request.tenant,
        worker: NO_SLOT,
        device: NO_SLOT,
        queue_ns: 0.0,
        compile: ClockNs::real(0.0),
        search_ns: 0,
        cache_wait_ns: 0,
        device_ns: 0.0,
        finish_ns: request.arrival_ns,
        disposition: Disposition::Shed,
        shed_reason: Some(reason),
        retries: 0,
        deadline_ns: request.deadline_ns,
        breaker_event: None,
        batch_size: 0,
    }
}

/// The shape-bucket (and breaker) key for a request: a hash of its full
/// operator list, so a poisoned shape cannot trip healthy traffic's
/// breaker and only identically-shaped requests share a batch bucket.
pub fn request_shape_key(request: &Request) -> u64 {
    let mut hasher = DefaultHasher::new();
    for (op, count) in &request.ops {
        op.hash(&mut hasher);
        count.hash(&mut hasher);
    }
    hasher.finish()
}

/// The terminal error label a record's chain carries (`None` for served
/// requests). The chaos suite asserts every `Failed`/`Shed` record's
/// retained chain reproduces exactly this string.
pub fn record_error_label(record: &RequestRecord) -> Option<&'static str> {
    match record.disposition {
        Disposition::Shed => record.shed_reason.map(ShedReason::label),
        Disposition::Failed => Some(if record.executed() {
            "device-retries-exhausted"
        } else {
            "compile-failed"
        }),
        Disposition::Completed | Disposition::Degraded => None,
    }
}

/// Maps a serving disposition onto the telemetry crate's mirror enum.
pub(crate) fn chain_disposition(disposition: Disposition) -> ChainDisposition {
    match disposition {
        Disposition::Completed => ChainDisposition::Completed,
        Disposition::Degraded => ChainDisposition::Degraded,
        Disposition::Shed => ChainDisposition::Shed,
        Disposition::Failed => ChainDisposition::Failed,
    }
}

/// Virtual Poisson arrival times: `count` timestamps with exponential
/// inter-arrival gaps of mean `mean_gap_ns`, deterministic under `seed`.
pub fn poisson_arrivals(count: usize, mean_gap_ns: f64, seed: u64) -> Vec<f64> {
    assert!(mean_gap_ns > 0.0, "mean gap must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            // Inverse-CDF exponential; clamp away u == 1 to keep ln finite.
            t += -mean_gap_ns * (1.0 - u).max(1e-12).ln();
            t
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use tensor_ir::GemmShape;

    #[test]
    fn poisson_arrivals_are_deterministic_and_increasing() {
        let a = poisson_arrivals(100, 1000.0, 42);
        let b = poisson_arrivals(100, 1000.0, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let mean_gap = a.last().unwrap() / 100.0;
        assert!(mean_gap > 300.0 && mean_gap < 3000.0, "mean gap {mean_gap}");
    }

    #[test]
    fn shape_key_separates_shapes_and_ignores_identity() {
        let a = Request::single(0, 0.0, Operator::gemm(GemmShape::new(64, 64, 64)));
        let b = Request::single(9, 5.0, Operator::gemm(GemmShape::new(64, 64, 64))).with_tenant(3);
        let c = Request::single(1, 0.0, Operator::gemm(GemmShape::new(64, 64, 128)));
        assert_eq!(request_shape_key(&a), request_shape_key(&b));
        assert_ne!(request_shape_key(&a), request_shape_key(&c));
    }

    #[test]
    fn builders_set_tenant_and_deadline() {
        let r = Request::single(7, 1.0, Operator::gemm(GemmShape::new(8, 8, 8)))
            .with_tenant(2)
            .with_deadline(99.0);
        assert_eq!(r.tenant, 2);
        assert_eq!(r.deadline_ns, Some(99.0));
        let shed = shed_record(&r, ShedReason::TenantThrottled);
        assert_eq!(shed.tenant, 2);
        assert_eq!(shed.batch_size, 0);
        assert_eq!(record_error_label(&shed), Some("tenant-throttled"));
    }
}
