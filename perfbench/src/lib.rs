//! The MikPoly reproduction's benchmark: three seeded serving workloads
//! driven through the public `mikpoly` API.
//!
//! * [`run`] — the untraced mode: end-to-end metrics (`--trace 0`).
//! * [`trace`] — the traced mode: a single-thread replay that times the
//!   calls into each layer's public functions from this crate's own code
//!   and writes its spans (`--trace 1`).
//! * [`gate`] — the correctness gate both modes run.
//! * [`workload`] — the workloads' fixed constants and seeded streams.
//!
//! See `README.md` beside this crate for the metric and prediction tables.

pub mod gate;
pub mod meta;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one run reports.
pub struct Outcome {
    /// The run's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Requests attempted.
    pub attempted: usize,
    /// Of those, shed or failed.
    pub failed: usize,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values (which JSON cannot carry) are written as `null`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                meta::json_string(m.name),
                meta::json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
