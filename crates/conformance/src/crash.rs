//! Crash-injection harness for the durable warm-state format.
//!
//! The recovery contract (`mikpoly::persist` + `mikpoly::recovery`) makes
//! two promises about arbitrary on-disk damage:
//!
//! 1. **The loader never panics** — not on truncation, not on bit flips,
//!    not on attacker-shaped garbage. Damage is a value
//!    ([`mikpoly::SalvagedBundle`]), never a crash.
//! 2. **Salvage is exact** — truncating a bundle at *any* byte offset
//!    recovers precisely the records whose bytes (payload + CRC) lie
//!    entirely before the cut: the longest valid prefix, nothing more,
//!    nothing less.
//!
//! This module proves both by brute force: it encodes a real bundle from
//! freshly compiled programs, then truncates it at **every** byte offset,
//! flips seeded random bits, and feeds seeded arbitrary bytes through the
//! strict and salvage decoders under `catch_unwind`. The
//! [`record_end_offsets`] index is the oracle for promise 2. Blobs that
//! do not carry the current `MPAC` version-3 header — a version-2
//! header, a JSON-looking `[` or `{`, plain garbage — must be rejected by
//! the strict decoder and salvage to zero programs: version 3 is the
//! only format the loader reads.
//!
//! `scripts/ci.sh` runs this via `conformance crash --seed N`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mikpoly::{decode_bundle, encode_bundle, record_end_offsets, salvage_bundle, CompiledProgram};
use tensor_ir::{GemmShape, Operator};

use crate::rng::XorShift64;
use crate::{ConformanceEnv, MachineKind};

/// Tuning knobs of one crash-matrix run. Every stage is deterministic
/// under [`CrashConfig::seed`].
#[derive(Debug, Clone, Copy)]
pub struct CrashConfig {
    /// Seed for the bit-flip positions and the fuzz blobs.
    pub seed: u64,
    /// Distinct programs encoded into the probe bundle.
    pub programs: usize,
    /// Single-bit-flip trials against the v3 bundle.
    pub flips: usize,
    /// Arbitrary-bytes decoder trials.
    pub fuzz_blobs: usize,
}

impl Default for CrashConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            programs: 3,
            flips: 256,
            fuzz_blobs: 256,
        }
    }
}

/// What one crash-matrix run covered, and every contract violation it
/// found. An empty [`CrashReport::violations`] is the pass condition.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Truncation offsets swept.
    pub truncations: usize,
    /// Bit-flip trials run.
    pub flips: usize,
    /// Arbitrary-bytes trials run.
    pub fuzz_blobs: usize,
    /// Human-readable contract violations; empty means the durable
    /// format kept both promises.
    pub violations: Vec<String>,
}

impl CrashReport {
    /// Whether every trial upheld the recovery contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compiles `count` distinct small GEMMs on the shared environment —
/// real programs, so the probe bundle has realistic record sizes.
fn probe_programs(env: &ConformanceEnv, count: usize) -> Vec<CompiledProgram> {
    let compiler = env.engine(MachineKind::Gpu).gemm_compiler();
    (0..count)
        .map(|i| {
            let m = 32 + 32 * i;
            let op = Operator::gemm(GemmShape::new(m, 64, 64));
            compiler.compile(&op).as_ref().clone()
        })
        .collect()
}

/// Runs `f` under `catch_unwind`, mapping a panic to a violation string.
fn no_panic<T>(context: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| format!("{context}: PANICKED: {}", mikpoly::panic_reason(&*payload)))
}

/// Truncates `bytes` at every offset and checks the salvage contract:
/// the salvaged count must equal the exact valid prefix per the
/// record-end oracle `ends`.
fn truncation_sweep(bytes: &[u8], ends: &[usize], report: &mut CrashReport) {
    for cut in 0..=bytes.len() {
        report.truncations += 1;
        let salvage = match no_panic(&format!("bundle truncated at {cut}"), || {
            salvage_bundle(&bytes[..cut])
        }) {
            Ok(salvage) => salvage,
            Err(violation) => {
                report.violations.push(violation);
                continue;
            }
        };
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        if salvage.programs.len() != expected {
            report.violations.push(format!(
                "bundle truncated at {cut}: salvaged {} records, expected the exact \
                 valid prefix of {expected}",
                salvage.programs.len()
            ));
        }
        if cut == bytes.len() && !salvage.clean {
            report
                .violations
                .push("the undamaged bundle did not decode clean".to_string());
        }
    }
}

/// Flips one random bit per trial and checks that the strict decoder
/// rejects the damage (CRC32 detects every single-bit flip) while the
/// salvage path stays panic-free.
fn bit_flip_trials(bytes: &[u8], config: &CrashConfig, report: &mut CrashReport) {
    let mut rng = XorShift64::new(config.seed ^ 0xf11b);
    for trial in 0..config.flips {
        report.flips += 1;
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = (rng.next_u64() % 8) as u8;
        let mut damaged = bytes.to_vec();
        damaged[pos] ^= 1 << bit;
        let context = format!("bit flip #{trial} at byte {pos} bit {bit}");
        match no_panic(&context, || decode_bundle(&damaged)) {
            Ok(Ok(_)) => report.violations.push(format!(
                "{context}: strict decode ACCEPTED checksummed damage"
            )),
            Ok(Err(_)) => {}
            Err(violation) => report.violations.push(violation),
        }
        if let Err(violation) = no_panic(&context, || salvage_bundle(&damaged)) {
            report.violations.push(violation);
        }
    }
}

/// Feeds seeded arbitrary bytes to both decoders. A quarter of the blobs
/// carry a valid-looking version-3 header so the deeper decode paths get
/// exercised; a quarter carry a version-2 header and a quarter lead with
/// `[` or `{`. Every blob without the version-3 header must be rejected
/// by the strict decoder and salvage to zero programs.
fn fuzz_blob_trials(config: &CrashConfig, report: &mut CrashReport) {
    let mut rng = XorShift64::new(config.seed ^ 0xb10b);
    for trial in 0..config.fuzz_blobs {
        report.fuzz_blobs += 1;
        let len = (rng.next_u64() % 512) as usize;
        let mut blob: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        match trial % 4 {
            // Plausible v3/v2 header over garbage: magic + version.
            0 | 1 if blob.len() >= 8 => {
                blob[..4].copy_from_slice(b"MPAC");
                let version = if trial % 4 == 0 { 3u32 } else { 2u32 };
                blob[4..8].copy_from_slice(&version.to_le_bytes());
            }
            2 if !blob.is_empty() => blob[0] = if trial % 8 == 2 { b'[' } else { b'{' },
            _ => {}
        }
        let v3_header = blob.starts_with(b"MPAC\x03\0\0\0");
        let context = format!("fuzz blob #{trial} ({len} bytes)");
        match no_panic(&context, || {
            let _ = record_end_offsets(&blob);
            (
                decode_bundle(&blob).is_ok(),
                salvage_bundle(&blob).programs.len(),
            )
        }) {
            Ok((accepted, salvaged)) if !v3_header && (accepted || salvaged > 0) => {
                report.violations.push(format!(
                    "{context}: a blob without the version-3 header was accepted \
                     (strict ok: {accepted}, salvaged {salvaged} programs)"
                ));
            }
            Ok(_) => {}
            Err(violation) => report.violations.push(violation),
        }
    }
}

/// Runs the full crash matrix: the every-offset truncation sweep
/// (exact-prefix oracle), the single-bit flip trials, and the
/// arbitrary-bytes trials.
pub fn crash_run(env: &ConformanceEnv, config: &CrashConfig) -> CrashReport {
    let mut report = CrashReport::default();
    let programs = probe_programs(env, config.programs.max(1));
    let bundle = encode_bundle(programs.iter());
    match record_end_offsets(&bundle) {
        Ok(ends) => truncation_sweep(&bundle, &ends, &mut report),
        Err(e) => report
            .violations
            .push(format!("record_end_offsets rejected a fresh bundle: {e}")),
    }
    bit_flip_trials(&bundle, config, &mut report);
    fuzz_blob_trials(config, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_matrix_holds_on_a_fresh_bundle() {
        let env = ConformanceEnv::fast();
        let config = CrashConfig {
            flips: 64,
            fuzz_blobs: 64,
            ..CrashConfig::default()
        };
        let report = crash_run(&env, &config);
        assert!(
            report.passed(),
            "crash-matrix violations:\n{}",
            report.violations.join("\n")
        );
        assert!(report.truncations > 0);
        assert_eq!(report.flips, 64);
        assert_eq!(report.fuzz_blobs, 64);
    }
}
