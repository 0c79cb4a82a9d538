//! `mikpoly-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the run's metadata. Exits 1 when
//! the correctness gate fails and 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mikpoly_perfbench::gate::Gate;
use mikpoly_perfbench::workload::Workload;
use mikpoly_perfbench::{meta, result_json, run, trace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: mikpoly-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    // Any integer seeds the streams; a negative one keeps its bits.
    let seed = value("--seed")?;
    let seed = seed
        .parse::<u64>()
        .or_else(|_| seed.parse::<i64>().map(|s| s as u64))
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    // The benchmark package lives one level below the repository root;
    // its outputs go under its own ignored `out/` directory.
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package.parent().unwrap_or(package);
    let out_dir: PathBuf = package.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: creating {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed {} for {} s ({})",
        w.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut gate = Gate::default();
    let outcome = if args.trace {
        trace::run(w, args.seed, args.seconds, &out_dir, &mut gate)
    } else {
        run::run(w, args.seed, args.seconds, &out_dir, &mut gate)
    };
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in gate.failures() {
        eprintln!("gate: FAIL {failure}");
    }
    let finite = result.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("gate: FAIL a metric is not a finite number");
    }
    let correct = gate.passed() && finite;
    println!(
        "{{\"meta\": {}}}",
        meta::metadata_json(root, w.name(), args.seed, args.trace)
    );
    println!(
        "{}",
        result_json(correct, result.attempted, result.failed, &result.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
