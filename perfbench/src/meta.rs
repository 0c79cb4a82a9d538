//! Run metadata recorded beside every result.

use std::path::Path;
use std::process::Command;

/// Peak resident set (VmHWM) of this process, MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Lines of Rust under the repository's `crates/`, `src/` and `tests/`,
/// counted from `root`.
pub fn rust_lines(root: &Path) -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    *total += text.lines().count();
                }
            }
        }
    }
    let mut total = 0;
    for dir in ["crates", "src", "tests"] {
        walk(&root.join(dir), &mut total);
    }
    total
}

/// The first line a command prints, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's metadata as one JSON object. The git commit is read only
/// when `root` is itself a git checkout.
pub fn metadata_json(root: &Path, workload: &str, seed: u64, trace: bool) -> String {
    let commit = if root.join(".git").exists() {
        command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"host_cpus\": {host_cpus}, \
         \"profile\": {}, \"git_commit\": {}, \"rustc\": {}, \"rust_lines\": {}}}",
        json_string(workload),
        json_string(profile),
        json_string(&commit),
        json_string(&command_line("rustc", &["--version"])),
        rust_lines(root),
    )
}
