//! Facts about the machine and build that every output carries.

use std::path::Path;
use std::process::Command;

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn kernel_version() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned())
}

fn toolchain() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Commit of the repo this benchmark was built in; `unknown` in a
/// checkout that is not a git repository.
fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_owned(),
    };
    match sha.trim() {
        "" => "unknown".into(),
        sha => sha.to_owned(),
    }
}

/// `key=value` provenance pairs for headers and trace files.
pub fn provenance(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("seed", seed.to_string()),
        ("nproc", nproc().to_string()),
        ("git", git_sha()),
        ("toolchain", toolchain()),
        ("kernel", kernel_version()),
    ]
}
