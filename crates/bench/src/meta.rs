//! Run metadata — seed, toolchain pin, git SHA, smoke flag, core count
//! — stamped into every bench report header and every exported trace
//! so CI artifacts are self-describing.

use obsv::Recorder;

/// The `channel` line of the committed toolchain pin, resolved at
/// compile time so the binary reports the pin it was built under.
const TOOLCHAIN_TOML: &str = include_str!("../../../rust-toolchain.toml");

/// Metadata describing one bench/experiment invocation.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Root seed the run derives every replication seed from.
    pub seed: u64,
    /// Toolchain channel pinned in `rust-toolchain.toml`.
    pub toolchain: String,
    /// Git commit SHA (from `GITHUB_SHA` in CI, else `.git/HEAD`).
    pub git_sha: String,
    /// Whether `RATTRAP_BENCH_SMOKE` shrank the run.
    pub smoke: bool,
    /// Cores the machine offers (`available_parallelism`): the
    /// denominator of every wall-clock number the run prints.
    pub cores: usize,
}

/// Parse the pinned channel out of the committed toolchain file.
fn pinned_channel() -> String {
    TOOLCHAIN_TOML
        .lines()
        .find_map(|l| l.strip_prefix("channel = \""))
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or("unknown")
        .to_owned()
}

/// Resolve the current commit: `GITHUB_SHA` when CI provides it, else
/// follow `.git/HEAD` (walking up from the working directory — bench
/// binaries run from the repo root or a crate dir). `"unknown"` when
/// neither source exists (e.g. an unpacked source tarball).
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_default();
    for _ in 0..6 {
        let head = dir.join(".git/HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            if let Some(reference) = contents.strip_prefix("ref: ") {
                if let Ok(sha) = std::fs::read_to_string(dir.join(".git").join(reference)) {
                    return sha.trim().to_owned();
                }
            } else if !contents.is_empty() {
                return contents.to_owned(); // detached HEAD
            }
        }
        if !dir.pop() {
            break;
        }
    }
    "unknown".to_owned()
}

impl RunMeta {
    /// Capture the metadata of the current invocation.
    pub fn capture(seed: u64) -> Self {
        RunMeta {
            seed,
            toolchain: pinned_channel(),
            git_sha: git_sha(),
            smoke: crate::experiments::smoke(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// One-line report header, printed before every experiment body.
    pub fn header(&self) -> String {
        format!(
            "# run-meta: seed={} toolchain={} git={} smoke={} cores={}",
            self.seed, self.toolchain, self.git_sha, self.smoke, self.cores
        )
    }

    /// Stamp the metadata into a recorder so exported traces carry it
    /// in their `metadata` object.
    pub fn apply(&self, rec: &Recorder) {
        rec.set_meta("seed", self.seed.to_string());
        rec.set_meta("toolchain", self.toolchain.clone());
        rec.set_meta("git_sha", self.git_sha.clone());
        rec.set_meta("smoke", self.smoke.to_string());
        rec.set_meta("cores", self.cores.to_string());
    }
}

/// Print the run-meta header for an experiment binary.
pub fn print_header(seed: u64) {
    println!("{}", RunMeta::capture(seed).header());
}

/// Resolve the path `exp_drift --write-calibration` writes the
/// calibration map to: the `env_var` override when set, else
/// `default`. Relative paths are anchored at the *workspace root*,
/// not the process working directory, so the committed map
/// (`crates/exec/data/calibration.json`) is rewritten in place whether
/// the binary runs from the repo root, a crate dir or `target/`.
pub fn baseline_out(env_var: &str, default: &str) -> std::path::PathBuf {
    let raw = std::env::var(env_var).unwrap_or_else(|_| default.to_owned());
    let path = std::path::PathBuf::from(&raw);
    if path.is_absolute() {
        path
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toolchain_pin_is_parsed_from_the_committed_file() {
        let meta = RunMeta::capture(7);
        assert_eq!(meta.toolchain, "stable");
        assert!(meta.header().contains("seed=7"));
        assert!(meta.header().contains("toolchain=stable"));
        assert!(meta.cores >= 1);
        assert!(meta.header().ends_with(&format!("cores={}", meta.cores)));
    }

    #[test]
    fn metadata_lands_in_exported_traces() {
        let rec = obsv::Recorder::enabled(obsv::RecorderConfig::default());
        RunMeta::capture(42).apply(&rec);
        let snap = rec.snapshot();
        assert_eq!(snap.meta.get("seed").map(String::as_str), Some("42"));
        assert!(snap.meta.contains_key("git_sha"));
        assert!(snap.meta.contains_key("cores"));
        let trace = snap.chrome_trace();
        assert!(trace.contains("\"toolchain\""));
        obsv::json::parse(&trace).expect("trace with metadata parses");
    }
}
