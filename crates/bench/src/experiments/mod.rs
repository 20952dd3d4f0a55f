//! One module per table/figure of the paper's evaluation. Each exposes
//! a `run(seed) -> ExperimentOutput` so the `exp_*` binaries stay thin
//! and integration tests can exercise the full harness.

pub mod ablations;
pub mod cluster;
pub mod decision;
pub mod docker;
pub mod drift;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig9;
pub mod geo;
pub mod mixed;
pub mod osprofile;
pub mod robustness;
pub mod scheduler;
pub mod storm;
pub mod table1;
pub mod table2;

use analysis::Scorecard;
use std::process::ExitCode;

/// What every experiment produces: human-readable output plus the
/// paper-vs-measured scorecard.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Experiment id, e.g. `"Table I"`.
    pub id: &'static str,
    /// Rendered tables/figures.
    pub body: String,
    /// Shape checks against the published numbers.
    pub scorecard: Scorecard,
}

impl ExperimentOutput {
    /// Render body + scorecard.
    pub fn render(&self) -> String {
        format!("{}\n{}\n", self.body, self.scorecard.render())
    }
}

/// The default seed the binaries use (override with the first CLI arg).
pub const DEFAULT_SEED: u64 = 20170529; // IPDPS'17 started May 29, 2017

/// Number of independent replications the averaging experiments run.
pub const REPLICATIONS: u64 = 3;

/// `true` when `RATTRAP_BENCH_SMOKE` is set (to anything but `0`): CI
/// smoke mode. Experiments shrink to one replication and reduced
/// request counts so the whole suite finishes in seconds. Smoke runs
/// still gate: every scorecard must pass at smoke scale too, and a
/// miss fails the binary through [`exit_code`].
pub fn smoke() -> bool {
    std::env::var("RATTRAP_BENCH_SMOKE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Replications to run: [`REPLICATIONS`] normally, 1 in smoke mode.
pub fn replications() -> u64 {
    if smoke() {
        1
    } else {
        REPLICATIONS
    }
}

/// Per-device request count for sweep experiments: `full` normally, a
/// quarter (at least 2) in smoke mode.
pub fn smoke_requests(full: u32) -> u32 {
    if smoke() {
        (full / 4).max(2)
    } else {
        full
    }
}

/// Run `n` independent replications of `f` in parallel, one derived
/// seed each, returning results in replication order.
///
/// Replication `i` always receives `derive_seed(seed, i)`, and the
/// vendored `rayon` collects in input order, so the output is
/// bit-identical to the serial loop `(0..n).map(..)` — parallelism is
/// pure wall-clock speedup, never a source of nondeterminism.
pub fn replicate<R: Send>(seed: u64, n: u64, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
    use rayon::prelude::*;
    let seeds: Vec<u64> = (0..n).map(|i| simkit::derive_seed(seed, i)).collect();
    seeds.par_iter().map(|&s| f(s)).collect()
}

/// The exit status of an `exp_*` binary: failure when any of the
/// `total` scorecard rows missed. The scorecards are the repo's
/// measurement gate, so a miss must fail whatever ran the binary, not
/// only print `[MISS]`.
pub fn exit_code(passed: usize, total: usize) -> ExitCode {
    if passed == total {
        ExitCode::SUCCESS
    } else {
        eprintln!("scorecard: {} of {total} checks missed", total - passed);
        ExitCode::FAILURE
    }
}

/// `a / b / c` at two decimals: one scorecard cell for a sweep.
pub(crate) fn slashed(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.2}"))
        .collect::<Vec<_>>()
        .join(" / ")
}

/// Parse the seed from CLI args.
pub fn seed_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}
