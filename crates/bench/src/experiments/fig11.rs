//! Fig. 11 — CDF of offloading speedups under LiveLab-style trace
//! replay (ChessGame), plus the §VI-E failure statistics.

use super::ExperimentOutput;
use analysis::{cdf_table, fpct, Scorecard};
use rattrap::config::paper;
use rattrap::PlatformKind;
use simkit::SimDuration;
use traces::{run_trace_experiment, TraceConfig};
use workloads::WorkloadKind;

/// Run Fig. 11: a 6-hour synthetic LiveLab trace replayed against all
/// three platforms.
pub fn run(seed: u64) -> ExperimentOutput {
    let trace_cfg = TraceConfig::fig11(5, SimDuration::from_secs(6 * 3600), seed);
    let results = run_trace_experiment(WorkloadKind::ChessGame, &trace_cfg, &PlatformKind::ALL);

    let labels: Vec<&str> = results.iter().map(|r| r.platform.label()).collect();
    let curves: Vec<Vec<(f64, f64)>> = results.iter().map(|r| r.speedup_cdf.curve(24)).collect();
    let mut body = cdf_table(
        "Fig. 11 — speedup CDF (ChessGame, trace replay)",
        &labels,
        &curves,
    );
    body.push('\n');
    for r in &results {
        body.push_str(&format!(
            "{:<13} requests: {:>5}  failures: {:>6}  speedup>3.0: {:>6}  median: {:.2}\n",
            r.platform.label(),
            r.requests,
            fpct(r.failure_rate),
            fpct(r.speedup3_fraction),
            r.speedup_cdf.median().unwrap_or(0.0),
        ));
    }

    let by = |k: PlatformKind| results.iter().find(|r| r.platform == k).expect("ran");
    let rt = by(PlatformKind::Rattrap);
    let wo = by(PlatformKind::RattrapWithout);
    let vm = by(PlatformKind::VmBaseline);

    let mut sc = Scorecard::new();
    // Failure ordering and magnitudes (paper: 1.3% / 7.7% / 9.7%).
    sc.less(
        "failures: Rattrap < W/O",
        "Rattrap",
        rt.failure_rate,
        "W/O",
        wo.failure_rate,
    );
    sc.less(
        "failures: Rattrap < VM",
        "Rattrap",
        rt.failure_rate,
        "VM",
        vm.failure_rate,
    );
    sc.within(
        "Rattrap failure rate",
        paper::TRACE_FAILURE_RATES[0],
        rt.failure_rate,
        2.0,
    );
    sc.expect(
        "VM failure rate near paper's 9.7%",
        "4%–20%",
        &fpct(vm.failure_rate),
        vm.failure_rate > 0.04 && vm.failure_rate < 0.20,
    );
    // Speedup-CDF dominance (paper: 54.0% / 50.8% / 11.5% above 3×).
    sc.less(
        "speedup>3 mass: VM < Rattrap",
        "VM",
        vm.speedup3_fraction,
        "Rattrap",
        rt.speedup3_fraction,
    );
    sc.expect(
        "Rattrap ≈ W/O above 3x, Rattrap slightly ahead",
        "Rattrap ≥ W/O − 5pp",
        &format!(
            "{} vs {}",
            fpct(rt.speedup3_fraction),
            fpct(wo.speedup3_fraction)
        ),
        rt.speedup3_fraction >= wo.speedup3_fraction - 0.05,
    );
    sc.expect(
        "all platforms served the identical trace",
        "equal request counts",
        &format!("{} / {} / {}", rt.requests, wo.requests, vm.requests),
        rt.requests == wo.requests && wo.requests == vm.requests,
    );

    ExperimentOutput {
        id: "Fig. 11",
        body,
        scorecard: sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_reproduces_section_vi_e() {
        let out = run(super::super::DEFAULT_SEED);
        assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
    }
}
