//! Trace-driven replay against the three platforms (Fig. 11).

use crate::livelab::{generate, TraceConfig};
use rattrap::{ArrivalModel, PlatformKind, ScenarioConfig, SimulationReport};
use simkit::{Cdf, SimDuration, SimTime};
use workloads::WorkloadKind;

/// Results for one platform under the trace.
#[derive(Debug)]
pub struct PlatformTraceResult {
    /// Which platform.
    pub platform: PlatformKind,
    /// Speedup distribution over all requests.
    pub speedup_cdf: Cdf,
    /// Fraction of offloading failures (speedup ≤ 1).
    pub failure_rate: f64,
    /// Fraction of requests with speedup > 3.0 (the §VI-E statistic).
    pub speedup3_fraction: f64,
    /// Number of requests served.
    pub requests: usize,
    /// The raw simulation report.
    pub report: SimulationReport,
}

/// One cell of a replay: `trace` (generated from `trace_cfg`, whose
/// seed also keys the per-request randomness) arriving at `platform`
/// as `workload` requests.
pub fn replay_scenario(
    trace_cfg: &TraceConfig,
    trace: &[Vec<SimTime>],
    platform: PlatformKind,
    workload: WorkloadKind,
) -> ScenarioConfig {
    ScenarioConfig {
        arrivals: ArrivalModel::Trace(trace.to_vec()),
        devices: trace_cfg.users,
        requests_per_device: 0,                     // ignored in trace mode
        sample_horizon: SimDuration::from_secs(60), // timelines unused here
        ..ScenarioConfig::paper_default(platform.config(), workload, trace_cfg.seed)
    }
}

/// Run the Fig. 11 experiment: replay one synthetic LiveLab trace of
/// `workload` requests against every platform. "For fair comparison"
/// the identical trace (and identical per-request randomness, keyed by
/// seed) hits all three systems.
pub fn run_trace_experiment(
    workload: WorkloadKind,
    trace_cfg: &TraceConfig,
    platforms: &[PlatformKind],
) -> Vec<PlatformTraceResult> {
    let trace = generate(trace_cfg);
    platforms
        .iter()
        .map(|&platform| {
            let scenario = replay_scenario(trace_cfg, &trace, platform, workload);
            let report = rattrap::run_scenario(scenario);
            let speedups: Vec<f64> = report.requests.iter().map(|r| r.speedup()).collect();
            let n = speedups.len();
            let failure_rate = report.failure_rate();
            let cdf = Cdf::from_samples(speedups);
            let speedup3_fraction = cdf.fraction_ge(3.0);
            PlatformTraceResult {
                platform,
                speedup_cdf: cdf,
                failure_rate,
                speedup3_fraction,
                requests: n,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> TraceConfig {
        TraceConfig {
            users: 5,
            duration: SimDuration::from_secs(2 * 3600),
            sessions_per_hour: 3.0,
            ..Default::default()
        }
    }

    #[test]
    fn hundred_thousand_request_replay_completes() {
        // Far beyond Fig. 11's scale.
        let cfg = TraceConfig {
            users: 70,
            duration: SimDuration::from_secs(24 * 3600),
            sessions_per_hour: 9.0,
            mean_session_len: 20.0,
            intra_gap_s: 10.0,
            seed: 0xB16,
        };
        let trace = crate::livelab::generate(&cfg);
        let n: usize = trace.iter().map(|v| v.len()).sum();
        assert!(n >= 100_000, "trace holds {n} requests");
        let results = run_trace_experiment(WorkloadKind::ChessGame, &cfg, &[PlatformKind::Rattrap]);
        let r = &results[0];
        assert_eq!(r.requests, n, "every request completed");
        let mean = r.report.mean_of(|x| x.speedup());
        assert!(mean > 1.0, "offloading pays off on LAN");
        assert!(r.failure_rate < 0.2, "failure rate {}", r.failure_rate);
    }

    #[test]
    fn all_platforms_serve_the_same_trace() {
        let results =
            run_trace_experiment(WorkloadKind::ChessGame, &small_trace(), &PlatformKind::ALL);
        assert_eq!(results.len(), 3);
        let n = results[0].requests;
        assert!(n > 50, "trace produced {n} requests");
        assert!(
            results.iter().all(|r| r.requests == n),
            "same inflow everywhere"
        );
    }

    #[test]
    fn failure_ordering_matches_fig11() {
        let results =
            run_trace_experiment(WorkloadKind::ChessGame, &small_trace(), &PlatformKind::ALL);
        let by = |k: PlatformKind| results.iter().find(|r| r.platform == k).expect("present");
        let rattrap = by(PlatformKind::Rattrap);
        let wo = by(PlatformKind::RattrapWithout);
        let vm = by(PlatformKind::VmBaseline);
        // §VI-E: 1.3 % vs 7.7 % vs 9.7 %.
        assert!(
            rattrap.failure_rate < wo.failure_rate,
            "rattrap {} !< w/o {}",
            rattrap.failure_rate,
            wo.failure_rate
        );
        assert!(
            wo.failure_rate <= vm.failure_rate + 0.02,
            "w/o {} vm {}",
            wo.failure_rate,
            vm.failure_rate
        );
        assert!(
            rattrap.failure_rate < 0.06,
            "rattrap failures {}",
            rattrap.failure_rate
        );
        assert!(vm.failure_rate > 0.04, "vm failures {}", vm.failure_rate);
    }

    #[test]
    fn speedup_cdf_ordering_matches_fig11() {
        let results =
            run_trace_experiment(WorkloadKind::ChessGame, &small_trace(), &PlatformKind::ALL);
        let by = |k: PlatformKind| results.iter().find(|r| r.platform == k).unwrap();
        let rattrap = by(PlatformKind::Rattrap);
        let vm = by(PlatformKind::VmBaseline);
        // Rattrap's CDF dominates the VM's: more mass at high speedups.
        assert!(
            rattrap.speedup3_fraction > vm.speedup3_fraction,
            "≥3x: rattrap {} vm {}",
            rattrap.speedup3_fraction,
            vm.speedup3_fraction
        );
        assert!(
            rattrap.speedup_cdf.median().unwrap() > vm.speedup_cdf.median().unwrap(),
            "median speedup ordering"
        );
    }
}
