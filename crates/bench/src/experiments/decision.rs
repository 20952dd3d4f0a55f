//! Offloading-decision study — the client half the paper delegates to
//! MAUI-class frameworks, evaluated against our platform model: for
//! each workload × network scenario, what fraction of sampled tasks
//! should offload, and what response time does the adaptive policy
//! achieve vs. always-offloading and always-local?

use super::ExperimentOutput;
use analysis::{fnum, fpct, Scorecard, Table};
use netsim::NetworkScenario;
use rattrap::{DeviceSpec, Objective, OffloadDecider};
use simkit::{SimDuration, SimRng};
use workloads::WorkloadKind;

/// Run the decision study with 200 sampled tasks per cell.
pub fn run(seed: u64) -> ExperimentOutput {
    let decider = OffloadDecider::new(DeviceSpec::default_handset(), Objective::Latency);
    let mut sc = Scorecard::new();
    let mut body = String::new();

    for kind in WorkloadKind::ALL {
        let profile = kind.profile();
        let mut table = Table::new(
            &format!("offloading decisions ({})", kind.label()),
            &[
                "Scenario",
                "Offloaded",
                "Adaptive(s)",
                "AlwaysOffload(s)",
                "AlwaysLocal(s)",
            ],
        );
        let mut offload_fracs = Vec::new();
        for scenario in NetworkScenario::ALL {
            let mut rng = SimRng::new(simkit::derive_seed(
                seed,
                kind as u64 * 16 + scenario as u64,
            ));
            let (mut n_off, mut t_adaptive, mut t_offload, mut t_local) = (0usize, 0.0, 0.0, 0.0);
            let n = 200;
            for _ in 0..n {
                let task = profile.sample(&mut rng);
                let r = decider.decide(scenario, &task, 0, SimDuration::ZERO);
                let remote = r.predicted_remote.as_secs_f64();
                let local = r.predicted_local.as_secs_f64();
                t_offload += remote;
                t_local += local;
                if r.offload {
                    n_off += 1;
                    t_adaptive += remote;
                } else {
                    t_adaptive += local;
                }
            }
            let frac = n_off as f64 / n as f64;
            offload_fracs.push((scenario, frac));
            table.row(&[
                scenario.label().to_string(),
                fpct(frac),
                fnum(t_adaptive / n as f64, 2),
                fnum(t_offload / n as f64, 2),
                fnum(t_local / n as f64, 2),
            ]);
            // Not guaranteed: the decider offloads only when remote <
            // MARGIN (0.9) × local, so per task adaptive ≤ min(remote,
            // local) / 0.9, and this row misses at some seeds.
            sc.expect(
                &format!(
                    "{} {}: adaptive ≤ min(static)",
                    kind.label(),
                    scenario.label()
                ),
                "adaptive ≤ min(always-offload, always-local)",
                &format!(
                    "{:.2} vs min({:.2},{:.2})",
                    t_adaptive / n as f64,
                    t_offload / n as f64,
                    t_local / n as f64
                ),
                t_adaptive <= t_offload.min(t_local) + 1e-9,
            );
        }
        body.push_str(&table.render());
        body.push('\n');

        // Good networks offload everything.
        let lan = offload_fracs[0].1;
        sc.expect(
            &format!("{}: LAN offloads all tasks", kind.label()),
            "100%",
            &fpct(lan),
            lan > 0.99,
        );
    }

    // VirusScan specifically goes local on 3G (transfer-bound).
    let scan = decider.decide_mean(
        NetworkScenario::ThreeG,
        &WorkloadKind::VirusScan.profile(),
        true,
        SimDuration::ZERO,
    );
    sc.expect(
        "VirusScan stays local on 3G",
        "no offload",
        &format!(
            "remote {:.1}s vs local {:.1}s",
            scan.predicted_remote.as_secs_f64(),
            scan.predicted_local.as_secs_f64()
        ),
        !scan.offload,
    );

    ExperimentOutput {
        id: "Decision study",
        body,
        scorecard: sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_study_shape_holds() {
        let out = run(super::super::DEFAULT_SEED);
        assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
    }
}
