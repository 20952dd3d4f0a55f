//! Golden fold of the offload decider's outputs.
//!
//! Every network scenario × workload × objective × code cached or not ×
//! expected preparation {0, 1.75 s, 28.72 s}, with 50 sampled tasks per
//! cell through `decide` and the workload's mean task through
//! `decide_mean`. Each verdict folds its offload bit, both predicted
//! times in µs and both energies' `f64` bits, so a change to how the
//! decider prices a link, a transfer or a run moves the digest.
//!
//! If a change is *meant* to alter decisions, the failing test prints
//! the new digest; treat that as an interface change.

use netsim::NetworkScenario;
use rattrap::{DecisionReport, DeviceSpec, Objective, OffloadDecider, ReportHasher};
use simkit::{SimDuration, SimRng};
use workloads::{TaskRequest, WorkloadKind, WorkloadProfile};

const SEED: u64 = 0xdec1_5105;
const TASKS_PER_CELL: usize = 50;
const GOLDEN: u64 = 0x5b6e_0f60_6932_9f3d;

fn decide(
    d: &OffloadDecider,
    scenario: NetworkScenario,
    task: &TaskRequest,
    code_bytes: u64,
    prep: SimDuration,
) -> DecisionReport {
    d.decide(scenario, task, code_bytes, prep)
}

fn decide_mean(
    d: &OffloadDecider,
    scenario: NetworkScenario,
    profile: &WorkloadProfile,
    cached: bool,
    prep: SimDuration,
) -> DecisionReport {
    d.decide_mean(scenario, profile, cached, prep)
}

fn fold(h: &mut ReportHasher, r: &DecisionReport) {
    h.write(&[r.offload as u8]);
    h.write_u64(r.predicted_remote.as_micros());
    h.write_u64(r.predicted_local.as_micros());
    h.write_f64(r.remote_energy_mj);
    h.write_f64(r.local_energy_mj);
}

#[test]
fn decider_outputs_are_pinned() {
    let preps = [
        SimDuration::ZERO,
        SimDuration::from_millis(1_750),
        SimDuration::from_millis(28_720),
    ];
    let mut h = ReportHasher::new();
    let (mut verdicts, mut offloads) = (0u64, 0u64);
    let mut cell = 0u64;
    for scenario in NetworkScenario::ALL {
        for kind in WorkloadKind::ALL {
            let profile = kind.profile();
            for objective in [Objective::Latency, Objective::Energy] {
                let d = OffloadDecider::new(DeviceSpec::default_handset(), objective);
                for cached in [true, false] {
                    let code_bytes = if cached { 0 } else { profile.app_code_bytes };
                    for prep in preps {
                        let mut rng = SimRng::new(simkit::derive_seed(SEED, cell));
                        cell += 1;
                        for _ in 0..TASKS_PER_CELL {
                            let task = profile.sample(&mut rng);
                            let r = decide(&d, scenario, &task, code_bytes, prep);
                            fold(&mut h, &r);
                            verdicts += 1;
                            offloads += r.offload as u64;
                        }
                        let r = decide_mean(&d, scenario, &profile, cached, prep);
                        fold(&mut h, &r);
                        verdicts += 1;
                        offloads += r.offload as u64;
                    }
                }
            }
        }
    }
    assert_eq!(verdicts, 5 * 4 * 2 * 2 * 3 * (TASKS_PER_CELL as u64 + 1));
    // Neither arm may be empty, or the fold pins only one branch.
    assert!(
        0 < offloads && offloads < verdicts,
        "{offloads} of {verdicts}"
    );
    assert_eq!(
        h.finish(),
        GOLDEN,
        "decision digest {:#018x} ({offloads} of {verdicts} offloaded)",
        h.finish()
    );
}
