//! Client-side offloading decision engine.
//!
//! The paper "leaves the offloading details in clients to existing
//! offloading frameworks" (§V) — MAUI-style systems decide *whether* to
//! offload from predicted remote latency/energy vs. local execution.
//! This module supplies that missing client half so the repository is a
//! complete offloading system: a latency/energy predictor that prices
//! the link from the scenario's nominal RTT and bandwidths (what a
//! client knows from the OS network type before any transfer), and a
//! decision policy. The engine is what turns the 3G results of Fig. 10
//! (where offloading *wastes* energy for payload-heavy workloads) into
//! correct stay-local decisions.

use crate::config::DeviceSpec;
use netsim::NetworkScenario;
use powersim::{DevicePowerModel, EnergyEstimator, OffloadPhases};
use simkit::SimDuration;
use workloads::{TaskRequest, WorkloadProfile};

/// Predicted connect + transfer phases for a task over `scenario`'s
/// nominal link: connect is 1.5 RTT, each transfer its bytes over the
/// direction's bandwidth plus half an RTT.
fn predict_phases(
    scenario: NetworkScenario,
    task: &TaskRequest,
    code_bytes: u64,
    cloud_wait: SimDuration,
) -> OffloadPhases {
    let p = scenario.params();
    let rtt = p.rtt.as_secs_f64();
    let upload_bytes = task.payload_bytes + task.control_bytes + code_bytes;
    OffloadPhases {
        connect: SimDuration::from_secs_f64(1.5 * rtt),
        upload: SimDuration::from_secs_f64(upload_bytes as f64 / p.upstream_bps + rtt / 2.0),
        cloud_wait,
        download: SimDuration::from_secs_f64(
            task.result_bytes as f64 / p.downstream_bps + rtt / 2.0,
        ),
    }
}

/// What the decider optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize response time (the MAUI latency mode).
    Latency,
    /// Minimize device energy (the battery-saver mode of Fig. 10).
    Energy,
}

/// The verdict with its predicted quantities, for introspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionReport {
    /// Offload or stay local.
    pub offload: bool,
    /// Predicted remote response time.
    pub predicted_remote: SimDuration,
    /// Predicted local execution time.
    pub predicted_local: SimDuration,
    /// Predicted remote energy, mJ.
    pub remote_energy_mj: f64,
    /// Predicted local energy, mJ.
    pub local_energy_mj: f64,
}

/// Safety margin: offload only when the remote prediction beats local
/// by this factor (hedges prediction error).
const MARGIN: f64 = 0.9;

/// The offloading decision engine.
#[derive(Debug, Clone)]
pub struct OffloadDecider {
    device: DeviceSpec,
    energy: EnergyEstimator,
    objective: Objective,
    /// Assumed server effective clock (GHz × efficiency).
    server_eff_ghz: f64,
}

impl OffloadDecider {
    /// A decider for `device` optimizing `objective` with a 10 % margin.
    pub fn new(device: DeviceSpec, objective: Objective) -> Self {
        OffloadDecider {
            device,
            energy: EnergyEstimator::new(DevicePowerModel::power_tutor_default()),
            objective,
            server_eff_ghz: 2.66 * 0.95,
        }
    }

    /// Decide for one task. `code_bytes` is the code that would ride
    /// along (0 on a warehouse hit), `expected_prep` the anticipated
    /// runtime preparation (near zero on a warm Rattrap pool).
    pub fn decide(
        &self,
        scenario: NetworkScenario,
        task: &TaskRequest,
        code_bytes: u64,
        expected_prep: SimDuration,
    ) -> DecisionReport {
        let server_exec =
            SimDuration::from_secs_f64(task.compute.0 / (self.server_eff_ghz * 1000.0));
        let phases = predict_phases(scenario, task, code_bytes, expected_prep + server_exec);
        let predicted_remote = phases.total();
        let predicted_local = self.device.local_execution_time(task.compute);
        let remote_energy_mj = self.energy.offloaded_request(scenario, phases);
        let local_energy_mj = self.energy.local_execution(predicted_local);
        let offload = match self.objective {
            Objective::Latency => {
                predicted_remote.as_secs_f64() < MARGIN * predicted_local.as_secs_f64()
            }
            Objective::Energy => remote_energy_mj < MARGIN * local_energy_mj,
        };
        DecisionReport {
            offload,
            predicted_remote,
            predicted_local,
            remote_energy_mj,
            local_energy_mj,
        }
    }

    /// Convenience: decide for a workload's *mean* task.
    pub fn decide_mean(
        &self,
        scenario: NetworkScenario,
        profile: &WorkloadProfile,
        code_cached: bool,
        expected_prep: SimDuration,
    ) -> DecisionReport {
        let task = TaskRequest {
            kind: profile.kind,
            payload_bytes: profile.payload_bytes_mean,
            control_bytes: profile.control_bytes,
            result_bytes: profile.result_bytes_mean,
            compute: simkit::units::Megacycles(profile.compute_megacycles_mean),
            io_bytes: 0,
        };
        let code = if code_cached {
            0
        } else {
            profile.app_code_bytes
        };
        self.decide(scenario, &task, code, expected_prep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    fn decider(obj: Objective) -> OffloadDecider {
        OffloadDecider::new(DeviceSpec::default_handset(), obj)
    }

    #[test]
    fn phases_price_connect_and_transfers_from_nominal_params() {
        // WAN WiFi: 60 ms RTT, 20 Mbps each way.
        let p = NetworkScenario::WanWifi.params();
        let rtt = p.rtt.as_secs_f64();
        let task = TaskRequest {
            kind: WorkloadKind::Ocr,
            payload_bytes: 1_000_000,
            control_bytes: 0,
            result_bytes: 500_000,
            compute: simkit::units::Megacycles(0.0),
            io_bytes: 0,
        };
        let ph = predict_phases(NetworkScenario::WanWifi, &task, 0, SimDuration::ZERO);
        assert!((ph.connect.as_secs_f64() - 0.09).abs() < 1e-6, "1.5 RTT");
        let up = 1_000_000.0 / p.upstream_bps + rtt / 2.0;
        let down = 500_000.0 / p.downstream_bps + rtt / 2.0;
        assert!((ph.upload.as_secs_f64() - up).abs() < 1e-6);
        assert!((ph.download.as_secs_f64() - down).abs() < 1e-6);
        assert!((ph.upload.as_secs_f64() - 0.43).abs() < 0.01);
    }

    #[test]
    fn lan_offloads_all_workloads() {
        let d = decider(Objective::Latency);
        for kind in WorkloadKind::ALL {
            let r = d.decide_mean(
                NetworkScenario::LanWifi,
                &kind.profile(),
                true,
                SimDuration::ZERO,
            );
            assert!(
                r.offload,
                "{}: remote {} local {}",
                kind.label(),
                r.predicted_remote,
                r.predicted_local
            );
        }
    }

    #[test]
    fn three_g_keeps_payload_heavy_work_local() {
        // On the paper's 3G (0.38 Mbps up), VirusScan's ~900 KB upload
        // takes ~19 s — twice its local execution. The decider says no.
        let d = decider(Objective::Latency);
        let scan = d.decide_mean(
            NetworkScenario::ThreeG,
            &WorkloadKind::VirusScan.profile(),
            true,
            SimDuration::ZERO,
        );
        assert!(
            !scan.offload,
            "VirusScan on 3G: remote {}",
            scan.predicted_remote
        );
        // OCR's local run is so slow (≈14 s) that even a ~6 s 3G upload
        // still wins on latency — matching Fig. 10, where 3G OCR loses
        // on *energy* but the paper still offloads it.
        let ocr = d.decide_mean(
            NetworkScenario::ThreeG,
            &WorkloadKind::Ocr.profile(),
            true,
            SimDuration::ZERO,
        );
        assert!(
            ocr.offload,
            "OCR on 3G latency: remote {}",
            ocr.predicted_remote
        );
        // Linpack's few hundred bytes win remotely, trivially.
        let lp = d.decide_mean(
            NetworkScenario::ThreeG,
            &WorkloadKind::Linpack.profile(),
            true,
            SimDuration::ZERO,
        );
        assert!(lp.offload, "Linpack on 3G: remote {}", lp.predicted_remote);
    }

    #[test]
    fn cold_vm_prep_flips_the_decision() {
        let d = decider(Objective::Latency);
        let profile = WorkloadKind::ChessGame.profile();
        let warm = d.decide_mean(NetworkScenario::LanWifi, &profile, true, SimDuration::ZERO);
        assert!(warm.offload);
        // A 28.7 s VM boot in the prep estimate makes offloading lose.
        let cold = d.decide_mean(
            NetworkScenario::LanWifi,
            &profile,
            true,
            SimDuration::from_millis(28_720),
        );
        assert!(!cold.offload, "predicting a cold VM must keep work local");
        // Rattrap's 1.75 s start does not flip it.
        let rattrap_cold = d.decide_mean(
            NetworkScenario::LanWifi,
            &profile,
            true,
            SimDuration::from_millis(1_750),
        );
        assert!(
            rattrap_cold.offload,
            "a Rattrap cold start is still worth offloading"
        );
    }

    #[test]
    fn code_cache_changes_marginal_cases() {
        // ChessGame's 2.1 MB APK over WAN WiFi: with the code riding
        // along the upload is ~0.9 s; cached, ~11 ms.
        let d = decider(Objective::Latency);
        let profile = WorkloadKind::ChessGame.profile();
        let cached = d.decide_mean(NetworkScenario::WanWifi, &profile, true, SimDuration::ZERO);
        let uncached = d.decide_mean(NetworkScenario::WanWifi, &profile, false, SimDuration::ZERO);
        assert!(
            uncached.predicted_remote > cached.predicted_remote + SimDuration::from_millis(500),
            "code transfer costs ~0.9 s on WAN"
        );
    }

    #[test]
    fn energy_objective_is_more_conservative_on_cellular() {
        // 3G promotion + tails make small offloads energy-losers even
        // when latency would tolerate them.
        let lat = decider(Objective::Latency);
        let en = decider(Objective::Energy);
        let profile = WorkloadKind::ChessGame.profile();
        let by_latency =
            lat.decide_mean(NetworkScenario::ThreeG, &profile, true, SimDuration::ZERO);
        let by_energy = en.decide_mean(NetworkScenario::ThreeG, &profile, true, SimDuration::ZERO);
        // Energy says no (3G radio cost); latency may still say yes.
        assert!(
            !by_energy.offload,
            "energy objective rejects 3G chess offload"
        );
        assert!(by_energy.remote_energy_mj > by_energy.local_energy_mj * 0.9);
        let _ = by_latency;
    }

    #[test]
    fn decision_report_is_consistent() {
        let d = decider(Objective::Latency);
        let r = d.decide_mean(
            NetworkScenario::LanWifi,
            &WorkloadKind::Linpack.profile(),
            true,
            SimDuration::ZERO,
        );
        assert_eq!(
            r.offload,
            r.predicted_remote.as_secs_f64() < 0.9 * r.predicted_local.as_secs_f64()
        );
        assert!(r.local_energy_mj > 0.0 && r.remote_energy_mj > 0.0);
    }
}
