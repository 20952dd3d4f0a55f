//! Client-side offloading decision engine.
//!
//! The paper "leaves the offloading details in clients to existing
//! offloading frameworks" (§V) — MAUI-style systems decide *whether* to
//! offload from predicted remote latency/energy vs. local execution.
//! This module supplies that missing client half so the repository is a
//! complete offloading system: EWMA estimators of the link learned from
//! observed transfers, a latency/energy predictor, and a decision
//! policy. The engine is what turns the 3G results of Fig. 10 (where
//! offloading *wastes* energy for payload-heavy workloads) into correct
//! stay-local decisions.

use crate::config::DeviceSpec;
use netsim::NetworkScenario;
use powersim::{DevicePowerModel, EnergyEstimator, OffloadPhases};
use simkit::SimDuration;
use workloads::{TaskRequest, WorkloadProfile};

/// Exponentially weighted moving average with a cold-start default.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An estimator with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feed an observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
            None => x,
        });
    }

    /// Current estimate, or `default` before any observation.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Has the estimator seen any sample?
    pub fn warmed_up(&self) -> bool {
        self.value.is_some()
    }
}

/// Online link-quality estimator fed by the client's own transfers.
#[derive(Debug, Clone)]
pub struct LinkEstimator {
    rtt_s: Ewma,
    up_bps: Ewma,
    down_bps: Ewma,
}

impl LinkEstimator {
    /// Fresh estimator (α = 0.3, reactive but stable).
    pub fn new() -> Self {
        LinkEstimator {
            rtt_s: Ewma::new(0.3),
            up_bps: Ewma::new(0.3),
            down_bps: Ewma::new(0.3),
        }
    }

    /// Record a measured connection setup (≈1.5 RTT).
    pub fn observe_connect(&mut self, d: SimDuration) {
        self.rtt_s.observe(d.as_secs_f64() / 1.5);
    }

    /// Record a measured upload.
    pub fn observe_upload(&mut self, bytes: u64, d: SimDuration) {
        if bytes > 0 && !d.is_zero() {
            self.up_bps.observe(bytes as f64 / d.as_secs_f64());
        }
    }

    /// Record a measured download.
    pub fn observe_download(&mut self, bytes: u64, d: SimDuration) {
        if bytes > 0 && !d.is_zero() {
            self.down_bps.observe(bytes as f64 / d.as_secs_f64());
        }
    }

    /// Seed the estimator from a scenario's nominal parameters (what a
    /// client knows from the OS network type before any transfer).
    pub fn seeded_from(scenario: NetworkScenario) -> Self {
        let p = scenario.params();
        let mut e = LinkEstimator::new();
        e.rtt_s.observe(p.rtt.as_secs_f64());
        e.up_bps.observe(p.upstream_bps);
        e.down_bps.observe(p.downstream_bps);
        e
    }

    /// Predicted connect + transfer phases for a task.
    fn predict_phases(
        &self,
        task: &TaskRequest,
        code_bytes: u64,
        cloud_wait: SimDuration,
    ) -> OffloadPhases {
        let rtt = self.rtt_s.get_or(0.05);
        let up = self.up_bps.get_or(1e6);
        let down = self.down_bps.get_or(1e6);
        let upload_bytes = task.payload_bytes + task.control_bytes + code_bytes;
        OffloadPhases {
            connect: SimDuration::from_secs_f64(1.5 * rtt),
            upload: SimDuration::from_secs_f64(upload_bytes as f64 / up + rtt / 2.0),
            cloud_wait,
            download: SimDuration::from_secs_f64(task.result_bytes as f64 / down + rtt / 2.0),
        }
    }
}

impl Default for LinkEstimator {
    fn default() -> Self {
        LinkEstimator::new()
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
/// by this factor (hedges estimator error).
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
        link: &LinkEstimator,
        task: &TaskRequest,
        code_bytes: u64,
        expected_prep: SimDuration,
    ) -> DecisionReport {
        let server_exec =
            SimDuration::from_secs_f64(task.compute.0 / (self.server_eff_ghz * 1000.0));
        let phases = link.predict_phases(task, code_bytes, expected_prep + server_exec);
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
        link: &LinkEstimator,
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
        self.decide(scenario, link, &task, code, expected_prep)
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
    fn ewma_smooths_and_cold_starts() {
        let mut e = Ewma::new(0.5);
        assert!(!e.warmed_up());
        assert_eq!(e.get_or(7.0), 7.0);
        e.observe(10.0);
        assert_eq!(e.get_or(0.0), 10.0);
        e.observe(0.0);
        assert_eq!(e.get_or(0.0), 5.0);
    }

    #[test]
    fn estimator_learns_from_observations() {
        let mut l = LinkEstimator::new();
        l.observe_connect(SimDuration::from_millis(90)); // → RTT 60 ms
        l.observe_upload(1_000_000, SimDuration::from_secs(1));
        l.observe_download(500_000, SimDuration::from_secs(1));
        let task = TaskRequest {
            kind: WorkloadKind::Ocr,
            payload_bytes: 1_000_000,
            control_bytes: 0,
            result_bytes: 500_000,
            compute: simkit::units::Megacycles(0.0),
            io_bytes: 0,
        };
        let p = l.predict_phases(&task, 0, SimDuration::ZERO);
        assert!((p.connect.as_secs_f64() - 0.09).abs() < 1e-6);
        assert!((p.upload.as_secs_f64() - 1.03).abs() < 0.01);
        assert!((p.download.as_secs_f64() - 1.03).abs() < 0.01);
    }

    #[test]
    fn lan_offloads_all_workloads() {
        let d = decider(Objective::Latency);
        let link = LinkEstimator::seeded_from(NetworkScenario::LanWifi);
        for kind in WorkloadKind::ALL {
            let r = d.decide_mean(
                NetworkScenario::LanWifi,
                &link,
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
        let link = LinkEstimator::seeded_from(NetworkScenario::ThreeG);
        let scan = d.decide_mean(
            NetworkScenario::ThreeG,
            &link,
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
            &link,
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
            &link,
            &WorkloadKind::Linpack.profile(),
            true,
            SimDuration::ZERO,
        );
        assert!(lp.offload, "Linpack on 3G: remote {}", lp.predicted_remote);
    }

    #[test]
    fn cold_vm_prep_flips_the_decision() {
        let d = decider(Objective::Latency);
        let link = LinkEstimator::seeded_from(NetworkScenario::LanWifi);
        let profile = WorkloadKind::ChessGame.profile();
        let warm = d.decide_mean(
            NetworkScenario::LanWifi,
            &link,
            &profile,
            true,
            SimDuration::ZERO,
        );
        assert!(warm.offload);
        // A 28.7 s VM boot in the prep estimate makes offloading lose.
        let cold = d.decide_mean(
            NetworkScenario::LanWifi,
            &link,
            &profile,
            true,
            SimDuration::from_millis(28_720),
        );
        assert!(!cold.offload, "predicting a cold VM must keep work local");
        // Rattrap's 1.75 s start does not flip it.
        let rattrap_cold = d.decide_mean(
            NetworkScenario::LanWifi,
            &link,
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
        let link = LinkEstimator::seeded_from(NetworkScenario::WanWifi);
        let profile = WorkloadKind::ChessGame.profile();
        let cached = d.decide_mean(
            NetworkScenario::WanWifi,
            &link,
            &profile,
            true,
            SimDuration::ZERO,
        );
        let uncached = d.decide_mean(
            NetworkScenario::WanWifi,
            &link,
            &profile,
            false,
            SimDuration::ZERO,
        );
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
        let link = LinkEstimator::seeded_from(NetworkScenario::ThreeG);
        let profile = WorkloadKind::ChessGame.profile();
        let by_latency = lat.decide_mean(
            NetworkScenario::ThreeG,
            &link,
            &profile,
            true,
            SimDuration::ZERO,
        );
        let by_energy = en.decide_mean(
            NetworkScenario::ThreeG,
            &link,
            &profile,
            true,
            SimDuration::ZERO,
        );
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
        let link = LinkEstimator::seeded_from(NetworkScenario::LanWifi);
        let r = d.decide_mean(
            NetworkScenario::LanWifi,
            &link,
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
