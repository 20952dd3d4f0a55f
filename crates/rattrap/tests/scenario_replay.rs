//! Rattrap face of the scenario plane: a compiled `ScenarioSpec`
//! replays through `ArrivalModel::Trace` on a single host, and a
//! noisy-neighbor tenancy binds each tenant's devices to its apps.

use rattrap::{ArrivalModel, PlatformKind, ScenarioConfig};
use scenario::{ScenarioDriver, ScenarioSpec};
use simkit::{SimDuration, SimTime};
use workloads::WorkloadKind;

const DEVICES: u32 = 12;

fn replay_config(spec: &ScenarioSpec, seed: u64) -> (ScenarioConfig, ScenarioDriver) {
    let driver = ScenarioDriver::compile(spec, DEVICES, seed);
    let mut cfg =
        ScenarioConfig::paper_default(PlatformKind::Rattrap.config(), WorkloadKind::Ocr, seed);
    cfg.devices = DEVICES;
    cfg.arrivals = ArrivalModel::Trace(driver.device_arrivals(DEVICES));
    cfg.device_workloads = driver.device_workloads(DEVICES);
    (cfg, driver)
}

#[test]
fn an_interaction_storm_replays_deterministically_on_one_host() {
    let spec = ScenarioSpec::interaction_storm(
        96,
        SimTime::from_secs(30),
        SimDuration::from_secs(240),
        60,
    );
    let (cfg, driver) = replay_config(&spec, 0xA11CE);
    assert!(
        driver.planned_offloads() > 0,
        "the storm must script offloads"
    );
    // Only offloading events reach the trace; device-local touches are
    // suppressed at compile time, same as the fleet injection seam.
    let lanes = driver.device_arrivals(DEVICES);
    let on_trace: u64 = lanes.iter().map(|l| l.len() as u64).sum();
    assert_eq!(on_trace, driver.planned_offloads());
    for lane in &lanes {
        assert!(lane.windows(2).all(|w| w[0] <= w[1]), "lanes stay sorted");
    }

    let a = rattrap::run_scenario(cfg.clone());
    let b = rattrap::run_scenario(cfg);
    assert_eq!(a.digest(), b.digest(), "trace replay must be deterministic");
    assert_eq!(a.requests.len() as u64, on_trace);
    for r in &a.requests {
        assert!(r.completed_at >= r.arrived_at);
    }
}

#[test]
fn a_noisy_neighbor_replay_serves_every_arrival_of_both_tenants() {
    let spec = ScenarioSpec::noisy_neighbor(1, 2);
    let (mut cfg, driver) = replay_config(&spec, 0xBEE);
    // Give the trace something to carry: noisy-neighbor alone scripts
    // no extra arrivals (it reshapes the base mix), so storm on top.
    let storm = ScenarioSpec::interaction_storm(
        64,
        SimTime::from_secs(10),
        SimDuration::from_secs(180),
        70,
    );
    let storm_driver = ScenarioDriver::compile(&storm, DEVICES, 0xBEE);
    cfg.arrivals = ArrivalModel::Trace(storm_driver.device_arrivals(DEVICES));

    let tenant_of: Vec<u32> = (0..DEVICES).map(|d| driver.tenant_of(d)).collect();
    let report = rattrap::run_scenario(cfg.clone());

    let arrivals: usize = storm_driver
        .device_arrivals(DEVICES)
        .iter()
        .map(Vec::len)
        .sum();
    assert_eq!(report.requests.len(), arrivals, "every arrival served once");
    assert_eq!(driver.tenant_names().len(), 2);
    for tenant in 0..2 {
        let ran = report
            .requests
            .iter()
            .any(|r| tenant_of[r.device as usize] == tenant);
        assert!(ran, "tenant {tenant} ran");
    }
    // Tenancy binds the per-device workload: heavy apps on tenant 0,
    // latency-sensitive on tenant 1.
    let kinds = cfg.device_workloads.as_ref().expect("explicit tenancy");
    for d in 0..DEVICES {
        let heavy = matches!(
            kinds[d as usize],
            WorkloadKind::VirusScan | WorkloadKind::Linpack
        );
        assert_eq!(heavy, tenant_of[d as usize] == 0);
    }
}
