//! Scenario-plane conformance: one pinned golden digest per scenario
//! family (the `golden_determinism.rs` contract extended to
//! adversarial traffic), plus property tests that arbitrary
//! `ScenarioSpec`s — composed with arbitrary FaultPlans — leave every
//! request terminal and conserve the fleet's request accounting.
//!
//! If an intentional engine change moves a digest, regenerate with:
//!
//! ```text
//! cargo test -p fleet --test scenario_conformance -- --nocapture
//! ```
//!
//! and update the constant the failure message prints.

use fleet::{run_fleet, FleetConfig, FleetReport};
use proptest::prelude::*;
use rattrap::Phase;
use scenario::{PhaseAction, PhaseSpec, ScenarioFamily, ScenarioSpec, TenantSpec};
use simkit::faults::FaultConfig;
use simkit::{SimDuration, SimTime};

/// Same master seed as the fleet golden suite.
const GOLDEN_SEED: u64 = 0x2017_0529;

/// Pinned digests, [`ScenarioFamily::ALL`] order.
const FAMILY_GOLDEN: [(ScenarioFamily, u64); 4] = [
    (ScenarioFamily::FlashCrowd, 0x928f_f3ed_5d0f_a2e1),
    (ScenarioFamily::CorrelatedFailure, 0xc857_65e2_1bec_854b),
    (ScenarioFamily::NoisyNeighbor, 0x8c9b_8334_f499_96c3),
    (ScenarioFamily::InteractionStorm, 0x875f_79ab_0174_557c),
];

/// The canonical small fleet every family golden runs on.
fn base(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::paper_default(3, seed);
    cfg.traffic.users = 48;
    cfg.traffic.duration = SimDuration::from_secs(900);
    cfg
}

/// The canonical spec for one family, sized for the golden fleet.
pub fn family_spec(family: ScenarioFamily) -> ScenarioSpec {
    match family {
        ScenarioFamily::FlashCrowd => {
            ScenarioSpec::flash_crowd(48, 12, SimTime::from_secs(300), SimDuration::from_secs(60))
        }
        ScenarioFamily::CorrelatedFailure => ScenarioSpec::correlated_failure(
            50,
            SimTime::from_secs(200),
            SimDuration::from_secs(120),
        ),
        ScenarioFamily::NoisyNeighbor => ScenarioSpec::noisy_neighbor(1, 2),
        ScenarioFamily::InteractionStorm => ScenarioSpec::interaction_storm(
            240,
            SimTime::from_secs(60),
            SimDuration::from_secs(300),
            55,
        ),
    }
}

fn family_cfg(family: ScenarioFamily) -> FleetConfig {
    let mut cfg = base(GOLDEN_SEED);
    cfg.scenario_plan = Some(family_spec(family));
    if family == ScenarioFamily::CorrelatedFailure {
        // The family composes the radio outage with PR 2's FaultPlan:
        // host crashes land while the cohort radio is down.
        cfg.faults = FaultConfig::scaled(0.5);
    }
    cfg
}

fn assert_conserved(rep: &FleetReport) {
    for r in &rep.records {
        assert!(
            r.phase.is_terminal(),
            "request {} not terminal: {:?}",
            r.id,
            r.phase
        );
    }
    assert_eq!(
        rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
        rep.summary.submitted,
        "request accounting must partition submissions"
    );
    let s = rep.scenario.as_ref().expect("scenario runs carry stats");
    assert_eq!(
        s.injected,
        s.submitted + s.suppressed,
        "scenario arrival conservation"
    );
    assert_eq!(
        s.tenants.iter().map(|t| t.submitted).sum::<u64>(),
        rep.summary.submitted,
        "tenant split must partition the run"
    );
    for t in &s.tenants {
        assert_eq!(
            t.completed_remote + t.fallback_local + t.abandoned,
            t.submitted,
            "tenant {} accounting must partition its submissions",
            t.name
        );
    }
}

#[test]
fn family_digests_are_pinned() {
    let mut moved = Vec::new();
    for (family, want) in FAMILY_GOLDEN {
        let rep = run_fleet(&family_cfg(family));
        assert_conserved(&rep);
        if rep.digest() != want {
            moved.push(format!(
                "{}: got {:#018x}, pinned {want:#018x}",
                family.label(),
                rep.digest()
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "family digests moved — if intentional, repin:\n{}",
        moved.join("\n")
    );
}

#[test]
fn flash_crowd_actually_ramps_and_correlated_failure_actually_herds() {
    let quiet = run_fleet(&base(GOLDEN_SEED));
    let crowd = run_fleet(&family_cfg(ScenarioFamily::FlashCrowd));
    assert!(
        crowd.summary.submitted > quiet.summary.submitted * 2,
        "flash crowd must visibly ramp load ({} vs {})",
        crowd.summary.submitted,
        quiet.summary.submitted
    );
    let storm = run_fleet(&family_cfg(ScenarioFamily::CorrelatedFailure));
    let s = storm.scenario.as_ref().unwrap();
    assert!(s.deferred > 0, "the outage must cut uploads mid-flight");
}

#[test]
fn noisy_neighbor_splits_tenants_and_sees_interference() {
    let rep = run_fleet(&family_cfg(ScenarioFamily::NoisyNeighbor));
    let s = rep.scenario.as_ref().unwrap();
    assert_eq!(s.tenants.len(), 2);
    let batch = &s.tenants[0];
    let interactive = &s.tenants[1];
    assert!(batch.submitted > 0 && interactive.submitted > 0);
    assert!(batch.p99_response_s > 0.0 && interactive.p99_response_s > 0.0);
    // Tenancy binds the workload mix: the batch tenant's devices run
    // only the heavy apps, the interactive tenant's only the
    // latency-sensitive ones.
    let heavy = |k: workloads::WorkloadKind| {
        matches!(
            k,
            workloads::WorkloadKind::VirusScan | workloads::WorkloadKind::Linpack
        )
    };
    let spec = family_spec(ScenarioFamily::NoisyNeighbor);
    let driver = scenario::ScenarioDriver::compile(&spec, 48, 0);
    for r in &rep.records {
        assert_eq!(
            heavy(r.kind),
            driver.tenant_of(r.user) == 0,
            "request {} app {:?} does not match its tenant's mix",
            r.id,
            r.kind
        );
    }
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        0u32..24,      // burst users
        200u32..5_000, // burst mean iat ms
        1u8..=100,     // cohort pct
        0usize..4,     // rate arm, mapped below (bias toward hard outages)
        0u32..32,      // containers
        0u8..=100,     // offload pct
        0usize..=2,    // tenancy arm
    )
        .prop_map(
            |(burst, iat, cohort, rate_arm, containers, offload, tenancy)| ScenarioSpec {
                name: "prop".to_string(),
                family: ScenarioFamily::InteractionStorm,
                tenants: match tenancy {
                    0 => Vec::new(),
                    1 => vec![
                        TenantSpec::heavy("b", 1),
                        TenantSpec::latency_sensitive("i", 1),
                    ],
                    _ => vec![
                        TenantSpec::heavy("b", 2),
                        TenantSpec::latency_sensitive("i", 3),
                        TenantSpec {
                            name: "mixed".to_string(),
                            share: 1,
                            mix: [1, 1, 1, 1],
                        },
                    ],
                },
                phases: vec![
                    PhaseSpec {
                        start: SimTime::from_secs(30),
                        duration: SimDuration::from_secs(90),
                        action: PhaseAction::ArrivalBurst {
                            users: burst,
                            mean_iat_ms: iat,
                        },
                    },
                    PhaseSpec {
                        start: SimTime::from_secs(60),
                        duration: SimDuration::from_secs(80),
                        action: PhaseAction::RadioOutage {
                            cohort_pct: cohort,
                            rate_pct: [0u8, 0, 25, 60][rate_arm],
                        },
                    },
                    PhaseSpec {
                        start: SimTime::from_secs(100),
                        duration: SimDuration::from_secs(60),
                        action: PhaseAction::ScriptReplay {
                            containers,
                            gap_ms: 1_100,
                            offload_pct: offload,
                        },
                    },
                ],
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any scenario composed with any fault intensity terminates every
    /// request and conserves both the fleet's and the scenario's
    /// accounting.
    #[test]
    fn arbitrary_scenarios_conserve_accounting_under_faults(
        seed in 0u64..1_000_000,
        fault_arm in 0usize..3,
        spec in arb_spec(),
    ) {
        let mut cfg = base(seed);
        cfg.traffic.users = 24;
        cfg.traffic.duration = SimDuration::from_secs(400);
        cfg.faults = FaultConfig::scaled([0.0, 0.25, 0.75][fault_arm]);
        cfg.scenario_plan = Some(spec);
        let rep = run_fleet(&cfg);
        assert_conserved(&rep);
        // Abandonment is only reachable when the policy abandons.
        if rep.summary.abandoned > 0 {
            prop_assert!(
                rep.records.iter().any(|r| matches!(r.phase, Phase::Abandoned | Phase::Failed))
            );
        }
    }
}
