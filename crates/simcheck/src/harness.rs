//! Run one sample under every auditor and fold the evidence into a
//! single outcome the explorer (and the minimizer) can compare.

use crate::audit::Audit;
use crate::invariants::{
    audit_backend_inertness, audit_digest_stability, audit_fleet_report, audit_simulation_report,
    audit_trace, LifecycleAuditor, PRICED_CLASSES,
};
use crate::models::{
    audit_code_cache, audit_device_gate, audit_medium, audit_timeline, EngineTimeline, FairLink,
    KernelGate,
};
use crate::sample::{Sample, SampleKind};
use exec::{CalEntry, CalibrationMap, SizeClass};
use fleet::FleetReport;
use obsv::{Recorder, RecorderConfig, TraceSnapshot};
use rattrap::{AppWarehouse, Simulation};
use workloads::WorkloadKind;

/// Everything observed about one audited run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The engine's own report digest (first run).
    pub digest: u64,
    /// The merged audit ledger for this sample.
    pub audit: Audit,
    /// The trace, when the sample ran with a recorder attached.
    pub trace: Option<TraceSnapshot>,
}

impl RunOutcome {
    /// `true` when no invariant fired.
    pub fn is_clean(&self) -> bool {
        self.audit.is_clean()
    }
}

/// Run `sample` twice (digest-stability is itself an invariant: the
/// same seed must reproduce the same report bit for bit) under the
/// live lifecycle auditor and the post-run report auditors.
pub fn run_sample(sample: &Sample) -> RunOutcome {
    let fleet = |cfg: fleet::FleetConfig| {
        move |rec, calibration| {
            let cfg = fleet::FleetConfig {
                calibration,
                ..cfg.clone()
            };
            let report = fleet::run_fleet_traced(&cfg, rec);
            (report.digest(), report)
        }
    };
    match sample.kind {
        SampleKind::Rattrap => run_rattrap(sample),
        SampleKind::Fleet => run_plane_sample(
            sample,
            format!("fleet sample {}", sample.index),
            fleet(sample.fleet_config()),
        ),
        // A fleet run under an adversarial scenario plan: the report
        // carries the scenario block, so the arrival-conservation and
        // tenant-isolation invariants join the plane's own.
        SampleKind::Scenario => run_plane_sample(
            sample,
            format!(
                "scenario sample {} ({})",
                sample.index,
                sample.scenario_family().label()
            ),
            fleet(sample.scenario_fleet_config()),
        ),
        SampleKind::Geo => {
            let cfg = sample.geo_config();
            run_plane_sample(
                sample,
                format!("geo sample {}", sample.index),
                move |rec, calibration| {
                    let cfg = geo::GeoConfig {
                        calibration,
                        ..cfg.clone()
                    };
                    let report = geo::run_geo_traced(&cfg, rec);
                    (report.digest(), report.plane)
                },
            )
        }
    }
}

/// A non-empty calibration map whose every ratio is 1.0. Cells are
/// keyed exactly (for every host class an engine prices with) and by
/// wildcard, and the rest fall to the default, so resolving it runs
/// all three lookup steps. Pricing under it must change nothing.
pub fn unit_calibration() -> CalibrationMap {
    let unit = CalEntry {
        ratio: 1.0,
        wall_micros: 0,
        samples: 1,
    };
    let mut map = CalibrationMap::identity();
    for kind in WorkloadKind::ALL {
        for host in PRICED_CLASSES {
            map.insert(CalibrationMap::key(kind, SizeClass::Small, host), unit);
        }
        map.insert(format!("{}/M/*", kind.label()), unit);
    }
    map
}

fn recorder_for(sample: &Sample) -> Recorder {
    if sample.traced {
        Recorder::enabled(RecorderConfig::default())
    } else {
        Recorder::disabled()
    }
}

/// The run's trace, span-tree audited, when it was recorded.
fn audited_trace(rec: &Recorder, audit: &mut Audit) -> Option<TraceSnapshot> {
    rec.is_enabled().then(|| {
        let snap = rec.snapshot();
        audit_trace(&snap, audit);
        snap
    })
}

fn run_rattrap(sample: &Sample) -> RunOutcome {
    let cfg = sample.scenario_config();
    let mut audit = Audit::new();

    let lifecycle = LifecycleAuditor::default();
    let rec = recorder_for(sample);
    let mut sim = Simulation::new(cfg.clone());
    sim.set_recorder(rec.clone());
    sim.add_observer(Box::new(lifecycle.clone()));
    let report = sim.run();
    audit.merge(lifecycle.finish());

    let dram = hostkernel::HostSpec::paper_server().memory_bytes;
    audit_simulation_report(&report, dram, &mut audit);

    let trace = audited_trace(&rec, &mut audit);

    // Same seed, fresh engine: the report must be bit-identical.
    let replay = Simulation::new(cfg.clone()).run();
    audit_digest_stability(
        &format!("rattrap sample {}", sample.index),
        &[report.digest(), replay.digest()],
        &mut audit,
    );

    // A unit calibration map on the config must be inert.
    let calibration = unit_calibration();
    let calibrated = rattrap::run_scenario(rattrap::ScenarioConfig {
        calibration: calibration.clone(),
        ..cfg
    });
    audit_backend_inertness(
        &format!("rattrap sample {} (default ≡ unit map)", sample.index),
        &calibration,
        report.digest(),
        calibrated.digest(),
        &mut audit,
    );

    RunOutcome {
        digest: report.digest(),
        audit,
        trace,
    }
}

/// One control-plane sample — fleet, scenario-striped fleet or geo.
/// `run(recorder, calibration)` runs the sample's config under that
/// calibration map and returns the front-end's digest with the plane's
/// report.
fn run_plane_sample(
    sample: &Sample,
    what: String,
    run: impl Fn(Recorder, CalibrationMap) -> (u64, FleetReport),
) -> RunOutcome {
    let mut audit = Audit::new();

    let rec = recorder_for(sample);
    let (digest, report) = run(rec.clone(), CalibrationMap::identity());
    audit_fleet_report(&report, &mut audit);
    let trace = audited_trace(&rec, &mut audit);

    // Two-way metamorphic oracle: the (possibly traced) run and an
    // untraced replay of the same seed must agree bit for bit, under
    // any fault intensity or adversarial traffic the swarm draws.
    let (replay, _) = run(Recorder::disabled(), CalibrationMap::identity());
    audit_digest_stability(
        &format!("{what} (run ≡ replay)"),
        &[digest, replay],
        &mut audit,
    );

    // A unit calibration map, resolved by every host LP (every edge
    // and core host of a topology), must be inert.
    let calibration = unit_calibration();
    let (calibrated, _) = run(Recorder::disabled(), calibration.clone());
    audit_backend_inertness(
        &format!("{what} (default ≡ unit map)"),
        &calibration,
        digest,
        calibrated,
        &mut audit,
    );

    RunOutcome {
        digest,
        audit,
        trace,
    }
}

/// Run the component-model audits (shared link vs the fair-share
/// closed form, ENODEV gating, warehouse shadow model, event-queue
/// ordering) — the invariants no single scenario run can exercise as
/// sharply as a dedicated seeded script.
pub fn run_model_audits(seed: u64) -> Audit {
    let mut audit = Audit::new();
    audit_medium(FairLink::new, seed ^ 0x11, 6, &mut audit);
    audit_device_gate(&mut KernelGate::new(), seed ^ 0x22, 120, &mut audit);
    audit_code_cache(
        // Large capacity: the shadow model is exact only below the
        // eviction threshold, which its script stays well under.
        &mut AppWarehouse::new(64 * 1024 * 1024),
        seed ^ 0x33,
        160,
        &mut audit,
    );
    audit_timeline(&mut EngineTimeline::default(), seed ^ 0x44, 96, &mut audit);
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_audits_are_clean_on_the_real_components() {
        let audit = run_model_audits(0xC0FFEE);
        assert!(
            audit.is_clean(),
            "model audits fired on production components:\n{}",
            audit
                .violations()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // All four model invariants actually ran.
        let checked: Vec<_> = audit.invariants_checked().collect();
        for inv in [
            crate::invariants::LINK_CONSERVATION,
            crate::invariants::ENODEV_GATE,
            crate::invariants::WAREHOUSE_CONSISTENCY,
            crate::invariants::EVENT_MONOTONICITY,
        ] {
            assert!(checked.contains(&inv), "{inv} never evaluated");
        }
    }

    #[test]
    fn every_plane_stripe_evaluates_the_shared_plane_invariants() {
        // Migration conservation and single admission are properties of
        // the one control plane, so fleet and scenario samples — the
        // ones that crash hosts — must evaluate them too, and the
        // scenario stripe must take the backend-inertness leg.
        for kind in [SampleKind::Fleet, SampleKind::Scenario, SampleKind::Geo] {
            let sample = (0..)
                .map(|i| Sample::draw(7, i))
                .find(|s| s.kind == kind && (kind == SampleKind::Geo || s.fault_pct > 0))
                .expect("the swarm draws every stripe");
            let outcome = run_sample(&sample);
            assert!(outcome.is_clean(), "{kind:?} sample {}", sample.index);
            let checked: Vec<_> = outcome.audit.invariants_checked().collect();
            for inv in [
                crate::invariants::GEO_MIGRATION_CONSERVATION,
                crate::invariants::GEO_SINGLE_ADMISSION,
                crate::invariants::BACKEND_INERTNESS,
            ] {
                assert!(checked.contains(&inv), "{inv} never evaluated on {kind:?}");
            }
        }
    }

    #[test]
    fn a_small_clean_sample_passes_every_auditor() {
        let mut s = Sample::draw(42, 0);
        s.fault_pct = 0;
        s.traced = true;
        let outcome = run_sample(&s);
        assert!(
            outcome.is_clean(),
            "clean sample produced violations:\n{}",
            outcome
                .audit
                .violations()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(outcome.trace.is_some());
    }
}
