//! Run one sample under every auditor and fold the evidence into a
//! single outcome the explorer (and the minimizer) can compare.

use crate::audit::Audit;
use crate::invariants::{
    audit_backend_inertness, audit_digest_stability, audit_fleet_report, audit_geo_report,
    audit_simulation_report, audit_trace, LifecycleAuditor,
};
use crate::models::{
    audit_code_cache, audit_device_gate, audit_medium, audit_timeline, EngineTimeline, FairLink,
    KernelGate,
};
use crate::sample::{Sample, SampleKind};
use obsv::{Recorder, RecorderConfig, TraceSnapshot};
use rattrap::{AppWarehouse, Simulation};

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
    match sample.kind {
        SampleKind::Rattrap => run_rattrap(sample),
        SampleKind::Fleet => run_fleet_sample(sample),
        SampleKind::Geo => run_geo_sample(sample),
        SampleKind::Scenario => run_scenario_sample(sample),
    }
}

fn recorder_for(sample: &Sample) -> Recorder {
    if sample.traced {
        Recorder::enabled(RecorderConfig::default())
    } else {
        Recorder::disabled()
    }
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

    let trace = if rec.is_enabled() {
        let snap = rec.snapshot();
        audit_trace(&snap, &mut audit);
        Some(snap)
    } else {
        None
    };

    // Same seed, fresh engine: the report must be bit-identical.
    let replay = Simulation::new(cfg.clone()).run();
    audit_digest_stability(
        &format!("rattrap sample {}", sample.index),
        &[report.digest(), replay.digest()],
        &mut audit,
    );

    // Backend seam: the identity Replay backend must be inert.
    let mut with_backend = Simulation::new(cfg);
    with_backend.set_backend(std::sync::Arc::new(exec::ReplayBackend::identity()));
    audit_backend_inertness(
        &format!(
            "rattrap sample {} (modeled ≡ replay-identity)",
            sample.index
        ),
        report.digest(),
        with_backend.run().digest(),
        &mut audit,
    );

    RunOutcome {
        digest: report.digest(),
        audit,
        trace,
    }
}

fn run_fleet_sample(sample: &Sample) -> RunOutcome {
    let cfg = sample.fleet_config();
    let mut audit = Audit::new();

    let rec = recorder_for(sample);
    let report = fleet::run_fleet_traced(&cfg, rec.clone());
    audit_fleet_report(&report, &mut audit);

    let trace = if rec.is_enabled() {
        let snap = rec.snapshot();
        audit_trace(&snap, &mut audit);
        Some(snap)
    } else {
        None
    };

    // Two-way metamorphic oracle: the (possibly traced) run and an
    // untraced replay of the same seed must agree bit for bit, under
    // any fault intensity the swarm draws.
    let replay = fleet::run_fleet(&cfg);
    audit_digest_stability(
        &format!("fleet sample {} (run ≡ replay)", sample.index),
        &[report.digest(), replay.digest()],
        &mut audit,
    );

    // Backend seam, one layer up: identity Replay through every host
    // LP must be inert.
    let with_backend = fleet::run_fleet_backend(
        &cfg,
        Recorder::disabled(),
        std::sync::Arc::new(exec::ReplayBackend::identity()),
    );
    audit_backend_inertness(
        &format!("fleet sample {} (modeled ≡ replay-identity)", sample.index),
        report.digest(),
        with_backend.digest(),
        &mut audit,
    );

    RunOutcome {
        digest: report.digest(),
        audit,
        trace,
    }
}

/// The scenario stripe: a fleet run under an adversarial scenario
/// plan. Rides the fleet auditors (which pick up the scenario block's
/// arrival-conservation and tenant-isolation invariants when present)
/// plus the run ≡ replay metamorphic oracle — adversarial traffic
/// must not open a determinism seam.
fn run_scenario_sample(sample: &Sample) -> RunOutcome {
    let cfg = sample.scenario_fleet_config();
    let mut audit = Audit::new();

    let rec = recorder_for(sample);
    let report = fleet::run_fleet_traced(&cfg, rec.clone());
    audit_fleet_report(&report, &mut audit);

    let trace = if rec.is_enabled() {
        let snap = rec.snapshot();
        audit_trace(&snap, &mut audit);
        Some(snap)
    } else {
        None
    };

    let replay = fleet::run_fleet(&cfg);
    audit_digest_stability(
        &format!(
            "scenario sample {} ({}; run ≡ replay)",
            sample.index,
            sample.scenario_family().label()
        ),
        &[report.digest(), replay.digest()],
        &mut audit,
    );

    RunOutcome {
        digest: report.digest(),
        audit,
        trace,
    }
}

fn run_geo_sample(sample: &Sample) -> RunOutcome {
    let cfg = sample.geo_config();
    let mut audit = Audit::new();

    let rec = recorder_for(sample);
    let report = geo::run_geo_traced(&cfg, rec.clone());
    audit_geo_report(&report, &mut audit);

    let trace = if rec.is_enabled() {
        let snap = rec.snapshot();
        audit_trace(&snap, &mut audit);
        Some(snap)
    } else {
        None
    };

    // Same two-way metamorphic oracle as the fleet stripe, one layer
    // up: the run and its untraced replay must agree bit for bit
    // across the whole topology.
    let replay = geo::run_geo(&cfg);
    audit_digest_stability(
        &format!("geo sample {} (run ≡ replay)", sample.index),
        &[report.digest(), replay.digest()],
        &mut audit,
    );

    // Backend seam across the whole topology: identity Replay through
    // every edge and core host must be inert.
    let with_backend = geo::run_geo_backend(
        &cfg,
        Recorder::disabled(),
        std::sync::Arc::new(exec::ReplayBackend::identity()),
    );
    audit_backend_inertness(
        &format!("geo sample {} (modeled ≡ replay-identity)", sample.index),
        report.digest(),
        with_backend.digest(),
        &mut audit,
    );

    RunOutcome {
        digest: report.digest(),
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
