//! Determinism and regression contracts for the geo engine.
//!
//! The geo layer inherits the fleet's reproducibility bar: the same
//! [`GeoConfig`] must produce bit-identical [`GeoReport`] digests run
//! after run, with or without a recorder attached. The boot-time
//! regression pins the edge tier's default standby boot against the
//! fleet golden digest, so retuning the per-tier knob is a visible,
//! deliberate act.

use fleet::{run_fleet, AutoscalePolicy, FleetConfig};
use geo::{run_geo, run_geo_traced, GeoConfig, TierSpec};
use obsv::{Recorder, RecorderConfig, Subsystem, TraceEvent};
use simkit::faults::FaultConfig;
use simkit::SimDuration;
use std::collections::BTreeMap;

/// Same seed the rattrap and fleet goldens pin.
const GOLDEN_SEED: u64 = 0x2017_0529;

/// The fleet's pinned canonical digest (see
/// `crates/fleet/tests/golden_determinism.rs`) — the boot-time
/// regression below must reproduce it.
const GOLDEN_FLEET_DIGEST: u64 = 0xc722_c512_a546_9f68;

/// A 3-region scenario small enough for CI but busy enough to route
/// cross-region, migrate over the WAN, and exercise every tier.
fn canonical_geo() -> GeoConfig {
    let mut cfg = GeoConfig::paper_default(3, GOLDEN_SEED);
    for r in &mut cfg.regions {
        r.users = 16;
    }
    cfg.traffic.duration = SimDuration::from_secs(1800);
    cfg
}

#[test]
fn tracing_is_digest_neutral() {
    let cfg = canonical_geo();
    let baseline = run_geo(&cfg).digest();
    let rec = Recorder::enabled(RecorderConfig::default());
    let rep = run_geo_traced(&cfg, rec.clone());
    assert_eq!(rep.digest(), baseline, "recorder perturbed the run");
    assert!(!rec.snapshot().events.is_empty(), "traced run recorded");
}

#[test]
fn neighbouring_seed_diverges() {
    let mut cfg = canonical_geo();
    let baseline = run_geo(&cfg).digest();
    cfg.seed ^= 1;
    assert_ne!(run_geo(&cfg).digest(), baseline, "digest is seed-blind");
}

/// One hot region with a single-host edge PoP and no edge standby.
fn saturated_geo() -> GeoConfig {
    let mut cfg = GeoConfig::paper_default(3, GOLDEN_SEED);
    cfg.admission_capacity = 2;
    cfg.regions[0].users = 48;
    cfg.regions[0].edge.hosts = 1;
    cfg.regions[0].edge.initial_active = 1;
    cfg.regions[1].users = 4;
    cfg.regions[2].users = 4;
    cfg.traffic.duration = SimDuration::from_secs(1800);
    cfg
}

#[test]
fn saturated_edge_spills_cross_region_and_bursts_to_the_core() {
    // Overflow must spill around the ring and the edge must borrow
    // core capacity.
    let rep = run_geo(&saturated_geo());
    assert!(
        rep.control.cross_region_routes > 0,
        "no request left its home region under saturation"
    );
    assert!(
        rep.control.bursts > 0,
        "the overloaded edge never borrowed core standby"
    );
    assert_eq!(rep.control.double_admissions, 0);
}

/// Satellite: the edge tier's standby boot time is the fleet's own
/// 45 s default, and feeding that per-tier knob back into the fleet's
/// canonical scenario reproduces the fleet golden digest exactly —
/// the geo refactor changed where the number lives, not what it is.
#[test]
fn edge_boot_default_reproduces_the_fleet_golden_digest() {
    assert_eq!(
        TierSpec::edge().autoscale.host_boot,
        AutoscalePolicy::standard().host_boot,
        "edge tier drifted from the fleet's standby boot default"
    );

    let mut cfg = FleetConfig::paper_default(4, GOLDEN_SEED);
    cfg.traffic.users = 200;
    cfg.faults = FaultConfig::scaled(0.5);
    cfg.autoscale.host_boot = TierSpec::edge().autoscale.host_boot;
    assert_eq!(
        run_fleet(&cfg).digest(),
        GOLDEN_FLEET_DIGEST,
        "routing host_boot through the tier spec moved the fleet golden"
    );
}

/// Count the control plane's own trace events per name. Every other
/// subsystem is sampled off so the ring holds the whole run.
fn control_vocabulary(cfg: &GeoConfig) -> BTreeMap<&'static str, u64> {
    let mut sample = [0; Subsystem::ALL.len()];
    sample[Subsystem::Geo.index()] = 1;
    sample[Subsystem::Fleet.index()] = 1;
    let rc = RecorderConfig {
        sample,
        ..RecorderConfig::default()
    };
    let rec = Recorder::enabled(rc);
    run_geo_traced(cfg, rec.clone());
    let snap = rec.snapshot();
    assert_eq!(snap.dropped, 0, "ring too small: counts are not exact");
    let mut counts = BTreeMap::new();
    for ev in &snap.events {
        match ev {
            TraceEvent::Begin {
                subsystem, name, ..
            }
            | TraceEvent::Instant {
                subsystem, name, ..
            } => {
                assert_eq!(*subsystem, Subsystem::Geo, "geo runs label Geo");
                *counts.entry(*name).or_insert(0) += 1;
            }
            TraceEvent::End { .. } => {}
        }
    }
    counts
}

#[test]
fn control_plane_trace_vocabulary_is_pinned() {
    // What the control plane records, by name — so a refactor cannot
    // silently relabel geo spans as fleet's, or drop or double an
    // event. Recorded at the commit before the fleet/geo control
    // planes were merged.
    let canonical: Vec<_> = control_vocabulary(&canonical_geo()).into_iter().collect();
    assert_eq!(canonical, [("route", 1131)], "canonical run");
    let saturated: Vec<_> = control_vocabulary(&saturated_geo()).into_iter().collect();
    assert_eq!(
        saturated,
        [
            ("burst", 5),
            ("drain", 9),
            ("migration_done", 31),
            ("route", 2019),
            ("scale_up", 10),
            ("shed", 2),
        ],
        "saturated run"
    );
}
