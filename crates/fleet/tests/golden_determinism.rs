//! Golden determinism for the fleet control plane.
//!
//! One canonical 4-host run is pinned by digest, alongside rattrap's
//! six per-platform goldens. Any change to routing, admission,
//! autoscaling, rebalancing, the event engine, or the report layout
//! moves this number — bump it ONLY for an intentional behavioural
//! change, and say so in the commit message.

use fleet::{run_fleet, run_fleet_traced, AutoscalePolicy, FleetConfig};
use obsv::{Recorder, RecorderConfig, Subsystem, TraceEvent};
use scenario::ScenarioSpec;
use simkit::faults::FaultConfig;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Same seed the rattrap goldens pin (2017-05-29, Rattrap's IPDPS
/// submission year/date motif).
const GOLDEN_SEED: u64 = 0x2017_0529;

/// Digest of the canonical 4-host run. Regenerated once for the
/// windowed LP engine: cross-host interactions (completion notices,
/// crash/drain control, migration hand-off) now cross a one-window
/// message boundary, which legitimately shifts their timing.
const GOLDEN_FLEET_DIGEST: u64 = 0xc722_c512_a546_9f68;

/// The canonical fleet scenario: four paper servers, a skewed LiveLab
/// day of traffic, mild faults so crash-recovery code is on the golden
/// path, and the standard rebalance policy.
fn canonical() -> FleetConfig {
    let mut cfg = FleetConfig::paper_default(4, GOLDEN_SEED);
    cfg.traffic.users = 200;
    cfg.faults = FaultConfig::scaled(0.5);
    cfg
}

#[test]
fn fleet_golden_digest_is_pinned() {
    let rep = run_fleet(&canonical());
    assert!(rep.summary.submitted > 0, "canonical run serves traffic");
    assert_eq!(
        rep.digest(),
        GOLDEN_FLEET_DIGEST,
        "canonical 4-host fleet digest moved: {:#018x} (submitted={} remote={} \
         crashes={} reroutes={} migrations={})",
        rep.digest(),
        rep.summary.submitted,
        rep.summary.completed_remote,
        rep.control.host_crashes,
        rep.control.crash_reroutes,
        rep.control.migrations_completed,
    );
}

#[test]
fn traced_run_reproduces_the_golden_digest() {
    // Observation must not perturb the run: the traced replay hits the
    // same pinned digest and actually records fleet activity.
    let rec = Recorder::enabled(RecorderConfig::default());
    let rep = run_fleet_traced(&canonical(), rec.clone());
    assert_eq!(rep.digest(), GOLDEN_FLEET_DIGEST);
    let snap = rec.snapshot();
    assert!(!snap.events.is_empty(), "traced run recorded events");
}

#[test]
fn neighbouring_seed_diverges() {
    let mut cfg = canonical();
    cfg.seed = GOLDEN_SEED + 1;
    let rep = run_fleet(&cfg);
    assert_ne!(
        rep.digest(),
        GOLDEN_FLEET_DIGEST,
        "digest must be seed-sensitive"
    );
}

/// The canonical run plus everything it leaves cold: an elastic fleet
/// (standby capacity, tight admission) under heavier faults and a
/// cohort radio outage, so scaling, shedding and radio deferral are on
/// the traced path too.
fn stressed() -> FleetConfig {
    let mut cfg = canonical();
    cfg.initial_active = 2;
    cfg.autoscale = AutoscalePolicy::standard();
    cfg.admission_capacity = 2;
    cfg.faults = FaultConfig::scaled(1.5);
    cfg.scenario_plan = Some(ScenarioSpec::correlated_failure(
        50,
        SimTime::from_secs(900),
        SimDuration::from_secs(600),
    ));
    cfg
}

/// Count the control plane's own trace events per name. Every other
/// subsystem is sampled off so the ring holds the whole run.
fn control_vocabulary(cfg: &FleetConfig) -> BTreeMap<&'static str, u64> {
    let mut sample = [0; Subsystem::ALL.len()];
    sample[Subsystem::Fleet.index()] = 1;
    let rc = RecorderConfig {
        sample,
        ..RecorderConfig::default()
    };
    let rec = Recorder::enabled(rc);
    run_fleet_traced(cfg, rec.clone());
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
                assert_eq!(*subsystem, Subsystem::Fleet, "fleet runs label Fleet");
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
    // silently relabel, drop or double an event. Recorded at the
    // commit before the fleet/geo control planes were merged.
    let canonical: Vec<_> = control_vocabulary(&canonical()).into_iter().collect();
    assert_eq!(
        canonical,
        [("host_crash", 5), ("migration_done", 10), ("route", 13003)],
        "canonical run"
    );
    let stressed: Vec<_> = control_vocabulary(&stressed()).into_iter().collect();
    assert_eq!(
        stressed,
        [
            ("drain", 1),
            ("host_crash", 23),
            ("migration_done", 16),
            ("radio_defer", 985),
            ("reroute", 18),
            ("route", 9740),
            ("scale_up", 3),
            ("shed", 4266),
        ],
        "stressed run"
    );
}

/// The repo benchmark's two fleet workloads (`benchmark/src/sim.rs`:
/// `fleet_long` and `fleet_dense`, seed 7) at its `--smoke` horizon, a
/// tenth of the full one. `benchmark/check.sh` pins the same runs, but
/// only behind `RATTRAP_BENCH_SMOKE=1`; here a plain `cargo test`
/// notices an engine change that moves either shape — the narrow one
/// that lives on per-event costs or the wide one that walks 128 rings.
#[test]
fn benchmark_fleet_shapes_are_pinned_at_smoke_horizon() {
    let shapes = [
        (
            "fleet_long",
            8,
            1_600,
            360,
            8_413,
            0x9b86_4c09_63b2_f0bb_u64,
        ),
        ("fleet_dense", 128, 150_000, 2, 355, 0x4ec2_1a7b_8524_3b30),
    ];
    for (name, hosts, users, horizon_s, requests, digest) in shapes {
        let mut cfg = FleetConfig::paper_default(hosts, 7);
        cfg.traffic.users = users;
        cfg.traffic.duration = SimDuration::from_secs(horizon_s);
        let rep = run_fleet(&cfg);
        assert_eq!(rep.summary.submitted, requests, "{name}: arrivals moved");
        assert_eq!(
            rep.digest(),
            digest,
            "{name} at smoke horizon moved: {:#018x}",
            rep.digest()
        );
    }
}
