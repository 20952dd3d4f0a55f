//! Storm — the scenario plane's evaluation (`exp_storm`).
//!
//! Drives all four adversarial scenario families through the fleet
//! engine and scores the platform's behaviour under each:
//!
//! 1. **flash crowd** — a burst cohort ramps arrivals ~12× over the
//!    base population; the fleet must absorb it with p95 within 1.5×
//!    of the quiet fleet's and lose nothing.
//! 2. **correlated failure** — half the devices lose their radio for a
//!    two-minute window composed with PR 2's host-crash FaultPlan; the
//!    restore edge must produce a thundering herd (deferred uploads
//!    re-routing together) and still conserve accounting.
//! 3. **noisy neighbor** — a batch tenant (VirusScan/Linpack) shares
//!    the fleet with an interactive tenant (OCR/chess); the per-tenant
//!    split must partition the run exactly.
//! 4. **interaction storm** — hundreds of emulated Android containers
//!    replay scripted touch/offload events; only the offloading
//!    fraction may reach the cloud.
//!
//! Every family runs twice from its seed and must digest identically
//! — adversarial traffic may not open a determinism seam. The
//! scorecard encodes the ISSUE's acceptance bars: p99 degradation
//! bounds, zero lost requests, shed accounting, herd evidence and
//! suppression ratios.

use super::ExperimentOutput;
use analysis::{fnum, Scorecard, Table};
use fleet::{run_fleet, FleetConfig, FleetReport};
use rayon::prelude::*;
use scenario::{ScenarioFamily, ScenarioSpec};
use simkit::faults::FaultConfig;
use simkit::{SimDuration, SimTime};

/// Users in the quiet base population.
fn base_users(smoke: bool) -> u32 {
    if smoke {
        96
    } else {
        240
    }
}

/// The quiet fleet every family storms: 4 hosts, LiveLab diurnal
/// traffic, no scenario plan.
fn quiet_cfg(seed: u64, smoke: bool) -> FleetConfig {
    let mut cfg = FleetConfig::paper_default(4, seed);
    cfg.traffic.users = base_users(smoke);
    cfg.traffic.duration = SimDuration::from_secs(if smoke { 900 } else { 3600 });
    cfg
}

/// The canonical spec for one family, sized against the quiet fleet.
fn family_spec(family: ScenarioFamily, smoke: bool) -> ScenarioSpec {
    let users = base_users(smoke);
    let horizon = if smoke { 900u64 } else { 3600 };
    let start = SimTime::from_secs(horizon / 4);
    match family {
        ScenarioFamily::FlashCrowd => {
            ScenarioSpec::flash_crowd(users, 12, start, SimDuration::from_secs(60))
        }
        ScenarioFamily::CorrelatedFailure => {
            ScenarioSpec::correlated_failure(50, start, SimDuration::from_secs(120))
        }
        ScenarioFamily::NoisyNeighbor => ScenarioSpec::noisy_neighbor(1, 2),
        ScenarioFamily::InteractionStorm => ScenarioSpec::interaction_storm(
            if smoke { 240 } else { 600 },
            start,
            SimDuration::from_secs(horizon / 3),
            55,
        ),
    }
}

/// The fleet config one family storms. The correlated-failure family
/// composes the radio outage with the host-crash fault plan.
fn family_cfg(family: ScenarioFamily, seed: u64, smoke: bool) -> FleetConfig {
    let mut cfg = quiet_cfg(seed, smoke);
    cfg.scenario_plan = Some(family_spec(family, smoke));
    if family == ScenarioFamily::CorrelatedFailure {
        cfg.faults = FaultConfig::scaled(0.5);
    }
    cfg
}

/// One family's measured outcome.
struct FamilyCell {
    family: ScenarioFamily,
    report: FleetReport,
    /// Whether a same-seed replay digested identically.
    deterministic: bool,
}

/// Terminal accounting partitions submissions.
fn conserved(r: &FleetReport) -> bool {
    r.summary.completed_remote + r.summary.fallback_local + r.summary.abandoned
        == r.summary.submitted
}

/// Run the storm study under an explicit smoke flag: the quiet fleet,
/// then every family run and replayed from the same seed.
pub fn run_scaled(seed: u64, smoke: bool) -> ExperimentOutput {
    let quiet = run_fleet(&quiet_cfg(seed, smoke));
    let cells: Vec<FamilyCell> = ScenarioFamily::ALL
        .par_iter()
        .map(|&family| {
            let cfg = family_cfg(family, seed, smoke);
            let report = run_fleet(&cfg);
            FamilyCell {
                family,
                deterministic: report.digest() == run_fleet(&cfg).digest(),
                report,
            }
        })
        .collect();

    let mut table = Table::new(
        &format!(
            "scenario storms — 4 hosts, {} base users, quiet p95 {:.2}s",
            base_users(smoke),
            quiet.summary.p95_response_s
        ),
        &[
            "Family",
            "Injected",
            "Submitted",
            "Suppressed",
            "Deferred",
            "Fleet subm.",
            "Remote",
            "Local",
            "Abandoned",
            "Shed",
            "p95 (s)",
        ],
    );
    for c in &cells {
        let s = c.report.scenario.as_ref().expect("storm runs carry stats");
        table.row(&[
            c.family.label().into(),
            s.injected.to_string(),
            s.submitted.to_string(),
            s.suppressed.to_string(),
            s.deferred.to_string(),
            c.report.summary.submitted.to_string(),
            c.report.summary.completed_remote.to_string(),
            c.report.summary.fallback_local.to_string(),
            c.report.summary.abandoned.to_string(),
            c.report.control.shed.to_string(),
            fnum(c.report.summary.p95_response_s, 2),
        ]);
    }

    // Per-tenant split of the noisy-neighbor cell.
    let noisy = &cells
        .iter()
        .find(|c| c.family == ScenarioFamily::NoisyNeighbor)
        .expect("all families run")
        .report;
    let tenants = &noisy.scenario.as_ref().expect("noisy has stats").tenants;
    let mut ttable = Table::new(
        "noisy neighbor — per-tenant split",
        &[
            "Tenant",
            "Submitted",
            "Remote",
            "Local",
            "Abandoned",
            "Mean (s)",
            "p99 (s)",
        ],
    );
    for t in tenants {
        ttable.row(&[
            t.name.clone(),
            t.submitted.to_string(),
            t.completed_remote.to_string(),
            t.fallback_local.to_string(),
            t.abandoned.to_string(),
            fnum(t.mean_response_s, 2),
            fnum(t.p99_response_s, 2),
        ]);
    }

    let cell = |f: ScenarioFamily| cells.iter().find(|c| c.family == f).expect("family ran");
    let crowd = cell(ScenarioFamily::FlashCrowd);
    let outage = cell(ScenarioFamily::CorrelatedFailure);
    let storm = cell(ScenarioFamily::InteractionStorm);

    let mut sc = Scorecard::new();
    sc.expect(
        "every family replays bit-identically from its seed",
        "4 / 4 families",
        &format!(
            "{} / 4 families",
            cells.iter().filter(|c| c.deterministic).count()
        ),
        cells.iter().all(|c| c.deterministic),
    );
    sc.expect(
        "zero lost requests under every storm",
        "remote + local + abandoned = submitted, all families",
        &cells
            .iter()
            .map(|c| format!("{}:{}", c.family.label(), conserved(&c.report)))
            .collect::<Vec<_>>()
            .join(" "),
        cells.iter().all(|c| conserved(&c.report)),
    );
    sc.expect(
        "scenario arrival conservation holds everywhere",
        "injected = submitted + suppressed, all families",
        &cells
            .iter()
            .map(|c| {
                let s = c.report.scenario.as_ref().unwrap();
                format!("{}={}+{}", s.injected, s.submitted, s.suppressed)
            })
            .collect::<Vec<_>>()
            .join(" "),
        cells.iter().all(|c| {
            let s = c.report.scenario.as_ref().unwrap();
            s.injected == s.submitted + s.suppressed
        }),
    );
    sc.expect(
        "the flash crowd visibly ramps load",
        "≥ 2x quiet submissions",
        &format!(
            "{} vs {} quiet",
            crowd.report.summary.submitted, quiet.summary.submitted
        ),
        crowd.report.summary.submitted >= 2 * quiet.summary.submitted,
    );
    // Shedding is the pressure valve: under a 12x burst the fleet may
    // refuse admission, but every shed request must be accounted for
    // in the device-local / abandoned buckets, never dropped.
    sc.expect(
        "flash-crowd shed requests are re-absorbed, not lost",
        "shed ≤ local + abandoned",
        &format!(
            "{} shed, {} local + {} abandoned",
            crowd.report.control.shed,
            crowd.report.summary.fallback_local,
            crowd.report.summary.abandoned
        ),
        crowd.report.control.shed
            <= crowd.report.summary.fallback_local + crowd.report.summary.abandoned,
    );
    // Admission sheds the burst rather than queueing it, so the
    // requests the fleet does serve barely slow down (1.01x full,
    // 1.24x smoke at the default seed).
    let p95_degradation =
        crowd.report.summary.p95_response_s / quiet.summary.p95_response_s.max(1e-9);
    sc.expect(
        "flash-crowd p95 degradation is bounded",
        "≤ 1.5x quiet p95",
        &format!(
            "{:.2}s vs quiet {:.2}s = {p95_degradation:.2}x",
            crowd.report.summary.p95_response_s, quiet.summary.p95_response_s
        ),
        p95_degradation <= 1.5,
    );
    let deferred = outage.report.scenario.as_ref().unwrap().deferred;
    sc.expect(
        "the outage cuts uploads mid-flight and herds the restore",
        "deferred ≥ 1",
        &deferred.to_string(),
        deferred >= 1,
    );
    sc.expect(
        "the tenant split partitions the noisy-neighbor run",
        "Σ tenant submitted = fleet submitted",
        &format!(
            "{} = {}",
            tenants.iter().map(|t| t.submitted).sum::<u64>(),
            noisy.summary.submitted
        ),
        tenants.iter().map(|t| t.submitted).sum::<u64>() == noisy.summary.submitted
            && tenants
                .iter()
                .all(|t| t.completed_remote + t.fallback_local + t.abandoned == t.submitted),
    );
    sc.expect(
        "both tenants are served despite interference",
        "submitted ≥ 1 each",
        &tenants
            .iter()
            .map(|t| format!("{}:{}", t.name, t.submitted))
            .collect::<Vec<_>>()
            .join(" "),
        tenants.iter().all(|t| t.submitted >= 1),
    );
    let ss = storm.report.scenario.as_ref().unwrap();
    let offload_frac = ss.submitted as f64 / (ss.injected.max(1)) as f64;
    sc.expect(
        "the interaction storm offloads ~55% of scripted events",
        "0.45 ≤ offload fraction ≤ 0.65",
        &format!("{offload_frac:.2}"),
        (0.45..=0.65).contains(&offload_frac),
    );

    ExperimentOutput {
        id: "Storm",
        body: format!("{}\n{}", table.render(), ttable.render()),
        scorecard: sc,
    }
}

/// Run the storm study (smoke mode via `RATTRAP_BENCH_SMOKE`).
pub fn run(seed: u64) -> ExperimentOutput {
    run_scaled(seed, super::smoke())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_scorecard_passes_in_smoke_scale() {
        let out = run_scaled(super::super::DEFAULT_SEED, true);
        assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
    }
}
