//! Geo — the multi-region edge hierarchy's evaluation (`exp_geo`).
//!
//! The paper offloads to one nearby server; this experiment asks what
//! happens when the users are planetary and the hardware is not: three
//! regions on a WAN ring, each with a capacity-fixed edge PoP and an
//! elastic regional core, against the obvious alternative — the same
//! total hardware centralized in one region, with every remote user
//! paying the WAN to reach it.
//!
//! 1. **Latency at the edge** — per-region p50/p99 response under a
//!    sun-following diurnal load (each region's LiveLab day is shifted
//!    by its timezone). The acceptance bar: geo beats the centralized
//!    baseline's p99 in every remote region.
//! 2. **Cloud-burst** — edge PoPs run all hosts active (a PoP has no
//!    spare racks); when one saturates, the autoscaler borrows standby
//!    hosts from the regional core. The run must show bursts.
//! 3. **Follow-the-sun** — the rebalancer migrates warm containers
//!    from the hottest edge to the coldest across regions over the
//!    WAN fabric. The run must complete cross-region migrations.
//!
//! The WAN model is deliberately pessimistic about per-flow transfer
//! speed: `INTER_REGION_FLOW_BPS` reflects what a single mobile-
//! offloading flow actually sustains across a continent at ~150 ms
//! RTT (a few Mbit/s), not the provisioned trunk capacity — that is
//! the regime where edge locality pays. Migration checkpoints are
//! bulk transfers striped across parallel streams, so they keep the
//! provisioned `inter_bps` backbone rate.
//!
//! The headline geo run doubles as a determinism check: it is replayed
//! from the same seed and the two reports must digest identically.

use super::{slashed, ExperimentOutput};
use analysis::{fnum, Scorecard, Table};
use geo::{run_geo, GeoConfig, GeoReport, TierSpec};
use rayon::prelude::*;
use simkit::SimDuration;

/// Regions on the WAN ring.
const REGIONS: usize = 3;

/// Geo p99 ceiling (s) for remote regions 1 and 2: 1.5× the full-scale
/// p99 measured when the ceiling was set (11.025 / 9.938 s). Smoke
/// runs sit below full scale, so one ceiling serves both.
const REMOTE_P99_CEILING_S: [f64; REGIONS - 1] = [16.5375, 14.907];

/// Effective per-flow throughput across one or more inter-region hops
/// (bytes/s): ~4 Mbit/s, a single TCP flow at intercontinental RTT.
const INTER_REGION_FLOW_BPS: f64 = 5.0e5;

/// One-way inter-region hop latency added per ring hop.
const HOP_RTT_MS: u64 = 75;

fn wan(cfg: &mut GeoConfig) {
    cfg.wan.flow_bps = Some(INTER_REGION_FLOW_BPS);
    cfg.wan.hop_rtt = SimDuration::from_millis(HOP_RTT_MS);
    // Ten simulated minutes of each region's (offset) LiveLab day —
    // enough for the autoscaler and rebalancer to act at both scales.
    cfg.traffic.duration = SimDuration::from_secs(600);
    // The diurnal imbalance (one region at peak while another sleeps)
    // is the signal; key the rebalancer low enough to act on it.
    cfg.rebalance.imbalance_threshold = 0.10;
    cfg.rebalance.min_interval = SimDuration::from_secs(30);
}

/// Per-region sizing: users, edge hosts (all active — a PoP is
/// capacity-fixed), core (hosts, initially active; the rest is the
/// burst pool).
fn sizing(smoke: bool) -> (u32, usize, (usize, usize)) {
    if smoke {
        (500, 2, (4, 1))
    } else {
        (34_000, 104, (80, 24))
    }
}

/// The geo deployment: hardware at every region's edge and core.
fn geo_cfg(seed: u64, smoke: bool) -> GeoConfig {
    let (users, edge, (core, core_active)) = sizing(smoke);
    let mut cfg = GeoConfig::paper_default(REGIONS, seed);
    wan(&mut cfg);
    for r in &mut cfg.regions {
        r.users = users;
        r.edge.hosts = edge;
        r.edge.initial_active = edge;
        r.core.hosts = core;
        r.core.initial_active = core_active;
    }
    cfg
}

/// The centralized baseline: identical users, identical total
/// hardware, all of it in region 0 — regions 1.. are users-only, and
/// every one of their requests crosses the WAN.
fn single_region_cfg(seed: u64, smoke: bool) -> GeoConfig {
    let (users, edge, (core, core_active)) = sizing(smoke);
    let mut cfg = GeoConfig::paper_default(REGIONS, seed);
    wan(&mut cfg);
    for r in &mut cfg.regions {
        r.users = users;
        r.edge = TierSpec {
            hosts: 0,
            initial_active: 0,
            ..TierSpec::edge()
        };
        r.core = TierSpec {
            hosts: 0,
            initial_active: 0,
            ..TierSpec::core()
        };
    }
    cfg.regions[0].edge = TierSpec {
        hosts: edge * REGIONS,
        initial_active: edge * REGIONS,
        ..TierSpec::edge()
    };
    cfg.regions[0].core = TierSpec {
        hosts: core * REGIONS,
        initial_active: core_active * REGIONS,
        ..TierSpec::core()
    };
    cfg
}

fn terminal_ok(rep: &GeoReport) -> bool {
    rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned
        == rep.summary.submitted
}

/// Run the geo study with an explicit smoke flag. The headline run is
/// replayed from the same seed and the digests must match bit for bit.
pub fn run_scaled(seed: u64, smoke: bool) -> ExperimentOutput {
    let gcfg = geo_cfg(seed, smoke);
    let bcfg = single_region_cfg(seed, smoke);

    // Three independent runs, in parallel; results come back in order.
    let reports: Vec<GeoReport> = [&gcfg, &bcfg, &gcfg]
        .par_iter()
        .map(|cfg| run_geo(cfg))
        .collect();
    let (grep, brep, replay) = (&reports[0], &reports[1], &reports[2]);

    let total_users: u32 = gcfg.regions.iter().map(|r| r.users).sum();
    let mut table = Table::new(
        &format!(
            "latency at the edge — {total_users} users, {REGIONS} regions, diurnal offsets, \
             geo vs centralized"
        ),
        &[
            "Region",
            "Submitted",
            "Cross-region",
            "geo p50 (s)",
            "geo p99 (s)",
            "central p50 (s)",
            "central p99 (s)",
            "p99 delta",
        ],
    );
    for (i, (g, b)) in grep.regions.iter().zip(&brep.regions).enumerate() {
        table.row(&[
            i.to_string(),
            g.submitted.to_string(),
            format!(
                "{:.1}%",
                100.0 * g.cross_region as f64 / g.submitted.max(1) as f64
            ),
            fnum(g.p50_response_s, 2),
            fnum(g.p99_response_s, 2),
            fnum(b.p50_response_s, 2),
            fnum(b.p99_response_s, 2),
            format!("{:+.2}s", g.p99_response_s - b.p99_response_s),
        ]);
    }

    let mb = |bytes: u64| format!("{:.1} MB", bytes as f64 / 1e6);
    let mut ctable = Table::new(
        "control plane — burst, rebalance, WAN traffic",
        &["Metric", "geo", "centralized"],
    );
    ctable.row(&[
        "core scale-ups".into(),
        grep.control.scale_ups.to_string(),
        brep.control.scale_ups.to_string(),
    ]);
    ctable.row(&[
        "cloud-bursts (edge → core standby)".into(),
        grep.control.bursts.to_string(),
        brep.control.bursts.to_string(),
    ]);
    ctable.row(&[
        "drains".into(),
        grep.control.drains.to_string(),
        brep.control.drains.to_string(),
    ]);
    ctable.row(&[
        "migrations completed".into(),
        format!(
            "{} of {}",
            grep.control.migrations_completed, grep.control.migrations_started
        ),
        format!(
            "{} of {}",
            brep.control.migrations_completed, brep.control.migrations_started
        ),
    ]);
    ctable.row(&[
        "migration bytes over the fabric".into(),
        mb(grep.control.migration_bytes),
        mb(brep.control.migration_bytes),
    ]);
    ctable.row(&[
        "request payload over the WAN".into(),
        mb(grep.control.wan_request_bytes),
        mb(brep.control.wan_request_bytes),
    ]);
    ctable.row(&[
        "cross-region routes".into(),
        grep.control.cross_region_routes.to_string(),
        brep.control.cross_region_routes.to_string(),
    ]);
    ctable.row(&[
        "shed".into(),
        grep.control.shed.to_string(),
        brep.control.shed.to_string(),
    ]);
    ctable.row(&[
        "delivered".into(),
        format!(
            "{} remote + {} local of {}",
            grep.summary.completed_remote, grep.summary.fallback_local, grep.summary.submitted
        ),
        format!(
            "{} remote + {} local of {}",
            brep.summary.completed_remote, brep.summary.fallback_local, brep.summary.submitted
        ),
    ]);

    let mut sc = Scorecard::new();
    let remote_win =
        (1..REGIONS).all(|r| grep.regions[r].p99_response_s < brep.regions[r].p99_response_s);
    sc.expect(
        "geo wins p99 in every remote region",
        "geo p99 < centralized p99 for regions 1..",
        &(1..REGIONS)
            .map(|r| {
                format!(
                    "r{r}: {:.2} vs {:.2}",
                    grep.regions[r].p99_response_s, brep.regions[r].p99_response_s
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
        remote_win,
    );
    let remote_p99: Vec<f64> = grep.regions[1..].iter().map(|g| g.p99_response_s).collect();
    sc.expect(
        "remote-region geo p99 stays under its ceiling",
        &format!("≤ {} s for regions 1..", slashed(&REMOTE_P99_CEILING_S)),
        &slashed(&remote_p99),
        remote_p99
            .iter()
            .zip(&REMOTE_P99_CEILING_S)
            .all(|(p99, cap)| p99 <= cap),
    );
    sc.expect(
        "the home edge serves the majority of geo traffic",
        "cross-region routes < 50% of submitted",
        &format!(
            "{} of {}",
            grep.control.cross_region_routes, grep.summary.submitted
        ),
        grep.control.cross_region_routes * 2 < grep.summary.submitted,
    );
    sc.expect(
        "a saturated edge bursts into core standby",
        "bursts ≥ 1",
        &grep.control.bursts.to_string(),
        grep.control.bursts >= 1,
    );
    sc.expect(
        "follow-the-sun completes warm migrations",
        "migrations completed ≥ 1",
        &grep.control.migrations_completed.to_string(),
        grep.control.migrations_completed >= 1,
    );
    sc.expect(
        "centralizing pushes the remote payload across the WAN",
        "centralized WAN request bytes > geo's",
        &format!(
            "{} vs {}",
            mb(brep.control.wan_request_bytes),
            mb(grep.control.wan_request_bytes)
        ),
        brep.control.wan_request_bytes > grep.control.wan_request_bytes,
    );
    sc.expect(
        "every request reaches a terminal phase (both deployments)",
        "remote + local + abandoned = submitted",
        &format!(
            "geo {} of {}, centralized {} of {}",
            grep.summary.completed_remote + grep.summary.fallback_local + grep.summary.abandoned,
            grep.summary.submitted,
            brep.summary.completed_remote + brep.summary.fallback_local + brep.summary.abandoned,
            brep.summary.submitted,
        ),
        terminal_ok(grep) && terminal_ok(brep),
    );
    sc.expect(
        "same seed, replayed, bit-identical report",
        &format!("{:#018x}", grep.digest()),
        &format!("{:#018x}", replay.digest()),
        grep.digest() == replay.digest(),
    );

    ExperimentOutput {
        id: "Geo",
        body: format!("{}\n{}", table.render(), ctable.render()),
        scorecard: sc,
    }
}

/// Run the geo study (smoke mode via `RATTRAP_BENCH_SMOKE`).
pub fn run(seed: u64) -> ExperimentOutput {
    run_scaled(seed, super::smoke())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_scorecard_passes_in_smoke_scale() {
        let out = run_scaled(super::super::DEFAULT_SEED, true);
        assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
    }
}
