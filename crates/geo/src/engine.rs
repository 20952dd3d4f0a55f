//! The geo engine: a multi-region topology of fleet cells under one
//! windowed discrete-event runtime.
//!
//! There is one control plane, and it is the fleet's
//! ([`fleet::control`]): this module describes a [`GeoConfig`] to it
//! as a cell layout and wraps what comes back in a [`GeoReport`]. Every
//! tier is a cell with its own ring, autoscaler and host config; every
//! region is a device population on its edge tier's radio, with its
//! own derived trace stream phase-shifted by its timezone; every cell
//! pair shares one WAN fabric with the pair's bandwidth and RTT; edge
//! cells may burst to their region's core and take part in the
//! follow-the-sun rebalancer; and the latency-aware [`GeoRouter`]
//! picks the cell. The hosts are unmodified `fleet` host shards
//! speaking the fleet's own wire protocol, so every host-side
//! mechanism (warm pools, code loading, checkpoint/restore migration,
//! drains) works unchanged across regions.
//!
//! Cross-region traffic pays for distance twice: requests served away
//! from their home edge add the WAN round trip plus a bandwidth term
//! to their upload and download, and migration state is charged
//! through the shared per-pair fabric before the propagation delay.
//! Everything is seeded-deterministic: two runs of the same
//! [`GeoConfig`] produce bit-identical [`GeoReport`]s.

use crate::config::{GeoConfig, Topology};
use crate::report::GeoReport;
use crate::router::GeoRouter;
use fleet::config::{app_weights, HostConfig};
use fleet::control::{
    CellLayout, ControlLayout, FabricLayout, RegionLayout, WanLeg, STREAM_TRAFFIC,
};
use obsv::{Recorder, Subsystem};
use simkit::derive_seed;
use simkit::faults::FaultConfig;
use simkit::SimDuration;
use std::sync::Arc;

/// Run a geo scenario to completion (untraced).
pub fn run_geo(cfg: &GeoConfig) -> GeoReport {
    run_geo_traced(cfg, Recorder::disabled())
}

/// Run a geo scenario with an observability recorder attached.
/// Recording must not perturb the simulation: the report digest is
/// identical with a disabled recorder.
pub fn run_geo_traced(cfg: &GeoConfig, rec: Recorder) -> GeoReport {
    let topo = Topology::new(cfg);
    let layout = Arc::new(geo_layout(cfg, &topo));
    GeoReport::new(layout.run(&rec), cfg.regions.iter().map(|r| r.users))
}

/// Describe `cfg` over `topo` to the control plane.
fn geo_layout(cfg: &GeoConfig, topo: &Topology) -> ControlLayout {
    let n_cells = topo.n_cells();
    let cells = (0..n_cells)
        .map(|cell| {
            let tier = cfg.tier(cell);
            assert!(
                tier.initial_active <= tier.hosts && (tier.hosts == 0 || tier.initial_active >= 1),
                "tier initial_active must name a non-empty prefix of its hosts \
                 (or the tier must be empty — a users-only region)"
            );
            let edge = topo.is_edge(cell);
            // Each tier resolves the config's calibration map for its
            // own class, so one map can price the two apart.
            let class = if edge {
                exec::HostClass::EDGE_POP
            } else {
                exec::HostClass::REGIONAL_CORE
            };
            CellLayout {
                hosts: topo.hosts_in(cell),
                initial_active: tier.initial_active,
                autoscale: tier.autoscale,
                // Cloud-burst: a saturated edge PoP borrows standby
                // hosts from its region's core.
                burst_to: edge.then(|| topo.core_cell(topo.region_of_cell(cell))),
                // Follow the sun: warm containers move between edge
                // PoPs as the diurnal peak travels the ring.
                rebalances: edge,
                specs: vec![tier.spec; tier.hosts],
                host: HostConfig {
                    runtime: cfg.runtime,
                    pool: cfg.pool,
                    warehouse_capacity: cfg.warehouse_capacity,
                    access: tier.scenario,
                    compute_prices: cfg.calibration.resolve(class),
                },
            }
        })
        .collect();
    let traffic_root = derive_seed(cfg.seed, STREAM_TRAFFIC);
    let mut next_user = 0;
    let regions = cfg
        .regions
        .iter()
        .enumerate()
        .map(|(r, region)| {
            let first_user = next_user;
            next_user += region.users;
            RegionLayout {
                first_user,
                users: region.users,
                trace_seed: derive_seed(traffic_root, r as u64),
                start_hour: 8.0 + region.tz_offset_h,
                access: region.edge.scenario,
                device: region.device,
            }
        })
        .collect();
    let mut fabrics = vec![
        FabricLayout {
            bps: 0.0,
            rtt: SimDuration::ZERO,
        };
        topo.n_pairs()
    ];
    let mut fabric_of = Vec::with_capacity(n_cells * n_cells);
    for a in 0..n_cells {
        for b in 0..n_cells {
            let pair = topo.pair_index(a, b);
            fabrics[pair] = FabricLayout {
                bps: topo.cell_bps(a, b),
                rtt: topo.cell_rtt(a, b),
            };
            fabric_of.push(pair);
        }
    }
    let legs = (0..topo.n_regions())
        .flat_map(|region| (0..n_cells).map(move |cell| (region, cell)))
        .map(|(region, cell)| {
            topo.device_bps(region, cell).map(|bps| WanLeg {
                rtt: topo.device_rtt(region, cell),
                bps,
            })
        })
        .collect();
    let router = GeoRouter::new(cfg.affinity_bonus);
    let route_topo = topo.clone();
    ControlLayout {
        seed: cfg.seed,
        subsystem: Subsystem::Geo,
        cells,
        regions,
        fabrics,
        fabric_of,
        legs,
        route: Box::new(move |region, aid, rings, warm, admissible| {
            let warm = |cell| warm(cell).to_vec();
            router.route(&route_topo, region, aid, rings, warm, admissible)
        }),
        traffic: cfg.traffic.clone(),
        app_weights: app_weights(cfg.app_skew),
        admission_capacity: cfg.admission_capacity,
        rebalance: cfg.rebalance,
        resilience: cfg.resilience.clone(),
        faults: FaultConfig::none(),
        crash_reboot: SimDuration::ZERO,
        scan_interval: cfg.scan_interval(),
        sync_window: cfg.sync_window,
        scenario_plan: cfg.scenario_plan.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    fn small(regions: usize, seed: u64) -> GeoConfig {
        let mut cfg = GeoConfig::paper_default(regions, seed);
        for r in &mut cfg.regions {
            r.users = 8;
        }
        cfg.traffic.duration = SimDuration::from_secs(600);
        cfg
    }

    #[test]
    fn every_request_terminates_and_carries_its_region() {
        let cfg = small(2, 11);
        let rep = run_geo(&cfg);
        assert!(rep.summary.submitted > 0, "trace produced arrivals");
        for r in &rep.records {
            assert!(
                r.phase.is_terminal(),
                "request {} stuck in {:?}",
                r.id,
                r.phase
            );
            assert!(rep.region_of(r) < 2);
            if let (Some(cell), Some(host)) = (rep.cell_of(r), r.host) {
                assert!(cell < 4);
                assert!(host < 8);
            }
        }
        assert_eq!(
            rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
            rep.summary.submitted
        );
        assert_eq!(rep.control.double_admissions, 0);
        // The report's host → cell map is the topology's.
        let topo = Topology::new(&cfg);
        for cell in 0..topo.n_cells() {
            assert!(topo.hosts_in(cell).all(|g| rep.hosts[g].cell == cell));
        }
    }

    #[test]
    fn geo_layout_carries_tier_knobs() {
        let mut cfg = GeoConfig::paper_default(2, 7);
        cfg.regions[0].edge.hosts = 3;
        cfg.regions[0].edge.initial_active = 2;
        let layout = geo_layout(&cfg, &Topology::new(&cfg));
        let (edge, core) = (&layout.cells[0], &layout.cells[1]);
        assert_eq!((edge.hosts.clone(), edge.specs.len()), (0..3, 3));
        assert_eq!(edge.initial_active, 2);
        assert_eq!(edge.host.access, netsim::NetworkScenario::IotRadio);
        assert_eq!(core.host.access, netsim::NetworkScenario::WanWifi);
        assert_eq!(
            core.autoscale.host_boot,
            SimDuration::from_secs(90),
            "core tier boots on its own clock"
        );
        assert!(layout.faults.is_inert(), "geo injects no host crashes");
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = small(2, 42);
        assert_eq!(run_geo(&cfg).digest(), run_geo(&cfg).digest());
    }

    #[test]
    fn home_edge_serves_most_requests_under_light_load() {
        let rep = run_geo(&small(2, 5));
        let remote: Vec<_> = rep.records.iter().filter(|r| r.remote()).collect();
        assert!(!remote.is_empty());
        let home_edge = remote
            .iter()
            .filter(|r| !rep.cross_region(r) && rep.cell_of(r).is_some_and(|c| c % 2 == 0))
            .count();
        assert!(
            home_edge * 2 > remote.len(),
            "home edge served only {home_edge}/{}",
            remote.len()
        );
    }

    #[test]
    fn scenario_injection_adds_load_and_stays_bit_identical() {
        let quiet = run_geo(&small(2, 7));
        let mut cfg = small(2, 7);
        cfg.scenario_plan = Some(scenario::ScenarioSpec::flash_crowd(
            16,
            8,
            SimTime::from_secs(120),
            SimDuration::from_secs(60),
        ));
        let rep = run_geo(&cfg);
        let s = rep.scenario.as_ref().expect("scenario runs carry stats");
        assert_eq!(
            s.injected,
            s.submitted + s.suppressed,
            "arrival conservation"
        );
        assert!(s.submitted > 0, "the burst must inject arrivals");
        assert!(
            rep.summary.submitted > quiet.summary.submitted,
            "injected load must show up in the summary ({} vs {})",
            rep.summary.submitted,
            quiet.summary.submitted
        );
        for r in &rep.records {
            assert!(r.phase.is_terminal(), "request {} stuck", r.id);
        }
        // Injection rides the ordinary control-queue event stream, so
        // a replay reproduces it bit for bit.
        assert_eq!(rep.digest(), run_geo(&cfg).digest());
        // And the quiet config still digests identically to a build
        // without the scenario plane compiled in: `None` is the default.
        assert_eq!(quiet.digest(), run_geo(&small(2, 7)).digest());
    }

    #[test]
    fn cohort_radio_outage_defers_uploads_and_stays_bit_identical() {
        // The outage window must price geo uploads exactly as it does
        // the fleet's: cut transfers are deferred to the window edge,
        // give their slot back, and re-route with the herd.
        let mut cfg = small(2, 7);
        cfg.scenario_plan = Some(scenario::ScenarioSpec::correlated_failure(
            50,
            SimTime::from_secs(120),
            SimDuration::from_secs(180),
        ));
        let rep = run_geo(&cfg);
        let s = rep.scenario.as_ref().expect("scenario runs carry stats");
        assert!(s.deferred > 0, "the outage cut no upload");
        assert_eq!(s.injected, s.submitted + s.suppressed);
        for r in &rep.records {
            assert!(r.phase.is_terminal(), "request {} stuck", r.id);
        }
        assert_eq!(rep.control.double_admissions, 0);
        assert_eq!(rep.digest(), run_geo(&cfg).digest());
    }

    #[test]
    fn migration_conservation_holds_end_to_end() {
        // Make cross-cell migration eager so the invariant has teeth.
        let mut cfg = small(2, 9);
        cfg.rebalance.imbalance_threshold = 0.05;
        cfg.rebalance.min_interval = SimDuration::from_secs(10);
        let rep = run_geo(&cfg);
        for m in &rep.migrations {
            assert_eq!(m.bytes_src, m.bytes_wire, "fabric charged wrong bytes");
            if m.completed {
                assert_eq!(m.bytes_src, m.bytes_dst, "state lost in flight");
            } else {
                assert_eq!(m.bytes_dst, 0, "orphaned move landed bytes");
            }
        }
    }
}
